//! `serve_scene`: the serving path. One in-process `Server` hosts
//! `satcnn` (3×32×32 classifier) and `unet` (3→1 segmenter) over a
//! synthetic 4096² 3-band scene.
//!
//! * Phase (a): embedded `run_mosaic` over a fixed 1024² region of
//!   interest through `Server::client("unet")`.
//! * Phase (b): open loop over keep-alive, pipelined HTTP connections at
//!   a fixed offered rate: small classify requests on one connection,
//!   the 121 128² tiles of the same region (stitched client-side through
//!   `MosaicAccumulator`) and a head-only weight update posted to
//!   `POST /models/satcnn/publish` every few seconds on the other.
//! * Phase (c): closed-loop classify capacity, `nproc` connections at a
//!   fixed pipeline depth.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};

use geotorch_datasets::synth::RasterScene;
use geotorch_datasets::GridSampler;
use geotorch_models::raster::{SatCnn, UNet};
use geotorch_models::RasterClassifier;
use geotorch_nn::{Module, Var};
use geotorch_raster::{core_of, BlendMode, MosaicAccumulator, Raster, Window};
use geotorch_serve::{
    BatchConfig, ClassifierServe, Registry, SegmenterServe, ServeConfig, ServeModel, Server,
    TileConfig,
};
use geotorch_tensor::{Device, Tensor};

use crate::http::{self, Planned, Reply};
use crate::layers::ServeStages;
use crate::report::{mean, median, percentile, Accounting, Check, Metric, Outcome};
use crate::trace::{self, Counters, Delta};
use crate::{Args, WORK_DIR};

/// Set-up runs per benchmark run (each builds the 4096² scene and starts
/// a server); `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const BANDS: usize = 3;
const SCENE: usize = 4096;
const TILE: usize = 128;
const STRIDE: usize = 96;
const HALO: usize = 16;
/// 1024² at (512, 512): 121 tiles of 128² at stride 96.
const ROI: Window = Window {
    row: 512,
    col: 512,
    height: 1024,
    width: 1024,
};
const CLASSIFY_SIZE: usize = 32;
const CLASSES: usize = 10;
/// Distinct classify inputs, cycled through.
const CLASSIFY_POOL: usize = 64;
/// Open-loop classify rate, requests/s. The server answers one
/// connection's pipelined requests in order, so this rate keeps the
/// classify connection about a third busy on a 2-core x86-64 host.
const CLASSIFY_RATE: f64 = 80.0;
/// p99 needs ≥ 1000 samples to have 10 beyond it.
const MIN_CLASSIFY: usize = 1000;
/// Seconds between head-only publishes.
const PUBLISH_EVERY_S: f64 = 3.0;
/// Rounds of phases (a), (b), (c); each reported figure is the median
/// over rounds, so a stall on the host moves at most one of them.
const ROUNDS: usize = 3;
/// Closed-loop sessions per round, each on fresh connections; capacity
/// is the median over all sessions. How two pipelined connections fall
/// into step with the batch window differs from session to session.
const CAPACITY_SESSIONS: usize = 4;
/// Closed-loop pipeline depth per connection.
const CAPACITY_DEPTH: usize = 4;
/// Phase shares of the `--seconds` budget.
const SHARE_A: f64 = 0.2;
const SHARE_B: f64 = 0.6;
const SHARE_C: f64 = 0.2;
/// Embedded mosaics per second of phase (a) budget (one takes ≈ 0.6 s
/// on a 2-core x86-64 host).
const MOSAICS_PER_SECOND: f64 = 1.6;
/// The run is invalid when the generator sends its p99 request later
/// than this after its due time.
const LATE_BOUND_MS: f64 = 50.0;
/// Request deadline; a failed request is reported at this latency.
const DEADLINE_MS: u64 = 10_000;

fn tile_config() -> TileConfig {
    TileConfig {
        tile: TILE,
        stride: STRIDE,
        halo: HALO,
        alignment: 4,
        classes: 1,
        max_in_flight: 4,
        tile_deadline: Some(Duration::from_millis(DEADLINE_MS)),
        blend: BlendMode::Cosine,
    }
}

/// The served models' weights come from this one seed and `--seed`
/// picks the inputs only, so the work a run does stays the same from
/// seed to seed: some weight draws leave most of the UNet's output at
/// exactly 0, and such a model's tile replies are a fifth as long.
const MODEL_SEED: u64 = 3;

fn satcnn() -> SatCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(MODEL_SEED ^ 0xc1a5);
    SatCnn::new(BANDS, CLASSIFY_SIZE, CLASSIFY_SIZE, CLASSES, &mut rng)
}

fn unet() -> UNet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(MODEL_SEED ^ 0x5e6);
    UNet::new(BANDS, 1, 4, &mut rng)
}

/// Forward calls seen by a served model: (batch rows, ns).
type ForwardLog = Arc<Mutex<Vec<(usize, u64)>>>;

/// A served model that times its own batched forwards.
struct TimedServe {
    inner: Box<dyn ServeModel>,
    log: ForwardLog,
}

impl Module for TimedServe {
    fn parameters(&self) -> Vec<Var> {
        self.inner.parameters()
    }

    fn set_training(&self, training: bool) {
        self.inner.set_training(training);
    }
}

impl ServeModel for TimedServe {
    fn predict(&self, batch: &Var) -> Var {
        let rows = batch.shape()[0];
        let _span = trace::span("serve.forward", rows as u64);
        let start = Instant::now();
        let out = self.inner.predict(batch);
        let ns = start.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .expect("forward log lock poisoned")
            .push((rows, ns));
        out
    }
}

/// Inputs and the running server.
struct Setup {
    seed: u64,
    server: Server,
    scene: Raster,
    store_dir: PathBuf,
    classify_inputs: Vec<Tensor>,
    classify_bodies: Vec<Vec<u8>>,
    windows: Vec<Window>,
    tile_bodies: Vec<Vec<u8>>,
    /// Head-only updates: full state dicts and their publish bodies.
    publish_states: Vec<Vec<Tensor>>,
    publish_bodies: Vec<Vec<u8>>,
    forwards: BTreeMap<&'static str, ForwardLog>,
}

fn setup(args: &Args, rep: usize, publishes: usize) -> Setup {
    let seed = args.seed;
    let scene_size = if args.smoke { 1536 } else { SCENE };
    let roi = roi(args);
    let (scene, _) = RasterScene::new(BANDS, scene_size, scene_size, seed).segmentation_image(1);

    let forwards: BTreeMap<&'static str, ForwardLog> = [
        ("satcnn", ForwardLog::default()),
        ("unet", ForwardLog::default()),
    ]
    .into();
    let mut registry = Registry::new();
    let log = Arc::clone(&forwards["satcnn"]);
    registry.register("satcnn", None, move || {
        Box::new(TimedServe {
            inner: Box::new(ClassifierServe(satcnn())),
            log: Arc::clone(&log),
        })
    });
    let log = Arc::clone(&forwards["unet"]);
    registry.register("unet", None, move || {
        Box::new(TimedServe {
            inner: Box::new(SegmenterServe(unet())),
            log: Arc::clone(&log),
        })
    });
    let store_dir = PathBuf::from(WORK_DIR).join(format!("store-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    // Both models keep their weights in delta stores, so every reply
    // names a manifest.
    registry.enable_sync("satcnn", store_dir.join("satcnn"));
    registry.enable_sync("unet", store_dir.join("unet"));
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: 8,
            max_wait_ms: 2,
            device: Device::Cpu,
            queue_bound: 128,
            replicas: crate::report::nproc(),
        },
        http_workers: crate::report::nproc(),
        enable_telemetry: false,
        default_deadline_ms: DEADLINE_MS,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry, config).expect("server starts");

    // Classify inputs: 32² crops of the scene at seeded positions.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0ff);
    let classify_inputs: Vec<Tensor> = (0..CLASSIFY_POOL)
        .map(|_| {
            let (r, c) = (
                rng.gen_range(0..scene_size - CLASSIFY_SIZE),
                rng.gen_range(0..scene_size - CLASSIFY_SIZE),
            );
            scene
                .read_window_tensor(&Window::new(r, c, CLASSIFY_SIZE, CLASSIFY_SIZE))
                .expect("classify crop")
        })
        .collect();
    let classify_bodies = classify_inputs
        .iter()
        .map(|t| {
            serde_json::to_string(t)
                .expect("encode classify input")
                .into_bytes()
        })
        .collect();
    let windows: Vec<Window> = GridSampler::new(roi, (TILE, TILE), (STRIDE, STRIDE))
        .expect("tile grid")
        .windows()
        .collect();
    let tile_bodies = windows
        .iter()
        .map(|w| {
            let tile = scene.read_window_tensor(w).expect("tile read");
            serde_json::to_string(&tile)
                .expect("encode tile")
                .into_bytes()
        })
        .collect();
    // Head-only updates: the final layer's weight and bias move, every
    // other tensor stays, so each publish ships a small delta.
    let base = satcnn().state_dict();
    let head = base.len() - 2;
    let publish_states: Vec<Vec<Tensor>> = (1..=publishes)
        .map(|k| {
            let mut state = base.clone();
            for t in &mut state[head..] {
                let bump: Vec<f32> = (0..t.len())
                    .map(|_| rng.gen_range(-0.05..0.05) * k as f32)
                    .collect();
                *t = t.add(&Tensor::from_vec(bump, t.shape()));
            }
            state
        })
        .collect();
    let publish_bodies = publish_states
        .iter()
        .map(|s| {
            serde_json::to_string(s)
                .expect("encode publish body")
                .into_bytes()
        })
        .collect();

    // Warm-up: a small mosaic, classify and tile requests over HTTP.
    let client = server.client("unet").expect("unet served");
    let warm = Window::new(roi.row, roi.col, 256, 256);
    geotorch_serve::run_mosaic(&client, &scene, warm, tile_config()).expect("warm-up mosaic");
    let s = Setup {
        seed,
        server,
        scene,
        store_dir,
        classify_inputs,
        classify_bodies,
        windows,
        tile_bodies,
        publish_states,
        publish_bodies,
        forwards,
    };
    let now = Instant::now();
    let mut plan: Vec<Planned<'_>> = (0..32)
        .map(|i| Planned {
            due: now,
            path: "/predict/satcnn",
            body: &s.classify_bodies[i],
            span: "warmup",
            tag: 0,
        })
        .collect();
    plan.extend((0..4).map(|i| Planned {
        due: now,
        path: "/predict/unet",
        body: &s.tile_bodies[i],
        span: "warmup",
        tag: 0,
    }));
    let warm_replies = http::open_loop(
        s.server.addr(),
        &plan,
        now + Duration::from_millis(DEADLINE_MS),
    );
    assert!(
        warm_replies.iter().all(Reply::ok),
        "warm-up requests must succeed"
    );
    for log in s.forwards.values() {
        log.lock().expect("forward log").clear();
    }
    s
}

fn roi(args: &Args) -> Window {
    if args.smoke {
        Window::new(256, 256, 1024, 1024)
    } else {
        ROI
    }
}

/// Monotone integer key for f32 ulp distances.
fn ulp_key(x: f32) -> i64 {
    let bits = x.to_bits() as i32 as i64;
    if bits < 0 {
        i32::MIN as i64 - bits
    } else {
        bits
    }
}

/// The HTTP mosaic must match the embedded one within 4 ulp everywhere.
pub fn check_mosaics(embedded: &[f32], http: &[f32]) -> Result<String, String> {
    if embedded.len() != http.len() || embedded.is_empty() {
        return Err(format!(
            "mosaic sizes differ: {} vs {}",
            embedded.len(),
            http.len()
        ));
    }
    let worst = embedded
        .iter()
        .zip(http)
        .map(|(&a, &b)| ulp_key(a).abs_diff(ulp_key(b)))
        .max()
        .unwrap_or(0);
    if worst <= 4 {
        Ok(format!("{} pixels within {worst} ulp", embedded.len()))
    } else {
        Err(format!(
            "HTTP mosaic differs from the embedded mosaic by {worst} ulp"
        ))
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |best, (i, &x)| {
            if x > best.1 {
                (i, x)
            } else {
                best
            }
        })
        .0
}

/// A served classification must pick the class the reference picks; a
/// different pick is accepted only where the reference's two logits are
/// within float noise of each other (batched forwards may reorder sums).
pub fn check_argmax(served: &[f32], reference: &[f32]) -> Result<(), String> {
    let (s, r) = (argmax(served), argmax(reference));
    if s == r || (reference[r] - reference[s]).abs() <= 1e-5 * reference[r].abs().max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "served argmax {s} != reference argmax {r} (logits {served:?} vs {reference:?})"
        ))
    }
}

/// Every 200 reply must name a manifest the benchmark knows.
pub fn check_versions<'a>(
    versions: impl Iterator<Item = Option<&'a str>>,
    known: &BTreeSet<String>,
) -> Result<String, String> {
    let mut seen = BTreeSet::new();
    for v in versions {
        match v {
            Some(v) if known.contains(v) => {
                seen.insert(v.to_string());
            }
            Some(v) => return Err(format!("reply names unknown model version {v}")),
            None => return Err("reply carries no X-Model-Version".to_string()),
        }
    }
    Ok(format!("{} distinct published versions seen", seen.len()))
}

/// Logits of the reference classifier loaded with `state`.
fn reference_logits(state: &[Tensor], inputs: &[Tensor]) -> Vec<Vec<f32>> {
    let model = satcnn();
    model.load_state_dict(state).expect("reference state");
    model.set_training(false);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let x = Var::constant(Tensor::stack(&refs));
    let out = geotorch_nn::no_grad(|| model.forward(&x, None).value());
    (0..inputs.len())
        .map(|i| out.index_axis(0, i).as_slice().to_vec())
        .collect()
}

fn decode(body: &[u8]) -> Option<Tensor> {
    serde_json::from_str::<Tensor>(std::str::from_utf8(body).ok()?).ok()
}

fn accounting(phase: &str, class: &str, replies: &[&Reply]) -> Accounting {
    let mut a = Accounting {
        phase: phase.into(),
        class: class.into(),
        ..Default::default()
    };
    for r in replies {
        a.sent += 1;
        if r.ok() {
            a.succeeded += 1;
        } else {
            a.failed += 1;
            *a.statuses.entry(r.status).or_default() += 1;
        }
    }
    a
}

/// Failed requests enter the percentiles beyond any limit; they are
/// reported at the request deadline.
fn capped(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        DEADLINE_MS as f64
    }
}

/// Per-round phase budgets and request counts.
struct Plan {
    secs_b: f64,
    secs_c: f64,
    mosaics: usize,
    classify: usize,
    publishes: usize,
}

impl Plan {
    fn new(seconds: f64) -> Plan {
        let round = seconds / ROUNDS as f64;
        let (secs_a, secs_b, secs_c) = (round * SHARE_A, round * SHARE_B, round * SHARE_C);
        Plan {
            secs_b,
            secs_c,
            mosaics: ((secs_a * MOSAICS_PER_SECOND).round() as usize).max(1),
            // Pooled over the rounds, p99 keeps 10 samples beyond it.
            classify: ((secs_b * CLASSIFY_RATE).round() as usize)
                .max(MIN_CLASSIFY.div_ceil(ROUNDS)),
            publishes: ((secs_b / PUBLISH_EVERY_S).floor() as usize).max(1),
        }
    }
}

/// What one round of phases (a), (b) and (c) produced.
struct Round {
    mosaic_rates: Vec<f64>,
    mosaic_tile_ms: Vec<f64>,
    /// Per-mosaic p90 tile latency.
    mosaic_p90_ms: Vec<f64>,
    mosaic_failures: u64,
    embedded: Option<Raster>,
    classify: Vec<Reply>,
    tiles: Vec<Reply>,
    publishes: Vec<Reply>,
    capacity: Vec<Reply>,
    /// Completed requests per second of each closed-loop session.
    capacity_rps: Vec<f64>,
}

fn run_round(
    s: &Setup,
    addr: SocketAddr,
    client: &geotorch_serve::ModelClient,
    roi: Window,
    round: usize,
    plan: &Plan,
) -> Round {
    let cfg = tile_config();
    // ---- phase (a): embedded mosaics
    let mut out = Round {
        mosaic_rates: Vec::new(),
        mosaic_tile_ms: Vec::new(),
        mosaic_p90_ms: Vec::new(),
        mosaic_failures: 0,
        embedded: None,
        classify: Vec::new(),
        tiles: Vec::new(),
        publishes: Vec::new(),
        capacity: Vec::new(),
        capacity_rps: Vec::new(),
    };
    for i in 0..plan.mosaics {
        let _span = trace::span("serve.run_mosaic", (round * plan.mosaics + i) as u64);
        match geotorch_serve::run_mosaic(client, &s.scene, roi, cfg) {
            Ok((mosaic, stats)) => {
                let tile_ms: Vec<f64> = stats
                    .tile_latencies
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect();
                out.mosaic_rates.push(stats.tiles_per_sec());
                out.mosaic_p90_ms.push(percentile(&tile_ms, 90.0));
                out.mosaic_tile_ms.extend(tile_ms);
                out.embedded.get_or_insert(mosaic);
            }
            Err(_) => out.mosaic_failures += 1,
        }
    }

    // ---- phase (b): open loop
    let start = Instant::now() + Duration::from_millis(20);
    let at = |offset_s: f64| start + Duration::from_secs_f64(offset_s);
    let mut pick = rand::rngs::StdRng::seed_from_u64(s.seed ^ 0xb0b ^ round as u64);
    let classify_gap = plan.secs_b / plan.classify as f64;
    let classify_plan: Vec<Planned<'_>> = (0..plan.classify)
        .map(|i| {
            let input = pick.gen_range(0..CLASSIFY_POOL);
            Planned {
                due: at(i as f64 * classify_gap),
                path: "/predict/satcnn",
                body: &s.classify_bodies[input],
                span: "http.classify",
                tag: input,
            }
        })
        .collect();
    // One pass over the region's tiles; the round's publishes share the
    // tile connection, merged by due time.
    let tile_gap = plan.secs_b / s.windows.len() as f64;
    let mut tile_plan: Vec<Planned<'_>> = s
        .tile_bodies
        .iter()
        .enumerate()
        .map(|(i, body)| Planned {
            due: at((i as f64 + 0.5) * tile_gap),
            path: "/predict/unet",
            body,
            span: "http.tile",
            tag: TILE_TAG + i,
        })
        .collect();
    tile_plan.extend((0..plan.publishes).map(|j| {
        let k = round * plan.publishes + j;
        Planned {
            due: at((j as f64 + 0.5) * plan.secs_b / plan.publishes as f64),
            path: "/models/satcnn/publish",
            body: &s.publish_bodies[k],
            span: "http.publish",
            tag: PUBLISH_TAG + k,
        }
    }));
    tile_plan.sort_by_key(|p| p.due);
    let give_up = at(plan.secs_b) + Duration::from_millis(DEADLINE_MS);
    let (classify, tiles): (Vec<Reply>, Vec<Reply>) = if crate::report::nproc() >= 2 {
        std::thread::scope(|scope| {
            let c = scope.spawn(|| http::open_loop(addr, &classify_plan, give_up));
            let t = http::open_loop(addr, &tile_plan, give_up);
            (c.join().expect("classify connection thread"), t)
        })
    } else {
        // One core: one connection carries every class.
        let mut merged: Vec<Planned<'_>> =
            classify_plan.iter().chain(&tile_plan).cloned().collect();
        merged.sort_by_key(|p| p.due);
        http::open_loop(addr, &merged, give_up)
            .into_iter()
            .partition(|r| r.tag < TILE_TAG)
    };
    (out.publishes, out.tiles) = tiles.into_iter().partition(|r| r.tag >= PUBLISH_TAG);
    out.classify = classify;

    // ---- phase (c): closed-loop capacity
    let capacity_plan: Vec<Planned<'_>> = s
        .classify_bodies
        .iter()
        .enumerate()
        .map(|(i, body)| Planned {
            due: start,
            path: "/predict/satcnn",
            body,
            span: "http.capacity",
            tag: i,
        })
        .collect();
    for _ in 0..CAPACITY_SESSIONS {
        let c_start = Instant::now();
        let stop = c_start + Duration::from_secs_f64(plan.secs_c / CAPACITY_SESSIONS as f64);
        let replies: Vec<Reply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..crate::report::nproc())
                .map(|_| {
                    scope.spawn(|| http::closed_loop(addr, &capacity_plan, CAPACITY_DEPTH, stop))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("capacity connection thread"))
                .collect()
        });
        // Requests completed before the stop, over the time to the stop.
        let done = replies.iter().filter(|r| r.ok() && r.done <= stop).count();
        out.capacity_rps
            .push(done as f64 / (stop - c_start).as_secs_f64());
        out.capacity.extend(replies);
    }
    out
}

pub fn run(args: &Args) -> Outcome {
    let plan = Plan::new(args.seconds);
    let publishes = plan.publishes * ROUNDS;

    let mut setup_times = Vec::new();
    let mut state: Option<Setup> = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = state.take() {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(&old.store_dir);
        }
        // Every set-up starts from an empty tensor pool.
        geotorch_tensor::pool::clear();
        let t0 = Instant::now();
        state = Some(setup(args, rep, publishes));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let s = state.expect("set up at least once");
    let roi = roi(args);
    let cfg = tile_config();
    let addr: SocketAddr = s.server.addr();
    let client = s.server.client("unet").expect("unet served");
    let initial_version = s
        .server
        .head_id("satcnn")
        .expect("sync-enabled satcnn has a head");
    let unet_version = s
        .server
        .head_id("unet")
        .expect("sync-enabled unet has a head");

    // Traced runs measure the tracing cost on one extra mosaic first.
    let untraced_mosaic = args.trace.then(|| {
        geotorch_serve::run_mosaic(&client, &s.scene, roi, cfg)
            .expect("untraced mosaic")
            .1
            .tiles_per_sec()
    });
    if args.trace {
        trace::set_enabled(true);
        geotorch_telemetry::set_enabled(true);
    }
    let counters_before = Counters::take();

    let window_start = Instant::now();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        rounds.push(run_round(&s, addr, &client, roi, r, &plan));
    }
    let window_end = Instant::now();
    let kernels = Delta {
        before: counters_before,
        after: Counters::take(),
    };
    trace::set_enabled(false);
    geotorch_telemetry::set_enabled(false);

    let embedded = rounds.iter().find_map(|r| r.embedded.clone());
    let mosaic_rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.mosaic_rates.iter().copied())
        .collect();
    let mosaic_tile_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.mosaic_tile_ms.iter().copied())
        .collect();
    let mosaic_failures: u64 = rounds.iter().map(|r| r.mosaic_failures).sum();
    // Each figure is the median over rounds of the round's figure.
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let lat = |replies: &[Reply], p: f64| {
        percentile(
            &replies.iter().map(Reply::latency_ms).collect::<Vec<_>>(),
            p,
        )
    };
    let c_p50 = capped(over_rounds(&|r| lat(&r.classify, 50.0)));
    let c_p90 = capped(over_rounds(&|r| lat(&r.classify, 90.0)));
    let t_p50 = capped(over_rounds(&|r| lat(&r.tiles, 50.0)));
    let t_p90 = capped(over_rounds(&|r| lat(&r.tiles, 90.0)));
    let per_round_classify = rounds.iter().map(|r| r.classify.len()).min().unwrap_or(0);
    let per_round_tiles = rounds.iter().map(|r| r.tiles.len()).min().unwrap_or(0);
    // The replies move out of the rounds: copies of every reply body
    // would show in `peak_rss_mb` as memory the server never used.
    let (mut classify_replies, mut tile_replies) = (Vec::new(), Vec::new());
    let (mut publish_replies, mut capacity_replies) = (Vec::new(), Vec::new());
    for r in &mut rounds {
        classify_replies.append(&mut r.classify);
        tile_replies.append(&mut r.tiles);
        publish_replies.append(&mut r.publishes);
        capacity_replies.append(&mut r.capacity);
    }
    let classify_ms: Vec<f64> = classify_replies.iter().map(Reply::latency_ms).collect();
    let tile_ms: Vec<f64> = tile_replies.iter().map(Reply::latency_ms).collect();
    let publish_ms: Vec<f64> = publish_replies.iter().map(Reply::latency_ms).collect();
    let late: Vec<f64> = classify_replies
        .iter()
        .chain(&tile_replies)
        .chain(&publish_replies)
        .map(Reply::late_ms)
        .collect();
    let late_p99 = percentile(&late, 99.0);
    let capacity_ok = capacity_replies.iter().filter(|r| r.ok()).count();
    let capacity_rps = median(
        &rounds
            .iter()
            .flat_map(|r| r.capacity_rps.iter().copied())
            .collect::<Vec<_>>(),
    );
    let mosaic_rate = median(&mosaic_rates);
    let c_p99 = capped(percentile(&classify_ms, 99.0));
    let m_p50 = median(&mosaic_tile_ms);
    let m_p90 = median(
        &rounds
            .iter()
            .flat_map(|r| r.mosaic_p90_ms.iter().copied())
            .collect::<Vec<_>>(),
    );

    let mut out = Outcome {
        accounting: vec![
            accounting(
                "b",
                "classify",
                &classify_replies.iter().collect::<Vec<_>>(),
            ),
            accounting("b", "tile", &tile_replies.iter().collect::<Vec<_>>()),
            accounting("b", "publish", &publish_replies.iter().collect::<Vec<_>>()),
            accounting(
                "c",
                "classify",
                &capacity_replies.iter().collect::<Vec<_>>(),
            ),
        ],
        ..Default::default()
    };
    out.accounting.push(Accounting {
        phase: "a".into(),
        class: "mosaic".into(),
        sent: mosaic_rates.len() as u64 + mosaic_failures,
        succeeded: mosaic_rates.len() as u64,
        failed: mosaic_failures,
        statuses: BTreeMap::new(),
    });
    let http_failed: u64 = out.accounting.iter().map(|a| a.failed).sum();
    out.attempted = out.accounting.iter().map(|a| a.sent).sum();
    out.failed = http_failed;
    let shed = out
        .accounting
        .iter()
        .map(|a| a.statuses.get(&429).copied().unwrap_or(0))
        .sum::<u64>();
    let expired = out
        .accounting
        .iter()
        .map(|a| a.statuses.get(&504).copied().unwrap_or(0))
        .sum::<u64>();
    out.sizes = vec![
        ("scene", format!("{0}x{0}x{BANDS}", s.scene.height())),
        (
            "roi",
            format!("{}x{} at ({}, {})", roi.height, roi.width, roi.row, roi.col),
        ),
        ("tiles", s.windows.len().to_string()),
        ("rounds", ROUNDS.to_string()),
        ("mosaics", mosaic_rates.len().to_string()),
        (
            "classify_rate_per_s",
            format!("{:.1}", plan.classify as f64 / plan.secs_b),
        ),
        ("classify_requests", classify_replies.len().to_string()),
        (
            "tile_rate_per_s",
            format!("{:.1}", s.windows.len() as f64 / plan.secs_b),
        ),
        ("publishes", publishes.to_string()),
        (
            "capacity_connections",
            format!("{} x depth {CAPACITY_DEPTH}", crate::report::nproc()),
        ),
        ("shed_429", shed.to_string()),
        ("expired_504", expired.to_string()),
    ];
    let setup_s = median(&setup_times);
    let rss = crate::report::peak_rss_mb();
    // The end-to-end figures are the embedded mosaic's: the HTTP figures
    // are reported below but spread more from run to run than a bound can
    // hold, and open-loop classify latency is bistable on a pipelined
    // connection, because accepted sockets keep Nagle's algorithm on and
    // the client delays its ACKs (see README.md).
    out.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
        Metric::new("throughput_per_s", mosaic_rate, "1/s", mosaic_rates.len()),
        Metric::new("latency_p50_ms", m_p50, "ms", mosaic_tile_ms.len()),
    ];
    out.detail = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
        Metric::new(
            "mosaic_tiles_per_s",
            mosaic_rate,
            "tiles/s",
            mosaic_rates.len(),
        ),
        Metric::new("mosaic_tile_p50_ms", m_p50, "ms", mosaic_tile_ms.len()),
        Metric::new("mosaic_tile_p90_ms", m_p90, "ms", mosaic_tile_ms.len()),
        Metric::new("classify_p50_ms", c_p50, "ms", classify_ms.len()),
        Metric::new("classify_p90_ms", c_p90, "ms", classify_ms.len()),
        Metric::new("classify_p99_ms", c_p99, "ms", classify_ms.len()),
        Metric::new("tile_p50_ms", t_p50, "ms", tile_ms.len()),
        Metric::new("tile_p90_ms", t_p90, "ms", tile_ms.len()),
        Metric::new(
            "publish_ms",
            capped(median(&publish_ms)),
            "ms",
            publish_ms.len(),
        ),
        Metric::new("classify_capacity_rps", capacity_rps, "req/s", capacity_ok),
        Metric::new("loadgen_late_p99_ms", late_p99, "ms", late.len()),
    ];
    for (name, n, p) in [
        ("classify (pooled)", classify_ms.len(), 99.0),
        ("classify (per round)", per_round_classify, 90.0),
        ("tile (per round)", per_round_tiles, 90.0),
    ] {
        out.checks.push(Check::percentile_support(name, n, p));
    }
    out.checks.push(Check::from_result(
        "loadgen_on_time",
        if late_p99 <= LATE_BOUND_MS {
            Ok(format!("p99 send lateness {late_p99:.2} ms (bound {LATE_BOUND_MS} ms)"))
        } else {
            Err(format!("generator lagged: p99 send lateness {late_p99:.2} ms > {LATE_BOUND_MS} ms; run invalid"))
        },
    ));

    // ---- correctness: each pass's HTTP mosaic vs the embedded mosaic
    let mut stitch_ns = 0u64;
    for (pass, replies) in tile_replies.chunks(s.windows.len()).enumerate() {
        let mut acc = MosaicAccumulator::new(cfg.classes, roi.height, roi.width, cfg.blend);
        let mut failures = 0usize;
        for (r, window) in replies.iter().zip(&s.windows) {
            match decode(&r.body) {
                Some(pred) if r.ok() => {
                    let core = core_of(window, &roi, cfg.halo);
                    let t0 = Instant::now();
                    if acc
                        .add_tile(&window.relative_to(&roi), &core.relative_to(&roi), &pred)
                        .is_err()
                    {
                        failures += 1;
                    }
                    stitch_ns += t0.elapsed().as_nanos() as u64;
                }
                _ => failures += 1,
            }
        }
        let mosaic_check = match (acc.finalize(), &embedded) {
            (Ok(http_mosaic), Some(embedded)) if failures == 0 => {
                check_mosaics(embedded.as_slice(), http_mosaic.as_slice())
            }
            (_, None) => Err("no embedded mosaic completed".to_string()),
            _ => Err(format!(
                "pass {pass}: {failures} tiles failed; HTTP mosaic incomplete"
            )),
        };
        out.checks.push(Check::from_result(
            "mosaic_http_matches_embedded",
            mosaic_check,
        ));
    }

    // ---- correctness: versions and argmax
    let mut known: BTreeMap<String, Vec<Tensor>> = BTreeMap::new();
    known.insert(initial_version.clone(), satcnn().state_dict());
    let mut delta_bytes = Vec::new();
    for r in &publish_replies {
        let k = r.tag - PUBLISH_TAG;
        let reply: Option<serde::Value> = std::str::from_utf8(&r.body)
            .ok()
            .and_then(|b| serde_json::from_str(b).ok());
        let id = reply
            .as_ref()
            .and_then(|v| v.get("id"))
            .and_then(|v| v.as_str())
            .map(str::to_string);
        if let (true, Some(id)) = (r.ok(), id) {
            known.insert(id, s.publish_states[k].clone());
            if let Some(d) = reply
                .as_ref()
                .and_then(|v| v.get("delta_bytes"))
                .and_then(|v| v.as_f64())
            {
                delta_bytes.push(d);
            }
        }
    }
    out.checks.push(Check::from_result(
        "publishes_succeed",
        if publish_replies.iter().all(Reply::ok) && known.len() == publishes + 1 {
            Ok(format!("{publishes} publishes, {} versions", known.len()))
        } else {
            Err(format!(
                "publishes failed: statuses {:?}",
                publish_replies.iter().map(|r| r.status).collect::<Vec<_>>()
            ))
        },
    ));
    let classify_all: Vec<&Reply> = classify_replies
        .iter()
        .chain(&capacity_replies)
        .filter(|r| r.ok())
        .collect();
    let satcnn_names: BTreeSet<String> = known.keys().cloned().collect();
    let unet_names: BTreeSet<String> = [unet_version].into();
    out.checks.push(Check::from_result(
        "replies_name_published_versions",
        check_versions(
            classify_all.iter().map(|r| r.version.as_deref()),
            &satcnn_names,
        )
        .and_then(|c| {
            let tiles = tile_replies
                .iter()
                .filter(|r| r.ok())
                .map(|r| r.version.as_deref());
            check_versions(tiles, &unet_names).map(|t| format!("satcnn: {c}; unet: {t}"))
        }),
    ));
    let references: BTreeMap<&str, Vec<Vec<f32>>> = known
        .iter()
        .map(|(id, state)| {
            (
                id.as_str(),
                reference_logits(state, &s.classify_inputs),
            )
        })
        .collect();
    let mut argmax_errors = Vec::new();
    let mut decoded_classify = 0usize;
    for r in &classify_all {
        let Some(logits) = decode(&r.body) else {
            argmax_errors.push("undecodable classify reply".to_string());
            continue;
        };
        decoded_classify += 1;
        let Some(reference) = r.version.as_deref().and_then(|v| references.get(v)) else {
            continue; // reported by the version check
        };
        if let Err(e) = check_argmax(logits.as_slice(), &reference[r.tag]) {
            argmax_errors.push(e);
        }
    }
    out.checks.push(Check::from_result(
        "classify_argmax_matches_reference",
        if argmax_errors.is_empty() {
            Ok(format!("{decoded_classify} replies match"))
        } else {
            Err(format!(
                "{} mismatches; first: {}",
                argmax_errors.len(),
                argmax_errors[0]
            ))
        },
    ));
    // The reference must agree with the embedded ModelClient path.
    let satcnn_client = s.server.client("satcnn").expect("satcnn served");
    let final_version = s.server.head_id("satcnn").expect("head");
    let mut client_check = Ok(format!(
        "{CLASSIFY_POOL} inputs agree with ModelClient at {final_version}"
    ));
    for (i, input) in s.classify_inputs.iter().enumerate() {
        match satcnn_client.predict_versioned(input.clone(), None) {
            Ok((out_t, label)) => {
                let reference = &references[final_version.as_str()][i];
                if &*label != final_version.as_str() {
                    client_check = Err(format!(
                        "ModelClient served {label}, head is {final_version}"
                    ));
                } else if let Err(e) = check_argmax(out_t.as_slice(), reference) {
                    client_check = Err(format!("input {i}: {e}"));
                }
            }
            Err(e) => client_check = Err(format!("ModelClient failed: {e}")),
        }
    }
    out.checks.push(Check::from_result(
        "reference_matches_model_client",
        client_check,
    ));

    if args.trace {
        out.per_layer = serve_layers(
            &s,
            &kernels,
            &tile_replies,
            &classify_replies,
            &publish_replies,
            &delta_bytes,
            &mosaic_tile_ms,
            stitch_ns,
            late_p99,
            (window_start, window_end),
            untraced_mosaic.unwrap_or(f64::NAN),
            mosaic_rate,
        );
    }
    let Setup {
        server, store_dir, ..
    } = s;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
    out
}

/// Request tags: classify tags are input indices, tile tags start at
/// `TILE_TAG`, publish tags at `PUBLISH_TAG`.
const TILE_TAG: usize = 1 << 16;
const PUBLISH_TAG: usize = 1 << 20;

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    s: &Setup,
    kernels: &Delta,
    tiles: &[Reply],
    classify: &[Reply],
    publishes: &[Reply],
    delta_bytes: &[f64],
    mosaic_tile_ms: &[f64],
    stitch_ns: u64,
    late_p99: f64,
    (window_start, window_end): (Instant, Instant),
    untraced_rate: f64,
    traced_rate: f64,
) -> Vec<Metric> {
    // Codec cost, timed on the exact bodies the server parsed and the
    // tensors it encoded.
    let time_ms = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    let tile_decode = time_ms(&mut || {
        for b in &s.tile_bodies {
            std::hint::black_box(decode(b));
        }
    }) / s.tile_bodies.len() as f64;
    let tile_outputs: Vec<Tensor> = tiles.iter().filter_map(|r| decode(&r.body)).collect();
    let tile_encode = time_ms(&mut || {
        for t in &tile_outputs {
            std::hint::black_box(serde_json::to_string(t).ok());
        }
    }) / tile_outputs.len().max(1) as f64;
    let classify_decode = time_ms(&mut || {
        for b in &s.classify_bodies {
            std::hint::black_box(decode(b));
        }
    }) / s.classify_bodies.len() as f64;
    let classify_outputs: Vec<Tensor> = classify
        .iter()
        .take(CLASSIFY_POOL)
        .filter_map(|r| decode(&r.body))
        .collect();
    let classify_encode = time_ms(&mut || {
        for t in &classify_outputs {
            std::hint::black_box(serde_json::to_string(t).ok());
        }
    }) / classify_outputs.len().max(1) as f64;

    let all: Vec<&Reply> = tiles.iter().chain(classify).chain(publishes).collect();
    let requests = all.len().max(1) as f64;
    let per_row = |model: &str| {
        let log = s.forwards[model].lock().expect("forward log");
        let rows: usize = log.iter().map(|(r, _)| r).sum();
        log.iter().map(|(_, ns)| *ns as f64).sum::<f64>() / 1e6 / rows.max(1) as f64
    };
    let queue_wait_ms = kernels.self_ns("serve.queue_wait") as f64
        / 1e6
        / kernels.calls("serve.queue_wait").max(1) as f64;
    let service_ms = |replies: &[Reply]| {
        mean(
            &replies
                .iter()
                .filter(|r| r.ok())
                .map(|r| (r.done - r.sent).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let forward_satcnn = per_row("satcnn");
    let forward_unet = per_row("unet");
    let spans = trace::snapshot();
    let coverage = trace::coverage(
        &spans,
        &[
            "serve.run_mosaic",
            "http.classify",
            "http.tile",
            "http.publish",
            "http.capacity",
            "loadgen.idle",
        ],
        window_start,
        window_end,
    );
    let items = mosaic_tile_ms.len() + all.len();
    crate::layers::Layers {
        samples: items,
        kernels: Some(kernels),
        serve: Some(ServeStages {
            tile_decode_ms: tile_decode,
            tile_encode_ms: tile_encode,
            classify_decode_ms: classify_decode,
            request_kb: all.iter().map(|r| r.request_bytes).sum::<usize>() as f64
                / 1024.0
                / requests,
            response_kb: all.iter().map(|r| r.response_bytes).sum::<usize>() as f64
                / 1024.0
                / requests,
            queue_wait_ms,
            batch_size_mean: kernels.count("serve.batch_size") as f64
                / kernels.count("serve.batches").max(1) as f64,
            forward_ms_satcnn: forward_satcnn,
            forward_ms_unet: forward_unet,
            shed: kernels.count("serve.shed") as f64,
            expired: kernels.count("serve.expired") as f64,
            residual_ms_classify: service_ms(classify)
                - queue_wait_ms
                - forward_satcnn
                - classify_decode
                - classify_encode,
            residual_ms_tile: service_ms(tiles)
                - queue_wait_ms
                - forward_unet
                - tile_decode
                - tile_encode,
            wakeups_per_request: kernels.count("serve.epoll.wakeups") as f64
                / kernels.count("serve.http.requests").max(1) as f64,
            mosaic_tile_ms: mean(mosaic_tile_ms),
            stitch_ms: stitch_ns as f64 / 1e6 / tiles.len().max(1) as f64,
            publish_body_kb: mean(
                &publishes
                    .iter()
                    .map(|r| r.request_bytes as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            publish_delta_kb: mean(delta_bytes) / 1024.0,
            swaps_applied: kernels.count("serve.swap.applied") as f64,
            sent: requests,
            failed: all.iter().filter(|r| !r.ok()).count() as f64,
            late_p99_ms: late_p99,
        }),
        overhead_pct: (untraced_rate - traced_rate) / untraced_rate * 100.0,
        coverage,
        ..Default::default()
    }
    .metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosaic_check_allows_four_ulp_and_catches_a_perturbed_pixel() {
        let embedded = vec![0.25f32, 0.5, 0.75, 1.0];
        let mut near = embedded.clone();
        near[2] = f32::from_bits(near[2].to_bits() + 4);
        assert!(check_mosaics(&embedded, &near).is_ok());
        let mut corrupted = embedded.clone();
        corrupted[1] += 1e-3;
        assert!(check_mosaics(&embedded, &corrupted).is_err());
        assert!(check_mosaics(&embedded, &embedded[..3]).is_err());
    }

    #[test]
    fn argmax_check_catches_a_wrong_class() {
        let reference = [0.1f32, 2.0, -1.0];
        assert!(check_argmax(&[0.1, 2.0, -1.0], &reference).is_ok());
        assert!(check_argmax(&[3.0, 2.0, -1.0], &reference).is_err());
        // A tie in the reference to float noise is not a wrong class.
        assert!(check_argmax(&[0.0, 1.0, 1.0], &[0.0, 1.0, 1.000_000_1]).is_ok());
    }

    #[test]
    fn version_check_catches_unknown_and_missing_labels() {
        let known: BTreeSet<String> = ["m-1".to_string(), "m-2".to_string()].into();
        assert!(check_versions([Some("m-1"), Some("m-2")].into_iter(), &known).is_ok());
        assert!(check_versions([Some("m-1"), Some("m-3")].into_iter(), &known).is_err());
        assert!(check_versions([Some("m-1"), None].into_iter(), &known).is_err());
    }
}
