//! `ingest_trips`: the Fig. 8 path. Synthetic NYC-like trips go through
//! `DataFrame::repartition` into `StManager::get_st_grid_array` (12×16
//! grid, 30-minute slots); the same trips are spilled to a `SpillStore`
//! and streamed through `SpillBatchStream → PrefetchLoader(2) →
//! Trainer::fit_stream`, training a 4→64→64→1 trip MLP with two
//! data-parallel replicas on `Device::Cpu`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::SeedableRng;

use geotorch_converter::{
    BatchStream, DfFormatter, LoaderError, PrefetchLoader, RowTransformer, SpillBatchStream,
};
use geotorch_core::{TrainConfig, TrainReport, Trainer, UpdateMode};
use geotorch_dataframe::{Column, DataFrame, Envelope, SpillStore};
use geotorch_datasets::synth::TripGenerator;
use geotorch_nn::layers::{Linear, Relu, Sequential};
use geotorch_nn::{Layer, Var};
use geotorch_preprocess::geopandas_like::get_st_grid_dataframe_naive;
use geotorch_preprocess::st_manager::{trips_dataframe, StGridConfig, StManager};
use geotorch_tensor::{Device, Tensor};

use crate::layers::IngestStages;
use crate::report::{median, percentile, Check, Metric, Outcome};
use crate::trace::{self, Counters, Delta};
use crate::{Args, SETUP_REPEATS, WORK_DIR};

/// Trips aggregated per grid pass.
const GRID_ROWS: usize = 250_000;
/// Trips spilled and streamed per epoch.
const STREAM_ROWS: usize = 400_000;
/// Rows per spilled partition.
const CHUNK_ROWS: usize = 16_384;
const BATCH: usize = 256;
const REPLICAS: usize = 2;
const PREFETCH_DEPTH: usize = 2;
/// Rows of the fixed subsample checked against the naive engine.
const CHECK_ROWS: usize = 50_000;
/// Grid passes and stream epochs per second of `--seconds` budget,
/// calibrated on a 2-core x86-64 host (one pass ≈ 33 ms, one epoch ≈
/// 0.9 s) so that the grid phase takes about 40% of the budget and the
/// stream phase 60%.
const GRID_PASSES_PER_SECOND: f64 = 12.0;
const STREAM_EPOCHS_PER_SECOND: f64 = 0.67;
/// Tails are reported at p90 (needs ≥ 100 samples); stream steps also
/// at p99 in the detailed report.
const GRID_TAIL: f64 = 90.0;
const STEP_TAIL: f64 = 90.0;

/// Stream steps per throughput sample (about 30 ms of work).
const STEP_CHUNK: usize = 32;

const FEATURES: [&str; 4] = ["lat", "lon", "hour", "dow"];

fn grid_config(generator: &TripGenerator) -> StGridConfig {
    let (min_lon, min_lat, max_lon, max_lat) = generator.extent();
    StGridConfig {
        partitions_x: 12,
        partitions_y: 16,
        step_duration_sec: 1800,
        extent: Some(Envelope::new(min_lon, min_lat, max_lon, max_lat)),
    }
}

/// The trip feature/label table: centred coordinates, cyclic time
/// features, and the straight-line trip length as the label.
fn stream_columns(generator: &TripGenerator, rows: usize) -> Vec<Column> {
    let trips = generator.generate(rows);
    let mut cols: [Vec<f64>; 5] = Default::default();
    for t in &trips {
        cols[0].push((t.pickup_lat - 40.75) * 10.0);
        cols[1].push((t.pickup_lon + 73.90) * 10.0);
        cols[2].push(t.timestamp.rem_euclid(86_400) as f64 / 86_400.0);
        cols[3].push(t.timestamp.div_euclid(86_400).rem_euclid(7) as f64 / 7.0);
        let (dlat, dlon) = (t.dropoff_lat - t.pickup_lat, t.dropoff_lon - t.pickup_lon);
        cols[4].push((dlat * dlat + dlon * dlon).sqrt() * 10.0);
    }
    cols.into_iter().map(Column::F64).collect()
}

fn trip_mlp(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Sequential::new()
        .add(Linear::new(4, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 64, &mut rng))
        .add(Relu)
        .add(Linear::new(64, 1, &mut rng))
}

struct Setup {
    frame: DataFrame,
    config: StGridConfig,
    store: Arc<SpillStore>,
    dir: PathBuf,
    spill_ns: u64,
}

fn setup(seed: u64, grid_rows: usize, stream_rows: usize, rep: usize) -> Setup {
    let generator = TripGenerator::nyc_like(seed);
    let trips = generator.generate(grid_rows);
    let frame = trips_dataframe(
        trips.iter().map(|t| t.pickup_lat).collect(),
        trips.iter().map(|t| t.pickup_lon).collect(),
        trips.iter().map(|t| t.timestamp).collect(),
    )
    .expect("trip columns");
    drop(trips);
    let config = grid_config(&generator);

    let columns = stream_columns(&TripGenerator::nyc_like(seed ^ 0x57ea), stream_rows);
    let names: Vec<String> = FEATURES
        .iter()
        .map(|s| s.to_string())
        .chain(["dist".into()])
        .collect();
    let schema = DataFrame::from_columns(
        names
            .iter()
            .cloned()
            .zip(columns.iter().map(|c| slice_column(c, 0, 1)))
            .collect(),
    )
    .expect("trip schema")
    .schema()
    .clone();
    let dir = PathBuf::from(WORK_DIR).join(format!("spill-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SpillStore::create(&dir, schema).expect("spill directory");
    let mut spill_ns = 0u64;
    let mut start = 0;
    while start < stream_rows {
        let end = (start + CHUNK_ROWS).min(stream_rows);
        let part: Vec<Column> = columns
            .iter()
            .map(|c| slice_column(c, start, end))
            .collect();
        let _span = trace::span("dataframe.spill", start as u64);
        let t0 = Instant::now();
        store.spill(&part).expect("spill partition");
        spill_ns += t0.elapsed().as_nanos() as u64;
        start = end;
    }
    let s = Setup {
        frame,
        config,
        store: Arc::new(store),
        dir,
        spill_ns,
    };
    // Warm-up: one grid pass and one streamed epoch.
    grid_pass(&s.frame, &s.config, 0);
    stream_fit(&s.store, seed, 1, &Arc::new(Recorder::default())).expect("warm-up epoch");
    s
}

fn slice_column(c: &Column, start: usize, end: usize) -> Column {
    match c {
        Column::F64(v) => Column::F64(v[start..end].to_vec()),
        _ => unreachable!("trip feature columns are f64"),
    }
}

/// One timed grid pass: repartition, then aggregate.
fn grid_pass(frame: &DataFrame, config: &StGridConfig, pass: u64) -> (Tensor, u64, u64) {
    let t0 = Instant::now();
    let parts = {
        let _span = trace::span("dataframe.repartition", pass);
        frame
            .repartition(2 * crate::report::nproc())
            .expect("repartition")
    };
    let t1 = Instant::now();
    let (tensor, _) = {
        let _span = trace::span("preprocess.st_grid", pass);
        StManager::get_st_grid_array(&parts, "lat", "lon", "ts", config).expect("grid")
    };
    let t2 = Instant::now();
    (
        tensor,
        (t1 - t0).as_nanos() as u64,
        (t2 - t1).as_nanos() as u64,
    )
}

/// Timestamps taken by the bench-side stream wrappers and the forward
/// closure.
#[derive(Default)]
struct Recorder {
    /// Outer (consumer-side) `next_batch` calls: epoch, call index,
    /// start, end.
    pulls: Mutex<Vec<(usize, usize, Instant, Instant)>>,
    /// Inner (producer-side) `next_batch` calls: start, end.
    formats: Mutex<Vec<(Instant, Instant)>>,
    /// Replica forward closures: start, end.
    forwards: Mutex<Vec<(Instant, Instant)>>,
}

fn push<T>(log: &Mutex<Vec<T>>, item: T) {
    log.lock()
        .expect("recorder lock poisoned by a panicking stream")
        .push(item);
}

/// Times `next_batch` of the stream it wraps.
struct Timed {
    inner: Box<dyn BatchStream>,
    rec: Arc<Recorder>,
    /// `Some(epoch)` for the consumer-side wrapper.
    epoch: Option<usize>,
    calls: usize,
}

impl BatchStream for Timed {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        let name = if self.epoch.is_some() {
            "converter.batch_wait"
        } else {
            "converter.format"
        };
        let _span = trace::span(name, self.calls as u64);
        let start = Instant::now();
        let batch = self.inner.next_batch();
        let end = Instant::now();
        match self.epoch {
            Some(epoch) => push(&self.rec.pulls, (epoch, self.calls, start, end)),
            None => push(&self.rec.formats, (start, end)),
        }
        self.calls += 1;
        batch
    }

    fn total_rows(&self) -> Option<usize> {
        self.inner.total_rows()
    }
}

fn stream_fit(
    store: &Arc<SpillStore>,
    seed: u64,
    epochs: usize,
    rec: &Arc<Recorder>,
) -> Result<TrainReport, geotorch_core::TrainError> {
    let trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size: BATCH,
        learning_rate: 1e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed,
        device: Device::Cpu,
        replicas: REPLICAS,
    });
    let fmt =
        DfFormatter::for_prediction(&FEATURES, &[4], &["dist"], &[1]).expect("trip formatter");
    let rt = Arc::new(RowTransformer::new(BATCH));
    let model = trip_mlp(seed);
    let mut make = |epoch: usize| -> Result<Box<dyn BatchStream>, LoaderError> {
        let spill = SpillBatchStream::new(Arc::clone(store), fmt.clone(), Arc::clone(&rt));
        let produced = Timed {
            inner: Box::new(spill),
            rec: Arc::clone(rec),
            epoch: None,
            calls: 0,
        };
        let prefetch = PrefetchLoader::new(Box::new(produced), PREFETCH_DEPTH);
        Ok(Box::new(Timed {
            inner: Box::new(prefetch),
            rec: Arc::clone(rec),
            epoch: Some(epoch),
            calls: 0,
        }))
    };
    let forward = |m: &Sequential, x: &Var| {
        let _span = trace::span("replica.forward", 0);
        let start = Instant::now();
        let y = m.forward(x);
        push(&rec.forwards, (start, Instant::now()));
        y
    };
    trainer.fit_stream(
        &model,
        &|r| Box::new(trip_mlp(seed.wrapping_add(100 + r as u64))),
        &forward,
        &mut make,
        &mut || 0.0,
        None,
    )
}

/// The grid must equal the naive single-threaded engine's on `frame`.
pub fn check_grid_matches_naive(fast: &Tensor, naive: &Tensor) -> Result<String, String> {
    if fast.shape() != naive.shape() {
        return Err(format!(
            "grid shape {:?} != naive {:?}",
            fast.shape(),
            naive.shape()
        ));
    }
    let diff = fast
        .as_slice()
        .iter()
        .zip(naive.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    if diff == 0 {
        Ok(format!(
            "{:?} grid identical to the naive engine ({} events)",
            fast.shape(),
            fast.sum()
        ))
    } else {
        Err(format!("{diff} grid cells differ from the naive engine"))
    }
}

pub fn check_stream_loss(losses: &[f32]) -> Result<String, String> {
    let finite = losses.iter().all(|l| l.is_finite());
    match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if finite && losses.len() >= 2 && last < first => {
            Ok(format!("{} epochs, loss {first} -> {last}", losses.len()))
        }
        _ => Err(format!(
            "stream loss is not finite and decreasing: {losses:?}"
        )),
    }
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let (grid_rows, stream_rows) = if args.smoke {
        (40_000, 40_000)
    } else {
        (GRID_ROWS, STREAM_ROWS)
    };
    let passes = ((args.seconds * GRID_PASSES_PER_SECOND).round() as usize).max(110);
    let epochs = ((args.seconds * STREAM_EPOCHS_PER_SECOND).round() as usize).max(4);

    let mut setup_times = Vec::new();
    let mut state: Option<Setup> = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = state.take() {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        // Every set-up starts from an empty tensor pool.
        geotorch_tensor::pool::clear();
        if args.trace && rep + 1 == SETUP_REPEATS {
            // Only the kept set-up's spill is traced.
            trace::set_enabled(true);
        }
        let t0 = Instant::now();
        state = Some(setup(seed, grid_rows, stream_rows, rep));
        setup_times.push(t0.elapsed().as_secs_f64());
        trace::set_enabled(false);
    }
    let s = state.expect("set up at least once");

    let untraced = args.trace.then(|| {
        let rec = Arc::new(Recorder::default());
        stream_fit(&s.store, seed.wrapping_add(7), 1, &rec)
            .expect("untraced epoch")
            .mean_samples_per_sec()
    });
    if args.trace {
        trace::set_enabled(true);
        geotorch_telemetry::set_enabled(true);
    }
    let counters_before = Counters::take();

    // ---- timed: grid passes
    let window_start = Instant::now();
    let mut pass_ms = Vec::with_capacity(passes);
    let (mut repartition_ns, mut grid_ns) = (0u64, 0u64);
    let mut events = Vec::new();
    for pass in 0..passes {
        let (tensor, r, g) = grid_pass(&s.frame, &s.config, pass as u64);
        repartition_ns += r;
        grid_ns += g;
        pass_ms.push((r + g) as f64 / 1e6);
        if pass == 0 {
            events.push(tensor.sum());
        }
    }

    // ---- timed: streamed training
    let rec = Arc::new(Recorder::default());
    let report = {
        let _span = trace::span("core.fit_stream", 0);
        stream_fit(&s.store, seed, epochs, &rec)
    };
    let window_end = Instant::now();
    let kernels = Delta {
        before: counters_before,
        after: Counters::take(),
    };
    trace::set_enabled(false);
    geotorch_telemetry::set_enabled(false);

    let mut out = Outcome::default();
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.checks.push(Check::from_result(
                "stream_fit",
                Err(format!("fit_stream failed: {e}")),
            ));
            let _ = std::fs::remove_dir_all(&s.dir);
            return out;
        }
    };
    let pulls = rec.pulls.lock().expect("recorder").clone();
    let step_starts: Vec<Instant> = pulls
        .iter()
        .filter(|(_, call, _, _)| call % REPLICAS == 0)
        .map(|&(_, _, start, _)| start)
        .collect();
    // A step runs from its first pull to the next step's; the last step
    // of an epoch has no successor in the epoch and is left out.
    let mut step_ms = Vec::new();
    for w in pulls.windows(REPLICAS + 1) {
        let (first, next) = (&w[0], &w[REPLICAS]);
        if first.1 % REPLICAS == 0 && next.0 == first.0 && next.1 == first.1 + REPLICAS {
            step_ms.push((next.2 - first.2).as_secs_f64() * 1e3);
        }
    }
    let samples = s.store.total_rows() * report.epochs_run;
    let stream_secs: f64 = report.epoch_seconds.iter().sum();
    // Medians over chunks of steps and over passes resist short stalls
    // from other work on the host.
    let grid_total_rows = passes * grid_rows;

    out.attempted = (passes + step_starts.len()) as u64;
    out.sizes = vec![
        ("grid_rows", grid_rows.to_string()),
        ("grid", "12x16 cells, 1800 s slots".to_string()),
        ("grid_passes", passes.to_string()),
        ("stream_rows", stream_rows.to_string()),
        ("spill_partitions", s.store.len().to_string()),
        ("batch_size", BATCH.to_string()),
        ("replicas", REPLICAS.to_string()),
        ("epochs", report.epochs_run.to_string()),
    ];
    let setup_s = median(&setup_times);
    let rss = crate::report::peak_rss_mb();
    // Throughput over chunks of consecutive timed steps; every timed step
    // carries REPLICAS full batches.
    let chunk_rates: Vec<f64> = step_ms
        .chunks(STEP_CHUNK)
        .map(|c| (c.len() * REPLICAS * BATCH) as f64 / (c.iter().sum::<f64>() / 1e3))
        .collect();
    let stream_rate = median(&chunk_rates);
    let grid_rate = grid_rows as f64 / (median(&pass_ms) / 1e3);
    out.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
        Metric::new("throughput_per_s", stream_rate, "1/s", samples),
        Metric::new("latency_p50_ms", median(&step_ms), "ms", step_ms.len()),
    ];
    out.detail = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
        Metric::new("stream_samples_per_s", stream_rate, "samples/s", samples),
        Metric::new("stream_step_p50_ms", median(&step_ms), "ms", step_ms.len()),
        Metric::new(
            "stream_step_p90_ms",
            percentile(&step_ms, STEP_TAIL),
            "ms",
            step_ms.len(),
        ),
        Metric::new(
            "stream_step_p99_ms",
            percentile(&step_ms, 99.0),
            "ms",
            step_ms.len(),
        ),
        Metric::new("grid_rows_per_s", grid_rate, "rows/s", grid_total_rows),
        Metric::new("grid_pass_p50_ms", median(&pass_ms), "ms", pass_ms.len()),
        Metric::new(
            "grid_pass_p90_ms",
            percentile(&pass_ms, GRID_TAIL),
            "ms",
            pass_ms.len(),
        ),
    ];
    for (name, n, p) in [
        ("stream steps", step_ms.len(), STEP_TAIL),
        ("grid passes", pass_ms.len(), GRID_TAIL),
    ] {
        out.checks.push(Check::percentile_support(name, n, p));
    }

    // ---- correctness
    let generator = TripGenerator::nyc_like(seed);
    let sub = generator.generate(CHECK_ROWS.min(grid_rows));
    let sub = trips_dataframe(
        sub.iter().map(|t| t.pickup_lat).collect(),
        sub.iter().map(|t| t.pickup_lon).collect(),
        sub.iter().map(|t| t.timestamp).collect(),
    )
    .expect("subsample");
    let (fast, _, _) = grid_pass(&sub, &s.config, u64::MAX);
    let naive = get_st_grid_dataframe_naive(&sub, "lat", "lon", "ts", &s.config)
        .and_then(|g| g.to_tensor())
        .expect("naive engine");
    out.checks.push(Check::from_result(
        "grid_matches_naive",
        check_grid_matches_naive(&fast, &naive),
    ));
    out.checks.push(Check::from_result(
        "grid_conserves_events",
        if events.first() == Some(&(grid_rows as f32)) {
            Ok(format!("{grid_rows} trips aggregated"))
        } else {
            Err(format!(
                "grid holds {events:?} events for {grid_rows} trips"
            ))
        },
    ));
    out.checks.push(Check::from_result(
        "stream_loss_decreases",
        check_stream_loss(&report.train_losses),
    ));

    if args.trace {
        let per_sample = |ns: f64| ns / 1e6 / samples as f64;
        let per_row = |ns: u64| ns as f64 / 1e6 / grid_total_rows as f64;
        let formats = rec.formats.lock().expect("recorder").clone();
        let format_ns: u64 = formats
            .iter()
            .map(|(a, b)| (*b - *a).as_nanos() as u64)
            .sum();
        let wait_ns: u64 = pulls
            .iter()
            .map(|(_, _, a, b)| (*b - *a).as_nanos() as u64)
            .sum();
        // A pull was answered without blocking when its batch had been
        // produced before the pull started. Both logs are in order.
        let mut ready = 0usize;
        let mut produced = formats.iter().map(|(_, end)| *end);
        for (_, _, start, _) in &pulls {
            if produced.next().is_some_and(|end| end <= *start) {
                ready += 1;
            }
        }
        let forwards = rec.forwards.lock().expect("recorder").clone();
        let forward_ns: u64 = forwards
            .iter()
            .map(|(a, b)| (*b - *a).as_nanos() as u64)
            .sum();
        // Each forward belongs to the latest step that started before it.
        let mut slowest = vec![0u64; step_starts.len()];
        for (start, end) in &forwards {
            let step = step_starts.partition_point(|s| s <= start);
            if step > 0 {
                let d = (*end - *start).as_nanos() as u64;
                slowest[step - 1] = slowest[step - 1].max(d);
            }
        }
        let spans = trace::snapshot();
        let coverage = trace::coverage(
            &spans,
            &[
                "dataframe.repartition",
                "preprocess.st_grid",
                "core.fit_stream",
            ],
            window_start,
            window_end,
        );
        let traced_rate = stream_rate;
        let untraced_rate = untraced.unwrap_or(f64::NAN);
        out.per_layer = crate::layers::Layers {
            samples,
            kernels: Some(&kernels),
            ingest: Some(IngestStages {
                repartition_ms: per_row(repartition_ns),
                st_grid_ms: per_row(grid_ns),
                spill_ms: s.spill_ns as f64 / 1e6 / stream_rows as f64,
                spill_mb: s.store.spilled_bytes() as f64 / 1e6,
                format_ms: per_sample(format_ns as f64),
                batch_wait_ms: per_sample(wait_ns as f64),
                prefetch_ready_ratio: ready as f64 / pulls.len().max(1) as f64,
                replica_forward_ms: per_sample(forward_ns as f64),
                replica_step_ms: per_sample(stream_secs * 1e9),
                replica_slowest_forward_ms: per_sample(slowest.iter().sum::<u64>() as f64),
            }),
            overhead_pct: (untraced_rate - traced_rate) / untraced_rate * 100.0,
            coverage,
            ..Default::default()
        }
        .metrics();
    }
    let _ = std::fs::remove_dir_all(&s.dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_check_catches_one_changed_cell() {
        let grid = Tensor::from_vec(vec![0.0, 3.0, 1.0, 2.0], &[1, 2, 2, 1]);
        assert!(check_grid_matches_naive(&grid, &grid.clone()).is_ok());
        let corrupted = Tensor::from_vec(vec![0.0, 3.0, 1.0, 3.0], &[1, 2, 2, 1]);
        assert!(check_grid_matches_naive(&grid, &corrupted).is_err());
        let reshaped = Tensor::from_vec(vec![0.0, 3.0, 1.0, 2.0], &[1, 4, 1, 1]);
        assert!(check_grid_matches_naive(&grid, &reshaped).is_err());
    }

    #[test]
    fn stream_loss_check_needs_finite_and_decreasing() {
        assert!(check_stream_loss(&[0.3, 0.2, 0.1]).is_ok());
        assert!(check_stream_loss(&[0.3, f32::NAN, 0.1]).is_err());
        assert!(check_stream_loss(&[0.1, 0.2]).is_err());
    }
}
