//! `train_satcnn`: the Fig. 9 / Table VII path. SatCNN trains on a
//! synthetic 13-band 64×64 10-class raster dataset through
//! `Trainer::fit_classifier` with one replica and intra-op parallel
//! kernels; after every epoch the trainer's validation pass runs no-grad
//! inference over the whole dataset.

use std::cell::RefCell;
use std::time::Instant;

use rand::SeedableRng;

use geotorch_core::{TrainConfig, TrainReport, Trainer, UpdateMode};
use geotorch_datasets::{shuffled_split, BatchIndices, RasterDataset};
use geotorch_models::raster::SatCnn;
use geotorch_models::RasterClassifier;
use geotorch_nn::{Module, Var};
use geotorch_tensor::Device;

use crate::layers::TrainStages;
use crate::report::{median, percentile, Check, Metric, Outcome};
use crate::trace::{self, Counters, Delta};
use crate::{Args, SETUP_REPEATS};

const BANDS: usize = 13;
const SIZE: usize = 64;
const CLASSES: usize = 10;
const BATCH: usize = 8;
/// Samples per class: 240 samples, 192 of them in the training split.
const PER_CLASS: usize = 24;
/// Timed epochs per second of `--seconds` budget. On a 2-core x86-64
/// host one epoch (192 training samples at batch 8, then inference over
/// all 240) takes about 2.55 s.
const EPOCHS_PER_SECOND: f64 = 0.39;
/// Step latencies are reported at p90, which needs ≥ 100 steps.
const STEP_TAIL: f64 = 90.0;
const WARMUP_SAMPLES: usize = 32;
/// A p90 needs 100 samples to have 10 beyond it.
const MIN_TAIL_SAMPLES: usize = 100;

/// Inference forwards are reported at p90 too.
const EVAL_TAIL: f64 = 90.0;

fn config(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: BATCH,
        learning_rate: 1e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed,
        device: Device::Parallel(crate::report::nproc()),
        replicas: 1,
    }
}

fn build_model(seed: u64) -> SatCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5a7c);
    SatCnn::new(BANDS, SIZE, SIZE, CLASSES, &mut rng)
}

/// One forward call as the trainer made it.
#[derive(Clone, Copy)]
struct ForwardCall {
    start: Instant,
    end: Instant,
    /// Batch rows.
    rows: usize,
    training: bool,
}

/// SatCNN behind a wrapper that timestamps every forward call the
/// trainer makes: training steps are the gaps between consecutive
/// training forwards.
struct TimedSatCnn {
    inner: SatCnn,
    calls: RefCell<Vec<ForwardCall>>,
}

impl Module for TimedSatCnn {
    fn parameters(&self) -> Vec<Var> {
        self.inner.parameters()
    }

    fn set_training(&self, training: bool) {
        self.inner.set_training(training);
    }
}

impl RasterClassifier for TimedSatCnn {
    fn forward(&self, images: &Var, features: Option<&Var>) -> Var {
        let training = !geotorch_nn::is_no_grad();
        let step = self.calls.borrow().len() as u64;
        let start = Instant::now();
        let out = {
            let _span = trace::span(
                if training {
                    "models.forward"
                } else {
                    "models.forward_eval"
                },
                step,
            );
            self.inner.forward(images, features)
        };
        let end = Instant::now();
        self.calls.borrow_mut().push(ForwardCall {
            start,
            end,
            rows: images.shape()[0],
            training,
        });
        out
    }

    fn name(&self) -> &'static str {
        "SatCNN (timed)"
    }
}

struct Setup {
    dataset: RasterDataset,
    model: TimedSatCnn,
    train_idx: Vec<usize>,
    val_idx: Vec<usize>,
}

/// Input generation, model build and a warm-up pass over the first
/// training batches.
fn setup(seed: u64, per_class: usize) -> Setup {
    let dataset =
        RasterDataset::classification("EuroSAT-like", BANDS, SIZE, SIZE, CLASSES, per_class, seed);
    let (train_idx, val_idx, _) = shuffled_split(dataset.len(), seed);
    let model = TimedSatCnn {
        inner: build_model(seed),
        calls: RefCell::new(Vec::new()),
    };
    Trainer::new(config(seed.wrapping_add(1 << 32), 1)).fit_classifier(
        &model,
        &dataset,
        &train_idx[..WARMUP_SAMPLES.min(train_idx.len())],
        &val_idx,
    );
    model.calls.borrow_mut().clear();
    Setup {
        dataset,
        model,
        train_idx,
        val_idx,
    }
}

/// Same seed, same data, same schedule: the loss vectors must match bit
/// for bit.
pub fn check_deterministic(a: &[f32], b: &[f32]) -> Result<String, String> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if a.is_empty() || bits(a) != bits(b) {
        Err(format!(
            "loss vectors differ between identical runs: {a:?} vs {b:?}"
        ))
    } else {
        Ok(format!("{} epoch losses identical: {a:?}", a.len()))
    }
}

pub fn check_loss_decreased(losses: &[f32]) -> Result<String, String> {
    match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if losses.len() >= 2 && last.is_finite() && last < first => {
            Ok(format!("epoch loss {first} -> {last}"))
        }
        _ => Err(format!(
            "final epoch loss is not below the first: {losses:?}"
        )),
    }
}

fn fnv(losses: &[f32]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for x in losses {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x}")
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let per_class = if args.smoke { 4 } else { PER_CLASS };

    // Set up several times; the median is the set-up time.
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        // Every set-up starts from an empty tensor pool.
        geotorch_tensor::pool::clear();
        let t0 = Instant::now();
        state = Some(setup(seed, per_class));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        dataset,
        model,
        train_idx,
        val_idx,
    } = state.expect("set up at least once");
    // The timed fit validates on the whole dataset after every epoch:
    // those no-grad forwards are the inference measurement, spread over
    // the same window as training.
    let all: Vec<usize> = (0..dataset.len()).collect();
    // The last step of an epoch has no successor to time it by.
    let timed_steps_per_epoch = train_idx.len().div_ceil(BATCH).saturating_sub(1).max(1);
    let epochs = ((args.seconds * EPOCHS_PER_SECOND).round() as usize)
        .max(MIN_TAIL_SAMPLES.div_ceil(timed_steps_per_epoch));
    let trainer = Trainer::new(config(seed, epochs));

    // Traced runs measure the tracing cost: one untraced epoch first.
    let untraced_rate = args.trace.then(|| {
        let t = Trainer::new(config(seed.wrapping_add(2 << 32), 1));
        let r = t.fit_classifier(&model, &dataset, &train_idx, &val_idx);
        model.calls.borrow_mut().clear();
        r.mean_samples_per_sec()
    });
    if args.trace {
        trace::set_enabled(true);
        geotorch_telemetry::set_enabled(true);
    }

    // ---- timed: training epochs
    let counters_before = Counters::take();
    let fit_start = Instant::now();
    let report: TrainReport = {
        let _span = trace::span("core.fit_classifier", 0);
        trainer.fit_classifier(&model, &dataset, &train_idx, &all)
    };
    let fit_end = Instant::now();
    let kernels = Delta {
        before: counters_before,
        after: Counters::take(),
    };
    let calls = model.calls.borrow().clone();

    trace::set_enabled(false);
    geotorch_telemetry::set_enabled(false);

    // ---- measurements
    let train_samples = train_idx.len() * report.epochs_run;
    // Medians over epochs resist short stalls from other work on the host.
    let samples_per_s = median(&report.samples_per_sec);
    let mut step_ms = Vec::new();
    for pair in calls.windows(2) {
        if pair[0].training && pair[1].training {
            step_ms.push((pair[1].start - pair[0].start).as_secs_f64() * 1e3);
        }
    }
    let ms = |c: &ForwardCall| (c.end - c.start).as_secs_f64() * 1e3;
    let eval_ms: Vec<f64> = calls.iter().filter(|c| !c.training).map(ms).collect();
    let eval_samples: usize = calls.iter().filter(|c| !c.training).map(|c| c.rows).sum();
    // One inference rate per validation pass (the calls between two
    // training epochs).
    let eval_rates: Vec<f64> = calls
        .split(|c| c.training)
        .filter(|pass| !pass.is_empty())
        .map(|pass| {
            pass.iter().map(|c| c.rows).sum::<usize>() as f64
                / (pass.iter().map(ms).sum::<f64>() / 1e3)
        })
        .collect();
    let eval_rate = median(&eval_rates);

    let mut out = Outcome {
        attempted: (step_ms.len() + eval_ms.len()) as u64,
        ..Default::default()
    };
    out.sizes = vec![
        (
            "dataset",
            format!(
                "{} samples of {BANDS}x{SIZE}x{SIZE}, {CLASSES} classes",
                dataset.len()
            ),
        ),
        ("train_split", train_idx.len().to_string()),
        ("batch_size", BATCH.to_string()),
        ("epochs", report.epochs_run.to_string()),
        ("device", format!("Parallel({})", crate::report::nproc())),
        ("loss_digest", fnv(&report.train_losses)),
    ];
    let setup_s = median(&setup_times);
    out.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("peak_rss_mb", crate::report::peak_rss_mb(), "MB", 1),
        Metric::new("throughput_per_s", samples_per_s, "1/s", train_samples),
        Metric::new("latency_p50_ms", median(&step_ms), "ms", step_ms.len()),
    ];
    out.detail = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("peak_rss_mb", crate::report::peak_rss_mb(), "MB", 1),
        Metric::new(
            "train_samples_per_s",
            samples_per_s,
            "samples/s",
            train_samples,
        ),
        Metric::new("train_step_p50_ms", median(&step_ms), "ms", step_ms.len()),
        Metric::new(
            "train_step_p90_ms",
            percentile(&step_ms, STEP_TAIL),
            "ms",
            step_ms.len(),
        ),
        Metric::new("infer_samples_per_s", eval_rate, "samples/s", eval_samples),
        Metric::new(
            "infer_forward_p50_ms",
            median(&eval_ms),
            "ms",
            eval_ms.len(),
        ),
        Metric::new(
            "infer_forward_p90_ms",
            percentile(&eval_ms, EVAL_TAIL),
            "ms",
            eval_ms.len(),
        ),
    ];
    for (name, n, p) in [
        ("train steps", step_ms.len(), STEP_TAIL),
        ("inference forwards", eval_ms.len(), EVAL_TAIL),
    ] {
        out.checks.push(Check::percentile_support(name, n, p));
    }

    // ---- correctness
    out.checks.push(Check::from_result(
        "train_loss_decreases",
        check_loss_decreased(&report.train_losses),
    ));
    let short = || {
        let m = build_model(seed);
        let t = Trainer::new(config(seed, 2));
        let subset = &train_idx[..train_idx.len().min(32)];
        t.fit_classifier(&m, &dataset, subset, &val_idx)
            .train_losses
    };
    out.checks.push(Check::from_result(
        "train_loss_deterministic",
        check_deterministic(&short(), &short()),
    ));
    let errors = &report.val_metrics;
    out.checks.push(Check::from_result(
        "inference_error_finite",
        match errors.last() {
            Some(e) if errors.iter().all(|e| e.is_finite()) => {
                Ok(format!("final error rate {e:.3}"))
            }
            _ => Err(format!("validation error rates are not finite: {errors:?}")),
        },
    ));

    if args.trace {
        out.per_layer = layers(
            &dataset,
            &train_idx,
            &trainer,
            &report,
            &calls,
            &kernels,
            (fit_start, fit_end),
            train_samples,
            samples_per_s,
            untraced_rate.unwrap_or(f64::NAN),
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn layers(
    dataset: &RasterDataset,
    train_idx: &[usize],
    trainer: &Trainer,
    report: &TrainReport,
    calls: &[ForwardCall],
    kernels: &Delta,
    (fit_start, fit_end): (Instant, Instant),
    samples: usize,
    traced_rate: f64,
    untraced_rate: f64,
) -> Vec<Metric> {
    let per = |ns: f64| ns / 1e6 / samples as f64;
    // Batch assembly is internal to the trainer; replay it on the
    // epochs' exact indices to time it.
    let mut batch_ns = 0u64;
    for epoch in 0..report.epochs_run {
        let seed = trainer.config().seed.wrapping_add(epoch as u64);
        for (i, idx) in BatchIndices::shuffled(train_idx, BATCH, seed).enumerate() {
            let _span = trace::span("datasets.batch", i as u64);
            let t0 = Instant::now();
            std::hint::black_box(dataset.batch(&idx));
            batch_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    let fwd_ns: u64 = calls
        .iter()
        .filter(|c| c.training)
        .map(|c| (c.end - c.start).as_nanos() as u64)
        .sum();
    let step_ns = report.epoch_seconds.iter().sum::<f64>() * 1e9;
    let spans = trace::snapshot();
    let coverage = trace::coverage(&spans, &["core.fit_classifier"], fit_start, fit_end);
    crate::layers::Layers {
        samples,
        kernels: Some(kernels),
        train: Some(TrainStages {
            forward_ms: per(fwd_ns as f64),
            batch_ms: per(batch_ns as f64),
            step_ms: per(step_ns),
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
    fn determinism_check_catches_one_flipped_bit() {
        let a = [2.5f32, 2.0, 1.5];
        assert!(check_deterministic(&a, &a).is_ok());
        let mut b = a;
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert!(check_deterministic(&a, &b).is_err());
        assert!(check_deterministic(&[], &[]).is_err());
    }

    #[test]
    fn loss_check_needs_a_finite_decrease() {
        assert!(check_loss_decreased(&[2.0, 1.0, 0.5]).is_ok());
        assert!(check_loss_decreased(&[1.0, 1.5]).is_err());
        assert!(check_loss_decreased(&[1.0, f32::NAN]).is_err());
        assert!(check_loss_decreased(&[1.0]).is_err());
    }
}
