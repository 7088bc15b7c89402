//! The training front-end: configuration, reports, the per-family
//! losses, and evaluation — implementing the paper's §V-C protocol.
//!
//! Every `fit_*` entry point runs the one epoch driver in
//! [`crate::replica`], so optimizer cadence, gradient clipping, early
//! stopping, and telemetry behave identically across the three model
//! families (grid, classifier, segmenter). `fit_grid`, `fit_classifier`
//! and `fit_segmenter` are its single-replica calls: each supplies only
//! the per-batch loss and the validation metric.

use geotorch_datasets::{BatchIndices, RasterBatchData, RasterDataset, StBatch, StGridDataset};
use geotorch_models::{GridInput, GridModel, RasterClassifier, Segmenter};
use geotorch_nn::loss::{bce_with_logits_loss, cross_entropy_loss, mse_loss};
use geotorch_nn::Var;
use geotorch_tensor::{with_device, Device, Tensor};

use crate::metrics;

/// When weights update (§III-A2): after every batch (incremental) or once
/// per epoch with accumulated gradients (cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Step the optimizer after every batch (the paper's default).
    Incremental,
    /// Accumulate gradients across the epoch, step once. The accumulated
    /// sum is scaled by `1/batches` before the step, so the effective
    /// learning rate matches Incremental's per-batch-mean gradients and
    /// does not grow with dataset size.
    Cumulative,
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Stop when the validation metric has not improved for this many
    /// epochs (`None` disables early stopping).
    pub early_stopping_patience: Option<usize>,
    /// Weight-update cadence.
    pub update_mode: UpdateMode,
    /// Clip the global gradient L2 norm to this value before each step
    /// (`None` disables). Useful for recurrent models.
    pub gradient_clip: Option<f32>,
    /// Shuffling seed.
    pub seed: u64,
    /// Compute device every `fit_*`/`evaluate_*` call runs under.
    /// `Device::parallel()` routes the hot kernels through the persistent
    /// worker pool; the default `Device::Cpu` stays serial.
    pub device: Device,
    /// Data-parallel model replicas for the `fit_*_replicated` /
    /// `fit_stream` entry points (see [`crate::replica`]). Each step is
    /// sharded across this many replicas and their gradients averaged
    /// before one optimizer step; `1` reproduces the single-replica
    /// trainer bit-for-bit. `fit_grid`, `fit_classifier` and
    /// `fit_segmenter` ignore this field and always run one replica.
    pub replicas: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            learning_rate: 1e-3,
            early_stopping_patience: Some(3),
            update_mode: UpdateMode::Incremental,
            gradient_clip: None,
            seed: 0,
            device: Device::Cpu,
            replicas: 1,
        }
    }
}

/// Why a training run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every configured epoch ran.
    MaxEpochs,
    /// The validation metric failed to improve for `patience` consecutive
    /// epochs; training stopped after `epoch` epochs.
    EarlyStopped {
        /// 1-based number of epochs that had run when training stopped.
        epoch: usize,
        /// The configured patience that fired.
        patience: usize,
    },
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Validation metric per epoch (loss-like: lower is better).
    pub val_metrics: Vec<f32>,
    /// Epochs actually run (≤ configured when early stopping fires).
    pub epochs_run: usize,
    /// Wall-clock seconds per epoch (training only; validation excluded).
    pub epoch_seconds: Vec<f64>,
    /// Training samples processed per second, per epoch.
    pub samples_per_sec: Vec<f64>,
    /// Why the run ended.
    pub stop_reason: StopReason,
    /// CPU cores the host exposed during the run. Throughput numbers
    /// from single-core containers are not comparable to multi-core
    /// hosts; stamping the core count makes every artifact
    /// self-describing.
    pub host_cores: usize,
    /// Tensor-pool high-water mark (bytes) when the run finished — the
    /// peak pooled working set, the figure the out-of-core pipeline
    /// bounds.
    pub pool_high_water_bytes: u64,
}

impl TrainReport {
    /// Mean seconds per epoch.
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epoch_seconds.is_empty() {
            0.0
        } else {
            self.epoch_seconds.iter().sum::<f64>() / self.epoch_seconds.len() as f64
        }
    }

    /// Best (minimum) validation metric.
    pub fn best_val(&self) -> f32 {
        self.val_metrics.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean training throughput in samples per second.
    pub fn mean_samples_per_sec(&self) -> f64 {
        if self.samples_per_sec.is_empty() {
            0.0
        } else {
            self.samples_per_sec.iter().sum::<f64>() / self.samples_per_sec.len() as f64
        }
    }
}

/// Drives training and evaluation for the three model families.
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Run `f` under the configured compute device.
    fn on_device<T>(&self, f: impl FnOnce() -> T) -> T {
        with_device(self.config.device, f)
    }

    // --------------------------------------------------------- grid

    /// Train a grid model on chronological train/val splits of `dataset`
    /// (which must already carry the representation the model expects).
    ///
    /// # Panics
    /// If the model's forward or loss panics; the new panic carries its
    /// message.
    pub fn fit_grid(
        &self,
        model: &dyn GridModel,
        dataset: &StGridDataset,
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainReport {
        self.fit_indexed(
            model,
            None,
            &grid_loss,
            &|idx| dataset.batch(idx),
            train_idx,
            &mut || self.evaluate_grid(model, dataset, val_idx).0,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// `(MAE, RMSE)` of a grid model over the given samples (normalised
    /// units).
    pub fn evaluate_grid(
        &self,
        model: &dyn GridModel,
        dataset: &StGridDataset,
        indices: &[usize],
    ) -> (f32, f32) {
        self.on_device(|| {
            model.set_training(false);
            let mut preds = Vec::new();
            let mut targets = Vec::new();
            for batch_idx in BatchIndices::new(indices, self.config.batch_size) {
                let batch = dataset.batch(&batch_idx);
                let (input, target) = grid_io(&batch);
                // Evaluation never calls backward; skip building the tape.
                preds.push(geotorch_nn::no_grad(|| model.forward(&input).value()));
                targets.push(target.value());
            }
            if preds.is_empty() {
                return (f32::NAN, f32::NAN);
            }
            let p_refs: Vec<&Tensor> = preds.iter().collect();
            let t_refs: Vec<&Tensor> = targets.iter().collect();
            let p = Tensor::concat(&p_refs, 0);
            let t = Tensor::concat(&t_refs, 0);
            (metrics::mae(&p, &t), metrics::rmse(&p, &t))
        })
    }

    // ------------------------------------------------- classification

    /// Train a raster classifier with cross-entropy.
    ///
    /// # Panics
    /// If the model's forward or loss panics; the new panic carries its
    /// message.
    pub fn fit_classifier(
        &self,
        model: &dyn RasterClassifier,
        dataset: &RasterDataset,
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainReport {
        self.fit_indexed(
            model,
            None,
            &classifier_loss,
            &|idx| dataset.batch(idx),
            train_idx,
            // Validation metric: 1 - accuracy (lower is better).
            &mut || 1.0 - self.evaluate_classifier(model, dataset, val_idx),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Accuracy of a classifier over the given samples.
    pub fn evaluate_classifier(
        &self,
        model: &dyn RasterClassifier,
        dataset: &RasterDataset,
        indices: &[usize],
    ) -> f32 {
        self.on_device(|| {
            model.set_training(false);
            let mut correct = 0usize;
            let mut total = 0usize;
            for batch_idx in BatchIndices::new(indices, self.config.batch_size) {
                let batch = dataset.batch(&batch_idx);
                let x = Var::constant(batch.x);
                let features = batch.features.map(Var::constant);
                let logits =
                    geotorch_nn::no_grad(|| model.forward(&x, features.as_ref()).value());
                // Exact integer counts — reconstructing them from a
                // per-batch accuracy float loses precision on large
                // batches.
                correct += metrics::correct_count(&logits, &batch.labels);
                total += batch.labels.len();
            }
            if total == 0 {
                f32::NAN
            } else {
                correct as f32 / total as f32
            }
        })
    }

    // --------------------------------------------------- segmentation

    /// Train a segmentation model with BCE-with-logits on the masks.
    ///
    /// # Panics
    /// If the model's forward or loss panics; the new panic carries its
    /// message.
    pub fn fit_segmenter(
        &self,
        model: &dyn Segmenter,
        dataset: &RasterDataset,
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainReport {
        self.fit_indexed(
            model,
            None,
            &segmenter_loss,
            &|idx| dataset.batch(idx),
            train_idx,
            &mut || 1.0 - self.evaluate_segmenter(model, dataset, val_idx),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pixel accuracy of a segmenter over the given samples.
    pub fn evaluate_segmenter(
        &self,
        model: &dyn Segmenter,
        dataset: &RasterDataset,
        indices: &[usize],
    ) -> f32 {
        self.on_device(|| {
            model.set_training(false);
            let mut correct = 0usize;
            let mut total = 0usize;
            for batch_idx in BatchIndices::new(indices, self.config.batch_size) {
                let batch = dataset.batch(&batch_idx);
                let x = Var::constant(batch.x);
                let masks = batch.masks.expect("segmentation dataset");
                let logits = geotorch_nn::no_grad(|| model.forward(&x).value());
                // Weight by pixel count: averaging per-batch accuracies
                // unweighted over-weights a ragged final batch.
                correct += metrics::pixel_correct_count(&logits, &masks);
                total += logits.len();
            }
            if total == 0 {
                f32::NAN
            } else {
                correct as f32 / total as f32
            }
        })
    }
}

/// MSE of a grid model's prediction against the batch target.
pub(crate) fn grid_loss(model: &(dyn GridModel + '_), batch: &StBatch) -> Var {
    let (input, target) = grid_io(batch);
    mse_loss(&model.forward(&input), &target)
}

/// Cross-entropy of a classifier's logits against the batch labels.
pub(crate) fn classifier_loss(model: &(dyn RasterClassifier + '_), batch: &RasterBatchData) -> Var {
    let x = Var::constant(batch.x.clone());
    let features = batch.features.clone().map(Var::constant);
    cross_entropy_loss(&model.forward(&x, features.as_ref()), &batch.labels)
}

/// BCE-with-logits of a segmenter's output against the batch masks.
pub(crate) fn segmenter_loss(model: &(dyn Segmenter + '_), batch: &RasterBatchData) -> Var {
    let x = Var::constant(batch.x.clone());
    let masks = Var::constant(batch.masks.clone().expect("segmentation dataset"));
    bce_with_logits_loss(&model.forward(&x), &masks)
}

/// Map a dataset batch to the model input and the `[B, C, H, W]` target.
pub fn grid_io(batch: &StBatch) -> (GridInput, Var) {
    match batch {
        StBatch::Basic { x, y } => (
            GridInput::Basic(Var::constant(x.clone())),
            Var::constant(y.clone()),
        ),
        StBatch::Sequential { x, y } => {
            // Target = first predicted frame.
            let s = y.shape();
            let first = y.narrow(1, 0, 1).reshape(&[s[0], s[2], s[3], s[4]]);
            (
                GridInput::Sequence(Var::constant(x.clone())),
                Var::constant(first),
            )
        }
        StBatch::Periodical {
            x_closeness,
            x_period,
            x_trend,
            y,
        } => (
            GridInput::Periodical {
                closeness: Var::constant(x_closeness.clone()),
                period: Var::constant(x_period.clone()),
                trend: Var::constant(x_trend.clone()),
            },
            Var::constant(y.clone()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotorch_datasets::chronological_split;
    use geotorch_models::grid::PeriodicalCnn;
    use geotorch_models::raster::{SatCnn, UNet};
    use rand::SeedableRng;

    fn quick_config(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 8,
            learning_rate: 3e-3,
            early_stopping_patience: None,
            update_mode: UpdateMode::Incremental,
            gradient_clip: None,
            seed: 0,
            device: Device::Cpu,
            replicas: 1,
        }
    }

    #[test]
    fn grid_training_reduces_loss() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut ds = StGridDataset::bike_nyc_deepstn(10, 3);
        ds.set_periodical_representation(2, 1, 1);
        let model = PeriodicalCnn::new(2, (2, 1, 1), 8, &mut rng);
        let (train, val, _) = chronological_split(ds.len());
        let trainer = Trainer::new(quick_config(3));
        let report = trainer.fit_grid(&model, &ds, &train[..64.min(train.len())], &val);
        assert_eq!(report.epochs_run, 3);
        assert!(
            report.train_losses.last().unwrap() < report.train_losses.first().unwrap(),
            "loss should drop: {:?}",
            report.train_losses
        );
        assert!(report.mean_epoch_seconds() > 0.0);
        assert_eq!(report.stop_reason, StopReason::MaxEpochs);
        assert_eq!(report.samples_per_sec.len(), 3);
        assert!(
            report.mean_samples_per_sec() > 0.0,
            "throughput must be recorded: {:?}",
            report.samples_per_sec
        );
    }

    #[test]
    fn parallel_device_trains_like_cpu() {
        let run = |device: Device| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let mut ds = StGridDataset::bike_nyc_deepstn(8, 3);
            ds.set_periodical_representation(2, 1, 1);
            let model = PeriodicalCnn::new(2, (2, 1, 1), 8, &mut rng);
            let (train, val, _) = chronological_split(ds.len());
            let mut config = quick_config(2);
            config.device = device;
            let trainer = Trainer::new(config);
            trainer
                .fit_grid(&model, &ds, &train[..32.min(train.len())], &val)
                .train_losses
        };
        let cpu = run(Device::Cpu);
        let par = run(Device::Parallel(4));
        assert_eq!(cpu.len(), par.len());
        for (c, p) in cpu.iter().zip(&par) {
            assert!(
                (c - p).abs() <= 1e-5 * c.abs().max(1.0),
                "device-dependent training: cpu {cpu:?} vs parallel {par:?}"
            );
        }
    }

    #[test]
    fn grid_evaluation_returns_finite_metrics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut ds = StGridDataset::taxi_nyc_stdn(3, 4);
        ds.set_periodical_representation(2, 1, 0);
        let model = PeriodicalCnn::new(2, (2, 1, 0), 4, &mut rng);
        let trainer = Trainer::new(quick_config(1));
        let (mae, rmse) = trainer.evaluate_grid(&model, &ds, &[0, 1, 2, 3]);
        assert!(mae.is_finite() && rmse.is_finite());
        assert!(rmse >= mae * 0.99);
    }

    #[test]
    fn classifier_learns_synthetic_classes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let ds = RasterDataset::classification("tiny", 3, 8, 8, 3, 20, 5);
        let model = SatCnn::new(3, 8, 8, 3, &mut rng);
        let (train, val, test) = geotorch_datasets::shuffled_split(ds.len(), 7);
        let trainer = Trainer::new(quick_config(6));
        trainer.fit_classifier(&model, &ds, &train, &val);
        let acc = trainer.evaluate_classifier(&model, &ds, &test);
        assert!(acc > 0.6, "classifier should beat chance by a margin, got {acc}");
    }

    #[test]
    fn early_stopping_halts_training() {
        let mut ds = StGridDataset::taxi_nyc_stdn(3, 4);
        ds.set_basic_representation(1);
        // Untrainable learning rate 0-ish → no improvement → stop early.
        let config = TrainConfig {
            epochs: 10,
            batch_size: 8,
            learning_rate: 1e-12,
            early_stopping_patience: Some(2),
            update_mode: UpdateMode::Incremental,
            gradient_clip: None,
            seed: 0,
            device: Device::Cpu,
            replicas: 1,
        };
        struct Identity;
        impl geotorch_nn::Module for Identity {
            fn parameters(&self) -> Vec<Var> {
                vec![Var::parameter(Tensor::zeros(&[1]))]
            }
        }
        impl GridModel for Identity {
            fn forward(&self, input: &GridInput) -> Var {
                match input {
                    GridInput::Basic(x) => x.clone(),
                    _ => panic!(),
                }
            }
            fn representation(&self) -> geotorch_models::RepresentationKind {
                geotorch_models::RepresentationKind::Basic
            }
            fn name(&self) -> &'static str {
                "identity"
            }
        }
        let trainer = Trainer::new(config);
        let report = trainer.fit_grid(&Identity, &ds, &[0, 1, 2, 3], &[4, 5]);
        assert!(report.epochs_run <= 4, "expected early stop, ran {}", report.epochs_run);
        match report.stop_reason {
            StopReason::EarlyStopped { epoch, patience } => {
                assert_eq!(epoch, report.epochs_run);
                assert_eq!(patience, 2);
            }
            other => panic!("expected EarlyStopped, got {other:?}"),
        }
    }

    #[test]
    fn gradient_clipping_trains_stably() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let ds = {
            let mut ds = StGridDataset::taxi_nyc_stdn(3, 11);
            ds.set_periodical_representation(1, 1, 0);
            ds
        };
        let model = PeriodicalCnn::new(2, (1, 1, 0), 4, &mut rng);
        let config = TrainConfig {
            gradient_clip: Some(0.5),
            learning_rate: 5e-2, // aggressively high; clipping keeps it sane
            ..quick_config(3)
        };
        let trainer = Trainer::new(config);
        let report = trainer.fit_grid(&model, &ds, &[0, 1, 2, 3, 4, 5, 6, 7], &[8, 9]);
        assert!(report.train_losses.iter().all(|l| l.is_finite()));
        use geotorch_nn::Module as _;
        for p in model.parameters() {
            assert!(p.value().as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn cumulative_mode_trains() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut ds = StGridDataset::taxi_nyc_stdn(3, 9);
        ds.set_periodical_representation(1, 1, 0);
        let model = PeriodicalCnn::new(2, (1, 1, 0), 4, &mut rng);
        let config = TrainConfig {
            update_mode: UpdateMode::Cumulative,
            ..quick_config(2)
        };
        let trainer = Trainer::new(config);
        let report = trainer.fit_grid(&model, &ds, &[0, 1, 2, 3, 4, 5, 6, 7], &[8, 9]);
        assert_eq!(report.epochs_run, 2);
        assert!(report.train_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn cumulative_matches_incremental_on_single_batch_epochs() {
        // With one batch per epoch the accumulated gradient equals the
        // batch gradient (scaled by 1/1), so both cadences must walk the
        // identical optimisation trajectory.
        let run = |mode: UpdateMode| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(21);
            let mut ds = StGridDataset::taxi_nyc_stdn(3, 9);
            ds.set_periodical_representation(1, 1, 0);
            let model = PeriodicalCnn::new(2, (1, 1, 0), 4, &mut rng);
            let config = TrainConfig {
                update_mode: mode,
                batch_size: 8, // == train set size → exactly one batch/epoch
                ..quick_config(4)
            };
            let trainer = Trainer::new(config);
            trainer
                .fit_grid(&model, &ds, &[0, 1, 2, 3, 4, 5, 6, 7], &[8, 9])
                .train_losses
        };
        let inc = run(UpdateMode::Incremental);
        let cum = run(UpdateMode::Cumulative);
        assert_eq!(inc.len(), cum.len());
        for (i, c) in inc.iter().zip(&cum) {
            assert!(
                (i - c).abs() <= 1e-6 * i.abs().max(1.0),
                "1-batch epochs must match: incremental {inc:?} vs cumulative {cum:?}"
            );
        }
    }

    #[test]
    fn classifier_eval_counts_exactly_with_ragged_batches() {
        // A constant model that always predicts class 0: accuracy must be
        // exactly (#labels == 0) / total, summed with integer counts over
        // batches — including a ragged final batch (7 samples with
        // batch_size 4 → batches of 4 and 3).
        struct AlwaysZero {
            classes: usize,
        }
        impl geotorch_nn::Module for AlwaysZero {
            fn parameters(&self) -> Vec<Var> {
                vec![Var::parameter(Tensor::zeros(&[1]))]
            }
        }
        impl RasterClassifier for AlwaysZero {
            fn forward(&self, images: &Var, _features: Option<&Var>) -> Var {
                let b = images.shape()[0];
                let mut logits = vec![0.0f32; b * self.classes];
                for r in 0..b {
                    logits[r * self.classes] = 1.0;
                }
                Var::constant(Tensor::from_vec(logits, &[b, self.classes]))
            }
            fn name(&self) -> &'static str {
                "always-zero"
            }
        }
        let ds = RasterDataset::classification("fixture", 1, 4, 4, 3, 10, 0);
        let indices: Vec<usize> = (0..7).collect();
        let expected = indices.iter().filter(|&&i| ds.label(i) == 0).count() as f32 / 7.0;
        let mut config = quick_config(1);
        config.batch_size = 4;
        let trainer = Trainer::new(config);
        let model = AlwaysZero { classes: 3 };
        let acc = trainer.evaluate_classifier(&model, &ds, &indices);
        assert_eq!(acc, expected, "exact count mismatch");
    }

    #[test]
    fn segmenter_eval_weights_batches_by_pixel_count() {
        // A constant all-positive segmenter: pixel accuracy must equal the
        // overall fraction of positive mask pixels, regardless of how the
        // samples split into batches. The old unweighted per-batch average
        // over-weighted the ragged final batch.
        struct AllPositive;
        impl geotorch_nn::Module for AllPositive {
            fn parameters(&self) -> Vec<Var> {
                vec![Var::parameter(Tensor::zeros(&[1]))]
            }
        }
        impl Segmenter for AllPositive {
            fn forward(&self, images: &Var) -> Var {
                let s = images.shape();
                Var::constant(Tensor::ones(&[s[0], 1, s[2], s[3]]))
            }
            fn name(&self) -> &'static str {
                "all-positive"
            }
        }
        let ds = RasterDataset::cloud38(7, 16, 3);
        let indices: Vec<usize> = (0..7).collect();
        // Hand-computed expectation: positive mask pixels over all pixels.
        let mut positive = 0usize;
        let mut total = 0usize;
        for batch_idx in BatchIndices::new(&indices, 4) {
            let batch = ds.batch(&batch_idx);
            let mask = batch.masks.expect("segmentation dataset");
            positive += mask.as_slice().iter().filter(|&&m| m > 0.5).count();
            total += mask.len();
        }
        let expected = positive as f32 / total as f32;
        let mut config = quick_config(1);
        config.batch_size = 4; // 7 samples → batches of 4 and 3 (ragged)
        let trainer = Trainer::new(config);
        let acc = trainer.evaluate_segmenter(&AllPositive, &ds, &indices);
        assert!(
            (acc - expected).abs() < 1e-6,
            "pixel-weighted accuracy {acc} != expected {expected}"
        );
    }

    #[test]
    fn segmenter_learns_bright_clouds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ds = RasterDataset::cloud38(32, 16, 3);
        let model = UNet::new(4, 1, 4, &mut rng);
        let (train, val, test) = chronological_split(ds.len());
        let config = TrainConfig {
            batch_size: 4,
            learning_rate: 1e-2,
            ..quick_config(15)
        };
        let trainer = Trainer::new(config);
        trainer.fit_segmenter(&model, &ds, &train, &val);
        let acc = trainer.evaluate_segmenter(&model, &ds, &test);
        assert!(acc > 0.9, "segmentation accuracy too low: {acc}");
    }
}
