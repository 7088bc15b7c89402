//! Every `fit_*` entry point runs one epoch driver. These tests pin its
//! single-replica behaviour to an independent reference: the classic
//! single-threaded epoch loop, written below against public APIs only
//! (shuffled batches, `loss.backward()`, Adam with optional clipping,
//! Cumulative averaging, early stopping, best-state restore). The driver
//! must match it exactly — same per-epoch losses, same validation
//! metrics, same stop reason, and byte-identical checkpoints of the
//! final weights. This is the invariant that lets `replicas > 1` be
//! adopted without re-validating any paper figure.
//!
//! The K = 2 tests check the multi-slot protocol itself: slot 0 runs on
//! the calling thread, and a panic in any slot surfaces as that slot's
//! `TrainError::Replica` with every worker joined.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use geotorch_converter::{BatchStream, LoaderError};
use geotorch_core::{
    checkpoint, StopReason, TrainConfig, TrainError, TrainReport, Trainer, UpdateMode,
};
use geotorch_datasets::{
    chronological_split, shuffled_split, BatchIndices, RasterDataset, StGridDataset,
};
use geotorch_models::grid::PeriodicalCnn;
use geotorch_models::raster::{DeepSatV2, SatCnn, UNet};
use geotorch_models::{GridModel, RasterClassifier, Segmenter};
use geotorch_nn::layers::Linear;
use geotorch_nn::loss::{bce_with_logits_loss, cross_entropy_loss, mse_loss};
use geotorch_nn::optim::{Adam, Optimizer};
use geotorch_nn::schedule::clip_grad_norm;
use geotorch_nn::{Layer, Module, Var};
use geotorch_tensor::{with_device, Device, Tensor};
use rand::SeedableRng;

fn config(epochs: usize, update_mode: UpdateMode) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        learning_rate: 3e-3,
        early_stopping_patience: None,
        update_mode,
        gradient_clip: None,
        seed: 0,
        device: Device::Cpu,
        replicas: 1,
    }
}

// ------------------------------------------------------- reference loop

/// What the reference loop reports.
struct Reference {
    train_losses: Vec<f32>,
    val_metrics: Vec<f32>,
    epochs_run: usize,
    stop_reason: StopReason,
}

fn clip_and_step(config: &TrainConfig, optimizer: &mut Adam) {
    if let Some(max_norm) = config.gradient_clip {
        clip_grad_norm(optimizer.parameters(), max_norm);
    }
    optimizer.step();
    optimizer.zero_grad();
}

/// The classic epoch loop: `forward_loss` maps one batch's indices to
/// the loss node, `validate` gives the per-epoch metric (lower better).
fn reference_fit<M: Module + ?Sized>(
    config: &TrainConfig,
    model: &M,
    train_idx: &[usize],
    forward_loss: &mut dyn FnMut(&[usize]) -> Var,
    validate: &mut dyn FnMut() -> f32,
) -> Reference {
    with_device(config.device, || {
        let mut optimizer = Adam::new(model.parameters(), config.learning_rate);
        let mut out = Reference {
            train_losses: Vec::new(),
            val_metrics: Vec::new(),
            epochs_run: 0,
            stop_reason: StopReason::MaxEpochs,
        };
        let mut best = f32::INFINITY;
        let mut best_state: Option<Vec<Tensor>> = None;
        let mut stale = 0usize;
        for epoch in 0..config.epochs {
            model.set_training(true);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            let shuffled = BatchIndices::shuffled(
                train_idx,
                config.batch_size,
                config.seed.wrapping_add(epoch as u64),
            );
            for batch_idx in shuffled {
                let loss = forward_loss(&batch_idx);
                epoch_loss += loss.value().item();
                batches += 1;
                loss.backward();
                drop(loss);
                if config.update_mode == UpdateMode::Incremental {
                    clip_and_step(config, &mut optimizer);
                }
            }
            if config.update_mode == UpdateMode::Cumulative && batches > 0 {
                for p in optimizer.parameters() {
                    if let Some(g) = p.grad() {
                        p.zero_grad();
                        p.seed_grad(g.mul_scalar(1.0 / batches as f32));
                    }
                }
                clip_and_step(config, &mut optimizer);
            }
            out.train_losses
                .push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
            out.epochs_run = epoch + 1;
            let val = validate();
            out.val_metrics.push(val);
            if val + 1e-6 < best {
                best = val;
                best_state = Some(model.state_dict());
                stale = 0;
            } else {
                stale += 1;
                if let Some(patience) = config.early_stopping_patience {
                    if stale >= patience {
                        out.stop_reason = StopReason::EarlyStopped {
                            epoch: epoch + 1,
                            patience,
                        };
                        break;
                    }
                }
            }
        }
        if let Some(state) = best_state {
            model.load_state_dict(&state).expect("same model");
        }
        out
    })
}

fn checkpoint_bytes(model: &dyn Module, name: &str) -> Vec<u8> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "geotorch_replica_parity_{}_{name}.json",
        std::process::id()
    ));
    checkpoint::save(model, &path).expect("save checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Exact f32 equality — not approximate: any reordering of float ops in
/// the driver shows up here. The final weights must agree down to the
/// serialized checkpoint bytes.
fn assert_matches(
    name: &str,
    reference: &Reference,
    reference_model: &dyn Module,
    report: &TrainReport,
    model: &dyn Module,
) {
    assert_eq!(reference.train_losses, report.train_losses, "{name}: losses");
    assert_eq!(reference.val_metrics, report.val_metrics, "{name}: val metrics");
    assert_eq!(reference.epochs_run, report.epochs_run, "{name}: epochs run");
    assert_eq!(reference.stop_reason, report.stop_reason, "{name}: stop reason");
    assert!(
        checkpoint_bytes(reference_model, &format!("{name}_reference"))
            == checkpoint_bytes(model, &format!("{name}_driver")),
        "{name}: checkpoints differ"
    );
    assert!(report.host_cores >= 1, "{name}: report is host-stamped");
}

// ------------------------------------------------------ model fixtures

fn satcnn() -> SatCnn {
    SatCnn::new(3, 16, 16, 3, &mut rand::rngs::StdRng::seed_from_u64(7))
}

fn satcnn_factory(_replica: usize) -> Box<dyn RasterClassifier> {
    Box::new(satcnn())
}

fn grid_dataset() -> StGridDataset {
    let mut ds = StGridDataset::bike_nyc_deepstn(10, 3);
    ds.set_periodical_representation(2, 1, 1);
    ds
}

fn periodical_cnn() -> PeriodicalCnn {
    PeriodicalCnn::new(2, (2, 1, 1), 8, &mut rand::rngs::StdRng::seed_from_u64(3))
}

fn reference_classifier(
    trainer: &Trainer,
    model: &dyn RasterClassifier,
    dataset: &RasterDataset,
    train: &[usize],
    val: &[usize],
) -> Reference {
    reference_fit(
        trainer.config(),
        model,
        train,
        &mut |idx| {
            let batch = dataset.batch(idx);
            let x = Var::constant(batch.x);
            let features = batch.features.map(Var::constant);
            cross_entropy_loss(&model.forward(&x, features.as_ref()), &batch.labels)
        },
        &mut || 1.0 - trainer.evaluate_classifier(model, dataset, val),
    )
}

fn reference_grid(
    trainer: &Trainer,
    model: &dyn GridModel,
    dataset: &StGridDataset,
    train: &[usize],
    val: &[usize],
) -> Reference {
    reference_fit(
        trainer.config(),
        model,
        train,
        &mut |idx| {
            let (input, target) = geotorch_core::trainer::grid_io(&dataset.batch(idx));
            mse_loss(&model.forward(&input), &target)
        },
        &mut || trainer.evaluate_grid(model, dataset, val).0,
    )
}

// ------------------------------------------------ K = 1 against reference

#[test]
fn fit_classifier_satcnn_matches_reference() {
    let dataset = RasterDataset::classification("parity", 3, 16, 16, 3, 24, 0);
    let (train, val, _) = shuffled_split(dataset.len(), 0);
    let trainer = Trainer::new(config(3, UpdateMode::Incremental));

    let reference_model = satcnn();
    let reference = reference_classifier(&trainer, &reference_model, &dataset, &train, &val);
    let model = satcnn();
    let report = trainer.fit_classifier(&model, &dataset, &train, &val);
    assert_matches("satcnn", &reference, &reference_model, &report, &model);
}

#[test]
fn fit_classifier_batchnorm_cumulative_clipped_matches_reference() {
    // DeepSatV2 carries batch-norm running statistics (parameters with
    // no gradient) and fuses handcrafted features.
    let dataset =
        RasterDataset::classification("parity_bn", 3, 16, 16, 3, 16, 1).with_additional_features();
    let (train, val, _) = shuffled_split(dataset.len(), 1);
    let features = dataset.feature_len();
    let deepsat = || DeepSatV2::new(3, 16, 16, 3, features, &mut rand::rngs::StdRng::seed_from_u64(5));
    let trainer = Trainer::new(TrainConfig {
        gradient_clip: Some(0.5),
        ..config(3, UpdateMode::Cumulative)
    });

    let reference_model = deepsat();
    let reference = reference_classifier(&trainer, &reference_model, &dataset, &train, &val);
    let model = deepsat();
    let report = trainer.fit_classifier(&model, &dataset, &train, &val);
    assert_matches("deepsatv2", &reference, &reference_model, &report, &model);
}

#[test]
fn fit_grid_with_early_stopping_matches_reference() {
    let ds = grid_dataset();
    let (train, val, _) = chronological_split(ds.len());
    let trainer = Trainer::new(TrainConfig {
        early_stopping_patience: Some(1),
        learning_rate: 3e-2,
        ..config(8, UpdateMode::Incremental)
    });

    let reference_model = periodical_cnn();
    let reference = reference_grid(&trainer, &reference_model, &ds, &train, &val);
    assert!(
        matches!(reference.stop_reason, StopReason::EarlyStopped { .. }),
        "the fixture must exercise early stopping, got {:?}",
        reference.stop_reason
    );
    let model = periodical_cnn();
    let report = trainer.fit_grid(&model, &ds, &train, &val);
    assert_matches("grid", &reference, &reference_model, &report, &model);
}

#[test]
fn fit_segmenter_unet_matches_reference() {
    let dataset = RasterDataset::cloud38(12, 16, 3);
    let (train, val, _) = chronological_split(dataset.len());
    let trainer = Trainer::new(TrainConfig {
        batch_size: 4,
        ..config(2, UpdateMode::Incremental)
    });
    let unet = || UNet::new(4, 1, 4, &mut rand::rngs::StdRng::seed_from_u64(5));

    let reference_model = unet();
    let reference = reference_fit(
        trainer.config(),
        &reference_model,
        &train,
        &mut |idx| {
            let batch = dataset.batch(idx);
            let x = Var::constant(batch.x);
            let masks = Var::constant(batch.masks.expect("segmentation dataset"));
            bce_with_logits_loss(&reference_model.forward(&x), &masks)
        },
        &mut || 1.0 - trainer.evaluate_segmenter(&reference_model, &dataset, &val),
    );
    let model = unet();
    let report = trainer.fit_segmenter(&model, &dataset, &train, &val);
    assert_matches("unet", &reference, &reference_model, &report, &model);
}

#[test]
fn k1_replicated_entry_points_match_reference() {
    let dataset = RasterDataset::classification("parity_rep", 3, 16, 16, 3, 16, 2);
    let (train, val, _) = shuffled_split(dataset.len(), 2);
    let trainer = Trainer::new(config(2, UpdateMode::Incremental));
    let reference_model = satcnn();
    let reference = reference_classifier(&trainer, &reference_model, &dataset, &train, &val);
    let model = satcnn();
    let report = trainer
        .fit_classifier_replicated(&model, &satcnn_factory, &dataset, &train, &val)
        .expect("replicated fit succeeds");
    assert_matches("satcnn_replicated", &reference, &reference_model, &report, &model);

    let ds = grid_dataset();
    let (train, val, _) = chronological_split(ds.len());
    let trainer = Trainer::new(TrainConfig {
        early_stopping_patience: Some(2),
        ..config(4, UpdateMode::Incremental)
    });
    let factory = |_replica: usize| -> Box<dyn GridModel> { Box::new(periodical_cnn()) };
    let reference_model = periodical_cnn();
    let reference = reference_grid(&trainer, &reference_model, &ds, &train, &val);
    let model = periodical_cnn();
    let report = trainer
        .fit_grid_replicated(&model, &factory, &ds, &train, &val)
        .expect("replicated fit succeeds");
    assert_matches("grid_replicated", &reference, &reference_model, &report, &model);
}

// --------------------------------------------------- K = 2 slot protocol

/// A canned stream: batch `i` has every feature equal to `i`.
struct MarkedStream {
    next: usize,
    batches: usize,
}

impl BatchStream for MarkedStream {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        if self.next == self.batches {
            return Ok(None);
        }
        let marker = self.next as f32;
        self.next += 1;
        Ok(Some((Tensor::full(&[4, 2], marker), Tensor::zeros(&[4, 1]))))
    }
}

/// A linear model that counts how many of its instances were dropped.
struct Counted {
    inner: Linear,
    drops: Arc<AtomicUsize>,
}

impl Counted {
    fn new(drops: &Arc<AtomicUsize>) -> Counted {
        Counted {
            inner: Linear::new(2, 1, &mut rand::rngs::StdRng::seed_from_u64(0)),
            drops: Arc::clone(drops),
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

impl Module for Counted {
    fn parameters(&self) -> Vec<Var> {
        self.inner.parameters()
    }
}

/// One epoch over `batches` marked batches with `replicas` slots;
/// `forward` sees the batch marker. Returns the result and how many
/// worker models were built and dropped.
fn fit_marked(
    replicas: usize,
    batches: usize,
    forward: &(dyn Fn(&Counted, &Var) -> Var + Sync),
) -> (Result<TrainReport, TrainError>, usize, usize) {
    let trainer = Trainer::new(TrainConfig {
        replicas,
        ..config(1, UpdateMode::Incremental)
    });
    let built = Arc::new(AtomicUsize::new(0));
    let worker_drops = Arc::new(AtomicUsize::new(0));
    let model = Counted::new(&Arc::new(AtomicUsize::new(0)));
    let factory = |_replica: usize| {
        built.fetch_add(1, Ordering::SeqCst);
        Box::new(Counted::new(&worker_drops))
    };
    let result = trainer.fit_stream(
        &model,
        &factory,
        forward,
        &mut |_epoch| Ok(Box::new(MarkedStream { next: 0, batches })),
        &mut || 0.0,
        None,
    );
    (
        result,
        built.load(Ordering::SeqCst),
        worker_drops.load(Ordering::SeqCst),
    )
}

fn marker(x: &Var) -> f32 {
    x.value().as_slice()[0]
}

#[test]
fn slot_zero_runs_on_the_calling_thread() {
    let caller = std::thread::current().id();
    let seen: Mutex<Vec<(f32, ThreadId)>> = Mutex::new(Vec::new());
    let forward = |m: &Counted, x: &Var| {
        seen.lock().unwrap().push((marker(x), std::thread::current().id()));
        m.inner.forward(x)
    };

    // K = 1: both steps on the caller's thread, no worker built.
    let (result, built, _) = fit_marked(1, 2, &forward);
    result.expect("K=1 fit succeeds");
    assert_eq!(built, 0, "K=1 builds no replica model");
    let k1 = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(k1, vec![(0.0, caller), (1.0, caller)]);

    // K = 2: one step; batch 0 on the caller, batch 1 on the worker.
    let (result, built, dropped) = fit_marked(2, 2, &forward);
    result.expect("K=2 fit succeeds");
    assert_eq!((built, dropped), (1, 1), "one worker model, dropped at join");
    let k2 = seen.lock().unwrap().clone();
    assert_eq!(k2.len(), 2);
    for (m, thread) in k2 {
        assert_eq!(thread == caller, m == 0.0, "batch {m} ran on the wrong slot");
    }
}

#[test]
fn k2_slot_panics_surface_as_that_slots_replica_error() {
    for slot in [0usize, 1] {
        let poisoned = slot as f32;
        let forward = move |m: &Counted, x: &Var| {
            if marker(x) == poisoned {
                panic!("poisoned shard {poisoned}");
            }
            m.inner.forward(x)
        };
        let (result, built, dropped) = fit_marked(2, 2, &forward);
        match result {
            Err(TrainError::Replica { replica, message }) => {
                assert_eq!(replica, slot, "wrong slot blamed: {message}");
                assert!(message.contains("poisoned shard"), "message lost: {message}");
            }
            Err(other) => panic!("slot {slot}: unexpected error {other}"),
            Ok(_) => panic!("slot {slot}: a panicking shard must fail the fit"),
        }
        // The fit returned, so the scope joined the worker: its model
        // was built once and dropped once.
        assert_eq!((built, dropped), (1, 1), "slot {slot}: worker not joined");
    }
}

#[test]
#[should_panic(expected = "replica 0: replica step panicked: bad classic batch")]
fn classic_entry_points_panic_with_the_error_message() {
    struct Broken;
    impl Module for Broken {
        fn parameters(&self) -> Vec<Var> {
            vec![Var::parameter(Tensor::zeros(&[1]))]
        }
    }
    impl Segmenter for Broken {
        fn forward(&self, _images: &Var) -> Var {
            panic!("bad classic batch")
        }
        fn name(&self) -> &'static str {
            "broken"
        }
    }
    let dataset = RasterDataset::cloud38(4, 16, 3);
    Trainer::new(config(1, UpdateMode::Incremental)).fit_segmenter(&Broken, &dataset, &[0, 1], &[2]);
}
