//! The epoch driver behind every `Trainer::fit_*` entry point: epochs,
//! the update cadence, validation, early stopping and best-state
//! restore, with each optimizer step optionally split across K
//! data-parallel model replicas — the trainer layer of the
//! `DataSource → Loader → Trainer` seam (DESIGN.md §14).
//!
//! # Architecture
//!
//! The caller's thread owns the canonical model, the optimizer, early
//! stopping, and validation. Each step is dealt as up to K shards. Slot 0
//! runs on the caller's thread against the canonical model; slots
//! 1..K−1 run on scoped worker threads, each with a private model built
//! once by a `Sync` factory (the autograd tape is `Rc`-based and cannot
//! cross threads — the same pattern as the serving batcher's model-owner
//! threads). One training step is:
//!
//! 1. the driver sends each worker that has a shard the canonical state
//!    dict (O(1) `Arc` clones per tensor) and its shard of `n_r` samples
//!    with weight `w_r = n_r / N`;
//! 2. every slot forwards its shard and runs `backward` seeded with
//!    `w_r`, so its gradients are pre-scaled. Slot 0's accumulate in place
//!    on the canonical parameters; the workers ship theirs back;
//! 3. the driver adds the worker gradients onto the canonical parameters
//!    **in slot order** and takes one pooled in-place Adam step.
//!
//! # K = 1
//!
//! With one replica no thread is spawned and no state moves: slot 0's
//! weight is `n/n = 1.0` exactly, so its seeded backward is
//! `loss.backward()` on the canonical model. `fit_grid`,
//! `fit_classifier` and `fit_segmenter` are K = 1 calls into this driver
//! (`tests/replica_parity.rs` checks them against a reference loop down
//! to checkpoint bytes).
//!
//! # Shard-assignment determinism
//!
//! Shards are contiguous slices of the shuffled batch (index path) or
//! consecutive stream batches (stream path), dealt to replicas in slot
//! order. No work stealing: the assignment is a pure function of
//! `(seed, epoch, step, K)`, so reruns are reproducible.
//!
//! Non-trainable parameters (batch-norm running statistics) produce no
//! gradients; slot 0's forward updates them in place on the canonical
//! model, and the workers receive them with the next broadcast.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

use geotorch_converter::{BatchStream, LoaderError};
use geotorch_datasets::{BatchIndices, RasterDataset, StGridDataset};
use geotorch_models::{GridModel, RasterClassifier};
use geotorch_nn::loss::mse_loss;
use geotorch_nn::optim::{Adam, Optimizer};
use geotorch_nn::{Module, Var};
use geotorch_telemetry::panic_message;
use geotorch_tensor::{with_device, Device, Tensor};

use crate::trainer::{classifier_loss, grid_loss, TrainConfig, TrainReport, Trainer, UpdateMode};
use crate::StopReason;

/// Why a data-parallel fit failed.
#[derive(Debug)]
pub enum TrainError {
    /// The batch source failed (spill read, prefetch fault, …).
    Loader(LoaderError),
    /// A replica slot failed (panic in the loss, bad state dict, …).
    Replica {
        /// Which replica slot failed (0 is the caller's thread).
        replica: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Loader(e) => write!(f, "loader: {e}"),
            TrainError::Replica { replica, message } => {
                write!(f, "replica {replica}: {message}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<LoaderError> for TrainError {
    fn from(e: LoaderError) -> TrainError {
        TrainError::Loader(e)
    }
}

/// A builder of private replica models, called once per worker thread.
type Factory<'f, M> = &'f (dyn Fn(usize) -> Box<M> + Sync);

/// Per-step work source: deals each step's payloads (one per replica,
/// with sample counts) until the epoch is exhausted.
pub(crate) trait StepSource<P> {
    /// Reset for epoch `epoch` (rebuild streams, reshuffle indices).
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError>;

    /// The next step's shards as `(payload, sample_count)` — at most
    /// `replicas`, dealt in slot order — or `None` at epoch end.
    fn next_step(&mut self, replicas: usize) -> Result<Option<Vec<(P, usize)>>, TrainError>;
}

/// Shards each shuffled batch of sample indices contiguously across
/// replicas and turns every shard into a payload with `materialize` on
/// the caller's thread, so workers never touch the (non-`Sync`) dataset.
pub(crate) struct IndexStepSource<'a, P> {
    train_idx: &'a [usize],
    batch_size: usize,
    seed: u64,
    materialize: &'a dyn Fn(&[usize]) -> P,
    iter: Option<BatchIndices>,
}

impl<P> StepSource<P> for IndexStepSource<'_, P> {
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError> {
        self.iter = Some(BatchIndices::shuffled(
            self.train_idx,
            self.batch_size,
            self.seed.wrapping_add(epoch as u64),
        ));
        Ok(())
    }

    fn next_step(&mut self, replicas: usize) -> Result<Option<Vec<(P, usize)>>, TrainError> {
        let Some(batch) = self.iter.as_mut().and_then(Iterator::next) else {
            self.iter = None;
            return Ok(None);
        };
        // Contiguous balanced split: the first `rem` shards get one
        // extra sample. Deterministic in (batch, K); empty shards are
        // never dealt (a ragged batch smaller than K uses fewer
        // replicas).
        let k = replicas.min(batch.len()).max(1);
        let base = batch.len() / k;
        let rem = batch.len() % k;
        let mut shards = Vec::with_capacity(k);
        let mut start = 0;
        for r in 0..k {
            let len = base + usize::from(r < rem);
            shards.push(((self.materialize)(&batch[start..start + len]), len));
            start += len;
        }
        Ok(Some(shards))
    }
}

/// Deals consecutive [`BatchStream`] batches to replica slots: step =
/// up to K stream batches, one per replica.
pub(crate) struct StreamStepSource<'a> {
    make: &'a mut dyn FnMut(usize) -> Result<Box<dyn BatchStream>, LoaderError>,
    stream: Option<Box<dyn BatchStream>>,
}

impl StepSource<(Tensor, Tensor)> for StreamStepSource<'_> {
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError> {
        self.stream = Some((self.make)(epoch)?);
        Ok(())
    }

    fn next_step(
        &mut self,
        replicas: usize,
    ) -> Result<Option<Vec<((Tensor, Tensor), usize)>>, TrainError> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(None);
        };
        let mut shards = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            match stream.next_batch() {
                Ok(Some(batch)) => {
                    let n = batch.0.shape()[0];
                    shards.push((batch, n));
                }
                Ok(None) => {
                    self.stream = None;
                    break;
                }
                Err(e) => {
                    // Sticky failure: drop the stream so the epoch ends
                    // here either way.
                    self.stream = None;
                    return Err(e.into());
                }
            }
        }
        if shards.is_empty() {
            Ok(None)
        } else {
            Ok(Some(shards))
        }
    }
}

/// One shard of work for a worker.
struct Job<P> {
    state: Vec<Tensor>,
    payload: P,
    weight: f32,
}

/// What a worker returns per job.
struct StepOut {
    loss: f32,
    grads: Vec<Option<Tensor>>,
}

struct RepResult {
    replica: usize,
    outcome: Result<StepOut, String>,
}

/// The epoch driver. `factory` is `None` for the single-replica entry
/// points; with a factory the step is split over `config.replicas`
/// slots. See the module docs for the step protocol.
pub(crate) fn fit_epochs<M, P>(
    config: &TrainConfig,
    model: &M,
    factory: Option<Factory<'_, M>>,
    loss_fn: &(dyn Fn(&M, &P) -> Var + Sync),
    source: &mut dyn StepSource<P>,
    validate: &mut dyn FnMut() -> f32,
    mut on_improve: Option<&mut dyn FnMut(usize, f32)>,
) -> Result<TrainReport, TrainError>
where
    M: Module + ?Sized,
    P: Send,
{
    let k = factory.map_or(1, |_| config.replicas.max(1));
    let mut optimizer = Adam::new(model.parameters(), config.learning_rate);
    let params = model.parameters();
    let mut report = empty_report();
    let mut best = f32::INFINITY;
    let mut best_state: Option<Vec<Tensor>> = None;
    let mut stale = 0usize;
    let run: Result<(), TrainError> = std::thread::scope(|scope| {
        let (res_tx, res_rx) = mpsc::channel::<RepResult>();
        let mut job_txs = Vec::with_capacity(k - 1);
        if let Some(factory) = factory {
            for r in 1..k {
                let (tx, rx) = mpsc::channel::<Job<P>>();
                job_txs.push(tx);
                let res_tx = res_tx.clone();
                let device = config.device;
                scope.spawn(move || replica_worker(r, device, factory, loss_fn, rx, res_tx));
            }
        }
        drop(res_tx);
        for epoch in 0..config.epochs {
            model.set_training(true);
            let start = Instant::now();
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            let mut samples = 0usize;
            {
                let _epoch_t = geotorch_telemetry::scope!("core.trainer.epoch");
                source.begin_epoch(epoch)?;
                while let Some(shards) = source.next_step(k)? {
                    let n_total: usize = shards.iter().map(|(_, n)| *n).sum();
                    if n_total == 0 {
                        continue;
                    }
                    let weights: Vec<f32> = shards
                        .iter()
                        .map(|(_, n)| *n as f32 / n_total as f32)
                        .collect();
                    let mut shards = shards.into_iter();
                    let (local, _) = shards.next().expect("a step deals at least one shard");
                    // Workers get their shards first so they overlap with
                    // slot 0 on this thread.
                    if weights.len() > 1 {
                        let state = model.state_dict();
                        for (slot, ((payload, _), &weight)) in
                            (1..).zip(shards.zip(&weights[1..]))
                        {
                            job_txs[slot - 1]
                                .send(Job {
                                    state: state.clone(),
                                    payload,
                                    weight,
                                })
                                .map_err(|_| TrainError::Replica {
                                    replica: slot,
                                    message: "replica worker exited before dispatch".into(),
                                })?;
                        }
                    }
                    let local_loss = catch_unwind(AssertUnwindSafe(|| {
                        shard_step(model, loss_fn, local, weights[0])
                    }))
                    .map_err(|panic| TrainError::Replica {
                        replica: 0,
                        message: format!("replica step panicked: {}", panic_message(panic)),
                    })?;
                    let mut outs: Vec<Option<StepOut>> = (1..weights.len()).map(|_| None).collect();
                    for _ in 1..weights.len() {
                        let res = res_rx.recv().map_err(|_| TrainError::Replica {
                            replica: 1,
                            message: "all replica workers exited mid-step".into(),
                        })?;
                        let out = res.outcome.map_err(|message| TrainError::Replica {
                            replica: res.replica,
                            message,
                        })?;
                        outs[res.replica - 1] = Some(out);
                    }
                    // Weighted step loss: Σ (n_r/N)·loss_r is the
                    // N-sample mean for mean-style losses; with K = 1
                    // the weight is exactly 1.0. Slot 0's gradients are
                    // already on the canonical parameters; the workers'
                    // follow in slot order.
                    epoch_loss += weights[0] * local_loss;
                    for (out, weight) in outs.into_iter().zip(&weights[1..]) {
                        let out = out.expect("every dealt slot answered");
                        epoch_loss += weight * out.loss;
                        for (p, g) in params.iter().zip(out.grads) {
                            if let Some(g) = g {
                                p.seed_grad(g);
                            }
                        }
                    }
                    batches += 1;
                    samples += n_total;
                    if config.update_mode == UpdateMode::Incremental {
                        clip_and_step(config, &mut optimizer);
                    }
                }
                if config.update_mode == UpdateMode::Cumulative && batches > 0 {
                    // The epoch accumulated a gradient *sum*; average it so
                    // the single step matches the magnitude of an
                    // Incremental step instead of growing with the number
                    // of batches.
                    scale_grads(optimizer.parameters(), 1.0 / batches as f32);
                    clip_and_step(config, &mut optimizer);
                }
            }
            let secs = start.elapsed().as_secs_f64();
            report.epoch_seconds.push(secs);
            report
                .samples_per_sec
                .push(if secs > 0.0 { samples as f64 / secs } else { 0.0 });
            report
                .train_losses
                .push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
            report.epochs_run = epoch + 1;
            geotorch_telemetry::count!("core.trainer.epochs", 1);
            geotorch_telemetry::count!("core.trainer.samples", samples);

            let val = validate();
            report.val_metrics.push(val);
            if val + 1e-6 < best {
                best = val;
                best_state = Some(model.state_dict());
                stale = 0;
                // The canonical model holds the post-average, post-step
                // weights here — the hook point for atomic checkpoints.
                if let Some(hook) = on_improve.as_deref_mut() {
                    hook(epoch + 1, val);
                }
            } else {
                stale += 1;
                if let Some(patience) = config.early_stopping_patience {
                    if stale >= patience {
                        report.stop_reason = StopReason::EarlyStopped {
                            epoch: epoch + 1,
                            patience,
                        };
                        break;
                    }
                }
            }
        }
        Ok(())
        // Scope exit drops every job sender; replica workers drain and
        // join here — on the error path too, so a failed epoch never
        // leaks threads or deadlocks.
    });
    run?;
    // Restore the best-on-validation weights (the paper's protocol
    // evaluates the converged model, not the last epoch).
    if let Some(state) = best_state {
        model
            .load_state_dict(&state)
            .expect("state dict snapshot of the same model always matches");
    }
    report.host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.pool_high_water_bytes = geotorch_tensor::pool::stats().high_water_bytes;
    Ok(report)
}

/// Forward one shard and run its backward seeded with `weight`, so the
/// gradients accumulate on `model`'s parameters pre-scaled by `n_r/N`
/// (`weight = 1.0` is exactly `loss.backward()`). Returns the unweighted
/// loss. The tape and the payload are dropped on return, before any
/// optimizer step: graph nodes hold clones of the parameter values, and
/// while those live the in-place update must copy-on-write every buffer.
fn shard_step<M: Module + ?Sized, P>(
    model: &M,
    loss_fn: &(dyn Fn(&M, &P) -> Var + Sync),
    payload: P,
    weight: f32,
) -> f32 {
    let loss = loss_fn(model, &payload);
    let value = loss.value();
    loss.backward_with(Tensor::from_vec(vec![weight; value.len()], value.shape()));
    value.item()
}

/// Clip (if configured), step, and clear gradients.
fn clip_and_step(config: &TrainConfig, optimizer: &mut Adam) {
    if let Some(max_norm) = config.gradient_clip {
        geotorch_nn::schedule::clip_grad_norm(optimizer.parameters(), max_norm);
    }
    optimizer.step();
    optimizer.zero_grad();
}

/// Replace each parameter's accumulated gradient with `grad * scale`.
fn scale_grads(params: &[Var], scale: f32) {
    for p in params {
        if let Some(g) = p.grad() {
            let scaled = g.mul_scalar(scale);
            p.zero_grad();
            p.seed_grad(scaled);
        }
    }
}

/// An all-zero [`TrainReport`] for an about-to-run fit.
fn empty_report() -> TrainReport {
    TrainReport {
        train_losses: Vec::new(),
        val_metrics: Vec::new(),
        epochs_run: 0,
        epoch_seconds: Vec::new(),
        samples_per_sec: Vec::new(),
        stop_reason: StopReason::MaxEpochs,
        host_cores: 0,
        pool_high_water_bytes: 0,
    }
}

/// A replica worker: build the private model once, then serve jobs until
/// the driver hangs up. Exactly one result is sent per job — panics in
/// the factory or the loss surface as `Err` results, never a hang.
fn replica_worker<M, P>(
    replica: usize,
    device: Device,
    factory: Factory<'_, M>,
    loss_fn: &(dyn Fn(&M, &P) -> Var + Sync),
    jobs: mpsc::Receiver<Job<P>>,
    results: mpsc::Sender<RepResult>,
) where
    M: Module + ?Sized,
    P: Send,
{
    let model = catch_unwind(AssertUnwindSafe(|| factory(replica)))
        .map_err(|panic| format!("replica factory panicked: {}", panic_message(panic)));
    for job in jobs.iter() {
        let outcome = match &model {
            Err(message) => Err(message.clone()),
            Ok(model) => catch_unwind(AssertUnwindSafe(|| run_job(&**model, loss_fn, device, job)))
                .unwrap_or_else(|panic| {
                    Err(format!("replica step panicked: {}", panic_message(panic)))
                }),
        };
        if results.send(RepResult { replica, outcome }).is_err() {
            break;
        }
    }
}

fn run_job<M: Module + ?Sized, P>(
    model: &M,
    loss_fn: &(dyn Fn(&M, &P) -> Var + Sync),
    device: Device,
    job: Job<P>,
) -> Result<StepOut, String> {
    with_device(device, || {
        model
            .load_state_dict(&job.state)
            .map_err(|e| format!("broadcast state rejected: {e}"))?;
        model.set_training(true);
        let loss = shard_step(model, loss_fn, job.payload, job.weight);
        let grads = model
            .parameters()
            .iter()
            .map(|p| {
                let g = p.grad();
                p.zero_grad();
                g
            })
            .collect();
        Ok(StepOut { loss, grads })
    })
}

// ------------------------------------------------- Trainer entry points

impl Trainer {
    /// Fit over shuffled batches of `train_idx`, each materialised by
    /// `materialize` — the body of every index-driven `fit_*` entry
    /// point. Without a `factory` the fit runs on one replica.
    pub(crate) fn fit_indexed<M, P>(
        &self,
        model: &M,
        factory: Option<Factory<'_, M>>,
        loss_fn: &(dyn Fn(&M, &P) -> Var + Sync),
        materialize: &dyn Fn(&[usize]) -> P,
        train_idx: &[usize],
        validate: &mut dyn FnMut() -> f32,
    ) -> Result<TrainReport, TrainError>
    where
        M: Module + ?Sized,
        P: Send,
    {
        let mut source = IndexStepSource {
            train_idx,
            batch_size: self.config().batch_size,
            seed: self.config().seed,
            materialize,
            iter: None,
        };
        with_device(self.config().device, || {
            fit_epochs(
                self.config(),
                model,
                factory,
                loss_fn,
                &mut source,
                validate,
                None,
            )
        })
    }

    /// Data-parallel [`Trainer::fit_classifier`]: `config.replicas`
    /// replica slots — slot 0 on the calling thread with `model`, the
    /// others on worker threads with models built by `factory` — each
    /// batch sharded contiguously across them, gradients averaged per
    /// step. `model` stays canonical — validation, early stopping, and
    /// the returned weights all live on it. With `replicas = 1` the
    /// result is bit-identical to [`Trainer::fit_classifier`].
    ///
    /// # Errors
    /// If a replica slot fails (panic in the model's forward, state
    /// broadcast rejected).
    pub fn fit_classifier_replicated(
        &self,
        model: &(dyn RasterClassifier + 'static),
        factory: &(dyn Fn(usize) -> Box<dyn RasterClassifier> + Sync),
        dataset: &RasterDataset,
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> Result<TrainReport, TrainError> {
        self.fit_indexed(
            model,
            Some(factory),
            &classifier_loss,
            &|idx| dataset.batch(idx),
            train_idx,
            &mut || 1.0 - self.evaluate_classifier(model, dataset, val_idx),
        )
    }

    /// Data-parallel [`Trainer::fit_grid`] — see
    /// [`Trainer::fit_classifier_replicated`] for the protocol.
    ///
    /// # Errors
    /// If a replica slot fails.
    pub fn fit_grid_replicated(
        &self,
        model: &(dyn GridModel + 'static),
        factory: &(dyn Fn(usize) -> Box<dyn GridModel> + Sync),
        dataset: &StGridDataset,
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> Result<TrainReport, TrainError> {
        self.fit_indexed(
            model,
            Some(factory),
            &grid_loss,
            &|idx| dataset.batch(idx),
            train_idx,
            &mut || self.evaluate_grid(model, dataset, val_idx).0,
        )
    }

    /// Train on a [`BatchStream`] with MSE loss and K data-parallel
    /// replicas: each step deals up to K consecutive stream batches, one
    /// per replica slot (slot 0 runs on the calling thread with `model`).
    /// `make_stream` rebuilds the stream per epoch (wrap it in a
    /// `PrefetchLoader` to overlap formatting with training); `forward`
    /// maps a feature batch through the model; `on_improve` fires while
    /// the canonical model holds the post-average weights of the best
    /// epoch so far — the place to take atomic checkpoints.
    ///
    /// # Errors
    /// If the stream fails mid-epoch (spill read, injected prefetch
    /// fault) or a replica slot fails. The epoch is abandoned cleanly:
    /// workers are joined and no partial optimizer step is taken.
    pub fn fit_stream<M: Module + ?Sized>(
        &self,
        model: &M,
        factory: &(dyn Fn(usize) -> Box<M> + Sync),
        forward: &(dyn Fn(&M, &Var) -> Var + Sync),
        make_stream: &mut dyn FnMut(usize) -> Result<Box<dyn BatchStream>, LoaderError>,
        validate: &mut dyn FnMut() -> f32,
        on_improve: Option<&mut dyn FnMut(usize, f32)>,
    ) -> Result<TrainReport, TrainError> {
        let loss = |m: &M, batch: &(Tensor, Tensor)| {
            let pred = forward(m, &Var::constant(batch.0.clone()));
            mse_loss(&pred, &Var::constant(batch.1.clone()))
        };
        let mut source = StreamStepSource {
            make: make_stream,
            stream: None,
        };
        with_device(self.config().device, || {
            fit_epochs(
                self.config(),
                model,
                Some(factory),
                &loss,
                &mut source,
                validate,
                on_improve,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_grads_averages_accumulated_sum() {
        let p = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        p.seed_grad(Tensor::from_vec(vec![4.0, -8.0], &[2]));
        scale_grads(std::slice::from_ref(&p), 0.25);
        let g = p.grad().expect("gradient survives scaling");
        assert_eq!(g.as_slice(), &[1.0, -2.0]);
        // Parameters without a gradient are left untouched.
        let q = Var::parameter(Tensor::zeros(&[2]));
        scale_grads(std::slice::from_ref(&q), 0.5);
        assert!(q.grad().is_none());
    }
}
