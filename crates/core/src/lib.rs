//! # geotorch-core
//!
//! Training infrastructure for GeoTorch-RS: the evaluation-protocol glue
//! the paper's §V experiments run on — metrics (MAE, RMSE, accuracy),
//! a [`trainer::Trainer`] with MSE/cross-entropy losses, Adam, early
//! stopping on the validation metric, incremental or cumulative weight
//! updates (§III-A2), and JSON checkpointing of model parameters.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod delta;
pub mod metrics;
pub mod replica;
pub mod trainer;

pub use delta::{DeltaStore, IntegrateReport, Manifest, PublishReport, TensorVersion};
pub use replica::TrainError;
pub use trainer::{StopReason, TrainConfig, TrainReport, Trainer, UpdateMode};
