//! # GeoTorchAI (Rust)
//!
//! GeoTorch-RS: deep learning and scalable data processing for raster
//! imagery and grid-based spatiotemporal datasets — a from-scratch Rust
//! reproduction of **GeoTorchAI** (Chowdhury & Sarwat, ICDE 2024).
//!
//! The module layout mirrors the paper's `geotorchai` Python package:
//!
//! * [`datasets`] — benchmark datasets (grid + raster) with the basic /
//!   sequential / periodical representations of Listings 2–4.
//! * [`models`] — grid models (Periodical CNN, ConvLSTM, ST-ResNet,
//!   DeepSTN+) and raster models (SatCNN, DeepSAT, DeepSAT V2, FCN,
//!   UNet, UNet++).
//! * [`transforms`] — raster transformation operations (Listing 7).
//! * [`preprocessing`] — scalable spatiotemporal + raster preprocessing
//!   on the partitioned DataFrame engine (Listings 8–9).
//! * [`converter`] — the DFtoTorch converter (Figure 7).
//! * [`nn`], [`tensor`] — the deep-learning substrate (autograd, layers,
//!   optimizers; dense tensors and kernels).
//! * [`train`] — training loops, metrics, early stopping, checkpoints.
//! * [`serve`] — batched inference serving: model registry, dynamic
//!   micro-batching scheduler, HTTP front-end with a metrics endpoint.
//! * [`dataframe`] — the Spark/Sedona-substrate columnar engine.
//!
//! ## Quickstart
//!
//! ```
//! use geotorchai::prelude::*;
//! use rand::SeedableRng;
//!
//! // EuroSAT-style classification in a few lines.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let dataset = RasterDataset::classification("demo", 3, 8, 8, 2, 8, 0);
//! let model = SatCnn::new(3, 8, 8, 2, &mut rng);
//! let (train, val, test) = shuffled_split(dataset.len(), 0);
//! let trainer = Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::default() });
//! trainer.fit_classifier(&model, &dataset, &train, &val);
//! let accuracy = trainer.evaluate_classifier(&model, &dataset, &test);
//! assert!(accuracy.is_finite());
//! ```

pub use geotorch_dataframe as dataframe;
pub use geotorch_nn as nn;
pub use geotorch_tensor as tensor;

/// Benchmark datasets and loaders (`geotorchai.datasets`).
pub mod datasets {
    pub use geotorch_datasets::loader::{chronological_split, shuffled_split, BatchIndices};
    pub use geotorch_datasets::synth;

    /// Grid-based spatiotemporal datasets (`geotorchai.datasets.grid`).
    pub mod grid {
        pub use geotorch_datasets::grid::{
            GridDatasetBuilder, Representation, StBatch, StGridDataset, StSample,
        };
    }

    /// Raster imagery datasets (`geotorchai.datasets.raster`).
    pub mod raster {
        pub use geotorch_datasets::raster::{extract_features, RasterBatchData, RasterDataset};
    }

    /// Windowed geo-samplers for scene-scale tiling (TorchGeo-style).
    pub mod samplers {
        pub use geotorch_datasets::samplers::{GridSampler, RandomSampler, Tile};
    }
}

/// Neural-network models (`geotorchai.models`).
pub mod models {
    pub use geotorch_models::{
        GridInput, GridModel, RasterClassifier, RepresentationKind, Segmenter,
    };

    /// Grid-based spatiotemporal models (`geotorchai.models.grid`).
    pub mod grid {
        pub use geotorch_models::grid::{ConvLstm, DeepStnPlus, PeriodicalCnn, StResNet};
    }

    /// Raster models (`geotorchai.models.raster`).
    pub mod raster {
        pub use geotorch_models::raster::{DeepSat, DeepSatV2, Fcn, SatCnn, UNet, UNetPlusPlus};
    }
}

/// Transformation operations (`geotorchai.transforms`).
pub mod transforms {
    /// Raster transforms (`geotorchai.transforms.raster`).
    pub mod raster {
        pub use geotorch_raster::transforms::{
            AppendNormalizedDifferenceIndex, AppendRatioIndex, ChannelJitter, Compose,
            DeleteBand, HorizontalFlip, InsertConstantBand, MaskOnThreshold, Normalize,
            NormalizeAll, NormalizeBand, RasterTransform, Rotate90, VerticalFlip,
        };
    }
}

/// Scalable preprocessing (`geotorchai.preprocessing`).
pub mod preprocessing {
    pub use geotorch_preprocess::{PreprocessError, PreprocessResult};

    /// Spatiotemporal grid preprocessing
    /// (`geotorchai.preprocessing.grid`).
    pub mod grid {
        pub use geotorch_preprocess::st_manager::{
            trips_dataframe, StGridConfig, StGridFrame, StManager,
        };
        pub use geotorch_preprocess::SpacePartition;
    }

    /// Grid re-partitioning (coarsening) helpers.
    pub mod repartition {
        pub use geotorch_preprocess::repartition::{coarsen_space, coarsen_time};
    }

    /// Raster preprocessing (`geotorchai.preprocessing.raster`).
    pub mod raster {
        pub use geotorch_preprocess::raster_processing::{RasterBatch, RasterProcessing};
    }

    /// The naive single-threaded baseline used by the Figure-8
    /// reproduction.
    pub mod baseline {
        pub use geotorch_preprocess::geopandas_like::get_st_grid_dataframe_naive;
    }
}

/// The DFtoTorch converter (§III-C): eager formatting plus the
/// pull-based streaming loader (`BatchStream` → `PrefetchLoader`).
pub mod converter {
    pub use geotorch_converter::{
        collect_then_batch, BatchStream, DfFormatter, FormattedFrame, FormattedPartition,
        FrameBatchStream, LoaderError, PrefetchLoader, RowTransformer, SpillBatchStream,
        TransformSpec,
    };
}

/// Raster data model and GTRF container I/O.
pub mod raster {
    pub use geotorch_raster::algebra;
    pub use geotorch_raster::glcm::{Glcm, GlcmDirection};
    pub use geotorch_raster::gtiff;
    pub use geotorch_raster::{
        core_of, BlendMode, GeoTransform, MosaicAccumulator, Raster, RasterError, RasterResult,
        Window,
    };
}

/// Training utilities, including the K-replica data-parallel trainer
/// (`Trainer::fit_*_replicated`, `Trainer::fit_stream`).
pub mod train {
    pub use geotorch_core::checkpoint;
    pub use geotorch_nn::schedule::{clip_grad_norm, CosineLr, LrSchedule, StepLr};
    pub use geotorch_core::metrics;
    pub use geotorch_core::trainer::grid_io;
    pub use geotorch_core::{
        StopReason, TrainConfig, TrainError, TrainReport, Trainer, UpdateMode,
    };
}

/// Batched inference serving: registry, micro-batching scheduler, and
/// the HTTP front-end (`/predict/<model>`, `/healthz`, `/metrics`).
pub mod serve {
    pub use geotorch_serve::{
        run_mosaic, BatchConfig, ClassifierServe, GridServe, ModelClient, ModelWorker,
        MosaicStats, Registry, SegmenterServe, ServeConfig, ServeError, ServeModel, Server,
        TileConfig,
    };
}

/// Lightweight runtime counters and timers (off by default; flip on with
/// [`telemetry::set_enabled`] or run `repro --profile`).
pub mod telemetry {
    pub use geotorch_telemetry::{
        enabled, reset, set_enabled, snapshot, snapshot_json, snapshot_markdown,
    };
}

/// Everything a typical application needs.
pub mod prelude {
    pub use crate::datasets::grid::{StBatch, StGridDataset, StSample};
    pub use crate::datasets::raster::RasterDataset;
    pub use crate::datasets::{chronological_split, shuffled_split};
    pub use crate::models::grid::{ConvLstm, DeepStnPlus, PeriodicalCnn, StResNet};
    pub use crate::models::raster::{DeepSat, DeepSatV2, Fcn, SatCnn, UNet, UNetPlusPlus};
    pub use crate::models::{GridInput, GridModel, RasterClassifier, Segmenter};
    pub use crate::train::{TrainConfig, Trainer, UpdateMode};
    pub use geotorch_nn::{Layer, Module, Var};
    pub use geotorch_tensor::{Device, Tensor};
}
