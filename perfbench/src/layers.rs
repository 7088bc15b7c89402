//! The per-layer metric set. Every traced run reports every metric; a
//! layer the workload bypasses reads 0, which is the prediction for it
//! (e.g. codec time on `train_satcnn`).
//!
//! Times are milliseconds per item of the workload: a training sample
//! (`train_satcnn`, `ingest_trips` stream), a grid row (`ingest_trips`
//! grid), or a request or tile (`serve_scene`).

use crate::report::Metric;
use crate::trace::Delta;

/// `train_satcnn` stages, ms per sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainStages {
    pub forward_ms: f64,
    pub batch_ms: f64,
    pub step_ms: f64,
}

/// `ingest_trips` stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStages {
    /// ms per grid row.
    pub repartition_ms: f64,
    pub st_grid_ms: f64,
    /// ms per spilled row, and spilled MB.
    pub spill_ms: f64,
    pub spill_mb: f64,
    /// ms per streamed sample.
    pub format_ms: f64,
    pub batch_wait_ms: f64,
    pub prefetch_ready_ratio: f64,
    pub replica_forward_ms: f64,
    pub replica_step_ms: f64,
    pub replica_slowest_forward_ms: f64,
}

/// `serve_scene` stages.
#[derive(Debug, Clone, Default)]
pub struct ServeStages {
    /// ms per tile / per classify request, timed on the exact bodies.
    pub tile_decode_ms: f64,
    pub tile_encode_ms: f64,
    pub classify_decode_ms: f64,
    /// Mean bytes on the wire per HTTP request and response, in KB.
    pub request_kb: f64,
    pub response_kb: f64,
    /// Server-side queue wait (ms per request) and mean batch size.
    pub queue_wait_ms: f64,
    pub batch_size_mean: f64,
    /// Forward time per model, ms per batch row.
    pub forward_ms_satcnn: f64,
    pub forward_ms_unet: f64,
    pub shed: f64,
    pub expired: f64,
    pub residual_ms_classify: f64,
    pub residual_ms_tile: f64,
    pub wakeups_per_request: f64,
    pub mosaic_tile_ms: f64,
    pub stitch_ms: f64,
    pub publish_body_kb: f64,
    pub publish_delta_kb: f64,
    pub swaps_applied: f64,
    pub sent: f64,
    pub failed: f64,
    pub late_p99_ms: f64,
}

#[derive(Default)]
pub struct Layers<'a> {
    /// Items the per-item times are divided by.
    pub samples: usize,
    /// Crate counters over the timed window.
    pub kernels: Option<&'a Delta>,
    pub train: Option<TrainStages>,
    pub ingest: Option<IngestStages>,
    pub serve: Option<ServeStages>,
    pub overhead_pct: f64,
    pub coverage: f64,
}

impl Layers<'_> {
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.samples.max(1);
        let per = |ns: u64| ns as f64 / 1e6 / n as f64;
        let k = self.kernels.cloned().unwrap_or_default();
        let dispatches = k.count("device.pool.dispatches");
        let inline = k.count("device.pool.inline_fallbacks");
        let (hits, misses, fresh) = k.pool();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let t = self.train.unwrap_or_default();
        let g = self.ingest.unwrap_or_default();
        let s = self.serve.clone().unwrap_or_default();
        let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit, n);
        vec![
            m(
                "tensor.conv2d.self_ms",
                per(k.self_ns("tensor.conv2d") + k.self_ns("tensor.conv2d_direct")),
                "ms",
            ),
            m(
                "tensor.im2col.self_ms",
                per(k.self_ns("tensor.im2col")),
                "ms",
            ),
            m(
                "tensor.matmul.self_ms",
                per(k.self_ns("tensor.matmul")),
                "ms",
            ),
            m(
                "nn.conv2d_bwd.self_ms",
                per(k.self_ns("nn.conv2d_bwd")),
                "ms",
            ),
            m(
                "tensor.device.dispatches",
                dispatches as f64 / n as f64,
                "count",
            ),
            m(
                "tensor.device.inline_fallback_ratio",
                ratio(inline, dispatches),
                "ratio",
            ),
            m("tensor.pool.hit_ratio", ratio(hits, hits + misses), "ratio"),
            m("tensor.pool.fresh_mb", fresh as f64 / 1e6, "MB"),
            m(
                "nn.optim.step.self_ms",
                per(k.self_ns("nn.optim.step")),
                "ms",
            ),
            m("train.forward_ms", t.forward_ms, "ms"),
            m("datasets.batch_ms", t.batch_ms, "ms"),
            m("train.step_ms", t.step_ms, "ms"),
            m(
                "train.backward_other_ms",
                if self.train.is_some() {
                    t.step_ms - t.forward_ms - t.batch_ms
                } else {
                    0.0
                },
                "ms",
            ),
            m("dataframe.repartition_ms", g.repartition_ms, "ms"),
            m("preprocess.st_grid_ms", g.st_grid_ms, "ms"),
            m("dataframe.spill_ms", g.spill_ms, "ms"),
            m("dataframe.spill_mb", g.spill_mb, "MB"),
            m("converter.format_ms", g.format_ms, "ms"),
            m("converter.batch_wait_ms", g.batch_wait_ms, "ms"),
            m(
                "converter.prefetch_ready_ratio",
                g.prefetch_ready_ratio,
                "ratio",
            ),
            m("replica.forward_ms", g.replica_forward_ms, "ms"),
            m("replica.step_ms", g.replica_step_ms, "ms"),
            m(
                "replica.merge_other_ms",
                if self.ingest.is_some() {
                    g.replica_step_ms - g.batch_wait_ms - g.replica_slowest_forward_ms
                } else {
                    0.0
                },
                "ms",
            ),
            m("codec.tile_decode_ms", s.tile_decode_ms, "ms"),
            m("codec.tile_encode_ms", s.tile_encode_ms, "ms"),
            m("codec.classify_decode_ms", s.classify_decode_ms, "ms"),
            m("codec.request_kb", s.request_kb, "KB"),
            m("codec.response_kb", s.response_kb, "KB"),
            m("serve.queue_wait_ms", s.queue_wait_ms, "ms"),
            m("serve.batch_size_mean", s.batch_size_mean, "count"),
            m("serve.forward_ms.satcnn", s.forward_ms_satcnn, "ms"),
            m("serve.forward_ms.unet", s.forward_ms_unet, "ms"),
            m("serve.shed", s.shed, "count"),
            m("serve.expired", s.expired, "count"),
            m("http.residual_ms.classify", s.residual_ms_classify, "ms"),
            m("http.residual_ms.tile", s.residual_ms_tile, "ms"),
            m("http.wakeups_per_request", s.wakeups_per_request, "count"),
            m("mosaic.tile_ms", s.mosaic_tile_ms, "ms"),
            m("raster.stitch_ms", s.stitch_ms, "ms"),
            m("publish.body_kb", s.publish_body_kb, "KB"),
            m("publish.delta_kb", s.publish_delta_kb, "KB"),
            m("serve.swap.applied", s.swaps_applied, "count"),
            m("loadgen.sent", s.sent, "count"),
            m("loadgen.failed", s.failed, "count"),
            m("loadgen.late_p99_ms", s.late_p99_ms, "ms"),
            m("trace.overhead_pct", self.overhead_pct, "%"),
            m("trace.coverage", self.coverage, "ratio"),
        ]
    }
}
