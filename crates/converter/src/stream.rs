//! Pull-based batch streaming: the loader layer of the
//! `DataSource → Loader → Trainer` seam.
//!
//! [`BatchStream`] is the one interface trainers consume: a fallible
//! pull of the next `(features, labels)` batch. Three implementations
//! cover the pipeline:
//!
//! - [`FrameBatchStream`] — over an in-memory [`FormattedFrame`]; the
//!   streaming twin of [`RowTransformer::batches`].
//! - [`SpillBatchStream`] — over a [`SpillStore`] of spilled partitions:
//!   reads one partition at a time (recycled scratch buffer), formats
//!   it, batches it, drops it. Peak memory is one partition + one batch,
//!   independent of dataset size.
//! - [`PrefetchLoader`] — wraps any stream in a background thread with a
//!   bounded double-buffer queue, so the converter formats shard N+1
//!   while the trainer runs shard N. Queue occupancy is exported as the
//!   `loader.prefetch_depth` gauge; the producer carries the
//!   `loader.prefetch` fault point for chaos testing.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;

use geotorch_dataframe::{DfError, SpillStore};
use geotorch_tensor::Tensor;

use crate::{DfFormatter, FormattedFrame, RowTransformer};

/// Why a batch stream stopped producing.
#[derive(Debug, Clone, PartialEq)]
pub enum LoaderError {
    /// The underlying dataframe layer failed (spill read, format).
    Df(DfError),
    /// The prefetch thread failed (injected fault or panic).
    Prefetch(String),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::Df(e) => write!(f, "dataframe: {e}"),
            LoaderError::Prefetch(msg) => write!(f, "prefetch: {msg}"),
        }
    }
}

impl std::error::Error for LoaderError {}

impl From<DfError> for LoaderError {
    fn from(e: DfError) -> LoaderError {
        LoaderError::Df(e)
    }
}

/// A pull-based source of `(features, labels)` training batches.
///
/// `Ok(None)` is end-of-stream; an `Err` is sticky — the epoch that hit
/// it must be abandoned and the stream rebuilt.
pub trait BatchStream: Send {
    /// The next batch, `Ok(None)` at end of stream.
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError>;

    /// Total rows this stream will yield, when known up front (used for
    /// throughput accounting).
    fn total_rows(&self) -> Option<usize> {
        None
    }
}

// ------------------------------------------------------------- frame

/// Streams an in-memory [`FormattedFrame`] batch by batch — identical
/// batches, in identical order, to [`RowTransformer::batches`].
pub struct FrameBatchStream {
    rt: Arc<RowTransformer>,
    frame: Arc<FormattedFrame>,
    part: usize,
    row: usize,
}

impl FrameBatchStream {
    /// Stream `frame` through `rt`'s batch size and transform.
    pub fn new(rt: Arc<RowTransformer>, frame: Arc<FormattedFrame>) -> FrameBatchStream {
        FrameBatchStream {
            rt,
            frame,
            part: 0,
            row: 0,
        }
    }
}

impl BatchStream for FrameBatchStream {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        while self.part < self.frame.partitions.len() {
            let rows = self.frame.partitions[self.part].rows;
            if self.row >= rows {
                self.part += 1;
                self.row = 0;
                continue;
            }
            let end = (self.row + self.rt.batch_size()).min(rows);
            let batch = self.rt.build_batch(&self.frame, self.part, self.row, end);
            self.row = end;
            return Ok(Some(batch));
        }
        Ok(None)
    }

    fn total_rows(&self) -> Option<usize> {
        Some(self.frame.num_rows())
    }
}

// ------------------------------------------------------------- spill

/// Streams spilled partitions: read one partition back (reusing a
/// scratch buffer), format it, batch it, drop it, move on.
pub struct SpillBatchStream {
    store: Arc<SpillStore>,
    formatter: DfFormatter,
    rt: Arc<RowTransformer>,
    scratch: Vec<u8>,
    current: Option<FormattedFrame>,
    row: usize,
    next_part: usize,
}

impl SpillBatchStream {
    /// Stream every partition of `store`, formatted by `formatter`,
    /// batched by `rt`.
    pub fn new(
        store: Arc<SpillStore>,
        formatter: DfFormatter,
        rt: Arc<RowTransformer>,
    ) -> SpillBatchStream {
        SpillBatchStream {
            store,
            formatter,
            rt,
            scratch: Vec::new(),
            current: None,
            row: 0,
            next_part: 0,
        }
    }
}

impl BatchStream for SpillBatchStream {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        loop {
            if let Some(frame) = &self.current {
                let rows = frame.partitions[0].rows;
                if self.row < rows {
                    let end = (self.row + self.rt.batch_size()).min(rows);
                    let batch = self.rt.build_batch(frame, 0, self.row, end);
                    self.row = end;
                    return Ok(Some(batch));
                }
                self.current = None;
            }
            if self.next_part >= self.store.len() {
                return Ok(None);
            }
            let cols = self.store.read_with(self.next_part, &mut self.scratch)?;
            let part = self
                .formatter
                .format_partition(self.store.schema(), &cols)?;
            self.current = Some(FormattedFrame {
                partitions: vec![part],
                feature_shape: self.formatter.feature_shape().to_vec(),
                label_shape: self.formatter.label_shape().to_vec(),
            });
            self.row = 0;
            self.next_part += 1;
        }
    }

    fn total_rows(&self) -> Option<usize> {
        Some(self.store.total_rows())
    }
}

// ---------------------------------------------------------- prefetch

/// Batches formatted ahead of the consumer, queued but not yet pulled.
static PREFETCH_QUEUED: AtomicU64 = AtomicU64::new(0);
static PREFETCH_GAUGE: Once = Once::new();

/// Double-buffered background prefetcher: a producer thread pulls from
/// the inner stream into a bounded queue of `depth` batches (2 = classic
/// double buffering) while the consumer trains on the previous batch.
///
/// Errors and panics in the producer surface as [`LoaderError`] from
/// [`BatchStream::next_batch`] — never a deadlock: the queue is bounded,
/// the producer exits on send failure, and dropping the loader stops and
/// joins the thread.
pub struct PrefetchLoader {
    rx: Option<Receiver<Result<(Tensor, Tensor), LoaderError>>>,
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    rows: Option<usize>,
    finished: bool,
}

impl PrefetchLoader {
    /// Wrap `inner`, formatting up to `depth` batches ahead.
    pub fn new(mut inner: Box<dyn BatchStream>, depth: usize) -> PrefetchLoader {
        assert!(depth >= 1, "prefetch depth must be at least 1");
        PREFETCH_GAUGE.call_once(|| {
            geotorch_telemetry::register_gauge("loader.prefetch_depth", || {
                PREFETCH_QUEUED.load(Ordering::Relaxed)
            });
        });
        let rows = inner.total_rows();
        let (tx, rx) = sync_channel(depth);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("geotorch-prefetch".into())
            .spawn(move || loop {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                // The fault point sits inside the catch_unwind so an
                // injected *panic* also surfaces as a clean error on the
                // consumer side instead of a silently truncated stream.
                let pulled = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    geotorch_telemetry::fault_point!("loader.prefetch")
                        .map_err(LoaderError::Prefetch)?;
                    inner.next_batch()
                }));
                match pulled {
                    Ok(Ok(Some(batch))) => {
                        PREFETCH_QUEUED.fetch_add(1, Ordering::Relaxed);
                        if tx.send(Ok(batch)).is_err() {
                            // Consumer went away; the batch died with the
                            // channel.
                            PREFETCH_QUEUED.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    Ok(Ok(None)) => break,
                    Ok(Err(e)) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                    Err(panic) => {
                        let msg = geotorch_telemetry::panic_message(panic);
                        let _ = tx.send(Err(LoaderError::Prefetch(format!(
                            "prefetch thread panicked: {msg}"
                        ))));
                        break;
                    }
                }
            })
            .expect("spawn prefetch thread");
        PrefetchLoader {
            rx: Some(rx),
            handle: Some(handle),
            stop,
            rows,
            finished: false,
        }
    }
}

impl BatchStream for PrefetchLoader {
    fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
        if self.finished {
            return Ok(None);
        }
        match self.rx.as_ref().expect("receiver lives until drop").recv() {
            Ok(Ok(batch)) => {
                PREFETCH_QUEUED.fetch_sub(1, Ordering::Relaxed);
                Ok(Some(batch))
            }
            Ok(Err(e)) => {
                self.finished = true;
                Err(e)
            }
            // Producer exited after the last batch was drained.
            Err(_) => {
                self.finished = true;
                Ok(None)
            }
        }
    }

    fn total_rows(&self) -> Option<usize> {
        self.rows
    }
}

impl Drop for PrefetchLoader {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(rx) = self.rx.take() {
            // Drain so a producer blocked on the full queue wakes up and
            // sees the stop flag; every undelivered batch is accounted
            // off the gauge.
            loop {
                match rx.try_recv() {
                    Ok(Ok(_)) => {
                        PREFETCH_QUEUED.fetch_sub(1, Ordering::Relaxed);
                    }
                    Ok(Err(_)) => {}
                    Err(TryRecvError::Empty) => {
                        if self
                            .handle
                            .as_ref()
                            .map(|h| h.is_finished())
                            .unwrap_or(true)
                        {
                            // One final sweep: the producer may have
                            // queued between our try_recv and its exit.
                            while let Ok(item) = rx.try_recv() {
                                if item.is_ok() {
                                    PREFETCH_QUEUED.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            break;
                        }
                        std::thread::yield_now();
                    }
                    Err(TryRecvError::Disconnected) => break,
                }
            }
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotorch_dataframe::{Column, DataFrame};

    fn frame(rows: usize, parts: usize) -> (Arc<RowTransformer>, Arc<FormattedFrame>) {
        let a: Vec<f64> = (0..rows).map(|i| i as f64).collect();
        let y: Vec<i64> = (0..rows).map(|i| (i % 2) as i64).collect();
        let df = DataFrame::from_columns(vec![
            ("a".into(), Column::F64(a)),
            ("y".into(), Column::I64(y)),
        ])
        .unwrap()
        .repartition(parts)
        .unwrap();
        let fmt = DfFormatter::for_classification(&["a"], &[1], "y").unwrap();
        (
            Arc::new(RowTransformer::new(4)),
            Arc::new(fmt.format(&df).unwrap()),
        )
    }

    fn drain(stream: &mut dyn BatchStream) -> Vec<(Tensor, Tensor)> {
        let mut out = Vec::new();
        while let Some(b) = stream.next_batch().unwrap() {
            out.push(b);
        }
        out
    }

    #[test]
    fn frame_stream_matches_batches() {
        let (rt, frame) = frame(22, 3);
        let mut stream = FrameBatchStream::new(Arc::clone(&rt), Arc::clone(&frame));
        let streamed = drain(&mut stream);
        let all: Vec<_> = rt.batches(&frame).collect();
        assert_eq!(streamed.len(), all.len());
        for ((sx, sy), (ax, ay)) in streamed.iter().zip(&all) {
            assert_eq!(sx, ax);
            assert_eq!(sy, ay);
        }
        assert_eq!(stream.total_rows(), Some(22));
        // Exhausted stream stays exhausted.
        assert!(stream.next_batch().unwrap().is_none());
    }

    #[test]
    fn spill_stream_matches_in_memory() {
        let rows = 50;
        let a: Vec<f64> = (0..rows).map(|i| i as f64 * 0.5).collect();
        let y: Vec<i64> = (0..rows).map(|i| (i % 3) as i64).collect();
        let df = DataFrame::from_columns(vec![
            ("a".into(), Column::F64(a)),
            ("y".into(), Column::I64(y)),
        ])
        .unwrap()
        .repartition(4)
        .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "geotorch-stream-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SpillStore::from_frame(&dir, &df).unwrap());
        let fmt = DfFormatter::for_classification(&["a"], &[1], "y").unwrap();
        let rt = Arc::new(RowTransformer::new(8));
        let frame = fmt.format(&df).unwrap();
        let in_memory: Vec<_> = rt.batches(&frame).collect();
        let mut stream = SpillBatchStream::new(store, fmt, Arc::clone(&rt));
        assert_eq!(stream.total_rows(), Some(rows));
        let streamed = drain(&mut stream);
        assert_eq!(streamed.len(), in_memory.len());
        for ((sx, sy), (ax, ay)) in streamed.iter().zip(&in_memory) {
            assert_eq!(sx, ax);
            assert_eq!(sy, ay);
        }
    }

    #[test]
    fn prefetch_preserves_order_and_contents() {
        let (rt, frame) = frame(37, 2);
        let direct = drain(&mut FrameBatchStream::new(
            Arc::clone(&rt),
            Arc::clone(&frame),
        ));
        let mut loader =
            PrefetchLoader::new(Box::new(FrameBatchStream::new(rt, frame)), 2);
        let prefetched = drain(&mut loader);
        assert_eq!(direct.len(), prefetched.len());
        for ((dx, dy), (px, py)) in direct.iter().zip(&prefetched) {
            assert_eq!(dx, px);
            assert_eq!(dy, py);
        }
    }

    #[test]
    fn prefetch_drop_mid_stream_does_not_hang() {
        let (rt, frame) = frame(1000, 1);
        let mut loader =
            PrefetchLoader::new(Box::new(FrameBatchStream::new(rt, frame)), 2);
        let _ = loader.next_batch().unwrap();
        drop(loader); // producer still has hundreds of batches queued up
        assert_eq!(PREFETCH_QUEUED.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn prefetch_propagates_inner_panic_as_error() {
        struct Bomb(usize);
        impl BatchStream for Bomb {
            fn next_batch(&mut self) -> Result<Option<(Tensor, Tensor)>, LoaderError> {
                self.0 += 1;
                if self.0 > 2 {
                    panic!("boom at batch 3");
                }
                Ok(Some((Tensor::zeros(&[1, 1]), Tensor::zeros(&[1, 1]))))
            }
        }
        let mut loader = PrefetchLoader::new(Box::new(Bomb(0)), 2);
        let mut ok = 0;
        let err = loop {
            match loader.next_batch() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => panic!("expected an error, got clean end"),
                Err(e) => break e,
            }
        };
        assert_eq!(ok, 2);
        assert!(matches!(&err, LoaderError::Prefetch(m) if m.contains("boom")));
        // Sticky end after the error.
        assert!(loader.next_batch().unwrap().is_none());
    }
}
