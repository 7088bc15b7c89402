//! Bench-side tracing: spans recorded in memory around the benchmark's
//! own calls into the crates, plus deltas of the crates' existing
//! `geotorch-telemetry` scopes and tensor-pool counters.
//!
//! A span holds a name, start, end, parent and a step or request id. A
//! span's self time is its duration minus the part of it its children
//! cover. Spans are only recorded in traced runs; when tracing is off,
//! opening one costs a relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds of `t` since the trace epoch.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span log lock poisoned by a panicking recorder")
}

/// An open span; closes (records its end) on drop.
pub struct Guard(Option<usize>);

/// Open a span named `name` with id `id`, nested under the innermost
/// span open on this thread.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let start_ns = ns(Instant::now());
    let idx = {
        let mut log = spans();
        log.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        log.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = ns(Instant::now());
            OPEN.with(|o| {
                let mut open = o.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&i| i == idx) {
                    open.remove(pos);
                }
            });
            if let Ok(mut log) = SPANS.lock() {
                log[idx].end_ns = end;
            }
        }
    }
}

/// Record a span measured elsewhere (e.g. a request from its due time to
/// its reply), with no parent.
pub fn record(name: &'static str, id: u64, start: Instant, end: Instant) {
    if enabled() {
        spans().push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            id,
        });
    }
}

/// Spans recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Per-name totals: (count, total ns, self ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let covered = union_ns(kids, s.start_ns, s.end_ns);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Share of `[start, end]` covered by spans with one of `names`.
pub fn coverage(spans: &[Span], names: &[&str], start: Instant, end: Instant) -> f64 {
    let (lo, hi) = (ns(start), ns(end));
    let intervals = spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    union_ns(intervals, lo, hi) as f64 / (hi.saturating_sub(lo)).max(1) as f64
}

/// Write the span log as JSON lines to `path`, followed by one line per
/// span name with its count, total and self time.
pub fn write_out(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let log = snapshot();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (name, (count, total_ns, self_ns)) in totals(&log) {
        writeln!(
            out,
            "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ns\": {total_ns}, \"self_ns\": {self_ns}}}"
        )?;
    }
    for (i, s) in log.iter().enumerate() {
        writeln!(
            out,
            "{{\"idx\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.id
        )?;
    }
    out.flush()
}

// ------------------------------------------------ crate-side counters

/// A point-in-time copy of the telemetry registry and the tensor pool.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    stats: BTreeMap<String, geotorch_telemetry::StatSnapshot>,
    pool: geotorch_tensor::pool::PoolStats,
}

impl Counters {
    pub fn take() -> Counters {
        Counters {
            stats: geotorch_telemetry::snapshot()
                .into_iter()
                .map(|s| (s.name.clone(), s))
                .collect(),
            pool: geotorch_tensor::pool::stats(),
        }
    }

    fn stat(&self, name: &str) -> (u64, u64, u64) {
        self.stats
            .get(name)
            .map_or((0, 0, 0), |s| (s.calls, s.self_ns, s.count))
    }
}

/// The change in the crates' counters between two [`Counters`].
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub before: Counters,
    pub after: Counters,
}

impl Delta {
    pub fn calls(&self, name: &str) -> u64 {
        self.after
            .stat(name)
            .0
            .saturating_sub(self.before.stat(name).0)
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.after
            .stat(name)
            .1
            .saturating_sub(self.before.stat(name).1)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.after
            .stat(name)
            .2
            .saturating_sub(self.before.stat(name).2)
    }

    /// (hits, misses, fresh bytes) taken from the tensor pool.
    pub fn pool(&self) -> (u64, u64, u64) {
        let (a, b) = (&self.before.pool, &self.after.pool);
        (
            b.hits.saturating_sub(a.hits),
            b.misses.saturating_sub(a.misses),
            b.fresh_bytes.saturating_sub(a.fresh_bytes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                id: 0,
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                id: 0,
            },
            Span {
                name: "inner",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                id: 1,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["outer"], (1, 100, 50));
        assert_eq!(t["inner"], (2, 60, 60));
    }
}
