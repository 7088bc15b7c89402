//! # geotorch-telemetry
//!
//! A lightweight, always-compiled observability layer for the GeoTorch-RS
//! hot paths: a process-wide registry of atomic counters and scoped timers
//! that every crate in the workspace can write into.
//!
//! The paper's evaluation (§V, Figs. 8–9) is entirely about *measured*
//! behaviour — epoch time, throughput, kernel scaling — so the library
//! needs a way to see where time goes without perturbing what it measures.
//! The design rules:
//!
//! * **Disabled is free.** Recording is gated on a single relaxed atomic
//!   load ([`enabled`]). When telemetry is off (the default), a [`scope!`]
//!   or [`count!`] site costs one predictable branch — no clock read, no
//!   registry lookup, no allocation.
//! * **Enabled is cheap.** Each call site caches its registry entry in a
//!   `static OnceLock`, so steady-state recording is two `Instant` reads
//!   and a handful of relaxed atomic adds. Stats are `&'static` and
//!   lock-free to update from any thread, including pool workers.
//! * **Self-time, not double counting.** Timers nest (e.g. `conv2d` calls
//!   `matmul` internally). Each thread tracks child time so a stat records
//!   both *total* (inclusive) and *self* (exclusive) nanoseconds; summing
//!   `self_ns` over all stats on one thread never counts a nanosecond
//!   twice, which is what makes the `repro --profile` coverage numbers
//!   meaningful.
//!
//! ```
//! geotorch_telemetry::set_enabled(true);
//! {
//!     let _t = geotorch_telemetry::scope!("example.outer");
//!     geotorch_telemetry::count!("example.items", 3);
//! }
//! let snap = geotorch_telemetry::snapshot();
//! assert!(snap.iter().any(|s| s.name == "example.outer" && s.calls == 1));
//! geotorch_telemetry::set_enabled(false);
//! geotorch_telemetry::reset();
//! ```

#![warn(missing_docs)]

pub mod fault;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry recording is on. A relaxed load — cheap enough to
/// guard every kernel entry.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off globally. Already-open scopes still record on
/// drop; stats keep their values until [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One named metric: a call/event counter plus inclusive and exclusive
/// timing accumulators. All fields are updated with relaxed atomics; a
/// stat is either used as a timer (via [`Scope`]), a counter (via
/// [`Stat::add`]), or both.
pub struct Stat {
    name: &'static str,
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    count: AtomicU64,
}

impl Stat {
    fn new(name: &'static str) -> Stat {
        Stat {
            name,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The registry key.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` to the event counter (used by [`count!`]).
    #[inline]
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Record an externally measured duration (both inclusive and
    /// exclusive). Used where a [`Scope`] guard cannot live, e.g. pool
    /// workers timing a job slot.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.self_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

fn registry() -> &'static Mutex<Vec<&'static Stat>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Stat>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(name: &'static str) -> &'static Stat {
    let stat: &'static Stat = Box::leak(Box::new(Stat::new(name)));
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(stat);
    stat
}

/// Resolve a call site's cached stat, registering it on first use. The
/// `slot` must be a `static` local to the call site (the [`scope!`] and
/// [`count!`] macros arrange this).
#[inline]
pub fn stat(slot: &'static OnceLock<&'static Stat>, name: &'static str) -> &'static Stat {
    slot.get_or_init(|| register(name))
}

/// Register a dynamically named stat (leaks the name; intended for small
/// bounded families like per-worker busy timers).
pub fn register_dynamic(name: String) -> &'static Stat {
    register(Box::leak(name.into_boxed_str()))
}

/// A gauge provider: polled at snapshot time.
type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

fn gauges() -> &'static Mutex<Vec<(&'static str, GaugeFn)>> {
    static GAUGES: OnceLock<Mutex<Vec<(&'static str, GaugeFn)>>> = OnceLock::new();
    GAUGES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a *gauge*: a named value polled at snapshot time instead of
/// accumulated through [`count!`]. Gauges let subsystems with their own
/// always-on counters (e.g. the tensor buffer pool) surface state in
/// every snapshot — including serve's `/metrics` and `repro --profile`
/// — without double bookkeeping. The value lands in the snapshot's
/// `count` field with zero `calls`/timing.
///
/// Gauges are owned by their provider: [`reset`] does not touch them
/// (diff two snapshots to measure an interval). Re-registering a name
/// replaces the previous provider.
pub fn register_gauge(name: &'static str, read: fn() -> u64) {
    register_gauge_with(name, Box::new(read));
}

/// [`register_gauge`] for dynamically named gauges with capturing
/// providers (leaks the name; intended for small bounded families like
/// per-replica queue depths — `serve.replica_depth.<model>.<i>`).
/// Re-registering a name replaces the previous provider, so a subsystem
/// that restarts (e.g. a fresh server in tests) reports its live state
/// rather than a stale closure's.
pub fn register_gauge_dynamic<F>(name: String, read: F)
where
    F: Fn() -> u64 + Send + Sync + 'static,
{
    register_gauge_with(Box::leak(name.into_boxed_str()), Box::new(read));
}

fn register_gauge_with(name: &'static str, read: GaugeFn) {
    let mut gauges = gauges().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) = gauges.iter_mut().find(|(n, _)| *n == name) {
        slot.1 = read;
    } else {
        gauges.push((name, read));
    }
}

thread_local! {
    /// Nanoseconds spent in already-closed child scopes of the innermost
    /// open scope on this thread. Lets a parent subtract child time and
    /// record exclusive self-time.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// RAII timer for a [`Stat`]. Construct via [`scope!`]; when telemetry is
/// disabled this is an inert unit-sized guard.
pub struct Scope {
    active: Option<(&'static Stat, Instant, u64)>,
}

impl Scope {
    /// Open a scope on `slot`/`name` if telemetry is enabled.
    #[inline]
    pub fn enter(slot: &'static OnceLock<&'static Stat>, name: &'static str) -> Scope {
        if !enabled() {
            return Scope { active: None };
        }
        let stat = crate::stat(slot, name);
        let saved_child = CHILD_NS.with(|c| c.replace(0));
        Scope {
            active: Some((stat, Instant::now(), saved_child)),
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((stat, start, saved_child)) = self.active.take() {
            let elapsed = start.elapsed().as_nanos() as u64;
            let child = CHILD_NS.with(|c| c.get());
            stat.calls.fetch_add(1, Ordering::Relaxed);
            stat.total_ns.fetch_add(elapsed, Ordering::Relaxed);
            stat.self_ns
                .fetch_add(elapsed.saturating_sub(child), Ordering::Relaxed);
            // This whole scope is child time from the parent's viewpoint.
            CHILD_NS.with(|c| c.set(saved_child + elapsed));
        }
    }
}

/// Time the enclosing block under `name`. Expands to an RAII guard; bind
/// it (`let _t = scope!(...)`) so it lives to the end of the block.
#[macro_export]
macro_rules! scope {
    ($name:literal) => {{
        static __GEOTORCH_STAT: ::std::sync::OnceLock<&'static $crate::Stat> =
            ::std::sync::OnceLock::new();
        $crate::Scope::enter(&__GEOTORCH_STAT, $name)
    }};
}

/// Add `n` events to the counter `name` (no-op while disabled).
#[macro_export]
macro_rules! count {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static __GEOTORCH_STAT: ::std::sync::OnceLock<&'static $crate::Stat> =
                ::std::sync::OnceLock::new();
            $crate::stat(&__GEOTORCH_STAT, $name).add($n as u64);
        }
    }};
}

/// Point-in-time copy of one stat, aggregated by name across call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatSnapshot {
    /// Registry key, e.g. `tensor.matmul`.
    pub name: String,
    /// Times a scope closed (or `record_ns` was called) under this name.
    pub calls: u64,
    /// Inclusive wall nanoseconds (children counted).
    pub total_ns: u64,
    /// Exclusive wall nanoseconds (children subtracted, per thread).
    pub self_ns: u64,
    /// Event counter value ([`count!`] / [`Stat::add`]).
    pub count: u64,
}

impl StatSnapshot {
    /// Inclusive seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Exclusive seconds.
    pub fn self_seconds(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Snapshot every registered stat, merged by name, sorted by descending
/// self-time then name. Stats that never recorded anything are skipped;
/// gauges ([`register_gauge`]) are always reported, even at zero, so
/// their presence in `/metrics` does not depend on traffic.
pub fn snapshot() -> Vec<StatSnapshot> {
    let mut merged: std::collections::BTreeMap<&'static str, StatSnapshot> =
        std::collections::BTreeMap::new();
    for stat in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let entry = merged.entry(stat.name).or_insert_with(|| StatSnapshot {
            name: stat.name.to_string(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            count: 0,
        });
        entry.calls += stat.calls.load(Ordering::Relaxed);
        entry.total_ns += stat.total_ns.load(Ordering::Relaxed);
        entry.self_ns += stat.self_ns.load(Ordering::Relaxed);
        entry.count += stat.count.load(Ordering::Relaxed);
    }
    let mut out: Vec<StatSnapshot> = merged
        .into_values()
        .filter(|s| s.calls > 0 || s.count > 0)
        .collect();
    for (name, read) in gauges().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let value = read();
        match out.iter_mut().find(|s| s.name == *name) {
            Some(existing) => existing.count += value,
            None => out.push(StatSnapshot {
                name: name.to_string(),
                calls: 0,
                total_ns: 0,
                self_ns: 0,
                count: value,
            }),
        }
    }
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    out
}

/// Zero every stat (registrations are kept). Gauges are *not* reset —
/// they mirror live state owned by their provider.
pub fn reset() {
    for stat in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        stat.reset();
    }
}

/// The snapshot as a JSON object: `{"stats": [{"name": ..., "calls": ...,
/// "total_ns": ..., "self_ns": ..., "count": ...}, ...]}`.
///
/// Hand-rolled (this crate is dependency-free); names are code literals
/// and never need escaping beyond the basics handled here.
pub fn snapshot_json() -> String {
    let mut out = String::from("{\"stats\":[");
    for (i, s) in snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"count\":{}}}",
            json_escape(&s.name),
            s.calls,
            s.total_ns,
            s.self_ns,
            s.count
        ));
    }
    out.push_str("]}");
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The snapshot as a markdown table sorted by self-time (the format the
/// `repro --profile` reports embed).
pub fn snapshot_markdown() -> String {
    let snap = snapshot();
    let mut out = String::from("| stat | calls | total (ms) | self (ms) | count |\n|---|---|---|---|---|\n");
    for s in &snap {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {} |\n",
            s.name,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.count
        ));
    }
    out
}

/// The message a caught panic carries: the `String` or `&str` payload of
/// `panic!`, or `"unknown panic"` for any other payload. Used wherever a
/// worker thread turns a `catch_unwind` result into an error value.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "unknown panic".to_string(), |s| (*s).to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let caught = |f: fn()| std::panic::catch_unwind(f).expect_err("f panics");
        assert_eq!(panic_message(caught(|| panic!("static text"))), "static text");
        assert_eq!(panic_message(caught(|| panic!("formatted {}", 7))), "formatted 7");
        assert_eq!(
            panic_message(caught(|| std::panic::panic_any(42u8))),
            "unknown panic"
        );
    }

    /// Telemetry state is process-global; serialise tests that toggle it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn find(name: &str) -> Option<StatSnapshot> {
        snapshot().into_iter().find(|s| s.name == name)
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        {
            let _t = scope!("test.disabled_scope");
            count!("test.disabled_count", 7);
        }
        assert!(find("test.disabled_scope").is_none());
        assert!(find("test.disabled_count").is_none());
    }

    #[test]
    fn scope_and_count_record_when_enabled() {
        let _g = serial();
        reset();
        set_enabled(true);
        {
            let _t = scope!("test.enabled_scope");
            std::thread::sleep(std::time::Duration::from_millis(2));
            count!("test.enabled_count", 3);
            count!("test.enabled_count", 4);
        }
        set_enabled(false);
        let s = find("test.enabled_scope").expect("scope recorded");
        assert_eq!(s.calls, 1);
        assert!(s.total_ns >= 2_000_000, "slept 2ms, recorded {}ns", s.total_ns);
        assert_eq!(s.total_ns, s.self_ns, "no children: total == self");
        let c = find("test.enabled_count").expect("count recorded");
        assert_eq!(c.count, 7);
        reset();
    }

    #[test]
    fn nested_scopes_split_self_time() {
        let _g = serial();
        reset();
        set_enabled(true);
        {
            let _outer = scope!("test.nest_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = scope!("test.nest_inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_enabled(false);
        let outer = find("test.nest_outer").unwrap();
        let inner = find("test.nest_inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns + inner.total_ns <= outer.total_ns + 1_000_000,
            "outer self ({}) should exclude inner total ({}) of outer total ({})",
            outer.self_ns,
            inner.total_ns,
            outer.total_ns
        );
        assert!(outer.self_ns < outer.total_ns, "inner time must be subtracted");
        reset();
    }

    #[test]
    fn sibling_scopes_accumulate_child_time() {
        let _g = serial();
        reset();
        set_enabled(true);
        {
            let _outer = scope!("test.sib_outer");
            for _ in 0..3 {
                let _inner = scope!("test.sib_inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_enabled(false);
        let outer = find("test.sib_outer").unwrap();
        let inner = find("test.sib_inner").unwrap();
        assert_eq!(inner.calls, 3);
        assert!(
            outer.self_ns <= outer.total_ns.saturating_sub(inner.total_ns) + 1_000_000,
            "all three siblings subtract from outer self"
        );
        reset();
    }

    #[test]
    fn counts_are_exact_across_threads() {
        let _g = serial();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count!("test.mt_count", 1);
                    }
                });
            }
        });
        set_enabled(false);
        assert_eq!(find("test.mt_count").unwrap().count, 8000);
        reset();
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _g = serial();
        set_enabled(true);
        count!("test.reset_me", 5);
        assert_eq!(find("test.reset_me").unwrap().count, 5);
        reset();
        assert!(find("test.reset_me").is_none(), "zeroed stats are hidden");
        count!("test.reset_me", 2);
        assert_eq!(find("test.reset_me").unwrap().count, 2);
        set_enabled(false);
        reset();
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let _g = serial();
        reset();
        set_enabled(true);
        count!("test.json_count", 1);
        {
            let _t = scope!("test.json_scope");
        }
        set_enabled(false);
        let json = snapshot_json();
        assert!(json.starts_with("{\"stats\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"test.json_count\""));
        assert!(json.contains("\"name\":\"test.json_scope\""));
        // Balanced braces/brackets — a cheap structural sanity check; the
        // bench crate parses it with serde_json for real.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        reset();
    }

    #[test]
    fn markdown_snapshot_lists_stats() {
        let _g = serial();
        reset();
        set_enabled(true);
        count!("test.md_count", 9);
        set_enabled(false);
        let md = snapshot_markdown();
        assert!(md.starts_with("| stat |"));
        assert!(md.contains("test.md_count"));
        reset();
    }

    #[test]
    fn gauges_appear_in_snapshots_and_survive_reset() {
        let _g = serial();
        reset();
        static GAUGE_VALUE: AtomicU64 = AtomicU64::new(41);
        register_gauge("test.gauge", || GAUGE_VALUE.load(Ordering::Relaxed));
        let snap = find("test.gauge").expect("gauge reported even while disabled");
        assert_eq!(snap.count, 41);
        assert_eq!(snap.calls, 0);
        GAUGE_VALUE.store(42, Ordering::Relaxed);
        reset();
        assert_eq!(find("test.gauge").unwrap().count, 42, "reset leaves gauges alone");
        assert!(snapshot_json().contains("\"name\":\"test.gauge\""));
        // Re-registering replaces the provider instead of duplicating.
        register_gauge("test.gauge", || 7);
        let snaps: Vec<_> = snapshot()
            .into_iter()
            .filter(|s| s.name == "test.gauge")
            .collect();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].count, 7);
        register_gauge("test.gauge", || 0);
        assert!(find("test.gauge").is_some(), "zero-valued gauges still listed");
    }

    #[test]
    fn dynamic_registration_works() {
        let _g = serial();
        reset();
        set_enabled(true);
        let s = register_dynamic("test.dyn.worker0".to_string());
        s.record_ns(1234);
        s.add(2);
        set_enabled(false);
        let snap = find("test.dyn.worker0").unwrap();
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.total_ns, 1234);
        assert_eq!(snap.count, 2);
        reset();
    }
}
