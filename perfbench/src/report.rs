//! Metrics, percentiles, host stamp and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// A named correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    /// A reported percentile `p` of `n` samples needs ten samples beyond it.
    pub fn percentile_support(what: &str, n: usize, p: f64) -> Check {
        let tail = beyond(n, p);
        Check::from_result(
            "percentile_support",
            if tail >= 10 {
                Ok(format!("{what}: {tail} samples beyond p{p}"))
            } else {
                Err(format!("{what}: only {tail} samples beyond p{p}"))
            },
        )
    }

    pub fn from_result(name: &'static str, result: Result<String, String>) -> Check {
        match result {
            Ok(detail) => Check {
                name,
                passed: true,
                detail,
            },
            Err(detail) => Check {
                name,
                passed: false,
                detail,
            },
        }
    }
}

/// Sent / succeeded / failed counts of one request class in one phase,
/// with every non-200 status by code.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    pub phase: String,
    pub class: String,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub statuses: std::collections::BTreeMap<u16, u64>,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics declared in `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics declared in `BENCHMARK.json` (traced runs).
    pub per_layer: Vec<Metric>,
    /// The workload's own metric names, with sample counts.
    pub detail: Vec<Metric>,
    pub checks: Vec<Check>,
    pub accounting: Vec<Accounting>,
    pub attempted: u64,
    pub failed: u64,
    /// Input sizes, for the stamp.
    pub sizes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Linear-interpolation percentile (`p` in `[0, 100]`) of a sample;
/// `+inf` entries (failed requests) sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi || sorted[hi].is_infinite() {
        // Interpolating towards a failed request lands beyond any limit.
        sorted[hi]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
            kb.trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// (steal, total) CPU ticks since boot from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs were ready.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen by the hypervisor since `start`, in percent.
pub fn steal_pct(start: (u64, u64)) -> f64 {
    let end = cpu_ticks();
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        return 0.0;
    }
    end.0.saturating_sub(start.0) as f64 * 100.0 / total as f64
}

/// The git revision of the checkout, read from `.git` when present (the
/// benchmark also runs from plain source trees, which have none).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust prints (shortest
/// round-trip form); non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metric_object(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The detailed report: host stamp, workload metrics with sample
/// counts, checks and failure accounting — one JSON object.
pub fn detail_json(
    workload: &str,
    seed: u64,
    trace: bool,
    steal_pct: f64,
    outcome: &Outcome,
) -> String {
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                quote(c.name),
                c.passed,
                quote(&c.detail)
            )
        })
        .collect();
    let accounting: Vec<String> = outcome
        .accounting
        .iter()
        .map(|a| {
            let statuses: Vec<String> = a
                .statuses
                .iter()
                .map(|(code, n)| format!("\"{code}\": {n}"))
                .collect();
            format!(
                "{{\"phase\": {}, \"class\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"non_200\": {{{}}}}}",
                quote(&a.phase),
                quote(&a.class),
                a.sent,
                a.succeeded,
                a.failed,
                statuses.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {}, \"simd_kernel\": {}, \"git_rev\": {}, \"steal_pct\": {}, \"sizes\": {{{}}}}}, \"metrics\": {}, \"checks\": [{}], \"accounting\": [{}]}}",
        quote(workload),
        nproc(),
        quote(geotorch_tensor::ops::matmul::simd_kernel_name()),
        quote(&git_rev()),
        number(steal_pct),
        sizes.join(", "),
        metric_object(&outcome.detail, true),
        checks.join(", "),
        accounting.join(", "),
    )
}

/// The result line the benchmark contract asks for.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metric_object(metrics, false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_keeps_failures_last() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        let with_fail = [1.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&with_fail, 100.0), f64::INFINITY);
        assert_eq!(percentile(&with_fail, 50.0), 2.0);
        assert!(percentile(&with_fail, 75.0).is_infinite());
    }

    #[test]
    fn beyond_counts_tail_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(121, 90.0), 12);
        assert_eq!(beyond(99, 90.0), 9);
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(1.2034567890123), "1.2034567890123");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }
}
