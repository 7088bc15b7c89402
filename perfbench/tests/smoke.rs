//! Smoke-size runs of every workload in both modes: every metric that
//! `BENCHMARK.json` declares is emitted with a unit, the detailed report
//! gives every metric a sample count, every check passes (including the
//! one that each reported percentile has ten samples beyond it), and
//! the result line has the documented shape.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo root")
        .to_path_buf()
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = spec.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs share the host's cores; one at a time keeps the open loop on
/// schedule.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run one workload; returns (detail report, result line).
fn run(workload: &str, seconds: &str, trace: &str) -> (Value, Value) {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            seconds,
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected a report and a result line: {stdout}"
    );
    let parse = |l: &str| serde_json::from_str::<Value>(l).expect("JSON line");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn object<'a>(v: &'a Value, key: &str) -> &'a [(String, Value)] {
    match v.get(key) {
        Some(Value::Object(fields)) => fields,
        other => panic!("`{key}` is not an object: {other:?}"),
    }
}

fn check_run(workload: &str, seconds: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (detail, result) = run(workload, seconds, trace);
        let keys: Vec<&str> = match &result {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{detail:?}"
        );
        assert!(
            result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                >= 1.0
        );
        let metrics = object(&result, "metrics");
        let want = declared(section);
        assert_eq!(
            metrics.len(),
            want.len(),
            "{workload}: exactly the declared {section} metrics"
        );
        for (name, unit) in &want {
            let (_, m) = metrics
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
        }
        for (name, m) in object(&detail, "metrics") {
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{name} has a unit"
            );
            let samples = m.get("samples").and_then(Value::as_f64).unwrap_or(0.0);
            assert!(samples >= 1.0, "{workload}: {name} has a sample count");
        }
        let Some(Value::Array(checks)) = detail.get("checks") else {
            panic!("report lists its checks");
        };
        let names: Vec<&str> = checks
            .iter()
            .filter_map(|c| c.get("name").and_then(Value::as_str))
            .collect();
        assert!(
            names.contains(&"percentile_support"),
            "{workload}: percentile support is checked"
        );
        let stamp = object(&detail, "stamp");
        for key in ["nproc", "simd_kernel", "git_rev", "seed", "sizes"] {
            assert!(stamp.iter().any(|(k, _)| k == key), "stamp has {key}");
        }
    }
}

#[test]
fn train_satcnn_smoke() {
    check_run("train_satcnn", "2");
}

#[test]
fn ingest_trips_smoke() {
    check_run("ingest_trips", "2");
}

#[test]
fn serve_scene_smoke() {
    // The open loop keeps its fixed rate, so the run needs enough
    // seconds to send the 1000 classify requests its p99 needs.
    check_run("serve_scene", "15");
}
