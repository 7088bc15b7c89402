//! The GeoTorch-RS benchmark: three seeded workloads against the
//! workspace crates' public APIs.
//!
//! ```sh
//! perfbench --workload <train_satcnn|ingest_trips|serve_scene> --seed <n> \
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints a detailed report (host stamp, the workload's own metrics with
//! sample counts, checks, failure accounting) and, as the last line, the
//! result object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero when a correctness check fails. `--smoke` shrinks the inputs
//! for the benchmark's own tests; it keeps every metric and check.

mod http;
mod ingest;
mod layers;
mod report;
mod serve;
mod trace;
mod train;

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Scratch space inside the checkout (spill partitions, delta stores,
/// span logs).
pub const WORK_DIR: &str = ".perfbench";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

const WORKLOADS: [&str; 3] = ["train_satcnn", "ingest_trips", "serve_scene"];

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        std::process::exit(2);
    }
    let ticks = report::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "train_satcnn" => train::run(&args),
        "ingest_trips" => ingest::run(&args),
        _ => serve::run(&args),
    };
    if args.trace {
        let path = std::path::Path::new(WORK_DIR)
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_out(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for check in outcome.checks.iter().filter(|c| !c.passed) {
        eprintln!("perfbench: check {} FAILED: {}", check.name, check.detail);
    }
    println!(
        "{}",
        report::detail_json(
            &args.workload,
            args.seed,
            args.trace,
            report::steal_pct(ticks),
            &outcome
        )
    );
    println!("{}", report::result_json(&outcome, args.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_scene",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, "serve_scene");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 15.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            vec!["--workload", "nope", "--seed", "1"],
            vec!["--workload", "train_satcnn"],
            vec!["--workload", "train_satcnn", "--seed", "x"],
            vec!["--workload", "train_satcnn", "--seed", "1", "--trace", "2"],
            vec![
                "--workload",
                "train_satcnn",
                "--seed",
                "1",
                "--seconds",
                "-3",
            ],
            vec!["--workload", "train_satcnn", "--seed", "1", "--bogus"],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "{bad:?}");
        }
    }
}
