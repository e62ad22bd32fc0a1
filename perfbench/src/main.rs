//! The patient-flow benchmark: four workloads, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cv-train --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the workload again with the bench-owned decorators,
//! stamps and kernel replays on and reports the per-layer metrics and the
//! tracing overhead.  The last line of standard output is the JSON result,
//! holding exactly the metrics `BENCHMARK.json` names for that mode (see
//! `manifest.rs`); the process exits non-zero when a correctness check
//! fails.  `--workload all` runs every workload both ways and, with
//! `--record`, appends the run set to `perfbench/trajectory.jsonl`.  See
//! `perfbench/README.md`.

mod census;
mod common;
mod cv;
mod json;
mod manifest;
mod outcome;
mod provenance;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use outcome::Outcome;
use trace::Tracer;

// Heap accounting for `peak_mib` on `train-streamed`.  The counters are two
// relaxed atomics per allocation; README.md records their measured cost on
// the other workloads.
#[global_allocator]
static ALLOC: pfp_bench::mem::TrackingAllocator = pfp_bench::mem::TrackingAllocator;

pub const WORKLOADS: [&str; 4] = ["cv-train", "serve-open", "census-whatif", "train-streamed"];

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <cv-train|serve-open|census-whatif|train-streamed|all> \
--seed <u64> --seconds <1..=600> --trace <0|1> [--record]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        trace: trace.unwrap_or(false),
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        record,
        workload,
    })
}

fn run_workload(name: &str, cfg: &RunConfig, tracer: Option<&Tracer>) -> Outcome {
    match name {
        "cv-train" => cv::run(cfg, tracer),
        "serve-open" => serve::run(cfg, tracer),
        "census-whatif" => census::run(cfg, tracer),
        "train-streamed" => stream::run(cfg, tracer),
        other => unreachable!("workload {other} was validated by the parser"),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload, untraced or traced; returns its outcome and, when
/// traced, where its spans were written.
fn run_one(name: &str, cfg: &RunConfig, traced: bool) -> (Outcome, Option<PathBuf>) {
    if !traced {
        return (run_workload(name, cfg, None), None);
    }
    let tracer = Tracer::new();
    let mut outcome = run_workload(name, cfg, Some(&tracer));
    let path = out_dir().join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
    let written = tracer.write_jsonl(&path);
    outcome.check(
        "trace.spans_written",
        written.is_ok(),
        format!("{}: {written:?}", path.display()),
    );
    outcome.count("trace.spans", tracer.spans().len());
    (outcome, Some(path))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let command = std::iter::once("perfbench".to_string())
        .chain(argv.iter().cloned())
        .collect::<Vec<_>>()
        .join(" ");
    let prov = provenance::Provenance::collect(command);

    if args.workload == "all" {
        return run_set(&cfg, &prov, args.record);
    }
    let (outcome, spans) = run_one(&args.workload, &cfg, args.trace);
    println!("{}", prov.describe());
    let label = format!(
        "{} seed={} {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    outcome.print_human(&label);
    let declared = manifest::declared(args.trace);
    let unmeasured = outcome.unmeasured(declared);
    if !unmeasured.is_empty() {
        println!(
            "  measured on other workloads (0 in the result line): {}",
            unmeasured.join(", ")
        );
    }
    if let Some(p) = spans {
        println!("  spans: {}", p.display());
    }
    println!("{}", outcome.result_line(declared, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload untraced then traced; prints each, states the tracing
/// overhead, optionally appends the record to the trajectory, and ends with
/// one result line over the whole set.
fn run_set(cfg: &RunConfig, prov: &provenance::Provenance, record: bool) -> ExitCode {
    println!("{}", prov.describe());
    let mut entries = Vec::new();
    let mut total = Outcome::default();
    for name in WORKLOADS {
        let mut modes = Vec::new();
        for traced in [false, true] {
            let (outcome, _) = run_one(name, cfg, traced);
            outcome.print_human(&format!(
                "{name} {}",
                if traced { "traced" } else { "untraced" }
            ));
            total.operations += outcome.attempted();
            total.failed_operations += outcome.failed();
            if !traced {
                for m in &outcome.metrics {
                    total.value(&format!("{name}/{}", m.name), m.unit, m.value);
                }
            }
            modes.push((
                if traced { "traced" } else { "untraced" },
                provenance::outcome_json(&outcome),
            ));
        }
        entries.push((name.to_string(), Json::obj(modes)));
    }
    let set = Json::obj([
        ("provenance", prov.json(cfg)),
        ("workloads", Json::Obj(entries)),
    ]);
    if record {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("trajectory.jsonl");
        match provenance::append_line(&path, &set.to_string()) {
            Ok(()) => println!("appended run set to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot append to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let ok = total.failed_operations == 0;
    let line = Json::obj([
        ("correct", Json::Bool(ok)),
        ("attempted", Json::int(total.operations)),
        ("failed", Json::int(total.failed_operations)),
        ("metrics", total.metrics_json()),
    ]);
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let a = parse_args(&argv(
            "--workload serve-open --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-open".into(),
                seed: 7,
                seconds: 10,
                trace: true,
                record: false
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload cv-train --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload cv-train --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload cv-train --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cv-train --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload cv-train --seed 1 --seconds")).is_err());
    }
}
