//! One-command benchmark of the ridfa recognizer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk|stream|batch|serve --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Every input is generated from the seed before anything is timed; the
//! program is driven only through `PatternRegistry` and, for `serve`,
//! `Server` plus `serve::protocol`. Every verdict is checked against the
//! generator's label. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it wraps its calls into each layer in spans,
//! writes them to `perfbench/results/`, and prints the per-layer metrics
//! derived from them. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod json;
mod layers;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

use run::{Options, Report, Workload};

const USAGE: &str = "usage: ridfa-perfbench --workload bulk|stream|batch|serve --seed N \
                     --seconds S --trace 0|1\n       ridfa-perfbench --self-test";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return match self_test() {
            Ok(()) => {
                println!("self-test ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "ridfa-perfbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let report = run::run(&opts);
    for line in render(&report) {
        println!("{line}");
    }
    for problem in report.checks.problems() {
        eprintln!("check failed: {problem}");
    }
    ExitCode::SUCCESS
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        shrink: 1,
    })
}

/// The notes, one line per metric, and the result object last. A value
/// that is not finite was not measured: it fails the run.
fn render(report: &Report) -> Vec<String> {
    let mut lines = report.notes.clone();
    let mut correct = report.checks.failed == 0;
    let mut fields = Vec::new();
    for m in &report.metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            lines.push(format!("metric {} was not measured", m.name));
            0.0
        };
        lines.push(format!("{} = {} {}", m.name, value, m.unit));
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        ));
    }
    lines.push(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.attempted,
        report.checks.failed,
        fields.join(", ")
    ));
    lines
}

/// Runs every workload at a tiny size in both modes and checks the
/// output against `BENCHMARK.json`: the metric names and units, every
/// verdict correct, and `ok_frac` = 1.
fn self_test() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let bench = json::parse(&text)?;
    let declared = |list: &str| -> Vec<(String, String)> {
        bench
            .get(list)
            .map(json::Json::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(json::Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let names: Vec<&str> = bench
        .get("workloads")
        .map(json::Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(json::Json::as_str))
        .collect();
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if names != all {
        return Err(format!("BENCHMARK.json workloads {names:?} != {all:?}"));
    }
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Options {
                workload,
                seed: 1,
                seconds: 0.5,
                trace,
                shrink: 16,
            };
            let report = run::run(&opts);
            let what = format!("{} trace={}", workload.name(), u8::from(trace));
            let lines = render(&report);
            let result = json::parse(lines.last().expect("render emits a result line"))?;
            if result.keys() != ["correct", "attempted", "failed", "metrics"] {
                return Err(format!("{what}: result keys {:?}", result.keys()));
            }
            if result.get("correct") != Some(&json::Json::Bool(true)) {
                return Err(format!("{what}: incorrect: {:?}", report.checks.problems()));
            }
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            if got != declared(list) {
                return Err(format!("{what}: metrics {got:?} != BENCHMARK.json {list}"));
            }
            let metrics = result.get("metrics").ok_or("no metrics")?;
            if let Some(ok) = metrics.get("ok_frac") {
                let value = ok.get("value").and_then(json::Json::as_f64);
                if value != Some(1.0) {
                    return Err(format!("{what}: ok_frac {value:?}"));
                }
            }
            println!("self-test {what}: {} metrics ok", got.len());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_arguments() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload bulk --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload bulk --seed x --seconds 2")).is_err());
        assert!(parse_args(&args("--workload bulk --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload bulk --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("--workload bulk --seed 1")).is_err());
    }

    #[test]
    fn every_workload_at_tiny_size() {
        self_test().unwrap();
    }
}
