//! Whole-suite modes: every workload through child processes of this
//! binary, one process per run so that peak memory and thread
//! placement of one run cannot leak into the next.
//!
//! * `--all`: each workload untraced (end-to-end metrics), then traced
//!   (per-layer metrics); prints every metric by name with its unit and
//!   writes `benchmark/out/summary.json`, which ends with
//!   `"claim": null` — this benchmark states numbers, never a gain.
//! * `--selfcheck`: the untraced set twice on the same build (A then
//!   B); fails when any end-to-end metric of B is worse than A by more
//!   than the bound `BENCHMARK.json` fixes for it.

use crate::json::{self, Value};
use crate::{OUT_DIR, WORKLOADS};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// Seconds per run when the caller gives none: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// The parsed result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (human, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    // The notes (sample counts, warnings, failed checks), not the table:
    // the suite prints its own.
    for line in human.lines().filter(|l| !l.starts_with("  ")) {
        println!("    {line}");
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let field = |k: &str| doc.get(k).ok_or(format!("{workload}: result has no {k}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or(format!("{workload}: metrics is not an object"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("{workload}: metric {name} is malformed")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let result = ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    };
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: run failed (exit {:?}, correct {})",
            output.status.code(),
            result.correct
        ));
    }
    Ok(result)
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    crate::metrics::metrics_json(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())))
}

pub fn all(seed: u64, seconds: f64) -> ExitCode {
    let mut summary = format!("{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{");
    let mut failures = Vec::new();
    for (i, workload) in WORKLOADS.iter().enumerate() {
        println!("== {workload}: untraced run, {seconds} s");
        let plain = run_child(workload, seed, seconds, false);
        println!("== {workload}: traced run");
        let traced = run_child(workload, seed, seconds, true);
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                failures.extend([p.err(), t.err()].into_iter().flatten());
                continue;
            }
        };
        println!(
            "  end to end (untraced): ops_attempted {} ops_failed {}",
            plain.attempted, plain.failed
        );
        for (name, value, unit) in &plain.metrics {
            println!("    {name:<36} {value:>16.4} {unit}");
        }
        println!("  per layer (traced; layers off this workload's path omitted):");
        for (name, value, unit) in traced.metrics.iter().filter(|m| m.1 != 0.0) {
            println!("    {name:<36} {value:>16.4} {unit}");
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            summary,
            "{sep}\"{workload}\": {{\"ops_attempted\": {}, \"ops_failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            plain.attempted,
            plain.failed,
            metrics_json(&plain.metrics),
            metrics_json(&traced.metrics)
        )
        .expect("writing to a String");
    }
    summary.push_str("}, \"claim\": null}");
    for f in &failures {
        println!("FAILED: {f}");
    }
    let path = std::path::Path::new(OUT_DIR).join("summary.json");
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &summary));
    if let Err(e) = written {
        println!("FAILED: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("summary: {}", path.display());
    println!("{summary}");
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, better, bound)` of the end-to-end metrics in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err("BENCHMARK.json: malformed end_to_end metric".to_string()),
            }
        })
        .collect()
}

pub fn selfcheck(seed: u64, seconds: f64) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            println!("FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        let mut results = Vec::new();
        for workload in WORKLOADS {
            println!("== set {set}: {workload}, {seconds} s");
            match run_child(workload, seed, seconds, false) {
                Ok(r) => results.push(r),
                Err(e) => {
                    println!("FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(results);
    }
    let mut violations = 0;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, higher_is_better, bound) in &bounds {
            let value =
                |set: &Vec<ChildResult>| set[w].metrics.iter().find(|m| &m.0 == name).map(|m| m.1);
            let (Some(a), Some(b)) = (value(&sets[0]), value(&sets[1])) else {
                println!("FAILED: {workload} did not report {name}");
                violations += 1;
                continue;
            };
            // By how much of A's value B is worse (negative = better).
            let worse = if *higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let flag = if worse > *bound {
                "  <-- beyond bound"
            } else {
                ""
            };
            violations += (worse > *bound) as u32;
            println!(
                "{workload:<18} {name:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%{flag}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if violations == 0 {
        println!("selfcheck: A and B agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {violations} metric(s) beyond their bound");
        ExitCode::FAILURE
    }
}
