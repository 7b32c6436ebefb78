//! **BENCH-COMPARE** — the CI perf-regression gate.
//!
//! Diffs a fresh contention-benchmark artifact against a committed
//! baseline snapshot (`ci/baselines/*.json`), in the spirit of the
//! practical-progress measurement methodology of *Are Lock-Free
//! Concurrent Algorithms Practically Wait-Free?*: what CI guards is not
//! an absolute number (runners differ wildly) but that the measured
//! *shape* of a queue's scaling has not collapsed relative to the
//! recorded trajectory.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json>
//! ```
//!
//! Both files are JSON arrays of flat records, the framing every
//! contention sweep writes via `RSCHED_JSON_OUT`. Records pair up on
//! their identity axes (`queue`, `backend`, `threads`, plus any of
//! `shards_per_worker`, `spawn_batch`, `stickiness` present in the
//! baseline). The gate fails when:
//!
//! * a baseline cell has no matching fresh cell, or a fresh record is
//!   missing a field its baseline record carries (schema regression);
//! * a fresh record is missing any of the **required telemetry tails**
//!   (`retry_p99`, `retry_p999`, `steal_p99`, `steal_p999`,
//!   `flush_merge_ratio`, `gc_collected`) — every contention sweep
//!   emits them, so their absence means the instrumentation window
//!   broke;
//! * a record's **conservation fields** are inconsistent — pops must
//!   not exceed ops, home/steal counts must not exceed pops,
//!   `merge_fraction` must match `merges / (inserts + merges)`,
//!   `flush_merge_ratio` must match `flush_merged / flush_published`,
//!   and the retry quantiles must be monotone
//!   (`retry_p50 <= retry_p99 <= retry_p999 <= retry_max`);
//! * throughput (`pops_per_sec`) regressed beyond the tolerance
//!   (`RSCHED_COMPARE_TOL`, default 0.40 — generous on purpose) in
//!   **both** views: raw, and normalized by each run's own best cell.
//!   Requiring both keeps the gate meaningful across heterogeneous
//!   hosts: raw-only would flag every slower runner, normalized-only
//!   would miss a uniform collapse;
//! * the per-op CAS-retry tail (`retry_p99`) *grew* beyond
//!   `(1/(1-tol))²` (≈2.8× at the default tolerance) in both the raw
//!   and the self-normalized view (+1-smoothed so empty-tail cells
//!   divide cleanly). The histogram buckets are log₂, so one bucket of
//!   drift passes and two consecutive buckets fail — the tail gate
//!   guards progress per operation the same way the throughput gate
//!   guards operations per second;
//! * the **extreme tails** (`retry_p999`, `steal_p999`) inflated
//!   beyond the *cubed* tolerance limit (≈4.6× default) in both views,
//!   whenever the baseline cell carries them. This is the
//!   practically-wait-free invariant of the paper as a CI gate: in the
//!   steady states we snapshot, p999 per-op retries sit at 0–1, so a
//!   cell whose extreme tail grows by three log₂ buckets has left the
//!   practically-wait-free regime even if its mean throughput held.
//!
//! **Serving artifacts** (`serve_latency`; recognised by the
//! `arrival_process` axis) ride the same machinery with their own
//! metrics: identity adds `arrival_process` / `offered_rate` /
//! `clients` / `work_ns` / `mode` / `deadline_budget`; throughput is
//! `accepted_per_sec`; the required fields are the sojourn quantiles
//! (`lat_p50/p99/p999`) and the deadline `miss_rate`; conservation
//! demands `accepted + rejected == submitted`, `completed == accepted`,
//! `deadline_met + deadline_misses == completed`, a `miss_rate`
//! consistent with `deadline_misses / completed`, and monotone latency
//! and tardiness quantiles; and the tail gate runs on the end-to-end
//! `lat_p999` with the *cubed* tolerance limit (≈4.6× default) — more
//! than two log₂ buckets of p999 sojourn inflation fails the merge.
//!
//! The **miss-rate gate**: when a baseline serving cell carries
//! `miss_rate`, the fresh cell's rate may not inflate beyond the cubed
//! limit in both the raw and the run-peak-normalized view, each
//! +0.02-smoothed so all-met baselines (rate 0) divide cleanly and
//! noise near zero doesn't trip the gate. A scheduling change that
//! makes deadline traffic miss materially more often fails the merge
//! even if throughput and sojourn tails held.
//!
//! Exit code 0 = pass, 1 = regression, 2 = usage/parse error.

use rsched_bench::env_f64;
use rsched_bench::json::{self, Record, Value as Val};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = json::parse_records(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

/// Identity axes, in match order. A key only participates if the
/// baseline record carries it, so old baselines keep working when a
/// sweep grows a new axis.
const KEY_FIELDS: &[&str] = &[
    "queue",
    "backend",
    "threads",
    "shards_per_worker",
    "spawn_batch",
    "stickiness",
    "mix",
    "trace",
    "arrival_process",
    "offered_rate",
    "clients",
    "work_ns",
    "mode",
    "deadline_budget",
];

fn cell_key(rec: &Record) -> String {
    KEY_FIELDS
        .iter()
        .filter_map(|&k| match rec.get(k) {
            Some(Val::Str(s)) => Some(format!("{k}={s}")),
            Some(Val::Num(x)) => Some(format!("{k}={x}")),
            Some(Val::Bool(b)) => Some(format!("{k}={b}")),
            Some(_) => None,
            // `trace` grew after the committed baselines were
            // snapshotted: absent means untraced, so default it to 0
            // instead of dropping the axis — old baselines keep pairing
            // with fresh untraced records, while traced records
            // (`trace=1`) still never pair with an untraced baseline.
            None if k == "trace" => Some(format!("{k}=0")),
            None => None,
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Telemetry tail fields every fresh contention record must carry: one
/// progress-histogram quantile per instrumented axis plus the flush and
/// epoch-GC evidence. A sweep that stops emitting any of these has lost
/// its instrumentation window, which is itself a regression.
const REQUIRED_TAILS: &[&str] = &[
    "retry_p99",
    "retry_p999",
    "steal_p99",
    "steal_p999",
    "flush_merge_ratio",
    "gc_collected",
];

/// The extreme-tail fields gated with the cubed tolerance limit — the
/// practically-wait-free invariant. Only gated when the *baseline*
/// record carries the field, so pre-p999 baselines keep passing.
const EXTREME_TAILS: &[&str] = &["retry_p999", "steal_p999"];

/// The fields every open-system serving record must carry: the sojourn
/// latency quantiles and the accepted-throughput metric. A serving
/// sweep that stops emitting them has lost exactly the tail evidence
/// the open-system methodology exists to capture.
const REQUIRED_SERVE: &[&str] = &[
    "lat_p50",
    "lat_p99",
    "lat_p999",
    "accepted_per_sec",
    "offered_rate",
    "miss_rate",
];

/// +0.02 smoothing for miss-rate ratios: an all-met cell (rate 0)
/// divides cleanly, and sub-2% noise can't produce scary ratios.
const MISS_SMOOTH: f64 = 0.02;

/// Serving records (from `serve_latency`) carry the arrival-process
/// axis; contention records never do. The two kinds gate on different
/// metrics, so they are peak-normalized separately.
fn is_serve(rec: &Record) -> bool {
    rec.contains_key("arrival_process")
}

/// Throughput metric of a record's kind: operations per second for the
/// closed-loop sweeps, *accepted* requests per second for the open
/// system (offered rate is a knob, accepted rate is the achievement).
fn metric_of(serve: bool) -> &'static str {
    if serve {
        "accepted_per_sec"
    } else {
        "pops_per_sec"
    }
}

/// Tail metric of a record's kind: per-op CAS retries for contention
/// sweeps, p999 end-to-end sojourn for serving sweeps.
fn tail_metric_of(serve: bool) -> &'static str {
    if serve {
        "lat_p999"
    } else {
        "retry_p99"
    }
}

/// The internal-consistency checks every record must satisfy — the
/// "conservation fields" of the gate. Returns a violation description.
fn conservation_violation(rec: &Record) -> Option<String> {
    let num = |k: &str| rec.get(k).and_then(Val::as_f64);
    for (k, v) in rec {
        if let Val::Num(x) = v {
            if !x.is_finite() || *x < 0.0 {
                return Some(format!("field {k} is {x}"));
            }
        }
    }
    if let (Some(pops), Some(ops)) = (num("pops"), num("ops")) {
        if pops > ops {
            return Some(format!("pops {pops} exceeds ops {ops}"));
        }
    }
    if let (Some(h), Some(s), Some(pops)) = (num("home_hits"), num("steals"), num("pops")) {
        if h + s > pops {
            return Some(format!("home_hits {h} + steals {s} exceed pops {pops}"));
        }
    }
    if let (Some(frac), Some(ins), Some(mrg)) =
        (num("merge_fraction"), num("inserts"), num("merges"))
    {
        let want = if ins + mrg == 0.0 {
            0.0
        } else {
            mrg / (ins + mrg)
        };
        if (frac - want).abs() > 0.01 {
            return Some(format!(
                "merge_fraction {frac} inconsistent with merges/(inserts+merges) = {want:.4}"
            ));
        }
    }
    if let (Some(ratio), Some(pub_), Some(mrg)) = (
        num("flush_merge_ratio"),
        num("flush_published"),
        num("flush_merged"),
    ) {
        let want = if pub_ == 0.0 { 0.0 } else { mrg / pub_ };
        if (ratio - want).abs() > 0.01 {
            return Some(format!(
                "flush_merge_ratio {ratio} inconsistent with flush_merged/flush_published = {want:.4}"
            ));
        }
    }
    if let (Some(p50), Some(p99), Some(p999), Some(max)) = (
        num("retry_p50"),
        num("retry_p99"),
        num("retry_p999"),
        num("retry_max"),
    ) {
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            return Some(format!(
                "retry quantiles not monotone: p50 {p50}, p99 {p99}, p999 {p999}, max {max}"
            ));
        }
    }
    // Serving-record conservation: every submit is answered exactly
    // once, every accepted request completes exactly once.
    if let (Some(sub), Some(acc), Some(rej)) = (num("submitted"), num("accepted"), num("rejected"))
    {
        if (acc + rej - sub).abs() > 0.5 {
            return Some(format!(
                "accepted {acc} + rejected {rej} does not conserve submitted {sub}"
            ));
        }
    }
    if let (Some(acc), Some(comp)) = (num("accepted"), num("completed")) {
        if (comp - acc).abs() > 0.5 {
            return Some(format!("completed {comp} does not match accepted {acc}"));
        }
    }
    if let (Some(p50), Some(p99), Some(p999), Some(max)) = (
        num("lat_p50"),
        num("lat_p99"),
        num("lat_p999"),
        num("lat_max"),
    ) {
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            return Some(format!(
                "latency quantiles not monotone: p50 {p50}, p99 {p99}, p999 {p999}, max {max}"
            ));
        }
    }
    // Deadline conservation: every deadline-carrying completion got
    // exactly one verdict, and the reported rate matches the counts.
    if let (Some(met), Some(miss), Some(comp)) = (
        num("deadline_met"),
        num("deadline_misses"),
        num("completed"),
    ) {
        if (met + miss - comp).abs() > 0.5 {
            return Some(format!(
                "deadline_met {met} + deadline_misses {miss} does not conserve completed {comp}"
            ));
        }
    }
    if let (Some(rate), Some(miss), Some(comp)) =
        (num("miss_rate"), num("deadline_misses"), num("completed"))
    {
        let want = if comp == 0.0 { 0.0 } else { miss / comp };
        if (rate - want).abs() > 0.01 {
            return Some(format!(
                "miss_rate {rate} inconsistent with deadline_misses/completed = {want:.4}"
            ));
        }
    }
    if let (Some(p99), Some(p999), Some(max)) = (
        num("tardiness_p99"),
        num("tardiness_p999"),
        num("tardiness_max"),
    ) {
        if !(p99 <= p999 && p999 <= max) {
            return Some(format!(
                "tardiness quantiles not monotone: p99 {p99}, p999 {p999}, max {max}"
            ));
        }
    }
    None
}

/// Best value of `metric` among a run's records of one kind, for the
/// self-normalized comparison view. Kinds are normalized separately —
/// a serving artifact's accepted/s and a contention artifact's pops/s
/// live on unrelated scales.
fn run_peak(records: &[Record], serve: bool, metric: &str) -> f64 {
    records
        .iter()
        .filter(|r| is_serve(r) == serve)
        .filter_map(|r| r.get(metric).and_then(Val::as_f64))
        .fold(0.0, f64::max)
}

/// Per-kind peak set: throughput and tail peaks of both runs.
struct KindPeaks {
    base: f64,
    fresh: f64,
    base_tail: f64,
    fresh_tail: f64,
}

fn kind_peaks(baseline: &[Record], fresh: &[Record], serve: bool) -> KindPeaks {
    KindPeaks {
        base: run_peak(baseline, serve, metric_of(serve)),
        fresh: run_peak(fresh, serve, metric_of(serve)),
        base_tail: run_peak(baseline, serve, tail_metric_of(serve)),
        fresh_tail: run_peak(fresh, serve, tail_metric_of(serve)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let tol = env_f64("RSCHED_COMPARE_TOL", 0.40).clamp(0.0, 0.99);
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_compare: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let mut fresh_by_key: BTreeMap<String, &Record> = BTreeMap::new();
    for rec in &fresh {
        fresh_by_key.insert(cell_key(rec), rec);
    }
    let peaks = [
        kind_peaks(&baseline, &fresh, false),
        kind_peaks(&baseline, &fresh, true),
    ];
    let mut failures: Vec<String> = Vec::new();
    for serve in [false, true] {
        let p = &peaks[serve as usize];
        if baseline.iter().any(|r| is_serve(r) == serve) {
            if p.base <= 0.0 {
                eprintln!(
                    "bench_compare: baseline has no positive {}",
                    metric_of(serve)
                );
                return ExitCode::from(2);
            }
            if p.fresh <= 0.0 {
                failures.push(format!(
                    "fresh run has no positive {} at all",
                    metric_of(serve)
                ));
            }
        }
    }
    println!(
        "bench_compare: {} baseline cells vs {} fresh cells, tolerance {:.0}%",
        baseline.len(),
        fresh.len(),
        tol * 100.0,
    );
    for rec in &fresh {
        if let Some(why) = conservation_violation(rec) {
            failures.push(format!("fresh cell [{}]: {why}", cell_key(rec)));
        }
        // Contention sweeps must keep their telemetry tails, serving
        // sweeps their sojourn quantiles.
        let required = if is_serve(rec) {
            REQUIRED_SERVE
        } else {
            REQUIRED_TAILS
        };
        for &field in required {
            if !rec.contains_key(field) {
                failures.push(format!(
                    "fresh cell [{}]: missing required field {field}",
                    cell_key(rec)
                ));
            }
        }
    }
    for base in &baseline {
        let key = cell_key(base);
        let serve = is_serve(base);
        let metric = metric_of(serve);
        let p = &peaks[serve as usize];
        let Some(fresh_rec) = fresh_by_key.get(&key) else {
            failures.push(format!("cell [{key}] missing from the fresh run"));
            continue;
        };
        for field in base.keys() {
            if !fresh_rec.contains_key(field) {
                failures.push(format!("cell [{key}]: fresh record lost field {field}"));
            }
        }
        let (Some(b), Some(f)) = (
            base.get(metric).and_then(Val::as_f64),
            fresh_rec.get(metric).and_then(Val::as_f64),
        ) else {
            failures.push(format!("cell [{key}]: no {metric} to compare"));
            continue;
        };
        let raw_ratio = if b > 0.0 { f / b } else { 1.0 };
        let norm_ratio = if b > 0.0 && p.fresh > 0.0 {
            (f / p.fresh) / (b / p.base)
        } else {
            1.0
        };
        let mut verdict = if raw_ratio < 1.0 - tol && norm_ratio < 1.0 - tol {
            failures.push(format!(
                "cell [{key}]: {metric} regressed {b:.0} -> {f:.0} \
                 (raw x{raw_ratio:.2}, normalized x{norm_ratio:.2})"
            ));
            "FAIL"
        } else {
            "ok"
        };
        // The tail gate works in growth ratios (bigger = worse), with
        // +1 smoothing so empty tails divide cleanly; the limits stem
        // from the throughput tolerance because the histogram buckets
        // are log₂. Per-op CAS retries (contention) get the squared
        // limit: one bucket of drift passes, two fail. The end-to-end
        // p999 sojourn (serving) gets the cubed limit — ≈4.6× at the
        // default tolerance, so two log₂ buckets of drift pass and
        // anything beyond (>2 buckets of inflation) fails: sojourn
        // compounds scheduler, socket and generator jitter, and only a
        // shape-level collapse should stop the merge.
        let tail_metric = tail_metric_of(serve);
        let tail_limit = (1.0 / (1.0 - tol)).powi(if serve { 3 } else { 2 });
        if let (Some(bt), Some(ft)) = (
            base.get(tail_metric).and_then(Val::as_f64),
            fresh_rec.get(tail_metric).and_then(Val::as_f64),
        ) {
            let raw_growth = (ft + 1.0) / (bt + 1.0);
            let norm_growth =
                ((ft + 1.0) / (p.fresh_tail + 1.0)) / ((bt + 1.0) / (p.base_tail + 1.0));
            if raw_growth > tail_limit && norm_growth > tail_limit {
                failures.push(format!(
                    "cell [{key}]: {tail_metric} tail inflated {bt:.0} -> {ft:.0} \
                     (raw x{raw_growth:.2}, normalized x{norm_growth:.2}, \
                     limit x{tail_limit:.2})"
                ));
                verdict = "FAIL(tail)";
            }
        }
        // The miss-rate gate (serving cells whose baseline carries
        // one): smoothed growth in both the raw and the
        // peak-normalized view beyond the cubed limit fails — a
        // scheduling change may not inflate deadline misses even if
        // throughput and sojourn held.
        if serve {
            if let (Some(bm), Some(fm)) = (
                base.get("miss_rate").and_then(Val::as_f64),
                fresh_rec.get("miss_rate").and_then(Val::as_f64),
            ) {
                let limit = (1.0 / (1.0 - tol)).powi(3);
                let bp = run_peak(&baseline, true, "miss_rate");
                let fp = run_peak(&fresh, true, "miss_rate");
                let raw_growth = (fm + MISS_SMOOTH) / (bm + MISS_SMOOTH);
                let norm_growth = ((fm + MISS_SMOOTH) / (fp + MISS_SMOOTH))
                    / ((bm + MISS_SMOOTH) / (bp + MISS_SMOOTH));
                if raw_growth > limit && norm_growth > limit {
                    failures.push(format!(
                        "cell [{key}]: miss_rate inflated {bm:.4} -> {fm:.4} \
                         (raw x{raw_growth:.2}, normalized x{norm_growth:.2}, \
                         limit x{limit:.2})"
                    ));
                    verdict = "FAIL(miss)";
                }
            }
        }
        // The extreme-tail gates (contention cells only): p999 per-op
        // retries and steal rounds, cubed limit. Peak-normalized per
        // metric so a host whose whole run shifted a bucket still
        // passes; a single cell leaving the practically-wait-free
        // regime does not.
        if !serve {
            let limit = (1.0 / (1.0 - tol)).powi(3);
            for &extreme in EXTREME_TAILS {
                let (Some(bt), Some(ft)) = (
                    base.get(extreme).and_then(Val::as_f64),
                    fresh_rec.get(extreme).and_then(Val::as_f64),
                ) else {
                    continue;
                };
                let bp = run_peak(&baseline, false, extreme);
                let fp = run_peak(&fresh, false, extreme);
                let raw_growth = (ft + 1.0) / (bt + 1.0);
                let norm_growth = ((ft + 1.0) / (fp + 1.0)) / ((bt + 1.0) / (bp + 1.0));
                if raw_growth > limit && norm_growth > limit {
                    failures.push(format!(
                        "cell [{key}]: {extreme} tail inflated {bt:.0} -> {ft:.0} \
                         (raw x{raw_growth:.2}, normalized x{norm_growth:.2}, \
                         limit x{limit:.2})"
                    ));
                    verdict = "FAIL(tail)";
                }
            }
        }
        println!("  [{key}] {b:>12.0} -> {f:>12.0}  raw x{raw_ratio:.2} norm x{norm_ratio:.2}  {verdict}");
    }
    if failures.is_empty() {
        println!(
            "bench_compare: PASS ({} cells within tolerance)",
            baseline.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_compare: FAIL: {f}");
        }
        ExitCode::from(1)
    }
}
