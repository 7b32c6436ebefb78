//! Shared infrastructure for the experiment binaries that regenerate every
//! figure and theorem-shape experiment of the paper (see DESIGN.md §4 for
//! the experiment index and EXPERIMENTS.md for recorded results).
//!
//! All experiments print fixed-width text tables plus machine-readable CSV
//! lines (prefixed `csv,`) so results can be collected with `grep ^csv`.
//!
//! ## Scaling
//!
//! Experiment sizes follow the `RSCHED_SCALE` environment variable:
//! `small` (default; seconds, CI-friendly), `medium` (tens of seconds),
//! `paper` (graph sizes matching the paper's where feasible). Thread sweeps
//! use the host's available parallelism.

use rsched_graph::gen::{grid_road, power_law, random_gnm};
use rsched_graph::CsrGraph;

/// Experiment scale, from the `RSCHED_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Small,
    Medium,
    Paper,
}

impl Scale {
    /// Read `RSCHED_SCALE` (default [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("RSCHED_SCALE").as_deref() {
            Ok("medium") => Scale::Medium,
            Ok("paper") => Scale::Paper,
            _ => Scale::Small,
        }
    }
}

/// The paper's three experiment graphs (Section 7), at the chosen scale.
///
/// * `random` — uniform G(n, m), weights 1..=100 (paper: 1M nodes / 10M
///   edges);
/// * `road` — grid with physical-distance-like weights (substitution for
///   the USA road network, see DESIGN.md);
/// * `social` — preferential-attachment power law, weights 1..=100
///   (substitution for LiveJournal).
pub fn experiment_graphs(scale: Scale) -> Vec<(&'static str, CsrGraph)> {
    match scale {
        Scale::Small => vec![
            ("random", random_gnm(20_000, 200_000, 1..=100, 42)),
            ("road", grid_road(141, 141, 42)), // ~20k nodes
            ("social", power_law(20_000, 10, 1..=100, 42)),
        ],
        Scale::Medium => vec![
            ("random", random_gnm(200_000, 2_000_000, 1..=100, 42)),
            ("road", grid_road(450, 450, 42)), // ~200k nodes
            ("social", power_law(200_000, 10, 1..=100, 42)),
        ],
        Scale::Paper => vec![
            ("random", random_gnm(1_000_000, 10_000_000, 1..=100, 42)),
            ("road", grid_road(1000, 1000, 42)), // 1M nodes (paper: 24M)
            ("social", power_law(1_000_000, 14, 1..=100, 42)),
        ],
    }
}

/// Thread counts to sweep: powers of two up to available parallelism, but
/// always at least `1, 2, 4, 8`.
///
/// On hosts with fewer cores the larger counts run oversubscribed; the
/// *overhead* metric (task counts) is still meaningful there — relaxation
/// grows with the queue count, not with physical parallelism — while
/// wall-clock speedups obviously are not.
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .max(8);
    let mut out = vec![1usize];
    while *out.last().expect("non-empty") * 2 <= max {
        out.push(out.last().expect("non-empty") * 2);
    }
    out
}

/// Thread sweep for the contention benchmarks: the `RSCHED_THREADS`
/// environment variable as a comma-separated list, or `default`.
pub fn env_thread_list(default: &[usize]) -> Vec<usize> {
    let mut list = env_usize_list("RSCHED_THREADS", default);
    list.retain(|&t| t >= 1);
    list
}

// The env-knob parsers live in `rsched_runtime::env` (the lowest crate
// with env-tunable configuration — `RuntimeConfig::default` and the
// serve binary read knobs too); re-exported here so every bench bin
// keeps its historical `rsched_bench::env_*` call sites.
pub use rsched_runtime::env::{
    env_f64, env_list, env_opt_usize, env_u64, env_usize, env_usize_list,
};

// Minimal JSON (values + artifact records), shared by the compare gate
// and the diurnal-trace loader.
pub mod json;

/// The worker-session tuning knobs every contention benchmark sweeps and
/// records: `RSCHED_SHARDS_PER_WORKER` (home shards per worker, default
/// 1; 0 disables affinity) and `RSCHED_SPAWN_BATCH` (spawn-buffer
/// capacity, default 1 = publish immediately). Returned as
/// `(shards_per_worker, spawn_batch)`; emit both in every JSON record so
/// the BENCH artifacts pin down the session axes of a run.
pub fn session_knobs() -> (usize, usize) {
    (
        env_usize("RSCHED_SHARDS_PER_WORKER", 1),
        env_usize("RSCHED_SPAWN_BATCH", 1),
    )
}

/// The shared telemetry tail-field fragment of the bench JSON schema
/// (no surrounding braces, no leading comma): per-op CAS-retry and
/// steal-round quantiles, fallback-sweep p99, empty-pop and flush
/// counters, and the epoch-GC progress pair. Every contention bin
/// appends this to its record so `bench_compare` can gate the tails
/// uniformly; structure-specific extras (registry probes) ride
/// separately.
pub fn telemetry_json_fields(t: &rsched_queues::TelemetrySnapshot) -> String {
    format!(
        "\"retry_p50\":{},\"retry_p99\":{},\"retry_p999\":{},\"retry_max\":{},\
         \"retry_count\":{},\"steal_p50\":{},\"steal_p99\":{},\"steal_p999\":{},\
         \"sweep_p99\":{},\"empty_pops\":{},\"flush_published\":{},\
         \"flush_merged\":{},\"flush_merge_ratio\":{:.6},\
         \"gc_deferred\":{},\"gc_collected\":{}",
        t.retry.p50,
        t.retry.p99,
        t.retry.p999,
        t.retry.max,
        t.retry.count,
        t.steal.p50,
        t.steal.p99,
        t.steal.p999,
        t.sweep.p99,
        t.empty_pops,
        t.flush_published,
        t.flush_merged,
        t.flush_merge_ratio(),
        t.gc_deferred,
        t.gc_collected,
    )
}

/// Write pre-serialized JSON object `records` as a JSON array to the
/// path named by `RSCHED_JSON_OUT`, if set — the framing the CI
/// perf-smoke validation parses for every `BENCH_*.json` artifact.
pub fn write_json_artifact(records: &[String]) {
    if let Ok(path) = std::env::var("RSCHED_JSON_OUT") {
        let body = format!("[\n  {}\n]\n", records.join(",\n  "));
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {} records to {path}", records.len());
    }
}

/// Minimal fixed-width table printer with a parallel CSV emitter.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    csv_tag: String,
}

impl Table {
    /// Start a table; prints the header immediately.
    pub fn new(csv_tag: &str, headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let t = Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            widths,
            csv_tag: csv_tag.to_string(),
        };
        t.print_header();
        t
    }

    fn print_header(&self) {
        let row: Vec<String> = self
            .headers
            .iter()
            .zip(&self.widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", row.join("  "));
        println!("{}", "-".repeat(row.join("  ").len()));
    }

    /// Print one row (values pre-formatted as strings).
    pub fn row(&self, values: &[String]) {
        assert_eq!(values.len(), self.headers.len());
        let row: Vec<String> = values
            .iter()
            .zip(&self.widths)
            .map(|(v, w)| format!("{v:>w$}"))
            .collect();
        println!("{}", row.join("  "));
        println!("csv,{},{}", self.csv_tag, values.join(","));
    }
}

/// Convenience formatter set used by the binaries.
pub mod fmt {
    /// `1.0432x` style overhead.
    pub fn overhead(x: f64) -> String {
        format!("{x:.4}x")
    }

    /// Seconds with milli precision.
    pub fn secs(d: std::time::Duration) -> String {
        format!("{:.3}s", d.as_secs_f64())
    }

    /// Thousands separators for counts.
    pub fn count(n: u64) -> String {
        let s = n.to_string();
        let mut out = String::with_capacity(s.len() + s.len() / 3);
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push('_');
            }
            out.push(c);
        }
        out
    }
}

/// Geometric-mean helper for speedup summaries.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_small() {
        // Not setting the env var in-process: default must be Small.
        assert_eq!(Scale::from_env(), Scale::Small);
    }

    #[test]
    fn thread_sweep_is_powers_of_two() {
        let sweep = thread_sweep();
        assert_eq!(sweep[0], 1);
        for w in sweep.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn graphs_have_expected_sizes() {
        let gs = experiment_graphs(Scale::Small);
        assert_eq!(gs.len(), 3);
        for (name, g) in &gs {
            assert!(g.num_vertices() >= 19_000, "{name} too small");
        }
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt::count(1), "1");
        assert_eq!(fmt::count(1234), "1_234");
        assert_eq!(fmt::count(1234567), "1_234_567");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
