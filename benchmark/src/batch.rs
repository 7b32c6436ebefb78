//! The batch workloads: a parallel incremental algorithm run to a
//! verified solution, over and over, on a seeded random graph.
//!
//! * `sssp-random` — `parallel_sssp` on G(100 000, 1 000 000) with
//!   weights 1..=100: the keyed priority path (MultiQueue over skiplist
//!   shards, push-or-decrease and pop) under `runtime::run`.
//! * `bfs-random` — `parallel_bfs` on G(100 000, 500 000): the same
//!   `runtime::run` over the relaxed FIFO (d-CBO over segmented rings),
//!   where relaxation visibly wastes work.
//!
//! Public functions called: `rsched_graph::gen::random_gnm`,
//! `rsched_graph::{dijkstra, bfs}`, `rsched_algos::{parallel_sssp,
//! parallel_bfs}` with `ParSsspConfig`, and
//! `rsched_queues::telemetry::capture` on traced runs.

use crate::metrics::Outcome;
use crate::probes::{self, QueueKind};
use crate::schedule::SplitMix64;
use crate::stats::{median_f64, Summary};
use crate::trace::Recorder;
use crate::{peak_rss_mb, RunArgs, THREADS};
use rsched_algos::{parallel_bfs, parallel_sssp, ParSsspConfig};
use rsched_graph::gen::random_gnm;
use rsched_graph::{bfs, dijkstra, CsrGraph, Weight, INF};
use rsched_queues::telemetry;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Sssp,
    Bfs,
}

/// Solves are timed over this many seeded sources, in rotation.
const SOURCES: usize = 4;
/// Untimed solves before the measured window.
const WARMUP_SOLVES: usize = 3;
/// Set-up is repeated and its median reported.
const SETUPS: usize = 9;
/// The tail percentile of the solve time. Reported under the common
/// name `latency_ms_tail`; p75 keeps ten samples beyond it from 40
/// solves up, which the window gives on a host half as fast as the
/// one the benchmark was sized on.
pub const TAIL: f64 = 0.75;

struct Inputs {
    graph: CsrGraph,
    sources: Vec<usize>,
    /// Sequential reference distances, one vector per source.
    reference: Vec<Vec<Weight>>,
    /// Vertices reachable from each source: the useful tasks of a solve.
    reachable: Vec<u64>,
    gen_ms: f64,
    seq_ref_ms: f64,
}

fn make_inputs(algo: Algo, seed: u64) -> Inputs {
    let t = Instant::now();
    let graph = match algo {
        Algo::Sssp => random_gnm(100_000, 1_000_000, 1..=100, seed),
        Algo::Bfs => random_gnm(100_000, 500_000, 1..=100, seed),
    };
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rng = SplitMix64::new(seed ^ 0x50_0C_E5);
    let sources: Vec<usize> = (0..SOURCES)
        .map(|_| rng.below(graph.num_vertices() as u64) as usize)
        .collect();
    let mut ref_ms = Vec::with_capacity(SOURCES);
    let reference: Vec<Vec<Weight>> = sources
        .iter()
        .map(|&src| {
            let t = Instant::now();
            let dist = match algo {
                Algo::Sssp => dijkstra(&graph, src).dist,
                Algo::Bfs => bfs(&graph, src),
            };
            ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
            dist
        })
        .collect();
    let reachable = reference
        .iter()
        .map(|d| d.iter().filter(|&&x| x != INF).count() as u64)
        .collect();
    Inputs {
        graph,
        sources,
        reference,
        reachable,
        gen_ms,
        seq_ref_ms: median_f64(&ref_ms),
    }
}

/// What one solve returned, whichever algorithm ran.
struct Solve {
    dist: Vec<Weight>,
    executed: u64,
    pops: u64,
    stale: u64,
}

fn solve(algo: Algo, g: &CsrGraph, src: usize, seed: u64) -> Solve {
    let cfg = ParSsspConfig {
        threads: THREADS,
        queue_multiplier: 2,
        seed,
    };
    match algo {
        Algo::Sssp => {
            let s = parallel_sssp(g, src, cfg);
            Solve {
                dist: s.dist,
                executed: s.executed,
                pops: s.pops,
                stale: s.stale,
            }
        }
        Algo::Bfs => {
            let s = parallel_bfs(g, src, cfg);
            Solve {
                dist: s.dist,
                executed: s.executed,
                pops: s.pops,
                stale: s.stale,
            }
        }
    }
}

/// Totals over one measured window of solves.
#[derive(Default)]
struct Window {
    solve_ns: Vec<u64>,
    wrong: u64,
    reachable: u64,
    executed: u64,
    pops: u64,
    stale: u64,
}

/// What a traced window collects besides its totals.
#[derive(Default)]
struct Traced {
    recorder: Recorder,
    /// The queues' telemetry of each solve.
    snapshots: Vec<telemetry::TelemetrySnapshot>,
}

/// Solve until `window` has passed, verifying every solve against the
/// sequential reference outside the timed interval. When traced, each
/// solve leaves an `iteration` root span with the solve and its
/// verification as children, and the queues' telemetry of the solve.
fn solve_for(
    algo: Algo,
    inputs: &Inputs,
    seed: u64,
    first_solve: usize,
    window: Duration,
    epoch: Instant,
    mut traced: Option<&mut Traced>,
) -> Window {
    let mut w = Window::default();
    let end = Instant::now() + window;
    let mut i = first_solve;
    while Instant::now() < end {
        let which = i % SOURCES;
        let t0 = Instant::now();
        let s = solve(
            algo,
            &inputs.graph,
            inputs.sources[which],
            seed.wrapping_add(i as u64),
        );
        let t1 = Instant::now();
        let ok = s.dist == inputs.reference[which];
        let t2 = Instant::now();
        w.solve_ns.push((t1 - t0).as_nanos() as u64);
        w.wrong += !ok as u64;
        w.reachable += inputs.reachable[which];
        w.executed += s.executed;
        w.pops += s.pops;
        w.stale += s.stale;
        if let Some(traced) = traced.as_mut() {
            // `run` opened a telemetry window for this solve; its
            // workers have exited, so the capture is complete.
            traced.snapshots.push(telemetry::capture());
            let rec = &mut traced.recorder;
            let ns = |t: Instant| (t - epoch).as_nanos() as u64;
            let root = rec.span(None, i as u64, "iteration", "bench", ns(t0), ns(t2));
            let solve_name = match algo {
                Algo::Sssp => "parallel_sssp",
                Algo::Bfs => "parallel_bfs",
            };
            rec.span(Some(root), i as u64, solve_name, "algos", ns(t0), ns(t1));
            rec.span(Some(root), i as u64, "verify", "bench", ns(t1), ns(t2));
        }
        i += 1;
    }
    w
}

pub fn run(algo: Algo, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();

    // Set-up, several times over: generate the graph and the sources
    // from the seed and solve each source sequentially for reference.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(make_inputs(algo, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUPS >= 1");
    out.set("setup_s", median_f64(&setup_s));

    for i in 0..WARMUP_SOLVES {
        let s = solve(algo, &inputs.graph, inputs.sources[i % SOURCES], args.seed);
        out.check(s.dist == inputs.reference[i % SOURCES], || {
            format!("warm-up solve {i} differs from the sequential reference")
        });
    }

    let seconds = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let w = solve_for(algo, &inputs, args.seed, 0, seconds, epoch, None);
        report_end_to_end(&mut out, &w);
        return out;
    }

    // Traced run: a window without spans, the same window with spans
    // (their ratio is the tracing overhead), then the probes.
    let plain = solve_for(
        algo,
        &inputs,
        args.seed,
        0,
        seconds.mul_f64(0.3),
        epoch,
        None,
    );
    let mut collected = Traced::default();
    let traced = solve_for(
        algo,
        &inputs,
        args.seed,
        plain.solve_ns.len(),
        seconds.mul_f64(0.3),
        epoch,
        Some(&mut collected),
    );
    let Traced {
        mut recorder,
        snapshots,
    } = collected;
    report_end_to_end(&mut out, &plain);
    report_layers(&mut out, &inputs, &plain, &traced, &snapshots);

    // The task list the probes replay: every reachable vertex with its
    // final key (distance or level) from the first source.
    let keys: Vec<(usize, u64)> = inputs.reference[0]
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != INF)
        .map(|(v, &d)| (v, d))
        .collect();
    let kind = match algo {
        Algo::Sssp => QueueKind::MultiQueue,
        Algo::Bfs => QueueKind::DCbo,
    };
    let t0 = epoch.elapsed().as_nanos() as u64;
    probes::run_noop(&mut out, &keys, kind);
    let t1 = epoch.elapsed().as_nanos() as u64;
    probes::queues(&mut out, &keys);
    let t2 = epoch.elapsed().as_nanos() as u64;
    recorder.span(None, u64::MAX, "probe.run_noop", "runtime.run", t0, t1);
    recorder.span(None, u64::MAX, "probe.push_pop", "queues", t1, t2);

    recorder.finish(&mut out, args, 1);
    out
}

fn report_end_to_end(out: &mut Outcome, w: &Window) {
    out.set("peak_rss_mb", peak_rss_mb());
    let solves = w.solve_ns.len() as u64;
    out.attempted = solves;
    out.failed = w.wrong;
    out.check(w.wrong == 0, || {
        format!(
            "{} of {solves} solves differ from the sequential reference",
            w.wrong
        )
    });
    let total_s = w.solve_ns.iter().sum::<u64>() as f64 / 1e9;
    let summary = Summary::new(w.solve_ns.clone());
    out.notes.push(summary.describe("solve", 1e6, "ms", TAIL));
    out.set("latency_ms_p50", summary.p(0.5) as f64 / 1e6);
    out.set("latency_ms_tail", summary.p(TAIL) as f64 / 1e6);
    // A wrong solve delivered nothing, so its vertices do not count.
    let ok_share = (solves - w.wrong) as f64 / solves.max(1) as f64;
    out.set("goodput_per_s", w.reachable as f64 * ok_share / total_s);
    out.set(
        "work_overhead",
        w.executed as f64 / w.reachable.max(1) as f64,
    );
    out.set("ok_share", ok_share);
}

fn report_layers(
    out: &mut Outcome,
    inputs: &Inputs,
    plain: &Window,
    traced: &Window,
    snapshots: &[telemetry::TelemetrySnapshot],
) {
    let solves = traced.solve_ns.len().max(1) as f64;
    let summary = Summary::new(traced.solve_ns.clone());
    let solve_ms = summary.p(0.5) as f64 / 1e6;
    out.notes
        .push(summary.describe("traced solve", 1e6, "ms", TAIL));
    out.set("graph.gen_ms", inputs.gen_ms);
    out.set("graph.seq_ref_ms", inputs.seq_ref_ms);
    out.set("algos.solve_ms", solve_ms);
    out.set("algos.executed", traced.executed as f64 / solves);
    out.set("algos.pops", traced.pops as f64 / solves);
    out.set("algos.stale", traced.stale as f64 / solves);
    out.set(
        "algos.stale_share",
        traced.stale as f64 / traced.pops.max(1) as f64,
    );
    if solve_ms > 0.0 {
        out.set("algos.speedup_vs_seq", inputs.seq_ref_ms / solve_ms);
    }
    if !snapshots.is_empty() {
        // Per solve: medians of the tails, means of the counters.
        let med = |f: &dyn Fn(&telemetry::TelemetrySnapshot) -> u64| {
            median_f64(&snapshots.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let mean = |f: &dyn Fn(&telemetry::TelemetrySnapshot) -> u64| {
            snapshots.iter().map(|s| f(s) as f64).sum::<f64>() / snapshots.len() as f64
        };
        out.set("queues.retry_p99", med(&|s| s.retry.p99));
        out.set("queues.steal_p99", med(&|s| s.steal.p99));
        out.set("queues.empty_pops", mean(&|s| s.empty_pops));
        out.set("queues.seg_installs", mean(&|s| s.seg_installs));
        out.set("queues.gc_deferred", mean(&|s| s.gc_deferred));
        out.set("queues.gc_collected", mean(&|s| s.gc_collected));
    }
    let plain_ms = Summary::new(plain.solve_ns.clone()).p(0.5) as f64 / 1e6;
    if plain_ms > 0.0 {
        out.set("trace_overhead_pct", (solve_ms / plain_ms - 1.0) * 100.0);
    }
}
