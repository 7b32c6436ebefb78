//! The one monotone-relaxation kernel behind concurrent SSSP, BFS and
//! min-label connected components.
//!
//! All three are the same asynchronous fixed-point iteration (Section
//! 6's `d[u] ← min(d[u], step(d[v], w))`) under a relaxed scheduler;
//! they differ only in the step and the initial values:
//!
//! | caller | step | initial values |
//! |---|---|---|
//! | [`parallel_sssp`](crate::parallel_sssp), [`parallel_sssp_duplicates`](crate::parallel_sssp_duplicates) | `d + w` | source 0, else `INF` |
//! | [`parallel_bfs`](crate::parallel_bfs) | `d + 1` | source 0, else `INF` |
//! | [`parallel_label_propagation`](crate::parallel_label_propagation) | `d` | `v` (every vertex a source) |
//!
//! Values only ever decrease ([`relax_min`]), every decrease spawns the
//! improved vertex, and a task popped at a value above its vertex's
//! current one is stale. So the values converge to the unique fixed
//! point whatever order the scheduler runs tasks in, and the relaxation
//! shows up only as re-executions and stale pops.

use crate::sssp::{ParSsspConfig, ParSsspStats};
use rsched_graph::{CsrGraph, Weight, INF};
use rsched_runtime::{run, RuntimeConfig, Scheduler, TaskOutcome};
use std::sync::atomic::{AtomicU64, Ordering};

/// Spawn-buffer capacity of every concurrent SSSP, BFS, label
/// propagation and k-core worker session. A vertex expansion spawns a
/// handful of tasks; 64 parks several expansions' worth, so a flush
/// touches each shard once with a group rather than once per edge, and
/// both the keyed MultiQueue and the relaxed FIFO sessions pop `64 / 8`
/// successors with each claim. The duplicate-insertion MultiQueue has no
/// session buffer and ignores it.
pub(crate) const SPAWN_BATCH: usize = 64;

/// Atomic fetch-min on a value slot; returns `true` if `nd` improved it.
/// A plain read first: most neighbours are already settled, and the read
/// skips their read-modify-write. Values only decrease, so a read at or
/// below `nd` proves no improvement is possible; the read publishes
/// nothing, so it is `Relaxed`. The `AcqRel` fetch-min pairs with the
/// stale check's `Acquire` load in [`relax`].
#[inline]
pub(crate) fn relax_min(slot: &AtomicU64, nd: Weight) -> bool {
    slot.load(Ordering::Relaxed) > nd && slot.fetch_min(nd, Ordering::AcqRel) > nd
}

/// Initial values of a single-source run: 0 at `src`, [`INF`] elsewhere.
pub(crate) fn source(src: usize) -> impl Fn(usize) -> Weight {
    move |v| if v == src { 0 } else { INF }
}

/// Drive `queue` to the fixed point of `d[u] ← min(d[u], step(d[v], w))`
/// from the values `init(v)`; every vertex with a finite initial value
/// is seeded as a task. The handler drops a task whose value is stale,
/// otherwise relaxes every outgoing edge and spawns the improved
/// neighbours.
pub(crate) fn relax<S: Scheduler<Weight>>(
    g: &CsrGraph,
    cfg: ParSsspConfig,
    queue: &S,
    init: impl Fn(usize) -> Weight,
    step: impl Fn(Weight, Weight) -> Weight + Sync,
) -> ParSsspStats {
    assert!(cfg.threads >= 1 && cfg.queue_multiplier >= 1);
    let dist: Vec<AtomicU64> = (0..g.num_vertices())
        .map(|v| AtomicU64::new(init(v)))
        .collect();
    let seeds = dist.iter().enumerate().filter_map(|(v, d)| {
        let d = d.load(Ordering::Relaxed);
        (d != INF).then_some((v, d))
    });
    let stats = run(
        queue,
        RuntimeConfig {
            threads: cfg.threads,
            seed: cfg.seed,
            spawn_batch: SPAWN_BATCH,
        },
        seeds,
        |w, v, d| {
            if d > dist[v].load(Ordering::Acquire) {
                return TaskOutcome::Stale;
            }
            for (u, wt) in g.neighbors(v) {
                let nd = step(d, wt);
                if relax_min(&dist[u], nd) {
                    w.spawn(u, nd);
                }
            }
            TaskOutcome::Executed
        },
    );
    ParSsspStats {
        dist: dist.into_iter().map(|d| d.into_inner()).collect(),
        executed: stats.total.executed,
        pops: stats.total.pops,
        stale: stats.total.stale,
        home_hits: stats.total.home_hits,
        steals: stats.total.steals,
        wall: stats.wall,
    }
}
