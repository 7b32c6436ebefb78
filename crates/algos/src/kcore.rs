//! Greedy k-core decomposition over a relaxed FIFO work queue.
//!
//! The *k-core* of a graph is its unique maximal subgraph in which every
//! vertex has degree at least `k`; it is computed by *peeling*:
//! repeatedly delete any vertex of degree `< k`. Peeling is
//! order-independent — whatever order vertices are deleted in, the fixed
//! point is the same — which makes it the ideal stress case for a
//! relaxed FIFO scheduler: the queue's rank errors reorder deletions
//! freely and the result is still exactly the sequential k-core.
//!
//! Each vertex enters the work queue at most once (the thread whose
//! decrement moves the degree from `k` to `k − 1` enqueues it, and
//! initially sub-`k` vertices are seeded), so unlike SSSP/BFS there are
//! no stale or extra pops: the interesting statistics are the steal
//! counts and per-worker pop balance from the runtime.
//!
//! The graph is expected to be symmetric (undirected edges inserted in
//! both directions, as the workspace's generators do); on an asymmetric
//! graph both the parallel and sequential versions peel by out-degree,
//! and they still agree.

use crate::relax::SPAWN_BATCH;
use crate::sssp::ParSsspConfig;
use rsched_graph::CsrGraph;
use rsched_queues::{DCboQueue, QueueBuilder};
use rsched_runtime::{run, RuntimeConfig, TaskOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Result of a concurrent k-core peel.
#[derive(Clone, Debug)]
pub struct KcoreStats {
    /// `in_core[v]` = vertex survives in the k-core.
    pub in_core: Vec<bool>,
    /// Vertices peeled away.
    pub removed: u64,
    /// Work-queue pops (= removed: every pop peels exactly one vertex).
    pub pops: u64,
    /// Pops stolen from a foreign shard of the d-CBO queue.
    pub steals: u64,
    /// Worker wall-clock time.
    pub wall: Duration,
}

/// Sequential reference peel: the unique k-core via queue-based peeling.
///
/// # Examples
///
/// ```
/// use rsched_algos::kcore_sequential;
/// use rsched_graph::gen::complete_graph;
///
/// // K5 is its own 4-core; asking for the 5-core peels everything.
/// let g = complete_graph(5, 1..=2, 0);
/// assert!(kcore_sequential(&g, 4).iter().all(|&c| c));
/// assert!(kcore_sequential(&g, 5).iter().all(|&c| !c));
/// ```
pub fn kcore_sequential(g: &CsrGraph, k: u64) -> Vec<bool> {
    let n = g.num_vertices();
    let mut deg: Vec<u64> = (0..n).map(|v| g.neighbors(v).count() as u64).collect();
    let mut removed = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&v| deg[v] < k).collect();
    for &v in &queue {
        removed[v] = true;
    }
    while let Some(v) = queue.pop_front() {
        for (u, _) in g.neighbors(v) {
            if !removed[u] {
                deg[u] -= 1;
                if deg[u] < k {
                    removed[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    removed.iter().map(|&r| !r).collect()
}

/// Concurrent k-core peel over a relaxed FIFO work queue
/// (`shards = threads × queue_multiplier`).
///
/// Exactly equal to [`kcore_sequential`] on every graph — peeling is
/// confluent — while the deletions themselves run relaxed and parallel.
///
/// # Examples
///
/// ```
/// use rsched_algos::{parallel_kcore, kcore_sequential, ParSsspConfig};
/// use rsched_graph::gen::random_gnm;
///
/// let g = random_gnm(400, 2400, 1..=10, 8);
/// let stats = parallel_kcore(&g, 3, ParSsspConfig::default());
/// assert_eq!(stats.in_core, kcore_sequential(&g, 3));
/// ```
pub fn parallel_kcore(g: &CsrGraph, k: u64, cfg: ParSsspConfig) -> KcoreStats {
    assert!(cfg.threads >= 1 && cfg.queue_multiplier >= 1);
    let n = g.num_vertices();
    let deg: Vec<AtomicU64> = (0..n)
        .map(|v| AtomicU64::new(g.neighbors(v).count() as u64))
        .collect();
    let queue: DCboQueue<(usize, u64)> = QueueBuilder::new(cfg.threads * cfg.queue_multiplier)
        .seed(cfg.seed)
        .d_cbo();
    let seeds: Vec<(usize, u64)> = (0..n)
        .filter(|&v| deg[v].load(Ordering::Relaxed) < k)
        .map(|v| (v, 0))
        .collect();
    let processed: Vec<std::sync::atomic::AtomicBool> = (0..n)
        .map(|_| std::sync::atomic::AtomicBool::new(false))
        .collect();
    let stats = run(
        &queue,
        RuntimeConfig {
            threads: cfg.threads,
            seed: cfg.seed,
            spawn_batch: SPAWN_BATCH,
        },
        seeds,
        |w, v, _| {
            let was = processed[v].swap(true, Ordering::AcqRel);
            debug_assert!(!was, "vertex {v} peeled twice");
            for (u, _) in g.neighbors(v) {
                // The thread whose decrement crosses the k threshold owns
                // the enqueue, so each vertex is queued at most once.
                // Degrees of already-peeled neighbours keep decreasing
                // below k - 1; they never re-cross.
                if deg[u].fetch_sub(1, Ordering::AcqRel) == k {
                    w.spawn(u, 0);
                }
            }
            TaskOutcome::Executed
        },
    );
    let in_core: Vec<bool> = processed
        .iter()
        .map(|p| !p.load(Ordering::Acquire))
        .collect();
    KcoreStats {
        removed: stats.total.executed,
        pops: stats.total.pops,
        steals: stats.total.steals,
        wall: stats.wall,
        in_core,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::gen::{complete_graph, grid_road, power_law, random_gnm, star_graph};

    #[test]
    fn matches_sequential_on_graph_families() {
        let graphs = [
            random_gnm(800, 4800, 1..=10, 1),
            grid_road(25, 25, 2),
            power_law(800, 6, 1..=10, 3),
            star_graph(200, 1),
            complete_graph(40, 1..=5, 4),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for k in [1u64, 2, 3, 5, 8] {
                let want = kcore_sequential(g, k);
                for threads in [1usize, 4] {
                    let got = parallel_kcore(
                        g,
                        k,
                        ParSsspConfig {
                            threads,
                            queue_multiplier: 2,
                            seed: k ^ 7,
                        },
                    );
                    assert_eq!(got.in_core, want, "family {i}, k {k}, threads {threads}");
                    let removed = want.iter().filter(|&&c| !c).count() as u64;
                    assert_eq!(got.removed, removed, "family {i}, k {k}");
                    assert_eq!(got.pops, got.removed, "peeling has no wasted pops");
                }
            }
        }
    }

    #[test]
    fn grid_cores_match_degeneracy() {
        // A 2-D grid has minimum degree 2 (corners) and is 2-degenerate:
        // the 2-core is the whole grid and the 3-core is empty — the peel
        // cascades from the corners through the interior.
        let g = grid_road(10, 10, 0);
        let core2 = parallel_kcore(&g, 2, ParSsspConfig::default());
        assert!(core2.in_core.iter().all(|&c| c), "2-core is the whole grid");
        let core3 = parallel_kcore(&g, 3, ParSsspConfig::default());
        assert!(core3.in_core.iter().all(|&c| !c), "grids are 2-degenerate");
    }

    #[test]
    fn seed_and_thread_sweep_is_deterministic() {
        let g = random_gnm(500, 3000, 1..=10, 17);
        let want = kcore_sequential(&g, 4);
        for seed in 0..4 {
            for threads in [2usize, 8] {
                let got = parallel_kcore(
                    &g,
                    4,
                    ParSsspConfig {
                        threads,
                        queue_multiplier: 2,
                        seed,
                    },
                );
                assert_eq!(got.in_core, want, "seed {seed} threads {threads}");
            }
        }
    }
}
