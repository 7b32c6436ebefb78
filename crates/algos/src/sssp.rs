//! SSSP under relaxed scheduling (Section 6, Algorithm 3; experiments of
//! Section 7).
//!
//! Three executors:
//!
//! * [`relaxed_sssp_seq`] — Algorithm 3 verbatim in the **sequential
//!   model**: one processor, any [`RelaxedQueue`] with `DecreaseKey`
//!   (adversarial, MultiQueue, SprayList, rotating, or exact). The returned
//!   pop count is the quantity Theorem 6.1 bounds by
//!   `n + O(k² · d_max / w_min)`.
//! * [`parallel_sssp`] — the **concurrent** variant behind Figures 1 and 2:
//!   worker threads share an atomic distance array and a keyed
//!   [`ConcurrentMultiQueue`] — the paper's design: `queues = multiplier ×
//!   threads` sequential indexed heaps, each behind a try-lock, items
//!   hashed consistently to their heap so `push_or_decrease` finds them.
//!   Workers reach it through buffered sessions (`SPAWN_BATCH` = 64):
//!   relaxed neighbours park in a spawn buffer that is published one lock
//!   acquisition per touched shard, and the winning shard of a
//!   choice-of-two hands over its minimum plus eight successors under one
//!   acquisition. Scheduling, termination detection and statistics come
//!   from the shared `rsched-runtime` worker pool, and the task handler is
//!   the relaxation kernel SSSP shares with BFS and label propagation
//!   (`relax.rs`).
//! * [`parallel_sssp_duplicates`] — the DecreaseKey **ablation** (Section
//!   6's discussion): same algorithm over a duplicate-insertion MultiQueue,
//!   where outdated copies show up as stale pops instead of being updated
//!   in place.
//!
//! Correctness argument for the concurrent variant: `dist[v]` only ever
//! decreases (fetch-min), every successful decrease enqueues `v`, and a
//! vertex popped at priority `d > dist[v]` is discarded, so the distances
//! converge to the true shortest paths and the queue drains — the classic
//! argument the paper refers to ("the distance at each vertex is guaranteed
//! to eventually converge to the minimum").
//!
//! The buffers are extra relaxation on top of the MultiQueue's own
//! `O(q log q)`: a worker runs up to 64 spawns and 8 pops ahead of what
//! the other workers can see. On the random and power-law graphs that
//! costs no measurable extra work (overhead 1.0000 at 2 threads); on
//! road-like grids, whose frontier is a thin band, running ahead of it
//! means expanding vertices at provisional distances and shows as
//! overhead (the numbers are in the decision record of
//! `ci/baselines/README.md`).
//!
//! [`ConcurrentMultiQueue`]: rsched_queues::ConcurrentMultiQueue

use crate::relax::{relax, source};
use rsched_graph::{CsrGraph, Weight, INF};
use rsched_queues::{DuplicateMultiQueue, QueueBuilder, RelaxedQueue};
use std::time::Duration;

/// Result of a sequential-model relaxed SSSP run.
#[derive(Clone, Debug)]
pub struct SeqSsspStats {
    /// Final distances (exact shortest paths).
    pub dist: Vec<Weight>,
    /// Total `Q_k.pop()` operations — the Theorem 6.1 quantity.
    pub pops: u64,
    /// Pops that performed edge relaxations (vertex processings).
    pub executed: u64,
    /// Pops discarded because the popped distance was outdated.
    pub stale: u64,
    /// Edge relaxations that improved a distance.
    pub relaxations: u64,
}

impl SeqSsspStats {
    /// `pops / reachable` — overhead relative to the exact scheduler, which
    /// pops each reachable vertex exactly once.
    pub fn overhead(&self) -> f64 {
        let reachable = self.dist.iter().filter(|&&d| d != INF).count();
        if reachable == 0 {
            return 1.0;
        }
        self.pops as f64 / reachable as f64
    }
}

/// Algorithm 3 of the paper against any relaxed queue with `DecreaseKey`.
///
/// # Examples
///
/// ```
/// use rsched_algos::relaxed_sssp_seq;
/// use rsched_graph::{gen::random_gnm, dijkstra};
/// use rsched_queues::SimMultiQueue;
///
/// let g = random_gnm(300, 1500, 1..=100, 5);
/// let stats = relaxed_sssp_seq(&g, 0, &mut SimMultiQueue::keyed(8, 3));
/// assert_eq!(stats.dist, dijkstra(&g, 0).dist);
/// assert!(stats.pops >= stats.executed);
/// ```
pub fn relaxed_sssp_seq<Q: RelaxedQueue<Weight>>(
    g: &CsrGraph,
    src: usize,
    queue: &mut Q,
) -> SeqSsspStats {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    dist[src] = 0;
    queue.insert(src, 0);
    let mut stats = SeqSsspStats {
        dist: Vec::new(),
        pops: 0,
        executed: 0,
        stale: 0,
        relaxations: 0,
    };
    while let Some((v, cur_dist)) = queue.pop_relaxed() {
        stats.pops += 1;
        if cur_dist > dist[v] {
            stats.stale += 1;
            continue; // outdated entry (only possible without DecreaseKey)
        }
        stats.executed += 1;
        for (u, w) in g.neighbors(v) {
            let nd = cur_dist + w;
            if nd < dist[u] {
                stats.relaxations += 1;
                if queue.contains(u) {
                    let ok = queue.decrease_key(u, nd);
                    debug_assert!(ok);
                } else {
                    queue.insert(u, nd);
                }
                dist[u] = nd;
            }
        }
    }
    stats.dist = dist;
    stats
}

/// Configuration for the concurrent SSSP executors.
#[derive(Clone, Copy, Debug)]
pub struct ParSsspConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Internal queues = `queue_multiplier × threads` (the paper uses 2 for
    /// Figure 1 and sweeps 1..8 in Figure 2).
    pub queue_multiplier: usize,
    /// Base RNG seed (per-thread seeds derive from it).
    pub seed: u64,
}

impl Default for ParSsspConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            queue_multiplier: 2,
            seed: 0,
        }
    }
}

/// Result of a concurrent relaxation run: SSSP, BFS or label
/// propagation (see `relax.rs`).
#[derive(Clone, Debug)]
pub struct ParSsspStats {
    /// Final values: shortest-path distances, BFS hop counts, or the
    /// minimum vertex id of each vertex's component.
    pub dist: Vec<Weight>,
    /// Tasks processed (pops that performed edge relaxation) — the
    /// numerator of the paper's Figure 1 *overhead* metric.
    pub executed: u64,
    /// Total pops, including stale ones.
    pub pops: u64,
    /// Stale pops (outdated value at pop time).
    pub stale: u64,
    /// Pops served by a worker's own home shard of a relaxed FIFO, or by
    /// a MultiQueue session's deletion buffer.
    pub home_hits: u64,
    /// Pops stolen from a foreign shard of a relaxed FIFO.
    pub steals: u64,
    /// Wall-clock execution time (workers only, excluding graph setup).
    pub wall: Duration,
}

impl ParSsspStats {
    /// `executed / reachable` — the paper's relaxation overhead ("the
    /// average number of tasks executed in a concurrent execution divided by
    /// the number of tasks executed in a sequential execution").
    pub fn overhead(&self) -> f64 {
        let reachable = self.dist.iter().filter(|&&d| d != INF).count();
        if reachable == 0 {
            return 1.0;
        }
        self.executed as f64 / reachable as f64
    }
}

/// Concurrent SSSP over a keyed
/// [`ConcurrentMultiQueue`](rsched_queues::ConcurrentMultiQueue) with
/// `push_or_decrease` (the Section 7 experiment engine): try-locked
/// sequential heaps, items hashed consistently to their shard, driven
/// through buffered worker sessions (see the module docs).
///
/// # Examples
///
/// ```
/// use rsched_algos::{parallel_sssp, ParSsspConfig};
/// use rsched_graph::{gen::random_gnm, dijkstra};
///
/// let g = random_gnm(500, 2500, 1..=100, 9);
/// let stats = parallel_sssp(&g, 0, ParSsspConfig { threads: 4, queue_multiplier: 2, seed: 1 });
/// assert_eq!(stats.dist, dijkstra(&g, 0).dist);
/// ```
pub fn parallel_sssp(g: &CsrGraph, src: usize, cfg: ParSsspConfig) -> ParSsspStats {
    let queue = QueueBuilder::new(cfg.threads * cfg.queue_multiplier)
        .universe(g.num_vertices())
        .multiqueue::<Weight>();
    relax(g, cfg, &queue, source(src), |d, w| d + w)
}

/// The DecreaseKey ablation: concurrent SSSP over a duplicate-insertion
/// MultiQueue (no in-place updates; every improvement enqueues a fresh
/// copy, and outdated copies surface as stale pops).
pub fn parallel_sssp_duplicates(g: &CsrGraph, src: usize, cfg: ParSsspConfig) -> ParSsspStats {
    let queue = DuplicateMultiQueue::<Weight>::new(cfg.threads * cfg.queue_multiplier);
    relax(g, cfg, &queue, source(src), |d, w| d + w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_core::{AdversarialScheduler, AdversaryStrategy};
    use rsched_graph::analysis::num_reachable;
    use rsched_graph::gen::{bucket_chain, grid_road, path_graph, power_law, random_gnm};
    use rsched_graph::{dijkstra, GraphBuilder};
    use rsched_queues::{Exact, IndexedBinaryHeap, RotatingKQueue, SimMultiQueue, SprayList};

    #[test]
    fn seq_exact_queue_matches_dijkstra_with_n_pops() {
        let g = random_gnm(400, 2000, 1..=100, 1);
        let want = dijkstra(&g, 0);
        let stats = relaxed_sssp_seq(&g, 0, &mut Exact(IndexedBinaryHeap::new()));
        assert_eq!(stats.dist, want.dist);
        assert_eq!(
            stats.pops, want.pops,
            "exact scheduler pops once per vertex"
        );
        assert_eq!(stats.stale, 0);
        assert!((stats.overhead() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seq_correct_under_every_scheduler() {
        let g = grid_road(20, 20, 2);
        let want = dijkstra(&g, 0).dist;
        let stats = relaxed_sssp_seq(&g, 0, &mut SimMultiQueue::keyed(8, 3));
        assert_eq!(stats.dist, want, "MultiQueue");
        let stats = relaxed_sssp_seq(&g, 0, &mut RotatingKQueue::new(9));
        assert_eq!(stats.dist, want, "RotatingK");
        let stats = relaxed_sssp_seq(&g, 0, &mut SprayList::new(4, 5));
        assert_eq!(stats.dist, want, "SprayList");
        let stats = relaxed_sssp_seq(
            &g,
            0,
            &mut AdversarialScheduler::new(8, AdversaryStrategy::MaxRank),
        );
        assert_eq!(stats.dist, want, "Adversarial MaxRank");
    }

    #[test]
    fn seq_relaxed_does_rework_on_paths() {
        // A long path with a relaxed scheduler: vertices get processed at
        // provisional distances and reprocessed later — pops > n.
        let g = path_graph(500, 5);
        let stats = relaxed_sssp_seq(
            &g,
            0,
            &mut AdversarialScheduler::new(8, AdversaryStrategy::MaxRank),
        );
        assert_eq!(stats.dist, dijkstra(&g, 0).dist);
        assert_eq!(stats.stale, 0, "DecreaseKey leaves no outdated entries");
        // On a directed path each vertex enters the queue exactly once
        // (its distance is final when first relaxed), so pops == n even
        // adversarially. The interesting rework shows on bucket chains:
        let g2 = bucket_chain(50, 4, 10);
        let s2 = relaxed_sssp_seq(
            &g2,
            0,
            &mut AdversarialScheduler::new(16, AdversaryStrategy::MaxRank),
        );
        assert_eq!(s2.dist, dijkstra(&g2, 0).dist);
        assert!(
            s2.executed >= num_reachable(&g2, 0) as u64,
            "each vertex processed at least once"
        );
    }

    #[test]
    fn parallel_matches_dijkstra_on_all_graph_families() {
        let graphs = [
            random_gnm(1000, 5000, 1..=100, 4),
            grid_road(32, 32, 5),
            power_law(1000, 5, 1..=100, 6),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let want = dijkstra(g, 0).dist;
            let stats = parallel_sssp(
                g,
                0,
                ParSsspConfig {
                    threads: 4,
                    queue_multiplier: 2,
                    seed: 42,
                },
            );
            assert_eq!(stats.dist, want, "graph family {i}");
            let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
            assert!(stats.executed >= reachable);
            assert!(stats.overhead() >= 1.0);
        }
    }

    #[test]
    fn parallel_single_thread_single_queue_stays_near_exact() {
        let g = random_gnm(500, 2500, 1..=100, 7);
        let stats = parallel_sssp(
            &g,
            0,
            ParSsspConfig {
                threads: 1,
                queue_multiplier: 1,
                seed: 0,
            },
        );
        assert_eq!(stats.dist, dijkstra(&g, 0).dist);
        // One queue is no longer exact order: up to `SPAWN_BATCH` spawns
        // and `SPAWN_BATCH / 8` popped successors are parked in the
        // session while the worker runs ahead of them.
        assert!(stats.overhead() <= 1.05, "overhead {}", stats.overhead());
    }

    #[test]
    fn parallel_exactness_matrix() {
        let graphs = [
            ("random_gnm", random_gnm(800, 4000, 1..=100, 21)),
            ("grid_road", grid_road(28, 28, 17)),
            ("power_law", power_law(800, 5, 1..=100, 6)),
        ];
        for (name, g) in &graphs {
            let want = dijkstra(g, 0).dist;
            let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
            for threads in [1usize, 2, 4, 8] {
                let stats = parallel_sssp(
                    g,
                    0,
                    ParSsspConfig {
                        threads,
                        queue_multiplier: 2,
                        seed: 11,
                    },
                );
                assert_eq!(stats.dist, want, "{name}, {threads} threads");
                assert!(stats.executed >= reachable, "{name}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_duplicates_matches_dijkstra() {
        let g = grid_road(24, 24, 8);
        let want = dijkstra(&g, 0).dist;
        let stats = parallel_sssp_duplicates(
            &g,
            0,
            ParSsspConfig {
                threads: 4,
                queue_multiplier: 2,
                seed: 3,
            },
        );
        assert_eq!(stats.dist, want);
        // Without DecreaseKey, stale pops are the norm on dense relaxations.
        assert!(stats.pops >= stats.executed);
    }

    #[test]
    fn parallel_disconnected_source_component() {
        let mut b = GraphBuilder::new(10);
        b.add_undirected_edge(0, 1, 5);
        b.add_undirected_edge(2, 3, 5);
        let g = b.build();
        let stats = parallel_sssp(&g, 0, ParSsspConfig::default());
        assert_eq!(stats.dist[1], 5);
        assert_eq!(stats.dist[2], INF);
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn parallel_stress_many_threads_small_graph() {
        // More threads than useful work: exercises termination detection.
        let g = path_graph(50, 1);
        for seed in 0..3 {
            let stats = parallel_sssp(
                &g,
                0,
                ParSsspConfig {
                    threads: 8,
                    queue_multiplier: 2,
                    seed,
                },
            );
            assert_eq!(stats.dist, dijkstra(&g, 0).dist, "seed {seed}");
        }
    }
}
