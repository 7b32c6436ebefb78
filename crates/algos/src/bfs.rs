//! Concurrent unweighted BFS over a relaxed FIFO frontier.
//!
//! The paper's schedulers relax *priority* order; the d-CBO family
//! relaxes *FIFO* order. BFS is the canonical FIFO-scheduled incremental
//! algorithm: the frontier is a queue, and expanding it slightly out of
//! order only costs wasted work, never correctness — a vertex expanded
//! at a provisional (too large) hop count is re-expanded when its true
//! distance arrives, and the monotone `fetch_min` on the distance array
//! guarantees convergence to the exact BFS layering. The same
//! stale-task argument as concurrent SSSP applies with `w ≡ 1`; the rank
//! error of the relaxed FIFO plays the role of the priority rank bound.
//!
//! The task handler is the relaxation kernel BFS shares with SSSP and
//! label propagation (`relax.rs`), with step `d + 1`, driven by the
//! shared `rsched-runtime` worker pool with a [`DCboQueue`] frontier
//! through buffered sessions (`SPAWN_BATCH` = 64, so each claim also
//! parks up to 8 successors): every pop is d-CBO's choice of two, the
//! worker's home shard against a uniform sample, and the statistics
//! count which one won ([`ParSsspStats::home_hits`] /
//! [`ParSsspStats::steals`]).

use crate::relax::{relax, source};
use crate::sssp::{ParSsspConfig, ParSsspStats};
use rsched_graph::{CsrGraph, Weight};
use rsched_queues::{DCboQueue, QueueBuilder};

/// Concurrent BFS: hop distances from `src` via a relaxed FIFO frontier
/// (`shards = threads × queue_multiplier`).
///
/// The returned distances are **exactly** the sequential
/// [`bfs`](rsched_graph::bfs) layering, whatever the relaxation — only
/// the executed/pops overhead varies.
///
/// # Examples
///
/// ```
/// use rsched_algos::{parallel_bfs, ParSsspConfig};
/// use rsched_graph::{bfs, gen::random_gnm};
///
/// let g = random_gnm(500, 2500, 1..=10, 3);
/// let stats = parallel_bfs(&g, 0, ParSsspConfig { threads: 4, queue_multiplier: 2, seed: 5 });
/// assert_eq!(stats.dist, bfs(&g, 0));
/// assert!(stats.overhead() >= 1.0);
/// ```
pub fn parallel_bfs(g: &CsrGraph, src: usize, cfg: ParSsspConfig) -> ParSsspStats {
    let frontier: DCboQueue<(usize, Weight)> =
        QueueBuilder::new(cfg.threads * cfg.queue_multiplier)
            .seed(cfg.seed)
            .d_cbo();
    relax(g, cfg, &frontier, source(src), |d, _| d + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::gen::{grid_road, path_graph, power_law, random_gnm, star_graph};
    use rsched_graph::{bfs, GraphBuilder, INF};

    #[test]
    fn matches_sequential_bfs_on_graph_families() {
        let graphs = [
            random_gnm(1000, 5000, 1..=100, 4),
            grid_road(32, 32, 5),
            power_law(1000, 5, 1..=100, 6),
            path_graph(300, 1),
            star_graph(300, 2),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let want = bfs(g, 0);
            for threads in [1usize, 4] {
                let stats = parallel_bfs(
                    g,
                    0,
                    ParSsspConfig {
                        threads,
                        queue_multiplier: 2,
                        seed: 42,
                    },
                );
                assert_eq!(stats.dist, want, "family {i}, threads {threads}");
                let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
                assert!(stats.executed >= reachable, "family {i}");
                assert_eq!(
                    stats.pops,
                    stats.executed + stats.stale,
                    "family {i}: BFS tasks never block"
                );
            }
        }
    }

    #[test]
    fn road_grid_overhead_stays_low() {
        // A long, thin frontier: when one worker's shard order set the
        // schedule, this read overhead 5-12 at 2 threads.
        let g = grid_road(300, 300, 1);
        let stats = parallel_bfs(
            &g,
            0,
            ParSsspConfig {
                threads: 2,
                queue_multiplier: 2,
                seed: 42,
            },
        );
        assert_eq!(stats.dist, bfs(&g, 0));
        assert!(stats.overhead() < 2.0, "overhead {}", stats.overhead());
    }

    #[test]
    fn disconnected_components_stay_unreached() {
        let mut b = GraphBuilder::new(8);
        b.add_undirected_edge(0, 1, 1);
        b.add_undirected_edge(1, 2, 1);
        b.add_undirected_edge(5, 6, 1);
        let g = b.build();
        let stats = parallel_bfs(&g, 0, ParSsspConfig::default());
        assert_eq!(stats.dist[..3], [0, 1, 2]);
        assert_eq!(stats.dist[5], INF);
        assert_eq!(stats.executed, 3);
    }

    #[test]
    fn seed_sweep_is_always_exact() {
        let g = random_gnm(600, 3600, 1..=10, 9);
        let want = bfs(&g, 0);
        for seed in 0..5 {
            let stats = parallel_bfs(
                &g,
                0,
                ParSsspConfig {
                    threads: 8,
                    queue_multiplier: 2,
                    seed,
                },
            );
            assert_eq!(stats.dist, want, "seed {seed}");
        }
    }
}
