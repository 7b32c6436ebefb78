//! Connected components by **min-label propagation** over the keyed
//! MultiQueue.
//!
//! Every vertex starts labelled with its own id; a task `(v, l)` lowers
//! the labels of `v`'s neighbours to `l` and re-spawns the ones it
//! improved. Labels only ever decrease (a `fetch_min`), so the fixed
//! point — every vertex carrying the minimum vertex id of its component
//! — is **confluent**: whatever order the scheduler executes tasks in,
//! the result equals the sequential reference exactly, and the
//! relaxation shows up only as wasted re-propagations (stale pops).
//!
//! It runs the relaxation kernel SSSP and BFS share (`relax.rs`) with
//! step `d` and every vertex a source. The order matters for the work:
//! min-label-first is Dijkstra on labels, and the keyed
//! MultiQueue's `push_or_decrease` merges every re-label of a queued
//! vertex, so each vertex propagates its final label about once. A
//! relaxed FIFO frontier propagated about three times per vertex (the
//! decision record is in `ci/baselines/README.md`).

use crate::relax::relax;
use crate::sssp::{ParSsspConfig, ParSsspStats};
use rsched_graph::{CsrGraph, Weight};
use rsched_queues::QueueBuilder;

/// Sequential reference: min-vertex-id component labels by BFS flooding.
///
/// # Examples
///
/// ```
/// use rsched_algos::label_components;
/// use rsched_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(5);
/// b.add_undirected_edge(0, 3, 1);
/// b.add_undirected_edge(4, 2, 1);
/// let g = b.build();
/// assert_eq!(label_components(&g), vec![0, 1, 2, 0, 2]);
/// ```
pub fn label_components(g: &CsrGraph) -> Vec<u64> {
    let n = g.num_vertices();
    let mut labels: Vec<u64> = vec![u64::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n {
        if labels[root] != u64::MAX {
            continue;
        }
        labels[root] = root as u64;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for (u, _) in g.neighbors(v) {
                if labels[u] == u64::MAX {
                    labels[u] = root as u64;
                    queue.push_back(u);
                }
            }
        }
    }
    labels
}

/// Concurrent connected components: min-label propagation over a keyed
/// [`ConcurrentMultiQueue`](rsched_queues::ConcurrentMultiQueue)
/// (`shards = threads × queue_multiplier`,
/// key = label), exact on every graph. The labels come back in
/// [`ParSsspStats::dist`], and [`ParSsspStats::overhead`] is
/// propagations per vertex.
///
/// The graph is expected to be symmetric (undirected edges inserted in
/// both directions, as the workspace's generators do); propagation then
/// floods each component from its minimum-id vertex.
///
/// # Examples
///
/// ```
/// use rsched_algos::{label_components, parallel_label_propagation, ParSsspConfig};
/// use rsched_graph::gen::random_gnm;
///
/// let g = random_gnm(500, 1200, 1..=10, 3);
/// let stats = parallel_label_propagation(&g, ParSsspConfig::default());
/// assert_eq!(stats.dist, label_components(&g));
/// ```
pub fn parallel_label_propagation(g: &CsrGraph, cfg: ParSsspConfig) -> ParSsspStats {
    let queue = QueueBuilder::new(cfg.threads * cfg.queue_multiplier)
        .universe(g.num_vertices())
        .multiqueue::<Weight>();
    relax(g, cfg, &queue, |v| v as Weight, |l, _| l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::gen::{grid_road, path_graph, power_law, random_gnm, star_graph};
    use rsched_graph::GraphBuilder;

    fn config(threads: usize, seed: u64) -> ParSsspConfig {
        ParSsspConfig {
            threads,
            queue_multiplier: 2,
            seed,
        }
    }

    #[test]
    fn matches_sequential_on_graph_families() {
        let graphs = [
            random_gnm(1000, 1500, 1..=10, 4), // sparse: many components
            grid_road(24, 24, 5),
            power_law(800, 3, 1..=10, 6),
            path_graph(300, 1),
            star_graph(200, 2),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let want = label_components(g);
            for threads in [1usize, 4] {
                let stats = parallel_label_propagation(g, config(threads, 42));
                assert_eq!(stats.dist, want, "family {i}, threads {threads}");
                assert!(stats.executed >= 1, "family {i}");
                assert_eq!(
                    stats.pops,
                    stats.executed + stats.stale,
                    "family {i}: propagation never blocks"
                );
            }
        }
    }

    #[test]
    fn disconnected_components_keep_distinct_labels() {
        let mut b = GraphBuilder::new(9);
        b.add_undirected_edge(0, 1, 1);
        b.add_undirected_edge(1, 2, 1);
        b.add_undirected_edge(5, 6, 1);
        b.add_undirected_edge(7, 8, 1);
        let g = b.build();
        let stats = parallel_label_propagation(&g, ParSsspConfig::default());
        assert_eq!(stats.dist, vec![0, 0, 0, 3, 4, 5, 5, 7, 7]);
    }

    #[test]
    fn thread_and_seed_sweep_is_exact() {
        // The schedule must never change the fixed point — only the
        // wasted-work statistics.
        let g = random_gnm(600, 2400, 1..=10, 9);
        let want = label_components(&g);
        for threads in [1usize, 2, 8] {
            for seed in 0..3u64 {
                let stats = parallel_label_propagation(&g, config(threads, seed ^ 0xA5));
                assert_eq!(stats.dist, want, "threads {threads}, seed {seed}");
            }
        }
    }

    #[test]
    fn batched_burst_spawns_stay_exact() {
        // A star graph floods the hub's entire neighbourhood in one
        // burst — hundreds of spawns from a single handler call, parked
        // and published batch by batch through the session buffer.
        let g = star_graph(400, 1);
        let stats = parallel_label_propagation(&g, config(2, 7));
        assert_eq!(stats.dist, label_components(&g));
        assert!(stats.dist.iter().all(|&l| l == 0), "star is connected");
    }

    #[test]
    fn min_label_first_propagates_each_vertex_about_once() {
        // The work envelope: a relaxed FIFO frontier read overhead ≈ 3
        // here; min-label-first with merged re-labels stays near 1.
        let g = random_gnm(20_000, 60_000, 1..=10, 5);
        let want = label_components(&g);
        for seed in 1..=3u64 {
            let stats = parallel_label_propagation(&g, config(2, seed));
            assert_eq!(stats.dist, want, "seed {seed}");
            assert!(
                stats.overhead() <= 1.25,
                "seed {seed}: overhead {}",
                stats.overhead()
            );
        }
    }
}
