//! Exact sequential shortest-path baselines.
//!
//! * [`dijkstra`] — the classic algorithm with an indexed 4-ary heap and
//!   DecreaseKey. This is the paper's sequential baseline: its processed-task
//!   count (`pops`, one per reachable vertex) is the denominator of the
//!   *overhead* metric in Figure 1 ("the average number of tasks executed in
//!   a concurrent execution divided by the number of tasks executed in a
//!   sequential execution using an exact scheduler").
//! * [`delta_stepping`] — Meyer & Sanders' Δ-stepping, the algorithm whose
//!   bucket argument Theorem 6.1's analysis follows.
//! * [`bellman_ford`] — the O(nm) verifier used by tests and property tests
//!   to certify every other implementation.

use crate::csr::CsrGraph;
use crate::{Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a sequential SSSP run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsspResult {
    /// `dist[v]` = shortest distance from the source, or [`INF`].
    pub dist: Vec<Weight>,
    /// Number of vertices settled (tasks processed). For Dijkstra with
    /// DecreaseKey this equals the number of reachable vertices.
    pub pops: u64,
    /// Number of edge relaxations performed.
    pub relaxations: u64,
}

/// Exact breadth-first search: `dist[v]` = minimum *hop count* from the
/// source (edge weights ignored), or [`INF`] for unreachable vertices.
///
/// The sequential baseline for the relaxed-FIFO frontier BFS in
/// `rsched-algos`: a relaxed FIFO may expand the frontier out of order,
/// but the converged distances must equal this exact sweep.
///
/// # Examples
///
/// ```
/// use rsched_graph::{gen::path_graph, bfs};
///
/// let g = path_graph(4, 10);
/// assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3]);
/// ```
pub fn bfs(g: &CsrGraph, src: usize) -> Vec<Weight> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut frontier = std::collections::VecDeque::new();
    dist[src] = 0;
    frontier.push_back(src);
    while let Some(v) = frontier.pop_front() {
        let d = dist[v];
        for (u, _) in g.neighbors(v) {
            if dist[u] == INF {
                dist[u] = d + 1;
                frontier.push_back(u);
            }
        }
    }
    dist
}

/// Dijkstra's algorithm with a DecreaseKey heap: each vertex is popped at
/// most once, giving the exact-scheduler task count the paper compares
/// relaxed executions against.
///
/// # Examples
///
/// ```
/// use rsched_graph::{gen::path_graph, dijkstra};
///
/// let g = path_graph(4, 10);
/// let r = dijkstra(&g, 0);
/// assert_eq!(r.dist, vec![0, 10, 20, 30]);
/// assert_eq!(r.pops, 4);
/// ```
pub fn dijkstra(g: &CsrGraph, src: usize) -> SsspResult {
    use rsched_queues::{DecreaseKey, IndexedBinaryHeap, PriorityQueue};

    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut heap = IndexedBinaryHeap::with_universe(n);
    dist[src] = 0;
    heap.push(src, 0);
    let mut pops = 0u64;
    let mut relaxations = 0u64;
    while let Some((v, d)) = heap.pop() {
        pops += 1;
        debug_assert_eq!(d, dist[v]);
        for (u, w) in g.neighbors(v) {
            let nd = d + w;
            if nd < dist[u] {
                relaxations += 1;
                if dist[u] == INF {
                    heap.push(u, nd);
                } else {
                    heap.decrease_key(u, nd);
                }
                dist[u] = nd;
            }
        }
    }
    SsspResult {
        dist,
        pops,
        relaxations,
    }
}

/// Meyer & Sanders' Δ-stepping: vertices are processed in buckets of width
/// `delta`; light edges (w < delta) are relaxed iteratively within a bucket,
/// heavy edges once when the bucket is emptied.
///
/// `pops` counts vertex *processings* (a vertex re-entering a bucket after
/// its tentative distance improves is processed again), which is the wasted
/// work Δ-stepping trades for parallel bucket processing — the same
/// trade-off the paper's relaxed SSSP makes implicitly.
pub fn delta_stepping(g: &CsrGraph, src: usize, delta: Weight) -> SsspResult {
    assert!(delta >= 1, "delta must be positive");
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    dist[src] = 0;
    // Buckets hold duplicate entries; stale ones (whose distance no longer
    // maps to the bucket, or which were already processed at their current
    // distance) are skipped on pop. Distances only decrease, and a vertex
    // processed in bucket `bi` has dist >= bi * delta, so improvements never
    // target a bucket earlier than the current one.
    let mut buckets: Vec<Vec<usize>> = vec![vec![src]];
    let mut last_processed = vec![INF; n];
    let mut pops = 0u64;
    let mut relaxations = 0u64;
    let mut bi = 0usize;
    while bi < buckets.len() {
        let mut settled: Vec<usize> = Vec::new();
        while let Some(v) = buckets[bi].pop() {
            if dist[v] / delta != bi as Weight || last_processed[v] == dist[v] {
                continue; // stale or already processed at this distance
            }
            last_processed[v] = dist[v];
            pops += 1;
            settled.push(v);
            let dv = dist[v];
            for (u, w) in g.neighbors(v) {
                if w < delta {
                    let nd = dv + w;
                    if nd < dist[u] {
                        relaxations += 1;
                        dist[u] = nd;
                        let nb = (nd / delta) as usize;
                        debug_assert!(nb >= bi);
                        if nb >= buckets.len() {
                            buckets.resize(nb + 1, Vec::new());
                        }
                        buckets[nb].push(u);
                    }
                }
            }
        }
        // Heavy edges of everything settled in this bucket, once, at the
        // final (settled) distances.
        settled.sort_unstable();
        settled.dedup();
        for &v in &settled {
            let dv = dist[v];
            for (u, w) in g.neighbors(v) {
                if w >= delta {
                    let nd = dv + w;
                    if nd < dist[u] {
                        relaxations += 1;
                        dist[u] = nd;
                        let nb = (nd / delta) as usize;
                        if nb >= buckets.len() {
                            buckets.resize(nb + 1, Vec::new());
                        }
                        buckets[nb].push(u);
                    }
                }
            }
        }
        bi += 1;
    }
    SsspResult {
        dist,
        pops,
        relaxations,
    }
}

/// Bellman–Ford, used as an independent verifier: O(nm), no priority queue,
/// no shared code with the implementations under test.
pub fn bellman_ford(g: &CsrGraph, src: usize) -> Vec<Weight> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    dist[src] = 0;
    for _ in 0..n {
        let mut changed = false;
        for v in 0..n {
            if dist[v] == INF {
                continue;
            }
            for (u, w) in g.neighbors(v) {
                let nd = dist[v] + w;
                if nd < dist[u] {
                    dist[u] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Reference Dijkstra using `std::collections::BinaryHeap` with lazy
/// deletion (duplicate insertions, skip outdated pops). `pops` counts
/// *non-stale* pops; `stale_pops` is returned too, because the difference
/// between this algorithm and [`dijkstra`] is exactly the DecreaseKey
/// ablation of the paper's Section 6 discussion.
pub fn dijkstra_lazy(g: &CsrGraph, src: usize) -> (SsspResult, u64) {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    dist[src] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0 as Weight, src)));
    let mut pops = 0u64;
    let mut stale = 0u64;
    let mut relaxations = 0u64;
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            stale += 1;
            continue;
        }
        pops += 1;
        for (u, w) in g.neighbors(v) {
            let nd = d + w;
            if nd < dist[u] {
                relaxations += 1;
                dist[u] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    (
        SsspResult {
            dist,
            pops,
            relaxations,
        },
        stale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn dijkstra_on_diamond() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 5);
        b.add_edge(1, 2, 1);
        b.add_edge(1, 3, 10);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3]);
        assert_eq!(r.pops, 4);
    }

    #[test]
    fn unreachable_vertices_stay_inf() {
        let g = gen::path_graph(4, 2);
        let r = dijkstra(&g, 2);
        assert_eq!(r.dist, vec![INF, INF, 0, 2]);
        assert_eq!(r.pops, 2);
    }

    #[test]
    fn all_three_agree_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gen::random_gnm(200, 800, 1..=100, seed);
            let d1 = dijkstra(&g, 0).dist;
            let d2 = bellman_ford(&g, 0);
            let d3 = delta_stepping(&g, 0, 25).dist;
            let (d4, _) = dijkstra_lazy(&g, 0);
            assert_eq!(d1, d2, "dijkstra vs bellman-ford, seed {seed}");
            assert_eq!(d1, d3, "dijkstra vs delta-stepping, seed {seed}");
            assert_eq!(d1, d4.dist, "dijkstra vs lazy dijkstra, seed {seed}");
        }
    }

    #[test]
    fn delta_stepping_various_deltas() {
        let g = gen::grid_road(12, 12, 4);
        let want = dijkstra(&g, 0).dist;
        for delta in [1, 7, 100, 5000, 1_000_000] {
            let got = delta_stepping(&g, 0, delta).dist;
            assert_eq!(got, want, "delta = {delta}");
        }
    }

    #[test]
    fn dijkstra_pops_equal_reachable() {
        let g = gen::power_law(500, 3, 1..=100, 8);
        let r = dijkstra(&g, 0);
        let reachable = crate::analysis::num_reachable(&g, 0) as u64;
        assert_eq!(r.pops, reachable);
    }

    #[test]
    fn lazy_dijkstra_does_extra_work() {
        // Lazy deletion re-pops vertices; its pops match (non-stale) but
        // stale pops are generally positive on graphs with many relaxations.
        let g = gen::random_gnm(300, 3000, 1..=100, 2);
        let exact = dijkstra(&g, 0);
        let (lazy, stale) = dijkstra_lazy(&g, 0);
        assert_eq!(exact.dist, lazy.dist);
        assert_eq!(exact.pops, lazy.pops);
        assert!(stale > 0, "dense random graph should produce stale entries");
    }

    #[test]
    fn single_vertex() {
        let g = crate::GraphBuilder::new(1).build();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0]);
        assert_eq!(r.pops, 1);
        assert_eq!(delta_stepping(&g, 0, 10).dist, vec![0]);
    }
}
