//! Parallel Δ-stepping (Meyer & Sanders 2003) — the bucket-synchronous
//! baseline the paper's Theorem 6.1 analysis is modelled on.
//!
//! Where the relaxed SSSP of [`crate::sssp`] lets a MultiQueue *implicitly*
//! relax the processing order, Δ-stepping makes the relaxation explicit:
//! vertices within one Δ-wide distance bucket are processed in parallel in
//! any order. Comparing the two engines on the same graphs shows they waste
//! work for the same reason (re-processing vertices whose tentative
//! distance later improves) — which is exactly the correspondence the
//! Theorem 6.1 proof exploits.
//!
//! [`parallel_delta_stepping`] is bucket-synchronous: a coordinator
//! advances through buckets; each light-edge iteration and the final
//! heavy-edge pass fan the current frontier out over the runtime's
//! fork-join helper ([`rsched_runtime::map_chunks`]), whose workers
//! relax edges with the same atomic fetch-min as the task-parallel
//! kernel (`relax.rs`) and collect bucket insertions locally.

use crate::relax::relax_min;
use rsched_graph::{CsrGraph, Weight, INF};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of a parallel Δ-stepping run.
#[derive(Clone, Debug)]
pub struct ParDeltaStats {
    /// Final distances (exact shortest paths).
    pub dist: Vec<Weight>,
    /// Vertex processings (including re-processings at improved distances).
    pub pops: u64,
    /// Worker wall-clock time.
    pub wall: Duration,
}

/// Frontiers smaller than this per thread are processed inline: forking a
/// thread scope costs more than relaxing a few hundred edges, and
/// bucket-synchronous SSSP on high-diameter graphs produces thousands of
/// tiny frontiers (the classic Δ-stepping hybridization).
const SEQ_FRONTIER_PER_THREAD: usize = 256;

/// Parallel Δ-stepping from `src` with bucket width `delta` on `threads`
/// worker threads.
///
/// # Examples
///
/// ```
/// use rsched_algos::delta_par::parallel_delta_stepping;
/// use rsched_graph::{gen::grid_road, dijkstra};
///
/// let g = grid_road(16, 16, 1);
/// let r = parallel_delta_stepping(&g, 0, 500, 4);
/// assert_eq!(r.dist, dijkstra(&g, 0).dist);
/// ```
pub fn parallel_delta_stepping(
    g: &CsrGraph,
    src: usize,
    delta: Weight,
    threads: usize,
) -> ParDeltaStats {
    assert!(delta >= 1 && threads >= 1);
    let n = g.num_vertices();
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    dist[src].store(0, Ordering::Release);
    // last_processed[v] = distance at which v was last processed, for
    // duplicate-entry filtering (INF = never).
    let last_processed: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF)).collect();
    let mut buckets: Vec<Vec<usize>> = vec![vec![src]];
    let mut pops = 0u64;
    let start = Instant::now();
    let mut bi = 0usize;
    while bi < buckets.len() {
        let mut settled: Vec<usize> = Vec::new();
        // --- Light-edge iterations within the bucket.
        loop {
            let frontier = std::mem::take(&mut buckets[bi]);
            if frontier.is_empty() {
                break;
            }
            let workers = if frontier.len() < SEQ_FRONTIER_PER_THREAD * threads {
                1
            } else {
                threads
            };
            let light_pass = |chunk: &[usize]| {
                // (bucket, vertex) insertions, processed vertices, count.
                let mut pushes: Vec<(usize, usize)> = Vec::new();
                let mut processed: Vec<usize> = Vec::new();
                let mut count = 0u64;
                for &v in chunk {
                    let d = dist[v].load(Ordering::Acquire);
                    let vb = (d / delta) as usize;
                    if vb != bi {
                        // Stale entry: requeue if it belongs to a later
                        // bucket (earlier buckets already processed it).
                        if d != INF && vb > bi {
                            pushes.push((vb, v));
                        }
                        continue;
                    }
                    // Claim processing at distance d.
                    if last_processed[v].swap(d, Ordering::AcqRel) == d {
                        continue; // already processed at d
                    }
                    count += 1;
                    processed.push(v);
                    for (u, w) in g.neighbors(v) {
                        if w < delta && relax_min(&dist[u], d + w) {
                            pushes.push((((d + w) / delta) as usize, u));
                        }
                    }
                }
                (pushes, processed, count)
            };
            // (bucket pushes, processed vertices, processing count)
            type LightResult = (Vec<(usize, usize)>, Vec<usize>, u64);
            let results: Vec<LightResult> =
                rsched_runtime::map_chunks(workers, &frontier, light_pass);
            for (pushes, processed, count) in results {
                pops += count;
                settled.extend(processed);
                for (nb, v) in pushes {
                    if nb >= buckets.len() {
                        buckets.resize(nb + 1, Vec::new());
                    }
                    buckets[nb].push(v);
                }
            }
        }
        // --- Heavy edges of the settled set, one parallel pass.
        settled.sort_unstable();
        settled.dedup();
        if !settled.is_empty() {
            let heavy_pass = |chunk: &[usize]| {
                let mut pushes: Vec<(usize, usize)> = Vec::new();
                for &v in chunk {
                    let d = dist[v].load(Ordering::Acquire);
                    for (u, w) in g.neighbors(v) {
                        if w >= delta && relax_min(&dist[u], d + w) {
                            pushes.push((((d + w) / delta) as usize, u));
                        }
                    }
                }
                pushes
            };
            let workers = if settled.len() < SEQ_FRONTIER_PER_THREAD * threads {
                1
            } else {
                threads
            };
            let results: Vec<Vec<(usize, usize)>> =
                rsched_runtime::map_chunks(workers, &settled, heavy_pass);
            for pushes in results {
                for (nb, v) in pushes {
                    if nb >= buckets.len() {
                        buckets.resize(nb + 1, Vec::new());
                    }
                    buckets[nb].push(v);
                }
            }
        }
        bi += 1;
    }
    ParDeltaStats {
        dist: dist.into_iter().map(|d| d.into_inner()).collect(),
        pops,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::dijkstra;
    use rsched_graph::gen::{bucket_chain_weights, grid_road, path_graph, power_law, random_gnm};

    #[test]
    fn matches_dijkstra_across_graphs_and_deltas() {
        let graphs = [
            random_gnm(600, 3000, 1..=100, 1),
            grid_road(20, 20, 2),
            power_law(600, 4, 1..=100, 3),
            path_graph(300, 9),
            bucket_chain_weights(30, 5, 10..=20, 4),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let want = dijkstra(g, 0).dist;
            for delta in [1 as Weight, 37, 500, 1_000_000] {
                for threads in [1usize, 4] {
                    let got = parallel_delta_stepping(g, 0, delta, threads);
                    assert_eq!(
                        got.dist, want,
                        "graph {i}, delta {delta}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn pops_at_least_reachable() {
        let g = grid_road(16, 16, 7);
        let r = parallel_delta_stepping(&g, 0, 100, 4);
        let reachable = r.dist.iter().filter(|&&d| d != INF).count() as u64;
        assert!(r.pops >= reachable);
    }

    #[test]
    fn huge_delta_behaves_like_bellman_ford_rounds() {
        // delta > d_max puts everything in bucket 0; still exact.
        let g = random_gnm(300, 1500, 1..=10, 5);
        let r = parallel_delta_stepping(&g, 0, Weight::MAX / 2, 4);
        assert_eq!(r.dist, dijkstra(&g, 0).dist);
    }

    #[test]
    fn repeated_runs_are_exact_under_contention() {
        let g = grid_road(24, 24, 9);
        let want = dijkstra(&g, 0).dist;
        for threads in [2usize, 8] {
            for _ in 0..3 {
                assert_eq!(parallel_delta_stepping(&g, 0, 700, threads).dist, want);
            }
        }
    }
}
