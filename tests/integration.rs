//! Cross-crate integration tests: full pipelines from graph/point
//! generation through relaxed execution to verified results.

use relaxed_schedulers::prelude::*;
use rsched_graph::analysis;

/// Every scheduler family must drive SSSP to the exact distances on every
/// graph family, whatever the relaxation.
#[test]
fn sssp_every_scheduler_every_graph() {
    let graphs: Vec<(&str, CsrGraph)> = vec![
        ("random", random_gnm(400, 2000, 1..=100, 1)),
        ("road", grid_road(20, 20, 2)),
        ("social", power_law(400, 4, 1..=100, 3)),
        ("path", path_graph(200, 7)),
        ("star", star_graph(200, 3)),
        ("buckets", bucket_chain(20, 8, 5)),
    ];
    for (name, g) in &graphs {
        let want = dijkstra(g, 0).dist;
        assert_eq!(bellman_ford(g, 0), want, "{name}: bellman-ford");
        assert_eq!(
            delta_stepping(g, 0, 50).dist,
            want,
            "{name}: delta-stepping"
        );

        let s = relaxed_sssp_seq(g, 0, &mut Exact(IndexedBinaryHeap::new()));
        assert_eq!(s.dist, want, "{name}: exact queue");
        let s = relaxed_sssp_seq(g, 0, &mut SimMultiQueue::keyed(16, 4));
        assert_eq!(s.dist, want, "{name}: sim multiqueue");
        let s = relaxed_sssp_seq(g, 0, &mut RotatingKQueue::new(12));
        assert_eq!(s.dist, want, "{name}: rotating-k");
        let s = relaxed_sssp_seq(g, 0, &mut SprayList::new(8, 5));
        assert_eq!(s.dist, want, "{name}: spraylist");
        let s = relaxed_sssp_seq(
            g,
            0,
            &mut AdversarialScheduler::new(10, AdversaryStrategy::MaxRank),
        );
        assert_eq!(s.dist, want, "{name}: adversarial");

        let s = parallel_sssp(
            g,
            0,
            ParSsspConfig {
                threads: 4,
                queue_multiplier: 2,
                seed: 6,
            },
        );
        assert_eq!(s.dist, want, "{name}: concurrent multiqueue");
        let s = parallel_sssp_duplicates(
            g,
            0,
            ParSsspConfig {
                threads: 4,
                queue_multiplier: 2,
                seed: 7,
            },
        );
        assert_eq!(s.dist, want, "{name}: concurrent duplicates");
    }
}

/// The three incremental algorithms produce scheduler-independent results
/// under dependency-respecting relaxed execution.
#[test]
fn incremental_algorithms_are_deterministic_under_relaxation() {
    // Sorting.
    let n = 800;
    for seed in 0..3u64 {
        let mut alg = BstSort::random(n, 42);
        run_relaxed(&mut alg, &mut SimMultiQueue::new(16, seed));
        assert_eq!(alg.in_order_keys(), (0..n as u64).collect::<Vec<_>>());
    }
    // Delaunay: mesh size and validity are order-independent.
    let pts = random_points(300, 1 << 14, 9);
    let mut exact = DelaunayIncremental::from_points(pts.clone());
    run_exact(&mut exact);
    for seed in 0..2u64 {
        let mut relaxed = DelaunayIncremental::from_points(pts.clone());
        run_relaxed(&mut relaxed, &mut SimMultiQueue::new(8, seed));
        let st = relaxed.state();
        st.check_invariants();
        st.mesh().check_delaunay(st.inserted_flags());
        assert_eq!(st.mesh().num_alive(), exact.state().mesh().num_alive());
    }
    // MIS / coloring equal the sequential reference exactly.
    let g = random_gnm(300, 1200, 1..=10, 5);
    let mut mis = GreedyMis::new(&g, 8);
    run_relaxed(&mut mis, &mut SimMultiQueue::new(8, 1));
    let mut mis2 = GreedyMis::new(&g, 8);
    run_exact(&mut mis2);
    assert_eq!(mis.independent_set(), mis2.independent_set());
}

/// The transactional model with real dependency oracles: everything
/// commits, and the abort count stays inside the Theorem 4.3 envelope
/// `k²(C + k)² · ln n`, with `C` the observed interval contention. BST
/// sorting runs under the random and the max-label (adversarial)
/// dispenser across transaction durations 1–16, which sweeps `C`;
/// Delaunay runs with its cavity-dependency oracle.
#[test]
fn transactional_bst_sort_within_thm43() {
    fn check(what: &str, n: usize, cfg: TxConfig, stats: TxStats) {
        assert_eq!(stats.commits, n as u64, "{what} {cfg:?}: lost commits");
        let bound = rsched_core::theory::thm43_aborts(cfg.k, stats.max_contention, n);
        assert!(
            (stats.aborts as f64) < bound,
            "{what} {cfg:?}: aborts {} outside Theorem 4.3 envelope {bound}",
            stats.aborts
        );
    }
    let n = 2000;
    let alg = BstSort::random(n, 11);
    for strategy in [TxStrategy::Random, TxStrategy::MaxLabel] {
        for duration in [1, 2, 4, 8, 16] {
            let cfg = TxConfig {
                k: 8,
                duration,
                strategy,
                seed: 5,
            };
            check(
                "BST sort",
                n,
                cfg,
                run_transactional(n, |i, j| alg.depends(i, j), cfg),
            );
        }
    }
    let n = 500;
    let deps = DelaunayIncremental::dependency_lists(&random_points(n, 1 << 20, 13));
    let oracle = |i: usize, j: usize| deps[j].binary_search(&(i as u32)).is_ok();
    for strategy in [TxStrategy::Random, TxStrategy::MaxLabel] {
        let cfg = TxConfig {
            k: 8,
            duration: 4,
            strategy,
            seed: 9,
        };
        check("Delaunay", n, cfg, run_transactional(n, oracle, cfg));
    }
}

/// End-to-end instrumentation: wrap the MultiQueue in a RankTracker during
/// a full SSSP run and sanity-check the measured relaxation.
#[test]
fn instrumented_sssp_measures_sane_ranks() {
    let g = grid_road(16, 16, 3);
    let mut q = RankTracker::new(SimMultiQueue::keyed(8, 2));
    let stats = relaxed_sssp_seq(&g, 0, &mut q);
    assert_eq!(stats.dist, dijkstra(&g, 0).dist);
    let rs = q.stats();
    assert!(rs.peeks > 0);
    assert!(rs.mean_rank() >= 1.0);
    // Two-choice over 8 queues: ranks concentrate near the front.
    assert!(
        rs.rank_quantile(0.5) <= 8,
        "median rank {}",
        rs.rank_quantile(0.5)
    );
}

/// The generated graph families have the structural properties the paper's
/// explanation of Figure 1 rests on.
#[test]
fn graph_families_match_paper_shape() {
    let road = grid_road(40, 40, 1);
    let social = power_law(1600, 6, 1..=100, 1);
    let random = random_gnm(1600, 16_000, 1..=100, 1);
    let d_road = analysis::hop_diameter_estimate(&road, 2);
    let d_social = analysis::hop_diameter_estimate(&social, 2);
    let d_random = analysis::hop_diameter_estimate(&random, 2);
    assert!(
        d_road > 4 * d_social.max(d_random),
        "road diameter {d_road} must dwarf social {d_social} / random {d_random}"
    );
    let (_, _, cv_road) = analysis::weight_stats(&road).unwrap();
    let (_, _, cv_random) = analysis::weight_stats(&random).unwrap();
    assert!(cv_road > cv_random, "road weight variance must be higher");
}

/// Workspace-level wiring: the umbrella prelude exposes a working surface.
#[test]
fn prelude_surface_works() {
    let g = random_gnm(100, 400, 1..=100, 0);
    let exact = dijkstra(&g, 0);
    let par = parallel_sssp(&g, 0, ParSsspConfig::default());
    assert_eq!(exact.dist, par.dist);
    let mut alg = BstSort::random(50, 0);
    let stats = run_relaxed(&mut alg, &mut RotatingKQueue::new(3));
    assert_eq!(stats.processed, 50);
}
