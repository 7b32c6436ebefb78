//! Property-based tests over the core invariants of the workspace: queue
//! semantics, scheduler guarantees, algorithm correctness on arbitrary
//! inputs.
//!
//! The environment vendors its dependencies, so instead of the proptest
//! DSL these are seeded random sweeps: each property draws `CASES`
//! independent random instances from a per-case seed and asserts the
//! invariant on every one. Failures print the case seed, which
//! reproduces the instance deterministically.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relaxed_schedulers::prelude::*;

const CASES: u64 = 64;

/// Per-property, per-case generator with a reproducible seed.
fn gen_for(property: &str, case: u64) -> SmallRng {
    let tag: u64 = property.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    SmallRng::seed_from_u64(tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Random edge list of up to `max_edges` edges over `n` vertices.
fn random_edges(
    rng: &mut SmallRng,
    n: usize,
    max_edges: usize,
    max_w: u64,
) -> Vec<(usize, usize, Weight)> {
    let m = rng.gen_range(0..=max_edges);
    (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..max_w),
            )
        })
        .collect()
}

/// Build a small weighted digraph from generated edges.
fn graph_from_edges(n: usize, edges: &[(usize, usize, Weight)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u % n, v % n, w);
    }
    b.build()
}

/// Dijkstra (DecreaseKey heap) equals Bellman–Ford on arbitrary graphs.
#[test]
fn dijkstra_equals_bellman_ford() {
    for case in 0..CASES {
        let mut rng = gen_for("dijkstra_bf", case);
        let n = rng.gen_range(2usize..40);
        let edges = random_edges(&mut rng, 40, 120, 50);
        let g = graph_from_edges(n, &edges);
        assert_eq!(dijkstra(&g, 0).dist, bellman_ford(&g, 0), "case {case}");
    }
}

/// Δ-stepping equals Dijkstra for arbitrary delta.
#[test]
fn delta_stepping_equals_dijkstra() {
    for case in 0..CASES {
        let mut rng = gen_for("delta_stepping", case);
        let n = rng.gen_range(2usize..30);
        let edges = random_edges(&mut rng, 30, 100, 50);
        let delta = rng.gen_range(1u64..100);
        let g = graph_from_edges(n, &edges);
        assert_eq!(
            delta_stepping(&g, 0, delta).dist,
            dijkstra(&g, 0).dist,
            "case {case}"
        );
    }
}

/// The sequential-model relaxed SSSP is exact for any scheduler seed and
/// queue count, on arbitrary graphs.
#[test]
fn relaxed_sssp_exact_on_arbitrary_graphs() {
    for case in 0..CASES {
        let mut rng = gen_for("relaxed_sssp", case);
        let n = rng.gen_range(2usize..30);
        let edges = random_edges(&mut rng, 30, 100, 50);
        let queues = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..1000);
        let g = graph_from_edges(n, &edges);
        let want = dijkstra(&g, 0).dist;
        let got = relaxed_sssp_seq(&g, 0, &mut SimMultiQueue::keyed(queues, seed));
        let reachable = want.iter().filter(|&&d| d != INF).count() as u64;
        assert_eq!(got.dist, want, "case {case}");
        // Theorem 6.1 sanity: pops at least the reachable count.
        assert!(got.pops >= reachable, "case {case}");
    }
}

/// BST-insertion sorting sorts arbitrary distinct key sets under any
/// relaxation.
#[test]
fn bst_sort_sorts_arbitrary_keys() {
    for case in 0..CASES {
        let mut rng = gen_for("bst_sort", case);
        let len = rng.gen_range(1usize..200);
        let mut keys: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..10_000)).collect();
        keys.sort_unstable();
        keys.dedup();
        // Re-shuffle after dedup: insertion order determines the treap
        // shape, and sorted input would degenerate every tree to a chain.
        keys.shuffle(&mut rng);
        let queues = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..100);
        let mut want = keys.clone();
        want.sort_unstable();
        let mut alg = BstSort::from_keys(keys);
        run_relaxed(&mut alg, &mut SimMultiQueue::new(queues, seed));
        assert_eq!(alg.in_order_keys(), want, "case {case}");
    }
}

/// The rotating deterministic scheduler never violates RankBound or
/// Fairness, measured by the instrumentation layer, for arbitrary
/// priorities and k.
#[test]
fn rotating_queue_bounds_always_hold() {
    for case in 0..CASES {
        let mut rng = gen_for("rotating_bounds", case);
        let len = rng.gen_range(1usize..150);
        let k = rng.gen_range(1usize..12);
        let mut q = RankTracker::new(RotatingKQueue::new(k));
        for i in 0..len {
            q.insert(i, rng.gen_range(0u64..1000));
        }
        while let Some((item, _)) = q.peek_relaxed() {
            q.delete(item);
        }
        assert!(q.stats().max_rank <= k, "case {case}");
        assert!(q.stats().max_inv <= (k - 1) as u64, "case {case}");
    }
}

/// The indexed heap agrees with a sorted-model queue on arbitrary op
/// sequences (push/pop/decrease/remove).
#[test]
fn heaps_match_model() {
    for case in 0..CASES {
        let mut rng = gen_for("heaps_model", case);
        let nops = rng.gen_range(1usize..300);
        let mut bh = IndexedBinaryHeap::new();
        let mut model: Vec<(u64, usize)> = Vec::new(); // (prio, item)
        for _ in 0..nops {
            let op = rng.gen_range(0u8..4);
            let item = rng.gen_range(0usize..64);
            let prio = rng.gen_range(0u64..1000);
            match op {
                0 => {
                    if !model.iter().any(|&(_, it)| it == item) {
                        bh.push(item, prio);
                        model.push((prio, item));
                    }
                }
                1 => {
                    model.sort_unstable();
                    let want = model.first().copied().map(|(p, it)| (it, p));
                    assert_eq!(bh.pop(), want, "case {case}");
                    if !model.is_empty() {
                        model.remove(0);
                    }
                }
                2 => {
                    let present = model.iter().position(|&(_, it)| it == item);
                    let expect = match present {
                        Some(idx) if prio < model[idx].0 => {
                            model[idx].0 = prio;
                            true
                        }
                        _ => false,
                    };
                    assert_eq!(bh.decrease_key(item, prio), expect, "case {case}");
                }
                _ => {
                    let present = model.iter().position(|&(_, it)| it == item);
                    let expect = present.map(|idx| model.remove(idx).0);
                    assert_eq!(bh.remove(item), expect, "case {case}");
                }
            }
            assert_eq!(PriorityQueue::len(&bh), model.len(), "case {case}");
        }
    }
}

/// A SimMultiQueue never loses or duplicates elements under arbitrary
/// insert/pop/delete interleavings.
#[test]
fn multiqueue_conservation() {
    for case in 0..CASES {
        let mut rng = gen_for("mq_conservation", case);
        let nops = rng.gen_range(1usize..300);
        let queues = rng.gen_range(1usize..8);
        let mut mq = SimMultiQueue::new(queues, 12345);
        let mut live: std::collections::HashSet<usize> = Default::default();
        let mut popped: std::collections::HashSet<usize> = Default::default();
        for _ in 0..nops {
            let op = rng.gen_range(0u8..3);
            let item = rng.gen_range(0usize..64);
            let prio = rng.gen_range(0u64..1000);
            match op {
                0 => {
                    if !live.contains(&item) {
                        mq.insert(item, prio);
                        live.insert(item);
                        popped.remove(&item);
                    }
                }
                1 => {
                    if let Some((it, _)) = mq.pop_relaxed() {
                        assert!(live.remove(&it), "case {case}: popped non-live item");
                        assert!(popped.insert(it), "case {case}");
                    } else {
                        assert!(live.is_empty(), "case {case}");
                    }
                }
                _ => {
                    let did = mq.delete(item);
                    assert_eq!(did, live.remove(&item), "case {case}");
                }
            }
            assert_eq!(mq.len(), live.len(), "case {case}");
        }
    }
}

/// Delaunay triangulation of arbitrary (deduplicated) point sets is valid
/// under arbitrary insertion order permutations.
#[test]
fn delaunay_valid_for_arbitrary_points_and_orders() {
    use rand::seq::SliceRandom;
    for case in 0..CASES {
        let mut rng = gen_for("delaunay_points", case);
        let target = rng.gen_range(3usize..60);
        let mut raw: std::collections::HashSet<(i64, i64)> = Default::default();
        while raw.len() < target {
            raw.insert((rng.gen_range(0i64..500), rng.gen_range(0i64..500)));
        }
        let order_seed = rng.gen_range(0u64..1000);
        let pts: Vec<Point> = raw.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let n = pts.len();
        let mut st = DelaunayState::new(pts);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(order_seed));
        for p in order {
            st.insert(p);
        }
        st.check_invariants();
        st.mesh().check_delaunay(st.inserted_flags());
        assert_eq!(st.mesh().num_alive(), 2 * n + 1, "case {case}");
    }
}

/// Parallel Δ-stepping equals Dijkstra on arbitrary graphs, deltas and
/// thread counts.
#[test]
fn parallel_delta_stepping_exact() {
    for case in 0..CASES {
        let mut rng = gen_for("par_delta", case);
        let n = rng.gen_range(2usize..25);
        let edges = random_edges(&mut rng, 25, 80, 50);
        let delta = rng.gen_range(1u64..200);
        let threads = rng.gen_range(1usize..5);
        let g = graph_from_edges(n, &edges);
        let want = dijkstra(&g, 0).dist;
        let got = parallel_delta_stepping(&g, 0, delta, threads);
        assert_eq!(got.dist, want, "case {case}");
    }
}

/// Branch-and-bound finds the DP optimum under any relaxation.
#[test]
fn knapsack_bnb_matches_dp() {
    for case in 0..CASES {
        let mut rng = gen_for("knapsack", case);
        let nitems = rng.gen_range(1usize..14);
        let items: Vec<(u64, u64)> = (0..nitems)
            .map(|_| (rng.gen_range(1u64..60), rng.gen_range(1u64..40)))
            .collect();
        let cap_frac = rng.gen_range(1usize..4);
        let queues = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..50);
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let inst = Knapsack::new(items, (total / cap_frac as u64).max(1));
        let want = inst.dp_optimum();
        let exact = inst.solve(&mut Exact(IndexedBinaryHeap::new()));
        assert_eq!(exact.best_value, want, "case {case}");
        let relaxed = inst.solve(&mut SimMultiQueue::new(queues, seed));
        assert_eq!(relaxed.best_value, want, "case {case}");
        assert_eq!(
            relaxed.expanded + relaxed.pruned_after_pop,
            relaxed.generated,
            "case {case}"
        );
    }
}

/// The DIMACS writer/parser round-trips arbitrary graphs, and the parser
/// never panics on arbitrary junk input.
#[test]
fn dimacs_roundtrip_and_junk_resilience() {
    for case in 0..CASES {
        let mut rng = gen_for("dimacs", case);
        let n = rng.gen_range(2usize..20);
        let edges = random_edges(&mut rng, 20, 60, 1000);
        let junk_len = rng.gen_range(0usize..200);
        let junk: String = (0..junk_len)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    '\n'
                } else {
                    rng.gen_range(0x20u8..0x7F) as char
                }
            })
            .collect();
        let g = graph_from_edges(n, &edges);
        let mut buf = Vec::new();
        rsched_graph::io::write_dimacs_gr(&g, &mut buf).expect("write");
        let g2 = rsched_graph::io::read_dimacs_gr(&buf[..]).expect("read");
        assert_eq!(g, g2, "case {case}");
        // Arbitrary junk: must return (ok or err) without panicking.
        let _ = rsched_graph::io::read_dimacs_gr(junk.as_bytes());
        let _ = rsched_graph::io::read_snap_edges(junk.as_bytes(), 1..=10, 0);
    }
}

/// d-CBO never loses or duplicates items under arbitrary
/// enqueue/dequeue interleavings, for arbitrary sub-queue counts, and
/// (used sequentially) reports empty exactly when it holds nothing.
#[test]
fn relaxed_fifo_conservation() {
    for case in 0..CASES {
        let mut rng = gen_for("fifo_conservation", case);
        let subqueues = rng.gen_range(1usize..12);
        let nops = rng.gen_range(1usize..400);
        let seed = rng.gen_range(0u64..1000);
        let mut q: DCboQueue<u64> = QueueBuilder::new(subqueues).seed(seed).d_cbo();
        let mut pushed = 0u64;
        let mut got = Vec::new();
        for _ in 0..nops {
            if rng.gen_bool(0.6) {
                RelaxedFifo::enqueue(&mut q, pushed);
                pushed += 1;
            } else {
                let live = pushed as usize - got.len();
                match RelaxedFifo::dequeue(&mut q) {
                    Some(v) => got.push(v),
                    None => assert_eq!(live, 0, "case {case}: empty with {live} queued"),
                }
            }
        }
        while let Some(v) = RelaxedFifo::dequeue(&mut q) {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(
            got,
            (0..pushed).collect::<Vec<_>>(),
            "case {case}: d-CBO lost or duplicated items"
        );
    }
}

/// d-CBO rank errors stay within the choice-of-two envelope: the
/// mean error is O(subqueues) and the tail is a small multiple of it,
/// independently of how many operations run (stationarity). Empirically
/// the mean sits near 0.65·q and the 99th percentile near 3·q; the
/// asserted constants are generous multiples to stay seed-robust.
#[test]
fn relaxed_fifo_rank_error_envelope() {
    for case in 0..16 {
        let mut rng = gen_for("fifo_envelope", case);
        let subqueues = [2usize, 4, 8, 16][case as usize % 4];
        let prefill = rng.gen_range(64usize..2048);
        let ops = rng.gen_range(4_000usize..20_000);
        let seed = rng.gen_range(0u64..1000);

        let check = |stats: &FifoRankStats| {
            let q = subqueues as f64;
            assert!(
                stats.mean_error() <= 2.0 * q,
                "case {case}: mean error {} beyond 2q = {}",
                stats.mean_error(),
                2.0 * q
            );
            assert!(
                (stats.error_quantile(0.99) as f64) <= 8.0 * q,
                "case {case}: p99 error {} beyond 8q",
                stats.error_quantile(0.99)
            );
            assert!(
                (stats.max_error as f64) <= 32.0 * q,
                "case {case}: max error {} beyond 32q",
                stats.max_error
            );
        };

        fn mixed_sweep<Q: RelaxedFifo<(u64, usize)>>(
            queue: Q,
            prefill: usize,
            ops: usize,
            seed: u64,
        ) -> FifoRankStats {
            let mut q = FifoRankTracker::new(queue);
            let mut next = 0usize;
            for _ in 0..prefill {
                q.enqueue(next);
                next += 1;
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..ops {
                if rng.gen_bool(0.5) {
                    q.enqueue(next);
                    next += 1;
                } else {
                    let _ = q.dequeue();
                }
            }
            while q.dequeue().is_some() {}
            q.into_parts().1
        }

        let stats = mixed_sweep(
            QueueBuilder::new(subqueues).seed(seed).d_cbo(),
            prefill,
            ops,
            seed,
        );
        check(&stats);
    }
}

/// One sub-queue is an exact FIFO: zero rank error on arbitrary
/// interleavings, every dequeue the oldest item of a `VecDeque` model.
#[test]
fn relaxed_fifo_single_subqueue_exact() {
    for case in 0..CASES {
        let mut rng = gen_for("fifo_exact", case);
        let nops = rng.gen_range(1usize..300);
        let mut q = FifoRankTracker::new(QueueBuilder::new(1).seed(case).d_cbo());
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u64;
        for _ in 0..nops {
            if rng.gen_bool(0.5) {
                q.enqueue(next);
                model.push_back(next);
                next += 1;
            } else {
                assert_eq!(q.dequeue(), model.pop_front(), "case {case}");
            }
        }
        while let Some(v) = q.dequeue() {
            assert_eq!(Some(v), model.pop_front(), "case {case}");
        }
        assert!(model.is_empty(), "case {case}");
        assert_eq!(q.stats().max_error, 0, "case {case}");
    }
}

/// Relaxed-FIFO BFS and k-core equal their sequential references on
/// arbitrary graphs, thread counts and seeds (runtime end-to-end).
#[test]
fn runtime_bfs_and_kcore_exact_on_arbitrary_graphs() {
    for case in 0..24 {
        let mut rng = gen_for("runtime_bfs_kcore", case);
        let n = rng.gen_range(2usize..60);
        let edges = random_edges(&mut rng, 60, 240, 10);
        let threads = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..1000);
        let k = rng.gen_range(1u64..6);
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            if u % n != v % n {
                b.add_undirected_edge(u % n, v % n, w);
            }
        }
        let g = b.build();
        let cfg = ParSsspConfig {
            threads,
            queue_multiplier: 2,
            seed,
        };
        assert_eq!(
            parallel_bfs(&g, 0, cfg).dist,
            bfs(&g, 0),
            "case {case}: bfs"
        );
        assert_eq!(
            parallel_kcore(&g, k, cfg).in_core,
            kcore_sequential(&g, k),
            "case {case}: k-core k={k}"
        );
    }
}

/// Greedy MIS and coloring under relaxation equal their sequential
/// references on arbitrary graphs.
#[test]
fn mis_and_coloring_deterministic() {
    for case in 0..CASES {
        let mut rng = gen_for("mis_coloring", case);
        let n = rng.gen_range(2usize..40);
        let edges = random_edges(&mut rng, 40, 150, 10);
        let seed = rng.gen_range(0u64..100);
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            if u % n != v % n {
                b.add_undirected_edge(u % n, v % n, w);
            }
        }
        let g = b.build();
        let mut mis = GreedyMis::new(&g, seed);
        run_relaxed(&mut mis, &mut SimMultiQueue::new(4, seed));
        let mut mis_ref = GreedyMis::new(&g, seed);
        run_exact(&mut mis_ref);
        assert_eq!(
            mis.independent_set(),
            mis_ref.independent_set(),
            "case {case}"
        );

        let mut col = GreedyColoring::new(&g, seed);
        run_relaxed(&mut col, &mut SimMultiQueue::new(4, seed + 1));
        assert!(col.verify_proper(), "case {case}");
    }
}
