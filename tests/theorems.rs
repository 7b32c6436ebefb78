//! The paper's theorems as executable envelopes.
//!
//! Every bound in the paper is stated in the relaxation factor `k`. Each
//! test below runs an algorithm under schedulers of known `k` and asserts
//! the measured waste against the parametric formula in
//! [`rsched_core::theory`] times a constant `c`. The paper leaves the
//! constants of its big-O unspecified, so each `c` is stated next to the
//! largest ratio measured over at least 20 seeds. A change that widens
//! relaxation — a scheduler that returns deeper ranks than its `k` allows —
//! moves a ratio past its `c` and fails here; a change that silently makes
//! a relaxed scheduler exact fails the non-vacuity checks beside them.
//!
//! Sizes, seed counts and the `k` sweeps scale with `RSCHED_STRESS`, as in
//! `concurrent_stress.rs`; the CI stress job runs this file in release
//! with `RSCHED_STRESS=2`.

use relaxed_schedulers::prelude::*;
use rsched_core::theory;
use rsched_graph::analysis::{dmax_over_wmin, num_reachable};

/// Size and seed multiplier. Defaults to 1 for developer runs;
/// `RSCHED_STRESS=2` quadruples `n` and the seed counts and adds the
/// larger `k` points.
fn stress() -> usize {
    match std::env::var("RSCHED_STRESS").as_deref() {
        Ok("0") | Err(_) => 1,
        Ok(v) => v.parse::<usize>().unwrap_or(1).clamp(1, 64) * 2,
    }
}

/// Relaxation factors swept by the sequential-model tests.
fn ks() -> Vec<usize> {
    if stress() > 1 {
        vec![2, 4, 8, 16]
    } else {
        vec![2, 4, 8]
    }
}

/// The three state-oblivious adversaries of `AdversarialScheduler`.
fn strategies(seed: u64) -> [AdversaryStrategy; 3] {
    [
        AdversaryStrategy::MaxRank,
        AdversaryStrategy::RandomTopK(seed),
        AdversaryStrategy::MaxInversions,
    ]
}

/// Theorem 3.3's constant: extra steps ≤ `C33 · k⁴ · ln n`. Over 20 seeds
/// (BST sort at n = 2000 and 8000, Delaunay at 300 and 1200, k up to 16)
/// the largest ratio is 0.34, the MultiQueue with q = 2 judged by
/// `multiqueue_k(2) = 2`; the adversaries reach 0.24 (the
/// dependency-aware one, Delaunay, k = 2) and 0.08 at k = 8.
const C33: f64 = 1.0;

/// Algorithm 2 against the dependency-aware adversary: every step returns
/// a blocked task of the top-`k` window when there is one, so a step is
/// wasted whenever RankBound and Fairness allow it.
fn dependency_aware<A: IncrementalAlgorithm>(alg: &mut A, k: usize) -> ExecStats {
    run_relaxed_with(alg, k, |a, window| {
        window
            .iter()
            .position(|&t| !a.deps_satisfied(t))
            .unwrap_or(0)
    })
}

/// Runs every sequential scheduler of Theorem 3.3 on fresh copies of one
/// instance and checks each against the `k` its envelope uses: the
/// dependency-aware adversary and the three strategies at each `k` of
/// [`ks`], and the MultiQueue with `q ∈ {2, 4, 8}` at
/// `k = theory::multiqueue_k(q)`.
fn assert_thm33<A: IncrementalAlgorithm>(what: &str, make: impl Fn() -> A, seed: u64) {
    let n = make().num_tasks();
    let check = |label: String, k: usize, stats: ExecStats| {
        assert_eq!(stats.processed, n as u64, "{what}, {label}: lost tasks");
        let extra = stats.extra_steps as f64;
        let bound = C33 * theory::thm33_extra_steps(k, n);
        assert!(
            extra <= bound,
            "{what}, {label}: {extra} extra steps exceed {C33}·k⁴·ln n = {bound:.0}"
        );
        assert!(
            extra < theory::trivial_bound(k, n),
            "{what}, {label}: {extra} extra steps reach the trivial k·n bound"
        );
    };
    for k in ks() {
        let stats = dependency_aware(&mut make(), k);
        assert!(
            stats.extra_steps > 0,
            "{what}, k = {k}: the adversary wasted no step"
        );
        check(format!("dependency-aware k={k}"), k, stats);
        for strategy in strategies(seed) {
            let label = format!("{strategy:?} k={k}");
            let mut queue = AdversarialScheduler::new(k, strategy);
            check(label, k, run_relaxed(&mut make(), &mut queue));
        }
    }
    for q in [2usize, 4, 8] {
        let k = theory::multiqueue_k(q) as usize;
        let stats = run_relaxed(&mut make(), &mut SimMultiQueue::new(q, seed));
        check(format!("SimMultiQueue q={q} (k={k})"), k, stats);
    }
}

/// Theorem 3.3: BST-insertion sorting and Delaunay triangulation waste
/// `O(poly(k) · log n)` steps under any scheduler within RankBound and
/// Fairness.
#[test]
fn thm33_extra_steps_within_poly_k_log_n() {
    let s = stress();
    for seed in 0..2 * s as u64 {
        let n = 2000 * s;
        assert_thm33(
            &format!("BST sort seed={seed}"),
            || BstSort::random(n, seed),
            seed,
        );
        let n = 300 * s;
        let delaunay = || DelaunayIncremental::random(n, 1 << 20, seed);
        assert_thm33(&format!("Delaunay seed={seed}"), delaunay, seed);
    }
}

/// Theorem 3.3 for the concurrent executor on the real keyed MultiQueue:
/// 2 workers with 2 shards each, so `q = 4` and `k = multiqueue_k(4) = 8`.
/// Over 20 seeds at n = 2000 the extra steps had a median of 25 in release
/// and 26–41 in debug on a loaded 2-vCPU host (about 0.001 of `k⁴ · ln n`),
/// while 64 shards judged by the same `k` never read below 489. So this
/// envelope is tighter than [`C33`]: it catches a queue count that grows
/// without the `k` it is judged by. The median over seeds is asserted,
/// because a worker that the host deschedules mid-task makes its
/// dependants re-queue until it runs again (one debug run of the 20 read
/// 2,745). That noise grows with `n` in debug builds, so `RSCHED_STRESS`
/// adds seeds here, not size.
const C33_PARALLEL: f64 = 0.01;

#[test]
fn thm33_concurrent_bst_sort_on_the_keyed_multiqueue() {
    let (threads, multiplier) = (2, 2);
    let k = theory::multiqueue_k(threads * multiplier) as usize;
    let n = 2000;
    let mut extras: Vec<u64> = (0..5 * stress() as u64)
        .map(|seed| {
            let alg = ConcurrentBstSort::random(n, seed);
            let stats = run_relaxed_parallel(&alg, threads, multiplier, seed);
            assert_eq!(stats.processed, n as u64, "seed {seed}: lost tasks");
            assert_eq!(
                alg.in_order_keys(),
                (0..n as u64).collect::<Vec<_>>(),
                "seed {seed}: not sorted"
            );
            assert!(
                (stats.extra_steps as f64) < theory::trivial_bound(k, n),
                "seed {seed}: {} extra steps reach the trivial k·n bound",
                stats.extra_steps
            );
            stats.extra_steps
        })
        .collect();
    extras.sort_unstable();
    let median = extras[extras.len() / 2] as f64;
    let bound = C33_PARALLEL * theory::thm33_extra_steps(k, n);
    assert!(
        median <= bound,
        "median extra steps {median} (all: {extras:?}) exceed {C33_PARALLEL}·k⁴·ln n = {bound:.0} at k = {k}"
    );
}

/// Claim 1: the rate at which a MultiQueue returns task `i + 1` before
/// task `i`, over a drain of `n` ordered tasks.
fn consecutive_inversion_rate(n: usize, queues: usize, seed: u64) -> f64 {
    let mut q = SimMultiQueue::new(queues, seed);
    for i in 0..n {
        q.insert(i, i as u64);
    }
    let mut pos = vec![0usize; n];
    let mut t = 0;
    while let Some((item, _)) = q.pop_relaxed() {
        pos[item] = t;
        t += 1;
    }
    let inversions = (0..n - 1).filter(|&i| pos[i + 1] < pos[i]).count();
    inversions as f64 / (n - 1) as f64
}

/// Theorem 5.1 and its Claim 1: under a MultiQueue, consecutive labels
/// are inverted with probability at least 1/8, so the expected extra steps
/// of BST sorting and Delaunay triangulation are at least `H(n−1)/8`.
/// Measured over 20 seeds: inversion rates 0.19 / 0.34 / 0.41 at
/// q = 2 / 4 / 8, and mean extra steps of 7–162 against lower bounds of
/// 0.7–1.2 at n = 125–8000.
#[test]
fn thm51_multiqueue_inverts_and_wastes_omega_log_n() {
    let s = stress();
    for queues in [2usize, 4, 8] {
        let seeds = 4 * s as u64;
        let rate = (0..seeds)
            .map(|seed| consecutive_inversion_rate(2000, queues, seed))
            .sum::<f64>()
            / seeds as f64;
        assert!(
            rate >= theory::CLAIM1_INVERSION_LOWER,
            "q = {queues}: inversion rate {rate:.4} below 1/8"
        );

        let seeds = 3 * s as u64;
        let n = 2000 * s;
        let mean = (0..seeds)
            .map(|seed| {
                let mut alg = BstSort::random(n, 99 + seed);
                run_relaxed(&mut alg, &mut SimMultiQueue::new(queues, seed)).extra_steps
            })
            .sum::<u64>() as f64
            / seeds as f64;
        let lower = theory::thm51_lower_bound(n);
        assert!(
            mean >= lower,
            "BST sort n={n} q={queues}: mean extra steps {mean} below H(n−1)/8 = {lower:.2}"
        );

        let n = 300 * s;
        let mean = (0..seeds)
            .map(|seed| {
                let mut alg = DelaunayIncremental::random(n, 1 << 20, 99 + seed);
                run_relaxed(&mut alg, &mut SimMultiQueue::new(queues, seed)).extra_steps
            })
            .sum::<u64>() as f64
            / seeds as f64;
        let lower = theory::thm51_lower_bound(n);
        assert!(
            mean >= lower,
            "Delaunay n={n} q={queues}: mean extra steps {mean} below H(n−1)/8 = {lower:.2}"
        );
    }
}

/// Theorem 6.1's constant: pops ≤ `n + C61 · k² · d_max/w_min`. The largest
/// ratio measured over 20 seeds is 0.25 (MaxRank, k = 16); over
/// k ∈ {2, 4, 8, 16} and 100 or 400 layers the rotating queue stays below
/// 0.05.
const C61: f64 = 1.0;

/// Theorem 6.1: Algorithm 3 (relaxed SSSP with DecreaseKey) performs at
/// most `n + O(k² · d_max/w_min)` pops, on layered bucket chains whose
/// weight spread forces re-executions.
#[test]
fn thm61_sssp_pops_within_n_plus_k2_dmax_over_wmin() {
    let s = stress();
    for seed in 0..3 * s as u64 {
        let g = bucket_chain_weights(100 * s, 6, 10..=20, seed);
        let n = num_reachable(&g, 0) as u64;
        let buckets = dmax_over_wmin(&g, 0).expect("the chain has edges");
        let want = dijkstra(&g, 0).dist;
        for k in ks() {
            let mut runs = vec![(
                "RotatingKQueue".to_string(),
                relaxed_sssp_seq(&g, 0, &mut RotatingKQueue::new(k)),
            )];
            for strategy in strategies(seed) {
                let label = format!("{strategy:?}");
                let mut queue = AdversarialScheduler::new(k, strategy);
                runs.push((label, relaxed_sssp_seq(&g, 0, &mut queue)));
            }
            let bound = C61 * theory::thm61_extra_pops(k, buckets);
            for (label, stats) in &runs {
                assert_eq!(
                    stats.dist, want,
                    "{label} k={k} seed={seed}: wrong distances"
                );
                let extra = stats.pops - n;
                assert!(
                    extra as f64 <= bound,
                    "{label} k={k} seed={seed}: pops − n = {extra} exceed \
                     {C61}·k²·d_max/w_min = {bound:.0}"
                );
                // Non-vacuity: from k = 4 up, the rank-spreading schedulers
                // always pop some vertex before its distance is final.
                if k >= 4 && (label == "RotatingKQueue" || label == "MaxRank") {
                    assert!(extra > 0, "{label} k={k} seed={seed}: no extra pop");
                }
            }
        }
    }
}

/// The paper's three experiment graphs (Section 7), scaled down: uniform
/// random, a road-like grid, and a power law in place of LiveJournal.
fn experiment_graphs() -> [(&'static str, CsrGraph); 3] {
    let n = 10_000 * stress();
    let side = (n as f64).sqrt() as usize;
    [
        ("random", random_gnm(n, 10 * n, 1..=100, 42)),
        ("road", grid_road(side, side, 42)),
        ("power-law", power_law(n, 10, 1..=100, 42)),
    ]
}

/// Figure 1's overhead envelope on the random and power-law graphs:
/// `executed / reachable ≤ 1 + FIG1_SLACK` at up to 4 threads, for the
/// median over seeds. Over 9 seeds at n = 10000 the median read at most
/// 1.006 and the worst run 1.025 (random, 4 threads), in release and in
/// debug on a loaded 2-vCPU host; 32 shards per worker instead of 2 read
/// at least 1.066 at 4 threads. The median is asserted for the same
/// reason as in [`C33_PARALLEL`].
const FIG1_SLACK: f64 = 0.05;

/// Figure 1: concurrent SSSP over the keyed MultiQueue is exact on every
/// graph at 1, 2 and 4 threads, and its overhead on the random and
/// power-law graphs stays near 1. The road graph's overhead (over 10
/// seeds on `grid_road(100, 100)`: 1.22 at 1 thread, 1.7–2.3 at 2 and
/// 2.4–3.9 at 4) is left unasserted: it is the session's relaxation showing, which bounding the
/// deletion buffers is meant to lower.
#[test]
fn fig1_parallel_sssp_exact_with_bounded_overhead() {
    for (name, g) in experiment_graphs() {
        let exact = dijkstra(&g, 0).dist;
        let reachable = exact.iter().filter(|&&d| d != INF).count() as f64;
        for threads in [1usize, 2, 4] {
            let mut overheads: Vec<f64> = (0..3 * stress() as u64)
                .map(|seed| {
                    let cfg = ParSsspConfig {
                        threads,
                        queue_multiplier: 2,
                        seed,
                    };
                    let stats = parallel_sssp(&g, 0, cfg);
                    assert_eq!(stats.dist, exact, "{name} threads={threads} seed={seed}");
                    stats.executed as f64 / reachable
                })
                .collect();
            if name == "road" {
                continue;
            }
            overheads.sort_by(f64::total_cmp);
            let median = overheads[overheads.len() / 2];
            assert!(
                median <= 1.0 + FIG1_SLACK,
                "{name} threads={threads}: median overhead {median:.4} (all: {overheads:.4?}) \
                 beyond 1 + {FIG1_SLACK}"
            );
        }
    }
}

/// The DecreaseKey ablation of Section 6: without DecreaseKey, every
/// improved distance leaves an outdated copy in the queue, and each copy
/// becomes a stale pop. Over 5 seeds on the three graphs at n ≈ 20000 and
/// 2, 4 and 8 threads, the keyed queue's stale pops ranged 48–3,267 and the
/// duplicate-insertion queue's 11,193–32,930. Total pops are not compared:
/// on the road graph the keyed queue pops *more* than the duplicate queue
/// from 2 threads up, because its relaxation re-executes vertices.
#[test]
fn decrease_key_ablation_outdated_copies_become_stale_pops() {
    for (name, g) in experiment_graphs() {
        let exact = dijkstra(&g, 0).dist;
        for threads in [2usize, 4] {
            let cfg = ParSsspConfig {
                threads,
                queue_multiplier: 2,
                seed: threads as u64,
            };
            let keyed = parallel_sssp(&g, 0, cfg);
            let duplicates = parallel_sssp_duplicates(&g, 0, cfg);
            assert_eq!(keyed.dist, exact, "{name} threads={threads}: keyed");
            assert_eq!(
                duplicates.dist, exact,
                "{name} threads={threads}: duplicates"
            );
            assert!(
                duplicates.stale > keyed.stale,
                "{name} threads={threads}: duplicate queue {} stale pops, keyed {}",
                duplicates.stale,
                keyed.stale
            );
        }
    }
}
