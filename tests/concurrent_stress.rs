//! Concurrency stress tests: many threads, contended structures, repeated
//! seeds. These are the tests that would catch termination-detection races,
//! lost elements under try_lock retries, and memory-ordering bugs in the
//! atomic relaxation loops.

use relaxed_schedulers::prelude::*;
use rsched_algos::concurrent::{ConcurrentBstSort, ConcurrentMis};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Iteration/thread multiplier for the heavy tests. Defaults to 1 for
/// developer runs; the CI stress job sets `RSCHED_STRESS` to raise it
/// (any value >= 1; `RSCHED_STRESS=2` roughly quadruples the work).
fn stress() -> usize {
    match std::env::var("RSCHED_STRESS").as_deref() {
        Ok("0") | Err(_) => 1,
        Ok(v) => v.parse::<usize>().unwrap_or(1).clamp(1, 64) * 2,
    }
}

/// Producer/consumer storm on the concurrent MultiQueue: heavy oversubscription,
/// mixed push_or_decrease / pop, then exhaustive accounting.
///
/// Conservation here is a *multiset* law, not a no-duplicates law: a
/// `push_or_decrease` that races with a pop of the same item legitimately
/// re-inserts it (that is exactly the semantics concurrent SSSP relies on),
/// so an item may be popped once per successful insertion. The queue is
/// correct iff, once quiescent and drained, every item's pop count equals
/// its successful-insert count (`push_or_decrease` returning `true`).
#[test]
fn multiqueue_storm_conserves_elements() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let threads = 8;
    let per = 3000usize;
    let q: Arc<ConcurrentMultiQueue<u64>> = Arc::new(QueueBuilder::new(6).multiqueue());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64 * 31 + 1);
                let mut inserts: Vec<usize> = Vec::new();
                let mut pops: Vec<usize> = Vec::new();
                for i in 0..per {
                    let item = t * per + i;
                    if q.push_or_decrease(item, rng.gen_range(100..1_000_000)) {
                        inserts.push(item);
                    }
                    // Decrease some of our own items; if the item was popped
                    // in the meantime this re-inserts it.
                    if i % 7 == 0 && q.push_or_decrease(item, 50) {
                        inserts.push(item);
                    }
                    if i % 3 == 0 {
                        if let Some((it, _)) = q.pop(&mut rng) {
                            pops.push(it);
                        }
                    }
                }
                (inserts, pops)
            })
        })
        .collect();
    let mut inserted: std::collections::HashMap<usize, i64> = Default::default();
    let mut popped: std::collections::HashMap<usize, i64> = Default::default();
    for h in handles {
        let (inserts, pops) = h.join().unwrap();
        for it in inserts {
            *inserted.entry(it).or_default() += 1;
        }
        for it in pops {
            *popped.entry(it).or_default() += 1;
        }
    }
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0);
    while let Some((it, _)) = q.pop(&mut rng) {
        *popped.entry(it).or_default() += 1;
    }
    assert!(q.is_empty());
    // Every item was inserted at least once; each insertion was popped
    // exactly once; nothing was popped that was not inserted.
    assert_eq!(inserted.len(), threads * per, "items never inserted");
    assert_eq!(
        popped, inserted,
        "pop multiset differs from insert multiset"
    );
}

/// Sticky-peek-cache sessions from many threads still conserve elements.
#[test]
fn sticky_sessions_under_contention() {
    let threads = 6;
    let per = 2000usize;
    let q: Arc<ConcurrentMultiQueue<u64>> = Arc::new(QueueBuilder::new(4).multiqueue());
    for i in 0..threads * per {
        q.push_or_decrease(i, (i as u64 * 17) % 100_000);
    }
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut session = q.session(&SessionConfig {
                    stickiness: 8,
                    ..SessionConfig::for_worker(t, threads)
                });
                let mut got = Vec::new();
                for _ in 0..per {
                    if let Some(((it, _), _)) = q.pop_session(&mut session) {
                        got.push(it);
                    }
                }
                got
            })
        })
        .collect();
    let mut seen = HashSet::new();
    let mut total = 0usize;
    for h in handles {
        for it in h.join().unwrap() {
            assert!(seen.insert(it), "duplicate sticky pop of {it}");
            total += 1;
        }
    }
    // Drain the remainder.
    let mut session = q.session(&SessionConfig {
        stickiness: 4,
        ..SessionConfig::unaffine(999)
    });
    while let Some(((it, _), _)) = q.pop_session(&mut session) {
        assert!(seen.insert(it));
        total += 1;
    }
    assert_eq!(total, threads * per);
}

/// Concurrent SSSP is exact across seeds, thread counts and schedulers on a
/// road-like graph (the workload with the longest relaxation chains).
#[test]
fn parallel_sssp_exactness_matrix() {
    let g = grid_road(28, 28, 17);
    let want = dijkstra(&g, 0).dist;
    for threads in [2usize, 4, 8] {
        for seed in 0..3u64 {
            let cfg = ParSsspConfig {
                threads,
                queue_multiplier: 2,
                seed,
            };
            assert_eq!(
                parallel_sssp(&g, 0, cfg).dist,
                want,
                "mq t{threads} s{seed}"
            );
            assert_eq!(
                parallel_sssp_duplicates(&g, 0, cfg).dist,
                want,
                "dup t{threads} s{seed}"
            );
            assert_eq!(
                parallel_sssp_spraylist(&g, 0, cfg).dist,
                want,
                "spray t{threads} s{seed}"
            );
        }
    }
}

/// The concurrent iterative executor never double-processes and always
/// terminates, across thread counts, on the worst (chain) dependency shape.
#[test]
fn concurrent_executor_chain_matrix() {
    for threads in [2usize, 4, 8] {
        for seed in 0..2u64 {
            let alg = ConcurrentBstSort::random(3000, seed);
            let stats = run_relaxed_parallel(&alg, threads, 2, seed);
            assert_eq!(stats.processed, 3000, "t{threads} s{seed}");
            assert_eq!(
                alg.in_order_keys(),
                (0..3000u64).collect::<Vec<_>>(),
                "t{threads} s{seed}"
            );
        }
    }
}

/// Determinism under contention: concurrent MIS equals the sequential
/// reference on a denser graph with many inter-thread dependencies.
#[test]
fn concurrent_mis_determinism_under_contention() {
    let g = random_gnm(2000, 20_000, 1..=10, 5);
    for seed in 0..3u64 {
        let alg = ConcurrentMis::new(&g, 77);
        run_relaxed_parallel(&alg, 8, 2, seed);
        let want = rsched_algos::GreedyMis::sequential_reference(&g, alg.permutation());
        let got: Vec<bool> = {
            let set: HashSet<usize> = alg.independent_set().into_iter().collect();
            (0..g.num_vertices()).map(|v| set.contains(&v)).collect()
        };
        assert_eq!(got, want, "seed {seed}");
    }
}

/// Producer/consumer storm on the concurrent d-CBO relaxed FIFO: heavy
/// oversubscription, mixed enqueue/dequeue, then exhaustive accounting —
/// the queue must never lose or duplicate an item.
#[test]
fn dcbo_storm_conserves_elements() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let threads = 4 * stress();
    let per = 10_000 * stress();
    let q: Arc<DCboQueue<usize>> = Arc::new(QueueBuilder::new(6).seed(13).d_cbo());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64 * 71 + 3);
                let mut got: Vec<usize> = Vec::new();
                for i in 0..per {
                    q.enqueue(t * per + i, &mut rng);
                    if i % 3 == 0 {
                        if let Some(v) = q.dequeue(&mut rng) {
                            got.push(v);
                        }
                    }
                }
                got
            })
        })
        .collect();
    let mut seen = HashSet::new();
    for h in handles {
        for v in h.join().unwrap() {
            assert!(seen.insert(v), "duplicate dequeue of {v}");
        }
    }
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0);
    while let Some(v) = q.dequeue(&mut rng) {
        assert!(seen.insert(v), "duplicate dequeue of {v}");
    }
    assert_eq!(seen.len(), threads * per, "elements lost");
    assert!(q.is_empty());
}

/// The runtime driving a d-CBO frontier under oversubscription: dynamic
/// task creation, many threads, repeated seeds — every spawned task must
/// execute exactly once and termination detection must fire exactly at
/// quiescence.
#[test]
fn runtime_dcbo_executes_every_task_once() {
    use std::sync::atomic::AtomicU32;
    for seed in 0..3u64 {
        let n = 5_000usize;
        let children = 3u64;
        let queue: DCboQueue<(usize, u64)> = QueueBuilder::new(16).seed(seed).d_cbo();
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let stats = run_pool(
            &queue,
            RuntimeConfig {
                threads: 8,
                seed,
                ..RuntimeConfig::default()
            },
            (0..n / 10).map(|i| (i * 10, children)),
            |w, item, depth| {
                hits[item].fetch_add(1, Ordering::AcqRel);
                if depth > 0 && item + 1 < n {
                    w.spawn(item + 1, depth - 1);
                }
                TaskOutcome::Executed
            },
        );
        // Tasks form chains of length ≤ children+1 starting at multiples
        // of 10; every execution is accounted and nothing runs twice
        // unless spawned twice (chains overlap only via distinct spawns).
        let total: u64 = hits.iter().map(|h| h.load(Ordering::Acquire) as u64).sum();
        assert_eq!(stats.total.executed, total, "seed {seed}");
        assert_eq!(
            stats.total.executed,
            (n as u64 / 10) * (children + 1),
            "seed {seed}"
        );
        assert_eq!(stats.total.pops, stats.total.executed, "seed {seed}");
    }
}

/// ConcurrentSprayList under pop-only contention after a big fill.
#[test]
fn concurrent_spraylist_drain_storm() {
    let q: Arc<ConcurrentSprayList<u64>> = Arc::new(ConcurrentSprayList::new(4, 8, 3));
    let n = 20_000usize;
    for i in 0..n {
        q.insert(i, (i as u64 * 13) % 50_000);
    }
    let threads = 8;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                use rand::SeedableRng;
                let mut rng = rand::rngs::SmallRng::seed_from_u64(t as u64);
                let mut got = Vec::new();
                while let Some((it, _)) = q.pop(&mut rng) {
                    got.push(it);
                }
                got
            })
        })
        .collect();
    let mut seen = HashSet::new();
    for h in handles {
        for it in h.join().unwrap() {
            assert!(seen.insert(it), "duplicate {it}");
        }
    }
    assert_eq!(seen.len(), n);
}

/// The full backend matrix {mutex, segring} x {d-RA, d-CBO} under a
/// concurrent enqueue/dequeue storm: no element may be lost or
/// duplicated regardless of the shard sub-queue implementation.
#[test]
fn relaxed_fifo_backend_matrix_storm() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rsched_queues::lockfree::SegRingQueue;
    use rsched_queues::{MutexSub, SubFifo};

    fn storm_pair<S: SubFifo<usize> + 'static>(name: &str) {
        let threads = 4 * stress();
        let per = 4_000 * stress();
        let dra: Arc<DRaQueue<usize, S>> = Arc::new(QueueBuilder::new(6).seed(13).d_ra_on());
        let dcbo: Arc<DCboQueue<usize, S>> = Arc::new(QueueBuilder::new(6).seed(13).d_cbo_on());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let dra = Arc::clone(&dra);
                let dcbo = Arc::clone(&dcbo);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64 * 91 + 5);
                    let mut got = Vec::new();
                    for i in 0..per {
                        dra.enqueue(2 * (t * per + i), &mut rng);
                        dcbo.enqueue(2 * (t * per + i) + 1, &mut rng);
                        if i % 3 == 0 {
                            if let Some(v) = dra.dequeue(&mut rng) {
                                got.push(v);
                            }
                            if let Some(v) = dcbo.dequeue(&mut rng) {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "{name}: duplicate {v}");
            }
        }
        let mut rng = SmallRng::seed_from_u64(0);
        while let Some(v) = dra.dequeue(&mut rng) {
            assert!(seen.insert(v), "{name}: duplicate {v}");
        }
        while let Some(v) = dcbo.dequeue(&mut rng) {
            assert!(seen.insert(v), "{name}: duplicate {v}");
        }
        assert_eq!(seen.len(), 2 * threads * per, "{name}: elements lost");
        assert!(dra.is_empty() && dcbo.is_empty());
    }

    storm_pair::<MutexSub<usize>>("mutex");
    storm_pair::<SegRingQueue<usize>>("segring");
}

/// The priority-shard backend matrix {skiplist, mutexheap} under a
/// **batched-session** conservation storm: every push flows through an
/// [`MqSession`] with a spawn buffer (and the sticky peek cache on the
/// pop side), finishing with a forced flush at quiescence. Flush reports
/// carry merge *counts*, not identities, so the law here is count
/// conservation — net inserts (session outcomes, flush merges
/// retracted) must equal pops plus drain — plus full coverage: every
/// item must surface at least once. The raw-op multiset law is still
/// checked by `multiqueue_storm_conserves_elements` above.
#[test]
fn multiqueue_backend_matrix_storm() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rsched_queues::{MutexHeapSub, SkipShard, SubPriority};

    fn storm<S: SubPriority<u64> + 'static>(name: &str, spawn_batch: usize) {
        let threads = 4 * stress();
        let per = 2_500 * stress();
        let q: Arc<ConcurrentMultiQueue<u64, S>> = Arc::new(QueueBuilder::new(6).multiqueue_on());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64 * 37 + 2);
                    let mut session = q.session(&SessionConfig {
                        spawn_batch,
                        stickiness: 4,
                        ..SessionConfig::for_worker(t, threads)
                    });
                    // Parked pushes are presumed net-new; flush reports
                    // retract the ones that merged — the one-place rule
                    // is PushOutcome::net_new.
                    let mut net_inserts = 0i64;
                    let mut pops: Vec<usize> = Vec::new();
                    for i in 0..per {
                        let item = t * per + i;
                        net_inserts += q
                            .push_session(item, rng.gen_range(100..1_000_000), &mut session)
                            .net_new();
                        if i % 7 == 0 {
                            // Decrease of our own item: usually merges in
                            // the buffer; if already published and popped,
                            // legitimately re-inserts.
                            net_inserts += q.push_session(item, 50, &mut session).net_new();
                        }
                        if i % 3 == 0 {
                            if let Some(((it, _), _)) = q.pop_session(&mut session) {
                                pops.push(it);
                            }
                        }
                    }
                    // Forced flush at quiescence: parked spawns publish
                    // and their merges retract.
                    let rep = q.flush_session(&mut session);
                    net_inserts -= rep.merged as i64;
                    assert_eq!(session.buffered(), 0, "flush left parked items");
                    (net_inserts, pops)
                })
            })
            .collect();
        let mut net_inserted = 0i64;
        let mut seen: std::collections::HashSet<usize> = Default::default();
        let mut total_pops = 0i64;
        for h in handles {
            let (net, pops) = h.join().unwrap();
            net_inserted += net;
            for it in pops {
                seen.insert(it);
                total_pops += 1;
            }
        }
        let mut rng = SmallRng::seed_from_u64(0);
        while let Some((it, _)) = q.pop(&mut rng) {
            seen.insert(it);
            total_pops += 1;
        }
        assert!(q.is_empty(), "{name}: queue not drained");
        assert_eq!(
            net_inserted, total_pops,
            "{name}: net session inserts differ from pops + drain"
        );
        assert_eq!(
            seen.len(),
            threads * per,
            "{name}: some items never surfaced"
        );
    }

    // 8 parks one popped successor per pop, 64 the full eight.
    for spawn_batch in [8, 64] {
        storm::<SkipShard<u64>>("skiplist", spawn_batch);
        storm::<MutexHeapSub<u64>>("mutexheap", spawn_batch);
    }
}

/// Rank-error envelope of the **skiplist-backed MultiQueue** under real
/// contention, measured by the timestamp-based concurrent estimator:
/// priorities are the enqueue tickets themselves, so priority order
/// coincides with arrival order and the estimator's FIFO rank error *is*
/// the MultiQueue's priority rank error. The mean must stay within a
/// generous multiple of the nominal `O(q log q)` relaxation factor
/// scaled by the thread count (in-flight operations add slack).
#[test]
fn skiplist_multiqueue_estimator_envelope() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rsched_queues::ConcurrentRankEstimator;

    let nqueues = 8usize;
    let threads = 4 * stress();
    let per = 8_000usize;
    let q: Arc<ConcurrentMultiQueue<u64>> = Arc::new(QueueBuilder::new(nqueues).multiqueue());
    let est = ConcurrentRankEstimator::new();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mut rec = est.recorder();
            let q = Arc::clone(&q);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64 + 9);
                let mut session = q.session(&SessionConfig {
                    stickiness: 4,
                    ..SessionConfig::for_worker(t, threads)
                });
                for _ in 0..per {
                    if rng.gen_bool(0.5) {
                        let stamp = rec.stamp_enqueue();
                        // Ticket as item id (unique) *and* priority:
                        // priority order == arrival order.
                        q.push_session(stamp as usize, stamp, &mut session);
                    } else if let Some(((_, stamp), _)) = q.pop_session(&mut session) {
                        rec.record_dequeue(stamp);
                    }
                }
            });
        }
    });
    let stats = est.into_stats();
    assert!(stats.dequeues > 0, "no dequeues measured");
    let envelope = 8.0 * (q.relaxation_factor() * threads) as f64;
    assert!(
        stats.mean_error() <= envelope,
        "skiplist MultiQueue mean estimated rank error {} beyond envelope {envelope}",
        stats.mean_error()
    );
}

/// Rank-error envelope under *real* contention, measured by the
/// timestamp-based concurrent estimator: the mean estimated error of a
/// d-CBO stays within a generous multiple of shards x threads (the
/// concurrent analogue of the sequential 2q envelope), and a
/// single-threaded exact-FIFO control measures (near) zero.
#[test]
fn concurrent_estimator_envelope_under_contention() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rsched_queues::ConcurrentRankEstimator;

    // Control: an exact FIFO driven by one thread has zero estimated
    // error — the estimator itself adds none.
    let est = ConcurrentRankEstimator::new();
    {
        let mut rec = est.recorder();
        let mut q = std::collections::VecDeque::new();
        for _ in 0..2_000 {
            q.push_back(rec.stamp_enqueue());
        }
        while let Some(stamp) = q.pop_front() {
            rec.record_dequeue(stamp);
        }
    }
    assert_eq!(est.into_stats().max_error, 0);

    // d-CBO under contention: choice-of-two on operation counters keeps
    // the error envelope near shards x threads even with every thread
    // hammering the queue.
    let shards = 8usize;
    let threads = 4 * stress();
    let per = 8_000usize;
    let q: Arc<DCboQueue<u64>> = Arc::new(QueueBuilder::new(shards).seed(29).d_cbo());
    let est = ConcurrentRankEstimator::new();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mut rec = est.recorder();
            let q = Arc::clone(&q);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
                for _ in 0..per {
                    if rng.gen_bool(0.5) {
                        q.enqueue(rec.stamp_enqueue(), &mut rng);
                    } else if let Some(stamp) = q.dequeue(&mut rng) {
                        rec.record_dequeue(stamp);
                    }
                }
            });
        }
    });
    let stats = est.into_stats();
    assert!(stats.dequeues > 0, "no dequeues measured");
    let envelope = 8.0 * (shards * threads) as f64;
    assert!(
        stats.mean_error() <= envelope,
        "mean estimated error {} beyond envelope {envelope}",
        stats.mean_error()
    );
}

/// The d-CBO rank-error envelope measured through **worker sessions**
/// with `shards_per_worker = 2` and batched enqueues: locality-first
/// draining and batch publication add relaxation, but choice-of-two
/// stealing must keep the mean estimated error inside the same generous
/// shards × threads envelope as the session-free run above.
#[test]
fn fifo_session_estimator_envelope_two_homes() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rsched_queues::ConcurrentRankEstimator;

    let shards = 8usize;
    let threads = 4 * stress();
    let per = 8_000usize;
    let q: Arc<DCboQueue<u64>> = Arc::new(QueueBuilder::new(shards).seed(31).d_cbo());
    let est = ConcurrentRankEstimator::new();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let mut rec = est.recorder();
            let q = Arc::clone(&q);
            scope.spawn(move || {
                let mut coin = SmallRng::seed_from_u64(t as u64 + 2);
                let mut session = q.session(&SessionConfig {
                    shards_per_worker: 2,
                    spawn_batch: 4,
                    ..SessionConfig::for_worker(t, threads)
                });
                for _ in 0..per {
                    if coin.gen_bool(0.5) {
                        q.push_session(rec.stamp_enqueue(), &mut session);
                    } else if let Some((stamp, _)) = q.pop_session(&mut session) {
                        rec.record_dequeue(stamp);
                    }
                }
                // Forced flush at quiescence so the drain below sees
                // every stamped enqueue.
                q.flush_session(&mut session);
            });
        }
    });
    // Conservation across the session path: drain what is left and
    // match the estimator's enqueue count against its recorded dequeues.
    let mut drain = q.session(&SessionConfig::unaffine(0));
    let mut left = 0u64;
    while q.pop_session(&mut drain).is_some() {
        left += 1;
    }
    let enqueued = est.enqueues();
    let stats = est.into_stats();
    assert_eq!(
        enqueued,
        stats.dequeues + left,
        "batched session enqueues lost or duplicated"
    );
    assert!(stats.dequeues > 0, "no dequeues measured");
    let envelope = 8.0 * (shards * threads) as f64;
    assert!(
        stats.mean_error() <= envelope,
        "session mean estimated error {} beyond envelope {envelope}",
        stats.mean_error()
    );
}

/// Home-shard/steal accounting through the runtime: with
/// `shards_per_worker` covering every shard exactly once, pops are
/// classified Home or Steal (never Shared), a single worker owning all
/// shards never steals, and the counts always partition the pops.
#[test]
fn runtime_home_shard_steal_accounting() {
    use std::sync::atomic::AtomicU32;

    // 8 workers × 2 home shards = all 16 shards owned.
    let n = 20_000usize;
    let queue: DCboQueue<(usize, u64)> = QueueBuilder::new(16).seed(3).d_cbo();
    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let stats = run_pool(
        &queue,
        RuntimeConfig {
            threads: 8,
            seed: 11,
            shards_per_worker: 2,
            spawn_batch: 4,
            ..RuntimeConfig::default()
        },
        (0..n / 2).map(|i| (2 * i, 1u64)),
        |w, item, depth| {
            hits[item].fetch_add(1, Ordering::AcqRel);
            if depth > 0 && item + 1 < n {
                w.spawn(item + 1, depth - 1);
            }
            TaskOutcome::Executed
        },
    );
    assert_eq!(stats.total.executed, n as u64, "every task exactly once");
    assert_eq!(
        stats.total.home_hits + stats.total.steals,
        stats.total.pops,
        "full ownership must classify every pop as Home or Steal"
    );
    assert!(stats.total.home_hits > 0, "home shards never hit");
    for h in &hits {
        assert_eq!(h.load(Ordering::Acquire), 1);
    }

    // One worker owning every shard: nothing left to steal from.
    let queue: DCboQueue<(usize, u64)> = QueueBuilder::new(4).seed(5).d_cbo();
    let stats = run_pool(
        &queue,
        RuntimeConfig {
            threads: 1,
            seed: 0,
            shards_per_worker: 4,
            spawn_batch: 8,
            ..RuntimeConfig::default()
        },
        (0..1_000usize).map(|i| (i, 0u64)),
        |_, _, _| TaskOutcome::Executed,
    );
    assert_eq!(stats.total.executed, 1_000);
    assert_eq!(stats.total.steals, 0, "sole owner of all shards stole");
    assert_eq!(stats.total.home_hits, stats.total.pops);
}

/// Batched spawns through the runtime on the **merge-capable**
/// MultiQueue scheduler: duplicate spawns dedup inside the session
/// buffer or merge at flush, every merge retracts its termination
/// announcement, and the pool still quiesces exactly (this test hangs
/// if a flush report ever under- or over-counts). The blocked-chain
/// variant forces the flush-on-pop-miss path: re-queued blocked tasks
/// park in the buffer and must publish before the pool may sleep.
#[test]
fn runtime_batched_spawns_conserve_with_merges() {
    use std::sync::atomic::AtomicBool;

    // Duplicate spawns: each executed task spawns its successor twice
    // (the second is a buffer dedup or a shared merge).
    let n = 4_000usize;
    let queue = QueueBuilder::new(8).universe(n).multiqueue::<u64>();
    let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let stats = run_pool(
        &queue,
        RuntimeConfig {
            threads: 4,
            seed: 21,
            shards_per_worker: 1,
            spawn_batch: 8,
            ..RuntimeConfig::default()
        },
        [(0usize, 0u64)],
        |w, item, prio| {
            if !done[item].swap(true, Ordering::AcqRel) && item + 1 < n {
                w.spawn(item + 1, prio + 2);
                w.spawn(item + 1, prio + 1);
            }
            TaskOutcome::Executed
        },
    );
    assert!(done.iter().all(|d| d.load(Ordering::Acquire)));
    assert!(
        stats.total.merged > 0,
        "duplicate spawns never merged (buffer dedup broken?)"
    );
    assert_eq!(
        stats.total.pops,
        // Seed + net spawns: every pop consumes one announced element.
        1 + stats.total.spawned,
        "announced elements and pops disagree"
    );

    // Blocked chain under batching: requeues flow through the spawn
    // buffer; termination must wait for the forced flush.
    let n = 300usize;
    let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let queue = QueueBuilder::new(8).universe(n).multiqueue::<u64>();
    let stats = run_pool(
        &queue,
        RuntimeConfig {
            threads: 4,
            seed: 9,
            shards_per_worker: 1,
            spawn_batch: 4,
            ..RuntimeConfig::default()
        },
        (0..n).map(|i| (i, i as u64)),
        |_, item, _| {
            if item > 0 && !done[item - 1].load(Ordering::Acquire) {
                return TaskOutcome::Blocked;
            }
            let was = done[item].swap(true, Ordering::AcqRel);
            assert!(!was);
            TaskOutcome::Executed
        },
    );
    assert_eq!(stats.total.executed, n as u64);
    assert_eq!(
        stats.total.pops,
        stats.total.executed + stats.total.extra + stats.total.stale
    );
}
