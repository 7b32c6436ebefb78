//! **QBENCH** — Criterion micro-benchmarks of the priority-queue substrate:
//! sequential throughput of every queue, plus contended throughput of the
//! concurrent MultiQueue at several queue counts (the scalability argument
//! for relaxation that motivates the whole paper).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsched_queues::{
    ConcurrentMultiQueue, Exact, IndexedBinaryHeap, PairingHeap, PriorityQueue, QueueBuilder,
    RelaxedQueue, RotatingKQueue, SimMultiQueue, SprayList,
};
use std::sync::Arc;

const N: usize = 10_000;

fn keys(seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..N).map(|_| rng.gen_range(0..1_000_000)).collect()
}

fn bench_sequential_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_pop_10k");
    group.throughput(Throughput::Elements(N as u64));
    let ks = keys(1);

    group.bench_function("indexed_binary_heap", |b| {
        b.iter(|| {
            let mut h = IndexedBinaryHeap::new();
            for (i, &k) in ks.iter().enumerate() {
                h.push(i, k);
            }
            while h.pop().is_some() {}
        })
    });
    group.bench_function("pairing_heap", |b| {
        b.iter(|| {
            let mut h = PairingHeap::new();
            for (i, &k) in ks.iter().enumerate() {
                h.push(i, k);
            }
            while h.pop().is_some() {}
        })
    });
    group.bench_function("sim_multiqueue_q8", |b| {
        b.iter(|| {
            let mut q = SimMultiQueue::new(8, 3);
            for (i, &k) in ks.iter().enumerate() {
                q.insert(i, k);
            }
            while q.pop_relaxed().is_some() {}
        })
    });
    group.bench_function("spraylist_p8", |b| {
        b.iter(|| {
            let mut q = SprayList::new(8, 3);
            for (i, &k) in ks.iter().enumerate() {
                q.insert(i, k);
            }
            while q.pop_relaxed().is_some() {}
        })
    });
    group.bench_function("rotating_k8", |b| {
        b.iter(|| {
            let mut q = RotatingKQueue::new(8);
            for (i, &k) in ks.iter().enumerate() {
                q.insert(i, k);
            }
            while q.pop_relaxed().is_some() {}
        })
    });
    group.bench_function("exact_wrapper", |b| {
        b.iter(|| {
            let mut q = Exact(IndexedBinaryHeap::new());
            for (i, &k) in ks.iter().enumerate() {
                q.insert(i, k);
            }
            while q.pop_relaxed().is_some() {}
        })
    });
    group.finish();
}

fn bench_decrease_key(c: &mut Criterion) {
    use rsched_queues::DecreaseKey;
    let mut group = c.benchmark_group("decrease_key_10k");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("indexed_binary_heap", |b| {
        b.iter(|| {
            let mut h = IndexedBinaryHeap::new();
            for i in 0..N {
                h.push(i, 1_000_000 + i as u64);
            }
            for i in 0..N {
                h.decrease_key(i, i as u64);
            }
            while h.pop().is_some() {}
        })
    });
    group.bench_function("pairing_heap", |b| {
        b.iter(|| {
            let mut h = PairingHeap::new();
            for i in 0..N {
                h.push(i, 1_000_000 + i as u64);
            }
            for i in 0..N {
                h.decrease_key(i, i as u64);
            }
            while h.pop().is_some() {}
        })
    });
    group.finish();
}

/// Contended producer/consumer throughput of the concurrent MultiQueue:
/// every thread pushes then pops its share. More internal queues = less
/// contention = higher throughput, the MultiQueue design point.
fn bench_concurrent_multiqueue(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(8);
    let per_thread = 20_000usize;
    let mut group = c.benchmark_group(format!("concurrent_mq_{threads}threads"));
    group.throughput(Throughput::Elements((threads * per_thread) as u64));
    group.sample_size(10);
    for mult in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("queue_mult", mult), &mult, |b, &mult| {
            b.iter(|| {
                let q = Arc::new(QueueBuilder::new(threads * mult).multiqueue::<u64>());
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let q = Arc::clone(&q);
                        s.spawn(move || {
                            let mut rng = SmallRng::seed_from_u64(t as u64);
                            for i in 0..per_thread {
                                q.push_or_decrease(t * per_thread + i, rng.gen_range(0..1_000_000));
                            }
                            for _ in 0..per_thread {
                                while q.pop(&mut rng).is_none() {
                                    if q.is_empty() {
                                        break;
                                    }
                                }
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// Contended MultiQueue throughput per priority-shard backend: the
/// lock-free skiplist (default since PR 3) against the mutex-heap
/// baseline, same workload as `bench_concurrent_multiqueue`. The
/// `mq_contention` binary runs the full thread sweep; this is the
/// quick-look cell.
fn bench_multiqueue_backends(c: &mut Criterion) {
    use rsched_queues::SubPriority;
    let threads = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .clamp(2, 8);
    let per_thread = 20_000usize;
    let mut group = c.benchmark_group(format!("mq_backends_{threads}threads"));
    group.throughput(Throughput::Elements((threads * per_thread) as u64));
    group.sample_size(10);
    fn cell<S: SubPriority<u64> + 'static>(threads: usize, per_thread: usize) {
        use rsched_queues::SessionConfig;
        let q: Arc<ConcurrentMultiQueue<u64, S>> =
            Arc::new(QueueBuilder::new(2 * threads).multiqueue_on());
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    let mut session = q.session(&SessionConfig::for_worker(t, threads));
                    for i in 0..per_thread {
                        q.push_session(
                            t * per_thread + i,
                            rng.gen_range(0..1_000_000),
                            &mut session,
                        );
                        if i % 2 == 0 {
                            q.pop_session(&mut session);
                        }
                    }
                });
            }
        });
    }
    group.bench_function("skiplist", |b| {
        b.iter(|| cell::<rsched_queues::SkipShard<u64>>(threads, per_thread))
    });
    group.bench_function("mutexheap", |b| {
        b.iter(|| cell::<rsched_queues::MutexHeapSub<u64>>(threads, per_thread))
    });
    group.finish();
}

/// Single-thread push/pop throughput of the lock-free sub-queues (the
/// segmented-ring FIFO shard plus the skiplist priority shard), mirroring the
/// `fifo_contention` / `mq_contention` cells at the micro level.
fn bench_lockfree_subqueues(c: &mut Criterion) {
    use rsched_queues::skipshard::TryPopMin;
    use rsched_queues::{SegRingQueue, SkipShard, SubPriority};
    let mut group = c.benchmark_group("lockfree_push_pop_10k");
    group.throughput(Throughput::Elements(N as u64));
    let ks = keys(7);
    group.bench_function("seg_ring", |b| {
        b.iter(|| {
            let q = SegRingQueue::new();
            for (i, &k) in ks.iter().enumerate() {
                q.push_stamped(i as u64, k);
            }
            while q.pop_stamped().is_some() {}
        })
    });
    group.bench_function("seg_ring_reused", |b| {
        // One long-lived queue: after warm-up the segment pool absorbs
        // every allocation, the steady state real workloads see.
        let q = SegRingQueue::new();
        b.iter(|| {
            for (i, &k) in ks.iter().enumerate() {
                q.push_stamped(i as u64, k);
            }
            while q.pop_stamped().is_some() {}
        })
    });
    group.bench_function("skiplist_shard", |b| {
        b.iter(|| {
            let s: SkipShard<u64> = SubPriority::new();
            let tok = <SkipShard<u64> as SubPriority<u64>>::token();
            for (i, &k) in ks.iter().enumerate() {
                s.push_or_decrease(i, k, &tok);
            }
            while let TryPopMin::Item(_) = s.try_pop_min(&tok) {}
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sequential_queues,
    bench_decrease_key,
    bench_concurrent_multiqueue,
    bench_multiqueue_backends,
    bench_lockfree_subqueues
);
criterion_main!(benches);
