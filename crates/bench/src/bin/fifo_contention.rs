//! **FIFO-CONTENTION** — multithreaded throughput and concurrent
//! rank-error sweep of the relaxed FIFO (d-CBO) across shard backends.
//!
//! For every `(backend ∈ {mutex, segring}) × threads` cell, `threads`
//! workers hammer one shared [`DCboQueue`] with alternating
//! enqueue/dequeue pairs (the classic queue microbenchmark, also the
//! d-CBO paper's) while the [`ConcurrentRankEstimator`] stamps every
//! enqueue and logs every dequeue. Each worker drives the queue through
//! its **worker session** ([`FifoSession`]): the amortized epoch pin,
//! owned home shards offered as each pop's first choice, the bounded
//! spawn buffer that publishes batches and, at `RSCHED_SPAWN_BATCH` ≥ 8,
//! the deletion buffer — so the sweep exercises exactly the
//! path the runtime's worker pool uses. This is the experiment behind
//! the lock-free-shards claim: under oversubscription a preempted mutex
//! holder stalls its whole shard, while the lock-free backends only lose
//! the preempted thread's own progress ("lock-free algorithms are
//! practically wait-free").
//!
//! A manual probe: nothing in CI runs it. It is the one measurement of
//! the oversubscribed cells (more workers than cores), where preemption
//! and lock-holder descheduling show, so decisions about the FIFO shard
//! backends read it; it is deleted together with the backend axis it
//! sweeps.
//!
//! Every cell starts empty and uses `max(threads, 4)` shards: one shard
//! per thread, the faithful d-CBO configuration (balanced operations
//! keep errors low *without* over-sharding). Results print as one JSON
//! object per line (prefixed `json,`; `grep ^json, | cut -c6-` keeps
//! just the objects), each carrying the host's `nproc`.
//! `RSCHED_THREADS=1,2,4,8` overrides the default thread sweep,
//! `RSCHED_SCALE` (small/medium/paper) the per-thread operation count,
//! `RSCHED_REPS` the repetitions per cell (the best run is reported,
//! which suppresses scheduler noise on oversubscribed hosts), and the
//! session axes ride on `RSCHED_SHARDS_PER_WORKER` (home shards per
//! worker, 0 = no affinity) and `RSCHED_SPAWN_BATCH` (enqueue batching)
//! — both recorded in every JSON line.
//!
//! ```text
//! cargo run -p rsched-bench --release --bin fifo_contention
//! RSCHED_THREADS=8,16 RSCHED_SHARDS_PER_WORKER=2 RSCHED_SPAWN_BATCH=8 \
//!     cargo run -p rsched-bench --release --bin fifo_contention
//! ```
//!
//! [`ConcurrentRankEstimator`]: rsched_queues::instrument::ConcurrentRankEstimator
//! [`FifoSession`]: rsched_queues::FifoSession

use rsched_bench::{env_thread_list, env_usize, session_knobs, telemetry_json_fields, Scale};
use rsched_queues::instrument::ConcurrentRankEstimator;
use rsched_queues::lockfree::SegRingQueue;
use rsched_queues::{
    telemetry, DCboQueue, FifoRankStats, MutexSub, PopSource, QueueBuilder, SessionConfig, SubFifo,
    TelemetrySnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

struct Trial {
    wall_s: f64,
    ops: u64,
    pops: u64,
    home_hits: u64,
    steals: u64,
    stats: FifoRankStats,
    telemetry: TelemetrySnapshot,
}

/// Session tuning for one trial cell.
#[derive(Clone, Copy)]
struct Tuning {
    shards_per_worker: usize,
    spawn_batch: usize,
}

/// Run one contention cell: `threads` workers, each `ops_per_thread`
/// alternating operations against `queue` through per-worker sessions,
/// rank errors estimated live. The payload *is* the estimator stamp.
fn trial<S: SubFifo<u64>>(
    queue: &DCboQueue<u64, S>,
    threads: usize,
    ops_per_thread: usize,
    tuning: Tuning,
) -> Trial {
    let est = ConcurrentRankEstimator::new();
    // Measured telemetry window: drain excluded (capture happens right
    // after the workers join).
    telemetry::reset();
    let barrier = Barrier::new(threads);
    let pops = AtomicU64::new(0);
    let home_hits = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let mut rec = est.recorder();
            let (barrier, pops, home_hits, steals) = (&barrier, &pops, &home_hits, &steals);
            scope.spawn(move || {
                let mut session = queue.session(&SessionConfig {
                    shards_per_worker: tuning.shards_per_worker,
                    spawn_batch: tuning.spawn_batch,
                    ..SessionConfig::for_worker(tid, threads)
                });
                let (mut my_pops, mut my_homes, mut my_steals) = (0u64, 0u64, 0u64);
                barrier.wait();
                for op in 0..ops_per_thread {
                    if op % 2 == 0 {
                        queue.push_session(rec.stamp_enqueue(), &mut session);
                    } else if let Some((stamp, src)) = queue.pop_session(&mut session) {
                        match src {
                            PopSource::Home => my_homes += 1,
                            PopSource::Steal => my_steals += 1,
                            PopSource::Shared => {}
                        }
                        rec.record_dequeue(stamp);
                        my_pops += 1;
                    }
                }
                // Forced flush at the end of the run: parked enqueues
                // must publish for the conservation accounting below.
                queue.flush_session(&mut session);
                pops.fetch_add(my_pops, Ordering::Relaxed);
                home_hits.fetch_add(my_homes, Ordering::Relaxed);
                steals.fetch_add(my_steals, Ordering::Relaxed);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let snapshot = telemetry::capture();
    // Drain (unrecorded, outside the timed phase) and account: nothing
    // lost, nothing duplicated.
    let mut drain = queue.session(&SessionConfig::unaffine(0));
    let mut drained = 0u64;
    while queue.pop_session(&mut drain).is_some() {
        drained += 1;
    }
    let enqueued = est.enqueues();
    let popped = pops.load(Ordering::Relaxed);
    assert_eq!(
        enqueued,
        popped + drained,
        "conservation violated: {enqueued} in, {popped} + {drained} out"
    );
    Trial {
        wall_s,
        ops: (threads * ops_per_thread) as u64,
        pops: popped,
        home_hits: home_hits.load(Ordering::Relaxed),
        steals: steals.load(Ordering::Relaxed),
        stats: est.into_stats(),
        telemetry: snapshot,
    }
}

fn main() {
    let scale = Scale::from_env();
    let ops_per_thread = match scale {
        Scale::Small => 100_000usize,
        Scale::Medium => 400_000,
        Scale::Paper => 1_000_000,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let reps = env_usize("RSCHED_REPS", 8).clamp(1, 16);
    let threads_sweep = env_thread_list(&[1, 2, 4, 8, 16]);
    let (shards_per_worker, spawn_batch) = session_knobs();
    let tuning = Tuning {
        shards_per_worker,
        spawn_batch,
    };
    println!(
        "== relaxed-FIFO contention sweep (scale {scale:?}, {ops_per_thread} ops/thread, \
         pairs workload, best of {reps}, threads {threads_sweep:?}, nproc {nproc}, \
         shards/worker {shards_per_worker}, spawn batch {spawn_batch}) ==",
    );
    for &threads in &threads_sweep {
        let shards = threads.max(4);
        fn cell<S: SubFifo<u64> + 'static>(
            shards: usize,
            threads: usize,
            ops_per_thread: usize,
            tuning: Tuning,
        ) -> Box<dyn Fn() -> Trial> {
            Box::new(move || {
                let q = QueueBuilder::new(shards).seed(7).d_cbo_on::<u64, S>();
                trial(&q, threads, ops_per_thread, tuning)
            })
        }
        let makes = [
            (
                "mutex",
                cell::<MutexSub<u64>>(shards, threads, ops_per_thread, tuning),
            ),
            (
                "segring",
                cell::<SegRingQueue<u64>>(shards, threads, ops_per_thread, tuning),
            ),
        ];
        // Interleave the repetitions round-robin so background-load
        // drift on the host hits every cell equally, then keep each
        // cell's best run.
        let mut best: Vec<Option<Trial>> = makes.iter().map(|_| None).collect();
        for _rep in 0..reps {
            for (slot, (_, make)) in best.iter_mut().zip(&makes) {
                let t = make();
                let better = slot
                    .as_ref()
                    .is_none_or(|b| t.pops as f64 / t.wall_s > b.pops as f64 / b.wall_s);
                if better {
                    *slot = Some(t);
                }
            }
        }
        for ((backend, _), t) in makes.iter().zip(best) {
            let t = t.expect("reps >= 1");
            println!(
                "json,{{\"queue\":\"d-cbo\",\"backend\":\"{backend}\",\"threads\":{threads},\
                 \"nproc\":{nproc},\"shards\":{shards},\
                 \"shards_per_worker\":{shards_per_worker},\"spawn_batch\":{spawn_batch},\
                 \"ops\":{},\"wall_s\":{:.6},\
                 \"ops_per_sec\":{:.1},\"pops\":{},\"pops_per_sec\":{:.1},\
                 \"home_hits\":{},\"home_fraction\":{:.4},\"steals\":{},\
                 \"steal_fraction\":{:.4},\"dequeues_measured\":{},\"mean_rank_error\":{:.4},\
                 \"p99_rank_error\":{},\"max_rank_error\":{},{}}}",
                t.ops,
                t.wall_s,
                t.ops as f64 / t.wall_s,
                t.pops,
                t.pops as f64 / t.wall_s,
                t.home_hits,
                if t.pops == 0 {
                    0.0
                } else {
                    t.home_hits as f64 / t.pops as f64
                },
                t.steals,
                if t.pops == 0 {
                    0.0
                } else {
                    t.steals as f64 / t.pops as f64
                },
                t.stats.dequeues,
                t.stats.mean_error(),
                t.stats.error_quantile(0.99),
                t.stats.max_error,
                telemetry_json_fields(&t.telemetry),
            );
        }
    }
}
