//! **FIFO-CONTENTION** — multithreaded throughput and concurrent
//! rank-error sweep of the relaxed FIFO family across shard backends.
//!
//! For every `(queue ∈ {d-RA, d-CBO}) × (backend ∈ {mutex, segring}) ×
//! threads` cell, `threads` workers hammer one shared queue with a
//! 50/50 enqueue/dequeue mix while the
//! [`ConcurrentRankEstimator`] stamps every enqueue and logs every
//! dequeue. Each worker drives the queue through its **worker session**
//! ([`FifoSession`]): the amortized epoch pin, owned home shards drained
//! before stealing, and the bounded spawn buffer that publishes batches
//! — so the sweep exercises exactly the path the runtime's worker pool
//! uses. This is the experiment behind the lock-free-shards claim: under
//! oversubscription a preempted mutex holder stalls its whole shard,
//! while the lock-free backends only lose the preempted thread's own
//! progress ("lock-free algorithms are practically wait-free").
//!
//! Results print as one JSON object per line (prefixed `json,`); set
//! `RSCHED_JSON_OUT=<path>` to also write the full run as a JSON array
//! (what CI uploads as the `BENCH_fifo_contention.json` artifact).
//! `RSCHED_THREADS=1,2,4,8` overrides the default thread sweep,
//! `RSCHED_SCALE` (small/medium/paper) the per-thread operation count,
//! `RSCHED_REPS` the repetitions per cell (the best run is reported,
//! which suppresses scheduler noise on oversubscribed hosts),
//! `RSCHED_SHARD_MULT` the shards-per-thread ratio (default 1, the
//! faithful d-CBO configuration), and the session axes ride on
//! `RSCHED_SHARDS_PER_WORKER` (home shards per worker, 0 = no affinity)
//! and `RSCHED_SPAWN_BATCH` (enqueue batching) — both recorded in every
//! JSON line.
//! `RSCHED_TRACE=1` additionally feeds the flight recorder
//! (`rsched_queues::trace`) from the measured loop — inject/pop/steal/
//! complete events per worker lane — and exports Chrome-trace JSON to
//! `RSCHED_TRACE_OUT` at exit; every record carries a `trace` flag so
//! `bench_compare` never pairs traced and untraced cells.
//!
//! ```text
//! cargo run -p rsched-bench --release --bin fifo_contention
//! RSCHED_THREADS=8,16 RSCHED_SHARDS_PER_WORKER=2 RSCHED_SPAWN_BATCH=8 \
//!     cargo run -p rsched-bench --release --bin fifo_contention
//! ```
//!
//! [`ConcurrentRankEstimator`]: rsched_queues::instrument::ConcurrentRankEstimator
//! [`FifoSession`]: rsched_queues::FifoSession

use rsched_bench::{
    env_opt_usize, env_thread_list, env_usize, session_knobs, telemetry_json_fields,
    write_json_artifact, Scale,
};
use rsched_queues::instrument::ConcurrentRankEstimator;
use rsched_queues::lockfree::SegRingQueue;
use rsched_queues::trace::{self, EventKind};
use rsched_queues::{
    telemetry, DCboQueue, DRaQueue, FifoRankStats, FifoSession, MutexSub, PopSource, QueueBuilder,
    SessionConfig, SubFifo, TelemetrySnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// The operations the sweep needs, unified over both family members and
/// every backend. The payload *is* the estimator stamp; all traffic
/// flows through the worker session.
trait ContendedFifo: Sync {
    fn open(&self, cfg: &SessionConfig) -> FifoSession<u64>;
    fn enq(&self, stamp: u64, s: &mut FifoSession<u64>);
    fn deq(&self, s: &mut FifoSession<u64>) -> Option<(u64, PopSource)>;
    /// Publish any parked enqueues (end of a worker's run, pre-drain).
    fn flush(&self, s: &mut FifoSession<u64>);
}

impl<S: SubFifo<u64>> ContendedFifo for DRaQueue<u64, S> {
    fn open(&self, cfg: &SessionConfig) -> FifoSession<u64> {
        self.session(cfg)
    }

    fn enq(&self, stamp: u64, s: &mut FifoSession<u64>) {
        self.push_session(stamp, s);
    }

    fn deq(&self, s: &mut FifoSession<u64>) -> Option<(u64, PopSource)> {
        self.pop_session(s)
    }

    fn flush(&self, s: &mut FifoSession<u64>) {
        self.flush_session(s);
    }
}

impl<S: SubFifo<u64>> ContendedFifo for DCboQueue<u64, S> {
    fn open(&self, cfg: &SessionConfig) -> FifoSession<u64> {
        self.session(cfg)
    }

    fn enq(&self, stamp: u64, s: &mut FifoSession<u64>) {
        self.push_session(stamp, s);
    }

    fn deq(&self, s: &mut FifoSession<u64>) -> Option<(u64, PopSource)> {
        self.pop_session(s)
    }

    fn flush(&self, s: &mut FifoSession<u64>) {
        self.flush_session(s);
    }
}

struct Trial {
    wall_s: f64,
    ops: u64,
    pops: u64,
    home_hits: u64,
    steals: u64,
    stats: FifoRankStats,
    telemetry: TelemetrySnapshot,
}

/// Workload shape: alternating enqueue/dequeue pairs (the classic queue
/// microbenchmark, also the d-CBO paper's), or a seeded random 50/50 mix
/// (`RSCHED_MIX=random`).
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Pairs,
    Random,
}

impl Mix {
    fn from_env() -> Self {
        match std::env::var("RSCHED_MIX").as_deref() {
            Ok("random") => Mix::Random,
            _ => Mix::Pairs,
        }
    }
}

/// Session tuning for one trial cell.
#[derive(Clone, Copy)]
struct Tuning {
    shards_per_worker: usize,
    spawn_batch: usize,
}

/// Run one contention cell: `threads` workers, each `ops_per_thread`
/// mixed operations against `queue` through per-worker sessions, rank
/// errors estimated live.
fn trial<Q: ContendedFifo>(
    queue: &Q,
    threads: usize,
    ops_per_thread: usize,
    prefill: usize,
    mix: Mix,
    tuning: Tuning,
) -> Trial {
    let est = ConcurrentRankEstimator::new();
    {
        let rec = est.recorder();
        let mut session = queue.open(&SessionConfig::unaffine(0xF1F0));
        for _ in 0..prefill {
            queue.enq(rec.stamp_enqueue(), &mut session);
        }
        queue.flush(&mut session);
    }
    // Measured telemetry window: prefill discarded, drain excluded
    // (capture happens right after the workers join).
    telemetry::reset();
    let barrier = Barrier::new(threads);
    let pops = AtomicU64::new(0);
    let home_hits = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let mut rec = est.recorder();
            let (barrier, pops, home_hits, steals, queue) =
                (&barrier, &pops, &home_hits, &steals, &queue);
            scope.spawn(move || {
                use rand::Rng;
                let mut session = queue.open(&SessionConfig {
                    shards_per_worker: tuning.shards_per_worker,
                    spawn_batch: tuning.spawn_batch,
                    ..SessionConfig::for_worker(tid, threads)
                });
                // A private coin for the random mix (the session owns the
                // shard-picker RNG; this one only decides push vs pop).
                let mut coin = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(
                    tid as u64 * 0x9E37 + 1,
                );
                let (mut my_pops, mut my_homes, mut my_steals) = (0u64, 0u64, 0u64);
                barrier.wait();
                for op in 0..ops_per_thread {
                    let push = match mix {
                        Mix::Pairs => op % 2 == 0,
                        Mix::Random => coin.gen_bool(0.5),
                    };
                    // Flight-recorder probes sit in the measured loop on
                    // purpose: with RSCHED_TRACE unset each `emit` is
                    // one relaxed load and a branch, and the committed
                    // baselines hold this bench to its usual tolerance —
                    // that comparison *is* the disabled-path overhead
                    // assertion.
                    if push {
                        let stamp = rec.stamp_enqueue();
                        trace::emit(EventKind::TaskInject, stamp);
                        queue.enq(stamp, &mut session);
                    } else if let Some((stamp, src)) = queue.deq(&mut session) {
                        // Steal before pop, matching the pool's emission
                        // order: the steal round is what *found* the item
                        // the pop event then claims.
                        match src {
                            PopSource::Home => my_homes += 1,
                            PopSource::Steal => {
                                trace::emit(EventKind::StealRound, stamp);
                                my_steals += 1;
                            }
                            PopSource::Shared => {}
                        }
                        trace::emit(EventKind::TaskPop, stamp);
                        rec.record_dequeue(stamp);
                        my_pops += 1;
                        trace::emit(EventKind::TaskComplete, stamp);
                    }
                }
                // Forced flush at the end of the run: parked enqueues
                // must publish for the conservation accounting below.
                queue.flush(&mut session);
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
    let mut drain = queue.open(&SessionConfig::unaffine(0));
    let mut drained = 0u64;
    while queue.deq(&mut drain).is_some() {
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
    // Start empty by default: the mixed workload grows the queue
    // organically, exercising both the contended-shard and near-empty
    // regimes (frontier tails); RSCHED_PREFILL pins a starting depth.
    let prefill = env_usize("RSCHED_PREFILL", 0);
    let reps = env_usize("RSCHED_REPS", 8).clamp(1, 16);
    let threads_sweep = env_thread_list(&[1, 2, 4, 8, 16]);
    let mix = Mix::from_env();
    let (shards_per_worker, spawn_batch) = session_knobs();
    let tuning = Tuning {
        shards_per_worker,
        spawn_batch,
    };
    println!(
        "== relaxed-FIFO contention sweep (scale {scale:?}, {ops_per_thread} ops/thread, \
         {} workload, best of {reps}, threads {threads_sweep:?}, \
         shards/worker {shards_per_worker}, spawn batch {spawn_batch}) ==",
        if mix == Mix::Pairs {
            "pairs"
        } else {
            "random-mix"
        },
    );
    let mut records: Vec<String> = Vec::new();
    // `trace` rides in every record so baseline comparisons only ever
    // pair traced cells with traced baselines (it's a key field in
    // bench_compare).
    let trace_on = trace::enabled();
    let shard_mult = env_usize("RSCHED_SHARD_MULT", 1).clamp(1, 8);
    let shards_override = env_opt_usize("RSCHED_SHARDS");
    for &threads in &threads_sweep {
        // One shard per thread by default: d-CBO's balanced-operation
        // choice is designed to keep errors low *without* over-sharding
        // (the PPoPP 2025 configuration); RSCHED_SHARD_MULT widens it
        // and RSCHED_SHARDS pins an absolute count.
        let shards = shards_override.unwrap_or((shard_mult * threads).max(4));
        type Cell<'a> = (&'a str, &'a str, Box<dyn Fn() -> Trial>);
        // Both family members over one backend, as boxed cells.
        fn backend_cells<S: SubFifo<u64> + 'static>(
            backend: &'static str,
            shards: usize,
            threads: usize,
            ops_per_thread: usize,
            prefill: usize,
            mix: Mix,
            tuning: Tuning,
        ) -> Vec<Cell<'static>> {
            vec![
                (
                    "d-ra",
                    backend,
                    Box::new(move || {
                        let q = QueueBuilder::new(shards).seed(7).d_ra_on::<u64, S>();
                        trial(&q, threads, ops_per_thread, prefill, mix, tuning)
                    }),
                ),
                (
                    "d-cbo",
                    backend,
                    Box::new(move || {
                        let q = QueueBuilder::new(shards).seed(7).d_cbo_on::<u64, S>();
                        trial(&q, threads, ops_per_thread, prefill, mix, tuning)
                    }),
                ),
            ]
        }
        let mut makes: Vec<Cell<'_>> = Vec::new();
        makes.extend(backend_cells::<MutexSub<u64>>(
            "mutex",
            shards,
            threads,
            ops_per_thread,
            prefill,
            mix,
            tuning,
        ));
        makes.extend(backend_cells::<SegRingQueue<u64>>(
            "segring",
            shards,
            threads,
            ops_per_thread,
            prefill,
            mix,
            tuning,
        ));
        // Interleave the repetitions round-robin so background-load
        // drift on the host hits every cell equally, then keep each
        // cell's best run.
        let mut best: Vec<Option<Trial>> = makes.iter().map(|_| None).collect();
        for _rep in 0..reps {
            for (slot, (_, _, make)) in best.iter_mut().zip(&makes) {
                let t = make();
                let better = slot
                    .as_ref()
                    .is_none_or(|b| t.pops as f64 / t.wall_s > b.pops as f64 / b.wall_s);
                if better {
                    *slot = Some(t);
                }
            }
        }
        let cells: Vec<(&str, &str, Trial)> = makes
            .iter()
            .zip(best)
            .map(|(&(q, b, _), t)| (q, b, t.expect("reps >= 1")))
            .collect();
        for (queue, backend, t) in cells {
            let record = format!(
                "{{\"queue\":\"{queue}\",\"backend\":\"{backend}\",\"threads\":{threads},\
                 \"shards\":{shards},\"prefill\":{prefill},\"trace\":{},\
                 \"shards_per_worker\":{shards_per_worker},\"spawn_batch\":{spawn_batch},\
                 \"ops\":{},\"wall_s\":{:.6},\
                 \"ops_per_sec\":{:.1},\"pops\":{},\"pops_per_sec\":{:.1},\
                 \"home_hits\":{},\"home_fraction\":{:.4},\"steals\":{},\
                 \"steal_fraction\":{:.4},\"dequeues_measured\":{},\"mean_rank_error\":{:.4},\
                 \"p99_rank_error\":{},\"max_rank_error\":{},{}}}",
                trace_on as u8,
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
            println!("json,{record}");
            records.push(record);
        }
    }
    // With RSCHED_TRACE=1 the rings now hold the last events of every
    // worker lane; write the Perfetto-loadable Chrome trace if a sink
    // is configured (no-op when tracing is off).
    trace::export_if_configured();
    write_json_artifact(&records);
}
