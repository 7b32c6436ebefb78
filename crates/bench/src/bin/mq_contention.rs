//! **MQ-CONTENTION** — multithreaded throughput sweep of the concurrent
//! MultiQueue across priority-shard backends.
//!
//! For every `(backend ∈ {mutexheap, skiplist}) × threads` cell,
//! `threads` workers hammer one shared [`ConcurrentMultiQueue`] with the
//! **SSSP-pop workload**: alternating `push_or_decrease` of a random
//! item at a priority just above the worker's advancing distance front,
//! and a two-choice relaxed `pop` — the operation mix Algorithm 3 of the
//! paper issues while the distance frontier advances, including the
//! decrease-key hits a keyed MultiQueue exists for. Every worker drives
//! the queue through its [`MqSession`]: the amortized epoch pin and the
//! spawn and deletion buffers (`RSCHED_SPAWN_BATCH`), so the sweep
//! exercises exactly the runtime's session path. This is the
//! experiment behind the lock-free-priority-shards claim: the mutex
//! backend pays a lock per peek and convoys when a holder is preempted,
//! while the skiplist backend peeks racily and claims with one CAS, so a
//! preempted thread costs only its own progress.
//!
//! The interesting read-out is the **regime crossover**, so the default
//! sweep deliberately runs deep into oversubscription. At low thread
//! counts an uncontended ~30ns critical section never convoys and the
//! mutex-heap's smaller constants win; as threads exceed cores the mutex
//! baseline's throughput collapses (preempted holders, futex sleeps)
//! while the skiplist's stays nearly flat, and it takes the lead — on a
//! single-core host around 32–64 workers, earlier the more cores are
//! contending. That is the design's claim; on a 2-vCPU host the skiplist
//! won at most the 64-worker cell, and in some runs no cell at all
//! (`ci/baselines/README.md`, gate stack decision record).
//!
//! A manual probe: nothing in CI runs it. It is the one measurement of
//! the oversubscribed cells, where preemption and lock-holder
//! descheduling show, so decisions about the priority shard backends
//! read it; it is deleted together with the backend axis it sweeps.
//!
//! Every cell uses two shards per thread (the paper's Figure 1
//! configuration), item ids in `0..65536` and a prefill of 4096
//! pushes. Results print as one JSON object per line (prefixed `json,`;
//! `grep ^json, | cut -c6-` keeps just the objects), each carrying the
//! host's `nproc`. `RSCHED_THREADS=1,2,4,8` overrides the thread sweep,
//! `RSCHED_SCALE` (small/medium/paper) the per-thread operation count,
//! `RSCHED_REPS` the repetitions per cell (best run reported,
//! suppressing scheduler noise on oversubscribed hosts), and
//! `RSCHED_SPAWN_BATCH` every session's spawn batch (default 1; recorded
//! in each record).
//!
//! ```text
//! cargo run -p rsched-bench --release --bin mq_contention
//! RSCHED_THREADS=8,16 RSCHED_SPAWN_BATCH=8 \
//!     cargo run -p rsched-bench --release --bin mq_contention
//! ```
//!
//! [`MqSession`]: rsched_queues::MqSession

use rsched_bench::{env_thread_list, env_usize, telemetry_json_fields, Scale};
use rsched_queues::{
    telemetry, ConcurrentMultiQueue, FlushReport, MqSession, MutexHeapSub, PopSource, PushOutcome,
    QueueBuilder, SessionConfig, SkipShard, SubPriority, TelemetrySnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Pushes before the measured window, so pops start on a populated
/// queue.
const PREFILL: usize = 4_096;
/// Item ids are drawn from `0..UNIVERSE`; the shard registries are
/// pre-allocated for it.
const UNIVERSE: usize = 1 << 16;

/// The operations the sweep needs, unified over every shard backend.
/// All traffic flows through the worker session.
trait ContendedMq: Sync {
    fn open(&self, cfg: &SessionConfig) -> MqSession<u64>;
    fn push_or_dec(&self, item: usize, prio: u64, s: &mut MqSession<u64>) -> PushOutcome;
    fn pop(&self, s: &mut MqSession<u64>) -> Option<((usize, u64), PopSource)>;
    fn flush(&self, s: &mut MqSession<u64>) -> FlushReport;
}

impl<S: SubPriority<u64>> ContendedMq for ConcurrentMultiQueue<u64, S> {
    fn open(&self, cfg: &SessionConfig) -> MqSession<u64> {
        self.session(cfg)
    }

    fn push_or_dec(&self, item: usize, prio: u64, s: &mut MqSession<u64>) -> PushOutcome {
        self.push_session(item, prio, s)
    }

    fn pop(&self, s: &mut MqSession<u64>) -> Option<((usize, u64), PopSource)> {
        self.pop_session(s)
    }

    fn flush(&self, s: &mut MqSession<u64>) -> FlushReport {
        self.flush_session(s)
    }
}

struct Trial {
    wall_s: f64,
    ops: u64,
    pops: u64,
    inserts: u64,
    merges: u64,
    telemetry: TelemetrySnapshot,
}

/// Per-worker conservation bookkeeping over session outcomes, split
/// into inserts/merges for the JSON record; the net-insert rule itself
/// is [`PushOutcome::net_new`].
#[derive(Default)]
struct Accounting {
    pushes: u64,
    net: i64,
}

impl Accounting {
    fn push(&mut self, out: PushOutcome) {
        self.pushes += 1;
        self.net += out.net_new();
    }

    fn flush(&mut self, rep: FlushReport) {
        self.net -= rep.merged as i64;
    }

    fn inserts(&self) -> u64 {
        self.net as u64
    }

    fn merges(&self) -> u64 {
        self.pushes - self.net as u64
    }
}

/// Run one contention cell: `threads` workers, each `ops_per_thread`
/// operations of the SSSP-pop mix against `queue`, through sessions.
fn trial<Q: ContendedMq>(
    queue: &Q,
    threads: usize,
    ops_per_thread: usize,
    spawn_batch: usize,
) -> Trial {
    use rand::Rng;
    let prefill_inserts = {
        let mut acct = Accounting::default();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0x55_59);
        let mut session = queue.open(&SessionConfig {
            seed: 0x55_59,
            ..SessionConfig::default()
        });
        for _ in 0..PREFILL {
            let item = rng.gen_range(0..UNIVERSE);
            acct.push(queue.push_or_dec(item, rng.gen_range(0..1_000), &mut session));
        }
        acct.flush(queue.flush(&mut session));
        acct.inserts()
    };
    // Measured telemetry window: prefill discarded, drain excluded.
    telemetry::reset();
    let barrier = Barrier::new(threads);
    let pops = AtomicU64::new(0);
    let inserts = AtomicU64::new(0);
    let merges = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let (barrier, pops, inserts, merges, queue) =
                (&barrier, &pops, &inserts, &merges, &queue);
            scope.spawn(move || {
                let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(
                    tid as u64 * 0x9E37 + 1,
                );
                let mut acct = Accounting::default();
                let mut my_pops = 0u64;
                // The worker's advancing "distance front", as in SSSP:
                // new priorities land just above the last popped one.
                let mut front = 0u64;
                let mut session = queue.open(&SessionConfig {
                    tid,
                    workers: threads,
                    seed: tid as u64 * 0x5E55 + 7,
                    spawn_batch,
                });
                barrier.wait();
                for op in 0..ops_per_thread {
                    if op % 2 == 0 {
                        let item = rng.gen_range(0..UNIVERSE);
                        let prio = front + rng.gen_range(0..1_000u64);
                        acct.push(queue.push_or_dec(item, prio, &mut session));
                    } else if let Some(((_, d), _)) = queue.pop(&mut session) {
                        my_pops += 1;
                        front = front.max(d);
                    }
                }
                // Forced flush: parked pushes must publish before the
                // conservation accounting below.
                acct.flush(queue.flush(&mut session));
                pops.fetch_add(my_pops, Ordering::Relaxed);
                inserts.fetch_add(acct.inserts(), Ordering::Relaxed);
                merges.fetch_add(acct.merges(), Ordering::Relaxed);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let snapshot = telemetry::capture();
    // Drain (outside the timed phase) and check conservation: every
    // insert that reported "net-new" must come out exactly once.
    let mut drain = queue.open(&SessionConfig {
        seed: 0,
        ..SessionConfig::default()
    });
    let mut drained = 0u64;
    while queue.pop(&mut drain).is_some() {
        drained += 1;
    }
    let popped = pops.load(Ordering::Relaxed);
    let inserted = prefill_inserts + inserts.load(Ordering::Relaxed);
    assert_eq!(
        inserted,
        popped + drained,
        "conservation violated: {inserted} in, {popped} + {drained} out"
    );
    Trial {
        wall_s,
        ops: (threads * ops_per_thread) as u64,
        pops: popped,
        inserts: inserts.load(Ordering::Relaxed),
        merges: merges.load(Ordering::Relaxed),
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
    let spawn_batch = env_usize("RSCHED_SPAWN_BATCH", 1);
    // Deep oversubscription on purpose: the crossover is the result.
    let threads_sweep = env_thread_list(&[1, 2, 4, 8, 16, 32, 64]);
    println!(
        "== MultiQueue contention sweep (scale {scale:?}, {ops_per_thread} ops/thread, \
         SSSP-pop workload, universe {UNIVERSE}, prefill {PREFILL}, best of {reps}, \
         threads {threads_sweep:?}, nproc {nproc}, spawn batch {spawn_batch}) ==",
    );
    for &threads in &threads_sweep {
        // Two shards per thread: the paper's Figure 1 MultiQueue
        // configuration (queue_multiplier = 2).
        let shards = 2 * threads;
        type Cell<'a> = (&'a str, Box<dyn Fn() -> Trial>);
        let makes: [Cell<'_>; 2] = [
            (
                "mutexheap",
                Box::new(move || {
                    let q: ConcurrentMultiQueue<u64, MutexHeapSub<u64>> =
                        QueueBuilder::new(shards).universe(UNIVERSE).multiqueue_on();
                    trial(&q, threads, ops_per_thread, spawn_batch)
                }),
            ),
            (
                "skiplist",
                Box::new(move || {
                    let q: ConcurrentMultiQueue<u64, SkipShard<u64>> =
                        QueueBuilder::new(shards).universe(UNIVERSE).multiqueue_on();
                    trial(&q, threads, ops_per_thread, spawn_batch)
                }),
            ),
        ];
        // Interleave the repetitions round-robin so background-load
        // drift on the host hits every cell equally; keep each cell's
        // best run.
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
                "json,{{\"queue\":\"multiqueue\",\"backend\":\"{backend}\",\"threads\":{threads},\
                 \"nproc\":{nproc},\"shards\":{shards},\"prefill\":{PREFILL},\"universe\":{UNIVERSE},\
                 \"spawn_batch\":{spawn_batch},\
                 \"ops\":{},\"wall_s\":{:.6},\"ops_per_sec\":{:.1},\"pops\":{},\
                 \"pops_per_sec\":{:.1},\"inserts\":{},\"merges\":{},\
                 \"merge_fraction\":{:.4},{},\"registry_probes\":{}}}",
                t.ops,
                t.wall_s,
                t.ops as f64 / t.wall_s,
                t.pops,
                t.pops as f64 / t.wall_s,
                t.inserts,
                t.merges,
                if t.inserts + t.merges == 0 {
                    0.0
                } else {
                    t.merges as f64 / (t.inserts + t.merges) as f64
                },
                telemetry_json_fields(&t.telemetry),
                t.telemetry.registry_probes,
            );
        }
    }
}
