//! The worker-pool scheduler runtime.
//!
//! [`run`] is the single thread-pool / termination-detection
//! implementation in the workspace: every truly concurrent executor
//! (`run_relaxed_parallel`, the concurrent SSSP / BFS / label-propagation
//! relaxation kernel, k-core peeling) is a thin handler over it, and the
//! open-system [`service`](crate::service()) pool runs the same workers.
//! The runtime owns
//!
//! * the worker threads (scoped, one RNG stream per worker);
//! * one **worker session** per thread ([`Scheduler::Session`]) carrying
//!   every piece of per-worker queue state — the shard-picker RNG, the
//!   FIFO's home shard, and the bounded spawn and deletion buffers;
//! * the one worker loop, pop → handle → re-queue, with separate
//!   backoffs for "queue empty" and "popped a blocked task", flushing
//!   the session's spawn buffer on every pop miss so parked tasks can
//!   never stall termination. [`run`] and `service` differ only in the
//!   loop's idle policy — what a worker does once the pool is
//!   quiescent: [`run`]'s workers exit, a service's workers park until
//!   an injection and exit once shutdown is flagged;
//! * the one push protocol — announce, push, retract what merged — for
//!   worker spawns, [`run`]'s seeds and service injections alike;
//! * quiescence termination detection ([`ActiveCounter`]) over queued
//!   plus in-flight tasks (buffered spawns count as in flight until
//!   their flush resolves them); a worker whose handler panics poisons
//!   the counter, the others leave at their next idle check, and [`run`]
//!   re-raises the panic;
//! * per-worker statistics ([`WorkerStats`]) kept in plain worker-local
//!   memory and aggregated lock-free at join time ([`PoolStats`]).
//!
//! The queue behind the runtime is anything implementing [`Scheduler`]:
//! the relaxed priority schedulers (`ConcurrentMultiQueue`,
//! `DuplicateMultiQueue`) for label- or distance-ordered work, and the
//! relaxed FIFO (`DCboQueue`) for frontier-ordered work. Sessions
//! expose worker locality through [`PopSource`]: home-shard (or
//! deletion-buffer) hits and choice-of-two steals are folded into
//! [`WorkerStats::home_hits`] / [`WorkerStats::steals`].

use crate::service::IdleGate;
use crate::termination::{ActiveCounter, Announce, CounterSlot};
use crossbeam::utils::Backoff;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rsched_queues::telemetry;
use rsched_queues::trace::{self, EventKind};
use rsched_queues::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A concurrent task queue the runtime can drive.
///
/// `P` is the task's scheduling payload: a priority for relaxed priority
/// queues, a carried value (e.g. BFS depth) for relaxed FIFOs.
///
/// Every operation flows through the scheduler's [`Session`] — the one
/// worker-owned state object of the workspace. A session may buffer
/// pushes; the worker loop calls [`flush`](Scheduler::flush) on every
/// pop miss, so implementations are free to park spawns as long as a
/// flush publishes them all.
///
/// [`Session`]: Scheduler::Session
pub trait Scheduler<P: Copy>: Sync {
    /// The worker-owned session state. Created inside each worker
    /// thread (it is not required to be `Send`), dropped when the
    /// worker exits — after a final flush.
    type Session;

    /// Open a session for one worker; `cfg` carries the worker id, the
    /// pool width, the derived seed and the session tuning knobs.
    fn open_session(&self, cfg: &SessionConfig) -> Self::Session;

    /// Enqueue `item` with payload `prio` through `session`.
    ///
    /// The [`PushOutcome`] is the conservation signal: `Inserted` and
    /// `Buffered` elements are presumed net-new, `Merged` ones are not,
    /// and any side-effect flush reports how many presumed-new parked
    /// elements actually merged. The runtime uses it to keep its
    /// termination counter exact.
    fn push(&self, session: &mut Self::Session, item: usize, prio: P) -> PushOutcome;

    /// Relaxed pop through `session`. `None` is a hint, not a
    /// linearizable emptiness check; the runtime owns termination
    /// detection. The [`PopSource`] reports locality: a FIFO's home
    /// shard or a MultiQueue's deletion buffer (`Home`), a FIFO's
    /// foreign shard (`Steal`), or a MultiQueue's choice of two
    /// (`Shared`).
    fn pop(&self, session: &mut Self::Session) -> Option<((usize, P), PopSource)>;

    /// Publish everything parked in the session's spawn buffer. The
    /// default is for schedulers that never buffer.
    fn flush(&self, session: &mut Self::Session) -> FlushReport {
        let _ = session;
        FlushReport::default()
    }
}

/// What the handler did with a popped task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task was processed; its children (if any) were spawned by the
    /// handler.
    Executed,
    /// The task's payload was outdated (e.g. a stale SSSP distance); the
    /// pop is counted but nothing was done.
    Stale,
    /// The task's dependencies are unsatisfied. The runtime re-queues it
    /// at its original payload, counts an extra step, and backs off so
    /// blocked-dominated queues do not degenerate into spin-requeue loops.
    Blocked,
}

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Base RNG seed; per-worker streams derive from it.
    pub seed: u64,
    /// Spawn-buffer capacity per worker session; spawns park there and
    /// publish as one batch (both sessions also pop
    /// `min(spawn_batch / 8, 8)` successors with each claim). Defaults
    /// to 1 (publish immediately, pop one at a time); callers that batch
    /// set it themselves.
    pub spawn_batch: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            seed: 0,
            spawn_batch: 1,
        }
    }
}

impl RuntimeConfig {
    /// A config with `threads` workers and seed 0.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The session config for worker `tid` under this runtime config.
    pub(crate) fn session_config(&self, tid: usize) -> SessionConfig {
        SessionConfig {
            tid,
            workers: self.threads.max(1),
            seed: self.seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            spawn_batch: self.spawn_batch,
        }
    }
}

/// Counters one worker accumulates locally (no atomics — each worker owns
/// its struct and the pool aggregates at join time).
///
/// Every counter only grows. Each `spawn` announces one element and
/// each announced element is either popped or merged away, so after a
/// [`run`] whose seeds all inserted, `pops = seeds + spawned − merged`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Successful pops from the scheduler.
    pub pops: u64,
    /// Pops whose handler returned [`TaskOutcome::Executed`].
    pub executed: u64,
    /// Pops whose handler returned [`TaskOutcome::Stale`].
    pub stale: u64,
    /// Pops whose handler returned [`TaskOutcome::Blocked`] (the paper's
    /// extra steps); each one was re-queued.
    pub extra: u64,
    /// `spawn` calls (blocked re-queues included); each one announced
    /// one element.
    pub spawned: u64,
    /// Announced elements that merged into an existing entry instead of
    /// staying one: decrease-key hits at push (in the shared structure
    /// or inside the session's spawn buffer), and parked spawns or
    /// parked pops that merged when a flush published them.
    pub merged: u64,
    /// Pops served by the worker's own home shard, or by the
    /// MultiQueue session's deletion buffer.
    pub home_hits: u64,
    /// Pops that took an element from a foreign shard of a relaxed
    /// FIFO.
    pub steals: u64,
    /// Pops that came back empty (each one triggers a session flush
    /// before the worker considers waiting).
    pub pop_misses: u64,
    /// Pop-miss flushes that actually published parked spawns.
    pub flushes: u64,
}

impl WorkerStats {
    fn merge(&mut self, other: &WorkerStats) {
        self.pops += other.pops;
        self.executed += other.executed;
        self.stale += other.stale;
        self.extra += other.extra;
        self.spawned += other.spawned;
        self.merged += other.merged;
        self.home_hits += other.home_hits;
        self.steals += other.steals;
        self.pop_misses += other.pop_misses;
        self.flushes += other.flushes;
    }
}

/// Aggregated result of a [`run`] or a service pool's drain.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Sum over workers.
    pub total: WorkerStats,
    /// Per-worker breakdown, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Wall-clock time of the worker phase, from the workers' start to
    /// their join ([`run`]'s seeding excluded).
    pub wall: Duration,
}

impl PoolStats {
    /// The stats of a drained pool from its joined workers, or — if any
    /// worker panicked — that worker's panic, re-raised once all of them
    /// were joined.
    pub(crate) fn drained(
        joined: Vec<std::thread::Result<WorkerStats>>,
        counter: &ActiveCounter,
        wall: Duration,
    ) -> Self {
        let per_worker: Vec<WorkerStats> = joined
            .into_iter()
            .collect::<std::thread::Result<_>>()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        debug_assert!(counter.is_quiescent());
        let mut total = WorkerStats::default();
        for w in &per_worker {
            total.merge(w);
        }
        // A drained pool is a flight-recorder snapshot point: workers are
        // quiescent, so the export sees consistent rings. Repeated pools
        // overwrite the file — it always holds the latest window,
        // matching the rings' own wrap-around semantics.
        trace::export_if_configured();
        PoolStats {
            total,
            per_worker,
            wall,
        }
    }

    /// `pops / executed` (1.0 = no wasted pops).
    pub fn overhead(&self) -> f64 {
        if self.total.executed == 0 {
            1.0
        } else {
            self.total.pops as f64 / self.total.executed as f64
        }
    }
}

/// Per-worker execution context handed to the task handler.
///
/// The handler uses it to [`spawn`](Worker::spawn) child tasks and to draw
/// worker-local randomness; all bookkeeping for termination detection and
/// statistics happens inside. The worker owns its scheduler
/// [`Session`](Scheduler::Session) — the queue itself holds no
/// per-thread state.
pub struct Worker<'a, P: Copy, S: Scheduler<P> + ?Sized> {
    /// Worker id in `0..threads`.
    pub tid: usize,
    rng: SmallRng,
    queue: &'a S,
    counter: &'a ActiveCounter,
    /// This worker's own slot of `counter`: every add/done it announces
    /// lands there.
    slot: &'a CounterSlot,
    stats: WorkerStats,
    session: S::Session,
    _payload: PhantomData<P>,
}

impl<'a, P: Copy, S: Scheduler<P> + ?Sized> Worker<'a, P, S> {
    /// Enqueue a child task. Safe against the termination race: the
    /// element is announced to the quiescence counter before it becomes
    /// poppable (buffered spawns stay announced until their flush), and
    /// merged pushes retract the announcement.
    pub fn spawn(&mut self, item: usize, prio: P) {
        self.stats.spawned += 1;
        self.stats.merged += push_announced(self.queue, &mut self.session, self.slot, item, prio);
    }

    /// The worker's private RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Build the worker context for `tid`, opening its scheduler session.
    fn open(tid: usize, cfg: &RuntimeConfig, queue: &'a S, counter: &'a ActiveCounter) -> Self {
        let session_cfg = cfg.session_config(tid);
        Worker {
            tid,
            rng: SmallRng::seed_from_u64(session_cfg.seed),
            queue,
            counter,
            slot: counter.slot(tid),
            stats: WorkerStats::default(),
            session: queue.open_session(&session_cfg),
            _payload: PhantomData,
        }
    }

    /// The pop-miss protocol: publish any parked spawns before the
    /// caller may conclude emptiness (the quiescence counter still
    /// carries them, so waiting with a non-empty buffer could deadlock
    /// the pool). Returns `true` if the flush published parked elements
    /// — the caller should retry popping instead of waiting. A flush
    /// also pushes back parked pops, which this worker never spawned,
    /// so its merges only ever add to [`WorkerStats::merged`].
    fn flush_on_miss(&mut self) -> bool {
        self.stats.pop_misses += 1;
        let report = self.queue.flush(&mut self.session);
        self.stats.merged += retract_flush(self.slot, report);
        let had_parked = report.published > 0;
        if had_parked {
            self.stats.flushes += 1;
        }
        had_parked
    }
}

impl<P: Copy, S: Scheduler<P> + ?Sized> Drop for Worker<'_, P, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.counter.poison();
        }
    }
}

/// The runtime's one push protocol, for worker spawns, [`run`]'s seeds
/// and service injections: announce `item` on `slot` before it becomes
/// poppable, push it through `session`, and retract every announcement
/// that merged instead of staying an element — the pushed one on a
/// decrease-key hit, parked ones that a side-effect flush merged.
/// Returns how many merged.
pub(crate) fn push_announced<P: Copy, S: Scheduler<P> + ?Sized>(
    queue: &S,
    session: &mut S::Session,
    slot: &impl Announce,
    item: usize,
    prio: P,
) -> u64 {
    slot.task_added();
    trace::emit(EventKind::TaskInject, item as u64);
    let out = queue.push(session, item, prio);
    let merged = u64::from(out.push == SessionPush::Merged);
    if merged > 0 {
        slot.tasks_done(merged);
    }
    merged + retract_flush(slot, out.flushed)
}

/// Fold a flush report into the termination counter: parked elements
/// were presumed net-new when announced; the ones that merged retract
/// their announcement on `slot` now. Returns how many merged.
pub(crate) fn retract_flush(slot: &impl Announce, report: FlushReport) -> u64 {
    if report.merged > 0 {
        slot.tasks_done(report.merged);
    }
    if report.published > 0 {
        trace::emit(EventKind::FlushPublish, report.published);
        if report.merged > 0 {
            trace::emit(EventKind::FlushMerge, report.merged);
        }
    }
    report.merged
}

/// Drive `queue` to quiescence with `cfg.threads` workers.
///
/// `initial` seeds the queue before workers start (through a session of
/// its own, so batching applies there too). `handler` is called once per
/// successful pop with the worker context, the item and its payload, and
/// reports what happened as a [`TaskOutcome`]; children are spawned from
/// inside the handler via [`Worker::spawn`]. The call returns when every
/// task is done and no worker can produce more — the quiescence point of
/// the whole computation. If a handler panics, the other workers stop
/// at their next pop miss and `run` re-raises that panic.
///
/// `run` opens a `rsched_queues::telemetry` window (`reset`) before
/// seeding; callers read it with `telemetry::capture()` after the call.
///
/// # Examples
///
/// ```
/// use rsched_queues::QueueBuilder;
/// use rsched_runtime::{run, RuntimeConfig, TaskOutcome};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// // Count down from each seed task, spawning task-1 until zero.
/// let queue = QueueBuilder::new(8).multiqueue::<u64>();
/// let hits = AtomicU64::new(0);
/// let stats = run(
///     &queue,
///     RuntimeConfig { threads: 4, seed: 7, ..RuntimeConfig::default() },
///     (0..100usize).map(|i| (i, i as u64)),
///     |w, item, prio| {
///         hits.fetch_add(1, Ordering::Relaxed);
///         if item > 0 && prio > 0 {
///             w.spawn(item - 1, prio - 1);
///         }
///         TaskOutcome::Executed
///     },
/// );
/// assert_eq!(stats.total.executed, hits.load(Ordering::Relaxed));
/// assert!(stats.total.executed >= 100);
/// ```
pub fn run<P, S, F>(
    queue: &S,
    cfg: RuntimeConfig,
    initial: impl IntoIterator<Item = (usize, P)>,
    handler: F,
) -> PoolStats
where
    P: Copy + Send,
    S: Scheduler<P> + ?Sized,
    F: Fn(&mut Worker<'_, P, S>, usize, P) -> TaskOutcome + Sync,
{
    assert!(cfg.threads >= 1, "runtime needs at least one worker");
    // Start a fresh telemetry window covering seeding + workers; the
    // caller captures it after the call. The state is process-global:
    // overlapping runs share a window.
    telemetry::reset();
    let counter = ActiveCounter::for_workers(cfg.threads);
    {
        // Seed through a session of the seeding thread's own; the final
        // flush resolves any parked seeds before workers start.
        let seed_cfg = SessionConfig {
            seed: cfg.seed ^ 0x5EED_1417_C0DE_D00D,
            ..cfg.session_config(0)
        };
        let mut seeder = queue.open_session(&seed_cfg);
        for (item, prio) in initial {
            push_announced(queue, &mut seeder, &counter, item, prio);
        }
        retract_flush(&counter, queue.flush(&mut seeder));
    }
    let start = Instant::now();
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let (counter, handler) = (&counter, &handler);
                scope.spawn(move || worker_loop(tid, &cfg, queue, counter, handler, Idle::Exit))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    PoolStats::drained(joined, &counter, start.elapsed())
}

/// What a worker does once its pop missed, its flush published nothing
/// and the whole pool is quiescent.
#[derive(Clone, Copy)]
pub(crate) enum Idle<'a> {
    /// Quiescence is final ([`run`]): exit.
    Exit,
    /// An open system ([`service`](crate::service())): park on `gate`
    /// until an injection (or its timeout), and exit once `shutdown` is
    /// flagged.
    Park {
        gate: &'a IdleGate,
        shutdown: &'a AtomicBool,
    },
}

/// The worker loop of every pool: open worker `tid`'s session, then pop
/// → handle → re-queue until `idle` lets the worker leave, and return
/// its stats.
pub(crate) fn worker_loop<P, S, F>(
    tid: usize,
    cfg: &RuntimeConfig,
    queue: &S,
    counter: &ActiveCounter,
    handler: &F,
    idle: Idle<'_>,
) -> WorkerStats
where
    P: Copy,
    S: Scheduler<P> + ?Sized,
    F: Fn(&mut Worker<'_, P, S>, usize, P) -> TaskOutcome,
{
    let mut worker = Worker::open(tid, cfg, queue, counter);
    let backoff = Backoff::new();
    // Separate backoff for blocked pops: when the queue front is dominated
    // by blocked tasks, a worker would otherwise spin pop→re-queue→pop on
    // the same elements while the worker holding their dependency makes
    // progress. Without it the extra-step count measures spinning, not
    // scheduling.
    let blocked = Backoff::new();
    loop {
        match queue.pop(&mut worker.session) {
            Some(((item, prio), source)) => {
                backoff.reset();
                worker.stats.pops += 1;
                match source {
                    PopSource::Home => worker.stats.home_hits += 1,
                    PopSource::Steal => {
                        worker.stats.steals += 1;
                        trace::emit(EventKind::StealRound, item as u64);
                    }
                    PopSource::Shared => {}
                }
                trace::emit(EventKind::TaskPop, item as u64);
                match handler(&mut worker, item, prio) {
                    TaskOutcome::Executed => {
                        worker.stats.executed += 1;
                        blocked.reset();
                    }
                    TaskOutcome::Stale => worker.stats.stale += 1,
                    TaskOutcome::Blocked => {
                        worker.stats.extra += 1;
                        // Re-queue at the original payload. spawn announces
                        // the element before inserting, so the quiescence
                        // check cannot fire in between.
                        worker.spawn(item, prio);
                        blocked.snooze();
                    }
                }
                trace::emit(EventKind::TaskComplete, item as u64);
                worker.slot.tasks_done(1);
            }
            None => {
                if worker.flush_on_miss() {
                    continue;
                }
                // A panicked worker never finishes its task, so
                // quiescence would never come.
                if counter.is_poisoned() {
                    break;
                }
                if !counter.is_quiescent() {
                    // Work is in flight elsewhere: spin, then yield.
                    // Parking here would add a wake-up latency cliff to
                    // every task tail.
                    backoff.snooze();
                    continue;
                }
                match idle {
                    Idle::Park { gate, shutdown } if !shutdown.load(Ordering::Acquire) => {
                        // About to go idle: fold this worker's buffered
                        // telemetry into the globals so a live `Metrics`
                        // poll (the serving plane's exposition path) sees
                        // it — long-lived workers never exit, so the TLS
                        // Drop-flush alone would hide everything.
                        telemetry::flush_local();
                        trace::emit(EventKind::Park, tid as u64);
                        gate.park(|| shutdown.load(Ordering::Acquire) || !counter.is_quiescent());
                        trace::emit(EventKind::Unpark, !counter.is_quiescent() as u64);
                        backoff.reset();
                    }
                    _ => {
                        trace::emit(EventKind::Drain, tid as u64);
                        break;
                    }
                }
            }
        }
    }
    worker.stats
}

/// Fork-join companion to [`run`]: apply `f` to near-equal chunks of
/// `items` on up to `threads` workers and collect the results in chunk
/// order. Used by level-synchronous algorithms (Δ-stepping's light/heavy
/// passes) that need data parallelism rather than a task queue. Runs
/// inline when `threads == 1` or there is at most one chunk's worth of
/// work.
pub fn map_chunks<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(threads >= 1);
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(threads).max(1);
    if threads == 1 || items.len() <= chunk {
        return vec![f(items)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.chunks(chunk).map(|c| scope.spawn(|| f(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map_chunks worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_queues::QueueBuilder;

    #[test]
    fn parked_pops_that_merge_on_flush_count_as_merged_not_unspawned() {
        // One shard, so the worker's first pop claims item 0 and parks
        // its 8 successors in the deletion buffer (spawn_batch 64 →
        // min(64 / 8, 8) = 8).
        let queue = QueueBuilder::new(1).universe(16).multiqueue::<u64>();
        let counter = ActiveCounter::for_workers(1);
        let mut other = queue.open_session(&SessionConfig::for_worker(1, 2));
        for item in 0..9usize {
            counter.task_added();
            queue.push(&mut other, item, item as u64);
        }
        let cfg = RuntimeConfig {
            threads: 1,
            seed: 3,
            spawn_batch: 64,
        };
        let mut worker = Worker::open(0, &cfg, &queue, &counter);
        assert_eq!(
            queue.pop(&mut worker.session).map(|(task, _)| task),
            Some((0, 0))
        );
        assert_eq!(
            queue.len(),
            0,
            "the 8 successors sit in the deletion buffer"
        );
        // Another session pushes the parked items back: each is net-new
        // in the shard, so the parked copies merge when they publish.
        for item in 1..9usize {
            counter.task_added();
            queue.push(&mut other, item, item as u64);
        }
        assert!(
            worker.flush_on_miss(),
            "the flush published the parked pops"
        );
        assert_eq!(worker.stats.merged, 8);
        assert_eq!(worker.stats.spawned, 0, "the worker spawned nothing");
        // 17 announced, 8 retracted: item 0 in hand plus 8 queued.
        assert_eq!(counter.active(), 9);
    }
}
