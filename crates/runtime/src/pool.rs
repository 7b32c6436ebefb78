//! The worker-pool scheduler runtime.
//!
//! [`run`] is the single thread-pool / termination-detection
//! implementation in the workspace: every truly concurrent executor
//! (`run_relaxed_parallel`, the concurrent SSSP family, relaxed-FIFO BFS,
//! label propagation, k-core peeling) is a thin handler over it. The
//! runtime owns
//!
//! * the worker threads (scoped, one RNG stream per worker);
//! * one **worker session** per thread ([`Scheduler::Session`]) carrying
//!   every piece of per-worker queue state — the amortized epoch pin,
//!   the shard-picker RNG, the owned home shards, the sticky peek cache
//!   and the bounded spawn buffer;
//! * the pop → handle → re-queue loop with separate backoffs for
//!   "queue empty" and "popped a blocked task", flushing the session's
//!   spawn buffer on every pop miss so parked tasks can never stall
//!   termination;
//! * quiescence termination detection ([`ActiveCounter`]) over queued
//!   plus in-flight tasks (buffered spawns count as in flight until
//!   their flush resolves them);
//! * per-worker statistics ([`WorkerStats`]) kept in plain worker-local
//!   memory and aggregated lock-free at join time ([`PoolStats`]).
//!
//! The queue behind the runtime is anything implementing [`Scheduler`]:
//! the relaxed priority schedulers (`ConcurrentMultiQueue`,
//! `ConcurrentSprayList`, `DuplicateMultiQueue`) for label- or
//! distance-ordered work, and the relaxed FIFOs (`DCboQueue`,
//! `DRaQueue`) for frontier-ordered work. Sessions expose worker
//! locality through [`PopSource`]: home-shard hits and choice-of-two
//! steals are folded into [`WorkerStats::home_hits`] /
//! [`WorkerStats::steals`].

use crate::termination::{ActiveCounter, CounterSlot};
use crossbeam::utils::Backoff;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rsched_queues::telemetry::{self, TelemetrySnapshot};
use rsched_queues::trace::{self, EventKind};
use rsched_queues::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush};
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// A concurrent task queue the runtime can drive.
///
/// `P` is the task's scheduling payload: a priority for relaxed priority
/// queues, a carried value (e.g. BFS depth) for relaxed FIFOs.
///
/// Every operation flows through the scheduler's [`Session`] — the one
/// worker-owned state object of the workspace (replacing the earlier
/// `push_in`/`pop_from_in` method pairs, the MultiQueue `StickySession`
/// and the thread-local picker RNGs). A session may buffer pushes; the
/// worker loop calls [`flush`](Scheduler::flush) on every pop miss, so
/// implementations are free to park spawns as long as a flush publishes
/// them all.
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
    /// detection. The [`PopSource`] reports locality (home shard / peek
    /// cache hit vs steal).
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
    /// Home shards owned per worker (FIFO schedulers drain them before
    /// stealing). Defaults to the `RSCHED_SHARDS_PER_WORKER` environment
    /// variable, else 1; `0` disables affinity.
    pub shards_per_worker: usize,
    /// Spawn-buffer capacity per worker session; spawns park there and
    /// publish as one batch (MultiQueue sessions also pop
    /// `min(spawn_batch / 8, 8)` successors with each minimum). Defaults
    /// to the `RSCHED_SPAWN_BATCH` environment variable, else 1
    /// (publish immediately, pop one at a time).
    pub spawn_batch: usize,
    /// How many consecutive pops may reuse a MultiQueue session's
    /// sticky peek cache before a forced re-sample; `1` (the default)
    /// re-samples every pop — the classic two-choice protocol.
    /// Defaults to the `RSCHED_STICKINESS` environment variable, else 1.
    pub stickiness: usize,
    /// Per-op progress telemetry (retry/steal/sweep histograms, event
    /// counters — see `rsched_queues::telemetry`). When off, every
    /// instrumentation point is one relaxed load and a branch. Defaults
    /// to the `RSCHED_TELEMETRY` environment variable (`0` disables),
    /// else on.
    pub telemetry: bool,
    /// Flight-recorder tracing (per-worker event rings + Chrome-trace
    /// export — see `rsched_queues::trace`). When off (the default),
    /// every instrumentation point is one relaxed load and a branch.
    /// Defaults to the `RSCHED_TRACE` environment variable, else off.
    pub trace: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        use crate::env::env_usize;
        Self {
            threads: 4,
            seed: 0,
            shards_per_worker: env_usize("RSCHED_SHARDS_PER_WORKER", 1),
            spawn_batch: env_usize("RSCHED_SPAWN_BATCH", 1),
            stickiness: env_usize("RSCHED_STICKINESS", 1).max(1),
            telemetry: env_usize("RSCHED_TELEMETRY", 1) != 0,
            trace: env_usize("RSCHED_TRACE", 0) != 0,
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
            shards_per_worker: self.shards_per_worker,
            spawn_batch: self.spawn_batch,
            stickiness: self.stickiness.max(1),
        }
    }
}

/// Counters one worker accumulates locally (no atomics — each worker owns
/// its struct and the pool aggregates at join time).
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
    /// `spawn` calls that inserted a net-new element (buffered spawns
    /// count here until a flush reports them merged).
    pub spawned: u64,
    /// `spawn` calls merged into an existing entry (decrease-key hits,
    /// in the shared structure or inside the session's spawn buffer).
    pub merged: u64,
    /// Pops served by one of the worker's own home shards, or by the
    /// MultiQueue session's sticky peek cache.
    pub home_hits: u64,
    /// Pops that took an element from a foreign shard of a
    /// worker-affine scheduler.
    pub steals: u64,
    /// Pops that came back empty (each one triggers a session flush
    /// before the worker considers waiting).
    pub pop_misses: u64,
    /// Pop-miss flushes that actually published parked spawns.
    pub flushes: u64,
}

impl WorkerStats {
    pub(crate) fn merge(&mut self, other: &WorkerStats) {
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

/// Aggregated result of a [`run`].
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Sum over workers.
    pub total: WorkerStats,
    /// Per-worker breakdown, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Wall-clock time of the worker phase (excludes initial seeding).
    pub wall: Duration,
    /// Wall-clock time of the whole [`run`] call, seeding included —
    /// benches no longer re-derive elapsed time around the call.
    pub total_wall: Duration,
    /// Per-op progress telemetry captured over this run, when
    /// [`RuntimeConfig::telemetry`] was on. The underlying state is
    /// process-global: concurrent `run` calls fold into one snapshot.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl PoolStats {
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
    pub(crate) stats: WorkerStats,
    session: S::Session,
    _payload: PhantomData<P>,
}

impl<'a, P: Copy, S: Scheduler<P> + ?Sized> Worker<'a, P, S> {
    /// Enqueue a child task. Safe against the termination race: the
    /// element is announced to the quiescence counter before it becomes
    /// poppable (buffered spawns stay announced until their flush), and
    /// merged pushes retract the announcement.
    pub fn spawn(&mut self, item: usize, prio: P) {
        self.slot.task_added();
        trace::emit(EventKind::TaskInject, item as u64);
        let queue = self.queue;
        let out = queue.push(&mut self.session, item, prio);
        match out.push {
            SessionPush::Inserted | SessionPush::Buffered => self.stats.spawned += 1,
            SessionPush::Merged => {
                self.slot.tasks_done(1);
                self.stats.merged += 1;
            }
        }
        self.absorb_flush(out.flushed);
    }

    /// Fold a flush report into the stats and the termination counter:
    /// parked elements were presumed net-new when announced; the ones
    /// that merged retract their announcement now.
    fn absorb_flush(&mut self, report: FlushReport) {
        if report.published > 0 {
            trace::emit(EventKind::FlushPublish, report.published);
            if report.merged > 0 {
                trace::emit(EventKind::FlushMerge, report.merged);
            }
        }
        if report.merged > 0 {
            self.stats.spawned -= report.merged;
            self.stats.merged += report.merged;
            self.slot.tasks_done(report.merged);
        }
    }

    /// The worker's private RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Build the worker context for `tid`, opening its scheduler session
    /// (shared between [`run`]'s scoped workers and the long-lived
    /// service pool in [`crate::service`]).
    pub(crate) fn open(
        tid: usize,
        cfg: &RuntimeConfig,
        queue: &'a S,
        counter: &'a ActiveCounter,
    ) -> Self {
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

    /// One pop's worth of work: account the pop source, run the handler,
    /// fold the outcome into the stats/termination counter (re-queueing
    /// blocked tasks with the caller's blocked-backoff). The body of the
    /// `Some` arm of every worker loop.
    pub(crate) fn execute_popped<F>(
        &mut self,
        handler: &F,
        item: usize,
        prio: P,
        source: PopSource,
        blocked: &Backoff,
    ) where
        F: Fn(&mut Worker<'_, P, S>, usize, P) -> TaskOutcome,
    {
        self.stats.pops += 1;
        match source {
            PopSource::Home => self.stats.home_hits += 1,
            PopSource::Steal => {
                self.stats.steals += 1;
                trace::emit(EventKind::StealRound, item as u64);
            }
            PopSource::Shared => {}
        }
        trace::emit(EventKind::TaskPop, item as u64);
        match handler(self, item, prio) {
            TaskOutcome::Executed => {
                self.stats.executed += 1;
                blocked.reset();
            }
            TaskOutcome::Stale => {
                self.stats.stale += 1;
            }
            TaskOutcome::Blocked => {
                self.stats.extra += 1;
                // Re-queue at the original payload. spawn announces
                // the element before inserting, so the quiescence
                // check cannot fire in between.
                self.spawn(item, prio);
                blocked.snooze();
            }
        }
        trace::emit(EventKind::TaskComplete, item as u64);
        self.slot.tasks_done(1);
    }

    /// One relaxed pop through the worker's own session.
    pub(crate) fn try_pop(&mut self) -> Option<((usize, P), PopSource)> {
        self.queue.pop(&mut self.session)
    }

    /// The pool's termination counter (the service loop checks
    /// quiescence against it directly).
    pub(crate) fn counter(&self) -> &ActiveCounter {
        self.counter
    }

    /// The pop-miss protocol: publish any parked spawns before the
    /// caller may conclude emptiness (the quiescence counter still
    /// carries them, so waiting with a non-empty buffer could deadlock
    /// the pool). Returns `true` if the flush published parked elements
    /// — the caller should retry popping instead of waiting.
    pub(crate) fn flush_on_miss(&mut self) -> bool {
        self.stats.pop_misses += 1;
        let report = self.queue.flush(&mut self.session);
        let had_parked = report.published > 0;
        if had_parked {
            self.stats.flushes += 1;
        }
        self.absorb_flush(report);
        had_parked
    }
}

/// Drive `queue` to quiescence with `cfg.threads` workers.
///
/// `initial` seeds the queue before workers start (through a session of
/// its own, so batching applies there too). `handler` is called once per
/// successful pop with the worker context, the item and its payload, and
/// reports what happened as a [`TaskOutcome`]; children are spawned from
/// inside the handler via [`Worker::spawn`]. The call returns when every
/// task is done and no worker can produce more — the quiescence point of
/// the whole computation.
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
    let t0 = Instant::now();
    telemetry::set_enabled(cfg.telemetry);
    trace::set_enabled(cfg.trace);
    if cfg.telemetry {
        // Start a fresh measurement window covering seeding + workers.
        // The state is process-global; overlapping runs share a window.
        telemetry::reset();
    }
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
            counter.task_added();
            let out = queue.push(&mut seeder, item, prio);
            if out.push == SessionPush::Merged {
                counter.task_done();
            }
            counter.tasks_done(out.flushed.merged);
        }
        let report = queue.flush(&mut seeder);
        counter.tasks_done(report.merged);
    }
    let start = Instant::now();
    let per_worker: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|tid| {
                let counter = &counter;
                let handler = &handler;
                scope.spawn(move || {
                    let mut worker = Worker::open(tid, &cfg, queue, counter);
                    worker_loop(&mut worker, handler);
                    worker.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("runtime worker panicked"))
            .collect()
    });
    let wall = start.elapsed();
    debug_assert!(counter.is_quiescent());
    let mut total = WorkerStats::default();
    for w in &per_worker {
        total.merge(w);
    }
    // Scoped workers have exited (their recorders auto-flushed); the
    // seeding happened on this thread, so capture() folds it in too.
    let snapshot = cfg.telemetry.then(telemetry::capture);
    // A run() boundary is a flight-recorder snapshot point: workers are
    // quiescent, so the export sees consistent rings. Repeated runs
    // overwrite the file — it always holds the latest window, matching
    // the rings' own wrap-around semantics.
    trace::export_if_configured();
    PoolStats {
        total,
        per_worker,
        wall,
        total_wall: t0.elapsed(),
        telemetry: snapshot,
    }
}

fn worker_loop<P, S, F>(worker: &mut Worker<'_, P, S>, handler: &F)
where
    P: Copy,
    S: Scheduler<P> + ?Sized,
    F: Fn(&mut Worker<'_, P, S>, usize, P) -> TaskOutcome,
{
    let backoff = Backoff::new();
    // Separate backoff for blocked pops: when the queue front is dominated
    // by blocked tasks, a worker would otherwise spin pop→re-queue→pop on
    // the same elements while the worker holding their dependency makes
    // progress. Without it the extra-step count measures spinning, not
    // scheduling.
    let blocked = Backoff::new();
    loop {
        let queue = worker.queue;
        match queue.pop(&mut worker.session) {
            Some(((item, prio), source)) => {
                backoff.reset();
                worker.execute_popped(handler, item, prio, source, &blocked);
            }
            None => {
                if worker.flush_on_miss() {
                    continue;
                }
                if worker.counter.wait_or_quiescent(&backoff) {
                    trace::emit(EventKind::Drain, worker.tid as u64);
                    break;
                }
            }
        }
    }
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
