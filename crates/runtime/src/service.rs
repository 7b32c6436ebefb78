//! Open-system service mode: a long-lived worker pool with external
//! task injection and graceful drain.
//!
//! [`run`](crate::run) is closed-loop — it seeds a queue, drains it to
//! quiescence and returns. A *serving* workload is the opposite shape:
//! the pool outlives any one task, work arrives from threads that are
//! not workers (connection readers in `rsched-serve`, load generators),
//! and "empty" means *idle, wait for traffic*, not *done*. This module
//! provides that shape on top of the exact same [`Scheduler`] /
//! [`Worker`] machinery:
//!
//! * [`service`] starts `cfg.threads` detached workers over an
//!   `Arc<S>` and returns a [`ServiceHandle`].
//! * [`ServiceHandle::injector`] mints an [`Injector`] — a per-thread
//!   handle wrapping its own scheduler session, so **any** external
//!   thread can push into the running pool without being a worker (and
//!   without per-op locking: the session is thread-owned state, exactly
//!   as for workers). Injected tasks are announced to the termination
//!   counter before they become poppable, so a drain can never miss
//!   them.
//! * Idle workers park on a condvar (`IdleGate`) **only when the pool
//!   is quiescent**; an injection wakes one parked worker. While tasks
//!   are in flight anywhere, a worker that missed a pop spins/yields
//!   exactly like the closed-loop pool — parking there would add a
//!   wakeup latency cliff to every task tail.
//! * [`ServiceHandle::shutdown`] + [`ServiceHandle::join`] implement
//!   graceful drain: workers exit only once shutdown is flagged **and**
//!   the pool is quiescent, so every task injected before `shutdown`
//!   completes before `join` returns its [`PoolStats`].
//!
//! The missed-wakeup race is closed by the classic condvar protocol:
//! a worker re-checks "work or shutdown?" *while holding the gate
//! mutex* before waiting, and the injector takes the same mutex to
//! notify; a bounded park timeout backstops the remaining
//! relaxed-queue raciness (a pop can miss an element that is visible
//! to the counter but still migrating between shards).

use crate::pool::{PoolStats, RuntimeConfig, Scheduler, TaskOutcome, Worker, WorkerStats};
use crate::termination::ActiveCounter;
use crossbeam::utils::Backoff;
use rsched_queues::telemetry;
use rsched_queues::trace::{self, EventKind};
use rsched_queues::{SessionConfig, SessionPush};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Condvar gate idle workers park on while the pool is quiescent.
#[derive(Debug, Default)]
struct IdleGate {
    lock: Mutex<()>,
    cv: Condvar,
}

/// Parked workers re-check every 2 ms even without a wakeup — a
/// backstop against the inherent raciness of relaxed-queue emptiness
/// (an element can be announced to the counter yet transiently
/// invisible to a sweep), not the primary wake path.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

impl IdleGate {
    /// Park until [`wake_one`](Self::wake_one)/[`wake_all`](Self::wake_all),
    /// the timeout, or `wake_now` already holding: the recheck happens
    /// under the gate lock, so a notifier that takes the lock after us
    /// cannot slip between our check and our wait.
    fn park(&self, wake_now: impl Fn() -> bool) {
        let guard = self.lock.lock().expect("idle gate poisoned");
        if wake_now() {
            return;
        }
        let _ = self
            .cv
            .wait_timeout(guard, PARK_TIMEOUT)
            .expect("idle gate poisoned");
    }

    fn wake_one(&self) {
        let _guard = self.lock.lock().expect("idle gate poisoned");
        self.cv.notify_one();
    }

    fn wake_all(&self) {
        let _guard = self.lock.lock().expect("idle gate poisoned");
        self.cv.notify_all();
    }
}

/// State shared by the workers, the handle and every injector.
struct ServiceCore<P: Copy, S: Scheduler<P> + ?Sized> {
    counter: ActiveCounter,
    idle: IdleGate,
    shutdown: AtomicBool,
    /// Seed sequence for injector sessions (each injector gets its own
    /// RNG stream, like a worker).
    injector_seq: AtomicU64,
    cfg: RuntimeConfig,
    queue: Arc<S>,
    _payload: PhantomData<fn(P)>,
}

/// Handle to a running service pool (see [`service`]). Cloneable across
/// threads via `Arc` by the caller if needed; the handle itself owns
/// the worker join handles, so [`join`](Self::join) consumes it.
pub struct ServiceHandle<P: Copy, S: Scheduler<P> + ?Sized> {
    core: Arc<ServiceCore<P, S>>,
    workers: Vec<JoinHandle<WorkerStats>>,
    started: Instant,
}

/// A per-thread handle for pushing tasks into a running service pool.
///
/// Owns a scheduler session of its own (epoch pin, shard-picker RNG),
/// configured unaffine — an injector has no home shards to keep hot —
/// and with `spawn_batch` forced to 1, because a parked injection would
/// trade exactly the latency a serving front-end exists to measure.
/// Deliberately **not** `Send` when the underlying session is not: the
/// epoch pin is thread-owned state.
pub struct Injector<P: Copy, S: Scheduler<P> + ?Sized> {
    core: Arc<ServiceCore<P, S>>,
    session: S::Session,
}

impl<P: Copy, S: Scheduler<P> + ?Sized> Injector<P, S> {
    /// Push `(item, prio)` into the running pool and wake a parked
    /// worker if the pool was idle. Returns `false` — without pushing —
    /// once the pool is shutting down (callers stop injecting before
    /// [`ServiceHandle::shutdown`]; this is the backstop that keeps a
    /// late racing inject from stranding a task in a drained pool).
    pub fn inject(&mut self, item: usize, prio: P) -> bool {
        if self.core.shutdown.load(Ordering::Acquire) {
            return false;
        }
        // Announce before pushing — same protocol as `Worker::spawn` —
        // so a concurrent drain sees the task before it is poppable.
        self.core.counter.task_added();
        trace::emit(EventKind::TaskInject, item as u64);
        let out = self.core.queue.push(&mut self.session, item, prio);
        match out.push {
            SessionPush::Inserted | SessionPush::Buffered => {}
            SessionPush::Merged => self.core.counter.task_done(),
        }
        self.core.counter.tasks_done(out.flushed.merged);
        self.core.idle.wake_one();
        true
    }

    /// Tasks queued or in flight right now (the pool's view; a serving
    /// layer usually runs its own admission counter on top).
    pub fn in_flight(&self) -> usize {
        self.core.counter.active()
    }
}

impl<P: Copy, S: Scheduler<P> + ?Sized> Drop for Injector<P, S> {
    fn drop(&mut self) {
        // spawn_batch is 1, so the session buffer is empty; the flush is
        // defensive against future batching injectors.
        let report = self.core.queue.flush(&mut self.session);
        self.core.counter.tasks_done(report.merged);
        if report.published > 0 {
            self.core.idle.wake_all();
        }
    }
}

impl<P, S> ServiceHandle<P, S>
where
    P: Copy + Send + 'static,
    S: Scheduler<P> + Send + Sync + ?Sized + 'static,
{
    /// Mint an injector for the calling thread (each long-lived
    /// injecting thread should keep its own).
    pub fn injector(&self) -> Injector<P, S> {
        let n = self.core.injector_seq.fetch_add(1, Ordering::Relaxed);
        let cfg = SessionConfig {
            // Injectors publish immediately; a batched injection would
            // park a request's latency inside the injector.
            spawn_batch: 1,
            ..SessionConfig::unaffine(
                self.core.cfg.seed ^ 0x1439_EC7E_D000_0000 ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        };
        Injector {
            core: Arc::clone(&self.core),
            session: self.core.queue.open_session(&cfg),
        }
    }

    /// Tasks queued or in flight right now.
    pub fn in_flight(&self) -> usize {
        self.core.counter.active()
    }

    /// Flag the pool to drain: workers finish everything injected so
    /// far, then exit. Idempotent; injections from here on are refused.
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.idle.wake_all();
    }

    /// Graceful drain: [`shutdown`](Self::shutdown) (if not already
    /// flagged), wait for every worker to finish its backlog, and
    /// return the aggregated [`PoolStats`]. `telemetry` is `None` —
    /// a long-lived service measures explicit windows via
    /// `rsched_queues::telemetry::{reset, capture}` instead of
    /// one implicit whole-run window.
    pub fn join(self) -> PoolStats {
        self.shutdown();
        let per_worker: Vec<WorkerStats> = self
            .workers
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect();
        debug_assert!(self.core.counter.is_quiescent());
        let mut total = WorkerStats::default();
        for w in &per_worker {
            total.merge(w);
        }
        let wall = self.started.elapsed();
        // Drained and joined: a consistent flight-recorder boundary,
        // same as the end of a closed-loop `run`.
        trace::export_if_configured();
        PoolStats {
            total,
            per_worker,
            wall,
            total_wall: wall,
            telemetry: None,
        }
    }
}

/// Start a long-lived service pool: `cfg.threads` workers drive `queue`
/// with `handler`, waiting (parked, not spinning) whenever the pool is
/// quiescent. Tasks arrive through [`ServiceHandle::injector`] handles;
/// the pool runs until [`ServiceHandle::join`] drains it.
///
/// # Examples
///
/// ```
/// use rsched_queues::QueueBuilder;
/// use rsched_runtime::{service, RuntimeConfig, TaskOutcome};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let queue = Arc::new(QueueBuilder::new(4).universe(1024).multiqueue::<u64>());
/// let done = Arc::new(AtomicU64::new(0));
/// let handle = {
///     let done = Arc::clone(&done);
///     service(queue, RuntimeConfig::with_threads(2), move |_, _, _| {
///         done.fetch_add(1, Ordering::Relaxed);
///         TaskOutcome::Executed
///     })
/// };
/// let mut inj = handle.injector();
/// for i in 0..100 {
///     assert!(inj.inject(i, i as u64));
/// }
/// drop(inj);
/// let stats = handle.join(); // graceful drain
/// assert_eq!(done.load(Ordering::Acquire), 100);
/// assert_eq!(stats.total.executed, 100);
/// ```
pub fn service<P, S, F>(queue: Arc<S>, cfg: RuntimeConfig, handler: F) -> ServiceHandle<P, S>
where
    P: Copy + Send + 'static,
    S: Scheduler<P> + Send + Sync + ?Sized + 'static,
    F: Fn(&mut Worker<'_, P, S>, usize, P) -> TaskOutcome + Send + Sync + 'static,
{
    assert!(cfg.threads >= 1, "service needs at least one worker");
    telemetry::set_enabled(cfg.telemetry);
    trace::set_enabled(cfg.trace);
    let core = Arc::new(ServiceCore {
        counter: ActiveCounter::for_workers(cfg.threads),
        idle: IdleGate::default(),
        shutdown: AtomicBool::new(false),
        injector_seq: AtomicU64::new(0),
        cfg,
        queue,
        _payload: PhantomData,
    });
    let handler = Arc::new(handler);
    let workers = (0..cfg.threads)
        .map(|tid| {
            let core = Arc::clone(&core);
            let handler = Arc::clone(&handler);
            std::thread::Builder::new()
                .name(format!("rsched-serve-worker-{tid}"))
                .spawn(move || service_worker_loop(tid, &core, &*handler))
                .expect("spawning service worker")
        })
        .collect();
    ServiceHandle {
        core,
        workers,
        started: Instant::now(),
    }
}

fn service_worker_loop<P, S, F>(tid: usize, core: &ServiceCore<P, S>, handler: &F) -> WorkerStats
where
    P: Copy,
    S: Scheduler<P> + ?Sized,
    F: Fn(&mut Worker<'_, P, S>, usize, P) -> TaskOutcome,
{
    let mut worker = Worker::open(tid, &core.cfg, &*core.queue, &core.counter);
    let backoff = Backoff::new();
    let blocked = Backoff::new();
    loop {
        match worker.try_pop() {
            Some(((item, prio), source)) => {
                backoff.reset();
                // Per-op duration ticks, read by the `Metrics` reply:
                // only pay for the clock reads when the telemetry
                // window is actually recording.
                let op_start = telemetry::enabled().then(Instant::now);
                worker.execute_popped(handler, item, prio, source, &blocked);
                if let Some(t) = op_start {
                    telemetry::record(
                        telemetry::OpHist::Tick,
                        t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                    );
                }
            }
            None => {
                if worker.flush_on_miss() {
                    continue;
                }
                let quiescent = worker.counter().is_quiescent();
                if quiescent && core.shutdown.load(Ordering::Acquire) {
                    trace::emit(EventKind::Drain, tid as u64);
                    break;
                }
                if quiescent {
                    // About to go idle: fold this worker's buffered
                    // telemetry into the globals so a live `Metrics`
                    // poll (the serving plane's exposition path) sees
                    // it — long-lived workers never exit, so the TLS
                    // Drop-flush alone would hide everything.
                    telemetry::flush_local();
                    trace::emit(EventKind::Park, tid as u64);
                    // Idle open system: park until an injection (or the
                    // timeout backstop) instead of burning a core.
                    core.idle.park(|| {
                        core.shutdown.load(Ordering::Acquire) || !core.counter.is_quiescent()
                    });
                    trace::emit(EventKind::Unpark, !core.counter.is_quiescent() as u64);
                    backoff.reset();
                } else {
                    // Work is in flight somewhere — same spin/yield as
                    // the closed-loop pool.
                    backoff.snooze();
                }
            }
        }
    }
    worker.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_queues::{DCboQueue, QueueBuilder};
    use std::sync::atomic::{AtomicBool as ABool, AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn external_injectors_feed_running_pool_exactly_once() {
        let n = 4_000usize;
        let injectors = 3usize;
        let done: Arc<Vec<ABool>> = Arc::new((0..n).map(|_| ABool::new(false)).collect());
        let queue = Arc::new(QueueBuilder::new(8).universe(n).multiqueue::<u64>());
        let handle = {
            let done = Arc::clone(&done);
            service(
                queue,
                RuntimeConfig {
                    threads: 3,
                    seed: 11,
                    ..RuntimeConfig::default()
                },
                move |_, item, _| {
                    let was = done[item].swap(true, Ordering::AcqRel);
                    assert!(!was, "task {item} executed twice");
                    TaskOutcome::Executed
                },
            )
        };
        let barrier = Barrier::new(injectors);
        std::thread::scope(|scope| {
            for part in 0..injectors {
                let handle = &handle;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut inj = handle.injector();
                    barrier.wait();
                    let mut i = part;
                    while i < n {
                        assert!(inj.inject(i, i as u64));
                        i += injectors;
                    }
                });
            }
        });
        let stats = handle.join();
        assert_eq!(stats.total.executed, n as u64);
        assert!(done.iter().all(|d| d.load(Ordering::Acquire)));
        assert_eq!(stats.per_worker.len(), 3);
    }

    #[test]
    fn shutdown_drains_backlog_and_refuses_late_injections() {
        let executed = Arc::new(AtomicU64::new(0));
        let queue: Arc<DCboQueue<(usize, u64)>> = Arc::new(QueueBuilder::new(8).seed(3).d_cbo());
        let handle = {
            let executed = Arc::clone(&executed);
            service(
                queue,
                RuntimeConfig {
                    threads: 2,
                    seed: 5,
                    ..RuntimeConfig::default()
                },
                move |_, _, _| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(50));
                    TaskOutcome::Executed
                },
            )
        };
        let mut inj = handle.injector();
        for i in 0..500usize {
            assert!(inj.inject(i, 0));
        }
        handle.shutdown();
        assert!(!inj.inject(999, 0), "post-shutdown inject must refuse");
        drop(inj);
        let stats = handle.join();
        assert_eq!(stats.total.executed, 500, "drain must finish the backlog");
        assert_eq!(executed.load(Ordering::Acquire), 500);
    }

    #[test]
    fn idle_pool_wakes_for_late_traffic() {
        // Tasks arrive in bursts with idle gaps longer than the park
        // timeout: every burst must still complete (wakeup path works),
        // and handler-side spawns must too (worker spawn inside service).
        let executed = Arc::new(AtomicU64::new(0));
        let queue = Arc::new(QueueBuilder::new(4).universe(1 << 16).multiqueue::<u64>());
        let handle = {
            let executed = Arc::clone(&executed);
            service(
                queue,
                RuntimeConfig {
                    threads: 2,
                    seed: 7,
                    ..RuntimeConfig::default()
                },
                move |w, item, prio| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    if prio > 0 {
                        w.spawn(item + 1000, prio - 1);
                    }
                    TaskOutcome::Executed
                },
            )
        };
        let mut inj = handle.injector();
        let mut expected = 0u64;
        for burst in 0..4u64 {
            for i in 0..50usize {
                assert!(inj.inject(burst as usize * 10_000 + i, 2));
                expected += 3; // the task + a chain of 2 spawned children
            }
            std::thread::sleep(Duration::from_millis(8));
            assert_eq!(
                executed.load(Ordering::Acquire),
                expected,
                "burst {burst} did not drain while idle-parked"
            );
        }
        drop(inj);
        let stats = handle.join();
        assert_eq!(stats.total.executed, expected);
    }
}
