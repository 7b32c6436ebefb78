//! # rsched-runtime — the sharded concurrent scheduling runtime
//!
//! The single concurrency substrate of the workspace. Before this crate,
//! every truly concurrent executor (`parallel_sssp`, the iterative
//! `run_relaxed_parallel`, …) owned its own thread pool, termination
//! logic and queue wiring; now there is exactly one worker-pool
//! implementation and everything else is a task handler.
//!
//! ## Architecture
//!
//! ```text
//!   ┌───────────────────────────── run(queue, cfg, initial, handler) ──┐
//!   │                                                                  │
//!   │  worker 0          worker 1          …      worker T-1           │
//!   │  ┌──────────┐      ┌──────────┐             ┌──────────┐         │
//!   │  │ rng,stats│      │ rng,stats│             │ rng,stats│  per-   │
//!   │  │ Session: │      │ Session: │             │ Session: │  worker │
//!   │  │ rng,home │      │ rng,home │             │ rng,home │  (no    │
//!   │  │ bufs     │      │ bufs     │             │ bufs     │  locks) │
//!   │  └───┬──────┘      └───┬──────┘             └───┬──────┘         │
//!   │      │ pop(&mut session)│                       │                │
//!   │  ┌───▼─────────────────▼───────────────────────▼───┐             │
//!   │  │      Scheduler (sharded relaxed queue)          │             │
//!   │  │  shard₀  shard₁  shard₂  …  — home ∪ steals     │             │
//!   │  └─────────────────────────────────────────────────┘             │
//!   │      ActiveCounter: queued + in-flight (+ buffered) → quiescence │
//!   └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`Scheduler`] abstracts the queue: relaxed priority schedulers
//!   (`ConcurrentMultiQueue`, `DuplicateMultiQueue`) and the relaxed
//!   FIFO (`DCboQueue`) all implement it, so one runtime serves
//!   priority-ordered (SSSP, label propagation), label-ordered (greedy
//!   iterative algorithms) and FIFO-ordered (BFS, k-core) scenarios.
//! * Every worker owns one [`Scheduler::Session`] — *the* per-worker
//!   state object (shard-picker RNG, the FIFO's home shard `tid %
//!   shards`, bounded spawn and deletion buffers), configured through
//!   [`RuntimeConfig::spawn_batch`].
//! * [`run`] drives the pool: pop → handler → ([`TaskOutcome`]) →
//!   re-queue blocked tasks, with quiescence termination detection
//!   ([`ActiveCounter`]) over queued-plus-in-flight tasks (buffered
//!   spawns included — sessions flush on every pop miss) — the only
//!   sound emptiness notion over relaxed queues, whose `pop == None`
//!   races with concurrent pushes. [`service()`] runs the same worker
//!   loop for an open system: at quiescence its workers park for
//!   injected work instead of exiting.
//! * [`WorkerStats`] / [`PoolStats`] account pops, executed/stale/extra
//!   steps, spawn-vs-merge pushes, home-shard hits, choice-of-two
//!   steals, pop misses and publishing flushes, per worker, without a
//!   single shared atomic on the hot path.
//! * [`run`] opens a `rsched_queues::telemetry` window (`reset`)
//!   before seeding; the caller reads it with `telemetry::capture()`
//!   after the call. The queues record per-op tails (steal-round and
//!   sweep-length histograms, empty pops, flush merge counts) on every
//!   run; the worker loop reads no clock per task.
//! * The pool feeds the **flight recorder** (`rsched_queues::trace`),
//!   the workspace's one instrumentation switch (`RSCHED_TRACE`,
//!   default off): per-worker lock-free event rings record task
//!   inject/pop/complete, steal rounds, flush publish/merge,
//!   park/unpark and drain with nanosecond timestamps, wrapping so a
//!   crash or stall always leaves each worker's last events
//!   inspectable. [`run`] and `ServiceHandle::join` are snapshot
//!   points: they export Chrome trace-event JSON to `RSCHED_TRACE_OUT`
//!   that opens directly in Perfetto. Disabled, each probe is one
//!   relaxed load and a branch.
//! * [`RuntimeConfig`] holds the pool's shape only — threads, seed,
//!   spawn batch — and the crate reads no environment variables.
//! * [`map_chunks`] is the fork-join companion for level-synchronous
//!   phases (Δ-stepping's edge-relaxation passes).
//!
//! ## Quickstart: relaxed-FIFO BFS shape
//!
//! ```
//! use rsched_queues::{DCboQueue, QueueBuilder};
//! use rsched_runtime::{run, RuntimeConfig, TaskOutcome};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // Tiny 4-cycle; dist converges to hop counts despite relaxed order.
//! let adj: Vec<Vec<usize>> = vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![2, 0]];
//! let dist: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(u64::MAX)).collect();
//! dist[0].store(0, Ordering::Release);
//! let frontier: DCboQueue<(usize, u64)> = QueueBuilder::new(8).seed(42).d_cbo();
//! let stats = run(
//!     &frontier,
//!     RuntimeConfig { threads: 4, seed: 1, ..RuntimeConfig::default() },
//!     [(0usize, 0u64)],
//!     |w, v, d| {
//!         if d > dist[v].load(Ordering::Acquire) {
//!             return TaskOutcome::Stale;
//!         }
//!         for &u in &adj[v] {
//!             if dist[u].fetch_min(d + 1, Ordering::AcqRel) > d + 1 {
//!                 w.spawn(u, d + 1);
//!             }
//!         }
//!         TaskOutcome::Executed
//!     },
//! );
//! assert_eq!(dist[2].load(Ordering::Acquire), 2);
//! assert!(stats.total.executed >= 4);
//! ```

mod adapters;
pub mod pool;
pub mod service;
pub mod termination;

pub use pool::{
    map_chunks, run, PoolStats, RuntimeConfig, Scheduler, TaskOutcome, Worker, WorkerStats,
};
pub use service::{service, Injector, ServiceHandle};
pub use termination::ActiveCounter;

// The worker-session vocabulary lives in `rsched-queues` (the sessions
// are queue state); re-exported here because every `Scheduler`
// implementor and consumer needs it.
pub use rsched_queues::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush};

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_queues::{DCboQueue, QueueBuilder};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn independent_tasks_execute_exactly_once() {
        // Within a deadline: a pool whose workers do not leave at
        // quiescence fails here instead of hanging the suite.
        let outcome = outcome_within_5s(|| {
            let n = 2_000usize;
            let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
            let queue = QueueBuilder::new(8).universe(n).multiqueue::<u64>();
            let stats = run(
                &queue,
                RuntimeConfig {
                    threads: 4,
                    seed: 3,
                    ..RuntimeConfig::default()
                },
                (0..n).map(|i| (i, i as u64)),
                |_, item, _| {
                    let was = done[item].swap(true, Ordering::AcqRel);
                    assert!(!was, "task {item} executed twice");
                    TaskOutcome::Executed
                },
            );
            assert_eq!(stats.total.executed, n as u64);
            assert_eq!(stats.total.extra, 0);
            assert_eq!(stats.total.pops, n as u64);
            assert!(done.iter().all(|d| d.load(Ordering::Acquire)));
            assert_eq!(stats.per_worker.len(), 4);
            let per_sum: u64 = stats.per_worker.iter().map(|w| w.pops).sum();
            assert_eq!(per_sum, stats.total.pops);
        });
        if let Err(message) = outcome {
            panic!("{message}");
        }
    }

    #[test]
    fn blocked_tasks_requeue_until_dependency_clears() {
        // A chain: task t depends on t-1. Heavy re-queueing, but exact
        // completion.
        let n = 300usize;
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let queue = QueueBuilder::new(8).universe(n).multiqueue::<u64>();
        let stats = run(
            &queue,
            RuntimeConfig {
                threads: 4,
                seed: 9,
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
        assert!(stats.total.extra > 0, "a chain must block under relaxation");
    }

    #[test]
    fn dynamic_spawning_counts_add_up() {
        // Each seed task spawns a child chain through the FIFO scheduler;
        // total executed = sum of chain lengths; steal accounting sane.
        let frontier: DCboQueue<(usize, u64)> = QueueBuilder::new(8).seed(5).d_cbo();
        let executed = AtomicU64::new(0);
        let stats = run(
            &frontier,
            RuntimeConfig {
                threads: 4,
                seed: 2,
                ..RuntimeConfig::default()
            },
            (0..64usize).map(|i| (i, 8u64)),
            |w, item, budget| {
                executed.fetch_add(1, Ordering::Relaxed);
                if budget > 0 {
                    w.spawn(item, budget - 1);
                }
                TaskOutcome::Executed
            },
        );
        assert_eq!(stats.total.executed, 64 * 9);
        assert_eq!(stats.total.executed, executed.load(Ordering::Acquire));
        assert_eq!(stats.total.spawned, 64 * 8);
        assert!(stats.total.steals <= stats.total.pops);
    }

    #[test]
    fn single_worker_runs_inline_order() {
        let queue = QueueBuilder::new(1).universe(100).multiqueue::<u64>();
        let order = std::sync::Mutex::new(Vec::new());
        run(
            &queue,
            RuntimeConfig {
                threads: 1,
                seed: 0,
                ..RuntimeConfig::default()
            },
            (0..100usize).map(|i| (i, i as u64)),
            |_, item, _| {
                order.lock().unwrap().push(item);
                TaskOutcome::Executed
            },
        );
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..100).collect::<Vec<_>>(), "1 queue = exact order");
    }

    /// Runs `body` on a helper thread and returns `Ok` or its panic
    /// message, or fails if it was still running after 5 s.
    fn outcome_within_5s(body: impl FnOnce() + Send + 'static) -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            let _ = tx.send(outcome.map_err(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the pool was still running after 5 s");
        helper.join().expect("the helper caught any panic");
        outcome
    }

    /// [`outcome_within_5s`] for a body that must panic: its message.
    fn panics_within_5s(body: impl FnOnce() + Send + 'static) -> String {
        outcome_within_5s(body).expect_err("the pool returned normally despite a panicking handler")
    }

    #[test]
    fn a_panicking_handler_fails_run_instead_of_hanging() {
        let message = panics_within_5s(|| {
            let queue = QueueBuilder::new(4).universe(100).multiqueue::<u64>();
            run(
                &queue,
                RuntimeConfig {
                    threads: 2,
                    seed: 1,
                    ..RuntimeConfig::default()
                },
                (0..100usize).map(|i| (i, i as u64)),
                |_, item, _| {
                    assert_ne!(item, 3, "handler failed on item 3");
                    TaskOutcome::Executed
                },
            );
        });
        assert!(message.contains("item 3"), "re-raised {message:?}");
    }

    #[test]
    fn a_panicking_handler_fails_service_join_instead_of_hanging() {
        let message = panics_within_5s(|| {
            let queue = std::sync::Arc::new(QueueBuilder::new(4).universe(100).multiqueue::<u64>());
            let handle = service(
                queue,
                RuntimeConfig {
                    threads: 2,
                    seed: 1,
                    ..RuntimeConfig::default()
                },
                |_, item, _| {
                    assert_ne!(item, 3, "handler failed on item 3");
                    TaskOutcome::Executed
                },
            );
            let mut inj = handle.injector();
            for i in 0..100usize {
                inj.inject(i, i as u64);
            }
            drop(inj);
            handle.join();
        });
        assert!(message.contains("item 3"), "re-raised {message:?}");
    }

    #[test]
    fn map_chunks_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1usize, 3, 8] {
            let partials = map_chunks(threads, &items, |c| c.iter().sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), items.iter().sum::<u64>());
        }
        assert!(map_chunks(4, &[] as &[u64], |c| c.len()).is_empty());
    }
}
