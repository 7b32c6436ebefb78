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
//!   │  │ pin, rng │      │ pin, rng │             │ pin, rng │  (no    │
//!   │  │ homes,buf│      │ homes,buf│             │ homes,buf│  locks) │
//!   │  └───┬──────┘      └───┬──────┘             └───┬──────┘         │
//!   │      │ pop(&mut session)│                       │                │
//!   │  ┌───▼─────────────────▼───────────────────────▼───┐             │
//!   │  │      Scheduler (sharded relaxed queue)          │             │
//!   │  │  shard₀  shard₁  shard₂  …  — homes ∪ steals    │             │
//!   │  └─────────────────────────────────────────────────┘             │
//!   │      ActiveCounter: queued + in-flight (+ buffered) → quiescence │
//!   └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`Scheduler`] abstracts the queue: relaxed priority schedulers
//!   (`ConcurrentMultiQueue`, `ConcurrentSprayList`,
//!   `DuplicateMultiQueue`) and the relaxed FIFOs (`DCboQueue`,
//!   `DRaQueue`) all implement it, so one runtime serves
//!   priority-ordered (SSSP), label-ordered (greedy iterative
//!   algorithms) and FIFO-ordered (BFS, label propagation, k-core)
//!   scenarios.
//! * Every worker owns one [`Scheduler::Session`] — *the* per-worker
//!   state object (epoch pin, shard-picker RNG, owned home shards,
//!   sticky peek cache, bounded spawn buffer), configured through
//!   [`RuntimeConfig::shards_per_worker`] / `spawn_batch` (env:
//!   `RSCHED_SHARDS_PER_WORKER`, `RSCHED_SPAWN_BATCH`).
//! * [`run`] drives the pool: pop → handler → ([`TaskOutcome`]) →
//!   re-queue blocked tasks, with quiescence termination detection
//!   ([`ActiveCounter`]) over queued-plus-in-flight tasks (buffered
//!   spawns included — sessions flush on every pop miss) — the only
//!   sound emptiness notion over relaxed queues, whose `pop == None`
//!   races with concurrent pushes.
//! * [`WorkerStats`] / [`PoolStats`] account pops, executed/stale/extra
//!   steps, spawn-vs-merge pushes, home-shard hits, choice-of-two
//!   steals, pop misses and publishing flushes, per worker, without a
//!   single shared atomic on the hot path; [`PoolStats`] carries both
//!   the worker-phase wall clock and the whole-call wall clock.
//! * When [`RuntimeConfig::telemetry`] is on (env `RSCHED_TELEMETRY`,
//!   default on), [`run`] brackets the computation with a
//!   `rsched_queues::telemetry` window and returns the captured
//!   per-op progress snapshot (CAS-retry / steal-round / sweep-length
//!   histograms, flush merge ratios, epoch-GC counters) in
//!   [`PoolStats::telemetry`] — the "practically wait-free" tail
//!   evidence for whatever queue the run drove. Disabled, every
//!   instrumentation point in the queues collapses to one relaxed
//!   atomic load and a predictable branch.
//! * When [`RuntimeConfig::trace`] is on (env `RSCHED_TRACE`, default
//!   off), the pool additionally feeds the **flight recorder**
//!   (`rsched_queues::trace`): per-worker lock-free event rings record
//!   task inject/pop/complete, steal rounds, flush publish/merge,
//!   park/unpark and drain with nanosecond timestamps, wrapping so a
//!   crash or stall always leaves each worker's last events
//!   inspectable. [`run`] and `ServiceHandle::join` are snapshot
//!   points: with `RSCHED_TRACE_OUT` set they export Chrome trace-event
//!   JSON that opens directly in Perfetto (`RSCHED_TRACE_EVENTS` sizes
//!   the rings). Disabled, each probe is the same one-relaxed-load-and-
//!   branch discipline as telemetry.
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
pub mod env;
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
