//! The concurrent execution model (Section 7 experiments), hosted on
//! the shared [`rsched-runtime`](rsched_runtime) worker pool.
//!
//! The thread pool, termination detection and statistics plumbing live
//! in `rsched-runtime` (see [`rsched_runtime::run`]). This module holds
//! the *model*: the [`ConcurrentIncremental`] trait and the relaxed iterative
//! executor [`run_relaxed_parallel`], which is a task handler over the
//! runtime — pop a label, process it if its dependencies are satisfied,
//! otherwise report it blocked and let the runtime re-queue it.

use rsched_queues::QueueBuilder;
use rsched_runtime::{run, RuntimeConfig, TaskOutcome};
use std::time::Duration;

/// A thread-safe incremental algorithm: the concurrent counterpart of
/// [`IncrementalAlgorithm`](crate::executor::IncrementalAlgorithm) for the
/// parallel execution model the paper sketches in Section 4.
///
/// `process(task)` is called at most once per task, and only after
/// `deps_satisfied(task)` returned `true`; implementations synchronize their
/// state with atomics — the contract is that all writes of `process(u)`
/// happen-before any `deps_satisfied(v)` that observes `u` as processed
/// (publish the processed flag with `Release`, read it with `Acquire`).
pub trait ConcurrentIncremental: Sync {
    /// Total number of tasks; labels are `0..num_tasks()`.
    fn num_tasks(&self) -> usize;

    /// `true` iff every smaller-label dependency of `task` is processed.
    fn deps_satisfied(&self, task: usize) -> bool;

    /// Execute `task` (its dependencies are processed and stable).
    fn process(&self, task: usize);
}

/// Statistics of a concurrent relaxed execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParExecStats {
    /// Total pops from the relaxed scheduler.
    pub steps: u64,
    /// Tasks processed (= n on completion).
    pub processed: u64,
    /// Pops of blocked tasks, which were re-queued — the concurrent
    /// analogue of the paper's extra steps.
    pub extra_steps: u64,
    /// Worker wall-clock time.
    pub wall: Duration,
}

impl ParExecStats {
    /// `steps / processed` (1.0 = no waste).
    pub fn overhead(&self) -> f64 {
        if self.processed == 0 {
            1.0
        } else {
            self.steps as f64 / self.processed as f64
        }
    }
}

/// Concurrent Algorithm 2: worker threads pull tasks from a keyed
/// [`ConcurrentMultiQueue`] in relaxed label order; a popped task whose
/// dependencies are unsatisfied is re-queued and the step counted as
/// wasted.
///
/// Unlike the sequential model — where a blocked task stays in the queue —
/// a concurrent pop must physically remove the element, so blocked tasks
/// are re-inserted at their original priority ([`TaskOutcome::Blocked`]);
/// termination uses the runtime's quiescence detection over
/// queued-plus-in-flight tasks.
///
/// [`ConcurrentMultiQueue`]: rsched_queues::ConcurrentMultiQueue
///
/// # Examples
///
/// ```
/// use rsched_core::parallel::{run_relaxed_parallel, ConcurrentIncremental};
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// // Independent tasks: every pop processes.
/// struct Tasks {
///     done: Vec<AtomicBool>,
/// }
/// impl ConcurrentIncremental for Tasks {
///     fn num_tasks(&self) -> usize {
///         self.done.len()
///     }
///     fn deps_satisfied(&self, _t: usize) -> bool {
///         true
///     }
///     fn process(&self, t: usize) {
///         self.done[t].store(true, Ordering::Release);
///     }
/// }
///
/// let alg = Tasks { done: (0..100).map(|_| AtomicBool::new(false)).collect() };
/// let stats = run_relaxed_parallel(&alg, 4, 2, 7);
/// assert_eq!(stats.processed, 100);
/// assert_eq!(stats.extra_steps, 0);
/// ```
pub fn run_relaxed_parallel<A: ConcurrentIncremental>(
    alg: &A,
    threads: usize,
    queue_multiplier: usize,
    seed: u64,
) -> ParExecStats {
    assert!(threads >= 1 && queue_multiplier >= 1);
    let n = alg.num_tasks();
    let queue = QueueBuilder::new(threads * queue_multiplier)
        .universe(n)
        .multiqueue::<u64>();
    let stats = run(
        &queue,
        RuntimeConfig {
            threads,
            seed,
            ..RuntimeConfig::default()
        },
        (0..n).map(|task| (task, task as u64)),
        |_, task, _| {
            if alg.deps_satisfied(task) {
                alg.process(task);
                TaskOutcome::Executed
            } else {
                TaskOutcome::Blocked
            }
        },
    );
    let stats = ParExecStats {
        steps: stats.total.pops,
        processed: stats.total.executed,
        extra_steps: stats.total.extra,
        wall: stats.wall,
    };
    debug_assert_eq!(stats.processed as usize, n);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    struct AtomicChain {
        done: Vec<std::sync::atomic::AtomicBool>,
    }

    impl ConcurrentIncremental for AtomicChain {
        fn num_tasks(&self) -> usize {
            self.done.len()
        }
        fn deps_satisfied(&self, t: usize) -> bool {
            t == 0 || self.done[t - 1].load(Ordering::Acquire)
        }
        fn process(&self, t: usize) {
            let was = self.done[t].swap(true, Ordering::AcqRel);
            assert!(!was, "task {t} processed twice");
        }
    }

    #[test]
    fn parallel_chain_processes_each_task_once_in_order() {
        let n = 400;
        let alg = AtomicChain {
            done: (0..n)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        };
        let stats = run_relaxed_parallel(&alg, 4, 2, 3);
        assert_eq!(stats.processed, n as u64);
        assert_eq!(stats.steps, stats.processed + stats.extra_steps);
        assert!(alg.done.iter().all(|d| d.load(Ordering::Acquire)));
        // A chain forces heavy re-queueing under relaxation.
        assert!(stats.extra_steps > 0);
    }

    #[test]
    fn parallel_single_thread_single_queue_is_exact_order() {
        let n = 200;
        let alg = AtomicChain {
            done: (0..n)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        };
        let stats = run_relaxed_parallel(&alg, 1, 1, 0);
        assert_eq!(stats.processed, n as u64);
        assert_eq!(stats.extra_steps, 0, "exact order never blocks");
    }
}
