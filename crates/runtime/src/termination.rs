//! Quiescence-based termination detection.
//!
//! Relaxed concurrent queues cannot give a linearizable emptiness check
//! (`pop` returning `None` races with concurrent pushes), so the runtime's
//! worker loops use an [`ActiveCounter`]: the count of *elements queued plus
//! tasks being processed*. A worker that sees an empty queue may only
//! terminate once the counter reaches zero — at that instant no task is
//! queued and no running task can produce one, so the system is quiescent
//! for good. This is the epoch-style detector every executor in the
//! workspace shares; it used to live in `rsched-core::parallel` and moved
//! here when the runtime became the single concurrency substrate.

use crossbeam::utils::{Backoff, CachePadded};
use std::sync::atomic::{AtomicU64, Ordering};

/// One monotone `(added, done)` pair of an [`ActiveCounter`], on a cache
/// line of its own.
#[derive(Debug, Default)]
pub(crate) struct CounterSlot {
    added: AtomicU64,
    done: AtomicU64,
}

impl CounterSlot {
    // `Release` on every update: a reader that observes a task's `done`
    // also observes every `added` its handler made before finishing
    // (and, through the queue's own synchronization, the `added` of the
    // task itself), which is what the done-before-added read order
    // relies on.
    //
    // A worker slot has one writer — the worker thread that
    // [`ActiveCounter::slot`] handed it to — so its updates are plain
    // load-then-store, not read-modify-writes.
    #[inline]
    pub(crate) fn task_added(&self) {
        let n = self.added.load(Ordering::Relaxed);
        self.added.store(n + 1, Ordering::Release);
    }

    #[inline]
    pub(crate) fn tasks_done(&self, n: u64) {
        let d = self.done.load(Ordering::Relaxed);
        self.done.store(d + n, Ordering::Release);
    }
}

/// Termination-detection counter for concurrent task pools.
///
/// Protocol:
/// 1. call [`task_added`](ActiveCounter::task_added) **before** pushing a
///    task to the queue;
/// 2. after popping a task, process it (pushing any children, each preceded
///    by its own `task_added`), then call
///    [`task_done`](ActiveCounter::task_done);
/// 3. a worker whose pop returned `None` calls
///    [`wait_or_quiescent`](ActiveCounter::wait_or_quiescent); `true` means
///    globally done, `false` means "retry popping".
///
/// The count is kept as monotone `(added, done)` pairs, one cache-padded
/// slot per pool worker plus one shared slot for everyone else (seeders,
/// injectors, callers of the methods below), so the per-task updates of
/// different workers never touch the same cache line. A reading sums all
/// `done` values **before** all `added` values: `done ≤ added` holds at
/// every instant, so equal sums mean the pool was quiescent between the
/// two passes — and quiescence, once reached, is stable.
///
/// # Examples
///
/// ```
/// use rsched_runtime::ActiveCounter;
///
/// let c = ActiveCounter::new();
/// c.task_added();
/// assert!(!c.is_quiescent());
/// c.task_done();
/// assert!(c.is_quiescent());
/// ```
#[derive(Debug)]
pub struct ActiveCounter {
    /// `slots[0]` is the shared slot, `slots[1 + tid]` worker `tid`'s.
    slots: Box<[CachePadded<CounterSlot>]>,
}

impl Default for ActiveCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ActiveCounter {
    /// A counter starting at zero (quiescent), with the shared slot only.
    pub fn new() -> Self {
        Self::for_workers(0)
    }

    /// A counter starting at zero with a slot of its own for each of
    /// `workers` pool workers.
    pub fn for_workers(workers: usize) -> Self {
        Self {
            slots: (0..=workers).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Worker `tid`'s own slot, for that worker's thread alone to
    /// update. Panics if the counter was built for fewer workers.
    pub(crate) fn slot(&self, tid: usize) -> &CounterSlot {
        &self.slots[1 + tid]
    }

    /// Announce a task about to be queued.
    #[inline]
    pub fn task_added(&self) {
        self.slots[0].added.fetch_add(1, Ordering::Release);
    }

    /// Announce completion of a popped task (after its children, if any,
    /// were announced and queued).
    #[inline]
    pub fn task_done(&self) {
        self.tasks_done(1);
    }

    /// Batch form of [`task_done`](Self::task_done): retract `n`
    /// announcements at once (how a session flush reports its merged
    /// elements). A no-op for `n == 0`.
    #[inline]
    pub fn tasks_done(&self, n: u64) {
        if n > 0 {
            self.slots[0].done.fetch_add(n, Ordering::Release);
        }
    }

    /// Tasks queued or in flight right now — a racy observability
    /// reading (exact only at quiescence), what a serving layer's
    /// admission logic and stats endpoints report.
    #[inline]
    pub fn active(&self) -> usize {
        let done: u64 = self
            .slots
            .iter()
            .map(|s| s.done.load(Ordering::Acquire))
            .sum();
        let added: u64 = self
            .slots
            .iter()
            .map(|s| s.added.load(Ordering::Acquire))
            .sum();
        debug_assert!(added >= done, "task_done without matching task_added");
        (added - done) as usize
    }

    /// `true` iff no tasks are queued or in flight.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        self.active() == 0
    }

    /// Back off briefly; returns `true` if the pool is quiescent (caller
    /// should terminate), `false` to retry popping.
    #[inline]
    pub fn wait_or_quiescent(&self, backoff: &Backoff) -> bool {
        if self.is_quiescent() {
            return true;
        }
        backoff.snooze();
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = ActiveCounter::new();
        assert!(c.is_quiescent());
        c.task_added();
        c.task_added();
        c.task_done();
        assert!(!c.is_quiescent());
        c.task_done();
        assert!(c.is_quiescent());
    }

    #[test]
    fn worker_slots_and_shared_slot_sum_to_one_count() {
        let c = ActiveCounter::for_workers(2);
        c.task_added(); // a seed, on the shared slot
        c.slot(0).task_added(); // worker 0 spawns a child ...
        c.slot(0).tasks_done(1); // ... and finishes the seed
        assert_eq!(c.active(), 1);
        c.slot(1).tasks_done(1); // worker 1 finishes the child
        assert!(c.is_quiescent());
    }

    #[test]
    fn termination_protocol_under_threads() {
        // A synthetic task pool: each task spawns children until a depth
        // budget runs out; termination detection must not fire early and
        // must fire eventually.
        use std::sync::Arc;
        let queue: Arc<crossbeam::queue::SegQueue<u32>> =
            Arc::new(crossbeam::queue::SegQueue::new());
        let counter = Arc::new(ActiveCounter::new());
        let processed = Arc::new(AtomicU64::new(0));
        counter.task_added();
        queue.push(6); // depth-6 binary tree => 2^7 - 1 = 127 tasks
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let counter = Arc::clone(&counter);
                let processed = Arc::clone(&processed);
                std::thread::spawn(move || {
                    let backoff = Backoff::new();
                    loop {
                        match queue.pop() {
                            Some(depth) => {
                                backoff.reset();
                                if depth > 0 {
                                    counter.task_added();
                                    queue.push(depth - 1);
                                    counter.task_added();
                                    queue.push(depth - 1);
                                }
                                processed.fetch_add(1, Ordering::Relaxed);
                                counter.task_done();
                            }
                            None => {
                                if counter.wait_or_quiescent(&backoff) {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(processed.load(Ordering::Acquire), 127);
        assert!(counter.is_quiescent());
        assert!(queue.pop().is_none());
    }
}
