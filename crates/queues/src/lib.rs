//! # rsched-queues — exact and relaxed priority queues
//!
//! This crate provides the priority-queue substrate for the relaxed-scheduling
//! model of Alistarh, Koval and Nadiradze, *"Efficiency Guarantees for Parallel
//! Incremental Algorithms under Relaxed Schedulers"* (SPAA 2019).
//!
//! It contains:
//!
//! * An **exact** priority queue with `DecreaseKey`: an indexed 4-ary
//!   heap ([`heap::IndexedBinaryHeap`]).
//! * **Relaxed** priority queues, i.e. schedulers that may return one of the
//!   `k` highest-priority elements instead of the exact minimum:
//!   - [`multiqueue::SimMultiQueue`]: the sequential-model MultiQueue
//!     (insert into a random queue, pop the better of two random tops),
//!     exactly the structure analysed in Section 5 of the paper;
//!   - [`multiqueue::ConcurrentMultiQueue`]: a thread-safe MultiQueue
//!     of try-locked indexed heaps, with consistent hashing of items to
//!     shards so that `decrease_key` is supported (required by the
//!     paper's SSSP, Section 6);
//!   - [`spraylist::SprayList`]: a sequential-model skip-list relaxed
//!     queue whose `pop_relaxed` performs a "spray" random walk, following
//!     the SprayList of Alistarh et al. (PPoPP 2015);
//!   - [`kbounded::RotatingKQueue`]: a *deterministic* k-relaxed queue that
//!     provably satisfies the paper's RankBound and Fairness properties
//!     (in the spirit of deterministic structures such as the k-LSM).
//! * **The relaxed FIFO** ([`fifo`]): [`fifo::DCboQueue`] (d-CBO:
//!   choice of two by balanced operation counts over
//!   `Mutex<VecDeque>` shards, one lock acquisition per batch),
//!   concurrent and behind the sequential [`fifo::RelaxedFifo`] trait.
//!   It feeds the `rsched-runtime` worker pool for FIFO-ordered
//!   workloads (BFS frontiers, k-core peeling).
//! * **Instrumentation**: [`instrument::RankTracker`] wraps any relaxed queue
//!   and measures the empirical rank of every returned element and the
//!   inversion count of every element that becomes the global minimum,
//!   validating the paper's RankBound (`rank(t) <= k`) and Fairness
//!   (`inv(u) <= k - 1`) properties; [`fifo::FifoRankTracker`] is the FIFO
//!   analogue, measuring rank errors (items overtaken per dequeue), and
//!   [`instrument::ConcurrentRankEstimator`] estimates FIFO rank errors
//!   under real thread contention via timestamp replay.
//!
//! ## The interface
//!
//! The paper models a relaxed scheduler `Q_k` as an ordered-set data structure
//! with `Empty()`, `ApproxGetMin()` (peek without deleting), `DeleteTask()`
//! and `Insert()` (Section 2). [`RelaxedQueue`] mirrors this interface and
//! adds `decrease_key`, which Section 6 requires for SSSP and which
//! MultiQueue-style schedulers support by hashing items consistently into
//! their internal queues.
//!
//! Items are dense `usize` identifiers (vertex ids, task labels, …) and
//! priorities are any `Ord + Copy` type; ties are broken by item id so every
//! queue has a single deterministic total order, which is what the
//! instrumentation layer measures ranks against.
//!
//! ## Architecture: locked shards below, worker sessions above
//!
//! Every concurrent relaxed structure in this crate has the same shape:
//! a **composition layer** that owns the relaxation policy, over an
//! array of **shards** that own the synchronization. The composition
//! layer picks shards (two random choices, balanced counters, keyed
//! hashing), compares cheap per-shard summaries (operation counters
//! kept beside each FIFO shard, a priority shard's minimum key), and
//! claims from the winner.
//!
//! Each structure has one shard type, and both are a lock around a
//! sequential container:
//!
//! | structure | shard | claim |
//! |---|---|---|
//! | [`DCboQueue`] | `Mutex<VecDeque>` | one `try_lock` per head and its successors; one append per published batch |
//! | [`ConcurrentMultiQueue`] | `Mutex<IndexedBinaryHeap>` | one `try_lock` per minimum and its successors; one lock per touched shard per flush |
//!
//! The crate has no `unsafe` code: the workspace forbids it.
//!
//! ### The worker-session layer
//!
//! Above the composition layer sits **one** abstraction for everything a
//! long-lived worker thread accumulates against a queue: the per-queue
//! session types, built from one vocabulary ([`SessionConfig`],
//! [`SessionPush`], [`PushOutcome`], [`FlushReport`], [`PopSource`]):
//!
//! * [`fifo::FifoSession`] (from [`DCboQueue::session`]) carries the
//!   worker's private shard-picker RNG, its **home shard** (`tid %
//!   shards`, so with no more workers than shards every shard has at
//!   most one owner), a **bounded spawn buffer** that parks pushes and
//!   publishes them as one batch to a single balanced-choice target
//!   shard (one choice and one counter bump per *batch*), and a
//!   **deletion buffer** shaped like the MultiQueue's below. Pops
//!   follow d-CBO's own choice of two on completed dequeues, with the
//!   home shard as one candidate and a uniform sample as the other;
//!   the winner is reported as
//!   [`PopSource::Home`] or [`PopSource::Steal`], and it yields up to
//!   `D` successors for the next pops in the same lock acquisition.
//! * [`multiqueue::MqSession`] (from [`ConcurrentMultiQueue::session`])
//!   is the MultiQueue's only pop path
//!   ([`ConcurrentMultiQueue::pop_session`]: peek two random shards,
//!   claim from the smaller minimum). It carries the RNG, the same
//!   spawn buffer (flushed one shard lock per touched shard, where a
//!   repeated item merges through decrease-key and the flush reports
//!   it), and a **deletion buffer** (the
//!   winning shard of a choice-of-two yields its minimum plus up to `D
//!   = min(spawn_batch / 8, 8)` successors under one lock; the next
//!   pops are served locally and reported as [`PopSource::Home`]).
//!
//! In both sessions the buffers exist only when `spawn_batch > 1` and
//! widen the nominal relaxation (`k = O(q log q)` for the MultiQueue)
//! by about `q·D + workers·I` (`I = spawn_batch`): the last of `D`
//! successive items of one of `q` shards has expected global rank
//! `q·D`, and each worker parks up to `I` spawns no one else can pop.
//! A FIFO session's auto-flush of a full spawn buffer publishes the
//! spawns only; an explicit flush also returns the parked pops.
//!
//! Buffered spawns interact with termination detection through the
//! flush protocol: [`FlushReport`] tells the caller how many parked
//! elements were published and how many of those merged into existing
//! entries, which is exactly the signal the `rsched-runtime` quiescence
//! counter needs to stay conservative (a parked element counts as in
//! flight until its flush resolves it). The runtime's worker loop
//! flushes on every pop miss, so a buffer can never hide the last tasks
//! of a computation.
//!
//! Both sides settled on the lock alone once every claim was batched;
//! `ci/baselines/README.md` records the measurements that retired the
//! lock-free FIFO ring and the lock-free skiplist priority shard.
//!
//! ### The telemetry layer
//!
//! "Practically wait-free" is a claim about the *tail* of per-op
//! progress distributions, not about means — so every hot path in the
//! crate feeds [`telemetry`]: a fixed-footprint log₂ histogram
//! ([`PowHistogram`]) per series plus plain event counters, recorded
//! into a thread-local buffer (no atomics, no allocation per op) and
//! folded into process globals on thread exit. What is recorded where:
//! the pop engines ([`DCboQueue`], [`ConcurrentMultiQueue`]) record
//! **steal/choice rounds** per pop, fallback **sweep lengths**, and
//! **empty-pop** sweeps, and every `flush_session` counts published vs
//! merged elements. The layer has no switch: it records on every run.
//! Benches bracket a measured window with [`telemetry::reset`] /
//! [`telemetry::capture`] and export the resulting
//! [`TelemetrySnapshot`] (bucket arrays + p50/p90/p99/p999/max) into
//! their JSON records.
//!
//! ### The trace layer
//!
//! Histograms say *how bad*; the flight recorder in [`trace`] says
//! *when and why*. Every scheduling thread owns a fixed-capacity
//! single-producer ring of packed 16-byte events — nanosecond
//! timestamp, [`EventKind`] byte, 56-bit payload — with wrap-around
//! overwrite, so a crash or stall always leaves the last N events per
//! worker inspectable. The event vocabulary covers the scheduler
//! lifecycle: task inject/pop/complete, steal rounds, flush
//! publish/merge, park/unpark, drain, admission reject. The layer is
//! always compiled and gated by `RSCHED_TRACE` (default **off**), the
//! workspace's one instrumentation switch: disabled, every
//! [`trace::emit`] is one relaxed load and a branch.
//! [`trace::export_if_configured`] snapshots all lanes at
//! `run()`/drain boundaries and writes Chrome trace-event JSON
//! (`RSCHED_TRACE_OUT`) with one `tid` per lane and `B`/`E` spans for
//! pop→complete, so any run opens directly in Perfetto or
//! `chrome://tracing`.

pub mod builder;
pub mod fifo;
pub mod heap;
pub mod instrument;
pub mod kbounded;
pub mod multiqueue;
pub mod spraylist;
pub mod telemetry;
pub mod trace;

pub use builder::QueueBuilder;
pub use fifo::{DCboQueue, FifoRankStats, FifoRankTracker, FifoSession, RelaxedFifo};
pub use heap::IndexedBinaryHeap;
pub use instrument::{ConcurrentRankEstimator, RankRecorder, RankStats, RankTracker};
pub use kbounded::RotatingKQueue;
pub use multiqueue::Placement;
pub use multiqueue::{ConcurrentMultiQueue, DuplicateMultiQueue, MqSession, SimMultiQueue};
pub use spraylist::SprayList;
pub use telemetry::{HistSnapshot, PowHistogram, TelemetrySnapshot};
pub use trace::{EventKind, LaneSnapshot, TraceEvent};

/// Sentinel meaning "item is not currently stored in the queue".
pub(crate) const NOT_PRESENT: usize = usize::MAX;

// ---------------------------------------------------------------------
// The worker-session vocabulary
// ---------------------------------------------------------------------

/// Ceiling on [`SessionConfig::spawn_batch`]: an unbounded buffer would
/// let one worker hold an arbitrary slice of the computation invisible
/// to every other worker.
pub const MAX_SPAWN_BATCH: usize = 4096;

/// Configuration for a worker session over any concurrent queue in this
/// crate ([`DCboQueue::session`], [`ConcurrentMultiQueue::session`]).
///
/// A session is the worker-owned half of a queue: the shard-picker RNG
/// stream, the FIFO's home shard and the bounded spawn
/// and deletion buffers all live in it, so the shared structure stays
/// free of any per-thread state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// This worker's id in `0..workers`; a FIFO session's home shard is
    /// `tid % shards`.
    pub tid: usize,
    /// Total cooperating workers. No session reads it: with one home
    /// shard per worker, `tid` alone places the home.
    pub workers: usize,
    /// Seed for the session's private RNG stream (derive per worker).
    pub seed: u64,
    /// Spawn-buffer capacity (clamped to [`MAX_SPAWN_BATCH`]); `1`
    /// publishes every push immediately. Both sessions size their
    /// deletion buffer from it too (`min(spawn_batch / 8, 8)`).
    pub spawn_batch: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            tid: 0,
            workers: 1,
            seed: 0,
            spawn_batch: 1,
        }
    }
}

impl SessionConfig {
    /// A session config for worker `tid` of `workers`, everything else
    /// at the defaults.
    pub fn for_worker(tid: usize, workers: usize) -> Self {
        Self {
            tid,
            workers: workers.max(1),
            seed: (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..Self::default()
        }
    }
}

/// What a session-mediated push did — the conservation signal callers
/// maintaining element counts (the runtime's quiescence detector, the
/// contention benchmarks) fold into their accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPush {
    /// A net-new element became (or will become, once the buffer
    /// flushes without merging it) visible in the shared structure.
    Inserted,
    /// Merged into an existing entry — a decrease-key hit in the shared
    /// structure, reported only by an unbuffered push. No net-new
    /// element.
    Merged,
    /// Parked in the session's spawn buffer; whether it merges is
    /// decided by the [`FlushReport`] of the flush that publishes it.
    Buffered,
}

/// Outcome of a flush: how many parked elements were published and how
/// many of those merged into existing entries (and therefore are *not*
/// net-new, whatever the pusher assumed when parking them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Parked elements pushed to the shared structure: buffered spawns,
    /// plus any pops the session still held and returned.
    pub published: u64,
    /// Of those, how many merged (net element count unchanged).
    pub merged: u64,
}

impl FlushReport {
    /// Fold another report into this one.
    pub fn absorb(&mut self, other: FlushReport) {
        self.published += other.published;
        self.merged += other.merged;
    }
}

/// A session push plus any flush it triggered (a full buffer publishes
/// itself before accepting the new element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushOutcome {
    /// The pushed element's own fate.
    pub push: SessionPush,
    /// Side-effect flush, empty when none happened.
    pub flushed: FlushReport,
}

impl PushOutcome {
    pub(crate) fn immediate(push: SessionPush) -> Self {
        Self {
            push,
            flushed: FlushReport::default(),
        }
    }

    /// The net element-count delta this outcome implies — **the**
    /// conservation rule for session pushes, in one place: `Inserted`
    /// and `Buffered` elements are presumed net-new, `Merged` ones are
    /// not, and every merge the side-effect flush reported retracts one
    /// earlier presumption. Summing this over all pushes, plus
    /// `-merged` of every explicit [`FlushReport`], equals the number
    /// of elements pops will deliver once the structure drains.
    pub fn net_new(&self) -> i64 {
        let presumed = matches!(self.push, SessionPush::Inserted | SessionPush::Buffered) as i64;
        presumed - self.flushed.merged as i64
    }
}

/// Where a session pop found its element — the locality statistic the
/// runtime folds into per-worker home-hit/steal counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopSource {
    /// The session's own home shard (FIFO queues), or the session's
    /// deletion buffer (MultiQueue).
    Home,
    /// A foreign shard of a FIFO session.
    Steal,
    /// A MultiQueue's choice of two: keyed placement has no home notion.
    Shared,
}

/// An exact priority queue over dense `usize` items.
///
/// The minimum element is the one with the smallest `(priority, item)` pair;
/// ties on priority are broken by item id, so the order is total and
/// deterministic.
pub trait PriorityQueue<P: Ord + Copy> {
    /// Number of stored items.
    fn len(&self) -> usize;

    /// `true` if no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `item` with priority `prio`.
    ///
    /// Panics if `item` is already present (each item id may be stored at
    /// most once; use [`DecreaseKey::decrease_key`] to update priorities).
    fn push(&mut self, item: usize, prio: P);

    /// Remove and return the minimum `(item, priority)` pair.
    fn pop(&mut self) -> Option<(usize, P)>;

    /// Return the minimum `(item, priority)` pair without removing it.
    fn peek(&self) -> Option<(usize, P)>;
}

/// Exact priority queues that additionally support addressable updates.
pub trait DecreaseKey<P: Ord + Copy>: PriorityQueue<P> {
    /// `true` if `item` is currently stored.
    fn contains(&self, item: usize) -> bool;

    /// Current priority of `item`, if stored.
    fn priority_of(&self, item: usize) -> Option<P>;

    /// Lower the priority of `item` to `prio`.
    ///
    /// Returns `true` if the item was present *and* `prio` was strictly
    /// smaller than its current priority; otherwise the queue is unchanged
    /// and `false` is returned.
    fn decrease_key(&mut self, item: usize, prio: P) -> bool;

    /// Remove `item` from an arbitrary position, returning its priority.
    fn remove(&mut self, item: usize) -> Option<P>;
}

/// The paper's relaxed scheduler interface `Q_k` (Section 2), in sequential
/// form.
///
/// A `k`-relaxed queue promises two properties:
///
/// * **RankBound** — every element returned by [`peek_relaxed`] is among the
///   `k` smallest currently stored;
/// * **Fairness** — once an element becomes the global minimum it is returned
///   after at most `k` calls to [`peek_relaxed`].
///
/// Deterministic implementations ([`RotatingKQueue`], and trivially the exact
/// queues with `k = 1`) enforce both properties unconditionally; randomized
/// ones ([`SimMultiQueue`], [`SprayList`]) enforce them with high probability,
/// as shown in "The power of choice in priority scheduling" (PODC 2017).
///
/// [`peek_relaxed`]: RelaxedQueue::peek_relaxed
pub trait RelaxedQueue<P: Ord + Copy> {
    /// Insert `item` with priority `prio`. `item` must not be present.
    fn insert(&mut self, item: usize, prio: P);

    /// The paper's `ApproxGetMin()`: return a `(item, priority)` pair subject
    /// to the relaxation guarantees, *without* removing it.
    ///
    /// Successive calls may return different elements (the scheduler is free
    /// to re-randomize); the incremental-algorithm executor calls
    /// [`delete`](RelaxedQueue::delete) only when the returned task's
    /// dependencies are satisfied, mirroring Algorithm 2 of the paper.
    fn peek_relaxed(&mut self) -> Option<(usize, P)>;

    /// The paper's `DeleteTask()`: remove `item`, returning `true` if it was
    /// present.
    fn delete(&mut self, item: usize) -> bool;

    /// Combined `ApproxGetMin` + `DeleteTask`, used by algorithms that always
    /// consume the returned task (e.g. SSSP, Algorithm 3 of the paper).
    fn pop_relaxed(&mut self) -> Option<(usize, P)> {
        let (item, prio) = self.peek_relaxed()?;
        let deleted = self.delete(item);
        debug_assert!(deleted, "peeked item must be deletable");
        Some((item, prio))
    }

    /// Atomically lower the priority of `item` to `prio` (Section 6 of the
    /// paper assumes the scheduler supports this for SSSP).
    ///
    /// Returns `true` on success, `false` if the item is absent or `prio` is
    /// not strictly smaller than the current priority.
    fn decrease_key(&mut self, item: usize, prio: P) -> bool;

    /// `true` if `item` is currently stored.
    fn contains(&self, item: usize) -> bool;

    /// Number of stored items.
    fn len(&self) -> usize;

    /// `true` if no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nominal relaxation factor `k` of this queue: `1` for exact queues,
    /// the configured bound for deterministic relaxed queues, and the
    /// high-probability bound `O(q log q)` for randomized ones.
    fn relaxation_factor(&self) -> usize;
}

/// Adapter presenting an exact [`DecreaseKey`] queue as a `1`-relaxed queue.
///
/// This lets the executors run the *exact* baseline (Algorithm 1 of the
/// paper) through the same code path as the relaxed runs:
///
/// ```
/// use rsched_queues::{Exact, IndexedBinaryHeap, RelaxedQueue};
///
/// let mut q = Exact(IndexedBinaryHeap::<u64>::new());
/// q.insert(0, 10);
/// q.insert(1, 5);
/// assert_eq!(q.pop_relaxed(), Some((1, 5)));
/// assert_eq!(q.relaxation_factor(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Exact<Q>(pub Q);

impl<P: Ord + Copy, Q: DecreaseKey<P>> RelaxedQueue<P> for Exact<Q> {
    fn insert(&mut self, item: usize, prio: P) {
        self.0.push(item, prio);
    }

    fn peek_relaxed(&mut self) -> Option<(usize, P)> {
        self.0.peek()
    }

    fn delete(&mut self, item: usize) -> bool {
        self.0.remove(item).is_some()
    }

    fn pop_relaxed(&mut self) -> Option<(usize, P)> {
        self.0.pop()
    }

    fn decrease_key(&mut self, item: usize, prio: P) -> bool {
        self.0.decrease_key(item, prio)
    }

    fn contains(&self, item: usize) -> bool {
        self.0.contains(item)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn relaxation_factor(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn exact_heap_is_a_one_relaxed_queue() {
        let mut h = Exact(IndexedBinaryHeap::<u64>::new());
        h.insert(3, 30);
        h.insert(1, 10);
        h.insert(2, 20);
        assert_eq!(h.relaxation_factor(), 1);
        assert_eq!(h.peek_relaxed(), Some((1, 10)));
        assert_eq!(h.pop_relaxed(), Some((1, 10)));
        assert!(h.decrease_key(3, 5));
        assert_eq!(h.pop_relaxed(), Some((3, 5)));
        assert_eq!(h.pop_relaxed(), Some((2, 20)));
        assert!(h.is_empty());
    }
}
