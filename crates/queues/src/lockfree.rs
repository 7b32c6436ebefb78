//! The lock-free sub-queue of the relaxed FIFO.
//!
//! One `parking_lot::Mutex` per shard caps scalability exactly where
//! choice-of-two relaxation is supposed to shine: under contention, a
//! preempted lock holder stalls every other thread on that shard. "Are
//! Lock-Free Concurrent Algorithms Practically Wait-Free?" (Alistarh,
//! Censor-Hillel, Shavit) argues lock-free designs behave wait-free
//! under realistic schedulers — a descheduled thread mid-operation costs
//! only its own progress. [`SegRingQueue`] is that design here; it
//! implements [`SubFifo`] so [`DCboQueue`](crate::fifo::DCboQueue)
//! composes it per shard.
//!
//! # [`SegRingQueue`] — segmented ring buffer
//!
//! A linked list of fixed-size segments ([`SEGMENT_CAP`] slots each).
//! Within a segment, `push` claims a slot with one `fetch_add` on the
//! segment's enqueue cursor and publishes it with one release store;
//! `pop` claims with a CAS on the dequeue cursor. A full segment is
//! *never reused in place*: the overflowing pusher links a successor
//! and swings the shared tail, so **pops never spin on a full
//! segment** — the only wait in the structure is a popper briefly
//! yielding to a claimed-but-not-yet-published slot's writer. Retired
//! segments come back through a bounded per-queue free list, but only
//! via an **epoch-deferred recycling callback** — after the grace
//! period, when no thread can still hold a pointer into them — so
//! steady-state churn runs with (amortized) zero allocator traffic and
//! cache-resident slots; within a segment's lifetime cursors only grow,
//! so there is no ABA.
//!
//! # Memory reclamation
//!
//! Segments are reclaimed through the epoch scheme in
//! [`crossbeam::epoch`] (the vendored stand-in): every operation pins
//! the thread, unlinked segments are deferred, and the allocation is
//! recycled or freed two epoch advances later, when no pinned thread
//! can still reach it. Values are moved out at pop time; a drained
//! segment destructs no element.
//!
//! # Choosing a backend
//!
//! * **[`SegRingQueue`]** (the default): slot claims are a
//!   single RMW on a cursor shared only by one side of the queue, and
//!   allocation is amortized. Use it whenever elements are `Send` and
//!   throughput matters.
//! * **[`MutexSub`](crate::fifo::MutexSub)**: the locked reference the
//!   generic tests and `fifo_contention` compare against, and the
//!   choice for single-threaded use, where an uncontended lock beats an
//!   epoch pin.

use crate::fifo::{SubFifo, TryPop};
use crate::telemetry;
use crossbeam::epoch::{self, Atomic, Owned, Pointer, Shared};
use crossbeam::utils::{Backoff, CachePadded};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Slots per [`SegRingQueue`] segment. Small enough that unit tests
/// cross segment boundaries constantly; large enough to amortize the
/// segment allocation across real workloads.
pub const SEGMENT_CAP: usize = 256;

// ---------------------------------------------------------------------
// Segmented ring queue
// ---------------------------------------------------------------------

struct Slot<T> {
    /// Set by the claiming pusher's release store once `value` is
    /// written; a popper's acquire load of `true` makes the value
    /// readable.
    published: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Segment<T> {
    /// Global position of slot 0 (successor segments get
    /// `base + SEGMENT_CAP`); lets [`SegRingQueue::len`] derive the live
    /// count from the two end cursors with no hot-path counters.
    base: u64,
    /// Next slot a pusher claims (grows past `SEGMENT_CAP` when the
    /// segment overflows; the excess is the signal to link a successor).
    enq: CachePadded<AtomicUsize>,
    /// Next slot a popper claims (claimed by CAS, so it never overshoots
    /// the published prefix and an empty pop loses no reservation).
    deq: CachePadded<AtomicUsize>,
    next: Atomic<Segment<T>>,
    /// Owned strong reference (via `Arc::into_raw`) to the queue's
    /// segment pool, so the grace-period recycling callback can find the
    /// pool from the segment alone. Null once the reference has been
    /// taken (pooled segments) or for segments that should just drop.
    /// Only mutated under exclusive (`Box`) ownership.
    pool: *const SegPool<T>,
    slots: [Slot<T>; SEGMENT_CAP],
}

impl<T> Segment<T> {
    fn new(base: u64) -> Self {
        Segment {
            base,
            enq: CachePadded::new(AtomicUsize::new(0)),
            deq: CachePadded::new(AtomicUsize::new(0)),
            next: Atomic::null(),
            pool: std::ptr::null(),
            slots: std::array::from_fn(|_| Slot {
                published: AtomicBool::new(false),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            }),
        }
    }

    /// Rewind a fully-drained (or never-published) pooled segment for
    /// reuse at `base`. The relaxed stores are published to other
    /// threads by the Release link CAS that re-inserts the segment into
    /// a queue.
    fn reset(&mut self, base: u64, pool: *const SegPool<T>) {
        debug_assert!(
            self.deq.load(Ordering::Relaxed) >= SEGMENT_CAP
                || self.enq.load(Ordering::Relaxed) == 0,
            "resetting a segment that still holds live elements"
        );
        self.base = base;
        self.enq.store(0, Ordering::Relaxed);
        self.deq.store(0, Ordering::Relaxed);
        self.next.store(Shared::null(), Ordering::Relaxed);
        self.pool = pool;
        for slot in &self.slots {
            slot.published.store(false, Ordering::Relaxed);
        }
    }

    /// Take the owned pool reference out of the segment, if any.
    fn take_pool(&mut self) -> Option<Arc<SegPool<T>>> {
        let ptr = std::mem::replace(&mut self.pool, std::ptr::null());
        // SAFETY: a non-null `pool` is an owned `Arc::into_raw` reference
        // installed at allocation time and taken at most once.
        (!ptr.is_null()).then(|| unsafe { Arc::from_raw(ptr) })
    }
}

impl<T> Drop for Segment<T> {
    fn drop(&mut self) {
        // Exclusive access: slots in [deq, min(enq, CAP)) that were
        // published still hold live elements (a fully drained segment has
        // deq == CAP and drops nothing).
        let deq = self.deq.load(Ordering::Relaxed).min(SEGMENT_CAP);
        let enq = self.enq.load(Ordering::Relaxed).min(SEGMENT_CAP);
        for slot in &self.slots[deq.min(enq)..enq] {
            if slot.published.load(Ordering::Relaxed) {
                // SAFETY: published and never claimed by a popper.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
        drop(self.take_pool());
    }
}

/// How many retired segments a queue keeps for reuse. Beyond this the
/// recycling callback lets the segment drop — the pool bounds memory,
/// it does not hoard it.
const POOL_CAP: usize = 8;

/// Per-queue free list of retired segments (ROADMAP follow-up from
/// PR 2): a retired segment reaches the pool through an **epoch-deferred
/// callback** — i.e. only after every thread that could still hold a
/// pointer into it has unpinned — so reuse carries exactly the ABA
/// protection `defer_destroy` gave outright destruction. The allocating
/// path `try_lock`s the pool (falling back to a fresh allocation on
/// contention, preserving lock-freedom) and rewinds the segment, cutting
/// allocator traffic and keeping slot memory cache-resident under churn.
struct SegPool<T> {
    stack: Mutex<Vec<Box<Segment<T>>>>,
    /// Segments handed back for reuse (monotone; for tests/benchmarks).
    recycled: AtomicU64,
    /// Segments taken from the pool instead of the allocator.
    reused: AtomicU64,
}

// SAFETY: the raw back-pointers inside pooled segments are only
// dereferenced by the single owner of the containing Box; everything
// else behind the mutex/atomics is ordinary Send data (for T: Send).
unsafe impl<T: Send> Send for SegPool<T> {}
unsafe impl<T: Send> Sync for SegPool<T> {}

impl<T> SegPool<T> {
    fn new() -> Arc<Self> {
        Arc::new(SegPool {
            stack: Mutex::new(Vec::new()),
            recycled: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }
}

/// Grace-period callback: hand a retired segment back to its queue's
/// pool (or drop it if the pool is full or gone).
///
/// # Safety
///
/// `ptr` must be a retired, fully-claimed `Segment<T>` allocated via
/// `Box`, unreachable from any queue, past its grace period, and not
/// recycled twice.
unsafe fn recycle_segment<T>(ptr: *mut u8) {
    // SAFETY: per contract, we own the segment exclusively now.
    let mut seg = unsafe { Box::from_raw(ptr.cast::<Segment<T>>()) };
    let Some(pool) = seg.take_pool() else {
        return; // no pool: plain deferred destruction
    };
    let mut stack = pool.stack.lock();
    if stack.len() < POOL_CAP {
        stack.push(seg);
        pool.recycled.fetch_add(1, Ordering::Relaxed);
    }
    // else: drop `seg` (it is fully drained; only memory is released).
}

/// A segment positioned at `base`: reused from `pool` when one is
/// available and the pool lock is free, freshly allocated otherwise
/// (`try_lock`, so the push path never blocks on the pool).
fn alloc_pooled_segment<T>(pool: &Arc<SegPool<T>>, base: u64) -> Owned<Segment<T>> {
    let pooled = pool.stack.try_lock().and_then(|mut s| s.pop());
    let raw = match pooled {
        Some(mut seg) => {
            pool.reused.fetch_add(1, Ordering::Relaxed);
            seg.reset(base, Arc::into_raw(Arc::clone(pool)));
            Box::into_raw(seg)
        }
        None => {
            let mut seg = Box::new(Segment::new(base));
            seg.pool = Arc::into_raw(Arc::clone(pool));
            Box::into_raw(seg)
        }
    };
    // SAFETY: `raw` came from `Box::into_raw` and ownership moves into
    // the returned `Owned`.
    unsafe { Owned::from_raw(raw) }
}

/// Give back a segment that was allocated (possibly from the pool) but
/// never published — the loser of a tail-link race. An unpublished
/// segment was never reachable, so it needs no grace period to be
/// pooled again.
fn return_unpublished_segment<T>(pool: &SegPool<T>, seg: Owned<Segment<T>>) {
    // SAFETY: an `Owned` is exclusively ours; recover the `Box`.
    let mut boxed = unsafe { Box::from_raw(seg.into_raw()) };
    drop(boxed.take_pool());
    // `try_lock`, like the allocation path: blocking here would
    // reintroduce the preempted-holder convoy on `push`. On contention
    // the unpublished segment simply drops.
    if let Some(mut stack) = pool.stack.try_lock() {
        if stack.len() < POOL_CAP {
            stack.push(boxed);
            pool.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Lock-free segmented ring-buffer FIFO.
///
/// Bounded segments are linked lock-free: a full segment is abandoned to
/// its poppers and a fresh one appended, so pushes never wait for pops
/// and pops never spin on a full segment.
///
/// # Examples
///
/// ```
/// use rsched_queues::lockfree::{SegRingQueue, SEGMENT_CAP};
///
/// let q = SegRingQueue::new();
/// for i in 0..3 * SEGMENT_CAP {
///     q.push(i);
/// }
/// for i in 0..3 * SEGMENT_CAP {
///     assert_eq!(q.pop(), Some(i));
/// }
/// assert_eq!(q.pop(), None);
/// ```
pub struct SegRingQueue<T> {
    head: CachePadded<Atomic<Segment<T>>>,
    tail: CachePadded<Atomic<Segment<T>>>,
    pool: Arc<SegPool<T>>,
}

// SAFETY: slot values are accessed by at most one thread at a time (the
// claiming pusher before the release store, the unique claiming popper
// after its CAS); cursors and states are atomics.
unsafe impl<T: Send> Send for SegRingQueue<T> {}
unsafe impl<T: Send> Sync for SegRingQueue<T> {}

impl<T> Default for SegRingQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SegRingQueue<T> {
    /// An empty queue (allocates the first segment and its reuse pool).
    pub fn new() -> Self {
        let pool = SegPool::new();
        let mut seg = Box::new(Segment::new(0));
        seg.pool = Arc::into_raw(Arc::clone(&pool));
        let first = Box::into_raw(seg);
        SegRingQueue {
            head: CachePadded::new(Atomic::from_raw(first)),
            tail: CachePadded::new(Atomic::from_raw(first)),
            pool,
        }
    }

    /// `(recycled, reused)` segment counts of the per-queue free list —
    /// how many retired segments entered the pool and how many
    /// allocations it absorbed. For tests and benchmarks.
    pub fn segment_reuse_stats(&self) -> (u64, u64) {
        (
            self.pool.recycled.load(Ordering::Relaxed),
            self.pool.reused.load(Ordering::Relaxed),
        )
    }

    /// Tail push position minus head pop position, derived from the end
    /// segments' base offsets and cursors — exact when quiescent, an
    /// approximation mid-flight, and free of hot-path counters.
    pub fn len(&self) -> usize {
        let guard = epoch::pin();
        let tail = self.tail.load(Ordering::Acquire, &guard);
        let head = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: both ends are never null and protected by the guard.
        let (t, h) = unsafe { (tail.deref(), head.deref()) };
        let push_pos = t.base + t.enq.load(Ordering::Acquire).min(SEGMENT_CAP) as u64;
        let pop_pos = h.base + h.deq.load(Ordering::Acquire).min(SEGMENT_CAP) as u64;
        push_pos.saturating_sub(pop_pos) as usize
    }

    /// `true` if [`len`](Self::len) is zero (a hint under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `value`.
    pub fn push(&self, value: T) {
        self.push_with(value, &epoch::pin());
    }

    /// [`push`](Self::push) under a caller-held pin.
    pub fn push_with(&self, value: T, guard: &epoch::Guard) {
        loop {
            let tail = self.tail.load(Ordering::Acquire, guard);
            // SAFETY: tail is never null and is protected by the guard.
            let t = unsafe { tail.deref() };
            let i = t.enq.fetch_add(1, Ordering::SeqCst);
            if i < SEGMENT_CAP {
                let slot = &t.slots[i];
                // SAFETY: the fetch_add claimed slot `i` exclusively for
                // this pusher; nothing reads it until the release store.
                unsafe {
                    (*slot.value.get()).write(value);
                }
                slot.published.store(true, Ordering::Release);
                return;
            }
            // Segment full: link a successor (or help whoever did), swing
            // the tail, and retry there.
            let next = t.next.load(Ordering::Acquire, guard);
            if !next.is_null() {
                let _ = self.tail.compare_exchange(
                    tail,
                    next,
                    Ordering::Release,
                    Ordering::Relaxed,
                    guard,
                );
                continue;
            }
            match t.next.compare_exchange(
                Shared::null(),
                alloc_pooled_segment(&self.pool, t.base + SEGMENT_CAP as u64),
                Ordering::Release,
                Ordering::Relaxed,
                guard,
            ) {
                Ok(linked) => {
                    let _ = self.tail.compare_exchange(
                        tail,
                        linked,
                        Ordering::Release,
                        Ordering::Relaxed,
                        guard,
                    );
                }
                Err(lost) => {
                    // Another pusher linked first; its segment wins and
                    // ours — never published — goes straight back to
                    // the pool instead of paying the allocator
                    // round-trip this race makes most frequent.
                    let _ = self.tail.compare_exchange(
                        tail,
                        lost.current,
                        Ordering::Release,
                        Ordering::Relaxed,
                        guard,
                    );
                    return_unpublished_segment(&self.pool, lost.new);
                }
            }
        }
    }

    /// Remove the head element.
    pub fn pop(&self) -> Option<T> {
        self.pop_with(&epoch::pin())
    }

    /// [`pop`](Self::pop) under a caller-held pin.
    pub fn pop_with(&self, guard: &epoch::Guard) -> Option<T> {
        let mut retries = 0u64;
        'segment: loop {
            let head = self.head.load(Ordering::Acquire, guard);
            // SAFETY: head is never null and is protected by the guard.
            let h = unsafe { head.deref() };
            loop {
                let d = h.deq.load(Ordering::SeqCst);
                if d >= SEGMENT_CAP {
                    // Segment fully claimed: retire it and move on.
                    let next = h.next.load(Ordering::Acquire, guard);
                    if next.is_null() {
                        return None;
                    }
                    // Push the tail past the dying segment first so no
                    // future pusher can load a reclaimed pointer from it.
                    let tail = self.tail.load(Ordering::Acquire, guard);
                    if tail.as_raw() == head.as_raw() {
                        let _ = self.tail.compare_exchange(
                            tail,
                            next,
                            Ordering::Release,
                            Ordering::Relaxed,
                            guard,
                        );
                    }
                    if self
                        .head
                        .compare_exchange(head, next, Ordering::Release, Ordering::Relaxed, guard)
                        .is_ok()
                    {
                        // SAFETY: the segment is unlinked and all its
                        // slots were claimed; in-flight claimants hold
                        // epoch guards, so the recycling callback runs
                        // only after the grace period (reuse is then as
                        // safe as destruction was).
                        unsafe {
                            guard.defer_with_raw(head.as_raw() as *mut u8, recycle_segment::<T>)
                        };
                    }
                    continue 'segment;
                }
                let slot = &h.slots[d];
                if slot.published.load(Ordering::Acquire) {
                    // Fast path: the head slot is already published, so a
                    // successful claim needs no cursor comparison and no
                    // publication wait.
                    if h.deq
                        .compare_exchange(d, d + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        // SAFETY: the deq CAS claimed slot `d` exclusively
                        // and the acquire load above saw the publication.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        telemetry::record(telemetry::OpHist::Retry, retries);
                        return Some(value);
                    }
                    retries += 1;
                    continue;
                }
                let e = h.enq.load(Ordering::SeqCst).min(SEGMENT_CAP);
                if d >= e {
                    // Nothing published here right now. A non-null next
                    // pointer proves the segment overflowed, so re-read
                    // the cursor; otherwise report empty (a hint — the
                    // callers own termination detection).
                    let next = h.next.load(Ordering::Acquire, guard);
                    if next.is_null() {
                        return None;
                    }
                    continue;
                }
                if h.deq
                    .compare_exchange(d, d + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // The claiming pusher has not published yet; yield to
                    // it briefly (never on a *full* segment — full
                    // segments are left behind, not waited on). The claim
                    // is already consumed, so the wait cannot abandon —
                    // but it is *bounded* per round (backoff saturates to
                    // plain yields) and every round is counted under the
                    // Sweep series so the tail gate sees a pop that paid
                    // for losing the publish race.
                    let backoff = Backoff::new();
                    let mut rounds = 0u64;
                    while !slot.published.load(Ordering::Acquire) {
                        if backoff.is_completed() {
                            std::thread::yield_now();
                        } else {
                            backoff.snooze();
                        }
                        rounds += 1;
                    }
                    if rounds > 0 {
                        telemetry::record(telemetry::OpHist::Sweep, rounds);
                    }
                    // SAFETY: the deq CAS claimed slot `d` exclusively
                    // and the acquire load above saw the publication.
                    let value = unsafe { (*slot.value.get()).assume_init_read() };
                    telemetry::record(telemetry::OpHist::Retry, retries);
                    return Some(value);
                }
                retries += 1;
            }
        }
    }
}

impl<T> Drop for SegRingQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the raw segment chain; each segment's
        // own Drop releases its unconsumed elements.
        let mut seg = self.head.load_raw();
        while !seg.is_null() {
            // SAFETY: segments reachable from head at drop time are owned
            // by the queue; each is freed exactly once.
            let boxed = unsafe { Box::from_raw(seg) };
            seg = boxed.next.load_raw();
        }
    }
}

impl<T> std::fmt::Debug for SegRingQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegRingQueue")
            .field("len", &self.len())
            .finish()
    }
}

impl<T: Send> SubFifo<T> for SegRingQueue<T> {
    const NEEDS_EPOCH: bool = true;

    type Token = epoch::Guard;

    fn token() -> epoch::Guard {
        epoch::pin()
    }

    fn borrow_token(session: &crate::fifo::PinSession) -> crate::fifo::TokRef<'_, epoch::Guard> {
        match session.guard() {
            Some(g) => crate::fifo::TokRef::Borrowed(g),
            None => crate::fifo::TokRef::Owned(epoch::pin()),
        }
    }

    fn new() -> Self {
        SegRingQueue::new()
    }

    fn push(&self, item: T, tok: &epoch::Guard) {
        self.push_with(item, tok);
    }

    fn try_pop(&self, tok: &epoch::Guard) -> TryPop<T> {
        match self.pop_with(tok) {
            Some(item) => TryPop::Item(item),
            None => TryPop::Empty,
        }
    }

    fn pop_wait(&self, tok: &epoch::Guard) -> Option<T> {
        self.pop_with(tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Iteration multiplier for the heavy tests; `RSCHED_STRESS=1` (or a
    /// number) raises it in the CI stress job.
    fn stress_mult() -> usize {
        match std::env::var("RSCHED_STRESS").as_deref() {
            Ok("0") | Err(_) => 1,
            Ok(v) => v.parse::<usize>().unwrap_or(1).clamp(1, 64) * 4,
        }
    }

    #[test]
    fn segring_exact_fifo_across_segment_boundaries() {
        let q = SegRingQueue::new();
        let n = 5 * SEGMENT_CAP + 3;
        for i in 0..n {
            q.push(i);
        }
        assert_eq!(q.len(), n);
        for i in 0..n {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn segring_wraparound_mixed_ops_at_boundaries() {
        // Alternate fill/drain patterns sized to land exactly on, one
        // short of, and one past the segment boundary.
        let q = SegRingQueue::new();
        let mut next = 0u64;
        let mut expect = 0u64;
        for delta in [
            SEGMENT_CAP,
            SEGMENT_CAP - 1,
            SEGMENT_CAP + 1,
            2 * SEGMENT_CAP,
            1,
            3,
        ] {
            for _ in 0..delta {
                q.push(next);
                next += 1;
            }
            for _ in 0..delta {
                assert_eq!(q.pop(), Some(expect));
                expect += 1;
            }
            // Empty pop at a segment boundary must not lose a slot
            // reservation: the next push must still come out.
            assert_eq!(q.pop(), None);
        }
        assert_eq!(next, expect);
        q.push(next);
        assert_eq!(q.pop(), Some(next));
    }

    #[test]
    fn empty_pop_then_push_recovers() {
        let q = SegRingQueue::new();
        for round in 0..3 * SEGMENT_CAP {
            assert_eq!(q.pop(), None);
            q.push(round);
            assert_eq!(q.pop(), Some(round));
        }
    }

    fn conservation_storm<Q: SubFifo<usize> + 'static>(q: Arc<Q>, threads: usize, per: usize) {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let tok = Q::token();
                    for i in 0..per {
                        let v = t * per + i;
                        q.push(v, &tok);
                        if i % 3 == 0 {
                            if let TryPop::Item(v) = q.try_pop(&tok) {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "duplicate pop of {v}");
            }
        }
        let tok = Q::token();
        while let Some(v) = q.pop_wait(&tok) {
            assert!(seen.insert(v), "duplicate pop of {v}");
        }
        assert_eq!(seen.len(), threads * per, "elements lost");
    }

    #[test]
    fn segring_multithread_conservation() {
        conservation_storm(Arc::new(SegRingQueue::new()), 8, 5_000 * stress_mult());
    }

    #[test]
    fn segring_recycles_retired_segments() {
        // Churn enough segments single-threadedly that the epoch
        // collector runs (every COLLECT_EVERY deferrals) and the pool
        // starts absorbing allocations.
        let q: SegRingQueue<u64> = SegRingQueue::new();
        let segments = 300u64; // > 64 deferrals, forcing collections
        let churn = |from: u64, to: u64| {
            for i in from * SEGMENT_CAP as u64..to * SEGMENT_CAP as u64 {
                q.push(i);
                assert_eq!(q.pop(), Some(i));
            }
        };
        churn(0, segments);
        // The epoch is process-global: another test's pinned thread can
        // hold collection back. Keep churning (every retired segment is
        // a deferral, and deferrals drive collection) and yield to it
        // until the pool has absorbed an allocation or the deadline.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut next = segments;
        while q.segment_reuse_stats().1 == 0 && std::time::Instant::now() < deadline {
            churn(next, next + 1);
            next += 1;
            std::thread::yield_now();
        }
        let (recycled, reused) = q.segment_reuse_stats();
        assert!(
            recycled > 0,
            "no retired segment ever reached the pool over {segments} segments"
        );
        assert!(
            reused > 0,
            "the pool absorbed no allocation ({recycled} recycled)"
        );
        // Reused segments must still deliver exact FIFO.
        let n = 3 * SEGMENT_CAP as u64;
        for i in 0..n {
            q.push(i * 7);
        }
        for i in 0..n {
            assert_eq!(q.pop(), Some(i * 7));
        }
    }

    #[test]
    fn segring_pool_conserves_elements_under_contention() {
        // Multithreaded churn across many segment boundaries with the
        // pool active: conservation must hold and stats stay coherent.
        let q: Arc<SegRingQueue<usize>> = Arc::new(SegRingQueue::new());
        conservation_storm(Arc::clone(&q), 8, 3 * SEGMENT_CAP * stress_mult());
        let (recycled, reused) = q.segment_reuse_stats();
        assert!(reused <= recycled + POOL_CAP as u64);
    }

    #[test]
    fn drop_releases_every_remaining_element() {
        struct Counted(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let n = 2 * SEGMENT_CAP + 7;
        let q = SegRingQueue::new();
        for _ in 0..n {
            q.push(Counted(Arc::clone(&drops)));
        }
        for _ in 0..10 {
            drop(q.pop());
        }
        drop(q);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            n,
            "queue leaked elements on drop"
        );
    }
}
