//! Priority shard backends for the concurrent MultiQueue.
//!
//! [`ConcurrentMultiQueue`](crate::multiqueue::ConcurrentMultiQueue) is
//! `q` independent priority queues ("shards") composed by the choice-of-
//! two rule. PR 2 made the *FIFO* family's shards pluggable and
//! lock-free ([`SubFifo`](crate::fifo::SubFifo)); this module does the
//! same for the *priority* shards, which is harder: a priority shard
//! needs an **ordered** structure with `decrease_key`, not a queue.
//!
//! # [`SubPriority`] — the shard-backend trait
//!
//! The per-shard contract mirrors `SubFifo`: a protection token threaded
//! through every sub-call (an epoch guard for lock-free backends,
//! zero-sized for locked ones, borrowable from an amortized
//! [`PinSession`]), plus the operations the MultiQueue composes:
//! [`min_key`](SubPriority::min_key) (a **racy-safe peek** of the shard
//! minimum — the choice-of-two comparison), [`try_pop_min`] /
//! [`pop_min_wait`] (claim the minimum),
//! [`push_or_decrease`](SubPriority::push_or_decrease) (the merge-insert
//! the paper's SSSP needs), and `remove` / `decrease_key` /
//! `contains` / `priority_of` keyed lookups.
//!
//! # [`SkipShard`] — epoch-reclaimed lock-free skiplist (the default)
//!
//! A Harris-style skiplist over keys `(priority, item, stamp)` with the
//! deletion mark in the tag bit of each node's `next` pointers
//! (mark top-down, the level-0 mark is the claim that transfers
//! ownership), physical unlinking by every traversal, and reclamation
//! through [`crossbeam::epoch`]. On top of the list sits a lock-free
//! **item registry** (a growable segmented array of atomic node
//! pointers) giving `O(1)` item → node lookups, so `decrease_key` is
//! insert-new + claim-old with a registry CAS deciding races against
//! concurrent pops of the same item.
//!
//! The shard is entirely mutex-free: `min_key` walks the bottom level
//! skipping claimed nodes (node fields are immutable after publication,
//! so the racy peek is sound), and `pop_min` claims with a single CAS on
//! the head node's mark bit. A preempted thread mid-operation costs only
//! its own progress — the "practically wait-free" behaviour that
//! motivates the whole exercise (Alistarh, Censor-Hillel, Shavit).
//!
//! ## Conservation accounting
//!
//! `push_or_decrease` returns `true` when a **net-new element** entered
//! the shard, in the counting sense the runtime's quiescence detector
//! needs: over any quiescent interval, the number of `true` returns
//! equals the number of elements pops will deliver. Under a race between
//! a decrease and a concurrent pop of the same item, the old node may
//! already have been claimed by the popper; the decrease then inserts
//! its replacement and reports `true` (two pops will happen for the two
//! nodes — the stale one surfaces exactly like a stale SSSP distance,
//! which every caller of a *relaxed* queue must tolerate anyway).
//!
//! # [`MutexHeapSub`] — the locked shard
//!
//! One `parking_lot::Mutex` around an [`IndexedBinaryHeap`] — the
//! paper's try-locked sequential heap. With threads ≤ cores an
//! uncontended lock beats an epoch pin plus a skiplist walk, so
//! `parallel_sssp` runs on it; it overrides the two batched operations
//! ([`try_pop_many`](SubPriority::try_pop_many),
//! [`push_or_decrease_many`](SubPriority::push_or_decrease_many)) to
//! serve a whole batch per acquisition. `mq_contention` sweeps both
//! backends.
//!
//! [`try_pop_min`]: SubPriority::try_pop_min
//! [`pop_min_wait`]: SubPriority::pop_min_wait

use crate::fifo::{PinSession, TokRef};
use crate::heap::IndexedBinaryHeap;
use crate::telemetry;
use crate::{DecreaseKey, PriorityQueue};
use crossbeam::epoch::{self, Atomic, Owned, Pointer, Shared};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tallest skiplist tower. Towers grow with branching factor 4
/// (`P(height > k) = 4^-k`, Fraser's fast configuration: shorter towers
/// mean fewer link/mark CASes per operation at slightly longer per-level
/// walks), so 8 levels cover shards of ~4⁷ ≈ 16k elements with a
/// constant-length top-level walk beyond that. Towers are inlined in the
/// node at this length: one allocation, one cache-friendly pointer hop
/// per level — no `Vec` indirection on the hot walk.
pub const MAX_HEIGHT: usize = 8;

/// The Harris deletion mark, stored in the tag bit of `next` pointers.
const MARK: usize = 1;

/// Result of a non-blocking delete-min attempt on a [`SubPriority`].
#[derive(Debug)]
pub enum TryPopMin<P> {
    /// Claimed the shard's minimum `(item, priority)`.
    Item((usize, P)),
    /// The shard was observed empty (a hint under concurrency).
    Empty,
    /// The shard is temporarily unavailable (a locked backend's mutex is
    /// held). Lock-free backends never report this.
    Contended,
}

/// One concurrent priority shard of a MultiQueue.
///
/// Items are dense `usize` ids, each present at most once per shard
/// (keyed placement hashes every id to one shard, so all operations on
/// an item meet in the same shard). Priorities are `Ord + Copy`; ties
/// break by item id, matching the workspace-wide deterministic order.
pub trait SubPriority<P: Ord + Copy>: Send + Sync {
    /// `true` when operations pin the epoch-reclamation scheme; lets the
    /// enclosing queue and the runtime know a [`PinSession`] is useful.
    const NEEDS_EPOCH: bool = false;

    /// Per-operation protection token (epoch guard or zero-sized); the
    /// composing queue creates **one** per MultiQueue operation and
    /// threads it through every peek and claim.
    type Token;

    /// Produce a token for one composed operation.
    fn token() -> Self::Token;

    /// Borrow the token from a live [`PinSession`] when possible.
    fn borrow_token(session: &PinSession) -> TokRef<'_, Self::Token>;

    /// An empty shard.
    fn new() -> Self;

    /// An empty shard pre-sized for items `0..universe`.
    fn with_universe(universe: usize) -> Self;

    /// Racy-safe peek of the shard minimum as `(priority, item)` —
    /// `None` when empty or (for locked backends) contended. The
    /// returned pair may be stale by the time the caller acts on it;
    /// that slack is part of the MultiQueue's relaxation budget.
    fn min_key(&self, tok: &Self::Token) -> Option<(P, usize)>;

    /// Non-blocking delete-min; never waits for another thread.
    fn try_pop_min(&self, tok: &Self::Token) -> TryPopMin<P>;

    /// One choice-of-two attempt over a pair of shards: compare the two
    /// minima, claim the smaller. The default composes the racy
    /// [`min_key`](Self::min_key) peeks with
    /// [`try_pop_min`](Self::try_pop_min) — no lock anywhere for
    /// lock-free backends; locked backends may override it to hold both
    /// locks across compare-and-pop (the pre-PR 3 MultiQueue protocol,
    /// which also guarantees the popped element *is* the peeked one).
    /// `second` is `None` when both samples hit the same shard. Callers
    /// must pass the pair in a globally consistent order (the enclosing
    /// queue uses ascending shard index) so lock-holding overrides
    /// cannot deadlock.
    fn try_pop_pair(first: &Self, second: Option<&Self>, tok: &Self::Token) -> TryPopMin<P> {
        let ka = first.min_key(tok);
        let kb = second.and_then(|s| s.min_key(tok));
        let pick = match (ka, kb) {
            (None, None) => return TryPopMin::Empty,
            (Some(_), None) => first,
            (None, Some(_)) => second.expect("a second minimum implies a second shard"),
            // min_key returns (prio, item): tuple order is the
            // workspace-wide (priority, id) tie-break.
            (Some(x), Some(y)) => {
                if x <= y {
                    first
                } else {
                    second.expect("a second minimum implies a second shard")
                }
            }
        };
        // The claimed element may differ from the peeked one if the
        // shard moved meanwhile — relaxation slack, not an error.
        pick.try_pop_min(tok)
    }

    /// Batched [`try_pop_min`](Self::try_pop_min): claim the minimum and
    /// append up to `extra` successors, in ascending order, to `out` —
    /// the refill of a session's deletion buffer. Locked backends
    /// override this to take all of them under one acquisition; the
    /// default claims one at a time and stops at the first miss.
    fn try_pop_many(
        &self,
        extra: usize,
        out: &mut Vec<(usize, P)>,
        tok: &Self::Token,
    ) -> TryPopMin<P> {
        let first = self.try_pop_min(tok);
        if matches!(first, TryPopMin::Item(_)) {
            for _ in 0..extra {
                match self.try_pop_min(tok) {
                    TryPopMin::Item(e) => out.push(e),
                    TryPopMin::Empty | TryPopMin::Contended => break,
                }
            }
        }
        first
    }

    /// Delete-min, waiting on a lock if the backend has one (lock-free
    /// backends are identical to [`try_pop_min`](Self::try_pop_min)).
    fn pop_min_wait(&self, tok: &Self::Token) -> Option<(usize, P)>;

    /// Insert `item`, or lower its priority if queued with a larger one.
    /// Returns `true` iff a net-new element entered the shard (the
    /// count the enclosing queue's `len` and the runtime's termination
    /// detector track).
    fn push_or_decrease(&self, item: usize, prio: P, tok: &Self::Token) -> bool;

    /// Batched [`push_or_decrease`](Self::push_or_decrease) over
    /// `entries`, all of which hash to this shard — one group of a
    /// session's spawn-buffer flush. Returns how many were net-new.
    /// Locked backends override this to publish the group under one
    /// acquisition.
    fn push_or_decrease_many(&self, entries: &[(usize, P)], tok: &Self::Token) -> usize {
        entries
            .iter()
            .filter(|&&(item, prio)| self.push_or_decrease(item, prio, tok))
            .count()
    }

    /// Unconditional insert (used by the duplicate-insertion ablation;
    /// the keyed lookups then track only one instance of the item).
    fn push(&self, item: usize, prio: P, tok: &Self::Token);

    /// Remove `item`, returning its priority. Under a race with a
    /// concurrent pop of the same item the popper wins and `None` is
    /// returned.
    fn remove(&self, item: usize, tok: &Self::Token) -> Option<P>;

    /// Strictly lower `item`'s priority to `prio`. Returns `false` if
    /// the item is absent or already at a priority `<= prio`.
    ///
    /// **Accounting caveat:** under a race with a concurrent pop of the
    /// same item, a lock-free backend may realize the decrease as
    /// remove-and-reinsert whose reinsertion is net-new in the counting
    /// sense — information this method's return value does not carry.
    /// Composers that maintain element counts (as
    /// `ConcurrentMultiQueue::len` and the runtime's termination
    /// detector do) must route updates through
    /// [`push_or_decrease`](Self::push_or_decrease), whose return value
    /// is the counting signal; `decrease_key` is for callers that only
    /// need the priority effect.
    fn decrease_key(&self, item: usize, prio: P, tok: &Self::Token) -> bool;

    /// `true` if `item` is currently queued.
    fn contains(&self, item: usize, tok: &Self::Token) -> bool;

    /// The queued priority of `item`, if present.
    fn priority_of(&self, item: usize, tok: &Self::Token) -> Option<P>;
}

// ---------------------------------------------------------------------
// Mutex + indexed-binary-heap baseline
// ---------------------------------------------------------------------

/// The locked shard: a mutex around an [`IndexedBinaryHeap`].
#[derive(Debug)]
pub struct MutexHeapSub<P> {
    heap: Mutex<IndexedBinaryHeap<P>>,
}

impl<P: Ord + Copy> Default for MutexHeapSub<P> {
    fn default() -> Self {
        Self {
            heap: Mutex::new(IndexedBinaryHeap::new()),
        }
    }
}

/// Merge-insert into a held heap; `true` iff `item` was net-new.
#[inline]
fn heap_push_or_decrease<P: Ord + Copy>(
    heap: &mut IndexedBinaryHeap<P>,
    item: usize,
    prio: P,
) -> bool {
    if heap.contains(item) {
        heap.decrease_key(item, prio);
        false
    } else {
        heap.push(item, prio);
        true
    }
}

impl<P: Ord + Copy + Send> SubPriority<P> for MutexHeapSub<P> {
    type Token = ();

    fn token() {}

    fn borrow_token(_session: &PinSession) -> TokRef<'_, ()> {
        TokRef::Owned(())
    }

    fn new() -> Self {
        MutexHeapSub {
            heap: Mutex::new(IndexedBinaryHeap::new()),
        }
    }

    fn with_universe(universe: usize) -> Self {
        MutexHeapSub {
            heap: Mutex::new(IndexedBinaryHeap::with_universe(universe)),
        }
    }

    fn min_key(&self, _tok: &()) -> Option<(P, usize)> {
        self.heap.try_lock().and_then(|h| h.min_entry())
    }

    fn try_pop_min(&self, _tok: &()) -> TryPopMin<P> {
        match self.heap.try_lock() {
            None => TryPopMin::Contended,
            Some(mut h) => match h.pop() {
                Some(pair) => TryPopMin::Item(pair),
                None => TryPopMin::Empty,
            },
        }
    }

    fn try_pop_many(&self, extra: usize, out: &mut Vec<(usize, P)>, _tok: &()) -> TryPopMin<P> {
        let Some(mut h) = self.heap.try_lock() else {
            return TryPopMin::Contended;
        };
        let Some(first) = h.pop() else {
            return TryPopMin::Empty;
        };
        out.extend((0..extra).map_while(|_| h.pop()));
        TryPopMin::Item(first)
    }

    fn pop_min_wait(&self, _tok: &()) -> Option<(usize, P)> {
        self.heap.lock().pop()
    }

    /// The pre-PR 3 two-choice protocol verbatim: try-lock both shards
    /// (callers pass them in ascending index order), compare the tops
    /// under the held locks, and pop the smaller one — the popped
    /// element is exactly the compared minimum.
    fn try_pop_pair(first: &Self, second: Option<&Self>, _tok: &()) -> TryPopMin<P> {
        let Some(ha) = first.heap.try_lock() else {
            return TryPopMin::Contended;
        };
        let hb = match second {
            Some(s) => match s.heap.try_lock() {
                Some(h) => Some(h),
                None => return TryPopMin::Contended,
            },
            None => None,
        };
        let ta = ha.peek();
        let tb = hb.as_ref().and_then(|h| h.peek());
        let use_first = match (ta, tb) {
            (None, None) => return TryPopMin::Empty,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((ia, pa)), Some((ib, pb))) => (pa, ia) <= (pb, ib),
        };
        let popped = if use_first {
            let mut ha = ha;
            drop(hb);
            ha.pop()
        } else {
            drop(ha);
            hb.expect("second lock held").pop()
        };
        TryPopMin::Item(popped.expect("peeked entry vanished under lock"))
    }

    fn push_or_decrease(&self, item: usize, prio: P, _tok: &()) -> bool {
        heap_push_or_decrease(&mut self.heap.lock(), item, prio)
    }

    fn push_or_decrease_many(&self, entries: &[(usize, P)], _tok: &()) -> usize {
        let mut heap = self.heap.lock();
        entries
            .iter()
            .filter(|&&(item, prio)| heap_push_or_decrease(&mut heap, item, prio))
            .count()
    }

    fn push(&self, item: usize, prio: P, _tok: &()) {
        self.heap.lock().push(item, prio);
    }

    fn remove(&self, item: usize, _tok: &()) -> Option<P> {
        self.heap.lock().remove(item)
    }

    fn decrease_key(&self, item: usize, prio: P, _tok: &()) -> bool {
        self.heap.lock().decrease_key(item, prio)
    }

    fn contains(&self, item: usize, _tok: &()) -> bool {
        self.heap.lock().contains(item)
    }

    fn priority_of(&self, item: usize, _tok: &()) -> Option<P> {
        self.heap.lock().priority_of(item)
    }
}

// ---------------------------------------------------------------------
// Lock-free skiplist shard
// ---------------------------------------------------------------------

/// One skiplist node. Every payload field is written once, before the
/// publishing CAS, and never mutated — racy peeks only ever read
/// immutable data. Deletion state lives in the tag bits of `next`.
struct Node<P> {
    prio: P,
    item: usize,
    /// Unique per-shard insertion stamp: breaks `(prio, item)` ties
    /// between physical nodes when an item is re-inserted by
    /// `decrease_key`, so every key in the list is distinct.
    stamp: u64,
    height: usize,
    /// Owned strong reference (via `Arc::into_raw`) to the shard's node
    /// pool, taken by the recycling callback; null once taken (pooled
    /// nodes). Only mutated under exclusive ownership.
    pool: *const NodePool<P>,
    /// Inline tower; only `next[l]` for `l < height` is linked (reused
    /// nodes keep stale bits above their height — never read). Tag
    /// [`MARK`] on `next[l]` means this node is deleted at level `l`
    /// (level 0 = logically deleted, and winning that mark CAS claims
    /// the node).
    next: [Atomic<Node<P>>; MAX_HEIGHT],
}

impl<P> Drop for Node<P> {
    fn drop(&mut self) {
        let pool = std::mem::replace(&mut self.pool, std::ptr::null());
        if !pool.is_null() {
            // SAFETY: a non-null `pool` is an owned Arc reference.
            drop(unsafe { Arc::from_raw(pool) });
        }
    }
}

impl<P: Copy> Node<P> {
    #[inline]
    fn key(&self) -> (P, usize, u64) {
        (self.prio, self.item, self.stamp)
    }
}

/// splitmix64 — used to derive tower heights from insertion stamps.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Registry segment 0 size (log2). Segment `k` holds `1024 << k` slots,
/// so 40-odd spine entries cover any conceivable item universe while an
/// empty shard allocates nothing.
const REG_BASE_BITS: u32 = 10;
/// Spine length of the registry.
const REG_SPINE: usize = 44;

/// One registry segment: a fixed slab of item → node slots.
struct RegSeg<P> {
    slots: Box<[Atomic<Node<P>>]>,
}

/// Lock-free growable item → node index: a fixed spine of
/// doubling-sized segments, each installed at most once by CAS. Slots
/// hold the item's current live node (or null); all mutations are CAS,
/// and readers validate the node's claim mark, so a stale slot is
/// indistinguishable from an absent item.
struct Registry<P> {
    spine: Box<[Atomic<RegSeg<P>>]>,
}

/// `(segment index, offset, segment length)` of `item`'s slot.
#[inline]
fn reg_locate(item: usize) -> (usize, usize, usize) {
    let v = (item >> REG_BASE_BITS) + 1;
    let k = (usize::BITS - 1 - v.leading_zeros()) as usize;
    let start = ((1usize << k) - 1) << REG_BASE_BITS;
    (k, item - start, 1usize << (k as u32 + REG_BASE_BITS))
}

impl<P> Registry<P> {
    fn new() -> Self {
        Registry {
            spine: (0..REG_SPINE).map(|_| Atomic::null()).collect(),
        }
    }

    /// The slot for `item` if its segment exists.
    fn get<'g>(&self, item: usize, guard: &'g epoch::Guard) -> Option<&'g Atomic<Node<P>>> {
        let (k, off, _) = reg_locate(item);
        let seg = self.spine[k].load(Ordering::Acquire, guard);
        // SAFETY: segments are installed once and never freed before the
        // shard drops; the guard outlives this borrow.
        unsafe { seg.as_ref() }.map(|s| &s.slots[off])
    }

    /// The slot for `item`, installing its segment if missing.
    fn ensure<'g>(&self, item: usize, guard: &'g epoch::Guard) -> &'g Atomic<Node<P>> {
        let (k, off, len) = reg_locate(item);
        let entry = &self.spine[k];
        let mut seg = entry.load(Ordering::Acquire, guard);
        if seg.is_null() {
            let fresh = Owned::new(RegSeg {
                slots: (0..len).map(|_| Atomic::null()).collect(),
            });
            seg = match entry.compare_exchange(
                Shared::null(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(installed) => installed,
                // Another thread installed first; ours is dropped by the
                // returned error value.
                Err(lost) => lost.current,
            };
        }
        // SAFETY: non-null, installed once, freed only at shard drop.
        &unsafe { seg.deref() }.slots[off]
    }
}

impl<P> Drop for Registry<P> {
    fn drop(&mut self) {
        for entry in self.spine.iter() {
            let raw = entry.load_raw();
            if !raw.is_null() {
                // SAFETY: exclusive access at drop; installed via
                // `Owned::new`, freed exactly once here.
                drop(unsafe { Box::from_raw(raw) });
            }
        }
    }
}

/// Epoch-reclaimed lock-free skiplist priority shard — the default
/// [`SubPriority`] backend of
/// [`ConcurrentMultiQueue`](crate::multiqueue::ConcurrentMultiQueue).
///
/// # Examples
///
/// ```
/// use rsched_queues::skipshard::{SkipShard, SubPriority, TryPopMin};
///
/// let s: SkipShard<u64> = SubPriority::new();
/// let tok = <SkipShard<u64> as SubPriority<u64>>::token();
/// assert!(s.push_or_decrease(7, 70, &tok));
/// assert!(s.push_or_decrease(3, 30, &tok));
/// assert!(!s.push_or_decrease(7, 50, &tok), "decrease, not insert");
/// assert_eq!(s.min_key(&tok), Some((30, 3)));
/// match s.try_pop_min(&tok) {
///     TryPopMin::Item(got) => assert_eq!(got, (3, 30)),
///     _ => panic!("shard was non-empty"),
/// }
/// assert_eq!(s.priority_of(7, &tok), Some(50));
/// assert_eq!(s.remove(7, &tok), Some(50));
/// assert!(matches!(s.try_pop_min(&tok), TryPopMin::Empty));
/// ```
pub struct SkipShard<P> {
    /// Head tower: `head[l]` is the first node at level `l`. The head is
    /// conceptually a node with key `-∞` that is never marked.
    head: Box<[Atomic<Node<P>>]>,
    /// Source of unique insertion stamps (also seeds tower heights).
    stamps: AtomicU64,
    /// Tallest height any live-or-past node reached (monotone, capped at
    /// [`MAX_HEIGHT`]); searches start here instead of at the cap.
    level_hint: AtomicUsize,
    /// Free list of retired nodes, fed through the grace period.
    pool: Arc<NodePool<P>>,
    reg: Registry<P>,
}

/// Per-shard free list of retired skiplist nodes, following the
/// [`SegRingQueue`](crate::lockfree::SegRingQueue) segment-pool pattern:
/// a claimed-and-unlinked node reaches the pool only through an
/// **epoch-deferred callback** (so reuse carries the same ABA protection
/// outright destruction had). Nodes carry an owned `Arc` reference to
/// the pool so the callback stays sound even if it runs after the shard
/// dropped.
///
/// The free list itself is an **intrusive Treiber stack** threaded
/// through `next[0]` of the pooled nodes — one CAS per push/pop, no
/// mutex, no side allocation. The classic Treiber ABA hazard is absent
/// here by construction: pops run under the allocating operation's epoch
/// guard, and a node can only *re-enter* the stack after a full grace
/// period, which cannot elapse while any popper is still pinned.
struct NodePool<P> {
    free: Atomic<Node<P>>,
    /// Approximate pool population (bounds memory, not correctness).
    approx_len: AtomicUsize,
}

/// How many retired nodes a shard keeps for reuse.
const NODE_POOL_CAP: usize = 256;

// SAFETY: the raw pool back-pointers inside nodes are only dereferenced
// by the single owner of the containing allocation; the stack itself is
// atomics over nodes that are exclusively owned while pooled.
unsafe impl<P: Send> Send for NodePool<P> {}
unsafe impl<P: Send> Sync for NodePool<P> {}

impl<P> NodePool<P> {
    /// Pop a pooled node, transferring exclusive ownership to the
    /// caller. Must run under an epoch guard (see the type docs).
    fn take(&self, guard: &epoch::Guard) -> Option<Box<Node<P>>> {
        loop {
            let head = self.free.load(Ordering::Acquire, guard);
            // SAFETY: pooled nodes are only freed when the pool drops,
            // which cannot race a `take` (the shard holds the pool).
            let h = unsafe { head.as_ref() }?;
            let next = h.next[0].load(Ordering::Acquire, guard);
            if self
                .free
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok()
            {
                self.approx_len.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: winning the CAS grants exclusive ownership of
                // the popped allocation.
                return Some(unsafe { Box::from_raw(head.as_raw() as *mut Node<P>) });
            }
        }
    }
}

impl<P> Drop for NodePool<P> {
    fn drop(&mut self) {
        // Exclusive access: free the pooled chain. Pooled nodes hold no
        // pool reference (taken at recycle time), so this cannot recurse.
        let mut raw = self.free.load_raw();
        while !raw.is_null() {
            // SAFETY: pooled nodes are exclusively owned by the stack.
            let boxed = unsafe { Box::from_raw(raw) };
            raw = boxed.next[0].load_raw();
        }
    }
}

/// Grace-period callback: hand a retired node back to its shard's pool
/// (or drop it if the pool is full).
///
/// # Safety
///
/// `ptr` must be a claimed, fully-unlinked `Node<P>` allocated via
/// `Box`, past its grace period, not recycled twice.
unsafe fn recycle_node<P>(ptr: *mut u8) {
    // SAFETY: per contract we own the node exclusively now.
    let mut node = unsafe { Box::from_raw(ptr.cast::<Node<P>>()) };
    let pool_ptr = std::mem::replace(&mut node.pool, std::ptr::null());
    if pool_ptr.is_null() {
        return;
    }
    // SAFETY: a non-null `pool` is an owned `Arc::into_raw` reference.
    let pool = unsafe { Arc::from_raw(pool_ptr) };
    if pool.approx_len.load(Ordering::Relaxed) >= NODE_POOL_CAP {
        return; // bounded: let the node drop
    }
    // Intrusive push: the node is exclusively ours until the CAS lands.
    let raw = Box::into_raw(node);
    let guard = epoch::pin();
    loop {
        let head = pool.free.load(Ordering::Acquire, &guard);
        // SAFETY: `raw` is unpublished; we own it.
        unsafe { (*raw).next[0].store(head, Ordering::Relaxed) };
        // SAFETY: `raw` came from `Box::into_raw` above.
        let new = unsafe { Shared::from_raw(raw) };
        if pool
            .free
            .compare_exchange(head, new, Ordering::AcqRel, Ordering::Acquire, &guard)
            .is_ok()
        {
            pool.approx_len.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

impl<P: Ord + Copy> Default for SkipShard<P> {
    fn default() -> Self {
        Self {
            head: (0..MAX_HEIGHT).map(|_| Atomic::null()).collect(),
            stamps: AtomicU64::new(0),
            level_hint: AtomicUsize::new(1),
            pool: Arc::new(NodePool {
                free: Atomic::null(),
                approx_len: AtomicUsize::new(0),
            }),
            reg: Registry::new(),
        }
    }
}

impl<P: Ord + Copy> SkipShard<P> {
    /// The `next[level]` link of `pred`, where null means the head.
    #[inline]
    fn link<'g>(&'g self, pred: Shared<'g, Node<P>>, level: usize) -> &'g Atomic<Node<P>> {
        match unsafe { pred.as_ref() } {
            // SAFETY: non-null preds were loaded under the caller's
            // guard, which outlives this borrow.
            Some(p) => &p.next[level],
            None => &self.head[level],
        }
    }

    /// The level searches should start from: the shard's tallest-seen
    /// tower (never below `at_least`, the caller's own tower height).
    #[inline]
    fn search_top(&self, at_least: usize) -> usize {
        self.level_hint
            .load(Ordering::Relaxed)
            .max(at_least)
            .min(MAX_HEIGHT)
    }

    /// Search for `key` from level `top - 1` down: returns `preds[l]`
    /// (last node strictly before the key position; null = head) and
    /// `succs[l]` (first node at or after it) for every level below
    /// `top`, physically unlinking every marked node encountered along
    /// the way, top-down. The unlink at level 0 is where a deleted node
    /// leaves the structure for good, so that CAS winner hands it to the
    /// epoch collector.
    ///
    /// Pass `MAX_HEIGHT` to search (O(log n) needs the full tower);
    /// retiring a node whose key is near the head may pass the node's
    /// own height — the walk below its levels is short by construction.
    #[allow(clippy::type_complexity)]
    fn find<'g>(
        &'g self,
        key: (P, usize, u64),
        top: usize,
        guard: &'g epoch::Guard,
    ) -> (
        [Shared<'g, Node<P>>; MAX_HEIGHT],
        [Shared<'g, Node<P>>; MAX_HEIGHT],
    ) {
        'retry: loop {
            let mut preds = [Shared::null(); MAX_HEIGHT];
            let mut succs = [Shared::null(); MAX_HEIGHT];
            let mut pred: Shared<'g, Node<P>> = Shared::null();
            for level in (0..top).rev() {
                let mut cur = self.link(pred, level).load(Ordering::Acquire, guard);
                if cur.tag() == MARK {
                    // `pred` itself got deleted under us; its links are
                    // frozen, so restart from the head.
                    continue 'retry;
                }
                // SAFETY: loaded under `guard` from a live link.
                while let Some(c) = unsafe { cur.as_ref() } {
                    let succ = c.next[level].load(Ordering::Acquire, guard);
                    if succ.tag() == MARK {
                        // `cur` is deleted at this level: unlink it.
                        match self.link(pred, level).compare_exchange(
                            cur,
                            succ.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        ) {
                            Ok(_) => {
                                if level == 0 {
                                    // `cur` just became unreachable at
                                    // the bottom level — the unique
                                    // point where it leaves the list.
                                    // SAFETY: unlinked; recycled (or
                                    // freed) only after the grace
                                    // period.
                                    unsafe {
                                        guard.defer_with_raw(
                                            cur.as_raw() as *mut u8,
                                            recycle_node::<P>,
                                        )
                                    };
                                }
                                cur = succ.with_tag(0);
                            }
                            Err(_) => continue 'retry,
                        }
                        continue;
                    }
                    if c.key() < key {
                        pred = cur;
                        cur = succ;
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = cur;
            }
            return (preds, succs);
        }
    }

    /// Allocate and publish a node for `(item, prio)`, linking all its
    /// levels. Returns the published node.
    ///
    /// If a concurrent claim deletes the node while its upper levels are
    /// still being linked, the linking stops and a cleanup search runs
    /// *before this function returns* — under the operation's guard —
    /// so the node is unreachable at every level by the time the epoch
    /// can advance past this thread (the invariant reclamation needs).
    fn insert_node<'g>(
        &'g self,
        item: usize,
        prio: P,
        guard: &'g epoch::Guard,
    ) -> Shared<'g, Node<P>> {
        let stamp = self.stamps.fetch_add(1, Ordering::Relaxed);
        // Branching factor 4: P(height > k) = 4^-k.
        let height =
            ((splitmix64(stamp ^ (item as u64).rotate_left(32)).trailing_ones() as usize) / 2 + 1)
                .min(MAX_HEIGHT);
        if height > self.level_hint.load(Ordering::Relaxed) {
            self.level_hint.fetch_max(height, Ordering::Relaxed);
        }
        let key = (prio, item, stamp);
        // Reuse a retired node when the pool has one and its lock is
        // free; allocate otherwise (never blocks).
        let mut boxed = match self.pool.take(guard) {
            Some(mut b) => {
                b.prio = prio;
                b.item = item;
                b.stamp = stamp;
                b.height = height;
                // Links below `height` are overwritten before the
                // publishing CAS; stale bits above are never read.
                b
            }
            None => Box::new(Node {
                prio,
                item,
                stamp,
                height,
                pool: std::ptr::null(),
                next: std::array::from_fn(|_| Atomic::null()),
            }),
        };
        boxed.pool = Arc::into_raw(Arc::clone(&self.pool));
        // SAFETY: `Box::into_raw` hands the allocation to the list.
        let node: Shared<'g, Node<P>> = unsafe { Shared::from_raw(Box::into_raw(boxed)) };
        // SAFETY: freshly allocated under `guard`; not yet published.
        let n = unsafe { node.deref() };
        let top = self.search_top(height);
        // Publish at level 0 (the level that defines membership).
        let mut lists = loop {
            let (preds, succs) = self.find(key, top, guard);
            for (link, &succ) in n.next.iter().zip(succs.iter()).take(height) {
                link.store(succ, Ordering::Relaxed);
            }
            match self.link(preds[0], 0).compare_exchange(
                succs[0],
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => break (preds, succs),
                Err(_) => continue,
            }
        };
        // Link the upper levels; abandon (and clean up) if deleted.
        for l in 1..height {
            loop {
                if n.next[0].load(Ordering::Acquire, guard).tag() == MARK {
                    // Already claimed: make sure every level we linked is
                    // unlinked before our guard drops.
                    self.find(key, top, guard);
                    return node;
                }
                let cur_l = n.next[l].load(Ordering::Acquire, guard);
                if cur_l.tag() == MARK {
                    self.find(key, top, guard);
                    return node;
                }
                let (preds, succs) = lists;
                if cur_l.as_raw() != succs[l].as_raw()
                    && n.next[l]
                        .compare_exchange(
                            cur_l,
                            succs[l],
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_err()
                {
                    // Raced with a marker; re-check the deletion flag.
                    continue;
                }
                if self
                    .link(preds[l], l)
                    .compare_exchange(succs[l], node, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
                {
                    break;
                }
                lists = self.find(key, top, guard);
            }
        }
        if n.next[0].load(Ordering::Acquire, guard).tag() == MARK {
            self.find(key, top, guard);
        }
        node
    }

    /// Claim `node` for deletion: mark its upper levels top-down, then
    /// race for the level-0 mark. Returns `true` iff this call won the
    /// level-0 mark (and therefore owns the node's removal). Once the
    /// upper marks are set the node *will* be deleted — by whichever
    /// contender wins the bottom level.
    fn claim(&self, node: &Node<P>, guard: &epoch::Guard) -> bool {
        for l in (1..node.height).rev() {
            loop {
                let nl = node.next[l].load(Ordering::Acquire, guard);
                if nl.tag() == MARK
                    || node.next[l]
                        .compare_exchange(
                            nl,
                            nl.with_tag(MARK),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_ok()
                {
                    break;
                }
            }
        }
        loop {
            let n0 = node.next[0].load(Ordering::Acquire, guard);
            if n0.tag() == MARK {
                return false;
            }
            if node.next[0]
                .compare_exchange(
                    n0,
                    n0.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                )
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Post-claim bookkeeping for a node this thread owns: drop the
    /// item's registry entry if it still points here, then physically
    /// unlink at every level. Must run under the claiming operation's
    /// guard (see [`insert_node`](Self::insert_node) for why).
    fn retire(&self, node: &Node<P>, ptr: Shared<'_, Node<P>>, top: usize, guard: &epoch::Guard) {
        if let Some(slot) = self.reg.get(node.item, guard) {
            let _ = slot.compare_exchange(
                ptr.with_tag(0),
                Shared::null(),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            );
        }
        self.find(node.key(), top, guard);
    }

    /// If `node` (just registered at `slot`) was claimed by a concurrent
    /// pop before the registration landed, clear the registration so the
    /// slot never outlives the node. Runs under the inserting
    /// operation's guard, which is what makes the pattern sound: the
    /// node cannot be reclaimed until this guard drops, and by then the
    /// slot no longer points at it.
    fn deregister_if_claimed(
        &self,
        slot: &Atomic<Node<P>>,
        node: Shared<'_, Node<P>>,
        guard: &epoch::Guard,
    ) {
        // SAFETY: `node` was loaded/created under `guard`.
        let n = unsafe { node.deref() };
        if n.next[0].load(Ordering::Acquire, guard).tag() == MARK {
            let _ = slot.compare_exchange(
                node,
                Shared::null(),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            );
        }
    }

    /// Undo a just-inserted node after losing a registry race: claim and
    /// unlink it. Returns `true` if a concurrent pop consumed the node
    /// first (i.e. it *did* count as an element).
    fn unpublish(&self, node: Shared<'_, Node<P>>, guard: &epoch::Guard) -> bool {
        // SAFETY: created under `guard` by the caller.
        let n = unsafe { node.deref() };
        if self.claim(n, guard) {
            self.find(n.key(), self.search_top(n.height), guard);
            false
        } else {
            true
        }
    }
}

impl<P: Ord + Copy + Send + Sync> SubPriority<P> for SkipShard<P> {
    const NEEDS_EPOCH: bool = true;

    type Token = epoch::Guard;

    fn token() -> epoch::Guard {
        epoch::pin()
    }

    fn borrow_token(session: &PinSession) -> TokRef<'_, epoch::Guard> {
        match session.guard() {
            Some(g) => TokRef::Borrowed(g),
            None => TokRef::Owned(epoch::pin()),
        }
    }

    fn new() -> Self {
        Self::default()
    }

    fn with_universe(universe: usize) -> Self {
        let shard = Self::default();
        if universe > 0 {
            let guard = epoch::pin();
            // Install every registry segment covering the universe (one
            // `ensure` per doubling segment), so no allocation happens
            // on the hot insert path.
            let mut start = 0usize;
            while start < universe {
                shard.reg.ensure(start, &guard);
                let (_, _, len) = reg_locate(start);
                start += len;
            }
        }
        shard
    }

    fn min_key(&self, tok: &epoch::Guard) -> Option<(P, usize)> {
        let mut cur = self.head[0].load(Ordering::Acquire, tok);
        loop {
            // SAFETY: loaded under `tok` from a live link; node payload
            // fields are immutable, so this racy walk reads stable data.
            let c = unsafe { cur.with_tag(0).as_ref() }?;
            let succ = c.next[0].load(Ordering::Acquire, tok);
            if succ.tag() != MARK {
                return Some((c.prio, c.item));
            }
            cur = succ;
        }
    }

    fn try_pop_min(&self, tok: &epoch::Guard) -> TryPopMin<P> {
        // The walk never advances past an *unmarked* node (it claims
        // it instead), so the predecessor is always the head.
        let mut retries = 0u64;
        loop {
            let cur = self.head[0].load(Ordering::Acquire, tok);
            // SAFETY: loaded under `tok` from a live link.
            let Some(c) = (unsafe { cur.as_ref() }) else {
                return TryPopMin::Empty;
            };
            let succ = c.next[0].load(Ordering::Acquire, tok);
            if succ.tag() == MARK {
                // Already claimed: help unlink, then re-read the head.
                if self.head[0]
                    .compare_exchange(
                        cur,
                        succ.with_tag(0),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        tok,
                    )
                    .is_ok()
                {
                    // SAFETY: unlinked at level 0 (upper levels were
                    // marked before the claim and are unlinked by the
                    // claimer's retire pass); recycled after the grace
                    // period.
                    unsafe { tok.defer_with_raw(cur.as_raw() as *mut u8, recycle_node::<P>) };
                }
                retries += 1;
                continue;
            }
            if self.claim(c, tok) {
                let got = (c.item, c.prio);
                self.retire(c, cur, c.height, tok);
                telemetry::record(telemetry::OpHist::Retry, retries);
                return TryPopMin::Item(got);
            }
            // Lost the claim; re-read and let the help path advance.
            retries += 1;
        }
    }

    fn pop_min_wait(&self, tok: &epoch::Guard) -> Option<(usize, P)> {
        match self.try_pop_min(tok) {
            TryPopMin::Item(pair) => Some(pair),
            _ => None,
        }
    }

    fn push_or_decrease(&self, item: usize, prio: P, tok: &epoch::Guard) -> bool {
        let slot = self.reg.ensure(item, tok);
        // One probe for the registry walk itself, plus one per slot
        // re-examination when the CAS loop goes around.
        let mut probes = 1u64;
        loop {
            let old = slot.load(Ordering::Acquire, tok);
            // SAFETY: registry entries are cleared before their node can
            // be reclaimed; `tok` protects this dereference.
            let live = unsafe { old.as_ref() }
                .filter(|o| o.next[0].load(Ordering::Acquire, tok).tag() != MARK);
            if let Some(o) = live {
                if o.prio <= prio {
                    telemetry::count(telemetry::OpCount::RegistryProbe, probes);
                    return false;
                }
            }
            let node = self.insert_node(item, prio, tok);
            match slot.compare_exchange(old, node, Ordering::AcqRel, Ordering::Acquire, tok) {
                Ok(_) => {
                    let verdict = match live {
                        // Replace-in-place: retire the old node.
                        Some(o) if self.claim(o, tok) => {
                            self.find(o.key(), self.search_top(o.height), tok);
                            false
                        }
                        // A popper claimed the old node first (it still
                        // surfaces as a stale pop), or the slot was
                        // absent/dangling: our insert is net-new.
                        _ => true,
                    };
                    self.deregister_if_claimed(slot, node, tok);
                    telemetry::count(telemetry::OpCount::RegistryProbe, probes);
                    return verdict;
                }
                Err(_) => {
                    // The slot moved under us (concurrent decrease or
                    // pop): withdraw our node and re-evaluate, unless a
                    // popper already consumed it — then it counted.
                    if self.unpublish(node, tok) {
                        telemetry::count(telemetry::OpCount::RegistryProbe, probes);
                        return true;
                    }
                    probes += 1;
                }
            }
        }
    }

    fn push(&self, item: usize, prio: P, tok: &epoch::Guard) {
        let slot = self.reg.ensure(item, tok);
        let node = self.insert_node(item, prio, tok);
        // Best-effort registration so keyed lookups see one instance.
        let _ = slot.compare_exchange(
            Shared::null(),
            node,
            Ordering::AcqRel,
            Ordering::Acquire,
            tok,
        );
        self.deregister_if_claimed(slot, node, tok);
    }

    fn remove(&self, item: usize, tok: &epoch::Guard) -> Option<P> {
        let slot = self.reg.get(item, tok)?;
        loop {
            let old = slot.load(Ordering::Acquire, tok);
            // SAFETY: see `push_or_decrease`.
            let o = (unsafe { old.as_ref() })?;
            if o.next[0].load(Ordering::Acquire, tok).tag() == MARK {
                // Dangling entry for a claimed node: clear and report
                // the item absent (the popper owns it).
                let _ = slot.compare_exchange(
                    old,
                    Shared::null(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    tok,
                );
                return None;
            }
            if self.claim(o, tok) {
                let prio = o.prio;
                self.retire(o, old, self.search_top(o.height), tok);
                return Some(prio);
            }
            // Lost to a concurrent pop or decrease; re-read the slot.
            if slot.load(Ordering::Acquire, tok).as_raw() == old.as_raw() {
                return None;
            }
        }
    }

    // Check-then-act by design: if a pop claims the item between the
    // check and the update, the update degenerates to push_or_decrease
    // semantics (re-insertion, popped later). See the trait's
    // accounting caveat — counting callers use push_or_decrease.
    fn decrease_key(&self, item: usize, prio: P, tok: &epoch::Guard) -> bool {
        let Some(slot) = self.reg.get(item, tok) else {
            return false;
        };
        let old = slot.load(Ordering::Acquire, tok);
        // SAFETY: see `push_or_decrease`.
        let Some(o) = (unsafe { old.as_ref() }) else {
            return false;
        };
        if o.next[0].load(Ordering::Acquire, tok).tag() == MARK || o.prio <= prio {
            return false;
        }
        self.push_or_decrease(item, prio, tok);
        true
    }

    fn contains(&self, item: usize, tok: &epoch::Guard) -> bool {
        self.priority_of(item, tok).is_some()
    }

    fn priority_of(&self, item: usize, tok: &epoch::Guard) -> Option<P> {
        let slot = self.reg.get(item, tok)?;
        let node = slot.load(Ordering::Acquire, tok);
        // SAFETY: see `push_or_decrease`.
        unsafe { node.as_ref() }
            .filter(|n| n.next[0].load(Ordering::Acquire, tok).tag() != MARK)
            .map(|n| n.prio)
    }
}

impl<P> Drop for SkipShard<P> {
    fn drop(&mut self) {
        // Exclusive access: free every node still linked at level 0
        // (claimed-but-not-unlinked nodes included — they are reachable
        // and were never handed to the collector). Unlinked nodes are
        // owned by the epoch collector and freed there.
        // Strip the mark tag before the null check: a claimed last node
        // stores "marked null" in its level-0 link.
        let mut raw = (self.head[0].load_raw() as usize & !MARK) as *mut Node<P>;
        while !raw.is_null() {
            // SAFETY: level-0-reachable nodes are owned by the shard at
            // drop time; each is freed exactly once.
            let boxed = unsafe { Box::from_raw(raw) };
            raw = (boxed.next[0].load_raw() as usize & !MARK) as *mut Node<P>;
        }
    }
}

impl<P: Ord + Copy> std::fmt::Debug for SkipShard<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipShard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
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

    fn pop_all<P: Ord + Copy + Send + Sync>(s: &SkipShard<P>) -> Vec<(usize, P)> {
        let tok = SkipShard::<P>::token();
        let mut out = Vec::new();
        while let Some(pair) = s.pop_min_wait(&tok) {
            out.push(pair);
        }
        out
    }

    #[test]
    fn sequential_pops_come_out_sorted() {
        let s: SkipShard<u64> = SubPriority::new();
        let tok = SkipShard::<u64>::token();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 2_000usize;
        let mut want: Vec<(u64, usize)> = (0..n).map(|i| (rng.gen_range(0..50_000), i)).collect();
        for &(p, i) in &want {
            assert!(s.push_or_decrease(i, p, &tok));
        }
        want.sort_unstable();
        let got = pop_all(&s);
        assert_eq!(got.len(), n);
        let got_keys: Vec<(u64, usize)> = got.iter().map(|&(i, p)| (p, i)).collect();
        assert_eq!(
            got_keys, want,
            "pop_min must deliver ascending (prio, item)"
        );
    }

    #[test]
    fn min_key_tracks_the_minimum() {
        let s: SkipShard<u64> = SubPriority::new();
        let tok = SkipShard::<u64>::token();
        assert_eq!(s.min_key(&tok), None);
        s.push_or_decrease(5, 50, &tok);
        assert_eq!(s.min_key(&tok), Some((50, 5)));
        s.push_or_decrease(9, 10, &tok);
        assert_eq!(s.min_key(&tok), Some((10, 9)));
        s.push_or_decrease(5, 1, &tok); // decrease overtakes
        assert_eq!(s.min_key(&tok), Some((1, 5)));
        assert!(matches!(s.try_pop_min(&tok), TryPopMin::Item((5, 1))));
        assert_eq!(s.min_key(&tok), Some((10, 9)));
    }

    #[test]
    fn decrease_remove_and_lookups_sequential() {
        let s: SkipShard<u64> = SubPriority::new();
        let tok = SkipShard::<u64>::token();
        assert!(s.push_or_decrease(7, 100, &tok));
        assert!(!s.push_or_decrease(7, 50, &tok), "decrease, not insert");
        assert!(!s.push_or_decrease(7, 80, &tok), "no-op update");
        assert_eq!(s.priority_of(7, &tok), Some(50));
        assert!(s.contains(7, &tok));
        assert!(!s.decrease_key(7, 60, &tok), "not strictly smaller");
        assert!(s.decrease_key(7, 5, &tok));
        assert_eq!(s.remove(7, &tok), Some(5));
        assert_eq!(s.remove(7, &tok), None);
        assert!(!s.contains(7, &tok));
        assert_eq!(s.priority_of(7, &tok), None);
        assert!(matches!(s.try_pop_min(&tok), TryPopMin::Empty));
        // Re-insert after remove works (fresh node, fresh stamp).
        assert!(s.push_or_decrease(7, 9, &tok));
        assert_eq!(pop_all(&s), vec![(7, 9)]);
    }

    #[test]
    fn registry_handles_sparse_and_large_items() {
        let s: SkipShard<u64> = SubPriority::new();
        let tok = SkipShard::<u64>::token();
        for &item in &[0usize, 1023, 1024, 3071, 3072, 1 << 20, (1 << 22) + 13] {
            assert!(s.push_or_decrease(item, item as u64, &tok));
            assert_eq!(s.priority_of(item, &tok), Some(item as u64));
        }
        assert_eq!(pop_all(&s).len(), 7);
    }

    #[test]
    fn reg_locate_is_a_partition() {
        // Every item maps to exactly one in-bounds slot, contiguously.
        let mut prev = (0usize, usize::MAX, 0usize);
        for item in 0..200_000usize {
            let (k, off, len) = reg_locate(item);
            assert!(k < REG_SPINE);
            assert!(off < len);
            if k == prev.0 && prev.1 != usize::MAX {
                assert_eq!(off, prev.1 + 1, "gap within segment at {item}");
            } else if item > 0 {
                assert_eq!(off, 0, "segment {k} does not start at offset 0");
            }
            prev = (k, off, len);
        }
    }

    #[test]
    fn concurrent_conservation_storm() {
        let threads = 8;
        let per = 4_000 * stress_mult();
        let s: Arc<SkipShard<u64>> = Arc::new(SubPriority::new());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
                    let mut got = Vec::new();
                    let tok = SkipShard::<u64>::token();
                    for i in 0..per {
                        let item = t * per + i;
                        assert!(s.push_or_decrease(item, rng.gen_range(0..1_000_000), &tok));
                        if i % 3 == 0 {
                            if let TryPopMin::Item((it, _)) = s.try_pop_min(&tok) {
                                got.push(it);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for it in h.join().unwrap() {
                assert!(seen.insert(it), "duplicate pop of {it}");
            }
        }
        for (it, _) in pop_all(&s) {
            assert!(seen.insert(it), "duplicate pop of {it}");
        }
        assert_eq!(seen.len(), threads * per, "elements lost");
    }

    #[test]
    fn concurrent_decrease_vs_pop_storm_conserves_count() {
        // Hammer a small item universe with mixed push_or_decrease /
        // remove / pop from many threads. Conservation here is the
        // counting invariant: (# of `true` push returns) == (# of
        // successful pops) + (# of successful removes) + (leftover).
        let threads = 8;
        let rounds = 3_000 * stress_mult();
        let universe = 64usize;
        let s: Arc<SkipShard<u64>> = Arc::new(SubPriority::new());
        let totals: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(0xDEC0 + t as u64);
                        let (mut ins, mut pops, mut rems) = (0u64, 0u64, 0u64);
                        let tok = SkipShard::<u64>::token();
                        for _ in 0..rounds {
                            let item = rng.gen_range(0..universe);
                            match rng.gen_range(0..4u32) {
                                0 | 1 => {
                                    if s.push_or_decrease(item, rng.gen_range(0..1_000_000), &tok) {
                                        ins += 1;
                                    }
                                }
                                2 => {
                                    if let TryPopMin::Item(_) = s.try_pop_min(&tok) {
                                        pops += 1;
                                    }
                                }
                                _ => {
                                    if s.remove(item, &tok).is_some() {
                                        rems += 1;
                                    }
                                }
                            }
                        }
                        (ins, pops, rems)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (ins, pops, rems) = totals
            .iter()
            .fold((0, 0, 0), |(a, b, c), &(x, y, z)| (a + x, b + y, c + z));
        let leftover = pop_all(&s).len() as u64;
        assert_eq!(
            ins,
            pops + rems + leftover,
            "conservation violated: {ins} in vs {pops} popped + {rems} removed + {leftover} left"
        );
    }

    #[test]
    fn racy_min_key_is_memory_safe_and_plausible() {
        // Peeks racing pops/inserts must never crash or return a
        // priority that was never inserted.
        let s: Arc<SkipShard<u64>> = Arc::new(SubPriority::new());
        let n = 20_000 * stress_mult() as u64;
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let s2 = Arc::clone(&s);
            scope.spawn(move || {
                let tok = SkipShard::<u64>::token();
                for i in 0..n {
                    s2.push_or_decrease(i as usize, 2 * i, &tok);
                }
            });
            let s3 = Arc::clone(&s);
            let done2 = Arc::clone(&done);
            scope.spawn(move || {
                let tok = SkipShard::<u64>::token();
                while !done2.load(Ordering::Acquire) {
                    if let Some((p, it)) = s3.min_key(&tok) {
                        assert_eq!(p, 2 * it as u64, "peeked a pair never inserted");
                        assert!((it as u64) < n);
                    }
                }
            });
            let tok = SkipShard::<u64>::token();
            let mut got = 0u64;
            while got < n {
                if let TryPopMin::Item(_) = s.try_pop_min(&tok) {
                    got += 1;
                }
            }
            done.store(true, Ordering::Release);
        });
        let tok = SkipShard::<u64>::token();
        assert!(matches!(s.try_pop_min(&tok), TryPopMin::Empty));
    }

    #[test]
    fn drop_frees_remaining_nodes_without_leak_or_double_free() {
        // Fill, pop a little, drop; then exercise the claimed-but-
        // unlinked path by removing under a held token and dropping.
        for popped in [0usize, 10, 700] {
            let s: SkipShard<u64> = SubPriority::new();
            let tok = SkipShard::<u64>::token();
            for i in 0..900usize {
                s.push_or_decrease(i, i as u64, &tok);
            }
            for _ in 0..popped {
                assert!(matches!(s.try_pop_min(&tok), TryPopMin::Item(_)));
            }
            drop(tok);
            drop(s); // miri/asan would flag leaks or double frees here
        }
    }
}
