//! MultiQueue relaxed priority queues (Rihani, Sanders, Dementiev, SPAA 2015;
//! analysed in Alistarh et al., PODC 2017).
//!
//! A MultiQueue over `q` internal priority queues works as follows:
//!
//! * **insert**: pick one of the `q` queues uniformly at random and insert
//!   there (or, in *keyed* mode, hash the item id consistently to a queue so
//!   that `decrease_key` can find it later — this is the variant Section 6 of
//!   the SPAA 2019 paper assumes for SSSP);
//! * **delete-min**: pick two queues uniformly at random and return the
//!   smaller of their two minima ("power of two choices").
//!
//! The structure is relaxed: the returned element is not necessarily the
//! global minimum, but with `q` queues the rank of the returned element is
//! `O(q log q)` with high probability, i.e. a MultiQueue is a `k`-relaxed
//! scheduler with `k = O(q log q)` (PODC 2017 / DISC 2018).
//!
//! Two implementations are provided:
//!
//! * [`SimMultiQueue`] — single-threaded, used by the sequential model of the
//!   paper (Sections 2–5), by the lower-bound experiment of Section 5, and by
//!   all deterministic-seed tests;
//! * [`ConcurrentMultiQueue`] — thread-safe: the paper's own design,
//!   one try-locked sequential heap per shard. A session pop
//!   ([`MqSession`]) peeks two random shards under `try_lock` and claims
//!   the smaller minimum, and buffered sessions amortize the lock over
//!   a batch of spawns and a run of successors.

use crate::heap::IndexedBinaryHeap;
use crate::telemetry;
use crate::{
    DecreaseKey, FlushReport, PopSource, PriorityQueue, PushOutcome, RelaxedQueue, SessionConfig,
    SessionPush, MAX_SPAWN_BATCH, NOT_PRESENT,
};
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Most successors one winning shard yields beyond its minimum or head
/// (see [`MqSession`] and [`FifoSession`](crate::fifo::FifoSession)): a
/// longer run of one shard's items only widens the relaxation, the
/// claim is already amortized.
pub(crate) const MAX_POP_EXTRA: usize = 8;

/// Multiply-shift hash used to map item ids to internal queues in keyed mode.
///
/// Fibonacci hashing: multiply by the 64-bit golden-ratio constant and use
/// the high bits, which distributes consecutive ids evenly across queues.
/// The high 32 bits are scaled onto `0..nqueues` by a second
/// multiply-shift, not a remainder: every keyed operation calls this and
/// a session flush calls it once per comparison of its grouping sort,
/// where the 64-bit division was about 5 % of a `parallel_sssp` solve.
#[inline]
pub(crate) fn queue_of(item: usize, nqueues: usize) -> usize {
    let h = (item as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((h >> 32) * nqueues as u64) >> 32) as usize
}

/// How a MultiQueue places inserted items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Classic MultiQueue: each insert goes to a uniformly random queue.
    Random,
    /// Keyed MultiQueue: item `i` always goes to queue `hash(i) % q`, so
    /// `decrease_key(i, ..)` can locate it. This is the variant required by
    /// the paper's SSSP (Section 6: "elements are hashed consistently into
    /// the priority queues").
    Keyed,
}

/// Sequential-model MultiQueue over `q` internal indexed heaps.
///
/// This is the exact structure analysed in Section 5 of the paper: tasks are
/// inserted into uniformly random queues, and `peek_relaxed`/`pop_relaxed`
/// compare the tops of two uniformly random queues. All randomness comes
/// from a caller-provided seed, so experiments are reproducible.
///
/// # Examples
///
/// ```
/// use rsched_queues::{SimMultiQueue, RelaxedQueue};
///
/// let mut mq = SimMultiQueue::new(4, 0xC0FFEE);
/// for i in 0..100usize {
///     mq.insert(i, i as u64);
/// }
/// // The returned element is among the smallest few, but not necessarily
/// // the global minimum.
/// let (item, prio) = mq.pop_relaxed().unwrap();
/// assert_eq!(item as u64, prio);
/// assert_eq!(mq.len(), 99);
/// ```
#[derive(Clone, Debug)]
pub struct SimMultiQueue<P> {
    queues: Vec<IndexedBinaryHeap<P>>,
    /// `location[item]` = index of the internal queue holding it.
    location: Vec<usize>,
    placement: Placement,
    rng: SmallRng,
    len: usize,
}

impl<P: Ord + Copy> SimMultiQueue<P> {
    /// A MultiQueue with `nqueues` internal queues and random placement.
    pub fn new(nqueues: usize, seed: u64) -> Self {
        Self::with_placement(nqueues, seed, Placement::Random)
    }

    /// A keyed MultiQueue (consistent hashing), required when `decrease_key`
    /// must be meaningful across re-insertions of the same item.
    pub fn keyed(nqueues: usize, seed: u64) -> Self {
        Self::with_placement(nqueues, seed, Placement::Keyed)
    }

    /// Construct with an explicit [`Placement`] policy.
    pub fn with_placement(nqueues: usize, seed: u64, placement: Placement) -> Self {
        assert!(nqueues > 0, "a MultiQueue needs at least one queue");
        Self {
            queues: (0..nqueues).map(|_| IndexedBinaryHeap::new()).collect(),
            location: Vec::new(),
            placement,
            rng: SmallRng::seed_from_u64(seed),
            len: 0,
        }
    }

    /// Number of internal queues.
    pub fn nqueues(&self) -> usize {
        self.queues.len()
    }

    fn ensure_loc(&mut self, item: usize) {
        if item >= self.location.len() {
            self.location.resize(item + 1, NOT_PRESENT);
        }
    }

    /// Sample one queue index uniformly at random.
    #[inline]
    fn random_queue(&mut self) -> usize {
        self.rng.gen_range(0..self.queues.len())
    }
}

impl<P: Ord + Copy> RelaxedQueue<P> for SimMultiQueue<P> {
    fn insert(&mut self, item: usize, prio: P) {
        self.ensure_loc(item);
        assert_eq!(
            self.location[item], NOT_PRESENT,
            "item {item} is already in the MultiQueue"
        );
        let q = match self.placement {
            Placement::Random => self.random_queue(),
            Placement::Keyed => queue_of(item, self.queues.len()),
        };
        self.queues[q].push(item, prio);
        self.location[item] = q;
        self.len += 1;
    }

    fn peek_relaxed(&mut self) -> Option<(usize, P)> {
        if self.len == 0 {
            return None;
        }
        // Sample two queue indices independently and uniformly (the Section 5
        // analysis assumes sampling with replacement). Resample while both
        // sampled queues are empty; termination is guaranteed since some
        // queue is non-empty.
        loop {
            let (a, b) = (self.random_queue(), self.random_queue());
            let ta = self.queues[a].min_entry();
            let tb = self.queues[b].min_entry();
            match (ta, tb) {
                (None, None) => continue,
                (Some((p, it)), None) | (None, Some((p, it))) => return Some((it, p)),
                (Some((pa, ia)), Some((pb, ib))) => {
                    return if (pa, ia) <= (pb, ib) {
                        Some((ia, pa))
                    } else {
                        Some((ib, pb))
                    };
                }
            }
        }
    }

    fn delete(&mut self, item: usize) -> bool {
        let Some(&q) = self.location.get(item) else {
            return false;
        };
        if q == NOT_PRESENT {
            return false;
        }
        let removed = self.queues[q].remove(item);
        debug_assert!(removed.is_some());
        self.location[item] = NOT_PRESENT;
        self.len -= 1;
        true
    }

    fn decrease_key(&mut self, item: usize, prio: P) -> bool {
        let Some(&q) = self.location.get(item) else {
            return false;
        };
        if q == NOT_PRESENT {
            return false;
        }
        self.queues[q].decrease_key(item, prio)
    }

    fn contains(&self, item: usize) -> bool {
        self.location.get(item).is_some_and(|&q| q != NOT_PRESENT)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The PODC 2017 analysis gives rank `O(q log q)` w.h.p.; we report
    /// `max(1, q · ⌈log₂(q+1)⌉)` as the nominal factor.
    fn relaxation_factor(&self) -> usize {
        let q = self.queues.len();
        let lg = usize::BITS as usize - (q + 1).leading_zeros() as usize;
        (q * lg).max(1)
    }
}

/// One priority shard of a [`ConcurrentMultiQueue`]: a mutex around an
/// indexed 4-ary heap, padded to its own cache line.
type Shard<P> = CachePadded<Mutex<IndexedBinaryHeap<P>>>;

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

/// Thread-safe MultiQueue with keyed placement: try-locked sequential
/// heaps, the paper's Section 7 scheduler.
///
/// `q = queue_multiplier × threads` shards, each a mutex around an
/// [`IndexedBinaryHeap`]; a session pop
/// ([`pop_session`](Self::pop_session)) peeks the minima of two random
/// shards under `try_lock` and claims the smaller one, skipping any
/// shard whose lock is held.
///
/// Placement is always **keyed** (item id hashed consistently to a
/// shard), which funnels every update of a given item into one shard so
/// `push_or_decrease` — the operation Algorithm 3 of the paper needs —
/// can merge updates in place.
///
/// # Examples
///
/// ```
/// use rsched_queues::{QueueBuilder, SessionConfig};
/// use std::sync::Arc;
///
/// let mq = Arc::new(QueueBuilder::new(8).multiqueue());
/// let handles: Vec<_> = (0..4)
///     .map(|t| {
///         let mq = Arc::clone(&mq);
///         std::thread::spawn(move || {
///             for i in 0..256usize {
///                 mq.push_or_decrease(t * 256 + i, (i as u64) * 3);
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(mq.len(), 4 * 256);
/// let mut session = mq.session(&SessionConfig::default());
/// let mut popped = 0;
/// while mq.pop_session(&mut session).is_some() {
///     popped += 1;
/// }
/// assert_eq!(popped, 4 * 256);
/// ```
pub struct ConcurrentMultiQueue<P = u64> {
    shards: Box<[Shard<P>]>,
    /// Total number of stored elements (kept eventually consistent; exact
    /// when the structure is quiescent).
    len: AtomicUsize,
}

impl<P: Ord + Copy + Send> ConcurrentMultiQueue<P> {
    /// `nqueues` shards, reached through
    /// [`QueueBuilder`](crate::QueueBuilder). `universe` pre-sizes each
    /// shard's position table.
    pub(crate) fn construct(nqueues: usize, universe: Option<usize>) -> Self {
        assert!(nqueues > 0, "a MultiQueue needs at least one queue");
        Self {
            shards: (0..nqueues)
                .map(|_| {
                    CachePadded::new(Mutex::new(match universe {
                        Some(u) => IndexedBinaryHeap::with_universe(u),
                        None => IndexedBinaryHeap::new(),
                    }))
                })
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of internal shards.
    pub fn nqueues(&self) -> usize {
        self.shards.len()
    }

    /// Each shard heap's position-table length, for the builder's
    /// `universe` test.
    #[cfg(test)]
    pub(crate) fn position_table_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().position_table_len())
            .collect()
    }

    /// Number of stored elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` if no elements are stored (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nominal relaxation factor `k = O(q log q)` (PODC 2017) of the
    /// shared structure, as unbuffered sessions (`spawn_batch == 1`)
    /// see it.
    ///
    /// Buffered sessions widen it by about `q·D + workers·I`, where
    /// `D = min(spawn_batch / 8, 8)` is the deletion-buffer size and
    /// `I = spawn_batch` the spawn-buffer size: a batched pop hands out
    /// the `1 + D` smallest elements of *one* shard, the last of which
    /// has expected global rank `q·D`, and each worker may hold `I`
    /// spawned elements no other worker can pop yet.
    pub fn relaxation_factor(&self) -> usize {
        let q = self.shards.len();
        let lg = usize::BITS as usize - (q + 1).leading_zeros() as usize;
        (q * lg).max(1)
    }

    #[inline]
    fn shard_of(&self, item: usize) -> &Mutex<IndexedBinaryHeap<P>> {
        &self.shards[queue_of(item, self.shards.len())]
    }

    /// Insert `item` with priority `prio`, or lower its priority if it is
    /// already queued with a larger one.
    ///
    /// Returns `true` if a *new* element was inserted, `false` if an existing
    /// element was updated (or left unchanged because its queued priority is
    /// already ≤ `prio`). The caller uses this to maintain its element count
    /// for termination detection.
    pub fn push_or_decrease(&self, item: usize, prio: P) -> bool {
        if heap_push_or_decrease(&mut self.shard_of(item).lock(), item, prio) {
            self.len.fetch_add(1, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    /// `true` if `item` is currently queued.
    pub fn contains(&self, item: usize) -> bool {
        self.shard_of(item).lock().contains(item)
    }

    /// Current queued priority of `item`, if present.
    pub fn priority_of(&self, item: usize) -> Option<P> {
        self.shard_of(item).lock().priority_of(item)
    }

    /// Remove `item` wherever it is queued.
    pub fn remove(&self, item: usize) -> Option<P> {
        let removed = self.shard_of(item).lock().remove(item);
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::AcqRel);
        }
        removed
    }
}

/// A worker's session over a [`ConcurrentMultiQueue`] — the MultiQueue
/// member of the workspace's worker-session layer (see the crate docs).
///
/// The one way to pop a MultiQueue. Carries the worker's private RNG
/// stream and — when [`SessionConfig::spawn_batch`] is above 1 — the two
/// buffers of an engineered MultiQueue, which trade relaxation (see
/// [`relaxation_factor`](ConcurrentMultiQueue::relaxation_factor)) for
/// one shard lock per *batch* instead of per element:
///
/// * the bounded **spawn buffer** parks pushes; a flush groups them by
///   target shard and publishes each group under one lock, where a
///   repeated item merges through decrease-key like any other;
/// * the **deletion buffer** holds up to `min(spawn_batch / 8, 8)`
///   successors that the winning shard of a choice-of-two yielded
///   together with its minimum, under the same lock; the next pops are
///   served from it without touching shared memory.
///
/// A parked pop has left its shard, so a concurrent push of the same
/// item is net-new there and the parked copy surfaces later as a stale
/// pop — the same race, with the same outcome, as a decrease arriving
/// just after a pop. [`flush_session`](ConcurrentMultiQueue::flush_session)
/// leaves **nothing parked in either buffer**: spawns are published and
/// parked pops go back through `push_or_decrease`. With `spawn_batch ==
/// 1` neither buffer exists and every operation goes straight to the
/// shards.
///
/// # Examples
///
/// ```
/// use rsched_queues::{QueueBuilder, SessionConfig};
///
/// let q = QueueBuilder::new(8).multiqueue::<u64>();
/// let mut session = q.session(&SessionConfig {
///     spawn_batch: 16,
///     ..SessionConfig::default()
/// });
/// for i in 0..100usize {
///     q.push_session(i, i as u64, &mut session);
/// }
/// q.flush_session(&mut session);
/// let mut got = 0;
/// while q.pop_session(&mut session).is_some() {
///     got += 1;
/// }
/// assert_eq!(got, 100);
/// ```
pub struct MqSession<P> {
    rng: SmallRng,
    buf: Vec<(usize, P)>,
    batch: usize,
    /// The deletion buffer: successors claimed together with an earlier
    /// pop's minimum, largest first (the next pop is the last entry).
    popped: Vec<(usize, P)>,
    /// Successors a winning shard yields beyond its minimum; 0 when
    /// `batch == 1`, which keeps both buffers out of the session.
    pop_extra: usize,
}

impl<P> MqSession<P> {
    /// Elements parked in the spawn buffer, not yet published.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl<P: Ord + Copy + Send> ConcurrentMultiQueue<P> {
    /// Open a worker session (see [`MqSession`]). Placement stays keyed
    /// — a MultiQueue has no home shards, so `cfg.tid` is ignored; its
    /// locality lever is the spawn and deletion buffers
    /// (`cfg.spawn_batch`).
    pub fn session(&self, cfg: &SessionConfig) -> MqSession<P> {
        let batch = cfg.spawn_batch.clamp(1, MAX_SPAWN_BATCH);
        let pop_extra = (batch / 8).min(MAX_POP_EXTRA);
        MqSession {
            // `cfg.seed` is already the per-worker stream (the config
            // constructors mix the tid in exactly once).
            rng: SmallRng::seed_from_u64(cfg.seed),
            buf: Vec::with_capacity(if batch > 1 { batch } else { 0 }),
            batch,
            popped: Vec::with_capacity(pop_extra),
            pop_extra,
        }
    }

    /// Session push-or-decrease: immediate when `spawn_batch == 1`;
    /// otherwise the item parks in the buffer and a full buffer publishes
    /// itself. A repeated item parks again: the flush merges the copies
    /// in the shard (keeping the smaller priority) and reports each
    /// merge in [`FlushReport::merged`].
    pub fn push_session(&self, item: usize, prio: P, s: &mut MqSession<P>) -> PushOutcome {
        if s.batch <= 1 {
            let push = if self.push_or_decrease(item, prio) {
                SessionPush::Inserted
            } else {
                SessionPush::Merged
            };
            return PushOutcome::immediate(push);
        }
        s.buf.push((item, prio));
        let flushed = if s.buf.len() >= s.batch {
            self.flush_session(s)
        } else {
            FlushReport::default()
        };
        PushOutcome {
            push: SessionPush::Buffered,
            flushed,
        }
    }

    /// Publish everything parked in the session: buffered spawns, one
    /// lock per touched shard, and — back where they came from — any
    /// pops still parked in the deletion buffer. The report's `merged`
    /// count is the number of published elements that hit an existing
    /// entry — the retraction signal for element-count maintainers (each
    /// such element was counted as net-new, when it was parked or when
    /// its newer copy was pushed).
    pub fn flush_session(&self, s: &mut MqSession<P>) -> FlushReport {
        if s.buf.is_empty() && s.popped.is_empty() {
            return FlushReport::default();
        }
        let mut rep = FlushReport {
            published: (s.buf.len() + s.popped.len()) as u64,
            merged: 0,
        };
        // Parked pops go back where they came from. One that merges met
        // a copy pushed while it sat here; that push was counted as
        // net-new, so the merge retracts this one.
        for (item, prio) in s.popped.drain(..) {
            if !self.push_or_decrease(item, prio) {
                rep.merged += 1;
            }
        }
        // One lock per touched shard: group the parked spawns by target
        // shard and publish each group whole.
        let q = self.shards.len();
        s.buf.sort_unstable_by_key(|&(item, _)| queue_of(item, q));
        for group in s.buf.chunk_by(|a, b| queue_of(a.0, q) == queue_of(b.0, q)) {
            let mut heap = self.shards[queue_of(group[0].0, q)].lock();
            let fresh = group
                .iter()
                .filter(|&&(item, prio)| heap_push_or_decrease(&mut heap, item, prio))
                .count();
            drop(heap);
            self.len.fetch_add(fresh, Ordering::AcqRel);
            rep.merged += (group.len() - fresh) as u64;
        }
        s.buf.clear();
        telemetry::count(telemetry::OpCount::FlushPublished, rep.published);
        telemetry::count(telemetry::OpCount::FlushMerged, rep.merged);
        rep
    }

    /// Session pop: the choice-of-two relaxed delete-min — peek two
    /// random shards, claim from the one with the smaller minimum; a
    /// shard whose lock is held counts as empty for this round. A pop
    /// served from the session's deletion buffer reports
    /// [`PopSource::Home`]; every claim from a shard is
    /// [`PopSource::Shared`] — keyed placement has no steal notion.
    ///
    /// Returns `None` only after a full sweep over all shards found
    /// every one of them empty; because concurrent pushes may land
    /// behind the sweep, `None` is a hint, not a linearizable emptiness
    /// check — callers keep their own element accounting for
    /// termination (the runtime's quiescence counter does). Buffered
    /// spawns are **not** popped here — flush on a miss (the runtime's
    /// worker loop does).
    pub fn pop_session(&self, s: &mut MqSession<P>) -> Option<((usize, P), PopSource)> {
        if let Some(next) = s.popped.pop() {
            return Some((next, PopSource::Home));
        }
        let q = self.shards.len();
        let min_of = |k: usize| self.shards[k].try_lock().and_then(|h| h.min_entry());
        for round in 0..(4 * q + 8) {
            let a = s.rng.gen_range(0..q);
            let b = s.rng.gen_range(0..q);
            let ka = min_of(a);
            let kb = if b == a { None } else { min_of(b) };
            // min_entry returns (prio, item): tuple order is the
            // workspace-wide (priority, id) tie-break.
            let win = match (ka, kb) {
                (None, None) => {
                    if self.len.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    continue;
                }
                (Some(_), None) => a,
                (None, Some(_)) => b,
                (Some(x), Some(y)) => {
                    if x <= y {
                        a
                    } else {
                        b
                    }
                }
            };
            // The claimed element may differ from the peeked one if the
            // shard moved meanwhile — relaxation slack, not an error.
            if let Some(mut heap) = self.shards[win].try_lock() {
                if let Some(first) = heap.pop() {
                    s.popped.extend((0..s.pop_extra).map_while(|_| heap.pop()));
                    drop(heap);
                    self.len.fetch_sub(1 + s.popped.len(), Ordering::AcqRel);
                    s.popped.reverse();
                    telemetry::record(telemetry::OpHist::Steal, round as u64);
                    return Some((first, PopSource::Shared));
                }
            }
            if self.len.load(Ordering::Acquire) == 0 {
                break;
            }
        }
        // Fallback sweep: visit every shard once, waiting on its lock.
        for (k, shard) in self.shards.iter().enumerate() {
            let popped = shard.lock().pop();
            if let Some(first) = popped {
                self.len.fetch_sub(1, Ordering::AcqRel);
                telemetry::record(telemetry::OpHist::Sweep, (k + 1) as u64);
                return Some((first, PopSource::Shared));
            }
        }
        telemetry::count(telemetry::OpCount::EmptyPop, 1);
        None
    }
}

/// A MultiQueue over plain binary heaps that allows **duplicate** entries
/// for the same item and has no `decrease_key`.
///
/// This is the scheduler for the duplicate-insertion Dijkstra variant the
/// paper's Section 6 discussion contrasts against ("if we insert multiple
/// copies of vertices in Qk with different distances, as in some versions of
/// Dijkstra, there might exist outdated copies"): the DecreaseKey ablation
/// experiment runs the same SSSP with this queue and measures the extra
/// stale pops.
/// One shard of a [`DuplicateMultiQueue`]: a plain min-heap of
/// `(priority, item)` entries.
type DupShard<P> = CachePadded<Mutex<std::collections::BinaryHeap<std::cmp::Reverse<(P, usize)>>>>;

pub struct DuplicateMultiQueue<P = u64> {
    shards: Box<[DupShard<P>]>,
    len: AtomicUsize,
}

impl<P: Ord + Copy + Send> DuplicateMultiQueue<P> {
    /// Create a duplicate-allowing MultiQueue with `nqueues` internal heaps.
    pub fn new(nqueues: usize) -> Self {
        assert!(nqueues > 0);
        Self {
            shards: (0..nqueues)
                .map(|_| CachePadded::new(Mutex::new(std::collections::BinaryHeap::new())))
                .collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of internal queues.
    pub fn nqueues(&self) -> usize {
        self.shards.len()
    }

    /// Number of stored entries (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` if no entries are stored (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an `(item, prio)` entry into a uniformly random queue;
    /// duplicates of the same item are allowed.
    pub fn push<R: Rng>(&self, item: usize, prio: P, rng: &mut R) {
        let q = rng.gen_range(0..self.shards.len());
        self.shards[q].lock().push(std::cmp::Reverse((prio, item)));
        self.len.fetch_add(1, Ordering::AcqRel);
    }

    /// Two-choice relaxed pop; same contract as
    /// [`ConcurrentMultiQueue::pop_session`].
    pub fn pop<R: Rng>(&self, rng: &mut R) -> Option<(usize, P)> {
        let q = self.shards.len();
        for _ in 0..(4 * q + 8) {
            let a = rng.gen_range(0..q);
            let b = rng.gen_range(0..q);
            let (first, second) = if a <= b { (a, b) } else { (b, a) };
            let Some(mut ha) = self.shards[first].try_lock() else {
                continue;
            };
            let hb = if second != first {
                match self.shards[second].try_lock() {
                    Some(h) => Some(h),
                    None => continue,
                }
            } else {
                None
            };
            let ta = ha.peek().map(|r| r.0);
            let tb = hb.as_ref().and_then(|h| h.peek().map(|r| r.0));
            let popped = match (ta, tb) {
                (None, None) => {
                    if self.len.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    continue;
                }
                (Some(_), None) => ha.pop(),
                (None, Some(_)) => hb.expect("held").pop(),
                (Some(x), Some(y)) => {
                    if x <= y {
                        ha.pop()
                    } else {
                        drop(ha);
                        hb.expect("held").pop()
                    }
                }
            };
            let std::cmp::Reverse((prio, item)) = popped.expect("peeked entry vanished");
            self.len.fetch_sub(1, Ordering::AcqRel);
            return Some((item, prio));
        }
        // Fallback sweep.
        for shard in self.shards.iter() {
            let mut heap = shard.lock();
            if let Some(std::cmp::Reverse((prio, item))) = heap.pop() {
                drop(heap);
                self.len.fetch_sub(1, Ordering::AcqRel);
                return Some((item, prio));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueueBuilder;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn sim_pop_all_returns_every_item_once() {
        let mut mq = SimMultiQueue::new(8, 7);
        for i in 0..1000usize {
            mq.insert(i, (i as u64) % 97);
        }
        let mut seen = HashSet::new();
        while let Some((item, _)) = mq.pop_relaxed() {
            assert!(seen.insert(item), "item {item} returned twice");
        }
        assert_eq!(seen.len(), 1000);
        assert!(mq.is_empty());
    }

    #[test]
    fn sim_single_queue_is_exact() {
        // With one internal queue both samples hit the same heap, so the
        // MultiQueue degenerates to an exact queue.
        let mut mq = SimMultiQueue::new(1, 3);
        for (i, p) in [50u64, 10, 40, 20, 30].into_iter().enumerate() {
            mq.insert(i, p);
        }
        let mut out = Vec::new();
        while let Some((_, p)) = mq.pop_relaxed() {
            out.push(p);
        }
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn sim_rank_is_bounded_by_live_queues() {
        // Structural property: the returned element is the minimum of at
        // least one internal queue, so its rank is at most the number of
        // non-empty queues.
        let q = 16;
        let mut mq = SimMultiQueue::new(q, 99);
        for i in 0..4096usize {
            mq.insert(i, i as u64);
        }
        for _ in 0..2048 {
            let mut live: Vec<u64> = Vec::new();
            for h in &mq.queues {
                if let Some((p, _)) = h.min_entry() {
                    live.push(p);
                }
            }
            live.sort_unstable();
            let (item, prio) = mq.pop_relaxed().unwrap();
            assert_eq!(prio, item as u64);
            // prio must be one of the queue tops.
            assert!(live.contains(&prio));
        }
    }

    #[test]
    fn sim_decrease_key_moves_item_forward() {
        let mut mq = SimMultiQueue::keyed(4, 5);
        for i in 0..64usize {
            mq.insert(i, 1000 + i as u64);
        }
        assert!(mq.decrease_key(63, 1));
        assert!(!mq.decrease_key(63, 5000), "increase rejected");
        // Item 63 is now the global minimum; with 4 queues it must be
        // returned within a few pops (here: verify it is eventually popped
        // with the decreased priority).
        let mut found = None;
        while let Some((item, prio)) = mq.pop_relaxed() {
            if item == 63 {
                found = Some(prio);
                break;
            }
        }
        assert_eq!(found, Some(1));
    }

    #[test]
    fn sim_delete_then_reinsert() {
        let mut mq = SimMultiQueue::new(4, 11);
        mq.insert(5, 50u64);
        assert!(RelaxedQueue::delete(&mut mq, 5));
        assert!(!RelaxedQueue::delete(&mut mq, 5));
        assert!(!mq.contains(5));
        mq.insert(5, 10);
        assert_eq!(mq.pop_relaxed(), Some((5, 10)));
    }

    #[test]
    fn concurrent_push_pop_exhaustive() {
        let mq = QueueBuilder::new(4).multiqueue::<u64>();
        for i in 0..500usize {
            mq.push_or_decrease(i, 500 - i as u64);
        }
        assert_eq!(mq.len(), 500);
        let mut session = mq.session(&SessionConfig {
            seed: 1,
            ..SessionConfig::default()
        });
        let mut seen = HashSet::new();
        while let Some(((item, _), _)) = mq.pop_session(&mut session) {
            assert!(seen.insert(item));
        }
        assert_eq!(seen.len(), 500);
        assert!(mq.is_empty());
    }

    #[test]
    fn concurrent_decrease_key_path() {
        let mq = QueueBuilder::new(4).multiqueue::<u64>();
        assert!(mq.push_or_decrease(7, 100));
        assert!(!mq.push_or_decrease(7, 50), "decrease, not insert");
        assert!(!mq.push_or_decrease(7, 80), "no-op update");
        assert_eq!(mq.priority_of(7), Some(50));
        assert!(mq.contains(7));
        assert_eq!(mq.len(), 1);
        assert_eq!(mq.remove(7), Some(50));
        assert_eq!(mq.remove(7), None);
        assert_eq!(mq.len(), 0);
    }

    #[test]
    fn concurrent_multithreaded_no_loss_no_dup() {
        let threads = 8;
        let per_thread = 2000usize;
        let mq = Arc::new(QueueBuilder::new(2 * threads).multiqueue::<u64>());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mq = Arc::clone(&mq);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64);
                    let mut session = mq.session(&SessionConfig::for_worker(t, threads));
                    let mut popped = Vec::new();
                    for i in 0..per_thread {
                        let item = t * per_thread + i;
                        mq.push_or_decrease(item, rng.gen_range(0..1_000_000));
                        if i % 3 == 0 {
                            if let Some(((it, _), _)) = mq.pop_session(&mut session) {
                                popped.push(it);
                            }
                        }
                    }
                    popped
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for it in h.join().unwrap() {
                assert!(seen.insert(it), "duplicate pop of {it}");
            }
        }
        let mut session = mq.session(&SessionConfig {
            seed: 123,
            ..SessionConfig::default()
        });
        while let Some(((it, _), _)) = mq.pop_session(&mut session) {
            assert!(seen.insert(it), "duplicate pop of {it}");
        }
        assert_eq!(seen.len(), threads * per_thread, "lost elements");
    }

    #[test]
    fn keyed_placement_is_stable() {
        // The same item must always map to the same shard index.
        for &q in &[1usize, 2, 3, 8, 17, 64] {
            for item in 0..1000usize {
                assert_eq!(queue_of(item, q), queue_of(item, q));
                assert!(queue_of(item, q) < q);
            }
        }
    }

    #[test]
    fn pop_scan_finds_lone_element() {
        // Element hidden in one of many queues: the fallback sweep must
        // find it even if sampling repeatedly misses.
        let mq = QueueBuilder::new(64).multiqueue::<u64>();
        mq.push_or_decrease(42, 7);
        let mut session = mq.session(&SessionConfig::default());
        assert_eq!(
            mq.pop_session(&mut session),
            Some(((42, 7), PopSource::Shared))
        );
        assert_eq!(mq.pop_session(&mut session), None);
    }

    #[test]
    fn session_threaded_ops_match_plain_ones() {
        let mq = QueueBuilder::new(8).multiqueue::<u64>();
        let mut session = mq.session(&SessionConfig::default());
        for i in 0..200usize {
            assert_eq!(
                mq.push_session(i, 1000 + i as u64, &mut session).push,
                SessionPush::Inserted
            );
            assert_eq!(
                mq.push_session(i, i as u64, &mut session).push,
                SessionPush::Merged
            );
        }
        assert_eq!(mq.len(), 200);
        let mut seen = HashSet::new();
        while let Some(((it, p), _)) = mq.pop_session(&mut session) {
            assert_eq!(p, it as u64, "decrease was lost");
            assert!(seen.insert(it));
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn session_buffer_parks_duplicates_and_flush_merges_them() {
        let q = QueueBuilder::new(4).multiqueue::<u64>();
        // Pre-existing entry: the later flush of item 0 must merge.
        q.push_or_decrease(0, 500);
        let mut s = q.session(&SessionConfig {
            spawn_batch: 8,
            ..SessionConfig::default()
        });
        // A repeated item parks again; the buffer does not look for it.
        assert_eq!(q.push_session(1, 10, &mut s).push, SessionPush::Buffered);
        assert_eq!(q.push_session(1, 5, &mut s).push, SessionPush::Buffered);
        assert_eq!(q.push_session(0, 100, &mut s).push, SessionPush::Buffered);
        assert_eq!(s.buffered(), 3);
        assert_eq!(q.len(), 1, "parked spawns are invisible");
        let rep = q.flush_session(&mut s);
        assert_eq!(rep.published, 3, "both copies of item 1 are published");
        assert_eq!(rep.merged, 2, "item 1's second copy and item 0 merged");
        assert_eq!(q.len(), 2);
        assert_eq!(q.priority_of(1), Some(5), "the shard kept the minimum");
        assert_eq!(q.priority_of(0), Some(100));
    }

    /// A batched session: 64 parked spawns, 8 successors per pop.
    fn batched() -> SessionConfig {
        SessionConfig {
            spawn_batch: 64,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn flush_returns_parked_pops_and_conserves() {
        // One shard, so the batch is the 1 + 8 smallest overall.
        let q = QueueBuilder::new(1).multiqueue::<u64>();
        let mut s = q.session(&batched());
        let mut net = 0i64;
        for i in 0..40usize {
            net += q.push_session(i, i as u64, &mut s).net_new();
        }
        net -= q.flush_session(&mut s).merged as i64;
        assert_eq!((net, q.len()), (40, 40));

        let mut pops = 0i64;
        assert_eq!(q.pop_session(&mut s), Some(((0, 0), PopSource::Shared)));
        pops += 1;
        assert_eq!(s.popped.len(), 8);
        assert_eq!(q.len(), 31, "parked pops have left the shards");
        // The next pop is served from the deletion buffer, in order.
        assert_eq!(q.pop_session(&mut s), Some(((1, 1), PopSource::Home)));
        pops += 1;

        let rep = q.flush_session(&mut s);
        assert_eq!((s.popped.len(), s.buffered()), (0, 0));
        assert_eq!((rep.published, rep.merged), (7, 0));
        net -= rep.merged as i64;
        assert_eq!(q.len(), 38);
        while let Some(((_, p), _)) = q.pop_session(&mut s) {
            assert!(p >= 2, "a consumed item came back");
            pops += 1;
        }
        assert_eq!(pops, net, "pops + drain differ from net inserts");
    }

    #[test]
    fn flush_merges_parked_pop_with_its_repushed_copy() {
        let q = QueueBuilder::new(1).multiqueue::<u64>();
        let mut s = q.session(&batched());
        let mut net = 0i64;
        for i in 0..20usize {
            net += q.push_or_decrease(i, 10 * i as u64) as i64;
        }
        let mut pops = 0i64;
        assert!(q.pop_session(&mut s).is_some());
        pops += 1;
        assert_eq!(s.popped.len(), 8, "items 1..=8 are parked");
        // Another pusher re-inserts item 3 while its old copy sits in
        // the deletion buffer: net-new as far as the shard can tell.
        assert!(q.push_or_decrease(3, 7));
        net += 1;
        let rep = q.flush_session(&mut s);
        assert_eq!((rep.published, rep.merged), (8, 1));
        net -= rep.merged as i64;
        assert_eq!(q.priority_of(3), Some(7), "the merge kept the minimum");
        assert_eq!(q.len(), 19);
        let mut seen = HashSet::new();
        while let Some(((item, _), _)) = q.pop_session(&mut s) {
            assert!(seen.insert(item), "item {item} delivered twice");
            pops += 1;
        }
        assert_eq!(pops, net, "pops + drain differ from net inserts");
    }

    #[test]
    fn unbatched_session_never_parks_a_pop() {
        let q = QueueBuilder::new(1).multiqueue::<u64>();
        for i in 0..20usize {
            q.push_or_decrease(i, i as u64);
        }
        let mut s = q.session(&SessionConfig::default());
        assert!(q.pop_session(&mut s).is_some());
        assert_eq!(s.popped.len(), 0);
        assert_eq!(q.len(), 19);
    }
}
