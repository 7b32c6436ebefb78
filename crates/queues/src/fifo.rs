//! Relaxed FIFO queues built on the random choice of two.
//!
//! A **relaxed FIFO** may dequeue *one of the oldest* items instead of
//! necessarily the oldest. For a relaxed dequeue of item `x`, the number
//! of items still in the queue that were enqueued before `x` is the
//! **rank error** — the FIFO analogue of the priority-queue rank the
//! [`RankTracker`](crate::instrument::RankTracker) measures. Relaxation
//! buys scalability: sub-FIFOs are contended independently, and the
//! choice-of-two rule keeps the error envelope logarithmically tight in
//! the spirit of balanced allocations (Azar et al.), exactly as the
//! MultiQueue does for priorities.
//!
//! Two family members, mirroring the d-RA / d-CBO line of relaxed-FIFO
//! designs (see `relaxed-queue-simulations` and the PPoPP 2025 d-CBO
//! paper referenced in SNIPPETS.md):
//!
//! * [`DRaQueue`] — **d-RA**: `d` random sub-queue samples per
//!   operation; enqueue goes to the sampled sub-queue with the fewest
//!   live items (balanced allocation on *lengths*), dequeue takes the
//!   oldest visible head among the sampled sub-queues (items carry a
//!   global arrival stamp).
//! * [`DCboQueue`] — **d-CBO** (*choice of balanced operations*): every
//!   shard counts its completed enqueues and dequeues; enqueue goes to
//!   the sampled shard with the fewest enqueues, dequeue pops the
//!   sampled shard with the fewest dequeues. Because both counters stay
//!   balanced, shard heads age at nearly the same rate and popping the
//!   least-dequeued shard approximates global FIFO order — without any
//!   global coordination (two relaxed atomic loads per choice).
//!
//! Both are concurrent (`&self` operations taking the caller's RNG, as
//! the runtime expects) **and** implement the sequential [`RelaxedFifo`]
//! trait for simulation and instrumentation.
//!
//! # Shard backends
//!
//! The sub-queue inside each shard is pluggable through [`SubFifo`]:
//!
//! * [`SegRingQueue`] — lock-free segmented ring buffer, the
//!   **default** backend;
//! * [`MutexSub`] — a `Mutex<VecDeque>` per shard, the locked
//!   reference.
//!
//! See [`lockfree`](crate::lockfree) for the algorithm and for guidance
//! on choosing; `fifo_contention` in `rsched-bench` sweeps both under
//! thread contention.
//!
//! # Worker sessions
//!
//! Long-lived workers drive these queues through a [`FifoSession`]
//! (from [`DRaQueue::session`] / [`DCboQueue::session`]): the amortized
//! epoch pin, a private shard-picker RNG, **owned home shards** drained
//! before any steal ([`pop_session`](DCboQueue::pop_session)), and a
//! bounded **spawn buffer** whose contents publish as one
//! balanced-choice batch ([`flush_session`](DCboQueue::flush_session)).
//! The raw `&self` + caller-RNG operations remain for tests and
//! one-shot callers; the session path is what `rsched-runtime` workers
//! and the contention benchmarks use.
//!
//! [`FifoRankTracker`] wraps any [`RelaxedFifo`] and measures empirical
//! rank errors against a shadow order, mirroring the priority-queue
//! instrumentation in [`instrument`](crate::instrument); its concurrent
//! counterpart is
//! [`ConcurrentRankEstimator`](crate::instrument::ConcurrentRankEstimator).

use crate::lockfree::SegRingQueue;
use crate::telemetry;
use crate::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush, MAX_SPAWN_BATCH};
use crossbeam::epoch;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A queue with relaxed FIFO semantics (sequential interface).
///
/// Dequeue returns *one of the oldest* items; how far from the oldest is
/// bounded by the structure's relaxation. The concurrent members of the
/// family ([`DRaQueue`], [`DCboQueue`]) additionally expose `&self`
/// operations for the runtime; this trait is the sequential-model
/// surface shared by every member, used for simulation and
/// instrumentation.
pub trait RelaxedFifo<T> {
    /// Append `item` (relaxed tail position).
    fn enqueue(&mut self, item: T);

    /// Remove one of the oldest items, or `None` if empty.
    fn dequeue(&mut self) -> Option<T>;

    /// Number of stored items.
    fn len(&self) -> usize;

    /// `true` if no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of internal sub-queues — the scale parameter of the rank
    /// error envelope (1 = exact FIFO).
    fn subqueues(&self) -> usize;
}

// ---------------------------------------------------------------------
// Shard backends
// ---------------------------------------------------------------------

/// A per-operation token that is either borrowed from a live
/// [`PinSession`] or freshly created — so workers holding a session pay
/// no epoch entry at all per operation.
pub enum TokRef<'a, G> {
    /// Borrowed from the session's long-lived guard.
    Borrowed(&'a G),
    /// Freshly created for this operation.
    Owned(G),
}

impl<G> std::ops::Deref for TokRef<'_, G> {
    type Target = G;

    fn deref(&self) -> &G {
        match self {
            TokRef::Borrowed(g) => g,
            TokRef::Owned(g) => g,
        }
    }
}

/// Result of a non-blocking pop attempt on a [`SubFifo`].
#[derive(Debug)]
pub enum TryPop<T> {
    /// Got the sub-queue's head element and its arrival stamp.
    Item((u64, T)),
    /// The sub-queue was observed empty (a hint under concurrency).
    Empty,
    /// The sub-queue is temporarily unavailable (a lock-based backend's
    /// lock is held). Lock-free backends never report this.
    Contended,
}

/// One concurrent sub-queue (shard) of the relaxed FIFO family.
///
/// Elements carry a `u64` arrival stamp alongside the payload so that
/// d-RA's oldest-head dequeue rule can peek stamps without touching the
/// (racily moved-out) payload. d-CBO passes `0` — its policy never reads
/// stamps.
pub trait SubFifo<T>: Send + Sync {
    /// `true` when the backend's operations pin the epoch-reclamation
    /// scheme; lets [`PinSession`] and the runtime know whether holding
    /// an amortized pin is worthwhile.
    const NEEDS_EPOCH: bool = false;

    /// Per-operation protection token: an epoch guard for lock-free
    /// backends, zero-sized for lock-based ones. The composing queue
    /// creates **one** token per relaxed-FIFO operation and threads it
    /// through every sample, peek and pop attempt, so backends never
    /// re-enter the epoch scheme per sub-call.
    type Token;

    /// Produce a token for one composed operation.
    fn token() -> Self::Token;

    /// Borrow the token from a live [`PinSession`] when possible,
    /// falling back to a fresh one.
    fn borrow_token(session: &PinSession) -> TokRef<'_, Self::Token>;

    /// An empty sub-queue.
    fn new() -> Self;

    /// Append `item` stamped with `seq`.
    fn push(&self, seq: u64, item: T, tok: &Self::Token);

    /// Non-blocking pop attempt; never waits for another thread.
    fn try_pop(&self, tok: &Self::Token) -> TryPop<T>;

    /// Pop, waiting for a lock if the backend has one (lock-free
    /// backends are identical to [`try_pop`](SubFifo::try_pop)).
    fn pop_wait(&self, tok: &Self::Token) -> Option<(u64, T)>;

    /// The arrival stamp of the head element, if observable right now
    /// (`None` when empty, unavailable, or not yet published).
    fn head_seq(&self, tok: &Self::Token) -> Option<u64>;
}

/// The PR 1 baseline backend: a mutex around a `VecDeque`.
///
/// Fastest under zero contention (an uncontended lock is cheaper than an
/// epoch pin), worst under oversubscription: a preempted lock holder
/// stalls every other thread on the shard.
#[derive(Debug, Default)]
pub struct MutexSub<T> {
    fifo: Mutex<VecDeque<(u64, T)>>,
}

impl<T: Send> SubFifo<T> for MutexSub<T> {
    type Token = ();

    fn token() {}

    fn borrow_token(_session: &PinSession) -> TokRef<'_, ()> {
        TokRef::Owned(())
    }

    fn new() -> Self {
        MutexSub {
            fifo: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, seq: u64, item: T, _tok: &()) {
        self.fifo.lock().push_back((seq, item));
    }

    fn try_pop(&self, _tok: &()) -> TryPop<T> {
        match self.fifo.try_lock() {
            None => TryPop::Contended,
            Some(mut fifo) => match fifo.pop_front() {
                Some(pair) => TryPop::Item(pair),
                None => TryPop::Empty,
            },
        }
    }

    fn pop_wait(&self, _tok: &()) -> Option<(u64, T)> {
        self.fifo.lock().pop_front()
    }

    fn head_seq(&self, _tok: &()) -> Option<u64> {
        self.fifo
            .try_lock()
            .and_then(|f| f.front().map(|&(s, _)| s))
    }
}

// ---------------------------------------------------------------------
// Shared shard machinery
// ---------------------------------------------------------------------

/// Largest supported `d` for [`DRaQueue`] / [`DCboQueue`] (candidate
/// buffers are stack-allocated at this size).
const MAX_CHOICES: usize = 8;

/// One shard: a sub-queue plus its completed operation counters.
/// Counters are read before popping/pushing (the choice is a heuristic;
/// slight staleness only costs rank error, never correctness).
#[derive(Debug)]
struct Shard<S> {
    sub: S,
    enqueues: AtomicU64,
    dequeues: AtomicU64,
}

impl<S> Shard<S> {
    /// Completed enqueues minus completed dequeues — the approximate
    /// live length (exact when quiescent).
    fn approx_len(&self) -> u64 {
        self.enqueues
            .load(Ordering::Relaxed)
            .saturating_sub(self.dequeues.load(Ordering::Relaxed))
    }
}

fn new_shards<T, S: SubFifo<T>>(n: usize) -> Box<[CachePadded<Shard<S>>]> {
    (0..n)
        .map(|_| {
            CachePadded::new(Shard {
                sub: S::new(),
                enqueues: AtomicU64::new(0),
                dequeues: AtomicU64::new(0),
            })
        })
        .collect()
}

/// How many operations a [`PinSession`] batches under one epoch pin
/// before repinning (bounding how long reclamation can be held up).
const REPIN_EVERY: u32 = 32;

/// An amortized epoch pin for a batch of queue operations.
///
/// Entering the epoch scheme costs a fence; a worker doing millions of
/// operations should not pay it per operation. Every worker session
/// ([`FifoSession`], [`MqSession`](crate::multiqueue::MqSession)) embeds
/// one pin so the per-operation pins inside the queue collapse to
/// counter bumps, and [`tick`](Self::tick) repins every `REPIN_EVERY`
/// (32) calls so the global epoch — and therefore memory reclamation —
/// keeps advancing. For backends that don't use epochs (e.g.
/// [`MutexSub`]) the pin is an inert no-op.
#[derive(Debug, Default)]
pub struct PinSession {
    guard: Option<epoch::Guard>,
    ops: u32,
}

impl PinSession {
    /// A session that pins only if `needs_epoch`.
    pub fn new(needs_epoch: bool) -> Self {
        PinSession {
            guard: needs_epoch.then(epoch::pin),
            ops: 0,
        }
    }

    /// An inert session (for schedulers without epoch reclamation).
    pub fn none() -> Self {
        Self::default()
    }

    /// The held epoch guard, if this session is live. Queue operations
    /// called through the `*_in` variants borrow it instead of pinning.
    pub fn guard(&self) -> Option<&epoch::Guard> {
        self.guard.as_ref()
    }

    /// Count one batched operation, repinning when the batch is full.
    /// Call once per queue operation performed under the session.
    pub fn tick(&mut self) {
        if let Some(guard) = &mut self.guard {
            self.ops += 1;
            if self.ops >= REPIN_EVERY {
                self.ops = 0;
                guard.repin();
            }
        }
    }
}

/// Fill `buf[..d]` with uniform shard samples — the steal-phase
/// candidates (home shards were already drained by the locality phase).
fn fill_candidates<R: Rng>(q: usize, d: usize, rng: &mut R, buf: &mut [usize; MAX_CHOICES]) {
    for c in buf.iter_mut().take(d) {
        *c = rng.gen_range(0..q);
    }
}

// ---------------------------------------------------------------------
// The FIFO worker session
// ---------------------------------------------------------------------

/// A worker's session over a [`DRaQueue`] / [`DCboQueue`] — the single
/// per-worker state object of the relaxed FIFO family (see the
/// worker-session section of the [crate docs](crate)).
///
/// Carries the amortized epoch pin, the worker's private shard-picker
/// RNG, the **owned home shards** drained before any steal, and the
/// bounded **spawn buffer** whose contents publish as one batch to a
/// single balanced-choice shard. Obtained from [`DRaQueue::session`] /
/// [`DCboQueue::session`]; every session operation on the queue takes
/// `&mut` session and `&self` queue, so any number of sessions can work
/// one queue concurrently.
#[derive(Debug)]
pub struct FifoSession<T> {
    pin: PinSession,
    rng: SmallRng,
    /// Home shards, strided across workers (`tid + i·workers mod q`), so
    /// with `workers × shards_per_worker ≤ q` no shard has two owners.
    homes: Vec<usize>,
    /// Index into `homes` of the last home hit — the locality phase
    /// resumes there so a hot home shard keeps serving until it misses.
    rotor: usize,
    buf: Vec<T>,
    /// Spawn-buffer threshold: the configured `spawn_batch`, clamped.
    batch: usize,
}

impl<T> FifoSession<T> {
    /// The home shards this session owns (empty = no affinity).
    pub fn homes(&self) -> &[usize] {
        &self.homes
    }

    /// Elements parked in the spawn buffer, not yet published.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn is_home(&self, shard: usize) -> bool {
        self.homes.contains(&shard)
    }

    fn classify(&self, shard: usize) -> PopSource {
        if self.homes.is_empty() {
            PopSource::Shared
        } else if self.is_home(shard) {
            PopSource::Home
        } else {
            PopSource::Steal
        }
    }
}

/// Build a session over `q` shards from `cfg`: derive the RNG stream,
/// stride the home shards, size the buffer.
fn new_fifo_session<T>(q: usize, cfg: &SessionConfig) -> FifoSession<T> {
    let workers = cfg.workers.max(1);
    let spw = cfg.shards_per_worker.min(q);
    let mut homes = Vec::with_capacity(spw);
    for i in 0..spw {
        let shard = (cfg.tid + i * workers) % q;
        if !homes.contains(&shard) {
            homes.push(shard);
        }
    }
    let batch = cfg.spawn_batch.clamp(1, MAX_SPAWN_BATCH);
    FifoSession {
        pin: PinSession::none(),
        // `cfg.seed` is already the per-worker stream (the config
        // constructors mix the tid in exactly once); re-mixing the tid
        // here would cancel that mix and hand every worker the same
        // picker stream.
        rng: SmallRng::seed_from_u64(cfg.seed),
        homes,
        rotor: 0,
        buf: Vec::with_capacity(if batch > 1 { batch } else { 0 }),
        batch,
    }
}

// ---------------------------------------------------------------------
// d-RA
// ---------------------------------------------------------------------

/// d-RA relaxed FIFO: `d` random choices over sub-FIFO shards.
///
/// Enqueue samples `d` shards uniformly and appends to the one with the
/// fewest live items; dequeue samples `d` shards and removes the *oldest
/// visible head* among them (items carry a global arrival stamp). With
/// `d = 1` both rules degenerate to uniform random placement/removal;
/// with one sub-queue the structure is an exact FIFO.
///
/// Concurrent operations take the caller's RNG (`&self`); the
/// [`RelaxedFifo`] impl provides the sequential-model interface. The
/// shard backend defaults to the lock-free
/// [`SegRingQueue`]; see [`SubFifo`].
///
/// # Examples
///
/// ```
/// use rsched_queues::QueueBuilder;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let q = QueueBuilder::new(8).seed(42).d_ra();
/// let mut rng = SmallRng::seed_from_u64(1);
/// for i in 0..100 {
///     q.enqueue(i, &mut rng);
/// }
/// let first = q.dequeue(&mut rng).unwrap();
/// // Relaxed: one of the oldest items, not necessarily item 0.
/// assert!(first < 100);
/// assert_eq!(q.len(), 99);
/// ```
pub struct DRaQueue<T, S = SegRingQueue<T>> {
    shards: Box<[CachePadded<Shard<S>>]>,
    /// Global arrival stamps (unique, monotone modulo fetch order).
    arrivals: AtomicU64,
    d: usize,
    /// RNG for the sequential [`RelaxedFifo`] interface only; the
    /// concurrent operations take the caller's RNG.
    seq_rng: SmallRng,
    _item: PhantomData<fn() -> T>,
}

impl<T: Send, S: SubFifo<T>> DRaQueue<T, S> {
    /// `subqueues` shards of backend `S` with `d` choices per operation
    /// (`1 ..= MAX_CHOICES`); reached through
    /// [`QueueBuilder`](crate::QueueBuilder).
    pub(crate) fn construct(subqueues: usize, d: usize, seed: u64) -> Self {
        assert!(subqueues > 0, "d-RA needs at least one sub-queue");
        assert!(
            (1..=MAX_CHOICES).contains(&d),
            "d-RA supports 1..={MAX_CHOICES} choices, got {d}"
        );
        Self {
            shards: new_shards::<T, S>(subqueues),
            arrivals: AtomicU64::new(0),
            d,
            seq_rng: SmallRng::seed_from_u64(seed),
            _item: PhantomData,
        }
    }

    /// The number of choices `d`.
    pub fn choices(&self) -> usize {
        self.d
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of stored items, derived from the per-shard operation
    /// counters — exact when quiescent, an approximation mid-flight, and
    /// free of any shared hot-path counter.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.approx_len() as usize).sum()
    }

    /// `true` if empty (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `item` to the sampled shard with the fewest live items.
    pub fn enqueue<R: Rng>(&self, item: T, rng: &mut R) {
        self.enqueue_tok(item, rng, &S::token());
    }

    fn enqueue_tok<R: Rng>(&self, item: T, rng: &mut R, tok: &S::Token) {
        let q = self.shards.len();
        let mut best = rng.gen_range(0..q);
        let mut best_len = self.shards[best].approx_len();
        for _ in 1..self.d {
            let c = rng.gen_range(0..q);
            let l = self.shards[c].approx_len();
            if l < best_len {
                best = c;
                best_len = l;
            }
        }
        let seq = self.arrivals.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[best];
        shard.sub.push(seq, item, tok);
        shard.enqueues.fetch_add(1, Ordering::Relaxed);
    }

    /// Pop the oldest visible head among `d` sampled shards; `None` only
    /// after a full sweep found every shard empty (a hint, not a
    /// linearizable emptiness check — callers own termination detection).
    pub fn dequeue<R: Rng>(&self, rng: &mut R) -> Option<T> {
        self.pop_with_homes(&[], &mut 0, rng, &S::token())
            .map(|(item, _)| item)
    }

    /// Worker-affine dequeue without a session: shard `home % shards` is
    /// drained first, then the choice-of-`d` steal rounds run. The
    /// returned flag is `true` when the element came from a foreign
    /// shard — a steal. Pass `usize::MAX` for no affinity. Workers in a
    /// pool use [`session`](Self::session) + [`pop_session`] instead,
    /// which add multi-shard ownership and the amortized epoch pin.
    ///
    /// [`pop_session`]: Self::pop_session
    pub fn dequeue_from<R: Rng>(&self, home: usize, rng: &mut R) -> Option<(T, bool)> {
        let q = self.shards.len();
        let arr = [home % q.max(1)];
        let homes: &[usize] = if home == usize::MAX { &[] } else { &arr };
        self.pop_with_homes(homes, &mut 0, rng, &S::token())
            .map(|(item, c)| (item, !homes.is_empty() && homes[0] != c))
    }

    /// Open a worker session (see [`FifoSession`]): home shards strided
    /// by `cfg.tid`/`cfg.workers`, spawn buffer of `cfg.spawn_batch`,
    /// epoch pin live iff the backend needs one.
    pub fn session(&self, cfg: &SessionConfig) -> FifoSession<T> {
        let mut s = new_fifo_session(self.shards.len(), cfg);
        s.pin = PinSession::new(S::NEEDS_EPOCH);
        s
    }

    /// Session push: publishes immediately when `spawn_batch == 1`,
    /// otherwise parks the item in the session buffer, auto-flushing a
    /// full buffer. FIFO pushes never merge, so the outcome is
    /// [`SessionPush::Inserted`] or [`SessionPush::Buffered`].
    pub fn push_session(&self, item: T, s: &mut FifoSession<T>) -> PushOutcome {
        if s.batch <= 1 {
            s.pin.tick();
            let tok = S::borrow_token(&s.pin);
            self.enqueue_tok(item, &mut s.rng, &tok);
            return PushOutcome::immediate(SessionPush::Inserted);
        }
        s.buf.push(item);
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

    /// Publish everything parked in the session buffer as **one batch**:
    /// one balanced choice (the session's current home shard competes
    /// with `d − 1` random samples on live length), one arrival-stamp
    /// range claim, one enqueue-counter bump.
    pub fn flush_session(&self, s: &mut FifoSession<T>) -> FlushReport {
        if s.buf.is_empty() {
            return FlushReport::default();
        }
        s.pin.tick();
        let tok = S::borrow_token(&s.pin);
        let q = self.shards.len();
        let mut best = s
            .homes
            .get(s.rotor)
            .copied()
            .unwrap_or_else(|| s.rng.gen_range(0..q));
        let mut best_len = self.shards[best].approx_len();
        for _ in 1..self.d {
            let c = s.rng.gen_range(0..q);
            let l = self.shards[c].approx_len();
            if l < best_len {
                best = c;
                best_len = l;
            }
        }
        let n = s.buf.len() as u64;
        let base = self.arrivals.fetch_add(n, Ordering::Relaxed);
        let shard = &self.shards[best];
        for (i, item) in s.buf.drain(..).enumerate() {
            shard.sub.push(base + i as u64, item, &tok);
        }
        shard.enqueues.fetch_add(n, Ordering::Relaxed);
        telemetry::count(telemetry::OpCount::FlushPublished, n);
        FlushReport {
            published: n,
            merged: 0,
        }
    }

    /// Locality-aware session pop: drain the session's home shards first
    /// (oldest visible home head — [`PopSource::Home`]), then fall back
    /// to the choice-of-`d` steal rounds over random shards
    /// ([`PopSource::Steal`]). Sessions without affinity report
    /// [`PopSource::Shared`]. `None` semantics match
    /// [`dequeue`](Self::dequeue). Buffered spawns are **not** popped
    /// here — flush on a miss (the runtime's worker loop does).
    pub fn pop_session(&self, s: &mut FifoSession<T>) -> Option<(T, PopSource)> {
        s.pin.tick();
        let tok = S::borrow_token(&s.pin);
        let mut rotor = s.rotor;
        let out = self.pop_with_homes(&s.homes, &mut rotor, &mut s.rng, &tok);
        s.rotor = rotor;
        out.map(|(item, shard)| (item, s.classify(shard)))
    }

    /// The shared pop engine: locality phase over `homes`, then steal
    /// rounds, then the oldest-head and full-sweep fallbacks. Returns
    /// the popped item and the shard it came from.
    fn pop_with_homes<R: Rng>(
        &self,
        homes: &[usize],
        rotor: &mut usize,
        rng: &mut R,
        tok: &S::Token,
    ) -> Option<(T, usize)> {
        let q = self.shards.len();
        let d = self.d;
        // Locality phase: start at the home shard with the oldest
        // visible head, then fall through the remaining owned homes in
        // rotor order — a lost race or a contended mutex on one home
        // must not forfeit the whole phase to the steal rounds.
        let nh = homes.len();
        if nh > 0 {
            let mut start = *rotor % nh;
            let mut best: Option<u64> = None;
            for i in 0..nh {
                let idx = (*rotor + i) % nh;
                if let Some(stamp) = self.shards[homes[idx]].sub.head_seq(tok) {
                    if best.is_none_or(|b| stamp < b) {
                        best = Some(stamp);
                        start = idx;
                    }
                }
            }
            for i in 0..nh {
                let idx = (start + i) % nh;
                let c = homes[idx];
                if let TryPop::Item((_, item)) = self.shards[c].sub.try_pop(tok) {
                    *rotor = idx;
                    self.finish_pop(c);
                    telemetry::record(telemetry::OpHist::Steal, 0);
                    return Some((item, c));
                }
            }
        }
        // Steal rounds: `d` random samples, oldest visible head first;
        // shards with no visible head (empty, or a contended mutex
        // backend) are skipped.
        for round in 0..(2 * q + 4) {
            let mut cand = [0usize; MAX_CHOICES];
            fill_candidates(q, d, rng, &mut cand);
            let mut heads = [(u64::MAX, usize::MAX); MAX_CHOICES];
            let mut n = 0;
            for &c in &cand[..d] {
                if let Some(s) = self.shards[c].sub.head_seq(tok) {
                    heads[n] = (s, c);
                    n += 1;
                }
            }
            heads[..n].sort_unstable();
            let mut tried = usize::MAX;
            for &(_, c) in &heads[..n] {
                if c == tried {
                    continue;
                }
                tried = c;
                if let TryPop::Item((_, item)) = self.shards[c].sub.try_pop(tok) {
                    self.finish_pop(c);
                    telemetry::record(telemetry::OpHist::Steal, round as u64);
                    return Some((item, c));
                }
            }
            if self.is_empty() {
                break;
            }
        }
        // Oldest-head fallback over *all* shards: preserves the
        // sequential guarantee that a non-empty queue never reports
        // empty, and keeps the error small at drain tails.
        for _ in 0..2 {
            let oldest = (0..q)
                .filter_map(|c| self.shards[c].sub.head_seq(tok).map(|s| (s, c)))
                .min();
            let Some((_, c)) = oldest else { break };
            if let Some((_, item)) = self.shards[c].sub.pop_wait(tok) {
                self.finish_pop(c);
                telemetry::record(telemetry::OpHist::Steal, (2 * q + 4) as u64);
                return Some((item, c));
            }
        }
        // Final sweep, rotated from a per-thread offset (first home
        // shard if affine, else a random start) so convoys don't all
        // line up on shard 0.
        let start = homes
            .first()
            .copied()
            .unwrap_or_else(|| rng.gen_range(0..q));
        for k in 0..q {
            let c = (start + k) % q;
            if let Some((_, item)) = self.shards[c].sub.pop_wait(tok) {
                self.finish_pop(c);
                telemetry::record(telemetry::OpHist::Sweep, (k + 1) as u64);
                return Some((item, c));
            }
        }
        telemetry::count(telemetry::OpCount::EmptyPop, 1);
        None
    }

    fn finish_pop(&self, c: usize) {
        self.shards[c].dequeues.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T, S: SubFifo<T>> std::fmt::Debug for DRaQueue<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DRaQueue")
            .field("shards", &self.shards.len())
            .field("d", &self.d)
            .field(
                "len",
                &self.shards.iter().map(|s| s.approx_len()).sum::<u64>(),
            )
            .finish()
    }
}

impl<T: Send, S: SubFifo<T>> RelaxedFifo<T> for DRaQueue<T, S> {
    fn enqueue(&mut self, item: T) {
        // Exclusive access: run the concurrent op on a moved-out copy of
        // the sequential RNG (cloning 4 words beats any lock).
        let mut rng = self.seq_rng.clone();
        DRaQueue::enqueue(&*self, item, &mut rng);
        self.seq_rng = rng;
    }

    fn dequeue(&mut self) -> Option<T> {
        let mut rng = self.seq_rng.clone();
        let out = DRaQueue::dequeue(&*self, &mut rng);
        self.seq_rng = rng;
        out
    }

    fn len(&self) -> usize {
        DRaQueue::len(self)
    }

    fn subqueues(&self) -> usize {
        self.num_shards()
    }
}

// ---------------------------------------------------------------------
// d-CBO
// ---------------------------------------------------------------------

/// Concurrent d-CBO relaxed FIFO: choice of two by balanced operation
/// counts over sub-FIFO shards.
///
/// `enqueue` samples `d` shards and appends to the one with the fewest
/// *completed enqueues*; `dequeue` samples `d` shards and pops the one
/// with the fewest *completed dequeues* (skipping empty or contended
/// shards). `None` is returned only after a full sweep found every shard
/// empty — like the workspace's other concurrent queues this is a hint,
/// not a linearizable emptiness check, and callers own termination
/// detection.
///
/// The shard backend defaults to the lock-free
/// [`SegRingQueue`]; see [`SubFifo`].
///
/// # Examples
///
/// ```
/// use rsched_queues::QueueBuilder;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let q = QueueBuilder::new(8).seed(1).d_cbo();
/// let mut rng = SmallRng::seed_from_u64(9);
/// for i in 0..100u64 {
///     q.enqueue(i, &mut rng);
/// }
/// assert_eq!(q.len(), 100);
/// let mut popped = Vec::new();
/// while let Some(v) = q.dequeue(&mut rng) {
///     popped.push(v);
/// }
/// popped.sort_unstable();
/// assert_eq!(popped, (0..100).collect::<Vec<_>>());
/// ```
pub struct DCboQueue<T, S = SegRingQueue<T>> {
    shards: Box<[CachePadded<Shard<S>>]>,
    d: usize,
    /// RNG for the sequential [`RelaxedFifo`] interface only; the
    /// concurrent operations take the caller's RNG.
    seq_rng: SmallRng,
    _item: PhantomData<fn() -> T>,
}

impl<T: Send, S: SubFifo<T>> DCboQueue<T, S> {
    /// Largest supported choice count `d` (the dequeue candidate buffer
    /// is stack-allocated at this size).
    pub const MAX_CHOICES: usize = MAX_CHOICES;

    /// `shards` sub-FIFOs of backend `S` with `d` choices per operation
    /// (`1 ..= MAX_CHOICES`); reached through
    /// [`QueueBuilder`](crate::QueueBuilder).
    pub(crate) fn construct(shards: usize, d: usize, seed: u64) -> Self {
        assert!(shards > 0, "d-CBO needs at least one shard");
        assert!(
            (1..=Self::MAX_CHOICES).contains(&d),
            "d-CBO supports 1..={} choices, got {d}",
            Self::MAX_CHOICES
        );
        Self {
            shards: new_shards::<T, S>(shards),
            d,
            seq_rng: SmallRng::seed_from_u64(seed ^ 0xD_CB0),
            _item: PhantomData,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of stored items, derived from the per-shard operation
    /// counters — exact when quiescent, an approximation mid-flight, and
    /// free of any shared hot-path counter.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.approx_len() as usize).sum()
    }

    /// `true` if empty (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `item` to the sampled shard with the fewest completed
    /// enqueues.
    pub fn enqueue<R: Rng>(&self, item: T, rng: &mut R) {
        self.enqueue_tok(item, rng, &S::token());
    }

    fn enqueue_tok<R: Rng>(&self, item: T, rng: &mut R, tok: &S::Token) {
        let q = self.shards.len();
        let mut best = rng.gen_range(0..q);
        for _ in 1..self.d {
            let c = rng.gen_range(0..q);
            if self.shards[c].enqueues.load(Ordering::Relaxed)
                < self.shards[best].enqueues.load(Ordering::Relaxed)
            {
                best = c;
            }
        }
        let shard = &self.shards[best];
        // d-CBO never reads stamps; the balanced counters are the order.
        shard.sub.push(0, item, tok);
        shard.enqueues.fetch_add(1, Ordering::Relaxed);
    }

    /// Pop from the sampled shard with the fewest completed dequeues;
    /// `None` only after a full sweep found every shard empty.
    pub fn dequeue<R: Rng>(&self, rng: &mut R) -> Option<T> {
        self.pop_with_homes(&[], &mut 0, rng, &S::token())
            .map(|(item, _)| item)
    }

    /// Worker-affine dequeue without a session: shard `home % shards` is
    /// drained first, then the choice-of-`d` steal rounds run. The
    /// returned flag is `true` when the element came from a foreign
    /// shard — a steal. Pass `usize::MAX` for no affinity. Workers in a
    /// pool use [`session`](Self::session) + [`pop_session`] instead.
    ///
    /// [`pop_session`]: Self::pop_session
    pub fn dequeue_from<R: Rng>(&self, home: usize, rng: &mut R) -> Option<(T, bool)> {
        let q = self.shards.len();
        let arr = [home % q.max(1)];
        let homes: &[usize] = if home == usize::MAX { &[] } else { &arr };
        self.pop_with_homes(homes, &mut 0, rng, &S::token())
            .map(|(item, c)| (item, !homes.is_empty() && homes[0] != c))
    }

    /// Open a worker session (see [`FifoSession`]): home shards strided
    /// by `cfg.tid`/`cfg.workers`, spawn buffer of `cfg.spawn_batch`,
    /// epoch pin live iff the backend needs one.
    pub fn session(&self, cfg: &SessionConfig) -> FifoSession<T> {
        let mut s = new_fifo_session(self.shards.len(), cfg);
        s.pin = PinSession::new(S::NEEDS_EPOCH);
        s
    }

    /// Session push: publishes immediately when `spawn_batch == 1`,
    /// otherwise parks the item in the session buffer, auto-flushing a
    /// full buffer. FIFO pushes never merge, so the outcome is
    /// [`SessionPush::Inserted`] or [`SessionPush::Buffered`].
    pub fn push_session(&self, item: T, s: &mut FifoSession<T>) -> PushOutcome {
        if s.batch <= 1 {
            s.pin.tick();
            let tok = S::borrow_token(&s.pin);
            self.enqueue_tok(item, &mut s.rng, &tok);
            return PushOutcome::immediate(SessionPush::Inserted);
        }
        s.buf.push(item);
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

    /// Publish everything parked in the session buffer as **one batch**
    /// to a single shard: the session's current home shard competes with
    /// `d − 1` random samples on completed enqueues, then the whole
    /// batch lands there under one counter bump.
    pub fn flush_session(&self, s: &mut FifoSession<T>) -> FlushReport {
        if s.buf.is_empty() {
            return FlushReport::default();
        }
        s.pin.tick();
        let tok = S::borrow_token(&s.pin);
        let q = self.shards.len();
        let mut best = s
            .homes
            .get(s.rotor)
            .copied()
            .unwrap_or_else(|| s.rng.gen_range(0..q));
        for _ in 1..self.d {
            let c = s.rng.gen_range(0..q);
            if self.shards[c].enqueues.load(Ordering::Relaxed)
                < self.shards[best].enqueues.load(Ordering::Relaxed)
            {
                best = c;
            }
        }
        let n = s.buf.len() as u64;
        let shard = &self.shards[best];
        for item in s.buf.drain(..) {
            // d-CBO never reads stamps; the balanced counters are the order.
            shard.sub.push(0, item, &tok);
        }
        shard.enqueues.fetch_add(n, Ordering::Relaxed);
        telemetry::count(telemetry::OpCount::FlushPublished, n);
        FlushReport {
            published: n,
            merged: 0,
        }
    }

    /// Locality-aware session pop: drain the session's home shards first
    /// ([`PopSource::Home`]), then run the fewest-dequeues choice-of-`d`
    /// steal rounds ([`PopSource::Steal`]). Sessions without affinity
    /// report [`PopSource::Shared`]. Buffered spawns are **not** popped
    /// here — flush on a miss (the runtime's worker loop does).
    pub fn pop_session(&self, s: &mut FifoSession<T>) -> Option<(T, PopSource)> {
        s.pin.tick();
        let tok = S::borrow_token(&s.pin);
        let mut rotor = s.rotor;
        let out = self.pop_with_homes(&s.homes, &mut rotor, &mut s.rng, &tok);
        s.rotor = rotor;
        out.map(|(item, shard)| (item, s.classify(shard)))
    }

    /// The shared pop engine: locality phase over `homes` (round-robin
    /// from the last hit), then fewest-dequeues steal rounds, then the
    /// waiting fallback sweep. Returns the popped item and its shard.
    fn pop_with_homes<R: Rng>(
        &self,
        homes: &[usize],
        rotor: &mut usize,
        rng: &mut R,
        tok: &S::Token,
    ) -> Option<(T, usize)> {
        let q = self.shards.len();
        let d = self.d;
        // Locality phase: keep draining the last hot home shard, falling
        // through the other owned homes on a miss.
        let nh = homes.len();
        for i in 0..nh {
            let idx = (*rotor + i) % nh;
            let c = homes[idx];
            if let TryPop::Item((_, item)) = self.shards[c].sub.try_pop(tok) {
                *rotor = idx;
                self.finish_pop(c);
                telemetry::record(telemetry::OpHist::Steal, 0);
                return Some((item, c));
            }
        }
        // Steal rounds: choice-of-d on completed dequeues, non-blocking.
        for round in 0..(2 * q + 4) {
            let mut cand = [0usize; MAX_CHOICES];
            fill_candidates(q, d, rng, &mut cand);
            let cand = &mut cand[..d];
            cand.sort_by_key(|&c| self.shards[c].dequeues.load(Ordering::Relaxed));
            let mut tried = usize::MAX;
            for &c in cand.iter() {
                if c == tried {
                    continue;
                }
                tried = c;
                if let TryPop::Item((_, item)) = self.shards[c].sub.try_pop(tok) {
                    self.finish_pop(c);
                    telemetry::record(telemetry::OpHist::Steal, round as u64);
                    return Some((item, c));
                }
            }
            if self.is_empty() {
                break;
            }
        }
        // Fallback sweep: visit every shard once, waiting on locks.
        // Rotated from a per-thread offset (first home shard if affine,
        // else a random start) so threads that fall back together fan
        // out over the shards instead of convoying onto shard 0.
        let start = homes
            .first()
            .copied()
            .unwrap_or_else(|| rng.gen_range(0..q));
        for k in 0..q {
            let c = (start + k) % q;
            if let Some((_, item)) = self.shards[c].sub.pop_wait(tok) {
                self.finish_pop(c);
                telemetry::record(telemetry::OpHist::Sweep, (k + 1) as u64);
                return Some((item, c));
            }
        }
        telemetry::count(telemetry::OpCount::EmptyPop, 1);
        None
    }

    fn finish_pop(&self, c: usize) {
        self.shards[c].dequeues.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T, S: SubFifo<T>> std::fmt::Debug for DCboQueue<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DCboQueue")
            .field("shards", &self.shards.len())
            .field("d", &self.d)
            .field(
                "len",
                &self.shards.iter().map(|s| s.approx_len()).sum::<u64>(),
            )
            .finish()
    }
}

impl<T: Send, S: SubFifo<T>> RelaxedFifo<T> for DCboQueue<T, S> {
    fn enqueue(&mut self, item: T) {
        let mut rng = self.seq_rng.clone();
        DCboQueue::enqueue(&*self, item, &mut rng);
        self.seq_rng = rng;
    }

    fn dequeue(&mut self) -> Option<T> {
        let mut rng = self.seq_rng.clone();
        let out = DCboQueue::dequeue(&*self, &mut rng);
        self.seq_rng = rng;
        out
    }

    fn len(&self) -> usize {
        DCboQueue::len(self)
    }

    fn subqueues(&self) -> usize {
        self.num_shards()
    }
}

// ---------------------------------------------------------------------
// Rank-error instrumentation (sequential)
// ---------------------------------------------------------------------

/// Aggregated FIFO rank-error statistics.
#[derive(Clone, Debug, Default)]
pub struct FifoRankStats {
    /// Number of successful dequeues measured.
    pub dequeues: u64,
    /// Largest observed rank error (0 = exact FIFO).
    pub max_error: u64,
    /// Sum of observed rank errors (for the mean).
    pub sum_error: u128,
    /// `hist[e]` = dequeues with rank error `e`; errors beyond the
    /// histogram length land in the last bucket.
    pub hist: Vec<u64>,
}

impl FifoRankStats {
    const HIST_BUCKETS: usize = 1024;

    /// Mean rank error (0.0 = always exact).
    pub fn mean_error(&self) -> f64 {
        if self.dequeues == 0 {
            0.0
        } else {
            self.sum_error as f64 / self.dequeues as f64
        }
    }

    /// Fraction of dequeues that returned the exact oldest item.
    pub fn exact_fraction(&self) -> f64 {
        if self.dequeues == 0 {
            return 0.0;
        }
        self.hist.first().copied().unwrap_or(0) as f64 / self.dequeues as f64
    }

    /// The `q`-quantile (e.g. `0.99`) of the rank-error distribution.
    pub fn error_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        let target = (self.dequeues as f64 * q).ceil() as u64;
        let mut acc = 0u64;
        for (e, &c) in self.hist.iter().enumerate() {
            acc += c;
            if acc >= target {
                return e as u64;
            }
        }
        self.max_error
    }

    pub(crate) fn record(&mut self, error: u64) {
        if self.hist.is_empty() {
            self.hist = vec![0; Self::HIST_BUCKETS];
        }
        self.dequeues += 1;
        self.max_error = self.max_error.max(error);
        self.sum_error += error as u128;
        self.hist[(error as usize).min(Self::HIST_BUCKETS - 1)] += 1;
    }
}

/// A [`RelaxedFifo`] decorator measuring empirical rank errors.
///
/// Items are stamped with a global arrival number on enqueue; on dequeue
/// the error is the count of still-queued items with smaller stamps —
/// the definition from the relaxed-FIFO literature ("the number of items
/// currently in the queue which were inserted before x"). For
/// measurement under real thread contention use
/// [`ConcurrentRankEstimator`](crate::instrument::ConcurrentRankEstimator).
///
/// # Examples
///
/// ```
/// use rsched_queues::fifo::{FifoRankTracker, RelaxedFifo};
/// use rsched_queues::QueueBuilder;
///
/// let mut q = FifoRankTracker::new(QueueBuilder::new(4).seed(7).d_ra());
/// for i in 0..1000 {
///     q.enqueue(i);
/// }
/// while q.dequeue().is_some() {}
/// let s = q.stats();
/// assert_eq!(s.dequeues, 1000);
/// assert!(s.mean_error() < 4.0 * 4.0, "choice-of-two keeps errors near q");
/// ```
#[derive(Debug)]
pub struct FifoRankTracker<T, Q: RelaxedFifo<(u64, T)>> {
    inner: Q,
    next: u64,
    live: BTreeSet<u64>,
    stats: FifoRankStats,
    _item: std::marker::PhantomData<T>,
}

impl<T, Q: RelaxedFifo<(u64, T)>> FifoRankTracker<T, Q> {
    /// Wrap `inner`; the tracker starts empty, so wrap before filling.
    pub fn new(inner: Q) -> Self {
        assert!(inner.is_empty(), "wrap the queue before filling it");
        Self {
            inner,
            next: 0,
            live: BTreeSet::new(),
            stats: FifoRankStats::default(),
            _item: std::marker::PhantomData,
        }
    }

    /// The collected statistics so far.
    pub fn stats(&self) -> &FifoRankStats {
        &self.stats
    }

    /// Consume the tracker, returning the inner queue and the statistics.
    pub fn into_parts(self) -> (Q, FifoRankStats) {
        (self.inner, self.stats)
    }
}

impl<T, Q: RelaxedFifo<(u64, T)>> RelaxedFifo<T> for FifoRankTracker<T, Q> {
    fn enqueue(&mut self, item: T) {
        let seq = self.next;
        self.next += 1;
        self.live.insert(seq);
        self.inner.enqueue((seq, item));
    }

    fn dequeue(&mut self) -> Option<T> {
        let (seq, item) = self.inner.dequeue()?;
        let error = self.live.range(..seq).count() as u64;
        let removed = self.live.remove(&seq);
        debug_assert!(removed, "dequeued an item the shadow does not hold");
        self.stats.record(error);
        Some(item)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn subqueues(&self) -> usize {
        self.inner.subqueues()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueueBuilder;

    fn drain<T, Q: RelaxedFifo<T>>(q: &mut Q) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = q.dequeue() {
            out.push(v);
        }
        out
    }

    #[test]
    fn single_subqueue_is_exact_fifo() {
        let mut q = QueueBuilder::new(1).seed(3).d_ra();
        for i in 0..500 {
            RelaxedFifo::enqueue(&mut q, i);
        }
        assert_eq!(drain(&mut q), (0..500).collect::<Vec<_>>());

        let mut q = FifoRankTracker::new(QueueBuilder::new(1).seed(3).d_ra());
        for i in 0..500 {
            q.enqueue(i);
        }
        drain(&mut q);
        assert_eq!(q.stats().max_error, 0, "one sub-queue is exact");
        assert_eq!(q.stats().exact_fraction(), 1.0);
    }

    #[test]
    fn single_subqueue_exact_on_every_backend() {
        fn check<S: SubFifo<i32>>() {
            let mut q: DRaQueue<i32, S> = QueueBuilder::new(1).seed(3).d_ra_on();
            for i in 0..200 {
                RelaxedFifo::enqueue(&mut q, i);
            }
            assert_eq!(drain(&mut q), (0..200).collect::<Vec<_>>());
            let mut q: DCboQueue<i32, S> = QueueBuilder::new(1).seed(3).d_cbo_on();
            for i in 0..200 {
                RelaxedFifo::enqueue(&mut q, i);
            }
            assert_eq!(drain(&mut q), (0..200).collect::<Vec<_>>());
        }
        check::<MutexSub<i32>>();
        check::<SegRingQueue<i32>>();
    }

    #[test]
    fn dra_conserves_items_under_mixed_ops() {
        let mut q = QueueBuilder::new(8).seed(11).d_ra();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pushed = 0u64;
        let mut got = Vec::new();
        for _ in 0..10_000 {
            if rng.gen_range(0..3) > 0 {
                RelaxedFifo::enqueue(&mut q, pushed);
                pushed += 1;
            } else if let Some(v) = RelaxedFifo::dequeue(&mut q) {
                got.push(v);
            }
        }
        got.extend(drain(&mut q));
        got.sort_unstable();
        assert_eq!(got, (0..pushed).collect::<Vec<_>>());
    }

    #[test]
    fn backend_matrix_conserves_items_under_mixed_ops() {
        fn check<S: SubFifo<u64>>(name: &str) {
            let mut dra: DRaQueue<u64, S> = QueueBuilder::new(6).seed(11).d_ra_on();
            let mut dcbo: DCboQueue<u64, S> = QueueBuilder::new(6).seed(11).d_cbo_on();
            let mut rng = SmallRng::seed_from_u64(5);
            let mut pushed = 0u64;
            let mut got_dra = Vec::new();
            let mut got_dcbo = Vec::new();
            for _ in 0..5_000 {
                if rng.gen_range(0..3) > 0 {
                    RelaxedFifo::enqueue(&mut dra, pushed);
                    RelaxedFifo::enqueue(&mut dcbo, pushed);
                    pushed += 1;
                } else {
                    if let Some(v) = RelaxedFifo::dequeue(&mut dra) {
                        got_dra.push(v);
                    }
                    if let Some(v) = RelaxedFifo::dequeue(&mut dcbo) {
                        got_dcbo.push(v);
                    }
                }
            }
            got_dra.extend(drain(&mut dra));
            got_dcbo.extend(drain(&mut dcbo));
            got_dra.sort_unstable();
            got_dcbo.sort_unstable();
            let want: Vec<u64> = (0..pushed).collect();
            assert_eq!(got_dra, want, "{name}: d-RA lost or duplicated items");
            assert_eq!(got_dcbo, want, "{name}: d-CBO lost or duplicated items");
        }
        check::<MutexSub<u64>>("mutex");
        check::<SegRingQueue<u64>>("segring");
    }

    #[test]
    fn choice_of_two_beats_random_placement() {
        // d = 2 should give a substantially smaller mean rank error than
        // d = 1 (pure random) on the same workload shape.
        let mean_for = |d: usize| {
            let mut q = FifoRankTracker::new(QueueBuilder::new(16).choices(d).seed(77).d_ra());
            for i in 0..20_000 {
                q.enqueue(i);
            }
            while q.dequeue().is_some() {}
            q.stats().mean_error()
        };
        let random = mean_for(1);
        let two = mean_for(2);
        assert!(
            two < random,
            "choice-of-two error {two} not below random {random}"
        );
    }

    #[test]
    fn dcbo_sequential_interface_tracks_errors() {
        let mut q = FifoRankTracker::new(QueueBuilder::new(8).seed(21).d_cbo());
        for i in 0..5_000 {
            q.enqueue(i);
        }
        while q.dequeue().is_some() {}
        let s = q.stats();
        assert_eq!(s.dequeues, 5_000);
        // Balanced operations keep the error around the shard count.
        assert!(
            s.mean_error() <= 4.0 * 8.0,
            "d-CBO mean error {} far beyond shards",
            s.mean_error()
        );
    }

    #[test]
    fn dcbo_concurrent_no_loss_no_duplication() {
        use std::sync::Arc;
        let q: Arc<DCboQueue<usize>> = Arc::new(QueueBuilder::new(6).seed(3).d_cbo());
        let threads = 8;
        let per = 5_000usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
                    let mut got = Vec::new();
                    for i in 0..per {
                        q.enqueue(t * per + i, &mut rng);
                        if i % 2 == 0 {
                            if let Some(v) = q.dequeue(&mut rng) {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let mut rng = SmallRng::seed_from_u64(0);
        while let Some(v) = q.dequeue(&mut rng) {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..threads * per).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn dra_concurrent_no_loss_no_duplication() {
        use std::sync::Arc;
        let q: Arc<DRaQueue<usize>> = Arc::new(QueueBuilder::new(6).seed(3).d_ra());
        let threads = 8;
        let per = 5_000usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t as u64 + 1);
                    let mut got = Vec::new();
                    for i in 0..per {
                        q.enqueue(t * per + i, &mut rng);
                        if i % 2 == 0 {
                            if let Some(v) = q.dequeue(&mut rng) {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let mut rng = SmallRng::seed_from_u64(0);
        while let Some(v) = q.dequeue(&mut rng) {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..threads * per).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn dcbo_home_shard_pops_are_not_steals() {
        // A single worker draining with affinity takes mostly from its
        // home shard at first; the flag distinguishes home from foreign.
        let q: DCboQueue<u64> = QueueBuilder::new(4).seed(9).d_cbo();
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..100 {
            q.enqueue(i, &mut rng);
        }
        let mut home_pops = 0;
        let mut steals = 0;
        while let Some((_, stolen)) = q.dequeue_from(1, &mut rng) {
            if stolen {
                steals += 1;
            } else {
                home_pops += 1;
            }
        }
        assert_eq!(home_pops + steals, 100);
        assert!(home_pops > 0, "home shard never drained");
        assert!(steals > 0, "foreign shards never drained");
    }

    #[test]
    fn session_ops_conserve_items_across_threads() {
        use std::sync::Arc;
        let q: Arc<DCboQueue<usize>> = Arc::new(QueueBuilder::new(4).seed(17).d_cbo());
        let threads = 4;
        let per = 2_000usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut session = q.session(&SessionConfig {
                        spawn_batch: 8,
                        ..SessionConfig::for_worker(t, threads)
                    });
                    for i in 0..per {
                        q.push_session(t * per + i, &mut session);
                    }
                    let rep = q.flush_session(&mut session);
                    assert_eq!(rep.merged, 0, "FIFO flushes never merge");
                });
            }
        });
        let mut drain = q.session(&SessionConfig::unaffine(3));
        let mut seen = std::collections::HashSet::new();
        while let Some((v, src)) = q.pop_session(&mut drain) {
            assert_eq!(src, PopSource::Shared, "unaffine session pops are Shared");
            assert!(seen.insert(v), "duplicate {v}");
        }
        assert_eq!(seen.len(), threads * per);
    }

    #[test]
    fn session_batched_pushes_publish_on_flush() {
        let q: DCboQueue<u64> = QueueBuilder::new(4).seed(5).d_cbo();
        let mut s = q.session(&SessionConfig {
            spawn_batch: 16,
            ..SessionConfig::for_worker(0, 1)
        });
        for i in 0..15u64 {
            let out = q.push_session(i, &mut s);
            assert_eq!(out.push, SessionPush::Buffered);
            assert_eq!(out.flushed, FlushReport::default());
        }
        assert_eq!(s.buffered(), 15);
        assert_eq!(q.len(), 0, "parked spawns are invisible");
        // The 16th push fills the buffer and auto-flushes the batch.
        let out = q.push_session(15, &mut s);
        assert_eq!(out.flushed.published, 16);
        assert_eq!(s.buffered(), 0);
        assert_eq!(q.len(), 16);
        // An explicit flush of an empty buffer is a no-op.
        assert_eq!(q.flush_session(&mut s), FlushReport::default());
    }

    #[test]
    fn session_home_pops_drain_home_first() {
        // One worker owning 2 of 4 shards: everything it pushed through
        // immediate (unbatched) publication is spread over shards, so
        // draining must report both Home and Steal pops, never Shared.
        let q: DCboQueue<u64> = QueueBuilder::new(4).seed(9).d_cbo();
        let cfg = SessionConfig {
            shards_per_worker: 2,
            ..SessionConfig::for_worker(1, 2)
        };
        let mut s = q.session(&cfg);
        assert_eq!(s.homes(), &[1, 3], "strided home assignment");
        for i in 0..200u64 {
            q.push_session(i, &mut s);
        }
        let (mut homes, mut steals) = (0u32, 0u32);
        while let Some((_, src)) = q.pop_session(&mut s) {
            match src {
                PopSource::Home => homes += 1,
                PopSource::Steal => steals += 1,
                PopSource::Shared => panic!("affine session reported Shared"),
            }
        }
        assert_eq!(homes + steals, 200);
        assert!(homes > 0, "home shards never drained first");
        assert!(steals > 0, "foreign shards never stolen from");
    }

    #[test]
    fn dra_session_batch_keeps_fifo_exact_on_one_shard() {
        // A single shard is an exact FIFO even through batched flushes:
        // batches preserve buffer order and stamp order.
        let q: DRaQueue<u64> = QueueBuilder::new(1).seed(3).d_ra();
        let mut s = q.session(&SessionConfig {
            spawn_batch: 7,
            ..SessionConfig::for_worker(0, 1)
        });
        for i in 0..100u64 {
            q.push_session(i, &mut s);
        }
        q.flush_session(&mut s);
        let mut got = Vec::new();
        while let Some((v, _)) = q.pop_session(&mut s) {
            got.push(v);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
