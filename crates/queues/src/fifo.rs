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
//! The one relaxed FIFO is [`DCboQueue`] — **d-CBO** (*choice of
//! balanced operations*, the PPoPP 2025 design behind the
//! `relaxed-queue-simulations` simulator referenced in SNIPPETS.md):
//! every shard counts its completed enqueues and dequeues; enqueue goes
//! to the sampled shard with the fewest enqueues, dequeue pops the
//! sampled shard with the fewest dequeues. Because both counters stay
//! balanced, shard heads age at nearly the same rate and popping the
//! least-dequeued shard approximates global FIFO order — without any
//! global coordination or per-element stamp (two relaxed atomic loads
//! per choice, two choices per operation).
//!
//! It is concurrent (`&self` operations taking the caller's RNG, as the
//! runtime expects) **and** implements the sequential [`RelaxedFifo`]
//! trait for simulation and instrumentation.
//!
//! # Shards
//!
//! Each shard is a `Mutex<VecDeque>` beside its two operation counters:
//! a lock around a sequential queue, the baseline any scalable shard
//! must beat. Every batch takes the lock once. A session flush appends
//! its whole batch under one acquisition, and a session pop claims the
//! head plus its parked successors under one `try_lock`. Choice rounds
//! never wait for a lock: a held one sends the pop on to the next
//! candidate, and only the fallback sweep blocks.
//!
//! # Worker sessions
//!
//! Long-lived workers drive the queue through a [`FifoSession`] (from
//! [`DCboQueue::session`]): a private shard-picker RNG, one **home
//! shard** (`tid % shards`), a bounded **spawn buffer** whose contents
//! publish as one balanced-choice batch
//! ([`flush_session`](DCboQueue::flush_session)), and a **deletion
//! buffer**. A session pop ([`pop_session`](DCboQueue::pop_session))
//! follows d-CBO's own rule — the fewer completed dequeues of two
//! candidates wins — with the home shard as one candidate and a
//! uniform sample as the other, and
//! claims up to `min(spawn_batch / 8, 8)` successors of the winner's
//! head in the same lock acquisition, parking them for the next pops.
//! The raw `&self` + caller-RNG operations remain for tests and
//! one-shot callers; the session path is what `rsched-runtime` workers
//! use.
//!
//! [`FifoRankTracker`] wraps any [`RelaxedFifo`] and measures empirical
//! rank errors against a shadow order, mirroring the priority-queue
//! instrumentation in [`instrument`](crate::instrument); its concurrent
//! counterpart is
//! [`ConcurrentRankEstimator`](crate::instrument::ConcurrentRankEstimator).

use crate::multiqueue::MAX_POP_EXTRA;
use crate::telemetry;
use crate::{FlushReport, PopSource, PushOutcome, SessionConfig, SessionPush, MAX_SPAWN_BATCH};
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// A queue with relaxed FIFO semantics (sequential interface).
///
/// Dequeue returns *one of the oldest* items; how far from the oldest is
/// bounded by the structure's relaxation. The concurrent [`DCboQueue`]
/// additionally exposes `&self` operations for the runtime; this trait
/// is the sequential-model surface that [`FifoRankTracker`] wraps, used
/// for simulation and instrumentation.
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
// Shard machinery
// ---------------------------------------------------------------------

/// Shards sampled per operation: d-CBO's `d`, the classic two choices.
const CHOICES: usize = 2;

/// One shard: a locked sub-FIFO plus its completed operation counters.
/// Counters are read before popping/pushing (the choice is a heuristic;
/// slight staleness only costs rank error, never correctness).
struct Shard<T> {
    fifo: Mutex<VecDeque<T>>,
    enqueues: AtomicU64,
    dequeues: AtomicU64,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Shard {
            fifo: Mutex::new(VecDeque::new()),
            enqueues: AtomicU64::new(0),
            dequeues: AtomicU64::new(0),
        }
    }

    /// Completed enqueues minus completed dequeues — the approximate
    /// live length (exact when quiescent).
    fn approx_len(&self) -> u64 {
        self.enqueues
            .load(Ordering::Relaxed)
            .saturating_sub(self.dequeues.load(Ordering::Relaxed))
    }

    /// Claim the head of the locked `fifo` plus up to `extra` of its
    /// successors (appended to `out`, oldest first) in the caller's one
    /// lock acquisition, counting every claimed item as a dequeue.
    fn claim(
        &self,
        mut fifo: MutexGuard<'_, VecDeque<T>>,
        extra: usize,
        out: &mut Vec<T>,
    ) -> Option<T> {
        let head = fifo.pop_front()?;
        let k = extra.min(fifo.len());
        out.extend(fifo.drain(..k));
        drop(fifo);
        self.dequeues.fetch_add(1 + k as u64, Ordering::Relaxed);
        Some(head)
    }
}

// ---------------------------------------------------------------------
// The FIFO worker session
// ---------------------------------------------------------------------

/// A worker's session over a [`DCboQueue`] — the single per-worker
/// state object of the relaxed FIFO (see the
/// worker-session section of the [crate docs](crate)).
///
/// Carries the worker's private shard-picker RNG, the **home shard**
/// (each pop's first candidate), the bounded **spawn buffer**
/// whose contents publish as one batch to a single balanced-choice
/// shard, and the **deletion buffer** of items claimed together with an
/// earlier pop. Obtained from
/// [`DCboQueue::session`]; every session operation on the queue takes
/// `&mut` session and `&self` queue, so any number of sessions can work
/// one queue concurrently.
#[derive(Debug)]
pub struct FifoSession<T> {
    rng: SmallRng,
    /// The home shard, `tid % q`: with `workers ≤ q` no shard has two
    /// owners. Every choice round and every flush tries it first.
    home: usize,
    buf: Vec<T>,
    /// Spawn-buffer threshold: the configured `spawn_batch`, clamped.
    batch: usize,
    /// The deletion buffer: successors claimed from the shard that won
    /// an earlier pop, newest first (the next pop is the last entry).
    popped: Vec<T>,
    /// Where the deletion buffer's items came from.
    popped_src: PopSource,
    /// Successors a winning shard yields beyond its head; 0 when
    /// `batch < 8`.
    pop_extra: usize,
}

impl<T> FifoSession<T> {
    /// The home shard this session owns.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Elements parked in the spawn buffer, not yet published.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn classify(&self, shard: usize) -> PopSource {
        if shard == self.home {
            PopSource::Home
        } else {
            PopSource::Steal
        }
    }
}

// ---------------------------------------------------------------------
// d-CBO
// ---------------------------------------------------------------------

/// Concurrent d-CBO relaxed FIFO: choice of two by balanced operation
/// counts over locked sub-FIFO shards.
///
/// `enqueue` samples two shards and appends to the one with the fewest
/// *completed enqueues*; `dequeue` samples two shards and pops the one
/// with the fewest *completed dequeues* (skipping empty shards and
/// shards whose lock is held). `None` is returned only after a full
/// sweep found every shard empty — like the workspace's other
/// concurrent queues this is a hint, not a linearizable emptiness
/// check, and callers own termination detection.
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
pub struct DCboQueue<T> {
    shards: Box<[CachePadded<Shard<T>>]>,
    /// RNG for the sequential [`RelaxedFifo`] interface only; the
    /// concurrent operations take the caller's RNG.
    seq_rng: SmallRng,
}

impl<T> DCboQueue<T> {
    /// `shards` sub-FIFOs; reached through
    /// [`QueueBuilder`](crate::QueueBuilder).
    pub(crate) fn construct(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "d-CBO needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
            seq_rng: SmallRng::seed_from_u64(seed ^ 0xD_CB0),
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
        let first = rng.gen_range(0..self.shards.len());
        let shard = &self.shards[self.push_target(first, rng)];
        shard.fifo.lock().push_back(item);
        shard.enqueues.fetch_add(1, Ordering::Relaxed);
    }

    /// The enqueue choice: `first` against `CHOICES − 1` uniform samples,
    /// the shard with the fewest completed enqueues wins (ties keep the
    /// earlier candidate).
    fn push_target<R: Rng>(&self, first: usize, rng: &mut R) -> usize {
        let mut best = first;
        for _ in 1..CHOICES {
            let c = rng.gen_range(0..self.shards.len());
            if self.shards[c].enqueues.load(Ordering::Relaxed)
                < self.shards[best].enqueues.load(Ordering::Relaxed)
            {
                best = c;
            }
        }
        best
    }

    /// Pop from the sampled shard with the fewest completed dequeues;
    /// `None` only after a full sweep found every shard empty.
    pub fn dequeue<R: Rng>(&self, rng: &mut R) -> Option<T> {
        self.pop_with_home(None, rng, 0, &mut Vec::new())
            .map(|(item, _)| item)
    }

    /// Open a worker session (see [`FifoSession`]): home shard
    /// `cfg.tid % shards`, spawn buffer of `cfg.spawn_batch`.
    pub fn session(&self, cfg: &SessionConfig) -> FifoSession<T> {
        let batch = cfg.spawn_batch.clamp(1, MAX_SPAWN_BATCH);
        let pop_extra = (batch / 8).min(MAX_POP_EXTRA);
        FifoSession {
            // `cfg.seed` is already the per-worker stream (the config
            // constructors mix the tid in exactly once); re-mixing the tid
            // here would cancel that mix and hand every worker the same
            // picker stream.
            rng: SmallRng::seed_from_u64(cfg.seed),
            home: cfg.tid % self.shards.len(),
            buf: Vec::with_capacity(if batch > 1 { batch } else { 0 }),
            batch,
            popped: Vec::with_capacity(pop_extra),
            popped_src: PopSource::Home,
            pop_extra,
        }
    }

    /// Session push: publishes immediately when `spawn_batch == 1`,
    /// otherwise parks the item in the session buffer, auto-flushing a
    /// full buffer. FIFO pushes never merge, so the outcome is
    /// [`SessionPush::Inserted`] or [`SessionPush::Buffered`].
    /// The auto-flush publishes spawns only: re-appending parked pops
    /// would queue old items behind newer ones at a shard's tail.
    pub fn push_session(&self, item: T, s: &mut FifoSession<T>) -> PushOutcome {
        if s.batch <= 1 {
            self.enqueue(item, &mut s.rng);
            return PushOutcome::immediate(SessionPush::Inserted);
        }
        s.buf.push(item);
        let flushed = if s.buf.len() >= s.batch {
            self.publish(s, 0)
        } else {
            FlushReport::default()
        };
        PushOutcome {
            push: SessionPush::Buffered,
            flushed,
        }
    }

    /// Publish everything parked in the session — pops still in the
    /// deletion buffer (oldest first), then the spawn buffer — as **one
    /// batch** to a single shard: the session's current home shard
    /// competes with one random sample on completed enqueues, then the
    /// whole batch lands there under one lock acquisition and one
    /// counter bump.
    pub fn flush_session(&self, s: &mut FifoSession<T>) -> FlushReport {
        let parked = s.popped.len();
        self.publish(s, parked)
    }

    /// The batch publication behind both flushes: the `parked` oldest
    /// entries of the deletion buffer, then every buffered spawn.
    fn publish(&self, s: &mut FifoSession<T>, parked: usize) -> FlushReport {
        let n = (parked + s.buf.len()) as u64;
        if n == 0 {
            return FlushReport::default();
        }
        let shard = &self.shards[self.push_target(s.home, &mut s.rng)];
        let oldest = s.popped.len() - parked;
        shard
            .fifo
            .lock()
            .extend(s.popped.drain(oldest..).rev().chain(s.buf.drain(..)));
        shard.enqueues.fetch_add(n, Ordering::Relaxed);
        telemetry::count(telemetry::OpCount::FlushPublished, n);
        FlushReport {
            published: n,
            merged: 0,
        }
    }

    /// Session pop: the deletion buffer first, else d-CBO's choice of two
    /// with the home shard as one candidate, claiming the winner's
    /// head and up to `min(spawn_batch / 8, 8)` successors in one lock
    /// acquisition and parking the successors. Reports
    /// [`PopSource::Home`]/[`PopSource::Steal`] by the winning shard.
    /// Buffered spawns are **not**
    /// popped here — flush on a miss (the runtime's worker loop does).
    pub fn pop_session(&self, s: &mut FifoSession<T>) -> Option<(T, PopSource)> {
        if let Some(item) = s.popped.pop() {
            return Some((item, s.popped_src));
        }
        let (item, shard) =
            self.pop_with_home(Some(s.home), &mut s.rng, s.pop_extra, &mut s.popped)?;
        s.popped.reverse();
        s.popped_src = s.classify(shard);
        Some((item, s.popped_src))
    }

    /// The shared pop engine: fewest-dequeues choice rounds whose first
    /// candidate is `home` or, without one, a uniform sample; then the
    /// waiting fallback sweep.
    /// The winning shard yields its head plus up to `extra` successors
    /// (into `out`, oldest first) under one lock acquisition. Returns the
    /// head and its shard.
    fn pop_with_home<R: Rng>(
        &self,
        home: Option<usize>,
        rng: &mut R,
        extra: usize,
        out: &mut Vec<T>,
    ) -> Option<(T, usize)> {
        let q = self.shards.len();
        // Choice rounds, non-blocking; ties keep the earlier candidate.
        for round in 0..(2 * q + 4) {
            let mut cand: [usize; CHOICES] = std::array::from_fn(|i| match home {
                Some(h) if i == 0 => h,
                _ => rng.gen_range(0..q),
            });
            cand.sort_by_key(|&c| self.shards[c].dequeues.load(Ordering::Relaxed));
            let mut tried = usize::MAX;
            for &c in cand.iter() {
                if c == tried {
                    continue;
                }
                tried = c;
                let shard = &self.shards[c];
                if let Some(item) = shard
                    .fifo
                    .try_lock()
                    .and_then(|f| shard.claim(f, extra, out))
                {
                    telemetry::record(telemetry::OpHist::Steal, round as u64);
                    return Some((item, c));
                }
            }
            if self.is_empty() {
                break;
            }
        }
        // Fallback sweep: visit every shard once, waiting on locks.
        // Rotated from a per-thread offset (the home shard, else a
        // random start) so threads that fall back together fan out over
        // the shards instead of convoying onto shard 0.
        let start = home.unwrap_or_else(|| rng.gen_range(0..q));
        for k in 0..q {
            let c = (start + k) % q;
            let shard = &self.shards[c];
            if let Some(item) = shard.claim(shard.fifo.lock(), extra, out) {
                telemetry::record(telemetry::OpHist::Sweep, (k + 1) as u64);
                return Some((item, c));
            }
        }
        telemetry::count(telemetry::OpCount::EmptyPop, 1);
        None
    }
}

impl<T> std::fmt::Debug for DCboQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DCboQueue")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> RelaxedFifo<T> for DCboQueue<T> {
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
/// let mut q = FifoRankTracker::new(QueueBuilder::new(4).seed(7).d_cbo());
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
        let mut q = FifoRankTracker::new(QueueBuilder::new(1).seed(3).d_cbo());
        for i in 0..500 {
            q.enqueue(i);
        }
        assert_eq!(drain(&mut q), (0..500).collect::<Vec<_>>());
        assert_eq!(q.stats().max_error, 0, "one sub-queue is exact");
        assert_eq!(q.stats().exact_fraction(), 1.0);
    }

    #[test]
    fn conserves_items_under_mixed_ops() {
        let mut q: DCboQueue<u64> = QueueBuilder::new(6).seed(11).d_cbo();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pushed = 0u64;
        let mut got = Vec::new();
        for _ in 0..5_000 {
            if rng.gen_range(0..3) > 0 {
                RelaxedFifo::enqueue(&mut q, pushed);
                pushed += 1;
            } else if let Some(v) = RelaxedFifo::dequeue(&mut q) {
                got.push(v);
            }
        }
        got.extend(drain(&mut q));
        got.sort_unstable();
        assert_eq!(
            got,
            (0..pushed).collect::<Vec<_>>(),
            "lost or duplicated items"
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
        let mut drain = q.session(&SessionConfig {
            seed: 3,
            ..SessionConfig::default()
        });
        let mut seen = std::collections::HashSet::new();
        while let Some((v, src)) = q.pop_session(&mut drain) {
            assert_ne!(src, PopSource::Shared, "FIFO pops are Home or Steal");
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
    fn session_pops_classify_home_and_steal() {
        // One worker owning 1 of 4 shards: everything it pushed through
        // immediate (unbatched) publication is spread over shards, so
        // draining must report both Home and Steal pops, never Shared.
        let q: DCboQueue<u64> = QueueBuilder::new(4).seed(9).d_cbo();
        let mut s = q.session(&SessionConfig::for_worker(1, 2));
        assert_eq!(s.home(), 1, "home shard is tid % shards");
        for i in 0..200u64 {
            q.push_session(i, &mut s);
        }
        let (mut home_pops, mut steals) = (0u32, 0u32);
        while let Some((_, src)) = q.pop_session(&mut s) {
            match src {
                PopSource::Home => home_pops += 1,
                PopSource::Steal => steals += 1,
                PopSource::Shared => panic!("a FIFO session reported Shared"),
            }
        }
        assert_eq!(home_pops + steals, 200);
        assert!(home_pops > 0, "home shard never won a choice");
        assert!(steals > 0, "foreign shards never stolen from");
    }

    fn batched(spawn_batch: usize) -> SessionConfig {
        SessionConfig {
            spawn_batch,
            ..SessionConfig::for_worker(0, 1)
        }
    }

    #[test]
    fn auto_flush_keeps_parked_pops_parked() {
        // One shard is an exact FIFO. An auto-flush that re-appended the
        // parked pops 1..=8 would queue them behind 9..100.
        let q: DCboQueue<u64> = QueueBuilder::new(1).seed(3).d_cbo();
        let mut s = q.session(&batched(64));
        for i in 0..100u64 {
            q.push_session(i, &mut s);
        }
        q.flush_session(&mut s);
        assert_eq!(q.pop_session(&mut s), Some((0, PopSource::Home)));
        assert_eq!(s.popped.len(), 8, "items 1..=8 are parked");
        for i in 100..164u64 {
            q.push_session(i, &mut s);
        }
        assert_eq!(s.buffered(), 0, "the 64th push auto-flushed");
        assert_eq!(s.popped.len(), 8, "the auto-flush left the parked pops");
        let mut got = vec![0];
        while let Some((v, _)) = q.pop_session(&mut s) {
            got.push(v);
        }
        assert_eq!(got, (0..164).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_flush_returns_parked_pops_and_conserves() {
        let q: DCboQueue<u64> = QueueBuilder::new(1).seed(3).d_cbo();
        let mut s = q.session(&batched(64));
        for i in 0..40u64 {
            q.push_session(i, &mut s);
        }
        assert_eq!(q.flush_session(&mut s).published, 40);
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(q.pop_session(&mut s).expect("queue holds 40").0);
        }
        assert_eq!(got, [0, 1], "the second pop is served from the buffer");
        assert_eq!((s.popped.len(), q.len()), (7, 31));
        for i in 40..43u64 {
            q.push_session(i, &mut s);
        }
        let rep = q.flush_session(&mut s);
        assert_eq!((rep.published, rep.merged), (7 + 3, 0));
        assert_eq!((s.popped.len(), s.buffered(), q.len()), (0, 0, 41));
        while let Some((v, _)) = q.pop_session(&mut s) {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..43).collect::<Vec<_>>(), "lost or duplicated");
    }

    #[test]
    fn every_claim_is_one_consecutive_run() {
        // Two sessions race over one exact-FIFO shard prefilled in order.
        // A claim takes the head and its successors under one lock, so
        // the other popper can never interleave inside a claim.
        const N: u64 = 20_000;
        let q: DCboQueue<u64> = QueueBuilder::new(1).seed(3).d_cbo();
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..N {
            q.enqueue(i, &mut rng);
        }
        let (q, start) = (&q, &std::sync::Barrier::new(2));
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    scope.spawn(move || {
                        let mut s = q.session(&SessionConfig {
                            spawn_batch: 64,
                            ..SessionConfig::for_worker(t, 2)
                        });
                        let mut got = Vec::new();
                        start.wait();
                        while let Some((head, _)) = q.pop_session(&mut s) {
                            let claim: Vec<u64> = std::iter::once(head)
                                .chain(s.popped.drain(..).rev())
                                .collect();
                            assert!(
                                claim.windows(2).all(|w| w[1] == w[0] + 1),
                                "claim {claim:?} is not one consecutive run"
                            );
                            got.extend(claim);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..N).collect::<Vec<_>>(), "lost or duplicated");
        assert!(q.is_empty());
    }

    #[test]
    fn unbatched_session_never_parks_a_pop() {
        let q: DCboQueue<u64> = QueueBuilder::new(1).seed(3).d_cbo();
        let mut s = q.session(&SessionConfig::for_worker(0, 1));
        for i in 0..20u64 {
            q.push_session(i, &mut s);
        }
        assert!(q.pop_session(&mut s).is_some());
        assert_eq!((s.popped.len(), q.len()), (0, 19));
    }

    #[test]
    fn session_batch_keeps_fifo_exact_on_one_shard() {
        // A single shard is an exact FIFO even through batched flushes:
        // a flush publishes its batch in buffer order.
        let q: DCboQueue<u64> = QueueBuilder::new(1).seed(3).d_cbo();
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
