//! Per-operation progress telemetry: lock-free log₂ histograms and
//! runtime event counters.
//!
//! "Are Lock-Free Concurrent Algorithms Practically Wait-Free?"
//! (Alistarh, Censor-Hillel, Shavit) makes the case that the
//! scientifically interesting signal of a lock-free structure under
//! contention is not its mean throughput but the **tail of its per-op
//! step/retry distribution** — a practically-wait-free structure keeps
//! that tail collapsed even when the worst case is unbounded. This
//! module gives every hot path in the crate a way to feed that
//! distribution without perturbing it:
//!
//! * [`PowHistogram`] — a fixed-footprint, mergeable histogram with one
//!   relaxed atomic counter per power-of-two bucket. Recording is a
//!   single `fetch_add`; quantile extraction ([`PowHistogram::quantile`])
//!   resolves to the containing bucket's upper bound, so p99/p999 are
//!   conservative (never under-reported) at ≤ 2× resolution.
//! * A thread-local [`OpRecorder`] — plain (non-atomic) bucket arrays
//!   and counters that hot paths bump through [`record`] / [`count`],
//!   folded into the global histograms when the thread exits or on
//!   [`flush_local`]. Zero allocation after the first record on a
//!   thread; zero shared-memory traffic per operation.
//! * A process-wide enable gate ([`enabled`], env `RSCHED_TELEMETRY`,
//!   default on): when off, every [`record`]/[`count`] call is one
//!   relaxed atomic load and a predictable branch — no TLS access, no
//!   stores.
//!
//! What the crate records where:
//!
//! | series | kind | fed by |
//! |---|---|---|
//! | [`OpHist::Retry`] | CAS retries per successful claim | `SegRingQueue` pop claim loop, `SkipShard` claim/help-unlink loop |
//! | [`OpHist::Steal`] | choice/probe rounds per successful pop | `DRaQueue`/`DCboQueue`/`ConcurrentMultiQueue` pop engines |
//! | [`OpHist::Sweep`] | fallback-sweep shards visited per rescue pop | the rotated full-sweep fallbacks of the same engines |
//! | [`OpHist::Tick`] | per-op handler duration in nanoseconds | the `rsched-runtime` service loop |
//! | [`OpCount::EmptyPop`] | pops that swept everything and found nothing | all pop engines |
//! | [`OpCount::RegistryProbe`] | item-registry slot probes | `SkipShard` keyed operations |
//! | [`OpCount::FlushPublished`] / [`OpCount::FlushMerged`] | session flush volume and merge ratio | every `flush_session` |
//!
//! Epoch-reclamation progress (`gc_deferred` / `gc_collected`) comes
//! from the vendored `crossbeam::epoch` counters and is folded into the
//! [`TelemetrySnapshot`] as a delta since the last [`reset`].
//!
//! # Trial protocol
//!
//! Benchmarks bracket a measured window with [`reset`] (after prefill,
//! before the barrier drops) and [`capture`] (after the worker threads
//! joined — exiting threads auto-flush their recorders, and `capture`
//! flushes the calling thread's). The state is process-global: two
//! concurrent trials would interleave their counts, so trial runners
//! measure one configuration at a time (as the contention benches do).

use crossbeam::epoch;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Number of buckets in a [`PowHistogram`]: bucket 0 holds the value 0,
/// bucket `i` (1 ≤ i ≤ 62) holds `[2^(i-1), 2^i - 1]`, bucket 63 holds
/// everything from `2^62` up.
pub const HIST_BUCKETS: usize = 64;

/// The bucket index for `v` (log₂ bucketing, see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The largest value bucket `i` can hold — what [`PowHistogram`]
/// quantiles resolve to, so reported quantiles are conservative.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= HIST_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A lock-free, fixed-footprint log₂-bucketed histogram.
///
/// One relaxed atomic counter per power-of-two bucket: recording is a
/// single `fetch_add` with no allocation, merging is element-wise
/// addition (associative and commutative — merge order never changes
/// the result), and quantiles resolve to bucket upper bounds.
///
/// # Examples
///
/// ```
/// use rsched_queues::telemetry::PowHistogram;
///
/// let h = PowHistogram::new();
/// for v in [0, 1, 1, 3, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(0.5), 1);
/// assert_eq!(h.quantile(1.0), 255); // 200 rounds up to its bucket cap
/// ```
#[derive(Debug)]
pub struct PowHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for PowHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PowHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` observations of `v`.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n > 0 {
            self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Fold `other`'s counts into `self` (element-wise addition).
    pub fn merge_from(&self, other: &PowHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// A plain snapshot of the bucket counts.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing the rank-`⌈q·count⌉` observation; `0` when empty.
    /// Conservative: never smaller than the true quantile, at most one
    /// power of two larger.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile wants 0.0..=1.0");
        quantile_of(&self.buckets(), q)
    }

    /// Upper bound of the highest non-empty bucket (`0` when empty).
    pub fn max_observed(&self) -> u64 {
        let snap = self.buckets();
        max_of(&snap)
    }
}

fn quantile_of(buckets: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut acc = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        acc += c;
        if acc >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(HIST_BUCKETS - 1)
}

fn max_of(buckets: &[u64; HIST_BUCKETS]) -> u64 {
    buckets
        .iter()
        .rposition(|&c| c > 0)
        .map(bucket_upper)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Series identifiers
// ---------------------------------------------------------------------

/// The histogram series the hot paths feed (see the module table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpHist {
    /// CAS retries per successful lock-free claim.
    Retry = 0,
    /// Choice/probe rounds per successful pop (0 = first attempt won).
    Steal = 1,
    /// Shards visited by a fallback sweep before it rescued a pop.
    Sweep = 2,
    /// Per-op duration ticks (nanoseconds) — recorded by the runtime's
    /// service loop around each task it executes (the closed-loop
    /// `run` never reads the clock per task), so log₂ bucket k holds
    /// ops that ran for [2^(k-1), 2^k) ns.
    Tick = 3,
}

/// Number of [`OpHist`] series.
pub const N_HISTS: usize = 4;

/// The plain counter series (see the module table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCount {
    /// Pops that swept every shard and found nothing.
    EmptyPop = 0,
    /// `SkipShard` item-registry slot probes.
    RegistryProbe = 1,
    /// Elements published by session flushes.
    FlushPublished = 2,
    /// Of those, elements that merged into existing entries.
    FlushMerged = 3,
}

/// Number of [`OpCount`] series.
pub const N_COUNTS: usize = 4;

// ---------------------------------------------------------------------
// Global state + enable gate
// ---------------------------------------------------------------------

const GATE_UNSET: u8 = 0;
const GATE_ON: u8 = 1;
const GATE_OFF: u8 = 2;

/// Tri-state so the first [`enabled`] call can consult the
/// `RSCHED_TELEMETRY` environment variable exactly once.
static GATE: AtomicU8 = AtomicU8::new(GATE_UNSET);

/// `true` when recording is on. One relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        GATE_ON => true,
        GATE_OFF => false,
        _ => init_gate_from_env(),
    }
}

#[cold]
fn init_gate_from_env() -> bool {
    let on = std::env::var("RSCHED_TELEMETRY").map_or(true, |v| v != "0");
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    on
}

/// Turn recording on or off process-wide (overrides the env default).
pub fn set_enabled(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
}

struct Global {
    hists: [PowHistogram; N_HISTS],
    counts: [AtomicU64; N_COUNTS],
}

static GLOBAL: Global = Global {
    hists: [const { PowHistogram::new() }; N_HISTS],
    counts: [const { AtomicU64::new(0) }; N_COUNTS],
};

/// Epoch GC counter values at the last [`reset`] — snapshots report the
/// delta, since the vendored counters are process-lifetime monotone.
static GC_BASE_DEFERRED: AtomicU64 = AtomicU64::new(0);
static GC_BASE_COLLECTED: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------
// The thread-local recorder
// ---------------------------------------------------------------------

/// A worker thread's private telemetry buffer: plain bucket arrays and
/// counters, no atomics, no allocation. Folded into the global state on
/// thread exit (TLS destructor) or [`flush_local`].
#[derive(Debug)]
pub struct OpRecorder {
    hists: [[u64; HIST_BUCKETS]; N_HISTS],
    counts: [u64; N_COUNTS],
    dirty: bool,
}

impl OpRecorder {
    const fn new() -> Self {
        Self {
            hists: [[0; HIST_BUCKETS]; N_HISTS],
            counts: [0; N_COUNTS],
            dirty: false,
        }
    }

    #[inline]
    fn record(&mut self, h: OpHist, v: u64) {
        self.hists[h as usize][bucket_of(v)] += 1;
        self.dirty = true;
    }

    #[inline]
    fn count(&mut self, c: OpCount, n: u64) {
        self.counts[c as usize] += n;
        self.dirty = true;
    }

    fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        for (series, local) in GLOBAL.hists.iter().zip(self.hists.iter_mut()) {
            for (i, n) in local.iter_mut().enumerate() {
                if *n > 0 {
                    series.buckets[i].fetch_add(*n, Ordering::Relaxed);
                    *n = 0;
                }
            }
        }
        for (series, n) in GLOBAL.counts.iter().zip(self.counts.iter_mut()) {
            if *n > 0 {
                series.fetch_add(*n, Ordering::Relaxed);
                *n = 0;
            }
        }
        self.dirty = false;
    }

    fn clear(&mut self) {
        if self.dirty {
            self.hists = [[0; HIST_BUCKETS]; N_HISTS];
            self.counts = [0; N_COUNTS];
            self.dirty = false;
        }
    }
}

impl Drop for OpRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static RECORDER: RefCell<OpRecorder> = const { RefCell::new(OpRecorder::new()) };
}

/// Record one observation of `v` into histogram series `h`. No-op (one
/// relaxed load) when telemetry is off.
#[inline]
pub fn record(h: OpHist, v: u64) {
    if !enabled() {
        return;
    }
    let _ = RECORDER.try_with(|r| r.borrow_mut().record(h, v));
}

/// Add `n` to counter series `c`. No-op when telemetry is off or `n == 0`.
#[inline]
pub fn count(c: OpCount, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    let _ = RECORDER.try_with(|r| r.borrow_mut().count(c, n));
}

/// Fold the calling thread's recorder into the global state. Exiting
/// threads do this automatically; long-lived threads (a bench's main
/// thread) call it before [`capture`].
pub fn flush_local() {
    let _ = RECORDER.try_with(|r| r.borrow_mut().flush());
}

/// Zero the global state, discard the calling thread's buffered events,
/// and re-anchor the epoch-GC baseline. The start of a measured window.
pub fn reset() {
    let _ = RECORDER.try_with(|r| r.borrow_mut().clear());
    for h in GLOBAL.hists.iter() {
        h.reset();
    }
    for c in GLOBAL.counts.iter() {
        c.store(0, Ordering::Relaxed);
    }
    let (deferred, collected) = epoch::gc_counters();
    GC_BASE_DEFERRED.store(deferred, Ordering::Relaxed);
    GC_BASE_COLLECTED.store(collected, Ordering::Relaxed);
}

/// Flush the calling thread and snapshot everything recorded since the
/// last [`reset`]. The end of a measured window (worker threads must
/// have exited or flushed themselves).
pub fn capture() -> TelemetrySnapshot {
    flush_local();
    let (deferred, collected) = epoch::gc_counters();
    TelemetrySnapshot {
        retry: HistSnapshot::of(&GLOBAL.hists[OpHist::Retry as usize]),
        steal: HistSnapshot::of(&GLOBAL.hists[OpHist::Steal as usize]),
        sweep: HistSnapshot::of(&GLOBAL.hists[OpHist::Sweep as usize]),
        tick: HistSnapshot::of(&GLOBAL.hists[OpHist::Tick as usize]),
        empty_pops: GLOBAL.counts[OpCount::EmptyPop as usize].load(Ordering::Relaxed),
        registry_probes: GLOBAL.counts[OpCount::RegistryProbe as usize].load(Ordering::Relaxed),
        seg_installs: 0,
        flush_published: GLOBAL.counts[OpCount::FlushPublished as usize].load(Ordering::Relaxed),
        flush_merged: GLOBAL.counts[OpCount::FlushMerged as usize].load(Ordering::Relaxed),
        gc_deferred: deferred.saturating_sub(GC_BASE_DEFERRED.load(Ordering::Relaxed)),
        gc_collected: collected.saturating_sub(GC_BASE_COLLECTED.load(Ordering::Relaxed)),
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A point-in-time copy of one histogram series: the raw bucket counts
/// plus the derived quantiles the JSON schema exports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Raw log₂ bucket counts (see [`bucket_of`] / [`bucket_upper`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Upper bound of the highest non-empty bucket.
    pub max: u64,
}

impl HistSnapshot {
    /// Snapshot a live histogram: bucket counts plus the derived
    /// quantiles. Non-resetting, like everything else here.
    pub fn of(h: &PowHistogram) -> Self {
        let buckets = h.buckets();
        Self {
            count: buckets.iter().sum(),
            p50: quantile_of(&buckets, 0.50),
            p90: quantile_of(&buckets, 0.90),
            p99: quantile_of(&buckets, 0.99),
            p999: quantile_of(&buckets, 0.999),
            max: max_of(&buckets),
            buckets: buckets.to_vec(),
        }
    }
}

/// Everything recorded over one measured window — what `PoolStats` and
/// the contention benches export into the shared JSON schema.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// CAS retries per successful lock-free claim.
    pub retry: HistSnapshot,
    /// Choice/probe rounds per successful pop.
    pub steal: HistSnapshot,
    /// Fallback-sweep lengths.
    pub sweep: HistSnapshot,
    /// Per-op duration ticks in nanoseconds (runtime service loop only).
    pub tick: HistSnapshot,
    /// Pops that swept everything and found nothing.
    pub empty_pops: u64,
    /// `SkipShard` registry slot probes.
    pub registry_probes: u64,
    /// Always 0: nothing feeds it any more. The field and its Metrics
    /// wire slot stay because `benchmark/` reads them.
    pub seg_installs: u64,
    /// Elements published by session flushes.
    pub flush_published: u64,
    /// Of those, elements merged into existing entries.
    pub flush_merged: u64,
    /// Epoch reclamations deferred during the window.
    pub gc_deferred: u64,
    /// Epoch reclamations collected during the window.
    pub gc_collected: u64,
}

impl TelemetrySnapshot {
    /// `flush_merged / flush_published` (0.0 when nothing flushed).
    pub fn flush_merge_ratio(&self) -> f64 {
        if self.flush_published == 0 {
            0.0
        } else {
            self.flush_merged as f64 / self.flush_published as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        for i in 1..=62usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_of(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_of(hi), i, "high edge of bucket {i}");
            assert_eq!(bucket_upper(i), hi);
        }
        assert_eq!(bucket_of(1u64 << 62), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn concurrent_record_storm_matches_sequential_reference() {
        let h = PowHistogram::new();
        let threads = 8usize;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = &h;
                s.spawn(move || {
                    for i in 0..per {
                        h.record(i.wrapping_mul(t as u64 + 1) % 1000);
                    }
                });
            }
        });
        let reference = PowHistogram::new();
        for t in 0..threads {
            for i in 0..per {
                reference.record(i.wrapping_mul(t as u64 + 1) % 1000);
            }
        }
        assert_eq!(h.buckets(), reference.buckets());
        assert_eq!(h.count(), threads as u64 * per);
    }

    #[test]
    fn merge_is_associative() {
        let parts: Vec<PowHistogram> = (0..3)
            .map(|t| {
                let h = PowHistogram::new();
                for i in 0..100u64 {
                    h.record(i * (t + 1));
                }
                h
            })
            .collect();
        // (a ⊕ b) ⊕ c
        let left = PowHistogram::new();
        left.merge_from(&parts[0]);
        left.merge_from(&parts[1]);
        left.merge_from(&parts[2]);
        // a ⊕ (b ⊕ c)
        let bc = PowHistogram::new();
        bc.merge_from(&parts[1]);
        bc.merge_from(&parts[2]);
        let right = PowHistogram::new();
        right.merge_from(&parts[0]);
        right.merge_from(&bc);
        assert_eq!(left.buckets(), right.buckets());
        assert_eq!(left.count(), 300);
    }

    #[test]
    fn quantiles_on_hand_computed_inputs() {
        let h = PowHistogram::new();
        // 90 zeros, 9 fours, 1 one-thousand: p50=0, p90=0 (rank 90 is the
        // last zero), p99=7 (4 lands in bucket [4,7]), p999→1000's bucket.
        h.record_n(0, 90);
        h.record_n(4, 9);
        h.record(1000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 0);
        assert_eq!(h.quantile(0.90), 0);
        assert_eq!(h.quantile(0.99), 7);
        assert_eq!(h.quantile(0.999), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.max_observed(), 1023);
        // Empty histogram: every quantile is 0.
        let empty = PowHistogram::new();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.max_observed(), 0);
        // Quantiles are monotone in q.
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn snapshot_quantiles_match_histogram() {
        reset();
        set_enabled(true);
        for v in [0u64, 1, 2, 3, 200] {
            record(OpHist::Retry, v);
        }
        count(OpCount::EmptyPop, 3);
        count(OpCount::FlushPublished, 10);
        count(OpCount::FlushMerged, 4);
        let snap = capture();
        assert!(snap.retry.count >= 5);
        assert!(snap.retry.max >= 255);
        assert!(snap.empty_pops >= 3);
        assert!(snap.flush_published >= 10);
        assert!(snap.flush_merge_ratio() > 0.0);
        assert_eq!(snap.retry.buckets.len(), HIST_BUCKETS);
        assert_eq!(
            snap.retry.buckets.iter().sum::<u64>(),
            snap.retry.count,
            "bucket array is consistent with the count"
        );
    }

    #[test]
    fn disabled_gate_drops_records() {
        // Only checks the gate wiring; uses the series nothing in this
        // crate feeds, to avoid racing tests that enable recording.
        set_enabled(false);
        let before = GLOBAL.hists[OpHist::Tick as usize].count();
        record(OpHist::Tick, 42);
        flush_local();
        let after = GLOBAL.hists[OpHist::Tick as usize].count();
        set_enabled(true);
        assert_eq!(before, after, "disabled telemetry must not record");
    }
}
