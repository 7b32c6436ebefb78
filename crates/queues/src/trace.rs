//! Flight-recorder tracing: per-worker event rings and Chrome-trace
//! export.
//!
//! The [`telemetry`](crate::telemetry) layer answers *how bad* the
//! tails are; this module answers *when and why* a tail event happened.
//! It is an always-compiled, env-gated flight recorder: every thread
//! that participates in scheduling owns a fixed-capacity ring of packed
//! 16-byte events ([`EventKind`] + nanosecond timestamp + payload) with
//! wrap-around overwrite, so
//!
//! * the steady-state cost of a recorded event is one monotonic clock
//!   read and a handful of relaxed stores into thread-owned cache lines
//!   (no allocation, no locks, no shared-memory contention), and
//! * a crash or a stall always leaves the **last N events per worker**
//!   inspectable — exactly the window a convoy/stall forensics pass
//!   needs.
//!
//! Rings are single-producer (the owning thread) / snapshot-consumer
//! ([`snapshot`], read at `run()`/drain boundaries). Lanes are
//! pooled: when a thread exits, its ring goes back to a free list and
//! the next thread reuses it, so trial-per-rep benchmarks do not grow
//! the registry without bound. Timestamps come from one process-wide
//! [`Instant`] epoch, so they are comparable — and monotone — across
//! lanes.
//!
//! # Gate
//!
//! This is the workspace's one instrumentation switch (the
//! [`telemetry`](crate::telemetry) counters always record). It reads
//! `RSCHED_TRACE` once, default **off**; [`set_enabled`] overrides it
//! (tests use this). When off, each instrumentation point costs a
//! single relaxed atomic load and a predictable branch.
//!
//! # Knobs
//!
//! | env | meaning | default |
//! |---|---|---|
//! | `RSCHED_TRACE` | the gate (`1` on, `0` off) | off |
//! | `RSCHED_TRACE_OUT` | Chrome-trace export path | `rsched_trace.json` |
//!
//! Each lane's ring holds the last [`RING_EVENTS`] events.
//!
//! # Export
//!
//! [`chrome_trace_json`] renders lane snapshots as Chrome trace-event
//! JSON (the `chrome://tracing` / Perfetto format): one process
//! (`pid` 1) per run, one `tid` per lane, `B`/`E` duration events for
//! [`EventKind::TaskPop`] → [`EventKind::TaskComplete`] spans, and `i`
//! instant events for everything else (parks, steals, flushes,
//! admission rejects). Open the file at <https://ui.perfetto.dev> (or
//! `chrome://tracing`) to see per-worker timelines. The runtime exports
//! through [`export_if_configured`] at the end of every `run()` and at
//! `ServiceHandle::join`; each export overwrites the last.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------

const GATE_UNSET: u8 = 0;
const GATE_ON: u8 = 1;
const GATE_OFF: u8 = 2;

/// Tri-state so the first [`enabled`] call can consult the
/// `RSCHED_TRACE` environment variable exactly once.
static GATE: AtomicU8 = AtomicU8::new(GATE_UNSET);

/// `true` when the flight recorder is on. One relaxed load on the hot
/// path — this is the *entire* disabled-path cost of every [`emit`].
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
    // Default OFF: tracing is a forensics tool, not an ambient cost.
    let on = std::env::var("RSCHED_TRACE").is_ok_and(|v| v != "0");
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    on
}

/// Turn the recorder on or off process-wide (overrides the env default).
pub fn set_enabled(on: bool) {
    GATE.store(if on { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------

/// Scheduler lifecycle events the flight recorder knows about. The
/// discriminant is the on-ring kind byte — append-only; never renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A task entered the system (runtime spawn or service inject);
    /// payload = item id.
    TaskInject = 1,
    /// A worker claimed a task from the queue; payload = item id. Opens
    /// a span closed by the next [`EventKind::TaskComplete`] on the
    /// same lane.
    TaskPop = 2,
    /// The claimed task's handler returned; payload = item id.
    TaskComplete = 3,
    /// A pop was satisfied by a steal (foreign shard) rather than a
    /// home shard; payload = item id.
    StealRound = 4,
    /// A session flush published buffered spawns; payload = elements
    /// published.
    FlushPublish = 5,
    /// Of a flush's published elements, some merged; payload = elements
    /// merged.
    FlushMerge = 6,
    /// A service worker found no work and parked on the idle gate.
    Park = 7,
    /// A parked service worker woke (payload 1 = woke to new work,
    /// 0 = timeout re-check).
    Unpark = 8,
    /// A worker observed quiescence and left its loop (closed-loop
    /// drain) or the service began draining.
    Drain = 9,
    /// The serving front-end refused a Submit; payload = the wire
    /// reject code (`RejectCode`).
    AdmissionReject = 10,
}

impl EventKind {
    /// Every kind, in discriminant order (for exhaustive validators).
    pub const ALL: [EventKind; 10] = [
        EventKind::TaskInject,
        EventKind::TaskPop,
        EventKind::TaskComplete,
        EventKind::StealRound,
        EventKind::FlushPublish,
        EventKind::FlushMerge,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::Drain,
        EventKind::AdmissionReject,
    ];

    /// The kind for on-ring byte `b`, if valid.
    pub fn from_u8(b: u8) -> Option<EventKind> {
        EventKind::ALL.get(b.wrapping_sub(1) as usize).copied()
    }

    /// Stable name, used as the Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskInject => "inject",
            EventKind::TaskPop => "pop",
            EventKind::TaskComplete => "complete",
            EventKind::StealRound => "steal",
            EventKind::FlushPublish => "flush_publish",
            EventKind::FlushMerge => "flush_merge",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::Drain => "drain",
            EventKind::AdmissionReject => "reject",
        }
    }
}

/// Payloads are truncated to the low 56 bits; the top byte of the
/// second event word carries the kind.
pub const PAYLOAD_BITS: u32 = 56;
const PAYLOAD_MASK: u64 = (1u64 << PAYLOAD_BITS) - 1;

#[inline]
fn pack(kind: EventKind, payload: u64) -> u64 {
    ((kind as u64) << PAYLOAD_BITS) | (payload & PAYLOAD_MASK)
}

#[inline]
fn unpack(word: u64) -> (Option<EventKind>, u64) {
    (
        EventKind::from_u8((word >> PAYLOAD_BITS) as u8),
        word & PAYLOAD_MASK,
    )
}

// ---------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------

/// Ring capacity in events (16 bytes each → 64 KiB per lane); a power
/// of two, so the head counter wraps into a slot index with a mask.
pub const RING_EVENTS: usize = 4096;

/// One 16-byte ring slot: the timestamp word and the packed
/// kind/payload word, both relaxed atomics so a concurrent snapshot is
/// defined behaviour (a torn slot decodes to an invalid kind and is
/// dropped by [`snapshot`]).
struct Slot {
    ts: AtomicU64,
    word: AtomicU64,
}

/// A single-producer flight-recorder lane: a power-of-two ring of
/// [`Slot`]s plus a monotone head counter. The owning thread writes;
/// [`snapshot`] reads the last `min(head, capacity)` events.
struct EventRing {
    lane: usize,
    label: Mutex<String>,
    /// Total events ever written to this lane (wraps modulo capacity
    /// into the slot index). Release-published so a snapshot that
    /// observes head `h` also observes the slots written before it.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl EventRing {
    fn new(lane: usize, label: String) -> Self {
        let slots = (0..RING_EVENTS)
            .map(|_| Slot {
                ts: AtomicU64::new(0),
                word: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            lane,
            label: Mutex::new(label),
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// The steady-state write: one clock read (done by the caller),
    /// two relaxed stores into the slot, one release store of the head.
    #[inline]
    fn push(&self, ts_ns: u64, kind: EventKind, payload: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & (self.slots.len() as u64 - 1)) as usize];
        slot.ts.store(ts_ns, Ordering::Relaxed);
        slot.word.store(pack(kind, payload), Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Registry + thread-local lane handles
// ---------------------------------------------------------------------

struct Registry {
    /// Every lane ever created, indexed by lane id. Lanes are never
    /// removed — a crash dump wants the last events of exited workers.
    rings: Vec<Arc<EventRing>>,
    /// Lanes whose owning thread exited, available for reuse.
    free: Vec<usize>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    rings: Vec::new(),
    free: Vec::new(),
});

/// The process-wide timestamp epoch: all lanes stamp nanoseconds since
/// this instant, so cross-lane ordering is meaningful.
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn acquire_ring() -> Arc<EventRing> {
    let label = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_default();
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(lane) = reg.free.pop() {
        let ring = reg.rings[lane].clone();
        if !label.is_empty() {
            *ring.label.lock().unwrap() = label;
        }
        return ring;
    }
    let lane = reg.rings.len();
    let label = if label.is_empty() {
        format!("lane-{lane}")
    } else {
        label
    };
    let ring = Arc::new(EventRing::new(lane, label));
    reg.rings.push(ring.clone());
    ring
}

/// TLS guard: returns the lane to the free list when the thread exits,
/// leaving its events in place for post-mortem snapshots.
struct LaneHandle {
    ring: Arc<EventRing>,
}

impl Drop for LaneHandle {
    fn drop(&mut self) {
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.free.push(self.ring.lane);
        }
    }
}

thread_local! {
    static LANE: RefCell<Option<LaneHandle>> = const { RefCell::new(None) };
}

/// Record one event on the calling thread's lane. No-op (one relaxed
/// load and a branch) when tracing is off; acquires the lane lazily on
/// the first traced event of the thread.
#[inline]
pub fn emit(kind: EventKind, payload: u64) {
    if !enabled() {
        return;
    }
    emit_traced(kind, payload);
}

#[cold]
fn acquire_into(slot: &RefCell<Option<LaneHandle>>) {
    *slot.borrow_mut() = Some(LaneHandle {
        ring: acquire_ring(),
    });
}

#[inline]
fn emit_traced(kind: EventKind, payload: u64) {
    let ts = now_ns();
    let _ = LANE.try_with(|slot| {
        if slot.borrow().is_none() {
            acquire_into(slot);
        }
        if let Some(h) = slot.borrow().as_ref() {
            h.ring.push(ts, kind, payload);
        }
    });
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    pub kind: EventKind,
    /// The low 56 bits the emitter attached (item id, count, code).
    pub payload: u64,
}

/// A point-in-time copy of one lane: its last `≤ capacity` events in
/// chronological order.
#[derive(Clone, Debug)]
pub struct LaneSnapshot {
    /// Lane id — the Chrome-trace `tid`.
    pub lane: usize,
    /// The owning thread's name at acquisition time.
    pub label: String,
    /// Retained events, oldest first, timestamps non-decreasing.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wrap-around (total written minus
    /// retained) — how much history the ring has already forgotten.
    pub overwritten: u64,
}

/// Snapshot every lane. Safe to call while producers are live (torn or
/// mid-overwrite slots decode to an invalid kind or a timestamp
/// regression and are dropped), but the intended call sites are
/// quiescent boundaries: after `run()` joins its workers, after a
/// service drain.
pub fn snapshot() -> Vec<LaneSnapshot> {
    let rings: Vec<Arc<EventRing>> = REGISTRY.lock().unwrap().rings.clone();
    rings
        .iter()
        .map(|ring| {
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            let n = head.min(cap);
            let mut events = Vec::with_capacity(n as usize);
            let mut last_ts = 0u64;
            for k in (head - n)..head {
                let slot = &ring.slots[(k & (cap - 1)) as usize];
                let ts = slot.ts.load(Ordering::Relaxed);
                let (kind, payload) = unpack(slot.word.load(Ordering::Relaxed));
                // Drop torn slots: invalid kind byte or a timestamp that
                // runs backwards within the lane.
                if let Some(kind) = kind {
                    if ts >= last_ts {
                        last_ts = ts;
                        events.push(TraceEvent {
                            ts_ns: ts,
                            kind,
                            payload,
                        });
                    }
                }
            }
            LaneSnapshot {
                lane: ring.lane,
                label: ring.label.lock().unwrap().clone(),
                events,
                overwritten: head - n,
            }
        })
        .collect()
}

/// Forget everything recorded so far (head reset on every lane). Only
/// meaningful while producers are quiescent — tests and bench window
/// brackets use it; the flight recorder itself never needs it.
pub fn clear() {
    let reg = REGISTRY.lock().unwrap();
    for ring in reg.rings.iter() {
        ring.head.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------

/// Render lane snapshots as Chrome trace-event JSON (the format
/// `chrome://tracing` and <https://ui.perfetto.dev> load): one `pid`
/// per run, one `tid` per lane, `B`/`E` duration pairs for pop →
/// complete spans, `i` instants for everything else. Timestamps are
/// microseconds with nanosecond precision (the format's native unit).
/// Timed events are emitted sorted by timestamp — the format itself
/// tolerates out-of-order events, but sorted output lets downstream
/// validators (and diff tools) treat file order as time order.
pub fn chrome_trace_json(lanes: &[LaneSnapshot]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"rsched\"}}",
    );
    // A span's B is only known to be a span once its complete arrives,
    // so events leave the per-lane walk out of time order; collect
    // (ts, json) and stable-sort. Equal timestamps keep generation
    // order, which keeps each B before its E.
    let mut timed: Vec<(u64, String)> = Vec::new();
    for lane in lanes {
        out.push(',');
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            lane.lane,
            escape_json(&lane.label),
        ));
        // One open pop span at a time per lane: the worker loop is
        // serial, so pop/complete strictly alternate. A complete whose
        // pop was overwritten by wrap-around, or a pop never completed
        // (the crash/stall case), degrades to an instant.
        let mut open_pop: Option<&TraceEvent> = None;
        for ev in &lane.events {
            match ev.kind {
                EventKind::TaskPop => {
                    if let Some(p) = open_pop.take() {
                        timed.push((p.ts_ns, instant_json(lane.lane, p)));
                    }
                    open_pop = Some(ev);
                }
                EventKind::TaskComplete => match open_pop.take() {
                    Some(p) => {
                        timed.push((
                            p.ts_ns,
                            format!(
                                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"task\",\"args\":{{\"item\":{}}}}}",
                                lane.lane,
                                ts_us(p.ts_ns),
                                p.payload,
                            ),
                        ));
                        timed.push((
                            ev.ts_ns,
                            format!(
                                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"task\"}}",
                                lane.lane,
                                ts_us(ev.ts_ns),
                            ),
                        ));
                    }
                    None => timed.push((ev.ts_ns, instant_json(lane.lane, ev))),
                },
                _ => timed.push((ev.ts_ns, instant_json(lane.lane, ev))),
            }
        }
        if let Some(p) = open_pop {
            timed.push((p.ts_ns, instant_json(lane.lane, p)));
        }
    }
    timed.sort_by_key(|(ts, _)| *ts);
    for (_, ev) in &timed {
        out.push(',');
        out.push_str(ev);
    }
    out.push_str("]}");
    out
}

/// Microseconds with three decimals (nanosecond precision), the
/// trace-event format's native `ts` unit.
fn ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

fn instant_json(lane: usize, ev: &TraceEvent) -> String {
    format!(
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{{\"v\":{}}}}}",
        lane,
        ts_us(ev.ts_ns),
        ev.kind.name(),
        ev.payload,
    )
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// If tracing is [`enabled`], snapshot every lane and (over)write
/// `RSCHED_TRACE_OUT` (default `rsched_trace.json`) with its Chrome
/// trace. The file always holds the latest window, matching the rings'
/// own wrap-around semantics. I/O errors are reported, not raised — a
/// failed trace dump must never take down the run it was observing.
/// The runtime calls this at `run()` / service-drain boundaries.
pub fn export_if_configured() {
    if !enabled() {
        return;
    }
    let path = std::env::var("RSCHED_TRACE_OUT").unwrap_or_else(|_| "rsched_trace.json".into());
    if let Err(e) = std::fs::write(&path, chrome_trace_json(&snapshot())) {
        eprintln!("rsched-trace: export to {path:?} failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate and the registry are process-global; serialize the
    /// tests that mutate them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn drop_lane() {
        LANE.with(|slot| *slot.borrow_mut() = None);
    }

    #[test]
    fn kind_bytes_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
            let (k, p) = unpack(pack(kind, 0x00AB_CDEF_0123_4567));
            assert_eq!(k, Some(kind));
            assert_eq!(p, 0x00AB_CDEF_0123_4567);
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(11), None);
        // Payloads truncate to 56 bits, never bleed into the kind byte.
        let (k, p) = unpack(pack(EventKind::TaskPop, u64::MAX));
        assert_eq!(k, Some(EventKind::TaskPop));
        assert_eq!(p, PAYLOAD_MASK);
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        clear();
        drop_lane();
        emit(EventKind::TaskPop, 1);
        let lanes = snapshot();
        assert!(lanes.iter().all(|l| l.events.is_empty()));
        set_enabled(false);
    }

    #[test]
    fn ring_wraps_and_keeps_last_n() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        drop_lane();
        // Force a private ring and overfill it.
        let cap = RING_EVENTS;
        let extra = 37;
        for i in 0..(cap + extra) {
            emit(EventKind::TaskInject, i as u64);
        }
        let mine = LANE.with(|slot| slot.borrow().as_ref().unwrap().ring.lane);
        let lanes = snapshot();
        let lane = lanes.iter().find(|l| l.lane == mine).unwrap();
        assert_eq!(lane.events.len(), cap, "ring retains exactly capacity");
        assert_eq!(lane.overwritten, extra as u64);
        // Oldest retained event is the first survivor of the overwrite.
        assert_eq!(lane.events[0].payload, extra as u64);
        assert_eq!(lane.events[cap - 1].payload, (cap + extra - 1) as u64);
        let mut prev = 0;
        for ev in &lane.events {
            assert!(ev.ts_ns >= prev, "timestamps monotone within a lane");
            prev = ev.ts_ns;
        }
        set_enabled(false);
        drop_lane();
    }

    #[test]
    fn concurrent_threads_get_distinct_lanes() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        let barrier = std::sync::Barrier::new(4);
        let lanes: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        for i in 0..100u64 {
                            emit(EventKind::TaskPop, t * 1000 + i);
                            emit(EventKind::TaskComplete, t * 1000 + i);
                        }
                        let lane = LANE.with(|slot| slot.borrow().as_ref().unwrap().ring.lane);
                        barrier.wait(); // hold the lane until everyone recorded
                        lane
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut uniq = lanes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "concurrent threads must not share a lane");
        let snaps = snapshot();
        for lane in &lanes {
            let snap = snaps.iter().find(|l| l.lane == *lane).unwrap();
            assert_eq!(snap.events.len(), 200);
        }
        set_enabled(false);
    }

    #[test]
    fn lanes_are_reused_after_thread_exit() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        clear();
        let before = REGISTRY.lock().unwrap().rings.len();
        for round in 0..8u64 {
            std::thread::spawn(move || emit(EventKind::Park, round))
                .join()
                .unwrap();
        }
        let after = REGISTRY.lock().unwrap().rings.len();
        assert!(
            after <= before + 1,
            "sequential short-lived threads must reuse one pooled lane \
             (grew {before} -> {after})"
        );
        set_enabled(false);
    }

    #[test]
    fn chrome_export_pairs_spans_and_degrades_unmatched() {
        let ev = |ts_ns, kind, payload| TraceEvent {
            ts_ns,
            kind,
            payload,
        };
        let lanes = vec![LaneSnapshot {
            lane: 3,
            label: "worker \"3\"".into(),
            events: vec![
                ev(1_000, EventKind::TaskPop, 7),
                ev(2_500, EventKind::TaskComplete, 7),
                ev(3_000, EventKind::TaskComplete, 8), // pop lost to wrap
                ev(4_000, EventKind::Park, 0),
                ev(5_000, EventKind::TaskPop, 9), // never completed
            ],
            overwritten: 2,
        }];
        let json = chrome_trace_json(&lanes);
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!((begins, ends), (1, 1), "exactly the matched span");
        assert_eq!(
            json.matches("\"ph\":\"i\"").count(),
            3,
            "orphan complete + park + orphan pop degrade to instants"
        );
        assert!(json.contains("\"ts\":1.000"), "ns-precision µs timestamps");
        assert!(json.contains("worker \\\"3\\\""), "labels are escaped");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
    }
}
