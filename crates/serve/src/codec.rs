//! The wire protocol: a minimal length-prefixed binary codec.
//!
//! Every frame is `[u32 LE payload length][payload]`, where the payload
//! is one opcode byte followed by fixed-width little-endian fields —
//! no varints, no self-describing envelope, so a frame can be decoded
//! with zero allocation and encoding is a handful of `extend_from_slice`
//! calls. Payloads are bounded by [`MAX_FRAME`]; a header announcing
//! more than that is rejected *before* any buffer grows, so a corrupt
//! or hostile peer cannot make the server allocate.
//!
//! Decoding is total: truncated frames, oversized frames, unknown
//! opcodes and wrong-length payloads all come back as [`CodecError`]
//! values — never a panic — because a serving front-end's parser is
//! exactly the code an arbitrary peer gets to exercise.
//!
//! ## The handshake
//!
//! There is one protocol version, [`PROTO_V2`]. A client opens with
//! [`Request::Hello`] and the server answers [`Response::HelloAck`]
//! with that version and the feature bits it grants. A `Hello` below
//! version 2, or a [`Request::SubmitV2`] before any `Hello`, is answered
//! [`RejectCode::BadVersion`] and the connection is closed.
//!
//! Fixed-layout frames keep their field order in one place: each
//! carries a struct with a `WIRE_FIELDS` name list and
//! `to_wire`/`from_wire` word arrays, and the codec tests assert
//! name-by-name that byte offset `i * 8` really carries
//! `WIRE_FIELDS[i]`.
//!
//! | opcode | frame | payload after the opcode byte |
//! |---|---|---|
//! | `0x04` | [`Request::Drain`] | — |
//! | `0x05` | [`Request::Metrics`] | — |
//! | `0x06` | [`Request::Hello`] | [`Hello`]: `version u64, features u64` |
//! | `0x07` | [`Request::SubmitV2`] | [`SubmitV2`]: `req_id u64, deadline u64, work_ns u64, flags u8` |
//! | `0x81` | [`Response::Accepted`] | `req_id u64` |
//! | `0x82` | [`Response::Rejected`] | `req_id u64, code u8` |
//! | `0x85` | [`Response::Drained`] | `completed u64` |
//! | `0x87` | [`Response::Metrics`] | [`MetricsReply`]: histogram blocks, counters, gauges |
//! | `0x88` | [`Response::HelloAck`] | [`HelloAck`]: `version u64, features u64, server_now_ns u64` |
//! | `0x89` | [`Response::CompletedV2`] | [`CompletedV2`]: five `u64`s + `met u8` |
//!
//! Opcodes `0x01`–`0x03`, `0x83`, `0x84` and `0x86` are unassigned and
//! decode as [`CodecError::UnknownOpcode`].

use rsched_queues::telemetry::{HistSnapshot, TelemetrySnapshot, HIST_BUCKETS};
use std::io::{self, Read};

/// Hard ceiling on a frame payload. The largest legitimate frame
/// ([`Response::Metrics`] with [`METRICS_MAX_WORKERS`] gauges, seven
/// histogram blocks of full 64-bucket arrays) is 5073 bytes; the slack
/// leaves room for protocol growth while still rejecting nonsense
/// headers instantly.
pub const MAX_FRAME: usize = 8192;

/// The protocol version, negotiated via [`Request::Hello`]: a `Hello`
/// asking for a higher version is acked at this one, a lower one is
/// refused.
pub const PROTO_V2: u64 = 2;

/// Feature bit in [`Hello::features`] / [`HelloAck::features`]:
/// the client asks the server to schedule its deadline-carrying
/// submissions earliest-deadline-first (the deadline becomes the queue
/// priority). Without the grant, deadlines are still tracked and
/// verdicts still reported, but scheduling order stays arrival-order —
/// which is exactly what makes `arrival` vs `edf` an A/B axis at the
/// same offered load.
pub const FEAT_EDF: u64 = 1 << 0;

/// Why a frame failed to decode. Every variant is an expected condition
/// of talking to an arbitrary peer — the connection loop reports it and
/// closes, nothing panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended mid-frame (header or payload).
    Truncated {
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The header announced a payload larger than [`MAX_FRAME`].
    Oversized(usize),
    /// Empty payload (a frame must carry at least its opcode byte).
    Empty,
    /// The opcode byte is not part of the protocol.
    UnknownOpcode(u8),
    /// Known opcode, wrong payload length (or an invalid flag byte).
    BadPayload {
        /// The opcode whose payload was malformed.
        opcode: u8,
        /// The malformed payload's length.
        len: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            CodecError::Oversized(len) => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME})")
            }
            CodecError::Empty => write!(f, "empty frame payload"),
            CodecError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            CodecError::BadPayload { opcode, len } => {
                write!(f, "bad payload length {len} for opcode {opcode:#04x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Why the server refused a submission — carried in
/// [`Response::Rejected`] so clients can distinguish backpressure from
/// lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectCode {
    /// The bounded admission queue is full: back off and retry.
    QueueFull = 1,
    /// The server is shutting down.
    Shutdown = 3,
    /// A [`Request::Hello`] asked for a version below [`PROTO_V2`]
    /// (carried with `req_id = 0`), or a [`Request::SubmitV2`] arrived
    /// before any `Hello`. The server closes the connection after
    /// sending it.
    BadVersion = 4,
}

impl RejectCode {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(RejectCode::QueueFull),
            3 => Some(RejectCode::Shutdown),
            4 => Some(RejectCode::BadVersion),
            _ => None,
        }
    }
}

/// Generates the `WIRE_FIELDS` / `to_wire` / `from_wire` / `field`
/// quartet for a fixed-layout frame struct whose wire image is a run of
/// `u64` words in declaration order. The name list is the single source
/// of truth for the layout; the sentinel tests walk it offset by
/// offset.
macro_rules! wire_table {
    // Structs whose wire image also carries trailing flag *bytes*
    // (bools after the word run): the words are table-driven, the
    // flags decode separately and default to false out of `from_wire`.
    ($ty:ty, $n:literal, [$($f:ident),+ $(,)?], flags: [$($x:ident),+ $(,)?]) => {
        impl $ty {
            /// The wire word order, by field name. Byte offset `i * 8`
            /// of the frame body carries `WIRE_FIELDS[i]` — asserted
            /// name-by-name in the codec's sentinel tests, so a silent
            /// reorder cannot ship. Flag bytes follow the word run and
            /// are not part of this table.
            pub const WIRE_FIELDS: [&'static str; $n] = [$(stringify!($f)),+];

            /// The wire words, in [`WIRE_FIELDS`](Self::WIRE_FIELDS) order.
            pub fn to_wire(&self) -> [u64; $n] {
                [$(self.$f),+]
            }

            /// Rebuild from wire words in
            /// [`WIRE_FIELDS`](Self::WIRE_FIELDS) order; flag fields
            /// start false and are set by the frame decoder.
            pub fn from_wire(w: [u64; $n]) -> Self {
                let [$($f),+] = w;
                Self { $($f,)+ $($x: false),+ }
            }

            /// Field value by wire name (`None` for unknown names) —
            /// lets tests and exporters walk
            /// [`WIRE_FIELDS`](Self::WIRE_FIELDS) without a parallel
            /// positional list.
            pub fn field(&self, name: &str) -> Option<u64> {
                match name {
                    $(stringify!($f) => Some(self.$f),)+
                    _ => None,
                }
            }
        }
    };
    ($ty:ty, $n:literal, [$($f:ident),+ $(,)?]) => {
        impl $ty {
            /// The wire word order, by field name. Byte offset `i * 8`
            /// of the frame body carries `WIRE_FIELDS[i]` — asserted
            /// name-by-name in the codec's sentinel tests, so a silent
            /// reorder cannot ship.
            pub const WIRE_FIELDS: [&'static str; $n] = [$(stringify!($f)),+];

            /// The wire words, in [`WIRE_FIELDS`](Self::WIRE_FIELDS) order.
            pub fn to_wire(&self) -> [u64; $n] {
                [$(self.$f),+]
            }

            /// Rebuild from wire words in
            /// [`WIRE_FIELDS`](Self::WIRE_FIELDS) order.
            pub fn from_wire(w: [u64; $n]) -> Self {
                let [$($f),+] = w;
                Self { $($f),+ }
            }

            /// Field value by wire name (`None` for unknown names) —
            /// lets tests and exporters walk
            /// [`WIRE_FIELDS`](Self::WIRE_FIELDS) without a parallel
            /// positional list.
            pub fn field(&self, name: &str) -> Option<u64> {
                match name {
                    $(stringify!($f) => Some(self.$f),)+
                    _ => None,
                }
            }
        }
    };
}

/// The submission body: the scheduling word is a client-set
/// **deadline**. `flags` bit 0 selects the timebase: set = `deadline`
/// is absolute nanoseconds on the server's monotonic clock (as learned
/// from [`HelloAck::server_now_ns`]); clear = `deadline` is a relative
/// budget in nanoseconds from server receipt. All other flag bits must
/// be zero. Deadline arithmetic on the server saturates, so
/// `u64::MAX` budgets mean "effectively never misses" rather than
/// wrapping into the past.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitV2 {
    /// Client-chosen id, echoed on every response about this request.
    pub req_id: u64,
    /// Deadline: absolute server-clock ns, or a relative budget
    /// (see [`SubmitV2::absolute`]).
    pub deadline: u64,
    /// Synthetic service time the worker spends on the task, ns.
    pub work_ns: u64,
    /// Timebase flag (wire flag bit 0): absolute vs relative budget.
    pub absolute: bool,
}

wire_table!(SubmitV2, 3, [req_id, deadline, work_ns], flags: [absolute]);

/// The completion body: every task reports its deadline verdict.
/// `tardiness_ns` is `completion - deadline` saturated at zero (a met
/// deadline has tardiness 0), `met` is the boolean verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompletedV2 {
    /// Echo of the submission's id.
    pub req_id: u64,
    /// Submit→complete as measured by the server, ns.
    pub sojourn_ns: u64,
    /// Submit→inject prefix of the sojourn, ns.
    pub inject_ns: u64,
    /// The absolute deadline the server held the task to, server-clock ns.
    pub deadline_ns: u64,
    /// `max(0, completion - deadline)`, ns.
    pub tardiness_ns: u64,
    /// Wire flag byte: did the task complete by its deadline?
    pub met: bool,
}

wire_table!(
    CompletedV2,
    5,
    [req_id, sojourn_ns, inject_ns, deadline_ns, tardiness_ns],
    flags: [met]
);

/// The client's opening handshake, required before the first
/// [`SubmitV2`]. `version` is the highest protocol the client speaks
/// (at least [`PROTO_V2`]); `features` the capabilities it requests
/// (the server grants the intersection with its own).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the client speaks.
    pub version: u64,
    /// Requested feature bits ([`FEAT_EDF`], ...).
    pub features: u64,
}

wire_table!(Hello, 2, [version, features]);

/// The server's handshake answer: the protocol version
/// ([`PROTO_V2`]), the granted feature bits, and the server's
/// monotonic clock at reply time — the epoch clients use to convert
/// wall deadlines into absolute [`SubmitV2::deadline`] values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HelloAck {
    /// Protocol version for this connection.
    pub version: u64,
    /// Granted feature bits (subset of the request).
    pub features: u64,
    /// The server's monotonic clock at reply time, ns since its epoch.
    pub server_now_ns: u64,
}

wire_table!(HelloAck, 3, [version, features, server_now_ns]);

/// Client → server frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit one deadline-carrying task. Accepted only after the
    /// [`Request::Hello`] handshake.
    SubmitV2(SubmitV2),
    /// Graceful per-connection drain: the server stops reading this
    /// socket, finishes every task it accepted from it, then sends
    /// [`Response::Drained`] and closes.
    Drain,
    /// Ask for a [`MetricsReply`] — the live exposition: the full
    /// process telemetry snapshot, the server's request ledger and
    /// histograms, and gauge samples.
    Metrics,
    /// Version/feature handshake; answered with [`Response::HelloAck`].
    Hello(Hello),
}

/// Server → client frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The submission passed admission and was injected into the pool.
    Accepted { req_id: u64 },
    /// The submission was refused; no task was created and no serving
    /// state was touched (reject paths are side-effect-free beyond the
    /// `rejected` counter).
    Rejected { req_id: u64, code: RejectCode },
    /// The task finished, with its deadline verdict.
    CompletedV2(CompletedV2),
    /// Drain finished: every task accepted on this connection has
    /// completed (`completed` counts them, over the connection's life).
    Drained { completed: u64 },
    /// [`Request::Metrics`] answer. Boxed: the reply is ~5 KB of
    /// histogram blocks, and the enum rides writer channels whose
    /// common traffic is `Accepted`s and `CompletedV2`s.
    Metrics(Box<MetricsReply>),
    /// [`Request::Hello`] answer.
    HelloAck(HelloAck),
}

/// The live exposition carried by [`Response::Metrics`]: the **full**
/// process [`TelemetrySnapshot`] — all four per-op histogram series
/// with their complete 64-bucket arrays and derived quantiles, and the
/// event counters — plus everything the serving
/// layer records: the request ledger, the sojourn, inject and tardiness
/// histograms, the deadline verdicts, and gauge samples from its
/// lightweight sampler. Quantiles come from log₂ `PowHistogram`s, so
/// they are conservative bucket upper bounds in nanoseconds.
///
/// Wire layout after the opcode byte (all `u64` LE):
///
/// | block | words |
/// |---|---|
/// | histograms ×7, in order retry/steal/sweep/tick/sojourn/inject/tardiness | each `count, p50, p90, p99, p999, max` + 64 buckets |
/// | telemetry counters | [`COUNTER_FIELDS`](Self::COUNTER_FIELDS): `empty_pops, registry_probes, seg_installs, flush_published, flush_merged, gc_deferred, gc_collected` (`registry_probes`, `seg_installs` and the `gc_*` pair always 0) |
/// | server counters | `submitted, accepted, rejected, completed, deadline_met, deadline_misses, miss_permille, in_flight` |
/// | gauges | `n_workers`, then `n_workers` per-worker busy-permille samples |
///
/// The histogram and counter blocks are cumulative and the capture does
/// not reset them, so polling never perturbs a later poll or the drain
/// report. The busy-permille gauges cover the interval since the
/// previous poll, so repeated polls read like `top`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsReply {
    /// Everything recorded since the server's telemetry window opened
    /// (server start, or an explicit reset).
    pub telemetry: TelemetrySnapshot,
    /// Submissions decoded (accepted + rejected).
    pub submitted: u64,
    /// Submissions that passed admission.
    pub accepted: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks admitted but not yet completed, at reply time.
    pub in_flight: u64,
    /// Per-worker busy time since the previous `Metrics` poll, in
    /// permille of the elapsed wall interval (0 = idle, 1000 = fully
    /// busy), indexed by worker id.
    pub utilization_permille: Vec<u64>,
    /// Submit→complete sojourn histogram, ns.
    pub sojourn: HistSnapshot,
    /// Submit→inject prefix histogram, ns.
    pub inject: HistSnapshot,
    /// Tardiness histogram over completions, ns (a met deadline
    /// records 0).
    pub tardiness: HistSnapshot,
    /// Completions that met their deadline.
    pub deadline_met: u64,
    /// Completions that missed their deadline.
    pub deadline_misses: u64,
    /// Misses per thousand completions (0 before the first).
    pub miss_permille: u64,
}

impl MetricsReply {
    /// The scalar counter block's wire order, by
    /// [`TelemetrySnapshot`] field name — byte offsets within the
    /// counter block follow this list, asserted by the sentinel tests.
    pub const COUNTER_FIELDS: [&'static str; 7] = [
        "empty_pops",
        "registry_probes",
        "seg_installs",
        "flush_published",
        "flush_merged",
        "gc_deferred",
        "gc_collected",
    ];

    /// The server counter block's wire order, by field name; it follows
    /// the telemetry counters.
    const SERVER_FIELDS: [&'static str; 8] = [
        "submitted",
        "accepted",
        "rejected",
        "completed",
        "deadline_met",
        "deadline_misses",
        "miss_permille",
        "in_flight",
    ];

    /// Counter-block word by wire name, reading through to the
    /// underlying telemetry snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let t = &self.telemetry;
        Some(match name {
            "empty_pops" => t.empty_pops,
            "registry_probes" => t.registry_probes,
            "seg_installs" => t.seg_installs,
            "flush_published" => t.flush_published,
            "flush_merged" => t.flush_merged,
            "gc_deferred" => t.gc_deferred,
            "gc_collected" => t.gc_collected,
            _ => return None,
        })
    }

    /// Server-counter word by wire name.
    fn server_field(&self, name: &str) -> Option<u64> {
        Some(match name {
            "submitted" => self.submitted,
            "accepted" => self.accepted,
            "rejected" => self.rejected,
            "completed" => self.completed,
            "deadline_met" => self.deadline_met,
            "deadline_misses" => self.deadline_misses,
            "miss_permille" => self.miss_permille,
            "in_flight" => self.in_flight,
            _ => return None,
        })
    }
}

/// Wire size of one histogram block: the six derived words plus the
/// full bucket array.
const HIST_WIRE_WORDS: usize = 6 + HIST_BUCKETS;
/// Histogram blocks in a [`MetricsReply`]: the four telemetry series
/// (`retry`, always empty, then steal, sweep and tick), then sojourn,
/// inject and tardiness.
const METRICS_HISTS: usize = 7;
/// [`MetricsReply`] words between the histogram blocks and the gauge
/// samples: both counter blocks, then `n_workers`.
const METRICS_WORDS: usize =
    MetricsReply::COUNTER_FIELDS.len() + MetricsReply::SERVER_FIELDS.len() + 1;
/// [`MetricsReply`] payload length before the variable per-worker gauge
/// words (opcode byte included).
const METRICS_FIXED: usize = 1 + (METRICS_HISTS * HIST_WIRE_WORDS + METRICS_WORDS) * 8;
/// Per-worker gauge entries are capped so the frame stays under
/// [`MAX_FRAME`] whatever the pool width; pools wider than this report
/// their first 128 workers.
pub const METRICS_MAX_WORKERS: usize = 128;

const OP_DRAIN: u8 = 0x04;
const OP_METRICS: u8 = 0x05;
const OP_HELLO: u8 = 0x06;
const OP_SUBMIT2: u8 = 0x07;
const OP_ACCEPTED: u8 = 0x81;
const OP_REJECTED: u8 = 0x82;
const OP_DRAINED: u8 = 0x85;
const OP_METRICS_REPLY: u8 = 0x87;
const OP_HELLO_ACK: u8 = 0x88;
const OP_COMPLETED2: u8 = 0x89;

fn u64_at(payload: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[off..off + 8]);
    u64::from_le_bytes(b)
}

fn frame(out: &mut Vec<u8>, payload_len: usize) {
    debug_assert!(payload_len <= MAX_FRAME);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

fn put_words<const N: usize>(out: &mut Vec<u8>, words: [u64; N]) {
    for v in words {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append the full frame (header + payload) for `req` to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::SubmitV2(s) => {
            frame(out, 26);
            out.push(OP_SUBMIT2);
            put_words(out, s.to_wire());
            out.push(s.absolute as u8);
        }
        Request::Drain => {
            frame(out, 1);
            out.push(OP_DRAIN);
        }
        Request::Metrics => {
            frame(out, 1);
            out.push(OP_METRICS);
        }
        Request::Hello(h) => {
            frame(out, 17);
            out.push(OP_HELLO);
            put_words(out, h.to_wire());
        }
    }
}

fn encode_hist(h: &HistSnapshot, out: &mut Vec<u8>) {
    for v in [h.count, h.p50, h.p90, h.p99, h.p999, h.max] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    // Always exactly HIST_BUCKETS words: a default-constructed snapshot
    // has an empty bucket vec and encodes as zeros.
    for i in 0..HIST_BUCKETS {
        let b = h.buckets.get(i).copied().unwrap_or(0);
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn decode_hist(body: &[u8], off: usize) -> HistSnapshot {
    let f = |i: usize| u64_at(body, off + i * 8);
    HistSnapshot {
        count: f(0),
        p50: f(1),
        p90: f(2),
        p99: f(3),
        p999: f(4),
        max: f(5),
        buckets: (0..HIST_BUCKETS).map(|i| f(6 + i)).collect(),
    }
}

/// Append the full frame (header + payload) for `resp` to `out`.
///
/// `_version` is ignored: there is one protocol, so every frame has a
/// single layout. The argument stays so existing callers compile.
pub fn encode_response(resp: &Response, _version: u64, out: &mut Vec<u8>) {
    match resp {
        Response::Accepted { req_id } => {
            frame(out, 9);
            out.push(OP_ACCEPTED);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::Rejected { req_id, code } => {
            frame(out, 10);
            out.push(OP_REJECTED);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(*code as u8);
        }
        Response::CompletedV2(c) => {
            frame(out, 42);
            out.push(OP_COMPLETED2);
            put_words(out, c.to_wire());
            out.push(c.met as u8);
        }
        Response::Drained { completed } => {
            frame(out, 9);
            out.push(OP_DRAINED);
            out.extend_from_slice(&completed.to_le_bytes());
        }
        Response::Metrics(m) => {
            let workers = m.utilization_permille.len().min(METRICS_MAX_WORKERS);
            frame(out, METRICS_FIXED + workers * 8);
            out.push(OP_METRICS_REPLY);
            let t = &m.telemetry;
            for h in [
                &t.retry,
                &t.steal,
                &t.sweep,
                &t.tick,
                &m.sojourn,
                &m.inject,
                &m.tardiness,
            ] {
                encode_hist(h, out);
            }
            for name in MetricsReply::COUNTER_FIELDS {
                let v = m.counter(name).expect("COUNTER_FIELDS is exhaustive");
                out.extend_from_slice(&v.to_le_bytes());
            }
            for name in MetricsReply::SERVER_FIELDS {
                let v = m.server_field(name).expect("SERVER_FIELDS is exhaustive");
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(workers as u64).to_le_bytes());
            for u in m.utilization_permille.iter().take(workers) {
                out.extend_from_slice(&u.to_le_bytes());
            }
        }
        Response::HelloAck(a) => {
            frame(out, 25);
            out.push(OP_HELLO_ACK);
            put_words(out, a.to_wire());
        }
    }
}

fn expect_len(opcode: u8, payload: &[u8], want: usize) -> Result<(), CodecError> {
    if payload.len() == want {
        Ok(())
    } else {
        Err(CodecError::BadPayload {
            opcode,
            len: payload.len(),
        })
    }
}

/// Decode a wire flag byte that must be 0 or 1; anything else is a
/// malformed payload, not a silent truth-coercion.
fn expect_bool(opcode: u8, payload: &[u8], byte: u8) -> Result<bool, CodecError> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::BadPayload {
            opcode,
            len: payload.len(),
        }),
    }
}

fn words_at<const N: usize>(body: &[u8], off: usize) -> [u64; N] {
    std::array::from_fn(|i| u64_at(body, off + i * 8))
}

/// Decode one request payload (the bytes after the length header).
pub fn decode_request(payload: &[u8]) -> Result<Request, CodecError> {
    let (&opcode, body) = payload.split_first().ok_or(CodecError::Empty)?;
    match opcode {
        OP_SUBMIT2 => {
            expect_len(opcode, body, 25)?;
            let mut s = SubmitV2::from_wire(words_at(body, 0));
            s.absolute = expect_bool(opcode, body, body[24])?;
            Ok(Request::SubmitV2(s))
        }
        OP_DRAIN => {
            expect_len(opcode, body, 0)?;
            Ok(Request::Drain)
        }
        OP_METRICS => {
            expect_len(opcode, body, 0)?;
            Ok(Request::Metrics)
        }
        OP_HELLO => {
            expect_len(opcode, body, 16)?;
            Ok(Request::Hello(Hello::from_wire(words_at(body, 0))))
        }
        other => Err(CodecError::UnknownOpcode(other)),
    }
}

/// Decode one response payload (the bytes after the length header).
pub fn decode_response(payload: &[u8]) -> Result<Response, CodecError> {
    let (&opcode, body) = payload.split_first().ok_or(CodecError::Empty)?;
    match opcode {
        OP_ACCEPTED => {
            expect_len(opcode, body, 8)?;
            Ok(Response::Accepted {
                req_id: u64_at(body, 0),
            })
        }
        OP_REJECTED => {
            expect_len(opcode, body, 9)?;
            let code = RejectCode::from_u8(body[8]).ok_or(CodecError::BadPayload {
                opcode,
                len: body.len(),
            })?;
            Ok(Response::Rejected {
                req_id: u64_at(body, 0),
                code,
            })
        }
        OP_COMPLETED2 => {
            expect_len(opcode, body, 41)?;
            let mut c = CompletedV2::from_wire(words_at(body, 0));
            c.met = expect_bool(opcode, body, body[40])?;
            Ok(Response::CompletedV2(c))
        }
        OP_DRAINED => {
            expect_len(opcode, body, 8)?;
            Ok(Response::Drained {
                completed: u64_at(body, 0),
            })
        }
        OP_METRICS_REPLY => {
            // Fixed blocks plus a self-describing per-worker gauge tail:
            // the declared worker count must match the frame exactly. It
            // is bounded before any length arithmetic, so a lying count
            // cannot overflow.
            let fixed = METRICS_FIXED - 1;
            let bad = CodecError::BadPayload {
                opcode,
                len: body.len(),
            };
            if body.len() < fixed {
                return Err(bad);
            }
            let hist = |i: usize| decode_hist(body, i * HIST_WIRE_WORDS * 8);
            let c = |i: usize| u64_at(body, (METRICS_HISTS * HIST_WIRE_WORDS + i) * 8);
            let workers = c(METRICS_WORDS - 1);
            if workers > METRICS_MAX_WORKERS as u64 || body.len() != fixed + workers as usize * 8 {
                return Err(bad);
            }
            Ok(Response::Metrics(Box::new(MetricsReply {
                telemetry: TelemetrySnapshot {
                    retry: hist(0),
                    steal: hist(1),
                    sweep: hist(2),
                    tick: hist(3),
                    empty_pops: c(0),
                    registry_probes: c(1),
                    seg_installs: c(2),
                    flush_published: c(3),
                    flush_merged: c(4),
                    gc_deferred: c(5),
                    gc_collected: c(6),
                },
                sojourn: hist(4),
                inject: hist(5),
                tardiness: hist(6),
                submitted: c(7),
                accepted: c(8),
                rejected: c(9),
                completed: c(10),
                deadline_met: c(11),
                deadline_misses: c(12),
                miss_permille: c(13),
                in_flight: c(14),
                utilization_permille: (0..workers as usize)
                    .map(|i| c(METRICS_WORDS + i))
                    .collect(),
            })))
        }
        OP_HELLO_ACK => {
            expect_len(opcode, body, 24)?;
            Ok(Response::HelloAck(HelloAck::from_wire(words_at(body, 0))))
        }
        other => Err(CodecError::UnknownOpcode(other)),
    }
}

/// Read exactly `buf.len()` bytes; `Ok(false)` if the stream ended
/// *cleanly* before the first byte, `Err(Truncated)` if it ended
/// mid-read.
///
/// A read timeout *between* frames is how connection loops poll their
/// shutdown flag — it propagates when `mid_frame` is false and no byte
/// has arrived yet. Once inside a frame the remaining bytes are already
/// in flight: timeouts retry, or the partial header/payload we consumed
/// would desync the stream. A peer that stalls forever mid-frame is
/// unblocked by the server shutting the socket down (read returns 0 →
/// `Truncated`).
fn read_full<R: Read + ?Sized>(r: &mut R, buf: &mut [u8], mid_frame: bool) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && !mid_frame {
                    return Ok(false);
                }
                return Err(CodecError::Truncated {
                    needed: buf.len(),
                    got,
                }
                .into());
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (got > 0 || mid_frame)
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame into `buf` (replacing its contents with the payload).
///
/// `r` may be any [`Read`], buffered or not. The connection loops wrap
/// their sockets in a [`BufReader`](std::io::BufReader), so one `recv`
/// fetches every frame already in flight; `read_frame` then consumes
/// exactly one frame and leaves the rest buffered for the next call.
///
/// Returns `Ok(false)` on a clean end of stream at a frame boundary.
/// Truncation inside a frame, an oversized header and I/O failures all
/// surface as `Err`; the caller must not interpret the buffer then.
/// Timeout errors (`WouldBlock`/`TimedOut`) pass through untouched so
/// connection loops can poll a shutdown flag — but only when they occur
/// before the first header byte. Once part of a frame is consumed, a
/// timeout retries instead, so the stream never desyncs.
pub fn read_frame<R: Read + ?Sized>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 4];
    if !read_full(r, &mut header, false)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Oversized(len).into());
    }
    if len == 0 {
        return Err(CodecError::Empty.into());
    }
    buf.clear();
    buf.resize(len, 0);
    read_full(r, buf, true)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn encoded_response(resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        encode_response(resp, PROTO_V2, &mut wire);
        wire
    }

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        let mut cursor = io::Cursor::new(wire);
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_request(&payload).unwrap(), req);
        // Nothing after the frame: the next read is a clean EOF.
        assert!(!read_frame(&mut cursor, &mut payload).unwrap());
    }

    fn roundtrip_response(resp: Response) {
        let mut cursor = io::Cursor::new(encoded_response(&resp));
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    /// A fully-populated histogram snapshot (64-element bucket array,
    /// like every snapshot `telemetry::capture` produces — the wire
    /// always carries the full array).
    fn hist(seed: u64) -> HistSnapshot {
        HistSnapshot {
            buckets: (0..HIST_BUCKETS as u64).map(|i| seed + i).collect(),
            count: seed * 100,
            p50: seed,
            p90: seed * 2,
            p99: seed * 4,
            p999: seed * 8,
            max: seed * 16,
        }
    }

    fn metrics_reply() -> MetricsReply {
        MetricsReply {
            telemetry: TelemetrySnapshot {
                retry: hist(1),
                steal: hist(2),
                sweep: hist(3),
                tick: hist(4),
                empty_pops: 11,
                registry_probes: 22,
                seg_installs: 33,
                flush_published: 44,
                flush_merged: 55,
                gc_deferred: 66,
                gc_collected: 77,
            },
            submitted: 101,
            accepted: 100,
            rejected: 1,
            completed: 91,
            in_flight: 9,
            utilization_permille: vec![1000, 517, 0, 250],
            sojourn: hist(5),
            inject: hist(6),
            tardiness: hist(7),
            deadline_met: 88,
            deadline_misses: 3,
            miss_permille: 32,
        }
    }

    /// The same reply with the gauge tail at its cap: the largest frame
    /// the protocol sends.
    fn maximal_metrics_reply() -> MetricsReply {
        MetricsReply {
            utilization_permille: vec![1000; METRICS_MAX_WORKERS],
            ..metrics_reply()
        }
    }

    #[test]
    fn all_frames_roundtrip() {
        for absolute in [false, true] {
            roundtrip_request(Request::SubmitV2(SubmitV2 {
                req_id: 7,
                deadline: u64::MAX,
                work_ns: 20_000,
                absolute,
            }));
        }
        roundtrip_request(Request::Drain);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Hello(Hello {
            version: PROTO_V2,
            features: FEAT_EDF,
        }));
        roundtrip_response(Response::Accepted { req_id: 1 });
        for code in [
            RejectCode::QueueFull,
            RejectCode::Shutdown,
            RejectCode::BadVersion,
        ] {
            roundtrip_response(Response::Rejected { req_id: 2, code });
        }
        for met in [false, true] {
            roundtrip_response(Response::CompletedV2(CompletedV2 {
                req_id: 4,
                sojourn_ns: 55_555,
                inject_ns: 444,
                deadline_ns: 1_000_000,
                tardiness_ns: if met { 0 } else { 2_000 },
                met,
            }));
        }
        roundtrip_response(Response::Drained { completed: 1_000 });
        roundtrip_response(Response::HelloAck(HelloAck {
            version: PROTO_V2,
            features: FEAT_EDF,
            server_now_ns: 123_456_789,
        }));
        roundtrip_response(Response::Metrics(Box::new(metrics_reply())));
        // The gauge tail is genuinely variable-length: empty works too.
        roundtrip_response(Response::Metrics(Box::new(MetricsReply {
            utilization_permille: vec![],
            ..metrics_reply()
        })));
    }

    /// Sentinel guard shared by every fixed-layout frame: each wire
    /// word must ride at the offset its name holds in `WIRE_FIELDS`.
    /// Distinct sentinels per field mean a reorder of
    /// `to_wire`/`from_wire` (or of the struct itself) fails here by
    /// name instead of silently swapping two counters.
    fn assert_field_order<const N: usize>(
        wire: &[u8],
        body_len: usize,
        fields: [&str; N],
        field: impl Fn(&str) -> u64,
    ) {
        let body = &wire[5..]; // length header + opcode byte
        assert_eq!(body.len(), body_len);
        for (i, name) in fields.iter().enumerate() {
            assert_eq!(
                u64_at(body, i * 8),
                field(name),
                "wire offset {i} must carry field `{name}`"
            );
            // Sentinels are distinct, so a swapped pair cannot pass.
            assert_eq!(field(name), 0xA1 + i as u64);
        }
    }

    #[test]
    fn submit_v2_field_order_is_named_end_to_end() {
        let mut s = SubmitV2::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        s.absolute = true;
        let mut wire = Vec::new();
        encode_request(&Request::SubmitV2(s), &mut wire);
        assert_field_order(&wire, 25, SubmitV2::WIRE_FIELDS, |n| s.field(n).unwrap());
        // The flag byte rides after the word block.
        assert_eq!(wire[5 + 24], 1);
        assert_eq!(decode_request(&wire[4..]).unwrap(), Request::SubmitV2(s));
    }

    #[test]
    fn completed_v2_field_order_is_named_end_to_end() {
        let mut c = CompletedV2::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        c.met = true;
        let wire = encoded_response(&Response::CompletedV2(c));
        assert_field_order(&wire, 41, CompletedV2::WIRE_FIELDS, |n| c.field(n).unwrap());
        assert_eq!(wire[5 + 40], 1);
        assert_eq!(
            decode_response(&wire[4..]).unwrap(),
            Response::CompletedV2(c)
        );
    }

    #[test]
    fn hello_and_ack_field_order_is_named_end_to_end() {
        let h = Hello::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        let mut wire = Vec::new();
        encode_request(&Request::Hello(h), &mut wire);
        assert_field_order(&wire, 16, Hello::WIRE_FIELDS, |n| h.field(n).unwrap());
        assert_eq!(decode_request(&wire[4..]).unwrap(), Request::Hello(h));

        let a = HelloAck::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        let wire = encoded_response(&Response::HelloAck(a));
        assert_field_order(&wire, 24, HelloAck::WIRE_FIELDS, |n| a.field(n).unwrap());
        assert_eq!(decode_response(&wire[4..]).unwrap(), Response::HelloAck(a));
    }

    /// The Metrics histogram and counter blocks are positional on the
    /// wire; this pins each block and scalar to its named offset the
    /// same way the frame structs pin theirs.
    #[test]
    fn metrics_scalar_blocks_are_named_end_to_end() {
        let m = metrics_reply();
        let wire = encoded_response(&Response::Metrics(Box::new(m.clone())));
        let body = &wire[5..];
        let t = &m.telemetry;
        let hists = [
            &t.retry,
            &t.steal,
            &t.sweep,
            &t.tick,
            &m.sojourn,
            &m.inject,
            &m.tardiness,
        ];
        for (i, h) in hists.iter().enumerate() {
            assert_eq!(
                u64_at(body, i * HIST_WIRE_WORDS * 8),
                h.count,
                "histogram block {i} out of order"
            );
        }
        let counters_off = METRICS_HISTS * HIST_WIRE_WORDS * 8;
        for (i, name) in MetricsReply::COUNTER_FIELDS.iter().enumerate() {
            assert_eq!(
                u64_at(body, counters_off + i * 8),
                m.counter(name).unwrap(),
                "counter offset {i} must carry `{name}`"
            );
        }
        let server_off = counters_off + MetricsReply::COUNTER_FIELDS.len() * 8;
        let server = [
            ("submitted", m.submitted),
            ("accepted", m.accepted),
            ("rejected", m.rejected),
            ("completed", m.completed),
            ("deadline_met", m.deadline_met),
            ("deadline_misses", m.deadline_misses),
            ("miss_permille", m.miss_permille),
            ("in_flight", m.in_flight),
        ];
        assert_eq!(server.map(|(n, _)| n), MetricsReply::SERVER_FIELDS);
        for (i, (name, value)) in server.into_iter().enumerate() {
            assert_eq!(
                u64_at(body, server_off + i * 8),
                value,
                "server counter offset {i} must carry `{name}`"
            );
        }
        let n_workers_off = server_off + MetricsReply::SERVER_FIELDS.len() * 8;
        assert_eq!(
            u64_at(body, n_workers_off),
            m.utilization_permille.len() as u64
        );
    }

    /// Malformed deadline payloads — wrong lengths, invalid flag bytes,
    /// extreme values — are errors or valid extremes, never panics.
    #[test]
    fn malformed_deadline_payloads_never_panic() {
        // SubmitV2 with a flag byte that is neither 0 nor 1.
        let mut wire = Vec::new();
        encode_request(
            &Request::SubmitV2(SubmitV2 {
                req_id: 1,
                deadline: 2,
                work_ns: 3,
                absolute: false,
            }),
            &mut wire,
        );
        let mut payload = wire[4..].to_vec();
        *payload.last_mut().unwrap() = 2;
        assert!(matches!(
            decode_request(&payload),
            Err(CodecError::BadPayload { .. })
        ));
        // SubmitV2 without its flag byte.
        assert!(matches!(
            decode_request(&payload[..25]),
            Err(CodecError::BadPayload { .. })
        ));
        // CompletedV2 with a met byte out of range.
        let wire = encoded_response(&Response::CompletedV2(CompletedV2::default()));
        let mut payload = wire[4..].to_vec();
        *payload.last_mut().unwrap() = 7;
        assert!(matches!(
            decode_response(&payload),
            Err(CodecError::BadPayload { .. })
        ));
        // Hello with a short body.
        assert!(matches!(
            decode_request(&[OP_HELLO, 1, 2, 3]),
            Err(CodecError::BadPayload { .. })
        ));
        // Overflowing deadlines are legal wire values (the server
        // saturates); the codec must pass them through unchanged.
        let extreme = SubmitV2 {
            req_id: u64::MAX,
            deadline: u64::MAX,
            work_ns: u64::MAX,
            absolute: true,
        };
        let mut wire = Vec::new();
        encode_request(&Request::SubmitV2(extreme), &mut wire);
        assert_eq!(
            decode_request(&wire[4..]).unwrap(),
            Request::SubmitV2(extreme)
        );
    }

    #[test]
    fn metrics_reply_bad_payloads_are_errors() {
        let wire = encoded_response(&Response::Metrics(Box::new(metrics_reply())));
        let payload = wire[4..].to_vec();
        // Truncating below the fixed blocks is a BadPayload.
        assert!(matches!(
            decode_response(&payload[..METRICS_FIXED - 9]),
            Err(CodecError::BadPayload { .. })
        ));
        // So is a gauge tail shorter than its declared worker count.
        assert!(matches!(
            decode_response(&payload[..payload.len() - 16]),
            Err(CodecError::BadPayload { .. })
        ));
        // A worker count that disagrees with the frame length is too,
        // including counts whose byte length overflows a usize.
        let n_off = METRICS_FIXED - 8; // n_workers word (opcode included)
        for lie in [999u64, u64::MAX, 1 << 61] {
            let mut lying = payload.clone();
            lying[n_off..n_off + 8].copy_from_slice(&lie.to_le_bytes());
            assert!(
                matches!(decode_response(&lying), Err(CodecError::BadPayload { .. })),
                "n_workers = {lie} decoded"
            );
        }
        // The largest legitimate frame still fits MAX_FRAME.
        let big = encoded_response(&Response::Metrics(Box::new(MetricsReply {
            utilization_permille: vec![1000; METRICS_MAX_WORKERS + 50],
            ..metrics_reply()
        })));
        assert_eq!(
            big.len() - 4,
            5073,
            "seven histograms, 7 + 8 counters, 128 gauges"
        );
        assert!(
            big.len() - 4 <= MAX_FRAME,
            "metrics frame exceeds MAX_FRAME"
        );
        match decode_response(&big[4..]).unwrap() {
            Response::Metrics(m) => assert_eq!(
                *m,
                maximal_metrics_reply(),
                "gauge tail is capped, not rejected"
            ),
            other => panic!("expected Metrics, got {other:?}"),
        }
    }

    /// Seed-count multiplier for the seeded tests; `RSCHED_STRESS=1` (or
    /// a number) raises it in the CI stress job.
    fn stress() -> u64 {
        match std::env::var("RSCHED_STRESS").as_deref() {
            Ok("0") | Err(_) => 1,
            Ok(v) => v.parse::<u64>().unwrap_or(1).clamp(1, 64) * 4,
        }
    }

    /// Seeded byte-level fuzz of both decoders. Each seed picks one
    /// valid payload (every variant, plus the maximal Metrics frame)
    /// and applies one to four mutations: a flipped byte, a truncation,
    /// an 8-byte word overwritten with 0, `u64::MAX` or `1 << 61`, a
    /// substituted opcode. Decoding must never panic, and whatever
    /// decodes must re-encode to a frame that decodes to the same
    /// value. `RSCHED_STRESS` scales the seed count; a failure names
    /// its seed.
    #[test]
    fn seeded_byte_fuzz_never_panics_and_reencodes() {
        let mut bases: Vec<Vec<u8>> = Vec::new();
        for req in [
            Request::SubmitV2(SubmitV2 {
                req_id: 7,
                deadline: 1_000_000,
                work_ns: 20_000,
                absolute: true,
            }),
            Request::Drain,
            Request::Metrics,
            Request::Hello(Hello {
                version: PROTO_V2,
                features: FEAT_EDF,
            }),
        ] {
            let mut wire = Vec::new();
            encode_request(&req, &mut wire);
            bases.push(wire);
        }
        for resp in [
            Response::Accepted { req_id: 1 },
            Response::Rejected {
                req_id: 2,
                code: RejectCode::QueueFull,
            },
            Response::CompletedV2(CompletedV2 {
                req_id: 3,
                sojourn_ns: 55_555,
                inject_ns: 444,
                deadline_ns: 1_000_000,
                tardiness_ns: 0,
                met: true,
            }),
            Response::Drained { completed: 9 },
            Response::Metrics(Box::new(metrics_reply())),
            Response::Metrics(Box::new(maximal_metrics_reply())),
            Response::HelloAck(HelloAck {
                version: PROTO_V2,
                features: FEAT_EDF,
                server_now_ns: 123,
            }),
        ] {
            bases.push(encoded_response(&resp));
        }
        // Payloads only: the decoders never see the length header.
        let bases: Vec<Vec<u8>> = bases.into_iter().map(|w| w[4..].to_vec()).collect();
        for seed in 0..100_000 * stress() {
            let case = std::panic::catch_unwind(|| fuzz_one(&bases, seed));
            assert!(case.is_ok(), "codec fuzz failed at seed {seed}");
        }
    }

    fn fuzz_one(bases: &[Vec<u8>], seed: u64) {
        // Every opcode the protocol has ever assigned, removed ones too.
        const OPCODES: [u8; 16] = [
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
            0x88, 0x89,
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = bases[rng.gen_range(0..bases.len())].clone();
        for _ in 0..rng.gen_range(1..=4) {
            match rng.gen_range(0..4) {
                0 if !p.is_empty() => {
                    let i = rng.gen_range(0..p.len());
                    p[i] ^= rng.gen_range(1..=255u8);
                }
                1 => p.truncate(rng.gen_range(0..=p.len())),
                2 if p.len() >= 9 => {
                    let off = 1 + 8 * rng.gen_range(0..(p.len() - 1) / 8);
                    let word = [0, u64::MAX, 1u64 << 61][rng.gen_range(0..3usize)];
                    p[off..off + 8].copy_from_slice(&word.to_le_bytes());
                }
                3 if !p.is_empty() => p[0] = OPCODES[rng.gen_range(0..OPCODES.len())],
                _ => {}
            }
        }
        if let Ok(req) = decode_request(&p) {
            let mut wire = Vec::new();
            encode_request(&req, &mut wire);
            assert_eq!(decode_request(&wire[4..]), Ok(req));
        }
        if let Ok(resp) = decode_response(&p) {
            let wire = encoded_response(&resp);
            assert_eq!(decode_response(&wire[4..]), Ok(resp));
        }
    }

    /// A socket stand-in: hands out `wire` in seeded random chunks of 1
    /// byte up to `max_chunk`, and fails half of all reads with
    /// `WouldBlock` or `TimedOut`, as a socket with a read timeout does
    /// when its peer writes in bursts.
    struct ChunkedStream {
        wire: Vec<u8>,
        pos: usize,
        max_chunk: usize,
        rng: SmallRng,
    }

    impl Read for ChunkedStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.rng.gen_range(0..4) {
                0 => return Err(io::ErrorKind::WouldBlock.into()),
                1 => return Err(io::ErrorKind::TimedOut.into()),
                _ => {}
            }
            let n = self
                .rng
                .gen_range(1..=self.max_chunk)
                .min(buf.len())
                .min(self.wire.len() - self.pos);
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn random_request(rng: &mut SmallRng) -> Request {
        match rng.gen_range(0..4) {
            0 => Request::Drain,
            1 => Request::Metrics,
            2 => Request::Hello(Hello {
                version: rng.gen(),
                features: rng.gen(),
            }),
            _ => Request::SubmitV2(SubmitV2 {
                req_id: rng.gen(),
                deadline: rng.gen(),
                work_ns: rng.gen(),
                absolute: rng.gen_bool(0.5),
            }),
        }
    }

    /// `read_frame` through a `BufReader`, over a stream that splits
    /// frames at random points and times out between and inside them,
    /// returns exactly the encoded requests in order, surfaces a
    /// timeout only at a frame boundary, and ends with a clean EOF.
    /// `RSCHED_STRESS` scales the seed count; a failure names its seed.
    #[test]
    fn buffered_framing_survives_split_reads_and_timeouts() {
        // The largest request frame: SubmitV2, 4 + 26 bytes.
        const LARGEST: usize = 30;
        for seed in 0..1_000 * stress() {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sent: Vec<Request> = (0..rng.gen_range(1..=64))
                .map(|_| random_request(&mut rng))
                .collect();
            let mut wire = Vec::new();
            // Byte offset of each frame's first byte, and of the end.
            let mut boundaries = vec![0];
            for req in &sent {
                encode_request(req, &mut wire);
                boundaries.push(wire.len());
            }
            let mut stream = io::BufReader::new(ChunkedStream {
                wire,
                pos: 0,
                max_chunk: LARGEST + 7,
                rng,
            });
            let mut payload = Vec::new();
            let mut got = Vec::new();
            loop {
                match read_frame(&mut stream, &mut payload) {
                    Ok(true) => got.push(decode_request(&payload).unwrap()),
                    Ok(false) => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        let consumed = stream.get_ref().pos - stream.buffer().len();
                        assert_eq!(
                            consumed,
                            boundaries[got.len()],
                            "seed {seed}: timeout surfaced inside frame {}",
                            got.len()
                        );
                    }
                    Err(e) => panic!("seed {seed}: {e}"),
                }
            }
            assert_eq!(got, sent, "seed {seed}");
            assert_eq!(stream.get_ref().pos, *boundaries.last().unwrap());
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut wire = Vec::new();
        encode_request(&Request::Metrics, &mut wire);
        encode_request(&Request::Drain, &mut wire);
        let mut cursor = io::Cursor::new(wire);
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_request(&payload).unwrap(), Request::Metrics);
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_request(&payload).unwrap(), Request::Drain);
        assert!(!read_frame(&mut cursor, &mut payload).unwrap());
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        // Header promises 26 bytes; stream ends after 10.
        let mut wire = Vec::new();
        encode_request(&Request::SubmitV2(SubmitV2::default()), &mut wire);
        wire.truncate(4 + 10);
        let mut cursor = io::Cursor::new(wire);
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        // Truncated mid-header too.
        let mut cursor = io::Cursor::new(vec![9u8, 0]);
        let err = read_frame(&mut cursor, &mut payload).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        let mut cursor = io::Cursor::new(wire);
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).unwrap_err();
        assert!(err.to_string().contains("oversized"), "{err}");
        assert!(
            payload.capacity() <= MAX_FRAME,
            "allocated for a bogus header"
        );
    }

    #[test]
    fn unknown_opcode_and_bad_lengths_are_errors() {
        assert_eq!(
            decode_request(&[0x7F]),
            Err(CodecError::UnknownOpcode(0x7F))
        );
        // The unassigned opcodes stay unknown in both directions.
        for op in [0x01, 0x02, 0x03] {
            assert_eq!(decode_request(&[op]), Err(CodecError::UnknownOpcode(op)));
        }
        for op in [0x01, 0x83, 0x84, 0x86] {
            assert_eq!(decode_response(&[op]), Err(CodecError::UnknownOpcode(op)));
        }
        assert_eq!(decode_request(&[]), Err(CodecError::Empty));
        // SubmitV2 with a short body.
        assert_eq!(
            decode_request(&[OP_SUBMIT2, 1, 2, 3]),
            Err(CodecError::BadPayload {
                opcode: OP_SUBMIT2,
                len: 3
            })
        );
        // Rejected with an out-of-range code byte, or the unassigned 2.
        for code in [2, 99] {
            let mut body = vec![OP_REJECTED];
            body.extend_from_slice(&7u64.to_le_bytes());
            body.push(code);
            assert!(matches!(
                decode_response(&body),
                Err(CodecError::BadPayload { .. })
            ));
        }
        // Zero-length frame on the wire.
        let mut cursor = io::Cursor::new(vec![0u8, 0, 0, 0]);
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }
}
