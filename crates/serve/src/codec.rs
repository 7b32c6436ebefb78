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
//! ## Versioning
//!
//! The protocol has two negotiated versions. A connection starts at
//! [`PROTO_V1`]; a client that opens with [`Request::Hello`] negotiates
//! up to [`PROTO_V2`] (the server answers [`Response::HelloAck`] with
//! the granted version and feature bits). v1 framing is a strict subset
//! — a v1 client that never sends `Hello` sees exactly the PR 7/8 wire
//! format, including the 80-byte `StatsReply` — and the v2 additions
//! are either new opcodes or length-distinguished extensions of
//! existing replies, so both generations decode with the same
//! [`decode_response`].
//!
//! Fixed-layout frames keep their field order in one place: each
//! carries a struct with a `WIRE_FIELDS` name list and
//! `to_wire`/`from_wire` word arrays (the PR 8 `StatsReply` pattern),
//! and the codec tests assert name-by-name that byte offset `i * 8`
//! really carries `WIRE_FIELDS[i]`.
//!
//! | opcode | frame | payload after the opcode byte |
//! |---|---|---|
//! | `0x01` | [`Request::Submit`] | [`Submit`]: `req_id u64, prio u64, work_ns u64` |
//! | `0x02` | [`Request::Ping`] | `token u64` |
//! | `0x03` | [`Request::Stats`] | — |
//! | `0x04` | [`Request::Drain`] | — |
//! | `0x05` | [`Request::Metrics`] | — |
//! | `0x06` | [`Request::Hello`] | [`Hello`]: `version u64, features u64` |
//! | `0x07` | [`Request::SubmitV2`] | [`SubmitV2`]: `req_id u64, deadline u64, work_ns u64, flags u8` |
//! | `0x81` | [`Response::Accepted`] | `req_id u64` |
//! | `0x82` | [`Response::Rejected`] | `req_id u64, code u8` |
//! | `0x83` | [`Response::Completed`] | [`Completed`]: `req_id u64, sojourn_ns u64, inject_ns u64` |
//! | `0x84` | [`Response::Pong`] | `token u64` |
//! | `0x85` | [`Response::Drained`] | `completed u64` |
//! | `0x86` | [`Response::Stats`] | [`StatsReply`], ten `u64`s (v1) or fifteen (v2) |
//! | `0x87` | [`Response::Metrics`] | [`MetricsReply`]: histogram blocks, counters, gauges (+ deadline block on v2) |
//! | `0x88` | [`Response::HelloAck`] | [`HelloAck`]: `version u64, features u64, server_now_ns u64` |
//! | `0x89` | [`Response::CompletedV2`] | [`CompletedV2`]: five `u64`s + `met u8` |

use rsched_queues::telemetry::{HistSnapshot, TelemetrySnapshot, HIST_BUCKETS, N_HISTS};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload. The largest legitimate frame
/// ([`Response::Metrics`] at v2, whose five histogram blocks carry full
/// 64-bucket arrays plus 128 worker gauges) is 3921 bytes; the slack
/// leaves room for protocol growth while still rejecting nonsense
/// headers instantly. v1 peers (compiled with the old 4096 ceiling)
/// only ever receive v1 frames, which all fit under 4096.
pub const MAX_FRAME: usize = 8192;

/// The original protocol: implicit, no handshake. `Submit.prio` is an
/// opaque word the server overwrites with its own arrival stamp.
pub const PROTO_V1: u64 = 1;
/// The deadline-aware protocol: negotiated via [`Request::Hello`].
/// Adds [`Request::SubmitV2`] (client-set deadlines),
/// [`Response::CompletedV2`] (met/missed verdicts), and the extended
/// Stats/Metrics replies.
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
    /// The connection is draining; no new work on this socket.
    Draining = 2,
    /// The server is shutting down.
    Shutdown = 3,
    /// A [`Request::Hello`] asked for a protocol version this server
    /// cannot speak (currently: version 0). Carried with `req_id = 0`;
    /// the server closes the connection after sending it.
    BadVersion = 4,
}

impl RejectCode {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(RejectCode::QueueFull),
            2 => Some(RejectCode::Draining),
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

/// The v1 submission body: `prio` is an opaque scheduling word. The
/// server ignores it (it stamps its own arrival clock), but it stays on
/// the wire for v1 compatibility.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Submit {
    /// Client-chosen id, echoed on every response about this request.
    pub req_id: u64,
    /// Legacy priority word (ignored by the server since v2).
    pub prio: u64,
    /// Synthetic service time the worker spends on the task, ns.
    pub work_ns: u64,
}

wire_table!(Submit, 3, [req_id, prio, work_ns]);

/// The v2 submission body: the scheduling word is a client-set
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

/// The v1 completion body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Completed {
    /// Echo of the submission's id.
    pub req_id: u64,
    /// Submit→complete as measured by the server, ns.
    pub sojourn_ns: u64,
    /// Submit→inject prefix of the sojourn, ns.
    pub inject_ns: u64,
}

wire_table!(Completed, 3, [req_id, sojourn_ns, inject_ns]);

/// The v2 completion body: every deadline-carrying task reports its
/// verdict. `tardiness_ns` is `completion - deadline` saturated at zero
/// (a met deadline has tardiness 0), `met` is the boolean verdict.
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

/// The client's opening handshake. Optional: a connection that submits
/// without one is a v1 connection. `version` is the highest protocol
/// the client speaks; `features` the capabilities it requests (the
/// server grants the intersection with its own).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the client speaks.
    pub version: u64,
    /// Requested feature bits ([`FEAT_EDF`], ...).
    pub features: u64,
}

wire_table!(Hello, 2, [version, features]);

/// The server's handshake answer: the negotiated version
/// (`min(client, server)`), the granted feature bits, and the server's
/// monotonic clock at reply time — the epoch clients use to convert
/// wall deadlines into absolute [`SubmitV2::deadline`] values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HelloAck {
    /// Negotiated protocol version for this connection.
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
    /// Submit one task (v1 body).
    Submit(Submit),
    /// Submit one deadline-carrying task (v2 body). Accepted on any
    /// connection that negotiated [`PROTO_V2`].
    SubmitV2(SubmitV2),
    /// Liveness probe; the server echoes the token in a [`Response::Pong`].
    Ping { token: u64 },
    /// Ask for a [`StatsReply`] snapshot.
    Stats,
    /// Graceful per-connection drain: the server stops reading this
    /// socket, finishes every task it accepted from it, then sends
    /// [`Response::Drained`] and closes.
    Drain,
    /// Ask for a [`MetricsReply`] — the live telemetry exposition: the
    /// full process telemetry snapshot plus gauge samples.
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
    /// The task finished (v1 body — replies to [`Request::Submit`]).
    Completed(Completed),
    /// The task finished with a deadline verdict (replies to
    /// [`Request::SubmitV2`]).
    CompletedV2(CompletedV2),
    /// [`Request::Ping`] echo.
    Pong { token: u64 },
    /// Drain finished: every task accepted on this connection has
    /// completed (`completed` counts them, over the connection's life).
    Drained { completed: u64 },
    /// [`Request::Stats`] answer.
    Stats(StatsReply),
    /// [`Request::Metrics`] answer. Boxed: the reply is ~4 KB of
    /// histogram blocks, and the enum rides writer channels whose
    /// common traffic is 24-byte `Completed`s.
    Metrics(Box<MetricsReply>),
    /// [`Request::Hello`] answer.
    HelloAck(HelloAck),
}

/// Server-side counters and sojourn quantiles, as reported over the
/// wire. Quantiles come from the server's log₂ `PowHistogram`s, so they
/// are conservative bucket upper bounds in nanoseconds.
///
/// The v1 frame carries the first [`StatsReply::V1_WORDS`] words; the
/// v2 frame appends the deadline block (`deadline_met` onward). Both
/// lengths decode — missing fields come back zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Submissions seen (accepted + rejected).
    pub submitted: u64,
    /// Submissions that passed admission.
    pub accepted: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks currently queued or running (`accepted - completed`).
    pub in_flight: u64,
    /// Median submit→complete sojourn, ns.
    pub sojourn_p50: u64,
    /// 99th-percentile sojourn, ns.
    pub sojourn_p99: u64,
    /// 99.9th-percentile sojourn, ns.
    pub sojourn_p999: u64,
    /// Largest observed sojourn bucket, ns.
    pub sojourn_max: u64,
    /// 99th-percentile submit→inject prefix, ns.
    pub inject_p99: u64,
    /// Deadline-carrying completions that met their deadline.
    pub deadline_met: u64,
    /// Deadline-carrying completions that missed.
    pub deadline_misses: u64,
    /// `deadline_misses` per thousand deadline-carrying completions
    /// (0 when none have completed).
    pub miss_permille: u64,
    /// 99th-percentile tardiness over deadline-carrying completions,
    /// ns (met deadlines record tardiness 0).
    pub tardiness_p99: u64,
    /// 99.9th-percentile tardiness, ns.
    pub tardiness_p999: u64,
}

wire_table!(
    StatsReply,
    15,
    [
        submitted,
        accepted,
        rejected,
        completed,
        in_flight,
        sojourn_p50,
        sojourn_p99,
        sojourn_p999,
        sojourn_max,
        inject_p99,
        deadline_met,
        deadline_misses,
        miss_permille,
        tardiness_p99,
        tardiness_p999,
    ]
);

impl StatsReply {
    /// How many leading [`WIRE_FIELDS`](Self::WIRE_FIELDS) words the v1
    /// frame carries (everything before the deadline block).
    pub const V1_WORDS: usize = 10;
}

/// The live telemetry exposition carried by [`Response::Metrics`]: the
/// **full** process [`TelemetrySnapshot`] — all four per-op histogram
/// series with their complete 64-bucket arrays and derived quantiles,
/// the event counters, the epoch-GC deltas — plus gauge samples from
/// the serving layer's lightweight sampler. On v2 connections a
/// deadline block rides after the gauges: the full tardiness histogram
/// and the [`MetricsReply::DEADLINE_FIELDS`] counters.
///
/// Wire layout after the opcode byte (all `u64` LE):
///
/// | block | words |
/// |---|---|
/// | histograms ×4, in order retry/steal/sweep/tick | each `count, p50, p90, p99, p999, max` + 64 buckets |
/// | counters | `empty_pops, registry_probes, seg_installs` (always 0), `flush_published, flush_merged, gc_deferred, gc_collected` |
/// | gauges | `in_flight`, `n_workers`, then `n_workers` per-worker busy-permille samples |
/// | v2 only: deadline block | tardiness histogram (same shape), then `deadline_met, deadline_misses, miss_permille` |
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
    /// Tasks admitted but not yet completed, at reply time.
    pub in_flight: u64,
    /// Per-worker busy time since the previous `Metrics` poll, in
    /// permille of the elapsed wall interval (0 = idle, 1000 = fully
    /// busy), indexed by worker id.
    pub utilization_permille: Vec<u64>,
    /// Tardiness histogram over deadline-carrying completions, ns
    /// (v2 frames only; zero/empty on a v1 frame).
    pub tardiness: HistSnapshot,
    /// Deadline-carrying completions that met their deadline (v2 only).
    pub deadline_met: u64,
    /// Deadline-carrying completions that missed (v2 only).
    pub deadline_misses: u64,
    /// Misses per thousand deadline-carrying completions (v2 only).
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

    /// The v2 deadline block's trailing scalar words, in wire order
    /// (they follow the tardiness histogram block).
    pub const DEADLINE_FIELDS: [&'static str; 3] =
        ["deadline_met", "deadline_misses", "miss_permille"];

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

    /// Deadline-block scalar by wire name.
    pub fn deadline_field(&self, name: &str) -> Option<u64> {
        Some(match name {
            "deadline_met" => self.deadline_met,
            "deadline_misses" => self.deadline_misses,
            "miss_permille" => self.miss_permille,
            _ => return None,
        })
    }
}

/// Wire size of one histogram block: the six derived words plus the
/// full bucket array.
const HIST_WIRE_WORDS: usize = 6 + HIST_BUCKETS;
/// [`MetricsReply`] payload length before the variable per-worker gauge
/// words (opcode byte included).
const METRICS_FIXED: usize = 1 + (N_HISTS * HIST_WIRE_WORDS + 7 + 2) * 8;
/// The v2 deadline block appended after the gauges: one histogram plus
/// the three scalar words.
const METRICS_DEADLINE_BYTES: usize = (HIST_WIRE_WORDS + 3) * 8;
/// Per-worker gauge entries are capped so the frame stays under
/// [`MAX_FRAME`] whatever the pool width; pools wider than this report
/// their first 128 workers.
pub const METRICS_MAX_WORKERS: usize = 128;

const OP_SUBMIT: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_DRAIN: u8 = 0x04;
const OP_METRICS: u8 = 0x05;
const OP_HELLO: u8 = 0x06;
const OP_SUBMIT2: u8 = 0x07;
const OP_ACCEPTED: u8 = 0x81;
const OP_REJECTED: u8 = 0x82;
const OP_COMPLETED: u8 = 0x83;
const OP_PONG: u8 = 0x84;
const OP_DRAINED: u8 = 0x85;
const OP_STATS_REPLY: u8 = 0x86;
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
        Request::Submit(s) => {
            frame(out, 25);
            out.push(OP_SUBMIT);
            put_words(out, s.to_wire());
        }
        Request::SubmitV2(s) => {
            frame(out, 26);
            out.push(OP_SUBMIT2);
            put_words(out, s.to_wire());
            out.push(s.absolute as u8);
        }
        Request::Ping { token } => {
            frame(out, 9);
            out.push(OP_PING);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Request::Stats => {
            frame(out, 1);
            out.push(OP_STATS);
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

/// Append the full frame (header + payload) for `resp` to `out`,
/// encoded for a connection that negotiated `version`. Only the
/// [`Response::Stats`] and [`Response::Metrics`] layouts depend on it
/// (v1 peers get the original shorter frames, with the deadline blocks
/// dropped); every other frame encodes identically at either version.
pub fn encode_response(resp: &Response, version: u64, out: &mut Vec<u8>) {
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
        Response::Completed(c) => {
            frame(out, 25);
            out.push(OP_COMPLETED);
            put_words(out, c.to_wire());
        }
        Response::CompletedV2(c) => {
            frame(out, 42);
            out.push(OP_COMPLETED2);
            put_words(out, c.to_wire());
            out.push(c.met as u8);
        }
        Response::Pong { token } => {
            frame(out, 9);
            out.push(OP_PONG);
            out.extend_from_slice(&token.to_le_bytes());
        }
        Response::Drained { completed } => {
            frame(out, 9);
            out.push(OP_DRAINED);
            out.extend_from_slice(&completed.to_le_bytes());
        }
        Response::Stats(s) => {
            // One canonical field order: `to_wire` (named fields, same
            // list `from_wire` destructures) is the only place the
            // layout lives. v1 peers get the leading V1_WORDS words.
            let words = if version >= PROTO_V2 {
                StatsReply::WIRE_FIELDS.len()
            } else {
                StatsReply::V1_WORDS
            };
            frame(out, 1 + words * 8);
            out.push(OP_STATS_REPLY);
            for v in s.to_wire().into_iter().take(words) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Metrics(m) => {
            let workers = m.utilization_permille.len().min(METRICS_MAX_WORKERS);
            let deadline = if version >= PROTO_V2 {
                METRICS_DEADLINE_BYTES
            } else {
                0
            };
            frame(out, METRICS_FIXED + workers * 8 + deadline);
            out.push(OP_METRICS_REPLY);
            let t = &m.telemetry;
            for h in [&t.retry, &t.steal, &t.sweep, &t.tick] {
                encode_hist(h, out);
            }
            for name in MetricsReply::COUNTER_FIELDS {
                let v = m.counter(name).expect("COUNTER_FIELDS is exhaustive");
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&m.in_flight.to_le_bytes());
            out.extend_from_slice(&(workers as u64).to_le_bytes());
            for u in m.utilization_permille.iter().take(workers) {
                out.extend_from_slice(&u.to_le_bytes());
            }
            if deadline > 0 {
                encode_hist(&m.tardiness, out);
                for name in MetricsReply::DEADLINE_FIELDS {
                    let v = m
                        .deadline_field(name)
                        .expect("DEADLINE_FIELDS is exhaustive");
                    out.extend_from_slice(&v.to_le_bytes());
                }
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
        OP_SUBMIT => {
            expect_len(opcode, body, 24)?;
            Ok(Request::Submit(Submit::from_wire(words_at(body, 0))))
        }
        OP_SUBMIT2 => {
            expect_len(opcode, body, 25)?;
            let mut s = SubmitV2::from_wire(words_at(body, 0));
            s.absolute = expect_bool(opcode, body, body[24])?;
            Ok(Request::SubmitV2(s))
        }
        OP_PING => {
            expect_len(opcode, body, 8)?;
            Ok(Request::Ping {
                token: u64_at(body, 0),
            })
        }
        OP_STATS => {
            expect_len(opcode, body, 0)?;
            Ok(Request::Stats)
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
        OP_COMPLETED => {
            expect_len(opcode, body, 24)?;
            Ok(Response::Completed(Completed::from_wire(words_at(body, 0))))
        }
        OP_COMPLETED2 => {
            expect_len(opcode, body, 41)?;
            let mut c = CompletedV2::from_wire(words_at(body, 0));
            c.met = expect_bool(opcode, body, body[40])?;
            Ok(Response::CompletedV2(c))
        }
        OP_PONG => {
            expect_len(opcode, body, 8)?;
            Ok(Response::Pong {
                token: u64_at(body, 0),
            })
        }
        OP_DRAINED => {
            expect_len(opcode, body, 8)?;
            Ok(Response::Drained {
                completed: u64_at(body, 0),
            })
        }
        OP_STATS_REPLY => {
            // Length-distinguished versions: 10 words from a v1 server,
            // 15 from v2. Missing trailing fields decode as zero.
            let n = StatsReply::WIRE_FIELDS.len();
            if body.len() != StatsReply::V1_WORDS * 8 && body.len() != n * 8 {
                return Err(CodecError::BadPayload {
                    opcode,
                    len: body.len(),
                });
            }
            let mut w = [0u64; 15];
            for (i, slot) in w.iter_mut().enumerate().take(body.len() / 8) {
                *slot = u64_at(body, i * 8);
            }
            Ok(Response::Stats(StatsReply::from_wire(w)))
        }
        OP_METRICS_REPLY => {
            // Fixed blocks plus a self-describing per-worker gauge tail:
            // the declared worker count must match the frame exactly —
            // either the v1 length or the v1 length plus the deadline
            // block.
            let fixed = METRICS_FIXED - 1;
            if body.len() < fixed {
                return Err(CodecError::BadPayload {
                    opcode,
                    len: body.len(),
                });
            }
            let hists: Vec<HistSnapshot> = (0..N_HISTS)
                .map(|h| decode_hist(body, h * HIST_WIRE_WORDS * 8))
                .collect();
            let counters_off = N_HISTS * HIST_WIRE_WORDS * 8;
            let c = |i: usize| u64_at(body, counters_off + i * 8);
            let in_flight = c(7);
            let workers = c(8) as usize;
            let v1_len = fixed + workers * 8;
            let v2_len = v1_len + METRICS_DEADLINE_BYTES;
            if workers > METRICS_MAX_WORKERS || (body.len() != v1_len && body.len() != v2_len) {
                return Err(CodecError::BadPayload {
                    opcode,
                    len: body.len(),
                });
            }
            let gauges_off = counters_off + 9 * 8;
            let utilization_permille = (0..workers)
                .map(|i| u64_at(body, gauges_off + i * 8))
                .collect();
            let (tardiness, deadline_met, deadline_misses, miss_permille) = if body.len() == v2_len
            {
                let off = gauges_off + workers * 8;
                let scalars = off + HIST_WIRE_WORDS * 8;
                (
                    decode_hist(body, off),
                    u64_at(body, scalars),
                    u64_at(body, scalars + 8),
                    u64_at(body, scalars + 16),
                )
            } else {
                (HistSnapshot::default(), 0, 0, 0)
            };
            let mut it = hists.into_iter();
            let (retry, steal, sweep, tick) = (
                it.next().unwrap(),
                it.next().unwrap(),
                it.next().unwrap(),
                it.next().unwrap(),
            );
            Ok(Response::Metrics(Box::new(MetricsReply {
                telemetry: TelemetrySnapshot {
                    retry,
                    steal,
                    sweep,
                    tick,
                    empty_pops: c(0),
                    registry_probes: c(1),
                    seg_installs: c(2),
                    flush_published: c(3),
                    flush_merged: c(4),
                    gc_deferred: c(5),
                    gc_collected: c(6),
                },
                in_flight,
                utilization_permille,
                tardiness,
                deadline_met,
                deadline_misses,
                miss_permille,
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
/// Returns `Ok(false)` on a clean end of stream at a frame boundary.
/// Truncation inside a frame, an oversized header and I/O failures all
/// surface as `Err`; the caller must not interpret the buffer then.
/// Timeout errors (`WouldBlock`/`TimedOut`) pass through untouched so
/// connection loops can poll a shutdown flag — but only when they occur
/// before the first header byte; a timeout mid-frame is truncation.
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

/// Encode `resp` at `version` and write the frame (no flush).
pub fn write_response<W: Write + ?Sized>(
    w: &mut W,
    resp: &Response,
    version: u64,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    encode_response(resp, version, &mut buf);
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut wire = Vec::new();
        encode_response(&resp, PROTO_V2, &mut wire);
        let mut cursor = io::Cursor::new(wire);
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
            in_flight: 9,
            utilization_permille: vec![1000, 517, 0, 250],
            tardiness: hist(5),
            deadline_met: 88,
            deadline_misses: 12,
            miss_permille: 120,
        }
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip_request(Request::Submit(Submit {
            req_id: u64::MAX,
            prio: 17,
            work_ns: 1_000_000,
        }));
        for absolute in [false, true] {
            roundtrip_request(Request::SubmitV2(SubmitV2 {
                req_id: 7,
                deadline: u64::MAX,
                work_ns: 20_000,
                absolute,
            }));
        }
        roundtrip_request(Request::Ping { token: 0xDEAD_BEEF });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Drain);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Hello(Hello {
            version: PROTO_V2,
            features: FEAT_EDF,
        }));
        roundtrip_response(Response::Accepted { req_id: 1 });
        for code in [
            RejectCode::QueueFull,
            RejectCode::Draining,
            RejectCode::Shutdown,
            RejectCode::BadVersion,
        ] {
            roundtrip_response(Response::Rejected { req_id: 2, code });
        }
        roundtrip_response(Response::Completed(Completed {
            req_id: 3,
            sojourn_ns: 123_456,
            inject_ns: 789,
        }));
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
        roundtrip_response(Response::Pong { token: 9 });
        roundtrip_response(Response::Drained { completed: 1_000 });
        roundtrip_response(Response::Stats(StatsReply {
            submitted: 10,
            accepted: 8,
            rejected: 2,
            completed: 7,
            in_flight: 1,
            sojourn_p50: 1023,
            sojourn_p99: 4095,
            sojourn_p999: 8191,
            sojourn_max: 16383,
            inject_p99: 255,
            deadline_met: 6,
            deadline_misses: 1,
            miss_permille: 142,
            tardiness_p99: 511,
            tardiness_p999: 1023,
        }));
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

    /// A v1-encoded Stats frame (80 bytes) still decodes — the deadline
    /// block comes back zero — and a v1-encoded Metrics frame drops the
    /// deadline block the same way. This is the compatibility contract
    /// for v1 clients talking to a v2 server and vice versa.
    #[test]
    fn v1_frames_decode_with_zero_deadline_blocks() {
        let full = StatsReply {
            submitted: 10,
            deadline_met: 7,
            deadline_misses: 3,
            miss_permille: 300,
            tardiness_p99: 99,
            tardiness_p999: 999,
            ..Default::default()
        };
        let mut wire = Vec::new();
        encode_response(&Response::Stats(full), PROTO_V1, &mut wire);
        assert_eq!(wire.len(), 4 + 1 + StatsReply::V1_WORDS * 8);
        match decode_response(&wire[4..]).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.submitted, 10);
                assert_eq!(
                    (s.deadline_met, s.deadline_misses, s.miss_permille),
                    (0, 0, 0),
                    "v1 frame must not carry the deadline block"
                );
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        let mut wire = Vec::new();
        encode_response(
            &Response::Metrics(Box::new(metrics_reply())),
            PROTO_V1,
            &mut wire,
        );
        match decode_response(&wire[4..]).unwrap() {
            Response::Metrics(m) => {
                assert_eq!(m.telemetry.empty_pops, 11);
                assert_eq!(m.deadline_misses, 0);
                assert_eq!(m.tardiness, HistSnapshot::default());
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
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
    fn stats_reply_field_order_is_named_end_to_end() {
        let w: [u64; 15] = std::array::from_fn(|i| 0xA1 + i as u64);
        let reply = StatsReply::from_wire(w);
        let mut wire = Vec::new();
        encode_response(&Response::Stats(reply), PROTO_V2, &mut wire);
        assert_field_order(&wire, 120, StatsReply::WIRE_FIELDS, |n| {
            reply.field(n).unwrap()
        });
        // And the decode side rebuilds by the same names.
        let decoded = decode_response(&wire[4..]).unwrap();
        assert_eq!(decoded, Response::Stats(reply));
    }

    #[test]
    fn submit_field_order_is_named_end_to_end() {
        let s = Submit::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        let mut wire = Vec::new();
        encode_request(&Request::Submit(s), &mut wire);
        assert_field_order(&wire, 24, Submit::WIRE_FIELDS, |n| s.field(n).unwrap());
        assert_eq!(decode_request(&wire[4..]).unwrap(), Request::Submit(s));
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
    fn completed_field_order_is_named_end_to_end() {
        let c = Completed::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        let mut wire = Vec::new();
        encode_response(&Response::Completed(c), PROTO_V1, &mut wire);
        assert_field_order(&wire, 24, Completed::WIRE_FIELDS, |n| c.field(n).unwrap());
        assert_eq!(decode_response(&wire[4..]).unwrap(), Response::Completed(c));
    }

    #[test]
    fn completed_v2_field_order_is_named_end_to_end() {
        let mut c = CompletedV2::from_wire(std::array::from_fn(|i| 0xA1 + i as u64));
        c.met = true;
        let mut wire = Vec::new();
        encode_response(&Response::CompletedV2(c), PROTO_V2, &mut wire);
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
        let mut wire = Vec::new();
        encode_response(&Response::HelloAck(a), PROTO_V2, &mut wire);
        assert_field_order(&wire, 24, HelloAck::WIRE_FIELDS, |n| a.field(n).unwrap());
        assert_eq!(decode_response(&wire[4..]).unwrap(), Response::HelloAck(a));
    }

    /// The Metrics counter block and v2 deadline block are positional
    /// on the wire; this pins each scalar to its named offset the same
    /// way the frame structs pin theirs.
    #[test]
    fn metrics_scalar_blocks_are_named_end_to_end() {
        let m = metrics_reply();
        let mut wire = Vec::new();
        encode_response(&Response::Metrics(Box::new(m.clone())), PROTO_V2, &mut wire);
        let body = &wire[5..];
        let counters_off = 4 * HIST_WIRE_WORDS * 8; // retry, steal, sweep, tick
        for (i, name) in MetricsReply::COUNTER_FIELDS.iter().enumerate() {
            assert_eq!(
                u64_at(body, counters_off + i * 8),
                m.counter(name).unwrap(),
                "counter offset {i} must carry `{name}`"
            );
        }
        let scalars_off = counters_off + 9 * 8 // in_flight + n_workers
            + m.utilization_permille.len() * 8
            + HIST_WIRE_WORDS * 8; // tardiness histogram
        for (i, name) in MetricsReply::DEADLINE_FIELDS.iter().enumerate() {
            assert_eq!(
                u64_at(body, scalars_off + i * 8),
                m.deadline_field(name).unwrap(),
                "deadline-block offset {i} must carry `{name}`"
            );
        }
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
        // SubmitV2 truncated to the v1 Submit length.
        assert!(matches!(
            decode_request(&payload[..25]),
            Err(CodecError::BadPayload { .. })
        ));
        // CompletedV2 with a met byte out of range.
        let mut wire = Vec::new();
        encode_response(
            &Response::CompletedV2(CompletedV2::default()),
            PROTO_V2,
            &mut wire,
        );
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
        // Stats frames at any length other than the two versions fail.
        let mut bogus = vec![OP_STATS_REPLY];
        bogus.extend_from_slice(&[0u8; 88]);
        assert!(matches!(
            decode_response(&bogus),
            Err(CodecError::BadPayload { .. })
        ));
    }

    #[test]
    fn metrics_reply_bad_payloads_are_errors() {
        let mut wire = Vec::new();
        encode_response(
            &Response::Metrics(Box::new(metrics_reply())),
            PROTO_V2,
            &mut wire,
        );
        let payload = wire[4..].to_vec();
        // Truncating below the fixed blocks is a BadPayload.
        assert!(matches!(
            decode_response(&payload[..METRICS_FIXED - 9]),
            Err(CodecError::BadPayload { .. })
        ));
        // Chopping the deadline block in half leaves a length that is
        // neither v1 nor v2.
        assert!(matches!(
            decode_response(&payload[..payload.len() - 16]),
            Err(CodecError::BadPayload { .. })
        ));
        // A worker count that disagrees with the frame length is too.
        let mut lying = payload.clone();
        let n_off = METRICS_FIXED - 8; // n_workers word (opcode included)
        lying[n_off..n_off + 8].copy_from_slice(&999u64.to_le_bytes());
        assert!(matches!(
            decode_response(&lying),
            Err(CodecError::BadPayload { .. })
        ));
        // The largest legitimate frame still fits MAX_FRAME.
        let mut big = Vec::new();
        encode_response(
            &Response::Metrics(Box::new(MetricsReply {
                utilization_permille: vec![1000; METRICS_MAX_WORKERS + 50],
                ..metrics_reply()
            })),
            PROTO_V2,
            &mut big,
        );
        assert_eq!(
            big.len() - 4,
            3921,
            "four telemetry histograms + tardiness, 7 counters, 128 gauges"
        );
        assert!(
            big.len() - 4 <= MAX_FRAME,
            "metrics frame exceeds MAX_FRAME"
        );
        match decode_response(&big[4..]).unwrap() {
            Response::Metrics(m) => {
                assert_eq!(
                    m.utilization_permille.len(),
                    METRICS_MAX_WORKERS,
                    "gauge tail is capped, not rejected"
                );
                assert_eq!(m.deadline_met, 88, "deadline block survives the cap");
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
        // The v1 encoding of the same maximal reply stays under the
        // *old* 4096-byte ceiling — v1 peers never see a bigger frame.
        let mut v1 = Vec::new();
        encode_response(
            &Response::Metrics(Box::new(MetricsReply {
                utilization_permille: vec![1000; METRICS_MAX_WORKERS],
                ..metrics_reply()
            })),
            PROTO_V1,
            &mut v1,
        );
        assert!(v1.len() - 4 <= 4096, "v1 metrics frame exceeds old ceiling");
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut wire = Vec::new();
        encode_request(&Request::Ping { token: 1 }, &mut wire);
        encode_request(&Request::Drain, &mut wire);
        let mut cursor = io::Cursor::new(wire);
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(
            decode_request(&payload).unwrap(),
            Request::Ping { token: 1 }
        );
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_request(&payload).unwrap(), Request::Drain);
        assert!(!read_frame(&mut cursor, &mut payload).unwrap());
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        // Header promises 25 bytes; stream ends after 10.
        let mut wire = Vec::new();
        encode_request(
            &Request::Submit(Submit {
                req_id: 1,
                prio: 2,
                work_ns: 3,
            }),
            &mut wire,
        );
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
        assert_eq!(
            decode_response(&[0x01]),
            Err(CodecError::UnknownOpcode(0x01))
        );
        assert_eq!(decode_request(&[]), Err(CodecError::Empty));
        // Submit with a short body.
        assert_eq!(
            decode_request(&[OP_SUBMIT, 1, 2, 3]),
            Err(CodecError::BadPayload {
                opcode: OP_SUBMIT,
                len: 3
            })
        );
        // Rejected with an out-of-range code byte.
        let mut body = vec![OP_REJECTED];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.push(99);
        assert!(matches!(
            decode_response(&body),
            Err(CodecError::BadPayload { .. })
        ));
        // Zero-length frame on the wire.
        let mut cursor = io::Cursor::new(vec![0u8, 0, 0, 0]);
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }
}
