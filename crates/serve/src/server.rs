//! The serving front-end: listener, per-connection state machines,
//! admission control and request-lifecycle stamping.
//!
//! # Anatomy of a request
//!
//! ```text
//!  client ──Submit──▶ reader thread ──inject──▶ service pool ──▶ worker
//!                        │  ▲                                      │
//!                        │  └── admission (bounded in_flight) ──┐  │
//!                        ▼                                      │  ▼
//!  client ◀─frames── writer thread ◀──Accepted/Rejected─────────┘
//!                        ▲
//!                        └────── Completed (from the worker) ──────┘
//! ```
//!
//! Each connection runs **two** threads: a *reader* that decodes
//! frames, runs admission and injects accepted tasks through its own
//! [`Injector`](rsched_runtime::Injector) session, and a *writer* that
//! owns the write half and serialises every response — so the worker
//! that completes a task never touches the socket racily; it just sends
//! the [`Response::Completed`] through the connection's channel.
//!
//! Three timestamps bound each request's life, all measured by one
//! server-side clock so the sojourn is free of client/server skew:
//! *submit* (frame decoded), *inject* (pushed into the scheduler) and
//! *complete* (handler finished). `sojourn = complete - submit` and its
//! `inject - submit` prefix land in lock-free [`PowHistogram`]s, which
//! is what makes per-request latency first-class: quantiles come from
//! the same log₂-bucket machinery the rest of the repo's telemetry
//! uses, at one relaxed `fetch_add` per observation.
//!
//! # Admission control
//!
//! `in_flight` is bounded by `queue_cap`: a Submit that would exceed it
//! is answered [`RejectCode::QueueFull`] *without creating a task* —
//! reject-with-code backpressure instead of unbounded queueing, so an
//! overloaded server degrades to a fast, explicit reject path and the
//! sojourn histogram keeps describing *accepted* work. The bound also
//! caps the pending-request slab, whose slot index doubles as the task
//! payload injected into the scheduler.
//!
//! # Drain and shutdown
//!
//! A client's [`Request::Drain`] stops the reader; the writer counts
//! `Accepted` vs `Completed` frames it has relayed and, once they
//! balance, emits [`Response::Drained`] and closes — every accepted
//! task is accounted for. [`Server::shutdown`] does the server-wide
//! version: stop the acceptor, unblock and join every connection, then
//! gracefully drain the worker pool ([`ServiceHandle::join`]), and
//! report final conservation counters.
//!
//! # Deadlines and the EDF timebase
//!
//! Every scheduling key is a nanosecond reading of **one** monotonic
//! clock, the server's epoch (`Shared::now_ns`):
//!
//! - a v1 [`Request::Submit`] (and a v2 submit on a connection that
//!   was not granted [`FEAT_EDF`]) is keyed by its *arrival* stamp —
//!   semantically "the deadline is now", so the relaxed queues
//!   approximate FIFO;
//! - a v2 [`Request::SubmitV2`] on an EDF connection is keyed by its
//!   *absolute deadline* (a relative budget is resolved against the
//!   same clock at admission, saturating on overflow).
//!
//! Because both kinds of key live on the same axis, mixed-version
//! traffic coexists in one queue coherently: an arrival-stamped task
//! is simply a task whose deadline already passed, and EDF tasks with
//! slack yield to it. Deadline metadata rides the pending slab to the
//! completing worker, which records the met/missed verdict and the
//! tardiness histogram, and answers v2 submits with
//! [`Response::CompletedV2`].
//!
//! The scheduling key is stamped **after** admission succeeds: a
//! rejected Submit touches nothing but the `submitted`/`rejected`
//! counters — no clock reads, no slab slot, no histogram, no deadline
//! accounting — so reject paths are side-effect-free and an overloaded
//! server's miss-rate describes *accepted* work only.

use crate::codec::{
    decode_request, read_frame, write_response, Completed, CompletedV2, HelloAck, MetricsReply,
    RejectCode, Request, Response, StatsReply, FEAT_EDF, PROTO_V1, PROTO_V2,
};
use rsched_queues::telemetry::{self, HistSnapshot, PowHistogram};
use rsched_queues::trace::{self, EventKind};
use rsched_queues::{MutexHeapSub, QueueBuilder, SkipShard};
use rsched_runtime::pool::Scheduler;
use rsched_runtime::{service, PoolStats, RuntimeConfig, ServiceHandle, TaskOutcome};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked reader wakes to check the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Where the server listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `tcp:HOST:PORT` (or bare `HOST:PORT`). Port 0 binds ephemeral.
    Tcp(String),
    /// `unix:/path/to.sock`; the file is replaced on bind and removed
    /// on shutdown.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `tcp:host:port`, bare `host:port`, or `unix:/path`.
    pub fn parse(s: &str) -> io::Result<Self> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if s.contains(':') {
            Ok(Endpoint::Tcp(s.to_string()))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("endpoint {s:?} is neither tcp:host:port nor unix:/path"),
            ))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Which scheduler the pool runs on. The serving layer is generic over
/// [`Scheduler`]; these are the monomorphisations the binary exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `ConcurrentMultiQueue` over lock-free skiplist shards (`mq`).
    MqSkiplist,
    /// `ConcurrentMultiQueue` over mutex-heap shards (`mq-mutex`).
    MqMutexHeap,
    /// `DCboQueue` relaxed FIFO over segmented rings (`dcbo`).
    DcboSegring,
}

impl Backend {
    /// The wire/env name (`mq`, `mq-mutex`, `dcbo`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::MqSkiplist => "mq",
            Backend::MqMutexHeap => "mq-mutex",
            Backend::DcboSegring => "dcbo",
        }
    }

    /// Every backend, in the order benches sweep them.
    pub const ALL: [Backend; 3] = [
        Backend::MqSkiplist,
        Backend::MqMutexHeap,
        Backend::DcboSegring,
    ];

    /// Feature bits a server on this backend grants in a [`HelloAck`]:
    /// EDF only where the queue orders by key — `dcbo` is a FIFO and
    /// runs arrival order whatever key a task carries.
    fn features(self) -> u64 {
        match self {
            Backend::MqSkiplist | Backend::MqMutexHeap => FEAT_EDF,
            Backend::DcboSegring => 0,
        }
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mq" => Ok(Backend::MqSkiplist),
            "mq-mutex" => Ok(Backend::MqMutexHeap),
            "dcbo" => Ok(Backend::DcboSegring),
            other => Err(format!(
                "unknown backend {other:?} (expected mq, mq-mutex or dcbo)"
            )),
        }
    }
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address.
    pub endpoint: Endpoint,
    /// Scheduler backend for the worker pool.
    pub backend: Backend,
    /// Worker threads.
    pub threads: usize,
    /// Admission bound: maximum tasks queued-or-running before Submits
    /// are rejected with [`RejectCode::QueueFull`].
    pub queue_cap: usize,
    /// Pool RNG seed (shard picking, stealing).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            endpoint: Endpoint::Tcp("127.0.0.1:7411".into()),
            backend: Backend::MqSkiplist,
            threads: 2,
            queue_cap: 4096,
            seed: 0x5EED_5EED,
        }
    }
}

/// One in-flight request: everything the completing worker needs to
/// stamp, reply and account. Lives in the [`Slab`]; its slot index is
/// the `usize` payload the scheduler carries.
struct Pending {
    req_id: u64,
    /// The owning connection's writer channel.
    reply: Sender<WriterMsg>,
    submitted_at: Instant,
    /// submit→inject prefix, stamped by the reader just before inject.
    inject_ns: u64,
    /// Synthetic service time the worker busy-spins.
    work_ns: u64,
    /// Absolute deadline on the server epoch clock; `None` for v1
    /// submits, which carry no deadline contract.
    deadline_ns: Option<u64>,
    /// Reply with [`Response::CompletedV2`] (the submit was a v2 frame).
    v2: bool,
}

/// Fixed-capacity slot map for [`Pending`]. Capacity equals the
/// admission bound, and slots are freed *before* `in_flight` is
/// decremented while allocation happens *after* it is incremented — so
/// occupancy never exceeds `in_flight` and allocation cannot fail while
/// admission holds. `None` on alloc is therefore treated as QueueFull,
/// never grown past the bound.
struct Slab {
    slots: Vec<Option<Pending>>,
    free: Vec<usize>,
}

impl Slab {
    fn with_capacity(cap: usize) -> Self {
        Self {
            slots: (0..cap).map(|_| None).collect(),
            free: (0..cap).rev().collect(),
        }
    }

    fn alloc(&mut self, p: Pending) -> Option<usize> {
        let slot = self.free.pop()?;
        debug_assert!(self.slots[slot].is_none());
        self.slots[slot] = Some(p);
        Some(slot)
    }

    fn take(&mut self, slot: usize) -> Pending {
        let p = self.slots[slot].take().expect("completing an empty slot");
        self.free.push(slot);
        p
    }
}

/// State shared by every connection thread, the pool handler and the
/// stats path. Deliberately non-generic: only the pool and the
/// injectors know the backend type.
struct Shared {
    stop: AtomicBool,
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    /// Tasks queued or running; the admission gate.
    in_flight: AtomicU64,
    /// The server's timebase origin: every scheduling key and deadline
    /// is nanoseconds since this instant (see the module docs).
    epoch: Instant,
    queue_cap: usize,
    /// Feature bits a [`HelloAck`] may grant ([`Backend::features`]).
    features: u64,
    /// Deadline completions that finished at or before their deadline.
    deadline_met: AtomicU64,
    /// Deadline completions that finished after their deadline.
    deadline_missed: AtomicU64,
    /// submit→complete, ns.
    sojourn: PowHistogram,
    /// submit→inject, ns.
    inject: PowHistogram,
    /// complete−deadline lateness, ns (0 recorded when met), over every
    /// deadline completion — so quantiles describe the whole
    /// deadline-bearing population, not just the misses.
    tardiness: PowHistogram,
    pending: Mutex<Slab>,
    /// Cumulative handler busy time per worker tid, ns — the raw feed
    /// for the utilization gauges in [`Response::Metrics`]. One relaxed
    /// `fetch_add` per completed task.
    busy_ns: Vec<AtomicU64>,
    /// Last Metrics poll: wall instant + the `busy_ns` values it saw.
    /// Utilization is the busy delta over the wall delta *since the
    /// previous poll*, so repeated polls behave like `top`, not like a
    /// lifetime average.
    last_poll: Mutex<(Instant, Vec<u64>)>,
}

impl Shared {
    fn new(queue_cap: usize, threads: usize, features: u64) -> Self {
        Self {
            stop: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            epoch: Instant::now(),
            queue_cap,
            features,
            deadline_met: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            sojourn: PowHistogram::new(),
            inject: PowHistogram::new(),
            tardiness: PowHistogram::new(),
            pending: Mutex::new(Slab::with_capacity(queue_cap)),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            last_poll: Mutex::new((Instant::now(), vec![0; threads])),
        }
    }

    /// Nanoseconds since the server epoch — the one clock every
    /// scheduling key and deadline lives on.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn stats(&self) -> StatsReply {
        let met = self.deadline_met.load(Ordering::Relaxed);
        let missed = self.deadline_missed.load(Ordering::Relaxed);
        StatsReply {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            sojourn_p50: self.sojourn.quantile(0.50),
            sojourn_p99: self.sojourn.quantile(0.99),
            sojourn_p999: self.sojourn.quantile(0.999),
            sojourn_max: self.sojourn.max_observed(),
            inject_p99: self.inject.quantile(0.99),
            deadline_met: met,
            deadline_misses: missed,
            miss_permille: miss_permille(met, missed),
            tardiness_p99: self.tardiness.quantile(0.99),
            tardiness_p999: self.tardiness.quantile(0.999),
        }
    }

    /// Build a [`Response::Metrics`] payload: the process-cumulative
    /// telemetry snapshot (non-resetting [`telemetry::capture`], so a
    /// live poll never perturbs what a later drain reports) plus gauges
    /// sampled here — in-flight now, and per-worker busy permille since
    /// the previous poll.
    fn metrics(&self) -> MetricsReply {
        let now = Instant::now();
        let busy: Vec<u64> = self
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let mut last = self.last_poll.lock().expect("metrics poll state poisoned");
        let wall_ns = now.duration_since(last.0).as_nanos() as u64;
        let utilization_permille = busy
            .iter()
            .zip(last.1.iter())
            .map(|(cur, prev)| {
                // Saturate at 1000: spin timing can overshoot the
                // wall window by scheduling jitter.
                cur.saturating_sub(*prev)
                    .saturating_mul(1000)
                    .checked_div(wall_ns)
                    .map_or(0, |v| v.min(1000))
            })
            .collect();
        *last = (now, busy);
        drop(last);
        let met = self.deadline_met.load(Ordering::Relaxed);
        let missed = self.deadline_missed.load(Ordering::Relaxed);
        MetricsReply {
            telemetry: telemetry::capture(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            utilization_permille,
            tardiness: HistSnapshot::of(&self.tardiness),
            deadline_met: met,
            deadline_misses: missed,
            miss_permille: miss_permille(met, missed),
        }
    }
}

/// Misses per thousand deadline completions; 0 when nothing carried a
/// deadline yet.
fn miss_permille(met: u64, missed: u64) -> u64 {
    match met + missed {
        0 => 0,
        total => missed * 1000 / total,
    }
}

/// Busy-spin for `ns` nanoseconds — the synthetic service time. A spin
/// (not a sleep) because a real task *occupies its worker*; sleeping
/// would let the pool overlap service times the model says are serial.
pub fn spin_work(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    let dur = Duration::from_nanos(ns);
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
}

/// Complete the task in `slot`: run its synthetic work, stamp the
/// sojourn, record the deadline verdict, reply and release the
/// admission unit. `run_work` is false only on the
/// inject-raced-shutdown fallback, where the promise to the client must
/// still be kept but no service is rendered.
fn complete_task(shared: &Shared, slot: usize, run_work: bool) {
    let p = shared
        .pending
        .lock()
        .expect("pending slab poisoned")
        .take(slot);
    if run_work {
        spin_work(p.work_ns);
    }
    let sojourn_ns = p.submitted_at.elapsed().as_nanos() as u64;
    shared.sojourn.record(sojourn_ns);
    shared.inject.record(p.inject_ns);
    // Deadline verdict before the counters flip: tardiness is measured
    // at the moment service finished, met iff lateness is zero. A met
    // deadline still records (a zero) so the tardiness quantiles
    // describe every deadline completion.
    let verdict = p.deadline_ns.map(|deadline_ns| {
        let tardiness_ns = shared.now_ns().saturating_sub(deadline_ns);
        if tardiness_ns == 0 {
            shared.deadline_met.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.deadline_missed.fetch_add(1, Ordering::Relaxed);
        }
        shared.tardiness.record(tardiness_ns);
        (deadline_ns, tardiness_ns)
    });
    shared.completed.fetch_add(1, Ordering::Relaxed);
    // Release the admission unit after the slab slot is freed (that
    // ordering is what bounds the slab, see [`Slab`]) but *before* the
    // completion is sent: a client that has received its Completed must
    // never observe the request still in flight on a subsequent
    // Stats/Metrics poll.
    shared.in_flight.fetch_sub(1, Ordering::Release);
    let resp = if p.v2 {
        let (deadline_ns, tardiness_ns) = verdict.unwrap_or((0, 0));
        Response::CompletedV2(CompletedV2 {
            req_id: p.req_id,
            sojourn_ns,
            inject_ns: p.inject_ns,
            deadline_ns,
            tardiness_ns,
            met: tardiness_ns == 0,
        })
    } else {
        Response::Completed(Completed {
            req_id: p.req_id,
            sojourn_ns,
            inject_ns: p.inject_ns,
        })
    };
    // The writer may already be gone (client vanished); the task is
    // still accounted, only the notification is lost.
    let _ = p.reply.send(WriterMsg::Resp(resp));
}

/// Messages into a connection's writer thread.
enum WriterMsg {
    Resp(Response),
    /// Negotiation result: write the ack, then encode every subsequent
    /// frame at the negotiated version. Routing the version flip
    /// through the writer's own channel makes it race-free — the flip
    /// is ordered against the response stream, no atomics needed.
    Hello(HelloAck),
    /// The reader saw [`Request::Drain`]: finish relaying outstanding
    /// completions, then send [`Response::Drained`] and close.
    DrainRequested,
    /// Server-wide stop: close now, dropping unsent completions.
    Close,
}

/// A stream of either family, so connection code is family-agnostic.
enum ConnStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl ConnStream {
    fn try_clone(&self) -> io::Result<ConnStream> {
        Ok(match self {
            ConnStream::Tcp(s) => ConnStream::Tcp(s.try_clone()?),
            ConnStream::Unix(s) => ConnStream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            ConnStream::Tcp(s) => s.set_read_timeout(d),
            ConnStream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            ConnStream::Tcp(s) => s.shutdown(Shutdown::Both),
            ConnStream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.read(buf),
            ConnStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.write(buf),
            ConnStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ConnStream::Tcp(s) => s.flush(),
            ConnStream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            Endpoint::Unix(path) => {
                // A previous run's socket file would fail the bind.
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
        }
    }

    /// The bound address — resolves an ephemeral TCP port 0.
    fn endpoint(&self) -> io::Result<Endpoint> {
        Ok(match self {
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?.to_string()),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        })
    }

    fn accept(&self) -> io::Result<ConnStream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(ConnStream::Tcp(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(ConnStream::Unix(s))
            }
        }
    }
}

/// Connections the acceptor has spawned, so shutdown can unblock and
/// join them.
#[derive(Default)]
struct ConnRegistry {
    streams: Vec<ConnStream>,
    joins: Vec<JoinHandle<()>>,
}

/// Final accounting from [`Server::shutdown`]. All counters are
/// server-lifetime totals; conservation (`submitted == accepted +
/// rejected`, `completed == accepted`) holds after a graceful drain.
pub struct ServerReport {
    /// Submits decoded.
    pub submitted: u64,
    /// Submits past admission (each produced exactly one task).
    pub accepted: u64,
    /// Submits refused with a reject code.
    pub rejected: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Sojourn quantiles, ns (log₂-bucket upper bounds).
    pub sojourn_p50: u64,
    /// 99th percentile sojourn, ns.
    pub sojourn_p99: u64,
    /// 99.9th percentile sojourn, ns.
    pub sojourn_p999: u64,
    /// Largest sojourn bucket, ns.
    pub sojourn_max: u64,
    /// 99th percentile submit→inject prefix, ns.
    pub inject_p99: u64,
    /// Deadline completions that met their deadline.
    pub deadline_met: u64,
    /// Deadline completions that missed.
    pub deadline_misses: u64,
    /// Misses per thousand deadline completions.
    pub miss_permille: u64,
    /// 99th percentile tardiness over deadline completions, ns.
    pub tardiness_p99: u64,
    /// Worker-pool statistics from the drain.
    pub pool: PoolStats,
}

/// A running serving front-end. Dropping without
/// [`shutdown`](Self::shutdown) leaks the worker threads; the binary
/// and every test shut down explicitly.
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<ConnRegistry>>,
    /// Type-erased pool drain (the only place the backend type
    /// survives past [`Server::start`]).
    finish: Option<Box<dyn FnOnce() -> PoolStats + Send>>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind, start the worker pool and the acceptor. Returns once the
    /// listener is live (an ephemeral TCP port is resolved in
    /// [`endpoint`](Self::endpoint)).
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let shards = (2 * cfg.threads).max(2);
        let builder = QueueBuilder::new(shards)
            .universe(cfg.queue_cap)
            .seed(cfg.seed);
        match cfg.backend {
            Backend::MqSkiplist => Server::start_with(
                Arc::new(builder.multiqueue_on::<u64, SkipShard<u64>>()),
                cfg,
            ),
            Backend::MqMutexHeap => Server::start_with(
                Arc::new(builder.multiqueue_on::<u64, MutexHeapSub<u64>>()),
                cfg,
            ),
            Backend::DcboSegring => {
                Server::start_with(Arc::new(builder.d_cbo::<(usize, u64)>()), cfg)
            }
        }
    }

    fn start_with<S>(queue: Arc<S>, cfg: ServeConfig) -> io::Result<Server>
    where
        S: Scheduler<u64> + Send + Sync + 'static,
    {
        let listener = Listener::bind(&cfg.endpoint)?;
        let endpoint = listener.endpoint()?;
        let unix_path = match &endpoint {
            Endpoint::Unix(p) => Some(p.clone()),
            Endpoint::Tcp(_) => None,
        };
        let shared = Arc::new(Shared::new(
            cfg.queue_cap,
            cfg.threads,
            cfg.backend.features(),
        ));
        let handle = {
            let shared = Arc::clone(&shared);
            Arc::new(service(
                queue,
                RuntimeConfig {
                    threads: cfg.threads,
                    seed: cfg.seed,
                    ..RuntimeConfig::default()
                },
                move |w, slot, _| {
                    let started = Instant::now();
                    complete_task(&shared, slot, true);
                    shared.busy_ns[w.tid]
                        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    TaskOutcome::Executed
                },
            ))
        };
        let conns: Arc<Mutex<ConnRegistry>> = Arc::default();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let handle = Arc::clone(&handle);
            std::thread::Builder::new()
                .name("rsched-serve-acceptor".into())
                .spawn(move || acceptor_loop(listener, shared, conns, handle))
                .expect("spawning acceptor")
        };
        let finish: Box<dyn FnOnce() -> PoolStats + Send> = Box::new(move || {
            Arc::try_unwrap(handle)
                .unwrap_or_else(|_| panic!("service handle still shared at drain"))
                .join()
        });
        Ok(Server {
            shared,
            endpoint,
            acceptor: Some(acceptor),
            conns,
            finish: Some(finish),
            unix_path,
        })
    }

    /// The bound address (ephemeral ports resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stop accepting, close every connection, drain the pool, report.
    pub fn shutdown(mut self) -> ServerReport {
        self.shared.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection; it checks
        // the stop flag after every accept.
        match &self.endpoint {
            Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
            Endpoint::Unix(path) => drop(UnixStream::connect(path)),
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Unblock any reader parked in a read and join the connection
        // threads; their writers get a Close from the reader side.
        let registry = {
            let mut guard = self.conns.lock().expect("conn registry poisoned");
            std::mem::take(&mut *guard)
        };
        for s in &registry.streams {
            s.shutdown_both();
        }
        for j in registry.joins {
            let _ = j.join();
        }
        // Graceful drain: every injected task completes before join
        // returns, so the conservation counters below are final.
        let pool = (self.finish.take().expect("shutdown called twice"))();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        let s = self.shared.stats();
        ServerReport {
            submitted: s.submitted,
            accepted: s.accepted,
            rejected: s.rejected,
            completed: s.completed,
            sojourn_p50: s.sojourn_p50,
            sojourn_p99: s.sojourn_p99,
            sojourn_p999: s.sojourn_p999,
            sojourn_max: s.sojourn_max,
            inject_p99: s.inject_p99,
            deadline_met: s.deadline_met,
            deadline_misses: s.deadline_misses,
            miss_permille: s.miss_permille,
            tardiness_p99: s.tardiness_p99,
            pool,
        }
    }
}

fn acceptor_loop<S>(
    listener: Listener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<ConnRegistry>>,
    handle: Arc<ServiceHandle<u64, S>>,
) where
    S: Scheduler<u64> + Send + Sync + 'static,
{
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let Ok(registry_clone) = stream.try_clone() else {
            continue;
        };
        let (tx, rx) = mpsc::channel::<WriterMsg>();
        let writer = {
            let write_half = stream;
            std::thread::Builder::new()
                .name("rsched-serve-writer".into())
                .spawn(move || writer_loop(write_half, rx))
                .expect("spawning connection writer")
        };
        let reader = {
            let shared = Arc::clone(&shared);
            let handle = Arc::clone(&handle);
            std::thread::Builder::new()
                .name("rsched-serve-reader".into())
                .spawn(move || {
                    reader_loop(read_half, shared, &handle, tx);
                    let _ = writer.join();
                })
                .expect("spawning connection reader")
        };
        let mut guard = conns.lock().expect("conn registry poisoned");
        guard.streams.push(registry_clone);
        guard.joins.push(reader);
    }
}

/// One admission attempt, version-agnostic: what the reader hands to
/// [`admit_and_inject`] after decoding either Submit flavour.
struct Submission {
    req_id: u64,
    work_ns: u64,
    /// Raw wire deadline `(value, absolute)`; `None` for v1 submits.
    deadline: Option<(u64, bool)>,
    /// Answer with [`Response::CompletedV2`].
    v2: bool,
    /// The connection holds an EDF grant: schedule by deadline, not
    /// arrival.
    edf: bool,
}

/// Admission + inject, shared by both Submit flavours. Reject paths
/// return before any clock read or slab/histogram touch (see the
/// module docs on side-effect-free rejection).
fn admit_and_inject<S>(
    shared: &Arc<Shared>,
    injector: &mut rsched_runtime::Injector<u64, S>,
    writer: &Sender<WriterMsg>,
    sub: Submission,
) where
    S: Scheduler<u64> + Send + Sync + 'static,
{
    let submitted_at = Instant::now();
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    if shared.stop.load(Ordering::Acquire) {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        trace::emit(EventKind::AdmissionReject, sub.req_id);
        let _ = writer.send(WriterMsg::Resp(Response::Rejected {
            req_id: sub.req_id,
            code: RejectCode::Shutdown,
        }));
        return;
    }
    // Admission: reserve an in-flight unit, give it back if over the
    // bound. The increment-then-check keeps the gate race-free without
    // a CAS loop: concurrent Submits may transiently overshoot the
    // counter but never the accept count.
    let prev = shared.in_flight.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.queue_cap as u64 {
        shared.in_flight.fetch_sub(1, Ordering::Release);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        trace::emit(EventKind::AdmissionReject, sub.req_id);
        let _ = writer.send(WriterMsg::Resp(Response::Rejected {
            req_id: sub.req_id,
            code: RejectCode::QueueFull,
        }));
        return;
    }
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    // Accepted is enqueued to the writer *before* the task is injected,
    // so the client (and the writer's drain accounting) always sees
    // Accepted before Completed.
    let _ = writer.send(WriterMsg::Resp(Response::Accepted { req_id: sub.req_id }));
    // Only now, past admission, does the request touch the clock: one
    // epoch reading serves as both the arrival stamp and the base a
    // relative budget resolves against.
    let now_ns = shared.now_ns();
    let deadline_ns = sub.deadline.map(|(value, absolute)| {
        if absolute {
            value
        } else {
            now_ns.saturating_add(value)
        }
    });
    // EDF key = absolute deadline; everything else keys by arrival
    // ("deadline is now"), the same axis — see the module docs.
    let prio = match deadline_ns {
        Some(d) if sub.edf => d,
        _ => now_ns,
    };
    let inject_ns = submitted_at.elapsed().as_nanos() as u64;
    let slot = {
        let mut slab = shared.pending.lock().expect("pending slab poisoned");
        slab.alloc(Pending {
            req_id: sub.req_id,
            reply: writer.clone(),
            submitted_at,
            inject_ns,
            work_ns: sub.work_ns,
            deadline_ns,
            v2: sub.v2,
        })
        .expect("slab exhausted under admission bound")
    };
    if !injector.inject(slot, prio) {
        // Raced a pool shutdown (not reachable through
        // Server::shutdown, which joins readers first). Keep the
        // Accepted promise: account and reply without rendering
        // service.
        complete_task(shared, slot, false);
    }
}

/// Decode frames, run admission, inject. Exits on client EOF, protocol
/// error, [`Request::Drain`] or server stop.
fn reader_loop<S>(
    mut stream: ConnStream,
    shared: Arc<Shared>,
    handle: &ServiceHandle<u64, S>,
    writer: Sender<WriterMsg>,
) where
    S: Scheduler<u64> + Send + Sync + 'static,
{
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut injector = handle.injector();
    let mut payload = Vec::new();
    // Per-connection negotiated state: implicitly v1 with no features
    // until a Hello upgrades it.
    let mut version = PROTO_V1;
    let mut edf = false;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            let _ = writer.send(WriterMsg::Close);
            return;
        }
        match read_frame(&mut stream, &mut payload) {
            // Clean EOF: client is gone. Drop our sender; the writer
            // lingers until outstanding completions are relayed (their
            // slab slots hold sender clones), then its channel closes.
            Ok(false) => return,
            Ok(true) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            // Protocol violation or transport failure: close. Accepted
            // tasks still complete and are accounted server-side.
            Err(_) => {
                let _ = writer.send(WriterMsg::Close);
                return;
            }
        }
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(_) => {
                let _ = writer.send(WriterMsg::Close);
                return;
            }
        };
        match req {
            Request::Ping { token } => {
                let _ = writer.send(WriterMsg::Resp(Response::Pong { token }));
            }
            Request::Stats => {
                let _ = writer.send(WriterMsg::Resp(Response::Stats(shared.stats())));
            }
            Request::Metrics => {
                let _ = writer.send(WriterMsg::Resp(Response::Metrics(Box::new(
                    shared.metrics(),
                ))));
            }
            Request::Drain => {
                let _ = writer.send(WriterMsg::DrainRequested);
                return;
            }
            Request::Hello(h) => {
                if h.version == 0 {
                    // A version the protocol reserves as invalid:
                    // refuse and close rather than guess.
                    let _ = writer.send(WriterMsg::Resp(Response::Rejected {
                        req_id: 0,
                        code: RejectCode::BadVersion,
                    }));
                    let _ = writer.send(WriterMsg::Close);
                    return;
                }
                // Negotiate down to the highest version both sides
                // speak; features are granted only at v2+.
                version = h.version.min(PROTO_V2);
                let features = if version >= PROTO_V2 {
                    h.features & shared.features
                } else {
                    0
                };
                edf = features & FEAT_EDF != 0;
                let _ = writer.send(WriterMsg::Hello(HelloAck {
                    version,
                    features,
                    server_now_ns: shared.now_ns(),
                }));
            }
            Request::Submit(s) => {
                admit_and_inject(
                    &shared,
                    &mut injector,
                    &writer,
                    Submission {
                        req_id: s.req_id,
                        work_ns: s.work_ns,
                        deadline: None,
                        v2: false,
                        edf: false,
                    },
                );
            }
            Request::SubmitV2(s) => {
                if version < PROTO_V2 {
                    // SubmitV2 without a v2 handshake is a protocol
                    // violation, same family as an unknown opcode.
                    let _ = writer.send(WriterMsg::Resp(Response::Rejected {
                        req_id: s.req_id,
                        code: RejectCode::BadVersion,
                    }));
                    let _ = writer.send(WriterMsg::Close);
                    return;
                }
                admit_and_inject(
                    &shared,
                    &mut injector,
                    &writer,
                    Submission {
                        req_id: s.req_id,
                        work_ns: s.work_ns,
                        deadline: Some((s.deadline, s.absolute)),
                        v2: true,
                        edf,
                    },
                );
            }
        }
    }
}

/// Own the write half; serialise responses; account the drain protocol.
fn writer_loop(mut stream: ConnStream, rx: Receiver<WriterMsg>) {
    let mut accepted_seen: u64 = 0;
    let mut completed_seen: u64 = 0;
    let mut draining = false;
    // Encoding version for outbound frames; flipped by the reader's
    // Hello message *after* the ack is written, so the ack itself and
    // everything before it stay v1-shaped on the wire.
    let mut version = PROTO_V1;
    // Loop ends when every sender (reader + pending slots) is gone:
    // nothing more can arrive.
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Close => break,
            WriterMsg::Hello(ack) => {
                let ok = write_response(&mut stream, &Response::HelloAck(ack), version).is_ok();
                version = ack.version;
                if !ok {
                    break;
                }
            }
            WriterMsg::DrainRequested => {
                draining = true;
            }
            WriterMsg::Resp(resp) => {
                match resp {
                    Response::Accepted { .. } => accepted_seen += 1,
                    Response::Completed(_) | Response::CompletedV2(_) => completed_seen += 1,
                    _ => {}
                }
                if write_response(&mut stream, &resp, version).is_err() {
                    break;
                }
            }
        }
        if draining && accepted_seen == completed_seen {
            let _ = write_response(
                &mut stream,
                &Response::Drained {
                    completed: completed_seen,
                },
                version,
            );
            break;
        }
    }
    // Actively half-close: the shutdown registry holds another clone of
    // this socket, so merely dropping our FD would leave the client
    // waiting for an EOF that never comes.
    stream.shutdown_both();
}
