//! The serve workloads: an in-process `rsched-serve` server driven over
//! loopback TCP by the benchmark's own load generator.
//!
//! * `serve-open` — **open loop**: independent users, so requests
//!   leave on a seeded Poisson schedule at 4000/s whatever the server
//!   does, over one connection (a sender and a receiver thread). Each
//!   request is timed from the moment it was *due*, so a stall costs
//!   every request it delays. Almost every request finds the workers
//!   parked. Runs pinned to one CPU (see `main.rs`).
//! * `serve-closed` — **closed loop**: two callers that each wait for
//!   replies, a window of requests outstanding per connection, one
//!   thread per connection. Saturated and pipelined, the opposite use
//!   of the same server; ~500 tasks sit in the queue, so EDF ordering
//!   decides which deadlines are met.
//!
//! Public functions called: `Server::{start, endpoint, shutdown}` with
//! `ServeConfig`, `ServeClient::{connect_v2, handshake, connect, send,
//! recv, split}`, `ClientSender::send`, `ClientReceiver::{recv,
//! set_timeout}`, and the wire messages `SubmitV2`, `CompletedV2`,
//! `Accepted`, `Rejected`, `Metrics`, `Drain`/`Drained`.

use crate::metrics::Outcome;
use crate::probes::{self, Pace, QueueKind};
use crate::schedule::{one_in_flags, poisson_due_ns};
use crate::stats::{median_f64, Summary};
use crate::trace::Recorder;
use crate::{peak_rss_mb, RunArgs, THREADS, WORK_NS};
use rsched_serve::{
    Backend, ClientReceiver, ClientSender, CompletedV2, Endpoint, MetricsReply, Request, Response,
    ServeClient, ServeConfig, Server, SubmitV2, FEAT_EDF, PROTO_V2,
};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Open,
    Closed,
}

/// Untimed traffic before the measured window, seconds.
const WARMUP_S: f64 = 1.5;
/// Server admission bound (the `ServeConfig` default, stated).
const QUEUE_CAP: usize = 4096;
/// Open loop: Poisson arrivals per second. On one connection a sender
/// thread needs ~50 us per `write`, so it keeps up with this rate and
/// falls behind its schedule from about twice as much.
const OPEN_RATE_PER_S: f64 = 4_000.0;
/// Open loop: a request is good when due → completion received is
/// within this limit.
const LIMIT_NS: u64 = 2_000_000;
/// Open loop: deadline budgets, alternating per request.
const OPEN_BUDGETS_NS: [u64; 2] = [3_000_000, 30_000_000];
/// Closed loop: connections, and requests outstanding on each.
const CLOSED_CONNS: usize = 2;
const CLOSED_WINDOW: usize = 256;
/// Closed loop: 1 request in 8 carries the tight budget.
const TIGHT_ONE_IN: u64 = 8;
const TIGHT_BUDGET_NS: u64 = 5_000_000;
const LOOSE_BUDGET_NS: u64 = 200_000_000;
/// Set-up (server start, connect, handshake, input generation) is
/// repeated this often and its median reported.
const SETUPS: usize = 101;
/// A reply that takes longer than this means the server hung.
const RECV_TIMEOUT: Duration = Duration::from_secs(20);
/// Latency percentiles are taken per window of this length.
const WINDOW_NS: u64 = 1_000_000_000;
/// The trace file holds about this many requests, evenly spread.
const TRACE_FILE_REQUESTS: u64 = 5_000;
/// The service probe replays this much of the traced schedule (open
/// loop) or this many tasks (closed loop).
const PROBE_SCHEDULE_NS: u64 = 2_000_000_000;
const PROBE_WINDOW_TASKS: usize = 40_000;

/// Poll the clock until `due_ns` after `epoch`; returns the time it
/// was seen. The generator never sleeps: a sleep overshoots by the
/// kernel's timer slack (~60 us here, half a sojourn), and mixing
/// sleeping and polling made whole runs land in one of two latency
/// modes. Yielding between polls lets the server's threads have the
/// CPU whenever they are runnable.
pub fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now;
        }
        std::thread::yield_now();
    }
}

/// Which part of the run a request belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Warmup,
    /// Measured without spans: the end-to-end metrics.
    Plain,
    /// Measured with spans (traced runs only): the per-layer metrics.
    Traced,
}

/// Phase boundaries in ns from the epoch.
#[derive(Clone, Copy)]
struct Phases {
    plain_from: u64,
    traced_from: u64,
    end: u64,
}

impl Phases {
    fn new(args: &RunArgs) -> Self {
        let ns = |s: f64| (s * 1e9) as u64;
        let plain_from = ns(WARMUP_S);
        // A traced run splits a shorter window in two so that the
        // probes fit into the same wall time as an untraced run.
        let (plain, traced) = if args.trace {
            (ns(args.seconds * 0.3), ns(args.seconds * 0.3))
        } else {
            (ns(args.seconds), 0)
        };
        Self {
            plain_from,
            traced_from: plain_from + plain,
            end: plain_from + plain + traced,
        }
    }

    fn of(&self, t_ns: u64) -> Phase {
        if t_ns < self.plain_from {
            Phase::Warmup
        } else if t_ns < self.traced_from {
            Phase::Plain
        } else {
            Phase::Traced
        }
    }

    fn traced_seconds(&self) -> f64 {
        (self.end - self.traced_from) as f64 / 1e9
    }
}

/// What every request leaves behind, traced or not: 16 bytes, so the
/// samples of a whole run stay small next to the server's own memory.
#[derive(Clone, Copy, Default)]
struct Core {
    /// When the request was due (open loop) or sent (closed loop).
    start_ns: u64,
    /// Start → completion received, saturating; meaningful with `DONE`.
    latency_ns: u32,
    flags: u8,
}

const DONE: u8 = 1;
const MET: u8 = 2;
const REJECTED: u8 = 4;
/// The request carried the tighter of the workload's two budgets.
const TIGHT: u8 = 8;

impl Core {
    fn is(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// The extra stamps of a request in the traced window.
#[derive(Clone, Copy, Default)]
struct Extra {
    /// When `send` was entered and left.
    send_start_ns: u64,
    send_end_ns: u64,
    /// When `Accepted` was received.
    accepted_ns: u64,
    srv_sojourn_ns: u64,
    srv_inject_ns: u64,
}

/// One connection's view of the run.
#[derive(Default)]
struct Conn {
    cores: Vec<Core>,
    /// Extras of requests `first_traced..`, which are the traced window.
    extras: Vec<Extra>,
    first_traced: usize,
    sent: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    duplicates: u64,
    drained: Option<u64>,
    error: Option<String>,
    /// Open loop: requests that left more than a tenth of the latency
    /// limit after they were due — the generator's own lateness.
    late: u64,
    /// `Metrics` replies in the order their requests were sent: at the
    /// start of the plain window, of the traced window, and at the end.
    metrics: Vec<MetricsReply>,
}

impl Conn {
    fn extra(&mut self, req: usize) -> Option<&mut Extra> {
        self.extras.get_mut(req.checked_sub(self.first_traced)?)
    }

    /// Apply one response received at `now_ns`. Returns `true` when the
    /// connection is drained.
    fn on_response(&mut self, resp: Response, now_ns: u64) -> bool {
        let known = |req_id: u64, cores: &[Core]| (req_id as usize) < cores.len();
        match resp {
            Response::Accepted { req_id } if known(req_id, &self.cores) => {
                self.accepted += 1;
                if let Some(x) = self.extra(req_id as usize) {
                    x.accepted_ns = now_ns;
                }
            }
            Response::Rejected { req_id, .. } if known(req_id, &self.cores) => {
                self.rejected += 1;
                self.cores[req_id as usize].flags |= REJECTED;
            }
            Response::CompletedV2(c) if known(c.req_id, &self.cores) => {
                self.completed += 1;
                let core = &mut self.cores[c.req_id as usize];
                self.duplicates += core.is(DONE) as u64;
                core.latency_ns =
                    u32::try_from(now_ns.saturating_sub(core.start_ns)).unwrap_or(u32::MAX);
                core.flags |= DONE | if c.met { MET } else { 0 };
                if let Some(x) = self.extra(c.req_id as usize) {
                    x.srv_sojourn_ns = c.sojourn_ns;
                    x.srv_inject_ns = c.inject_ns;
                }
            }
            Response::Metrics(m) => self.metrics.push(*m),
            Response::Drained { completed } => {
                self.drained = Some(completed);
                return true;
            }
            other => self.error = Some(format!("unexpected response {other:?}")),
        }
        false
    }

    /// Receive until drained, or until the connection fails.
    fn receive_until_drained(
        &mut self,
        mut recv: impl FnMut() -> std::io::Result<Option<Response>>,
        epoch: Instant,
    ) {
        while self.error.is_none() {
            match recv() {
                Ok(Some(resp)) => {
                    if self.on_response(resp, epoch.elapsed().as_nanos() as u64) {
                        return;
                    }
                }
                Ok(None) => self.error = Some("server closed before Drained".into()),
                Err(e) => self.error = Some(format!("recv: {e}")),
            }
        }
    }
}

fn start_server() -> std::io::Result<Server> {
    Server::start(ServeConfig {
        endpoint: Endpoint::parse("tcp:127.0.0.1:0")?,
        backend: Backend::MqSkiplist,
        threads: THREADS,
        queue_cap: QUEUE_CAP,
        ..ServeConfig::default()
    })
}

fn connect(endpoint: &Endpoint, edf: bool) -> std::io::Result<ServeClient> {
    let features = if edf { FEAT_EDF } else { 0 };
    let mut client = ServeClient::connect(endpoint)?;
    let ack = client.handshake(PROTO_V2, features)?;
    if ack.version != PROTO_V2 || ack.features != features {
        return Err(std::io::Error::other(format!(
            "handshake answered version {} features {:#x}",
            ack.version, ack.features
        )));
    }
    Ok(client)
}

/// The seeded inputs of one run.
enum Plan {
    /// Open loop: due time of every request, ns from the epoch.
    Open(Vec<u64>),
    /// Closed loop: which requests carry the tight budget (cycled).
    Closed(Vec<bool>),
}

fn make_plan(mode: Mode, seed: u64, phases: &Phases) -> Plan {
    match mode {
        Mode::Open => Plan::Open(poisson_due_ns(seed, OPEN_RATE_PER_S, phases.end)),
        Mode::Closed => Plan::Closed(one_in_flags(seed, TIGHT_ONE_IN, 1 << 16)),
    }
}

struct Setup {
    server: Server,
    clients: Vec<ServeClient>,
    plan: Plan,
}

/// One set-up: inputs from the seed, a started server, connected and
/// negotiated clients — everything before the first request can leave.
fn set_up(mode: Mode, args: &RunArgs, phases: &Phases) -> std::io::Result<Setup> {
    let plan = make_plan(mode, args.seed, phases);
    let server = start_server()?;
    let conns = match mode {
        Mode::Open => 1,
        Mode::Closed => CLOSED_CONNS,
    };
    let clients = (0..conns)
        .map(|_| connect(server.endpoint(), args.edf))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Setup {
        server,
        clients,
        plan,
    })
}

/// Tear a set-up down without having used it.
fn discard(setup: Setup) {
    drop(setup.clients);
    setup.server.shutdown();
}

pub fn run(mode: Mode, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let phases = Phases::new(args);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if matches!(mode, Mode::Open) && cpus > 1 {
        out.notes.push(format!(
            "WARNING: open loop on {cpus} CPUs, not pinned to one (no taskset?): \
             latencies include idle-CPU wake-ups and may come in two modes"
        ));
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let t = Instant::now();
        match set_up(mode, args, &phases) {
            Ok(s) => kept = Some(s),
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        server,
        clients,
        plan,
    } = kept.expect("SETUPS >= 1");
    out.set("setup_s", median_f64(&setup_s));

    let epoch = Instant::now();
    let conns = match &plan {
        Plan::Open(due_ns) => drive_open(clients, due_ns, &phases, epoch),
        Plan::Closed(tight) => drive_closed(clients, tight, &phases, epoch),
    };
    // Read before the samples are copied and sorted for reporting.
    out.set("peak_rss_mb", peak_rss_mb());
    let report = server.shutdown();

    // Conservation: nothing sent may vanish, nothing may answer twice.
    for (c, n) in conns.iter().enumerate() {
        if let Some(e) = &n.error {
            out.fail(format!("connection {c}: {e}"));
        }
        out.check(n.accepted + n.rejected == n.sent, || {
            format!(
                "connection {c}: {} sent but {} accepted + {} rejected",
                n.sent, n.accepted, n.rejected
            )
        });
        out.check(n.completed == n.accepted && n.duplicates == 0, || {
            format!(
                "connection {c}: {} accepted, {} completed, {} completed twice",
                n.accepted, n.completed, n.duplicates
            )
        });
        out.check(n.drained == Some(n.accepted), || {
            format!(
                "connection {c}: Drained{{{:?}}} but {} accepted",
                n.drained, n.accepted
            )
        });
    }
    let total = |f: fn(&Conn) -> u64| conns.iter().map(f).sum::<u64>();
    let (sent, accepted, rejected) = (
        total(|c| c.sent),
        total(|c| c.accepted),
        total(|c| c.rejected),
    );
    out.check(
        report.submitted == sent && report.accepted == accepted && report.rejected == rejected,
        || {
            format!(
                "server saw {} submitted / {} accepted / {} rejected, clients {sent} / {accepted} / {rejected}",
                report.submitted, report.accepted, report.rejected
            )
        },
    );
    out.check(
        report.submitted == report.accepted + report.rejected
            && report.completed == report.accepted,
        || {
            format!(
                "ServerReport: submitted {} accepted {} rejected {} completed {}",
                report.submitted, report.accepted, report.rejected, report.completed
            )
        },
    );

    let in_phase = |phase: Phase| {
        conns
            .iter()
            .flat_map(|c| c.cores.iter())
            .filter(move |r| phases.of(r.start_ns) == phase)
    };
    let plain: Vec<Core> = in_phase(Phase::Plain).copied().collect();
    out.notes.push(format!(
        "requests: {} warm-up, {} measured, {} traced",
        in_phase(Phase::Warmup).count(),
        plain.len(),
        in_phase(Phase::Traced).count()
    ));
    report_end_to_end(&mut out, mode, &plain, &phases);
    let late = total(|c| c.late);
    if late * 100 > sent {
        out.notes.push(format!(
            "WARNING: the generator sent {late} of {sent} requests more than {} us late",
            LIMIT_NS / 10_000
        ));
    }
    // The executed-task count comes from the pool the server ran on.
    out.set(
        "work_overhead",
        report.pool.total.executed as f64 / report.accepted.max(1) as f64,
    );
    if args.trace {
        report_layers(&mut out, mode, args, &conns, &plain, &phases);
    }
    out
}

fn budget_ns(mode: Mode, tight: bool) -> u64 {
    match (mode, tight) {
        (Mode::Open, true) => OPEN_BUDGETS_NS[0],
        (Mode::Open, false) => OPEN_BUDGETS_NS[1],
        (Mode::Closed, true) => TIGHT_BUDGET_NS,
        (Mode::Closed, false) => LOOSE_BUDGET_NS,
    }
}

fn submit(req_id: usize, budget_ns: u64) -> SubmitV2 {
    SubmitV2 {
        req_id: req_id as u64,
        deadline: budget_ns,
        work_ns: WORK_NS,
        absolute: false,
    }
}

/// Open loop: the sender follows the schedule and never looks at the
/// replies; the receiver stamps them as they arrive.
fn drive_open(
    mut clients: Vec<ServeClient>,
    due: &[u64],
    phases: &Phases,
    epoch: Instant,
) -> Vec<Conn> {
    let (mut tx, mut rx): (ClientSender, ClientReceiver) =
        clients.pop().expect("one connection").split();
    let first_traced = due.partition_point(|&d| phases.of(d) != Phase::Traced);
    let mut conn = Conn {
        // Budgets alternate; the even requests carry the tight one.
        cores: due
            .iter()
            .enumerate()
            .map(|(i, &start_ns)| Core {
                start_ns,
                latency_ns: 0,
                flags: if i % 2 == 0 { TIGHT } else { 0 },
            })
            .collect(),
        extras: vec![Extra::default(); due.len() - first_traced],
        first_traced,
        ..Conn::default()
    };

    let (sent, stamps, late, send_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            // (send entered, send left) of the traced requests.
            let mut stamps = Vec::with_capacity(due.len() - first_traced);
            let (mut sent, mut late) = (0u64, 0u64);
            let mut polled = Phase::Warmup;
            let result = (|| {
                for (i, &due_ns) in due.iter().enumerate() {
                    let phase = phases.of(due_ns);
                    if phase != polled {
                        polled = phase;
                        tx.send(&Request::Metrics)?;
                    }
                    let now = wait_until(epoch, due_ns);
                    late += (now - due_ns > LIMIT_NS / 10) as u64;
                    tx.send(&Request::SubmitV2(submit(
                        i,
                        budget_ns(Mode::Open, i % 2 == 0),
                    )))?;
                    sent += 1;
                    if phase == Phase::Traced {
                        stamps.push((now, epoch.elapsed().as_nanos() as u64));
                    }
                }
                tx.send(&Request::Metrics)?;
                tx.send(&Request::Drain)
            })();
            (sent, stamps, late, result.err())
        });
        let conn = &mut conn;
        scope.spawn(move || {
            let _ = rx.set_timeout(Some(RECV_TIMEOUT));
            conn.receive_until_drained(|| rx.recv(), epoch);
        });
        sender.join().expect("sender panicked")
    });
    conn.sent = sent;
    if let Some(e) = send_error {
        conn.error = Some(format!("send: {e}"));
    }
    for (x, (start, end)) in conn.extras.iter_mut().zip(stamps) {
        (x.send_start_ns, x.send_end_ns) = (start, end);
    }
    conn.late = late;
    vec![conn]
}

/// Closed loop: each connection's thread keeps its window full — send
/// until `CLOSED_WINDOW` are outstanding, then receive.
fn drive_closed(
    clients: Vec<ServeClient>,
    tight: &[bool],
    phases: &Phases,
    epoch: Instant,
) -> Vec<Conn> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || closed_connection(c, client, tight, phases, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection panicked"))
            .collect()
    })
}

fn closed_connection(
    index: usize,
    client: ServeClient,
    tight: &[bool],
    phases: &Phases,
    epoch: Instant,
) -> Conn {
    // Both halves stay on this thread; split only to bound `recv`.
    let (mut tx, mut rx) = client.split();
    let _ = rx.set_timeout(Some(RECV_TIMEOUT));
    let traced_run = phases.end > phases.traced_from;
    let mut conn = Conn {
        // Room for far more than the server can do, reserved but not
        // touched, so the samples grow smoothly instead of by doubling.
        cores: Vec::with_capacity(1 << 22),
        extras: Vec::with_capacity(if traced_run { 1 << 21 } else { 0 }),
        first_traced: usize::MAX,
        ..Conn::default()
    };
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut outstanding = 0usize;
    let mut polled = Phase::Warmup;
    let result: std::io::Result<()> = (|| {
        loop {
            let now = now_ns();
            if now >= phases.end {
                break;
            }
            // Connection 0 polls the gauges at every phase boundary.
            if index == 0 && phases.of(now) != polled {
                polled = phases.of(now);
                tx.send(&Request::Metrics)?;
            }
            while outstanding < CLOSED_WINDOW {
                let i = conn.cores.len();
                // Each connection walks the class flags from its own offset.
                let tight = tight[(i + index * 7919) % tight.len()];
                let start_ns = now_ns();
                tx.send(&Request::SubmitV2(submit(
                    i,
                    budget_ns(Mode::Closed, tight),
                )))?;
                if phases.of(start_ns) == Phase::Traced {
                    conn.first_traced = conn.first_traced.min(i);
                    conn.extras.push(Extra {
                        send_start_ns: start_ns,
                        send_end_ns: now_ns(),
                        ..Extra::default()
                    });
                }
                conn.cores.push(Core {
                    start_ns,
                    latency_ns: 0,
                    flags: if tight { TIGHT } else { 0 },
                });
                conn.sent += 1;
                outstanding += 1;
            }
            let resp = rx
                .recv()?
                .ok_or_else(|| std::io::Error::other("server closed mid-run"))?;
            outstanding -=
                matches!(resp, Response::CompletedV2(_) | Response::Rejected { .. }) as usize;
            conn.on_response(resp, now_ns());
        }
        if index == 0 {
            tx.send(&Request::Metrics)?;
        }
        tx.send(&Request::Drain)
    })();
    if let Err(e) = result {
        conn.error = Some(e.to_string());
    }
    conn.receive_until_drained(|| rx.recv(), epoch);
    conn
}

/// The tail percentile of the serve latencies.
pub const TAIL: f64 = 0.99;

fn latencies(cores: &[Core]) -> Summary {
    Summary::new(
        cores
            .iter()
            .filter(|r| r.is(DONE))
            .map(|r| r.latency_ns as u64)
            .collect(),
    )
}

/// The plain window cut into [`WINDOW_NS`] windows by start time: the
/// latencies of each, and how many of its requests were good. A last
/// partial window is dropped.
fn per_window(mode: Mode, plain: &[Core], phases: &Phases) -> Vec<(Summary, u64)> {
    let count = ((phases.traced_from - phases.plain_from) / WINDOW_NS).max(1);
    let mut windows = vec![(Vec::new(), 0u64); count as usize];
    for r in plain.iter().filter(|r| r.is(DONE)) {
        if let Some(w) = windows.get_mut(((r.start_ns - phases.plain_from) / WINDOW_NS) as usize) {
            w.0.push(r.latency_ns as u64);
            w.1 += is_good(mode, r) as u64;
        }
    }
    windows
        .into_iter()
        .map(|(lat, good)| (Summary::new(lat), good))
        .collect()
}

/// A request is good when it completed within the workload's limit:
/// the latency limit (open loop) or its own deadline (closed loop).
fn is_good(mode: Mode, r: &Core) -> bool {
    r.is(DONE)
        && match mode {
            Mode::Open => r.latency_ns as u64 <= LIMIT_NS,
            Mode::Closed => r.is(MET),
        }
}

fn report_end_to_end(out: &mut Outcome, mode: Mode, plain: &[Core], phases: &Phases) {
    let sent = plain.len() as u64;
    let rejected = plain.iter().filter(|r| r.is(REJECTED)).count() as u64;
    let unanswered = plain
        .iter()
        .filter(|r| !r.is(DONE) && !r.is(REJECTED))
        .count() as u64;
    out.attempted = sent;
    out.failed = unanswered + rejected;
    out.check(unanswered == 0, || {
        format!("{unanswered} of {sent} requests never answered")
    });
    let lat = latencies(plain);
    out.notes
        .push(lat.describe("latency, whole window", 1e6, "ms", TAIL));
    // Latency and goodput are medians over one-second windows of the
    // window's own p50, p99 and good completions: a disturbance that
    // lasts a second moves one window, not the run's tail. Requests it
    // pushes past the limit still count against `ok_share`.
    let windows = per_window(mode, plain, phases);
    out.notes.push(format!(
        "latency per {} s window (p50/p99 us): {}",
        WINDOW_NS as f64 / 1e9,
        windows
            .iter()
            .map(|(w, _)| format!("{}/{}", w.p(0.5) / 1000, w.p(TAIL) / 1000))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let median_of =
        |f: &dyn Fn(&(Summary, u64)) -> f64| median_f64(&windows.iter().map(f).collect::<Vec<_>>());
    let good = plain.iter().filter(|r| is_good(mode, r)).count() as f64;
    out.set("latency_ms_p50", median_of(&|w| w.0.p(0.5) as f64) / 1e6);
    out.set("latency_ms_tail", median_of(&|w| w.0.p(TAIL) as f64) / 1e6);
    out.set(
        "goodput_per_s",
        median_of(&|w| w.1 as f64) * 1e9 / WINDOW_NS as f64,
    );
    out.set("ok_share", good / sent.max(1) as f64);
}

fn report_layers(
    out: &mut Outcome,
    mode: Mode,
    args: &RunArgs,
    conns: &[Conn],
    plain: &[Core],
    phases: &Phases,
) {
    // The traced window: every request with its extra stamps.
    let traced: Vec<(Core, Extra)> = conns
        .iter()
        .flat_map(|c| {
            c.cores[c.first_traced.min(c.cores.len())..]
                .iter()
                .copied()
                .zip(c.extras.iter().copied())
        })
        .collect();
    let sent = traced.len();
    let done: Vec<(Core, Extra)> = traced.iter().copied().filter(|(r, _)| r.is(DONE)).collect();

    // One span tree per completed request: request ⊃ {lag, server ⊃
    // inject}; what the children leave uncovered is the wire. The
    // server's clock is not ours: its span has the duration the server
    // reported and is centred between `send` being entered and the
    // completion arriving. `send` is a root of its own with the same
    // `req_id`: on loopback the server is done with the request before
    // the `write` returns, so the call runs beside the request, not
    // inside it — what it delays is the *next* request (its lag).
    let mut rec = Recorder::with_capacity(done.len() * 5);
    for (req, (r, x)) in done.iter().enumerate() {
        let req = req as u64;
        let done_ns = r.start_ns + r.latency_ns as u64;
        let root = rec.span(None, req, "request", "serve.wire", r.start_ns, done_ns);
        if x.send_start_ns > r.start_ns {
            rec.span(
                Some(root),
                req,
                "lag",
                "loadgen",
                r.start_ns,
                x.send_start_ns,
            );
        }
        let gap = done_ns.saturating_sub(x.send_start_ns);
        let at = x.send_start_ns + gap.saturating_sub(x.srv_sojourn_ns) / 2;
        let server = rec.span(
            Some(root),
            req,
            "server",
            "serve.server",
            at,
            at + x.srv_sojourn_ns,
        );
        rec.span(
            Some(server),
            req,
            "inject",
            "serve.server",
            at,
            at + x.srv_inject_ns,
        );
        rec.span(
            None,
            req,
            "send",
            "serve.client",
            x.send_start_ns,
            x.send_end_ns,
        );
    }
    let self_times = rec.self_times();
    let wire = Summary::new(
        rec.spans()
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| self_times[s.id as usize])
            .collect(),
    );
    let us = |ns: u64| ns as f64 / 1e3;
    let summary =
        |f: &dyn Fn(&Extra) -> u64| Summary::new(done.iter().map(|(_, x)| f(x)).collect());
    let send = summary(&|x| x.send_end_ns - x.send_start_ns);
    let accept = Summary::new(
        traced
            .iter()
            .filter(|(_, x)| x.accepted_ns != 0)
            .map(|(_, x)| x.accepted_ns.saturating_sub(x.send_start_ns))
            .collect(),
    );
    let inject = summary(&|x| x.srv_inject_ns);
    let sojourn = summary(&|x| x.srv_sojourn_ns);
    let queue_wait = summary(&|x| x.srv_sojourn_ns.saturating_sub(x.srv_inject_ns + WORK_NS));
    out.notes
        .push(sojourn.describe("serve.server.sojourn", 1e3, "us", TAIL));
    out.notes.push(wire.describe("serve.wire", 1e3, "us", TAIL));
    out.set("serve.client.send_us_p50", us(send.p(0.5)));
    out.set("serve.client.send_us_p99", us(send.p(TAIL)));
    out.set("serve.server.accept_us_p50", us(accept.p(0.5)));
    out.set("serve.server.inject_us_p50", us(inject.p(0.5)));
    out.set("serve.server.inject_us_p99", us(inject.p(TAIL)));
    out.set("serve.server.sojourn_us_p50", us(sojourn.p(0.5)));
    out.set("serve.server.sojourn_us_p99", us(sojourn.p(TAIL)));
    out.set("serve.server.queue_wait_us_p50", us(queue_wait.p(0.5)));
    out.set(
        "serve.server.reject_share",
        traced.iter().filter(|(r, _)| r.is(REJECTED)).count() as f64 / sent.max(1) as f64,
    );
    out.set("serve.wire_us_p50", us(wire.p(0.5)));
    out.set("serve.wire_us_p99", us(wire.p(TAIL)));
    out.set(
        "loadgen.achieved_rps",
        sent as f64 / phases.traced_seconds(),
    );
    if let Mode::Open = mode {
        let lag = Summary::new(
            traced
                .iter()
                .map(|(r, x)| x.send_start_ns - r.start_ns)
                .collect(),
        );
        out.notes.push(lag.describe("loadgen.lag", 1e3, "us", TAIL));
        out.set("loadgen.lag_us_p50", us(lag.p(0.5)));
        out.set("loadgen.lag_us_p99", us(lag.p(TAIL)));
    }
    let traced_cores: Vec<Core> = traced.iter().map(|(r, _)| *r).collect();
    let (plain_p50, traced_p50) = (latencies(plain).p(0.5), latencies(&traced_cores).p(0.5));
    if plain_p50 > 0 {
        out.set(
            "trace_overhead_pct",
            (traced_p50 as f64 / plain_p50 as f64 - 1.0) * 100.0,
        );
    }

    // Gauges and queue telemetry over the wire: the poll that opened
    // the traced window and the one that closed it.
    let polls = &conns[0].metrics;
    out.check(polls.len() == 3, || {
        format!("{} Metrics replies, expected 3", polls.len())
    });
    if let [_, opened, closed] = polls.as_slice() {
        let busy = &closed.utilization_permille;
        out.set(
            "runtime.worker_busy_permille",
            busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64,
        );
        out.set("serve.server.in_flight", closed.in_flight as f64);
        let (t0, t1) = (&opened.telemetry, &closed.telemetry);
        out.set("queues.retry_p99", t1.retry.p99 as f64);
        out.set("queues.steal_p99", t1.steal.p99 as f64);
        out.set(
            "queues.empty_pops",
            t1.empty_pops.saturating_sub(t0.empty_pops) as f64,
        );
        out.set(
            "queues.seg_installs",
            t1.seg_installs.saturating_sub(t0.seg_installs) as f64,
        );
        out.set(
            "queues.gc_deferred",
            t1.gc_deferred.saturating_sub(t0.gc_deferred) as f64,
        );
        out.set(
            "queues.gc_collected",
            t1.gc_collected.saturating_sub(t0.gc_collected) as f64,
        );
    }

    // Probes: the same traffic through one layer at a time. A request's
    // key is what the server queues it under: arrival plus budget.
    let keys: Vec<(usize, u64)> = traced
        .iter()
        .enumerate()
        .map(|(i, (r, x))| (i, x.send_start_ns + budget_ns(mode, r.is(TIGHT))))
        .collect();
    probes::run_noop(out, &keys, QueueKind::MultiQueue);
    probes::queues(out, &keys);
    match mode {
        Mode::Open => {
            let first = traced.first().map_or(0, |(r, _)| r.start_ns);
            let due: Vec<u64> = traced
                .iter()
                .map(|(r, _)| r.start_ns - first)
                .take_while(|&d| d < PROBE_SCHEDULE_NS)
                .collect();
            probes::service_dispatch(out, Pace::Schedule(&due));
        }
        Mode::Closed => probes::service_dispatch(
            out,
            Pace::Window {
                in_flight: CLOSED_CONNS * CLOSED_WINDOW,
                tasks: PROBE_WINDOW_TASKS,
            },
        ),
    }
    let requests: Vec<SubmitV2> = traced
        .iter()
        .enumerate()
        .map(|(i, (r, _))| submit(i, budget_ns(mode, r.is(TIGHT))))
        .collect();
    let responses: Vec<CompletedV2> = done
        .iter()
        .enumerate()
        .map(|(i, (r, x))| CompletedV2 {
            req_id: i as u64,
            sojourn_ns: x.srv_sojourn_ns,
            inject_ns: x.srv_inject_ns,
            deadline_ns: x.send_start_ns + budget_ns(mode, r.is(TIGHT)),
            tardiness_ns: 0,
            met: r.is(MET),
        })
        .collect();
    probes::codec(out, &requests, &responses);

    rec.finish(out, args, (done.len() as u64 / TRACE_FILE_REQUESTS).max(1));
}
