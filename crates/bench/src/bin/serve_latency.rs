//! Open-loop serving benchmark: offered load vs sojourn-latency tails.
//!
//! Closed-loop benchmarks (every other bin in this crate) measure
//! *capacity*: N workers hammer the queue as fast as it admits work, so
//! latency is meaningless — each request waits exactly as long as the
//! benchmark makes it. This bin is the **open-system** complement, the
//! "Practically Wait-Free?" methodology applied end-to-end: requests
//! arrive on a schedule *independent of completions* (an overloaded
//! server falls behind instead of slowing the generator), and the
//! figure of merit is the sojourn-latency distribution — p50/p99/p999
//! from scheduled arrival to completion — as a function of offered
//! rate, arrival burstiness, worker count and scheduler backend.
//!
//! ## Arrival processes
//!
//! * `poisson` — exponential interarrivals at the per-connection rate;
//!   the memoryless baseline.
//! * `burst` — a Markov-modulated on/off process (MMPP-2): exponential
//!   ~50 ms ON and OFF phases, arrivals at 2× the nominal rate while
//!   ON, none while OFF. Same long-run average rate as `poisson`, but
//!   the ON phases probe how the scheduler absorbs transient overload —
//!   burstiness is where relaxed-queue tails actually differ.
//! * `diurnal` — nonhomogeneous Poisson replay of a committed
//!   day-shaped rate trace (`RSCHED_TRACE_FILE`, default
//!   `ci/traces/diurnal.json`): the trace's hour-by-hour weights are
//!   compressed into the cell's duration (hours → fractions of a
//!   second), normalized so the *long-run average* still equals the
//!   offered rate, and sampled by thinning against the peak rate with
//!   piecewise-linear interpolation between hour points. Cells stay
//!   comparable to `poisson` at the same offered rate while probing a
//!   realistic peak-and-trough load shape.
//!
//! Latency is measured from the request's *scheduled* arrival time, not
//! from when the sender managed to write it: if the sender falls behind
//! the schedule, that lag is queueing delay the open system must own.
//!
//! ## Deadlines: modes and budgets
//!
//! Every request is a v2 [`SubmitV2`] carrying a **relative deadline
//! budget**, so every completion reports a met/missed verdict. Two
//! sweep axes shape the deadline story:
//!
//! * `mode` — `arrival` handshakes v2 *without* requesting EDF (the
//!   server schedules by arrival, deadlines are only measured);
//!   `edf` requests [`FEAT_EDF`], so the deadline *is* the scheduling
//!   key. Same traffic, same measurements — the mode axis isolates
//!   exactly the scheduling-policy effect on miss rate. Only the
//!   key-ordered backends grant it: an `edf` cell on `dcbo` runs
//!   arrival order and says so (`"edf_granted":0` in its record).
//! * `deadline_budget` — `tight` (every request gets
//!   `RSCHED_BUDGET_TIGHT_NS`), `loose` (`RSCHED_BUDGET_LOOSE_NS`), or
//!   `mixed` (alternating per request). `mixed` is where EDF earns its
//!   keep: urgent requests overtake lax ones instead of queueing behind
//!   them.
//!
//! ## Modes of operation
//!
//! Self-hosted (default): each grid cell boots an in-process
//! [`Server`] on an ephemeral port, so one run sweeps
//! `backends × threads × arrivals × rates × modes × budgets`
//! hermetically. With `RSCHED_SERVE_ADDR` set the bin instead drives an
//! already-running external server (the CI smoke job's shape) and
//! sweeps only `arrivals × rates × modes × budgets`, recording
//! `RSCHED_SERVE_BACKEND` / `RSCHED_SERVE_THREADS` /
//! `RSCHED_SERVE_CAP` as the cell identity.
//!
//! ## Knobs
//!
//! | env | default | axis |
//! |---|---|---|
//! | `RSCHED_RATES` | `1000,4000` | offered req/s, total across clients |
//! | `RSCHED_ARRIVALS` | `poisson,burst` | arrival processes (`poisson`, `burst`, `diurnal`) |
//! | `RSCHED_MODES` | `arrival,edf` | scheduling modes |
//! | `RSCHED_BUDGETS` | `mixed` | deadline budget classes (`tight`, `loose`, `mixed`) |
//! | `RSCHED_BUDGET_TIGHT_NS` | `3000000` | tight budget, ns |
//! | `RSCHED_BUDGET_LOOSE_NS` | `30000000` | loose budget, ns |
//! | `RSCHED_TRACE_FILE` | `ci/traces/diurnal.json` | diurnal rate trace |
//! | `RSCHED_THREADS` | `2` | worker threads (self-host) |
//! | `RSCHED_BACKENDS` | `mq,dcbo` | backends (self-host) |
//! | `RSCHED_CLIENTS` | `2` | concurrent connections |
//! | `RSCHED_WORK_NS` | `20000` | synthetic service time per request |
//! | `RSCHED_DURATION_S` | `1.0` | offered-load window per cell |
//! | `RSCHED_SERVE_CAP` | `4096` | admission bound (self-host) |
//! | `RSCHED_SEED` | `42` | generator RNG seed |
//!
//! Every cell prints a `json,{...}` line and the set is written to
//! `RSCHED_JSON_OUT`; `bench_compare` gates `lat_p999` *and*
//! `miss_rate` against the committed baseline (see
//! `ci/baselines/serve_latency.json` / `serve_deadline.json`). Each
//! record carries the client-side deadline verdict columns
//! (`deadline_met`, `deadline_misses`, `miss_rate`, `tardiness_*`),
//! the server's own deadline accounting (`srv_deadline_misses`,
//! `srv_miss_permille`, `srv_tardiness_p99`) and the shared
//! `telemetry_json_fields` tail (`retry_*`, `steal_*`, `flush_*`, …),
//! pulled from the server over the wire via a [`Request::Metrics`]
//! poll just before the drain — so the compare gate can bound
//! retry/steal tails on serving cells with the same keys the
//! closed-loop contention benches use.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rsched_bench::json;
use rsched_bench::{
    env_f64, env_list, env_u64, env_usize, telemetry_json_fields, write_json_artifact, Table,
};
use rsched_queues::telemetry::PowHistogram;
use rsched_serve::{
    Backend, Endpoint, MetricsReply, Request, Response, ServeClient, ServeConfig, Server,
    StatsReply, SubmitV2, FEAT_EDF, PROTO_V2,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mean ON / OFF phase length of the bursty (MMPP-2) arrival process.
const BURST_PHASE_MEAN_S: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arrival {
    Poisson,
    Burst,
    Diurnal,
}

impl Arrival {
    fn name(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Burst => "burst",
            Arrival::Diurnal => "diurnal",
        }
    }
}

impl std::str::FromStr for Arrival {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(Arrival::Poisson),
            "burst" => Ok(Arrival::Burst),
            "diurnal" => Ok(Arrival::Diurnal),
            other => Err(format!("unknown arrival process {other:?}")),
        }
    }
}

/// Scheduling mode: which feature set the v2 handshake requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// v2 handshake, no EDF grant: the server schedules by arrival
    /// order; deadlines are measured but do not steer.
    Arrival,
    /// v2 handshake requesting [`FEAT_EDF`]: earliest deadline first.
    Edf,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Arrival => "arrival",
            Mode::Edf => "edf",
        }
    }

    fn features(self) -> u64 {
        match self {
            Mode::Arrival => 0,
            Mode::Edf => FEAT_EDF,
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "arrival" => Ok(Mode::Arrival),
            "edf" => Ok(Mode::Edf),
            other => Err(format!("unknown mode {other:?}")),
        }
    }
}

/// Deadline budget class: how much slack each request is granted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Budget {
    Tight,
    Loose,
    /// Alternate tight/loose per request — the heterogeneous workload
    /// where deadline scheduling can actually reorder to advantage.
    Mixed,
}

impl Budget {
    fn name(self) -> &'static str {
        match self {
            Budget::Tight => "tight",
            Budget::Loose => "loose",
            Budget::Mixed => "mixed",
        }
    }

    /// Budget of the `seq`-th request on a connection, ns.
    fn budget_ns(self, seq: u64, tight_ns: u64, loose_ns: u64) -> u64 {
        match self {
            Budget::Tight => tight_ns,
            Budget::Loose => loose_ns,
            Budget::Mixed => {
                if seq.is_multiple_of(2) {
                    tight_ns
                } else {
                    loose_ns
                }
            }
        }
    }
}

impl std::str::FromStr for Budget {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tight" => Ok(Budget::Tight),
            "loose" => Ok(Budget::Loose),
            "mixed" => Ok(Budget::Mixed),
            other => Err(format!("unknown deadline budget {other:?}")),
        }
    }
}

/// The diurnal rate trace: relative hour weights, normalized for
/// thinning. Loaded once from the committed JSON file.
struct DiurnalTrace {
    /// Hour weights, mean-normalized (average = 1.0).
    weights: Vec<f64>,
    /// `max(weights)` — the thinning envelope multiplier.
    peak: f64,
}

impl DiurnalTrace {
    fn load(path: &str) -> Result<DiurnalTrace, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading trace {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let hours = doc
            .get("hours")
            .and_then(json::Value::as_arr)
            .ok_or_else(|| format!("{path}: no \"hours\" array"))?;
        let raw: Vec<f64> = hours
            .iter()
            .map(|v| v.as_f64().filter(|x| *x > 0.0 && x.is_finite()))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("{path}: hours must be positive numbers"))?;
        if raw.len() < 2 {
            return Err(format!("{path}: need at least 2 hour points"));
        }
        let mean = raw.iter().sum::<f64>() / raw.len() as f64;
        let weights: Vec<f64> = raw.iter().map(|w| w / mean).collect();
        let peak = weights.iter().fold(0.0, |a: f64, &b| a.max(b));
        Ok(DiurnalTrace { weights, peak })
    }

    /// Relative rate at `frac` of the (compressed) day, in `[0, 1)`:
    /// piecewise-linear between hour points, wrapping midnight.
    fn weight_at(&self, frac: f64) -> f64 {
        let n = self.weights.len();
        let pos = frac.rem_euclid(1.0) * n as f64;
        let i = (pos as usize) % n;
        let t = pos - pos.floor();
        self.weights[i] * (1.0 - t) + self.weights[(i + 1) % n] * t
    }
}

/// Everything one connection needs to generate its share of a cell's
/// load: the arrival process, the deadline discipline and the window.
struct Workload {
    arrival: Arrival,
    rate_per_conn: f64,
    duration: Duration,
    work_ns: u64,
    mode: Mode,
    budget: Budget,
    tight_ns: u64,
    loose_ns: u64,
    /// Base RNG seed; each connection derives its own from it.
    seed: u64,
    /// Present iff `arrival == Diurnal`.
    diurnal: Option<Arc<DiurnalTrace>>,
}

/// Exponential sample with mean `1/rate` seconds.
fn exp_s(rng: &mut SmallRng, rate: f64) -> f64 {
    // 1 - u in (0, 1]: ln never sees 0.
    -(1.0 - rng.gen::<f64>()).ln() / rate
}

/// One connection's wire totals after its drain.
#[derive(Default)]
struct ConnTotals {
    submitted: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    /// Completions that met their deadline (client-counted verdicts).
    deadline_met: u64,
    /// Completions that missed.
    deadline_misses: u64,
    /// The ack granted [`FEAT_EDF`]: deadlines steered scheduling.
    edf_granted: bool,
    /// The server's final per-run stats snapshot (last Stats reply).
    server_stats: Option<StatsReply>,
    /// The server's live telemetry + gauges (last Metrics reply).
    server_metrics: Option<MetricsReply>,
}

/// Drive one connection open-loop: handshake v2 (requesting the mode's
/// features), schedule arrivals for the window, send deadline-carrying
/// SubmitV2s on schedule, record sojourn (scheduled arrival →
/// CompletedV2) into `lat` and the deadline verdicts into `tard`, then
/// Stats + Drain and verify conservation.
fn drive_connection(
    endpoint: &Endpoint,
    w: &Workload,
    base_id: u64,
    seed: u64,
    lat: &PowHistogram,
    tard: &PowHistogram,
) -> ConnTotals {
    let mut client = ServeClient::connect(endpoint).expect("connect");
    let ack = client
        .handshake(PROTO_V2, w.mode.features())
        .expect("v2 handshake");
    assert_eq!(ack.version, PROTO_V2, "server negotiated below v2");
    assert_eq!(
        ack.features & !w.mode.features(),
        0,
        "server granted features nobody asked for"
    );
    let (mut tx, mut rx) = client.split();
    // req_id → scheduled arrival instant; sender inserts *before* the
    // frame is written so the receiver can never miss it.
    let in_flight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::default();

    let (arrival, rate_per_conn, duration, work_ns) =
        (w.arrival, w.rate_per_conn, w.duration, w.work_ns);
    let (budget, tight_ns, loose_ns) = (w.budget, w.tight_ns, w.loose_ns);
    let diurnal = w.diurnal.clone();
    let sender_map = Arc::clone(&in_flight);
    let sender = std::thread::spawn(move || {
        let mut rng = SmallRng::seed_from_u64(seed);
        let phase_rate = 1.0 / BURST_PHASE_MEAN_S;
        let start = Instant::now();
        let mut next_s = 0.0f64; // scheduled offset of the next arrival
        let mut burst_on = true;
        let mut phase_end_s = exp_s(&mut rng, phase_rate);
        let mut submitted = 0u64;
        loop {
            match arrival {
                Arrival::Poisson => next_s += exp_s(&mut rng, rate_per_conn),
                Arrival::Diurnal => {
                    // Nonhomogeneous Poisson by thinning: candidate
                    // arrivals at the trace's peak rate, each kept with
                    // probability rate(t)/peak. The trace's full cycle
                    // is compressed into the cell window, so `next_s /
                    // duration` is the position in the (normalized)
                    // day.
                    let trace = diurnal.as_ref().expect("diurnal trace not loaded");
                    let lambda_max = rate_per_conn * trace.peak;
                    loop {
                        next_s += exp_s(&mut rng, lambda_max);
                        if next_s >= duration.as_secs_f64() {
                            break;
                        }
                        let frac = next_s / duration.as_secs_f64();
                        if rng.gen::<f64>() * trace.peak <= trace.weight_at(frac) {
                            break;
                        }
                    }
                }
                Arrival::Burst => {
                    // MMPP-2: Poisson at 2× nominal while ON, silent
                    // while OFF, exponential phase lengths. Discarding
                    // the residual interarrival at a phase switch is
                    // exact — the ON process is memoryless.
                    loop {
                        if !burst_on {
                            next_s = phase_end_s;
                            burst_on = true;
                            phase_end_s = next_s + exp_s(&mut rng, phase_rate);
                        }
                        let candidate = next_s + exp_s(&mut rng, 2.0 * rate_per_conn);
                        if candidate <= phase_end_s {
                            next_s = candidate;
                            break;
                        }
                        next_s = phase_end_s;
                        burst_on = false;
                        phase_end_s = next_s + exp_s(&mut rng, phase_rate);
                    }
                }
            }
            if next_s >= duration.as_secs_f64() {
                break;
            }
            let scheduled = start + Duration::from_secs_f64(next_s);
            // Open loop: wait for the schedule, never for the server.
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let req_id = base_id + submitted;
            sender_map
                .lock()
                .expect("latency map poisoned")
                .insert(req_id, scheduled);
            // Relative budgets: the deadline clock starts at server
            // receipt, so sender-side schedule lag does not eat into
            // the budget — the miss rate measures scheduling, not the
            // generator.
            tx.send(&Request::SubmitV2(SubmitV2 {
                req_id,
                deadline: budget.budget_ns(submitted, tight_ns, loose_ns),
                work_ns,
                absolute: false,
            }))
            .expect("send submit");
            submitted += 1;
        }
        tx.send(&Request::Metrics).expect("send metrics");
        tx.send(&Request::Stats).expect("send stats");
        tx.send(&Request::Drain).expect("send drain");
        submitted
    });

    let mut totals = ConnTotals {
        edf_granted: ack.features & FEAT_EDF != 0,
        ..ConnTotals::default()
    };
    loop {
        let resp = rx
            .recv()
            .expect("recv")
            .expect("server closed before Drained");
        match resp {
            Response::Accepted { .. } => totals.accepted += 1,
            Response::Rejected { req_id, .. } => {
                totals.rejected += 1;
                // A rejected request has no sojourn.
                in_flight
                    .lock()
                    .expect("latency map poisoned")
                    .remove(&req_id);
            }
            Response::Completed(c) => {
                totals.completed += 1;
                let scheduled = in_flight
                    .lock()
                    .expect("latency map poisoned")
                    .remove(&c.req_id)
                    .expect("Completed for unknown req_id");
                lat.record(scheduled.elapsed().as_nanos() as u64);
            }
            Response::CompletedV2(c) => {
                totals.completed += 1;
                if c.met {
                    totals.deadline_met += 1;
                } else {
                    totals.deadline_misses += 1;
                }
                tard.record(c.tardiness_ns);
                let scheduled = in_flight
                    .lock()
                    .expect("latency map poisoned")
                    .remove(&c.req_id)
                    .expect("CompletedV2 for unknown req_id");
                lat.record(scheduled.elapsed().as_nanos() as u64);
            }
            Response::Stats(s) => totals.server_stats = Some(s),
            Response::Metrics(m) => totals.server_metrics = Some(*m),
            Response::Drained { completed } => {
                assert_eq!(
                    completed, totals.completed,
                    "server and client disagree on completions"
                );
                break;
            }
            Response::Pong { .. } | Response::HelloAck(_) => {}
        }
    }
    totals.submitted = sender.join().expect("sender panicked");
    assert_eq!(
        totals.accepted + totals.rejected,
        totals.submitted,
        "conservation: every submit must be answered"
    );
    assert_eq!(
        totals.deadline_met + totals.deadline_misses,
        totals.completed,
        "conservation: every v2 completion carries a deadline verdict"
    );
    assert!(
        in_flight.lock().expect("latency map poisoned").is_empty(),
        "requests left unanswered after drain"
    );
    totals
}

struct Cell {
    backend_name: String,
    threads: usize,
    queue_cap: usize,
    arrival: Arrival,
    offered_rate: f64,
    mode: Mode,
    budget: Budget,
}

fn run_cell(endpoint: &Endpoint, cell: &Cell, clients: usize, w_proto: &Workload) -> String {
    let lat = PowHistogram::new();
    let tard = PowHistogram::new();
    let rate_per_conn = cell.offered_rate / clients as f64;
    let started = Instant::now();
    let totals: Vec<ConnTotals> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let (lat, tard) = (&lat, &tard);
                let w = Workload {
                    arrival: cell.arrival,
                    rate_per_conn,
                    duration: w_proto.duration,
                    work_ns: w_proto.work_ns,
                    mode: cell.mode,
                    budget: cell.budget,
                    tight_ns: w_proto.tight_ns,
                    loose_ns: w_proto.loose_ns,
                    seed: w_proto.seed,
                    diurnal: w_proto.diurnal.clone(),
                };
                let seed = w_proto.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                scope.spawn(move || {
                    drive_connection(endpoint, &w, (c as u64) << 40, seed, lat, tard)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let submitted: u64 = totals.iter().map(|t| t.submitted).sum();
    let accepted: u64 = totals.iter().map(|t| t.accepted).sum();
    let rejected: u64 = totals.iter().map(|t| t.rejected).sum();
    let completed: u64 = totals.iter().map(|t| t.completed).sum();
    let deadline_met: u64 = totals.iter().map(|t| t.deadline_met).sum();
    let deadline_misses: u64 = totals.iter().map(|t| t.deadline_misses).sum();
    let miss_rate = if completed == 0 {
        0.0
    } else {
        deadline_misses as f64 / completed as f64
    };
    let edf_granted = totals.iter().all(|t| t.edf_granted);
    if cell.mode == Mode::Edf && !edf_granted {
        println!(
            "note: backend {} granted no FEAT_EDF; this edf cell ran arrival order",
            cell.backend_name
        );
    }
    let srv = totals
        .iter()
        .rev()
        .find_map(|t| t.server_stats)
        .unwrap_or_default();
    // The wire-polled server telemetry: same keys the closed-loop
    // benches emit, so serving cells gate on retry/steal tails too.
    let metrics = totals
        .iter()
        .rev()
        .find_map(|t| t.server_metrics.clone())
        .unwrap_or_default();
    format!(
        "{{\"bench\":\"serve_latency\",\"backend\":\"{}\",\"threads\":{},\
         \"arrival_process\":\"{}\",\"offered_rate\":{:.1},\"clients\":{},\
         \"work_ns\":{},\"queue_cap\":{},\"duration_s\":{:.3},\
         \"mode\":\"{}\",\"edf_granted\":{},\"deadline_budget\":\"{}\",\
         \"submitted\":{},\"accepted\":{},\"rejected\":{},\"completed\":{},\
         \"achieved_rate\":{:.1},\"accepted_per_sec\":{:.1},\
         \"lat_p50\":{},\"lat_p99\":{},\"lat_p999\":{},\"lat_max\":{},\
         \"lat_count\":{},\
         \"deadline_met\":{},\"deadline_misses\":{},\"miss_rate\":{:.4},\
         \"tardiness_p99\":{},\"tardiness_p999\":{},\"tardiness_max\":{},\
         \"srv_sojourn_p50\":{},\"srv_sojourn_p99\":{},\
         \"srv_sojourn_p999\":{},\"srv_inject_p99\":{},\"srv_in_flight\":{},\
         \"srv_deadline_misses\":{},\"srv_miss_permille\":{},\
         \"srv_tardiness_p99\":{},{}}}",
        cell.backend_name,
        cell.threads,
        cell.arrival.name(),
        cell.offered_rate,
        clients,
        w_proto.work_ns,
        cell.queue_cap,
        elapsed,
        cell.mode.name(),
        edf_granted as u8,
        cell.budget.name(),
        submitted,
        accepted,
        rejected,
        completed,
        submitted as f64 / elapsed,
        accepted as f64 / elapsed,
        lat.quantile(0.50),
        lat.quantile(0.99),
        lat.quantile(0.999),
        lat.max_observed(),
        lat.count(),
        deadline_met,
        deadline_misses,
        miss_rate,
        tard.quantile(0.99),
        tard.quantile(0.999),
        tard.max_observed(),
        srv.sojourn_p50,
        srv.sojourn_p99,
        srv.sojourn_p999,
        srv.inject_p99,
        metrics.in_flight,
        srv.deadline_misses,
        srv.miss_permille,
        srv.tardiness_p99,
        telemetry_json_fields(&metrics.telemetry),
    )
}

fn main() {
    let rates = env_list::<f64>("RSCHED_RATES", &[1_000.0, 4_000.0]);
    let arrivals = env_list::<Arrival>("RSCHED_ARRIVALS", &[Arrival::Poisson, Arrival::Burst]);
    let modes = env_list::<Mode>("RSCHED_MODES", &[Mode::Arrival, Mode::Edf]);
    let budgets = env_list::<Budget>("RSCHED_BUDGETS", &[Budget::Mixed]);
    let clients = env_usize("RSCHED_CLIENTS", 2).max(1);
    let work_ns = env_u64("RSCHED_WORK_NS", 20_000);
    let duration = Duration::from_secs_f64(env_f64("RSCHED_DURATION_S", 1.0).max(0.05));
    let seed = env_u64("RSCHED_SEED", 42);
    let queue_cap = env_usize("RSCHED_SERVE_CAP", 4096);
    let tight_ns = env_u64("RSCHED_BUDGET_TIGHT_NS", 3_000_000);
    let loose_ns = env_u64("RSCHED_BUDGET_LOOSE_NS", 30_000_000);
    let diurnal = if arrivals.contains(&Arrival::Diurnal) {
        let path =
            std::env::var("RSCHED_TRACE_FILE").unwrap_or_else(|_| "ci/traces/diurnal.json".into());
        match DiurnalTrace::load(&path) {
            Ok(t) => Some(Arc::new(t)),
            Err(e) => {
                eprintln!("serve_latency: {e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    // The per-cell template; arrival/mode/budget/rate vary per cell.
    let w_proto = Workload {
        arrival: Arrival::Poisson,
        rate_per_conn: 0.0,
        duration,
        work_ns,
        mode: Mode::Arrival,
        budget: Budget::Mixed,
        tight_ns,
        loose_ns,
        seed,
        diurnal,
    };

    let table = Table::new(
        "serve_latency",
        &[
            "backend", "threads", "arrival", "mode", "budget", "rate/s", "accept/s", "rej",
            "p99_us", "p999_us", "miss%",
        ],
    );
    let mut records = Vec::new();

    let mut run_and_log = |endpoint: &Endpoint, cell: &Cell| {
        let record = run_cell(endpoint, cell, clients, &w_proto);
        println!("json,{record}");
        let get = |k: &str| -> String {
            let pat = format!("\"{k}\":");
            let rest = &record[record.find(&pat).expect("field") + pat.len()..];
            rest[..rest.find([',', '}']).expect("terminator")]
                .trim_matches('"')
                .to_string()
        };
        let us = |k: &str| -> String {
            let ns: f64 = get(k).parse().unwrap_or(0.0);
            format!("{:.0}", ns / 1_000.0)
        };
        let miss_pct = {
            let rate: f64 = get("miss_rate").parse().unwrap_or(0.0);
            format!("{:.1}", rate * 100.0)
        };
        table.row(&[
            cell.backend_name.clone(),
            cell.threads.to_string(),
            cell.arrival.name().to_string(),
            cell.mode.name().to_string(),
            cell.budget.name().to_string(),
            format!("{:.0}", cell.offered_rate),
            get("accepted_per_sec"),
            get("rejected"),
            us("lat_p99"),
            us("lat_p999"),
            miss_pct,
        ]);
        records.push(record);
    };

    if let Ok(addr) = std::env::var("RSCHED_SERVE_ADDR") {
        // External mode: the server's identity axes come from env.
        let endpoint = Endpoint::parse(&addr).expect("RSCHED_SERVE_ADDR");
        let backend_name = std::env::var("RSCHED_SERVE_BACKEND").unwrap_or_else(|_| "mq".into());
        let threads = env_usize("RSCHED_SERVE_THREADS", 2);
        for &mode in &modes {
            for &budget in &budgets {
                for &arrival in &arrivals {
                    for &offered_rate in &rates {
                        run_and_log(
                            &endpoint,
                            &Cell {
                                backend_name: backend_name.clone(),
                                threads,
                                queue_cap,
                                arrival,
                                offered_rate,
                                mode,
                                budget,
                            },
                        );
                    }
                }
            }
        }
    } else {
        // Self-hosted: a fresh in-process server per cell, so cells are
        // hermetic (histograms and counters start from zero).
        let backends =
            env_list::<String>("RSCHED_BACKENDS", &["mq".to_string(), "dcbo".to_string()]);
        let threads_list = rsched_bench::env_usize_list("RSCHED_THREADS", &[2]);
        for backend_name in &backends {
            let backend: Backend = backend_name.parse().expect("RSCHED_BACKENDS");
            for &threads in &threads_list {
                for &mode in &modes {
                    for &budget in &budgets {
                        for &arrival in &arrivals {
                            for &offered_rate in &rates {
                                let server = Server::start(ServeConfig {
                                    endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
                                    backend,
                                    threads,
                                    queue_cap,
                                    seed,
                                })
                                .expect("server start");
                                let endpoint = server.endpoint().clone();
                                run_and_log(
                                    &endpoint,
                                    &Cell {
                                        backend_name: backend_name.clone(),
                                        threads,
                                        queue_cap,
                                        arrival,
                                        offered_rate,
                                        mode,
                                        budget,
                                    },
                                );
                                let report = server.shutdown();
                                assert_eq!(
                                    report.submitted,
                                    report.accepted + report.rejected,
                                    "server-side conservation"
                                );
                                assert_eq!(
                                    report.completed, report.accepted,
                                    "accepted tasks were dropped"
                                );
                                assert_eq!(
                                    report.deadline_met + report.deadline_misses,
                                    report.completed,
                                    "every completion carries a deadline verdict"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    write_json_artifact(&records);
}
