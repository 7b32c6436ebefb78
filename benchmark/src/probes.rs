//! Per-layer probes: one layer's public API driven in isolation with
//! the workload's own inputs. They run only on traced runs, after the
//! workload, and never feed an end-to-end metric.
//!
//! Public functions called here (the surface a later change must keep,
//! or update in a `[benchmark]` issue): `QueueBuilder::{new, universe,
//! multiqueue, d_cbo}`, `Scheduler::{open_session, push, pop, flush}`,
//! `rsched_runtime::{run, service}`, `ServiceHandle::{injector, join}`,
//! `Injector::{inject, in_flight}`, `rsched_serve::spin_work` and the
//! four codec functions `encode_request`, `decode_request`,
//! `encode_response`, `decode_response`.

use crate::metrics::Outcome;
use crate::stats::{median_f64, Summary};
use crate::{THREADS, WORK_NS};
use rsched_queues::{QueueBuilder, SessionConfig};
use rsched_runtime::{run, service, RuntimeConfig, Scheduler, TaskOutcome};
use rsched_serve::codec::{decode_request, decode_response, encode_request, encode_response};
use rsched_serve::{spin_work, CompletedV2, Request, Response, SubmitV2, PROTO_V2};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Shards of the probed queues: 2 per thread, as every workload uses.
const SHARDS: usize = 2 * THREADS;
/// Each probe is repeated this often and reports the median.
const REPEATS: usize = 5;
/// A probe replays at most this many keys, to bound the traced run.
const MAX_KEYS: usize = 200_000;

/// The workload's task list: distinct items with their final keys.
pub type Keys = [(usize, u64)];

fn bounded(keys: &Keys) -> &Keys {
    &keys[..keys.len().min(MAX_KEYS)]
}

fn universe(keys: &Keys) -> usize {
    keys.iter().map(|k| k.0).max().map_or(1, |m| m + 1)
}

/// Mean ns per push and per pop when `THREADS` sessions push their
/// share of `keys` and then pop the queue empty.
fn push_pop_ns<S: Scheduler<u64>>(queue: &S, keys: &Keys) -> (f64, f64) {
    let barrier = Barrier::new(THREADS);
    let per_thread: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut session = queue.open_session(&SessionConfig {
                        tid,
                        workers: THREADS,
                        seed: 0xBE7C + tid as u64,
                        ..SessionConfig::default()
                    });
                    barrier.wait();
                    let t0 = Instant::now();
                    for &(item, key) in keys.iter().skip(tid).step_by(THREADS) {
                        black_box(queue.push(&mut session, item, key));
                    }
                    queue.flush(&mut session);
                    let push_ns = t0.elapsed().as_nanos() as u64;
                    barrier.wait();
                    let t1 = Instant::now();
                    let (mut pops, mut misses) = (0u64, 0);
                    // A relaxed pop may miss while elements remain;
                    // a run of misses means the queue is drained.
                    while misses < 8 {
                        match queue.pop(&mut session) {
                            Some(task) => {
                                black_box(task);
                                pops += 1;
                                misses = 0;
                            }
                            None => misses += 1,
                        }
                    }
                    (push_ns, t1.elapsed().as_nanos() as u64, pops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("queue probe thread panicked"))
            .collect()
    });
    let pushes = keys.len() as f64;
    let pops: u64 = per_thread.iter().map(|t| t.2).sum();
    let push_ns: u64 = per_thread.iter().map(|t| t.0).sum();
    let pop_ns: u64 = per_thread.iter().map(|t| t.1).sum();
    (push_ns as f64 / pushes, pop_ns as f64 / pops.max(1) as f64)
}

fn median_pair(samples: &[(f64, f64)]) -> (f64, f64) {
    let firsts: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let seconds: Vec<f64> = samples.iter().map(|s| s.1).collect();
    (median_f64(&firsts), median_f64(&seconds))
}

/// `queues.mq.*` and `queues.dcbo.*`: push/pop cost of the keyed
/// MultiQueue and of the d-CBO relaxed FIFO on the workload's keys.
pub fn queues(out: &mut Outcome, keys: &Keys) {
    let keys = bounded(keys);
    if keys.is_empty() {
        return;
    }
    let n = universe(keys);
    let mq: Vec<(f64, f64)> = (0..REPEATS)
        .map(|_| {
            push_pop_ns(
                &QueueBuilder::new(SHARDS).universe(n).multiqueue::<u64>(),
                keys,
            )
        })
        .collect();
    let (push, pop) = median_pair(&mq);
    out.set("queues.mq.push_ns", push);
    out.set("queues.mq.pop_ns", pop);
    let dcbo: Vec<(f64, f64)> = (0..REPEATS)
        .map(|_| push_pop_ns(&QueueBuilder::new(SHARDS).d_cbo::<(usize, u64)>(), keys))
        .collect();
    let (push, pop) = median_pair(&dcbo);
    out.set("queues.dcbo.push_ns", push);
    out.set("queues.dcbo.pop_ns", pop);
}

/// Which queue the workload's runtime drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Keyed MultiQueue over skiplist shards (SSSP, the server).
    MultiQueue,
    /// d-CBO relaxed FIFO over segmented rings (BFS).
    DCbo,
}

/// `runtime.run.*`: the pool loop and termination detection alone —
/// the workload's tasks as initial tasks of `run` with an empty
/// handler, on the workload's queue type.
pub fn run_noop(out: &mut Outcome, keys: &Keys, kind: QueueKind) {
    let keys = bounded(keys);
    if keys.is_empty() {
        return;
    }
    let cfg = RuntimeConfig {
        threads: THREADS,
        seed: 0xBE7C,
        ..RuntimeConfig::default()
    };
    let initial = || keys.iter().copied();
    let n = universe(keys);
    let runs: Vec<_> = (0..REPEATS)
        .map(|_| match kind {
            QueueKind::MultiQueue => {
                let q = QueueBuilder::new(SHARDS).universe(n).multiqueue::<u64>();
                run(&q, cfg, initial(), |_, _, _| TaskOutcome::Executed)
            }
            QueueKind::DCbo => {
                let q = QueueBuilder::new(SHARDS).d_cbo::<(usize, u64)>();
                run(&q, cfg, initial(), |_, _, _| TaskOutcome::Executed)
            }
        })
        .collect();
    let med = |f: &dyn Fn(&rsched_runtime::PoolStats) -> f64| {
        median_f64(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    out.set(
        "runtime.run.noop_ns_per_task",
        med(&|s| s.wall.as_nanos() as f64 / s.total.pops.max(1) as f64),
    );
    out.set(
        "runtime.run.pop_miss_share",
        med(&|s| share(s.total.pop_misses, s.total.pops + s.total.pop_misses)),
    );
    out.set(
        "runtime.run.steal_share",
        med(&|s| share(s.total.steals, s.total.pops)),
    );
    out.set(
        "runtime.run.home_hit_share",
        med(&|s| share(s.total.home_hits, s.total.pops)),
    );
    out.set("runtime.run.flushes", med(&|s| s.total.flushes as f64));
}

/// How the service probe offers its tasks.
pub enum Pace<'a> {
    /// Open loop: task `i` is injected when `due_ns[i]` has passed.
    Schedule(&'a [u64]),
    /// Closed loop: keep this many tasks in flight, for this many tasks.
    Window { in_flight: usize, tasks: usize },
}

/// `runtime.service.*`: the resident pool without the wire. Tasks are
/// injected at the workload's pace straight into `service()`; the
/// handler stamps its start, so dispatch = inject call → handler
/// start, which is queueing plus park/unpark and nothing else.
pub fn service_dispatch(out: &mut Outcome, pace: Pace<'_>) {
    let tasks = match &pace {
        Pace::Schedule(due) => due.len(),
        Pace::Window { tasks, .. } => *tasks,
    };
    if tasks == 0 {
        return;
    }
    let epoch = Instant::now();
    let started: Arc<Vec<AtomicU64>> = Arc::new((0..tasks).map(|_| AtomicU64::new(0)).collect());
    let queue = Arc::new(
        QueueBuilder::new(SHARDS)
            .universe(tasks)
            .multiqueue::<u64>(),
    );
    let handle = {
        let started = Arc::clone(&started);
        service(
            queue,
            RuntimeConfig {
                threads: THREADS,
                seed: 0xBE7C,
                ..RuntimeConfig::default()
            },
            move |_, item, _| {
                started[item].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
                spin_work(WORK_NS);
                TaskOutcome::Executed
            },
        )
    };
    let mut injector = handle.injector();
    let mut injected_at = vec![0u64; tasks];
    let mut inject_ns = Vec::with_capacity(tasks);
    for i in 0..tasks {
        match &pace {
            Pace::Schedule(due) => {
                crate::serve::wait_until(epoch, due[i]);
            }
            Pace::Window { in_flight, .. } => {
                while injector.in_flight() >= *in_flight {
                    std::thread::yield_now();
                }
            }
        }
        let t0 = epoch.elapsed().as_nanos() as u64;
        // The key is the arrival time: arrival order, as the server
        // keys a request that carries no deadline.
        assert!(injector.inject(i, t0), "service refused an inject");
        inject_ns.push(epoch.elapsed().as_nanos() as u64 - t0);
        injected_at[i] = t0;
    }
    drop(injector);
    let stats = handle.join();
    out.check(stats.total.executed == tasks as u64, || {
        format!(
            "service probe executed {} of {tasks} tasks",
            stats.total.executed
        )
    });
    let dispatch: Vec<u64> = started
        .iter()
        .zip(&injected_at)
        .map(|(s, t0)| s.load(Ordering::Acquire).saturating_sub(*t0))
        .collect();
    let inject = Summary::new(inject_ns);
    let dispatch = Summary::new(dispatch);
    out.set("runtime.service.inject_ns", inject.p(0.5) as f64);
    out.set(
        "runtime.service.dispatch_us_p50",
        dispatch.p(0.5) as f64 / 1e3,
    );
    out.set(
        "runtime.service.dispatch_us_p99",
        dispatch.p(0.99) as f64 / 1e3,
    );
    out.notes
        .push(dispatch.describe("runtime.service.dispatch", 1e3, "us", 0.99));
}

/// `serve.codec.*`: ns per frame of the four codec functions over the
/// workload's own frames.
pub fn codec(out: &mut Outcome, requests: &[SubmitV2], responses: &[CompletedV2]) {
    if requests.is_empty() || responses.is_empty() {
        return;
    }
    let per_frame = |elapsed: std::time::Duration, n: usize| elapsed.as_nanos() as f64 / n as f64;
    let mut wire = Vec::with_capacity(requests.len() * 32);
    let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPEATS {
        wire.clear();
        let t = Instant::now();
        for r in requests {
            encode_request(black_box(&Request::SubmitV2(*r)), &mut wire);
        }
        samples[0].push(per_frame(t.elapsed(), requests.len()));
        // Every SubmitV2 frame is a 4-byte length and a 26-byte payload.
        let t = Instant::now();
        for frame in wire.chunks_exact(30) {
            black_box(decode_request(black_box(&frame[4..])).expect("own frame decodes"));
        }
        samples[1].push(per_frame(t.elapsed(), requests.len()));

        wire.clear();
        let t = Instant::now();
        for r in responses {
            encode_response(black_box(&Response::CompletedV2(*r)), PROTO_V2, &mut wire);
        }
        samples[2].push(per_frame(t.elapsed(), responses.len()));
        let frame_len = wire.len() / responses.len();
        let t = Instant::now();
        for frame in wire.chunks_exact(frame_len) {
            black_box(decode_response(black_box(&frame[4..])).expect("own frame decodes"));
        }
        samples[3].push(per_frame(t.elapsed(), responses.len()));
    }
    out.set("serve.codec.encode_req_ns", median_f64(&samples[0]));
    out.set("serve.codec.decode_req_ns", median_f64(&samples[1]));
    out.set("serve.codec.encode_resp_ns", median_f64(&samples[2]));
    out.set("serve.codec.decode_resp_ns", median_f64(&samples[3]));
}
