//! End-to-end loopback tests: a real server on an ephemeral socket,
//! real clients over the wire, exact conservation of every request.

use rsched_serve::{
    Backend, Endpoint, RejectCode, Request, Response, ServeClient, ServeConfig, Server, Submit,
    SubmitV2, FEAT_EDF, PROTO_V1, PROTO_V2,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Iteration multiplier for the heavy tests; `RSCHED_STRESS=1` (or a
/// number) raises it in the CI stress job.
fn stress_mult() -> usize {
    match std::env::var("RSCHED_STRESS").as_deref() {
        Ok("0") | Err(_) => 1,
        Ok(v) => v.parse::<usize>().unwrap_or(1).clamp(1, 64) * 4,
    }
}

fn ephemeral(backend: Backend, threads: usize, cap: usize) -> Server {
    Server::start(ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        backend,
        threads,
        queue_cap: cap,
        seed: 0x00C0_FFEE,
    })
    .expect("server start")
}

/// Pipeline `n` submits, then drain; assert exactly-once completion
/// per request id and Accepted-before-Completed ordering. Returns
/// (accepted, rejected) as observed on the wire.
fn drive_client(endpoint: &Endpoint, base_id: u64, n: u64, work_ns: u64) -> (u64, u64) {
    let client = ServeClient::connect(endpoint).expect("connect");
    let (mut tx, mut rx) = client.split();
    let sender = std::thread::spawn(move || {
        for i in 0..n {
            tx.send(&Request::Submit(Submit {
                req_id: base_id + i,
                prio: i,
                work_ns,
            }))
            .expect("send submit");
        }
        tx.send(&Request::Drain).expect("send drain");
    });
    let mut accepted = HashSet::new();
    let mut rejected = HashSet::new();
    let mut completed = HashSet::new();
    let mut drained = None;
    while let Some(resp) = rx.recv().expect("recv") {
        match resp {
            Response::Accepted { req_id } => {
                assert!(accepted.insert(req_id), "double Accepted for {req_id}");
            }
            Response::Rejected { req_id, code } => {
                assert_eq!(code, RejectCode::QueueFull);
                assert!(rejected.insert(req_id), "double Rejected for {req_id}");
            }
            Response::Completed(c) => {
                assert!(
                    accepted.contains(&c.req_id),
                    "Completed before Accepted for {}",
                    c.req_id
                );
                assert!(
                    completed.insert(c.req_id),
                    "double Completed for {}",
                    c.req_id
                );
                assert!(
                    c.sojourn_ns >= c.inject_ns,
                    "sojourn shorter than its prefix"
                );
            }
            Response::Drained { completed: c } => {
                drained = Some(c);
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    sender.join().unwrap();
    // Exact conservation on this connection: every submit was answered,
    // every accept completed, and the server's drain count agrees.
    assert_eq!(accepted.len() as u64 + rejected.len() as u64, n);
    assert_eq!(completed, accepted);
    assert_eq!(drained, Some(accepted.len() as u64));
    (accepted.len() as u64, rejected.len() as u64)
}

#[test]
fn loopback_conservation_under_concurrent_clients() {
    for backend in Backend::ALL {
        let per_client = (400 * stress_mult()) as u64;
        let clients = 3u64;
        let server = ephemeral(backend, 2, 100_000);
        let endpoint = server.endpoint().clone();
        let accepted_total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for c in 0..clients {
                let endpoint = &endpoint;
                let accepted_total = &accepted_total;
                scope.spawn(move || {
                    let (acc, rej) = drive_client(endpoint, c * 1_000_000, per_client, 1_000);
                    // Capacity is far above the offered load: nothing
                    // should have been rejected.
                    assert_eq!(rej, 0, "spurious rejection (backend {backend:?})");
                    accepted_total.fetch_add(acc, Ordering::Relaxed);
                });
            }
        });
        let report = server.shutdown();
        let expect = clients * per_client;
        assert_eq!(report.submitted, expect, "backend {backend:?}");
        assert_eq!(report.accepted, expect, "backend {backend:?}");
        assert_eq!(report.rejected, 0, "backend {backend:?}");
        assert_eq!(report.completed, expect, "backend {backend:?}");
        assert_eq!(accepted_total.load(Ordering::Relaxed), expect);
        // Quantiles are monotone by construction; spot-check the report.
        assert!(report.sojourn_p50 <= report.sojourn_p99);
        assert!(report.sojourn_p99 <= report.sojourn_p999);
        assert!(report.sojourn_p999 <= report.sojourn_max);
    }
}

#[test]
fn admission_rejects_when_full_and_never_hangs() {
    // One slow worker (1 ms tasks), capacity 4: a fast burst of 200
    // submits must see QueueFull rejections, every frame must still be
    // answered, and the drain must terminate with exact conservation.
    let server = ephemeral(Backend::MqSkiplist, 1, 4);
    let endpoint = server.endpoint().clone();
    let n = 200u64;
    let (accepted, rejected) = drive_client(&endpoint, 0, n, 1_000_000);
    assert!(
        rejected > 0,
        "burst of {n} into cap 4 never tripped admission"
    );
    assert!(accepted >= 4, "admission rejected even with room");
    let report = server.shutdown();
    assert_eq!(report.submitted, n);
    assert_eq!(report.accepted, accepted);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.completed, accepted, "accepted tasks were dropped");
}

#[test]
fn unix_socket_roundtrip() {
    let path = std::env::temp_dir().join(format!("rsched-serve-test-{}.sock", std::process::id()));
    let server = Server::start(ServeConfig {
        endpoint: Endpoint::Unix(path.clone()),
        backend: Backend::DcboSegring,
        threads: 2,
        queue_cap: 1024,
        seed: 7,
    })
    .expect("unix server start");
    let endpoint = server.endpoint().clone();
    let (accepted, rejected) = drive_client(&endpoint, 0, 300, 10_000);
    assert_eq!((accepted, rejected), (300, 0));
    let report = server.shutdown();
    assert_eq!(report.completed, 300);
    assert!(!path.exists(), "socket file survived shutdown");
}

#[test]
fn ping_and_stats_roundtrip() {
    let server = ephemeral(Backend::MqMutexHeap, 2, 1024);
    let mut client = ServeClient::connect(server.endpoint()).expect("connect");
    client.send(&Request::Ping { token: 42 }).unwrap();
    assert_eq!(client.recv().unwrap(), Some(Response::Pong { token: 42 }));
    client
        .send(&Request::Submit(Submit {
            req_id: 1,
            prio: 0,
            work_ns: 0,
        }))
        .unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Some(Response::Accepted { req_id: 1 })
    );
    match client.recv().unwrap() {
        Some(Response::Completed(c)) if c.req_id == 1 => {}
        other => panic!("expected Completed, got {other:?}"),
    }
    // Stats after one completion: counters consistent, quantiles set.
    client.send(&Request::Stats).unwrap();
    match client.recv().unwrap() {
        Some(Response::Stats(s)) => {
            assert_eq!(s.submitted, 1);
            assert_eq!(s.accepted, 1);
            assert_eq!(s.rejected, 0);
            assert_eq!(s.completed, 1);
            assert_eq!(s.in_flight, 0);
            assert!(s.sojourn_p50 > 0);
            assert!(s.sojourn_p50 <= s.sojourn_p999);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    client.send(&Request::Drain).unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Some(Response::Drained { completed: 1 })
    );
    assert_eq!(
        client.recv().unwrap(),
        None,
        "connection open after Drained"
    );
    server.shutdown();
}

#[test]
fn metrics_roundtrips_full_telemetry_snapshot_over_the_wire() {
    let threads = 2;
    let server = ephemeral(Backend::MqSkiplist, threads, 1024);
    let mut client = ServeClient::connect(server.endpoint()).expect("connect");
    // Render some real service so the snapshot has something to say.
    let n = 64u64;
    for i in 0..n {
        client
            .send(&Request::Submit(Submit {
                req_id: i,
                prio: i,
                work_ns: 20_000,
            }))
            .unwrap();
    }
    let mut completed = 0u64;
    while completed < n {
        match client.recv().unwrap() {
            Some(Response::Accepted { .. }) => {}
            Some(Response::Completed(_)) => completed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Workers flush thread-local telemetry when they park; poll until
    // the tick histogram has visibly absorbed our work. Telemetry is
    // process-global, so assertions are ≥, never ==.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let m = loop {
        client.send(&Request::Metrics).unwrap();
        let m = match client.recv().unwrap() {
            Some(Response::Metrics(m)) => m,
            other => panic!("expected Metrics, got {other:?}"),
        };
        if m.telemetry.tick.count >= n {
            break m;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tick count stuck at {} (< {n})",
            m.telemetry.tick.count
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // The full snapshot really crossed the wire: every histogram block
    // carries its complete bucket array and internally-consistent
    // quantiles. The destructure has no `..`, so a series added to or
    // dropped from the snapshot has to be added or dropped here too.
    let rsched_queues::TelemetrySnapshot {
        retry,
        steal,
        sweep,
        tick,
        empty_pops: _,
        registry_probes: _,
        seg_installs,
        flush_published: _,
        flush_merged: _,
        gc_deferred: _,
        gc_collected: _,
    } = &m.telemetry;
    assert_eq!(*seg_installs, 0, "nothing feeds seg_installs");
    for hist in [retry, steal, sweep, tick] {
        assert_eq!(hist.buckets.len(), 64, "bucket array truncated in flight");
        assert_eq!(
            hist.buckets.iter().sum::<u64>(),
            hist.count,
            "bucket sum disagrees with count"
        );
        assert!(hist.p50 <= hist.p99 && hist.p99 <= hist.p999);
    }
    assert_eq!(
        m.utilization_permille.len(),
        threads,
        "one gauge per worker"
    );
    assert!(m.utilization_permille.iter().all(|&u| u <= 1000));
    assert_eq!(m.in_flight, 0, "all work completed before the poll");
    // A second poll still decodes: the sampler window reset is not a
    // one-shot.
    client.send(&Request::Metrics).unwrap();
    match client.recv().unwrap() {
        Some(Response::Metrics(m2)) => {
            assert!(m2.telemetry.tick.count >= m.telemetry.tick.count);
        }
        other => panic!("expected second Metrics, got {other:?}"),
    }
    client.send(&Request::Drain).unwrap();
    assert_eq!(
        client.recv().unwrap(),
        Some(Response::Drained { completed: n })
    );
    server.shutdown();
}

#[test]
fn abrupt_disconnect_still_accounts_accepted_work() {
    // A client that vanishes mid-stream must not wedge the server or
    // leak in-flight accounting: every submit the server *decoded* is
    // accepted, completed and balanced. The count decoded may be below
    // what the client wrote — the server's replies to the closed peer
    // draw an RST, and an RST discards frames still queued in the
    // server's receive buffer; TCP offers no delivery guarantee to a
    // vanished client, and neither does the server.
    let server = ephemeral(Backend::MqSkiplist, 2, 1024);
    let n = 100u64;
    {
        let mut client = ServeClient::connect(server.endpoint()).expect("connect");
        for i in 0..n {
            client
                .send(&Request::Submit(Submit {
                    req_id: i,
                    prio: i,
                    work_ns: 50_000,
                }))
                .unwrap();
        }
        // Drop without draining: both halves close.
    }
    // Give the pool a moment to finish the orphaned work.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = ServeClient::connect(server.endpoint()).expect("probe connect");
        probe.send(&Request::Stats).unwrap();
        match probe.recv().unwrap() {
            Some(Response::Stats(s))
                if s.submitted > 0
                    && s.submitted <= n
                    && s.completed == s.accepted
                    && s.in_flight == 0 =>
            {
                break
            }
            Some(Response::Stats(_)) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("orphaned work never drained: {other:?}"),
        }
    }
    let report = server.shutdown();
    assert!(report.submitted > 0 && report.submitted <= n);
    assert_eq!(report.submitted, report.accepted + report.rejected);
    assert_eq!(report.completed, report.accepted);
}

/// v2 analogue of [`drive_client`]: handshake at `PROTO_V2` with
/// `FEAT_EDF`, pipeline `n` relative-deadline submits, then drain.
/// Returns (accepted, rejected, met, missed) as observed on the wire.
fn drive_client_v2(
    endpoint: &Endpoint,
    base_id: u64,
    n: u64,
    work_ns: u64,
    budget_ns: u64,
) -> (u64, u64, u64, u64) {
    let mut client = ServeClient::connect(endpoint).expect("connect");
    let ack = client.handshake(PROTO_V2, FEAT_EDF).expect("handshake");
    assert_eq!(ack.version, PROTO_V2, "server refused to speak v2");
    assert_eq!(ack.features & !FEAT_EDF, 0, "granted more than asked");
    let (mut tx, mut rx) = client.split();
    let sender = std::thread::spawn(move || {
        for i in 0..n {
            tx.send(&Request::SubmitV2(SubmitV2 {
                req_id: base_id + i,
                deadline: budget_ns,
                work_ns,
                absolute: false,
            }))
            .expect("send submit v2");
        }
        tx.send(&Request::Drain).expect("send drain");
    });
    let mut accepted = HashSet::new();
    let mut rejected = HashSet::new();
    let mut completed = HashSet::new();
    let (mut met, mut missed) = (0u64, 0u64);
    let mut drained = None;
    while let Some(resp) = rx.recv().expect("recv") {
        match resp {
            Response::Accepted { req_id } => {
                assert!(accepted.insert(req_id), "double Accepted for {req_id}");
            }
            Response::Rejected { req_id, code } => {
                assert_eq!(code, RejectCode::QueueFull);
                assert!(rejected.insert(req_id), "double Rejected for {req_id}");
            }
            Response::CompletedV2(c) => {
                assert!(
                    accepted.contains(&c.req_id),
                    "Completed before Accepted for {}",
                    c.req_id
                );
                assert!(
                    completed.insert(c.req_id),
                    "double Completed for {}",
                    c.req_id
                );
                // The relative budget resolved against the admission
                // stamp: the absolute deadline echoed back must be at
                // least the budget itself.
                assert!(c.deadline_ns >= budget_ns, "deadline resolved backwards");
                assert_eq!(c.met, c.tardiness_ns == 0, "met flag disagrees");
                if c.met {
                    met += 1;
                } else {
                    missed += 1;
                }
            }
            Response::Drained { completed: c } => {
                drained = Some(c);
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    sender.join().unwrap();
    assert_eq!(accepted.len() as u64 + rejected.len() as u64, n);
    assert_eq!(completed, accepted);
    assert_eq!(drained, Some(accepted.len() as u64));
    assert_eq!(
        met + missed,
        accepted.len() as u64,
        "a completion had no verdict"
    );
    (accepted.len() as u64, rejected.len() as u64, met, missed)
}

#[test]
fn v2_handshake_negotiates_and_reports_deadline_verdicts() {
    let server = ephemeral(Backend::MqSkiplist, 2, 1024);
    let endpoint = server.endpoint().clone();
    // Clock sanity: the ack carries the server's monotonic reading, and
    // successive handshakes observe it advancing (never backwards).
    let (_c1, ack1) = ServeClient::connect_v2(&endpoint).expect("connect v2");
    let (_c2, ack2) = ServeClient::connect_v2(&endpoint).expect("connect v2");
    assert_eq!(ack1.version, PROTO_V2);
    assert_eq!(ack1.features, FEAT_EDF);
    assert!(
        ack2.server_now_ns >= ack1.server_now_ns,
        "clock ran backwards"
    );
    // A 10 s budget on a loopback microtask is always met; every
    // completion must say so.
    let (acc, rej, met, missed) = drive_client_v2(&endpoint, 0, 200, 1_000, 10_000_000_000);
    assert_eq!((acc, rej), (200, 0));
    assert_eq!((met, missed), (200, 0), "loose budget missed");
    let report = server.shutdown();
    assert_eq!(report.deadline_met, 200);
    assert_eq!(report.deadline_misses, 0);
    assert_eq!(report.miss_permille, 0);
}

#[test]
fn edf_is_granted_only_where_the_backend_orders_by_key() {
    for backend in Backend::ALL {
        let server = ephemeral(backend, 2, 1024);
        let (_client, ack) = ServeClient::connect_v2(server.endpoint()).expect("connect v2");
        assert_eq!(ack.version, PROTO_V2, "backend {backend:?}");
        // dcbo is a FIFO: it runs arrival order whatever the key, so it
        // must not tell the client that deadlines steer scheduling.
        let want = match backend {
            Backend::MqSkiplist | Backend::MqMutexHeap => FEAT_EDF,
            Backend::DcboSegring => 0,
        };
        assert_eq!(ack.features, want, "backend {backend:?}");
        // Granted or not, v2 submits complete with a verdict each.
        let (acc, rej, met, missed) =
            drive_client_v2(server.endpoint(), 0, 100, 1_000, 10_000_000_000);
        assert_eq!((acc, rej, met, missed), (100, 0, 100, 0), "{backend:?}");
        server.shutdown();
    }
}

#[test]
fn backend_names_round_trip_and_the_removed_one_is_refused() {
    for backend in Backend::ALL {
        assert_eq!(backend.name().parse::<Backend>(), Ok(backend));
    }
    let names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(names, ["mq", "mq-mutex", "dcbo"]);
    let err = "bucket".parse::<Backend>().unwrap_err();
    assert_eq!(
        err,
        "unknown backend \"bucket\" (expected mq, mq-mutex or dcbo)"
    );
}

#[test]
fn v1_client_negotiates_down_and_interoperates() {
    let server = ephemeral(Backend::MqSkiplist, 2, 1024);
    // A v1 client that *does* handshake gets v1 back and no features.
    let mut client = ServeClient::connect(server.endpoint()).expect("connect");
    let ack = client.handshake(PROTO_V1, FEAT_EDF).expect("v1 handshake");
    assert_eq!(ack.version, PROTO_V1, "server upgraded a v1 client");
    assert_eq!(ack.features, 0, "features granted below v2");
    drop(client);
    // A v1 client that never says Hello still works verbatim — the
    // whole pre-handshake protocol is the v1 protocol.
    let (acc, rej) = drive_client(server.endpoint(), 0, 100, 1_000);
    assert_eq!((acc, rej), (100, 0));
    let report = server.shutdown();
    assert_eq!(report.completed, 100);
    // v1 traffic carries no deadlines: no verdicts were recorded.
    assert_eq!(report.deadline_met + report.deadline_misses, 0);
}

#[test]
fn unknown_version_hello_is_rejected_and_closed() {
    let server = ephemeral(Backend::MqSkiplist, 1, 64);
    let mut client = ServeClient::connect(server.endpoint()).expect("connect");
    client
        .send(&Request::Hello(rsched_serve::Hello {
            version: 0,
            features: 0,
        }))
        .unwrap();
    match client.recv().unwrap() {
        Some(Response::Rejected { req_id: 0, code }) => {
            assert_eq!(code, RejectCode::BadVersion);
        }
        other => panic!("expected BadVersion reject, got {other:?}"),
    }
    assert_eq!(
        client.recv().unwrap(),
        None,
        "connection open after bad Hello"
    );
    server.shutdown();
}

#[test]
fn submit_v2_without_handshake_is_rejected_and_closed() {
    let server = ephemeral(Backend::MqSkiplist, 1, 64);
    let mut client = ServeClient::connect(server.endpoint()).expect("connect");
    client
        .send(&Request::SubmitV2(SubmitV2 {
            req_id: 7,
            deadline: 1_000_000,
            work_ns: 0,
            absolute: false,
        }))
        .unwrap();
    match client.recv().unwrap() {
        Some(Response::Rejected { req_id: 7, code }) => {
            assert_eq!(code, RejectCode::BadVersion);
        }
        other => panic!("expected BadVersion reject, got {other:?}"),
    }
    assert_eq!(
        client.recv().unwrap(),
        None,
        "connection open after v2-on-v1"
    );
    let report = server.shutdown();
    // The protocol error left no trace in admission accounting.
    assert_eq!(report.submitted, 0);
    assert_eq!(report.rejected, 0);
}

#[test]
fn mixed_version_concurrent_clients_conserve() {
    for backend in Backend::ALL {
        let per_client = (300 * stress_mult()) as u64;
        let server = ephemeral(backend, 2, 100_000);
        let endpoint = server.endpoint().clone();
        let v2_verdicts = AtomicU64::new(0);
        std::thread::scope(|scope| {
            // Two v1 clients and two v2-EDF clients share the server.
            for c in 0..2u64 {
                let endpoint = &endpoint;
                scope.spawn(move || {
                    let (acc, rej) = drive_client(endpoint, c * 1_000_000, per_client, 1_000);
                    assert_eq!((acc, rej), (per_client, 0), "v1 client starved");
                });
            }
            for c in 2..4u64 {
                let endpoint = &endpoint;
                let v2_verdicts = &v2_verdicts;
                scope.spawn(move || {
                    let (acc, rej, met, missed) =
                        drive_client_v2(endpoint, c * 1_000_000, per_client, 1_000, 10_000_000_000);
                    assert_eq!((acc, rej), (per_client, 0), "v2 client starved");
                    v2_verdicts.fetch_add(met + missed, Ordering::Relaxed);
                });
            }
        });
        let report = server.shutdown();
        let expect = 4 * per_client;
        assert_eq!(report.submitted, expect, "backend {backend:?}");
        assert_eq!(report.completed, expect, "backend {backend:?}");
        // Exactly the v2 half carried deadlines; v1 completions record
        // no verdict.
        assert_eq!(
            report.deadline_met + report.deadline_misses,
            2 * per_client,
            "backend {backend:?}"
        );
        assert_eq!(v2_verdicts.load(Ordering::Relaxed), 2 * per_client);
    }
}

#[test]
fn rejection_is_side_effect_free_for_deadline_accounting() {
    // A v2 burst into a cap-4 queue with slow (1 ms) work draws
    // rejections. Rejected submits must leave no trace in the deadline
    // ledger: verdicts are recorded at completion only, so
    // met + missed == completed == accepted exactly.
    let server = ephemeral(Backend::MqSkiplist, 1, 4);
    let n = 200u64;
    let (accepted, rejected, met, missed) =
        drive_client_v2(server.endpoint(), 0, n, 1_000_000, 5_000_000);
    assert!(
        rejected > 0,
        "burst of {n} into cap 4 never tripped admission"
    );
    let report = server.shutdown();
    assert_eq!(report.accepted, accepted);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.completed, accepted);
    assert_eq!(
        report.deadline_met + report.deadline_misses,
        accepted,
        "rejected submits leaked into the deadline ledger"
    );
    assert_eq!((report.deadline_met, report.deadline_misses), (met, missed));
}
