//! The shipped `rsched-serve` binary, booted as a process: it must come
//! up on an ephemeral port, serve v2 + EDF traffic with exact
//! conservation, print its final counters on a timed exit, and refuse
//! an unknown backend with exit code 2.

use rsched_serve::{Endpoint, Request, Response, ServeClient, SubmitV2, FEAT_EDF, PROTO_V2};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const DAEMON: &str = env!("CARGO_BIN_EXE_rsched-serve");

/// Kills the daemon if the test fails before it exits on its own.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn daemon_serves_edf_traffic_and_reports_conservation_on_exit() {
    let refused = Command::new(DAEMON)
        .env("RSCHED_SERVE_ADDR", "tcp:127.0.0.1:0")
        .env("RSCHED_SERVE_BACKEND", "bucket")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run daemon");
    assert_eq!(refused.code(), Some(2), "unknown backend not refused");

    let mut daemon = Reap(
        Command::new(DAEMON)
            .env("RSCHED_SERVE_ADDR", "tcp:127.0.0.1:0")
            .env("RSCHED_SERVE_BACKEND", "mq")
            .env("RSCHED_SERVE_LIFETIME_S", "3")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon"),
    );
    let mut lines = BufReader::new(daemon.0.stdout.take().expect("piped stdout")).lines();
    let mut next_line = || lines.next().expect("daemon stdout closed").expect("read");
    let first = next_line();
    let addr = first
        .strip_prefix("rsched-serve listening on ")
        .unwrap_or_else(|| panic!("no readiness line, got {first:?}"));
    let endpoint = Endpoint::parse(addr).expect("endpoint");

    let mut client = ServeClient::connect(&endpoint).expect("connect");
    let ack = client.handshake(PROTO_V2, FEAT_EDF).expect("handshake");
    assert_eq!((ack.version, ack.features), (PROTO_V2, FEAT_EDF));
    let (mut tx, mut rx) = client.split();
    let n = 200u64;
    let sender = std::thread::spawn(move || {
        for req_id in 0..n {
            tx.send(&Request::SubmitV2(SubmitV2 {
                req_id,
                deadline: 10_000_000_000,
                work_ns: 10_000,
                absolute: false,
            }))
            .expect("send submit v2");
        }
        tx.send(&Request::Drain).expect("send drain");
    });
    let (mut accepted, mut completed) = (HashSet::new(), HashSet::new());
    let drained = loop {
        match rx.recv().expect("recv") {
            Some(Response::Accepted { req_id }) => assert!(accepted.insert(req_id)),
            Some(Response::CompletedV2(c)) => {
                assert!(accepted.contains(&c.req_id), "Completed before Accepted");
                assert!(completed.insert(c.req_id), "double Completed");
                assert!(c.met, "a 10 s budget missed");
            }
            Some(Response::Drained { completed: c }) => break c,
            other => panic!("unexpected response {other:?}"),
        }
    };
    sender.join().expect("sender");
    assert_eq!(accepted.len() as u64, n);
    assert_eq!(completed, accepted);
    assert_eq!(drained, n);

    let done = loop {
        let line = next_line();
        if line.starts_with("rsched-serve done ") {
            break line;
        }
    };
    for field in [
        "submitted=200",
        "accepted=200",
        "rejected=0",
        "completed=200",
    ] {
        assert!(
            done.split_whitespace().any(|w| w == field),
            "{field} missing from {done:?}"
        );
    }
    let status = daemon.0.wait().expect("wait daemon");
    assert!(status.success(), "daemon exited with {status}");
}
