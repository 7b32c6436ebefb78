//! The serving daemon: bind, serve until told to stop, drain, report.
//!
//! Configuration is entirely by environment, matching the repo's bench
//! conventions:
//!
//! | knob | default | meaning |
//! |---|---|---|
//! | `RSCHED_SERVE_ADDR` | `tcp:127.0.0.1:7411` | `tcp:host:port` or `unix:/path` |
//! | `RSCHED_SERVE_BACKEND` | `mq` | `mq`, `mq-mutex` or `dcbo` (`dcbo` is arrival-order: it grants no `FEAT_EDF`) |
//! | `RSCHED_SERVE_THREADS` | `2` | worker threads |
//! | `RSCHED_SERVE_CAP` | `4096` | admission bound (in-flight tasks) |
//! | `RSCHED_SERVE_SEED` | `0x5EED5EED` | pool RNG seed |
//! | `RSCHED_SERVE_LIFETIME_S` | unset | exit after this many seconds (CI); unset = run until SIGTERM/SIGINT kills the process |
//!
//! On start the daemon prints `rsched-serve listening on <endpoint>`
//! so harnesses can wait for readiness, and on a timed exit it prints
//! the final conservation counters and sojourn quantiles.

use rsched_runtime::env::{env_f64, env_u64, env_usize};
use rsched_serve::{Backend, Endpoint, ServeConfig, Server};
use std::time::Duration;

fn main() {
    let addr = std::env::var("RSCHED_SERVE_ADDR").unwrap_or_else(|_| "tcp:127.0.0.1:7411".into());
    let endpoint = match Endpoint::parse(&addr) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rsched-serve: bad RSCHED_SERVE_ADDR: {e}");
            std::process::exit(2);
        }
    };
    let backend = match std::env::var("RSCHED_SERVE_BACKEND") {
        Ok(s) => match s.parse::<Backend>() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("rsched-serve: bad RSCHED_SERVE_BACKEND: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => Backend::MqSkiplist,
    };
    let cfg = ServeConfig {
        endpoint,
        backend,
        threads: env_usize("RSCHED_SERVE_THREADS", 2).max(1),
        queue_cap: env_usize("RSCHED_SERVE_CAP", 4096).max(1),
        seed: env_u64("RSCHED_SERVE_SEED", 0x5EED_5EED),
    };
    let lifetime_s = env_f64("RSCHED_SERVE_LIFETIME_S", 0.0);

    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rsched-serve: failed to start on {}: {e}", cfg.endpoint);
            std::process::exit(1);
        }
    };
    println!("rsched-serve listening on {}", server.endpoint());
    println!(
        "rsched-serve config backend={} threads={} cap={}",
        cfg.backend.name(),
        cfg.threads,
        cfg.queue_cap
    );

    if lifetime_s > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(lifetime_s));
        let report = server.shutdown();
        println!(
            "rsched-serve done submitted={} accepted={} rejected={} completed={} \
             sojourn_p50_ns={} sojourn_p99_ns={} sojourn_p999_ns={} inject_p99_ns={} \
             deadline_met={} deadline_misses={} miss_permille={} tardiness_p99_ns={}",
            report.submitted,
            report.accepted,
            report.rejected,
            report.completed,
            report.sojourn_p50,
            report.sojourn_p99,
            report.sojourn_p999,
            report.inject_p99,
            report.deadline_met,
            report.deadline_misses,
            report.miss_permille,
            report.tardiness_p99,
        );
    } else {
        // Run until the process is killed; the OS reclaims everything.
        // Clients that care about conservation issue Drain first.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
