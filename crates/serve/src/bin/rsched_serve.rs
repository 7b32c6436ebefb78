//! The serving daemon: bind, serve until told to stop, drain, report.
//!
//! Configuration is entirely by environment, matching the repo's bench
//! conventions:
//!
//! | knob | default | meaning |
//! |---|---|---|
//! | `RSCHED_SERVE_ADDR` | `tcp:127.0.0.1:7411` | `tcp:host:port` or `unix:/path` |
//! | `RSCHED_SERVE_BACKEND` | `mq` | `mq` or `dcbo` (`dcbo` is arrival-order: it grants no `FEAT_EDF`) |
//! | `RSCHED_SERVE_THREADS` | `2` | worker threads |
//! | `RSCHED_SERVE_CAP` | `4096` | admission bound (in-flight tasks) |
//! | `RSCHED_SERVE_LIFETIME_S` | unset | exit after this many seconds (tests, scripted runs); unset = run until SIGTERM/SIGINT kills the process |
//!
//! On start the daemon prints `rsched-serve listening on <endpoint>`
//! so harnesses can wait for readiness, and on a timed exit it prints
//! the final conservation counters and sojourn quantiles.

use rsched_serve::{Backend, Endpoint, ServeConfig, Server};
use std::str::FromStr;
use std::time::Duration;

/// A numeric knob from the environment, falling back to `default` when
/// unset or unparsable — a typo'd knob degrades to the documented
/// default instead of aborting a long benchmark run.
fn env_or<T: FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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
        Err(_) => ServeConfig::default().backend,
    };
    let cfg = ServeConfig {
        endpoint,
        backend,
        threads: env_or("RSCHED_SERVE_THREADS", 2usize).max(1),
        queue_cap: env_or("RSCHED_SERVE_CAP", 4096usize).max(1),
        ..ServeConfig::default()
    };
    let lifetime_s = env_or("RSCHED_SERVE_LIFETIME_S", 0.0f64);

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

#[cfg(test)]
mod tests {
    use super::env_or;

    // Process-global env mutation: each test uses its own unique key so
    // parallel test threads cannot interfere.

    #[test]
    fn usize_knob_defaults_and_parses() {
        assert_eq!(env_or("RSCHED_ENV_TEST_UNSET_A", 7usize), 7);
        std::env::set_var("RSCHED_ENV_TEST_A", "42");
        assert_eq!(env_or("RSCHED_ENV_TEST_A", 7usize), 42);
        std::env::set_var("RSCHED_ENV_TEST_A", "nope");
        assert_eq!(env_or("RSCHED_ENV_TEST_A", 7usize), 7);
        std::env::remove_var("RSCHED_ENV_TEST_A");
    }

    #[test]
    fn float_knob_defaults_and_parses() {
        assert!((env_or("RSCHED_ENV_TEST_UNSET_D", 0.4f64) - 0.4).abs() < 1e-12);
        std::env::set_var("RSCHED_ENV_TEST_D", "0.25");
        assert!((env_or("RSCHED_ENV_TEST_D", 0.4f64) - 0.25).abs() < 1e-12);
        std::env::remove_var("RSCHED_ENV_TEST_D");
    }
}
