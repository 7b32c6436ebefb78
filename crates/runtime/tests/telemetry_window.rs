//! `run()`'s telemetry window is exact: `run` resets the process-global
//! telemetry before seeding, its workers fold their thread-local
//! recorders in as they exit, so a `telemetry::capture()` right after
//! the call describes that run and nothing else. With `spawn_batch` 1
//! there is no deletion buffer, so every pop records exactly one
//! steal-or-sweep observation and every pop miss one empty pop.
//!
//! Lives in its own integration-test binary on purpose: telemetry state
//! is process-global, so no other `run` may share the window.

use rsched_queues::telemetry;
use rsched_queues::{DCboQueue, QueueBuilder};
use rsched_runtime::{run, PoolStats, RuntimeConfig, Scheduler, TaskOutcome};

fn stress() -> u64 {
    std::env::var("RSCHED_STRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// A countdown over `queue`: 500 seeds, each spawning a chain of 3.
fn countdown<S: Scheduler<u64> + ?Sized>(queue: &S, threads: usize, seed: u64) -> PoolStats {
    run(
        queue,
        RuntimeConfig {
            threads,
            seed,
            ..RuntimeConfig::default()
        },
        (0..500usize).map(|i| (i, 3u64)),
        |w, item, depth| {
            if depth > 0 {
                w.spawn(item + 1000 * depth as usize, depth - 1);
            }
            TaskOutcome::Executed
        },
    )
}

fn assert_window_matches(queue: &str, threads: usize, trial: u64, stats: &PoolStats) {
    let snap = telemetry::capture();
    assert_eq!(stats.total.executed, 2000, "{queue} lost tasks");
    assert_eq!(
        snap.steal.count + snap.sweep.count,
        stats.total.pops,
        "{queue}, {threads} threads, trial {trial}: steal + sweep observations vs pops"
    );
    assert_eq!(
        snap.empty_pops, stats.total.pop_misses,
        "{queue}, {threads} threads, trial {trial}: empty pops vs pop misses"
    );
}

#[test]
fn capture_after_run_equals_the_runs_stats() {
    for threads in [2usize, 8] {
        for trial in 0..10 * stress() {
            let mq = QueueBuilder::new(2 * threads)
                .universe(4000)
                .multiqueue::<u64>();
            let stats = countdown(&mq, threads, trial);
            assert_window_matches("multiqueue", threads, trial, &stats);

            let fifo: DCboQueue<(usize, u64)> = QueueBuilder::new(2 * threads).seed(trial).d_cbo();
            let stats = countdown(&fifo, threads, trial);
            assert_window_matches("d-cbo", threads, trial, &stats);
        }
    }
}
