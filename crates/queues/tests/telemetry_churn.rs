//! Drop-flush under thread churn: telemetry recorded by short-lived
//! threads must land in the global state exactly once, even while other
//! threads are concurrently capturing snapshots.
//!
//! Worker telemetry lives in a thread-local [`OpRecorder`] that folds
//! into the process-global state from its TLS destructor. This test
//! hammers exactly that edge: rounds of threads that each record a
//! handful of events and immediately exit, racing a poller that calls
//! [`capture`] the whole time. Lost flushes would undercount; a
//! double-flush (destructor + explicit) would overcount; both are exact
//! equality failures at the end.
//!
//! Lives in its own integration-test binary on purpose: telemetry state
//! is process-global, and sharing a process with other telemetry tests
//! would make exact-count assertions racy.

use rsched_queues::telemetry::{self, OpCount, OpHist};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

#[test]
fn drop_flush_survives_thread_churn_under_concurrent_capture() {
    telemetry::reset();

    const ROUNDS: usize = 20;
    const THREADS: usize = 8;
    const EVENTS: u64 = 50;

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The antagonist: captures (which flush *this* thread's local
        // state and read the globals) as fast as it can, all run long.
        // Snapshots taken mid-churn must be monotone in event count —
        // a dip would mean a flush was observed twice or torn.
        let poller = scope.spawn(|| {
            let mut last = 0u64;
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = telemetry::capture();
                let seen = snap.tick.count;
                assert!(
                    seen >= last,
                    "global event count went backwards: {seen} < {last}"
                );
                last = seen;
                polls += 1;
            }
            polls
        });

        for round in 0..ROUNDS {
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|inner| {
                for t in 0..THREADS {
                    let barrier = &barrier;
                    inner.spawn(move || {
                        // Line the spawn/record/exit windows up so the
                        // TLS destructors of a whole round race each
                        // other and the poller.
                        barrier.wait();
                        for i in 0..EVENTS {
                            telemetry::record(OpHist::Tick, (round * THREADS + t) as u64 + i);
                            telemetry::count(OpCount::EmptyPop, 1);
                        }
                        // No explicit flush: the TLS destructor is the
                        // path under test.
                    });
                }
            });
        }

        stop.store(true, Ordering::Relaxed);
        let polls = poller.join().expect("poller panicked");
        assert!(polls > 0, "poller never ran");
    });

    // Every churned thread has exited and its destructor has run
    // (scoped threads join before the scope returns): totals are exact.
    let expected = (ROUNDS * THREADS) as u64 * EVENTS;
    let snap = telemetry::capture();
    assert_eq!(
        snap.tick.count, expected,
        "tick events lost or double-counted across {ROUNDS} rounds of churn"
    );
    assert_eq!(
        snap.tick.buckets.iter().sum::<u64>(),
        expected,
        "bucket totals disagree with count"
    );
    assert_eq!(
        snap.empty_pops, expected,
        "counter events lost or double-counted"
    );
}
