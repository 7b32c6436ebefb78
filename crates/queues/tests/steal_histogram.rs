//! The steal histogram separates locality from stealing: in a FIFO
//! session that owns home shards, bucket 0 of `OpHist::Steal` holds the
//! home-shard hits and nothing else, because a steal that wins its
//! first choice round records 1, not 0.
//!
//! Lives in its own integration-test binary on purpose: telemetry state
//! is process-global, so the exact-count assertions below must not
//! share a process with other telemetry recorders.

use rsched_queues::telemetry;
use rsched_queues::{PopSource, QueueBuilder, SessionConfig};

#[test]
fn steal_histogram_bucket_zero_counts_only_home_hits() {
    telemetry::set_enabled(true);
    // Two shards, one of them home: unbatched pushes spread the items
    // over both, so the drain takes the home shard's items in the home
    // phase and steals the rest.
    let cfg = SessionConfig {
        shards_per_worker: 1,
        ..SessionConfig::for_worker(0, 2)
    };
    let q = QueueBuilder::new(2).seed(11).d_cbo::<u64>();
    let mut s = q.session(&cfg);
    assert_eq!(s.homes(), &[0]);
    for i in 0..200 {
        q.push_session(i, &mut s);
    }

    telemetry::reset();
    let (mut homes, mut steals) = (0u64, 0u64);
    while let Some((_, src)) = q.pop_session(&mut s) {
        match src {
            PopSource::Home => homes += 1,
            PopSource::Steal => steals += 1,
            PopSource::Shared => panic!("a session with homes reported Shared"),
        }
    }
    let snap = telemetry::capture();
    assert_eq!(homes + steals, 200, "items lost or duplicated");
    assert!(homes > 0 && steals > 0, "drain never used both shards");
    assert_eq!(
        snap.steal.buckets[0], homes,
        "bucket 0 of the steal histogram must count home hits only"
    );
}
