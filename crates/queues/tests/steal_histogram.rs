//! What a steal-histogram value means for a FIFO session: the index of
//! the choice round that won the pop. 0 = the first round won, whether
//! its winner was the home shard or a foreign one; a pop served from
//! the session's deletion buffer records nothing.
//!
//! Lives in its own integration-test binary on purpose: telemetry state
//! is process-global, so the exact-count assertions below must not
//! share a process with other telemetry recorders.

use rsched_queues::telemetry;
use rsched_queues::{PopSource, QueueBuilder, SessionConfig};

#[test]
fn steal_histogram_counts_choice_rounds_of_claiming_pops() {
    // Two shards, one of them home, and a deletion buffer of 8: the
    // unbatched pushes of a second session spread the items over both
    // shards.
    let q = QueueBuilder::new(2).seed(11).d_cbo::<u64>();
    let mut pusher = q.session(&SessionConfig::for_worker(1, 2));
    for i in 0..200 {
        q.push_session(i, &mut pusher);
    }
    let mut s = q.session(&SessionConfig {
        spawn_batch: 64,
        ..SessionConfig::for_worker(0, 2)
    });
    assert_eq!(s.home(), 0);

    telemetry::reset();
    let (mut pops, mut buffered, mut home_claims, mut steal_claims) = (0u64, 0u64, 0u64, 0u64);
    loop {
        // Single-threaded, the length is exact: a pop that leaves it
        // unchanged was served from the deletion buffer.
        let before = q.len();
        let Some((_, src)) = q.pop_session(&mut s) else {
            break;
        };
        pops += 1;
        match (q.len() == before, src) {
            (true, _) => buffered += 1,
            (false, PopSource::Home) => home_claims += 1,
            (false, PopSource::Steal) => steal_claims += 1,
            (false, PopSource::Shared) => panic!("a FIFO session reported Shared"),
        }
    }
    let snap = telemetry::capture();
    assert_eq!(pops, 200, "items lost or duplicated");
    assert!(buffered > 0, "the deletion buffer never served a pop");
    assert!(
        home_claims > 0 && steal_claims > 0,
        "drain never used both shards"
    );
    assert_eq!(
        snap.steal.count,
        pops - buffered,
        "every claiming pop records one round, buffer-served pops none"
    );
    assert!(
        snap.steal.buckets[0] > home_claims,
        "bucket 0 must count steals that won the first round too ({} vs {home_claims} home claims)",
        snap.steal.buckets[0]
    );
}
