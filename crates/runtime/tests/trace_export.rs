//! The flight recorder's Chrome-trace export, checked on a real `run()`.
//!
//! Lives in its own integration-test binary on purpose: the trace gate
//! and the lane registry are process-global.

use rsched_queues::trace::{self, EventKind};
use rsched_queues::QueueBuilder;
use rsched_runtime::{run, RuntimeConfig, TaskOutcome};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// `(ph, tid, ts in ns)` of every B/E/i event in a Chrome-trace export,
/// in file order. Events are the objects opening with `{"ph":`; their
/// `args` objects never do.
fn timed_events(json: &str) -> Vec<(char, u64, u64)> {
    let field = |ev: &str, key: &str| -> String {
        let at = ev
            .find(key)
            .unwrap_or_else(|| panic!("{key} missing in {ev}"))
            + key.len();
        ev[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect()
    };
    json.split("{\"ph\":\"")
        .skip(1)
        .filter_map(|ev| {
            let ph = ev.chars().next().expect("empty event");
            (ph != 'M').then(|| {
                let tid = field(ev, "\"tid\":").parse().expect("tid");
                // `ts` is microseconds with exactly three decimals.
                let ts = field(ev, "\"ts\":").replace('.', "").parse().expect("ts");
                (ph, tid, ts)
            })
        })
        .collect()
}

#[test]
fn traced_run_exports_a_well_formed_chrome_trace() {
    let out = std::env::temp_dir().join(format!("rsched-trace-test-{}.json", std::process::id()));
    std::env::set_var("RSCHED_TRACE_OUT", &out);
    trace::set_enabled(true);
    let threads = 4;
    let queue = QueueBuilder::new(2 * threads).multiqueue::<u64>();
    run(
        &queue,
        RuntimeConfig {
            threads,
            seed: 0x7AC3,
            ..RuntimeConfig::default()
        },
        (0..2000).map(|i| (i, 3)),
        |w, item, depth| {
            // A few µs of work per task keeps the run alive until every
            // worker has joined in; a recursive countdown gives the trace
            // inject/pop/complete interleaving and steals.
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(5) {
                std::hint::spin_loop();
            }
            if depth > 0 {
                w.spawn(item, depth - 1);
            }
            TaskOutcome::Executed
        },
    );
    let json = std::fs::read_to_string(&out).expect("run() did not export to RSCHED_TRACE_OUT");
    std::fs::remove_file(&out).expect("removing the exported trace");

    let lanes = trace::snapshot();
    let active = lanes.iter().filter(|l| !l.events.is_empty()).count();
    assert!(active >= 2, "only {active} lanes recorded events");
    for lane in &lanes {
        assert!(
            lane.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "lane {} ({}) went back in time",
            lane.lane,
            lane.label
        );
    }
    let pops = lanes
        .iter()
        .flat_map(|l| &l.events)
        .filter(|e| e.kind == EventKind::TaskPop)
        .count();

    let (mut begins, mut ends) = (0usize, 0usize);
    let mut open: HashMap<u64, bool> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    for (ph, tid, ts) in timed_events(&json) {
        let last = last_ts.entry(tid).or_insert(0);
        assert!(ts >= *last, "tid {tid} went back in time at {ts} ns");
        *last = ts;
        let is_open = open.entry(tid).or_insert(false);
        match ph {
            'B' => {
                assert!(!*is_open, "nested span on tid {tid} at {ts} ns");
                *is_open = true;
                begins += 1;
            }
            'E' => {
                assert!(*is_open, "E without B on tid {tid} at {ts} ns");
                *is_open = false;
                ends += 1;
            }
            _ => {}
        }
    }
    assert_eq!(begins, ends, "unbalanced spans");
    assert!(begins >= 1, "no pop -> complete span survived");
    assert!(
        begins <= pops,
        "more spans ({begins}) than recorded pops ({pops})"
    );
}
