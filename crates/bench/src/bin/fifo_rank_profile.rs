//! **FIFO-RANK** — ops-and-prefill sweep of d-CBO rank errors.
//!
//! The relaxed-FIFO analogue of `rank_profile`, following the methodology
//! of the choice-of-two relaxation simulations (SNIPPETS.md §3): prefill
//! the queue with `prefill` items, run `ops` mixed operations (alternating
//! enqueue/dequeue so the fill level stays near the prefill), and record
//! the empirical rank-error distribution per `(subqueues, prefill, ops)`
//! cell. Results print as one JSON object per line (prefixed
//! `json,`) so the perf trajectory can be collected with `grep '^json,'`.
//!
//! ```text
//! cargo run -p rsched-bench --release --bin fifo_rank_profile
//! RSCHED_SCALE=medium cargo run -p rsched-bench --release --bin fifo_rank_profile
//! ```

use rsched_bench::Scale;
use rsched_queues::fifo::{FifoRankStats, FifoRankTracker, RelaxedFifo};
use rsched_queues::QueueBuilder;
use std::time::Instant;

/// Prefill, then run `ops` alternating enqueue/dequeue operations.
fn sweep<Q: RelaxedFifo<(u64, u64)>>(queue: Q, prefill: usize, ops: usize) -> (FifoRankStats, f64) {
    let mut q = FifoRankTracker::new(queue);
    let mut next = 0u64;
    for _ in 0..prefill {
        q.enqueue(next);
        next += 1;
    }
    let start = Instant::now();
    for op in 0..ops {
        if op % 2 == 0 {
            q.enqueue(next);
            next += 1;
        } else {
            let _ = q.dequeue();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    while q.dequeue().is_some() {}
    (q.into_parts().1, wall)
}

fn main() {
    let scale = Scale::from_env();
    let (ops_list, prefill_list): (&[usize], &[usize]) = match scale {
        Scale::Small => (&[10_000, 50_000], &[100, 1_000, 10_000]),
        _ => (
            &[100_000, 500_000, 1_000_000],
            &[100, 1_000, 10_000, 100_000],
        ),
    };
    let subqueues = [2usize, 4, 8, 16, 32];
    println!("== d-CBO FIFO rank-error sweep (scale {scale:?}) ==");
    for &q in &subqueues {
        for &prefill in prefill_list {
            for &ops in ops_list {
                let (s, wall) = sweep(QueueBuilder::new(q).seed(7).d_cbo(), prefill, ops);
                println!(
                    "json,{{\"queue\":\"d-cbo\",\"subqueues\":{q},\"prefill\":{prefill},\
                     \"ops\":{ops},\"dequeues\":{},\"mean_error\":{:.4},\"p99_error\":{},\
                     \"max_error\":{},\"exact_fraction\":{:.4},\"ops_wall_s\":{wall:.6}}}",
                    s.dequeues,
                    s.mean_error(),
                    s.error_quantile(0.99),
                    s.max_error,
                    s.exact_fraction(),
                );
            }
        }
    }
}
