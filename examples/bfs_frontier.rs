//! Relaxed-FIFO BFS: run the runtime-backed concurrent BFS over a d-CBO
//! frontier on a random graph, verify the layering against exact BFS, and
//! show the two costs of relaxation side by side:
//!
//! * **executed overhead** — vertices expanded more than once because a
//!   provisional (too deep) hop count was popped before the true one;
//! * **frontier rank errors** — how far from global FIFO order the d-CBO
//!   frontier actually dequeues, measured with the sequential rank-error
//!   instrumentation on the same shard counts.
//!
//! The `home` and `steals` columns come from the stats every relaxation
//! run returns (`ParSsspStats`, shared with SSSP and label propagation):
//! pops the worker's own d-CBO shard won against pops taken from a
//! foreign shard.
//!
//! ```text
//! cargo run --release --example bfs_frontier
//! ```

use relaxed_schedulers::prelude::*;

/// Sequential rank-error profile of a relaxed FIFO on a drain workload.
fn fifo_profile<Q: RelaxedFifo<(u64, usize)>>(queue: Q, n: usize) -> FifoRankStats {
    let mut q = FifoRankTracker::new(queue);
    for i in 0..n {
        q.enqueue(i);
    }
    while q.dequeue().is_some() {}
    q.into_parts().1
}

fn main() {
    let n = 200_000;
    let m = 1_000_000;
    println!("generating G({n}, {m}) ...");
    let g = random_gnm(n, m, 1..=100, 42);

    // Exact baseline: every reachable vertex expanded exactly once.
    let exact = bfs(&g, 0);
    let reachable = exact.iter().filter(|&&d| d != INF).count();
    let depth = exact
        .iter()
        .filter(|&&d| d != INF)
        .max()
        .copied()
        .unwrap_or(0);
    println!("exact BFS: {reachable} reachable vertices, depth {depth}\n");

    let available = std::thread::available_parallelism().map_or(4, |p| p.get());
    println!(
        "{:>8} {:>8} {:>10} {:>8} {:>9} {:>8} {:>8} {:>10}",
        "threads", "shards", "executed", "stale", "overhead", "home", "steals", "time"
    );
    for threads in [1, 2, 4, available.min(8)] {
        let stats = parallel_bfs(
            &g,
            0,
            ParSsspConfig {
                threads,
                queue_multiplier: 2,
                seed: 7,
            },
        );
        assert_eq!(stats.dist, exact, "relaxed-FIFO BFS must stay exact");
        println!(
            "{:>8} {:>8} {:>10} {:>8} {:>8.4}x {:>8} {:>8} {:>9.1?}",
            threads,
            2 * threads,
            stats.executed,
            stats.stale,
            stats.overhead(),
            stats.home_hits,
            stats.steals,
            stats.wall
        );
    }
    println!("\ndistances verified identical to exact BFS ✓");

    // Why does the relaxed frontier stay nearly exact? Because choice-of-two
    // keeps FIFO rank errors around the shard count. Profile the frontier
    // structure itself on a drain of `reachable` items.
    println!("\nd-CBO frontier rank errors (sequential profile, {reachable} items):");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "shards", "mean_err", "p99_err", "max_err"
    );
    for shards in [4usize, 8, 16] {
        let s = fifo_profile(QueueBuilder::new(shards).seed(7).d_cbo(), reachable);
        println!(
            "{:>8} {:>10.2} {:>10} {:>10}",
            shards,
            s.mean_error(),
            s.error_quantile(0.99),
            s.max_error
        );
    }
}
