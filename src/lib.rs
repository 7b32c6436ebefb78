//! # relaxed-schedulers
//!
//! A from-scratch Rust reproduction of Alistarh, Koval and Nadiradze,
//! *"Efficiency Guarantees for Parallel Incremental Algorithms under Relaxed
//! Schedulers"* (SPAA 2019, arXiv:2003.09363).
//!
//! Incremental algorithms — Dijkstra's SSSP, Delaunay mesh triangulation,
//! sorting by BST insertion — are classically driven by an exact priority
//! queue. Scalable parallel runtimes replace it with a **relaxed** scheduler
//! that may return any of the `k` highest-priority tasks. The paper proves
//! that the wasted work this relaxation causes is small
//! (`O(poly(k) log n)` extra steps for the incremental algorithms,
//! `n + O(k² d_max/w_min)` pops for SSSP) and exhibits an `Ω(log n)` lower
//! bound under the MultiQueue. This workspace implements the schedulers, the
//! model and the algorithms, and `tests/theorems.rs` checks each of those
//! bounds as an executable envelope.
//!
//! ## Crates
//!
//! | crate | contents |
//! |-------|----------|
//! | [`queues`] | indexed 4-ary heap, MultiQueue (sequential + concurrent + duplicate-insertion), SprayList, deterministic rotating k-queue, relaxed FIFO (d-CBO) over `Mutex<VecDeque>` shards locked once per batch, rank/fairness instrumentation plus a concurrent timestamp-based FIFO rank-error estimator |
//! | [`runtime`] | the sharded concurrent scheduling runtime: worker pool, `Scheduler` trait over relaxed queues, quiescence termination detection, per-worker stats, fork-join helper |
//! | [`core`] | the `Q_k` scheduler model, Algorithm 1/2 executors with extra-step accounting, adversarial schedulers, the Section 4 transactional simulator, theorem formulas |
//! | [`graph`] | CSR graphs, random/road/social generators, DIMACS & SNAP loaders, BFS / Dijkstra / Δ-stepping / Bellman–Ford baselines |
//! | [`geometry`] | exact integer predicates, triangle mesh, Bowyer–Watson with conflict lists |
//! | [`algos`] | BST-insertion sorting, Delaunay, relaxed SSSP (sequential-model + concurrent), relaxed-FIFO BFS and min-label connected components (one shared relaxation kernel with concurrent SSSP), k-core peeling, greedy MIS & coloring |
//! | [`serve`] | the open-system serving front-end: length-prefixed binary wire protocol, TCP/Unix-socket connection loop, bounded-queue admission control, graceful drain, per-request sojourn histograms (`rsched-serve` binary) |
//!
//! ## Architecture: one runtime, many orders
//!
//! Every truly concurrent executor is a task handler over the
//! [`runtime`]'s worker pool ([`runtime::run`]): the pool owns the
//! threads, the pop→handle→re-queue loop, quiescence termination
//! detection and per-worker statistics, while the queue behind it decides
//! the scheduling order — relaxed *priority* (`ConcurrentMultiQueue`,
//! `DuplicateMultiQueue`) for SSSP, label propagation and the iterative
//! algorithms, and relaxed *FIFO* (`DCboQueue`) for BFS frontiers and
//! k-core peeling. Each
//! relaxed-FIFO shard is a `Mutex<VecDeque>` and each MultiQueue shard
//! a `Mutex<IndexedBinaryHeap>`; a batched session locks a shard once
//! per published batch and once per claim.
//!
//! Every worker owns a **session** (`Scheduler::Session`, built from the
//! `rsched_queues` worker-session layer): the worker's shard-picker RNG,
//! its *home shard* `tid % shards` (one of the two choices of every FIFO pop),
//! a bounded spawn buffer that
//! publishes batches and a deletion buffer that hands out a claimed
//! shard's successors (both sized by `RuntimeConfig::spawn_batch`). A
//! session is the only way to pop a `ConcurrentMultiQueue`.
//!
//! On top of the pool, [`runtime::service()`] keeps the workers resident
//! between submissions (external injectors + idle parking instead of the
//! run-to-quiescence loop), and the [`serve`] crate exposes that as a
//! long-lived network service: an open system where requests *arrive*
//! over a wire protocol at some rate, wait in the relaxed queue, execute,
//! and report their end-to-end sojourn time — the measurement regime
//! (open-loop arrivals, tail quantiles, admission control) that
//! closed-loop throughput benchmarks cannot express.
//!
//! ## Relaxed-FIFO BFS quickstart
//!
//! ```
//! use relaxed_schedulers::prelude::*;
//!
//! let g = random_gnm(10_000, 100_000, 1..=100, 42);
//!
//! // BFS over a d-CBO relaxed FIFO frontier with 8 shards.
//! let stats = parallel_bfs(&g, 0, ParSsspConfig {
//!     threads: 4,
//!     queue_multiplier: 2,
//!     seed: 7,
//! });
//!
//! // Relaxation reorders expansions but never changes the layering.
//! assert_eq!(stats.dist, bfs(&g, 0));
//! println!("overhead = {:.4}, steals = {}", stats.overhead(), stats.steals);
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use relaxed_schedulers::prelude::*;
//!
//! // A random graph like the paper's (scaled down).
//! let g = random_gnm(10_000, 100_000, 1..=100, 42);
//!
//! // Parallel SSSP via a MultiQueue with 2 queues per thread.
//! let stats = parallel_sssp(&g, 0, ParSsspConfig {
//!     threads: 4,
//!     queue_multiplier: 2,
//!     seed: 7,
//! });
//!
//! // Exact on the same graph: the relaxation overhead is executed / n.
//! let exact = dijkstra(&g, 0);
//! assert_eq!(stats.dist, exact.dist);
//! println!("overhead = {:.4}", stats.overhead());
//! ```

pub use rsched_algos as algos;
pub use rsched_core as core;
pub use rsched_geometry as geometry;
pub use rsched_graph as graph;
pub use rsched_queues as queues;
pub use rsched_runtime as runtime;
pub use rsched_serve as serve;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use rsched_algos::{
        kcore_sequential, label_components, parallel_bfs, parallel_delta_stepping, parallel_kcore,
        parallel_label_propagation, parallel_sssp, parallel_sssp_duplicates, relaxed_sssp_seq,
        BnbStats, BstSort, ConcurrentBstSort, ConcurrentColoring, ConcurrentMis,
        DelaunayIncremental, GreedyColoring, GreedyMis, KcoreStats, Knapsack, ParSsspConfig,
        ParSsspStats, SeqSsspStats,
    };
    pub use rsched_core::{
        run_exact, run_relaxed, run_relaxed_parallel, run_relaxed_traced, run_relaxed_with,
        AdversarialScheduler, AdversaryStrategy, ConcurrentIncremental, ExecStats,
        IncrementalAlgorithm, ParExecStats, TraceEntry,
    };
    pub use rsched_core::{run_transactional, TxConfig, TxStats, TxStrategy};
    pub use rsched_geometry::{delaunay, random_points, DelaunayState, Point};
    pub use rsched_graph::gen::{
        bucket_chain, bucket_chain_weights, complete_graph, grid_road, path_graph, power_law,
        random_gnm, rmat, star_graph,
    };
    pub use rsched_graph::{
        bellman_ford, bfs, delta_stepping, dijkstra, CsrGraph, GraphBuilder, SsspResult, Weight,
        INF,
    };
    pub use rsched_queues::{
        ConcurrentMultiQueue, ConcurrentRankEstimator, DCboQueue, DecreaseKey, DuplicateMultiQueue,
        Exact, FifoRankStats, FifoRankTracker, FifoSession, FlushReport, IndexedBinaryHeap,
        MqSession, PopSource, PriorityQueue, PushOutcome, QueueBuilder, RankStats, RankTracker,
        RelaxedFifo, RelaxedQueue, RotatingKQueue, SessionConfig, SessionPush, SimMultiQueue,
        SprayList,
    };
    pub use rsched_runtime::run as run_pool;
    pub use rsched_runtime::{
        map_chunks, ActiveCounter, PoolStats, RuntimeConfig, Scheduler, TaskOutcome, Worker,
        WorkerStats,
    };
}
