//! # rsched-algos — incremental algorithms under relaxed scheduling
//!
//! The algorithms the SPAA 2019 paper analyses, implemented against the
//! `rsched-core` execution model and the `rsched-queues` schedulers:
//!
//! * [`bst_sort`] — **comparison sorting by BST insertion** (Section 3): the
//!   sequential algorithm inserts keys into a binary search tree in random
//!   label order; a task depends on its ancestors in the resulting treap.
//!   Theorem 3.3 bounds relaxed extra steps by `O(poly(k) log n)`, and
//!   Theorem 5.1 gives the matching `Ω(log n)` MultiQueue lower bound.
//! * [`delaunay`] — **Delaunay mesh triangulation** (Section 3): tasks are
//!   point insertions, dependencies are overlapping encroaching regions,
//!   realized via the conflict-list oracle in `rsched-geometry`.
//! * [`sssp`] — **single-source shortest paths** (Section 6, Algorithm 3):
//!   a sequential-model variant against any relaxed queue (Theorem 6.1's
//!   pop bound) and a truly concurrent variant over the lock-based
//!   MultiQueue (the Section 7 experiments), plus the DecreaseKey ablation.
//! * [`bfs`] — concurrent **unweighted BFS** over a relaxed FIFO (d-CBO)
//!   frontier, driven by the `rsched-runtime` worker pool: the layering is
//!   exactly the sequential BFS's, and the relaxation only shows up as
//!   wasted re-expansions and frontier rank errors.
//! * [`kcore`] — greedy **k-core peeling** over the relaxed FIFO work
//!   queue: deletion order is confluent, so the relaxed result equals the
//!   sequential k-core exactly.
//! * [`label_prop`] — **connected components by min-label propagation**
//!   over the keyed MultiQueue: another confluent fixed point, run
//!   min-label-first.
//!
//! Concurrent SSSP, BFS and label propagation are one monotone
//! relaxation `d[u] ← min(d[u], step(d[v], w))` with steps `d + w`,
//! `d + 1` and `d`; they share one private task handler and return one
//! stats type ([`ParSsspStats`]).
//! * [`branch_bound`] — best-first **branch-and-bound** (0/1 knapsack)
//!   under relaxed scheduling: the Karp–Zhang parallel-backtracking setting
//!   the paper's introduction traces the whole approach to, with *dynamic*
//!   task creation.
//! * [`mis`] / [`coloring`] — greedy **maximal independent set** and
//!   **graph coloring**, the fixed-task iterative algorithms of the
//!   companion paper (Alistarh et al., PODC 2018) that this paper extends;
//!   included as the natural regression baselines and for the "high fanout"
//!   worst-case example the introduction discusses.

pub mod bfs;
pub mod branch_bound;
pub mod bst_sort;
pub mod coloring;
pub mod concurrent;
pub mod delaunay;
pub mod delta_par;
pub mod kcore;
pub mod label_prop;
pub mod mis;
mod relax;
pub mod sssp;

pub use bfs::parallel_bfs;
pub use branch_bound::{BnbStats, Knapsack};
pub use bst_sort::BstSort;
pub use coloring::GreedyColoring;
pub use concurrent::{ConcurrentBstSort, ConcurrentColoring, ConcurrentMis};
pub use delaunay::DelaunayIncremental;
pub use delta_par::{parallel_delta_stepping, ParDeltaStats};
pub use kcore::{kcore_sequential, parallel_kcore, KcoreStats};
pub use label_prop::{label_components, parallel_label_propagation};
pub use mis::GreedyMis;
pub use sssp::{
    parallel_sssp, parallel_sssp_duplicates, relaxed_sssp_seq, ParSsspConfig, ParSsspStats,
    SeqSsspStats,
};
