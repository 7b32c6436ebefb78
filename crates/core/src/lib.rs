//! # rsched-core — the relaxed-scheduling model
//!
//! This crate implements the analytical model of Alistarh, Koval and
//! Nadiradze, *"Efficiency Guarantees for Parallel Incremental Algorithms
//! under Relaxed Schedulers"* (SPAA 2019):
//!
//! * [`executor`] — the paper's Section 3 framework: the
//!   [`IncrementalAlgorithm`] trait
//!   (tasks with labels, dependency checks, state updates), the exact
//!   executor (Algorithm 1) and the relaxed executor (Algorithm 2) with
//!   *extra-step* accounting — the paper's measure of wasted work;
//! * [`adversary`] — a `k`-relaxed scheduler that is **adversarial** up to
//!   the RankBound and Fairness constraints of Section 2, with pluggable
//!   strategies (always-worst-rank, random-in-window, maximal-inversion,
//!   and caller-supplied dependency-aware adversaries);
//! * [`transactional`] — the Section 4 model: tasks run as transactions
//!   with bounded interval contention `C`; a transaction aborts iff it runs
//!   concurrently with a transaction it depends on; abort counts are the
//!   wasted work;
//! * [`theory`] — the closed-form bounds of Theorems 3.3, 4.3, 5.1 and 6.1,
//!   used by the benchmark harness to print paper-vs-measured comparisons;
//! * [`parallel`] — the concurrent iterative execution model
//!   ([`ConcurrentIncremental`], [`run_relaxed_parallel`]), hosted on the
//!   shared `rsched-runtime` worker pool, which owns termination
//!   detection.

pub mod adversary;
pub mod executor;
pub mod parallel;
pub mod theory;
pub mod transactional;

pub use adversary::{AdversarialScheduler, AdversaryStrategy};
pub use executor::{
    run_exact, run_relaxed, run_relaxed_traced, run_relaxed_with, ExecStats, IncrementalAlgorithm,
    TraceEntry,
};
pub use parallel::{run_relaxed_parallel, ConcurrentIncremental, ParExecStats};
pub use transactional::{run_transactional, TxConfig, TxStats, TxStrategy};
