//! Delaunay mesh triangulation as an incremental algorithm (Section 3).
//!
//! Tasks are point insertions; task labels follow a random permutation of
//! the input points (the classic randomized incremental construction).
//! Task `v` depends on task `u < v` when their *encroaching regions*
//! (cavities) overlap — realized here through the Clarkson–Shor conflict
//! lists of `rsched-geometry`: `v` must wait while any pending point with a
//! smaller label is located inside `v`'s cavity. Blelloch et al. (SPAA
//! 2016) prove this dependency structure has the `p_{ij} ≤ O(1/i)`
//! properties that Theorem 3.3 needs, and `p_{i,i+1} ≥ 1/i` for the
//! Theorem 5.1 lower bound.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rsched_core::IncrementalAlgorithm;
use rsched_geometry::{random_points, DelaunayState, Point};

/// Delaunay triangulation as a schedulable incremental algorithm.
///
/// Point id equals task label: the permutation is applied to the point
/// array at construction.
///
/// # Examples
///
/// ```
/// use rsched_algos::DelaunayIncremental;
/// use rsched_core::run_relaxed;
/// use rsched_queues::SimMultiQueue;
///
/// let mut alg = DelaunayIncremental::random(200, 1 << 14, 42);
/// let stats = run_relaxed(&mut alg, &mut SimMultiQueue::new(8, 1));
/// assert_eq!(stats.processed, 200);
/// assert_eq!(alg.state().mesh().num_alive(), 2 * 200 + 1);
/// ```
pub struct DelaunayIncremental {
    state: DelaunayState,
}

impl DelaunayIncremental {
    /// `n` random points on `[0, extent)²`, randomly relabelled with the
    /// same seed (the random insertion order of the randomized incremental
    /// algorithm).
    pub fn random(n: usize, extent: i64, seed: u64) -> Self {
        let mut pts = random_points(n, extent, seed);
        // `random_points` output is i.i.d. uniform, but shuffle anyway so an
        // explicit point set passed through `from_points` gets the same
        // treatment.
        pts.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x0D1A_C0DE));
        Self::from_points(pts)
    }

    /// Use `points` as-is: index = label = insertion priority.
    pub fn from_points(points: Vec<Point>) -> Self {
        DelaunayIncremental {
            state: DelaunayState::new(points),
        }
    }

    /// The underlying triangulation state.
    pub fn state(&self) -> &DelaunayState {
        &self.state
    }

    /// Extract the sequential dependency structure: `result[v]` holds the
    /// (sorted) labels every insertion `v` depends on — the vertices of
    /// `v`'s cavity at the moment `v` is inserted in exact label order.
    ///
    /// These are the `D_ij` dependencies for running Delaunay insertion in
    /// the **transactional model** (Section 4): a transaction inserting `v`
    /// conflicts with the transactions that created the triangles its
    /// cavity destroys. Their count per task is `O(1)` in expectation under
    /// random order, the property behind `p_ij ≤ C/i`.
    pub fn dependency_lists(points: &[Point]) -> Vec<Vec<u32>> {
        let mut st = DelaunayState::new(points.to_vec());
        let n = points.len();
        let mut deps = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut owners: Vec<u32> = st
                .cavity(v)
                .into_iter()
                .flat_map(|t| st.mesh().tri(t).v)
                .filter(|&p| !st.mesh().is_super(p) && p != v)
                .collect();
            owners.sort_unstable();
            owners.dedup();
            debug_assert!(owners.iter().all(|&u| u < v), "deps must point backwards");
            deps.push(owners);
            st.insert(v);
        }
        deps
    }

    /// The labels of pending higher-priority points blocking `task`
    /// (empty iff the task is runnable).
    pub fn blockers(&self, task: usize) -> Vec<usize> {
        self.state
            .pending_in_cavity(task as u32)
            .into_iter()
            .map(|q| q as usize)
            .filter(|&q| q < task)
            .collect()
    }
}

impl IncrementalAlgorithm for DelaunayIncremental {
    fn num_tasks(&self) -> usize {
        self.state.num_points()
    }

    fn deps_satisfied(&self, task: usize) -> bool {
        // Runnable iff no pending smaller-label point encroaches the cavity.
        self.state
            .pending_in_cavity(task as u32)
            .iter()
            .all(|&q| (q as usize) > task)
    }

    fn process(&mut self, task: usize) {
        self.state.insert(task as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_core::{run_exact, run_relaxed, run_relaxed_with, ExecStats};
    use rsched_queues::{RotatingKQueue, SimMultiQueue};

    fn assert_valid(alg: &DelaunayIncremental) {
        let st = alg.state();
        st.check_invariants();
        st.mesh().check_delaunay(st.inserted_flags());
        assert_eq!(st.mesh().num_alive(), 2 * st.num_points() + 1);
    }

    #[test]
    fn exact_run_builds_delaunay() {
        let mut alg = DelaunayIncremental::random(150, 1 << 13, 3);
        let stats = run_exact(&mut alg);
        assert_eq!(stats.extra_steps, 0);
        assert_valid(&alg);
    }

    #[test]
    fn relaxed_run_builds_same_size_mesh() {
        let mut alg = DelaunayIncremental::random(150, 1 << 13, 3);
        let stats = run_relaxed(&mut alg, &mut SimMultiQueue::new(8, 7));
        assert_eq!(stats.processed, 150);
        assert_valid(&alg);
    }

    #[test]
    fn rotating_scheduler_wastes_bounded_steps() {
        let n = 200;
        let k = 6;
        let mut alg = DelaunayIncremental::random(n, 1 << 13, 5);
        let stats: ExecStats = run_relaxed(&mut alg, &mut RotatingKQueue::new(k));
        assert_valid(&alg);
        // Shape check for Theorem 3.3: extra steps far below trivial k·n.
        assert!(
            stats.extra_steps < (k * n) as u64 / 2,
            "extra steps {} vs trivial bound {}",
            stats.extra_steps,
            k * n
        );
    }

    #[test]
    fn dependency_adversary_still_terminates() {
        let n = 100;
        let mut alg = DelaunayIncremental::random(n, 1 << 12, 9);
        let stats = run_relaxed_with(&mut alg, 5, |alg, w| {
            w.iter().position(|&t| !alg.deps_satisfied(t)).unwrap_or(0)
        });
        assert_eq!(stats.processed, n as u64);
        assert_valid(&alg);
    }

    #[test]
    fn blockers_are_exactly_smaller_pending_conflicts() {
        let mut alg = DelaunayIncremental::random(60, 1 << 12, 13);
        // Insert the first 20 tasks in order.
        for t in 0..20 {
            assert!(alg.deps_satisfied(t), "prefix task {t} must be runnable");
            alg.process(t);
        }
        for t in 20..60 {
            let blockers = alg.blockers(t);
            assert_eq!(blockers.is_empty(), alg.deps_satisfied(t));
            for b in blockers {
                assert!(b > 19 && b < t);
            }
        }
    }

    #[test]
    fn dependency_lists_are_backward_and_sparse() {
        let pts = rsched_geometry::random_points(500, 1 << 13, 23);
        let deps = DelaunayIncremental::dependency_lists(&pts);
        assert_eq!(deps.len(), 500);
        assert!(deps[0].is_empty(), "first insertion depends on nothing");
        let mut total = 0usize;
        for (v, list) in deps.iter().enumerate() {
            for &u in list {
                assert!((u as usize) < v);
            }
            total += list.len();
        }
        // Random-order incremental Delaunay: expected O(1) dependencies per
        // task once the mesh is non-trivial.
        let mean = total as f64 / 500.0;
        assert!(mean < 8.0, "mean dependency count {mean} too high");
    }

    #[test]
    fn pending_conflicts_decay_with_insertion_index() {
        // The conflict-count decay underlying p_ij ≤ C/i: the number of
        // *pending points* encroached by the i-th insertion shrinks as the
        // mesh refines (each cavity stays O(1) triangles, but each triangle
        // holds ~n/i pending points after i insertions).
        let mut alg = DelaunayIncremental::random(400, 1 << 14, 17);
        let mut early = 0usize;
        for t in 0..40 {
            early += alg.state().pending_in_cavity(t as u32).len();
            alg.process(t);
        }
        for t in 40..360 {
            alg.process(t);
        }
        let mut late = 0usize;
        for t in 360..400 {
            late += alg.state().pending_in_cavity(t as u32).len();
            alg.process(t);
        }
        assert!(
            late * 4 < early,
            "pending conflicts should decay sharply: early {early}, late {late}"
        );
    }
}
