//! # rsched-geometry — 2-D computational-geometry substrate
//!
//! Everything the Delaunay-triangulation experiments of the SPAA 2019 paper
//! need, built from scratch:
//!
//! * [`point`] — integer-grid points and deterministic random point clouds;
//! * [`predicates`] — **exact** `orient2d` / `incircle` predicates over
//!   integer coordinates using `i128` arithmetic (no epsilon tuning, no
//!   floating-point filters — determinant signs are computed exactly);
//! * [`mesh`] — a triangle-arena mesh with neighbour links and invariant
//!   checkers;
//! * [`triangulate`] — incremental Bowyer–Watson insertion with
//!   Clarkson–Shor conflict lists. The conflict lists double as the paper's
//!   *dependency oracle*: a pending point `u` stored in a triangle of the
//!   cavity of `v` has a cavity overlapping `v`'s (its containing triangle
//!   lies in both), which is the "encroaching regions overlap" dependency of
//!   Section 3.
//!
//! ## Exactness model
//!
//! Points live on the integer grid `[0, 2^20)²` (configurable up to
//! `MAX_COORD`); predicates are evaluated in `i128`, which provably cannot
//! overflow for coordinates below [`point::MAX_COORD`]. The triangulation is
//! bootstrapped from a huge super-triangle whose vertices are ordinary
//! (exactly-represented) grid points far outside the data extent; the
//! structure maintained is therefore the exact Delaunay triangulation of the
//! *augmented* point set (data points plus the three super-triangle
//! vertices). This sidesteps symbolic "ghost vertex" case analysis while
//! keeping every insertion order — including the adversarial orders a
//! relaxed scheduler produces — well-defined and exact.

pub mod mesh;
pub mod point;
pub mod predicates;
pub mod triangulate;

pub use mesh::{TriId, TriMesh, Triangle};
pub use point::{random_points, Point, MAX_COORD};
pub use predicates::{incircle, orient2d, Orientation};
pub use triangulate::{delaunay, DelaunayState};
