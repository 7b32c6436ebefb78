//! Closed-form bounds from the paper, as executable formulas.
//!
//! `tests/theorems.rs` asserts these against measured values, so every
//! theorem is an executable envelope. The constants hidden in the big-O
//! are not specified by the paper; the formulas here return the
//! *parametric part* (e.g. `k⁴ · ln n` for Theorem 3.3), and each test
//! multiplies it by a constant `c` that it states next to the largest
//! ratio measured.

/// `H(n)` — the harmonic number, the Σ C/i factor in the Theorem 3.3 proof.
pub fn harmonic(n: usize) -> f64 {
    // Exact summation below 256; Euler–Maclaurin beyond.
    if n == 0 {
        return 0.0;
    }
    if n < 256 {
        (1..=n).map(|i| 1.0 / i as f64).sum()
    } else {
        let nf = n as f64;
        nf.ln() + 0.577_215_664_901_532_9 + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

/// Theorem 3.3: expected extra steps of Algorithm 2 are `O(k⁴ log n)`.
/// Returns `k⁴ · ln n`.
pub fn thm33_extra_steps(k: usize, n: usize) -> f64 {
    (k as f64).powi(4) * (n.max(2) as f64).ln()
}

/// Lemma 3.2: a task can be charged at most `R_i ≤ k²` extra steps.
pub fn lemma32_charge_bound(k: usize) -> u64 {
    (k as u64).pow(2)
}

/// Theorem 4.3: expected aborts in the transactional model are
/// `O(k²(C + k)² log n)`. Returns `k²(C + k)² · ln n`.
pub fn thm43_aborts(k: usize, c: usize, n: usize) -> f64 {
    let k = k as f64;
    let c = c as f64;
    k * k * (c + k) * (c + k) * (n.max(2) as f64).ln()
}

/// Theorem 5.1: expected extra steps under a MultiQueue are `Ω(log n)`;
/// the proof gives the explicit constant `(1/8) · ln n` via
/// `Σ p_{i,i+1} · Pr[inv_{i,i+1}] ≥ Σ (1/i) · (1/8)`.
pub fn thm51_lower_bound(n: usize) -> f64 {
    harmonic(n.saturating_sub(1)) / 8.0
}

/// Claim 1: under a MultiQueue, consecutive-label tasks are inverted with
/// probability at least 1/8.
pub const CLAIM1_INVERSION_LOWER: f64 = 0.125;

/// Theorem 6.1: Algorithm 3 performs at most `n + O(k² · d_max / w_min)`
/// pops. Returns the parametric extra-pop term `k² · d_max / w_min`.
pub fn thm61_extra_pops(k: usize, dmax_over_wmin: f64) -> f64 {
    (k as f64) * (k as f64) * dmax_over_wmin
}

/// Nominal relaxation factor of a MultiQueue with `q` internal queues:
/// `k = O(q log q)` (PODC 2017). Returns `q · max(1, log₂ q)`.
pub fn multiqueue_k(q: usize) -> f64 {
    let qf = q as f64;
    qf * qf.log2().max(1.0)
}

/// Trivial upper bound the paper contrasts against: a `k`-relaxed scheduler
/// can always be charged `O(k · W)` wasted work on `W` total tasks.
pub fn trivial_bound(k: usize, w: usize) -> f64 {
    (k as f64) * (w as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_values() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        // H(10000) ≈ ln(10000) + γ ≈ 9.7876.
        assert!((harmonic(10_000) - 9.787_606_036_044_348).abs() < 1e-6);
        // Continuity across the exact/asymptotic switch at 256.
        let delta = harmonic(256) - harmonic(255);
        assert!(delta > 0.0 && delta < 1.0 / 255.0 + 1e-9);
    }

    #[test]
    fn bounds_are_monotone_in_parameters() {
        assert!(thm33_extra_steps(4, 1000) > thm33_extra_steps(2, 1000));
        assert!(thm33_extra_steps(4, 100_000) > thm33_extra_steps(4, 1000));
        assert!(thm43_aborts(4, 8, 1000) > thm43_aborts(2, 8, 1000));
        assert!(thm43_aborts(4, 16, 1000) > thm43_aborts(4, 8, 1000));
        assert!(thm61_extra_pops(8, 50.0) > thm61_extra_pops(4, 50.0));
        assert!(thm51_lower_bound(10_000) > thm51_lower_bound(100));
    }

    #[test]
    fn thm33_beats_trivial_bound_for_large_n() {
        // The paper's point: for n >> k, poly(k) log n << k n.
        let k = 16;
        let n = 1_000_000;
        assert!(thm33_extra_steps(k, n) < trivial_bound(k, n));
    }

    #[test]
    fn multiqueue_k_grows_superlinearly() {
        assert!(multiqueue_k(64) / multiqueue_k(32) > 2.0);
    }
}
