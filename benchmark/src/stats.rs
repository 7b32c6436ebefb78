//! Exact order statistics over raw `u64` samples.
//!
//! Every timing the benchmark reports is a nearest-rank percentile of
//! the samples themselves — no bucketing — so a 5 % shift is a 5 %
//! shift in the output. A percentile is only trusted when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// A percentile needs this many samples beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a summary may climb to, lowest first.
const LADDER: [f64; 7] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product like 0.99 × 1000 from rounding up
    // past its exact integer value.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p` rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of all samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `p` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest ladder percentile that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| supported(n, p))
}

/// Sorted samples with the two numbers every timing is reported as.
pub struct Summary {
    sorted: Vec<u64>,
}

impl Summary {
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self { sorted: samples }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or 0 when there are no samples (a layer that is
    /// not on the workload's path).
    pub fn p(&self, p: f64) -> u64 {
        if self.sorted.is_empty() {
            0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// One line for the human-readable table: median, the asked tail,
    /// and the highest percentile the sample count supports.
    pub fn describe(&self, name: &str, unit_div: f64, unit: &str, tail: f64) -> String {
        if self.sorted.is_empty() {
            return format!("{name}: no samples");
        }
        let n = self.n();
        let best = highest_supported(n);
        let warn = if supported(n, tail) {
            String::new()
        } else {
            format!(
                " (WARNING: p{} has < {MIN_BEYOND} samples beyond it)",
                tail * 100.0
            )
        };
        format!(
            "{name}: n={n} p50={:.3}{unit} p{}={:.3}{unit} highest_supported={}{warn}",
            self.p(0.5) as f64 / unit_div,
            tail * 100.0,
            self.p(tail) as f64 / unit_div,
            best.map_or("none".to_string(), |p| format!("p{}", p * 100.0)),
        )
    }
}

/// Median of floats (mean of the middle two for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.90), 90);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Two values one log2 bucket apart stay distinguishable.
        assert_eq!(percentile(&[131_000, 262_000], 0.5), 131_000);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples leaves exactly 10 beyond; of 99, only 9.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert!(supported(100, 0.90));
        assert_eq!(samples_beyond(99, 0.90), 9);
        assert!(!supported(99, 0.90));
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(57), Some(0.75));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(80_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn summary_handles_empty_and_unsorted() {
        assert_eq!(Summary::new(vec![]).p(0.5), 0);
        let s = Summary::new(vec![30, 10, 20]);
        assert_eq!((s.n(), s.p(0.5), s.p(0.99)), (3, 20, 30));
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
