//! Seeded inputs of the serve workloads: arrival times and budget
//! classes. Generated before timing starts; the program under test
//! only ever sees the resulting requests.
//!
//! The generator is the benchmark's own (SplitMix64), so a change to
//! the repo's vendored `rand` cannot silently change the inputs.

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, good enough to
/// draw arrival gaps and class choices from.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Due times, in ns from the start of the run, of a Poisson process of
/// `rate_per_s` over `duration_ns`: independent users, so exponential
/// gaps. Ascending.
pub fn poisson_due_ns(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((duration_ns as f64 / mean_gap_ns * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// `len` seeded class flags, each `true` with probability 1 in `one_in`.
pub fn one_in_flags(seed: u64, one_in: u64, len: usize) -> Vec<bool> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.below(one_in) == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_due_ns(42, 4000.0, 1_000_000_000);
        let b = poisson_due_ns(42, 4000.0, 1_000_000_000);
        let c = poisson_due_ns(43, 4000.0, 1_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(*a.last().unwrap() < 1_000_000_000);
    }

    #[test]
    fn schedule_has_the_asked_rate_and_exponential_gaps() {
        let due = poisson_due_ns(7, 16_000.0, 10_000_000_000);
        let n = due.len() as f64;
        assert!(
            (n - 160_000.0).abs() < 4.0 * 400.0,
            "count {n} within 4 sigma"
        );
        // Exponential gaps: the share above the mean gap is e^-1.
        let mean_gap = 1e9 / 16_000.0;
        let long = due
            .windows(2)
            .filter(|w| (w[1] - w[0]) as f64 > mean_gap)
            .count() as f64;
        assert!(
            (long / n - (-1.0f64).exp()).abs() < 0.01,
            "share {}",
            long / n
        );
    }

    #[test]
    fn class_flags_are_seeded_and_about_one_in_n() {
        let a = one_in_flags(5, 8, 80_000);
        assert_eq!(a, one_in_flags(5, 8, 80_000));
        let share = a.iter().filter(|&&t| t).count() as f64 / a.len() as f64;
        assert!((share - 0.125).abs() < 0.01, "share {share}");
    }
}
