//! Environment-variable knob parsing shared across the workspace.
//!
//! The numeric `RSCHED_*` tuning knobs of [`RuntimeConfig`] in this
//! crate and of the serving front-end (`rsched-serve`) are parsed
//! through this one module. It lives here rather than in `rsched-core`
//! because the workspace's dependency arrow points the other way
//! (`rsched-core` builds *on* the runtime): the runtime is the lowest
//! crate that defines env-tunable configuration.
//!
//! All helpers treat an unset **or unparsable** variable as absent and
//! fall back to the given default — a typo'd knob degrades to the
//! documented default instead of aborting a long benchmark run.
//!
//! [`RuntimeConfig`]: crate::RuntimeConfig

/// A `usize` knob from the environment, falling back to `default` when
/// unset or unparsable.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
}

/// An `f64` knob from the environment, falling back to `default` when
/// unset or unparsable (e.g. `RSCHED_SERVE_LIFETIME_S=2.5`).
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global env mutation: each test uses its own unique key so
    // parallel test threads cannot interfere.

    #[test]
    fn usize_knob_defaults_and_parses() {
        assert_eq!(env_usize("RSCHED_ENV_TEST_UNSET_A", 7), 7);
        std::env::set_var("RSCHED_ENV_TEST_A", "42");
        assert_eq!(env_usize("RSCHED_ENV_TEST_A", 7), 42);
        std::env::set_var("RSCHED_ENV_TEST_A", "nope");
        assert_eq!(env_usize("RSCHED_ENV_TEST_A", 7), 7);
        std::env::remove_var("RSCHED_ENV_TEST_A");
    }

    #[test]
    fn float_knob_defaults_and_parses() {
        assert!((env_f64("RSCHED_ENV_TEST_UNSET_D", 0.4) - 0.4).abs() < 1e-12);
        std::env::set_var("RSCHED_ENV_TEST_D", "0.25");
        assert!((env_f64("RSCHED_ENV_TEST_D", 0.4) - 0.25).abs() < 1e-12);
        std::env::remove_var("RSCHED_ENV_TEST_D");
    }
}
