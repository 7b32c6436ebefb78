//! Environment-variable knob parsing shared across the workspace.
//!
//! Every layer that exposes `RSCHED_*` tuning knobs — [`RuntimeConfig`]
//! in this crate, the serving front-end (`rsched-serve`), the
//! experiment binaries (`rsched-bench`, which re-exports these helpers
//! so its bins keep their import paths) — parses them through this one
//! module. It lives here rather than in `rsched-core` because the
//! workspace's dependency arrow points the other way (`rsched-core`
//! builds *on* the runtime): the runtime is the lowest crate that
//! defines env-tunable configuration.
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

/// A comma-separated `usize` sweep list from the environment (e.g.
/// `RSCHED_THREADS=1,2,4,8`); falls back to `default` when the
/// variable is unset or yields no parsable entries. The one list parser
/// the experiment bins use for their multi-valued axes.
pub fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var(key)
        .unwrap_or_default()
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
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
    fn list_knob_splits_and_filters() {
        assert_eq!(env_usize_list("RSCHED_ENV_TEST_UNSET_C", &[1, 2]), [1, 2]);
        std::env::set_var("RSCHED_ENV_TEST_C", "4, 8,junk,16");
        assert_eq!(env_usize_list("RSCHED_ENV_TEST_C", &[1]), [4, 8, 16]);
        std::env::set_var("RSCHED_ENV_TEST_C", "junk");
        assert_eq!(env_usize_list("RSCHED_ENV_TEST_C", &[1]), [1]);
        std::env::remove_var("RSCHED_ENV_TEST_C");
    }

    #[test]
    fn float_knob_defaults_and_parses() {
        assert!((env_f64("RSCHED_ENV_TEST_UNSET_D", 0.4) - 0.4).abs() < 1e-12);
        std::env::set_var("RSCHED_ENV_TEST_D", "0.25");
        assert!((env_f64("RSCHED_ENV_TEST_D", 0.4) - 0.25).abs() < 1e-12);
        std::env::remove_var("RSCHED_ENV_TEST_D");
    }
}
