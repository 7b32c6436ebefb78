//! The metric vocabulary and the result of one run.
//!
//! Every workload reports every end-to-end metric (untraced run) and
//! every per-layer metric (traced run) under the same names;
//! `README.md` says what each name means on each workload. The tables
//! here must agree with `BENCHMARK.json` — a unit test checks it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("goodput_per_s", "1/s"),
    ("work_overhead", "ratio"),
    ("ok_share", "ratio"),
];

/// `(name, unit)` of the per-layer metrics, as in `BENCHMARK.json`. A
/// layer that is not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("graph.seq_ref_ms", "ms"),
    ("algos.solve_ms", "ms"),
    ("algos.executed", "count"),
    ("algos.pops", "count"),
    ("algos.stale", "count"),
    ("algos.stale_share", "ratio"),
    ("algos.speedup_vs_seq", "ratio"),
    ("runtime.run.noop_ns_per_task", "ns"),
    ("runtime.run.pop_miss_share", "ratio"),
    ("runtime.run.steal_share", "ratio"),
    ("runtime.run.home_hit_share", "ratio"),
    ("runtime.run.flushes", "count"),
    ("queues.mq.push_ns", "ns"),
    ("queues.mq.pop_ns", "ns"),
    ("queues.dcbo.push_ns", "ns"),
    ("queues.dcbo.pop_ns", "ns"),
    ("queues.retry_p99", "count"),
    ("queues.steal_p99", "count"),
    ("queues.empty_pops", "count"),
    ("queues.seg_installs", "count"),
    ("queues.gc_deferred", "count"),
    ("queues.gc_collected", "count"),
    ("runtime.service.inject_ns", "ns"),
    ("runtime.service.dispatch_us_p50", "us"),
    ("runtime.service.dispatch_us_p99", "us"),
    ("runtime.worker_busy_permille", "permille"),
    ("serve.server.in_flight", "count"),
    ("serve.codec.encode_req_ns", "ns"),
    ("serve.codec.decode_req_ns", "ns"),
    ("serve.codec.encode_resp_ns", "ns"),
    ("serve.codec.decode_resp_ns", "ns"),
    ("serve.client.send_us_p50", "us"),
    ("serve.client.send_us_p99", "us"),
    ("serve.server.accept_us_p50", "us"),
    ("serve.server.inject_us_p50", "us"),
    ("serve.server.inject_us_p99", "us"),
    ("serve.server.sojourn_us_p50", "us"),
    ("serve.server.sojourn_us_p99", "us"),
    ("serve.server.queue_wait_us_p50", "us"),
    ("serve.server.reject_share", "ratio"),
    ("serve.wire_us_p50", "us"),
    ("serve.wire_us_p99", "us"),
    ("loadgen.lag_us_p50", "us"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.achieved_rps", "1/s"),
    ("trace_overhead_pct", "%"),
];

/// The `metrics` object of a result line or a summary.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured window (solves or requests).
    pub attempted: u64,
    /// Of those, how many failed outright (wrong answer, rejected,
    /// errored or never answered).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines (sample counts, warnings, check results),
    /// printed above the result line.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        assert!(value.is_finite(), "{name} = {value} is not a finite number");
        self.values.insert(name, value);
    }

    /// Record a failed output check: the run is no longer correct.
    pub fn fail(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// The contract's result line: `table` is [`END_TO_END`] for an
    /// untraced run and [`PER_LAYER`] for a traced one. An end-to-end
    /// metric must have been measured; a per-layer metric the workload
    /// never touched reads 0.
    pub fn result_line(&self, table: &[(&'static str, &'static str)], traced: bool) -> String {
        let metrics = table.iter().map(|&(name, unit)| {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            (name, value, unit)
        });
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }

    /// Metrics by name with units, one per line, for people.
    pub fn table(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut s = String::new();
        for (name, unit) in table {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            writeln!(s, "  {name:<36} {v:>16.4} {unit}").expect("writing to a String");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_agree_with_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("reading BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::suite::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_line(END_TO_END, false);
        let doc = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(1.5));
        // Untouched per-layer metrics read 0 on a traced run.
        let traced = json::parse(&Outcome::default().result_line(PER_LAYER, true)).unwrap();
        assert_eq!(
            traced
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
    }
}
