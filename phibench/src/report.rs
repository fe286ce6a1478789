//! The metric vocabulary and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// The VGG-16 layers, in execution order.
pub const LAYERS: [&str; 15] = [
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3", "conv4_1",
    "conv4_2", "conv4_3", "conv5_1", "conv5_2", "conv5_3", "fc1", "fc2",
];

/// End-to-end metrics, printed with `--trace 0`. The p99 latency is
/// reported by traced runs instead (`e2e.latency_p99_ms`): on a shared
/// 2-core host its run-to-run spread is wider than any bound a
/// regression check could use.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
];

/// The end-to-end metrics a traced run also measures, so their
/// traced-minus-untraced difference is the tracing overhead.
pub const TRACED_END_TO_END: [&str; 4] =
    ["throughput_rps", "latency_p50_ms", "latency_p99_ms", "success_rate"];

/// Per-layer metrics other than the per-network-layer and overhead
/// ones, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 33] = [
    ("loadgen.lag_us_p99", "us"),
    ("server.submit_us_p50", "us"),
    ("server.submit_us_p99", "us"),
    ("server.queue_wait_us_p50", "us"),
    ("server.queue_wait_us_p99", "us"),
    ("server.overhead_us_p50", "us"),
    ("server.exec_us_p50", "us"),
    ("server.exec_us_p99", "us"),
    ("server.batch_size_mean", "count"),
    ("server.shed", "count"),
    ("server.failed", "count"),
    ("executor.execute_us_p50", "us"),
    ("executor.execute_us_p99", "us"),
    ("executor.vstack_us_p50", "us"),
    ("executor.split_us_p50", "us"),
    ("executor.unattributed_share", "ratio"),
    ("decompose.us_p50", "us"),
    ("decompose.us_per_row", "us"),
    ("decompose.tile_cache_hit_rate", "ratio"),
    ("decompose.cache_misses", "count"),
    ("decompose.rows_skipped_rate", "ratio"),
    ("decompose.tiles_rematched", "count/frame"),
    ("decompose.concat_us_p50", "us"),
    ("pwp.matmul_us_p50", "us"),
    ("pwp.reuse_rate", "ratio"),
    ("pwp.term_refs_per_inf", "count"),
    ("pwp.bytes_moved_per_inf", "B"),
    ("sim.run_layer_us_p50", "us"),
    ("sim.cycles_per_inf", "cycles"),
    ("sim.energy_uj_per_inf", "uJ"),
    ("compile.compile_ms", "ms"),
    ("compile.artifact_load_ms", "ms"),
    ("compile.artifact_bytes", "B"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> =
        PER_LAYER.iter().map(|&(name, unit)| (name.to_string(), unit)).collect();
    for layer in LAYERS {
        out.push((format!("layer.{layer}.decompose_us"), "us"));
        out.push((format!("layer.{layer}.sim_us"), "us"));
    }
    out.push(("e2e.latency_p99_ms".to_string(), "ms"));
    for name in TRACED_END_TO_END {
        let unit = if name.ends_with("_ms") {
            "ms"
        } else {
            END_TO_END.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| *u)
        };
        out.push((format!("trace_overhead.{name}"), unit));
    }
    out
}

/// Measured values by metric name. A metric a workload does not exercise
/// reads 0 (the layer is bypassed there).
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Operations attempted and failed (errored, shed, late or wrong bits).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// The last line of the benchmark's output: the named metrics with
/// their units, plus the correctness verdict — correct when nothing
/// failed and every value is finite.
pub fn result_line(tally: Tally, metrics: &Metrics, schema: &[(String, &str)]) -> String {
    let mut all_finite = true;
    let mut body = String::new();
    for (i, (name, unit)) in schema.iter().enumerate() {
        let mut value = metrics.get(name);
        if !value.is_finite() {
            all_finite = false;
            value = 0.0;
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    let correct = all_finite && tally.failed == 0 && tally.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_names_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("throughput_rps", 1234.5);
        let schema: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        let line = result_line(Tally { attempted: 10, failed: 0 }, &m, &schema);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"throughput_rps\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let schema = vec![("x".to_string(), "s")];
        let mut m = Metrics::default();
        m.set("x", 1.0);
        assert!(result_line(Tally { attempted: 3, failed: 1 }, &m, &schema)
            .starts_with("{\"correct\": false"));
        m.set("x", f64::NAN);
        assert!(result_line(Tally { attempted: 3, failed: 0 }, &m, &schema)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        let count = |needle: &str| declared.matches(needle).count();
        for (name, unit) in END_TO_END {
            assert_eq!(count(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), 1, "{name}");
        }
        let per_layer = per_layer_metrics();
        for (name, unit) in &per_layer {
            assert_eq!(count(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")), 1, "{name}");
        }
        assert_eq!(count("\"name\": "), END_TO_END.len() + per_layer.len() + 3);
    }
}
