//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric in an untraced run and
//! every per-layer metric in a traced run. A per-layer metric of a layer
//! the workload does not exercise reads 0 (no such calls were made).

use std::collections::BTreeMap;

use rankfair_json::Value;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level breakdown of the end-to-end operation.
    ("failed_ratio", "ratio"),
    ("build_ms_p50", "ms"),
    ("global_ms_p50", "ms"),
    ("prop_ms_p50", "ms"),
    ("combined_ms_p50", "ms"),
    ("pass_ms_p50", "ms"),
    ("pass_ms_tail", "ms"),
    ("update_ms_p50", "ms"),
    ("update_ms_tail", "ms"),
    ("req_ms_p50", "ms"),
    ("req_ms_tail", "ms"),
    ("max_rate_qps", "1/s"),
    // rank / data / core layers.
    ("rank.sort_ms", "ms"),
    ("data.bucketize_ms", "ms"),
    ("core.space.build_ms", "ms"),
    ("core.index.build_ms", "ms"),
    ("core.index.bytes", "bytes"),
    ("core.index.count_ns", "ns"),
    ("core.index.count_bytes", "bytes"),
    ("core.index.count_share", "ratio"),
    ("core.engine.lower.evals", "count"),
    ("core.engine.lower.touched", "count"),
    ("core.engine.lower.self_ms", "ms"),
    ("core.engine.lower.yield", "ratio"),
    ("core.engine.upper.evals", "count"),
    ("core.engine.upper.touched", "count"),
    ("core.engine.upper.self_ms", "ms"),
    ("core.report.ms", "ms"),
    ("json.render_ms", "ms"),
    ("json.render_bytes", "bytes"),
    // Live monitor.
    ("core.monitor.replayed_steps", "count"),
    ("core.monitor.seeks", "count"),
    ("core.monitor.repairs", "count"),
    ("core.monitor.cold_builds", "count"),
    ("core.monitor.segments", "count"),
    ("core.monitor.prefix_recounts", "count"),
    ("core.monitor.changed_k_per_step", "ratio"),
    ("core.monitor.arena_nodes", "count"),
    ("core.monitor.rebuild_ratio", "ratio"),
    ("rank.live.update_us", "us"),
    ("core.index.rewrite_us", "us"),
    // Serving.
    ("service.wire.parse_us", "us"),
    ("service.execute_us.audit", "us"),
    ("service.execute_us.update", "us"),
    ("service.execute_us.snapshot", "us"),
    ("json.render_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.session.residual_us", "us"),
    ("serve.gen_late_ms", "ms"),
    ("serve.backlog.r0500", "count"),
    ("serve.backlog.r1000", "count"),
    ("serve.backlog.r2000", "count"),
    ("serve.backlog.r4000", "count"),
    ("serve.tail_ms.r0500", "ms"),
    ("serve.tail_ms.r1000", "ms"),
    ("serve.tail_ms.r2000", "ms"),
    ("serve.tail_ms.r4000", "ms"),
    // Validity of the breakdown.
    ("host.kernel_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: exactly the catalogue's end-to-end or per-layer
    /// metrics. Unset per-layer metrics read 0; an unset end-to-end metric
    /// is a bug in the workload and panics.
    pub fn result_line(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (
                    name,
                    Value::object([("value", Value::from(value)), ("unit", Value::from(unit))]),
                )
            })
            .collect::<Vec<_>>();
        Value::object([
            ("correct", Value::from(correct)),
            ("attempted", Value::from(attempted)),
            ("failed", Value::from(failed)),
            ("metrics", Value::object(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: starts with a letter or digit,
    /// at most 64 characters of letters, digits, `_`, `.` and `-`.
    pub fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("core.engine.lower.self_ms"));
        assert!(valid_name("9lives-ok_1.x"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("ünicode"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = rankfair_json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_exactly_the_catalogue() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = m.result_line(false, true, 3, 0);
        let v = rankfair_json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_usize), Some(3));
        let metrics = v.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // Per-layer metrics a workload never set read 0.
        let traced = rankfair_json::parse(&m.result_line(true, true, 3, 0)).unwrap();
        let metrics = traced.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(0.0));
    }
}
