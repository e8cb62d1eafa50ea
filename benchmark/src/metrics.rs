//! The metric tables — the same names `/BENCHMARK.json` lists — and
//! the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["compile", "exec_fine", "exec_apps", "serve_mix"];

/// End-to-end metrics: `(name, unit, lower is better, bound)`.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("ops_per_s", "1/s", false, 0.15),
    ("op_ms_p50", "ms", true, 0.15),
    ("cpu_ms_per_op", "ms", true, 0.15),
    ("peak_rss_mb", "MB", true, 0.15),
    ("setup_s", "s", true, 0.25),
];

/// Per-layer metrics: `(name, unit)`. A traced run prints every one; a
/// layer the workload does not touch reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("lang.source_bytes", "count"),
    ("analysis.analyze_ms", "ms"),
    ("descriptors.build_ms", "ms"),
    ("split.pipeline_ms", "ms"),
    ("split.split_ms", "ms"),
    ("split.pieces", "count"),
    ("core.compile_ms", "ms"),
    ("core.graph_ms", "ms"),
    ("core.graph_nodes", "count"),
    ("core.large_over_small", "ratio"),
    ("delirium.print_ms", "ms"),
    ("delirium.parse_ms", "ms"),
    ("delirium.text_bytes", "count"),
    ("runtime.plan_ms", "ms"),
    ("runtime.spinup_us", "us"),
    ("runtime.tiny.us_per_graph", "us"),
    ("runtime.flat.ns_per_task", "ns"),
    ("runtime.flat_w1.ns_per_task", "ns"),
    ("runtime.chain.ns_per_task", "ns"),
    ("runtime.arena_bytes", "count"),
    ("runtime.seq_ms", "ms"),
    ("runtime.thr_ms", "ms"),
    ("runtime.kernel_share", "ratio"),
    ("runtime.parallel_eff", "ratio"),
    ("runtime.split_over_baseline", "ratio"),
    ("runtime.dist_ms", "ms"),
    ("runtime.async_ms", "ms"),
    ("runtime.calibrate_ms", "ms"),
    ("machine.sim_ms", "ms"),
    ("checkpoint.clean_over_plain", "ratio"),
    ("checkpoint.recovery_ms", "ms"),
    ("checkpoint.snapshot_bytes", "count"),
    ("checkpoint.snapshots", "count"),
    ("wire.req_encode_us", "us"),
    ("wire.req_decode_us", "us"),
    ("wire.resp_encode_us", "us"),
    ("wire.resp_decode_us", "us"),
    ("wire.req_bytes", "count"),
    ("wire.resp_bytes", "count"),
    ("wire.frame_rtt_us", "us"),
    ("client.connect_us", "us"),
    ("session.admit_ns", "ns"),
    ("sched.admit_us", "us"),
    ("serve.small.ms_p50", "ms"),
    ("serve.dag.ms_p50", "ms"),
    ("serve.wide.ms_p50", "ms"),
    ("serve.small.submit_us", "us"),
    ("serve.small.wait_us", "us"),
    ("serve.wide.submit_us", "us"),
    ("serve.wide.wait_us", "us"),
    ("serve.direct_ms", "ms"),
    ("daemon.overhead_share", "ratio"),
    ("client.op_ms_p99", "ms"),
    ("run.rounds", "count"),
    ("run.ops", "count"),
    ("run.round_ms", "ms"),
    ("run.round_ms_p50", "ms"),
    ("run.round_ms_iqr", "ms"),
    ("run.ops_per_s_mean", "1/s"),
    ("host.spin_ms_p50", "ms"),
    ("host.nproc", "count"),
    ("trace.overhead", "ratio"),
];

/// Values of the per-layer metrics of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`PER_LAYER`]: a metric the driver
    /// was not told about would be silently dropped.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "`{name}` is not a per-layer metric");
        self.0.insert(name, value);
    }

    /// A metric recorded earlier in the run.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every per-layer metric in table order, 0 where nothing was set.
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Every attempted op's output matched its reference.
    pub correct: bool,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned wrong bits.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line: one JSON object, values with all their digits.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` of a finite f64 is its shortest exact decimal form,
            // which is valid JSON; a non-finite value would not be.
            assert!(value.is_finite(), "metric `{name}` is not finite");
            write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        self.metrics.iter().fold(String::new(), |mut s, (name, value, unit)| {
            writeln!(s, "{name:<32} {value:>16.6} {unit}")
                .expect("writing to a String cannot fail");
            s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"name": "…"` out of one array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no `{key}`"));
        let body = &json[at..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name is a string").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let bounds: Vec<f64> = json
            .split("\"bound\":")
            .skip(1)
            .map(|rest| {
                rest[..rest.find(['}', ',']).expect("object closes")].trim().parse().unwrap()
            })
            .collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.3).collect::<Vec<_>>());
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
    }

    #[test]
    fn result_line_is_one_json_object_with_full_digits() {
        let r = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("op_ms_p50", 1.203_456_789_012, "ms"), ("setup_s", 2.0, "s")],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"op_ms_p50\": \
             {\"value\": 1.203456789012, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_layer_metric_is_refused() {
        Layers::default().set("no.such_metric", 1.0);
    }
}
