//! Metric names, the human-readable table and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("goodput_ops_s", "ops/s"),
    ("ok_op_ratio", "ratio"),
    ("acked_read_hit_ratio", "ratio"),
    ("request_msgs_per_op", "msgs/op"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, reported by traced runs. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.read_p99_us", "us"),
    ("client.write_p99_us", "us"),
    ("driver.lag_p99_us", "us"),
    ("driver.cpu_us_per_op", "us"),
    ("gateway.submit_ns_p50", "ns"),
    ("gateway.submit_ns_p99", "ns"),
    ("gateway.poll_ns_per_completion", "ns"),
    ("gateway.completions_routed_per_op", "count"),
    ("gateway.inflight_high_water", "count"),
    ("gateway.sheds", "count"),
    ("net_env.io_cpu_us_per_op", "us"),
    ("net_env.io_runq_wait_us_per_op", "us"),
    ("net_env.worker_cpu_us_per_op", "us"),
    ("net_env.worker_runq_wait_us_per_op", "us"),
    ("net_env.timer_cpu_us_per_op", "us"),
    ("net_env.timeslices_per_op", "count"),
    ("net_env.arena_fresh_per_kop", "count"),
    ("net_env.dials", "count"),
    ("net_env.wire_rejects", "count"),
    ("net_env.saturations", "count"),
    ("net_env.reactor_stale_events", "count"),
    ("net_env.reassembly_ns_per_kib", "ns"),
    ("async_env.worker_cpu_us_per_op", "us"),
    ("async_env.worker_runq_wait_us_per_op", "us"),
    ("async_env.timer_cpu_us_per_op", "us"),
    ("async_env.saturations", "count"),
    ("node.duplicate_ratio", "ratio"),
    ("node.expired_per_op", "count"),
    ("node.replies_per_op", "count"),
    ("node.puts_ignored_ratio", "ratio"),
    ("node.membership_msgs_per_node_s", "1/s"),
    ("node.slicing_msgs_per_node_s", "1/s"),
    ("node.ae_msgs_per_node_s", "1/s"),
    ("node.ae_chunks_skipped_ratio", "ratio"),
    ("node.objects_repaired", "count"),
    ("node.slice_changes", "count"),
    ("store.objects_per_node", "count"),
    ("store.replicas_per_key", "count"),
    ("store.put_ns", "ns"),
    ("store.get_ns", "ns"),
    ("store.range_digest_us", "us"),
    ("store.objects_newer_than_us", "us"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "bytes"),
    ("sched.ready_cycle_ns", "ns"),
    ("sched.inbox_push_drain_ns", "ns"),
    ("wheel.arm_fire_ns", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.events_per_op", "count"),
    ("sim.timer_fires", "count"),
    ("sim.wall_ms_per_sim_s", "ms"),
    ("sim.phase_wall_s.warmup", "s"),
    ("sim.phase_wall_s.churn_write", "s"),
    ("sim.phase_wall_s.read_drain", "s"),
    ("slicing.populated_slices", "count"),
    ("slicing.min_slice_population", "count"),
    ("proc.cpu_ms_per_kop", "ms"),
    ("proc.explained_cpu_share", "ratio"),
    ("proc.reconcile_mape", "ratio"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_us_per_op", "us"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured values. `None`: the source was unavailable (absent).
    pub values: BTreeMap<&'static str, Option<f64>>,
    /// Per metric, how it was obtained (sample count, percentile used…).
    pub notes: BTreeMap<&'static str, String>,
    /// Extra lines for the human-readable output (counts, provenance).
    pub extra: Vec<(String, String)>,
    /// Operations the measured phase scheduled.
    pub attempted: u64,
    /// Operations of the measured phase that failed.
    pub failed: u64,
    /// Hits whose bytes did not match their version (any phase).
    pub wrong_values: u64,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!unit_of(name).is_empty(), "unknown metric {name}");
        self.values.insert(name, value.is_finite().then_some(value));
    }

    /// Sets a metric whose source may be unavailable.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(value) => self.set(name, value),
            None => {
                self.values.insert(name, None);
            }
        }
    }

    /// Sets a metric with a note on how it was measured.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    /// Adds a line to the human-readable output.
    pub fn extra(&mut self, name: impl Into<String>, value: impl ToString) {
        self.extra.push((name.into(), value.to_string()));
    }

    /// Whether every output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong_values == 0
    }

    /// The human-readable table of every metric set, then the extras.
    #[must_use]
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        let sections: [(&str, &[(&str, &str)]); 2] =
            [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)];
        for (title, list) in sections {
            let _ = writeln!(out, "== {title} ==");
            for (name, unit) in list {
                // Untraced runs list only the per-layer figures they measured.
                if title == "per-layer" && !traced && !self.values.contains_key(name) {
                    continue;
                }
                let value = match self.values.get(name) {
                    Some(Some(v)) => format!("{v:.4}"),
                    Some(None) => "absent".to_string(),
                    None => "0 (layer not exercised)".to_string(),
                };
                let note = self
                    .notes
                    .get(name)
                    .map_or(String::new(), |n| format!("  [{n}]"));
                let _ = writeln!(out, "{name:<40} {value:>18} {unit:<8}{note}");
            }
        }
        let _ = writeln!(out, "== counts and provenance ==");
        for (name, value) in &self.extra {
            let _ = writeln!(out, "{name:<40} {value}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of this kind of run (end-to-end untraced, per-layer traced).
    #[must_use]
    pub fn json_line(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in list {
            let value = match self.values.get(name) {
                Some(Some(v)) => *v,
                Some(None) => continue,
                None => 0.0,
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(spec) = std::fs::read_to_string(path) else {
            return;
        };
        let declared = spec.matches("\"name\"").count();
        let workloads = spec.matches("\"why\"").count();
        assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_has_every_metric_of_its_kind() {
        let mut report = Report::default();
        report.set("setup_s", 1.25);
        report.set_opt("net_env.io_cpu_us_per_op", None);
        report.attempted = 10;
        let untraced = report.json_line(false);
        assert!(untraced.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(untraced.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert_eq!(untraced.matches("\"value\"").count(), END_TO_END.len());
        // Absent sources are left out; unexercised layers read 0.
        let traced = report.json_line(true);
        assert!(!traced.contains("net_env.io_cpu_us_per_op"));
        assert!(traced.contains("\"wheel.arm_fire_ns\":{\"value\":0,"));
        report.wrong_values = 1;
        assert!(report.json_line(false).starts_with("{\"correct\":false"));
    }
}
