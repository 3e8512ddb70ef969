//! The run's report: header, readable lines, and the last-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
/// `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("latency_tail_ms", "ms"),
    ("datasets.next_batch_ms", "ms"),
    ("dlrm.push_ms_p50", "ms"),
    ("dlrm.push_ms_p99", "ms"),
    ("dlrm.unattributed_ms", "ms"),
    ("dlrm.push_coverage_frac", "frac"),
    ("dlrm.checkpoint_load_ms", "ms"),
    ("embedding.fwd_gather_ms", "ms"),
    ("embedding.bwd_embedding_ms", "ms"),
    ("embedding.bwd_scatter_ms", "ms"),
    ("tensor.fwd_dnn_ms", "ms"),
    ("tensor.bwd_dnn_ms", "ms"),
    ("core.casting_ms", "ms"),
    ("core.backpressure_wait_ms", "ms"),
    ("core.exposed_cast_wait_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.admit_lag_ms_p99", "ms"),
    ("serve.score_ms_p50", "ms"),
    ("serve.score_ms_p99", "ms"),
    ("serve.batch_queries_mean", "count"),
    ("serve.cache_hit_frac", "frac"),
    ("snapshot.publish_ms", "ms"),
    ("snapshot.latest_us", "us"),
    ("snapshot.model_age_ms_p50", "ms"),
    ("proc.cpu_busy_frac", "frac"),
    ("proc.peak_rss_mb", "MiB"),
    ("trace.overhead_throughput_frac", "frac"),
    ("trace.overhead_latency_p50_frac", "frac"),
    ("trace.overhead_setup_frac", "frac"),
    ("trace.dropped_spans", "count"),
];

/// Reported in place of a latency whose percentile fell on a failed query,
/// which misses every limit.
pub const FAILED_LATENCY_MS: f64 = 1e9;

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Run header: host, build, seed and workload parameters.
    pub header: Vec<(String, String)>,
    /// Readable detail lines.
    pub lines: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations attempted at the workload's nominal configuration.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
}

impl Report {
    /// Adds a header field.
    pub fn head(&mut self, key: &str, value: impl std::fmt::Display) {
        self.header.push((key.to_string(), value.to_string()));
    }

    /// Adds a readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Prints the header, the detail lines and every metric of the mode by
    /// name and unit, then the result JSON as the last line.
    pub fn print(&self, traced: bool) {
        for (k, v) in &self.header {
            println!("# {k}: {v}");
        }
        for l in &self.lines {
            println!("{l}");
        }
        let (names, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        let mut json = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { FAILED_LATENCY_MS };
            println!("metric {name} = {v} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            json.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct, self.attempted, self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn metric_lists_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
