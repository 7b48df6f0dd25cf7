//! The benchmark's metric catalogue, the percentile-support rule, and the
//! rendering of one run's result line.

use crate::trace::Layers;
use dfr_bench::{json_f64, json_object, json_str};
use std::time::Instant;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughput, work done).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Unique name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// each of them; what "one operation" and "one work item" are depends on
/// the workload (see `workloads` in `BENCHMARK.json`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("p50_ms", "ms", Lower),
    m("throughput_per_s", "1/s", Higher),
];

/// Per-layer metrics of the traced run. A metric in `us` or `ms` is the
/// mean self time of the spans carrying its name without the unit suffix;
/// every other metric is a count or a derived value set by the workload.
/// Layers a workload never calls read 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("reservoir.mask_apply_us", "us", Lower),
    m("core.forward_us", "us", Lower),
    m("core.backprop_us", "us", Lower),
    m("core.sgd_step_us", "us", Lower),
    m("core.sgd_samples", "count", Higher),
    m("core.features_ms", "ms", Lower),
    m("core.readout_fit_ms", "ms", Lower),
    m("core.readout_escalations", "count", Lower),
    m("linalg.gram_gflop", "GFLOP", Lower),
    m("core.grid_cell_ms", "ms", Lower),
    m("core.grid_cells", "count", Higher),
    m("core.evaluate_ms", "ms", Lower),
    m("client.encode_us", "us", Lower),
    m("client.send_us", "us", Lower),
    m("client.wait_us", "us", Lower),
    m("client.decode_us", "us", Lower),
    m("server.batches", "count", Lower),
    m("server.batch_fill", "req/batch", Higher),
    m("server.busy", "count", Lower),
    m("server.failed", "count", Lower),
    m("serve.batch_us", "us", Lower),
    m("serve.us_per_request", "us", Lower),
    m("server.unattributed_us", "us", Lower),
    m("core.streaming_forward_us", "us", Lower),
    m("core.online_absorb_us", "us", Lower),
    m("core.online_refit_ms", "ms", Lower),
    m("core.online_escalations", "count", Lower),
    m("serve.freeze_us", "us", Lower),
    m("server.registry_publish_us", "us", Lower),
    m("online.publishes", "count", Higher),
    m("trace.overhead_pct", "%", Lower),
];

/// The value of a per-layer metric from one traced run's totals.
pub fn layer_value(def: &MetricDef, layers: &Layers) -> f64 {
    let scale = match def.unit {
        "us" => 1e-3,
        "ms" => 1e-6,
        _ => return layers.values.get(def.name).copied().unwrap_or(0.0),
    };
    // Derived times (set directly) take precedence over span means.
    if let Some(&v) = layers.values.get(def.name) {
        return v;
    }
    let span = def.name.rsplit_once('_').map_or(def.name, |(stem, _)| stem);
    layers.mean_self_ns(span) * scale
}

/// Work completed in each one-second slice of a measured window; the
/// median slice is the window's throughput, so a burst of interference
/// from other tenants of a shared machine moves it less than a
/// whole-window mean.
#[derive(Debug, Clone)]
pub struct Slices {
    start: Instant,
    work: Vec<f64>,
}

impl Slices {
    /// Slices of a window starting at `start`.
    pub fn new(start: Instant) -> Self {
        Slices {
            start,
            work: Vec::new(),
        }
    }

    /// Credits `work` items completed at `at`.
    pub fn add(&mut self, at: Instant, work: f64) {
        let k = at.saturating_duration_since(self.start).as_secs() as usize;
        if self.work.len() <= k {
            self.work.resize(k + 1, 0.0);
        }
        self.work[k] += work;
    }

    /// Median work per second over the whole slices before `end`, or the
    /// mean rate when the window is shorter than one slice.
    pub fn rate(&self, end: Instant) -> f64 {
        let elapsed = end.saturating_duration_since(self.start);
        let whole = elapsed.as_secs() as usize;
        if whole == 0 {
            return self.work.iter().sum::<f64>() / elapsed.as_secs_f64().max(1e-9);
        }
        let mut per_second = self.work.clone();
        per_second.resize(whole.max(per_second.len()), 0.0);
        crate::median(&per_second[..whole])
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
pub const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (so it would not be supported).
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (n > 0 && n >= rank.max(1) + MIN_BEYOND).then(|| dfr_bench::percentile(samples, p))
}

/// The highest of [`TAILS`] the samples support, with its value.
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| supported_percentile(samples, p).map(|v| (p, v)))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the metrics, each as `{"value", "unit"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|(def, v)| {
            (
                def.name,
                json_object(&[("value", json_f64(*v)), ("unit", json_str(def.unit))]),
            )
        })
        .collect();
    json_object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json_object(&fields)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfr_bench::Json;
    use std::time::Duration;

    #[test]
    fn p99_needs_a_thousand_samples_and_p90_a_hundred() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 99.0), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 99.0), Some(990.0));
        assert_eq!(supported_tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 90.0), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 90.0), Some(90.0));
        assert_eq!(supported_tail(&s), Some((90.0, 90.0)));
    }

    #[test]
    fn tiny_samples_support_no_tail() {
        assert_eq!(supported_tail(&[]), None);
        let s: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(supported_tail(&s), None);
        // The median of 20 samples has exactly 10 beyond it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 50.0), Some(10.0));
    }

    #[test]
    fn failures_recorded_as_infinite_latency_miss_the_percentile() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        for v in s.iter_mut().skip(985) {
            *v = f64::INFINITY;
        }
        assert_eq!(supported_percentile(&s, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn throughput_is_the_median_whole_slice() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut slices = Slices::new(t0);
        // 10, 2 (a stalled second), 12 and a partial fourth second.
        slices.add(at(100), 10.0);
        slices.add(at(1500), 2.0);
        slices.add(at(2100), 12.0);
        slices.add(at(3200), 50.0);
        assert_eq!(slices.rate(at(3500)), 10.0);
        // A second with no completions at all counts as zero.
        assert_eq!(Slices::new(t0).rate(at(2000)), 0.0);
        // Shorter than one slice: the mean rate.
        let mut short = Slices::new(t0);
        short.add(at(100), 5.0);
        assert_eq!(short.rate(at(500)), 10.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn layer_values_come_from_spans_counts_and_derived_figures() {
        let mut layers = Layers::default();
        layers.spans.insert("core.forward", (4, 8_000));
        layers.spans.insert("core.features", (2, 6_000_000));
        layers.set("core.sgd_samples", 4.0);
        layers.set("server.unattributed_us", -3.5);
        let value = |name: &str| {
            let def = PER_LAYER.iter().find(|d| d.name == name).unwrap();
            layer_value(def, &layers)
        };
        assert_eq!(value("core.forward_us"), 2.0);
        assert_eq!(value("core.features_ms"), 3.0);
        assert_eq!(value("core.sgd_samples"), 4.0);
        assert_eq!(value("server.unattributed_us"), -3.5);
        assert_eq!(value("client.send_us"), 0.0);
    }

    /// The catalogue, the workload list and `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| json.get(key).unwrap().as_array().unwrap().to_vec();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(key);
            assert_eq!(entries.len(), catalogue.len(), "{key}");
            for (entry, def) in entries.iter().zip(catalogue) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better.name())
                );
            }
        }
        let bounds: Vec<f64> = listed("end_to_end")
            .iter()
            .map(|e| e.get("bound").unwrap().as_f64().unwrap())
            .collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(
            bounds.iter().all(|&b| b <= bounds[0]),
            "setup_s has the largest bound"
        );
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_parses_and_carries_every_metric_with_its_unit() {
        let metrics: Vec<(&MetricDef, f64)> =
            END_TO_END.iter().zip([1.5, 20.25, 2.125, 4000.0]).collect();
        let line = result_line(true, 12, 1, &metrics);
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").unwrap().as_f64(), Some(12.0));
        let got = json.get("metrics").unwrap();
        for (def, v) in metrics {
            let entry = got.get(def.name).unwrap();
            assert_eq!(entry.get("value").unwrap().as_f64(), Some(v));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
        }
    }
}
