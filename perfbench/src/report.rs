//! The metric sets a run reports and the result line it prints.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::stats::{self, MIN_BEYOND};

/// A named metric value with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measurement (0 with 0 samples when the workload does not
    /// exercise the layer).
    pub entry: Entry,
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Entry {
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// Inter-quartile range of those samples as a share of their median
    /// (0 when the value is not a median).
    pub spread: f64,
    /// For a percentile: samples ranked beyond it.
    pub beyond: Option<usize>,
}

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s", "s"),
    ("rounds", "rounds"),
];

/// The service metrics reported once per offered rate.
pub const PER_RATE: [(&str, &str); 13] = [
    ("turnaround_ms.p50", "ms"),
    ("turnaround_ms.p99", "ms"),
    ("warp.submit_ms.p50", "ms"),
    ("warp.poll_ms.p50", "ms"),
    ("warp.polls_per_job", "count"),
    ("jobs.run_ms.p50", "ms"),
    ("jobs.run_ms.p99", "ms"),
    ("jobs.wait_ms.p50", "ms"),
    ("jobs.wait_ms.p99", "ms"),
    ("jobs.backlog_max", "count"),
    ("graphs.patch_ms.p50", "ms"),
    ("journal.bytes_per_job", "bytes"),
    ("loadgen.lag_ms.p99", "ms"),
];

/// Per-layer metrics that are not per-rate, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("error_frac", "ratio"),
    ("restab_s", "s"),
    ("ack_ms.p99", "ms"),
    ("recover_s", "s"),
    ("graph.generate_s", "s"),
    ("graph.verify_s", "s"),
    ("core.init_s", "s"),
    ("core.rounds.busy", "count"),
    ("core.rounds.tail", "count"),
    ("core.round_ms.busy", "ms"),
    ("core.round_ms.tail", "ms"),
    ("core.ns_per_arc.busy", "ns"),
    ("core.ns_per_arc.tail", "ns"),
    ("core.ns_per_active", "ns"),
    ("pool.dispatches_per_round", "count"),
    ("pool.barriers_per_round", "count"),
    ("core.random_bits_per_vertex", "bits"),
    ("core.restab_rounds", "count"),
    ("core.apply_mutation_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Offered-rate suffixes of the service workload.
pub const RATES: [&str; 2] = ["low", "high"];

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for (name, unit) in PER_RATE {
        for rate in RATES {
            names.push((format!("{name}.{rate}"), unit));
        }
    }
    names
}

/// Values collected during a run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values {
    entries: BTreeMap<String, Entry>,
}

impl Values {
    /// Sets `name` to a single measured value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.set_entry(
            name,
            Entry {
                value,
                samples: 1,
                ..Entry::default()
            },
        );
    }

    /// Sets `name` to a value derived from `samples` samples (a mean or a
    /// ratio of totals).
    pub fn set_sampled(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.set_entry(
            name,
            Entry {
                value,
                samples,
                ..Entry::default()
            },
        );
    }

    /// Sets `name` to the median of `values`, recording count and spread.
    pub fn set_median(&mut self, name: impl Into<String>, values: &[f64]) {
        let entry = Entry {
            value: stats::median(values),
            samples: values.len(),
            spread: stats::relative_iqr(values),
            beyond: None,
        };
        self.set_entry(name, entry);
    }

    /// Sets `name` to the nearest-rank `q`-quantile of `values`, recording
    /// how many samples lie beyond it.
    pub fn set_quantile(&mut self, name: impl Into<String>, values: &[f64], q: f64) {
        let p = stats::quantile(values, q);
        let entry = Entry {
            value: p.value,
            samples: p.n,
            spread: 0.0,
            beyond: Some(p.beyond),
        };
        self.set_entry(name, entry);
    }

    fn set_entry(&mut self, name: impl Into<String>, entry: Entry) {
        self.entries.insert(name.into(), entry);
    }

    /// The listed metrics in order; a metric the workload does not exercise
    /// reads 0 with 0 samples.
    pub fn select(&self, names: &[(String, &'static str)]) -> Vec<Metric> {
        names
            .iter()
            .map(|(name, unit)| Metric {
                name: name.clone(),
                unit,
                entry: self.entries.get(name).copied().unwrap_or_default(),
            })
            .collect()
    }
}

/// Formats a finite number as JSON with all its digits (shortest
/// round-trip form).
pub fn json_number(value: f64) -> String {
    assert!(
        value.is_finite(),
        "metric values must be finite, got {value}"
    );
    let text = format!("{value:?}");
    text.trim_end_matches(".0").to_string()
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.entry.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Run metadata for every metric: sample count, spread, and for
/// percentiles the samples beyond the rank; a percentile with fewer than
/// [`MIN_BEYOND`] samples beyond it is flagged as not reportable.
pub fn sample_summary(metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let e = m.entry;
            let tail = e.beyond.map_or(String::new(), |b| {
                format!(", \"beyond\": {b}, \"reportable\": {}", b >= MIN_BEYOND)
            });
            format!(
                "\"{}\": {{\"samples\": {}, \"iqr_over_median\": {}{tail}}}",
                m.name,
                e.samples,
                json_number(e.spread)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.0), "0");
        assert_eq!(json_number(1e-7), "1e-7");
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        values.set_median("solve_s", &[2.0, 1.0, 3.0]);
        let names: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let metrics = values.select(&names);
        assert_eq!(metrics[2].entry.value, 2.0);
        assert_eq!(metrics[2].entry.samples, 3);
        assert_eq!(metrics[1].entry.samples, 0);
        let line = result_line(true, 3, 0, &metrics);
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let text = serde_json::to_string(&parsed).unwrap();
        assert!(text.contains("\"solve_s\""));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }

    #[test]
    fn percentiles_state_their_tail_and_flag_short_ones() {
        let mut values = Values::default();
        let ramp: Vec<f64> = (1..=1000).map(f64::from).collect();
        values.set_quantile("long", &ramp, 0.99);
        values.set_quantile("short", &ramp[..500], 0.99);
        let names = vec![("long".to_string(), "ms"), ("short".to_string(), "ms")];
        let summary = sample_summary(&values.select(&names));
        assert!(summary.contains("\"long\": {\"samples\": 1000, \"iqr_over_median\": 0, \"beyond\": 10, \"reportable\": true}"));
        assert!(summary.contains("\"short\": {\"samples\": 500, \"iqr_over_median\": 0, \"beyond\": 5, \"reportable\": false}"));
        let parsed: Result<serde_json::Value, _> = serde_json::from_str(&summary);
        assert!(parsed.is_ok());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer_names();
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
    }
}
