//! A registry of named counters and log2 histograms.
//!
//! This generalizes the runtime's ad-hoc counter structs into something any
//! layer can populate: counters are monotone `u64`s, histograms are
//! [`Log2Histogram`]s, and both are keyed by `&str` names in a `BTreeMap`,
//! so iteration order — and therefore the hand-written JSON export — is
//! deterministic regardless of insertion order.

use crate::histogram::{bucket_floor, Log2Histogram, LOG2_BUCKETS};
use std::collections::BTreeMap;

/// Named counters and histograms with a deterministic JSON export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// The named counter's value (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into the named histogram, creating it empty first.
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Installs a pre-populated histogram under `name` (replacing any
    /// existing one) — used to import histograms recorded elsewhere, e.g.
    /// the serve layer's request latencies.
    pub fn install_histogram(&mut self, name: &str, histogram: Log2Histogram) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Counter names in deterministic (sorted) order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Histogram names in deterministic (sorted) order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Hand-written JSON export: counters, then histograms with their
    /// p50/p90/p99 bucket-quantile estimates and sparse non-empty buckets
    /// (`[floor, count]` pairs).  Deterministic because both maps iterate
    /// in sorted order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, histogram) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{name}\": {{\"total\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                histogram.total(),
                histogram.quantile(50.0),
                histogram.quantile(90.0),
                histogram.quantile(99.0),
            ));
            let mut first_bucket = true;
            for bucket in 0..LOG2_BUCKETS {
                let count = histogram.counts()[bucket];
                if count == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                out.push_str(&format!("[{}, {count}]", bucket_floor(bucket)));
            }
            out.push_str("]}");
        }
        out.push_str(if first { "}\n}\n" } else { "\n  }\n}\n" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut registry = MetricsRegistry::new();
        assert_eq!(registry.counter("meals"), 0);
        registry.counter_add("meals", 2);
        registry.counter_add("meals", 3);
        registry.counter_add("steps", 1);
        assert_eq!(registry.counter("meals"), 5);
        assert_eq!(registry.counter("steps"), 1);
    }

    #[test]
    fn histograms_record_and_estimate() {
        let mut registry = MetricsRegistry::new();
        for v in [1u64, 2, 4, 8, 1024] {
            registry.histogram_record("wait", v);
        }
        let h = registry.histogram("wait").unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.quantile(50.0), 4.0);
        assert!(registry.histogram("missing").is_none());
    }

    #[test]
    fn json_export_is_deterministic_and_order_independent() {
        let mut a = MetricsRegistry::new();
        a.counter_add("zebra", 1);
        a.counter_add("apple", 2);
        a.histogram_record("late", 100);
        a.histogram_record("early", 3);

        let mut b = MetricsRegistry::new();
        b.histogram_record("early", 3);
        b.counter_add("apple", 2);
        b.histogram_record("late", 100);
        b.counter_add("zebra", 1);

        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        // Sorted order: apple before zebra, early before late.
        assert!(json.find("apple").unwrap() < json.find("zebra").unwrap());
        assert!(json.find("early").unwrap() < json.find("late").unwrap());
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_registry_exports_empty_maps() {
        let json = MetricsRegistry::new().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn install_histogram_replaces() {
        let mut registry = MetricsRegistry::new();
        registry.histogram_record("h", 1);
        let mut replacement = Log2Histogram::new();
        replacement.record(1024);
        replacement.record(2048);
        registry.install_histogram("h", replacement);
        assert_eq!(registry.histogram("h").unwrap().total(), 2);
    }
}
