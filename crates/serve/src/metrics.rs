//! Service metrics: lock-free counters plus a request-latency histogram,
//! exported through the deterministic [`MetricsRegistry`] JSON shape.
//!
//! [`ServeMetrics`] doubles as the server's [`EventSink`]: the store and
//! certificate-cache counters are tallied from the events of the per-cell
//! store step (`gdp_scenarios::lookup_cell` and `compute_and_save`) that
//! `gdp sweep` runs too, so the two paths cannot drift apart.  Serve
//! brackets only the cells it computes with `cell_start`/`cell_finish`,
//! where a sweep brackets every cell, so `serve.cells_computed` counts
//! `cell_finish` events.  Counter values are monotone over the process
//! lifetime; the latency histogram is wall-clock and therefore the one
//! non-deterministic part of the export (same stance as `gdp sweep
//! --timing`).

use gdp_observe::{AtomicLog2Histogram, Event, EventSink, Log2Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};

/// The server's metric set.  All methods take `&self`; every field is an
/// atomic, so one `Arc<ServeMetrics>` serves the accept loop, every
/// connection thread and every pool worker.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    connections: AtomicU64,
    requests: AtomicU64,
    sweeps: AtomicU64,
    cells_streamed: AtomicU64,
    cells_computed: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_quarantines: AtomicU64,
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
    queue_rejections: AtomicU64,
    queue_peak_depth: AtomicU64,
    line_rejections: AtomicU64,
    request_us: AtomicLog2Histogram,
}

impl ServeMetrics {
    /// A zeroed metric set.
    #[must_use]
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Counts one accepted TCP connection.
    pub fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one parsed request line (of any type).
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one admitted sweep request.
    pub fn note_sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one cell line streamed to a client.
    pub fn note_cell_streamed(&self) {
        self.cells_streamed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one sweep request rejected because the compute queue was
    /// full.
    pub fn note_queue_rejection(&self) {
        self.queue_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks the high-water mark of the compute queue depth.
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_peak_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Counts one connection closed for sending a request line over the
    /// server's line limit.
    pub fn note_line_rejection(&self) {
        self.line_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's wall-clock latency in microseconds (a cache
    /// hit takes well under a millisecond).
    pub fn note_request_us(&self, micros: u64) {
        self.request_us.record(micros);
    }

    /// A point-in-time [`MetricsRegistry`] snapshot (`serve.*` namespace),
    /// the structure behind the `metrics` protocol answer.
    #[must_use]
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        registry.counter_add("serve.connections", load(&self.connections));
        registry.counter_add("serve.requests", load(&self.requests));
        registry.counter_add("serve.sweeps", load(&self.sweeps));
        registry.counter_add("serve.cells_streamed", load(&self.cells_streamed));
        registry.counter_add("serve.cells_computed", load(&self.cells_computed));
        registry.counter_add("serve.store_hits", load(&self.store_hits));
        registry.counter_add("serve.store_misses", load(&self.store_misses));
        registry.counter_add("serve.store_quarantines", load(&self.store_quarantines));
        registry.counter_add("serve.cert_hit", load(&self.cert_hits));
        registry.counter_add("serve.cert_miss", load(&self.cert_misses));
        registry.counter_add("serve.queue_rejections", load(&self.queue_rejections));
        registry.counter_add("serve.queue_peak_depth", load(&self.queue_peak_depth));
        registry.counter_add("serve.line_rejections", load(&self.line_rejections));
        registry.install_histogram(
            "serve.request_us",
            Log2Histogram::from_counts(self.request_us.snapshot()),
        );
        registry
    }

    /// The `{"type":"metrics",...}` protocol answer: the registry export
    /// compacted onto one line (the registry's pretty-printed JSON contains
    /// no string with meaningful leading whitespace, so joining trimmed
    /// lines preserves the value).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut compact = String::from("{\"type\":\"metrics\",\"metrics\":");
        for line in self.registry().to_json().lines() {
            compact.push_str(line.trim_start());
        }
        compact.push('}');
        compact
    }
}

impl EventSink for ServeMetrics {
    fn record(&self, event: &Event) {
        match event {
            Event::StoreHit { .. } => self.store_hits.fetch_add(1, Ordering::Relaxed),
            Event::StoreMiss { .. } => self.store_misses.fetch_add(1, Ordering::Relaxed),
            Event::StoreQuarantine { .. } => self.store_quarantines.fetch_add(1, Ordering::Relaxed),
            Event::CertHit { .. } => self.cert_hits.fetch_add(1, Ordering::Relaxed),
            Event::CertMiss { .. } => self.cert_misses.fetch_add(1, Ordering::Relaxed),
            Event::CellFinish { .. } => self.cells_computed.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sink_tallies_store_and_cell_events() {
        let metrics = ServeMetrics::new();
        let cell = || "ring/n4/GDP1".to_string();
        metrics.record(&Event::StoreHit {
            clock: 0,
            cell: cell(),
        });
        metrics.record(&Event::StoreMiss {
            clock: 1,
            cell: cell(),
        });
        metrics.record(&Event::StoreMiss {
            clock: 2,
            cell: cell(),
        });
        metrics.record(&Event::StoreQuarantine {
            clock: 3,
            cell: cell(),
        });
        metrics.record(&Event::CellStart {
            clock: 1,
            cell: cell(),
        });
        metrics.record(&Event::CellFinish {
            clock: 1,
            cell: cell(),
        });
        metrics.record(&Event::CertHit {
            clock: 1,
            cell: cell(),
        });
        metrics.record(&Event::CertMiss {
            clock: 2,
            cell: cell(),
        });
        metrics.record(&Event::CertMiss {
            clock: 3,
            cell: cell(),
        });
        let registry = metrics.registry();
        assert_eq!(registry.counter("serve.store_hits"), 1);
        assert_eq!(registry.counter("serve.store_misses"), 2);
        assert_eq!(registry.counter("serve.store_quarantines"), 1);
        assert_eq!(registry.counter("serve.cells_computed"), 1);
        assert_eq!(registry.counter("serve.cert_hit"), 1);
        assert_eq!(registry.counter("serve.cert_miss"), 2);
    }

    #[test]
    fn the_json_line_is_one_line_of_balanced_json() {
        let metrics = ServeMetrics::new();
        metrics.note_connection();
        metrics.note_request();
        metrics.note_queue_depth(3);
        metrics.note_queue_depth(1);
        metrics.note_request_us(300);
        let line = metrics.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"type\":\"metrics\""));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(line.contains("\"serve.connections\": 1"));
        assert!(line.contains("\"serve.queue_peak_depth\": 3"), "{line}");
        assert!(line.contains("\"serve.request_us\""));
        let registry = metrics.registry();
        let request_us = registry.histogram("serve.request_us").unwrap();
        assert!(request_us.quantile(50.0) >= 256.0, "{line}");
    }
}
