//! # endurance-obs
//!
//! The workspace-wide observability layer: always-on atomic metrics,
//! opt-in span timing, point-in-time snapshots with delta semantics,
//! and a Prometheus-style text exposition — with **zero** external
//! dependencies beyond the vendored `serde` stand-in (snapshots must
//! serialize into bench artifacts).
//!
//! The design follows the tracer-driver principle (see
//! `docs/OBSERVABILITY.md`): instrumentation cost is fixed and tiny at
//! every site — a single branch plus a relaxed atomic — and the cost of
//! actually *observing* (snapshots, rendering, reporting) is paid by
//! the observer on its own schedule.
//!
//! ```rust
//! use endurance_obs::{Registry, TextExposition};
//!
//! let registry = Registry::new();
//! let frames = registry.counter_with("store_frames_written_total", &[("lane", "0")]);
//! let append = registry.histogram("store_append_ns");
//!
//! frames.inc();
//! {
//!     let _span = append.span(); // records elapsed ns on drop
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter_total("store_frames_written_total"), 1);
//! let text = TextExposition::render(&snapshot);
//! assert!(text.contains("store_frames_written_total{lane=\"0\"} 1"));
//!
//! // The default for uninstrumented runs: same API, near-zero cost,
//! // empty snapshots.
//! let off = Registry::disabled();
//! off.counter("store_frames_written_total").inc();
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod hub;
mod registry;
mod snapshot;
mod text;

pub use hub::{MetricsHub, Reporter};
pub use registry::{bucket_index, Counter, Gauge, Histogram, Registry, Span, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, MetricSample, MetricValue, MetricsSnapshot};
pub use text::TextExposition;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip_through_a_snapshot() {
        let registry = Registry::new();
        let counter = registry.counter("core_session_events_total");
        let gauge = registry.gauge_with("serve_watermark_lag", &[("lane", "1")]);
        let histogram = registry.histogram("store_append_ns");

        counter.add(41);
        counter.inc();
        gauge.add(5);
        gauge.sub(2);
        histogram.record(0);
        histogram.record(1);
        histogram.record(1023);
        histogram.record(1024);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("core_session_events_total"), Some(42));
        assert_eq!(
            snapshot.get("serve_watermark_lag", &[("lane", "1")]),
            Some(&MetricValue::Gauge(3))
        );
        let h = snapshot.histogram("store_append_ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1 + 1023 + 1024);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (10, 1), (11, 1)]);
        assert_eq!(h.bucket_total(), 4);
    }

    #[test]
    fn bucket_index_is_log2_with_a_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn same_name_and_labels_share_one_cell() {
        let registry = Registry::new();
        let a = registry.counter_with("store_rotations_total", &[("lane", "3")]);
        let b = registry.counter_with("store_rotations_total", &[("lane", "3")]);
        let other = registry.counter_with("store_rotations_total", &[("lane", "4")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.get(), 2);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.get("store_rotations_total", &[("lane", "3")]),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(snapshot.counter_total("store_rotations_total"), 3);
    }

    #[test]
    fn disabled_registry_counts_locally_but_snapshots_empty() {
        let registry = Registry::disabled();
        assert!(!registry.enabled());
        let counter = registry.counter("serve_windows_delivered_total");
        counter.add(7);
        // The cell still works — components can read their own counters
        // back (SubscriptionStats relies on this)...
        assert_eq!(counter.get(), 7);
        // ...but nothing is retained for observation.
        assert!(registry.snapshot().is_empty());
        // And spans never touch the clock.
        let histogram = registry.histogram("serve_pump_ns");
        assert!(!histogram.timed());
        drop(histogram.span());
        assert_eq!(histogram.count(), 0);
    }

    #[test]
    fn spans_record_elapsed_nanoseconds_on_drop() {
        let registry = Registry::new();
        let histogram = registry.histogram("core_session_window_close_ns");
        {
            let span = histogram.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
            span.end();
        }
        assert_eq!(histogram.count(), 1);
        assert!(
            histogram.sum() >= 2_000_000,
            "span recorded {} ns",
            histogram.sum()
        );
        drop(Span::disabled());
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_but_passes_gauges_through() {
        let registry = Registry::new();
        let counter = registry.counter("sim_fleet_events_total");
        let gauge = registry.gauge("sim_fleet_queue_depth");
        let histogram = registry.histogram("store_append_ns");
        counter.add(10);
        gauge.set(50);
        histogram.record(100);
        let first = registry.snapshot();
        counter.add(5);
        gauge.set(20);
        histogram.record(100);
        histogram.record(3);
        let second = registry.snapshot();

        let delta = second.delta(&first);
        assert_eq!(delta.counter("sim_fleet_events_total"), Some(5));
        assert_eq!(delta.gauge("sim_fleet_queue_depth"), Some(20));
        let h = delta.histogram("store_append_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 103);
        assert_eq!(h.bucket_total(), 2);
    }

    #[test]
    fn snapshots_serialize_and_deserialize_stably() {
        let registry = Registry::new();
        registry
            .counter_with("store_frames_written_total", &[("lane", "0")])
            .add(3);
        registry.gauge("serve_watermark_lag").set(-2);
        registry.histogram("core_session_push_ns").record(17);
        let snapshot = registry.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
        // Stable ordering: serializing twice yields identical bytes.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn text_exposition_renders_prometheus_style_lines() {
        let registry = Registry::new();
        registry
            .counter_with("store_frames_written_total", &[("lane", "2")])
            .add(9);
        registry.gauge("core_fleet_streams_open").set(4);
        let histogram = registry.histogram("serve_pump_ns");
        histogram.record(1);
        histogram.record(2);
        histogram.record(3);
        let text = TextExposition::render(&registry.snapshot());
        assert!(text.contains("store_frames_written_total{lane=\"2\"} 9\n"));
        assert!(text.contains("core_fleet_streams_open 4\n"));
        assert!(text.contains("serve_pump_ns_count 3\n"));
        assert!(text.contains("serve_pump_ns_sum 6\n"));
        assert!(text.contains("serve_pump_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("serve_pump_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("serve_pump_ns_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn reporter_ticks_and_flushes_on_stop() {
        use std::sync::{Arc, Mutex};

        /// A writer the test can inspect after the reporter is gone.
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let registry = Registry::new();
        let hub = MetricsHub::new(Arc::clone(&registry));
        let buf = SharedBuf::default();
        let reporter = hub.spawn_reporter(std::time::Duration::from_millis(5), buf.clone());
        hub.registry().counter("sim_fleet_events_total").add(100);
        std::thread::sleep(std::time::Duration::from_millis(30));
        reporter.stop();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("# tick 1 "), "got: {text}");
        assert!(text.contains("sim_fleet_events_total 100"), "got: {text}");
    }
}
