//! Workload shapes shared by the criterion benches and `bench_smoke`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use endurance_store::{LaneWriter, StoreConfig};
use lof_anomaly::l1_normalize;
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

/// `n` pmf-like reference points over `dims` event types holding only
/// `distinct` different rows — the shape a periodic multimedia pipeline
/// really produces: pmfs of *integer* event counts in 40 ms windows
/// repeat bit-for-bit (`paper_steady` learns 3 000 × 14 points, 12 of
/// them distinct). Behaviour `b` is the base mix `10 + d` with
/// `1 + b / dims` extra events of type `b % dims`; point `i` shows
/// behaviour `i % distinct`.
///
/// # Panics
///
/// Panics if `distinct` or `dims` is zero.
pub fn duplicated_reference_points(n: usize, dims: usize, distinct: usize) -> Vec<Vec<f64>> {
    let behaviours: Vec<Vec<f64>> = (0..distinct)
        .map(|b| {
            let mut counts: Vec<f64> = (0..dims).map(|d| (10 + d) as f64).collect();
            counts[b % dims] += (1 + b / dims) as f64;
            l1_normalize(&counts)
        })
        .collect();
    (0..n).map(|i| behaviours[i % distinct].clone()).collect()
}

/// `count` queries against [`duplicated_reference_points`]: alternately
/// one of the behaviours itself (a regular window that failed the drift
/// gate) and a mix no behaviour shows (an anomalous window).
pub fn duplicated_queries(count: usize, dims: usize, distinct: usize) -> Vec<Vec<f64>> {
    let behaviours = duplicated_reference_points(distinct, dims, distinct);
    (0..count)
        .map(|q| {
            if q % 2 == 0 {
                return behaviours[q / 2 % distinct].clone();
            }
            let counts: Vec<f64> = (0..dims).map(|d| ((q * (d + 3)) % 40) as f64).collect();
            l1_normalize(&counts)
        })
        .collect()
}

/// Writes a dense store — `windows` small windows per lane (the shape
/// anomaly recording leaves: many short frames) across `lanes` lanes,
/// rotating every `per_segment` — and returns the total event count.
/// This is the shared data set for the replay and compaction configs;
/// with `per_segment >= windows` it is the directory a churning fleet
/// leaves, one one-segment lane per device.
///
/// # Panics
///
/// Panics when the store cannot be written.
pub fn write_replay_store(dir: &Path, lanes: u32, windows: u64, per_segment: u64) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let mut encoder = BinaryEncoder::new();
    let mut events_total = 0u64;
    for lane in 0..lanes {
        let config = StoreConfig::default().with_segment_max_windows(per_segment);
        let mut writer = LaneWriter::create(dir, lane, config).expect("lane");
        for id in 0..windows {
            let events: Vec<TraceEvent> = (0..8u64)
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_micros(id * 40_000 + i * 1_000),
                        EventTypeId::new(((id + i + u64::from(lane)) % 6) as u16),
                        i as u32,
                    )
                })
                .collect();
            let mut encoded = Vec::new();
            encoder.encode(&events, &mut encoded).expect("encode");
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: Timestamp::from_micros(id * 40_000),
                end: Timestamp::from_micros((id + 1) * 40_000),
            };
            writer
                .record_window(&meta, &events, &encoded)
                .expect("record");
            events_total += events.len() as u64;
        }
        writer.close().expect("close");
    }
    events_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lof_anomaly::{LofConfig, LofModel};

    #[test]
    fn duplicated_points_collapse_to_the_requested_rows() {
        let points = duplicated_reference_points(3_000, 14, 12);
        let model = LofModel::fit(points, LofConfig::new(20).unwrap()).unwrap();
        assert_eq!((model.len(), model.distinct_points()), (3_000, 12));
        let queries = duplicated_queries(64, 14, 12);
        assert_eq!(model.score(&queries[0]).unwrap(), 1.0);
        assert!(model.score(&queries[1]).unwrap() > 1.2);
    }
}
