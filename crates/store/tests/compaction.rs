//! Compaction invariants, property-tested: a maintenance pass at *any*
//! point — any segment geometry, any merge threshold, any retention
//! horizon, clean close or crash — must preserve the exact payload bytes
//! of every surviving window, answer `windows_in_range` identically for
//! the retained set, and leave a store that reopens clean and compacts to
//! a fixed point — template tables and templated frames of format-v4
//! segments included, and lanes packed into one file.

mod common;

use proptest::prelude::*;

use common::{dir_contents, schema_3_sidecar};
use endurance_store::{
    Compactor, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader, WindowEntry,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

fn temp_dir(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-compaction-proptest-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `windows` windows (varying sizes) into lane 0, rotating every
/// `per_segment` windows. Returns each window's `(id, end_ns, payload)`.
fn write_run(
    dir: &std::path::Path,
    windows: u64,
    per_segment: u64,
    close: bool,
) -> Vec<(u64, u64, Vec<u8>)> {
    let config = StoreConfig::default().with_segment_max_windows(per_segment);
    let mut writer = LaneWriter::create(dir, 0, config).unwrap();
    let mut recorded = Vec::new();
    for id in 0..windows {
        // Window sizes vary so segment byte sizes differ.
        let count = 3 + (id % 5) as usize * 4;
        let events: Vec<TraceEvent> = (0..count as u64)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(id * 40_000 + i * 100),
                    EventTypeId::new(((id + i) % 5) as u16),
                    i as u32,
                )
            })
            .collect();
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_micros(id * 40_000),
            end: Timestamp::from_micros((id + 1) * 40_000),
        };
        writer.record_window(&meta, &events, &encoded).unwrap();
        recorded.push((id, (id + 1) * 40_000 * 1_000, encoded));
    }
    if close {
        writer.close().unwrap();
    }
    recorded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compaction_preserves_surviving_windows_exactly(
        windows in 1u64..24,
        per_segment in 1u64..6,
        close in any::<bool>(),
        merge_everything in any::<bool>(),
        retention_fraction in 0.0f64..1.3,
    ) {
        let tag = windows * 1_000_000
            + per_segment * 10_000
            + u64::from(close) * 1_000
            + u64::from(merge_everything) * 100
            + (retention_fraction * 73.0) as u64;
        let dir = temp_dir(tag);
        let recorded = write_run(&dir, windows, per_segment, close);

        // Retention horizon as a fraction of the run's span; > 1.0 keeps
        // everything, small fractions drop most of the run.
        let span_ns = windows * 40_000_000;
        let retention_ns = (span_ns as f64 * retention_fraction) as u64;
        let mut policy = if merge_everything {
            MaintenancePolicy::merge_below(u64::MAX)
        } else {
            // Merge only genuinely small segments (below one mid-size
            // frame run) so some segments stay untouched.
            MaintenancePolicy::merge_below(600)
        };
        policy = policy.with_retention_ns(retention_ns.max(1));

        // Expected survivors, straight from the write log.
        let newest_end = recorded.iter().map(|(_, end, _)| *end).max().unwrap();
        let cutoff = newest_end.saturating_sub(retention_ns.max(1));
        let survivors: Vec<&(u64, u64, Vec<u8>)> =
            recorded.iter().filter(|(_, end, _)| *end > cutoff).collect();

        // Range answers before compaction, restricted to the retained set.
        let before = StoreReader::open(&dir).unwrap();
        let probe_ranges = [
            (Timestamp::from_nanos(0), Timestamp::from_nanos(newest_end)),
            (
                Timestamp::from_nanos(cutoff),
                Timestamp::from_nanos(newest_end),
            ),
            (
                Timestamp::from_nanos(cutoff + span_ns / 7),
                Timestamp::from_nanos(cutoff + span_ns / 3),
            ),
        ];
        let surviving_ids: std::collections::HashSet<u64> =
            survivors.iter().map(|(id, _, _)| *id).collect();
        let answers_before: Vec<Vec<(u64, Vec<TraceEvent>)>> = probe_ranges
            .iter()
            .map(|(from, to)| {
                before
                    .windows_in_range(0, *from, *to)
                    .unwrap()
                    .into_iter()
                    .filter(|(id, _)| surviving_ids.contains(&id.index()))
                    .map(|(id, events)| (id.index(), events))
                    .collect()
            })
            .collect();
        drop(before);

        let report = Compactor::new(&dir, policy).compact().unwrap();
        prop_assert_eq!(report.lanes.len(), 1);
        prop_assert_eq!(
            report.windows_dropped(),
            (recorded.len() - survivors.len()) as u64
        );

        // The compacted store reopens clean and holds exactly the
        // surviving windows, ids and payload bytes intact.
        let after = StoreReader::open(&dir).unwrap();
        prop_assert!(after.recovery().clean, "compaction rewrites the sidecar");
        if survivors.is_empty() {
            prop_assert!(after.lane_windows(0).map_or(true, |w| w.is_empty()));
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let entries = after.lane_windows(0).unwrap().to_vec();
        let kept_ids: Vec<u64> = entries.iter().map(|w| w.window_id).collect();
        let expected_ids: Vec<u64> = survivors.iter().map(|(id, _, _)| *id).collect();
        prop_assert_eq!(&kept_ids, &expected_ids);
        for (entry, (_, _, payload)) in entries.iter().zip(&survivors) {
            let got = after
                .window_payload(0, WindowId::new(entry.window_id))
                .unwrap()
                .unwrap();
            prop_assert_eq!(&got, payload, "window {} payload", entry.window_id);
        }
        // Concatenated payloads match the survivors' concatenation.
        let all_bytes: Vec<u8> = survivors
            .iter()
            .flat_map(|(_, _, payload)| payload.iter().copied())
            .collect();
        prop_assert_eq!(after.lane_payload_bytes(0).unwrap(), all_bytes);

        // windows_in_range answers identically (over the retained set).
        for ((from, to), expected) in probe_ranges.iter().zip(&answers_before) {
            let got: Vec<(u64, Vec<TraceEvent>)> = after
                .windows_in_range(0, *from, *to)
                .unwrap()
                .into_iter()
                .map(|(id, events)| (id.index(), events))
                .collect();
            prop_assert_eq!(&got, expected);
        }

        // Compaction is idempotent: a second pass changes nothing.
        let again = Compactor::new(&dir, policy).compact().unwrap();
        prop_assert!(again.is_noop(), "{}", again);
        let fixed = StoreReader::open(&dir).unwrap();
        let fixed_ids: Vec<u64> = fixed
            .lane_windows(0)
            .unwrap()
            .iter()
            .map(|w| w.window_id)
            .collect();
        prop_assert_eq!(&fixed_ids, &expected_ids);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The benchmark's `churn` in miniature: hundreds of short-lived lanes of
/// one segment each, 1–8 events per window, jittered nanosecond
/// timestamps — a third of them compressed by an earlier pass, all of
/// them maintained with and without compression (towards `Identity` a
/// pass only re-frames). A frame's envelope used to outweigh
/// its block here, and re-framing v1 as v2 made every lane five bytes a
/// window *larger* while the report said nothing had happened.
#[test]
fn no_lane_grows_under_maintenance() {
    use endurance_store::CodecId;
    for target in [CodecId::DeltaVarint, CodecId::Identity] {
        let dir = temp_dir(9_000_000 + u64::from(target.as_u8()));
        // xorshift: a stream of window sizes and timestamp jitter that
        // is the same on every run.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut recorded = std::collections::BTreeMap::new();
        for lane in 0..300u32 {
            let mut writer = LaneWriter::create(&dir, lane, StoreConfig::default()).unwrap();
            let mut payloads = Vec::new();
            // Streams join late: the first window of a lane is far from 0.
            let mut clock = u64::from(lane) * 37_000_000_000 + next(1_000_000_000);
            let first_id = next(400);
            for id in first_id..first_id + 1 + next(30) {
                let start = clock;
                let events: Vec<TraceEvent> = (0..1 + next(8))
                    .map(|i| {
                        clock += 1_000_000 + next(3_000_000);
                        TraceEvent::new(
                            Timestamp::from_nanos(clock),
                            EventTypeId::new(next(6) as u16),
                            (id * 10 + i) as u32,
                        )
                    })
                    .collect();
                clock = start + 40_000_000;
                let mut encoded = Vec::new();
                BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
                let meta = RecordMeta {
                    window_id: WindowId::new(id),
                    start: Timestamp::from_nanos(start),
                    end: Timestamp::from_nanos(clock),
                };
                writer.record_window(&meta, &events, &encoded).unwrap();
                payloads.extend(encoded);
                // Most windows follow their predecessor; some do not.
                if next(5) == 0 {
                    clock += 40_000_000 * (1 + next(50));
                }
            }
            writer.close().unwrap();
            recorded.insert(lane, payloads);
        }
        let earlier = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
        for lane in (1..300u32).step_by(3) {
            Compactor::new(&dir, earlier).compact_lane(lane).unwrap();
        }

        let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(target);
        let report = Compactor::new(&dir, policy).compact().unwrap();
        assert_eq!(report.lanes.len(), 300);
        for lane in &report.lanes {
            assert!(
                lane.bytes_after <= lane.bytes_before,
                "{target}: lane {} grew, {} -> {} bytes",
                lane.lane,
                lane.bytes_before,
                lane.bytes_after
            );
            // Lanes still v1 are rewritten whether or not the codec took a
            // single frame, and say so; the ones compressed before are left.
            let v1 = lane.lane % 3 != 1;
            assert_eq!(
                lane.segments_rewritten,
                usize::from(v1),
                "lane {}",
                lane.lane
            );
            assert_eq!(lane.is_noop(), !v1, "lane {}", lane.lane);
            // Segment headers, envelopes and blocks are all there is.
            assert_eq!(
                lane.bytes_after,
                13 * lane.segments_after as u64 + lane.envelope_bytes_after + lane.stored_bytes,
                "lane {}",
                lane.lane
            );
            assert_eq!(lane.payload_bytes, recorded[&lane.lane].len() as u64);
        }
        assert_eq!(report.grown_bytes(), 0, "{report}");
        assert!(report.reclaimed_bytes() > 0, "{report}");
        let (envelope_before, envelope_after) = report.envelope_bytes();
        assert!(envelope_after < envelope_before, "{report}");

        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.recovery().clean);
        for (lane, payloads) in &recorded {
            assert_eq!(&reader.lane_payload_bytes(*lane).unwrap(), payloads);
        }
        drop(reader);

        // Converged: a second pass writes nothing, byte for byte.
        let settled = dir_contents(&dir);
        let again = Compactor::new(&dir, policy).compact().unwrap();
        assert!(again.is_noop(), "{again}");
        assert_eq!(again.reclaimed_bytes() + again.grown_bytes(), 0);
        assert!(
            dir_contents(&dir) == settled,
            "{target}: the second pass moved bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// "Where did the bytes go" is answerable from the registry alone: how
/// many frames each lane's writer appended, and per pass the envelope
/// going in and coming out beside the bytes reclaimed — or grown.
#[test]
fn the_registry_says_where_the_bytes_went() {
    use endurance_obs::{MetricValue, Registry};
    use endurance_store::CodecId;
    let dir = temp_dir(9_100_000);
    let registry = Registry::new();
    for lane in [0u32, 1] {
        let mut writer = LaneWriter::create(&dir, lane, StoreConfig::default())
            .unwrap()
            .with_metrics(&registry);
        for id in 0..(5 + u64::from(lane)) {
            let events = vec![TraceEvent::new(
                Timestamp::from_millis(id * 40 + 1),
                EventTypeId::new(1),
                id as u32,
            )];
            let mut encoded = Vec::new();
            BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
            let meta = RecordMeta {
                window_id: WindowId::new(id),
                start: Timestamp::from_millis(id * 40),
                end: Timestamp::from_millis((id + 1) * 40),
            };
            writer.record_window(&meta, &events, &encoded).unwrap();
        }
        writer.close().unwrap();
    }
    let written = registry.snapshot();
    let frames = |lane: &str| match written.get("store_frames_written_total", &[("lane", lane)]) {
        Some(MetricValue::Counter(count)) => Some(*count),
        _ => None,
    };
    assert_eq!((frames("0"), frames("1")), (Some(5), Some(6)));
    assert_eq!(written.counter_total("store_frames_written_total"), 11);

    // Lane 1 was compressed by an earlier, unmetered pass.
    let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
    Compactor::new(&dir, policy).compact_lane(1).unwrap();
    let compactor = Compactor::new(&dir, policy).with_metrics(&registry);
    let report = compactor.compact().unwrap();
    // Lane 0 was rewritten; lane 1, already v3, was left alone and adds
    // nothing.
    assert!(!report.lanes[0].is_noop() && report.lanes[1].is_noop());
    let lane = &report.lanes[0];
    assert_eq!(lane.envelope_bytes_before, 5 * 36);
    // 5 bytes of header a frame; 9 of meta against (0, 0, 0) — the 40 ms
    // span takes four — and 6 against a predecessor.
    assert_eq!(lane.envelope_bytes_after, (5 + 9) + 4 * (5 + 6));
    let passed = registry.snapshot();
    let counter = |name: &str| passed.counter(name).unwrap();
    assert_eq!(counter("store_compaction_passes_total"), 1);
    assert_eq!(counter("store_compaction_envelope_before_bytes_total"), 180);
    assert_eq!(counter("store_compaction_envelope_after_bytes_total"), 58);
    // What was reclaimed is what the envelope and the codec gave back.
    let reclaimed = (180 - 58) + (lane.payload_bytes - lane.stored_bytes);
    assert_eq!(lane.reclaimed_bytes(), reclaimed);
    assert_eq!(counter("store_compaction_reclaimed_bytes_total"), reclaimed);
    assert_eq!(counter("store_compaction_grown_bytes_total"), 0);
    let rendered = format!("{report}");
    assert!(
        rendered.contains(&format!("{reclaimed} byte(s) reclaimed, 0 byte(s) grown"))
            && rendered.contains("(envelope 180 -> 58)"),
        "{rendered}"
    );

    // A pass that changes nothing counts nothing.
    compactor.compact().unwrap();
    let again = registry.snapshot();
    assert_eq!(again.counter("store_compaction_passes_total"), Some(1));
    assert_eq!(
        again.counter("store_compaction_envelope_before_bytes_total"),
        Some(180)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs that hold v4 segments: a merge and a retention rewrite replay
/// what was recorded, byte for byte, and code every templated block anew
/// against the consolidated segment's own table — none is copied from the
/// segment whose table it named. Neither pass has a recompression target,
/// so neither counts a frame as recompressed.
#[test]
fn merges_and_retention_over_v4_segments_code_templated_blocks_anew() {
    use common::{segment_files, write_compressed_lane, Window};
    use endurance_store::CodecId;
    let dir = temp_dir(9_200_000);
    // 48 windows of four shapes, every eleventh with a payload of its own;
    // eight to a run, each run recompressed into a segment of its own.
    // Each run opens on another shape, so each segment numbers the shapes
    // in another order: a templated block copied to the merged segment
    // would name another shape's template, and replay would say so.
    let windows: Vec<Window> = (0..48u64)
        .map(|id| {
            let (start, shape) = (id * 40_000_000, (id + id / 8) % 4);
            let events = (0..6 + shape)
                .map(|row| {
                    TraceEvent::new(
                        Timestamp::from_nanos(start + row * 5_000_000 + (id * 13) % 700),
                        EventTypeId::new(((shape + row) % 5) as u16),
                        (shape * 100 + row) as u32 + u32::from(id % 11 == row),
                    )
                })
                .collect();
            Window::new(id, start, start + 40_000_000, events)
        })
        .collect();
    write_compressed_lane(&dir, 0, &windows, 8, CodecId::DeltaVarint);
    let versions = |dir: &std::path::Path| -> Vec<u8> {
        segment_files(dir, 0).iter().map(|file| file.1).collect()
    };
    assert_eq!(versions(&dir), [4; 6]);
    // The table at byte 13 of a v4 segment: `varint L`, CRC-32, `L` bytes.
    let table = |segment: &str| {
        let segment = std::fs::read(dir.join(segment)).unwrap();
        let (mut len, mut at) = (0usize, 13);
        while segment[at] & 0x80 != 0 {
            len |= usize::from(segment[at] & 0x7f) << (7 * (at - 13));
            at += 1;
        }
        len |= usize::from(segment[at]) << (7 * (at - 13));
        trace_model::codec::TemplateTable::parse(&segment[at + 5..at + 5 + len]).unwrap()
    };
    let first_rows = |table: &trace_model::codec::TemplateTable| table.rows(0).unwrap().len();
    assert_ne!(
        first_rows(&table("lane0000-000000.seg")),
        first_rows(&table("lane0000-000001.seg"))
    );
    let codecs = |dir: &std::path::Path| -> Vec<u8> {
        let reader = StoreReader::open(dir).unwrap();
        let rows = reader.lane_windows(0).unwrap();
        rows.iter().map(|row| row.codec).collect()
    };
    let templated = |codecs: &[u8]| codecs.iter().filter(|codec| **codec == 4).count() as u64;
    let payloads = |windows: &[Window]| -> Vec<u8> {
        windows.iter().flat_map(|w| w.payload.clone()).collect()
    };

    // Merge: one segment, whose table holds each shape once, and every
    // frame that was templated coded anew — the rest carried over.
    let before = templated(&codecs(&dir));
    assert!(before > 40, "{before}");
    let merge = MaintenancePolicy::merge_below(u64::MAX / 4);
    let report = Compactor::new(&dir, merge).compact().unwrap();
    assert_eq!(report.frames_by_codec(), [0; 5], "{report}");
    assert_eq!(report.grown_bytes(), 0, "{report}");
    assert_eq!(versions(&dir), [4]);
    assert_eq!(table("lane0000-000000.seg").len(), 4);
    assert!(templated(&codecs(&dir)) >= before);
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_eq!(reader.lane_payload_bytes(0).unwrap(), payloads(&windows));
    drop(reader);
    assert!(Compactor::new(&dir, merge).compact().unwrap().is_noop());

    // Retention takes the head: the rest is rewritten behind new
    // predecessors, its templates chosen again from the windows left.
    let cutoff = windows[29].end_ns;
    let retain = merge.with_retention_ns(windows[47].end_ns - cutoff);
    let surviving = templated(&codecs(&dir)[30..]);
    let report = Compactor::new(&dir, retain).compact().unwrap();
    assert_eq!(report.windows_dropped(), 30);
    assert_eq!(report.recompressed_windows(), 0, "{report}");
    assert!(surviving > 0);
    assert_eq!(versions(&dir), [4]);
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(
        reader.lane_payload_bytes(0).unwrap(),
        payloads(&windows[30..])
    );
    assert!(codecs(&dir).contains(&4));
    std::fs::remove_dir_all(&dir).ok();
}

/// A template can save more than its rows cost in the table and still not
/// pay for the table section around them (`varint L`, the CRC, `varint
/// T`): such a segment is written v3, packed rows and all.
#[test]
fn a_table_that_does_not_pay_for_its_section_leaves_the_segment_v3() {
    use common::{segment_files, write_compressed_lane, Window};
    use endurance_store::CodecId;
    use trace_model::codec::{FrameContext, SegmentCoder};
    // Two windows of one three-event shape: each templated block is 8
    // bytes against 12 of packed rows, 8 saved for a template of 7 bytes —
    // admitted — but the section costs 13.
    let windows: Vec<Window> = (0..2u64)
        .map(|id| {
            let start = id * 40_000_000;
            let events = (1..=3u64)
                .map(|row| {
                    TraceEvent::new(
                        Timestamp::from_nanos(start + row * 1_000),
                        EventTypeId::new(row as u16),
                        row as u32,
                    )
                })
                .collect();
            Window::new(id, start, start + 40_000_000, events)
        })
        .collect();
    let mut coder = SegmentCoder::new();
    for window in &windows {
        coder.push(FrameContext::framed(window.start_ns, 3), &window.payload);
    }
    coder.finish();
    assert_eq!(coder.table().len(), 1, "the template is admitted");

    let dir = temp_dir(9_300_000);
    write_compressed_lane(&dir, 0, &windows, 2, CodecId::DeltaVarint);
    let versions: Vec<u8> = segment_files(&dir, 0).iter().map(|file| file.1).collect();
    assert_eq!(versions, [3]);
    let reader = StoreReader::open(&dir).unwrap();
    let codecs: Vec<u8> = reader
        .lane_windows(0)
        .unwrap()
        .iter()
        .map(|row| row.codec)
        .collect();
    assert_eq!(codecs, [CodecId::Packed.as_u8(); 2]);
    let payloads: Vec<u8> = windows.iter().flat_map(|w| w.payload.clone()).collect();
    assert_eq!(reader.lane_payload_bytes(0).unwrap(), payloads);
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over every `.seg` and `.idx` file of `dir`, name and bytes, in
/// name order.
fn store_fingerprint(dir: &std::path::Path) -> u64 {
    dir_contents(dir)
        .into_iter()
        .filter(|(name, _)| name.ends_with(".seg") || name.ends_with(".idx"))
        .flat_map(|(name, bytes)| {
            let mut file = name.into_bytes();
            file.extend((bytes.len() as u64).to_le_bytes());
            file.extend(bytes);
            file
        })
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The bytes a recompressing pass writes are pinned: a minute of a seeded
/// `mm-sim` playback recorded as 40 ms windows, but for five 1 s ones,
/// 64 windows a segment, then one `with_recompress(DeltaVarint)` pass
/// that merges them. The short windows repeat a few shapes, so templates
/// are admitted and most frames are templated rows; on the long ones
/// `EDV`'s columns win. A change to how a pass codes its frames that
/// moves any byte of any `.seg` or `.idx` fails here, not only in the
/// benchmark's store hash.
#[test]
fn a_recompressing_pass_writes_the_pinned_bytes() {
    use endurance_store::CodecId;
    use mm_sim::{Scenario, Simulation};

    let scenario = Scenario::reference(std::time::Duration::from_secs(60), 42).unwrap();
    let registry = scenario.registry().unwrap();
    let events: Vec<TraceEvent> = Simulation::new(&scenario, &registry).unwrap().collect();
    let dir = temp_dir(11_000_000);
    let config = StoreConfig::default().with_segment_max_windows(64);
    let mut writer = LaneWriter::create(&dir, 0, config).unwrap();
    let (mut id, mut start_ns, mut from) = (0u64, 0u64, 0usize);
    while from < events.len() {
        let long = (20_000_000_000..25_000_000_000).contains(&start_ns);
        let end_ns = start_ns + if long { 1_000_000_000 } else { 40_000_000 };
        let to = from
            + events[from..]
                .iter()
                .take_while(|event| event.timestamp.as_nanos() < end_ns)
                .count();
        let window = &events[from..to];
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(window, &mut encoded).unwrap();
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_nanos(start_ns),
            end: Timestamp::from_nanos(end_ns),
        };
        writer.record_window(&meta, window, &encoded).unwrap();
        (id, start_ns, from) = (id + 1, end_ns, to);
    }
    writer.close().unwrap();

    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    let frames = report.frames_by_codec();
    assert!(
        frames[usize::from(CodecId::DeltaVarint.as_u8())] > 0,
        "{report}"
    );
    assert!(
        frames[usize::from(CodecId::Templated.as_u8())] > 0,
        "{report}"
    );
    assert_eq!(
        store_fingerprint(&dir),
        7_813_972_356_121_517_067,
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every answer a reader gives about `lanes` of `dir`, whatever files
/// hold them: events, payloads, each window by id with its neighbours,
/// and a time range, through a reader and through its snapshot.
fn answers(dir: &std::path::Path, lanes: &[u32]) -> Vec<String> {
    let reader = StoreReader::open(dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    let snapshot = reader.snapshot();
    let mut answers = Vec::new();
    for &lane in lanes {
        let ids: Vec<u64> = reader
            .lane_windows(lane)
            .unwrap()
            .iter()
            .map(|entry| entry.window_id)
            .collect();
        answers.push(format!("{lane}: {:?}", reader.lane_events(lane).unwrap()));
        answers.push(format!(
            "{lane}: {:?}",
            snapshot.lane_payload_bytes(lane).unwrap()
        ));
        for id in ids {
            let id = WindowId::new(id);
            let around: Vec<Vec<u8>> = snapshot
                .windows_around(lane, id, 1)
                .unwrap()
                .into_iter()
                .map(|(_, payload)| payload)
                .collect();
            answers.push(format!(
                "{lane}/{id:?}: {:?} {:?} {around:?}",
                reader.window_events(lane, id).unwrap(),
                snapshot.window_payload(lane, id).unwrap(),
            ));
        }
        let range = snapshot.windows_in_range(
            lane,
            Timestamp::from_millis(60),
            Timestamp::from_millis(170),
        );
        answers.push(format!("{lane}: {:?}", range.unwrap()));
    }
    answers
}

fn file_names(dir: &std::path::Path) -> Vec<String> {
    dir_contents(dir).into_keys().collect()
}

/// A packed lane keeps everything but its files: it answers every query
/// as before; a writer resumes it numbering after its packed segment and
/// a follower of that writer reads the packed windows first; a later pass
/// that rewrites a packed segment (a resumed lane's merge, retention)
/// writes it into a newer pack, and a pack whose every lane moved on is
/// deleted.
#[test]
fn a_packed_lane_resumes_is_followed_takes_retention_and_answers_the_same() {
    use endurance_store::{CodecId, Snapshot, TailStep, Tailer};
    let dir = temp_dir(9_250_000);
    let lanes = [0u32, 1, 2];
    let config = StoreConfig::default().with_segment_max_windows(2);
    for lane in lanes {
        let mut writer = LaneWriter::create(&dir, lane, config).unwrap();
        for id in 0..6 {
            record_small(&mut writer, id);
        }
        writer.close().unwrap();
    }
    let before = answers(&dir, &lanes);

    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(
        (report.packs_written, report.lanes_packed),
        (1, 3),
        "{report}"
    );
    assert_eq!(report.pack_dead_bytes, 0, "{report}");
    assert_eq!(file_names(&dir), ["pack000000.idx", "pack000000.seg"]);
    assert_eq!(answers(&dir, &lanes), before);

    // Lane 1 resumes after its packed segment (sequence 2, the last of
    // the three it replaced), followed from the start.
    let mut writer = LaneWriter::create(&dir, 1, config).unwrap();
    assert_eq!(writer.recovery().windows, 6);
    let mut tailer = Tailer::follow(&dir, writer.commit_log());
    for id in 6..8 {
        record_small(&mut writer, id);
    }
    writer.close().unwrap();
    assert!(dir.join("lane0001-000003.seg").exists());
    let mut followed = Vec::new();
    loop {
        match tailer.next(std::time::Duration::from_secs(10)).unwrap() {
            TailStep::Window(window) => followed.extend(window.payload),
            TailStep::Closed => break,
            TailStep::TimedOut => panic!("the writer is gone; the tail must close"),
        }
    }
    let snapshot = Snapshot::open(&dir).unwrap();
    assert_eq!(followed, snapshot.lane_payload_bytes(1).unwrap());
    assert_eq!(snapshot.lane_windows(1).unwrap().len(), 8);
    let resumed = answers(&dir, &lanes);
    assert_eq!(resumed[..2], before[..2], "lane 0 untouched");

    // The resumed lane's packed segment and its new one merge into a
    // newer pack, numbered after its last source; the first pack still
    // holds lanes 0 and 2, and lane 1's entry there, dead.
    let registry = endurance_obs::Registry::new();
    let report = Compactor::new(&dir, policy)
        .with_metrics(&registry)
        .compact()
        .unwrap();
    assert_eq!(
        (report.packs_written, report.lanes_packed),
        (1, 1),
        "{report}"
    );
    // The entry: a 5-byte header and the 207 bytes of the segment's body.
    assert_eq!(report.pack_dead_bytes, 212, "{report}");
    let gauge = registry.gauge("store_pack_dead_bytes");
    assert_eq!(gauge.get(), 212);
    assert_eq!(
        file_names(&dir),
        [
            "pack000000.idx",
            "pack000000.seg",
            "pack000001.idx",
            "pack000001.seg"
        ]
    );
    assert_eq!(answers(&dir, &lanes), resumed);
    let reader = StoreReader::open(&dir).unwrap();
    let segments: Vec<u32> = reader
        .lane_windows(1)
        .unwrap()
        .iter()
        .map(|e| e.segment)
        .collect();
    assert_eq!(segments, [3; 8]);
    drop(reader);

    // Retention rewrites lanes 0 and 2 into a third pack, which leaves
    // the first one dead: it goes.
    let retention = MaintenancePolicy::disabled().with_retention_ns(160_000_000);
    let report = Compactor::new(&dir, retention)
        .with_metrics(&registry)
        .compact()
        .unwrap();
    assert_eq!(
        (report.packs_written, report.lanes_packed),
        (1, 3),
        "{report}"
    );
    assert_eq!(report.pack_dead_bytes, 0, "{report}");
    assert_eq!(gauge.get(), 0);
    assert_eq!(report.windows_dropped(), 2 + 4 + 2);
    assert_eq!(
        file_names(&dir),
        ["pack000002.idx", "pack000002.seg"],
        "lane 1 lost windows too, so the second pack is dead as well"
    );
    let reader = StoreReader::open(&dir).unwrap();
    for (lane, kept) in [(0, 2..6), (1, 4..8), (2, 2..6)] {
        let ids: Vec<u64> = reader
            .lane_windows(lane)
            .unwrap()
            .iter()
            .map(|e| e.window_id)
            .collect();
        assert_eq!(ids, kept.collect::<Vec<_>>(), "lane {lane}");
    }
    drop(reader);
    assert!(Compactor::new(&dir, retention).compact().unwrap().is_noop());
    std::fs::remove_dir_all(&dir).ok();
}

/// Records window `id` of four to six events: a lane of a few of them is a
/// few hundred bytes, far under the pack member bound.
fn record_small(writer: &mut LaneWriter, id: u64) {
    let events: Vec<TraceEvent> = (0..4 + id % 3)
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_micros(id * 40_000 + i * 900),
                EventTypeId::new((i % 2) as u16),
                (id * 7 + i) as u32,
            )
        })
        .collect();
    let mut encoded = Vec::new();
    BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
    let meta = RecordMeta {
        window_id: WindowId::new(id),
        start: Timestamp::from_millis(id * 40),
        end: Timestamp::from_millis((id + 1) * 40),
    };
    writer.record_window(&meta, &events, &encoded).unwrap();
}

/// Records window `id` of 300 events whose values vary too much for any
/// codec to shrink them far, so a segment's size follows its windows.
fn record_heavy(writer: &mut LaneWriter, id: u64) {
    let events: Vec<TraceEvent> = (0..300u64)
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_micros(id * 40_000 + i * 100),
                EventTypeId::new((i % 7) as u16),
                ((id * 300 + i).wrapping_mul(2_654_435_761) >> 5) as u32,
            )
        })
        .collect();
    let mut encoded = Vec::new();
    BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
    let meta = RecordMeta {
        window_id: WindowId::new(id),
        start: Timestamp::from_millis(id * 40),
        end: Timestamp::from_millis((id + 1) * 40),
    };
    writer.record_window(&meta, &events, &encoded).unwrap();
}

fn segment_bytes(dir: &std::path::Path, lane: u32, seq: u32) -> u64 {
    std::fs::metadata(dir.join(format!("lane{lane:04}-{seq:06}.seg")))
        .unwrap()
        .len()
}

/// Each window of `lane` by id, with its events.
fn lane_windows(dir: &std::path::Path, lane: u32) -> Vec<(u64, Vec<TraceEvent>)> {
    let reader = StoreReader::open(dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    let ids: Vec<u64> = reader
        .lane_windows(lane)
        .unwrap()
        .iter()
        .map(|entry| entry.window_id)
        .collect();
    ids.into_iter()
        .map(|id| {
            (
                id,
                reader
                    .window_events(lane, WindowId::new(id))
                    .unwrap()
                    .unwrap(),
            )
        })
        .collect()
}

/// A lane longer than `max_merged_bytes` whose first chunk retention
/// empties: the chunk's files are deleted and the surviving chunk becomes
/// the lane's one segment, alone in a one-lane pass or in a pack with
/// another lane's. When the emptied chunk is a packed segment, the lane
/// moves to a newer pack whose entry holds nothing, and the segments it
/// resumed with survive in a file of their own. A second pass changes
/// nothing each time.
#[test]
fn retention_that_empties_a_split_off_chunk_deletes_it() {
    let write = |dir: &std::path::Path, lane: u32, ids: std::ops::Range<u64>, per_segment| {
        let config = StoreConfig::default().with_segment_max_windows(per_segment);
        let mut writer = LaneWriter::create(dir, lane, config).unwrap();
        for id in ids {
            record_heavy(&mut writer, id);
        }
        writer.close().unwrap();
    };
    // Windows end at 40..320 ms; 160 ms of retention empties segments 0
    // and 1 (windows 0..4) and keeps segments 2 and 3 whole.
    let policy = |dir: &std::path::Path, lane: u32| {
        let sizes: Vec<u64> = (0..4).map(|seq| segment_bytes(dir, lane, seq)).collect();
        let cap = (sizes[0] + sizes[1]).max(sizes[2] + sizes[3]);
        assert!(
            cap >= 4096 && sizes[0] + sizes[1] + sizes[2] > cap,
            "{sizes:?}"
        );
        MaintenancePolicy::merge_below(u64::MAX)
            .with_max_merged_bytes(cap)
            .with_recompress(CodecId::DeltaVarint)
            .with_retention_ns(160_000_000)
    };
    use endurance_store::CodecId;

    // One lane, one pass: the surviving run is a file of its own.
    let dir = temp_dir(9_350_000);
    write(&dir, 0, 0..8, 2);
    let before = lane_windows(&dir, 0);
    let lane_policy = policy(&dir, 0);
    let report = Compactor::new(&dir, lane_policy).compact_lane(0).unwrap();
    assert_eq!(report.windows_dropped, 4, "{report:?}");
    assert_eq!(file_names(&dir), ["lane0000-000002.seg", "lane0000.idx"]);
    assert_eq!(lane_windows(&dir, 0), before[4..]);
    assert!(Compactor::new(&dir, lane_policy)
        .compact()
        .unwrap()
        .is_noop());
    std::fs::remove_dir_all(&dir).ok();

    // With a short lane 1 (windows 6 and 7, one a segment, which merge)
    // the surviving run shares a pack.
    let dir = temp_dir(9_300_001);
    write(&dir, 0, 0..8, 2);
    write(&dir, 1, 6..8, 1);
    let before = [lane_windows(&dir, 0), lane_windows(&dir, 1)];
    let packed_policy = policy(&dir, 0);
    let report = Compactor::new(&dir, packed_policy).compact().unwrap();
    assert_eq!(
        (report.packs_written, report.lanes_packed),
        (1, 2),
        "{report}"
    );
    assert_eq!(file_names(&dir), ["pack000000.idx", "pack000000.seg"]);
    assert_eq!(lane_windows(&dir, 0), before[0][4..]);
    assert_eq!(lane_windows(&dir, 1), before[1]);
    assert!(Compactor::new(&dir, packed_policy)
        .compact()
        .unwrap()
        .is_noop());

    // Lane 0 resumes with one-window segments 4 and 5 (windows 8 and 9,
    // ending at 360 and 400 ms); 80 ms of retention empties its packed
    // segment, which a cap of the two new segments splits off them.
    write(&dir, 0, 8..10, 1);
    let resumed = lane_windows(&dir, 0);
    let cap = segment_bytes(&dir, 0, 4) + segment_bytes(&dir, 0, 5);
    assert!(cap >= 4096, "{cap}");
    let resumed_policy = MaintenancePolicy::merge_below(u64::MAX)
        .with_max_merged_bytes(cap)
        .with_recompress(CodecId::DeltaVarint)
        .with_retention_ns(80_000_000);
    let report = Compactor::new(&dir, resumed_policy)
        .compact_lane(0)
        .unwrap();
    assert_eq!(report.windows_dropped, 4, "{report:?}");
    assert_eq!(
        file_names(&dir),
        [
            "lane0000-000004.seg",
            "lane0000.idx",
            "pack000000.idx",
            "pack000000.seg",
            "pack000001.idx",
            "pack000001.seg"
        ]
    );
    assert_eq!(lane_windows(&dir, 0), resumed[4..]);
    assert_eq!(lane_windows(&dir, 1), before[1]);
    assert!(Compactor::new(&dir, resumed_policy)
        .compact_lane(0)
        .unwrap()
        .is_noop());
    std::fs::remove_dir_all(&dir).ok();
}

/// A run past the packed-member bound (64 KiB) is written as a segment
/// file of its own, between lanes that share a pack, and answers as
/// before; a second pass changes no file.
#[test]
fn a_run_past_the_pack_member_bound_keeps_a_file_of_its_own() {
    use endurance_store::CodecId;
    let dir = temp_dir(9_400_000);
    let lanes = [0u32, 1, 2];
    let config = StoreConfig::default().with_segment_max_windows(2);
    for lane in lanes {
        let mut writer = LaneWriter::create(&dir, lane, config).unwrap();
        for id in 0..if lane == 1 { 60 } else { 6 } {
            if lane == 1 {
                record_heavy(&mut writer, id);
            } else {
                let events = vec![TraceEvent::new(
                    Timestamp::from_millis(id * 40),
                    EventTypeId::new(1),
                    id as u32,
                )];
                let mut encoded = Vec::new();
                BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
                let meta = RecordMeta {
                    window_id: WindowId::new(id),
                    start: Timestamp::from_millis(id * 40),
                    end: Timestamp::from_millis((id + 1) * 40),
                };
                writer.record_window(&meta, &events, &encoded).unwrap();
            }
        }
        writer.close().unwrap();
    }
    let before = answers(&dir, &lanes);

    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(
        (report.packs_written, report.lanes_packed),
        (1, 2),
        "{report}"
    );
    assert_eq!(
        file_names(&dir),
        [
            "lane0001-000000.seg",
            "lane0001.idx",
            "pack000000.idx",
            "pack000000.seg"
        ]
    );
    assert!(segment_bytes(&dir, 1, 0) > 64 << 10);
    assert_eq!(answers(&dir, &lanes), before);

    let files = dir_contents(&dir);
    Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(dir_contents(&dir), files);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes lanes `lanes` of six small windows each in one segment, closed.
fn write_small_lanes(dir: &std::path::Path, lanes: std::ops::Range<u32>) {
    for lane in lanes {
        let mut writer = LaneWriter::create(dir, lane, StoreConfig::default()).unwrap();
        for id in 0..6 {
            record_small(&mut writer, id);
        }
        writer.close().unwrap();
    }
}

/// The pass that rewrites every v1 lane: merged, recompressed.
fn recompressing() -> MaintenancePolicy {
    MaintenancePolicy::merge_below(u64::MAX / 4)
        .with_recompress(endurance_store::CodecId::DeltaVarint)
}

/// A small v1 lane is read once: the pass indexes it by a scan of its one
/// segment and never reads its sidecar. So a CRC-valid `.idx` that lies —
/// every window id shifted by one, every length kept — and that a reader
/// trusts is not what the pass packs: the ids the frames carry are.
#[test]
fn a_small_lane_whose_sidecar_lies_packs_the_ids_its_frames_carry() {
    let dir = temp_dir(9_500_000);
    write_small_lanes(&dir, 0..2);
    let truth = lane_windows(&dir, 0);
    let rows = StoreReader::open(&dir)
        .unwrap()
        .lane_windows(0)
        .unwrap()
        .to_vec();
    let lie: Vec<WindowEntry> = rows
        .iter()
        .map(|row| WindowEntry {
            window_id: row.window_id + 1,
            ..*row
        })
        .collect();
    let segment = std::fs::read(dir.join("lane0000-000000.seg")).unwrap();
    let idx = schema_3_sidecar(&[(0, segment.len() as u64, segment[4])], &lie);
    std::fs::write(dir.join("lane0000.idx"), idx).unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    let ids: Vec<u64> = reader
        .lane_windows(0)
        .unwrap()
        .iter()
        .map(|row| row.window_id)
        .collect();
    assert_eq!(ids, (1..7).collect::<Vec<_>>(), "a reader trusts the lie");
    drop(reader);

    let report = Compactor::new(&dir, recompressing()).compact().unwrap();
    assert_eq!(
        (report.lanes_read_once, report.lanes_packed),
        (2, 2),
        "{report}"
    );
    assert_eq!(file_names(&dir), ["pack000000.idx", "pack000000.seg"]);
    assert_eq!(lane_windows(&dir, 0), truth);
    std::fs::remove_dir_all(&dir).ok();
}

/// A small lane torn mid-frame whose writer died before any sidecar was
/// written is read once too: truncated at its last whole frame and packed
/// beside an intact twin, byte for byte as the load path packs it.
#[test]
fn a_torn_small_lane_without_a_sidecar_is_truncated_and_packed_as_before() {
    let dir = temp_dir(9_500_001);
    write_small_lanes(&dir, 1..2);
    let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
    for id in 0..6 {
        record_small(&mut writer, id);
    }
    drop(writer);
    let _ = std::fs::remove_file(dir.join("lane0000.idx"));
    let path = dir.join("lane0000-000000.seg");
    let mut segment = std::fs::read(&path).unwrap();
    let torn = segment[13..24].to_vec();
    segment.extend_from_slice(&torn);
    std::fs::write(&path, segment).unwrap();

    let report = Compactor::new(&dir, recompressing()).compact().unwrap();
    assert_eq!(
        (report.lanes_read_once, report.lanes_packed),
        (2, 2),
        "{report}"
    );
    assert_eq!(report.lanes[0].torn_bytes_truncated, torn.len() as u64);
    assert_eq!(file_names(&dir), ["pack000000.idx", "pack000000.seg"]);
    assert_eq!(lane_windows(&dir, 0), lane_windows(&dir, 1));
    assert_eq!(
        store_fingerprint(&dir),
        18_298_871_698_107_636_101,
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `lanes_read_once` (`store_compaction_lanes_read_once_total`) counts the
/// small one-segment v1 lanes a recompressing pass reads once and nothing
/// else: not a lane of one segment over 64 KiB, not a lane of two small
/// segments, not a lane of a pass that does not recompress.
#[test]
fn lanes_read_once_counts_the_small_one_segment_v1_lanes() {
    let build = |dir: &std::path::Path| {
        write_small_lanes(dir, 0..1);
        let mut writer = LaneWriter::create(dir, 1, StoreConfig::default()).unwrap();
        for id in 0..60 {
            record_heavy(&mut writer, id);
        }
        writer.close().unwrap();
        let config = StoreConfig::default().with_segment_max_windows(3);
        let mut writer = LaneWriter::create(dir, 2, config).unwrap();
        for id in 0..6 {
            record_small(&mut writer, id);
        }
        writer.close().unwrap();
        assert!(segment_bytes(dir, 1, 0) > 64 << 10);
        assert!(dir.join("lane0002-000001.seg").exists());
    };
    let counted = |dir: &std::path::Path, policy: MaintenancePolicy| {
        let registry = endurance_obs::Registry::new();
        let report = Compactor::new(dir, policy)
            .with_metrics(&registry)
            .compact()
            .unwrap();
        let counter = registry.counter("store_compaction_lanes_read_once_total");
        assert_eq!(counter.get(), report.lanes_read_once, "{report}");
        report.lanes_read_once
    };

    let dir = temp_dir(9_500_002);
    build(&dir);
    let before = answers(&dir, &[0, 1, 2]);
    assert_eq!(counted(&dir, recompressing()), 1);
    assert_eq!(answers(&dir, &[0, 1, 2]), before);
    std::fs::remove_dir_all(&dir).ok();

    let dir = temp_dir(9_500_003);
    build(&dir);
    assert_eq!(
        counted(&dir, MaintenancePolicy::merge_below(u64::MAX / 4)),
        0
    );
    assert_eq!(answers(&dir, &[0, 1, 2]), before);
    std::fs::remove_dir_all(&dir).ok();
}
