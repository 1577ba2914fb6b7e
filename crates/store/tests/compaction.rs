//! Compaction invariants, property-tested: a maintenance pass at *any*
//! point — any segment geometry, any merge threshold, any retention
//! horizon, clean close or crash — must preserve the exact payload bytes
//! of every surviving window, answer `windows_in_range` identically for
//! the retained set, and leave a store that reopens clean and compacts to
//! a fixed point — template tables and templated frames of format-v4
//! segments included.

mod common;

use proptest::prelude::*;

use common::dir_contents;
use endurance_store::{Compactor, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader};
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
