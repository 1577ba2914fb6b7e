//! Crash-recovery property: truncating a segment file at *any* byte must
//! leave reopen with exactly the complete frames before the cut, and the
//! cut itself reported as a torn tail — never an error, never garbage
//! events. And a crash at any step of a pack commit loses no window and
//! repeats none.

use proptest::prelude::*;

use endurance_store::{
    CodecId, Compactor, LaneWriter, MaintenancePolicy, StoreConfig, StoreReader,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{
    EventSink, EventTypeId, RecordMeta, Timestamp, TraceError, TraceEvent, WindowId,
};

fn temp_dir(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-store-proptest-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `windows` windows of `events_per_window` events each into lane 0
/// and returns the per-window event lists.
fn write_run(
    dir: &std::path::Path,
    windows: usize,
    events_per_window: usize,
) -> Vec<Vec<TraceEvent>> {
    let mut writer = LaneWriter::create(dir, 0, StoreConfig::default()).unwrap();
    let mut recorded = Vec::new();
    for id in 0..windows as u64 {
        let events: Vec<TraceEvent> = (0..events_per_window as u64)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(id * 40_000 + i * 100),
                    EventTypeId::new((i % 4) as u16),
                    i as u32,
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
        recorded.push(events);
    }
    // Crash: drop without close, so recovery cannot lean on the sidecar.
    drop(writer);
    recorded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncation_at_any_byte_recovers_the_intact_prefix(
        windows in 1usize..8,
        events_per_window in 1usize..40,
        cut_fraction in 0.0f64..1.0,
    ) {
        let tag = (windows * 10_000 + events_per_window * 100) as u64
            + (cut_fraction * 97.0) as u64;
        let dir = temp_dir(tag);
        let recorded = write_run(&dir, windows, events_per_window);

        // The single segment file, truncated at an arbitrary byte.
        let path = dir.join("lane0000-000000.seg");
        let full_len = std::fs::metadata(&path).unwrap().len();
        let cut = (full_len as f64 * cut_fraction) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        let survivors: Vec<TraceEvent> = reader.lane_events(0).unwrap_or_default();

        // Every complete frame before the cut is recovered, in order.
        let complete: Vec<TraceEvent> = {
            let mut events = Vec::new();
            for (covered, entry) in reader.lane_windows(0).unwrap_or(&[]).iter().enumerate() {
                prop_assert!(entry.offset + 8 + u64::from(entry.len) <= cut,
                    "recovered frame must end before the cut");
                events.extend(recorded[covered].iter().copied());
            }
            events
        };
        prop_assert_eq!(&survivors, &complete);

        // Recovered events are a prefix of the recorded run.
        let flat: Vec<TraceEvent> = recorded.iter().flatten().copied().collect();
        prop_assert!(survivors.len() <= flat.len());
        prop_assert_eq!(&survivors[..], &flat[..survivors.len()]);

        // The tail (if the cut removed anything mid-frame) is reported.
        if cut < full_len {
            let report = reader.recovery();
            prop_assert!(!report.clean);
            let frame_boundary = survivors.len() == flat.len()
                || reader.lane_windows(0).map_or(0, |w| w.len()) * events_per_window
                    == survivors.len();
            prop_assert!(frame_boundary);
            if cut > 13 {
                // Inside the frame area: either the cut landed exactly on a
                // frame boundary (no torn tail) or the tail is reported.
                let committed: u64 = 13
                    + reader
                        .lane_windows(0)
                        .unwrap_or(&[])
                        .iter()
                        .map(|w| 8 + u64::from(w.len))
                        .sum::<u64>();
                if committed < cut {
                    prop_assert_eq!(report.torn_tails.len(), 1);
                    prop_assert_eq!(report.torn_tails[0].offset, committed);
                    prop_assert_eq!(
                        report.torn_tails[0].dropped_bytes,
                        cut - committed
                    );
                }
            }
        }

        // Resuming a writer after the same crash truncates the tail and
        // appends cleanly.
        let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
        let resumed_windows = writer.recovery().windows;
        prop_assert_eq!(resumed_windows as usize, survivors.len() / events_per_window.max(1));
        let extra = vec![TraceEvent::new(
            Timestamp::from_millis(10_000),
            EventTypeId::new(0),
            9,
        )];
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(&extra, &mut encoded).unwrap();
        writer
            .record_window(
                &RecordMeta {
                    window_id: WindowId::new(999),
                    start: Timestamp::from_millis(10_000),
                    end: Timestamp::from_millis(10_040),
                },
                &extra,
                &encoded,
            )
            .unwrap();
        writer.close().unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        prop_assert!(reader.recovery().clean, "clean close after resume");
        let mut expected = survivors;
        expected.extend(extra);
        prop_assert_eq!(reader.lane_events(0).unwrap(), expected);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A window whose frame body would pass the 2^30-byte limit — which every
/// reader takes for a torn length, so the next resume would truncate it —
/// is refused before a byte is written: the writer keeps appending, and
/// the lane reopens clean with every other window.
#[test]
fn a_window_past_the_frame_limit_is_refused_and_the_writer_goes_on() {
    let dir = temp_dir(u64::MAX);
    let mut writer = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
    let meta = |id: u64| RecordMeta {
        window_id: WindowId::new(id),
        start: Timestamp::from_millis(id * 40),
        end: Timestamp::from_millis((id + 1) * 40),
    };
    let events = [TraceEvent::new(
        Timestamp::from_millis(0),
        EventTypeId::new(0),
        7,
    )];
    let mut encoded = Vec::new();
    BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
    writer.record_window(&meta(0), &events, &encoded).unwrap();

    // Zeroed pages nothing touches: the refusal reads only the length.
    let huge = vec![0u8; 1 << 30];
    match writer.record_window(&meta(1), &events, &huge) {
        Err(TraceError::Io(error)) => {
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput, "{error}")
        }
        other => panic!("a 1 GiB window was not refused: {other:?}"),
    }
    drop(huge);
    writer.record_window(&meta(2), &events, &encoded).unwrap();
    writer.close().unwrap();

    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    let ids: Vec<u64> = reader
        .lane_windows(0)
        .unwrap()
        .iter()
        .map(|entry| entry.window_id)
        .collect();
    assert_eq!(ids, [0, 2]);
    assert_eq!(reader.lane_events(0).unwrap(), [events[0], events[0]]);
    drop(reader);
    let resumed = LaneWriter::create(&dir, 0, StoreConfig::default()).unwrap();
    assert!(resumed.recovery().torn_tails.is_empty());
    assert_eq!(resumed.windows_written(), 2);
    drop(resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// Records `windows` windows into each of `lanes`, two a segment, and
/// closes them: lanes a maintenance pass packs, each from two or more
/// files.
fn write_closed_lanes(dir: &std::path::Path, lanes: &[u32], windows: u64) {
    let config = StoreConfig::default().with_segment_max_windows(2);
    for &lane in lanes {
        let mut writer = LaneWriter::create(dir, lane, config).unwrap();
        for id in 0..windows {
            let events: Vec<TraceEvent> = (0..6 + u64::from(lane % 7))
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_micros(id * 40_000 + i * 700),
                        EventTypeId::new((i % 3) as u16),
                        lane * 100 + i as u32,
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
        writer.close().unwrap();
    }
}

/// Every lane's events, through a cold (non-mutating) reader.
fn replay_all(dir: &std::path::Path) -> Vec<(u32, Vec<TraceEvent>)> {
    let reader = StoreReader::open(dir).unwrap();
    reader
        .lane_ids()
        .into_iter()
        .map(|lane| (lane, reader.lane_events(lane).unwrap()))
        .collect()
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A crash at every step of a pack commit (FORMAT.md §5.3): with the
/// pack still a temp file; renamed, each file it replaced still there;
/// after each deletion of a replaced lane file, in the order a pass
/// deletes them; with every one gone but the pack index not written. At
/// every step a cold reader replays every lane exactly — no window lost,
/// none twice — and once a recovering participant has run, the store
/// reopens clean: a maintenance pass, or a writer resuming each lane.
#[test]
fn a_crash_at_every_step_of_a_pack_commit_loses_and_repeats_nothing() {
    let lanes = [0u32, 3, 12345];
    let before = temp_dir(u64::MAX - 1);
    write_closed_lanes(&before, &lanes, 5);
    let expected = replay_all(&before);
    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);

    // The pack a complete pass commits.
    let done = temp_dir(u64::MAX - 2);
    copy_dir(&before, &done);
    let report = Compactor::new(&done, policy).compact().unwrap();
    assert_eq!((report.packs_written, report.lanes_packed), (1, 3));
    let pack = std::fs::read(done.join("pack000000.seg")).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&done)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["pack000000.idx", "pack000000.seg"]);
    assert_eq!(replay_all(&done), expected);
    assert!(StoreReader::open(&done).unwrap().recovery().clean);

    // The lane files the pass deletes, in its order: each lane's
    // segments, then its sidecar.
    let mut replaced = Vec::new();
    for lane in lanes {
        for seq in 0..3 {
            replaced.push(format!("lane{lane:04}-{seq:06}.seg"));
        }
        replaced.push(format!("lane{lane:04}.idx"));
    }
    let mut stages = vec![("temp written", 0, true)];
    stages.extend((0..=replaced.len()).map(|deleted| ("renamed", deleted, false)));

    let staged = temp_dir(u64::MAX - 3);
    for (step, deleted, temp) in stages {
        let what = format!("{step}, {deleted} replaced file(s) deleted");
        for recover in ["pass", "writers"] {
            copy_dir(&before, &staged);
            let name = if temp {
                "pack000000.seg.compact.tmp"
            } else {
                "pack000000.seg"
            };
            std::fs::write(staged.join(name), &pack).unwrap();
            for file in &replaced[..deleted] {
                std::fs::remove_file(staged.join(file)).unwrap();
            }
            assert_eq!(replay_all(&staged), expected, "{what}: a cold reader");

            match recover {
                "pass" => {
                    Compactor::new(&staged, policy).compact().unwrap();
                }
                _ => {
                    for lane in lanes {
                        let writer = LaneWriter::create(&staged, lane, StoreConfig::default());
                        let writer = writer.unwrap();
                        assert_eq!(writer.recovery().windows, 5, "{what}: lane {lane}");
                        writer.close().unwrap();
                    }
                }
            }
            let reader = StoreReader::open(&staged).unwrap();
            assert!(
                reader.recovery().clean,
                "{what}, recovered by {recover}: {:?}",
                reader.recovery()
            );
            drop(reader);
            assert_eq!(
                replay_all(&staged),
                expected,
                "{what}, recovered by {recover}"
            );
            // Nothing the pack superseded is left once a pass has run.
            if recover == "pass" && !temp {
                for file in &replaced {
                    assert!(!staged.join(file).exists(), "{what}: {file} left behind");
                }
            }
        }
    }
    for dir in [&before, &done, &staged] {
        std::fs::remove_dir_all(dir).ok();
    }
}
