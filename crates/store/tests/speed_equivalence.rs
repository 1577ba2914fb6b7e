//! The perf-path rewrites must be invisible except for speed. Two
//! property tests pin that:
//!
//! * `crc32_equivalence` — the slice-by-8 [`crc32`] equals the
//!   bit-at-a-time reference [`crc32_scalar`] for every input length and
//!   alignment (the sliced kernel processes misaligned heads/tails
//!   byte-wise, so offsets matter).
//! * `parallel_compaction_equivalence` — a multi-threaded maintenance
//!   pass leaves byte-identical files on disk and returns an equal
//!   report versus the single-worker pass, for any store geometry.
//! * `parallel_compaction_equivalence_over_many_lanes_with_crash_leftovers`
//!   — the same, plus a `compact_lane` loop, over a crowded directory
//!   whose lane ids share name prefixes and which holds every kind of
//!   crash leftover: all three work from one directory listing and must
//!   agree on what each lane owns.

use std::collections::BTreeMap;

use proptest::prelude::*;

use endurance_store::{
    crc32, crc32_scalar, CodecId, Compactor, LaneCompaction, LaneWriter, MaintenancePolicy,
    StoreConfig, StoreReader,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-speed-equiv-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a deterministic multi-lane store: `lanes` lanes of `windows`
/// windows each (sizes varying per window), rotating every `per_segment`
/// windows. Identical inputs produce identical bytes on disk.
fn write_store(dir: &std::path::Path, lanes: u32, windows: u64, per_segment: u64, close: bool) {
    write_lanes(dir, 0..lanes, windows, per_segment, close);
}

fn write_lanes(
    dir: &std::path::Path,
    lanes: impl IntoIterator<Item = u32>,
    windows: u64,
    per_segment: u64,
    close: bool,
) {
    for lane in lanes {
        let config = StoreConfig::default().with_segment_max_windows(per_segment);
        let mut writer = LaneWriter::create(dir, lane, config).unwrap();
        for id in 0..windows {
            let count = 3 + ((id + u64::from(lane)) % 5) as usize * 4;
            let events: Vec<TraceEvent> = (0..count as u64)
                .map(|i| {
                    TraceEvent::new(
                        Timestamp::from_micros(id * 40_000 + i * 100),
                        EventTypeId::new(((id + i + u64::from(lane)) % 5) as u16),
                        (i + u64::from(lane)) as u32,
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
        }
        if close {
            writer.close().unwrap();
        }
    }
}

/// Every regular file in `dir` by name, fully read.
fn dir_contents(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc32_equivalence(bytes in prop::collection::vec(any::<u8>(), 0..2048), offset in 0usize..16) {
        // The published CRC-32/IEEE check vector pins the polynomial and
        // reflection conventions, not just internal consistency.
        prop_assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let slice = &bytes[offset.min(bytes.len())..];
        prop_assert_eq!(
            crc32(slice),
            crc32_scalar(slice),
            "length {} at offset {}",
            slice.len(),
            offset
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_compaction_equivalence(
        lanes in 1u32..5,
        windows in 1u64..12,
        per_segment in 1u64..5,
        close in any::<bool>(),
        recompress in any::<bool>(),
        retention_fraction in 0.0f64..1.3,
    ) {
        let tag = format!(
            "{lanes}-{windows}-{per_segment}-{}-{}-{}",
            u8::from(close),
            u8::from(recompress),
            (retention_fraction * 73.0) as u64
        );
        let serial_dir = temp_dir(&format!("serial-{tag}"));
        let parallel_dir = temp_dir(&format!("parallel-{tag}"));
        write_store(&serial_dir, lanes, windows, per_segment, close);
        write_store(&parallel_dir, lanes, windows, per_segment, close);

        let mut policy = MaintenancePolicy::merge_below(u64::MAX)
            .with_retention_ns(((windows * 40_000_000) as f64 * retention_fraction) as u64 + 1);
        if recompress {
            policy = policy.with_recompress(CodecId::DeltaVarint);
        }

        let serial_report = Compactor::new(&serial_dir, policy.with_compact_workers(1))
            .compact()
            .unwrap();
        let parallel_report = Compactor::new(&parallel_dir, policy.with_compact_workers(4))
            .compact()
            .unwrap();

        // Equal reports (lane order included) and byte-identical files —
        // segments and sidecars both.
        prop_assert_eq!(&serial_report, &parallel_report);
        let serial_files = dir_contents(&serial_dir);
        let parallel_files = dir_contents(&parallel_dir);
        let serial_names: Vec<&String> = serial_files.keys().collect();
        let parallel_names: Vec<&String> = parallel_files.keys().collect();
        prop_assert_eq!(serial_names, parallel_names);
        for (name, bytes) in &serial_files {
            prop_assert_eq!(
                bytes,
                &parallel_files[name],
                "file {} differs between serial and parallel passes",
                name
            );
        }

        std::fs::remove_dir_all(&serial_dir).ok();
        std::fs::remove_dir_all(&parallel_dir).ok();
    }
}

/// The journal of a merge of `replaced` into segment 0 of `lane`, as the
/// compactor writes it (FORMAT.md §5.3 step 1).
fn journal_json(lane: u32, target: &[u8], replaced: &[u32]) -> String {
    format!(
        "{{\"schema\":1,\"lane\":{lane},\"target_seq\":0,\"target_bytes\":{},\
         \"target_crc\":{},\"replaced_seqs\":{replaced:?}}}",
        target.len(),
        crc32(target)
    )
}

/// Every lane's full replay, through a (non-mutating) cold reader.
fn replay(dir: &std::path::Path) -> BTreeMap<u32, Vec<TraceEvent>> {
    let reader = StoreReader::open(dir).unwrap();
    reader
        .lane_ids()
        .into_iter()
        .map(|lane| (lane, reader.lane_events(lane).unwrap()))
        .collect()
}

#[test]
fn parallel_compaction_equivalence_over_many_lanes_with_crash_leftovers() {
    // 65 one-segment lanes whose ids are narrower than, at and wider than
    // the 4-digit padding, so names of different lanes share prefixes
    // (`lane0007…`, `lane1234…`, `lane12345…`, `lane123456…`), plus
    // three-segment lane 12345 for the committed merge below.
    let one_segment: Vec<u32> = (0..63).chain([1234, 123_456]).collect();
    let template = temp_dir("crowded-template");
    write_lanes(&template, one_segment.iter().copied(), 3, 8, true);
    write_lanes(&template, [12345], 6, 2, true);

    // What a merge of lane 12345 commits: taken from a donor copy.
    let donor = temp_dir("crowded-donor");
    write_lanes(&donor, [12345], 6, 2, true);
    Compactor::new(&donor, MaintenancePolicy::merge_below(u64::MAX))
        .compact_lane(12345)
        .unwrap();
    let merged = std::fs::read(donor.join("lane12345-000000.seg")).unwrap();
    std::fs::remove_dir_all(&donor).ok();
    let expected_replay = replay(&template);

    // A committed merge whose replaced segments were never deleted; a
    // journal whose merge never landed; stray segment, journal and sidecar
    // temps (both sidecar encodings'); a superseded legacy sidecar; a lane
    // of which only leftovers exist; names that are not the store's.
    std::fs::write(template.join("lane12345-000000.seg"), &merged).unwrap();
    let untouched: Vec<(std::ffi::OsString, Vec<u8>)> = vec![
        ("README.txt".into(), b"not a store file".to_vec()),
        ("lane0007-000000.seg.bak".into(), b"near miss".to_vec()),
        ("lane007.compact.json".into(), b"near miss".to_vec()),
        ("lane0007.idx.bak".into(), b"near miss".to_vec()),
        #[cfg(unix)]
        (
            std::os::unix::ffi::OsStringExt::from_vec(b"lane0007-\xFF.seg.compact.tmp".to_vec()),
            b"not utf-8".to_vec(),
        ),
    ];
    let swept = [
        (
            "lane12345.compact.json",
            journal_json(12345, &merged, &[1, 2]),
        ),
        (
            "lane1234.compact.json",
            journal_json(1234, b"never landed", &[1, 2]),
        ),
        ("lane0007-000000.seg.compact.tmp", "torn".to_string()),
        ("lane123456.compact.json.compact.tmp", "{".to_string()),
        ("lane0003.idx.json.tmp", "{".to_string()),
        ("lane0003.idx.tmp", "EIDX".to_string()),
        // A legacy sidecar beside the lane's `.idx`: ignored by readers,
        // removed by the lane's next sidecar write.
        ("lane0004.idx.json", "{\"schema\":2,".to_string()),
        (
            "lane0500.compact.json",
            journal_json(500, b"never landed", &[1]),
        ),
        ("lane0500-000000.seg.compact.tmp", "torn".to_string()),
    ];
    for (name, bytes) in &untouched {
        std::fs::write(template.join(name), bytes).unwrap();
    }
    for (name, text) in &swept {
        std::fs::write(template.join(name), text).unwrap();
    }
    assert_eq!(
        replay(&template),
        expected_replay,
        "a reader sees through the leftovers"
    );

    let dirs = ["serial", "parallel", "lane-loop"].map(|tag| {
        let dir = temp_dir(&format!("crowded-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&template).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        dir
    });
    let policy = MaintenancePolicy::merge_below(u64::MAX).with_recompress(CodecId::DeltaVarint);
    let serial = Compactor::new(&dirs[0], policy.with_compact_workers(1))
        .compact()
        .unwrap();
    let parallel = Compactor::new(&dirs[1], policy.with_compact_workers(2))
        .compact()
        .unwrap();
    let by_lane = Compactor::new(&dirs[2], policy);
    let mut lanes = one_segment.clone();
    lanes.push(12345);
    lanes.sort_unstable();
    let looped: Vec<LaneCompaction> = lanes
        .iter()
        .map(|&lane| by_lane.compact_lane(lane).unwrap())
        .collect();
    let leftover_lane = by_lane.compact_lane(500).unwrap();
    assert_eq!(
        leftover_lane,
        LaneCompaction {
            lane: 500,
            ..LaneCompaction::default()
        }
    );

    assert_eq!(serial, parallel);
    assert_eq!(serial.lanes, looped);
    assert_eq!(
        serial.lanes.iter().map(|l| l.lane).collect::<Vec<_>>(),
        lanes,
        "one report per lane that has segments, ascending"
    );
    assert!(serial.recompressed_windows() > 0);

    let contents = dirs.each_ref().map(|dir| dir_contents(dir));
    for (other, what) in [(1, "2 workers"), (2, "a compact_lane loop")] {
        assert_eq!(
            contents[0].keys().collect::<Vec<_>>(),
            contents[other].keys().collect::<Vec<_>>(),
            "files left by 1 worker vs {what}"
        );
        for (name, bytes) in &contents[0] {
            assert!(
                bytes == &contents[other][name],
                "{name} differs between 1 worker and {what}"
            );
        }
    }
    for (name, bytes) in &untouched {
        assert_eq!(
            &std::fs::read(dirs[0].join(name)).unwrap(),
            bytes,
            "{name:?} is not the store's to touch"
        );
    }
    for (name, _) in &swept {
        assert!(!dirs[0].join(name).exists(), "{name} must be recovered");
    }
    for seq in [1, 2] {
        let replaced = format!("lane12345-{seq:06}.seg");
        assert!(!dirs[0].join(&replaced).exists(), "{replaced} was replaced");
    }
    assert_eq!(replay(&dirs[0]), expected_replay);

    std::fs::remove_dir_all(&template).ok();
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}
