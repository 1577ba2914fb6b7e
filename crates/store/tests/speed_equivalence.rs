//! The perf-path rewrites must be invisible except for speed. These
//! tests pin that:
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
//! * `parallel_compaction_equivalence_while_a_slow_lane_holds_workers_back`
//!   — the same again while a slow lane holds the other workers back.
//! * `store_writer_equivalence` — any sequence of creates, records,
//!   closes, crashes and crash leftovers run through one long-lived
//!   [`StoreWriter`] leaves the directory, every `RecoveryReport` and
//!   every replay that one-shot [`LaneWriter::create`] calls leave; the
//!   two `store_writer_*` tests beside it count the listings the handle
//!   saves and show that the rule it rests on (FORMAT.md §1) is enforced,
//!   not assumed.
//! * `one_replay_from_three_formats` — any window sequence, written as
//!   format v1, v2 and v3, hands every reader the same fields and
//!   payload bytes, before and after every kind of rewrite; the frame
//!   envelope is the only thing a format version may change.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use proptest::prelude::*;

use common::{
    dir_contents, entry_fields, events_encoding_to, segment_files, write_compressed_lane,
    write_v2_segment, Window,
};

use endurance_obs::Registry;
use endurance_store::{
    crc32, crc32_scalar, CodecId, Compactor, FallbackReason, LaneCompaction, LaneWriter,
    MaintenancePolicy, RecoveryReport, SidecarFallback, Snapshot, StoreConfig, StoreReader,
    StoreWriter, TailStep, TailWindow, Tailer,
};
use trace_model::codec::{BinaryEncoder, TraceEncoder};
use trace_model::{
    EventSink, EventTypeId, RecordMeta, Timestamp, TraceError, TraceEvent, WindowId,
};

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
            record_window(&mut writer, id).unwrap();
        }
        if close {
            writer.close().unwrap();
        }
    }
}

/// Records window `id` of the writer's lane: contents are a function of
/// `(lane, id)` alone.
fn record_window(writer: &mut LaneWriter, id: u64) -> Result<(), TraceError> {
    let lane = u64::from(writer.lane());
    let count = 3 + ((id + lane) % 5) as usize * 4;
    let events: Vec<TraceEvent> = (0..count as u64)
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_micros(id * 40_000 + i * 100),
                EventTypeId::new(((id + i + lane) % 5) as u16),
                (i + lane) as u32,
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
    writer.record_window(&meta, &events, &encoded)
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
        compressed_before in any::<bool>(),
    ) {
        let tag = format!(
            "{lanes}-{windows}-{per_segment}-{}-{}-{}-{}",
            u8::from(close),
            u8::from(recompress),
            (retention_fraction * 73.0) as u64,
            u8::from(compressed_before)
        );
        let serial_dir = temp_dir(&format!("serial-{tag}"));
        let parallel_dir = temp_dir(&format!("parallel-{tag}"));
        for dir in [&serial_dir, &parallel_dir] {
            write_store(dir, lanes, windows, per_segment, close);
            if compressed_before {
                // An earlier pass left v3 and v4 segments of at most
                // 4 KiB (a window's shape recurs every fifth window), for
                // the pass below to merge and cut.
                let earlier = MaintenancePolicy::disabled()
                    .with_recompress(CodecId::DeltaVarint)
                    .with_max_merged_bytes(4 * 1024)
                    .with_compact_workers(1);
                Compactor::new(dir, earlier).compact().unwrap();
            }
        }
        let recorded = replay(&serial_dir);

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
        // And the pass kept what it did not drop, event for event.
        for (lane, events) in replay(&serial_dir) {
            prop_assert!(recorded[&lane].ends_with(&events));
        }

        std::fs::remove_dir_all(&serial_dir).ok();
        std::fs::remove_dir_all(&parallel_dir).ok();
    }
}

/// The journal of a merge of `replaced` into segment 0 of `lane`, as the
/// compactor writes it (FORMAT.md §5.3 step 1).
/// Lane 0 is long and slow; the runs of the short lanes behind it soon
/// hold more than a pack of 4 KiB while they wait for it, so the other
/// workers stop taking lanes until it arrives — and still pack as one
/// worker does, byte for byte.
#[test]
fn parallel_compaction_equivalence_while_a_slow_lane_holds_workers_back() {
    let dirs = [1usize, 4].map(|workers| {
        let dir = temp_dir(&format!("held-back-{workers}"));
        write_lanes(&dir, [0], 400, 2, true);
        write_lanes(&dir, 1..41, 6, 2, true);
        let policy = MaintenancePolicy::merge_below(u64::MAX)
            .with_recompress(CodecId::DeltaVarint)
            .with_max_merged_bytes(4 * 1024)
            .with_compact_workers(workers);
        let report = Compactor::new(&dir, policy).compact().unwrap();
        assert!(report.packs_written > 1, "{report}");
        dir
    });
    assert!(
        dir_contents(&dirs[0]) == dir_contents(&dirs[1]),
        "1 worker and 4 leave other files"
    );
    for dir in dirs {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Holds a `compact_lane` loop's files in `looped` to the pack a pass over
/// the same store left in `packed`: each lane's entry body is the lane's
/// segment file past its 13-byte header, byte for byte; its pack index
/// rows are the lane's `.idx` rows, numbered after the entry's sequence
/// (the run's last source) instead of the file's (its first); and every
/// other file is the same in both.
fn assert_loop_wrote_the_pack(packed: &std::path::Path, looped: &std::path::Path, lanes: &[u32]) {
    use trace_model::codec::varint::take_minimal_u64;
    let pack = std::fs::read(packed.join("pack000000.seg")).unwrap();
    let mut entries = BTreeMap::new();
    let mut at = 13;
    while at < pack.len() {
        let lane = take_minimal_u64(&pack, &mut at).unwrap() as u32;
        let seq = take_minimal_u64(&pack, &mut at).unwrap() as u32;
        let version = pack[at];
        at += 1;
        let len = take_minimal_u64(&pack, &mut at).unwrap() as usize;
        let body = &pack[at..at + len];
        at += len;
        entries.insert(lane, (seq, version, body));
    }
    assert_eq!(entries.keys().copied().collect::<Vec<_>>(), lanes);

    let packed_reader = StoreReader::open(packed).unwrap();
    let looped_reader = StoreReader::open(looped).unwrap();
    assert!(
        looped_reader.recovery().clean,
        "{:?}",
        looped_reader.recovery()
    );
    let mut lane_files = BTreeSet::new();
    for &lane in lanes {
        let files = segment_files(looped, lane);
        let [(first, version, path)] = files.as_slice() else {
            panic!("lane {lane} left {files:?}");
        };
        let (seq, packed_version, body) = entries[&lane];
        let segment = std::fs::read(path).unwrap();
        assert_eq!(*version, packed_version, "lane {lane}");
        assert!(
            segment[13..] == *body,
            "lane {lane}: the pack's body is not the loop's segment"
        );
        let renumbered: Vec<_> = looped_reader
            .lane_windows(lane)
            .unwrap()
            .iter()
            .map(|row| {
                assert_eq!(row.segment, *first, "lane {lane}");
                endurance_store::WindowEntry {
                    segment: seq,
                    ..*row
                }
            })
            .collect();
        assert_eq!(
            packed_reader.lane_windows(lane).unwrap(),
            renumbered,
            "lane {lane}"
        );
        lane_files.insert(path.file_name().unwrap().to_string_lossy().into_owned());
        lane_files.insert(format!("lane{lane:04}.idx"));
    }
    let others = |dir, skip: &dyn Fn(&String) -> bool| {
        dir_contents(dir)
            .into_iter()
            .filter(|(name, _)| !skip(name))
            .collect::<BTreeMap<_, _>>()
    };
    assert!(
        others(looped, &|name| lane_files.contains(name))
            == others(packed, &|name| name.starts_with("pack")),
        "the files a pack does not replace differ between a pass and a loop"
    );
}

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

    // Two workers leave the files one does, byte for byte: one pack of
    // every lane and its index. A `compact_lane` loop compacts one lane a
    // pass, so it packs nothing and leaves each lane a segment file and a
    // sidecar — with the same reports (above), the same segment bytes and
    // rows and the same replay (below).
    let contents = dirs.each_ref().map(|dir| dir_contents(dir));
    assert_eq!(
        contents[0].keys().collect::<Vec<_>>(),
        contents[1].keys().collect::<Vec<_>>(),
        "files left by 1 worker vs 2 workers"
    );
    for (name, bytes) in &contents[0] {
        assert!(
            bytes == &contents[1][name],
            "{name} differs between 1 worker and 2 workers"
        );
    }
    let packs = |contents: &BTreeMap<String, Vec<u8>>| {
        contents
            .keys()
            .filter(|name| name.starts_with("pack"))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(packs(&contents[0]), ["pack000000.idx", "pack000000.seg"]);
    assert!(packs(&contents[2]).is_empty());
    assert_loop_wrote_the_pack(&dirs[0], &dirs[2], &lanes);
    assert_eq!(replay(&dirs[2]), expected_replay);
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

/// Lane ids narrower than, at and wider than the 4-digit padding, so
/// that file names of different lanes share prefixes.
const HANDLE_LANES: [u32; 5] = [3, 7, 1234, 12345, 123_456];

/// One step of a writing process's life, aimed at one lane.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Create the lane's writer (an open one is dropped first: a crash).
    Create,
    /// Record this many windows through the lane's open writer.
    Record(u64),
    Close,
    /// Drop the lane's writer without closing it.
    Crash,
    /// Append garbage to the tail of the lane's newest segment.
    Garbage,
    /// Leave one crash leftover of this kind behind.
    Leftover(u8),
    /// The whole process dies and starts again: every writer is dropped,
    /// and the directory is opened for writing anew.
    Restart,
}

fn op(kind: u8, arg: u8) -> Op {
    match kind {
        0 | 1 => Op::Create,
        2 | 3 => Op::Record(u64::from(arg)),
        4 => Op::Close,
        5 => Op::Crash,
        6 => Op::Garbage,
        7 => Op::Leftover(arg),
        _ => Op::Restart,
    }
}

/// The names of the lane's files: `laneLLLL` followed by `-` or `.`.
fn lane_file_names(dir: &std::path::Path, lane: u32) -> Vec<String> {
    let prefix = format!("lane{lane:04}");
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| {
            name.strip_prefix(&prefix)
                .is_some_and(|rest| rest.starts_with(['-', '.']))
        })
        .collect()
}

/// Runs `ops` in `dir`, creating every writer through one long-lived
/// [`StoreWriter`] (`through_handle`) or through one-shot
/// [`LaneWriter::create`] calls, and returns what every create recovered.
///
/// Damage and leftovers only ever land on a lane that has no open writer
/// and that this process created or found files of when it started: what
/// its own crashes can leave. (A file of any other lane is another
/// process writing into the directory, which the rule of FORMAT.md §1
/// excludes and `store_writer_rule_is_enforced_not_assumed` covers.)
fn run_ops(
    dir: &std::path::Path,
    ops: &[(usize, Op)],
    through_handle: bool,
) -> Vec<RecoveryReport> {
    let config = StoreConfig::default().with_segment_max_windows(2);
    std::fs::create_dir_all(dir).unwrap();
    let mut handle = through_handle.then(|| StoreWriter::open(dir).unwrap());
    let mut writers: BTreeMap<u32, LaneWriter> = BTreeMap::new();
    let mut next_id: BTreeMap<u32, u64> = BTreeMap::new();
    let mut known: BTreeSet<u32> = BTreeSet::new();
    let mut recoveries = Vec::new();
    for &(pick, op) in ops {
        let lane = HANDLE_LANES[pick];
        let idle = known.contains(&lane) && !writers.contains_key(&lane);
        match op {
            Op::Create => {
                writers.remove(&lane);
                let writer = match &handle {
                    Some(handle) => handle.lane(lane, config),
                    None => LaneWriter::create(dir, lane, config),
                }
                .unwrap();
                recoveries.push(writer.recovery().clone());
                writers.insert(lane, writer);
                known.insert(lane);
            }
            Op::Record(windows) => {
                if let Some(writer) = writers.get_mut(&lane) {
                    let id = next_id.entry(lane).or_default();
                    for _ in 0..windows {
                        record_window(writer, *id).unwrap();
                        *id += 1;
                    }
                }
            }
            Op::Close => {
                if let Some(writer) = writers.remove(&lane) {
                    writer.close().unwrap();
                }
            }
            Op::Crash => {
                writers.remove(&lane);
            }
            Op::Garbage if idle => {
                let segments = lane_file_names(dir, lane)
                    .into_iter()
                    .filter(|name| name.ends_with(".seg"));
                if let Some(name) = segments.max() {
                    let mut bytes = std::fs::read(dir.join(&name)).unwrap();
                    bytes.extend_from_slice(&[0xEE; 11]);
                    std::fs::write(dir.join(name), bytes).unwrap();
                }
            }
            Op::Leftover(kind) if idle => {
                let (name, bytes) = match kind {
                    0 => (
                        format!("lane{lane:04}-000000.seg.compact.tmp"),
                        "torn".into(),
                    ),
                    1 => (format!("lane{lane:04}.idx.tmp"), "EIDX".into()),
                    2 => (
                        format!("lane{lane:04}.compact.json"),
                        journal_json(lane, b"never landed", &[1, 2]),
                    ),
                    _ => (format!("lane{lane:04}.compact.json"), "{".into()),
                };
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            Op::Garbage | Op::Leftover(_) => {}
            Op::Restart => {
                writers.clear();
                known.retain(|&lane| !lane_file_names(dir, lane).is_empty());
                if through_handle {
                    handle = Some(StoreWriter::open(dir).unwrap());
                }
            }
        }
    }
    recoveries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_writer_equivalence(
        steps in prop::collection::vec((0usize..HANDLE_LANES.len(), 0u8..9, 0u8..4), 1..40),
    ) {
        let ops: Vec<(usize, Op)> = steps
            .iter()
            .map(|&(pick, kind, arg)| (pick, op(kind, arg)))
            .collect();
        let handle_dir = temp_dir("handle-equiv");
        let one_shot_dir = temp_dir("one-shot-equiv");
        let through_handle = run_ops(&handle_dir, &ops, true);
        let one_shot = run_ops(&one_shot_dir, &ops, false);

        prop_assert_eq!(&through_handle, &one_shot, "recovery reports of {:?}", &ops);
        let handle_files = dir_contents(&handle_dir);
        let one_shot_files = dir_contents(&one_shot_dir);
        prop_assert_eq!(
            handle_files.keys().collect::<Vec<_>>(),
            one_shot_files.keys().collect::<Vec<_>>(),
            "files left by {:?}",
            &ops
        );
        for (name, bytes) in &handle_files {
            prop_assert!(bytes == &one_shot_files[name], "{} differs after {:?}", name, &ops);
        }
        prop_assert_eq!(replay(&handle_dir), replay(&one_shot_dir));

        std::fs::remove_dir_all(&handle_dir).ok();
        std::fs::remove_dir_all(&one_shot_dir).ok();
    }
}

/// What creating a lane that has no files reports.
fn nothing_to_recover() -> RecoveryReport {
    RecoveryReport {
        clean: true,
        ..RecoveryReport::default()
    }
}

fn listings(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .counter_total("store_dir_listings_total")
}

#[test]
fn store_writer_lists_once_and_once_more_per_lane_it_has_seen() {
    let config = StoreConfig::default().with_segment_max_windows(2);
    let nothing_to_recover = nothing_to_recover();

    // 300 new lanes through one handle: the opening listing and no other.
    let dir = temp_dir("handle-count");
    let registry = Registry::new();
    let store = StoreWriter::open(&dir).unwrap().with_metrics(&registry);
    for lane in 0..300 {
        let mut writer = store.lane(lane, config).unwrap();
        assert_eq!(writer.recovery(), &nothing_to_recover);
        record_window(&mut writer, 0).unwrap();
        writer.close().unwrap();
    }
    assert_eq!(listings(&registry), 1);
    // A lane it handed out before can have files: resuming it lists.
    let resumed = store.lane(7, config).unwrap();
    assert_eq!(resumed.recovery().windows, 1);
    assert_eq!(listings(&registry), 2);
    drop(resumed);
    assert_eq!(StoreReader::open(&dir).unwrap().lane_ids().len(), 300);
    std::fs::remove_dir_all(&dir).ok();

    // A handle opened over lanes 3 and 12345, both crashed, lane 3 with a
    // torn tail: each is recovered whole on its first `lane()`, at one
    // listing each; their prefix-sharing neighbour 1234 is still new.
    let dir = temp_dir("handle-preexisting");
    write_lanes(&dir, [3, 12345], 4, 2, false);
    let torn = dir.join("lane0003-000001.seg");
    let mut bytes = std::fs::read(&torn).unwrap();
    let intact_len = bytes.len() as u64;
    bytes.extend_from_slice(&[0xEE; 11]);
    std::fs::write(&torn, bytes).unwrap();

    let registry = Registry::new();
    let store = StoreWriter::open(&dir).unwrap().with_metrics(&registry);
    assert_eq!(listings(&registry), 1);
    let mut lane3 = store.lane(3, config).unwrap();
    assert_eq!(lane3.recovery().windows, 4);
    assert_eq!(lane3.recovery().torn_tails.len(), 1);
    assert_eq!(std::fs::metadata(&torn).unwrap().len(), intact_len);
    record_window(&mut lane3, 4).unwrap();
    assert!(
        dir.join("lane0003-000002.seg").exists(),
        "numbering continues"
    );
    assert_eq!(listings(&registry), 2);
    let lane12345 = store.lane(12345, config).unwrap();
    assert_eq!(lane12345.recovery().windows, 4);
    assert!(lane12345.recovery().torn_tails.is_empty());
    assert_eq!(listings(&registry), 3);
    let lane1234 = store.lane(1234, config).unwrap();
    assert_eq!(lane1234.recovery(), &nothing_to_recover);
    assert_eq!(listings(&registry), 3);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_writer_rule_is_enforced_not_assumed() {
    let config = StoreConfig::default();
    let already_exists = |result: Result<(), TraceError>| {
        matches!(result, Err(TraceError::Io(ref error))
            if error.kind() == std::io::ErrorKind::AlreadyExists)
    };

    // Lane 9 is created behind an open handle's back. The handle has
    // never seen it, so its writer starts at segment 0 without looking —
    // and the first append refuses to overwrite what is there.
    let dir = temp_dir("handle-rule-append");
    let store = StoreWriter::open(&dir).unwrap();
    write_lanes(&dir, [9], 2, 8, true);
    let outsider = replay(&dir);
    let before = dir_contents(&dir);
    let mut writer = store.lane(9, config).unwrap();
    assert_eq!(writer.recovery(), &nothing_to_recover());
    assert!(already_exists(record_window(&mut writer, 2)));
    // Poisoned: nothing more is appended, and no sidecar is written over
    // the outsider's.
    assert!(record_window(&mut writer, 3).is_err());
    assert!(writer.sync().is_err());
    drop(writer);
    assert_eq!(dir_contents(&dir), before, "nothing was overwritten");
    assert_eq!(replay(&dir), outsider);
    std::fs::remove_dir_all(&dir).ok();

    // The same, with the handle's writer closed before any append: an
    // empty sidecar over a lane that has a segment. Readers decline it
    // and the scanner finds both windows.
    let dir = temp_dir("handle-rule-close");
    let store = StoreWriter::open(&dir).unwrap();
    write_lanes(&dir, [9], 2, 8, true);
    let outsider = replay(&dir);
    store.lane(9, config).unwrap().close().unwrap();
    let reader = StoreReader::open(&dir).unwrap();
    assert_eq!(
        reader.recovery().sidecar_fallbacks,
        [SidecarFallback {
            lane: 9,
            reason: FallbackReason::SegmentListMismatch
        }]
    );
    assert_eq!(reader.recovery().windows, 2);
    drop(reader);
    assert_eq!(replay(&dir), outsider);
    // A one-shot writer recovers the lane whole and resumes after it.
    let mut one_shot = LaneWriter::create(&dir, 9, config).unwrap();
    assert_eq!(one_shot.recovery().windows, 2);
    record_window(&mut one_shot, 2).unwrap();
    one_shot.close().unwrap();
    assert!(dir.join("lane0009-000001.seg").exists());
    let reader = StoreReader::open(&dir).unwrap();
    assert!(reader.recovery().clean);
    assert_eq!(reader.lane_windows(9).unwrap().len(), 3);
    drop(reader);

    // The directory removed and recreated under the live handle: a lane
    // it has never seen still records.
    std::fs::remove_dir_all(&dir).unwrap();
    let mut writer = store.lane(10, config).unwrap();
    record_window(&mut writer, 0).unwrap();
    writer.close().unwrap();
    assert_eq!(replay(&dir).keys().copied().collect::<Vec<_>>(), [10]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Windows as no well-behaved session records them: ids with gaps and
/// out of order, windows that overlap, leave holes, have no length or
/// end before they start, timestamps at either end of `u64`, no events
/// at all, and payloads on either side of the one- and two-byte varint
/// edges of the raw length.
fn arbitrary_windows() -> impl Strategy<Value = Vec<Window>> {
    let window = (
        (any::<u64>(), 0u8..6),
        (any::<u64>(), 0u8..6),
        (any::<u64>(), 0u8..6),
        (1usize..40, 0u8..10),
    );
    prop::collection::vec(window, 1..14).prop_map(|specs| {
        let mut windows: Vec<Window> = Vec::new();
        let (mut next_id, mut clock, mut span) = (0u64, 0u64, 40_000_000u64);
        for ((id, id_kind), (start, start_kind), (end, end_kind), (count, shape)) in specs {
            let id = match id_kind {
                0 => id,
                1 => next_id + id % 1_000,
                _ => next_id,
            };
            if windows.iter().any(|window| window.id == id) {
                continue; // point reads go by id
            }
            next_id = id.wrapping_add(1);
            let start_ns = match start_kind {
                0 => start,
                1 => u64::MAX - start % 1_000,
                2 => clock.wrapping_sub(start % span.max(1)),
                3 => clock.wrapping_add(start % 1_000_000_000),
                _ => clock,
            };
            span = match end_kind {
                0 => end,
                1 => 0,
                2 => (end % 1_000).wrapping_neg(),
                3 => end % 1_000_000_000,
                _ => span,
            };
            let end_ns = start_ns.wrapping_add(span);
            clock = end_ns;
            // Event timestamps are the payload's own business.
            let first_ns = start_ns.min(u64::MAX - 10_000_000);
            let events = match shape {
                0 => Vec::new(),
                1 => events_encoding_to(127, first_ns),
                2 => events_encoding_to(128, first_ns),
                3 => events_encoding_to(16_383, first_ns),
                4 => events_encoding_to(16_384, first_ns),
                _ => (0..count as u64)
                    .map(|i| {
                        TraceEvent::new(
                            Timestamp::from_nanos(first_ns + i * 1_000 + (id ^ i) % 900),
                            EventTypeId::new(((id ^ i) % 5) as u16),
                            (id.wrapping_mul(31) ^ i) as u32,
                        )
                    })
                    .collect(),
            };
            windows.push(Window::new(id, start_ns, end_ns, events));
        }
        windows
    })
}

fn drain(tailer: &mut Tailer, into: &mut Vec<TailWindow>) {
    loop {
        match tailer.next(Duration::from_secs(10)).unwrap() {
            TailStep::Window(window) => into.push(window),
            TailStep::Closed => return,
            TailStep::TimedOut => panic!("the writer is gone; the tail must close"),
        }
    }
}

/// Records `windows` into lane 0 of `dir` with a live [`Tailer`]
/// attached: the writer is dropped without a close after `crash_after`
/// windows, a second one resumes the lane and the follower moves over.
/// Returns what the follower was handed.
fn record_followed(
    dir: &std::path::Path,
    config: StoreConfig,
    windows: &[Window],
    crash_after: usize,
) -> Vec<TailWindow> {
    let mut tailed = Vec::new();
    let mut writer = LaneWriter::create(dir, 0, config).unwrap();
    let mut tailer = Tailer::follow(dir, writer.commit_log());
    for window in &windows[..crash_after] {
        window.record(&mut writer);
    }
    drop(writer);
    drain(&mut tailer, &mut tailed);
    let mut writer = LaneWriter::create(dir, 0, config).unwrap();
    tailer.rebind(writer.commit_log()).unwrap();
    for window in &windows[crash_after..] {
        window.record(&mut writer);
    }
    writer.close().unwrap();
    drain(&mut tailer, &mut tailed);
    tailed
}

/// What every reader of lane 0 of `dir` hands back, which must be
/// `windows`: the cold reader through the sidecar, point reads off a
/// snapshot in the order `shuffle` gives, and the scanner once the
/// sidecar is gone. Returns the codec column.
fn assert_every_reader_replays(dir: &std::path::Path, windows: &[Window], shuffle: u64) -> Vec<u8> {
    let fields: Vec<_> = windows.iter().map(Window::fields).collect();
    let events: Vec<TraceEvent> = windows.iter().flat_map(|w| w.events.clone()).collect();
    let payloads: Vec<u8> = windows.iter().flat_map(|w| w.payload.clone()).collect();

    let reader = StoreReader::open(dir).unwrap();
    assert!(reader.recovery().clean, "{:?}", reader.recovery());
    let rows = reader.lane_windows(0).unwrap().to_vec();
    assert_eq!(rows.iter().map(entry_fields).collect::<Vec<_>>(), fields);
    assert_eq!(reader.lane_events(0).unwrap(), events);
    assert_eq!(reader.lane_payload_bytes(0).unwrap(), payloads);
    assert_eq!(reader.total_payload_bytes(), payloads.len() as u64);
    drop(reader);

    let snapshot = Snapshot::open(dir).unwrap();
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by_key(|&at| (at as u64 ^ shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for at in order {
        let window = &windows[at];
        let id = WindowId::new(window.id);
        assert_eq!(
            snapshot.window_events(0, id).unwrap().as_ref(),
            Some(&window.events)
        );
        assert_eq!(
            snapshot.window_payload(0, id).unwrap().as_ref(),
            Some(&window.payload)
        );
    }
    drop(snapshot);

    std::fs::remove_file(dir.join("lane0000.idx")).unwrap();
    let scanned = StoreReader::open(dir).unwrap();
    assert!(!scanned.recovery().clean);
    assert!(scanned.recovery().torn_tails.is_empty());
    assert_eq!(scanned.lane_windows(0).unwrap(), rows, "scanner == sidecar");
    assert_eq!(scanned.lane_payload_bytes(0).unwrap(), payloads);
    rows.iter().map(|row| row.codec).collect()
}

fn assert_tailed(tailed: &[TailWindow], windows: &[Window]) {
    assert_eq!(
        tailed
            .iter()
            .map(|w| entry_fields(&w.entry))
            .collect::<Vec<_>>(),
        windows.iter().map(Window::fields).collect::<Vec<_>>()
    );
    for (got, window) in tailed.iter().zip(windows) {
        assert_eq!(got.payload, window.payload, "window {}", window.id);
    }
}

fn versions(dir: &std::path::Path) -> Vec<u8> {
    segment_files(dir, 0).iter().map(|file| file.1).collect()
}

fn compact(dir: &std::path::Path, policy: MaintenancePolicy) {
    Compactor::new(dir, policy).compact().unwrap();
    let settled = dir_contents(dir);
    let again = Compactor::new(dir, policy).compact().unwrap();
    assert!(again.is_noop(), "{again}");
    assert!(dir_contents(dir) == settled, "a second pass moved bytes");
}

/// [`arbitrary_windows`] less every window whose tag sequence — event
/// types and severities, in order — an earlier one already had: no two
/// windows share a shape, so no segment's template pays for itself.
fn distinct_shape_windows() -> impl Strategy<Value = Vec<Window>> {
    arbitrary_windows().prop_map(|windows| {
        let mut shapes = std::collections::HashSet::new();
        windows
            .into_iter()
            .filter(|window| {
                shapes.insert(
                    window
                        .events
                        .iter()
                        .map(|event| (event.event_type, event.severity))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One window sequence, three formats, every reader, every rewrite.
    #[test]
    fn one_replay_from_three_formats(
        windows in arbitrary_windows(),
        per_segment in 1usize..5,
        crash_at in 0.0f64..1.0,
        shuffle in any::<u64>(),
    ) {
        three_formats(&windows, per_segment, crash_at, shuffle, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same over windows that never repeat a shape: no rewrite writes
    /// a template, and recompressed v1 and merged v3 are one v3 segment,
    /// byte for byte, every time.
    #[test]
    fn one_replay_from_three_formats_of_distinct_shapes(
        windows in distinct_shape_windows(),
        per_segment in 1usize..5,
        crash_at in 0.0f64..1.0,
        shuffle in any::<u64>(),
    ) {
        three_formats(&windows, per_segment, crash_at, shuffle, true);
    }
}

/// The body of [`one_replay_from_three_formats`]; `distinct` says no two
/// of `windows` share a shape.
fn three_formats(
    windows: &[Window],
    per_segment: usize,
    crash_at: f64,
    shuffle: u64,
    distinct: bool,
) {
    let codec = CodecId::DeltaVarint;
    let crash_after = (windows.len() as f64 * crash_at) as usize;
    let rotate = StoreConfig::default().with_segment_max_windows(per_segment as u64);
    let tag = format!("formats-{}-{shuffle:016x}", u8::from(distinct));
    let (v1, v2, v3, mixed) = (
        temp_dir(&format!("{tag}-v1")),
        temp_dir(&format!("{tag}-v2")),
        temp_dir(&format!("{tag}-v3")),
        temp_dir(&format!("{tag}-mixed")),
    );

    // v1 from the writer, followed live across the rotations, the
    // crash and the resume; v2 from the fixture builder, and v3 from
    // the writer and a recompressing pass a segment, both cut where
    // the writer cuts (every `per_segment` windows, and at the crash),
    // then recovered by a writer that a follower is attached to.
    assert_tailed(&record_followed(&v1, rotate, windows, crash_after), windows);
    let (before, after) = windows.split_at(crash_after);
    let runs = before.chunks(per_segment).chain(after.chunks(per_segment));
    for (seq, run) in (0..).zip(runs) {
        write_v2_segment(&v2, 0, seq, run, codec);
        write_compressed_lane(&v3, 0, run, per_segment, codec);
    }
    assert_tailed(&record_followed(&v2, rotate, &[], 0), windows);
    assert_tailed(&record_followed(&v3, rotate, &[], 0), windows);
    prop_assert!(versions(&v1).iter().all(|version| *version == 1));
    prop_assert!(versions(&v2).iter().all(|version| *version == 2));
    // A run whose windows repeat a shape may earn a template table.
    prop_assert!(versions(&v3).iter().all(|version| [3, 4].contains(version)));
    prop_assert_eq!(versions(&v2).len(), versions(&v3).len());

    let codecs_v1 = assert_every_reader_replays(&v1, windows, shuffle);
    let codecs_v2 = assert_every_reader_replays(&v2, windows, shuffle);
    let codecs_v3 = assert_every_reader_replays(&v3, windows, shuffle);
    prop_assert!(codecs_v1.iter().all(|codec| *codec == 0));
    // v2 holds what v2 builds stored, `EDV` or the payload; a pass of
    // this build stores the smallest of `EDV`, packed rows and — in a
    // v4 segment — templated rows, all smaller than any canonical
    // payload.
    prop_assert!(codecs_v2.iter().all(|codec| [0, 1].contains(codec)));
    prop_assert!(codecs_v3.iter().all(|codec| [1, 3, 4].contains(codec)));
    let templated = |codecs: &[u8]| codecs.contains(&CodecId::Templated.as_u8());
    prop_assert_eq!(templated(&codecs_v3), versions(&v3).contains(&4));

    // One lane in all three formats: thirds of the sequence written
    // and recompressed, from the fixture builder, and from the writer
    // — followed from the lane's first window.
    let (first, rest) = windows.split_at(windows.len() / 3);
    let (second, third) = rest.split_at(rest.len() / 2);
    write_compressed_lane(&mixed, 0, first, per_segment, codec);
    let next_seq = segment_files(&mixed, 0).last().map_or(0, |file| file.0 + 1);
    for (seq, run) in (next_seq..).zip(second.chunks(per_segment)) {
        write_v2_segment(&mixed, 0, seq, run, codec);
    }
    let tailed = record_followed(&mixed, rotate, third, third.len());
    assert_tailed(&tailed, windows);
    assert_every_reader_replays(&mixed, windows, shuffle);
    let merge = MaintenancePolicy::merge_below(u64::MAX / 4);
    compact(&mixed, merge.with_recompress(codec));
    let codecs_mixed = assert_every_reader_replays(&mixed, windows, shuffle);
    prop_assert_eq!(
        versions(&mixed),
        [if templated(&codecs_mixed) { 4 } else { 3 }]
    );

    // v3 + v3 merged, v2 + v2 merged — blocks carried over as they
    // were, but for templated ones, which are chosen again — and v1
    // recompressed (which merges the run it re-encodes): one segment
    // each. Without a template anywhere — always, where no two windows
    // share a shape — v1's and v3's are the same v3 segment byte for
    // byte, index included.
    let lone_segment = versions(&v3).len() == 1;
    let v3_templated = templated(&codecs_v3);
    prop_assert!(!(distinct && v3_templated));
    compact(&v3, merge);
    compact(&v2, merge);
    compact(&v1, MaintenancePolicy::disabled().with_recompress(codec));
    for dir in [&v1, &v2, &v3] {
        // (A lone v2 segment is no run to merge: it migrates when a
        // pass has a reason to rewrite it, and not before.)
        let migrated = !(lone_segment && dir == &v2);
        let version = versions(dir);
        let codecs = assert_every_reader_replays(dir, windows, shuffle);
        if dir == &v2 {
            prop_assert_eq!(version, [if migrated { 3 } else { 2 }]);
            prop_assert_eq!(&codecs, &codecs_v2);
        } else {
            prop_assert_eq!(version, [if templated(&codecs) { 4 } else { 3 }]);
            if !v3_templated && !templated(&codecs) {
                prop_assert_eq!(&codecs, &codecs_v3);
            }
        }
        // (The scanner check took the sidecar; a resume puts it back.)
        LaneWriter::create(dir, 0, rotate).unwrap().close().unwrap();
    }
    if distinct {
        prop_assert_eq!(versions(&v1), [3]);
    }
    if versions(&v1) == [3] && !v3_templated {
        prop_assert!(
            dir_contents(&v1) == dir_contents(&v3),
            "recompressed v1 != merged v3"
        );
    }

    // Retention takes windows out of the middle of that segment — the
    // head included, whenever the first window is not among the
    // newest — so the survivors' predecessors change.
    let mut ends: Vec<u64> = windows.iter().map(|window| window.end_ns).collect();
    ends.sort_unstable();
    let (newest, cutoff) = (ends[ends.len() - 1], ends[ends.len() / 2]);
    if newest > cutoff {
        compact(&v3, merge.with_retention_ns(newest - cutoff));
        let kept: Vec<Window> = windows
            .iter()
            .filter(|w| w.end_ns > cutoff)
            .cloned()
            .collect();
        prop_assert!(kept.len() < windows.len());
        let codecs = assert_every_reader_replays(&v3, &kept, shuffle);
        prop_assert_eq!(versions(&v3), [if templated(&codecs) { 4 } else { 3 }]);
    }
    for dir in [v1, v2, v3, mixed] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
