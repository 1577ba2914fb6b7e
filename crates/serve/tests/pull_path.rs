//! The pull path delivers what the pump thread did: a `Subscription`
//! advanced by its consumer, at arbitrary points of a writer's life
//! (appends, rotations, a crash with a torn tail, a resume, the close),
//! hands over exactly the windows a cold `Snapshot` replays — once each,
//! in order, byte for byte — and ends only after the resume grace. With
//! a small lag bound it samples the tail instead, and says what it lost.
//! Along the way the lane is append-only (`docs/FORMAT.md` §6): sealed
//! bytes never change, the window count never falls, a snapshot stays
//! true. Compressed afterwards, the lane still replays what was followed.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use endurance_serve::{ServeHandle, SubscribeOptions, Subscription, SubscriptionStep};
use endurance_store::{Compactor, LaneWriter, MaintenancePolicy, Snapshot, StoreConfig};
use trace_model::codec::{BinaryEncoder, CodecId, TraceEncoder};
use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

const GRACE: Duration = Duration::from_millis(120);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eserve-pull-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(writer: &mut LaneWriter, id: u64) -> Vec<u8> {
    let events: Vec<TraceEvent> = (0..1 + id % 5)
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_micros(id * 10_000 + i * 250),
                EventTypeId::new(((id + i) % 4) as u16),
                (id * 100 + i) as u32,
            )
        })
        .collect();
    let mut payload = Vec::new();
    BinaryEncoder::new().encode(&events, &mut payload).unwrap();
    let meta = RecordMeta {
        window_id: WindowId::new(id),
        start: Timestamp::from_micros(id * 10_000),
        end: Timestamp::from_micros((id + 1) * 10_000),
    };
    writer.record_window(&meta, &events, &payload).unwrap();
    payload
}

/// What a crash leaves after the committed end of the newest segment.
fn smear_torn_tail(dir: &Path) {
    let newest = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|e| e == "seg")).then_some(path)
        })
        .max();
    if let Some(newest) = newest {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(newest)
            .unwrap();
        file.write_all(&[0x99, 0, 0, 0, 0xAB, 0xCD, 0xEF, 0x01, 0x44])
            .unwrap();
    }
}

fn drain(follower: &Subscription) -> Vec<endurance_serve::TailWindow> {
    let mut out = Vec::new();
    loop {
        match follower.recv(Duration::from_secs(10)).unwrap() {
            SubscriptionStep::Window(window) => out.push(window),
            SubscriptionStep::Ended => return out,
            SubscriptionStep::TimedOut => panic!("no writer left; must end, not time out"),
        }
    }
}

/// The benchmark shares `&[Subscription]` with a scoped thread.
#[test]
fn subscription_is_send_and_sync() {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Subscription>();
}

#[test]
fn stats_never_waits_behind_a_blocked_recv() {
    let dir = temp_dir("blocked");
    let serve = ServeHandle::open(&dir).unwrap();
    let follower = serve.subscribe(7);
    let entering = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| {
            entering.wait();
            follower.recv(Duration::from_secs(10))
        });
        // Lane 7 has no writer: that `recv` sleeps on the hub, cursor
        // locked, from some point of the next 100 ms until released
        // below. A `stats` that queued behind it would stall for seconds.
        entering.wait();
        let asked = Instant::now();
        while asked.elapsed() < Duration::from_millis(100) {
            let call = Instant::now();
            let stats = follower.stats();
            assert!(call.elapsed() < Duration::from_millis(50));
            assert_eq!((stats.delivered, stats.behind, stats.ended), (0, 0, false));
            std::thread::yield_now();
        }
        // The first writer's first window releases the blocked call.
        let mut writer = serve.create_writer(7, StoreConfig::default()).unwrap();
        record(&mut writer, 0);
        let step = blocked.join().unwrap().unwrap();
        assert!(matches!(step, SubscriptionStep::Window(_)), "{step:?}");
        assert!(asked.elapsed() < Duration::from_secs(5));
        writer.close().unwrap();
    });
    assert_eq!(follower.stats().delivered, 1);
    drop(follower); // nothing to join: must not hang
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_threads_split_one_subscription_disjointly_and_completely() {
    let dir = temp_dir("split");
    let serve = ServeHandle::open(&dir).unwrap();
    let follower = serve.subscribe_with(
        0,
        SubscribeOptions {
            buffer: usize::MAX,
            resume_grace: Duration::ZERO,
        },
    );
    let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
    let start = std::sync::Barrier::new(3);
    let halves: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    drain(&follower)
                        .iter()
                        .map(|w| w.entry.window_id)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        start.wait();
        for id in 0..300u64 {
            record(&mut writer, id);
        }
        writer.close().unwrap();
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for half in &halves {
        assert!(half.windows(2).all(|pair| pair[0] < pair[1]), "{half:?}");
    }
    let mut all: Vec<u64> = halves.concat();
    all.sort_unstable();
    assert_eq!(all, (0..300).collect::<Vec<u64>>());
    assert_eq!(follower.stats().delivered, 300);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_grace_runs_from_the_first_recv_that_sees_the_close() {
    let dir = temp_dir("late-grace");
    let serve = ServeHandle::open(&dir).unwrap();
    let grace = Duration::from_millis(60);
    let follower = serve.subscribe_with(
        0,
        SubscribeOptions {
            resume_grace: grace,
            ..SubscribeOptions::default()
        },
    );
    let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
    record(&mut writer, 0);
    record(&mut writer, 1);
    drop(writer); // crash
    std::thread::sleep(3 * grace);

    // Long past the close, the backlog is still there...
    for id in 0..2u64 {
        match follower.recv(Duration::ZERO).unwrap() {
            SubscriptionStep::Window(window) => assert_eq!(window.entry.window_id, id),
            other => panic!("expected window {id}, got {other:?}"),
        }
    }
    // ...and the grace has only just begun: a successor still counts.
    assert!(matches!(
        follower.recv(Duration::ZERO).unwrap(),
        SubscriptionStep::TimedOut
    ));
    assert!(!follower.stats().ended);
    let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
    record(&mut writer, 2);
    match follower.recv(Duration::from_secs(10)).unwrap() {
        SubscriptionStep::Window(window) => assert_eq!(window.entry.window_id, 2),
        other => panic!("expected window 2, got {other:?}"),
    }
    writer.close().unwrap();
    let closed = std::time::Instant::now();
    assert!(matches!(
        follower.recv(Duration::from_secs(10)).unwrap(),
        SubscriptionStep::Ended
    ));
    assert!(closed.elapsed() >= grace, "ended before the grace ran out");
    assert!(follower.stats().ended);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_first_error_is_typed_and_ends_are_counted_once_by_cause() {
    let dir = temp_dir("causes");
    let registry = endurance_obs::Registry::new();
    let serve = ServeHandle::open(&dir)
        .unwrap()
        .with_metrics(std::sync::Arc::clone(&registry));
    let ended = |lane: &str, cause: &str| {
        let labels = [("lane", lane), ("cause", cause)];
        match registry
            .snapshot()
            .get("serve_subscription_ended_total", &labels)
        {
            Some(endurance_obs::MetricValue::Counter(count)) => *count,
            _ => 0,
        }
    };
    let options = SubscribeOptions {
        resume_grace: Duration::ZERO,
        ..SubscribeOptions::default()
    };

    // closed: drained to `Ended`, asked again.
    let follower = serve.subscribe_with(0, options);
    let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
    record(&mut writer, 0);
    writer.close().unwrap();
    assert_eq!(drain(&follower).len(), 1);
    assert!(matches!(
        follower.recv(Duration::ZERO).unwrap(),
        SubscriptionStep::Ended
    ));
    assert_eq!(ended("0", "closed"), 1);

    // error (decode): a committed frame that fails its CRC keeps its
    // offset on the call that finds it, and is sticky afterwards.
    let follower = serve.subscribe_with(1, options);
    let mut writer = serve.create_writer(1, StoreConfig::default()).unwrap();
    record(&mut writer, 0);
    let segment = dir.join("lane0001-000000.seg");
    let mut bytes = std::fs::read(&segment).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF;
    std::fs::write(&segment, bytes).unwrap();
    match follower.recv(Duration::from_secs(5)) {
        Err(trace_model::TraceError::Decode { offset, reason }) => {
            assert!(offset > 0, "{reason}");
            assert!(reason.contains("crc mismatch"), "{reason}");
        }
        other => panic!("expected the tailer's decode error, got {other:?}"),
    }
    match follower.recv(Duration::from_secs(5)) {
        Err(trace_model::TraceError::Decode { offset: 0, reason }) => {
            assert!(reason.contains("crc mismatch"), "{reason}");
        }
        other => panic!("expected the sticky rendering, got {other:?}"),
    }
    assert!(follower.stats().ended);
    assert_eq!(ended("1", "error"), 1);
    drop(writer);

    // error (i/o): the segment vanished; the error arrives as `Io`.
    let follower = serve.subscribe_with(2, options);
    let mut writer = serve.create_writer(2, StoreConfig::default()).unwrap();
    record(&mut writer, 0);
    std::fs::remove_file(dir.join("lane0002-000000.seg")).unwrap();
    let first = follower.recv(Duration::from_secs(5));
    assert!(
        matches!(first, Err(trace_model::TraceError::Io(_))),
        "{first:?}"
    );
    let later = follower.recv(Duration::from_secs(5));
    assert!(
        matches!(later, Err(trace_model::TraceError::Decode { .. })),
        "{later:?}"
    );
    assert_eq!(ended("2", "error"), 1);
    drop(writer);

    std::fs::remove_dir_all(&dir).ok();
}

/// close → `Compactor` → resume inside a follower's resume grace: the
/// merge folds the lane into its first segment and the new writer opens
/// the number after it, so the successor's segment numbers are not the
/// ones the follower's cursor was counted in. Whatever the cursor's
/// depth, the follower is handed the whole lane or a typed refusal —
/// never a wait for windows its cursor can no longer reach.
#[test]
fn a_lane_compacted_between_writers_is_followed_whole_or_refused() {
    for read_before in 0..=4usize {
        let dir = temp_dir(&format!("compacted-{read_before}"));
        let serve = ServeHandle::open(&dir).unwrap();
        let follower = serve.subscribe_with(
            0,
            SubscribeOptions {
                buffer: usize::MAX,
                resume_grace: Duration::from_secs(30),
            },
        );
        let config = StoreConfig::default().with_segment_max_windows(1);
        let mut writer = serve.create_writer(0, config).unwrap();
        for id in 0..4u64 {
            record(&mut writer, id);
        }
        let mut got = Vec::new();
        for _ in 0..read_before {
            match follower.recv(Duration::from_secs(5)).unwrap() {
                SubscriptionStep::Window(window) => got.push(window.entry.window_id),
                other => panic!("read {read_before}: four windows are committed, got {other:?}"),
            }
        }
        writer.close().unwrap();
        let merged = Compactor::new(&dir, MaintenancePolicy::merge_below(u64::MAX))
            .compact()
            .unwrap();
        assert_eq!(merged.merged_runs(), 1, "{merged}");
        let mut writer = serve.create_writer(0, config).unwrap();
        record(&mut writer, 4);

        let refused = loop {
            match follower.recv(Duration::from_millis(20)) {
                Ok(SubscriptionStep::Window(window)) => got.push(window.entry.window_id),
                Ok(SubscriptionStep::TimedOut) => {
                    let stats = follower.stats();
                    assert_eq!(stats.behind, 0, "read {read_before}: stalled at {stats:?}");
                    break None;
                }
                Ok(SubscriptionStep::Ended) => panic!("read {read_before}: the writer lives"),
                Err(error) => break Some(error),
            }
        };
        match refused {
            None => assert_eq!(got, [0, 1, 2, 3, 4], "read {read_before}"),
            Some(trace_model::TraceError::Decode { reason, .. }) => {
                assert!(read_before > 0, "nothing read, nothing to lose: {reason}");
                assert!(reason.contains("rewritten between writers"), "{reason}");
                assert!(follower.stats().ended);
            }
            Some(other) => panic!("read {read_before}: expected a decode error, got {other:?}"),
        }
        writer.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A lane whose sealed prefix a `Compactor` stored as format v4 — a
/// template table ahead of templated frames — then resumed: a follower
/// subscribed before the resume is handed the templated prefix and the
/// new appends, exactly what a cold `Snapshot` replays.
#[test]
fn a_lane_with_a_templated_prefix_is_followed_byte_for_byte() {
    // Twelve events of three types, the same payloads every window.
    let record_shape = |writer: &mut LaneWriter, id: u64| {
        let events: Vec<TraceEvent> = (0..12u64)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(id * 10_000 + i * 700 + id % 3),
                    EventTypeId::new((i % 3) as u16),
                    (i * 50) as u32,
                )
            })
            .collect();
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_micros(id * 10_000),
            end: Timestamp::from_micros((id + 1) * 10_000),
        };
        writer.record_window(&meta, &events, &payload).unwrap();
        payload
    };
    let dir = temp_dir("templated-prefix");
    let serve = ServeHandle::open(&dir).unwrap();
    let config = StoreConfig::default().with_segment_max_windows(3);
    let mut writer = serve.create_writer(0, config).unwrap();
    let mut recorded: Vec<u8> = (0..6)
        .flat_map(|id| record_shape(&mut writer, id))
        .collect();
    writer.close().unwrap();
    let policy = MaintenancePolicy::merge_below(u64::MAX / 4).with_recompress(CodecId::DeltaVarint);
    let report = Compactor::new(&dir, policy).compact().unwrap();
    assert_eq!(
        report.frames_by_codec()[usize::from(CodecId::Templated.as_u8())],
        6,
        "{report}"
    );
    assert_eq!(
        std::fs::read(dir.join("lane0000-000000.seg")).unwrap()[4],
        4
    );

    let follower = serve.subscribe_with(
        0,
        SubscribeOptions {
            buffer: usize::MAX,
            resume_grace: GRACE,
        },
    );
    let mut writer = serve.create_writer(0, config).unwrap();
    for id in 6..10 {
        recorded.extend(record_shape(&mut writer, id));
    }
    writer.close().unwrap();
    let followed: Vec<u8> = drain(&follower)
        .into_iter()
        .flat_map(|window| window.payload)
        .collect();
    assert_eq!(followed, recorded);
    let cold = Snapshot::open(&dir).unwrap().lane_payload_bytes(0).unwrap();
    assert_eq!(followed, cold, "byte for byte");
    drop(serve);
    std::fs::remove_dir_all(&dir).ok();
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append this many windows (resuming first when the writer is gone).
    Append(u64),
    /// Drop the writer without `close`, leaving a torn tail.
    Crash,
    /// Take the lane over through `create_writer`.
    Resume,
    /// One `recv` with this timeout.
    Recv(Duration),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 1u64..6).prop_map(|(kind, windows)| match kind {
        0..=2 => Op::Append(windows),
        3 => Op::Crash,
        4 => Op::Resume,
        5 | 6 => Op::Recv(Duration::ZERO),
        _ => Op::Recv(Duration::from_millis(5)),
    })
}

/// One lane's life as the schedule drives it, with the follower's log.
struct Run {
    serve: ServeHandle,
    config: StoreConfig,
    follower: Subscription,
    writer: Option<LaneWriter>,
    /// Since when the lane has had no writer.
    gone_since: Option<Instant>,
    next_id: u64,
    /// The lag bound, and how many windows a follower honouring it has
    /// consumed (delivered or skipped): writer and follower share this
    /// thread, so every `recv` has exactly one right answer.
    bound: u64,
    consumed: u64,
    payloads: HashMap<u64, Vec<u8>>,
    got: Vec<(u64, Vec<u8>)>,
    ended: bool,
    /// Each sealed segment's file, as first seen sealed.
    sealed: HashMap<u32, Vec<u8>>,
    /// The highest `watermark.windows` seen so far.
    windows: u64,
}

impl Run {
    fn resume(&mut self) {
        if self.writer.is_none() {
            self.writer = Some(self.serve.create_writer(0, self.config).unwrap());
            self.gone_since = None;
        }
    }

    fn lose_writer(&mut self, close: bool) {
        let Some(writer) = self.writer.take() else {
            return;
        };
        if close {
            writer.close().unwrap();
        } else {
            drop(writer);
            smear_torn_tail(self.serve.dir());
        }
        self.gone_since = Some(Instant::now());
    }

    fn recv(&mut self, timeout: Duration) {
        let ahead = self.next_id - self.consumed;
        let due = (ahead > 0).then(|| {
            self.consumed += ahead.saturating_sub(self.bound) + 1;
            self.consumed - 1
        });
        let step = self.follower.recv(timeout).unwrap();
        match step {
            SubscriptionStep::Window(window) => {
                assert_eq!(Some(window.entry.window_id), due, "bound {}", self.bound);
                self.got.push((window.entry.window_id, window.payload))
            }
            _ if due.is_some() => panic!("window {due:?} was committed, got {step:?}"),
            SubscriptionStep::TimedOut => {}
            SubscriptionStep::Ended => {
                let gone = self.gone_since.expect("ended under a live writer");
                assert!(gone.elapsed() >= GRACE, "ended before the resume grace");
                self.ended = true;
            }
        }
    }

    /// `docs/FORMAT.md` §6, "Immutability under a writer", after a step:
    /// every sealed segment's file is what it was when first seen sealed,
    /// and the committed window count has not fallen (nor, here, across
    /// a resume: recovery keeps every committed window). Between writers
    /// a crash smears its torn tail onto whichever file is newest.
    fn check_append_only(&mut self) {
        if self.writer.is_none() {
            return;
        }
        let view = self.serve.commit_log(0).expect("registered").view();
        assert!(view.watermark.windows >= self.windows, "{view:?}");
        self.windows = view.watermark.windows;
        for &(seq, _) in view.sealed.iter() {
            let path = self.serve.dir().join(format!("lane0000-{seq:06}.seg"));
            let bytes = std::fs::read(path).unwrap();
            let first = self.sealed.entry(seq).or_insert_with(|| bytes.clone());
            assert!(*first == bytes, "sealed segment {seq} changed");
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Append(windows) => {
                self.resume();
                for _ in 0..windows {
                    let writer = self.writer.as_mut().expect("resumed above");
                    self.payloads
                        .insert(self.next_id, record(writer, self.next_id));
                    self.next_id += 1;
                }
            }
            Op::Crash => self.lose_writer(false),
            Op::Resume => self.resume(),
            Op::Recv(timeout) => self.recv(timeout),
        }
    }
}

/// Runs `schedule`, closes the lane, drains the follower to `Ended` and
/// checks it against the cold snapshot — and, once a `Compactor` has
/// compressed the lane, against a cold snapshot of that. `buffer` is the
/// lag bound; a snapshot taken before step `snapshot_at` must still be
/// true at the end.
fn check(segment_max_windows: u64, buffer: usize, schedule: &[Op], snapshot_at: usize) {
    let dir = temp_dir(&format!("{buffer}"));
    let serve = ServeHandle::open(&dir).unwrap();
    let follower = serve.subscribe_with(
        0,
        SubscribeOptions {
            buffer,
            resume_grace: GRACE,
        },
    );
    let mut run = Run {
        serve,
        config: StoreConfig::default().with_segment_max_windows(segment_max_windows),
        follower,
        writer: None,
        gone_since: None,
        next_id: 0,
        bound: buffer.max(1) as u64,
        consumed: 0,
        payloads: HashMap::new(),
        got: Vec::new(),
        ended: false,
        sealed: HashMap::new(),
        windows: 0,
    };
    // The lane has a writer from the start, so `Ended` always means
    // "closed and the grace ran out", never "nobody ever wrote".
    run.resume();
    let mut early = None;
    for (step, &op) in schedule.iter().enumerate() {
        // A schedule slow enough to outlast the grace ends early; what
        // is on disk then is what the follower must have seen.
        if run.ended {
            break;
        }
        if step == snapshot_at % schedule.len() {
            let snapshot = run.serve.refresh().unwrap();
            let windows = snapshot.lane_windows(0).ok().map(<[_]>::to_vec);
            early = Some((snapshot, windows));
        }
        run.apply(op);
        run.check_append_only();
    }
    if !run.ended {
        run.lose_writer(true);
    }
    while !run.ended {
        run.recv(Duration::from_millis(5));
    }
    // The early snapshot answers as it did, and its payloads — first
    // asked for now, so read from the files as they are now — are the
    // ones recorded under the ids it captured.
    if let Some((snapshot, windows)) = early {
        assert_eq!(
            snapshot.lane_windows(0).ok(),
            windows.as_deref(),
            "early snapshot"
        );
        let recorded = windows.map(|windows| {
            let ids = windows.iter().map(|w| w.window_id);
            ids.flat_map(|id| run.payloads[&id].clone()).collect()
        });
        assert_eq!(
            snapshot.lane_payload_bytes(0).ok(),
            recorded,
            "early snapshot"
        );
    }

    let snapshot = Snapshot::open(&dir).unwrap();
    let committed: Vec<u64> = match snapshot.lane_windows(0) {
        Ok(windows) => windows.iter().map(|w| w.window_id).collect(),
        Err(_) => Vec::new(), // nothing was ever appended
    };
    let ids: Vec<u64> = run.got.iter().map(|(id, _)| *id).collect();
    let stats = run.follower.stats();
    assert_eq!(stats.delivered, ids.len() as u64);
    assert_eq!(stats.delivered + stats.dropped, committed.len() as u64);
    assert!(stats.ended);
    assert_eq!((stats.behind, stats.buffered), (0, 0));
    for (id, payload) in &run.got {
        assert_eq!(payload, &run.payloads[id], "window {id}");
    }
    if buffer == usize::MAX {
        assert_eq!(ids, committed, "exactly once, in commit order");
        let followed: Vec<u8> = run.got.iter().flat_map(|(_, p)| p.clone()).collect();
        let cold = snapshot.lane_payload_bytes(0).unwrap_or_default();
        assert_eq!(followed, cold, "byte for byte");
        let policy = MaintenancePolicy::disabled().with_recompress(CodecId::DeltaVarint);
        Compactor::new(&dir, policy).compact().unwrap();
        let compressed = Snapshot::open(&dir).unwrap();
        assert_eq!(compressed.lane_payload_bytes(0).unwrap_or_default(), cold);
    } else {
        assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{ids:?}");
        assert!(ids.iter().all(|id| committed.contains(id)), "{ids:?}");
        // The newest `buffer` windows are never the ones skipped.
        let kept = committed.len().saturating_sub(buffer.max(1));
        assert!(
            committed[kept..].iter().all(|id| ids.contains(id)),
            "delivered {ids:?} of {committed:?} under a bound of {buffer}"
        );
    }
    drop(run);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn the_pull_path_delivers_what_a_cold_snapshot_replays(
        schedule in prop::collection::vec(op(), 1..40),
        segment_max_windows in 2u64..5,
        lag_bound in 0usize..4,
        snapshot_at in 0usize..40,
    ) {
        check(segment_max_windows, usize::MAX, &schedule, snapshot_at);
        check(segment_max_windows, lag_bound, &schedule, snapshot_at);
    }
}
