//! # endurance-serve
//!
//! Live serving layer over the endurance store: shared snapshots and
//! tail-follow subscriptions.
//!
//! The store crate gives a recording fleet durability (`LaneWriter`) and
//! cold replay (`StoreReader`). This crate adds the *online* read side —
//! what a dashboard, a scoring job, or a debugging session needs while
//! the endurance run is still appending:
//!
//! * [`ServeHandle`] — one handle per store directory. It creates (or
//!   adopts) lane writers, tracks their commit logs, and serves reads.
//! * **Snapshot queries** — [`ServeHandle::snapshot`] hands out the
//!   handle's immutable, cheaply cloneable [`Snapshot`] of everything
//!   committed, which answers every `StoreReader` query.
//!   Snapshots share one segment-buffer pool with every other consumer
//!   of the handle, so N concurrent readers hold one copy of each
//!   resident segment.
//! * **Tail subscriptions** — [`ServeHandle::subscribe`] hands out a
//!   cursor that receives every committed window of a lane exactly
//!   once, in commit order, from the start of the lane through live
//!   appends — waking on the writer's commit watermarks, never
//!   poll-scanning, never observing a torn tail. The serving layer owns
//!   no thread: [`Subscription::recv`] does the reading on its caller's
//!   thread and nothing is queued in memory. The lag is bounded instead:
//!   a subscriber that falls too far behind skips its *oldest* pending
//!   windows (with [`SubscriptionStats`] accounting) rather than
//!   stalling anything.
//!
//! ## Record live, follow live
//!
//! ```rust
//! use endurance_serve::{ServeHandle, SubscriptionStep};
//! use endurance_store::StoreConfig;
//! use std::time::Duration;
//! use trace_model::{EventSink, EventTypeId, Timestamp, TraceEvent};
//!
//! # fn main() -> Result<(), trace_model::TraceError> {
//! let dir = std::env::temp_dir().join(format!("eserve-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let serve = ServeHandle::open(&dir)?;
//! let mut writer = serve.create_writer(0, StoreConfig::default())?;
//! let follower = serve.subscribe(0);
//!
//! writer.record(&[TraceEvent::new(Timestamp::from_micros(10), EventTypeId::new(1), 7)])?;
//! let step = follower.recv(Duration::from_secs(5))?;
//! assert!(matches!(step, SubscriptionStep::Window(_)));
//!
//! writer.close()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod hub;
mod subscription;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use endurance_obs::Registry;
use endurance_store::{
    CommitLog, LaneWriter, SegmentCache, Snapshot, StoreConfig, StoreReader, StoreWriter,
};
use trace_model::TraceError;

use hub::Hub;

pub use subscription::{SubscribeOptions, Subscription, SubscriptionStep};
// Re-exported so subscribers don't need a direct endurance-store
// dependency to consume delivered windows or read lag stats.
pub use endurance_store::TailWindow;
pub use trace_model::SubscriptionStats;

/// The serving facade over one store directory.
///
/// Cheap to clone; clones share the snapshot cache, the segment-buffer
/// pool, the writer registry and the directory's write handle. See the
/// [crate docs](crate) for the full picture.
///
/// Snapshot queries answer from the handle's **current** snapshot,
/// captured lazily on first use and replaced only by
/// [`ServeHandle::refresh`] — a deliberate trade: queries are stable and
/// repeatable between refreshes, and a refresh is one directory listing
/// plus sidecar reads (segment buffers carry over through the shared
/// pool). Subscriptions are independent of snapshots and always follow
/// the live commit stream.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    cache: Arc<SegmentCache>,
    hub: Arc<Hub>,
    /// The directory opened for writing, by the first `create_writer`:
    /// a handle that only serves reads never lists for it.
    store: Arc<Mutex<Option<Arc<StoreWriter>>>>,
    snapshot: Mutex<Option<Snapshot>>,
    registry: Arc<Registry>,
}

impl ServeHandle {
    /// Opens (creating if absent) a store directory for serving.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TraceError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let cache = Arc::new(SegmentCache::new(&dir));
        Ok(ServeHandle {
            inner: Arc::new(Inner {
                dir,
                cache,
                hub: Arc::new(Hub::default()),
                store: Arc::default(),
                snapshot: Mutex::new(None),
                registry: Registry::disabled(),
            }),
        })
    }

    /// Publishes this handle's serving metrics — and those of every
    /// writer, snapshot and subscription it subsequently creates — into
    /// `registry`: segment-cache hits/misses and CRC validations
    /// (`store_segcache_*`, `store_crc_validations_total`), lane write
    /// counters on writers from [`ServeHandle::create_writer`]
    /// (`store_frames_written_total`, …) and the directory listings those
    /// creations cost (`store_dir_listings_total`), and per-lane delivery
    /// counters plus watermark-lag gauges on subscriptions (`serve_*`).
    ///
    /// Call immediately after [`ServeHandle::open`], before creating
    /// writers, subscriptions or clones: existing clones keep serving
    /// from the un-instrumented segment pool.
    #[must_use]
    pub fn with_metrics(self, registry: Arc<Registry>) -> Self {
        let dir = self.inner.dir.clone();
        let cache = Arc::new(SegmentCache::new(&dir).with_metrics(&registry));
        ServeHandle {
            inner: Arc::new(Inner {
                dir,
                cache,
                hub: Arc::clone(&self.inner.hub),
                store: Arc::clone(&self.inner.store),
                snapshot: Mutex::new(None),
                registry,
            }),
        }
    }

    /// The store directory this handle serves.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Creates a [`LaneWriter`] for `lane` in the served directory and
    /// registers its commit log, so subscriptions to the lane follow it.
    /// Creating a new writer for a lane a previous (crashed or closed)
    /// writer owned is the resume path: live subscriptions carry over to
    /// the new writer without re-delivering anything.
    ///
    /// The writer is handed back by value, for the session that records
    /// into it — `with_sink` on the thread that runs that session, a
    /// `FleetReducer` worker in every fleet path; the commit plumbing
    /// rides along inside it.
    ///
    /// Writers come from one [`StoreWriter`] over the directory, opened
    /// by the first call and shared by every clone: the directory is
    /// listed once then, and again only for a lane that can have files —
    /// one that was there at that listing or that this handle created
    /// before — so a fleet's thousandth new lane costs what its first
    /// did. While this handle writes, lanes of the directory are created
    /// only through it (`docs/FORMAT.md` §1); one made behind its back is
    /// refused at the first append (`AlreadyExists`), never overwritten.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LaneWriter::create`].
    pub fn create_writer(&self, lane: u32, config: StoreConfig) -> Result<LaneWriter, TraceError> {
        let writer = self
            .store_writer()?
            .lane(lane, config)?
            .with_metrics(&self.inner.registry);
        self.inner.hub.register(writer.commit_log());
        Ok(writer)
    }

    /// The directory's write handle, opened on first use.
    fn store_writer(&self) -> Result<Arc<StoreWriter>, TraceError> {
        // The write handle is set once, whole: a panic cannot leave it
        // half made.
        let mut store = self
            .inner
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(store) = store.as_ref() {
            return Ok(Arc::clone(store));
        }
        let opened =
            Arc::new(StoreWriter::open(&self.inner.dir)?.with_metrics(&self.inner.registry));
        *store = Some(Arc::clone(&opened));
        Ok(opened)
    }

    /// The currently registered commit log for `lane`, if any writer
    /// has registered one.
    pub fn commit_log(&self, lane: u32) -> Option<CommitLog> {
        self.inner.hub.current(lane).map(|reg| reg.log)
    }

    /// The handle's current [`Snapshot`], capturing one on first use.
    /// The snapshot is immutable — windows committed after its capture
    /// are served only after [`ServeHandle::refresh`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the directory cannot be listed.
    pub fn snapshot(&self) -> Result<Snapshot, TraceError> {
        let mut cached = self.cached_snapshot();
        if let Some(snapshot) = cached.as_ref() {
            return Ok(snapshot.clone());
        }
        let fresh = self.capture()?;
        *cached = Some(fresh.clone());
        Ok(fresh)
    }

    /// Captures a fresh [`Snapshot`] — observing everything committed up
    /// to now — and makes it the handle's current one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeHandle::snapshot`].
    pub fn refresh(&self) -> Result<Snapshot, TraceError> {
        let fresh = self.capture()?;
        *self.cached_snapshot() = Some(fresh.clone());
        Ok(fresh)
    }

    /// Locks the snapshot cache. A panic while it was held (in a
    /// snapshot's capture) left the snapshot before it, or none, which is
    /// still one to serve.
    fn cached_snapshot(&self) -> MutexGuard<'_, Option<Snapshot>> {
        self.inner
            .snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn capture(&self) -> Result<Snapshot, TraceError> {
        let reader = StoreReader::open_with_cache(&self.inner.dir, Arc::clone(&self.inner.cache))?;
        Ok(reader.snapshot())
    }

    /// Subscribes to `lane` with default [`SubscribeOptions`]: the
    /// follower receives every committed window exactly once, starting
    /// from the beginning of the lane, then follows live appends. The
    /// lane's writer may register before or after this call.
    pub fn subscribe(&self, lane: u32) -> Subscription {
        self.subscribe_with(lane, SubscribeOptions::default())
    }

    /// Subscribes to `lane` with an explicit lag bound and resume grace.
    /// Creating a subscription reads nothing and starts nothing; the
    /// work happens in [`Subscription::recv`].
    pub fn subscribe_with(&self, lane: u32, opts: SubscribeOptions) -> Subscription {
        Subscription::new(
            self.inner.dir.clone(),
            Arc::clone(&self.inner.hub),
            lane,
            opts,
            &self.inner.registry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use trace_model::codec::{BinaryEncoder, TraceEncoder};
    use trace_model::{EventSink, EventTypeId, RecordMeta, Timestamp, TraceEvent, WindowId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("endurance-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(writer: &mut LaneWriter, id: u64, count: usize) -> Vec<u8> {
        let events: Vec<TraceEvent> = (0..count)
            .map(|i| {
                TraceEvent::new(
                    Timestamp::from_micros(id * 1_000 + i as u64 * 10),
                    EventTypeId::new((i % 3) as u16),
                    id as u32,
                )
            })
            .collect();
        let mut encoded = Vec::new();
        BinaryEncoder::new().encode(&events, &mut encoded).unwrap();
        let meta = RecordMeta {
            window_id: WindowId::new(id),
            start: Timestamp::from_micros(id * 1_000),
            end: Timestamp::from_micros((id + 1) * 1_000),
        };
        writer.record_window(&meta, &events, &encoded).unwrap();
        encoded
    }

    fn drain(sub: &Subscription) -> Vec<TailWindow> {
        let mut out = Vec::new();
        loop {
            match sub.recv(Duration::from_secs(10)).unwrap() {
                SubscriptionStep::Window(window) => out.push(window),
                SubscriptionStep::Ended => return out,
                SubscriptionStep::TimedOut => panic!("no writer left; must end, not time out"),
            }
        }
    }

    #[test]
    fn subscription_delivers_all_windows_and_matches_the_snapshot() {
        let dir = temp_dir("deliver");
        let serve = ServeHandle::open(&dir).unwrap();
        let follower = serve.subscribe(0); // subscribed before the writer exists
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        let mut payloads = Vec::new();
        for id in 0..9u64 {
            payloads.push(record(&mut writer, id, 4));
        }
        writer.close().unwrap();

        let got = drain(&follower);
        let ids: Vec<u64> = got.iter().map(|w| w.entry.window_id).collect();
        assert_eq!(ids, (0..9).collect::<Vec<u64>>());
        let followed: Vec<u8> = got.iter().flat_map(|w| w.payload.clone()).collect();
        let snapshot = serve.refresh().unwrap();
        assert_eq!(followed, snapshot.lane_payload_bytes(0).unwrap());
        let stats = follower.stats();
        assert_eq!(stats.delivered, 9);
        assert_eq!(stats.dropped, 0);
        assert!(stats.ended);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_queries_are_stable_until_refresh() {
        let dir = temp_dir("stable");
        let serve = ServeHandle::open(&dir).unwrap();
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        record(&mut writer, 0, 3);
        writer.sync().unwrap();
        let events = |id| serve.snapshot()?.window_events(0, WindowId::new(id));
        assert_eq!(events(0).unwrap().unwrap().len(), 3);
        record(&mut writer, 1, 3);
        writer.close().unwrap();
        // The cached snapshot predates window 1...
        assert!(events(1).unwrap().is_none());
        // ...until a refresh observes it.
        serve.refresh().unwrap();
        assert!(events(1).unwrap().is_some());
        let (from, to) = (Timestamp::from_micros(0), Timestamp::from_micros(5_000));
        let snapshot = serve.snapshot().unwrap();
        assert_eq!(snapshot.windows_in_range(0, from, to).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_subscribers_drop_oldest_but_stay_live() {
        let dir = temp_dir("lag");
        let serve = ServeHandle::open(&dir).unwrap();
        let follower = serve.subscribe_with(
            0,
            SubscribeOptions {
                buffer: 2,
                ..SubscribeOptions::default()
            },
        );
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        for id in 0..20u64 {
            record(&mut writer, id, 3);
        }
        writer.close().unwrap();
        // The first `recv` finds 20 windows ahead of a lag bound of 2.
        let mut got = Vec::new();
        loop {
            match follower.recv(Duration::from_secs(10)).unwrap() {
                SubscriptionStep::Window(window) => got.push(window.entry.window_id),
                SubscriptionStep::Ended => break,
                SubscriptionStep::TimedOut => panic!("writer closed; must end"),
            }
        }
        let stats = follower.stats();
        assert_eq!(got.len() as u64 + stats.dropped, 20);
        // Whatever was delivered is strictly increasing (no duplicates,
        // no reordering — only gaps from the drops).
        assert!(got.windows(2).all(|pair| pair[0] < pair[1]), "{got:?}");
        if stats.dropped > 0 {
            assert_eq!(*got.last().unwrap(), 19, "newest windows are kept");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_and_resume_carries_subscriptions_over() {
        let dir = temp_dir("resume");
        let serve = ServeHandle::open(&dir).unwrap();
        let follower = serve.subscribe_with(
            0,
            SubscribeOptions {
                resume_grace: Duration::from_secs(5),
                ..SubscribeOptions::default()
            },
        );
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        for id in 0..3u64 {
            record(&mut writer, id, 4);
        }
        drop(writer); // crash

        // Collect the three committed windows while the lane has no
        // writer; the subscription stays open within the grace.
        let mut ids = Vec::new();
        while ids.len() < 3 {
            match follower.recv(Duration::from_secs(10)).unwrap() {
                SubscriptionStep::Window(window) => ids.push(window.entry.window_id),
                other => panic!("expected a window, got {other:?}"),
            }
        }

        // Resume: the new writer registers under the same handle and the
        // follower continues without re-delivery.
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        for id in 3..6u64 {
            record(&mut writer, id, 4);
        }
        writer.close().unwrap();
        // The subscription stays open for the resume grace after the
        // close, so wait comfortably past it for the end.
        loop {
            match follower.recv(Duration::from_secs(30)).unwrap() {
                SubscriptionStep::Window(window) => ids.push(window.entry.window_id),
                SubscriptionStep::Ended => break,
                SubscriptionStep::TimedOut => panic!("subscription must end after the grace"),
            }
        }
        assert_eq!(ids, (0..6).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn many_followers_see_identical_streams() {
        let dir = temp_dir("fanout");
        let serve = ServeHandle::open(&dir).unwrap();
        let followers: Vec<Subscription> = (0..4).map(|_| serve.subscribe(0)).collect();
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        for id in 0..12u64 {
            record(&mut writer, id, 5);
        }
        writer.close().unwrap();
        let streams: Vec<Vec<u8>> = followers
            .iter()
            .map(|follower| {
                drain(follower)
                    .iter()
                    .flat_map(|w| w.payload.clone())
                    .collect()
            })
            .collect();
        for stream in &streams[1..] {
            assert_eq!(stream, &streams[0]);
        }
        let snapshot = serve.snapshot().unwrap();
        assert_eq!(streams[0], snapshot.lane_payload_bytes(0).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_metrics_match_tailer_and_cache_ground_truth() {
        let dir = temp_dir("metrics");
        let registry = Registry::new();
        let serve = ServeHandle::open(&dir)
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        let follower = serve.subscribe(0);
        let mut writer = serve.create_writer(0, StoreConfig::default()).unwrap();
        for id in 0..9u64 {
            record(&mut writer, id, 4);
        }
        writer.close().unwrap();
        let got = drain(&follower);
        assert_eq!(got.len(), 9);

        // Delivery counters and the lag gauge agree with the follower's
        // own accounting once the lane is fully drained.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_total("serve_windows_delivered_total"),
            follower.stats().delivered
        );
        assert_eq!(snap.counter_total("serve_windows_dropped_total"), 0);
        assert_eq!(snap.gauge_total("serve_watermark_lag"), 0);
        assert_eq!(snap.counter_total("store_frames_written_total"), 9);

        // First cold read pass: every segment fetch is a miss, every
        // frame is CRC-validated exactly once.
        let snapshot = serve.refresh().unwrap();
        snapshot.lane_payload_bytes(0).unwrap();
        let after_first = registry.snapshot();
        let misses = after_first.counter_total("store_segcache_misses_total");
        let hits = after_first.counter_total("store_segcache_hits_total");
        assert!(misses >= 1);
        assert_eq!(after_first.counter_total("store_crc_validations_total"), 9);

        // A fresh snapshot over the same pool: the same segment fetches
        // all hit the shared buffers, nothing re-reads or re-validates.
        serve.refresh().unwrap().lane_payload_bytes(0).unwrap();
        let after_second = registry.snapshot();
        assert_eq!(
            after_second.counter_total("store_segcache_misses_total"),
            misses
        );
        assert_eq!(
            after_second.counter_total("store_segcache_hits_total"),
            hits + misses
        );
        assert_eq!(after_second.counter_total("store_crc_validations_total"), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn creating_lanes_lists_the_directory_once_and_again_only_to_resume() {
        let dir = temp_dir("listings");
        let registry = Registry::new();
        let serve = ServeHandle::open(&dir)
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        let listings = || {
            registry
                .snapshot()
                .counter_total("store_dir_listings_total")
        };

        // Serving reads never opens the directory for writing.
        serve.snapshot().unwrap();
        assert_eq!(listings(), 0);

        // Two workers, 200 new lanes each, racing for the first create:
        // the directory is opened (and listed) once between them.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for worker in 0..2u32 {
                let (serve, start) = (serve.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for lane in worker * 200..(worker + 1) * 200 {
                        let mut writer = serve.create_writer(lane, StoreConfig::default()).unwrap();
                        record(&mut writer, 0, 3);
                        writer.close().unwrap();
                    }
                });
            }
        });
        assert_eq!(listings(), 1);
        assert_eq!(serve.refresh().unwrap().lane_ids().len(), 400);

        // Resuming a lane the handle created lists, from any clone.
        let resumed = serve
            .clone()
            .create_writer(7, StoreConfig::default())
            .unwrap();
        assert_eq!(resumed.recovery().windows, 1);
        assert_eq!(listings(), 2);
        drop(resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subscription_to_a_writerless_lane_can_be_dropped() {
        let dir = temp_dir("idle");
        let serve = ServeHandle::open(&dir).unwrap();
        let follower = serve.subscribe(7);
        assert!(matches!(
            follower.recv(Duration::from_millis(30)).unwrap(),
            SubscriptionStep::TimedOut
        ));
        drop(follower); // must not hang
        std::fs::remove_dir_all(&dir).ok();
    }
}
