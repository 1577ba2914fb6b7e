//! The writer → follower commit-watermark channel.
//!
//! A [`crate::LaneWriter`] owns one [`CommitLog`] per lane and publishes
//! a [`CommitWatermark`] after every durable append; any number of
//! followers hold clones of the log and block on it instead of
//! poll-scanning segment files. The log carries *state*, not a message
//! queue: a follower always sees the latest watermark, the cumulative
//! list of sealed (rotated, final-length) segments, and a closed flag set
//! when the writer goes away. Everything a follower needs to read the
//! committed prefix — and nothing past it — without ever racing the
//! writer on the filesystem. Nothing published is ever taken back: the
//! writer only appends, and whatever rewrites a lane (the
//! [`crate::Compactor`]) runs when no writer, and so no log, holds it.
//!
//! The writer pays for a follower only while one is blocked in
//! [`CommitLog::wait_newer`]: an update with nobody waiting is a lock, a
//! store and an unlock, with no wake-up call.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use trace_model::CommitWatermark;

use crate::pack::PackedSegment;

/// Shared commit-watermark channel of one lane (see the module docs).
///
/// Cheap to clone; all clones observe the same state. The publishing
/// side is crate-internal (only [`crate::LaneWriter`] writes); consumers
/// read via [`CommitLog::view`] / [`CommitLog::wait_newer`].
#[derive(Debug, Clone)]
pub struct CommitLog {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    lane: u32,
    /// The lane's segment in the newest pack holding it, which a follower
    /// reads from the pack: fixed when the writer recovered the lane.
    packed: Option<PackedSegment>,
    state: Mutex<State>,
    advanced: Condvar,
}

#[derive(Debug)]
struct State {
    watermark: CommitWatermark,
    /// Replaced (never mutated) by `seal`, so every view taken between
    /// two seals shares one allocation.
    sealed: Arc<[(u32, u64)]>,
    version: u64,
    closed: bool,
    /// Threads inside `wait_newer`'s condvar wait; an update notifies
    /// only when this is nonzero (std's `Condvar` keeps no such count, so
    /// an unconditional `notify_all` is a `futex` call per append).
    waiters: usize,
}

impl State {
    fn view(&self) -> CommitView {
        CommitView {
            watermark: self.watermark,
            sealed: Arc::clone(&self.sealed),
            version: self.version,
            closed: self.closed,
        }
    }
}

/// One consistent observation of a [`CommitLog`].
#[derive(Debug, Clone)]
pub struct CommitView {
    /// The latest published watermark.
    pub watermark: CommitWatermark,
    /// Final committed byte lengths of every sealed (closed) segment,
    /// ascending by sequence number. A sealed segment's bytes never change
    /// again while this log's writer lives (`docs/FORMAT.md` §6). The
    /// list is shared, not copied: views taken between two seals point at
    /// the same slice, and a later seal leaves a held view's list as it
    /// was.
    pub sealed: Arc<[(u32, u64)]>,
    /// Monotonic change counter, for [`CommitLog::wait_newer`].
    pub version: u64,
    /// Whether the writer has closed (cleanly or by being dropped). The
    /// watermark then marks the exact end of the committed data.
    pub closed: bool,
}

impl CommitView {
    /// The committed byte bound of segment `seq` under this view:
    /// its sealed final length, the live watermark for the segment being
    /// appended, or `None` for a segment the writer has not reported.
    pub fn bound(&self, seq: u32) -> Option<u64> {
        if let Ok(at) = self.sealed.binary_search_by_key(&seq, |&(s, _)| s) {
            return Some(self.sealed[at].1);
        }
        (self.watermark.segment == seq).then_some(self.watermark.committed_bytes)
    }

    /// The smallest reported segment strictly greater than `seq` (or the
    /// smallest of all when `seq` is `None`) that holds committed bytes.
    pub fn next_segment(&self, seq: Option<u32>) -> Option<u32> {
        let after = |candidate: u32| seq.map_or(true, |s| candidate > s);
        let sealed = self
            .sealed
            .iter()
            .filter(|&&(s, len)| after(s) && len > 0)
            .map(|&(s, _)| s)
            .next();
        let live = (after(self.watermark.segment) && self.watermark.committed_bytes > 0)
            .then_some(self.watermark.segment);
        match (sealed, live) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl CommitLog {
    /// Creates an empty log for `lane`, whose segment `packed` (if any)
    /// lies in a pack (version 0, nothing committed).
    pub(crate) fn new(lane: u32, packed: Option<PackedSegment>) -> Self {
        CommitLog {
            shared: Arc::new(Shared {
                lane,
                packed,
                state: Mutex::new(State {
                    watermark: CommitWatermark::empty(lane),
                    sealed: Arc::new([]),
                    version: 0,
                    closed: false,
                    waiters: 0,
                }),
                advanced: Condvar::new(),
            }),
        }
    }

    /// The lane this log describes.
    pub fn lane(&self) -> u32 {
        self.shared.lane
    }

    /// The lane's segment in a pack, if it has one.
    pub(crate) fn packed(&self) -> Option<&PackedSegment> {
        self.shared.packed.as_ref()
    }

    fn update(&self, apply: impl FnOnce(&mut State)) {
        let mut state = self.shared.state.lock().expect("commit log poisoned");
        apply(&mut state);
        state.version += 1;
        // A waiter registers under this mutex before it waits, so one
        // that is not counted here has yet to check `version` and will
        // see this update without being woken.
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.shared.advanced.notify_all();
        }
    }

    /// Publishes a new watermark (writer side, after a durable append).
    pub(crate) fn publish(&self, watermark: CommitWatermark) {
        debug_assert_eq!(watermark.lane, self.shared.lane);
        self.update(|state| state.watermark = watermark);
    }

    /// Records the final committed length of a rotated segment.
    pub(crate) fn seal(&self, seq: u32, committed_bytes: u64) {
        self.update(|state| {
            let mut sealed = state.sealed.to_vec();
            match sealed.binary_search_by_key(&seq, |&(s, _)| s) {
                Ok(at) => sealed[at].1 = committed_bytes,
                Err(at) => sealed.insert(at, (seq, committed_bytes)),
            };
            state.sealed = sealed.into();
        });
    }

    /// Marks the writer gone. Idempotent; called from the writer's `Drop`,
    /// so it fires on clean close and simulated crash alike.
    pub(crate) fn close(&self) {
        self.update(|state| state.closed = true);
    }

    /// A consistent snapshot of the log's current state.
    pub fn view(&self) -> CommitView {
        self.shared
            .state
            .lock()
            .expect("commit log poisoned")
            .view()
    }

    /// Blocks until the log's version exceeds `seen` (returning the new
    /// view) or `timeout` elapses (returning the unchanged view). Never
    /// blocks when something newer than `seen` is already published.
    ///
    /// Only a caller blocked here makes the writer's next update pay for
    /// a wake-up.
    pub fn wait_newer(&self, seen: u64, timeout: Duration) -> CommitView {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("commit log poisoned");
        while state.version <= seen && !state.closed {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            state.waiters += 1;
            let (next, wait) = self
                .shared
                .advanced
                .wait_timeout(state, remaining)
                .expect("commit log poisoned");
            state = next;
            state.waiters -= 1;
            if wait.timed_out() {
                break;
            }
        }
        state.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn views_observe_publishes_and_seals() {
        let log = CommitLog::new(3, None);
        assert_eq!(log.view().version, 0);
        log.publish(CommitWatermark {
            lane: 3,
            segment: 0,
            committed_bytes: 99,
            windows: 2,
        });
        log.seal(0, 99);
        let view = log.view();
        assert_eq!(view.watermark.committed_bytes, 99);
        assert_eq!(*view.sealed, [(0, 99)]);
        assert_eq!(view.bound(0), Some(99));
        assert_eq!(view.bound(1), None);
        assert!(!view.closed);
    }

    #[test]
    fn next_segment_skips_empty_and_orders_sealed_before_live() {
        let log = CommitLog::new(0, None);
        log.seal(0, 0); // recovered-empty segment: no committed bytes
        log.seal(1, 50);
        log.publish(CommitWatermark {
            lane: 0,
            segment: 2,
            committed_bytes: 30,
            windows: 3,
        });
        let view = log.view();
        assert_eq!(view.next_segment(None), Some(1));
        assert_eq!(view.next_segment(Some(1)), Some(2));
        assert_eq!(view.next_segment(Some(2)), None);
    }

    #[test]
    fn wait_newer_returns_immediately_on_newer_version_and_blocks_otherwise() {
        let log = CommitLog::new(0, None);
        log.seal(0, 40);
        let view = log.wait_newer(0, Duration::from_secs(5));
        assert_eq!(view.version, 1);
        let start = std::time::Instant::now();
        let view = log.wait_newer(view.version, Duration::from_millis(30));
        assert_eq!(view.version, 1);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn views_share_the_sealed_list() {
        let log = CommitLog::new(0, None);
        log.seal(0, 40);
        let (first, second) = (log.view(), log.view());
        assert!(Arc::ptr_eq(&first.sealed, &second.sealed));
        assert!(Arc::ptr_eq(
            &first.sealed,
            &log.wait_newer(0, Duration::ZERO).sealed
        ));
        log.seal(1, 70);
        assert_eq!(*first.sealed, [(0, 40)], "a held view never changes");
        assert_eq!(*log.view().sealed, [(0, 40), (1, 70)]);
    }

    /// `update` notifies only when a waiter has registered. Two waiters
    /// chase one writer through 50 000 updates at random 0–3 µs gaps;
    /// every 64th update the writer stands still until both have seen
    /// it, so a wake-up lost there has no later update to hide behind —
    /// it shows as a 5 s timeout, which the waiters refuse.
    fn no_update_is_slept_through(wake: impl Fn(&CommitLog, u64) + Sync) {
        use std::sync::atomic::{AtomicU64, Ordering};
        const UPDATES: u64 = 50_000;
        let log = CommitLog::new(0, None);
        let seen = [AtomicU64::new(0), AtomicU64::new(0)];
        std::thread::scope(|scope| {
            let waiters = [&seen[0], &seen[1]].map(|seen| {
                let log = log.clone();
                scope.spawn(move || loop {
                    let before = seen.load(Ordering::SeqCst);
                    let asked = Instant::now();
                    let view = log.wait_newer(before, Duration::from_secs(5));
                    assert!(view.version > before);
                    assert!(
                        asked.elapsed() < Duration::from_secs(4),
                        "slept through version {}",
                        before + 1
                    );
                    seen.store(view.version, Ordering::SeqCst);
                    if view.closed {
                        return;
                    }
                })
            });
            let mut random = 0x9E37_79B9_7F4A_7C15u64;
            for update in 1..=UPDATES {
                wake(&log, update);
                if update % 64 == 0 {
                    while seen.iter().any(|s| s.load(Ordering::SeqCst) < update) {
                        // A waiter that failed its assertion never catches up.
                        if waiters.iter().any(|waiter| waiter.is_finished()) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
                random ^= random << 13;
                random ^= random >> 7;
                random ^= random << 17;
                let gap = Duration::from_nanos(random % 3_000);
                let start = Instant::now();
                while start.elapsed() < gap {
                    std::hint::spin_loop();
                }
            }
            log.close();
        });
        assert_eq!(log.view().version, UPDATES + 1);
    }

    #[test]
    fn no_publish_is_slept_through() {
        no_update_is_slept_through(|log, update| {
            log.publish(CommitWatermark {
                lane: 0,
                segment: 0,
                committed_bytes: update,
                windows: update,
            });
        });
    }

    #[test]
    fn no_seal_is_slept_through() {
        no_update_is_slept_through(|log, update| log.seal((update % 8) as u32, update));
    }

    #[test]
    fn close_wakes_waiters() {
        let log = CommitLog::new(0, None);
        let waiter = {
            let log = log.clone();
            std::thread::spawn(move || log.wait_newer(0, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        log.close();
        let view = waiter.join().unwrap();
        assert!(view.closed);
    }
}
