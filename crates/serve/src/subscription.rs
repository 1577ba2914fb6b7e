//! Tail-follow subscriptions: a cursor over a lane's committed prefix
//! that the subscriber advances on its own thread. Nothing runs, and
//! nothing is held in memory, between two [`Subscription::recv`] calls —
//! the committed prefix on disk is the buffer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use endurance_obs::{Counter, Gauge, Histogram, Registry};
use endurance_store::{CommitView, TailStep, TailWindow, Tailer};
use trace_model::{SubscriptionStats, TraceError};

use crate::hub::{Hub, Registration};

/// Tuning for one subscription.
#[derive(Debug, Clone, Copy)]
pub struct SubscribeOptions {
    /// The lag bound, in windows. A [`Subscription::recv`] that finds
    /// more than this many committed windows ahead of its cursor skips
    /// the **oldest** of them (counted in [`SubscriptionStats::dropped`])
    /// and delivers from the newest `buffer` on, so a slow subscriber
    /// samples the tail instead of falling ever further behind. A
    /// subscriber that must see every window asks for `usize::MAX`:
    /// nothing is held in memory either way.
    pub buffer: usize,
    /// After the writer closes, how long the subscription waits for a
    /// *new* writer to take over the lane (the crash/resume path) before
    /// it ends — timed from the first `recv` that observes the close.
    pub resume_grace: Duration,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        SubscribeOptions {
            buffer: 64,
            resume_grace: Duration::from_millis(500),
        }
    }
}

/// What one [`Subscription::recv`] call produced.
#[derive(Debug)]
pub enum SubscriptionStep {
    /// The next committed window (the oldest within the lag bound).
    Window(TailWindow),
    /// Nothing arrived within the timeout; call again.
    TimedOut,
    /// The writer closed, every committed window has been consumed, and
    /// no successor appeared within the resume grace. Terminal.
    Ended,
}

/// A live subscription to one lane's committed windows.
///
/// Created by [`crate::ServeHandle::subscribe`]. The subscription owns
/// no thread and no queue: each [`Subscription::recv`] reads the next
/// frame of the committed prefix — CRC-verified, never past a published
/// bound — on the caller's thread, blocking on the writer's commit log
/// when it is caught up. A lane nobody is reading costs its writer
/// nothing; a slow subscriber loses its *oldest* pending windows
/// (visible in [`SubscriptionStats::dropped`]), never the writer's
/// throughput.
///
/// `recv` calls on one subscription are serialised: several threads may
/// share it and each window goes to exactly one of them, but a call
/// waits for the one before it to return. [`Subscription::stats`] never
/// waits.
#[derive(Debug)]
pub struct Subscription {
    lane: u32,
    dir: PathBuf,
    hub: Arc<Hub>,
    /// `SubscribeOptions::buffer`, at least one so `recv` can deliver.
    lag_bound: u64,
    resume_grace: Duration,
    metrics: SubscriptionMetrics,
    cursor: Mutex<Cursor>,
    // Kept outside the cursor so `stats` never waits behind a `recv`.
    delivered: AtomicU64,
    dropped: AtomicU64,
    ended: AtomicBool,
}

/// Registry handles for one subscription, labelled by lane. Several
/// followers of the same lane share the same label set, so the exported
/// counters aggregate across them while [`Subscription::stats`] stays
/// per-follower.
#[derive(Debug)]
struct SubscriptionMetrics {
    registry: Arc<Registry>,
    windows_delivered: Counter,
    windows_dropped: Counter,
    watermark_lag: Gauge,
    pump_ns: Histogram,
}

impl SubscriptionMetrics {
    fn for_lane(registry: &Arc<Registry>, lane: u32) -> Self {
        let index = lane.to_string();
        let labels: &[(&str, &str)] = &[("lane", &index)];
        SubscriptionMetrics {
            registry: Arc::clone(registry),
            windows_delivered: registry.counter_with("serve_windows_delivered_total", labels),
            windows_dropped: registry.counter_with("serve_windows_dropped_total", labels),
            watermark_lag: registry.gauge_with("serve_watermark_lag", labels),
            pump_ns: registry.histogram_with("serve_pump_ns", labels),
        }
    }

    /// Counts the end of one subscription to `lane`, by cause.
    fn ended(&self, lane: u32, cause: &str) {
        let labels: &[(&str, &str)] = &[("lane", &lane.to_string()), ("cause", cause)];
        self.registry
            .counter_with("serve_subscription_ended_total", labels)
            .inc();
    }
}

/// What `recv` advances; locked for the length of one call.
#[derive(Debug, Default)]
struct Cursor {
    /// `None` until the lane's first writer registers.
    follow: Option<Follow>,
    /// The rendering of the failure that ended the subscription.
    error: Option<String>,
}

#[derive(Debug)]
struct Follow {
    tailer: Tailer,
    /// The registration `tailer` is bound to.
    registration: Registration,
    /// When a `recv` first saw that registration's writer gone.
    closed_at: Option<Instant>,
}

impl Follow {
    /// Moves the cursor, as it stands, onto a successor writer's log and
    /// takes a first look at it.
    fn rebind(&mut self, successor: Registration) -> Result<CommitView, TraceError> {
        self.tailer.rebind(successor.log.clone())?;
        self.registration = successor;
        self.closed_at = None;
        Ok(self.registration.log.view())
    }
}

impl Subscription {
    pub(crate) fn new(
        dir: PathBuf,
        hub: Arc<Hub>,
        lane: u32,
        opts: SubscribeOptions,
        registry: &Arc<Registry>,
    ) -> Self {
        Subscription {
            lane,
            dir,
            hub,
            lag_bound: opts.buffer.max(1) as u64,
            resume_grace: opts.resume_grace,
            metrics: SubscriptionMetrics::for_lane(registry, lane),
            cursor: Mutex::default(),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ended: AtomicBool::new(false),
        }
    }

    /// The lane this subscription follows.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Receives the next committed window, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// The call that meets a failure returns the tailer's own error — an
    /// I/O or decode error with its offset, or the refusal to follow a
    /// successor writer into a lane that was rewritten between the two
    /// ([`Tailer::rebind`]). The failure is sticky: every later call
    /// returns its rendering as a [`TraceError::Decode`]. A `recv` that
    /// panicked is such a failure: it left the cursor wherever it stopped.
    pub fn recv(&self, timeout: Duration) -> Result<SubscriptionStep, TraceError> {
        let deadline = Instant::now() + timeout;
        let mut cursor = match self.cursor.lock() {
            Ok(cursor) => cursor,
            Err(poisoned) => {
                let mut cursor = poisoned.into_inner();
                if cursor.error.is_none() {
                    cursor.error = Some(format!(
                        "lane {}: a recv of this subscription panicked",
                        self.lane
                    ));
                    if !self.ended.swap(true, Ordering::SeqCst) {
                        self.metrics.ended(self.lane, "error");
                    }
                }
                cursor
            }
        };
        if let Some(message) = &cursor.error {
            return Err(TraceError::Decode {
                offset: 0,
                reason: message.clone(),
            });
        }
        if self.ended.load(Ordering::SeqCst) {
            return Ok(SubscriptionStep::Ended);
        }
        let step = self.advance(&mut cursor, deadline);
        let cause = match &step {
            Ok(SubscriptionStep::Ended) => "closed",
            Err(error) => {
                cursor.error = Some(error.to_string());
                "error"
            }
            Ok(_) => return step,
        };
        self.ended.store(true, Ordering::SeqCst);
        self.metrics.ended(self.lane, cause);
        step
    }

    /// One `recv` on a live subscription: what the pump thread used to
    /// run, on the caller's thread, from one look at the commit log per
    /// step (the view a wait returns is the next step's).
    fn advance(
        &self,
        cursor: &mut Cursor,
        deadline: Instant,
    ) -> Result<SubscriptionStep, TraceError> {
        let follow = match cursor.follow {
            Some(ref mut follow) => follow,
            None => {
                let wait = deadline.saturating_duration_since(Instant::now());
                let Some(registration) = self.hub.wait_newer(self.lane, None, wait) else {
                    return Ok(SubscriptionStep::TimedOut);
                };
                cursor.follow.insert(Follow {
                    tailer: Tailer::follow(&self.dir, registration.log.clone()),
                    registration,
                    closed_at: None,
                })
            }
        };
        let mut view = follow.registration.log.view();
        loop {
            let bound_to = Some(follow.registration.generation);
            if view.closed {
                // A successor's log covers everything this one did, so
                // move over before measuring the lag: the bound holds
                // against the lane's newest commit, not the dead writer's.
                if let Some(successor) = self.hub.wait_newer(self.lane, bound_to, Duration::ZERO) {
                    view = follow.rebind(successor)?;
                    continue;
                }
            }
            let behind =
                |tailer: &Tailer| view.watermark.windows.saturating_sub(tailer.delivered());
            let started = self.metrics.pump_ns.timed().then(Instant::now);
            // The lag bound: read and discard the oldest windows beyond it.
            for _ in self.lag_bound..behind(&follow.tailer) {
                let TailStep::Window(_) = follow.tailer.poll(&view)? else {
                    break;
                };
                self.dropped.fetch_add(1, Ordering::SeqCst);
                self.metrics.windows_dropped.inc();
            }
            let step = follow.tailer.poll(&view)?;
            self.metrics
                .watermark_lag
                .set(behind(&follow.tailer) as i64);
            match step {
                TailStep::Window(window) => {
                    self.delivered.fetch_add(1, Ordering::SeqCst);
                    self.metrics.windows_delivered.inc();
                    if let Some(started) = started {
                        self.metrics.pump_ns.record_duration(started.elapsed());
                    }
                    return Ok(SubscriptionStep::Window(window));
                }
                TailStep::TimedOut => {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        return Ok(SubscriptionStep::TimedOut);
                    };
                    view = follow.registration.log.wait_newer(view.version, remaining);
                }
                TailStep::Closed => {
                    // The writer is gone; a successor (crash/resume) has
                    // one grace period to take the lane over.
                    let closed_at = *follow.closed_at.get_or_insert_with(Instant::now);
                    let grace_end = closed_at + self.resume_grace;
                    let wait = grace_end
                        .min(deadline)
                        .saturating_duration_since(Instant::now());
                    match self.hub.wait_newer(self.lane, bound_to, wait) {
                        Some(successor) => view = follow.rebind(successor)?,
                        None if Instant::now() >= grace_end => {
                            return Ok(SubscriptionStep::Ended);
                        }
                        None => return Ok(SubscriptionStep::TimedOut),
                    }
                }
            }
        }
    }

    /// Lag and drop accounting for this subscription, at this instant:
    /// `behind` is read off the lane's commit log now, not remembered
    /// from the last `recv`. Never waits behind a blocked `recv`.
    pub fn stats(&self) -> SubscriptionStats {
        let delivered = self.delivered.load(Ordering::SeqCst);
        let dropped = self.dropped.load(Ordering::SeqCst);
        let committed = self
            .hub
            .current(self.lane)
            .map_or(0, |registration| registration.log.view().watermark.windows);
        let behind = committed.saturating_sub(delivered + dropped);
        self.metrics.watermark_lag.set(behind as i64);
        SubscriptionStats {
            delivered,
            dropped,
            buffered: behind.min(self.lag_bound),
            behind,
            ended: self.ended.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recv_that_panicked_ends_the_subscription_with_a_typed_error() {
        let registry = Registry::new();
        let subscription = Subscription::new(
            std::env::temp_dir(),
            Arc::new(Hub::default()),
            3,
            SubscribeOptions::default(),
            &registry,
        );
        std::thread::scope(|scope| {
            let recv = scope.spawn(|| {
                let _cursor = subscription.cursor.lock();
                panic!("a recv panics holding the cursor");
            });
            assert!(recv.join().is_err());
        });
        // Sticky, like any failure, and the end counted once.
        for _ in 0..2 {
            match subscription.recv(Duration::ZERO) {
                Err(TraceError::Decode { reason, .. }) => {
                    assert!(reason.contains("panicked"), "{reason}")
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(subscription.stats().ended);
        let ended = registry.counter_with(
            "serve_subscription_ended_total",
            &[("lane", "3"), ("cause", "error")],
        );
        assert_eq!(ended.get(), 1);
    }
}
