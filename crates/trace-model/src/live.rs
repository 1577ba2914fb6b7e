//! Shared types for the live serving layer.
//!
//! A lane writer that wants to be *followed while it appends* publishes a
//! [`CommitWatermark`] after every durable append: the byte length of the
//! committed (CRC-complete) prefix of its current segment, plus enough
//! context for a follower to read exactly that prefix and nothing past
//! it. The channel the watermarks travel over (`CommitLog`) and the
//! follower that consumes them (`Tailer`) live in `endurance-store`; the
//! serving facade (`ServeHandle`, subscriptions) lives in
//! `endurance-serve`. This module holds only the vocabulary both sides
//! share, so the storage layer and the serving layer agree on what a
//! watermark promises without depending on each other.

/// A lane writer's published commit point: everything up to (and nothing
/// past) this watermark is durable, CRC-complete and safe to read while
/// the writer keeps appending.
///
/// Watermarks are monotonic within one writer session: `segment` never
/// decreases, `committed_bytes` never decreases for a given `segment`,
/// `windows` never decreases, and every boundary lands exactly between
/// two frames. A follower that only ever reads bytes covered by a
/// watermark (or by a sealed-segment length) can never observe a torn
/// frame — see the "Committed prefix & live readers" section of
/// `docs/FORMAT.md` for the normative contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitWatermark {
    /// The lane this watermark describes.
    pub lane: u32,
    /// Sequence number of the segment the writer is currently appending
    /// to (or, right after a resume, the next segment it will open).
    pub segment: u32,
    /// Byte length of the committed prefix of that segment — segment
    /// header plus every fully written frame. Zero when the segment file
    /// has not been created yet.
    pub committed_bytes: u64,
    /// Windows committed across the whole lane, including any recovered
    /// on resume.
    pub windows: u64,
}

impl CommitWatermark {
    /// An empty watermark for `lane`: nothing committed yet.
    pub fn empty(lane: u32) -> Self {
        CommitWatermark {
            lane,
            segment: 0,
            committed_bytes: 0,
            windows: 0,
        }
    }
}

/// Lag and drop accounting of one live tail subscription.
///
/// A subscription is a cursor over the lane's committed prefix that the
/// consumer advances; nothing is held in memory for it, so the writer is
/// never stalled and "buffered" windows are simply committed windows the
/// consumer has not asked for yet. Its `buffer` option bounds that lag:
/// a consumer further behind skips the oldest windows (counted here), so
/// the subscription degrades to sampling the tail instead of falling
/// ever further behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Windows handed to the consumer.
    pub delivered: u64,
    /// Windows skipped because the consumer was more than `buffer`
    /// windows behind when it asked — a nonzero value means the consumer
    /// is slower than the writer and saw a sampled tail, not the full
    /// stream.
    pub dropped: u64,
    /// Committed windows waiting for the consumer that it will still be
    /// handed: `min(behind, buffer)`.
    pub buffered: u64,
    /// Committed windows the consumer has neither been handed nor
    /// skipped — how far the follower is behind the writer's watermark,
    /// read off the commit log at the moment of the call.
    pub behind: u64,
    /// Whether the subscription is over: the followed writer closed (or
    /// crashed), every committed window was consumed and no resumed
    /// writer re-registered the lane within the grace — or the follower
    /// failed (an I/O or decode error, a lane rewritten between two
    /// writers among them).
    pub ended: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_watermark_is_all_zero() {
        let wm = CommitWatermark::empty(7);
        assert_eq!(wm.lane, 7);
        assert_eq!(wm.segment, 0);
        assert_eq!(wm.committed_bytes, 0);
        assert_eq!(wm.windows, 0);
    }

    #[test]
    fn stats_default_is_quiescent() {
        let stats = SubscriptionStats::default();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 0);
        assert!(!stats.ended);
    }
}
