//! Segment row templates: the `templated` block (codec id 4) and the
//! coder that builds a segment's template table.
//!
//! A periodic pipeline records the same window shape over and over: the
//! same event types, in the same order, mostly with the same payloads. A
//! format-v4 segment stores each shape its windows repeat once, in a
//! [`TemplateTable`] ahead of its frames, and a window of that shape as a
//! [`CodecId::Templated`] block: the template's id, the rows whose payload
//! differs from the template's, and the time column of the packed rows
//! (`docs/FORMAT.md` §3.4). [`SegmentCoder`] is where a rewrite decides
//! which shapes earn a template and which block each frame gets.
//!
//! A table holds each template row once, as the event it decodes to
//! stamped [`Timestamp::ZERO`], so that a templated block decodes as a
//! copy of its template: the template's events are copied into the
//! output, one pass over the time column writes their timestamps, and
//! the exceptions are patched in. The block's raw length is checked once,
//! from the template's `ETRC` size, the time column's and the exceptions'.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use super::binary::header_len;
use super::frame::{put_rows, tag_of, tag_severity};
use super::varint::unzigzag;
use super::{encode_u64, take_minimal_u64, varint_len, BlockChooser, CodecId, FrameContext};
use crate::{EventTypeId, Timestamp, TraceError, TraceEvent};

/// The template table of a format-v4 segment: the rows of every window
/// shape its templated frames refer to, by id.
///
/// A row is held as the event it decodes to, stamped [`Timestamp::ZERO`]:
/// its type, severity and payload. A templated block then decodes as a
/// copy of its template's events, one pass over its time column writing
/// their timestamps, and its exceptions patched in. On disk a row is a
/// tag, `(event type << 2) | severity` as in packed rows, and a payload.
/// The table of a v1–v3 segment, and of a frame outside any segment, is
/// empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TemplateTable {
    /// Every template's rows, back to back.
    rows: Vec<TraceEvent>,
    /// Where each template's rows end in `rows`.
    ends: Vec<usize>,
    /// Per template, the `ETRC` bytes its rows' types, payloads and
    /// severities take — what a decode adds to the time column's to check
    /// a block's raw length.
    etrc: Vec<usize>,
}

impl TemplateTable {
    /// The table of a segment without templates.
    pub const EMPTY: TemplateTable = TemplateTable {
        rows: Vec::new(),
        ends: Vec::new(),
        etrc: Vec::new(),
    };

    /// Templates in the table.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no template.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The rows of template `id`, as events stamped
    /// [`Timestamp::ZERO`]; `None` past the end of the table.
    pub fn rows(&self, id: usize) -> Option<&[TraceEvent]> {
        let end = *self.ends.get(id)?;
        let start = id.checked_sub(1).map_or(0, |before| self.ends[before]);
        Some(&self.rows[start..end])
    }

    /// Appends the template of the window shape of `events`: their types,
    /// severities and payloads, in order. Timestamps are no part of a
    /// shape.
    pub fn push(&mut self, events: &[TraceEvent]) {
        self.rows.extend(events.iter().map(|event| TraceEvent {
            timestamp: Timestamp::ZERO,
            ..*event
        }));
        self.end_template();
    }

    /// Removes every template, keeping the buffers.
    fn clear(&mut self) {
        self.rows.clear();
        self.ends.clear();
        self.etrc.clear();
    }

    /// Closes the template whose rows were pushed last.
    fn end_template(&mut self) {
        let start = self.ends.last().copied().unwrap_or(0);
        let etrc = self.rows[start..]
            .iter()
            .map(|row| {
                varint_len(u64::from(row.event_type.as_u16()))
                    + varint_len(u64::from(row.payload))
                    + 1
            })
            .sum();
        self.ends.push(self.rows.len());
        self.etrc.push(etrc);
    }

    /// Appends the table's bytes as a v4 segment stores them behind their
    /// length and CRC: `varint T`, then per template `varint R` and `R ×
    /// (varint tag, varint payload)`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        encode_u64(self.len() as u64, out);
        let mut start = 0;
        for &end in &self.ends {
            encode_u64((end - start) as u64, out);
            for row in &self.rows[start..end] {
                encode_u64(u64::from(tag_of(row)), out);
                encode_u64(u64::from(row.payload), out);
            }
            start = end;
        }
    }

    /// Parses the bytes [`TemplateTable::encode`] writes.
    ///
    /// A template takes at least one byte and a row at least two, so
    /// nothing is reserved for more templates or rows than `bytes` can
    /// hold.
    ///
    /// # Errors
    ///
    /// [`TraceError::Decode`] for a count the bytes cannot hold, a varint
    /// that is truncated or not minimal, a tag whose type is wider than 16
    /// bits, a payload wider than 32, or bytes after the last template.
    pub fn parse(bytes: &[u8]) -> Result<TemplateTable, TraceError> {
        let mut at = 0;
        let count = take(bytes, &mut at, "template count")?;
        if count > (bytes.len() - at) as u64 {
            return Err(table_error(
                at,
                format!("{count} templates in {} bytes", bytes.len() - at),
            ));
        }
        let mut table = TemplateTable {
            rows: Vec::new(),
            ends: Vec::with_capacity(count as usize),
            etrc: Vec::with_capacity(count as usize),
        };
        for _ in 0..count {
            let rows = take(bytes, &mut at, "row count")?;
            if rows > ((bytes.len() - at) / 2) as u64 {
                return Err(table_error(
                    at,
                    format!("{rows} rows in {} bytes", bytes.len() - at),
                ));
            }
            table.rows.reserve_exact(rows as usize);
            for _ in 0..rows {
                let row = at;
                let tag = take(bytes, &mut at, "tag")?;
                let payload = take(bytes, &mut at, "payload")?;
                let (Ok(tag), Ok(payload)) = (u32::try_from(tag), u32::try_from(payload)) else {
                    return Err(table_error(row, "tag or payload out of range"));
                };
                let Ok(event_type) = u16::try_from(tag >> 2) else {
                    return Err(table_error(
                        row,
                        format!("tag {tag} names a type past 16 bits"),
                    ));
                };
                table.rows.push(
                    TraceEvent::new(Timestamp::ZERO, EventTypeId::new(event_type), payload)
                        .with_severity(tag_severity(u64::from(tag))),
                );
            }
            table.end_template();
        }
        if at != bytes.len() {
            return Err(table_error(
                at,
                format!("{} trailing bytes", bytes.len() - at),
            ));
        }
        Ok(table)
    }
}

fn table_error(offset: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Decode {
        offset,
        reason: format!("template table: {}", reason.into()),
    }
}

fn templated_error(offset: usize, reason: impl Into<String>) -> TraceError {
    TraceError::Decode {
        offset,
        reason: format!("templated block: {}", reason.into()),
    }
}

/// The minimal varint at `*at`, or an error naming `what`.
#[inline]
fn take(bytes: &[u8], at: &mut usize, what: &str) -> Result<u64, TraceError> {
    take_minimal_u64(bytes, at).ok_or_else(|| varint_error(*at, what))
}

#[cold]
fn varint_error(offset: usize, what: &str) -> TraceError {
    TraceError::Decode {
        offset,
        reason: format!("{what}: truncated or non-minimal varint"),
    }
}

/// Appends the exception list of `events` against `template` when they
/// carry its tags, row for row: `varint E`, then `(varint gap, varint
/// payload)` for every row whose payload differs, in ascending position,
/// the gap counted from the row after the previous exception. Returns
/// whether they do; when not, `out` is left as it was.
fn put_exceptions(template: &[TraceEvent], events: &[TraceEvent], out: &mut Vec<u8>) -> bool {
    if template.len() != events.len() {
        return false;
    }
    // One byte holds any count below 128; a longer one is moved in after.
    let count_at = out.len();
    out.push(0);
    let (mut count, mut next) = (0u64, 0);
    for (at, (row, event)) in template.iter().zip(events).enumerate() {
        if tag_of(row) != tag_of(event) {
            out.truncate(count_at);
            return false;
        }
        if row.payload != event.payload {
            encode_u64((at - next) as u64, out);
            encode_u64(u64::from(event.payload), out);
            (count, next) = (count + 1, at + 1);
        }
    }
    if count < 0x80 {
        out[count_at] = count as u8;
    } else {
        let mut varint = Vec::new();
        encode_u64(count, &mut varint);
        out.splice(count_at..=count_at, varint);
    }
    true
}

/// FNV-1a over the tag sequence of `events`: one word to look a shape up
/// by, in place of the sequence. Two shapes that collide cost a group
/// found twice, never a wrong template: a match is checked tag for tag.
fn shape_hash(events: &[TraceEvent]) -> u64 {
    events.iter().fold(0xcbf2_9ce4_8422_2325, |hash, event| {
        (hash ^ u64::from(tag_of(event))).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exception at `*at` of a block whose template has `rows` rows, the
/// row after the previous exception being `*next`: its position and
/// payload, both cursors moved past it.
fn take_exception(
    block: &[u8],
    at: &mut usize,
    next: &mut usize,
    rows: usize,
) -> Result<(usize, u32), TraceError> {
    let row = *at;
    let gap = take(block, at, "exception gap")?;
    let payload = take(block, at, "exception payload")?;
    let position = usize::try_from(gap)
        .ok()
        .and_then(|gap| next.checked_add(gap))
        .filter(|&position| position < rows);
    let (Some(position), Ok(payload)) = (position, u32::try_from(payload)) else {
        return Err(templated_error(
            row,
            "an exception past the template's rows, or a payload past 32 bits",
        ));
    };
    *next = position + 1;
    Ok((position, payload))
}

/// Appends the events of the templated `block` of the frame `context`
/// describes to `out`, and returns how many; on an error, some may have
/// been appended.
///
/// The template comes from the context's table: outside a format-v4
/// segment the table is empty and every block is an error. Like packed
/// rows, a block is held to its frame's event count — the template's row
/// count — and raw length. [`SegmentCoder`], which builds the table, is
/// what writes templated blocks.
///
/// The block decodes in three steps: the template's events are copied
/// into `out`, one pass over the time column writes their timestamps, and
/// the exceptions are patched in. The exception list is read twice —
/// checked whole to find the time column, then applied — so nothing is
/// allocated for it, and the template's rows are reserved for only once
/// the block holds a time byte for each of them.
///
/// The raw length is checked once for the block: the template's `ETRC`
/// bytes, plus the time column's — whose varints are the `ETRC` deltas,
/// but the first row's, which `ETRC` spells as the absolute timestamp —
/// plus what each exception's payload varint takes over the template's.
pub(super) fn decode_templated(
    context: FrameContext<'_>,
    block: &[u8],
    raw_len: usize,
    out: &mut Vec<TraceEvent>,
) -> Result<usize, TraceError> {
    let mut at = 0;
    let id = take(block, &mut at, "template id")?;
    let found = usize::try_from(id).ok().and_then(|id| {
        let templates = context.templates;
        Some((templates.rows(id)?, *templates.etrc.get(id)?))
    });
    let (template, etrc) = found.ok_or_else(|| {
        templated_error(
            0,
            format!(
                "template {id} is not among the segment's {}",
                context.templates.len()
            ),
        )
    })?;
    context.check_events(template.len())?;
    let listed = take(block, &mut at, "exception count")?;
    if listed > template.len() as u64 {
        return Err(templated_error(
            at,
            format!("{listed} exceptions to {} rows", template.len()),
        ));
    }
    let exceptions = at;
    // The bytes the exceptions' payloads take in `ETRC`, and the bytes
    // the template's payloads they replace take.
    let (mut next, mut patched, mut replaced) = (0usize, 0, 0);
    for _ in 0..listed {
        let (position, payload) = take_exception(block, &mut at, &mut next, template.len())?;
        patched += varint_len(u64::from(payload));
        replaced += varint_len(u64::from(template[position].payload));
    }
    let time_column = at;
    // Every row's time takes a byte at the least.
    if block.len() - time_column < template.len() {
        return Err(templated_error(
            time_column,
            format!(
                "{} time bytes for {} rows",
                block.len() - time_column,
                template.len()
            ),
        ));
    }
    // 1. The template's events.
    let first = out.len();
    out.extend_from_slice(template);
    let events = &mut out[first..];
    // 2. The time column: the first row's zigzagged difference from the
    // window start, every other row's delta from the row before. The
    // first row's varint is not an `ETRC` byte; the absolute timestamp
    // `ETRC` spells in its place is.
    let (mut first_row, mut absolute) = (0, 0);
    if let Some((head, tail)) = events.split_first_mut() {
        let Some(time) = take_minimal_u64(block, &mut at) else {
            return Err(templated_error(
                time_column,
                "time: truncated or non-minimal varint",
            ));
        };
        let ns = context.start_ns.wrapping_add(unzigzag(time) as u64);
        (first_row, absolute) = (at - time_column, varint_len(ns));
        head.timestamp = Timestamp::from_nanos(ns);
        at = stamp_deltas(block, at, ns, tail)?;
    }
    if at != block.len() {
        return Err(templated_error(
            at,
            format!("{} trailing bytes", block.len() - at),
        ));
    }
    // (`replaced` is a part of `etrc`, and `first_row` of the time
    // column's bytes, so nothing underflows.)
    let restores =
        header_len(template.len()) + etrc + (block.len() - time_column) + absolute + patched
            - first_row
            - replaced;
    if restores != raw_len {
        return Err(templated_error(
            0,
            format!("block restores {restores} bytes but the frame says {raw_len}"),
        ));
    }
    // 3. The exceptions, checked above.
    let (mut at, mut next) = (exceptions, 0usize);
    for _ in 0..listed {
        let (position, payload) = take_exception(block, &mut at, &mut next, template.len())?;
        events[position].payload = payload;
    }
    Ok(template.len())
}

/// Stamps `events` with the time column of `block` from `at`: each the
/// timestamp before, `ns` for the first, plus its delta. Returns where
/// the column's last varint ends.
///
/// A function of its own, so that the row loop keeps its few values in
/// registers across the varint reader's fallback call.
#[inline(never)]
fn stamp_deltas(
    block: &[u8],
    mut at: usize,
    mut ns: u64,
    events: &mut [TraceEvent],
) -> Result<usize, TraceError> {
    for event in events {
        let row = at;
        let Some(delta) = take_minimal_u64(block, &mut at) else {
            return Err(templated_error(
                row,
                "time: truncated or non-minimal varint",
            ));
        };
        let Some(later) = ns.checked_add(delta) else {
            return Err(templated_error(row, "timestamp overflow"));
        };
        ns = later;
        event.timestamp = Timestamp::from_nanos(ns);
    }
    Ok(at)
}

/// Chooses the stored block of every frame a rewrite codes anew, and the
/// template table of the segment they land in.
///
/// Two passes. [`SegmentCoder::push`] decodes each payload once, and that
/// one pass sizes every block the frame may be stored as: `EDV`, packed
/// rows and the payload, as [`BlockChooser`] weighs them, and — grouping
/// the window with every other of its exact tag sequence — its templated
/// block against the first window of that group, whose time column the
/// pass has written. Only what may be kept is written: the `EDV` block
/// where it wins, the templated block where it is the smaller, and the
/// packed rows where no templated block stands for them. A group's
/// template is worth its bytes in the table only when its windows save
/// more than that: [`SegmentCoder::finish`] admits exactly those.
/// [`SegmentCoder::block`] then hands out each frame's block: templated
/// wherever that is the smaller, for a segment that keeps the table, or
/// as the chooser chose it, for one that does not — packed rows that a
/// templated block stood for written from it then. The store weighs both
/// by [`SegmentCoder::block_len`] and writes whichever segment comes out
/// smaller.
///
/// ```rust
/// use trace_model::codec::{BinaryEncoder, BlockCodec, CodecId, FrameContext, SegmentCoder, TraceEncoder};
/// use trace_model::{EventTypeId, Timestamp, TraceEvent};
///
/// # fn main() -> Result<(), trace_model::TraceError> {
/// // Six 40 ms windows of one shape: 18 events of six types.
/// let mut coder = SegmentCoder::new();
/// let mut frames = Vec::new();
/// for window in 0..6u64 {
///     let start = window * 40_000_000;
///     let events: Vec<TraceEvent> = (0..18)
///         .map(|i| {
///             let ns = start + i * 2_200_000 + window * 7;
///             TraceEvent::new(Timestamp::from_nanos(ns), EventTypeId::new((i % 6) as u16), (i / 6) as u32)
///         })
///         .collect();
///     let mut payload = Vec::new();
///     BinaryEncoder::new().encode(&events, &mut payload)?;
///     let context = FrameContext::framed(start, 18);
///     frames.push((coder.push(context, &payload), context, payload, events));
/// }
/// coder.finish();
/// assert_eq!(coder.table().len(), 1);
/// let mut decoder = BlockCodec::default();
/// for (frame, context, payload, events) in &frames {
///     let (codec, block) = coder.block(*frame, true);
///     assert_eq!(codec, CodecId::Templated);
///     assert!(block.len() < coder.block(*frame, false).1.len());
///     let context = context.with_templates(coder.table());
///     let (mut scratch, mut replayed) = (Vec::new(), Vec::new());
///     decoder.decode_block(codec, context, block, payload.len(), &mut scratch, &mut replayed)?;
///     assert_eq!(&replayed, events);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SegmentCoder {
    chooser: BlockChooser,
    /// The group of every tag sequence seen, by [`shape_hash`].
    groups: HashMap<u64, u32>,
    /// The group of the window pushed last: the one a periodic pipeline's
    /// next window most often falls in, tried before any lookup.
    last: u32,
    /// Each group's template: the rows of its first window.
    shapes: TemplateTable,
    /// Bytes each group's templated blocks save over the chooser's.
    saved: Vec<usize>,
    /// After [`SegmentCoder::finish`]: each group's template id, or
    /// [`NO_GROUP`] for a group whose template was not admitted.
    ids: Vec<u32>,
    frames: Vec<Coded>,
    /// Per frame, the chooser's block — unless it is packed rows that a
    /// templated block stands for — and, when the templated block is the
    /// smaller, a slot for the template id and the templated body.
    bytes: Vec<u8>,
    /// What [`SegmentCoder::finish`] admitted.
    table: TemplateTable,
}

/// The group of a frame that has no templated block.
const NO_GROUP: u32 = u32::MAX;

/// One frame of a [`SegmentCoder`]: the chooser's block, under `codec`,
/// `plain_len` bytes at `plain` of the coder's bytes, and the templated
/// block of a frame of `group` at `templated` — the id slot,
/// `varint_len(group)` bytes, and the body. `templated` is empty where no
/// body is written: a frame without a templated block, and a group's
/// first window stored as packed rows until [`SegmentCoder::finish`]
/// admits its template and copies the body out of its rows. `plain` is
/// `None` where the block is packed rows and the body is written: the
/// rows are written from the body, into `rows`, when they are asked for.
#[derive(Debug)]
struct Coded {
    codec: CodecId,
    group: u32,
    plain: Option<Range<usize>>,
    plain_len: usize,
    templated: Range<usize>,
    rows: OnceLock<Vec<u8>>,
}

impl SegmentCoder {
    /// Creates a coder for one segment (buffers grow on use).
    pub fn new() -> Self {
        SegmentCoder::default()
    }

    /// Forgets every frame and template, keeping the buffers: the coder
    /// of the next segment.
    pub fn clear(&mut self) {
        self.groups.clear();
        self.last = 0;
        self.shapes.clear();
        self.saved.clear();
        self.ids.clear();
        self.frames.clear();
        self.bytes.clear();
        self.table.clear();
    }

    /// Pass 1: codes `payload`, the payload of the frame `context`
    /// describes, and returns the frame's number for
    /// [`SegmentCoder::block`]. The context's own table is not read: the
    /// frame is coded for the segment this coder builds.
    pub fn push(&mut self, context: FrameContext<'_>, payload: &[u8]) -> usize {
        let start = self.bytes.len();
        let (codec, plain_len) = self.chooser.size_blocks(context, payload, &mut self.bytes);
        if codec == CodecId::Identity {
            // Not canonical `ETRC`, or not the frame's count: no shape.
            self.bytes.extend_from_slice(payload);
        }
        let written = self.bytes.len();
        let group = if codec == CodecId::Identity {
            NO_GROUP
        } else {
            self.shape(codec, plain_len)
        };
        let templated = written..self.bytes.len();
        // Packed rows are written where no templated body stands for them.
        let plain = if codec != CodecId::Packed {
            Some(start..written)
        } else if templated.is_empty() {
            let from = self.bytes.len();
            self.chooser.put_rows(&mut self.bytes);
            Some(from..self.bytes.len())
        } else {
            None
        };
        self.frames.push(Coded {
            codec,
            group,
            plain,
            plain_len,
            templated,
            rows: OnceLock::new(),
        });
        self.frames.len() - 1
    }

    /// Groups the window the chooser just decoded, whose block is `plain`
    /// bytes, stored under `codec`, by its tags, and appends
    /// the id slot and body of its templated block. Returns the group, or
    /// [`NO_GROUP`] — and appends nothing — unless that block is the
    /// smaller.
    ///
    /// The window is matched against a group's template and its
    /// exceptions written in one loop, first against the group of the
    /// window pushed last; its time column is the chooser's. A window that
    /// opens a group is sized, not written, when it is stored as packed
    /// rows: it is its own template, so it has no exception, and
    /// [`SegmentCoder::finish`] copies its time column out of its rows if
    /// the template is admitted. That is every window of a shape seen
    /// once, whose template never pays for itself.
    fn shape(&mut self, codec: CodecId, plain: usize) -> u32 {
        let start = self.bytes.len();
        let (group, opens) = if self.put_slot_and_exceptions(self.last) {
            (self.last, false)
        } else {
            let hash = shape_hash(self.chooser.events());
            match self.groups.get(&hash).copied() {
                Some(group) if self.put_slot_and_exceptions(group) => (group, false),
                found => {
                    // (A colliding shape gets a group of its own, unindexed.)
                    let group = self.shapes.len() as u32;
                    if found.is_none() {
                        self.groups.insert(hash, group);
                    }
                    self.shapes.push(self.chooser.events());
                    self.saved.push(0);
                    (group, true)
                }
            }
        };
        self.last = group;
        // A group's number bounds the id it gets — ids count the admitted
        // groups only — so its varint is room enough for the id.
        let slot = varint_len(u64::from(group));
        let times = self.chooser.times();
        let templated = if opens && codec == CodecId::Packed {
            // The slot, `E = 0` and the time column.
            slot + 1 + times.len()
        } else {
            if opens {
                self.bytes.resize(start + slot + 1, 0);
            }
            self.bytes.extend_from_slice(times);
            self.bytes.len() - start
        };
        if templated >= plain {
            self.bytes.truncate(start);
            return NO_GROUP;
        }
        self.saved[group as usize] += plain - templated;
        group
    }

    /// Appends the id slot of `group` and the exception list of the window
    /// the chooser just decoded against the group's template, when the
    /// window has the template's tags. Returns whether it does; when not,
    /// nothing is appended.
    fn put_slot_and_exceptions(&mut self, group: u32) -> bool {
        let Some(template) = self.shapes.rows(group as usize) else {
            return false;
        };
        let start = self.bytes.len();
        self.bytes.resize(start + varint_len(u64::from(group)), 0);
        if put_exceptions(template, self.chooser.events(), &mut self.bytes) {
            return true;
        }
        self.bytes.truncate(start);
        false
    }

    /// Pass 2: admits the template of every group whose windows save more
    /// bytes than it costs in the table, numbered in the order the groups
    /// were first seen, and writes each templated block's id — and the
    /// body of each that pass 1 only sized.
    pub fn finish(&mut self) {
        self.table.clear();
        self.ids.clear();
        for (group, &saved) in self.saved.iter().enumerate() {
            let rows = self.shapes.rows(group).unwrap_or_default();
            let cost = varint_len(rows.len() as u64)
                + rows
                    .iter()
                    .map(|row| {
                        varint_len(u64::from(tag_of(row))) + varint_len(u64::from(row.payload))
                    })
                    .sum::<usize>();
            if saved > cost {
                self.ids.push(self.table.len() as u32);
                self.table.push(rows);
            } else {
                self.ids.push(NO_GROUP);
            }
        }
        let mut id_bytes = Vec::with_capacity(5);
        for frame in &mut self.frames {
            let Some(&id) = self.ids.get(frame.group as usize) else {
                continue;
            };
            if id == NO_GROUP {
                continue;
            }
            let slot = varint_len(u64::from(frame.group));
            if let (true, Some(plain)) = (frame.templated.is_empty(), &frame.plain) {
                // The slot, `E = 0`, and the time varint of every row.
                let from = self.bytes.len();
                self.bytes.resize(from + slot + 1, 0);
                let rows = self.shapes.rows(frame.group as usize).map_or(0, <[_]>::len);
                let mut at = plain.start;
                for _ in 0..rows {
                    let time = at;
                    take_minimal_u64(&self.bytes[..plain.end], &mut at);
                    self.bytes.extend_from_within(time..at);
                    // The tag and the payload.
                    take_minimal_u64(&self.bytes[..plain.end], &mut at);
                    take_minimal_u64(&self.bytes[..plain.end], &mut at);
                }
                frame.templated = from..self.bytes.len();
            }
            id_bytes.clear();
            encode_u64(u64::from(id), &mut id_bytes);
            let from = frame.templated.start + slot - id_bytes.len();
            self.bytes[from..from + id_bytes.len()].copy_from_slice(&id_bytes);
        }
    }

    /// Where the templated block of `frame` starts — its id written into
    /// the end of the slot — when its group's template was admitted.
    fn templated_start(&self, frame: &Coded) -> Option<usize> {
        let id = *self.ids.get(frame.group as usize)?;
        (id != NO_GROUP && !frame.templated.is_empty()).then(|| {
            let slot = varint_len(u64::from(frame.group));
            frame.templated.start + slot - varint_len(u64::from(id))
        })
    }

    /// The template table [`SegmentCoder::finish`] admitted: empty before
    /// it runs, and when no shape pays for itself.
    pub fn table(&self) -> &TemplateTable {
        &self.table
    }

    /// The block frame `frame` is stored as, and its codec: the templated
    /// block when `templated` — the segment keeps the table — and the
    /// frame has one, which is then the smaller; otherwise the smallest
    /// of `EDV`, packed rows and the payload. Identity's block is the
    /// payload. Packed rows that a templated block stands for are written
    /// from it the first time they are asked for.
    ///
    /// # Panics
    ///
    /// When `frame` is not a number [`SegmentCoder::push`] returned.
    pub fn block(&self, frame: usize, templated: bool) -> (CodecId, &[u8]) {
        let coded = &self.frames[frame];
        match (self.templated_start(coded), &coded.plain) {
            (Some(from), _) if templated => {
                (CodecId::Templated, &self.bytes[from..coded.templated.end])
            }
            (_, Some(plain)) => (coded.codec, &self.bytes[plain.clone()]),
            (_, None) => (coded.codec, coded.rows.get_or_init(|| self.rows_of(coded))),
        }
    }

    /// The length of [`SegmentCoder::block`]`(frame, templated)`, without
    /// writing a block that is not written yet.
    ///
    /// # Panics
    ///
    /// When `frame` is not a number [`SegmentCoder::push`] returned.
    pub fn block_len(&self, frame: usize, templated: bool) -> usize {
        let coded = &self.frames[frame];
        match self.templated_start(coded) {
            Some(from) if templated => coded.templated.end - from,
            _ => coded.plain_len,
        }
    }

    /// The packed rows of `frame`, whose templated body is written and
    /// whose rows are not: its template's rows, the body's exceptions in
    /// place of their payloads, behind the body's time column.
    fn rows_of(&self, frame: &Coded) -> Vec<u8> {
        let template = self.shapes.rows(frame.group as usize).unwrap_or_default();
        let slot = varint_len(u64::from(frame.group));
        let body = &self.bytes[frame.templated.start + slot..frame.templated.end];
        let (mut at, mut next) = (0, 0);
        let listed = take_minimal_u64(body, &mut at).unwrap_or(0);
        let exceptions: Vec<(usize, u32)> = (0..listed)
            .map_while(|_| take_exception(body, &mut at, &mut next, template.len()).ok())
            .collect();
        let mut exceptions = exceptions.into_iter().peekable();
        let rows = template.iter().enumerate().map(|(position, row)| {
            let exception = exceptions.next_if(|&(listed, _)| listed == position);
            (
                tag_of(row),
                exception.map_or(row.payload, |(_, payload)| payload),
            )
        });
        let mut out = Vec::with_capacity(frame.plain_len);
        put_rows(&body[at..], rows, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BinaryEncoder, BlockCodec, TraceEncoder};

    fn event(ns: u64, ty: u16, payload: u32) -> TraceEvent {
        TraceEvent::new(Timestamp::from_nanos(ns), EventTypeId::new(ty), payload)
    }

    /// `count` windows of 40 ms, each of the shape `types` with payloads
    /// `base + row`, but where `odd` says a row's payload is its own.
    fn windows(count: u64, types: &[u16], odd: impl Fn(u64, usize) -> bool) -> Vec<Vec<u8>> {
        (0..count)
            .map(|window| {
                let events: Vec<TraceEvent> = types
                    .iter()
                    .enumerate()
                    .map(|(row, &ty)| {
                        let ns = window * 40_000_000 + row as u64 * 2_000_000 + window % 7;
                        let payload = if odd(window, row) {
                            9_000 + window as u32
                        } else {
                            100 + row as u32
                        };
                        event(ns, ty, payload)
                    })
                    .collect();
                let mut payload = Vec::new();
                BinaryEncoder::new().encode(&events, &mut payload).unwrap();
                payload
            })
            .collect()
    }

    fn coded(payloads: &[Vec<u8>], rows: u32) -> (SegmentCoder, Vec<usize>) {
        let mut coder = SegmentCoder::new();
        let frames = payloads
            .iter()
            .enumerate()
            .map(|(window, payload)| {
                coder.push(
                    FrameContext::framed(window as u64 * 40_000_000, rows),
                    payload,
                )
            })
            .collect();
        coder.finish();
        (coder, frames)
    }

    #[test]
    fn a_table_reads_back_what_it_wrote() {
        let mut table = TemplateTable::default();
        table.push(&[event(0, 3, 900), event(5, u16::MAX, u32::MAX)]);
        table.push(&[]);
        table.push(&[event(0, 0, 0).with_severity(crate::Severity::Error)]);
        let mut bytes = Vec::new();
        table.encode(&mut bytes);
        assert_eq!(TemplateTable::parse(&bytes).unwrap(), table);
        assert_eq!(table.rows(1), Some(&[][..]));
        assert_eq!(table.rows(3), None);
        // `T = 0` is the empty table.
        assert_eq!(TemplateTable::parse(&[0]).unwrap(), TemplateTable::EMPTY);
        for bad in [
            &[][..],                                  // no count
            &[1][..],                                 // a template without its row count
            &[1, 1, 3][..],                           // a row without its payload
            &[1, 0, 0][..],                           // a trailing byte
            &[1, 1, 0x80, 0x00, 0],                   // a non-minimal tag
            &[1, 1, 0xFC, 0xFF, 0x3F, 0],             // a type past 16 bits: tag 2^20 - 4
            &[1, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x10], // a payload past 32 bits
        ] {
            assert!(TemplateTable::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parsing_a_table_reserves_no_more_than_its_bytes_hold() {
        // Counts of 2^32 templates, and of a template of 2^32 rows, over a
        // handful of bytes: refused before anything is reserved for them.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let mut many_templates = huge.to_vec();
        many_templates.extend([0; 8]);
        let mut many_rows = vec![1];
        many_rows.extend(huge);
        many_rows.extend([0; 8]);
        for bytes in [many_templates, many_rows] {
            let error = TemplateTable::parse(&bytes).unwrap_err();
            assert!(error.to_string().contains("in 8 bytes"), "{error}");
        }
        // A table that parses holds at most a row per two of its bytes.
        let mut bytes = vec![2, 3, 0, 0, 1, 1, 2, 2, 1, 4, 4];
        let table = TemplateTable::parse(&bytes).unwrap();
        assert!(table.rows.capacity() <= bytes.len() / 2);
        assert!(table.ends.capacity() <= bytes.len());
        bytes.push(0);
        assert!(TemplateTable::parse(&bytes).is_err());
    }

    #[test]
    fn segment_coder_stores_repeated_shapes_as_templates_with_exceptions() {
        // Twelve windows of one six-event shape; every third window has a
        // payload of its own in its fifth row.
        let payloads = windows(12, &[1, 2, 3, 1, 2, 3], |window, row| {
            window % 3 == 0 && row == 4
        });
        let (coder, frames) = coded(&payloads, 6);
        assert_eq!(coder.table().len(), 1);
        // The template is the first window's: its fifth row is the odd one.
        let template = coder.table().rows(0).unwrap();
        assert_eq!(template[4], event(0, 2, 9_000));
        assert_eq!(template[3], event(0, 1, 103));
        let mut decoder = BlockCodec::default();
        for (window, (&frame, payload)) in frames.iter().zip(&payloads).enumerate() {
            let (codec, block) = coder.block(frame, true);
            assert_eq!(codec, CodecId::Templated);
            let (plain_codec, plain) = coder.block(frame, false);
            assert!(block.len() < plain.len() && plain_codec == CodecId::Packed);
            // Template 0; one exception at row 4 — the template's own odd
            // row — in every window but the first, whose rows it is.
            let exceptions = if window == 0 { 0 } else { 1 };
            assert_eq!(&block[..2], &[0, exceptions]);
            if window != 0 {
                let payload = if window % 3 == 0 { 9_000 + window } else { 104 };
                let mut expected = vec![4];
                encode_u64(payload as u64, &mut expected);
                assert_eq!(&block[2..2 + expected.len()], &expected[..]);
            }
            let context =
                FrameContext::framed(window as u64 * 40_000_000, 6).with_templates(coder.table());
            let mut restored = Vec::new();
            decoder
                .restore_block(
                    CodecId::Templated,
                    context,
                    block,
                    payload.len(),
                    &mut restored,
                )
                .unwrap();
            assert_eq!(&restored, payload);
            // Held to the frame's count and raw length, like packed rows.
            let other =
                FrameContext::framed(window as u64 * 40_000_000, 5).with_templates(coder.table());
            assert!(decoder
                .restore_block(
                    CodecId::Templated,
                    other,
                    block,
                    payload.len(),
                    &mut restored
                )
                .is_err());
            assert!(decoder
                .restore_block(
                    CodecId::Templated,
                    context,
                    block,
                    payload.len() + 1,
                    &mut restored
                )
                .is_err());
        }
    }

    #[test]
    fn a_window_stored_as_edv_gets_its_templated_body_from_its_events() {
        // Forty rows of one type whose payloads climb by one, at irregular
        // times: `EDV` codes the payload column as deltas and beats the
        // packed rows, and the templated block keeps only the times: ten
        // bytes or so a window, which twenty windows make worth the
        // template's 161.
        let payloads: Vec<Vec<u8>> = (0..20u64)
            .map(|window| {
                let events: Vec<TraceEvent> = (0..40u64)
                    .map(|row| {
                        let jitter = (window * 40 + row).wrapping_mul(0x9E37_79B9) % 5_000;
                        let ns = window * 40_000_000 + row * 900_000 + jitter;
                        event(
                            ns,
                            7,
                            1_000_000 + row as u32 + u32::from(window == 3 && row == 9),
                        )
                    })
                    .collect();
                let mut payload = Vec::new();
                BinaryEncoder::new().encode(&events, &mut payload).unwrap();
                payload
            })
            .collect();
        let (coder, frames) = coded(&payloads, 40);
        assert_eq!(coder.table().len(), 1);
        for (window, (&frame, payload)) in frames.iter().zip(&payloads).enumerate() {
            let (plain_codec, plain) = coder.block(frame, false);
            assert_eq!(plain_codec, CodecId::DeltaVarint);
            let (codec, block) = coder.block(frame, true);
            assert_eq!(codec, CodecId::Templated);
            assert!(block.len() < plain.len());
            // Template 0; window 3's own payload in row 9 is its exception.
            let exceptions = u8::from(window == 3);
            assert_eq!(&block[..2], &[0, exceptions]);
            let context =
                FrameContext::framed(window as u64 * 40_000_000, 40).with_templates(coder.table());
            let mut restored = Vec::new();
            BlockCodec::default()
                .restore_block(
                    CodecId::Templated,
                    context,
                    block,
                    payload.len(),
                    &mut restored,
                )
                .unwrap();
            assert_eq!(&restored, payload);
        }
    }

    #[test]
    fn segment_coder_admits_only_templates_that_pay() {
        // Shapes seen once each: no template saves its own cost.
        let mut payloads = windows(1, &[1, 2, 3, 4, 5, 6], |_, _| false);
        payloads.extend(windows(1, &[6, 5, 4, 3, 2, 1], |_, _| false));
        let (coder, frames) = coded(&payloads, 6);
        assert!(coder.table().is_empty());
        for frame in frames {
            assert_eq!(coder.block(frame, true), coder.block(frame, false));
        }
        // Not canonical `ETRC`: stored as it came, and no shape.
        let mut coder = SegmentCoder::new();
        let frame = coder.push(FrameContext::framed(0, 1), b"not a payload");
        coder.finish();
        assert_eq!(
            coder.block(frame, true),
            (CodecId::Identity, &b"not a payload"[..])
        );
    }

    #[test]
    fn a_templated_block_outside_its_table_is_a_decode_error() {
        let payloads = windows(4, &[1, 2, 3], |_, _| false);
        let (coder, frames) = coded(&payloads, 3);
        let (codec, block) = coder.block(frames[1], true);
        assert_eq!(codec, CodecId::Templated);
        let mut out = Vec::new();
        let error = BlockCodec::default()
            .restore_block(
                CodecId::Templated,
                FrameContext::framed(40_000_000, 3),
                block,
                payloads[1].len(),
                &mut out,
            )
            .unwrap_err();
        assert!(
            error.to_string().contains("not among the segment's 0"),
            "{error}"
        );
        // A detached compress refuses: templated blocks are the coder's.
        assert!(!CodecId::Templated
            .new_codec()
            .compress(&payloads[0], &mut out)
            .unwrap());
    }
}
