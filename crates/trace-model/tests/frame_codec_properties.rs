//! Property tests for the frame codec layer: every codec must round-trip
//! any canonical `ETRC` payload byte for byte (encode → stored block →
//! decompress), decode the same events straight from the stored block
//! (`decode_events`), and refuse — rather than corrupt — payloads it
//! cannot represent. And every decoder takes any block with any claimed
//! raw length to a value or an error: never a panic, never an allocation
//! sized by the claim alone. Templated blocks, coded against a segment's
//! template table, replay exactly what packed rows and the payload do.

use proptest::prelude::*;

use trace_model::codec::{
    BinaryDecoder, BinaryEncoder, BlockChooser, BlockCodec, CodecId, FrameContext, SegmentCoder,
    TemplateTable, TraceDecoder, TraceEncoder,
};
use trace_model::{EventTypeId, Severity, Timestamp, TraceEvent};

/// Strategy producing a timestamp-ordered vector of arbitrary events.
fn ordered_events(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        (0u64..5_000_000, 0u16..600, any::<u32>(), 0u8..4),
        0..max_len,
    )
    .prop_map(|raw| {
        let mut ts = 0u64;
        raw.into_iter()
            .map(|(delta, ty, payload, sev)| {
                ts += delta;
                TraceEvent::new(Timestamp::from_nanos(ts), EventTypeId::new(ty), payload)
                    .with_severity(Severity::from_u8(sev).expect("severity in range"))
            })
            .collect()
    })
}

/// Strategy producing *structured* event streams: a few periodic types
/// with near-linear payloads, the shape real traces have (these must
/// actually compress, not just round-trip).
fn periodic_events(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    (1usize..6, 64usize..max_len.max(65), any::<u64>()).prop_map(|(types, len, seed)| {
        (0..len as u64)
            .map(|i| {
                let ty = (i % types as u64) as u16;
                let jitter = (seed.wrapping_mul(i + 1).wrapping_mul(0x9E37_79B9)) % 977;
                TraceEvent::new(
                    Timestamp::from_nanos(i * 12_345 + jitter),
                    EventTypeId::new(ty),
                    (i / types as u64) as u32,
                )
            })
            .collect()
    })
}

/// Batches at the edges of what an `ETRC` payload holds, each with the
/// start of the window it was recorded in: types 0, 37 or `u16::MAX`,
/// payloads 0, 300 or `u32::MAX`, every severity, timestamps equal to,
/// just past or 2^40 ns past the one before; the window opening a little
/// before the first event, a little after it, or anywhere at all.
fn edge_batches() -> impl Strategy<Value = (Vec<TraceEvent>, u64)> {
    (
        prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..4), 0..40),
        any::<u64>(),
        0u8..3,
        any::<u64>(),
    )
        .prop_map(|(raw, first_ns, base, offset)| {
            let first_ns = first_ns >> 2;
            let mut ns = first_ns;
            let events = raw
                .into_iter()
                .enumerate()
                .map(|(at, (step, ty, payload, severity))| {
                    if at > 0 {
                        ns += [0, 1 + offset % 997, 1 << 40][usize::from(step)];
                    }
                    TraceEvent::new(
                        Timestamp::from_nanos(ns),
                        EventTypeId::new([0, 37, u16::MAX][usize::from(ty)]),
                        [0, 300, u32::MAX][usize::from(payload)],
                    )
                    .with_severity(Severity::from_u8(severity).expect("severity in range"))
                })
                .collect();
            let start_ns = match base {
                0 => first_ns.wrapping_sub(offset % 10_000),
                1 => first_ns.wrapping_add(offset % 10_000),
                _ => offset,
            };
            (events, start_ns)
        })
}

/// Strategy producing a template table: up to four templates of up to
/// twelve rows, each of any type, severity and payload.
fn arbitrary_table() -> impl Strategy<Value = TemplateTable> {
    prop::collection::vec(
        prop::collection::vec((any::<u16>(), 0u8..4, any::<u32>()), 0..12),
        0..4,
    )
    .prop_map(|templates| {
        let mut table = TemplateTable::default();
        for rows in templates {
            let events: Vec<TraceEvent> = rows
                .into_iter()
                .map(|(ty, severity, payload)| {
                    TraceEvent::new(Timestamp::from_nanos(0), EventTypeId::new(ty), payload)
                        .with_severity(Severity::from_u8(severity).expect("severity in range"))
                })
                .collect();
            table.push(&events);
        }
        table
    })
}

/// Strategy producing the windows of one segment: a mix of up to four
/// window shapes — tag sequences with their payloads — each window of a
/// shape with some payloads of its own, its own timestamps and its own
/// start; and now and then a window of no shape at all.
fn shape_mixes() -> impl Strategy<Value = Vec<(Vec<TraceEvent>, u64)>> {
    let shape = prop::collection::vec((0u16..40, 0u8..4, 0u32..5_000), 1..24);
    let window = (0usize..5, any::<u64>(), 0u64..4_000_000_000, any::<u32>());
    (
        prop::collection::vec(shape, 1..5),
        prop::collection::vec(window, 1..24),
    )
        .prop_map(|(shapes, windows)| {
            windows
                .into_iter()
                .map(|(pick, seed, start_ns, exceptions)| {
                    let fallback = vec![(pick as u16, 1, seed as u32)];
                    let shape = shapes.get(pick).unwrap_or(&fallback);
                    let mut ns = start_ns + seed % 3_000;
                    let events = shape
                        .iter()
                        .enumerate()
                        .map(|(at, &(ty, severity, payload))| {
                            ns += (seed >> (at % 32)) % 2_500_000;
                            // A few rows of a window carry payloads of their own.
                            let payload = if exceptions >> (at % 32) & 7 == 0 {
                                payload ^ (seed as u32)
                            } else {
                                payload
                            };
                            TraceEvent::new(
                                Timestamp::from_nanos(ns),
                                EventTypeId::new(ty),
                                payload,
                            )
                            .with_severity(Severity::from_u8(severity).expect("severity in range"))
                        })
                        .collect();
                    (events, start_ns)
                })
                .collect()
        })
}

/// Strategy producing the long windows of one segment, where `EDV`'s
/// columns beat the packed rows: up to three shapes of 60 to 300 events
/// of one to three types on a millisecond cadence, each payload column
/// climbing by one a row; a window keeps its shape's payloads (a template
/// covers it) or shifts them all (only `EDV` codes it small).
fn long_window_mixes() -> impl Strategy<Value = Vec<(Vec<TraceEvent>, u64)>> {
    let shape = (1u16..4, 60usize..300, 0u32..1_000_000);
    let window = (0usize..3, any::<u64>(), 0u64..4_000_000_000, any::<bool>());
    (
        prop::collection::vec(shape, 1..4),
        prop::collection::vec(window, 1..24),
    )
        .prop_map(|(shapes, windows)| {
            windows
                .into_iter()
                .map(|(pick, seed, start_ns, shifted)| {
                    let (types, rows, base) = shapes[pick % shapes.len()];
                    let base = if shifted {
                        base ^ (seed as u32 >> 8)
                    } else {
                        base
                    };
                    let mut ns = start_ns + seed % 3_000;
                    let events = (0..rows)
                        .map(|row| {
                            ns += 1_000_000 + (seed >> (row % 48)) % 700;
                            let ty = row as u16 % types;
                            TraceEvent::new(
                                Timestamp::from_nanos(ns),
                                EventTypeId::new(ty * 5 + 1),
                                base + (row as u32 / u32::from(types)),
                            )
                        })
                        .collect();
                    (events, start_ns)
                })
                .collect()
        })
}

/// LEB128, written out again so that the model below shares no code with
/// the coder it checks.
fn leb(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn leb_len(value: u64) -> usize {
    let mut bytes = Vec::new();
    leb(value, &mut bytes);
    bytes.len()
}

/// `(event type << 2) | severity`, a packed row's tag.
fn tag(event: &TraceEvent) -> u32 {
    (u32::from(event.event_type.as_u16()) << 2) | u32::from(event.severity.as_u8())
}

/// The time column entry of row `at` of `events` (FORMAT.md §3.3): the
/// first row's difference from the window start `start_ns`, zigzagged, and
/// every other row's delta from the row before.
fn naive_time(events: &[TraceEvent], at: usize, start_ns: u64, out: &mut Vec<u8>) {
    let ns = events[at].timestamp.as_nanos();
    match at.checked_sub(1) {
        None => {
            let difference = ns.wrapping_sub(start_ns) as i64;
            leb(((difference << 1) ^ (difference >> 63)) as u64, out);
        }
        Some(before) => leb(ns - events[before].timestamp.as_nanos(), out),
    }
}

/// The packed rows of `events` in a window that starts at `start_ns`, as
/// FORMAT.md §3.3 words them: per event its time, its tag and its payload.
fn naive_rows(events: &[TraceEvent], start_ns: u64) -> Vec<u8> {
    let mut rows = Vec::new();
    for (at, event) in events.iter().enumerate() {
        naive_time(events, at, start_ns, &mut rows);
        leb(u64::from(tag(event)), &mut rows);
        leb(u64::from(event.payload), &mut rows);
    }
    rows
}

/// What a naive [`SegmentCoder`] stores for the windows of one segment:
/// the template table, and per window its block with the table kept and
/// without it. It decodes every payload with [`BinaryDecoder`], codes it
/// whole under every candidate, and keeps the smallest of `EDV` (whose
/// block is offered only when it is smaller than the payload, so it is
/// never cut short by the rows), packed rows and the payload, a tie going
/// to the payload, then the rows. Every window not stored as its payload
/// joins the group of its tag sequence, groups numbered in the order they
/// are first seen, and the first window of a group is its template. A
/// window's templated block is `varint id`, its exception list against the
/// template (`varint E`, then per row whose payload differs, the gap from
/// the row after the previous exception and the payload) and the packed
/// rows' time column; it is offered where, with the group's number in
/// place of the id, it is smaller than the window's block. A group's
/// template is admitted when its windows save more bytes than its rows
/// cost in the table, and ids number the admitted groups in order.
#[allow(clippy::type_complexity)]
fn naive_segment(
    windows: &[(Vec<TraceEvent>, u64)],
) -> (TemplateTable, Vec<((CodecId, Vec<u8>), (CodecId, Vec<u8>))>) {
    struct Group {
        tags: Vec<u32>,
        first: Vec<TraceEvent>,
        saved: usize,
    }
    let mut groups: Vec<Group> = Vec::new();
    // Per window: its block without the table, and its group and
    // templated body (the id left out) where that body was offered.
    let mut coded: Vec<((CodecId, Vec<u8>), Option<(usize, Vec<u8>)>)> = Vec::new();
    for (events, start_ns) in windows {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(events, &mut payload).unwrap();
        let decoded = BinaryDecoder::new().decode(&payload).unwrap();
        let mut plain = (CodecId::Identity, payload.clone());
        let packed = naive_rows(&decoded, *start_ns);
        if packed.len() < plain.1.len() {
            plain = (CodecId::Packed, packed);
        }
        let mut edv = Vec::new();
        if CodecId::DeltaVarint
            .new_codec()
            .compress(&payload, &mut edv)
            .unwrap()
            && edv.len() < plain.1.len()
        {
            plain = (CodecId::DeltaVarint, edv);
        }
        if plain.0 == CodecId::Identity {
            coded.push((plain, None));
            continue;
        }
        let tags: Vec<u32> = decoded.iter().map(tag).collect();
        let group = match groups.iter().position(|group| group.tags == tags) {
            Some(group) => group,
            None => {
                groups.push(Group {
                    tags,
                    first: decoded.clone(),
                    saved: 0,
                });
                groups.len() - 1
            }
        };
        let template = &groups[group].first;
        let mut exceptions = Vec::new();
        let mut next = 0;
        for (at, (row, event)) in template.iter().zip(&decoded).enumerate() {
            if row.payload != event.payload {
                exceptions.push((at - next, event.payload));
                next = at + 1;
            }
        }
        let mut body = Vec::new();
        leb(exceptions.len() as u64, &mut body);
        for (gap, payload) in exceptions {
            leb(gap as u64, &mut body);
            leb(u64::from(payload), &mut body);
        }
        for at in 0..decoded.len() {
            naive_time(&decoded, at, *start_ns, &mut body);
        }
        let size = leb_len(group as u64) + body.len();
        if size < plain.1.len() {
            groups[group].saved += plain.1.len() - size;
            coded.push((plain, Some((group, body))));
        } else {
            coded.push((plain, None));
        }
    }
    let mut table = TemplateTable::default();
    let mut ids = Vec::new();
    for group in &groups {
        let cost = leb_len(group.first.len() as u64)
            + group
                .first
                .iter()
                .map(|event| leb_len(u64::from(tag(event))) + leb_len(u64::from(event.payload)))
                .sum::<usize>();
        if group.saved > cost {
            ids.push(Some(table.len()));
            table.push(&group.first);
        } else {
            ids.push(None);
        }
    }
    let blocks = coded
        .into_iter()
        .map(|(plain, templated)| {
            let kept = match templated {
                Some((group, body)) if ids[group].is_some() => {
                    let mut block = Vec::new();
                    leb(ids[group].unwrap() as u64, &mut block);
                    block.extend(body);
                    (CodecId::Templated, block)
                }
                _ => plain.clone(),
            };
            (kept, plain)
        })
        .collect();
    (table, blocks)
}

/// Runs `windows` through a [`SegmentCoder`] and holds its table and every
/// block, with the table and without it, to [`naive_segment`]'s. Returns
/// how many windows' blocks without the table were `EDV`.
fn check_against_the_naive_model(windows: &[(Vec<TraceEvent>, u64)]) -> usize {
    let mut coder = SegmentCoder::new();
    let frames: Vec<usize> = windows
        .iter()
        .map(|(events, start_ns)| {
            let mut payload = Vec::new();
            BinaryEncoder::new().encode(events, &mut payload).unwrap();
            coder.push(
                FrameContext::framed(*start_ns, events.len() as u32),
                &payload,
            )
        })
        .collect();
    coder.finish();
    let (table, blocks) = naive_segment(windows);
    assert_eq!(coder.table(), &table);
    let mut edv = 0;
    for (frame, (kept, plain)) in frames.into_iter().zip(&blocks) {
        let (codec, block) = coder.block(frame, true);
        assert_eq!(
            (codec, block),
            (kept.0, &kept.1[..]),
            "frame {frame}, table kept"
        );
        let (codec, block) = coder.block(frame, false);
        assert_eq!(
            (codec, block),
            (plain.0, &plain.1[..]),
            "frame {frame}, no table"
        );
        edv += usize::from(codec == CodecId::DeltaVarint);
    }
    edv
}

/// `windows` 40 ms windows of one shape of `rows` rows, their times `gap`
/// ns apart and their payloads one byte wide or two; `odd` says which
/// windows have payloads of their own: 0 none, 1 every other one, 2 all
/// but the first, 3 every other one in its first row only.
fn edge_segment(
    rows: u64,
    wide: bool,
    windows: u64,
    odd: u64,
    gap: u64,
) -> Vec<(Vec<TraceEvent>, u64)> {
    (0..windows)
        .map(|window| {
            let start_ns = window * 40_000_000;
            let events = (0..rows)
                .map(|row| {
                    let own = match odd {
                        1 => window % 2 == 1,
                        2 => window > 0,
                        3 => window % 2 == 1 && row == 0,
                        _ => false,
                    };
                    let payload =
                        if wide { 300 } else { 5 } + row + if own { 1 + window } else { 0 };
                    TraceEvent::new(
                        Timestamp::from_nanos(start_ns + 1 + row * gap),
                        EventTypeId::new(row as u16 % 3),
                        payload as u32,
                    )
                })
                .collect();
            (events, start_ns)
        })
        .collect()
}

/// A minimal LEB128 varint read a byte at a time, as FORMAT.md §3
/// words it: `None` when it is truncated, runs past 10 bytes, overflows
/// a `u64` or ends in a zero byte after the first.
fn take_leb(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut value = 0u128;
    for index in 0..10 {
        let byte = *bytes.get(*at + index)?;
        // A byte below 0x80 is the last; above, it carries 0x80 on top.
        let low = if byte >= 0x80 { byte - 0x80 } else { byte };
        value |= u128::from(low) << (7 * index);
        if byte < 0x80 {
            if index > 0 && byte == 0 {
                return None;
            }
            *at += index + 1;
            return u64::try_from(value).ok();
        }
    }
    None
}

/// A templated block decoded from `docs/FORMAT.md` §3.4 alone, sharing no
/// code with [`BlockCodec`]: the template `varint id` names in
/// `table`, the exception list applied to a copy of its payloads, then
/// its rows turned into events one at a time from the time column (the
/// first against `start_ns`, zigzagged, the rest as deltas). `None` for
/// an id past the table, a count other than `events` claims, an exception
/// past the rows, a payload past 32 bits, a varint that is not minimal,
/// an overflowing timestamp or a byte after the time column. The raw
/// length is [`naive_templated`]'s to check.
fn naive_events(
    table: &TemplateTable,
    start_ns: u64,
    events: Option<u32>,
    block: &[u8],
) -> Option<Vec<TraceEvent>> {
    let mut at = 0;
    let template = table.rows(usize::try_from(take_leb(block, &mut at)?).ok()?)?;
    if events.is_some_and(|claimed| claimed as usize != template.len()) {
        return None;
    }
    let mut payloads: Vec<u32> = template.iter().map(|row| row.payload).collect();
    // Positions strictly ascend below the row count, so a count past it
    // fails by the row count's exception at the latest.
    let (listed, mut next) = (take_leb(block, &mut at)?, 0u64);
    for _ in 0..listed {
        let position = next.checked_add(take_leb(block, &mut at)?)?;
        let payload = u32::try_from(take_leb(block, &mut at)?).ok()?;
        *payloads.get_mut(usize::try_from(position).ok()?)? = payload;
        next = position + 1;
    }
    let mut decoded = Vec::new();
    let mut previous = 0u64;
    for (row, (template_row, &payload)) in template.iter().zip(&payloads).enumerate() {
        let time = take_leb(block, &mut at)?;
        let ns = if row == 0 {
            let difference = ((time >> 1) as i64) ^ -((time & 1) as i64);
            start_ns.wrapping_add(difference as u64)
        } else {
            previous.checked_add(time)?
        };
        decoded.push(
            TraceEvent::new(Timestamp::from_nanos(ns), template_row.event_type, payload)
                .with_severity(template_row.severity),
        );
        previous = ns;
    }
    (at == block.len()).then_some(decoded)
}

fn etrc(events: &[TraceEvent]) -> Vec<u8> {
    let mut bytes = Vec::new();
    BinaryEncoder::new().encode(events, &mut bytes).unwrap();
    bytes
}

/// [`naive_events`] held to the frame's raw length: the events' `ETRC`
/// encoding must be `raw_len` bytes.
fn naive_templated(
    context: FrameContext<'_>,
    block: &[u8],
    raw_len: usize,
) -> Option<Vec<TraceEvent>> {
    naive_events(context.templates, context.start_ns, context.events, block)
        .filter(|events| etrc(events).len() == raw_len)
}

/// The raw length under which [`naive_templated`] decodes `block`.
fn naive_raw_len(context: FrameContext<'_>, block: &[u8]) -> Option<usize> {
    naive_events(context.templates, context.start_ns, context.events, block)
        .map(|events| etrc(&events).len())
}

/// Holds [`BlockCodec`] on the templated `block` to [`naive_templated`],
/// through `decode_block` and `restore_block`, each into a buffer
/// that already holds something: both succeed exactly where the reference
/// does, append its events and their `ETRC` bytes, and on an error leave
/// the buffer as it was.
fn check_against_the_naive_decoder(context: FrameContext<'_>, block: &[u8], raw_len: usize) {
    let expected = naive_templated(context, block, raw_len);
    let mut codec = BlockCodec::default();
    let before = TraceEvent::new(Timestamp::from_nanos(7), EventTypeId::new(9), 11);
    let (mut scratch, mut events) = (Vec::new(), vec![before]);
    let templated = CodecId::Templated;
    let decoded = codec.decode_block(
        templated,
        context,
        block,
        raw_len,
        &mut scratch,
        &mut events,
    );
    let mut restored = b"held".to_vec();
    let decompressed = codec.restore_block(templated, context, block, raw_len, &mut restored);
    match &expected {
        Some(expected) => {
            assert_eq!(decoded.ok(), Some(expected.len()), "{block:02x?}");
            assert_eq!(&events[1..], &expected[..], "{block:02x?}");
            assert!(decompressed.is_ok(), "{block:02x?}");
            assert_eq!(&restored[..4], b"held");
            assert_eq!(restored[4..], etrc(expected), "{block:02x?}");
        }
        None => {
            assert!(decoded.is_err(), "{block:02x?}: {events:?}");
            assert_eq!(events, [before], "{block:02x?}");
            assert!(decompressed.is_err(), "{block:02x?}");
            assert_eq!(restored, b"held", "{block:02x?}");
        }
    }
}

/// The `LZB` block an earlier build stored for the seventh frame of the
/// store's golden v3 segment (`GOLDEN_V3_SEG` in
/// `crates/store/tests/common/mod.rs`): window 46, 14 events, a payload of
/// 106 bytes. Nothing writes `LZB` any more, so these bytes stand in for
/// a writer.
const GOLDEN_LZB_BLOCK: &str = "f10545545243010ec2dab0ed0602f82301dda54c03f907002100fa070021\
                                01fb07002102fc07002103fd07002100fe07002101ff070030028024070021\
                                038107002100820700210183070021028407004003852401";

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// One decoder, one block of each codec id for one window: each decodes
/// to the window's events and restores its payload under the frame's
/// claimed count and raw length, and under any other count or raw length
/// a decode is an error that appends nothing — every id held to both
/// inside the codec, not by its caller.
#[test]
fn one_decoder_holds_every_id_to_the_frames_count_and_raw_length() {
    // The golden `LZB` frame's window, as the store's fixture builder
    // makes it.
    let start_ns = 46 * 40_000_000;
    let events: Vec<TraceEvent> = (0..14u64)
        .map(|i| {
            TraceEvent::new(
                Timestamp::from_nanos(start_ns + i * 1_250_000 + (46 * 7 + i * 13) % 1_000),
                EventTypeId::new(((46 + i) % 4) as u16),
                (4_600 + i) as u32,
            )
        })
        .collect();
    let payload = etrc(&events);
    assert_eq!(payload.len(), 106);

    let mut edv = Vec::new();
    assert!(CodecId::DeltaVarint
        .new_codec()
        .compress(&payload, &mut edv)
        .unwrap());
    // Template 0 is the window's shape; no exception, then the time column.
    let mut table = TemplateTable::default();
    table.push(&events);
    let mut templated = vec![0, 0];
    for at in 0..events.len() {
        naive_time(&events, at, start_ns, &mut templated);
    }
    let blocks = [
        (CodecId::Identity, payload.clone()),
        (CodecId::DeltaVarint, edv),
        (CodecId::LzBlock, unhex(GOLDEN_LZB_BLOCK)),
        (CodecId::Packed, naive_rows(&events, start_ns)),
        (CodecId::Templated, templated),
    ];

    let mut decoder = BlockCodec::default();
    let before = TraceEvent::new(Timestamp::from_nanos(7), EventTypeId::new(9), 11);
    let frame = |count| FrameContext::framed(start_ns, count).with_templates(&table);
    for (codec, block) in &blocks {
        let (mut scratch, mut out) = (Vec::new(), vec![before]);
        let decoded = decoder.decode_block(*codec, frame(14), block, 106, &mut scratch, &mut out);
        assert_eq!(decoded.ok(), Some(14), "{codec}");
        assert_eq!(out[1..], events[..], "{codec}");
        let mut restored = b"held".to_vec();
        decoder
            .restore_block(*codec, frame(14), block, 106, &mut restored)
            .unwrap();
        assert_eq!(restored[4..], payload[..], "{codec}");

        for (count, raw_len) in [
            (0, 106),
            (13, 106),
            (15, 106),
            (u32::MAX, 106),
            (14, 105),
            (14, 107),
        ] {
            let mut out = vec![before];
            let decoded =
                decoder.decode_block(*codec, frame(count), block, raw_len, &mut scratch, &mut out);
            assert!(decoded.is_err(), "{codec}: {count} events, {raw_len} bytes");
            assert_eq!(out, [before], "{codec}: {count} events, {raw_len} bytes");
            // A restore holds the raw length too, and — but for the two
            // ids whose payload is restored without decoding its events —
            // the count.
            let mut restored = b"held".to_vec();
            let restore =
                decoder.restore_block(*codec, frame(count), block, raw_len, &mut restored);
            let unchecked = count != 14 && [CodecId::Identity, CodecId::LzBlock].contains(codec);
            assert_eq!(
                restore.is_ok(),
                unchecked,
                "{codec}: {count} events, {raw_len} bytes"
            );
            if !unchecked {
                assert_eq!(restored, b"held", "{codec}");
            }
        }
    }
}

#[test]
fn templated_decode_matches_a_naive_reference_on_a_zero_row_template_and_an_early_first_row() {
    let mut table = TemplateTable::default();
    table.push(&[]);
    table.push(&[
        TraceEvent::new(Timestamp::from_nanos(0), EventTypeId::new(3), 300),
        TraceEvent::new(Timestamp::from_nanos(0), EventTypeId::new(u16::MAX), 0)
            .with_severity(Severity::Error),
    ]);
    let start_ns = 1_000_000;
    // Template 0: no rows, no exception, no time column — a block of the
    // six `ETRC` header bytes of an empty batch.
    for (events, block) in [
        (0, &[0u8, 0][..]),
        (1, &[0, 0]),
        (0, &[0, 0, 0]),
        (0, &[0, 1, 0, 5]),
    ] {
        let context = FrameContext::framed(start_ns, events).with_templates(&table);
        for raw_len in [5, 6, 7] {
            check_against_the_naive_decoder(context, block, raw_len);
        }
    }
    assert_eq!(
        naive_raw_len(
            FrameContext::framed(start_ns, 0).with_templates(&table),
            &[0, 0]
        ),
        Some(6)
    );
    // Template 1: its first row 3 ns before the window start (zigzag 5),
    // the second 1 ns after it, with and without an exception on it; and
    // a first row before time's start, which wraps.
    let blocks: [&[u8]; 5] = [
        &[1, 0, 5, 4],
        &[1, 1, 1, 0x80, 0x01, 5, 4],
        &[1, 1, 2, 7, 5, 4],
        &[1, 0, 0xFF, 0xFF, 0x03, 0],
        &[1, 0, 5, 0x80, 0x00],
    ];
    for block in blocks {
        for start_ns in [start_ns, 0, u64::MAX] {
            let context = FrameContext::framed(start_ns, 2).with_templates(&table);
            let raw_len = naive_raw_len(context, block).unwrap_or(40);
            for raw_len in [raw_len - 1, raw_len, raw_len + 1] {
                check_against_the_naive_decoder(context, block, raw_len);
            }
        }
    }
    // The header's 6 bytes, then 3 + 1 + 2 + 1 and 1 + 3 + 1 + 1.
    let context = FrameContext::framed(start_ns, 2).with_templates(&table);
    assert_eq!(naive_raw_len(context, &[1, 0, 5, 4]), Some(19));
    let early = naive_templated(context, &[1, 0, 5, 4], 19).unwrap();
    assert_eq!(early[0].timestamp.as_nanos(), start_ns - 3);
}

/// Where a coder can be off by one, a proptest seldom looks: a window
/// whose templated block is exactly as long as its chooser block, a
/// template whose windows save exactly what it costs. This sweep walks
/// small segments across those edges — one to four rows, one- and
/// two-byte payloads and times, one to eight windows of a shape, with and
/// without exceptions, one of them exactly as long as the two columns it
/// spares — and holds each to the naive model.
#[test]
fn segment_coder_matches_a_naive_model_on_the_edges() {
    for rows in 1..=4 {
        for wide in [false, true] {
            for windows in 1..=8 {
                for odd in 0..4 {
                    for gap in [900, 200_000] {
                        check_against_the_naive_model(&edge_segment(rows, wide, windows, odd, gap));
                    }
                }
            }
        }
    }
}

#[test]
fn the_naive_model_sees_edv_and_templates_in_a_long_window_mix() {
    // Two shapes of 120 rows: twelve windows that keep the first shape's
    // payloads (templated), four that shift them (`EDV`), two of another
    // shape.
    let window = |types: u16, base: u32, start_ns: u64| {
        let events = (0..120u64)
            .map(|row| {
                let ns = start_ns + 1_000 + row * 1_000_000 + (row * 7_919) % 600;
                let ty = row as u16 % types;
                TraceEvent::new(
                    Timestamp::from_nanos(ns),
                    EventTypeId::new(ty * 5 + 1),
                    base + row as u32 / u32::from(types),
                )
            })
            .collect::<Vec<_>>();
        (events, start_ns)
    };
    let mut windows = Vec::new();
    for at in 0..18u64 {
        let start_ns = at * 1_000_000_000;
        windows.push(match at {
            0..=11 => window(2, 500, start_ns),
            12..=15 => window(2, 70_000 + at as u32 * 13, start_ns),
            _ => window(3, 9, start_ns),
        });
    }
    let edv = check_against_the_naive_model(&windows);
    assert!(edv >= 4, "{edv} EDV blocks");
    let (table, blocks) = naive_segment(&windows);
    assert!(!table.is_empty());
    assert!(blocks.iter().any(|(kept, _)| kept.0 == CodecId::Templated));
}

fn check_round_trip(codec: &mut BlockCodec, events: &[TraceEvent]) {
    let mut payload = Vec::new();
    BinaryEncoder::new().encode(events, &mut payload).unwrap();
    let mut block = Vec::new();
    let compressed = codec.compress(&payload, &mut block).unwrap();
    if !compressed {
        // Refusal is a valid outcome (incompressible payload); it must
        // leave the output untouched.
        assert!(block.is_empty());
        return;
    }
    if codec.id() != CodecId::Identity {
        assert!(
            block.len() < payload.len(),
            "a true return promises a smaller block ({} vs {})",
            block.len(),
            payload.len()
        );
    }
    let mut restored = Vec::new();
    codec
        .decompress(&block, payload.len(), &mut restored)
        .unwrap();
    assert_eq!(&restored, &payload, "payload bytes must round-trip exactly");
    let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
    let appended = codec
        .decode_events(&block, payload.len(), &mut scratch, &mut decoded)
        .unwrap();
    assert_eq!(appended, events.len());
    assert_eq!(decoded.as_slice(), events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_codec_round_trips_arbitrary_event_streams(events in ordered_events(300)) {
        for id in CodecId::ALL {
            let mut codec = id.new_codec();
            check_round_trip(&mut codec, &events);
        }
    }

    #[test]
    fn every_codec_round_trips_periodic_streams(events in periodic_events(400)) {
        for id in CodecId::ALL {
            let mut codec = id.new_codec();
            check_round_trip(&mut codec, &events);
        }
    }

    #[test]
    fn delta_varint_compresses_periodic_streams(events in periodic_events(400)) {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        prop_assert!(
            codec.compress(&payload, &mut block).unwrap(),
            "structured periodic streams must always be compressible"
        );
    }

    #[test]
    fn delta_varint_instances_are_reusable_across_frames(
        first in ordered_events(120),
        second in periodic_events(160),
        third in ordered_events(40),
    ) {
        // One instance, many frames: pooled scratch state must never leak
        // between windows.
        let mut codec = CodecId::DeltaVarint.new_codec();
        for events in [&first, &second, &third, &first] {
            check_round_trip(&mut codec, events);
        }
    }

    #[test]
    fn codecs_refuse_or_round_trip_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Non-ETRC payloads: DeltaVarint and Packed must refuse anything
        // that is not a canonical encoding; LzBlock refuses everything.
        for id in [CodecId::DeltaVarint, CodecId::Packed] {
            let mut codec = id.new_codec();
            let mut block = Vec::new();
            if codec.compress(&bytes, &mut block).unwrap() {
                // Only possible when `bytes` happens to be canonical ETRC.
                let decoded = BinaryDecoder::new().decode(&bytes).unwrap();
                let mut reencoded = Vec::new();
                BinaryEncoder::new().encode(&decoded, &mut reencoded).unwrap();
                prop_assert_eq!(&reencoded, &bytes);
                let mut restored = Vec::new();
                codec.decompress(&block, bytes.len(), &mut restored).unwrap();
                prop_assert_eq!(&restored, &bytes);
            } else {
                prop_assert!(block.is_empty());
            }
        }

        let mut lz = CodecId::LzBlock.new_codec();
        let mut block = Vec::new();
        prop_assert!(!lz.compress(&bytes, &mut block).unwrap());
        prop_assert!(block.is_empty());
    }

    /// Whatever a CRC-valid frame claims: arbitrary block bytes — half of
    /// them opening with the varint of `u32::MAX`, an event count no block
    /// this short holds — under an arbitrary raw length, most often 0 or
    /// `u32::MAX`, and an arbitrary frame context, most often claiming 0
    /// or `u32::MAX` events, decode to a value or a typed error under every
    /// codec, framed and detached. A decoder that reserved memory on such a
    /// claim alone aborts here; the packed one reserves for no more rows
    /// than the block holds (three bytes a row at the least).
    #[test]
    fn every_decoder_survives_any_block_and_raw_length(
        tail in prop::collection::vec(any::<u8>(), 0..64),
        huge_count in any::<bool>(),
        kind in 0u8..4,
        claimed in any::<u32>(),
        start_ns in any::<u64>(),
        events_kind in 0u8..4,
        table in arbitrary_table(),
    ) {
        let mut block = if huge_count { vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F] } else { Vec::new() };
        block.extend(tail);
        let raw_len = match kind {
            0 => 0,
            1 => u32::MAX,
            _ => claimed,
        } as usize;
        let framed = FrameContext::framed(start_ns, match events_kind {
            0 => 0,
            1 => u32::MAX,
            _ => claimed,
        });
        // A templated block names a template of the segment's table.
        let templated = framed.with_templates(&table);
        let mut codec = BlockCodec::default();
        for id in CodecId::ALL {
            for context in [FrameContext::DETACHED, framed, templated] {
                let mut restored = Vec::new();
                if codec.restore_block(id, context, &block, raw_len, &mut restored).is_ok() {
                    prop_assert_eq!(restored.len(), raw_len);
                }
                let (mut scratch, mut events) = (Vec::new(), Vec::new());
                let decoded =
                    codec.decode_block(id, context, &block, raw_len, &mut scratch, &mut events);
                if id == CodecId::Packed || id == CodecId::Templated {
                    // Three bytes a packed row at the least, and a time
                    // byte a templated one.
                    let rows = if id == CodecId::Packed { block.len() / 3 } else { block.len() };
                    prop_assert!(events.capacity() <= rows.max(4));
                }
                // Every id holds a frame to its count, and a decode that
                // fails appends nothing.
                match (decoded, context.events) {
                    (Ok(rows), Some(claimed)) => prop_assert_eq!(rows, claimed as usize),
                    (Err(_), _) => prop_assert!(events.is_empty()),
                    _ => {}
                }
            }
        }
    }

    /// Packed rows carry every batch — `u16::MAX` types, `u32::MAX`
    /// payloads, every severity, equal timestamps, a first event before,
    /// at or after the window start, the empty batch — framed and
    /// detached: the block is smaller than the payload, restores it byte
    /// for byte and decodes to the events, and a frame claiming another
    /// count or raw length is refused.
    #[test]
    fn packed_rows_round_trip_framed_and_detached(batch in edge_batches()) {
        let (events, start_ns) = batch;
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        let framed = FrameContext::framed(start_ns, events.len() as u32);
        let mut codec = CodecId::Packed.new_codec();
        // The context-free compress codes the rows against a start of 0.
        let mut detached = Vec::new();
        prop_assert!(codec.compress(&payload, &mut detached).unwrap());
        prop_assert_eq!(&detached, &naive_rows(&events, 0));
        let packed = CodecId::Packed;
        for (context, block) in [
            (FrameContext::DETACHED, detached),
            (framed, naive_rows(&events, start_ns)),
        ] {
            prop_assert!(block.len() < payload.len());
            let mut restored = Vec::new();
            codec.restore_block(packed, context, &block, payload.len(), &mut restored).unwrap();
            prop_assert_eq!(&restored, &payload);
            let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
            let rows = codec
                .decode_block(packed, context, &block, payload.len(), &mut scratch, &mut decoded)
                .unwrap();
            prop_assert_eq!(rows, events.len());
            prop_assert_eq!(&decoded, &events);
            // Rows that restore another raw length are refused, by the
            // replay fast path as by a restore.
            decoded.clear();
            prop_assert!(codec
                .decode_block(packed, context, &block, payload.len() + 1, &mut scratch, &mut decoded)
                .is_err());
            prop_assert!(decoded.is_empty());
            let other = FrameContext::framed(start_ns, events.len() as u32 ^ 1);
            prop_assert!(codec
                .decode_block(packed, other, &block, payload.len(), &mut scratch, &mut decoded)
                .is_err());
            prop_assert!(codec.restore_block(packed, other, &block, payload.len(), &mut restored).is_err());
            // The chooser stores a payload of another count as it is.
            let mut refused = Vec::new();
            prop_assert_eq!(BlockChooser::new().choose(other, &payload, &mut refused), CodecId::Identity);
            prop_assert!(refused.is_empty());
        }
    }

    /// Any mix of window shapes in one segment: each frame's templated
    /// block, under the table the coder admitted, and its packed rows
    /// restore the payload byte for byte and decode to its events, and a
    /// frame is templated only where that block is the smaller. The table
    /// reads back from its bytes, and holds only templates that pay.
    #[test]
    fn templated_rows_replay_what_packed_rows_and_the_payload_do(windows in shape_mixes()) {
        let mut coder = SegmentCoder::new();
        let mut frames = Vec::new();
        for (events, start_ns) in &windows {
            let mut payload = Vec::new();
            BinaryEncoder::new().encode(events, &mut payload).unwrap();
            let context = FrameContext::framed(*start_ns, events.len() as u32);
            frames.push((coder.push(context, &payload), context, payload, events));
        }
        coder.finish();
        let table = coder.table();
        let mut encoded = Vec::new();
        table.encode(&mut encoded);
        prop_assert_eq!(&TemplateTable::parse(&encoded).unwrap(), table);
        let mut templated_frames = 0;
        let mut decoder = BlockCodec::default();
        for (frame, context, payload, events) in &frames {
            let (plain_codec, plain) = coder.block(*frame, false);
            prop_assert_ne!(plain_codec, CodecId::Templated);
            let packed = naive_rows(events, context.start_ns);
            prop_assert!(packed.len() < payload.len());
            prop_assert!(plain.len() <= packed.len());
            let (codec, block) = coder.block(*frame, true);
            let in_segment = context.with_templates(table);
            for (codec, block) in [(codec, block), (CodecId::Packed, &packed[..])] {
                let mut restored = Vec::new();
                decoder.restore_block(codec, in_segment, block, payload.len(), &mut restored).unwrap();
                prop_assert_eq!(&restored, payload);
                let (mut scratch, mut decoded) = (Vec::new(), Vec::new());
                decoder
                    .decode_block(codec, in_segment, block, payload.len(), &mut scratch, &mut decoded)
                    .unwrap();
                prop_assert_eq!(&decoded, *events);
            }
            if codec == CodecId::Templated {
                templated_frames += 1;
                prop_assert!(block.len() < plain.len());
                // Outside the segment the block names nothing.
                let mut restored = Vec::new();
                prop_assert!(decoder
                    .restore_block(codec, *context, block, payload.len(), &mut restored)
                    .is_err());
            } else {
                prop_assert_eq!((codec, block), (plain_codec, plain));
            }
        }
        // Every admitted template is some templated frame's.
        prop_assert!(table.len() <= templated_frames);
    }

    /// Every block a [`SegmentCoder`] writes, templated or not, read as a
    /// templated block of the coder's table: the codec decodes it exactly
    /// where [`naive_templated`] does — every templated one to its
    /// window's events — under the frame's count and raw length, and
    /// under a count or raw length one off.
    #[test]
    fn templated_decode_matches_a_naive_reference_over_coded_segments(windows in shape_mixes()) {
        let mut coder = SegmentCoder::new();
        let mut frames = Vec::new();
        for (events, start_ns) in &windows {
            let payload = etrc(events);
            let context = FrameContext::framed(*start_ns, events.len() as u32);
            frames.push((coder.push(context, &payload), context, payload.len(), events));
        }
        coder.finish();
        for (frame, context, raw_len, events) in frames {
            let (codec, block) = coder.block(frame, true);
            let in_segment = context.with_templates(coder.table());
            if codec == CodecId::Templated {
                prop_assert_eq!(naive_templated(in_segment, block, raw_len).as_ref(), Some(events));
            }
            let count = events.len() as u32;
            for (count, raw_len) in [
                (count, raw_len),
                (count, raw_len + 1),
                (count, raw_len - 1),
                (count ^ 1, raw_len),
            ] {
                let context = FrameContext::framed(context.start_ns, count).with_templates(coder.table());
                check_against_the_naive_decoder(context, block, raw_len);
            }
        }
    }

    /// A [`SegmentCoder`] stores what [`naive_segment`] does: the same
    /// table, and every frame's block with the table and without it, over
    /// any mix of window shapes...
    #[test]
    fn segment_coder_matches_a_naive_model_over_shape_mixes(windows in shape_mixes()) {
        check_against_the_naive_model(&windows);
    }

    /// ...and over long windows, where `EDV` wins.
    #[test]
    fn segment_coder_matches_a_naive_model_over_long_windows(windows in long_window_mixes()) {
        check_against_the_naive_model(&windows);
    }

    #[test]
    fn corrupt_blocks_error_instead_of_mis_decoding(
        events in periodic_events(200),
        flip in any::<u32>(),
    ) {
        let mut payload = Vec::new();
        BinaryEncoder::new().encode(&events, &mut payload).unwrap();
        let mut codec = CodecId::DeltaVarint.new_codec();
        let mut block = Vec::new();
        if codec.compress(&payload, &mut block).unwrap() {
            let mut corrupt = block.clone();
            let at = flip as usize % corrupt.len();
            corrupt[at] ^= 0x55;
            let mut restored = Vec::new();
            match codec.decompress(&corrupt, payload.len(), &mut restored) {
                // Either the corruption is detected...
                Err(_) => {}
                // ...or the flipped bit survives only if the result still
                // restores to *some* byte string of the right length; it
                // must never silently claim to be the original when the
                // decode structure broke. (CRC framing above this layer
                // catches the rest.)
                Ok(()) => prop_assert_eq!(restored.len(), payload.len()),
            }
        }
    }
}

proptest! {
    // About one case in ten decodes; the rest are refused, each at its
    // own fault.
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// A templated block of any template of any table — mostly well
    /// formed, with exceptions in and past the rows, payloads past 32
    /// bits, times that overflow or are not minimal, a time column a row
    /// short or long, a byte flipped, bytes trailing, or bytes of no
    /// structure at all — under a frame claiming the template's count or
    /// another, or no frame, and the raw length the rows restore, one off
    /// it, or any: the codec decodes it exactly where [`naive_templated`]
    /// does, to its events and bytes, and otherwise leaves its output
    /// untouched.
    #[test]
    fn templated_decode_matches_a_naive_reference(
        table in arbitrary_table(),
        id in any::<u64>(),
        exceptions in prop::collection::vec((0u8..10, any::<u32>(), 0u8..10), 0..4),
        listed in 0u8..10,
        scale in 0u8..3,
        times in prop::collection::vec(any::<u64>(), 14usize),
        bad_time in (0u8..12, any::<usize>()),
        damage in 0u8..12,
        noise in prop::collection::vec(any::<u8>(), 0..32),
        start in (0u8..3, any::<u64>()),
        claim in (0u8..10, any::<u32>()),
        raw in (0u8..10, any::<u32>()),
    ) {
        // Mostly a template of the table; now and then the id past it.
        let id = id % (table.len() as u64 + 1);
        let rows = table.rows(id as usize).map_or(0, <[_]>::len);
        let mut block = Vec::new();
        leb(id, &mut block);
        leb(
            match listed {
                0 => exceptions.len() as u64 + 1,
                1 => (exceptions.len() as u64).saturating_sub(1),
                2 => 1 << 40,
                _ => exceptions.len() as u64,
            },
            &mut block,
        );
        for &(gap, payload, wide) in &exceptions {
            leb(
                match gap {
                    0..=7 => u64::from(gap % 3),
                    8 => rows as u64,
                    _ => 1 << 35,
                },
                &mut block,
            );
            leb(u64::from(payload) | if wide == 0 { 1 << 32 } else { 0 }, &mut block);
        }
        let time_count = match bad_time.0 {
            0 => rows + 1,
            1 => rows.saturating_sub(1),
            _ => rows,
        };
        for (row, &value) in times.iter().cycle().take(time_count).enumerate() {
            let value = [value % 128, value % 3_000_000, (1 << 40) + value % 1_000][usize::from(scale)];
            match bad_time.0 {
                // A delta that overflows.
                2 if row == bad_time.1 % rows.max(1) => leb(u64::MAX - value % 4, &mut block),
                // Not minimal: a zero continuation byte.
                3 if row == bad_time.1 % rows.max(1) => {
                    leb(value, &mut block);
                    *block.last_mut().unwrap() |= 0x80;
                    block.push(0);
                }
                _ => leb(value, &mut block),
            }
        }
        match damage {
            0 if !block.is_empty() => {
                let at = noise.len() % block.len();
                block[at] ^= noise.first().copied().unwrap_or(0x40) | 1;
            }
            1 => block.extend(noise.iter().take(2)),
            2 => block = noise.clone(),
            _ => {}
        }
        let start_ns = match start.0 {
            0 => start.1,
            1 => start.1 % 4_000_000_000,
            _ => u64::MAX - start.1 % 1_000_000,
        };
        let events = match claim.0 {
            0 => None,
            1 => Some(claim.1),
            2 => Some(rows as u32 ^ 1),
            _ => Some(rows as u32),
        };
        let context = FrameContext { start_ns, events, templates: &table };
        let restores = naive_raw_len(context, &block);
        let raw_len = match (raw.0, restores) {
            (0, Some(restores)) => restores + 1,
            (1, Some(restores)) => restores - 1,
            (2, _) => raw.1 as usize,
            (_, restores) => restores.unwrap_or(raw.1 as usize),
        };
        check_against_the_naive_decoder(context, &block, raw_len);
    }
}
