//! The isolation pass of the traced run.
//!
//! Some layers never show up as a span of their own: window assembly, the
//! `ETRC` encoder, the `EDV` frame codec and the CRC run deep inside a
//! session or a store call. This pass calls them directly, on the run's
//! own data — the trace the run generated and the payloads its ingest
//! recorded — so a change to one of them has a number that moves.

use std::path::Path;
use std::time::{Duration, Instant};

use endurance_core::{ReductionSession, WindowStrategy};
use endurance_store::{crc32, CodecId, StoreReader};
use trace_model::codec::{BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder};
use trace_model::{CountingSink, TraceEvent, Window, WindowAssembler, WindowId};

use crate::pipeline::{events_by_stream, strided};
use crate::spec::Input;
use crate::BenchError;

/// Events the assembler and the single-thread session are fed, at most.
const EVENT_SAMPLE: usize = 400_000;
/// Bytes the CRC is timed over, at least.
const CRC_BYTES: usize = 64 << 20;

/// What the isolation pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Isolation {
    /// `WindowAssembler::push` per event.
    pub assemble_ns_per_event: f64,
    /// `BinaryEncoder::encode` per event of the recorded windows.
    pub etrc_encode_ns_per_event: f64,
    /// `EDV` `compress` per event of the recorded windows.
    pub edv_encode_ns_per_event: f64,
    /// `ETRC` payload bytes per stored byte under `EDV` (refused frames
    /// stay at their payload size); below 1 the codec does not pay.
    pub edv_bytes_ratio: f64,
    /// `EDV` `decode_events` per event.
    pub edv_decode_ns_per_event: f64,
    /// `crc32` per payload byte.
    pub crc32_ns_per_byte: f64,
    /// One `ReductionSession` per stream on one thread, `CountingSink`.
    pub single_thread_events_per_s: f64,
    /// Highest open-window buffer any of those sessions reached.
    pub peak_buffered_events: usize,
}

/// Up to `limit` recorded payloads, evenly strided over every lane of the
/// store at `dir`. Call before maintenance, while frames are still `ETRC`.
pub fn sample_payloads(dir: &Path, limit: usize) -> Result<Vec<Vec<u8>>, BenchError> {
    let reader = StoreReader::open(dir)?;
    let mut windows = Vec::new();
    for lane in reader.lane_ids() {
        for entry in reader.lane_windows(lane)? {
            windows.push((lane, entry.window_id));
        }
    }
    let mut payloads = Vec::new();
    for at in strided(windows.len(), limit) {
        let (lane, id) = windows[at];
        if let Some(payload) = reader.window_payload(lane, WindowId::new(id))? {
            payloads.push(payload);
        }
    }
    Ok(payloads)
}

fn per(elapsed: Duration, units: usize) -> f64 {
    elapsed.as_nanos() as f64 / units.max(1) as f64
}

/// Runs the pass over `input`'s trace and the recorded `payloads`.
pub fn run(input: &Input, payloads: &[Vec<u8>]) -> Result<Isolation, BenchError> {
    if payloads.is_empty() {
        return Err(BenchError::Check(
            "the isolation pass was handed no recorded payload".into(),
        ));
    }

    // Per-stream event lists, up to the sample size.
    let mut streams: Vec<Vec<TraceEvent>> = Vec::new();
    let mut sampled = 0;
    for (_, mut events) in events_by_stream(input) {
        if sampled >= EVENT_SAMPLE {
            break;
        }
        events.truncate(EVENT_SAMPLE - sampled);
        sampled += events.len();
        streams.push(events);
    }

    // trace-model: window assembly.
    let started = Instant::now();
    let mut windows = 0u64;
    for events in &streams {
        let mut assembler = match input.monitor.window {
            WindowStrategy::Time(duration) => WindowAssembler::for_time(duration)?,
            WindowStrategy::Count(size) => WindowAssembler::for_count(size)?,
        };
        let mut emit = |window: Window| -> Result<(), BenchError> {
            windows += u64::from(!std::hint::black_box(window).is_empty());
            Ok(())
        };
        for event in events {
            assembler.push(*event, &mut emit)?;
        }
        if let Some(window) = assembler.finish() {
            emit(window)?;
        }
    }
    let assemble = started.elapsed();
    std::hint::black_box(windows);

    // trace-model: ETRC encode of the recorded windows.
    let mut decoder = BinaryDecoder::new();
    let decoded = payloads
        .iter()
        .map(|payload| decoder.decode(payload))
        .collect::<Result<Vec<_>, _>>()?;
    let recorded_events: usize = decoded.iter().map(Vec::len).sum();
    let mut encoder = BinaryEncoder::new();
    let mut out = Vec::new();
    let started = Instant::now();
    for events in &decoded {
        out.clear();
        encoder.encode(events, &mut out)?;
        std::hint::black_box(&out);
    }
    let etrc_encode = started.elapsed();

    // trace-model: EDV encode, size and decode.
    let mut codec = CodecId::DeltaVarint.new_codec();
    let mut blocks: Vec<Option<Vec<u8>>> = payloads
        .iter()
        .map(|payload| Some(Vec::with_capacity(payload.len())))
        .collect();
    let started = Instant::now();
    for (payload, slot) in payloads.iter().zip(&mut blocks) {
        let block = slot.as_mut().expect("every slot starts filled");
        if !codec.compress(payload, block)? {
            *slot = None;
        }
    }
    let edv_encode = started.elapsed();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let stored_bytes: usize = blocks
        .iter()
        .zip(payloads)
        .map(|(block, payload)| block.as_ref().map_or(payload.len(), Vec::len))
        .sum();
    let mut scratch = Vec::new();
    let mut events = Vec::new();
    let started = Instant::now();
    for (block, payload) in blocks.iter().zip(payloads) {
        events.clear();
        match block {
            Some(block) => {
                codec.decode_events(block, payload.len(), &mut scratch, &mut events)?;
            }
            // A refused frame is stored as it came and replays through
            // the plain decoder.
            None => {
                decoder.decode_into(payload, &mut events)?;
            }
        }
        std::hint::black_box(&events);
    }
    let edv_decode = started.elapsed();

    // store: CRC over the recorded payload bytes.
    let mut crc_bytes = 0;
    let started = Instant::now();
    while crc_bytes < CRC_BYTES {
        for payload in payloads {
            std::hint::black_box(crc32(std::hint::black_box(payload)));
            crc_bytes += payload.len();
        }
    }
    let crc = started.elapsed();

    // core: the reducer without threads, store or followers.
    let started = Instant::now();
    let mut peak_buffered_events = 0;
    for events in &streams {
        let mut session =
            ReductionSession::from_model(input.model.clone())?.with_sink(CountingSink::new());
        for event in events {
            session.push(*event)?;
        }
        peak_buffered_events = peak_buffered_events.max(session.peak_buffered_events());
        std::hint::black_box(session.finish()?.report);
    }
    let single_thread = started.elapsed();

    Ok(Isolation {
        assemble_ns_per_event: per(assemble, sampled),
        etrc_encode_ns_per_event: per(etrc_encode, recorded_events),
        edv_encode_ns_per_event: per(edv_encode, recorded_events),
        edv_bytes_ratio: payload_bytes as f64 / stored_bytes.max(1) as f64,
        edv_decode_ns_per_event: per(edv_decode, recorded_events),
        crc32_ns_per_byte: per(crc, crc_bytes),
        single_thread_events_per_s: sampled as f64 / single_thread.as_secs_f64(),
        peak_buffered_events,
    })
}
