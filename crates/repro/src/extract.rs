//! Pulling reproduction artifacts out of a durable store.
//!
//! Extraction is byte-for-byte: the window payloads an artifact carries
//! are exactly the encoded bytes the recorder wrote (the store's
//! segment map undoes any frame-codec transformation, nothing else).
//! The artifact's oracle config is the detection config with the drift
//! gate disabled, so the seal-time re-run — and every re-run after it —
//! scores each window statelessly. See `docs/REPRO.md` for why an
//! originally-anomalous window keeps its verdict under that oracle.

use endurance_core::{DriftGateConfig, EmbeddedModel, MonitorConfig, ReferenceModel};
use endurance_store::{StoreReader, WindowEntry};
use trace_model::WindowId;

use crate::artifact::{build_sealed, ArtifactWindow, ReproArtifact};
use crate::error::ReproError;

/// The oracle variant of a detection config: identical except the
/// drift gate is disabled, so every window is LOF-scored without any
/// history-dependent state.
pub fn oracle_config(monitor: &MonitorConfig) -> MonitorConfig {
    let mut config = monitor.clone();
    config.drift_gate = DriftGateConfig::Disabled;
    config
}

fn artifact_windows(windows: Vec<(WindowEntry, Vec<u8>)>) -> Vec<ArtifactWindow> {
    windows
        .into_iter()
        .map(|(entry, payload)| ArtifactWindow {
            window_id: entry.window_id,
            start_ns: entry.start_ns,
            end_ns: entry.end_ns,
            events: entry.events,
            payload,
        })
        .collect()
}

/// Extracts a sealed artifact reproducing the flagged window
/// `window_id` of `lane`, with up to `context` recorded neighbour
/// windows on each side.
///
/// `monitor` is the detection configuration the store was produced
/// under and `model` the curated reference model; the artifact embeds
/// the gate-disabled oracle variant of `monitor` plus the model's
/// canonical JSON ([`EmbeddedModel::embed`]: rendered and parsed back
/// once per model, however many windows are extracted with it), re-runs
/// once to pin every verdict, and seals its content hash.
///
/// # Errors
///
/// Returns [`ReproError::NoSuchWindow`] when the lane does not hold
/// `window_id`, [`ReproError::NotReproduced`] when the target window
/// does not re-score anomalous under the oracle, and propagates store
/// read failures.
pub fn extract_window(
    reader: &StoreReader,
    lane: u32,
    window_id: WindowId,
    context: usize,
    monitor: &MonitorConfig,
    model: &ReferenceModel,
    name: impl Into<String>,
) -> Result<ReproArtifact, ReproError> {
    let windows = reader.windows_around(lane, window_id, context)?;
    // The last match: the store answers a twice-recorded id with its
    // latest occurrence, and an earlier one may sit in the context.
    let Some(target) = windows
        .iter()
        .rfind(|(entry, _)| entry.window_id == window_id.index())
    else {
        return Err(ReproError::NoSuchWindow {
            lane,
            window_id: window_id.index(),
        });
    };
    let target_start_ns = target.0.start_ns;
    build_sealed(
        name.into(),
        lane,
        target_start_ns,
        oracle_config(monitor),
        EmbeddedModel::embed(model)?,
        artifact_windows(windows),
    )
}
