//! Golden-fixture compatibility test: a hand-built [`ReproArtifact`] is
//! checked in as bytes (`tests/fixtures/golden.repro.json`). Loading it
//! must verify the content hash and reproduce the pinned verdicts
//! forever; corrupted and schema-bumped variants must be rejected with
//! the matching typed error, never accepted or misclassified. The same
//! artifact as schema 1 sealed it (`tests/fixtures/golden_v1.repro.json`,
//! never regenerated) must load, verify and re-seal to its own bytes.
//!
//! The fixture is regenerated by the `#[ignore]`d `regen_golden_fixture`
//! test (`cargo test -p endurance-repro -- --ignored regen_golden`),
//! which rebuilds it from the same deterministic synthetic scenario and
//! overwrites the checked-in file. A fixture diff in review means the
//! artifact format or the detector's verdicts changed — both are
//! breaking and need a schema bump.

use std::time::Duration;

use endurance_core::{MonitorConfig, ReferenceModel, WindowStrategy, WindowVerdict};
use endurance_repro::{ReproArtifact, ReproError, ARTIFACT_SCHEMA};
use trace_model::{EventTypeId, Timestamp, TraceEvent, Window, WindowId};

const GOLDEN: &[u8] = include_bytes!("fixtures/golden.repro.json");
const GOLDEN_V1: &[u8] = include_bytes!("fixtures/golden_v1.repro.json");

/// 40 ms in nanoseconds: the oracle's window span.
const WINDOW_NS: u64 = 40_000_000;

/// The monitor configuration the golden artifact was extracted under.
fn monitor_config() -> MonitorConfig {
    MonitorConfig::builder()
        .window(WindowStrategy::Time(Duration::from_millis(40)))
        .dimensions(4)
        .k(5)
        .alpha(1.2)
        .build()
        .expect("golden monitor config is valid")
}

/// `count` events inside window `window`, spread evenly over its span,
/// with event types taken from `mix` cyclically.
fn window_events(window: u64, mix: &[u16]) -> Vec<TraceEvent> {
    let count = mix.len() as u64;
    mix.iter()
        .enumerate()
        .map(|(i, &ty)| {
            let offset = (i as u64 + 1) * (WINDOW_NS / (count + 1));
            TraceEvent::new(
                Timestamp::from_nanos(window * WINDOW_NS + offset),
                EventTypeId::new(ty),
                i as u32,
            )
        })
        .collect()
}

/// A healthy window's event-type mix: dominated by types 0 and 1 with a
/// deterministic sprinkle of 2s that varies per window, so the LOF
/// reference neighbourhood is non-degenerate.
fn normal_mix(variant: u64) -> Vec<u16> {
    (0..16)
        .map(|i| match (i + variant) % 8 {
            0 => 2,
            1..=4 => 0,
            _ => 1,
        })
        .collect()
}

/// Learns the reference model from twelve deterministic healthy windows.
fn learn_model(config: &MonitorConfig) -> ReferenceModel {
    let windows: Vec<Window> = (0..12u64)
        .map(|w| Window {
            id: WindowId::new(w),
            start: Timestamp::from_nanos(w * WINDOW_NS),
            end: Timestamp::from_nanos((w + 1) * WINDOW_NS),
            events: window_events(w, &normal_mix(w)),
        })
        .collect();
    ReferenceModel::learn_from_windows(&windows, config).expect("reference model learns")
}

/// Builds the golden artifact: five windows starting at window 100, the
/// middle one saturated with type-3 events the reference has never
/// seen, flagged as the target.
fn build_golden() -> ReproArtifact {
    let config = monitor_config();
    let model = learn_model(&config);
    let mut events = Vec::new();
    for (i, w) in (100u64..105).enumerate() {
        let mix = if w == 102 {
            vec![3u16; 16]
        } else {
            normal_mix(i as u64)
        };
        events.extend(window_events(w, &mix));
    }
    ReproArtifact::from_events("golden", 0, 102 * WINDOW_NS, &config, &model, &events)
        .expect("golden scenario reproduces an anomalous target")
}

/// Regenerates `tests/fixtures/golden.repro.json` in place. Run with
/// `cargo test -p endurance-repro -- --ignored regen_golden` and commit
/// the diff (with a schema bump) when the format changes intentionally.
#[test]
#[ignore = "regenerates the checked-in fixture; run explicitly"]
fn regen_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.repro.json");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let bytes = build_golden().to_bytes().unwrap();
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn golden_fixture_loads_and_reproduces() {
    let artifact = ReproArtifact::from_bytes(GOLDEN).expect("checked-in fixture loads");
    assert_eq!(artifact.schema, ARTIFACT_SCHEMA);
    assert_eq!(artifact.name, "golden");
    assert_eq!(artifact.lane, 0);
    assert_eq!(artifact.target_start_ns, 102 * WINDOW_NS);
    assert_eq!(artifact.windows.len(), 5);
    assert!(artifact
        .expected
        .iter()
        .any(|pin| pin.verdict == WindowVerdict::Anomalous));

    // The detector, re-run from nothing but the artifact's bytes, must
    // still return every pinned verdict.
    let outcome = artifact.verify().expect("pinned verdicts reproduce");
    assert_eq!(outcome.decisions.len(), artifact.expected.len());
}

#[test]
fn golden_fixture_pins_the_reference_vector() {
    // docs/REPRO.md §2 quotes these two numbers.
    let artifact = ReproArtifact::from_bytes(GOLDEN).unwrap();
    assert_eq!(artifact.model.digest(), 0xf3e6_2cda_56c4_2cb5);
    assert_eq!(artifact.content_hash, 0x74bf_7e23_2c99_4492);
}

#[test]
fn golden_fixture_matches_regeneration() {
    // The deterministic scenario must rebuild the checked-in bytes
    // exactly; a drift here means extraction or detection changed
    // behaviour without a schema bump.
    let rebuilt = build_golden().to_bytes().unwrap();
    assert_eq!(
        rebuilt, GOLDEN,
        "regenerated fixture differs from the checked-in bytes"
    );
}

#[test]
fn corrupted_payload_byte_is_rejected() {
    let mut artifact = ReproArtifact::from_bytes(GOLDEN).unwrap();
    // Corrupt one recorded event byte without touching the seal.
    artifact.windows[0].payload[0] ^= 0x01;
    let bytes = artifact.to_bytes().unwrap();
    match ReproArtifact::from_bytes(&bytes) {
        Err(ReproError::HashMismatch { expected, actual }) => assert_ne!(expected, actual),
        other => panic!("corrupted payload accepted or misclassified: {other:?}"),
    }
}

#[test]
fn corrupted_pinned_verdict_is_rejected() {
    let mut artifact = ReproArtifact::from_bytes(GOLDEN).unwrap();
    for pin in &mut artifact.expected {
        pin.verdict = WindowVerdict::CheckedNormal;
    }
    let bytes = artifact.to_bytes().unwrap();
    assert!(matches!(
        ReproArtifact::from_bytes(&bytes),
        Err(ReproError::HashMismatch { .. })
    ));
}

#[test]
fn unsupported_schema_is_rejected_before_hashing() {
    for schema in [0, ARTIFACT_SCHEMA + 1] {
        let mut artifact = ReproArtifact::from_bytes(GOLDEN).unwrap();
        artifact.schema = schema;
        // Reseal so only the schema check can reject: the gate must fire
        // before any hash comparison.
        artifact.seal();
        let bytes = artifact.to_bytes().unwrap();
        match ReproArtifact::from_bytes(&bytes) {
            Err(ReproError::UnsupportedSchema { found, supported }) => {
                assert_eq!(found, schema);
                assert_eq!(supported, ARTIFACT_SCHEMA);
            }
            other => panic!("schema {schema} accepted or misclassified: {other:?}"),
        }
    }
}

#[test]
fn schema_1_golden_loads_verifies_and_reseals_to_its_own_bytes() {
    let artifact = ReproArtifact::from_bytes(GOLDEN_V1).expect("schema-1 fixture loads");
    assert_eq!(artifact.schema, 1);
    assert_eq!(artifact.compute_hash().unwrap(), artifact.content_hash);
    artifact.verify().expect("pinned verdicts reproduce");
    assert_eq!(artifact.to_bytes().unwrap(), GOLDEN_V1);
    let mut resealed = artifact.clone();
    resealed.seal();
    assert_eq!(resealed.content_hash, artifact.content_hash);

    // The same artifact, sealed by this build: only the schema and the
    // seal differ.
    let current = ReproArtifact::from_bytes(GOLDEN).unwrap();
    assert_eq!(current.schema, ARTIFACT_SCHEMA);
    assert_ne!(current.content_hash, artifact.content_hash);
    assert_eq!(
        ReproArtifact {
            schema: ARTIFACT_SCHEMA,
            content_hash: current.content_hash,
            ..artifact
        },
        current
    );
}

#[test]
fn garbage_bytes_are_malformed() {
    assert!(matches!(
        ReproArtifact::from_bytes(b"not an artifact"),
        Err(ReproError::Malformed(_))
    ));
}
