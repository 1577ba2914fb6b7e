//! Hostile bytes through [`ReproArtifact::from_bytes`]: whatever the
//! input, the answer is a sealed artifact whose hash matches and which
//! still verifies, or one of the typed load errors in the order
//! `docs/REPRO.md` §1 (*Loading*) fixes — never a panic, a stack
//! overflow, or a model parse spent on a document about to be refused.

use endurance_core::WindowVerdict;
use endurance_repro::{ReproArtifact, ReproError};

const GOLDEN: &[u8] = include_bytes!("fixtures/golden.repro.json");
/// The same artifact as schema 1 sealed it: its hash folds the model text.
const GOLDEN_V1: &[u8] = include_bytes!("fixtures/golden_v1.repro.json");
const CORPUS_MIN: &[u8] = include_bytes!("../corpus/fixtures/burst_anomaly_min.repro.json");

/// Loads `bytes` and checks the one thing every outcome must satisfy:
/// `Ok` only for a matching hash and a reproducing artifact, otherwise a
/// load error. Returns whether the bytes loaded.
fn load_is_sound(bytes: &[u8]) -> bool {
    match ReproArtifact::from_bytes(bytes) {
        Ok(artifact) => {
            assert_eq!(artifact.compute_hash().unwrap(), artifact.content_hash);
            artifact.verify().expect("an artifact that loads verifies");
            true
        }
        Err(
            ReproError::Malformed(_)
            | ReproError::UnsupportedSchema { .. }
            | ReproError::HashMismatch { .. }
            | ReproError::Core(_),
        ) => false,
        Err(other) => panic!("not a load error: {other:?}"),
    }
}

#[test]
fn every_truncation_and_byte_flip_is_refused_with_a_typed_error() {
    for fixture in [GOLDEN, GOLDEN_V1, CORPUS_MIN] {
        assert!(load_is_sound(fixture), "the fixture itself loads");
        for len in 0..fixture.len() {
            assert!(!load_is_sound(&fixture[..len]), "truncation to {len} bytes");
        }
        let mut bytes = fixture.to_vec();
        for at in 0..bytes.len() {
            // Every position: the lowest bit (digit to digit, letter to
            // letter, `"` to `#`) and the highest (ASCII to not UTF-8).
            // Every 89th position (prime to the fixtures' repeating
            // spans): all 255 other bytes.
            let masks: Vec<u8> = if at % 89 == 0 {
                (1..=255).collect()
            } else {
                vec![0x01, 0x80]
            };
            for mask in masks {
                bytes[at] = fixture[at] ^ mask;
                // No single-byte change decodes to the sealed content:
                // the documents hold no insignificant byte.
                assert!(!load_is_sound(&bytes), "byte {at} ^ {mask:#04x}");
            }
            bytes[at] = fixture[at];
        }
    }
}

#[test]
fn unbounded_nesting_is_malformed_not_a_stack_overflow() {
    for hostile in [
        vec![b'['; 60_000],
        b"{\"schema\":".repeat(60_000),
        [b"{\"schema\":1,\"windows\":".as_slice(), &[b'['; 1 << 20]].concat(),
    ] {
        assert!(matches!(
            ReproArtifact::from_bytes(&hostile),
            Err(ReproError::Malformed(_))
        ));
    }
}

/// The span of the `model` string's contents within the golden document.
fn golden_model_span(text: &str) -> std::ops::Range<usize> {
    let start = text.find("\"model\":\"").expect("model field") + "\"model\":\"".len();
    let len = text[start..].find("\",\"windows\"").expect("end of model");
    start..start + len
}

#[test]
fn a_changed_digit_inside_the_model_text_is_a_hash_mismatch() {
    for golden in [GOLDEN, GOLDEN_V1] {
        let text = std::str::from_utf8(golden).unwrap();
        let span = golden_model_span(text);
        let digits: Vec<usize> = span
            .filter(|&at| text.as_bytes()[at].is_ascii_digit())
            .collect();
        assert!(digits.len() > 500);
        // Still well-formed JSON, still a model: only the seal can tell.
        for at in digits {
            let mut bytes = golden.to_vec();
            bytes[at] = if bytes[at] == b'9' {
                b'8'
            } else {
                bytes[at] + 1
            };
            assert!(
                matches!(
                    ReproArtifact::from_bytes(&bytes),
                    Err(ReproError::HashMismatch { .. })
                ),
                "digit at byte {at}"
            );
        }
    }
}

/// The content hash as `docs/REPRO.md` §2 writes it down, folded by hand
/// over a loaded artifact's fields and a model text of the caller's
/// choosing, by the artifact's own schema.
fn spec_hash(artifact: &ReproArtifact, model: &str) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    fn fold(state: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *state = (*state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn fold_str(state: &mut u64, text: &str) {
        fold(state, &(text.len() as u64).to_le_bytes());
        fold(state, text.as_bytes());
    }
    let mut state = BASIS;
    fold(&mut state, &artifact.schema.to_le_bytes());
    fold_str(&mut state, &artifact.name);
    fold(&mut state, &artifact.lane.to_le_bytes());
    fold(&mut state, &artifact.target_start_ns.to_le_bytes());
    fold_str(
        &mut state,
        &serde_json::to_string(&artifact.monitor).unwrap(),
    );
    if artifact.schema == 1 {
        fold_str(&mut state, model);
    } else {
        let mut digest = BASIS;
        fold(&mut digest, model.as_bytes());
        fold(&mut state, &(model.len() as u64).to_le_bytes());
        fold(&mut state, &digest.to_le_bytes());
    }
    fold(&mut state, &(artifact.windows.len() as u64).to_le_bytes());
    for window in &artifact.windows {
        fold(&mut state, &window.window_id.to_le_bytes());
        fold(&mut state, &window.start_ns.to_le_bytes());
        fold(&mut state, &window.end_ns.to_le_bytes());
        fold(&mut state, &window.events.to_le_bytes());
        fold(&mut state, &(window.payload.len() as u64).to_le_bytes());
        fold(&mut state, &window.payload);
    }
    fold(&mut state, &(artifact.expected.len() as u64).to_le_bytes());
    for pinned in &artifact.expected {
        fold(&mut state, &pinned.start_ns.to_le_bytes());
        fold(&mut state, &pinned.end_ns.to_le_bytes());
        fold(&mut state, &(pinned.events as u64).to_le_bytes());
        let tag = match pinned.verdict {
            WindowVerdict::SimilarMerged => 0u8,
            WindowVerdict::CheckedNormal => 1,
            WindowVerdict::Anomalous => 2,
        };
        fold(&mut state, &[tag]);
    }
    state
}

#[test]
fn an_artifact_resealed_around_a_text_that_is_no_model_is_refused_at_load() {
    for fixture in [GOLDEN, GOLDEN_V1] {
        resealed_around_no_model_is_refused(fixture);
    }
}

fn resealed_around_no_model_is_refused(fixture: &[u8]) {
    let golden = ReproArtifact::from_bytes(fixture).unwrap();
    assert_eq!(
        spec_hash(&golden, golden.model.json()),
        golden.content_hash,
        "the by-hand fold of REPRO.md §2 is the fold the crate seals with"
    );

    let text = std::str::from_utf8(fixture).unwrap();
    let span = golden_model_span(text);
    let sealed = format!("\"content_hash\":{}", golden.content_hash);
    assert!(text.ends_with(&format!("{sealed}}}")));
    // JSON of the wrong shape, no JSON at all, and the right shape with
    // nothing a LOF could be fitted to: each correctly sealed.
    let unfittable = format!(
        "{{\"points\":[],\"aggregate\":{{\"probabilities\":[1.0],\"total_events\":0,\
         \"merged_windows\":0}},\"calibrated_gate_threshold\":0.0,\"reference_windows\":0,\
         \"config\":{}}}",
        serde_json::to_string(&golden.monitor).unwrap()
    );
    for not_a_model in ["{}", "[[[[", &unfittable] {
        let resealed = format!(
            "{}{}{}",
            &text[..span.start],
            not_a_model.replace('"', "\\\""),
            text[span.end..].replace(
                &sealed,
                &format!("\"content_hash\":{}", spec_hash(&golden, not_a_model))
            )
        );
        match ReproArtifact::from_bytes(resealed.as_bytes()) {
            Err(ReproError::Core(_)) => {}
            other => panic!("`{not_a_model}` passed for a model: {other:?}"),
        }
        // Under the golden seal the same text is never looked at: the
        // hash is judged before the model.
        let unsealed = format!(
            "{}{}{}",
            &text[..span.start],
            not_a_model.replace('"', "\\\""),
            &text[span.end..]
        );
        assert!(matches!(
            ReproArtifact::from_bytes(unsealed.as_bytes()),
            Err(ReproError::HashMismatch { .. })
        ));
    }
}

#[test]
fn a_resealed_window_past_2_pow_64_ns_is_a_typed_error_from_verify() {
    // The monitor configuration reaches the window assembler from the
    // artifact's bytes: a window of 2^64 ns (the first length a timestamp
    // cannot hold), sealed as the crate seals, must be refused, not cut.
    let mut artifact = ReproArtifact::from_bytes(GOLDEN).unwrap();
    artifact.monitor.window = endurance_core::WindowStrategy::Time(
        std::time::Duration::from_nanos(u64::MAX) + std::time::Duration::from_nanos(1),
    );
    artifact.seal();
    let resealed = ReproArtifact::from_bytes(&artifact.to_bytes().unwrap()).unwrap();
    match resealed.verify() {
        Err(ReproError::Core(endurance_core::CoreError::InvalidConfig(_))) => {}
        other => panic!("a 2^64 ns window was not refused: {other:?}"),
    }
}
