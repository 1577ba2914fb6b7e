//! End-to-end trace → regression-test roundtrip: a simulated fleet
//! churn run records every stream to a durable store lane, the detector
//! flags windows, true positives are extracted from the *reopened*
//! store into sealed [`ReproArtifact`]s, one is ddmin-minimized, and
//! the corpus writer renders both into generated `#[test]` specs that
//! are verified in-process — the full loop the `endurance-repro` crate
//! exists for, crossing mm-sim, core, store, eval and repro.

use endurance_eval::ChurnExperiment;
use endurance_repro::{
    minimize, verify_corpus, CorpusWriter, MinimizeConfig, ReproArtifact, MANIFEST_FILE,
};
use endurance_store::StoreConfig;

const DEVICES: u32 = 400;
const SEED: u64 = 42;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "endurance-repro-roundtrip-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fleet_run_becomes_self_verifying_regression_tests() {
    let store_dir = temp_dir("store");
    let corpus_dir = temp_dir("corpus");

    // 1. Fleet churn run, every stream recording through its own store
    //    lane, scored against the injected ground truth.
    let experiment = ChurnExperiment::churn_demo(DEVICES, SEED).expect("valid experiment");
    let durable = experiment
        .run_durable(&store_dir, StoreConfig::default(), 2)
        .expect("durable churn run succeeds");
    assert!(durable.lanes > 0, "no stream recorded a store lane");
    assert!(
        durable.result.confusion.true_positives > 0,
        "demo scenario detected no injected faults"
    );

    // 2. The true-positive decisions name their windows, and every one
    //    of them was extracted from the cold-reopened store.
    let tp_windows: usize = durable
        .result
        .streams
        .iter()
        .map(|score| score.tp_windows.len())
        .sum();
    assert!(
        tp_windows > 0,
        "no per-stream true-positive windows exposed"
    );
    assert!(!durable.artifacts.is_empty(), "no artifacts extracted");
    assert_eq!(
        durable.skipped_targets, 0,
        "recorded true positives must reproduce under the stateless oracle"
    );

    // 3. Every artifact is sealed and self-verifying from its bytes
    //    alone.
    for artifact in &durable.artifacts {
        let bytes = artifact.to_bytes().expect("artifact serializes");
        let reloaded = ReproArtifact::from_bytes(&bytes).expect("artifact reloads");
        reloaded.verify().expect("artifact reproduces its verdicts");
    }

    // 4. Minimize an artifact that carries context windows: the ddmin
    //    result must be strictly smaller yet still trip the detector.
    let extracted = durable
        .artifacts
        .iter()
        .find(|artifact| artifact.windows.len() > 1)
        .expect("some artifact has context windows");
    let minimized = minimize(extracted, &MinimizeConfig::default()).expect("minimization succeeds");
    assert!(
        minimized.artifact.event_count() < extracted.event_count(),
        "minimized repro ({} events) not smaller than extraction ({} events)",
        minimized.artifact.event_count(),
        extracted.event_count()
    );
    assert_eq!(minimized.report.original_events, extracted.event_count());
    assert!(minimized.report.oracle_calls > 0);
    assert_eq!(
        minimized.artifact.model, extracted.model,
        "the minimized artifact embeds its source's model string byte-for-byte"
    );
    minimized
        .artifact
        .verify()
        .expect("minimized artifact reproduces the anomalous verdict");

    // 5. Emit both into a corpus and verify every generated fixture the
    //    same way the generated `#[test]` specs will forever.
    let mut writer = CorpusWriter::new(&corpus_dir).expect("corpus dir");
    writer.write(extracted).expect("write extracted");
    writer.write(&minimized.artifact).expect("write minimized");
    let manifest = writer.write_manifest().expect("write manifest");
    assert!(manifest.ends_with(MANIFEST_FILE));

    let report = verify_corpus(&corpus_dir).expect("corpus verifies");
    assert_eq!(report.artifacts, 2);
    assert!(report.events > 0);

    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&corpus_dir);
}
