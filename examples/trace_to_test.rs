//! Trace → regression test, end to end: run a fleet churn scenario with
//! durable per-stream store lanes, extract every true-positive window
//! from the reopened store as a sealed [`ReproArtifact`], ddmin-minimize
//! the repros, emit them as generated `#[test]` specs, and re-verify the
//! corpus from its bytes alone.
//!
//! ```text
//! cargo run --release --example trace_to_test -- /tmp/repro-store
//! cargo run --release --example trace_to_test -- /tmp/repro-store 800 7
//! ```
//!
//! The positional arguments are the store directory (must be fresh), the
//! device count (default 400) and the scenario seed (default 42). The
//! generated corpus lands in `<store-dir>-corpus`.

use std::error::Error;

use endurance_eval::ChurnExperiment;
use endurance_repro::{minimize, verify_corpus, CorpusWriter, MinimizeConfig};
use endurance_store::StoreConfig;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let store_dir = std::path::PathBuf::from(
        args.next()
            .unwrap_or_else(|| "/tmp/endurance-repro-store".into()),
    );
    let devices: u32 = args.next().map(|v| v.parse()).transpose()?.unwrap_or(400);
    let seed: u64 = args.next().map(|v| v.parse()).transpose()?.unwrap_or(42);
    let corpus_dir = store_dir.with_file_name(format!(
        "{}-corpus",
        store_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "repro".into())
    ));

    // 1. Churn run with every stream recording to its own store lane;
    //    true positives are extracted from the cold-reopened store with
    //    two recorded neighbour windows of context on each side.
    println!("== 1. durable fleet churn run ({devices} devices, seed {seed})");
    let experiment = ChurnExperiment::churn_demo(devices, seed)?;
    let durable = experiment.run_durable(&store_dir, StoreConfig::default(), 2)?;
    println!(
        "   {} events, {} store lanes, reopen {} ({} windows recovered)",
        durable.result.events,
        durable.lanes,
        if durable.recovery.clean {
            "clean"
        } else {
            "rescanned"
        },
        durable.recovery.windows
    );
    println!(
        "   detector: {} true positives -> {} distinct flagged windows extracted \
         ({} skipped)",
        durable.result.confusion.true_positives,
        durable.artifacts.len(),
        durable.skipped_targets
    );

    // 2. Minimize each artifact: ddmin over the event sequence, oracle =
    //    fresh detector re-run from the artifact's own config and model.
    println!("== 2. ddmin minimization");
    let config = MinimizeConfig::default();
    let mut corpus = CorpusWriter::new(&corpus_dir)?;
    let mut kept = 0usize;
    for artifact in &durable.artifacts {
        let outcome = minimize(artifact, &config)?;
        println!(
            "   {}: {} -> {} events in {} oracle calls{}",
            artifact.name,
            outcome.report.original_events,
            outcome.report.minimized_events,
            outcome.report.oracle_calls,
            if outcome.report.proven_minimal {
                " (1-minimal)"
            } else {
                " (budget-capped)"
            }
        );
        corpus.write(&outcome.artifact)?;
        kept += 1;
    }
    let manifest = corpus.write_manifest()?;

    // 3. Re-verify the emitted corpus exactly as the generated `#[test]`
    //    specs will: load bytes, check the content hash, re-run the
    //    detector, compare every pinned verdict.
    println!("== 3. corpus verification");
    let report = verify_corpus(&corpus_dir)?;
    println!(
        "   {} generated specs + {} ({} artifacts, {} events) verified in {}",
        kept,
        manifest.file_name().unwrap().to_string_lossy(),
        report.artifacts,
        report.events,
        corpus_dir.display()
    );
    assert_eq!(report.artifacts, durable.artifacts.len());

    println!("OK");
    Ok(())
}
