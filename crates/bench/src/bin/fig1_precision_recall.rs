//! Regenerates Figure 1 of the paper: precision and recall of the anomaly
//! detection as a function of the LOF threshold α.
//!
//! ```text
//! cargo run --release -p endurance-bench --bin fig1_precision_recall            # 1200 s scaled run
//! cargo run --release -p endurance-bench --bin fig1_precision_recall -- 2400    # longer run
//! cargo run --release -p endurance-bench --bin fig1_precision_recall -- full    # paper-scale 6 h 17 m
//! ```

use std::error::Error;
use std::time::Duration;

use endurance_core::WindowVerdict;
use endurance_eval::{alpha_sweep_from_decisions, default_alpha_grid, sweep_table, Experiment};

fn main() -> Result<(), Box<dyn Error>> {
    let experiment = match std::env::args().nth(1).as_deref() {
        Some("full") => Experiment::paper_full(42)?,
        Some(seconds) => Experiment::scaled(Duration::from_secs(seconds.parse()?), 42)?,
        None => Experiment::scaled(Duration::from_secs(1200), 42)?,
    };
    eprintln!(
        "[fig1] simulating {} ({} perturbations) and monitoring once...",
        experiment.scenario.name,
        experiment.scenario.perturbations.len()
    );
    let result = experiment.run()?;
    let sweep = alpha_sweep_from_decisions(&result.decisions, &result.truth, &default_alpha_grid());

    println!("=== Figure 1: precision and recall vs LOF threshold ===");
    println!();
    println!("{}", sweep_table(&sweep));
    println!("paper reference (GStreamer testbed): precision 78.9%, recall 76.6% at alpha = 1.2");
    if let Some(point) = sweep.iter().find(|p| (p.alpha - 1.2).abs() < 1e-9) {
        println!(
            "this reproduction (simulated substrate): precision {:.1}%, recall {:.1}% at alpha = 1.2",
            100.0 * point.precision,
            100.0 * point.recall
        );
    }
    // What a flat line comes from: how many windows LOF scored, how many
    // it flagged, and how many it judged normal, at the run's alpha; and
    // how few behaviours the reference held, most of them so crowded
    // that their density is infinite.
    let checked_normal = result
        .decisions
        .iter()
        .filter(|decision| decision.verdict == WindowVerdict::CheckedNormal)
        .count();
    println!();
    println!(
        "at alpha = {:.1}: {} LOF evaluations, {} anomalous windows, {checked_normal} CheckedNormal verdicts",
        result.report.alpha, result.report.lof_evaluations, result.report.anomalous_windows
    );
    if let Some(model) = &result.model {
        let lof = model.lof();
        println!(
            "reference model: {} distinct of {} pmfs, {} with an infinite lrd ({:.1}%)",
            lof.distinct_points(),
            lof.len(),
            lof.infinite_lrd_points(),
            100.0 * lof.infinite_lrd_points() as f64 / lof.len() as f64
        );
    }
    Ok(())
}
