//! Extension experiment: exploiting the periodic behaviour of the
//! application (sketched in the paper's conclusion).
//!
//! Two measurements:
//! 1. the dominant period of the per-window activity signal, detected by
//!    autocorrelation (the GOP / perturbation periodicities);
//! 2. how much further the recorded volume shrinks when repeated anomaly
//!    signatures are de-duplicated with the [`PeriodicSuppressor`].
//!
//! ```text
//! cargo run --release -p endurance-bench --bin ablation_periodicity
//! ```

use std::error::Error;
use std::time::Duration;

use endurance_core::{
    estimate_period, MonitorConfig, OnlineMonitor, PeriodicSuppressor, ReferenceModel, WindowPmf,
};
use endurance_eval::format_bytes;
use mm_sim::{Scenario, Simulation};
use trace_model::{Timestamp, TraceEvent, Window, WindowAssembler};

fn main() -> Result<(), Box<dyn Error>> {
    let seconds: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(900);
    let scenario = Scenario::scaled_endurance(Duration::from_secs(seconds), 42)?;
    let registry = scenario.registry()?;
    let config = MonitorConfig::builder()
        .dimensions(registry.len())
        .reference_duration(scenario.reference_duration)
        .build()?;

    eprintln!(
        "[periodicity] simulating and windowing {} ...",
        scenario.name
    );
    let events: Vec<TraceEvent> = Simulation::new(&scenario, &registry)?.collect();
    let reference_end = Timestamp::from(scenario.reference_duration);
    let (reference, monitored): (Vec<Window>, Vec<Window>) =
        WindowAssembler::for_time(Duration::from_millis(40))?
            .windows(events)
            .partition(|w| w.end <= reference_end);

    // 1. Period detection on the per-window decode activity.
    let decode_id = registry
        .id_of("video.decode")
        .expect("registry has video.decode");
    let activity: Vec<f64> = monitored
        .iter()
        .map(|w| w.count_of(decode_id) as f64)
        .collect();
    println!("=== Extension: periodic behaviour ===");
    println!();
    let windows_per_perturbation_period = 180_000 / 40;
    match estimate_period(&activity, 50, windows_per_perturbation_period + 500, 0.1) {
        Some(period) => println!(
            "dominant activity period: {period} windows (= {:.1} s); perturbation period is 180 s",
            period as f64 * 0.040
        ),
        None => println!("no confident activity period detected"),
    }

    // 2. Signature de-duplication on top of the standard monitor.
    eprintln!("[periodicity] monitoring with and without signature de-duplication...");
    let model = ReferenceModel::learn_from_windows(&reference, &config)?;
    let mut monitor = OnlineMonitor::new(model);
    let mut suppressor = PeriodicSuppressor::new(256, 0.02);
    let (mut plain_windows, mut plain_bytes) = (0u64, 0u64);
    let (mut dedup_windows, mut dedup_bytes) = (0u64, 0u64);
    let mut total_bytes = 0u64;
    for window in &monitored {
        let pmf = WindowPmf::from_window(window, config.dimensions, config.smoothing);
        let decision = monitor.observe_pmf(window, &pmf)?;
        total_bytes += window.raw_size_bytes() as u64;
        if decision.recorded() {
            plain_windows += 1;
            plain_bytes += window.raw_size_bytes() as u64;
            if suppressor.should_record(&pmf) {
                dedup_windows += 1;
                dedup_bytes += window.raw_size_bytes() as u64;
            }
        }
    }

    println!();
    println!(
        "{:<34} {:>10} {:>12} {:>11}",
        "configuration", "recorded", "size", "reduction"
    );
    println!("{}", "-".repeat(72));
    println!(
        "{:<34} {:>10} {:>12} {:>10.1}x",
        "LOF monitor (alpha = 1.2)",
        plain_windows,
        format_bytes(plain_bytes),
        total_bytes as f64 / plain_bytes.max(1) as f64
    );
    println!(
        "{:<34} {:>10} {:>12} {:>10.1}x",
        "+ periodic signature de-dup",
        dedup_windows,
        format_bytes(dedup_bytes),
        total_bytes as f64 / dedup_bytes.max(1) as f64
    );
    println!();
    println!(
        "de-duplication suppressed {} of {} recorded windows ({:.1}% further reduction)",
        suppressor.suppressed(),
        plain_windows,
        100.0 * (plain_bytes - dedup_bytes) as f64 / plain_bytes.max(1) as f64
    );
    Ok(())
}
