//! End-to-end monitoring throughput: how many trace windows per second the
//! online monitor sustains, with and without the KL drift gate.
//!
//! This is the number that decides whether the approach can run *online*
//! next to the tracing hardware, which is the paper's whole premise.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use endurance_core::{DriftGateConfig, MonitorConfig, OnlineMonitor, ReferenceModel};
use mm_sim::{Scenario, Simulation};
use trace_model::{Timestamp, Window, WindowAssembler};

struct Fixture {
    reference: Vec<Window>,
    monitored: Vec<Window>,
    dimensions: usize,
}

fn fixture() -> Fixture {
    // 120 s reference + 60 s of monitored traffic.
    let scenario = Scenario::builder("bench-monitor")
        .duration(Duration::from_secs(180))
        .reference_duration(Duration::from_secs(120))
        .seed(9)
        .build()
        .expect("scenario");
    let registry = scenario.registry().expect("registry");
    let events: Vec<_> = Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect();
    let reference_end = Timestamp::from(scenario.reference_duration);
    let (reference, monitored) = WindowAssembler::for_time(Duration::from_millis(40))
        .expect("window length")
        .windows(events)
        .partition(|w: &Window| w.end <= reference_end);
    Fixture {
        reference,
        monitored,
        dimensions: registry.len(),
    }
}

fn config(dimensions: usize, gate: DriftGateConfig) -> MonitorConfig {
    MonitorConfig::builder()
        .dimensions(dimensions)
        .k(20)
        .alpha(1.2)
        .reference_duration(Duration::from_secs(120))
        .drift_gate(gate)
        .build()
        .expect("config")
}

fn bench_monitor(c: &mut Criterion) {
    let fixture = fixture();
    let mut group = c.benchmark_group("monitor");
    group.sample_size(20);
    group.throughput(Throughput::Elements(fixture.monitored.len() as u64));

    for (name, gate) in [
        (
            "observe_with_gate",
            DriftGateConfig::Auto { percentile: 0.95 },
        ),
        ("observe_without_gate", DriftGateConfig::Disabled),
    ] {
        let cfg = config(fixture.dimensions, gate);
        let model =
            ReferenceModel::learn_from_windows(&fixture.reference, &cfg).expect("reference model");
        // One long-lived monitor is reused across iterations: its running
        // aggregate keeps absorbing the same regular traffic, which is
        // exactly the steady state we want to measure.
        let mut monitor = OnlineMonitor::new(model);
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut recorded = 0u64;
                for window in &fixture.monitored {
                    if monitor.observe(black_box(window)).unwrap().recorded() {
                        recorded += 1;
                    }
                }
                recorded
            })
        });
    }
    group.finish();
}

fn bench_learning(c: &mut Criterion) {
    let fixture = fixture();
    let cfg = config(fixture.dimensions, DriftGateConfig::default());
    let mut group = c.benchmark_group("learning");
    group.sample_size(10);
    group.bench_function("learn_reference_3000_windows", |bench| {
        bench.iter(|| {
            ReferenceModel::learn_from_windows(black_box(&fixture.reference), &cfg)
                .unwrap()
                .reference_windows()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_monitor, bench_learning);
criterion_main!(benches);
