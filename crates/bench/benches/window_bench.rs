//! Benchmarks of window segmentation and pmf construction — the per-event
//! cost the online monitor pays regardless of the anomaly decision.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use endurance_core::WindowPmf;
use mm_sim::{Scenario, Simulation};
use trace_model::{TraceEvent, WindowAssembler};

fn simulated_events(seconds: u64) -> Vec<TraceEvent> {
    let scenario = Scenario::reference(Duration::from_secs(seconds), 3).expect("scenario");
    let registry = scenario.registry().expect("registry");
    Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect()
}

fn bench_windowing(c: &mut Criterion) {
    let events = simulated_events(30);
    let mut group = c.benchmark_group("windowing");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("time_40ms", |bench| {
        let assembler = WindowAssembler::for_time(Duration::from_millis(40)).unwrap();
        bench.iter(|| assembler.clone().windows(black_box(events.clone())).count())
    });
    group.bench_function("count_512", |bench| {
        let assembler = WindowAssembler::for_count(512).unwrap();
        bench.iter(|| assembler.clone().windows(black_box(events.clone())).count())
    });
    group.finish();
}

fn bench_pmf(c: &mut Criterion) {
    let events = simulated_events(10);
    let windows: Vec<_> = WindowAssembler::for_time(Duration::from_millis(40))
        .unwrap()
        .windows(events)
        .collect();
    let mut group = c.benchmark_group("pmf");
    group.throughput(Throughput::Elements(windows.len() as u64));
    group.bench_function("from_window_dim14", |bench| {
        bench.iter(|| {
            windows
                .iter()
                .map(|w| WindowPmf::from_window(black_box(w), 14, 0.5).total_events())
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("generate_30s_trace", |bench| {
        bench.iter(|| simulated_events(black_box(30)).len())
    });
    group.finish();
}

criterion_group!(benches, bench_windowing, bench_pmf, bench_simulation);
criterion_main!(benches);
