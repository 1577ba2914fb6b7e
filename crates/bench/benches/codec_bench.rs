//! Benchmarks of the trace codecs: what the recording path costs per event
//! and how compact the binary format is.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use mm_sim::{Scenario, Simulation};
use trace_model::codec::{BinaryDecoder, BinaryEncoder, TraceDecoder, TraceEncoder};
use trace_model::TraceEvent;

fn simulated_events() -> Vec<TraceEvent> {
    let scenario = Scenario::reference(Duration::from_secs(20), 5).expect("scenario");
    let registry = scenario.registry().expect("registry");
    Simulation::new(&scenario, &registry)
        .expect("simulation")
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let events = simulated_events();
    let mut encoded = Vec::new();
    BinaryEncoder::new().encode(&events, &mut encoded).unwrap();

    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("binary_encode", |bench| {
        bench.iter(|| {
            let mut out = Vec::with_capacity(encoded.len());
            BinaryEncoder::new()
                .encode(black_box(&events), &mut out)
                .unwrap();
            out.len()
        })
    });
    group.bench_function("binary_decode", |bench| {
        bench.iter(|| {
            BinaryDecoder::new()
                .decode(black_box(&encoded))
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codecs);
criterion_main!(benches);
