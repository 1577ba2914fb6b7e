//! Sharded multi-stream throughput: events per second sustained by the
//! `FleetReducer` at 1, 2 and 4 shards (devices pushed under the id
//! `device % shards`, one worker per shard) over a four-device endurance
//! workload, against two single-threaded baselines:
//!
//! * `single_session` — one `ReductionSession` over the merged untagged
//!   feed. Fast per event (per-fleet windows, 4× fewer of them), but it
//!   cannot produce per-device traces; context only.
//! * `serial_4_sessions` — one session per device routed inline on one
//!   thread: the single-threaded implementation of exactly the reduction
//!   the fleet engine performs. This is the speedup baseline.
//!
//! On a multi-core host the 4-shard configuration is expected to sustain
//! well over twice the `serial_4_sessions` rate (the CI `bench-smoke` job
//! enforces that); on a single hardware thread the fleet engine pays
//! only its channel overhead (a few percent), which these numbers make
//! visible rather than hide.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use endurance_core::{FleetReducer, MonitorConfig, ReductionSession};
use mm_sim::{Scenario, Simulation};
use trace_model::{CountingSink, InterleavedStreams, MemorySource, StreamId, TraceEvent};

const DEVICES: u32 = 4;

struct Fixture {
    /// The fleet's streams, interleaved by timestamp and tagged by device.
    tagged: Vec<(StreamId, TraceEvent)>,
    config: MonitorConfig,
}

fn fixture() -> Fixture {
    // Per device: 20 s reference + 40 s of monitored traffic at high
    // tracing rates (5 ms frames, 2 ms audio chunks).
    let per_device: Vec<Vec<TraceEvent>> = (0..DEVICES)
        .map(|device| {
            let scenario = Scenario::builder(&format!("bench-shard-{device}"))
                .duration(Duration::from_secs(60))
                .reference_duration(Duration::from_secs(20))
                .frame_period(Duration::from_millis(5))
                .audio_period(Duration::from_millis(2))
                .seed(7 + u64::from(device))
                .build()
                .expect("valid scenario");
            let registry = scenario.registry().expect("registry");
            Simulation::new(&scenario, &registry)
                .expect("simulation")
                .collect()
        })
        .collect();
    let registry = Scenario::builder("bench-shard-registry")
        .duration(Duration::from_secs(60))
        .reference_duration(Duration::from_secs(20))
        .build()
        .expect("valid scenario")
        .registry()
        .expect("registry");
    let config = MonitorConfig::builder()
        .dimensions(registry.len())
        .reference_duration(Duration::from_secs(20))
        .build()
        .expect("valid monitor config");
    let sources: Vec<MemorySource> = per_device
        .into_iter()
        .map(|events| MemorySource::new(events).expect("ordered"))
        .collect();
    let tagged: Vec<(StreamId, TraceEvent)> = InterleavedStreams::new(sources).collect();
    Fixture { tagged, config }
}

fn bench_sharded_push(c: &mut Criterion) {
    let fixture = fixture();
    let mut group = c.benchmark_group("sharded_push");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fixture.tagged.len() as u64));

    // Context baseline: the same merged stream, untagged, one session.
    group.bench_function("single_session", |bench| {
        bench.iter(|| {
            let mut session = ReductionSession::new(fixture.config.clone())
                .expect("session")
                .with_sink(CountingSink::new());
            for (_, event) in &fixture.tagged {
                session.push(black_box(*event)).expect("push");
            }
            session.finish().expect("finish").report
        });
    });

    // Speedup baseline: per-device sessions routed inline on this thread —
    // identical output semantics to the fleet engine, zero parallelism.
    group.bench_function("serial_4_sessions", |bench| {
        bench.iter(|| {
            let mut sessions: Vec<_> = (0..DEVICES as usize)
                .map(|_| {
                    ReductionSession::new(fixture.config.clone())
                        .expect("session")
                        .with_sink(CountingSink::new())
                })
                .collect();
            for (source, event) in &fixture.tagged {
                sessions[source.index() % DEVICES as usize]
                    .push(black_box(*event))
                    .expect("push");
            }
            sessions
                .into_iter()
                .map(|session| session.finish().expect("finish").report)
                .collect::<Vec<_>>()
        });
    });

    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |bench, &shards| {
                bench.iter(|| {
                    let mut fleet =
                        FleetReducer::new(fixture.config.clone(), shards).expect("fleet");
                    for (source, event) in black_box(&fixture.tagged) {
                        let shard = StreamId::new(source.as_u32() % shards as u32);
                        fleet.push(shard, *event).expect("push");
                    }
                    fleet.finish().expect("finish").aggregate
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_sharded_push);
criterion_main!(benches);
