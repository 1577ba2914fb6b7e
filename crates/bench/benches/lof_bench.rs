//! Benchmarks of the LOF model: fitting a reference set and scoring
//! queries, in the two regimes that exist — a duplicate-heavy model (the
//! shape periodic traces produce) and an all-distinct one (the flat
//! scan's worst case).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use endurance_bench::{duplicated_queries, duplicated_reference_points};
use lof_anomaly::{l1_normalize, LofConfig, LofModel};

/// Builds all-distinct pmf-like reference points resembling 40 ms
/// multimedia windows with real-valued jitter.
fn reference_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let counts: Vec<f64> = (0..dims)
                .map(|d| 10.0 + d as f64 + rng.gen_range(0.0..4.0))
                .collect();
            l1_normalize(&counts)
        })
        .collect()
}

/// One regime: its name, reference points and queries.
struct Regime {
    name: &'static str,
    points: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
}

fn regimes() -> [Regime; 2] {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let random_queries = (0..64)
        .map(|_| {
            let counts: Vec<f64> = (0..14).map(|_| rng.gen_range(0.0..40.0)).collect();
            l1_normalize(&counts)
        })
        .collect();
    [
        Regime {
            name: "duplicated_3000x14_12distinct",
            points: duplicated_reference_points(3_000, 14, 12),
            queries: duplicated_queries(64, 14, 12),
        },
        Regime {
            name: "distinct_7500x14",
            points: reference_points(7_500, 14, 11),
            queries: random_queries,
        },
    ]
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("lof_fit");
    group.sample_size(10);
    for Regime { name, points, .. } in regimes() {
        group.bench_function(format!("{name}_k20"), |bench| {
            bench.iter(|| {
                LofModel::fit(black_box(points.clone()), LofConfig::new(20).unwrap()).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("lof_score");
    for Regime {
        name,
        points,
        queries,
    } in regimes()
    {
        let model = LofModel::fit(points, LofConfig::new(20).unwrap()).unwrap();
        group.bench_function(format!("{name}_k20"), |bench| {
            let mut i = 0;
            bench.iter(|| {
                i = (i + 1) % queries.len();
                model.score(black_box(&queries[i])).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_score);
criterion_main!(benches);
