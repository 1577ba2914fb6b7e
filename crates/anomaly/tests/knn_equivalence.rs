//! Exactness of the duplicate-collapsing k-NN index and of `LofModel`,
//! pinned bit-for-bit against naive references written here:
//!
//! * k-NN: compute all `n` distances, stable-sort by `(distance, index)`,
//!   take `k` — the normative order;
//! * LOF: the textbook definitions of `k_distance`, `lrd` and `lof` over
//!   those neighbourhoods, with the crate's `MAX_SCORE`/∞ conventions.
//!
//! Inputs cover the regimes the index treats differently: duplicate-heavy
//! (a few distinct rows with random multiplicities, some groups smaller
//! than `k`), tie-heavy (integer grids with `0.0` and `-0.0` rows),
//! all-distinct, `k ≥ n`, and queries with and without `exclude`
//! (including excluding the only member of a row) — for every
//! `DistanceKind`.

use std::collections::HashSet;

use proptest::prelude::*;

use lof_anomaly::{DistanceKind, LofConfig, LofModel, NeighborIndex};

const KINDS: [DistanceKind; 5] = [
    DistanceKind::Euclidean,
    DistanceKind::Manhattan,
    DistanceKind::Chebyshev,
    DistanceKind::Hellinger,
    DistanceKind::JensenShannon,
];

/// All distances, sorted by `(distance, index)`, first `k`.
fn naive_k_nearest(
    points: &[Vec<f64>],
    distance: DistanceKind,
    query: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .filter(|(index, _)| Some(*index) != exclude)
        .map(|(index, point)| (index, distance.eval(query, point)))
        .collect();
    all.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("distances are not NaN")
            .then(a.0.cmp(&b.0))
    });
    all.truncate(k);
    all
}

/// Textbook LOF (Breunig et al. 2000) over the naive neighbourhoods.
struct TextbookLof<'a> {
    points: &'a [Vec<f64>],
    distance: DistanceKind,
    k: usize,
    k_distance: Vec<f64>,
    lrd: Vec<f64>,
}

impl<'a> TextbookLof<'a> {
    fn fit(points: &'a [Vec<f64>], distance: DistanceKind, k: usize) -> Self {
        let mut model = TextbookLof {
            points,
            distance,
            k,
            k_distance: Vec::new(),
            lrd: Vec::new(),
        };
        let neighbourhoods: Vec<_> = (0..points.len())
            .map(|i| model.neighbourhood(&points[i], Some(i)))
            .collect();
        model.k_distance = neighbourhoods
            .iter()
            .map(|n| n.last().expect("k >= 1 and n >= k + 1").1)
            .collect();
        model.lrd = neighbourhoods.iter().map(|n| model.density(n)).collect();
        model
    }

    fn neighbourhood(&self, query: &[f64], exclude: Option<usize>) -> Vec<(usize, f64)> {
        naive_k_nearest(self.points, self.distance, query, self.k, exclude)
    }

    /// lrd(p) = |N(p)| / Σ_{o ∈ N(p)} max(d(p, o), k_distance(o)); ∞ when
    /// every reachability distance is zero.
    fn density(&self, neighbourhood: &[(usize, f64)]) -> f64 {
        let reach: f64 = neighbourhood
            .iter()
            .map(|&(o, d)| d.max(self.k_distance[o]))
            .sum();
        if reach <= 0.0 {
            f64::INFINITY
        } else {
            neighbourhood.len() as f64 / reach
        }
    }

    /// lof(p) = mean_{o ∈ N(p)} lrd(o) / lrd(p), with the crate's
    /// conventions: 1 for an infinitely dense `p`, `MAX_SCORE` per
    /// infinitely dense neighbour otherwise, capped at `MAX_SCORE`.
    fn lof(&self, neighbourhood: &[(usize, f64)], lrd: f64) -> f64 {
        if lrd.is_infinite() {
            return 1.0;
        }
        let ratios: f64 = neighbourhood
            .iter()
            .map(|&(o, _)| {
                if self.lrd[o].is_infinite() {
                    LofModel::MAX_SCORE
                } else {
                    self.lrd[o] / lrd
                }
            })
            .sum();
        (ratios / neighbourhood.len() as f64).min(LofModel::MAX_SCORE)
    }
}

fn check_knn(points: &[Vec<f64>], query: &[f64], k: usize, exclude: Option<usize>) {
    for kind in KINDS {
        let index = NeighborIndex::new(points, kind).unwrap();
        let got: Vec<(usize, u64)> = index
            .k_nearest(query, k, exclude)
            .unwrap()
            .iter()
            .map(|n| (n.index, n.distance.to_bits()))
            .collect();
        let want: Vec<(usize, u64)> = naive_k_nearest(points, kind, query, k, exclude)
            .iter()
            .map(|&(index, d)| (index, d.to_bits()))
            .collect();
        assert_eq!(
            got, want,
            "{kind:?} k={k} exclude={exclude:?} query={query:?}"
        );
    }
}

fn check_lof(points: &[Vec<f64>], k: usize, queries: &[Vec<f64>]) {
    let distinct: HashSet<Vec<u64>> = points
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect();
    for kind in KINDS {
        let config = LofConfig::new(k).unwrap().with_distance(kind);
        let model = LofModel::fit(points.to_vec(), config).unwrap();
        let textbook = TextbookLof::fit(points, kind, k);
        assert_eq!(model.len(), points.len());
        assert_eq!(model.distinct_points(), distinct.len());
        assert!(model.reference_points().zip(points).all(|(a, b)| a
            .iter()
            .map(|v| v.to_bits())
            .eq(b.iter().map(|v| v.to_bits()))));

        let got: Vec<u64> = model
            .reference_scores()
            .unwrap()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let want: Vec<u64> = (0..points.len())
            .map(|i| {
                let neighbourhood = textbook.neighbourhood(&points[i], Some(i));
                textbook.lof(&neighbourhood, textbook.lrd[i]).to_bits()
            })
            .collect();
        assert_eq!(got, want, "{kind:?} k={k} reference scores");

        for query in queries {
            let got = model.score_detailed(query).unwrap();
            let neighbourhood = textbook.neighbourhood(query, None);
            let lrd = textbook.density(&neighbourhood);
            let want = [
                textbook.lof(&neighbourhood, lrd),
                lrd,
                neighbourhood.last().unwrap().1,
            ];
            assert_eq!(
                [got.lof, got.lrd, got.k_distance].map(f64::to_bits),
                want.map(f64::to_bits),
                "{kind:?} k={k} query={query:?}: got {got:?}, want {want:?}"
            );
        }
    }
}

/// Runs both differentials on one generated case. `k` may exceed `n`
/// for the k-NN check; the LOF check folds it into `1..n`. `pick`
/// chooses the excluded point and, half of the time, makes the query a
/// training point (zero distances, infinite densities).
fn check_case(points: &[Vec<f64>], query: Vec<f64>, k: usize, pick: Option<usize>) {
    let n = points.len();
    let exclude = pick.map(|p| p % n);
    let query = match pick {
        Some(p) if p % 2 == 0 => points[p % n].clone(),
        _ => query,
    };
    check_knn(points, &query, k, None);
    check_knn(points, &query, k, exclude);
    if let Some(i) = exclude {
        check_knn(points, &points[i], k, exclude);
    }
    check_lof(points, 1 + (k - 1) % (n - 1), &[query]);
}

const DIMS: usize = 4;

fn rows(
    value: impl Strategy<Value = f64>,
    count: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(value, DIMS), count)
}

/// 2–12 distinct rows, each point drawn from them at random: groups of
/// every size, singletons and groups smaller than `k` included.
fn duplicate_heavy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        rows(-5.0f64..5.0, 2..13),
        prop::collection::vec(0usize..12, 8..60),
    )
        .prop_map(|(pool, picks)| {
            picks
                .iter()
                .map(|&pick| pool[pick % pool.len()].clone())
                .collect()
        })
}

/// Small-integer coordinates, zeros of either sign: many equal distances
/// between different rows, and different rows at distance zero.
fn grid_value() -> impl Strategy<Value = f64> {
    (-2i32..3, any::<bool>()).prop_map(|(v, negative_zero)| {
        if v == 0 && negative_zero {
            -0.0
        } else {
            f64::from(v)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn duplicate_heavy_models_match_the_naive_references(
        points in duplicate_heavy(),
        query in prop::collection::vec(-6.0f64..6.0, DIMS),
        k in 1usize..25,
        pick in prop::option::of(0usize..1000),
    ) {
        check_case(&points, query, k, pick);
    }

    #[test]
    fn tie_heavy_grids_match_the_naive_references(
        points in rows(grid_value(), 6..50),
        query in prop::collection::vec(grid_value(), DIMS),
        k in 1usize..25,
        pick in prop::option::of(0usize..1000),
    ) {
        check_case(&points, query, k, pick);
    }

    #[test]
    fn all_distinct_points_match_the_naive_references(
        points in rows(-100.0f64..100.0, 5..60),
        query in prop::collection::vec(-120.0f64..120.0, DIMS),
        k in 1usize..80,
        pick in prop::option::of(0usize..1000),
    ) {
        check_case(&points, query, k, pick);
    }
}

/// `ReferenceModel`-shaped input: pmfs of integer event counts, 600
/// windows collapsing to a dozen behaviours, `K = 20`.
#[test]
fn paper_shaped_duplicated_model_matches_the_textbook() {
    let behaviours: Vec<Vec<f64>> = (0..12u32)
        .map(|b| {
            let counts: Vec<f64> = (0..14u32)
                .map(|d| f64::from(20 + 3 * d + (b * (d + 1)) % 5))
                .collect();
            let total: f64 = counts.iter().sum();
            counts.iter().map(|c| c / total).collect()
        })
        .collect();
    // Multiplicities from 1 (smaller than k) to several hundred.
    let points: Vec<Vec<f64>> = (0..600usize)
        .map(|i| behaviours[(i * i + i / 7) % 12 % (1 + i % 12)].clone())
        .collect();
    let mut off_model = behaviours[3].clone();
    off_model[0] += 0.01;
    check_lof(&points, 20, &[behaviours[0].clone(), off_model]);
}

/// The tie rule at query time, pinned. From the origin, rows `L` =
/// {0, 3} and `R` = {1, 2, 4} both lie at distance 1, so with `k = 3` the
/// k-th neighbour falls inside their tie: the neighbourhood is points 0,
/// 1, 2 — one copy of `L`, two of `R` — not "`L`'s copies, then `R`'s".
/// `L` and `R` have different k-distances (2 and 0.5) and lrds, so
/// weighting each row's value by a count of its copies gives another
/// reachability sum and another LOF. `Z+` = (0, 5) and `Z-` = (-0, 5) are
/// a signed-zero twin pair: different rows at distance 0 from each other.
#[test]
fn rows_tied_at_the_kth_distance_interleave_their_members() {
    let (l, r, a, b) = (
        vec![-1.0, 0.0],
        vec![1.0, 0.0],
        vec![-1.5, 0.0],
        vec![1.5, 0.0],
    );
    let (z_pos, z_neg) = (vec![0.0, 5.0], vec![-0.0, 5.0]);
    let points = vec![
        l.clone(),
        r.clone(),
        r.clone(),
        l,
        r,
        z_pos.clone(),
        z_neg,
        a,
        b,
        z_pos,
    ];
    let origin = vec![0.0, 0.0];
    check_knn(&points, &origin, 3, None);
    check_lof(&points, 3, &[origin, vec![-0.0, 4.0], vec![0.5, 0.5]]);
}
