//! The Local Outlier Factor algorithm (Breunig, Kriegel, Ng, Sander,
//! SIGMOD 2000), as used by the paper's monitoring step.
//!
//! The model is fitted once on a reference ("correct behaviour") point set;
//! afterwards [`LofModel::score`] places a query point in that space and
//! compares the local density around the query with the local density
//! around its `k` nearest reference neighbours:
//!
//! * `LOF ≈ 1`  — the query sits inside a cluster of regular points;
//! * `LOF ≫ 1` — the query is in a sparser region than its neighbours,
//!   i.e. it is likely an outlier. The paper flags a window when
//!   `LOF ≥ α` with `α > 1` chosen by the user (1.2 in the experiments).
//!
//! The model is the [`NeighborIndex`]'s distinct rows and member lists,
//! with one k-distance and one lrd per row: every copy of a row has the
//! same ones (excluding a copy reorders only its distance-0 neighbours,
//! which are its row's other copies and `±0.0` twin rows). A query still
//! takes its neighbours point by point, so cut and sums are the textbook's.

use serde::{Deserialize, Serialize};

use crate::knn::{Neighbor, NeighborIndex};
use crate::{AnomalyError, DistanceKind};

/// Configuration of a [`LofModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LofConfig {
    /// Neighbourhood size (`MinPts` in the original paper, `K = 20` in the
    /// DATE 2015 experiments).
    pub k: usize,
    /// Distance used for neighbourhood queries.
    pub distance: DistanceKind,
}

impl LofConfig {
    /// Creates a configuration with the given neighbourhood size and
    /// the default (Euclidean) distance.
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::InvalidConfig`] if `k` is zero.
    pub fn new(k: usize) -> Result<Self, AnomalyError> {
        if k == 0 {
            return Err(AnomalyError::InvalidConfig(
                "neighbourhood size k must be at least 1".into(),
            ));
        }
        Ok(LofConfig {
            k,
            distance: DistanceKind::Euclidean,
        })
    }

    /// Selects the distance used for neighbourhood queries.
    pub fn with_distance(mut self, distance: DistanceKind) -> Self {
        self.distance = distance;
        self
    }
}

/// The LOF score of a single query point, with the intermediate quantities
/// exposed for diagnostics (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LofScore {
    /// The local outlier factor itself.
    pub lof: f64,
    /// Local reachability density of the query point.
    pub lrd: f64,
    /// Distance to the k-th nearest reference neighbour.
    pub k_distance: f64,
}

impl LofScore {
    /// Whether the score is at or above an anomaly threshold `alpha`.
    pub fn is_anomalous(&self, alpha: f64) -> bool {
        self.lof >= alpha
    }
}

/// A fitted Local Outlier Factor model.
///
/// Fitting pre-computes, for every distinct reference row, its
/// `k`-distance and local reachability density (lrd); scoring a query
/// then needs only one k-nearest-neighbour search plus `O(k)` arithmetic.
///
/// The reference points live once, inside the index, collapsed to their
/// distinct rows; two models are equal when they were fitted from the
/// same points under the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LofModel {
    index: NeighborIndex,
    config: LofConfig,
    /// k-distance of each distinct row.
    k_distances: Vec<f64>,
    /// Local reachability density of each distinct row.
    lrds: Vec<f64>,
}

impl LofModel {
    /// Fits a LOF model on the reference points.
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::InvalidTrainingSet`] if fewer than `k + 1`
    /// points are supplied (every point needs `k` neighbours other than
    /// itself), plus the usual dimension/finite-value validation errors.
    pub fn fit(points: Vec<Vec<f64>>, config: LofConfig) -> Result<Self, AnomalyError> {
        if config.k == 0 {
            return Err(AnomalyError::InvalidConfig(
                "neighbourhood size k must be at least 1".into(),
            ));
        }
        if points.len() < config.k + 1 {
            return Err(AnomalyError::InvalidTrainingSet(format!(
                "need at least k + 1 = {} reference points, got {}",
                config.k + 1,
                points.len()
            )));
        }
        let index = NeighborIndex::new(&points, config.distance)?;

        // Pass 1: neighbourhoods and k-distances of every row, each
        // queried as its first member.
        let neighborhoods = index
            .rows()
            .map(|(coords, members)| index.k_nearest(coords, config.k, Some(members[0])))
            .collect::<Result<Vec<_>, _>>()?;
        let k_distances: Vec<f64> = neighborhoods
            .iter()
            .map(|neighbors| neighbors.last().map_or(0.0, |nb| nb.distance))
            .collect();

        // Pass 2: local reachability densities.
        let lrds = neighborhoods
            .iter()
            .map(|neighbors| Self::lrd_from(neighbors, &k_distances))
            .collect();

        Ok(LofModel {
            index,
            config,
            k_distances,
            lrds,
        })
    }

    fn lrd_from(neighbors: &[Neighbor], k_distances: &[f64]) -> f64 {
        let sum_reach: f64 = neighbors
            .iter()
            .map(|nb| nb.distance.max(k_distances[nb.row]))
            .sum();
        if sum_reach <= 0.0 {
            // All neighbours coincide with the point: maximal density.
            f64::INFINITY
        } else {
            neighbors.len() as f64 / sum_reach
        }
    }

    /// Upper bound on reported LOF scores. Reference sets built from very
    /// regular traces contain many bit-identical points whose local
    /// reachability density is infinite; without a cap, a query next to
    /// such a clump would receive an astronomically large (and
    /// uninformative) score. Any score at the cap is unambiguous anyway:
    /// every practical threshold `α` is orders of magnitude below it.
    pub const MAX_SCORE: f64 = 1e9;

    fn lof_from(&self, neighbors: &[Neighbor], lrd_query: f64) -> f64 {
        if neighbors.is_empty() || lrd_query.is_infinite() {
            // The query coincides with a dense clump of reference points:
            // by convention it is maximally "inlier".
            return 1.0;
        }
        let sum_ratio: f64 = neighbors
            .iter()
            .map(|nb| {
                let lrd_nb = self.lrds[nb.row];
                if lrd_nb.is_infinite() {
                    // Neighbour infinitely dense, query not: strong outlier
                    // signal; contribute the cap to keep scores finite.
                    Self::MAX_SCORE
                } else {
                    lrd_nb / lrd_query
                }
            })
            .sum();
        (sum_ratio / neighbors.len() as f64).min(Self::MAX_SCORE)
    }

    /// Number of reference points in the model.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the model holds no reference points (never true for a
    /// successfully fitted model).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of distinct reference points: how many different behaviours
    /// the reference run showed. A periodic multimedia trace repeats the
    /// same pmf bit-for-bit, so this is typically orders of magnitude
    /// below [`len`](Self::len) — and the first thing to look at when a
    /// model is suspiciously permissive.
    pub fn distinct_points(&self) -> usize {
        self.index.distinct_len()
    }

    /// Number of reference points whose local reachability density is
    /// infinite: at least `k` other reference points coincide with them.
    /// A query beside such a point scores [`Self::MAX_SCORE`], so a
    /// reference set made mostly of them flags almost everything off it.
    pub fn infinite_lrd_points(&self) -> usize {
        self.lrds
            .iter()
            .zip(self.index.rows())
            .filter(|(lrd, _)| lrd.is_infinite())
            .map(|(_, (_, members))| members.len())
            .sum()
    }

    /// Dimensionality of the reference points.
    pub fn dimensions(&self) -> usize {
        self.index.dimensions()
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> LofConfig {
        self.config
    }

    /// The reference points the model was fitted on, in the order (and
    /// with the bits) they were supplied.
    pub fn reference_points(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.index.points()
    }

    /// Scores a query point against the reference model.
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::DimensionMismatch`] or
    /// [`AnomalyError::NonFiniteValue`] for malformed queries.
    pub fn score(&self, query: &[f64]) -> Result<f64, AnomalyError> {
        Ok(self.score_detailed(query)?.lof)
    }

    /// Scores a query point, returning the intermediate quantities as well.
    ///
    /// # Errors
    ///
    /// Same as [`LofModel::score`].
    pub fn score_detailed(&self, query: &[f64]) -> Result<LofScore, AnomalyError> {
        let neighbors = self.index.k_nearest(query, self.config.k, None)?;
        let k_distance = neighbors.last().map(|nb| nb.distance).unwrap_or(0.0);
        let lrd_query = Self::lrd_from(&neighbors, &self.k_distances);
        let lof = self.lof_from(&neighbors, lrd_query);
        Ok(LofScore {
            lof,
            lrd: lrd_query,
            k_distance,
        })
    }

    /// LOF scores of the reference points themselves (useful to inspect how
    /// "clean" the reference run was and to pick a threshold `α`).
    ///
    /// # Errors
    ///
    /// Propagates index query errors (which cannot occur for points that
    /// were accepted at fit time).
    pub fn reference_scores(&self) -> Result<Vec<f64>, AnomalyError> {
        let mut scores = vec![0.0; self.len()];
        for ((coords, members), &lrd) in self.index.rows().zip(&self.lrds) {
            let neighbors = self
                .index
                .k_nearest(coords, self.config.k, Some(members[0]))?;
            let score = self.lof_from(&neighbors, lrd);
            for &member in members {
                scores[member] = score;
            }
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn cluster(center: (f64, f64), n: usize, spread: f64, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    center.0 + rng.gen_range(-spread..spread),
                    center.1 + rng.gen_range(-spread..spread),
                ]
            })
            .collect()
    }

    #[test]
    fn config_rejects_zero_k() {
        assert!(LofConfig::new(0).is_err());
        assert_eq!(LofConfig::new(20).unwrap().k, 20);
    }

    #[test]
    fn fit_requires_k_plus_one_points() {
        let points = vec![vec![0.0, 0.0]; 5];
        assert!(LofModel::fit(points.clone(), LofConfig::new(5).unwrap()).is_err());
        assert!(LofModel::fit(points, LofConfig::new(4).unwrap()).is_ok());
    }

    #[test]
    fn inliers_score_close_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let points = cluster((0.0, 0.0), 200, 1.0, &mut rng);
        let model = LofModel::fit(points, LofConfig::new(20).unwrap()).unwrap();
        for _ in 0..20 {
            let q = vec![rng.gen_range(-0.8..0.8), rng.gen_range(-0.8..0.8)];
            let score = model.score(&q).unwrap();
            assert!(score < 1.6, "inlier scored {score}");
        }
    }

    #[test]
    fn far_outliers_score_much_above_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let points = cluster((0.0, 0.0), 200, 1.0, &mut rng);
        let model = LofModel::fit(points, LofConfig::new(20).unwrap()).unwrap();
        let score = model.score(&[30.0, 30.0]).unwrap();
        assert!(score > 3.0, "outlier scored only {score}");
    }

    #[test]
    fn outlier_scores_exceed_inlier_scores_with_two_clusters() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut points = cluster((0.0, 0.0), 150, 0.5, &mut rng);
        points.extend(cluster((10.0, 10.0), 150, 0.5, &mut rng));
        let model = LofModel::fit(points, LofConfig::new(15).unwrap()).unwrap();
        let inlier_a = model.score(&[0.1, -0.2]).unwrap();
        let inlier_b = model.score(&[10.2, 9.9]).unwrap();
        let between = model.score(&[5.0, 5.0]).unwrap();
        assert!(inlier_a < 1.5);
        assert!(inlier_b < 1.5);
        assert!(between > inlier_a.max(inlier_b));
    }

    #[test]
    fn duplicate_reference_points_do_not_break_scoring() {
        let points = vec![vec![1.0, 1.0]; 30];
        let model = LofModel::fit(points, LofConfig::new(5).unwrap()).unwrap();
        // Query equal to the clump: inlier by convention.
        assert_eq!(model.score(&[1.0, 1.0]).unwrap(), 1.0);
        // Query away from the clump: clearly anomalous, finite, and bounded
        // by the score cap.
        let away = model.score(&[2.0, 2.0]).unwrap();
        assert!(away.is_finite());
        assert!(away > 1.0);
        assert!(away <= LofModel::MAX_SCORE);
    }

    #[test]
    fn the_model_holds_one_k_distance_and_one_lrd_per_distinct_row() {
        // Rows a = {0, 2, 4, 6, ...}, b = {1, 5, 9, ...}, c = {3, 7, 11, ...}.
        let (a, b, c) = (vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 3.0]);
        let points: Vec<Vec<f64>> = (0..24)
            .map(|i| match i % 4 {
                0 | 2 => a.clone(),
                1 => b.clone(),
                _ => c.clone(),
            })
            .collect();
        let model = LofModel::fit(points, LofConfig::new(7).unwrap()).unwrap();
        assert_eq!((model.len(), model.distinct_points()), (24, 3));
        assert_eq!(model.k_distances.len(), model.distinct_points());
        assert_eq!(model.lrds.len(), model.distinct_points());
        // Row a has 11 other copies, so its lrd is infinite; b and c have 5.
        assert_eq!(model.infinite_lrd_points(), 12);
        let scores = model.reference_scores().unwrap();
        assert_eq!(scores.len(), 24);
        assert!((0..24).all(|i| scores[i].to_bits() == scores[i % 4].to_bits()));
    }

    #[test]
    fn hellinger_distance_backend_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        // pmf-like points on the 2-simplex.
        let points: Vec<Vec<f64>> = (0..100)
            .map(|_| {
                let a: f64 = rng.gen_range(0.3..0.4);
                let b: f64 = rng.gen_range(0.3..0.4);
                vec![a, b, 1.0 - a - b]
            })
            .collect();
        let config = LofConfig::new(10)
            .unwrap()
            .with_distance(DistanceKind::Hellinger);
        let model = LofModel::fit(points, config).unwrap();
        let inlier = model.score(&[0.35, 0.35, 0.30]).unwrap();
        let outlier = model.score(&[0.98, 0.01, 0.01]).unwrap();
        assert!(outlier > inlier);
    }

    #[test]
    fn score_detailed_exposes_consistent_intermediates() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let points = cluster((0.0, 0.0), 60, 1.0, &mut rng);
        let model = LofModel::fit(points, LofConfig::new(8).unwrap()).unwrap();
        let detail = model.score_detailed(&[0.3, 0.3]).unwrap();
        assert!(detail.lof > 0.0);
        assert!(detail.lrd > 0.0);
        assert!(detail.k_distance > 0.0);
        assert!(detail.is_anomalous(0.5));
        assert!(!detail.is_anomalous(10.0));
        assert_eq!(model.dimensions(), 2);
        assert_eq!(model.len(), 60);
        assert!(!model.is_empty());
        assert_eq!(model.config().k, 8);
        assert_eq!(model.reference_points().len(), 60);
        assert_eq!(model.distinct_points(), 60);
    }

    #[test]
    fn reference_scores_are_mostly_near_one_for_clean_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let points = cluster((0.0, 0.0), 150, 1.0, &mut rng);
        let model = LofModel::fit(points, LofConfig::new(15).unwrap()).unwrap();
        let scores = model.reference_scores().unwrap();
        assert_eq!(scores.len(), 150);
        let near_one = scores.iter().filter(|s| **s < 1.5).count();
        assert!(near_one as f64 / scores.len() as f64 > 0.9);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let points = vec![vec![0.0, 0.0]; 10];
        let model = LofModel::fit(points, LofConfig::new(3).unwrap()).unwrap();
        assert!(matches!(
            model.score(&[0.0]),
            Err(AnomalyError::DimensionMismatch { .. })
        ));
        assert!(model.score(&[f64::NAN, 0.0]).is_err());
    }
}
