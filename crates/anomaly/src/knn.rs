//! The nearest-neighbour index under the LOF computation.
//!
//! There is one index and one path. Reference models learned from
//! periodic multimedia traces repeat the same pmf bit-for-bit — a
//! 3 000-window reference typically holds about a dozen distinct points —
//! so [`NeighborIndex`] is its distinct rows: each bit pattern once in a
//! flat row-major buffer, with the ascending list of the training points
//! equal to it, and nothing else per point. A query evaluates the
//! distance once per row and expands rows into points through the member
//! lists. The result is exact for every [`DistanceKind`]: a query returns
//! the first `k` points in `(distance, index)` order, the normative one.
//!
//! With all-distinct points the search degrades to a linear scan over
//! contiguous memory; in the dimensionalities this workspace produces
//! (one per event type, 9–14) that scan beats a KD-tree, which is why
//! there is none (see `docs/PERFORMANCE.md` §1).

use std::collections::HashMap;

use crate::error::check_finite;
use crate::{AnomalyError, DistanceKind};

/// One neighbour returned by a k-nearest-neighbour query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbour in the training set the index was built from.
    pub index: usize,
    /// The distinct row the neighbour is a member of.
    pub row: usize,
    /// Distance from the query point to this neighbour.
    pub distance: f64,
}

/// An exact k-nearest-neighbour index over a fixed set of points,
/// collapsed to its distinct rows.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborIndex {
    dimensions: usize,
    distance: DistanceKind,
    /// Distinct rows, row-major: row `r` is
    /// `rows[r * dimensions..(r + 1) * dimensions]`.
    rows: Vec<f64>,
    /// Ascending training-set indices of the points equal to each row.
    members: Vec<Vec<usize>>,
    /// Number of indexed points.
    len: usize,
}

/// Whether the `(distance, first member, row)` of one row sorts before
/// that of another: the order of the rows' first points in the result.
fn closer(a: (f64, usize, usize), b: (f64, usize, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl NeighborIndex {
    /// Builds an index over `points`, grouping points whose components
    /// are bit-identical (`f64::to_bits`, so `0.0` and `-0.0` stay apart).
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::InvalidTrainingSet`] if `points` is empty or
    /// zero-dimensional, [`AnomalyError::DimensionMismatch`] if the points
    /// do not all share one dimensionality, and
    /// [`AnomalyError::NonFiniteValue`] if any component is NaN/infinite.
    pub fn new(points: &[Vec<f64>], distance: DistanceKind) -> Result<Self, AnomalyError> {
        let first = points
            .first()
            .ok_or_else(|| AnomalyError::InvalidTrainingSet("no points supplied".into()))?;
        let dimensions = first.len();
        if dimensions == 0 {
            return Err(AnomalyError::InvalidTrainingSet(
                "points have zero dimensions".into(),
            ));
        }
        let mut index = NeighborIndex {
            dimensions,
            distance,
            rows: Vec::new(),
            members: Vec::new(),
            len: points.len(),
        };
        let mut row_ids: HashMap<Box<[u64]>, usize> = HashMap::new();
        let mut bits = Vec::with_capacity(dimensions);
        for (i, point) in points.iter().enumerate() {
            index.validate(point)?;
            bits.clear();
            bits.extend(point.iter().map(|value| value.to_bits()));
            let row = match row_ids.get(bits.as_slice()) {
                Some(&row) => row,
                None => {
                    let row = index.members.len();
                    row_ids.insert(bits.as_slice().into(), row);
                    index.rows.extend_from_slice(point);
                    index.members.push(Vec::new());
                    row
                }
            };
            index.members[row].push(i);
        }
        Ok(index)
    }

    fn validate(&self, point: &[f64]) -> Result<(), AnomalyError> {
        if point.len() != self.dimensions {
            return Err(AnomalyError::DimensionMismatch {
                expected: self.dimensions,
                found: point.len(),
            });
        }
        check_finite(point)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index contains no points (never true once built).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct rows the points collapsed to.
    pub fn distinct_len(&self) -> usize {
        self.members.len()
    }

    /// Dimensionality of the indexed points.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// The distinct rows in first-seen order, each with the ascending
    /// training-set indices of its members.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = (&[f64], &[usize])> + '_ {
        self.rows
            .chunks_exact(self.dimensions)
            .zip(self.members.iter().map(Vec::as_slice))
    }

    /// The training points in insertion order, bit-for-bit as they were
    /// supplied.
    pub fn points(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        let mut points = vec![&[][..]; self.len()];
        for (coords, members) in self.rows() {
            for &member in members {
                points[member] = coords;
            }
        }
        points.into_iter()
    }

    /// Returns the `k` nearest indexed points to `query`: exactly the
    /// first `k` points in `(distance, index)` order.
    ///
    /// If `exclude` is `Some(i)`, the indexed point `i` is skipped (that
    /// one point, not the other points equal to it) — this is how LOF
    /// queries the neighbourhood of a training point without the point
    /// finding itself.
    ///
    /// Fewer than `k` neighbours are returned only if the index (minus the
    /// excluded point) holds fewer than `k` points.
    ///
    /// # Errors
    ///
    /// Returns [`AnomalyError::DimensionMismatch`] if `query` has the wrong
    /// dimensionality and [`AnomalyError::NonFiniteValue`] if it contains
    /// NaN or infinities.
    pub fn k_nearest(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Result<Vec<Neighbor>, AnomalyError> {
        self.validate(query)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let available = |row: usize| {
            self.members[row]
                .iter()
                .copied()
                .filter(move |&member| Some(member) != exclude)
        };

        // The best `k` rows, each as (distance, first available member,
        // row). Every row sorting before the row of a result point owns a
        // point that sorts before that point, so the first `k` points lie
        // in these.
        let mut best: Vec<(f64, usize, usize)> = Vec::with_capacity(k.min(self.distinct_len()) + 1);
        for (row, coords) in self.rows.chunks_exact(self.dimensions).enumerate() {
            let Some(first) = available(row).next() else {
                continue;
            };
            let key = (self.distance.eval(query, coords), first, row);
            if best.len() == k && !closer(key, best[k - 1]) {
                continue;
            }
            let at = best.partition_point(|&kept| closer(kept, key));
            best.insert(at, key);
            best.truncate(k);
        }

        // Expand rows into points through their member lists, closest
        // first; rows at one distance interleave by point index.
        let mut neighbors = Vec::with_capacity(k.min(self.len()));
        let mut rest = best.as_slice();
        while let Some(&(distance, _, _)) = rest.first() {
            if neighbors.len() == k {
                break;
            }
            let tied = 1 + rest[1..].iter().take_while(|b| b.0 == distance).count();
            let start = neighbors.len();
            for &(distance, _, row) in &rest[..tied] {
                neighbors.extend(available(row).take(k - start).map(|index| Neighbor {
                    index,
                    row,
                    distance,
                }));
            }
            if tied > 1 {
                neighbors[start..].sort_unstable_by_key(|neighbor| neighbor.index);
                neighbors.truncate(k);
            }
            rest = &rest[tied..];
        }
        Ok(neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(points: &[Vec<f64>]) -> NeighborIndex {
        NeighborIndex::new(points, DistanceKind::default()).unwrap()
    }

    fn indices(neighbors: &[Neighbor]) -> Vec<usize> {
        neighbors.iter().map(|n| n.index).collect()
    }

    #[test]
    fn unusable_training_sets_are_rejected() {
        let distance = DistanceKind::default();
        assert!(matches!(
            NeighborIndex::new(&[], distance),
            Err(AnomalyError::InvalidTrainingSet(_))
        ));
        assert!(matches!(
            NeighborIndex::new(&[vec![]], distance),
            Err(AnomalyError::InvalidTrainingSet(_))
        ));
        assert_eq!(
            NeighborIndex::new(&[vec![1.0, 2.0], vec![1.0]], distance),
            Err(AnomalyError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            NeighborIndex::new(&[vec![0.0], vec![f64::NAN]], distance),
            Err(AnomalyError::NonFiniteValue { index: 0 })
        );
    }

    #[test]
    fn malformed_queries_are_rejected() {
        let index = index_of(&[vec![0.0, 0.0]]);
        assert!(index.k_nearest(&[0.0], 1, None).is_err());
        assert!(index.k_nearest(&[0.0, f64::NAN], 1, None).is_err());
    }

    #[test]
    fn finds_the_true_nearest_neighbours_closest_first() {
        let points = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![10.0, 10.0],
        ];
        let index = index_of(&points);
        let neighbors = index.k_nearest(&[0.1, 0.2], 3, None).unwrap();
        assert_eq!(indices(&neighbors), vec![0, 2, 1]);
        assert!(neighbors[0].distance < neighbors[1].distance);
        assert!(index.k_nearest(&[0.1, 0.2], 0, None).unwrap().is_empty());
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let index = index_of(&[vec![0.0], vec![1.0], vec![2.0]]);
        assert_eq!(index.k_nearest(&[0.0], 10, None).unwrap().len(), 3);
        assert_eq!(
            indices(&index.k_nearest(&[0.0], 10, Some(0)).unwrap()),
            vec![1, 2]
        );
    }

    #[test]
    fn duplicates_collapse_to_rows_but_are_returned_as_points() {
        // Rows: a = {0, 2, 5}, b = {1, 3}, c = {4}.
        let (a, b, c) = (vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]);
        let points = vec![a.clone(), b.clone(), a.clone(), b, c, a];
        let index = index_of(&points);
        assert_eq!((index.len(), index.distinct_len()), (6, 3));
        assert_eq!(index.dimensions(), 2);
        assert!(!index.is_empty());
        assert!(index.points().eq(points.iter().map(Vec::as_slice)));

        let neighbors = index.k_nearest(&[0.1, 0.0], 4, None).unwrap();
        assert_eq!(indices(&neighbors), vec![0, 2, 5, 1]);
        let rows: Vec<usize> = neighbors.iter().map(|n| n.row).collect();
        assert_eq!(rows, vec![0, 0, 0, 1]);
        // Excluding one member keeps the rest of its row.
        let neighbors = index.k_nearest(&points[2], 3, Some(2)).unwrap();
        assert_eq!(indices(&neighbors), vec![0, 5, 1]);
        // Excluding the only member of a row removes the row.
        let neighbors = index.k_nearest(&points[4], 6, Some(4)).unwrap();
        assert_eq!(neighbors.len(), 5);
        assert!(neighbors.iter().all(|n| n.index != 4 && n.distance > 0.0));
    }

    #[test]
    fn rows_at_one_distance_interleave_by_point_index() {
        // Left row = {0, 3}, right row = {1, 2, 4}: both 1.0 from the query.
        let (left, right) = (vec![-1.0], vec![1.0]);
        let points = vec![left.clone(), right.clone(), right.clone(), left, right];
        let index = index_of(&points);
        for k in 1..=5 {
            let neighbors = index.k_nearest(&[0.0], k, None).unwrap();
            assert_eq!(indices(&neighbors), (0..k).collect::<Vec<_>>());
        }
        assert_eq!(
            indices(&index.k_nearest(&[0.0], 3, Some(0)).unwrap()),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn signed_zeros_are_distinct_rows_at_distance_zero() {
        let index = index_of(&[vec![0.0], vec![-0.0], vec![0.0]]);
        assert_eq!(index.distinct_len(), 2);
        let neighbors = index.k_nearest(&[0.0], 2, None).unwrap();
        assert_eq!(indices(&neighbors), vec![0, 1]);
        assert_eq!(neighbors[1].row, 1);
        let points: Vec<&[f64]> = index.points().collect();
        assert_eq!(points[1][0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn works_with_pmf_distances() {
        let points = vec![vec![0.9, 0.1], vec![0.5, 0.5], vec![0.1, 0.9]];
        let index = NeighborIndex::new(&points, DistanceKind::Hellinger).unwrap();
        let neighbors = index.k_nearest(&[0.85, 0.15], 1, None).unwrap();
        assert_eq!(neighbors[0].index, 0);
    }
}
