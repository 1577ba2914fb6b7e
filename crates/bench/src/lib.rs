//! Workload shapes shared by the criterion benches and `bench_smoke`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lof_anomaly::l1_normalize;

/// `n` pmf-like reference points over `dims` event types holding only
/// `distinct` different rows — the shape a periodic multimedia pipeline
/// really produces: pmfs of *integer* event counts in 40 ms windows
/// repeat bit-for-bit (`paper_steady` learns 3 000 × 14 points, 12 of
/// them distinct). Behaviour `b` is the base mix `10 + d` with
/// `1 + b / dims` extra events of type `b % dims`; point `i` shows
/// behaviour `i % distinct`.
///
/// # Panics
///
/// Panics if `distinct` or `dims` is zero.
pub fn duplicated_reference_points(n: usize, dims: usize, distinct: usize) -> Vec<Vec<f64>> {
    let behaviours: Vec<Vec<f64>> = (0..distinct)
        .map(|b| {
            let mut counts: Vec<f64> = (0..dims).map(|d| (10 + d) as f64).collect();
            counts[b % dims] += (1 + b / dims) as f64;
            l1_normalize(&counts)
        })
        .collect();
    (0..n).map(|i| behaviours[i % distinct].clone()).collect()
}

/// `count` queries against [`duplicated_reference_points`]: alternately
/// one of the behaviours itself (a regular window that failed the drift
/// gate) and a mix no behaviour shows (an anomalous window).
pub fn duplicated_queries(count: usize, dims: usize, distinct: usize) -> Vec<Vec<f64>> {
    let behaviours = duplicated_reference_points(distinct, dims, distinct);
    (0..count)
        .map(|q| {
            if q % 2 == 0 {
                return behaviours[q / 2 % distinct].clone();
            }
            let counts: Vec<f64> = (0..dims).map(|d| ((q * (d + 3)) % 40) as f64).collect();
            l1_normalize(&counts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lof_anomaly::{LofConfig, LofModel};

    #[test]
    fn duplicated_points_collapse_to_the_requested_rows() {
        let points = duplicated_reference_points(3_000, 14, 12);
        let model = LofModel::fit(points, LofConfig::new(20).unwrap()).unwrap();
        assert_eq!((model.len(), model.distinct_points()), (3_000, 12));
        let queries = duplicated_queries(64, 14, 12);
        assert_eq!(model.score(&queries[0]).unwrap(), 1.0);
        assert!(model.score(&queries[1]).unwrap() > 1.2);
    }
}
