//! Distance and divergence measures between feature vectors.
//!
//! The paper uses two different comparisons:
//!
//! * the **Kullback–Leibler divergence** to decide whether the pmf of a new
//!   window is "similar enough" to the running aggregate of past windows
//!   ([`kl_divergence`], [`symmetric_kl`]);
//! * a metric distance in pmf space for the LOF neighbourhood queries
//!   (Euclidean by default, selectable through [`DistanceKind`]).
//!
//! All functions assume both slices have the same length; the public
//! entry points in [`LofModel`](crate::LofModel) validate dimensions before
//! calling them.

use serde::{Deserialize, Serialize};

/// Small probability assigned to empty pmf bins so KL-family divergences
/// stay finite (absolute discounting).
pub const PMF_EPSILON: f64 = 1e-9;

/// Euclidean (L2) distance.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Manhattan (L1) distance.
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Chebyshev (L∞) distance.
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Kullback–Leibler divergence `KL(p ‖ q)` between two probability mass
/// functions.
///
/// Zero bins are smoothed with a small epsilon so the result is always
/// finite; inputs need not be perfectly normalised (they are re-normalised
/// after smoothing). The result is non-negative and zero iff `p == q`
/// (up to smoothing).
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    // Streaming equivalent of smoothing both inputs into temporaries:
    // totals first, per-element normalisation inline. Every floating
    // point operation (and its order) matches the Vec-based [`smooth`],
    // so results are bit-identical — but this function sits on the
    // per-window drift-gate path, where it must not allocate.
    let p_total: f64 = p.iter().map(|x| x.max(0.0) + PMF_EPSILON).sum();
    let q_total: f64 = q.iter().map(|x| x.max(0.0) + PMF_EPSILON).sum();
    p.iter()
        .zip(q)
        .map(|(x, y)| {
            let pi = (x.max(0.0) + PMF_EPSILON) / p_total;
            let qi = (y.max(0.0) + PMF_EPSILON) / q_total;
            if pi > 0.0 {
                pi * (pi / qi).ln()
            } else {
                0.0
            }
        })
        .sum::<f64>()
        .max(0.0)
}

/// Symmetrised Kullback–Leibler divergence
/// `(KL(p ‖ q) + KL(q ‖ p)) / 2`.
///
/// The paper calls its similarity measure the "Kullback-Leibler distance";
/// using the symmetrised form makes the drift gate insensitive to the
/// argument order.
///
/// One pass over both pmfs: each total and each smoothed bin is computed
/// once and feeds both directions, whose terms are summed in two
/// accumulators in [`kl_divergence`]'s order, so the result is
/// bit-identical to calling it twice. The drift gate calls this once per
/// monitored window.
pub fn symmetric_kl(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let p_total: f64 = p.iter().map(|x| x.max(0.0) + PMF_EPSILON).sum();
    let q_total: f64 = q.iter().map(|x| x.max(0.0) + PMF_EPSILON).sum();
    // `-0.0` is the empty `f64` sum `kl_divergence` starts from.
    let (mut pq, mut qp) = (-0.0f64, -0.0f64);
    for (x, y) in p.iter().zip(q) {
        let pi = (x.max(0.0) + PMF_EPSILON) / p_total;
        let qi = (y.max(0.0) + PMF_EPSILON) / q_total;
        pq += if pi > 0.0 { pi * (pi / qi).ln() } else { 0.0 };
        qp += if qi > 0.0 { qi * (qi / pi).ln() } else { 0.0 };
    }
    (pq.max(0.0) + qp.max(0.0)) / 2.0
}

/// Jensen–Shannon divergence, a bounded (by `ln 2`) smoothed alternative to
/// KL.
pub fn jensen_shannon(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let ps = smooth(p);
    let qs = smooth(q);
    let m: Vec<f64> = ps.iter().zip(&qs).map(|(a, b)| (a + b) / 2.0).collect();
    (kl_divergence(&ps, &m) + kl_divergence(&qs, &m)) / 2.0
}

/// Hellinger distance between two pmfs, bounded in `[0, 1]`.
pub fn hellinger(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let ps = smooth(p);
    let qs = smooth(q);
    let sum: f64 = ps
        .iter()
        .zip(&qs)
        .map(|(a, b)| (a.sqrt() - b.sqrt()).powi(2))
        .sum();
    (sum / 2.0).sqrt()
}

fn smooth(p: &[f64]) -> Vec<f64> {
    let smoothed: Vec<f64> = p.iter().map(|x| x.max(0.0) + PMF_EPSILON).collect();
    let total: f64 = smoothed.iter().sum();
    smoothed.into_iter().map(|x| x / total).collect()
}

/// The metric used for LOF neighbourhood queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DistanceKind {
    /// Euclidean (L2) distance — the default, and what the original LOF
    /// paper uses.
    #[default]
    Euclidean,
    /// Manhattan (L1) distance.
    Manhattan,
    /// Chebyshev (L∞) distance.
    Chebyshev,
    /// Hellinger distance (a proper metric on pmfs).
    Hellinger,
    /// Square root of the Jensen–Shannon divergence (a metric on pmfs).
    JensenShannon,
}

impl DistanceKind {
    /// Evaluates the distance between two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slices have different lengths.
    pub fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceKind::Euclidean => euclidean(a, b),
            DistanceKind::Manhattan => manhattan(a, b),
            DistanceKind::Chebyshev => chebyshev(a, b),
            DistanceKind::Hellinger => hellinger(a, b),
            DistanceKind::JensenShannon => jensen_shannon(a, b).max(0.0).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn euclidean_matches_hand_computation() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < TOL);
        assert!((euclidean(&[1.0], &[1.0])).abs() < TOL);
    }

    #[test]
    fn manhattan_and_chebyshev_match_hand_computation() {
        assert!((manhattan(&[0.0, 0.0], &[3.0, -4.0]) - 7.0).abs() < TOL);
        assert!((chebyshev(&[0.0, 0.0], &[3.0, -4.0]) - 4.0).abs() < TOL);
    }

    #[test]
    fn kl_is_zero_for_identical_distributions() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p) < 1e-6);
        assert!(symmetric_kl(&p, &p) < 1e-6);
        assert!(jensen_shannon(&p, &p) < 1e-6);
        assert!(hellinger(&p, &p) < 1e-6);
    }

    #[test]
    fn kl_is_positive_for_different_distributions() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        assert!(kl_divergence(&p, &q) > 0.5);
        assert!(symmetric_kl(&p, &q) > 0.5);
    }

    #[test]
    fn kl_handles_zero_bins_without_infinity() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite());
        assert!(d > 1.0);
    }

    #[test]
    fn kl_is_asymmetric_but_symmetric_kl_is_not() {
        let p = [0.8, 0.15, 0.05];
        let q = [0.4, 0.3, 0.3];
        assert!((kl_divergence(&p, &q) - kl_divergence(&q, &p)).abs() > 1e-6);
        assert!((symmetric_kl(&p, &q) - symmetric_kl(&q, &p)).abs() < TOL);
    }

    #[test]
    fn jensen_shannon_is_bounded_by_ln2() {
        let p = [1.0, 0.0, 0.0];
        let q = [0.0, 0.0, 1.0];
        let d = jensen_shannon(&p, &q);
        assert!(d <= std::f64::consts::LN_2 + 1e-6);
        assert!(d > 0.5);
    }

    #[test]
    fn hellinger_is_bounded_by_one() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        let d = hellinger(&p, &q);
        assert!(d <= 1.0 + TOL);
        assert!(d > 0.9);
    }

    #[test]
    fn unnormalised_inputs_are_handled() {
        // Raw counts rather than probabilities.
        let p = [90.0, 10.0];
        let q = [9.0, 1.0];
        // Same underlying distribution -> divergence ~ 0.
        assert!(symmetric_kl(&p, &q) < 1e-6);
    }

    /// A pmf bin of kind `kind % 7` — zero, negative zero, negative,
    /// tiny (`1e-300`, `f64::MIN_POSITIVE`), a probability or an
    /// unnormalised count — from a uniform `u` in `[0, 1)`.
    fn bin(kind: u64, u: f64) -> f64 {
        match kind % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => -1e3 * u,
            3 => 1e-300,
            4 => f64::MIN_POSITIVE,
            5 => u,
            _ => 1e6 * u,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn symmetric_kl_is_bit_identical_to_both_directions(
            bins in prop::collection::vec((0u64..7, 0.0f64..1.0, 0u64..7, 0.0f64..1.0), 1..33)
        ) {
            let p: Vec<f64> = bins.iter().map(|&(kind, u, _, _)| bin(kind, u)).collect();
            let q: Vec<f64> = bins.iter().map(|&(_, _, kind, u)| bin(kind, u)).collect();
            let spec = (kl_divergence(&p, &q) + kl_divergence(&q, &p)) / 2.0;
            prop_assert_eq!(symmetric_kl(&p, &q).to_bits(), spec.to_bits(), "{:?} {:?}", p, q);
        }
    }

    #[test]
    fn distance_selector_dispatches_to_all_kinds() {
        let a = [0.5, 0.5];
        let b = [0.9, 0.1];
        for kind in [
            DistanceKind::Euclidean,
            DistanceKind::Manhattan,
            DistanceKind::Chebyshev,
            DistanceKind::Hellinger,
            DistanceKind::JensenShannon,
        ] {
            let value = kind.eval(&a, &b);
            assert!(value > 0.0, "{kind:?} should separate distinct points");
            assert!(kind.eval(&a, &a) < 1e-6);
        }
        assert_eq!(DistanceKind::default(), DistanceKind::Euclidean);
    }
}
