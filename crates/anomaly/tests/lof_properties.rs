//! Property-based tests for the anomaly-detection substrate.

use proptest::prelude::*;

use lof_anomaly::{
    euclidean, hellinger, jensen_shannon, kl_divergence, l1_normalize, manhattan, smooth_pmf,
    symmetric_kl, LofConfig, LofModel,
};

fn pmf_strategy(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, dims).prop_map(|v| l1_normalize(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_are_symmetric_and_zero_on_identity(a in pmf_strategy(6), b in pmf_strategy(6)) {
        for (name, f) in [
            ("euclidean", euclidean as fn(&[f64], &[f64]) -> f64),
            ("manhattan", manhattan),
            ("symmetric_kl", symmetric_kl),
            ("jensen_shannon", jensen_shannon),
            ("hellinger", hellinger),
        ] {
            let ab = f(&a, &b);
            let ba = f(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-9, "{name} not symmetric: {ab} vs {ba}");
            prop_assert!(ab >= 0.0, "{name} negative: {ab}");
            prop_assert!(f(&a, &a) < 1e-6, "{name} non-zero on identical input");
        }
        // Plain KL is non-negative even if asymmetric.
        prop_assert!(kl_divergence(&a, &b) >= 0.0);
    }

    #[test]
    fn normalisation_produces_distributions(counts in prop::collection::vec(0.0f64..1e6, 1..40)) {
        let pmf = l1_normalize(&counts);
        prop_assert_eq!(pmf.len(), counts.len());
        prop_assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(pmf.iter().all(|p| *p >= 0.0));

        let smoothed = smooth_pmf(&counts, 1.0);
        prop_assert!((smoothed.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(smoothed.iter().all(|p| *p > 0.0));
    }

    #[test]
    fn lof_scores_are_finite_and_positive(
        seed_points in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 4), 25..60),
        query in prop::collection::vec(-0.5f64..1.5, 4),
    ) {
        let model = LofModel::fit(seed_points, LofConfig::new(5).unwrap()).unwrap();
        let score = model.score(&query).unwrap();
        prop_assert!(score.is_finite());
        prop_assert!(score > 0.0);
    }

    #[test]
    fn lof_reference_scores_are_finite(
        seed_points in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 15..40),
    ) {
        let model = LofModel::fit(seed_points, LofConfig::new(4).unwrap()).unwrap();
        let scores = model.reference_scores().unwrap();
        prop_assert_eq!(scores.len(), model.len());
        prop_assert!(scores.iter().all(|s| s.is_finite() && *s > 0.0));
    }
}
