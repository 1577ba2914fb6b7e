//! # lof-anomaly
//!
//! Density-based anomaly detection primitives: distance metrics, an exact
//! nearest-neighbour index, the Local Outlier Factor (LOF) algorithm of
//! Breunig et al. (SIGMOD 2000), and two simple baseline detectors.
//!
//! This crate is deliberately independent of the trace model: it operates
//! on plain `f64` feature vectors so it can be tested and benchmarked in
//! isolation, and reused outside the endurance-test setting.
//!
//! ## Quick example
//!
//! ```rust
//! use lof_anomaly::{LofModel, LofConfig};
//!
//! # fn main() -> Result<(), lof_anomaly::AnomalyError> {
//! // A tight cluster around the origin plus one far-away point.
//! let mut points: Vec<Vec<f64>> = (0..50)
//!     .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
//!     .collect();
//! points.push(vec![5.0, 5.0]);
//!
//! let model = LofModel::fit(points.clone(), LofConfig::new(10)?)?;
//! let inlier = model.score(&[0.02, 0.02])?;
//! let outlier = model.score(&[4.9, 4.9])?;
//! assert!(inlier < 1.5);
//! assert!(outlier > inlier);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod distance;
mod error;
pub mod knn;
mod lof;
mod normalize;
mod rate;
mod zscore;

pub use distance::{
    chebyshev, euclidean, hellinger, jensen_shannon, kl_divergence, manhattan, symmetric_kl,
    DistanceKind,
};
pub use error::AnomalyError;
pub use knn::{Neighbor, NeighborIndex};
pub use lof::{LofConfig, LofModel, LofScore};
pub use normalize::{l1_normalize, smooth_pmf, smooth_pmf_into};
pub use rate::RateThresholdDetector;
pub use zscore::ZScoreDetector;
