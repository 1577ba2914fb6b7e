//! Learning the reference ("correct behaviour") model.

use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize, Value};

use lof_anomaly::{LofConfig, LofModel};
use trace_model::{fnv1a, Window};

use crate::{CoreError, MonitorConfig, WindowPmf};

/// The model of correct behaviour learned from a reference trace segment.
///
/// It bundles:
/// * the fitted [`LofModel`] over the reference windows' pmf points,
/// * the aggregate pmf of the reference segment (the initial `Ppmf`),
/// * the calibrated drift-gate threshold (when auto-calibration is used).
///
/// Models can be serialised to JSON and reloaded, supporting the paper's
/// "curated database of reference traces" that lets deployments skip the
/// learning step.
///
/// Cloning is cheap: the fitted LOF model — the bulk of the data — is
/// shared, so every stream of a fleet and every oracle re-run can own
/// "its" model. Clones also share one once-cell holding the model's
/// [`EmbeddedModel`]: empty until the first [`EmbeddedModel::embed`] of
/// the model or any clone, then the rendered text, its digest and the
/// model parsed back from it, kept until the last clone is dropped.
#[derive(Clone)]
pub struct ReferenceModel {
    lof: Arc<LofModel>,
    aggregate: WindowPmf,
    calibrated_gate_threshold: f64,
    reference_windows: usize,
    config: MonitorConfig,
    /// Memo of [`EmbeddedModel::embed`]. A pure function of the fields
    /// above, so it takes no part in equality or `Debug` output, and
    /// whichever thread fills it first stores what any other would have.
    embedding: Arc<OnceLock<EmbeddedModel>>,
}

impl fmt::Debug for ReferenceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReferenceModel")
            .field("lof", &self.lof)
            .field("aggregate", &self.aggregate)
            .field("calibrated_gate_threshold", &self.calibrated_gate_threshold)
            .field("reference_windows", &self.reference_windows)
            .field("config", &self.config)
            .finish()
    }
}

/// Two models are equal when every learned parameter matches: the
/// fitted LOF model, the reference aggregate pmf, the calibrated gate
/// threshold, the reference window count and the learning configuration.
/// This is the verdict-equality contract reproduction artifacts rely on:
/// equal models score every window identically.
impl PartialEq for ReferenceModel {
    fn eq(&self, other: &Self) -> bool {
        self.lof == other.lof
            && self.aggregate == other.aggregate
            && self.calibrated_gate_threshold == other.calibrated_gate_threshold
            && self.reference_windows == other.reference_windows
            && self.config == other.config
    }
}

/// Serialisable form of a [`ReferenceModel`].
#[derive(Debug, Serialize, Deserialize)]
struct ReferenceModelData {
    points: Vec<Vec<f64>>,
    aggregate: WindowPmf,
    calibrated_gate_threshold: f64,
    reference_windows: usize,
    config: MonitorConfig,
}

impl ReferenceModel {
    /// Returns the same learned model with a different embedded
    /// configuration.
    ///
    /// Every learned parameter — the fitted LOF model, the aggregate
    /// pmf, the calibrated gate threshold — is kept as-is; only the
    /// configuration consulted by downstream monitors (drift-gate
    /// behaviour, merge weight, `α`) changes. Oracle re-runs use this
    /// to disable the drift gate without relearning, so every window is
    /// scored statelessly.
    #[must_use]
    pub fn with_config_override(mut self, config: MonitorConfig) -> Self {
        self.config = config;
        // The configuration is part of the embedded text: the result
        // starts with an empty memo and the source's is left alone.
        self.embedding = Arc::default();
        self
    }

    /// Learns a reference model from the pmfs of the reference windows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidReference`] if fewer than `K + 1` windows
    /// are available, and propagates LOF fitting errors.
    pub fn learn_from_pmfs(
        pmfs: Vec<WindowPmf>,
        config: &MonitorConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        if pmfs.len() < config.k + 1 {
            return Err(CoreError::InvalidReference(format!(
                "reference segment produced {} windows, but K = {} needs at least {}",
                pmfs.len(),
                config.k,
                config.k + 1
            )));
        }
        let aggregate = WindowPmf::mean_of(&pmfs)
            .ok_or_else(|| CoreError::InvalidReference("reference segment is empty".into()))?;

        // Calibrate the drift gate: distribution of divergences between each
        // reference window and the aggregate.
        let mut divergences: Vec<f64> = pmfs.iter().map(|p| p.divergence(&aggregate)).collect();
        divergences.sort_by(|a, b| a.partial_cmp(b).expect("divergences are finite"));
        let calibrated_gate_threshold = percentile(&divergences, 0.95);

        let points: Vec<Vec<f64>> = pmfs.iter().map(|p| p.probabilities().to_vec()).collect();
        Ok(ReferenceModel {
            lof: fit_lof(points, config)?,
            aggregate,
            calibrated_gate_threshold,
            reference_windows: pmfs.len(),
            config: config.clone(),
            embedding: Arc::default(),
        })
    }

    /// Learns a reference model directly from reference windows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReferenceModel::learn_from_pmfs`].
    pub fn learn_from_windows(
        windows: &[Window],
        config: &MonitorConfig,
    ) -> Result<Self, CoreError> {
        let pmfs = windows
            .iter()
            .map(|w| WindowPmf::from_window(w, config.dimensions, config.smoothing))
            .collect();
        Self::learn_from_pmfs(pmfs, config)
    }

    /// The fitted LOF model.
    pub fn lof(&self) -> &LofModel {
        &self.lof
    }

    /// The aggregate pmf of the reference segment (initial `Ppmf`).
    pub fn aggregate(&self) -> &WindowPmf {
        &self.aggregate
    }

    /// The drift-gate threshold calibrated from the reference segment
    /// (95th percentile of reference divergences).
    pub fn calibrated_gate_threshold(&self) -> f64 {
        self.calibrated_gate_threshold
    }

    /// How many reference windows the model was learned from.
    pub fn reference_windows(&self) -> usize {
        self.reference_windows
    }

    /// The monitor configuration the model was learned with.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Scores a query pmf against the reference model.
    ///
    /// # Errors
    ///
    /// Propagates dimension-mismatch errors from the LOF model.
    pub fn score(&self, pmf: &WindowPmf) -> Result<f64, CoreError> {
        Ok(self.lof.score(pmf.probabilities())?)
    }

    /// Serialises the model to JSON (the on-disk format of the curated
    /// reference-trace database).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelSerialization`] if encoding fails.
    pub fn to_json(&self) -> Result<String, CoreError> {
        let data = ReferenceModelData {
            points: self.lof.reference_points().map(<[f64]>::to_vec).collect(),
            aggregate: self.aggregate.clone(),
            calibrated_gate_threshold: self.calibrated_gate_threshold,
            reference_windows: self.reference_windows,
            config: self.config.clone(),
        };
        serde_json::to_string(&data).map_err(|e| CoreError::ModelSerialization(e.to_string()))
    }

    /// Reloads a model previously saved with [`ReferenceModel::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelSerialization`] for malformed JSON and
    /// propagates LOF re-fitting errors.
    pub fn from_json(json: &str) -> Result<Self, CoreError> {
        let data: ReferenceModelData =
            serde_json::from_str(json).map_err(|e| CoreError::ModelSerialization(e.to_string()))?;
        Ok(ReferenceModel {
            lof: fit_lof(data.points, &data.config)?,
            aggregate: data.aggregate,
            calibrated_gate_threshold: data.calibrated_gate_threshold,
            reference_windows: data.reference_windows,
            config: data.config,
            embedding: Arc::default(),
        })
    }
}

/// A model as a reproduction artifact carries it: the canonical JSON
/// text ([`ReferenceModel::to_json`]) **and** the model parsed from that
/// very text, with the text's [`digest`](Self::digest).
///
/// The only constructors are [`embed`](Self::embed) (render, then parse
/// the rendering back), [`parse`](Self::parse) and
/// [`parse_checked`](Self::parse_checked), so the pairing is a type
/// invariant: whatever holds an `EmbeddedModel` scores with exactly the
/// model its text describes, never with a caller's in-memory model that
/// merely claims to equal it, and its digest is the one of its text.
/// The text is the identity — equality and serialisation (a JSON string)
/// look at nothing else — and the parsed model and the digest are
/// derived from it once, never stored. Cloning bumps two reference
/// counts.
#[derive(Clone)]
pub struct EmbeddedModel {
    json: Arc<str>,
    digest: u64,
    model: Arc<ReferenceModel>,
}

impl EmbeddedModel {
    /// The embedding of `model`: its canonical JSON, its digest and the
    /// model parsed back from it. Rendered, digested and parsed once per
    /// model — the result is memoised in a cell `model` shares with its
    /// clones, so every later call returns the same text allocation and
    /// the same parsed model.
    ///
    /// # Errors
    ///
    /// As [`ReferenceModel::to_json`] and [`ReferenceModel::from_json`].
    pub fn embed(model: &ReferenceModel) -> Result<Self, CoreError> {
        if let Some(embedded) = model.embedding.get() {
            return Ok(embedded.clone());
        }
        let embedded = Self::parse(&model.to_json()?)?;
        Ok(model.embedding.get_or_init(|| embedded).clone())
    }

    /// Parses a model's canonical JSON, keeping the text and its digest
    /// beside the model it describes.
    ///
    /// # Errors
    ///
    /// As [`ReferenceModel::from_json`].
    pub fn parse(json: &str) -> Result<Self, CoreError> {
        Self::parse_checked(json, |_| Ok(()))
    }

    /// [`parse`](Self::parse), with a check between the digest and the
    /// parse: digests `json`, hands the digest to `check`, and parses
    /// only if `check` passes. A loader judges a document by its text's
    /// digest this way without reading the text a second time, and pays
    /// for no parse when it refuses the document.
    ///
    /// # Errors
    ///
    /// What `check` returns, else as [`ReferenceModel::from_json`].
    pub fn parse_checked<E: From<CoreError>>(
        json: &str,
        check: impl FnOnce(u64) -> Result<(), E>,
    ) -> Result<Self, E> {
        let digest = fnv1a(json.as_bytes());
        check(digest)?;
        Ok(EmbeddedModel {
            model: Arc::new(ReferenceModel::from_json(json)?),
            json: json.into(),
            digest,
        })
    }

    /// The canonical JSON text: what an artifact stores.
    pub fn json(&self) -> &str {
        &self.json
    }

    /// The 64-bit FNV-1a digest of [`json`](Self::json)'s bytes: what an
    /// artifact's content hash folds in place of the text.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The model parsed from [`json`](Self::json).
    pub fn model(&self) -> &ReferenceModel {
        &self.model
    }
}

/// Equality of the text; the parsed model and the digest are functions
/// of it.
impl PartialEq for EmbeddedModel {
    fn eq(&self, other: &Self) -> bool {
        self.json == other.json
    }
}

impl fmt::Debug for EmbeddedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmbeddedModel")
            .field("json", &self.json)
            .finish_non_exhaustive()
    }
}

/// Serialises as the JSON string of the text, exactly as the `String`
/// it replaces in `ReproArtifact::model` did.
impl Serialize for EmbeddedModel {
    fn to_value(&self) -> Value {
        self.json.to_value()
    }
}

fn fit_lof(points: Vec<Vec<f64>>, config: &MonitorConfig) -> Result<Arc<LofModel>, CoreError> {
    let lof_config = LofConfig::new(config.k)?.with_distance(config.distance);
    Ok(Arc::new(LofModel::fit(points, lof_config)?))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn config(dims: usize, k: usize) -> MonitorConfig {
        MonitorConfig::builder()
            .dimensions(dims)
            .k(k)
            .build()
            .unwrap()
    }

    fn regular_pmfs(n: usize, dims: usize, seed: u64) -> Vec<WindowPmf> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let counts: Vec<u64> = (0..dims)
                    .map(|d| 40 + 10 * d as u64 + rng.gen_range(0..5))
                    .collect();
                WindowPmf::from_counts(&counts, 0.5)
            })
            .collect()
    }

    #[test]
    fn learning_requires_enough_windows() {
        let cfg = config(3, 20);
        let pmfs = regular_pmfs(10, 3, 1);
        assert!(matches!(
            ReferenceModel::learn_from_pmfs(pmfs, &cfg),
            Err(CoreError::InvalidReference(_))
        ));
    }

    #[test]
    fn learned_model_scores_regular_windows_near_one() {
        let cfg = config(4, 15);
        let model = ReferenceModel::learn_from_pmfs(regular_pmfs(200, 4, 2), &cfg).unwrap();
        let normal = WindowPmf::from_counts(&[42, 51, 61, 72], 0.5);
        let anomalous = WindowPmf::from_counts(&[5, 5, 5, 300], 0.5);
        let normal_score = model.score(&normal).unwrap();
        let anomalous_score = model.score(&anomalous).unwrap();
        assert!(normal_score < 1.5, "normal window scored {normal_score}");
        assert!(
            anomalous_score > normal_score * 2.0,
            "anomalous window scored {anomalous_score}, normal {normal_score}"
        );
        assert_eq!(model.reference_windows(), 200);
        assert!(model.calibrated_gate_threshold() >= 0.0);
        assert_eq!(model.config().dimensions, 4);
        assert_eq!(model.lof().len(), 200);
        assert_eq!(model.aggregate().dimensions(), 4);
    }

    #[test]
    fn learn_from_windows_builds_pmfs_internally() {
        use trace_model::{EventTypeId, Timestamp, TraceEvent, Window, WindowId};
        let cfg = config(2, 5);
        let windows: Vec<Window> = (0..30)
            .map(|i| {
                let events: Vec<TraceEvent> = (0..20)
                    .map(|j| {
                        TraceEvent::new(
                            Timestamp::from_micros(i * 40_000 + j * 100),
                            EventTypeId::new((j % 2) as u16),
                            0,
                        )
                    })
                    .collect();
                Window::new(
                    WindowId::new(i),
                    Timestamp::from_micros(i * 40_000),
                    Timestamp::from_micros((i + 1) * 40_000),
                    events,
                )
            })
            .collect();
        let model = ReferenceModel::learn_from_windows(&windows, &cfg).unwrap();
        assert_eq!(model.reference_windows(), 30);
    }

    #[test]
    fn json_round_trip_preserves_behaviour() {
        let cfg = config(3, 10);
        let model = ReferenceModel::learn_from_pmfs(regular_pmfs(80, 3, 3), &cfg).unwrap();
        let json = model.to_json().unwrap();
        let reloaded = ReferenceModel::from_json(&json).unwrap();
        assert!(reloaded == model, "a reloaded model equals its source");
        assert_eq!(reloaded.to_json().unwrap(), json);
        let query = WindowPmf::from_counts(&[40, 55, 62], 0.5);
        let a = model.score(&query).unwrap();
        let b = reloaded.score(&query).unwrap();
        assert!((a - b).abs() < 1e-9);
        assert_eq!(reloaded.reference_windows(), model.reference_windows());
        assert!(
            (reloaded.calibrated_gate_threshold() - model.calibrated_gate_threshold()).abs()
                < 1e-12
        );
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            ReferenceModel::from_json("{not json"),
            Err(CoreError::ModelSerialization(_))
        ));
        // Nesting without end is an error like any other, not a stack
        // overflow: bare, and where a model's points would be.
        for hostile in [
            "[".repeat(60_000),
            "{\"points\":".to_owned() + &"[".repeat(60_000),
        ] {
            assert!(matches!(
                ReferenceModel::from_json(&hostile),
                Err(CoreError::ModelSerialization(_))
            ));
        }
    }

    #[test]
    fn embedding_is_rendered_once_and_shared_by_clones() {
        let cfg = config(3, 10);
        let model = ReferenceModel::learn_from_pmfs(regular_pmfs(80, 3, 4), &cfg).unwrap();
        let never_embedded = ReferenceModel::learn_from_pmfs(regular_pmfs(80, 3, 4), &cfg).unwrap();
        let cloned_before = model.clone();
        let debug_before = format!("{model:?}");

        let first = EmbeddedModel::embed(&model).unwrap();
        assert_eq!(first.json(), model.to_json().unwrap());
        assert_eq!(first.digest(), fnv1a(first.json().as_bytes()));
        assert!(
            first.model() == &model,
            "the parsed-back model equals its source"
        );
        let parsed = EmbeddedModel::parse(first.json()).unwrap();
        assert_eq!(first, parsed);
        assert_eq!(first.digest(), parsed.digest());

        // The model, a clone taken before and a clone taken after all
        // hand out the one text, its digest and the one parsed model.
        for same in [&model, &cloned_before, &model.clone()] {
            let again = EmbeddedModel::embed(same).unwrap();
            assert!(Arc::ptr_eq(&again.json, &first.json));
            assert!(Arc::ptr_eq(&again.model, &first.model));
            assert_eq!(again.digest(), first.digest());
        }

        // The memo is invisible: equality and `Debug` ignore it.
        assert!(model == never_embedded);
        assert_eq!(format!("{model:?}"), debug_before);
        assert_eq!(format!("{model:?}"), format!("{never_embedded:?}"));
    }

    #[test]
    fn config_override_embeds_the_new_config_and_leaves_the_source_memo_alone() {
        let cfg = config(3, 10);
        let model = ReferenceModel::learn_from_pmfs(regular_pmfs(80, 3, 5), &cfg).unwrap();
        let original = EmbeddedModel::embed(&model).unwrap();

        let mut stricter = cfg.clone();
        stricter.alpha = 2.5;
        stricter.drift_gate = crate::DriftGateConfig::Disabled;
        let overridden = model.clone().with_config_override(stricter.clone());
        let embedded = EmbeddedModel::embed(&overridden).unwrap();
        assert_eq!(embedded.model().config(), &stricter);
        assert_eq!(embedded.json(), overridden.to_json().unwrap());
        assert_ne!(embedded, original);

        let again = EmbeddedModel::embed(&model).unwrap();
        assert!(Arc::ptr_eq(&again.json, &original.json));
        assert_eq!(again.model().config(), &cfg);
    }

    #[test]
    fn the_digest_is_fnv1a_of_the_text_and_is_judged_before_the_parse() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published
        // test vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);

        let cfg = config(3, 10);
        let model = ReferenceModel::learn_from_pmfs(regular_pmfs(80, 3, 7), &cfg).unwrap();
        let json = model.to_json().unwrap();
        let mut seen = None;
        let embedded = EmbeddedModel::parse_checked(&json, |digest| {
            seen = Some(digest);
            Ok::<(), CoreError>(())
        })
        .unwrap();
        assert_eq!(seen, Some(embedded.digest()));
        assert_eq!(embedded.digest(), fnv1a(json.as_bytes()));

        // A refused text is never parsed: the check's error, not a
        // model error, even for a text that is no model.
        let refused = EmbeddedModel::parse_checked("{not json", |_| {
            Err(CoreError::InvalidReference("refused".into()))
        });
        assert!(matches!(refused, Err(CoreError::InvalidReference(_))));
        assert!(matches!(
            EmbeddedModel::parse("{not json"),
            Err(CoreError::ModelSerialization(_))
        ));
    }

    #[test]
    fn concurrent_embeds_of_one_model_agree() {
        let cfg = config(3, 10);
        let model = ReferenceModel::learn_from_pmfs(regular_pmfs(80, 3, 6), &cfg).unwrap();
        let start = std::sync::Barrier::new(8);
        let embedded: Vec<EmbeddedModel> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let own = model.clone();
                        start.wait();
                        EmbeddedModel::embed(&own).unwrap()
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("embedding does not panic"))
                .collect()
        });
        let expected = model.to_json().unwrap();
        for one in &embedded {
            assert_eq!(one.json(), expected);
            assert!(one.model() == &model);
            // Whoever lost the race dropped its own rendering.
            assert!(Arc::ptr_eq(&one.json, &embedded[0].json));
        }
    }

    #[test]
    fn percentile_helper_is_sane() {
        let values = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&values, 0.0), 0.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert_eq!(percentile(&values, 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
