//! The embedding memo changes nothing but time: a [`ReferenceModel`]
//! renders and parses back its [`EmbeddedModel`] once and hands the same
//! one to every later extraction (`docs/PERFORMANCE.md` §1), and an
//! artifact built through that warm memo must be byte-for-byte the
//! artifact a freshly learned, never-embedded equal model builds — and
//! so must its minimized form.
//!
//! Sharing itself is asserted by pointer: artifacts of one model, and an
//! artifact and its minimized form, hold one text allocation and one
//! fitted LOF. That, not a timer, is the evidence that nothing is
//! rendered or parsed per artifact.

use std::time::Duration;

use proptest::prelude::*;

use endurance_core::{EmbeddedModel, MonitorConfig, ReferenceModel, WindowStrategy};
use endurance_repro::{minimize, MinimizeConfig, ReproArtifact};
use trace_model::{EventTypeId, Timestamp, TraceEvent, Window, WindowId};

/// 40 ms in nanoseconds: the oracle's window span.
const WINDOW_NS: u64 = 40_000_000;
const EVENTS_PER_WINDOW: u64 = 16;
/// The window every generated trace saturates with the unseen type.
const TARGET_WINDOW: u64 = 102;

/// One generated case: a learnable reference and a trace with one
/// window the reference has never seen the like of.
#[derive(Debug, Clone, Copy)]
struct Case {
    dimensions: usize,
    k: usize,
    reference_windows: u64,
    seed: u64,
}

impl Case {
    fn monitor(&self) -> MonitorConfig {
        MonitorConfig::builder()
            .window(WindowStrategy::Time(Duration::from_millis(40)))
            .dimensions(self.dimensions)
            .k(self.k)
            .alpha(1.2)
            .build()
            .expect("generated monitor config is valid")
    }

    /// The events of window `window`: the last event type only when
    /// `anomalous`, otherwise a seeded mix of all the others.
    fn window_events(&self, window: u64, anomalous: bool) -> Vec<TraceEvent> {
        let healthy_types = self.dimensions as u64 - 1;
        (0..EVENTS_PER_WINDOW)
            .map(|i| {
                let ty = if anomalous {
                    healthy_types
                } else {
                    let mixed = (window * EVENTS_PER_WINDOW + i)
                        .wrapping_mul(self.seed | 1)
                        .wrapping_add(self.seed >> 7);
                    (mixed >> 5) % healthy_types
                };
                let offset = (i + 1) * (WINDOW_NS / (EVENTS_PER_WINDOW + 1));
                TraceEvent::new(
                    Timestamp::from_nanos(window * WINDOW_NS + offset),
                    EventTypeId::new(ty as u16),
                    i as u32,
                )
            })
            .collect()
    }

    /// Learns the case's model from scratch: every call returns an equal
    /// model that has never been embedded.
    fn learn(&self) -> ReferenceModel {
        let windows: Vec<Window> = (0..self.reference_windows)
            .map(|w| Window {
                id: WindowId::new(w),
                start: Timestamp::from_nanos(w * WINDOW_NS),
                end: Timestamp::from_nanos((w + 1) * WINDOW_NS),
                events: self.window_events(w, false),
            })
            .collect();
        ReferenceModel::learn_from_windows(&windows, &self.monitor()).expect("reference learns")
    }

    /// Five windows around the saturated one.
    fn trace(&self) -> Vec<TraceEvent> {
        (TARGET_WINDOW - 2..=TARGET_WINDOW + 2)
            .flat_map(|w| self.window_events(w, w == TARGET_WINDOW))
            .collect()
    }

    fn artifact(&self, model: &ReferenceModel) -> ReproArtifact {
        ReproArtifact::from_events(
            "memo",
            0,
            TARGET_WINDOW * WINDOW_NS,
            &self.monitor(),
            model,
            &self.trace(),
        )
        .expect("a window of a never-seen event type reproduces as anomalous")
    }
}

fn cases() -> impl Strategy<Value = Case> {
    (3usize..7, 2usize..6, 0u64..20, any::<u64>()).prop_map(|(dimensions, k, extra, seed)| Case {
        dimensions,
        k,
        reference_windows: k as u64 + 1 + extra,
        seed,
    })
}

/// Whether two artifacts hold the same model text allocation, score with
/// the same fitted LOF — not equal ones, the same — and seal with one
/// digest.
fn share_one_embedding(a: &ReproArtifact, b: &ReproArtifact) -> bool {
    std::ptr::eq(a.model.json(), b.model.json())
        && std::ptr::eq(a.reference_model().lof(), b.reference_model().lof())
        && a.model.digest() == b.model.digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_memo_artifacts_equal_cold_ones_byte_for_byte(case in cases()) {
        // Cold: this model is embedded here for the first and only time.
        let cold = case.artifact(&case.learn());

        let model = case.learn();
        let first = case.artifact(&model);
        let warm = case.artifact(&model);
        let warm_clone = case.artifact(&model.clone());
        let cold_bytes = cold.to_bytes().unwrap();
        for built in [&first, &warm, &warm_clone] {
            prop_assert_eq!(&built.to_bytes().unwrap(), &cold_bytes);
            prop_assert!(share_one_embedding(built, &first));
        }
        prop_assert!(!share_one_embedding(&cold, &first), "equal models, separate memos");
        // A freshly learned, equal model digests its own rendering to the
        // same digest.
        prop_assert_eq!(cold.model.digest(), first.model.digest());

        let config = MinimizeConfig::default();
        let cold_min = minimize(&cold, &config).unwrap();
        let warm_min = minimize(&warm, &config).unwrap();
        prop_assert_eq!(cold_min.report, warm_min.report);
        prop_assert_eq!(
            cold_min.artifact.to_bytes().unwrap(),
            warm_min.artifact.to_bytes().unwrap()
        );
        prop_assert!(share_one_embedding(&warm_min.artifact, &warm));
        warm_min.artifact.verify().unwrap();

        // A loaded artifact scores with the model parsed from its own
        // text, and re-seals to the bytes it was loaded from.
        let loaded = ReproArtifact::from_bytes(&cold_bytes).unwrap();
        prop_assert_eq!(&loaded, &cold);
        prop_assert_eq!(loaded.model.digest(), cold.model.digest());
        prop_assert!(loaded.reference_model() == cold.reference_model());
        prop_assert_eq!(loaded.to_bytes().unwrap(), cold_bytes);
        let loaded_min = minimize(&loaded, &config).unwrap();
        prop_assert_eq!(loaded_min.artifact, cold_min.artifact);
    }

    #[test]
    fn a_config_override_is_embedded_with_the_new_config(case in cases(), alpha in 1.3f64..4.0) {
        let model = case.learn();
        let original = EmbeddedModel::embed(&model).unwrap();

        let mut stricter = case.monitor();
        stricter.alpha = alpha;
        let overridden = model.clone().with_config_override(stricter.clone());
        let embedded = EmbeddedModel::embed(&overridden).unwrap();
        prop_assert_eq!(embedded.model().config(), &stricter);
        prop_assert_ne!(embedded.json(), original.json());

        // The source's memo is the one it had.
        let again = EmbeddedModel::embed(&model).unwrap();
        prop_assert!(std::ptr::eq(again.json(), original.json()));
        prop_assert!(model == case.learn(), "embedded and never-embedded equal models are equal");
    }
}
