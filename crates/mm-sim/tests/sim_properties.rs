//! Property-based tests for the multimedia workload simulator: whatever the
//! scenario parameters, the generated trace must satisfy the structural
//! invariants the monitor relies on.

use proptest::prelude::*;
use std::time::Duration;

use mm_sim::{PerturbationInterval, PerturbationSchedule, Scenario, Simulation};
use trace_model::{Severity, Timestamp};

/// Strategy over short but varied scenarios (clean or with one perturbation).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        5u64..30,                                            // duration seconds
        0u64..1_000,                                         // seed
        prop::option::of((2u64..10, 2u64..8, 0.5f64..0.95)), // perturbation (start, len, load)
        0.0f64..0.15,                                        // complexity burst probability
        1.0f64..4.0,                                         // complexity burst factor
    )
        .prop_map(|(secs, seed, perturbation, burst_p, burst_f)| {
            let duration = Duration::from_secs(secs.max(6));
            let reference = Duration::from_secs(2);
            let schedule = match perturbation {
                Some((start, len, load)) => {
                    let start = start.clamp(2, secs.max(6) - 1);
                    let end = (start + len).min(secs.max(6));
                    if end > start {
                        PerturbationSchedule::from_intervals(vec![PerturbationInterval::new(
                            Timestamp::from_secs(start),
                            Timestamp::from_secs(end),
                            load,
                        )
                        .expect("valid interval")])
                        .expect("valid schedule")
                    } else {
                        PerturbationSchedule::none()
                    }
                }
                None => PerturbationSchedule::none(),
            };
            Scenario::builder("prop")
                .duration(duration)
                .reference_duration(reference)
                .perturbations(schedule)
                .complexity_bursts(burst_p, burst_f)
                .seed(seed)
                .build()
                .expect("valid scenario")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn traces_are_timestamp_ordered_and_bounded(scenario in scenario_strategy()) {
        let registry = scenario.registry().expect("registry");
        let events: Vec<_> = Simulation::new(&scenario, &registry)
            .expect("simulation")
            .collect();
        prop_assert!(!events.is_empty());
        // Non-decreasing timestamps, all within the simulated duration.
        for pair in events.windows(2) {
            prop_assert!(pair[0].timestamp <= pair[1].timestamp);
        }
        let end = Timestamp::from(scenario.duration);
        prop_assert!(events.iter().all(|ev| ev.timestamp < end));
        // Every emitted event type is registered.
        prop_assert!(events.iter().all(|ev| registry.name_of(ev.event_type).is_some()));
    }

    #[test]
    fn same_seed_is_bitwise_reproducible(scenario in scenario_strategy()) {
        let registry = scenario.registry().expect("registry");
        let first: Vec<_> = Simulation::new(&scenario, &registry).expect("sim").collect();
        let second: Vec<_> = Simulation::new(&scenario, &registry).expect("sim").collect();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn errors_only_appear_under_or_after_contention(scenario in scenario_strategy()) {
        let registry = scenario.registry().expect("registry");
        let events: Vec<_> = Simulation::new(&scenario, &registry)
            .expect("simulation")
            .collect();
        if scenario.perturbations.is_empty() {
            let errors = events.iter().filter(|ev| ev.is_error()).count();
            prop_assert_eq!(errors, 0, "clean runs must stay error-free");
        } else {
            // Any error must occur at or after the first perturbation start.
            let first_start = scenario.perturbations.intervals()[0].start;
            prop_assert!(events
                .iter()
                .filter(|ev| ev.severity == Severity::Error)
                .all(|ev| ev.timestamp >= first_start));
        }
    }

    #[test]
    fn event_rate_is_in_a_plausible_band(scenario in scenario_strategy()) {
        let registry = scenario.registry().expect("registry");
        let events: Vec<_> = Simulation::new(&scenario, &registry)
            .expect("simulation")
            .collect();
        // The playback pipeline emits on the order of a few hundred events
        // per second (16 audio + ~6 video per 40 ms tick), never less than
        // the audio floor and never more than a generous upper bound.
        let span = match (events.first(), events.last()) {
            (Some(first), Some(last)) => last.timestamp.saturating_since(first.timestamp),
            _ => Duration::ZERO,
        };
        let rate = events.len() as f64 / span.as_secs_f64();
        prop_assert!(rate > 100.0, "rate {rate} too low");
        prop_assert!(rate < 2_000.0, "rate {rate} too high");
    }
}
