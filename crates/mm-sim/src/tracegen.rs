//! The simulation loop: turns a [`Scenario`] into a lazy stream of
//! [`TraceEvent`]s.

use std::collections::VecDeque;
use std::time::Duration;

use trace_model::{EventTypeId, EventTypeRegistry, Severity, Timestamp, TraceEvent};

use crate::{
    CpuModel, ElementSpec, Frame, FrameKind, PlayoutBuffer, PresentOutcome, Scenario, SimError,
    SimRng,
};

/// Names of the QoS event types emitted by the simulator on top of the
/// per-element events, in registration order.
///
/// * `qos.video.underrun` (*error*) — the sink had no frame to present;
/// * `qos.video.late` (*warning*) — the playout buffer is running low;
/// * `qos.video.resume` (*info*) — playback resumed after a stall;
/// * `qos.audio.starved` (*error*) — the audio path missed a chunk deadline.
pub fn qos_event_names() -> [&'static str; 4] {
    [
        "qos.video.underrun",
        "qos.video.late",
        "qos.video.resume",
        "qos.audio.starved",
    ]
}

/// A frame currently being processed by the video path, possibly spread
/// over several ticks when the CPU is contended.
#[derive(Debug, Clone, Copy)]
struct InFlightFrame {
    frame: Frame,
    /// Index of the pipeline stage being executed.
    stage: usize,
    /// CPU work remaining for that stage.
    remaining_cpu: Duration,
    /// Cost multiplier applied to every stage of this frame (1.0 for
    /// ordinary frames, `complexity_burst_factor` for complex ones).
    cost_factor: f64,
}

/// Lazily simulates a scenario, yielding trace events in timestamp order.
///
/// The simulation advances in ticks of one video frame period (40 ms by
/// default). Within each tick the audio path runs first, then the video
/// path decodes ahead into the playout buffer with whatever CPU time the
/// perturbation schedule leaves available, and finally the sink presents
/// (or fails to present) one frame.
///
/// `Simulation` implements [`Iterator`], so it can feed the online monitor
/// without ever materialising the full multi-hour trace in memory.
#[derive(Debug)]
pub struct Simulation {
    // Static configuration.
    frame_period: Duration,
    audio_chunks_per_tick: u32,
    tick_count: u64,
    gop: crate::GopStructure,
    video_stages: Vec<(EventTypeId, ElementSpec)>,
    audio_stages: Vec<(EventTypeId, ElementSpec)>,
    qos_underrun: EventTypeId,
    qos_late: EventTypeId,
    qos_resume: EventTypeId,
    qos_audio_starved: EventTypeId,
    cpu: CpuModel,
    resume_threshold: usize,
    complexity_burst_probability: f64,
    complexity_burst_factor: f64,
    // Mutable state.
    rng: SimRng,
    buffer: PlayoutBuffer,
    tick_index: u64,
    next_frame_number: u64,
    in_flight: Option<InFlightFrame>,
    pending: VecDeque<TraceEvent>,
}

impl Simulation {
    /// Prepares a simulation of `scenario`, resolving event-type ids from
    /// `registry` (usually obtained from [`Scenario::registry`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the scenario is inconsistent
    /// or the registry is missing one of the event types the scenario needs.
    pub fn new(scenario: &Scenario, registry: &EventTypeRegistry) -> Result<Self, SimError> {
        scenario.validate()?;
        let lookup = |name: &str| {
            registry.id_of(name).ok_or_else(|| {
                SimError::InvalidConfig(format!("event type '{name}' is not registered"))
            })
        };
        let mut video_stages = Vec::new();
        for element in scenario.pipeline.video_elements() {
            video_stages.push((lookup(&element.name)?, element.clone()));
        }
        let mut audio_stages = Vec::new();
        for element in scenario.pipeline.audio_elements() {
            audio_stages.push((lookup(&element.name)?, element.clone()));
        }
        let [underrun, late, resume, starved] = qos_event_names();
        let audio_chunks_per_tick =
            (scenario.frame_period.as_nanos() / scenario.audio_period.as_nanos().max(1)) as u32;
        Ok(Simulation {
            frame_period: scenario.frame_period,
            audio_chunks_per_tick,
            tick_count: scenario.tick_count(),
            gop: scenario.gop,
            video_stages,
            audio_stages,
            qos_underrun: lookup(underrun)?,
            qos_late: lookup(late)?,
            qos_resume: lookup(resume)?,
            qos_audio_starved: lookup(starved)?,
            cpu: CpuModel::new(scenario.perturbations.clone()),
            resume_threshold: scenario.pipeline.resume_threshold(),
            complexity_burst_probability: scenario.complexity_burst_probability,
            complexity_burst_factor: scenario.complexity_burst_factor,
            rng: SimRng::new(scenario.seed),
            buffer: PlayoutBuffer::new(
                scenario.pipeline.playout_capacity(),
                scenario.pipeline.resume_threshold(),
            ),
            tick_index: 0,
            next_frame_number: 0,
            in_flight: None,
            pending: VecDeque::new(),
        })
    }

    fn frame_size_for(&mut self, kind: FrameKind) -> u32 {
        match kind {
            FrameKind::I => self.rng.uniform_u32(60_000, 120_000),
            FrameKind::P => self.rng.uniform_u32(20_000, 45_000),
            FrameKind::B => self.rng.uniform_u32(8_000, 20_000),
        }
    }

    fn simulate_tick(&mut self) {
        let period_ns = self.frame_period.as_nanos() as u64;
        let tick_start = Timestamp::from_nanos(self.tick_index * period_ns);
        let tick_last = Timestamp::from_nanos(tick_start.as_nanos() + period_ns - 1);
        let share = self.cpu.available_share(tick_start);

        let mut wall_left = self.frame_period.as_secs_f64();
        let mut cursor = tick_start;
        let advance = |cursor: &mut Timestamp, wall: f64| {
            let next = cursor.saturating_add(Duration::from_secs_f64(wall.max(0.0)));
            *cursor = next.min(tick_last);
            *cursor
        };

        // --- Audio path: one chunk per audio period, highest priority. ---
        'audio: for chunk in 0..self.audio_chunks_per_tick {
            for stage in 0..self.audio_stages.len() {
                let cost = {
                    let (_, spec) = &self.audio_stages[stage];
                    spec.cost_for(FrameKind::P, &mut self.rng).as_secs_f64()
                };
                let wall = cost / share;
                if wall <= wall_left {
                    wall_left -= wall;
                    let at = advance(&mut cursor, wall);
                    let (ty, _) = &self.audio_stages[stage];
                    self.pending.push_back(TraceEvent::new(at, *ty, chunk));
                } else {
                    wall_left = 0.0;
                    self.pending.push_back(
                        TraceEvent::new(tick_last, self.qos_audio_starved, chunk)
                            .with_severity(Severity::Error),
                    );
                    break 'audio;
                }
            }
        }

        // --- Video path: decode ahead while CPU budget and buffer room last. ---
        loop {
            if wall_left <= 0.0 {
                break;
            }
            if self.in_flight.is_none() {
                if !self.buffer.has_room() {
                    break;
                }
                let number = self.next_frame_number;
                self.next_frame_number += 1;
                let kind = self.gop.kind_of(number);
                let size_bytes = self.frame_size_for(kind);
                let frame = Frame {
                    number,
                    kind,
                    size_bytes,
                    pts: Timestamp::from_nanos(number * period_ns),
                };
                // Occasional scene cuts / high-motion frames cost several
                // times more to decode, which is what gives real traces
                // their window-to-window variability.
                let cost_factor = if self.rng.chance(self.complexity_burst_probability) {
                    self.complexity_burst_factor
                } else {
                    1.0
                };
                let first_cost = self.video_stages[0]
                    .1
                    .cost_for(kind, &mut self.rng)
                    .mul_f64(cost_factor);
                self.in_flight = Some(InFlightFrame {
                    frame,
                    stage: 0,
                    remaining_cpu: first_cost,
                    cost_factor,
                });
            }

            let mut flight = self.in_flight.take().expect("in-flight frame just ensured");
            let wall_needed = flight.remaining_cpu.as_secs_f64() / share;
            if wall_needed <= wall_left {
                wall_left -= wall_needed;
                let at = advance(&mut cursor, wall_needed);
                let (ty, _) = &self.video_stages[flight.stage];
                self.pending
                    .push_back(TraceEvent::new(at, *ty, flight.frame.number as u32));
                flight.stage += 1;
                if flight.stage == self.video_stages.len() {
                    let pushed = self.buffer.push_frame();
                    debug_assert!(pushed, "decode-ahead only starts frames when room exists");
                    self.in_flight = None;
                } else {
                    flight.remaining_cpu = self.video_stages[flight.stage]
                        .1
                        .cost_for(flight.frame.kind, &mut self.rng)
                        .mul_f64(flight.cost_factor);
                    self.in_flight = Some(flight);
                }
            } else {
                // Budget exhausted mid-stage: carry the remaining CPU work
                // over to the next tick.
                let cpu_done = wall_left * share;
                let remaining = flight.remaining_cpu.as_secs_f64() - cpu_done;
                flight.remaining_cpu = Duration::from_secs_f64(remaining.max(0.0));
                self.in_flight = Some(flight);
                wall_left = 0.0;
            }
        }

        // --- Presentation: the sink consumes one frame per tick. ---
        match self.buffer.tick_present() {
            PresentOutcome::Prebuffering => {}
            PresentOutcome::Presented => {
                if self.buffer.occupancy() < self.resume_threshold {
                    self.pending.push_back(
                        TraceEvent::new(tick_last, self.qos_late, self.buffer.occupancy() as u32)
                            .with_severity(Severity::Warning),
                    );
                }
            }
            PresentOutcome::Resumed => {
                self.pending.push_back(TraceEvent::new(
                    tick_last,
                    self.qos_resume,
                    self.buffer.occupancy() as u32,
                ));
            }
            PresentOutcome::Underrun => {
                self.pending.push_back(
                    TraceEvent::new(tick_last, self.qos_underrun, self.buffer.occupancy() as u32)
                        .with_severity(Severity::Error),
                );
            }
        }

        self.tick_index += 1;
    }
}

impl Iterator for Simulation {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            if self.tick_index >= self.tick_count {
                return None;
            }
            self.simulate_tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PerturbationInterval, PerturbationSchedule};

    fn run(scenario: &Scenario) -> (EventTypeRegistry, Vec<TraceEvent>) {
        let registry = scenario.registry().unwrap();
        let events: Vec<_> = Simulation::new(scenario, &registry).unwrap().collect();
        (registry, events)
    }

    /// Events of the type registered as `name`.
    fn count_of(registry: &EventTypeRegistry, events: &[TraceEvent], name: &str) -> u64 {
        let id = registry.id_of(name).unwrap();
        events.iter().filter(|ev| ev.event_type == id).count() as u64
    }

    fn error_count(events: &[TraceEvent]) -> usize {
        events.iter().filter(|ev| ev.is_error()).count()
    }

    #[test]
    fn clean_run_is_regular_and_error_free() {
        let scenario = Scenario::reference(Duration::from_secs(20), 1).unwrap();
        let (registry, events) = run(&scenario);
        assert!(events.len() > 5_000, "20 s should emit thousands of events");
        assert_eq!(
            error_count(&events),
            0,
            "clean run must not report QoS errors"
        );
        // Timestamps are non-decreasing.
        assert!(events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        // Roughly one presented frame per tick once playback started.
        let decodes = count_of(&registry, &events, "video.decode");
        let ticks = scenario.tick_count();
        assert!(decodes >= ticks - 30 && decodes <= ticks + 30);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let scenario = Scenario::reference(Duration::from_secs(5), 42).unwrap();
        let (_, a) = run(&scenario);
        let (_, b) = run(&scenario);
        assert_eq!(a, b);
        let scenario_other = Scenario::reference(Duration::from_secs(5), 43).unwrap();
        let (_, c) = run(&scenario_other);
        assert_ne!(a, c);
    }

    #[test]
    fn perturbation_produces_delayed_underruns() {
        // 60 s run with a single strong perturbation at 20 s for 10 s.
        let schedule = PerturbationSchedule::from_intervals(vec![PerturbationInterval::new(
            Timestamp::from_secs(20),
            Timestamp::from_secs(30),
            0.85,
        )
        .unwrap()])
        .unwrap();
        let scenario = Scenario::builder("single-perturbation")
            .duration(Duration::from_secs(60))
            .reference_duration(Duration::from_secs(10))
            .perturbations(schedule)
            .seed(7)
            .build()
            .unwrap();
        let (_, events) = run(&scenario);
        assert!(
            error_count(&events) > 0,
            "perturbation must cause QoS errors"
        );

        let first_error = events.iter().find(|ev| ev.is_error()).unwrap().timestamp;
        let last_error = events
            .iter()
            .rev()
            .find(|ev| ev.is_error())
            .unwrap()
            .timestamp;
        // Errors appear only after the perturbation starts, with a buffering
        // delay, and stop shortly after it ends.
        assert!(first_error > Timestamp::from_secs(20));
        assert!(first_error < Timestamp::from_secs(28));
        assert!(last_error >= Timestamp::from_secs(25));
        assert!(last_error < Timestamp::from_secs(35));
        // No errors anywhere near the clean head of the run.
        assert!(events
            .iter()
            .filter(|ev| ev.timestamp < Timestamp::from_secs(20))
            .all(|ev| !ev.is_error()));
    }

    #[test]
    fn perturbation_changes_the_event_mix() {
        let schedule = PerturbationSchedule::from_intervals(vec![PerturbationInterval::new(
            Timestamp::from_secs(20),
            Timestamp::from_secs(40),
            0.8,
        )
        .unwrap()])
        .unwrap();
        let scenario = Scenario::builder("mix-shift")
            .duration(Duration::from_secs(60))
            .reference_duration(Duration::from_secs(15))
            .perturbations(schedule)
            .seed(3)
            .build()
            .unwrap();
        let (registry, events) = run(&scenario);
        let decode_id = registry.id_of("video.decode").unwrap();
        let in_range = |ev: &TraceEvent, lo: u64, hi: u64| {
            ev.timestamp >= Timestamp::from_secs(lo) && ev.timestamp < Timestamp::from_secs(hi)
        };
        let decodes_clean = events
            .iter()
            .filter(|ev| in_range(ev, 5, 15) && ev.event_type == decode_id)
            .count();
        let decodes_perturbed = events
            .iter()
            .filter(|ev| in_range(ev, 25, 35) && ev.event_type == decode_id)
            .count();
        assert!(
            (decodes_perturbed as f64) < 0.7 * decodes_clean as f64,
            "decode rate should drop under contention ({decodes_perturbed} vs {decodes_clean})"
        );
    }

    #[test]
    fn a_clean_run_renders_at_most_what_it_decodes() {
        let scenario = Scenario::reference(Duration::from_secs(10), 5).unwrap();
        let (registry, events) = run(&scenario);
        // A frame's last stage (the sink) follows its first (the decoder).
        let decoded = count_of(&registry, &events, "video.decode");
        let rendered = count_of(&registry, &events, "video.sink.render");
        assert!(rendered > 0);
        assert!(rendered <= decoded);
        for qos in ["qos.video.underrun", "qos.audio.starved"] {
            assert_eq!(count_of(&registry, &events, qos), 0, "{qos}");
        }
        let last = events.last().unwrap().timestamp;
        assert!(last < Timestamp::from(scenario.duration));
        assert!(last >= Timestamp::from(scenario.duration - scenario.frame_period));
    }

    #[test]
    fn a_short_clean_run_decodes_every_tick() {
        let scenario = Scenario::reference(Duration::from_secs(8), 11).unwrap();
        let (registry, events) = run(&scenario);
        assert!(registry.len() > 10);
        assert_eq!(error_count(&events), 0);
        assert!(count_of(&registry, &events, "video.sink.render") > 150);
    }

    #[test]
    fn an_endurance_run_underruns() {
        let scenario = Scenario::scaled_endurance(Duration::from_secs(520), 2).unwrap();
        let (registry, events) = run(&scenario);
        let underruns = count_of(&registry, &events, "qos.video.underrun");
        assert!(underruns > 0);
        assert!(error_count(&events) as u64 >= underruns);
    }

    #[test]
    fn missing_registry_entries_are_reported() {
        let scenario = Scenario::reference(Duration::from_secs(5), 0).unwrap();
        let mut registry = EventTypeRegistry::new();
        // Register only the pipeline elements, not the QoS types.
        scenario
            .pipeline
            .register_event_types(&mut registry)
            .unwrap();
        assert!(matches!(
            Simulation::new(&scenario, &registry),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn events_stay_within_their_tick() {
        let scenario = Scenario::reference(Duration::from_secs(3), 9).unwrap();
        let registry = scenario.registry().unwrap();
        let events: Vec<_> = Simulation::new(&scenario, &registry).unwrap().collect();
        let last = events.last().unwrap().timestamp;
        assert!(last < Timestamp::from(scenario.duration));
    }
}
