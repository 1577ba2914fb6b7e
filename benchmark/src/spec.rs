//! The three workloads and the inputs they generate.
//!
//! A workload is a set of sizes; [`generate`] turns one plus a seed into
//! an [`Input`]: the whole trace in memory, the injected ground truth,
//! the monitor configuration and the shared reference model. The program
//! under test only ever sees the generated inputs.

use std::time::{Duration, Instant};

use endurance_core::{MonitorConfig, ReductionSession, ReferenceModel};
use mm_sim::{
    FleetEvent, FleetScenario, FleetSim, PerturbationSchedule, Scenario, Simulation, TraceHasher,
};
use trace_model::{InterleavedStreams, StreamId, Timestamp};

use crate::BenchError;

/// Sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What kind of fleet generates the trace.
    pub shape: Shape,
    /// How many samples of each read phase one round takes.
    pub round: RoundPlan,
}

/// Samples per round. A round ingests and maintains once; these counts
/// size the three read phases so each takes a comparable slice of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundPlan {
    /// Copies of the freshly ingested store that are maintained besides
    /// the store itself, for more samples of a cheap maintenance pass.
    pub maintain_copies: usize,
    /// Cold open-and-replay passes.
    pub cold_passes: usize,
    /// Blocks of 2 000 point queries.
    pub query_blocks: usize,
    /// True-positive windows turned into artifacts.
    pub repro_targets: usize,
}

/// The two trace generators behind the three workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Long-lived devices running the paper's playback pipeline.
    Devices(Devices),
    /// `FleetScenario::churn_demo(streams, seed)`: short-lived streams
    /// with every fault kind.
    Churn {
        /// Streams that join and leave.
        streams: u32,
    },
}

/// `devices` long-lived devices running the paper's playback pipeline,
/// each perturbed for `perturb_for_s` every `perturb_every_s`, scored
/// against a model learned from `reference_s` of clean playback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Devices {
    /// Long-lived streams.
    pub devices: u32,
    /// Video frame period in milliseconds.
    pub frame_ms: u64,
    /// Audio chunk period in milliseconds.
    pub audio_ms: u64,
    /// Simulated seconds per device.
    pub duration_s: u64,
    /// Clean seconds the shared model is learned from.
    pub reference_s: u64,
    /// Perturbation period.
    pub perturb_every_s: u64,
    /// Perturbation length.
    pub perturb_for_s: u64,
}

/// The paper's operating point: a big model, few anomalies.
pub const PAPER_STEADY: WorkloadSpec = WorkloadSpec {
    name: "paper_steady",
    shape: Shape::Devices(Devices {
        devices: 2,
        frame_ms: 40,
        audio_ms: 10,
        duration_s: 900,
        reference_s: 120,
        perturb_every_s: 180,
        perturb_for_s: 20,
    }),
    round: RoundPlan {
        maintain_copies: 9,
        cold_passes: 30,
        query_blocks: 150,
        repro_targets: 1,
    },
};

/// Anomaly-dense: most windows are recorded, the model is cheap.
pub const STORM: WorkloadSpec = WorkloadSpec {
    name: "storm",
    shape: Shape::Devices(Devices {
        devices: 4,
        frame_ms: 40,
        audio_ms: 10,
        duration_s: 800,
        reference_s: 15,
        perturb_every_s: 20,
        perturb_for_s: 14,
    }),
    round: RoundPlan {
        maintain_copies: 3,
        cold_passes: 6,
        query_blocks: 150,
        repro_targets: 10,
    },
};

/// Thousands of tiny lanes instead of a few dense ones.
pub const CHURN: WorkloadSpec = WorkloadSpec {
    name: "churn",
    shape: Shape::Churn { streams: 1_000 },
    round: RoundPlan {
        maintain_copies: 0,
        cold_passes: 5,
        query_blocks: 150,
        repro_targets: 100,
    },
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 3] = [PAPER_STEADY, STORM, CHURN];

impl WorkloadSpec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at about `1/divisor` of its size, for the smoke
    /// test: fewer simulated seconds, a smaller model, fewer streams. The
    /// perturbation schedule shrinks with the run so a short run still
    /// holds several perturbations.
    pub fn scaled_down(self, divisor: u64) -> WorkloadSpec {
        let shape = match self.shape {
            Shape::Devices(fleet) => {
                let short = (fleet.duration_s / divisor).max(40);
                let shrink =
                    |seconds: u64, floor: u64| (seconds * short / fleet.duration_s).max(floor);
                Shape::Devices(Devices {
                    duration_s: short,
                    reference_s: (fleet.reference_s * 4 / divisor).max(4),
                    perturb_every_s: shrink(fleet.perturb_every_s, 10),
                    perturb_for_s: shrink(fleet.perturb_for_s, 4),
                    ..fleet
                })
            }
            Shape::Churn { streams } => Shape::Churn {
                streams: (u64::from(streams) / divisor).max(40) as u32,
            },
        };
        // A couple of samples of everything is all a smoke test needs.
        let round = RoundPlan {
            maintain_copies: self.round.maintain_copies.min(1),
            cold_passes: 2,
            query_blocks: 2,
            repro_targets: self.round.repro_targets.min(3),
        };
        WorkloadSpec {
            shape,
            round,
            ..self
        }
    }

    /// One line describing the sizes, for the result file.
    pub fn sizes(&self) -> String {
        match self.shape {
            Shape::Devices(d) => format!(
                "{} devices x {} s, {} ms frames / {} ms audio, {} s reference, \
                 {} s perturbation every {} s",
                d.devices,
                d.duration_s,
                d.frame_ms,
                d.audio_ms,
                d.reference_s,
                d.perturb_for_s,
                d.perturb_every_s
            ),
            Shape::Churn { streams } => format!("churn_demo({streams} streams)"),
        }
    }
}

/// Everything one run feeds the pipeline, plus what it is scored against.
#[derive(Debug)]
pub struct Input {
    /// The trace in delivery order, stream closes included.
    pub trace: Vec<FleetEvent>,
    /// Deliveries in `trace`.
    pub events: u64,
    /// Distinct streams in `trace`.
    pub streams: u32,
    /// FNV-1a fingerprint of every delivery (`mm_sim::TraceHasher`).
    pub fingerprint: u64,
    /// Injected anomaly intervals per stream, indexed by stream id.
    pub truth: Vec<PerturbationSchedule>,
    /// Detection configuration (also what repro artifacts embed).
    pub monitor: MonitorConfig,
    /// The shared reference model every stream is scored against.
    pub model: ReferenceModel,
    /// Seconds spent generating the trace.
    pub generate_s: f64,
    /// Seconds spent learning the reference model.
    pub learn_s: f64,
}

/// Generates the workload's input from `seed`. Same seed, same input.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Result<Input, BenchError> {
    match spec.shape {
        Shape::Devices(Devices {
            devices,
            frame_ms,
            audio_ms,
            duration_s,
            reference_s,
            perturb_every_s,
            perturb_for_s,
        }) => {
            let device_scenario = |duration: Duration, reference: Duration| {
                Scenario::builder(spec.name)
                    .duration(duration)
                    .frame_period(Duration::from_millis(frame_ms))
                    .audio_period(Duration::from_millis(audio_ms))
                    .reference_duration(reference)
            };
            let duration = Duration::from_secs(duration_s);
            let period = Duration::from_secs(perturb_every_s);
            let scenarios = (0..devices)
                .map(|device| {
                    // Devices are perturbed out of phase, so the fleet is
                    // never all-quiet or all-loaded at once.
                    let phase = period * (device + 1) / (devices + 1);
                    let schedule = PerturbationSchedule::periodic(
                        Timestamp::from(phase),
                        period,
                        Duration::from_secs(perturb_for_s),
                        0.9,
                        Timestamp::from(duration),
                    )?;
                    device_scenario(duration, Duration::ZERO)
                        .perturbations(schedule)
                        .seed(mix(seed, u64::from(device) + 1))
                        .build()
                })
                .collect::<Result<Vec<Scenario>, _>>()?;
            let clean = device_scenario(
                Duration::from_secs(reference_s + 1),
                Duration::from_secs(reference_s),
            )
            .seed(mix(seed, 0))
            .build()?;

            let started = Instant::now();
            let registry = clean.registry()?;
            let simulations = scenarios
                .iter()
                .map(|scenario| Simulation::new(scenario, &registry))
                .collect::<Result<Vec<_>, _>>()?;
            let mut trace: Vec<FleetEvent> = InterleavedStreams::new(simulations)
                .map(|(stream, event)| FleetEvent::Delivery(stream, event))
                .collect();
            trace.extend((0..devices).map(|d| FleetEvent::StreamClosed(StreamId::new(d))));
            let generate_s = started.elapsed().as_secs_f64();

            let monitor = MonitorConfig::builder()
                .dimensions(registry.len())
                .reference_duration(clean.reference_duration)
                .build()?;
            let (model, learn_s) = learn_reference(&clean, &monitor)?;
            let truth = scenarios.into_iter().map(|s| s.perturbations).collect();
            Ok(finish_input(
                trace, devices, truth, monitor, model, generate_s, learn_s,
            ))
        }
        Shape::Churn { streams } => {
            let scenario = FleetScenario::churn_demo(streams, seed)?;
            let started = Instant::now();
            let mut sim = FleetSim::new(&scenario)?;
            let trace: Vec<FleetEvent> = sim.by_ref().collect();
            let generate_s = started.elapsed().as_secs_f64();
            let truth = (0..streams)
                .map(|stream| {
                    sim.truth()
                        .stream(stream)
                        .map(|t| t.anomalous.clone())
                        .unwrap_or_default()
                })
                .collect();

            // The curated model of `ChurnExperiment`: 3 s of a clean,
            // fault-free run of the device template.
            let reference = Duration::from_secs(3);
            let mut clean = scenario.device.clone();
            clean.duration = reference + Duration::from_secs(1);
            clean.reference_duration = reference;
            clean.seed = seed;
            let monitor = MonitorConfig::builder()
                .dimensions(scenario.registry()?.len())
                .reference_duration(reference)
                .build()?;
            let (model, learn_s) = learn_reference(&clean, &monitor)?;
            Ok(finish_input(
                trace, streams, truth, monitor, model, generate_s, learn_s,
            ))
        }
    }
}

/// Learns the shared model from a clean run that is one second longer
/// than its reference segment, so the session crosses into monitoring.
fn learn_reference(
    clean: &Scenario,
    monitor: &MonitorConfig,
) -> Result<(ReferenceModel, f64), BenchError> {
    let started = Instant::now();
    let registry = clean.registry()?;
    let mut simulation = Simulation::new(clean, &registry)?;
    let mut session = ReductionSession::new(monitor.clone())?;
    session.push_source(&mut simulation)?;
    let model = session.model().cloned().ok_or_else(|| {
        BenchError::Check("the reference run ended before the model was fitted".into())
    })?;
    Ok((model, started.elapsed().as_secs_f64()))
}

fn finish_input(
    trace: Vec<FleetEvent>,
    streams: u32,
    truth: Vec<PerturbationSchedule>,
    monitor: MonitorConfig,
    model: ReferenceModel,
    generate_s: f64,
    learn_s: f64,
) -> Input {
    let mut hasher = TraceHasher::new();
    let mut events = 0u64;
    for item in &trace {
        if let FleetEvent::Delivery(stream, event) = item {
            hasher.update(*stream, event);
            events += 1;
        }
    }
    Input {
        trace,
        events,
        streams,
        fingerprint: hasher.finish(),
        truth,
        monitor,
        model,
        generate_s,
        learn_s,
    }
}

/// Derives a per-device seed from the run seed (golden-ratio mix, as the
/// fleet simulator does for its pipeline seeds).
fn mix(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
