//! The fleet driver: one seeded discrete-event loop simulating many
//! devices with churn, clock chaos and unreliable delivery.
//!
//! A [`FleetScenario`] describes the fleet (device count, churn model,
//! [`FaultPlan`], fleet-wide load spikes, one seed); [`FleetSim`] turns it
//! into a single merged stream of `(StreamId, TraceEvent)` deliveries in
//! *arrival* order — which, thanks to stalls, reordering and skew, is
//! deliberately **not** timestamp order — plus explicit
//! [`FleetEvent::StreamClosed`] markers when a device's last delivery has
//! left the queue. Every injected fault is recorded in a [`FleetTruth`]
//! so `endurance-eval` can score detection per stream.
//!
//! Determinism is a hard contract: the same [`FleetScenario`] (same seed)
//! yields a byte-identical delivery stream and an identical
//! [`FleetTruth`]. `docs/SCENARIOS.md` is the normative spec of the fault
//! model, the seed-derivation rules and the ground-truth schema.

use std::collections::VecDeque;
use std::time::Duration;

use endurance_obs::{Counter, Gauge, Registry};
use serde::{Deserialize, Serialize};

use trace_model::{EventTypeRegistry, Fnv1a, StreamId, Timestamp, TraceEvent};

use crate::{
    DeliveryStats, ElementSpec, EventQueue, FaultKind, FaultPlan, FaultRecord, FleetTruth,
    PerturbationInterval, PerturbationSchedule, PipelineSpec, Scenario, SimError, SimRng,
    Simulation, StreamTruth,
};

/// How devices come and go: joins are spread uniformly over a window,
/// lifetimes are drawn uniformly per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Joins are uniform in `[0, join_window]` (fleet time).
    pub join_window: Duration,
    /// Shortest device lifetime (device-local time).
    pub lifetime_min: Duration,
    /// Longest device lifetime (device-local time).
    pub lifetime_max: Duration,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel {
            join_window: Duration::from_secs(20),
            lifetime_min: Duration::from_millis(800),
            lifetime_max: Duration::from_millis(2_400),
        }
    }
}

impl ChurnModel {
    /// Validates the model against the device template's frame period.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the lifetime range is
    /// inverted or shorter than two frame periods (a device must live
    /// long enough to emit at least a couple of windows).
    pub fn validate(&self, frame_period: Duration) -> Result<(), SimError> {
        if self.lifetime_min > self.lifetime_max {
            return Err(SimError::InvalidConfig(
                "lifetime_min must not exceed lifetime_max".into(),
            ));
        }
        if self.lifetime_min < frame_period * 2 {
            return Err(SimError::InvalidConfig(format!(
                "lifetime_min ({:?}) must be at least two frame periods ({:?})",
                self.lifetime_min,
                frame_period * 2
            )));
        }
        Ok(())
    }
}

/// A full fleet scenario: the one seed at the top derives everything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Human-readable name.
    pub name: String,
    /// Number of simulated devices (= streams).
    pub devices: u32,
    /// The per-device pipeline template. Its `duration` is overridden by
    /// each device's drawn lifetime; its `reference_duration` must be
    /// zero and its `perturbations` empty — the fleet planner owns both.
    pub device: Scenario,
    /// Join/leave behaviour.
    pub churn: ChurnModel,
    /// Fault probabilities and magnitudes.
    pub faults: FaultPlan,
    /// Fleet-wide CPU load spikes (fleet time); each hits every device
    /// alive during the interval, and therefore every shard at once.
    pub spikes: Vec<PerturbationInterval>,
    /// Master seed; see `docs/SCENARIOS.md` §3 for the derivation rules.
    pub seed: u64,
}

impl FleetScenario {
    /// Starts building a fleet scenario with the default device template,
    /// churn model and fault plan.
    pub fn builder(name: impl Into<String>) -> FleetScenarioBuilder {
        FleetScenarioBuilder {
            name: name.into(),
            devices: 1_000,
            device: None,
            churn: ChurnModel::default(),
            faults: FaultPlan::default(),
            spikes: Vec::new(),
            seed: 0,
        }
    }

    /// A ready-made chaotic fleet: default churn and faults plus two
    /// fleet-wide load spikes inside the join window.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `devices` is zero.
    pub fn churn_demo(devices: u32, seed: u64) -> Result<Self, SimError> {
        let spikes = vec![
            PerturbationInterval::new(Timestamp::from_secs(6), Timestamp::from_millis(7_500), 0.9)?,
            PerturbationInterval::new(
                Timestamp::from_secs(14),
                Timestamp::from_millis(15_200),
                0.88,
            )?,
        ];
        FleetScenario::builder("churn-demo")
            .devices(devices)
            .seed(seed)
            .spikes(spikes)
            .build()
    }

    /// The default per-device pipeline: a trimmed three-stage video path
    /// and two-stage audio path over a deliberately small playout buffer
    /// (4 frames, resume at 2), so CPU faults surface as QoS errors
    /// within a few hundred milliseconds — short-lived fleet devices
    /// cannot afford the paper pipeline's multi-second buffering delay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] only if the static spec is
    /// inconsistent, which would be a bug.
    pub fn default_device_template() -> Result<Scenario, SimError> {
        let pipeline = PipelineSpec::new(4, 2)?
            .with_video_element(ElementSpec::video(
                "source.video.packet",
                Duration::from_micros(300),
                1.6,
                0.7,
                0.10,
            )?)
            .with_video_element(ElementSpec::video(
                "video.decode",
                Duration::from_micros(6_500),
                1.9,
                0.55,
                0.12,
            )?)
            .with_video_element(ElementSpec::video(
                "video.sink.render",
                Duration::from_micros(900),
                1.0,
                1.0,
                0.08,
            )?)
            .with_audio_element(ElementSpec::audio(
                "audio.decode",
                Duration::from_micros(450),
                0.10,
            )?)
            .with_audio_element(ElementSpec::audio(
                "audio.sink.render",
                Duration::from_micros(200),
                0.08,
            )?);
        Scenario::builder("fleet-device")
            .duration(ChurnModel::default().lifetime_max)
            .reference_duration(Duration::ZERO)
            .pipeline(pipeline)
            // One audio chunk per video tick keeps the per-device event
            // rate low enough for 100k+ devices.
            .audio_period(Duration::from_millis(40))
            .build()
    }

    /// The event-type registry shared by every device in the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the template pipeline registers
    /// conflicting event-type names.
    pub fn registry(&self) -> Result<EventTypeRegistry, SimError> {
        self.device.registry()
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the fleet is empty, the
    /// churn or fault model is inconsistent, or the device template
    /// carries a reference segment or its own perturbations.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.devices == 0 {
            return Err(SimError::InvalidConfig(
                "a fleet needs at least one device".into(),
            ));
        }
        self.churn.validate(self.device.frame_period)?;
        self.faults.validate()?;
        if !self.device.reference_duration.is_zero() {
            return Err(SimError::InvalidConfig(
                "the device template must not learn locally (reference_duration must be zero); \
                 fleet monitoring uses a shared curated model"
                    .into(),
            ));
        }
        if !self.device.perturbations.is_empty() {
            return Err(SimError::InvalidConfig(
                "the device template must not carry perturbations; the fleet planner injects \
                 anomalies and load spikes per device"
                    .into(),
            ));
        }
        let mut template = self.device.clone();
        template.duration = self.churn.lifetime_max;
        template.validate()?;
        Ok(())
    }
}

/// Builder for [`FleetScenario`].
#[derive(Debug)]
pub struct FleetScenarioBuilder {
    name: String,
    devices: u32,
    device: Option<Scenario>,
    churn: ChurnModel,
    faults: FaultPlan,
    spikes: Vec<PerturbationInterval>,
    seed: u64,
}

impl FleetScenarioBuilder {
    /// Sets the device count.
    pub fn devices(mut self, devices: u32) -> Self {
        self.devices = devices;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the churn model.
    pub fn churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the fleet-wide load spikes.
    pub fn spikes(mut self, spikes: Vec<PerturbationInterval>) -> Self {
        self.spikes = spikes;
        self
    }

    /// Replaces the device template (defaults to
    /// [`FleetScenario::default_device_template`]).
    pub fn device_template(mut self, device: Scenario) -> Self {
        self.device = Some(device);
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] under the conditions listed on
    /// [`FleetScenario::validate`].
    pub fn build(self) -> Result<FleetScenario, SimError> {
        let device = match self.device {
            Some(device) => device,
            None => FleetScenario::default_device_template()?,
        };
        let scenario = FleetScenario {
            name: self.name,
            devices: self.devices,
            device,
            churn: self.churn,
            faults: self.faults,
            spikes: self.spikes,
            seed: self.seed,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

/// One item of the fleet delivery stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// An event arrived from a stream (in arrival order, not necessarily
    /// timestamp order).
    Delivery(StreamId, TraceEvent),
    /// The stream's device has left and its last in-flight delivery is
    /// out: no further events for this stream will follow. A stream whose
    /// every event was dropped can close without ever delivering.
    StreamClosed(StreamId),
}

/// Incremental FNV-1a hash over a delivery stream, used by the CI
/// determinism gate: two same-seed fleet runs must produce equal hashes.
#[derive(Debug, Clone, Default)]
pub struct TraceHasher {
    hash: Fnv1a,
}

impl TraceHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        TraceHasher::default()
    }

    /// Folds one delivery into the hash (every field of the event plus
    /// the stream id).
    pub fn update(&mut self, stream: StreamId, event: &TraceEvent) {
        self.hash.write(&stream.as_u32().to_le_bytes());
        self.hash.write(&event.timestamp.as_nanos().to_le_bytes());
        self.hash.write(&event.event_type.as_u16().to_le_bytes());
        self.hash.write(&event.payload.to_le_bytes());
        self.hash.write(&[event.severity.as_u8()]);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.hash.finish()
    }
}

/// The up-front per-device plan, derived entirely from the seed before
/// any event is generated — this is what makes the ground truth available
/// independently of the delivery stream.
#[derive(Debug, Clone)]
struct DevicePlan {
    /// Fleet time of the join.
    join: Timestamp,
    /// Device-local lifetime.
    lifetime: Duration,
    skew: Duration,
    drift: f64,
    /// Stall interval in device-local time.
    stall: Option<(Timestamp, Timestamp)>,
    /// Device-local CPU perturbations (own anomaly + mapped spikes).
    perturbations: PerturbationSchedule,
    /// The device's own anomaly intervals (local time), before merging.
    anomalies: Vec<(Timestamp, Timestamp, f64)>,
    /// Fleet-wide spikes clipped to this device's life (local time).
    spikes: Vec<(Timestamp, Timestamp, f64)>,
    scenario_seed: u64,
}

impl DevicePlan {
    /// Maps a device-local timestamp to fleet (delivered) time:
    /// `fleet = join + skew + drift × local`. The map is strictly
    /// increasing, so it preserves interval ordering and disjointness.
    fn fleet_time(&self, local: Timestamp) -> Timestamp {
        let scaled = (local.as_nanos() as f64 * self.drift).round() as u64;
        Timestamp::from_nanos(self.join.as_nanos() + self.skew.as_nanos() as u64 + scaled)
    }

    /// Inverse of [`DevicePlan::fleet_time`], saturating at local zero.
    fn local_time(&self, fleet: Timestamp) -> Timestamp {
        let base = self.join.as_nanos() + self.skew.as_nanos() as u64;
        let offset = fleet.as_nanos().saturating_sub(base);
        Timestamp::from_nanos((offset as f64 / self.drift).round() as u64)
    }
}

/// Per-device streaming state.
#[derive(Debug)]
struct DeviceSlot {
    sim: Option<Simulation>,
    rng: SimRng,
    in_flight: u32,
    finished: bool,
    closed: bool,
}

/// A queue action: either a device joins, or a scheduled delivery fires.
#[derive(Debug)]
enum Action {
    Join(u32),
    Deliver {
        device: u32,
        event: TraceEvent,
        /// Whether this delivery should pull the device's next event
        /// (false for the extra copy of a duplicated delivery).
        pull_next: bool,
    },
}

/// Derivation offsets for the per-device RNG streams (see
/// `docs/SCENARIOS.md` §3).
const PLAN_STREAM: u64 = 0;
const DELIVERY_STREAM: u64 = 1;
const STREAMS_PER_DEVICE: u64 = 2;
/// Multiplier used to derive per-device `Simulation` seeds.
const SCENARIO_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fleet simulation: plans every device from the seed, then streams
/// deliveries through a deterministic [`EventQueue`].
///
/// Memory stays bounded under churn: a device's [`Simulation`] is built
/// when its join fires and dropped when its stream closes, so only
/// concurrently-alive devices are resident.
#[derive(Debug)]
pub struct FleetSim {
    template: Scenario,
    registry: EventTypeRegistry,
    faults: FaultPlan,
    plans: Vec<DevicePlan>,
    slots: Vec<DeviceSlot>,
    queue: EventQueue<Action>,
    out: VecDeque<FleetEvent>,
    truth: FleetTruth,
    deliveries: u64,
    metrics: SimMetrics,
}

/// Registry handles for the fleet driver: deliveries yielded and the
/// discrete-event queue's depth (sampled after each pop).
#[derive(Debug)]
struct SimMetrics {
    events_total: Counter,
    queue_depth: Gauge,
}

impl SimMetrics {
    fn from_registry(registry: &Registry) -> Self {
        SimMetrics {
            events_total: registry.counter("sim_fleet_events_total"),
            queue_depth: registry.gauge("sim_fleet_queue_depth"),
        }
    }

    fn disabled() -> Self {
        Self::from_registry(&Registry::disabled())
    }
}

impl FleetSim {
    /// Plans the whole fleet from `scenario.seed` and prepares the event
    /// queue. No trace events are generated yet; the ground truth's
    /// structural part (joins, leaves, clocks, stalls, anomaly intervals)
    /// is complete as soon as this returns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the scenario is invalid.
    pub fn new(scenario: &FleetScenario) -> Result<Self, SimError> {
        scenario.validate()?;
        let registry = scenario.registry()?;
        let root = SimRng::new(scenario.seed);
        let mut plans = Vec::with_capacity(scenario.devices as usize);
        let mut slots = Vec::with_capacity(scenario.devices as usize);
        let mut streams = Vec::with_capacity(scenario.devices as usize);
        let mut queue = EventQueue::new();
        for device in 0..scenario.devices {
            let base = u64::from(device) * STREAMS_PER_DEVICE;
            let mut rng = root.derive(base + PLAN_STREAM);
            let plan = plan_device(scenario, device, &mut rng)?;
            streams.push(stream_truth(device, &plan));
            queue.schedule(plan.join, Action::Join(device));
            slots.push(DeviceSlot {
                sim: None,
                rng: root.derive(base + DELIVERY_STREAM),
                in_flight: 0,
                finished: false,
                closed: false,
            });
            plans.push(plan);
        }
        Ok(FleetSim {
            template: scenario.device.clone(),
            registry,
            faults: scenario.faults.clone(),
            plans,
            slots,
            queue,
            out: VecDeque::new(),
            truth: FleetTruth {
                seed: scenario.seed,
                spikes: scenario.spikes.clone(),
                streams,
            },
            deliveries: 0,
            metrics: SimMetrics::disabled(),
        })
    }

    /// Publishes the simulator's delivery counter and event-queue depth
    /// gauge into `registry` (`sim_fleet_events_total`,
    /// `sim_fleet_queue_depth`). Metrics do not perturb the simulation:
    /// the delivery stream and [`FleetTruth`] stay byte-identical for a
    /// given seed with or without a registry attached.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = SimMetrics::from_registry(registry);
        self
    }

    /// The ground truth for this run. Structural records (joins, leaves,
    /// clocks, stalls, anomalous intervals) are final from construction;
    /// the per-event [`DeliveryStats`] are final once the iterator is
    /// exhausted.
    pub fn truth(&self) -> &FleetTruth {
        &self.truth
    }

    /// The event-type registry shared by every stream.
    pub fn registry(&self) -> &EventTypeRegistry {
        &self.registry
    }

    /// Deliveries yielded so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Builds and starts device `d`'s pipeline simulation.
    fn start_device(&mut self, device: u32) {
        let plan = &self.plans[device as usize];
        let mut scenario = self.template.clone();
        scenario.duration = plan.lifetime;
        scenario.perturbations = plan.perturbations.clone();
        scenario.seed = plan.scenario_seed;
        let sim = Simulation::new(&scenario, &self.registry)
            .expect("device scenario was validated at plan time");
        self.slots[device as usize].sim = Some(sim);
    }

    /// Emits the stream-closed marker once the device is done and no
    /// delivery is still in flight.
    fn maybe_close(&mut self, device: u32) {
        let slot = &mut self.slots[device as usize];
        let close = slot.finished && slot.in_flight == 0 && !slot.closed;
        if close {
            slot.closed = true;
            self.out
                .push_back(FleetEvent::StreamClosed(StreamId::new(device)));
        }
    }

    /// Pulls the device's next pipeline event (skipping dropped ones),
    /// applies the clock map and delivery faults, and schedules the
    /// delivery. Marks the device finished when its pipeline is done.
    fn pull_and_schedule(&mut self, device: u32) {
        let slot = &mut self.slots[device as usize];
        let plan = &self.plans[device as usize];
        let truth = &mut self.truth.streams[device as usize];
        loop {
            let next = slot.sim.as_mut().and_then(Iterator::next);
            let Some(event) = next else {
                slot.finished = true;
                slot.sim = None; // free the pipeline state immediately
                return;
            };
            truth.delivery.emitted += 1;
            if slot.rng.chance(self.faults.drop_probability) {
                truth.delivery.dropped += 1;
                continue;
            }
            let local = event.timestamp;
            let fleet = plan.fleet_time(local);
            let mut timestamp = fleet;
            if slot.rng.chance(self.faults.regression_probability) {
                let pull = slot
                    .rng
                    .uniform(0.0, self.faults.regression_max.as_secs_f64());
                let pull_ns = Duration::from_secs_f64(pull.max(0.0)).as_nanos() as u64;
                timestamp = Timestamp::from_nanos(fleet.as_nanos().saturating_sub(pull_ns));
                truth.delivery.regressed += 1;
            }
            let mut delivery = fleet;
            if let Some((stall_start, stall_end)) = plan.stall {
                if local >= stall_start && local < stall_end {
                    delivery = plan.fleet_time(stall_end);
                    truth.delivery.stalled += 1;
                }
            }
            if slot.rng.chance(self.faults.reorder_probability) {
                let delay = slot
                    .rng
                    .uniform(0.0, self.faults.reorder_max_delay.as_secs_f64());
                delivery = delivery.saturating_add(Duration::from_secs_f64(delay.max(0.0)));
                truth.delivery.reordered += 1;
            }
            let delivered = TraceEvent { timestamp, ..event };
            slot.in_flight += 1;
            self.queue.schedule(
                delivery,
                Action::Deliver {
                    device,
                    event: delivered,
                    pull_next: true,
                },
            );
            if slot.rng.chance(self.faults.duplicate_probability) {
                truth.delivery.duplicated += 1;
                slot.in_flight += 1;
                self.queue.schedule(
                    delivery.saturating_add(Duration::from_millis(1)),
                    Action::Deliver {
                        device,
                        event: delivered,
                        pull_next: false,
                    },
                );
            }
            return;
        }
    }
}

impl Iterator for FleetSim {
    type Item = FleetEvent;

    fn next(&mut self) -> Option<FleetEvent> {
        loop {
            if let Some(item) = self.out.pop_front() {
                return Some(item);
            }
            let (_, action) = self.queue.pop()?;
            self.metrics.queue_depth.set(self.queue.len() as i64);
            match action {
                Action::Join(device) => {
                    self.start_device(device);
                    self.pull_and_schedule(device);
                    // A device whose every event was dropped closes here,
                    // without ever delivering.
                    self.maybe_close(device);
                }
                Action::Deliver {
                    device,
                    event,
                    pull_next,
                } => {
                    self.slots[device as usize].in_flight -= 1;
                    self.truth.streams[device as usize].delivery.delivered += 1;
                    self.deliveries += 1;
                    self.metrics.events_total.inc();
                    self.out
                        .push_back(FleetEvent::Delivery(StreamId::new(device), event));
                    if pull_next {
                        self.pull_and_schedule(device);
                    }
                    self.maybe_close(device);
                }
            }
        }
    }
}

/// Draws one device's plan from its derived RNG stream.
fn plan_device(
    scenario: &FleetScenario,
    device: u32,
    rng: &mut SimRng,
) -> Result<DevicePlan, SimError> {
    let churn = &scenario.churn;
    let faults = &scenario.faults;
    let join = Timestamp::from_secs_f64(rng.uniform(0.0, churn.join_window.as_secs_f64()).max(0.0));
    let lifetime = Duration::from_secs_f64(
        rng.uniform(
            churn.lifetime_min.as_secs_f64(),
            churn.lifetime_max.as_secs_f64(),
        )
        .max(churn.lifetime_min.as_secs_f64()),
    );
    let skew = Duration::from_secs_f64(rng.uniform(0.0, faults.skew_max.as_secs_f64()).max(0.0));
    let drift = 1.0 + rng.uniform(-faults.drift_max, faults.drift_max);
    let drift = if faults.drift_max == 0.0 { 1.0 } else { drift };

    let stall = if rng.chance(faults.stall_probability) {
        let life = lifetime.as_secs_f64();
        let start = rng.uniform(0.1 * life, 0.7 * life);
        let length = rng.uniform(
            faults.stall_min.as_secs_f64(),
            faults.stall_max.as_secs_f64(),
        );
        let start_ts = Timestamp::from_secs_f64(start.max(0.0));
        let end_ts = Timestamp::from_secs_f64((start + length.max(0.0)).min(life));
        (end_ts > start_ts).then_some((start_ts, end_ts))
    } else {
        None
    };

    let mut plan = DevicePlan {
        join,
        lifetime,
        skew,
        drift,
        stall,
        perturbations: PerturbationSchedule::none(),
        anomalies: Vec::new(),
        spikes: Vec::new(),
        scenario_seed: scenario.seed.wrapping_add(
            u64::from(device)
                .wrapping_add(1)
                .wrapping_mul(SCENARIO_SEED_MIX),
        ),
    };

    // Device-local CPU loads: one optional anomaly plus every fleet-wide
    // spike mapped into local time, merged where they overlap.
    let mut loads: Vec<(Timestamp, Timestamp, f64)> = Vec::new();
    if rng.chance(faults.anomaly_probability) {
        let life = lifetime.as_secs_f64();
        let max_len = faults.anomaly_max.as_secs_f64().min(0.8 * life);
        let len = rng
            .uniform(faults.anomaly_min.as_secs_f64(), max_len)
            .min(max_len);
        if len > 0.0 && len < life {
            let start = rng.uniform(0.05 * life, life - len);
            loads.push((
                Timestamp::from_secs_f64(start.max(0.0)),
                Timestamp::from_secs_f64((start.max(0.0) + len).min(life)),
                rng.uniform(faults.anomaly_load_min, faults.anomaly_load_max),
            ));
        }
    }
    let life_end = Timestamp::from_nanos(lifetime.as_nanos() as u64);
    plan.anomalies = loads.clone();
    for spike in &scenario.spikes {
        let local_start = plan.local_time(spike.start).min(life_end);
        let local_end = plan.local_time(spike.end).min(life_end);
        if local_end > local_start {
            plan.spikes.push((local_start, local_end, spike.load));
            loads.push((local_start, local_end, spike.load));
        }
    }
    plan.perturbations = merge_loads(loads)?;
    Ok(plan)
}

/// Merges possibly-overlapping load intervals into a disjoint schedule,
/// taking the maximum load where intervals overlap.
fn merge_loads(
    mut loads: Vec<(Timestamp, Timestamp, f64)>,
) -> Result<PerturbationSchedule, SimError> {
    if loads.is_empty() {
        return Ok(PerturbationSchedule::none());
    }
    loads.sort_by_key(|(start, end, _)| (*start, *end));
    let mut merged: Vec<(Timestamp, Timestamp, f64)> = Vec::with_capacity(loads.len());
    for (start, end, load) in loads {
        match merged.last_mut() {
            Some((_, last_end, last_load)) if start < *last_end => {
                *last_end = (*last_end).max(end);
                *last_load = last_load.max(load);
            }
            _ => merged.push((start, end, load)),
        }
    }
    let intervals = merged
        .into_iter()
        .map(|(start, end, load)| PerturbationInterval::new(start, end, load))
        .collect::<Result<Vec<_>, _>>()?;
    PerturbationSchedule::from_intervals(intervals)
}

/// Builds the structural ground truth for one planned device.
fn stream_truth(device: u32, plan: &DevicePlan) -> StreamTruth {
    let joined = plan.fleet_time(Timestamp::ZERO);
    let left = plan.fleet_time(Timestamp::from_nanos(plan.lifetime.as_nanos() as u64));
    let mut records = vec![
        FaultRecord {
            stream: device,
            kind: FaultKind::Join,
            at: joined,
            until: None,
            magnitude: 0.0,
        },
        FaultRecord {
            stream: device,
            kind: FaultKind::Leave,
            at: left,
            until: None,
            magnitude: 0.0,
        },
    ];
    if !plan.skew.is_zero() {
        records.push(FaultRecord {
            stream: device,
            kind: FaultKind::ClockSkew,
            at: joined,
            until: Some(left),
            magnitude: plan.skew.as_secs_f64(),
        });
    }
    if plan.drift != 1.0 {
        records.push(FaultRecord {
            stream: device,
            kind: FaultKind::ClockDrift,
            at: joined,
            until: Some(left),
            magnitude: plan.drift,
        });
    }
    if let Some((start, end)) = plan.stall {
        records.push(FaultRecord {
            stream: device,
            kind: FaultKind::Stall,
            at: plan.fleet_time(start),
            until: Some(plan.fleet_time(end)),
            magnitude: end.saturating_since(start).as_secs_f64(),
        });
    }
    // Fault records distinguish the device's own anomalies from the
    // fleet-wide spikes that overlapped its life; both are reported in
    // delivered-timestamp space via the affine clock map.
    for &(start, end, load) in &plan.anomalies {
        records.push(FaultRecord {
            stream: device,
            kind: FaultKind::DeviceAnomaly,
            at: plan.fleet_time(start),
            until: Some(plan.fleet_time(end)),
            magnitude: load,
        });
    }
    for &(start, end, load) in &plan.spikes {
        records.push(FaultRecord {
            stream: device,
            kind: FaultKind::LoadSpike,
            at: plan.fleet_time(start),
            until: Some(plan.fleet_time(end)),
            magnitude: load,
        });
    }
    // The *merged* anomalous intervals in delivered-timestamp space: the
    // clock map is strictly increasing, so sortedness and disjointness
    // are preserved. This is what eval scores against.
    let mapped: Vec<PerturbationInterval> = plan
        .perturbations
        .intervals()
        .iter()
        .map(|iv| {
            PerturbationInterval::new(plan.fleet_time(iv.start), plan.fleet_time(iv.end), iv.load)
                .expect("affine clock map preserves interval validity")
        })
        .collect();
    StreamTruth {
        stream: device,
        joined,
        left,
        skew: plan.skew,
        drift: plan.drift,
        anomalous: PerturbationSchedule::from_intervals(mapped)
            .expect("mapped intervals stay sorted and disjoint"),
        faults: records,
        delivery: DeliveryStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fleet(devices: u32, seed: u64) -> FleetScenario {
        FleetScenario::builder("test-fleet")
            .devices(devices)
            .seed(seed)
            .churn(ChurnModel {
                join_window: Duration::from_secs(2),
                lifetime_min: Duration::from_millis(400),
                lifetime_max: Duration::from_millis(1_200),
            })
            .build()
            .unwrap()
    }

    fn drain(sim: &mut FleetSim) -> (Vec<(StreamId, TraceEvent)>, Vec<StreamId>) {
        let mut deliveries = Vec::new();
        let mut closed = Vec::new();
        for item in sim {
            match item {
                FleetEvent::Delivery(stream, event) => deliveries.push((stream, event)),
                FleetEvent::StreamClosed(stream) => closed.push(stream),
            }
        }
        (deliveries, closed)
    }

    #[test]
    fn every_stream_closes_exactly_once_after_its_last_delivery() {
        let scenario = tiny_fleet(24, 7);
        let mut sim = FleetSim::new(&scenario).unwrap();
        let mut last_delivery_index = vec![None; 24];
        let mut close_index = vec![None; 24];
        for (index, item) in sim.by_ref().enumerate() {
            match item {
                FleetEvent::Delivery(stream, _) => {
                    assert!(
                        close_index[stream.index()].is_none(),
                        "delivery after close on stream {stream:?}"
                    );
                    last_delivery_index[stream.index()] = Some(index);
                }
                FleetEvent::StreamClosed(stream) => {
                    assert!(close_index[stream.index()].is_none(), "double close");
                    close_index[stream.index()] = Some(index);
                }
            }
        }
        for (device, closed) in close_index.iter().enumerate() {
            assert!(closed.is_some(), "stream {device} never closed");
        }
    }

    #[test]
    fn same_seed_is_byte_identical_different_seed_is_not() {
        let scenario = tiny_fleet(16, 42);
        let mut a = FleetSim::new(&scenario).unwrap();
        let mut b = FleetSim::new(&scenario).unwrap();
        let (da, ca) = drain(&mut a);
        let (db, cb) = drain(&mut b);
        assert_eq!(da, db);
        assert_eq!(ca, cb);
        assert_eq!(a.truth(), b.truth());
        assert!(!da.is_empty());

        let other = tiny_fleet(16, 43);
        let mut c = FleetSim::new(&other).unwrap();
        let (dc, _) = drain(&mut c);
        assert_ne!(da, dc);
    }

    #[test]
    fn truth_structure_is_final_before_streaming() {
        let scenario = tiny_fleet(32, 3);
        let mut sim = FleetSim::new(&scenario).unwrap();
        let before = sim.truth().clone();
        let _ = drain(&mut sim);
        let after = sim.truth();
        for (b, a) in before.streams.iter().zip(&after.streams) {
            assert_eq!(b.joined, a.joined);
            assert_eq!(b.left, a.left);
            assert_eq!(b.anomalous, a.anomalous);
            assert_eq!(b.faults, a.faults);
        }
        // Delivery counters, by contrast, only exist after the drain.
        let total = after.total_delivery();
        assert!(total.emitted > 0);
        assert_eq!(
            total.delivered,
            total.emitted - total.dropped + total.duplicated
        );
    }

    #[test]
    fn deliveries_respect_join_and_leave_bounds() {
        let scenario = tiny_fleet(16, 11);
        let mut sim = FleetSim::new(&scenario).unwrap();
        let truth = sim.truth().clone();
        let (deliveries, _) = drain(&mut sim);
        let slack = Duration::from_millis(20); // regression pull-back
        for (stream, event) in &deliveries {
            let st = truth.stream(stream.as_u32()).unwrap();
            assert!(
                event.timestamp.saturating_add(slack) >= st.joined,
                "event before join on {stream:?}"
            );
            assert!(
                event.timestamp <= st.left,
                "event after leave on {stream:?}"
            );
        }
    }

    #[test]
    fn fault_free_plan_delivers_in_timestamp_order_per_stream() {
        let scenario = FleetScenario::builder("no-faults")
            .devices(8)
            .seed(5)
            .faults(FaultPlan::none())
            .churn(ChurnModel {
                join_window: Duration::from_secs(1),
                lifetime_min: Duration::from_millis(400),
                lifetime_max: Duration::from_millis(900),
            })
            .build()
            .unwrap();
        let mut sim = FleetSim::new(&scenario).unwrap();
        let (deliveries, _) = drain(&mut sim);
        let mut last: Vec<Option<Timestamp>> = vec![None; 8];
        for (stream, event) in &deliveries {
            if let Some(prev) = last[stream.index()] {
                assert!(event.timestamp >= prev, "out of order without faults");
            }
            last[stream.index()] = Some(event.timestamp);
        }
        let total = sim.truth().total_delivery();
        assert_eq!(total.dropped, 0);
        assert_eq!(total.duplicated, 0);
        assert_eq!(total.reordered, 0);
        assert_eq!(total.regressed, 0);
        assert_eq!(total.stalled, 0);
    }

    #[test]
    fn default_faults_actually_inject() {
        let scenario = tiny_fleet(200, 13);
        let mut sim = FleetSim::new(&scenario).unwrap();
        let _ = drain(&mut sim);
        let truth = sim.truth();
        let total = truth.total_delivery();
        assert!(total.dropped > 0, "drops never fired");
        assert!(total.duplicated > 0, "duplicates never fired");
        assert!(total.reordered > 0, "reorders never fired");
        assert!(total.regressed > 0, "regressions never fired");
        assert!(truth.fault_count(FaultKind::Stall) > 0, "no stalls planned");
        assert!(truth.fault_count(FaultKind::ClockSkew) > 0);
        assert!(truth.fault_count(FaultKind::ClockDrift) > 0);
        assert!(truth.anomalous_streams() > 0, "no anomalies planned");
        assert_eq!(truth.fault_count(FaultKind::Join), 200);
        assert_eq!(truth.fault_count(FaultKind::Leave), 200);
    }

    #[test]
    fn spikes_reach_devices_alive_during_the_interval() {
        let spike =
            PerturbationInterval::new(Timestamp::from_millis(500), Timestamp::from_secs(1), 0.9)
                .unwrap();
        let scenario = FleetScenario::builder("spiked")
            .devices(64)
            .seed(9)
            .faults(FaultPlan::none())
            .churn(ChurnModel {
                join_window: Duration::from_millis(600),
                lifetime_min: Duration::from_millis(600),
                lifetime_max: Duration::from_millis(1_000),
            })
            .spikes(vec![spike])
            .build()
            .unwrap();
        let sim = FleetSim::new(&scenario).unwrap();
        let truth = sim.truth();
        // With joins in [0, 0.6 s] and lifetimes >= 0.6 s, every device is
        // alive somewhere inside [0.5 s, 1 s): all streams get the spike.
        assert_eq!(truth.anomalous_streams(), 64);
        for stream in &truth.streams {
            let iv = stream.anomalous.intervals()[0];
            // The mapped interval must overlap the fleet-time spike.
            assert!(iv.start < Timestamp::from_secs(1));
            assert!(iv.end > Timestamp::from_millis(500));
        }
    }

    #[test]
    fn builder_rejects_bad_templates() {
        let mut template = FleetScenario::default_device_template().unwrap();
        template.reference_duration = Duration::from_millis(200);
        assert!(FleetScenario::builder("bad")
            .device_template(template)
            .build()
            .is_err());

        assert!(FleetScenario::builder("empty").devices(0).build().is_err());

        let churn = ChurnModel {
            join_window: Duration::from_secs(1),
            lifetime_min: Duration::from_millis(10),
            lifetime_max: Duration::from_millis(20),
        };
        assert!(FleetScenario::builder("short")
            .churn(churn)
            .build()
            .is_err());
    }

    #[test]
    fn trace_hasher_distinguishes_streams_and_fields() {
        let ev = TraceEvent::new(
            Timestamp::from_millis(1),
            trace_model::EventTypeId::new(2),
            3,
        );
        let mut a = TraceHasher::new();
        a.update(StreamId::new(0), &ev);
        let mut b = TraceHasher::new();
        b.update(StreamId::new(1), &ev);
        assert_ne!(a.finish(), b.finish());
        let mut c = TraceHasher::new();
        c.update(StreamId::new(0), &ev.with_payload(4));
        assert_ne!(a.finish(), c.finish());
        let mut d = TraceHasher::new();
        d.update(StreamId::new(0), &ev);
        assert_eq!(a.finish(), d.finish());
    }
}
