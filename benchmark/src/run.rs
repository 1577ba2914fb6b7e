//! One workload, start to finish: set-up, rounds of the five phases until
//! the time is up, the output checks, and the metrics that come out.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use trace_model::codec::{BinaryEncoder, TraceEncoder};

use crate::isolation::{self, Isolation};
use crate::metrics::Values;
use crate::pipeline::{
    self, cold_replay, follower_lags_ns, ingest, maintain, open_queries, strided, ColdPass, Ingest,
    Maintain, Ops, Probe, Repro, ReproSample, SplitMix,
};
use crate::spec::{generate, Input, RoundPlan, WorkloadSpec};
use crate::stats::{median, quantile, NsHistogram, Sectioned, Summary};
use crate::tracer::{spans_to_json, totals_by_name, SpanTotals, Tracer};
use crate::{json, BenchError};

/// Set-ups per run, at least; `setup_s` is their lower decile.
const MIN_SETUPS: usize = 5;
/// Set-up repeats until it has taken this long in total or this many
/// times, so that a workload whose set-up takes milliseconds gets more
/// samples of it.
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUPS: usize = 25;
/// Measured rounds, at least (after the warm-up round).
const MIN_ROUNDS: usize = 3;
/// `Snapshot::window_events` calls per block.
const QUERY_BLOCK: usize = 2_000;
/// Repro targets of the traced run.
const TRACED_REPRO_TARGETS: usize = 5;
/// Point queries and artifacts `pipeline_s` charges for: the trace of one
/// run answered 50 000 queries and turned into five regression tests.
const PIPELINE_QUERIES: f64 = 50_000.0;
const PIPELINE_ARTIFACTS: f64 = 5.0;
/// A phase may leave at most this share of its wall time outside spans.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload and its sizes.
    pub spec: WorkloadSpec,
    /// Seed of the generated input.
    pub seed: u64,
    /// How long the rounds run for, the warm-up round included.
    pub seconds: f64,
    /// Scratch root for the store directories; must not hold anything.
    pub dir: PathBuf,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// What a run hands back.
#[derive(Debug)]
pub struct RunOutput {
    /// Every metric of the run's kind, by name.
    pub metrics: Values,
    /// Operations attempted / failed over the whole run.
    pub ops: Ops,
    /// Everything else worth keeping: summaries, counts, environment.
    pub detail: Value,
}

/// The scratch root of one run, removed when the run ends either way.
#[derive(Debug)]
struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    fn claim(root: &Path) -> Result<Scratch, BenchError> {
        if let Ok(mut entries) = std::fs::read_dir(root) {
            if entries.next().is_some() {
                return Err(BenchError::Usage(format!(
                    "{} is not empty; the benchmark only writes into a directory of its own",
                    root.display()
                )));
            }
        }
        std::fs::create_dir_all(root)?;
        Ok(Scratch {
            root: root.to_path_buf(),
            next: 0,
        })
    }

    fn fresh_store(&mut self) -> Result<PathBuf, BenchError> {
        let dir = self.root.join(format!("store-{}", self.next));
        self.next += 1;
        std::fs::create_dir(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Set-up, timed as a whole: generate the trace, learn the model, make
/// the first store directory.
fn setup(config: &RunConfig, scratch: &mut Scratch) -> Result<(Input, PathBuf, f64), BenchError> {
    let started = Instant::now();
    let input = generate(&config.spec, config.seed)?;
    let dir = scratch.fresh_store()?;
    Ok((input, dir, started.elapsed().as_secs_f64()))
}

/// `ETRC` bytes of the whole input, one encoded block per stream: what
/// storing everything in the recorder's own encoding would cost.
fn input_etrc_bytes(input: &Input) -> Result<u64, BenchError> {
    let mut encoder = BinaryEncoder::new();
    let mut block = Vec::new();
    let mut bytes = 0u64;
    for events in pipeline::events_by_stream(input).values() {
        block.clear();
        encoder.encode(events, &mut block)?;
        bytes += block.len() as u64;
    }
    Ok(bytes)
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), BenchError> {
    if ok {
        Ok(())
    } else {
        Err(BenchError::Check(what()))
    }
}

/// The output checks every ingest repetition must pass on its own.
fn check_ingest(rep: &Ingest, cold: &ColdPass) -> Result<(), BenchError> {
    let c = &rep.counts;
    check(
        c.windows_recorded == c.frames_written && c.frames_written == cold.windows,
        || {
            format!(
                "windows recorded ({}) / frames written ({}) / windows a cold reader lists ({}) differ",
                c.windows_recorded, c.frames_written, cold.windows
            )
        },
    )?;
    check(c.events_recorded == cold.events, || {
        format!(
            "events recorded ({}) and events replayed cold ({}) differ",
            c.events_recorded, cold.events
        )
    })?;
    check(
        c.followed_delivered == c.followed_recorded && c.followed_dropped == 0,
        || {
            format!(
                "followers saw {} of {} windows and dropped {}",
                c.followed_delivered, c.followed_recorded, c.followed_dropped
            )
        },
    )?;
    check(c.windows_recorded > 0, || {
        "no window was recorded; the workload exercises nothing downstream".into()
    })
}

/// Durations of every timed operation, in seconds unless named
/// otherwise, in the order they were taken.
#[derive(Debug, Default)]
struct Samples {
    /// Sections: see `Ingest::sections`.
    ingest: Sectioned,
    maintain_s: Vec<f64>,
    /// Sections: see `ColdPass::sections`.
    cold: Sectioned,
    /// Every point query's latency.
    query: NsHistogram,
    /// One per block of `QUERY_BLOCK` queries: the block's median latency,
    /// microseconds.
    query_block_us: Vec<f64>,
    /// One per repro target and round (the same targets, in the same
    /// order, every round).
    repro: Vec<ReproSample>,
    /// A round's artifacts. Sections: extract, minimize and verify of
    /// every target. Targets differ in cost (half of `storm`'s take twice
    /// as long as the other half), but every round takes the same ones in
    /// the same order.
    repro_round: Sectioned,
}

fn seconds(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

/// What the first round established and every later round must repeat.
#[derive(Debug)]
struct Reference {
    ingest: Ingest,
    seg_bytes_after: u64,
    store_hash: u64,
    cold_events: u64,
}

/// The state rounds share: what they measure with, what they must all
/// agree on, and what they have measured so far.
#[derive(Debug)]
struct Rounds<'a> {
    input: &'a Input,
    plan: RoundPlan,
    rng: SplitMix,
    reference: Option<Reference>,
    samples: Samples,
    ops: Ops,
    /// The repro targets, `(lane, window)`, settled by the first round.
    targets: Vec<(u32, u64)>,
    /// True-positive windows the first round passed over because the
    /// stateless oracle did not reproduce them.
    skipped_targets: u64,
}

impl<'a> Rounds<'a> {
    fn new(input: &'a Input, plan: RoundPlan, seed: u64) -> Self {
        Rounds {
            input,
            plan,
            rng: SplitMix(seed),
            reference: None,
            samples: Samples::default(),
            ops: Ops::default(),
            targets: Vec::new(),
            skipped_targets: 0,
        }
    }

    /// One round: a fresh store at `dir` taken through all five phases,
    /// observed through `probe` (inert in the untraced run). Returns the
    /// maintenance pass over the store itself.
    ///
    /// Interleaving the phases round by round spreads every metric's
    /// samples over the whole run, so a slow spell of the host touches all
    /// of them alike.
    fn run(
        &mut self,
        dir: &Path,
        scratch: &mut Scratch,
        probe: &Probe,
    ) -> Result<Maintain, BenchError> {
        let (plan, samples, ops) = (self.plan, &mut self.samples, &mut self.ops);

        // Phases 1 and 2, with the output checks between and after them.
        // The pass that reads the store back for the checks belongs to no
        // phase and is never observed.
        let rep = ingest(self.input, dir, probe)?;
        let before = cold_replay(dir, &Probe::off())?;
        check_ingest(&rep, &before)?;
        // Where maintenance is cheap it is sampled on copies of the fresh
        // store as well as on the store itself: more samples per round
        // without more ingests.
        for _ in 0..plan.maintain_copies {
            let twin = scratch.fresh_store()?;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                std::fs::copy(entry.path(), twin.join(entry.file_name()))?;
            }
            samples
                .maintain_s
                .push(maintain(&twin, probe)?.wall.as_secs_f64());
            std::fs::remove_dir_all(twin)?;
        }
        let maintained = maintain(dir, probe)?;
        ops.add(rep.ops);
        ops.add(before.ops);
        samples.ingest.push(&seconds(&rep.sections));
        samples.maintain_s.push(maintained.wall.as_secs_f64());
        let first = match &self.reference {
            None => self.reference.insert(Reference {
                ingest: rep,
                seg_bytes_after: maintained.seg_bytes_after,
                store_hash: before.hash,
                cold_events: before.events,
            }),
            Some(first) => {
                check(first.ingest.counts == rep.counts, || {
                    format!(
                        "ingest repetitions disagree: {:?} vs {:?}",
                        first.ingest.counts, rep.counts
                    )
                })?;
                check(
                    first.store_hash == before.hash
                        && first.seg_bytes_after == maintained.seg_bytes_after,
                    || "ingest repetitions left different stores".into(),
                )?;
                first
            }
        };

        // Phase 3: cold passes; each must replay what was there before
        // maintenance.
        for _ in 0..plan.cold_passes {
            let pass = cold_replay(dir, probe)?;
            check(
                pass.hash == first.store_hash && pass.events == first.cold_events,
                || "a cold pass after maintain replayed different events".into(),
            )?;
            ops.add(pass.ops);
            samples.cold.push(&seconds(&pass.sections));
        }

        // Phase 4: point queries against a fresh snapshot.
        let queries = open_queries(dir, probe)?;
        let mut block = Vec::with_capacity(QUERY_BLOCK);
        for _ in 0..plan.query_blocks {
            block.clear();
            ops.add(queries.run_block(QUERY_BLOCK, &mut self.rng, probe, &mut block));
            for ns in &block {
                samples.query.record(*ns);
            }
            block.sort_unstable();
            samples
                .query_block_us
                .push((block[(block.len() - 1) / 2] + block[block.len() / 2]) as f64 / 2e3);
        }
        drop(queries);

        // Phase 5: true-positive windows into verified regression
        // artifacts. The first round settles the targets, evenly strided
        // over `(stream, window)` order; every later round takes the same
        // ones. `docs/REPRO.md` promises that every recorded window
        // re-trips the stateless oracle; one in a few thousand of
        // `churn`'s does not (seed 128: lane 670, window 50 re-runs as
        // `CheckedNormal`). Such a window is no regression test to be
        // had: the first round reports it as skipped and lets the next
        // window take its place, so that the workload holds no operation
        // that fails. Once settled, a target that stops reproducing is a
        // failed operation.
        let candidates = &first.ingest.tp_windows;
        let mut repro = Repro::open(dir, self.input)?;
        if self.targets.is_empty() {
            for start in strided(candidates.len(), plan.repro_targets) {
                for &(lane, window) in &candidates[start..] {
                    if repro.run_target(lane, window, probe)? {
                        self.targets.push((lane, window));
                        break;
                    }
                    self.skipped_targets += 1;
                }
            }
            check(!self.targets.is_empty(), || {
                "no true-positive window reproduced".into()
            })?;
            ops.attempted += self.targets.len() as u64;
        } else {
            for &(lane, window) in &self.targets {
                ops.attempted += 1;
                if !repro.run_target(lane, window, probe)? {
                    ops.failed += 1;
                }
            }
            check(!repro.samples.is_empty(), || {
                "no repro target reproduced".into()
            })?;
        }
        let parts: Vec<Duration> = repro
            .samples
            .iter()
            .flat_map(|s| [s.extract, s.minimize, s.verify])
            .collect();
        samples.repro_round.push(&seconds(&parts));
        samples.repro.extend(repro.samples);
        Ok(maintained)
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(config: &RunConfig) -> Result<RunOutput, BenchError> {
    let mut scratch = Scratch::claim(&config.dir)?;

    let mut setup_samples = Vec::new();
    let (input, mut dir) = loop {
        let (input, dir, took) = setup(config, &mut scratch)?;
        setup_samples.push(took);
        let spent: f64 = setup_samples.iter().sum();
        if setup_samples.len() >= MIN_SETUPS && spent >= SETUP_SECONDS
            || setup_samples.len() >= MAX_SETUPS
        {
            break (input, dir);
        }
        std::fs::remove_dir(&dir)?;
    };
    let etrc_bytes = input_etrc_bytes(&input)?;

    // Round 0 warms up (page cache, allocator, lazily built state) and
    // its samples are thrown away; then rounds run until `--seconds` have
    // passed since round 0 began. The warm-up counts towards the time so
    // that a run's wall time does not grow with it while the host is
    // slow: the driver caps the time of all its runs together.
    let probe = Probe::off();
    let mut rounds = Rounds::new(&input, config.spec.round, config.seed);
    let began = Instant::now();
    rounds.run(&dir, &mut scratch, &probe)?;
    rounds.samples = Samples::default();
    // Peak memory is read here, after the set-ups and one whole pass of
    // the pipeline: later rounds only add what the allocator's per-thread
    // arenas happen to keep (measured: +4 MiB steps at random rounds), so
    // at exit the number would depend on how many rounds fit the run.
    let peak_rss_mib = peak_rss_mib()?;
    let measuring = Instant::now();
    let mut measured_rounds = 0;
    while measured_rounds < MIN_ROUNDS || began.elapsed().as_secs_f64() < config.seconds {
        std::fs::remove_dir_all(&dir)?;
        dir = scratch.fresh_store()?;
        rounds.run(&dir, &mut scratch, &probe)?;
        measured_rounds += 1;
    }
    let measured_s = measuring.elapsed().as_secs_f64();
    let Rounds {
        reference,
        samples,
        ops,
        targets,
        skipped_targets,
        ..
    } = rounds;
    check(ops.failed == 0, || {
        format!("{} of {} operations failed", ops.failed, ops.attempted)
    })?;
    let Reference {
        ingest: first,
        seg_bytes_after,
        store_hash,
        cold_events,
    } = reference.expect("the warm-up round set it");

    let setup_s = Summary::of(&setup_samples);
    let artifacts = targets.len() as f64;
    let per_artifact_ms = |round_s: f64| round_s * 1e3 / artifacts;
    let ingest_s = Summary::of(&samples.ingest.totals());
    let maintain_s = Summary::of(&samples.maintain_s);
    let cold_s = Summary::of(&samples.cold.totals());
    let query_us = samples.query.summary(1e-3);
    let query_block_us = Summary::of(&samples.query_block_us);
    let repro_ms: Vec<f64> = samples
        .repro_round
        .totals()
        .into_iter()
        .map(per_artifact_ms)
        .collect();
    let repro_ms = Summary::of(&repro_ms);

    // Every timing is the lower decile of its samples (`Summary::low`
    // says why), section by section where an operation is timed in
    // sections (`Sectioned`); the summaries under `samples` carry the
    // rest of each distribution, the median first of all.
    let ingest_low = samples.ingest.low();
    let cold_low = samples.cold.low();
    let repro_ms_per_artifact = per_artifact_ms(samples.repro_round.low());
    let mut metrics = Values::new();
    metrics.set("setup_s", setup_s.low);
    metrics.set("ingest_events_per_s", input.events as f64 / ingest_low);
    metrics.set(
        "maintain_events_per_s",
        first.counts.events_recorded as f64 / maintain_s.low,
    );
    metrics.set("cold_replay_events_per_s", cold_events as f64 / cold_low);
    metrics.set("point_query_p50_us", query_block_us.low);
    metrics.set("repro_ms_per_artifact", repro_ms_per_artifact);
    metrics.set(
        "pipeline_s",
        ingest_low
            + maintain_s.low
            + cold_low
            + query_block_us.low / 1e6 * PIPELINE_QUERIES
            + repro_ms_per_artifact / 1e3 * PIPELINE_ARTIFACTS,
    );
    metrics.set(
        "reduction_ratio",
        etrc_bytes as f64 / seg_bytes_after as f64,
    );
    metrics.set("detect_recall", first.confusion.recall());
    metrics.set("detect_precision", first.confusion.precision());
    metrics.set("peak_rss_mib", peak_rss_mib);

    let raw = |values: &[f64]| Value::Array(values.iter().copied().map(Value::Float).collect());
    let detail = json::object([
        ("workload", Value::String(config.spec.name.into())),
        ("sizes", Value::String(config.spec.sizes())),
        ("seed", Value::UInt(config.seed)),
        ("seconds", Value::Float(config.seconds)),
        ("measured_s", Value::Float(measured_s)),
        ("rounds", Value::UInt(measured_rounds as u64)),
        (
            "input_fingerprint",
            Value::String(format!("{:016x}", input.fingerprint)),
        ),
        ("input_events", Value::UInt(input.events)),
        ("input_streams", Value::UInt(u64::from(input.streams))),
        ("input_etrc_bytes", Value::UInt(etrc_bytes)),
        ("seg_bytes_after_maintain", Value::UInt(seg_bytes_after)),
        ("store_hash", Value::String(format!("{store_hash:016x}"))),
        ("counts", counts_json(&first)),
        ("ops_attempted", Value::UInt(ops.attempted)),
        ("ops_failed", Value::UInt(ops.failed)),
        ("skipped_targets", Value::UInt(skipped_targets)),
        (
            "samples",
            json::object([
                ("setup_s", setup_s.to_json()),
                ("ingest_s", ingest_s.to_json()),
                ("maintain_s", maintain_s.to_json()),
                ("cold_replay_s", cold_s.to_json()),
                ("point_query_us", query_us.to_json()),
                ("point_query_block_p50_us", query_block_us.to_json()),
                ("repro_ms", repro_ms.to_json()),
            ]),
        ),
        (
            "raw",
            json::object([
                ("setup_s", raw(&setup_samples)),
                ("ingest_s", raw(&samples.ingest.totals())),
                ("maintain_s", raw(&samples.maintain_s)),
                ("cold_replay_s", raw(&samples.cold.totals())),
                ("repro_round_s", raw(&samples.repro_round.totals())),
                ("point_query_block_p50_us", raw(&samples.query_block_us)),
            ]),
        ),
        ("environment", environment(&config.dir)),
    ]);
    Ok(RunOutput {
        metrics,
        ops,
        detail,
    })
}

fn counts_json(rep: &Ingest) -> Value {
    let c = &rep.counts;
    json::object([
        ("events_pushed", Value::UInt(c.events_pushed)),
        ("windows_monitored", Value::UInt(c.windows_monitored)),
        ("windows_scored", Value::UInt(c.windows_scored)),
        ("windows_recorded", Value::UInt(c.windows_recorded)),
        ("events_recorded", Value::UInt(c.events_recorded)),
        (
            "recorded_encoded_bytes",
            Value::UInt(c.recorded_encoded_bytes),
        ),
        ("frames_written", Value::UInt(c.frames_written)),
        ("bytes_on_disk", Value::UInt(c.bytes_on_disk)),
        ("streams_opened", Value::UInt(c.streams_opened)),
        ("streams_failed", Value::UInt(c.streams_failed)),
        ("followed_recorded", Value::UInt(c.followed_recorded)),
        ("followed_delivered", Value::UInt(c.followed_delivered)),
        ("followed_dropped", Value::UInt(c.followed_dropped)),
        ("true_positives", Value::UInt(c.confusion[0])),
        ("false_positives", Value::UInt(c.confusion[1])),
        ("false_negatives", Value::UInt(c.confusion[2])),
        ("true_negatives", Value::UInt(c.confusion[3])),
        (
            "true_positive_windows",
            Value::UInt(rep.tp_windows.len() as u64),
        ),
    ])
}

/// The traced run: one round observed through spans and a live registry,
/// plus the isolation pass; every per-layer metric.
pub fn run_traced(config: &RunConfig) -> Result<RunOutput, BenchError> {
    let mut scratch = Scratch::claim(&config.dir)?;
    let tracer = Arc::new(Tracer::enabled());
    let off = Probe::off();

    let (input, mut dir, _) = setup(config, &mut scratch)?;

    // Ingest alone first: an untraced warm-up, then untraced, traced,
    // untraced; with the round's own traced ingest that makes two of
    // each, in turn, and their difference is the cost of tracing. The
    // traced one here reports to a probe of its own.
    let warm = ingest(&input, &dir, &off)?;
    let aside = Probe::on(Arc::new(Tracer::enabled()));
    let mut alone_s = Vec::new();
    for probe in [&off, &aside, &off] {
        std::fs::remove_dir_all(&dir)?;
        dir = scratch.fresh_store()?;
        alone_s.push(ingest(&input, &dir, probe)?.wall.as_secs_f64());
    }
    // The store just written still holds `ETRC` frames; the round's
    // maintenance re-encodes its own.
    let payloads = isolation::sample_payloads(&dir, 4_000)?;
    std::fs::remove_dir_all(&dir)?;
    dir = scratch.fresh_store()?;

    let probe = Probe::on(Arc::clone(&tracer));
    let plan = RoundPlan {
        repro_targets: config.spec.round.repro_targets.max(TRACED_REPRO_TARGETS),
        ..config.spec.round
    };
    let mut rounds = Rounds::new(&input, plan, config.seed);
    let maintained = rounds.run(&dir, &mut scratch, &probe)?;
    let Rounds {
        reference,
        samples,
        ops,
        skipped_targets,
        ..
    } = rounds;
    let Reference {
        ingest: rep,
        cold_events,
        ..
    } = reference.expect("the round set it");
    check(rep.counts == warm.counts, || {
        "traced and untraced ingest disagree".into()
    })?;
    check(ops.failed == 0, || {
        format!("{} of {} operations failed", ops.failed, ops.attempted)
    })?;

    let isolated = isolation::run(&input, &payloads)?;

    // Spans must explain each phase's wall time.
    let spans = tracer.spans();
    let totals = totals_by_name(&spans);
    let mut unattributed = Vec::new();
    for phase in ["ingest", "maintain", "cold_replay", "point_query", "repro"] {
        let Some(total) = totals.get(phase) else {
            return Err(BenchError::Check(format!("phase `{phase}` left no span")));
        };
        let share = total.self_ns as f64 / total.total_ns.max(1) as f64;
        unattributed.push((phase, share));
        if share > MAX_UNATTRIBUTED {
            println!("trace.{phase}_unattributed_share {share:.4}");
            return Err(BenchError::Check(format!(
                "spans cover only {:.1} % of phase `{phase}`",
                (1.0 - share) * 100.0
            )));
        }
    }

    let metrics = layer_metrics(&LayerInputs {
        input: &input,
        rep: &rep,
        maintained: &maintained,
        cold_events: cold_events * plan.cold_passes as u64,
        samples: &samples,
        skipped_targets,
        isolated: &isolated,
        totals: &totals,
        probe: &probe,
        untraced_s: median(&[alone_s[0], alone_s[2]]),
        traced_s: median(&[alone_s[1], rep.wall.as_secs_f64()]),
    });

    std::fs::create_dir_all(&config.out_dir)?;
    let trace_file = config
        .out_dir
        .join(format!("trace-{}.json", config.spec.name));
    let by_name = Value::Object(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    json::object([
                        ("count", Value::UInt(t.count)),
                        ("total_ns", Value::UInt(t.total_ns)),
                        ("self_ns", Value::UInt(t.self_ns)),
                    ]),
                )
            })
            .collect(),
    );
    let trace = json::object([
        ("workload", Value::String(config.spec.name.into())),
        ("seed", Value::UInt(config.seed)),
        ("totals", by_name.clone()),
        ("spans", spans_to_json(&spans)),
    ]);
    std::fs::write(&trace_file, json::render(&trace))?;

    let detail = json::object([
        ("workload", Value::String(config.spec.name.into())),
        ("sizes", Value::String(config.spec.sizes())),
        ("seed", Value::UInt(config.seed)),
        (
            "input_fingerprint",
            Value::String(format!("{:016x}", input.fingerprint)),
        ),
        ("counts", counts_json(&rep)),
        ("ops_attempted", Value::UInt(ops.attempted)),
        ("ops_failed", Value::UInt(ops.failed)),
        ("spans", Value::UInt(spans.len() as u64)),
        ("span_totals", by_name),
        (
            "unattributed_share",
            Value::Object(
                unattributed
                    .iter()
                    .map(|(phase, share)| (phase.to_string(), Value::Float(*share)))
                    .collect(),
            ),
        ),
        (
            "trace_file",
            Value::String(trace_file.display().to_string()),
        ),
        ("environment", environment(&config.dir)),
    ]);
    Ok(RunOutput {
        metrics,
        ops,
        detail,
    })
}

struct LayerInputs<'a> {
    input: &'a Input,
    rep: &'a Ingest,
    maintained: &'a Maintain,
    /// Events the traced cold passes returned, all passes together.
    cold_events: u64,
    samples: &'a Samples,
    skipped_targets: u64,
    isolated: &'a Isolation,
    totals: &'a std::collections::BTreeMap<&'static str, SpanTotals>,
    probe: &'a Probe,
    untraced_s: f64,
    traced_s: f64,
}

fn layer_metrics(l: &LayerInputs<'_>) -> Values {
    let empty = SpanTotals::default();
    let span = |name: &str| l.totals.get(name).unwrap_or(&empty);
    let total_s = |name: &str| span(name).total_s();
    let p50_ms = |name: &str| {
        let mut sorted: Vec<f64> = span(name)
            .durations_ns
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            0.0
        } else {
            quantile(&sorted, 0.5)
        }
    };
    let written = l.probe.registry.snapshot();
    let read = l.probe.read_registry.snapshot();
    let histogram_sum = |name: &str| -> f64 {
        written
            .samples
            .iter()
            .filter(|sample| sample.name == name)
            .map(|sample| match &sample.value {
                endurance_obs::MetricValue::Histogram(h) => h.sum as f64,
                _ => 0.0,
            })
            .sum()
    };
    let c = &l.rep.counts;
    let events = l.input.events as f64;
    let frames = c.frames_written.max(1) as f64;

    let mut lags_us: Vec<f64> = follower_lags_ns(l.rep)
        .iter()
        .map(|ns| *ns as f64 / 1e3)
        .collect();
    lags_us.sort_by(f64::total_cmp);
    let lag = |q: f64| {
        if lags_us.is_empty() {
            0.0
        } else {
            quantile(&lags_us, q)
        }
    };
    let oracle_calls: u64 = l.samples.repro.iter().map(|s| s.oracle_calls).sum();

    let mut m = Values::new();
    m.set("mm-sim.generate_s", l.input.generate_s);
    m.set("mm-sim.events", events);
    m.set("mm-sim.streams", f64::from(l.input.streams));
    m.set(
        "trace-model.assemble_ns_per_event",
        l.isolated.assemble_ns_per_event,
    );
    m.set(
        "trace-model.etrc_encode_ns_per_event",
        l.isolated.etrc_encode_ns_per_event,
    );
    m.set(
        "trace-model.edv_encode_ns_per_event",
        l.isolated.edv_encode_ns_per_event,
    );
    m.set("trace-model.edv_bytes_ratio", l.isolated.edv_bytes_ratio);
    m.set(
        "trace-model.edv_decode_ns_per_event",
        l.isolated.edv_decode_ns_per_event,
    );
    m.set("lof-anomaly.evals", c.windows_scored as f64);
    m.set(
        "lof-anomaly.model_points",
        l.input.model.reference_windows() as f64,
    );
    m.set(
        "lof-anomaly.score_us_per_eval",
        histogram_sum("core_session_decision_ns") / 1e3 / c.windows_scored.max(1) as f64,
    );
    m.set(
        "core.push_ns_per_event",
        span("core.push_batch").self_ns as f64 / events,
    );
    m.set(
        "core.backpressure_stalls",
        written.counter_total("core_fleet_backpressure_stalls_total") as f64,
    );
    m.set("core.finish_s", total_s("core.finish"));
    m.set(
        "core.window_close_s",
        histogram_sum("core_session_window_close_ns") / 1e9,
    );
    m.set(
        "core.single_thread_events_per_s",
        l.isolated.single_thread_events_per_s,
    );
    m.set("core.learn_reference_s", l.input.learn_s);
    m.set("core.windows_monitored", c.windows_monitored as f64);
    m.set(
        "core.windows_gate_absorbed",
        (c.windows_monitored - c.windows_scored) as f64,
    );
    m.set("core.windows_scored", c.windows_scored as f64);
    m.set("core.windows_recorded", c.windows_recorded as f64);
    m.set("core.streams_opened", c.streams_opened as f64);
    m.set("core.streams_failed", c.streams_failed as f64);
    m.set(
        "core.peak_buffered_events",
        l.isolated.peak_buffered_events as f64,
    );
    m.set("store.lane_create_s", total_s("store.lane_create"));
    m.set(
        "store.lane_create_us_p50",
        p50_ms("store.lane_create") * 1e3,
    );
    m.set("store.append_s", total_s("store.append"));
    m.set(
        "store.append_us_per_frame",
        total_s("store.append") * 1e6 / frames,
    );
    m.set("store.lane_close_s", total_s("store.lane_close"));
    m.set(
        "store.frames_written",
        written.counter_total("store_frames_written_total") as f64,
    );
    m.set(
        "store.bytes_written",
        written.counter_total("store_bytes_written_total") as f64,
    );
    m.set(
        "store.rotations",
        written.counter_total("store_rotations_total") as f64,
    );
    m.set(
        "store.segments_before_maintain",
        l.maintained.segments_before as f64,
    );
    // Per pass: the round also compacts copies of the fresh store.
    m.set(
        "store.compact_s",
        span("store.compact").total_s() / span("store.compact").count.max(1) as f64,
    );
    m.set(
        "store.compact_merged_runs",
        l.maintained.report.merged_runs() as f64,
    );
    m.set(
        "store.compact_recompressed_windows",
        l.maintained.report.recompressed_windows() as f64,
    );
    m.set(
        "store.compact_reclaimed_bytes",
        l.maintained.report.reclaimed_bytes() as f64,
    );
    m.set(
        "store.segments_after_maintain",
        l.maintained.segments_after as f64,
    );
    m.set("store.crc32_ns_per_byte", l.isolated.crc32_ns_per_byte);
    m.set("store.open_ms", p50_ms("store.open"));
    m.set(
        "store.replay_ns_per_event",
        span("store.lane_events").total_ns as f64 / l.cold_events.max(1) as f64,
    );
    m.set(
        "store.segcache_hits",
        read.counter_total("store_segcache_hits_total") as f64,
    );
    m.set(
        "store.segcache_misses",
        read.counter_total("store_segcache_misses_total") as f64,
    );
    m.set(
        "store.crc_validations",
        read.counter_total("store_crc_validations_total") as f64,
    );
    m.set(
        "store.point_query_p99_us",
        l.samples.query.quantile_ns(0.99) / 1e3,
    );
    m.set(
        "serve.windows_delivered",
        written.counter_total("serve_windows_delivered_total") as f64,
    );
    m.set(
        "serve.windows_dropped",
        written.counter_total("serve_windows_dropped_total") as f64,
    );
    m.set("serve.behind_max", l.rep.follower.behind_max as f64);
    m.set("serve.lag_p50_us", lag(0.5));
    m.set("serve.lag_p99_us", lag(0.99));
    m.set("serve.recv_busy_s", total_s("serve.recv"));
    m.set("serve.pump_s", histogram_sum("serve_pump_ns") / 1e9);
    m.set(
        "serve.drain_after_close_ms",
        l.rep.follower.drain_after_close.as_secs_f64() * 1e3,
    );
    m.set("repro.extract_ms_p50", p50_ms("repro.extract"));
    m.set("repro.minimize_ms_p50", p50_ms("repro.minimize"));
    m.set("repro.verify_ms_p50", p50_ms("repro.verify"));
    m.set("repro.oracle_calls", oracle_calls as f64);
    m.set(
        "repro.oracle_ms_per_call",
        span("repro.minimize").total_ns as f64 / 1e6 / oracle_calls.max(1) as f64,
    );
    m.set("repro.skipped_targets", l.skipped_targets as f64);
    m.set(
        "obs.trace_overhead_pct",
        (l.traced_s - l.untraced_s) / l.untraced_s * 100.0,
    );
    m.set("obs.registry_series", (written.len() + read.len()) as f64);
    m
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| BenchError::Check("/proc/self/status has no VmHWM line".into()))
}

/// What the numbers depend on besides the code.
fn environment(store_dir: &Path) -> Value {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|text| !text.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    json::object([
        (
            "git_rev",
            Value::String(command("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::String(command("rustc", &["--version"]))),
        (
            "host_threads",
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workers", Value::UInt(pipeline::WORKERS as u64)),
        (
            "compact_workers",
            Value::UInt(pipeline::COMPACT_WORKERS as u64),
        ),
        ("store_fs", Value::String(filesystem_of(store_dir))),
        ("store_dir", Value::String(store_dir.display().to_string())),
    ])
}

/// File-system type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let mut at = dir.to_path_buf();
    while !at.exists() {
        if !at.pop() {
            break;
        }
    }
    let at = at.canonicalize().unwrap_or(at);
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            at.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
