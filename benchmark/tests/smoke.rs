//! Smoke test: all three workloads at a fraction of their size, every
//! output check on, and `BENCHMARK.json` held against what the benchmark
//! actually prints.

use std::path::{Path, PathBuf};

use endurance_benchmark::cli::result_json;
use endurance_benchmark::json;
use endurance_benchmark::metrics::{declared, MetricDef};
use endurance_benchmark::run::{run_end_to_end, run_traced, RunConfig, RunOutput};
use endurance_benchmark::spec::{generate, WorkloadSpec, WORKLOADS};
use serde::Value;

/// Each workload at about a fiftieth of its size.
const DIVISOR: u64 = 50;

fn config(spec: WorkloadSpec, seed: u64, tag: &str) -> RunConfig {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    RunConfig {
        spec: spec.scaled_down(DIVISOR),
        seed,
        seconds: 0.2,
        dir: root.join(format!("{}-{seed}-{tag}-scratch", spec.name)),
        out_dir: root.join(format!("{}-{seed}-{tag}-out", spec.name)),
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("`{key}` missing in {value:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The printed result holds every declared metric exactly once, with its
/// unit, and nothing else.
fn assert_prints_exactly(output: &RunOutput, defs: &[MetricDef], declared: &[Value]) {
    let result = result_json(output, defs).expect("every declared metric was measured");
    assert_eq!(field(&result, "correct"), &Value::Bool(true));
    assert_eq!(field(&result, "failed"), &Value::UInt(0));
    assert!(json::number(field(&result, "attempted")).unwrap() >= 1.0);
    let printed = json::entries(field(&result, "metrics")).unwrap();
    assert_eq!(printed.len(), declared.len());
    for metric in declared {
        let name = json::text(field(metric, "name")).unwrap();
        assert!(well_formed(name), "metric name `{name}`");
        let hits: Vec<_> = printed.iter().filter(|(n, _)| n == name).collect();
        assert_eq!(hits.len(), 1, "`{name}` printed {} times", hits.len());
        let (_, entry) = hits[0];
        assert_eq!(
            field(entry, "unit"),
            field(metric, "unit"),
            "unit of `{name}`"
        );
        let value = json::number(field(entry, "value")).unwrap();
        assert!(value.is_finite(), "`{name}` = {value}");
    }
}

#[test]
fn benchmark_json_names_the_workloads_the_code_has() {
    let declared = declared();
    assert_eq!(declared.workloads, WORKLOADS.map(|w| w.name));
    assert!(declared.workloads.iter().all(|name| well_formed(name)));
    let setup = declared
        .end_to_end
        .iter()
        .find(|def| def.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(declared
        .end_to_end
        .iter()
        .all(|def| def.bound <= setup.bound));
}

/// The parts of a result that depend on the seed alone.
fn deterministic(output: &RunOutput) -> (Value, Value, Value, [f64; 3]) {
    let metric = |name| output.metrics.get(name).unwrap();
    (
        field(&output.detail, "input_fingerprint").clone(),
        field(&output.detail, "store_hash").clone(),
        field(&output.detail, "counts").clone(),
        [
            metric("reduction_ratio"),
            metric("detect_recall"),
            metric("detect_precision"),
        ],
    )
}

fn smoke(spec: WorkloadSpec) {
    let document = benchmark_json();

    // Untraced: every end-to-end metric; all output checks run inside.
    let first = run_end_to_end(&config(spec, 42, "a")).expect("every output check passes");
    assert_prints_exactly(
        &first,
        &declared().end_to_end,
        json::items(field(&document, "end_to_end")).unwrap(),
    );
    for def in &declared().end_to_end {
        assert!(
            first.metrics.get(&def.name).unwrap() > 0.0,
            "{} is never 0",
            def.name
        );
    }

    // Same seed, same deterministic fields; the scratch root is gone.
    let again_config = config(spec, 42, "b");
    let again = run_end_to_end(&again_config).expect("every output check passes");
    assert_eq!(deterministic(&first), deterministic(&again));
    assert!(
        !again_config.dir.exists(),
        "scratch root removed on success"
    );

    // Another seed, another input.
    let other = generate(&spec.scaled_down(DIVISOR), 7).unwrap();
    assert_ne!(
        Value::String(format!("{:016x}", other.fingerprint)),
        deterministic(&first).0
    );

    // Traced: every per-layer metric, spans written out.
    let traced_config = config(spec, 42, "t");
    let traced = run_traced(&traced_config).expect("spans cover every phase");
    assert_prints_exactly(
        &traced,
        &declared().per_layer,
        json::items(field(&document, "per_layer")).unwrap(),
    );
    assert_eq!(
        field(&traced.detail, "input_fingerprint"),
        &deterministic(&first).0
    );
    let trace_file = traced_config
        .out_dir
        .join(format!("trace-{}.json", spec.name));
    let trace = json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
    let spans = json::items(field(&trace, "spans")).unwrap();
    assert!(!spans.is_empty());
    for key in ["id", "name", "start_ns", "end_ns", "parent", "thread"] {
        field(&spans[0], key);
    }
    std::fs::remove_dir_all(&traced_config.out_dir).unwrap();
}

#[test]
fn paper_steady_smoke() {
    smoke(endurance_benchmark::spec::PAPER_STEADY);
}

#[test]
fn storm_smoke() {
    smoke(endurance_benchmark::spec::STORM);
}

#[test]
fn churn_smoke() {
    smoke(endurance_benchmark::spec::CHURN);
}

#[test]
fn a_used_scratch_directory_is_refused_and_left_alone() {
    let config = config(endurance_benchmark::spec::CHURN, 1, "used");
    std::fs::create_dir_all(&config.dir).unwrap();
    let keep = config.dir.join("keep.txt");
    std::fs::write(&keep, "not the benchmark's").unwrap();
    let refused = run_end_to_end(&config).unwrap_err();
    assert!(matches!(refused, endurance_benchmark::BenchError::Usage(_)));
    assert!(keep.exists(), "a refused directory is not touched");
    std::fs::remove_dir_all(&config.dir).unwrap();
}
