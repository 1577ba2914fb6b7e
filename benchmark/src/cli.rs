//! The command line: one workload per process, and the `run` / `trace` /
//! `compare` subcommands built on top of it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde::Value;

use crate::metrics::{declared, MetricDef};
use crate::run::{run_end_to_end, run_traced, RunConfig, RunOutput};
use crate::spec::{WorkloadSpec, WORKLOADS};
use crate::{compare, json, BenchError};

const USAGE: &str = "\
endurance-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dir <scratch>] [--out <file>]
endurance-benchmark run     [--seed <n>] [--seconds <s>] [--runs <k>] [--dir <scratch>] [--out <file>]
endurance-benchmark trace   [--seed <n>] [--seconds <s>] [--dir <scratch>] [--out <file>]
endurance-benchmark compare <parent.json> <change.json>

workloads: paper_steady, storm, churn";

/// The benchmark's own output directory, next to its manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch root of this process's own for the store directories: on
/// tmpfs (`/dev/shm`) where there is one to write to, so that the disk's
/// `fsync` latency is not what the store phases measure; else under
/// `out`. Created empty; the run removes it.
fn scratch_root(out: &Path) -> PathBuf {
    let name = format!("endurance-benchmark-{}", std::process::id());
    let tmpfs = Path::new("/dev/shm").join(&name);
    if std::fs::create_dir(&tmpfs).is_ok() {
        tmpfs
    } else {
        out.join(name)
    }
}

#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<u64>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, BenchError> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))
        };
        let bad = |what: &str| BenchError::Usage(format!("{flag}: {what}"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = Some(value()?.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad("must be positive"));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--runs" => {
                let runs: u64 = value()?.parse().map_err(|_| bad("not a count"))?;
                if runs == 0 {
                    return Err(bad("must be at least 1"));
                }
                flags.runs = Some(runs);
            }
            "--dir" => flags.dir = Some(PathBuf::from(value()?)),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            other => return Err(BenchError::Usage(format!("unknown argument `{other}`"))),
        }
    }
    Ok(flags)
}

/// Runs the command line `args` (without the program name).
pub fn main(args: &[String]) -> Result<(), BenchError> {
    match args.first().map(String::as_str) {
        Some("run") => suite(parse_flags(&args[1..])?, false),
        Some("trace") => suite(parse_flags(&args[1..])?, true),
        Some("compare") => match &args[1..] {
            [parent, change] => {
                let read = |path: &String| -> Result<Value, BenchError> {
                    Ok(json::parse(&std::fs::read_to_string(path)?)?)
                };
                print!("{}", compare::table(&read(parent)?, &read(change)?)?);
                Ok(())
            }
            _ => Err(BenchError::Usage("compare takes two result files".into())),
        },
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(_) => one_workload(parse_flags(args)?),
    }
}

/// One workload in this process: what the driver calls.
fn one_workload(flags: Flags) -> Result<(), BenchError> {
    let name = flags
        .workload
        .ok_or_else(|| BenchError::Usage("--workload is required".into()))?;
    let spec = WorkloadSpec::by_name(&name)
        .ok_or_else(|| BenchError::Usage(format!("no workload named `{name}`")))?;
    let traced = flags.trace.unwrap_or(false);
    let out_dir = out_dir();
    let config = RunConfig {
        spec,
        seed: flags.seed.unwrap_or(42),
        seconds: flags.seconds.unwrap_or(declared().run_seconds),
        dir: flags.dir.unwrap_or_else(|| scratch_root(&out_dir)),
        out_dir,
    };
    let (output, defs): (RunOutput, &[MetricDef]) = if traced {
        (run_traced(&config)?, &declared().per_layer)
    } else {
        (run_end_to_end(&config)?, &declared().end_to_end)
    };
    let result = result_json(&output, defs)?;
    if let Some(path) = flags.out {
        let mut document = result.clone();
        if let Value::Object(fields) = &mut document {
            fields.push(("detail".into(), output.detail.clone()));
        }
        std::fs::write(path, json::render(&document))?;
    }
    print!("{}", metrics_table(spec.name, config.seed, &result));
    println!("{}", json::render(&result));
    Ok(())
}

/// The result object the driver reads off the last line of stdout:
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(output: &RunOutput, defs: &[MetricDef]) -> Result<Value, BenchError> {
    let metrics = output.metrics.checked(defs).map_err(BenchError::Check)?;
    Ok(json::object([
        ("correct", Value::Bool(output.ops.failed == 0)),
        ("attempted", Value::UInt(output.ops.attempted)),
        ("failed", Value::UInt(output.ops.failed)),
        (
            "metrics",
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(def, value)| {
                        (
                            def.name.clone(),
                            json::object([
                                ("value", Value::Float(value)),
                                ("unit", Value::String(def.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Every metric of a result object, one per line, by name and with unit.
pub fn metrics_table(workload: &str, seed: u64, result: &Value) -> String {
    let mut table = format!("workload {workload} seed {seed}\n");
    for (name, metric) in result
        .get("metrics")
        .and_then(json::entries)
        .unwrap_or_default()
    {
        let value = metric
            .get("value")
            .and_then(json::number)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(json::text).unwrap_or("");
        table.push_str(&format!("  {name:<40} {value:>16.4} {unit}\n"));
    }
    table
}

/// `run` and `trace`: every workload, one child process each, so one
/// workload's memory and page cache never leak into the next one's
/// numbers; writes one result file.
fn suite(flags: Flags, traced: bool) -> Result<(), BenchError> {
    if flags.workload.is_some() || flags.trace.is_some() {
        return Err(BenchError::Usage(
            "run and trace take every workload; use --workload without a subcommand for one".into(),
        ));
    }
    let seed = flags.seed.unwrap_or(42);
    let seconds = flags.seconds.unwrap_or(declared().run_seconds);
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir)?;
    let exe = std::env::current_exe()?;
    let mut runs = Vec::new();
    for run in 0..flags.runs.unwrap_or(1) {
        let seed = seed + run;
        let mut workloads = Vec::new();
        for spec in WORKLOADS {
            let part = out_dir.join(format!(".part-{}-{}.json", std::process::id(), spec.name));
            let mut command = Command::new(&exe);
            command
                .args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .stdout(Stdio::piped());
            if let Some(dir) = &flags.dir {
                command.arg("--dir").arg(dir);
            }
            let child = command.output()?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            // Everything but the machine-readable last line.
            let shown = stdout
                .trim_end()
                .rsplit_once('\n')
                .map_or("", |(head, _)| head);
            println!("{shown}");
            if !child.status.success() {
                let _ = std::fs::remove_file(&part);
                return Err(BenchError::Check(format!(
                    "workload {} (seed {seed}) failed: {}",
                    spec.name, child.status
                )));
            }
            let document = json::parse(&std::fs::read_to_string(&part)?)?;
            std::fs::remove_file(&part)?;
            workloads.push((spec.name.to_string(), document));
        }
        runs.push(json::object([
            ("seed", Value::UInt(seed)),
            ("workloads", Value::Object(workloads)),
        ]));
    }
    let kind = if traced { "per_layer" } else { "end_to_end" };
    let path = flags.out.unwrap_or_else(|| {
        out_dir.join(if traced {
            "trace-metrics.json"
        } else {
            "result.json"
        })
    });
    let document = json::object([
        ("schema", Value::UInt(1)),
        ("kind", Value::String(kind.into())),
        ("seconds", Value::Float(seconds)),
        ("runs", Value::Array(runs)),
    ]);
    std::fs::write(&path, json::render(&document))?;
    println!("wrote {}", path.display());
    Ok(())
}
