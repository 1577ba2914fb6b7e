//! Names, units, directions and bounds of every metric the benchmark
//! prints. `BENCHMARK.json` at the repository root is the one place they
//! are declared; it is compiled in and parsed once.

use std::sync::OnceLock;

use serde::Value;

use crate::json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is an improvement.
    Higher,
    /// A smaller value is an improvement.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, unique across the benchmark.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only; per-layer metrics carry 0).
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// How long one run measures for.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// The end-to-end metrics, reported on every workload.
    pub end_to_end: Vec<MetricDef>,
    /// The per-layer metrics of the traced run, layer = crate.
    pub per_layer: Vec<MetricDef>,
}

/// The declarations of the `BENCHMARK.json` this binary was built with.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|what| panic!("BENCHMARK.json: {what}"))
    })
}

fn parse(text: &str) -> Result<Declared, String> {
    let document = json::parse(text).map_err(|err| err.to_string())?;
    let list = |key: &str| {
        document
            .get(key)
            .and_then(json::items)
            .ok_or_else(|| format!("no `{key}` array"))
    };
    let text_of = |entry: &Value, key: &str| {
        entry
            .get(key)
            .and_then(json::text)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry without `{key}`"))
    };
    let metrics = |key: &str, bounded: bool| {
        list(key)?
            .iter()
            .map(|entry| {
                Ok(MetricDef {
                    name: text_of(entry, "name")?,
                    unit: text_of(entry, "unit")?,
                    better: match text_of(entry, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("`better` is `{other}`")),
                    },
                    bound: match entry.get("bound").and_then(json::number) {
                        Some(bound) if bounded => bound,
                        None if !bounded => 0.0,
                        _ => return Err(format!("`bound` of a `{key}` metric")),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()
    };
    Ok(Declared {
        run_seconds: document
            .get("run_seconds")
            .and_then(json::number)
            .ok_or("no `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|entry| text_of(entry, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

/// Measured values keyed by metric name, in the order they were set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// An empty set.
    pub fn new() -> Self {
        Values(Vec::new())
    }

    /// Records `name = value`. Panics when the name is set twice: every
    /// metric is printed exactly once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric `{name}` set twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Checks that exactly the metrics of `defs` are present and finite,
    /// and returns them in `defs` order.
    pub fn checked<'d>(&self, defs: &'d [MetricDef]) -> Result<Vec<(&'d MetricDef, f64)>, String> {
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(name, _)| !defs.iter().any(|def| def.name == *name))
        {
            return Err(format!("metric `{extra}` is not declared"));
        }
        defs.iter()
            .map(|def| match self.get(&def.name) {
                Some(value) if value.is_finite() => Ok((def, value)),
                Some(value) => Err(format!("metric `{}` is not finite: {value}", def.name)),
                None => Err(format!("metric `{}` was not measured", def.name)),
            })
            .collect()
    }
}
