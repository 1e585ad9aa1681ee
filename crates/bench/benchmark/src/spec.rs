//! The benchmark's declaration, `BENCHMARK.json` at the repository
//! root, compiled in: the workloads, and each metric's unit, direction
//! and regression bound. The binary emits exactly the declared metrics
//! and `--compare` judges them by the declared bounds.

use crate::json::Json;
use crate::stats::{Better, Bound};

const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// Absolute floors under the declared shares: set-up takes a few
/// milliseconds on some workloads, and moves by more than any share of
/// itself.
const FLOORS: &[(&str, f64)] = &[("setup_s", 0.005)];

#[derive(Debug, Clone)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Bound,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let decls = |key: &str| -> Result<Vec<Decl>, String> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let name = m
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("metric without a name")?;
                    if !valid_name(name) {
                        return Err(format!("invalid metric name `{name}`"));
                    }
                    let better = match m.get("better").and_then(Json::as_str) {
                        Some("lower") => Better::Lower,
                        Some("higher") => Better::Higher,
                        _ => return Err(format!("{name}: `better` must be lower or higher")),
                    };
                    let floor = FLOORS.iter().find(|(n, _)| *n == name).map_or(0.0, |f| f.1);
                    Ok(Decl {
                        name: name.to_string(),
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        better,
                        bound: Bound {
                            share: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                            floor,
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
        })
    }
}

/// Whether `name` is a valid metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}
