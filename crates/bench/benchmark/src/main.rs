//! The Desiccant reproduction's benchmark: five workloads, end-to-end
//! host-time and simulated-outcome metrics, and per-layer timing from
//! outside each layer's public functions. See README.md.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its JSON result. Without it, every
//! workload runs in a child process of its own, one after another, and
//! the merged results go to `--out` (default
//! `target/benchmark/results.json`). Correctness checks always run;
//! any failure exits 1.

#![forbid(unsafe_code)]

mod ckpt;
mod compare;
mod fleet;
mod json;
mod probe;
mod replay;
mod run;
mod singlefn;
mod spec;
mod stats;
mod trace;

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

use azure_trace::ReplayConfig;
use bench::StudyConfig;
use simos::SimDuration;

use crate::json::{num, quote, Json};
use crate::run::{Measured, Metric, Plan};
use crate::spec::Spec;
use crate::stats::Better;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       benchmark --compare BASE.json NEW.json";

/// Where traces and the results of a full pass go, under the
/// directory the benchmark runs in.
const OUT_DIR: &str = "target/benchmark";

pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The trace's shape: which arrival pattern each catalog function
/// follows (`azure_trace::build_trace`). It is part of a workload's
/// definition, like its scale factor, so it stays fixed; `--seed`
/// draws the arrivals from it. Drawing the shape too moves host time
/// by about 10 % from seed to seed, more than the benchmark can
/// resolve.
const TRACE_SEED: u64 = 11;

/// The seeds of one run, each derived from `--seed` on its own stream.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    arrivals: u64,
    study: u64,
    order: u64,
}

impl Seeds {
    fn from(seed: u64) -> Seeds {
        let stream = |k: u64| {
            let mut s = seed ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03);
            splitmix(&mut s)
        };
        Seeds {
            arrivals: stream(1),
            study: stream(2),
            order: stream(3),
        }
    }
}

/// The §5.3 protocol: 60 s warm-up at scale factor 15, 180 s at
/// `scale`, 30 s drain. `--smoke` shrinks it to 2/8/2 s.
fn protocol(scale: f64, arrivals: u64, smoke: bool) -> ReplayConfig {
    let secs = SimDuration::from_secs;
    let (warmup, duration, drain) = if smoke {
        (secs(2), secs(8), secs(2))
    } else {
        (secs(60), secs(180), secs(30))
    };
    ReplayConfig {
        scale,
        warmup,
        warmup_scale: 15.0,
        duration,
        seed: arrivals,
        drain,
    }
}

fn measure(workload: &str, seed: u64, smoke: bool, plan: &Plan) -> Result<Measured, String> {
    let s = Seeds::from(seed);
    match workload {
        "replay_desiccant" | "replay_vanilla_saturated" => {
            let desiccant = workload == "replay_desiccant";
            let scale = if desiccant { 15.0 } else { 60.0 };
            let replay = replay::Replay {
                desiccant,
                cfg: protocol(scale, s.arrivals, smoke),
                trace_seed: TRACE_SEED,
            };
            run::measure(&replay, plan)
        }
        "cluster_outage" => {
            let nproc = std::thread::available_parallelism().map_or(1, usize::from);
            let fleet = fleet::Fleet {
                cfg: protocol(15.0, s.arrivals, smoke),
                trace_seed: TRACE_SEED,
                jobs: nproc.min(2),
            };
            run::measure(&fleet, plan)
        }
        "checkpoint_chain" => {
            let chain = if smoke {
                ckpt::Chain::new(16, 2, 2, s.order)
            } else {
                ckpt::Chain::new(1024, 8, 64, s.order)
            };
            run::measure(&chain, plan)
        }
        "singlefn_matrix" => {
            let functions = if smoke {
                ["file-hash", "fft"]
                    .iter()
                    .filter_map(|n| workloads::by_name(n))
                    .collect()
            } else {
                workloads::catalog()
            };
            let cfg = StudyConfig {
                iterations: if smoke { 5 } else { 100 },
                seed: s.study,
                ..StudyConfig::default()
            };
            run::measure(&singlefn::Matrix { functions, cfg }, plan)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(spec: &Spec, argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must lie in [0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value()?),
            "--compare" => {
                let base = value()?;
                let new = value()?;
                a.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &a.workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload `{w}`; declared: {}",
                spec.workloads.join(", ")
            ));
        }
    }
    Ok(a)
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

fn metric_json(m: &Metric) -> String {
    let better = match m.better {
        Some(Better::Lower) => ", \"better\": \"lower\"",
        Some(Better::Higher) => ", \"better\": \"higher\"",
        None => "",
    };
    format!(
        "{{\"value\": {}, \"unit\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}{better}}}",
        num(m.summary.median),
        quote(m.unit),
        num(m.summary.p25),
        num(m.summary.p75),
        m.samples
    )
}

/// Runs one workload in this process and prints its metrics, then the
/// result line.
fn run_one(spec: &Spec, a: &Args, workload: &str) -> Result<bool, String> {
    let plan = Plan {
        seconds: a.seconds,
        trace: a.trace,
        min_reps: if a.smoke { 1 } else { 3 },
    };
    let measured = match measure(workload, a.seed, a.smoke, &plan) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{workload}: CHECK FAILED: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return Ok(false);
        }
    };
    let metrics = if a.trace {
        run::per_layer(&measured)
    } else {
        run::end_to_end(&measured)
    };
    for m in &metrics {
        let spread = if m.samples > 1 {
            format!(
                " p25={} p75={} n={}",
                num(m.summary.p25),
                num(m.summary.p75),
                m.samples
            )
        } else {
            String::new()
        };
        println!(
            "{workload} {} {} {}{spread}",
            m.name,
            num(m.summary.median),
            m.unit
        );
    }
    if a.trace {
        let path = Path::new(OUT_DIR).join(format!("{workload}.trace.json"));
        write(&path, &trace::to_json(workload, &measured.spans))?;
        eprintln!("{workload}: spans written to {}", path.display());
    }

    let declared = if a.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut fields = Vec::new();
    for d in declared {
        let found = metrics.iter().find(|m| m.name == d.name);
        let value = match found {
            Some(m) if m.unit != d.unit => {
                return Err(format!(
                    "{}: measured in {}, declared in {}",
                    d.name, m.unit, d.unit
                ));
            }
            Some(m) => m.summary.median,
            // A per-layer counter of a layer this workload never calls.
            None if a.trace => 0.0,
            None => {
                return Err(format!(
                    "{workload} does not produce end-to-end metric {}",
                    d.name
                ))
            }
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&d.name),
            num(value),
            quote(&d.unit)
        ));
    }
    let attempted = measured.sim.attempted * measured.reps;
    let failed = measured.sim.failed * measured.reps;
    if let Some(out) = &a.out {
        let all: Vec<String> = metrics
            .iter()
            .map(|m| format!("{}: {}", quote(&m.name), metric_json(m)))
            .collect();
        let body = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": true, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"reps\": {}, \"metrics\": {{{}}}}}\n",
            quote(workload),
            a.seed,
            a.trace,
            measured.reps,
            all.join(", ")
        );
        write(Path::new(out), &body)?;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(true)
}

/// Runs every workload, each in a child process of this binary, and
/// merges their results.
fn run_all(spec: &Spec, a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut ok = true;
    let mut merged = Vec::new();
    for w in &spec.workloads {
        let file = Path::new(OUT_DIR).join(format!("{w}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&file);
        if a.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("cannot run {w}: {e}"))?;
        if !status.success() {
            eprintln!("{w}: exited with {status}");
            ok = false;
            continue;
        }
        let body =
            fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        Json::parse(&body).map_err(|e| format!("{}: {e}", file.display()))?;
        merged.push(format!("{}: {}", quote(w), body.trim_end()));
    }
    let out = a.out.clone().unwrap_or(format!("{OUT_DIR}/results.json"));
    let body = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{\n{}\n}}}}\n",
        a.seed,
        num(a.seconds),
        a.trace,
        merged.join(",\n")
    );
    write(Path::new(&out), &body)?;
    eprintln!("results written to {out}");
    Ok(ok)
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&spec, &argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((base, new)) = &a.compare {
        let read = |p: &String| -> Result<Json, String> {
            let text = fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        read(base).and_then(|b| read(new).and_then(|n| compare::compare(&spec, &b, &n)))
    } else if let Some(w) = a.workload.clone() {
        run_one(&spec, &a, &w)
    } else {
        run_all(&spec, &a)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced smoke run of `w`: its checks pass, it emits every
    /// declared end-to-end metric in the declared unit and never 0,
    /// and its layer self times plus the residual cover each rep.
    fn smoke(w: &str) {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert!(spec.workloads.iter().any(|d| d == w), "{w} is not declared");
        let plan = Plan {
            seconds: 0.0,
            trace: true,
            min_reps: 1,
        };
        let m = measure(w, 7, true, &plan).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(m.sim.attempted > 0, "{w} attempted nothing");
        let e2e = run::end_to_end(&m);
        let layers = run::per_layer(&m);
        for d in &spec.end_to_end {
            let found = e2e.iter().find(|x| x.name == d.name);
            let m = found.unwrap_or_else(|| panic!("{w} lacks end-to-end metric {}", d.name));
            assert_eq!(m.unit, d.unit, "{w} {}", d.name);
            assert!(m.summary.median > 0.0, "{w} {} reads 0", d.name);
        }
        for m in e2e.iter().chain(&layers) {
            assert!(spec::valid_name(&m.name), "{w}: bad metric name {}", m.name);
        }
        for d in &spec.per_layer {
            if let Some(m) = layers.iter().find(|x| x.name == d.name) {
                assert_eq!(m.unit, d.unit, "{w} {}", d.name);
            }
        }
        let covered: f64 = layers
            .iter()
            .filter(|m| m.name == "residual_pct" || m.name.ends_with(".self_pct"))
            .map(|m| m.summary.median)
            .sum();
        assert!(
            (covered - 100.0).abs() < 1e-6,
            "{w}: shares sum to {covered}"
        );
    }

    #[test]
    fn smoke_replay_desiccant() {
        smoke("replay_desiccant");
    }

    #[test]
    fn smoke_replay_vanilla_saturated() {
        smoke("replay_vanilla_saturated");
    }

    #[test]
    fn smoke_cluster_outage() {
        smoke("cluster_outage");
    }

    #[test]
    fn smoke_checkpoint_chain() {
        smoke("checkpoint_chain");
    }

    #[test]
    fn smoke_singlefn_matrix() {
        smoke("singlefn_matrix");
    }

    #[test]
    fn declared_names_are_valid_and_used_once() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|d| d.name.as_str()),
        );
        assert!(names.iter().all(|n| spec::valid_name(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is declared twice");
        assert!(spec
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert_eq!(
            spec.workloads.len(),
            5,
            "each workload has a smoke test above"
        );
    }

    #[test]
    fn seeds_are_derived_per_stream() {
        let (a, b) = (Seeds::from(7), Seeds::from(7));
        assert_eq!(
            (a.arrivals, a.study, a.order),
            (b.arrivals, b.study, b.order)
        );
        let c = Seeds::from(8);
        assert_ne!(a.arrivals, c.arrivals);
        assert_ne!(a.arrivals, a.study);
    }
}
