//! The measurement loop every workload shares, and the metrics it
//! derives from one run.
//!
//! Load shape on the host: a closed loop of one benchmark thread
//! running reps back to back. One rep builds the workload's inputs
//! (timed as `setup_s`), runs the timed part (`wall_s`), and is then
//! checked untimed. A warm-up rep is discarded; its simulated outcome
//! is the reference every later rep must reproduce exactly. In a traced
//! run, reps alternate traced and untraced, so the ratio of the two
//! medians is the tracing overhead.

use std::collections::BTreeMap;

use crate::stats::{self, Better, Summary};
use crate::trace::{self, now_ns, Span};

/// The simulated outcome of one rep. Deterministic: two reps of one
/// workload and seed must produce equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Operations the simulated system was asked to perform
    /// (requests, or invocations).
    pub attempted: u64,
    /// Of those, the ones that failed, were shed, or timed out.
    pub failed: u64,
    /// Simulated end-to-end outcomes.
    pub metrics: Vec<Outcome>,
}

/// One simulated outcome. Deterministic for a seed, so `--compare`
/// holds it exact, in its direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

pub fn lower(name: &'static str, value: f64, unit: &'static str) -> Outcome {
    Outcome {
        name,
        value,
        unit,
        better: Better::Lower,
    }
}

pub fn higher(name: &'static str, value: f64, unit: &'static str) -> Outcome {
    Outcome {
        name,
        value,
        unit,
        better: Better::Higher,
    }
}

/// One benchmark workload.
pub trait Workload {
    type State;

    /// Builds the inputs and the simulated system from the seed-derived
    /// configuration. `probe` installs the Desiccant probe in place of
    /// the plain manager.
    fn setup(&self, probe: bool) -> Self::State;

    /// The timed part: what a user of the system waits for.
    fn run(&self, st: &mut Self::State) -> Sim;

    /// Untimed correctness checks of one rep.
    fn verify(&self, st: &Self::State) -> Result<(), String>;

    /// A digest of the rep's final simulated state.
    fn digest(&self, st: &Self::State) -> u64;

    /// The same digest from an independent control: the repository's
    /// own driver of the protocol, run on the same inputs. It must
    /// equal [`Workload::digest`] of the warm-up rep (probe installed)
    /// and of the first timed rep without the probe.
    fn control(&self) -> u64;

    /// Per-layer work counters of the timed part that the simulation
    /// itself reports; read after each traced rep.
    fn counters(&self, st: &Self::State) -> Vec<(&'static str, u64)>;
}

/// How long to measure, and whether to trace.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub trace: bool,
    pub min_reps: usize,
}

/// Everything one run measured.
pub struct Measured {
    pub sim: Sim,
    pub setup_s: Vec<f64>,
    /// Wall seconds of the untraced reps.
    pub wall_s: Vec<f64>,
    /// Wall seconds of the traced reps.
    pub traced_wall_s: Vec<f64>,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Reps counted in `attempted`/`failed`.
    pub reps: u64,
}

pub fn measure<W: Workload>(w: &W, plan: &Plan) -> Result<Measured, String> {
    let mut st = w.setup(true);
    let reference = w.run(&mut st);
    w.verify(&st).map_err(|e| format!("warm-up rep: {e}"))?;
    let warm_digest = w.digest(&st);
    // The control runs with no rep alive, so peak memory stays that of
    // one rep.
    drop(st);
    let control = w.control();
    let oracle = |rep: &str, got: u64| {
        if got == control {
            Ok(())
        } else {
            Err(format!(
                "{rep}: state digest {got:016x} differs from the control run's {control:016x}"
            ))
        }
    };
    oracle("warm-up rep (probe installed)", warm_digest)?;

    let mut m = Measured {
        sim: reference,
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        traced_wall_s: Vec::new(),
        spans: Vec::new(),
        counts: BTreeMap::new(),
        reps: 0,
    };
    let deadline = now_ns().saturating_add((plan.seconds * 1e9) as u64);
    let mut oracle_done = false;
    let mut rep = 0u32;
    loop {
        let traced = plan.trace && rep.is_multiple_of(2);
        let t0 = now_ns();
        if traced {
            trace::begin_root("setup", rep);
        }
        let mut st = w.setup(traced);
        if traced {
            trace::end_root();
        }
        let t1 = now_ns();
        if traced {
            trace::begin_root("rep", rep);
        }
        let sim = w.run(&mut st);
        if traced {
            trace::end_root();
        }
        let t2 = now_ns();
        if traced {
            for (name, n) in w.counters(&st) {
                *m.counts.entry(name).or_insert(0) += n;
            }
        }
        w.verify(&st).map_err(|e| format!("rep {rep}: {e}"))?;
        if !traced && !oracle_done {
            oracle(&format!("rep {rep}"), w.digest(&st))?;
            oracle_done = true;
        }
        if sim != m.sim {
            return Err(format!(
                "rep {rep} diverged from the warm-up rep:\n  {sim:?}\n  {:?}",
                m.sim
            ));
        }
        drop(st);
        m.setup_s.push((t1 - t0) as f64 * 1e-9);
        let wall = (t2 - t1) as f64 * 1e-9;
        if traced {
            m.traced_wall_s.push(wall);
        } else {
            m.wall_s.push(wall);
        }
        m.reps += 1;
        rep += 1;
        let enough = m.wall_s.len() >= plan.min_reps
            && (!plan.trace || m.traced_wall_s.len() >= plan.min_reps);
        if enough && now_ns() >= deadline {
            break;
        }
    }
    let (spans, recorded) = trace::take();
    for (name, n) in recorded {
        *m.counts.entry(name).or_insert(0) += n;
    }
    m.spans = spans;
    Ok(m)
}

/// One reported metric: a summary over reps, or an exact value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    pub samples: usize,
    /// Set on simulated outcomes, which `--compare` holds exact.
    pub better: Option<Better>,
}

impl Metric {
    fn of(name: impl Into<String>, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary: Summary::of(values),
            samples: values.len(),
            better: None,
        }
    }

    fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }
}

/// Reads the process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run: host time, set-up time,
/// memory, and the simulated outcome.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut out = vec![
        Metric::of("wall_s", "s", &m.wall_s),
        Metric::of("setup_s", "s", &m.setup_s),
        Metric::exact("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    for o in &m.sim.metrics {
        out.push(Metric {
            better: Some(o.better),
            ..Metric::exact(o.name, o.unit, o.value)
        });
    }
    out
}

/// Layers whose self time the traced run reports as a share of the rep.
pub const LAYERS: &[&str] = &[
    "faas",
    "desiccant",
    "runtime",
    "hotspot",
    "v8heap",
    "simos",
    "snapshot",
    "cluster",
    "workloads",
];

/// Operations whose per-call latency the traced run reports as its
/// median and tail: `(span, metric, unit)`. Informational: a workload
/// that never calls one cannot report it, so none is declared.
const OPS: &[(&str, &str, &str)] = &[
    (
        "azure-trace.generate_arrivals",
        "azure-trace.generate",
        "ms",
    ),
    ("faas.run_until", "faas.step", "ms"),
    ("faas.submit", "faas.submit", "ms"),
    ("cluster.round", "cluster.round", "ms"),
    ("desiccant.select_reclaims", "desiccant.select", "us"),
    ("runtime.launch", "runtime.launch", "us"),
    ("hotspot.invoke", "hotspot.invoke", "us"),
    ("v8heap.invoke", "v8heap.invoke", "us"),
    ("runtime.eager_gc", "runtime.eager_gc", "us"),
    ("runtime.reclaim", "runtime.reclaim", "us"),
    ("runtime.swap_out", "runtime.swap_out", "us"),
    ("simos.uss", "simos.uss", "us"),
    ("simos.ideal_uss", "simos.ideal_uss", "us"),
    ("snapshot.checkpoint_base", "snapshot.base", "ms"),
    ("snapshot.checkpoint_delta", "snapshot.delta", "ms"),
    ("snapshot.restore_chain", "snapshot.restore", "ms"),
    ("snapshot.checkpoint", "snapshot.canonical", "ms"),
];

/// Spans under roots of one kind with their self times, by rep.
type Group<'a> = BTreeMap<u32, Vec<(&'a Span, u64)>>;

/// The spans under roots named `root` (`rep` or `setup`).
fn by_root<'a>(spans: &'a [Span], selfs: &[u64], root: &str) -> Group<'a> {
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = match s.parent {
            None => Some(i),
            Some(p) => root_of.get(p).copied().flatten(),
        };
    }
    let mut out = Group::new();
    for ((s, &self_ns), r) in spans.iter().zip(selfs).zip(&root_of) {
        if r.and_then(|r| spans.get(r)).is_some_and(|r| r.name == root) {
            out.entry(s.rep).or_default().push((s, self_ns));
        }
    }
    out
}

/// The per-layer metrics of a traced run.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let selfs = trace::self_times(&m.spans);
    let reps = by_root(&m.spans, &selfs, "rep");
    let setups = by_root(&m.spans, &selfs, "setup");
    let traced = reps.len().max(1) as f64;

    let mut out = Vec::new();
    let overhead = stats::median(&m.traced_wall_s) / stats::median(&m.wall_s);
    out.push(Metric::exact("trace_overhead", "x", overhead));

    // Shares of each rep: layer self time, and the residual (the root
    // span's own self time: rep wall time no layer span covers). And
    // the share of set-up spent generating arrivals.
    let share = |groups: &Group, part: &dyn Fn(&Span, u64) -> u64| -> Vec<f64> {
        groups
            .values()
            .map(|spans| {
                let total: u64 = spans
                    .iter()
                    .filter(|(s, _)| s.parent.is_none())
                    .map(|(s, _)| s.dur())
                    .sum();
                let part: u64 = spans.iter().map(|&(s, self_ns)| part(s, self_ns)).sum();
                100.0 * part as f64 / total.max(1) as f64
            })
            .collect()
    };
    let residual = share(&reps, &|s, self_ns| {
        if s.parent.is_none() {
            self_ns
        } else {
            0
        }
    });
    out.push(Metric::of("residual_pct", "%", &residual));
    for layer in LAYERS {
        let own = share(&reps, &|s, self_ns| {
            if s.parent.is_some() && s.layer() == *layer {
                self_ns
            } else {
                0
            }
        });
        out.push(Metric::of(format!("{layer}.self_pct"), "%", &own));
    }
    let generate = share(&setups, &|s, _| {
        if s.name == "azure-trace.generate_arrivals" {
            s.dur()
        } else {
            0
        }
    });
    out.push(Metric::of("azure-trace.setup_pct", "%", &generate));

    // Work counters: identical on every traced rep, so reported per rep.
    let per_rep = |name: &str| m.counts.get(name).copied().unwrap_or(0) as f64 / traced;
    for (name, &total) in &m.counts {
        let unit = if name.contains("bytes") { "B" } else { "count" };
        out.push(Metric::exact(*name, unit, total as f64 / traced));
    }

    // Throughputs of the layers' operations, over their total time.
    let time_in = |name: &str| -> f64 {
        reps.values()
            .flatten()
            .filter(|(s, _)| s.name == name)
            .map(|(s, _)| s.dur() as f64 * 1e-9)
            .sum::<f64>()
            / traced
    };
    let self_in = |layer: &str| -> f64 {
        reps.values()
            .flatten()
            .filter(|(s, _)| s.parent.is_some() && s.layer() == layer)
            .map(|(_, self_ns)| *self_ns as f64 * 1e-9)
            .sum::<f64>()
            / traced
    };
    let rate = |work: f64, secs: f64| if secs > 0.0 { work / secs } else { 0.0 };
    let mb = |bytes: f64| bytes / (1u64 << 20) as f64;
    out.push(Metric::exact(
        "faas.events_per_s",
        "1/s",
        rate(per_rep("faas.events"), self_in("faas")),
    ));
    out.push(Metric::exact(
        "faas.submit_per_s",
        "1/s",
        rate(per_rep("faas.submitted"), time_in("faas.submit")),
    ));
    out.push(Metric::exact(
        "cluster.enqueue_per_s",
        "1/s",
        rate(per_rep("cluster.routed"), time_in("cluster.enqueue")),
    ));
    out.push(Metric::exact(
        "runtime.invokes_per_s",
        "1/s",
        rate(
            per_rep("runtime.invokes"),
            time_in("hotspot.invoke") + time_in("v8heap.invoke"),
        ),
    ));
    for (op, bytes, name) in [
        (
            "snapshot.checkpoint_base",
            "snapshot.base_bytes",
            "snapshot.base_mb_per_s",
        ),
        (
            "snapshot.checkpoint_delta",
            "snapshot.delta_bytes",
            "snapshot.delta_mb_per_s",
        ),
        (
            "snapshot.restore_chain",
            "snapshot.chain_bytes",
            "snapshot.restore_mb_per_s",
        ),
        (
            "snapshot.checkpoint",
            "snapshot.canonical_bytes",
            "snapshot.canonical_mb_per_s",
        ),
    ] {
        out.push(Metric::exact(
            name,
            "MB/s",
            rate(mb(per_rep(bytes)), time_in(op)),
        ));
    }
    let base = per_rep("snapshot.base_bytes");
    out.push(Metric::exact(
        "snapshot.delta_over_base",
        "%",
        if base > 0.0 {
            100.0 * per_rep("snapshot.delta_bytes") / base
        } else {
            0.0
        },
    ));
    let picked = per_rep("desiccant.picked");
    out.push(Metric::exact(
        "desiccant.reclaim_yield",
        "%",
        if picked > 0.0 {
            100.0 * per_rep("desiccant.reclaims_noted") / picked
        } else {
            0.0
        },
    ));

    // Per-call latencies, in set-up and timed part alike: median and
    // the highest percentile with ten samples beyond it.
    for &(span, name, unit) in OPS {
        let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
        let calls: Vec<f64> = reps
            .values()
            .chain(setups.values())
            .flatten()
            .filter(|(s, _)| s.name == span)
            .map(|(s, _)| s.dur() as f64 * scale)
            .collect();
        if calls.is_empty() {
            continue;
        }
        out.push(Metric::exact(
            format!("{name}_{unit}_p50"),
            unit,
            stats::median(&calls),
        ));
        if let Some((label, v)) = stats::tail(&calls) {
            if label != "p50" {
                out.push(Metric::exact(format!("{name}_{unit}_{label}"), unit, v));
            }
        }
    }
    out
}
