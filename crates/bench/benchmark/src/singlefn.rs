//! `singlefn_matrix`: the §5.2 single-function protocol with no
//! platform, queue or manager. Every catalog function runs its
//! invocations in its own instance(s) under each of the vanilla,
//! eager, Desiccant and swap modes, measuring USS and the ideal at
//! every freeze point. This loads the runtime, the two heap models and
//! the simulated OS's page accounting; `bench::run_study` on the same
//! configuration is the oracle.

use bench::{run_study, Mode, StudyConfig};
use faas_runtime::{Instance, Language, RuntimeImage};
use simos::{SimDuration, SimTime, System};
use workloads::{FunctionSpec, FunctionState};

use crate::run::{lower, Sim, Workload};
use crate::trace::span;

pub const MODES: [Mode; 4] = [Mode::Vanilla, Mode::Eager, Mode::Desiccant, Mode::Swap];

pub struct Matrix {
    pub functions: Vec<FunctionSpec>,
    pub cfg: StudyConfig,
}

/// One (function, mode) study in progress, built as `run_study` builds
/// it.
pub struct Study {
    spec: FunctionSpec,
    mode: Mode,
    sys: System,
    stages: Vec<(Instance, FunctionState)>,
    _spare: Instance,
    uss: Vec<u64>,
    ideal: Vec<u64>,
    latency: Vec<SimDuration>,
    final_uss: u64,
}

fn launch(
    sys: &mut System,
    image: &RuntimeImage,
    libs: &faas_runtime::SharedLibs,
    cfg: &StudyConfig,
) -> Instance {
    span("runtime.launch", || {
        Instance::launch(sys, image, libs, cfg.budget, cfg.cpu_share)
    })
    .expect("the instance budget accommodates the runtime image")
}

fn invoke_span(language: Language) -> &'static str {
    match language {
        Language::Java => "hotspot.invoke",
        Language::JavaScript => "v8heap.invoke",
    }
}

impl Matrix {
    fn study(&self, spec: FunctionSpec, mode: Mode) -> Study {
        let cfg = &self.cfg;
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(spec.language);
        let libs = image.register_files(&mut sys);
        let spare = launch(&mut sys, &image, &libs, cfg);
        let stages = (0..spec.chain_len)
            .map(|stage| {
                (
                    launch(&mut sys, &image, &libs, cfg),
                    FunctionState::new(stage, cfg.seed),
                )
            })
            .collect();
        Study {
            spec,
            mode,
            sys,
            stages,
            _spare: spare,
            uss: Vec::new(),
            ideal: Vec::new(),
            latency: Vec::new(),
            final_uss: 0,
        }
    }

    fn run_one(&self, s: &mut Study) {
        let cfg = &self.cfg;
        let spec = s.spec;
        let mut now = SimTime::ZERO;
        for _ in 0..cfg.iterations {
            let mut wall = SimDuration::ZERO;
            for (inst, state) in &mut s.stages {
                let report = span(invoke_span(spec.language), || {
                    inst.invoke(&mut s.sys, now, &spec.exec, |ctx| state.invoke(&spec, ctx))
                })
                .expect("calibrated workload fits its instance");
                wall += report.wall_time;
                now += report.wall_time;
                if s.mode == Mode::Eager {
                    now += span("runtime.eager_gc", || inst.eager_gc(&mut s.sys))
                        .expect("eager GC cannot fail");
                }
                span("workloads.complete_transfer", || {
                    state.complete_transfer(inst.heap_mut().graph_mut())
                });
            }
            s.latency.push(wall);
            let sys = &s.sys;
            s.uss.push(span("simos.uss", || {
                s.stages.iter().map(|(i, _)| i.uss(sys)).sum()
            }));
            s.ideal.push(span("simos.ideal_uss", || {
                s.stages.iter().map(|(i, _)| i.ideal_uss(sys)).sum()
            }));
            now += cfg.gap;
        }
        for (inst, _) in &mut s.stages {
            match s.mode {
                Mode::Desiccant => {
                    span("runtime.reclaim", || {
                        inst.reclaim(&mut s.sys, now, cfg.keep_weak)
                    })
                    .expect("reclaim cannot fail");
                }
                Mode::Swap => {
                    span("runtime.swap_out", || inst.swap_out_all(&mut s.sys))
                        .expect("swap cannot fail");
                }
                Mode::Vanilla | Mode::Eager => {}
            }
        }
        let sys = &s.sys;
        s.final_uss = span("simos.uss", || {
            s.stages.iter().map(|(i, _)| i.uss(sys)).sum()
        });
    }

    fn checksum(s: &Study) -> u64 {
        s.stages.iter().fold(0u64, |acc, (_, st)| {
            acc.wrapping_mul(31).wrapping_add(st.checksum())
        })
    }
}

/// FNV-1a over every study's checksum, USS and ideal series, and final
/// USS, in matrix order.
fn fold<'a>(outcomes: impl Iterator<Item = (u64, &'a Vec<u64>, &'a Vec<u64>, u64)>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (checksum, uss, ideal, final_uss) in outcomes {
        let words = [checksum, final_uss]
            .into_iter()
            .chain(uss.iter().copied())
            .chain(ideal.iter().copied());
        for w in words {
            cluster::fnv64_update(&mut h, &w.to_le_bytes());
        }
    }
    h
}

impl Workload for Matrix {
    type State = Vec<Study>;

    fn setup(&self, _probe: bool) -> Vec<Study> {
        let mut out = Vec::with_capacity(self.functions.len() * MODES.len());
        for &spec in &self.functions {
            for mode in MODES {
                out.push(self.study(spec, mode));
            }
        }
        out
    }

    fn run(&self, studies: &mut Vec<Study>) -> Sim {
        for s in studies.iter_mut() {
            self.run_one(s);
        }
        let mut latency: Vec<f64> = studies
            .iter()
            .flat_map(|s| s.latency.iter().map(|d| d.as_millis_f64()))
            .collect();
        latency.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            let rank = ((q * latency.len() as f64).ceil() as usize).clamp(1, latency.len().max(1));
            latency.get(rank - 1).copied().unwrap_or(0.0)
        };
        let frozen: u64 = studies
            .iter()
            .filter(|s| s.mode == Mode::Desiccant)
            .map(|s| s.final_uss)
            .sum();
        Sim {
            attempted: latency.len() as u64,
            failed: 0,
            metrics: vec![
                lower("sim_p50_ms", pct(0.5), "ms"),
                lower("sim_p99_ms", pct(0.99), "ms"),
                lower("sim_frozen_mb", frozen as f64 / (1u64 << 20) as f64, "MB"),
            ],
        }
    }

    fn verify(&self, studies: &Vec<Study>) -> Result<(), String> {
        for s in studies {
            if s.uss.len() != self.cfg.iterations as usize || s.ideal.len() != s.uss.len() {
                return Err(format!(
                    "{} {:?}: incomplete USS series",
                    s.spec.name, s.mode
                ));
            }
        }
        Ok(())
    }

    fn digest(&self, studies: &Vec<Study>) -> u64 {
        let outcomes = studies
            .iter()
            .map(|s| (Matrix::checksum(s), &s.uss, &s.ideal, s.final_uss));
        fold(outcomes)
    }

    fn control(&self) -> u64 {
        let mut outcomes = Vec::new();
        for spec in &self.functions {
            for mode in MODES {
                outcomes.push(run_study(spec, mode, &self.cfg));
            }
        }
        fold(
            outcomes
                .iter()
                .map(|o| (o.checksum, &o.uss, &o.ideal, o.final_uss)),
        )
    }

    fn counters(&self, studies: &Vec<Study>) -> Vec<(&'static str, u64)> {
        let mut gc = [0u64; 4];
        let mut invokes = 0u64;
        for s in studies {
            for (inst, _) in &s.stages {
                let c = inst.heap().counters();
                gc[0] += c.young_collections;
                gc[1] += c.full_collections;
                gc[2] += c.bytes_copied;
                gc[3] += c.bytes_freed;
                invokes += inst.warmth();
            }
        }
        let uss_calls = studies
            .iter()
            .map(|s| (s.uss.len() as u64 + 1) * s.stages.len() as u64)
            .sum();
        vec![
            ("runtime.invokes", invokes),
            ("gc-core.young_collections", gc[0]),
            ("gc-core.full_collections", gc[1]),
            ("gc-core.bytes_copied", gc[2]),
            ("gc-core.bytes_freed", gc[3]),
            ("simos.uss_calls", uss_calls),
        ]
    }
}
