//! The single-function study: the measurement protocol behind
//! Figures 1, 2, 4, 7, 11, 12, and 13.
//!
//! Protocol (§3.1, §5.2): execute a function 100 times in the same
//! instance(s) — chains use one instance per stage, and their memory is
//! accumulated — and record USS at every freeze point. The *ideal*
//! baseline keeps only useful memory (live objects plus the runtime's
//! own footprint) and is measured at the same points. On OpenWhisk a
//! spare same-language instance keeps the runtime libraries shared so
//! USS excludes them, as in the paper; the Lambda flavour (§5.4) shares
//! nothing.

use faas_runtime::{Instance, RuntimeImage};
use simos::{SimDuration, SimTime, System};
use workloads::{FunctionSpec, FunctionState};

/// Memory-management mode under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Freeze without any GC (stock platform behaviour).
    Vanilla,
    /// Stock GC interface at every function exit (§3.2).
    Eager,
    /// Desiccant's reclaim, applied when memory becomes scarce (after
    /// the iterations in this protocol, as in §5.2).
    Desiccant,
    /// OS swapping instead of reclamation (§5.6 comparison).
    Swap,
}

/// Study parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Instance memory budget (256 MiB default).
    pub budget: u64,
    /// Invocations per instance (100 in the paper).
    pub iterations: u32,
    /// Lambda flavour: private libraries, larger image (§5.4).
    pub lambda_env: bool,
    /// Apply the §4.6 unmap optimization during Desiccant reclaim.
    pub unmap_libs: bool,
    /// §4.7 weak-preserving reclamation.
    pub keep_weak: bool,
    /// Instance CPU share.
    pub cpu_share: f64,
    /// Idle gap between invocations.
    pub gap: SimDuration,
    /// Workload seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            budget: 256 << 20,
            iterations: 100,
            lambda_env: false,
            unmap_libs: false,
            keep_weak: true,
            cpu_share: 0.14,
            gap: SimDuration::from_millis(100),
            seed: 7,
        }
    }
}

/// Results of one study run.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// USS at each freeze point (chains: summed over stage instances),
    /// after the mode's exit-time action.
    pub uss: Vec<u64>,
    /// Ideal memory at the same points.
    pub ideal: Vec<u64>,
    /// Committed heap bytes at the same points (summed over stages).
    pub heap_committed: Vec<u64>,
    /// Per-request wall latency (all stages).
    pub latency: Vec<SimDuration>,
    /// USS after the end-of-run reclamation (Desiccant/Swap modes;
    /// equals the last series point otherwise).
    pub final_uss: u64,
    /// RSS counterpart of `final_uss`.
    pub final_rss: u64,
    /// PSS counterpart of `final_uss`.
    pub final_pss: f64,
    /// Ideal memory at the end of the run.
    pub final_ideal: u64,
    /// Live bytes reported by the last collection (0 if none ran).
    pub final_live: u64,
    /// Kernel checksum (pins determinism in tests).
    pub checksum: u64,
}

impl StudyOutcome {
    /// `avg_ratio` of Figure 1: mean over iterations of `uss / ideal`.
    pub fn avg_ratio(&self) -> f64 {
        let n = self.uss.len().min(self.ideal.len());
        if n == 0 {
            return 0.0;
        }
        let s: f64 = self
            .uss
            .iter()
            .zip(&self.ideal)
            .map(|(u, i)| *u as f64 / (*i).max(1) as f64)
            .sum();
        s / n as f64
    }

    /// `max_ratio` of Figure 1.
    pub fn max_ratio(&self) -> f64 {
        self.uss
            .iter()
            .zip(&self.ideal)
            .map(|(u, i)| *u as f64 / (*i).max(1) as f64)
            .fold(0.0, f64::max)
    }
}

/// One instance per chain stage plus its workload state.
struct Stage {
    inst: Instance,
    state: FunctionState,
}

/// The study world: the instances under test plus a library-sharing
/// spare.
struct World {
    sys: System,
    stages: Vec<Stage>,
    _spare: Option<Instance>,
    now: SimTime,
}

impl World {
    /// One instance per stage of `spec`. On OpenWhisk the libraries are
    /// registered once and a spare instance keeps them shared, so they
    /// leave USS as in the paper's measurement; Lambda shares nothing.
    fn build(spec: &FunctionSpec, cfg: &StudyConfig) -> World {
        let mut sys = System::new();
        let image = if cfg.lambda_env {
            RuntimeImage::lambda(spec.language)
        } else {
            RuntimeImage::openwhisk(spec.language)
        };
        let shared = if cfg.lambda_env {
            None
        } else {
            Some(image.register_files(&mut sys))
        };
        let spare = shared.as_ref().map(|libs| {
            Instance::launch(&mut sys, &image, libs, cfg.budget, cfg.cpu_share).expect("spare fits")
        });
        let stages: Vec<Stage> = (0..spec.chain_len)
            .map(|stage| {
                let libs = match &shared {
                    Some(libs) => libs.clone(),
                    None => image.register_files(&mut sys),
                };
                let inst = Instance::launch(&mut sys, &image, &libs, cfg.budget, cfg.cpu_share)
                    .expect("instance budget accommodates the runtime image");
                Stage {
                    inst,
                    state: FunctionState::new(stage, cfg.seed),
                }
            })
            .collect();
        World {
            sys,
            stages,
            _spare: spare,
            now: SimTime::ZERO,
        }
    }

    /// One request: every stage in order, each followed by the eager
    /// exit-time GC under [`Mode::Eager`], then the idle gap. Returns
    /// the request's wall latency.
    fn invoke(&mut self, spec: &FunctionSpec, mode: Mode, cfg: &StudyConfig) -> SimDuration {
        let mut request_wall = SimDuration::ZERO;
        for stage in &mut self.stages {
            let report = stage
                .inst
                .invoke(&mut self.sys, self.now, &spec.exec, |ctx| {
                    stage.state.invoke(spec, ctx);
                })
                .expect("calibrated workload fits its instance");
            request_wall += report.wall_time;
            self.now += report.wall_time;
            if mode == Mode::Eager {
                self.now += stage
                    .inst
                    .eager_gc(&mut self.sys)
                    .expect("eager GC cannot fail");
            }
            // The transfer acknowledgment lands after the exit-time GC
            // (§5.2, mapreduce).
            stage
                .state
                .complete_transfer(stage.inst.heap_mut().graph_mut());
        }
        self.now += cfg.gap;
        request_wall
    }

    /// The end-of-run action of the reclaiming modes (§5.2 assumes
    /// memory has become scarce once the instance is frozen): a
    /// Desiccant reclaim, with the §4.6 unmap if configured, or a full
    /// swap-out. Returns the live bytes the last collection of every
    /// stage reported (zero after a swap-out, which collects nothing).
    fn end_of_run(&mut self, mode: Mode, cfg: &StudyConfig) -> u64 {
        let mut live = 0;
        for stage in &mut self.stages {
            live += match mode {
                Mode::Desiccant => {
                    let report = stage
                        .inst
                        .reclaim(&mut self.sys, self.now, cfg.keep_weak)
                        .expect("reclaim cannot fail");
                    if cfg.unmap_libs {
                        stage
                            .inst
                            .unmap_private_libs(&mut self.sys)
                            .expect("unmap cannot fail");
                    }
                    report.live_bytes
                }
                Mode::Swap => {
                    stage
                        .inst
                        .swap_out_all(&mut self.sys)
                        .expect("swap cannot fail");
                    0
                }
                Mode::Vanilla | Mode::Eager => stage.inst.heap().last_live_bytes(),
            };
        }
        live
    }

    /// Summed USS of the stage instances.
    fn uss(&self) -> u64 {
        self.stages.iter().map(|s| s.inst.uss(&self.sys)).sum()
    }

    /// Summed §3.1 ideal: live objects plus the runtime's non-heap
    /// footprint.
    fn ideal(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.inst.ideal_uss(&self.sys))
            .sum()
    }
}

/// Runs the full study for `spec` under `mode`.
pub fn run_study(spec: &FunctionSpec, mode: Mode, cfg: &StudyConfig) -> StudyOutcome {
    let mut world = World::build(spec, cfg);
    let mut uss_series = Vec::with_capacity(cfg.iterations as usize);
    let mut ideal_series = Vec::with_capacity(cfg.iterations as usize);
    let mut committed_series = Vec::with_capacity(cfg.iterations as usize);
    let mut latency_series = Vec::with_capacity(cfg.iterations as usize);

    for _ in 0..cfg.iterations {
        latency_series.push(world.invoke(spec, mode, cfg));
        // Freeze point: measure.
        uss_series.push(world.uss());
        ideal_series.push(world.ideal());
        committed_series.push(
            world
                .stages
                .iter()
                .map(|s| s.inst.heap().committed())
                .sum(),
        );
    }

    let final_live = world.end_of_run(mode, cfg);
    let final_uss = world.uss();
    let final_rss = world.stages.iter().map(|s| s.inst.rss(&world.sys)).sum();
    let final_pss = world.stages.iter().map(|s| s.inst.pss(&world.sys)).sum();
    let final_ideal = world.ideal();
    let checksum = world
        .stages
        .iter()
        .fold(0u64, |acc, s| acc.wrapping_mul(31).wrapping_add(s.state.checksum()));
    StudyOutcome {
        uss: uss_series,
        ideal: ideal_series,
        heap_committed: committed_series,
        latency: latency_series,
        final_uss,
        final_rss,
        final_pss,
        final_ideal,
        final_live,
        checksum,
    }
}

/// Outcome of the §5.6 post-reclamation overhead protocol.
#[derive(Debug, Clone, Copy)]
pub struct OverheadOutcome {
    /// Mean wall latency of the last 10 invocations before reclaiming.
    pub before: SimDuration,
    /// Mean wall latency of the 10 invocations after reclaiming.
    pub after: SimDuration,
}

impl OverheadOutcome {
    /// `after / before`.
    pub fn overhead(&self) -> f64 {
        self.after.as_nanos() as f64 / self.before.as_nanos().max(1) as f64
    }
}

/// The §5.6 protocol: 130 warm-up invocations, reclaim (per `mode`),
/// then 10 more, comparing mean latencies — all in one world, so the
/// reclamation acts on the exact state the warm-up produced.
pub fn run_overhead_study(spec: &FunctionSpec, mode: Mode, cfg: &StudyConfig) -> OverheadOutcome {
    let mut world = World::build(spec, cfg);
    let pre: Vec<SimDuration> = (0..130).map(|_| world.invoke(spec, mode, cfg)).collect();
    let tail: Vec<u64> = pre.iter().rev().take(10).map(|d| d.as_nanos()).collect();
    let before = SimDuration::from_nanos(tail.iter().sum::<u64>() / tail.len() as u64);
    world.end_of_run(mode, cfg);
    let post: Vec<SimDuration> = (0..10).map(|_| world.invoke(spec, mode, cfg)).collect();
    let after = SimDuration::from_nanos(
        post.iter().map(|d| d.as_nanos()).sum::<u64>() / post.len() as u64,
    );
    OverheadOutcome { before, after }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::catalog;

    fn quick(iterations: u32) -> StudyConfig {
        StudyConfig {
            iterations,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn study_produces_full_series() {
        let spec = workloads::by_name("file-hash").unwrap();
        let out = run_study(&spec, Mode::Vanilla, &quick(20));
        assert_eq!(out.uss.len(), 20);
        assert_eq!(out.ideal.len(), 20);
        assert!(out.avg_ratio() >= 1.0, "real memory below ideal?");
        assert!(out.max_ratio() >= out.avg_ratio());
    }

    #[test]
    fn desiccant_beats_eager_beats_vanilla_on_final_uss() {
        let spec = workloads::by_name("file-hash").unwrap();
        let cfg = quick(40);
        let vanilla = run_study(&spec, Mode::Vanilla, &cfg);
        let eager = run_study(&spec, Mode::Eager, &cfg);
        let desiccant = run_study(&spec, Mode::Desiccant, &cfg);
        assert!(
            eager.final_uss <= vanilla.final_uss,
            "eager {} vs vanilla {}",
            eager.final_uss,
            vanilla.final_uss
        );
        assert!(
            desiccant.final_uss < eager.final_uss,
            "desiccant {} vs eager {}",
            desiccant.final_uss,
            eager.final_uss
        );
        // Desiccant lands near the ideal.
        assert!(desiccant.final_uss as f64 <= desiccant.final_ideal as f64 * 1.5);
    }

    #[test]
    fn chains_accumulate_stage_memory() {
        let single = workloads::by_name("file-hash").unwrap();
        let chain = workloads::by_name("image-pipeline").unwrap();
        let cfg = quick(10);
        let s = run_study(&single, Mode::Vanilla, &cfg);
        let c = run_study(&chain, Mode::Vanilla, &cfg);
        assert!(c.final_uss > s.final_uss, "4-stage chain uses more memory");
    }

    #[test]
    fn studies_are_deterministic() {
        let spec = workloads::by_name("fft").unwrap();
        let cfg = quick(15);
        let a = run_study(&spec, Mode::Eager, &cfg);
        let b = run_study(&spec, Mode::Eager, &cfg);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.uss, b.uss);
        assert_eq!(a.final_uss, b.final_uss);
    }

    #[test]
    fn swap_clears_residency_like_desiccant_but_worse_latency() {
        let spec = workloads::by_name("sort").unwrap();
        let cfg = quick(30);
        let swap = run_study(&spec, Mode::Swap, &cfg);
        assert!(swap.final_rss < 1 << 20, "swap left residency behind");
        let d = run_overhead_study(&spec, Mode::Desiccant, &cfg);
        let s = run_overhead_study(&spec, Mode::Swap, &cfg);
        assert!(
            s.overhead() > d.overhead(),
            "swap-in should cost more than refault: {} vs {}",
            s.overhead(),
            d.overhead()
        );
    }

    #[test]
    fn every_function_survives_a_short_study() {
        for spec in catalog() {
            let out = run_study(&spec, Mode::Desiccant, &quick(5));
            assert!(out.final_uss > 0, "{}", spec.name);
        }
    }
}
