//! `replay_desiccant` and `replay_vanilla_saturated`: the §5.3
//! Azure-trace replay on one platform.
//!
//! The simulated side is an open loop: arrivals come from the
//! Azure-shaped trace at a fixed scale factor, and simulated latency
//! runs from each request's scheduled arrival. The benchmark drives
//! the protocol of `azure_trace::replay` itself, stepping `run_until`
//! one simulated second at a time so each step is a span; an unstepped
//! `azure_trace::replay` on the same seed is the oracle.

use azure_trace::{build_trace, generate_arrivals, replay, ReplayConfig};
use cluster::fnv64_bytes as fnv;
use desiccant::{Desiccant, DesiccantConfig};
use faas::{GcMode, MemoryManager, Platform, PlatformConfig};
use simos::{SimDuration, SimTime};

use crate::probe::Probe;
use crate::run::{higher, lower, Sim, Workload};
use crate::trace::span;

pub struct Replay {
    /// Desiccant installed (else no memory manager at all).
    pub desiccant: bool,
    pub cfg: ReplayConfig,
    pub trace_seed: u64,
}

pub struct State {
    platform: Platform,
    warm: Vec<(SimTime, usize)>,
    main: Vec<(SimTime, usize)>,
    events_before: u64,
}

impl Replay {
    fn manager(&self, probe: bool) -> Option<Box<dyn MemoryManager>> {
        match (self.desiccant, probe) {
            (false, _) => None,
            (true, true) => Some(Probe::boxed()),
            (true, false) => Some(Box::new(Desiccant::new(DesiccantConfig::default()))),
        }
    }
}

/// Ends of the §5.3 warm-up, measured window and drain.
pub fn ends(cfg: &ReplayConfig) -> (SimTime, SimTime, SimTime) {
    let warm_end = SimTime::ZERO + cfg.warmup;
    let replay_end = warm_end + cfg.duration;
    (warm_end, replay_end, replay_end + cfg.drain)
}

/// Arrivals of one run: `(warm-up, measured window)`.
pub type Arrivals = (Vec<(SimTime, usize)>, Vec<(SimTime, usize)>);

/// The warm-up and measured-window arrivals, drawn with the seed
/// derivation `azure_trace::replay` and `replay_cluster` use, so their
/// control runs see the same arrivals.
pub fn arrivals(cfg: &ReplayConfig, trace_seed: u64) -> Arrivals {
    let (warm_end, replay_end, _) = ends(cfg);
    let catalog = span("workloads.catalog", workloads::catalog);
    let trace = span("azure-trace.build_trace", || {
        build_trace(&catalog, trace_seed)
    });
    let warm = span("azure-trace.generate_arrivals", || {
        generate_arrivals(&trace, cfg.warmup_scale, SimTime::ZERO, warm_end, cfg.seed)
    });
    let main = span("azure-trace.generate_arrivals", || {
        generate_arrivals(&trace, cfg.scale, warm_end, replay_end, cfg.seed ^ 0xA5A5)
    });
    (warm, main)
}

/// Runs `p` to `until` in one-simulated-second `run_until` steps.
pub fn step(p: &mut Platform, until: SimTime) {
    while p.now() < until {
        let next = (p.now() + SimDuration::from_secs(1)).min(until);
        span("faas.run_until", || p.run_until(next));
    }
}

impl Workload for Replay {
    type State = State;

    fn setup(&self, probe: bool) -> State {
        let (warm_end, _, _) = ends(&self.cfg);
        let (warm, main) = arrivals(&self.cfg, self.trace_seed);
        let manager = self.manager(probe);
        let mut p = span("faas.new", || {
            Platform::new(
                PlatformConfig::default(),
                workloads::catalog(),
                GcMode::Vanilla,
                manager,
            )
        });
        // The warm-up fills the instance cache before timing starts.
        span("faas.submit", || {
            for &(t, f) in &warm {
                p.submit(t, f);
            }
        });
        step(&mut p, warm_end);
        span("faas.reset_stats", || p.reset_stats());
        let events_before = p.events_handled();
        State {
            platform: p,
            warm,
            main,
            events_before,
        }
    }

    fn run(&self, st: &mut State) -> Sim {
        let (_, replay_end, drain_end) = ends(&self.cfg);
        let p = &mut st.platform;
        span("faas.submit", || {
            for &(t, f) in &st.main {
                p.submit(t, f);
            }
        });
        step(p, replay_end);
        let stats = p.stats();
        let (submitted, cold_rate, throughput) = (
            stats.submitted,
            stats.cold_boot_rate(replay_end),
            stats.throughput(replay_end),
        );
        step(p, drain_end);
        let (p50, p99) = span("faas.latency", || {
            let mut latency = p.stats().latency.clone();
            let mut ms = |q| latency.percentile(q).map_or(0.0, |d| d.as_millis_f64());
            (ms(0.50), ms(0.99))
        });
        Sim {
            attempted: submitted,
            failed: p.stats().failed,
            metrics: vec![
                lower("sim_p50_ms", p50, "ms"),
                lower("sim_p99_ms", p99, "ms"),
                higher("sim_throughput_rps", throughput, "1/s"),
                lower("sim_cold_boots_per_s", cold_rate, "1/s"),
                lower(
                    "sim_frozen_mb",
                    p.cache_used() as f64 / (1u64 << 20) as f64,
                    "MB",
                ),
            ],
        }
    }

    fn verify(&self, st: &State) -> Result<(), String> {
        let p = &st.platform;
        let (submitted, completed, failed) = p.request_totals();
        if submitted != (st.warm.len() + st.main.len()) as u64 {
            return Err(format!(
                "platform saw {submitted} requests, the trace has more"
            ));
        }
        if p.stats().fault_events() != 0 || failed != 0 {
            return Err(format!("{failed} requests failed in a fault-free replay"));
        }
        if completed + p.in_flight() != submitted {
            return Err("request conservation violated".to_string());
        }
        Ok(())
    }

    fn digest(&self, st: &State) -> u64 {
        fnv(&st.platform.checkpoint())
    }

    fn control(&self) -> u64 {
        let manager = self.manager(false);
        let mut p = Platform::new(
            PlatformConfig::default(),
            workloads::catalog(),
            GcMode::Vanilla,
            manager,
        );
        let trace = build_trace(p.catalog(), self.trace_seed);
        replay(&mut p, &trace, &self.cfg);
        fnv(&p.checkpoint())
    }

    fn counters(&self, st: &State) -> Vec<(&'static str, u64)> {
        vec![
            (
                "azure-trace.arrivals",
                (st.warm.len() + st.main.len()) as u64,
            ),
            ("faas.submitted", st.main.len() as u64),
            (
                "faas.events",
                st.platform.events_handled() - st.events_before,
            ),
        ]
    }
}
