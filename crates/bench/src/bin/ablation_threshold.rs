//! Ablation: dynamic vs. static activation threshold (§4.5.1).
//!
//! The dynamic policy exists for *phased* load: during calm periods the
//! threshold drifts up (fewer reclamations, less CPU); the first
//! eviction snaps it down to 60 % so the manager reacts like an eager
//! static policy exactly when memory is short. A static-low policy
//! matches the pressure response but keeps reclaiming during calm; a
//! static-high policy saves calm-period CPU but reacts late under
//! pressure.
//!
//! Protocol: a calm phase (scale 4, 120 s) followed by a pressure phase
//! (scale 30, 120 s); report calm-phase reclamations and pressure-phase
//! cold boots separately.
//!
//! Flags: `--quick`, `--check`.

#![forbid(unsafe_code)]

use azure_trace::{build_trace, generate_arrivals};
use bench::cli::{check, Flags};
use bench::report;
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::PlatformConfig;
use simos::{SimDuration, SimTime};

struct PhaseResult {
    calm_reclaims: u64,
    pressure_cold_boots: u64,
    pressure_reclaims: u64,
}

fn run_one(config: DesiccantConfig, quick: bool) -> PhaseResult {
    let catalog = workloads::catalog();
    let trace = build_trace(&catalog, 11);
    let mut p = Platform::new(
        PlatformConfig::default(),
        catalog,
        GcMode::Vanilla,
        Some(Box::new(Desiccant::new(config))),
    );
    let phase = SimDuration::from_secs(if quick { 40 } else { 120 });
    // Warm-up at moderate load to populate the cache.
    let t0 = SimTime::ZERO;
    let t1 = t0 + SimDuration::from_secs(30);
    for (t, f) in generate_arrivals(&trace, 15.0, t0, t1, 1) {
        p.submit(t, f);
    }
    p.run_until(t1);
    p.reset_stats();
    // Calm phase.
    let t2 = t1 + phase;
    for (t, f) in generate_arrivals(&trace, 4.0, t1, t2, 2) {
        p.submit(t, f);
    }
    p.run_until(t2);
    let calm_reclaims = p.stats().reclamations;
    p.reset_stats();
    // Pressure phase.
    let t3 = t2 + phase;
    for (t, f) in generate_arrivals(&trace, 30.0, t2, t3, 3) {
        p.submit(t, f);
    }
    p.run_until(t3 + SimDuration::from_secs(20));
    PhaseResult {
        calm_reclaims,
        pressure_cold_boots: p.stats().cold_boots,
        pressure_reclaims: p.stats().reclamations,
    }
}

fn main() {
    let flags = Flags::parse(&[], &[]);
    report::caption(
        "Ablation: activation threshold policy (calm phase then pressure phase)",
        &["policy", "calm_reclaims", "pressure_cold_boots", "pressure_reclaims"],
    );
    let variants: [(&str, DesiccantConfig); 3] = [
        ("dynamic", DesiccantConfig::default()),
        (
            "static-60",
            DesiccantConfig {
                dynamic_threshold: false,
                low_threshold: 0.60,
                high_threshold: 0.60,
                ..DesiccantConfig::default()
            },
        ),
        (
            "static-95",
            DesiccantConfig {
                dynamic_threshold: false,
                low_threshold: 0.95,
                high_threshold: 0.95,
                ..DesiccantConfig::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, config) in variants {
        let r = run_one(config, flags.quick);
        report::row(&[
            name.into(),
            r.calm_reclaims.to_string(),
            r.pressure_cold_boots.to_string(),
            r.pressure_reclaims.to_string(),
        ]);
        rows.push((name, r));
    }
    let get = |n: &str| &rows.iter().find(|(m, _)| *m == n).expect("row").1;
    let (dynamic, low, high) = (get("dynamic"), get("static-60"), get("static-95"));
    check(
        &flags,
        dynamic.calm_reclaims <= low.calm_reclaims,
        "dynamic reclaims no more than static-60 during calm",
    );
    check(
        &flags,
        dynamic.pressure_cold_boots <= high.pressure_cold_boots + high.pressure_cold_boots / 5,
        "dynamic reacts to pressure at least as well as static-95 (within 20%)",
    );
    check(
        &flags,
        dynamic.pressure_cold_boots <= low.pressure_cold_boots + low.pressure_cold_boots / 5,
        "dynamic matches static-60's pressure response (within 20%)",
    );
}
