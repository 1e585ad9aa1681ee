//! Figure 10: tail latency under two scale factors.
//!
//! Paper shape: at a medium scale factor (15) Desiccant improves p90 by
//! ~33 %, p95 by ~10 %, p99 by ~37.5 % over vanilla; at a high scale
//! factor the p99 gap narrows as CPU exhaustion dominates everyone's
//! tail.
//!
//! Flags: `--quick`, `--check`.

#![forbid(unsafe_code)]

use azure_trace::{build_trace, replay, ReplayConfig};
use bench::cli::{check, Flags};
use bench::report;
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::{MemoryManager, PlatformConfig};
use simos::SimDuration;

fn run_one(scale: f64, mode: &str, quick: bool) -> azure_trace::ReplayOutcome {
    let catalog = workloads::catalog();
    let trace = build_trace(&catalog, 11);
    let manager: Option<Box<dyn MemoryManager>> = match mode {
        "desiccant" => Some(Box::new(Desiccant::new(DesiccantConfig::default()))),
        _ => None,
    };
    let gc = if mode == "eager" { GcMode::Eager } else { GcMode::Vanilla };
    let mut p = Platform::new(PlatformConfig::default(), catalog, gc, manager);
    let config = ReplayConfig {
        scale,
        // Quick still needs a window long enough for cache pressure to
        // differentiate the modes (see fig9).
        warmup: SimDuration::from_secs(if quick { 45 } else { 60 }),
        duration: SimDuration::from_secs(if quick { 150 } else { 180 }),
        ..ReplayConfig::default()
    };
    replay(&mut p, &trace, &config)
}

/// `(p50, p90, p95, p99)` in milliseconds.
type LatencyQuartet = (f64, f64, f64, f64);

fn main() {
    let flags = Flags::parse(&[], &[]);
    report::caption(
        "Figure 10: tail latency for different scale factors (ms)",
        &["scale", "mode", "p50", "p90", "p95", "p99", "failed", "retries", "fault_events"],
    );
    let mut residual_faults = 0u64;
    // The paper's medium/high scale factors are 15 and 25 on its
    // 40-core testbed; on this simulated host saturation lands near
    // scale 60, so that is the "high" point (documented in
    // EXPERIMENTS.md).
    let mut medium: Vec<(String, LatencyQuartet)> = Vec::new();
    let mut high: Vec<(String, LatencyQuartet)> = Vec::new();
    for scale in [15.0, 60.0] {
        for mode in ["vanilla", "eager", "desiccant"] {
            let out = run_one(scale, mode, flags.quick);
            let (p50, p90, p95, p99) = out.latency_ms;
            report::row(&[
                format!("{scale}"),
                mode.into(),
                format!("{p50:.0}"),
                format!("{p90:.0}"),
                format!("{p95:.0}"),
                format!("{p99:.0}"),
                format!("{}", out.failed),
                format!("{}", out.retries),
                format!("{}", out.fault_events),
            ]);
            residual_faults += out.failed + out.retries + out.fault_events;
            if (scale - 15.0).abs() < 1e-9 {
                medium.push((mode.into(), out.latency_ms));
            } else {
                high.push((mode.into(), out.latency_ms));
            }
        }
    }
    let get = |rows: &[(String, LatencyQuartet)], m: &str| {
        rows.iter().find(|(n, _)| n == m).expect("mode row").1
    };
    let (v, d) = (get(&medium, "vanilla"), get(&medium, "desiccant"));
    let improv = |a: f64, b: f64| (1.0 - b / a.max(1e-9)) * 100.0;
    println!(
        "# medium scale improvement vs vanilla: p90 {:.1}% (paper 33.1%), p95 {:.1}% (paper 9.8%), p99 {:.1}% (paper 37.5%)",
        improv(v.1, d.1),
        improv(v.2, d.2),
        improv(v.3, d.3),
    );
    check(&flags, d.1 < v.1, "medium scale: desiccant improves p90");
    check(&flags, d.3 < v.3, "medium scale: desiccant improves p99");
    let (vh, dh) = (get(&high, "vanilla"), get(&high, "desiccant"));
    let medium_gap = v.3 / d.3.max(1e-9);
    let high_gap = vh.3 / dh.3.max(1e-9);
    println!(
        "# p99 gap: {medium_gap:.2}x at medium scale vs {high_gap:.2}x at high scale (paper: gap nearly vanishes under CPU exhaustion)"
    );
    check(
        &flags,
        high_gap < medium_gap,
        "p99 gap narrows at the saturating scale factor",
    );
    // Standing inertness regression: no fault plan is installed here,
    // so every failure/retry/fault counter must be dead zero.
    check(
        &flags,
        residual_faults == 0,
        "fault-free runs report zero failures, retries, and fault events",
    );
}
