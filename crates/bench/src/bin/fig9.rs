//! Figure 9: performance on (synthetic) Azure traces across scale
//! factors — cold-boot rate, throughput, and CPU utilization for
//! vanilla, eager, and Desiccant.
//!
//! Paper shape: Desiccant cuts the cold-boot rate by up to 4.49× vs.
//! vanilla (3.75× vs. eager), gains throughput at saturation (+17.4 %),
//! and lowers CPU utilization (cold boots are CPU-heavy); eager burns
//! extra CPU at low scale factors (per-exit GCs); reclamation itself
//! stays under ~6 % CPU.
//!
//! Flags: `--quick` (smaller sweep, shorter replay), `--check`.

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
        // The quick window still has to be long enough for cache
        // pressure to build at sf 15, or the cold-boot checks become
        // vacuous (all modes identical).
        warmup: SimDuration::from_secs(if quick { 45 } else { 60 }),
        duration: SimDuration::from_secs(if quick { 150 } else { 180 }),
        ..ReplayConfig::default()
    };
    replay(&mut p, &trace, &config)
}

fn main() {
    let flags = Flags::parse(&[], &[]);
    let scales: &[f64] = if flags.quick {
        &[5.0, 15.0, 25.0]
    } else {
        &[5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    };
    report::caption(
        "Figure 9: performance on Azure traces",
        &[
            "scale",
            "mode",
            "cold_boots_per_s",
            "throughput_rps",
            "cpu_utilization",
            "reclaim_cpu",
            "failed",
            "retries",
            "fault_events",
        ],
    );
    let mut residual_faults = 0u64;
    let mut at15: Vec<(String, azure_trace::ReplayOutcome)> = Vec::new();
    let mut at_hi: Vec<(String, azure_trace::ReplayOutcome)> = Vec::new();
    let mut eager_low_util = 0.0;
    let mut vanilla_low_util = 0.0;
    for &scale in scales {
        for mode in ["vanilla", "eager", "desiccant"] {
            let out = run_one(scale, mode, flags.quick);
            report::row(&[
                format!("{scale}"),
                mode.into(),
                format!("{:.3}", out.cold_boot_rate),
                format!("{:.1}", out.throughput),
                format!("{:.3}", out.cpu_utilization),
                format!("{:.3}", out.reclaim_cpu_fraction),
                format!("{}", out.failed),
                format!("{}", out.retries),
                format!("{}", out.fault_events),
            ]);
            residual_faults += out.failed + out.retries + out.fault_events;
            if (scale - 15.0).abs() < 1e-9 {
                at15.push((mode.into(), out.clone()));
            }
            if (scale - scales.last().expect("nonempty")).abs() < 1e-9 {
                at_hi.push((mode.into(), out.clone()));
            }
            if (scale - 5.0).abs() < 1e-9 {
                match mode {
                    "eager" => eager_low_util = out.cpu_utilization,
                    "vanilla" => vanilla_low_util = out.cpu_utilization,
                    _ => {}
                }
            }
        }
    }
    let get = |rows: &[(String, azure_trace::ReplayOutcome)], m: &str| {
        rows.iter().find(|(n, _)| n == m).expect("mode row").1.clone()
    };
    let (v15, e15, d15) = (get(&at15, "vanilla"), get(&at15, "eager"), get(&at15, "desiccant"));
    let boot_vd = v15.cold_boot_rate / d15.cold_boot_rate.max(1e-9);
    let boot_ed = e15.cold_boot_rate / d15.cold_boot_rate.max(1e-9);
    println!("# sf15: cold-boot reduction vanilla/desiccant {boot_vd:.2}x (paper up to 4.49x), eager/desiccant {boot_ed:.2}x (paper up to 3.75x)");
    check(&flags, boot_vd > 1.5, "desiccant cuts vanilla cold boots at sf15");
    check(&flags, boot_ed > 1.2, "desiccant cuts eager cold boots at sf15");
    check(
        &flags,
        d15.cpu_utilization < v15.cpu_utilization,
        "desiccant uses less CPU than vanilla at sf15",
    );
    check(
        &flags,
        d15.reclaim_cpu_fraction < 0.062,
        "reclamation CPU stays under the paper's 6.2%",
    );
    let (v_hi, d_hi) = (get(&at_hi, "vanilla"), get(&at_hi, "desiccant"));
    println!(
        "# top scale: throughput vanilla {:.1} vs desiccant {:.1} rps (paper: +17.4% for desiccant at saturation)",
        v_hi.throughput, d_hi.throughput
    );
    check(
        &flags,
        d_hi.throughput >= v_hi.throughput * 0.999,
        "desiccant throughput at least matches vanilla at the top scale",
    );
    println!(
        "# sf5: cpu utilization vanilla {vanilla_low_util:.3} vs eager {eager_low_util:.3} (paper: eager higher at low scale)"
    );
    // Standing inertness regression: no fault plan is installed here,
    // so every failure/retry/fault counter must be dead zero.
    check(
        &flags,
        residual_faults == 0,
        "fault-free runs report zero failures, retries, and fault events",
    );
}
