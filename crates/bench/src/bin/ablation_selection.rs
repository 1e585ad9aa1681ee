//! Ablation: instance-selection policy (§4.5.2).
//!
//! Throughput-based selection (the paper's) reclaims the most memory
//! per CPU-second; oldest-first and unordered are the baselines. With a
//! per-sweep reclamation budget, throughput selection should release
//! more bytes per unit of reclaim CPU.
//!
//! Flags: `--quick`, `--check`.

#![forbid(unsafe_code)]

use azure_trace::{build_trace, replay, ReplayConfig};
use bench::cli::{check, Flags};
use bench::report;
use desiccant::{Desiccant, DesiccantConfig, SelectionPolicy};
use faas::platform::{GcMode, Platform};
use faas::PlatformConfig;
use simos::SimDuration;

fn main() {
    let flags = Flags::parse(&[], &[]);
    report::caption(
        "Ablation: selection policy",
        &["policy", "reclaims", "reclaimed_mib", "mib_per_reclaim", "cold_boots_per_s"],
    );
    let mut rows = Vec::new();
    for (name, selection) in [
        ("throughput", SelectionPolicy::Throughput),
        ("oldest", SelectionPolicy::OldestFrozen),
        ("unordered", SelectionPolicy::Unordered),
    ] {
        let catalog = workloads::catalog();
        let trace = build_trace(&catalog, 11);
        let config = DesiccantConfig {
            selection,
            // A tight per-sweep budget makes ranking matter.
            max_reclaims_per_sweep: 1,
            ..DesiccantConfig::default()
        };
        let mut p = Platform::new(
            PlatformConfig::default(),
            catalog,
            GcMode::Vanilla,
            Some(Box::new(Desiccant::new(config))),
        );
        let rc = ReplayConfig {
            scale: 20.0,
            warmup: SimDuration::from_secs(if flags.quick { 20 } else { 60 }),
            duration: SimDuration::from_secs(if flags.quick { 60 } else { 180 }),
            ..ReplayConfig::default()
        };
        let out = replay(&mut p, &trace, &rc);
        let reclaims = p.stats().reclamations.max(1);
        let per = p.stats().reclaimed_bytes as f64 / (1 << 20) as f64 / reclaims as f64;
        report::row(&[
            name.into(),
            p.stats().reclamations.to_string(),
            report::mib(p.stats().reclaimed_bytes),
            format!("{per:.2}"),
            format!("{:.3}", out.cold_boot_rate),
        ]);
        rows.push((name, per));
    }
    let get = |n: &str| rows.iter().find(|(m, _)| *m == n).expect("row").1;
    check(
        &flags,
        get("throughput") >= get("oldest"),
        "throughput selection releases at least as much per reclamation as oldest-first",
    );
}
