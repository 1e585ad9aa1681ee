//! Golden-replay digests — a bit-exact fingerprint of the trace-replay
//! pipeline in its fault-free configuration — and the replay-mode
//! platforms the digest, the trace figures and the chaos harness share.
//!
//! The fault-injection subsystem guarantees that with faults disabled
//! the platform produces byte-identical results to a build that has no
//! fault machinery at all. That guarantee is enforced by checksum: the
//! digest below folds every observable outcome of a small fig9-style
//! replay matrix (counters, rates, latency percentiles, final cache
//! accounting) into one 64-bit FNV-1a value, and the root package's
//! `tests/golden_replay.rs` pins it to the value captured before the
//! fault subsystem landed.

use azure_trace::{build_trace, replay, ReplayConfig, ReplayOutcome};
use cluster::{fnv64_bytes, fnv64_update};
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::{MemoryManager, PlatformConfig};
use simos::SimDuration;

use crate::run_jobs;

/// The replay modes of the golden matrix and of the trace figures, in
/// row order. The golden digest hashes each name.
pub const MODES: [&str; 3] = ["vanilla", "eager", "desiccant"];

/// A platform over the workload catalog in one replay mode: `eager`
/// collects at every instance exit, `desiccant` runs the Desiccant
/// manager, and `vanilla` does neither.
pub fn platform(mode: &str, config: PlatformConfig) -> Platform {
    let manager: Option<Box<dyn MemoryManager>> = match mode {
        "desiccant" => Some(Box::new(Desiccant::new(DesiccantConfig::default()))),
        _ => None,
    };
    let gc = if mode == "eager" { GcMode::Eager } else { GcMode::Vanilla };
    Platform::new(config, workloads::catalog(), gc, manager)
}

/// The trace figures' matrix (figures 9 and 10): the seed-11 Azure
/// trace replayed at every scale factor in every [`MODES`] mode, fanned
/// across `jobs` workers. Rows come back scale-major in mode order,
/// identical at any `jobs`.
pub fn trace_figure_matrix(
    scales: &[f64],
    quick: bool,
    jobs: usize,
) -> Vec<(f64, &'static str, ReplayOutcome)> {
    let trace = build_trace(&workloads::catalog(), 11);
    let work: Vec<(f64, &'static str)> =
        scales.iter().flat_map(|&scale| MODES.map(|mode| (scale, mode))).collect();
    let outcomes = run_jobs(jobs, &work, |&(scale, mode)| {
        let config = ReplayConfig {
            scale,
            // The quick window still has to be long enough for cache
            // pressure to build at sf 15, or the cold-boot and latency
            // checks become vacuous (all modes identical).
            warmup: SimDuration::from_secs(if quick { 45 } else { 60 }),
            duration: SimDuration::from_secs(if quick { 150 } else { 180 }),
            ..ReplayConfig::default()
        };
        replay(&mut platform(mode, PlatformConfig::default()), &trace, &config)
    });
    work.into_iter().zip(outcomes).map(|((scale, mode), out)| (scale, mode, out)).collect()
}

/// Runs the standard golden matrix — vanilla, eager, and Desiccant over
/// a short Azure-trace replay — and digests every outcome bit-exactly.
///
/// Any behavioural change to the fault-free simulation pipeline
/// (platform, runtime, heaps, simos, trace generation) changes this
/// value; pure additions (new counters that stay zero, new config
/// fields at their defaults) must not.
pub fn standard_digest() -> u64 {
    // FNV-1a of nothing: the offset basis.
    let mut h = fnv64_bytes(&[]);
    let trace = build_trace(&workloads::catalog(), 7);
    for mode in MODES {
        let mut p = platform(mode, PlatformConfig::default());
        let config = ReplayConfig {
            scale: 15.0,
            warmup: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(40),
            drain: SimDuration::from_secs(20),
            ..ReplayConfig::default()
        };
        let out = replay(&mut p, &trace, &config);
        fnv64_update(&mut h, mode.as_bytes());
        let (p50, p90, p95, p99) = out.latency_ms;
        let stats = p.stats();
        for word in [
            out.submitted,
            out.completed,
            out.cold_boot_rate.to_bits(),
            out.cold_boot_fraction.to_bits(),
            out.throughput.to_bits(),
            out.cpu_utilization.to_bits(),
            out.reclaim_cpu_fraction.to_bits(),
            out.evictions,
            p50.to_bits(),
            p90.to_bits(),
            p95.to_bits(),
            p99.to_bits(),
            // Post-drain platform state: cache accounting and pool shape.
            p.cache_used(),
            p.frozen_count() as u64,
            p.instance_count() as u64,
            stats.cold_boots,
            stats.warm_starts,
            stats.evictions,
            stats.reclamations,
            stats.reclaimed_bytes,
        ] {
            fnv64_update(&mut h, &word.to_le_bytes());
        }
    }
    h
}
