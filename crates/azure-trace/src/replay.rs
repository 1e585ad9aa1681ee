//! The §5.3 replay protocol: warm-up, then a measured window.

use faas::platform::Platform;
use simos::{SimDuration, SimTime};

use crate::generate::{generate_arrivals, TraceFunction};

/// Replay parameters (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Scale factor under test.
    pub scale: f64,
    /// Warm-up duration (60 s in the paper).
    pub warmup: SimDuration,
    /// Warm-up scale factor (fixed at 15 in the paper).
    pub warmup_scale: f64,
    /// Measured replay duration (180 s in the paper).
    pub duration: SimDuration,
    /// Arrival-generation seed.
    pub seed: u64,
    /// Extra drain time after the last arrival so in-flight requests
    /// finish.
    pub drain: SimDuration,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            scale: 15.0,
            warmup: SimDuration::from_secs(60),
            warmup_scale: 15.0,
            duration: SimDuration::from_secs(180),
            seed: 1,
            drain: SimDuration::from_secs(30),
        }
    }
}

/// Measured results of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Requests submitted in the measured window.
    pub submitted: u64,
    /// Requests completed in the measured window (plus drain).
    pub completed: u64,
    /// Cold boots per second.
    pub cold_boot_rate: f64,
    /// Cold-boot fraction of acquisitions.
    pub cold_boot_fraction: f64,
    /// Completed requests per second.
    pub throughput: f64,
    /// Mean CPU utilization (0..=1).
    pub cpu_utilization: f64,
    /// Reclamation share of CPU (0..=1).
    pub reclaim_cpu_fraction: f64,
    /// Evictions in the window.
    pub evictions: u64,
    /// Requests that terminated with a failure (always zero in a
    /// fault-free run — a standing inertness check).
    pub failed: u64,
    /// Retry attempts scheduled (always zero fault-free).
    pub retries: u64,
    /// Fault events of every class: boot failures, crashes, OOM kills,
    /// thaw failures, reclaim failures (always zero fault-free).
    pub fault_events: u64,
    /// Latency percentiles in milliseconds: (p50, p90, p95, p99).
    pub latency_ms: (f64, f64, f64, f64),
}

/// Runs the full §5.3 protocol on `platform`: warm up `warmup` at
/// `warmup_scale`, reset statistics, replay `duration` at `scale`, then
/// drain.
pub fn replay(platform: &mut Platform, trace: &[TraceFunction], config: &ReplayConfig) -> ReplayOutcome {
    let t0 = platform.now();
    let warm_end = t0 + config.warmup;
    for (t, f) in generate_arrivals(trace, config.warmup_scale, t0, warm_end, config.seed) {
        platform.submit(t, f);
    }
    platform.run_until(warm_end);
    platform.reset_stats();

    let replay_end = warm_end + config.duration;
    for (t, f) in generate_arrivals(trace, config.scale, warm_end, replay_end, config.seed ^ 0xA5A5) {
        platform.submit(t, f);
    }
    platform.run_until(replay_end);
    // Snapshot rates at the window end, then drain in-flight requests
    // so tail latencies are complete.
    let rates = WindowRates::capture(platform, replay_end);
    platform.run_until(replay_end + config.drain);
    rates.outcome(platform)
}

/// The §5.3 rates, captured when the measured window closes (before the
/// drain).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowRates {
    submitted: u64,
    cold_boot_rate: f64,
    throughput: f64,
    cpu_utilization: f64,
    reclaim_cpu_fraction: f64,
}

impl WindowRates {
    pub(crate) fn capture(platform: &Platform, replay_end: SimTime) -> WindowRates {
        let cores = platform.config().cores;
        let stats = platform.stats();
        WindowRates {
            submitted: stats.submitted,
            cold_boot_rate: stats.cold_boot_rate(replay_end),
            throughput: stats.throughput(replay_end),
            cpu_utilization: stats.cpu_utilization(replay_end, cores),
            reclaim_cpu_fraction: stats.reclaim_cpu_fraction(replay_end, cores),
        }
    }

    /// Completes the outcome from the drained platform.
    pub(crate) fn outcome(self, platform: &Platform) -> ReplayOutcome {
        let stats = platform.stats();
        let mut latency = stats.latency.clone();
        let pct = |l: &mut faas::LatencyHistogram, q| {
            l.percentile(q).map(|d| d.as_millis_f64()).unwrap_or(0.0)
        };
        ReplayOutcome {
            submitted: self.submitted,
            completed: stats.completed,
            cold_boot_rate: self.cold_boot_rate,
            cold_boot_fraction: stats.cold_boot_fraction(),
            throughput: self.throughput,
            cpu_utilization: self.cpu_utilization,
            reclaim_cpu_fraction: self.reclaim_cpu_fraction,
            evictions: stats.evictions,
            failed: stats.failed,
            retries: stats.retries,
            fault_events: stats.fault_events(),
            latency_ms: (
                pct(&mut latency, 0.50),
                pct(&mut latency, 0.90),
                pct(&mut latency, 0.95),
                pct(&mut latency, 0.99),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::build_trace;
    use faas::platform::GcMode;
    use faas::PlatformConfig;

    #[test]
    fn short_replay_produces_coherent_stats() {
        let catalog = workloads::catalog();
        let trace = build_trace(&catalog, 5);
        let mut p = Platform::new(PlatformConfig::default(), catalog, GcMode::Vanilla, None);
        let config = ReplayConfig {
            warmup: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(30),
            scale: 10.0,
            warmup_scale: 10.0,
            seed: 3,
            drain: SimDuration::from_secs(20),
        };
        let out = replay(&mut p, &trace, &config);
        assert!(out.submitted > 0, "no load generated");
        assert!(out.completed > 0, "nothing completed");
        assert!(out.completed <= out.submitted + 50);
        assert!(out.throughput > 0.0);
        assert!(out.cpu_utilization > 0.0 && out.cpu_utilization <= 1.0);
        // No fault plan installed: the failure counters must be dead
        // zero (the fault machinery is inert by default).
        assert_eq!(out.failed, 0);
        assert_eq!(out.retries, 0);
        assert_eq!(out.fault_events, 0);
        let (p50, p90, p95, p99) = out.latency_ms;
        assert!(p50 <= p90 && p90 <= p95 && p95 <= p99, "{out:?}");
    }

    #[test]
    fn higher_scale_brings_more_load() {
        let catalog = workloads::catalog();
        let trace = build_trace(&catalog, 5);
        let mut low = Platform::new(PlatformConfig::default(), catalog.clone(), GcMode::Vanilla, None);
        let mut high = Platform::new(PlatformConfig::default(), catalog, GcMode::Vanilla, None);
        let base = ReplayConfig {
            warmup: SimDuration::from_secs(5),
            duration: SimDuration::from_secs(20),
            warmup_scale: 10.0,
            seed: 4,
            drain: SimDuration::from_secs(10),
            scale: 5.0,
        };
        let lo = replay(&mut low, &trace, &base);
        let hi = replay(&mut high, &trace, &ReplayConfig { scale: 25.0, ..base });
        assert!(hi.submitted > lo.submitted * 2, "{} vs {}", hi.submitted, lo.submitted);
    }
}
