//! The §5.3 replay protocol: warm-up, measured window, drain.
//!
//! `schedule` states the protocol once, as rounds; [`replay`], the
//! resumable replay and the cluster replay are loops over it.

use std::iter;
use std::ops::Range;

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

/// One round of the §5.3 schedule.
#[derive(Debug)]
pub(crate) struct Round {
    /// The round's half-open time window; its end is the barrier the
    /// driver runs to.
    pub(crate) window: Range<SimTime>,
    /// Reset stats before the round: set only on the round that starts
    /// the measured window.
    pub(crate) reset: bool,
    /// Capture the §5.3 rates after the round: set only on the round
    /// that ends the measured window.
    pub(crate) capture: bool,
    /// The arrivals in the round's window, in time order.
    pub(crate) arrivals: Vec<(SimTime, usize)>,
}

/// The §5.3 protocol from `t0` as rounds: warm-up, measured window and
/// drain, each cut into `steps_per_phase` rounds, so every phase edge
/// is a barrier.
///
/// Warm-up arrivals are drawn at `warmup_scale` from `seed`, the
/// measured window's at `scale` from a second seed derived from it;
/// each lands in the round whose half-open window contains it.
pub(crate) fn schedule(
    trace: &[TraceFunction],
    config: &ReplayConfig,
    t0: SimTime,
    steps_per_phase: usize,
) -> Vec<Round> {
    let warm_end = t0 + config.warmup;
    let replay_end = warm_end + config.duration;
    let drain_end = replay_end + config.drain;
    let draws = [
        (config.warmup_scale, t0, warm_end, config.seed),
        (config.scale, warm_end, replay_end, config.seed ^ 0xA5A5),
    ];
    let mut arrivals = draws
        .into_iter()
        .flat_map(|(scale, lo, hi, seed)| generate_arrivals(trace, scale, lo, hi, seed))
        .peekable();
    let steps = steps_per_phase as u64;
    let phases = [(t0, warm_end), (warm_end, replay_end), (replay_end, drain_end)];
    let mut rounds = Vec::with_capacity(3 * steps_per_phase);
    for (phase, (lo, hi)) in phases.into_iter().enumerate() {
        let span = hi.since(lo).as_nanos();
        for step in 0..steps {
            let start = SimTime(lo.0 + span * step / steps);
            let end = SimTime(lo.0 + span * (step + 1) / steps);
            rounds.push(Round {
                window: start..end,
                reset: phase == 1 && step == 0,
                capture: phase == 1 && step + 1 == steps,
                arrivals: iter::from_fn(|| arrivals.next_if(|&(t, _)| t < end)).collect(),
            });
        }
    }
    rounds
}

/// Runs the full §5.3 protocol on `platform`: warm up `warmup` at
/// `warmup_scale`, reset statistics, replay `duration` at `scale`, then
/// drain. Each phase's arrivals are submitted at its start.
pub fn replay(
    platform: &mut Platform,
    trace: &[TraceFunction],
    config: &ReplayConfig,
) -> ReplayOutcome {
    let mut rates = None;
    for round in schedule(trace, config, platform.now(), 1) {
        if round.reset {
            platform.reset_stats();
        }
        for (t, f) in round.arrivals {
            platform.submit(t, f);
        }
        platform.run_until(round.window.end);
        // Snapshot rates at the window end; the drain that follows
        // completes in-flight requests so tail latencies are complete.
        if round.capture {
            rates = Some(WindowRates::capture(platform, round.window.end));
        }
    }
    rates.expect("the measured window always closes on a barrier").outcome(platform)
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

    /// Phases that are not multiples of any step count in use.
    fn odd_config() -> ReplayConfig {
        ReplayConfig {
            warmup: SimDuration::from_secs(7),
            duration: SimDuration::from_secs(13),
            drain: SimDuration::from_secs(5),
            scale: 10.0,
            warmup_scale: 12.0,
            seed: 3,
        }
    }

    #[test]
    fn schedule_tiles_the_protocol_and_places_every_arrival() {
        let trace = build_trace(&workloads::catalog(), 5);
        let config = odd_config();
        let t0 = SimTime(1_234_567);
        let warm_end = t0 + config.warmup;
        let replay_end = warm_end + config.duration;
        let drain_end = replay_end + config.drain;
        let mut expected = generate_arrivals(&trace, 12.0, t0, warm_end, 3);
        expected.extend(generate_arrivals(&trace, 10.0, warm_end, replay_end, 3 ^ 0xA5A5));
        for steps in [1, 8] {
            let rounds = schedule(&trace, &config, t0, steps);
            assert_eq!(rounds.len(), 3 * steps);
            assert_eq!(rounds[0].window.start, t0);
            assert_eq!(rounds[3 * steps - 1].window.end, drain_end);
            for pair in rounds.windows(2) {
                assert_eq!(pair[0].window.end, pair[1].window.start, "gap between rounds");
            }
            for edge in [warm_end, replay_end] {
                assert!(rounds.iter().any(|r| r.window.end == edge), "{edge:?} is no barrier");
            }
            for r in &rounds {
                assert!(r.arrivals.iter().all(|(t, _)| r.window.contains(t)), "{r:?}");
            }
            let placed: Vec<_> = rounds.iter().flat_map(|r| r.arrivals.clone()).collect();
            assert_eq!(placed, expected, "{steps} steps per phase");
            let resets: Vec<_> = rounds.iter().filter(|r| r.reset).collect();
            assert_eq!(resets.len(), 1);
            assert_eq!(resets[0].window.start, warm_end);
            let captures: Vec<_> = rounds.iter().filter(|r| r.capture).collect();
            assert_eq!(captures.len(), 1);
            assert_eq!(captures[0].window.end, replay_end);
        }
    }

    #[test]
    fn arrival_on_an_inner_boundary_lands_in_the_round_that_starts_there() {
        // A window's arrivals are offsets from its start drawn from a
        // seeded stream, and shortening the window only truncates them.
        // So stretching the measured window to 8x the offset of its
        // first arrival puts that arrival exactly on the first inner
        // barrier of an 8-step measured phase.
        let trace = build_trace(&workloads::catalog(), 5);
        let config = odd_config();
        let warm_end = SimTime::ZERO + config.warmup;
        let measured_end = warm_end + config.duration;
        let (first, _) = generate_arrivals(&trace, 10.0, warm_end, measured_end, 3 ^ 0xA5A5)[0];
        let offset = first.since(warm_end);
        assert!(offset > SimDuration::ZERO, "first arrival sits on the phase edge");
        let config = ReplayConfig {
            duration: offset * 8,
            ..config
        };
        let rounds = schedule(&trace, &config, SimTime::ZERO, 8);
        let at = rounds.iter().position(|r| r.arrivals.iter().any(|&(t, _)| t == first));
        assert_eq!(at, Some(9), "an arrival on a barrier belongs to the round after it");
        assert_eq!(rounds[9].window.start, first);
    }

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
