//! Property tests for the platform: random request patterns against
//! random (small) configurations must preserve the accounting and
//! completion invariants.

use faas::config::PlatformConfig;
use faas::platform::{GcMode, Platform};
use faas::FaultPlan;
use proptest::prelude::*;
use proptest::TestCaseResult;
use simos::{SimDuration, SimTime};

/// A randomized load pattern.
#[derive(Debug, Clone)]
struct Load {
    /// `(function index, arrival offset ms)` pairs.
    arrivals: Vec<(usize, u64)>,
    cache_mib: u64,
    cores: u64,
    eager: bool,
}

fn load() -> impl Strategy<Value = Load> {
    (
        prop::collection::vec((0usize..20, 0u64..60_000), 1..40),
        384u64..2048,
        2u64..5,
        any::<bool>(),
    )
        .prop_map(|(arrivals, cache_mib, cores, eager)| Load {
            arrivals,
            cache_mib,
            cores,
            eager,
        })
}

/// Every submitted request eventually completes, exactly once, no
/// matter the interleaving of boots, freezes, and evictions; cache
/// accounting never exceeds the budget by more than the transient
/// running-growth allowance; acquisitions balance.
fn all_requests_complete_exactly_once_on(l: &Load) -> TestCaseResult {
    let config = PlatformConfig {
        cache_budget: l.cache_mib << 20,
        cores: l.cores as f64,
        ..PlatformConfig::default()
    };
    let mode = if l.eager { GcMode::Eager } else { GcMode::Vanilla };
    let mut p = Platform::new(config, workloads::catalog(), mode, None);
    let mut sorted = l.arrivals.clone();
    sorted.sort_by_key(|(_, t)| *t);
    for &(f, t_ms) in &sorted {
        p.submit(SimTime(t_ms * 1_000_000), f);
    }
    // Generous horizon: every chain and queue drains.
    p.run_until(SimTime(60_000_000_000) + SimDuration::from_secs(600));
    prop_assert_eq!(p.stats().completed, sorted.len() as u64, "requests lost");
    prop_assert_eq!(p.stats().submitted, sorted.len() as u64);
    // Acquisition accounting: every stage execution was either a
    // warm start or a cold boot; chains multiply the stages.
    let stage_count: u64 = sorted
        .iter()
        .map(|(f, _)| p.catalog()[*f].chain_len as u64)
        .sum();
    prop_assert_eq!(
        p.stats().warm_starts + p.stats().cold_boots,
        stage_count,
        "acquisitions do not balance stage executions"
    );
    // All instances end frozen (nothing stuck running).
    prop_assert_eq!(p.frozen_count(), p.instance_count(), "instance stuck mid-state");
    // The cache accounting tracks the instances' measured USS.
    // Charges are freeze-time snapshots, so they can lag the live
    // value by up to one library set per instance: when a second
    // same-language instance boots (or the last sharer dies), the
    // shared-library pages move between the private and shared
    // USS categories of *already frozen* instances. Anything beyond
    // that bound is a genuine accounting leak.
    let measured: u64 = p.instance_uss().iter().map(|(_, u)| *u).sum();
    let slack = p.instance_count() as u64 * (80 << 20);
    let (lo, hi) = (measured.saturating_sub(slack), measured + slack);
    prop_assert!(
        (lo..=hi).contains(&p.cache_used()),
        "cache accounting drifted: charged {} vs measured {}",
        p.cache_used(),
        measured
    );
    Ok(())
}

/// Determinism: the same load on the same configuration produces
/// identical statistics.
fn platform_is_deterministic_on(l: &Load) -> TestCaseResult {
    let run = || {
        let config = PlatformConfig {
            cache_budget: l.cache_mib << 20,
            cores: l.cores as f64,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
        let mut sorted = l.arrivals.clone();
        sorted.sort_by_key(|(_, t)| *t);
        for &(f, t_ms) in &sorted {
            p.submit(SimTime(t_ms * 1_000_000), f);
        }
        p.run_until(SimTime(600_000_000_000));
        (
            p.stats().completed,
            p.stats().cold_boots,
            p.stats().warm_starts,
            p.stats().evictions,
            p.cache_used(),
        )
    };
    prop_assert_eq!(run(), run());
    Ok(())
}

/// A counterexample an earlier run of the real proptest recorded.
#[test]
fn recorded_two_request_counterexample_holds() {
    let l = Load {
        arrivals: vec![(4, 0), (5, 2737)],
        cache_mib: 384,
        cores: 2,
        eager: false,
    };
    all_requests_complete_exactly_once_on(&l).unwrap();
    platform_is_deterministic_on(&l).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_requests_complete_exactly_once(l in load()) {
        all_requests_complete_exactly_once_on(&l)?;
    }

    #[test]
    fn platform_is_deterministic(l in load()) {
        platform_is_deterministic_on(&l)?;
    }

    /// Under an arbitrary seeded fault schedule every request still
    /// terminates exactly once (arrivals == completions + failures),
    /// and after the drain the platform tears down to zero cache
    /// occupancy and an empty process table.
    #[test]
    fn faults_conserve_requests_and_drain_to_zero(
        l in load(),
        fault_seed in any::<u64>(),
        rate_pct in 0u32..=25,
    ) {
        let config = PlatformConfig {
            cache_budget: l.cache_mib << 20,
            cores: l.cores as f64,
            faults: Some(FaultPlan::uniform(fault_seed, rate_pct as f64 / 100.0)),
            ..PlatformConfig::default()
        };
        let mode = if l.eager { GcMode::Eager } else { GcMode::Vanilla };
        let mut p = Platform::new(config, workloads::catalog(), mode, None);
        let mut sorted = l.arrivals.clone();
        sorted.sort_by_key(|(_, t)| *t);
        for &(f, t_ms) in &sorted {
            p.submit(SimTime(t_ms * 1_000_000), f);
        }
        // Horizon past the last possible retry: no retry is scheduled
        // beyond its arrival plus the request deadline, so last-arrival
        // + deadline + backoff-cap + queue slack guarantees quiescence.
        p.run_until(SimTime(60_000_000_000) + SimDuration::from_secs(600));
        let (submitted, completed, failed) = p.request_totals();
        prop_assert_eq!(submitted, sorted.len() as u64);
        prop_assert_eq!(
            completed + failed,
            submitted,
            "request conservation violated: {} + {} != {}",
            completed,
            failed,
            submitted
        );
        prop_assert_eq!(p.in_flight(), 0, "requests still in flight after the drain");
        // Teardown: shutdown() destroys every instance and errors if
        // the cache charge or the process table is nonzero.
        prop_assert!(p.shutdown().is_ok(), "teardown accounting did not balance");
        prop_assert_eq!(p.cache_used(), 0, "cache occupancy nonzero after drain");
        prop_assert_eq!(p.instance_count(), 0);
    }
}
