//! Property tests for checkpoint/restore: at an arbitrary cut point in
//! an arbitrary load, a checkpoint — flat, or a base-plus-delta chain —
//! must round-trip to the identical byte string, the restored platform
//! must continue exactly like the original, and the restored state must
//! satisfy the memory-metric and request-conservation invariants.

use faas::config::PlatformConfig;
use faas::platform::{GcMode, Platform};
use proptest::prelude::*;
use simos::metrics::{pss, rss, uss};
use simos::{SimDuration, SimTime};

/// A randomized load pattern (mirrors `prop_platform.rs`).
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

fn build(l: &Load) -> Platform {
    let config = PlatformConfig {
        cache_budget: l.cache_mib << 20,
        cores: l.cores as f64,
        ..PlatformConfig::default()
    };
    let mode = if l.eager { GcMode::Eager } else { GcMode::Vanilla };
    Platform::new(config, workloads::catalog(), mode, None)
}

fn submit_all(p: &mut Platform, l: &Load) {
    let mut sorted = l.arrivals.clone();
    sorted.sort_by_key(|(_, t)| *t);
    for &(f, t_ms) in &sorted {
        p.submit(SimTime(t_ms * 1_000_000), f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpointing at an arbitrary mid-run cut is invisible: the
    /// restored platform re-produces the identical checkpoint bytes,
    /// and running both to quiescence ends in identical final states.
    #[test]
    fn round_trip_at_arbitrary_cut_is_identity(l in load(), cut_ms in 0u64..70_000) {
        let mut original = build(&l);
        submit_all(&mut original, &l);
        original.run_until(SimTime(cut_ms * 1_000_000));
        let bytes = original.checkpoint();

        let mut restored = build(&l);
        restored.restore(&bytes).expect("self-produced checkpoint restores");
        prop_assert_eq!(
            restored.checkpoint(),
            bytes.clone(),
            "restore is not the codec's inverse"
        );

        // Continue both to quiescence: the trajectories must coincide.
        let horizon = SimTime(60_000_000_000) + SimDuration::from_secs(600);
        original.run_until(horizon);
        restored.run_until(horizon);
        prop_assert_eq!(
            restored.checkpoint(),
            original.checkpoint(),
            "restored run diverged from the original"
        );
        prop_assert_eq!(restored.stats().completed, original.stats().completed);
    }

    /// A base cut at one random instant and a delta cut at a later one
    /// fold back to the state at the second cut: the chain restores to
    /// the bytes of a flat `checkpoint()` taken there, and the folded
    /// platform runs on to the identical final state.
    #[test]
    fn chain_fold_at_random_cuts_is_identity(
        l in load(),
        cut_a_ms in 0u64..70_000,
        cut_b_ms in 0u64..70_000,
    ) {
        let (base_ms, delta_ms) = (cut_a_ms.min(cut_b_ms), cut_a_ms.max(cut_b_ms));
        let mut original = build(&l);
        submit_all(&mut original, &l);
        original.run_until(SimTime(base_ms * 1_000_000));
        let base = original.checkpoint_base(1, &[]);
        original.run_until(SimTime(delta_ms * 1_000_000));
        let delta = original.checkpoint_delta(2, 1, &[]);
        let bytes = original.checkpoint();

        let mut folded = build(&l);
        folded.restore_chain(&[base, delta]).expect("self-produced chain restores");
        prop_assert_eq!(folded.checkpoint(), bytes, "chain fold is not the cut state");

        let horizon = SimTime(60_000_000_000) + SimDuration::from_secs(600);
        original.run_until(horizon);
        folded.run_until(horizon);
        prop_assert_eq!(
            folded.checkpoint(),
            original.checkpoint(),
            "folded run diverged from the original"
        );
    }

    /// A restored platform satisfies the same physical invariants as a
    /// live one: per-process USS ≤ PSS ≤ RSS, and request conservation
    /// (submitted = completed + failed + in flight).
    #[test]
    fn restore_preserves_memory_and_conservation_invariants(
        l in load(),
        cut_ms in 0u64..70_000,
    ) {
        let mut original = build(&l);
        submit_all(&mut original, &l);
        original.run_until(SimTime(cut_ms * 1_000_000));
        let bytes = original.checkpoint();

        let mut p = build(&l);
        p.restore(&bytes).expect("self-produced checkpoint restores");

        let sys = p.system();
        for pid in sys.pids().collect::<Vec<_>>() {
            let (u, ps, r) = (uss(sys, pid), pss(sys, pid), rss(sys, pid));
            prop_assert!(
                u as f64 <= ps + 1e-6 && ps <= r as f64 + 1e-6,
                "pid {:?}: USS {} <= PSS {} <= RSS {} violated after restore",
                pid, u, ps, r
            );
        }
        let (submitted, completed, failed) = p.request_totals();
        prop_assert_eq!(
            completed + failed + p.in_flight(),
            submitted,
            "request conservation violated after restore"
        );

        // And the restored run still drains and tears down clean.
        p.run_until(SimTime(60_000_000_000) + SimDuration::from_secs(600));
        prop_assert_eq!(p.in_flight(), 0);
        prop_assert!(p.shutdown().is_ok(), "teardown after restore did not balance");
        prop_assert_eq!(p.cache_used(), 0);
    }
}
