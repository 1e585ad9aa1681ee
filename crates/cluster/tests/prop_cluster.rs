//! Property tests for the barrier engine's determinism contract:
//! arbitrary cross-shard schedules must produce identical digests at
//! `jobs = 1` and `jobs = N` — with an arbitrary mid-run shard kill
//! recovered through the checkpoint lattice along the way.

use cluster::{Cluster, ClusterConfig, Placement, ShardSetup};
use faas::{Cadence, CrashPlan, PlatformConfig};
use proptest::prelude::*;
use simos::{SimDuration, SimTime};

/// A randomized cluster schedule.
#[derive(Debug, Clone)]
struct Schedule {
    /// `(arrival offset ms, function index)` pairs, sorted before use.
    arrivals: Vec<(u64, usize)>,
    shards: u32,
    policy: Placement,
    round_ms: u64,
    cache_mib: u64,
    /// Kill one shard after this many events (`None` = no chaos).
    kill_after: Option<u64>,
    kill_shard: u32,
}

fn schedule() -> impl Strategy<Value = Schedule> {
    (
        prop::collection::vec((0u64..20_000, 0usize..20), 8..60),
        (2u32..5, 0u32..5),
        prop_oneof![
            Just(Placement::HashAffinity),
            Just(Placement::ColdStartAware),
        ],
        500u64..4_000,
        512u64..2048,
        (any::<bool>(), 5u64..200),
    )
        .prop_map(
            |(arrivals, (shards, kill_shard), policy, round_ms, cache_mib, (chaos, kill_n))| {
                Schedule {
                    arrivals,
                    shards,
                    policy,
                    round_ms,
                    cache_mib,
                    kill_after: chaos.then_some(kill_n),
                    kill_shard,
                }
            },
        )
}

fn run(s: &Schedule, jobs: usize) -> (u64, u64, u64) {
    let mut setup = ShardSetup::vanilla();
    setup.platform = PlatformConfig {
        cache_budget: s.cache_mib << 20,
        ..PlatformConfig::default()
    };
    let cfg = ClusterConfig {
        shards: s.shards,
        policy: s.policy,
        jobs,
        round: SimDuration::from_millis(s.round_ms),
        cadence: Cadence {
            checkpoint_every: 2,
            base_every: 3,
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg, &setup);
    if let Some(n) = s.kill_after {
        c.plan_kill(s.kill_shard % s.shards, CrashPlan::every(n));
    }
    let mut sorted = s.arrivals.clone();
    sorted.sort_unstable();
    for &(t_ms, f) in &sorted {
        c.enqueue(SimTime(t_ms * 1_000_000), f);
    }
    // Horizon generous enough for every request to drain.
    c.advance_to(SimTime(20_000_000_000) + SimDuration::from_secs(140));
    let totals = c.totals();
    (c.digest(), totals.completed, totals.recoveries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The digest — shard states plus router state — is a pure
    /// function of the schedule: worker count must not leak into it,
    /// and neither must a mid-run kill that the checkpoint lattice
    /// recovers.
    #[test]
    fn digest_is_invariant_under_jobs_and_kills(s in schedule()) {
        let (serial, completed_serial, _) = run(&s, 1);
        let (parallel, completed_parallel, _) = run(&s, 4);
        prop_assert_eq!(completed_serial, completed_parallel, "completions diverged");
        prop_assert_eq!(serial, parallel, "digest depends on worker count");
        if s.kill_after.is_some() {
            // The same schedule with chaos disabled is the control: a
            // recovered run must land on the very same digest.
            let calm = Schedule { kill_after: None, ..s.clone() };
            let (control, completed_control, recoveries) = run(&calm, 2);
            prop_assert_eq!(recoveries, 0u64);
            prop_assert_eq!(completed_control, completed_serial);
            prop_assert_eq!(control, serial, "kill-recovery left a residue in the digest");
        }
    }
}
