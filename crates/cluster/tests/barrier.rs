//! Integration gates for the barrier engine: jobs-invariance,
//! kill-recover digest identity, migration under pressure, placement
//! policy behaviour, and the fleet failure domains — outages, router
//! failover, deadlines/retries/hedging, admission control, and the
//! durability of fleet state across checkpoint cuts.

use cluster::{Cluster, ClusterConfig, FrontEndConfig, Placement, ShardSetup};
use desiccant::{Desiccant, DesiccantConfig};
use faas::{
    Cadence, CrashPlan, MemoryManager, OutageKind, OutagePlan, OutageWindow, PlatformConfig,
    StorageFaultPlan,
};
use simos::{SimDuration, SimTime};

fn desiccant_manager(_shard: u32) -> Option<Box<dyn MemoryManager>> {
    Some(Box::new(Desiccant::new(DesiccantConfig::default())))
}

fn setup(cache_budget: u64, desiccant: bool) -> ShardSetup {
    let mut s = ShardSetup::vanilla();
    s.platform = PlatformConfig {
        cache_budget,
        ..PlatformConfig::default()
    };
    if desiccant {
        s.manager = desiccant_manager;
    }
    s
}

/// A small synthetic workload: a steady drizzle over the catalog, hot
/// on a few functions, spanning `secs` simulated seconds.
fn drizzle(catalog_len: usize, secs: u64, seed: u64) -> Vec<(SimTime, usize)> {
    let mut out = Vec::new();
    let mut state = seed;
    let mut split = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut t = 0u64;
    while t < secs * 1_000_000_000 {
        t += 40_000_000 + split() % 120_000_000;
        let fn_idx = (split() % catalog_len as u64) as usize;
        out.push((SimTime(t), fn_idx));
    }
    out
}

fn run(
    setup: &ShardSetup,
    cfg: ClusterConfig,
    arrivals: &[(SimTime, usize)],
    end: SimTime,
    kill: Option<(u32, CrashPlan)>,
) -> (u64, cluster::ClusterTotals, u64) {
    let mut c = Cluster::new(cfg, setup);
    if let Some((shard, plan)) = kill {
        c.plan_kill(shard, plan);
    }
    for &(t, f) in arrivals {
        c.enqueue(t, f);
    }
    c.advance_to(end);
    (c.digest(), c.totals(), c.migrations())
}

#[test]
fn digest_identical_across_job_counts() {
    let s = setup(6 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 30, 3);
    let end = SimTime(36_000_000_000);
    let base = ClusterConfig {
        shards: 8,
        policy: Placement::ColdStartAware,
        ..ClusterConfig::default()
    };
    let mut digests = Vec::new();
    for jobs in [1, 2, 4, 8] {
        let cfg = ClusterConfig { jobs, ..base };
        let (digest, totals, _) = run(&s, cfg, &arrivals, end, None);
        assert!(totals.completed > 0);
        digests.push(digest);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "digest varies with job count: {digests:?}"
    );
}

#[test]
fn killed_shard_recovers_to_control_digest() {
    let s = setup(6 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 30, 5);
    let end = SimTime(36_000_000_000);
    let cfg = ClusterConfig {
        shards: 4,
        jobs: 2,
        ..ClusterConfig::default()
    };
    let (control, control_totals, _) = run(&s, cfg, &arrivals, end, None);
    let (chaos, chaos_totals, _) = run(&s, cfg, &arrivals, end, Some((2, CrashPlan::every(60))));
    assert!(chaos_totals.recoveries > 0, "kill schedule never fired");
    assert_eq!(control_totals.completed, chaos_totals.completed);
    assert_eq!(
        control, chaos,
        "recovered cluster diverged from the uninterrupted control"
    );
}

#[test]
fn storage_faults_on_one_shard_cost_recency_not_correctness() {
    let mut s = setup(6 << 30, false);
    let arrivals = drizzle(s.catalog.len(), 24, 7);
    let end = SimTime(30_000_000_000);
    let cfg = ClusterConfig {
        shards: 3,
        jobs: 3,
        cadence: Cadence {
            checkpoint_every: 2,
            base_every: 2,
        },
        ..ClusterConfig::default()
    };
    let (control, ..) = run(&s, cfg, &arrivals, end, None);
    // Every checkpoint write bit-flips at a fixed offset: no stored
    // chain ever verifies, so the killed shard recovers from nothing
    // and replays its whole journal.
    s.storage_faults = Some(StorageFaultPlan::corrupt_at(13, 80));
    let (chaos, totals, _) = run(&s, cfg, &arrivals, end, Some((1, CrashPlan::at(100))));
    assert_eq!(totals.recoveries, 1);
    assert_eq!(totals.scratch_recoveries, 1);
    assert_eq!(control, chaos, "journal-only recovery diverged");
}

#[test]
fn pressure_triggers_migration_offers_and_rehoming() {
    // A tiny cache and a hash policy that keeps hammering the same
    // shards: pressure must produce accepted migration offers.
    let s = setup(768 << 20, false);
    let arrivals = drizzle(s.catalog.len(), 40, 11);
    let end = SimTime(48_000_000_000);
    let cfg = ClusterConfig {
        shards: 2,
        jobs: 1,
        pressure: 0.5,
        ..ClusterConfig::default()
    };
    let (_, totals, migrations) = run(&s, cfg, &arrivals, end, None);
    assert!(totals.completed > 0);
    assert!(migrations > 0, "no migration offer was ever accepted");
}

#[test]
fn single_shard_cluster_matches_itself() {
    let s = setup(4 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 20, 13);
    let end = SimTime(26_000_000_000);
    let cfg = ClusterConfig {
        shards: 1,
        ..ClusterConfig::default()
    };
    let (a, ta, _) = run(&s, cfg, &arrivals, end, None);
    let (b, tb, _) = run(&s, cfg, &arrivals, end, None);
    assert_eq!(a, b);
    assert_eq!(ta, tb);
    assert!(ta.completed > 0);
}

#[test]
fn policies_spread_load_differently() {
    let s = setup(6 << 30, false);
    let arrivals = drizzle(s.catalog.len(), 24, 17);
    let end = SimTime(30_000_000_000);
    let mut digests = Vec::new();
    for policy in [Placement::HashAffinity, Placement::ColdStartAware] {
        let cfg = ClusterConfig {
            shards: 4,
            policy,
            jobs: 2,
            ..ClusterConfig::default()
        };
        let (digest, totals, _) = run(&s, cfg, &arrivals, end, None);
        assert!(totals.completed > 0, "{policy:?} completed nothing");
        digests.push(digest);
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 2, "placement policies were indistinguishable");
}

// ---------------------------------------------------------------------------
// Fleet failure domains
// ---------------------------------------------------------------------------

/// Runs a fleet under an optional outage plan and kill schedule,
/// returning the cluster itself so tests can interrogate availability,
/// health, and recovered fleet state.
fn run_fleet(
    setup: &ShardSetup,
    cfg: ClusterConfig,
    arrivals: &[(SimTime, usize)],
    end: SimTime,
    plan: Option<OutagePlan>,
    kill: Option<(u32, CrashPlan)>,
) -> Cluster {
    let mut c = Cluster::new(cfg, setup);
    if let Some(plan) = plan {
        c.set_outage_plan(plan);
    }
    if let Some((shard, kill_plan)) = kill {
        c.plan_kill(shard, kill_plan);
    }
    for &(t, f) in arrivals {
        c.enqueue(t, f);
    }
    c.advance_to(end);
    let totals = c.totals();
    assert!(
        totals.conservation(),
        "conservation violated: routed={} delivered={} shed={} failed={} pending={}",
        totals.routed,
        totals.delivered,
        totals.shed(),
        totals.frontend_failed(),
        totals.pending_retries
    );
    c
}

fn down_window(shard: u32, start: u64, rounds: u64) -> OutagePlan {
    OutagePlan::new(vec![OutageWindow {
        shard,
        start,
        rounds,
        kind: OutageKind::Down,
        planned: false,
    }])
}

#[test]
fn outage_digest_matches_across_jobs_and_kill_schedules() {
    let s = setup(6 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 30, 19);
    let end = SimTime(36_000_000_000);
    let base = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    let plan = down_window(2, 4, 3);
    let mut digests = Vec::new();
    for jobs in [1, 2, 4] {
        let cfg = ClusterConfig { jobs, ..base };
        let c = run_fleet(&s, cfg, &arrivals, end, Some(plan.clone()), None);
        let avail = c.availability();
        assert_eq!(avail.down_rounds, vec![0, 0, 3, 0]);
        assert!(avail.stats.retries > 0, "stranded requests never retried");
        assert!(c.totals().heals > 0, "a Down window must heal via the store");
        assert!(avail.conservation_holds(), "{}", avail.conservation_line());
        digests.push(c.digest());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "outage digest varies with job count: {digests:?}"
    );
    // A kill layered on top of the outage recovers to the same digest:
    // the kill-free run with the same plan is the control.
    let cfg = ClusterConfig { jobs: 2, ..base };
    let chaos = run_fleet(
        &s,
        cfg,
        &arrivals,
        end,
        Some(plan),
        Some((1, CrashPlan::every(80))),
    );
    assert!(chaos.totals().recoveries > 0, "kill schedule never fired");
    assert_eq!(
        chaos.digest(),
        digests[0],
        "kill + outage diverged from the kill-free control with the same plan"
    );
}

#[test]
fn down_heal_under_torn_writes_matches_fault_free_control() {
    let mut s = setup(6 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 30, 29);
    let end = SimTime(36_000_000_000);
    let base = ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    };
    // Dark from round 10: shard 2 has cut three checkpoints by then.
    let plan = down_window(2, 10, 3);
    let control = run_fleet(&s, base, &arrivals, end, Some(plan.clone()), None);
    assert_eq!(control.totals().heals, 1, "the Down window never healed");
    // Torn checkpoint puts lose their tail at a frame boundary. At rate
    // 0.5 (seed 31) the newest of shard 2's three cuts tears and the
    // heal restores the chain before it; at rate 1.0 every cut tears
    // and the heal replays the journal alone. Both must land on the
    // fault-free digest.
    for (rate, scratch) in [(0.5, 0), (1.0, 1)] {
        s.storage_faults = Some(StorageFaultPlan::torn(31, rate));
        for jobs in [1, 2] {
            let cfg = ClusterConfig { jobs, ..base };
            let torn = run_fleet(&s, cfg, &arrivals, end, Some(plan.clone()), None);
            let totals = torn.totals();
            assert_eq!(totals.heals, 1, "the Down window never healed");
            assert_eq!(totals.scratch_recoveries, scratch, "torn rate {rate}");
            assert_eq!(
                torn.digest(),
                control.digest(),
                "heal under torn rate {rate} diverged from the fault-free control at {jobs} jobs"
            );
        }
    }
}

#[test]
fn partitioned_shard_drains_in_place_without_heal() {
    let s = setup(6 << 30, false);
    let arrivals = drizzle(s.catalog.len(), 24, 23);
    let end = SimTime(30_000_000_000);
    let cfg = ClusterConfig {
        shards: 4,
        jobs: 2,
        ..ClusterConfig::default()
    };
    let plan = OutagePlan::new(vec![OutageWindow {
        shard: 3,
        start: 3,
        rounds: 4,
        kind: OutageKind::Partitioned,
        planned: false,
    }]);
    let c = run_fleet(&s, cfg, &arrivals, end, Some(plan), None);
    let totals = c.totals();
    assert_eq!(totals.outage_rounds, 4);
    assert_eq!(totals.heals, 0, "a partition keeps executing; no rebuild");
    assert!(totals.retries > 0, "requests placed onto the partition must strand");
    assert!(totals.delivered > 0);
}

#[test]
fn planned_outage_drains_the_warm_set_before_going_dark() {
    let s = setup(6 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 40, 29);
    let end = SimTime(48_000_000_000);
    let cfg = ClusterConfig {
        shards: 2,
        jobs: 2,
        policy: Placement::ColdStartAware,
        ..ClusterConfig::default()
    };
    let plan = OutagePlan::new(vec![OutageWindow {
        shard: 1,
        start: 10,
        rounds: 3,
        kind: OutageKind::Down,
        planned: true,
    }]);
    let calm = run_fleet(&s, cfg, &arrivals, end, None, None);
    let drained = run_fleet(&s, cfg, &arrivals, end, Some(plan), None);
    assert!(
        drained.migrations() > calm.migrations(),
        "the drain round must re-home warm functions beyond pressure migration \
         (drained {} vs calm {})",
        drained.migrations(),
        calm.migrations()
    );
}

#[test]
fn queue_budget_sheds_with_typed_reasons() {
    let s = setup(6 << 30, false);
    let arrivals = drizzle(s.catalog.len(), 24, 31);
    let end = SimTime(30_000_000_000);
    let cfg = ClusterConfig {
        shards: 2,
        jobs: 1,
        frontend: FrontEndConfig {
            queue_budget: 2,
            ..FrontEndConfig::default()
        },
        ..ClusterConfig::default()
    };
    let c = run_fleet(&s, cfg, &arrivals, end, None, None);
    let stats = c.front_stats();
    assert!(stats.shed_overload > 0, "a 2-deep budget must shed under drizzle");
    assert!(stats.delivered > 0, "shedding everything means the budget is broken");
}

#[test]
fn hedging_rescues_requests_that_otherwise_fail() {
    let s = setup(6 << 30, false);
    let arrivals = drizzle(s.catalog.len(), 30, 37);
    let end = SimTime(36_000_000_000);
    let plan = down_window(1, 4, 4);
    let run_with = |hedge: bool| {
        let cfg = ClusterConfig {
            shards: 4,
            jobs: 2,
            frontend: FrontEndConfig {
                hedge,
                max_retries: 0,
                ..FrontEndConfig::default()
            },
            ..ClusterConfig::default()
        };
        run_fleet(&s, cfg, &arrivals, end, Some(plan.clone()), None)
    };
    let bare = run_with(false).front_stats();
    let hedged = run_with(true).front_stats();
    assert!(bare.failed_retries > 0, "without retries, strandings must fail");
    assert_eq!(bare.hedges, 0);
    assert!(hedged.hedge_wins > 0, "hedges never rescued a stranded request");
    assert!(
        hedged.failed_retries < bare.failed_retries,
        "hedging must strictly reduce failures ({} vs {})",
        hedged.failed_retries,
        bare.failed_retries
    );
}

#[test]
fn short_deadlines_expire_while_stranded() {
    let s = setup(6 << 30, false);
    let arrivals = drizzle(s.catalog.len(), 30, 41);
    let end = SimTime(36_000_000_000);
    let cfg = ClusterConfig {
        shards: 4,
        jobs: 2,
        frontend: FrontEndConfig {
            deadline: SimDuration::from_secs(1),
            max_retries: 10,
            ..FrontEndConfig::default()
        },
        ..ClusterConfig::default()
    };
    let c = run_fleet(&s, cfg, &arrivals, end, Some(down_window(2, 4, 4)), None);
    let stats = c.front_stats();
    assert!(
        stats.failed_deadline > 0,
        "a 1s deadline cannot survive a multi-round stranding"
    );
    assert!(stats.delivered > 0);
}

#[test]
fn fleet_state_rides_shard_zero_checkpoints() {
    let s = setup(6 << 30, true);
    let arrivals = drizzle(s.catalog.len(), 30, 43);
    let end = SimTime(36_000_000_000);
    let cfg = ClusterConfig {
        shards: 4,
        jobs: 2,
        ..ClusterConfig::default()
    };
    // Kill shard 0 repeatedly: the last recovery restores a cut late
    // in the run, after several front-end frames have been embedded.
    let c = run_fleet(&s, cfg, &arrivals, end, None, Some((0, CrashPlan::every(60))));
    assert!(c.totals().recoveries > 0, "kill never fired");
    let bytes = c
        .recovered_front(0)
        .expect("restored cut carries no front-end frame");
    let (router, front, rounds) = Cluster::decode_front(&bytes).expect("front frame decodes");
    assert!(rounds > 0, "recovery restored the round-zero cut");
    assert!(
        rounds.is_multiple_of(cfg.cadence.checkpoint_every as u64),
        "front frame must come from a cut round (got round {rounds})"
    );
    assert!(front.stats.routed > 0, "checkpointed front end saw no traffic");
    // The decoded router re-encodes to the same canonical bytes.
    let mut r = snapshot::Reader::new(&bytes);
    let router_bytes = r.blob().expect("router blob").to_vec();
    assert_eq!(router.state_bytes(), router_bytes);
}
