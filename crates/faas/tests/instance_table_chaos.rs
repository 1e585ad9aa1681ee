//! The instance table under chaos: the fault schedules that churn
//! instances hardest (crash teardown, OOM kill) must never bring a
//! destroyed `InstanceId` back. Observable guarantees: the table stays
//! coherent at every step (`check_instance_table`: ids below the
//! allocation cursor, pools naming live slots), a destroyed instance's
//! id never resurfaces, and teardown leaves nothing behind.

use std::collections::BTreeSet;

use faas::config::PlatformConfig;
use faas::platform::{GcMode, InstanceId, Platform};
use faas::FaultPlan;
use proptest::prelude::*;
use simos::{SimDuration, SimTime};

/// A load with a fault schedule biased toward crashes and OOM kills —
/// the paths that destroy instances.
#[derive(Debug, Clone)]
struct ChaosLoad {
    arrivals: Vec<(usize, u64)>,
    cache_mib: u64,
    fault_seed: u64,
    rate_pct: u32,
}

fn chaos_load() -> impl Strategy<Value = ChaosLoad> {
    (
        prop::collection::vec((0usize..20, 0u64..40_000), 10..60),
        // Small caches force eviction + OOM pressure, more slot churn.
        256u64..768,
        any::<u64>(),
        5u32..=30,
    )
        .prop_map(|(arrivals, cache_mib, fault_seed, rate_pct)| ChaosLoad {
            arrivals,
            cache_mib,
            fault_seed,
            rate_pct,
        })
}

fn build(l: &ChaosLoad) -> Platform {
    let config = PlatformConfig {
        cache_budget: l.cache_mib << 20,
        cores: 2.0,
        faults: Some(FaultPlan::uniform(l.fault_seed, l.rate_pct as f64 / 100.0)),
        ..PlatformConfig::default()
    };
    Platform::new(config, workloads::catalog(), GcMode::Vanilla, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stepping through an arbitrary chaos run in coarse slices: at
    /// every slice boundary the instance table is coherent, no
    /// destroyed id has come back to life, and every id ever observed
    /// is below the monotonic allocation cursor.
    #[test]
    fn destroyed_ids_never_resurface_under_chaos(l in chaos_load()) {
        let mut p = build(&l);
        let mut sorted = l.arrivals.clone();
        sorted.sort_by_key(|(_, t)| *t);
        for &(f, t_ms) in &sorted {
            p.submit(SimTime(t_ms * 1_000_000), f);
        }
        let mut ever_seen: BTreeSet<InstanceId> = BTreeSet::new();
        let mut dead: BTreeSet<InstanceId> = BTreeSet::new();
        let horizon = SimTime(40_000_000_000) + SimDuration::from_secs(600);
        let mut t = SimTime::ZERO;
        while t < horizon {
            t = SimTime(t.0 + 500_000_000);
            p.run_until(t.min(horizon));
            p.check_instance_table().expect("instance table incoherent");
            let live: BTreeSet<InstanceId> =
                p.instance_uss().iter().map(|(id, _)| *id).collect();
            for id in &live {
                prop_assert!(
                    !dead.contains(id),
                    "destroyed instance {id:?} resurfaced"
                );
            }
            // Anything previously seen but no longer live was
            // destroyed; its id must stay dead forever.
            for id in ever_seen.difference(&live) {
                dead.insert(*id);
            }
            ever_seen.extend(live);
        }
        prop_assert_eq!(p.in_flight(), 0, "chaos run did not drain");
        prop_assert!(p.shutdown().is_ok(), "teardown accounting did not balance");
        prop_assert_eq!(p.instance_count(), 0);
        p.check_instance_table().expect("table not clean after shutdown");
    }
}
