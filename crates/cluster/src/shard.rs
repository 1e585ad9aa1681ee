//! One simulated machine: a [`Platform`] plus its durability envelope.
//!
//! This is the **only** module in the crate that names the platform or
//! drives its event loop. The platform lives in a private field and no
//! method hands out a `&Platform`, so the compiler keeps the engine
//! and router from reaching into shard-local simulation state.
//! Everything a shard exposes goes out as plain data: a
//! [`ShardReport`] at each barrier, canonical state bytes for the
//! digest, and aggregate totals.
//!
//! # Rounds, outages, and recovery
//!
//! A shard is a [`Durable`] platform: journaling, checkpoint cuts, kill
//! recovery and outage heals all live in `faas::durable`. The engine's
//! barrier round is one driver round, executed by `Shard::run`, which
//! only [`crate::engine::round`] can call. A dark round is one the router
//! cannot see. A **partitioned** shard keeps
//! executing (the machine is fine, the network is not) — only its
//! report is withheld. A **down** shard is frozen: the round is
//! journaled but nothing runs, and the first reachable round afterwards
//! heals through the durable store — which is why both outage kinds
//! converge to state bytes identical to an uninterrupted control.

use faas::fault::{CrashPlan, OutageKind};
use faas::platform::Platform;
use faas::{
    Cadence, Durable, GcMode, LatencyHistogram, MemoryManager, PlatformConfig, Retention,
    StorageFaultPlan,
};
use simos::SimTime;
use workloads::FunctionSpec;

use crate::engine::round::{RoundMode, RoundToken, RoundWork};
use crate::msg::{ClusterTotals, MigrationOffer, ShardReport};

/// Builds the (optional) memory manager for shard `id`. A plain `fn`
/// pointer: trivially `Send + Copy`, and it forces the factory to be
/// deterministic in the shard id alone — recovery rebuilds the
/// platform with the *same* call and must get an identically
/// configured manager.
pub type ManagerFn = fn(u32) -> Option<Box<dyn MemoryManager>>;

/// Everything needed to build — and rebuild, after a kill — one
/// shard's platform.
#[derive(Clone)]
pub struct ShardSetup {
    /// Per-shard platform configuration (cache budget, cores, ...).
    pub platform: PlatformConfig,
    /// The function catalog, shared by every shard.
    pub catalog: Vec<FunctionSpec>,
    /// Exit-time GC mode.
    pub mode: GcMode,
    /// Memory-manager factory (`|_| None` for vanilla shards).
    pub manager: ManagerFn,
    /// Storage faults to inject into this shard's checkpoint store;
    /// the seed is offset by the shard id so shards draw independent
    /// fault streams.
    pub storage_faults: Option<StorageFaultPlan>,
}

impl ShardSetup {
    /// A vanilla setup over the standard catalog.
    pub fn vanilla() -> ShardSetup {
        ShardSetup {
            platform: PlatformConfig::default(),
            catalog: workloads::catalog(),
            mode: GcMode::Vanilla,
            manager: |_| None,
            storage_faults: None,
        }
    }
}

/// Rebuilds one shard's platform — at start and after every kill or
/// heal.
type Rebuild = Box<dyn Fn() -> Platform + Send>;

/// One simulated machine of the cluster.
///
/// Opaque outside this module: the durability driver that owns the
/// platform is a private field, so reading it from the engine does not
/// compile.
///
/// ```compile_fail,E0616
/// fn peek(shard: &cluster::shard::Shard) {
///     let _ = &shard.durable;
/// }
/// ```
pub struct Shard {
    id: u32,
    durable: Durable<Rebuild>,
}

impl Shard {
    /// Builds shard `id` from its setup and checkpoint cadence.
    pub fn new(id: u32, setup: ShardSetup, cadence: Cadence) -> Shard {
        // Offset the fault seed by the shard id so shards draw
        // independent fault streams.
        let faults = setup.storage_faults.map(|mut plan| {
            plan.seed ^= u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            plan
        });
        let make: Rebuild = Box::new(move || {
            Platform::new(setup.platform, setup.catalog.clone(), setup.mode, (setup.manager)(id))
        });
        Shard {
            id,
            durable: Durable::new(make, cadence, faults),
        }
    }

    /// This shard's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's current simulated time.
    pub fn now(&self) -> SimTime {
        self.durable.platform().now()
    }

    /// Events the shard's platform has handled (for pinning kill
    /// schedules).
    pub fn events_seen(&self) -> u64 {
        self.durable.platform().events_handled()
    }

    /// Arms a kill schedule: the event loop dies at the plan's event
    /// counts and the shard recovers through its checkpoint lattice
    /// and journal.
    pub(crate) fn plan_kill(&mut self, _: &RoundToken, plan: CrashPlan) {
        self.durable.plan_kill(plan);
    }

    /// Executes barrier round `work.round` as one driver round, and
    /// reports at the barrier if the router can see the shard.
    ///
    /// A live round journals and executes the batch, then reports:
    /// when the cache is charged above `pressure × budget`, up to
    /// `max_offers` of the heaviest frozen functions are offered away,
    /// and `drain` instead offers the *entire* warm set (the shard is
    /// about to enter a planned outage). A dark round returns no
    /// report — the missing report *is* the router's signal.
    /// `Partitioned` keeps executing; `Down` freezes the machine: the
    /// round is journaled so the heal can replay it, but nothing runs
    /// until a reachable round. `work.front` is the engine's front-end
    /// frame for this round's checkpoint cut, if any.
    pub(crate) fn run(&mut self, _: &RoundToken, work: &RoundWork) -> Option<ShardReport> {
        let batch = match &work.mode {
            RoundMode::Live { batch, .. } => batch.as_slice(),
            RoundMode::Dark(_) => &[],
        };
        self.durable
            .journal_round(work.round, work.barrier, work.reset, batch, work.front.clone());
        match work.mode {
            RoundMode::Live { drain, .. } => {
                self.durable.catch_up();
                Some(self.report(work.pressure, work.max_offers, drain))
            }
            RoundMode::Dark(OutageKind::Partitioned) => {
                self.durable.catch_up();
                None
            }
            RoundMode::Dark(OutageKind::Down) => {
                self.durable.mark_down();
                None
            }
        }
    }

    /// The shard's barrier summary.
    fn report(&self, pressure: f64, max_offers: usize, drain: bool) -> ShardReport {
        let platform = self.durable.platform();
        let warm = platform.frozen_by_function();
        let cache_budget = platform.config().cache_budget;
        let cache_used = platform.cache_used();
        let mut offers = Vec::new();
        let mut ranked: Vec<(&usize, &faas::FrozenFnSummary)> = warm.iter().collect();
        // Heaviest charge first, oldest freeze first among equals —
        // deterministic and aligned with what LRU eviction would shed.
        ranked.sort_by(|a, b| {
            b.1.charge
                .cmp(&a.1.charge)
                .then(a.1.oldest_frozen.cmp(&b.1.oldest_frozen))
                .then(a.0.cmp(b.0))
        });
        if drain {
            // Planned outage next round: offer the whole warm set away
            // so the fleet keeps its thaw-able instances reachable.
            offers = ranked
                .into_iter()
                .map(|(&fn_idx, s)| MigrationOffer {
                    from: self.id,
                    fn_idx,
                    charge: s.charge,
                    drain: true,
                })
                .collect();
        } else if max_offers > 0 && cache_used as f64 > pressure * cache_budget as f64 {
            offers = ranked
                .into_iter()
                .take(max_offers)
                .map(|(&fn_idx, s)| MigrationOffer {
                    from: self.id,
                    fn_idx,
                    charge: s.charge,
                    drain: false,
                })
                .collect();
        }
        ShardReport {
            shard: self.id,
            in_flight: platform.in_flight(),
            cache_used,
            cache_budget,
            instances: platform.instance_count() as u64,
            frozen: platform.frozen_count() as u64,
            warm,
            offers,
        }
    }

    /// Canonical state bytes: the platform's full checkpoint. Equal
    /// shard states yield equal bytes — the unit the cluster digest is
    /// built from.
    ///
    /// A shard frozen inside a `Down` window heals first (the digest
    /// is only sampled at reachable points, and a healed shard must be
    /// indistinguishable from an uninterrupted control).
    pub fn state_bytes(&mut self) -> Vec<u8> {
        self.durable.catch_up();
        self.durable.platform().checkpoint()
    }

    /// The measured-window latency distribution of this shard.
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.durable.platform().stats().latency.clone()
    }

    /// The most objects and bytes the shard's checkpoint store has held
    /// at once. Not state: no digest or checkpoint reads it.
    pub fn store_high_water(&self) -> Retention {
        self.durable.store_high_water()
    }

    /// Front-end bytes recovered by the most recent store rebuild (the
    /// cut payload of the restored checkpoint), if any.
    pub fn recovered_front(&self) -> Option<&[u8]> {
        self.durable.recovered_cut()
    }

    /// End-of-run aggregate counters (the engine layers front-end
    /// accounting on top).
    pub fn totals(&mut self) -> ClusterTotals {
        self.durable.catch_up();
        let (platform, counts) = (self.durable.platform(), self.durable.counts());
        let stats = platform.stats();
        ClusterTotals {
            completed: stats.completed,
            failed: stats.failed,
            cold_boots: stats.cold_boots,
            evictions: stats.evictions,
            instances: platform.instance_count() as u64,
            frozen: platform.frozen_count() as u64,
            cache_used: platform.cache_used(),
            recoveries: counts.recoveries,
            scratch_recoveries: counts.scratch_recoveries,
            heals: counts.heals,
            ..ClusterTotals::default()
        }
    }
}
