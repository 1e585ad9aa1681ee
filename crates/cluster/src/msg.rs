//! Barrier messages: everything a shard tells the router.
//!
//! These are the *only* bytes that cross a shard boundary. A shard
//! summarizes itself into a [`ShardReport`] at each barrier; the
//! router folds the reports in canonical shard order. Nothing in here
//! names an instance or any other piece of shard-local simulation
//! state — placement works on aggregates, which is what lets
//! [`crate::shard::Shard`] keep its platform private.

use std::collections::BTreeMap;

use faas::FrozenFnSummary;

/// One shard's barrier summary: load and warm-set signals for the
/// placement policies, plus any migration offers made under memory
/// pressure or ahead of a planned outage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// The reporting shard.
    pub shard: u32,
    /// Requests somewhere between submission and completion.
    pub in_flight: u64,
    /// Bytes charged against the instance cache.
    pub cache_used: u64,
    /// The shard's cache budget (constant, but carried so the router
    /// never has to reach into shard configuration).
    pub cache_budget: u64,
    /// Live instances (any status).
    pub instances: u64,
    /// Frozen (warm, thaw-able) instances.
    pub frozen: u64,
    /// Per-function summary of the frozen cache: the warm set the
    /// cold-start-aware policy routes on.
    pub warm: BTreeMap<usize, FrozenFnSummary>,
    /// Functions this shard wants re-homed (memory pressure or a
    /// planned-outage drain).
    pub offers: Vec<MigrationOffer>,
}

impl ShardReport {
    /// The all-zero report the router's view starts from for a shard
    /// that has never reported (same routing behavior as no view row).
    pub fn empty(shard: u32) -> ShardReport {
        ShardReport {
            shard,
            in_flight: 0,
            cache_used: 0,
            cache_budget: 0,
            instances: 0,
            frozen: 0,
            warm: BTreeMap::new(),
            offers: Vec::new(),
        }
    }
}

// Part of the cluster digest and of the router's own state bytes.
snapshot::record!(ShardReport {
    shard: u32,
    in_flight: u64,
    cache_used: u64,
    cache_budget: u64,
    instances: u64,
    frozen: u64,
    warm: BTreeMap<usize, FrozenFnSummary>,
    offers: Vec<MigrationOffer>,
});

/// A shard asking the router to re-home one function's *future*
/// placements elsewhere — because of memory pressure, or because the
/// shard is about to enter a planned outage and is draining its warm
/// set.
///
/// Migration is affinity reassignment, not state surgery: the offering
/// shard keeps (and eventually evicts or reclaims) the instances it
/// already holds, while new arrivals of the function land on the
/// target the router picks at the barrier. That keeps every byte of
/// shard-local state shard-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOffer {
    /// The offering shard.
    pub from: u32,
    /// Catalog index of the function to re-home.
    pub fn_idx: usize,
    /// USS charge the function's frozen instances hold on the offering
    /// shard — the router's signal for how much pressure moves.
    pub charge: u64,
    /// True when the offer is a planned-outage drain: the router
    /// remembers the origin and restores hash affinity once the shard
    /// heals.
    pub drain: bool,
}

snapshot::record!(MigrationOffer {
    from: u32,
    fn_idx: usize,
    charge: u64,
    drain: bool,
});

/// End-of-run aggregate counters summed over shards by the engine,
/// plus the front end's request-lifecycle accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterTotals {
    /// Requests completed across all shards.
    pub completed: u64,
    /// Requests that terminated with a failure inside a platform.
    pub failed: u64,
    /// Cold boots started.
    pub cold_boots: u64,
    /// Frozen instances evicted under pressure.
    pub evictions: u64,
    /// Live instances at observation time.
    pub instances: u64,
    /// Frozen instances at observation time.
    pub frozen: u64,
    /// Cache bytes charged at observation time.
    pub cache_used: u64,
    /// Kill-recoveries across all shards.
    pub recoveries: u64,
    /// Recoveries that restarted from nothing (journal-only).
    pub scratch_recoveries: u64,
    /// Outage heals: durable-store re-admissions after `Down` windows.
    pub heals: u64,
    /// Shard-rounds spent unreachable (down or partitioned).
    pub outage_rounds: u64,
    /// Requests that entered front-end placement.
    pub routed: u64,
    /// Requests handed to a reachable shard.
    pub delivered: u64,
    /// Requests shed at admission: chosen shard over budget.
    pub shed_overload: u64,
    /// Requests shed at admission: no routable shard.
    pub shed_unroutable: u64,
    /// Requests whose deadline expired while stranded.
    pub failed_deadline: u64,
    /// Requests stranded past the retry cap.
    pub failed_retries: u64,
    /// Retry placements performed.
    pub retries: u64,
    /// Hedge copies placed.
    pub hedges: u64,
    /// Deliveries that succeeded only through the hedge copy.
    pub hedge_wins: u64,
    /// Hedge copies that duplicated a live primary.
    pub hedge_extra: u64,
    /// Requests still queued for retry at observation time.
    pub pending_retries: u64,
}

impl ClusterTotals {
    /// Requests shed, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_unroutable
    }

    /// Requests failed at the front end, all reasons.
    pub fn frontend_failed(&self) -> u64 {
        self.failed_deadline + self.failed_retries
    }

    /// The conservation invariant: every request that entered
    /// placement terminated in exactly one typed outcome (or is still
    /// queued for retry at observation time).
    pub fn conservation(&self) -> bool {
        self.routed == self.delivered + self.shed() + self.frontend_failed() + self.pending_retries
    }
}
