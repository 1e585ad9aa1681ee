//! # cluster — sharded FaaS simulation with deterministic parallel replay
//!
//! The paper evaluates Desiccant on one machine; production FaaS
//! traffic spans thousands. This crate scales the simulator out: a
//! [`Cluster`] owns N independent platform shards (one simulated
//! machine each, Desiccant managers and all), a front-end [`Router`]
//! places arrivals under a pluggable [`Placement`] policy, and a
//! time-barrier engine advances all shards in coarse rounds — shards
//! drain their event queues up to each barrier concurrently on the
//! scoped worker pool, then exchange messages (per-shard stats, warm
//! sets, migration offers) at the barrier in canonical shard order.
//!
//! The design invariant, inherited from every gate in this repo: the
//! outcome is **byte-identical** whatever the worker count. Placement
//! and merge are serial folds over canonically ordered data; the
//! parallel section is a pure per-shard function. [`Cluster::digest`]
//! — FNV-1a over every shard's canonical checkpoint bytes plus the
//! fleet-level front-end bytes — is the oracle the determinism gates
//! compare at `--jobs 1/2/N`, and it also survives killing any shard
//! mid-round: each shard is a `faas::durable` driver (incremental
//! checkpoint store plus write-ahead round journal), the same driver
//! the single-machine resumable replay uses.
//!
//! # Failure domains
//!
//! Fleet-level faults layer on top of per-shard kills: a seeded
//! outage plan darkens whole shard-rounds (down or partitioned), a
//! per-shard [`Health`] machine on the router turns missing barrier
//! reports into Up → Suspect → Down → Probing transitions, every
//! placement policy routes around `Down` shards, and a [`FrontEnd`]
//! gives each request a deadline, capped retries, optional same-round
//! hedging, and typed load shedding — with the conservation invariant
//! (`routed == delivered + shed + failed + pending`) checked in
//! [`ClusterTotals`] and asserted by the chaos gates.
//!
//! Module layout mirrors the isolation boundary field privacy
//! enforces: [`shard`] is the only module that names the platform;
//! [`router`], [`msg`], [`health`], [`frontend`], and [`engine`] deal
//! in plain data.

#![forbid(unsafe_code)]

pub mod engine;
pub mod frontend;
pub mod health;
pub mod msg;
pub mod router;
pub mod shard;

pub use engine::{Cluster, ClusterConfig};
pub use frontend::{
    AvailabilityReport, FrontEnd, FrontEndConfig, FrontReq, FrontStats, ShedReason,
};
pub use health::{Health, HealthPolicy, HealthState};
pub use msg::{ClusterTotals, MigrationOffer, ShardReport};
pub use router::{Placement, Router, Routing};
pub use shard::{ManagerFn, Shard, ShardSetup};

/// FNV-1a over `bytes` from the standard offset basis.
pub fn fnv64_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv64_update(&mut h, bytes);
    h
}

/// Folds `bytes` into a running FNV-1a state.
pub fn fnv64_update(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv64_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = fnv64_bytes(b"");
        fnv64_update(&mut h, b"a");
        assert_eq!(h, 0xaf63_dc4c_8601_ec8c);
    }
}
