//! Cluster-scale replay: the §5.3 protocol fanned over N shards.
//!
//! The rounds come from the same one-step-per-phase schedule that
//! drives [`replay`](crate::replay::replay): each phase's arrivals are
//! enqueued at its start, and the cluster advances to the phase end in
//! barrier rounds. Arrivals flow through a [`Cluster`]'s front end
//! instead of a single platform's submit call. The trace is *not*
//! pre-partitioned: every arrival is placed by the router at the
//! barrier round it falls into, so the partition of work across shards
//! is itself an output of the placement policy under test.
//!
//! The outcome carries the cluster digest (shard checkpoints plus the
//! fleet-level front-end bytes). Two runs of the same configuration
//! must produce the same digest regardless of worker count, kill
//! schedule, or outage plan — that is the determinism contract the
//! cluster gates enforce. Every replay additionally asserts the
//! request-conservation invariant: each routed request terminated in
//! exactly one typed outcome (or is still queued for retry).

use cluster::{Cluster, ClusterTotals};

use crate::generate::TraceFunction;
use crate::replay::{schedule, ReplayConfig};

/// Aggregate outcome of one cluster replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterReplayOutcome {
    /// The determinism oracle: FNV-1a over shard states and fleet
    /// front-end state at the final barrier.
    pub digest: u64,
    /// Migration overrides the router accepted.
    pub migrations: u64,
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Shard counters (completions since the measured-window stats
    /// reset) and the run-lifetime front-end lifecycle counters at the
    /// final barrier.
    pub totals: ClusterTotals,
}

/// Runs the warm-up / measured-window / drain protocol over `cluster`.
///
/// Shard stats reset at the warm-up boundary (journaled, so a
/// kill-recovery replays the reset at the same round); the outcome's
/// completion counters therefore cover the measured window and drain,
/// as in the single-platform driver. Front-end lifecycle counters are
/// run-lifetime, so the conservation check asserted here is exact.
pub fn replay_cluster(
    cluster: &mut Cluster,
    trace: &[TraceFunction],
    config: &ReplayConfig,
) -> ClusterReplayOutcome {
    for round in schedule(trace, config, cluster.now(), 1) {
        if round.reset {
            cluster.reset_stats();
        }
        for (t, fn_idx) in round.arrivals {
            cluster.enqueue(t, fn_idx);
        }
        cluster.advance_to(round.window.end);
    }

    let totals = cluster.totals();
    assert!(
        totals.conservation(),
        "request conservation violated: routed={} delivered={} shed={} failed={} pending={}",
        totals.routed,
        totals.delivered,
        totals.shed(),
        totals.frontend_failed(),
        totals.pending_retries,
    );
    ClusterReplayOutcome {
        digest: cluster.digest(),
        migrations: cluster.migrations(),
        rounds: cluster.rounds() as u64,
        totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::build_trace;
    use cluster::{ClusterConfig, Placement, ShardSetup};
    use faas::{OutageKind, OutagePlan, OutageWindow};
    use simos::SimDuration;

    fn quick_config() -> ReplayConfig {
        ReplayConfig {
            warmup: SimDuration::from_secs(6),
            duration: SimDuration::from_secs(16),
            scale: 8.0,
            warmup_scale: 8.0,
            seed: 9,
            drain: SimDuration::from_secs(8),
        }
    }

    fn run_once(policy: Placement, jobs: usize) -> ClusterReplayOutcome {
        let trace = build_trace(&workloads::catalog(), 9);
        let cfg = ClusterConfig {
            shards: 4,
            policy,
            jobs,
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(cfg, &ShardSetup::vanilla());
        replay_cluster(&mut c, &trace, &quick_config())
    }

    #[test]
    fn digest_is_jobs_invariant_for_every_policy() {
        for policy in [Placement::HashAffinity, Placement::ColdStartAware] {
            let serial = run_once(policy, 1);
            let parallel = run_once(policy, 4);
            assert!(serial.totals.completed > 0, "{policy:?} completed nothing");
            assert_eq!(
                serial, parallel,
                "{policy:?} outcome diverged between 1 and 4 jobs"
            );
        }
    }

    #[test]
    fn policies_actually_differ() {
        // Different placement must yield different trajectories —
        // otherwise the policies are not actually plugged in.
        let a = run_once(Placement::HashAffinity, 2);
        let b = run_once(Placement::ColdStartAware, 2);
        assert_ne!(a.digest, b.digest);
    }

    fn run_outage(kind: OutageKind, jobs: usize) -> ClusterReplayOutcome {
        let trace = build_trace(&workloads::catalog(), 9);
        let cfg = ClusterConfig {
            shards: 4,
            policy: Placement::HashAffinity,
            jobs,
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(cfg, &ShardSetup::vanilla());
        c.set_outage_plan(OutagePlan {
            windows: vec![OutageWindow { shard: 1, start: 4, rounds: 3, kind, planned: false }],
        });
        replay_cluster(&mut c, &trace, &quick_config())
    }

    #[test]
    fn outage_replay_is_jobs_invariant_and_conserves_requests() {
        for kind in [OutageKind::Down, OutageKind::Partitioned] {
            let serial = run_outage(kind, 1);
            let parallel = run_outage(kind, 4);
            assert_eq!(serial, parallel, "{kind:?} outcome diverged between job counts");
            assert!(serial.totals.outage_rounds == 3, "{kind:?}: expected 3 dark rounds");
            assert!(serial.totals.retries > 0, "{kind:?}: stranded requests must retry");
            match kind {
                OutageKind::Down => {
                    assert!(serial.totals.heals > 0, "Down must heal via the store")
                }
                OutageKind::Partitioned => {
                    assert_eq!(serial.totals.heals, 0, "a partition needs no state rebuild")
                }
            }
        }
    }
}
