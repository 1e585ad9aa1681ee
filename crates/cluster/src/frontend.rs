//! The cluster front end: request lifecycle around placement.
//!
//! Every arrival becomes a [`FrontReq`] with a deadline, and every
//! request terminates in **exactly one** typed outcome:
//!
//! * **delivered** — handed to a reachable shard (possibly via its
//!   hedge copy when the primary turned out to be dark);
//! * **shed(reason)** — refused at admission, either because no shard
//!   was routable or because the chosen shard's queue depth crossed
//!   the configured budget;
//! * **failed** — the deadline expired while stranded, or the capped
//!   retry budget ran out.
//!
//! The conservation invariant `routed == delivered + shed + failed +
//! pending` is checked by [`crate::msg::ClusterTotals::conservation`]
//! and asserted by the replay drivers on every run. A request handed
//! to a shard that silently went dark the same round is *stranded*:
//! the front end learns at the barrier (it observes the missing
//! report) and re-times the request to the barrier for the next
//! round's placement — capped by `max_retries` and its deadline.
//!
//! All counters here are run-lifetime (they never reset with the
//! platform's measured-window stats), so conservation is exact over a
//! whole run.

use std::collections::VecDeque;

use simos::{SimDuration, SimTime};

use crate::health::HealthPolicy;

/// Why the front end refused a request at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The chosen shard's queue depth (last-barrier in-flight plus
    /// this round's assignments) crossed the configured budget.
    Overload,
    /// No routable shard exists (the whole fleet is `Down`).
    Unroutable,
}

impl ShedReason {
    /// Short name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Overload => "overload",
            ShedReason::Unroutable => "unroutable",
        }
    }
}

/// Front-end request lifecycle knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndConfig {
    /// Per-request deadline, measured from arrival time. A stranded
    /// request whose deadline has passed at placement time fails
    /// instead of retrying.
    pub deadline: SimDuration,
    /// Retry attempts after the initial placement (0 = fail on the
    /// first stranding).
    pub max_retries: u32,
    /// Hedge placements onto a second shard whenever the primary is
    /// `Suspect` or `Probing`. The hedge copy executes too when both
    /// shards are live — hedging trades duplicate work for tail
    /// availability.
    pub hedge: bool,
    /// Queue-depth budget per shard for admission control; `0`
    /// disables shedding.
    pub queue_budget: u64,
    /// Thresholds of the per-shard health machine.
    pub health: HealthPolicy,
}

impl Default for FrontEndConfig {
    fn default() -> FrontEndConfig {
        FrontEndConfig {
            deadline: SimDuration::from_secs(12),
            max_retries: 3,
            hedge: false,
            queue_budget: 0,
            health: HealthPolicy::default(),
        }
    }
}

/// One request moving through the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontReq {
    /// Effective arrival time for the next placement (re-timed to the
    /// stranding barrier on retry).
    pub t: SimTime,
    /// Catalog index of the requested function.
    pub fn_idx: usize,
    /// Placement attempts already consumed.
    pub attempts: u32,
    /// Absolute deadline (arrival time plus the configured deadline).
    pub deadline: SimTime,
}

snapshot::record!(FrontReq {
    t: SimTime,
    fn_idx: usize,
    attempts: u32,
    deadline: SimTime,
});

/// Run-lifetime front-end counters. Every routed request lands in
/// exactly one of `delivered`, `shed_*`, or `failed_*` (or is still
/// queued for retry at observation time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Requests that entered placement (arrivals, not attempts).
    pub routed: u64,
    /// Requests handed to a reachable shard.
    pub delivered: u64,
    /// Requests shed because the chosen shard was over budget.
    pub shed_overload: u64,
    /// Requests shed because no shard was routable.
    pub shed_unroutable: u64,
    /// Requests whose deadline expired while stranded.
    pub failed_deadline: u64,
    /// Requests stranded more times than the retry cap allows.
    pub failed_retries: u64,
    /// Retry placements performed (attempts, may exceed request count).
    pub retries: u64,
    /// Hedge copies placed alongside a suspect primary.
    pub hedges: u64,
    /// Deliveries that only succeeded through the hedge copy.
    pub hedge_wins: u64,
    /// Hedge copies that executed although the primary was live
    /// (duplicate work, the cost side of hedging).
    pub hedge_extra: u64,
}

impl FrontStats {
    /// Requests shed, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_unroutable
    }

    /// Requests failed, all reasons.
    pub fn failed(&self) -> u64 {
        self.failed_deadline + self.failed_retries
    }
}

// Part of the cluster digest.
snapshot::record!(FrontStats {
    routed: u64,
    delivered: u64,
    shed_overload: u64,
    shed_unroutable: u64,
    failed_deadline: u64,
    failed_retries: u64,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
    hedge_extra: u64,
});

/// The front end's mutable state: the retry queue and the lifetime
/// counters. Owned by the engine; placement itself lives in the
/// router.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontEnd {
    /// Requests stranded at the last barrier, waiting for the next
    /// round's placement, in canonical (stranding) order.
    pub retry: VecDeque<FrontReq>,
    /// Lifetime outcome counters.
    pub stats: FrontStats,
}

impl FrontEnd {
    /// A fresh front end.
    pub fn new() -> FrontEnd {
        FrontEnd::default()
    }

    /// Takes every queued retry for this round's placement.
    pub fn drain_retries(&mut self) -> Vec<FrontReq> {
        self.retry.drain(..).collect()
    }

    /// Requests queued for retry at observation time.
    pub fn pending(&self) -> u64 {
        self.retry.len() as u64
    }
}

// Part of the cluster digest, and of the checkpoint frame riding shard
// 0's cuts.
snapshot::record!(FrontEnd { retry: VecDeque<FrontReq>, stats: FrontStats });

/// The fleet's availability summary over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Dark (unreachable) rounds per shard, in shard order.
    pub down_rounds: Vec<u64>,
    /// The lifetime front-end counters.
    pub stats: FrontStats,
    /// Requests still queued for retry at observation time (zero after
    /// a full drain unless the run ended mid-outage).
    pub pending_retries: u64,
    /// `delivered / routed` (1.0 when nothing was routed).
    pub success_rate: f64,
    /// Median completion latency over the measured window, merged
    /// across shards.
    pub p50: Option<SimDuration>,
    /// 99th-percentile completion latency, merged across shards.
    pub p99: Option<SimDuration>,
}

impl AvailabilityReport {
    /// Whether every routed request is accounted for by exactly one
    /// outcome (or still pending).
    pub fn conservation_holds(&self) -> bool {
        self.stats.routed
            == self.stats.delivered + self.stats.shed() + self.stats.failed() + self.pending_retries
    }

    /// The one-line accounting statement the gates grep for.
    pub fn conservation_line(&self) -> String {
        let verdict = if self.conservation_holds() { "OK" } else { "VIOLATED" };
        format!(
            "conservation {verdict}: routed={} delivered={} shed={} failed={} pending={}",
            self.stats.routed,
            self.stats.delivered,
            self.stats.shed(),
            self.stats.failed(),
            self.pending_retries
        )
    }

    /// Total dark rounds across the fleet.
    pub fn total_down_rounds(&self) -> u64 {
        self.down_rounds.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_front() -> FrontEnd {
        let mut fe = FrontEnd::new();
        fe.retry.push_back(FrontReq {
            t: SimTime(1_000),
            fn_idx: 7,
            attempts: 2,
            deadline: SimTime(9_000),
        });
        fe.stats.routed = 10;
        fe.stats.delivered = 8;
        fe.stats.shed_overload = 1;
        fe.stats.retries = 3;
        fe.stats.hedge_wins = 2;
        fe
    }

    #[test]
    fn front_end_codec_round_trips() {
        let fe = sample_front();
        let bytes = snapshot::encode(&fe);
        let back: FrontEnd = snapshot::decode(&bytes).expect("decode");
        assert_eq!(fe, back);
        assert_eq!(bytes, snapshot::encode(&back));
    }

    #[test]
    fn conservation_accounts_for_every_outcome() {
        let report = AvailabilityReport {
            rounds: 5,
            down_rounds: vec![0, 2],
            stats: FrontStats {
                routed: 10,
                delivered: 6,
                shed_overload: 1,
                shed_unroutable: 1,
                failed_deadline: 0,
                failed_retries: 1,
                ..FrontStats::default()
            },
            pending_retries: 1,
            success_rate: 0.6,
            p50: None,
            p99: None,
        };
        assert!(report.conservation_holds());
        assert!(report.conservation_line().starts_with("conservation OK:"));
        assert_eq!(report.total_down_rounds(), 2);
        let mut broken = report;
        broken.pending_retries = 0;
        assert!(!broken.conservation_holds());
        assert!(broken.conservation_line().contains("VIOLATED"));
    }
}
