//! The barrier round: the one place a shard is mutated.
//!
//! `Cluster::run_round` places the round's intake, drains every shard
//! on the worker pool and merges the reports — the three steps of the
//! [engine](super). A shard executes a round through `Shard::run` and
//! arms a kill schedule through `Shard::plan_kill`, and both take a
//! [`RoundToken`]. The token's field is private, so only this module
//! can build one: nothing else in the crate, the rest of the engine
//! included, can mutate a shard outside the round, which is what keeps
//! the replay byte-identical at any job count.

use std::sync::Mutex;

use faas::fault::{CrashPlan, OutageKind};
use simos::SimTime;

use super::Cluster;
use crate::frontend::{FrontReq, ShedReason};
use crate::router::Routing;
use crate::shard::Shard;

/// Proof that the caller is the barrier round's module: `Shard::run`
/// and `Shard::plan_kill` take one, and only this module can build
/// one.
///
/// ```compile_fail,E0451
/// let _ = cluster::engine::round::RoundToken { _sealed: () };
/// ```
pub struct RoundToken {
    _sealed: (),
}

const TOKEN: RoundToken = RoundToken { _sealed: () };

/// How one shard spends one round.
pub(crate) enum RoundMode {
    /// Reachable: execute the batch and report at the barrier.
    Live {
        batch: Vec<(SimTime, usize)>,
        drain: bool,
    },
    /// Unreachable: no batch arrives, no report leaves.
    Dark(OutageKind),
}

/// One round's work order for one shard — what [`Shard::run`]
/// executes.
pub(crate) struct RoundWork {
    pub(crate) round: usize,
    pub(crate) barrier: SimTime,
    pub(crate) reset: bool,
    pub(crate) mode: RoundMode,
    /// Migration-offer shaping for the report (see [`Shard::run`]).
    pub(crate) pressure: f64,
    pub(crate) max_offers: usize,
    /// Engine front-end bytes for this round's checkpoint cut (shard 0
    /// on cut rounds only).
    pub(crate) front: Option<Vec<u8>>,
}

impl Cluster {
    /// Arms a kill schedule on one shard.
    pub fn plan_kill(&mut self, shard: u32, plan: CrashPlan) {
        self.shards[shard as usize]
            .lock()
            .expect("shard lock")
            .plan_kill(&TOKEN, plan);
    }

    /// One barrier round: place, drain in parallel, merge.
    pub(super) fn run_round(&mut self, barrier: SimTime) {
        let n = self.cfg.shards as usize;
        let round = self.rounds;
        // The round's dark set — a pure function of the round index,
        // evaluated serially so every job count sees the same fleet.
        let dark: Vec<Option<OutageKind>> = (0..self.cfg.shards)
            .map(|s| self.outages.as_ref().and_then(|p| p.dark(s, round as u64)))
            .collect();
        // Front-end frame for this round's checkpoint cut, captured
        // *before* placement mutates router or front end — a heal's
        // journal replay re-cuts byte-identical checkpoints.
        let front_frame = round
            .is_multiple_of(self.cfg.cadence.checkpoint_every)
            .then(|| self.frontend_bytes());
        // Intake: stranded retries first (they were re-timed to the
        // stranding barrier, which is `self.now`, so batch time order
        // is preserved), then fresh arrivals.
        let mut intake: Vec<FrontReq> = self.front.drain_retries();
        while self.pending.front().is_some_and(|&(t, _)| t <= barrier) {
            let Some((t, fn_idx)) = self.pending.pop_front() else { break };
            self.front.stats.routed += 1;
            intake.push(FrontReq {
                t,
                fn_idx,
                attempts: 0,
                deadline: t + self.cfg.frontend.deadline,
            });
        }
        let mut batches: Vec<Vec<(SimTime, usize)>> = vec![Vec::new(); n];
        // Requests handed out this round, pending outcome resolution
        // against the dark set at the barrier.
        let mut handed: Vec<(u32, Option<u32>, FrontReq)> = Vec::new();
        for req in intake {
            if req.attempts > 0 {
                self.front.stats.retries += 1;
                if req.deadline < self.now {
                    self.front.stats.failed_deadline += 1;
                    continue;
                }
            }
            match self
                .router
                .place(req.fn_idx, self.cfg.frontend.queue_budget, self.cfg.frontend.hedge)
            {
                Routing::Shed(ShedReason::Overload) => self.front.stats.shed_overload += 1,
                Routing::Shed(ShedReason::Unroutable) => self.front.stats.shed_unroutable += 1,
                Routing::Placed { primary, hedge } => {
                    if let Some(b) = batches.get_mut(primary as usize) {
                        b.push((req.t, req.fn_idx));
                    }
                    if let Some(h) = hedge {
                        self.front.stats.hedges += 1;
                        if let Some(b) = batches.get_mut(h as usize) {
                            b.push((req.t, req.fn_idx));
                        }
                    }
                    handed.push((primary, hedge, req));
                }
            }
        }
        let reset = self.reset_pending;
        self.reset_pending = false;
        let (pressure, max_offers) = (self.cfg.pressure, self.cfg.max_offers);
        let outages = self.outages.as_ref();
        let work: Vec<(&Mutex<Shard>, RoundWork)> = self
            .shards
            .iter()
            .zip(batches)
            .zip(&dark)
            .enumerate()
            .map(|(s, ((shard, batch), kind))| {
                let mode = match kind {
                    // The batch placed onto a dark shard never arrives:
                    // it is dropped here and resolved below as hedge
                    // wins, retries, or typed failures.
                    Some(kind) => RoundMode::Dark(*kind),
                    None => RoundMode::Live {
                        batch,
                        // A planned window opens next round: drain the
                        // warm set while the shard is still reachable.
                        drain: outages
                            .is_some_and(|p| p.planned_entry(s as u32, round as u64 + 1)),
                    },
                };
                let front = if s == 0 { front_frame.clone() } else { None };
                (shard, RoundWork { round, barrier, reset, mode, pressure, max_offers, front })
            })
            .collect();
        // The parallel fan-out. Report slots come back in input
        // (= shard) order regardless of completion order, so the merge
        // below is canonical at any job count.
        let reports = parallel::run_jobs(self.cfg.jobs, &work, |(shard, work)| {
            // tidy:allow(panic-reachability) -- poisoned only if a worker already panicked; propagating is correct
            shard.lock().expect("shard lock").run(&TOKEN, work)
        });
        for (count, kind) in self.outage_rounds.iter_mut().zip(&dark) {
            if kind.is_some() {
                *count += 1;
            }
        }
        // Resolve this round's hand-offs against the dark set: a
        // request on a dark primary is rescued by a live hedge or
        // stranded — and a stranded request retries (re-timed to this
        // barrier) or terminates with a typed failure.
        let is_dark =
            |s: u32| -> bool { dark.get(s as usize).copied().flatten().is_some() };
        for (primary, hedge, mut req) in handed {
            let hedge_live = hedge.is_some_and(|h| !is_dark(h));
            if !is_dark(primary) {
                self.front.stats.delivered += 1;
                if hedge_live {
                    self.front.stats.hedge_extra += 1;
                }
            } else if hedge_live {
                self.front.stats.delivered += 1;
                self.front.stats.hedge_wins += 1;
            } else if req.attempts >= self.cfg.frontend.max_retries {
                self.front.stats.failed_retries += 1;
            } else {
                req.attempts += 1;
                req.t = barrier;
                self.front.retry.push_back(req);
            }
        }
        self.router.absorb(&reports);
        self.last_reports = reports;
        self.rounds += 1;
        self.now = barrier;
    }
}
