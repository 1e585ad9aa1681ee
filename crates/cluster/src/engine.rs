//! The deterministic parallel time-barrier replay engine.
//!
//! A [`Cluster`] advances all shards in coarse rounds. Each round:
//!
//! 1. **Place** (engine thread, serial): the round's intake — stranded
//!    retries first, then every pending arrival at or before the next
//!    barrier — is routed in canonical order against the router's
//!    *last-barrier* view. Nothing a shard does mid-round can influence
//!    this round's placement, so the partition of work is a pure
//!    function of history up to the previous barrier.
//! 2. **Drain** (parallel): every reachable shard independently
//!    executes the round — journals the batch, maybe cuts a
//!    checkpoint, submits, and drains its event queue up to the
//!    barrier — on the scoped worker pool. Shards share no mutable
//!    state; each sits behind its own `Mutex`, locked once per round
//!    by whichever worker claims it. [`parallel::run_jobs`] returns
//!    the report slots in input order.
//! 3. **Merge** (engine thread, serial): the report slots are folded
//!    into the router in canonical shard order — stats views refresh,
//!    health machines observe hits and misses, migration offers become
//!    placement overrides — and requests placed onto shards that
//!    turned out to be dark are resolved (hedge win, retry, or typed
//!    failure).
//!
//! Because steps 1 and 3 are serial folds over canonically ordered
//! data and step 2 is a pure per-shard function of (journal, barrier),
//! the entire trajectory — and therefore [`Cluster::digest`] — is
//! byte-identical at `--jobs 1` and `--jobs N`, kills, outages, and
//! recoveries included. The gates in `bench` and the crate's proptests
//! pin exactly that.
//!
//! # Failure domains
//!
//! An installed [`OutagePlan`] marks shard-rounds dark. The engine
//! evaluates the plan purely by round index (serial, before placement),
//! withholds dark shards' reports from the router, and drops the batch
//! placed onto them — those requests strand and re-enter placement at
//! the next barrier. The router learns about the outage the only way a
//! real front end can: the report never arrived.

use std::collections::VecDeque;
use std::sync::Mutex;

use faas::fault::{CrashPlan, OutageKind, OutagePlan};
use faas::{Cadence, LatencyHistogram, Retention};
use simos::{SimDuration, SimTime};
use snapshot::{Reader, SnapError, Snapshot, Writer};

use crate::fnv64_update;
use crate::frontend::{AvailabilityReport, FrontEnd, FrontEndConfig, FrontReq, FrontStats, ShedReason};
use crate::health::HealthState;
use crate::msg::{ClusterTotals, ShardReport};
use crate::router::{Placement, Router, Routing};
use crate::shard::{Shard, ShardSetup};

/// Shape of a cluster run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of shards (simulated machines).
    pub shards: u32,
    /// Barrier period: shards run independently for this long per
    /// round. Coarser rounds amortize barrier cost; placement reacts
    /// one round late either way.
    pub round: SimDuration,
    /// Placement policy of the front-end router.
    pub policy: Placement,
    /// Worker threads draining shards each round (`1` = serial). Has
    /// no effect on any simulation outcome, only on wall time.
    pub jobs: usize,
    /// Per-shard checkpoint cadence, in barrier rounds.
    pub cadence: Cadence,
    /// Cache-occupancy fraction above which a shard offers migrations.
    pub pressure: f64,
    /// Migration offers per shard per barrier.
    pub max_offers: usize,
    /// Front-end request lifecycle: deadlines, retries, hedging,
    /// admission control, and health thresholds.
    pub frontend: FrontEndConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 8,
            round: SimDuration::from_secs(2),
            policy: Placement::HashAffinity,
            jobs: 1,
            cadence: Cadence {
                checkpoint_every: 4,
                base_every: 4,
            },
            pressure: 0.85,
            max_offers: 2,
            frontend: FrontEndConfig::default(),
        }
    }
}

/// A cluster of shards behind a placement router.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Mutex<Shard>>,
    router: Router,
    front: FrontEnd,
    /// Shard-rounds the plan darkens, evaluated round by round.
    outages: Option<OutagePlan>,
    /// Dark rounds observed so far, per shard.
    outage_rounds: Vec<u64>,
    /// Arrivals accepted but not yet barrier-assigned, in canonical
    /// (time, enqueue order) — enforced monotone on the way in.
    pending: VecDeque<(SimTime, usize)>,
    /// Time of the last completed barrier.
    now: SimTime,
    /// Rounds completed.
    rounds: usize,
    /// Stats reset requested for the start of the next round.
    reset_pending: bool,
    /// Report slots of the last completed barrier (`None` = the shard
    /// was dark that round).
    last_reports: Vec<Option<ShardReport>>,
}

/// How one shard spends one round.
enum RoundMode {
    /// Reachable: execute the batch and report at the barrier.
    Live {
        batch: Vec<(SimTime, usize)>,
        drain: bool,
    },
    /// Unreachable: no batch arrives, no report leaves.
    Dark(OutageKind),
}

/// One round's work order for one shard — what a pool worker consumes.
struct RoundWork<'a> {
    shard: &'a Mutex<Shard>,
    round: usize,
    barrier: SimTime,
    reset: bool,
    mode: RoundMode,
    pressure: f64,
    max_offers: usize,
    /// Engine front-end bytes for this round's checkpoint cut (shard 0
    /// on cut rounds only).
    front: Option<Vec<u8>>,
}

impl Cluster {
    /// Builds `cfg.shards` identically-configured shards.
    pub fn new(cfg: ClusterConfig, setup: &ShardSetup) -> Cluster {
        assert!(cfg.shards > 0, "a cluster needs at least one shard");
        let shards: Vec<Mutex<Shard>> = (0..cfg.shards)
            .map(|id| Mutex::new(Shard::new(id, setup.clone(), cfg.cadence)))
            .collect();
        let now = shards[0].lock().expect("shard lock").now();
        Cluster {
            router: Router::new(cfg.policy, cfg.shards, cfg.frontend.health),
            front: FrontEnd::new(),
            outages: None,
            outage_rounds: vec![0; cfg.shards as usize],
            shards,
            pending: VecDeque::new(),
            now,
            rounds: 0,
            reset_pending: false,
            last_reports: Vec::new(),
            cfg,
        }
    }

    /// The configuration the cluster runs under.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Time of the last completed barrier.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Requests that entered front-end placement (arrivals and drained
    /// retries are one request each; placement attempts are not
    /// double-counted).
    pub fn routed(&self) -> u64 {
        self.front.stats.routed
    }

    /// Migration overrides the router has accepted.
    pub fn migrations(&self) -> u64 {
        self.router.migrations()
    }

    /// Lifetime front-end outcome counters.
    pub fn front_stats(&self) -> FrontStats {
        self.front.stats
    }

    /// Requests queued for retry at the last barrier.
    pub fn pending_retries(&self) -> u64 {
        self.front.pending()
    }

    /// The router's health view of one shard.
    pub fn health(&self, shard: u32) -> HealthState {
        self.router.health(shard)
    }

    /// Installs the outage plan. Must happen before the first round so
    /// a faulted run and its control replay identical schedules.
    pub fn set_outage_plan(&mut self, plan: OutagePlan) {
        assert_eq!(self.rounds, 0, "outage plan must be installed before the first round");
        plan.validate(self.cfg.shards);
        self.outages = Some(plan);
    }

    /// Accepts an arrival for placement at the next barrier it falls
    /// under. Arrivals must be enqueued in canonical order: time
    /// non-decreasing, never behind the last completed barrier.
    pub fn enqueue(&mut self, t: SimTime, fn_idx: usize) {
        assert!(t >= self.now, "arrival behind the last barrier");
        if let Some(&(last, _)) = self.pending.back() {
            assert!(t >= last, "arrivals must be enqueued in time order");
        }
        self.pending.push_back((t, fn_idx));
    }

    /// Resets every shard's stats counters at the start of the next
    /// round (the measured-window cut of the replay protocol). The
    /// reset is journaled, so a kill-recovery replays it at the same
    /// round. Front-end lifecycle counters are run-lifetime and do
    /// *not* reset — conservation is exact over the whole run.
    pub fn reset_stats(&mut self) {
        self.reset_pending = true;
    }

    /// Arms a kill schedule on one shard.
    pub fn plan_kill(&mut self, shard: u32, plan: CrashPlan) {
        self.shards[shard as usize]
            .lock()
            .expect("shard lock")
            .plan_kill(plan);
    }

    /// Advances every shard to `t_end` in barrier rounds.
    pub fn advance_to(&mut self, t_end: SimTime) {
        assert!(t_end >= self.now, "cannot advance into the past");
        while self.now < t_end {
            let barrier = (self.now + self.cfg.round).min(t_end);
            self.run_round(barrier);
        }
    }

    /// One barrier round: place, drain in parallel, merge.
    fn run_round(&mut self, barrier: SimTime) {
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
        let work: Vec<RoundWork<'_>> = self
            .shards
            .iter()
            .zip(batches)
            .zip(&dark)
            .enumerate()
            .map(|(s, ((shard, batch), kind))| RoundWork {
                shard,
                round,
                barrier,
                reset,
                mode: match kind {
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
                },
                pressure,
                max_offers,
                front: if s == 0 { front_frame.clone() } else { None },
            })
            .collect();
        // The parallel fan-out. Report slots come back in input
        // (= shard) order regardless of completion order, so the merge
        // below is canonical at any job count.
        let reports = parallel::run_jobs(self.cfg.jobs, &work, |w| {
            // tidy:allow(panic-reachability) -- poisoned only if a worker already panicked; propagating is correct
            let mut shard = w.shard.lock().expect("shard lock");
            match &w.mode {
                RoundMode::Live { batch, drain } => Some(shard.advance(
                    w.round,
                    w.barrier,
                    w.reset,
                    batch,
                    w.pressure,
                    w.max_offers,
                    *drain,
                    w.front.clone(),
                )),
                RoundMode::Dark(kind) => {
                    shard.advance_dark(w.round, w.barrier, w.reset, &[], *kind, w.front.clone());
                    None
                }
            }
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

    /// Report slots of the last completed barrier (canonical shard
    /// order; `None` = the shard was dark).
    pub fn last_reports(&self) -> &[Option<ShardReport>] {
        &self.last_reports
    }

    /// Total simulation events handled across all shards — the scale
    /// against which event-count kill schedules are sized.
    pub fn events_seen(&self) -> u64 {
        self.shards
            .iter()
            .map(|m| m.lock().expect("shard lock").events_seen())
            .sum()
    }

    /// The engine's fleet-level canonical bytes: router state, front
    /// end (retry queue and lifetime counters), and the round count.
    /// Folded into the digest, and embedded as a checkpoint frame on
    /// shard 0's cuts so fleet state is durable alongside shard state.
    pub fn frontend_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.blob(&self.router.state_bytes());
        self.front.snap(&mut w);
        w.u64(self.rounds as u64);
        w.into_bytes()
    }

    /// Decodes bytes produced by [`Cluster::frontend_bytes`] back into
    /// the fleet state they serialize: `(router, front end, rounds)`.
    /// The restore half of the health/retry/hedge checkpoint contract.
    pub fn decode_front(bytes: &[u8]) -> Result<(Router, FrontEnd, u64), SnapError> {
        let mut r = Reader::new(bytes);
        let router_bytes = r.blob()?.to_vec();
        let front = FrontEnd::restore(&mut r)?;
        let rounds = r.u64()?;
        r.finish()?;
        let mut rr = Reader::new(&router_bytes);
        let router = Router::decode(&mut rr)?;
        rr.finish()?;
        Ok((router, front, rounds))
    }

    /// Front-end bytes recovered from shard `shard`'s most recent
    /// store rebuild, if its restored cut carried a front frame.
    pub fn recovered_front(&self, shard: u32) -> Option<Vec<u8>> {
        self.shards
            .get(shard as usize)?
            .lock()
            .expect("shard lock")
            .recovered_front()
            .map(<[u8]>::to_vec)
    }

    /// The most objects and the most bytes any one shard's checkpoint
    /// store has held at once (each the maximum over shards). Not
    /// state: no digest or checkpoint reads it.
    pub fn store_high_water(&self) -> Retention {
        self.shards.iter().fold(Retention::default(), |acc, m| {
            acc.merge(m.lock().expect("shard lock").store_high_water())
        })
    }

    /// FNV-1a digest over every shard's canonical state bytes (shard
    /// order) and the fleet-level front-end bytes. Two runs of the
    /// same workload produce the same digest if — and only if — every
    /// shard, the router (health included), and the front end ended in
    /// identical states, whatever `jobs` was and however many kills
    /// and outages were recovered along the way.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for m in &self.shards {
            let mut shard = m.lock().expect("shard lock");
            fnv64_update(&mut h, &shard.state_bytes());
        }
        fnv64_update(&mut h, &self.frontend_bytes());
        h
    }

    /// The fleet's availability summary: downtime, outcome counters,
    /// success rate, and tail latency merged across shards in
    /// canonical order.
    pub fn availability(&self) -> AvailabilityReport {
        let mut latency = LatencyHistogram::new();
        for m in &self.shards {
            latency.merge(&m.lock().expect("shard lock").latency_histogram());
        }
        let stats = self.front.stats;
        let success_rate = if stats.routed == 0 {
            1.0
        } else {
            stats.delivered as f64 / stats.routed as f64
        };
        AvailabilityReport {
            rounds: self.rounds as u64,
            down_rounds: self.outage_rounds.clone(),
            stats,
            pending_retries: self.front.pending(),
            success_rate,
            p50: latency.percentile(0.5),
            p99: latency.percentile(0.99),
        }
    }

    /// Aggregate counters summed over all shards, with the front end's
    /// request-lifecycle accounting layered on top.
    pub fn totals(&self) -> ClusterTotals {
        let mut out = ClusterTotals::default();
        for m in &self.shards {
            let mut shard = m.lock().expect("shard lock");
            let t = shard.totals();
            out.completed += t.completed;
            out.failed += t.failed;
            out.cold_boots += t.cold_boots;
            out.evictions += t.evictions;
            out.instances += t.instances;
            out.frozen += t.frozen;
            out.cache_used += t.cache_used;
            out.recoveries += t.recoveries;
            out.scratch_recoveries += t.scratch_recoveries;
            out.heals += t.heals;
        }
        out.outage_rounds = self.outage_rounds.iter().sum();
        let f = self.front.stats;
        out.routed = f.routed;
        out.delivered = f.delivered;
        out.shed_overload = f.shed_overload;
        out.shed_unroutable = f.shed_unroutable;
        out.failed_deadline = f.failed_deadline;
        out.failed_retries = f.failed_retries;
        out.retries = f.retries;
        out.hedges = f.hedges;
        out.hedge_wins = f.hedge_wins;
        out.hedge_extra = f.hedge_extra;
        out.pending_retries = self.front.pending();
        out
    }
}
