//! One simulated machine: a [`Platform`] plus its durability envelope.
//!
//! This is the **only** module in the crate that names the platform or
//! drives its event loop — the `shard-isolation` tidy rule bans those
//! tokens everywhere else under `crates/cluster/src/`, so the engine
//! and router are statically incapable of reaching into shard-local
//! simulation state. Everything a shard exposes goes out as plain
//! data: a [`ShardReport`] at each barrier, canonical state bytes for
//! the digest, and aggregate totals.
//!
//! # Rounds, journals, and recovery
//!
//! [`Shard::advance`] executes barrier rounds. Each round is journaled
//! (barrier time, stats-reset flag, arrival batch) before it runs, and
//! every `checkpoint_every`-th round starts with an incremental
//! checkpoint cut into a per-shard [`CheckpointStore`] — a full base
//! every `base_every`-th cut, an O(dirty) delta otherwise, with the
//! shard's round cursor riding along as a driver frame.
//!
//! When an armed [`CrashPlan`] kills the event loop mid-round, the
//! shard rebuilds a fresh platform, restores the newest verifiable
//! checkpoint chain from the store's recovery lattice (or nothing, if
//! storage faults destroyed every chain), and replays the journal
//! **round by round** — re-submitting each round's batch and running
//! to that round's barrier, exactly as the dead run did. Round-by-round
//! replay matters: the platform's event sequence numbers interleave
//! submission with execution, so bulk resubmission would renumber
//! arrivals and reorder same-time events. Replayed this way, the
//! recovered shard retraces the dead run's trajectory event for event
//! and its barrier state bytes are identical to an uninterrupted
//! control — the cluster digest cannot tell the difference.
//!
//! # Outages
//!
//! [`Shard::advance_dark`] executes a round the router cannot see.
//! A **partitioned** shard keeps executing (the machine is fine, the
//! network is not) — only its report is withheld. A **down** shard is
//! frozen: the round is journaled but nothing runs, and the first
//! reachable round afterwards *heals* — fresh platform, durable-store
//! restore, journal catch-up — exactly the kill-recovery path, which
//! is why both outage kinds converge to state bytes identical to an
//! uninterrupted control.

use faas::fault::CrashPlan;
use faas::platform::Platform;
use faas::{
    CheckpointStore, GcMode, LatencyHistogram, MemoryManager, PlatformConfig, PlatformError,
    StorageFaultPlan,
};
use simos::SimTime;
use snapshot::{Reader, SnapError, Writer};
use workloads::FunctionSpec;

use faas::fault::OutageKind;

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

/// Checkpoint cadence of a shard (in barrier rounds / cuts).
#[derive(Debug, Clone, Copy)]
pub struct ShardDurability {
    /// Cut a checkpoint at the start of every `checkpoint_every`-th
    /// round.
    pub checkpoint_every: usize,
    /// Every `base_every`-th cut is a full base; the rest are deltas.
    pub base_every: usize,
}

impl Default for ShardDurability {
    fn default() -> ShardDurability {
        ShardDurability {
            checkpoint_every: 4,
            base_every: 4,
        }
    }
}

/// One journaled barrier round.
#[derive(Debug, Clone)]
struct RoundEntry {
    /// Upper time bound of the round (inclusive).
    barrier: SimTime,
    /// Whether platform stats reset at the start of this round.
    reset: bool,
    /// The round's arrival batch, in canonical order.
    batch: Vec<(SimTime, usize)>,
    /// Engine front-end bytes to embed in the checkpoint cut at the
    /// start of this round (shard 0 only, on cut rounds). Journaled so
    /// replay re-cuts byte-identical checkpoints.
    front: Option<Vec<u8>>,
}

/// Container frame kind of the shard's round cursor. Anything at or
/// above `FRAME_EXTRA_BASE` is opaque to the platform and comes back
/// verbatim from a chain restore.
const FRAME_SHARD: u32 = Platform::FRAME_EXTRA_BASE;

/// Container frame kind of the engine's front-end bytes (router +
/// retry queue + lifecycle counters), riding shard 0's cuts so fleet
/// state is durable alongside shard state.
const FRAME_FRONT: u32 = Platform::FRAME_EXTRA_BASE + 1;

fn encode_cursor(round: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(round);
    w.into_bytes()
}

fn decode_cursor(payload: &[u8]) -> Result<usize, SnapError> {
    let mut r = Reader::new(payload);
    let round = r.usize()?;
    r.finish()?;
    Ok(round)
}

/// One simulated machine of the cluster.
pub struct Shard {
    id: u32,
    setup: ShardSetup,
    durability: ShardDurability,
    platform: Platform,
    store: CheckpointStore,
    journal: Vec<RoundEntry>,
    /// Rounds fully executed. Normally `journal.len()`; rewound by a
    /// recovery, re-advanced by journal replay.
    cursor: usize,
    /// Epoch of the last checkpoint cut (parent of the next delta).
    parent_epoch: Option<u64>,
    crash: Option<CrashPlan>,
    /// The machine is in a `Down` outage window: rounds are journaled
    /// but nothing executes until a heal.
    needs_restore: bool,
    recoveries: u64,
    scratch_recoveries: u64,
    heals: u64,
    outage_rounds: u64,
    /// Front-end bytes recovered from the newest restored checkpoint,
    /// if that cut carried a [`FRAME_FRONT`] frame.
    recovered_front: Option<Vec<u8>>,
}

fn build_platform(setup: &ShardSetup, id: u32) -> Platform {
    Platform::new(
        setup.platform,
        setup.catalog.clone(),
        setup.mode,
        (setup.manager)(id),
    )
}

impl Shard {
    /// Builds shard `id` from its setup and checkpoint cadence.
    pub fn new(id: u32, setup: ShardSetup, durability: ShardDurability) -> Shard {
        assert!(durability.checkpoint_every > 0, "checkpoint interval must be positive");
        assert!(durability.base_every > 0, "base interval must be positive");
        let platform = build_platform(&setup, id);
        let store = match setup.storage_faults {
            Some(mut plan) => {
                plan.seed ^= u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                CheckpointStore::with_faults(plan)
            }
            None => CheckpointStore::new(),
        };
        Shard {
            id,
            setup,
            durability,
            platform,
            store,
            journal: Vec::new(),
            cursor: 0,
            parent_epoch: None,
            crash: None,
            needs_restore: false,
            recoveries: 0,
            scratch_recoveries: 0,
            heals: 0,
            outage_rounds: 0,
            recovered_front: None,
        }
    }

    /// This shard's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's current simulated time.
    pub fn now(&self) -> SimTime {
        self.platform.now()
    }

    /// Events the shard's platform has handled (for pinning kill
    /// schedules).
    pub fn events_seen(&self) -> u64 {
        self.platform.events_handled()
    }

    /// Arms a kill schedule: the event loop dies at the plan's event
    /// counts and the shard recovers through its checkpoint lattice
    /// and journal.
    pub fn plan_kill(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
        if let Some(at) = plan.next_after(self.platform.events_handled()) {
            self.platform.arm_kill(at);
        }
    }

    /// Executes barrier round `round`: journal, heal if the shard is
    /// coming back from a `Down` window, optional checkpoint cut,
    /// optional stats reset, submit the batch, drain to the barrier —
    /// recovering from kills until the round completes — then report.
    ///
    /// `pressure` and `max_offers` shape the migration offers in the
    /// report: when the cache is charged above `pressure × budget`,
    /// up to `max_offers` of the heaviest frozen functions are offered
    /// away. `drain` instead offers the *entire* warm set (the shard is
    /// about to enter a planned outage). `front` is the engine's
    /// front-end frame for this round's checkpoint cut, if any.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &mut self,
        round: usize,
        barrier: SimTime,
        reset: bool,
        batch: &[(SimTime, usize)],
        pressure: f64,
        max_offers: usize,
        drain: bool,
        front: Option<Vec<u8>>,
    ) -> ShardReport {
        assert_eq!(round, self.journal.len(), "rounds must advance in order");
        assert!(
            self.cursor == round || self.needs_restore,
            "previous round left incomplete"
        );
        self.journal.push(RoundEntry {
            barrier,
            reset,
            batch: batch.to_vec(),
            front,
        });
        if self.needs_restore {
            self.heal();
        }
        self.execute_rounds();
        self.report(pressure, max_offers, drain)
    }

    /// Executes one barrier round the router cannot observe. Returns
    /// no report — the missing report *is* the router's signal.
    ///
    /// `Partitioned` keeps executing (only the report is withheld);
    /// `Down` freezes the machine: the round is journaled so the heal
    /// can replay it, but nothing runs until a reachable round.
    pub fn advance_dark(
        &mut self,
        round: usize,
        barrier: SimTime,
        reset: bool,
        batch: &[(SimTime, usize)],
        kind: OutageKind,
        front: Option<Vec<u8>>,
    ) {
        assert_eq!(round, self.journal.len(), "rounds must advance in order");
        assert!(
            self.cursor == round || self.needs_restore,
            "previous round left incomplete"
        );
        self.journal.push(RoundEntry {
            barrier,
            reset,
            batch: batch.to_vec(),
            front,
        });
        self.outage_rounds += 1;
        match kind {
            OutageKind::Down => {
                self.needs_restore = true;
            }
            OutageKind::Partitioned => {
                if self.needs_restore {
                    self.heal();
                }
                self.execute_rounds();
            }
        }
    }

    /// Replays journaled rounds from the cursor to the journal head.
    fn execute_rounds(&mut self) {
        while self.cursor < self.journal.len() {
            let r = self.cursor;
            if r.is_multiple_of(self.durability.checkpoint_every) {
                self.cut_checkpoint(r);
            }
            let Some(round) = self.journal.get(r) else { break };
            if round.reset {
                self.platform.reset_stats();
            }
            for &(t, fn_idx) in &round.batch {
                self.platform.submit(t, fn_idx);
            }
            let end = round.barrier;
            match self.platform.try_run_until(end) {
                Ok(()) => self.cursor = r + 1,
                Err(PlatformError::Killed { events_handled }) => self.recover(events_handled),
                // tidy:allow(panic-reachability) -- any non-Killed error is a simulator bug; replay must not continue
                Err(e) => panic!(
                    "shard {} platform invariant violated: {e} (round {r}, \
                     events_handled={})",
                    self.id,
                    self.platform.events_handled()
                ),
            }
        }
    }

    /// Cuts an incremental checkpoint at the start of round `r`.
    fn cut_checkpoint(&mut self, r: usize) {
        // Epoch = puts + 1: derivable from durable state alone and
        // strictly monotonic across recoveries.
        let epoch = self.store.len() as u64 + 1;
        let mut extra = vec![(FRAME_SHARD, encode_cursor(r))];
        if let Some(front) = self.journal.get(r).and_then(|e| e.front.clone()) {
            extra.push((FRAME_FRONT, front));
        }
        let bytes = match self.parent_epoch {
            Some(parent) if !self.store.len().is_multiple_of(self.durability.base_every) => {
                self.platform.checkpoint_delta(epoch, parent, &extra)
            }
            _ => self.platform.checkpoint_base(epoch, &extra),
        };
        self.store.put(&bytes);
        self.parent_epoch = Some(epoch);
    }

    /// Kill recovery: fresh platform, newest verifiable chain (or
    /// scratch), cursor rewound; the execution loop replays the journal
    /// from there.
    fn recover(&mut self, events_handled: u64) {
        self.recoveries += 1;
        self.rebuild_from_store(events_handled);
        if let Some(plan) = self.crash {
            match plan.next_after(events_handled) {
                Some(at) => self.platform.arm_kill(at),
                None => self.platform.disarm_kill(),
            }
        }
    }

    /// Outage heal: the machine comes back from a `Down` window with
    /// nothing but its durable store and journal — the same rebuild
    /// path as a kill, entered from a round boundary. Kill schedules
    /// re-arm from the rebuilt platform's event count (replayed kills
    /// are state-neutral: each one recovers to the same trajectory).
    fn heal(&mut self) {
        self.heals += 1;
        self.needs_restore = false;
        let events_handled = self.platform.events_handled();
        self.rebuild_from_store(events_handled);
        if let Some(plan) = self.crash {
            match plan.next_after(self.platform.events_handled()) {
                Some(at) => self.platform.arm_kill(at),
                None => self.platform.disarm_kill(),
            }
        }
    }

    /// Discards the live platform and rebuilds from the newest
    /// verifiable checkpoint chain (or from scratch when storage
    /// faults destroyed every chain), rewinding the cursor for journal
    /// replay.
    fn rebuild_from_store(&mut self, events_handled: u64) {
        self.platform = build_platform(&self.setup, self.id);
        match self.store.recover() {
            Some((head_epoch, chain)) => {
                let (_, extra) = self.platform.restore_chain(&chain).unwrap_or_else(|e| {
                    // tidy:allow(panic-reachability) -- the chain passed CRC verification; failure here is a codec bug
                    panic!(
                        "shard {}: verified chain (head epoch {head_epoch}) failed to \
                         restore: {e} (rebuilt at events_handled={events_handled})",
                        self.id
                    )
                });
                let frame = extra
                    .iter()
                    .find(|(kind, _)| *kind == FRAME_SHARD)
                    .unwrap_or_else(|| {
                        // tidy:allow(panic-reachability) -- every shard checkpoint embeds its cursor frame at cut time
                        panic!(
                            "shard {}: checkpoint epoch {head_epoch} carries no cursor \
                             frame (rebuilt at events_handled={events_handled})",
                            self.id
                        )
                    });
                self.cursor = decode_cursor(&frame.1).unwrap_or_else(|e| {
                    // tidy:allow(panic-reachability) -- frame bytes already passed the checkpoint CRCs
                    panic!(
                        "shard {}: cursor frame of epoch {head_epoch} is corrupt past \
                         its CRCs: {e}",
                        self.id
                    )
                });
                self.recovered_front = extra
                    .iter()
                    .find(|(kind, _)| *kind == FRAME_FRONT)
                    .map(|(_, bytes)| bytes.clone());
                self.parent_epoch = Some(head_epoch);
            }
            None => {
                // Every stored checkpoint is unusable: restart from
                // nothing and let the journal replay the whole shard
                // history.
                self.scratch_recoveries += 1;
                self.cursor = 0;
                self.parent_epoch = None;
            }
        }
    }

    /// The shard's barrier summary.
    fn report(&self, pressure: f64, max_offers: usize, drain: bool) -> ShardReport {
        let warm = self.platform.frozen_by_function();
        let cache_budget = self.platform.config().cache_budget;
        let cache_used = self.platform.cache_used();
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
            in_flight: self.platform.in_flight(),
            cache_used,
            cache_budget,
            instances: self.platform.instance_count() as u64,
            frozen: self.platform.frozen_count() as u64,
            warm,
            offers,
            recoveries: self.recoveries,
            scratch_recoveries: self.scratch_recoveries,
            heals: self.heals,
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
        if self.needs_restore {
            self.heal();
            self.execute_rounds();
        }
        self.platform.checkpoint()
    }

    /// The measured-window latency distribution of this shard.
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.platform.stats().latency.clone()
    }

    /// Front-end bytes recovered by the most recent store rebuild (the
    /// [`FRAME_FRONT`] frame of the restored cut), if any.
    pub fn recovered_front(&self) -> Option<&[u8]> {
        self.recovered_front.as_deref()
    }

    /// End-of-run aggregate counters (the engine layers front-end
    /// accounting on top).
    pub fn totals(&mut self) -> ClusterTotals {
        if self.needs_restore {
            self.heal();
            self.execute_rounds();
        }
        let stats = self.platform.stats();
        ClusterTotals {
            completed: stats.completed,
            failed: stats.failed,
            cold_boots: stats.cold_boots,
            evictions: stats.evictions,
            instances: self.platform.instance_count() as u64,
            frozen: self.platform.frozen_count() as u64,
            cache_used: self.platform.cache_used(),
            recoveries: self.recoveries,
            scratch_recoveries: self.scratch_recoveries,
            heals: self.heals,
            outage_rounds: self.outage_rounds,
            ..ClusterTotals::default()
        }
    }
}
