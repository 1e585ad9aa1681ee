//! The platform controller: a deterministic discrete-event simulation
//! of an OpenWhisk-style FaaS host.
//!
//! Life of a request: it arrives, waits (if needed) for memory and CPU,
//! runs stage by stage through the function's chain — warm instances
//! are thawed, missing ones cold-booted — and each instance is *frozen*
//! again the moment its stage completes (plus an exit-time GC in the
//! eager baseline). Frozen instances live in the instance cache charged
//! at their measured USS; when a cold boot cannot fit, the platform
//! evicts the least-recently-used frozen instances. A plugged-in
//! [`MemoryManager`] (Desiccant) watches the cache and reclaims frozen
//! garbage with idle CPU instead.
//!
//! # Failure handling
//!
//! With a [`crate::FaultPlan`] installed (or when a genuine runtime
//! error surfaces — heap exhaustion, an image that cannot fit its
//! budget), the platform degrades instead of panicking:
//!
//! * failed boots, crashes and heap exhaustion destroy the instance,
//!   release its cache charge, and retry the request with capped
//!   exponential backoff under a per-request deadline;
//! * consecutive failures of one function trip its circuit breaker —
//!   requests fast-fail while it is open, and a timed half-open probe
//!   decides whether to close it again;
//! * failed reclamations burn the probe timeout's CPU, release
//!   nothing, and tell the manager to deprioritize the instance so
//!   plain LRU eviction handles the pressure;
//! * a `ReclaimDone` for an instance evicted mid-reclaim is a counted
//!   no-op, not a panic; other stale events surface as typed
//!   [`PlatformError`]s.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use faas_runtime::{Instance, Language, RuntimeImage, SharedLibs};
use simos::{SimDuration, SimTime, System};
use snapshot::SnapError;
use workloads::{FunctionSpec, FunctionState};

use crate::config::{EnvFlavor, PlatformConfig};
use crate::error::{PlatformError, PlatformResult};
use crate::fault::FaultInjector;
use crate::manager::{FrozenView, MemoryManager, ReclaimProfile};
use crate::queue::EventQueue;
use crate::stats::{CoreTimeKind, PlatformStats};

mod checkpoint;

/// Identifies an instance across its whole life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

/// Driver-owned `(kind, payload)` container frames, carried through a
/// checkpoint chain and returned from [`Platform::restore_chain`].
/// Kinds start at [`Platform::FRAME_EXTRA_BASE`].
pub type ExtraFrames = Vec<(u32, Vec<u8>)>;

/// Aggregate view of one function's frozen instances on this host
/// (see [`Platform::frozen_by_function`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenFnSummary {
    /// Frozen instances of the function.
    pub count: u64,
    /// Their summed USS charge against the cache.
    pub charge: u64,
    /// The earliest `frozen_since` among them.
    pub oldest_frozen: SimTime,
}

/// How the platform treats GC at function exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcMode {
    /// Freeze immediately after the function exits (stock behaviour).
    Vanilla,
    /// Call the runtime's stock GC interface at every function exit
    /// (the paper's *eager* baseline, §3.2).
    Eager,
}

/// Why a request terminated unsuccessfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// Every attempted cold boot failed (injected fault, or the
    /// runtime image cannot fit the instance budget).
    BootFailure,
    /// The instance crashed mid-stage (injected fault).
    Crash,
    /// The managed heap exhausted its budget mid-stage.
    HeapExhausted,
    /// The function's circuit breaker was open.
    BreakerOpen,
    /// No retry could be scheduled within the request deadline.
    DeadlineExceeded,
    /// The estimated boot footprint exceeds the entire cache budget;
    /// no amount of eviction could admit the instance.
    TooLargeForCache,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Cold boot in progress.
    Starting,
    /// Executing a stage.
    Running,
    /// Running the exit-time eager GC.
    GcAfterExit,
    /// Being reclaimed by the memory manager.
    Reclaiming,
    /// Frozen (paused), waiting in the cache.
    Frozen,
}

struct Slot {
    /// The instance's public identity. The slot codec writes it
    /// first, as the row key of the instance table and of a `SLOT`
    /// frame.
    id: InstanceId,
    fn_idx: usize,
    stage: u8,
    inst: Instance,
    state: FunctionState,
    status: Status,
    frozen_since: SimTime,
    last_used: SimTime,
    /// Bytes charged against the cache budget right now.
    charge: u64,
    reclaimed_since_use: bool,
    /// The heap's resident bytes, probed by the first sweep after the
    /// instance last entered [`Status::Frozen`]. Exact while frozen:
    /// only thawing or reclaiming the instance touches its heap, and
    /// both leave `Frozen`. Derived state, never encoded; every entry
    /// into `Frozen` clears it.
    frozen_heap: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pending,
    Completed,
    Failed(FailReason),
}

#[derive(Debug)]
struct Request {
    fn_idx: usize,
    arrival: SimTime,
    attempts: u32,
    outcome: Outcome,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { req: usize },
    BootDone { id: InstanceId, req: usize },
    BootFailed { id: InstanceId, req: usize },
    StageDone { id: InstanceId, req: usize },
    Crash { id: InstanceId, req: usize },
    GcDone { id: InstanceId },
    ReclaimDone { id: InstanceId, cpus: f64, ok: bool },
    Retry { req: usize, stage: u8 },
    Sweep,
}

/// Work waiting for resources.
#[derive(Debug, Clone, Copy)]
struct PendingStage {
    req: usize,
    stage: u8,
}

/// What [`Platform::try_start_stage`] did with one queued stage.
enum StartOutcome {
    /// Running (or booting) — leave the queue.
    Started,
    /// Resources unavailable — stay queued.
    Queued,
    /// The request terminated or a retry event was scheduled — leave
    /// the queue.
    Resolved,
}

/// Per-function circuit breaker state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    /// Quarantined until the given time, then half-open.
    Open(SimTime),
    /// One probe request is allowed through; its outcome decides.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    consecutive: u32,
    state: BreakerState,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker {
            consecutive: 0,
            state: BreakerState::Closed,
        }
    }
}

/// The FaaS platform.
pub struct Platform {
    config: PlatformConfig,
    catalog: Vec<FunctionSpec>,
    mode: GcMode,
    manager: Option<Box<dyn MemoryManager>>,
    sys: System,
    /// Live instances by id. Ids are assigned in increasing order and
    /// never reused, so map order is canonical order: the views a
    /// sweep presents and the rows a checkpoint writes.
    slots: BTreeMap<InstanceId, Slot>,
    /// Warm pools: most-recently-frozen last.
    pools: BTreeMap<(usize, u8), Vec<InstanceId>>,
    /// Shared library registrations per language (OpenWhisk only).
    shared_libs: BTreeMap<Language, SharedLibs>,
    requests: Vec<Request>,
    events: EventQueue<Event>,
    pending: VecDeque<PendingStage>,
    now: SimTime,
    seq: u64,
    next_instance: u64,
    used_cores: f64,
    cache_used: u64,
    stats: PlatformStats,
    sweep_scheduled: bool,
    next_seed: u64,
    /// Running estimate of a fresh instance's post-boot footprint,
    /// used for admission before the boot happens.
    boot_footprint: u64,
    /// Seeded fault stream; `None` means the fault machinery does not
    /// exist at runtime and no draw ever happens.
    injector: Option<FaultInjector>,
    /// One circuit breaker per catalog function.
    breakers: Vec<Breaker>,
    /// Events handled over the platform's whole life (checkpointed, so
    /// crash schedules measured in events survive recovery).
    events_handled: u64,
    /// Armed kill point: the event loop aborts with
    /// [`PlatformError::Killed`] before handling the event at which
    /// `events_handled` reaches this count. Deliberately *not*
    /// checkpointed — the kill models losing the process, not state.
    kill_at: Option<u64>,
    /// Instances mutated since the last checkpoint epoch — the delta
    /// checkpointer's upsert set. Tracking state only: never
    /// serialized, so full checkpoints stay byte-deterministic
    /// regardless of checkpoint history.
    dirty_slots: BTreeSet<InstanceId>,
    /// Instances destroyed since the last checkpoint epoch — the delta
    /// checkpointer's erase set. Tracking state only, like
    /// `dirty_slots`.
    dead_slots: BTreeSet<InstanceId>,
}

impl Platform {
    /// Creates a platform over `catalog` with an optional memory
    /// manager.
    pub fn new(
        config: PlatformConfig,
        catalog: Vec<FunctionSpec>,
        mode: GcMode,
        manager: Option<Box<dyn MemoryManager>>,
    ) -> Platform {
        config.validate();
        let mut sys = System::new();
        let mut shared_libs = BTreeMap::new();
        if config.env == EnvFlavor::OpenWhisk {
            for lang in [Language::Java, Language::JavaScript] {
                let image = RuntimeImage::openwhisk(lang);
                shared_libs.insert(lang, image.register_files(&mut sys));
            }
        }
        let breakers = vec![Breaker::default(); catalog.len()];
        Platform {
            config,
            catalog,
            mode,
            manager,
            sys,
            slots: BTreeMap::new(),
            pools: BTreeMap::new(),
            shared_libs,
            requests: Vec::new(),
            events: EventQueue::default(),
            pending: VecDeque::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_instance: 0,
            used_cores: 0.0,
            cache_used: 0,
            stats: PlatformStats::default(),
            sweep_scheduled: false,
            next_seed: config.seed,
            boot_footprint: 64 << 20,
            injector: config.faults.map(FaultInjector::new),
            breakers,
            events_handled: 0,
            kill_at: None,
            dirty_slots: BTreeSet::new(),
            dead_slots: BTreeSet::new(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Index of a catalog function by name.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.catalog.iter().position(|f| f.name == name)
    }

    /// The function catalog.
    pub fn catalog(&self) -> &[FunctionSpec] {
        &self.catalog
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Collected statistics.
    pub fn stats(&self) -> &PlatformStats {
        &self.stats
    }

    /// Resets the statistics window (after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats.reset(self.now);
    }

    /// Bytes currently charged against the instance cache.
    pub fn cache_used(&self) -> u64 {
        self.cache_used
    }

    /// Number of live instances (any status).
    pub fn instance_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of frozen instances.
    pub fn frozen_count(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.status == Status::Frozen)
            .count()
    }

    /// Per-function summary of the frozen (warm, thaw-able) cache:
    /// `fn_idx -> (instance count, total USS charge, oldest freeze
    /// time)`, in catalog-index order.
    ///
    /// This is the warm-set signal a cluster front-end routes on
    /// (cold-start-aware placement) and the pressure signal migration
    /// offers are built from; it deliberately exposes no instance
    /// identities, so placement can never reach into shard-local
    /// state.
    pub fn frozen_by_function(&self) -> BTreeMap<usize, FrozenFnSummary> {
        let mut out: BTreeMap<usize, FrozenFnSummary> = BTreeMap::new();
        for s in self.slots.values().filter(|s| s.status == Status::Frozen) {
            let e = out.entry(s.fn_idx).or_insert(FrozenFnSummary {
                count: 0,
                charge: 0,
                oldest_frozen: s.frozen_since,
            });
            e.count += 1;
            e.charge += s.charge;
            e.oldest_frozen = e.oldest_frozen.min(s.frozen_since);
        }
        out
    }

    /// The slot of instance `id`, if it is still alive.
    #[inline]
    fn slot(&self, id: InstanceId) -> Option<&Slot> {
        self.slots.get(&id)
    }

    /// The catalog spec for `fn_idx`. Function indices are positions in
    /// the catalog the platform was built with; every externally
    /// supplied index (trace replay, checkpoint restore) is validated
    /// against `catalog.len()` before it reaches the tables, so the
    /// lookup cannot miss. Funneling every catalog access through this
    /// accessor keeps that invariant in one place.
    #[inline]
    fn spec(&self, fn_idx: usize) -> FunctionSpec {
        // tidy:allow(panic-reachability) -- fn_idx is validated against the catalog at admission/restore
        self.catalog[fn_idx]
    }

    /// The request record for `req`. Request ids are indices into
    /// `requests` that [`Platform::submit`] itself allocated by pushing
    /// the record, and restore validates every persisted id, so the
    /// lookup cannot miss.
    #[inline]
    fn request(&self, req: usize) -> &Request {
        // tidy:allow(panic-reachability) -- req ids are indices submit() itself allocated
        &self.requests[req]
    }

    #[inline]
    fn request_mut(&mut self, req: usize) -> &mut Request {
        // tidy:allow(panic-reachability) -- req ids are indices submit() itself allocated
        &mut self.requests[req]
    }

    /// The circuit breaker for `fn_idx` (`breakers` is sized to the
    /// catalog at construction and at restore).
    #[inline]
    fn breaker_mut(&mut self, fn_idx: usize) -> &mut Breaker {
        // tidy:allow(panic-reachability) -- breakers is sized to the catalog it is indexed by
        &mut self.breakers[fn_idx]
    }

    /// Records that `id`'s slot is about to be mutated, so the next
    /// delta checkpoint re-serializes it. Call before *every*
    /// `slots.get_mut` — an unmarked mutation silently diverges the
    /// delta fold from a full checkpoint (the round-trip tests pin
    /// byte-identity exactly to catch that).
    #[inline]
    fn mark_slot_dirty(&mut self, id: InstanceId) {
        if self.slots.contains_key(&id) {
            self.dirty_slots.insert(id);
        }
    }

    /// Verifies the instance table's internal coherence: every slot is
    /// filed under its own id, ids are below the allocation cursor, and
    /// every pooled id names a slot of its pool's function and stage.
    /// Used by the chaos tests and available to recovery drivers.
    pub fn check_instance_table(&self) -> PlatformResult<()> {
        for (id, s) in &self.slots {
            if s.id != *id {
                return Err(SnapError::Corrupt("slot filed under another id").into());
            }
            if id.0 >= self.next_instance {
                return Err(SnapError::Corrupt("instance id >= next_instance").into());
            }
        }
        Ok(check_pools(&self.pools, &self.slots)?)
    }

    /// Requests neither completed nor failed yet. Counted from the
    /// request table, so it is immune to statistics-window resets.
    pub fn in_flight(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.outcome == Outcome::Pending)
            .count() as u64
    }

    /// Lifetime request totals `(submitted, completed, failed)` over
    /// the platform's whole run, immune to statistics-window resets.
    pub fn request_totals(&self) -> (u64, u64, u64) {
        let mut totals = (self.requests.len() as u64, 0, 0);
        for r in &self.requests {
            match r.outcome {
                Outcome::Pending => {}
                Outcome::Completed => totals.1 += 1,
                Outcome::Failed(_) => totals.2 += 1,
            }
        }
        totals
    }

    /// Failure reasons of every failed request, in submission order.
    pub fn failure_reasons(&self) -> Vec<FailReason> {
        self.requests
            .iter()
            .filter_map(|r| match r.outcome {
                Outcome::Failed(why) => Some(why),
                _ => None,
            })
            .collect()
    }

    /// Whether `fn_idx`'s circuit breaker is currently open.
    pub fn breaker_open(&self, fn_idx: usize) -> bool {
        matches!(self.breakers[fn_idx].state, BreakerState::Open(_))
    }

    /// Direct access to the simulated OS (for measurements in tests
    /// and harnesses).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Submits a request for `fn_idx` at time `t` (must not be in the
    /// past).
    ///
    /// # Panics
    ///
    /// Panics if `fn_idx` is out of range or `t` is before `now`.
    pub fn submit(&mut self, t: SimTime, fn_idx: usize) {
        assert!(fn_idx < self.catalog.len(), "unknown function index");
        assert!(t >= self.now, "cannot submit in the past");
        let req = self.requests.len();
        self.requests.push(Request {
            fn_idx,
            arrival: t,
            attempts: 0,
            outcome: Outcome::Pending,
        });
        self.stats.submitted += 1;
        self.schedule(t, Event::Arrival { req });
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.seq += 1;
        self.events.push(at, self.seq, ev);
    }

    /// Runs the simulation until `t_end` (events after it stay queued).
    ///
    /// # Panics
    ///
    /// Panics on a [`PlatformError`]; use [`Platform::try_run_until`]
    /// to handle it instead.
    pub fn run_until(&mut self, t_end: SimTime) {
        if let Err(e) = self.try_run_until(t_end) {
            // tidy:allow(panic-reachability) -- documented panicking wrapper over try_run_until
            panic!("platform invariant violated: {e}");
        }
    }

    /// Like [`Platform::run_until`], but surfaces event-loop errors as
    /// typed [`PlatformError`]s instead of panicking.
    pub fn try_run_until(&mut self, t_end: SimTime) -> PlatformResult<()> {
        if self.manager.is_some() && !self.sweep_scheduled {
            self.sweep_scheduled = true;
            let at = self.now + self.config.sweep_interval;
            self.schedule(at, Event::Sweep);
        }
        self.event_loop(t_end)
    }

    fn event_loop(&mut self, t_end: SimTime) -> PlatformResult<()> {
        while let Some((at, _)) = self.events.peek_key() {
            if at > t_end {
                break;
            }
            if self.kill_at.is_some_and(|k| self.events_handled >= k) {
                return Err(PlatformError::Killed {
                    events_handled: self.events_handled,
                });
            }
            let Some((at, _, ev)) = self.events.pop() else {
                break;
            };
            debug_assert!(at >= self.now, "event from the past");
            self.now = at;
            self.events_handled += 1;
            self.handle(ev)?;
        }
        self.now = self.now.max(t_end);
        Ok(())
    }

    /// Destroys every instance and verifies the accounting returns to
    /// zero: no cache charge and no simulated process may survive.
    pub fn shutdown(&mut self) -> PlatformResult<()> {
        while let Some(&id) = self.slots.keys().next() {
            self.destroy_instance(id);
        }
        self.pools.clear();
        if self.cache_used != 0 {
            return Err(PlatformError::CacheResidue {
                bytes: self.cache_used,
            });
        }
        let count = self.sys.process_count();
        if count != 0 {
            return Err(PlatformError::ProcessResidue { count });
        }
        Ok(())
    }

    fn handle(&mut self, ev: Event) -> PlatformResult<()> {
        match ev {
            Event::Arrival { req } => {
                self.pending.push_back(PendingStage { req, stage: 0 });
                self.drain_pending();
                Ok(())
            }
            Event::BootDone { id, req } => self.on_boot_done(id, req),
            Event::BootFailed { id, req } => self.on_boot_failed(id, req),
            Event::StageDone { id, req } => self.on_stage_done(id, req),
            Event::Crash { id, req } => self.on_crash(id, req),
            Event::GcDone { id } => {
                self.release_cores(self.config.cpu_share);
                self.finish_freeze(id)?;
                self.drain_pending();
                Ok(())
            }
            Event::ReclaimDone { id, cpus, ok } => {
                self.release_cores(cpus);
                self.mark_slot_dirty(id);
                match self.slots.get_mut(&id) {
                    Some(slot) if slot.status == Status::Reclaiming => {
                        slot.status = Status::Frozen;
                        slot.frozen_heap = None;
                        if ok {
                            let new_charge = slot.inst.uss(&self.sys);
                            self.update_charge(id, new_charge)?;
                            self.maybe_oom_kill();
                        }
                        // A failed reclamation released nothing; the
                        // freeze-time charge stands.
                    }
                    // Thawed mid-reclaim: execution owns the slot now.
                    Some(_) => {}
                    // Evicted mid-reclaim: a tolerated stale event.
                    None => self.stats.stale_events += 1,
                }
                self.drain_pending();
                Ok(())
            }
            Event::Retry { req, stage } => {
                self.pending.push_back(PendingStage { req, stage });
                self.drain_pending();
                Ok(())
            }
            Event::Sweep => {
                self.run_sweep();
                let at = self.now + self.config.sweep_interval;
                self.schedule(at, Event::Sweep);
                Ok(())
            }
        }
    }

    fn release_cores(&mut self, cpus: f64) {
        self.used_cores = (self.used_cores - cpus).max(0.0);
    }

    fn update_charge(&mut self, id: InstanceId, new_charge: u64) -> PlatformResult<()> {
        self.mark_slot_dirty(id);
        let slot = self
            .slots
            .get_mut(&id)
            .ok_or(PlatformError::StaleInstance {
                id,
                context: "update-charge",
            })?;
        self.cache_used = self.cache_used - slot.charge + new_charge;
        slot.charge = new_charge;
        Ok(())
    }

    /// Tries to start every queued stage; removes those that started
    /// or terminated.
    fn drain_pending(&mut self) {
        let mut remaining = VecDeque::new();
        while let Some(work) = self.pending.pop_front() {
            if let StartOutcome::Queued = self.try_start_stage(work) {
                remaining.push_back(work);
            }
        }
        self.pending = remaining;
    }

    /// Attempts to start `work` now.
    fn try_start_stage(&mut self, work: PendingStage) -> StartOutcome {
        let req = work.req;
        let fn_idx = self.request(req).fn_idx;
        if !self.breaker_allows(fn_idx) {
            self.stats.breaker_fast_fails += 1;
            self.fail_request(req, FailReason::BreakerOpen);
            return StartOutcome::Resolved;
        }
        let key = (fn_idx, work.stage);
        // Warm path: most recently used frozen instance of this stage.
        if self.pools.get(&key).is_some_and(|p| !p.is_empty()) {
            if self.used_cores + self.config.cpu_share > self.config.cores {
                return StartOutcome::Queued;
            }
            if let Some(id) = self.pools.get_mut(&key).and_then(Vec::pop) {
                let thaw_failed = self.injector.as_mut().is_some_and(|i| i.thaw_fails());
                if thaw_failed {
                    // The frozen instance is lost; fall through to a
                    // cold boot. Transparent to the request (no retry
                    // burned).
                    self.stats.thaw_failures += 1;
                    self.destroy_instance(id);
                } else {
                    self.mark_slot_dirty(id);
                    if let Some(slot) = self.slots.get_mut(&id) {
                        // Instances are charged at measured USS; the thawed
                        // instance keeps its freeze-time charge and is
                        // re-measured when it freezes again.
                        slot.status = Status::Running;
                        slot.last_used = self.now;
                        self.used_cores += self.config.cpu_share;
                        self.stats.warm_starts += 1;
                        if self.start_execution(id, req, self.config.thaw).is_err() {
                            // A pooled instance that cannot start is lost
                            // capacity, not a crash: give the share back,
                            // drop the instance, and let the request retry
                            // from the queue.
                            self.used_cores -= self.config.cpu_share;
                            self.stats.warm_starts -= 1;
                            self.stats.stale_events += 1;
                            self.destroy_instance(id);
                            return StartOutcome::Queued;
                        }
                        return StartOutcome::Started;
                    }
                }
                // A pooled id without a slot is an upstream accounting
                // bug, but a recoverable one: cold-boot instead.
            }
        }
        // Cold path: boot a new instance (needs a full core plus room
        // for the estimated post-boot footprint).
        if self.boot_footprint > self.config.cache_budget {
            // Evicting the whole cache still could not admit this
            // boot; reject outright instead of evict-all-and-loop.
            self.stats.rejected_too_large += 1;
            self.fail_request(req, FailReason::TooLargeForCache);
            return StartOutcome::Resolved;
        }
        if self.used_cores + 1.0 > self.config.cores {
            return StartOutcome::Queued;
        }
        if !self.make_room(self.boot_footprint, None) {
            return StartOutcome::Queued;
        }
        let spec = self.spec(fn_idx);
        let image = match self.config.env {
            EnvFlavor::OpenWhisk => RuntimeImage::openwhisk(spec.language),
            EnvFlavor::Lambda => RuntimeImage::lambda(spec.language),
        };
        let libs = match self.config.env {
            EnvFlavor::OpenWhisk => self
                .shared_libs
                .get(&spec.language)
                .cloned()
                .unwrap_or(SharedLibs { files: Vec::new() }),
            EnvFlavor::Lambda => image.register_files(&mut self.sys),
        };
        let inst = match Instance::launch(
            &mut self.sys,
            &image,
            &libs,
            self.config.instance_budget,
            self.config.cpu_share,
        ) {
            Ok(inst) => inst,
            Err(_) => {
                // The runtime image does not fit the instance budget:
                // a boot failure (every retry will fail the same way,
                // so the breaker quarantines the function quickly).
                self.stats.boot_failures += 1;
                self.record_breaker_failure(fn_idx);
                self.fail_or_retry(req, work.stage, FailReason::BootFailure);
                return StartOutcome::Resolved;
            }
        };
        let boot_time = self.config.container_create + inst.startup_time();
        self.next_seed = self.next_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let state = FunctionState::new(work.stage, self.next_seed);
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        // Charge the freshly measured footprint and fold it into the
        // admission estimate (exponential moving average).
        let footprint = inst.uss(&self.sys);
        self.boot_footprint = (self.boot_footprint * 3 + footprint) / 4;
        self.slots.insert(
            id,
            Slot {
                id,
                fn_idx,
                stage: work.stage,
                inst,
                state,
                status: Status::Starting,
                frozen_since: self.now,
                last_used: self.now,
                charge: footprint,
                reclaimed_since_use: false,
                frozen_heap: None,
            },
        );
        self.dirty_slots.insert(id);
        self.cache_used += footprint;
        self.used_cores += 1.0;
        match self.injector.as_mut().and_then(|i| i.boot_fails()) {
            Some(frac) => {
                let fail_at = boot_time.mul_f64(frac);
                self.stats
                    .record_core_time(CoreTimeKind::Boot, fail_at, 1.0);
                self.schedule(self.now + fail_at, Event::BootFailed { id, req });
            }
            None => {
                self.stats.cold_boots += 1;
                self.stats
                    .record_core_time(CoreTimeKind::Boot, boot_time, 1.0);
                self.schedule(self.now + boot_time, Event::BootDone { id, req });
            }
        }
        StartOutcome::Started
    }

    /// Frees at least `needed` bytes of cache headroom by evicting LRU
    /// frozen instances (skipping `exempt`). Returns false if not
    /// enough can be freed.
    fn make_room(&mut self, needed: u64, exempt: Option<InstanceId>) -> bool {
        if needed == 0 {
            return true;
        }
        let budget = self.config.cache_budget;
        if self.cache_used + needed <= budget {
            return true;
        }
        loop {
            if self.cache_used + needed <= budget {
                return true;
            }
            // Tie-break equal `last_used` by lowest id.
            let victim = self
                .slots
                .values()
                .filter(|s| {
                    (s.status == Status::Frozen || s.status == Status::Reclaiming)
                        && Some(s.id) != exempt
                })
                .min_by_key(|s| (s.last_used, s.id))
                .map(|s| s.id);
            match victim {
                Some(vid) => self.evict(vid),
                None => return false,
            }
        }
    }

    /// Evicts `id` under memory pressure (counts and notifies, then
    /// destroys).
    fn evict(&mut self, id: InstanceId) {
        self.stats.evictions += 1;
        if let Some(slot) = self.slot(id) {
            let name = self.spec(slot.fn_idx).name;
            if let Some(m) = self.manager.as_mut() {
                m.note_eviction(self.now, name);
            }
        }
        self.destroy_instance(id);
        // Note: a pending ReclaimDone event for this id becomes stale;
        // its core release still happens when it fires.
    }

    /// Destroys `id` unconditionally: removes it from its pool,
    /// releases its cache charge, tells the manager, and kills the
    /// simulated process. Returns the USS the kill freed.
    fn destroy_instance(&mut self, id: InstanceId) -> u64 {
        let Some(slot) = self.slots.remove(&id) else {
            return 0;
        };
        self.dirty_slots.remove(&id);
        self.dead_slots.insert(id);
        self.cache_used -= slot.charge;
        if let Some(pool) = self.pools.get_mut(&(slot.fn_idx, slot.stage)) {
            pool.retain(|p| *p != id);
        }
        if let Some(m) = self.manager.as_mut() {
            m.note_destroyed(id);
        }
        slot.inst.kill(&mut self.sys)
    }

    /// Under cache overcommit, the injected cgroup OOM killer may take
    /// out the largest frozen instance (mirroring the kernel's badness
    /// pick inside a memory cgroup).
    fn maybe_oom_kill(&mut self) {
        if self.cache_used <= self.config.cache_budget {
            return;
        }
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        if !inj.oom_strikes() {
            return;
        }
        let victim = self
            .slots
            .values()
            .filter(|s| s.status == Status::Frozen)
            .max_by_key(|s| (s.charge, s.id))
            .map(|s| s.id);
        if let Some(vid) = victim {
            self.stats.oom_kills += 1;
            if let Some(slot) = self.slot(vid) {
                let name = self.spec(slot.fn_idx).name;
                if let Some(m) = self.manager.as_mut() {
                    m.note_eviction(self.now, name);
                }
            }
            self.destroy_instance(vid);
        }
    }

    fn on_boot_done(&mut self, id: InstanceId, req: usize) -> PlatformResult<()> {
        // The boot held a full core; execution holds only the share.
        self.release_cores(1.0);
        if self.used_cores + self.config.cpu_share <= self.config.cores {
            self.used_cores += self.config.cpu_share;
            self.mark_slot_dirty(id);
            let slot = self
                .slots
                .get_mut(&id)
                .ok_or(PlatformError::StaleInstance {
                    id,
                    context: "boot-done",
                })?;
            slot.status = Status::Running;
            slot.last_used = self.now;
            self.start_execution(id, req, SimDuration::ZERO)?;
        } else {
            // Extremely rare: the share does not fit right after the
            // boot released a whole core. Retry via the queue by
            // freezing the fresh instance unused.
            let stage = self
                .slot(id)
                .ok_or(PlatformError::StaleInstance {
                    id,
                    context: "boot-done",
                })?
                .stage;
            self.finish_freeze(id)?;
            self.pending.push_front(PendingStage { req, stage });
        }
        self.drain_pending();
        Ok(())
    }

    /// An injected cold-boot failure struck partway through startup.
    fn on_boot_failed(&mut self, id: InstanceId, req: usize) -> PlatformResult<()> {
        self.release_cores(1.0);
        let (fn_idx, stage) = self
            .slot(id)
            .map(|s| (s.fn_idx, s.stage))
            .ok_or(PlatformError::StaleInstance {
                id,
                context: "boot-failed",
            })?;
        self.destroy_instance(id);
        self.stats.boot_failures += 1;
        self.record_breaker_failure(fn_idx);
        self.fail_or_retry(req, stage, FailReason::BootFailure);
        self.drain_pending();
        Ok(())
    }

    /// An injected crash struck partway through a stage.
    fn on_crash(&mut self, id: InstanceId, req: usize) -> PlatformResult<()> {
        self.release_cores(self.config.cpu_share);
        let slot = self.slot(id).ok_or(PlatformError::StaleInstance {
            id,
            context: "crash",
        })?;
        let (fn_idx, stage) = (slot.fn_idx, slot.stage);
        self.destroy_instance(id);
        self.stats.crashes += 1;
        self.record_breaker_failure(fn_idx);
        self.fail_or_retry(req, stage, FailReason::Crash);
        self.drain_pending();
        Ok(())
    }

    /// Invokes the stage kernel on `id` and schedules its completion
    /// (or its crash, injected or genuine).
    fn start_execution(&mut self, id: InstanceId, req: usize, extra: SimDuration) -> PlatformResult<()> {
        self.mark_slot_dirty(id);
        let (fn_idx, stage) = {
            let slot = self.slot(id).ok_or(PlatformError::StaleInstance {
                id,
                context: "start-execution",
            })?;
            (slot.fn_idx, slot.stage)
        };
        let spec = self.spec(fn_idx);
        let slot = self
            .slots
            .get_mut(&id)
            .ok_or(PlatformError::StaleInstance {
                id,
                context: "start-execution",
            })?;
        // Intermediates from the previous request were transferred.
        slot.state.complete_transfer(slot.inst.heap_mut().graph_mut());
        let state = &mut slot.state;
        let result = slot.inst.invoke(&mut self.sys, self.now, &spec.exec, |ctx| {
            state.invoke(&spec, ctx);
        });
        match result {
            Ok(report) => {
                let wall = report.wall_time + extra + slot.state.io_wait(&spec);
                match self.injector.as_mut().and_then(|i| i.stage_crashes()) {
                    Some(frac) => {
                        let crash_at = wall.mul_f64(frac);
                        self.stats
                            .record_core_time(CoreTimeKind::Exec, crash_at, self.config.cpu_share);
                        self.schedule(self.now + crash_at, Event::Crash { id, req });
                    }
                    None => {
                        self.stats
                            .record_core_time(CoreTimeKind::Exec, wall, self.config.cpu_share);
                        self.schedule(self.now + wall, Event::StageDone { id, req });
                    }
                }
            }
            Err(_) => {
                // The managed heap exhausted its budget mid-invoke:
                // the runtime dies (an OOM crash), the request
                // retries elsewhere.
                self.release_cores(self.config.cpu_share);
                self.destroy_instance(id);
                self.stats.crashes += 1;
                self.stats.heap_exhaustions += 1;
                self.record_breaker_failure(fn_idx);
                self.fail_or_retry(req, stage, FailReason::HeapExhausted);
            }
        }
        Ok(())
    }

    fn on_stage_done(&mut self, id: InstanceId, req: usize) -> PlatformResult<()> {
        let (fn_idx, stage) = {
            let slot = self.slot(id).ok_or(PlatformError::StaleInstance {
                id,
                context: "stage-done",
            })?;
            (slot.fn_idx, slot.stage)
        };
        self.record_breaker_success(fn_idx);
        let chain_len = self.spec(fn_idx).chain_len;
        // Advance the request.
        if stage + 1 < chain_len {
            self.pending.push_back(PendingStage {
                req,
                stage: stage + 1,
            });
        } else {
            let now = self.now;
            let r = self.request_mut(req);
            debug_assert!(r.outcome == Outcome::Pending);
            r.outcome = Outcome::Completed;
            let latency = now.since(r.arrival);
            self.stats.latency.record(latency);
            self.stats.completed += 1;
        }
        // Exit-time behaviour.
        match self.mode {
            GcMode::Vanilla => {
                self.release_cores(self.config.cpu_share);
                self.finish_freeze(id)?;
            }
            GcMode::Eager => {
                self.mark_slot_dirty(id);
                let slot = self
                    .slots
                    .get_mut(&id)
                    .ok_or(PlatformError::StaleInstance {
                        id,
                        context: "stage-done",
                    })?;
                slot.status = Status::GcAfterExit;
                match slot.inst.eager_gc(&mut self.sys) {
                    Ok(g) => {
                        self.stats
                            .record_core_time(CoreTimeKind::Gc, g, self.config.cpu_share);
                        self.schedule(self.now + g, Event::GcDone { id });
                    }
                    Err(_) => {
                        // Exit-time GC wedged the runtime. The request
                        // already advanced; only the instance is lost.
                        self.release_cores(self.config.cpu_share);
                        self.stats.crashes += 1;
                        self.stats.heap_exhaustions += 1;
                        self.destroy_instance(id);
                    }
                }
            }
        }
        self.drain_pending();
        Ok(())
    }

    /// Freezes `id`: completes intermediate transfer semantics, returns
    /// it to its warm pool, and re-charges it at measured USS.
    fn finish_freeze(&mut self, id: InstanceId) -> PlatformResult<()> {
        self.mark_slot_dirty(id);
        let slot = self
            .slots
            .get_mut(&id)
            .ok_or(PlatformError::StaleInstance {
                id,
                context: "finish-freeze",
            })?;
        slot.status = Status::Frozen;
        slot.frozen_since = self.now;
        slot.reclaimed_since_use = false;
        slot.frozen_heap = None;
        let key = (slot.fn_idx, slot.stage);
        let uss = slot.inst.uss(&self.sys);
        self.update_charge(id, uss)?;
        self.pools.entry(key).or_default().push(id);
        self.maybe_oom_kill();
        Ok(())
    }

    /// Terminally fails `req`.
    fn fail_request(&mut self, req: usize, why: FailReason) {
        let r = self.request_mut(req);
        debug_assert!(r.outcome == Outcome::Pending);
        r.outcome = Outcome::Failed(why);
        self.stats.failed += 1;
    }

    /// Retries `req` at `stage` with capped exponential backoff, or
    /// fails it if the retry budget or deadline is exhausted.
    fn fail_or_retry(&mut self, req: usize, stage: u8, why: FailReason) {
        let attempts = self.request(req).attempts;
        if attempts >= self.config.max_retries {
            self.stats.retry_gave_up += 1;
            self.fail_request(req, why);
            return;
        }
        let shift = attempts.min(20);
        let backoff = (self.config.retry_backoff * (1u64 << shift))
            .min(self.config.retry_backoff_cap);
        let at = self.now + backoff;
        if at > self.request(req).arrival + self.config.request_deadline {
            self.fail_request(req, FailReason::DeadlineExceeded);
            return;
        }
        self.request_mut(req).attempts += 1;
        self.stats.retries += 1;
        self.schedule(at, Event::Retry { req, stage });
    }

    /// True if `fn_idx` may run a request now; flips an expired open
    /// breaker into its half-open probe window.
    fn breaker_allows(&mut self, fn_idx: usize) -> bool {
        if self.config.breaker_threshold == 0 {
            return true;
        }
        let now = self.now;
        let b = self.breaker_mut(fn_idx);
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open(until) if now >= until => {
                b.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open(_) => false,
        }
    }

    fn record_breaker_failure(&mut self, fn_idx: usize) {
        let threshold = self.config.breaker_threshold;
        if threshold == 0 {
            return;
        }
        let until = self.now + self.config.breaker_cooldown;
        let b = self.breaker_mut(fn_idx);
        b.consecutive += 1;
        let trips = match b.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive >= threshold,
            BreakerState::Open(_) => false,
        };
        if trips {
            b.state = BreakerState::Open(until);
            self.stats.breaker_trips += 1;
        }
    }

    fn record_breaker_success(&mut self, fn_idx: usize) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        let b = self.breaker_mut(fn_idx);
        b.consecutive = 0;
        b.state = BreakerState::Closed;
    }

    /// One memory-manager sweep: collect frozen views, ask the manager,
    /// start reclamations on idle CPU. Each frozen heap is probed once
    /// per freeze (see [`Slot::frozen_heap`]).
    fn run_sweep(&mut self) {
        let Some(manager) = self.manager.as_mut() else {
            return;
        };
        let sys = &self.sys;
        let views: Vec<FrozenView> = self
            .slots
            .values_mut()
            .filter(|s| s.status == Status::Frozen)
            .map(|s| {
                let heap = s.inst.heap();
                let heap_resident = *s.frozen_heap.get_or_insert_with(|| heap.resident_heap_bytes(sys));
                debug_assert_eq!(
                    heap_resident,
                    heap.resident_heap_bytes(sys),
                    "frozen-heap memo of {:?} is stale",
                    s.id
                );
                FrozenView {
                    id: s.id,
                    // tidy:allow(panic-reachability) -- fn_idx is validated against the catalog at admission/restore
                    function: self.catalog[s.fn_idx].name,
                    stage: s.stage,
                    frozen_since: s.frozen_since,
                    heap_resident,
                    charge: s.charge,
                    reclaimed: s.reclaimed_since_use,
                }
            })
            .collect();
        let picks = manager.select_reclaims(
            self.now,
            self.config.cache_budget,
            self.cache_used,
            &views,
        );
        let keep_weak = manager.keep_weak();
        let unmap = manager.unmap_libs();
        for id in picks {
            let idle = self.config.cores - self.used_cores;
            // Reclamation only uses idle CPU (§4.5.2).
            if idle < 0.25 {
                break;
            }
            let cpus = idle.min(1.0);
            if self.slot(id).map(|s| s.status) != Some(Status::Frozen) {
                continue;
            }
            let injected_failure = self.injector.as_mut().is_some_and(|i| i.reclaim_fails());
            self.mark_slot_dirty(id);
            let Some(slot) = self.slots.get_mut(&id) else {
                continue;
            };
            slot.status = Status::Reclaiming;
            slot.reclaimed_since_use = true;
            let fn_idx = slot.fn_idx;
            if injected_failure {
                self.fail_reclaim(id, fn_idx, cpus);
                continue;
            }
            let report = match slot.inst.reclaim(&mut self.sys, self.now, keep_weak) {
                Ok(r) => r,
                Err(_) => {
                    self.fail_reclaim(id, fn_idx, cpus);
                    continue;
                }
            };
            let mut released = report.released_bytes;
            if unmap {
                // A failed unmap degrades to "nothing extra released".
                released += slot.inst.unmap_private_libs(&mut self.sys).unwrap_or(0);
            }
            let wall = report.wall_time.mul_f64(1.0 / cpus);
            self.used_cores += cpus;
            self.stats.reclamations += 1;
            self.stats.reclaimed_bytes += released;
            self.stats
                .record_core_time(CoreTimeKind::Reclaim, wall, cpus);
            let name = self.spec(fn_idx).name;
            let profile = ReclaimProfile {
                live_bytes: report.live_bytes,
                released_bytes: released,
                // Accumulated CPU time = wall × cpus = the full-CPU
                // work of the reclamation.
                cpu_time: report.wall_time,
            };
            if let Some(m) = self.manager.as_mut() {
                m.note_reclaimed(self.now, id, name, profile);
            }
            self.schedule(self.now + wall, Event::ReclaimDone { id, cpus, ok: true });
        }
    }

    /// A failed reclamation: burn the probe timeout's CPU, release
    /// nothing, and tell the manager to deprioritize the instance.
    fn fail_reclaim(&mut self, id: InstanceId, fn_idx: usize, cpus: f64) {
        let wall = self.config.reclaim_timeout;
        self.used_cores += cpus;
        self.stats.reclaim_failures += 1;
        self.stats.record_core_time(CoreTimeKind::Reclaim, wall, cpus);
        let name = self.spec(fn_idx).name;
        if let Some(m) = self.manager.as_mut() {
            m.note_reclaim_failed(self.now, id, name);
        }
        self.schedule(self.now + wall, Event::ReclaimDone { id, cpus, ok: false });
    }

    /// USS of every live instance in id order, for harness
    /// measurements.
    pub fn instance_uss(&self) -> Vec<(InstanceId, u64)> {
        self.slots
            .iter()
            .map(|(&id, s)| (id, s.inst.uss(&self.sys)))
            .collect()
    }

    /// Events handled since the platform was created (survives
    /// checkpoint/restore).
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Arms a kill point: the event loop will abort with
    /// [`PlatformError::Killed`] before handling the event at which
    /// the lifetime event count reaches `at_events`. Used by the
    /// kill–recover chaos harness; a kill point at or below the current
    /// count fires on the very next event.
    pub fn arm_kill(&mut self, at_events: u64) {
        self.kill_at = Some(at_events);
    }
}

/// Every pooled id names a live slot of its pool's function and stage:
/// the pool half of [`Platform::check_instance_table`], also run on a
/// restored table before it is committed.
fn check_pools(
    pools: &BTreeMap<(usize, u8), Vec<InstanceId>>,
    slots: &BTreeMap<InstanceId, Slot>,
) -> Result<(), SnapError> {
    let coherent = pools.iter().all(|(&(fn_idx, stage), ids)| {
        ids.iter()
            .all(|id| slots.get(id).is_some_and(|s| s.fn_idx == fn_idx && s.stage == stage))
    });
    if coherent {
        Ok(())
    } else {
        Err(SnapError::Corrupt("pool entry has no matching slot"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::fault::FaultPlan;

    pub(super) fn small_config() -> PlatformConfig {
        PlatformConfig {
            cache_budget: 1 << 30,
            cores: 4.0,
            ..PlatformConfig::default()
        }
    }

    pub(super) fn submit_n(p: &mut Platform, name: &str, n: u64, gap_ms: u64) {
        let idx = p.function_index(name).unwrap();
        for i in 0..n {
            p.submit(SimTime(i * gap_ms * 1_000_000), idx);
        }
    }

    #[test]
    fn single_request_cold_boots_and_completes() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "file-hash", 1, 1);
        p.run_until(SimTime(10_000_000_000));
        assert_eq!(p.stats().completed, 1);
        assert_eq!(p.stats().cold_boots, 1);
        assert_eq!(p.stats().warm_starts, 0);
        assert_eq!(p.frozen_count(), 1);
        // Latency includes the cold boot.
        let mut stats = p.stats.clone();
        assert!(stats.latency.percentile(1.0).unwrap() > SimDuration::from_millis(500));
    }

    #[test]
    fn second_request_warm_starts_and_is_faster() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "file-hash", 2, 5000);
        p.run_until(SimTime(60_000_000_000));
        assert_eq!(p.stats().completed, 2);
        assert_eq!(p.stats().cold_boots, 1);
        assert_eq!(p.stats().warm_starts, 1);
        let mut stats = p.stats.clone();
        let p0 = stats.latency.percentile(0.0).unwrap();
        let p100 = stats.latency.percentile(1.0).unwrap();
        assert!(p0 < p100, "warm start not faster: {p0} vs {p100}");
    }

    #[test]
    fn chains_run_all_stages() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "mapreduce", 1, 1);
        p.run_until(SimTime(30_000_000_000));
        assert_eq!(p.stats().completed, 1);
        // One instance per stage.
        assert_eq!(p.stats().cold_boots, 2);
        assert_eq!(p.frozen_count(), 2);
    }

    #[test]
    fn memory_pressure_causes_evictions() {
        let mut config = small_config();
        // Tight cache: frozen footprints accumulate past it quickly.
        config.cache_budget = 256 << 20;
        let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
        // Sequentially touch many distinct functions so frozen
        // instances pile up.
        let names = [
            "file-hash", "sort", "fft", "matrix", "image-resize", "factor", "pi", "unionfind",
            "dynamic-html", "fibonacci", "web-server", "filesystem",
        ];
        for (i, name) in names.iter().enumerate() {
            let idx = p.function_index(name).unwrap();
            p.submit(SimTime(i as u64 * 20_000_000_000), idx);
        }
        p.run_until(SimTime(names.len() as u64 * 20_000_000_000 + 20_000_000_000));
        assert_eq!(p.stats().completed, names.len() as u64);
        assert!(p.stats().evictions >= 1, "no eviction under pressure");
    }

    #[test]
    fn cpu_exhaustion_queues_requests() {
        let mut config = small_config();
        config.cores = 1.0;
        let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
        // A burst of simultaneous requests: cold boots take a full
        // core each, so they serialize.
        submit_n(&mut p, "pi", 6, 0);
        p.run_until(SimTime(120_000_000_000));
        assert_eq!(p.stats().completed, 6);
        let mut stats = p.stats.clone();
        let spread = stats.latency.percentile(1.0).unwrap().as_secs_f64()
            / stats.latency.percentile(0.0).unwrap().as_secs_f64();
        assert!(spread > 1.5, "no queueing spread: {spread}");
    }

    #[test]
    fn eager_mode_runs_gc_every_exit() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Eager, None);
        submit_n(&mut p, "sort", 3, 3000);
        p.run_until(SimTime(60_000_000_000));
        assert_eq!(p.stats().completed, 3);
        assert!(p.stats().gc_core_ns > 0.0, "eager GC did not run");
        // All instances frozen again afterwards.
        assert_eq!(p.frozen_count(), 1);
    }

    #[test]
    fn vanilla_mode_never_runs_exit_gc() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "sort", 3, 3000);
        p.run_until(SimTime(60_000_000_000));
        assert_eq!(p.stats().gc_core_ns, 0.0);
    }

    #[test]
    fn frozen_charge_is_measured_uss() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "file-hash", 1, 1);
        p.run_until(SimTime(10_000_000_000));
        let uss: u64 = p.instance_uss().iter().map(|(_, u)| *u).sum();
        assert_eq!(p.cache_used(), uss);
        assert!(uss < p.config.instance_budget);
    }

    /// Picks every frozen view on every sweep while `picking` is set,
    /// and counts the failed reclaims whose instance was thawed and
    /// frozen again before the reclaim's done event.
    struct PickAll {
        picking: Arc<AtomicBool>,
        timeout: SimDuration,
        failed: Vec<(InstanceId, SimTime)>,
        refrozen_mid_reclaim: Arc<AtomicU64>,
    }

    impl MemoryManager for PickAll {
        fn name(&self) -> &'static str {
            "pick-all"
        }

        fn select_reclaims(&mut self, _: SimTime, _: u64, _: u64, frozen: &[FrozenView]) -> Vec<InstanceId> {
            for v in frozen {
                let mid = |&(id, at): &(InstanceId, SimTime)| {
                    id == v.id && at < v.frozen_since && v.frozen_since < at + self.timeout
                };
                if self.failed.iter().any(mid) {
                    self.refrozen_mid_reclaim.fetch_add(1, Ordering::Relaxed);
                    self.failed.retain(|&(id, _)| id != v.id);
                }
            }
            if !self.picking.load(Ordering::Relaxed) {
                return Vec::new();
            }
            frozen.iter().map(|v| v.id).collect()
        }

        fn note_eviction(&mut self, _: SimTime, _: &str) {}

        fn note_destroyed(&mut self, _: InstanceId) {}

        fn note_reclaimed(&mut self, _: SimTime, _: InstanceId, _: &str, _: ReclaimProfile) {}

        fn note_reclaim_failed(&mut self, now: SimTime, id: InstanceId, _: &str) {
            self.failed.push((id, now));
        }
    }

    /// Every path back into `Frozen` (a first freeze, an ok and a
    /// failed reclaim, a thaw that lands mid-reclaim, a restore) runs
    /// under the debug-build check of each frozen-heap memo read
    /// against a fresh probe, and the memos never reach checkpoint
    /// bytes.
    #[test]
    fn frozen_heap_memo_holds_on_every_path_into_frozen() {
        let timeout = SimDuration::from_secs(2);
        let refrozen = Arc::new(AtomicU64::new(0));
        let make = |picking: &Arc<AtomicBool>| {
            let config = PlatformConfig {
                sweep_interval: SimDuration::from_millis(50),
                reclaim_timeout: timeout,
                faults: Some(FaultPlan {
                    seed: 13,
                    boot_fail: 0.0,
                    crash: 0.0,
                    thaw_fail: 0.0,
                    reclaim_fail: 0.5,
                    oom_kill: 0.0,
                }),
                ..small_config()
            };
            let manager = PickAll {
                picking: Arc::clone(picking),
                timeout,
                failed: Vec::new(),
                refrozen_mid_reclaim: Arc::clone(&refrozen),
            };
            let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, Some(Box::new(manager)));
            submit_n(&mut p, "file-hash", 40, 300);
            submit_n(&mut p, "sort", 20, 700);
            p
        };
        let frozen_memos = |p: &Platform| -> Vec<Option<u64>> {
            p.slots
                .values()
                .filter(|s| s.status == Status::Frozen)
                .map(|s| s.frozen_heap)
                .collect()
        };
        let end = SimTime(60_000_000_000);
        let mid = SimTime(6_000_000_000);
        let on = Arc::new(AtomicBool::new(true));
        let mut control = make(&on);
        control.run_until(end);
        let want = control.checkpoint();
        let s = control.stats();
        assert!(s.reclamations > 0 && s.reclaim_failures > 0, "{} ok, {} failed", s.reclamations, s.reclaim_failures);
        assert!(refrozen.load(Ordering::Relaxed) > 0, "no thaw landed mid-reclaim");

        let mut victim = make(&on);
        victim.run_until(mid);
        assert!(frozen_memos(&victim).iter().any(Option::is_some), "no sweep filled a memo");
        let snap = victim.checkpoint();
        let off = Arc::new(AtomicBool::new(false));
        let mut restored = make(&off);
        restored.restore(&snap).expect("restore");
        let memos = frozen_memos(&restored);
        assert!(!memos.is_empty() && memos.iter().all(Option::is_none), "{memos:?}");
        // A sweep that picks nothing fills every memo and changes no
        // checkpoint byte.
        restored.run_sweep();
        assert!(frozen_memos(&restored).iter().all(Option::is_some));
        assert!(restored.checkpoint() == snap, "frozen-heap memos leaked into checkpoint bytes");
        off.store(true, Ordering::Relaxed);
        restored.run_until(end);
        assert!(restored.checkpoint() == want, "restored run diverged from the control");
    }

    #[test]
    fn run_until_is_monotonic_and_resumable() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "clock", 5, 1000);
        p.run_until(SimTime(2_000_000_000));
        let done_early = p.stats().completed;
        p.run_until(SimTime(30_000_000_000));
        assert!(p.stats().completed >= done_early);
        assert_eq!(p.stats().completed, 5);
        assert_eq!(p.now(), SimTime(30_000_000_000));
    }

    #[test]
    fn shutdown_returns_accounting_to_zero() {
        let mut p = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut p, "mapreduce", 2, 2000);
        p.run_until(SimTime(60_000_000_000));
        assert!(p.cache_used() > 0);
        p.shutdown().expect("clean teardown");
        assert_eq!(p.cache_used(), 0);
        assert_eq!(p.instance_count(), 0);
        assert_eq!(p.system().process_count(), 0);
    }

    #[test]
    fn disabled_fault_plan_changes_nothing() {
        // A plan with every probability at zero must behave exactly
        // like no plan at all: zero-rate draws consume no randomness.
        let run = |faults: Option<FaultPlan>| {
            let config = PlatformConfig {
                faults,
                ..small_config()
            };
            let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
            submit_n(&mut p, "mapreduce", 4, 1500);
            p.run_until(SimTime(60_000_000_000));
            (
                p.stats().completed,
                p.stats().cold_boots,
                p.stats().warm_starts,
                p.cache_used(),
                p.stats().exec_core_ns.to_bits(),
            )
        };
        assert_eq!(run(None), run(Some(FaultPlan::disabled(123))));
    }

    #[test]
    fn armed_kill_aborts_and_recovery_matches_control() {
        let run_cfg = || PlatformConfig {
            faults: Some(FaultPlan::uniform(5, 0.1)),
            ..small_config()
        };
        let make = || Platform::new(run_cfg(), workloads::catalog(), GcMode::Vanilla, None);
        // Control: uninterrupted.
        let mut control = make();
        submit_n(&mut control, "mapreduce", 6, 1500);
        control.run_until(SimTime(90_000_000_000));
        let want = control.checkpoint();
        // Victim: checkpoint early, get killed, restore, resume.
        let mut victim = make();
        submit_n(&mut victim, "mapreduce", 6, 1500);
        victim.run_until(SimTime(4_000_000_000));
        let snap = victim.checkpoint();
        let at = victim.events_handled() + 10;
        victim.arm_kill(at);
        let err = victim.try_run_until(SimTime(90_000_000_000)).unwrap_err();
        assert!(matches!(err, PlatformError::Killed { .. }), "{err}");
        let mut recovered = make();
        submit_n(&mut recovered, "mapreduce", 6, 1500);
        recovered.run_until(SimTime(4_000_000_000));
        recovered.restore(&snap).expect("restore");
        recovered.run_until(SimTime(90_000_000_000));
        assert_eq!(recovered.checkpoint(), want, "recovered digest must match control");
    }

    #[test]
    fn faulty_run_is_deterministic() {
        let run = |seed: u64| {
            let config = PlatformConfig {
                faults: Some(FaultPlan::uniform(seed, 0.2)),
                ..small_config()
            };
            let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
            submit_n(&mut p, "mapreduce", 20, 700);
            p.run_until(SimTime(300_000_000_000));
            (
                p.stats().completed,
                p.stats().failed,
                p.stats().fault_events(),
                p.stats().retries,
                p.cache_used(),
            )
        };
        let a = run(7);
        assert_eq!(a, run(7), "same fault seed must replay identically");
        assert!(a.2 > 0, "20% fault rate produced no fault events");
        assert_eq!(a.0 + a.1, 20, "every request must terminate");
    }
}
