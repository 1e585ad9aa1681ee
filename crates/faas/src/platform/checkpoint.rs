//! The platform's checkpoint codec: the flat [`Platform::checkpoint`]
//! blob, the framed base and delta cuts, and their restore paths.
//!
//! Every section has one encoder and one decoder. The tail — pools
//! through the manager blob — is written by [`Platform::snap_tail`]
//! into both the flat blob and the `CONTROL` frame. Both restore paths
//! end in [`Platform::validate_and_commit`]: [`Platform::restore`]
//! decodes the flat blob's `System` and instance table and hands them
//! over; [`Platform::restore_chain`] folds a chain's frames into a
//! decoded `System` and instance table and hands those over instead.

use std::collections::{BTreeMap, VecDeque};

use faas_runtime::{Instance, Language, SharedLibs};
use simos::mem::Mapping;
use simos::system::FileRegistry;
use simos::{AddressSpace, Pid, SimTime, System};
use snapshot::frame::{Container, ContainerWriter};
use snapshot::{Reader, SnapError, Snapshot, Writer};
use workloads::FunctionState;

use super::{
    Breaker, BreakerState, Event, ExtraFrames, FailReason, FrozenFnSummary, GcMode, InstanceId,
    Outcome, PendingStage, Platform, Request, Slot, Status,
};
use crate::config::EnvFlavor;
use crate::error::PlatformResult;
use crate::fault::FaultInjector;
use crate::queue::EventQueue;
use crate::slab::{IdMap, Slab};
use crate::stats::PlatformStats;

/// Magic of a [`Platform::checkpoint`] blob (`"FPCK"`).
const SNAP_MAGIC: u32 = 0x4650_434b;
/// Version of the checkpoint format. Bump on any layout change: old
/// snapshots are rejected, never misread.
const SNAP_VERSION: u32 = 1;

impl Platform {
    /// A configuration fingerprint: checkpoints only restore into a
    /// platform built with the same config, catalog, GC mode, and
    /// manager. FNV-1a over every config field, keeping restore from
    /// silently continuing a different simulation.
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let c = &self.config;
        put(c.cache_budget);
        put(c.instance_budget);
        put(c.cpu_share.to_bits());
        put(c.cores.to_bits());
        put(c.container_create.as_nanos());
        put(c.thaw.as_nanos());
        put(match c.env {
            EnvFlavor::OpenWhisk => 0,
            EnvFlavor::Lambda => 1,
        });
        put(c.sweep_interval.as_nanos());
        put(c.seed);
        put(u64::from(c.max_retries));
        put(c.retry_backoff.as_nanos());
        put(c.retry_backoff_cap.as_nanos());
        put(c.request_deadline.as_nanos());
        put(u64::from(c.breaker_threshold));
        put(c.breaker_cooldown.as_nanos());
        put(c.reclaim_timeout.as_nanos());
        match &c.faults {
            None => put(0),
            Some(p) => {
                put(1);
                put(p.seed);
                put(p.boot_fail.to_bits());
                put(p.crash.to_bits());
                put(p.thaw_fail.to_bits());
                put(p.reclaim_fail.to_bits());
                put(p.oom_kill.to_bits());
            }
        }
        put(match self.mode {
            GcMode::Vanilla => 0,
            GcMode::Eager => 1,
        });
        let mut put_str = |s: &str| {
            for &b in s.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for spec in &self.catalog {
            put_str(spec.name);
            put_str(spec.language.name());
        }
        match self.manager.as_ref() {
            Some(m) => put_str(m.name()),
            None => put_str("-"),
        }
        h
    }

    /// Serializes the complete simulation state — OS, every instance
    /// (heap object graphs included), request table, event queue,
    /// statistics, fault-stream cursor, breakers, and the manager's
    /// state — into a versioned, self-validating binary snapshot.
    ///
    /// Equal states produce byte-identical snapshots: the event queue
    /// is written in canonical `(time, sequence)` order, and every
    /// float is written bit-exactly.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.full_len_hint());
        snapshot::write_header(&mut w, SNAP_MAGIC, SNAP_VERSION);
        self.fingerprint().snap(&mut w);
        self.sys.snap(&mut w);
        let live = self.live_slots();
        w.usize(live.len());
        for s in live {
            s.snap(&mut w);
        }
        self.snap_tail(&mut w);
        let mut bytes = w.into_bytes();
        bytes.shrink_to_fit();
        bytes
    }

    /// Bytes to reserve for a full encoding, flat or a base cut: the
    /// page bitmaps, about three quarters of it, and half again for
    /// the rest. Derived from the state and never encoded, so a short
    /// guess costs a reallocation, never a byte.
    fn full_len_hint(&self) -> usize {
        let spaces = self.sys.spaces();
        let bitmaps: usize = spaces.flat_map(|(_, s)| s.mappings()).map(Mapping::bitmap_bytes).sum();
        bitmaps / 2 * 3
    }

    /// Live instances in id order: the instance table's row order in
    /// the flat checkpoint and the `SLOT` frame order of a base cut.
    fn live_slots(&self) -> Vec<&Slot> {
        let mut live: Vec<&Slot> = self.slots.iter().map(|(_, s)| s).collect();
        live.sort_unstable_by_key(|s| s.id);
        live
    }

    /// Everything after the instance table: pools, shared libraries,
    /// requests, the event queue in canonical `(time, seq)` order,
    /// pending stages, scalars, statistics, fault cursor, breakers, and
    /// the manager blob. The flat checkpoint and the `CONTROL` frame
    /// both carry exactly these bytes; [`Platform::validate_and_commit`]
    /// decodes them.
    fn snap_tail(&self, w: &mut Writer) {
        self.pools.snap(w);
        self.shared_libs.snap(w);
        self.requests.snap(w);
        w.usize(self.events.len());
        for (at, seq, ev) in self.events.sorted_entries() {
            at.snap(w);
            seq.snap(w);
            ev.snap(w);
        }
        self.pending.snap(w);
        self.now.snap(w);
        self.seq.snap(w);
        self.next_instance.snap(w);
        self.used_cores.snap(w);
        self.cache_used.snap(w);
        self.stats.snap(w);
        self.sweep_scheduled.snap(w);
        self.next_seed.snap(w);
        self.boot_footprint.snap(w);
        self.injector.snap(w);
        self.breakers.snap(w);
        self.events_handled.snap(w);
        let blob = match self.manager.as_ref() {
            Some(m) => m.snapshot_state(),
            None => Vec::new(),
        };
        w.blob(&blob);
    }

    /// Restores a [`Platform::checkpoint`] into this platform, which
    /// must have been constructed with the same configuration, catalog,
    /// GC mode, and manager (enforced by fingerprint). All-or-nothing:
    /// on any decode error the platform is left untouched. An armed
    /// kill point stays armed — the recovery driver owns it.
    pub fn restore(&mut self, bytes: &[u8]) -> PlatformResult<()> {
        let mut r = Reader::new(bytes);
        snapshot::read_header(&mut r, SNAP_MAGIC, SNAP_VERSION)?;
        let fp = u64::restore(&mut r)?;
        let sys = System::restore(&mut r)?;
        let slot_rows = Vec::<Slot>::restore(&mut r)?;
        self.validate_and_commit(fp, sys, slot_rows, r)
    }

    /// The one restore step both paths share: checks the fingerprint,
    /// decodes the [`Platform::snap_tail`] section from `tail` (which
    /// must hold nothing more), cross-checks it against `sys` and the
    /// id-ordered `slot_rows`, and only then replaces this platform's
    /// state. On any error the platform is untouched.
    fn validate_and_commit(
        &mut self,
        fp: u64,
        sys: System,
        slot_rows: Vec<Slot>,
        mut tail: Reader<'_>,
    ) -> PlatformResult<()> {
        if fp != self.fingerprint() {
            return Err(SnapError::mismatch(
                "platform configuration fingerprint",
                format!("{:016x}", self.fingerprint()),
                format!("{fp:016x}"),
            )
            .into());
        }
        let r = &mut tail;
        let pools: BTreeMap<(usize, u8), Vec<InstanceId>> = BTreeMap::restore(r)?;
        let shared_libs: BTreeMap<Language, SharedLibs> = BTreeMap::restore(r)?;
        let requests: Vec<Request> = Vec::restore(r)?;
        let event_rows: Vec<(SimTime, u64, Event)> = Vec::restore(r)?;
        let pending: VecDeque<PendingStage> = VecDeque::restore(r)?;
        let now = SimTime::restore(r)?;
        let seq = u64::restore(r)?;
        let next_instance = u64::restore(r)?;
        let used_cores = f64::restore(r)?;
        let cache_used = u64::restore(r)?;
        let stats = PlatformStats::restore(r)?;
        let sweep_scheduled = bool::restore(r)?;
        let next_seed = u64::restore(r)?;
        let boot_footprint = u64::restore(r)?;
        let injector: Option<FaultInjector> = Option::restore(r)?;
        let breakers: Vec<Breaker> = Vec::restore(r)?;
        let events_handled = u64::restore(r)?;
        let manager_blob = r.blob()?.to_vec();
        tail.finish()?;

        // Cross-checks before committing anything.
        if breakers.len() != self.catalog.len() {
            return Err(SnapError::Corrupt("breaker table size != catalog").into());
        }
        if self.config.faults.is_some() != injector.is_some() {
            return Err(SnapError::Corrupt("fault-injector presence flipped").into());
        }
        if !used_cores.is_finite() || used_cores < 0.0 {
            return Err(SnapError::Corrupt("used_cores out of range").into());
        }
        for req in &requests {
            if req.fn_idx >= self.catalog.len() {
                return Err(SnapError::Corrupt("request names unknown function").into());
            }
        }
        let mut charge_sum = 0u64;
        for (i, slot) in slot_rows.iter().enumerate() {
            if i.checked_sub(1).and_then(|j| slot_rows.get(j)).is_some_and(|p| p.id >= slot.id) {
                return Err(SnapError::Corrupt("instance table not id-sorted").into());
            }
            if slot.id.0 >= next_instance {
                return Err(SnapError::Corrupt("instance id >= next_instance").into());
            }
            if self
                .catalog
                .get(slot.fn_idx)
                .is_none_or(|spec| slot.stage >= spec.chain_len)
            {
                return Err(SnapError::Corrupt("slot names unknown function/stage").into());
            }
            charge_sum = charge_sum.saturating_add(slot.charge);
        }
        if charge_sum != cache_used {
            return Err(SnapError::Corrupt("cache charge does not sum").into());
        }
        let mut slots: Slab<Slot> = Slab::new();
        let mut by_id = IdMap::new();
        for slot in slot_rows {
            let id = slot.id;
            let h = slots.insert(slot);
            by_id.set(id, h);
        }
        for (&(fn_idx, stage), ids) in &pools {
            for id in ids {
                let ok = by_id
                    .get(*id)
                    .and_then(|h| slots.get(h))
                    .is_some_and(|s| s.fn_idx == fn_idx && s.stage == stage);
                if !ok {
                    return Err(SnapError::Corrupt("pool entry has no matching slot").into());
                }
            }
        }
        let ev_ok = |req: usize| req < requests.len();
        for (_, ev_seq, ev) in &event_rows {
            if *ev_seq > seq {
                return Err(SnapError::Corrupt("event seq above cursor").into());
            }
            let ok = match ev {
                Event::Arrival { req }
                | Event::BootDone { req, .. }
                | Event::BootFailed { req, .. }
                | Event::StageDone { req, .. }
                | Event::Crash { req, .. }
                | Event::Retry { req, .. } => ev_ok(*req),
                Event::GcDone { .. } | Event::ReclaimDone { .. } | Event::Sweep => true,
            };
            if !ok {
                return Err(SnapError::Corrupt("event names unknown request").into());
            }
        }
        let events = EventQueue::from_sorted(event_rows)
            .map_err(SnapError::Corrupt)?;
        for p in &pending {
            if !ev_ok(p.req) {
                return Err(SnapError::Corrupt("pending stage names unknown request").into());
            }
        }
        match self.manager.as_mut() {
            Some(m) => m.restore_state(&manager_blob)?,
            None if !manager_blob.is_empty() => {
                return Err(SnapError::mismatch(
                    "manager state blob",
                    "empty (no manager installed)",
                    format!("{} bytes", manager_blob.len()),
                )
                .into());
            }
            None => {}
        }

        self.sys = sys;
        self.slots = slots;
        self.by_id = by_id;
        self.pools = pools;
        self.shared_libs = shared_libs;
        self.requests = requests;
        self.events = events;
        self.pending = pending;
        self.now = now;
        self.seq = seq;
        self.next_instance = next_instance;
        self.used_cores = used_cores;
        self.cache_used = cache_used;
        self.stats = stats;
        self.sweep_scheduled = sweep_scheduled;
        self.next_seed = next_seed;
        self.boot_footprint = boot_footprint;
        self.injector = injector;
        self.breakers = breakers;
        self.events_handled = events_handled;
        // A restore is a checkpoint cut: the restored state *is* the
        // new epoch's baseline (the restored `sys` starts clean too),
        // so a later delta may chain to the restored checkpoint.
        self.dirty_slots.clear();
        self.dead_slots.clear();
        Ok(())
    }

    /// Frame kind: the configuration fingerprint (every container).
    pub const FRAME_META: u32 = 1;
    /// Frame kind: the always-full control section (every container).
    pub const FRAME_CONTROL: u32 = 2;
    /// Frame kind: one full address space, keyed by pid (bases only).
    pub const FRAME_PROC: u32 = 3;
    /// Frame kind: pids destroyed since the parent (deltas only).
    pub const FRAME_PROC_TOMB: u32 = 4;
    /// Frame kind: one address-space delta, keyed by pid (deltas only).
    pub const FRAME_PROC_DELTA: u32 = 5;
    /// Frame kind: one full instance slot, keyed by instance id.
    pub const FRAME_SLOT: u32 = 6;
    /// Frame kind: instance ids destroyed since the parent.
    pub const FRAME_SLOT_TOMB: u32 = 7;
    /// Frame kinds at or above this are opaque to the platform:
    /// drivers may attach their own frames and get them back from
    /// [`Platform::restore_chain`].
    pub const FRAME_EXTRA_BASE: u32 = 0x100;

    /// The control section of an incremental checkpoint: everything a
    /// delta always carries in full — the file registry, the pid
    /// cursor, and the [`Platform::snap_tail`] section, each of the
    /// first and last as a blob. Only address spaces and instance
    /// slots — the two large, sparsely-mutated tables — are
    /// delta-encoded.
    fn control_section(&self, w: &mut Writer) {
        w.blob_with(|w| self.sys.files().snap(w));
        w.u32(self.sys.next_pid());
        w.blob_with(|w| self.snap_tail(w));
    }

    /// Marks the current state as checkpointed: every dirty-tracking
    /// structure resets, so the next [`Platform::checkpoint_delta`]
    /// carries only mutations from this point on.
    fn clear_epoch_tracking(&mut self) {
        self.sys.clear_epoch_dirty();
        self.dirty_slots.clear();
        self.dead_slots.clear();
    }

    /// One checkpoint cut, base or delta: the `META` and `CONTROL`
    /// frames, then the frames `body` writes, then the driver's
    /// `extra` frames, sealed by a commit record carrying `epoch` (and
    /// `parent` for a delta). Every frame is encoded in place into the
    /// container's one buffer. A base reserves its
    /// [`Platform::full_len_hint`] up front; a delta, a few percent of
    /// it, grows as it goes, since sizing it would take a second pass
    /// over every mapping. Clears the dirty-epoch tracking.
    fn cut(
        &mut self,
        epoch: u64,
        parent: Option<u64>,
        extra: &[(u32, Vec<u8>)],
        body: impl FnOnce(&Platform, &mut ContainerWriter),
    ) -> Vec<u8> {
        let len_hint = if parent.is_none() { self.full_len_hint() } else { 0 };
        let mut cw = ContainerWriter::with_capacity(len_hint);
        cw.frame_with(Self::FRAME_META, |w| self.fingerprint().snap(w));
        cw.frame_with(Self::FRAME_CONTROL, |w| self.control_section(w));
        body(self, &mut cw);
        for (kind, payload) in extra {
            cw.frame(*kind, payload);
        }
        self.clear_epoch_tracking();
        cw.commit(epoch, parent)
    }

    /// A *base* checkpoint in the framed container format: the complete
    /// state as one `META` + `CONTROL` + per-process `PROC` + per-slot
    /// `SLOT` frame set, sealed by a commit record carrying `epoch`.
    /// `extra` frames (driver state; kinds at or above
    /// [`Platform::FRAME_EXTRA_BASE`]) ride along verbatim and come
    /// back from [`Platform::restore_chain`].
    ///
    /// Unlike [`Platform::checkpoint`] this is a checkpoint *cut*: it
    /// clears the dirty-epoch tracking so a following
    /// [`Platform::checkpoint_delta`] is relative to it.
    pub fn checkpoint_base(&mut self, epoch: u64, extra: &[(u32, Vec<u8>)]) -> Vec<u8> {
        self.cut(epoch, None, extra, |p, cw| {
            for (pid, space) in p.sys.spaces() {
                cw.frame_with(Self::FRAME_PROC, |w| {
                    pid.snap(w);
                    space.snap(w);
                });
            }
            for s in p.live_slots() {
                cw.frame_with(Self::FRAME_SLOT, |w| s.snap(w));
            }
        })
    }

    /// A *delta* checkpoint against the checkpoint at `parent`: the
    /// control section in full (it is small and densely mutated), but
    /// only the address spaces and instance slots mutated since the
    /// last checkpoint cut. Tombstone frames carry the processes and
    /// instances destroyed since. Finding the mutated spaces reads one
    /// epoch-dirty flag per mapping, with no bitmap and no allocation,
    /// and a dirty mapping is re-encoded whole; the dirty and dead
    /// slot sets are kept as the platform runs.
    pub fn checkpoint_delta(&mut self, epoch: u64, parent: u64, extra: &[(u32, Vec<u8>)]) -> Vec<u8> {
        self.cut(epoch, Some(parent), extra, |p, cw| {
            // Tombstones before upserts: ids are never reused, so the
            // order only matters for readability of the container.
            if !p.sys.removed_pids().is_empty() {
                cw.frame_with(Self::FRAME_PROC_TOMB, |w| p.sys.removed_pids().snap(w));
            }
            for (pid, space) in p.sys.epoch_dirty_spaces() {
                cw.frame_with(Self::FRAME_PROC_DELTA, |w| {
                    pid.snap(w);
                    space.snap_delta(w);
                });
            }
            if !p.dead_slots.is_empty() {
                cw.frame_with(Self::FRAME_SLOT_TOMB, |w| p.dead_slots.snap(w));
            }
            // Dirt recorded for an instance that died later in the
            // epoch is stale — the tombstone covers it.
            for slot in p.dirty_slots.iter().filter_map(|&id| p.slot(id)) {
                cw.frame_with(Self::FRAME_SLOT, |w| slot.snap(w));
            }
        })
    }

    /// Restores a base-plus-deltas chain (oldest first, base at the
    /// head) produced by [`Platform::checkpoint_base`] and
    /// [`Platform::checkpoint_delta`].
    ///
    /// The fold decodes each frame once into the sections a restore
    /// commits: address spaces keyed by pid (`PROC` decoded in full,
    /// `PROC_DELTA` applied in place, tombstones erasing), instance
    /// slots keyed by id, and the newest `CONTROL` frame's file
    /// registry, pid cursor and tail. `System::from_parts` rebuilds
    /// the OS with its page-cache coherence check, and the same
    /// validate-and-commit step as [`Platform::restore`] runs every
    /// other cross-check (fingerprint, charge sums, pool coherence,
    /// event/request bounds, manager state) before anything changes.
    ///
    /// Returns the epoch of the chain head and the head's extra
    /// (driver) frames.
    pub fn restore_chain(&mut self, chain: &[Vec<u8>]) -> PlatformResult<(u64, ExtraFrames)> {
        if chain.is_empty() {
            return Err(SnapError::Corrupt("empty checkpoint chain").into());
        }
        let containers: Vec<Container> = chain
            .iter()
            .map(|bytes| Container::open(bytes))
            .collect::<Result<_, _>>()?;
        let head = containers.first().ok_or(SnapError::Corrupt("empty checkpoint chain"))?;
        if let Some(p) = head.parent {
            return Err(SnapError::mismatch(
                "chain head",
                "a base checkpoint (no parent)",
                format!("a delta chained to epoch {p}"),
            )
            .into());
        }
        for pair in containers.windows(2) {
            let [prev, next] = pair else { continue };
            if next.parent != Some(prev.epoch) {
                return Err(SnapError::mismatch(
                    "delta parent epoch",
                    prev.epoch,
                    format!("{:?}", next.parent),
                )
                .into());
            }
        }
        let mut fingerprint: Option<u64> = None;
        let mut control: Option<&[u8]> = None;
        let mut spaces: BTreeMap<Pid, AddressSpace> = BTreeMap::new();
        let mut slots: BTreeMap<u64, Slot> = BTreeMap::new();
        let mut extra: Vec<(u32, Vec<u8>)> = Vec::new();
        for container in &containers {
            extra.clear();
            for (kind, payload) in &container.frames {
                let mut r = Reader::new(payload);
                match *kind {
                    Self::FRAME_META => {
                        let fp = u64::restore(&mut r)?;
                        if fingerprint.is_some_and(|have| have != fp) {
                            return Err(SnapError::Corrupt(
                                "chain mixes differently-configured checkpoints",
                            )
                            .into());
                        }
                        fingerprint = Some(fp);
                    }
                    Self::FRAME_CONTROL => {
                        // Only the newest control section is decoded.
                        control = Some(*payload);
                        continue;
                    }
                    Self::FRAME_PROC => {
                        let pid = Pid::restore(&mut r)?;
                        spaces.insert(pid, AddressSpace::restore(&mut r)?);
                    }
                    Self::FRAME_PROC_TOMB => {
                        for pid in Vec::<Pid>::restore(&mut r)? {
                            spaces.remove(&pid);
                        }
                    }
                    Self::FRAME_PROC_DELTA => {
                        let pid = Pid::restore(&mut r)?;
                        spaces.entry(pid).or_default().restore_delta(&mut r)?;
                    }
                    Self::FRAME_SLOT => {
                        let slot = Slot::restore(&mut r)?;
                        slots.insert(slot.id.0, slot);
                    }
                    Self::FRAME_SLOT_TOMB => {
                        for id in Vec::<InstanceId>::restore(&mut r)? {
                            slots.remove(&id.0);
                        }
                    }
                    other if other >= Self::FRAME_EXTRA_BASE => {
                        // Driver frames stay opaque.
                        extra.push((other, payload.to_vec()));
                        continue;
                    }
                    _ => {
                        return Err(SnapError::Corrupt(
                            "unknown platform frame kind in checkpoint chain",
                        )
                        .into());
                    }
                }
                r.finish()?;
            }
        }
        let fp = fingerprint.ok_or(SnapError::Corrupt("chain carries no fingerprint frame"))?;
        let control = control.ok_or(SnapError::Corrupt("chain carries no control frame"))?;
        let mut cr = Reader::new(control);
        let files: FileRegistry = snapshot::decode(cr.blob()?)?;
        let next_pid = cr.u32()?;
        let tail = cr.blob()?;
        cr.finish()?;
        let sys = System::from_parts(files, spaces, next_pid)?;
        self.validate_and_commit(fp, sys, slots.into_values().collect(), Reader::new(tail))?;
        let head_epoch = containers.last().map_or(0, |c| c.epoch);
        Ok((head_epoch, extra))
    }
}

mod snap_impls {
    use super::*;

    snapshot::record!(InstanceId(u64));

    impl Snapshot for Status {
        fn snap(&self, w: &mut Writer) {
            let tag: u8 = match self {
                Status::Starting => 0,
                Status::Running => 1,
                Status::GcAfterExit => 2,
                Status::Reclaiming => 3,
                Status::Frozen => 4,
            };
            tag.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<Status, SnapError> {
            match u8::restore(r)? {
                0 => Ok(Status::Starting),
                1 => Ok(Status::Running),
                2 => Ok(Status::GcAfterExit),
                3 => Ok(Status::Reclaiming),
                4 => Ok(Status::Frozen),
                _ => Err(SnapError::Corrupt("unknown Status tag")),
            }
        }
    }

    // `id` leads: it is the row key of the instance table and of a
    // `SLOT` frame.
    snapshot::record!(Slot {
        id: InstanceId,
        fn_idx: usize,
        stage: u8,
        inst: Instance,
        state: FunctionState,
        status: Status,
        frozen_since: SimTime,
        last_used: SimTime,
        charge: u64,
        reclaimed_since_use: bool,
    } skip { frozen_heap });

    impl Snapshot for FailReason {
        fn snap(&self, w: &mut Writer) {
            let tag: u8 = match self {
                FailReason::BootFailure => 0,
                FailReason::Crash => 1,
                FailReason::HeapExhausted => 2,
                FailReason::BreakerOpen => 3,
                FailReason::DeadlineExceeded => 4,
                FailReason::TooLargeForCache => 5,
            };
            tag.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FailReason, SnapError> {
            match u8::restore(r)? {
                0 => Ok(FailReason::BootFailure),
                1 => Ok(FailReason::Crash),
                2 => Ok(FailReason::HeapExhausted),
                3 => Ok(FailReason::BreakerOpen),
                4 => Ok(FailReason::DeadlineExceeded),
                5 => Ok(FailReason::TooLargeForCache),
                _ => Err(SnapError::Corrupt("unknown FailReason tag")),
            }
        }
    }

    impl Snapshot for Outcome {
        fn snap(&self, w: &mut Writer) {
            match self {
                Outcome::Pending => 0u8.snap(w),
                Outcome::Completed => 1u8.snap(w),
                Outcome::Failed(why) => {
                    2u8.snap(w);
                    why.snap(w);
                }
            }
        }

        fn restore(r: &mut Reader<'_>) -> Result<Outcome, SnapError> {
            match u8::restore(r)? {
                0 => Ok(Outcome::Pending),
                1 => Ok(Outcome::Completed),
                2 => Ok(Outcome::Failed(FailReason::restore(r)?)),
                _ => Err(SnapError::Corrupt("unknown Outcome tag")),
            }
        }
    }

    snapshot::record!(Request {
        fn_idx: usize,
        arrival: SimTime,
        attempts: u32,
        outcome: Outcome,
    });

    impl Snapshot for Event {
        fn snap(&self, w: &mut Writer) {
            match self {
                Event::Arrival { req } => {
                    0u8.snap(w);
                    req.snap(w);
                }
                Event::BootDone { id, req } => {
                    1u8.snap(w);
                    id.snap(w);
                    req.snap(w);
                }
                Event::BootFailed { id, req } => {
                    2u8.snap(w);
                    id.snap(w);
                    req.snap(w);
                }
                Event::StageDone { id, req } => {
                    3u8.snap(w);
                    id.snap(w);
                    req.snap(w);
                }
                Event::Crash { id, req } => {
                    4u8.snap(w);
                    id.snap(w);
                    req.snap(w);
                }
                Event::GcDone { id } => {
                    5u8.snap(w);
                    id.snap(w);
                }
                Event::ReclaimDone { id, cpus, ok } => {
                    6u8.snap(w);
                    id.snap(w);
                    cpus.snap(w);
                    ok.snap(w);
                }
                Event::Retry { req, stage } => {
                    7u8.snap(w);
                    req.snap(w);
                    stage.snap(w);
                }
                Event::Sweep => 8u8.snap(w),
            }
        }

        fn restore(r: &mut Reader<'_>) -> Result<Event, SnapError> {
            match u8::restore(r)? {
                0 => Ok(Event::Arrival {
                    req: usize::restore(r)?,
                }),
                1 => Ok(Event::BootDone {
                    id: InstanceId::restore(r)?,
                    req: usize::restore(r)?,
                }),
                2 => Ok(Event::BootFailed {
                    id: InstanceId::restore(r)?,
                    req: usize::restore(r)?,
                }),
                3 => Ok(Event::StageDone {
                    id: InstanceId::restore(r)?,
                    req: usize::restore(r)?,
                }),
                4 => Ok(Event::Crash {
                    id: InstanceId::restore(r)?,
                    req: usize::restore(r)?,
                }),
                5 => Ok(Event::GcDone {
                    id: InstanceId::restore(r)?,
                }),
                6 => Ok(Event::ReclaimDone {
                    id: InstanceId::restore(r)?,
                    cpus: f64::restore(r)?,
                    ok: bool::restore(r)?,
                }),
                7 => Ok(Event::Retry {
                    req: usize::restore(r)?,
                    stage: u8::restore(r)?,
                }),
                8 => Ok(Event::Sweep),
                _ => Err(SnapError::Corrupt("unknown Event tag")),
            }
        }
    }

    snapshot::record!(PendingStage { req: usize, stage: u8 });

    impl Snapshot for BreakerState {
        fn snap(&self, w: &mut Writer) {
            match self {
                BreakerState::Closed => 0u8.snap(w),
                BreakerState::Open(until) => {
                    1u8.snap(w);
                    until.snap(w);
                }
                BreakerState::HalfOpen => 2u8.snap(w),
            }
        }

        fn restore(r: &mut Reader<'_>) -> Result<BreakerState, SnapError> {
            match u8::restore(r)? {
                0 => Ok(BreakerState::Closed),
                1 => Ok(BreakerState::Open(SimTime::restore(r)?)),
                2 => Ok(BreakerState::HalfOpen),
                _ => Err(SnapError::Corrupt("unknown BreakerState tag")),
            }
        }
    }

    snapshot::record!(Breaker { consecutive: u32, state: BreakerState });

    snapshot::record!(FrozenFnSummary {
        count: u64,
        charge: u64,
        oldest_frozen: SimTime,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlatformError;
    use crate::platform::tests::{small_config, submit_n};

    #[test]
    fn checkpoint_restores_into_identical_platform() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 3, 2000);
        a.run_until(SimTime(7_000_000_000));
        let snap = a.checkpoint();
        let mut b = make();
        b.restore(&snap).expect("restore");
        assert_eq!(b.checkpoint(), snap, "restore must reproduce the checkpoint bytes");
        // Both continue to the same final state.
        a.run_until(SimTime(60_000_000_000));
        b.run_until(SimTime(60_000_000_000));
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a.stats().completed, 3);
    }

    #[test]
    fn checkpoint_rejects_wrong_configuration() {
        let mut a = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut a, "sort", 1, 1);
        a.run_until(SimTime(5_000_000_000));
        let snap = a.checkpoint();
        let mut config = small_config();
        config.cores = 8.0;
        let mut b = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
        assert!(matches!(
            b.restore(&snap),
            Err(PlatformError::Snapshot(snapshot::SnapError::Mismatch { .. }))
        ));
        let mut c = Platform::new(small_config(), workloads::catalog(), GcMode::Eager, None);
        assert!(c.restore(&snap).is_err(), "GC mode is part of the fingerprint");
    }

    #[test]
    fn corrupt_checkpoint_leaves_platform_untouched() {
        let mut a = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut a, "file-hash", 2, 3000);
        a.run_until(SimTime(20_000_000_000));
        let before = a.checkpoint();
        let mut bad = before.clone();
        let last = bad.len() - 1;
        bad.truncate(last);
        assert!(a.restore(&bad).is_err());
        assert_eq!(a.checkpoint(), before, "failed restore must not mutate");
    }

    #[test]
    fn shutdown_after_restore_reports_zero_residue() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 2, 2000);
        a.run_until(SimTime(30_000_000_000));
        let snap = a.checkpoint();
        let mut b = make();
        b.restore(&snap).expect("restore");
        assert!(b.cache_used() > 0);
        b.shutdown().expect("shutdown after restore must be clean");
        assert_eq!(b.cache_used(), 0);
        assert_eq!(b.system().process_count(), 0);
    }

    #[test]
    fn base_checkpoint_folds_to_canonical_bytes() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 3, 2000);
        a.run_until(SimTime(7_000_000_000));
        let full = a.checkpoint();
        let base = a.checkpoint_base(1, &[]);
        let mut b = make();
        let (epoch, extra) = b.restore_chain(&[base]).expect("restore base");
        assert_eq!(epoch, 1);
        assert!(extra.is_empty());
        assert_eq!(
            b.checkpoint(),
            full,
            "a folded base must reproduce the canonical checkpoint bytes"
        );
    }

    #[test]
    fn delta_chain_folds_to_canonical_bytes() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 6, 1500);
        a.run_until(SimTime(5_000_000_000));
        let base = a.checkpoint_base(1, &[]);
        a.run_until(SimTime(9_000_000_000));
        let mid = a.checkpoint();
        let delta = a.checkpoint_delta(2, 1, &[]);
        a.run_until(SimTime(14_000_000_000));
        let full = a.checkpoint();
        let delta2 = a.checkpoint_delta(3, 2, &[]);
        let mut b = make();
        let (epoch, _) = b.restore_chain(&[base.clone(), delta.clone()]).expect("restore");
        assert_eq!(epoch, 2);
        assert_eq!(b.checkpoint(), mid, "base+delta must fold to the mid-run state");
        let mut c = make();
        let (epoch, _) = c.restore_chain(&[base, delta, delta2]).expect("restore");
        assert_eq!(epoch, 3);
        assert_eq!(c.checkpoint(), full, "a two-delta chain must fold to the final state");
        // The folded platform keeps simulating identically.
        a.run_until(SimTime(120_000_000_000));
        c.run_until(SimTime(120_000_000_000));
        assert_eq!(a.checkpoint(), c.checkpoint());
    }

    #[test]
    fn delta_chain_folds_at_arbitrary_cut_points() {
        // Whatever instant a delta is cut at — mid-boot, mid-freeze,
        // mid-reclaim — the fold must land on the canonical bytes.
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        for cut_ms in [1_700u64, 3_300, 6_100, 8_900, 23_000] {
            let mut a = make();
            submit_n(&mut a, "mapreduce", 5, 1100);
            a.run_until(SimTime(1_000_000_000));
            let base = a.checkpoint_base(1, &[]);
            a.run_until(SimTime(cut_ms * 1_000_000));
            let full = a.checkpoint();
            let delta = a.checkpoint_delta(2, 1, &[]);
            let mut b = make();
            b.restore_chain(&[base, delta]).expect("restore");
            assert_eq!(b.checkpoint(), full, "cut at {cut_ms}ms diverged");
        }
    }

    #[test]
    fn delta_is_smaller_than_base() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 8, 1500);
        a.run_until(SimTime(30_000_000_000));
        let base = a.checkpoint_base(1, &[]);
        // A quiet tail: little mutated since the base.
        a.run_until(SimTime(30_050_000_000));
        let delta = a.checkpoint_delta(2, 1, &[]);
        assert!(
            delta.len() < base.len(),
            "delta ({}) must be smaller than base ({})",
            delta.len(),
            base.len()
        );
    }

    #[test]
    fn restore_chain_carries_extra_frames_from_head() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 2, 2000);
        a.run_until(SimTime(5_000_000_000));
        let base = a.checkpoint_base(1, &[(Platform::FRAME_EXTRA_BASE, b"old".to_vec())]);
        a.run_until(SimTime(8_000_000_000));
        let delta = a.checkpoint_delta(2, 1, &[(Platform::FRAME_EXTRA_BASE, b"new".to_vec())]);
        let mut b = make();
        let (_, extra) = b.restore_chain(&[base, delta]).expect("restore");
        assert_eq!(
            extra,
            vec![(Platform::FRAME_EXTRA_BASE, b"new".to_vec())],
            "only the chain head's driver frames come back"
        );
    }

    #[test]
    fn restore_chain_rejects_corruption_and_bad_linkage() {
        let make = || Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        let mut a = make();
        submit_n(&mut a, "mapreduce", 3, 2000);
        a.run_until(SimTime(5_000_000_000));
        let base = a.checkpoint_base(1, &[]);
        a.run_until(SimTime(8_000_000_000));
        let delta = a.checkpoint_delta(2, 1, &[]);

        // A flipped byte anywhere in either container must be caught.
        for (i, source) in [&base, &delta].into_iter().enumerate() {
            let mut bad = source.clone();
            let at = bad.len() / 2;
            bad[at] ^= 0x10;
            let chain = if i == 0 {
                vec![bad, delta.clone()]
            } else {
                vec![base.clone(), bad]
            };
            assert!(make().restore_chain(&chain).is_err(), "corrupt container {i} accepted");
        }
        // A delta cannot head a chain, and linkage must be contiguous.
        assert!(make().restore_chain(std::slice::from_ref(&delta)).is_err());
        assert!(make().restore_chain(&[delta.clone(), delta.clone()]).is_err());
        assert!(make().restore_chain(&[]).is_err());
        // The happy path still works after all the rejected attempts.
        make().restore_chain(&[base, delta]).expect("valid chain");
    }

    /// A warm two-function platform, frozen between requests.
    fn warm(mode: GcMode) -> Platform {
        let mut p = Platform::new(small_config(), workloads::catalog(), mode, None);
        submit_n(&mut p, "mapreduce", 3, 2000);
        submit_n(&mut p, "file-hash", 2, 2500);
        p.run_until(SimTime(20_000_000_000));
        p
    }

    /// `base` re-sealed without the `nth` frame of kind `kind`.
    fn drop_frame(base: &[u8], kind: u32, nth: usize) -> Vec<u8> {
        let c = Container::open(base).expect("base opens");
        let mut cw = ContainerWriter::new();
        let mut seen = 0;
        for (k, payload) in &c.frames {
            if *k == kind {
                seen += 1;
                if seen == nth + 1 {
                    continue;
                }
            }
            cw.frame(*k, payload);
        }
        assert!(seen > nth, "base has only {seen} frames of kind {kind}");
        cw.commit(c.epoch, c.parent)
    }

    /// `restore_chain(chain)` on a warm target must fail with an error
    /// naming `why`, and leave the target's state untouched.
    fn assert_chain_rejected(chain: &[Vec<u8>], why: &str) {
        let mut target = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        submit_n(&mut target, "sort", 2, 1500);
        target.run_until(SimTime(20_000_000_000));
        let before = target.checkpoint();
        let err = target.restore_chain(chain).expect_err("chain must be rejected");
        assert!(err.to_string().contains(why), "expected `{why}`, got: {err}");
        assert_eq!(target.checkpoint(), before, "failed restore_chain mutated the target");
    }

    /// The `PROC`/`PROC_DELTA` pid or `SLOT` instance id each frame of
    /// kind `kind` in `bytes` leads with, mapped to its payload.
    fn keyed_frames(bytes: &[u8], kind: u32) -> BTreeMap<u64, Vec<u8>> {
        let c = Container::open(bytes).expect("container opens");
        c.frames
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, payload)| {
                let mut r = Reader::new(payload);
                let key = if kind == Platform::FRAME_SLOT {
                    InstanceId::restore(&mut r).expect("slot id").0
                } else {
                    u64::from(Pid::restore(&mut r).expect("pid").0)
                };
                (key, payload.to_vec())
            })
            .collect()
    }

    #[test]
    fn delta_carries_only_what_changed_since_the_last_cut() {
        let mut p = warm(GcMode::Vanilla);
        let before = p.checkpoint_base(1, &[]);

        // Nothing ran since the cut: only the always-full frames.
        let empty = p.checkpoint_delta(2, 1, &[]);
        let kinds: Vec<u32> = Container::open(&empty)
            .expect("delta opens")
            .frames
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(kinds, [Platform::FRAME_META, Platform::FRAME_CONTROL]);

        // One warm request to one of the two frozen functions.
        let at = SimTime(p.now().0 + 1_000_000_000);
        p.submit(at, p.function_index("file-hash").expect("file-hash"));
        p.run_until(SimTime(at.0 + 10_000_000_000));
        let delta = p.checkpoint_delta(3, 2, &[]);
        let after = p.checkpoint_base(4, &[]);

        // The delta upserts exactly the spaces and slots whose bytes
        // the request changed, and no others.
        let changed = |kind: u32| -> Vec<u64> {
            let old = keyed_frames(&before, kind);
            keyed_frames(&after, kind)
                .into_iter()
                .filter(|(key, bytes)| old.get(key) != Some(bytes))
                .map(|(key, _)| key)
                .collect()
        };
        let proc_delta: Vec<u64> =
            keyed_frames(&delta, Platform::FRAME_PROC_DELTA).into_keys().collect();
        let slots: Vec<u64> = keyed_frames(&delta, Platform::FRAME_SLOT).into_keys().collect();
        assert_eq!(proc_delta, changed(Platform::FRAME_PROC), "PROC_DELTA pids");
        assert_eq!(slots, changed(Platform::FRAME_SLOT), "SLOT ids");
        assert!(!slots.is_empty() && !proc_delta.is_empty(), "the request touched an instance");
        assert!(
            slots.len() < keyed_frames(&after, Platform::FRAME_SLOT).len(),
            "the other function's instances stayed out of the delta"
        );
    }

    #[test]
    fn restore_chain_rejects_other_gc_mode() {
        let base = warm(GcMode::Eager).checkpoint_base(1, &[]);
        assert_chain_rejected(&[base], "fingerprint");
    }

    #[test]
    fn restore_chain_rejects_missing_process() {
        let base = warm(GcMode::Vanilla).checkpoint_base(1, &[]);
        // The first process holds shared-library pages clean, so the
        // page cache's mapper counts no longer match the spaces.
        let bad = drop_frame(&base, Platform::FRAME_PROC, 0);
        assert_chain_rejected(&[bad], "mapper count");
    }

    #[test]
    fn restore_chain_rejects_missing_slot() {
        let base = warm(GcMode::Vanilla).checkpoint_base(1, &[]);
        let bad = drop_frame(&base, Platform::FRAME_SLOT, 0);
        assert_chain_rejected(&[bad], "cache charge does not sum");
    }
}
