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
    check_pools, Breaker, BreakerState, Event, ExtraFrames, FailReason, FrozenFnSummary, GcMode,
    InstanceId, Outcome, PendingStage, Platform, Request, Slot, Status,
};
use crate::config::EnvFlavor;
use crate::error::PlatformResult;
use crate::fault::FaultInjector;
use crate::queue::EventQueue;
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
        Slot::snap_seq(self.slots.values(), &mut w);
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
        let mut slots = BTreeMap::new();
        for slot in slot_rows {
            if slots.last_key_value().is_some_and(|(&last, _)| last >= slot.id) {
                return Err(SnapError::Corrupt("instance table not id-sorted").into());
            }
            slots.insert(slot.id, slot);
        }
        self.validate_and_commit(fp, sys, slots, r)
    }

    /// The one restore step both paths share: checks the fingerprint,
    /// decodes the [`Platform::snap_tail`] section from `tail` (which
    /// must hold nothing more), cross-checks it against `sys` and the
    /// instance table `slots`, and only then replaces this platform's
    /// state. On any error the platform is untouched.
    fn validate_and_commit(
        &mut self,
        fp: u64,
        sys: System,
        slots: BTreeMap<InstanceId, Slot>,
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
        for slot in slots.values() {
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
        check_pools(&pools, &slots)?;
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
            for s in p.slots.values() {
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
    /// The fold builds the sections a restore commits. Address spaces
    /// are keyed by pid: `PROC` frames occur only in the base, so no
    /// later full frame replaces one, and each is decoded once;
    /// `PROC_DELTA` frames apply in place and tombstones erase.
    /// Instance slots are keyed by the id their `SLOT` payload leads
    /// with, read as a prefix: a later frame for the same id replaces
    /// the raw payload, tombstones drop it, and only the survivors are
    /// decoded, once each, in id order. A superseded `SLOT` frame is
    /// therefore checked by its container's CRC but never decoded. The
    /// newest `CONTROL` frame gives the file registry, pid cursor and
    /// tail. `System::from_parts` rebuilds the OS with its page-cache
    /// coherence check, and the same validate-and-commit step as
    /// [`Platform::restore`] runs every other cross-check (fingerprint,
    /// charge sums, pool coherence, event/request bounds, manager
    /// state) before anything changes.
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
        let mut slot_frames: BTreeMap<InstanceId, &[u8]> = BTreeMap::new();
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
                        // `Slot`'s codec writes its id first.
                        slot_frames.insert(InstanceId::restore(&mut r)?, payload);
                        continue;
                    }
                    Self::FRAME_SLOT_TOMB => {
                        for id in Vec::<InstanceId>::restore(&mut r)? {
                            slot_frames.remove(&id);
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
        let slots = slot_frames
            .into_iter()
            .map(|(id, payload)| {
                let slot: Slot = snapshot::decode(payload)?;
                if slot.id != id {
                    return Err(SnapError::Corrupt("SLOT frame id differs from its key").into());
                }
                Ok((id, slot))
            })
            .collect::<PlatformResult<BTreeMap<InstanceId, Slot>>>()?;
        let fp = fingerprint.ok_or(SnapError::Corrupt("chain carries no fingerprint frame"))?;
        let control = control.ok_or(SnapError::Corrupt("chain carries no control frame"))?;
        let mut cr = Reader::new(control);
        let files: FileRegistry = snapshot::decode(cr.blob()?)?;
        let next_pid = cr.u32()?;
        let tail = cr.blob()?;
        cr.finish()?;
        let sys = System::from_parts(files, spaces, next_pid)?;
        self.validate_and_commit(fp, sys, slots, Reader::new(tail))?;
        let head_epoch = containers.last().map_or(0, |c| c.epoch);
        Ok((head_epoch, extra))
    }
}

mod snap_impls {
    use super::*;

    snapshot::record!(InstanceId(u64));

    snapshot::record!(enum Status {
        0 => Starting,
        1 => Running,
        2 => GcAfterExit,
        3 => Reclaiming,
        4 => Frozen,
    });

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

    snapshot::record!(enum FailReason {
        0 => BootFailure,
        1 => Crash,
        2 => HeapExhausted,
        3 => BreakerOpen,
        4 => DeadlineExceeded,
        5 => TooLargeForCache,
    });

    snapshot::record!(enum Outcome { 0 => Pending, 1 => Completed, 2 => Failed(why: FailReason) });

    snapshot::record!(Request {
        fn_idx: usize,
        arrival: SimTime,
        attempts: u32,
        outcome: Outcome,
    });

    snapshot::record!(enum Event {
        0 => Arrival { req: usize },
        1 => BootDone { id: InstanceId, req: usize },
        2 => BootFailed { id: InstanceId, req: usize },
        3 => StageDone { id: InstanceId, req: usize },
        4 => Crash { id: InstanceId, req: usize },
        5 => GcDone { id: InstanceId },
        6 => ReclaimDone { id: InstanceId, cpus: f64, ok: bool },
        7 => Retry { req: usize, stage: u8 },
        8 => Sweep,
    });

    snapshot::record!(PendingStage { req: usize, stage: u8 });

    snapshot::record!(enum BreakerState { 0 => Closed, 1 => Open(until: SimTime), 2 => HalfOpen });

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

    /// `bytes` re-sealed with the payload of the `SLOT` frame keyed
    /// `id` replaced by `payload`.
    fn with_slot_payload(bytes: &[u8], id: u64, payload: &[u8]) -> Vec<u8> {
        let c = Container::open(bytes).expect("container opens");
        let mut cw = ContainerWriter::new();
        let mut replaced = false;
        for (k, frame) in &c.frames {
            let keyed = *k == Platform::FRAME_SLOT
                && InstanceId::restore(&mut Reader::new(frame)).expect("slot id").0 == id;
            replaced |= keyed;
            cw.frame(*k, if keyed { payload } else { frame });
        }
        assert!(replaced, "no SLOT frame keyed {id}");
        cw.commit(c.epoch, c.parent)
    }

    /// A superseded `SLOT` frame is keyed but never decoded: garbage
    /// behind its id restores, while the same garbage in the frame
    /// that survives the fold is rejected.
    #[test]
    fn restore_chain_decodes_only_surviving_slots() {
        let mut a = warm(GcMode::Vanilla);
        let base = a.checkpoint_base(1, &[]);
        let at = SimTime(a.now().0 + 1_000_000_000);
        a.submit(at, a.function_index("file-hash").expect("file-hash"));
        a.run_until(SimTime(at.0 + 10_000_000_000));
        let full = a.checkpoint();
        let delta = a.checkpoint_delta(2, 1, &[]);
        let base_ids = keyed_frames(&base, Platform::FRAME_SLOT);
        let id = keyed_frames(&delta, Platform::FRAME_SLOT)
            .into_keys()
            .find(|id| base_ids.contains_key(id))
            .expect("the delta supersedes a base slot");
        // The id, then a truncated `fn_idx`.
        let mut garbage = id.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xEE; 3]);

        let bad_base = with_slot_payload(&base, id, &garbage);
        let mut b = Platform::new(small_config(), workloads::catalog(), GcMode::Vanilla, None);
        b.restore_chain(&[bad_base, delta.clone()]).expect("a superseded frame is not decoded");
        assert_eq!(b.checkpoint(), full);

        let bad_delta = with_slot_payload(&delta, id, &garbage);
        assert_chain_rejected(&[base, bad_delta], "truncated");
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

    /// `v` encodes to exactly `bytes`, and `bytes` decode to a value
    /// that encodes to them again.
    fn pin<T: Snapshot>(v: T, bytes: &[u8]) {
        assert_eq!(snapshot::encode(&v), bytes);
        let back: T = snapshot::decode(bytes).expect("pinned bytes decode");
        assert_eq!(snapshot::encode(&back), bytes);
    }

    #[test]
    fn enum_wire_tags_are_pinned() {
        let u64s = |tag: u8, words: &[u64]| {
            let mut out = vec![tag];
            for w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out
        };
        use Status::*;
        for (tag, v) in [Starting, Running, GcAfterExit, Reclaiming, Frozen].into_iter().zip(0u8..) {
            pin(tag, &[v]);
        }
        use FailReason::*;
        let reasons =
            [BootFailure, Crash, HeapExhausted, BreakerOpen, DeadlineExceeded, TooLargeForCache];
        for (why, v) in reasons.into_iter().zip(0u8..) {
            pin(why, &[v]);
            pin(Outcome::Failed(why), &[2, v]);
        }
        pin(Outcome::Pending, &[0]);
        pin(Outcome::Completed, &[1]);

        let id = InstanceId(0x0102_0304_0506_0708);
        pin(Event::Arrival { req: 7 }, &u64s(0, &[7]));
        pin(Event::BootDone { id, req: 9 }, &u64s(1, &[id.0, 9]));
        pin(Event::BootFailed { id, req: 10 }, &u64s(2, &[id.0, 10]));
        pin(Event::StageDone { id, req: 11 }, &u64s(3, &[id.0, 11]));
        pin(Event::Crash { id, req: 12 }, &u64s(4, &[id.0, 12]));
        pin(Event::GcDone { id }, &u64s(5, &[id.0]));
        let mut reclaim = u64s(6, &[id.0, 1.5f64.to_bits()]);
        reclaim.push(1);
        pin(Event::ReclaimDone { id, cpus: 1.5, ok: true }, &reclaim);
        let mut retry = u64s(7, &[13]);
        retry.push(2);
        pin(Event::Retry { req: 13, stage: 2 }, &retry);
        pin(Event::Sweep, &[8]);

        pin(BreakerState::Closed, &[0]);
        pin(BreakerState::Open(SimTime(77)), &u64s(1, &[77]));
        pin(BreakerState::HalfOpen, &[2]);
    }
}
