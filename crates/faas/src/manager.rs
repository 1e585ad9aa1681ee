//! The memory-manager hook Desiccant implements.
//!
//! The paper keeps Desiccant *non-intrusive*: it observes the
//! platform's memory accounting, is told about evictions, receives
//! per-reclamation profiles, and answers with which frozen instances to
//! reclaim (§4.2–§4.5). This trait is exactly that interface — the
//! platform neither knows nor cares how the selection works, and the
//! baselines simply run with no manager installed.

use simos::{SimDuration, SimTime};

use crate::platform::InstanceId;

/// What the platform exposes about one frozen instance.
///
/// `Copy`: when a manager is installed, every sweep tick builds one
/// view per frozen instance, so the view must not drag a heap
/// allocation per instance per sweep — the function name borrows the
/// `&'static str` from the catalog's `FunctionSpec` instead of
/// cloning it.
#[derive(Debug, Clone, Copy)]
pub struct FrozenView {
    /// Platform-level identifier.
    pub id: InstanceId,
    /// Function name (instances of the same function share memory
    /// behaviour, §4.5.2).
    pub function: &'static str,
    /// Chain stage this instance runs.
    pub stage: u8,
    /// When the instance was frozen.
    pub frozen_since: SimTime,
    /// In-heap memory consumption (the `pmap`-or-counters probe of
    /// §4.5.2) in bytes, as of the instance's last entry into the frozen
    /// state. The platform probes each frozen heap once per freeze, on
    /// the first sweep that sees it, and reuses the value until the
    /// instance leaves the frozen state. The value is exact: only a
    /// thaw or a reclamation touches a frozen heap, and both take the
    /// instance out of the frozen set first.
    pub heap_resident: u64,
    /// Current USS charge against the cache.
    pub charge: u64,
    /// Whether the instance has been reclaimed since it last ran.
    pub reclaimed: bool,
}

/// The §4.4 profile, extended by the platform with CPU time.
#[derive(Debug, Clone, Copy)]
pub struct ReclaimProfile {
    /// In-heap live bytes the runtime reported.
    pub live_bytes: u64,
    /// Bytes released to the OS.
    pub released_bytes: u64,
    /// Accumulated CPU time of the reclamation (wall × CPUs, the §4.5.2
    /// cgroup computation).
    pub cpu_time: SimDuration,
}

/// A freeze-aware memory manager (Desiccant, or an ablation variant).
///
/// `Send`: the cluster layer parks each shard's platform — manager
/// included — behind a `Mutex` and advances shards on scoped worker
/// threads, so a manager must be movable across threads. Managers are
/// plain data (profiles, thresholds, counters); none holds
/// thread-affine state.
pub trait MemoryManager: Send {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Called on every sweep tick (the platform's `sweep_interval`),
    /// with one view per frozen instance in ascending id order. Returns
    /// the frozen instances to reclaim now, best first. The platform
    /// reclaims them with idle CPU.
    fn select_reclaims(
        &mut self,
        now: SimTime,
        cache_budget: u64,
        cache_used: u64,
        frozen: &[FrozenView],
    ) -> Vec<InstanceId>;

    /// Called when the platform evicts (destroys) an instance to make
    /// space — the signal that lowers Desiccant's activation threshold
    /// (§4.5.1).
    fn note_eviction(&mut self, now: SimTime, function: &str);

    /// Called when an instance is destroyed for any reason; profiles
    /// for it should be dropped (§4.5.2).
    fn note_destroyed(&mut self, id: InstanceId);

    /// Called after a reclamation completes, with the combined profile.
    fn note_reclaimed(&mut self, now: SimTime, id: InstanceId, function: &str, profile: ReclaimProfile);

    /// Called when a reclamation *fails* (runtime wedged, probe
    /// timeout, or an injected fault): CPU was burned but nothing was
    /// released. Managers should deprioritize the instance so the
    /// platform's LRU eviction handles the pressure instead of
    /// retrying a broken reclaim. Default: ignore.
    fn note_reclaim_failed(&mut self, now: SimTime, id: InstanceId, function: &str) {
        let _ = (now, id, function);
    }

    /// Whether reclamation GCs should preserve weakly referenced
    /// objects (§4.7). Desiccant: yes.
    fn keep_weak(&self) -> bool {
        true
    }

    /// Whether to apply the §4.6 private-library unmap optimization.
    fn unmap_libs(&self) -> bool {
        false
    }

    /// Serializes the manager's mutable state for a platform
    /// checkpoint. Stateless managers (the default) return an empty
    /// blob; stateful ones must round-trip everything
    /// [`MemoryManager::restore_state`] needs to resume identically.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`MemoryManager::snapshot_state`]
    /// into an identically-configured manager. The default accepts only
    /// the empty blob a stateless manager produced.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), snapshot::SnapError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(snapshot::SnapError::mismatch(
                "manager state blob",
                "empty (this manager keeps no state)",
                format!("{} bytes", bytes.len()),
            ))
        }
    }
}
