//! The managed-heap contract: the paper's §7 requirements as one trait.
//!
//! §7 argues that Desiccant fits any runtime that can (1) report what a
//! reclamation kept and cost — live bytes and time, the inputs to the
//! §4.5.2 throughput estimate — and (2) find and release its free
//! regions. [`ManagedHeap`] states exactly that: every heap model
//! implements the accessors and the two hooks
//! [`ManagedHeap::collect_full`] and [`ManagedHeap::release_free`], and
//! [`ManagedHeap::reclaim`] is written once on top of them.

use simos::{SimDuration, SimOsError, SimTime, System};

use crate::object::{HeapGraph, ObjectId, ObjectKind};
use crate::stats::GcCounters;

/// Heap-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The live set cannot fit in the heap's limit or reservation.
    OutOfMemory { requested: u64 },
    /// An OS-level operation failed (indicates a model bug).
    Os(SimOsError),
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "heap out of memory: requested {requested} bytes")
            }
            HeapError::Os(e) => write!(f, "os error: {e}"),
        }
    }
}

impl std::error::Error for HeapError {}

impl From<SimOsError> for HeapError {
    fn from(e: SimOsError) -> HeapError {
        HeapError::Os(e)
    }
}

/// What one [`ManagedHeap::reclaim`] achieved: the §4.4 profile a
/// runtime sends back to the platform.
#[derive(Debug, Clone, Copy)]
pub struct ReclaimOutcome {
    /// Bytes of physical memory returned to the OS.
    pub released_bytes: u64,
    /// Live bytes measured by the collection that ran.
    pub live_bytes: u64,
    /// Simulated wall time the reclamation took.
    pub wall_time: SimDuration,
}

/// A managed heap bound to one simulated process.
pub trait ManagedHeap {
    /// The object graph (for building references and roots).
    fn graph(&self) -> &HeapGraph;

    /// Mutable object graph.
    fn graph_mut(&mut self) -> &mut HeapGraph;

    /// Allocates an object. May run the heap's own collections.
    fn alloc(
        &mut self,
        sys: &mut System,
        size: u32,
        kind: ObjectKind,
    ) -> Result<ObjectId, HeapError>;

    /// Bytes the heap has committed (mapped for use).
    fn committed(&self) -> u64;

    /// Resident bytes inside the heap (the platform's `pmap`-or-
    /// internal-counters probe of §4.5.2).
    fn resident_heap_bytes(&self, sys: &System) -> u64;

    /// Live bytes found by the most recent collection.
    fn last_live_bytes(&self) -> u64;

    /// Cumulative collector statistics.
    fn counters(&self) -> &GcCounters;

    /// Latency accrued since the last [`ManagedHeap::take_elapsed`]:
    /// allocation faults, GC pauses and release costs.
    fn pending_mut(&mut self) -> &mut SimDuration;

    /// Drains the accrued latency.
    fn take_elapsed(&mut self) -> SimDuration {
        std::mem::take(self.pending_mut())
    }

    /// Advances the heap's notion of mutator time. Only heaps whose
    /// policies read the clock override it.
    fn set_now(&mut self, now: SimTime) {
        let _ = now;
    }

    /// §7 requirement (1): a collection of the whole heap that leaves
    /// [`ManagedHeap::last_live_bytes`] exact. `keep_weak` keeps weakly
    /// referenced objects alive (§4.7) where the heap distinguishes them.
    fn collect_full(&mut self, sys: &mut System, keep_weak: bool) -> Result<(), HeapError>;

    /// §7 requirement (2): releases every free region to the OS,
    /// charges the release cost, and returns the bytes released.
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError>;

    /// The Desiccant `reclaim` interface (Algorithm 1): a full
    /// collection, then the release of every free region.
    fn reclaim(&mut self, sys: &mut System, keep_weak: bool) -> Result<ReclaimOutcome, HeapError> {
        let pending_before = *self.pending_mut();
        self.collect_full(sys, keep_weak)?;
        let released_bytes = self.release_free(sys)?;
        Ok(ReclaimOutcome {
            released_bytes,
            live_bytes: self.last_live_bytes(),
            wall_time: self.pending_mut().saturating_sub(pending_before),
        })
    }
}
