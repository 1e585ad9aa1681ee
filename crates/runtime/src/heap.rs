//! A uniform façade over the two platform heap models.
//!
//! The FaaS platform and Desiccant must not care which language an
//! instance runs — the paper's reclaim API is deliberately narrow so
//! that supporting a runtime costs tens of lines (§4.4). That narrow
//! interface is [`gc_core::ManagedHeap`]; this enum delegates to it
//! for the two languages a platform instance can run.

use gc_core::object::{HeapGraph, ObjectId, ObjectKind};
use gc_core::stats::GcCounters;
use gc_core::{HeapError, ManagedHeap, ReclaimOutcome};
use hotspot::{HotSpotConfig, HotSpotHeap};
use simos::{Pid, SimDuration, SimTime, System};
use v8heap::{V8Config, V8Heap};

use crate::image::Language;

/// A managed heap of either language.
#[derive(Debug, Clone)]
pub enum RuntimeHeap {
    /// HotSpot serial-GC heap (Java).
    HotSpot(HotSpotHeap),
    /// V8 heap (JavaScript).
    V8(V8Heap),
}

/// Evaluates `$body` with `$h` bound to the heap inside `$heap`, by
/// static dispatch: `alloc` runs once per object.
macro_rules! each_heap {
    ($heap:expr, $h:ident => $body:expr) => {
        match $heap {
            RuntimeHeap::HotSpot($h) => $body,
            RuntimeHeap::V8($h) => $body,
        }
    };
}

impl RuntimeHeap {
    /// Creates the heap appropriate for `language` in process `pid`,
    /// sized for an instance memory budget of `budget` bytes.
    pub fn for_language(
        sys: &mut System,
        pid: Pid,
        language: Language,
        budget: u64,
    ) -> Result<RuntimeHeap, HeapError> {
        Ok(match language {
            Language::Java => {
                RuntimeHeap::HotSpot(HotSpotHeap::new(sys, pid, HotSpotConfig::for_budget(budget))?)
            }
            Language::JavaScript => {
                RuntimeHeap::V8(V8Heap::new(sys, pid, V8Config::for_budget(budget))?)
            }
        })
    }

    /// The object graph.
    pub fn graph(&self) -> &HeapGraph {
        each_heap!(self, h => h.graph())
    }

    /// Mutable object graph.
    pub fn graph_mut(&mut self) -> &mut HeapGraph {
        each_heap!(self, h => h.graph_mut())
    }

    /// Allocates an object.
    pub fn alloc(&mut self, sys: &mut System, size: u32, kind: ObjectKind) -> Result<ObjectId, HeapError> {
        each_heap!(self, h => h.alloc(sys, size, kind))
    }

    /// Advances the heap's mutator clock (drives V8's allocation-rate
    /// estimate; a no-op for HotSpot).
    pub fn set_now(&mut self, now: SimTime) {
        each_heap!(self, h => h.set_now(now))
    }

    /// The *eager baseline*'s GC call at function exit: `System.gc()`
    /// for HotSpot, the aggressive `global.gc()` for V8 (stock
    /// interfaces only, §3.2).
    pub fn eager_gc(&mut self, sys: &mut System) -> Result<(), HeapError> {
        match self {
            RuntimeHeap::HotSpot(h) => h.system_gc(sys),
            RuntimeHeap::V8(h) => h.global_gc(sys),
        }
    }

    /// The Desiccant `reclaim` interface. `keep_weak` selects the §4.7
    /// non-aggressive mode (meaningful for V8; HotSpot's serial full GC
    /// does not clear JIT code either way in this model).
    pub fn reclaim(&mut self, sys: &mut System, keep_weak: bool) -> Result<ReclaimOutcome, HeapError> {
        each_heap!(self, h => h.reclaim(sys, keep_weak))
    }

    /// Live bytes *right now*, computed by a fresh marking pass over
    /// the persistent roots (handle scopes are closed at freeze
    /// points). This is the oracle measurement behind the §3.1 ideal
    /// baseline, not something a production runtime exposes cheaply.
    pub fn current_live_bytes(&self) -> u64 {
        gc_core::trace::mark(self.graph(), false, true).live_bytes
    }

    /// Live bytes found by the most recent collection.
    pub fn last_live_bytes(&self) -> u64 {
        each_heap!(self, h => h.last_live_bytes())
    }

    /// Committed heap bytes.
    pub fn committed(&self) -> u64 {
        each_heap!(self, h => h.committed())
    }

    /// Resident bytes inside the heap (the platform's `pmap`-or-
    /// internal-counters probe of §4.5.2: HotSpot reports its
    /// contiguous reservation, V8 its chunks' internal counters).
    pub fn resident_heap_bytes(&self, sys: &System) -> u64 {
        each_heap!(self, h => h.resident_heap_bytes(sys))
    }

    /// Cumulative GC statistics.
    pub fn counters(&self) -> &GcCounters {
        each_heap!(self, h => h.counters())
    }

    /// Drains accrued heap latency (GC pauses + fault costs).
    pub fn take_elapsed(&mut self) -> SimDuration {
        each_heap!(self, h => h.take_elapsed())
    }

    /// Drains code bytes lost to aggressive collections (V8 only).
    pub fn take_deopt_code_bytes(&mut self) -> u64 {
        match self {
            RuntimeHeap::HotSpot(_) => 0,
            RuntimeHeap::V8(h) => h.take_deopt_code_bytes(),
        }
    }
}

snapshot::record!(enum RuntimeHeap { 0 => HotSpot(heap: HotSpotHeap), 1 => V8(heap: V8Heap) });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_dispatches_both_languages() {
        for lang in [Language::Java, Language::JavaScript] {
            let mut sys = System::new();
            let pid = sys.spawn_process();
            let mut heap = RuntimeHeap::for_language(&mut sys, pid, lang, 256 << 20).unwrap();
            let scope = heap.graph_mut().push_handle_scope();
            let id = heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(id);
            heap.graph_mut().pop_handle_scope(scope);
            let report = heap.reclaim(&mut sys, true).unwrap();
            assert!(report.released_bytes > 0);
            assert_eq!(report.live_bytes, 0);
            assert!(heap.take_elapsed() > SimDuration::ZERO);
        }
    }

    #[test]
    fn runtime_heap_wire_tags_are_pinned() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        for (lang, tag) in [(Language::Java, 0u8), (Language::JavaScript, 1)] {
            let heap = RuntimeHeap::for_language(&mut sys, pid, lang, 256 << 20).unwrap();
            let inner = each_heap!(&heap, h => snapshot::encode(h));
            let bytes = snapshot::encode(&heap);
            assert_eq!(bytes, [&[tag][..], &inner].concat());
            let back: RuntimeHeap = snapshot::decode(&bytes).unwrap();
            assert_eq!(snapshot::encode(&back), bytes);
        }
    }
}
