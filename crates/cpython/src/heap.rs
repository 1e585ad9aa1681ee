//! The CPython object lifecycle: refcounting, the cycle collector, and
//! the Desiccant reclaim.

use std::collections::VecDeque;

use gc_core::object::{HeapGraph, ObjectId, ObjectKind};
use gc_core::stats::{GcCostModel, GcCounters, GcKind};
use gc_core::trace::mark;
use gc_core::{HeapError, ManagedHeap};
use simos::cost::CostModel;
use simos::{Pid, SimDuration, System, VirtAddr};

use crate::arena::ArenaAllocator;

/// Configuration of a [`CPythonHeap`].
#[derive(Debug, Clone, Copy)]
pub struct CPythonConfig {
    /// Upper bound on mapped memory.
    pub max_heap: u64,
    /// Allocations since the last cycle collection that trigger the
    /// next one (models `gc.set_threshold`'s generation-0 counter, at
    /// object granularity).
    pub gc_allocation_threshold: u64,
}

impl Default for CPythonConfig {
    fn default() -> CPythonConfig {
        CPythonConfig {
            max_heap: 192 << 20,
            gc_allocation_threshold: 700,
        }
    }
}

/// A CPython heap bound to one simulated process.
#[derive(Debug, Clone)]
pub struct CPythonHeap {
    pid: Pid,
    config: CPythonConfig,
    graph: HeapGraph,
    allocator: ArenaAllocator,
    counters: GcCounters,
    gc_cost: GcCostModel,
    os_cost: CostModel,
    pending: SimDuration,
    last_live_bytes: u64,
    allocs_since_gc: u64,
}

impl CPythonHeap {
    /// Creates an empty heap in process `pid`.
    pub fn new(sys: &mut System, pid: Pid, config: CPythonConfig) -> Result<CPythonHeap, simos::SimOsError> {
        let _ = sys;
        Ok(CPythonHeap {
            pid,
            config,
            graph: HeapGraph::new(),
            allocator: ArenaAllocator::new(),
            counters: GcCounters::default(),
            gc_cost: GcCostModel::default(),
            os_cost: CostModel::default(),
            pending: SimDuration::ZERO,
            last_live_bytes: 0,
            allocs_since_gc: 0,
        })
    }

    /// Allocator counters.
    pub fn allocator(&self) -> &ArenaAllocator {
        &self.allocator
    }

    /// The refcounting pass: frees every dead object *not* on (or
    /// reachable from) a reference cycle, exactly the set CPython's
    /// refcounts free at `Py_DECREF` time. Runs at invocation exit in
    /// the drivers.
    ///
    /// Implementation: Kahn's cascade over the dead subgraph — an
    /// object's refcount is its in-degree among not-yet-freed objects,
    /// so repeatedly freeing zero-in-degree dead objects reproduces the
    /// cascade of `Py_DECREF`s; whatever survives is cyclic garbage
    /// awaiting the cycle collector.
    pub fn refcount_pass(&mut self, sys: &mut System) -> Result<u64, simos::SimOsError> {
        let live = mark(&self.graph, true, true);
        let cap = self.graph.slot_capacity();
        // In-degree of each dead object from other dead objects.
        let mut indeg = vec![0u32; cap];
        for (id, obj) in self.graph.iter() {
            if live.is_live(id) {
                continue;
            }
            for r in obj.refs() {
                if !live.is_live(*r) {
                    indeg[r.index()] += 1;
                }
            }
        }
        let mut queue: VecDeque<ObjectId> = self
            .graph
            .iter()
            .filter(|(id, _)| !live.is_live(*id) && indeg[id.index()] == 0)
            .map(|(id, _)| id)
            .collect();
        let mut freed_ids = Vec::new();
        let mut freed_flag = vec![false; cap];
        while let Some(id) = queue.pop_front() {
            freed_flag[id.index()] = true;
            freed_ids.push(id);
            for &r in self.graph.get(id).refs() {
                if live.is_live(r) || freed_flag[r.index()] {
                    continue;
                }
                indeg[r.index()] -= 1;
                if indeg[r.index()] == 0 {
                    queue.push_back(r);
                }
            }
        }
        // Return memory, then drop the slots: everything NOT freed
        // stays (live objects and cyclic garbage).
        let mut freed_bytes = 0;
        for &id in &freed_ids {
            let obj = self.graph.get(id);
            let (addr, size) = (VirtAddr(obj.addr), obj.size);
            self.allocator.free(sys, self.pid, addr, size)?;
            freed_bytes += u64::from(size);
        }
        let mut keep = vec![true; cap];
        for &id in &freed_ids {
            keep[id.index()] = false;
        }
        self.graph.sweep(&keep);
        self.last_live_bytes = live.live_bytes;
        Ok(freed_bytes)
    }

    /// The cycle collector (`gc.collect()`): frees *all* dead objects,
    /// cyclic or not.
    pub fn cycle_collect(&mut self, sys: &mut System) -> Result<u64, simos::SimOsError> {
        let live = mark(&self.graph, true, true);
        self.last_live_bytes = live.live_bytes;
        let dead: Vec<(ObjectId, u64, u32)> = self
            .graph
            .iter()
            .filter(|(id, _)| !live.is_live(*id))
            .map(|(id, o)| (id, o.addr, o.size))
            .collect();
        let mut freed_bytes = 0;
        for &(_, addr, size) in &dead {
            self.allocator.free(sys, self.pid, VirtAddr(addr), size)?;
            freed_bytes += u64::from(size);
        }
        self.graph.sweep(&live.marks);
        let pause = self.gc_cost.full_pause(live.live_objects, 0);
        self.pending += pause;
        self.counters.record(GcKind::Full, 0, 0, freed_bytes, pause);
        self.allocs_since_gc = 0;
        Ok(freed_bytes)
    }
}

impl ManagedHeap for CPythonHeap {
    fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut HeapGraph {
        &mut self.graph
    }

    /// Allocates an object of `size` bytes.
    fn alloc(&mut self, sys: &mut System, size: u32, kind: ObjectKind) -> Result<ObjectId, HeapError> {
        if self.committed() + u64::from(size) > self.config.max_heap {
            // Like CPython under memory pressure: collect cycles, then
            // retry; a real MemoryError is out of model scope because
            // the drivers are calibrated to fit.
            self.cycle_collect(sys)?;
        }
        // The threshold collection runs *before* the new allocation so
        // the fresh (not yet rooted) object cannot be swept by its own
        // allocating call.
        self.allocs_since_gc += 1;
        if self.allocs_since_gc >= self.config.gc_allocation_threshold {
            self.cycle_collect(sys)?;
        }
        let addr = self.allocator.alloc(sys, self.pid, size)?;
        self.pending += self.os_cost.zero_fill_fault; // rough touch charge
        let id = self.graph.alloc(size, kind);
        self.graph.set_addr(id, addr.0);
        Ok(id)
    }

    /// Mapped bytes.
    fn committed(&self) -> u64 {
        self.allocator.committed()
    }

    fn resident_heap_bytes(&self, sys: &System) -> u64 {
        self.allocator.resident_bytes(sys, self.pid)
    }

    /// Live bytes found by the most recent collection pass.
    fn last_live_bytes(&self) -> u64 {
        self.last_live_bytes
    }

    fn counters(&self) -> &GcCounters {
        &self.counters
    }

    fn pending_mut(&mut self) -> &mut SimDuration {
        &mut self.pending
    }

    /// The cycle collector; CPython has no weak-preserving mode to pick.
    fn collect_full(&mut self, sys: &mut System, _keep_weak: bool) -> Result<(), HeapError> {
        self.cycle_collect(sys)?;
        Ok(())
    }

    /// Releases every whole-free page inside partially-used arenas (the
    /// free lists tell the manager which regions are free; stock
    /// CPython would keep them resident).
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        let released = self.allocator.release_free_pages(sys, self.pid)?;
        self.pending += self.os_cost.release_cost(released);
        Ok(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (System, CPythonHeap) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let heap = CPythonHeap::new(&mut sys, pid, CPythonConfig::default()).unwrap();
        (sys, heap)
    }

    #[test]
    fn refcounting_frees_acyclic_garbage_immediately() {
        let (mut sys, mut heap) = world();
        let scope = heap.graph_mut().push_handle_scope();
        let a = heap.alloc(&mut sys, 256, ObjectKind::Data).unwrap();
        let b = heap.alloc(&mut sys, 256, ObjectKind::Data).unwrap();
        heap.graph_mut().add_ref(a, b);
        heap.graph_mut().add_handle(a);
        heap.graph_mut().pop_handle_scope(scope);
        let freed = heap.refcount_pass(&mut sys).unwrap();
        assert_eq!(freed, 512, "the chain cascades");
        assert!(!heap.graph().exists(a));
        assert!(!heap.graph().exists(b));
    }

    #[test]
    fn cycles_survive_refcounting_but_not_the_collector() {
        let (mut sys, mut heap) = world();
        let scope = heap.graph_mut().push_handle_scope();
        let a = heap.alloc(&mut sys, 256, ObjectKind::Data).unwrap();
        let b = heap.alloc(&mut sys, 256, ObjectKind::Data).unwrap();
        // A cycle, plus an acyclic object hanging off it.
        heap.graph_mut().add_ref(a, b);
        heap.graph_mut().add_ref(b, a);
        let c = heap.alloc(&mut sys, 512, ObjectKind::Data).unwrap();
        heap.graph_mut().add_ref(a, c);
        heap.graph_mut().add_handle(a);
        heap.graph_mut().pop_handle_scope(scope);
        let freed = heap.refcount_pass(&mut sys).unwrap();
        // Nothing freed: a,b cycle; c is held by the cycle.
        assert_eq!(freed, 0);
        assert!(heap.graph().exists(a) && heap.graph().exists(b) && heap.graph().exists(c));
        let freed = heap.cycle_collect(&mut sys).unwrap();
        assert_eq!(freed, 1024);
        assert!(!heap.graph().exists(a));
    }

    #[test]
    fn live_objects_survive_both_passes() {
        let (mut sys, mut heap) = world();
        let keep = heap.alloc(&mut sys, 1024, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        let dep = heap.alloc(&mut sys, 512, ObjectKind::Data).unwrap();
        heap.graph_mut().add_ref(keep, dep);
        heap.refcount_pass(&mut sys).unwrap();
        heap.cycle_collect(&mut sys).unwrap();
        assert!(heap.graph().exists(keep) && heap.graph().exists(dep));
        assert_eq!(heap.last_live_bytes(), 1536);
    }

    #[test]
    fn reclaim_releases_pinned_arena_pages() {
        let (mut sys, mut heap) = world();
        // One keeper pins the arena; hundreds of temporaries die.
        let keep = heap.alloc(&mut sys, 128, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        let scope = heap.graph_mut().push_handle_scope();
        for _ in 0..500 {
            let t = heap.alloc(&mut sys, 128, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(t);
        }
        heap.graph_mut().pop_handle_scope(scope);
        heap.refcount_pass(&mut sys).unwrap();
        // Stock: memory stays resident (arena not empty).
        let before = heap.resident_heap_bytes(&sys);
        assert!(before > simos::PAGE_SIZE, "frozen garbage is resident: {before}");
        let out = heap.reclaim(&mut sys, true).unwrap();
        assert!(out.released_bytes > 0);
        assert_eq!(out.live_bytes, 128);
        let after = heap.resident_heap_bytes(&sys);
        assert_eq!(after, simos::PAGE_SIZE, "only the keeper's pool page remains");
    }

    #[test]
    fn allocation_threshold_triggers_cycle_gc() {
        let (mut sys, mut heap) = world();
        let n = heap.config.gc_allocation_threshold + 10;
        let scope = heap.graph_mut().push_handle_scope();
        for _ in 0..n {
            // Cyclic pairs so refcounting could never free them. Root
            // each object before allocating more (the C stack holds
            // them in real CPython, and a threshold GC may run between
            // allocations).
            let a = heap.alloc(&mut sys, 64, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(a);
            let b = heap.alloc(&mut sys, 64, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(b);
            heap.graph_mut().add_ref(a, b);
            heap.graph_mut().add_ref(b, a);
        }
        heap.graph_mut().pop_handle_scope(scope);
        assert!(heap.counters().full_collections >= 1, "threshold GC ran");
    }
}
