//! The serial-GC heap: allocation, collection, resizing, reclamation.

use gc_core::object::{HeapGraph, ObjectId, ObjectKind};
use gc_core::stats::{GcCostModel, GcCounters, GcKind};
use gc_core::trace::mark;
use gc_core::{HeapError, ManagedHeap};
use simos::cast;
use simos::cost::CostModel;
use simos::mem::{page_align_up, MappingKind, Prot};
use simos::{Pid, SimDuration, System, VirtAddr};

use crate::config::HotSpotConfig;
use crate::layout::{tag, HeapLayout, SpaceId};

/// A HotSpot serial-GC heap bound to one simulated process.
#[derive(Debug, Clone)]
pub struct HotSpotHeap {
    pid: Pid,
    config: HotSpotConfig,
    layout: HeapLayout,
    graph: HeapGraph,
    /// Bump pointer inside eden (absolute address).
    eden_top: VirtAddr,
    /// Bytes used in the *from* survivor half.
    from_used: u64,
    /// Bump pointer inside the old generation (absolute address).
    old_top: VirtAddr,
    counters: GcCounters,
    gc_cost: GcCostModel,
    os_cost: CostModel,
    /// Latency accrued since the last [`ManagedHeap::take_elapsed`].
    pending: SimDuration,
    /// Live bytes found by the most recent collection.
    last_live_bytes: u64,
}

/// Object alignment, like HotSpot's 8-byte object alignment.
const OBJ_ALIGN: u64 = 8;

pub(crate) fn align_obj(n: u64) -> u64 {
    n.div_ceil(OBJ_ALIGN) * OBJ_ALIGN
}

impl HotSpotHeap {
    /// Reserves and partially commits a heap in process `pid`.
    pub fn new(sys: &mut System, pid: Pid, config: HotSpotConfig) -> Result<HotSpotHeap, HeapError> {
        config.validate();
        let base = sys.mmap_named(
            pid,
            config.max_heap,
            MappingKind::Anonymous,
            Prot::None,
            "[heap:hotspot]",
        )?;
        let layout = HeapLayout::new(base, &config);
        // Commit the initial eden, both survivor halves (fixed), and
        // the initial old generation.
        let (es, el) = layout.eden_committed_range();
        sys.mprotect(pid, es, el, Prot::ReadWrite)?;
        let (ss, sl) = layout.survivor_range();
        sys.mprotect(pid, ss, sl, Prot::ReadWrite)?;
        let (os, ol) = layout.old_committed_range();
        sys.mprotect(pid, os, ol, Prot::ReadWrite)?;
        let (eden_base, _) = layout.space_range(SpaceId::Eden);
        let old_base = layout.old_base();
        Ok(HotSpotHeap {
            pid,
            config,
            layout,
            graph: HeapGraph::new(),
            eden_top: eden_base,
            from_used: 0,
            old_top: old_base,
            counters: GcCounters::default(),
            gc_cost: GcCostModel::default(),
            os_cost: CostModel::default(),
            pending: SimDuration::ZERO,
            last_live_bytes: 0,
        })
    }

    /// The process this heap belongs to.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current geometry.
    pub fn layout(&self) -> &HeapLayout {
        &self.layout
    }

    /// The heap's reserved address range, reported to the platform so
    /// it can `pmap` the instance (§4.5.2).
    pub fn heap_range(&self) -> (VirtAddr, u64) {
        (self.layout.base, self.layout.reserved())
    }

    /// Bytes used in eden right now.
    pub fn eden_used(&self) -> u64 {
        let (eden_base, _) = self.layout.space_range(SpaceId::Eden);
        self.eden_top.0 - eden_base.0
    }

    /// Bytes used in the old generation right now.
    pub fn old_used(&self) -> u64 {
        self.old_top.0 - self.layout.old_base().0
    }

    /// Bump-allocates in the old generation, expanding or full-GCing as
    /// needed.
    ///
    /// `allow_gc` is false when called from inside a collection
    /// (promotion): a young GC must not re-enter the collector, so
    /// there an old generation that cannot expand is a plain
    /// out-of-memory error.
    fn old_alloc(&mut self, sys: &mut System, asize: u64, allow_gc: bool) -> Result<VirtAddr, HeapError> {
        for attempt in 0..2 {
            let end = self.layout.old_base().0 + self.layout.old_committed;
            if self.old_top.0 + asize <= end {
                let addr = self.old_top;
                self.old_top = VirtAddr(self.old_top.0 + asize);
                self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
                return Ok(addr);
            }
            let needed = self.old_used() + asize;
            if self.expand_old_to(sys, needed)? {
                continue;
            }
            if attempt > 0 || !allow_gc {
                break;
            }
            self.full_gc(sys, false)?;
        }
        Err(HeapError::OutOfMemory { requested: asize })
    }

    /// Expands the old generation's committed size to at least `needed`
    /// bytes used capacity. Returns false if the reservation is too
    /// small.
    fn expand_old_to(&mut self, sys: &mut System, needed: u64) -> Result<bool, HeapError> {
        let target = self.config.granule_up(needed);
        if target > self.layout.old_reserved {
            return Ok(false);
        }
        if target <= self.layout.old_committed {
            return Ok(true);
        }
        let old_base = self.layout.old_base();
        let from = page_align_up(self.layout.old_committed);
        let to = page_align_up(target);
        if to > from {
            sys.mprotect(
                self.pid,
                old_base.offset(from),
                to - from,
                Prot::ReadWrite,
            )?;
        }
        self.layout.old_committed = target;
        Ok(true)
    }

    /// Runs a young (scavenge) collection.
    ///
    /// The graph's remembered set stands in for the old generation:
    /// every old object, dead or alive, keeps its young referents alive
    /// until the next full GC, as a card-table scavenge would.
    pub fn young_gc(&mut self, sys: &mut System) -> Result<(), HeapError> {
        // Worst case every young byte promotes; make sure the old
        // generation could absorb it, otherwise run a full GC instead
        // (HotSpot's promotion-failure bail-out).
        let young_used = self.eden_used() + self.from_used;
        if self.old_used() + young_used > self.layout.old_reserved {
            return self.full_gc(sys, false);
        }
        let young = self.graph.collect_young();
        self.last_live_bytes = young.live_bytes;
        let freed = young.freed_bytes;

        let (to_base, to_len) = self.layout.space_range(SpaceId::To);
        let mut to_top = to_base;
        let mut copied = 0u64;
        let mut promoted = 0u64;
        let young_live_objects = cast::to_u64(young.survivors.len());
        for id in young.survivors {
            let obj = self.graph.get(id);
            let (size, age) = (obj.size, obj.age);
            let asize = align_obj(u64::from(size));
            let tenured = age + 1 >= self.config.tenure_threshold;
            let fits = to_top.0 + asize <= to_base.0 + to_len;
            if tenured || !fits {
                let addr = self.old_alloc(sys, asize, false)?;
                promoted += asize;
                self.graph.set_addr(id, addr.0);
                self.graph.set_space(id, tag::OLD);
            } else {
                let addr = to_top;
                to_top = VirtAddr(to_top.0 + asize);
                copied += asize;
                self.graph.set_addr(id, addr.0);
                self.graph.set_space(id, tag::SURVIVOR);
                self.graph.set_age(id, age + 1);
            }
        }
        self.pending += self.os_cost.charge_touch(sys, self.pid, to_base, to_top.0 - to_base.0)?;

        // Reset the young spaces and swap survivor roles.
        let (eden_base, _) = self.layout.space_range(SpaceId::Eden);
        self.eden_top = eden_base;
        self.layout.from_is_first = !self.layout.from_is_first;
        self.from_used = to_top.0 - to_base.0;

        let pause = self.gc_cost.pause(young_live_objects, copied + promoted);
        self.pending += pause;
        self.counters
            .record(GcKind::Young, copied, promoted, freed, pause);

        // DefNew-style eden growth: under survival pressure (promotion
        // or a half-full survivor), eden doubles so subsequent bursts
        // die young instead of tenuring.
        if promoted > 0 || self.from_used > self.layout.survivor_size() / 2 {
            self.grow_eden(sys)?;
        }
        Ok(())
    }

    /// Doubles eden's committed size (bounded by the young
    /// reservation). Safe at any time because eden grows upward and
    /// survivors sit at fixed addresses above its maximum.
    fn grow_eden(&mut self, sys: &mut System) -> Result<(), HeapError> {
        let target = self
            .config
            .granule_up(self.layout.eden_committed * 2)
            .min(self.layout.eden_max());
        if target <= self.layout.eden_committed {
            return Ok(());
        }
        let from = page_align_up(self.layout.eden_committed);
        let to = page_align_up(target);
        if to > from {
            sys.mprotect(self.pid, self.layout.base.offset(from), to - from, Prot::ReadWrite)?;
        }
        self.layout.eden_committed = target;
        Ok(())
    }

    /// Runs a full mark-compact collection, then the resize phase.
    ///
    /// All live objects are compacted to the bottom of the old
    /// generation; the young spaces end up empty. `from_resize` guards
    /// against re-entry from the resize path.
    pub fn full_gc(&mut self, sys: &mut System, _user_triggered: bool) -> Result<(), HeapError> {
        let live = mark(&self.graph, true, true);
        self.last_live_bytes = live.live_bytes;

        // Ensure the old generation can hold the whole live set.
        let mut compact_bytes = 0u64;
        let ids: Vec<(ObjectId, u32)> = self
            .graph
            .iter()
            .filter(|(id, _)| live.is_live(*id))
            .map(|(id, o)| (id, o.size))
            .collect();
        for (_, size) in &ids {
            compact_bytes += align_obj(u64::from(*size));
        }
        if !self.expand_old_to(sys, compact_bytes)? {
            return Err(HeapError::OutOfMemory {
                requested: compact_bytes,
            });
        }

        let old_base = self.layout.old_base();
        let mut top = old_base;
        for (id, size) in ids {
            let asize = align_obj(u64::from(size));
            self.graph.set_addr(id, top.0);
            self.graph.set_space(id, tag::OLD);
            top = VirtAddr(top.0 + asize);
        }
        self.old_top = top;
        self.pending += self.os_cost.charge_touch(sys, self.pid, old_base, top.0 - old_base.0)?;

        let freed = self.graph.sweep(&live.marks);
        let (eden_base, _) = self.layout.space_range(SpaceId::Eden);
        self.eden_top = eden_base;
        self.from_used = 0;

        let pause = self.gc_cost.full_pause(live.live_objects, compact_bytes);
        self.pending += pause;
        self.counters
            .record(GcKind::Full, compact_bytes, 0, freed, pause);

        self.resize(sys)?;
        Ok(())
    }

    /// The resize phase run after full collections (§3.2.1): keep the
    /// old generation's free ratio within bounds, then derive the young
    /// generation size from the old one. Shrinking *uncommits* (frees)
    /// pages; free pages inside the committed range stay resident.
    fn resize(&mut self, sys: &mut System) -> Result<(), HeapError> {
        let used = self.old_used();
        let committed = self.layout.old_committed;
        let min_committed = self
            .config
            .granule_up(cast::u64_from_f64(((used as f64) / (1.0 - self.config.min_heap_free_ratio)).ceil()))
            .max(self.config.min_gen_committed);
        let max_committed = self
            .config
            .granule_up(cast::u64_from_f64(((used as f64) / (1.0 - self.config.max_heap_free_ratio)).ceil()))
            .max(self.config.min_gen_committed);
        let target = if committed < min_committed {
            min_committed.min(self.layout.old_reserved)
        } else if committed > max_committed {
            max_committed
        } else {
            committed
        };
        let old_base = self.layout.old_base();
        if target > committed {
            let from = page_align_up(committed);
            let to = page_align_up(target);
            if to > from {
                sys.mprotect(self.pid, old_base.offset(from), to - from, Prot::ReadWrite)?;
            }
        } else if target < committed {
            let from = page_align_up(target);
            let to = page_align_up(committed);
            if to > from {
                sys.mprotect(self.pid, old_base.offset(from), to - from, Prot::None)?;
            }
        }
        self.layout.old_committed = target;

        // Eden follows the old size (the "young size is mainly
        // determined by the old generation size" policy). Eden is empty
        // here (we just compacted), so resizing it is safe.
        let eden_target = self
            .config
            .granule_up(target / self.config.new_ratio)
            .clamp(self.config.min_gen_committed, self.layout.eden_max());
        let eden_committed = self.layout.eden_committed;
        if eden_target > eden_committed {
            let from = page_align_up(eden_committed);
            let to = page_align_up(eden_target);
            if to > from {
                sys.mprotect(
                    self.pid,
                    self.layout.base.offset(from),
                    to - from,
                    Prot::ReadWrite,
                )?;
            }
        } else if eden_target < eden_committed {
            let from = page_align_up(eden_target);
            let to = page_align_up(eden_committed);
            if to > from {
                sys.mprotect(self.pid, self.layout.base.offset(from), to - from, Prot::None)?;
            }
        }
        self.layout.eden_committed = eden_target;
        let (eden_base, _) = self.layout.space_range(SpaceId::Eden);
        self.eden_top = eden_base;
        Ok(())
    }

    /// `System.gc()`: a user-triggered full collection (always an old
    /// GC cycle, which also runs the resize phase).
    pub fn system_gc(&mut self, sys: &mut System) -> Result<(), HeapError> {
        self.full_gc(sys, true)
    }

    fn release_range(
        &mut self,
        sys: &mut System,
        addr: VirtAddr,
        len: u64,
    ) -> Result<u64, HeapError> {
        if len == 0 {
            return Ok(0);
        }
        Ok(sys.release(self.pid, addr, page_align_up(len))?)
    }
}

impl ManagedHeap for HotSpotHeap {
    fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut HeapGraph {
        &mut self.graph
    }

    /// Allocates an object. May trigger young or full collections.
    fn alloc(
        &mut self,
        sys: &mut System,
        size: u32,
        kind: ObjectKind,
    ) -> Result<ObjectId, HeapError> {
        let asize = align_obj(u64::from(size));
        // Humongous objects go straight to the old generation, like
        // HotSpot's large-object path.
        if asize > self.layout.eden_size() / 2 {
            let addr = self.old_alloc(sys, asize, true)?;
            let id = self.graph.alloc(size, kind);
            self.graph.set_addr(id, addr.0);
            self.graph.set_space(id, tag::OLD);
            return Ok(id);
        }
        for attempt in 0..3 {
            let (eden_base, eden_len) = self.layout.space_range(SpaceId::Eden);
            let eden_end = eden_base.0 + eden_len;
            if self.eden_top.0 + asize <= eden_end {
                let addr = self.eden_top;
                self.eden_top = VirtAddr(self.eden_top.0 + asize);
                self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
                let id = self.graph.alloc(size, kind);
                self.graph.set_addr(id, addr.0);
                self.graph.set_space(id, tag::EDEN);
                return Ok(id);
            }
            if attempt == 0 {
                self.young_gc(sys)?;
            } else {
                self.full_gc(sys, true)?;
            }
        }
        // Eden is empty after a full GC; if the object still does not
        // fit, fall back to the old generation.
        let addr = self.old_alloc(sys, asize, true)?;
        let id = self.graph.alloc(size, kind);
        self.graph.set_addr(id, addr.0);
        self.graph.set_space(id, tag::OLD);
        Ok(id)
    }

    /// Committed heap size (what `-verbose:gc` would call the heap).
    fn committed(&self) -> u64 {
        self.layout.committed()
    }

    /// Resident bytes inside the heap reservation (`pmap` over the
    /// reported range).
    ///
    /// # Panics
    ///
    /// Panics if the heap mapping has disappeared, which indicates a
    /// model bug rather than a runtime condition.
    fn resident_heap_bytes(&self, sys: &System) -> u64 {
        let (base, len) = self.heap_range();
        sys.pmap(self.pid, base, len)
            .expect("heap reservation must exist") // tidy:allow(panic-reachability) -- the reservation is created in new() and never released
    }

    fn last_live_bytes(&self) -> u64 {
        self.last_live_bytes
    }

    fn counters(&self) -> &GcCounters {
        &self.counters
    }

    fn pending_mut(&mut self) -> &mut SimDuration {
        &mut self.pending
    }

    /// A full collection: compact all generations, then resize. The
    /// serial collector clears no JIT code, so `keep_weak` is moot.
    fn collect_full(&mut self, sys: &mut System, _keep_weak: bool) -> Result<(), HeapError> {
        self.full_gc(sys, true)
    }

    /// Releases every free page of every space — the whole survivor
    /// halves, all of eden, and the old generation above `old_top`.
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        let mut released = 0u64;
        // Eden and both survivor halves are empty after the compaction.
        let (eden_base, eden_len) = self.layout.space_range(SpaceId::Eden);
        released += self.release_range(sys, eden_base, eden_len)?;
        let (from_base, from_len) = self.layout.space_range(SpaceId::From);
        released += self.release_range(sys, from_base, from_len)?;
        let (to_base, to_len) = self.layout.space_range(SpaceId::To);
        released += self.release_range(sys, to_base, to_len)?;
        // Old generation: everything above the compaction top.
        let old_base = self.layout.old_base();
        let free_start = page_align_up(self.old_top.0);
        let committed_end = old_base.0 + page_align_up(self.layout.old_committed);
        if committed_end > free_start {
            released += self.release_range(sys, VirtAddr(free_start), committed_end - free_start)?;
        }
        self.pending += self.os_cost.release_cost(released);
        Ok(released)
    }
}

snapshot::record!(HotSpotHeap {
    pid: Pid,
    config: HotSpotConfig,
    layout: HeapLayout,
    graph: HeapGraph,
    eden_top: VirtAddr,
    from_used: u64,
    old_top: VirtAddr,
    counters: GcCounters,
    gc_cost: GcCostModel,
    os_cost: CostModel,
    pending: SimDuration,
    last_live_bytes: u64,
});

#[cfg(test)]
mod tests {
    use super::*;
    use simos::PAGE_SIZE;

    fn setup(budget: u64) -> (System, HotSpotHeap) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let heap = HotSpotHeap::new(&mut sys, pid, HotSpotConfig::for_budget(budget)).unwrap();
        (sys, heap)
    }

    #[test]
    fn fresh_heap_has_initial_commit_and_no_residency() {
        let (sys, heap) = setup(256 << 20);
        assert_eq!(heap.committed(), heap.layout().committed());
        assert_eq!(heap.resident_heap_bytes(&sys), 0);
    }

    #[test]
    fn allocation_touches_pages() {
        let (mut sys, mut heap) = setup(256 << 20);
        let scope = heap.graph_mut().push_handle_scope();
        let id = heap.alloc(&mut sys, 100 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(id);
        assert!(heap.resident_heap_bytes(&sys) >= 100 << 10);
        assert!(heap.take_elapsed() > SimDuration::ZERO);
        heap.graph_mut().pop_handle_scope(scope);
    }

    #[test]
    fn eden_exhaustion_triggers_young_gc() {
        let (mut sys, mut heap) = setup(256 << 20);
        let eden = heap.layout().eden_size();
        let obj = 64 << 10;
        let n = (eden / obj) * 3;
        for _ in 0..n {
            // Unreferenced garbage: dies at the first young GC.
            heap.alloc(&mut sys, obj as u32, ObjectKind::Data).unwrap();
        }
        assert!(heap.counters().young_collections >= 2);
        assert_eq!(heap.counters().full_collections, 0);
        // Everything was garbage: nothing promoted or in survivors.
        assert_eq!(heap.old_used(), 0);
        assert_eq!(heap.from_used, 0);
    }

    #[test]
    fn survivors_are_copied_then_promoted() {
        let (mut sys, mut heap) = setup(256 << 20);
        // A handle-rooted object survives collections.
        let scope = heap.graph_mut().push_handle_scope();
        let id = heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(id);
        for _ in 0..heap.config.tenure_threshold {
            heap.young_gc(&mut sys).unwrap();
        }
        assert_eq!(heap.graph().get(id).space_tag, tag::OLD);
        assert!(heap.counters().bytes_promoted >= 32 << 10);
        heap.graph_mut().pop_handle_scope(scope);
    }

    #[test]
    fn young_gc_keeps_objects_reachable_from_dead_old() {
        let (mut sys, mut heap) = setup(256 << 20);
        let scope = heap.graph_mut().push_handle_scope();
        // Build an old object by tenuring.
        let old_obj = heap.alloc(&mut sys, 16 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(old_obj);
        for _ in 0..heap.config.tenure_threshold {
            heap.young_gc(&mut sys).unwrap();
        }
        assert_eq!(heap.graph().get(old_obj).space_tag, tag::OLD);
        // Young object referenced only by the (soon dead) old object.
        let young = heap.alloc(&mut sys, 8 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_ref(old_obj, young);
        heap.graph_mut().pop_handle_scope(scope);
        // The old object is now dead, but young GC must conservatively
        // keep its young referent (floating garbage).
        heap.young_gc(&mut sys).unwrap();
        assert!(heap.graph().exists(young));
        // A full GC collects both.
        heap.full_gc(&mut sys, true).unwrap();
        assert!(!heap.graph().exists(young));
        assert!(!heap.graph().exists(old_obj));
    }

    /// Fills the old generation with rooted humongous objects until
    /// exactly `young` bytes of it are left, then allocates one rooted
    /// young object of `young` bytes. Every survivor tenures.
    fn old_full_but(young: u64) -> (System, HotSpotHeap) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let config = HotSpotConfig {
            tenure_threshold: 1,
            ..HotSpotConfig::for_budget(256 << 20)
        };
        let mut heap = HotSpotHeap::new(&mut sys, pid, config).unwrap();
        let filler = |heap: &HotSpotHeap| heap.layout().old_reserved - heap.old_used() - young;
        while filler(&heap) > 8 << 20 {
            let id = heap.alloc(&mut sys, 4 << 20, ObjectKind::Data).unwrap();
            heap.graph_mut().add_global(id);
        }
        let last = filler(&heap) as u32;
        let id = heap.alloc(&mut sys, last, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(id);
        let id = heap.alloc(&mut sys, young as u32, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(id);
        assert_eq!(heap.graph().get(id).space_tag, tag::EDEN);
        assert_eq!(heap.old_used() + heap.eden_used(), heap.layout().old_reserved);
        (sys, heap)
    }

    #[test]
    fn young_gc_promotes_up_to_the_bail_out_edge_without_a_full_gc() {
        let young = 64 << 10;
        let (mut sys, mut heap) = old_full_but(young);
        // At the edge the worst case fits exactly: no bail-out, and the
        // promotion's no-GC old allocation must succeed.
        heap.young_gc(&mut sys).unwrap();
        assert_eq!(heap.counters().young_collections, 1);
        assert_eq!(heap.counters().full_collections, 0);
        assert_eq!(heap.counters().bytes_promoted, young);
        assert_eq!(heap.old_used(), heap.layout().old_reserved);
        // With the old generation full, an allocation inside a
        // collection fails instead of running a full GC.
        assert_eq!(
            heap.old_alloc(&mut sys, 8, false),
            Err(HeapError::OutOfMemory { requested: 8 })
        );
        assert_eq!(heap.counters().full_collections, 0);

        // One young byte past the edge, the young GC bails out to a
        // full GC before it marks anything.
        let (mut sys, mut heap) = old_full_but(young);
        heap.alloc(&mut sys, 8, ObjectKind::Data).unwrap();
        heap.young_gc(&mut sys).unwrap();
        assert_eq!(heap.counters().young_collections, 0);
        assert_eq!(heap.counters().full_collections, 1);
    }

    #[test]
    fn full_gc_compacts_into_old_and_empties_young() {
        let (mut sys, mut heap) = setup(256 << 20);
        let scope = heap.graph_mut().push_handle_scope();
        let keep = heap.alloc(&mut sys, 1 << 20, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(keep);
        for _ in 0..100 {
            heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
        }
        heap.full_gc(&mut sys, true).unwrap();
        assert_eq!(heap.graph().get(keep).space_tag, tag::OLD);
        assert_eq!(heap.eden_used(), 0);
        assert_eq!(heap.from_used, 0);
        assert_eq!(heap.old_used(), align_obj(1 << 20));
        heap.graph_mut().pop_handle_scope(scope);
    }

    #[test]
    fn resize_shrinks_after_garbage_heavy_phase() {
        let (mut sys, mut heap) = setup(256 << 20);
        // Blow the heap up with garbage, forcing expansion.
        let scope = heap.graph_mut().push_handle_scope();
        let keep = heap.alloc(&mut sys, 512 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(keep);
        for _ in 0..2000 {
            let id = heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
            // Root each briefly via the live object so some promote.
            let _ = id;
        }
        heap.graph_mut().pop_handle_scope(scope);
        heap.graph_mut().add_global(keep);
        let committed_high = heap.committed();
        heap.system_gc(&mut sys).unwrap();
        assert!(
            heap.committed() < committed_high,
            "committed {} not below high-water {committed_high}",
            heap.committed()
        );
        // Free ratio bound respected.
        let used = heap.old_used();
        let free_ratio = 1.0 - used as f64 / heap.layout().old_committed as f64;
        assert!(free_ratio <= heap.config.max_heap_free_ratio + 0.10);
    }

    #[test]
    fn shrink_releases_but_committed_pages_stay_resident() {
        let (mut sys, mut heap) = setup(256 << 20);
        let keep = heap.alloc(&mut sys, 256 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        for _ in 0..3000 {
            heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        }
        heap.system_gc(&mut sys).unwrap();
        // After System.gc() the heap is small, but resident memory is
        // roughly the committed size — free in-heap pages do NOT return
        // to the OS. This is the §3.2.1 observation.
        let resident = heap.resident_heap_bytes(&sys);
        let live = heap.last_live_bytes();
        assert!(
            resident > live * 3,
            "resident {resident} unexpectedly close to live {live}"
        );
    }

    #[test]
    fn reclaim_releases_down_to_live_pages() {
        let (mut sys, mut heap) = setup(256 << 20);
        let keep = heap.alloc(&mut sys, 256 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        for _ in 0..3000 {
            heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        }
        let outcome = heap.reclaim(&mut sys, true).unwrap();
        assert!(outcome.released_bytes > 0);
        assert!(outcome.wall_time > SimDuration::ZERO);
        let resident = heap.resident_heap_bytes(&sys);
        // Resident is now live bytes rounded up to pages (plus object
        // alignment slack).
        assert!(
            resident <= page_align_up(outcome.live_bytes) + PAGE_SIZE,
            "resident {resident} vs live {}",
            outcome.live_bytes
        );
    }

    #[test]
    fn execution_after_reclaim_refaults() {
        let (mut sys, mut heap) = setup(256 << 20);
        let keep = heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        for _ in 0..500 {
            heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        }
        heap.reclaim(&mut sys, true).unwrap();
        heap.take_elapsed();
        // New allocations fault pages back in: elapsed time reflects
        // the §5.6 post-reclamation overhead.
        for _ in 0..100 {
            heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        }
        assert!(heap.take_elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn humongous_objects_allocate_in_old() {
        let (mut sys, mut heap) = setup(256 << 20);
        let big = (heap.layout().eden_size() / 2 + PAGE_SIZE) as u32;
        let id = heap.alloc(&mut sys, big, ObjectKind::Data).unwrap();
        assert_eq!(heap.graph().get(id).space_tag, tag::OLD);
        assert!(heap.old_used() >= big as u64);
    }

    #[test]
    fn oom_when_live_set_exceeds_reservation() {
        let (mut sys, mut heap) = setup(64 << 20);
        let mut err = None;
        for _ in 0..200 {
            match heap.alloc(&mut sys, 4 << 20, ObjectKind::Data) {
                Ok(id) => heap.graph_mut().add_global(id),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(HeapError::OutOfMemory { .. })));
    }

    #[test]
    fn committed_never_exceeds_reservation() {
        let (mut sys, mut heap) = setup(128 << 20);
        for i in 0..5000 {
            let id = heap.alloc(&mut sys, 16 << 10, ObjectKind::Data).unwrap();
            if i % 7 == 0 {
                heap.graph_mut().add_global(id);
            }
            assert!(heap.layout().old_committed <= heap.layout().old_reserved);
            assert!(heap.layout().eden_committed <= heap.layout().eden_max());
        }
    }
}
