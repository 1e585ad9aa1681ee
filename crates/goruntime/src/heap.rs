//! The Go heap: allocation, the GOGC pacer, sweeping, scavenging.

use std::collections::BTreeMap;

use gc_core::object::{HeapGraph, ObjectId, ObjectKind};
use gc_core::stats::{GcCostModel, GcCounters, GcKind};
use gc_core::trace::mark;
use gc_core::{HeapError, ManagedHeap};
use simos::cast;
use simos::cost::CostModel;
use simos::mem::{page_align_up, MappingKind, Prot};
use simos::{Pid, SimDuration, SimOsError, System, VirtAddr};

use crate::span::{size_class, Span, SpanId, GO_ARENA_SIZE, GO_PAGE_SIZE, MAX_SMALL_SIZE};

/// Configuration of a [`GoHeap`].
#[derive(Debug, Clone, Copy)]
pub struct GoConfig {
    /// Upper bound on mapped heap memory.
    pub max_heap: u64,
    /// The GOGC percentage (100 = collect when the heap doubles).
    pub gogc: u64,
    /// Minimum heap goal (Go's 4 MiB default).
    pub min_goal: u64,
}

impl Default for GoConfig {
    fn default() -> GoConfig {
        GoConfig {
            max_heap: 192 << 20,
            gogc: 100,
            min_goal: 4 << 20,
        }
    }
}

/// A Go heap bound to one simulated process.
#[derive(Debug, Clone)]
pub struct GoHeap {
    pid: Pid,
    config: GoConfig,
    graph: HeapGraph,
    /// Mapped arenas and the bump cursor inside the newest one.
    arenas: Vec<VirtAddr>,
    bump_page: u64,
    spans: Vec<Option<Span>>,
    by_addr: BTreeMap<u64, SpanId>,
    /// Spans with free slots, per class.
    partial: BTreeMap<u32, Vec<SpanId>>,
    /// Fully-free spans awaiting reuse (or the scavenger), by page
    /// count.
    free_spans: Vec<SpanId>,
    /// Bytes allocated and not yet freed by sweeping.
    heap_live: u64,
    /// The pacer's trigger.
    heap_goal: u64,
    counters: GcCounters,
    gc_cost: GcCostModel,
    os_cost: CostModel,
    pending: SimDuration,
    last_live_bytes: u64,
}

impl GoHeap {
    /// Creates an empty heap in process `pid`.
    pub fn new(sys: &mut System, pid: Pid, config: GoConfig) -> Result<GoHeap, SimOsError> {
        let _ = sys;
        Ok(GoHeap {
            pid,
            config,
            graph: HeapGraph::new(),
            arenas: Vec::new(),
            bump_page: 0,
            spans: Vec::new(),
            by_addr: BTreeMap::new(),
            partial: BTreeMap::new(),
            free_spans: Vec::new(),
            heap_live: 0,
            heap_goal: config.min_goal,
            counters: GcCounters::default(),
            gc_cost: GcCostModel::default(),
            os_cost: CostModel::default(),
            pending: SimDuration::ZERO,
            last_live_bytes: 0,
        })
    }

    /// The pacer's current goal.
    pub fn heap_goal(&self) -> u64 {
        self.heap_goal
    }

    fn span(&self, id: SpanId) -> &Span {
        self.spans[id.index()].as_ref().expect("stale span id") // tidy:allow(panic-reachability) -- span ids are allocated by this heap and tracked in its own class lists
    }

    fn span_mut(&mut self, id: SpanId) -> &mut Span {
        self.spans[id.index()].as_mut().expect("stale span id") // tidy:allow(panic-reachability) -- span ids are allocated by this heap and tracked in its own class lists
    }

    /// Carves `pages` Go pages from the arena bump (mapping a new arena
    /// as needed).
    fn carve(&mut self, sys: &mut System, pages: u32) -> Result<VirtAddr, SimOsError> {
        let arena_pages = GO_ARENA_SIZE / GO_PAGE_SIZE;
        let base = match self.arenas.last() {
            Some(&base) if self.bump_page + u64::from(pages) <= arena_pages => base,
            _ => {
                let addr = sys.mmap_named(
                    self.pid,
                    GO_ARENA_SIZE,
                    MappingKind::Anonymous,
                    Prot::ReadWrite,
                    "[go:arena]",
                )?;
                self.arenas.push(addr);
                self.bump_page = 0;
                addr
            }
        };
        let addr = base.offset(self.bump_page * GO_PAGE_SIZE);
        self.bump_page += u64::from(pages);
        Ok(addr)
    }

    fn install_span(&mut self, span: Span) -> SpanId {
        let id = SpanId(cast::to_u32(self.spans.len()));
        self.by_addr.insert(span.start.0, id);
        self.spans.push(Some(span));
        id
    }

    fn small_alloc(&mut self, sys: &mut System, class: u32) -> Result<VirtAddr, SimOsError> {
        // The newest partial span of the class, else a fresh one: a
        // free span with enough pages, else a newly carved one.
        let sid = match self.partial.get(&class).and_then(|list| list.last()) {
            Some(&sid) => sid,
            None => {
                let sid = self.fresh_span(sys, class)?;
                self.partial.entry(class).or_default().push(sid);
                sid
            }
        };
        let (addr, has_more) = self.span_mut(sid).take_slot();
        if !has_more {
            self.partial.entry(class).or_default().pop();
        }
        Ok(addr)
    }

    fn fresh_span(&mut self, sys: &mut System, class: u32) -> Result<SpanId, SimOsError> {
        let pages = crate::span::span_pages(class);
        let reuse = self
            .free_spans
            .iter()
            .position(|sid| self.span(*sid).pages == pages);
        Ok(match reuse {
            Some(pos) => {
                let sid = self.free_spans.swap_remove(pos);
                let start = self.span(sid).start;
                *self.span_mut(sid) = Span::for_class(start, class);
                sid
            }
            None => {
                let start = self.carve(sys, pages)?;
                self.install_span(Span::for_class(start, class))
            }
        })
    }

    fn span_of_addr(&self, addr: u64) -> SpanId {
        let (_, id) = self
            .by_addr
            .range(..=addr)
            .next_back()
            .expect("address below every span"); // tidy:allow(panic-reachability) -- span_at already rejected addresses below every span
        debug_assert!(addr < self.span(*id).start.0 + self.span(*id).len());
        *id
    }

    /// A stop-the-world collection: mark, then sweep every span.
    /// Fully-free spans go to the free list — their pages stay resident
    /// until the scavenger, [`ManagedHeap::release_free`].
    pub fn gc(&mut self, sys: &mut System) -> Result<u64, SimOsError> {
        let _ = sys;
        let live = mark(&self.graph, true, true);
        self.last_live_bytes = live.live_bytes;
        // Free dead slots span by span.
        let dead: Vec<(ObjectId, u64, u32)> = self
            .graph
            .iter()
            .filter(|(id, _)| !live.is_live(*id))
            .map(|(id, o)| (id, o.addr, o.size))
            .collect();
        let mut freed_bytes = 0u64;
        for &(_, addr, size) in &dead {
            freed_bytes += u64::from(size);
            let sid = self.span_of_addr(addr);
            let span = self.span_mut(sid);
            if span.class == 0 {
                span.used = 0;
            } else {
                let slot = span.slot_of(VirtAddr(addr));
                debug_assert!(!span.free_slots.contains(&slot), "double free");
                span.free_slots.push(slot);
                span.used -= 1;
                let became_partial = span.free_slots.len() == 1;
                if became_partial && span.used > 0 {
                    let class = span.class;
                    self.partial.entry(class).or_default().push(sid);
                }
            }
            if self.span(sid).is_free() {
                let class = self.span(sid).class;
                if class > 0 {
                    if let Some(list) = self.partial.get_mut(&class) {
                        list.retain(|s| *s != sid);
                    }
                }
                self.free_spans.push(sid);
            }
        }
        self.graph.sweep(&live.marks);
        self.heap_live = live.live_bytes;
        self.heap_goal = (live.live_bytes * (100 + self.config.gogc) / 100).max(self.config.min_goal);
        let pause = self.gc_cost.full_pause(live.live_objects, 0);
        self.pending += pause;
        self.counters.record(GcKind::Full, 0, 0, freed_bytes, pause);
        Ok(freed_bytes)
    }
}

impl ManagedHeap for GoHeap {
    fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut HeapGraph {
        &mut self.graph
    }

    /// Allocates an object of `size` bytes, running the pacer first.
    fn alloc(&mut self, sys: &mut System, size: u32, kind: ObjectKind) -> Result<ObjectId, HeapError> {
        // GOGC pacer: collect when the live-ish heap crosses the goal.
        if self.heap_live + u64::from(size) > self.heap_goal {
            self.gc(sys)?;
        }
        let addr = if size > MAX_SMALL_SIZE {
            let pages = cast::to_u32(page_align_up(u64::from(size)).div_ceil(GO_PAGE_SIZE));
            let start = self.carve(sys, pages)?;
            self.install_span(Span::large(start, pages));
            start
        } else {
            self.small_alloc(sys, size_class(size))?
        };
        let out = sys.touch(
            self.pid,
            VirtAddr(addr.0 / simos::PAGE_SIZE * simos::PAGE_SIZE),
            page_align_up(u64::from(size)).max(simos::PAGE_SIZE),
            true,
        )?;
        self.pending += self.os_cost.touch_cost(out);
        self.heap_live += u64::from(size);
        let id = self.graph.alloc(size, kind);
        self.graph.set_addr(id, addr.0);
        Ok(id)
    }

    /// Mapped bytes (arenas).
    fn committed(&self) -> u64 {
        cast::to_u64(self.arenas.len()) * GO_ARENA_SIZE
    }

    fn resident_heap_bytes(&self, sys: &System) -> u64 {
        self.arenas
            .iter()
            .map(|a| sys.pmap(self.pid, *a, GO_ARENA_SIZE).unwrap_or(0))
            .sum()
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

    /// A forced collection; Go has no weak-preserving mode to pick.
    fn collect_full(&mut self, sys: &mut System, _keep_weak: bool) -> Result<(), HeapError> {
        self.gc(sys)?;
        Ok(())
    }

    /// The scavenger, run at once: returns the pages of fully-free
    /// spans to the OS. Stock Go paces this over minutes in a
    /// background goroutine; a frozen instance never gets there.
    /// Partially-used spans are this runtime's fragmentation floor
    /// (objects do not move).
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        let mut released = 0;
        let ids: Vec<SpanId> = self.free_spans.clone();
        for sid in ids {
            let (start, len) = {
                let s = self.span(sid);
                (s.start, s.len())
            };
            released += sys.release(self.pid, start, len)?;
        }
        self.pending += self.os_cost.release_cost(released);
        Ok(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (System, GoHeap) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let heap = GoHeap::new(&mut sys, pid, GoConfig::default()).unwrap();
        (sys, heap)
    }

    /// One invocation's worth of garbage plus optional retained bytes.
    fn churn(sys: &mut System, heap: &mut GoHeap, n: usize, size: u32, keep: bool) {
        let scope = heap.graph_mut().push_handle_scope();
        for _ in 0..n {
            let id = heap.alloc(sys, size, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(id);
        }
        if keep {
            let id = heap.alloc(sys, size, ObjectKind::Data).unwrap();
            heap.graph_mut().add_global(id);
        }
        heap.graph_mut().pop_handle_scope(scope);
    }

    #[test]
    fn pacer_triggers_at_the_goal() {
        let (mut sys, mut heap) = world();
        assert_eq!(heap.heap_goal(), heap.config.min_goal);
        // Allocate past the 4 MiB goal: a GC must run.
        churn(&mut sys, &mut heap, 200, 32 << 10, true);
        assert!(heap.counters().full_collections >= 1);
        // The goal resets relative to live bytes.
        assert!(heap.heap_goal() >= heap.config.min_goal);
    }

    #[test]
    fn below_the_goal_nothing_collects() {
        let (mut sys, mut heap) = world();
        churn(&mut sys, &mut heap, 10, 32 << 10, false);
        assert_eq!(heap.counters().full_collections, 0);
        // The garbage stays resident: frozen garbage, Go flavour.
        assert!(heap.resident_heap_bytes(&sys) >= 10 * (32 << 10));
    }

    #[test]
    fn gc_frees_spans_but_keeps_pages_resident() {
        let (mut sys, mut heap) = world();
        churn(&mut sys, &mut heap, 300, 32 << 10, true);
        heap.gc(&mut sys).unwrap();
        let resident = heap.resident_heap_bytes(&sys);
        assert!(
            resident > heap.last_live_bytes() * 4,
            "free spans stay resident without the scavenger ({resident})"
        );
        let released = heap.release_free(&mut sys).unwrap();
        assert!(released > 0);
        assert!(heap.resident_heap_bytes(&sys) < resident);
    }

    #[test]
    fn reclaim_drops_to_live_plus_fragmentation() {
        let (mut sys, mut heap) = world();
        for _ in 0..5 {
            churn(&mut sys, &mut heap, 100, 16 << 10, true);
        }
        let before = heap.resident_heap_bytes(&sys);
        let out = heap.reclaim(&mut sys, true).unwrap();
        assert!(out.released_bytes > 0);
        let after = heap.resident_heap_bytes(&sys);
        assert!(after < before);
        // Live bytes survive.
        assert_eq!(out.live_bytes, 5 * (16 << 10));
        let live = gc_core::trace::mark(heap.graph(), false, true);
        assert_eq!(live.live_bytes, 5 * (16 << 10));
    }

    #[test]
    fn free_spans_are_reused_before_growing() {
        let (mut sys, mut heap) = world();
        churn(&mut sys, &mut heap, 200, 8 << 10, false);
        heap.gc(&mut sys).unwrap();
        let committed = heap.committed();
        // The same workload again should fit in the freed spans.
        churn(&mut sys, &mut heap, 200, 8 << 10, false);
        assert_eq!(heap.committed(), committed, "no new arenas needed");
    }

    #[test]
    fn large_objects_get_dedicated_spans() {
        let (mut sys, mut heap) = world();
        let id = heap.alloc(&mut sys, 100 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(id);
        // 100 KiB -> 13 Go pages.
        let sid = heap.span_of_addr(heap.graph().get(id).addr);
        assert_eq!(heap.span(sid).class, 0);
        assert_eq!(heap.span(sid).pages, 13);
        // Dropping it frees the whole span at the next GC.
        heap.graph_mut().remove_global(id);
        heap.gc(&mut sys).unwrap();
        assert!(heap.free_spans.contains(&sid));
    }
}
