//! A G1-style regional collector.
//!
//! The paper's §7 names G1GC explicitly: *"despite having a different
//! GC algorithm compared to the Serial GC, it is still based on the
//! HotSpot JVM and fulfills the aforementioned requirements, making it
//! compatible with Desiccant."* This module models the G1 of the JDK 8
//! era the paper targets:
//!
//! * the heap is a grid of fixed-size **regions** (1 MiB here), each
//!   free or serving as eden / survivor / old / humongous;
//! * **young collections** evacuate live eden+survivor objects into
//!   fresh survivor (or old, once tenured) regions and return the
//!   emptied regions to the free list;
//! * **mixed collections** run when old occupancy crosses the IHOP
//!   threshold: after marking, the *garbage-first* heuristic evacuates
//!   the old regions with the most reclaimable space;
//! * crucially for the paper: **free regions stay committed and their
//!   pages stay resident** — JDK 8's G1 returns memory to the OS only
//!   on a full-GC resize, which FaaS workloads rarely trigger. A frozen
//!   G1 instance therefore pins its high-water mark: frozen garbage at
//!   region granularity;
//! * its [`ManagedHeap`] hooks make the Desiccant reclaim: a compacting
//!   full collection, then every free region's pages are released.
//!
//! Like `cpython-heap` and `goruntime`, this is an extension beyond the
//! paper's measured figures (Lambda pins the serial GC, §5.4), wired
//! into `examples/other_runtimes.rs`.

use gc_core::object::{HeapGraph, ObjectId, ObjectKind};
use gc_core::stats::{GcCostModel, GcCounters, GcKind};
use gc_core::trace::mark;
use gc_core::{HeapError, ManagedHeap};
use simos::cast;
use simos::cost::CostModel;
use simos::mem::{page_align_up, MappingKind, Prot};
use simos::{Pid, SimDuration, System, VirtAddr};

use crate::heap::align_obj;

/// Region size (G1 picks 1–32 MiB by heap size; 1 MiB fits the 256 MiB
/// instances here).
pub const REGION_SIZE: u64 = 1 << 20;

/// What a region currently serves as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Unused (committed or not, per `committed` flag).
    Free,
    /// Young allocation region.
    Eden,
    /// Young survivor region.
    Survivor,
    /// Tenured region.
    Old,
    /// Part of a humongous allocation (one object spanning whole
    /// regions).
    Humongous,
}

/// Space tags stored in object headers; eden and survivor are young to
/// the object graph (below [`gc_core::object::YOUNG_SPACE_LIMIT`]).
mod tag {
    pub const YOUNG: u8 = 0;
    pub const SURVIVOR: u8 = 1;
    pub const OLD: u8 = 2;
    pub const HUMONGOUS: u8 = 3;

    const _: () = assert!(SURVIVOR < gc_core::object::YOUNG_SPACE_LIMIT && OLD >= gc_core::object::YOUNG_SPACE_LIMIT);
}

#[derive(Debug, Clone)]
struct Region {
    kind: RegionKind,
    /// Bump offset within the region.
    top: u64,
    /// Whether the region's range has ever been committed (touched).
    committed: bool,
    /// A mixed collection's tally for an old region: its live bytes
    /// and live objects, in graph order.
    live_bytes: u64,
    live_objects: Vec<(ObjectId, u32)>,
}

impl Region {
    /// Returns the region to the free list.
    fn free(&mut self) {
        self.kind = RegionKind::Free;
        self.top = 0;
    }
}

/// Configuration of a [`G1Heap`].
#[derive(Debug, Clone, Copy)]
pub struct G1Config {
    /// Reserved heap size (a whole number of regions).
    pub max_heap: u64,
    /// Young generation target, as a fraction of all regions.
    pub young_fraction: f64,
    /// Initiating-heap-occupancy threshold for mixed collections
    /// (G1's `InitiatingHeapOccupancyPercent`, default 45).
    pub ihop: f64,
    /// Minimum garbage fraction for an old region to be collected in a
    /// mixed collection (the garbage-first cut-off).
    pub min_garbage_fraction: f64,
    /// Survivals before tenuring.
    pub tenure_threshold: u8,
}

impl G1Config {
    /// Lambda-like sizing for a `budget`-byte instance.
    pub fn for_budget(budget: u64) -> G1Config {
        let max_heap = (budget / 5 * 4) / REGION_SIZE * REGION_SIZE;
        G1Config {
            max_heap,
            young_fraction: 0.25,
            ihop: 0.45,
            min_garbage_fraction: 0.50,
            tenure_threshold: 4,
        }
    }

    /// Sanity checks.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations.
    pub fn validate(&self) {
        assert!(self.max_heap >= 8 * REGION_SIZE, "heap below 8 regions");
        assert_eq!(self.max_heap % REGION_SIZE, 0);
        assert!(self.young_fraction > 0.0 && self.young_fraction < 1.0);
        assert!(self.ihop > 0.0 && self.ihop < 1.0);
        assert!((0.0..1.0).contains(&self.min_garbage_fraction));
    }
}

/// A G1-style heap bound to one simulated process.
#[derive(Debug, Clone)]
pub struct G1Heap {
    pid: Pid,
    config: G1Config,
    base: VirtAddr,
    regions: Vec<Region>,
    graph: HeapGraph,
    /// Region currently taking eden allocations.
    eden_current: Option<usize>,
    /// Region currently taking survivor copies (during GC).
    counters: GcCounters,
    gc_cost: GcCostModel,
    os_cost: CostModel,
    pending: SimDuration,
    last_live_bytes: u64,
}

/// The index of the region holding heap address `addr`.
fn region_index(base: VirtAddr, addr: u64) -> usize {
    cast::to_usize((addr - base.0) / REGION_SIZE)
}

/// Region `idx` of the regions table: the one place a region index is
/// checked. A field-level borrow, so a walk of the object graph can
/// update the regions its objects sit in.
fn region_in(regions: &mut [Region], idx: usize) -> &mut Region {
    &mut regions[idx] // tidy:allow(panic-reachability) -- region indices come from scans of the fixed regions table and from addresses inside the heap reservation
}

impl G1Heap {
    /// Reserves a heap in process `pid`.
    pub fn new(sys: &mut System, pid: Pid, config: G1Config) -> Result<G1Heap, HeapError> {
        config.validate();
        let base = sys.mmap_named(
            pid,
            config.max_heap,
            MappingKind::Anonymous,
            Prot::None,
            "[heap:g1]",
        )?;
        let nregions = cast::to_usize(config.max_heap / REGION_SIZE);
        Ok(G1Heap {
            pid,
            config,
            base,
            regions: vec![
                Region {
                    kind: RegionKind::Free,
                    top: 0,
                    committed: false,
                    live_bytes: 0,
                    live_objects: Vec::new(),
                };
                nregions
            ],
            graph: HeapGraph::new(),
            eden_current: None,
            counters: GcCounters::default(),
            gc_cost: GcCostModel::default(),
            os_cost: CostModel::default(),
            pending: SimDuration::ZERO,
            last_live_bytes: 0,
        })
    }

    /// Regions by kind, for tests and reports.
    pub fn region_count(&self, kind: RegionKind) -> usize {
        self.regions.iter().filter(|r| r.kind == kind).count()
    }

    fn region_addr(&self, idx: usize) -> VirtAddr {
        self.base.offset(cast::to_u64(idx) * REGION_SIZE)
    }

    /// Puts free region `idx` into service as `kind` with bump offset
    /// `top`, committing its range on first use.
    fn claim(&mut self, sys: &mut System, idx: usize, kind: RegionKind, top: u64) -> Result<(), HeapError> {
        let (pid, addr) = (self.pid, self.region_addr(idx));
        let region = region_in(&mut self.regions, idx);
        if !region.committed {
            sys.mprotect(pid, addr, REGION_SIZE, Prot::ReadWrite)?;
            region.committed = true;
        }
        region.kind = kind;
        region.top = top;
        Ok(())
    }

    /// Bumps `asize` bytes in region `idx` if they fit; returns their
    /// address.
    fn bump(&mut self, idx: usize, asize: u64) -> Option<VirtAddr> {
        let base = self.region_addr(idx);
        let region = region_in(&mut self.regions, idx);
        if region.top + asize > REGION_SIZE {
            return None;
        }
        let addr = base.offset(region.top);
        region.top += asize;
        Some(addr)
    }

    /// Takes a free region for `kind`, committing it if needed.
    fn take_region(&mut self, sys: &mut System, kind: RegionKind) -> Result<usize, HeapError> {
        let idx = self
            .regions
            .iter()
            .position(|r| r.kind == RegionKind::Free)
            .ok_or(HeapError::OutOfMemory {
                requested: REGION_SIZE,
            })?;
        self.claim(sys, idx, kind, 0)?;
        Ok(idx)
    }

    /// Takes *contiguous* free regions for a humongous allocation of
    /// `total_bytes`; the last region's `top` records the object's true
    /// end so its free tail can be released.
    fn take_contiguous(&mut self, sys: &mut System, total_bytes: u64) -> Result<usize, HeapError> {
        let n = cast::to_usize(total_bytes.div_ceil(REGION_SIZE));
        let mut run = 0;
        let mut start = 0;
        for (i, r) in self.regions.iter().enumerate() {
            if r.kind == RegionKind::Free {
                if run == 0 {
                    start = i;
                }
                run += 1;
                if run == n {
                    for idx in start..start + n {
                        let top = if idx == start + n - 1 {
                            total_bytes - (cast::to_u64(n) - 1) * REGION_SIZE
                        } else {
                            REGION_SIZE
                        };
                        self.claim(sys, idx, RegionKind::Humongous, top)?;
                    }
                    return Ok(start);
                }
            } else {
                run = 0;
            }
        }
        Err(HeapError::OutOfMemory {
            requested: cast::to_u64(n) * REGION_SIZE,
        })
    }

    /// Number of eden regions the young target allows.
    fn young_target(&self) -> usize {
        cast::usize_from_f64(self.regions.len() as f64 * self.config.young_fraction).max(1)
    }

    /// Evacuates `survivors` into regions of `dest_kind`; returns bytes
    /// copied.
    fn evacuate(
        &mut self,
        sys: &mut System,
        survivors: &[(ObjectId, u32)],
        dest_kind: RegionKind,
        dest_tag: u8,
    ) -> Result<u64, HeapError> {
        let mut current: Option<usize> = None;
        let mut copied = 0;
        for &(id, size) in survivors {
            let asize = align_obj(u64::from(size));
            let addr = match current.and_then(|i| self.bump(i, asize)) {
                Some(addr) => addr,
                None => {
                    // Evacuated objects are small (`full_gc` re-places
                    // humongous ones whole), so a fresh region fits one.
                    let i = self.take_region(sys, dest_kind)?;
                    current = Some(i);
                    let addr = self.region_addr(i);
                    region_in(&mut self.regions, i).top = asize;
                    addr
                }
            };
            self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
            copied += asize;
            self.graph.set_addr(id, addr.0);
            self.graph.set_space(id, dest_tag);
        }
        Ok(copied)
    }

    /// A young collection: evacuate live eden+survivor objects, free
    /// the emptied young regions, then run a mixed collection if old
    /// occupancy crossed the IHOP threshold.
    ///
    /// The graph's remembered set stands in for the old and humongous
    /// regions: each of their objects, dead or alive, keeps its young
    /// referents alive until a mixed or full collection.
    pub fn young_gc(&mut self, sys: &mut System) -> Result<(), HeapError> {
        let young = self.graph.collect_young();
        self.last_live_bytes = young.live_bytes;
        let freed = young.freed_bytes;
        let mut tenured = Vec::new();
        let mut surviving = Vec::new();
        for id in young.survivors {
            let o = self.graph.get(id);
            if o.age + 1 >= self.config.tenure_threshold {
                tenured.push((id, o.size));
            } else {
                surviving.push((id, o.size));
            }
        }
        let young_live_objects = cast::to_u64(tenured.len() + surviving.len());
        // Emptied young regions return to the free list *before*
        // evacuation so their space is reusable as destination.
        for r in &mut self.regions {
            if matches!(r.kind, RegionKind::Eden | RegionKind::Survivor) {
                r.free();
            }
        }
        self.eden_current = None;
        let copied = self.evacuate(sys, &surviving, RegionKind::Survivor, tag::SURVIVOR)?;
        let promoted = self.evacuate(sys, &tenured, RegionKind::Old, tag::OLD)?;
        for &(id, _) in &surviving {
            let age = self.graph.get(id).age;
            self.graph.set_age(id, age + 1);
        }
        let pause = self.gc_cost.pause(young_live_objects, copied + promoted);
        self.pending += pause;
        self.counters
            .record(GcKind::Young, copied, promoted, freed, pause);

        // IHOP check: old+humongous occupancy over the whole heap.
        let old_bytes: u64 = self
            .regions
            .iter()
            .filter(|r| matches!(r.kind, RegionKind::Old | RegionKind::Humongous))
            .map(|r| r.top)
            .sum();
        if (old_bytes as f64) > self.config.ihop * self.config.max_heap as f64 {
            self.mixed_gc(sys)?;
        }
        Ok(())
    }

    /// A mixed collection: mark, free dead humongous allocations, then
    /// evacuate the old regions whose garbage fraction exceeds the
    /// cut-off — most-garbage-first (the name of the game).
    pub fn mixed_gc(&mut self, sys: &mut System) -> Result<(), HeapError> {
        let live = mark(&self.graph, true, true);
        self.last_live_bytes = live.live_bytes;
        // Tally live bytes and objects per old region, and return the
        // regions of dead humongous allocations whole.
        for r in &mut self.regions {
            r.live_bytes = 0;
            r.live_objects.clear();
        }
        let Self { graph, regions, base, .. } = self;
        for (id, o) in graph.iter() {
            if o.space_tag == tag::OLD && live.is_live(id) {
                let region = region_in(regions, region_index(*base, o.addr));
                region.live_bytes += align_obj(u64::from(o.size));
                region.live_objects.push((id, o.size));
            } else if o.space_tag == tag::HUMONGOUS && !live.is_live(id) {
                let start = region_index(*base, o.addr);
                let n = cast::to_usize(align_obj(u64::from(o.size)).div_ceil(REGION_SIZE));
                for r in start..start + n {
                    region_in(regions, r).free();
                }
            }
        }
        // Garbage-first: candidate regions sorted by reclaimable bytes.
        let mut candidates: Vec<(u64, usize)> = self
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.kind == RegionKind::Old
                    && (r.top - r.live_bytes) as f64
                        > self.config.min_garbage_fraction * REGION_SIZE as f64
            })
            .map(|(i, r)| (r.top - r.live_bytes, i))
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let mut survivors = Vec::new();
        for &(_, i) in &candidates {
            let region = region_in(&mut self.regions, i);
            survivors.append(&mut region.live_objects);
            region.free();
        }
        let copied = self.evacuate(sys, &survivors, RegionKind::Old, tag::OLD)?;
        let freed = self.graph.sweep(&live.marks);
        let pause = self.gc_cost.full_pause(live.live_objects, copied);
        self.pending += pause;
        self.counters.record(GcKind::Full, copied, 0, freed, pause);
        Ok(())
    }

    /// A full compacting collection: every live object is evacuated
    /// into the smallest possible set of regions.
    pub fn full_gc(&mut self, sys: &mut System) -> Result<(), HeapError> {
        let live = mark(&self.graph, true, true);
        self.last_live_bytes = live.live_bytes;
        let mut small = Vec::new();
        let mut humongous = Vec::new();
        for (id, o) in self.graph.iter() {
            if !live.is_live(id) {
                continue;
            }
            if o.space_tag == tag::HUMONGOUS {
                humongous.push((id, o.size));
            } else {
                small.push((id, o.size));
            }
        }
        // Everything becomes free, then live objects are re-placed.
        for r in &mut self.regions {
            if r.kind != RegionKind::Free {
                r.free();
            }
        }
        self.eden_current = None;
        let copied = self.evacuate(sys, &small, RegionKind::Old, tag::OLD)?;
        for (id, size) in humongous {
            let asize = align_obj(u64::from(size));
            let start = self.take_contiguous(sys, asize)?;
            let addr = self.region_addr(start);
            // The evacuation copies the object: its destination pages
            // become resident.
            self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
            self.graph.set_addr(id, addr.0);
        }
        let freed = self.graph.sweep(&live.marks);
        let pause = self.gc_cost.full_pause(live.live_objects, copied);
        self.pending += pause;
        self.counters.record(GcKind::Full, copied, 0, freed, pause);
        Ok(())
    }
}

impl ManagedHeap for G1Heap {
    fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut HeapGraph {
        &mut self.graph
    }

    /// Allocates an object.
    fn alloc(&mut self, sys: &mut System, size: u32, kind: ObjectKind) -> Result<ObjectId, HeapError> {
        let asize = align_obj(u64::from(size));
        if asize > REGION_SIZE / 2 {
            // Humongous: whole contiguous regions.
            let start = match self.take_contiguous(sys, asize) {
                Ok(s) => s,
                Err(_) => {
                    self.full_gc(sys)?;
                    self.take_contiguous(sys, asize)?
                }
            };
            let addr = self.region_addr(start);
            self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
            let id = self.graph.alloc(size, kind);
            self.graph.set_addr(id, addr.0);
            self.graph.set_space(id, tag::HUMONGOUS);
            return Ok(id);
        }
        for attempt in 0..3 {
            // Room in the current eden region?
            if let Some(addr) = self.eden_current.and_then(|idx| self.bump(idx, asize)) {
                self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
                let id = self.graph.alloc(size, kind);
                self.graph.set_addr(id, addr.0);
                self.graph.set_space(id, tag::YOUNG);
                return Ok(id);
            }
            // Open another eden region if the young target allows.
            let eden_now = self.region_count(RegionKind::Eden);
            if eden_now < self.young_target() {
                if let Ok(idx) = self.take_region(sys, RegionKind::Eden) {
                    self.eden_current = Some(idx);
                    continue;
                }
            }
            // Young target reached (or no free region): collect.
            if attempt == 0 {
                self.young_gc(sys)?;
            } else {
                self.full_gc(sys)?;
            }
        }
        Err(HeapError::OutOfMemory {
            requested: asize,
        })
    }

    /// Committed bytes: every region that has ever been used (JDK 8 G1
    /// does not uncommit outside full-GC resizes).
    fn committed(&self) -> u64 {
        cast::to_u64(self.regions.iter().filter(|r| r.committed).count()) * REGION_SIZE
    }

    fn resident_heap_bytes(&self, sys: &System) -> u64 {
        sys.pmap(self.pid, self.base, self.config.max_heap).unwrap_or(0)
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

    /// A full compacting collection; G1 clears no JIT code here, so
    /// `keep_weak` is moot.
    fn collect_full(&mut self, sys: &mut System, _keep_weak: bool) -> Result<(), HeapError> {
        self.full_gc(sys)
    }

    /// Releases every free region's pages and each live region's free
    /// tail (JDK 8 G1 would keep them all resident).
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        let mut released = 0;
        for (i, r) in self.regions.iter().enumerate() {
            if r.committed && r.kind == RegionKind::Free {
                released += sys.release(self.pid, self.region_addr(i), REGION_SIZE)?;
            } else if r.kind != RegionKind::Free {
                // Release the free tail of a live region too.
                let tail_start = page_align_up(r.top);
                if tail_start < REGION_SIZE {
                    released += sys.release(
                        self.pid,
                        self.region_addr(i).offset(tail_start),
                        REGION_SIZE - tail_start,
                    )?;
                }
            }
        }
        self.pending += self.os_cost.release_cost(released);
        Ok(released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (System, G1Heap) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let heap = G1Heap::new(&mut sys, pid, G1Config::for_budget(256 << 20)).unwrap();
        (sys, heap)
    }

    fn churn(sys: &mut System, heap: &mut G1Heap, n: usize, size: u32, keep: bool) {
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
    fn allocation_fills_eden_regions_up_to_the_target() {
        let (mut sys, mut heap) = world();
        churn(&mut sys, &mut heap, 100, 64 << 10, false);
        assert!(heap.region_count(RegionKind::Eden) >= 6);
        assert_eq!(heap.counters().young_collections, 0);
    }

    #[test]
    fn young_gc_returns_emptied_regions() {
        let (mut sys, mut heap) = world();
        // Enough garbage to cross the young target (25 % of 204
        // regions) and trigger young collections.
        for _ in 0..8 {
            churn(&mut sys, &mut heap, 200, 64 << 10, true);
        }
        assert!(heap.counters().young_collections >= 1);
        // Most regions are free again; only survivors/old/current eden
        // remain.
        assert!(heap.region_count(RegionKind::Free) > heap.regions.len() / 2);
    }

    #[test]
    fn survivors_tenure_into_old_regions() {
        let (mut sys, mut heap) = world();
        let keep = heap.alloc(&mut sys, 128 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        for _ in 0..heap.config.tenure_threshold + 1 {
            heap.young_gc(&mut sys).unwrap();
        }
        assert_eq!(heap.graph().get(keep).space_tag, tag::OLD);
        assert!(heap.region_count(RegionKind::Old) >= 1);
    }

    #[test]
    fn free_regions_stay_resident_until_reclaim() {
        let (mut sys, mut heap) = world();
        for _ in 0..6 {
            churn(&mut sys, &mut heap, 200, 64 << 10, true);
        }
        heap.young_gc(&mut sys).unwrap();
        // Stock G1: committed (= high-water mark) pages are resident
        // even though most regions are free.
        let resident = heap.resident_heap_bytes(&sys);
        let live = heap.last_live_bytes();
        assert!(
            resident > live * 3,
            "free regions should stay resident: {resident} vs live {live}"
        );
        let out = heap.reclaim(&mut sys, true).unwrap();
        assert!(out.released_bytes > 0);
        let after = heap.resident_heap_bytes(&sys);
        assert!(
            after <= page_align_up(out.live_bytes) + simos::PAGE_SIZE * heap.regions.len() as u64,
            "reclaim leaves at most page-rounding per region: {after}"
        );
    }

    #[test]
    fn mixed_gc_collects_garbage_first() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        // A low IHOP so moderate tenured garbage triggers the mixed
        // collection.
        let config = G1Config {
            ihop: 0.12,
            ..G1Config::for_budget(256 << 20)
        };
        let mut heap = G1Heap::new(&mut sys, pid, config).unwrap();
        // Build tenured garbage: retain, tenure, then drop.
        let mut victims = Vec::new();
        for _ in 0..150 {
            let id = heap.alloc(&mut sys, 256 << 10, ObjectKind::Data).unwrap();
            heap.graph_mut().add_global(id);
            victims.push(id);
        }
        for _ in 0..heap.config.tenure_threshold + 1 {
            heap.young_gc(&mut sys).unwrap();
        }
        // Drop 90% of them; old occupancy is far above IHOP.
        for id in victims.iter().take(135) {
            heap.graph_mut().remove_global(*id);
        }
        let old_before = heap.region_count(RegionKind::Old);
        heap.young_gc(&mut sys).unwrap();
        assert!(heap.counters().full_collections >= 1, "mixed GC ran");
        assert!(
            heap.region_count(RegionKind::Old) < old_before,
            "garbage-first evacuation compacts old regions"
        );
    }

    #[test]
    fn humongous_objects_take_contiguous_regions_and_die_whole() {
        let (mut sys, mut heap) = world();
        let big = heap.alloc(&mut sys, (3 << 20) - 64, ObjectKind::Data).unwrap();
        assert_eq!(heap.graph().get(big).space_tag, tag::HUMONGOUS);
        assert_eq!(heap.region_count(RegionKind::Humongous), 3);
        // Unrooted: a mixed collection reclaims the whole run eagerly.
        heap.mixed_gc(&mut sys).unwrap();
        assert_eq!(heap.region_count(RegionKind::Humongous), 0);
    }
}
