//! The V8 heap: allocation, scavenging, mark-sweep, resize, reclaim.

use std::collections::BTreeMap;

use gc_core::object::{HeapGraph, ObjectId, ObjectKind};
use gc_core::stats::{GcCostModel, GcCounters, GcKind};
use gc_core::trace::mark;
use simos::cast;
use simos::cost::CostModel;
use simos::mem::{page_align_up, MappingKind, Prot};
use simos::{Pid, SimDuration, SimTime, System, VirtAddr};

use crate::chunk::{Chunk, ChunkId, ChunkSpace, CHUNK_HEADER, CHUNK_SIZE};
use crate::config::V8Config;

/// Space tags stored in [`gc_core::object::Object::space_tag`]. Only
/// `YOUNG` sits below [`gc_core::object::YOUNG_SPACE_LIMIT`], so the
/// object graph counts it alone as young.
pub mod tag {
    /// Object lives in the young generation (the *from* semispace).
    pub const YOUNG: u8 = 0;
    /// Object lives in the old space.
    pub const OLD: u8 = 2;
    /// Object lives in a large-object chunk.
    pub const LARGE: u8 = 3;

    const _: () = assert!(YOUNG < gc_core::object::YOUNG_SPACE_LIMIT && OLD >= gc_core::object::YOUNG_SPACE_LIMIT);
}

/// V8 heap failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum V8HeapError {
    /// The heap limit would be exceeded ("JavaScript heap out of
    /// memory").
    OutOfMemory { requested: u64 },
    /// An OS-level operation failed (indicates a model bug).
    Os(simos::SimOsError),
}

impl std::fmt::Display for V8HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            V8HeapError::OutOfMemory { requested } => {
                write!(f, "JavaScript heap out of memory (requested {requested})")
            }
            V8HeapError::Os(e) => write!(f, "os error: {e}"),
        }
    }
}

impl std::error::Error for V8HeapError {}

impl From<simos::SimOsError> for V8HeapError {
    fn from(e: simos::SimOsError) -> V8HeapError {
        V8HeapError::Os(e)
    }
}

/// Result of a [`V8Heap::reclaim`] call.
#[derive(Debug, Clone, Copy)]
pub struct V8ReclaimOutcome {
    /// Bytes of physical memory returned to the OS.
    pub released_bytes: u64,
    /// Live bytes measured by the collection.
    pub live_bytes: u64,
    /// Simulated wall time of the reclamation.
    pub wall_time: SimDuration,
}

/// A V8 heap bound to one simulated process.
#[derive(Debug, Clone)]
pub struct V8Heap {
    pid: Pid,
    config: V8Config,
    graph: HeapGraph,
    chunks: Vec<Option<Chunk>>,
    /// Bytes of the live chunks: derived from `chunks`, kept by
    /// `map_chunk_inner` and `unmap_chunk`, never encoded.
    committed: u64,
    /// Live chunks by base address.
    addr_to_chunk: BTreeMap<u64, ChunkId>,
    /// The *from* semispace: allocation and survivor space.
    from: Vec<ChunkId>,
    /// The *to* semispace: scavenge destination.
    to: Vec<ChunkId>,
    /// Index of the from-chunk currently served by the bump allocator.
    from_cursor: usize,
    /// Bump offset within that chunk (starts at the header size).
    from_offset: u64,
    /// Target semispace size in chunks (the resize policy's knob).
    semispace_chunks: usize,
    /// Live bytes found by GCs since the last young expansion.
    accumulated_survived: u64,
    old: Vec<ChunkId>,
    large: Vec<ChunkId>,
    counters: GcCounters,
    gc_cost: GcCostModel,
    os_cost: CostModel,
    pending: SimDuration,
    last_live_bytes: u64,
    /// Current mutator time, advanced by the embedder.
    now: SimTime,
    /// Allocation-rate bookkeeping.
    rate_mark: SimTime,
    allocated_since_mark: u64,
    /// Code bytes cleared by aggressive collections and not yet
    /// re-compiled; the runtime turns this into a deopt slowdown.
    deopt_code_bytes: u64,
    /// Committed-size threshold that triggers the next major GC (the
    /// heap-growing-factor schedule).
    next_major_threshold: u64,
}

/// Initial major-GC trigger and post-GC growing factor, mirroring V8's
/// allocation-limit schedule.
const MAJOR_GC_INITIAL_THRESHOLD: u64 = 24 << 20;
const MAJOR_GC_GROWTH_FACTOR: f64 = 1.5;

/// Mutable chunk `id` of the chunk table. It borrows only the table,
/// so a caller can walk one of the chunk lists while it mutates chunks.
fn chunk_in(chunks: &mut [Option<Chunk>], id: ChunkId) -> &mut Chunk {
    chunks[id.index()].as_mut().expect("stale chunk id") // tidy:allow(panic-reachability) -- chunk ids are allocated by this heap; the from/to/old/large lists hold only live ids
}

impl V8Heap {
    /// Creates a heap in process `pid` with the initial young
    /// generation mapped.
    pub fn new(sys: &mut System, pid: Pid, config: V8Config) -> Result<V8Heap, V8HeapError> {
        config.validate();
        let mut heap = V8Heap {
            pid,
            config,
            graph: HeapGraph::new(),
            chunks: Vec::new(),
            committed: 0,
            addr_to_chunk: BTreeMap::new(),
            from: Vec::new(),
            to: Vec::new(),
            from_cursor: 0,
            from_offset: CHUNK_HEADER,
            semispace_chunks: cast::to_usize(config.young_initial / 2 / CHUNK_SIZE),
            accumulated_survived: 0,
            old: Vec::new(),
            large: Vec::new(),
            counters: GcCounters::default(),
            gc_cost: GcCostModel::default(),
            os_cost: CostModel::default(),
            pending: SimDuration::ZERO,
            last_live_bytes: 0,
            now: SimTime::ZERO,
            rate_mark: SimTime::ZERO,
            allocated_since_mark: 0,
            deopt_code_bytes: 0,
            next_major_threshold: MAJOR_GC_INITIAL_THRESHOLD,
        };
        // Map the first from-space chunk eagerly.
        let c = heap.map_chunk(sys, CHUNK_SIZE, ChunkSpace::Young)?;
        heap.from.push(c);
        Ok(heap)
    }

    /// The process this heap belongs to.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The object graph.
    pub fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    /// Mutable object graph.
    pub fn graph_mut(&mut self) -> &mut HeapGraph {
        &mut self.graph
    }

    /// Cumulative GC statistics.
    pub fn counters(&self) -> &GcCounters {
        &self.counters
    }

    /// Advances the heap's notion of mutator time (drives the
    /// allocation-rate estimate of the shrink policy).
    pub fn set_now(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    /// Young-generation size (both semispaces), the quantity the §3.2.2
    /// doubling policy controls.
    pub fn young_size(&self) -> u64 {
        2 * cast::to_u64(self.semispace_chunks) * CHUNK_SIZE
    }

    /// Total mapped heap bytes (all live chunks).
    pub fn committed(&self) -> u64 {
        debug_assert_eq!(
            self.committed,
            self.chunks.iter().flatten().map(|c| c.size).sum::<u64>(),
            "committed counter drifted from the chunk table"
        );
        self.committed
    }

    /// The live chunks, by base address. The chunk table never reuses
    /// a slot, so it can be many times longer.
    fn live_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.addr_to_chunk.values().map(|&id| self.chunk(id))
    }

    /// Live bytes found by the most recent collection.
    pub fn last_live_bytes(&self) -> u64 {
        self.last_live_bytes
    }

    /// Drains accrued latency (faults + GC pauses).
    pub fn take_elapsed(&mut self) -> SimDuration {
        std::mem::take(&mut self.pending)
    }

    /// Drains the code bytes cleared by aggressive collections; the
    /// embedder converts them into a re-JIT slowdown.
    pub fn take_deopt_code_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.deopt_code_bytes)
    }

    /// Resident bytes across all heap chunks (V8's own accounting; the
    /// platform reads it directly, §4.5.2).
    pub fn resident_heap_bytes(&self, sys: &System) -> u64 {
        self.live_chunks()
            .map(|c| sys.pmap(self.pid, c.addr, c.size).unwrap_or(0))
            .sum()
    }

    fn chunk(&self, id: ChunkId) -> &Chunk {
        self.chunks[id.index()].as_ref().expect("stale chunk id") // tidy:allow(panic-reachability) -- chunk ids are allocated by this heap; the from/to/old/large lists hold only live ids
    }

    fn map_chunk(
        &mut self,
        sys: &mut System,
        size: u64,
        space: ChunkSpace,
    ) -> Result<ChunkId, V8HeapError> {
        self.map_chunk_inner(sys, size, space, false)
    }

    /// Chunk mapping for collector-internal use: a collection in
    /// progress must not fail half-way, so it may briefly overshoot the
    /// heap limit (the limit is enforced on the mutator path).
    fn map_chunk_emergency(
        &mut self,
        sys: &mut System,
        size: u64,
        space: ChunkSpace,
    ) -> Result<ChunkId, V8HeapError> {
        self.map_chunk_inner(sys, size, space, true)
    }

    fn map_chunk_inner(
        &mut self,
        sys: &mut System,
        size: u64,
        space: ChunkSpace,
        emergency: bool,
    ) -> Result<ChunkId, V8HeapError> {
        if !emergency && self.committed() + size > self.config.max_heap {
            return Err(V8HeapError::OutOfMemory { requested: size });
        }
        let name = match space {
            ChunkSpace::Young => "[v8:young]",
            ChunkSpace::Old => "[v8:old]",
            ChunkSpace::Large => "[v8:large]",
        };
        let addr = sys.mmap_named(self.pid, size, MappingKind::Anonymous, Prot::ReadWrite, name)?;
        // The header page is written immediately (chunk metadata).
        self.pending += self.os_cost.charge_touch(sys, self.pid, addr, CHUNK_HEADER)?;
        let chunk = Chunk::new(addr, size, space);
        let id = ChunkId(cast::to_u32(self.chunks.len()));
        self.chunks.push(Some(chunk));
        self.committed += size;
        self.addr_to_chunk.insert(addr.0, id);
        Ok(id)
    }

    fn unmap_chunk(&mut self, sys: &mut System, id: ChunkId) -> Result<(), V8HeapError> {
        let chunk = self
            .chunks
            .get_mut(id.index())
            .and_then(Option::take)
            .expect("double unmap of chunk"); // tidy:allow(panic-reachability) -- chunk ids are allocated by this heap; the from/to/old/large lists hold only live ids
        self.committed -= chunk.size;
        self.addr_to_chunk.remove(&chunk.addr.0);
        sys.munmap(self.pid, chunk.addr)?;
        Ok(())
    }

    /// The chunk containing `addr`.
    fn chunk_of_addr(&self, addr: u64) -> ChunkId {
        let (_, id) = self
            .addr_to_chunk
            .range(..=addr)
            .next_back()
            .expect("address not in any chunk"); // tidy:allow(panic-reachability) -- objects are only placed at addresses inside chunks this heap mapped
        debug_assert!(addr < self.chunk(*id).addr.0 + self.chunk(*id).size);
        *id
    }

    /// Allocates an object in the young generation (or the large-object
    /// space). May trigger a scavenge or a major GC.
    pub fn alloc(
        &mut self,
        sys: &mut System,
        size: u32,
        kind: ObjectKind,
    ) -> Result<ObjectId, V8HeapError> {
        self.allocated_since_mark += u64::from(size);
        if size >= self.config.large_object_threshold {
            return self.alloc_large(sys, size, kind);
        }
        let asize = u64::from(size).div_ceil(8) * 8;
        for attempt in 0..3 {
            // A young bump may hit the heap limit while growing the
            // semispace; treat that like a full semispace and collect.
            match self.try_young_bump(sys, asize) {
                Ok(Some(addr)) => {
                    self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
                    let id = self.graph.alloc(size, kind);
                    self.graph.set_addr(id, addr.0);
                    self.graph.set_space(id, tag::YOUNG);
                    return Ok(id);
                }
                Ok(None) | Err(V8HeapError::OutOfMemory { .. }) => {}
                Err(e) => return Err(e),
            }
            if attempt == 0 {
                self.scavenge(sys)?;
            } else {
                self.major_gc(sys, true)?;
            }
        }
        // The young generation cannot host it even when empty (tiny
        // semispace); put it in old space, as V8's pretenuring would.
        let addr = self.old_alloc(sys, cast::to_u32(asize), true)?;
        let id = self.graph.alloc(size, kind);
        self.graph.set_addr(id, addr.0);
        self.graph.set_space(id, tag::OLD);
        Ok(id)
    }

    /// Bump allocation in the from semispace; maps chunks lazily up to
    /// the semispace target.
    fn try_young_bump(
        &mut self,
        sys: &mut System,
        asize: u64,
    ) -> Result<Option<VirtAddr>, V8HeapError> {
        loop {
            // The cursor never runs more than one past the list: it
            // only advances onto a chunk this loop then maps.
            let id = match self.from.get(self.from_cursor) {
                Some(&id) => id,
                None if self.from.len() >= self.semispace_chunks => return Ok(None),
                None => {
                    debug_assert_eq!(self.from_cursor, self.from.len());
                    let c = self.map_chunk(sys, CHUNK_SIZE, ChunkSpace::Young)?;
                    self.from.push(c);
                    c
                }
            };
            let chunk_addr = self.chunk(id).addr;
            if self.from_offset + asize <= CHUNK_SIZE {
                let addr = chunk_addr.offset(self.from_offset);
                self.from_offset += asize;
                return Ok(Some(addr));
            }
            if self.from_cursor + 1 >= self.semispace_chunks {
                return Ok(None);
            }
            self.from_cursor += 1;
            self.from_offset = CHUNK_HEADER;
        }
    }

    fn alloc_large(
        &mut self,
        sys: &mut System,
        size: u32,
        kind: ObjectKind,
    ) -> Result<ObjectId, V8HeapError> {
        let mapped = page_align_up(CHUNK_HEADER + u64::from(size));
        let cid = match self.map_chunk(sys, mapped, ChunkSpace::Large) {
            Ok(c) => c,
            Err(V8HeapError::OutOfMemory { .. }) => {
                self.major_gc(sys, true)?;
                self.map_chunk(sys, mapped, ChunkSpace::Large)?
            }
            Err(e) => return Err(e),
        };
        self.large.push(cid);
        let addr = self.chunk(cid).addr.offset(CHUNK_HEADER);
        self.pending += self.os_cost.charge_touch(sys, self.pid, addr, u64::from(size))?;
        let id = self.graph.alloc(size, kind);
        self.graph.set_addr(id, addr.0);
        self.graph.set_space(id, tag::LARGE);
        Ok(id)
    }

    /// First-fit allocation in the old space, mapping a new chunk when
    /// no free run fits (that *is* old-space expansion in V8).
    ///
    /// `allow_gc` is false when called from inside a collection
    /// (evacuation); hitting the heap limit there is a genuine OOM
    /// rather than a cue to re-enter the collector.
    fn old_alloc(&mut self, sys: &mut System, asize: u32, allow_gc: bool) -> Result<VirtAddr, V8HeapError> {
        if let Some(addr) = self.old_fit(asize) {
            return Ok(addr);
        }
        let first_try = if allow_gc {
            self.map_chunk(sys, CHUNK_SIZE, ChunkSpace::Old)
        } else {
            // Inside a collection: must not fail half-way, may briefly
            // overshoot the limit.
            self.map_chunk_emergency(sys, CHUNK_SIZE, ChunkSpace::Old)
        };
        let cid = match first_try {
            Ok(c) => c,
            Err(V8HeapError::OutOfMemory { .. }) if allow_gc => {
                self.major_gc(sys, true)?;
                // Retry the free lists after the GC before growing.
                if let Some(addr) = self.old_fit(asize) {
                    return Ok(addr);
                }
                self.map_chunk(sys, CHUNK_SIZE, ChunkSpace::Old)?
            }
            Err(e) => return Err(e),
        };
        self.old.push(cid);
        let addr = chunk_in(&mut self.chunks, cid)
            .alloc(asize)
            .expect("fresh chunk must fit a small object"); // tidy:allow(panic-reachability) -- a fresh chunk is empty and small objects fit by the size-class bound
        Ok(addr)
    }

    /// First fit of `asize` bytes in the old chunks, in list order.
    fn old_fit(&mut self, asize: u32) -> Option<VirtAddr> {
        let Self { old, chunks, .. } = self;
        old.iter().find_map(|&id| chunk_in(chunks, id).alloc(asize))
    }

    /// Runs a scavenge (young GC): expansion check *before* the GC,
    /// copy survivors from *from* to *to*, promote second-time
    /// survivors, swap semispaces, then the shrink check *after* the
    /// GC.
    ///
    /// The graph's remembered set stands in for the old generation:
    /// every old or large object, dead or alive, keeps its young
    /// referents alive, as a card-table scavenge would.
    pub fn scavenge(&mut self, sys: &mut System) -> Result<(), V8HeapError> {
        // Expansion check (before GC): double the young generation if
        // the live bytes accumulated since the last expansion exceed
        // its current size.
        let max_semispace_chunks = cast::to_usize(self.config.young_max / 2 / CHUNK_SIZE);
        if self.accumulated_survived > self.young_size() && self.semispace_chunks < max_semispace_chunks
        {
            self.semispace_chunks = (self.semispace_chunks * 2).min(max_semispace_chunks);
            self.accumulated_survived = 0;
        }

        let young = self.graph.collect_young();
        self.last_live_bytes = young.live_bytes;
        let freed = young.freed_bytes;

        let mut to_cursor = 0usize;
        let mut to_offset = CHUNK_HEADER;
        // The to-space chunk's copy run `[run_start, to_offset)`,
        // charged once when the copy moves to the next chunk: adjacent
        // chunks are separate mappings, so a run never spans two.
        let mut run_start = to_offset;
        let mut copied = 0u64;
        let mut promoted = 0u64;
        let young_live_objects = cast::to_u64(young.survivors.len());
        for id in young.survivors {
            let obj = self.graph.get(id);
            let (size, age) = (obj.size, obj.age);
            let asize = u64::from(size).div_ceil(8) * 8;
            // V8 promotes objects surviving their second scavenge.
            let tenured = age + 1 >= 2;
            let mut dest = None;
            if !tenured {
                loop {
                    // As in `try_young_bump`, the cursor runs at most
                    // one past the list.
                    let id = match self.to.get(to_cursor) {
                        Some(&id) => id,
                        None if self.to.len() >= self.semispace_chunks => break,
                        None => {
                            debug_assert_eq!(to_cursor, self.to.len());
                            let c = self.map_chunk_emergency(sys, CHUNK_SIZE, ChunkSpace::Young)?;
                            self.to.push(c);
                            c
                        }
                    };
                    if to_offset + asize <= CHUNK_SIZE {
                        let addr = self.chunk(id).addr.offset(to_offset);
                        to_offset += asize;
                        dest = Some(addr);
                        break;
                    }
                    if to_cursor + 1 >= self.semispace_chunks {
                        break;
                    }
                    self.charge_copy_run(sys, to_cursor, run_start, to_offset)?;
                    to_cursor += 1;
                    to_offset = CHUNK_HEADER;
                    run_start = to_offset;
                }
            }
            match dest {
                Some(addr) => {
                    copied += asize;
                    self.graph.set_addr(id, addr.0);
                    self.graph.set_age(id, age + 1);
                }
                None => {
                    let addr = self.old_alloc(sys, cast::to_u32(asize), false)?;
                    self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
                    promoted += asize;
                    self.graph.set_addr(id, addr.0);
                    self.graph.set_space(id, tag::OLD);
                }
            }
        }
        self.charge_copy_run(sys, to_cursor, run_start, to_offset)?;

        // Swap semispaces: *to* (with survivors) becomes *from*.
        std::mem::swap(&mut self.from, &mut self.to);
        self.from_cursor = to_cursor.min(self.from.len().saturating_sub(1));
        self.from_offset = if self.from.is_empty() {
            CHUNK_HEADER
        } else {
            to_offset
        };
        if self.from.is_empty() {
            let c = self.map_chunk_emergency(sys, CHUNK_SIZE, ChunkSpace::Young)?;
            self.from.push(c);
            self.from_cursor = 0;
        }

        self.accumulated_survived += copied + promoted;

        let pause = self.gc_cost.pause(young_live_objects, copied + promoted);
        self.pending += pause;
        self.counters
            .record(GcKind::Young, copied, promoted, freed, pause);

        self.maybe_shrink_young(sys, copied)?;

        // V8's allocation-limit schedule: once the heap has grown past
        // the limit set after the previous major GC, run a major GC.
        // Without this, promoted-then-dead objects accumulate in the
        // old space unboundedly.
        if self.committed() > self.next_major_threshold {
            self.major_gc(sys, true)?;
        }
        Ok(())
    }

    /// Charges the scavenge's copies into to-space chunk `cursor`, the
    /// bytes `[start, end)` of it, as one page touch.
    fn charge_copy_run(&mut self, sys: &mut System, cursor: usize, start: u64, end: u64) -> Result<(), V8HeapError> {
        if let Some(&id) = self.to.get(cursor) {
            let addr = self.chunk(id).addr.offset(start);
            self.pending += self.os_cost.charge_touch(sys, self.pid, addr, end - start)?;
        }
        Ok(())
    }

    /// Allocation rate since the last rate mark, or `None` if the
    /// window is too short to judge.
    fn allocation_rate(&self) -> Option<f64> {
        let window = self.now.saturating_since(self.rate_mark);
        if window < self.config.min_rate_window {
            return None;
        }
        Some(self.allocated_since_mark as f64 / window.as_secs_f64())
    }

    /// The shrink check run after GCs: if the allocation rate is below
    /// the threshold, the young generation shrinks to twice the live
    /// young bytes. High-allocation FaaS functions never take this
    /// path — that is the §3.2.2 pathology.
    fn maybe_shrink_young(&mut self, sys: &mut System, young_live: u64) -> Result<(), V8HeapError> {
        let Some(rate) = self.allocation_rate() else {
            return Ok(());
        };
        self.rate_mark = self.now;
        self.allocated_since_mark = 0;
        if rate >= self.config.shrink_alloc_rate {
            return Ok(());
        }
        let min_chunks = cast::to_usize(self.config.young_initial / 2 / CHUNK_SIZE);
        let target_bytes = 2 * young_live;
        let target = cast::to_usize(target_bytes.div_ceil(CHUNK_SIZE)).max(min_chunks);
        if target >= self.semispace_chunks {
            return Ok(());
        }
        self.semispace_chunks = target;
        // Unmap surplus semispace chunks beyond the new target, and
        // release the (now unused) pages of the remaining to-space —
        // V8 releases to-space memory when shrinking.
        let keep = self.semispace_chunks;
        for id in self.from.split_off(keep.min(self.from.len())).into_iter().rev() {
            self.unmap_chunk(sys, id)?;
        }
        for id in self.to.split_off(keep.min(self.to.len())).into_iter().rev() {
            self.unmap_chunk(sys, id)?;
        }
        let mut released = 0u64;
        for &id in &self.to {
            for (addr, len) in self.chunk(id).releasable_pages() {
                released += sys.release(self.pid, addr, len)?;
            }
        }
        self.pending += self.os_cost.release_cost(released);
        self.from_cursor = self.from_cursor.min(self.from.len().saturating_sub(1));
        Ok(())
    }

    /// Runs a major (mark-sweep) collection.
    ///
    /// `keep_weak = false` models the aggressive `global.gc()`: weakly
    /// referenced code objects are collected and their bytes recorded
    /// for the deoptimization penalty. Desiccant's reclaim passes
    /// `keep_weak = true` (§4.7).
    pub fn major_gc(&mut self, sys: &mut System, keep_weak: bool) -> Result<(), V8HeapError> {
        let live = mark(&self.graph, true, keep_weak);
        self.last_live_bytes = live.live_bytes;
        if !keep_weak {
            self.deopt_code_bytes += live.weak_code_bytes;
        }

        // Evacuate live young objects into the old space.
        let survivors: Vec<(ObjectId, u32)> = self
            .graph
            .iter()
            .filter(|(id, o)| o.space_tag == tag::YOUNG && live.is_live(*id))
            .map(|(id, o)| (id, o.size))
            .collect();
        let mut evacuated = 0u64;
        for (id, size) in survivors {
            let asize = u64::from(size).div_ceil(8) * 8;
            let addr = self.old_alloc(sys, cast::to_u32(asize), false)?;
            self.pending += self.os_cost.charge_touch(sys, self.pid, addr, asize)?;
            evacuated += asize;
            self.graph.set_addr(id, addr.0);
            self.graph.set_space(id, tag::OLD);
        }

        let live_objects = live.live_objects;
        let freed = self.graph.sweep(&live.marks);

        // Rebuild old-space free lists from the surviving objects.
        let mut per_chunk: BTreeMap<ChunkId, Vec<(u32, u32)>> = BTreeMap::new();
        for id in &self.old {
            per_chunk.insert(*id, Vec::new());
        }
        for (_, obj) in self.graph.iter() {
            if obj.space_tag == tag::OLD {
                let cid = self.chunk_of_addr(obj.addr);
                let chunk_base = self.chunk(cid).addr.0;
                let asize = u64::from(obj.size).div_ceil(8) * 8;
                per_chunk
                    .get_mut(&cid)
                    .expect("old object in unknown chunk") // tidy:allow(panic-reachability) -- old-space objects are only placed in chunks on the old list
                    .push((cast::to_u32(obj.addr - chunk_base), cast::to_u32(asize)));
            }
        }
        for (cid, livelist) in per_chunk {
            chunk_in(&mut self.chunks, cid).rebuild_free_runs(livelist);
        }

        // Dead large objects: unmap their chunks.
        let mut live_large: Vec<ChunkId> = Vec::new();
        for (_, obj) in self.graph.iter() {
            if obj.space_tag == tag::LARGE {
                live_large.push(self.chunk_of_addr(obj.addr));
            }
        }
        let stale: Vec<ChunkId> = self
            .large
            .iter()
            .copied()
            .filter(|c| !live_large.contains(c))
            .collect();
        self.large.retain(|c| live_large.contains(c));
        for cid in stale {
            self.unmap_chunk(sys, cid)?;
        }

        // Shrink after GC: fully-free old chunks return to the OS.
        let free_old: Vec<ChunkId> = self
            .old
            .iter()
            .copied()
            .filter(|c| self.chunk(*c).is_fully_free())
            .collect();
        self.old.retain(|c| !free_old.contains(c));
        for cid in free_old {
            self.unmap_chunk(sys, cid)?;
        }

        // Reset the young generation (it was evacuated). Keep the
        // mapped semispace chunks — their pages stay resident, which is
        // exactly the behaviour the paper characterizes.
        self.from_cursor = 0;
        self.from_offset = CHUNK_HEADER;
        if self.from.is_empty() {
            let c = self.map_chunk_emergency(sys, CHUNK_SIZE, ChunkSpace::Young)?;
            self.from.push(c);
        }

        let pause = self.gc_cost.full_pause(live_objects, evacuated);
        self.pending += pause;
        self.counters
            .record(GcKind::Full, evacuated, evacuated, freed, pause);

        // Reset the allocation-limit schedule relative to the post-GC
        // footprint.
        self.next_major_threshold = cast::u64_from_f64(self.committed() as f64 * MAJOR_GC_GROWTH_FACTOR)
            .max(MAJOR_GC_INITIAL_THRESHOLD);

        self.maybe_shrink_young(sys, 0)?;
        Ok(())
    }

    /// `global.gc()`: an aggressive full collection that clears weak
    /// references (and thereby JIT code), as stock V8 exposes it.
    pub fn global_gc(&mut self, sys: &mut System) -> Result<(), V8HeapError> {
        self.major_gc(sys, false)
    }

    /// The Desiccant `reclaim` interface: a major GC (weak-preserving
    /// by default, §4.7), then release every free page of every space —
    /// keeping each chunk's 4 KiB header, which cannot be released.
    pub fn reclaim(&mut self, sys: &mut System, keep_weak: bool) -> Result<V8ReclaimOutcome, V8HeapError> {
        let pending_before = self.pending;
        self.major_gc(sys, keep_weak)?;

        let mut released = 0u64;
        // Old space: release page-aligned free runs.
        let old_ids: Vec<ChunkId> = self.old.clone();
        for cid in old_ids {
            for (addr, len) in self.chunk(cid).releasable_pages() {
                released += sys.release(self.pid, addr, len)?;
            }
        }
        // Young semispaces are empty after the major GC: release all
        // payload pages of every young chunk.
        let young_ids: Vec<ChunkId> = self.from.iter().chain(self.to.iter()).copied().collect();
        for cid in young_ids {
            let chunk = self.chunk(cid);
            let (addr, len) = (chunk.addr.offset(CHUNK_HEADER), chunk.size - CHUNK_HEADER);
            released += sys.release(self.pid, addr, len)?;
        }
        self.pending += self.os_cost.release_cost(released);

        let wall = self.pending.saturating_sub(pending_before);
        Ok(V8ReclaimOutcome {
            released_bytes: released,
            live_bytes: self.last_live_bytes,
            wall_time: wall,
        })
    }
}

mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    impl Snapshot for V8Heap {
        fn snap(&self, w: &mut Writer) {
            let Self {
                pid,
                config,
                graph,
                chunks,
                committed: _,
                addr_to_chunk,
                from,
                to,
                from_cursor,
                from_offset,
                semispace_chunks,
                accumulated_survived,
                old,
                large,
                counters,
                gc_cost,
                os_cost,
                pending,
                last_live_bytes,
                now,
                rate_mark,
                allocated_since_mark,
                deopt_code_bytes,
                next_major_threshold,
            } = self;
            pid.snap(w);
            config.snap(w);
            graph.snap(w);
            chunks.snap(w);
            addr_to_chunk.snap(w);
            from.snap(w);
            to.snap(w);
            from_cursor.snap(w);
            from_offset.snap(w);
            semispace_chunks.snap(w);
            accumulated_survived.snap(w);
            old.snap(w);
            large.snap(w);
            counters.snap(w);
            gc_cost.snap(w);
            os_cost.snap(w);
            pending.snap(w);
            last_live_bytes.snap(w);
            now.snap(w);
            rate_mark.snap(w);
            allocated_since_mark.snap(w);
            deopt_code_bytes.snap(w);
            next_major_threshold.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<V8Heap, SnapError> {
            let pid = Pid::restore(r)?;
            let config = V8Config::restore(r)?;
            let graph = HeapGraph::restore(r)?;
            let chunks: Vec<Option<Chunk>> = Vec::restore(r)?;
            let addr_to_chunk: BTreeMap<u64, ChunkId> = BTreeMap::restore(r)?;
            let from: Vec<ChunkId> = Vec::restore(r)?;
            let to: Vec<ChunkId> = Vec::restore(r)?;
            let from_cursor = usize::restore(r)?;
            let from_offset = u64::restore(r)?;
            let semispace_chunks = usize::restore(r)?;
            let accumulated_survived = u64::restore(r)?;
            let old: Vec<ChunkId> = Vec::restore(r)?;
            let large: Vec<ChunkId> = Vec::restore(r)?;
            let counters = GcCounters::restore(r)?;
            let gc_cost = GcCostModel::restore(r)?;
            let os_cost = CostModel::restore(r)?;
            let pending = SimDuration::restore(r)?;
            let last_live_bytes = u64::restore(r)?;
            let now = SimTime::restore(r)?;
            let rate_mark = SimTime::restore(r)?;
            let allocated_since_mark = u64::restore(r)?;
            let deopt_code_bytes = u64::restore(r)?;
            let next_major_threshold = u64::restore(r)?;
            // The address index must name live chunk slots whose base
            // address matches the index key.
            for (&addr, &id) in &addr_to_chunk {
                match chunks.get(id.index()) {
                    Some(Some(c)) if c.addr.0 == addr => {}
                    _ => return Err(SnapError::Corrupt("V8Heap addr_to_chunk mismatch")),
                }
            }
            for &id in from.iter().chain(&to).chain(&old).chain(&large) {
                if chunks.get(id.index()).is_none_or(|c| c.is_none()) {
                    return Err(SnapError::Corrupt("V8Heap space names a dead chunk"));
                }
            }
            if from_cursor > from.len() {
                return Err(SnapError::Corrupt("V8Heap from_cursor out of range"));
            }
            Ok(V8Heap {
                pid,
                config,
                graph,
                committed: chunks.iter().flatten().map(|c| c.size).sum(),
                chunks,
                addr_to_chunk,
                from,
                to,
                from_cursor,
                from_offset,
                semispace_chunks,
                accumulated_survived,
                old,
                large,
                counters,
                gc_cost,
                os_cost,
                pending,
                last_live_bytes,
                now,
                rate_mark,
                allocated_since_mark,
                deopt_code_bytes,
                next_major_threshold,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(budget: u64) -> (System, V8Heap) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let heap = V8Heap::new(&mut sys, pid, V8Config::for_budget(budget)).unwrap();
        (sys, heap)
    }

    /// Allocates `n` handle-rooted objects of `size` inside one scope.
    fn burst(
        sys: &mut System,
        heap: &mut V8Heap,
        n: usize,
        size: u32,
    ) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for _ in 0..n {
            let id = heap.alloc(sys, size, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(id);
            out.push(id);
        }
        out
    }

    #[test]
    fn young_allocation_bumps_through_chunks() {
        let (mut sys, mut heap) = setup(256 << 20);
        let scope = heap.graph_mut().push_handle_scope();
        burst(&mut sys, &mut heap, 10, 60 << 10);
        // 10 × 60 KiB does not fit one 252 KiB payload: several chunks.
        assert!(heap.from.len() >= 2);
        assert!(heap.resident_heap_bytes(&sys) >= 600 << 10);
        heap.graph_mut().pop_handle_scope(scope);
    }

    #[test]
    fn scavenge_copies_survivors_and_frees_garbage() {
        let (mut sys, mut heap) = setup(256 << 20);
        let scope = heap.graph_mut().push_handle_scope();
        let keep = heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(keep);
        heap.graph_mut().pop_handle_scope(scope);
        // Garbage-only allocations to fill the young gen.
        let scope = heap.graph_mut().push_handle_scope();
        for _ in 0..50 {
            heap.alloc(&mut sys, 40 << 10, ObjectKind::Data).unwrap();
        }
        heap.graph_mut().pop_handle_scope(scope);
        heap.scavenge(&mut sys).unwrap();
        // keep is dead (scope popped); garbage freed too.
        assert!(!heap.graph().exists(keep));
        assert!(heap.counters().young_collections >= 1);
    }

    #[test]
    fn survivors_promote_on_second_scavenge() {
        let (mut sys, mut heap) = setup(256 << 20);
        let keep = heap.alloc(&mut sys, 16 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        heap.scavenge(&mut sys).unwrap();
        assert_eq!(heap.graph().get(keep).space_tag, tag::YOUNG);
        heap.scavenge(&mut sys).unwrap();
        assert_eq!(heap.graph().get(keep).space_tag, tag::OLD);
        assert!(heap.counters().bytes_promoted >= 16 << 10);
    }

    #[test]
    fn young_doubles_under_sustained_survival() {
        let (mut sys, mut heap) = setup(256 << 20);
        let initial = heap.young_size();
        // Repeated invocations that keep MBs live across scavenges.
        for _ in 0..12 {
            let scope = heap.graph_mut().push_handle_scope();
            burst(&mut sys, &mut heap, 120, 30 << 10);
            heap.graph_mut().pop_handle_scope(scope);
        }
        assert!(
            heap.young_size() > initial,
            "young did not grow: {} vs {}",
            heap.young_size(),
            initial
        );
    }

    #[test]
    fn young_never_exceeds_cap() {
        let (mut sys, mut heap) = setup(256 << 20);
        for _ in 0..40 {
            let scope = heap.graph_mut().push_handle_scope();
            burst(&mut sys, &mut heap, 200, 30 << 10);
            heap.graph_mut().pop_handle_scope(scope);
        }
        assert!(heap.young_size() <= heap.config.young_max);
    }

    #[test]
    fn high_alloc_rate_prevents_shrink() {
        let (mut sys, mut heap) = setup(256 << 20);
        // Grow the young gen.
        for i in 0..12 {
            heap.set_now(SimTime(i * 50_000_000));
            let scope = heap.graph_mut().push_handle_scope();
            burst(&mut sys, &mut heap, 120, 30 << 10);
            heap.graph_mut().pop_handle_scope(scope);
        }
        let grown = heap.young_size();
        assert!(grown > heap.config.young_initial);
        // Keep allocating at a high rate: no shrink despite GCs.
        for i in 12..16 {
            heap.set_now(SimTime(i * 50_000_000));
            let scope = heap.graph_mut().push_handle_scope();
            burst(&mut sys, &mut heap, 120, 30 << 10);
            heap.graph_mut().pop_handle_scope(scope);
        }
        assert_eq!(heap.young_size(), grown);
    }

    #[test]
    fn low_alloc_rate_shrinks_young_after_gc() {
        let (mut sys, mut heap) = setup(256 << 20);
        for i in 0..12 {
            heap.set_now(SimTime(i * 50_000_000));
            let scope = heap.graph_mut().push_handle_scope();
            burst(&mut sys, &mut heap, 120, 30 << 10);
            heap.graph_mut().pop_handle_scope(scope);
        }
        let grown = heap.young_size();
        assert!(grown > heap.config.young_initial);
        // A long idle gap then a GC: rate is ~0, shrink happens.
        heap.set_now(SimTime(1_000_000_000_000));
        heap.scavenge(&mut sys).unwrap();
        assert!(heap.young_size() < grown);
    }

    #[test]
    fn major_gc_rebuilds_free_lists_and_unmaps_free_chunks() {
        let (mut sys, mut heap) = setup(256 << 20);
        // Tenure a bunch of objects, then drop most of them.
        let mut kept = Vec::new();
        for i in 0..300 {
            let id = heap.alloc(&mut sys, 8 << 10, ObjectKind::Data).unwrap();
            heap.graph_mut().add_global(id);
            // Drop a contiguous tail so whole chunks become free.
            if i >= 30 {
                kept.push(id);
            }
        }
        heap.scavenge(&mut sys).unwrap();
        heap.scavenge(&mut sys).unwrap();
        let committed_before = heap.committed();
        // Drop 90 % of the tenured objects.
        for id in kept {
            heap.graph_mut().remove_global(id);
        }
        heap.major_gc(&mut sys, true).unwrap();
        assert!(heap.committed() < committed_before, "no chunks unmapped");
        // Old space still hosts the remaining objects.
        let live = gc_core::trace::mark(heap.graph(), false, true);
        assert_eq!(live.live_bytes, 30 * (8 << 10));
    }

    #[test]
    fn aggressive_gc_clears_weak_code_and_records_deopt() {
        let (mut sys, mut heap) = setup(256 << 20);
        let holder = heap.alloc(&mut sys, 1 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(holder);
        let code = heap.alloc(&mut sys, 128 << 10, ObjectKind::Code).unwrap();
        heap.graph_mut().add_weak_ref(holder, code);
        // Weak-preserving GC keeps the code object.
        heap.major_gc(&mut sys, true).unwrap();
        assert!(heap.graph().exists(code));
        assert_eq!(heap.take_deopt_code_bytes(), 0);
        // Aggressive GC clears it and records the deopt bytes.
        heap.global_gc(&mut sys).unwrap();
        assert!(!heap.graph().exists(code));
        assert_eq!(heap.take_deopt_code_bytes(), 128 << 10);
    }

    #[test]
    fn reclaim_releases_young_and_old_free_pages() {
        let (mut sys, mut heap) = setup(256 << 20);
        let keep = heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(keep);
        for _ in 0..8 {
            let scope = heap.graph_mut().push_handle_scope();
            burst(&mut sys, &mut heap, 80, 30 << 10);
            heap.graph_mut().pop_handle_scope(scope);
        }
        let resident_before = heap.resident_heap_bytes(&sys);
        let out = heap.reclaim(&mut sys, true).unwrap();
        assert!(out.released_bytes > 0);
        assert!(heap.graph().exists(keep));
        let resident_after = heap.resident_heap_bytes(&sys);
        assert!(resident_after < resident_before / 2);
        // Headers stay: every mapped chunk keeps at least its header.
        let n_chunks = heap.chunks.iter().flatten().count() as u64;
        assert!(resident_after >= n_chunks * simos::PAGE_SIZE);
    }

    #[test]
    fn large_objects_get_their_own_chunks_and_die_with_them() {
        let (mut sys, mut heap) = setup(256 << 20);
        let big = heap.alloc(&mut sys, 1 << 20, ObjectKind::Data).unwrap();
        assert_eq!(heap.graph().get(big).space_tag, tag::LARGE);
        assert_eq!(heap.large.len(), 1);
        let committed = heap.committed();
        assert!(committed >= 1 << 20);
        // Unrooted: dies at the next major GC, chunk unmapped.
        heap.major_gc(&mut sys, true).unwrap();
        assert!(!heap.graph().exists(big));
        assert!(heap.large.is_empty());
        assert!(heap.committed() < committed);
    }

    #[test]
    fn oom_at_heap_limit() {
        let (mut sys, mut heap) = setup(16 << 20);
        let mut err = None;
        for _ in 0..100 {
            match heap.alloc(&mut sys, 1 << 20, ObjectKind::Data) {
                Ok(id) => heap.graph_mut().add_global(id),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(V8HeapError::OutOfMemory { .. })));
    }

    #[test]
    fn committed_tracks_mapped_chunks() {
        let (mut sys, mut heap) = setup(256 << 20);
        let base = heap.committed();
        assert_eq!(base % CHUNK_SIZE, 0);
        burst_scoped(&mut sys, &mut heap);
        assert!(heap.committed() > base);
        assert_eq!(heap.committed() % simos::PAGE_SIZE, 0);
    }

    fn burst_scoped(sys: &mut System, heap: &mut V8Heap) {
        let scope = heap.graph_mut().push_handle_scope();
        for _ in 0..40 {
            let id = heap.alloc(sys, 40 << 10, ObjectKind::Data).unwrap();
            heap.graph_mut().add_handle(id);
        }
        heap.graph_mut().pop_handle_scope(scope);
    }
}
