//! The obmalloc-style arena allocator.
//!
//! Layout, following CPython's `Objects/obmalloc.c` at model fidelity:
//! arenas are 256 KiB mappings split into 4 KiB pools; each pool serves
//! exactly one size class. Objects above the small threshold bypass the
//! arenas and get their own mappings (CPython hands them to the raw
//! allocator).
//!
//! The behaviour the paper's §7 calls out is the release policy: a pool
//! returns to its arena's free list when its last object dies, but the
//! arena's *memory* is unmapped only when **every** pool in it is free.
//! One long-lived object pins 256 KiB of garbage-laden pages resident —
//! frozen garbage, CPython flavour.

use std::collections::BTreeMap;

use simos::cast;
use simos::mem::{page_align_up, MappingKind, Prot};
use simos::{Pid, SimOsResult, System, VirtAddr, PAGE_SIZE};

/// Size of one arena.
pub const ARENA_SIZE: u64 = 256 << 10;

/// Size of one pool (== one page, as in CPython).
pub const POOL_SIZE: u64 = PAGE_SIZE;

/// Pools per arena.
// tidy:allow(lossy-casts) -- const context; both operands are compile-time constants
pub const POOLS_PER_ARENA: usize = (ARENA_SIZE / POOL_SIZE) as usize;

/// Largest size served from pools; bigger allocations get their own
/// mapping. (CPython's threshold is 512 B; the model raises it to half
/// a pool so the workloads' object sizes exercise the arena path.)
// tidy:allow(lossy-casts) -- const context; half a 4 KiB pool fits in u32
pub const SMALL_THRESHOLD: u32 = (POOL_SIZE / 2) as u32;

/// Rounds a request up to its size class (powers of two from 16 bytes).
pub fn size_class(size: u32) -> u32 {
    size.max(16).next_power_of_two()
}

#[derive(Debug, Clone)]
struct Pool {
    class: u32,
    /// Free slot indices within the pool.
    free_slots: Vec<u16>,
    used: u16,
}

impl Pool {
    fn new(class: u32) -> Pool {
        let capacity = cast::to_u16(POOL_SIZE / u64::from(class));
        Pool {
            class,
            free_slots: (0..capacity).rev().collect(),
            used: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct Arena {
    addr: VirtAddr,
    /// `Some` = pool in use for a class; `None` = free pool.
    pools: Vec<Option<Pool>>,
    used_pools: usize,
}

impl Arena {
    fn is_empty(&self) -> bool {
        self.used_pools == 0
    }

    /// Pool slot `pi`, used or free: the one place a pool index is
    /// checked.
    fn pool_slot(&mut self, pi: usize) -> &mut Option<Pool> {
        &mut self.pools[pi] // tidy:allow(panic-reachability) -- pool indices come from the partial lists or from an in-arena offset, both below POOLS_PER_ARENA
    }

    /// The used pool at `pi`.
    fn pool_mut(&mut self, pi: usize) -> &mut Pool {
        self.pool_slot(pi).as_mut().expect("pool index names a used pool") // tidy:allow(panic-reachability) -- a dissolved pool leaves the partial lists in the same step, and a live object pins its pool
    }
}

/// Counters describing allocator state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Mapped arenas.
    pub arenas: usize,
    /// Pools currently serving a size class.
    pub used_pools: usize,
    /// Free pools inside mapped arenas (pinned by stock CPython).
    pub free_pools: usize,
    /// Large objects with their own mappings.
    pub large_objects: usize,
}

/// The allocator.
#[derive(Debug, Clone, Default)]
pub struct ArenaAllocator {
    arenas: Vec<Option<Arena>>,
    /// Arena lookup by base address.
    by_addr: BTreeMap<u64, usize>,
    /// Pools with free slots, per class: `(arena_idx, pool_idx)`.
    partial: BTreeMap<u32, Vec<(usize, usize)>>,
    /// Large allocations: base address → mapped length.
    large: BTreeMap<u64, u64>,
}

impl ArenaAllocator {
    /// Creates an empty allocator.
    pub fn new() -> ArenaAllocator {
        ArenaAllocator::default()
    }

    /// Counters.
    pub fn stats(&self) -> ArenaStats {
        let mut s = ArenaStats {
            large_objects: self.large.len(),
            ..ArenaStats::default()
        };
        for a in self.arenas.iter().flatten() {
            s.arenas += 1;
            s.used_pools += a.used_pools;
            s.free_pools += POOLS_PER_ARENA - a.used_pools;
        }
        s
    }

    /// Total mapped bytes (arenas + large mappings).
    pub fn committed(&self) -> u64 {
        cast::to_u64(self.arenas.iter().flatten().count()) * ARENA_SIZE
            + self.large.values().sum::<u64>()
    }

    /// Allocates `size` bytes; touches the backing page(s).
    pub fn alloc(
        &mut self,
        sys: &mut System,
        pid: Pid,
        size: u32,
    ) -> SimOsResult<VirtAddr> {
        if size > SMALL_THRESHOLD {
            let len = page_align_up(u64::from(size));
            let addr = sys.mmap_named(pid, len, MappingKind::Anonymous, Prot::ReadWrite, "[pymalloc:large]")?;
            sys.touch(pid, addr, len, true)?;
            self.large.insert(addr.0, len);
            return Ok(addr);
        }
        let class = size_class(size);
        // The newest pool of the class with a free slot, else a fresh
        // pool.
        let (ai, pi) = match self.partial.get(&class).and_then(|list| list.last()) {
            Some(&at) => at,
            None => {
                let at = self.open_pool(sys, pid, class)?;
                self.partial.entry(class).or_default().push(at);
                at
            }
        };
        let arena = self.arena_mut(ai);
        let base = arena.addr;
        let pool = arena.pool_mut(pi);
        let slot = pool.free_slots.pop().expect("a pool on offer has a free slot"); // tidy:allow(panic-reachability) -- only fresh pools and the partial lists are offered, and both hold pools with a free slot
        pool.used += 1;
        if pool.free_slots.is_empty() {
            self.partial.entry(class).or_default().pop();
        }
        let addr = base.offset(cast::to_u64(pi) * POOL_SIZE + u64::from(slot) * u64::from(class));
        let page = VirtAddr(addr.0 / PAGE_SIZE * PAGE_SIZE);
        sys.touch(pid, page, PAGE_SIZE, true)?;
        Ok(addr)
    }

    /// Arena slot `ai`, mapped or unmapped: the one place an arena
    /// index is checked.
    fn arena_slot(&mut self, ai: usize) -> &mut Option<Arena> {
        &mut self.arenas[ai] // tidy:allow(panic-reachability) -- arena indices come from by_addr and the partial lists, which hold only indices map_arena returned
    }

    /// The mapped arena at `ai`.
    fn arena_mut(&mut self, ai: usize) -> &mut Arena {
        self.arena_slot(ai).as_mut().expect("arena index names a mapped arena") // tidy:allow(panic-reachability) -- an unmapped arena leaves by_addr and the partial lists in the same step
    }

    /// Puts a fresh `class` pool in the first free pool of the first
    /// arena with one, mapping a new arena when none has.
    fn open_pool(&mut self, sys: &mut System, pid: Pid, class: u32) -> SimOsResult<(usize, usize)> {
        let with_room = self
            .arenas
            .iter()
            .position(|a| a.as_ref().is_some_and(|a| a.used_pools < POOLS_PER_ARENA));
        let ai = match with_room {
            Some(ai) => ai,
            None => self.map_arena(sys, pid)?,
        };
        let arena = self.arena_mut(ai);
        let (pi, free) = arena
            .pools
            .iter_mut()
            .enumerate()
            .find(|(_, pool)| pool.is_none())
            .expect("used_pools below capacity implies a free pool"); // tidy:allow(panic-reachability) -- used_pools counts the Some slots of the arena's pools table
        *free = Some(Pool::new(class));
        arena.used_pools += 1;
        Ok((ai, pi))
    }

    fn map_arena(&mut self, sys: &mut System, pid: Pid) -> SimOsResult<usize> {
        let addr = sys.mmap_named(
            pid,
            ARENA_SIZE,
            MappingKind::Anonymous,
            Prot::ReadWrite,
            "[pymalloc:arena]",
        )?;
        let arena = Arena {
            addr,
            pools: vec![None; POOLS_PER_ARENA],
            used_pools: 0,
        };
        let ai = self.arenas.len();
        self.by_addr.insert(addr.0, ai);
        self.arenas.push(Some(arena));
        Ok(ai)
    }

    /// Frees the object at `addr` of request size `size`.
    ///
    /// Implements stock CPython's release policy: an emptied pool joins
    /// the arena's free list; an emptied *arena* is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not returned by this allocator (heap
    /// corruption in a real runtime).
    pub fn free(&mut self, sys: &mut System, pid: Pid, addr: VirtAddr, size: u32) -> SimOsResult<()> {
        if size > SMALL_THRESHOLD {
            self.large
                .remove(&addr.0)
                .expect("freeing unknown large object"); // tidy:allow(panic-reachability) -- documented panic: callers free only addresses this allocator returned
            sys.munmap(pid, addr)?;
            return Ok(());
        }
        let class = size_class(size);
        let (&base, &ai) = self
            .by_addr
            .range(..=addr.0)
            .next_back()
            .expect("freeing address below every arena"); // tidy:allow(panic-reachability) -- documented panic: callers free only addresses this allocator returned
        assert!(
            addr.0 < base + ARENA_SIZE,
            "freeing address outside any arena"
        );
        let arena = self.arena_mut(ai);
        let offset = addr.0 - base;
        let pi = cast::to_usize(offset / POOL_SIZE);
        let pool = arena.pool_mut(pi);
        assert_eq!(pool.class, class, "size class mismatch on free");
        let slot = cast::to_u16((offset % POOL_SIZE) / u64::from(class));
        debug_assert!(!pool.free_slots.contains(&slot), "double free");
        pool.free_slots.push(slot);
        pool.used -= 1;
        if pool.used == 0 {
            // Pool dissolves back into the arena.
            *arena.pool_slot(pi) = None;
            arena.used_pools -= 1;
            let emptied = arena.is_empty();
            if let Some(list) = self.partial.get_mut(&class) {
                list.retain(|&(a, p)| !(a == ai && p == pi));
            }
            if emptied {
                // Stock behaviour: only a fully-empty arena returns its
                // memory.
                *self.arena_slot(ai) = None;
                self.by_addr.remove(&base);
                sys.munmap(pid, VirtAddr(base))?;
            }
        } else if pool.free_slots.len() == 1 {
            // First free slot: the pool is partial again.
            self.partial.entry(class).or_default().push((ai, pi));
        }
        Ok(())
    }

    /// The Desiccant extension: releases the pages of every *free pool*
    /// inside still-mapped arenas (stock CPython keeps them resident
    /// until the whole arena empties). Returns released bytes.
    pub fn release_free_pages(&mut self, sys: &mut System, pid: Pid) -> SimOsResult<u64> {
        let mut released = 0;
        for arena in self.arenas.iter().flatten() {
            for (pi, pool) in arena.pools.iter().enumerate() {
                if pool.is_none() {
                    released += sys.release(pid, arena.addr.offset(cast::to_u64(pi) * POOL_SIZE), POOL_SIZE)?;
                }
            }
        }
        Ok(released)
    }

    /// Resident bytes across arenas and large mappings.
    pub fn resident_bytes(&self, sys: &System, pid: Pid) -> u64 {
        let mut total = 0;
        for arena in self.arenas.iter().flatten() {
            total += sys.pmap(pid, arena.addr, ARENA_SIZE).unwrap_or(0);
        }
        for (&addr, &len) in &self.large {
            total += sys.pmap(pid, VirtAddr(addr), len).unwrap_or(0);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (System, Pid, ArenaAllocator) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        (sys, pid, ArenaAllocator::new())
    }

    #[test]
    fn size_classes_are_pow2_min16() {
        assert_eq!(size_class(1), 16);
        assert_eq!(size_class(16), 16);
        assert_eq!(size_class(17), 32);
        assert_eq!(size_class(511), 512);
    }

    #[test]
    fn small_objects_pack_into_one_pool() {
        let (mut sys, pid, mut a) = world();
        let first = a.alloc(&mut sys, pid, 64).unwrap();
        let mut last = first;
        for _ in 1..(POOL_SIZE / 64) {
            last = a.alloc(&mut sys, pid, 64).unwrap();
        }
        // All within the same pool page.
        assert_eq!(first.0 / POOL_SIZE, last.0 / POOL_SIZE);
        assert_eq!(a.stats().used_pools, 1);
        // One more spills into a second pool.
        a.alloc(&mut sys, pid, 64).unwrap();
        assert_eq!(a.stats().used_pools, 2);
    }

    #[test]
    fn arena_unmaps_only_when_fully_empty() {
        let (mut sys, pid, mut a) = world();
        let x = a.alloc(&mut sys, pid, 64).unwrap();
        let y = a.alloc(&mut sys, pid, 2048).unwrap();
        assert_eq!(a.stats().arenas, 1);
        a.free(&mut sys, pid, x, 64).unwrap();
        // One object still pins the arena.
        assert_eq!(a.stats().arenas, 1);
        assert!(a.committed() == ARENA_SIZE);
        a.free(&mut sys, pid, y, 2048).unwrap();
        assert_eq!(a.stats().arenas, 0);
        assert_eq!(a.committed(), 0);
    }

    #[test]
    fn freed_pool_pages_stay_resident_until_reclaim() {
        let (mut sys, pid, mut a) = world();
        // Fill several pools, then free all but one object.
        let keep = a.alloc(&mut sys, pid, 128).unwrap();
        let mut trash = Vec::new();
        for _ in 0..200 {
            trash.push(a.alloc(&mut sys, pid, 128).unwrap());
        }
        for t in trash {
            a.free(&mut sys, pid, t, 128).unwrap();
        }
        let resident_before = a.resident_bytes(&sys, pid);
        assert!(resident_before > POOL_SIZE, "garbage pages stayed resident");
        let released = a.release_free_pages(&mut sys, pid).unwrap();
        assert!(released > 0);
        let resident_after = a.resident_bytes(&sys, pid);
        assert_eq!(resident_after, POOL_SIZE, "only the keeper's pool remains");
        let _ = keep;
    }

    #[test]
    fn large_objects_get_their_own_mapping_and_free_immediately() {
        let (mut sys, pid, mut a) = world();
        let big = a.alloc(&mut sys, pid, 100_000).unwrap();
        assert_eq!(a.stats().large_objects, 1);
        assert!(a.committed() >= 100_000);
        a.free(&mut sys, pid, big, 100_000).unwrap();
        assert_eq!(a.stats().large_objects, 0);
        assert_eq!(a.committed(), 0);
    }

    #[test]
    fn slots_are_reused_after_free() {
        let (mut sys, pid, mut a) = world();
        let x = a.alloc(&mut sys, pid, 256).unwrap();
        let y = a.alloc(&mut sys, pid, 256).unwrap();
        a.free(&mut sys, pid, x, 256).unwrap();
        let z = a.alloc(&mut sys, pid, 256).unwrap();
        assert_eq!(x, z, "freed slot is recycled first");
        let _ = y;
    }

    #[test]
    #[should_panic(expected = "size class mismatch")]
    fn wrong_size_free_panics() {
        let (mut sys, pid, mut a) = world();
        let x = a.alloc(&mut sys, pid, 256).unwrap();
        a.free(&mut sys, pid, x, 64).unwrap();
    }
}
