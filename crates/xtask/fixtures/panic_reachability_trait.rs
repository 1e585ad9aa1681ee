//! Seeded violation: the platform drain reclaims a heap through a
//! façade whose per-arm delegation is a `macro_rules!` match, into the
//! provided `ManagedHeap::reclaim`, whose `release_free` hook indexes
//! bare. The only path from a root to the index runs through the
//! trait's default body. The self-test scans this as
//! `crates/faas/src/platform.rs` so both declared `Platform` roots
//! resolve.

impl Platform {
    pub fn try_run_until(&mut self) -> Result<(), HeapError> {
        self.heap.reclaim(&mut self.sys, true)?;
        Ok(())
    }

    pub fn run_until(&mut self) {
        let _ = self.try_run_until();
    }
}

macro_rules! each_heap {
    ($heap:expr, $h:ident => $body:expr) => {
        match $heap {
            RuntimeHeap::HotSpot($h) => $body,
        }
    };
}

impl RuntimeHeap {
    pub fn reclaim(&mut self, sys: &mut System, keep_weak: bool) -> Result<ReclaimOutcome, HeapError> {
        each_heap!(self, h => h.reclaim(sys, keep_weak))
    }
}

pub trait ManagedHeap {
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError>;

    fn reclaim(&mut self, sys: &mut System, keep_weak: bool) -> Result<ReclaimOutcome, HeapError> {
        let _ = keep_weak;
        let released_bytes = self.release_free(sys)?;
        Ok(ReclaimOutcome { released_bytes })
    }
}

impl ManagedHeap for HotSpotHeap {
    fn release_free(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        Ok(sys.release(self.regions[0])?)
    }
}
