//! Allow markers for the tally: two `panic-reachability` markers and
//! one `wall-clock` marker, each suppressing a real finding. The
//! self-test scans this as `crates/faas/src/platform.rs`, so both
//! declared `Platform` roots resolve.

impl Platform {
    pub fn try_run_until(&mut self) -> Result<(), PlatformError> {
        let _ = (self.slot(0).id, self.newest().id, stamp());
        Ok(())
    }

    pub fn run_until(&mut self) {
        let _ = self.try_run_until();
    }

    /// The slot table's one checked accessor.
    fn slot(&self, idx: usize) -> &Slot {
        &self.slots[idx] // tidy:allow(panic-reachability) -- fixture: slot indices come from this table
    }

    fn newest(&self) -> &Slot {
        self.slots.last().expect("never empty") // tidy:allow(panic-reachability) -- fixture: the table starts non-empty and never shrinks
    }
}

fn stamp() -> std::time::Instant {
    std::time::Instant::now() // tidy:allow(wall-clock) -- fixture: host timing only
}
