//! Seeded violation: a helper two hops below the platform event drain
//! unwraps. The self-test scans this as `crates/faas/src/platform.rs`
//! so both declared `Platform` roots resolve.

impl Platform {
    pub fn try_run_until(&mut self) -> Result<(), PlatformError> {
        self.drain_one();
        Ok(())
    }

    fn run_until(&mut self) {
        let _ = self.try_run_until();
    }

    fn drain_one(&mut self) {
        hot_helper(&mut self.slots);
    }
}

fn hot_helper(slots: &mut Vec<Slot>) -> u64 {
    slots.first().unwrap().id
}
