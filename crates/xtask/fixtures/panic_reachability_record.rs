//! Seeded violation: the platform drain restores a `Slot`, whose codec
//! is a `snapshot::record!` invocation, and the field type `Heap` has a
//! hand-written `restore` that indexes its input bare. The only path
//! from a root to the index runs through the macro-defined
//! `Slot::restore`. The self-test scans this as
//! `crates/faas/src/platform.rs` so both declared `Platform` roots
//! resolve.

impl Platform {
    pub fn try_run_until(&mut self) -> Result<(), SnapError> {
        let mut r = Reader::new(&self.journal);
        self.slot = Slot::restore(&mut r)?;
        Ok(())
    }

    fn run_until(&mut self) {
        let _ = self.try_run_until();
    }
}

snapshot::record!(Slot { id: u64, heap: Heap });

impl Snapshot for Heap {
    fn snap(&self, w: &mut Writer) {
        let Self { top } = self;
        w.u8(*top);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Heap, SnapError> {
        let raw = r.take(8)?;
        Ok(Heap { top: raw[0] })
    }
}
