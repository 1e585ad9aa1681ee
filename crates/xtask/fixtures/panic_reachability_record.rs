//! Seeded violations: the platform drain restores a `Slot`, whose codec
//! is a `snapshot::record!` invocation, and an `Event`, whose codec is
//! the macro's enum form. The field type `Heap` and the `Grow` variant's
//! field type `Arena` each have a hand-written `restore` that indexes
//! its input bare. The only path from a root to each index runs through
//! a macro-defined `restore`. The self-test scans this as
//! `crates/faas/src/platform.rs` so both declared `Platform` roots
//! resolve.

impl Platform {
    pub fn try_run_until(&mut self) -> Result<(), SnapError> {
        let mut r = Reader::new(&self.journal);
        self.slot = Slot::restore(&mut r)?;
        self.event = Event::restore(&mut r)?;
        Ok(())
    }

    fn run_until(&mut self) {
        let _ = self.try_run_until();
    }
}

snapshot::record!(Slot { id: u64, heap: Heap });

snapshot::record!(enum Event { 0 => Sweep, 1 => Grow { id: u64, arena: Arena } });

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

impl Snapshot for Arena {
    fn snap(&self, w: &mut Writer) {
        let Self { end } = self;
        w.u8(*end);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Arena, SnapError> {
        let raw = r.take(4)?;
        Ok(Arena { end: raw[3] })
    }
}
