//! Seeded violation: a canonical-byte sink (`digest`) transitively
//! calls an f64 accumulation over unordered map iteration. The
//! self-test scans this as a gc-core source, which is in the
//! determinism-dataflow scope.

impl HeapStats {
    fn digest(&self) -> u64 {
        self.total_load().to_bits()
    }

    fn total_load(&self) -> f64 {
        let mut acc = 0.0f64;
        for v in self.per_class.values() {
            acc += v;
        }
        acc
    }
}
