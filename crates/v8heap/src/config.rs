//! V8 heap configuration.

use simos::cast;
use simos::SimDuration;

use crate::chunk::CHUNK_SIZE;

/// Configuration of a [`crate::V8Heap`].
#[derive(Debug, Clone, Copy)]
pub struct V8Config {
    /// Upper bound on total heap size (old space + young generation).
    pub max_heap: u64,
    /// Cap on the young generation (both semispaces together). The
    /// paper observes 32 MiB for a 256 MiB budget and 128 MiB for
    /// 1 GiB — one eighth of the instance budget.
    pub young_max: u64,
    /// Initial size of the young generation (both semispaces).
    pub young_initial: u64,
    /// Allocation-rate threshold below which the young generation may
    /// shrink after a GC (bytes per second of mutator time).
    pub shrink_alloc_rate: f64,
    /// Objects at least this large go to the large-object space.
    pub large_object_threshold: u32,
    /// Minimum mutator-time window for an allocation-rate estimate; a
    /// shorter window counts as "rate unknown" (no shrink).
    pub min_rate_window: SimDuration,
}

impl V8Config {
    /// Lambda-like configuration for a `budget`-byte instance: the heap
    /// may grow to 3/4 of the budget (the rest is node's native side),
    /// the young generation caps at `budget / 8`, and starts at 1 MiB.
    pub fn for_budget(budget: u64) -> V8Config {
        V8Config {
            max_heap: budget / 4 * 3,
            young_max: (budget / 8).max(2 * CHUNK_SIZE),
            young_initial: (2 * CHUNK_SIZE).max(1 << 20),
            shrink_alloc_rate: 8.0 * (1 << 20) as f64,
            large_object_threshold: cast::to_u32(CHUNK_SIZE - simos::PAGE_SIZE) / 2,
            min_rate_window: SimDuration::from_millis(10),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations; these are programming
    /// errors.
    pub fn validate(&self) {
        assert!(self.young_initial >= 2 * CHUNK_SIZE, "young too small");
        assert!(self.young_max >= self.young_initial);
        assert!(self.max_heap > self.young_max);
        assert!(self.young_initial.is_multiple_of(2 * CHUNK_SIZE));
        assert!(u64::from(self.large_object_threshold) < CHUNK_SIZE);
    }
}

snapshot::record!(V8Config {
    max_heap: u64,
    young_max: u64,
    young_initial: u64,
    shrink_alloc_rate: f64,
    large_object_threshold: u32,
    min_rate_window: SimDuration,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_budget_matches_paper_caps() {
        let c = V8Config::for_budget(256 << 20);
        c.validate();
        assert_eq!(c.young_max, 32 << 20);
        let c = V8Config::for_budget(1 << 30);
        c.validate();
        assert_eq!(c.young_max, 128 << 20);
    }

    #[test]
    #[should_panic(expected = "young too small")]
    fn tiny_young_rejected() {
        let mut c = V8Config::for_budget(256 << 20);
        c.young_initial = CHUNK_SIZE;
        c.validate();
    }
}
