//! Serial-GC configuration, mirroring the HotSpot flags that matter.

/// Configuration of a [`crate::HotSpotHeap`].
///
/// Field names follow the HotSpot flags they model. The defaults of
/// [`HotSpotConfig::for_budget`] reproduce the Lambda-like setup the
/// paper uses: heap capped at a fraction of the instance memory budget,
/// serial GC with `NewRatio=2` and `SurvivorRatio=8`.
#[derive(Debug, Clone, Copy)]
pub struct HotSpotConfig {
    /// Reserved heap size (`-Xmx`).
    pub max_heap: u64,
    /// Initially committed heap size (`-Xms` analogue; serial GC
    /// commits this much at start).
    pub initial_heap: u64,
    /// `NewRatio`: old:young reserved-size ratio.
    pub new_ratio: u64,
    /// `SurvivorRatio`: eden:survivor size ratio.
    pub survivor_ratio: u64,
    /// `MaxTenuringThreshold`: young-GC survivals before promotion.
    pub tenure_threshold: u8,
    /// `MinHeapFreeRatio`: expand if free ratio drops below this.
    pub min_heap_free_ratio: f64,
    /// `MaxHeapFreeRatio`: shrink if free ratio rises above this.
    pub max_heap_free_ratio: f64,
    /// Commit granularity for expand/shrink operations.
    pub commit_granule: u64,
    /// Minimum committed size per generation.
    pub min_gen_committed: u64,
}

impl HotSpotConfig {
    /// Builds the Lambda-like configuration for an instance with
    /// `budget` bytes of memory: the heap gets 80 % of the budget (the
    /// rest is native memory: metaspace, code cache, malloc arenas),
    /// and starts at 1/16 of the budget like a small `-Xms`.
    pub fn for_budget(budget: u64) -> HotSpotConfig {
        let granule = 64 << 10;
        let max_heap = budget / 5 * 4 / granule * granule;
        HotSpotConfig {
            max_heap,
            initial_heap: (budget / 16).max(8 << 20).min(max_heap),
            new_ratio: 2,
            survivor_ratio: 8,
            tenure_threshold: 6,
            min_heap_free_ratio: 0.40,
            max_heap_free_ratio: 0.70,
            commit_granule: 64 << 10,
            min_gen_committed: 1 << 20,
        }
    }

    /// Rounds `bytes` up to the commit granule.
    pub fn granule_up(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.commit_granule) * self.commit_granule
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero sizes, inverted free
    /// ratios); these are programming errors, not runtime conditions.
    pub fn validate(&self) {
        assert!(self.max_heap >= self.initial_heap);
        assert!(self.initial_heap >= 2 * self.min_gen_committed);
        assert!(self.new_ratio >= 1);
        assert!(self.survivor_ratio >= 1);
        assert!(
            self.min_heap_free_ratio < self.max_heap_free_ratio
                && self.max_heap_free_ratio < 1.0,
            "free ratios must satisfy 0 <= min < max < 1"
        );
        assert!(self.commit_granule.is_power_of_two());
        assert!(self.commit_granule.is_multiple_of(simos::PAGE_SIZE));
        assert!(
            self.max_heap.is_multiple_of(self.commit_granule),
            "max_heap must be granule-aligned"
        );
    }
}

snapshot::record!(HotSpotConfig {
    max_heap: u64,
    initial_heap: u64,
    new_ratio: u64,
    survivor_ratio: u64,
    tenure_threshold: u8,
    min_heap_free_ratio: f64,
    max_heap_free_ratio: f64,
    commit_granule: u64,
    min_gen_committed: u64,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_budget_is_valid_across_settings() {
        // The paper's three memory settings (Fig. 4/12).
        for budget in [256u64 << 20, 512 << 20, 1 << 30] {
            let c = HotSpotConfig::for_budget(budget);
            c.validate();
            assert!(c.max_heap < budget);
            assert!(c.initial_heap <= c.max_heap);
        }
    }

    #[test]
    fn granule_rounding() {
        let c = HotSpotConfig::for_budget(256 << 20);
        assert_eq!(c.granule_up(1), c.commit_granule);
        assert_eq!(c.granule_up(c.commit_granule), c.commit_granule);
        assert_eq!(c.granule_up(c.commit_granule + 1), 2 * c.commit_granule);
    }

    #[test]
    #[should_panic(expected = "free ratios")]
    fn inverted_free_ratios_panic() {
        let mut c = HotSpotConfig::for_budget(256 << 20);
        c.min_heap_free_ratio = 0.9;
        c.validate();
    }
}
