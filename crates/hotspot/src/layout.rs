//! Heap geometry: where the spaces live inside the reservation.
//!
//! The serial collector's heap is one contiguous reservation (Figure 3a
//! of the paper): the young generation at the bottom and the old
//! generation above it. Within the young reservation, eden grows upward
//! from the bottom while the two survivor halves sit at *fixed*
//! addresses at the top of the reservation — so eden can be resized
//! after a young collection (as HotSpot's `DefNew::compute_new_size`
//! does) without relocating survivors. Committed sizes change over
//! time; reserved boundaries never do.

use crate::config::HotSpotConfig;
use simos::mem::page_align_up;
use simos::VirtAddr;

/// Identifies one of the four heap spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceId {
    /// Allocation space of the young generation.
    Eden,
    /// Survivor half currently holding live survivors.
    From,
    /// Survivor half serving as the copy destination.
    To,
    /// The old (tenured) generation.
    Old,
}

/// Space tags stored in [`gc_core::object::Object::space_tag`]. Eden
/// and survivor tags sit below [`gc_core::object::YOUNG_SPACE_LIMIT`],
/// so the object graph counts them as young.
pub mod tag {
    /// Object lives in eden.
    pub const EDEN: u8 = 0;
    /// Object lives in a survivor half.
    pub const SURVIVOR: u8 = 1;
    /// Object lives in the old generation.
    pub const OLD: u8 = 2;

    const _: () = assert!(SURVIVOR < gc_core::object::YOUNG_SPACE_LIMIT && OLD >= gc_core::object::YOUNG_SPACE_LIMIT);
}

/// The geometry of a heap at one point in time.
#[derive(Debug, Clone, Copy)]
pub struct HeapLayout {
    /// Start of the reservation.
    pub base: VirtAddr,
    /// Reserved bytes for the young generation.
    pub young_reserved: u64,
    /// Reserved bytes for the old generation.
    pub old_reserved: u64,
    /// Committed bytes of eden (growable).
    pub eden_committed: u64,
    /// Committed bytes of the old generation.
    pub old_committed: u64,
    /// Size of each survivor half (fixed at construction).
    pub survivor_size: u64,
    /// Which survivor half currently plays the *from* role.
    pub from_is_first: bool,
}

impl HeapLayout {
    /// Computes the initial layout for a configuration.
    pub fn new(base: VirtAddr, config: &HotSpotConfig) -> HeapLayout {
        config.validate();
        let young_reserved = config.granule_up(config.max_heap / (config.new_ratio + 1));
        let old_reserved = config.max_heap - young_reserved;
        let survivor_size = page_align_up(young_reserved / (config.survivor_ratio + 2))
            / simos::PAGE_SIZE
            * simos::PAGE_SIZE;
        let eden_committed = config
            .granule_up(config.initial_heap / (config.new_ratio + 1))
            .max(config.min_gen_committed)
            .min(young_reserved - 2 * survivor_size);
        let old_committed = config
            .granule_up(config.initial_heap - config.initial_heap / (config.new_ratio + 1))
            .max(config.min_gen_committed)
            .min(old_reserved);
        HeapLayout {
            base,
            young_reserved,
            old_reserved,
            eden_committed,
            old_committed,
            survivor_size,
            from_is_first: true,
        }
    }

    /// Total reserved bytes.
    pub fn reserved(&self) -> u64 {
        self.young_reserved + self.old_reserved
    }

    /// Total committed bytes (the "heap size" the paper plots).
    pub fn committed(&self) -> u64 {
        self.eden_committed + 2 * self.survivor_size + self.old_committed
    }

    /// Size of one survivor half.
    pub fn survivor_size(&self) -> u64 {
        self.survivor_size
    }

    /// Committed size of eden.
    pub fn eden_size(&self) -> u64 {
        self.eden_committed
    }

    /// Maximum committed size eden can grow to.
    pub fn eden_max(&self) -> u64 {
        self.young_reserved - 2 * self.survivor_size
    }

    /// `[start, len)` of a space at the current geometry.
    pub fn space_range(&self, space: SpaceId) -> (VirtAddr, u64) {
        let s = self.survivor_size;
        let s0 = self.base.offset(self.young_reserved - 2 * s);
        let s1 = self.base.offset(self.young_reserved - s);
        match space {
            SpaceId::Eden => (self.base, self.eden_committed),
            SpaceId::From => {
                if self.from_is_first {
                    (s0, s)
                } else {
                    (s1, s)
                }
            }
            SpaceId::To => {
                if self.from_is_first {
                    (s1, s)
                } else {
                    (s0, s)
                }
            }
            SpaceId::Old => (self.old_base(), self.old_committed),
        }
    }

    /// Start of the old generation's reservation.
    pub fn old_base(&self) -> VirtAddr {
        self.base.offset(self.young_reserved)
    }

    /// One-past-the-end of the reservation.
    pub fn end(&self) -> VirtAddr {
        self.base.offset(self.reserved())
    }

    /// Page-aligned committed eden range.
    pub fn eden_committed_range(&self) -> (VirtAddr, u64) {
        (self.base, page_align_up(self.eden_committed))
    }

    /// Page-aligned range covering both survivor halves.
    pub fn survivor_range(&self) -> (VirtAddr, u64) {
        (
            self.base
                .offset(self.young_reserved - 2 * self.survivor_size),
            2 * self.survivor_size,
        )
    }

    /// Page-aligned committed old range.
    pub fn old_committed_range(&self) -> (VirtAddr, u64) {
        (self.old_base(), page_align_up(self.old_committed))
    }
}

snapshot::record!(HeapLayout {
    base: VirtAddr,
    young_reserved: u64,
    old_reserved: u64,
    eden_committed: u64,
    old_committed: u64,
    survivor_size: u64,
    from_is_first: bool,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> HeapLayout {
        HeapLayout::new(VirtAddr(0x1000_0000), &HotSpotConfig::for_budget(256 << 20))
    }

    #[test]
    fn eden_and_survivors_fit_young_reservation() {
        let l = layout();
        assert!(l.eden_committed <= l.eden_max());
        assert_eq!(
            l.eden_max() + 2 * l.survivor_size,
            l.young_reserved,
            "survivors sit at the top of the young reservation"
        );
        let (from, flen) = l.space_range(SpaceId::From);
        let (to, tlen) = l.space_range(SpaceId::To);
        assert_eq!(from.0 + flen, to.0);
        assert_eq!(to.0 + tlen, l.base.0 + l.young_reserved);
    }

    #[test]
    fn from_to_swap_roles() {
        let mut l = layout();
        let from_before = l.space_range(SpaceId::From);
        l.from_is_first = !l.from_is_first;
        let to_after = l.space_range(SpaceId::To);
        assert_eq!(from_before, to_after);
    }

    #[test]
    fn eden_never_reaches_survivors() {
        let mut l = layout();
        l.eden_committed = l.eden_max();
        let (eden, elen) = l.space_range(SpaceId::Eden);
        let (s0, _) = l.survivor_range();
        assert!(eden.0 + elen <= s0.0);
    }

    #[test]
    fn old_starts_after_young_reservation() {
        let l = layout();
        assert_eq!(l.old_base().0, l.base.0 + l.young_reserved);
        assert!(l.old_committed <= l.old_reserved);
    }

    #[test]
    fn reserved_matches_config() {
        let c = HotSpotConfig::for_budget(256 << 20);
        let l = HeapLayout::new(VirtAddr(0), &c);
        assert_eq!(l.reserved(), c.max_heap);
    }

    #[test]
    fn survivor_is_page_aligned() {
        let l = layout();
        assert_eq!(l.survivor_size % simos::PAGE_SIZE, 0);
    }
}
