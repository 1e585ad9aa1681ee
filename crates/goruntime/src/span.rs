//! Spans: the unit of Go's heap bookkeeping.

use simos::cast;
use simos::VirtAddr;

/// Go's runtime page size (8 KiB).
pub const GO_PAGE_SIZE: u64 = 8 << 10;

/// Heap arena size (Go uses 64 MiB on linux/amd64; scaled to 4 MiB to
/// keep instance sizes in the simulation's range).
pub const GO_ARENA_SIZE: u64 = 4 << 20;

/// Largest size served from shared size-class spans; bigger objects get
/// a dedicated span (Go's threshold is 32 KiB).
pub const MAX_SMALL_SIZE: u32 = 32 << 10;

/// Identifies a span in the heap's span arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The span-arena index this id names.
    pub fn index(self) -> usize {
        cast::to_usize(self.0)
    }
}

/// Rounds a request up to its size class (powers of two from 16 bytes,
/// standing in for Go's 67-entry sizeclass table).
pub fn size_class(size: u32) -> u32 {
    size.max(16).next_power_of_two()
}

/// Pages a size-class span occupies: enough for at least four objects,
/// at least one Go page.
pub fn span_pages(class: u32) -> u32 {
    let want = 4 * u64::from(class);
    cast::to_u32(want.div_ceil(GO_PAGE_SIZE).max(1))
}

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// First address.
    pub start: VirtAddr,
    /// Length in Go pages.
    pub pages: u32,
    /// Size class served (0 for a dedicated large-object span).
    pub class: u32,
    /// Free slot indices.
    pub free_slots: Vec<u16>,
    /// Allocated slots.
    pub used: u16,
}

impl Span {
    /// Creates a size-class span with all slots free.
    pub fn for_class(start: VirtAddr, class: u32) -> Span {
        let pages = span_pages(class);
        let capacity = cast::to_u16(u64::from(pages) * GO_PAGE_SIZE / u64::from(class));
        Span {
            start,
            pages,
            class,
            free_slots: (0..capacity).rev().collect(),
            used: 0,
        }
    }

    /// Creates a dedicated large-object span.
    pub fn large(start: VirtAddr, pages: u32) -> Span {
        Span {
            start,
            pages,
            class: 0,
            free_slots: Vec::new(),
            used: 1,
        }
    }

    /// Span length in bytes.
    pub fn len(&self) -> u64 {
        u64::from(self.pages) * GO_PAGE_SIZE
    }

    /// True for zero-length spans (never constructed).
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// True when no object lives in the span.
    pub fn is_free(&self) -> bool {
        self.used == 0
    }

    /// Address of slot `i`.
    pub fn slot_addr(&self, slot: u16) -> VirtAddr {
        self.start.offset(u64::from(slot) * u64::from(self.class))
    }

    /// Takes a free slot; returns its address and whether the span
    /// still has free slots.
    pub fn take_slot(&mut self) -> (VirtAddr, bool) {
        let slot = self.free_slots.pop().expect("a span on offer has a free slot"); // tidy:allow(panic-reachability) -- the heap offers only fresh spans and the partial lists, which hold spans with a free slot
        self.used += 1;
        (self.slot_addr(slot), !self.free_slots.is_empty())
    }

    /// Slot index of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the span or the span is large.
    pub fn slot_of(&self, addr: VirtAddr) -> u16 {
        assert!(self.class > 0, "large spans have no slots");
        assert!(addr >= self.start && addr.0 < self.start.0 + self.len());
        cast::to_u16((addr.0 - self.start.0) / u64::from(self.class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_pages_fit_at_least_four_objects() {
        for class in [16u32, 512, 4096, 32768] {
            let pages = span_pages(class);
            assert!(pages as u64 * GO_PAGE_SIZE >= 4 * class as u64, "class {class}");
        }
        assert_eq!(span_pages(16), 1);
        assert_eq!(span_pages(32 << 10), 16);
    }

    #[test]
    fn class_span_slots_round_trip() {
        let s = Span::for_class(VirtAddr(0x1000_0000), 1024);
        assert_eq!(s.free_slots.len() as u64, s.len() / 1024);
        let a = s.slot_addr(3);
        assert_eq!(s.slot_of(a), 3);
    }

    #[test]
    fn large_span_is_born_used() {
        let s = Span::large(VirtAddr(0x2000_0000), 10);
        assert!(!s.is_free());
        assert_eq!(s.len(), 10 * GO_PAGE_SIZE);
    }
}
