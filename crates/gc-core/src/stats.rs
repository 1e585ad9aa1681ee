//! GC statistics shared by both runtime models.

use simos::SimDuration;

/// Which collection cycle ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Young-generation collection (scavenge / minor GC).
    Young,
    /// Full collection (old GC / major GC); collects both generations.
    Full,
}

/// Cumulative collector counters for one runtime instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcCounters {
    /// Young collections performed.
    pub young_collections: u64,
    /// Full collections performed.
    pub full_collections: u64,
    /// Bytes copied by evacuating collections.
    pub bytes_copied: u64,
    /// Bytes promoted into the old generation.
    pub bytes_promoted: u64,
    /// Bytes of garbage reclaimed (swept or left behind by copies).
    pub bytes_freed: u64,
    /// Total simulated GC pause time.
    pub pause_time: SimDuration,
}

impl GcCounters {
    /// Records one collection.
    pub fn record(
        &mut self,
        kind: GcKind,
        copied: u64,
        promoted: u64,
        freed: u64,
        pause: SimDuration,
    ) {
        match kind {
            GcKind::Young => self.young_collections += 1,
            GcKind::Full => self.full_collections += 1,
        }
        self.bytes_copied += copied;
        self.bytes_promoted += promoted;
        self.bytes_freed += freed;
        self.pause_time += pause;
    }
}

/// Cost constants converting GC work into simulated pause time.
///
/// Tracing collectors cost time proportional to the live set they
/// visit, plus copy bandwidth for evacuated bytes — the very property
/// Desiccant's estimator leans on (§4.5.2: "their cost is proportional
/// to the number of live bytes").
#[derive(Debug, Clone, Copy)]
pub struct GcCostModel {
    /// Cost per live object visited while marking.
    pub per_object_mark: SimDuration,
    /// Cost per byte copied or compacted.
    pub per_byte_copy_ns: f64,
    /// Fixed pause floor per young collection (root scanning,
    /// safepoint).
    pub pause_floor: SimDuration,
    /// Fixed pause floor per full collection (whole-heap sweep setup,
    /// card-table clearing, resize `mmap` work). This is what makes the
    /// eager baseline's per-exit `System.gc()` visibly expensive in CPU
    /// terms (§5.3).
    pub full_pause_floor: SimDuration,
}

impl Default for GcCostModel {
    /// Roughly serial-GC-on-one-core magnitudes: ~60 ns per marked
    /// object, ~0.12 ns per copied byte (≈8 GiB/s memcpy), 150 µs
    /// safepoint floor for scavenges, 8 ms floor for full collections.
    fn default() -> GcCostModel {
        GcCostModel {
            per_object_mark: SimDuration::from_nanos(60),
            per_byte_copy_ns: 0.12,
            pause_floor: SimDuration::from_micros(150),
            full_pause_floor: SimDuration::from_millis(8),
        }
    }
}

impl GcCostModel {
    /// Pause time for a young collection that marked `live_objects`
    /// and copied `copied_bytes`.
    pub fn pause(&self, live_objects: u64, copied_bytes: u64) -> SimDuration {
        let copy_ns = (copied_bytes as f64 * self.per_byte_copy_ns).round() as u64;
        self.pause_floor + self.per_object_mark * live_objects + SimDuration::from_nanos(copy_ns)
    }

    /// Pause time for a full collection.
    pub fn full_pause(&self, live_objects: u64, copied_bytes: u64) -> SimDuration {
        let copy_ns = (copied_bytes as f64 * self.per_byte_copy_ns).round() as u64;
        self.full_pause_floor
            + self.per_object_mark * live_objects
            + SimDuration::from_nanos(copy_ns)
    }
}

snapshot::record!(GcCounters {
    young_collections: u64,
    full_collections: u64,
    bytes_copied: u64,
    bytes_promoted: u64,
    bytes_freed: u64,
    pause_time: SimDuration,
});

snapshot::record!(GcCostModel {
    per_object_mark: SimDuration,
    per_byte_copy_ns: f64,
    pause_floor: SimDuration,
    full_pause_floor: SimDuration,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_kind() {
        let mut c = GcCounters::default();
        c.record(GcKind::Young, 100, 10, 1000, SimDuration::from_micros(200));
        c.record(GcKind::Full, 0, 0, 5000, SimDuration::from_millis(2));
        assert_eq!(c.young_collections, 1);
        assert_eq!(c.full_collections, 1);
        assert_eq!(c.bytes_freed, 6000);
        assert_eq!(c.pause_time, SimDuration::from_micros(2200));
    }

    #[test]
    fn pause_scales_with_live_set_not_heap() {
        let m = GcCostModel::default();
        let small = m.pause(1_000, 1 << 20);
        let large = m.pause(100_000, 100 << 20);
        assert!(large > small * 10);
        // The floor dominates an empty collection.
        assert_eq!(m.pause(0, 0), m.pause_floor);
    }
}
