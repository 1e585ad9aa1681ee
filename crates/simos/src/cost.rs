//! Latency cost model for memory events.
//!
//! The paper's §5.6 quantifies the price of giving pages back: after a
//! reclamation the next executions re-fault released pages (≈8.3 % mean
//! overhead), and the swap baseline is far worse (2.37× slower for
//! `sort`) because swap-ins hit the device. This module centralizes
//! those unit costs so the simulation charges them consistently.

use crate::clock::SimDuration;
use crate::error::SimOsResult;
use crate::mem::{page_align_up, TouchOutcome, VirtAddr, PAGE_SIZE};
use crate::system::{Pid, System};

/// Unit costs of memory events.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost to zero-fill-fault one anonymous page.
    pub zero_fill_fault: SimDuration,
    /// Cost to fault one file page from the page cache.
    pub file_fault: SimDuration,
    /// Cost to bring one page back from the swap device.
    pub swap_in: SimDuration,
    /// CPU cost (per page) of releasing pages back to the OS.
    pub release_per_page: SimDuration,
}

impl Default for CostModel {
    /// Defaults roughly matching a 2019-era Xeon server with SSD swap:
    /// ~1.5 µs zero-fill, ~0.8 µs minor file fault, ~25 µs swap-in, and
    /// ~0.3 µs per released page (`madvise` batching amortized).
    fn default() -> CostModel {
        CostModel {
            zero_fill_fault: SimDuration::from_nanos(1_500),
            file_fault: SimDuration::from_nanos(800),
            swap_in: SimDuration::from_micros(25),
            release_per_page: SimDuration::from_nanos(300),
        }
    }
}

impl CostModel {
    /// Total latency charged for a touch outcome.
    pub fn touch_cost(&self, out: TouchOutcome) -> SimDuration {
        self.zero_fill_fault * out.zero_fill_faults
            + self.file_fault * out.file_faults
            + self.swap_in * out.swap_ins
    }

    /// Writes `len` bytes at `addr` in `pid`: every page the range
    /// overlaps is touched, and the faults it takes are returned as
    /// latency. An empty range touches nothing. This is the one
    /// page-touch charge the heap models use for allocation and for
    /// evacuation copies.
    pub fn charge_touch(&self, sys: &mut System, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<SimDuration> {
        if len == 0 {
            return Ok(SimDuration::ZERO);
        }
        let start = addr.0 / PAGE_SIZE * PAGE_SIZE;
        let out = sys.touch(pid, VirtAddr(start), page_align_up(addr.0 + len) - start, true)?;
        Ok(self.touch_cost(out))
    }

    /// Latency charged for releasing `bytes` back to the OS.
    pub fn release_cost(&self, bytes: u64) -> SimDuration {
        self.release_per_page * (bytes / PAGE_SIZE)
    }
}

snapshot::record!(CostModel {
    zero_fill_fault: SimDuration,
    file_fault: SimDuration,
    swap_in: SimDuration,
    release_per_page: SimDuration,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_cost_weights_fault_kinds() {
        let m = CostModel::default();
        let out = TouchOutcome {
            zero_fill_faults: 10,
            file_faults: 5,
            swap_ins: 2,
        };
        let expected = m.zero_fill_fault * 10 + m.file_fault * 5 + m.swap_in * 2;
        assert_eq!(m.touch_cost(out), expected);
    }

    #[test]
    fn swap_in_dominates_refault() {
        let m = CostModel::default();
        assert!(m.swap_in > m.zero_fill_fault * 10);
    }

    #[test]
    fn release_cost_scales_with_pages() {
        let m = CostModel::default();
        assert_eq!(
            m.release_cost(crate::mem::PAGE_SIZE * 100),
            m.release_per_page * 100
        );
        assert_eq!(m.release_cost(0), SimDuration::ZERO);
    }
}
