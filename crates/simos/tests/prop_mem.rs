//! Property tests for the simulated virtual-memory model.
//!
//! These drive random sequences of memory operations against a single
//! mapping and check the accounting invariants that the rest of the
//! reproduction depends on: metric ordering (USS ≤ PSS ≤ RSS),
//! conservation of resident pages, and refault behaviour after release.

use proptest::prelude::*;
use proptest::TestCaseResult;
use simos::mem::{MappingKind, Prot, PAGE_SIZE};
use simos::metrics;
use simos::System;

const NPAGES: u64 = 64;

/// A random operation against the test mapping.
#[derive(Debug, Clone)]
enum Op {
    Touch { first: u64, count: u64, write: bool },
    Release { first: u64, count: u64 },
    SwapOut { first: u64, count: u64 },
    ProtNone { first: u64, count: u64 },
    ProtRw { first: u64, count: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let range = (0..NPAGES, 1..=NPAGES).prop_map(|(first, count)| {
        let first = first.min(NPAGES - 1);
        let count = count.min(NPAGES - first);
        (first, count)
    });
    prop_oneof![
        (range.clone(), any::<bool>()).prop_map(|((first, count), write)| Op::Touch {
            first,
            count,
            write
        }),
        range.clone().prop_map(|(first, count)| Op::Release { first, count }),
        range.clone().prop_map(|(first, count)| Op::SwapOut { first, count }),
        range.clone().prop_map(|(first, count)| Op::ProtNone { first, count }),
        range.prop_map(|(first, count)| Op::ProtRw { first, count }),
    ]
}

fn apply(sys: &mut System, pid: simos::Pid, base: simos::VirtAddr, op: &Op) {
    let addr = |first: u64| base.offset(first * PAGE_SIZE);
    match *op {
        Op::Touch { first, count, write } => {
            // A touch may legitimately fail on a PROT_NONE range.
            let _ = sys.touch(pid, addr(first), count * PAGE_SIZE, write);
        }
        Op::Release { first, count } => {
            sys.release(pid, addr(first), count * PAGE_SIZE).unwrap();
        }
        Op::SwapOut { first, count } => {
            sys.swap_out(pid, addr(first), count * PAGE_SIZE).unwrap();
        }
        Op::ProtNone { first, count } => {
            sys.mprotect(pid, addr(first), count * PAGE_SIZE, Prot::None)
                .unwrap();
        }
        Op::ProtRw { first, count } => {
            sys.mprotect(pid, addr(first), count * PAGE_SIZE, Prot::ReadWrite)
                .unwrap();
        }
    }
}

proptest! {
    /// USS ≤ PSS ≤ RSS after any operation sequence, and RSS never
    /// exceeds the mapping size.
    #[test]
    fn metric_ordering_holds(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let base = sys
            .mmap(pid, NPAGES * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        for op in &ops {
            apply(&mut sys, pid, base, op);
            let (u, p, r) = (
                metrics::uss(&sys, pid) as f64,
                metrics::pss(&sys, pid),
                metrics::rss(&sys, pid) as f64,
            );
            prop_assert!(u <= p + 1e-6, "USS {u} > PSS {p}");
            prop_assert!(p <= r + 1e-6, "PSS {p} > RSS {r}");
            prop_assert!(r <= (NPAGES * PAGE_SIZE) as f64);
        }
    }

    /// A page is never simultaneously resident and swapped; resident +
    /// swapped never exceeds the mapping size.
    #[test]
    fn resident_and_swap_are_disjoint(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let base = sys
            .mmap(pid, NPAGES * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        for op in &ops {
            apply(&mut sys, pid, base, op);
            let space = sys.space(pid).unwrap();
            let m = space.mapping_at(base).unwrap();
            for idx in 0..m.page_count() {
                let flags = m.page(idx);
                let resident = flags & simos::mem::page_flags::RESIDENT != 0;
                let swapped = flags & simos::mem::page_flags::SWAPPED != 0;
                prop_assert!(!(resident && swapped), "page {idx} both resident and swapped");
            }
            prop_assert!(m.resident_bytes() + m.swapped_bytes() <= NPAGES * PAGE_SIZE);
        }
    }

    /// After a full-range release, RSS of the mapping is exactly zero
    /// and a full touch faults every page exactly once.
    #[test]
    fn release_then_touch_faults_every_page(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let base = sys
            .mmap(pid, NPAGES * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        for op in &ops {
            apply(&mut sys, pid, base, op);
        }
        // Normalize protection, then release everything.
        sys.mprotect(pid, base, NPAGES * PAGE_SIZE, Prot::ReadWrite).unwrap();
        sys.release(pid, base, NPAGES * PAGE_SIZE).unwrap();
        prop_assert_eq!(metrics::rss(&sys, pid), 0);
        let out = sys.touch(pid, base, NPAGES * PAGE_SIZE, true).unwrap();
        prop_assert_eq!(out.zero_fill_faults, NPAGES);
        prop_assert_eq!(out.swap_ins, 0);
    }

    #[test]
    fn page_cache_refcounts_consistent(
        ops1 in prop::collection::vec(op_strategy(), 1..30),
        ops2 in prop::collection::vec(op_strategy(), 1..30),
        kill_first in any::<bool>(),
    ) {
        page_cache_refcounts_consistent_on(&ops1, &ops2, kill_first)?;
    }
}

/// Page-cache mapper counts stay consistent when two processes map and
/// unmap the same library under random per-process operations.
fn page_cache_refcounts_consistent_on(ops1: &[Op], ops2: &[Op], kill_first: bool) -> TestCaseResult {
    let mut sys = System::new();
    let lib = sys.register_file("libtest.so", NPAGES * PAGE_SIZE);
    let p1 = sys.spawn_process();
    let p2 = sys.spawn_process();
    let a1 = sys.mmap_lib(p1, lib).unwrap();
    let a2 = sys.mmap_lib(p2, lib).unwrap();
    for op in ops1 {
        apply(&mut sys, p1, a1, op);
    }
    for op in ops2 {
        apply(&mut sys, p2, a2, op);
    }
    if kill_first {
        sys.kill_process(p1).unwrap();
    } else {
        sys.kill_process(p2).unwrap();
    }
    sys.kill_process(if kill_first { p2 } else { p1 }).unwrap();
    // With no process left, every mapper count must be zero.
    for idx in 0..NPAGES as usize {
        prop_assert_eq!(sys.files().mapper_count(lib, idx), 0, "page {}", idx);
    }
    Ok(())
}

/// A counterexample an earlier run of the real proptest recorded: a
/// touched, swapped-out, `PROT_NONE` range partly re-opened and read.
#[test]
fn recorded_swap_and_protect_counterexample_holds() {
    let ops1 = [
        Op::Touch { first: 0, count: 24, write: true },
        Op::SwapOut { first: 0, count: 24 },
        Op::ProtNone { first: 0, count: 24 },
        Op::ProtRw { first: 14, count: 10 },
        Op::Touch { first: 14, count: 1, write: false },
    ];
    let ops2 = [Op::Touch { first: 0, count: 1, write: false }];
    page_cache_refcounts_consistent_on(&ops1, &ops2, false).unwrap();
}

/// Helper trait so the property tests can map a library writable (the
/// ops include writes, which must be legal).
trait MmapLib {
    fn mmap_lib(&mut self, pid: simos::Pid, lib: simos::FileId)
        -> simos::SimOsResult<simos::VirtAddr>;
}

impl MmapLib for System {
    fn mmap_lib(
        &mut self,
        pid: simos::Pid,
        lib: simos::FileId,
    ) -> simos::SimOsResult<simos::VirtAddr> {
        let size = self.files().size(lib);
        let addr = self.mmap_named(
            pid,
            size,
            MappingKind::PrivateFile(lib),
            Prot::ReadWrite,
            "libtest.so",
        )?;
        self.touch(pid, addr, size, false)?;
        Ok(addr)
    }
}
