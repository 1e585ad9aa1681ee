//! Property tests for the G1-style regional collector: its collection
//! mix and its humongous runs. The laws every heap shares, `reclaim`'s
//! among them, are the conformance suite's (`tests/managed_heap.rs`).

use gc_core::object::ObjectKind;
use gc_core::trace::mark;
use gc_core::ManagedHeap;
use hotspot::g1::{G1Config, G1Heap, RegionKind, REGION_SIZE};
use proptest::prelude::*;
use proptest::TestCaseResult;
use simos::System;

#[derive(Debug, Clone)]
struct Invocation {
    temps: u8,
    size: u32,
    keeps: u8,
}

fn invocation() -> impl Strategy<Value = Invocation> {
    // Sizes from small to humongous (beyond half a region).
    (1u8..40, 1024u32..700_000, 0u8..3).prop_map(|(temps, size, keeps)| Invocation {
        temps,
        size,
        keeps,
    })
}

fn world() -> (System, G1Heap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = G1Heap::new(&mut sys, pid, G1Config::for_budget(256 << 20)).unwrap();
    (sys, heap)
}

fn run_invocation(sys: &mut System, heap: &mut G1Heap, inv: &Invocation) -> u64 {
    let scope = heap.graph_mut().push_handle_scope();
    for _ in 0..inv.temps {
        let id = heap.alloc(sys, inv.size, ObjectKind::Data).expect("fits");
        heap.graph_mut().add_handle(id);
    }
    let mut kept = 0;
    for _ in 0..inv.keeps {
        let id = heap.alloc(sys, inv.size, ObjectKind::Data).expect("fits");
        heap.graph_mut().add_global(id);
        kept += inv.size as u64;
    }
    heap.graph_mut().pop_handle_scope(scope);
    kept
}

/// Live bytes are preserved exactly across any collection mix.
fn collections_preserve_live_bytes_on(invs: &[Invocation]) -> TestCaseResult {
    let (mut sys, mut heap) = world();
    let mut kept = 0;
    for inv in invs {
        kept += run_invocation(&mut sys, &mut heap, inv);
    }
    heap.young_gc(&mut sys).unwrap();
    prop_assert_eq!(mark(heap.graph(), false, true).live_bytes, kept);
    heap.mixed_gc(&mut sys).unwrap();
    prop_assert_eq!(mark(heap.graph(), false, true).live_bytes, kept);
    heap.full_gc(&mut sys).unwrap();
    prop_assert_eq!(mark(heap.graph(), false, true).live_bytes, kept);
    Ok(())
}

/// A counterexample an earlier run of the real proptest recorded (it
/// did not say which property failed): 14 temporaries of 48,857 B,
/// then one kept 524,289 B humongous object. The conformance suite
/// runs it through the reclaim laws.
#[test]
fn recorded_humongous_counterexample_holds() {
    let invs = [
        Invocation { temps: 14, size: 48_857, keeps: 0 },
        Invocation { temps: 1, size: 524_289, keeps: 1 },
    ];
    collections_preserve_live_bytes_on(&invs).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collections_preserve_live_bytes(invs in prop::collection::vec(invocation(), 1..5)) {
        collections_preserve_live_bytes_on(&invs)?;
    }

    /// Humongous allocations always occupy whole contiguous region runs
    /// sized exactly to the object.
    #[test]
    fn humongous_runs_are_exact(size in (REGION_SIZE as u32 / 2 + 1)..(8 * REGION_SIZE as u32)) {
        let (mut sys, mut heap) = world();
        let id = heap.alloc(&mut sys, size, ObjectKind::Data).expect("fits");
        heap.graph_mut().add_global(id);
        let expected = (size as u64).div_ceil(REGION_SIZE) as usize;
        prop_assert_eq!(heap.region_count(RegionKind::Humongous), expected);
        // Dropping it returns the exact run.
        heap.graph_mut().remove_global(id);
        heap.mixed_gc(&mut sys).unwrap();
        prop_assert_eq!(heap.region_count(RegionKind::Humongous), 0);
    }
}
