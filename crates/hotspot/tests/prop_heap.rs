//! Property tests for the HotSpot serial-GC model.
//!
//! Random "function-like" allocation programs (a mix of retained and
//! temporary objects across invocations) are executed and the committed
//! generations checked against their reservations. The laws every heap
//! shares — retained objects survive, `reclaim` is safe, effective and
//! idempotent — are the conformance suite's (`tests/managed_heap.rs`).

use gc_core::object::ObjectKind;
use gc_core::ManagedHeap;
use hotspot::{HotSpotConfig, HotSpotHeap};
use proptest::prelude::*;
use simos::System;

/// One simulated invocation: allocate `temps` temporary objects of
/// `temp_size` and retain `keeps` objects of `keep_size` in globals.
#[derive(Debug, Clone)]
struct Invocation {
    temps: u16,
    temp_size: u32,
    keeps: u8,
    keep_size: u32,
}

fn invocation() -> impl Strategy<Value = Invocation> {
    (1u16..80, 256u32..262_144, 0u8..4, 256u32..65_536).prop_map(
        |(temps, temp_size, keeps, keep_size)| Invocation {
            temps,
            temp_size,
            keeps,
            keep_size,
        },
    )
}

fn run_invocation(sys: &mut System, heap: &mut HotSpotHeap, inv: &Invocation) {
    let scope = heap.graph_mut().push_handle_scope();
    let mut prev = None;
    for i in 0..inv.temps {
        let id = heap
            .alloc(sys, inv.temp_size, ObjectKind::Data)
            .expect("heap sized for workload");
        heap.graph_mut().add_handle(id);
        // Chain some references to make the graph non-trivial.
        if let Some(p) = prev {
            if i % 3 == 0 {
                heap.graph_mut().add_ref(id, p);
            }
        }
        prev = Some(id);
    }
    for _ in 0..inv.keeps {
        let id = heap
            .alloc(sys, inv.keep_size, ObjectKind::Data)
            .expect("heap sized for workload");
        heap.graph_mut().add_global(id);
    }
    heap.graph_mut().pop_handle_scope(scope);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Committed sizes respect the reservation at all times.
    #[test]
    fn committed_respects_the_reservation(invs in prop::collection::vec(invocation(), 1..10)) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let mut heap = HotSpotHeap::new(&mut sys, pid, HotSpotConfig::for_budget(128 << 20)).unwrap();
        for inv in &invs {
            run_invocation(&mut sys, &mut heap, inv);
            let l = heap.layout();
            prop_assert!(l.eden_committed <= l.eden_max());
            prop_assert!(l.old_committed <= l.old_reserved);
        }
    }
}
