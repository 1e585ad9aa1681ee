//! Property tests for the Go heap model: its pacer and its monotone
//! commit. The laws every heap shares, `reclaim`'s among them, are the
//! conformance suite's (`tests/managed_heap.rs`).

use gc_core::trace::mark;
use gc_core::{ManagedHeap, ObjectKind};
use goruntime::{GoConfig, GoHeap};
use proptest::prelude::*;
use simos::System;

#[derive(Debug, Clone)]
struct Invocation {
    temps: u8,
    size: u32,
    keeps: u8,
}

fn invocation() -> impl Strategy<Value = Invocation> {
    (1u8..60, 64u32..100_000, 0u8..3).prop_map(|(temps, size, keeps)| Invocation {
        temps,
        size,
        keeps,
    })
}

fn world() -> (System, GoHeap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = GoHeap::new(&mut sys, pid, GoConfig::default()).unwrap();
    (sys, heap)
}

fn run_invocation(sys: &mut System, heap: &mut GoHeap, inv: &Invocation) -> u64 {
    let scope = heap.graph_mut().push_handle_scope();
    for _ in 0..inv.temps {
        let id = heap.alloc(sys, inv.size, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(id);
    }
    let mut kept = 0;
    for _ in 0..inv.keeps {
        let id = heap.alloc(sys, inv.size, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(id);
        kept += inv.size as u64;
    }
    heap.graph_mut().pop_handle_scope(scope);
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GC preserves exactly the retained bytes and the pacer's goal is
    /// always at least the minimum and at least live × (1 + GOGC/100).
    #[test]
    fn gc_preserves_live_and_paces(invs in prop::collection::vec(invocation(), 1..6)) {
        let (mut sys, mut heap) = world();
        let mut kept = 0;
        for inv in &invs {
            kept += run_invocation(&mut sys, &mut heap, inv);
        }
        heap.gc(&mut sys).unwrap();
        let live = mark(heap.graph(), false, true);
        prop_assert_eq!(live.live_bytes, kept);
        let floor = (kept * 2).max(heap.heap_goal().min(4 << 20));
        prop_assert!(heap.heap_goal() >= floor.min(4 << 20));
    }

    /// Committed never shrinks (arenas are never unmapped, as in Go),
    /// not even under reclaim.
    #[test]
    fn committed_is_monotone(invs in prop::collection::vec(invocation(), 1..8)) {
        let (mut sys, mut heap) = world();
        let mut prev_committed = 0;
        for inv in &invs {
            run_invocation(&mut sys, &mut heap, inv);
            let committed = heap.committed();
            prop_assert!(committed >= prev_committed, "arena unmapped?");
            prev_committed = committed;
        }
        heap.reclaim(&mut sys, true).unwrap();
        prop_assert_eq!(heap.committed(), prev_committed);
    }
}
