//! Property tests for the CPython model: refcounting must agree with
//! tracing on acyclic graphs and never free live data, and a full drop
//! unmaps every arena. The laws every heap shares, `reclaim`'s among
//! them, are the conformance suite's (`tests/managed_heap.rs`).

use cpython_heap::{CPythonConfig, CPythonHeap};
use gc_core::trace::mark;
use gc_core::{ManagedHeap, ObjectKind};
use proptest::prelude::*;
use simos::System;

#[derive(Debug, Clone)]
struct Invocation {
    temps: u8,
    size: u32,
    cycles: u8,
    keeps: u8,
}

fn invocation() -> impl Strategy<Value = Invocation> {
    (1u8..40, 16u32..4000, 0u8..6, 0u8..3).prop_map(|(temps, size, cycles, keeps)| Invocation {
        temps,
        size,
        cycles,
        keeps,
    })
}

fn world() -> (System, CPythonHeap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = CPythonHeap::new(&mut sys, pid, CPythonConfig::default()).unwrap();
    (sys, heap)
}

fn run_invocation(sys: &mut System, heap: &mut CPythonHeap, inv: &Invocation) -> u64 {
    let scope = heap.graph_mut().push_handle_scope();
    let mut prev = None;
    for i in 0..inv.temps {
        let id = heap.alloc(sys, inv.size, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(id);
        if let Some(p) = prev {
            if i % 2 == 0 {
                heap.graph_mut().add_ref(id, p);
            }
        }
        prev = Some(id);
    }
    for _ in 0..inv.cycles {
        let a = heap.alloc(sys, inv.size, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(a);
        let b = heap.alloc(sys, inv.size, ObjectKind::Data).unwrap();
        heap.graph_mut().add_handle(b);
        heap.graph_mut().add_ref(a, b);
        heap.graph_mut().add_ref(b, a);
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

    /// After a refcount pass, everything still in the graph is either
    /// live or cyclic garbage — there is no acyclic dead object left.
    #[test]
    fn refcounting_leaves_only_live_and_cycles(invs in prop::collection::vec(invocation(), 1..6)) {
        let (mut sys, mut heap) = world();
        for inv in &invs {
            run_invocation(&mut sys, &mut heap, inv);
            heap.refcount_pass(&mut sys).unwrap();
        }
        let live = mark(heap.graph(), false, true);
        // Every remaining dead object must have an incoming reference
        // from another remaining dead object (i.e. nonzero refcount).
        for (id, _) in heap.graph().iter() {
            if live.is_live(id) {
                continue;
            }
            let referenced = heap
                .graph()
                .iter()
                .any(|(o, obj)| o != id && !live.is_live(o) && obj.refs().contains(&id))
                || heap.graph().get(id).refs().contains(&id);
            prop_assert!(referenced, "acyclic dead object survived refcounting");
        }
    }

    /// Retained bytes are exact after any sequence of passes, and the
    /// cycle collector leaves exactly the live set.
    #[test]
    fn collector_preserves_exactly_the_live_set(invs in prop::collection::vec(invocation(), 1..6)) {
        let (mut sys, mut heap) = world();
        let mut kept = 0;
        for inv in &invs {
            kept += run_invocation(&mut sys, &mut heap, inv);
            heap.refcount_pass(&mut sys).unwrap();
        }
        heap.cycle_collect(&mut sys).unwrap();
        let live = mark(heap.graph(), false, true);
        prop_assert_eq!(live.live_bytes, kept);
        // Object count equals keeps (nothing else survives a full
        // collection).
        prop_assert_eq!(live.live_objects as u64, heap.graph().object_count() as u64);
    }

    /// Dropping everything empties the heap completely (arenas unmap
    /// when fully free).
    #[test]
    fn full_drop_unmaps_everything(invs in prop::collection::vec(invocation(), 1..5)) {
        let (mut sys, mut heap) = world();
        for inv in &invs {
            run_invocation(&mut sys, &mut heap, inv);
        }
        // Drop the globals too, then collect: every arena must unmap.
        let globals: Vec<_> = heap.graph().globals().to_vec();
        for g in globals {
            heap.graph_mut().remove_global(g);
        }
        heap.cycle_collect(&mut sys).unwrap();
        prop_assert_eq!(heap.committed(), 0, "empty heap still maps arenas");
        prop_assert_eq!(heap.resident_heap_bytes(&sys), 0);
    }
}
