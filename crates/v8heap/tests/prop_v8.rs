//! Property tests for the V8 heap model: its caps and its weak
//! preservation. The laws every heap shares — retained objects survive,
//! `reclaim` is safe, effective and idempotent — are the conformance
//! suite's (`tests/managed_heap.rs`).

use gc_core::object::ObjectKind;
use gc_core::ManagedHeap;
use proptest::prelude::*;
use simos::{SimTime, System};
use v8heap::{V8Config, V8Heap};

#[derive(Debug, Clone)]
struct Invocation {
    temps: u16,
    temp_size: u32,
    keeps: u8,
    keep_size: u32,
    gap_ms: u16,
}

fn invocation() -> impl Strategy<Value = Invocation> {
    (1u16..60, 256u32..200_000, 0u8..4, 256u32..40_000, 1u16..500).prop_map(
        |(temps, temp_size, keeps, keep_size, gap_ms)| Invocation {
            temps,
            temp_size,
            keeps,
            keep_size,
            gap_ms,
        },
    )
}

fn run_invocation(sys: &mut System, heap: &mut V8Heap, now_ms: &mut u64, inv: &Invocation) {
    *now_ms += inv.gap_ms as u64;
    heap.set_now(SimTime(*now_ms * 1_000_000));
    let scope = heap.graph_mut().push_handle_scope();
    let mut prev = None;
    for i in 0..inv.temps {
        let id = heap
            .alloc(sys, inv.temp_size, ObjectKind::Data)
            .expect("heap sized for workload");
        heap.graph_mut().add_handle(id);
        if let Some(p) = prev {
            if i % 4 == 0 {
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
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The young generation never exceeds its cap, and committed memory
    /// never exceeds the heap limit.
    #[test]
    fn caps_respected(invs in prop::collection::vec(invocation(), 1..10)) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let config = V8Config::for_budget(256 << 20);
        let mut heap = V8Heap::new(&mut sys, pid, config).unwrap();
        let mut now_ms = 0;
        for inv in &invs {
            run_invocation(&mut sys, &mut heap, &mut now_ms, inv);
            prop_assert!(heap.young_size() <= config.young_max);
            prop_assert!(heap.committed() <= config.max_heap);
            prop_assert!(heap.committed().is_multiple_of(simos::PAGE_SIZE));
        }
    }

    /// Weak-preserving reclaim keeps weakly referenced code alive;
    /// aggressive collection removes it.
    #[test]
    fn weak_preservation_is_respected(invs in prop::collection::vec(invocation(), 1..5)) {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let mut heap = V8Heap::new(&mut sys, pid, V8Config::for_budget(256 << 20)).unwrap();
        let holder = heap.alloc(&mut sys, 1024, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(holder);
        let code = heap.alloc(&mut sys, 64 << 10, ObjectKind::Code).unwrap();
        heap.graph_mut().add_weak_ref(holder, code);
        let mut now_ms = 0;
        for inv in &invs {
            run_invocation(&mut sys, &mut heap, &mut now_ms, inv);
        }
        heap.reclaim(&mut sys, true).unwrap();
        prop_assert!(heap.graph().exists(code), "weak-preserving reclaim dropped code");
        heap.global_gc(&mut sys).unwrap();
        prop_assert!(!heap.graph().exists(code));
        prop_assert_eq!(heap.take_deopt_code_bytes(), 64 << 10);
    }
}
