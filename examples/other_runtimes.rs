//! Other runtimes: the paper's §7 discussion, executed.
//!
//! Run with `cargo run --release --example other_runtimes`.
//!
//! §7 argues the frozen-garbage problem exists in any runtime whose
//! memory manager does not promptly return free memory to the OS, and
//! that Desiccant fits any runtime that can (1) report what a
//! reclamation kept and cost and (2) find and release its free regions.
//! This example drives all five heap models — the two platform
//! runtimes and the three §7 sketches — through the same
//! [`ManagedHeap`] contract: invocations leave garbage behind, the
//! instance freezes, and a Desiccant reclaim recovers what it can.
//! Requirement (1) is then put to work the way the platform uses it:
//! the first reclaim's profile feeds Desiccant's throughput estimate
//! (`ProfileStore::estimate`, as `Desiccant::select_reclaims` calls
//! it), which is printed next to the actual release — the drop in
//! resident heap bytes — of a second freeze.

use desiccant_repro::cpython_heap::{CPythonConfig, CPythonHeap};
use desiccant_repro::desiccant::ProfileStore;
use desiccant_repro::faas::{InstanceId, ReclaimProfile};
use desiccant_repro::gc_core::{ManagedHeap, ObjectKind};
use desiccant_repro::goruntime::{GoConfig, GoHeap};
use desiccant_repro::hotspot::{G1Config, G1Heap, HotSpotConfig, HotSpotHeap};
use desiccant_repro::simos::{SimTime, System};
use desiccant_repro::v8heap::{V8Config, V8Heap};

const MIB: f64 = (1 << 20) as f64;

/// Invocations between two freezes.
const INVOCATIONS: u64 = 30;

/// Runs `INVOCATIONS` invocations, freezes, and reclaims — twice. The
/// first reclaim's profile is the only one the estimate of the second
/// freeze sees. `note` annotates the frozen instance.
fn report<H: ManagedHeap>(
    title: &str,
    mut sys: System,
    mut heap: H,
    note: impl Fn(&H) -> String,
    invoke: impl Fn(&mut System, &mut H),
) {
    let mut now = 0;
    let mut freeze = |sys: &mut System, heap: &mut H| {
        for _ in 0..INVOCATIONS {
            now += 1;
            heap.set_now(SimTime(now * 100_000_000));
            invoke(sys, heap);
        }
        heap.resident_heap_bytes(sys)
    };
    let frozen = freeze(&mut sys, &mut heap);
    let note = note(&heap);
    let out = heap.reclaim(&mut sys, true).expect("reclaim");
    println!("{title}:");
    println!(
        "  frozen instance: {:6.2} MiB resident{note}",
        frozen as f64 / MIB
    );
    println!(
        "  after reclaim:   {:6.2} MiB ({:.2} MiB released, {:.2} MiB live)",
        heap.resident_heap_bytes(&sys) as f64 / MIB,
        out.released_bytes as f64 / MIB,
        out.live_bytes as f64 / MIB
    );

    let (id, function) = (InstanceId(0), title);
    let mut profiles = ProfileStore::new();
    profiles.record(
        id,
        function,
        &ReclaimProfile {
            live_bytes: out.live_bytes,
            released_bytes: out.released_bytes,
            cpu_time: out.wall_time,
        },
    );
    let frozen = freeze(&mut sys, &mut heap);
    let estimate = profiles.estimate(id, function, frozen);
    let out = heap.reclaim(&mut sys, true).expect("reclaim");
    let after = heap.resident_heap_bytes(&sys);
    let actual = (frozen - after) as f64;
    println!(
        "  second freeze:   {:6.2} MiB resident -> {:.2} MiB; release estimated {:.2} MiB \
         at {:.0} MiB/s, actual {:.2} MiB at {:.0} MiB/s",
        frozen as f64 / MIB,
        after as f64 / MIB,
        estimate.expected_release / MIB,
        estimate.throughput / MIB,
        actual / MIB,
        actual / MIB / out.wall_time.as_secs_f64()
    );
}

/// A Java- or JavaScript-shaped invocation: 120 temporaries of 64 KiB
/// and one 32 KiB object retained in a global.
fn churn<H: ManagedHeap>(sys: &mut System, heap: &mut H) {
    let scope = heap.graph_mut().push_handle_scope();
    for _ in 0..120 {
        let t = heap.alloc(sys, 64 << 10, ObjectKind::Data).expect("alloc");
        heap.graph_mut().add_handle(t);
    }
    let keep = heap.alloc(sys, 32 << 10, ObjectKind::Data).expect("alloc");
    heap.graph_mut().add_global(keep);
    heap.graph_mut().pop_handle_scope(scope);
}

fn main() {
    println!("# the paper's section 7, executed: frozen garbage beyond serial GC and V8\n");

    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = CPythonHeap::new(&mut sys, pid, CPythonConfig::default()).expect("heap");
    // Each invocation retains a little, churns a lot, and leaves a few
    // reference cycles that refcounting cannot free.
    report(
        "CPython (obmalloc arenas, refcounting + cycle GC)",
        sys,
        heap,
        |_| String::new(),
        |sys, heap| {
            let scope = heap.graph_mut().push_handle_scope();
            // Small allocations (two per 4 KiB pool) with keepers interleaved
            // through the stream: every arena ends up pinned by a few live
            // pools, and the dead pools around them stay resident —
            // obmalloc only unmaps a *fully* empty arena.
            for i in 0..300 {
                let obj = heap.alloc(sys, 1800, ObjectKind::Data).expect("alloc");
                if i % 60 == 0 {
                    heap.graph_mut().add_global(obj);
                } else {
                    heap.graph_mut().add_handle(obj);
                }
            }
            for _ in 0..5 {
                let a = heap.alloc(sys, 1024, ObjectKind::Data).expect("alloc");
                heap.graph_mut().add_handle(a);
                let b = heap.alloc(sys, 1024, ObjectKind::Data).expect("alloc");
                heap.graph_mut().add_handle(b);
                heap.graph_mut().add_ref(a, b);
                heap.graph_mut().add_ref(b, a);
            }
            heap.graph_mut().pop_handle_scope(scope);
            // Refcounting runs as the locals go out of scope.
            heap.refcount_pass(sys).expect("refcount");
        },
    );
    println!();

    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = GoHeap::new(&mut sys, pid, GoConfig::default()).expect("heap");
    let goal = |heap: &GoHeap| {
        format!(
            " (pacer goal {:.2} MiB — below it, nothing collects)",
            heap.heap_goal() as f64 / MIB
        )
    };
    report(
        "Go (spans, GOGC pacer, lazy scavenger)",
        sys,
        heap,
        goal,
        |sys, heap| {
            let scope = heap.graph_mut().push_handle_scope();
            for _ in 0..60 {
                let t = heap.alloc(sys, 16 << 10, ObjectKind::Data).expect("alloc");
                heap.graph_mut().add_handle(t);
            }
            let keep = heap.alloc(sys, 8 << 10, ObjectKind::Data).expect("alloc");
            heap.graph_mut().add_global(keep);
            heap.graph_mut().pop_handle_scope(scope);
            // No explicit GC: the GOGC pacer decides (and between bursts a
            // frozen instance's pacer never fires).
        },
    );
    println!();

    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = G1Heap::new(&mut sys, pid, G1Config::for_budget(256 << 20)).expect("heap");
    let pinned = |_: &G1Heap| " (free regions pin the high-water mark)".to_string();
    report(
        "G1 (regional collector, JDK 8 era)",
        sys,
        heap,
        pinned,
        churn,
    );
    println!();

    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = HotSpotHeap::new(&mut sys, pid, HotSpotConfig::for_budget(256 << 20)).expect("heap");
    let committed = |_: &HotSpotHeap| " (free pages inside the committed heap stay)".to_string();
    report(
        "HotSpot (serial collector, as on Lambda)",
        sys,
        heap,
        committed,
        churn,
    );
    println!();

    let mut sys = System::new();
    let pid = sys.spawn_process();
    let heap = V8Heap::new(&mut sys, pid, V8Config::for_budget(256 << 20)).expect("heap");
    let young = |_: &V8Heap| " (the young generation ratchets up, never shrinks)".to_string();
    report(
        "V8 (chunked spaces, semispace scavenger)",
        sys,
        heap,
        young,
        churn,
    );
}
