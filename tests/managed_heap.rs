//! The managed-heap conformance suite: every law of the
//! `gc_core::ManagedHeap` contract, checked on all five heap models.
//!
//! Random FaaS-shaped invocation sequences — temporaries, linked
//! chains, reference cycles, and objects retained in globals — run on
//! each heap, which then freezes and is reclaimed twice. The laws:
//!
//! * retained objects survive, and the marked live bytes are exactly
//!   their sizes;
//! * resident heap bytes never exceed committed bytes, after every
//!   invocation;
//! * `reclaim` frees every dead object and reports exactly the marked
//!   live bytes;
//! * `reclaim` never raises resident memory;
//! * a reclaimed heap keeps no more than its model's residue floor
//!   (page rounding, chunk headers, region tails, pools, spans);
//! * a second `reclaim` releases exactly 0 bytes and leaves resident
//!   unchanged;
//! * the heap stays usable: re-running the invocations doubles the live
//!   bytes.
//!
//! Properties of one model alone (G1 humongous runs, V8 caps and weak
//! preservation, Go pacing, CPython refcounting, HotSpot reservations)
//! stay in that model's crate.

use std::ops::Range;

use desiccant_repro::cpython_heap::{CPythonConfig, CPythonHeap, POOL_SIZE};
use desiccant_repro::gc_core::trace::mark;
use desiccant_repro::gc_core::{ManagedHeap, ObjectId, ObjectKind};
use desiccant_repro::goruntime::span::{size_class, span_pages, MAX_SMALL_SIZE};
use desiccant_repro::goruntime::{GoConfig, GoHeap, GO_PAGE_SIZE};
use desiccant_repro::hotspot::g1::RegionKind;
use desiccant_repro::hotspot::{G1Config, G1Heap, HotSpotConfig, HotSpotHeap};
use desiccant_repro::simos::mem::page_align_up;
use desiccant_repro::simos::{Pid, SimTime, System, PAGE_SIZE};
use desiccant_repro::v8heap::{V8Config, V8Heap, CHUNK_SIZE};
use proptest::prelude::*;
use proptest::TestCaseResult;

/// One simulated invocation.
#[derive(Debug, Clone)]
struct Invocation {
    temps: u16,
    temp_size: u32,
    /// Every `link`-th temporary references the one before it.
    link: u16,
    /// Pairs of temporaries that reference each other.
    cycles: u8,
    keeps: u8,
    keep_size: u32,
    /// Mutator time since the previous invocation.
    gap_ms: u16,
}

impl Invocation {
    fn kept_bytes(&self) -> u64 {
        u64::from(self.keeps) * u64::from(self.keep_size)
    }
}

/// Sequences of `len` invocations with sizes drawn from the given
/// ranges.
fn invocations(
    temps: Range<u16>,
    temp_size: Range<u32>,
    keeps: Range<u8>,
    keep_size: Range<u32>,
    len: Range<usize>,
) -> impl Strategy<Value = Vec<Invocation>> {
    let one = (
        (temps, temp_size, keeps, keep_size),
        (2u16..5, 0u8..6, 1u16..500),
    )
        .prop_map(
            |((temps, temp_size, keeps, keep_size), (link, cycles, gap_ms))| Invocation {
                temps,
                temp_size,
                link,
                cycles,
                keeps,
                keep_size,
                gap_ms,
            },
        );
    prop::collection::vec(one, len)
}

/// One heap model under test.
struct Subject<H> {
    new: fn(&mut System, Pid) -> H,
    /// Runs at invocation exit, after the handle scope pops.
    exit: fn(&mut System, &mut H),
    /// The most resident bytes a freshly reclaimed heap may keep.
    floor: fn(&H) -> u64,
}

fn no_exit<H>(_: &mut System, _: &mut H) {}

/// Runs one invocation; returns the objects it retained.
fn run_invocation<H: ManagedHeap>(
    sys: &mut System,
    heap: &mut H,
    subject: &Subject<H>,
    now_ms: &mut u64,
    inv: &Invocation,
) -> Vec<ObjectId> {
    *now_ms += u64::from(inv.gap_ms);
    heap.set_now(SimTime(*now_ms * 1_000_000));
    let mut alloc = |heap: &mut H, size| {
        heap.alloc(sys, size, ObjectKind::Data)
            .expect("heap sized for workload")
    };
    let scope = heap.graph_mut().push_handle_scope();
    let mut prev = None;
    for i in 0..inv.temps {
        let id = alloc(heap, inv.temp_size);
        heap.graph_mut().add_handle(id);
        if let Some(p) = prev.filter(|_| i % inv.link == 0) {
            heap.graph_mut().add_ref(id, p);
        }
        prev = Some(id);
    }
    for _ in 0..inv.cycles {
        let a = alloc(heap, inv.temp_size);
        heap.graph_mut().add_handle(a);
        let b = alloc(heap, inv.temp_size);
        heap.graph_mut().add_handle(b);
        heap.graph_mut().add_ref(a, b);
        heap.graph_mut().add_ref(b, a);
    }
    let mut kept = Vec::new();
    for _ in 0..inv.keeps {
        let id = alloc(heap, inv.keep_size);
        heap.graph_mut().add_global(id);
        kept.push(id);
    }
    heap.graph_mut().pop_handle_scope(scope);
    (subject.exit)(sys, heap);
    kept
}

/// Runs `invs`, checking resident ≤ committed after each invocation.
fn run_all<H: ManagedHeap>(
    sys: &mut System,
    heap: &mut H,
    subject: &Subject<H>,
    now_ms: &mut u64,
    invs: &[Invocation],
) -> Result<Vec<ObjectId>, TestCaseError> {
    let mut retained = Vec::new();
    for inv in invs {
        retained.extend(run_invocation(sys, heap, subject, now_ms, inv));
        let (resident, committed) = (heap.resident_heap_bytes(sys), heap.committed());
        prop_assert!(
            resident <= committed,
            "resident {} exceeds committed {}",
            resident,
            committed
        );
    }
    Ok(retained)
}

/// Checks every law of the contract on one invocation sequence.
fn conforms<H: ManagedHeap>(subject: &Subject<H>, invs: &[Invocation]) -> TestCaseResult {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let mut heap = (subject.new)(&mut sys, pid);
    let mut now_ms = 0;
    let retained = run_all(&mut sys, &mut heap, subject, &mut now_ms, invs)?;
    let kept: u64 = invs.iter().map(Invocation::kept_bytes).sum();
    for id in &retained {
        prop_assert!(heap.graph().exists(*id), "retained object collected");
    }
    let live = mark(heap.graph(), false, true).live_bytes;
    prop_assert_eq!(live, kept);

    let resident_before = heap.resident_heap_bytes(&sys);
    let out = heap.reclaim(&mut sys, true).expect("reclaim");
    prop_assert_eq!(out.live_bytes, live, "reclaim misreports live bytes");
    for id in &retained {
        prop_assert!(
            heap.graph().exists(*id),
            "reclaim collected a retained object"
        );
    }
    let marked = mark(heap.graph(), false, true).live_objects;
    prop_assert_eq!(
        marked,
        heap.graph().object_count() as u64,
        "reclaim left dead objects"
    );
    let resident = heap.resident_heap_bytes(&sys);
    prop_assert!(
        resident <= resident_before,
        "reclaim raised resident: {} -> {}",
        resident_before,
        resident
    );
    let floor = (subject.floor)(&heap);
    prop_assert!(
        resident <= floor,
        "resident {} above the residue floor {} (live {})",
        resident,
        floor,
        live
    );

    let again = heap.reclaim(&mut sys, true).expect("reclaim");
    prop_assert_eq!(again.released_bytes, 0, "second reclaim found pages");
    prop_assert_eq!(again.live_bytes, live);
    prop_assert_eq!(
        heap.resident_heap_bytes(&sys),
        resident,
        "second reclaim moved resident"
    );

    run_all(&mut sys, &mut heap, subject, &mut now_ms, invs)?;
    prop_assert_eq!(mark(heap.graph(), false, true).live_bytes, 2 * kept);
    Ok(())
}

fn hotspot() -> Subject<HotSpotHeap> {
    Subject {
        // The tighter of the two budgets the model's own property tests
        // used.
        new: |sys, pid| HotSpotHeap::new(sys, pid, HotSpotConfig::for_budget(128 << 20)).unwrap(),
        exit: no_exit,
        // Compaction leaves the live bytes contiguous: page rounding.
        floor: |heap| page_align_up(heap.last_live_bytes()) + PAGE_SIZE,
    }
}

fn g1() -> Subject<G1Heap> {
    Subject {
        new: |sys, pid| G1Heap::new(sys, pid, G1Config::for_budget(256 << 20)).unwrap(),
        exit: no_exit,
        // Page rounding per occupied region.
        floor: |heap| {
            let occupied =
                heap.region_count(RegionKind::Old) + heap.region_count(RegionKind::Humongous);
            page_align_up(heap.last_live_bytes()) + (occupied as u64 + 1) * PAGE_SIZE
        },
    }
}

fn v8() -> Subject<V8Heap> {
    Subject {
        new: |sys, pid| V8Heap::new(sys, pid, V8Config::for_budget(256 << 20)).unwrap(),
        exit: no_exit,
        // A page of fragmentation per live object and a header page per
        // chunk.
        floor: |heap| {
            let chunks = heap.committed() / CHUNK_SIZE + 1;
            let objects = heap.graph().object_count() as u64;
            heap.last_live_bytes() + (objects + chunks + 1) * PAGE_SIZE
        },
    }
}

fn cpython() -> Subject<CPythonHeap> {
    Subject {
        new: |sys, pid| CPythonHeap::new(sys, pid, CPythonConfig::default()).unwrap(),
        // Refcounting frees acyclic garbage as the locals go out of scope.
        exit: |sys, heap| {
            heap.refcount_pass(sys).unwrap();
        },
        // A live object pins at most one pool page beyond its bytes.
        floor: |heap| heap.last_live_bytes() + heap.graph().object_count() as u64 * POOL_SIZE,
    }
}

fn go() -> Subject<GoHeap> {
    Subject {
        new: |sys, pid| GoHeap::new(sys, pid, GoConfig::default()).unwrap(),
        exit: no_exit,
        // Objects do not move: a live object pins its whole span.
        floor: |heap| {
            let span = |size: u32| match size {
                small if small <= MAX_SMALL_SIZE => u64::from(span_pages(size_class(small))),
                large => page_align_up(u64::from(large)).div_ceil(GO_PAGE_SIZE),
            };
            heap.graph().iter().map(|(_, o)| span(o.size) * GO_PAGE_SIZE).sum()
        },
    }
}

/// A G1 counterexample an earlier run of the real proptest recorded: 14
/// temporaries of 48,857 B, then one retained 524,289 B humongous
/// object.
#[test]
fn g1_recorded_humongous_counterexample_conforms() {
    let inv = |temps, size, keeps| Invocation {
        temps,
        temp_size: size,
        link: u16::MAX,
        cycles: 0,
        keeps,
        keep_size: size,
        gap_ms: 0,
    };
    conforms(&g1(), &[inv(14, 48_857, 0), inv(1, 524_289, 1)]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hotspot_conforms(invs in invocations(1..80, 256..262_144, 0..4, 256..65_536, 1..12)) {
        conforms(&hotspot(), &invs)?;
    }

    #[test]
    fn g1_conforms(invs in invocations(1..40, 1024..700_000, 0..3, 1024..700_000, 1..5)) {
        conforms(&g1(), &invs)?;
    }

    #[test]
    fn v8_conforms(invs in invocations(1..60, 256..200_000, 0..4, 256..40_000, 1..10)) {
        conforms(&v8(), &invs)?;
    }

    #[test]
    fn cpython_conforms(invs in invocations(1..40, 16..4000, 0..3, 16..4000, 1..6)) {
        conforms(&cpython(), &invs)?;
    }

    #[test]
    fn go_conforms(invs in invocations(1..60, 64..100_000, 0..3, 64..100_000, 1..8)) {
        conforms(&go(), &invs)?;
    }
}
