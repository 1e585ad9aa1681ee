//! Property tests for the object graph and marker.
//!
//! Random object graphs with random roots are built, marked, and swept;
//! the invariants below are exactly what the runtime collectors rely
//! on. The young collection is checked against its oracle, the
//! full-graph mark with every non-young object as a root followed by a
//! sweep, after every step of random mutation sequences, and every
//! object's edges against a shadow model of plain lists.

use std::collections::BTreeMap;

use gc_core::object::{HeapGraph, Object, ObjectId, ObjectKind, YOUNG_SPACE_LIMIT};
use gc_core::trace::{mark, mark_with_extra_roots};
use proptest::prelude::*;

/// A compact graph description: `sizes[i]` is object `i`'s size;
/// `edges` are `(from, to)` pairs; `roots` indexes into objects.
#[derive(Debug, Clone)]
struct GraphSpec {
    sizes: Vec<u32>,
    edges: Vec<(usize, usize)>,
    weak_edges: Vec<(usize, usize)>,
    global_roots: Vec<usize>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (2usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(1u32..10_000, n),
            prop::collection::vec((0..n, 0..n), 0..n * 2),
            prop::collection::vec((0..n, 0..n), 0..n),
            prop::collection::vec(0..n, 0..n / 2 + 1),
        )
            .prop_map(|(sizes, edges, weak_edges, global_roots)| GraphSpec {
                sizes,
                edges,
                weak_edges,
                global_roots,
            })
    })
}

fn build(spec: &GraphSpec) -> (HeapGraph, Vec<ObjectId>) {
    let mut g = HeapGraph::new();
    let ids: Vec<_> = spec
        .sizes
        .iter()
        .map(|s| g.alloc(*s, ObjectKind::Data))
        .collect();
    for &(a, b) in &spec.edges {
        g.add_ref(ids[a], ids[b]);
    }
    for &(a, b) in &spec.weak_edges {
        g.add_weak_ref(ids[a], ids[b]);
    }
    for &r in &spec.global_roots {
        g.add_global(ids[r]);
    }
    (g, ids)
}

proptest! {
    /// Marking is a fixed point: marking after sweep finds the same
    /// live bytes, and sweep frees exactly allocated − live.
    #[test]
    fn mark_sweep_reaches_fixed_point(spec in graph_spec()) {
        let (mut g, _ids) = build(&spec);
        let total: u64 = spec.sizes.iter().map(|s| *s as u64).sum();
        let live = mark(&g, true, true);
        prop_assert!(live.live_bytes <= total);
        let freed = g.sweep(&live.marks);
        prop_assert_eq!(freed, total - live.live_bytes);
        prop_assert_eq!(g.allocated_bytes(), live.live_bytes);
        let live2 = mark(&g, true, true);
        prop_assert_eq!(live2.live_bytes, live.live_bytes);
        prop_assert_eq!(live2.live_objects, live.live_objects);
    }

    /// Keeping weak references can only grow the live set, and the
    /// aggressive live set plus weak-retained bytes bounds the gentle
    /// one.
    #[test]
    fn weak_retention_is_monotone(spec in graph_spec()) {
        let (g, _ids) = build(&spec);
        let aggressive = mark(&g, true, false);
        let gentle = mark(&g, true, true);
        prop_assert!(gentle.live_bytes >= aggressive.live_bytes);
        prop_assert!(gentle.live_objects >= aggressive.live_objects);
    }

    /// Every strongly referenced target of a live object is live
    /// (closure property), and no root is dead.
    #[test]
    fn live_set_is_closed(spec in graph_spec()) {
        let (g, ids) = build(&spec);
        let live = mark(&g, true, true);
        for (id, obj) in g.iter() {
            if live.is_live(id) {
                for &r in obj.refs() {
                    prop_assert!(live.is_live(r), "live object holds dead ref");
                }
            }
        }
        for &r in &spec.global_roots {
            prop_assert!(live.is_live(ids[r]));
        }
    }

    /// After popping all handle scopes, handle-rooted garbage is dead:
    /// mark(include_handles) equals mark(globals only).
    #[test]
    fn popped_scopes_leave_no_roots(spec in graph_spec()) {
        let (mut g, ids) = build(&spec);
        let scope = g.push_handle_scope();
        for id in &ids {
            g.add_handle(*id);
        }
        g.pop_handle_scope(scope);
        let with = mark(&g, true, true);
        let without = mark(&g, false, true);
        prop_assert_eq!(with.live_bytes, without.live_bytes);
    }
}

/// One step of a random mutation sequence. Operands index the ids
/// allocated so far (modulo their count); tags 0–3 mix young and old.
#[derive(Debug, Clone)]
enum Op {
    Alloc { size: u32, tag: u8 },
    AddRef(usize, usize),
    AddWeakRef(usize, usize),
    RemoveRef(usize, usize),
    SetRefs(usize, Vec<usize>),
    SetSpace(usize, u8),
    Global(usize),
    Unglobal(usize),
    PushScope,
    Handle(usize),
    PopScope,
    /// A full mark and sweep; weak edges keep their targets alive
    /// when the flag is set.
    Sweep(bool),
    Young,
    RoundTrip,
}

fn op() -> impl Strategy<Value = Op> {
    let alloc = (1u32..5_000, 0u8..4).prop_map(|(size, tag)| Op::Alloc { size, tag });
    let pair = || (0usize..64, 0usize..64);
    prop_oneof![
        alloc.clone(),
        alloc,
        pair().prop_map(|(a, b)| Op::AddRef(a, b)),
        pair().prop_map(|(a, b)| Op::AddRef(a, b)),
        pair().prop_map(|(a, b)| Op::AddWeakRef(a, b)),
        pair().prop_map(|(a, b)| Op::RemoveRef(a, b)),
        (0usize..64, prop::collection::vec(0usize..64, 0..4)).prop_map(|(a, r)| Op::SetRefs(a, r)),
        (0usize..64, 0u8..4).prop_map(|(a, t)| Op::SetSpace(a, t)),
        (0usize..64).prop_map(Op::Global),
        (0usize..64).prop_map(Op::Unglobal),
        Just(Op::PushScope),
        (0usize..64).prop_map(Op::Handle),
        Just(Op::PopScope),
        any::<bool>().prop_map(Op::Sweep),
        Just(Op::Young),
        Just(Op::RoundTrip),
    ]
}

/// The full-graph young mark and sweep the young collection replaces.
fn oracle_young_collection(g: &mut HeapGraph) -> (Vec<ObjectId>, u64) {
    let old: Vec<ObjectId> = g
        .iter()
        .filter(|(_, o)| o.space_tag >= YOUNG_SPACE_LIMIT)
        .map(|(id, _)| id)
        .collect();
    let live = mark_with_extra_roots(g, true, true, old.into_iter());
    let survivors = g
        .iter()
        .filter(|(id, o)| o.space_tag < YOUNG_SPACE_LIMIT && live.is_live(*id))
        .map(|(id, _)| id)
        .collect();
    g.sweep(&live.marks);
    (survivors, live.live_bytes)
}

/// Runs a young collection on a copy of `g` and checks it against the
/// oracle: the same survivors, freed slots and free-list order, the
/// same live bytes, and no survivor referencing a freed slot.
fn check_young_against_oracle(g: &HeapGraph) -> Result<(), TestCaseError> {
    let mut fast = g.clone();
    let mut slow = g.clone();
    let young: Vec<(ObjectId, u64)> = g
        .iter()
        .filter(|(_, o)| o.space_tag < YOUNG_SPACE_LIMIT)
        .map(|(id, o)| (id, u64::from(o.size)))
        .collect();
    let out = fast.collect_young();
    let (survivors, live_bytes) = oracle_young_collection(&mut slow);
    prop_assert_eq!(&out.survivors, &survivors, "survivors differ");
    prop_assert_eq!(out.live_bytes, live_bytes, "live bytes differ");
    let dead: u64 = young
        .iter()
        .filter(|(id, _)| !survivors.contains(id))
        .map(|(_, size)| size)
        .sum();
    prop_assert_eq!(out.freed_bytes, dead, "freed bytes differ");
    // Identical encodings: the same objects, roots and free list.
    prop_assert!(snapshot::encode(&fast) == snapshot::encode(&slow), "graph state differs from the oracle's");
    for (_, obj) in fast.iter() {
        for r in obj.refs().iter().chain(obj.weak_refs()) {
            prop_assert!(fast.exists(*r), "a survivor references freed slot {:?}", r);
        }
    }
    for r in fast.globals().iter().chain(fast.handles()) {
        prop_assert!(fast.exists(*r), "a root names freed slot {:?}", r);
    }
    Ok(())
}

/// Each live object's strong and weak lists, as plain vectors.
type EdgeModel = BTreeMap<ObjectId, (Vec<ObjectId>, Vec<ObjectId>)>;

/// Checks every object's edges against `model`, in order, and that
/// every object equals its own decode∘encode copy. The copy is decoded
/// into canonical form, so an object left in another form fails.
fn check_edges(g: &HeapGraph, model: &EdgeModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.object_count(), model.len(), "live objects differ from the model");
    for (id, obj) in g.iter() {
        let Some((strong, weak)) = model.get(&id) else {
            return Err(TestCaseError(format!("{id:?} is not in the model")));
        };
        prop_assert_eq!(obj.refs(), strong.as_slice(), "strong edges of {:?}", id);
        prop_assert_eq!(obj.weak_refs(), weak.as_slice(), "weak edges of {:?}", id);
        let copy: Object = snapshot::decode(&snapshot::encode(obj))
            .map_err(|e| TestCaseError(format!("object decode failed: {e:?}")))?;
        prop_assert_eq!(obj, &copy, "{:?} is not in canonical form", id);
    }
    Ok(())
}

/// Applies `ops` to a fresh graph, checking the young collection and
/// the edge model after every step.
fn run_ops(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut g = HeapGraph::new();
    let mut ids: Vec<ObjectId> = Vec::new();
    let mut scopes = Vec::new();
    let mut model = EdgeModel::new();
    for op in ops {
        let pick = |i: usize| ids.get(i % ids.len().max(1)).copied();
        match op {
            Op::Alloc { size, tag } => {
                let id = g.alloc(*size, ObjectKind::Data);
                g.set_space(id, *tag);
                ids.push(id);
                model.insert(id, (Vec::new(), Vec::new()));
            }
            Op::AddRef(a, b) | Op::AddWeakRef(a, b) | Op::RemoveRef(a, b) => {
                if let (Some(a), Some(b)) = (pick(*a), pick(*b)) {
                    let (strong, weak) = model.entry(a).or_default();
                    match op {
                        Op::AddRef(..) => {
                            g.add_ref(a, b);
                            strong.push(b);
                        }
                        Op::AddWeakRef(..) => {
                            g.add_weak_ref(a, b);
                            weak.push(b);
                        }
                        _ => {
                            g.remove_ref(a, b);
                            strong.retain(|r| *r != b);
                        }
                    }
                }
            }
            Op::SetRefs(a, refs) => {
                if let Some(a) = pick(*a) {
                    let refs: Vec<ObjectId> = refs.iter().filter_map(|r| pick(*r)).collect();
                    model.entry(a).or_default().0 = refs.clone();
                    g.set_refs(a, refs);
                }
            }
            Op::SetSpace(a, tag) => {
                if let Some(a) = pick(*a) {
                    g.set_space(a, *tag);
                }
            }
            Op::Global(a) => {
                if let Some(a) = pick(*a) {
                    g.add_global(a);
                }
            }
            Op::Unglobal(a) => {
                if let Some(a) = pick(*a) {
                    g.remove_global(a);
                }
            }
            Op::PushScope => scopes.push(g.push_handle_scope()),
            Op::Handle(a) => {
                if let (Some(a), false) = (pick(*a), scopes.is_empty()) {
                    g.add_handle(a);
                }
            }
            Op::PopScope => {
                if let Some(scope) = scopes.pop() {
                    g.pop_handle_scope(scope);
                }
            }
            Op::Sweep(keep_weak) => {
                let live = mark(&g, true, *keep_weak);
                g.sweep(&live.marks);
            }
            Op::Young => {
                g.collect_young();
            }
            Op::RoundTrip => {
                let bytes = snapshot::encode(&g);
                g = snapshot::decode(&bytes).map_err(|e| TestCaseError(format!("restore failed: {e:?}")))?;
                prop_assert!(snapshot::encode(&g) == bytes, "round trip changed the encoding");
            }
        }
        ids.retain(|id| g.exists(*id));
        // A sweep clears the edges to the slots it freed.
        model.retain(|id, _| g.exists(*id));
        for (strong, weak) in model.values_mut() {
            strong.retain(|r| g.exists(*r));
            weak.retain(|r| g.exists(*r));
        }
        check_edges(&g, &model)?;
        check_young_against_oracle(&g)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The remembered-set young collection equals the full-graph young
    /// mark and sweep, and every object's edges equal the shadow
    /// model's lists in canonical form, after every step of any
    /// mutation sequence.
    #[test]
    fn young_collection_matches_full_graph_oracle(ops in prop::collection::vec(op(), 1..80)) {
        run_ops(&ops)?;
    }
}

/// A heap of `old` retained old objects and 10 young ones: 5 reachable
/// from a global, 5 garbage.
fn heap_with_old(old: usize) -> HeapGraph {
    let mut g = HeapGraph::new();
    let mut prev = None;
    for _ in 0..old {
        let id = g.alloc(64, ObjectKind::Data);
        g.set_space(id, YOUNG_SPACE_LIMIT);
        // An old chain: old→old edges the young collection must not follow.
        match prev {
            Some(p) => g.add_ref(p, id),
            None => g.add_global(id),
        }
        prev = Some(id);
    }
    let root = g.alloc(32, ObjectKind::Data);
    g.add_global(root);
    for i in 0..9 {
        let id = g.alloc(32, ObjectKind::Data);
        if i < 4 {
            g.add_ref(root, id);
        }
    }
    g
}

/// The young collection's work does not grow with the old generation:
/// 10 young objects cost the same visits beside 10 or 10,000 old ones.
#[test]
fn young_collection_work_is_independent_of_old_generation_size() {
    let mut small = heap_with_old(10);
    let mut large = heap_with_old(10_000);
    let a = small.collect_young();
    let b = large.collect_young();
    assert_eq!(a.survivors.len(), 5);
    assert_eq!(b.survivors.len(), 5);
    assert_eq!(a.freed_bytes, 5 * 32);
    assert_eq!(a.visited, b.visited);
    assert_eq!(a.visited, 5);
}

/// Promoting an object that references young objects puts it in the
/// remembered set, so its young referents survive a young collection
/// even after the promoted object itself is dead.
#[test]
fn promoted_referrers_keep_young_targets_alive() {
    let mut g = HeapGraph::new();
    let holder = g.alloc(16, ObjectKind::Data);
    let target = g.alloc(16, ObjectKind::Data);
    g.add_ref(holder, target);
    g.set_space(holder, YOUNG_SPACE_LIMIT);
    // `holder` is unrooted, so dead, but old: floating garbage.
    let out = g.collect_young();
    assert_eq!(out.survivors, vec![target]);
    assert_eq!(out.live_bytes, 32);
}
