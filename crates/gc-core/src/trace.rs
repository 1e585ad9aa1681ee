//! Marking: computing the live set from the roots.
//!
//! Both the HotSpot and V8 models use the same marker. The paper's
//! selection policy (§4.5.2) relies on the defining property of tracing
//! collectors — cost proportional to *live* bytes, not heap size — so
//! the marker also reports the number of objects visited, which the
//! runtimes convert into simulated GC pause time.

use crate::object::{HeapGraph, ObjectId, ObjectKind};

/// The result of a marking pass.
#[derive(Debug, Clone)]
pub struct LiveSet {
    /// One bit per arena slot; `true` = reachable.
    pub marks: Vec<bool>,
    /// Total bytes of reachable objects.
    pub live_bytes: u64,
    /// Number of reachable objects (the tracing work performed).
    pub live_objects: u64,
    /// Bytes of reachable *code* objects that are only weakly
    /// reachable. Collecting these is what triggers deoptimization.
    pub weak_code_bytes: u64,
}

impl LiveSet {
    /// True if `id` was marked reachable.
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.marks[id.0 as usize] // tidy:allow(panic-reachability) -- the mark table is sized to the object table it shadows
    }
}

/// Marks the graph from its roots.
///
/// * `include_handles` — whether handle-scope roots count. During a
///   normal in-execution GC they do; at the freeze point the scopes are
///   already popped, so the distinction rarely matters, but the *ideal*
///   baseline of §3.1 is defined as "only what the globals retain".
/// * `keep_weak` — whether weakly referenced objects are retained.
///   `true` models Desiccant's §4.7 non-aggressive mode (weak targets
///   survive); `false` models an aggressive `global.gc()` that clears
///   them.
pub fn mark(graph: &HeapGraph, include_handles: bool, keep_weak: bool) -> LiveSet {
    mark_with_extra_roots(graph, include_handles, keep_weak, std::iter::empty())
}

/// Marks the graph from its roots plus `extra_roots`.
///
/// With every non-young object as an extra root this is the full-graph
/// young mark: old→young references conservatively keep young objects
/// alive (floating garbage included), exactly like a card-table
/// scavenge that does not know which old objects are themselves dead.
/// [`HeapGraph::collect_young`] computes the same live set from the
/// remembered set without walking the old generation; this function
/// stays its oracle in debug builds and property tests.
pub fn mark_with_extra_roots(
    graph: &HeapGraph,
    include_handles: bool,
    keep_weak: bool,
    extra_roots: impl Iterator<Item = ObjectId>,
) -> LiveSet {
    let cap = graph.slot_capacity();
    let mut marks = vec![false; cap];
    let mut stack: Vec<ObjectId> = Vec::new();

    let push_root = |id: ObjectId, marks: &mut Vec<bool>, stack: &mut Vec<ObjectId>| {
        if !marks[id.0 as usize] {
            marks[id.0 as usize] = true;
            stack.push(id);
        }
    };

    for &g in graph.globals() {
        push_root(g, &mut marks, &mut stack);
    }
    if include_handles {
        for &h in graph.handles() {
            push_root(h, &mut marks, &mut stack);
        }
    }
    for r in extra_roots {
        push_root(r, &mut marks, &mut stack);
    }

    // Strong closure.
    let mut live_bytes = 0u64;
    let mut live_objects = 0u64;
    while let Some(id) = stack.pop() {
        let obj = graph.get(id);
        live_bytes += obj.size as u64;
        live_objects += 1;
        for &r in obj.refs() {
            if !marks[r.0 as usize] {
                marks[r.0 as usize] = true;
                stack.push(r);
            }
        }
        if keep_weak {
            for &w in obj.weak_refs() {
                if !marks[w.0 as usize] {
                    marks[w.0 as usize] = true;
                    stack.push(w);
                }
            }
        }
    }

    // Account for weakly-reachable code that an aggressive pass would
    // collect: re-walk weak edges from live objects and total the code
    // bytes that are *not* strongly live.
    let mut weak_code_bytes = 0u64;
    if !keep_weak {
        let mut seen = vec![false; cap];
        for (id, obj) in graph.iter() {
            if !marks[id.0 as usize] {
                continue;
            }
            for &w in obj.weak_refs() {
                if !marks[w.0 as usize] && !seen[w.0 as usize] {
                    seen[w.0 as usize] = true;
                    let t = graph.get(w);
                    if t.kind == ObjectKind::Code {
                        weak_code_bytes += t.size as u64;
                    }
                }
            }
        }
    }

    LiveSet {
        marks,
        live_bytes,
        live_objects,
        weak_code_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;

    fn chain(g: &mut HeapGraph, n: usize, size: u32) -> Vec<ObjectId> {
        let ids: Vec<_> = (0..n).map(|_| g.alloc(size, ObjectKind::Data)).collect();
        for w in ids.windows(2) {
            g.add_ref(w[0], w[1]);
        }
        ids
    }

    #[test]
    fn unrooted_objects_are_dead() {
        let mut g = HeapGraph::new();
        chain(&mut g, 5, 10);
        let live = mark(&g, true, true);
        assert_eq!(live.live_bytes, 0);
        assert_eq!(live.live_objects, 0);
    }

    #[test]
    fn globals_retain_their_closure() {
        let mut g = HeapGraph::new();
        let ids = chain(&mut g, 5, 10);
        g.add_global(ids[0]);
        let dead = chain(&mut g, 3, 100);
        let _ = dead;
        let live = mark(&g, true, true);
        assert_eq!(live.live_bytes, 50);
        assert_eq!(live.live_objects, 5);
    }

    #[test]
    fn handles_count_only_when_included() {
        let mut g = HeapGraph::new();
        let scope = g.push_handle_scope();
        let ids = chain(&mut g, 4, 10);
        g.add_handle(ids[0]);
        let with = mark(&g, true, true);
        let without = mark(&g, false, true);
        assert_eq!(with.live_bytes, 40);
        assert_eq!(without.live_bytes, 0);
        g.pop_handle_scope(scope);
    }

    #[test]
    fn cycles_do_not_loop_and_count_once() {
        let mut g = HeapGraph::new();
        let a = g.alloc(10, ObjectKind::Data);
        let b = g.alloc(20, ObjectKind::Data);
        g.add_ref(a, b);
        g.add_ref(b, a);
        g.add_global(a);
        let live = mark(&g, true, true);
        assert_eq!(live.live_bytes, 30);
        assert_eq!(live.live_objects, 2);
    }

    #[test]
    fn weak_refs_do_not_retain_when_aggressive() {
        let mut g = HeapGraph::new();
        let holder = g.alloc(8, ObjectKind::Data);
        let code = g.alloc(4096, ObjectKind::Code);
        g.add_weak_ref(holder, code);
        g.add_global(holder);
        let aggressive = mark(&g, true, false);
        assert!(!aggressive.is_live(code));
        assert_eq!(aggressive.weak_code_bytes, 4096);
        let gentle = mark(&g, true, true);
        assert!(gentle.is_live(code));
        assert_eq!(gentle.weak_code_bytes, 0);
    }

    #[test]
    fn strongly_held_code_is_never_weak_code() {
        let mut g = HeapGraph::new();
        let holder = g.alloc(8, ObjectKind::Data);
        let code = g.alloc(4096, ObjectKind::Code);
        g.add_weak_ref(holder, code);
        g.add_ref(holder, code);
        g.add_global(holder);
        let aggressive = mark(&g, true, false);
        assert!(aggressive.is_live(code));
        assert_eq!(aggressive.weak_code_bytes, 0);
    }

    #[test]
    fn sweep_after_mark_preserves_live_bytes() {
        let mut g = HeapGraph::new();
        let ids = chain(&mut g, 10, 10);
        g.add_global(ids[0]);
        chain(&mut g, 7, 100);
        let live = mark(&g, true, true);
        let freed = g.sweep(&live.marks);
        assert_eq!(freed, 700);
        assert_eq!(g.allocated_bytes(), 100);
        // Marking again finds the same live set.
        let live2 = mark(&g, true, true);
        assert_eq!(live2.live_bytes, live.live_bytes);
    }
}
