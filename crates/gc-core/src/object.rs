//! The object arena: objects, references, and roots.
//!
//! Liveness in this model follows the usual managed-runtime structure:
//!
//! * **global roots** hold state that survives across function
//!   invocations (caches, statics, the function's closure environment);
//! * **handle scopes** hold the temporaries of the *current* invocation
//!   and are popped when the function exits.
//!
//! Everything reachable only through a popped handle scope is dead —
//! but, as the paper observes, if the instance is then frozen, no GC
//! ever runs to find out. Those dead-but-uncollected objects are the
//! *frozen garbage* this whole reproduction is about.

use std::collections::BTreeMap;

/// An object identifier: a slot index in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The slot index this id names (`u32` → `usize` is lossless on
    /// every supported target).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What an object is, for the JIT/deoptimization model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// Ordinary application data.
    Data,
    /// JIT-compiled code (V8 holds these through weak references; an
    /// aggressive GC collects them and later executions pay a
    /// deoptimization penalty, §4.7).
    Code,
}

/// One heap object.
#[derive(Debug, Clone)]
pub struct Object {
    /// Payload size in bytes (headers included; what the space
    /// allocator charged).
    pub size: u32,
    /// Address assigned by the runtime's space allocator; updated when
    /// a moving collector relocates the object.
    pub addr: u64,
    /// Survived-GC count, used for tenuring decisions.
    pub age: u8,
    /// Runtime-private tag (e.g. which generation/space holds the
    /// object). `gc-core` never interprets it.
    pub space_tag: u8,
    /// Object kind.
    pub kind: ObjectKind,
    /// Strong outgoing references.
    pub refs: Vec<ObjectId>,
    /// Weak outgoing references (do not keep the target alive).
    pub weak_refs: Vec<ObjectId>,
}

/// An opaque token for a pushed handle scope.
///
/// Scopes must be popped in LIFO order, like real handle scopes.
#[derive(Debug, PartialEq, Eq)]
pub struct HandleScope(usize);

/// The object graph of one runtime instance.
#[derive(Debug, Clone, Default)]
pub struct HeapGraph {
    slots: Vec<Option<Object>>,
    free_slots: Vec<u32>,
    /// Persistent roots.
    globals: Vec<ObjectId>,
    /// Handle stack; scope boundaries index into it.
    handles: Vec<ObjectId>,
    scope_bounds: Vec<usize>,
    /// Total bytes of live slots (everything not yet swept, live or
    /// dead — i.e. bytes the allocator has handed out and not yet
    /// recycled).
    allocated_bytes: u64,
    /// Monotonic counter of all bytes ever allocated.
    total_allocated_bytes: u64,
    /// Monotonic counter of all objects ever allocated.
    total_allocated_objects: u64,
}

impl HeapGraph {
    /// Creates an empty graph.
    pub fn new() -> HeapGraph {
        HeapGraph::default()
    }

    /// Allocates an object of `size` bytes; its address is assigned
    /// later by the runtime's space allocator via [`HeapGraph::set_addr`].
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero — real allocators never return
    /// zero-sized objects and a zero would break byte accounting.
    pub fn alloc(&mut self, size: u32, kind: ObjectKind) -> ObjectId {
        assert!(size > 0, "zero-sized allocation");
        let obj = Object {
            size,
            addr: 0,
            age: 0,
            space_tag: 0,
            kind,
            refs: Vec::new(),
            weak_refs: Vec::new(),
        };
        self.allocated_bytes += size as u64;
        self.total_allocated_bytes += size as u64;
        self.total_allocated_objects += 1;
        match self.free_slots.pop() {
            Some(idx) => {
                let slot = self.slot_mut(idx);
                debug_assert!(slot.is_none());
                *slot = Some(obj);
                ObjectId(idx)
            }
            None => {
                self.slots.push(Some(obj));
                ObjectId(self.slots.len() as u32 - 1)
            }
        }
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a collected object; runtimes must not
    /// hold stale ids, so this indicates a collector bug.
    pub fn get(&self, id: ObjectId) -> &Object {
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .expect("stale object id") // tidy:allow(panic-reachability) -- runtimes hold only ids this table allocated and has not swept
    }

    /// Mutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a collected object.
    pub fn get_mut(&mut self, id: ObjectId) -> &mut Object {
        self.slot_mut(id.0)
            .as_mut()
            .expect("stale object id") // tidy:allow(panic-reachability) -- runtimes hold only ids this table allocated and has not swept
    }

    /// Slot `idx` of the table, live or free: the one place an index
    /// into it is checked.
    fn slot_mut(&mut self, idx: u32) -> &mut Option<Object> {
        &mut self.slots[idx as usize] // tidy:allow(panic-reachability) -- slot indices come from ids and free-list entries this table allocated
    }

    /// True if `id` refers to a live slot.
    pub fn exists(&self, id: ObjectId) -> bool {
        self.slots
            .get(id.0 as usize)
            .is_some_and(|s| s.is_some())
    }

    /// Sets the object's current address (called by space allocators
    /// and moving collectors).
    pub fn set_addr(&mut self, id: ObjectId, addr: u64) {
        self.get_mut(id).addr = addr;
    }

    /// Adds a strong reference `from → to`.
    pub fn add_ref(&mut self, from: ObjectId, to: ObjectId) {
        debug_assert!(self.exists(to), "reference to stale object");
        self.get_mut(from).refs.push(to);
    }

    /// Adds a weak reference `from → to`.
    pub fn add_weak_ref(&mut self, from: ObjectId, to: ObjectId) {
        debug_assert!(self.exists(to), "weak reference to stale object");
        self.get_mut(from).weak_refs.push(to);
    }

    /// Removes all strong references `from → to` (severing an edge so
    /// the target can die).
    pub fn remove_ref(&mut self, from: ObjectId, to: ObjectId) {
        self.get_mut(from).refs.retain(|r| *r != to);
    }

    /// Replaces the full strong reference list of `from`.
    pub fn set_refs(&mut self, from: ObjectId, refs: Vec<ObjectId>) {
        for r in &refs {
            debug_assert!(self.exists(*r), "reference to stale object");
        }
        self.get_mut(from).refs = refs;
    }

    /// Registers a persistent (global) root.
    pub fn add_global(&mut self, id: ObjectId) {
        debug_assert!(self.exists(id));
        self.globals.push(id);
    }

    /// Unregisters a persistent root (all occurrences).
    pub fn remove_global(&mut self, id: ObjectId) {
        self.globals.retain(|g| *g != id);
    }

    /// The persistent roots.
    pub fn globals(&self) -> &[ObjectId] {
        &self.globals
    }

    /// Opens a handle scope (function entry).
    pub fn push_handle_scope(&mut self) -> HandleScope {
        self.scope_bounds.push(self.handles.len());
        HandleScope(self.scope_bounds.len())
    }

    /// Adds a handle in the current scope (a local variable).
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn add_handle(&mut self, id: ObjectId) {
        assert!(!self.scope_bounds.is_empty(), "no open handle scope");
        debug_assert!(self.exists(id));
        self.handles.push(id);
    }

    /// Closes a handle scope (function exit); everything reachable only
    /// through it becomes garbage.
    ///
    /// # Panics
    ///
    /// Panics if scopes are popped out of LIFO order.
    pub fn pop_handle_scope(&mut self, scope: HandleScope) {
        assert_eq!(
            scope.0,
            self.scope_bounds.len(),
            "handle scopes popped out of order"
        );
        let bound = self.scope_bounds.pop().expect("no open handle scope"); // tidy:allow(panic-reachability) -- scope push and pop are balanced by the handle-scope API
        self.handles.truncate(bound);
    }

    /// The current handle roots (all open scopes).
    pub fn handles(&self) -> &[ObjectId] {
        &self.handles
    }

    /// True if any handle scope is open (a function is mid-execution).
    pub fn in_invocation(&self) -> bool {
        !self.scope_bounds.is_empty()
    }

    /// Iterates over `(id, &object)` for every live slot.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Object)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|o| (ObjectId(i as u32), o)))
    }

    /// Number of live slots.
    pub fn object_count(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// Capacity needed for dense side tables indexed by `ObjectId`.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes handed out by the allocator and not yet swept.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Monotonic total of all bytes ever allocated.
    pub fn total_allocated_bytes(&self) -> u64 {
        self.total_allocated_bytes
    }

    /// Monotonic total of all objects ever allocated.
    pub fn total_allocated_objects(&self) -> u64 {
        self.total_allocated_objects
    }

    /// Frees every slot whose bit is unset in `live` (sized by
    /// [`HeapGraph::slot_capacity`]), fixing up weak references that now
    /// dangle. Returns the freed byte count.
    ///
    /// Strong references cannot dangle after this: a strongly
    /// referenced object is live by definition of `live` being a fixed
    /// point of marking — the caller is responsible for passing a mark
    /// result, not an arbitrary bitmap.
    pub fn sweep(&mut self, live: &[bool]) -> u64 {
        self.sweep_where(live, |_| true)
    }

    /// Like [`HeapGraph::sweep`], but only frees dead objects for which
    /// `filter` returns true. Generational collectors use this to sweep
    /// a single generation: a young collection passes a filter matching
    /// young space tags, leaving dead old objects in place until the
    /// next full collection.
    ///
    /// The caller must guarantee that no *surviving* object strongly
    /// references a freed one; passing a mark computed with all old
    /// objects as extra roots (see
    /// [`crate::trace::mark_with_extra_roots`]) satisfies this.
    pub fn sweep_where(&mut self, live: &[bool], filter: impl Fn(&Object) -> bool) -> u64 {
        debug_assert_eq!(live.len(), self.slots.len());
        let mut freed = 0u64;
        let mut freed_slot = vec![false; self.slots.len()];
        for idx in 0..self.slots.len() {
            if live[idx] {
                continue;
            }
            if self.slots[idx].as_ref().is_some_and(|o| !filter(o)) {
                continue;
            }
            if let Some(obj) = self.slots[idx].take() {
                freed += obj.size as u64;
                freed_slot[idx] = true;
                self.free_slots.push(idx as u32);
            }
        }
        self.allocated_bytes -= freed;
        // References to *freed* objects are cleared. Weak references may
        // legally dangle only to freed slots; strong references to freed
        // slots can only come from objects the filter retained dead, and
        // clearing them keeps the graph well-formed.
        for slot in self.slots.iter_mut().flatten() {
            slot.weak_refs.retain(|w| !freed_slot[w.0 as usize]);
            slot.refs.retain(|r| !freed_slot[r.0 as usize]);
        }
        self.globals.retain(|g| !freed_slot[g.0 as usize]);
        self.handles.retain(|h| !freed_slot[h.0 as usize]);
        freed
    }

    /// Builds a map from old slot addresses, useful in tests that check
    /// compaction relocated objects.
    pub fn addresses(&self) -> BTreeMap<ObjectId, u64> {
        self.iter().map(|(id, o)| (id, o.addr)).collect()
    }
}

/// Checkpoint codec impls, kept here so exhaustive destructuring sees
/// every private field.
mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    snapshot::record!(ObjectId(u32));

    impl Snapshot for ObjectKind {
        fn snap(&self, w: &mut Writer) {
            match self {
                Self::Data => w.u8(0),
                Self::Code => w.u8(1),
            }
        }

        fn restore(r: &mut Reader<'_>) -> Result<ObjectKind, SnapError> {
            match r.u8()? {
                0 => Ok(ObjectKind::Data),
                1 => Ok(ObjectKind::Code),
                _ => Err(SnapError::Corrupt("unknown ObjectKind tag")),
            }
        }
    }

    impl Snapshot for Object {
        fn snap(&self, w: &mut Writer) {
            let Self {
                size,
                addr,
                age,
                space_tag,
                kind,
                refs,
                weak_refs,
            } = self;
            w.u32(*size);
            w.u64(*addr);
            w.u8(*age);
            w.u8(*space_tag);
            kind.snap(w);
            refs.snap(w);
            weak_refs.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<Object, SnapError> {
            let size = r.u32()?;
            if size == 0 {
                return Err(SnapError::Corrupt("Object with zero size"));
            }
            Ok(Object {
                size,
                addr: r.u64()?,
                age: r.u8()?,
                space_tag: r.u8()?,
                kind: ObjectKind::restore(r)?,
                refs: Vec::<ObjectId>::restore(r)?,
                weak_refs: Vec::<ObjectId>::restore(r)?,
            })
        }
    }

    impl Snapshot for HeapGraph {
        fn snap(&self, w: &mut Writer) {
            let Self {
                slots,
                free_slots,
                globals,
                handles,
                scope_bounds,
                allocated_bytes,
                total_allocated_bytes,
                total_allocated_objects,
            } = self;
            slots.snap(w);
            free_slots.snap(w);
            globals.snap(w);
            handles.snap(w);
            scope_bounds.snap(w);
            w.u64(*allocated_bytes);
            w.u64(*total_allocated_bytes);
            w.u64(*total_allocated_objects);
        }

        fn restore(r: &mut Reader<'_>) -> Result<HeapGraph, SnapError> {
            let slots = Vec::<Option<Object>>::restore(r)?;
            let free_slots = Vec::<u32>::restore(r)?;
            let globals = Vec::<ObjectId>::restore(r)?;
            let handles = Vec::<ObjectId>::restore(r)?;
            let scope_bounds = Vec::<usize>::restore(r)?;
            let allocated_bytes = r.u64()?;
            let total_allocated_bytes = r.u64()?;
            let total_allocated_objects = r.u64()?;
            if free_slots
                .iter()
                .any(|s| slots.get(*s as usize).is_none_or(Option::is_some))
            {
                return Err(SnapError::Corrupt("HeapGraph free slot is occupied"));
            }
            let live: u64 = slots
                .iter()
                .flatten()
                .map(|o| u64::from(o.size))
                .sum();
            if live != allocated_bytes {
                return Err(SnapError::Corrupt("HeapGraph byte accounting disagrees with slots"));
            }
            Ok(HeapGraph {
                slots,
                free_slots,
                globals,
                handles,
                scope_bounds,
                allocated_bytes,
                total_allocated_bytes,
                total_allocated_objects,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_swept_slots() {
        let mut g = HeapGraph::new();
        let scope = g.push_handle_scope();
        let a = g.alloc(100, ObjectKind::Data);
        g.add_handle(a);
        g.pop_handle_scope(scope);
        let live = vec![false; g.slot_capacity()];
        let freed = g.sweep(&live);
        assert_eq!(freed, 100);
        assert_eq!(g.object_count(), 0);
        let b = g.alloc(50, ObjectKind::Data);
        // The freed slot is recycled.
        assert_eq!(a.0, b.0);
        assert_eq!(g.allocated_bytes(), 50);
    }

    #[test]
    fn byte_accounting_tracks_alloc_and_sweep() {
        let mut g = HeapGraph::new();
        g.alloc(64, ObjectKind::Data);
        let b = g.alloc(32, ObjectKind::Data);
        assert_eq!(g.allocated_bytes(), 96);
        assert_eq!(g.total_allocated_bytes(), 96);
        let mut live = vec![false; g.slot_capacity()];
        live[b.0 as usize] = true;
        // Keep `b` alive through a global so sweep's root fixup is a
        // no-op.
        g.add_global(b);
        assert_eq!(g.sweep(&live), 64);
        assert_eq!(g.allocated_bytes(), 32);
        assert_eq!(g.total_allocated_bytes(), 96);
    }

    #[test]
    fn sweep_clears_dangling_weak_refs() {
        let mut g = HeapGraph::new();
        let holder = g.alloc(16, ObjectKind::Data);
        let code = g.alloc(256, ObjectKind::Code);
        g.add_weak_ref(holder, code);
        g.add_global(holder);
        let mut live = vec![false; g.slot_capacity()];
        live[holder.0 as usize] = true;
        g.sweep(&live);
        assert!(g.get(holder).weak_refs.is_empty());
        assert!(!g.exists(code));
    }

    #[test]
    fn handle_scopes_nest_lifo() {
        let mut g = HeapGraph::new();
        let outer = g.push_handle_scope();
        let a = g.alloc(8, ObjectKind::Data);
        g.add_handle(a);
        let inner = g.push_handle_scope();
        let b = g.alloc(8, ObjectKind::Data);
        g.add_handle(b);
        assert_eq!(g.handles().len(), 2);
        g.pop_handle_scope(inner);
        assert_eq!(g.handles(), &[a]);
        g.pop_handle_scope(outer);
        assert!(g.handles().is_empty());
        assert!(!g.in_invocation());
    }

    #[test]
    #[should_panic(expected = "popped out of order")]
    fn out_of_order_scope_pop_panics() {
        let mut g = HeapGraph::new();
        let outer = g.push_handle_scope();
        let _inner = g.push_handle_scope();
        g.pop_handle_scope(outer);
    }

    #[test]
    #[should_panic(expected = "no open handle scope")]
    fn handle_without_scope_panics() {
        let mut g = HeapGraph::new();
        let a = g.alloc(8, ObjectKind::Data);
        g.add_handle(a);
    }

    #[test]
    #[should_panic(expected = "zero-sized allocation")]
    fn zero_sized_alloc_panics() {
        HeapGraph::new().alloc(0, ObjectKind::Data);
    }

    #[test]
    fn remove_ref_severs_edges() {
        let mut g = HeapGraph::new();
        let a = g.alloc(8, ObjectKind::Data);
        let b = g.alloc(8, ObjectKind::Data);
        g.add_ref(a, b);
        g.add_ref(a, b);
        g.remove_ref(a, b);
        assert!(g.get(a).refs.is_empty());
    }
}
