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
//!
//! For the generational collectors the arena also keeps two derived
//! indexes, never encoded and rebuilt on restore: the young objects
//! (space tags below [`YOUNG_SPACE_LIMIT`]) and a **remembered set** of
//! non-young objects that hold a strong or weak reference to a young
//! one. [`HeapGraph::collect_young`] marks from the roots and the
//! remembered set's young targets and stops at non-young objects, so a
//! young collection costs what the young generation holds. It keeps
//! the card-table semantics: every non-young object, dead or alive,
//! still keeps its young referents alive until a full collection.
//!
//! An object's outgoing references take one of three forms: none, one
//! strong reference held inline, or boxed strong and weak lists for
//! everything else. Most objects hold at most one strong reference and
//! no weak one, so they allocate nothing beyond their table slot, which
//! is 32 bytes. Every edit leaves the canonical form: the boxed lists
//! never hold exactly one strong reference and no weak one, nor nothing
//! at all. [`Object::refs`] and [`Object::weak_refs`] read the lists in
//! insertion order, whatever the form, and the codec writes them as two
//! plain lists.

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Payload size in bytes (headers included; what the space
    /// allocator charged).
    pub size: u32,
    /// Address assigned by the runtime's space allocator; updated when
    /// a moving collector relocates the object.
    pub addr: u64,
    /// Survived-GC count, used for tenuring decisions.
    pub age: u8,
    /// Which generation/space holds the object. The tags are
    /// runtime-private, except that `gc-core` treats every tag below
    /// [`YOUNG_SPACE_LIMIT`] as young. Written through
    /// [`HeapGraph::set_space`].
    pub space_tag: u8,
    /// Object kind.
    pub kind: ObjectKind,
    /// Outgoing references, written through the [`HeapGraph`] methods.
    edges: Edges,
}

impl Object {
    /// Strong outgoing references, in the order they were added.
    pub fn refs(&self) -> &[ObjectId] {
        match &self.edges {
            Edges::Empty => &[],
            Edges::One(to) => std::slice::from_ref(to),
            Edges::Many(lists) => &lists.strong,
        }
    }

    /// Weak outgoing references (they do not keep the target alive), in
    /// the order they were added.
    pub fn weak_refs(&self) -> &[ObjectId] {
        match &self.edges {
            Edges::Empty | Edges::One(_) => &[],
            Edges::Many(lists) => &lists.weak,
        }
    }
}

/// An object's outgoing references in canonical form: `Empty` when it
/// holds none, `One` when it holds one strong reference and no weak
/// one, and `Many` otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Edges {
    #[default]
    Empty,
    One(ObjectId),
    Many(Box<EdgeLists>),
}

/// The strong and weak lists of an object in the `Many` form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeLists {
    strong: Vec<ObjectId>,
    weak: Vec<ObjectId>,
}

impl Edges {
    /// Boxed lists, brought to canonical form.
    fn from_lists(strong: Vec<ObjectId>, weak: Vec<ObjectId>) -> Edges {
        let mut edges = Edges::Many(Box::new(EdgeLists { strong, weak }));
        edges.settle();
        edges
    }

    /// Restores the canonical form after an edit of the boxed lists.
    fn settle(&mut self) {
        if let Edges::Many(lists) = self {
            match (lists.strong.as_slice(), lists.weak.is_empty()) {
                ([], true) => *self = Edges::Empty,
                (&[to], true) => *self = Edges::One(to),
                _ => {}
            }
        }
    }

    fn push_strong(&mut self, to: ObjectId) {
        match self {
            Edges::Empty => *self = Edges::One(to),
            Edges::One(first) => *self = Edges::from_lists(vec![*first, to], Vec::new()),
            Edges::Many(lists) => lists.strong.push(to),
        }
    }

    fn push_weak(&mut self, to: ObjectId) {
        match self {
            Edges::Empty => *self = Edges::from_lists(Vec::new(), vec![to]),
            Edges::One(first) => *self = Edges::from_lists(vec![*first], vec![to]),
            Edges::Many(lists) => lists.weak.push(to),
        }
    }

    /// Keeps the strong references `strong` accepts and the weak ones
    /// `weak` accepts, in order.
    fn retain(&mut self, mut strong: impl FnMut(&ObjectId) -> bool, weak: impl FnMut(&ObjectId) -> bool) {
        match self {
            Edges::Empty => {}
            Edges::One(to) => {
                if !strong(to) {
                    *self = Edges::Empty;
                }
            }
            Edges::Many(lists) => {
                lists.strong.retain(strong);
                lists.weak.retain(weak);
                self.settle();
            }
        }
    }

    /// Replaces the strong references, keeping the weak ones.
    fn set_strong(&mut self, refs: Vec<ObjectId>) {
        let weak = match std::mem::take(self) {
            Edges::Many(lists) => lists.weak,
            Edges::Empty | Edges::One(_) => Vec::new(),
        };
        *self = Edges::from_lists(refs, weak);
    }
}

/// Space tags below this value are young: eden, young or survivor
/// space in every generational heap here (tags 0 and 1); old, large
/// and humongous spaces use 2 and up. Non-generational heaps leave
/// every object at tag 0.
pub const YOUNG_SPACE_LIMIT: u8 = 2;

/// Marks a slot as in neither derived index.
const ABSENT: u32 = u32::MAX;

/// One slot's positions in the derived indexes ([`ABSENT`] when not a
/// member).
#[derive(Debug, Clone, Copy)]
struct SlotIndex {
    young: u32,
    remembered: u32,
}

impl Default for SlotIndex {
    fn default() -> SlotIndex {
        SlotIndex {
            young: ABSENT,
            remembered: ABSENT,
        }
    }
}

/// What [`HeapGraph::collect_young`] found and freed.
#[derive(Debug, Clone, Default)]
pub struct YoungCollection {
    /// The surviving young objects, ascending by id.
    pub survivors: Vec<ObjectId>,
    /// Bytes of the dead young objects, now freed.
    pub freed_bytes: u64,
    /// Every non-young byte plus the surviving young bytes: what a
    /// full-graph mark with all non-young objects as roots reports.
    pub live_bytes: u64,
    /// Objects the collection visited: remembered-set entries scanned
    /// plus young objects traced. It never counts the rest of the
    /// old generation.
    pub visited: u64,
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
    /// Derived state, never encoded and rebuilt by restore: each
    /// slot's positions in `young` and `remembered`.
    index: Vec<SlotIndex>,
    /// The young objects, in no particular order.
    young: Vec<ObjectId>,
    /// Non-young objects that may reference a young object: a superset
    /// of those that do, pruned by each young collection.
    remembered: Vec<ObjectId>,
    /// Mark bits by position in `young`, reused across collections.
    young_marks: Vec<bool>,
    /// Mark stack, reused across collections.
    mark_stack: Vec<ObjectId>,
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
            edges: Edges::Empty,
        };
        self.allocated_bytes += size as u64;
        self.total_allocated_bytes += size as u64;
        self.total_allocated_objects += 1;
        let id = match self.free_slots.pop() {
            Some(idx) => {
                let slot = self.slot_mut(idx);
                debug_assert!(slot.is_none());
                *slot = Some(obj);
                ObjectId(idx)
            }
            None => {
                self.slots.push(Some(obj));
                self.index.push(SlotIndex::default());
                ObjectId(self.slots.len() as u32 - 1)
            }
        };
        // Every object starts at tag 0: young.
        self.young_insert(id);
        id
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

    /// Mutable access to an object. Private: every write that can
    /// change the derived indexes goes through a method that keeps
    /// them current (the write barrier).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a collected object.
    fn get_mut(&mut self, id: ObjectId) -> &mut Object {
        self.slot_mut(id.0)
            .as_mut()
            .expect("stale object id") // tidy:allow(panic-reachability) -- runtimes hold only ids this table allocated and has not swept
    }

    /// Slot `idx` of the table, live or free: the one place an index
    /// into it is checked.
    fn slot_mut(&mut self, idx: u32) -> &mut Option<Object> {
        &mut self.slots[idx as usize] // tidy:allow(panic-reachability) -- slot indices come from ids and free-list entries this table allocated
    }

    /// Slot `id`'s entry in the derived index table, which `alloc` and
    /// `restore` keep the same length as the slot table: the one place
    /// an index into it is checked.
    fn index_mut(&mut self, id: ObjectId) -> &mut SlotIndex {
        &mut self.index[id.index()] // tidy:allow(panic-reachability) -- the index table grows with the slot table, and ids come from it
    }

    /// Slot `id`'s position in the young index, or [`ABSENT`].
    fn young_pos(&self, id: ObjectId) -> u32 {
        self.index.get(id.index()).map_or(ABSENT, |s| s.young)
    }

    /// True if `id` is a live young object.
    fn is_young(&self, id: ObjectId) -> bool {
        self.young_pos(id) != ABSENT
    }

    fn young_insert(&mut self, id: ObjectId) {
        let pos = self.young.len() as u32;
        self.young.push(id);
        self.index_mut(id).young = pos;
    }

    fn young_remove(&mut self, id: ObjectId) {
        let pos = std::mem::replace(&mut self.index_mut(id).young, ABSENT);
        if pos == ABSENT {
            return;
        }
        self.young.swap_remove(pos as usize);
        if let Some(&moved) = self.young.get(pos as usize) {
            self.index_mut(moved).young = pos;
        }
    }

    fn remember(&mut self, id: ObjectId) {
        if self.index_mut(id).remembered == ABSENT {
            let pos = self.remembered.len() as u32;
            self.remembered.push(id);
            self.index_mut(id).remembered = pos;
        }
    }

    fn forget(&mut self, id: ObjectId) {
        let pos = std::mem::replace(&mut self.index_mut(id).remembered, ABSENT);
        if pos == ABSENT {
            return;
        }
        self.remembered.swap_remove(pos as usize);
        if let Some(&moved) = self.remembered.get(pos as usize) {
            self.index_mut(moved).remembered = pos;
        }
    }

    /// The write barrier: a non-young `from` that now references a
    /// young `to` joins the remembered set.
    fn barrier(&mut self, from: ObjectId, to: ObjectId) {
        if self.is_young(to) && !self.is_young(from) {
            self.remember(from);
        }
    }

    /// True if `id` holds a strong or weak reference to a young object.
    fn holds_young(&self, id: ObjectId) -> bool {
        let obj = self.get(id);
        obj.refs().iter().chain(obj.weak_refs()).any(|&t| self.is_young(t))
    }

    /// Rebuilds both derived indexes from the slots.
    fn rebuild_index(&mut self) {
        self.index.clear();
        self.index.resize(self.slots.len(), SlotIndex::default());
        self.young.clear();
        self.remembered.clear();
        let ids = (0..self.slots.len() as u32).map(ObjectId);
        for id in ids.clone() {
            if self.exists(id) && self.get(id).space_tag < YOUNG_SPACE_LIMIT {
                self.young_insert(id);
            }
        }
        for id in ids {
            if self.exists(id) && !self.is_young(id) && self.holds_young(id) {
                self.remember(id);
            }
        }
    }

    /// Empties slot `id` onto the free list; returns its size.
    fn free(&mut self, id: ObjectId) -> u64 {
        self.young_remove(id);
        self.forget(id);
        self.free_slots.push(id.0);
        self.slot_mut(id.0).take().map_or(0, |o| u64::from(o.size))
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

    /// Sets the object's survived-GC count.
    pub fn set_age(&mut self, id: ObjectId, age: u8) {
        self.get_mut(id).age = age;
    }

    /// Moves the object to space `tag`, keeping the derived indexes
    /// current. A promoted object that references young objects joins
    /// the remembered set. Collectors only ever promote; moving an
    /// object back into a young space rebuilds the remembered set,
    /// because the object's referrers are not indexed.
    pub fn set_space(&mut self, id: ObjectId, tag: u8) {
        let was_young = self.is_young(id);
        let now_young = tag < YOUNG_SPACE_LIMIT;
        self.get_mut(id).space_tag = tag;
        match (was_young, now_young) {
            (true, false) => {
                self.young_remove(id);
                if self.holds_young(id) {
                    self.remember(id);
                }
            }
            (false, true) => self.rebuild_index(),
            _ => {}
        }
    }

    /// Adds a strong reference `from → to`.
    pub fn add_ref(&mut self, from: ObjectId, to: ObjectId) {
        debug_assert!(self.exists(to), "reference to stale object");
        self.get_mut(from).edges.push_strong(to);
        self.barrier(from, to);
    }

    /// Adds a weak reference `from → to`.
    pub fn add_weak_ref(&mut self, from: ObjectId, to: ObjectId) {
        debug_assert!(self.exists(to), "weak reference to stale object");
        self.get_mut(from).edges.push_weak(to);
        self.barrier(from, to);
    }

    /// Removes all strong references `from → to` (severing an edge so
    /// the target can die).
    pub fn remove_ref(&mut self, from: ObjectId, to: ObjectId) {
        self.get_mut(from).edges.retain(|r| *r != to, |_| true);
    }

    /// Replaces the full strong reference list of `from`.
    pub fn set_refs(&mut self, from: ObjectId, refs: Vec<ObjectId>) {
        for r in &refs {
            debug_assert!(self.exists(*r), "reference to stale object");
        }
        let young_target = refs.iter().any(|&r| self.is_young(r));
        self.get_mut(from).edges.set_strong(refs);
        if young_target && !self.is_young(from) {
            self.remember(from);
        }
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
        debug_assert_eq!(live.len(), self.slots.len());
        let mut freed = 0u64;
        let mut freed_slot = vec![false; self.slots.len()];
        for (idx, (&keep, freed_here)) in live.iter().zip(&mut freed_slot).enumerate() {
            let id = ObjectId(idx as u32);
            if !keep && self.exists(id) {
                freed += self.free(id);
                *freed_here = true;
            }
        }
        self.allocated_bytes -= freed;
        // Weak references may legally dangle only to freed slots; clear
        // them, and any strong reference a caller's bitmap left behind,
        // so the graph stays well-formed.
        let kept = |id: &ObjectId| freed_slot.get(id.index()) != Some(&true);
        for slot in self.slots.iter_mut().flatten() {
            slot.edges.retain(kept, kept);
        }
        self.globals.retain(kept);
        self.handles.retain(kept);
        freed
    }

    /// A young collection: marks from the globals, the handles and the
    /// young targets of the remembered set, tracing young objects only,
    /// then frees every unmarked young object in ascending id order.
    ///
    /// The outcome equals a full-graph mark with every non-young object
    /// as an extra root, dead ones included (the card-table
    /// approximation), followed by a [`HeapGraph::sweep`]: the same
    /// survivors, the same floating garbage, the same free-list order.
    /// Its cost follows the young objects and the remembered set, not
    /// the size of the heap.
    pub fn collect_young(&mut self) -> YoungCollection {
        #[cfg(debug_assertions)]
        let oracle = self.young_oracle();
        let mut marks = std::mem::take(&mut self.young_marks);
        let mut stack = std::mem::take(&mut self.mark_stack);
        marks.clear();
        marks.resize(self.young.len(), false);
        stack.clear();
        for &root in self.globals.iter().chain(&self.handles) {
            self.mark_young(root, &mut marks, &mut stack);
        }
        // Scan the remembered set, dropping the entries that no longer
        // reference a young object.
        let mut visited = 0u64;
        let mut i = 0;
        while let Some(&id) = self.remembered.get(i) {
            visited += 1;
            if self.mark_young_refs(id, &mut marks, &mut stack) {
                i += 1;
            } else {
                self.forget(id);
            }
        }
        while let Some(id) = stack.pop() {
            visited += 1;
            self.mark_young_refs(id, &mut marks, &mut stack);
        }
        let mut survivors = Vec::new();
        for (&id, &live) in self.young.iter().zip(&marks) {
            if live {
                survivors.push(id);
            } else {
                stack.push(id);
            }
        }
        survivors.sort_unstable();
        stack.sort_unstable();
        // The survivors are the whole young index from here on.
        self.young.clear();
        for &id in &survivors {
            self.young_insert(id);
        }
        let mut freed_bytes = 0u64;
        for &id in &stack {
            self.index_mut(id).young = ABSENT;
            freed_bytes += self.free(id);
        }
        self.allocated_bytes -= freed_bytes;
        stack.clear();
        self.young_marks = marks;
        self.mark_stack = stack;
        #[cfg(debug_assertions)]
        debug_assert_eq!((&survivors, self.allocated_bytes), (&oracle.0, oracle.1));
        YoungCollection {
            survivors,
            freed_bytes,
            live_bytes: self.allocated_bytes,
            visited,
        }
    }

    /// Marks `id` if it is young and unmarked; returns whether it is
    /// young.
    fn mark_young(&self, id: ObjectId, marks: &mut [bool], stack: &mut Vec<ObjectId>) -> bool {
        match marks.get_mut(self.young_pos(id) as usize) {
            Some(mark) => {
                if !*mark {
                    *mark = true;
                    stack.push(id);
                }
                true
            }
            None => false,
        }
    }

    /// Marks the young targets of `id`'s strong and weak references;
    /// returns whether it has any.
    fn mark_young_refs(&self, id: ObjectId, marks: &mut [bool], stack: &mut Vec<ObjectId>) -> bool {
        let obj = self.get(id);
        let mut any = false;
        for &target in obj.refs().iter().chain(obj.weak_refs()) {
            any |= self.mark_young(target, marks, stack);
        }
        any
    }

    /// The full-graph young mark that [`HeapGraph::collect_young`]
    /// replaces, kept as its debug-build oracle: every non-young object
    /// is an extra root. Returns the young survivors and live bytes.
    #[cfg(debug_assertions)]
    fn young_oracle(&self) -> (Vec<ObjectId>, u64) {
        let old = self
            .iter()
            .filter(|(_, o)| o.space_tag >= YOUNG_SPACE_LIMIT)
            .map(|(id, _)| id);
        let live = crate::trace::mark_with_extra_roots(self, true, true, old);
        let survivors = self
            .iter()
            .filter(|(id, o)| o.space_tag < YOUNG_SPACE_LIMIT && live.is_live(*id))
            .map(|(id, _)| id)
            .collect();
        (survivors, live.live_bytes)
    }
}

/// Checkpoint codec impls, kept here so exhaustive destructuring sees
/// every private field.
mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    snapshot::record!(ObjectId(u32));

    snapshot::record!(enum ObjectKind { 0 => Data, 1 => Code });

    impl Snapshot for Object {
        fn snap(&self, w: &mut Writer) {
            let Self {
                size,
                addr,
                age,
                space_tag,
                kind,
                edges: _,
            } = self;
            w.u32(*size);
            w.u64(*addr);
            w.u8(*age);
            w.u8(*space_tag);
            kind.snap(w);
            ObjectId::snap_seq(self.refs().iter(), w);
            ObjectId::snap_seq(self.weak_refs().iter(), w);
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
                edges: Edges::restore(r)?,
            })
        }
    }

    impl Edges {
        /// Reads the strong and weak lists [`Object`]'s codec wrote,
        /// straight into canonical form: a single strong reference
        /// with no weak one goes inline with no list built.
        fn restore(r: &mut Reader<'_>) -> Result<Edges, SnapError> {
            let mut edges = match r.seq_len()? {
                0 => Edges::Empty,
                1 => Edges::One(ObjectId::restore(r)?),
                n => Edges::Many(Box::new(EdgeLists {
                    strong: (0..n)
                        .map(|_| ObjectId::restore(r))
                        .collect::<Result<_, _>>()?,
                    weak: Vec::new(),
                })),
            };
            for to in Vec::<ObjectId>::restore(r)? {
                edges.push_weak(to);
            }
            Ok(edges)
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
                index: _,
                young: _,
                remembered: _,
                young_marks: _,
                mark_stack: _,
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
            let mut graph = HeapGraph {
                slots,
                free_slots,
                globals,
                handles,
                scope_bounds,
                allocated_bytes,
                total_allocated_bytes,
                total_allocated_objects,
                ..HeapGraph::default()
            };
            graph.rebuild_index();
            Ok(graph)
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
        assert!(g.get(holder).weak_refs().is_empty());
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
        assert!(g.scope_bounds.is_empty());
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
        assert!(g.get(a).refs().is_empty());
    }

    /// An object fills half a cache line in its table slot, whatever
    /// its edges.
    #[test]
    fn object_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Option<Object>>(), 32);
    }

    /// Every edge shape a graph can hold, and the transitions between
    /// them, encode to the bytes the object codec has always written.
    #[test]
    fn object_bytes_are_pinned() {
        let mut g = HeapGraph::new();
        let leaf = g.alloc(8, ObjectKind::Data);
        let one = g.alloc(16, ObjectKind::Data);
        let three = g.alloc(24, ObjectKind::Data);
        let mixed = g.alloc(32, ObjectKind::Data);
        let code = g.alloc(40, ObjectKind::Code);
        let trimmed = g.alloc(48, ObjectKind::Data);
        let cleared = g.alloc(56, ObjectKind::Data);
        let replaced = g.alloc(64, ObjectKind::Data);
        let doomed = g.alloc(72, ObjectKind::Data);
        g.add_ref(one, leaf);
        // Swept below, so the sweep takes `one` back to a single edge.
        g.add_weak_ref(one, doomed);
        for to in [leaf, one, leaf] {
            g.add_ref(three, to);
        }
        g.add_ref(mixed, leaf);
        g.add_weak_ref(mixed, code);
        g.add_ref(trimmed, leaf);
        g.add_ref(trimmed, one);
        g.remove_ref(trimmed, leaf);
        g.add_ref(cleared, leaf);
        g.add_ref(cleared, leaf);
        g.remove_ref(cleared, leaf);
        g.add_ref(replaced, leaf);
        g.set_refs(replaced, vec![three, mixed]);
        g.add_ref(doomed, leaf);
        for id in [leaf, one, three, mixed, code, trimmed, cleared, replaced] {
            g.add_global(id);
        }
        g.set_addr(three, 0x1_0000_0040);
        g.set_age(three, 2);
        g.set_space(mixed, 3);
        // Weak edges do not keep `doomed` alive.
        let live = crate::trace::mark(&g, true, false);
        assert_eq!(g.sweep(&live.marks), 72);

        let word = |v: u64| v.to_le_bytes().to_vec();
        let ids = |list: &[ObjectId]| {
            let mut out = word(list.len() as u64);
            for id in list {
                out.extend_from_slice(&id.0.to_le_bytes());
            }
            out
        };
        // An occupied slot: its tag, size, address, age, space tag,
        // kind, and the strong and weak lists.
        let object = |size: u32, addr: u64, age: u8, space: u8, kind: u8, refs: &[ObjectId], weak: &[ObjectId]| {
            let mut out = vec![1];
            out.extend_from_slice(&size.to_le_bytes());
            out.extend(word(addr));
            out.extend([age, space, kind]);
            out.extend(ids(refs));
            out.extend(ids(weak));
            out
        };
        let globals = [leaf, one, three, mixed, code, trimmed, cleared, replaced];
        let want = [
            word(9),
            object(8, 0, 0, 0, 0, &[], &[]),
            object(16, 0, 0, 0, 0, &[leaf], &[]),
            object(24, 0x1_0000_0040, 2, 0, 0, &[leaf, one, leaf], &[]),
            object(32, 0, 0, 3, 0, &[leaf], &[code]),
            object(40, 0, 0, 0, 1, &[], &[]),
            object(48, 0, 0, 0, 0, &[one], &[]),
            object(56, 0, 0, 0, 0, &[], &[]),
            object(64, 0, 0, 0, 0, &[three, mixed], &[]),
            vec![0],
            word(1),
            doomed.0.to_le_bytes().to_vec(),
            ids(&globals),
            word(0),
            word(0),
            word(288),
            word(360),
            word(9),
        ]
        .concat();
        assert_eq!(snapshot::encode(&g), want);
    }

    #[test]
    fn object_kind_wire_tags_are_pinned() {
        for (kind, tag) in [(ObjectKind::Data, 0u8), (ObjectKind::Code, 1)] {
            assert_eq!(snapshot::encode(&kind), [tag]);
            assert_eq!(snapshot::decode(&[tag]), Ok(kind));
        }
    }
}
