//! The invocation context handed to workload kernels.
//!
//! A kernel is ordinary Rust code that expresses a FaaS function's
//! *allocation and compute behaviour*: it allocates objects in the
//! instance's managed heap, wires references, retains state in globals,
//! and charges compute time. The context hides the heap façade behind
//! a small API so kernels read like the functions they model.

use gc_core::object::{ObjectId, ObjectKind};
use simos::{SimDuration, System};

use crate::heap::RuntimeHeap;

/// Context for one function invocation.
///
/// Created by [`crate::Instance::invoke`]; a handle scope is already
/// open, so [`InvocationCtx::handle`] roots temporaries for the length
/// of the invocation and everything not retained via
/// [`InvocationCtx::global`] dies when the function exits.
pub struct InvocationCtx<'a> {
    pub(crate) sys: &'a mut System,
    pub(crate) heap: &'a mut RuntimeHeap,
    pub(crate) compute: SimDuration,
}

impl<'a> InvocationCtx<'a> {
    /// Allocates a data object of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion; workload kernels are calibrated to
    /// fit their instance budget, so exhaustion is a calibration bug.
    pub fn alloc(&mut self, size: u32) -> ObjectId {
        self.alloc_kind(size, ObjectKind::Data)
    }

    /// Allocates an object of a specific kind (e.g. JIT code).
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion (see [`InvocationCtx::alloc`]).
    pub fn alloc_kind(&mut self, size: u32, kind: ObjectKind) -> ObjectId {
        self.heap
            .alloc(self.sys, size, kind)
            .expect("workload exceeds calibrated heap budget") // tidy:allow(panic-reachability) -- heap demand is calibrated below the budget when the spec is built
    }

    /// Roots `id` for the rest of this invocation (a local variable).
    pub fn handle(&mut self, id: ObjectId) {
        self.heap.graph_mut().add_handle(id);
    }

    /// Retains `id` across invocations (function state, caches).
    pub fn global(&mut self, id: ObjectId) {
        self.heap.graph_mut().add_global(id);
    }

    /// Releases a previously retained global root.
    pub fn drop_global(&mut self, id: ObjectId) {
        self.heap.graph_mut().remove_global(id);
    }

    /// Adds a strong reference `from → to`.
    pub fn link(&mut self, from: ObjectId, to: ObjectId) {
        self.heap.graph_mut().add_ref(from, to);
    }

    /// Adds a weak reference `from → to` (JIT code caches).
    pub fn link_weak(&mut self, from: ObjectId, to: ObjectId) {
        self.heap.graph_mut().add_weak_ref(from, to);
    }

    /// Charges `d` of pure kernel compute time (at full CPU; the
    /// instance's CPU share scales it into wall time).
    pub fn work(&mut self, d: SimDuration) {
        self.compute += d;
    }

    /// The current global roots (to find state retained by earlier
    /// invocations of this instance).
    pub fn globals(&self) -> &[ObjectId] {
        self.heap.graph().globals()
    }

    /// True if `id` is still a live slot (for defensive kernels).
    pub fn exists(&self, id: ObjectId) -> bool {
        self.heap.graph().exists(id)
    }
}
