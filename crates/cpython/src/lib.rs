//! # cpython-heap — a model of CPython's memory management
//!
//! The paper's §7 argues that the frozen-garbage problem is not
//! specific to HotSpot and V8: *"the mainstream CPython runtime manages
//! memory in arenas of 256 KB and only releases the entire memory of an
//! arena when it becomes empty. Since CPython is not aware of freeze
//! semantics, the memory in arenas is not returned to the OS when the
//! instance should be frozen."* It then sketches how Desiccant applies:
//! estimate reclamation throughput from collection time and live
//! objects, find free regions through the allocator's internal free
//! lists, and release them with `mmap`.
//!
//! This crate implements that sketch:
//!
//! * [`arena`] — an obmalloc-style allocator: 256 KiB arenas divided
//!   into 4 KiB *pools*, each pool serving one size class. A pool
//!   returns to the arena's free list when its last object dies; stock
//!   CPython unmaps an arena **only when every pool in it is free** —
//!   one surviving object pins 256 KiB resident.
//! * [`heap`] — the object lifecycle: **reference counting** frees
//!   acyclic garbage the moment the invocation's handle scope pops
//!   (modeled with an SCC analysis over the dead subgraph — exactly the
//!   objects CPython's refcounts *cannot* free are those on or
//!   reachable from reference cycles), and the **cycle collector**
//!   (`gc.collect()`) frees the rest when invoked.
//! * the Desiccant extension, as the two [`gc_core::ManagedHeap`] hooks
//!   behind its `reclaim`: run the cycle collector, then release every
//!   *whole-free page* inside partially-used arenas back to the OS
//!   (free pools are exactly page-sized, so fragmentation cost is
//!   per-pool, mirroring the paper's free-list-guided release).
//!
//! Unlike the HotSpot/V8 models, this crate is an *extension beyond the
//! paper's measured evaluation* (its §7 is a discussion section); it is
//! exercised by its own tests and `examples/other_runtimes.rs`, not by
//! the figure harnesses.
//!
//! # Examples
//!
//! ```
//! use cpython_heap::{CPythonConfig, CPythonHeap};
//! use gc_core::{ManagedHeap, ObjectKind};
//! use simos::System;
//!
//! let mut sys = System::new();
//! let pid = sys.spawn_process();
//! let mut heap = CPythonHeap::new(&mut sys, pid, CPythonConfig::default()).unwrap();
//!
//! let scope = heap.graph_mut().push_handle_scope();
//! // A reference cycle: refcounting alone cannot free it.
//! let a = heap.alloc(&mut sys, 512, ObjectKind::Data).unwrap();
//! let b = heap.alloc(&mut sys, 512, ObjectKind::Data).unwrap();
//! heap.graph_mut().add_ref(a, b);
//! heap.graph_mut().add_ref(b, a);
//! heap.graph_mut().add_handle(a);
//! heap.graph_mut().pop_handle_scope(scope);
//! heap.refcount_pass(&mut sys).unwrap();
//! assert!(heap.graph().exists(a), "cyclic garbage survives refcounting");
//! let out = heap.reclaim(&mut sys, true).unwrap();
//! assert!(!heap.graph().exists(a), "the cycle collector frees it");
//! assert_eq!(out.live_bytes, 0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

pub mod arena;
pub mod heap;

pub use arena::{ArenaAllocator, ARENA_SIZE, POOL_SIZE};
pub use heap::{CPythonConfig, CPythonHeap};
