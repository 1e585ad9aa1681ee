//! # gc-core — the shared garbage-collection substrate
//!
//! Every heap model in this reproduction — the HotSpot serial collector
//! and G1 in `hotspot`, the V8 heap in `v8heap`, CPython's arenas in
//! `cpython-heap` and Go's spans in `goruntime` — works over *a real
//! object graph*: workload kernels allocate objects, build references,
//! and drop handle scopes when a function invocation exits, and the
//! collectors discover liveness by marking — nothing about "how much is
//! garbage" is assumed.
//!
//! This crate holds what the five heaps share:
//!
//! * [`heap`] — the managed-heap contract, [`heap::ManagedHeap`]: the
//!   paper's §7 requirements as one trait that all five heaps
//!   implement, with the Desiccant `reclaim` written once on top of it,
//!   plus the one [`heap::ReclaimOutcome`] and [`heap::HeapError`].
//! * [`object`] — the object arena ([`object::HeapGraph`]): objects with
//!   sizes, addresses, strong and weak references, global roots (state
//!   that survives across invocations) and handle-scope roots (state
//!   that dies when a function exits — the source of *frozen garbage*),
//!   plus the young index and remembered set behind
//!   [`object::HeapGraph::collect_young`], the young collection the
//!   generational collectors share.
//! * [`trace`] — the marker: computes the live set from the roots,
//!   with or without treating weak references as strong (§4.7 of the
//!   paper distinguishes aggressive collections, which clear weakly
//!   referenced code and cause JIT deoptimization, from Desiccant's
//!   weak-preserving mode).
//! * [`stats`] — GC statistics shared by every collector.
//!
//! # Examples
//!
//! ```
//! use gc_core::object::{HeapGraph, ObjectKind};
//!
//! let mut g = HeapGraph::new();
//! let scope = g.push_handle_scope();
//! let a = g.alloc(1024, ObjectKind::Data);
//! g.add_handle(a);
//! let b = g.alloc(512, ObjectKind::Data);
//! g.add_ref(a, b);
//! // Both objects are reachable through the handle scope.
//! let live = gc_core::trace::mark(&g, true, true);
//! assert_eq!(live.live_bytes, 1536);
//! // When the invocation exits, the scope dies and so do the objects.
//! g.pop_handle_scope(scope);
//! let live = gc_core::trace::mark(&g, true, true);
//! assert_eq!(live.live_bytes, 0);
//! ```

#![forbid(unsafe_code)]

pub mod heap;
pub mod object;
pub mod stats;
pub mod trace;

pub use heap::{HeapError, ManagedHeap, ReclaimOutcome};
pub use object::{HeapGraph, ObjectId, ObjectKind};
pub use stats::{GcCounters, GcKind};
pub use trace::{mark, LiveSet};
