//! # goruntime — a model of the Go runtime heap
//!
//! The second §7 extension target: *"For the Go runtime, as its heap is
//! located in several contiguous memory ranges, Desiccant can employ
//! similar methods to estimate the efficiency of reclamation.
//! Subsequently, Desiccant can utilize Go's internal data structures to
//! identify free regions and perform reclamation accordingly."*
//!
//! The model captures the Go behaviours that matter for frozen garbage:
//!
//! * **spans in contiguous arenas** — the heap grows in 4 MiB arenas
//!   carved into spans of 8 KiB pages; each span serves one size class
//!   ([`span`]);
//! * **the GOGC pacer** — a collection starts when the live-ish heap
//!   reaches `heap_goal = live_at_last_gc × (1 + GOGC/100)`; a frozen
//!   instance whose heap sits *below* the goal never collects at all,
//!   and whatever has not been swept stays resident;
//! * **lazy scavenging** — even after a collection, Go returns
//!   fully-free spans to the OS only through a background scavenger
//!   that paces itself over minutes; a frozen instance's scavenger
//!   never runs, so free spans stay resident — frozen garbage, Go
//!   flavour;
//! * **the Desiccant reclaim** — force a collection and scavenge every
//!   free span immediately (the two [`gc_core::ManagedHeap`] hooks
//!   behind its `reclaim`). Partially-used spans cannot be released
//!   (Go does not move objects), which is this runtime's fragmentation
//!   floor.
//!
//! Like `cpython-heap`, this is an extension beyond the paper's
//! measured evaluation, exercised by its own tests and
//! `examples/other_runtimes.rs`.
//!
//! # Examples
//!
//! ```
//! use gc_core::{ManagedHeap, ObjectKind};
//! use goruntime::{GoConfig, GoHeap};
//! use simos::System;
//!
//! let mut sys = System::new();
//! let pid = sys.spawn_process();
//! let mut heap = GoHeap::new(&mut sys, pid, GoConfig::default()).unwrap();
//! let scope = heap.graph_mut().push_handle_scope();
//! let obj = heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
//! heap.graph_mut().add_handle(obj);
//! heap.graph_mut().pop_handle_scope(scope);
//! // The object is dead, but below the GOGC goal nothing collects.
//! let before = heap.resident_heap_bytes(&sys);
//! let out = heap.reclaim(&mut sys, true).unwrap();
//! assert!(out.released_bytes > 0);
//! assert!(heap.resident_heap_bytes(&sys) < before);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

pub mod heap;
pub mod span;

pub use heap::{GoConfig, GoHeap};
pub use span::{SpanId, GO_ARENA_SIZE, GO_PAGE_SIZE};
