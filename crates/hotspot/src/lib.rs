//! # hotspot — a model of the OpenJDK HotSpot serial collector
//!
//! AWS Lambda runs Java functions on the serial GC (the paper confirms
//! this by dumping runtime options inside Lambda instances, §3.2.1), so
//! this crate models exactly that collector:
//!
//! * a **generational, contiguous heap**: a young generation split into
//!   *eden*, *from*, and *to* spaces, and an old generation — see
//!   [`layout`];
//! * **young collections** that copy survivors between the semispace
//!   halves and promote tenured objects. The object graph's remembered
//!   set finds the old objects that reference young ones, and every
//!   such old object, dead or alive, keeps its young referents alive
//!   (the card-table approximation's floating garbage);
//! * **full collections** (mark-compact) that compact all live objects
//!   into the old generation;
//! * the **resizing policy** run after full collections, keeping the
//!   old generation's free ratio between `MinHeapFreeRatio` and
//!   `MaxHeapFreeRatio` and deriving the young size from the old size;
//! * the crucial behaviour the paper characterizes: **shrinking
//!   releases memory (uncommit via `PROT_NONE`), but free pages inside
//!   the committed heap stay resident** — after a full GC the heap may
//!   be 86 % free pages (file-hash: 1.07 MiB live in a 7.88 MiB heap)
//!   and none of it returns to the OS;
//! * the two hooks of the Desiccant **`reclaim` interface** (Algorithm
//!   1, [`gc_core::ManagedHeap`]): collect all generations and resize,
//!   then release every free page of every space back to the OS.
//!
//! # Examples
//!
//! ```
//! use gc_core::{ManagedHeap, ObjectKind};
//! use hotspot::{HotSpotConfig, HotSpotHeap};
//! use simos::System;
//!
//! let mut sys = System::new();
//! let pid = sys.spawn_process();
//! let mut heap =
//!     HotSpotHeap::new(&mut sys, pid, HotSpotConfig::for_budget(256 << 20)).unwrap();
//!
//! // Allocate a short-lived object graph inside an invocation.
//! let scope = heap.graph_mut().push_handle_scope();
//! let obj = heap.alloc(&mut sys, 1 << 20, ObjectKind::Data).unwrap();
//! heap.graph_mut().add_handle(obj);
//! heap.graph_mut().pop_handle_scope(scope);
//!
//! // The dead object stays resident until reclaimed.
//! let before = sys.uss(pid);
//! let outcome = heap.reclaim(&mut sys, true).unwrap();
//! assert!(outcome.released_bytes > 0);
//! assert!(sys.uss(pid) < before);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod g1;
pub mod heap;
pub mod layout;

pub use config::HotSpotConfig;
pub use g1::{G1Config, G1Heap};
pub use heap::HotSpotHeap;
pub use layout::{HeapLayout, SpaceId};
