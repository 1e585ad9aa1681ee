//! # v8heap — a model of the V8 JavaScript heap
//!
//! Node.js functions on Lambda run on V8, whose heap differs from
//! HotSpot's in exactly the ways the paper's §3.2.2 characterization
//! depends on:
//!
//! * all spaces are made of **discontinuous 256 KiB chunks**, each with
//!   a self-describing **4 KiB header page that can never be released**
//!   (unmapping the rest still frees 98.4 % of a chunk);
//! * the young generation has **no eden**: allocation happens in the
//!   *from* semispace, and the scavenger copies survivors to *to*;
//! * the resize policy is **asymmetric**: expansion is decided *before*
//!   a GC (the young generation doubles once the live bytes accumulated
//!   since the last expansion exceed its size), while shrinking happens
//!   *after* a GC and only when the allocation rate is low — so a
//!   bursty FaaS function's young generation ratchets up to its cap
//!   (32 MiB for a 256 MiB budget, 128 MiB at 1 GiB) and never shrinks
//!   before the instance freezes;
//! * the old space is **mark-sweep with free lists**: dead objects
//!   leave fragmented free runs inside chunks, fully-free chunks are
//!   unmapped after GC (V8 is more aggressive than HotSpot about
//!   returning memory), and partially-free pages are what separates
//!   Desiccant from the ideal baseline for JavaScript (≈6.4 %, §5.2);
//! * `global.gc()` is **aggressive**: it drops weakly referenced code,
//!   deoptimizing JIT state and slowing later invocations — Desiccant's
//!   `reclaim` takes a flag to keep weak targets alive (§4.7, a 7 LoC
//!   patch in the real V8).
//!
//! # Examples
//!
//! ```
//! use gc_core::{ManagedHeap, ObjectKind};
//! use simos::System;
//! use v8heap::{V8Config, V8Heap};
//!
//! let mut sys = System::new();
//! let pid = sys.spawn_process();
//! let mut heap = V8Heap::new(&mut sys, pid, V8Config::for_budget(256 << 20)).unwrap();
//!
//! let scope = heap.graph_mut().push_handle_scope();
//! let obj = heap.alloc(&mut sys, 64 << 10, ObjectKind::Data).unwrap();
//! heap.graph_mut().add_handle(obj);
//! heap.graph_mut().pop_handle_scope(scope);
//!
//! let before = sys.uss(pid);
//! let outcome = heap.reclaim(&mut sys, true).unwrap();
//! assert!(outcome.released_bytes > 0);
//! assert!(sys.uss(pid) < before);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

pub mod chunk;
pub mod config;
pub mod heap;

pub use chunk::{Chunk, ChunkId, CHUNK_HEADER, CHUNK_SIZE};
pub use config::V8Config;
pub use heap::V8Heap;
