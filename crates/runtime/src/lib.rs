//! # faas-runtime — managed-runtime instances for the FaaS platform
//!
//! This crate glues the two heap models (`hotspot`, `v8heap`) into
//! complete *runtime instances*, the unit the FaaS platform launches,
//! freezes, thaws, and (with Desiccant) reclaims:
//!
//! * [`RuntimeImage`] — what a language runtime costs before the first
//!   object is allocated: shared libraries (`libjvm.so`, the `node`
//!   binary), private native memory (metaspace, code cache, malloc
//!   arenas), and startup time. Images come in OpenWhisk flavour
//!   (libraries shared between same-language instances through the page
//!   cache) and Lambda flavour (no sharing — §5.4).
//! * [`RuntimeHeap`] — a uniform façade over [`hotspot::HotSpotHeap`]
//!   and [`v8heap::V8Heap`] that delegates to their
//!   [`gc_core::ManagedHeap`] impls: allocation, eager GC (what the
//!   paper's *eager* baseline calls at every function exit), and the
//!   Desiccant `reclaim` interface.
//! * [`Instance`] — one managed process: heap + native memory + mapped
//!   libraries + JIT state. Provides [`Instance::invoke`], which runs a
//!   workload kernel inside a handle scope and converts kernel compute,
//!   GC pauses, page-fault refills, JIT warm-up, and deoptimization
//!   debt into a wall-clock invocation latency at the instance's CPU
//!   share.
//! * [`gc_core::ReclaimOutcome`] — the §4.4 profile an instance sends
//!   back after a reclamation (live bytes + released bytes + wall
//!   time), which the platform extends with CPU time for Desiccant's
//!   estimator.
//!
//! # Examples
//!
//! ```
//! use faas_runtime::{ExecProfile, Instance, Language, RuntimeImage};
//! use simos::{SimTime, System};
//!
//! let mut sys = System::new();
//! let image = RuntimeImage::openwhisk(Language::Java);
//! let libs = image.register_files(&mut sys);
//! let mut inst =
//!     Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
//!
//! let report = inst
//!     .invoke(&mut sys, SimTime::ZERO, &ExecProfile::default(), |ctx| {
//!         let a = ctx.alloc(1 << 20);
//!         ctx.handle(a);
//!         ctx.work(simos::SimDuration::from_millis(5));
//!     })
//!     .unwrap();
//! assert!(report.wall_time > simos::SimDuration::from_millis(5));
//! ```

#![forbid(unsafe_code)]

pub mod heap;
pub mod image;
pub mod instance;
pub mod invocation;

pub use heap::RuntimeHeap;
pub use image::{Language, RuntimeImage, SharedLibs};
pub use instance::{ExecProfile, Instance, InvocationReport};
pub use invocation::InvocationCtx;
