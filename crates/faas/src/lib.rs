//! # faas — an OpenWhisk-like FaaS platform simulator
//!
//! This crate models the platform side of the paper: the component that
//! launches function instances, *freezes* them after each invocation
//! (OpenWhisk pauses the container; Lambda behaves observably the same,
//! §2.1), caches frozen instances within a memory budget, evicts them
//! under pressure, and — with Desiccant plugged in — reclaims their
//! frozen garbage instead.
//!
//! The simulation is discrete-event and fully deterministic:
//!
//! * [`platform::Platform`] — the controller: request routing, instance
//!   pools per function (and per chain stage), cold boots, freeze/thaw,
//!   the instance cache with LRU eviction, a core-limited CPU model
//!   (functions run at their cgroup share; cold boots burn a full
//!   core), and chain orchestration;
//! * [`manager::MemoryManager`] — the hook Desiccant implements:
//!   the platform reports frozen-instance views, evictions, and
//!   reclamation profiles; the manager answers with instances to
//!   reclaim (§4.2–§4.5);
//! * [`config::PlatformConfig`] — cache budget, per-instance budget and
//!   CPU share, cores, cold-boot overhead, and the environment flavour
//!   (OpenWhisk shares runtime libraries between same-language
//!   instances; Lambda does not);
//! * [`stats::PlatformStats`] + [`histogram::LatencyHistogram`] — cold
//!   boot counts, throughput, CPU utilization, and tail latency: the
//!   Figure 9/10 metrics;
//! * [`fault::FaultPlan`] + [`fault::FaultInjector`] — a seeded,
//!   virtual-clock-driven fault schedule (boot failures, crashes,
//!   thaw/reclaim failures, OOM kills); off by default and
//!   byte-identical to a fault-free build when disabled;
//! * [`durable::Durable`] — the one durability driver: a platform
//!   behind a write-ahead round journal and a faultable checkpoint
//!   store ([`store::CheckpointStore`]), recovering from kills
//!   ([`fault::CrashPlan`]) and outages by journal replay;
//! * [`error::PlatformError`] — typed errors for event-loop and
//!   teardown invariants (stale events, cache/process residue).
//!
//! # Examples
//!
//! ```
//! use faas::config::PlatformConfig;
//! use faas::platform::{GcMode, Platform};
//! use simos::SimTime;
//!
//! let mut p = Platform::new(PlatformConfig::default(), workloads::catalog(), GcMode::Vanilla, None);
//! let fn_idx = p.function_index("file-hash").unwrap();
//! for i in 0..10 {
//!     p.submit(SimTime(i * 500_000_000), fn_idx);
//! }
//! p.run_until(SimTime(20_000_000_000));
//! assert_eq!(p.stats().completed, 10);
//! assert!(p.stats().cold_boots >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod durable;
pub mod error;
pub mod fault;
pub mod histogram;
pub mod manager;
pub mod platform;
pub mod queue;
pub mod stats;
pub mod store;

pub use config::{EnvFlavor, PlatformConfig};
pub use durable::{Cadence, Durable, RecoveryCounts};
pub use error::{PlatformError, PlatformResult};
pub use fault::{
    CrashPlan, FaultInjector, FaultPlan, OutageKind, OutagePlan, OutageWindow, StorageFault,
    StorageFaultInjector, StorageFaultPlan,
};
pub use store::{CheckpointStore, Retention};
pub use histogram::LatencyHistogram;
pub use manager::{FrozenView, MemoryManager, ReclaimProfile};
pub use platform::{FailReason, FrozenFnSummary, GcMode, InstanceId, Platform};
pub use queue::EventQueue;
pub use stats::PlatformStats;
