//! # azure-trace — synthetic Azure-Functions-2019-style traces
//!
//! The paper's §5.3 replays the Azure Functions production traces
//! (Shahrad et al., ATC '20): it picks 20 trace functions whose
//! execution times are closest to the Table-1 workloads, then invokes
//! the Table-1 functions with the *inter-arrival patterns* of the
//! selected trace functions, compressed by a *scale factor*.
//!
//! The actual dataset is not redistributable here, so this crate
//! synthesizes traces with the dataset's published shape instead
//! (documented in the DESIGN.md substitution table):
//!
//! * invocation rates are heavy-tailed (a few hot functions dominate;
//!   most are invoked rarely) — we draw per-function rates from a
//!   Pareto-like distribution, anti-correlated with execution time as
//!   in the dataset (short functions are invoked more often);
//! * about 45 % of functions are timer-driven and fire periodically
//!   with small jitter; the rest follow Poisson or bursty processes;
//! * the replay protocol matches the paper: warm up for 60 s at scale
//!   factor 15, then replay 180 s at the scale factor under test.
//!
//! # Examples
//!
//! ```
//! use azure_trace::{build_trace, generate_arrivals};
//! use simos::{SimDuration, SimTime};
//!
//! let catalog = workloads::catalog();
//! let trace = build_trace(&catalog, 7);
//! assert_eq!(trace.len(), catalog.len());
//! let arrivals = generate_arrivals(
//!     &trace,
//!     15.0,
//!     SimTime::ZERO,
//!     SimTime::ZERO + SimDuration::from_secs(60),
//!     7,
//! );
//! assert!(!arrivals.is_empty());
//! // Arrivals are time-sorted.
//! assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
//! ```

#![forbid(unsafe_code)]

pub mod cluster_replay;
pub mod generate;
pub mod replay;
pub mod resume;

pub use cluster_replay::{replay_cluster, ClusterReplayOutcome};
pub use generate::{build_trace, generate_arrivals, ArrivalPattern, TraceFunction};
pub use replay::{replay, ReplayConfig, ReplayOutcome};
pub use resume::{replay_resumable, ResumeOptions, ResumeOutcome};
