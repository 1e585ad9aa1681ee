//! # simos — a simulated operating-system substrate
//!
//! The Desiccant paper ([EuroSys '24]) is, at its core, a story about
//! *pages*: which physical pages a frozen FaaS instance keeps resident,
//! which of them hold only dead objects, and how a freeze-aware memory
//! manager can hand them back to the operating system. Reproducing the
//! paper therefore requires an operating-system memory model that is
//! faithful at page granularity, even though no real `mmap` is issued.
//!
//! This crate provides that model:
//!
//! * [`mem::AddressSpace`] — a per-process virtual address space made of
//!   [`mem::Mapping`]s, each tracking commit/resident/dirty/swap state
//!   per 4 KiB page, with `mmap`/`munmap`/`mprotect` and an
//!   `madvise(MADV_DONTNEED)`-style [`mem::AddressSpace::release`].
//! * [`system::System`] — the machine: all address spaces plus a shared
//!   file page cache, so that file-backed mappings (shared libraries)
//!   are correctly shared between processes.
//! * [`metrics`] — USS / RSS / PSS and `smaps`/`pmap`-style reports,
//!   computed exactly as the paper measures them (§3.1).
//! * [`clock`] — virtual time; the whole reproduction is a deterministic
//!   discrete-time simulation.
//! * [`cpu`] — cgroup-style CPU accounting used by Desiccant's
//!   reclamation-cost profiles (§4.5.2).
//! * [`cost`] — the latency cost model for page faults and swap-ins.
//!
//! # Examples
//!
//! ```
//! use simos::mem::{MappingKind, Prot};
//! use simos::system::System;
//!
//! let mut sys = System::new();
//! let pid = sys.spawn_process();
//! let addr = sys
//!     .mmap(pid, 1 << 20, MappingKind::Anonymous, Prot::READ_WRITE)
//!     .unwrap();
//! // Nothing is resident until touched.
//! assert_eq!(sys.rss(pid), 0);
//! sys.touch(pid, addr, 64 * 1024, true).unwrap();
//! assert_eq!(sys.rss(pid), 64 * 1024);
//! // An `madvise(DONTNEED)`-style release returns the pages to the OS.
//! sys.release(pid, addr, 64 * 1024).unwrap();
//! assert_eq!(sys.rss(pid), 0);
//! ```
//!
//! [EuroSys '24]: https://doi.org/10.1145/3627703.3629579

#![forbid(unsafe_code)]

pub mod cast;
pub mod clock;
pub mod cost;
pub mod cpu;
pub mod error;
pub mod mem;
pub mod metrics;
pub mod system;

pub use clock::{SimDuration, SimTime};
pub use error::{SimOsError, SimOsResult};
pub use mem::{AddressSpace, MappingKind, Prot, VirtAddr, PAGE_SIZE};
pub use system::{FileId, Pid, System};
