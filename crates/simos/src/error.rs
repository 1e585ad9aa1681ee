//! Error types for the simulated OS.

use std::fmt;

use crate::mem::VirtAddr;
use crate::system::Pid;

/// Result alias used across the crate.
pub type SimOsResult<T> = Result<T, SimOsError>;

/// Errors produced by simulated system calls.
///
/// These mirror the failure modes of the real calls (`EINVAL`,
/// `ENOMEM`, `EFAULT`, `ESRCH`) closely enough that callers exercise
/// the same error-handling paths a real runtime would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOsError {
    /// The requested range is not page-aligned or has zero length.
    BadAlignment { addr: u64, len: u64 },
    /// The address range does not lie inside a single mapping.
    UnmappedRange { addr: VirtAddr, len: u64 },
    /// The access violates the mapping's protection (e.g. a write to a
    /// `PROT_NONE` region).
    ProtectionViolation { addr: VirtAddr },
    /// No such process.
    NoSuchProcess(Pid),
    /// No such file in the file registry.
    NoSuchFile(u64),
    /// A file mapping of `len` bytes runs past the end of its
    /// `size`-byte file.
    PastEndOfFile { file: u64, len: u64, size: u64 },
    /// The address space cannot fit the requested mapping.
    OutOfAddressSpace { requested: u64 },
    /// A fixed-address mapping would overlap an existing mapping.
    MappingOverlap { addr: VirtAddr },
}

impl fmt::Display for SimOsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimOsError::BadAlignment { addr, len } => {
                write!(f, "range {addr:#x}+{len:#x} is not page-aligned or empty")
            }
            SimOsError::UnmappedRange { addr, len } => {
                write!(f, "range {:#x}+{len:#x} is not fully mapped", addr.0)
            }
            SimOsError::ProtectionViolation { addr } => {
                write!(f, "access at {:#x} violates mapping protection", addr.0)
            }
            SimOsError::NoSuchProcess(pid) => write!(f, "no such process: {pid:?}"),
            SimOsError::NoSuchFile(id) => write!(f, "no such file: {id}"),
            SimOsError::PastEndOfFile { file, len, size } => {
                write!(f, "mapping of {len:#x} bytes runs past the end of file {file} ({size:#x} bytes)")
            }
            SimOsError::OutOfAddressSpace { requested } => {
                write!(f, "cannot fit mapping of {requested:#x} bytes")
            }
            SimOsError::MappingOverlap { addr } => {
                write!(f, "fixed mapping at {:#x} overlaps an existing one", addr.0)
            }
        }
    }
}

impl std::error::Error for SimOsError {}
