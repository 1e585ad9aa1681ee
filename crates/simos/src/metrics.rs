//! Memory metrics: USS, RSS, PSS and `smaps`-style reports.
//!
//! The paper measures frozen instances with **USS** (Unique Set Size:
//! `private_dirty + private_clean`), because shared libraries like
//! `libjvm.so` are shared by many instances of the same language and
//! should not be charged to any single one (§3.1). Figure 8 additionally
//! reports **RSS** and **PSS**. Definitions, per resident page of a
//! process:
//!
//! * anonymous pages and dirty (CoW) file pages are always *private*;
//! * clean file-backed pages are private iff exactly one process maps
//!   them, shared otherwise;
//! * `RSS` counts every resident page once,
//! * `USS` counts only private pages,
//! * `PSS` counts private pages once and shared pages as `1/n` where
//!   `n` is the number of mapping processes.
//!
//! [`uss`] and [`rss`] are word-parallel: RSS is the sum of the
//! mappings' maintained resident counters, and USS adds, per file
//! mapping, the resident dirty pages and a popcount of
//! `resident & !dirty & solo`, where `solo` is the file's derived
//! bitmap of pages with exactly one clean mapper (see
//! [`crate::system::FileRegistry::solo`]). [`private_unmodified_files`],
//! the §4.6 unmap-candidate query, applies the same popcounts per file
//! mapping. None of them builds an `smaps` report. [`smaps`] and [`pss`]
//! keep the per-page walk, since PSS needs each shared page's mapper
//! count, and serve as the oracle: debug builds check every word-parallel
//! result against the `smaps` report.

use crate::mem::{Mapping, MappingKind, PAGE_SIZE};
use crate::system::{Pid, System};

/// Per-mapping breakdown, mirroring an `smaps` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SmapsEntry {
    /// Mapping name (e.g. `"[heap:java]"`, `"libjvm.so"`).
    pub name: String,
    /// Mapping start address.
    pub start: u64,
    /// Mapping length in bytes.
    pub len: u64,
    /// Resident bytes.
    pub rss: u64,
    /// Proportional set size in bytes (fractional for shared pages).
    pub pss: f64,
    /// Resident private clean bytes (file pages mapped by one process).
    pub private_clean: u64,
    /// Resident private dirty bytes (anon + CoW file pages).
    pub private_dirty: u64,
    /// Resident shared clean bytes.
    pub shared_clean: u64,
    /// Bytes on the swap device.
    pub swap: u64,
    /// True if the mapping is file-backed.
    pub file_backed: bool,
}

impl SmapsEntry {
    /// USS contribution of this mapping.
    pub fn uss(&self) -> u64 {
        self.private_clean + self.private_dirty
    }

    /// True if the whole resident part is private and unmodified and
    /// the mapping is file-backed — the §4.6 unmap-candidate predicate.
    pub fn is_private_unmodified_file(&self) -> bool {
        self.file_backed && self.private_dirty == 0 && self.shared_clean == 0 && self.rss > 0
    }
}

fn classify(sys: &System, m: &Mapping) -> SmapsEntry {
    // Anonymous mappings never share pages, so their entry follows
    // directly from the maintained counters — no page walk needed.
    // (Heaps are anonymous and large; this path is hot.)
    if matches!(m.kind, MappingKind::Anonymous) {
        let rss = m.resident_bytes();
        // Dirty pages on the swap device keep their dirty flag; deduct
        // them to approximate the *resident* dirty count. The USS/PSS
        // totals are exact either way (anonymous pages are always
        // private); only the clean/dirty split is approximate.
        let dirty = m.dirty_bytes().saturating_sub(m.swapped_bytes()).min(rss);
        return SmapsEntry {
            name: m.name.clone(),
            start: m.start.0,
            len: m.len(),
            rss,
            pss: rss as f64,
            private_clean: rss - dirty,
            private_dirty: dirty,
            shared_clean: 0,
            swap: m.swapped_bytes(),
            file_backed: false,
        };
    }
    // File-backed mapping: residency, swap, and the dirty (CoW) subset
    // come from the bitmaps via popcounts. Only clean resident pages
    // need per-page treatment — their private/shared split depends on
    // the page-cache mapper count — and those are enumerated by set-bit
    // iteration rather than a walk over every page.
    let page = PAGE_SIZE;
    let rss = m.resident_bytes();
    let swap = m.swapped_bytes();
    let private_dirty = m.resident_dirty_pages() * page;
    let mut pss = private_dirty as f64;
    let mut private_clean = 0u64;
    let mut shared_clean = 0u64;
    if let MappingKind::PrivateFile(file) = m.kind {
        m.for_each_clean_resident_page(|idx| {
            let n = sys.files().mapper_count(file, idx).max(1);
            if n == 1 {
                private_clean += page;
                pss += page as f64;
            } else {
                shared_clean += page;
                pss += page as f64 / n as f64;
            }
        });
    }
    SmapsEntry {
        name: m.name.clone(),
        start: m.start.0,
        len: m.len(),
        rss,
        pss,
        private_clean,
        private_dirty,
        shared_clean,
        swap,
        file_backed: matches!(m.kind, MappingKind::PrivateFile(_)),
    }
}

/// Full `smaps` report for `pid` (empty if the process is gone).
pub fn smaps(sys: &System, pid: Pid) -> Vec<SmapsEntry> {
    match sys.space(pid) {
        Ok(space) => space.mappings().map(|m| classify(sys, m)).collect(),
        Err(_) => Vec::new(),
    }
}

/// Resident set size of `pid` in bytes (zero if the process is gone).
pub fn rss(sys: &System, pid: Pid) -> u64 {
    let rss = sys.space(pid).map_or(0, |space| space.resident_bytes());
    verify_against_smaps(sys, pid, "RSS", rss, |e| e.rss);
    rss
}

/// Unique set size of `pid` in bytes (`private_clean + private_dirty`;
/// zero if the process is gone).
pub fn uss(sys: &System, pid: Pid) -> u64 {
    let uss = sys
        .space(pid)
        .map_or(0, |space| space.mappings().map(|m| private_bytes(sys, m)).sum());
    verify_against_smaps(sys, pid, "USS", uss, SmapsEntry::uss);
    uss
}

/// Resident private bytes of one mapping: every resident page of an
/// anonymous mapping; the dirty (CoW) pages plus the solo clean pages
/// of a file mapping.
fn private_bytes(sys: &System, m: &Mapping) -> u64 {
    match m.kind {
        MappingKind::Anonymous => m.resident_bytes(),
        MappingKind::PrivateFile(file) => {
            let solo = sys.files().solo(file);
            (m.resident_dirty_pages() + m.clean_resident_pages_in(solo)) * PAGE_SIZE
        }
    }
}

/// The §4.6 unmap candidates of `pid`: `(start, len)` of every file
/// mapping, in address order, whose resident part is non-empty and
/// made only of clean pages on the file's solo bitmap (no CoW page,
/// no page another process maps). These are the mappings whose
/// [`SmapsEntry::is_private_unmodified_file`] holds, found with the
/// popcounts [`uss`] uses instead of an `smaps` report. Empty if the
/// process is gone. Debug builds check the result against the `smaps`
/// filter.
pub fn private_unmodified_files(sys: &System, pid: Pid) -> Vec<(u64, u64)> {
    let ranges: Vec<(u64, u64)> = match sys.space(pid) {
        Ok(space) => space
            .mappings()
            .filter(|m| is_private_unmodified_file(sys, m))
            .map(|m| (m.start.0, m.len()))
            .collect(),
        Err(_) => Vec::new(),
    };
    if cfg!(debug_assertions) {
        let slow: Vec<(u64, u64)> = smaps(sys, pid)
            .iter()
            .filter(|e| e.is_private_unmodified_file())
            .map(|e| (e.start, e.len))
            .collect();
        assert_eq!(ranges, slow, "word-parallel unmap candidates of {pid:?} disagree with smaps");
    }
    ranges
}

/// True if `m` is a file mapping with resident pages, all of them
/// clean and solo. Counting only the clean pages against the resident
/// total also rules out a resident dirty page.
fn is_private_unmodified_file(sys: &System, m: &Mapping) -> bool {
    match m.kind {
        MappingKind::Anonymous => false,
        MappingKind::PrivateFile(file) => {
            let resident = m.resident_bytes() / PAGE_SIZE;
            resident > 0 && m.clean_resident_pages_in(sys.files().solo(file)) == resident
        }
    }
}

/// Re-derives a word-parallel metric from the per-page `smaps` walk.
/// Debug builds run this on every `uss`/`rss` query; release builds
/// skip it.
fn verify_against_smaps(sys: &System, pid: Pid, what: &str, fast: u64, field: fn(&SmapsEntry) -> u64) {
    if cfg!(debug_assertions) {
        let slow: u64 = smaps(sys, pid).iter().map(field).sum();
        assert_eq!(fast, slow, "word-parallel {what} of {pid:?} disagrees with smaps");
    }
}

/// Proportional set size of `pid` in bytes.
pub fn pss(sys: &System, pid: Pid) -> f64 {
    smaps(sys, pid).iter().map(|e| e.pss).sum()
}

/// Machine-wide RSS: the sum over all live processes. Shared pages are
/// counted once *per mapper*, so this overstates physical memory.
pub fn total_rss(sys: &System) -> u64 {
    sys.pids().map(|pid| rss(sys, pid)).sum()
}

/// Machine-wide USS: the sum over all live processes. Shared pages are
/// not counted at all, so this understates physical memory.
pub fn total_uss(sys: &System) -> u64 {
    sys.pids().map(|pid| uss(sys, pid)).sum()
}

/// Machine-wide PSS: the sum over all live processes. Each shared page
/// contributes exactly 1.0 across its mappers, so this *is* the
/// process-attributable physical memory — the quantity conserved when
/// instances are killed (the chaos harness's conservation invariant).
pub fn total_pss(sys: &System) -> f64 {
    sys.pids().map(|pid| pss(sys, pid)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MappingKind, Prot, PAGE_SIZE};

    #[test]
    fn anon_pages_count_in_all_metrics() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let a = sys
            .mmap(pid, 4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(pid, a, 3 * PAGE_SIZE, true).unwrap();
        assert_eq!(rss(&sys, pid), 3 * PAGE_SIZE);
        assert_eq!(uss(&sys, pid), 3 * PAGE_SIZE);
        assert_eq!(pss(&sys, pid), (3 * PAGE_SIZE) as f64);
    }

    #[test]
    fn single_mapper_library_is_private_clean() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 8 * PAGE_SIZE);
        let pid = sys.spawn_process();
        sys.map_library(pid, lib).unwrap();
        let entries = smaps(&sys, pid);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].private_clean, 8 * PAGE_SIZE);
        assert_eq!(entries[0].shared_clean, 0);
        assert!(entries[0].is_private_unmodified_file());
        assert_eq!(uss(&sys, pid), 8 * PAGE_SIZE);
    }

    #[test]
    fn shared_library_leaves_uss_and_splits_pss() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 8 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        sys.map_library(p2, lib).unwrap();
        // USS excludes the library entirely once shared.
        assert_eq!(uss(&sys, p1), 0);
        // RSS still counts it in full.
        assert_eq!(rss(&sys, p1), 8 * PAGE_SIZE);
        // PSS splits it evenly.
        assert_eq!(pss(&sys, p1), (4 * PAGE_SIZE) as f64);
    }

    #[test]
    fn pss_approaches_uss_with_more_sharers() {
        let mut sys = System::new();
        let lib = sys.register_file("node", 64 * PAGE_SIZE);
        let mut pids = Vec::new();
        for _ in 0..8 {
            let pid = sys.spawn_process();
            sys.map_library(pid, lib).unwrap();
            pids.push(pid);
        }
        let p = pids[0];
        let gap = pss(&sys, p) - uss(&sys, p) as f64;
        assert!(gap <= (8 * PAGE_SIZE) as f64 + 1.0, "gap was {gap}");
    }

    #[test]
    fn metric_ordering_invariants_hold() {
        let mut sys = System::new();
        let lib = sys.register_file("libc.so", 16 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        sys.map_library(p2, lib).unwrap();
        let a = sys
            .mmap(p1, 16 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(p1, a, 10 * PAGE_SIZE, true).unwrap();
        let (u, p, r) = (uss(&sys, p1) as f64, pss(&sys, p1), rss(&sys, p1) as f64);
        assert!(u <= p + 1e-9);
        assert!(p <= r + 1e-9);
    }

    #[test]
    fn machine_totals_sum_over_processes() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 8 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        sys.map_library(p2, lib).unwrap();
        let a = sys
            .mmap(p1, 4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(p1, a, 4 * PAGE_SIZE, true).unwrap();
        // The shared library is double-counted in RSS, absent from USS,
        // and counted exactly once in PSS.
        assert_eq!(total_rss(&sys), 16 * PAGE_SIZE + 4 * PAGE_SIZE);
        assert_eq!(total_uss(&sys), 4 * PAGE_SIZE);
        assert!((total_pss(&sys) - (12 * PAGE_SIZE) as f64).abs() < 1e-6);
    }

    #[test]
    fn kill_conserves_machine_pss() {
        // Killing one mapper of a shared library hands its PSS share to
        // the survivor: machine PSS drops by exactly the victim's
        // private bytes. The crash/OOM-kill paths lean on this.
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 8 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        sys.map_library(p2, lib).unwrap();
        let a = sys
            .mmap(p2, 6 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(p2, a, 6 * PAGE_SIZE, true).unwrap();
        let before = total_pss(&sys);
        let victim_private = uss(&sys, p2);
        assert_eq!(victim_private, 6 * PAGE_SIZE);
        sys.kill_process(p2).unwrap();
        let after = total_pss(&sys);
        assert!(
            (before - after - victim_private as f64).abs() < 1e-6,
            "PSS not conserved: {before} -> {after}, victim USS {victim_private}"
        );
        // The survivor now owns the whole library.
        assert_eq!(uss(&sys, p1), 8 * PAGE_SIZE);
    }

    #[test]
    fn swap_shows_in_smaps_not_rss() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let a = sys
            .mmap(pid, 4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(pid, a, 4 * PAGE_SIZE, true).unwrap();
        sys.swap_out(pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(rss(&sys, pid), 0);
        let swapped: u64 = smaps(&sys, pid).iter().map(|e| e.swap).sum();
        assert_eq!(swapped, 4 * PAGE_SIZE);
    }
}
