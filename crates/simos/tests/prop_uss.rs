//! Property oracle for the word-parallel memory metrics.
//!
//! `metrics::uss` and `metrics::rss` never build an `smaps` report:
//! RSS sums the maintained resident counters, and USS counts a file
//! mapping's private clean pages as a popcount against the file's solo
//! bitmap (bit set iff exactly one process maps the page clean). The
//! per-page `smaps` walk stays as the oracle. These properties drive
//! random operation sequences over 1–4 processes that share two
//! libraries — read and write touches (write touches of clean library
//! pages break CoW), releases, `PROT_NONE` uncommits, swap-outs,
//! unmaps, remaps and kills — and after every step, and after a
//! `System` snapshot round trip, require:
//!
//! * per pid, `uss == Σ smaps uss` and `rss == Σ smaps rss`;
//! * per file page, the solo bit equals `mapper_count == 1`.
//!
//! A second property holds the §4.6 unmap-candidate query,
//! `metrics::private_unmodified_files`, to the `smaps` filter it
//! replaces, over 3 processes that map, touch (read, or write to break
//! CoW), release, swap out, unmap and die.

use proptest::prelude::*;
use simos::mem::{MappingKind, Prot, VirtAddr, PAGE_SIZE};
use simos::metrics;
use simos::{FileId, Pid, System};
use snapshot::Snapshot;

/// Library sizes in pages: one ends in a partial word, one is exactly
/// a word (the full-word refcount fast path end to end).
const LIB_PAGES: [u64; 2] = [150, 64];
/// Anonymous heap size in pages.
const HEAP_PAGES: u64 = 100;

/// One process and its three mapping slots: the two libraries and a
/// heap. An unmapped slot is `None` until a later op remaps it.
struct Proc {
    pid: Pid,
    slots: [Option<VirtAddr>; 3],
}

struct World {
    sys: System,
    libs: [FileId; 2],
    procs: Vec<Proc>,
}

impl World {
    fn new(nprocs: usize) -> World {
        let mut sys = System::new();
        let libs = [
            sys.register_file("libjvm.so", LIB_PAGES[0] * PAGE_SIZE),
            sys.register_file("node", LIB_PAGES[1] * PAGE_SIZE),
        ];
        let mut world = World {
            sys,
            libs,
            procs: Vec::new(),
        };
        for _ in 0..nprocs {
            world.spawn();
        }
        world
    }

    fn spawn(&mut self) {
        let pid = self.sys.spawn_process();
        let slots = [0, 1, 2].map(|slot| Some(self.map_slot(pid, slot)));
        self.procs.push(Proc { pid, slots });
    }

    fn map_slot(&mut self, pid: Pid, slot: usize) -> VirtAddr {
        match self.libs.get(slot) {
            Some(&lib) => self.sys.map_library(pid, lib).unwrap(),
            None => self
                .sys
                .mmap(pid, HEAP_PAGES * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
                .unwrap(),
        }
    }

    /// Applies one raw op to process `who` (modulo the live count);
    /// `a`/`b` pick a slot and fold into an in-bounds page range.
    fn apply(&mut self, op: u8, a: usize, b: usize, who: usize) {
        if self.procs.is_empty() {
            self.spawn();
        }
        let p = who % self.procs.len();
        let slot = a % 3;
        let npages = LIB_PAGES.get(slot).copied().unwrap_or(HEAP_PAGES);
        let first = (a / 3) as u64 % npages;
        let count = 1 + b as u64 % (npages - first);
        let pid = self.procs[p].pid;
        let Some(base) = self.procs[p].slots[slot] else {
            // Whatever the op, an unmapped slot gets mapped again.
            self.procs[p].slots[slot] = Some(self.map_slot(pid, slot));
            return;
        };
        let addr = base.offset(first * PAGE_SIZE);
        let len = count * PAGE_SIZE;
        match op {
            // A touch may legitimately fail on a PROT_NONE range.
            0 | 1 => {
                let _ = self.sys.touch(pid, addr, len, op == 1);
            }
            2 => {
                self.sys.release(pid, addr, len).unwrap();
            }
            3 => {
                self.sys.mprotect(pid, addr, len, Prot::None).unwrap();
            }
            4 => {
                self.sys.mprotect(pid, addr, len, Prot::ReadWrite).unwrap();
            }
            5 => {
                self.sys.swap_out(pid, addr, len).unwrap();
            }
            6 => {
                self.sys.munmap(pid, base).unwrap();
                self.procs[p].slots[slot] = None;
            }
            _ => {
                self.sys.kill_process(pid).unwrap();
                self.procs.remove(p);
            }
        }
    }
}

/// Checks the word-parallel metrics and the solo bitmaps of `sys`
/// against the per-page oracle.
fn check_metrics(sys: &System, libs: &[FileId]) -> Result<(), TestCaseError> {
    for pid in sys.pids() {
        let entries = metrics::smaps(sys, pid);
        let uss: u64 = entries.iter().map(|e| e.uss()).sum();
        let rss: u64 = entries.iter().map(|e| e.rss).sum();
        prop_assert_eq!(metrics::uss(sys, pid), uss, "USS of {:?}", pid);
        prop_assert_eq!(metrics::rss(sys, pid), rss, "RSS of {:?}", pid);
    }
    for &lib in libs {
        let solo = sys.files().solo(lib);
        let npages = (sys.files().size(lib) / PAGE_SIZE) as usize;
        prop_assert_eq!(solo.npages(), npages);
        for idx in 0..npages {
            prop_assert_eq!(
                solo.get(idx),
                sys.files().mapper_count(lib, idx) == 1,
                "solo bit of {:?} page {}",
                lib,
                idx
            );
        }
    }
    Ok(())
}

/// Checks the word-parallel unmap candidates of every pid against the
/// `smaps` filter.
fn check_unmap_candidates(sys: &System) -> Result<(), TestCaseError> {
    for pid in sys.pids() {
        let oracle: Vec<(u64, u64)> = metrics::smaps(sys, pid)
            .iter()
            .filter(|e| e.is_private_unmodified_file())
            .map(|e| (e.start, e.len))
            .collect();
        prop_assert_eq!(metrics::private_unmodified_files(sys, pid), oracle, "unmap candidates of {:?}", pid);
    }
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, usize, usize, usize)>> {
    proptest::collection::vec((0u8..8, 0usize..10_000, 0usize..10_000, 0usize..4), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn word_parallel_metrics_match_smaps(nprocs in 1usize..5, ops in ops_strategy()) {
        let mut world = World::new(nprocs);
        check_metrics(&world.sys, &world.libs)?;
        for &(op, a, b, who) in &ops {
            world.apply(op, a, b, who);
            check_metrics(&world.sys, &world.libs)?;
        }
        // A snapshot round trip rebuilds the solo bitmaps from the
        // encoded mapper counts and must re-encode byte-identically.
        let mut w = snapshot::Writer::new();
        world.sys.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = snapshot::Reader::new(&bytes);
        let restored = System::restore(&mut r).unwrap();
        r.finish().unwrap();
        check_metrics(&restored, &world.libs)?;
        for pid in world.sys.pids() {
            prop_assert_eq!(restored.uss(pid), world.sys.uss(pid));
            prop_assert_eq!(restored.rss(pid), world.sys.rss(pid));
        }
        let mut again = snapshot::Writer::new();
        restored.snap(&mut again);
        prop_assert!(again.into_bytes() == bytes, "restored System re-encodes differently");
    }

    #[test]
    fn unmap_candidates_match_smaps(ops in proptest::collection::vec(
        (0usize..6, 0usize..10_000, 0usize..10_000, 0usize..3),
        1..60,
    )) {
        // Read and write touches, release, swap-out, munmap and kill;
        // an op on an unmapped slot maps the library (or heap) again,
        // and an op on an empty world spawns a process.
        const OPS: [u8; 6] = [0, 1, 2, 5, 6, 7];
        let mut world = World::new(3);
        check_unmap_candidates(&world.sys)?;
        for &(op, a, b, who) in &ops {
            world.apply(OPS[op], a, b, who);
            check_unmap_candidates(&world.sys)?;
        }
    }
}
