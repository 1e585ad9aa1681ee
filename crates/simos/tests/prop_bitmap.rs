//! Property tests pinning the packed-bitmap page state to the naive
//! byte-per-page reference model.
//!
//! [`simos::mem::reference::NaivePages`] is the pre-bitmap
//! representation, kept as an executable oracle. Every property here
//! drives an arbitrary operation sequence through both the real
//! [`AddressSpace`] (word-masked bitmaps) and a per-page naive replay
//! of the same semantics, then requires identical observable state:
//! per-page flags, resident/dirty/swapped byte counters, fault
//! classifications, and `pmap`-style range counts (including unaligned
//! probe lengths). Every reached state also restores, encodes to the
//! dense words of the naive pages, and stores exactly the canonical
//! prefix of each flag: the words before its uniform tail.

use proptest::prelude::*;
use simos::mem::page_flags as pf;
use simos::mem::reference::NaivePages;
use simos::mem::{AddressSpace, Mapping, MappingKind, Prot, VirtAddr, PAGE_SIZE};
use simos::system::FileRegistry;
use snapshot::Snapshot;

/// Pages in the mapping under test; spans several 64-page words so
/// ranges cross word boundaries in both directions, and ends in a
/// partial word (200 = 3 × 64 + 8).
const NPAGES: usize = 200;

/// The four flags in the order a mapping encodes their bitmaps.
const FLAGS: [u8; 4] = [pf::RESIDENT, pf::DIRTY, pf::SWAPPED, pf::NOACCESS];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Anon,
    File,
}

/// Naive per-page replay of the mapping semantics, flag-for-flag the
/// loop structure the bitmap implementation replaced.
struct NaiveMapping {
    pages: NaivePages,
    kind: Kind,
}

impl NaiveMapping {
    fn new(kind: Kind, prot: Prot) -> NaiveMapping {
        let init = if prot == Prot::None { pf::NOACCESS } else { 0 };
        NaiveMapping {
            pages: NaivePages::new_with(NPAGES, init),
            kind,
        }
    }

    /// Returns `(zero_fill, file_faults, swap_ins)`, or `Err(idx)` on
    /// the first `PROT_NONE` page (touch validates up front).
    fn touch(&mut self, first: usize, last: usize, write: bool) -> Result<(u64, u64, u64), usize> {
        if let Some(idx) = (first..last).find(|&idx| self.pages.get(idx) & pf::NOACCESS != 0) {
            return Err(idx);
        }
        let (mut zero, mut file, mut swap) = (0, 0, 0);
        for idx in first..last {
            let flags = self.pages.get(idx);
            if flags & pf::RESIDENT == 0 {
                if flags & pf::SWAPPED != 0 {
                    swap += 1;
                    self.pages.clear_flag(idx, pf::SWAPPED);
                } else {
                    match self.kind {
                        Kind::Anon => zero += 1,
                        Kind::File => file += 1,
                    }
                }
                self.pages.set_flag(idx, pf::RESIDENT);
            }
            if write {
                self.pages.set_flag(idx, pf::DIRTY);
            }
        }
        Ok((zero, file, swap))
    }

    fn release(&mut self, first: usize, last: usize) -> u64 {
        let mut freed = 0;
        for idx in first..last {
            if self.pages.clear_flag(idx, pf::RESIDENT) {
                freed += PAGE_SIZE;
            }
            self.pages.clear_flag(idx, pf::SWAPPED);
            self.pages.clear_flag(idx, pf::DIRTY);
        }
        freed
    }

    fn prot_none(&mut self, first: usize, last: usize) -> u64 {
        let freed = self.release(first, last);
        self.pages.set_flag_range(pf::NOACCESS, first, last);
        freed
    }

    fn prot_rw(&mut self, first: usize, last: usize) {
        self.pages.clear_flag_range(pf::NOACCESS, first, last);
    }

    fn swap_out(&mut self, first: usize, last: usize) -> u64 {
        let mut swapped = 0;
        for idx in first..last {
            let flags = self.pages.get(idx);
            if flags & pf::RESIDENT == 0 {
                continue;
            }
            swapped += PAGE_SIZE;
            self.pages.clear_flag(idx, pf::RESIDENT);
            // Clean file pages are dropped, not swapped.
            if matches!(self.kind, Kind::Anon) || flags & pf::DIRTY != 0 {
                self.pages.set_flag(idx, pf::SWAPPED);
            }
        }
        swapped
    }

    fn count(&self, flag: u8) -> u64 {
        self.pages.count_flag(flag)
    }

    /// `flag`'s bitmap as dense words.
    fn words(&self, flag: u8) -> Vec<u64> {
        (0..NPAGES.div_ceil(64))
            .map(|w| {
                (w * 64..NPAGES.min(w * 64 + 64))
                    .filter(|&idx| self.pages.get(idx) & flag != 0)
                    .fold(0, |word, idx| word | 1 << (idx % 64))
            })
            .collect()
    }
}

/// Word `w` of a bitmap with every page set.
fn full_word(w: usize) -> u64 {
    if !NPAGES.is_multiple_of(64) && w + 1 == NPAGES.div_ceil(64) {
        (1 << (NPAGES % 64)) - 1
    } else {
        u64::MAX
    }
}

/// Length of the canonical prefix of dense `words`: the tail is
/// all-set exactly when the last word is, and the prefix ends at the
/// last word that differs from the tail.
fn canonical_prefix(words: &[u64]) -> usize {
    let tail = words.last().is_some_and(|&last| last == full_word(words.len() - 1));
    words
        .iter()
        .enumerate()
        .rposition(|(w, &word)| word != if tail { full_word(w) } else { 0 })
        .map_or(0, |w| w + 1)
}

/// `(op, a, b, reach)` raw tuples; the replay folds `a`/`b` into an
/// in-bounds page range so every generated op is valid. `reach` picks
/// the range: 0 anywhere, 1 from `a` to the end of the mapping, 2 the
/// whole mapping (which flips a flag's whole tail).
type Op = (u8, usize, usize, u8);

/// Ops over ranges anywhere in the mapping.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0usize..10_000, 0usize..10_000, Just(0u8)), 1..40)
}

/// Ops of which about two in three run to the end of the mapping.
fn tail_ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0usize..10_000, 0usize..10_000, 0u8..3), 1..40)
}

fn page_range(a: usize, b: usize, reach: u8) -> (usize, usize) {
    let first = a % NPAGES;
    match reach {
        0 => (first, first + 1 + b % (NPAGES - first)),
        1 => (first, NPAGES),
        _ => (0, NPAGES),
    }
}

fn addr_of(base: VirtAddr, page: usize) -> VirtAddr {
    base.offset(page as u64 * PAGE_SIZE)
}

/// Checks the codec against the naive pages: `m` encodes to their
/// dense words, decodes, and both `m` and the decoded mapping store
/// exactly each flag's canonical prefix.
fn check_codec(m: &Mapping, naive: &NaiveMapping) -> Result<(), TestCaseError> {
    let bytes = snapshot::encode(m);
    let mut dense = snapshot::Writer::new();
    m.start.snap(&mut dense);
    m.kind.snap(&mut dense);
    dense.str(&m.name);
    for flag in FLAGS {
        dense.usize(NPAGES);
        naive.words(flag).into_iter().for_each(|word| dense.u64(word));
    }
    for flag in [pf::RESIDENT, pf::DIRTY, pf::SWAPPED] {
        dense.u64(naive.count(flag));
    }
    prop_assert!(bytes == dense.into_bytes(), "encoding differs from the dense words");
    let back: Mapping = match snapshot::decode(&bytes) {
        Ok(back) => back,
        Err(e) => return Err(TestCaseError(format!("a reached state does not restore: {e}"))),
    };
    let canonical = FLAGS.map(|flag| canonical_prefix(&naive.words(flag)));
    prop_assert_eq!(m.stored_words(), canonical);
    prop_assert_eq!(back.stored_words(), canonical);
    Ok(())
}

/// Runs `ops` against both implementations, from a mapping created
/// with `prot`, and checks full agreement after every step.
fn check_equivalence(kind: Kind, prot: Prot, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut files = FileRegistry::new();
    let mapping_kind = match kind {
        Kind::Anon => MappingKind::Anonymous,
        Kind::File => {
            let file = files.register("libref.so", NPAGES as u64 * PAGE_SIZE);
            MappingKind::PrivateFile(file)
        }
    };
    let mut space = AddressSpace::new();
    let base = space
        .mmap(NPAGES as u64 * PAGE_SIZE, mapping_kind, prot, "eq")
        .unwrap();
    let mut naive = NaiveMapping::new(kind, prot);
    check_codec(space.mapping_at(base).unwrap(), &naive)?;

    for &(op, a, b, reach) in ops {
        let (first, last) = page_range(a, b, reach);
        let addr = addr_of(base, first);
        let len = (last - first) as u64 * PAGE_SIZE;
        match op {
            0 | 1 => {
                let write = op == 1;
                let real = space.touch(&mut files, addr, len, write);
                match naive.touch(first, last, write) {
                    Ok((zero, file, swap)) => {
                        let out = real.expect("bitmap touch failed where naive succeeded");
                        prop_assert_eq!(out.zero_fill_faults, zero);
                        prop_assert_eq!(out.file_faults, file);
                        prop_assert_eq!(out.swap_ins, swap);
                    }
                    Err(idx) => {
                        let err = real.expect_err("bitmap touch succeeded where naive faulted");
                        match err {
                            simos::error::SimOsError::ProtectionViolation { addr } => {
                                prop_assert_eq!(addr, addr_of(base, idx));
                            }
                            other => {
                                return Err(TestCaseError(format!("unexpected error {other:?}")))
                            }
                        }
                    }
                }
            }
            2 => {
                let freed = space.release(&mut files, addr, len).unwrap();
                prop_assert_eq!(freed, naive.release(first, last));
            }
            3 => {
                let swapped = space.swap_out(&mut files, addr, len).unwrap();
                prop_assert_eq!(swapped, naive.swap_out(first, last));
            }
            _ => {
                // Alternate protection changes on `b`'s parity so both
                // directions get coverage.
                if b % 2 == 0 {
                    let freed = space.mprotect(&mut files, addr, len, Prot::None).unwrap();
                    prop_assert_eq!(freed, naive.prot_none(first, last));
                } else {
                    space
                        .mprotect(&mut files, addr, len, Prot::ReadWrite)
                        .unwrap();
                    naive.prot_rw(first, last);
                }
            }
        }

        let m = space.mapping_at(base).unwrap();
        for idx in 0..NPAGES {
            prop_assert_eq!(
                m.page(idx),
                naive.pages.get(idx),
                "flag mismatch at page {}",
                idx
            );
        }
        prop_assert_eq!(m.resident_bytes(), naive.count(pf::RESIDENT) * PAGE_SIZE);
        prop_assert_eq!(m.dirty_bytes(), naive.count(pf::DIRTY) * PAGE_SIZE);
        prop_assert_eq!(m.swapped_bytes(), naive.count(pf::SWAPPED) * PAGE_SIZE);

        // `pmap` range counts agree, including an unaligned probe
        // length that covers a partial trailing page.
        let probe_len = len - PAGE_SIZE + 1 + (a % PAGE_SIZE as usize) as u64;
        let probe_last = (first + (probe_len as usize).div_ceil(PAGE_SIZE as usize)).min(NPAGES);
        prop_assert_eq!(
            m.resident_bytes_in(addr, probe_len),
            naive.pages.count_flag_range(pf::RESIDENT, first, probe_last) * PAGE_SIZE
        );
        check_codec(m, &naive)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitmap_matches_naive_reference_anon(ops in ops_strategy()) {
        check_equivalence(Kind::Anon, Prot::ReadWrite, &ops)?;
    }

    #[test]
    fn bitmap_matches_naive_reference_file(ops in ops_strategy()) {
        check_equivalence(Kind::File, Prot::ReadWrite, &ops)?;
    }

    #[test]
    fn bitmap_matches_naive_reference_to_the_end_anon(ops in tail_ops_strategy()) {
        check_equivalence(Kind::Anon, Prot::ReadWrite, &ops)?;
    }

    #[test]
    fn bitmap_matches_naive_reference_to_the_end_file(ops in tail_ops_strategy()) {
        check_equivalence(Kind::File, Prot::ReadWrite, &ops)?;
    }

    #[test]
    fn bitmap_matches_naive_reference_prot_none(ops in tail_ops_strategy(), file in any::<bool>()) {
        let kind = if file { Kind::File } else { Kind::Anon };
        check_equivalence(kind, Prot::None, &ops)?;
    }

    #[test]
    fn metric_ordering_holds_under_sharing(nshare in 1usize..8, touched in 1usize..64) {
        let mut sys = simos::system::System::new();
        let lib = sys.register_file("libshared.so", 64 * PAGE_SIZE);
        let mut pids = Vec::new();
        for _ in 0..nshare {
            let pid = sys.spawn_process();
            sys.map_library(pid, lib).unwrap();
            pids.push(pid);
        }
        // One process also dirties private heap pages.
        let first = pids[0];
        let heap = sys
            .mmap(first, 64 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(first, heap, touched as u64 * PAGE_SIZE, true).unwrap();

        let mut total_pss = 0.0;
        for &pid in &pids {
            let (uss, pss, rss) = (sys.uss(pid) as f64, sys.pss(pid), sys.rss(pid) as f64);
            prop_assert!(uss <= pss + 1e-6, "USS {} > PSS {}", uss, pss);
            prop_assert!(pss <= rss + 1e-6, "PSS {} > RSS {}", pss, rss);
            total_pss += pss;
        }
        // PSS is a partition: summed over every sharer it reconstructs
        // the machine's resident bytes exactly (library counted once,
        // private heap once).
        let machine = (64 + touched) as f64 * PAGE_SIZE as f64;
        prop_assert!((total_pss - machine).abs() < 1e-3, "sum PSS {} != {}", total_pss, machine);
    }
}
