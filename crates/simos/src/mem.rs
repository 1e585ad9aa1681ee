//! Virtual-memory model: mappings, pages, and the calls that move them.
//!
//! The model is deliberately close to Linux semantics because the paper
//! leans on them directly: HotSpot "shrinks" its heap by protecting
//! pages (`PROT_NONE`, which in HotSpot's implementation frees the
//! backing physical pages), V8 unmaps whole 256 KiB chunks, Desiccant
//! releases free in-heap pages with `mmap`, and the shared-library
//! optimization unmaps *private, unmodified, file-backed* ranges found
//! in `smaps` (§4.6).
//!
//! Each page of a mapping carries four flags:
//!
//! * `RESIDENT` — backed by a (simulated) physical page,
//! * `DIRTY` — modified since mapped (for file mappings this models the
//!   copy-on-write private copy),
//! * `SWAPPED` — contents moved to the swap device,
//! * `NOACCESS` — protected out (`PROT_NONE`), i.e. uncommitted.
//!
//! Flags are stored as four packed bitmaps ([`pagebits::PageBits`], one
//! bit per page per flag) so range operations — touch, release,
//! `PROT_NONE` uncommit, swap scans, `pmap`/`smaps` aggregation — work
//! on 64 pages per instruction with `count_ones()` popcounts instead of
//! a byte-per-page walk. Each bitmap stores only its mixed prefix of
//! words; every word past it is implied by a uniform tail, all-clear
//! or all-set. A `PROT_NONE` reservation is an all-set `NOACCESS`
//! tail and stores words only for what was committed, a library
//! faulted in full stores no `RESIDENT` word, and a mapping never
//! swapped stores no `SWAPPED` word. The form is canonical (the tail
//! is set exactly when the last word is, and the prefix never ends in
//! a tail word), so equal page states are equal values and encode to
//! the same dense words. Walks over several flags ([`pagebits::zip_words`])
//! go word by word through the prefixes and treat the common tail as
//! one run of pages.
//!
//! Page-cache refcounts of file-backed pages move in the same word
//! batches: each operation hands the [`FileRegistry`] a `(word, bits)`
//! pair, and a whole word (a library faulted in or dropped in full)
//! updates 64 adjacent counts in fixed-length passes. The registry
//! keeps a derived *solo* bitmap per file (bit set iff exactly one
//! process maps the page clean), so USS is a popcount of
//! `resident & !dirty & solo` rather than a per-page lookup. Per-page
//! iteration survives only in the `smaps`/PSS report, which needs each
//! shared page's mapper count, and which doubles as the oracle for the
//! word-parallel USS/RSS. The old byte-per-page representation lives
//! on in [`reference`] as the oracle for property tests and the
//! baseline side of the Criterion comparisons.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{SimOsError, SimOsResult};
use crate::system::{FileId, FileRegistry};

/// The page size of the simulated machine (4 KiB, like the paper's
/// x86-64 testbed).
pub const PAGE_SIZE: u64 = 4096;

/// Rounds `len` up to a whole number of pages.
pub fn page_align_up(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

pub mod pagebits {
    //! One-bit-per-page sets: a stored mixed prefix of `u64` words and
    //! an implied uniform tail.
    //!
    //! A [`PageBits`] holds one flag for every page of a mapping. Most
    //! of a flag's words are uniform to the end of the mapping: a
    //! `PROT_NONE` reservation past its committed prefix, a library
    //! faulted in full, a swap map nothing was ever swapped to. So a
    //! bitmap stores only its *prefix*, the words up to the last one
    //! that differs from its *tail*; every word past the prefix is
    //! implied, all-clear or all-set (the last word masked to the page
    //! count). Memory follows the flag's mixed state, not the reserved
    //! address space.
    //!
    //! The form is canonical, so the derived `PartialEq` is equality
    //! of the pages:
    //!
    //! * the tail is all-set exactly when the bitmap's last word is, and
    //! * the prefix never ends in a word equal to the tail's word at
    //!   that index.
    //!
    //! Debug builds assert both after every mutation and decode.
    //!
    //! Range operations visit whole words through [`masked_words`], so
    //! setting, clearing, or counting a flag over an `N`-page range
    //! costs at most `O(N / 64)` word operations, and a range that runs
    //! to the end of the bitmap moves its tail instead of storing words.
    //! [`zip_words`] walks several bitmaps of one mapping together,
    //! word by word through their prefixes and as one page run through
    //! their common tail.

    use std::ops::Range;

    /// A page bitmap: stored prefix words plus an implied uniform tail.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct PageBits {
        /// The stored words; bits past `npages` are always clear.
        prefix: Vec<u64>,
        /// Whether every word past the prefix is all-set (else
        /// all-clear).
        tail: bool,
        npages: usize,
    }

    /// Iterator of `(word_index, mask)` pairs covering a page range.
    #[derive(Debug, Clone)]
    pub struct MaskedWords {
        next: usize,
        last: usize,
    }

    /// Yields `(word_index, mask)` for every word overlapping
    /// `[first, last)`; the mask selects exactly the in-range bits.
    pub fn masked_words(first: usize, last: usize) -> MaskedWords {
        MaskedWords { next: first, last }
    }

    impl Iterator for MaskedWords {
        type Item = (usize, u64);

        fn next(&mut self) -> Option<(usize, u64)> {
            if self.next >= self.last {
                return None;
            }
            let w = self.next / 64;
            let lo = self.next % 64;
            let hi = (self.last - w * 64).min(64);
            let mask = if hi - lo == 64 {
                u64::MAX
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            self.next = (w + 1) * 64;
            Some((w, mask))
        }
    }

    /// Calls `f` with the page index of every set bit in `bits`, where
    /// `bits` came from word `w` of a bitmap.
    pub fn for_each_bit(w: usize, mut bits: u64, mut f: impl FnMut(usize)) {
        while bits != 0 {
            f(w * 64 + crate::cast::to_usize(bits.trailing_zeros()));
            bits &= bits - 1;
        }
    }

    /// Calls `f` with every maximal run of set bits in `bits`, as a
    /// page range, where `bits` came from word `w` of a bitmap.
    pub(crate) fn for_each_run(w: usize, mut bits: u64, mut f: impl FnMut(Range<usize>)) {
        while bits != 0 {
            let lo = bits.trailing_zeros();
            let hi = lo + (bits >> lo).trailing_ones();
            let at = w * 64;
            f(at + crate::cast::to_usize(lo)..at + crate::cast::to_usize(hi));
            bits = bits.checked_shr(hi).map_or(0, |rest| rest << hi);
        }
    }

    /// Walks `[first, last)` of `maps`, bitmaps indexed alike, with `f`
    /// combining their words bit by bit. Yields `(w, f(words) & mask)`
    /// for every word before the point from which all of them lie in
    /// their tails, and returns the page range from that point on when
    /// `f` of the tails selects it (an empty range when it does not):
    /// past the split every word combines to the same uniform value.
    pub fn zip_words<'a, const N: usize>(
        maps: [&'a PageBits; N],
        first: usize,
        last: usize,
        f: impl Fn([u64; N]) -> u64 + 'a,
    ) -> (impl Iterator<Item = (usize, u64)> + 'a, Range<usize>) {
        debug_assert!(first <= last);
        let stored = maps.iter().map(|m| m.prefix.len() * 64).max().unwrap_or(0);
        let split = stored.max(first).min(last);
        let run = if f(maps.map(|m| m.tail_fill())) & 1 != 0 {
            split..last
        } else {
            last..last
        };
        let words = masked_words(first, split)
            .map(move |(w, mask)| (w, f(maps.map(|m| m.word(w))) & mask));
        (words, run)
    }

    impl PageBits {
        /// An all-clear bitmap covering `npages` pages. Allocates
        /// nothing.
        pub fn new(npages: usize) -> PageBits {
            PageBits {
                prefix: Vec::new(),
                tail: false,
                npages,
            }
        }

        /// An all-set bitmap covering `npages` pages. Allocates
        /// nothing.
        pub fn new_filled(npages: usize) -> PageBits {
            PageBits {
                prefix: Vec::new(),
                tail: npages > 0,
                npages,
            }
        }

        /// The canonical bitmap of the dense `words` over `npages`
        /// pages (bits past `npages` clear).
        pub(crate) fn from_words(words: Vec<u64>, npages: usize) -> PageBits {
            debug_assert_eq!(words.len(), npages.div_ceil(64));
            let mut bits = PageBits {
                prefix: words,
                tail: false,
                npages,
            };
            bits.canonicalize();
            bits.prefix.shrink_to_fit();
            bits
        }

        /// Number of pages the bitmap covers.
        pub fn npages(&self) -> usize {
            self.npages
        }

        /// Number of words the pages span.
        fn nwords(&self) -> usize {
            self.npages.div_ceil(64)
        }

        /// Number of words stored: the prefix. Every later word is the
        /// tail's.
        pub fn stored_words(&self) -> usize {
            self.prefix.len()
        }

        /// Word `w` all-set: every bit, or on the last word the bits
        /// below the page count.
        fn full_word(&self, w: usize) -> u64 {
            let rem = self.npages % 64;
            if rem != 0 && w + 1 == self.nwords() {
                (1 << rem) - 1
            } else {
                u64::MAX
            }
        }

        /// The tail's value of word `w`.
        fn tail_word(&self, w: usize) -> u64 {
            if self.tail {
                self.full_word(w)
            } else {
                0
            }
        }

        /// The tail as one bit pattern, unmasked: every bit set or none.
        fn tail_fill(&self) -> u64 {
            if self.tail {
                u64::MAX
            } else {
                0
            }
        }

        /// Word `w` of the bitmap, stored or implied.
        pub fn word(&self, w: usize) -> u64 {
            debug_assert!(w < self.nwords());
            match self.prefix.get(w) {
                Some(&word) => word,
                None => self.tail_word(w),
            }
        }

        /// Stores `value` as word `w`, growing the prefix only when the
        /// value differs from the tail.
        fn put_word(&mut self, w: usize, value: u64) {
            debug_assert_eq!(value & !self.full_word(w), 0);
            if w >= self.prefix.len() {
                if value == self.tail_word(w) {
                    return;
                }
                self.materialize(w + 1);
            }
            if let Some(word) = self.prefix.get_mut(w) {
                *word = value;
            }
            if w + 1 == self.prefix.len() {
                self.canonicalize();
            }
        }

        /// Extends the prefix to `len` words with the tail's words.
        fn materialize(&mut self, len: usize) {
            if self.prefix.len() >= len {
                return;
            }
            let last = self.full_word(len - 1);
            self.prefix.resize(len, self.tail_fill());
            if self.tail {
                if let Some(word) = self.prefix.last_mut() {
                    *word = last;
                }
            }
        }

        /// Restores the canonical form after the prefix's last word
        /// changed: a prefix spanning every word takes the tail its last
        /// word matches, then trailing words equal to the tail go. A
        /// prefix that shrank to under half its allocation gives the
        /// rest back.
        fn canonicalize(&mut self) {
            let n = self.nwords();
            if self.prefix.len() == n {
                self.tail = n > 0 && self.prefix.last() == Some(&self.full_word(n - 1));
            }
            let before = self.prefix.len();
            while let Some(&last) = self.prefix.last() {
                if last != self.tail_word(self.prefix.len() - 1) {
                    break;
                }
                self.prefix.pop();
            }
            if self.prefix.len() < before && self.prefix.capacity() > 2 * self.prefix.len() {
                self.prefix.shrink_to_fit();
            }
            self.debug_check();
        }

        /// Asserts the canonical form (debug builds only).
        fn debug_check(&self) {
            #[cfg(debug_assertions)]
            {
                let n = self.nwords();
                assert!(self.prefix.len() <= n, "prefix longer than the bitmap");
                if n > 0 {
                    let last = self.word(n - 1);
                    assert_eq!(last & !self.full_word(n - 1), 0, "bits set past the page count");
                    let full = last == self.full_word(n - 1);
                    assert_eq!(self.tail, full, "tail disagrees with the last word");
                }
                if let Some(&last) = self.prefix.last() {
                    let tail = self.tail_word(self.prefix.len() - 1);
                    assert_ne!(last, tail, "prefix ends in a tail word");
                }
            }
        }

        /// Whether page `idx` is set.
        pub fn get(&self, idx: usize) -> bool {
            debug_assert!(idx < self.npages);
            self.word(idx / 64) >> (idx % 64) & 1 != 0
        }

        /// Sets page `idx`; returns true if it was newly set.
        #[cfg(test)]
        pub fn set(&mut self, idx: usize) -> bool {
            self.set_word_bits(idx / 64, 1 << (idx % 64)) != 0
        }

        /// Clears page `idx`; returns true if it was previously set.
        #[cfg(test)]
        pub fn clear(&mut self, idx: usize) -> bool {
            self.clear_word_bits(idx / 64, 1 << (idx % 64)) != 0
        }

        /// ORs `bits` into word `w`; returns how many were newly set.
        pub fn set_word_bits(&mut self, w: usize, bits: u64) -> u64 {
            let word = self.word(w);
            let newly = bits & !word;
            if newly != 0 {
                self.put_word(w, word | bits);
            }
            u64::from(newly.count_ones())
        }

        /// Clears `bits` in word `w`; returns how many were set before.
        pub fn clear_word_bits(&mut self, w: usize, bits: u64) -> u64 {
            let word = self.word(w);
            let had = bits & word;
            if had != 0 {
                self.put_word(w, word & !bits);
            }
            u64::from(had.count_ones())
        }

        /// Sets every page in `[first, last)`; returns the newly-set
        /// count.
        pub fn set_range(&mut self, first: usize, last: usize) -> u64 {
            self.fill_range(first, last, true)
        }

        /// Clears every page in `[first, last)`; returns the
        /// previously-set count.
        pub fn clear_range(&mut self, first: usize, last: usize) -> u64 {
            self.fill_range(first, last, false)
        }

        /// Sets (`value`) or clears every page in `[first, last)`;
        /// returns how many changed. A range running to the end of the
        /// bitmap makes its whole words the new tail, so filling or
        /// emptying a mapping stores no word.
        fn fill_range(&mut self, first: usize, last: usize, value: bool) -> u64 {
            debug_assert!(first <= last && last <= self.npages);
            if last <= self.prefix.len() * 64 {
                // Inside the stored words, the common case: in place.
                let mut changed = 0;
                for (w, mask) in masked_words(first, last) {
                    if let Some(word) = self.prefix.get_mut(w) {
                        let old = *word;
                        *word = if value { old | mask } else { old & !mask };
                        changed += u64::from((old ^ *word).count_ones());
                    }
                }
                if changed != 0 {
                    self.canonicalize();
                }
                return changed;
            }
            let set = self.count_range(first, last);
            let changed = if value {
                crate::cast::to_u64(last - first) - set
            } else {
                set
            };
            if changed == 0 {
                return 0;
            }
            // Whole words from `uniform` on become the tail.
            let uniform = if last == self.npages {
                first.div_ceil(64)
            } else {
                self.nwords()
            };
            let mut head_last = last.min(uniform * 64);
            if value == self.tail {
                // Implied words already hold `value`.
                head_last = head_last.min(self.prefix.len() * 64);
            }
            if first < head_last {
                self.materialize(head_last.div_ceil(64));
                for (w, mask) in masked_words(first, head_last) {
                    if let Some(word) = self.prefix.get_mut(w) {
                        *word = if value { *word | mask } else { *word & !mask };
                    }
                }
            }
            if uniform < self.nwords() {
                if self.tail != value {
                    self.materialize(uniform);
                    self.tail = value;
                }
                self.prefix.truncate(uniform);
            }
            self.canonicalize();
            changed
        }

        /// Number of set pages in `[first, last)`.
        pub fn count_range(&self, first: usize, last: usize) -> u64 {
            debug_assert!(first <= last && last <= self.npages);
            let split = (self.prefix.len() * 64).max(first).min(last);
            let stored: u64 = masked_words(first, split)
                .map(|(w, mask)| u64::from((self.word(w) & mask).count_ones()))
                .sum();
            let implied = if self.tail { last - split } else { 0 };
            stored + crate::cast::to_u64(implied)
        }

        /// Number of set pages in the whole bitmap.
        pub fn count(&self) -> u64 {
            let stored: u64 = self.prefix.iter().map(|w| u64::from(w.count_ones())).sum();
            let implied = if self.tail {
                self.npages.saturating_sub(self.prefix.len() * 64)
            } else {
                0
            };
            stored + crate::cast::to_u64(implied)
        }
    }

    impl snapshot::Snapshot for PageBits {
        fn snap(&self, w: &mut snapshot::Writer) {
            // The dense words: the page count (the word count follows
            // from it), the stored prefix, then the implied tail words
            // written as fills.
            let Self {
                prefix,
                tail,
                npages,
            } = self;
            w.usize(*npages);
            w.fixed(prefix.iter().map(|word| word.to_le_bytes()));
            let implied = self.nwords() - prefix.len();
            if *tail {
                // A set tail implies at least the last word.
                w.fill(0xFF, 8 * (implied - 1));
                w.u64(self.full_word(self.nwords() - 1));
            } else {
                w.fill(0, 8 * implied);
            }
        }

        fn restore(r: &mut snapshot::Reader<'_>) -> Result<PageBits, snapshot::SnapError> {
            let npages = r.usize()?;
            let mut bits = PageBits::new(npages);
            let nwords = bits.nwords();
            if nwords > r.remaining() / 8 {
                return Err(snapshot::SnapError::Corrupt("PageBits length exceeds input"));
            }
            let bytes = r.take(nwords * 8)?;
            let word = |c: &[u8]| u64::from_le_bytes(c.try_into().unwrap_or([0; 8]));
            let words = bytes.chunks_exact(8).map(word);
            if let Some(last) = words.clone().next_back() {
                if last & !bits.full_word(nwords - 1) != 0 {
                    return Err(snapshot::SnapError::Corrupt(
                        "PageBits has bits set past the page count",
                    ));
                }
                bits.tail = last == bits.full_word(nwords - 1);
            }
            // The tail starts after the last word that differs from it;
            // only the words before are allocated.
            let stored = words
                .enumerate()
                .rposition(|(w, word)| word != bits.tail_word(w))
                .map_or(0, |w| w + 1);
            bits.prefix = bytes.chunks_exact(8).take(stored).map(word).collect();
            bits.debug_check();
            Ok(bits)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Every word, stored or implied.
        fn dense(bits: &PageBits) -> Vec<u64> {
            (0..bits.nwords()).map(|w| bits.word(w)).collect()
        }

        #[test]
        fn bulk_codec_writes_the_per_word_bytes() {
            // Page counts on both sides of each word edge, then large
            // ones; a bit pattern that changes with every word.
            for npages in [0, 1, 7, 8, 9, 63, 64, 65, 4097, 64 * 1000 + 13] {
                let mut bits = PageBits::new(npages);
                for idx in (0..npages).filter(|i| (i * 7919) % 5 < 2) {
                    bits.set(idx);
                }
                let mut oracle = snapshot::Writer::new();
                oracle.usize(npages);
                for word in dense(&bits) {
                    oracle.u64(word);
                }
                let bytes = snapshot::encode(&bits);
                assert!(bytes == oracle.into_bytes(), "{npages} pages");
                let back: PageBits = snapshot::decode(&bytes).unwrap();
                assert_eq!(back, bits);
                assert_eq!(back.npages(), npages);
            }
        }

        #[test]
        fn uniform_tails_encode_as_dense_words_and_decode_to_the_prefix() {
            // Set and clear tails after a mixed prefix, with partial and
            // whole last words; then the uniform bitmaps themselves.
            for npages in [1, 63, 64, 65, 200, 4097] {
                let half = npages / 2;
                for (tail_from, set) in [(0, true), (0, false), (half, true), (half, false)] {
                    let mut bits = PageBits::new(npages);
                    for idx in (0..tail_from).filter(|i| i % 3 == 0) {
                        bits.set(idx);
                    }
                    if set {
                        bits.set_range(tail_from, npages);
                    }
                    let mut oracle = snapshot::Writer::new();
                    oracle.usize(npages);
                    for word in dense(&bits) {
                        oracle.u64(word);
                    }
                    let bytes = snapshot::encode(&bits);
                    assert!(bytes == oracle.into_bytes(), "{npages} pages from {tail_from}");
                    let back: PageBits = snapshot::decode(&bytes).unwrap();
                    assert_eq!(back, bits, "{npages} pages from {tail_from}");
                    assert!(back.stored_words() <= tail_from.div_ceil(64));
                    assert_eq!(back.prefix.capacity(), back.stored_words());
                }
            }
        }

        #[test]
        fn bits_past_the_page_count_are_corrupt() {
            // 130 pages: the last word holds two; a third bit is corrupt,
            // whether the words before are mixed or all-set.
            for prefix in [0x5u64, u64::MAX] {
                let mut w = snapshot::Writer::new();
                w.usize(130);
                w.u64(prefix);
                w.u64(u64::MAX);
                w.u64(0b111);
                let err = snapshot::decode::<PageBits>(&w.into_bytes()).unwrap_err();
                assert_eq!(
                    err,
                    snapshot::SnapError::Corrupt("PageBits has bits set past the page count")
                );
            }
        }

        #[test]
        fn page_count_past_the_input_is_corrupt() {
            let bytes = snapshot::encode(&PageBits::new_filled(130));
            // Claim one more word of pages than the input carries.
            let mut lying = bytes.clone();
            lying[..8].copy_from_slice(&(130u64 + 64).to_le_bytes());
            let err = snapshot::decode::<PageBits>(&lying).unwrap_err();
            assert_eq!(err, snapshot::SnapError::Corrupt("PageBits length exceeds input"));
            // A count whose word count overflows the input many times.
            lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(snapshot::decode::<PageBits>(&lying).is_err());
        }

        #[test]
        fn masked_words_covers_partial_and_full_words() {
            let spans: Vec<(usize, u64)> = masked_words(60, 70).collect();
            assert_eq!(spans, vec![(0, 0xF << 60), (1, 0x3F)]);
            let spans: Vec<(usize, u64)> = masked_words(64, 128).collect();
            assert_eq!(spans, vec![(1, u64::MAX)]);
            assert_eq!(masked_words(5, 5).count(), 0);
        }

        #[test]
        fn runs_split_a_word_at_its_clear_bits() {
            let mut runs = Vec::new();
            for_each_run(2, 0b0111_0010 | 0xFF << 56, |run| runs.push(run));
            assert_eq!(runs, vec![129..130, 132..135, 184..192]);
            runs.clear();
            for_each_run(0, u64::MAX, |run| runs.push(run));
            assert_eq!(runs, vec![0..64]);
        }

        #[test]
        fn range_ops_report_deltas() {
            let mut bits = PageBits::new(200);
            assert_eq!(bits.set_range(10, 150), 140);
            // Re-setting an overlapping range only counts new bits.
            assert_eq!(bits.set_range(0, 20), 10);
            assert_eq!(bits.count_range(0, 200), 150);
            assert_eq!(bits.count_range(100, 200), 50);
            assert_eq!(bits.clear_range(0, 64), 64);
            assert_eq!(bits.count(), 86);
        }

        #[test]
        fn ranges_to_the_end_move_the_tail() {
            let mut bits = PageBits::new(200);
            // Filling to the end stores only the partial head word.
            assert_eq!(bits.set_range(70, 200), 130);
            assert_eq!(bits.stored_words(), 2);
            assert!(bits.tail);
            assert_eq!(bits.set_range(0, 70), 70);
            assert_eq!((bits.stored_words(), bits.count()), (0, 200));
            // Clearing a middle range stores words up to it; clearing
            // the rest to the end leaves an all-clear bitmap.
            assert_eq!(bits.clear_range(64, 128), 64);
            assert_eq!(bits.stored_words(), 2);
            assert_eq!(bits.count_range(60, 140), 16);
            assert_eq!(bits.clear_range(0, 200), 136);
            assert_eq!(bits, PageBits::new(200));
            // A mixed last word stores every word, under a clear tail.
            assert_eq!(bits.set_range(199, 200), 1);
            assert_eq!((bits.stored_words(), bits.tail), (4, false));
            assert_eq!(bits.set_range(192, 199), 7);
            assert_eq!((bits.stored_words(), bits.tail), (3, true));
        }

        #[test]
        fn zip_words_splits_at_the_longest_prefix() {
            let mut a = PageBits::new_filled(200);
            let b = PageBits::new(200);
            a.clear_range(0, 3);
            let (words, run) = zip_words([&a, &b], 0, 200, |[a, b]| a & !b);
            assert_eq!(words.collect::<Vec<_>>(), vec![(0, !0b111)]);
            assert_eq!(run, 64..200);
            let (words, run) = zip_words([&a, &b], 1, 200, |[a, b]| a & b);
            assert_eq!(words.count(), 1);
            assert!(run.is_empty());
        }

        #[test]
        fn single_bit_ops_round_trip() {
            let mut bits = PageBits::new(100);
            assert!(bits.set(63));
            assert!(!bits.set(63));
            assert!(bits.get(63));
            assert!(bits.clear(63));
            assert!(!bits.clear(63));
            assert_eq!(PageBits::new_filled(100).count(), 100);
        }
    }
}

pub mod reference {
    //! The naive byte-per-page flag store this crate used before the
    //! packed-bitmap rewrite.
    //!
    //! Kept on purpose: property tests drive it in lockstep with the
    //! bitmap implementation as an executable oracle, and the Criterion
    //! benches use it as the baseline side of the range-op comparisons.

    /// `Vec<u8>` of flag bytes, one per page.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NaivePages {
        flags: Vec<u8>,
    }

    impl NaivePages {
        /// All pages zeroed.
        pub fn new(npages: usize) -> NaivePages {
            NaivePages::new_with(npages, 0)
        }

        /// All pages initialised to `init` flags.
        pub fn new_with(npages: usize, init: u8) -> NaivePages {
            NaivePages {
                flags: vec![init; npages],
            }
        }

        /// Number of pages.
        pub fn npages(&self) -> usize {
            self.flags.len()
        }

        /// Raw flags of page `idx`.
        pub fn get(&self, idx: usize) -> u8 {
            self.flags[idx] // tidy:allow(panic-reachability) -- page indices derive from addresses bounded by the fixed page count
        }

        /// Mutable flags of page `idx`: with [`NaivePages::get`], the
        /// only places a page index is checked.
        fn flags_mut(&mut self, idx: usize) -> &mut u8 {
            &mut self.flags[idx] // tidy:allow(panic-reachability) -- page indices derive from addresses bounded by the fixed page count
        }

        /// Sets `flag` on page `idx`; returns true if newly set.
        pub fn set_flag(&mut self, idx: usize, flag: u8) -> bool {
            let flags = self.flags_mut(idx);
            let had = *flags & flag != 0;
            *flags |= flag;
            !had
        }

        /// Clears `flag` on page `idx`; returns true if previously set.
        pub fn clear_flag(&mut self, idx: usize, flag: u8) -> bool {
            let flags = self.flags_mut(idx);
            let had = *flags & flag != 0;
            *flags &= !flag;
            had
        }

        /// Sets `flag` over `[first, last)`; returns the newly-set count.
        pub fn set_flag_range(&mut self, flag: u8, first: usize, last: usize) -> u64 {
            crate::cast::to_u64((first..last).filter(|&idx| self.set_flag(idx, flag)).count())
        }

        /// Clears `flag` over `[first, last)`; returns the
        /// previously-set count.
        pub fn clear_flag_range(&mut self, flag: u8, first: usize, last: usize) -> u64 {
            crate::cast::to_u64((first..last).filter(|&idx| self.clear_flag(idx, flag)).count())
        }

        /// Pages in `[first, last)` with `flag` set.
        pub fn count_flag_range(&self, flag: u8, first: usize, last: usize) -> u64 {
            let n = self.flags[first..last]
                .iter()
                .filter(|&&f| f & flag != 0)
                .count();
            crate::cast::to_u64(n)
        }

        /// Pages with `flag` set anywhere in the store.
        pub fn count_flag(&self, flag: u8) -> u64 {
            self.count_flag_range(flag, 0, self.flags.len())
        }
    }
}

use pagebits::{for_each_run, masked_words, zip_words, PageBits};

/// A virtual address in a simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Byte offset addition.
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }

    /// True if this address is page-aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }
}

/// Memory protection for a mapping or page range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prot {
    /// No access: the range is uncommitted; touching it is an error.
    None,
    /// Read-only access.
    Read,
    /// Read-write access.
    ReadWrite,
}

/// What backs a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Anonymous private memory (heaps, malloc arenas, stacks).
    Anonymous,
    /// A `MAP_PRIVATE` file mapping starting at offset zero of `file`
    /// (shared libraries and runtime images). Clean pages are shared
    /// through the page cache; written pages become private copies.
    PrivateFile(FileId),
}

/// Per-page state flags.
pub mod page_flags {
    /// Page is backed by a physical page.
    pub const RESIDENT: u8 = 1;
    /// Page was written since it was mapped (anon) or is a private CoW
    /// copy (file-backed).
    pub const DIRTY: u8 = 2;
    /// Page contents live on the swap device.
    pub const SWAPPED: u8 = 4;
    /// Page is protected `PROT_NONE` (uncommitted).
    pub const NOACCESS: u8 = 8;
}

/// The outcome of touching a range: how many faults of each kind the
/// access incurred. The cost model converts this into simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Pages that had to be zero-filled (first touch, or touch after a
    /// release).
    pub zero_fill_faults: u64,
    /// File-backed pages faulted in from the page cache or disk.
    pub file_faults: u64,
    /// Pages brought back from the swap device.
    pub swap_ins: u64,
}

impl TouchOutcome {
    /// Accumulates another outcome into this one.
    pub fn merge(&mut self, other: TouchOutcome) {
        self.zero_fill_faults += other.zero_fill_faults;
        self.file_faults += other.file_faults;
        self.swap_ins += other.swap_ins;
    }
}

/// Which one of a mapping's four per-page bitmaps a range op updates
/// (the [`page_flags`] bits, one at a time).
#[derive(Debug, Clone, Copy)]
enum Flag {
    Resident,
    Dirty,
    Swapped,
    NoAccess,
}

/// Number of pages a [`zip_words`] walk selects: the set bits of its
/// words plus its uniform run.
fn count_pages(
    (words, run): (impl Iterator<Item = (usize, u64)>, std::ops::Range<usize>),
) -> u64 {
    let stored: u64 = words.map(|(_, bits)| u64::from(bits.count_ones())).sum();
    stored + crate::cast::to_u64(run.len())
}

/// A contiguous virtual mapping.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// First address of the mapping (page-aligned).
    pub start: VirtAddr,
    /// What backs the mapping.
    pub kind: MappingKind,
    /// Human-readable name, as it would appear in `smaps` (e.g.
    /// `"[heap:java]"`, `"libjvm.so"`).
    pub name: String,
    /// One bitmap per flag; all four cover the same page count.
    resident: PageBits,
    dirty: PageBits,
    swapped: PageBits,
    noaccess: PageBits,
    /// Count of pages with `RESIDENT` set (kept in sync incrementally;
    /// debug builds re-derive it from the bitmap after every mutation).
    resident_pages: u64,
    /// Count of pages with `DIRTY` set.
    dirty_pages: u64,
    /// Count of pages with `SWAPPED` set.
    swapped_pages: u64,
    /// Whether any page's flag state may have changed since the last
    /// checkpoint epoch: set by every mutating range op over a
    /// non-empty range, cleared by [`Mapping::clear_epoch_dirty`].
    /// A delta re-encodes a dirty mapping whole, so one flag is all it
    /// needs. This is durability-layer *tracking*, not memory state:
    /// it is excluded from the canonical snapshot encoding so
    /// checkpoints of equal memory states stay byte-identical whatever
    /// their checkpoint history, and a restore starts it clean.
    epoch_dirty: bool,
}

impl Mapping {
    fn new(start: VirtAddr, npages: usize, kind: MappingKind, prot: Prot, name: &str) -> Mapping {
        let noaccess = if matches!(prot, Prot::None) {
            PageBits::new_filled(npages)
        } else {
            PageBits::new(npages)
        };
        Mapping {
            start,
            kind,
            name: name.to_string(),
            resident: PageBits::new(npages),
            dirty: PageBits::new(npages),
            swapped: PageBits::new(npages),
            noaccess,
            resident_pages: 0,
            dirty_pages: 0,
            swapped_pages: 0,
            // A mapping that did not exist at the last checkpoint is
            // dirty in full.
            epoch_dirty: npages > 0,
        }
    }

    /// True if any page changed since the last checkpoint epoch.
    pub fn is_epoch_dirty(&self) -> bool {
        self.epoch_dirty
    }

    /// Marks the mapping clean: called when a checkpoint (full or
    /// delta) captures it.
    pub fn clear_epoch_dirty(&mut self) {
        self.epoch_dirty = false;
    }

    /// Records a mutating op over `[first, last)` for the next delta:
    /// an empty range changes nothing and leaves the flag alone.
    fn mark_epoch_dirty(&mut self, first: usize, last: usize) {
        self.epoch_dirty |= first < last;
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> u64 {
        crate::cast::to_u64(self.page_count()) * PAGE_SIZE
    }

    /// True if the mapping has zero pages (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.page_count() == 0
    }

    /// One-past-the-end address.
    pub fn end(&self) -> VirtAddr {
        VirtAddr(self.start.0 + self.len())
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages * PAGE_SIZE
    }

    /// Bytes currently dirty.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_pages * PAGE_SIZE
    }

    /// Bytes currently on swap.
    pub fn swapped_bytes(&self) -> u64 {
        self.swapped_pages * PAGE_SIZE
    }

    /// Raw flags for page `idx`, composed from the four bitmaps.
    pub fn page(&self, idx: usize) -> u8 {
        let mut flags = 0;
        if self.resident.get(idx) {
            flags |= page_flags::RESIDENT;
        }
        if self.dirty.get(idx) {
            flags |= page_flags::DIRTY;
        }
        if self.swapped.get(idx) {
            flags |= page_flags::SWAPPED;
        }
        if self.noaccess.get(idx) {
            flags |= page_flags::NOACCESS;
        }
        flags
    }

    /// Number of pages in the mapping.
    pub fn page_count(&self) -> usize {
        self.resident.npages()
    }

    /// Bytes this mapping's four page bitmaps encode to: most of a
    /// checkpoint, so checkpoint writers size their buffers from it.
    pub fn bitmap_bytes(&self) -> usize {
        4 * (8 + 8 * self.page_count().div_ceil(64))
    }

    /// Converts an address inside the mapping to a page index.
    fn page_index(&self, addr: VirtAddr) -> usize {
        debug_assert!(addr >= self.start && addr < self.end());
        crate::cast::to_usize((addr.0 - self.start.0) / PAGE_SIZE)
    }

    /// The bitmap behind `flag`, with the page count it keeps in sync
    /// (`NoAccess` keeps none).
    fn flag_bits(&mut self, flag: Flag) -> (&mut PageBits, Option<&mut u64>) {
        match flag {
            Flag::Resident => (&mut self.resident, Some(&mut self.resident_pages)),
            Flag::Dirty => (&mut self.dirty, Some(&mut self.dirty_pages)),
            Flag::Swapped => (&mut self.swapped, Some(&mut self.swapped_pages)),
            Flag::NoAccess => (&mut self.noaccess, None),
        }
    }

    fn set_flag_range(&mut self, flag: Flag, first: usize, last: usize) -> u64 {
        self.mark_epoch_dirty(first, last);
        let (bits, count) = self.flag_bits(flag);
        let n = bits.set_range(first, last);
        if let Some(count) = count {
            *count += n;
        }
        n
    }

    fn clear_flag_range(&mut self, flag: Flag, first: usize, last: usize) -> u64 {
        self.mark_epoch_dirty(first, last);
        let (bits, count) = self.flag_bits(flag);
        let n = bits.clear_range(first, last);
        if let Some(count) = count {
            *count -= n;
        }
        n
    }

    /// The resident, clean pages of `[first, last)` — the pages that
    /// hold page-cache references when the mapping is file-backed — as
    /// [`zip_words`] splits them: `(word_index, bits)` through the
    /// stored words, then the run where both bitmaps are uniform.
    fn clean_resident(
        &self,
        first: usize,
        last: usize,
    ) -> (impl Iterator<Item = (usize, u64)> + '_, std::ops::Range<usize>) {
        zip_words([&self.resident, &self.dirty], first, last, |[r, d]| r & !d)
    }

    /// `(word_index, bits)` for every word overlapping `[first, last)`
    /// that holds resident, clean pages, with `bits` selecting them.
    pub(crate) fn clean_resident_words(
        &self,
        first: usize,
        last: usize,
    ) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (words, run) = self.clean_resident(first, last);
        words.chain(masked_words(run.start, run.end))
    }

    /// Calls `f` with runs of resident, clean pages covering every such
    /// page once: the runs of set bits in each stored word, then the
    /// uniform tail as a single run.
    pub fn for_each_clean_resident_run(&self, mut f: impl FnMut(std::ops::Range<usize>)) {
        let (words, run) = self.clean_resident(0, self.page_count());
        for (w, bits) in words {
            for_each_run(w, bits, &mut f);
        }
        if !run.is_empty() {
            f(run);
        }
    }

    /// Calls `f` with the index of every resident, clean page.
    pub fn for_each_clean_resident_page(&self, mut f: impl FnMut(usize)) {
        self.for_each_clean_resident_run(|run| run.for_each(&mut f));
    }

    /// Number of resident, clean pages whose bit is set in `pages`, a
    /// bitmap indexed like this mapping. A file mapping starts at file
    /// offset zero, so the file's solo bitmap lines up word for word and
    /// this counts the private clean pages.
    pub fn clean_resident_pages_in(&self, pages: &PageBits) -> u64 {
        let maps = [&self.resident, &self.dirty, pages];
        count_pages(zip_words(maps, 0, self.page_count(), |[r, d, p]| r & !d & p))
    }

    /// Drops the page-cache references that the resident, clean pages
    /// of `[first, last)` hold (none for an anonymous mapping).
    pub(crate) fn drop_cache_refs(&self, files: &mut FileRegistry, first: usize, last: usize) {
        if let MappingKind::PrivateFile(file) = self.kind {
            for (w, bits) in self.clean_resident_words(first, last) {
                files.dec_mappers(file, w, bits);
            }
        }
    }

    /// Number of pages that are both resident and dirty (the resident
    /// private-dirty set of `smaps`).
    pub fn resident_dirty_pages(&self) -> u64 {
        let maps = [&self.resident, &self.dirty];
        count_pages(zip_words(maps, 0, self.page_count(), |[r, d]| r & d))
    }

    /// Bitmap words each flag stores (resident, dirty, swapped,
    /// noaccess); every other word is implied by its uniform tail.
    pub fn stored_words(&self) -> [usize; 4] {
        [&self.resident, &self.dirty, &self.swapped, &self.noaccess].map(PageBits::stored_words)
    }

    /// Resident bytes within `[addr, addr + len)` (the `pmap` view that
    /// Desiccant uses to size a HotSpot heap, §4.5.2).
    ///
    /// A partial trailing page counts in full: a 100-byte probe covers
    /// the one page it starts on, as `pmap` would report it.
    pub fn resident_bytes_in(&self, addr: VirtAddr, len: u64) -> u64 {
        // Whole-mapping probes are frequent (heap-residency sampling);
        // serve them from the maintained counter.
        if addr == self.start && len == self.len() {
            return self.resident_bytes();
        }
        let first = self.page_index(addr);
        let last = (first + crate::cast::to_usize(len.div_ceil(PAGE_SIZE))).min(self.page_count());
        self.resident.count_range(first, last) * PAGE_SIZE
    }

    /// Re-derives the incremental counters from the bitmaps. Debug
    /// builds run this after every mutating operation; release builds
    /// skip it.
    fn verify_counters(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.resident_pages,
                self.resident.count(),
                "resident counter drift in `{}`",
                self.name
            );
            assert_eq!(
                self.dirty_pages,
                self.dirty.count(),
                "dirty counter drift in `{}`",
                self.name
            );
            assert_eq!(
                self.swapped_pages,
                self.swapped.count(),
                "swapped counter drift in `{}`",
                self.name
            );
        }
    }

    /// The first `PROT_NONE` page in `[first, last)`, if any.
    fn first_noaccess(&self, first: usize, last: usize) -> Option<usize> {
        let (mut words, run) = zip_words([&self.noaccess], first, last, |[na]| na);
        words
            .find(|&(_, bits)| bits != 0)
            .map(|(w, bits)| w * 64 + crate::cast::to_usize(bits.trailing_zeros()))
            .or((!run.is_empty()).then_some(run.start))
    }

    /// Touches `[first, last)`, faulting pages in word batches.
    ///
    /// Protection is validated up front, so a faulting touch leaves the
    /// mapping unchanged.
    fn touch_range(
        &mut self,
        files: &mut FileRegistry,
        first: usize,
        last: usize,
        write: bool,
    ) -> SimOsResult<TouchOutcome> {
        if let Some(idx) = self.first_noaccess(first, last) {
            return Err(SimOsError::ProtectionViolation {
                addr: VirtAddr(self.start.0 + crate::cast::to_u64(idx) * PAGE_SIZE),
            });
        }
        let mut out = TouchOutcome::default();
        self.mark_epoch_dirty(first, last);
        // Faults and page-cache references per word from the old state,
        // then the three flags as range ops: a touch that runs to the
        // end of the mapping moves their tails instead of storing words.
        // Every absent page becomes resident, and a swapped page is
        // never resident, so every swapped page in range swaps in.
        for (w, mask) in masked_words(first, last) {
            let resident = self.resident.word(w) & mask;
            let absent = mask & !resident;
            let swap_in = absent & self.swapped.word(w);
            out.swap_ins += u64::from(swap_in.count_ones());
            let fresh = absent & !swap_in;
            match self.kind {
                MappingKind::Anonymous => {
                    out.zero_fill_faults += u64::from(fresh.count_ones());
                }
                MappingKind::PrivateFile(file) => {
                    out.file_faults += u64::from(fresh.count_ones());
                    // Read faults join the page cache; write faults go
                    // straight to a private copy and never join it.
                    if !write {
                        files.inc_mappers(file, w, fresh);
                    }
                }
            }
            if write {
                // A first write to a clean, already-resident file page
                // breaks CoW: the page leaves the page cache.
                if let MappingKind::PrivateFile(file) = self.kind {
                    files.dec_mappers(file, w, resident & !self.dirty.word(w));
                }
            }
        }
        let swapped_in = self.swapped.clear_range(first, last);
        debug_assert_eq!(swapped_in, out.swap_ins, "a swapped page was resident");
        self.swapped_pages -= swapped_in;
        self.resident_pages += self.resident.set_range(first, last);
        if write {
            self.dirty_pages += self.dirty.set_range(first, last);
        }
        Ok(out)
    }

    /// `madvise(MADV_DONTNEED)` over `[first, last)`: contents (and any
    /// swapped copies) are discarded. Returns freed resident bytes.
    fn release_range(&mut self, files: &mut FileRegistry, first: usize, last: usize) -> u64 {
        self.drop_cache_refs(files, first, last);
        let freed = self.clear_flag_range(Flag::Resident, first, last) * PAGE_SIZE;
        self.clear_flag_range(Flag::Swapped, first, last);
        self.clear_flag_range(Flag::Dirty, first, last);
        freed
    }

    /// Protection change over `[first, last)`. `Prot::None` also frees
    /// the backing pages (HotSpot-uncommit semantics); returns the
    /// bytes freed.
    fn protect_range(
        &mut self,
        files: &mut FileRegistry,
        first: usize,
        last: usize,
        prot: Prot,
    ) -> u64 {
        match prot {
            Prot::None => {
                // Contents are discarded like a release, and the range
                // becomes inaccessible until re-protected.
                let freed = self.release_range(files, first, last);
                self.set_flag_range(Flag::NoAccess, first, last);
                freed
            }
            Prot::Read | Prot::ReadWrite => {
                self.clear_flag_range(Flag::NoAccess, first, last);
                0
            }
        }
    }

    /// Moves the resident pages of `[first, last)` to swap. Anonymous
    /// and dirty file pages go to the swap device; clean file pages are
    /// simply dropped (they can be re-read). Returns bytes removed from
    /// residency.
    fn swap_out_range(&mut self, files: &mut FileRegistry, first: usize, last: usize) -> u64 {
        let mut swapped_bytes = 0;
        self.mark_epoch_dirty(first, last);
        for (w, mask) in masked_words(first, last) {
            let resident = self.resident.word(w) & mask;
            if resident == 0 {
                continue;
            }
            swapped_bytes += u64::from(resident.count_ones()) * PAGE_SIZE;
            let to_swap = match self.kind {
                MappingKind::Anonymous => resident,
                MappingKind::PrivateFile(file) => {
                    files.dec_mappers(file, w, resident & !self.dirty.word(w));
                    resident & self.dirty.word(w)
                }
            };
            self.swapped_pages += self.swapped.set_word_bits(w, to_swap);
        }
        // Every resident page in range left residency.
        self.resident_pages -= self.resident.clear_range(first, last);
        swapped_bytes
    }
}

/// A per-process virtual address space.
///
/// Mappings are kept in an ordered map from start address; lookups walk
/// to the candidate mapping in `O(log n)`.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    mappings: BTreeMap<u64, Mapping>,
    /// Next address handed out by non-fixed `mmap`; grows upward from a
    /// conventional base to keep addresses stable and readable.
    next_addr: u64,
    /// Upper bound of the usable address range.
    limit: u64,
    /// Whether the mapping *set* changed since the last checkpoint
    /// epoch: set at creation and by `mmap`/`munmap`. Tracking state,
    /// excluded from the canonical encoding (see [`Mapping`]).
    structure_dirty: bool,
    /// Start addresses unmapped since the last checkpoint epoch, so a
    /// delta can erase them before upserting dirty mappings.
    removed_since_epoch: BTreeSet<u64>,
}

/// Base of the `mmap` allocation area.
const MMAP_BASE: u64 = 0x0000_7000_0000_0000 >> 16 << 16;
/// End of the usable address range (48-bit canonical user space).
const ADDR_LIMIT: u64 = 0x0000_7fff_ffff_f000;

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            mappings: BTreeMap::new(),
            next_addr: MMAP_BASE,
            limit: ADDR_LIMIT,
            // A space that did not exist at the last checkpoint is
            // structurally dirty until one captures it.
            structure_dirty: true,
            removed_since_epoch: BTreeSet::new(),
        }
    }

    /// Iterates over all mappings in address order.
    pub fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.mappings.values()
    }

    /// True if anything here — mapping contents or the mapping set —
    /// changed since the last checkpoint epoch.
    pub fn is_epoch_dirty(&self) -> bool {
        self.structure_dirty
            || !self.removed_since_epoch.is_empty()
            || self.mappings.values().any(Mapping::is_epoch_dirty)
    }

    /// Mappings with any page dirtied since the last checkpoint epoch,
    /// keyed by start address (the delta-checkpoint upsert set).
    pub fn epoch_dirty_mappings(&self) -> impl Iterator<Item = (&u64, &Mapping)> {
        self.mappings.iter().filter(|(_, m)| m.is_epoch_dirty())
    }

    /// Start addresses unmapped since the last checkpoint epoch (the
    /// delta-checkpoint erase set).
    pub fn removed_since_epoch(&self) -> &BTreeSet<u64> {
        &self.removed_since_epoch
    }

    /// Marks the whole space clean: called when a checkpoint (full or
    /// delta) captures it.
    pub fn clear_epoch_dirty(&mut self) {
        self.structure_dirty = false;
        self.removed_since_epoch.clear();
        for m in self.mappings.values_mut() {
            m.clear_epoch_dirty();
        }
    }

    /// Looks up the mapping containing `addr`.
    pub fn mapping_at(&self, addr: VirtAddr) -> Option<&Mapping> {
        self.mappings
            .range(..=addr.0)
            .next_back()
            .map(|(_, m)| m)
            .filter(|m| addr < m.end())
    }

    fn mapping_at_mut(&mut self, addr: VirtAddr) -> Option<&mut Mapping> {
        self.mappings
            .range_mut(..=addr.0)
            .next_back()
            .map(|(_, m)| m)
            .filter(|m| addr < m.end())
    }

    fn validate_range(addr: VirtAddr, len: u64) -> SimOsResult<()> {
        if len == 0 || !addr.is_page_aligned() || !len.is_multiple_of(PAGE_SIZE) {
            return Err(SimOsError::BadAlignment { addr: addr.0, len });
        }
        Ok(())
    }

    /// Resolves `[addr, addr + len)` to its mapping and page range,
    /// checking alignment and bounds.
    fn resolve_range_mut(
        &mut self,
        addr: VirtAddr,
        len: u64,
    ) -> SimOsResult<(&mut Mapping, usize, usize)> {
        Self::validate_range(addr, len)?;
        let m = self
            .mapping_at_mut(addr)
            .ok_or(SimOsError::UnmappedRange { addr, len })?;
        if addr.0 + len > m.end().0 {
            return Err(SimOsError::UnmappedRange { addr, len });
        }
        let first = m.page_index(addr);
        let last = first + crate::cast::to_usize(len / PAGE_SIZE);
        Ok((m, first, last))
    }

    /// Maps `len` bytes (rounded up to pages) at a kernel-chosen
    /// address.
    ///
    /// A file mapping is not checked against the file registry here;
    /// callers go through [`crate::System::mmap_named`], which rejects
    /// unknown files and mappings past a file's end.
    pub fn mmap(
        &mut self,
        len: u64,
        kind: MappingKind,
        prot: Prot,
        name: &str,
    ) -> SimOsResult<VirtAddr> {
        let len = page_align_up(len.max(1));
        if self.next_addr + len > self.limit {
            return Err(SimOsError::OutOfAddressSpace { requested: len });
        }
        let addr = VirtAddr(self.next_addr);
        // Leave a guard gap between mappings so off-by-one range bugs
        // surface as `UnmappedRange` instead of silently touching a
        // neighbour.
        self.next_addr += len + PAGE_SIZE;
        self.insert_mapping(addr, len, kind, prot, name)?;
        Ok(addr)
    }

    fn insert_mapping(
        &mut self,
        addr: VirtAddr,
        len: u64,
        kind: MappingKind,
        prot: Prot,
        name: &str,
    ) -> SimOsResult<()> {
        let end = addr.0 + len;
        // Check the previous mapping does not run into us and the next
        // does not start inside us.
        if self.mapping_at(addr).is_some() {
            return Err(SimOsError::MappingOverlap { addr });
        }
        if self.mappings.range(addr.0..end).next().is_some() {
            return Err(SimOsError::MappingOverlap { addr });
        }
        let npages = crate::cast::to_usize(len / PAGE_SIZE);
        self.mappings
            .insert(addr.0, Mapping::new(addr, npages, kind, prot, name));
        self.structure_dirty = true;
        Ok(())
    }

    /// Unmaps the whole mapping starting exactly at `addr`.
    ///
    /// Partial unmapping (splitting) is not supported; the runtimes in
    /// this reproduction always unmap whole mappings and release page
    /// ranges with [`AddressSpace::release`] instead.
    pub fn munmap(&mut self, files: &mut FileRegistry, addr: VirtAddr) -> SimOsResult<Mapping> {
        let m = self
            .mappings
            .remove(&addr.0)
            .ok_or(SimOsError::UnmappedRange { addr, len: 0 })?;
        self.structure_dirty = true;
        self.removed_since_epoch.insert(addr.0);
        // Drop page-cache references held by this mapping.
        m.drop_cache_refs(files, 0, m.page_count());
        Ok(m)
    }

    /// Changes the protection of `[addr, addr + len)` (within a single
    /// mapping).
    ///
    /// Setting [`Prot::None`] models HotSpot's uncommit: the range
    /// becomes inaccessible *and* its physical pages are freed, exactly
    /// like HotSpot's `os::uncommit_memory`. Re-protecting the range
    /// readable/writable recommits it; the next touch zero-fills.
    pub fn mprotect(
        &mut self,
        files: &mut FileRegistry,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> SimOsResult<u64> {
        let (m, first, last) = self.resolve_range_mut(addr, len)?;
        let freed = m.protect_range(files, first, last, prot);
        m.verify_counters();
        Ok(freed)
    }

    /// Touches `[addr, addr + len)`, faulting pages in as needed.
    ///
    /// Returns how many faults of each kind occurred so the caller can
    /// charge simulated time. A range containing a `PROT_NONE` page
    /// fails up front without touching anything.
    pub fn touch(
        &mut self,
        files: &mut FileRegistry,
        addr: VirtAddr,
        len: u64,
        write: bool,
    ) -> SimOsResult<TouchOutcome> {
        let (m, first, last) = self.resolve_range_mut(addr, len)?;
        let out = m.touch_range(files, first, last, write)?;
        m.verify_counters();
        Ok(out)
    }

    /// Releases the physical pages of `[addr, addr + len)` back to the
    /// OS (`madvise(MADV_DONTNEED)` semantics): the virtual range stays
    /// mapped, contents are discarded, and the next touch zero-fills.
    ///
    /// Returns the number of bytes that were actually resident.
    pub fn release(
        &mut self,
        files: &mut FileRegistry,
        addr: VirtAddr,
        len: u64,
    ) -> SimOsResult<u64> {
        let (m, first, last) = self.resolve_range_mut(addr, len)?;
        let freed = m.release_range(files, first, last);
        m.verify_counters();
        Ok(freed)
    }

    /// Moves the resident pages of `[addr, addr + len)` to swap.
    ///
    /// Returns the number of bytes swapped out. Clean file pages are
    /// simply dropped (they can be re-read), dirty/anonymous pages go to
    /// the swap device. This models the paper's §5.6 swapping baseline,
    /// which has no runtime guidance about which pages matter.
    pub fn swap_out(
        &mut self,
        files: &mut FileRegistry,
        addr: VirtAddr,
        len: u64,
    ) -> SimOsResult<u64> {
        let (m, first, last) = self.resolve_range_mut(addr, len)?;
        let swapped = m.swap_out_range(files, first, last);
        m.verify_counters();
        Ok(swapped)
    }

    /// Next address non-fixed `mmap` would hand out. Exposed for the
    /// delta-checkpoint encoder, which must carry it so a folded space
    /// re-encodes byte-identically.
    pub fn next_addr(&self) -> u64 {
        self.next_addr
    }

    /// Resident bytes across the whole address space.
    pub fn resident_bytes(&self) -> u64 {
        self.mappings.values().map(Mapping::resident_bytes).sum()
    }

    /// Resident bytes within `[addr, addr + len)`, the `pmap` view.
    pub fn resident_bytes_in(&self, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        if len == 0 || !addr.is_page_aligned() {
            return Err(SimOsError::BadAlignment { addr: addr.0, len });
        }
        let m = self
            .mapping_at(addr)
            .ok_or(SimOsError::UnmappedRange { addr, len })?;
        if addr.0 + len > m.end().0 {
            return Err(SimOsError::UnmappedRange { addr, len });
        }
        Ok(m.resident_bytes_in(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_and_files() -> (AddressSpace, FileRegistry) {
        (AddressSpace::new(), FileRegistry::new())
    }

    #[test]
    fn mmap_then_touch_makes_pages_resident() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(8 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "t")
            .unwrap();
        assert_eq!(s.resident_bytes(), 0);
        let out = s.touch(&mut f, a, 3 * PAGE_SIZE, true).unwrap();
        assert_eq!(out.zero_fill_faults, 3);
        assert_eq!(s.resident_bytes(), 3 * PAGE_SIZE);
        // Touching again faults nothing.
        let out = s.touch(&mut f, a, 3 * PAGE_SIZE, true).unwrap();
        assert_eq!(out, TouchOutcome::default());
    }

    #[test]
    fn release_discards_and_refaults() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "t")
            .unwrap();
        s.touch(&mut f, a, 4 * PAGE_SIZE, true).unwrap();
        let freed = s.release(&mut f, a, 2 * PAGE_SIZE).unwrap();
        assert_eq!(freed, 2 * PAGE_SIZE);
        assert_eq!(s.resident_bytes(), 2 * PAGE_SIZE);
        let out = s.touch(&mut f, a, 4 * PAGE_SIZE, false).unwrap();
        assert_eq!(out.zero_fill_faults, 2);
    }

    #[test]
    fn prot_none_uncommits_and_blocks_access() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "t")
            .unwrap();
        s.touch(&mut f, a, 4 * PAGE_SIZE, true).unwrap();
        let freed = s.mprotect(&mut f, a, 4 * PAGE_SIZE, Prot::None).unwrap();
        assert_eq!(freed, 4 * PAGE_SIZE);
        assert_eq!(s.resident_bytes(), 0);
        let err = s.touch(&mut f, a, PAGE_SIZE, false).unwrap_err();
        assert!(matches!(err, SimOsError::ProtectionViolation { .. }));
        // Recommit and touch again.
        s.mprotect(&mut f, a, 4 * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let out = s.touch(&mut f, a, PAGE_SIZE, true).unwrap();
        assert_eq!(out.zero_fill_faults, 1);
    }

    #[test]
    fn swap_out_and_back_in() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "t")
            .unwrap();
        s.touch(&mut f, a, 4 * PAGE_SIZE, true).unwrap();
        let swapped = s.swap_out(&mut f, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(swapped, 4 * PAGE_SIZE);
        assert_eq!(s.resident_bytes(), 0);
        let out = s.touch(&mut f, a, 4 * PAGE_SIZE, false).unwrap();
        assert_eq!(out.swap_ins, 4);
        assert_eq!(s.resident_bytes(), 4 * PAGE_SIZE);
    }

    #[test]
    fn file_pages_share_through_page_cache() {
        let mut f = FileRegistry::new();
        let lib = f.register("libjvm.so", 4 * PAGE_SIZE);
        let mut s1 = AddressSpace::new();
        let mut s2 = AddressSpace::new();
        let a1 = s1
            .mmap(4 * PAGE_SIZE, MappingKind::PrivateFile(lib), Prot::Read, "libjvm.so")
            .unwrap();
        let a2 = s2
            .mmap(4 * PAGE_SIZE, MappingKind::PrivateFile(lib), Prot::Read, "libjvm.so")
            .unwrap();
        s1.touch(&mut f, a1, 4 * PAGE_SIZE, false).unwrap();
        assert_eq!(f.mapper_count(lib, 0), 1);
        s2.touch(&mut f, a2, 4 * PAGE_SIZE, false).unwrap();
        assert_eq!(f.mapper_count(lib, 0), 2);
        s1.release(&mut f, a1, 4 * PAGE_SIZE).unwrap();
        assert_eq!(f.mapper_count(lib, 0), 1);
    }

    #[test]
    fn cow_write_privatizes_file_page() {
        let mut f = FileRegistry::new();
        let lib = f.register("libjvm.so", 2 * PAGE_SIZE);
        let mut s = AddressSpace::new();
        let a = s
            .mmap(
                2 * PAGE_SIZE,
                MappingKind::PrivateFile(lib),
                Prot::ReadWrite,
                "libjvm.so",
            )
            .unwrap();
        s.touch(&mut f, a, 2 * PAGE_SIZE, false).unwrap();
        assert_eq!(f.mapper_count(lib, 0), 1);
        // Write to the first page only: it leaves the page cache.
        s.touch(&mut f, a, PAGE_SIZE, true).unwrap();
        assert_eq!(f.mapper_count(lib, 0), 0);
        assert_eq!(f.mapper_count(lib, 1), 1);
        let m = s.mapping_at(a).unwrap();
        assert_eq!(m.dirty_bytes(), PAGE_SIZE);
    }

    #[test]
    fn unaligned_ranges_are_rejected() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(4 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "x")
            .unwrap();
        assert!(s.touch(&mut f, VirtAddr(a.0 + 1), PAGE_SIZE, false).is_err());
        assert!(s.touch(&mut f, a, 100, false).is_err());
    }

    #[test]
    fn touch_past_mapping_end_is_rejected() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(2 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "x")
            .unwrap();
        let err = s.touch(&mut f, a, 3 * PAGE_SIZE, false).unwrap_err();
        assert!(matches!(err, SimOsError::UnmappedRange { .. }));
    }

    #[test]
    fn pmap_counts_only_requested_range() {
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(8 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "x")
            .unwrap();
        s.touch(&mut f, a, 2 * PAGE_SIZE, true).unwrap();
        s.touch(&mut f, a.offset(6 * PAGE_SIZE), PAGE_SIZE, true).unwrap();
        assert_eq!(
            s.resident_bytes_in(a, 4 * PAGE_SIZE).unwrap(),
            2 * PAGE_SIZE
        );
        assert_eq!(
            s.resident_bytes_in(a, 8 * PAGE_SIZE).unwrap(),
            3 * PAGE_SIZE
        );
    }

    #[test]
    fn pmap_counts_partial_trailing_page() {
        // Regression: a probe whose length is not page-aligned must
        // still count the page its tail lands on. The old
        // `len / PAGE_SIZE` rounding silently dropped it.
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(8 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "x")
            .unwrap();
        s.touch(&mut f, a, 3 * PAGE_SIZE, true).unwrap();
        let m = s.mapping_at(a).unwrap();
        // A sub-page probe covers exactly the one page it starts on.
        assert_eq!(m.resident_bytes_in(a, 100), PAGE_SIZE);
        // One byte past a page boundary rounds up to the next page.
        assert_eq!(m.resident_bytes_in(a, PAGE_SIZE + 1), 2 * PAGE_SIZE);
        // An unaligned probe over the whole resident prefix sees all of
        // it, not `len / PAGE_SIZE` pages of it.
        assert_eq!(
            m.resident_bytes_in(a, 2 * PAGE_SIZE + 100),
            3 * PAGE_SIZE
        );
        // A probe running past the resident prefix is clamped to the
        // mapping and still exact.
        assert_eq!(
            m.resident_bytes_in(a.offset(2 * PAGE_SIZE), 6 * PAGE_SIZE - 1),
            PAGE_SIZE
        );
    }

    #[test]
    fn word_boundary_ranges_are_exact() {
        // Exercise ranges that straddle, start, and end on 64-page word
        // boundaries, where mask construction is easiest to get wrong.
        let (mut s, mut f) = space_and_files();
        let a = s
            .mmap(200 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite, "w")
            .unwrap();
        // Touch [60, 70) — straddles the first word boundary.
        let out = s
            .touch(&mut f, a.offset(60 * PAGE_SIZE), 10 * PAGE_SIZE, true)
            .unwrap();
        assert_eq!(out.zero_fill_faults, 10);
        // Touch exactly the second word, [64, 128).
        let out = s
            .touch(&mut f, a.offset(64 * PAGE_SIZE), 64 * PAGE_SIZE, true)
            .unwrap();
        assert_eq!(out.zero_fill_faults, 58);
        assert_eq!(s.resident_bytes(), 68 * PAGE_SIZE);
        // Release across both boundaries, [63, 129).
        let freed = s
            .release(&mut f, a.offset(63 * PAGE_SIZE), 66 * PAGE_SIZE)
            .unwrap();
        assert_eq!(freed, 65 * PAGE_SIZE);
        assert_eq!(s.resident_bytes(), 3 * PAGE_SIZE);
        assert_eq!(
            s.resident_bytes_in(a, 200 * PAGE_SIZE).unwrap(),
            3 * PAGE_SIZE
        );
    }

    #[test]
    fn munmap_removes_mapping_and_cache_refs() {
        let mut f = FileRegistry::new();
        let lib = f.register("node", 2 * PAGE_SIZE);
        let mut s = AddressSpace::new();
        let a = s
            .mmap(2 * PAGE_SIZE, MappingKind::PrivateFile(lib), Prot::Read, "node")
            .unwrap();
        s.touch(&mut f, a, 2 * PAGE_SIZE, false).unwrap();
        assert_eq!(f.mapper_count(lib, 1), 1);
        s.munmap(&mut f, a).unwrap();
        assert_eq!(f.mapper_count(lib, 1), 0);
        assert!(s.mapping_at(a).is_none());
    }

    /// Every mutating range op, with the epoch-dirty flag behaving
    /// exactly as the per-page bitmap it replaced: an empty range
    /// leaves a clean mapping clean, and any non-empty range marks it
    /// dirty.
    #[test]
    fn epoch_dirty_flag_tracks_non_empty_range_ops() {
        type Op = fn(&mut Mapping, &mut FileRegistry, usize, usize);
        let ops: [(&str, Op); 8] = [
            ("touch read", |m, f, a, b| {
                m.touch_range(f, a, b, false).unwrap();
            }),
            ("touch write", |m, f, a, b| {
                m.touch_range(f, a, b, true).unwrap();
            }),
            ("release", |m, f, a, b| {
                m.release_range(f, a, b);
            }),
            ("protect none", |m, f, a, b| {
                m.protect_range(f, a, b, Prot::None);
            }),
            ("protect rw", |m, f, a, b| {
                m.protect_range(f, a, b, Prot::ReadWrite);
            }),
            ("swap out", |m, f, a, b| {
                m.swap_out_range(f, a, b);
            }),
            ("set dirty", |m, _, a, b| {
                m.set_flag_range(Flag::Dirty, a, b);
            }),
            ("clear resident", |m, _, a, b| {
                m.clear_flag_range(Flag::Resident, a, b);
            }),
        ];
        let npages = 130;
        let mut f = FileRegistry::new();
        let lib = f.register("lib", crate::cast::to_u64(npages) * PAGE_SIZE);
        for kind in [MappingKind::Anonymous, MappingKind::PrivateFile(lib)] {
            for (name, op) in ops {
                for (first, last) in [(0, 1), (5, 70), (63, 64), (64, 130), (0, 130)] {
                    let mut m =
                        Mapping::new(VirtAddr(0x1000_0000), npages, kind, Prot::ReadWrite, "t");
                    assert!(m.is_epoch_dirty(), "a new mapping starts dirty");
                    m.clear_epoch_dirty();
                    for at in [0, first, last, npages] {
                        op(&mut m, &mut f, at, at);
                        assert!(!m.is_epoch_dirty(), "{name}: empty range at {at} dirtied");
                    }
                    op(&mut m, &mut f, first, last);
                    assert!(m.is_epoch_dirty(), "{name}: [{first}, {last}) left it clean");
                    m.clear_epoch_dirty();
                    assert!(!m.is_epoch_dirty());
                    // Leave the page cache as the op found it.
                    m.release_range(&mut f, 0, npages);
                }
            }
        }
        let empty = Mapping::new(VirtAddr(0x1000_0000), 0, MappingKind::Anonymous, Prot::Read, "e");
        assert!(!empty.is_epoch_dirty(), "a zero-page mapping has nothing to capture");
        let m = Mapping::new(VirtAddr(0x1000_0000), 4, MappingKind::Anonymous, Prot::Read, "r");
        let restored: Mapping = snapshot::decode(&snapshot::encode(&m)).unwrap();
        assert!(!restored.is_epoch_dirty(), "a restored mapping starts clean");
    }

    #[test]
    fn uniform_flags_store_no_words() {
        let mut sys = crate::System::new();
        // 200 pages: the last word is partial.
        let lib = sys.register_file("libjvm.so", 200 * PAGE_SIZE);
        let pid = sys.spawn_process();
        let a = sys.map_library(pid, lib).unwrap();
        let space = sys.space(pid).unwrap();
        assert_eq!(space.mapping_at(a).unwrap().stored_words(), [0; 4], "a fully faulted library");
        // A mixed anonymous map never swapped stores no swapped word.
        let heap = sys
            .mmap(pid, 200 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(pid, heap.offset(3 * PAGE_SIZE), 70 * PAGE_SIZE, true).unwrap();
        sys.release(pid, heap.offset(10 * PAGE_SIZE), PAGE_SIZE).unwrap();
        let m = sys.space(pid).unwrap().mapping_at(heap).unwrap();
        assert_eq!(m.stored_words(), [2, 2, 0, 0]);
        // Swapping the whole map out and back in stores nothing again.
        sys.swap_out(pid, heap, 200 * PAGE_SIZE).unwrap();
        assert_eq!(sys.space(pid).unwrap().mapping_at(heap).unwrap().stored_words(), [0, 2, 2, 0]);
        sys.touch(pid, heap, 200 * PAGE_SIZE, true).unwrap();
        assert_eq!(sys.space(pid).unwrap().mapping_at(heap).unwrap().stored_words(), [0; 4]);
    }

    #[test]
    fn prot_none_reservation_stores_its_committed_prefix() {
        // A HotSpot-style reservation: committed and touched up to a
        // word edge, then two pages into the next word.
        for (committed, words) in [(128, [2, 2, 0, 2]), (130, [3, 3, 0, 3])] {
            let (mut s, mut f) = space_and_files();
            let a = s
                .mmap(50_000 * PAGE_SIZE, MappingKind::Anonymous, Prot::None, "[heap:java]")
                .unwrap();
            assert_eq!(s.mapping_at(a).unwrap().stored_words(), [0; 4]);
            let len = committed * PAGE_SIZE;
            s.mprotect(&mut f, a, len, Prot::ReadWrite).unwrap();
            s.touch(&mut f, a, len, true).unwrap();
            assert_eq!(s.mapping_at(a).unwrap().stored_words(), words, "{committed} pages");
            // Uncommitting it again leaves the reservation it was.
            s.mprotect(&mut f, a, len, Prot::None).unwrap();
            assert_eq!(s.mapping_at(a).unwrap().stored_words(), [0; 4]);
        }
    }

    #[test]
    fn restore_rejects_flag_states_no_operation_reaches() {
        let at = VirtAddr(0x1000_0000);
        let decode = |m: &Mapping| snapshot::decode::<Mapping>(&snapshot::encode(m));
        // PROT_NONE pages that are resident, dirty or swapped: one in a
        // stored word, then all of them as an implied tail.
        for (first, last) in [(3, 4), (0, 130)] {
            for flag in [Flag::Resident, Flag::Dirty, Flag::Swapped] {
                let mut m = Mapping::new(at, 130, MappingKind::Anonymous, Prot::None, "bad");
                assert!(decode(&m).is_ok());
                m.set_flag_range(flag, first, last);
                assert_eq!(
                    decode(&m).err(),
                    Some(snapshot::SnapError::Corrupt(
                        "Mapping has a PROT_NONE page that is resident, dirty or swapped"
                    )),
                    "{flag:?} over [{first}, {last})"
                );
            }
        }
        // A page both resident and swapped.
        let mut m = Mapping::new(at, 130, MappingKind::Anonymous, Prot::ReadWrite, "bad");
        m.set_flag_range(Flag::Resident, 0, 130);
        m.set_flag_range(Flag::Swapped, 64, 65);
        assert_eq!(
            decode(&m).err(),
            Some(snapshot::SnapError::Corrupt("Mapping has a page both resident and swapped"))
        );
        // Dirty but not resident is reachable (a dirty page swapped out).
        let mut m = Mapping::new(at, 130, MappingKind::Anonymous, Prot::ReadWrite, "ok");
        m.set_flag_range(Flag::Dirty, 0, 130);
        m.set_flag_range(Flag::Swapped, 0, 130);
        assert!(decode(&m).is_ok());
    }

    #[test]
    fn mapping_kind_wire_tags_are_pinned() {
        assert_eq!(snapshot::encode(&MappingKind::Anonymous), [0]);
        assert_eq!(snapshot::decode(&[0]), Ok(MappingKind::Anonymous));
        let file = MappingKind::PrivateFile(FileId(0x0A0B_0C0D));
        assert_eq!(snapshot::encode(&file), [1, 0x0D, 0x0C, 0x0B, 0x0A]);
        assert_eq!(snapshot::decode(&[1, 0x0D, 0x0C, 0x0B, 0x0A]), Ok(file));
    }
}

/// Checkpoint codec impls, kept in this module so exhaustive
/// destructuring sees every private field (a new field is a compile
/// error here, not a silently un-snapshotted one).
mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    snapshot::record!(VirtAddr(u64));

    snapshot::record!(enum MappingKind { 0 => Anonymous, 1 => PrivateFile(file: FileId) });

    impl Snapshot for Mapping {
        fn snap(&self, w: &mut Writer) {
            // `epoch_dirty` is checkpoint *tracking*, not memory state:
            // two runs at the same memory state must encode
            // byte-identically even if their checkpoint cadences
            // differed, so it stays out of the canonical bytes and a
            // restore starts it clean.
            let Self {
                start,
                kind,
                name,
                resident,
                dirty,
                swapped,
                noaccess,
                resident_pages,
                dirty_pages,
                swapped_pages,
                epoch_dirty: _,
            } = self;
            start.snap(w);
            kind.snap(w);
            w.str(name);
            resident.snap(w);
            dirty.snap(w);
            swapped.snap(w);
            noaccess.snap(w);
            w.u64(*resident_pages);
            w.u64(*dirty_pages);
            w.u64(*swapped_pages);
        }

        fn restore(r: &mut Reader<'_>) -> Result<Mapping, SnapError> {
            let start = VirtAddr::restore(r)?;
            let kind = MappingKind::restore(r)?;
            let name = r.str()?;
            let resident = PageBits::restore(r)?;
            let dirty = PageBits::restore(r)?;
            let swapped = PageBits::restore(r)?;
            let noaccess = PageBits::restore(r)?;
            let resident_pages = r.u64()?;
            let dirty_pages = r.u64()?;
            let swapped_pages = r.u64()?;
            if !start.is_page_aligned() {
                return Err(SnapError::Corrupt("Mapping start is not page-aligned"));
            }
            let npages = resident.npages();
            if dirty.npages() != npages
                || swapped.npages() != npages
                || noaccess.npages() != npages
            {
                return Err(SnapError::Corrupt("Mapping bitmaps cover differing page counts"));
            }
            if resident_pages != resident.count()
                || dirty_pages != dirty.count()
                || swapped_pages != swapped.count()
            {
                return Err(SnapError::Corrupt("Mapping counters disagree with bitmaps"));
            }
            // States no operation reaches: `PROT_NONE` releases a range
            // before protecting it, and a page is resident or swapped,
            // never both.
            let maps = [&noaccess, &resident, &dirty, &swapped];
            if count_pages(zip_words(maps, 0, npages, |[na, r, d, s]| na & (r | d | s))) != 0 {
                return Err(SnapError::Corrupt(
                    "Mapping has a PROT_NONE page that is resident, dirty or swapped",
                ));
            }
            if count_pages(zip_words([&resident, &swapped], 0, npages, |[r, s]| r & s)) != 0 {
                return Err(SnapError::Corrupt("Mapping has a page both resident and swapped"));
            }
            Ok(Mapping {
                start,
                kind,
                name,
                resident,
                dirty,
                swapped,
                noaccess,
                resident_pages,
                dirty_pages,
                swapped_pages,
                epoch_dirty: false,
            })
        }
    }

    impl Snapshot for AddressSpace {
        fn snap(&self, w: &mut Writer) {
            // Tracking fields excluded — see the Mapping impl.
            let Self {
                mappings,
                next_addr,
                limit,
                structure_dirty: _,
                removed_since_epoch: _,
            } = self;
            mappings.snap(w);
            w.u64(*next_addr);
            w.u64(*limit);
        }

        fn restore(r: &mut Reader<'_>) -> Result<AddressSpace, SnapError> {
            let mappings = BTreeMap::<u64, Mapping>::restore(r)?;
            let next_addr = r.u64()?;
            let limit = r.u64()?;
            for (addr, m) in &mappings {
                if *addr != m.start.0 {
                    return Err(SnapError::Corrupt("AddressSpace key disagrees with mapping start"));
                }
            }
            Ok(AddressSpace {
                mappings,
                next_addr,
                limit,
                structure_dirty: false,
                removed_since_epoch: BTreeSet::new(),
            })
        }
    }

    /// The delta codec: what an incremental checkpoint carries for one
    /// address space, against the state at the last epoch.
    impl AddressSpace {
        /// Serializes this space's changes since the last checkpoint
        /// epoch: the scalars, the starts of mappings unmapped since,
        /// and every epoch-dirty mapping in full (the mapping is both
        /// the dirtiness and the delta granule). The counterpart of
        /// [`AddressSpace::restore_delta`].
        pub fn snap_delta(&self, w: &mut Writer) {
            w.u64(self.next_addr);
            w.u64(self.limit);
            w.usize(self.removed_since_epoch.len());
            for a in &self.removed_since_epoch {
                w.u64(*a);
            }
            w.usize(self.epoch_dirty_mappings().count());
            for (start, m) in self.epoch_dirty_mappings() {
                w.u64(*start);
                m.snap(w);
            }
        }

        /// Folds a [`AddressSpace::snap_delta`] payload into this space
        /// in place (an empty space, for a process spawned since the
        /// parent epoch): removals apply first, then upserts — a
        /// mapping unmapped and re-mapped at the same address within
        /// one epoch ends up at its new contents. The result equals the
        /// space a full checkpoint of the same state decodes to;
        /// removing a start the base never had is a tolerated no-op for
        /// exactly that reason. On error the space is partly folded and
        /// must be discarded.
        pub fn restore_delta(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
            self.next_addr = r.u64()?;
            self.limit = r.u64()?;
            let removed = r.seq_len()?;
            for _ in 0..removed {
                let start = r.u64()?;
                self.mappings.remove(&start);
            }
            let upserts = r.seq_len()?;
            for _ in 0..upserts {
                let start = r.u64()?;
                let m = Mapping::restore(r)?;
                if m.start.0 != start {
                    return Err(SnapError::Corrupt("delta mapping key disagrees with start"));
                }
                self.mappings.insert(start, m);
            }
            self.structure_dirty = false;
            self.removed_since_epoch.clear();
            Ok(())
        }
    }
}
