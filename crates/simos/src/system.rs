//! The machine: all processes plus the shared file page cache.
//!
//! [`System`] is the single owner of every [`AddressSpace`] and of the
//! [`FileRegistry`]. All memory operations go through it so that
//! cross-process sharing (the page cache backing `MAP_PRIVATE` library
//! mappings) stays consistent — that sharing is what distinguishes USS
//! from PSS in the paper's measurements (§3.1, Figure 8).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{SimOsError, SimOsResult};
use crate::mem::pagebits::{for_each_bit, PageBits};
use crate::mem::{
    page_align_up, AddressSpace, Mapping, MappingKind, Prot, TouchOutcome, VirtAddr, PAGE_SIZE,
};

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// A file identifier in the [`FileRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// One registered file (a shared library or runtime image).
#[derive(Debug, Clone)]
struct FileInfo {
    name: String,
    /// Per-page count of processes holding the page through the page
    /// cache (clean `MAP_PRIVATE` mappings).
    mapper_counts: Vec<u32>,
    /// Derived from `mapper_counts`: a page's bit is set exactly when
    /// its count is one, i.e. when the page is private to its single
    /// mapper. USS counts private clean pages as popcounts against it.
    /// Never encoded; restore rebuilds it from the counts.
    solo: PageBits,
}

impl FileInfo {
    fn new(name: String, mapper_counts: Vec<u32>) -> FileInfo {
        let words = mapper_counts.chunks(64).map(solo_word).collect();
        let solo = PageBits::from_words(words, mapper_counts.len());
        FileInfo {
            name,
            mapper_counts,
            solo,
        }
    }

    /// Size in bytes.
    fn size(&self) -> u64 {
        self.mapper_counts.len() as u64 * PAGE_SIZE
    }

    /// Applies `step` to the mapper count of every page selected by
    /// `bits` in word `w`, and re-derives those pages' solo bits.
    fn step_mappers(&mut self, w: usize, bits: u64, step: impl Fn(u32) -> u32) {
        if bits == 0 {
            return;
        }
        let first = w * 64;
        let last = (first + 64).min(self.mapper_counts.len());
        debug_assert!(first < last, "mapper word {w} past the end of `{}`", self.name);
        let Some(counts) = self.mapper_counts.get_mut(first..last) else {
            return;
        };
        let solo = if let (u64::MAX, Ok(word)) = (bits, <&mut [u32; 64]>::try_from(&mut *counts)) {
            // A whole word (a library faulted in or dropped in full):
            // fixed-length passes over 64 adjacent counts, then their
            // solo bits a byte at a time. Deriving the bits one shift
            // per page in the same pass measured slower than the
            // per-page refcounts this replaced.
            word.iter_mut().for_each(|c| *c = step(*c));
            solo_word(word)
        } else {
            let mut solo = 0;
            for_each_bit(0, bits, |i| {
                if let Some(c) = counts.get_mut(i) {
                    *c = step(*c);
                    solo |= u64::from(*c == 1) << i;
                }
            });
            solo
        };
        self.solo.clear_word_bits(w, bits & !solo);
        self.solo.set_word_bits(w, solo);
    }
}

/// The solo bits of up to 64 adjacent mapper counts.
fn solo_word(counts: &[u32]) -> u64 {
    counts.chunks(8).enumerate().fold(0, |word, (i, eight)| {
        let byte = eight
            .iter()
            .enumerate()
            .fold(0u8, |byte, (j, &c)| byte | u8::from(c == 1) << j);
        word | u64::from(byte) << (8 * i)
    })
}

/// The global file registry and page cache.
///
/// Tracks, for every page of every registered file, how many processes
/// currently map it clean. A count of one means the page is *private*
/// to its process in `smaps` terms (and thus part of its USS); two or
/// more means it is *shared*. Counts move a 64-page word at a time,
/// mirroring the mapping bitmaps they are driven from.
#[derive(Debug, Clone, Default)]
pub struct FileRegistry {
    files: Vec<FileInfo>,
}

impl FileRegistry {
    /// Creates an empty registry.
    pub fn new() -> FileRegistry {
        FileRegistry::default()
    }

    /// Registers a file of `size` bytes (rounded up to pages) and
    /// returns its id.
    pub fn register(&mut self, name: &str, size: u64) -> FileId {
        let npages = size.div_ceil(PAGE_SIZE) as usize;
        self.files
            .push(FileInfo::new(name.to_string(), vec![0; npages]));
        FileId(self.files.len() as u32 - 1)
    }

    /// `file`'s entry, or [`SimOsError::NoSuchFile`].
    fn lookup(&self, file: FileId) -> SimOsResult<&FileInfo> {
        self.files
            .get(file.0 as usize)
            .ok_or(SimOsError::NoSuchFile(u64::from(file.0)))
    }

    fn info(&self, file: FileId) -> &FileInfo {
        &self.files[file.0 as usize] // tidy:allow(panic-reachability) -- file ids are checked against the registry when a mapping is created (`System::mmap_named`) or restored (`System::from_parts`)
    }

    fn info_mut(&mut self, file: FileId) -> &mut FileInfo {
        &mut self.files[file.0 as usize] // tidy:allow(panic-reachability) -- file ids are checked against the registry when a mapping is created (`System::mmap_named`) or restored (`System::from_parts`)
    }

    /// The registered name of `file`.
    ///
    /// # Panics
    ///
    /// Panics if `file` was not produced by this registry.
    pub fn name(&self, file: FileId) -> &str {
        &self.info(file).name
    }

    /// Size of `file` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `file` was not produced by this registry.
    pub fn size(&self, file: FileId) -> u64 {
        self.info(file).size()
    }

    /// How many processes map page `page` of `file` clean (zero past
    /// the end of the file).
    pub fn mapper_count(&self, file: FileId, page: usize) -> u32 {
        self.info(file).mapper_counts.get(page).copied().unwrap_or(0)
    }

    /// The pages of `file` that exactly one process maps clean.
    pub fn solo(&self, file: FileId) -> &PageBits {
        &self.info(file).solo
    }

    /// Checks that a mapping of `len` bytes and `kind` may be created:
    /// a file mapping must name a registered file and fit inside it.
    pub(crate) fn check_mapping(&self, kind: MappingKind, len: u64) -> SimOsResult<()> {
        let MappingKind::PrivateFile(file) = kind else {
            return Ok(());
        };
        let size = self.lookup(file)?.size();
        let len = page_align_up(len.max(1));
        if len > size {
            return Err(SimOsError::PastEndOfFile {
                file: u64::from(file.0),
                len,
                size,
            });
        }
        Ok(())
    }

    /// Records one more clean mapper of every page of `file` selected
    /// by `bits` in word `w`.
    pub(crate) fn inc_mappers(&mut self, file: FileId, w: usize, bits: u64) {
        self.info_mut(file).step_mappers(w, bits, |c| c + 1);
    }

    /// Records one fewer clean mapper of every page of `file` selected
    /// by `bits` in word `w`.
    pub(crate) fn dec_mappers(&mut self, file: FileId, w: usize, bits: u64) {
        self.info_mut(file).step_mappers(w, bits, |c| {
            debug_assert!(c > 0, "mapper count underflow");
            c.saturating_sub(1)
        });
    }

    /// Checks the page cache against the processes that hold it: every
    /// file mapping names a registered file and fits inside it, and
    /// every page's mapper count equals the number of mappings holding
    /// that page clean and resident. Counts are summed a run of clean
    /// resident pages at a time, so a mapping's uniform tail costs one
    /// pass over its slice of counts.
    fn check_coherent(&self, spaces: &BTreeMap<Pid, AddressSpace>) -> Result<(), &'static str> {
        let mut held: Vec<Vec<u32>> = self
            .files
            .iter()
            .map(|f| vec![0; f.mapper_counts.len()])
            .collect();
        for m in spaces.values().flat_map(AddressSpace::mappings) {
            if let MappingKind::PrivateFile(file) = m.kind {
                let counts = match held.get_mut(file.0 as usize) {
                    Some(counts) if self.check_mapping(m.kind, m.len()).is_ok() => counts,
                    _ => return Err("file mapping names an unknown file or runs past its end"),
                };
                m.for_each_clean_resident_run(|run| {
                    if let Some(run) = counts.get_mut(run) {
                        run.iter_mut().for_each(|c| *c += 1);
                    }
                });
            }
        }
        if held
            .iter()
            .zip(&self.files)
            .any(|(held, have)| *held != have.mapper_counts)
        {
            return Err("file page mapper count disagrees with its clean resident mappers");
        }
        Ok(())
    }
}

/// The whole simulated machine.
#[derive(Debug, Clone, Default)]
pub struct System {
    files: FileRegistry,
    spaces: BTreeMap<Pid, AddressSpace>,
    next_pid: u32,
    /// Pids killed since the last checkpoint epoch, so a delta can
    /// erase them before upserting dirty spaces. Tracking state: never
    /// part of the canonical snapshot encoding.
    removed_pids: BTreeSet<Pid>,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> System {
        System::default()
    }

    /// Creates a new process with an empty address space.
    pub fn spawn_process(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.spaces.insert(pid, AddressSpace::new());
        pid
    }

    /// Destroys a process, dropping all its mappings (and page-cache
    /// references).
    pub fn kill_process(&mut self, pid: Pid) -> SimOsResult<()> {
        let space = self
            .spaces
            .remove(&pid)
            .ok_or(SimOsError::NoSuchProcess(pid))?;
        self.removed_pids.insert(pid);
        // Release the clean file pages from the cache a word at a time,
        // straight off the packed bitmaps.
        for m in space.mappings() {
            m.drop_cache_refs(&mut self.files, 0, m.page_count());
        }
        Ok(())
    }

    /// Registers a file (shared library / runtime image).
    pub fn register_file(&mut self, name: &str, size: u64) -> FileId {
        self.files.register(name, size)
    }

    /// Immutable access to the file registry.
    pub fn files(&self) -> &FileRegistry {
        &self.files
    }

    /// Immutable access to a process's address space.
    pub fn space(&self, pid: Pid) -> SimOsResult<&AddressSpace> {
        self.spaces.get(&pid).ok_or(SimOsError::NoSuchProcess(pid))
    }

    fn space_and_files(
        &mut self,
        pid: Pid,
    ) -> SimOsResult<(&mut AddressSpace, &mut FileRegistry)> {
        let space = self
            .spaces
            .get_mut(&pid)
            .ok_or(SimOsError::NoSuchProcess(pid))?;
        Ok((space, &mut self.files))
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.spaces.len()
    }

    /// All live pids, in creation order (pids are never reused).
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.spaces.keys().copied()
    }

    /// Every live process's address space, in pid order.
    pub fn spaces(&self) -> impl Iterator<Item = (Pid, &AddressSpace)> {
        self.spaces.iter().map(|(pid, s)| (*pid, s))
    }

    /// `mmap` in process `pid`.
    pub fn mmap(
        &mut self,
        pid: Pid,
        len: u64,
        kind: MappingKind,
        prot: Prot,
    ) -> SimOsResult<VirtAddr> {
        self.mmap_named(pid, len, kind, prot, "[anon]")
    }

    /// `mmap` with an explicit `smaps` name. A file mapping must name a
    /// registered file ([`SimOsError::NoSuchFile`]) and fit inside it
    /// ([`SimOsError::PastEndOfFile`]).
    pub fn mmap_named(
        &mut self,
        pid: Pid,
        len: u64,
        kind: MappingKind,
        prot: Prot,
        name: &str,
    ) -> SimOsResult<VirtAddr> {
        let (space, files) = self.space_and_files(pid)?;
        files.check_mapping(kind, len)?;
        space.mmap(len, kind, prot, name)
    }

    /// Maps a registered file into `pid` (at its full size) and faults
    /// in all of it read-only, as the dynamic loader effectively does
    /// for a hot library.
    pub fn map_library(&mut self, pid: Pid, file: FileId) -> SimOsResult<VirtAddr> {
        let info = self.files.lookup(file)?;
        let (size, name) = (info.size(), info.name.clone());
        let addr = self.mmap_named(pid, size, MappingKind::PrivateFile(file), Prot::Read, &name)?;
        self.touch(pid, addr, size, false)?;
        Ok(addr)
    }

    /// `munmap` of the whole mapping starting at `addr`.
    pub fn munmap(&mut self, pid: Pid, addr: VirtAddr) -> SimOsResult<Mapping> {
        let (space, files) = self.space_and_files(pid)?;
        space.munmap(files, addr)
    }

    /// `mprotect` of a range; `Prot::None` uncommits (frees pages).
    pub fn mprotect(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> SimOsResult<u64> {
        let (space, files) = self.space_and_files(pid)?;
        space.mprotect(files, addr, len, prot)
    }

    /// Touches a range, faulting pages in.
    pub fn touch(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: u64,
        write: bool,
    ) -> SimOsResult<TouchOutcome> {
        let (space, files) = self.space_and_files(pid)?;
        space.touch(files, addr, len, write)
    }

    /// Releases the physical pages of a range (`madvise(DONTNEED)`).
    pub fn release(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        let (space, files) = self.space_and_files(pid)?;
        space.release(files, addr, len)
    }

    /// Swaps out the resident pages of a range.
    pub fn swap_out(&mut self, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        let (space, files) = self.space_and_files(pid)?;
        space.swap_out(files, addr, len)
    }

    /// Resident bytes of the whole process (RSS numerator).
    pub fn resident_bytes(&self, pid: Pid) -> SimOsResult<u64> {
        Ok(self.space(pid)?.resident_bytes())
    }

    /// Resident bytes in `[addr, addr + len)` of `pid` — the `pmap`
    /// probe Desiccant uses to size HotSpot heaps (§4.5.2).
    pub fn pmap(&self, pid: Pid, addr: VirtAddr, len: u64) -> SimOsResult<u64> {
        self.space(pid)?.resident_bytes_in(addr, len)
    }

    /// First pid [`System::spawn_process`] has not yet handed out.
    /// Exposed for the delta-checkpoint encoder's control section.
    pub fn next_pid(&self) -> u32 {
        self.next_pid
    }

    /// Address spaces with any change since the last checkpoint epoch,
    /// in pid order — the delta-checkpoint upsert set.
    pub fn epoch_dirty_spaces(&self) -> impl Iterator<Item = (Pid, &AddressSpace)> {
        self.spaces().filter(|(_, s)| s.is_epoch_dirty())
    }

    /// Pids killed since the last checkpoint epoch — the
    /// delta-checkpoint erase set.
    pub fn removed_pids(&self) -> &BTreeSet<Pid> {
        &self.removed_pids
    }

    /// Marks every space clean and forgets the removed-pid set: called
    /// when a checkpoint (full or delta) captures the system.
    pub fn clear_epoch_dirty(&mut self) {
        self.removed_pids.clear();
        for space in self.spaces.values_mut() {
            space.clear_epoch_dirty();
        }
    }

    /// RSS of `pid` in bytes. See [`crate::metrics`] for definitions.
    pub fn rss(&self, pid: Pid) -> u64 {
        crate::metrics::rss(self, pid)
    }

    /// USS of `pid` in bytes.
    pub fn uss(&self, pid: Pid) -> u64 {
        crate::metrics::uss(self, pid)
    }

    /// PSS of `pid` in bytes.
    pub fn pss(&self, pid: Pid) -> f64 {
        crate::metrics::pss(self, pid)
    }
}

/// Checkpoint codec impls, kept here so exhaustive destructuring sees
/// every private field.
mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    snapshot::record!(Pid(u32));
    snapshot::record!(FileId(u32));

    impl Snapshot for FileInfo {
        fn snap(&self, w: &mut Writer) {
            // `solo` is derived from `mapper_counts`; restore rebuilds
            // it, so it stays out of the canonical bytes.
            let Self {
                name,
                mapper_counts,
                solo: _,
            } = self;
            w.str(name);
            mapper_counts.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FileInfo, SnapError> {
            let name = r.str()?;
            let mapper_counts = Vec::<u32>::restore(r)?;
            Ok(FileInfo::new(name, mapper_counts))
        }
    }

    snapshot::record!(FileRegistry { files: Vec<FileInfo> });

    impl Snapshot for System {
        fn snap(&self, w: &mut Writer) {
            // `removed_pids` is checkpoint tracking, excluded from the
            // canonical bytes (see the Mapping impl in `mem`).
            let Self {
                files,
                spaces,
                next_pid,
                removed_pids: _,
            } = self;
            files.snap(w);
            spaces.snap(w);
            w.u32(*next_pid);
        }

        fn restore(r: &mut Reader<'_>) -> Result<System, SnapError> {
            let files = FileRegistry::restore(r)?;
            let spaces = BTreeMap::<Pid, AddressSpace>::restore(r)?;
            let next_pid = r.u32()?;
            System::from_parts(files, spaces, next_pid)
        }
    }

    impl System {
        /// Assembles a system from decoded parts — a full snapshot's,
        /// or a checkpoint chain's folded address spaces — after
        /// checking that every pid is below `next_pid` and that the page
        /// cache's mapper counts match the spaces that hold its pages.
        pub fn from_parts(
            files: FileRegistry,
            spaces: BTreeMap<Pid, AddressSpace>,
            next_pid: u32,
        ) -> Result<System, SnapError> {
            if spaces.keys().any(|pid| pid.0 >= next_pid) {
                return Err(SnapError::Corrupt("System pid at or past next_pid"));
            }
            files.check_coherent(&spaces).map_err(SnapError::Corrupt)?;
            Ok(System {
                files,
                spaces,
                next_pid,
                removed_pids: BTreeSet::new(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_kill_round_trip() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        assert_eq!(sys.process_count(), 1);
        sys.kill_process(pid).unwrap();
        assert_eq!(sys.process_count(), 0);
        assert!(matches!(
            sys.kill_process(pid),
            Err(SimOsError::NoSuchProcess(_))
        ));
    }

    #[test]
    fn kill_releases_page_cache_refs() {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 4 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        sys.map_library(p2, lib).unwrap();
        assert_eq!(sys.files().mapper_count(lib, 0), 2);
        sys.kill_process(p1).unwrap();
        assert_eq!(sys.files().mapper_count(lib, 0), 1);
    }

    #[test]
    fn pmap_reports_range_residency() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let a = sys
            .mmap(pid, 16 * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .unwrap();
        sys.touch(pid, a, 4 * PAGE_SIZE, true).unwrap();
        assert_eq!(sys.pmap(pid, a, 16 * PAGE_SIZE).unwrap(), 4 * PAGE_SIZE);
    }

    #[test]
    fn file_mapping_of_unknown_file_is_rejected() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        let ghost = MappingKind::PrivateFile(FileId(7));
        let err = sys
            .mmap_named(pid, PAGE_SIZE, ghost, Prot::Read, "ghost.so")
            .unwrap_err();
        assert_eq!(err, SimOsError::NoSuchFile(7));
        assert!(matches!(
            sys.map_library(pid, FileId(7)),
            Err(SimOsError::NoSuchFile(7))
        ));
        assert_eq!(sys.space(pid).unwrap().mappings().count(), 0);
    }

    #[test]
    fn file_mapping_past_end_of_file_is_rejected() {
        let mut sys = System::new();
        let lib = sys.register_file("libc.so", 4 * PAGE_SIZE);
        let pid = sys.spawn_process();
        let kind = MappingKind::PrivateFile(lib);
        let err = sys
            .mmap_named(pid, 4 * PAGE_SIZE + 1, kind, Prot::Read, "libc.so")
            .unwrap_err();
        assert_eq!(
            err,
            SimOsError::PastEndOfFile {
                file: 0,
                len: 5 * PAGE_SIZE,
                size: 4 * PAGE_SIZE
            }
        );
        assert_eq!(sys.space(pid).unwrap().mappings().count(), 0);
        // A prefix of the file maps and faults in normally.
        let a = sys
            .mmap_named(pid, 2 * PAGE_SIZE, kind, Prot::Read, "libc.so")
            .unwrap();
        sys.touch(pid, a, 2 * PAGE_SIZE, false).unwrap();
        assert_eq!(sys.files().mapper_count(lib, 1), 1);
        assert_eq!(sys.files().mapper_count(lib, 2), 0);
    }

    #[test]
    fn solo_bits_follow_mapper_counts() {
        let mut sys = System::new();
        // 130 pages: two full words and a partial one.
        let lib = sys.register_file("node", 130 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        let a1 = sys.map_library(p1, lib).unwrap();
        assert_eq!(sys.files().solo(lib).count(), 130);
        let a2 = sys.map_library(p2, lib).unwrap();
        assert_eq!(sys.files().solo(lib).count(), 0);
        // p2 drops pages [60, 70): they become solo to p1.
        sys.release(p2, a2.offset(60 * PAGE_SIZE), 10 * PAGE_SIZE)
            .unwrap();
        assert_eq!(sys.files().solo(lib).count_range(60, 70), 10);
        assert_eq!(sys.files().solo(lib).count(), 10);
        // p1 writes page 65 (CoW): it leaves the cache entirely.
        sys.touch(p1, a1.offset(65 * PAGE_SIZE), PAGE_SIZE, true)
            .unwrap();
        assert_eq!(sys.files().mapper_count(lib, 65), 0);
        assert!(!sys.files().solo(lib).get(65));
        sys.kill_process(p1).unwrap();
        let solo = sys.files().solo(lib);
        assert_eq!(solo.count(), 120);
        assert!((60..70).all(|idx| !solo.get(idx)));
    }

    /// Encodes `sys` and decodes the bytes back.
    fn round_trip(sys: &System) -> Result<System, snapshot::SnapError> {
        use snapshot::Snapshot;
        let mut w = snapshot::Writer::new();
        sys.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = snapshot::Reader::new(&bytes);
        let restored = System::restore(&mut r)?;
        r.finish()?;
        Ok(restored)
    }

    fn shared_library_system() -> System {
        let mut sys = System::new();
        let lib = sys.register_file("libjvm.so", 70 * PAGE_SIZE);
        for _ in 0..2 {
            let pid = sys.spawn_process();
            sys.map_library(pid, lib).unwrap();
        }
        sys
    }

    #[test]
    fn mapper_counts_encode_as_the_per_page_loop() {
        // Files on both sides of each word edge, then a large one.
        for pages in [0, 1, 7, 8, 9, 63, 64, 65, 9000] {
            let mut sys = System::new();
            let lib = sys.register_file("lib.so", pages * PAGE_SIZE);
            for _ in 0..3 {
                let pid = sys.spawn_process();
                if pages > 0 {
                    sys.map_library(pid, lib).unwrap();
                }
            }
            let mut oracle = snapshot::Writer::new();
            oracle.usize(1);
            oracle.str("lib.so");
            oracle.usize(pages as usize);
            for page in 0..pages as usize {
                oracle.u32(sys.files().mapper_count(lib, page));
            }
            let bytes = snapshot::encode(sys.files());
            assert!(bytes == oracle.into_bytes(), "{pages} pages");
            let back: FileRegistry = snapshot::decode(&bytes).unwrap();
            assert_eq!(back.files[0].mapper_counts, sys.files().files[0].mapper_counts);
            assert_eq!(back.solo(lib), sys.files().solo(lib));
        }
    }

    #[test]
    fn restore_rejects_incoherent_mapper_counts() {
        let sys = shared_library_system();
        let restored = round_trip(&sys).unwrap();
        assert_eq!(restored.files().solo(FileId(0)).count(), 0);
        // One count off by one is a validly encoded byte string whose
        // page cache disagrees with the processes holding it.
        let mut bad = sys.clone();
        bad.files.files[0].mapper_counts[3] += 1;
        assert!(matches!(
            round_trip(&bad),
            Err(snapshot::SnapError::Corrupt(msg)) if msg.contains("mapper count")
        ));
        let mut bad = sys.clone();
        bad.files.files[0].mapper_counts[69] -= 1;
        assert!(round_trip(&bad).is_err());
    }

    #[test]
    fn coherence_counts_stored_words_and_tail_runs() {
        // 200 pages: p1 holds all of it (a uniform tail), p2 a mixed
        // prefix (a released range and a CoW page) before its tail.
        let mut sys = System::new();
        let lib = sys.register_file("node", 200 * PAGE_SIZE);
        let p1 = sys.spawn_process();
        let p2 = sys.spawn_process();
        sys.map_library(p1, lib).unwrap();
        let a2 = sys.map_library(p2, lib).unwrap();
        sys.release(p2, a2.offset(10 * PAGE_SIZE), 10 * PAGE_SIZE).unwrap();
        sys.touch(p2, a2.offset(70 * PAGE_SIZE), PAGE_SIZE, true).unwrap();
        assert_eq!(sys.space(p2).unwrap().mapping_at(a2).unwrap().stored_words(), [1, 2, 0, 0]);
        assert!(round_trip(&sys).is_ok());
        for page in [15, 70, 199] {
            for delta in [1, u32::MAX] {
                let mut bad = sys.clone();
                let count = &mut bad.files.files[0].mapper_counts[page];
                *count = count.wrapping_add(delta);
                assert!(
                    matches!(
                        round_trip(&bad),
                        Err(snapshot::SnapError::Corrupt(msg)) if msg.contains("mapper count")
                    ),
                    "page {page} off by {delta}"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_invalid_file_mappings() {
        for (file, pages) in [(FileId(5), 1), (FileId(0), 71)] {
            let mut bad = shared_library_system();
            let pid = bad.spawn_process();
            let mut space = AddressSpace::new();
            space
                .mmap(pages * PAGE_SIZE, MappingKind::PrivateFile(file), Prot::Read, "bad")
                .unwrap();
            bad.spaces.insert(pid, space);
            assert!(matches!(
                round_trip(&bad),
                Err(snapshot::SnapError::Corrupt(msg)) if msg.contains("unknown file")
            ));
        }
    }

    #[test]
    fn operations_on_dead_process_fail() {
        let mut sys = System::new();
        let pid = sys.spawn_process();
        sys.kill_process(pid).unwrap();
        assert!(sys
            .mmap(pid, PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
            .is_err());
        assert!(sys.resident_bytes(pid).is_err());
    }
}
