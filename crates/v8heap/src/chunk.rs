//! 256 KiB memory chunks, the unit of every V8 space.
//!
//! Each chunk's first 4 KiB page holds self-describing metadata and can
//! never be released while the chunk exists; releasing the rest of a
//! chunk still returns 98.4 % of it (§4.4). Old-space chunks carry a
//! free list of byte runs rebuilt by each sweep.

use simos::cast;
use simos::{VirtAddr, PAGE_SIZE};

/// Size of a V8 memory chunk.
pub const CHUNK_SIZE: u64 = 256 << 10;

/// Size of the unreleasable metadata header at the start of a chunk.
pub const CHUNK_HEADER: u64 = PAGE_SIZE;

/// Identifies a chunk in the heap's chunk arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// The chunk-arena index this id names.
    pub fn index(self) -> usize {
        cast::to_usize(self.0)
    }
}

/// Which space a chunk belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkSpace {
    /// A young-generation semispace chunk.
    Young,
    /// An old-space chunk.
    Old,
    /// A large-object chunk (holds exactly one object; may be larger
    /// than [`CHUNK_SIZE`]).
    Large,
}

/// One mapped chunk.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Mapping base address (the header page).
    pub addr: VirtAddr,
    /// Total mapped size (always [`CHUNK_SIZE`] except for large-object
    /// chunks).
    pub size: u64,
    /// Owning space.
    pub space: ChunkSpace,
    /// Free byte runs `(offset, len)` within the payload, sorted by
    /// offset. Offsets are relative to the chunk base and never overlap
    /// the header.
    pub free_runs: Vec<(u32, u32)>,
}

impl Chunk {
    /// Creates a chunk whose whole payload is one free run.
    pub fn new(addr: VirtAddr, size: u64, space: ChunkSpace) -> Chunk {
        Chunk {
            addr,
            size,
            space,
            free_runs: vec![(cast::to_u32(CHUNK_HEADER), cast::to_u32(size - CHUNK_HEADER))],
        }
    }

    /// Payload capacity in bytes.
    pub fn payload(&self) -> u64 {
        self.size - CHUNK_HEADER
    }

    /// Total free bytes in the chunk.
    pub fn free_bytes(&self) -> u64 {
        self.free_runs.iter().map(|(_, l)| u64::from(*l)).sum()
    }

    /// True if nothing is allocated in the chunk.
    pub fn is_fully_free(&self) -> bool {
        self.free_bytes() == self.payload()
    }

    /// First-fit allocation of `len` bytes; returns the absolute
    /// address, or `None` if no run is large enough.
    pub fn alloc(&mut self, len: u32) -> Option<VirtAddr> {
        let (i, fit) = self
            .free_runs
            .iter_mut()
            .enumerate()
            .find(|(_, (_, run))| *run >= len)?;
        let (off, run) = *fit;
        if run == len {
            self.free_runs.remove(i);
        } else {
            *fit = (off + len, run - len);
        }
        Some(self.addr.offset(u64::from(off)))
    }

    /// Rebuilds the free list from the sorted live ranges
    /// `(offset, len)` inside this chunk (what a sweep does).
    pub fn rebuild_free_runs(&mut self, mut live: Vec<(u32, u32)>) {
        live.sort_unstable();
        let mut runs = Vec::new();
        let mut cursor = cast::to_u32(CHUNK_HEADER);
        for (off, len) in live {
            debug_assert!(off >= cursor, "overlapping live ranges");
            if off > cursor {
                runs.push((cursor, off - cursor));
            }
            cursor = off + len;
        }
        let end = cast::to_u32(self.size);
        if end > cursor {
            runs.push((cursor, end - cursor));
        }
        self.free_runs = runs;
    }

    /// The page-aligned sub-ranges of the payload that contain no live
    /// data — the pages Desiccant may release. Pages straddling a live
    /// object are kept (this is the fragmentation the paper's ideal
    /// baseline doesn't pay).
    pub fn releasable_pages(&self) -> Vec<(VirtAddr, u64)> {
        let mut out = Vec::new();
        for &(off, len) in &self.free_runs {
            let start = (self.addr.0 + u64::from(off)).div_ceil(PAGE_SIZE) * PAGE_SIZE;
            let end = (self.addr.0 + u64::from(off) + u64::from(len)) / PAGE_SIZE * PAGE_SIZE;
            if end > start {
                out.push((VirtAddr(start), end - start));
            }
        }
        out
    }
}

mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    snapshot::record!(ChunkId(u32));

    impl Snapshot for ChunkSpace {
        fn snap(&self, w: &mut Writer) {
            let tag: u8 = match self {
                ChunkSpace::Young => 0,
                ChunkSpace::Old => 1,
                ChunkSpace::Large => 2,
            };
            tag.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<ChunkSpace, SnapError> {
            match u8::restore(r)? {
                0 => Ok(ChunkSpace::Young),
                1 => Ok(ChunkSpace::Old),
                2 => Ok(ChunkSpace::Large),
                _ => Err(SnapError::Corrupt("unknown ChunkSpace tag")),
            }
        }
    }

    impl Snapshot for Chunk {
        fn snap(&self, w: &mut Writer) {
            let Self {
                addr,
                size,
                space,
                free_runs,
            } = self;
            addr.snap(w);
            size.snap(w);
            space.snap(w);
            free_runs.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<Chunk, SnapError> {
            let addr = VirtAddr::restore(r)?;
            let size = u64::restore(r)?;
            let space = ChunkSpace::restore(r)?;
            let free_runs: Vec<(u32, u32)> = Vec::restore(r)?;
            let mut prev_end = 0u32;
            for &(off, len) in &free_runs {
                if u64::from(off) < CHUNK_HEADER || off < prev_end {
                    return Err(SnapError::Corrupt("Chunk free runs out of order"));
                }
                let end = off
                    .checked_add(len)
                    .ok_or(SnapError::Corrupt("Chunk free run overflows"))?;
                if u64::from(end) > size {
                    return Err(SnapError::Corrupt("Chunk free run past end"));
                }
                prev_end = end;
            }
            Ok(Chunk {
                addr,
                size,
                space,
                free_runs,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Usable payload bytes per chunk.
    const CHUNK_PAYLOAD: u64 = CHUNK_SIZE - CHUNK_HEADER;

    fn chunk() -> Chunk {
        Chunk::new(VirtAddr(0x4000_0000), CHUNK_SIZE, ChunkSpace::Old)
    }

    #[test]
    fn fresh_chunk_is_fully_free() {
        let c = chunk();
        assert!(c.is_fully_free());
        assert_eq!(c.free_bytes(), CHUNK_PAYLOAD);
    }

    #[test]
    fn alloc_consumes_runs_first_fit() {
        let mut c = chunk();
        let a = c.alloc(1000).unwrap();
        assert_eq!(a.0, c.addr.0 + CHUNK_HEADER);
        let b = c.alloc(1000).unwrap();
        assert_eq!(b.0, a.0 + 1000);
        assert_eq!(c.free_bytes(), CHUNK_PAYLOAD - 2000);
    }

    #[test]
    fn alloc_fails_when_fragmented() {
        let mut c = chunk();
        // Leave two runs smaller than the request.
        c.free_runs = vec![(4096, 100), (8192, 100)];
        assert!(c.alloc(200).is_none());
        assert!(c.alloc(100).is_some());
    }

    #[test]
    fn rebuild_from_live_ranges() {
        let mut c = chunk();
        c.rebuild_free_runs(vec![(8192, 4096), (4096, 100)]);
        // Free: [4196, 8192) and [12288, CHUNK_SIZE).
        assert_eq!(c.free_runs.len(), 2);
        assert_eq!(c.free_runs[0], (4196, 8192 - 4196));
        assert_eq!(c.free_runs[1], (12288, (CHUNK_SIZE - 12288) as u32));
    }

    #[test]
    fn rebuild_with_no_live_frees_payload() {
        let mut c = chunk();
        c.alloc(1234).unwrap();
        c.rebuild_free_runs(Vec::new());
        assert!(c.is_fully_free());
    }

    #[test]
    fn releasable_pages_exclude_header_and_straddles() {
        let mut c = chunk();
        // One live object at offset 6000..6100: page 1 (4096..8192)
        // straddles it and is not releasable.
        c.rebuild_free_runs(vec![(6000, 100)]);
        let pages = c.releasable_pages();
        let total: u64 = pages.iter().map(|(_, l)| *l).sum();
        // All pages except the header page and the straddled page.
        assert_eq!(total, CHUNK_SIZE - 2 * PAGE_SIZE);
        for (addr, _) in &pages {
            assert!(addr.0 >= c.addr.0 + CHUNK_HEADER);
        }
    }

    #[test]
    fn fully_free_chunk_releases_everything_but_header() {
        let c = chunk();
        let total: u64 = c.releasable_pages().iter().map(|(_, l)| *l).sum();
        assert_eq!(total, CHUNK_SIZE - CHUNK_HEADER);
        // 98.4 % of the chunk, as the paper notes.
        assert!((total as f64 / CHUNK_SIZE as f64) > 0.98);
    }
}
