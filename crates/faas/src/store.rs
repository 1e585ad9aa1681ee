//! A simulated durable checkpoint store with seeded storage faults.
//!
//! [`CheckpointStore`] models the object store a FaaS control plane
//! writes its checkpoint containers to. A [`crate::StorageFaultPlan`]
//! injects the classic durability failures *into the stored bytes* at
//! put time — torn write (a prefix of the container survives, cut at a
//! frame boundary, commit record lost), arbitrary truncation, a flipped
//! bit, and a stale commit record (an old commit spliced after new
//! frames). The store never hides a fault from itself: recovery works
//! purely from the stored bytes, exactly as a restarting host would.
//!
//! [`CheckpointStore::recover`] is the last-good lattice walk: newest
//! object first, it looks for a head whose container verifies and
//! whose parent chain resolves to a base among strictly older objects,
//! and returns that chain oldest-first. Every verification failure
//! just moves the walk back in time — corruption costs recency, never
//! a panic. The walk opens each object at most once per call.
//!
//! # Retention
//!
//! The store keeps only the chains recovery can return. Before it
//! stores a new object, [`CheckpointStore::put`] drops every object
//! older than base *B2*:
//!
//! - *B1* is the base of the newest *good* chain among the stored
//!   objects — a head that verifies, whose parent links resolve
//!   through verifying objects to a base, exactly as `recover`
//!   resolves them;
//! - *B2* is the base of the newest good chain whose head is older
//!   than B1, or B1 when there is none.
//!
//! The rule costs no CRC pass on a fault-free put: an object whose
//! stored bytes are exactly the container handed to `put` takes its
//! `(epoch, parent)` link from that container's commit record (debug
//! builds check it against [`Container::open`]). Only an object a
//! fault touched — at put time, or later through
//! [`CheckpointStore::tear_newest`] or
//! [`CheckpointStore::corrupt_newest`] — is opened, to learn whether
//! and as what it still verifies.
//!
//! **Why it is exact.** Faults strike only the newest object, so once
//! the next put lands every older object is final. Take a writer that
//! chains each delta to its previous put or to the head `recover` last
//! returned, as [`crate::Durable`] does. Until the next put, `recover`
//! can return only B1's chain (the newest good chain among final
//! objects) or the new object's chain, and that one either is a base
//! or extends B1's chain: its previous put is B1's head whenever that
//! put verifies and resolves, and the head `recover` returned is B1's
//! head. Dropping objects older than B1 therefore never changes what
//! `recover` returns. The one spare chain, B2's, keeps the previous
//! chain reachable when the newest chain is damaged *after* it became
//! final, which no fault here does but a disk can.
//!
//! In a fault-free run the store thus holds at most
//! `2 × base_every + 1` objects: B2's chain, B1's chain, and the new
//! object. [`CheckpointStore::high_water`] reports the most it held at
//! once. [`CheckpointStore::len`] still counts every put.

use snapshot::frame::{Container, COMMIT_KIND};
use snapshot::{Reader, Snapshot};

use crate::fault::{StorageFault, StorageFaultInjector, StorageFaultPlan};

/// `(epoch, parent)` of a container that verifies: the commit-record
/// fields the recovery lattice links chains by.
type Link = (u64, Option<u64>);

/// One stored checkpoint object.
#[derive(Debug, Clone)]
struct StoredObject {
    bytes: Vec<u8>,
    /// The fault (if any) injected into the object — bookkeeping for
    /// assertions and reports; recovery never reads it.
    fault: Option<StorageFault>,
    /// The object's link when its bytes verify, `None` when they do
    /// not. The retention rule reads it; recovery never does.
    link: Option<Link>,
    /// Put sequence number of the base the object's chain resolves to
    /// among the stored objects; `None` when it resolves to none.
    base: Option<usize>,
}

impl StoredObject {
    /// Re-derives link and base after a fault touched the bytes of the
    /// object put as number `seq`, above `older`.
    fn reverify(&mut self, seq: usize, older: &[StoredObject]) {
        self.link = verified_link(&self.bytes);
        self.base = chain_base(self.link, seq, older);
    }
}

/// The most a [`CheckpointStore`] has held at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retention {
    /// Objects stored at once.
    pub objects: usize,
    /// Bytes stored at once.
    pub bytes: u64,
}

impl Retention {
    /// The field-wise maximum of two marks.
    pub fn merge(self, other: Retention) -> Retention {
        Retention {
            objects: self.objects.max(other.objects),
            bytes: self.bytes.max(other.bytes),
        }
    }
}

/// Checkpoint object store with optional fault injection, keeping the
/// chains recovery can return (module docs).
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// The retained objects, oldest first: always the newest
    /// `objects.len()` puts.
    objects: Vec<StoredObject>,
    /// Objects ever put.
    puts: usize,
    injector: Option<StorageFaultInjector>,
    /// Commit-frame bytes of the last *pristine* container put, the
    /// splice source for [`StorageFault::StaleCommit`].
    last_commit: Option<Vec<u8>>,
    faults_injected: u64,
    high_water: Retention,
}

impl CheckpointStore {
    /// A store with perfectly reliable writes.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// A store whose writes suffer faults drawn from `plan`.
    pub fn with_faults(plan: StorageFaultPlan) -> CheckpointStore {
        CheckpointStore {
            injector: Some(StorageFaultInjector::new(plan)),
            ..CheckpointStore::default()
        }
    }

    /// The installed fault plan, if any — panic-context material.
    pub fn fault_plan(&self) -> Option<StorageFaultPlan> {
        self.injector.as_ref().map(|i| *i.plan())
    }

    /// Number of objects ever put (faulted and dropped ones included).
    pub fn len(&self) -> usize {
        self.puts
    }

    /// True when nothing has been put yet.
    pub fn is_empty(&self) -> bool {
        self.puts == 0
    }

    /// Number of objects stored now.
    pub fn retained(&self) -> usize {
        self.objects.len()
    }

    /// The most objects and bytes the store has held at once.
    pub fn high_water(&self) -> Retention {
        self.high_water
    }

    /// The newest object's bytes as they sit in the store — what a
    /// read-back would see.
    pub fn newest(&self) -> Option<&[u8]> {
        self.objects.last().map(|o| o.bytes.as_slice())
    }

    /// How many puts had a fault injected.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Stores a checkpoint container, injecting at most one storage
    /// fault into the stored bytes, after dropping what recovery can no
    /// longer return (module docs). `container` must be a sealed
    /// container. Returns the fault that fired, if any — callers may
    /// count it, but must never use it to steer recovery (a real host
    /// does not know its disk lied).
    pub fn put(&mut self, container: Vec<u8>) -> Option<StorageFault> {
        let commit = commit_record(&container);
        // The splice source for a *future* stale commit is this put's
        // pristine commit record — the store models a writer whose
        // buffered commit block lands late, over the next object.
        let splice = commit.and_then(|c| container.get(c.start..c.end)).map(<[u8]>::to_vec);
        let fault = self.injector.as_mut().and_then(StorageFaultInjector::next_fault);
        let (bytes, link) = match fault {
            None => {
                let link = commit.and_then(|c| c.link);
                debug_assert_eq!(
                    link,
                    verified_link(&container),
                    "a sealed container's commit record disagrees with Container::open"
                );
                (container, link)
            }
            Some(f) => {
                self.faults_injected += 1;
                let bytes = self.apply_fault(f, container);
                let link = verified_link(&bytes);
                (bytes, link)
            }
        };
        if splice.is_some() {
            self.last_commit = splice;
        }
        self.retain_recoverable();
        let base = chain_base(link, self.puts, &self.objects);
        self.objects.push(StoredObject {
            bytes,
            fault,
            link,
            base,
        });
        self.puts += 1;
        self.high_water = self.high_water.merge(Retention {
            objects: self.objects.len(),
            bytes: self.objects.iter().map(|o| o.bytes.len() as u64).sum(),
        });
        fault
    }

    /// The retention rule: drops every stored object older than base
    /// B2 (module docs), and forgets the bases of chains that reached
    /// into the dropped objects.
    fn retain_recoverable(&mut self) {
        let first = self.puts - self.objects.len();
        let Some(b1) = self.objects.iter().rev().find_map(|o| o.base) else {
            return;
        };
        let b2 = self
            .objects
            .get(..b1 - first)
            .and_then(|older| older.iter().rev().find_map(|o| o.base))
            .unwrap_or(b1);
        self.objects.drain(..b2 - first);
        for o in &mut self.objects {
            o.base = o.base.filter(|&b| b >= b2);
        }
    }

    fn apply_fault(&mut self, fault: StorageFault, mut container: Vec<u8>) -> Vec<u8> {
        let Some(injector) = self.injector.as_mut() else {
            return container;
        };
        match fault {
            StorageFault::TornWrite => {
                // Cut at a frame boundary at or before the commit
                // record: frames after the cut — the commit always
                // among them — never hit the disk.
                let starts = frame_starts(&container);
                let cut = match starts.get(injector.pick_index(starts.len() as u64) as usize) {
                    Some(&at) => at,
                    None => container.len().min(8),
                };
                container.truncate(cut);
            }
            StorageFault::Truncate => {
                let cut = injector.pick_index(container.len() as u64) as usize;
                container.truncate(cut);
            }
            StorageFault::BitFlip => {
                let at = match injector.plan().corrupt_at {
                    Some(at) => at % container.len().max(1) as u64,
                    None => injector.pick_index(container.len() as u64),
                };
                let bit = injector.pick_index(8) as u32;
                if let Some(b) = container.get_mut(at as usize) {
                    *b ^= 1u8 << bit;
                }
            }
            StorageFault::StaleCommit => match (&self.last_commit, commit_record(&container)) {
                (Some(old_commit), Some(commit)) => {
                    container.truncate(commit.start);
                    container.extend_from_slice(old_commit);
                }
                // No earlier commit to splice (or an unparsable
                // container): degrade to losing the commit — the
                // closest physical outcome.
                (_, commit) => {
                    let cut = commit.map_or(container.len().min(8), |c| c.start);
                    container.truncate(cut);
                }
            },
        }
        container
    }

    /// Tears the newest object at its commit-frame boundary — the
    /// deterministic "power loss during the last checkpoint" used by
    /// the chaos gates.
    pub fn tear_newest(&mut self) {
        if let Some((obj, older)) = self.objects.split_last_mut() {
            let cut = commit_record(&obj.bytes).map_or(obj.bytes.len().min(8), |c| c.start);
            obj.bytes.truncate(cut);
            if obj.fault.is_none() {
                obj.fault = Some(StorageFault::TornWrite);
                self.faults_injected += 1;
            }
            obj.reverify(self.puts - 1, older);
        }
    }

    /// Flips one bit of the newest object at `offset` (wrapped to its
    /// length) — the deterministic "latent media corruption" used by
    /// the chaos gates.
    pub fn corrupt_newest(&mut self, offset: u64) {
        if let Some((obj, older)) = self.objects.split_last_mut() {
            let len = obj.bytes.len().max(1) as u64;
            if let Some(b) = obj.bytes.get_mut((offset % len) as usize) {
                *b ^= 1;
            }
            if obj.fault.is_none() {
                obj.fault = Some(StorageFault::BitFlip);
                self.faults_injected += 1;
            }
            obj.reverify(self.puts - 1, older);
        }
    }

    /// The last-good recovery lattice: returns the newest verifiable
    /// `(head epoch, base-first chain)` — the latest object whose
    /// container opens clean *and* whose parent links resolve, through
    /// strictly older verifiable objects, all the way to a base.
    /// Returns `None` when no stored object yields a usable chain
    /// (recovery then restarts from nothing and replays the journal).
    ///
    /// Each object is opened at most once per call: a head whose
    /// ancestry is broken sends the walk back over objects it may
    /// already have verified.
    pub fn recover(&self) -> Option<(u64, Vec<Vec<u8>>)> {
        let mut opened: Vec<Option<Option<Link>>> = vec![None; self.objects.len()];
        let mut link = |i: usize| -> Option<Link> {
            let (slot, obj) = (opened.get_mut(i)?, self.objects.get(i)?);
            *slot.get_or_insert_with(|| verified_link(&obj.bytes))
        };
        'heads: for head in (0..self.objects.len()).rev() {
            let Some((epoch, mut need)) = link(head) else {
                continue;
            };
            let mut chain = vec![head];
            while let Some(parent_epoch) = need {
                let cursor = chain.last().copied().unwrap_or(head);
                let Some((j, (_, grandparent))) = (0..cursor)
                    .rev()
                    .find_map(|j| link(j).filter(|&(e, _)| e == parent_epoch).map(|l| (j, l)))
                else {
                    // The head is intact but an ancestor is not: the
                    // whole chain is unusable — walk further back.
                    continue 'heads;
                };
                chain.push(j);
                need = grandparent;
            }
            let chain = chain.iter().rev().filter_map(|&i| self.objects.get(i));
            return Some((epoch, chain.map(|o| o.bytes.clone()).collect()));
        }
        None
    }
}

/// The link of `bytes` when they open as a verified container.
fn verified_link(bytes: &[u8]) -> Option<Link> {
    Container::open(bytes).ok().map(|c| (c.epoch, c.parent))
}

/// Put sequence number of the base that an object put as number `seq`
/// with `link` resolves to among `older` (the newest `older.len()`
/// puts before it), exactly as [`CheckpointStore::recover`] resolves
/// it: its parent is the newest older object that verifies with the
/// parent's epoch, and the chain is that object's chain.
fn chain_base(link: Option<Link>, seq: usize, older: &[StoredObject]) -> Option<usize> {
    match link? {
        (_, None) => Some(seq),
        (_, Some(parent)) => {
            let parent = older.iter().rev().find(|o| o.link.is_some_and(|(e, _)| e == parent))?;
            parent.base
        }
    }
}

/// Byte offsets at which each frame of `bytes` starts (the commit
/// frame included, the 8-byte header excluded). Parsing stops at the
/// first malformed frame — for the injector's purposes the boundaries
/// found so far are the usable cut points.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut r = Reader::new(bytes);
    let Ok(()) = snapshot::read_header(&mut r, snapshot::frame::CONTAINER_MAGIC, snapshot::frame::CONTAINER_VERSION) else {
        return starts;
    };
    while r.remaining() > 0 {
        starts.push(bytes.len() - r.remaining());
        let Ok(_kind) = r.u32() else { break };
        let Ok(n) = r.seq_len() else { break };
        if r.take(n).is_err() || r.u64().is_err() {
            break;
        }
    }
    starts
}

/// The commit frame of a container: its byte extent and the link it
/// records.
#[derive(Debug, Clone, Copy)]
struct Commit {
    start: usize,
    end: usize,
    /// `None` when the record does not decode into a link
    /// [`Container::open`] could accept.
    link: Option<Link>,
}

/// The commit frame of `bytes`, when the container parses far enough
/// to find one. Reads no CRC: for a container as sealed it costs one
/// walk over the frame headers.
fn commit_record(bytes: &[u8]) -> Option<Commit> {
    let mut r = Reader::new(bytes);
    snapshot::read_header(&mut r, snapshot::frame::CONTAINER_MAGIC, snapshot::frame::CONTAINER_VERSION).ok()?;
    while r.remaining() > 0 {
        let start = bytes.len() - r.remaining();
        let kind = r.u32().ok()?;
        let n = r.seq_len().ok()?;
        let payload = r.take(n).ok()?;
        r.u64().ok()?;
        if kind == COMMIT_KIND {
            let mut p = Reader::new(payload);
            let link = p
                .u64()
                .and_then(|epoch| Ok((epoch, Option::<u64>::restore(&mut p)?)))
                .ok()
                .filter(|&(epoch, parent)| parent.is_none_or(|parent| parent < epoch));
            return Some(Commit {
                start,
                end: bytes.len() - r.remaining(),
                link,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot::frame::ContainerWriter;

    fn base(epoch: u64, payload: &[u8]) -> Vec<u8> {
        let mut cw = ContainerWriter::new();
        cw.frame(1, payload);
        cw.frame(2, b"second frame");
        cw.commit(epoch, None)
    }

    fn delta(epoch: u64, parent: u64, payload: &[u8]) -> Vec<u8> {
        let mut cw = ContainerWriter::new();
        cw.frame(1, payload);
        cw.commit(epoch, Some(parent))
    }

    #[test]
    fn reliable_store_recovers_newest_chain() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(delta(2, 1, b"d2"));
        s.put(delta(3, 2, b"d3"));
        let (epoch, chain) = s.recover().expect("chain");
        assert_eq!(epoch, 3);
        assert_eq!(chain.len(), 3);
        assert_eq!(Container::open(chain.first().unwrap()).unwrap().parent, None);
        assert_eq!(Container::open(chain.last().unwrap()).unwrap().epoch, 3);
    }

    #[test]
    fn torn_newest_falls_back_one_epoch() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(delta(2, 1, b"d2"));
        s.put(delta(3, 2, b"d3"));
        s.tear_newest();
        let (epoch, chain) = s.recover().expect("fallback chain");
        assert_eq!(epoch, 2);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn corrupt_ancestor_invalidates_descendants() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(base(2, b"b2"));
        s.put(delta(3, 2, b"d3"));
        // Corrupt the *middle* object (epoch-2 base): the epoch-3
        // delta verifies on its own but its ancestry is gone, so
        // recovery must land on the older base.
        if let Some(obj) = s.objects.get_mut(1) {
            let mid = obj.bytes.len() / 2;
            if let Some(b) = obj.bytes.get_mut(mid) {
                *b ^= 0x40;
            }
        }
        let (epoch, chain) = s.recover().expect("older base survives");
        assert_eq!(epoch, 1);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn all_objects_corrupt_recovers_none() {
        let mut s = CheckpointStore::with_faults(StorageFaultPlan::corrupt_at(9, 40));
        assert_eq!(s.put(base(1, b"b1")), Some(StorageFault::BitFlip));
        assert_eq!(s.put(delta(2, 1, b"d2")), Some(StorageFault::BitFlip));
        assert_eq!(s.faults_injected(), 2);
        assert!(s.recover().is_none());
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let run = || {
            let mut s = CheckpointStore::with_faults(StorageFaultPlan::uniform(77, 0.5));
            let mut tags = Vec::new();
            let mut parent = None;
            for epoch in 1..=20u64 {
                let mut cw = ContainerWriter::new();
                cw.frame(1, &epoch.to_le_bytes());
                tags.push(s.put(cw.commit(epoch, parent)));
                parent = Some(epoch);
            }
            (tags, s.recover().map(|(e, c)| (e, c.len())))
        };
        assert_eq!(run(), run());
        let (tags, _) = run();
        assert!(tags.iter().any(Option::is_some), "50% rate fired nothing");
    }

    #[test]
    fn stale_commit_is_rejected_by_verification() {
        let mut s = CheckpointStore::with_faults(StorageFaultPlan {
            seed: 5,
            torn_write: 0.0,
            truncate: 0.0,
            bit_flip: 0.0,
            stale_commit: 1.0,
            corrupt_at: None,
        });
        // First put degrades to torn (no earlier commit to splice).
        assert_eq!(s.put(base(1, b"b1")), Some(StorageFault::StaleCommit));
        assert!(s.recover().is_none());
        // Second put gets the first container's commit spliced on; the
        // body CRC catches the forgery.
        s.put(base(2, b"a very different second body"));
        assert!(
            Container::open(&s.objects.last().unwrap().bytes).is_err(),
            "stale commit must not verify"
        );
        assert!(s.recover().is_none());
    }

    #[test]
    fn corrupt_newest_is_detected_and_survivable() {
        let mut s = CheckpointStore::new();
        s.put(base(1, b"b1"));
        s.put(delta(2, 1, b"d2"));
        s.corrupt_newest(64);
        assert!(Container::open(&s.objects.last().unwrap().bytes).is_err());
        let (epoch, _) = s.recover().expect("base survives");
        assert_eq!(epoch, 1);
    }
}
