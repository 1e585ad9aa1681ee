//! One durability driver: a live [`Platform`] behind a write-ahead
//! round journal and a faultable incremental checkpoint store.
//!
//! Every long-running driver in the workspace — the single-machine
//! resumable replay and each shard of a cluster — runs its platform
//! through a [`Durable`]. The caller cuts time into *rounds* (a barrier
//! time, a stats-reset flag, an arrival batch, and an optional opaque
//! cut payload); the driver owns everything that lets those rounds
//! survive a process kill.
//!
//! # Rounds, journals, and recovery
//!
//! [`Durable::journal_round`] appends the round to a CRC64-sealed
//! journal before anything runs (write-ahead); [`Durable::catch_up`]
//! executes every journaled round up to the head. Every
//! `checkpoint_every`-th round starts with an incremental checkpoint
//! cut into the driver's [`CheckpointStore`] — a full base every
//! `base_every`-th cut, an O(dirty) delta otherwise — with the round
//! cursor riding along as a container frame at
//! [`Platform::FRAME_EXTRA_BASE`] and the round's cut payload, if any,
//! at the kind after it.
//!
//! When an armed [`CrashPlan`] kills the event loop mid-round, the
//! driver rebuilds a fresh platform, re-reads the journal through its
//! CRC filter, restores the newest verifiable checkpoint chain from the
//! store's recovery lattice (or nothing, if storage faults destroyed
//! every chain), and replays the journal **round by round** —
//! re-submitting each round's batch and running to that round's
//! barrier, exactly as the dead run did. Round-by-round replay matters:
//! the platform's event sequence numbers interleave submission with
//! execution, so bulk resubmission would renumber arrivals and reorder
//! same-time events. Replayed this way, the recovered platform retraces
//! the dead run's trajectory event for event and ends in state bytes
//! identical to an uninterrupted control.
//!
//! # Outages
//!
//! [`Durable::mark_down`] freezes the machine: rounds are still
//! journaled but nothing runs, and the next [`Durable::catch_up`]
//! *heals* — fresh platform, durable-store restore, journal catch-up —
//! the kill-recovery path entered from a round boundary. A kill re-arms
//! the crash plan from the killed event count; a heal re-arms it from
//! the restored count (replayed kills are state-neutral: each one
//! recovers to the same trajectory).
//!
//! # What stays durable
//!
//! The checkpoint store keeps only the chains its recovery lattice can
//! return (see [`crate::store`]): with fault-free writes, at most
//! `2 × base_every + 1` objects — the chain a recovery restores, the
//! chain before it, and the cut in flight. Epochs still count every
//! cut ever put, so they stay strictly monotonic. The journal stays
//! whole: a recovery that finds no usable chain replays it from round
//! zero, so retention gives up no recovery. It is also small next to
//! the checkpoints — in the `cluster_outage` benchmark workload a
//! shard's journal peaks at about 69 KB, while the checkpoints it cuts
//! total about 10.7 MB.

use simos::SimTime;
use snapshot::frame::crc64;
use snapshot::{Reader, SnapError, Snapshot, Writer};

use crate::error::PlatformError;
use crate::fault::{CrashPlan, StorageFaultPlan};
use crate::platform::Platform;
use crate::store::{CheckpointStore, Retention};

/// Checkpoint cadence, in rounds and cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Cut a checkpoint at the start of every `checkpoint_every`-th
    /// round.
    pub checkpoint_every: usize,
    /// Every `base_every`-th cut is a full base; the rest are O(dirty)
    /// deltas chained to their predecessor.
    pub base_every: usize,
}

/// Container frame kind of the driver's round cursor. Kinds at or
/// above [`Platform::FRAME_EXTRA_BASE`] are opaque to the platform and
/// come back verbatim from [`Platform::restore_chain`].
const FRAME_CURSOR: u32 = Platform::FRAME_EXTRA_BASE;

/// Container frame kind of the caller's cut payload.
const FRAME_CUT: u32 = Platform::FRAME_EXTRA_BASE + 1;

/// One journaled round, as the caller journaled it and as its log
/// record's body encodes it (a CRC-64 of the body follows in the log).
#[derive(Debug, Clone)]
struct Record {
    round: usize,
    /// Upper time bound of the round (inclusive).
    barrier: SimTime,
    /// Whether platform stats reset at the start of the round.
    reset: bool,
    /// The round's arrivals in submission order.
    batch: Vec<(SimTime, usize)>,
    /// Caller bytes to embed in a checkpoint cut at the start of the
    /// round. Journaled so replay re-cuts byte-identical checkpoints.
    cut: Option<Vec<u8>>,
}

snapshot::record!(Record {
    round: usize,
    barrier: SimTime,
    reset: bool,
    batch: Vec<(SimTime, usize)>,
    cut: Option<Vec<u8>>,
});

/// The write-ahead round journal.
///
/// The durable form is the byte log: one CRC64-sealed [`Record`] per
/// round. [`Journal::from_log`] re-reads it the way a recovering
/// host must — sequentially, dropping a torn or corrupt tail instead of
/// mis-parsing it. Dropping a tail record is safe *because* the journal
/// is write-ahead: a round that never finished reaching the log never
/// ran.
///
/// In memory the journal keeps every round's record, indexed by round.
#[derive(Debug, Clone, Default)]
struct Journal {
    log: Vec<u8>,
    rounds: Vec<Record>,
}

impl Journal {
    /// Rounds journaled.
    fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Appends round `round` — to the durable byte log first, then to
    /// the in-memory index.
    ///
    /// # Panics
    ///
    /// Panics unless `round` is the next round.
    fn append(
        &mut self,
        round: usize,
        barrier: SimTime,
        reset: bool,
        batch: &[(SimTime, usize)],
        cut: Option<Vec<u8>>,
    ) {
        assert_eq!(round, self.rounds.len(), "journal rounds must append in round order");
        let record = Record {
            round,
            barrier,
            reset,
            batch: batch.to_vec(),
            cut,
        };
        let body = snapshot::encode(&record);
        self.log.extend_from_slice(&body);
        self.log.extend_from_slice(&crc64(&body).to_le_bytes());
        self.rounds.push(record);
    }

    /// Round `round`'s arrivals in submission order (empty past the
    /// head).
    fn batch(&self, round: usize) -> &[(SimTime, usize)] {
        self.rounds.get(round).map_or(&[], |r| &r.batch)
    }

    /// The durable byte log: every record, in append order.
    fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Rebuilds a journal from a durable byte log, validating each
    /// record's CRC and round order. Returns the journal plus the number
    /// of tail bytes dropped as torn or corrupt; never panics, whatever
    /// the bytes.
    fn from_log(bytes: &[u8]) -> (Journal, usize) {
        let mut journal = Journal::default();
        let mut r = Reader::new(bytes);
        while r.remaining() > 0 {
            let start = bytes.len() - r.remaining();
            let parsed = (|| -> Result<(), SnapError> {
                let Record {
                    round,
                    barrier,
                    reset,
                    batch,
                    cut,
                } = Record::restore(&mut r)?;
                let body = bytes
                    .get(start..bytes.len() - r.remaining())
                    .ok_or(SnapError::Corrupt("journal record extent out of bounds"))?;
                if crc64(body) != r.u64()? {
                    return Err(SnapError::Corrupt("journal record checksum mismatch"));
                }
                // An out-of-order record cannot come from this writer.
                if round != journal.len() {
                    return Err(SnapError::Corrupt("journal record out of round order"));
                }
                journal.append(round, barrier, reset, &batch, cut);
                Ok(())
            })();
            if parsed.is_err() {
                return (journal, bytes.len() - start);
            }
        }
        (journal, 0)
    }
}

/// What a [`Durable`] platform has survived so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Kills recovered.
    pub recoveries: u64,
    /// Recoveries that found no usable checkpoint chain and replayed
    /// the whole journal from nothing.
    pub scratch_recoveries: u64,
    /// `Down` windows healed.
    pub heals: u64,
}

/// A platform that survives kills and outages: the live [`Platform`],
/// the factory that rebuilds it, its checkpoint store, and its round
/// journal.
pub struct Durable<F> {
    make: F,
    platform: Platform,
    store: CheckpointStore,
    journal: Journal,
    cadence: Cadence,
    /// Rounds fully executed: the journal head, except inside a
    /// recovery or an outage.
    cursor: usize,
    /// Epoch of the last checkpoint cut — the parent of the next delta.
    /// A faulted put still advances it: the platform cleared its dirty
    /// tracking at the cut whatever the store kept, and the recovery
    /// lattice walks past the unusable object.
    parent_epoch: Option<u64>,
    crash: Option<CrashPlan>,
    /// In a `Down` window: rounds are journaled, nothing runs until a
    /// heal.
    down: bool,
    counts: RecoveryCounts,
    /// Cut payload of the most recently restored checkpoint, if it
    /// carried one.
    recovered_cut: Option<Vec<u8>>,
}

impl<F: Fn() -> Platform> Durable<F> {
    /// Builds the platform with `make` over an empty checkpoint store
    /// whose puts suffer `storage_faults`, if given. `make` must build
    /// identically configured platforms: recovery rebuilds with it, and
    /// [`Platform::restore_chain`] enforces the match by fingerprint.
    pub fn new(make: F, cadence: Cadence, storage_faults: Option<StorageFaultPlan>) -> Durable<F> {
        assert!(cadence.checkpoint_every > 0, "checkpoint interval must be positive");
        assert!(cadence.base_every > 0, "base interval must be positive");
        Durable {
            platform: make(),
            make,
            store: storage_faults.map_or_else(CheckpointStore::new, CheckpointStore::with_faults),
            journal: Journal::default(),
            cadence,
            cursor: 0,
            parent_epoch: None,
            crash: None,
            down: false,
            counts: RecoveryCounts::default(),
            recovered_cut: None,
        }
    }

    /// The live platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Arms a kill schedule: the event loop dies at the plan's event
    /// counts and the driver recovers through its store and journal.
    pub fn plan_kill(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
        self.arm(self.platform.events_handled());
    }

    /// Journals round `round` write-ahead: its barrier, whether stats
    /// reset at its start, its arrival batch, and the payload to embed
    /// if the round starts with a checkpoint cut. Nothing runs until
    /// [`Durable::catch_up`].
    pub fn journal_round(
        &mut self,
        round: usize,
        barrier: SimTime,
        reset: bool,
        batch: &[(SimTime, usize)],
        cut: Option<Vec<u8>>,
    ) {
        assert!(self.cursor == round || self.down, "previous round left incomplete");
        self.journal.append(round, barrier, reset, batch, cut);
    }

    /// Freezes the machine for a `Down` window: journaled rounds wait
    /// for the heal at the next [`Durable::catch_up`].
    pub fn mark_down(&mut self) {
        self.down = true;
    }

    /// Executes journaled rounds from the cursor to the head: heal if
    /// the machine is down, then per round an optional checkpoint cut,
    /// an optional stats reset, the batch, and the drain to the barrier
    /// — recovering from kills until the head round completes.
    pub fn catch_up(&mut self) {
        if self.down {
            self.counts.heals += 1;
            self.down = false;
            self.rebuild(self.platform.events_handled());
            self.arm(self.platform.events_handled());
        }
        while self.cursor < self.journal.len() {
            let r = self.cursor;
            if r.is_multiple_of(self.cadence.checkpoint_every) {
                self.cut(r);
            }
            let Some(round) = self.journal.rounds.get(r) else { break };
            if round.reset {
                self.platform.reset_stats();
            }
            for &(t, fn_idx) in self.journal.batch(r) {
                self.platform.submit(t, fn_idx);
            }
            match self.platform.try_run_until(round.barrier) {
                Ok(()) => self.cursor = r + 1,
                Err(PlatformError::Killed { events_handled }) => {
                    self.counts.recoveries += 1;
                    self.rebuild(events_handled);
                    self.arm(events_handled);
                }
                Err(e) => self.broken(
                    &format!("platform invariant violated in round {r}"),
                    &e,
                    self.platform.events_handled(),
                ),
            }
        }
    }

    /// Arms the next kill of the plan strictly after `from` events.
    fn arm(&mut self, from: u64) {
        if let Some(at) = self.crash.and_then(|plan| plan.next_after(from)) {
            self.platform.arm_kill(at);
        }
    }

    /// Cuts an incremental checkpoint at the start of round `r`.
    fn cut(&mut self, r: usize) {
        // Epoch = puts + 1: derivable from durable state alone and
        // strictly monotonic across recoveries.
        let epoch = self.store.len() as u64 + 1;
        let mut cursor = Writer::new();
        cursor.usize(r);
        let mut extra = vec![(FRAME_CURSOR, cursor.into_bytes())];
        if let Some(cut) = self.journal.rounds.get(r).and_then(|round| round.cut.clone()) {
            extra.push((FRAME_CUT, cut));
        }
        let bytes = match self.parent_epoch {
            Some(parent) if !self.store.len().is_multiple_of(self.cadence.base_every) => {
                self.platform.checkpoint_delta(epoch, parent, &extra)
            }
            _ => self.platform.checkpoint_base(epoch, &extra),
        };
        self.store.put(bytes);
        self.parent_epoch = Some(epoch);
    }

    /// Discards the live platform and rebuilds from the newest
    /// verifiable checkpoint chain — or from nothing, when storage
    /// faults destroyed every chain — rewinding the cursor for journal
    /// replay.
    fn rebuild(&mut self, events_handled: u64) {
        self.platform = (self.make)();
        // Re-read the journal the way a restarting host must: through
        // the CRC filter of its durable byte log.
        let (journal, dropped) = Journal::from_log(self.journal.log_bytes());
        assert_eq!(dropped, 0, "in-memory journal log cannot be torn");
        self.journal = journal;
        match self.store.recover() {
            Some((epoch, chain)) => match self.restore(&chain) {
                Ok(cursor) => {
                    self.cursor = cursor;
                    self.parent_epoch = Some(epoch);
                }
                Err(e) => self.broken(
                    &format!("verified chain (head epoch {epoch}) failed to restore"),
                    &e,
                    events_handled,
                ),
            },
            None => {
                self.counts.scratch_recoveries += 1;
                self.cursor = 0;
                self.parent_epoch = None;
            }
        }
    }

    /// Restores a verified chain into the fresh platform and returns the
    /// cursor its head cut recorded.
    fn restore(&mut self, chain: &[Vec<u8>]) -> Result<usize, PlatformError> {
        let (_, extra) = self.platform.restore_chain(chain)?;
        let mut cursor = Err(SnapError::Corrupt("checkpoint carries no cursor frame"));
        self.recovered_cut = None;
        for (kind, bytes) in extra {
            if kind == FRAME_CURSOR {
                let mut r = Reader::new(&bytes);
                cursor = r.usize().and_then(|c| r.finish().map(|()| c));
            } else if kind == FRAME_CUT {
                self.recovered_cut = Some(bytes);
            }
        }
        Ok(cursor?)
    }

    /// The driver's one give-up point: the simulation itself is broken.
    /// Storage faults never land here — they cost recency, not a panic.
    /// The message carries what a failing chaos schedule needs to be
    /// replayed exactly.
    fn broken(&self, what: &str, e: &PlatformError, events_handled: u64) -> ! {
        // tidy:allow(panic-reachability) -- non-kill platform errors and CRC-verified chains failing to restore are simulator bugs
        panic!(
            "{what}: {e} (storage fault seed {:?}, checkpoint epoch {:?}, \
             events_handled={events_handled})",
            self.store.fault_plan().map(|p| p.seed),
            self.parent_epoch
        )
    }

    /// Kills and outages survived so far.
    pub fn counts(&self) -> RecoveryCounts {
        self.counts
    }

    /// Checkpoint puts that had a storage fault injected.
    pub fn faults_injected(&self) -> u64 {
        self.store.faults_injected()
    }

    /// Cut payload of the most recently restored checkpoint, if any.
    pub fn recovered_cut(&self) -> Option<&[u8]> {
        self.recovered_cut.as_deref()
    }

    /// The most objects and bytes the checkpoint store has held at
    /// once.
    pub fn store_high_water(&self) -> Retention {
        self.store.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> Journal {
        let mut j = Journal::default();
        j.append(0, SimTime(10), false, &[(SimTime(5), 1), (SimTime(9), 2)], None);
        j.append(1, SimTime(20), true, &[], Some(b"front".to_vec()));
        j.append(2, SimTime(30), false, &[(SimTime(30), 0)], None);
        j
    }

    #[test]
    fn journal_appends_in_order_and_replays_batches() {
        let j = journal();
        assert_eq!(j.len(), 3);
        assert_eq!(j.batch(0), [(SimTime(5), 1), (SimTime(9), 2)]);
        assert_eq!(j.batch(1), []);
        assert_eq!(j.batch(2), [(SimTime(30), 0)]);
        assert_eq!(j.batch(3), []);
    }

    #[test]
    #[should_panic(expected = "round order")]
    fn journal_rejects_out_of_order_rounds() {
        Journal::default().append(1, SimTime(0), false, &[], None);
    }

    #[test]
    fn journal_log_round_trips() {
        let j = journal();
        let (back, dropped) = Journal::from_log(j.log_bytes());
        assert_eq!(dropped, 0);
        assert_eq!(back.len(), j.len());
        for (a, b) in back.rounds.iter().zip(&j.rounds) {
            assert_eq!((a.barrier, a.reset, &a.cut), (b.barrier, b.reset, &b.cut));
        }
        assert_eq!(back.log_bytes(), j.log_bytes());
    }

    #[test]
    fn journal_record_bytes_are_pinned() {
        let mut j = Journal::default();
        j.append(0, SimTime(10), true, &[(SimTime(5), 3)], Some(vec![0xAB, 0xCD]));
        j.append(1, SimTime(20), false, &[], None);
        let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        // round, barrier, reset; batch length and rows; cut flag,
        // length and bytes; then the record's CRC-64.
        let first = [
            words(&[0, 10]),
            vec![1],
            words(&[1, 5, 3]),
            vec![1],
            words(&[2]),
            vec![0xAB, 0xCD],
        ]
        .concat();
        let second = [words(&[1, 20]), vec![0], words(&[0]), vec![0]].concat();
        let mut log = Vec::new();
        for body in [first, second] {
            log.extend_from_slice(&body);
            log.extend_from_slice(&crc64(&body).to_le_bytes());
        }
        assert_eq!(j.log_bytes(), log);
    }

    #[test]
    fn round_lookup_after_from_log_returns_batches_in_submission_order() {
        let mut j = Journal::default();
        let batches: Vec<Vec<(SimTime, usize)>> = (0..50u64)
            .map(|r| (0..r % 7).map(|i| (SimTime(r * 100 + (i * 37) % 11), i as usize)).collect())
            .collect();
        for (r, batch) in batches.iter().enumerate() {
            j.append(r, SimTime(r as u64 * 100 + 99), false, batch, None);
        }
        let (back, dropped) = Journal::from_log(j.log_bytes());
        assert_eq!(dropped, 0);
        for (r, batch) in batches.iter().enumerate() {
            assert_eq!(back.batch(r), batch.as_slice(), "round {r}");
        }
    }

    #[test]
    fn journal_drops_torn_or_corrupt_tail_without_panicking() {
        let mut j = Journal::default();
        j.append(0, SimTime(10), false, &[(SimTime(5), 1)], None);
        let clean_len = j.log_bytes().len();
        j.append(1, SimTime(20), false, &[(SimTime(12), 0), (SimTime(14), 2)], Some(vec![7; 9]));
        let log = j.log_bytes().to_vec();
        // Every possible tear point: the prefix records survive, the
        // torn record's bytes are dropped in full, and nothing panics.
        for cut in 0..log.len() {
            let (back, dropped) = Journal::from_log(&log[..cut]);
            let expected = if cut >= clean_len { cut - clean_len } else { cut };
            assert_eq!(dropped, expected, "cut at {cut}");
            if cut >= clean_len {
                assert_eq!(back.batch(0), [(SimTime(5), 1)]);
            }
            assert!(back.len() < j.len());
        }
        // A corrupt (not torn) tail record is likewise dropped.
        let mut bad = log.clone();
        let last = bad.len() - 3;
        bad[last] ^= 0x80;
        let (back, dropped) = Journal::from_log(&bad);
        assert_eq!(back.len(), 1);
        assert_eq!(back.batch(0), [(SimTime(5), 1)]);
        assert!(dropped > 0);
    }
}
