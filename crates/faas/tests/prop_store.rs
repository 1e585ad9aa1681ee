//! The retention oracle: a checkpoint store that keeps only the chains
//! recovery can return must recover exactly what an append-only store
//! recovers, after every step of a `Durable`-style put sequence —
//! under random storage faults, stale commits, and interleaved tears
//! and corruptions of the newest object.
//!
//! The oracle mirrors every stored object into an append-only list,
//! reading it back through `CheckpointStore::newest` after each put,
//! tear and corruption, and runs the append-only store's lattice walk
//! over that list.

use faas::{CheckpointStore, StorageFaultPlan};
use proptest::prelude::*;
use snapshot::frame::{Container, ContainerWriter};

/// The append-only store's recovery lattice walk: newest head first,
/// the first head that opens and whose parent links resolve — each to
/// the newest strictly older object that opens with the parent's
/// epoch — down to a base.
fn append_only_recover(objects: &[Vec<u8>]) -> Option<(u64, Vec<Vec<u8>>)> {
    'heads: for head_idx in (0..objects.len()).rev() {
        let head_bytes = &objects[head_idx];
        let Ok(head) = Container::open(head_bytes) else {
            continue;
        };
        let mut chain_rev = vec![head_bytes.clone()];
        let mut need = head.parent;
        let mut cursor = head_idx;
        while let Some(parent_epoch) = need {
            let mut found = false;
            for j in (0..cursor).rev() {
                let Ok(c) = Container::open(&objects[j]) else {
                    continue;
                };
                if c.epoch == parent_epoch {
                    chain_rev.push(objects[j].clone());
                    need = c.parent;
                    cursor = j;
                    found = true;
                    break;
                }
            }
            if !found {
                continue 'heads;
            }
        }
        chain_rev.reverse();
        return Some((head.epoch, chain_rev));
    }
    None
}

/// A container with two frames whose payloads come from a tiny
/// alphabet, so bodies repeat: a stale commit spliced over a repeated
/// body forges an object that verifies as the previous checkpoint.
fn container(epoch: u64, parent: Option<u64>, body: u8) -> Vec<u8> {
    let mut cw = ContainerWriter::new();
    cw.frame(1, &vec![body; 8 + usize::from(body) * 5]);
    cw.frame(2, b"cursor");
    cw.commit(epoch, parent)
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Cut the next checkpoint with body `u8`: a base every
    /// `base_every` puts, otherwise a delta chained to the parent.
    Put(u8),
    /// Recover, and chain the next delta to the recovered head.
    Recover,
    /// Tear the newest object at its commit record.
    Tear,
    /// Flip one bit of the newest object.
    Corrupt(u64),
}

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u32..100, 0u64..4096).prop_map(|(k, x)| match k {
            0..=69 => Step::Put((x % 3) as u8),
            70..=81 => Step::Recover,
            82..=90 => Step::Tear,
            _ => Step::Corrupt(x),
        }),
        1..max,
    )
}

/// A fault plan with independent rates of 0–30 % per class.
fn plan() -> impl Strategy<Value = StorageFaultPlan> {
    (any::<u64>(), 0u32..=30, 0u32..=30, 0u32..=30, 0u32..=30).prop_map(
        |(seed, torn, truncate, flip, stale)| StorageFaultPlan {
            seed,
            torn_write: f64::from(torn) / 100.0,
            truncate: f64::from(truncate) / 100.0,
            bit_flip: f64::from(flip) / 100.0,
            stale_commit: f64::from(stale) / 100.0,
            corrupt_at: None,
        },
    )
}

/// Drives `steps` against a store the way `Durable` does, checking
/// after every step that the store recovers what the append-only
/// oracle recovers. With `fault_free`, tears and corruptions become
/// puts and the retained objects must stay within the bound.
fn drive(
    mut store: CheckpointStore,
    base_every: usize,
    steps: &[Step],
    fault_free: bool,
) -> Result<(), TestCaseError> {
    let mut mirror: Vec<Vec<u8>> = Vec::new();
    let mut parent: Option<u64> = None;
    for (i, &step) in steps.iter().enumerate() {
        let step = match step {
            Step::Tear | Step::Corrupt(_) if fault_free => Step::Put(0),
            s => s,
        };
        match step {
            Step::Put(body) => {
                let epoch = store.len() as u64 + 1;
                let link = match parent {
                    Some(p) if !store.len().is_multiple_of(base_every) => Some(p),
                    _ => None,
                };
                store.put(container(epoch, link, body));
                mirror.push(Vec::new());
                parent = Some(epoch);
            }
            Step::Recover => parent = store.recover().map(|(epoch, _)| epoch),
            Step::Tear => store.tear_newest(),
            Step::Corrupt(offset) => store.corrupt_newest(offset),
        }
        // Read the newest object back as it now sits in the store.
        if let (Some(last), Some(newest)) = (mirror.last_mut(), store.newest()) {
            newest.clone_into(last);
        }
        prop_assert_eq!(store.len(), mirror.len());
        prop_assert!(
            store.recover() == append_only_recover(&mirror),
            "step {i} ({step:?}): pruned store recovers {:?}, append-only store {:?}",
            store.recover().map(|(e, c)| (e, c.len())),
            append_only_recover(&mirror).map(|(e, c)| (e, c.len()))
        );
        if fault_free {
            let bound = 2 * base_every + 1;
            let retained = store.retained();
            prop_assert!(retained <= bound, "step {i}: {retained} objects retained");
            prop_assert!(store.high_water().objects <= bound);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under random faults, tears and corruptions, the pruned store
    /// recovers exactly what the append-only store recovers.
    #[test]
    fn pruned_store_recovers_what_append_only_store_recovers(
        base_every in 1usize..6,
        plan in plan(),
        steps in steps(80),
    ) {
        drive(CheckpointStore::with_faults(plan), base_every, &steps, false)?;
    }

    /// Without faults the store also never holds more than
    /// `2 × base_every + 1` objects.
    #[test]
    fn fault_free_store_stays_within_two_chains_and_a_cut(
        base_every in 1usize..6,
        steps in steps(80),
    ) {
        drive(CheckpointStore::new(), base_every, &steps, true)?;
    }
}

/// The bound is tight: a fault-free run reaches `2 × base_every + 1`
/// objects on the put that starts a third chain, and drops back once a
/// newer chain is final.
#[test]
fn fault_free_bound_is_reached_and_released() {
    let base_every = 4;
    let mut store = CheckpointStore::new();
    let mut retained = Vec::new();
    for epoch in 1..=16u64 {
        let parent = (!(epoch - 1).is_multiple_of(base_every as u64)).then(|| epoch - 1);
        store.put(container(epoch, parent, 0));
        retained.push(store.retained());
    }
    assert_eq!(retained, [1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 7, 8, 9, 6, 7, 8]);
    assert_eq!(store.high_water().objects, 2 * base_every + 1);
    assert_eq!(store.len(), 16);
    let (epoch, chain) = store.recover().expect("newest chain");
    assert_eq!((epoch, chain.len()), (16, 4));
}
