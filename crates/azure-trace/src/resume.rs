//! Crash-consistent, resumable replay: the §5.3 protocol as a
//! one-machine use of the [`Durable`] driver.
//!
//! The rounds come from the same schedule that drives
//! [`replay`](crate::replay::replay) and
//! [`replay_cluster`](crate::cluster_replay::replay_cluster), cut finer:
//! each phase — warm-up, measured window, drain — is eight rounds
//! instead of one. Every round is journaled write-ahead and caught up
//! through the driver, which cuts a checkpoint every third round and
//! recovers from kills and storage faults inside the round, so the
//! rates captured after the round that closes the measured window
//! never need to ride a checkpoint.
//!
//! Because the platform is deterministic, a recovered run's final state
//! is byte-identical to an uninterrupted control — and to plain
//! [`replay`](crate::replay::replay) — no matter how many times it was
//! killed or what the storage layer did to the checkpoints. The
//! kill–recover chaos gate in `bench` pins both.

use faas::fault::CrashPlan;
use faas::platform::Platform;
use faas::{Cadence, Durable, StorageFaultPlan};

use crate::generate::TraceFunction;
use crate::replay::{schedule, ReplayConfig, ReplayOutcome, WindowRates};

/// Rounds per protocol phase: finer rounds mean smaller journal
/// batches and more checkpoint sites.
const STEPS_PER_PHASE: usize = 8;

/// Checkpoint cadence, in rounds and cuts.
const CADENCE: Cadence = Cadence {
    checkpoint_every: 3,
    base_every: 4,
};

/// Result of a resumable (possibly killed-and-recovered) replay.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// The §5.3 metrics, identical in meaning to
    /// [`replay`](crate::replay::replay)'s.
    pub outcome: ReplayOutcome,
    /// How many times the run was killed and recovered.
    pub recoveries: u64,
    /// How many of those recoveries found no usable checkpoint chain
    /// and restarted from nothing, replaying the whole journal.
    pub scratch_recoveries: u64,
    /// How many checkpoint writes had a storage fault injected.
    pub storage_faults_injected: u64,
    /// Checkpoint of the final state — the byte string the chaos gate
    /// digests. Equal states yield equal bytes.
    pub final_state: Vec<u8>,
}

/// Runs the §5.3 protocol round by round through a [`Durable`] driver,
/// killing and recovering wherever `crash` dictates and corrupting
/// checkpoint writes wherever `storage_faults` dictates. The request
/// journal is not subjected to the storage plan, so every fault lands
/// on the recovery lattice.
///
/// `make_platform` must build identically-configured platforms — the
/// recovery path constructs a fresh one and restores the best
/// available checkpoint chain into it.
///
/// With `crash: None` this is the uninterrupted control; with a crash
/// schedule — and any storage-fault plan at all — the final state is
/// byte-identical to that control.
///
/// # Panics
///
/// Panics if the platform surfaces a non-kill error or a verified
/// checkpoint chain fails to restore — both mean the simulation itself
/// is broken (see [`Durable`]).
pub fn replay_resumable<F>(
    make_platform: F,
    trace: &[TraceFunction],
    config: &ReplayConfig,
    storage_faults: Option<StorageFaultPlan>,
    crash: Option<CrashPlan>,
) -> ResumeOutcome
where
    F: Fn() -> Platform,
{
    let mut durable = Durable::new(make_platform, CADENCE, storage_faults);
    if let Some(plan) = crash {
        durable.plan_kill(plan);
    }
    let mut rates = None;
    let rounds = schedule(trace, config, durable.platform().now(), STEPS_PER_PHASE);
    for (r, round) in rounds.into_iter().enumerate() {
        durable.journal_round(r, round.window.end, round.reset, &round.arrivals, None);
        durable.catch_up();
        if round.capture {
            rates = Some(WindowRates::capture(durable.platform(), round.window.end));
        }
    }
    let rates = rates.expect("the measured window always closes on a barrier");
    let counts = durable.counts();
    ResumeOutcome {
        outcome: rates.outcome(durable.platform()),
        recoveries: counts.recoveries,
        scratch_recoveries: counts.scratch_recoveries,
        storage_faults_injected: durable.faults_injected(),
        final_state: durable.platform().checkpoint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::build_trace;
    use faas::platform::GcMode;
    use faas::PlatformConfig;
    use simos::SimDuration;

    fn quick_config() -> ReplayConfig {
        ReplayConfig {
            warmup: SimDuration::from_secs(8),
            duration: SimDuration::from_secs(20),
            scale: 10.0,
            warmup_scale: 10.0,
            seed: 3,
            drain: SimDuration::from_secs(12),
        }
    }

    fn make() -> Platform {
        Platform::new(
            PlatformConfig::default(),
            workloads::catalog(),
            GcMode::Vanilla,
            None,
        )
    }

    #[test]
    fn uninterrupted_resumable_matches_itself() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let a = replay_resumable(make, &trace, &cfg, None, None);
        let b = replay_resumable(make, &trace, &cfg, None, None);
        assert_eq!(a.recoveries, 0);
        assert_eq!(a.final_state, b.final_state);
        assert!(a.outcome.completed > 0);
        assert_eq!(a.outcome.failed, 0);
    }

    #[test]
    fn crashed_run_recovers_to_identical_state() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, None, None);
        let chaos = replay_resumable(make, &trace, &cfg, None, Some(CrashPlan::every(400)));
        assert!(chaos.recoveries > 0, "crash schedule never fired");
        assert_eq!(
            chaos.final_state, control.final_state,
            "recovered state diverged from the uninterrupted control"
        );
        assert_eq!(chaos.outcome.completed, control.outcome.completed);
        assert_eq!(chaos.outcome.submitted, control.outcome.submitted);
    }

    #[test]
    fn single_crash_point_recovers_once() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, None, None);
        let chaos = replay_resumable(make, &trace, &cfg, None, Some(CrashPlan::at(300)));
        assert_eq!(chaos.recoveries, 1);
        assert_eq!(chaos.final_state, control.final_state);
    }

    #[test]
    fn storage_faults_cost_recency_not_correctness() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, None, None);
        let faults = Some(StorageFaultPlan::uniform(41, 0.4));
        let chaos = replay_resumable(make, &trace, &cfg, faults, Some(CrashPlan::every(500)));
        assert!(chaos.recoveries > 0, "crash schedule never fired");
        assert!(chaos.storage_faults_injected > 0, "fault plan never fired");
        assert_eq!(
            chaos.final_state, control.final_state,
            "storage faults changed the recovered trajectory"
        );
    }

    #[test]
    fn total_checkpoint_loss_recovers_from_journal_alone() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, None, None);
        // Every checkpoint write gets a bit flipped: recovery can never
        // use the store and must replay the journal from nothing.
        let faults = Some(StorageFaultPlan::corrupt_at(13, 100));
        let chaos = replay_resumable(make, &trace, &cfg, faults, Some(CrashPlan::at(300)));
        assert_eq!(chaos.recoveries, 1);
        assert_eq!(chaos.scratch_recoveries, 1);
        assert_eq!(chaos.final_state, control.final_state);
    }
}
