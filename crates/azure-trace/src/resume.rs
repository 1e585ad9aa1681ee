//! Crash-consistent, resumable replay: the §5.3 protocol as a
//! one-machine use of the [`Durable`] driver.
//!
//! [`replay`](crate::replay::replay) drives the protocol in three
//! monolithic `run_until` spans; if the process dies mid-run the whole
//! simulation is lost. This module maps the same protocol onto the
//! driver's rounds:
//!
//! * each phase — warm-up, measured window, drain — is cut into
//!   [`ResumeOptions::steps_per_phase`] rounds, so every phase edge is
//!   a round barrier; a round's batch is the trace arrivals in its
//!   window;
//! * the round starting at the end of the warm-up carries the journaled
//!   stats-reset flag, and the §5.3 rates are captured after the round
//!   that ends at the close of the measured window;
//! * the driver journals every round write-ahead, cuts checkpoints on
//!   [`ResumeOptions::cadence`], and recovers from kills and storage
//!   faults inside the round, so the captured rates never need to ride
//!   a checkpoint.
//!
//! Because the platform is deterministic, a recovered run's final state
//! is byte-identical to an uninterrupted control — and to plain
//! [`replay`](crate::replay::replay) — no matter how many times it was
//! killed or what the storage layer did to the checkpoints. The
//! kill–recover chaos gate in `bench` pins both.

use faas::fault::CrashPlan;
use faas::platform::Platform;
use faas::{Cadence, Durable, StorageFaultPlan};
use simos::SimTime;

use crate::generate::{generate_arrivals, TraceFunction};
use crate::replay::{ReplayConfig, ReplayOutcome, WindowRates};

/// Knobs of the resumable driver.
#[derive(Debug, Clone, Copy)]
pub struct ResumeOptions {
    /// Number of steps the protocol is divided into (on top of the
    /// mandatory warm-up / measured-window / drain boundaries). More
    /// steps mean finer-grained journal batches and more potential
    /// checkpoint sites.
    pub steps_per_phase: usize,
    /// Checkpoint cadence, in steps.
    pub cadence: Cadence,
    /// Storage faults to inject into checkpoint writes, if any. The
    /// request journal is not subjected to the plan, so every fault
    /// lands on the recovery lattice.
    pub storage_faults: Option<StorageFaultPlan>,
}

impl Default for ResumeOptions {
    fn default() -> ResumeOptions {
        ResumeOptions {
            steps_per_phase: 8,
            cadence: Cadence {
                checkpoint_every: 3,
                base_every: 4,
            },
            storage_faults: None,
        }
    }
}

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

/// Runs the §5.3 protocol step by step through a [`Durable`] driver,
/// killing and recovering wherever `crash` dictates and corrupting
/// checkpoint writes wherever [`ResumeOptions::storage_faults`]
/// dictates.
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
    opts: &ResumeOptions,
    crash: Option<CrashPlan>,
) -> ResumeOutcome
where
    F: Fn() -> Platform,
{
    assert!(opts.steps_per_phase > 0, "need at least one step per phase");
    let mut durable = Durable::new(make_platform, opts.cadence, opts.storage_faults);
    if let Some(plan) = crash {
        durable.plan_kill(plan);
    }
    let t0 = durable.platform().now();
    let warm_end = t0 + config.warmup;
    let replay_end = warm_end + config.duration;
    let drain_end = replay_end + config.drain;

    // Step boundaries: the three protocol phases, each cut into
    // `steps_per_phase` windows. Phase edges are always boundaries, so
    // the reset/capture actions land at exactly the times `replay` uses.
    let mut bounds: Vec<SimTime> = Vec::new();
    for (lo, hi) in [(t0, warm_end), (warm_end, replay_end), (replay_end, drain_end)] {
        let span = hi.since(lo).as_nanos();
        for i in 0..opts.steps_per_phase {
            let off = span * i as u64 / opts.steps_per_phase as u64;
            let b = SimTime(lo.0 + off);
            if bounds.last() != Some(&b) {
                bounds.push(b);
            }
        }
    }
    bounds.push(drain_end);
    let n_steps = bounds.len() - 1;

    let mut arrivals = generate_arrivals(trace, config.warmup_scale, t0, warm_end, config.seed);
    arrivals.extend(generate_arrivals(
        trace,
        config.scale,
        warm_end,
        replay_end,
        config.seed ^ 0xA5A5,
    ));
    let mut batches: Vec<Vec<(SimTime, usize)>> = vec![Vec::new(); n_steps];
    for &(t, f) in &arrivals {
        let step = match bounds.binary_search(&t) {
            Ok(i) => i.min(n_steps - 1),
            Err(i) => i - 1,
        };
        batches[step].push((t, f));
    }

    let mut rates = None;
    for (step, (window, batch)) in bounds.windows(2).zip(&batches).enumerate() {
        let (start, end) = (window[0], window[1]);
        durable.journal_round(step, end, start == warm_end, batch, None);
        durable.catch_up();
        if end == replay_end {
            rates = Some(WindowRates::capture(durable.platform(), replay_end));
        }
    }
    let rates = rates.expect("the measured window always closes on a step boundary");
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
        let a = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        let b = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        assert_eq!(a.recoveries, 0);
        assert_eq!(a.final_state, b.final_state);
        assert!(a.outcome.completed > 0);
        assert_eq!(a.outcome.failed, 0);
    }

    #[test]
    fn crashed_run_recovers_to_identical_state() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let opts = ResumeOptions::default();
        let control = replay_resumable(make, &trace, &cfg, &opts, None);
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::every(400)));
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
        let opts = ResumeOptions::default();
        let control = replay_resumable(make, &trace, &cfg, &opts, None);
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::at(300)));
        assert_eq!(chaos.recoveries, 1);
        assert_eq!(chaos.final_state, control.final_state);
    }

    #[test]
    fn storage_faults_cost_recency_not_correctness() {
        let trace = build_trace(&workloads::catalog(), 5);
        let cfg = quick_config();
        let control = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        let opts = ResumeOptions {
            storage_faults: Some(StorageFaultPlan::uniform(41, 0.4)),
            ..ResumeOptions::default()
        };
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::every(500)));
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
        let control = replay_resumable(make, &trace, &cfg, &ResumeOptions::default(), None);
        // Every checkpoint write gets a bit flipped: recovery can never
        // use the store and must replay the journal from nothing.
        let opts = ResumeOptions {
            storage_faults: Some(StorageFaultPlan::corrupt_at(13, 100)),
            ..ResumeOptions::default()
        };
        let chaos = replay_resumable(make, &trace, &cfg, &opts, Some(CrashPlan::at(300)));
        assert_eq!(chaos.recoveries, 1);
        assert_eq!(chaos.scratch_recoveries, 1);
        assert_eq!(chaos.final_state, control.final_state);
    }
}
