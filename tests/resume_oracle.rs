//! Differential oracle for the resumable replay: the §5.3 protocol run
//! through the durability driver — uninterrupted, or killed and
//! recovered over a faulty checkpoint store — must end in exactly the
//! platform state and outcome of a plain `replay`.

use azure_trace::{build_trace, replay, replay_resumable, ReplayConfig};
use bench::golden::{platform, MODES};
use faas::platform::Platform;
use faas::{CrashPlan, PlatformConfig, StorageFaultPlan};
use simos::SimDuration;

fn make(mode: &str) -> Platform {
    platform(mode, PlatformConfig::default())
}

#[test]
fn resumable_replay_matches_plain_replay() {
    let trace = build_trace(&workloads::catalog(), 5);
    let config = ReplayConfig {
        warmup: SimDuration::from_secs(8),
        duration: SimDuration::from_secs(20),
        scale: 10.0,
        warmup_scale: 10.0,
        seed: 3,
        drain: SimDuration::from_secs(12),
    };
    for mode in MODES {
        let mut plain = make(mode);
        let outcome = replay(&mut plain, &trace, &config);
        let state = plain.checkpoint();
        let runs = [
            (None, None),
            (Some(StorageFaultPlan::uniform(41, 0.4)), Some(CrashPlan::every(400))),
        ];
        for (faults, crash) in runs {
            let resumed = replay_resumable(|| make(mode), &trace, &config, faults, crash);
            assert_eq!(resumed.recoveries > 0, crash.is_some(), "{mode}: kill schedule");
            assert_eq!(resumed.storage_faults_injected > 0, crash.is_some(), "{mode}: faults");
            assert!(resumed.final_state == state, "{mode} {crash:?}: final state diverged");
            assert_eq!(resumed.outcome, outcome, "{mode} {crash:?}: outcome diverged");
        }
    }
}
