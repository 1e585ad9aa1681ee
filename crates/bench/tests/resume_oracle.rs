//! Differential oracle for the resumable replay: the §5.3 protocol run
//! through the durability driver — uninterrupted, or killed and
//! recovered over a faulty checkpoint store — must end in exactly the
//! platform state and outcome of a plain `replay`.

use azure_trace::{build_trace, replay, replay_resumable, ReplayConfig, ResumeOptions};
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::{CrashPlan, MemoryManager, PlatformConfig, StorageFaultPlan};
use simos::SimDuration;

fn make(mode: &str) -> Platform {
    let manager: Option<Box<dyn MemoryManager>> = match mode {
        "desiccant" => Some(Box::new(Desiccant::new(DesiccantConfig::default()))),
        _ => None,
    };
    let gc = if mode == "eager" { GcMode::Eager } else { GcMode::Vanilla };
    Platform::new(PlatformConfig::default(), workloads::catalog(), gc, manager)
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
    let faulty = ResumeOptions {
        storage_faults: Some(StorageFaultPlan::uniform(41, 0.4)),
        ..ResumeOptions::default()
    };
    for mode in ["vanilla", "eager", "desiccant"] {
        let mut plain = make(mode);
        let outcome = replay(&mut plain, &trace, &config);
        let state = plain.checkpoint();
        let runs = [
            (&ResumeOptions::default(), None),
            (&faulty, Some(CrashPlan::every(400))),
        ];
        for (opts, crash) in runs {
            let resumed = replay_resumable(|| make(mode), &trace, &config, opts, crash);
            assert_eq!(resumed.recoveries > 0, crash.is_some(), "{mode}: kill schedule");
            assert_eq!(resumed.storage_faults_injected > 0, crash.is_some(), "{mode}: faults");
            assert!(resumed.final_state == state, "{mode} {crash:?}: final state diverged");
            assert_eq!(resumed.outcome, outcome, "{mode} {crash:?}: outcome diverged");
        }
    }
}
