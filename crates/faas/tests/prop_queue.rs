//! The event queue across a checkpoint: a platform cut mid-drain must
//! restore through the canonical `from_sorted` constructor, reproduce
//! the identical bytes, and continue exactly as the original does.

use faas::config::PlatformConfig;
use faas::platform::{GcMode, Platform};
use simos::SimTime;

fn build() -> Platform {
    let config = PlatformConfig {
        cache_budget: 768 << 20,
        cores: 2.0,
        ..PlatformConfig::default()
    };
    Platform::new(config, workloads::catalog(), GcMode::Vanilla, None)
}

/// A checkpoint captured mid-drain — several events still pending at
/// the same millisecond — restores, reproduces the identical bytes,
/// and the restored run continues identically to the original.
#[test]
fn mid_drain_checkpoint_round_trips() {
    // A burst of same-millisecond arrivals: at any cut inside the
    // burst, events sharing the current timestamp are still queued.
    let mut arrivals: Vec<(usize, u64)> =
        (0..24).map(|i| (i % 7, 1_000 + (i as u64 % 3))).collect();
    arrivals.sort_by_key(|(_, t)| *t);
    let mut original = build();
    for &(f, t_ms) in &arrivals {
        original.submit(SimTime(t_ms * 1_000_000), f);
    }
    // Cut inside the burst, mid-millisecond, while work is in flight.
    original.run_until(SimTime(1_001_500_000));
    assert!(original.in_flight() > 0, "cut must land mid-drain");
    let bytes = original.checkpoint();

    let mut restored = build();
    restored
        .restore(&bytes)
        .expect("mid-drain checkpoint restores");
    assert_eq!(
        restored.checkpoint(),
        bytes,
        "restore is not the codec's inverse"
    );

    let horizon = SimTime(60_000_000_000);
    original.run_until(horizon);
    restored.run_until(horizon);
    assert_eq!(
        restored.checkpoint(),
        original.checkpoint(),
        "restored run diverged from the original"
    );
    assert_eq!(restored.stats().completed, original.stats().completed);
}
