//! Pins the first 64 draws of each seeded fault stream through its
//! public surface: the platform fault injector, the storage fault
//! injector and the seeded outage schedule. Chaos schedules,
//! kill-recover runs and outage gates replay only while these draws
//! stay put.

use faas::{
    FaultInjector, FaultPlan, OutageKind, OutagePlan, StorageFaultInjector, StorageFaultPlan,
};

const SEED: u64 = 0x5EED_F00D;

/// FNV-1a over the little-endian bytes of `words`.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn fault_injector_draws_are_pinned() {
    // With `boot_fail = 1` each boot decision takes two draws: the roll,
    // which always fires, and the strike point `0.1 + 0.8 * unit`. One
    // leading thaw decision moves the strike points onto the odd draws,
    // and `thaw_fail = 0.5` alone exposes the top bit of every draw.
    let plan = FaultPlan {
        boot_fail: 1.0,
        thaw_fail: 0.5,
        ..FaultPlan::disabled(SEED)
    };
    let strike = |inj: &mut FaultInjector| inj.boot_fails().expect("boot_fail = 1 fires").to_bits();
    let mut even = FaultInjector::new(plan);
    let strikes_even: Vec<u64> = (0..32).map(|_| strike(&mut even)).collect();
    let mut odd = FaultInjector::new(plan);
    assert!(odd.thaw_fails());
    let strikes_odd: Vec<u64> = (0..31).map(|_| strike(&mut odd)).collect();
    let mut halves = FaultInjector::new(plan);
    let top_bits = (0..64).fold(0u64, |acc, i| acc | u64::from(halves.thaw_fails()) << i);

    assert_eq!(strikes_even[0], 0x3fe2_0884_954e_ecb3);
    assert_eq!(strikes_odd[0], 0x3fc8_383b_0825_0387);
    assert_eq!(fold(strikes_even), 0xa190_61c5_9904_5ace);
    assert_eq!(fold(strikes_odd), 0x952c_8d5c_fb27_68b0);
    assert_eq!(top_bits, 0x2a42_0d47_c30c_4085);
}

#[test]
fn storage_fault_injector_draws_are_pinned() {
    // `pick_index(u64::MAX)` reduces one draw mod 2^64 - 1, which
    // returns every draw below 2^64 - 1 unchanged.
    let mut inj = StorageFaultInjector::new(StorageFaultPlan::uniform(SEED, 0.0));
    let draws: Vec<u64> = (0..64).map(|_| inj.pick_index(u64::MAX)).collect();
    assert_eq!(draws[..2], [0x48f0_4efc_d891_b5ed, 0x9455_2dd5_153e_ff37]);
    assert_eq!(fold(draws), 0xeabd_c9c3_cf58_2352);
}

#[test]
fn seeded_outage_plan_draws_are_pinned() {
    // Each window takes four draws: shard, start, length, and the kind
    // and plannedness bits. Wide moduli keep almost every bit.
    let plan = OutagePlan::seeded(SEED, u32::MAX, u64::MAX, 16, u64::MAX);
    let first = plan.windows[0];
    assert_eq!(
        (first.shard, first.start, first.rounds, first.kind, first.planned),
        (562_169_066, 10_688_499_683_841_474_360, 2_057_181_395_218_387_215, OutageKind::Down, false)
    );
    let words = plan.windows.iter().flat_map(|w| {
        [
            u64::from(w.shard),
            w.start,
            w.rounds,
            u64::from(w.planned) << 1 | u64::from(w.kind == OutageKind::Partitioned),
        ]
    });
    assert_eq!(fold(words), 0x1152_fc6c_5237_a7b2);
}
