//! Wire-format pin for the platform's checkpoint codec: every byte of
//! a base cut, the delta cut after it, and the flat checkpoint after
//! both. Any change to the container framing, the frame CRC, or any
//! section encoder moves one of the three `(len, fnv)` pairs.

use faas::platform::{GcMode, Platform};
use faas::{FaultPlan, PlatformConfig};
use simos::SimTime;
use snapshot::frame::Container;

/// The platform unit tests' small host: a 1 GiB cache on 4 cores.
fn small_config() -> PlatformConfig {
    PlatformConfig {
        cache_budget: 1 << 30,
        cores: 4.0,
        ..PlatformConfig::default()
    }
}

/// Submits `n` requests for `name`, `gap_ms` apart from time zero.
fn submit_n(p: &mut Platform, name: &str, n: u64, gap_ms: u64) {
    let idx = p.function_index(name).unwrap();
    for i in 0..n {
        p.submit(SimTime(i * gap_ms * 1_000_000), idx);
    }
}

/// FNV-1a 64 of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Pins every byte of a base cut, the delta cut after it, and the
/// flat checkpoint after both. The constants were produced by the
/// encoders as they stood before `checkpoint()` and the framed cuts
/// shared one field list (`snap_tail`, `live_slots`, `cut`), so a
/// pass here shows the single encoder kept the wire format.
#[test]
fn container_and_checkpoint_bytes_are_pinned() {
    // A faulty two-function load, so the delta carries process and
    // slot tombstones beside its upserts and the tail carries a
    // live fault cursor.
    let config = PlatformConfig {
        faults: Some(FaultPlan::uniform(3, 0.15)),
        ..small_config()
    };
    let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, None);
    submit_n(&mut p, "mapreduce", 6, 900);
    submit_n(&mut p, "file-hash", 4, 1300);
    p.run_until(SimTime(3_000_000_000));
    let extra = [(Platform::FRAME_EXTRA_BASE, b"driver".to_vec())];
    let base = p.checkpoint_base(1, &extra);
    p.run_until(SimTime(9_000_000_000));
    let delta = p.checkpoint_delta(2, 1, &extra);
    let full = p.checkpoint();
    let kinds: Vec<u32> = Container::open(&delta)
        .expect("delta opens")
        .frames
        .iter()
        .map(|(k, _)| *k)
        .collect();
    for kind in [
        Platform::FRAME_PROC_TOMB,
        Platform::FRAME_PROC_DELTA,
        Platform::FRAME_SLOT_TOMB,
        Platform::FRAME_SLOT,
    ] {
        assert!(kinds.contains(&kind), "delta lacks frame kind {kind}: {kinds:?}");
    }
    assert_eq!((base.len(), fnv(&base)), (273_260, 0xd02e_223e_6ce3_6c75), "base cut");
    assert_eq!((delta.len(), fnv(&delta)), (408_657, 0xeb94_9609_caff_07e7), "delta cut");
    assert_eq!((full.len(), fnv(&full)), (527_272, 0x3fea_52d4_cc7e_fa1e), "checkpoint()");
}
