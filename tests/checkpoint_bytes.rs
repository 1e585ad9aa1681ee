//! Wire-format pins for the checkpoint codec: every byte of a base
//! cut, the delta cut after it, and the flat checkpoint after both,
//! for a vanilla Java platform and for a Desiccant-managed Java +
//! JavaScript one; plus the cluster digest and fleet front-end bytes.
//! Any change to the container framing, the frame CRC, or any record
//! encoder moves one of the `(len, fnv)` pairs.

use cluster::{Cluster, ClusterConfig, FrontEndConfig, ShardSetup};
use faas::platform::{GcMode, Platform};
use faas::{FaultPlan, OutageKind, OutagePlan, OutageWindow, PlatformConfig};
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
/// shared one field list (`snap_tail` and `cut`), so a
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

/// Pins a base cut, the delta after it, and the flat checkpoint of a
/// platform running the Desiccant manager over one Java and one
/// JavaScript function, so the V8 heap, its config, and the manager's
/// profile store and counters all sit under a pinned byte. The
/// constants were produced by the hand-written field-list encoders
/// before they moved onto `snapshot::record!`.
#[test]
fn desiccant_platform_bytes_are_pinned() {
    let config = PlatformConfig {
        cache_budget: 288 << 20,
        ..small_config()
    };
    let manager: Box<dyn faas::MemoryManager> =
        Box::new(desiccant::Desiccant::new(desiccant::DesiccantConfig::default()));
    let mut p = Platform::new(config, workloads::catalog(), GcMode::Vanilla, Some(manager));
    submit_n(&mut p, "file-hash", 8, 700);
    submit_n(&mut p, "dynamic-html", 8, 500);
    p.run_until(SimTime(6_000_000_000));
    let extra = [(Platform::FRAME_EXTRA_BASE, b"driver".to_vec())];
    let base = p.checkpoint_base(1, &extra);
    let html = p.function_index("dynamic-html").unwrap();
    for i in 0..4 {
        p.submit(SimTime(6_000_000_000 + i * 900_000_000), html);
    }
    p.run_until(SimTime(14_000_000_000));
    let delta = p.checkpoint_delta(2, 1, &extra);
    let full = p.checkpoint();
    assert!(p.stats().reclamations > 0, "the manager never reclaimed");
    assert_eq!((base.len(), fnv(&base)), (246_864, 0x3391_e5dc_00f4_c691), "base cut");
    assert_eq!((delta.len(), fnv(&delta)), (104_672, 0x2cf6_9a35_2f7b_1305), "delta cut");
    assert_eq!((full.len(), fnv(&full)), (252_204, 0x5caa_e68f_bb60_404a), "checkpoint()");
}

/// Pins the cluster digest and the fleet-level front-end bytes after a
/// short 4-shard Desiccant replay with hedging and one `Down` window,
/// so the router rows, health trackers, retry queue and front-end
/// counters all sit under a pinned byte.
#[test]
fn cluster_digest_and_frontend_bytes_are_pinned() {
    let mut setup = ShardSetup::vanilla();
    setup.platform = PlatformConfig {
        cache_budget: 2 << 30,
        ..PlatformConfig::default()
    };
    setup.manager =
        |_| Some(Box::new(desiccant::Desiccant::new(desiccant::DesiccantConfig::default())));
    let cfg = ClusterConfig {
        shards: 4,
        frontend: FrontEndConfig {
            hedge: true,
            ..FrontEndConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(cfg, &setup);
    c.set_outage_plan(OutagePlan::new(vec![OutageWindow {
        shard: 1,
        start: 3,
        rounds: 2,
        kind: OutageKind::Down,
        planned: false,
    }]));
    let n = setup.catalog.len() as u64;
    for i in 0..160u64 {
        c.enqueue(SimTime(i * 90_000_000), ((i * 7 + i / 5) % n) as usize);
    }
    c.advance_to(SimTime(20_000_000_000));
    let totals = c.totals();
    assert!(totals.heals > 0 && totals.hedges > 0 && totals.retries > 0, "{totals:?}");
    let front = c.frontend_bytes();
    assert_eq!(c.digest(), 0x27a6_e258_92e1_5479, "cluster digest");
    assert_eq!((front.len(), fnv(&front)), (1_601, 0x2bb6_b737_928d_d0a4), "frontend_bytes()");
}
