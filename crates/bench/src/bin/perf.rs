//! Perf harness: the incremental checkpoint model
//! (`BENCH_checkpoint.json`).
//!
//! A platform is loaded with a warm steady state of ~2^16 frozen
//! instances, then a full base checkpoint and an O(dirty) delta (after
//! thawing a small working set) are written once each: bytes and wall
//! time for both, and the base/delta size ratio the acceptance gate
//! rides on. The result is machine-readable JSON so every later
//! change can diff its numbers against the committed file at repo root.
//!
//! Event-loop and replay speed are measured end to end by the
//! `replay_desiccant` and `replay_vanilla_saturated` workloads of the
//! repository benchmark (`BENCHMARK.json`), not here.
//!
//! Timing is wall-clock by necessity — this binary measures host
//! performance, not simulated behavior — so the numbers never feed
//! back into results.
//!
//! Flags: `--quick` (1/16th the instances, for the tier-1 smoke run),
//! `--out-dir DIR` (default `.`), `--check` (assert the delta is
//! smaller than the base and the chain restores canonically).

#![forbid(unsafe_code)]

use std::path::Path;

use bench::cli::{check, Flags};
use bench::report::{json_num, timed, write_json};
use faas::platform::{GcMode, Platform};
use faas::PlatformConfig;
use simos::{SimDuration, SimTime};

fn main() {
    let flags = Flags::parse(&[], &["--out-dir"]);
    let out_dir = flags.value_of("--out-dir").unwrap_or(".").to_string();
    let dir = Path::new(&out_dir);

    // Warm steady state: every request runs immediately (cores exceed
    // the request count) and freezes, so the platform ends up holding
    // about two instances per submitted request (chains have stages).
    // Full mode lands near the 2^16-instance scale the trajectory
    // tracks; quick mode keeps the same shape at 1/16th the size.
    let requests: usize = if flags.quick { 1 << 11 } else { 1 << 15 };
    let dirty_requests: usize = if flags.quick { 64 } else { 256 };
    let ckpt_config = || PlatformConfig {
        cores: requests as f64 + 16.0,
        cache_budget: 1 << 44,
        ..PlatformConfig::default()
    };
    let catalog = workloads::catalog();
    let nf = catalog.len();
    let mut p = Platform::new(ckpt_config(), catalog, GcMode::Vanilla, None);
    for i in 0..requests {
        p.submit(SimTime(0), i % nf);
    }
    p.run_until(SimTime(3_600_000_000_000));
    let instances = p.instance_count();
    check(
        &flags,
        p.stats().completed == requests as u64,
        "checkpoint model: every warm-up request completed",
    );
    let (full_secs, full) = timed(|| p.checkpoint_base(1, &[]));
    // Thaw a small working set; only those instances (plus the always-
    // full control section) may appear in the delta.
    for i in 0..dirty_requests {
        p.submit(p.now(), i % nf);
    }
    p.run_until(p.now() + SimDuration::from_secs(3600));
    let (delta_secs, delta) = timed(|| p.checkpoint_delta(2, 1, &[]));
    let ratio = full.len() as f64 / delta.len().max(1) as f64;
    println!(
        "checkpoint model ({instances} instances): full {} bytes in {:.1} ms, \
         delta {} bytes in {:.1} ms after {dirty_requests} warm requests ({ratio:.1}x smaller)",
        full.len(),
        full_secs * 1e3,
        delta.len(),
        delta_secs * 1e3,
    );
    check(
        &flags,
        delta.len() * 4 < full.len(),
        "checkpoint model: delta writes measurably fewer bytes than the base",
    );
    // The chain must fold back to the canonical bytes of the platform
    // it was cut from — the incremental path may never trade speed for
    // fidelity.
    let canonical = p.checkpoint();
    let mut q = Platform::new(ckpt_config(), workloads::catalog(), GcMode::Vanilla, None);
    let folded = q
        .restore_chain(&[full.clone(), delta.clone()])
        .map(|_| q.checkpoint() == canonical)
        .unwrap_or(false);
    check(
        &flags,
        folded,
        "checkpoint model: base+delta fold restores the canonical state",
    );
    write_json(
        dir,
        "BENCH_checkpoint.json",
        &format!(
            "{{\n  \"bench\": \"incremental_checkpoint\",\n  \
             \"quick\": {},\n  \
             \"requests\": {requests},\n  \
             \"instances\": {instances},\n  \
             \"dirty_requests\": {dirty_requests},\n  \
             \"full_bytes\": {},\n  \
             \"delta_bytes\": {},\n  \
             \"full_over_delta_bytes\": {},\n  \
             \"full_checkpoint_ns\": {},\n  \
             \"delta_checkpoint_ns\": {}\n}}\n",
            flags.quick,
            full.len(),
            delta.len(),
            json_num(ratio),
            json_num(full_secs * 1e9),
            json_num(delta_secs * 1e9),
        ),
    );
}
