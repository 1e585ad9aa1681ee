//! Chaos harness: replays fig9-style Azure traces under seeded fault
//! schedules and asserts the platform's robustness invariants.
//!
//! For each fault seed the trace is replayed with every fault class
//! enabled at `--fault-rate` (default 1 %), then the platform is given
//! a settle window (the retry deadline plus slack) so every retry
//! chain resolves. Invariants, enforced with `--check`:
//!
//! * **termination** — every submitted request ends completed or
//!   failed; nothing is in flight after the settle window;
//! * **accounting** — cache charge returns exactly to zero on
//!   teardown and no simulated process survives (`Platform::shutdown`);
//! * **memory conservation** — machine-wide USS ≤ PSS ≤ RSS while
//!   instances live, and all three are zero after teardown: crash and
//!   OOM-kill paths may not leak or double-free pages;
//! * **determinism** — the same `(seed, rate)` replays to identical
//!   counters;
//! * **bounded degradation** — at a 1 % fault rate, completions stay
//!   within a bounded factor of the fault-free run.
//!
//! With `--crash-every N` or `--crash-at N` the harness additionally
//! runs the **kill–recover gate**: the replay is driven through the
//! resumable protocol — incremental base+delta checkpoints written to
//! a simulated store — the event loop is killed on the given schedule,
//! and each death is recovered from the newest verifiable checkpoint
//! chain plus the journaled requests. The gate passes only if the
//! recovered run's final state digests byte-identical to an
//! uninterrupted control — crashes must be invisible in the results —
//! and the control itself must end in the same state and outcome as a
//! plain `replay` of the same configuration.
//!
//! `--torn-write` additionally tears checkpoint writes at frame
//! boundaries on a seeded schedule, and `--corrupt-at N` flips a bit
//! at byte offset `N` of *every* checkpoint written — recovery then
//! falls back to older checkpoints, or all the way to a from-scratch
//! journal replay, and the digest must still match the control.
//!
//! Flags: `--quick`, `--check`, `--fault-seed N` (single seed instead
//! of the default sweep), `--fault-rate R`, `--crash-every N`,
//! `--crash-at N`, `--torn-write`, `--corrupt-at N`.

#![forbid(unsafe_code)]

use azure_trace::{build_trace, replay, replay_resumable, ReplayConfig};
use bench::cli::{check, Flags};
use bench::golden::platform;
use bench::report;
use cluster::{fnv64_bytes, fnv64_update};
use faas::{CrashPlan, FaultPlan, PlatformConfig, StorageFaultPlan};
use simos::metrics::{total_pss, total_rss, total_uss};
use simos::SimDuration;

/// Everything one run exposes to the invariant checks.
#[derive(Debug, Clone, PartialEq)]
struct RunProbe {
    submitted: u64,
    completed: u64,
    failed: u64,
    retries: u64,
    fault_events: u64,
    breaker_trips: u64,
    oom_kills: u64,
    in_flight: u64,
    /// Machine USS/PSS/RSS ordering held while instances were live.
    metrics_ordered: bool,
    /// `shutdown()` succeeded: cache charge and process table at zero.
    clean_teardown: bool,
    /// Machine RSS and PSS after teardown (must be zero).
    residual_rss: u64,
    residual_pss_bytes: u64,
}

fn run_one(mode: &str, quick: bool, faults: Option<FaultPlan>) -> RunProbe {
    let trace = build_trace(&workloads::catalog(), 7);
    let platform_config = PlatformConfig {
        faults,
        ..PlatformConfig::default()
    };
    let mut p = platform(mode, platform_config);
    let config = ReplayConfig {
        scale: 15.0,
        warmup: SimDuration::from_secs(if quick { 10 } else { 30 }),
        duration: SimDuration::from_secs(if quick { 40 } else { 120 }),
        drain: SimDuration::from_secs(20),
        ..ReplayConfig::default()
    };
    replay(&mut p, &trace, &config);
    // Let every retry chain resolve: no retry is ever scheduled past
    // its arrival plus the request deadline, so deadline-plus-slack of
    // idle simulation guarantees quiescence.
    let settle = p.config().request_deadline + p.config().retry_backoff_cap;
    p.run_until(p.now() + settle);

    let sys = p.system();
    let (uss, pss, rss) = (total_uss(sys), total_pss(sys), total_rss(sys));
    let metrics_ordered = uss as f64 <= pss + 1e-6 && pss <= rss as f64 + 1e-6;
    let stats = p.stats().clone();
    // Lifetime totals (warm-up included): the conservation invariant
    // must hold over every request the platform ever accepted, not
    // just the measured window.
    let (submitted, completed, failed) = p.request_totals();
    let in_flight = p.in_flight();
    let clean_teardown = match p.shutdown() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("shutdown failed ({mode}): {e}");
            false
        }
    };
    let sys = p.system();
    RunProbe {
        submitted,
        completed,
        failed,
        retries: stats.retries,
        fault_events: stats.fault_events(),
        breaker_trips: stats.breaker_trips,
        oom_kills: stats.oom_kills,
        in_flight,
        metrics_ordered,
        clean_teardown,
        residual_rss: total_rss(sys),
        residual_pss_bytes: total_pss(sys).round() as u64,
    }
}

/// Digests a resumable run: the full final-state checkpoint plus every
/// reported metric, so a recovered run must match the control in both
/// simulation state and measured results.
fn resume_digest(out: &azure_trace::ResumeOutcome) -> u64 {
    let o = &out.outcome;
    let (p50, p90, p95, p99) = o.latency_ms;
    let mut h = fnv64_bytes(&out.final_state);
    for word in [
        o.submitted,
        o.completed,
        o.cold_boot_rate.to_bits(),
        o.cold_boot_fraction.to_bits(),
        o.throughput.to_bits(),
        o.cpu_utilization.to_bits(),
        o.reclaim_cpu_fraction.to_bits(),
        o.evictions,
        o.failed,
        o.retries,
        o.fault_events,
        p50.to_bits(),
        p90.to_bits(),
        p95.to_bits(),
        p99.to_bits(),
    ] {
        fnv64_update(&mut h, &word.to_le_bytes());
    }
    h
}

/// The kill–recover gate: drive the resumable replay, kill it on
/// `crash`'s schedule — with `storage` additionally corrupting the
/// checkpoint writes — recover from the newest verifiable checkpoint
/// chain + journal, and demand the final state digest byte-identical
/// to an uninterrupted (and storage-fault-free) control.
fn kill_recover_gate(flags: &Flags, crash: CrashPlan, storage: Option<StorageFaultPlan>) {
    report::caption(
        "Kill-recover: crash on schedule, restore checkpoint chain, replay journal",
        &["mode", "recoveries", "scratch", "store_faults", "control", "recovered"],
    );
    for mode in ["vanilla", "desiccant"] {
        let make = || platform(mode, PlatformConfig::default());
        let trace = build_trace(&workloads::catalog(), 7);
        let config = ReplayConfig {
            scale: 15.0,
            warmup: SimDuration::from_secs(if flags.quick { 8 } else { 30 }),
            duration: SimDuration::from_secs(if flags.quick { 30 } else { 120 }),
            drain: SimDuration::from_secs(20),
            ..ReplayConfig::default()
        };
        let control = replay_resumable(make, &trace, &config, None, None);
        // The resumable protocol is the plain one, cut into rounds: the
        // uninterrupted control must end where a plain `replay` does.
        let mut plain = make();
        let plain_outcome = replay(&mut plain, &trace, &config);
        check(
            flags,
            control.final_state == plain.checkpoint() && control.outcome == plain_outcome,
            &format!("{mode}: uninterrupted control matches plain replay"),
        );
        let recovered = replay_resumable(make, &trace, &config, storage, Some(crash));
        let (dc, dr) = (resume_digest(&control), resume_digest(&recovered));
        report::row(&[
            mode.into(),
            format!("{}", recovered.recoveries),
            format!("{}", recovered.scratch_recoveries),
            format!("{}", recovered.storage_faults_injected),
            format!("{dc:016x}"),
            format!("{dr:016x}"),
        ]);
        check(
            flags,
            control.recoveries == 0,
            &format!("{mode}: control run was never killed"),
        );
        check(
            flags,
            recovered.recoveries > 0,
            &format!("{mode}: crash schedule fired at least once"),
        );
        if storage.is_some() {
            check(
                flags,
                recovered.storage_faults_injected > 0,
                &format!("{mode}: storage fault plan fired at least once"),
            );
        }
        check(
            flags,
            dc == dr,
            &format!("{mode}: recovered digest matches uninterrupted control"),
        );
        // The recovered state must also tear down clean: restore it
        // into a fresh platform and demand zero residue.
        let mut p = make();
        let restored = p.restore(&recovered.final_state).is_ok();
        let clean = restored && p.shutdown().is_ok();
        let sys = p.system();
        check(
            flags,
            clean && total_rss(sys) == 0 && total_pss(sys).round() as u64 == 0,
            &format!("{mode}: shutdown after restore leaves no residue"),
        );
    }
}

/// The typed value of `flag`, if given; a missing or malformed value
/// exits 2 with a message naming the flag.
fn value<T: std::str::FromStr>(flags: &Flags, flag: &str) -> Option<T> {
    flags.parsed(flag).unwrap_or_else(|e| {
        eprintln!("chaos: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let flags = Flags::parse(
        &["--torn-write"],
        &["--fault-seed", "--fault-rate", "--crash-every", "--crash-at", "--corrupt-at"],
    );
    let (crash_every, crash_at) = (value(&flags, "--crash-every"), value(&flags, "--crash-at"));
    let crash = crash_every.map(CrashPlan::every).or(crash_at.map(CrashPlan::at));
    let rate: f64 = value(&flags, "--fault-rate").unwrap_or(0.01);
    let corrupt_at = value(&flags, "--corrupt-at");
    let seeds: Vec<u64> = match value(&flags, "--fault-seed") {
        Some(seed) => vec![seed],
        None => vec![11, 23, 47],
    };
    let modes = ["vanilla", "desiccant"];
    report::caption(
        "Chaos: seeded fault schedules over an Azure-trace replay",
        &[
            "seed",
            "mode",
            "rate",
            "submitted",
            "completed",
            "failed",
            "retries",
            "fault_events",
            "breaker_trips",
            "oom_kills",
        ],
    );

    // Fault-free baselines: both for the degradation bound and as a
    // standing inertness check of the fault machinery.
    let mut baseline = Vec::new();
    for mode in modes {
        let probe = run_one(mode, flags.quick, None);
        report::row(&[
            "-".into(),
            mode.into(),
            "0".into(),
            format!("{}", probe.submitted),
            format!("{}", probe.completed),
            format!("{}", probe.failed),
            format!("{}", probe.retries),
            format!("{}", probe.fault_events),
            format!("{}", probe.breaker_trips),
            format!("{}", probe.oom_kills),
        ]);
        check(
            &flags,
            probe.failed == 0 && probe.retries == 0 && probe.fault_events == 0,
            &format!("{mode}: fault-free run reports zero failures"),
        );
        check(
            &flags,
            probe.submitted == probe.completed && probe.in_flight == 0,
            &format!("{mode}: fault-free run completes every request"),
        );
        check(
            &flags,
            probe.clean_teardown && probe.residual_rss == 0 && probe.residual_pss_bytes == 0,
            &format!("{mode}: fault-free teardown leaves no residue"),
        );
        baseline.push((mode, probe));
    }

    let mut total_fault_events = 0u64;
    for &seed in &seeds {
        let plan = FaultPlan::uniform(seed, rate);
        for (mode, base) in &baseline {
            let probe = run_one(mode, flags.quick, Some(plan));
            report::row(&[
                format!("{seed}"),
                (*mode).into(),
                format!("{rate}"),
                format!("{}", probe.submitted),
                format!("{}", probe.completed),
                format!("{}", probe.failed),
                format!("{}", probe.retries),
                format!("{}", probe.fault_events),
                format!("{}", probe.breaker_trips),
                format!("{}", probe.oom_kills),
            ]);
            total_fault_events += probe.fault_events;
            check(
                &flags,
                probe.completed + probe.failed == probe.submitted && probe.in_flight == 0,
                &format!("seed {seed} {mode}: every request terminates"),
            );
            check(
                &flags,
                probe.metrics_ordered,
                &format!("seed {seed} {mode}: machine USS <= PSS <= RSS held"),
            );
            check(
                &flags,
                probe.clean_teardown,
                &format!("seed {seed} {mode}: cache accounting returns to zero"),
            );
            check(
                &flags,
                probe.residual_rss == 0 && probe.residual_pss_bytes == 0,
                &format!("seed {seed} {mode}: no resident memory survives teardown"),
            );
            if rate <= 0.011 {
                // Bounded degradation at the default 1 % rate: a small
                // fault rate may not halve throughput.
                check(
                    &flags,
                    probe.completed as f64 >= 0.9 * base.completed as f64,
                    &format!("seed {seed} {mode}: completions within 0.9x of fault-free"),
                );
            }
            // Determinism: an identical plan must replay identically.
            let again = run_one(mode, flags.quick, Some(plan));
            check(
                &flags,
                again == probe,
                &format!("seed {seed} {mode}: replay is deterministic"),
            );
        }
    }
    check(
        &flags,
        seeds.is_empty() || rate == 0.0 || total_fault_events > 0,
        "seeded runs actually injected faults",
    );

    if let Some(plan) = crash {
        // Storage-fault schedule for the checkpoint store, if any: a
        // seeded torn-write schedule, or a pinned bit flip in every
        // checkpoint written (recovery then replays the journal from
        // nothing — and must still digest identical to the control).
        let storage_seed = seeds.first().copied().unwrap_or(11);
        let storage = if let Some(offset) = corrupt_at {
            Some(StorageFaultPlan::corrupt_at(storage_seed, offset))
        } else if flags.has("--torn-write") {
            Some(StorageFaultPlan::torn(storage_seed, 0.5))
        } else {
            None
        };
        kill_recover_gate(&flags, plan, storage);
    }
}
