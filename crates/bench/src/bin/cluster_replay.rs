//! Cluster replay harness: the `BENCH_cluster.json` and
//! `BENCH_availability.json` trajectories.
//!
//! Plain mode runs the Azure-trace replay protocol over a sharded
//! [`Cluster`] at several worker counts and reports wall time per
//! count, the speedup against the serial (`jobs = 1`) run, and the
//! determinism oracle: every job count must land on the byte-identical
//! cluster digest, and a run with one shard killed and recovered
//! mid-replay must land on the digest of its uninterrupted control.
//!
//! `--outage` and `--partition` run the fleet failure-domain gates:
//! the same replay with a seeded shard outage window (`Down` or
//! `Partitioned`), checked for digest invariance across worker counts,
//! digest identity between a kill+outage run and its kill-free control
//! with the same plan, request conservation, heal accounting, warm-set
//! drain ahead of a planned outage, and the availability SLO (hedged
//! retries keep the success rate through the window, while a
//! retry-less control demonstrably loses requests). Both also bound
//! durable state: no shard's checkpoint store may ever hold more than
//! `2 × base_every + 1` objects in these fault-free-storage runs.
//! `--outage` also writes `BENCH_availability.json`, with the stores'
//! high-water mark.
//!
//! Every replay prints its request-conservation accounting line
//! (`conservation OK: …`), which `scripts/tier1.sh` greps for.
//!
//! Timing is wall-clock by necessity — the harness measures host
//! scaling, not simulated behavior — and every timed run is the
//! identical deterministic simulation (asserted on the digests), so
//! the numbers never feed back into results.
//!
//! The `--check` scaling floor (≥ [`CHECK_FLOOR_SPEEDUP`]x at 4 jobs)
//! is enforced only when the host actually has 4 cores to scale onto;
//! on smaller hosts the floor is waived with a note and `host_cores`
//! is recorded in the JSON so the committed numbers are interpretable.

#![forbid(unsafe_code)]

use std::path::Path;

use azure_trace::{build_trace, replay_cluster, ClusterReplayOutcome, ReplayConfig};
use bench::cli::{check, Flags};
use bench::report::{json_num, timed, write_json};
use cluster::{
    AvailabilityReport, Cluster, ClusterConfig, FrontEndConfig, Placement, ShardSetup,
};
use desiccant::{Desiccant, DesiccantConfig};
use faas::{CrashPlan, MemoryManager, OutageKind, OutagePlan, OutageWindow, Retention};
use simos::SimDuration;

/// Shards in the simulated cluster.
const SHARDS: u32 = 8;

/// Worker counts swept (first entry is the serial baseline).
const JOBS: &[usize] = &[1, 2, 4];

/// Scaling floor `--check` enforces at 4 jobs on hosts with ≥ 4
/// cores. The acceptance target, not a stretch goal: the barrier
/// protocol serializes only placement and merge, so 8 shards on 4
/// cores have ample parallel work.
const CHECK_FLOOR_SPEEDUP: f64 = 1.5;

/// The seeded outage window the failure-domain gates replay: shard 5
/// (the busiest hash-affinity home for the seed-13 trace) unreachable
/// for rounds 6–8 (12 s–18 s at the 2 s default round), inside the
/// measured window for both the quick and full scenarios.
const OUT_SHARD: u32 = 5;
const OUT_START: u64 = 6;
const OUT_ROUNDS: u64 = 3;

/// Availability SLO the hedged outage run must clear under `--check`.
const SLO_SUCCESS: f64 = 0.999;

fn usage() {
    println!(
        "cluster_replay — sharded replay: scaling sweep, determinism \
         oracle, and fleet failure-domain gates\n\
         \n\
         USAGE: cluster_replay [FLAGS]\n\
         \n\
         Common flags:\n\
         \x20 --quick         smaller trace (the tier-1 smoke \
         configuration)\n\
         \x20 --check         assert the determinism / conservation / \
         SLO invariants; exit non-zero on violation\n\
         \x20 --out-dir DIR   where the BENCH_*.json artifacts go \
         (default `.`)\n\
         \x20 --jobs N        unused here; the harness sweeps its own \
         worker counts ({JOBS:?})\n\
         \x20 --help          this text\n\
         \n\
         Availability gates (fleet failure domains):\n\
         \x20 --outage        replay with shard {OUT_SHARD} Down for rounds \
         {OUT_START}..{}: digest invariance across --jobs 1/2/4 and vs a \
         kill+outage run, durable-store heal accounting, planned-drain \
         migration check, hedged-vs-bare SLO comparison, checkpoint-store \
         bound (2 x base_every + 1 objects per shard); writes \
         BENCH_availability.json\n\
         \x20 --partition     same window as a Partitioned \
         (reachability-only) fault: the shard keeps executing, nothing \
         heals through the store\n\
         \n\
         Every run prints its `conservation OK: …` accounting line; the \
         tier-1 gate greps for it.\n\
         \n\
         Jobs-sweep note: the plain-mode scaling floor \
         ({CHECK_FLOOR_SPEEDUP}x at 4 jobs) is waived on hosts with \
         fewer than 4 cores — a 1-core host cannot demonstrate 4-way \
         scaling, so the floor is not enforced there and `host_cores` \
         is recorded in BENCH_cluster.json instead. The availability \
         gates are pure determinism/accounting checks and run \
         everywhere, core count notwithstanding.",
        OUT_START + OUT_ROUNDS,
    );
}

fn desiccant_manager(_shard: u32) -> Option<Box<dyn MemoryManager>> {
    Some(Box::new(Desiccant::new(DesiccantConfig::default())))
}

fn scenario(quick: bool) -> ReplayConfig {
    if quick {
        ReplayConfig {
            warmup: SimDuration::from_secs(6),
            duration: SimDuration::from_secs(16),
            drain: SimDuration::from_secs(8),
            scale: 10.0,
            warmup_scale: 10.0,
            seed: 17,
        }
    } else {
        ReplayConfig {
            warmup: SimDuration::from_secs(15),
            duration: SimDuration::from_secs(90),
            drain: SimDuration::from_secs(15),
            scale: 15.0,
            warmup_scale: 15.0,
            seed: 17,
        }
    }
}

fn cluster_with(jobs: usize, policy: Placement, frontend: FrontEndConfig) -> Cluster {
    let mut setup = ShardSetup::vanilla();
    setup.manager = desiccant_manager;
    let cfg = ClusterConfig {
        shards: SHARDS,
        policy,
        jobs,
        frontend,
        ..ClusterConfig::default()
    };
    Cluster::new(cfg, &setup)
}

fn cluster(jobs: usize, frontend: FrontEndConfig) -> Cluster {
    cluster_with(jobs, Placement::ColdStartAware, frontend)
}

/// One full replay at `jobs` workers: best-of-`rounds` wall
/// milliseconds, the (jobs-invariant) outcome, and the total event
/// count — the scale kill schedules are sized against. Prints the
/// conservation accounting line of the last round.
fn run(jobs: usize, rounds: u32, quick: bool) -> (f64, ClusterReplayOutcome, u64) {
    let config = scenario(quick);
    let trace = build_trace(&workloads::catalog(), 13);
    let mut best = f64::INFINITY;
    let mut outcome = None;
    let mut line = String::new();
    let mut events = 0;
    for _ in 0..rounds {
        let mut c = cluster(jobs, FrontEndConfig::default());
        let (secs, out) = timed(|| replay_cluster(&mut c, &trace, &config));
        best = best.min(secs * 1e3);
        outcome = Some(out);
        line = c.availability().conservation_line();
        events = c.events_seen();
    }
    println!("{line}");
    (best, outcome.expect("at least one round"), events)
}

/// One failure-domain replay: outage plan plus optional kill schedule
/// on the outage shard, with its conservation line printed. Folds the
/// shards' checkpoint-store high-water mark into `store`.
fn run_faulted(
    jobs: usize,
    quick: bool,
    frontend: FrontEndConfig,
    plan: Option<OutagePlan>,
    kill_every: Option<u64>,
    store: &mut Retention,
) -> (ClusterReplayOutcome, AvailabilityReport, u64) {
    let config = scenario(quick);
    let trace = build_trace(&workloads::catalog(), 13);
    // Hash affinity pins each function to its home shard, so the
    // seeded window reliably strands (and then rescues) real traffic;
    // a load-adaptive policy at smoke scale can route around the dark
    // shard entirely and leave the retry machinery untested.
    let mut c = cluster_with(jobs, Placement::HashAffinity, frontend);
    if let Some(plan) = plan {
        c.set_outage_plan(plan);
    }
    if let Some(every) = kill_every {
        c.plan_kill(OUT_SHARD, CrashPlan::every(every));
    }
    let out = replay_cluster(&mut c, &trace, &config);
    let avail = c.availability();
    println!("{}", avail.conservation_line());
    *store = store.merge(c.store_high_water());
    (out, avail, c.events_seen())
}

/// The most objects a shard's checkpoint store may hold with
/// fault-free writes: the chain a recovery restores, the chain before
/// it, and the cut in flight.
fn store_bound() -> usize {
    2 * ClusterConfig::default().cadence.base_every + 1
}

/// Checks the checkpoint-store high-water mark of the fault-free runs
/// so far against [`store_bound`]: a deterministic count.
fn store_gate(flags: &Flags, store: Retention) {
    println!(
        "checkpoint store high water: {} objects (bound {}), {} bytes",
        store.objects,
        store_bound(),
        store.bytes
    );
    check(
        flags,
        store.objects <= store_bound(),
        "no shard's fault-free checkpoint store outgrew 2 x base_every + 1 objects",
    );
}

fn window(kind: OutageKind, planned: bool) -> OutagePlan {
    OutagePlan::new(vec![OutageWindow {
        shard: OUT_SHARD,
        start: OUT_START,
        rounds: OUT_ROUNDS,
        kind,
        planned,
    }])
}

fn ms(d: Option<SimDuration>) -> f64 {
    d.map_or(f64::NAN, |d| d.0 as f64 / 1e6)
}

fn slo_block(r: &AvailabilityReport) -> String {
    format!(
        "{{\n      \"success_rate\": {},\n      \"p50_ms\": {},\n      \
         \"p99_ms\": {},\n      \"delivered\": {},\n      \
         \"failed\": {},\n      \"retries\": {},\n      \
         \"hedges\": {},\n      \"hedge_wins\": {}\n    }}",
        json_num(r.success_rate),
        json_num(ms(r.p50)),
        json_num(ms(r.p99)),
        r.stats.delivered,
        r.stats.failed(),
        r.stats.retries,
        r.stats.hedges,
        r.stats.hedge_wins,
    )
}

/// The `--outage` / `--partition` gate: digest invariance, kill
/// identity, conservation, heal accounting, and (for `Down`) the
/// planned-drain and SLO checks with the `BENCH_availability.json`
/// artifact.
fn failure_domain_gate(flags: &Flags, kind: OutageKind, dir: &Path) {
    let kind_name = kind.name();
    println!("== failure domains: {kind_name} window on shard {OUT_SHARD} ==");
    let hedged = FrontEndConfig {
        hedge: true,
        ..FrontEndConfig::default()
    };

    // Jobs sweep under the outage: one outcome, any worker count.
    let mut sweep = Vec::new();
    let mut events = 0;
    let mut store = Retention::default();
    for &jobs in JOBS {
        let (out, avail, ev) =
            run_faulted(jobs, flags.quick, hedged, Some(window(kind, false)), None, &mut store);
        println!(
            "{kind_name} outage ({jobs} jobs): {} delivered, {} retries, \
             {} heals, digest {:#018x}",
            out.totals.delivered, out.totals.retries, out.totals.heals, out.digest
        );
        check(flags, avail.conservation_holds(), "outage run conserves every request");
        events = ev;
        sweep.push((jobs, out, avail));
    }
    let (base, base_avail) = (sweep[0].1, sweep[0].2.clone());
    for (jobs, out, _) in &sweep {
        check(
            flags,
            *out == base,
            "outage digest is byte-identical at every job count",
        );
        if *out != base {
            eprintln!("jobs={jobs} diverged under {kind_name}: {out:?} vs {base:?}");
        }
    }
    check(flags, base.totals.outage_rounds > 0, "the outage window darkened rounds");
    check(flags, base.totals.retries > 0, "stranded requests retried");
    check(
        flags,
        base.totals.pending_retries == 0,
        "no request is still stranded after the drain",
    );
    match kind {
        OutageKind::Down => check(
            flags,
            base.totals.heals > 0,
            "a Down shard healed through its durable checkpoint store",
        ),
        OutageKind::Partitioned => check(
            flags,
            base.totals.heals == 0,
            "a partition needs no state rebuild (heals stay zero)",
        ),
    }

    // Kill + outage must land on the kill-free control's digest.
    let kill_every = (events / u64::from(SHARDS) / 6).max(40);
    let (chaos, chaos_avail, _) = run_faulted(
        2,
        flags.quick,
        hedged,
        Some(window(kind, false)),
        Some(kill_every),
        &mut store,
    );
    println!(
        "{kind_name} + kill (shard {OUT_SHARD} every {kill_every} events): \
         {} recoveries, digest {:#018x}",
        chaos.totals.recoveries, chaos.digest
    );
    check(flags, chaos_avail.conservation_holds(), "kill+outage run conserves every request");
    check(flags, chaos.totals.recoveries > 0, "the kill schedule fired at least once");
    // The recovery counters themselves differ by construction; every
    // state-derived field must not.
    check(
        flags,
        chaos.digest == base.digest
            && chaos.totals.completed == base.totals.completed
            && chaos.totals.delivered == base.totals.delivered
            && chaos.totals.retries == base.totals.retries,
        "kill + outage digests identical to the kill-free control with the same plan",
    );

    if kind != OutageKind::Down {
        store_gate(flags, store);
        return;
    }

    // Planned maintenance: announcing the window one round ahead must
    // drain the warm set — strictly more migrations than the same
    // window hitting unannounced.
    let (planned, planned_avail, _) =
        run_faulted(2, flags.quick, hedged, Some(window(kind, true)), None, &mut store);
    println!(
        "planned drain: {} migrations vs {} unplanned",
        planned.migrations, base.migrations
    );
    check(flags, planned_avail.conservation_holds(), "planned-drain run conserves every request");
    check(
        flags,
        planned.migrations > base.migrations,
        "a planned outage drains the warm set before going dark",
    );

    // SLO gate: with hedging + retries the outage is invisible to the
    // success rate; with neither, requests demonstrably die.
    let bare = FrontEndConfig {
        hedge: false,
        max_retries: 0,
        ..FrontEndConfig::default()
    };
    let (bare_out, bare_avail, _) =
        run_faulted(2, flags.quick, bare, Some(window(kind, false)), None, &mut store);
    let (_, ctrl_avail, _) = run_faulted(2, flags.quick, hedged, None, None, &mut store);
    println!(
        "availability: fault-free {:.4}, hedged outage {:.4} \
         (p99 {:.1} ms, {} hedge wins), bare outage {:.4} ({} failed)",
        ctrl_avail.success_rate,
        base_avail.success_rate,
        ms(base_avail.p99),
        base_avail.stats.hedge_wins,
        bare_avail.success_rate,
        bare_out.totals.frontend_failed(),
    );
    check(flags, bare_avail.conservation_holds(), "bare run conserves every request");
    check(flags, ctrl_avail.conservation_holds(), "fault-free control conserves every request");
    check(
        flags,
        base_avail.success_rate >= SLO_SUCCESS,
        "hedged retries hold the availability SLO through the outage",
    );
    check(
        flags,
        base_avail.stats.hedge_wins > 0,
        "hedge copies rescued requests from the suspect shard",
    );
    check(
        flags,
        bare_out.totals.frontend_failed() > 0,
        "without retries or hedging the outage visibly loses requests",
    );
    store_gate(flags, store);

    write_json(
        dir,
        "BENCH_availability.json",
        &format!(
            "{{\n  \"bench\": \"cluster_availability\",\n  \
             \"quick\": {},\n  \
             \"shards\": {SHARDS},\n  \
             \"policy\": \"hash_affinity\",\n  \
             \"outage\": {{\"shard\": {OUT_SHARD}, \"start\": {OUT_START}, \
             \"rounds\": {OUT_ROUNDS}, \"kind\": \"{kind_name}\"}},\n  \
             \"outage_shard_rounds\": {},\n  \"heals\": {},\n  \
             \"kill_every\": {kill_every},\n  \"kill_recoveries\": {},\n  \
             \"planned_drain_migrations\": {},\n  \
             \"unplanned_migrations\": {},\n  \
             \"slo_success_floor\": {},\n  \
             \"fault_free\": {},\n  \
             \"outage_hedged\": {},\n  \
             \"outage_bare\": {},\n  \
             \"store_high_water\": {{\"objects\": {}, \"bound\": {}, \"bytes\": {}}},\n  \
             \"digest\": \"{:#018x}\"\n}}\n",
            flags.quick,
            base.totals.outage_rounds,
            base.totals.heals,
            chaos.totals.recoveries,
            planned.migrations,
            base.migrations,
            json_num(SLO_SUCCESS),
            slo_block(&ctrl_avail),
            slo_block(&base_avail),
            slo_block(&bare_avail),
            store.objects,
            store_bound(),
            store.bytes,
            base.digest,
        ),
    );
}

fn main() {
    let flags = Flags::parse(&["--help", "--outage", "--partition"], &["--out-dir"]);
    if flags.has("--help") {
        usage();
        return;
    }
    let out_dir = flags.value_of("--out-dir").unwrap_or(".").to_string();
    let dir = Path::new(&out_dir);
    let rounds: u32 = if flags.quick { 1 } else { 3 };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    if flags.has("--outage") {
        failure_domain_gate(&flags, OutageKind::Down, dir);
        return;
    }
    if flags.has("--partition") {
        failure_domain_gate(&flags, OutageKind::Partitioned, dir);
        return;
    }

    // --- Jobs sweep ----------------------------------------------------
    let mut sweep = Vec::new();
    for &jobs in JOBS {
        let (ms, outcome, events) = run(jobs, rounds, flags.quick);
        println!(
            "cluster_replay ({SHARDS} shards, {jobs} jobs): {ms:.1} ms, \
             {} completed, digest {:#018x}",
            outcome.totals.completed, outcome.digest
        );
        sweep.push((jobs, ms, outcome, events));
    }
    let (_, serial_ms, serial, events) = (sweep[0].0, sweep[0].1, sweep[0].2, sweep[0].3);
    check(&flags, serial.totals.completed > 0, "cluster replay completes requests");
    for (jobs, _, outcome, _) in &sweep {
        check(
            &flags,
            *outcome == serial,
            "cluster digest is byte-identical at every job count",
        );
        if *outcome != serial {
            eprintln!("jobs={jobs} diverged: {outcome:?} vs {serial:?}");
        }
    }

    // --- Kill-recover schedule ----------------------------------------
    // Kill shard 3 repeatedly, often enough to fire a handful of times
    // over the run; the recovered trajectory must digest identically
    // to the uninterrupted control above.
    let kill_every = (events / u64::from(SHARDS) / 6).max(40);
    let config = scenario(flags.quick);
    let trace = build_trace(&workloads::catalog(), 13);
    let mut chaos = cluster(2, FrontEndConfig::default());
    chaos.plan_kill(3, CrashPlan::every(kill_every));
    let chaos_outcome = replay_cluster(&mut chaos, &trace, &config);
    println!("{}", chaos.availability().conservation_line());
    println!(
        "kill-recover (shard 3 every {kill_every} events): {} recoveries, \
         digest {:#018x}",
        chaos_outcome.totals.recoveries, chaos_outcome.digest
    );
    check(
        &flags,
        chaos_outcome.totals.recoveries > 0,
        "kill schedule fires at least once",
    );
    check(
        &flags,
        chaos_outcome.digest == serial.digest
            && chaos_outcome.totals.completed == serial.totals.completed,
        "recovered cluster digests identical to the uninterrupted control",
    );

    // --- Scaling floor -------------------------------------------------
    let four_jobs = sweep.iter().find(|(jobs, ..)| *jobs == 4);
    let speedup_at_4 = four_jobs.map(|&(_, ms, ..)| serial_ms / ms);
    if let Some(speedup) = speedup_at_4 {
        println!("speedup at 4 jobs vs serial: {speedup:.2}x (host has {host_cores} cores)");
        if host_cores >= 4 {
            check(
                &flags,
                speedup >= CHECK_FLOOR_SPEEDUP,
                "parallel replay clears the scaling floor at 4 jobs",
            );
        } else {
            println!(
                "scaling floor waived: {host_cores} host core(s) cannot \
                 demonstrate 4-way scaling"
            );
        }
    }

    // --- JSON ----------------------------------------------------------
    let jobs_blocks: Vec<String> = sweep
        .iter()
        .map(|&(jobs, ms, ..)| {
            format!(
                "    \"{jobs}\": {{\n      \"ms\": {},\n      \
                 \"speedup_vs_1job\": {}\n    }}",
                json_num(ms),
                json_num(serial_ms / ms),
            )
        })
        .collect();
    write_json(
        dir,
        "BENCH_cluster.json",
        &format!(
            "{{\n  \"bench\": \"cluster_replay\",\n  \
             \"quick\": {},\n  \
             \"shards\": {SHARDS},\n  \
             \"policy\": \"cold_start_aware\",\n  \
             \"host_cores\": {host_cores},\n  \
             \"floor_enforced\": {},\n  \
             \"check_floor_speedup_at_4_jobs\": {},\n  \
             \"completed\": {},\n  \
             \"digest\": \"{:#018x}\",\n  \
             \"kill_every\": {kill_every},\n  \
             \"kill_recoveries\": {},\n  \
             \"jobs\": {{\n{}\n  }}\n}}\n",
            flags.quick,
            host_cores >= 4,
            json_num(CHECK_FLOOR_SPEEDUP),
            serial.totals.completed,
            serial.digest,
            chaos_outcome.totals.recoveries,
            jobs_blocks.join(",\n"),
        ),
    );
}
