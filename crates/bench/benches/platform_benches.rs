//! Criterion micro-benchmarks for the platform simulator and trace
//! generator: how much simulated work the harness can push per second
//! of host time.

use azure_trace::{build_trace, generate_arrivals, replay, ReplayConfig};
use bench::{run_studies_parallel, Mode, StudyConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use desiccant::{Desiccant, DesiccantConfig};
use faas::platform::{GcMode, Platform};
use faas::PlatformConfig;
use simos::{SimDuration, SimTime};

fn bench_trace_generation(c: &mut Criterion) {
    let catalog = workloads::catalog();
    let trace = build_trace(&catalog, 1);
    let mut group = c.benchmark_group("trace_generation");
    for scale in [5.0f64, 30.0] {
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |b, &scale| {
            b.iter(|| {
                generate_arrivals(
                    &trace,
                    scale,
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_secs(180),
                    7,
                )
            });
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_30s_sf15");
    group.sample_size(10);
    for mode in ["vanilla", "desiccant"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter(|| {
                let catalog = workloads::catalog();
                let trace = build_trace(&catalog, 11);
                let manager: Option<Box<dyn faas::MemoryManager>> = if mode == "desiccant" {
                    Some(Box::new(Desiccant::new(DesiccantConfig::default())))
                } else {
                    None
                };
                let mut p =
                    Platform::new(PlatformConfig::default(), catalog, GcMode::Vanilla, manager);
                replay(
                    &mut p,
                    &trace,
                    &ReplayConfig {
                        scale: 15.0,
                        warmup: SimDuration::from_secs(5),
                        duration: SimDuration::from_secs(30),
                        drain: SimDuration::from_secs(5),
                        ..ReplayConfig::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_cold_boot(c: &mut Criterion) {
    c.bench_function("platform_cold_boot_and_invoke", |b| {
        b.iter(|| {
            let catalog = workloads::catalog();
            let mut p = Platform::new(PlatformConfig::default(), catalog, GcMode::Vanilla, None);
            let f = p.function_index("file-hash").expect("catalog function");
            p.submit(SimTime::ZERO, f);
            p.run_until(SimTime(10_000_000_000));
            assert_eq!(p.stats().completed, 1);
        });
    });
}

fn bench_study_matrix_parallel(c: &mut Criterion) {
    // Study throughput through the worker pool: the fig-7-shaped
    // (function × mode) matrix at one worker vs. all cores. On a
    // multi-core host the parallel case should approach a
    // cores-times speedup; results are identical either way.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = StudyConfig {
        iterations: 10,
        ..StudyConfig::default()
    };
    let specs = workloads::catalog();
    let modes = [Mode::Vanilla, Mode::Desiccant];
    let mut group = c.benchmark_group("study_matrix");
    group.sample_size(10);
    for (jobs, label) in [(1usize, "serial"), (cores, "parallel")] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &jobs, |b, &jobs| {
            b.iter(|| run_studies_parallel(&specs, &modes, &cfg, jobs));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_replay,
    bench_cold_boot,
    bench_study_matrix_parallel
);
criterion_main!(benches);
