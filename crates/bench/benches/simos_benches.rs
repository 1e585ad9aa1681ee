//! Criterion micro-benchmarks for the simulated OS layer: page-state
//! operations and the metric computations Desiccant's sweeps rely on.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use desiccant::ProfileStore;
use faas::{InstanceId, ReclaimProfile};
use faas_runtime::{Language, RuntimeImage};
use simos::mem::pagebits::PageBits;
use simos::mem::reference::NaivePages;
use simos::mem::{page_flags, MappingKind, Prot, PAGE_SIZE};
use simos::{SimDuration, System};

/// Mapping sizes for the bitmap-vs-naive range benches: 4 KiB (one
/// page) up to 1 GiB (256 Ki pages).
const RANGE_SIZES: [(u64, &str); 5] = [
    (4 << 10, "4KiB"),
    (256 << 10, "256KiB"),
    (16 << 20, "16MiB"),
    (256 << 20, "256MiB"),
    (1 << 30, "1GiB"),
];

fn world(npages: u64) -> (System, simos::Pid, simos::VirtAddr) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let a = sys
        .mmap(pid, npages * PAGE_SIZE, MappingKind::Anonymous, Prot::ReadWrite)
        .unwrap();
    sys.touch(pid, a, npages * PAGE_SIZE, true).unwrap();
    (sys, pid, a)
}

fn bench_touch_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("touch_release_cycle");
    for npages in [256u64, 4096, 65536] {
        group.bench_with_input(BenchmarkId::from_parameter(npages), &npages, |b, &n| {
            let (mut sys, pid, a) = world(n);
            b.iter(|| {
                sys.release(pid, a, n * PAGE_SIZE).unwrap();
                sys.touch(pid, a, n * PAGE_SIZE, true).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_uss(c: &mut Criterion) {
    let mut group = c.benchmark_group("uss_computation");
    for npages in [4096u64, 65536] {
        group.bench_with_input(BenchmarkId::from_parameter(npages), &npages, |b, &n| {
            let (sys, pid, _) = world(n);
            b.iter(|| sys.uss(pid));
        });
    }
    group.finish();
}

fn bench_uss_shared_libs(c: &mut Criterion) {
    // The shape the platform measures on every boot, freeze and
    // reclaim: the OpenWhisk `node` image (58 MiB of libraries) mapped
    // by two processes, plus an anonymous heap. The second process has
    // dropped the first 16 MiB of `node`, so those pages are solo to
    // the first and count in its USS while the rest are shared.
    let image = RuntimeImage::openwhisk(Language::JavaScript);
    let mut sys = System::new();
    let libs = image.register_files(&mut sys);
    let mut pids = Vec::new();
    for _ in 0..2 {
        let pid = sys.spawn_process();
        let bases: Vec<simos::VirtAddr> = libs
            .files
            .iter()
            .map(|&file| sys.map_library(pid, file).unwrap())
            .collect();
        pids.push((pid, bases));
    }
    let (pid, _) = &pids[0];
    let (other, other_bases) = &pids[1];
    sys.release(*other, other_bases[0], 16 << 20).unwrap();
    let heap = sys
        .mmap(*pid, 64 << 20, MappingKind::Anonymous, Prot::ReadWrite)
        .unwrap();
    sys.touch(*pid, heap, 32 << 20, true).unwrap();
    let mut group = c.benchmark_group("uss_shared_libs");
    group.bench_function("word_parallel", |b| b.iter(|| sys.uss(black_box(*pid))));
    group.bench_function("smaps_oracle", |b| {
        b.iter(|| {
            simos::metrics::smaps(&sys, black_box(*pid))
                .iter()
                .map(simos::metrics::SmapsEntry::uss)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_pmap_whole_mapping(c: &mut Criterion) {
    // The sweep-path probe: must be O(1) via the resident counter.
    let (sys, pid, a) = world(65536);
    c.bench_function("pmap_whole_mapping_256MiB", |b| {
        b.iter(|| sys.pmap(pid, a, 65536 * PAGE_SIZE).unwrap());
    });
}

fn bench_selection(c: &mut Criterion) {
    // Desiccant's estimator over a populated store.
    let mut store = ProfileStore::new();
    for i in 0..200u64 {
        store.record(
            InstanceId(i),
            &format!("fn-{}", i % 20),
            &ReclaimProfile {
                live_bytes: (i % 7) << 20,
                released_bytes: 32 << 20,
                cpu_time: SimDuration::from_millis(5 + i % 20),
            },
        );
    }
    c.bench_function("throughput_estimation_200_instances", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for i in 0..200u64 {
                total += store
                    .estimate(InstanceId(i), &format!("fn-{}", i % 20), 64 << 20)
                    .throughput;
            }
            total
        });
    });
}

fn bench_range_count(c: &mut Criterion) {
    // The smaps/pmap aggregation primitive: count resident pages in a
    // range. Packed-u64 popcounts vs. the retained byte-per-page
    // reference model.
    let mut group = c.benchmark_group("range_count");
    for (bytes, label) in RANGE_SIZES {
        let npages = (bytes / PAGE_SIZE) as usize;
        group.bench_with_input(BenchmarkId::new("bitmap", label), &npages, |b, &n| {
            let bits = PageBits::new_filled(n);
            b.iter(|| black_box(&bits).count_range(0, n));
        });
        group.bench_with_input(BenchmarkId::new("naive", label), &npages, |b, &n| {
            let pages = NaivePages::new_with(n, page_flags::RESIDENT);
            b.iter(|| black_box(&pages).count_flag_range(page_flags::RESIDENT, 0, n));
        });
    }
    group.finish();
}

fn bench_range_release(c: &mut Criterion) {
    // The reclamation primitive: clear a flag over a whole range (what
    // `madvise(DONTNEED)` does to the resident set). Setup rebuilds the
    // filled state outside the timed region.
    let mut group = c.benchmark_group("range_release");
    for (bytes, label) in RANGE_SIZES {
        let npages = (bytes / PAGE_SIZE) as usize;
        group.bench_with_input(BenchmarkId::new("bitmap", label), &npages, |b, &n| {
            b.iter_batched(
                || PageBits::new_filled(n),
                |mut bits| bits.clear_range(0, n),
                BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("naive", label), &npages, |b, &n| {
            b.iter_batched(
                || NaivePages::new_with(n, page_flags::RESIDENT),
                |mut pages| pages.clear_flag_range(page_flags::RESIDENT, 0, n),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_touch_release,
    bench_uss,
    bench_uss_shared_libs,
    bench_pmap_whole_mapping,
    bench_selection,
    bench_range_count,
    bench_range_release
);
criterion_main!(benches);
