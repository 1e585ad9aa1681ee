//! Criterion micro-benchmarks for the collector models: cost scaling
//! of young/full collections and of the Desiccant reclaim path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_core::object::ObjectKind;
use gc_core::ManagedHeap;
use hotspot::{HotSpotConfig, HotSpotHeap};
use simos::System;
use v8heap::{V8Config, V8Heap};

/// Builds a HotSpot heap holding `live` retained objects of 32 KiB and
/// an equal amount of garbage.
fn hotspot_world(live: usize) -> (System, HotSpotHeap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let mut heap = HotSpotHeap::new(&mut sys, pid, HotSpotConfig::for_budget(256 << 20)).unwrap();
    for _ in 0..live {
        let id = heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(id);
    }
    for _ in 0..live {
        heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
    }
    (sys, heap)
}

fn v8_world(live: usize) -> (System, V8Heap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let mut heap = V8Heap::new(&mut sys, pid, V8Config::for_budget(256 << 20)).unwrap();
    for _ in 0..live {
        let id = heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
        heap.graph_mut().add_global(id);
    }
    for _ in 0..live {
        heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
    }
    (sys, heap)
}

/// Size of each retained old-generation object in the young-GC worlds.
const OLD_OBJECT: u32 = 1 << 10;

/// The fixed young set every young-GC world collects: 200 objects of
/// 2 KiB, every tenth retained by a global.
const YOUNG_OBJECTS: usize = 200;
const YOUNG_OBJECT: u32 = 2 << 10;

/// A HotSpot heap with `old` 1 KiB objects, retained through one global
/// holder and compacted into the old generation, then the fixed young
/// set in eden.
fn hotspot_young_world(old: usize) -> (System, HotSpotHeap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let mut heap = HotSpotHeap::new(&mut sys, pid, HotSpotConfig::for_budget(256 << 20)).unwrap();
    let holder = heap.alloc(&mut sys, OLD_OBJECT, ObjectKind::Data).unwrap();
    heap.graph_mut().add_global(holder);
    for _ in 0..old {
        let id = heap.alloc(&mut sys, OLD_OBJECT, ObjectKind::Data).unwrap();
        heap.graph_mut().add_ref(holder, id);
    }
    heap.full_gc(&mut sys, true).unwrap();
    for i in 0..YOUNG_OBJECTS {
        let id = heap.alloc(&mut sys, YOUNG_OBJECT, ObjectKind::Data).unwrap();
        if i % 10 == 0 {
            heap.graph_mut().add_global(id);
        }
    }
    (sys, heap)
}

/// A V8 heap with `old` 1 KiB objects, retained through one global
/// holder and evacuated into old space, then the fixed young set in the
/// semispace.
fn v8_young_world(old: usize) -> (System, V8Heap) {
    let mut sys = System::new();
    let pid = sys.spawn_process();
    let mut heap = V8Heap::new(&mut sys, pid, V8Config::for_budget(256 << 20)).unwrap();
    let holder = heap.alloc(&mut sys, OLD_OBJECT, ObjectKind::Data).unwrap();
    heap.graph_mut().add_global(holder);
    for _ in 0..old {
        let id = heap.alloc(&mut sys, OLD_OBJECT, ObjectKind::Data).unwrap();
        heap.graph_mut().add_ref(holder, id);
    }
    heap.major_gc(&mut sys, true).unwrap();
    for i in 0..YOUNG_OBJECTS {
        let id = heap.alloc(&mut sys, YOUNG_OBJECT, ObjectKind::Data).unwrap();
        if i % 10 == 0 {
            heap.graph_mut().add_global(id);
        }
    }
    (sys, heap)
}

/// Young collections over a fixed young set as the old generation
/// grows: the cost should follow the young set.
fn bench_hotspot_young_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotspot_young_gc");
    for old in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(old), &old, |b, &old| {
            b.iter_batched(
                || hotspot_young_world(old),
                |(mut sys, mut heap)| heap.young_gc(&mut sys).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_v8_scavenge(c: &mut Criterion) {
    let mut group = c.benchmark_group("v8_scavenge");
    for old in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(old), &old, |b, &old| {
            b.iter_batched(
                || v8_young_world(old),
                |(mut sys, mut heap)| heap.scavenge(&mut sys).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_hotspot_full_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotspot_full_gc");
    for live in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, &live| {
            b.iter_batched(
                || hotspot_world(live),
                |(mut sys, mut heap)| heap.full_gc(&mut sys, true).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_hotspot_reclaim(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotspot_reclaim");
    for live in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, &live| {
            b.iter_batched(
                || hotspot_world(live),
                |(mut sys, mut heap)| heap.reclaim(&mut sys, true).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_v8_major_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("v8_major_gc");
    for live in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, &live| {
            b.iter_batched(
                || v8_world(live),
                |(mut sys, mut heap)| heap.major_gc(&mut sys, true).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_v8_reclaim(c: &mut Criterion) {
    let mut group = c.benchmark_group("v8_reclaim");
    for live in [100usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, &live| {
            b.iter_batched(
                || v8_world(live),
                |(mut sys, mut heap)| heap.reclaim(&mut sys, true).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_allocation(c: &mut Criterion) {
    c.bench_function("hotspot_alloc_32k", |b| {
        b.iter_batched(
            || hotspot_world(0),
            |(mut sys, mut heap)| {
                for _ in 0..100 {
                    heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    c.bench_function("v8_alloc_32k", |b| {
        b.iter_batched(
            || v8_world(0),
            |(mut sys, mut heap)| {
                for _ in 0..100 {
                    heap.alloc(&mut sys, 32 << 10, ObjectKind::Data).unwrap();
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_hotspot_young_gc,
    bench_v8_scavenge,
    bench_hotspot_full_gc,
    bench_hotspot_reclaim,
    bench_v8_major_gc,
    bench_v8_reclaim,
    bench_allocation
);
criterion_main!(benches);
