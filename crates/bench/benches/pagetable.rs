//! Microbenchmarks of the address-translation structures: radix-table
//! walks, PSPT map/unmap with directory maintenance, and the cost gap
//! between precise (PSPT) and broadcast (regular) invalidation target
//! computation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use cmcp::arch::{CoreId, PageSize, PhysFrame, VirtPage};
use cmcp::pagetable::{PageTable, Pspt, PteFlags, RegularTables, TableScheme};

fn bench_radix_walk(c: &mut Criterion) {
    let mut table = PageTable::new();
    for b in 0..16_384u64 {
        table
            .map(
                VirtPage(b),
                PhysFrame(b as u32),
                PageSize::K4,
                PteFlags::WRITABLE,
            )
            .unwrap();
    }
    c.bench_function("radix_translate_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 4097) % 16_384;
            black_box(table.translate(VirtPage(i)))
        });
    });
    c.bench_function("radix_translate_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 4097) % 16_384;
            black_box(table.translate(VirtPage(1 << 30 | i)))
        });
    });
}

fn bench_map_unmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_unmap_roundtrip");
    for size in PageSize::ALL {
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            let mut table = PageTable::new();
            let span = size.pages_4k() as u64;
            let mut slot = 0u64;
            b.iter(|| {
                let head = VirtPage((slot % 512) * 512);
                slot += 1;
                table
                    .map(head, PhysFrame(0), size, PteFlags::WRITABLE)
                    .unwrap();
                black_box(table.unmap(head, size));
                let _ = span;
            });
        });
    }
    group.finish();
}

fn bench_pspt_fault_path(c: &mut Criterion) {
    // The PSPT minor-fault path: consult directory, map into own table.
    let cores = 56;
    c.bench_function("pspt_map_copy_unmap_all", |b| {
        let mut pspt = Pspt::new(cores);
        let mut slot = 0u64;
        b.iter(|| {
            let head = VirtPage(slot % 4096);
            slot += 1;
            for core in 0..4u16 {
                let _ = pspt.map(
                    CoreId(core),
                    head,
                    PhysFrame((head.0 % 4096) as u32),
                    PageSize::K4,
                    true,
                );
            }
            black_box(pspt.unmap_all(head, PageSize::K4));
        });
    });
}

fn bench_invalidation_target_sets(c: &mut Criterion) {
    // PSPT returns the precise mapping set; regular tables must assume
    // every core. The *size* of these sets is what drives shootdowns.
    let cores = 56;
    let mut pspt = Pspt::new(cores);
    let mut reg = RegularTables::new(cores);
    for b in 0..1024u64 {
        pspt.map(
            CoreId((b % 3) as u16),
            VirtPage(b),
            PhysFrame(b as u32),
            PageSize::K4,
            true,
        )
        .unwrap();
        reg.map(
            CoreId(0),
            VirtPage(b),
            PhysFrame(b as u32),
            PageSize::K4,
            true,
        )
        .unwrap();
    }
    let mut group = c.benchmark_group("mapping_cores_query");
    group.bench_function("pspt_precise", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 31) % 1024;
            black_box(pspt.mapping_cores(VirtPage(i)).count())
        });
    });
    group.bench_function("regular_broadcast", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 31) % 1024;
            black_box(reg.mapping_cores(VirtPage(i)).count())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_radix_walk,
    bench_map_unmap,
    bench_pspt_fault_path,
    bench_invalidation_target_sets
);
criterion_main!(benches);
