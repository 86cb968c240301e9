//! Tracing-overhead microbenchmark: the same deterministic run with the
//! tracer compiled out (`NullTracer`, the default) and with live
//! per-core event rings.
//!
//! The `untraced` case is the acceptance gate — `Recorder::ENABLED`
//! gates every emission site at compile time, so it must stay within
//! noise (<2 %) of the pre-tracing fault path. The `ring_traced` case
//! documents the cost of turning tracing on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cmcp::kernel::{KernelConfig, Vmm};
use cmcp::sim::run;
use cmcp::trace::RingTracer;
use cmcp::workloads::synthetic;

const CORES: usize = 4;
const BLOCKS: usize = 96;

fn config() -> KernelConfig {
    KernelConfig::new(CORES, BLOCKS)
}

fn bench_trace_overhead(c: &mut Criterion) {
    // 4 cores × 128 pages × 4 rounds into 96 blocks: every round evicts,
    // so the fault path (locks, DMA, shootdowns) dominates the run.
    let trace = synthetic::private_stream(CORES, 128, 4);

    let mut group = c.benchmark_group("trace_overhead");
    group.bench_function("untraced", |b| {
        b.iter(|| {
            let vmm = Vmm::new(config());
            black_box(run(&vmm, &trace).runtime_cycles)
        });
    });
    group.bench_function("ring_traced", |b| {
        b.iter(|| {
            let vmm = Vmm::with_tracer(config(), RingTracer::new(CORES, 1 << 16));
            black_box(run(&vmm, &trace).runtime_cycles)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
