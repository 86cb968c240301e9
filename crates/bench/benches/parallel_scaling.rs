//! Host wall-clock scaling of the unified engine on the CG workload.
//!
//! Runs the same trace at 1/2/4/8 worker threads. This measures *host*
//! performance — epoch-parallel core advancement (phase A) — not
//! virtual time, which is byte-identical at every thread count. Before
//! timing anything the harness asserts exactly that: every thread
//! count's report must be byte-equal to the single-thread report, so a
//! scaling number can never be quoted for a run that broke determinism.
//!
//! In `--bench` mode the harness also writes
//! `results/BENCH_parallel.json` so future changes can be compared
//! against this baseline.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use cmcp::workloads::cg::{cg_trace, CgConfig};
use cmcp::{PolicyKind, RunReport, SimulationBuilder, Trace};

const CORES: usize = 8;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BASELINE_SAMPLES: usize = 5;

/// A CG instance small enough to sample repeatedly but large enough
/// that the fault path (not trace generation) dominates.
fn workload() -> Trace {
    cg_trace(
        CORES,
        &CgConfig {
            n: 6144,
            nnz_per_row: 16,
            iterations: 2,
            seed: 0xC6B,
        },
    )
}

fn run(trace: &Trace, threads: usize) -> RunReport {
    SimulationBuilder::trace(trace.clone())
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .memory_ratio(0.75)
        .threads(threads)
        .run()
}

/// Every thread count must reproduce the single-thread report byte for
/// byte; a timing table for non-identical runs would be meaningless.
fn assert_byte_identity(trace: &Trace) {
    let want = format!("{:?}", run(trace, 1));
    for &threads in &THREAD_COUNTS[1..] {
        let got = format!("{:?}", run(trace, threads));
        assert_eq!(
            got, want,
            "threads={threads} report diverged from threads=1; refusing to time it"
        );
    }
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let trace = workload();
    assert_byte_identity(&trace);
    let mut group = c.benchmark_group("parallel_scaling");
    for threads in THREAD_COUNTS {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| black_box(run(&trace, threads).runtime_cycles));
        });
    }
    group.finish();

    // Cargo passes `--bench` even when the harness runs in `--test`
    // smoke mode, so gate the baseline rewrite on the absence of
    // `--test` too — CI smoke runs must not clobber the committed file.
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--bench") && !args.iter().any(|a| a == "--test") {
        write_baseline(&trace);
    }
}

/// Times each configuration directly and records the means, so the
/// baseline file does not depend on the bench harness's output format.
fn write_baseline(trace: &Trace) {
    let sample_ms = |threads: usize| -> f64 {
        run(trace, threads); // warmup
        let start = Instant::now();
        for _ in 0..BASELINE_SAMPLES {
            black_box(run(trace, threads).runtime_cycles);
        }
        start.elapsed().as_secs_f64() * 1e3 / BASELINE_SAMPLES as f64
    };
    let per_thread: Vec<(usize, f64)> = THREAD_COUNTS.iter().map(|&t| (t, sample_ms(t))).collect();

    let entries: Vec<String> = per_thread
        .iter()
        .map(|(t, ms)| format!("    \"threads_{t}\": {ms:.3}"))
        .collect();
    let ms_at = |threads: usize| {
        per_thread
            .iter()
            .find(|(t, _)| *t == threads)
            .expect("thread count sampled")
            .1
    };
    let speedup_4 = per_thread[0].1 / ms_at(4);
    let speedup_8 = per_thread[0].1 / per_thread.last().unwrap().1;
    // Thread-level speedup needs host CPUs; record how many this
    // baseline had so readers can interpret the scaling column. On a
    // host with fewer than 4 CPUs the speedup numbers are noise —
    // worker threads time-slice one core — so the baseline says
    // explicitly that the scaling claim is delegated to the CI
    // scaling job (which *fails*, not skips, on such hosts) instead
    // of publishing numbers a reader might mistake for a measurement.
    let host_cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let scaling_claim = if host_cpus >= 4 {
        "measured"
    } else {
        "delegated-to-ci"
    };
    // The phase-B decomposition: deterministic counters, identical at
    // every thread count.
    let s = run(trace, 1).scaling;
    let json = format!(
        "{{\n  \"workload\": \"cg n=6144 nnz=16 iters=2\",\n  \"cores\": {CORES},\n  \
         \"policy\": \"cmcp p=0.5\",\n  \"memory_ratio\": 0.75,\n  \
         \"samples\": {BASELINE_SAMPLES},\n  \"host_cpus\": {host_cpus},\n  \
         \"scaling_claim\": \"{scaling_claim}\",\n  \
         \"byte_identical_reports\": true,\n  \
         \"mean_wall_ms\": {{\n{}\n  }},\n  \
         \"phase_b\": {{\n    \"epochs\": {},\n    \"fast_forwards\": {},\n    \
         \"committed\": {},\n    \"shardable\": {},\n    \"reconciled\": {},\n    \
         \"barrier_releases\": {}\n  }},\n  \
         \"speedup_4t_over_1t\": {speedup_4:.3},\n  \
         \"speedup_8t_over_1t\": {speedup_8:.3}\n}}\n",
        entries.join(",\n"),
        s.epochs,
        s.fast_forwards,
        s.committed,
        s.shardable,
        s.reconciled,
        s.releases,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_parallel.json"
    );
    std::fs::write(path, json).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
