//! Thread-count invariance of perfbench's two engine entries.
//! `run_with_host_stats` and `run_with_worker_hook` still take the
//! worker-thread count perfbench passes (2 for `cg_share`) and ignore
//! it: the engine runs every core on the calling thread. These tests
//! pin that the count moves no report byte, so perfbench's digests stay
//! those of a plain `run`. They go with the two entries in the
//! benchmark follow-up; the repeat-run matrices of `run` itself are in
//! `tests/determinism.rs`.

use std::cell::Cell;

use cmcp::sim::engine::run_with_worker_hook;
use cmcp::sim::{run, run_with_host_stats};
use cmcp::workloads::synthetic;
use cmcp::{
    KernelConfig, PageSize, PolicyKind, Recorder, RingTracer, RunReport, SchemeChoice, Trace, Vmm,
};

/// The counts the old worker-pool matrix pinned, perfbench's 2 among
/// them.
const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// Every replacement policy the engine supports.
const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Fifo,
    PolicyKind::Lru,
    PolicyKind::Clock,
    PolicyKind::Lfu,
    PolicyKind::Random,
    PolicyKind::Cmcp { p: 0.5 },
    PolicyKind::AdaptiveCmcp,
];

/// Byte-exact fingerprint of everything a run reports.
fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}")
}

/// A kernel for `t` with half its declared footprint, sized as
/// `SimulationBuilder::memory_ratio(0.5)` sizes it.
fn half_memory(t: &Trace) -> KernelConfig {
    let blocks = (t.declared_blocks(PageSize::K4) as f64 * 0.5).ceil() as usize;
    KernelConfig::new(t.cores.len(), blocks.max(1))
}

/// Runs `cfg` fresh through both perfbench entries at every count of
/// the matrix and asserts each report equals `want`, byte for byte.
fn assert_every_count_reports(cfg: &KernelConfig, t: &Trace, want: &str, label: &str) {
    for threads in THREAD_MATRIX {
        let (report, host) = run_with_host_stats(&Vmm::new(cfg.clone()), t, threads);
        assert_eq!(
            fingerprint(&report),
            want,
            "{label}: run_with_host_stats at threads={threads} diverged from run"
        );
        assert_eq!(
            host.parallel_rounds + host.barrier_spins + host.barrier_yields + host.barrier_sleeps,
            0,
            "{label}: no host barrier exists to count"
        );
        let hooked = run_with_worker_hook(&Vmm::new(cfg.clone()), t, threads, &|worker| {
            assert_eq!(worker, 0, "{label}: one engine thread");
        });
        assert_eq!(
            fingerprint(&hooked),
            want,
            "{label}: run_with_worker_hook at threads={threads} diverged from run"
        );
    }
}

#[test]
fn all_policies_are_byte_identical_across_thread_counts_under_pressure() {
    // Every policy under eviction pressure (half the footprint), with a
    // shared hot set so cross-core shootdowns and scan ticks interleave
    // with faults. A plain `run` on its own fresh kernel is the
    // reference.
    let t = synthetic::shared_hot(6, 32, 64, 4);
    for policy in ALL_POLICIES {
        let cfg = half_memory(&t).with_policy(policy);
        let reference = run(&Vmm::new(cfg.clone()), &t);
        assert!(
            reference.global.evictions > 0,
            "{}: ratio 0.5 must force evictions",
            policy.label()
        );
        let touches: u64 = reference.per_core.iter().map(|c| c.dtlb_accesses).sum();
        assert_eq!(
            touches,
            t.total_touches(),
            "{}: every touch executed",
            policy.label()
        );
        assert_every_count_reports(&cfg, &t, &fingerprint(&reference), &policy.label());
    }
}

#[test]
fn regular_tables_are_byte_identical_across_thread_counts() {
    let t = synthetic::private_stream(4, 32, 3);
    let cfg = half_memory(&t).with_scheme(SchemeChoice::Regular);
    let reference = run(&Vmm::new(cfg.clone()), &t);
    assert!(reference.global.evictions > 0);
    assert!(
        reference.sharing_histogram.is_none(),
        "regular tables have no histogram"
    );
    assert_every_count_reports(&cfg, &t, &fingerprint(&reference), "regular");
}

#[test]
fn repeat_runs_at_the_same_thread_count_are_byte_identical() {
    // perfbench repeats each traced op at its workload's fixed count and
    // compares digests across the repeats. Same count, fresh traced
    // kernel each time: the report, the event stream and the number of
    // epoch hooks must all repeat. Catches hidden global state (RNG,
    // time, allocation order).
    let t = synthetic::shared_hot(6, 32, 64, 4);
    let cfg = half_memory(&t).with_policy(PolicyKind::AdaptiveCmcp);
    for threads in [1usize, 2] {
        let traced = || {
            let vmm = Vmm::with_tracer(cfg.clone(), RingTracer::new(cfg.cores, 1 << 16));
            let epochs = Cell::new(0u64);
            let report = run_with_worker_hook(&vmm, &t, threads, &|_| {
                epochs.set(epochs.get() + 1);
            });
            assert_eq!(vmm.tracer().dropped(), 0, "the ring must hold the run");
            (fingerprint(&report), vmm.tracer().events(), epochs.get())
        };
        let first = traced();
        assert!(first.2 > 0, "the hook runs once per epoch");
        assert!(
            first == traced(),
            "threads={threads}: repeat traced run diverged"
        );
    }
}
