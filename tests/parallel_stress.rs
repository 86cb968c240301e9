//! Engine stress tests: many worker threads running phase A around the
//! kernel's single-writer commit under eviction pressure. These catch
//! lost updates, frame leaks, and deadlocks that the small determinism
//! tests are too gentle to provoke.
//!
//! CI runs this suite both with the default test harness and with
//! `--test-threads=1`, so it must be self-contained per test.

use cmcp::workloads::synthetic;
use cmcp::{PolicyKind, SimulationBuilder};

const STRESS_WORKERS: usize = 8;

#[test]
fn eight_workers_under_heavy_pressure_conserve_every_touch() {
    // 16 cores sharing a hot set plus private streams, squeezed to half
    // the footprint: constant eviction traffic.
    let t = synthetic::shared_hot(16, 48, 64, 6);
    let touches = t.total_touches();
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::Cmcp { p: 0.5 },
        PolicyKind::AdaptiveCmcp,
    ] {
        let r = SimulationBuilder::trace(t.clone())
            .policy(policy)
            .memory_ratio(0.5)
            .threads(STRESS_WORKERS)
            .run();
        assert!(
            r.global.evictions > 0,
            "{}: pressure expected",
            policy.label()
        );
        let executed: u64 = r.per_core.iter().map(|c| c.dtlb_accesses).sum();
        assert_eq!(executed, touches, "{}: lost touches", policy.label());
        // Faults can never outnumber TLB misses.
        let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
        let misses: u64 = r.per_core.iter().map(|c| c.dtlb_misses).sum();
        assert!(
            faults <= misses,
            "{}: {faults} faults > {misses} misses",
            policy.label()
        );
    }
}

#[test]
fn repeated_stress_runs_complete_and_agree_on_footprint() {
    // Re-running the same pressure workload must neither deadlock nor
    // leak frames; with ample memory the fault totals are also exact.
    let t = synthetic::shared_hot(12, 32, 48, 4);
    let mut fault_totals = Vec::new();
    for _ in 0..3 {
        let r = SimulationBuilder::trace(t.clone())
            .policy(PolicyKind::Cmcp { p: 0.75 })
            .memory_ratio(1.25)
            .threads(STRESS_WORKERS)
            .run();
        assert_eq!(r.global.evictions, 0);
        fault_totals.push(r.per_core.iter().map(|c| c.page_faults).sum::<u64>());
    }
    assert!(
        fault_totals.windows(2).all(|w| w[0] == w[1]),
        "ample-memory fault totals must be schedule-independent: {fault_totals:?}"
    );
}

#[test]
fn traced_stress_run_still_validates_exactly() {
    // The per-core breakdown must keep summing exactly to the kernel
    // counters even with 8 workers running phase A around the
    // single-writer commit.
    let t = synthetic::shared_hot(8, 24, 40, 4);
    let traced = SimulationBuilder::trace(t)
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .memory_ratio(0.6)
        .threads(STRESS_WORKERS)
        .run_traced();
    assert_eq!(traced.dropped, 0, "default ring must hold the stress run");
    let b = traced.report.breakdown.expect("traced run has a breakdown");
    assert!(b.validated, "residency events must reconcile exactly");
    let shard_locks: u64 = b.per_core.iter().map(|r| r.shard_lock_acquires).sum();
    assert!(
        shard_locks > 0,
        "fault path must record residency transactions"
    );
}

#[test]
fn stress_workers_survive_a_one_percent_dma_error_plan() {
    // 8 workers under eviction pressure with 1% of DMA transfers failing
    // and occasional ENOSPC on the backing store: the run must neither
    // wedge nor panic, every touch must execute, and the write-back path
    // must demonstrably degrade to the synchronous mode at least once.
    let t = synthetic::shared_hot(16, 48, 64, 6);
    let touches = t.total_touches();
    let r = SimulationBuilder::trace(t)
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .memory_ratio(0.5)
        .threads(STRESS_WORKERS)
        .fault_plan(cmcp::FaultPlan::new(7).dma_errors(0.01).enospc(0.005))
        .run();
    let executed: u64 = r.per_core.iter().map(|c| c.dtlb_accesses).sum();
    assert_eq!(executed, touches, "faults must not lose touches");
    assert!(
        r.global.dma_errors > 0,
        "1% over thousands of transfers must fire"
    );
    assert!(
        r.global.sync_writebacks > 0,
        "retried write-backs must be counted as synchronous degradations"
    );
    // Every DMA error and every ENOSPC charges exactly one backoff.
    let retries: u64 = r.per_core.iter().map(|c| c.fault_retries).sum();
    assert_eq!(retries, r.global.dma_errors + r.global.enospc_events);
    // Quarantined frames stay out of circulation but the pool books stay
    // balanced: quarantine total matches the global gauge.
    let quarantines: u64 = r.per_core.iter().map(|c| c.quarantines).sum();
    assert_eq!(quarantines, r.global.quarantined_frames);
}

#[test]
fn oversubscribed_workers_finish_fast_and_keep_the_bytes() {
    // Regression for the PhaseBarrier oversubscription pathology: with
    // more workers than host CPUs, pure spin-waiting convoyed the
    // scheduler (every waiter burned a core) and runs timed out. The
    // spin → yield → condvar-sleep ladder must keep twice-nproc workers
    // moving — and, as always, must not move a byte of the report.
    let nproc = std::thread::available_parallelism().map_or(2, |p| p.get());
    let workers = 2 * nproc;
    // As many simulated cores as workers, so the engine cannot quietly
    // clamp the thread count down and dodge the oversubscription.
    let t = synthetic::shared_hot(workers, 24, 32, 3);
    let run = |threads: usize| {
        SimulationBuilder::trace(t.clone())
            .policy(PolicyKind::Cmcp { p: 0.5 })
            .memory_ratio(0.5)
            .threads(threads)
            .run()
    };
    let start = std::time::Instant::now();
    let oversubscribed = run(workers);
    let elapsed = start.elapsed();
    assert_eq!(
        format!("{oversubscribed:?}"),
        format!("{:?}", run(1)),
        "oversubscription changed report bytes"
    );
    // Generous even for a loaded single-core CI runner; the pre-fix
    // pathology was tens of seconds to wedged-forever.
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "2x-nproc run took {elapsed:?}; barrier waiters are convoying again"
    );
}

#[test]
fn mixed_schemes_survive_stress() {
    let t = synthetic::private_stream(8, 64, 4);
    for scheme in [cmcp::SchemeChoice::Pspt, cmcp::SchemeChoice::Regular] {
        let r = SimulationBuilder::trace(t.clone())
            .scheme(scheme)
            .memory_ratio(0.5)
            .threads(STRESS_WORKERS)
            .run();
        assert!(r.global.evictions > 0);
        assert!(r.runtime_cycles > 0);
    }
}
