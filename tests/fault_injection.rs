//! Fault-injection & recovery integration tests.
//!
//! A shadow oracle replays the declarative fault plan's consequences
//! against the kernel's quiescent state: no dirty write may be lost (an
//! evicted written block is either resident again or safely on the
//! backing store), and the frame books must balance exactly (free +
//! resident + quarantined == device blocks — a double-free or leak
//! breaks the identity). Determinism is property-tested: the same seed
//! and plan reproduce byte-equal reports, retry schedules included.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cmcp::arch::{FaultRule, FaultSite, VirtPage};
use cmcp::sim::{run, Op, Trace};
use cmcp::trace::RingTracer;
use cmcp::workloads::synthetic;
use cmcp::{
    FaultPlan, KernelConfig, NumaConfig, PageSize, PolicyKind, Recorder, SimulationBuilder,
    TierConfig, Vmm, Workload, WorkloadClass,
};

/// All seven CLI-reachable policies.
const POLICIES: [PolicyKind; 7] = [
    PolicyKind::Fifo,
    PolicyKind::Lru,
    PolicyKind::Clock,
    PolicyKind::Lfu,
    PolicyKind::Random,
    PolicyKind::AdaptiveCmcp,
    PolicyKind::Cmcp { p: 0.75 },
];

/// Pages the trace writes (the dirty candidates the oracle must find).
fn written_pages(t: &Trace) -> BTreeSet<u64> {
    let mut set = BTreeSet::new();
    for core in &t.cores {
        for op in &core.ops {
            if let Op::Stream {
                start,
                pages,
                write: true,
                ..
            } = op
            {
                set.extend(start.0..start.0 + u64::from(*pages));
            }
        }
    }
    set
}

/// The shadow oracle: run it after the simulation has quiesced.
fn assert_no_lost_pages<R: Recorder>(vmm: &Vmm<R>, t: &Trace, label: &str) {
    for page in written_pages(t) {
        let p = VirtPage(page);
        assert!(
            vmm.block_resident(p) || vmm.backing_contains(p),
            "{label}: dirty page {page} lost (neither resident nor backed)"
        );
    }
    let (free, resident, quarantined, total) = vmm.frame_audit_pages();
    assert_eq!(
        free + resident + quarantined,
        total,
        "{label}: frame books out of balance (double-free or leak)"
    );
}

#[test]
fn seeded_plan_loses_no_dirty_writes_under_any_policy() {
    let t = synthetic::shared_hot(8, 32, 48, 5);
    let blocks = (t.declared_blocks(PageSize::K4) / 2).max(1);
    let plan = FaultPlan::new(42).dma_errors(0.01).enospc(0.005);
    let mut injected_total = 0;
    for policy in POLICIES {
        let cfg = KernelConfig::new(t.cores.len(), blocks)
            .with_policy(policy)
            .with_fault_plan(plan.clone());
        let mut vmm = Vmm::new(cfg);
        let report = run(&mut vmm, &t);
        assert!(
            report.global.evictions > 0,
            "{}: oracle needs eviction traffic",
            policy.label()
        );
        assert_no_lost_pages(&vmm, &t, &policy.label());
        injected_total += report
            .per_core
            .iter()
            .map(|c| c.faults_injected)
            .sum::<u64>();
    }
    assert!(
        injected_total > 0,
        "a 1% plan must inject across seven pressured runs"
    );
}

#[test]
fn quarantined_frames_stay_out_of_circulation() {
    // Push the DMA error rate high enough that page-in retries
    // quarantine frames, then check the pool shrank by exactly the
    // quarantine count and the run still conserved every touch.
    let t = synthetic::shared_hot(8, 32, 48, 6);
    let touches = t.total_touches();
    let blocks = (t.declared_blocks(PageSize::K4) / 2).max(1);
    let cfg = KernelConfig::new(t.cores.len(), blocks)
        .with_policy(PolicyKind::Cmcp { p: 0.5 })
        .with_fault_plan(FaultPlan::new(1).dma_errors(0.05));
    let mut vmm = Vmm::new(cfg);
    let report = run(&mut vmm, &t);
    let executed: u64 = report.per_core.iter().map(|c| c.dtlb_accesses).sum();
    assert_eq!(executed, touches);
    let (free, resident, quarantined, total) = vmm.frame_audit_pages();
    let block_pages = vmm.config().block_size.pages_4k() as u64;
    assert_eq!(quarantined, report.global.quarantined_frames * block_pages);
    assert_eq!(free + resident, total - quarantined);
    assert_no_lost_pages(&vmm, &t, "quarantine");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same plan ⇒ byte-equal run reports, including the
    /// retry/backoff schedule (carried verbatim in the Retry events).
    #[test]
    fn same_seed_and_plan_reproduce_byte_equal_reports(
        seed in any::<u64>(),
        dma_ppm in 0u32..30_000,
        enospc_ppm in 0u32..20_000,
        ratio in 0.4f64..0.9,
    ) {
        let t = synthetic::shared_hot(6, 24, 40, 4);
        let plan = FaultPlan::new(seed)
            .dma_errors(f64::from(dma_ppm) / 1e6)
            .enospc(f64::from(enospc_ppm) / 1e6);
        let run = || {
            SimulationBuilder::trace(t.clone())
                .policy(PolicyKind::Cmcp { p: 0.5 })
                .memory_ratio(ratio)
                .fault_plan(plan.clone())
                .run_traced()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.events, b.events, "event streams diverged");
        prop_assert_eq!(
            serde_json::to_string(&a.report.per_core).unwrap(),
            serde_json::to_string(&b.report.per_core).unwrap()
        );
        prop_assert_eq!(
            serde_json::to_string(&a.report.global).unwrap(),
            serde_json::to_string(&b.report.global).unwrap()
        );
        prop_assert_eq!(a.report.runtime_cycles, b.report.runtime_cycles);
    }
}

#[test]
fn cg_class_b_acceptance_run_is_reproducible_and_loses_nothing() {
    // The issue's acceptance gate: CG class B at the paper's memory
    // constraint under seed=42 with 1% DMA errors and 0.5% ENOSPC must
    // complete, lose no pages, reproduce bit-identically, and surface
    // nonzero retry/degradation counters in both the report and the
    // validated trace breakdown.
    let w = Workload::Cg(WorkloadClass::B);
    let t = w.trace(8);
    let blocks =
        ((t.declared_blocks(PageSize::K4) as f64 * w.paper_constraint()).ceil() as usize).max(1);
    let plan = FaultPlan::new(42).dma_errors(0.01).enospc(0.005);
    let run = || {
        let cfg = KernelConfig::new(8, blocks)
            .with_policy(PolicyKind::Cmcp { p: 0.75 })
            .with_fault_plan(plan.clone());
        let mut vmm = Vmm::with_tracer(cfg, RingTracer::new(8, 1 << 16));
        let report = run(&mut vmm, &t);
        let events = vmm.tracer().events();
        (vmm, report, events)
    };
    let (vmm_a, a, events_a) = run();
    let (_vmm_b, b, events_b) = run();

    assert_no_lost_pages(&vmm_a, &t, "cg.B acceptance");

    assert_eq!(events_a, events_b, "acceptance run must be bit-identical");
    assert_eq!(a.runtime_cycles, b.runtime_cycles);
    assert_eq!(a.per_core, b.per_core);
    assert_eq!(a.global, b.global);

    assert!(a.global.dma_errors > 0, "1% DMA plan must fire on cg.B");
    assert!(a.global.enospc_events > 0, "0.5% ENOSPC plan must fire");
    assert!(
        a.global.sync_writebacks > 0,
        "retried write-backs must register as synchronous degradations"
    );
    let retries: u64 = a.per_core.iter().map(|c| c.fault_retries).sum();
    assert_eq!(retries, a.global.dma_errors + a.global.enospc_events);

    let breakdown = a.breakdown.as_ref().expect("traced acceptance run");
    assert!(breakdown.validated, "fault spans must validate");
    let traced_retries: u64 = breakdown.per_core.iter().map(|r| r.fault_retries).sum();
    assert_eq!(traced_retries, retries, "breakdown mirrors the counters");
    assert!(
        breakdown
            .per_core
            .iter()
            .map(|r| r.retry_backoff_cycles)
            .sum::<u64>()
            > 0,
        "backoff cycles must appear in the trace breakdown"
    );
}

#[test]
fn offload_death_degrades_syscalls_synchronously() {
    // A plan whose only rule kills the offload engine after N calls:
    // syscalls before the threshold ride the IKC channel, everything
    // after is served by the slower synchronous fallback.
    let mut t = Trace::new(2, "offload-death");
    for c in 0..2 {
        for _ in 0..6 {
            t.cores[c].ops.push(Op::Syscall {
                payload: 4 << 10,
                write: true,
            });
        }
        t.cores[c].ops.push(Op::Barrier);
    }
    let healthy = {
        let mut vmm = Vmm::new(KernelConfig::new(2, 16));
        run(&mut vmm, &t)
    };
    let cfg = KernelConfig::new(2, 16).with_fault_plan(FaultPlan::new(3).offload_death_after(4));
    let mut vmm = Vmm::new(cfg);
    let degraded = run(&mut vmm, &t);
    assert!(vmm.offload_dead(), "engine must die after the 4th call");
    assert_eq!(degraded.global.sync_syscalls, 12 - 4);
    assert_eq!(
        vmm.offload().requests(),
        4,
        "only the calls before the death reach the channel"
    );
    assert!(
        degraded.runtime_cycles > healthy.runtime_cycles,
        "synchronous fallback must cost virtual time: {} vs {}",
        healthy.runtime_cycles,
        degraded.runtime_cycles
    );
}

#[test]
fn an_empty_plan_changes_no_report() {
    // A run without a plan compiles the empty plan, so it must report
    // exactly what a rule-free plan and an all-zero-rate plan report, at
    // any seed: every site rolls, and no roll fires. The LU run reaches
    // the DMA, tier-store and replica sites; the SCALE run the IKC one.
    let lu = cmcp::workloads::lu::lu_trace(
        4,
        &cmcp::workloads::lu::LuConfig {
            grid: cmcp::workloads::grid::Grid3 {
                nx: 24,
                ny: 24,
                nz: 24,
            },
            sweeps: 2,
        },
    );
    let scale = cmcp::workloads::scale::scale_trace(
        4,
        &cmcp::workloads::scale::ScaleConfig {
            nx: 256,
            ny: 64,
            fields: 2,
            steps: 4,
        },
    );
    let lu_builder = || {
        SimulationBuilder::trace(lu.clone())
            .policy(PolicyKind::Cmcp { p: 0.75 })
            .memory_ratio(0.66)
            .tiers(
                TierConfig::parse("hot:32@300/20000;warm:128@2100/5834;cold:0@8400/1500").unwrap(),
            )
            .numa(NumaConfig::parse("2node").unwrap())
    };
    let scale_builder = || SimulationBuilder::trace(scale.clone()).memory_ratio(0.5);
    let lu_none = lu_builder().run();
    assert!(lu_none.global.writebacks > 0 && lu_none.global.tier_demotions > 0);
    assert!(lu_none.numa.as_ref().unwrap().replica_syncs > 0);
    let scale_none = scale_builder().run();
    assert!(
        scale.cores[0]
            .ops
            .iter()
            .any(|op| matches!(op, Op::Syscall { .. })),
        "SCALE must reach the IKC site"
    );
    for seed in [0, 7, 42] {
        let zero_rates = FaultPlan {
            seed,
            rules: FaultSite::ALL
                .into_iter()
                .map(|site| FaultRule {
                    site,
                    rate_ppm: 0,
                    param: 1,
                })
                .collect(),
        };
        for plan in [FaultPlan::new(seed), zero_rates] {
            let label = plan.to_string();
            let lu_plan = lu_builder().fault_plan(plan.clone()).run();
            assert_eq!(
                format!("{lu_plan:?}"),
                format!("{lu_none:?}"),
                "lu under {label}"
            );
            let scale_plan = scale_builder().fault_plan(plan).run();
            assert_eq!(
                format!("{scale_plan:?}"),
                format!("{scale_none:?}"),
                "scale under {label}"
            );
        }
    }
}

#[test]
fn fault_plan_spec_round_trips_through_the_cli_syntax() {
    let plan = FaultPlan::parse("seed=42,dma=0.01,enospc=0.005,spike=0.001x8,ikc=0.002")
        .expect("valid spec");
    assert_eq!(plan.seed, 42);
    let reparsed = FaultPlan::parse(&plan.to_string()).expect("display round-trips");
    assert_eq!(plan, reparsed);
    assert!(
        FaultPlan::parse("seed=1,dma=2.0").is_err(),
        "rate > 1 rejected"
    );
    assert!(
        FaultPlan::parse("seed=1,flux=0.1").is_err(),
        "unknown rule rejected"
    );
}
