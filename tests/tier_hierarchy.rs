//! Cross-tier shadow-oracle suite for the multi-tier backing hierarchy.
//!
//! Three layers of proof, per the tier-subsystem acceptance criteria:
//!
//! 1. **Flat reference replay** — a hierarchy whose tiers all cost zero
//!    cycles must be *observationally invisible*: every per-core counter,
//!    the virtual runtime, and the DMA byte totals match the flat
//!    single-store run exactly, for all seven policies. Demotion and
//!    promotion may shuffle spans between tiers, but no dirty write may
//!    be lost (equal write-backs) and no refault may miss (equal
//!    refaults) — the flat store *is* the loss-free oracle.
//! 2. **Book audits** — after every run, [`cmcp::Vmm::backing_audit`]
//!    walks the span map and asserts no page is held by two tiers, every
//!    per-tier page/span book matches a recount, and no bounded tier
//!    sits over capacity; `frame_audit_pages` asserts frame conservation
//!    (free + resident + quarantined == total) on the device side.
//! 3. **Traffic accounting** — per-tier `stores`/`loads` roll up to the
//!    kernel's global write-back and refault counters, so the tier books
//!    cannot drift from the fault path that feeds them.
//!
//! Every leg runs with and without a 1 % DMA-error fault plan: the
//! injection layer keys its sequences per tier, and a lost or doubly
//! applied recovery would break the books or the conservation equality.

use cmcp::sim::run;
use cmcp::workloads::synthetic;
use cmcp::{
    CostModel, FaultPlan, KernelConfig, PageSize, PolicyKind, RunReport, SchemeChoice, TierConfig,
    Trace, Vmm,
};

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

/// The ±1 % fault plan the acceptance matrix pins.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(42).dma_errors(0.01).enospc(0.005)
}

/// A tight three-tier hierarchy: the 24-page fast tier saturates almost
/// immediately under the pressure traces below, forcing capacity
/// cascades (demotions) and promotion traffic on refaults.
fn tight_tiers() -> TierConfig {
    TierConfig::parse("fast:24@50/0;mid:64@500/2000;cold:0@5000/500").unwrap()
}

/// Same shape, every cost zero: must be invisible next to the flat store.
fn zero_cost_tiers() -> TierConfig {
    TierConfig::parse("fast:24@0/0;mid:64@0/0;cold:0@0/0").unwrap()
}

fn kernel_config(
    trace: &Trace,
    policy: PolicyKind,
    tiers: TierConfig,
    adaptive: bool,
    plan: Option<FaultPlan>,
    ratio: f64,
) -> KernelConfig {
    let block_size = if adaptive { PageSize::M2 } else { PageSize::K4 };
    let footprint = trace.declared_blocks(block_size);
    let cost = CostModel {
        tiers,
        ..CostModel::default()
    };
    KernelConfig {
        cores: trace.cores.len(),
        block_size,
        device_blocks: ((footprint as f64 * ratio).ceil() as usize).max(1),
        scheme: SchemeChoice::Pspt,
        policy,
        cost,
        scan_budget: 0,
        pspt_rebuild_period: 0,
        fault_plan: plan,
        adaptive,
    }
}

/// Runs the config and applies the full shadow-oracle audit battery
/// before returning the report — on every leg, the flat hierarchy's
/// one tier included.
fn run_audited(cfg: KernelConfig, trace: &Trace) -> RunReport {
    let faulted = cfg.fault_plan.is_some();
    let mut vmm = Vmm::new(cfg);
    let report = run(&mut vmm, trace);

    // Layer 2: span/book audit (panics on overlap, drift, or a bounded
    // tier over capacity) and device-frame conservation.
    vmm.backing_audit();
    let (free, resident, quarantined, total) = vmm.frame_audit_pages();
    assert_eq!(
        free + resident + quarantined,
        total,
        "device frame books must balance (free {free} + resident {resident} + quarantined {quarantined} != total {total})"
    );

    // Layer 3: tier traffic rolls up to the kernel counters.
    let counters = vmm.tier_counters();
    let stores: u64 = counters.iter().map(|c| c.stores).sum();
    let loads: u64 = counters.iter().map(|c| c.loads).sum();
    let g = &report.global;
    assert_eq!(
        stores, g.writebacks,
        "every successful write-back lands on exactly one tier"
    );
    if faulted {
        // A fault-retry restart re-probes the store before the
        // refault completes, so loads can only over-count.
        assert!(
            loads >= g.refaults,
            "loads {loads} must cover refaults {}",
            g.refaults
        );
    } else {
        assert_eq!(
            loads, g.refaults,
            "every refault is served by exactly one tier"
        );
    }
    assert_eq!(
        g.tier_promotions,
        counters.iter().map(|c| c.promoted_in).sum::<u64>(),
        "promotion events match the per-tier books"
    );
    assert_eq!(
        g.tier_demotions,
        counters.iter().map(|c| c.demoted_in).sum::<u64>(),
        "demotion cascades match the per-tier books"
    );
    report
}

/// The pressure trace of the determinism matrix: shared hot set plus
/// private streams at half the footprint, so evictions, shootdowns, and
/// refaults all interleave.
fn pressure_trace() -> Trace {
    synthetic::shared_hot(6, 32, 64, 4)
}

#[test]
fn zero_cost_tiers_are_invisible_next_to_the_flat_reference() {
    // Layer 1: the flat store is the shadow oracle. A hierarchy whose
    // penalties are all zero may demote and promote internally however it
    // likes, but every externally visible number must match flat exactly
    // — equal write-backs prove no dirty page was dropped by a cascade,
    // equal refaults prove no stored page went missing.
    let t = pressure_trace();
    for policy in ALL_POLICIES {
        let flat = run_audited(
            kernel_config(&t, policy, TierConfig::flat(), false, None, 0.5),
            &t,
        );
        assert!(
            flat.global.evictions > 0 && flat.global.writebacks > 0,
            "{}: the reference run must evict and write back dirty pages",
            policy.label()
        );
        let tiered = run_audited(
            kernel_config(&t, policy, zero_cost_tiers(), false, None, 0.5),
            &t,
        );
        assert_eq!(
            format!("{:?}", tiered.per_core),
            format!("{:?}", flat.per_core),
            "{}: zero-cost tiers changed per-core behavior",
            policy.label()
        );
        assert_eq!(
            tiered.runtime_cycles,
            flat.runtime_cycles,
            "{}",
            policy.label()
        );
        assert_eq!(tiered.dma_bytes, flat.dma_bytes, "{}", policy.label());
        assert_eq!(
            (
                tiered.global.evictions,
                tiered.global.writebacks,
                tiered.global.refaults,
                tiered.global.scan_ticks,
            ),
            (
                flat.global.evictions,
                flat.global.writebacks,
                flat.global.refaults,
                flat.global.scan_ticks,
            ),
            "{}: kernel-global books diverged from the flat oracle",
            policy.label()
        );
    }
}

#[test]
fn tiered_books_balance_for_all_policies_with_and_without_faults() {
    // Layers 2 + 3 under real (non-zero) tier costs, where demotion
    // cascades and promotions actually fire, with and without the 1 %
    // DMA fault plan. `run_audited` carries the assertions.
    let t = pressure_trace();
    for policy in ALL_POLICIES {
        for plan in [None, Some(fault_plan())] {
            let faulted = plan.is_some();
            let r = run_audited(
                kernel_config(&t, policy, tight_tiers(), false, plan, 0.5),
                &t,
            );
            assert!(
                r.global.evictions > 0,
                "{} faulted={faulted}: pressure must evict",
                policy.label()
            );
            assert!(
                r.global.tier_demotions > 0,
                "{} faulted={faulted}: a 24-page fast tier must cascade",
                policy.label()
            );
            if faulted {
                assert!(
                    r.global.dma_errors > 0,
                    "{}: 1% over thousands of transfers must fire",
                    policy.label()
                );
            }
        }
    }
}

#[test]
fn tier_penalties_surface_in_the_report_and_only_for_costly_tiers() {
    let t = pressure_trace();
    let costly = run_audited(
        kernel_config(
            &t,
            PolicyKind::Cmcp { p: 0.5 },
            tight_tiers(),
            false,
            None,
            0.5,
        ),
        &t,
    );
    let penalty: u64 = costly.per_core.iter().map(|c| c.tier_penalty_cycles).sum();
    assert!(penalty > 0, "costly tiers must charge penalty cycles");
    assert!(
        costly.tiers.is_some(),
        "tiered runs must publish the per-tier report"
    );
    let names = &costly.tiers.as_ref().unwrap().names;
    assert_eq!(names, &["fast", "mid", "cold"]);

    let flat = run_audited(
        kernel_config(
            &t,
            PolicyKind::Cmcp { p: 0.5 },
            TierConfig::flat(),
            false,
            None,
            0.5,
        ),
        &t,
    );
    assert_eq!(
        flat.per_core
            .iter()
            .map(|c| c.tier_penalty_cycles)
            .sum::<u64>(),
        0,
        "flat runs never pay tier penalties"
    );
    assert!(
        flat.tiers.is_none(),
        "flat runs omit the per-tier report section"
    );
}

#[test]
fn map_count_ranking_sends_cold_spans_deeper() {
    // Private streams: at eviction time a victim is mapped by at most
    // one core, so CMCP's demotion ranking must route every write-back
    // below the fastest tier (rank >= 1). A roomy hierarchy isolates the
    // ranking decision from capacity cascades.
    let t = synthetic::private_stream(4, 48, 3);
    let roomy = TierConfig::parse("fast:100000@50/0;mid:100000@500/0;cold:0@5000/0").unwrap();
    let r = run_audited(
        kernel_config(&t, PolicyKind::Cmcp { p: 0.5 }, roomy, false, None, 0.5),
        &t,
    );
    let tiers = r.tiers.as_ref().expect("tiered report");
    assert!(r.global.writebacks > 0, "pressure must write back");
    assert_eq!(
        tiers.counters[0].stores, 0,
        "singly-mapped victims never land on the fastest tier"
    );
    assert_eq!(
        tiers.counters[1].stores + tiers.counters[2].stores,
        r.global.writebacks,
        "all write-backs land below the fast tier"
    );
}

#[test]
fn adaptive_page_sizes_hold_the_same_books_under_tier_pressure() {
    // The adaptive allocator (buddy frames, mixed granularities,
    // split-on-evict) against both a flat and a tight hierarchy, with
    // and without faults: the same audit battery must hold, and a tight
    // ratio must actually trigger splits.
    let t = pressure_trace();
    for tiers in [TierConfig::flat(), tight_tiers()] {
        for plan in [None, Some(fault_plan())] {
            let faulted = plan.is_some();
            let r = run_audited(
                kernel_config(
                    &t,
                    PolicyKind::Cmcp { p: 0.5 },
                    tiers.clone(),
                    true,
                    plan,
                    0.4,
                ),
                &t,
            );
            assert!(
                r.global.evictions > 0,
                "adaptive run at 40% must evict (tiers={tiers}, faulted={faulted})"
            );
        }
    }
}

#[test]
fn adaptive_splits_fire_under_pressure_and_books_still_balance() {
    // Many cores sweeping disjoint 2 MB regions under a tight ratio:
    // fresh regions map huge while memory is plentiful, then the
    // pressure controller drops the granularity and eviction splits the
    // oversized victims in place.
    let t = synthetic::private_stream(6, 640, 2);
    let r = run_audited(
        kernel_config(
            &t,
            PolicyKind::Cmcp { p: 0.5 },
            TierConfig::flat(),
            true,
            None,
            0.35,
        ),
        &t,
    );
    assert!(
        r.global.block_splits > 0,
        "a 35% adaptive run must split oversized victims (got {:?})",
        r.global
    );
}

#[test]
fn tiered_and_adaptive_runs_are_reproducible() {
    // Same config, fresh kernel: byte-identical reports. The wider
    // repeat-run matrix lives in `determinism.rs`; this pins run-to-run
    // stability of the tier and adaptive state machines themselves.
    let t = pressure_trace();
    for adaptive in [false, true] {
        let run = || {
            run_audited(
                kernel_config(
                    &t,
                    PolicyKind::AdaptiveCmcp,
                    tight_tiers(),
                    adaptive,
                    Some(fault_plan()),
                    0.5,
                ),
                &t,
            )
        };
        assert_eq!(
            format!("{:?}", run()),
            format!("{:?}", run()),
            "adaptive={adaptive}: repeat tiered run diverged"
        );
    }
}
