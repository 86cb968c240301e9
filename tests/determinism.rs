//! Repeat-run determinism: two fresh kernels given the same trace and
//! config must produce a BYTE-IDENTICAL report, not merely
//! statistically close aggregates — under eviction pressure, an active
//! fault plan, tier cascades and adaptive page sizes, the regimes where
//! hidden global state (RNG, time, allocation or hash order) would
//! show.

use proptest::prelude::*;

use cmcp::arch::VirtPage;
use cmcp::sim::Op;
use cmcp::workloads::scale::{scale_trace, ScaleConfig};
use cmcp::workloads::synthetic;
use cmcp::{FaultPlan, PolicyKind, RunReport, SchemeChoice, SimulationBuilder, TierConfig, Trace};

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

fn scale() -> Trace {
    scale_trace(
        8,
        &ScaleConfig {
            nx: 256,
            ny: 64,
            fields: 3,
            steps: 3,
        },
    )
}

/// Byte-exact fingerprint of everything a run reports. `RunReport`
/// derives `Debug` over all of its fields, so two reports with equal
/// fingerprints are equal field-for-field.
fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}")
}

#[test]
fn all_policies_repeat_byte_identically_under_pressure() {
    // The acceptance matrix: every policy, eviction pressure (half the
    // footprint), shared hot set so cross-core shootdowns and scan
    // ticks interleave with faults.
    let t = synthetic::shared_hot(6, 32, 64, 4);
    for policy in ALL_POLICIES {
        let run = || {
            SimulationBuilder::trace(t.clone())
                .policy(policy)
                .memory_ratio(0.5)
                .run()
        };
        let reference = run();
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
        assert_eq!(
            fingerprint(&run()),
            fingerprint(&reference),
            "{}: repeat run diverged",
            policy.label()
        );
    }
}

#[test]
fn all_policies_repeat_byte_identically_under_faults() {
    // Same matrix with the seeded fault layer armed: 1% DMA errors plus
    // occasional ENOSPC. Fault retries re-enter the page-fault path at
    // later stamps, so this leg would catch any stamp-ordering drift in
    // the retry/quarantine machinery.
    let t = synthetic::shared_hot(6, 32, 64, 4);
    for policy in ALL_POLICIES {
        let run = || {
            SimulationBuilder::trace(t.clone())
                .policy(policy)
                .memory_ratio(0.5)
                .fault_plan(FaultPlan::new(7).dma_errors(0.01).enospc(0.005))
                .run()
        };
        let reference = run();
        assert!(
            reference.global.dma_errors > 0,
            "{}: 1% over thousands of transfers must fire",
            policy.label()
        );
        assert_eq!(
            fingerprint(&run()),
            fingerprint(&reference),
            "{}: faulted repeat run diverged",
            policy.label()
        );
    }
}

#[test]
fn scale_workload_repeats_byte_identically() {
    // A real workload trace (SCALE stencil) rather than a synthetic one:
    // barriers every step, constrained memory, CMCP policy.
    let run = || {
        SimulationBuilder::trace(scale())
            .policy(PolicyKind::Cmcp { p: 0.75 })
            .memory_ratio(0.5)
            .run()
    };
    assert_eq!(fingerprint(&run()), fingerprint(&run()), "SCALE diverged");
}

#[test]
fn regular_tables_repeat_byte_identically() {
    let t = synthetic::private_stream(4, 32, 3);
    let run = || {
        SimulationBuilder::trace(t.clone())
            .scheme(SchemeChoice::Regular)
            .memory_ratio(0.5)
            .run()
    };
    let reference = run();
    assert!(reference.global.evictions > 0);
    assert!(
        reference.sharing_histogram.is_none(),
        "regular tables have no histogram"
    );
    assert_eq!(fingerprint(&run()), fingerprint(&reference));
}

/// Random traces mixing private streams, shared pages, compute gaps,
/// syscalls, and barriers — with a constrained ratio so evictions and
/// shootdowns actually interleave.
fn pressure_trace_strategy() -> impl Strategy<Value = Trace> {
    (
        2usize..6,
        prop::collection::vec((0u64..96, 1u16..12, any::<bool>()), 1..6),
    )
        .prop_map(|(cores, chunks)| {
            let mut t = Trace::new(cores, "det-prop");
            for c in 0..cores {
                for (i, &(start, pages, write)) in chunks.iter().enumerate() {
                    let s = start + (c as u64 * 17 + i as u64 * 5) % 64;
                    t.cores[c].ops.push(Op::Stream {
                        start: VirtPage(s),
                        pages,
                        write,
                        work_per_page: 2,
                    });
                    if i % 2 == 0 {
                        t.cores[c].ops.push(Op::Compute(500));
                    }
                }
                t.cores[c].ops.push(Op::Barrier);
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any trace and any policy, a repeat run yields the
    /// byte-identical report — property-tested on the flat store, on a
    /// tiered hierarchy, and with the fault-injection layer armed.
    #[test]
    fn any_trace_any_policy_repeats_byte_identically(
        trace in pressure_trace_strategy(),
        policy in prop_oneof![
            Just(PolicyKind::Fifo),
            Just(PolicyKind::Lru),
            Just(PolicyKind::Clock),
            Just(PolicyKind::Lfu),
            Just(PolicyKind::Random),
            Just(PolicyKind::Cmcp { p: 0.5 }),
            Just(PolicyKind::AdaptiveCmcp),
        ],
    ) {
        let legs: [(&str, Option<&str>, Option<FaultPlan>); 3] = [
            ("flat", None, None),
            ("2tier", Some("2tier"), None),
            ("faulted", None, Some(FaultPlan::new(7).dma_errors(0.01).enospc(0.005))),
        ];
        for (label, tiers, plan) in legs {
            let run = || {
                let mut b = SimulationBuilder::trace(trace.clone())
                    .policy(policy)
                    .memory_ratio(0.5);
                if let Some(spec) = tiers {
                    b = b.tiers(TierConfig::parse(spec).unwrap());
                }
                if let Some(plan) = plan.clone() {
                    b = b.fault_plan(plan);
                }
                b.run()
            };
            let reference = run();
            // Conservation sanity before equality: every touch executed,
            // faults bounded by misses.
            let touches: u64 = reference.per_core.iter().map(|c| c.dtlb_accesses).sum();
            prop_assert_eq!(touches, trace.total_touches(), "{} leg", label);
            let faults: u64 = reference.per_core.iter().map(|c| c.page_faults).sum();
            let misses: u64 = reference.per_core.iter().map(|c| c.dtlb_misses).sum();
            prop_assert!(faults <= misses, "{} leg", label);
            prop_assert_eq!(
                fingerprint(&run()),
                fingerprint(&reference),
                "{} leg ({}): repeat run diverged",
                label,
                policy.label()
            );
        }
    }
}

#[test]
fn tiered_and_adaptive_runs_repeat_byte_identically() {
    // The multi-tier leg of the acceptance matrix: determinism must
    // survive the tier subsystem (span store, demotion cascades,
    // promotions) and the adaptive page-size machinery (buddy
    // allocator, split-on-evict, pressure controller), with the fault
    // plan armed on the tightest config. A 24-page fast tier under the
    // pressure trace guarantees capacity cascades; a repeat run must
    // still be byte-equal.
    let t = synthetic::shared_hot(6, 32, 64, 4);
    let tight = "fast:24@50/0;mid:64@500/2000;cold:0@5000/500";
    let legs: [(&str, &str, bool, Option<FaultPlan>); 4] = [
        ("2tier", "2tier", false, None),
        ("4tier", "4tier", false, None),
        (
            "tight+faults",
            tight,
            false,
            Some(FaultPlan::new(7).dma_errors(0.01).enospc(0.005)),
        ),
        ("tight+adaptive", tight, true, None),
    ];
    for (label, spec, adaptive, plan) in legs {
        let tiers = TierConfig::parse(spec).unwrap();
        let run = || {
            let mut b = SimulationBuilder::trace(t.clone())
                .policy(PolicyKind::Cmcp { p: 0.5 })
                .tiers(tiers.clone())
                .memory_ratio(0.5);
            if adaptive {
                b = b.adaptive_page_size();
            }
            if let Some(plan) = plan.clone() {
                b = b.fault_plan(plan);
            }
            b.run()
        };
        let reference = run();
        assert!(
            reference.global.evictions > 0,
            "{label}: tier pressure must evict"
        );
        if spec == tight {
            assert!(
                reference.global.tier_demotions + reference.global.tier_promotions > 0,
                "{label}: the 24-page fast tier must cascade spans"
            );
        }
        assert_eq!(
            fingerprint(&run()),
            fingerprint(&reference),
            "{label}: repeat run diverged"
        );
    }
}

#[test]
fn eviction_storm_is_byte_identical_and_reconciliation_heavy() {
    // The reconciliation-heavy leg: a hot set plus private streams
    // squeezed to 30% of the footprint, so the frame pool runs dry in
    // the first epochs and nearly every subsequent fault either evicts
    // or re-loads from backing — neither is shardable. The classifier
    // must count almost everything as reconciled and a repeat run must
    // not move a byte.
    let t = synthetic::shared_hot(8, 48, 64, 4);
    let run = || {
        SimulationBuilder::trace(t.clone())
            .policy(PolicyKind::Cmcp { p: 0.5 })
            .memory_ratio(0.3)
            .run()
    };
    let reference = run();
    assert!(
        reference.global.evictions > reference.scaling.shardable,
        "storm leg must be eviction-dominated: {:?}",
        reference.scaling
    );
    assert!(
        reference.scaling.reconciled > reference.scaling.shardable,
        "reconciliation must dominate under a storm: {:?}",
        reference.scaling
    );
    assert_eq!(
        fingerprint(&run()),
        fingerprint(&reference),
        "storm leg: repeat run diverged"
    );
}
