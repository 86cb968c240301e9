//! Tracing-layer integration tests: for any workload, the virtual-time
//! event stream must decompose `fault_cycles` exactly into the kernel's
//! own counters, traced runs must stay bit-identical, and the exports
//! must round-trip.

use proptest::prelude::*;

use cmcp::arch::VirtPage;
use cmcp::sim::{Op, Trace};
use cmcp::trace::{to_chrome_trace, to_jsonl, EventKind};
use cmcp::{PolicyKind, SimulationBuilder};

/// Random well-formed traces (same barrier count on every core).
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        2usize..5,
        1usize..3,
        prop::collection::vec((0u64..64, 1u16..8, any::<bool>()), 1..8),
    )
        .prop_map(|(cores, phases, chunks)| {
            let mut t = Trace::new(cores, "trace-prop");
            for c in 0..cores {
                for phase in 0..phases {
                    for (i, &(start, pages, write)) in chunks.iter().enumerate() {
                        let s = start + (c as u64 * 11 + phase as u64 * 7 + i as u64) % 48;
                        t.cores[c].ops.push(Op::Stream {
                            start: VirtPage(s),
                            pages,
                            write,
                            work_per_page: 2,
                        });
                    }
                    t.cores[c].ops.push(Op::Barrier);
                }
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any trace, policy, and memory pressure, the span decomposition
    /// reconstructed from events sums exactly to the kernel counters.
    /// (`RunReport::collect` already panics on mismatch; this re-checks
    /// the equations independently.)
    #[test]
    fn breakdown_matches_core_stats(
        trace in trace_strategy(),
        policy in prop_oneof![
            Just(PolicyKind::Fifo),
            Just(PolicyKind::Lru),
            Just(PolicyKind::Cmcp { p: 0.5 }),
        ],
        ratio in 0.3f64..1.1,
    ) {
        let traced = SimulationBuilder::trace(trace)
            .policy(policy)
            .memory_ratio(ratio)
            .run_traced();
        prop_assert_eq!(traced.dropped, 0, "default capacity must not wrap");
        let b = traced.report.breakdown.as_ref().expect("traced run has a breakdown");
        prop_assert!(b.validated);
        for (bc, sc) in b.per_core.iter().zip(traced.report.per_core.iter()) {
            prop_assert_eq!(bc.faults, sc.page_faults);
            prop_assert_eq!(bc.fault_cycles, sc.fault_cycles);
            prop_assert_eq!(bc.lock_wait_cycles, sc.lock_wait_cycles);
            prop_assert_eq!(bc.shootdown_cycles, sc.shootdown_cycles);
            prop_assert_eq!(bc.dma_wait_cycles, sc.dma_wait_cycles);
            // The decomposition never exceeds the whole.
            let parts = bc.lock_wait_cycles
                + bc.lock_hold_cycles
                + bc.shootdown_cycles
                + bc.dma_wait_cycles
                + bc.policy_scan_cycles;
            prop_assert_eq!(parts + bc.other_cycles, bc.fault_cycles.max(parts));
        }
        // Event-level cross-check: FaultStart count per core == faults.
        for (core, sc) in traced.report.per_core.iter().enumerate() {
            let starts = traced
                .events
                .iter()
                .filter(|e| e.core == core as u16 && e.kind == EventKind::FaultStart)
                .count() as u64;
            prop_assert_eq!(starts, sc.page_faults);
        }
    }
}

#[test]
fn traced_deterministic_runs_are_bit_identical() {
    let mut t = Trace::new(3, "bitwise");
    for c in 0..3 {
        t.cores[c].ops.push(Op::Stream {
            start: VirtPage(c as u64 * 13),
            pages: 48,
            write: true,
            work_per_page: 2,
        });
        t.cores[c].ops.push(Op::Barrier);
        t.cores[c].ops.push(Op::Stream {
            start: VirtPage(c as u64 * 13 + 5),
            pages: 48,
            write: false,
            work_per_page: 2,
        });
        t.cores[c].ops.push(Op::Barrier);
    }
    let run = || {
        SimulationBuilder::trace(t.clone())
            .policy(PolicyKind::Cmcp { p: 0.5 })
            .memory_ratio(0.5)
            .run_traced()
    };
    let a = run();
    let b = run();
    assert_eq!(a.events, b.events, "event streams must be bit-identical");
    assert_eq!(a.dropped, 0);
    assert_eq!(a.report.breakdown, b.report.breakdown);
}

#[test]
fn tiny_ring_wraps_without_breaking_the_run() {
    let t = cmcp::workloads::synthetic::private_stream(2, 64, 3);
    let traced = SimulationBuilder::trace(t)
        .memory_ratio(0.4)
        .trace_capacity(8)
        .run_traced();
    assert!(
        traced.dropped > 0,
        "8-slot rings must wrap on this workload"
    );
    let b = traced.report.breakdown.expect("breakdown still produced");
    assert!(!b.validated, "a wrapped trace must not claim validation");
    assert_eq!(b.dropped_events, traced.dropped);
}

#[test]
fn parallel_engine_traced_run_validates() {
    let t = cmcp::workloads::synthetic::shared_hot(4, 24, 48, 3);
    let traced = SimulationBuilder::trace(t)
        .policy(PolicyKind::Cmcp { p: 0.75 })
        .memory_ratio(0.6)
        .threads(2)
        .run_traced();
    assert_eq!(traced.dropped, 0);
    let b = traced
        .report
        .breakdown
        .expect("parallel traced run has a breakdown");
    assert!(b.validated, "concurrent rings must still sum exactly");
    assert!(!traced.events.is_empty());
}

#[test]
fn fault_spans_decompose_cleanly_in_a_traced_run() {
    // Under an active plan the new FaultInjected / Retry / Quarantine
    // spans must reconcile exactly: per-core event counts match the
    // kernel counters, retry backoff cycles sum precisely into the
    // validated breakdown, and every retry pairs with an injected fault.
    let t = cmcp::workloads::synthetic::shared_hot(6, 32, 48, 5);
    let traced = SimulationBuilder::trace(t)
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .memory_ratio(0.5)
        .fault_plan(cmcp::FaultPlan::new(42).dma_errors(0.02).enospc(0.01))
        .run_traced();
    assert_eq!(traced.dropped, 0, "default ring must hold the faulted run");
    let b = traced.report.breakdown.expect("traced run has a breakdown");
    assert!(b.validated, "fault spans must reconcile with the counters");
    let mut injected_total = 0;
    for (core, sc) in traced.report.per_core.iter().enumerate() {
        let of = |kind: EventKind| {
            traced
                .events
                .iter()
                .filter(|e| e.core == core as u16 && e.kind == kind)
                .collect::<Vec<_>>()
        };
        let injected = of(EventKind::FaultInjected);
        let retries = of(EventKind::Retry);
        let quarantines = of(EventKind::Quarantine);
        assert_eq!(injected.len() as u64, sc.faults_injected);
        assert_eq!(retries.len() as u64, sc.fault_retries);
        assert_eq!(quarantines.len() as u64, sc.quarantines);
        // Retry events carry the charged backoff in `a`; the sum is the
        // exact per-core backoff counter, which the validated breakdown
        // books as a fault_cycles component.
        let backoff: u64 = retries.iter().map(|e| e.a).sum();
        assert_eq!(backoff, sc.retry_backoff_cycles);
        assert!(
            sc.fault_retries <= sc.faults_injected,
            "every retry answers an injected fault"
        );
        let br = &b.per_core[core];
        assert_eq!(br.faults_injected, sc.faults_injected);
        assert_eq!(br.fault_retries, sc.fault_retries);
        assert_eq!(br.retry_backoff_cycles, sc.retry_backoff_cycles);
        assert_eq!(br.quarantines, sc.quarantines);
        injected_total += injected.len() as u64;
    }
    assert!(injected_total > 0, "2% over this run must inject something");
    let global_total = traced.report.global.dma_errors
        + traced.report.global.latency_spikes
        + traced.report.global.ikc_drops
        + traced.report.global.enospc_events
        + u64::from(traced.report.global.sync_syscalls > 0);
    assert_eq!(
        injected_total, global_total,
        "per-core injection events must sum to the global site counters"
    );
}

#[test]
fn a_zero_rate_plan_changes_nothing() {
    // Arming the injector with all-zero rates must leave the run
    // bit-identical to an unfaulted one: the injector consumes sequence
    // numbers but never perturbs virtual time.
    let t = cmcp::workloads::synthetic::shared_hot(4, 24, 40, 3);
    let base = SimulationBuilder::trace(t.clone())
        .memory_ratio(0.5)
        .run_traced();
    let armed = SimulationBuilder::trace(t)
        .memory_ratio(0.5)
        .fault_plan(cmcp::FaultPlan::new(99).dma_errors(0.0))
        .run_traced();
    assert_eq!(base.events, armed.events, "zero rates must be inert");
    assert_eq!(base.report.per_core, armed.report.per_core);
}

#[test]
fn exports_cover_every_event() {
    let t = cmcp::workloads::synthetic::private_stream(2, 32, 2);
    let traced = SimulationBuilder::trace(t).memory_ratio(0.5).run_traced();
    assert!(!traced.events.is_empty());

    let jsonl = to_jsonl(&traced.events);
    assert_eq!(jsonl.lines().count(), traced.events.len());
    for line in jsonl.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
        assert!(v.get("ts").is_some() && v.get("kind").is_some());
    }

    let chrome = to_chrome_trace(&traced.events);
    let v: serde_json::Value = serde_json::from_str(&chrome).expect("valid chrome trace");
    assert!(v.get("traceEvents").is_some());
}
