//! # cmcp-bench — the experiment harness
//!
//! One binary per artifact of the paper's evaluation:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig6` | Figure 6 — page distribution by number of mapping cores |
//! | `fig7` | Figure 7 — runtime scaling, 5 configurations, 8–56 cores |
//! | `fig8` | Figure 8 — relative performance vs memory provided |
//! | `fig9` | Figure 9 — impact of the prioritized-page ratio `p` |
//! | `fig10` | Figure 10 — page-size impact vs memory constraint |
//! | `table1` | Table 1 — per-core faults / shootdowns / dTLB misses |
//! | `ablation_policies` | beyond the paper: CLOCK, LFU, Random, adaptive CMCP |
//! | `ablation_aging` | beyond the paper: the CMCP aging tradeoff |
//! | `ablation_ipi` | beyond the paper: §3's hardware multicast-invalidation ask |
//! | `all` | everything above, writing `results/*.json` |
//!
//! The paper tunes the memory constraint per application "so that
//! relative performance with FIFO replacement results between 50% and
//! 60%" (§5.3) and tunes CMCP's `p` manually (§5.6). This harness does
//! the same for *this* system: [`tuned_constraint`] and [`best_p`] hold
//! the values found by that procedure (re-derivable with the `tune`
//! binary), and EXPERIMENTS.md records where they differ from the
//! paper's hardware.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use serde::Serialize;

use cmcp::{
    PageSize, PolicyKind, RunReport, SchemeChoice, SimulationBuilder, Trace, Workload,
    WorkloadClass,
};

/// The paper's core-count sweep (Figures 6, 7 and Table 1).
pub const CORE_COUNTS: [usize; 7] = [8, 16, 24, 32, 40, 48, 56];

/// Memory constraint per workload, tuned on this simulator by the
/// paper's §5.3 procedure: the largest ratio (in 0.01 steps) at which
/// PSPT+FIFO at 56 cores falls to 50–60 % of no-data-movement
/// performance. (The paper's own hardware arrived at 64 % for BT, 66 %
/// for LU, 37 % for CG and ~50 % for SCALE.)
pub fn tuned_constraint(w: Workload) -> f64 {
    match w {
        Workload::Bt(_) => 0.60,
        Workload::Lu(_) => 0.70,
        Workload::Cg(_) => 0.37,
        // SCALE uses the paper's stated "approximately half of the
        // memory requirement": below 0.5 this simulator's FIFO baseline
        // enters a knife-edge regime (see EXPERIMENTS.md).
        Workload::Scale(_) => 0.50,
    }
}

/// The best CMCP ratio `p` per workload, from this repository's Figure 9
/// run (the paper likewise reports the best `p` is workload-specific and
/// sets it manually).
pub fn best_p(w: Workload) -> f64 {
    match w {
        Workload::Bt(_) => 0.75,
        Workload::Lu(_) => 0.75,
        Workload::Cg(_) => 0.75,
        Workload::Scale(_) => 0.75,
    }
}

/// The five configurations of Figure 7, in the paper's legend order.
pub fn fig7_configs(w: Workload) -> Vec<(&'static str, SchemeChoice, PolicyKind, f64)> {
    let c = tuned_constraint(w);
    vec![
        (
            "no data movement",
            SchemeChoice::Regular,
            PolicyKind::Fifo,
            10.0,
        ),
        (
            "regular PT + FIFO",
            SchemeChoice::Regular,
            PolicyKind::Fifo,
            c,
        ),
        ("PSPT + FIFO", SchemeChoice::Pspt, PolicyKind::Fifo, c),
        ("PSPT + LRU", SchemeChoice::Pspt, PolicyKind::Lru, c),
        (
            "PSPT + CMCP",
            SchemeChoice::Pspt,
            PolicyKind::Cmcp { p: best_p(w) },
            c,
        ),
    ]
}

/// Caches workload traces across configurations of the same sweep —
/// trace generation (especially CG's sparse pattern) dominates otherwise.
#[derive(Default)]
pub struct TraceCache {
    traces: HashMap<(String, usize), Trace>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// Returns (generating on first use) the trace for `w` on `cores`.
    pub fn get(&mut self, w: Workload, cores: usize) -> &Trace {
        self.traces
            .entry((w.label().to_string(), cores))
            .or_insert_with(|| w.trace(cores))
    }
}

/// Runs one configuration against a cached trace.
pub fn run_config(
    trace: &Trace,
    scheme: SchemeChoice,
    policy: PolicyKind,
    ratio: f64,
    page_size: PageSize,
) -> RunReport {
    SimulationBuilder::trace(trace.clone())
        .scheme(scheme)
        .policy(policy)
        .memory_ratio(ratio)
        .page_size(page_size)
        .run()
}

/// Like [`run_config`], but with the virtual-time event tracer on; the
/// returned report carries a breakdown validated against the kernel
/// counters, and the raw events are available for export.
pub fn run_config_traced(
    trace: &Trace,
    scheme: SchemeChoice,
    policy: PolicyKind,
    ratio: f64,
    page_size: PageSize,
) -> cmcp::TracedRun {
    SimulationBuilder::trace(trace.clone())
        .scheme(scheme)
        .policy(policy)
        .memory_ratio(ratio)
        .page_size(page_size)
        .run_traced()
}

/// Formats a markdown table.
pub fn markdown_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Writes a serializable result set under `results/<name>.json`.
pub fn save_results<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// All four workloads of a class.
pub fn workloads(class: WorkloadClass) -> [Workload; 4] {
    Workload::all(class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_and_p_are_defined_for_all_workloads() {
        for w in workloads(WorkloadClass::B) {
            let c = tuned_constraint(w);
            assert!(c > 0.0 && c <= 1.0, "{w}: {c}");
            let p = best_p(w);
            assert!((0.0..=1.0).contains(&p), "{w}: {p}");
        }
    }

    #[test]
    fn fig7_has_five_configs_in_paper_order() {
        let cfgs = fig7_configs(Workload::Cg(WorkloadClass::B));
        assert_eq!(cfgs.len(), 5);
        assert_eq!(cfgs[0].0, "no data movement");
        assert_eq!(cfgs[4].0, "PSPT + CMCP");
    }

    #[test]
    fn trace_cache_returns_same_trace() {
        let mut cache = TraceCache::new();
        let w = Workload::Scale(WorkloadClass::B);
        let a = cache.get(w, 2).total_touches();
        let b = cache.get(w, 2).total_touches();
        assert_eq!(a, b);
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a".into(), "b".into()], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("| 1 | 2 |"));
    }
}
