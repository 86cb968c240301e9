//! Integration tests for the IHK-style substrate extensions: syscall
//! offloading through traces, the excluded workloads' characteristics,
//! and PSPT rebuilding end-to-end.

use cmcp::workloads::ep::{ep_trace, EpConfig};
use cmcp::workloads::mg::{mg_trace, MgConfig};
use cmcp::{PolicyKind, SimulationBuilder, Workload, WorkloadClass};

/// SCALE's history writes go through the offload engine.
#[test]
fn scale_offloads_history_writes() {
    let w = Workload::Scale(WorkloadClass::B);
    let trace = w.trace(4);
    let has_syscalls = trace.cores.iter().any(|c| {
        c.ops
            .iter()
            .any(|op| matches!(op, cmcp::sim::Op::Syscall { .. }))
    });
    assert!(has_syscalls, "SCALE must emit offloaded I/O");
    // Small run to exercise the path end to end (use a trimmed config).
    let small = cmcp::workloads::scale::scale_trace(
        4,
        &cmcp::workloads::scale::ScaleConfig {
            nx: 256,
            ny: 64,
            fields: 2,
            steps: 4,
        },
    );
    let r = SimulationBuilder::trace(small.clone()).run();
    assert!(r.runtime_cycles > 0);
    // The offload engine is not surfaced in RunReport; assert indirectly:
    // an identical trace with the syscalls stripped finishes faster.
    let mut stripped = small.clone();
    for c in &mut stripped.cores {
        c.ops
            .retain(|op| !matches!(op, cmcp::sim::Op::Syscall { .. }));
    }
    let r2 = SimulationBuilder::trace(stripped).run();
    assert!(
        r.runtime_cycles > r2.runtime_cycles,
        "offloaded I/O must cost time: {} vs {}",
        r.runtime_cycles,
        r2.runtime_cycles
    );
}

/// EP is immune to the memory constraints that crush the real workloads
/// (the paper's reason to exclude it): its *absolute* footprint is so
/// small that a device sized to devastate cg.B still holds all of EP.
#[test]
fn ep_is_immune_to_memory_pressure() {
    let cg = Workload::Cg(WorkloadClass::B).trace(8);
    // Half of CG's declared requirement — a crushing constraint for CG…
    let device_blocks = cg.declared_blocks(cmcp::PageSize::K4) / 2;
    let t = ep_trace(8, &EpConfig { m: 14, seed: 2 });
    assert!(
        t.footprint_pages() < device_blocks,
        "EP fits with room to spare"
    );
    let full = SimulationBuilder::trace(t.clone()).run();
    let constrained = SimulationBuilder::trace(t)
        .device_blocks(device_blocks)
        .run();
    // Identical fault counts: the working set always fits.
    let f = |r: &cmcp::RunReport| r.per_core.iter().map(|c| c.page_faults).sum::<u64>();
    assert_eq!(f(&full), f(&constrained));
    assert_eq!(constrained.global.evictions, 0);
}

/// MG under the same constraint collapses worse than CG — the paper's
/// out-of-core-infeasibility argument.
#[test]
fn mg_collapses_harder_than_cg_under_pressure() {
    let cores = 8;
    let rel = |trace: cmcp::Trace| {
        let base = SimulationBuilder::trace(trace.clone())
            .memory_ratio(10.0)
            .run();
        let half = SimulationBuilder::trace(trace)
            .policy(PolicyKind::Fifo)
            .memory_ratio(0.5)
            .run();
        base.runtime_cycles as f64 / half.runtime_cycles as f64
    };
    let mg = rel(mg_trace(cores, &MgConfig { n: 32, cycles: 2 }));
    let cg = rel(Workload::Cg(WorkloadClass::B).trace(cores));
    assert!(
        mg < cg,
        "MG ({mg:.2}) must lose more than CG ({cg:.2}) at 50% memory"
    );
}

/// PSPT rebuilding refreshes the sharing histogram.
#[test]
fn rebuild_resets_core_map_counts() {
    use cmcp::arch::{CoreId, VirtPage};
    use cmcp::kernel::{KernelConfig, Vmm};
    let v = Vmm::new(KernelConfig::new(4, 16));
    for c in 0..4u16 {
        v.handle_fault(CoreId(c), VirtPage(0), false);
    }
    assert_eq!(
        v.sharing_histogram().unwrap()[3],
        1,
        "block mapped by 4 cores"
    );
    let torn = v.rebuild_pspt().unwrap();
    assert_eq!(torn, 1);
    let hist = v.sharing_histogram().unwrap();
    assert_eq!(
        hist.iter().sum::<usize>(),
        0,
        "no mappings survive the rebuild"
    );
    // One core refaults: count re-forms at 1, and the frame was reused
    // (no new allocation, no DMA).
    v.handle_fault(CoreId(2), VirtPage(0), false);
    assert_eq!(v.sharing_histogram().unwrap()[0], 1);
    assert_eq!(v.dma().bytes_in(), 0);
    assert_eq!(v.global_stats().evictions, 0);
}

/// A rebuild must not lose write-back debts, and evicting a rebuilt
/// (resident but unmapped) block must not panic.
#[test]
fn rebuild_preserves_dirty_writeback_debt() {
    use cmcp::arch::{CoreId, VirtPage};
    use cmcp::kernel::{KernelConfig, Vmm};
    let v = Vmm::new(KernelConfig::new(1, 2));
    v.handle_fault(CoreId(0), VirtPage(0), true);
    v.mark_accessed(CoreId(0), VirtPage(0), true); // dirty
    v.handle_fault(CoreId(0), VirtPage(1), false);
    v.rebuild_pspt().unwrap();
    // Evict the rebuilt dirty block (FIFO head = block 0): the write-back
    // must still happen even though its PTEs are gone.
    v.handle_fault(CoreId(0), VirtPage(2), false);
    assert_eq!(v.global_stats().writebacks, 1);
    assert_eq!(v.dma().bytes_out(), 4096);
}

/// Rebuilding under regular tables is a no-op.
#[test]
fn rebuild_is_noop_for_regular_tables() {
    use cmcp::arch::{CoreId, VirtPage};
    use cmcp::kernel::{KernelConfig, SchemeChoice, Vmm};
    let v = Vmm::new(KernelConfig::new(2, 4).with_scheme(SchemeChoice::Regular));
    v.handle_fault(CoreId(0), VirtPage(0), false);
    assert!(v.rebuild_pspt().is_none());
    assert!(
        v.translate(CoreId(0), VirtPage(0)).is_some(),
        "mapping untouched"
    );
}
