//! NUMA replica-coherence acceptance suite: drives the kernel directly
//! on multi-node topologies and audits the replication ledger against
//! invariants that hold by construction of the protocol.
//!
//! * **Replica subset**: a block's replica mask never names a node
//!   without a PSPT mapping core — PSPT's exact mapping sets are what
//!   make replica shootdowns precise, so at quiescence every replica
//!   bit must be covered by the mapping-node mask (equality would be
//!   too strong only across a PSPT rebuild boundary, where both sides
//!   are torn down together).
//! * **Invalidation conservation**: every replica ever created is
//!   either still resident or was counted exactly once in
//!   `replica_invalidations` (evict teardown or rebuild drop). Replica
//!   creations are observable as inserts + counted cross-node syncs,
//!   plus at most one *uncounted* local re-add per spilled insert (the
//!   home node's first map of a block that spilled to it), which
//!   bounds the balance from both sides.
//! * **Frame conservation per node**: node budgets are never
//!   overdrawn and the per-node used counts sum to the resident block
//!   count — frames are charged to exactly one home each.
//! * **Reproducibility**: a multi-node run repeated on a fresh kernel
//!   is Debug-identical, replication on and off — the NUMA ledger is
//!   only touched by the stamp-ordered phase-B fold (DESIGN.md §15).

use cmcp::arch::VirtPage;
use cmcp::kernel::{KernelConfig, SchemeChoice, Vmm};
use cmcp::workloads::synthetic;
use cmcp::{CostModel, NumaConfig, PageSize, PolicyKind, SimulationBuilder, Trace};

/// Builds a PSPT+CMCP kernel on `topology` with `device_blocks` frames.
fn numa_vmm(
    trace: &Trace,
    topology: &str,
    replicate: bool,
    device_blocks: usize,
    rebuild_period: u64,
) -> Vmm {
    let mut cost = CostModel {
        numa: NumaConfig::parse(topology).expect("preset parses"),
        ..Default::default()
    };
    cost.numa.replicate = replicate;
    Vmm::new(KernelConfig {
        cores: trace.cores.len(),
        block_size: PageSize::K4,
        device_blocks,
        scheme: SchemeChoice::Pspt,
        policy: PolicyKind::Cmcp { p: 0.5 },
        cost,
        scan_budget: 0,
        pspt_rebuild_period: rebuild_period,
        fault_plan: None,
        adaptive: false,
    })
}

/// Every page any core ever touched — the probe universe for the
/// block-state oracles.
fn touched_pages(trace: &Trace) -> Vec<VirtPage> {
    let mut pages: Vec<u64> = trace
        .cores
        .iter()
        .flat_map(|c| c.page_set())
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    pages.sort_unstable();
    pages.into_iter().map(VirtPage).collect()
}

/// A shared-hot workload under real eviction pressure (60 % of the
/// footprint), which exercises inserts, cross-node syncs, spills,
/// migrations, and evict teardowns in one run.
fn pressured(topology: &str, replicate: bool, rebuild_period: u64) -> (Trace, Vmm) {
    let trace = synthetic::shared_hot(8, 48, 24, 4);
    let blocks = (trace.declared_blocks(PageSize::K4) * 3) / 5;
    let vmm = numa_vmm(&trace, topology, replicate, blocks, rebuild_period);
    (trace, vmm)
}

#[test]
fn replica_sets_are_subsets_of_pspt_mapping_node_sets() {
    for rebuild_period in [0, 200_000] {
        let (trace, mut vmm) = pressured("4node", true, rebuild_period);
        cmcp::sim::run(&mut vmm, &trace);
        let mut resident = 0usize;
        for head in touched_pages(&trace) {
            if let Some(st) = vmm.numa_block_state(head) {
                resident += 1;
                let mapped = vmm.mapping_node_mask(head);
                assert_eq!(
                    st.mask & !mapped,
                    0,
                    "{head}: replica mask {:#b} names nodes outside the \
                     mapping-node set {mapped:#b} (rebuild period {rebuild_period})",
                    st.mask,
                );
            }
        }
        assert!(resident > 0, "oracle never saw a resident block");
    }
}

#[test]
fn every_replica_drop_is_counted_exactly_once() {
    let (trace, mut vmm) = pressured("4node", true, 0);
    cmcp::sim::run(&mut vmm, &trace);
    assert_eq!(vmm.numa_books().capacity().len(), 4, "one budget per node");
    let evictions = vmm.global_stats().evictions;
    let n = vmm.numa_stats().clone();
    let (syncs, invalidations, spills) =
        (n.replica_syncs, n.replica_invalidations, n.remote_spills);
    let resident_entries: u64 = vmm.numa_used().iter().sum();
    let resident_replicas: u64 = touched_pages(&trace)
        .iter()
        .filter_map(|&h| vmm.numa_block_state(h))
        .map(|st| u64::from(st.mask.count_ones()))
        .sum();
    assert!(evictions > 0, "pressure run must evict");
    assert!(syncs > 0, "shared pages must cross nodes");
    // Creations: one replica per insert (the faulting node's bit) plus
    // one per counted cross-node sync, plus 0..=1 uncounted local
    // re-add per spilled insert. Drops: one invalidation per replica
    // torn down. Balance: creations == drops + still-resident.
    let created_floor = (evictions + resident_entries) + syncs;
    let accounted = invalidations + resident_replicas;
    assert!(
        accounted >= created_floor && accounted <= created_floor + spills,
        "replica conservation violated: {accounted} accounted \
         (invalidations {invalidations} + resident {resident_replicas}) vs \
         {created_floor} created (+ at most {spills} spill re-adds)"
    );
}

#[test]
fn node_budgets_are_never_overdrawn_and_sum_to_residency() {
    for replicate in [true, false] {
        let (trace, mut vmm) = pressured("4node", replicate, 0);
        cmcp::sim::run(&mut vmm, &trace);
        let books = vmm.numa_books();
        let used = vmm.numa_used();
        for (n, (&u, &cap)) in used.iter().zip(books.capacity()).enumerate() {
            assert!(u <= cap, "node {n} overdrawn: {u} > {cap}");
        }
        assert_eq!(
            used.iter().sum::<u64>(),
            vmm.resident_blocks() as u64,
            "per-node used counts must sum to the resident block count"
        );
    }
}

#[test]
fn balanced_private_streams_neither_spill_nor_invalidate() {
    // Symmetric private working sets on a symmetric topology at ratio
    // 1.0: no evictions, no spills — so the conservation law collapses
    // to equality with zero invalidations.
    let trace = synthetic::private_stream(8, 16, 3);
    let blocks = trace.declared_blocks(PageSize::K4);
    let mut vmm = numa_vmm(&trace, "2node", true, blocks, 0);
    cmcp::sim::run(&mut vmm, &trace);
    let n = vmm.numa_stats().clone();
    assert_eq!(vmm.global_stats().evictions, 0);
    assert_eq!(n.remote_spills, 0);
    assert_eq!(n.replica_invalidations, 0);
    let resident_replicas: u64 = touched_pages(&trace)
        .iter()
        .filter_map(|&h| vmm.numa_block_state(h))
        .map(|st| u64::from(st.mask.count_ones()))
        .sum();
    assert_eq!(vmm.numa_books().capacity().len(), 2, "one budget per node");
    let inserts: u64 = vmm.numa_used().iter().sum();
    assert_eq!(
        resident_replicas,
        inserts + n.replica_syncs,
        "with no drops, every created replica is still resident"
    );
}

#[test]
fn multi_node_reports_are_thread_count_invariant() {
    // The engine runs on one thread, so the invariance is checked as its
    // degenerate case: a repeat run on a fresh kernel.
    for replicate in [true, false] {
        let run = || {
            let trace = synthetic::shared_hot(8, 48, 24, 4);
            let blocks = (trace.declared_blocks(PageSize::K4) * 3) / 5;
            let mut vmm = numa_vmm(&trace, "4node", replicate, blocks, 0);
            format!("{:?}", cmcp::sim::run(&mut vmm, &trace))
        };
        assert_eq!(
            run(),
            run(),
            "multi-node report diverged on a repeat run (replicate={replicate})"
        );
    }
}

#[test]
fn single_node_books_balance_and_nothing_crosses_a_link() {
    // A one-node run is the one-node case of the general books: every
    // block is charged to node 0's budget, and with one node there is
    // nowhere to spill, sync from or migrate to.
    let trace = synthetic::shared_hot(4, 16, 8, 2);
    let blocks = trace.declared_blocks(PageSize::K4) / 2;
    let mut vmm = numa_vmm(&trace, "1node", true, blocks, 0);
    let report = cmcp::sim::run(&mut vmm, &trace);
    assert!(
        vmm.global_stats().evictions > 0,
        "half the footprint must evict"
    );
    assert_eq!(vmm.numa_books().capacity(), [blocks as u64]);
    let used = vmm.numa_used();
    assert_eq!(used.len(), 1, "one budget for the one node");
    assert_eq!(
        used.iter().sum::<u64>(),
        vmm.resident_blocks() as u64,
        "node 0's used count must equal the resident block count"
    );
    let n = vmm.numa_stats().clone();
    assert_eq!(n.remote_spills, 0, "no spill");
    assert_eq!(n.replica_syncs, 0, "no sync");
    assert_eq!(n.page_migrations, 0, "no migration");
    let crossings: u64 =
        n.replica_sync_cycles.iter().sum::<u64>() + n.migration_cycles.iter().sum::<u64>();
    assert_eq!(crossings, 0, "no link-crossing cycles");
    assert!(
        report.numa.is_none(),
        "no numa section on single-node reports"
    );
}

#[test]
fn replication_off_still_tracks_homes_but_grows_no_masks() {
    let (trace, mut vmm) = pressured("4node", false, 0);
    cmcp::sim::run(&mut vmm, &trace);
    let mut saw_block = false;
    for head in touched_pages(&trace) {
        if let Some(st) = vmm.numa_block_state(head) {
            saw_block = true;
            assert!(
                st.mask.count_ones() <= 1,
                "{head}: replication off must never grow the replica set \
                 beyond the insert bit (mask {:#b})",
                st.mask
            );
        }
    }
    assert!(saw_block);
}

#[test]
fn undersized_link_latencies_are_rejected_at_validation_time() {
    // The deterministic engine's epoch window is the global minimum
    // cross-core latency; a cross-node link faster than the IPI window
    // would silently shrink it, so Vmm construction must refuse.
    let cost = CostModel::default();
    let window = cost.ipi_send + cost.ipi_handle;
    let spec = format!("a:1024@0/0;b:1024@{}/0", window.saturating_sub(1));
    let cfg = NumaConfig::parse(&spec).expect("grammar accepts the spec");
    assert!(
        cfg.check_window(window).is_err(),
        "undercutting link must fail"
    );
    let ok = NumaConfig::parse("2node").unwrap();
    assert!(ok.check_window(window).is_ok(), "presets clear the window");

    let result = std::panic::catch_unwind(|| {
        let trace = synthetic::private_stream(2, 4, 1);
        let cost = CostModel {
            numa: cfg,
            ..Default::default()
        };
        Vmm::new(KernelConfig {
            cores: 2,
            block_size: PageSize::K4,
            device_blocks: trace.declared_blocks(PageSize::K4),
            scheme: SchemeChoice::Pspt,
            policy: PolicyKind::Fifo,
            cost,
            scan_budget: 0,
            pspt_rebuild_period: 0,
            fault_plan: None,
            adaptive: false,
        })
    });
    assert!(
        result.is_err(),
        "Vmm construction must panic on the undercut"
    );
}

#[test]
fn builder_multi_node_runs_expose_the_numa_report() {
    let report = SimulationBuilder::workload(cmcp::Workload::Cg(cmcp::WorkloadClass::B))
        .cores(8)
        .policy(PolicyKind::Cmcp { p: 0.5 })
        .numa(NumaConfig::parse("2node").unwrap())
        .memory_ratio(0.5)
        .run();
    let numa = report
        .numa
        .expect("multi-node report carries a numa section");
    assert_eq!(numa.nodes.len(), 2);
    assert!(numa.replica_syncs > 0, "CG's shared matrix crosses nodes");
}
