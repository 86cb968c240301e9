//! The merged run report: everything the experiment harness prints.

use cmcp_arch::{Cycles, TlbStats};
use cmcp_kernel::{CoreStatsSnapshot, GlobalStatsSnapshot, TierCounters, Vmm};
use cmcp_trace::{Breakdown, CoreTotals, Recorder};

use crate::runner::CoreRunner;

/// Per-tier backing-store roll-up: one row per configured tier, in
/// hierarchy order (fastest first).
#[derive(Debug, Clone, Default)]
pub struct TierReport {
    /// Tier names from the hierarchy spec.
    pub names: Vec<String>,
    /// Occupancy and traffic counters, parallel to `names`.
    pub counters: Vec<TierCounters>,
}

/// Multi-node NUMA roll-up: the topology in force, per-node DRAM
/// budgets and occupancy, and the replica-coherence counters. The
/// underlying counters live in the kernel's `NumaStats` — **not** in
/// the serialized snapshot structs — so single-node reports (and the
/// committed goldens built from them) are byte-identical to the
/// pre-NUMA code; this struct exists only when the topology is
/// multi-node.
#[derive(Debug, Clone, Default)]
pub struct NumaReport {
    /// Node names from the topology spec, in index order.
    pub nodes: Vec<String>,
    /// Whether page-table replication was on.
    pub replicate: bool,
    /// Per-node DRAM budgets in blocks (sums to the device block
    /// count).
    pub capacity_blocks: Vec<u64>,
    /// Per-node blocks in use at run end, parallel to `nodes`.
    pub used_blocks: Vec<u64>,
    /// Replica syncs (replication on: first fault from a new node).
    pub replica_syncs: u64,
    /// Replica invalidations at eviction / rebuild teardown.
    pub replica_invalidations: u64,
    /// Home-node migrations toward the map-count-weighted access
    /// center.
    pub page_migrations: u64,
    /// First-touch allocations that spilled to a remote node.
    pub remote_spills: u64,
    /// Total cycles all cores spent on replica traffic (syncs,
    /// invalidations, remote master walks).
    pub replica_sync_cycles: u64,
    /// Total cycles all cores spent migrating block homes.
    pub migration_cycles: u64,
}

/// Deterministic engine-scaling counters: how phase B decomposed the
/// run. Every field is a pure function of `(seed, config, tiers,
/// fault-plan)` (asserted by the repeat-run suite, since `RunReport`
/// derives `Debug` over this struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineScaling {
    /// Epochs the engine ran (phase-B invocations).
    pub epochs: u64,
    /// Epochs whose ceiling fast-forwarded past the base window
    /// (timer-free straggler phases merged into one epoch).
    pub fast_forwards: u64,
    /// Kernel entries committed across all epochs (faults, syscalls,
    /// scan ticks, rebuilds).
    pub committed: u64,
    /// Entries the classifier proved shard-local: a diagnostic of how
    /// much of phase B could commit concurrently (all of it commits
    /// sequentially).
    pub shardable: u64,
    /// Entries that could not be proved shard-local. Always
    /// `committed - shardable`.
    pub reconciled: u64,
    /// Rendezvous-barrier releases (virtual-time barriers, not host
    /// barriers).
    pub releases: u64,
}

/// Result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Workload label.
    pub label: String,
    /// Configuration label (scheme + policy + page size).
    pub config: String,
    /// Virtual runtime: the maximum core clock at completion.
    pub runtime_cycles: Cycles,
    /// Runtime in seconds at the configured frequency.
    pub runtime_secs: f64,
    /// Per-core counters (Table 1 rows).
    pub per_core: Vec<CoreStatsSnapshot>,
    /// Kernel-global counters.
    pub global: GlobalStatsSnapshot,
    /// Cycles the DMA engine was busy / callers queued on it.
    pub dma_busy_cycles: Cycles,
    /// Queueing delay on the DMA engine.
    pub dma_queued_cycles: Cycles,
    /// Queueing delay on page-table locks.
    pub lock_queued_cycles: Cycles,
    /// Bytes moved host→device / device→host.
    pub dma_bytes: (u64, u64),
    /// PSPT sharing histogram (Figure 6), if the scheme provides one.
    pub sharing_histogram: Option<Vec<usize>>,
    /// Per-core fault-path cycle decomposition, present when the run was
    /// traced. Validated against the kernel counters unless events were
    /// dropped (ring wraparound).
    pub breakdown: Option<Breakdown>,
    /// Per-tier backing counters; `None` when the run's tier config is
    /// the flat one (`TierConfig::is_flat`), whatever the page size.
    pub tiers: Option<TierReport>,
    /// NUMA topology roll-up; `None` when the run's topology is a
    /// single node (`NumaConfig::is_single`).
    pub numa: Option<NumaReport>,
    /// Deterministic phase-B decomposition counters (thread-invariant).
    pub scaling: EngineScaling,
}

impl RunReport {
    /// Assembles the report after every runner finished.
    pub fn collect<R: Recorder>(
        vmm: &Vmm<R>,
        runners: &[CoreRunner],
        label: &str,
        config: &str,
    ) -> RunReport {
        let numa = vmm.numa_stats();
        let per_core: Vec<CoreStatsSnapshot> = vmm
            .core_stats()
            .iter()
            .zip(runners.iter())
            .zip(vmm.clocks().iter())
            .map(|((st, runner), clock)| {
                let tlb: TlbStats = runner.tlb_stats();
                let mut snap = *st;
                snap.dtlb_misses = tlb.misses;
                snap.dtlb_accesses = tlb.accesses;
                snap.cycles = clock.now();
                snap
            })
            .collect();
        let runtime_cycles = per_core.iter().map(|c| c.cycles).max().unwrap_or(0);
        let breakdown = if R::ENABLED {
            let events = vmm.tracer().events();
            let dropped = vmm.tracer().dropped();
            // The NUMA cycle counters live outside the serialized
            // snapshots (golden-stability), so the totals read them from
            // the kernel's NUMA counters alongside the snapshot fields.
            let totals: Vec<CoreTotals> = per_core
                .iter()
                .enumerate()
                .map(|(i, c)| CoreTotals {
                    page_faults: c.page_faults,
                    fault_cycles: c.fault_cycles,
                    dma_wait_cycles: c.dma_wait_cycles,
                    tier_penalty_cycles: c.tier_penalty_cycles,
                    replica_sync_cycles: numa.replica_sync_cycles[i],
                    migration_cycles: numa.migration_cycles[i],
                    shootdown_cycles: c.shootdown_cycles,
                    lock_wait_cycles: c.lock_wait_cycles,
                    shard_lock_acquires: c.shard_lock_acquires,
                    faults_injected: c.faults_injected,
                    fault_retries: c.fault_retries,
                    retry_backoff_cycles: c.retry_backoff_cycles,
                    quarantines: c.quarantines,
                })
                .collect();
            let b = Breakdown::from_events(&events, per_core.len(), dropped)
                .validate_against(&totals)
                .expect("traced breakdown must sum to the kernel counters");
            Some(b)
        } else {
            None
        };
        RunReport {
            label: label.to_string(),
            config: config.to_string(),
            runtime_cycles,
            runtime_secs: vmm.cost().cycles_to_secs(runtime_cycles),
            global: vmm.global_stats(),
            dma_busy_cycles: vmm.dma().busy_cycles(),
            dma_queued_cycles: vmm.dma().queued_cycles(),
            lock_queued_cycles: vmm.lock_queue_cycles(),
            dma_bytes: (vmm.dma().bytes_in(), vmm.dma().bytes_out()),
            sharing_histogram: vmm.sharing_histogram(),
            breakdown,
            scaling: EngineScaling::default(),
            tiers: (!vmm.config().tiers().is_flat()).then(|| TierReport {
                names: vmm
                    .config()
                    .tiers()
                    .tiers
                    .iter()
                    .map(|t| t.name.clone())
                    .collect(),
                counters: vmm.tier_counters(),
            }),
            numa: (!vmm.cost().numa.is_single()).then(|| {
                let books = vmm.numa_books();
                NumaReport {
                    nodes: books.config.nodes.iter().map(|n| n.name.clone()).collect(),
                    replicate: books.config.replicate,
                    capacity_blocks: books.capacity().to_vec(),
                    used_blocks: vmm.numa_used(),
                    replica_syncs: numa.replica_syncs,
                    replica_invalidations: numa.replica_invalidations,
                    page_migrations: numa.page_migrations,
                    remote_spills: numa.remote_spills,
                    replica_sync_cycles: numa.replica_sync_cycles.iter().sum(),
                    migration_cycles: numa.migration_cycles.iter().sum(),
                }
            }),
            per_core,
        }
    }

    /// Per-core average page faults (Table 1's unit).
    pub fn avg_page_faults(&self) -> f64 {
        avg(self.per_core.iter().map(|c| c.page_faults))
    }

    /// Per-core average remote TLB invalidations received (Table 1).
    pub fn avg_remote_invalidations(&self) -> f64 {
        avg(self.per_core.iter().map(|c| c.remote_inv_received))
    }

    /// Per-core average dTLB misses (Table 1).
    pub fn avg_dtlb_misses(&self) -> f64 {
        avg(self.per_core.iter().map(|c| c.dtlb_misses))
    }
}

fn avg(it: impl ExactSizeIterator<Item = u64>) -> f64 {
    let n = it.len().max(1) as f64;
    it.sum::<u64>() as f64 / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_cores() {
        let r = RunReport {
            per_core: vec![
                CoreStatsSnapshot {
                    page_faults: 10,
                    dtlb_misses: 100,
                    ..Default::default()
                },
                CoreStatsSnapshot {
                    page_faults: 30,
                    dtlb_misses: 300,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.avg_page_faults(), 20.0);
        assert_eq!(r.avg_dtlb_misses(), 200.0);
        assert_eq!(r.avg_remote_invalidations(), 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = RunReport::default();
        assert_eq!(r.avg_page_faults(), 0.0);
        assert_eq!(r.runtime_cycles, 0);
    }
}
