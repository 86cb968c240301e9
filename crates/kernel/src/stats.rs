//! Execution statistics, shaped after the paper's Table 1.
//!
//! The kernel's live counters are plain integers in its single-writer
//! state: one [`CoreStatsSnapshot`] per core and one
//! [`GlobalStatsSnapshot`] — the same structs the run report serializes
//! — plus [`NumaStats`], the multi-node counters kept out of them. The
//! per-core clocks sit beside them: the fault path charges a counter
//! with every clock advance.

use cmcp_arch::{CoreClock, Cycles};
use serde::{Deserialize, Serialize};

/// Per-core statistics: the kernel's live counters, and the report's
/// per-core row. The kernel never writes `dtlb_*` and `cycles`; the
/// report fills them in from the engine's TLBs and clocks.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct CoreStatsSnapshot {
    /// Page faults taken by this core.
    pub page_faults: u64,
    /// Remote TLB invalidation requests received (Table 1).
    pub remote_inv_received: u64,
    /// Shootdown IPIs sent.
    pub remote_inv_sent: u64,
    /// Cycles inside the fault handler.
    pub fault_cycles: u64,
    /// Cycles waiting on DMA.
    pub dma_wait_cycles: u64,
    /// Cycles in shootdown send/ack.
    pub shootdown_cycles: u64,
    /// Cycles queueing on page-table locks.
    pub lock_wait_cycles: u64,
    /// Residency transactions on this core's fault path: one for the
    /// lookup, one for a major's insert, one per victim taken and one
    /// per quarantine retry (zero virtual cost — host bookkeeping only).
    /// The field keeps its name because the goldens and perfbench's
    /// pinned report digests contain it.
    pub shard_lock_acquires: u64,
    /// Faults injected against this core.
    pub faults_injected: u64,
    /// Recovery retries performed.
    pub fault_retries: u64,
    /// Cycles spent in retry backoff.
    pub retry_backoff_cycles: u64,
    /// Frames quarantined by this core.
    pub quarantines: u64,
    /// Cycles spent on backing-tier penalties (zero when flat).
    pub tier_penalty_cycles: u64,
    /// Data TLB misses (page walks) — Table 1.
    pub dtlb_misses: u64,
    /// Translated accesses.
    pub dtlb_accesses: u64,
    /// Final virtual time of the core.
    pub cycles: u64,
}

/// Kernel-global statistics: the kernel's live counters, and the
/// report's `global` section.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct GlobalStatsSnapshot {
    /// Blocks evicted.
    pub evictions: u64,
    /// Dirty write-backs.
    pub writebacks: u64,
    /// Scan timer ticks.
    pub scan_ticks: u64,
    /// PTEs examined by statistics scans.
    pub scan_ptes: u64,
    /// Faults on blocks seen before (working-set refaults).
    pub refaults: u64,
    /// PSPT rebuild passes executed.
    pub rebuilds: u64,
    /// Injected DMA transfer errors.
    pub dma_errors: u64,
    /// Injected DMA latency spikes.
    pub latency_spikes: u64,
    /// Injected IKC message drops.
    pub ikc_drops: u64,
    /// Injected backing-store write failures.
    pub enospc_events: u64,
    /// Write-backs degraded to the synchronous path.
    pub sync_writebacks: u64,
    /// Syscalls served synchronously after offload death.
    pub sync_syscalls: u64,
    /// Frames held in quarantine at run end.
    pub quarantined_frames: u64,
    /// Spans demoted by backing-capacity cascades.
    pub tier_demotions: u64,
    /// Spans promoted by page-in accesses.
    pub tier_promotions: u64,
    /// Oversized victims split instead of evicted (adaptive mode).
    pub block_splits: u64,
}

/// The NUMA counters. They stay out of [`CoreStatsSnapshot`] and
/// [`GlobalStatsSnapshot`], which committed golden reports serialize,
/// and reach the report through its separate NUMA section. All zero on
/// single-node runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NumaStats {
    /// Page-table replica syncs: a node's first faulting core pulled a
    /// local replica of a block's mapping (replication on only).
    pub replica_syncs: u64,
    /// Replica invalidations: eviction told a replica-holding node to
    /// drop its entry (or, replication off, updated the home node's
    /// master table remotely).
    pub replica_invalidations: u64,
    /// Blocks whose home node migrated toward their map-count-weighted
    /// access center.
    pub page_migrations: u64,
    /// First-touch allocations that could not land on the faulting
    /// core's node (its DRAM share was full) and spilled to another
    /// node.
    pub remote_spills: u64,
    /// Per core: cycles spent on page-table replica traffic — syncing a
    /// node's replica on its first fault, invalidating replica-holding
    /// nodes on eviction, or walking a remote node's table when
    /// replication is off. A component of `fault_cycles`.
    pub replica_sync_cycles: Vec<u64>,
    /// Per core: cycles spent migrating blocks between home nodes. A
    /// component of `fault_cycles`.
    pub migration_cycles: Vec<u64>,
}

/// Every live kernel counter and every core's virtual clock, zeroed for
/// `cores` cores.
#[derive(Debug)]
pub(crate) struct KernelStats {
    pub(crate) clocks: Vec<CoreClock>,
    pub(crate) per_core: Vec<CoreStatsSnapshot>,
    pub(crate) global: GlobalStatsSnapshot,
    pub(crate) numa: NumaStats,
}

impl KernelStats {
    pub(crate) fn new(cores: usize) -> KernelStats {
        KernelStats {
            clocks: vec![CoreClock::new(); cores],
            per_core: vec![CoreStatsSnapshot::default(); cores],
            global: GlobalStatsSnapshot::default(),
            numa: NumaStats {
                replica_sync_cycles: vec![0; cores],
                migration_cycles: vec![0; cores],
                ..NumaStats::default()
            },
        }
    }

    /// Virtual "now" of the maintenance hyperthreads (scan timer, PSPT
    /// rebuilds): they react to the frontier of the application cores.
    pub(crate) fn maintenance_now(&self) -> Cycles {
        self.clocks.iter().map(CoreClock::now).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_with_one_row_per_core() {
        let mut s = KernelStats::new(2);
        s.per_core[1].page_faults += 3;
        s.global.evictions += 2;
        s.numa.replica_sync_cycles[1] += 5;
        assert_eq!(s.per_core[0], CoreStatsSnapshot::default());
        assert_eq!(s.per_core[1].page_faults, 3);
        assert_eq!(s.per_core[1].dtlb_misses, 0, "the report fills TLB stats");
        assert_eq!(s.global.evictions, 2);
        assert_eq!(s.global.writebacks, 0);
        assert_eq!(s.numa.replica_sync_cycles, vec![0, 5]);
        assert_eq!(s.numa.migration_cycles, vec![0, 0]);
    }
}
