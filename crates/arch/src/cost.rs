//! The cycle cost table driving all virtual-time accounting.
//!
//! Absolute constants are calibrated from three sources:
//!
//! * the paper itself: 1.053 GHz cores, up to 6 GB/s measured PCIe
//!   bandwidth between host and MIC, a 10 ms accessed-bit scan timer, and
//!   the qualitative statement that the remote-TLB-invalidation IPI loop
//!   is serialized per target and "extremely expensive";
//! * the Knights Corner Software Developer's Guide (TLB geometry, the
//!   cost of `INVLPG`, interrupt delivery);
//! * published microbenchmarks of IPI round-trip and page-fault handling
//!   latencies on KNC-class in-order cores.
//!
//! The reproduction's claims are *relative* (policy vs policy, scaling
//! shapes, crossover locations), so what matters is that each cost grows
//! with the same variable it grows with on real hardware: shootdown cost
//! with the number of target cores, transfer cost with the page size,
//! fault-path serialization with the fault rate. Every constant can be
//! overridden to run sensitivity studies (see the `ablation_ipi` bench).

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;
use crate::numa::NumaConfig;
use crate::tier::TierConfig;

/// Cycle costs for every simulated hardware and kernel operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Core clock frequency in kHz (1.053 GHz on the 5110P). Only used to
    /// convert virtual cycles into seconds for reporting.
    pub core_khz: u64,

    /// Cost of one coalesced unit of application work (one element-level
    /// load/store plus its share of arithmetic) when the TLB hits.
    pub work_unit: Cycles,

    /// Extra cost of an L1 TLB miss that hits in the L2 TLB.
    pub tlb_l2_hit: Cycles,

    /// Extra cost of a full TLB miss: the hardware page-table walk.
    /// KNC's in-order cores stall the thread for the whole walk.
    pub page_walk: Cycles,

    /// Cost of invalidating one local TLB entry (`INVLPG`).
    pub tlb_invlpg: Cycles,

    /// Cost of a full local TLB flush (CR3 reload).
    pub tlb_flush: Cycles,

    /// Trap + fault-handler entry/exit: charged to the faulting core for
    /// every page fault on top of everything the handler does.
    pub fault_base: Cycles,

    /// Fixed cost of consulting one other core's page table during a PSPT
    /// fault (the "copy a PTE if any valid mapping exists" step).
    pub pspt_probe: Cycles,

    /// Cost of writing one PTE (set-up or tear-down).
    pub pte_update: Cycles,

    /// Requester-side cost of *sending* one TLB-shootdown IPI. The paper
    /// describes TLB invalidation as "looping through each CPU core and
    /// sending an Inter-processor Interrupt", i.e. the requester pays this
    /// once per target, serialized.
    pub ipi_send: Cycles,

    /// Target-side cost of taking the shootdown interrupt, invalidating
    /// the TLB entry and acknowledging.
    pub ipi_handle: Cycles,

    /// Requester-side fixed cost of waiting for the *last* acknowledgement
    /// once all IPIs are out (the ack fan-in).
    pub ipi_ack_base: Cycles,

    /// Additional ack-wait cost per target (ring occupancy + cache-line
    /// ping-pong on the request structure; the paper reports up to 8×
    /// growth in lock cycles for these structures under LRU).
    pub ipi_ack_per_target: Cycles,

    /// Hold time of the address-space-wide page-table lock that *regular*
    /// page tables take on every fault and every unmap. This is the
    /// serialization that stops regular PT from scaling past ~24 cores.
    pub regular_pt_lock: Cycles,

    /// Hold time of the per-core fine-grained lock PSPT takes instead.
    pub pspt_lock: Cycles,

    /// DMA descriptor setup + doorbell + completion interrupt (per
    /// transfer, independent of size).
    pub dma_latency: Cycles,

    /// PCIe streaming throughput, expressed as bytes moved per 1024
    /// cycles. 6 GB/s at 1.053 GHz is ≈ 5.7 bytes/cycle ⇒ 5834 b/kcyc.
    pub dma_bytes_per_kcycle: u64,

    /// Cost of examining one PTE during an accessed-bit scan pass
    /// (read + test + conditional clear, excluding the shootdown).
    pub scan_pte: Cycles,

    /// Virtual-time period of the LRU accessed-bit scan timer. The paper
    /// uses a 10 ms timer (10 ms × 1.053 GHz ≈ 10.53 M cycles).
    pub scan_period: Cycles,

    /// Per-hop latency of the bidirectional ring interconnect, used by
    /// the IPI model for distance-dependent delivery.
    pub ring_hop: Cycles,

    /// The backing-tier hierarchy behind the device RAM (see
    /// [`crate::tier`]). The default is the paper's flat host-DRAM
    /// store: one unbounded zero-cost tier, bit-identical to the
    /// pre-tier kernel. Deeper hierarchies charge each transfer the
    /// landing tier's latency/bandwidth penalty on top of the PCIe DMA
    /// model above.
    pub tiers: TierConfig,

    /// The NUMA topology (see [`crate::numa`]). The default is the
    /// paper's single-node machine: one unbounded zero-cost node,
    /// bit-identical to the pre-NUMA kernel. Multi-node topologies give
    /// every resident block a home node, charge the inter-node link on
    /// remote accesses, and (with replication on) keep per-node
    /// page-table replicas coherent from PSPT's exact mapping sets.
    pub numa: NumaConfig,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            core_khz: 1_053_000,
            work_unit: 4,
            tlb_l2_hit: 8,
            page_walk: 120,
            tlb_invlpg: 120,
            tlb_flush: 500,
            fault_base: 1_800,
            pspt_probe: 40,
            pte_update: 60,
            ipi_send: 700,
            ipi_handle: 1_400,
            ipi_ack_base: 1_800,
            ipi_ack_per_target: 250,
            regular_pt_lock: 1_500,
            pspt_lock: 350,
            dma_latency: 2_100,
            dma_bytes_per_kcycle: 5_834,
            scan_pte: 45,
            scan_period: 10_530_000,
            ring_hop: 15,
            tiers: TierConfig::flat(),
            numa: NumaConfig::single(),
        }
    }
}

impl CostModel {
    /// The minimum virtual-time latency by which one core's kernel
    /// activity can perturb another core's *locally observable* state —
    /// the window of the epoch engine.
    ///
    /// Every kernel entry (fault, syscall, timer) is executed at an
    /// exact virtual-time stamp by the engine's sequential commit phase,
    /// so the lock-handoff and IKC channels are ordered precisely and
    /// impose no bound here. The one channel that reaches a core *not*
    /// in the kernel is the TLB shootdown: an eviction committed at time
    /// `t` cannot invalidate a remote translation before the IPI has
    /// been sent and handled, i.e. before `t + ipi_send + ipi_handle`.
    /// A core running ahead inside one window therefore never uses a
    /// translation staler than real hardware would permit.
    ///
    /// On a multi-node topology the inter-node link is a second
    /// cross-core channel (replica syncs, remote walks), so the window
    /// is the global minimum over the IPI path and every node pair.
    /// [`NumaConfig::check_window`] rejects topologies whose links are
    /// faster than the IPI window at validation time, so for accepted
    /// configurations the minimum below never actually shrinks — the
    /// `min` is defense in depth against an unvalidated cost table.
    ///
    /// Clamped to at least 1 cycle so a degenerate all-zero cost table
    /// still yields a forward-moving epoch ceiling.
    #[inline]
    pub fn min_cross_core_latency(&self) -> Cycles {
        let ipi = self.ipi_send + self.ipi_handle;
        self.numa
            .min_cross_latency()
            .map_or(ipi, |link| ipi.min(link))
            .max(1)
    }

    /// Converts cycles into seconds using the configured frequency.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: Cycles) -> f64 {
        cycles as f64 / (self.core_khz as f64 * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::NodeSpec;

    #[test]
    fn default_is_calibrated_to_paper() {
        let c = CostModel::default();
        // 1.053 GHz.
        assert_eq!(c.core_khz, 1_053_000);
        // 10 ms scan period at 1.053 GHz.
        assert_eq!(c.scan_period, 10_530_000);
    }

    #[test]
    fn epoch_window_is_the_shootdown_delivery_latency() {
        let c = CostModel::default();
        assert_eq!(c.min_cross_core_latency(), c.ipi_send + c.ipi_handle);
        // A zeroed table must still give a forward-moving window.
        let zero = CostModel {
            ipi_send: 0,
            ipi_handle: 0,
            ..CostModel::default()
        };
        assert_eq!(zero.min_cross_core_latency(), 1);
    }

    #[test]
    fn epoch_window_takes_the_numa_global_minimum() {
        let mut c = CostModel::default();
        // Single node: the NUMA layer imposes no bound.
        assert_eq!(c.min_cross_core_latency(), c.ipi_send + c.ipi_handle);
        // Links slower than the IPI window leave it untouched.
        c.numa = NumaConfig::parse("2node").unwrap();
        assert_eq!(c.min_cross_core_latency(), c.ipi_send + c.ipi_handle);
        // A (validation-rejected) faster link would shrink the window —
        // the engine must still never run past the true global minimum.
        c.numa = NumaConfig {
            nodes: vec![
                NodeSpec {
                    name: "a".to_string(),
                    capacity_pages: 1,
                    link_latency: 400,
                    bytes_per_kcycle: 0,
                },
                NodeSpec {
                    name: "b".to_string(),
                    capacity_pages: 1,
                    link_latency: 500,
                    bytes_per_kcycle: 0,
                },
            ],
            replicate: true,
        };
        assert!(c.numa.check_window(c.ipi_send + c.ipi_handle).is_err());
        assert_eq!(c.min_cross_core_latency(), 900);
    }

    #[test]
    fn time_conversions() {
        let c = CostModel::default();
        let secs = c.cycles_to_secs(1_053_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let c = CostModel::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
