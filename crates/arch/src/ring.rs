//! The bidirectional ring interconnect of the Knights Corner chip.
//!
//! Cores, L2 slices and the memory controllers sit on a bidirectional
//! ring; an IPI from core *a* to core *b* travels `min(|a-b|, n-|a-b|)`
//! hops in the shorter direction. The per-hop latency is small compared
//! with the interrupt-delivery cost, but it gives shootdown latency a
//! realistic dependence on *which* cores map a page, and it is the knob
//! the `ablation_ipi` bench turns to model the hardware multicast
//! invalidation the paper asks vendors for in §3.

use crate::clock::Cycles;
use crate::cost::CostModel;
use crate::types::{CoreId, CoreSet};

/// Ring-topology distance and IPI latency model.
#[derive(Debug, Clone)]
pub struct RingModel {
    cores: usize,
    hop_cycles: Cycles,
    ipi_send: Cycles,
    ipi_handle: Cycles,
    ipi_ack_base: Cycles,
    ipi_ack_per_target: Cycles,
    tlb_invlpg: Cycles,
}

/// Cost of a shootdown, split by who pays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShootdownCost {
    /// Charged to the requesting core: serialized send loop, ring
    /// traversal to the farthest target, ack fan-in.
    pub requester: Cycles,
    /// Charged to *each* target core: interrupt entry, `INVLPG`, ack.
    pub per_target: Cycles,
    /// Number of targets (kept for statistics).
    pub targets: usize,
}

impl RingModel {
    /// Builds the ring for `cores` cores using the latency constants of
    /// `cost`.
    pub fn new(cores: usize, cost: &CostModel) -> RingModel {
        assert!(cores > 0, "ring needs at least one core");
        RingModel {
            cores,
            hop_cycles: cost.ring_hop,
            ipi_send: cost.ipi_send,
            ipi_handle: cost.ipi_handle,
            ipi_ack_base: cost.ipi_ack_base,
            ipi_ack_per_target: cost.ipi_ack_per_target,
            tlb_invlpg: cost.tlb_invlpg,
        }
    }

    /// Number of cores on the ring.
    #[inline]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Hop distance between two cores along the shorter ring direction.
    #[inline]
    pub fn distance(&self, a: CoreId, b: CoreId) -> usize {
        let (a, b) = (a.index() % self.cores, b.index() % self.cores);
        let d = a.abs_diff(b);
        d.min(self.cores - d)
    }

    /// Ring traversal latency between two cores.
    #[inline]
    pub fn latency(&self, a: CoreId, b: CoreId) -> Cycles {
        self.distance(a, b) as u64 * self.hop_cycles
    }

    /// Full cost of `requester` shooting down one TLB entry on every core
    /// in `targets` (the requester itself is skipped if present — local
    /// invalidation is charged separately by the kernel).
    pub fn shootdown(&self, requester: CoreId, targets: &CoreSet) -> ShootdownCost {
        let mut n = 0usize;
        let mut max_latency = 0;
        for t in targets.iter() {
            if t == requester {
                continue;
            }
            n += 1;
            max_latency = max_latency.max(self.latency(requester, t));
        }
        if n == 0 {
            return ShootdownCost::default();
        }
        ShootdownCost {
            requester: self.ipi_send * n as u64
                + max_latency
                + self.ipi_ack_base
                + self.ipi_ack_per_target * n as u64,
            per_target: self.ipi_handle + self.tlb_invlpg,
            targets: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> RingModel {
        RingModel::new(n, &CostModel::default())
    }

    #[test]
    fn distance_wraps_both_directions() {
        let r = ring(60);
        assert_eq!(r.distance(CoreId(0), CoreId(0)), 0);
        assert_eq!(r.distance(CoreId(0), CoreId(1)), 1);
        assert_eq!(r.distance(CoreId(0), CoreId(59)), 1);
        assert_eq!(r.distance(CoreId(0), CoreId(30)), 30);
        assert_eq!(r.distance(CoreId(10), CoreId(50)), 20);
    }

    #[test]
    fn distance_is_symmetric() {
        let r = ring(56);
        for a in 0..56u16 {
            for b in 0..56u16 {
                assert_eq!(
                    r.distance(CoreId(a), CoreId(b)),
                    r.distance(CoreId(b), CoreId(a))
                );
            }
        }
    }

    #[test]
    fn shootdown_skips_requester() {
        let r = ring(8);
        let mut t = CoreSet::empty();
        t.insert(CoreId(0));
        let c = r.shootdown(CoreId(0), &t);
        assert_eq!(c, ShootdownCost::default());
    }

    #[test]
    fn shootdown_cost_grows_with_targets() {
        let r = ring(56);
        let two = r.shootdown(CoreId(0), &CoreSet::first_n(3)); // cores 1,2
        let all = r.shootdown(CoreId(0), &CoreSet::first_n(56)); // 55 targets
        assert_eq!(two.targets, 2);
        assert_eq!(all.targets, 55);
        assert!(all.requester > two.requester * 10);
        assert_eq!(two.per_target, all.per_target);
    }

    #[test]
    fn per_target_cost_is_interrupt_plus_invlpg() {
        let cost = CostModel::default();
        let r = RingModel::new(16, &cost);
        let c = r.shootdown(CoreId(0), &CoreSet::first_n(4));
        assert_eq!(c.per_target, cost.ipi_handle + cost.tlb_invlpg);
    }
}
