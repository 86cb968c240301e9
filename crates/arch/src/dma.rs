//! The PCIe DMA engine moving pages between device RAM and host memory.
//!
//! The paper's hierarchical memory management does all data movement with
//! PCI DMA at a measured ~6 GB/s. Two properties matter for reproducing
//! the evaluation:
//!
//! 1. **Transfer time scales with page size** — a 2 MB page costs 512×
//!    the streaming time of a 4 kB page, which is why large pages lose
//!    under memory pressure (Figure 10).
//! 2. **The engine is a shared, serialized resource** — when 56 cores
//!    fault concurrently their transfers queue, so the *effective* fault
//!    latency grows with the fault rate. This is modeled with a
//!    [`VirtualResource`] reservation clock.
//!
//! [`DmaModel::transfer`] is the engine's one entry: every transfer rolls
//! the fault plan's latency-spike and transfer-error dice on the backing
//! tier it lands in (a run without a plan rolls the empty plan, which
//! never fires). The kernel records the transfer's `DmaEnqueue` and
//! `DmaComplete` trace events around the call.
//!
//! [`VirtualResource`]: crate::resource::VirtualResource

use crate::clock::Cycles;
use crate::cost::CostModel;
use crate::fault::{FaultInjector, FaultSite};
use crate::resource::{Reservation, VirtualResource};

/// Direction of a transfer, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Host memory → device RAM (page-in on a fault).
    HostToDevice,
    /// Device RAM → host memory (write-back of a dirty victim).
    DeviceToHost,
}

impl DmaDirection {
    /// Stable payload encoding used by trace events (0 in, 1 out).
    #[inline]
    pub fn code(self) -> u64 {
        match self {
            DmaDirection::HostToDevice => 0,
            DmaDirection::DeviceToHost => 1,
        }
    }

    /// The fault site whose injected errors fail a transfer in this
    /// direction.
    #[inline]
    pub fn error_site(self) -> FaultSite {
        match self {
            DmaDirection::HostToDevice => FaultSite::DmaIn,
            DmaDirection::DeviceToHost => FaultSite::DmaOut,
        }
    }
}

/// Outcome of a fault-checked transfer attempt.
#[derive(Debug, Clone, Copy)]
pub struct CheckedTransfer {
    /// The engine reservation; `end` already includes any latency spike.
    pub reservation: Reservation,
    /// Extra completion-path stall injected by a latency spike (already
    /// folded into `reservation.end`; reported so callers can count it).
    pub spike_cycles: Cycles,
    /// The transfer aborted with an error after completing its wait; the
    /// data did not arrive and the caller must retry.
    pub failed: bool,
}

/// The DMA engine: a transfer-time model plus a reservation clock.
#[derive(Debug)]
pub struct DmaModel {
    latency: Cycles,
    bytes_per_kcycle: u64,
    engine: VirtualResource,
    /// Cores that can have transfers outstanding — bounds genuine queue
    /// depth (each core blocks on its fault, which issues ≤2 transfers).
    clients: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl DmaModel {
    /// Builds the engine from the cost table, serving `clients` cores.
    pub fn with_clients(cost: &CostModel, clients: usize) -> DmaModel {
        DmaModel {
            latency: cost.dma_latency,
            bytes_per_kcycle: cost.dma_bytes_per_kcycle,
            engine: VirtualResource::new(),
            clients: clients.max(1) as u64,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Reserves the engine for a transfer of `bytes` to or from backing
    /// tier `tier`, rolling `inj`'s DMA latency-spike and transfer-error
    /// dice on that tier's injection sequence.
    ///
    /// The engine's *occupancy* is the streaming time only — descriptor
    /// setup and completion signalling pipeline with other transfers on
    /// the KNC's multi-channel DMA engine — while the caller additionally
    /// waits out the fixed latency and any latency spike (a stall in the
    /// completion path, not the streaming channel). The returned
    /// reservation's `end` is the caller-visible completion time. The
    /// engine is reserved, and the link carries the bytes, whether or
    /// not the attempt fails: an aborted transfer still burned its slot.
    pub fn transfer(
        &mut self,
        now: Cycles,
        bytes: u64,
        dir: DmaDirection,
        tier: usize,
        inj: &mut FaultInjector,
    ) -> CheckedTransfer {
        match dir {
            DmaDirection::HostToDevice => self.bytes_in += bytes,
            DmaDirection::DeviceToHost => self.bytes_out += bytes,
        }
        let streaming = bytes * 1024 / self.bytes_per_kcycle;
        let spike_cycles = inj
            .roll_param_tiered(FaultSite::DmaLatency, tier)
            .map_or(0, |mult| mult * streaming.max(1));
        // Each core blocks on its own fault and a fault issues at most
        // two transfers (write-back + page-in), so a genuine queue never
        // exceeds ~2 transfers per client; the 4× cap only clamps the
        // out-of-order arrivals of cores whose clocks skew between
        // barriers (`VirtualResource::acquire`).
        let r = self
            .engine
            .acquire(now, streaming, 4 * self.clients * streaming.max(64));
        CheckedTransfer {
            reservation: Reservation {
                start: r.start,
                end: r.end + self.latency + spike_cycles,
                queue_delay: r.queue_delay,
            },
            spike_cycles,
            failed: inj.roll(dir.error_site(), tier),
        }
    }

    /// Total bytes moved host → device.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Total bytes moved device → host.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Total cycles the engine was busy.
    pub fn busy_cycles(&self) -> Cycles {
        self.engine.total_busy()
    }

    /// Total queueing delay imposed on faulting cores — the saturation
    /// signal behind Figure 10's page-size crossovers.
    pub fn queued_cycles(&self) -> Cycles {
        self.engine.total_queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::types::PageSize;

    fn engine() -> DmaModel {
        DmaModel::with_clients(&CostModel::default(), 64)
    }

    /// The empty plan: every roll misses.
    fn quiet() -> FaultInjector {
        FaultInjector::new(&FaultPlan::new(0))
    }

    fn transfer(d: &mut DmaModel, now: Cycles, bytes: u64, dir: DmaDirection) -> Reservation {
        d.transfer(now, bytes, dir, 0, &mut quiet()).reservation
    }

    /// Streaming time of `size` on an idle engine: the caller-visible
    /// wait less the fixed latency.
    fn streaming(size: PageSize) -> Cycles {
        let r = transfer(&mut engine(), 0, size.bytes(), DmaDirection::HostToDevice);
        assert_eq!(r.queue_delay, 0);
        r.end - CostModel::default().dma_latency
    }

    #[test]
    fn streaming_is_calibrated_to_paper() {
        // ~6 GB/s: a 4 kB transfer should take on the order of a
        // microsecond of streaming plus the fixed latency.
        let t = streaming(PageSize::K4);
        assert!((600..900).contains(&t), "4kB streaming time {t}");
    }

    #[test]
    fn streaming_scales_linearly_with_page_size() {
        let t4 = streaming(PageSize::K4) as f64;
        let t64 = streaming(PageSize::K64) as f64;
        let t2m = streaming(PageSize::M2) as f64;
        // 16× and 512× the bytes → within rounding of 16× and 512× time.
        assert!((t64 / t4 - 16.0).abs() < 0.1);
        assert!((t2m / t4 - 512.0).abs() < 1.0);
    }

    #[test]
    fn concurrent_transfers_queue_on_streaming_time_only() {
        let mut d = engine();
        let a = transfer(&mut d, 0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        let b = transfer(&mut d, 0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        assert_eq!(a.queue_delay, 0);
        // The second transfer queues behind the first's *streaming* time
        // (latency pipelines), so it starts before the first's visible end.
        assert!(b.queue_delay > 0);
        assert!(b.start < a.end, "descriptor setup must pipeline");
        assert!(b.end > a.end);
    }

    #[test]
    fn byte_accounting_by_direction() {
        let mut d = engine();
        transfer(&mut d, 0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        transfer(&mut d, 0, PageSize::K64.bytes(), DmaDirection::DeviceToHost);
        transfer(&mut d, 0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        assert_eq!(d.bytes_in(), 8192);
        assert_eq!(d.bytes_out(), 65536);
    }

    #[test]
    fn spikes_stretch_completion_not_occupancy() {
        let mut d = engine();
        let mut inj = FaultInjector::new(&FaultPlan::new(5).latency_spikes(0.5, 8));
        let streaming = streaming(PageSize::K4);
        let mut spiked = 0;
        let mut now = 0;
        for _ in 0..64 {
            let c = d.transfer(now, 4096, DmaDirection::HostToDevice, 0, &mut inj);
            now = c.reservation.end;
            if c.spike_cycles > 0 {
                spiked += 1;
                assert_eq!(c.spike_cycles, 8 * streaming);
            }
        }
        assert!(spiked > 5, "50% spike rate over 64 transfers: {spiked}");
        // Engine busy time is unaffected by spikes (completion-path stall).
        assert_eq!(d.busy_cycles(), 64 * streaming);
    }

    #[test]
    fn failed_transfers_still_carry_bytes() {
        let mut d = engine();
        let mut inj = FaultInjector::new(&FaultPlan::new(6).dma_errors(0.5));
        let failures = (0..64)
            .filter(|_| {
                d.transfer(0, 4096, DmaDirection::DeviceToHost, 0, &mut inj)
                    .failed
            })
            .count();
        assert!(failures > 5, "50% over 64 rolls: {failures}");
        assert_eq!(d.bytes_out(), 64 * 4096, "aborted attempts burn the link");
    }

    #[test]
    fn busy_and_queued_statistics() {
        let mut d = engine();
        let stream = streaming(PageSize::K4);
        transfer(&mut d, 0, 4096, DmaDirection::HostToDevice);
        transfer(&mut d, 0, 4096, DmaDirection::HostToDevice);
        assert_eq!(d.busy_cycles(), 2 * stream);
        assert_eq!(d.queued_cycles(), stream);
    }
}
