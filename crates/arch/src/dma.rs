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

    /// Unqueued service time for `bytes`.
    #[inline]
    pub fn service_time(&self, bytes: u64) -> Cycles {
        self.latency + bytes * 1024 / self.bytes_per_kcycle
    }

    /// Reserves the engine for an arbitrary-size transfer.
    ///
    /// The engine's *occupancy* is the streaming time only — descriptor
    /// setup and completion signalling pipeline with other transfers on
    /// the KNC's multi-channel DMA engine — while the caller additionally
    /// waits out the fixed latency. The returned reservation's `end` is
    /// the caller-visible completion time.
    pub fn transfer(&mut self, now: Cycles, bytes: u64, dir: DmaDirection) -> Reservation {
        match dir {
            DmaDirection::HostToDevice => self.bytes_in += bytes,
            DmaDirection::DeviceToHost => self.bytes_out += bytes,
        }
        let streaming = bytes * 1024 / self.bytes_per_kcycle;
        // Each core blocks on its own fault and a fault issues at most
        // two transfers (write-back + page-in), so a genuine queue never
        // exceeds ~2 transfers per client; the 4× cap only clamps the
        // out-of-order arrivals of cores whose clocks skew between
        // barriers (`VirtualResource::acquire_bounded`).
        let r = self
            .engine
            .acquire_bounded(now, streaming, 4 * self.clients * streaming.max(64));
        Reservation {
            start: r.start,
            end: r.end + self.latency,
            queue_delay: r.queue_delay,
        }
    }

    /// [`DmaModel::transfer`] that also records the enqueue as a
    /// [`cmcp_trace::EventKind::DmaEnqueue`] event on behalf of `core`.
    /// The matching `DmaComplete` is recorded by the caller, which alone
    /// knows how many cycles of the wait its clock actually absorbed.
    pub fn transfer_traced<R: cmcp_trace::Recorder>(
        &mut self,
        now: Cycles,
        bytes: u64,
        dir: DmaDirection,
        tracer: &R,
        core: u16,
    ) -> Reservation {
        if R::ENABLED {
            tracer.record(
                core,
                now,
                cmcp_trace::EventKind::DmaEnqueue,
                bytes,
                dir.code(),
            );
        }
        self.transfer(now, bytes, dir)
    }

    /// [`DmaModel::transfer_traced`] with fault injection, keyed by the
    /// backing tier the transfer lands in (or is served from). The
    /// engine is reserved (and the link carries the bytes) whether or
    /// not the attempt fails — an aborted transfer still burned its
    /// slot — and a latency spike stretches the caller-visible
    /// completion time without occupying the engine longer (the stall
    /// is in the completion path, not the streaming channel). The DMA
    /// error and latency rolls draw from the tier's independent
    /// injection sequence, so each tier of a hierarchy can fail on its
    /// own schedule; tier 0 hashes exactly as the pre-tier injector
    /// did. With `inj == None` this is exactly
    /// [`DmaModel::transfer_traced`].
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_checked_tiered<R: cmcp_trace::Recorder>(
        &mut self,
        now: Cycles,
        bytes: u64,
        dir: DmaDirection,
        inj: Option<&mut FaultInjector>,
        tracer: &R,
        core: u16,
        tier: usize,
    ) -> CheckedTransfer {
        let reservation = self.transfer_traced(now, bytes, dir, tracer, core);
        let mut out = CheckedTransfer {
            reservation,
            spike_cycles: 0,
            failed: false,
        };
        if let Some(inj) = inj {
            if let Some(mult) = inj.roll_param_tiered(FaultSite::DmaLatency, tier) {
                let streaming = bytes * 1024 / self.bytes_per_kcycle;
                out.spike_cycles = mult * streaming.max(1);
                out.reservation.end += out.spike_cycles;
            }
            out.failed = inj.roll_tiered(dir.error_site(), tier);
        }
        out
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
    use crate::types::PageSize;

    fn engine() -> DmaModel {
        DmaModel::with_clients(&CostModel::default(), 64)
    }

    #[test]
    fn service_time_scales_with_size() {
        let d = engine();
        let t4 = d.service_time(PageSize::K4.bytes());
        let t2m = d.service_time(PageSize::M2.bytes());
        assert!(t2m > 100 * t4, "2MB must cost vastly more than 4kB");
        assert!(t4 > 0);
    }

    #[test]
    fn concurrent_transfers_queue_on_streaming_time_only() {
        let mut d = engine();
        let a = d.transfer(0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        let b = d.transfer(0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
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
        d.transfer(0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        d.transfer(0, PageSize::K64.bytes(), DmaDirection::DeviceToHost);
        d.transfer(0, PageSize::K4.bytes(), DmaDirection::HostToDevice);
        assert_eq!(d.bytes_in(), 8192);
        assert_eq!(d.bytes_out(), 65536);
    }

    #[test]
    fn checked_transfer_without_injector_matches_plain() {
        let mut d = engine();
        let plain = d.transfer(0, 4096, DmaDirection::HostToDevice);
        let mut d2 = engine();
        let checked = d2.transfer_checked_tiered(
            0,
            4096,
            DmaDirection::HostToDevice,
            None,
            &cmcp_trace::NullTracer,
            0,
            0,
        );
        assert!(!checked.failed);
        assert_eq!(checked.spike_cycles, 0);
        assert_eq!(checked.reservation, plain);
    }

    #[test]
    fn spikes_stretch_completion_not_occupancy() {
        use crate::fault::FaultPlan;
        let mut d = engine();
        let mut inj = crate::fault::FaultInjector::new(&FaultPlan::new(5).latency_spikes(0.5, 8));
        let mut spiked = 0;
        let mut now = 0;
        for _ in 0..64 {
            let c = d.transfer_checked_tiered(
                now,
                4096,
                DmaDirection::HostToDevice,
                Some(&mut inj),
                &cmcp_trace::NullTracer,
                0,
                0,
            );
            now = c.reservation.end;
            if c.spike_cycles > 0 {
                spiked += 1;
                let streaming = 4096 * 1024 / CostModel::default().dma_bytes_per_kcycle;
                assert_eq!(c.spike_cycles, 8 * streaming);
            }
        }
        assert!(spiked > 5, "50% spike rate over 64 transfers: {spiked}");
        // Engine busy time is unaffected by spikes (completion-path stall).
        let streaming = 4096 * 1024 / CostModel::default().dma_bytes_per_kcycle;
        assert_eq!(d.busy_cycles(), 64 * streaming);
    }

    #[test]
    fn failed_transfers_still_carry_bytes() {
        use crate::fault::FaultPlan;
        let mut d = engine();
        let mut inj = crate::fault::FaultInjector::new(&FaultPlan::new(6).dma_errors(0.5));
        let mut failures = 0;
        for _ in 0..64 {
            let c = d.transfer_checked_tiered(
                0,
                4096,
                DmaDirection::DeviceToHost,
                Some(&mut inj),
                &cmcp_trace::NullTracer,
                0,
                0,
            );
            if c.failed {
                failures += 1;
            }
        }
        assert!(failures > 5, "50% over 64 rolls: {failures}");
        assert_eq!(d.bytes_out(), 64 * 4096, "aborted attempts burn the link");
    }

    #[test]
    fn busy_and_queued_statistics() {
        let mut d = engine();
        let stream = d.service_time(4096) - CostModel::default().dma_latency;
        d.transfer(0, 4096, DmaDirection::HostToDevice);
        d.transfer(0, 4096, DmaDirection::HostToDevice);
        assert_eq!(d.busy_cycles(), 2 * stream);
        assert_eq!(d.queued_cycles(), stream);
    }
}
