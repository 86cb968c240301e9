//! System-call offloading to the host.
//!
//! The paper's lightweight kernel keeps only the hot paths on the
//! co-processor; "heavy system calls are shipped to and executed on the
//! host" (§2.1) over the IKC channel. File I/O — SCALE writes history
//! and restart files — is the prime example.
//!
//! The offload engine wraps an [`IkcChannel`] and keeps per-core counts;
//! the engine charges the round trip (queueing included) to the calling
//! core's clock, so offload-heavy phases serialize visibly, which is
//! precisely why the kernel design keeps them off the paging fast path.
//! The kernel holds the engine in its single-writer state, so the counts
//! are plain integers behind `&mut self`.

use cmcp_arch::{CoreClock, CoreId, Cycles, FaultInjector, IkcChannel, IkcMessage};

use cmcp_arch::CostModel;

/// Host-side service-time catalogue (cycles of host work at device
/// clock), loosely calibrated to Linux syscall latencies plus the
/// host-kernel proxy thread dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syscall {
    /// `open`/`close`-class metadata operation.
    Metadata,
    /// `read` of `bytes` from a host file.
    Read(u64),
    /// `write` of `bytes` to a host file.
    Write(u64),
}

impl Syscall {
    /// IKC message for this call.
    pub fn message(self) -> IkcMessage {
        match self {
            Syscall::Metadata => IkcMessage::Syscall {
                service: 8_000,
                payload: 256,
            },
            Syscall::Read(bytes) => IkcMessage::Syscall {
                service: 12_000,
                payload: bytes,
            },
            Syscall::Write(bytes) => IkcMessage::Syscall {
                service: 15_000,
                payload: bytes,
            },
        }
    }
}

/// The per-address-space offload engine.
#[derive(Debug)]
pub struct OffloadEngine {
    channel: IkcChannel,
    calls: Vec<u64>,
    wait_cycles: Vec<u64>,
}

impl OffloadEngine {
    /// An engine for `cores` cores over a channel with `cost`'s link
    /// characteristics.
    pub fn new(cost: &CostModel, cores: usize) -> OffloadEngine {
        OffloadEngine {
            channel: IkcChannel::new(cost),
            calls: vec![0; cores],
            wait_cycles: vec![0; cores],
        }
    }

    /// Executes `call` on behalf of `core`, blocking its clock for the
    /// full round trip.
    pub fn syscall(&mut self, core: CoreId, clock: &CoreClock, call: Syscall) -> Cycles {
        let now = clock.now();
        let done = self.channel.round_trip(now, call.message());
        let wait = done.done_at.saturating_sub(now);
        clock.advance(wait);
        self.count(core, wait);
        wait
    }

    /// Counts one call by `core` that blocked it for `wait` cycles.
    fn count(&mut self, core: CoreId, wait: Cycles) {
        self.calls[core.index()] += 1;
        self.wait_cycles[core.index()] += wait;
    }

    /// [`OffloadEngine::syscall`] with IKC fault injection: each dropped
    /// message costs the caller a resend timeout (folded into the
    /// returned wait). Returns the wait and the number of drops.
    pub fn syscall_with_faults(
        &mut self,
        core: CoreId,
        clock: &CoreClock,
        call: Syscall,
        inj: Option<&FaultInjector>,
    ) -> (Cycles, u32) {
        let now = clock.now();
        let (done, drops) = self.channel.round_trip_checked(now, call.message(), inj);
        let wait = done.done_at.saturating_sub(now);
        clock.advance(wait);
        self.count(core, wait);
        (wait, drops)
    }

    /// Synchronous fallback after offload-engine death: the call is
    /// emulated locally without touching the (dead) channel, costing
    /// the message's service time both ways plus the doorbell hops it
    /// would have pipelined — strictly slower than a healthy offload,
    /// which is the degradation the run reports surface.
    pub fn sync_syscall(&mut self, core: CoreId, clock: &CoreClock, call: Syscall) -> Cycles {
        let msg = call.message();
        let wait = 2 * self.channel.service_time(msg) + 4 * self.channel.latency();
        clock.advance(wait);
        self.count(core, wait);
        wait
    }

    /// Offloaded calls issued by `core`.
    pub fn calls(&self, core: CoreId) -> u64 {
        self.calls[core.index()]
    }

    /// Cycles `core` spent blocked on offloads.
    pub fn wait_cycles(&self, core: CoreId) -> u64 {
        self.wait_cycles[core.index()]
    }

    /// Total round trips across cores.
    pub fn total_calls(&self) -> u64 {
        self.channel.requests()
    }

    /// Total payload bytes shipped over IKC.
    pub fn total_payload(&self) -> u64 {
        self.channel.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(cores: usize) -> OffloadEngine {
        OffloadEngine::new(&CostModel::default(), cores)
    }

    #[test]
    fn syscall_blocks_the_caller() {
        let mut e = engine(2);
        let clock = CoreClock::new();
        let wait = e.syscall(CoreId(0), &clock, Syscall::Metadata);
        assert!(wait > 8_000, "at least the host service time: {wait}");
        assert_eq!(clock.now(), wait);
        assert_eq!(e.calls(CoreId(0)), 1);
        assert_eq!(e.calls(CoreId(1)), 0);
    }

    #[test]
    fn writes_cost_more_with_more_bytes() {
        let mut e = engine(1);
        let clock = CoreClock::new();
        let small = e.syscall(CoreId(0), &clock, Syscall::Write(4 << 10));
        // Leave a gap so the channel is idle again.
        clock.advance(10_000_000);
        let big = e.syscall(CoreId(0), &clock, Syscall::Write(4 << 20));
        assert!(
            big > 5 * small,
            "4MB write must dwarf 4kB: {small} vs {big}"
        );
        assert_eq!(e.total_payload(), (4 << 10) + (4 << 20));
    }

    #[test]
    fn faulted_syscall_without_plan_matches_plain() {
        let mut e = engine(1);
        let clock = CoreClock::new();
        let plain = e.syscall(CoreId(0), &clock, Syscall::Metadata);
        let mut e2 = engine(1);
        let clock2 = CoreClock::new();
        let (wait, drops) = e2.syscall_with_faults(CoreId(0), &clock2, Syscall::Metadata, None);
        assert_eq!(drops, 0);
        assert_eq!(wait, plain);
    }

    #[test]
    fn sync_fallback_is_slower_than_healthy_offload() {
        let mut e = engine(1);
        let clock = CoreClock::new();
        let offloaded = e.syscall(CoreId(0), &clock, Syscall::Write(64 << 10));
        clock.advance(10_000_000);
        let sync = e.sync_syscall(CoreId(0), &clock, Syscall::Write(64 << 10));
        assert!(
            sync > offloaded,
            "degraded mode must cost more: {offloaded} vs {sync}"
        );
        assert_eq!(e.calls(CoreId(0)), 2, "sync calls still count");
    }

    #[test]
    fn concurrent_callers_serialize_on_the_channel() {
        let mut e = engine(4);
        let clocks: Vec<CoreClock> = (0..4).map(|_| CoreClock::new()).collect();
        let waits: Vec<u64> = (0..4)
            .map(|c| e.syscall(CoreId(c as u16), &clocks[c], Syscall::Read(1 << 20)))
            .collect();
        assert!(
            waits[3] > waits[0] * 2,
            "the fourth caller queues behind three 1MB reads: {waits:?}"
        );
        assert_eq!(e.total_calls(), 4);
    }
}
