//! # cmcp-trace — virtual-time tracing for the fault path
//!
//! Every interesting moment of the simulated memory manager's life —
//! fault entry/exit, victim selection, TLB shootdowns, DMA transfers,
//! page-table lock traffic, accessed-bit scans, barrier waits — can be
//! recorded as a fixed-size [`Event`] stamped with the emitting core's
//! **virtual** clock. Recording goes through the [`Recorder`] trait:
//!
//! * [`NullTracer`] — the default. `ENABLED == false`, `record` is an
//!   empty inline function, and every call site that would compute
//!   event arguments guards on `R::ENABLED`, so a non-traced build
//!   carries no cost (verified by `benches/trace_overhead.rs`).
//! * [`RingTracer`] — one lock-free fixed-capacity ring per core (plus
//!   one for maintenance work not attributable to a core), overwriting
//!   the oldest slot on overflow and counting what it dropped.
//!
//! Post-run, [`Breakdown`](breakdown::Breakdown) folds a trace into a
//! per-core cycle decomposition of the fault path and **validates it
//! against the kernel's own counters** (`CoreStatsSnapshot`): the traced spans
//! must sum exactly to `fault_cycles`, `lock_wait_cycles`,
//! `shootdown_cycles` and `dma_wait_cycles`, and the traced fault count
//! must equal `page_faults`. [`export`] renders traces as JSONL or
//! Chrome `chrome://tracing` JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod export;

pub use breakdown::{Breakdown, CoreBreakdown, CoreTotals};
pub use export::{to_chrome_trace, to_jsonl};

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Virtual time, in simulated core cycles (mirrors `cmcp_arch::Cycles`;
/// redeclared here so `cmcp-arch` itself can depend on this crate).
pub type Cycles = u64;

/// Core number used for maintenance events (scan timer, PSPT rebuilds)
/// that no application core is responsible for.
pub const MAINTENANCE_CORE: u16 = u16::MAX;

/// What happened. The `a`/`b` payload fields of [`Event`] are
/// kind-specific; the meanings below are load-bearing for
/// [`breakdown`]'s validation against the kernel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A page fault began. `ts` = fault entry, `a` = faulting page.
    FaultStart = 0,
    /// A page fault completed. `ts` = fault exit, `a` = resolution
    /// (0 major, 1 minor copy, 2 spurious), `b` = cycles the fault
    /// took — the exact amount added to `CoreStatsSnapshot::fault_cycles`.
    FaultEnd = 1,
    /// The page-table lock was acquired. `ts` = request time,
    /// `a` = queueing delay (the `lock_wait_cycles` increment),
    /// `b` = hold duration.
    LockAcquire = 2,
    /// The page-table lock was released. `ts` = release time.
    LockRelease = 3,
    /// The replacement policy chose a victim. `a` = victim head page,
    /// `b` = `(core_map_count << 8) | policy_group` where group is
    /// 0 untracked, 1 FIFO/default, 2 CMCP priority.
    VictimSelect = 4,
    /// A TLB shootdown was initiated. Emitted on the requesting core;
    /// `a` = cycles charged to the requester (the `shootdown_cycles`
    /// increment), `b` = number of target cores.
    ShootdownSend = 5,
    /// A shootdown interrupt landed on a target core. `a` = page,
    /// `b` = cycles charged remotely to that core.
    ShootdownAck = 6,
    /// A DMA transfer was queued. `a` = bytes, `b` = direction
    /// (0 host→device page-in, 1 device→host write-back).
    DmaEnqueue = 7,
    /// A DMA transfer finished from the waiting core's perspective.
    /// `a` = stall cycles charged (the `dma_wait_cycles` increment),
    /// `b` = direction as in [`EventKind::DmaEnqueue`].
    DmaComplete = 8,
    /// An accessed-bit scan pass over one block's mappers.
    /// `a` = PTEs examined, `b` = cycles charged (0 when the scan ran
    /// on the maintenance timer rather than inside a fault).
    PolicyScan = 9,
    /// A core invalidated one of its own TLB entries while draining
    /// its shootdown mailbox. `a` = page, `b` = 1 if the entry was
    /// actually present.
    TlbInvalidate = 10,
    /// A core left a barrier. `ts` = release time, `a` = barrier id
    /// (op index), `b` = cycles spent waiting.
    BarrierArrive = 11,
    /// A full PSPT rebuild ran. `a` = blocks rebuilt.
    Rebuild = 12,
    /// A residency transaction on the fault path: the lookup, a major's
    /// insert, a victim taken, or a quarantine retry. `a` = block head
    /// page (the 2 MB region head for an adaptive lookup), `b` = 0 —
    /// host-side bookkeeping adds **zero** virtual cycles; the count
    /// matches `CoreStatsSnapshot::shard_lock_acquires` exactly.
    ShardLock = 13,
    /// The fault-injection layer fired at some site. `a` = site code
    /// (see `cmcp_arch::FaultSite`), `b` = attempt index at which the
    /// fault hit (0 = first try). Counted against
    /// `CoreStatsSnapshot::faults_injected`; charges no cycles itself — the
    /// paired `Retry`/`DmaComplete` events carry the time.
    FaultInjected = 14,
    /// A recovery retry backed off in virtual time. `a` = backoff
    /// cycles charged (the exact `retry_backoff_cycles` increment),
    /// `b` = site code being retried. Emitted only on the fault path
    /// (inside a fault window), so `a` is a component of
    /// `fault_cycles` in the breakdown.
    Retry = 15,
    /// A frame was quarantined after an unrecoverable page-in DMA
    /// error. `a` = frame head page, `b` = faulting block head page.
    /// Counted against `CoreStatsSnapshot::quarantines`; zero cycles.
    Quarantine = 16,
    /// A backing-tier access charged its latency/bandwidth penalty on
    /// top of the DMA link time. `a` = penalty cycles charged (the exact
    /// `tier_penalty_cycles` increment), `b` = tier index. Never emitted
    /// by flat single-tier runs (tier 0 is free there).
    TierPenalty = 17,
    /// A page-table replica was brought in sync (fault path: a node's
    /// first mapping core pulled a replica) or invalidated (eviction
    /// path: a replica-holding node was told to drop the entry).
    /// `a` = cycles charged to the acting core (the exact
    /// `replica_sync_cycles` increment), `b` = `(op << 8) | node` where
    /// op is 0 for a sync and 1 for an invalidation. Never emitted by
    /// single-node runs.
    ReplicaSync = 18,
    /// A block's home node migrated toward its CMCP map-count-weighted
    /// access center. `a` = cycles charged to the faulting core (the
    /// exact `migration_cycles` increment: inter-node link latency plus
    /// the bandwidth term), `b` = `(from_node << 8) | to_node`. Never
    /// emitted by single-node runs.
    Migration = 19,
}

impl EventKind {
    /// Stable lower-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FaultStart => "fault_start",
            EventKind::FaultEnd => "fault_end",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::VictimSelect => "victim_select",
            EventKind::ShootdownSend => "shootdown_send",
            EventKind::ShootdownAck => "shootdown_ack",
            EventKind::DmaEnqueue => "dma_enqueue",
            EventKind::DmaComplete => "dma_complete",
            EventKind::PolicyScan => "policy_scan",
            EventKind::TlbInvalidate => "tlb_invalidate",
            EventKind::BarrierArrive => "barrier_arrive",
            EventKind::Rebuild => "rebuild",
            EventKind::ShardLock => "shard_lock",
            EventKind::FaultInjected => "fault_injected",
            EventKind::Retry => "retry",
            EventKind::Quarantine => "quarantine",
            EventKind::TierPenalty => "tier_penalty",
            EventKind::ReplicaSync => "replica_sync",
            EventKind::Migration => "migration",
        }
    }

    fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            0 => EventKind::FaultStart,
            1 => EventKind::FaultEnd,
            2 => EventKind::LockAcquire,
            3 => EventKind::LockRelease,
            4 => EventKind::VictimSelect,
            5 => EventKind::ShootdownSend,
            6 => EventKind::ShootdownAck,
            7 => EventKind::DmaEnqueue,
            8 => EventKind::DmaComplete,
            9 => EventKind::PolicyScan,
            10 => EventKind::TlbInvalidate,
            11 => EventKind::BarrierArrive,
            12 => EventKind::Rebuild,
            13 => EventKind::ShardLock,
            14 => EventKind::FaultInjected,
            15 => EventKind::Retry,
            16 => EventKind::Quarantine,
            17 => EventKind::TierPenalty,
            18 => EventKind::ReplicaSync,
            19 => EventKind::Migration,
            _ => return None,
        })
    }
}

/// One recorded moment: four words, fixed size, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual timestamp on the emitting core's clock.
    pub ts: Cycles,
    /// Emitting core, or [`MAINTENANCE_CORE`].
    pub core: u16,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific payload word (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific payload word (see [`EventKind`]).
    pub b: u64,
}

/// A sink for trace events. `record` takes `&self` because the kernel
/// keeps its tracer outside its single-writer state and records through
/// a shared reference; the kernel and the engine run on one thread.
pub trait Recorder {
    /// `false` means `record` is a no-op and call sites skip computing
    /// event arguments entirely (the zero-cost path).
    const ENABLED: bool;

    /// Records one event. `core` may be [`MAINTENANCE_CORE`].
    fn record(&self, core: u16, ts: Cycles, kind: EventKind, a: u64, b: u64);

    /// All surviving events, merged across cores and sorted by
    /// timestamp. Call only after the run has quiesced.
    fn events(&self) -> Vec<Event> {
        Vec::new()
    }

    /// How many events were overwritten because a ring filled up.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The default recorder: does nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Recorder for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _core: u16, _ts: Cycles, _kind: EventKind, _a: u64, _b: u64) {}
}

/// One core's fixed-capacity event ring.
///
/// A writer claims a slot by bumping `claimed` and then stores the four
/// event words. When the ring wraps, the oldest events are overwritten
/// and counted as dropped; any run that dropped events has its
/// breakdown validation disabled.
///
/// ## Memory-ordering contract
///
/// Everything here is `Relaxed`, deliberately (DESIGN.md §10): the
/// engine runs on one thread, so every ring has one writer, and the
/// readers ([`EventRing::drain_into`], [`EventRing::dropped`]) run after
/// the run returns, on the same thread. The words are atomics only
/// because [`Recorder::record`] takes `&self`; they go with the
/// kernel's move to `&mut self`.
struct EventRing {
    /// Total slots ever claimed; `min(claimed, capacity)` slots hold data.
    claimed: AtomicU64,
    /// `[ts, meta, a, b]` per slot, `meta = core << 8 | kind`.
    slots: Vec<[AtomicU64; 4]>,
}

impl EventRing {
    fn new(capacity: usize) -> EventRing {
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push([
                AtomicU64::new(0),
                AtomicU64::new(u64::MAX),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ]);
        }
        EventRing {
            claimed: AtomicU64::new(0),
            slots,
        }
    }

    fn push(&self, core: u16, ts: Cycles, kind: EventKind, a: u64, b: u64) {
        let claim = self.claimed.fetch_add(1, Relaxed) as usize;
        let slot = &self.slots[claim % self.slots.len()];
        slot[0].store(ts, Relaxed);
        slot[1].store(((core as u64) << 8) | kind as u64, Relaxed);
        slot[2].store(a, Relaxed);
        slot[3].store(b, Relaxed);
    }

    fn dropped(&self) -> u64 {
        self.claimed
            .load(Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }

    fn drain_into(&self, out: &mut Vec<Event>) {
        let claimed = self.claimed.load(Relaxed) as usize;
        let live = claimed.min(self.slots.len());
        for i in 0..live {
            // After a wrap the ring's oldest event sits at `claimed %
            // len`; before one, slot order is claim order from 0.
            let idx = if claimed > self.slots.len() {
                (claimed + i) % self.slots.len()
            } else {
                i
            };
            let slot = &self.slots[idx];
            let meta = slot[1].load(Relaxed);
            let kind = EventKind::from_code((meta & 0xff) as u8)
                .expect("every live slot holds a whole event");
            out.push(Event {
                ts: slot[0].load(Relaxed),
                core: (meta >> 8) as u16,
                kind,
                a: slot[2].load(Relaxed),
                b: slot[3].load(Relaxed),
            });
        }
    }
}

/// Per-core ring-buffer recorder: `cores` application rings plus one
/// maintenance ring, each holding `capacity_per_core` events.
pub struct RingTracer {
    rings: Vec<EventRing>,
}

impl RingTracer {
    /// A tracer for `cores` application cores, each ring (and the
    /// maintenance ring) holding `capacity_per_core` events.
    pub fn new(cores: usize, capacity_per_core: usize) -> RingTracer {
        assert!(capacity_per_core > 0, "ring capacity must be positive");
        let rings = (0..cores + 1)
            .map(|_| EventRing::new(capacity_per_core))
            .collect();
        RingTracer { rings }
    }

    fn ring_for(&self, core: u16) -> &EventRing {
        let last = self.rings.len() - 1;
        let idx = if core == MAINTENANCE_CORE {
            last
        } else {
            (core as usize).min(last)
        };
        &self.rings[idx]
    }
}

impl Recorder for RingTracer {
    const ENABLED: bool = true;

    fn record(&self, core: u16, ts: Cycles, kind: EventKind, a: u64, b: u64) {
        self.ring_for(core).push(core, ts, kind, a, b);
    }

    fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.drain_into(&mut out);
        }
        out.sort_by_key(|e| (e.ts, e.core, e.kind as u8));
        out
    }

    fn dropped(&self) -> u64 {
        self.rings.iter().map(EventRing::dropped).sum()
    }
}

/// Forwarding impl so engines can take `&impl Recorder` internally.
impl<R: Recorder> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn record(&self, core: u16, ts: Cycles, kind: EventKind, a: u64, b: u64) {
        (**self).record(core, ts, kind, a, b);
    }

    fn events(&self) -> Vec<Event> {
        (**self).events()
    }

    fn dropped(&self) -> u64 {
        (**self).dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tracer: &RingTracer, core: u16, ts: u64) {
        tracer.record(core, ts, EventKind::TlbInvalidate, ts, 1);
    }

    #[test]
    fn events_come_back_sorted_by_time() {
        let t = RingTracer::new(2, 16);
        ev(&t, 1, 30);
        ev(&t, 0, 10);
        ev(&t, 1, 20);
        let evs = t.events();
        assert_eq!(
            evs.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = RingTracer::new(1, 4);
        for ts in 0..10 {
            ev(&t, 0, ts);
        }
        assert_eq!(t.dropped(), 6);
        let evs = t.events();
        // The four survivors are the newest four, in order.
        assert_eq!(
            evs.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn maintenance_core_routes_to_extra_ring() {
        let t = RingTracer::new(1, 2);
        ev(&t, 0, 1);
        ev(&t, 0, 2);
        t.record(MAINTENANCE_CORE, 3, EventKind::PolicyScan, 8, 0);
        // Core 0's ring is full but the maintenance ring is not.
        assert_eq!(t.dropped(), 0);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[2].core, MAINTENANCE_CORE);
        assert_eq!(evs[2].kind, EventKind::PolicyScan);
    }

    #[test]
    fn payload_round_trips() {
        let t = RingTracer::new(1, 4);
        t.record(0, 123, EventKind::VictimSelect, 456, (7 << 8) | 2);
        let evs = t.events();
        assert_eq!(
            evs[0],
            Event {
                ts: 123,
                core: 0,
                kind: EventKind::VictimSelect,
                a: 456,
                b: (7 << 8) | 2
            }
        );
    }

    #[test]
    fn null_tracer_reports_nothing() {
        let n = NullTracer;
        n.record(0, 1, EventKind::FaultStart, 0, 0);
        assert!(n.events().is_empty());
        assert_eq!(n.dropped(), 0);
        const { assert!(!NullTracer::ENABLED) };
    }
}
