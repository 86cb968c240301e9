//! Span aggregation: fold a raw event stream into a per-core cycle
//! decomposition of the fault path, and validate it against the
//! kernel's own `CoreStatsSnapshot` counters.
//!
//! The decomposition is **exact by construction**: every component
//! event carries the same cycle amount the kernel added to the
//! corresponding counter (see the `EventKind` payload docs), so per
//! core the traced spans must sum to the counters — unless the tracer
//! dropped events, in which case validation is skipped and
//! [`Breakdown::validated`] stays `false`.

use serde::{Deserialize, Serialize};

use crate::{Event, EventKind, MAINTENANCE_CORE};

/// The kernel-side counters one core accumulated during a run — the
/// ground truth the traced decomposition is checked against. Built by
/// the reporting layer from `CoreStatsSnapshot` (this crate cannot see
/// the kernel's types; the kernel depends on it, not vice versa).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreTotals {
    /// Page faults taken.
    pub page_faults: u64,
    /// Cycles inside the fault handler.
    pub fault_cycles: u64,
    /// Cycles stalled on DMA completions.
    pub dma_wait_cycles: u64,
    /// Cycles charged as backing-tier latency/bandwidth penalties.
    pub tier_penalty_cycles: u64,
    /// Cycles initiating TLB shootdowns.
    pub shootdown_cycles: u64,
    /// Cycles queued on the page-table lock.
    pub lock_wait_cycles: u64,
    /// Residency transactions on the fault path (zero cycles).
    pub shard_lock_acquires: u64,
    /// Faults injected against this core by the fault plan.
    pub faults_injected: u64,
    /// Recovery retries this core performed after injected faults.
    pub fault_retries: u64,
    /// Cycles spent in retry backoff (a `fault_cycles` component).
    pub retry_backoff_cycles: u64,
    /// Frames this core moved to the quarantine list.
    pub quarantines: u64,
    /// Cycles charged keeping page-table replicas coherent (syncs on
    /// faults, invalidations on evictions; zero on single-node runs).
    pub replica_sync_cycles: u64,
    /// Cycles charged migrating blocks between home nodes (zero on
    /// single-node runs).
    pub migration_cycles: u64,
}

/// One core's traced cycle decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreBreakdown {
    /// Core number.
    pub core: u64,
    /// Faults traced (`FaultStart` count).
    pub faults: u64,
    /// Total cycles inside the fault handler (`FaultEnd` spans).
    pub fault_cycles: u64,
    /// ... of which: queued on the page-table lock.
    pub lock_wait_cycles: u64,
    /// ... of which: holding the page-table lock.
    pub lock_hold_cycles: u64,
    /// ... of which: initiating TLB shootdowns.
    pub shootdown_cycles: u64,
    /// ... of which: stalled on DMA.
    pub dma_wait_cycles: u64,
    /// ... of which: backing-tier latency/bandwidth penalties
    /// (`TierPenalty` payload sum; zero on flat single-tier runs).
    pub tier_penalty_cycles: u64,
    /// ... of which: scanning accessed bits for the policy.
    pub policy_scan_cycles: u64,
    /// ... of which: everything else (allocation, PTE updates, copies,
    /// and remote-interrupt debt folded into the fault window).
    pub other_cycles: u64,
    /// Shootdown interrupts received from other cores.
    pub shootdown_acks: u64,
    /// Cycles charged by those received shootdowns.
    pub ack_cycles: u64,
    /// Own-TLB entries invalidated while draining the mailbox.
    pub tlb_invalidations: u64,
    /// Residency transactions on the fault path (`ShardLock` count;
    /// contributes no cycles — host bookkeeping is free in virtual
    /// time).
    pub shard_lock_acquires: u64,
    /// Cycles spent waiting at barriers.
    pub barrier_wait_cycles: u64,
    /// Injected faults observed on this core (`FaultInjected` count).
    pub faults_injected: u64,
    /// Recovery retries (`Retry` count).
    pub fault_retries: u64,
    /// ... of which fault cycles: exponential-backoff delay charged by
    /// retries (`Retry` payload sum).
    pub retry_backoff_cycles: u64,
    /// Frames quarantined (`Quarantine` count; zero cycles).
    pub quarantines: u64,
    /// ... of which fault cycles: page-table replica coherence
    /// (`ReplicaSync` payload sum; zero on single-node runs).
    pub replica_sync_cycles: u64,
    /// ... of which fault cycles: home-node page migrations
    /// (`Migration` payload sum; zero on single-node runs).
    pub migration_cycles: u64,
}

/// A whole run's traced decomposition.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Per-core decompositions, indexed by core number.
    pub per_core: Vec<CoreBreakdown>,
    /// Events overwritten by ring wraparound; `> 0` disables validation.
    pub dropped_events: u64,
    /// Whether the decomposition was checked against (and matched) the
    /// kernel's counters.
    pub validated: bool,
}

impl Breakdown {
    /// Aggregates an event stream into per-core spans. Events from
    /// [`MAINTENANCE_CORE`] or beyond `cores` contribute nothing to the
    /// per-core rows (the maintenance scan timer charges no core).
    pub fn from_events(events: &[Event], cores: usize, dropped_events: u64) -> Breakdown {
        let mut per_core: Vec<CoreBreakdown> = (0..cores)
            .map(|c| CoreBreakdown {
                core: c as u64,
                ..CoreBreakdown::default()
            })
            .collect();
        for e in events {
            if e.core == MAINTENANCE_CORE || (e.core as usize) >= cores {
                continue;
            }
            let row = &mut per_core[e.core as usize];
            match e.kind {
                EventKind::FaultStart => row.faults += 1,
                EventKind::FaultEnd => row.fault_cycles += e.b,
                EventKind::LockAcquire => {
                    row.lock_wait_cycles += e.a;
                    row.lock_hold_cycles += e.b;
                }
                EventKind::ShootdownSend => row.shootdown_cycles += e.a,
                EventKind::ShootdownAck => {
                    row.shootdown_acks += 1;
                    row.ack_cycles += e.b;
                }
                EventKind::DmaComplete => row.dma_wait_cycles += e.a,
                EventKind::TierPenalty => row.tier_penalty_cycles += e.a,
                EventKind::PolicyScan => row.policy_scan_cycles += e.b,
                EventKind::TlbInvalidate => row.tlb_invalidations += 1,
                EventKind::BarrierArrive => row.barrier_wait_cycles += e.b,
                EventKind::ShardLock => row.shard_lock_acquires += 1,
                EventKind::FaultInjected => row.faults_injected += 1,
                EventKind::Retry => {
                    row.fault_retries += 1;
                    row.retry_backoff_cycles += e.a;
                }
                EventKind::Quarantine => row.quarantines += 1,
                EventKind::ReplicaSync => row.replica_sync_cycles += e.a,
                EventKind::Migration => row.migration_cycles += e.a,
                EventKind::LockRelease
                | EventKind::VictimSelect
                | EventKind::DmaEnqueue
                | EventKind::Rebuild => {}
            }
        }
        for row in &mut per_core {
            let components = row.lock_wait_cycles
                + row.lock_hold_cycles
                + row.shootdown_cycles
                + row.dma_wait_cycles
                + row.tier_penalty_cycles
                + row.policy_scan_cycles
                + row.retry_backoff_cycles
                + row.replica_sync_cycles
                + row.migration_cycles;
            row.other_cycles = row.fault_cycles.saturating_sub(components);
        }
        Breakdown {
            per_core,
            dropped_events,
            validated: false,
        }
    }

    /// Checks the traced decomposition against the kernel's counters,
    /// core by core. Returns the first mismatch as an error. Must not
    /// be called when [`Breakdown::dropped_events`] is non-zero — with
    /// events lost the sums cannot be expected to match.
    pub fn validate(&self, totals: &[CoreTotals]) -> Result<(), String> {
        if self.dropped_events > 0 {
            return Err(format!(
                "{} events dropped; decomposition is incomplete",
                self.dropped_events
            ));
        }
        if self.per_core.len() != totals.len() {
            return Err(format!(
                "breakdown covers {} cores, kernel reports {}",
                self.per_core.len(),
                totals.len()
            ));
        }
        for (row, t) in self.per_core.iter().zip(totals) {
            let checks = [
                ("page_faults", row.faults, t.page_faults),
                ("fault_cycles", row.fault_cycles, t.fault_cycles),
                ("lock_wait_cycles", row.lock_wait_cycles, t.lock_wait_cycles),
                ("shootdown_cycles", row.shootdown_cycles, t.shootdown_cycles),
                ("dma_wait_cycles", row.dma_wait_cycles, t.dma_wait_cycles),
                (
                    "tier_penalty_cycles",
                    row.tier_penalty_cycles,
                    t.tier_penalty_cycles,
                ),
                (
                    "shard_lock_acquires",
                    row.shard_lock_acquires,
                    t.shard_lock_acquires,
                ),
                ("faults_injected", row.faults_injected, t.faults_injected),
                ("fault_retries", row.fault_retries, t.fault_retries),
                (
                    "retry_backoff_cycles",
                    row.retry_backoff_cycles,
                    t.retry_backoff_cycles,
                ),
                ("quarantines", row.quarantines, t.quarantines),
                (
                    "replica_sync_cycles",
                    row.replica_sync_cycles,
                    t.replica_sync_cycles,
                ),
                ("migration_cycles", row.migration_cycles, t.migration_cycles),
            ];
            for (name, traced, counted) in checks {
                if traced != counted {
                    return Err(format!(
                        "core {}: traced {name} = {traced} but kernel counted {counted}",
                        row.core
                    ));
                }
            }
        }
        Ok(())
    }

    /// `validate`, recording the outcome in [`Breakdown::validated`].
    /// Skips (leaving `validated == false`) when events were dropped.
    pub fn validate_against(mut self, totals: &[CoreTotals]) -> Result<Breakdown, String> {
        if self.dropped_events > 0 {
            return Ok(self); // incomplete trace: nothing to assert
        }
        self.validate(totals)?;
        self.validated = true;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn e(core: u16, kind: EventKind, a: u64, b: u64) -> Event {
        Event {
            ts: 0,
            core,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn components_and_other_sum_to_fault_cycles() {
        let events = [
            e(0, EventKind::FaultStart, 7, 0),
            e(0, EventKind::LockAcquire, 10, 20),
            e(0, EventKind::ShootdownSend, 5, 2),
            e(0, EventKind::DmaComplete, 40, 0),
            e(0, EventKind::PolicyScan, 3, 9),
            e(0, EventKind::FaultEnd, 0, 100),
        ];
        let b = Breakdown::from_events(&events, 1, 0);
        let row = &b.per_core[0];
        assert_eq!(row.faults, 1);
        assert_eq!(row.fault_cycles, 100);
        assert_eq!(row.other_cycles, 100 - 10 - 20 - 5 - 40 - 9);
        assert_eq!(
            row.lock_wait_cycles
                + row.lock_hold_cycles
                + row.shootdown_cycles
                + row.dma_wait_cycles
                + row.policy_scan_cycles
                + row.other_cycles,
            row.fault_cycles
        );
    }

    #[test]
    fn validation_matches_exact_totals() {
        let events = [
            e(0, EventKind::FaultStart, 7, 0),
            e(0, EventKind::LockAcquire, 10, 20),
            e(0, EventKind::DmaComplete, 40, 0),
            e(0, EventKind::FaultEnd, 0, 100),
        ];
        let totals = [CoreTotals {
            page_faults: 1,
            fault_cycles: 100,
            dma_wait_cycles: 40,
            shootdown_cycles: 0,
            lock_wait_cycles: 10,
            ..CoreTotals::default()
        }];
        let b = Breakdown::from_events(&events, 1, 0)
            .validate_against(&totals)
            .unwrap();
        assert!(b.validated);
    }

    #[test]
    fn validation_reports_the_mismatching_counter() {
        let events = [e(0, EventKind::FaultEnd, 0, 100)];
        let totals = [CoreTotals {
            fault_cycles: 90,
            ..CoreTotals::default()
        }];
        let err = Breakdown::from_events(&events, 1, 0)
            .validate(&totals)
            .unwrap_err();
        assert!(err.contains("fault_cycles"), "unexpected error: {err}");
    }

    #[test]
    fn dropped_events_skip_validation() {
        let totals = [CoreTotals::default()];
        let b = Breakdown::from_events(&[e(0, EventKind::FaultEnd, 0, 5)], 1, 3)
            .validate_against(&totals)
            .unwrap();
        assert!(!b.validated);
        assert_eq!(b.dropped_events, 3);
        // Direct validation refuses outright.
        assert!(Breakdown::from_events(&[], 1, 3).validate(&totals).is_err());
    }

    #[test]
    fn shard_locks_are_counted_but_cost_nothing() {
        let events = [
            e(0, EventKind::ShardLock, 17, 0),
            e(0, EventKind::ShardLock, 3, 0),
            e(0, EventKind::FaultEnd, 0, 50),
        ];
        let totals = [CoreTotals {
            fault_cycles: 50,
            shard_lock_acquires: 2,
            ..CoreTotals::default()
        }];
        let b = Breakdown::from_events(&events, 1, 0)
            .validate_against(&totals)
            .unwrap();
        assert!(b.validated);
        assert_eq!(b.per_core[0].shard_lock_acquires, 2);
        assert_eq!(b.per_core[0].other_cycles, 50, "host locks are free");
        // A count mismatch is caught.
        let wrong = [CoreTotals {
            fault_cycles: 50,
            shard_lock_acquires: 1,
            ..CoreTotals::default()
        }];
        let err = Breakdown::from_events(&events, 1, 0)
            .validate(&wrong)
            .unwrap_err();
        assert!(err.contains("shard_lock_acquires"), "unexpected: {err}");
    }

    #[test]
    fn fault_spans_decompose_and_validate() {
        let events = [
            e(0, EventKind::FaultStart, 7, 0),
            e(0, EventKind::FaultInjected, 1, 0), // DMA-out error, attempt 0
            e(0, EventKind::Retry, 30, 1),        // 30-cycle backoff
            e(0, EventKind::FaultInjected, 4, 1), // ENOSPC
            e(0, EventKind::Retry, 60, 4),
            e(0, EventKind::Quarantine, 9, 5),
            e(0, EventKind::DmaComplete, 40, 1),
            e(0, EventKind::FaultEnd, 0, 200),
        ];
        let b = Breakdown::from_events(&events, 1, 0);
        let row = &b.per_core[0];
        assert_eq!(row.faults_injected, 2);
        assert_eq!(row.fault_retries, 2);
        assert_eq!(row.retry_backoff_cycles, 90);
        assert_eq!(row.quarantines, 1);
        assert_eq!(row.other_cycles, 200 - 40 - 90, "backoff is a component");
        let totals = [CoreTotals {
            page_faults: 1,
            fault_cycles: 200,
            dma_wait_cycles: 40,
            faults_injected: 2,
            fault_retries: 2,
            retry_backoff_cycles: 90,
            quarantines: 1,
            ..CoreTotals::default()
        }];
        let b = b.validate_against(&totals).unwrap();
        assert!(b.validated);
        // A retry-count mismatch is caught.
        let wrong = [CoreTotals {
            fault_retries: 3,
            ..totals[0]
        }];
        let err = Breakdown::from_events(&events, 1, 0)
            .validate(&wrong)
            .unwrap_err();
        assert!(err.contains("fault_retries"), "unexpected: {err}");
    }

    #[test]
    fn tier_penalties_are_a_fault_component() {
        let events = [
            e(0, EventKind::FaultStart, 7, 0),
            e(0, EventKind::DmaComplete, 40, 1),
            e(0, EventKind::TierPenalty, 25, 2), // 25 cycles against tier 2
            e(0, EventKind::FaultEnd, 0, 100),
        ];
        let b = Breakdown::from_events(&events, 1, 0);
        let row = &b.per_core[0];
        assert_eq!(row.tier_penalty_cycles, 25);
        assert_eq!(row.other_cycles, 100 - 40 - 25);
        let totals = [CoreTotals {
            page_faults: 1,
            fault_cycles: 100,
            dma_wait_cycles: 40,
            tier_penalty_cycles: 25,
            ..CoreTotals::default()
        }];
        assert!(b.validate_against(&totals).unwrap().validated);
        // A penalty mismatch is caught.
        let wrong = [CoreTotals {
            tier_penalty_cycles: 24,
            ..totals[0]
        }];
        let err = Breakdown::from_events(&events, 1, 0)
            .validate(&wrong)
            .unwrap_err();
        assert!(err.contains("tier_penalty_cycles"), "unexpected: {err}");
    }

    #[test]
    fn replica_and_migration_charges_are_fault_components() {
        let events = [
            e(0, EventKind::FaultStart, 7, 0),
            e(0, EventKind::ReplicaSync, 3200, 1), // sync node 1
            e(0, EventKind::ReplicaSync, 3200, (1 << 8) | 2), // invalidate node 2
            e(0, EventKind::Migration, 4200, 1),   // home 0 → 1 ((from<<8)|to)
            e(0, EventKind::FaultEnd, 0, 20_000),
        ];
        let b = Breakdown::from_events(&events, 1, 0);
        let row = &b.per_core[0];
        assert_eq!(row.replica_sync_cycles, 6400);
        assert_eq!(row.migration_cycles, 4200);
        assert_eq!(row.other_cycles, 20_000 - 6400 - 4200);
        let totals = [CoreTotals {
            page_faults: 1,
            fault_cycles: 20_000,
            replica_sync_cycles: 6400,
            migration_cycles: 4200,
            ..CoreTotals::default()
        }];
        assert!(b.validate_against(&totals).unwrap().validated);
        // Either counter mismatching is caught.
        for (field, wrong) in [
            (
                "replica_sync_cycles",
                CoreTotals {
                    replica_sync_cycles: 6401,
                    ..totals[0]
                },
            ),
            (
                "migration_cycles",
                CoreTotals {
                    migration_cycles: 0,
                    ..totals[0]
                },
            ),
        ] {
            let err = Breakdown::from_events(&events, 1, 0)
                .validate(&[wrong])
                .unwrap_err();
            assert!(err.contains(field), "unexpected: {err}");
        }
    }

    #[test]
    fn maintenance_events_charge_no_core() {
        let events = [e(crate::MAINTENANCE_CORE, EventKind::PolicyScan, 64, 0)];
        let b = Breakdown::from_events(&events, 2, 0);
        assert!(b.per_core.iter().all(|r| r.policy_scan_cycles == 0));
    }

    #[test]
    fn serializes_through_the_report_path() {
        let b = Breakdown::from_events(&[e(0, EventKind::FaultEnd, 0, 5)], 1, 0);
        let json = serde_json::to_string(&b).unwrap();
        assert!(json.contains("\"per_core\""));
        assert!(json.contains("\"fault_cycles\":5"));
    }
}
