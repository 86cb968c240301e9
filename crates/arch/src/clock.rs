//! Per-core virtual clocks.
//!
//! Virtual time is the simulator's only notion of time: every core owns a
//! cycle counter that advances as the core executes work, misses its TLB,
//! takes page faults and so on. The reported "runtime" of a simulation is
//! the maximum clock over all cores at the final barrier.
//!
//! Cross-core charges — a shootdown IPI interrupting a remote core, for
//! example — are accumulated in an atomic *interrupt debt* on the target
//! clock and folded into the target's own timeline the next time that core
//! advances. This keeps cores loosely coupled (no global event ordering is
//! required to charge a remote core) while preserving the total cost, and
//! the frequent barriers in the HPC workloads bound the skew between the
//! instant a charge is incurred and the instant it is absorbed.
//!
//! Phase A advances a [`LocalClock`]: the owning core's runner copies its
//! clock out on entry, advances and settles the copy on every touch, and
//! writes it back once when it returns. Only phase-B commits charge debt,
//! so the copy's debt is exactly the shared one for the whole call, and
//! the per-touch bookkeeping writes no cache line another core can read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual time / duration, measured in core clock cycles.
pub type Cycles = u64;

/// A core's virtual clock: an owner-advanced cycle counter plus an
/// atomically chargeable interrupt debt.
///
/// The clock is `Sync` so the parallel engine can charge remote cores
/// while each core's worker thread advances its own clock. Each clock is
/// 128-byte aligned (the adjacent-line prefetcher pairs 64-byte lines),
/// so a write-back to one core's clock never invalidates the line
/// another worker's clock lives on.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CoreClock {
    /// Cycles the core has executed, advanced only by the owning context.
    cycles: AtomicU64,
    /// Pending cycles charged by *other* cores (interrupt handling),
    /// folded into `cycles` by the owner's next [`LocalClock::settle`].
    debt: AtomicU64,
}

impl CoreClock {
    /// A clock at time zero.
    pub fn new() -> CoreClock {
        CoreClock::default()
    }

    /// Current virtual time including unsettled interrupt debt.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.cycles.load(Ordering::Relaxed) + self.debt.load(Ordering::Relaxed)
    }

    /// Cycles of executed work, excluding unsettled debt.
    #[inline]
    pub fn executed(&self) -> Cycles {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta` cycles of the core's own work.
    ///
    /// `cycles` has a single writer (the owning context — see the field
    /// doc), so a plain load + store replaces the atomic RMW: the fault
    /// path advances the clock several times per fault and the locked
    /// add was measurable. Remote cores only ever touch `debt`.
    #[inline]
    pub fn advance(&self, delta: Cycles) {
        self.cycles.store(
            self.cycles.load(Ordering::Relaxed) + delta,
            Ordering::Relaxed,
        );
    }

    /// Charges `delta` cycles to this core from another core's timeline
    /// (e.g. the interrupt-handler cost of a TLB shootdown).
    #[inline]
    pub fn charge_remote(&self, delta: Cycles) {
        self.debt.fetch_add(delta, Ordering::Relaxed);
    }

    /// Copies the clock out for its owning core's phase-A run; write it
    /// back with [`CoreClock::store`].
    #[inline]
    pub fn load(&self) -> LocalClock {
        let debt = self.debt.load(Ordering::Relaxed);
        LocalClock {
            cycles: self.cycles.load(Ordering::Relaxed),
            debt,
            loaded_debt: debt,
        }
    }

    /// Writes back a copy taken by [`CoreClock::load`].
    ///
    /// Plain stores: `cycles` has a single writer (the owner), and no
    /// charge may land between the load and the store — only phase-B
    /// commits charge debt, and the copy lives within one phase A. Debug
    /// builds check that the shared debt did not move.
    #[inline]
    pub fn store(&self, local: &LocalClock) {
        debug_assert_eq!(
            self.debt.load(Ordering::Relaxed),
            local.loaded_debt,
            "remote debt charged while the owner ran on a local copy"
        );
        self.cycles.store(local.cycles, Ordering::Relaxed);
        self.debt.store(local.debt, Ordering::Relaxed);
    }

    /// Moves the clock forward to at least `t` (used when a core leaves a
    /// barrier: all participants resume at the barrier's release time).
    #[inline]
    pub fn advance_to(&self, t: Cycles) {
        let cur = self.cycles.load(Ordering::Relaxed);
        if t > cur {
            // Single-writer store, like `advance`.
            self.cycles.store(t, Ordering::Relaxed);
        }
    }
}

/// A core's clock copied out of its [`CoreClock`] for one phase-A run of
/// the owning core: plain integers, so the per-touch advance, settle and
/// ceiling check touch no shared cache line.
#[derive(Debug)]
pub struct LocalClock {
    cycles: Cycles,
    debt: Cycles,
    /// `debt` as loaded, for the write-back's frozen-debt check.
    loaded_debt: Cycles,
}

impl LocalClock {
    /// Current virtual time including unsettled interrupt debt.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.cycles + self.debt
    }

    /// Advances the clock by `delta` cycles of the core's own work.
    #[inline]
    pub fn advance(&mut self, delta: Cycles) {
        self.cycles += delta;
    }

    /// Folds any outstanding interrupt debt into the executed timeline and
    /// returns the amount absorbed.
    #[inline]
    pub fn settle(&mut self) -> Cycles {
        let d = std::mem::take(&mut self.debt);
        self.cycles += d;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_now() {
        let c = CoreClock::new();
        assert_eq!(c.now(), 0);
        c.advance(100);
        c.advance(23);
        assert_eq!(c.now(), 123);
        assert_eq!(c.executed(), 123);
    }

    #[test]
    fn remote_debt_shows_in_now_and_settles() {
        let c = CoreClock::new();
        c.advance(50);
        c.charge_remote(30);
        assert_eq!((c.executed(), c.now()), (50, 80));
        // A copy that only advances writes the debt back unsettled...
        let mut local = c.load();
        local.advance(10);
        assert_eq!(local.now(), 90);
        assert_eq!(c.now(), 80, "the shared clock waits for the write-back");
        c.store(&local);
        assert_eq!((c.executed(), c.now()), (60, 90));
        // ...and one that settles folds it into the executed cycles.
        let mut local = c.load();
        assert_eq!(local.settle(), 30);
        assert_eq!(local.settle(), 0);
        c.store(&local);
        assert_eq!((c.executed(), c.now()), (90, 90));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "remote debt charged while the owner ran on a local copy")]
    fn a_charge_during_a_local_run_is_caught_in_debug_builds() {
        let c = CoreClock::new();
        let local = c.load();
        c.charge_remote(1);
        c.store(&local);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let c = CoreClock::new();
        c.advance(100);
        c.advance_to(80);
        assert_eq!(c.now(), 100);
        c.advance_to(150);
        assert_eq!(c.now(), 150);
    }

    #[test]
    fn concurrent_remote_charges_are_not_lost() {
        use std::sync::Arc;
        let c = Arc::new(CoreClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.charge_remote(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 80_000);
        assert_eq!(c.load().settle(), 80_000);
    }
}
