//! Per-core virtual clocks.
//!
//! Virtual time is the simulator's only notion of time: every core owns a
//! cycle counter that advances as the core executes work, misses its TLB,
//! takes page faults and so on. The reported "runtime" of a simulation is
//! the maximum clock over all cores at the final barrier.
//!
//! Cross-core charges — a shootdown IPI interrupting a remote core, for
//! example — are accumulated as *interrupt debt* on the target clock and
//! folded into the target's own timeline the next time that core
//! settles. This keeps cores loosely coupled (no global event ordering is
//! required to charge a remote core) while preserving the total cost, and
//! the frequent barriers in the HPC workloads bound the skew between the
//! instant a charge is incurred and the instant it is absorbed.
//!
//! A [`CoreClock`] is a plain `Copy` pair. The kernel keeps one per core
//! in its state; phase A's runner copies its core's clock out on entry,
//! advances and settles the copy on every touch, and writes it back once
//! when it returns. Only phase-B commits charge debt, so the copy's debt
//! is exact for the whole run.

/// Virtual time / duration, measured in core clock cycles.
pub type Cycles = u64;

/// A core's virtual clock: the cycles it has executed plus the interrupt
/// debt other cores have charged it and it has not yet settled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreClock {
    /// Cycles the core has executed.
    cycles: Cycles,
    /// Pending cycles charged by *other* cores (interrupt handling),
    /// folded into `cycles` by the owner's next [`CoreClock::settle`].
    debt: Cycles,
}

impl CoreClock {
    /// A clock at time zero.
    pub fn new() -> CoreClock {
        CoreClock::default()
    }

    /// Current virtual time including unsettled interrupt debt.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.cycles + self.debt
    }

    /// Cycles of executed work, excluding unsettled debt.
    #[inline]
    pub fn executed(&self) -> Cycles {
        self.cycles
    }

    /// Advances the clock by `delta` cycles of the core's own work.
    #[inline]
    pub fn advance(&mut self, delta: Cycles) {
        self.cycles += delta;
    }

    /// Charges `delta` cycles to this core from another core's timeline
    /// (e.g. the interrupt-handler cost of a TLB shootdown).
    #[inline]
    pub fn charge_remote(&mut self, delta: Cycles) {
        self.debt += delta;
    }

    /// Folds any outstanding interrupt debt into the executed timeline and
    /// returns the amount absorbed.
    #[inline]
    pub fn settle(&mut self) -> Cycles {
        let d = std::mem::take(&mut self.debt);
        self.cycles += d;
        d
    }

    /// Moves the clock forward to at least `t` (used when a core leaves a
    /// barrier: all participants resume at the barrier's release time).
    #[inline]
    pub fn advance_to(&mut self, t: Cycles) {
        self.cycles = self.cycles.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_now() {
        let mut c = CoreClock::new();
        assert_eq!(c.now(), 0);
        c.advance(100);
        c.advance(23);
        assert_eq!(c.now(), 123);
        assert_eq!(c.executed(), 123);
    }

    #[test]
    fn remote_debt_shows_in_now_and_settles() {
        let mut c = CoreClock::new();
        c.advance(50);
        c.charge_remote(30);
        assert_eq!((c.executed(), c.now()), (50, 80));
        // An advance leaves the debt unsettled...
        c.advance(10);
        assert_eq!((c.executed(), c.now()), (60, 90));
        // ...and a settle folds it into the executed cycles.
        assert_eq!(c.settle(), 30);
        assert_eq!(c.settle(), 0);
        assert_eq!((c.executed(), c.now()), (90, 90));
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = CoreClock::new();
        c.advance(100);
        c.advance_to(80);
        assert_eq!(c.now(), 100);
        c.advance_to(150);
        assert_eq!(c.now(), 150);
    }

    #[test]
    fn remote_charges_are_not_lost() {
        let mut c = CoreClock::new();
        for _ in 0..8 {
            for _ in 0..10_000 {
                c.charge_remote(1);
            }
        }
        assert_eq!(c.now(), 80_000);
        assert_eq!(c.settle(), 80_000);
    }
}
