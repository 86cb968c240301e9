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

use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual time / duration, measured in core clock cycles.
pub type Cycles = u64;

/// A core's virtual clock: an owner-advanced cycle counter plus an
/// atomically chargeable interrupt debt.
///
/// The clock is `Sync` so the parallel engine can charge remote cores
/// while each core's worker thread advances its own clock.
#[derive(Debug, Default)]
pub struct CoreClock {
    /// Cycles the core has executed, advanced only by the owning context.
    cycles: AtomicU64,
    /// Pending cycles charged by *other* cores (interrupt handling),
    /// folded into `cycles` on the next [`CoreClock::settle`].
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

    /// Folds any outstanding interrupt debt into the executed timeline and
    /// returns the amount absorbed.
    ///
    /// Loads before it swaps: the runner settles on every simulated
    /// touch, but only kernel commits charge debt, so it is almost always
    /// zero — and a plain load neither locks the bus nor takes the cache
    /// line (shared with other cores' clocks) exclusive. A charge that
    /// lands after the load is not lost: it stays in `debt` for the next
    /// settle, and the swap moves whatever is there in one atomic step.
    #[inline]
    pub fn settle(&self) -> Cycles {
        if self.debt.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let d = self.debt.swap(0, Ordering::Relaxed);
        // Single-writer store, like `advance` (settle runs on the owning
        // core's thread).
        self.cycles
            .store(self.cycles.load(Ordering::Relaxed) + d, Ordering::Relaxed);
        d
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
        assert_eq!(c.now(), 80);
        assert_eq!(c.executed(), 50);
        assert_eq!(c.settle(), 30);
        assert_eq!(c.executed(), 80);
        assert_eq!(c.settle(), 0);
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
        assert_eq!(c.settle(), 80_000);
    }

    #[test]
    fn settling_while_charged_never_loses_a_charge() {
        // The owner settles in a loop while eight threads charge it: the
        // load-first fast path must never drop a charge that lands
        // between its load and a later swap.
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Arc, Barrier};
        const CHARGERS: usize = 8;
        const CHARGES: u64 = 200_000;
        let c = Arc::new(CoreClock::new());
        let running = Arc::new(AtomicUsize::new(CHARGERS));
        let start = Arc::new(Barrier::new(CHARGERS + 1));
        let chargers: Vec<_> = (0..CHARGERS)
            .map(|k| {
                let (c, running, start) =
                    (Arc::clone(&c), Arc::clone(&running), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..CHARGES {
                        c.charge_remote(k as u64 + 1);
                    }
                    running.fetch_sub(1, Ordering::Release);
                })
            })
            .collect();
        start.wait();
        let mut absorbed = 0;
        while running.load(Ordering::Acquire) > 0 {
            absorbed += c.settle();
        }
        for h in chargers {
            h.join().unwrap();
        }
        let total: u64 = (1..=CHARGERS as u64).map(|k| k * CHARGES).sum();
        let executed = c.executed();
        assert_eq!(executed, absorbed, "settle returns what it folds");
        assert_eq!(executed + c.settle(), total);
        assert_eq!(c.now(), total);
    }
}
