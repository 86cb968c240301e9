//! One simulated core's execution state.
//!
//! A [`CoreRunner`] owns the core's TLB and its position in the trace,
//! and knows how to [`CoreRunner::advance`] freely through the trace
//! until it either reaches the engine's epoch ceiling or *parks* at a
//! kernel entry point: a failed page walk (the fault trap), a syscall,
//! or a rendezvous barrier. The engine executes the parked kernel work
//! sequentially in virtual-time stamp order and then resumes the core —
//! so all cross-core kernel effects happen at exact, reproducible
//! stamps.
//!
//! An [`Op::Replay`] moves the op index back to the start of its range
//! and keeps a return index; stepping past the range's last op (in
//! `CoreRunner::next_op`, the one place the index advances) jumps back
//! to the op after the replay. The jump touches neither the clock nor
//! the TLB, and the ceiling is still checked between any two touches, so
//! a replayed range runs exactly as a copy of it would.

use cmcp_arch::{CoreClock, CoreId, Cycles, FxHashSet, PageSize, Tlb, TlbLookup, VirtPage};
use cmcp_kernel::{Syscall, Vmm};
use cmcp_trace::Recorder;

use crate::trace::{CoreTrace, Op};

/// Why [`CoreRunner::advance`] handed control back to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pause {
    /// The core's clock reached the epoch ceiling; more ops remain.
    Ceiling,
    /// The page walk found no translation: the core is parked in the
    /// fault trap at its current clock, waiting for the engine to run
    /// the kernel's handler at that stamp.
    Fault {
        /// The faulting virtual page.
        page: VirtPage,
        /// Whether the faulting access was a store.
        write: bool,
    },
    /// The trace issued a host-offloaded syscall; the engine executes
    /// it in stamp order.
    Syscall {
        /// The offloaded call.
        call: Syscall,
    },
    /// The core arrived at its next rendezvous barrier.
    Barrier,
    /// The trace is exhausted.
    Done,
}

/// A page touch interrupted by a fault: completed on the next
/// [`CoreRunner::advance`] after the engine has run the handler.
#[derive(Clone, Copy)]
struct PendingFault {
    page: VirtPage,
    write: bool,
}

/// Execution state of one simulated core.
pub struct CoreRunner {
    /// This core's id.
    pub core: CoreId,
    tlb: Tlb,
    op_idx: usize,
    stream_pos: u16,
    /// One past the last op of the replay being run, 0 outside a replay
    /// (stepping never lands on index 0).
    replay_end: usize,
    /// Where to go on when the replay ends: the op after it.
    replay_return: usize,
    /// A touch that faulted and awaits the kernel's handler.
    pending: Option<PendingFault>,
    /// Blocks this core has already marked dirty (dedupes the PTE dirty
    /// write on TLB-hit stores; cleared when the block is invalidated).
    /// Keyed by block head at a fixed block size, by exact 4 kB page in
    /// adaptive mode (where the mapping granularity varies per region).
    /// Probed on every store and never iterated, so the seed-free
    /// [`FxHashSet`] cannot leak hash order into any result.
    written: FxHashSet<u64>,
    inval_buf: Vec<(VirtPage, u32)>,
    /// Adaptive page-size mode: translations come in mixed size classes,
    /// so TLB probes search every class.
    adaptive: bool,
}

impl CoreRunner {
    /// A runner for `core` against `vmm`'s configuration.
    pub fn new<R: Recorder>(core: CoreId, vmm: &Vmm<R>) -> CoreRunner {
        CoreRunner {
            core,
            tlb: Tlb::knc(vmm.cost()),
            op_idx: 0,
            stream_pos: 0,
            replay_end: 0,
            replay_return: 0,
            pending: None,
            written: FxHashSet::default(),
            inval_buf: Vec::new(),
            adaptive: vmm.config().adaptive,
        }
    }

    /// The dirty-dedupe key for `page`: the enclosing block head at a
    /// fixed block size, the page itself in adaptive mode.
    fn dirty_key(&self, page: VirtPage, size: PageSize) -> u64 {
        if self.adaptive {
            page.0
        } else {
            page.align_down(size).0
        }
    }

    /// Final TLB statistics.
    pub fn tlb_stats(&self) -> cmcp_arch::TlbStats {
        self.tlb.stats()
    }

    /// Applies pending remote TLB invalidations (their cycle cost was
    /// charged by the shootdown; here the entries actually disappear).
    /// `now` stamps the traced invalidation events.
    fn drain_invalidations<R: Recorder>(&mut self, vmm: &Vmm<R>, now: Cycles) {
        if !vmm.has_pending_invalidations(self.core) {
            return;
        }
        vmm.drain_invalidations(self.core, &mut self.inval_buf);
        for (head, span) in self.inval_buf.drain(..) {
            // Invalidate every TLB entry covering the block — the span
            // rides in the mailbox entry now that adaptive mode evicts
            // mixed-granularity victims — and drop its dirty-dedupe
            // keys: each page in adaptive mode, the head otherwise.
            for k in 0..span as u64 {
                let p = head.add(k);
                self.tlb
                    .invalidate_traced(p, vmm.tracer(), self.core.0, now);
                if self.adaptive {
                    self.written.remove(&p.0);
                }
            }
            if !self.adaptive {
                self.written.remove(&head.0);
            }
        }
    }

    /// Steps past the current op: to the next one, or out of a replay
    /// whose last op this was, to the op after the replay.
    fn next_op(&mut self) {
        self.op_idx += 1;
        self.stream_pos = 0;
        if self.op_idx == self.replay_end {
            self.op_idx = self.replay_return;
            self.replay_end = 0;
        }
    }

    /// Retires the stream position of a just-completed touch.
    fn retire_touch(&mut self, trace: &CoreTrace) {
        if let Some(Op::Stream { pages, .. }) = trace.ops.get(self.op_idx) {
            self.stream_pos += 1;
            if self.stream_pos == *pages {
                self.next_op();
            }
        }
    }

    /// Finishes a touch whose fault the engine has since handled, or
    /// re-parks if a concurrent eviction tore the fresh mapping down
    /// before the walk re-read it — the hardware would simply fault
    /// again, and each retry pairs the extra fault with the extra walk
    /// it implies, so faults never outnumber misses in anyone's books.
    fn resume_pending<R: Recorder>(
        &mut self,
        vmm: &Vmm<R>,
        trace: &CoreTrace,
        clock: &mut CoreClock,
    ) -> Option<Pause> {
        let pf = self.pending?;
        match vmm.mark_accessed(self.core, pf.page, pf.write) {
            Some(tr) => {
                self.tlb.fill(pf.page, tr.size);
                if pf.write {
                    let key = self.dirty_key(pf.page, vmm.config().block_size);
                    self.written.insert(key);
                }
                clock.advance(self.tlb.drain_cycles());
                clock.settle();
                self.pending = None;
                self.retire_touch(trace);
                None
            }
            None => {
                self.tlb.rewalk();
                clock.advance(self.tlb.drain_cycles());
                clock.settle();
                Some(Pause::Fault {
                    page: pf.page,
                    write: pf.write,
                })
            }
        }
    }

    /// Executes one page touch. `Some(pause)` means the walk failed and
    /// the core parked in the fault trap (the touch is left pending).
    fn touch<R: Recorder>(
        &mut self,
        vmm: &Vmm<R>,
        clock: &mut CoreClock,
        page: VirtPage,
        write: bool,
        work: u32,
    ) -> Option<Pause> {
        let size = vmm.config().block_size;
        let cost = vmm.cost();
        clock.advance(work as u64 * cost.work_unit);

        let lookup = if self.adaptive {
            // Mixed size classes online: probe them all, as hardware does.
            self.tlb.access_any(page)
        } else {
            self.tlb.access(page, size)
        };
        match lookup {
            TlbLookup::L1 | TlbLookup::L2 => {
                // First store through a cached clean translation sets the
                // dirty bit in the PTE (hardware assist).
                if write {
                    let key = self.dirty_key(page, size);
                    if self.written.insert(key) {
                        vmm.mark_accessed(self.core, page, true);
                    }
                }
            }
            // One walk finds the translation and sets its A (and D) bit.
            TlbLookup::Miss => match vmm.mark_accessed(self.core, page, write) {
                Some(tr) => {
                    self.tlb.fill(page, tr.size);
                    if write {
                        self.written.insert(self.dirty_key(page, size));
                    }
                }
                None => {
                    // The walk completes (and stalls the pipeline)
                    // before the trap is taken: charge it, then park at
                    // the resulting stamp.
                    clock.advance(self.tlb.drain_cycles());
                    clock.settle();
                    self.pending = Some(PendingFault { page, write });
                    return Some(Pause::Fault { page, write });
                }
            },
        }
        clock.advance(self.tlb.drain_cycles());
        clock.settle();
        None
    }

    /// Runs the trace until the core's clock reaches `ceiling`, a kernel
    /// entry parks it, or the trace ends.
    ///
    /// Ops are atomic: a touch or compute op that *crosses* the ceiling
    /// completes (the clock may overshoot); the check happens between
    /// ops and between the touches of a stream. With `ceiling ==
    /// u64::MAX` this runs until the next park, as a core with no epoch
    /// window would.
    ///
    /// The core's clock is copied out of the kernel on entry and written
    /// back once on return; every advance, settle and ceiling check in
    /// between runs on the copy. Only phase-B commits charge debt, so
    /// the copy's debt is exact for the whole call. Returns the pause
    /// and the core's clock there, which stamps a parked kernel entry.
    pub fn advance<R: Recorder>(
        &mut self,
        vmm: &Vmm<R>,
        trace: &CoreTrace,
        ceiling: Cycles,
    ) -> (Pause, Cycles) {
        let loaded = vmm.clocks()[self.core.index()];
        let mut clock = loaded;
        let pause = self.run(vmm, trace, ceiling, &mut clock);
        write_back(&mut vmm.clocks_mut()[self.core.index()], loaded, clock);
        (pause, clock.now())
    }

    /// [`CoreRunner::advance`] on the local clock copy.
    fn run<R: Recorder>(
        &mut self,
        vmm: &Vmm<R>,
        trace: &CoreTrace,
        ceiling: Cycles,
        clock: &mut CoreClock,
    ) -> Pause {
        self.drain_invalidations(vmm, clock.now());
        if let Some(parked) = self.resume_pending(vmm, trace, clock) {
            return parked;
        }
        loop {
            if clock.now() >= ceiling {
                return Pause::Ceiling;
            }
            let Some(op) = trace.ops.get(self.op_idx) else {
                return Pause::Done;
            };
            match *op {
                Op::Stream {
                    start,
                    pages,
                    write,
                    work_per_page,
                } => {
                    while self.stream_pos < pages {
                        if clock.now() >= ceiling {
                            return Pause::Ceiling;
                        }
                        let page = start.add(u64::from(self.stream_pos));
                        if let Some(parked) = self.touch(vmm, clock, page, write, work_per_page) {
                            return parked;
                        }
                        self.stream_pos += 1;
                    }
                    self.next_op();
                }
                Op::Compute(cycles) => {
                    clock.advance(cycles);
                    self.next_op();
                }
                Op::Syscall { payload, write } => {
                    let call = if write {
                        Syscall::Write(payload)
                    } else {
                        Syscall::Read(payload)
                    };
                    self.next_op();
                    return Pause::Syscall { call };
                }
                Op::Barrier => {
                    self.next_op();
                    return Pause::Barrier;
                }
                Op::Replay { start, len } => {
                    self.replay_return = self.op_idx + 1;
                    self.replay_end = start as usize + len as usize;
                    self.op_idx = start as usize;
                }
            }
        }
    }
}

/// Stores phase A's clock copy `local` over the kernel's `clock`, which
/// read `loaded` when the copy was taken. Nothing may charge the clock
/// in between (only phase-B commits charge debt, and the copy lives
/// within one phase A); debug builds check that.
fn write_back(clock: &mut CoreClock, loaded: CoreClock, local: CoreClock) {
    debug_assert_eq!(
        *clock, loaded,
        "remote debt charged while the owner ran on a local copy"
    );
    *clock = local;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcp_kernel::KernelConfig;

    fn vmm(blocks: usize) -> Vmm {
        Vmm::new(KernelConfig::new(2, blocks))
    }

    fn trace_of(ops: Vec<Op>) -> CoreTrace {
        CoreTrace { ops }
    }

    /// Drives a runner to its next non-fault pause, executing parked
    /// kernel work inline (the engine in miniature).
    fn drive(r: &mut CoreRunner, v: &Vmm, t: &CoreTrace) -> Pause {
        loop {
            match r.advance(v, t, u64::MAX).0 {
                Pause::Fault { page, write } => {
                    v.handle_fault(r.core, page, write);
                }
                Pause::Syscall { call } => {
                    v.offload_syscall(r.core, call);
                }
                other => return other,
            }
        }
    }

    #[test]
    fn touch_faults_then_hits() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![
            Op::touch(VirtPage(5), false, 1),
            Op::touch(VirtPage(5), false, 1),
        ]);
        assert_eq!(drive(&mut r, &v, &t), Pause::Done);
        let s = r.tlb_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(v.core_stats()[0].page_faults, 1);
    }

    #[test]
    fn fault_parks_and_resume_completes_the_touch() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::touch(VirtPage(5), false, 1)]);
        // The cold touch parks in the fault trap without handling it...
        let (pause, parked_at) = r.advance(&v, &t, u64::MAX);
        match pause {
            Pause::Fault { page, write } => {
                assert_eq!(page, VirtPage(5));
                assert!(!write);
            }
            other => panic!("expected fault park, got {other:?}"),
        }
        // ...the park stamp already includes the failed walk...
        assert!(parked_at > 0, "work + walk must be charged before parking");
        assert_eq!(v.clocks()[0].now(), parked_at, "the copy was written back");
        // ...and after the engine runs the handler the touch retires.
        v.handle_fault(CoreId(0), VirtPage(5), false);
        assert_eq!(r.advance(&v, &t, u64::MAX).0, Pause::Done);
        assert_eq!(r.tlb_stats().misses, 1);
    }

    #[test]
    fn ceiling_bounds_a_long_stream() {
        let v = vmm(256);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::Stream {
            start: VirtPage(0),
            pages: 100,
            write: false,
            work_per_page: 1,
        }]);
        // A ceiling of 1 cycle stops the core at its first park or
        // boundary — here the first cold touch faults immediately.
        assert!(matches!(
            r.advance(&v, &t, 1).0,
            Pause::Fault {
                page: VirtPage(0),
                ..
            }
        ));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        // With the fault handled, a tiny ceiling pauses at the boundary
        // without consuming further touches...
        assert_eq!(r.advance(&v, &t, 1).0, Pause::Ceiling);
        assert_eq!(r.tlb_stats().accesses, 1);
        // ...and an unbounded drive finishes all 100 pages.
        assert_eq!(drive(&mut r, &v, &t), Pause::Done);
        assert_eq!(r.tlb_stats().accesses, 100);
    }

    #[test]
    fn a_replay_pauses_and_returns_like_its_copy() {
        // Pages 0–2, a compute and a barrier, run twice and then a store
        // to page 7: once with the range copied, once replayed. Two
        // blocks of memory make the second pass fault, and a ceiling
        // 400 cycles ahead of the clock pauses it after the compute.
        let body = [
            Op::Stream {
                start: VirtPage(0),
                pages: 3,
                write: false,
                work_per_page: 1,
            },
            Op::Compute(1000),
            Op::Barrier,
        ];
        let tail = Op::touch(VirtPage(7), true, 1);
        let copied = [&body[..], &body, &[tail]].concat();
        let replayed = [&body[..], &[Op::Replay { start: 0, len: 3 }, tail]].concat();
        let pauses = |ops: Vec<Op>| {
            let v = vmm(2);
            let mut r = CoreRunner::new(CoreId(0), &v);
            let t = trace_of(ops);
            let mut seen = Vec::new();
            loop {
                let ceiling = v.clocks()[0].now() + 400;
                let (pause, now) = r.advance(&v, &t, ceiling);
                seen.push((pause, now, r.tlb_stats()));
                match pause {
                    Pause::Fault { page, write } => {
                        v.handle_fault(r.core, page, write);
                    }
                    Pause::Done => return seen,
                    _ => {}
                }
            }
        };
        let copy = pauses(copied);
        assert_eq!(copy, pauses(replayed));
        let first_barrier = copy.iter().position(|p| p.0 == Pause::Barrier).unwrap();
        let second_pass = &copy[first_barrier + 1..];
        assert!(second_pass
            .iter()
            .any(|p| matches!(p.0, Pause::Fault { .. })));
        assert!(second_pass.iter().any(|p| p.0 == Pause::Ceiling));
        assert_eq!(copy.last().unwrap().2.accesses, 7);
    }

    #[test]
    fn write_through_cached_entry_dirties_block_once() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![
            Op::touch(VirtPage(5), false, 1), // fault, read
            Op::touch(VirtPage(5), true, 1),  // TLB hit, first write
            Op::touch(VirtPage(5), true, 1),  // TLB hit, already dirty
        ]);
        assert_eq!(drive(&mut r, &v, &t), Pause::Done);
        // The block is dirty: evicting it must cost a write-back.
        v.handle_fault(CoreId(0), VirtPage(100), false);
        v.handle_fault(CoreId(0), VirtPage(101), false);
        v.handle_fault(CoreId(0), VirtPage(102), false);
        v.handle_fault(CoreId(0), VirtPage(103), false);
        v.handle_fault(CoreId(0), VirtPage(104), false); // evicts page 5 (FIFO)
        assert_eq!(v.global_stats().writebacks, 1);
    }

    #[test]
    fn barrier_parks_the_core() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::Barrier, Op::touch(VirtPage(1), false, 1)]);
        assert_eq!(r.advance(&v, &t, u64::MAX).0, Pause::Barrier);
        assert_eq!(drive(&mut r, &v, &t), Pause::Done);
    }

    #[test]
    fn syscall_parks_with_the_call() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::Syscall {
            payload: 4096,
            write: true,
        }]);
        match r.advance(&v, &t, u64::MAX).0 {
            Pause::Syscall {
                call: Syscall::Write(4096),
            } => {}
            other => panic!("expected write syscall park, got {other:?}"),
        }
        assert_eq!(r.advance(&v, &t, u64::MAX).0, Pause::Done);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "remote debt charged while the owner ran on a local copy")]
    fn a_charge_during_a_local_run_is_caught_in_debug_builds() {
        let mut clock = CoreClock::new();
        let loaded = clock;
        clock.charge_remote(1);
        write_back(&mut clock, loaded, loaded);
    }

    #[test]
    fn compute_advances_clock_without_memory() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::Compute(12345)]);
        assert_eq!(r.advance(&v, &t, u64::MAX).0, Pause::Done);
        assert_eq!(v.clocks()[0].now(), 12345);
        assert_eq!(r.tlb_stats().accesses, 0);
    }

    // Debt folds into `executed()` only where the runner settles — after
    // a touch or a resume, never at a ceiling check, a compute op or a
    // barrier. The barrier release and the fault path's lock both
    // `advance_to` against executed cycles alone, so the fold points are
    // observable in the simulated numbers.

    #[test]
    fn a_ceiling_pause_leaves_remote_debt_unsettled() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::touch(VirtPage(5), false, 1)]);
        v.clocks_mut()[0].charge_remote(100);
        // The debt alone reaches the ceiling: no touch runs.
        assert_eq!(r.advance(&v, &t, 100).0, Pause::Ceiling);
        assert_eq!(v.clocks()[0].executed(), 0);
        assert_eq!(v.clocks()[0].now(), 100);
        assert_eq!(r.tlb_stats().accesses, 0);
    }

    #[test]
    fn compute_and_barrier_leave_remote_debt_unsettled() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::Compute(50), Op::Barrier]);
        v.clocks_mut()[0].charge_remote(100);
        assert_eq!(r.advance(&v, &t, u64::MAX).0, Pause::Barrier);
        assert_eq!(v.clocks()[0].executed(), 50);
        assert_eq!(v.clocks()[0].now(), 150);
    }

    #[test]
    fn one_touch_folds_remote_debt_into_executed_cycles() {
        let v = vmm(4);
        let mut r = CoreRunner::new(CoreId(0), &v);
        let t = trace_of(vec![Op::touch(VirtPage(5), false, 1)]);
        assert_eq!(drive(&mut r, &v, &t), Pause::Done);
        let before = v.clocks()[0].executed();
        v.clocks_mut()[0].charge_remote(100);
        // The same page again: an L1 hit, so the touch costs its work
        // unit alone, plus the folded debt.
        let mut r = CoreRunner { op_idx: 0, ..r };
        assert_eq!(r.advance(&v, &t, u64::MAX).0, Pause::Done);
        assert_eq!(r.tlb_stats().l1_hits, 1);
        let after = before + v.cost().work_unit + 100;
        assert_eq!(v.clocks()[0].executed(), after);
        assert_eq!(v.clocks()[0].now(), after);
    }

    #[test]
    fn invalidating_a_64k_block_clears_its_dirty_key() {
        let v = Vmm::new(
            KernelConfig::new(2, 2)
                .with_block_size(PageSize::K64)
                .with_policy(cmcp_core::PolicyKind::Fifo),
        );
        let mut r0 = CoreRunner::new(CoreId(0), &v);
        drive(
            &mut r0,
            &v,
            &trace_of(vec![Op::touch(VirtPage(5), true, 1)]),
        );
        // Core 1 fills the pool; its second block evicts block 0 (dirty).
        v.handle_fault(CoreId(1), VirtPage(16), false);
        v.handle_fault(CoreId(1), VirtPage(32), false);
        assert_eq!(v.global_stats().writebacks, 1);
        // Core 0 refaults the block clean, then stores through its TLB
        // entry: the drained invalidation must have dropped the block's
        // key, or the store would skip the PTE dirty bit.
        let t = trace_of(vec![
            Op::touch(VirtPage(5), false, 1),
            Op::touch(VirtPage(5), true, 1),
        ]);
        let mut r0 = CoreRunner { op_idx: 0, ..r0 };
        drive(&mut r0, &v, &t);
        // FIFO: block 2 leaves clean, then block 0 must be written back.
        v.handle_fault(CoreId(1), VirtPage(48), false);
        v.handle_fault(CoreId(1), VirtPage(64), false);
        assert_eq!(v.global_stats().writebacks, 2);
    }

    #[test]
    fn invalidation_drain_clears_tlb_and_dirty_cache() {
        let v = vmm(4);
        let mut r0 = CoreRunner::new(CoreId(0), &v);
        let t0 = trace_of(vec![Op::touch(VirtPage(5), true, 1)]);
        drive(&mut r0, &v, &t0);
        assert_eq!(r0.tlb_stats().misses, 1);
        // Another core's fault evicts page 5's block once memory fills.
        for b in 0..4u64 {
            v.handle_fault(CoreId(1), VirtPage(100 + b), false);
        }
        // Pool (4 blocks) now holds 5's block + 3 of the new ones... the
        // fourth new fault evicted block 5 (FIFO head) and queued an
        // invalidation for core 0.
        assert!(v.has_pending_invalidations(CoreId(0)));
        let t0b = trace_of(vec![Op::touch(VirtPage(6), false, 1)]);
        let mut r0b = CoreRunner { op_idx: 0, ..r0 };
        drive(&mut r0b, &v, &t0b);
        assert!(!v.has_pending_invalidations(CoreId(0)));
    }
}
