//! The epoch discrete-event engine.
//!
//! One loop on the calling thread alternates two phases until every
//! core is done:
//!
//! * **Phase A (advance):** every *running* core, in index order,
//!   advances freely until it reaches the epoch ceiling or parks at a
//!   kernel entry (a failed page walk, a syscall, a rendezvous barrier)
//!   — see [`crate::runner::Pause`]. Phase A touches only state that
//!   phase B alone changes: page-table reads, commutative accessed/dirty
//!   PTE bits, and each core's own TLB/clock/stats, so a core's outcome
//!   does not depend on the order the cores advance in.
//! * **Phase B (sequential fold):** the epoch's parked kernel entries
//!   and due maintenance timers, all strictly below the ceiling, are
//!   sorted by the total order `(virtual_time, event_rank, core_id)` and
//!   committed in exactly that order. Before the fold, a classification
//!   pass counts the *shardable* prefix — entries whose effects provably
//!   stay inside one block-hash shard (PSPT minor faults, and fresh
//!   majors within the epoch's frame-pool budget) — as a diagnostic
//!   (DESIGN.md §14). The count never changes what commits or when.
//!
//! The epoch ceiling is `min(next event time) + W` where `W` is
//! [`cmcp_arch::CostModel::min_cross_core_latency`]: since every kernel
//! entry is stamp-ordered by phase B, the only cross-core channel that
//! can reach a core *outside* the kernel is a TLB shootdown, and real
//! hardware cannot deliver one in less than the IPI send + handle
//! latency. A core running up to `W` ahead of an eviction therefore
//! never uses a translation staler than the hardware would permit.
//! When no maintenance timer is armed, the window additionally
//! *fast-forwards*: if the second-earliest horizon (other cores' clocks
//! and parked stamps) lies beyond `min + W`, the ceiling jumps straight
//! to it — the merged epochs are exactly the no-op epochs a fixed
//! window would burn creeping a lone straggler forward, so the bytes
//! cannot move (§14).
//!
//! Because the ceiling is a pure function of simulated state and phase
//! B is one stamp-ordered fold, `(seed, config) → byte-identical
//! RunReport`.

use cmcp_arch::{CoreId, Cycles, VirtPage};
use cmcp_kernel::{SchemeChoice, Syscall, Vmm};
use cmcp_trace::{EventKind, Recorder};

use crate::report::{EngineScaling, RunReport};
use crate::runner::{CoreRunner, Pause};
use crate::trace::Trace;

/// Host-side counters of the deleted worker pool, always zero: the
/// engine runs on one thread and never waits at a host barrier. Kept,
/// with [`run_with_host_stats`], only because perfbench still reads
/// these fields; both go in the benchmark follow-up.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct HostScaling {
    /// Always 0.
    pub parallel_rounds: u64,
    /// Always 0.
    pub barrier_spins: u64,
    /// Always 0.
    pub barrier_yields: u64,
    /// Always 0.
    pub barrier_sleeps: u64,
}

/// Where a core stands between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Advancing in phase A.
    Running,
    /// Parked in the fault trap; phase B runs the handler.
    Fault { page: VirtPage, write: bool },
    /// Parked on an offloaded syscall; phase B executes it.
    Syscall { call: Syscall },
    /// Arrived at its rendezvous barrier this epoch (not yet noted).
    Arrived,
    /// Waiting at the rendezvous; excluded from the ceiling until every
    /// live core arrives.
    Waiting,
    /// Trace exhausted.
    Done,
}

/// One core's parked state: its status and the virtual time at which
/// phase A left it (its clock then).
#[derive(Clone, Copy)]
struct Slot {
    status: Status,
    stamp: Cycles,
}

/// What a phase-B candidate commits.
#[derive(Clone, Copy)]
enum EntryKind {
    /// Policy scan-timer tick.
    Scan,
    /// Periodic PSPT rebuild.
    Rebuild,
    /// A parked page fault.
    Fault { page: VirtPage, write: bool },
    /// A parked offloaded syscall (never shardable: the IKC channel is
    /// a shared, order-sensitive resource).
    Syscall { call: Syscall },
}

/// One phase-B candidate. Ordering is `(time, rank, core)`: rank orders
/// simultaneous events deterministically — the scan timer before the
/// rebuild timer before core entries (a timer due at `t` conceptually
/// fired while the cores were still en route to `t`).
#[derive(Clone, Copy)]
struct Cand {
    time: Cycles,
    rank: u8,
    core: usize,
    kind: EntryKind,
}

/// The engine's state between epochs: every core's slot, the ceiling,
/// the maintenance timers, the rendezvous counter, the candidate
/// scratch, and the scaling counters.
struct Engine {
    slots: Vec<Slot>,
    /// Epoch ceiling: phase A advances running cores while their clocks
    /// are strictly below it.
    ceiling: Cycles,
    window: Cycles,
    scanning: bool,
    scan_period: Cycles,
    next_scan: Cycles,
    rebuild_period: Cycles,
    next_rebuild: Cycles,
    barrier_seq: u64,
    /// Fast-forward is sound only while no maintenance timer is armed
    /// (a timer firing mid-merged-epoch would fire at a different point
    /// in the straggler's progress than under the base window).
    fast_forward: bool,
    /// Reused per-epoch candidate buffer (sorted commit order).
    cands: Vec<Cand>,
    scaling: EngineScaling,
}

impl Engine {
    fn new<R: Recorder>(vmm: &Vmm<R>, cores: usize) -> Engine {
        let window = vmm.cost().min_cross_core_latency();
        let scanning = vmm.wants_periodic_scan();
        let rebuild_period = vmm.rebuild_period();
        Engine {
            slots: vec![
                Slot {
                    status: Status::Running,
                    stamp: 0,
                };
                cores
            ],
            // All clocks start at zero, so the first ceiling is the window.
            ceiling: window,
            window,
            scanning,
            scan_period: vmm.scan_period(),
            next_scan: vmm.scan_period(),
            rebuild_period,
            next_rebuild: rebuild_period,
            barrier_seq: 0,
            fast_forward: !scanning && rebuild_period == 0,
            cands: Vec::new(),
            scaling: EngineScaling::default(),
        }
    }

    /// Phase A: advances every running core, in index order, to the
    /// ceiling or its next kernel entry, and parks it there.
    fn advance<R: Recorder>(&mut self, vmm: &Vmm<R>, trace: &Trace, runners: &mut [CoreRunner]) {
        for (i, (slot, runner)) in self.slots.iter_mut().zip(runners).enumerate() {
            if slot.status != Status::Running {
                continue;
            }
            let (pause, stamp) = runner.advance(vmm, &trace.cores[i], self.ceiling);
            slot.status = match pause {
                Pause::Ceiling => Status::Running,
                Pause::Fault { page, write } => Status::Fault { page, write },
                Pause::Syscall { call } => Status::Syscall { call },
                Pause::Barrier => Status::Arrived,
                Pause::Done => Status::Done,
            };
            slot.stamp = stamp;
        }
    }

    /// Phase B: folds rendezvous arrivals, collects this epoch's
    /// candidates, counts the shardable prefix, commits every candidate
    /// in stamp order, and closes the epoch. Returns whether any core is
    /// still live.
    fn commit_epoch<R: Recorder>(&mut self, vmm: &Vmm<R>) -> bool {
        let ceiling = self.ceiling;
        self.scaling.epochs += 1;

        // Note this epoch's rendezvous arrivals.
        for slot in &mut self.slots {
            if slot.status == Status::Arrived {
                slot.status = Status::Waiting;
            }
        }

        // Collect every candidate strictly below the ceiling. Committing
        // an entry can neither add nor remove candidates within this
        // phase (an unparked core only resumes next phase A; timers'
        // later firings are enumerated here), so one collection pass is
        // equivalent to a per-round min-scan.
        self.cands.clear();
        if self.scanning {
            let mut t = self.next_scan;
            while t < ceiling {
                self.cands.push(Cand {
                    time: t,
                    rank: 0,
                    core: 0,
                    kind: EntryKind::Scan,
                });
                t += self.scan_period;
            }
        }
        if self.rebuild_period > 0 {
            let mut t = self.next_rebuild;
            while t < ceiling {
                self.cands.push(Cand {
                    time: t,
                    rank: 1,
                    core: 0,
                    kind: EntryKind::Rebuild,
                });
                t += self.rebuild_period;
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.stamp >= ceiling {
                continue;
            }
            let kind = match slot.status {
                Status::Fault { page, write } => EntryKind::Fault { page, write },
                Status::Syscall { call } => EntryKind::Syscall { call },
                _ => continue,
            };
            self.cands.push(Cand {
                time: slot.stamp,
                rank: 2,
                core: i,
                kind,
            });
        }
        self.cands
            .sort_unstable_by_key(|c| (c.time, c.rank, c.core));

        let shardable = self.shardable_prefix(vmm);
        self.scaling.committed += self.cands.len() as u64;
        self.scaling.shardable += shardable as u64;
        self.scaling.reconciled += (self.cands.len() - shardable) as u64;

        // The sequential fold.
        for idx in 0..self.cands.len() {
            let c = self.cands[idx];
            match c.kind {
                EntryKind::Scan => {
                    vmm.scan_tick();
                    self.next_scan += self.scan_period;
                }
                EntryKind::Rebuild => {
                    vmm.rebuild_pspt();
                    self.next_rebuild += self.rebuild_period;
                }
                EntryKind::Fault { page, write } => {
                    // A commit earlier in this fold (another core's fault
                    // on the same block, under the shared regular table)
                    // may have installed the mapping since this core's
                    // walk failed in phase A. Hardware retries the walk
                    // on fault return — a now-present PTE means no fault
                    // is ever taken, so re-probe before charging one.
                    if vmm.translate(CoreId(c.core as u16), page).is_none() {
                        vmm.handle_fault(CoreId(c.core as u16), page, write);
                    }
                    self.slots[c.core].status = Status::Running;
                }
                EntryKind::Syscall { call } => {
                    vmm.offload_syscall(CoreId(c.core as u16), call);
                    self.slots[c.core].status = Status::Running;
                }
            }
        }
        self.epilogue(vmm)
    }

    /// Length of the sorted candidates' shardable prefix (DESIGN.md §14):
    /// it ends at the first entry whose effects might escape its
    /// block-hash shard. A fault is shard-local iff the scheme is PSPT
    /// (per-block directory entries + sharded PT locks), the allocator is
    /// the fixed-size pool (the buddy pool is one global resource), the
    /// topology is single-node (multi-node commits read the shared
    /// per-node books), and the fault is either minor (block resident:
    /// PTE copy only) or a *fresh* major — no backing copy to DMA in,
    /// and within the epoch's free-block budget so no eviction can fire.
    /// A pure function of simulated state read before the fold; nothing
    /// commits differently for it.
    fn shardable_prefix<R: Recorder>(&self, vmm: &Vmm<R>) -> usize {
        let cfg = vmm.config();
        if cfg.scheme != SchemeChoice::Pspt || cfg.adaptive || !cfg.cost.numa.is_single() {
            return 0;
        }
        let budget = vmm.pool_free_blocks().unwrap_or(0);
        let mut majors = 0usize;
        self.cands
            .iter()
            .take_while(|c| {
                let EntryKind::Fault { page, .. } = c.kind else {
                    return false;
                };
                if vmm.block_resident(page) {
                    true
                } else if !vmm.backing_contains(page) && majors < budget {
                    majors += 1;
                    true
                } else {
                    false
                }
            })
            .count()
    }

    /// Epoch close-out: rendezvous release, finish detection, and the
    /// next ceiling (with the timer-free fast-forward). Returns whether
    /// any core is still live.
    fn epilogue<R: Recorder>(&mut self, vmm: &Vmm<R>) -> bool {
        let mut live = 0usize;
        let mut waiting = 0usize;
        for slot in &self.slots {
            match slot.status {
                Status::Done => {}
                Status::Waiting => {
                    live += 1;
                    waiting += 1;
                }
                _ => live += 1,
            }
        }

        if live == 0 {
            return false;
        }

        // Rendezvous release: all live cores resume at the maximum
        // arrival time, exactly like an OpenMP barrier in virtual time.
        // This happens *before* the ceiling recomputation so waiting
        // cores rejoin the min().
        if waiting == live {
            let mut clocks = vmm.clocks_mut();
            let release = self
                .slots
                .iter()
                .zip(clocks.iter())
                .filter(|(s, _)| s.status == Status::Waiting)
                .map(|(_, clock)| clock.now())
                .max()
                .unwrap_or(0);
            for (i, (slot, clock)) in self.slots.iter_mut().zip(clocks.iter_mut()).enumerate() {
                if slot.status == Status::Waiting {
                    if R::ENABLED {
                        vmm.tracer().record(
                            i as u16,
                            release,
                            EventKind::BarrierArrive,
                            self.barrier_seq,
                            release - clock.now(),
                        );
                    }
                    clock.advance_to(release);
                    slot.status = Status::Running;
                }
            }
            self.barrier_seq += 1;
            self.scaling.releases += 1;
        }

        // Next ceiling: the earliest thing that can happen anywhere —
        // a running core's clock or a still-parked event (its stamp
        // overshot this ceiling) — plus the cross-core window. With no
        // timer armed, a lone straggler more than a window behind the
        // runner-up fast-forwards to the runner-up's horizon: the
        // skipped epochs would each have advanced only the straggler
        // (everyone else sits at or beyond the horizon), committed
        // nothing of anyone else's, and delivered nothing (posts only
        // happen at commits the straggler itself triggers, which end
        // its phase A anyway) — pure no-ops, so merging them cannot
        // move a byte (§14).
        let mut m1 = u64::MAX;
        let mut m2 = u64::MAX;
        for (slot, clock) in self.slots.iter().zip(vmm.clocks().iter()) {
            let bound = match slot.status {
                Status::Running => clock.now(),
                Status::Fault { .. } | Status::Syscall { .. } => slot.stamp,
                Status::Waiting | Status::Done => continue,
                Status::Arrived => unreachable!("arrivals were folded above"),
            };
            if bound < m1 {
                m2 = m1;
                m1 = bound;
            } else if bound < m2 {
                m2 = bound;
            }
        }
        debug_assert_ne!(m1, u64::MAX, "a live core must bound the ceiling");
        let base = m1.saturating_add(self.window);
        self.ceiling = if self.fast_forward && m2 > base {
            self.scaling.fast_forwards += 1;
            m2
        } else {
            base
        };
        true
    }
}

/// Runs `trace` against `vmm` and returns the report.
///
/// Panics if the trace shape is invalid (mismatched barrier counts), or
/// if the trace's core count differs from the kernel's.
pub fn run<R: Recorder>(vmm: &mut Vmm<R>, trace: &Trace) -> RunReport {
    run_epochs(vmm, trace, || {})
}

/// [`run`], plus a [`HostScaling`] that is always zero. Kept only for
/// perfbench until the benchmark follow-up; `threads` is ignored.
#[doc(hidden)]
pub fn run_with_host_stats<R: Recorder>(
    vmm: &Vmm<R>,
    trace: &Trace,
    _threads: usize,
) -> (RunReport, HostScaling) {
    (run_epochs(vmm, trace, || {}), HostScaling::default())
}

/// [`run`], calling `hook(0)` once at the start of every epoch. Kept
/// only for perfbench, which stamps host time per epoch with it, until
/// the benchmark follow-up; `threads` is ignored.
#[doc(hidden)]
pub fn run_with_worker_hook<R: Recorder, F: Fn(usize)>(
    vmm: &Vmm<R>,
    trace: &Trace,
    _threads: usize,
    hook: &F,
) -> RunReport {
    run_epochs(vmm, trace, || hook(0))
}

/// The engine loop: phase A over every running core, then phase B,
/// until every core is done. `hook` runs before each epoch's phase A.
fn run_epochs<R: Recorder>(vmm: &Vmm<R>, trace: &Trace, mut hook: impl FnMut()) -> RunReport {
    trace.validate().expect("invalid trace");
    let n = trace.cores.len();
    assert_eq!(
        n,
        vmm.config().cores,
        "trace core count must match kernel config"
    );

    let mut engine = Engine::new(vmm, n);
    let mut runners: Vec<CoreRunner> = (0..n)
        .map(|i| CoreRunner::new(CoreId(i as u16), vmm))
        .collect();
    let mut live = n > 0;
    while live {
        hook();
        engine.advance(vmm, trace, &mut runners);
        live = engine.commit_epoch(vmm);
    }

    let mut report = RunReport::collect(vmm, &runners, &trace.label, &config_label(vmm));
    report.scaling = engine.scaling;
    report
}

pub(crate) fn config_label<R: Recorder>(vmm: &Vmm<R>) -> String {
    let cfg = vmm.config();
    let mut label = format!(
        "{} + {} @ {}",
        cfg.scheme,
        cfg.policy.label(),
        cfg.block_size
    );
    if cfg.adaptive {
        label.push_str(" (adaptive)");
    }
    if !cfg.tiers().is_flat() {
        label.push_str(&format!(" [{} tiers]", cfg.tiers().tiers.len()));
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;
    use cmcp_arch::{PageSize, VirtPage};
    use cmcp_core::PolicyKind;
    use cmcp_kernel::KernelConfig;

    /// Two cores stream over private ranges with barriers between phases.
    fn private_sweep_trace(cores: usize, pages_per_core: u16, rounds: usize) -> Trace {
        let mut t = Trace::new(cores, "private-sweep");
        for c in 0..cores {
            let base = VirtPage((c as u64) << 20);
            for _ in 0..rounds {
                t.cores[c].ops.push(Op::Stream {
                    start: base,
                    pages: pages_per_core,
                    write: false,
                    work_per_page: 4,
                });
                t.cores[c].ops.push(Op::Barrier);
            }
        }
        t
    }

    /// Cores share a hot range and write private ranges — eviction
    /// pressure with cross-core shootdown traffic when memory is tight.
    fn shared_and_private_trace(cores: usize, rounds: usize) -> Trace {
        let mut t = Trace::new(cores, "par-test");
        for c in 0..cores {
            let private = VirtPage(0x1000 + ((c as u64) << 8));
            for _ in 0..rounds {
                t.cores[c].ops.push(Op::Stream {
                    start: VirtPage(0),
                    pages: 16,
                    write: false,
                    work_per_page: 2,
                });
                t.cores[c].ops.push(Op::Stream {
                    start: private,
                    pages: 32,
                    write: true,
                    work_per_page: 2,
                });
                t.cores[c].ops.push(Op::Barrier);
            }
        }
        t
    }

    #[test]
    fn run_completes_and_reports() {
        let t = private_sweep_trace(2, 64, 3);
        let mut vmm = Vmm::new(KernelConfig::new(2, 256));
        let r = run(&mut vmm, &t);
        assert!(r.runtime_cycles > 0);
        assert_eq!(r.per_core.len(), 2);
        assert_eq!(r.per_core[0].dtlb_accesses, 64 * 3);
        // Plenty of memory: only cold faults.
        assert_eq!(r.per_core[0].page_faults, 64);
        assert_eq!(r.global.evictions, 0);
        // The scaling counters balance and saw every fault commit.
        assert!(r.scaling.epochs > 0);
        assert_eq!(
            r.scaling.committed,
            r.scaling.shardable + r.scaling.reconciled
        );
        assert!(r.scaling.committed >= 128, "both cores' faults commit");
    }

    #[test]
    fn runs_are_bit_identical() {
        let t = private_sweep_trace(4, 128, 4);
        let run = || {
            let mut vmm =
                Vmm::new(KernelConfig::new(4, 96).with_policy(PolicyKind::Cmcp { p: 0.5 }));
            let r = super::run(&mut vmm, &t);
            (r.runtime_cycles, r.avg_page_faults(), r.global.evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cold_faults_classify_shardable_and_repeat_runs_match() {
        // Under eviction pressure with LRU (scan timer live) and
        // shootdowns, and with 8 cores faulting under ample memory, where
        // every fault is a minor or a fresh major: the cold faults land in
        // the shardable prefix, and a fresh kernel renders the same bytes.
        let inputs = [
            (shared_and_private_trace(4, 4), 48, PolicyKind::Lru),
            (
                shared_and_private_trace(8, 4),
                512,
                PolicyKind::Cmcp { p: 0.5 },
            ),
        ];
        for (t, blocks, policy) in inputs {
            let cores = t.cores.len();
            let render = || {
                let mut vmm = Vmm::new(KernelConfig::new(cores, blocks).with_policy(policy));
                run(&mut vmm, &t)
            };
            let base = render();
            assert!(
                base.scaling.shardable > 0,
                "cold faults must classify shardable: {:?}",
                base.scaling
            );
            assert_eq!(format!("{base:?}"), format!("{:?}", render()));
        }
    }

    #[test]
    fn fast_forward_engages_without_timers_and_never_with_them() {
        // One straggler core works through a long private phase while
        // the other sits far ahead: with no scan timer armed the engine
        // must fast-forward instead of creeping window-by-window.
        let mut t = Trace::new(2, "straggle");
        t.cores[0].ops.push(Op::Stream {
            start: VirtPage(0),
            pages: 64,
            write: false,
            work_per_page: 8,
        });
        t.cores[1].ops.push(Op::Compute(200_000_000));
        t.cores[1].ops.push(Op::touch(VirtPage(1 << 20), false, 1));
        let mut vmm = Vmm::new(KernelConfig::new(2, 256));
        let r = run(&mut vmm, &t);
        assert!(
            r.scaling.fast_forwards > 0,
            "straggler phases must fast-forward: {:?}",
            r.scaling
        );
        // LRU arms the scan timer, which forbids fast-forwarding.
        let mut vmm = Vmm::new(KernelConfig::new(2, 256).with_policy(PolicyKind::Lru));
        let r = run(&mut vmm, &t);
        assert_eq!(r.scaling.fast_forwards, 0, "timers disable fast-forward");
    }

    #[test]
    fn the_compatibility_entries_run_one_epoch_loop() {
        // The hook sees worker 0 once per epoch, the host counters are
        // zero, and neither entry moves a report byte.
        let t = shared_and_private_trace(4, 2);
        let fresh = || Vmm::new(KernelConfig::new(4, 64));
        let plain = format!("{:?}", run(&mut fresh(), &t));
        let calls = std::cell::Cell::new(0u64);
        let hooked = run_with_worker_hook(&fresh(), &t, 2, &|worker| {
            assert_eq!(worker, 0);
            calls.set(calls.get() + 1);
        });
        assert_eq!(calls.get(), hooked.scaling.epochs);
        assert_eq!(format!("{hooked:?}"), plain);
        let (report, host) = run_with_host_stats(&fresh(), &t, 2);
        assert_eq!(format!("{report:?}"), plain);
        assert_eq!(
            (
                host.parallel_rounds,
                host.barrier_spins,
                host.barrier_yields,
                host.barrier_sleeps
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        // Core 1 computes 1M cycles before the barrier; core 0 nothing.
        let mut t = Trace::new(2, "skew");
        t.cores[0].ops.push(Op::Barrier);
        t.cores[1].ops.push(Op::Compute(1_000_000));
        t.cores[1].ops.push(Op::Barrier);
        t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
        let mut vmm = Vmm::new(KernelConfig::new(2, 16));
        run(&mut vmm, &t);
        assert!(
            vmm.clocks()[0].now() >= 1_000_000,
            "core0 waited at the barrier"
        );
    }

    #[test]
    fn memory_pressure_causes_evictions_and_refaults() {
        // One core sweeps 64 pages repeatedly with only 32 resident.
        let sweep = |write: bool| {
            let mut t = Trace::new(1, "thrash");
            for _ in 0..4 {
                t.cores[0].ops.push(Op::Stream {
                    start: VirtPage(0),
                    pages: 64,
                    write,
                    work_per_page: 2,
                });
            }
            run(&mut Vmm::new(KernelConfig::new(1, 32)), &t)
        };
        let r = sweep(true);
        assert!(r.global.evictions > 64, "sweep must thrash");
        assert!(r.per_core[0].page_faults > 64);
        assert!(r.dma_bytes.1 > 0, "dirty sweeps write back");
        assert!(r.global.refaults > 0);
        // Refaults DMA backing copies in: never shardable.
        assert!(r.scaling.reconciled > 0, "{:?}", r.scaling);
        // The same pressure read-only: every walk marks A and never D,
        // so no victim is dirty and nothing goes back to the host.
        let r = sweep(false);
        assert!(r.global.evictions > 64, "read sweep must thrash too");
        assert_eq!(r.global.writebacks, 0);
        assert_eq!(r.dma_bytes.1, 0, "clean sweeps write nothing back");
    }

    #[test]
    fn shared_pressure_run_executes_every_touch() {
        let t = shared_and_private_trace(4, 4);
        // Footprint: 16 shared + 4×32 private = 144 pages; constrain to 64.
        let mut vmm = Vmm::new(KernelConfig::new(4, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
        let r = run(&mut vmm, &t);
        assert!(r.global.evictions > 0);
        assert!(r.runtime_cycles > 0);
        // Every core executed all its touches.
        for c in &r.per_core {
            assert_eq!(c.dtlb_accesses, 4 * (16 + 32));
        }
    }

    #[test]
    fn a_fault_another_core_resolved_is_not_charged() {
        // Under the shared regular table, two cores fault on one page in
        // the first epoch. The earlier commit maps it for both, so the
        // later one's re-probe finds the PTE and no second fault is taken.
        let mut t = Trace::new(2, "same-page");
        for core in &mut t.cores {
            core.ops.push(Op::touch(VirtPage(5), false, 1));
        }
        let mut vmm = Vmm::new(KernelConfig::new(2, 16).with_scheme(SchemeChoice::Regular));
        let r = run(&mut vmm, &t);
        assert_eq!(
            r.scaling.committed, 2,
            "both cores parked in the fault trap"
        );
        let faults: Vec<u64> = r.per_core.iter().map(|c| c.page_faults).collect();
        assert_eq!(faults, [1, 0], "one fault charged, to the earlier core");
    }

    #[test]
    fn a_split_stream_reports_like_the_whole_one() {
        // Two cores sweep overlapping 300-page runs into 64 blocks, each
        // run whole or cut into adjacent ops at uneven points. The runner
        // checks its ceiling between any two touches, so no byte moves.
        let trace = |cuts: [&[u16]; 2]| {
            let mut t = Trace::new(2, "split");
            for (c, cuts) in cuts.into_iter().enumerate() {
                let start = VirtPage(100 * c as u64);
                let bounds: Vec<u16> = [0].iter().chain(cuts).chain(&[300]).copied().collect();
                for write in [true, false] {
                    for w in bounds.windows(2) {
                        t.cores[c].ops.push(Op::Stream {
                            start: start.add(u64::from(w[0])),
                            pages: w[1] - w[0],
                            write,
                            work_per_page: 3,
                        });
                    }
                    t.cores[c].ops.push(Op::Barrier);
                }
            }
            t
        };
        let whole = trace([&[], &[]]);
        let split = trace([&[137], &[1, 211]]);
        assert_eq!(whole.total_touches(), split.total_touches());
        let report = |t: &Trace| {
            let mut vmm =
                Vmm::new(KernelConfig::new(2, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
            let r = run(&mut vmm, t);
            assert!(r.global.evictions > 0, "under eviction pressure");
            format!("{r:?}")
        };
        assert_eq!(report(&whole), report(&split));
    }

    #[test]
    fn a_replayed_run_reports_like_its_copy() {
        // Two cores run three iterations of one body, the last two copied
        // or replayed. The body opens with a compute of eight epoch
        // windows: the barrier before it releases both cores at one
        // stamp, so the ceiling is one window ahead and every pass pauses
        // there. It then sweeps 300 pages twice into 64 blocks, so every
        // pass faults, with a barrier between the sweeps (LU's shape).
        let window = KernelConfig::new(2, 64).cost.min_cross_core_latency();
        let trace = |iterations: usize, replay: bool| {
            let mut t = Trace::new(2, "replay");
            for (c, core) in t.cores.iter_mut().enumerate() {
                let start = VirtPage(100 * c as u64);
                core.ops.extend([Op::touch(start, true, 1), Op::Barrier]);
                let body = core.ops.len()..core.ops.len() + 5;
                core.ops.push(Op::Compute(8 * window));
                for write in [true, false] {
                    core.ops.push(Op::Stream {
                        start,
                        pages: 300,
                        write,
                        work_per_page: 3,
                    });
                    core.ops.push(Op::Barrier);
                }
                for _ in 1..iterations {
                    if replay {
                        core.ops.push(Op::Replay {
                            start: body.start as u32,
                            len: body.len() as u32,
                        });
                    } else {
                        core.ops.extend_from_within(body.clone());
                    }
                }
            }
            t
        };
        let (copied, replayed) = (trace(3, false), trace(3, true));
        assert_eq!(replayed.cores[0].ops.len(), 9);
        assert_eq!(copied.total_touches(), replayed.total_touches());
        let run = |t: &Trace| {
            let mut vmm =
                Vmm::new(KernelConfig::new(2, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
            super::run(&mut vmm, t)
        };
        let faults = |r: &RunReport| r.per_core.iter().map(|c| c.page_faults).sum::<u64>();
        assert!(
            faults(&run(&replayed)) > faults(&run(&trace(1, true))),
            "the replays fault"
        );
        let report = |t: &Trace| {
            let r = run(t);
            assert!(r.global.evictions > 0, "under eviction pressure");
            format!("{r:?}")
        };
        assert_eq!(report(&copied), report(&replayed));
    }

    #[test]
    fn scan_timer_fires_under_lru() {
        let mut t = Trace::new(1, "scan");
        // Enough compute to cross several 10 ms scan periods.
        for _ in 0..5 {
            t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
            t.cores[0].ops.push(Op::Compute(11_000_000));
        }
        let mut vmm = Vmm::new(KernelConfig::new(1, 16).with_policy(PolicyKind::Lru));
        let r = run(&mut vmm, &t);
        assert!(
            r.global.scan_ticks >= 4,
            "timer must fire each period: {}",
            r.global.scan_ticks
        );
    }

    #[test]
    fn no_scan_ticks_for_fifo_or_cmcp() {
        for policy in [PolicyKind::Fifo, PolicyKind::Cmcp { p: 0.75 }] {
            let mut t = Trace::new(1, "noscan");
            t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
            t.cores[0].ops.push(Op::Compute(50_000_000));
            let mut vmm = Vmm::new(KernelConfig::new(1, 16).with_policy(policy));
            let r = run(&mut vmm, &t);
            assert_eq!(r.global.scan_ticks, 0);
        }
    }

    #[test]
    fn config_label_mentions_all_knobs() {
        let vmm = Vmm::new(
            KernelConfig::new(1, 4)
                .with_policy(PolicyKind::Lru)
                .with_block_size(PageSize::K64),
        );
        let label = config_label(&vmm);
        assert!(label.contains("PSPT"));
        assert!(label.contains("LRU"));
        assert!(label.contains("64kB"));
    }

    #[test]
    fn syscall_op_blocks_the_core() {
        let mut t = Trace::new(1, "io");
        t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
        t.cores[0].ops.push(Op::Syscall {
            payload: 1 << 20,
            write: true,
        });
        let mut vmm = Vmm::new(KernelConfig::new(1, 8));
        run(&mut vmm, &t);
        assert_eq!(vmm.offload().requests(), 1);
        assert_eq!(vmm.offload().payload_bytes(), 1 << 20);
        // A 1 MB IKC write is far more expensive than the page touch.
        assert!(vmm.clocks()[0].now() > 100_000);
    }

    #[test]
    fn rebuild_timer_tears_down_and_recovers() {
        // Two cores share a block; after the rebuild period passes, the
        // mappings are torn down and re-established via minor faults.
        let mut t = Trace::new(2, "rebuild");
        for c in 0..2 {
            for round in 0..6 {
                t.cores[c].ops.push(Op::touch(VirtPage(7), false, 1));
                t.cores[c].ops.push(Op::Compute(400_000 + round as u64));
                t.cores[c].ops.push(Op::Barrier);
            }
        }
        let mut cfg = KernelConfig::new(2, 8);
        cfg.pspt_rebuild_period = 1_000_000;
        let mut vmm = Vmm::new(cfg);
        let r = run(&mut vmm, &t);
        assert!(
            r.global.rebuilds >= 1,
            "timer must fire: {}",
            r.global.rebuilds
        );
        // Extra faults beyond the 1 cold major + 1 minor: the re-mapping
        // after each rebuild.
        let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
        assert!(faults > 2, "rebuild forces re-faulting: {faults}");
        assert_eq!(r.global.evictions, 0, "frames never moved");
        assert_eq!(r.dma_bytes, (0, 0), "no data was transferred");
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn mismatched_core_count_is_rejected() {
        let t = private_sweep_trace(2, 4, 1);
        let mut vmm = Vmm::new(KernelConfig::new(3, 16));
        run(&mut vmm, &t);
    }
}
