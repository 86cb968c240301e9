//! The unified epoch-barrier discrete-event engine.
//!
//! One event-advance code path serves every thread count; `threads = 1`
//! *is* the deterministic engine, and any other count produces the
//! byte-identical report. Execution alternates two phases separated by
//! host-side sense-reversing barriers:
//!
//! * **Phase A (parallel):** simulated cores are partitioned round-robin
//!   across workers; each worker advances its *running* cores freely
//!   until they reach the epoch ceiling or park at a kernel entry (a
//!   failed page walk, a syscall, a rendezvous barrier) — see
//!   [`crate::runner::Pause`]. Phase A touches only frozen kernel state:
//!   page-table reads, commutative accessed/dirty PTE bits, and each
//!   core's own TLB/clock/stats, so its outcome per core is independent
//!   of scheduling.
//! * **Phase B (sequential fold):** the epoch's parked kernel entries
//!   and due maintenance timers, all strictly below the ceiling, are
//!   sorted by the total order `(virtual_time, event_rank, core_id)` and
//!   committed by worker 0 in exactly that order. Before the fold, a
//!   classification pass counts the *shardable* prefix — entries whose
//!   effects provably stay inside one block-hash shard (PSPT minor
//!   faults, and fresh majors within the epoch's frame-pool budget) —
//!   as a diagnostic of how much of phase B could commit concurrently
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
//! Because the ceiling is a pure function of simulated state, phase A is
//! per-core independent, and phase B is one stamp-ordered fold on one
//! thread, `(seed, config) → byte-identical RunReport` at any thread
//! count.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
// The sleep tier needs a real OS condvar (the parking_lot shim is
// spin-only by design); the barrier gate is cold, so std's poisoning
// overhead is irrelevant there.
use std::sync::{Condvar, Mutex as StdMutex};

use cmcp_arch::{CoreId, Cycles, VirtPage};
use cmcp_kernel::{SchemeChoice, Syscall, Vmm};
use cmcp_trace::{EventKind, Recorder};

use crate::report::{EngineScaling, RunReport};
use crate::runner::{CoreRunner, Pause};
use crate::trace::Trace;

/// Host-side (thread-count- and machine-dependent) scaling counters for
/// one run. These never enter the byte-compared [`RunReport`] — repeat
/// runs at the same thread count produce identical reports but may
/// spin or sleep differently at the barriers.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostScaling {
    /// Worker threads the engine actually ran (after clamping to the
    /// simulated core count).
    pub threads: usize,
    /// Always 0: phase B commits sequentially on worker 0, so no epoch
    /// runs a concurrent commit round. Kept for readers of the field.
    pub parallel_rounds: u64,
    /// Barrier-wait spin iterations across all workers.
    pub barrier_spins: u64,
    /// Barrier-wait `yield_now` calls across all workers.
    pub barrier_yields: u64,
    /// Barrier waits that fell through to a condvar sleep (the
    /// oversubscription tier: waiters stop burning a core).
    pub barrier_sleeps: u64,
}

/// Where a core stands between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Advancing in phase A.
    Running,
    /// Parked in the fault trap; the committer runs the handler.
    Fault { page: VirtPage, write: bool },
    /// Parked on an offloaded syscall; the committer executes it.
    Syscall { call: Syscall },
    /// Arrived at its rendezvous barrier this epoch (not yet noted).
    Arrived,
    /// Waiting at the rendezvous; excluded from the ceiling until every
    /// live core arrives.
    Waiting,
    /// Trace exhausted.
    Done,
}

/// One core's parked state, written by its worker at the end of phase A
/// and read/updated by the committer in phase B.
///
/// The words are `Relaxed` atomics rather than a locked struct: every
/// slot has one writer per phase — in phase A the worker that owns the
/// core, in phase B worker 0 — and the [`PhaseBarrier`] release/acquire
/// edge orders each phase's writes before the next phase's reads
/// (DESIGN.md §10). A lock would order nothing the barrier does not.
///
/// The status packs into two words, like the PTE word: `tag` holds the
/// variant in bits 0–2 with its flags above, `payload` the faulting page
/// or the syscall's byte count (read only for the variants that carry
/// one, so a stale payload under any other tag is inert).
///
/// Each slot is 128-byte aligned (the adjacent-line prefetcher pairs
/// 64-byte lines): cores go to workers round-robin, so packed slots
/// would put two workers' phase-A parks on one line.
#[repr(align(128))]
struct Slot {
    tag: AtomicU64,
    payload: AtomicU64,
    /// Virtual time at which the core parked (== its clock then).
    stamp: AtomicU64,
}

// Slot tag word: the variant in bits 0–2, a fault's write flag in bit 3,
// a syscall's kind in bits 4–5.
const TAG_RUNNING: u64 = 0;
const TAG_FAULT: u64 = 1;
const TAG_SYSCALL: u64 = 2;
const TAG_ARRIVED: u64 = 3;
const TAG_WAITING: u64 = 4;
const TAG_DONE: u64 = 5;
const TAG_VARIANT: u64 = 0b111;
const TAG_WRITE: u64 = 1 << 3;
const TAG_CALL_SHIFT: u32 = 4;
const CALL_METADATA: u64 = 0;
const CALL_READ: u64 = 1;
const CALL_WRITE: u64 = 2;

impl Slot {
    /// A running core at time zero.
    fn new() -> Slot {
        Slot {
            tag: AtomicU64::new(TAG_RUNNING),
            payload: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
        }
    }

    fn status(&self) -> Status {
        let tag = self.tag.load(Ordering::Relaxed);
        match tag & TAG_VARIANT {
            TAG_RUNNING => Status::Running,
            TAG_FAULT => Status::Fault {
                page: VirtPage(self.payload.load(Ordering::Relaxed)),
                write: tag & TAG_WRITE != 0,
            },
            TAG_SYSCALL => {
                let bytes = self.payload.load(Ordering::Relaxed);
                let call = match tag >> TAG_CALL_SHIFT {
                    CALL_METADATA => Syscall::Metadata,
                    CALL_READ => Syscall::Read(bytes),
                    CALL_WRITE => Syscall::Write(bytes),
                    other => unreachable!("bad syscall kind {other} in slot tag"),
                };
                Status::Syscall { call }
            }
            TAG_ARRIVED => Status::Arrived,
            TAG_WAITING => Status::Waiting,
            TAG_DONE => Status::Done,
            other => unreachable!("bad status variant {other} in slot tag"),
        }
    }

    fn set_status(&self, status: Status) {
        let tag = match status {
            Status::Running => TAG_RUNNING,
            Status::Fault { page, write } => {
                self.payload.store(page.0, Ordering::Relaxed);
                TAG_FAULT | if write { TAG_WRITE } else { 0 }
            }
            Status::Syscall { call } => {
                let (kind, bytes) = match call {
                    Syscall::Metadata => (CALL_METADATA, 0),
                    Syscall::Read(bytes) => (CALL_READ, bytes),
                    Syscall::Write(bytes) => (CALL_WRITE, bytes),
                };
                self.payload.store(bytes, Ordering::Relaxed);
                TAG_SYSCALL | (kind << TAG_CALL_SHIFT)
            }
            Status::Arrived => TAG_ARRIVED,
            Status::Waiting => TAG_WAITING,
            Status::Done => TAG_DONE,
        };
        self.tag.store(tag, Ordering::Relaxed);
    }

    fn stamp(&self) -> Cycles {
        self.stamp.load(Ordering::Relaxed)
    }

    /// Records where phase A left the core: its status and its clock.
    fn park(&self, status: Status, stamp: Cycles) {
        self.stamp.store(stamp, Ordering::Relaxed);
        self.set_status(status);
    }
}

/// Spin iterations before a barrier waiter starts yielding.
const BARRIER_SPIN_LIMIT: u64 = 256;
/// `yield_now` calls before a waiter falls through to a condvar sleep.
/// Bounded so an oversubscribed run (threads > host CPUs) parks its
/// surplus waiters instead of convoying the scheduler forever.
const BARRIER_YIELD_LIMIT: u64 = 128;

/// Host-side sense-reversing barrier with a poison bit: a worker that
/// panics poisons it on unwind so the survivors return instead of
/// spinning forever, the scope join completes, and the original panic
/// propagates to the caller.
///
/// Waiting is three-tier — bounded spin, bounded `yield_now`, then a
/// condvar sleep — so threads ≤ cores cross in nanoseconds while an
/// oversubscribed run stops burning a host core per waiter.
struct PhaseBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// Waiters currently registered on the sleep tier; reads and writes
    /// are serialized by `gate`, so a releaser can only miss a sleeper
    /// that will re-check the generation under the same lock.
    sleepers: AtomicUsize,
    gate: StdMutex<()>,
    wake: Condvar,
    // Host-side wait accounting (Relaxed; reported via `HostScaling`).
    spins: AtomicU64,
    yields: AtomicU64,
    sleeps: AtomicU64,
}

impl PhaseBarrier {
    fn new(parties: usize) -> PhaseBarrier {
        PhaseBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            gate: StdMutex::new(()),
            wake: Condvar::new(),
            spins: AtomicU64::new(0),
            yields: AtomicU64::new(0),
            sleeps: AtomicU64::new(0),
        }
    }

    /// Blocks until all parties arrive. Returns `false` if the barrier
    /// was poisoned (a sibling worker panicked) — callers bail out.
    ///
    /// Ordering: each arrival's `AcqRel` RMW on `arrived` joins the
    /// release sequence, so the last arriver's `Release` store to
    /// `generation` publishes *every* party's prior writes; a waiter's
    /// `Acquire` load of the new generation therefore sees all phase
    /// work that preceded the barrier, and the `arrived` reset by the
    /// releaser happens-before any re-arrival at the next generation.
    /// The sleep tier re-checks the generation under `gate`, which the
    /// releaser's store also holds — the classic monitor pattern, so a
    /// waiter can never sleep through a release.
    fn wait(&self) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        if self.parties == 1 {
            return true;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            let any_sleepers = {
                let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
                self.generation
                    .store(gen.wrapping_add(1), Ordering::Release);
                self.sleepers.load(Ordering::Relaxed) > 0
            };
            if any_sleepers {
                self.wake.notify_all();
            }
            true
        } else {
            let mut spins = 0u64;
            let mut yields = 0u64;
            let crossed = loop {
                if self.generation.load(Ordering::Acquire) != gen {
                    break true;
                }
                if self.poisoned.load(Ordering::Acquire) {
                    break false;
                }
                if spins < BARRIER_SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else if yields < BARRIER_YIELD_LIMIT {
                    yields += 1;
                    std::thread::yield_now();
                } else {
                    self.sleeps.fetch_add(1, Ordering::Relaxed);
                    let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
                    self.sleepers.fetch_add(1, Ordering::Relaxed);
                    while self.generation.load(Ordering::Acquire) == gen
                        && !self.poisoned.load(Ordering::Acquire)
                    {
                        g = self.wake.wait(g).unwrap_or_else(|e| e.into_inner());
                    }
                    self.sleepers.fetch_sub(1, Ordering::Relaxed);
                    drop(g);
                    break self.generation.load(Ordering::Acquire) != gen
                        || !self.poisoned.load(Ordering::Acquire);
                }
            };
            if spins > 0 {
                self.spins.fetch_add(spins, Ordering::Relaxed);
            }
            if yields > 0 {
                self.yields.fetch_add(yields, Ordering::Relaxed);
            }
            crossed && !self.poisoned.load(Ordering::Acquire)
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Take and drop the gate so a sleeper past its predicate check
        // cannot miss the notify, then wake everyone.
        drop(self.gate.lock().unwrap_or_else(|e| e.into_inner()));
        self.wake.notify_all();
    }
}

/// Poisons the phase barrier when a worker unwinds, so a panic surfaces
/// instead of wedging the surviving workers.
struct PoisonOnPanic<'a>(&'a PhaseBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// State shared by all workers for one run.
struct Shared {
    slots: Vec<Slot>,
    /// Epoch ceiling: phase A advances running cores while their clocks
    /// are strictly below it. Written by the committer, read by all.
    ceiling: AtomicU64,
    finished: AtomicBool,
    barrier: PhaseBarrier,
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
    /// A parked offloaded syscall (never shardable: the IKC ring and
    /// offload engine are shared, order-sensitive resources).
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

/// The phase-B state: maintenance timers, the rendezvous counter, the
/// epoch window, the candidate scratch, and the scaling counters.
/// Owned by worker 0.
struct Committer {
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

impl Committer {
    /// Folds rendezvous arrivals, collects this epoch's candidates,
    /// counts the shardable prefix, and commits every candidate in stamp
    /// order. Runs with every worker parked at the host barrier, so it
    /// owns all simulated state.
    fn commit_epoch<R: Recorder>(&mut self, vmm: &Vmm<R>, shared: &Shared) {
        let ceiling = shared.ceiling.load(Ordering::Relaxed);
        self.scaling.epochs += 1;

        // Note this epoch's rendezvous arrivals.
        for slot in &shared.slots {
            if slot.status() == Status::Arrived {
                slot.set_status(Status::Waiting);
            }
        }

        // Collect every candidate strictly below the ceiling. Committing
        // an entry can neither add nor remove candidates within this
        // phase (an unparked core only resumes next phase A; timers'
        // later firings are enumerated here), so one collection pass is
        // equivalent to the old per-round min-scan.
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
        for (i, slot) in shared.slots.iter().enumerate() {
            let stamp = slot.stamp();
            if stamp >= ceiling {
                continue;
            }
            let kind = match slot.status() {
                Status::Fault { page, write } => EntryKind::Fault { page, write },
                Status::Syscall { call } => EntryKind::Syscall { call },
                _ => continue,
            };
            self.cands.push(Cand {
                time: stamp,
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
                    shared.slots[c.core].set_status(Status::Running);
                }
                EntryKind::Syscall { call } => {
                    vmm.offload_syscall(CoreId(c.core as u16), call);
                    shared.slots[c.core].set_status(Status::Running);
                }
            }
        }
        self.epilogue(vmm, shared);
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
    /// A pure function of simulated state read before the fold, so the
    /// count is thread-invariant; nothing commits differently for it.
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
    /// next ceiling (with the timer-free fast-forward).
    fn epilogue<R: Recorder>(&mut self, vmm: &Vmm<R>, shared: &Shared) {
        let mut live = 0usize;
        let mut waiting = 0usize;
        for slot in &shared.slots {
            match slot.status() {
                Status::Done => {}
                Status::Waiting => {
                    live += 1;
                    waiting += 1;
                }
                _ => live += 1,
            }
        }

        if live == 0 {
            shared.finished.store(true, Ordering::Release);
            return;
        }

        // Rendezvous release: all live cores resume at the maximum
        // arrival time, exactly like an OpenMP barrier in virtual time.
        // This happens *before* the ceiling recomputation so waiting
        // cores rejoin the min().
        if waiting == live {
            let release = shared
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.status() == Status::Waiting)
                .map(|(i, _)| vmm.clocks()[i].now())
                .max()
                .unwrap_or(0);
            for (i, slot) in shared.slots.iter().enumerate() {
                if slot.status() == Status::Waiting {
                    if R::ENABLED {
                        let arrived = vmm.clocks()[i].now();
                        vmm.tracer().record(
                            i as u16,
                            release,
                            EventKind::BarrierArrive,
                            self.barrier_seq,
                            release - arrived,
                        );
                    }
                    vmm.clocks()[i].advance_to(release);
                    slot.set_status(Status::Running);
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
        for (i, slot) in shared.slots.iter().enumerate() {
            let bound = match slot.status() {
                Status::Running => vmm.clocks()[i].now(),
                Status::Fault { .. } | Status::Syscall { .. } => slot.stamp(),
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
        let ceiling = if self.fast_forward && m2 > base {
            self.scaling.fast_forwards += 1;
            m2
        } else {
            base
        };
        shared.ceiling.store(ceiling, Ordering::Release);
    }
}

/// One worker's loop: advance owned cores to the ceiling (phase A),
/// rendezvous, let worker 0 commit (phase B), rendezvous, repeat.
fn worker<R: Recorder, F: Fn(usize) + Sync>(
    id: usize,
    cores: &mut [(usize, CoreRunner)],
    vmm: &Vmm<R>,
    trace: &Trace,
    shared: &Shared,
    hook: &F,
    mut committer: Option<&mut Committer>,
) {
    let _poison = PoisonOnPanic(&shared.barrier);
    loop {
        hook(id);
        let ceiling = shared.ceiling.load(Ordering::Acquire);
        for (i, runner) in cores.iter_mut() {
            let i = *i;
            let slot = &shared.slots[i];
            if slot.status() != Status::Running {
                continue;
            }
            let status = match runner.advance(vmm, &trace.cores[i], ceiling) {
                Pause::Ceiling => Status::Running,
                Pause::Fault { page, write } => Status::Fault { page, write },
                Pause::Syscall { call } => Status::Syscall { call },
                Pause::Barrier => Status::Arrived,
                Pause::Done => Status::Done,
            };
            slot.park(status, vmm.clocks()[i].now());
        }
        if !shared.barrier.wait() {
            return;
        }
        if let Some(c) = committer.as_mut() {
            c.commit_epoch(vmm, shared);
        }
        if !shared.barrier.wait() {
            return;
        }
        if shared.finished.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Runs `trace` against `vmm` on `threads` host workers and returns the
/// report. The report is byte-identical for every `threads` value.
///
/// Panics if `threads == 0`, if the trace shape is invalid (mismatched
/// barrier counts), or if the trace's core count differs from the
/// kernel's.
pub fn run<R: Recorder>(vmm: &Vmm<R>, trace: &Trace, threads: usize) -> RunReport {
    run_with_host_stats(vmm, trace, threads).0
}

/// [`run`], additionally returning the host-side (thread- and
/// machine-dependent) scaling counters: the barrier wait tiers.
pub fn run_with_host_stats<R: Recorder>(
    vmm: &Vmm<R>,
    trace: &Trace,
    threads: usize,
) -> (RunReport, HostScaling) {
    run_core(vmm, trace, threads, &|_| {})
}

/// [`run`] with a per-worker, per-epoch hook — a test seam for fault
/// injection into the host-threading layer (e.g. proving that a worker
/// panic surfaces instead of wedging the run).
#[doc(hidden)]
pub fn run_with_worker_hook<R: Recorder, F: Fn(usize) + Sync>(
    vmm: &Vmm<R>,
    trace: &Trace,
    threads: usize,
    hook: &F,
) -> RunReport {
    run_core(vmm, trace, threads, hook).0
}

fn run_core<R: Recorder, F: Fn(usize) + Sync>(
    vmm: &Vmm<R>,
    trace: &Trace,
    threads: usize,
    hook: &F,
) -> (RunReport, HostScaling) {
    assert!(threads > 0, "engine thread count must be >= 1");
    trace.validate().expect("invalid trace");
    let n = trace.cores.len();
    assert_eq!(
        n,
        vmm.config().cores,
        "trace core count must match kernel config"
    );

    let window = vmm.cost().min_cross_core_latency();
    let threads = threads.min(n.max(1));
    let shared = Shared {
        slots: (0..n).map(|_| Slot::new()).collect(),
        // All clocks start at zero, so the first ceiling is the window.
        ceiling: AtomicU64::new(window),
        finished: AtomicBool::new(n == 0),
        barrier: PhaseBarrier::new(threads),
    };
    let scanning = vmm.wants_periodic_scan();
    let rebuild_period = vmm.rebuild_period();
    let mut committer = Committer {
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
    };

    // Core i belongs to worker i % threads, like the old parallel
    // engine's chunking — neighbours spread across workers.
    let mut chunks: Vec<Vec<(usize, CoreRunner)>> = (0..threads).map(|_| Vec::new()).collect();
    for i in 0..n {
        chunks[i % threads].push((i, CoreRunner::new(CoreId(i as u16), vmm)));
    }

    if n > 0 {
        if threads == 1 {
            // The degenerate case: phase A and phase B alternate on this
            // thread with no spawns and free barriers — the deterministic
            // engine, by construction rather than by a separate code path.
            worker(
                0,
                &mut chunks[0],
                vmm,
                trace,
                &shared,
                hook,
                Some(&mut committer),
            );
        } else {
            let (chunk0, rest) = chunks.split_at_mut(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .enumerate()
                    .map(|(k, chunk)| {
                        let shared = &shared;
                        scope.spawn(move || worker(k + 1, chunk, vmm, trace, shared, hook, None))
                    })
                    .collect();
                worker(
                    0,
                    &mut chunk0[0],
                    vmm,
                    trace,
                    &shared,
                    hook,
                    Some(&mut committer),
                );
                // Join explicitly so a panicked worker's original payload
                // propagates (the scope's implicit join would replace it
                // with "a scoped thread panicked").
                for h in handles {
                    if let Err(payload) = h.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
    }

    let mut all: Vec<(usize, CoreRunner)> = chunks.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    let runners: Vec<CoreRunner> = all.into_iter().map(|(_, r)| r).collect();
    let mut report = RunReport::collect(vmm, &runners, &trace.label, &config_label(vmm));
    report.scaling = committer.scaling;
    let host = HostScaling {
        threads,
        parallel_rounds: 0,
        barrier_spins: shared.barrier.spins.load(Ordering::Relaxed),
        barrier_yields: shared.barrier.yields.load(Ordering::Relaxed),
        barrier_sleeps: shared.barrier.sleeps.load(Ordering::Relaxed),
    };
    (report, host)
}

/// Runs `trace` against `vmm` single-threaded. Kept as the familiar
/// name for the bit-reproducible configuration; it is [`run`] with
/// `threads = 1`, not a separate engine.
pub fn run_deterministic<R: Recorder>(vmm: &Vmm<R>, trace: &Trace) -> RunReport {
    run(vmm, trace, 1)
}

/// Runs `trace` against `vmm` on `threads` host workers; `threads = 0`
/// selects the available parallelism. The report is byte-identical to
/// [`run_deterministic`]'s regardless of the count.
pub fn run_parallel<R: Recorder>(vmm: &Vmm<R>, trace: &Trace, threads: usize) -> RunReport {
    run(vmm, trace, resolve_threads(threads))
}

/// Resolves a thread-count request: `0` means "auto" — the host's
/// available parallelism (what `--threads auto` and
/// `SimulationBuilder::threads_auto` report in the run header).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    } else {
        threads
    }
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

    #[test]
    fn status_slots_do_not_share_a_cache_line_pair() {
        // Slots 0 and 1 start on 128-byte boundaries, 128+ bytes apart.
        let slots: Vec<Slot> = (0..2).map(|_| Slot::new()).collect();
        let (a, b) = (
            &slots[0] as *const Slot as usize,
            &slots[1] as *const Slot as usize,
        );
        assert!(
            a.is_multiple_of(128) && b.is_multiple_of(128) && b >= a + 128,
            "slots at {a:#x}, {b:#x}"
        );
    }

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
    fn every_status_round_trips_through_its_slot() {
        // One slot throughout, so a payload left by an earlier variant
        // must never leak into a later one (Metadata after Read).
        let slot = Slot::new();
        assert_eq!(slot.status(), Status::Running);
        assert_eq!(slot.stamp(), 0);
        let statuses = [
            Status::Fault {
                page: VirtPage(0x1234),
                write: false,
            },
            Status::Fault {
                page: VirtPage(u64::MAX),
                write: true,
            },
            Status::Syscall {
                call: Syscall::Read(1 << 20),
            },
            Status::Syscall {
                call: Syscall::Metadata,
            },
            Status::Syscall {
                call: Syscall::Write(u64::MAX),
            },
            Status::Arrived,
            Status::Waiting,
            Status::Running,
            Status::Done,
        ];
        for (k, status) in statuses.into_iter().enumerate() {
            let stamp = 1_000 * k as u64 + 7;
            slot.park(status, stamp);
            assert_eq!(slot.status(), status);
            assert_eq!(slot.stamp(), stamp);
        }
        slot.set_status(Status::Running);
        assert_eq!(slot.status(), Status::Running);
        assert_eq!(slot.stamp(), 8_007, "a status change keeps the stamp");
    }

    #[test]
    fn run_completes_and_reports() {
        let t = private_sweep_trace(2, 64, 3);
        let vmm = Vmm::new(KernelConfig::new(2, 256));
        let r = run_deterministic(&vmm, &t);
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
            let vmm = Vmm::new(KernelConfig::new(4, 96).with_policy(PolicyKind::Cmcp { p: 0.5 }));
            let r = run_deterministic(&vmm, &t);
            (r.runtime_cycles, r.avg_page_faults(), r.global.evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reports_are_byte_identical_across_thread_counts() {
        // The tentpole invariant in miniature: the full report rendering
        // must agree byte-for-byte at 1, 2, and 4 workers — under
        // eviction pressure with LRU (scan timer live) and shootdowns,
        // and with 8 cores faulting under ample memory, where every fault
        // is a minor or a fresh major and so lands in the shardable
        // prefix.
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
            let render = |threads: usize| {
                let vmm = Vmm::new(KernelConfig::new(cores, blocks).with_policy(policy));
                super::run(&vmm, &t, threads)
            };
            let base = render(1);
            assert!(
                base.scaling.shardable > 0,
                "cold faults must classify shardable: {:?}",
                base.scaling
            );
            let base = format!("{base:?}");
            assert_eq!(
                base,
                format!("{:?}", render(2)),
                "threads=2 must match threads=1"
            );
            assert_eq!(
                base,
                format!("{:?}", render(4)),
                "threads=4 must match threads=1"
            );
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
        let vmm = Vmm::new(KernelConfig::new(2, 256));
        let r = run_deterministic(&vmm, &t);
        assert!(
            r.scaling.fast_forwards > 0,
            "straggler phases must fast-forward: {:?}",
            r.scaling
        );
        // LRU arms the scan timer, which forbids fast-forwarding.
        let vmm = Vmm::new(KernelConfig::new(2, 256).with_policy(PolicyKind::Lru));
        let r = run_deterministic(&vmm, &t);
        assert_eq!(r.scaling.fast_forwards, 0, "timers disable fast-forward");
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped() {
        let t = private_sweep_trace(2, 16, 1);
        let vmm = Vmm::new(KernelConfig::new(2, 64));
        let r = super::run(&vmm, &t, 64);
        assert_eq!(r.per_core.len(), 2);
        assert_eq!(r.per_core[0].page_faults, 16);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_is_rejected() {
        let t = private_sweep_trace(1, 1, 1);
        let vmm = Vmm::new(KernelConfig::new(1, 4));
        super::run(&vmm, &t, 0);
    }

    #[test]
    fn resolve_threads_maps_zero_to_host_parallelism() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn panicking_worker_surfaces_the_panic() {
        // Regression for the PR 2 wedge class: a dead worker must not
        // leave the survivors spinning on a frozen horizon. The poisoned
        // phase barrier bails everyone out and the original panic
        // propagates through the scope join.
        let t = private_sweep_trace(4, 64, 2);
        let vmm = Vmm::new(KernelConfig::new(4, 256));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_worker_hook(&vmm, &t, 4, &|id| {
                if id == 2 {
                    panic!("injected worker panic");
                }
            })
        }));
        let payload = result.expect_err("the worker panic must propagate, not wedge");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("injected worker panic"),
            "original payload must survive: {msg:?}"
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
        let vmm = Vmm::new(KernelConfig::new(2, 16));
        run_deterministic(&vmm, &t);
        assert!(
            vmm.clocks()[0].now() >= 1_000_000,
            "core0 waited at the barrier"
        );
    }

    #[test]
    fn memory_pressure_causes_evictions_and_refaults() {
        // One core sweeps 64 pages repeatedly with only 32 resident.
        let mut t = Trace::new(1, "thrash");
        for _ in 0..4 {
            t.cores[0].ops.push(Op::Stream {
                start: VirtPage(0),
                pages: 64,
                write: true,
                work_per_page: 2,
            });
        }
        let vmm = Vmm::new(KernelConfig::new(1, 32));
        let r = run_deterministic(&vmm, &t);
        assert!(r.global.evictions > 64, "sweep must thrash");
        assert!(r.per_core[0].page_faults > 64);
        assert!(r.dma_bytes.1 > 0, "dirty sweeps write back");
        assert!(r.global.refaults > 0);
        // Refaults DMA backing copies in: never shardable.
        assert!(r.scaling.reconciled > 0, "{:?}", r.scaling);
    }

    #[test]
    fn parallel_run_handles_memory_pressure() {
        let t = shared_and_private_trace(4, 4);
        // Footprint: 16 shared + 4×32 private = 144 pages; constrain to 64.
        let vmm = Vmm::new(KernelConfig::new(4, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
        let r = super::run(&vmm, &t, 4);
        assert!(r.global.evictions > 0);
        assert!(r.runtime_cycles > 0);
        // Every core executed all its touches.
        for c in &r.per_core {
            assert_eq!(c.dtlb_accesses, 4 * (16 + 32));
        }
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
        for threads in [1, 2] {
            let report = |t: &Trace| {
                let vmm =
                    Vmm::new(KernelConfig::new(2, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
                let r = super::run(&vmm, t, threads);
                assert!(r.global.evictions > 0, "under eviction pressure");
                format!("{r:?}")
            };
            assert_eq!(report(&whole), report(&split), "{threads} thread(s)");
        }
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
        let run = |t: &Trace, threads: usize| {
            let vmm = Vmm::new(KernelConfig::new(2, 64).with_policy(PolicyKind::Cmcp { p: 0.5 }));
            super::run(&vmm, t, threads)
        };
        let faults = |r: &RunReport| r.per_core.iter().map(|c| c.page_faults).sum::<u64>();
        assert!(
            faults(&run(&replayed, 1)) > faults(&run(&trace(1, true), 1)),
            "the replays fault"
        );
        for threads in [1, 2] {
            let report = |t: &Trace| {
                let r = run(t, threads);
                assert!(r.global.evictions > 0, "under eviction pressure");
                format!("{r:?}")
            };
            assert_eq!(report(&copied), report(&replayed), "{threads} thread(s)");
        }
    }

    #[test]
    fn scan_timer_fires_under_lru() {
        let mut t = Trace::new(1, "scan");
        // Enough compute to cross several 10 ms scan periods.
        for _ in 0..5 {
            t.cores[0].ops.push(Op::touch(VirtPage(1), false, 1));
            t.cores[0].ops.push(Op::Compute(11_000_000));
        }
        let vmm = Vmm::new(KernelConfig::new(1, 16).with_policy(PolicyKind::Lru));
        let r = run_deterministic(&vmm, &t);
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
            let vmm = Vmm::new(KernelConfig::new(1, 16).with_policy(policy));
            let r = run_deterministic(&vmm, &t);
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
        let vmm = Vmm::new(KernelConfig::new(1, 8));
        run_deterministic(&vmm, &t);
        assert_eq!(vmm.offload().total_calls(), 1);
        assert_eq!(vmm.offload().total_payload(), 1 << 20);
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
        let vmm = Vmm::new(cfg);
        let r = run_deterministic(&vmm, &t);
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
        let vmm = Vmm::new(KernelConfig::new(3, 16));
        run_deterministic(&vmm, &t);
    }
}
