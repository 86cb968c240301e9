//! The virtual memory manager: demand paging between device RAM and the
//! host backing store.
//!
//! This is the code path the whole paper is about. On a page fault the
//! kernel:
//!
//! 1. serializes on the page-table lock — address-space-wide for regular
//!    tables, sharded/fine-grained for PSPT (modeled as virtual-time
//!    reservation resources, so contention costs queueing delay);
//! 2. if the block is already resident (PSPT minor fault), copies a PTE
//!    from a sibling core's table and reports the new core-map count to
//!    the policy — CMCP's signal;
//! 3. otherwise allocates a block of device frames, evicting a victim
//!    chosen by the replacement policy when RAM is full: the victim is
//!    unmapped everywhere, the mapping cores' TLBs are shot down (a
//!    broadcast under regular tables, the precise set under PSPT), dirty
//!    blocks are written back over the DMA engine, and the new block is
//!    DMA'd in if it has real content on the host;
//! 4. charges every step's cycles to the faulting core, to the DMA and
//!    lock reservation clocks, and to the interrupted remote cores.
//!
//! The accessed-bit scan timer (10 ms of virtual time, dedicated
//! hyperthreads — paper §5.1) lives here too: policies that want recency
//! information get it through the kernel's `AccessBitOracle`
//! implementation, which performs real PTE scans and pays for the remote
//! TLB invalidations x86 requires.

use std::cell::{Ref, RefCell, RefMut};

use cmcp_arch::{
    dma::DmaDirection, CoreClock, CoreId, CoreSet, CostModel, Cycles, DmaModel, FaultInjector,
    FaultPlan, FaultSite, FxHashMap, FxHashSet, IkcChannel, PageSize, PhysFrame, RingModel,
    VirtPage, VirtualResource,
};
use cmcp_core::{AccessBitOracle, ReplacementPolicy};
use cmcp_pagetable::{MapOutcome, Pspt, RegularTables, TableScheme, Translation};
use cmcp_trace::{EventKind, NullTracer, Recorder, MAINTENANCE_CORE};

use crate::backing::{LoadOutcome, TierCounters, TieredStore};
use crate::buddy::BuddyPool;
use crate::config::{KernelConfig, SchemeChoice};
use crate::frames::FramePool;
use crate::numa::{BlockNuma, NumaBooks};
use crate::offload::Syscall;
use crate::stats::{CoreStatsSnapshot, GlobalStatsSnapshot, KernelStats, NumaStats};

const LOCK_SHARDS: usize = 64;

/// Base delay of the exponential retry backoff after an injected fault:
/// ~2 µs at the KNC's 1.053 GHz. Doubles per attempt up to
/// `BACKOFF_CAP_SHIFT` doublings.
const BACKOFF_BASE: Cycles = 1 << 11;

/// Backoff stops doubling after this many attempts (caps the per-retry
/// delay at `BACKOFF_BASE << BACKOFF_CAP_SHIFT` ≈ 125 µs).
const BACKOFF_CAP_SHIFT: u32 = 6;

/// Hard cap on recovery attempts for one operation. Fault rates are
/// clamped to 50 % at plan construction, so 64 consecutive failures has
/// probability ≤ 2⁻⁶⁴ — reaching this cap means the injector is broken,
/// not unlucky, and the run aborts loudly instead of livelocking.
const MAX_RECOVERY_ATTEMPTS: u32 = 64;

/// Everything the kernel mutates, behind the one [`RefCell`] in [`Vmm`]:
/// the residency books, the page tables, the per-core clocks and
/// counters, and the virtual-time models (page-table locks, DMA engine,
/// fault injector, IKC channel) as plain `&mut self` structures.
/// Each public entry — a fault, a walk, an accessed-bit update, a
/// mailbox drain, a scan tick, a rebuild, a query — borrows the cell
/// once, and its helpers take the borrowed parts, split by
/// destructuring. The cell makes `Vmm` `!Sync`, so one thread makes
/// every kernel call and no borrow can race another; a nested borrow is
/// a bug that panics. Only the immutable ring and NUMA models and the
/// tracer (whose `record` takes `&self`) stay outside.
struct KernelState {
    /// The replacement policy. The kernel calls it directly, in commit
    /// order, so every decision sees every earlier residency event.
    policy: Box<dyn ReplacementPolicy>,
    /// block head → residency entry, for every resident block. Hashed
    /// with the seed-free [`FxHashMap`]: every fault probes it, and
    /// SipHash was measurable on the hot path.
    resident: FxHashMap<u64, Resident>,
    /// Blocks whose dirty bits were harvested by a PSPT rebuild before
    /// they could be written back: they still owe a write-back when
    /// eventually evicted.
    pending_dirty: FxHashSet<u64>,
    /// Adaptive page-size mode only: 2 MB region head → (granularity
    /// for the region's next fresh block, number of resident blocks). A
    /// region's granularity is chosen by the pressure controller at its
    /// first fault and lowered by split-on-evict; it resets when the
    /// region empties.
    regions: FxHashMap<u64, (PageSize, u32)>,
    frames: Frames,
    /// The host-side backing hierarchy (one zero-cost tier on the flat
    /// config).
    backing: TieredStore,
    /// Blocks charged to each node's budget, one entry per node. Sums
    /// to the resident block count on fixed-size runs; adaptive runs
    /// charge nothing (see [`Frames`]).
    numa_used: Vec<u64>,
    /// The page tables: PSPT's per-core tables and core-map directory,
    /// or the one shared table.
    scheme: SchemeObj,
    /// Each core's pending TLB invalidations, `(head, span_4k)` pairs,
    /// applied by its runner: flat runs always post the configured block
    /// span, adaptive runs the victim's actual granularity.
    mailboxes: Vec<Vec<(VirtPage, u32)>>,
    /// Every live counter, and the per-core clocks charged beside them.
    stats: KernelStats,
    /// The page-table lock resources: the one address-space-wide lock
    /// of regular tables, or PSPT's `LOCK_SHARDS` fine-grained ones.
    pt_locks: Vec<VirtualResource>,
    dma: DmaModel,
    /// Compiled fault plan. A run without one compiles the empty plan,
    /// whose rolls never fire.
    injector: FaultInjector,
    /// The host channel offloaded syscalls ride.
    ikc: IkcChannel,
    /// Offloaded syscalls issued so far (drives the offload-death rule).
    offload_calls: u64,
    /// Latched once the offload engine dies; all later syscalls take the
    /// synchronous fallback.
    offload_dead: bool,
}

/// One resident block: its device frame head, mapping granularity
/// (always `cfg.block_size` outside adaptive mode), home node and
/// replica mask, in 8 bytes.
#[derive(Debug, Clone, Copy)]
struct Resident {
    frame: PhysFrame,
    size: PageSize,
    numa: BlockNuma,
}

const _: () = assert!(std::mem::size_of::<Resident>() == 8);

/// Device-RAM allocator: the fixed-size pool for normal runs, the
/// mixed-size buddy for adaptive page-size runs.
///
/// Fixed is not folded into adaptive as the buddy pinned to one size
/// class. NUMA budgets count blocks of one size, so they cannot charge
/// an adaptive run's mixed granularities (hence adaptive runs are
/// refused on multi-node topologies and charge no budget). And a buddy
/// serving fixed runs would need capacities that are not multiples of
/// 2 MB, and would put its `BTreeSet` free lists on every eviction,
/// where the pool hands the victim's frame straight over.
enum Frames {
    Pool(FramePool),
    Buddy(BuddyPool),
}

impl Frames {
    /// The fixed-size frame pool (every non-adaptive run).
    fn pool(&mut self) -> &mut FramePool {
        match self {
            Frames::Pool(p) => p,
            Frames::Buddy(_) => unreachable!("fixed-size path in adaptive mode"),
        }
    }

    /// The buddy allocator (adaptive page-size runs only).
    fn buddy(&mut self) -> &mut BuddyPool {
        match self {
            Frames::Buddy(b) => b,
            Frames::Pool(_) => unreachable!("adaptive path without buddy pool"),
        }
    }

    /// 4 kB pages still in circulation (free or allocated).
    fn usable_pages(&self) -> u64 {
        match self {
            Frames::Pool(p) => p.usable_pages(),
            Frames::Buddy(b) => b.usable_pages(),
        }
    }

    /// Takes an owned `size` block out of circulation for good.
    fn quarantine(&mut self, frame: PhysFrame, size: PageSize) {
        match self {
            Frames::Pool(p) => p.quarantine(),
            Frames::Buddy(b) => b.quarantine(frame, size),
        }
    }
}

/// Classification of a handled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Block was not resident: allocated (and possibly evicted + DMA'd).
    Major,
    /// PSPT minor fault: block resident, PTE copied from a sibling.
    MinorCopy,
    /// The block is already mapped for this core. The engine re-probes
    /// the walk before it commits a fault, so only direct
    /// [`Vmm::handle_fault`] callers see this.
    Spurious,
}

/// The kernel memory manager for one simulated address space.
///
/// Generic over the trace [`Recorder`]: the default [`NullTracer`]
/// compiles every emission site down to nothing (`R::ENABLED` is a
/// constant `false`), so untraced runs pay no cost for the
/// instrumentation. Build a traced instance with
/// [`Vmm::with_tracer`].
///
/// The API takes `&self`, and everything the kernel mutates sits in one
/// non-thread-safe cell, a [`RefCell`]. So a `Vmm` can move to
/// another thread (it is `Send`), but cannot be shared between threads:
/// the compiler, not a lock, keeps each kernel on one thread.
///
/// ```compile_fail,E0277
/// use cmcp_kernel::{KernelConfig, Vmm};
///
/// let vmm = Vmm::new(KernelConfig::new(2, 4));
/// std::thread::scope(|s| {
///     s.spawn(|| vmm.resident_blocks());
/// });
/// ```
///
/// Accessors that return a [`Ref`] hold a shared borrow of the state:
/// drop it before the next kernel entry, which would otherwise panic.
pub struct Vmm<R: Recorder = NullTracer> {
    cfg: KernelConfig,
    /// The single-writer kernel state (see [`KernelState`]).
    state: RefCell<KernelState>,
    ring: RingModel,
    /// NUMA topology and placement rules — home nodes, replica sets,
    /// per-node budgets. A single-node run is its one-node case: every
    /// block homes on node 0, and nothing crosses a link.
    numa: NumaBooks,
    tracer: R,
}

// A kernel moves to the thread that runs it (independent runs build one
// per worker); the doctest above shows it cannot be shared.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Vmm<NullTracer>>();
};

/// Static dispatch over the two schemes (keeps the fault path free of a
/// per-call vtable and lets `sharing_histogram` stay PSPT-specific).
enum SchemeObj {
    Regular(RegularTables),
    Pspt(Pspt),
}

/// Monomorphized scheme call on a `&SchemeObj` or `&mut SchemeObj`:
/// expands the two-armed match at the call site so each arm invokes the
/// concrete scheme's method directly — no `&dyn TableScheme`
/// indirection, so the per-fault `translate`/`map` calls inline across
/// the crate boundary under LTO.
macro_rules! with_scheme {
    ($scheme:expr, $s:ident => $call:expr) => {
        match $scheme {
            SchemeObj::Regular($s) => $call,
            SchemeObj::Pspt($s) => $call,
        }
    };
}

impl Vmm {
    /// Builds an untraced memory manager and its per-core clocks.
    pub fn new(cfg: KernelConfig) -> Vmm {
        Vmm::with_tracer(cfg, NullTracer)
    }
}

impl<R: Recorder> Vmm<R> {
    /// Builds the memory manager with an explicit trace recorder.
    pub fn with_tracer(cfg: KernelConfig, tracer: R) -> Vmm<R> {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(cfg.device_blocks > 0, "need at least one device block");
        if let Err(e) = cfg.cost.numa.validate() {
            panic!("invalid NUMA topology: {e}");
        }
        // The engine derives its determinism window once at build; a
        // cross-node link faster than the IPI window would silently
        // shrink it, so the combination is rejected loudly up front.
        if let Err(e) = cfg
            .cost
            .numa
            .check_window(cfg.cost.ipi_send + cfg.cost.ipi_handle)
        {
            panic!("{e}");
        }
        assert!(
            cfg.cost.numa.is_single() || !cfg.adaptive,
            "adaptive page sizes are not supported on multi-node NUMA topologies"
        );
        // One span per device block: a run under pressure writes back
        // about that many (lu.C at 66% memory holds 11.9K spans over
        // 11.4K blocks), so the span map rarely grows mid-run.
        let mut backing = TieredStore::new(cfg.tiers());
        backing.reserve_spans(cfg.device_blocks);
        Vmm {
            state: RefCell::new(KernelState {
                policy: cfg.policy.build(cfg.device_blocks),
                // Twice the device's blocks: a hashbrown table rehashes
                // its tombstones in place only while at most half full,
                // so a full device's evict/insert churn would otherwise
                // double it mid-run, and peak RSS counts the old and new
                // tables side by side.
                resident: FxHashMap::with_capacity_and_hasher(
                    2 * cfg.device_blocks,
                    Default::default(),
                ),
                pending_dirty: FxHashSet::default(),
                regions: FxHashMap::default(),
                frames: if cfg.adaptive {
                    // Adaptive page sizes need mixed-granularity
                    // allocation: the buddy pool spans the same device
                    // RAM, counted in 2 MB regions.
                    Frames::Buddy(BuddyPool::new(cfg.device_blocks))
                } else {
                    Frames::Pool(FramePool::new(cfg.block_size, cfg.device_blocks))
                },
                backing,
                numa_used: vec![0; cfg.cost.numa.len()],
                scheme: match cfg.scheme {
                    SchemeChoice::Regular => SchemeObj::Regular(RegularTables::new(cfg.cores)),
                    SchemeChoice::Pspt => SchemeObj::Pspt(Pspt::new(cfg.cores)),
                },
                mailboxes: vec![Vec::new(); cfg.cores],
                stats: KernelStats::new(cfg.cores),
                pt_locks: std::iter::repeat_with(VirtualResource::new)
                    .take(match cfg.scheme {
                        SchemeChoice::Regular => 1,
                        SchemeChoice::Pspt => LOCK_SHARDS,
                    })
                    .collect(),
                dma: DmaModel::with_clients(&cfg.cost, cfg.cores),
                injector: FaultInjector::new(cfg.fault_plan.as_ref().unwrap_or(&FaultPlan::new(0))),
                ikc: IkcChannel::new(&cfg.cost),
                offload_calls: 0,
                offload_dead: false,
            }),
            ring: RingModel::new(cfg.cores, &cfg.cost),
            numa: NumaBooks::new(cfg.cost.numa.clone(), cfg.cores, cfg.device_blocks),
            tracer,
            cfg,
        }
    }

    /// The trace recorder (engines use it for barrier events; reporting
    /// drains it post-run).
    pub fn tracer(&self) -> &R {
        &self.tracer
    }

    /// The per-core virtual clocks.
    pub fn clocks(&self) -> Ref<'_, [CoreClock]> {
        Ref::map(self.state.borrow(), |s| s.stats.clocks.as_slice())
    }

    /// The per-core virtual clocks, for the engine's barrier release and
    /// its runners' phase-A write-backs.
    pub fn clocks_mut(&self) -> RefMut<'_, [CoreClock]> {
        RefMut::map(self.state.borrow_mut(), |s| s.stats.clocks.as_mut_slice())
    }

    /// This run's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Cost table in force.
    pub fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// Per-core statistics. The engine's TLB counts and clocks are not
    /// in them: the report fills `dtlb_*` and `cycles` in its copy.
    pub fn core_stats(&self) -> Ref<'_, [CoreStatsSnapshot]> {
        Ref::map(self.state.borrow(), |s| s.stats.per_core.as_slice())
    }

    /// Kernel-global statistics.
    pub fn global_stats(&self) -> GlobalStatsSnapshot {
        self.state.borrow().stats.global
    }

    /// The NUMA counters kept out of the serialized statistics.
    pub fn numa_stats(&self) -> Ref<'_, NumaStats> {
        Ref::map(self.state.borrow(), |s| &s.stats.numa)
    }

    /// The DMA engine (for occupancy reporting).
    pub fn dma(&self) -> Ref<'_, DmaModel> {
        Ref::map(self.state.borrow(), |s| &s.dma)
    }

    /// Total queueing delay observed on page-table locks.
    pub fn lock_queue_cycles(&self) -> Cycles {
        let locks = &self.state.borrow().pt_locks;
        locks.iter().map(VirtualResource::total_queued).sum()
    }

    /// Currently resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.state.borrow().resident.len()
    }

    /// Free blocks in the fixed-size frame pool; `None` for adaptive
    /// (buddy-pool) runs. The engine's classification budget: as long as
    /// at most this many fresh majors commit before any frame is freed,
    /// no allocation can fail and no eviction can fire.
    pub fn pool_free_blocks(&self) -> Option<usize> {
        match &self.state.borrow().frames {
            Frames::Pool(p) => Some(p.free_blocks()),
            Frames::Buddy(_) => None,
        }
    }

    /// Counts one residency transaction on `core`'s fault path — the
    /// lookup, a major's insert, each victim taken, each quarantine
    /// retry — and emits its `ShardLock` event with the block head.
    /// Zero virtual cycles: it is host-side bookkeeping, kept exact
    /// because `shard_lock_acquires` is in the report.
    fn note_residency(&self, stats: &mut KernelStats, core: CoreId, head: VirtPage) {
        stats.per_core[core.index()].shard_lock_acquires += 1;
        if R::ENABLED {
            self.tracer.record(
                core.0,
                stats.clocks[core.index()].now(),
                EventKind::ShardLock,
                head.0,
                0,
            );
        }
    }

    /// Whether the offload engine has died under the fault plan.
    pub fn offload_dead(&self) -> bool {
        self.state.borrow().offload_dead
    }

    /// Whether `page` is currently resident in device RAM (any block
    /// granularity). Quiescent-state query for the test oracles.
    pub fn block_resident(&self, page: VirtPage) -> bool {
        let state = self.state.borrow();
        if self.cfg.adaptive {
            covering_entry(&state.resident, page).is_some()
        } else {
            state.resident.contains_key(&self.block_of(page).0)
        }
    }

    /// Whether the backing store holds a written-back copy of `page`.
    /// Quiescent-state query for the test oracles.
    pub fn backing_contains(&self, page: VirtPage) -> bool {
        self.state.borrow_mut().backing.contains(page, 1)
    }

    /// Per-tier backing-store occupancy and traffic counters, fastest
    /// tier first (one tier on the flat config).
    pub fn tier_counters(&self) -> Vec<TierCounters> {
        self.state.borrow().backing.tier_counters().to_vec()
    }

    /// The NUMA topology and placement rules.
    pub fn numa_books(&self) -> &NumaBooks {
        &self.numa
    }

    /// Per-node used-block counts (exact at quiescence), one per node.
    pub fn numa_used(&self) -> Vec<u64> {
        self.state.borrow().numa_used.clone()
    }

    /// The `(home node, replica mask)` of a resident block.
    /// Test-oracle hook.
    pub fn numa_block_state(&self, head: VirtPage) -> Option<BlockNuma> {
        self.state
            .borrow()
            .resident
            .get(&head.0)
            .map(|ent| ent.numa)
    }

    /// Bitmask of nodes with at least one core currently mapping
    /// `head`. Test-oracle hook for the replica-subset invariant.
    pub fn mapping_node_mask(&self, head: VirtPage) -> u8 {
        let mut mask = 0u8;
        for c in with_scheme!(&self.state.borrow().scheme, s => s.mapping_cores(head)).iter() {
            mask |= 1 << self.numa.node_of(c.index());
        }
        mask
    }

    /// Backing-store invariant audit: panics on span overlap, per-tier
    /// book drift, or a bounded tier over capacity. Test-oracle hook.
    pub fn backing_audit(&self) {
        self.state.borrow().backing.audit();
    }

    /// Frame-conservation audit in 4 kB pages, valid for both allocator
    /// shapes: `(free, resident, quarantined, total)`. At any quiescent
    /// point `free + resident + quarantined == total` — a lost or doubly
    /// freed frame breaks the equality.
    pub fn frame_audit_pages(&self) -> (u64, u64, u64, u64) {
        let state = self.state.borrow();
        let resident: u64 = state
            .resident
            .values()
            .map(|ent| ent.size.pages_4k() as u64)
            .sum();
        match &state.frames {
            Frames::Buddy(b) => (
                b.free_pages(),
                resident,
                b.quarantined_pages(),
                b.total_pages(),
            ),
            Frames::Pool(p) => {
                let bp = self.cfg.block_size.pages_4k() as u64;
                (
                    p.free_blocks() as u64 * bp,
                    resident,
                    p.quarantined_blocks() as u64 * bp,
                    p.total_blocks() as u64 * bp,
                )
            }
        }
    }

    /// Records one injected fault against `core`: bumps the per-core
    /// counter and emits the paired `FaultInjected` event (zero cycles —
    /// the recovery events carry the time).
    fn note_injected(&self, stats: &mut KernelStats, core: CoreId, site: FaultSite, attempt: u64) {
        stats.per_core[core.index()].faults_injected += 1;
        if R::ENABLED {
            self.tracer.record(
                core.0,
                stats.clocks[core.index()].now(),
                EventKind::FaultInjected,
                site.code(),
                attempt,
            );
        }
    }

    /// Charges one bounded-exponential-backoff delay to `core` before it
    /// retries a failed operation at `site`. Only called inside a fault
    /// window, so the delay is a `fault_cycles` component — the emitted
    /// `Retry` event carries the exact increment for the breakdown.
    fn charge_backoff(&self, stats: &mut KernelStats, core: CoreId, attempt: u32, site: FaultSite) {
        let delay = BACKOFF_BASE << attempt.min(BACKOFF_CAP_SHIFT);
        let clock = &mut stats.clocks[core.index()];
        clock.advance(delay);
        let st = &mut stats.per_core[core.index()];
        st.fault_retries += 1;
        st.retry_backoff_cycles += delay;
        if R::ENABLED {
            self.tracer
                .record(core.0, clock.now(), EventKind::Retry, delay, site.code());
        }
    }

    /// Figure 6's histogram (PSPT only): blocks by mapping-core count.
    pub fn sharing_histogram(&self) -> Option<Vec<usize>> {
        match &self.state.borrow().scheme {
            SchemeObj::Pspt(p) => Some(p.sharing_histogram()),
            SchemeObj::Regular(_) => None,
        }
    }

    /// Hardware page walk on behalf of `core`. Read-only: the engine's
    /// pre-commit re-probe uses it, and must not set an accessed bit.
    pub fn translate(&self, core: CoreId, page: VirtPage) -> Option<Translation> {
        with_scheme!(&self.state.borrow().scheme, s => s.translate(core, page))
    }

    /// Hardware page walk on a TLB miss or a first write to a clean TLB
    /// entry: one walk that sets the touched PTE's accessed bit (and
    /// dirty bit, for a write) and returns the translation it marked, or
    /// `None`, marking nothing, if `core` does not map `page`.
    pub fn mark_accessed(&self, core: CoreId, page: VirtPage, write: bool) -> Option<Translation> {
        with_scheme!(&mut self.state.borrow_mut().scheme, s => s.mark_accessed(core, page, write))
    }

    /// Whether `core` has pending TLB invalidations.
    #[inline]
    pub fn has_pending_invalidations(&self, core: CoreId) -> bool {
        !self.state.borrow().mailboxes[core.index()].is_empty()
    }

    /// Drains `core`'s pending invalidations — `(head, span_4k)` pairs —
    /// into `out` (the engine applies them to the core's TLB; the
    /// interrupt cost was already charged by the shootdown).
    pub fn drain_invalidations(&self, core: CoreId, out: &mut Vec<(VirtPage, u32)>) {
        out.append(&mut self.state.borrow_mut().mailboxes[core.index()]);
    }

    /// Virtual-time period of the statistics scan timer.
    pub fn scan_period(&self) -> Cycles {
        self.cfg.cost.scan_period
    }

    /// The IKC channel offloaded syscalls ride to the host.
    pub fn offload(&self) -> Ref<'_, IkcChannel> {
        Ref::map(self.state.borrow(), |s| &s.ikc)
    }

    /// Executes a host-offloaded system call on behalf of `core`,
    /// blocking it for the full round trip.
    ///
    /// Dropped IKC messages cost resend timeouts, folded into the wait,
    /// and under the fault plan's offload-death rule the host daemon
    /// dies after the plan's call threshold: from then on every syscall
    /// degrades to the synchronous fallback and leaves the channel
    /// alone.
    pub fn offload_syscall(&self, core: CoreId, call: Syscall) -> Cycles {
        let mut state = self.state.borrow_mut();
        let KernelState {
            stats,
            injector,
            ikc,
            offload_calls,
            offload_dead,
            ..
        } = &mut *state;
        if let Some(threshold) = injector.offload_death_after() {
            let n = *offload_calls;
            *offload_calls += 1;
            if n >= threshold && !*offload_dead {
                *offload_dead = true;
                self.note_injected(stats, core, FaultSite::Offload, n);
            }
        }
        let clock = &mut stats.clocks[core.index()];
        let now = clock.now();
        if *offload_dead {
            let wait = ikc.sync_fallback(call.message());
            clock.advance(wait);
            stats.global.sync_syscalls += 1;
            return wait;
        }
        let (done, drops) = ikc.round_trip(now, call.message(), injector);
        let wait = done.done_at.saturating_sub(now);
        clock.advance(wait);
        if drops > 0 {
            // Drop timeouts happen outside fault windows, so they are
            // *not* retry-backoff cycles — each drop is surfaced as an
            // injected fault only, and the timeout itself is already in
            // the offload wait.
            stats.global.ikc_drops += drops as u64;
            for k in 0..drops as u64 {
                self.note_injected(stats, core, FaultSite::Ikc, k);
            }
        }
        wait
    }

    /// Periodic PSPT rebuild (paper §5.6: "a more dynamic solution with
    /// periodically rebuilding PSPT"): every resident block is unmapped
    /// from every core's private table — TLBs included — so the core-map
    /// counts re-form from the *current* access pattern as cores
    /// re-fault their PTEs (minor faults: the frames stay resident).
    ///
    /// Returns the number of blocks torn down, or `None` under regular
    /// tables (nothing to rebuild).
    pub fn rebuild_pspt(&self) -> Option<usize> {
        if !matches!(self.cfg.scheme, SchemeChoice::Pspt) {
            return None;
        }
        let mut torn = 0;
        let mut dropped = 0u64;
        let mut state = self.state.borrow_mut();
        let KernelState {
            resident,
            pending_dirty,
            scheme,
            mailboxes,
            stats,
            ..
        } = &mut *state;
        for (&head, ent) in resident.iter_mut() {
            // The rebuild's global shootdown tears down every PTE, so
            // every node-local replica goes with it (homes and budgets
            // stay: the frames never move).
            dropped += u64::from(ent.numa.mask.count_ones());
            ent.numa.mask = 0;
            let head = VirtPage(head);
            if let Some(out) = with_scheme!(&mut *scheme, s => s.unmap_all(head, ent.size)) {
                torn += 1;
                // The rebuild runs on the dedicated maintenance
                // hyperthreads (like the scan timer); targets still pay
                // their interrupt cost.
                let span = ent.size.pages_4k() as u32;
                self.shootdown(stats, mailboxes, None, head, span, &out.mappers);
                // Unmapping discards the PTE dirty bits; remember the
                // write-back debt for the eventual eviction.
                if out.dirty {
                    pending_dirty.insert(head.0);
                }
            }
        }
        // Count the dropped replicas (the maintenance hyperthreads' own
        // time is free, like the scan timer's).
        stats.numa.replica_invalidations += dropped;
        stats.global.rebuilds += 1;
        if R::ENABLED {
            self.tracer.record(
                MAINTENANCE_CORE,
                stats.maintenance_now(),
                EventKind::Rebuild,
                torn as u64,
                0,
            );
        }
        Some(torn)
    }

    /// Virtual-time period for PSPT rebuilding (0 = disabled).
    pub fn rebuild_period(&self) -> Cycles {
        self.cfg.pspt_rebuild_period
    }

    /// Whether the configured policy uses the scan timer at all.
    pub fn wants_periodic_scan(&self) -> bool {
        self.state.borrow().policy.wants_periodic_scan()
    }

    #[inline]
    fn block_of(&self, page: VirtPage) -> VirtPage {
        page.align_down(self.cfg.block_size)
    }

    #[inline]
    fn block_bytes(&self) -> u64 {
        self.cfg.block_size.bytes()
    }

    /// PTE writes needed to (un)map one `size` block on one core.
    #[inline]
    fn subentries_of(size: PageSize) -> u64 {
        match size {
            PageSize::M2 => 1,
            s => s.pages_4k() as u64,
        }
    }

    /// PTE writes needed to (un)map one configured block on one core.
    #[inline]
    fn subentries(&self) -> u64 {
        Self::subentries_of(self.cfg.block_size)
    }

    /// The page-table lock serializing faults on `head` among `locks`
    /// (the one lock of regular tables, or a hashed PSPT shard), and its
    /// hold time.
    fn lock_for<'a>(
        &self,
        locks: &'a mut [VirtualResource],
        head: VirtPage,
    ) -> (&'a mut VirtualResource, Cycles) {
        let h = (head.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize;
        let hold = match self.cfg.scheme {
            SchemeChoice::Regular => self.cfg.cost.regular_pt_lock,
            SchemeChoice::Pspt => self.cfg.cost.pspt_lock,
        };
        (&mut locks[h % locks.len()], hold)
    }

    /// Sends TLB shootdowns for the `span` 4 kB pages at `page` to
    /// `targets`.
    ///
    /// `requester = Some(core)` charges the serialized send loop and ack
    /// wait to that core (and counts it as sender); `None` models the
    /// dedicated statistics hyperthreads, whose own time is free but whose
    /// IPIs still interrupt every target.
    fn shootdown(
        &self,
        stats: &mut KernelStats,
        mailboxes: &mut [Vec<(VirtPage, u32)>],
        requester: Option<CoreId>,
        page: VirtPage,
        span: u32,
        targets: &CoreSet,
    ) {
        let source = requester.unwrap_or(CoreId(0));
        let cost = self.ring.shootdown(source, targets);
        if cost.targets > 0 {
            if let Some(req) = requester {
                stats.clocks[req.index()].advance(cost.requester);
                let st = &mut stats.per_core[req.index()];
                st.shootdown_cycles += cost.requester;
                st.remote_inv_sent += cost.targets as u64;
                if R::ENABLED {
                    self.tracer.record(
                        req.0,
                        stats.clocks[req.index()].now(),
                        EventKind::ShootdownSend,
                        cost.requester,
                        cost.targets as u64,
                    );
                }
            }
            for t in targets.iter() {
                if Some(t) == requester {
                    continue;
                }
                stats.clocks[t.index()].charge_remote(cost.per_target);
                stats.per_core[t.index()].remote_inv_received += 1;
                mailboxes[t.index()].push((page, span));
                if R::ENABLED {
                    self.tracer.record(
                        t.0,
                        stats.clocks[t.index()].now(),
                        EventKind::ShootdownAck,
                        page.0,
                        cost.per_target,
                    );
                }
            }
        }
        // Local invalidation on the requester, if it maps the page too.
        if let Some(req) = requester {
            if targets.contains(req) {
                stats.clocks[req.index()].advance(self.cfg.cost.tlb_invlpg);
                mailboxes[req.index()].push((page, span));
            }
        }
    }

    /// Charges `core` the extra virtual-time cost of touching backing
    /// tier `tier` with `bytes` of traffic, on top of the DMA link time.
    /// Tier 0 of the flat hierarchy has zero latency and unmetered
    /// bandwidth, so flat runs take the early return and stay
    /// byte-identical to the pre-tier code (no clock advance, no
    /// counter, no event).
    fn charge_tier_penalty(&self, stats: &mut KernelStats, core: CoreId, tier: usize, bytes: u64) {
        let pen = self.cfg.tiers().tiers[tier].penalty(bytes);
        if pen == 0 {
            return;
        }
        let clock = &mut stats.clocks[core.index()];
        clock.advance(pen);
        stats.per_core[core.index()].tier_penalty_cycles += pen;
        if R::ENABLED {
            self.tracer.record(
                core.0,
                clock.now(),
                EventKind::TierPenalty,
                pen,
                tier as u64,
            );
        }
    }

    /// Charges `core` one cross-node page-table crossing of `cycles` —
    /// a replica sync or remote master walk (`op` 0) or a replica
    /// invalidation (`op` 1) reaching `node` — with the paired
    /// exact-cost event. Zero charges are silent, like every other
    /// conditional cost layer.
    fn charge_replica(
        &self,
        stats: &mut KernelStats,
        core: CoreId,
        cycles: Cycles,
        op: u64,
        node: u8,
    ) {
        if cycles == 0 {
            return;
        }
        let clock = &mut stats.clocks[core.index()];
        clock.advance(cycles);
        stats.numa.replica_sync_cycles[core.index()] += cycles;
        if R::ENABLED {
            self.tracer.record(
                core.0,
                clock.now(),
                EventKind::ReplicaSync,
                cycles,
                (op << 8) | u64::from(node),
            );
        }
    }

    /// NUMA bookkeeping for a major fault: places the new block on a
    /// home node (spilling — one link crossing — when the faulting
    /// core's node is full) and returns its state for the resident
    /// entry.
    fn numa_on_insert(&self, stats: &mut KernelStats, core: CoreId, used: &mut [u64]) -> BlockNuma {
        let books = &self.numa;
        let (ent, spilled) = books.on_insert(core.index(), used);
        if let Some(home) = spilled {
            stats.numa.remote_spills += 1;
            let cost = books
                .config
                .cross_latency(books.node_of(core.index()) as usize, home as usize);
            self.charge_replica(stats, core, cost, 0, home);
        }
        ent
    }

    /// NUMA bookkeeping for a minor fault: replica sync (replication
    /// on, first fault from a new node) or remote master walk
    /// (replication off, every remote fault), then the home-migration
    /// check against the block's current mapping-node histogram — the
    /// CMCP map-count-weighted access center. Updates the block's state
    /// `ent` and the per-node `used` counts in place.
    fn numa_on_map(
        &self,
        scheme: &SchemeObj,
        stats: &mut KernelStats,
        core: CoreId,
        head: VirtPage,
        ent: &mut BlockNuma,
        used: &mut [u64],
    ) {
        let books = &self.numa;
        let d = books.on_map(core.index(), ent, used, |counts| {
            for c in with_scheme!(scheme, s => s.mapping_cores(head)).iter() {
                counts[books.node_of(c.index()) as usize] += 1;
            }
        });
        if let Some(home) = d.sync_with {
            if d.counted_sync {
                stats.numa.replica_syncs += 1;
            }
            let cost = books
                .config
                .cross_latency(books.node_of(core.index()) as usize, home as usize);
            self.charge_replica(stats, core, cost, 0, home);
        }
        if let Some((from, to)) = d.migrate {
            stats.numa.page_migrations += 1;
            let pen = books
                .config
                .xfer_penalty(from as usize, to as usize, self.block_bytes());
            if pen > 0 {
                let clock = &mut stats.clocks[core.index()];
                clock.advance(pen);
                stats.numa.migration_cycles[core.index()] += pen;
                if R::ENABLED {
                    self.tracer.record(
                        core.0,
                        clock.now(),
                        EventKind::Migration,
                        pen,
                        (u64::from(from) << 8) | u64::from(to),
                    );
                }
            }
        }
    }

    /// NUMA bookkeeping for an eviction: releases the victim's budget
    /// and tears down the page-table state. With replication *on* the
    /// per-node replica clears piggyback on the TLB-shootdown IPIs the
    /// eviction already sends to every mapping core — the clear runs
    /// inside the shootdown handler on the remote node and the ack
    /// barrier the evictor already waits on orders it before frame
    /// reuse, so replicas cost counters, not extra critical-path
    /// cycles. With replication *off* there is nothing on the remote
    /// nodes for a handler to clear; the evictor itself must write the
    /// single master table before handing the frame out, and when the
    /// home is remote that is one synchronous link crossing. `ent` is
    /// the victim's final state.
    fn numa_on_evict(
        &self,
        stats: &mut KernelStats,
        requester: CoreId,
        ent: BlockNuma,
        used: &mut [u64],
    ) {
        let books = &self.numa;
        NumaBooks::on_evict(ent, used);
        let req_node = books.node_of(requester.index());
        if books.config.replicate {
            stats.numa.replica_invalidations += u64::from(ent.mask.count_ones());
        } else if ent.home != req_node {
            stats.numa.replica_invalidations += 1;
            let cost = books
                .config
                .cross_latency(req_node as usize, ent.home as usize);
            self.charge_replica(stats, requester, cost, 1, ent.home);
        }
    }

    /// One DMA attempt of `bytes` for `core`, to or from backing tier
    /// `tier`: reserves the engine, charges the caller's wait (latency
    /// spike included) as DMA wait, and counts an injected spike. An
    /// injected transfer error also burned its engine slot (the data
    /// crossed the link before the abort): it is counted and backed off
    /// exponentially, and this returns `true` so the caller retries.
    fn dma_attempt(
        &self,
        state: &mut KernelState,
        core: CoreId,
        bytes: u64,
        dir: DmaDirection,
        tier: usize,
        attempt: u32,
    ) -> bool {
        let stats = &mut state.stats;
        let now = stats.clocks[core.index()].now();
        if R::ENABLED {
            self.tracer
                .record(core.0, now, EventKind::DmaEnqueue, bytes, dir.code());
        }
        let c = state
            .dma
            .transfer(now, bytes, dir, tier, &mut state.injector);
        let wait = c.reservation.end.saturating_sub(now);
        let clock = &mut stats.clocks[core.index()];
        clock.advance(wait);
        stats.per_core[core.index()].dma_wait_cycles += wait;
        if R::ENABLED {
            self.tracer.record(
                core.0,
                clock.now(),
                EventKind::DmaComplete,
                wait,
                dir.code(),
            );
        }
        if c.spike_cycles > 0 {
            stats.global.latency_spikes += 1;
            self.note_injected(stats, core, FaultSite::DmaLatency, attempt as u64);
        }
        if !c.failed {
            return false;
        }
        stats.global.dma_errors += 1;
        self.note_injected(stats, core, dir.error_site(), attempt as u64);
        self.charge_backoff(stats, core, attempt, dir.error_site());
        true
    }

    /// Writes a dirty victim of `pages` 4 kB pages back to the tier the
    /// demotion `rank` selects, riding out injected DMA errors and
    /// backing-store write failures.
    ///
    /// The happy path (no fault rolled, always so without a plan) is a
    /// single transfer plus the store. Each injected DMA error retries
    /// the transfer ([`Vmm::dma_attempt`]); each injected ENOSPC backs
    /// off and re-submits the store. Returns whether any retry was
    /// needed: such a write-back has lost the async offload pipeline
    /// (the caller counts it in `sync_writebacks`). The victim's data is
    /// never dropped: this returns only once the host store accepted
    /// the block.
    fn write_back(
        &self,
        state: &mut KernelState,
        requester: CoreId,
        victim: VirtPage,
        pages: u64,
        rank: usize,
    ) -> bool {
        let bytes = pages * PageSize::K4.bytes();
        let tier = rank.min(self.cfg.tiers().tiers.len() - 1);
        let mut attempt = 0u32;
        while self.dma_attempt(
            state,
            requester,
            bytes,
            DmaDirection::DeviceToHost,
            tier,
            attempt,
        ) {
            attempt += 1;
            assert!(
                attempt < MAX_RECOVERY_ATTEMPTS,
                "{MAX_RECOVERY_ATTEMPTS} consecutive write-back DMA errors on {victim}"
            );
        }
        let mut store_attempt = 0u32;
        loop {
            let out = state
                .backing
                .try_store(victim, pages, rank, &mut state.injector);
            let stats = &mut state.stats;
            if out.stored {
                self.charge_tier_penalty(stats, requester, out.tier, bytes);
                stats.global.tier_demotions += out.demoted;
                break;
            }
            stats.global.enospc_events += 1;
            self.note_injected(stats, requester, FaultSite::Backing, store_attempt as u64);
            self.charge_backoff(stats, requester, store_attempt, FaultSite::Backing);
            store_attempt += 1;
            assert!(
                store_attempt < MAX_RECOVERY_ATTEMPTS,
                "{MAX_RECOVERY_ATTEMPTS} consecutive ENOSPC failures storing {victim}"
            );
        }
        attempt > 0 || store_attempt > 0
    }

    /// Handles a page fault raised by `core` on the 4 kB page `page`.
    pub fn handle_fault(&self, core: CoreId, page: VirtPage, _write: bool) -> FaultKind {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        state.stats.per_core[core.index()].page_faults += 1;
        let t0 = state.stats.clocks[core.index()].now();
        if R::ENABLED {
            self.tracer
                .record(core.0, t0, EventKind::FaultStart, page.0, 0);
        }
        state.stats.clocks[core.index()].advance(self.cfg.cost.fault_base);

        // Page-table lock (virtual-time serialization), keyed by the
        // block head — by the 2 MB region head in adaptive mode, so every
        // granularity of one region serializes on one virtual resource.
        // The queue bound is the genuine worst case — every core
        // convoying on one lock — with headroom.
        let key = if self.cfg.adaptive {
            page.align_down(PageSize::M2)
        } else {
            self.block_of(page)
        };
        let (lock, hold) = self.lock_for(&mut state.pt_locks, key);
        let t_req = state.stats.clocks[core.index()].now();
        let res = lock.acquire(t_req, hold, 4 * self.cfg.cores as u64 * hold);
        state.stats.per_core[core.index()].lock_wait_cycles += res.queue_delay;
        state.stats.clocks[core.index()].advance_to(res.end);
        if R::ENABLED {
            self.tracer
                .record(core.0, t_req, EventKind::LockAcquire, res.queue_delay, hold);
            self.tracer
                .record(core.0, res.end, EventKind::LockRelease, key.0, 0);
        }

        self.note_residency(&mut state.stats, core, key);
        let kind = if self.cfg.adaptive {
            self.fault_adaptive(state, core, page)
        } else {
            self.fault_fixed(state, core, key)
        };
        let now = state.stats.clocks[core.index()].now();
        let spent = now - t0;
        state.stats.per_core[core.index()].fault_cycles += spent;
        if R::ENABLED {
            let resolution = match kind {
                FaultKind::Major => 0,
                FaultKind::MinorCopy => 1,
                FaultKind::Spurious => 2,
            };
            self.tracer
                .record(core.0, now, EventKind::FaultEnd, resolution, spent);
        }
        kind
    }

    /// The fixed-size fault path for the block at `head`.
    fn fault_fixed(&self, state: &mut KernelState, core: CoreId, head: VirtPage) -> FaultKind {
        let size = self.cfg.block_size;
        let KernelState {
            policy,
            resident,
            numa_used,
            scheme,
            stats,
            ..
        } = &mut *state;
        if let Some(ent) = resident.get_mut(&head.0) {
            // Resident: PSPT minor fault (copy a sibling's PTE).
            // The new core-map count rides in the outcome (read from the
            // directory entry `map` already updated), so the minor path
            // never probes the directory a second time.
            let outcome = with_scheme!(&mut *scheme, s => s.map(core, head, ent.frame, size, true));
            let (probes, map_count) = match outcome {
                Ok(MapOutcome::Copied { probes, map_count }) => (probes, map_count),
                // Resident but unmapped everywhere: the PTEs were torn
                // down by a PSPT rebuild; re-establish this core's
                // mapping (the frame never moved).
                Ok(MapOutcome::Fresh) => (0, 1),
                Err(_) => return FaultKind::Spurious,
            };
            stats.clocks[core.index()].advance(
                self.cfg.cost.pspt_probe * probes as u64
                    + self.cfg.cost.pte_update * self.subentries(),
            );
            policy.on_map_count_change(head, map_count);
            self.numa_on_map(scheme, stats, core, head, &mut ent.numa, numa_used);
            return FaultKind::MinorCopy;
        }
        // Not resident: allocate (evicting when dry). Nothing between
        // here and the insert can make the block resident.
        let mut frame = self.alloc_block(state, core, size);
        self.note_residency(&mut state.stats, core, head);
        if let Some(tin) = state.backing.load(head, size.pages_4k() as u64) {
            frame = self.page_in(state, core, head, size, frame, tin);
        }
        with_scheme!(&mut state.scheme, s => s.map(core, head, frame, size, true))
            .expect("fresh block maps cleanly");
        state.stats.clocks[core.index()].advance(self.cfg.cost.pte_update * self.subentries());
        let numa = self.numa_on_insert(&mut state.stats, core, &mut state.numa_used);
        state
            .resident
            .insert(head.0, Resident { frame, size, numa });
        state.policy.on_insert(head, 1);
        FaultKind::Major
    }

    /// Adaptive-mode fault path: like [`Vmm::fault_fixed`], but the
    /// mapping granularity is chosen per 2 MB region by the pressure
    /// controller instead of fixed by the configuration, and device RAM
    /// comes from the buddy pool.
    fn fault_adaptive(&self, state: &mut KernelState, core: CoreId, page: VirtPage) -> FaultKind {
        let m2 = page.align_down(PageSize::M2);
        if let Some((head, ent)) = covering_entry(&state.resident, page) {
            // Resident at some granularity: PSPT minor fault.
            let outcome =
                with_scheme!(&mut state.scheme, s => s.map(core, head, ent.frame, ent.size, true));
            let (probes, map_count) = match outcome {
                Ok(MapOutcome::Copied { probes, map_count }) => (probes, map_count),
                Ok(MapOutcome::Fresh) => (0, 1),
                Err(_) => return FaultKind::Spurious,
            };
            state.stats.clocks[core.index()].advance(
                self.cfg.cost.pspt_probe * probes as u64
                    + self.cfg.cost.pte_update * Self::subentries_of(ent.size),
            );
            state.policy.on_map_count_change(head, map_count);
            return FaultKind::MinorCopy;
        }
        // Not resident: the region's granularity, or the pressure
        // controller's pick for a fresh region.
        let size = match state.regions.get(&m2.0) {
            Some(r) => r.0,
            None => adaptive_target(state.frames.buddy()),
        };
        let head = page.align_down(size);
        let mut frame = self.alloc_block(state, core, size);
        // Allocation only evicts and splits: a split victim in this
        // region is at most as large as `size` (a larger block would
        // cover `page`), so neither the page's residency nor the
        // region's granularity can have changed.
        debug_assert!(
            covering_entry(&state.resident, page).is_none()
                && state.regions.get(&m2.0).map_or(size, |r| r.0) == size,
            "allocation changed the faulting region"
        );
        self.note_residency(&mut state.stats, core, head);
        if let Some(tin) = state.backing.load(head, size.pages_4k() as u64) {
            frame = self.page_in(state, core, head, size, frame, tin);
        }
        with_scheme!(&mut state.scheme, s => s.map(core, head, frame, size, true))
            .expect("fresh block maps cleanly");
        state.stats.clocks[core.index()]
            .advance(self.cfg.cost.pte_update * Self::subentries_of(size));
        // NUMA budgets count blocks of one size, so adaptive runs (one
        // node only) charge none (see [`Frames`]).
        let numa = BlockNuma::default();
        state
            .resident
            .insert(head.0, Resident { frame, size, numa });
        state.regions.entry(m2.0).or_insert((size, 0)).1 += 1;
        state.policy.on_insert(head, 1);
        FaultKind::Major
    }

    /// DMAs a `size` block with real content on the host (`tin`) into
    /// `frame`, riding out injected transfer errors, and returns the
    /// frame it landed in. A failed attempt may have torn a partial
    /// block into the frame, so the frame is quarantined (while the
    /// pool has headroom) and the retry lands in a fresh one; when
    /// frames are scarce the same frame is reused — the retried DMA
    /// overwrites the torn data in full.
    fn page_in(
        &self,
        state: &mut KernelState,
        core: CoreId,
        head: VirtPage,
        size: PageSize,
        mut frame: PhysFrame,
        tin: LoadOutcome,
    ) -> PhysFrame {
        let mut attempt = 0u32;
        while self.dma_attempt(
            state,
            core,
            size.bytes(),
            DmaDirection::HostToDevice,
            tin.tier,
            attempt,
        ) {
            attempt += 1;
            assert!(
                attempt < MAX_RECOVERY_ATTEMPTS,
                "{MAX_RECOVERY_ATTEMPTS} consecutive page-in DMA errors on {head}"
            );
            if state.frames.usable_pages() > (self.cfg.cores * size.pages_4k()) as u64 {
                state.frames.quarantine(frame, size);
                state.stats.per_core[core.index()].quarantines += 1;
                state.stats.global.quarantined_frames += 1;
                if R::ENABLED {
                    self.tracer.record(
                        core.0,
                        state.stats.clocks[core.index()].now(),
                        EventKind::Quarantine,
                        frame.0 as u64,
                        head.0,
                    );
                }
                frame = self.alloc_block(state, core, size);
                self.note_residency(&mut state.stats, core, head);
            }
        }
        self.charge_tier_penalty(&mut state.stats, core, tin.tier, size.bytes());
        state.stats.global.tier_promotions += tin.promoted;
        state.stats.global.refaults += 1;
        frame
    }

    /// Acquires a free `size` block for `requester`, evicting while the
    /// allocator is dry. Fixed-size runs hand the victim's frame to the
    /// requester directly, so frames never return to the pool; adaptive
    /// runs free the victim into the buddy pool and retry, since
    /// coalescing decides what the freed pages can satisfy.
    fn alloc_block(&self, state: &mut KernelState, requester: CoreId, size: PageSize) -> PhysFrame {
        const DRY: &str = "device RAM exhausted but policy tracks no blocks";
        if !self.cfg.adaptive {
            if let Some(frame) = state.frames.pool().alloc() {
                return frame;
            }
            let victim = self.evict_one(state, requester, size).expect(DRY);
            self.numa_on_evict(
                &mut state.stats,
                requester,
                victim.numa,
                &mut state.numa_used,
            );
            return victim.frame;
        }
        loop {
            if let Some(frame) = state.frames.buddy().alloc(size) {
                return frame;
            }
            let victim = self.evict_one(state, requester, size).expect(DRY);
            state.frames.buddy().free(victim.frame, victim.size);
        }
    }

    /// Evicts one victim of at most `want` pages and returns its entry:
    /// unmapped everywhere, mapping TLBs shot down, dirty data written
    /// back. Returns `None` when the policy tracks no block. The caller
    /// releases the frame and, on fixed-size runs, the NUMA budget.
    ///
    /// This is where page-size adaptation meets CMCP: when the policy
    /// picks a victim *larger* than the granularity pressure currently
    /// wants (adaptive runs only — every fixed-size block is `want`
    /// pages), the victim is split in place — a radix-node rewrite, no
    /// shootdown, no DMA — its children re-enter the policy with the
    /// parent's map count, and the pick repeats. Only blocks already at
    /// (or below) the wanted size are actually evicted, so high
    /// pressure sheds small amounts of data at a time.
    fn evict_one(
        &self,
        state: &mut KernelState,
        requester: CoreId,
        want: PageSize,
    ) -> Option<Resident> {
        let KernelState {
            policy,
            resident,
            pending_dirty,
            regions,
            scheme,
            mailboxes,
            stats,
            ..
        } = &mut *state;
        let (victim, ent, dirty, map_count) = loop {
            let victim = policy.select_victim(&mut KernelOracle {
                vmm: self,
                resident,
                scheme,
                mailboxes,
                stats,
                requester: Some(requester),
            })?;
            if R::ENABLED {
                let count = with_scheme!(&*scheme, s => s.mapping_cores(victim)).count() as u64;
                let group = policy.victim_group(victim) as u64;
                self.tracer.record(
                    requester.0,
                    stats.clocks[requester.index()].now(),
                    EventKind::VictimSelect,
                    victim.0,
                    (count << 8) | group,
                );
            }
            self.note_residency(stats, requester, victim);
            let m2 = victim.align_down(PageSize::M2);
            let ent = resident
                .remove(&victim.0)
                .expect("victim tracked in resident map");
            if ent.size > want {
                // Split instead of evicting: the policy re-decides over
                // the children, each inheriting the parent's map count
                // (the CMCP signal survives the granularity change).
                let mc = with_scheme!(&*scheme, s => s.mapping_cores(victim)).count();
                let child = with_scheme!(&mut *scheme, s => s.split_block(victim, ent.size))
                    .unwrap_or_else(|| {
                        // Resident but unmapped everywhere (post-rebuild):
                        // nothing to rewrite in the tables, the residency
                        // metadata still splits.
                        ent.size.split_child().expect("split of a >4 kB block")
                    });
                let cspan = child.pages_4k() as u64;
                let children = ent.size.pages_4k() / child.pages_4k();
                let owed = pending_dirty.remove(&victim.0);
                for k in 0..children as u64 {
                    let chead = VirtPage(victim.0 + k * cspan);
                    resident.insert(
                        chead.0,
                        Resident {
                            frame: ent.frame.add((k * cspan) as u32),
                            size: child,
                            ..ent
                        },
                    );
                    if owed {
                        // The parent's write-back debt covers every byte;
                        // each child now owes its share.
                        pending_dirty.insert(chead.0);
                    }
                }
                let r = regions.entry(m2.0).or_insert((ent.size, 1));
                r.0 = child;
                r.1 += children as u32 - 1;
                // One PTE rewrite per new head (the radix rewrite touched
                // every sub-entry, but those writes displace the unmap +
                // remap a whole-block eviction would have cost).
                stats.clocks[requester.index()].advance(self.cfg.cost.pte_update * children as u64);
                stats.global.block_splits += 1;
                // The parent leaves, the children enter with its count.
                policy.on_evict(victim);
                for k in 0..children as u64 {
                    policy.on_insert(VirtPage(victim.0 + k * cspan), mc);
                }
                continue;
            }
            // The region map counts adaptive runs' blocks only.
            if let Some(r) = regions.get_mut(&m2.0) {
                r.1 -= 1;
                if r.1 == 0 {
                    // The next fault in this region re-consults the
                    // pressure controller from scratch.
                    regions.remove(&m2.0);
                }
            }
            // Write-back debt only exists after a PSPT rebuild; the length
            // check spares the common eviction a pointless hash probe.
            let mut dirty = !pending_dirty.is_empty() && pending_dirty.remove(&victim.0);
            // A victim with no mappings is possible right after a PSPT
            // rebuild: resident, but every PTE already torn down.
            let out = with_scheme!(&mut *scheme, s => s.unmap_all(victim, ent.size));
            let mut map_count = 0u32;
            if let Some(out) = &out {
                stats.clocks[requester.index()]
                    .advance(self.cfg.cost.pte_update * out.ptes_removed as u64);
                let span = ent.size.pages_4k() as u32;
                self.shootdown(
                    stats,
                    mailboxes,
                    Some(requester),
                    victim,
                    span,
                    &out.mappers,
                );
                dirty |= out.dirty;
                map_count = out.mappers.count() as u32;
            }
            break (victim, ent, dirty, map_count);
        };
        if dirty {
            // CMCP's priority signal also drives *how far down* the
            // hierarchy a victim goes: widely shared blocks land in
            // the fastest tier that can take them, private blocks
            // sink.
            let rank = self.cfg.tiers().demotion_rank(map_count);
            let pages = ent.size.pages_4k() as u64;
            let retried = self.write_back(state, requester, victim, pages, rank);
            // A write-back that needed a retry, or that ran after
            // offload-engine death, lost the async offload pipeline.
            if retried || state.offload_dead {
                state.stats.global.sync_writebacks += 1;
            }
            state.stats.global.writebacks += 1;
        }
        state.policy.on_evict(victim);
        state.stats.global.evictions += 1;
        Some(ent)
    }

    /// One statistics-scan timer tick (every `scan_period` cycles of
    /// virtual time, run by dedicated hyperthreads in the paper's setup).
    pub fn scan_tick(&self) {
        let mut state = self.state.borrow_mut();
        let KernelState {
            policy,
            resident,
            scheme,
            mailboxes,
            stats,
            ..
        } = &mut *state;
        if !policy.wants_periodic_scan() {
            return;
        }
        let budget = if self.cfg.scan_budget > 0 {
            self.cfg.scan_budget
        } else {
            (policy.resident() / 8).max(32)
        };
        policy.scan_tick(
            budget,
            &mut KernelOracle {
                vmm: self,
                resident,
                scheme,
                mailboxes,
                stats,
                requester: None,
            },
        );
        stats.global.scan_ticks += 1;
    }
}

/// Pressure controller: the mapping granularity for the next fresh
/// region, from the buddy pool's free ratio. Plenty of headroom → 2 MB
/// mappings (fewest faults, fewest PTEs); moderate pressure → 64 kB; a
/// nearly full pool → 4 kB so eviction displaces the least data.
/// Thresholds are in 1/256ths of the pool.
fn adaptive_target(b: &BuddyPool) -> PageSize {
    let ratio = b.free_pages() * 256 / b.total_pages().max(1);
    if ratio >= 128 {
        PageSize::M2
    } else if ratio >= 32 {
        PageSize::K64
    } else {
        PageSize::K4
    }
}

/// The resident entry covering `page` at any granularity, with its head.
fn covering_entry(
    resident: &FxHashMap<u64, Resident>,
    page: VirtPage,
) -> Option<(VirtPage, Resident)> {
    PageSize::ALL.iter().find_map(|&s| {
        let head = page.align_down(s);
        resident
            .get(&head.0)
            .filter(|ent| ent.size == s)
            .map(|&ent| (head, ent))
    })
}

/// The kernel-side implementation of [`AccessBitOracle`]: every query is
/// a real PTE scan with real shootdowns.
struct KernelOracle<'a, R: Recorder> {
    vmm: &'a Vmm<R>,
    /// The parts of the kernel state a scan touches, borrowed from the
    /// state its caller holds: borrowing the cell again would panic.
    resident: &'a FxHashMap<u64, Resident>,
    scheme: &'a mut SchemeObj,
    mailboxes: &'a mut [Vec<(VirtPage, u32)>],
    stats: &'a mut KernelStats,
    /// `Some(core)`: reclaim path, costs charged to the faulting core.
    /// `None`: the scan timer's dedicated hyperthreads.
    requester: Option<CoreId>,
}

impl<R: Recorder> AccessBitOracle for KernelOracle<'_, R> {
    fn test_and_clear(&mut self, block: VirtPage) -> bool {
        // Adaptive mode: the policy tracks mixed-size blocks, so look up
        // the victim candidate's actual granularity.
        let size = if self.vmm.cfg.adaptive {
            self.resident
                .get(&block.0)
                .map(|ent| ent.size)
                .unwrap_or(self.vmm.cfg.block_size)
        } else {
            self.vmm.cfg.block_size
        };
        let scan = with_scheme!(&mut *self.scheme, s => s.test_and_clear_accessed(block, size));
        self.stats.global.scan_ptes += scan.ptes_examined as u64;
        if let Some(core) = self.requester {
            self.stats.clocks[core.index()]
                .advance(self.vmm.cfg.cost.scan_pte * scan.ptes_examined as u64);
        }
        if R::ENABLED {
            let (core, ts, charged) = match self.requester {
                Some(c) => (
                    c.0,
                    self.stats.clocks[c.index()].now(),
                    self.vmm.cfg.cost.scan_pte * scan.ptes_examined as u64,
                ),
                None => (MAINTENANCE_CORE, self.stats.maintenance_now(), 0),
            };
            self.vmm.tracer.record(
                core,
                ts,
                EventKind::PolicyScan,
                scan.ptes_examined as u64,
                charged,
            );
        }
        if scan.accessed && !scan.invalidate.is_empty() {
            // x86 requirement: a cleared accessed bit forces the cached
            // translation out of every affected TLB (paper §3).
            self.vmm.shootdown(
                self.stats,
                self.mailboxes,
                self.requester,
                block,
                size.pages_4k() as u32,
                &scan.invalidate,
            );
        }
        scan.accessed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcp_core::PolicyKind;

    fn vmm(cores: usize, blocks: usize) -> Vmm {
        Vmm::new(KernelConfig::new(cores, blocks))
    }

    /// Residency transactions counted against `core` so far.
    fn transactions(v: &Vmm, core: usize) -> u64 {
        v.core_stats()[core].shard_lock_acquires
    }

    #[test]
    fn first_touch_fault_maps_block() {
        let v = vmm(2, 4);
        let k = v.handle_fault(CoreId(0), VirtPage(100), false);
        assert_eq!(k, FaultKind::Major);
        assert!(v.translate(CoreId(0), VirtPage(100)).is_some());
        assert_eq!(v.resident_blocks(), 1);
        assert_eq!(v.core_stats()[0].page_faults, 1);
        // First touch: no DMA (zero-fill), no eviction.
        assert_eq!(v.dma().bytes_in(), 0);
        assert_eq!(v.global_stats().evictions, 0);
        // A fresh major: the lookup and the insert.
        assert_eq!(transactions(&v, 0), 2);
    }

    #[test]
    fn pspt_minor_fault_copies_pte() {
        let v = vmm(2, 4);
        v.handle_fault(CoreId(0), VirtPage(100), false);
        let k = v.handle_fault(CoreId(1), VirtPage(100), false);
        assert_eq!(k, FaultKind::MinorCopy);
        assert!(v.translate(CoreId(1), VirtPage(100)).is_some());
        assert_eq!(v.resident_blocks(), 1, "still one resident block");
        let hist = v.sharing_histogram().unwrap();
        assert_eq!(hist[1], 1, "one block mapped by exactly 2 cores");
        // A minor fault: the lookup alone.
        assert_eq!(transactions(&v, 1), 1);
    }

    #[test]
    fn eviction_when_pool_exhausted() {
        let v = vmm(1, 2);
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(0), VirtPage(1), false);
        assert_eq!(v.pool_free_blocks(), Some(0));
        let before = transactions(&v, 0);
        v.handle_fault(CoreId(0), VirtPage(2), false);
        // An evicting major: the lookup, the victim and the insert.
        assert_eq!(transactions(&v, 0), before + 3);
        assert_eq!(v.resident_blocks(), 2);
        assert_eq!(v.global_stats().evictions, 1);
        // FIFO: block 0 was evicted.
        assert!(v.translate(CoreId(0), VirtPage(0)).is_none());
        assert!(v.translate(CoreId(0), VirtPage(2)).is_some());
    }

    #[test]
    fn clean_eviction_skips_writeback_dirty_pays_it() {
        let v = vmm(1, 1);
        v.handle_fault(CoreId(0), VirtPage(0), false); // read only
        v.handle_fault(CoreId(0), VirtPage(1), false); // evicts clean block 0
        assert_eq!(v.global_stats().writebacks, 0);
        assert_eq!(v.dma().bytes_out(), 0);
        // Dirty the resident block, then evict it.
        v.mark_accessed(CoreId(0), VirtPage(1), true);
        v.handle_fault(CoreId(0), VirtPage(2), false);
        assert_eq!(v.global_stats().writebacks, 1);
        assert_eq!(v.dma().bytes_out(), 4096);
    }

    #[test]
    fn refault_of_written_back_block_costs_dma_in() {
        let v = vmm(1, 1);
        v.handle_fault(CoreId(0), VirtPage(0), true);
        v.mark_accessed(CoreId(0), VirtPage(0), true); // dirty
        v.handle_fault(CoreId(0), VirtPage(1), false); // evict + write back 0
        assert_eq!(v.dma().bytes_in(), 0);
        v.handle_fault(CoreId(0), VirtPage(0), false); // refault 0 from host
        assert_eq!(v.dma().bytes_in(), 4096);
        assert_eq!(v.global_stats().refaults, 1);
    }

    #[test]
    fn eviction_shoots_down_mapping_cores_only_under_pspt() {
        let v = Vmm::new(KernelConfig::new(8, 2));
        // Block 0 mapped by cores 0 and 1; block 1 by core 2.
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(1), VirtPage(0), false);
        v.handle_fault(CoreId(2), VirtPage(1), false);
        // Core 3 faults a new block: FIFO evicts block 0 → shootdown to
        // cores 0 and 1 only.
        v.handle_fault(CoreId(3), VirtPage(2), false);
        let recv: Vec<u64> = (0..8)
            .map(|c| v.core_stats()[c].remote_inv_received)
            .collect();
        assert_eq!(recv[0], 1);
        assert_eq!(recv[1], 1);
        assert_eq!(recv[2], 0, "core2 does not map block 0");
        assert_eq!(recv[3..].iter().sum::<u64>(), 0);
        // Each target's mailbox holds the invalidation, and no other's.
        for c in 0..8 {
            let mut out = Vec::new();
            v.drain_invalidations(CoreId(c), &mut out);
            let want = if c < 2 {
                vec![(VirtPage(0), 1)]
            } else {
                vec![]
            };
            assert_eq!(out, want, "core {c}'s mailbox");
        }
    }

    #[test]
    fn regular_tables_broadcast_on_eviction() {
        let v = Vmm::new(KernelConfig::new(8, 2).with_scheme(SchemeChoice::Regular));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(0), VirtPage(1), false);
        v.handle_fault(CoreId(0), VirtPage(2), false); // evicts block 0
        let recv: u64 = (1..8).map(|c| v.core_stats()[c].remote_inv_received).sum();
        assert_eq!(recv, 7, "all other cores interrupted");
        assert!(v.core_stats()[0].remote_inv_sent >= 7);
    }

    /// A 4-core PSPT + FIFO kernel over `blocks` device blocks on the
    /// `2node` preset: cores 0–1 on node 0, cores 2–3 on node 1.
    fn two_node(blocks: usize) -> Vmm {
        let mut cfg = KernelConfig::new(4, blocks)
            .with_policy(PolicyKind::Fifo)
            .with_scheme(SchemeChoice::Pspt);
        cfg.cost.numa = cmcp_arch::NumaConfig::parse("2node").unwrap();
        Vmm::new(cfg)
    }

    #[test]
    fn rebuild_clears_every_replica() {
        let v = two_node(8);
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(2), VirtPage(0), false);
        v.handle_fault(CoreId(2), VirtPage(64), false);
        assert_eq!(v.numa_block_state(VirtPage(0)).unwrap().mask, 0b11);
        let before = v.numa_stats().replica_invalidations;
        assert_eq!(v.rebuild_pspt(), Some(2));
        let dropped = v.numa_stats().replica_invalidations - before;
        assert_eq!(dropped, 3);
        assert_eq!(v.numa_block_state(VirtPage(0)).unwrap().mask, 0);
        assert_eq!(v.numa_block_state(VirtPage(64)).unwrap().mask, 0);
        // Budgets untouched: frames never moved.
        assert_eq!(v.numa_used(), vec![1, 1]);
    }

    #[test]
    fn eviction_takes_the_numa_state_with_the_resident_entry() {
        // One block per node.
        let v = two_node(2);
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(2), VirtPage(0), false);
        // Node 0 is full: the next local insert spills to node 1.
        v.handle_fault(CoreId(0), VirtPage(1), false);
        assert_eq!(v.numa_block_state(VirtPage(1)).unwrap().home, 1);
        assert_eq!(v.numa_used(), vec![1, 1]);
        v.handle_fault(CoreId(0), VirtPage(2), false); // FIFO evicts block 0
        assert!(v.numa_block_state(VirtPage(0)).is_none());
        assert_eq!(
            v.numa_stats().replica_invalidations,
            2,
            "both replicas dropped"
        );
        assert_eq!(v.numa_block_state(VirtPage(2)).unwrap().home, 0);
        assert_eq!(v.numa_used(), vec![1, 1]);
    }

    #[test]
    fn remote_charges_land_on_target_clocks() {
        let v = Vmm::new(KernelConfig::new(4, 1));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(1), VirtPage(0), false);
        let before = v.clocks()[1].now();
        // Core 2 faults; eviction of block 0 interrupts cores 0 and 1.
        v.handle_fault(CoreId(2), VirtPage(1), false);
        assert!(v.clocks()[1].now() > before, "target clock charged");
    }

    #[test]
    fn offload_syscall_blocks_only_its_caller() {
        let v = vmm(2, 4);
        let wait = v.offload_syscall(CoreId(0), Syscall::Write(64 << 10));
        assert!(wait > 15_000, "at least the host service time: {wait}");
        assert_eq!(v.clocks()[0].now(), wait);
        assert_eq!(v.clocks()[1].now(), 0);
        let ikc = v.offload();
        assert_eq!((ikc.requests(), ikc.payload_bytes()), (1, 64 << 10));
    }

    #[test]
    fn lru_scan_tick_causes_remote_invalidations_cmcp_does_not() {
        let run = |policy: PolicyKind| -> u64 {
            let v = Vmm::new(KernelConfig::new(4, 8).with_policy(policy));
            for b in 0..4u64 {
                v.handle_fault(CoreId(0), VirtPage(b), false);
                v.handle_fault(CoreId(1), VirtPage(b), false);
                // Hardware sets the accessed bit when the cores touch the
                // freshly mapped pages.
                v.mark_accessed(CoreId(0), VirtPage(b), false);
                v.mark_accessed(CoreId(1), VirtPage(b), false);
            }
            v.scan_tick();
            (0..4).map(|c| v.core_stats()[c].remote_inv_received).sum()
        };
        assert!(
            run(PolicyKind::Lru) > 0,
            "LRU scanning must shoot down TLBs"
        );
        assert_eq!(run(PolicyKind::Cmcp { p: 0.75 }), 0, "CMCP never scans");
        assert_eq!(run(PolicyKind::Fifo), 0, "FIFO never scans");
    }

    #[test]
    fn cmcp_uses_map_counts_from_pspt() {
        // Three blocks: one private, one mapped by all 4 cores, capacity
        // 2. With p=0.5 (priority target 1), the shared block must
        // survive the private ones.
        let v = Vmm::new(KernelConfig::new(4, 2).with_policy(PolicyKind::Cmcp { p: 0.5 }));
        v.handle_fault(CoreId(0), VirtPage(0), false); // becomes shared
        for c in 1..4u16 {
            v.handle_fault(CoreId(c), VirtPage(0), false);
        }
        v.handle_fault(CoreId(0), VirtPage(1), false); // private
                                                       // Fault a third block: victim must be the private block 1, not
                                                       // the 4-core block 0.
        v.handle_fault(CoreId(1), VirtPage(2), false);
        assert!(
            v.translate(CoreId(0), VirtPage(0)).is_some(),
            "shared block survives"
        );
        assert!(
            v.translate(CoreId(0), VirtPage(1)).is_none(),
            "private block evicted"
        );
    }

    #[test]
    fn lock_contention_is_recorded_for_regular_tables() {
        let v = Vmm::new(KernelConfig::new(2, 4).with_scheme(SchemeChoice::Regular));
        // Two cores fault at the same virtual time: the second queues.
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.handle_fault(CoreId(1), VirtPage(1), false);
        assert!(v.lock_queue_cycles() > 0, "global PT lock must serialize");
    }

    #[test]
    fn spurious_fault_under_regular_tables() {
        let v = Vmm::new(KernelConfig::new(2, 4).with_scheme(SchemeChoice::Regular));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        // Core 1 faults the block core 0 already mapped in the shared
        // table: a direct caller skipping the engine's walk re-probe.
        let k = v.handle_fault(CoreId(1), VirtPage(0), false);
        assert_eq!(k, FaultKind::Spurious);
        assert_eq!(v.resident_blocks(), 1);
    }

    #[test]
    fn block_size_64k_moves_64k_per_transfer() {
        let v = Vmm::new(KernelConfig::new(1, 1).with_block_size(PageSize::K64));
        v.handle_fault(CoreId(0), VirtPage(0), false);
        v.mark_accessed(CoreId(0), VirtPage(3), true); // dirty a sub-page
        v.handle_fault(CoreId(0), VirtPage(16), false); // evict block 0
        assert_eq!(v.dma().bytes_out(), 65536);
        // Any sub-page of block 0 faults again → 64 kB DMA in.
        v.handle_fault(CoreId(0), VirtPage(5), false);
        assert_eq!(v.dma().bytes_in(), 65536);
    }

    #[test]
    fn fault_on_any_subpage_maps_whole_block() {
        let v = Vmm::new(KernelConfig::new(1, 2).with_block_size(PageSize::K64));
        v.handle_fault(CoreId(0), VirtPage(0x4a), false);
        for p in 0x40..0x50u64 {
            assert!(v.translate(CoreId(0), VirtPage(p)).is_some(), "page {p:#x}");
        }
    }
}
