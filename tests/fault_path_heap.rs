//! Heap allocations on the steady-state fault path, counted by a
//! wrapping global allocator: deterministic, with no wall clock.
//!
//! Once every container on the path has grown to its working size, an
//! evicting major fault with a write-back and a DMA refault must not
//! touch the heap — under FIFO and under CMCP, whose priority group is a
//! set of lazily pruned queues; on the flat hierarchy's one tier over one
//! NUMA node, and on the 4-tier hierarchy over two nodes, where
//! write-backs also cascade between tiers and inserts may spill across
//! node budgets. Both run the same span store and per-node books. This
//! binary holds exactly one test, so nothing else allocates while it
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use cmcp::arch::{CoreId, VirtPage};
use cmcp::{KernelConfig, NumaConfig, PolicyKind, SchemeChoice, TierConfig, Vmm};

/// Counts heap acquisitions: every allocation and every growing
/// reallocation. The counter publishes no other data, so `Relaxed`
/// suffices. `alloc_zeroed` keeps its default, which goes through
/// `alloc`.
struct Counting;

#[allow(
    clippy::disallowed_types,
    reason = "a global allocator counts through a static, which must be atomic"
)]
static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const BLOCKS: usize = 64;
const PAGES: u64 = 256;
const MEASURED_FAULTS: u64 = 2_048;

/// Touches `PAGES` dirty 4 kB pages round-robin over `cores` cores with
/// `BLOCKS` device blocks under `policy`, as the engine's phase A would:
/// a touch whose walk finds no translation faults, and every mailbox is
/// drained after each touch — on the flat single-node store, or with
/// `tiered` on the `4tier` hierarchy over `2node`. After `warm_laps`
/// warm-up laps, returns the heap acquisitions made during the next
/// `MEASURED_FAULTS` faults and the touches they took.
fn steady_state(cores: usize, tiered: bool, policy: PolicyKind, warm_laps: u64) -> (u64, u64) {
    let mut cfg = KernelConfig::new(cores, BLOCKS)
        .with_policy(policy)
        .with_scheme(SchemeChoice::Pspt);
    if tiered {
        cfg = cfg.with_tiers(TierConfig::parse("4tier").unwrap());
        cfg.cost.numa = NumaConfig::parse("2node").unwrap();
    }
    let vmm = Vmm::new(cfg);
    assert_eq!(
        vmm.config().tiers().is_flat(),
        !tiered,
        "the store under test"
    );
    assert_eq!(
        vmm.cost().numa.is_single(),
        !tiered,
        "the topology under test"
    );
    let mut drained = Vec::with_capacity(4 * PAGES as usize);
    // Returns whether the touch faulted.
    let mut touch = |i: u64| {
        let core = CoreId((i % cores as u64) as u16);
        let page = VirtPage(i % PAGES);
        let faulted = vmm.mark_accessed(core, page, true).is_none();
        if faulted {
            vmm.handle_fault(core, page, true);
            vmm.mark_accessed(core, page, true);
        }
        for c in 0..cores {
            vmm.drain_invalidations(CoreId(c as u16), &mut drained);
            drained.clear();
        }
        faulted
    };
    let warm = warm_laps * PAGES;
    for i in 0..warm {
        touch(i);
    }
    let evictions = vmm.global_stats().evictions;
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut i = warm;
    let mut faults = 0;
    while faults < MEASURED_FAULTS {
        faults += u64::from(touch(i));
        i += 1;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        vmm.global_stats().evictions - evictions,
        MEASURED_FAULTS,
        "every measured fault must evict"
    );
    (allocs, i - warm)
}

#[test]
fn steady_state_evicting_faults_allocate_nothing() {
    // FIFO faults on every touch: each page was evicted since its last
    // one. CMCP keeps half the blocks in its priority group, so some
    // touches hit a page that is still mapped. Its lazily pruned queues
    // reach their working size later than FIFO's containers (about 10
    // laps here), so its legs warm up longer.
    for (policy, warm_laps, touches) in [
        (PolicyKind::Fifo, 8, MEASURED_FAULTS),
        (PolicyKind::Cmcp { p: 0.5 }, 64, 2_304),
    ] {
        for tiered in [false, true] {
            let store = if tiered { "4tier on 2node" } else { "flat" };
            for cores in [1, 4] {
                let leg = format!("{policy:?}, {store}, {cores} core(s)");
                let (allocs, touched) = steady_state(cores, tiered, policy, warm_laps);
                assert_eq!(touched, touches, "{leg}: touches");
                assert_eq!(
                    allocs, 0,
                    "{leg}: heap allocations over {MEASURED_FAULTS} evicting faults"
                );
            }
        }
    }
}
