//! Heap allocations on the steady-state fault path, counted by a
//! wrapping global allocator: deterministic, with no wall clock.
//!
//! Once every container on the path has grown to its working size, an
//! evicting major fault with a write-back and a DMA refault must not
//! touch the heap. This binary holds exactly one test, so nothing else
//! allocates while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cmcp::arch::{CoreId, VirtPage};
use cmcp::{KernelConfig, PolicyKind, SchemeChoice, Vmm};

/// Counts heap acquisitions: every allocation and every growing
/// reallocation. The counter publishes no other data, so `Relaxed`
/// suffices. `alloc_zeroed` keeps its default, which goes through
/// `alloc`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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
const WARM_LAPS: u64 = 8;
const MEASURED_FAULTS: u64 = 2_048;

/// Faults `PAGES` dirty 4 kB pages round-robin over `cores` cores into
/// `BLOCKS` device blocks under FIFO, draining every mailbox after each
/// fault as the engine's phase A would. Returns the heap acquisitions
/// made during `MEASURED_FAULTS` faults after `WARM_LAPS` warm-up laps.
fn steady_state_allocations(cores: usize) -> u64 {
    let vmm = Vmm::new(
        KernelConfig::new(cores, BLOCKS)
            .with_policy(PolicyKind::Fifo)
            .with_scheme(SchemeChoice::Pspt),
    );
    assert!(
        vmm.config().tiers().is_flat(),
        "the flat store is the subject"
    );
    let mut drained = Vec::with_capacity(4 * PAGES as usize);
    let mut fault = |i: u64| {
        let core = CoreId((i % cores as u64) as u16);
        let page = VirtPage(i % PAGES);
        vmm.handle_fault(core, page, true);
        vmm.mark_accessed(core, page, true);
        for c in 0..cores {
            vmm.drain_invalidations(CoreId(c as u16), &mut drained);
            drained.clear();
        }
    };
    let warm = WARM_LAPS * PAGES;
    for i in 0..warm {
        fault(i);
    }
    let evictions = vmm.global_stats().snapshot().evictions;
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in warm..warm + MEASURED_FAULTS {
        fault(i);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        vmm.global_stats().snapshot().evictions - evictions,
        MEASURED_FAULTS,
        "every measured fault must evict"
    );
    allocs
}

#[test]
fn steady_state_evicting_faults_allocate_nothing() {
    for cores in [1, 4] {
        assert_eq!(
            steady_state_allocations(cores),
            0,
            "{cores} core(s): heap allocations over {MEASURED_FAULTS} evicting faults"
        );
    }
}
