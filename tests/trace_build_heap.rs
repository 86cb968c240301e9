//! Heap high-water mark of a CG trace build, counted by a wrapping
//! global allocator: deterministic, with no wall clock.
//!
//! The bound is in bytes. Phase 1 is stored once and replayed, so the
//! finished trace is small next to the matrix pattern it is walked
//! from, and the pattern sets the peak: the build gives the pattern back
//! row block by row block while it logs phase 1, so the two never sit
//! on the heap whole at once. Every finished trace, CG's and those of
//! the workloads that log without sizing their vectors (LU, BT, SCALE),
//! holds its ops with no spare capacity.
//!
//! This binary holds exactly one test, so nothing else allocates while it
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cmcp::workloads::cg::{cg_trace, CgConfig};
use cmcp::{Workload, WorkloadClass};

/// Counts live heap bytes and their high-water mark. The counters
/// publish no other data, so `Relaxed` suffices. `alloc_zeroed` keeps
/// its default, which goes through `alloc`.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as a resize in place: a moving realloc's transient
            // copy is the allocator's, not the caller's.
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most live heap bytes cg.B's trace build may reach on 16 cores.
const PEAK_BOUND: usize = 2_500_000;

#[test]
fn cg_trace_build_peaks_near_the_finished_trace() {
    let cfg = CgConfig::class_b();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let trace = cg_trace(16, &cfg);
    let live = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let ratio = peak as f64 / live as f64;
    eprintln!(
        "cg.B trace build: peak {peak} B (bound {PEAK_BOUND} B), finished trace {live} B, {ratio:.4}×"
    );
    assert!(
        peak <= PEAK_BOUND,
        "cg.B trace build peaked at {peak} heap bytes, over {PEAK_BOUND}; the finished trace holds {live}"
    );
    for (c, core) in trace.cores.iter().enumerate() {
        assert_eq!(
            core.ops.capacity(),
            core.ops.len(),
            "core {c}'s op vector holds spare capacity"
        );
    }
    drop(trace);
    for w in [
        Workload::Lu(WorkloadClass::B),
        Workload::Bt(WorkloadClass::B),
        Workload::Scale(WorkloadClass::B),
    ] {
        let trace = w.trace(16);
        let ops: usize = trace.cores.iter().map(|c| c.ops.len()).sum();
        eprintln!(
            "{}: {} B of ops",
            w.label(),
            ops * std::mem::size_of::<cmcp::sim::Op>()
        );
        for (c, core) in trace.cores.iter().enumerate() {
            assert_eq!(
                core.ops.capacity(),
                core.ops.len(),
                "{} core {c}'s op vector holds spare capacity",
                w.label()
            );
        }
    }
}
