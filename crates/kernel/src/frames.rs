//! The device-RAM frame pool for fixed-size runs.
//!
//! Physical memory on the co-processor is handed out in *blocks*: aligned
//! runs of 4 kB frames matching the experiment's page size (1, 16 or 512
//! frames). Each experiment fixes one block size, mirroring how the
//! paper's kernel dedicates a physically contiguous region to the PSPT
//! computation area.
//!
//! No frame ever returns to the pool: an eviction hands its victim's
//! frame straight to the faulting core, and a poisoned frame leaves
//! circulation for good. So the pool's free stack is exactly the blocks
//! never handed out, served lowest address first, and a cursor over them
//! is the whole allocator. Frame numbers are opaque to the simulation —
//! no counter or report depends on *which* block a page lands in.
//!
//! The pool lives in the kernel's single-writer state
//! (`vmm::KernelState`), so it needs no synchronization of its own.

use cmcp_arch::{PageSize, PhysFrame};

/// Fixed-block-size frame allocator over the device RAM.
#[derive(Debug)]
pub(crate) struct FramePool {
    /// 4 kB frames per block.
    span: u32,
    total_blocks: usize,
    /// Blocks handed out so far; the free stack is `next..total_blocks`.
    next: usize,
    /// Blocks parked after an unrecoverable page-in error.
    quarantined: usize,
}

impl FramePool {
    /// A pool of `blocks` blocks of `block_size` each, starting at
    /// physical frame 0.
    pub(crate) fn new(block_size: PageSize, blocks: usize) -> FramePool {
        FramePool {
            span: block_size.pages_4k() as u32,
            total_blocks: blocks,
            next: 0,
            quarantined: 0,
        }
    }

    /// Takes the lowest never-used block, or `None` once every block has
    /// been handed out (the caller must evict).
    pub(crate) fn alloc(&mut self) -> Option<PhysFrame> {
        if self.next == self.total_blocks {
            return None;
        }
        let frame = PhysFrame(self.next as u32 * self.span);
        self.next += 1;
        Some(frame)
    }

    /// Takes an owned block out of circulation for good after an
    /// unrecoverable page-in error.
    pub(crate) fn quarantine(&mut self) {
        self.quarantined += 1;
    }

    /// Blocks never handed out.
    pub(crate) fn free_blocks(&self) -> usize {
        self.total_blocks - self.next
    }

    /// 4 kB pages still in circulation (free or allocated): total minus
    /// quarantined.
    pub(crate) fn usable_pages(&self) -> u64 {
        ((self.total_blocks - self.quarantined) * self.span as usize) as u64
    }

    /// Blocks ever quarantined.
    pub(crate) fn quarantined_blocks(&self) -> usize {
        self.quarantined
    }

    /// Total capacity in blocks.
    pub(crate) fn total_blocks(&self) -> usize {
        self.total_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_aligned_distinct_blocks_in_ascending_order() {
        let mut pool = FramePool::new(PageSize::K64, 4);
        let heads: Vec<u32> = std::iter::from_fn(|| pool.alloc().map(|f| f.0)).collect();
        assert_eq!(heads, vec![0, 16, 32, 48]);
        assert_eq!(pool.free_blocks(), 0);
        assert!(pool.alloc().is_none());
    }

    #[test]
    fn quarantine_shrinks_circulation_only() {
        let mut pool = FramePool::new(PageSize::K4, 8);
        pool.alloc().unwrap();
        pool.quarantine();
        assert_eq!(pool.quarantined_blocks(), 1);
        assert_eq!(pool.usable_pages(), 7);
        assert_eq!(pool.free_blocks(), 7);
        assert_eq!(pool.total_blocks(), 8);
    }
}
