//! The [`TableScheme`] abstraction: what the kernel's virtual-memory
//! subsystem needs from address translation, implemented both by
//! traditional shared tables ([`crate::regular::RegularTables`]) and by
//! per-core partially separated tables ([`crate::pspt::Pspt`]).
//!
//! The two schemes differ in exactly the ways the paper measures:
//!
//! | operation            | regular tables            | PSPT                         |
//! |----------------------|---------------------------|------------------------------|
//! | who to shoot down    | *every* active core       | exactly the mapping cores    |
//! | fault serialization  | address-space-wide lock   | per-core locks               |
//! | map-count knowledge  | unavailable               | free ([`TableScheme::mapping_cores`]) |

use cmcp_arch::{CoreId, CoreSet, PageSize, PhysFrame, VirtPage};

use crate::table::MapError;

/// Result of a page walk: what the TLB caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Frame backing the queried 4 kB page.
    pub frame: PhysFrame,
    /// Size class of the enclosing mapping (selects the TLB entry type).
    pub size: PageSize,
    /// Whether the mapping permits writes.
    pub writable: bool,
}

/// What happened when a core installed a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOutcome {
    /// The block was not mapped anywhere before.
    Fresh,
    /// PSPT only: other cores already mapped the block, so the faulting
    /// core copied an existing PTE after consulting `probes` other
    /// per-core tables (paper §2.3).
    Copied {
        /// Number of other cores' page tables consulted.
        probes: usize,
        /// Number of cores mapping the block *including* the faulting
        /// core, read from the directory entry the map already updated —
        /// CMCP's priority signal, folded into the outcome (and the head
        /// PTE's packed map-count field) so the fault path does not probe
        /// the directory a second time.
        map_count: usize,
    },
}

/// Result of tearing a block out of every table that maps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmapOutcome {
    /// Cores that held a valid PTE — the TLB shootdown target set.
    pub mappers: CoreSet,
    /// Whether any PTE (any sub-entry, any core) was dirty: the victim
    /// page must be written back to the host before reuse.
    pub dirty: bool,
    /// Whether any PTE was accessed since the last clear.
    pub accessed: bool,
    /// Total PTEs removed, for cycle accounting (16 sub-entries per
    /// 64 kB block, per mapping core).
    pub ptes_removed: usize,
}

/// Result of an OS accessed-bit scan over one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Whether any examined PTE had the accessed bit set.
    pub accessed: bool,
    /// Cores whose TLBs must be invalidated because a set bit was
    /// cleared in their PTE. **This is the cost the paper indicts:** on
    /// x86, clearing an accessed bit without invalidating the TLB loses
    /// future accesses, so LRU-style statistics force shootdowns.
    pub invalidate: CoreSet,
    /// Total PTEs examined, for cycle accounting.
    pub ptes_examined: usize,
}

/// Address-translation operations the kernel performs. Walks and
/// queries take `&self`, everything that writes a PTE or the PSPT
/// directory takes `&mut self`; the virtual-time cost of the paper's
/// page-table locks is charged separately by the kernel from the cost
/// model.
pub trait TableScheme {
    /// Hardware page walk as seen by `core`. Read-only: it sets no
    /// accessed bit.
    fn translate(&self, core: CoreId, page: VirtPage) -> Option<Translation>;

    /// Hardware page walk on a TLB miss by `core`, or a first store
    /// through a clean cached entry: in the same walk, sets the accessed
    /// bit (and, for a write, the dirty bit) of the touched sub-entry,
    /// and returns the translation it marked — what
    /// [`TableScheme::translate`] returns. An unmapped page marks nothing
    /// and returns `None`.
    fn mark_accessed(&mut self, core: CoreId, page: VirtPage, write: bool) -> Option<Translation>;

    /// Installs a mapping of the `size`-aligned block at `head` for
    /// `core`. Regular tables install once for everybody; PSPT installs
    /// into the faulting core's private table, copying from siblings when
    /// the block is already resident.
    fn map(
        &mut self,
        core: CoreId,
        head: VirtPage,
        frame: PhysFrame,
        size: PageSize,
        writable: bool,
    ) -> Result<MapOutcome, MapError>;

    /// Removes the block at `head` from every table that maps it.
    fn unmap_all(&mut self, head: VirtPage, size: PageSize) -> Option<UnmapOutcome>;

    /// The cores whose TLBs may cache translations for this block: the
    /// shootdown target set for a remap. Regular tables cannot narrow
    /// this down and return every active core; PSPT returns the precise
    /// mapping set — *and its size is CMCP's priority signal*.
    fn mapping_cores(&self, head: VirtPage) -> CoreSet;

    /// Splits the `size` block at `head` into blocks of the next
    /// smaller granularity in every table that maps it, preserving
    /// translations, frames and attribute bits (adaptive page-size
    /// mode: an oversized victim is split under pressure instead of
    /// evicted whole — a radix-node rewrite, so no TLB shootdown is
    /// required because no translation changes). Returns the child size,
    /// or `None` when the block is unmapped or already 4 kB.
    fn split_block(&mut self, head: VirtPage, size: PageSize) -> Option<PageSize>;

    /// OS statistics pass: read-and-clear accessed bits over the block.
    fn test_and_clear_accessed(&mut self, head: VirtPage, size: PageSize) -> ScanOutcome;

    /// Whether the block needs write-back (any dirty sub-entry anywhere).
    fn block_dirty(&mut self, head: VirtPage, size: PageSize) -> bool;
}
