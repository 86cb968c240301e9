//! A single 4-level radix page table, arena-allocated.
//!
//! Structure mirrors x86 long mode on the Xeon Phi: four levels of
//! 512-entry tables indexed by 9-bit slices of the 36-bit virtual page
//! number. Mappings come in the three sizes the Phi supports:
//!
//! * **4 kB** — one PTE at the bottom (PT) level;
//! * **64 kB** — sixteen consecutive PT-level PTEs, each carrying the
//!   [`PteFlags::HINT_64K`] bit, head entry 64 kB-aligned, frames
//!   physically contiguous (paper §4, Figure 5);
//! * **2 MB** — a PD-level leaf with [`PteFlags::LARGE`].
//!
//! Hardware attribute semantics follow the paper's description: on a
//! 64 kB mapping, the accessed/dirty bit is set in the 4 kB *sub-entry*
//! that was touched, so OS-level statistics collection must iterate all
//! 16 sub-entries ([`PageTable::test_and_clear_accessed_block`]) — but
//! those sixteen PTEs are consecutive words of one dense leaf, so the
//! scan is one slice pass, not sixteen tree walks.
//!
//! ## Arena layout
//!
//! Nodes live in three typed arenas owned by the table — interior
//! directories (`[u32; 512]` handle arrays), bottom-level leaves
//! (`[Pte; 512]` plus a live count), and 2 MB leaf PTEs — and refer to
//! each other by 32-bit *handles* (a 2-bit node tag plus an arena
//! index; 0 is the empty slot). A page walk therefore touches four
//! dense, contiguously allocated arrays instead of chasing per-node
//! `Box` pointers, and a PTE is exactly the 8-byte word hardware would
//! store, with no `Option` discriminant (the all-zero word is
//! non-present).
//!
//! Lifetime rules (DESIGN.md §11): directories are never freed — the
//! directory working set is bounded by the address-space shape and
//! reclaiming interior nodes buys nothing. Leaf page tables are
//! recycled through a free list only when a 2 MB mapping replaces an
//! empty leftover PT (as a kernel reclaims before installing a PSE
//! mapping); 2 MB leaf slots are recycled on every 2 MB unmap. Handles
//! are private to the table, so no stale handle can outlive the node it
//! names.

use std::fmt;

use cmcp_arch::{PageSize, PhysFrame, VirtPage};

use crate::pte::{Pte, PteFlags};
use crate::scheme::Translation;

const FANOUT: usize = 512;
/// Virtual page numbers are 36 bits (48-bit virtual addresses).
const VPN_BITS: u32 = 36;

/// Arena handle: 2-bit node tag in the top bits, arena index below.
/// The all-zero handle (tag [`TAG_NONE`]) is the empty slot.
const TAG_SHIFT: u32 = 30;
const IDX_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_NONE: u32 = 0;
const TAG_DIR: u32 = 1;
const TAG_PT: u32 = 2;
const TAG_2M: u32 = 3;

#[inline]
fn handle(tag: u32, index: usize) -> u32 {
    debug_assert!(index as u32 <= IDX_MASK);
    (tag << TAG_SHIFT) | index as u32
}

#[inline]
fn tag_of(h: u32) -> u32 {
    h >> TAG_SHIFT
}

#[inline]
fn index_of(h: u32) -> usize {
    (h & IDX_MASK) as usize
}

/// Why a `map` call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page is not naturally aligned for the requested size.
    UnalignedVirt,
    /// The physical frame is not naturally aligned for the requested size.
    UnalignedPhys,
    /// Some 4 kB page in the requested range is already mapped.
    AlreadyMapped,
    /// The virtual page number exceeds the 36-bit addressable range.
    OutOfRange,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::UnalignedVirt => write!(f, "virtual page not aligned for page size"),
            MapError::UnalignedPhys => write!(f, "physical frame not aligned for page size"),
            MapError::AlreadyMapped => write!(f, "range already mapped"),
            MapError::OutOfRange => write!(f, "virtual page number out of range"),
        }
    }
}

impl std::error::Error for MapError {}

/// Bottom-level page table: 512 packed PTE words plus a live-entry
/// count, stored inline so the leaf arena is one contiguous run.
struct LeafTable {
    ptes: [Pte; FANOUT],
    live: u32,
}

impl LeafTable {
    fn new() -> LeafTable {
        LeafTable {
            ptes: [Pte::EMPTY; FANOUT],
            live: 0,
        }
    }
}

/// One address space's (or, under PSPT, one core's) page table.
///
/// Not internally synchronized: callers wrap it in whatever locking the
/// table scheme prescribes — that locking *is* part of what the paper
/// measures (coarse address-space locks for regular tables vs per-core
/// locks for PSPT).
pub struct PageTable {
    /// Interior directories; `dirs[0]` is the PML4 root. Never freed.
    dirs: Vec<[u32; FANOUT]>,
    /// Bottom-level page tables, recycled through `free_pt`.
    leaves: Vec<LeafTable>,
    /// 2 MB PD-level leaf PTEs, recycled through `free_2m`.
    leaf2m: Vec<Pte>,
    free_pt: Vec<u32>,
    free_2m: Vec<u32>,
    mapped_4k: usize,
}

impl Default for PageTable {
    fn default() -> PageTable {
        PageTable::new()
    }
}

impl PageTable {
    /// An empty table.
    pub fn new() -> PageTable {
        PageTable {
            dirs: vec![[TAG_NONE; FANOUT]],
            leaves: Vec::new(),
            leaf2m: Vec::new(),
            free_pt: Vec::new(),
            free_2m: Vec::new(),
            mapped_4k: 0,
        }
    }

    /// Number of currently mapped 4 kB pages (a 2 MB mapping counts 512).
    #[inline]
    pub fn mapped_pages_4k(&self) -> usize {
        self.mapped_4k
    }

    #[inline]
    fn check_range(vpn: u64) -> Result<(), MapError> {
        if vpn >> VPN_BITS != 0 {
            Err(MapError::OutOfRange)
        } else {
            Ok(())
        }
    }

    #[inline]
    fn indices(vpn: u64) -> [usize; 3] {
        [
            ((vpn >> 27) & 0x1ff) as usize,
            ((vpn >> 18) & 0x1ff) as usize,
            ((vpn >> 9) & 0x1ff) as usize,
        ]
    }

    /// Walks to the PD slot for `vpn`, creating directories on the way
    /// if `create`. Returns the (directory arena index, slot index)
    /// location of the slot.
    fn pd_slot(&mut self, vpn: u64, create: bool) -> Option<(usize, usize)> {
        let [i4, i3, i2] = Self::indices(vpn);
        let mut di = 0usize;
        for idx in [i4, i3] {
            let h = self.dirs[di][idx];
            di = match tag_of(h) {
                TAG_NONE => {
                    if !create {
                        return None;
                    }
                    let child = self.dirs.len();
                    self.dirs.push([TAG_NONE; FANOUT]);
                    self.dirs[di][idx] = handle(TAG_DIR, child);
                    child
                }
                TAG_DIR => index_of(h),
                _ => return None,
            };
        }
        Some((di, i2))
    }

    /// Read-only walk to the PD slot's handle.
    #[inline]
    fn pd_handle(&self, vpn: u64) -> u32 {
        let [i4, i3, i2] = Self::indices(vpn);
        let mut di = 0usize;
        for idx in [i4, i3] {
            let h = self.dirs[di][idx];
            if tag_of(h) != TAG_DIR {
                return TAG_NONE;
            }
            di = index_of(h);
        }
        self.dirs[di][i2]
    }

    /// Walks to the PT containing `vpn`, creating it if needed. Returns
    /// its leaf-arena index, or `None` if the slot is occupied by a 2 MB
    /// leaf.
    fn pt_for(&mut self, vpn: u64, create: bool) -> Option<usize> {
        let (di, i2) = self.pd_slot(vpn, create)?;
        let h = self.dirs[di][i2];
        match tag_of(h) {
            TAG_PT => Some(index_of(h)),
            TAG_NONE => {
                if !create {
                    return None;
                }
                let li = self.alloc_pt();
                self.dirs[di][i2] = handle(TAG_PT, li);
                Some(li)
            }
            _ => None,
        }
    }

    /// Takes a leaf table from the free list (already zeroed: a PT is
    /// only freed at live == 0, and unmap clears entries as it goes) or
    /// grows the arena.
    fn alloc_pt(&mut self) -> usize {
        match self.free_pt.pop() {
            Some(i) => {
                debug_assert_eq!(self.leaves[i as usize].live, 0);
                i as usize
            }
            None => {
                self.leaves.push(LeafTable::new());
                self.leaves.len() - 1
            }
        }
    }

    /// Maps one block of `size` at `vpage` → `frame`.
    pub fn map(
        &mut self,
        vpage: VirtPage,
        frame: PhysFrame,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MapError> {
        self.map_counted(vpage, frame, size, flags, 0)
    }

    /// Like [`PageTable::map`], but folds `map_count` into the head PTE
    /// word during the same radix walk. PSPT stamps the block's core-map
    /// count on every map; doing it here saves the second full walk a
    /// `with_pte` after `map` would cost on the fault hot path.
    /// Sub-entries keep count 0 — only the head entry carries the
    /// statistic.
    pub fn map_counted(
        &mut self,
        vpage: VirtPage,
        frame: PhysFrame,
        size: PageSize,
        flags: PteFlags,
        map_count: usize,
    ) -> Result<(), MapError> {
        Self::check_range(vpage.0)?;
        if !vpage.is_aligned(size) {
            return Err(MapError::UnalignedVirt);
        }
        if !(frame.0 as u64).is_multiple_of(size.pages_4k() as u64) {
            return Err(MapError::UnalignedPhys);
        }
        match size {
            PageSize::M2 => {
                let (di, i2) = self.pd_slot(vpage.0, true).ok_or(MapError::AlreadyMapped)?;
                let h = self.dirs[di][i2];
                match tag_of(h) {
                    TAG_NONE => {}
                    // An empty leftover PT is reclaimed, as a kernel does
                    // before installing a PSE mapping.
                    TAG_PT if self.leaves[index_of(h)].live == 0 => {
                        self.free_pt.push(index_of(h) as u32);
                    }
                    _ => return Err(MapError::AlreadyMapped),
                }
                let mut pte = Pte::new(frame, flags | PteFlags::LARGE);
                pte.set_map_count(map_count);
                let mi = match self.free_2m.pop() {
                    Some(i) => {
                        self.leaf2m[i as usize] = pte;
                        i as usize
                    }
                    None => {
                        self.leaf2m.push(pte);
                        self.leaf2m.len() - 1
                    }
                };
                self.dirs[di][i2] = handle(TAG_2M, mi);
                self.mapped_4k += PageSize::M2.pages_4k();
                Ok(())
            }
            PageSize::K4 | PageSize::K64 => {
                let n = size.pages_4k();
                let extra = if size == PageSize::K64 {
                    PteFlags::HINT_64K
                } else {
                    PteFlags::empty()
                };
                // All sub-pages live in the same PT (64 kB never crosses a
                // 2 MB boundary thanks to natural alignment).
                let li = self.pt_for(vpage.0, true).ok_or(MapError::AlreadyMapped)?;
                let pt = &mut self.leaves[li];
                let base = (vpage.0 & 0x1ff) as usize;
                if pt.ptes[base..base + n].iter().any(|p| p.present()) {
                    return Err(MapError::AlreadyMapped);
                }
                for (k, slot) in pt.ptes[base..base + n].iter_mut().enumerate() {
                    *slot = Pte::new(frame.add(k as u32), flags | extra);
                }
                pt.ptes[base].set_map_count(map_count);
                pt.live += n as u32;
                self.mapped_4k += n;
                Ok(())
            }
        }
    }

    /// Hardware page walk for the 4 kB page `vpage`. Read-only: it sets
    /// no accessed bit.
    pub fn translate(&self, vpage: VirtPage) -> Option<Translation> {
        if vpage.0 >> VPN_BITS != 0 {
            return None;
        }
        let h = self.pd_handle(vpage.0);
        let (pte, size) = match tag_of(h) {
            TAG_2M => (self.leaf2m[index_of(h)], PageSize::M2),
            TAG_PT => {
                let pte = self.leaves[index_of(h)].ptes[(vpage.0 & 0x1ff) as usize];
                if !pte.present() {
                    return None;
                }
                (pte, Self::leaf_size(pte))
            }
            _ => return None,
        };
        Some(Self::translation(pte, size, vpage))
    }

    /// The size class of a present PT-level entry's mapping.
    #[inline]
    fn leaf_size(pte: Pte) -> PageSize {
        if pte.hint_64k() {
            PageSize::K64
        } else {
            PageSize::K4
        }
    }

    /// What a walk that reached `pte`, the entry of a `size` mapping
    /// covering `vpage`, hands the TLB.
    #[inline]
    fn translation(pte: Pte, size: PageSize, vpage: VirtPage) -> Translation {
        let frame = match size {
            // One PD leaf covers the block: offset into its frames.
            PageSize::M2 => pte
                .frame()
                .add((vpage.0 % PageSize::M2.pages_4k() as u64) as u32),
            PageSize::K4 | PageSize::K64 => pte.frame(),
        };
        Translation {
            frame,
            size,
            writable: pte.writable(),
        }
    }

    /// The PTE covering the 4 kB page `vpage`, if mapped, with its
    /// mapping's size class. For a 2 MB mapping this is the single PD
    /// leaf; for 4 kB/64 kB it is the exact sub-entry — which is how the
    /// Phi hardware sets A/D bits on 64 kB pages.
    #[inline]
    fn leaf_mut(&mut self, vpage: VirtPage) -> Option<(&mut Pte, PageSize)> {
        if vpage.0 >> VPN_BITS != 0 {
            return None;
        }
        let h = self.pd_handle(vpage.0);
        match tag_of(h) {
            TAG_2M => Some((&mut self.leaf2m[index_of(h)], PageSize::M2)),
            TAG_PT => {
                let pte = &mut self.leaves[index_of(h)].ptes[(vpage.0 & 0x1ff) as usize];
                let size = Self::leaf_size(*pte);
                pte.present().then_some((pte, size))
            }
            _ => None,
        }
    }

    /// Applies `f` to the PTE covering the 4 kB page `vpage`, if mapped
    /// (the entry [`PageTable::leaf_mut`] finds).
    pub fn with_pte<R>(&mut self, vpage: VirtPage, f: impl FnOnce(&mut Pte) -> R) -> Option<R> {
        self.leaf_mut(vpage).map(|(pte, _)| f(pte))
    }

    /// Hardware behaviour on a TLB miss: one walk that sets the accessed
    /// (and, for writes, dirty) bit in the touched sub-entry and returns
    /// the translation it marked — what [`PageTable::translate`] returns.
    /// An unmapped page marks nothing and returns `None`.
    pub fn mark_accessed(&mut self, vpage: VirtPage, write: bool) -> Option<Translation> {
        let (pte, size) = self.leaf_mut(vpage)?;
        pte.mark_accessed(write);
        Some(Self::translation(*pte, size, vpage))
    }

    /// OS statistics scan over one mapping block: read-and-clear the
    /// accessed bit of every sub-entry (16 iterations for a 64 kB page —
    /// the cost the paper highlights in §4). Returns whether any was set,
    /// plus the number of PTEs examined (for cycle charging).
    ///
    /// The sub-entries of a 4 kB/64 kB block are consecutive words of
    /// one leaf, so the scan walks the tree once and sweeps the slice.
    pub fn test_and_clear_accessed_block(
        &mut self,
        vpage: VirtPage,
        size: PageSize,
    ) -> (bool, usize) {
        let head = vpage.align_down(size);
        match size {
            PageSize::M2 => {
                let was = self
                    .with_pte(head, |pte| pte.test_and_clear_accessed())
                    .unwrap_or(false);
                (was, 1)
            }
            PageSize::K4 | PageSize::K64 => {
                let n = size.pages_4k();
                let mut any = false;
                if head.0 >> VPN_BITS == 0 {
                    let h = self.pd_handle(head.0);
                    if tag_of(h) == TAG_PT {
                        let base = (head.0 & 0x1ff) as usize;
                        for pte in &mut self.leaves[index_of(h)].ptes[base..base + n] {
                            if pte.present() {
                                any |= pte.test_and_clear_accessed();
                            }
                        }
                    }
                }
                (any, n)
            }
        }
    }

    /// Whether any sub-entry of the block has the dirty bit set (OS must
    /// iterate sub-entries on 64 kB pages, same as for accessed bits).
    pub fn block_dirty(&mut self, vpage: VirtPage, size: PageSize) -> bool {
        let head = vpage.align_down(size);
        match size {
            PageSize::M2 => self.with_pte(head, |pte| pte.dirty()).unwrap_or(false),
            PageSize::K4 | PageSize::K64 => {
                if head.0 >> VPN_BITS != 0 {
                    return false;
                }
                let h = self.pd_handle(head.0);
                if tag_of(h) != TAG_PT {
                    return false;
                }
                let base = (head.0 & 0x1ff) as usize;
                self.leaves[index_of(h)].ptes[base..base + size.pages_4k()]
                    .iter()
                    .any(|pte| pte.present() && pte.dirty())
            }
        }
    }

    /// Splits the mapping block of `size` covering `vpage` into blocks
    /// of the next smaller granularity, in place: translations, frames,
    /// writability and the head map count are preserved, only the
    /// mapping *unit* shrinks. Returns whether a block was split.
    ///
    /// * 2 MB → 32 × 64 kB: the PD leaf is rewritten as a dense PT of
    ///   hint-bit runs (one radix-node rewrite, no tree restructuring
    ///   above it). The leaf's accessed/dirty bits — which hardware kept
    ///   block-wide — are propagated to every child's head sub-entry,
    ///   the conservative sound choice (a dirty 2 MB page must not
    ///   become 32 clean 64 kB pages).
    /// * 64 kB → 16 × 4 kB: the sixteen sub-entries drop their hint bit
    ///   and each becomes an independent head carrying the map count;
    ///   per-sub-entry accessed/dirty bits are already exact.
    pub fn split(&mut self, vpage: VirtPage, size: PageSize) -> bool {
        let head = vpage.align_down(size);
        match size {
            PageSize::K4 => false,
            PageSize::M2 => {
                let Some((di, i2)) = self.pd_slot(head.0, false) else {
                    return false;
                };
                let h = self.dirs[di][i2];
                if tag_of(h) != TAG_2M {
                    return false;
                }
                let mi = index_of(h);
                let big = self.leaf2m[mi];
                self.leaf2m[mi] = Pte::EMPTY;
                self.free_2m.push(mi as u32);
                let base = big
                    .flags()
                    .difference(PteFlags::LARGE | PteFlags::ACCESSED | PteFlags::DIRTY)
                    | PteFlags::HINT_64K;
                let mut attrs = PteFlags::empty();
                if big.accessed() {
                    attrs = attrs | PteFlags::ACCESSED;
                }
                if big.dirty() {
                    attrs = attrs | PteFlags::DIRTY;
                }
                let li = self.alloc_pt();
                let sub = PageSize::K64.pages_4k();
                let pt = &mut self.leaves[li];
                for k in 0..FANOUT {
                    let flags = if k % sub == 0 { base | attrs } else { base };
                    let mut pte = Pte::new(big.frame().add(k as u32), flags);
                    if k % sub == 0 {
                        pte.set_map_count(big.map_count());
                    }
                    pt.ptes[k] = pte;
                }
                pt.live = FANOUT as u32;
                self.dirs[di][i2] = handle(TAG_PT, li);
                true
            }
            PageSize::K64 => {
                let Some(li) = self.pt_for(head.0, false) else {
                    return false;
                };
                let pt = &mut self.leaves[li];
                let base = (head.0 & 0x1ff) as usize;
                let n = size.pages_4k();
                if pt.ptes[base..base + n]
                    .iter()
                    .any(|p| !p.present() || !p.hint_64k())
                {
                    return false;
                }
                let count = pt.ptes[base].map_count();
                for slot in &mut pt.ptes[base..base + n] {
                    slot.clear_hint_64k();
                    slot.set_map_count(count);
                }
                true
            }
        }
    }

    /// Unmaps the block of `size` at `vpage` (head-aligned). Returns the
    /// head PTE with accessed/dirty OR-ed across all sub-entries, or
    /// `None` if nothing was mapped.
    ///
    /// For 4 kB/64 kB this is a *range* unmap over the block's PT slots:
    /// any smaller mappings inside the span are removed too (the kernel
    /// always unmaps at the size it mapped, but the table keeps the
    /// general semantics of an x86 range teardown). A 2 MB unmap only
    /// matches an actual 2 MB leaf.
    pub fn unmap(&mut self, vpage: VirtPage, size: PageSize) -> Option<Pte> {
        let head = vpage.align_down(size);
        match size {
            PageSize::M2 => {
                let (di, i2) = self.pd_slot(head.0, false)?;
                let h = self.dirs[di][i2];
                if tag_of(h) != TAG_2M {
                    return None;
                }
                let mi = index_of(h);
                let pte = self.leaf2m[mi];
                self.leaf2m[mi] = Pte::EMPTY;
                self.free_2m.push(mi as u32);
                self.dirs[di][i2] = TAG_NONE;
                self.mapped_4k -= PageSize::M2.pages_4k();
                Some(pte)
            }
            PageSize::K4 | PageSize::K64 => {
                let n = size.pages_4k();
                let li = self.pt_for(head.0, false)?;
                let pt = &mut self.leaves[li];
                let base = (head.0 & 0x1ff) as usize;
                let mut agg: Option<Pte> = None;
                let mut removed = 0usize;
                for slot in &mut pt.ptes[base..base + n] {
                    if slot.present() {
                        let pte = *slot;
                        *slot = Pte::EMPTY;
                        removed += 1;
                        agg = Some(match agg {
                            None => pte,
                            Some(mut head_pte) => {
                                if pte.accessed() {
                                    head_pte.mark_accessed(false);
                                }
                                if pte.dirty() {
                                    head_pte.mark_accessed(true);
                                }
                                head_pte
                            }
                        });
                    }
                }
                pt.live -= removed as u32;
                self.mapped_4k -= removed;
                agg
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        PageTable::new()
    }

    #[test]
    fn map_translate_unmap_4k() {
        let mut t = table();
        t.map(
            VirtPage(100),
            PhysFrame(7),
            PageSize::K4,
            PteFlags::WRITABLE,
        )
        .unwrap();
        let tr = t.translate(VirtPage(100)).unwrap();
        assert_eq!(tr.frame, PhysFrame(7));
        assert_eq!(tr.size, PageSize::K4);
        assert!(tr.writable);
        assert_eq!(t.mapped_pages_4k(), 1);
        let pte = t.unmap(VirtPage(100), PageSize::K4).unwrap();
        assert_eq!(pte.frame(), PhysFrame(7));
        assert!(t.translate(VirtPage(100)).is_none());
        assert_eq!(t.mapped_pages_4k(), 0);
    }

    #[test]
    fn map_64k_creates_16_contiguous_subentries() {
        let mut t = table();
        t.map(
            VirtPage(0x40),
            PhysFrame(0x100),
            PageSize::K64,
            PteFlags::WRITABLE,
        )
        .unwrap();
        for k in 0..16u64 {
            let tr = t.translate(VirtPage(0x40 + k)).unwrap();
            assert_eq!(tr.frame, PhysFrame(0x100 + k as u32), "sub-page {k}");
            assert_eq!(tr.size, PageSize::K64);
        }
        assert!(t.translate(VirtPage(0x50)).is_none());
        assert_eq!(t.mapped_pages_4k(), 16);
    }

    #[test]
    fn map_2m_leaf() {
        let mut t = table();
        t.map(
            VirtPage(0x200),
            PhysFrame(0x200),
            PageSize::M2,
            PteFlags::empty(),
        )
        .unwrap();
        let tr = t.translate(VirtPage(0x200 + 77)).unwrap();
        assert_eq!(tr.frame, PhysFrame(0x200 + 77));
        assert_eq!(tr.size, PageSize::M2);
        assert!(!tr.writable);
        assert_eq!(t.mapped_pages_4k(), 512);
    }

    #[test]
    fn alignment_is_enforced() {
        let mut t = table();
        assert_eq!(
            t.map(
                VirtPage(0x41),
                PhysFrame(0x100),
                PageSize::K64,
                PteFlags::empty()
            ),
            Err(MapError::UnalignedVirt)
        );
        assert_eq!(
            t.map(
                VirtPage(0x40),
                PhysFrame(0x101),
                PageSize::K64,
                PteFlags::empty()
            ),
            Err(MapError::UnalignedPhys)
        );
    }

    #[test]
    fn overlap_is_rejected() {
        let mut t = table();
        t.map(
            VirtPage(0x40),
            PhysFrame(0),
            PageSize::K4,
            PteFlags::empty(),
        )
        .unwrap();
        // A 64 kB block over the same range must be refused whole.
        assert_eq!(
            t.map(
                VirtPage(0x40),
                PhysFrame(0x10),
                PageSize::K64,
                PteFlags::empty()
            ),
            Err(MapError::AlreadyMapped)
        );
        // And the failed attempt must not have mapped anything extra.
        assert_eq!(t.mapped_pages_4k(), 1);
        assert!(t.translate(VirtPage(0x41)).is_none());
    }

    #[test]
    fn vpn_out_of_range_is_rejected() {
        let mut t = table();
        assert_eq!(
            t.map(
                VirtPage(1 << 36),
                PhysFrame(0),
                PageSize::K4,
                PteFlags::empty()
            ),
            Err(MapError::OutOfRange)
        );
        assert!(t.translate(VirtPage(1 << 36)).is_none());
    }

    #[test]
    fn accessed_bit_lands_in_touched_subentry() {
        // The Phi quirk from paper §4: touching the (k+1)-th 4 kB region
        // of a 64 kB page sets A/D in that sub-entry only. The marking
        // walk returns what `translate` returns, at every size, and
        // marks nothing when the page is unmapped.
        let mut t = table();
        t.map(VirtPage(0), PhysFrame(0), PageSize::K64, PteFlags::WRITABLE)
            .unwrap();
        // A read-only 4 kB page (read below) and a writable 2 MB one.
        t.map(
            VirtPage(0x11),
            PhysFrame(0x31),
            PageSize::K4,
            PteFlags::empty(),
        )
        .unwrap();
        t.map(
            VirtPage(0x200),
            PhysFrame(0x400),
            PageSize::M2,
            PteFlags::WRITABLE,
        )
        .unwrap();
        // (page, accessed, dirty) of every mapped PTE: the 64 kB block's
        // sixteen sub-entries, the 4 kB page and the 2 MB leaf.
        let bits = |t: &mut PageTable| -> Vec<(u64, bool, bool)> {
            (0..16u64)
                .chain([0x11, 0x200])
                .map(|p| {
                    let (a, d) = t
                        .with_pte(VirtPage(p), |pte| (pte.accessed(), pte.dirty()))
                        .unwrap();
                    (p, a, d)
                })
                .collect()
        };
        let clean = bits(&mut t);
        // An empty slot in a live leaf, a page with no leaf, and one past
        // the 36-bit range.
        for p in [0x10, 0x1000, 1 << 36] {
            assert_eq!(t.mark_accessed(VirtPage(p), true), None, "page {p:#x}");
        }
        assert_eq!(bits(&mut t), clean, "an unmapped page marks nothing");
        for (page, write, size) in [
            (0x5, true, PageSize::K64),
            (0x11, false, PageSize::K4),
            (0x277, true, PageSize::M2),
        ] {
            let want = t.translate(VirtPage(page));
            assert_eq!(want.map(|tr| tr.size), Some(size));
            assert_eq!(
                t.mark_accessed(VirtPage(page), write),
                want,
                "page {page:#x}"
            );
        }
        assert_eq!(
            t.translate(VirtPage(0x277)).unwrap().frame,
            PhysFrame(0x400 + 0x77)
        );
        assert!(!t.translate(VirtPage(0x11)).unwrap().writable);
        // Only the touched sub-entry of the 64 kB block, the 4 kB page
        // (read: no D) and the 2 MB leaf carry bits.
        for (p, a, d) in bits(&mut t) {
            let touched = matches!(p, 0x5 | 0x11 | 0x200);
            assert_eq!(a, touched, "accessed of page {p:#x}");
            assert_eq!(d, touched && p != 0x11, "dirty of page {p:#x}");
        }
    }

    #[test]
    fn block_scan_iterates_16_entries_for_64k() {
        let mut t = table();
        t.map(VirtPage(0), PhysFrame(0), PageSize::K64, PteFlags::WRITABLE)
            .unwrap();
        t.mark_accessed(VirtPage(9), false);
        let (any, examined) = t.test_and_clear_accessed_block(VirtPage(3), PageSize::K64);
        assert!(any);
        assert_eq!(examined, 16);
        let (any2, _) = t.test_and_clear_accessed_block(VirtPage(3), PageSize::K64);
        assert!(!any2);
    }

    #[test]
    fn block_dirty_sees_any_subentry() {
        let mut t = table();
        t.map(VirtPage(0), PhysFrame(0), PageSize::K64, PteFlags::WRITABLE)
            .unwrap();
        assert!(!t.block_dirty(VirtPage(0), PageSize::K64));
        t.mark_accessed(VirtPage(15), true);
        assert!(t.block_dirty(VirtPage(0), PageSize::K64));
        assert!(
            t.block_dirty(VirtPage(7), PageSize::K64),
            "any covered page queries the block"
        );
    }

    #[test]
    fn unmap_64k_aggregates_attribute_bits() {
        let mut t = table();
        t.map(
            VirtPage(0x10),
            PhysFrame(0x20),
            PageSize::K64,
            PteFlags::WRITABLE,
        )
        .unwrap();
        t.mark_accessed(VirtPage(0x1b), true); // dirty one sub-entry
        let pte = t.unmap(VirtPage(0x13), PageSize::K64).unwrap();
        assert!(pte.accessed());
        assert!(pte.dirty());
        assert_eq!(t.mapped_pages_4k(), 0);
    }

    #[test]
    fn unmap_2m_returns_leaf() {
        let mut t = table();
        t.map(
            VirtPage(0x400),
            PhysFrame(0x400),
            PageSize::M2,
            PteFlags::WRITABLE,
        )
        .unwrap();
        t.mark_accessed(VirtPage(0x4ff), true);
        let pte = t.unmap(VirtPage(0x5aa), PageSize::M2).unwrap();
        assert!(pte.dirty());
        assert!(t.translate(VirtPage(0x400)).is_none());
    }

    #[test]
    fn mixed_sizes_coexist_in_one_2m_region_worth_of_space() {
        // Paper §4: "no restrictions for mixing the page sizes (4kB,
        // 64kB, 2MB) within a single address block" — 4 kB and 64 kB
        // mappings share a PT; a 2 MB mapping occupies its own PD slot.
        let mut t = table();
        t.map(VirtPage(0), PhysFrame(0), PageSize::K4, PteFlags::empty())
            .unwrap();
        t.map(
            VirtPage(0x10),
            PhysFrame(0x10),
            PageSize::K64,
            PteFlags::empty(),
        )
        .unwrap();
        t.map(
            VirtPage(0x200),
            PhysFrame(0x200),
            PageSize::M2,
            PteFlags::empty(),
        )
        .unwrap();
        assert_eq!(t.translate(VirtPage(0)).unwrap().size, PageSize::K4);
        assert_eq!(t.translate(VirtPage(0x1f)).unwrap().size, PageSize::K64);
        assert_eq!(t.translate(VirtPage(0x3ff)).unwrap().size, PageSize::M2);
        assert_eq!(t.mapped_pages_4k(), 1 + 16 + 512);
    }

    #[test]
    fn unmap_missing_returns_none() {
        let mut t = table();
        assert!(t.unmap(VirtPage(3), PageSize::K4).is_none());
        assert!(t.unmap(VirtPage(0x40), PageSize::K64).is_none());
        assert!(t.unmap(VirtPage(0x200), PageSize::M2).is_none());
    }

    #[test]
    fn sparse_address_space_spans_high_indices() {
        let mut t = table();
        let far = VirtPage((1 << 35) + 0x123);
        t.map(far, PhysFrame(1), PageSize::K4, PteFlags::empty())
            .unwrap();
        assert_eq!(t.translate(far).unwrap().frame, PhysFrame(1));
        assert!(t.translate(VirtPage(far.0 + 1)).is_none());
    }

    #[test]
    fn empty_pt_is_reclaimed_by_2m_map() {
        // Map + unmap a 4 kB page so the PD slot holds an empty PT, then
        // install a 2 MB mapping over it: the leftover PT must be
        // recycled, not leaked and not rejected.
        let mut t = table();
        t.map(VirtPage(0x7), PhysFrame(3), PageSize::K4, PteFlags::empty())
            .unwrap();
        t.unmap(VirtPage(0x7), PageSize::K4).unwrap();
        t.map(VirtPage(0), PhysFrame(0), PageSize::M2, PteFlags::empty())
            .unwrap();
        assert_eq!(t.translate(VirtPage(0x7)).unwrap().size, PageSize::M2);
        // The recycled PT is reused for the next leaf allocation.
        assert_eq!(t.leaves.len(), 1);
        t.map(
            VirtPage(0x200),
            PhysFrame(0x200),
            PageSize::K4,
            PteFlags::empty(),
        )
        .unwrap();
        assert_eq!(t.leaves.len(), 1, "freed leaf must be recycled");
    }

    #[test]
    fn freed_2m_slots_are_recycled() {
        let mut t = table();
        for round in 0..3 {
            t.map(
                VirtPage(0x200),
                PhysFrame(0x200),
                PageSize::M2,
                PteFlags::empty(),
            )
            .unwrap();
            assert_eq!(t.leaf2m.len(), 1, "round {round} must reuse the slot");
            t.unmap(VirtPage(0x200), PageSize::M2).unwrap();
        }
        assert_eq!(t.mapped_pages_4k(), 0);
    }

    #[test]
    fn split_2m_preserves_translations_and_marks_children_dirty() {
        let mut t = table();
        t.map_counted(
            VirtPage(0x200),
            PhysFrame(0x200),
            PageSize::M2,
            PteFlags::WRITABLE,
            3,
        )
        .unwrap();
        t.mark_accessed(VirtPage(0x233), true);
        assert!(t.split(VirtPage(0x233), PageSize::M2));
        // Every 4 kB page still translates to the same frame, now via
        // 64 kB hint runs.
        for k in [0u64, 0x10, 0xff, 0x1ff] {
            let tr = t.translate(VirtPage(0x200 + k)).unwrap();
            assert_eq!(tr.frame, PhysFrame(0x200 + k as u32));
            assert_eq!(tr.size, PageSize::K64);
            assert!(tr.writable);
        }
        assert_eq!(t.mapped_pages_4k(), 512);
        // The block-wide dirty bit became per-child dirty: every child
        // must report dirty (conservative), and map counts carried over.
        for k in 0..32u64 {
            let head = VirtPage(0x200 + k * 16);
            assert!(t.block_dirty(head, PageSize::K64), "child {k}");
            assert_eq!(
                t.with_pte(head, |p| p.map_count()).unwrap(),
                3,
                "child {k} head map count"
            );
        }
    }

    #[test]
    fn split_64k_unhints_subentries() {
        let mut t = table();
        t.map_counted(
            VirtPage(0x40),
            PhysFrame(0x40),
            PageSize::K64,
            PteFlags::WRITABLE,
            2,
        )
        .unwrap();
        t.mark_accessed(VirtPage(0x45), true);
        assert!(t.split(VirtPage(0x4f), PageSize::K64));
        for k in 0..16u64 {
            let tr = t.translate(VirtPage(0x40 + k)).unwrap();
            assert_eq!(tr.size, PageSize::K4, "sub {k}");
            assert_eq!(tr.frame, PhysFrame(0x40 + k as u32));
            assert_eq!(
                t.with_pte(VirtPage(0x40 + k), |p| p.map_count()).unwrap(),
                2
            );
        }
        // The sub-entry that was dirty stays dirty, its siblings clean.
        assert!(t.block_dirty(VirtPage(0x45), PageSize::K4));
        assert!(!t.block_dirty(VirtPage(0x46), PageSize::K4));
    }

    #[test]
    fn split_of_unmapped_or_4k_is_refused() {
        let mut t = table();
        assert!(!t.split(VirtPage(0x200), PageSize::M2));
        t.map(VirtPage(0), PhysFrame(0), PageSize::K4, PteFlags::empty())
            .unwrap();
        assert!(!t.split(VirtPage(0), PageSize::K4));
    }

    #[test]
    fn a_partially_emptied_pt_is_not_reclaimable() {
        let mut t = table();
        t.map(VirtPage(0), PhysFrame(0), PageSize::K4, PteFlags::empty())
            .unwrap();
        t.map(VirtPage(1), PhysFrame(1), PageSize::K4, PteFlags::empty())
            .unwrap();
        t.unmap(VirtPage(0), PageSize::K4).unwrap();
        assert_eq!(
            t.map(VirtPage(0), PhysFrame(0), PageSize::M2, PteFlags::empty()),
            Err(MapError::AlreadyMapped),
            "a PT with live entries must not be reclaimed by a 2 MB map"
        );
        assert_eq!(t.translate(VirtPage(1)).unwrap().frame, PhysFrame(1));
    }
}
