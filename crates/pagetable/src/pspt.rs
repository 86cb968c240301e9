//! Per-core Partially Separated Page Tables (PSPT), the paper's earlier
//! proposal (CCGrid'13) that CMCP builds on.
//!
//! Each core owns a private page table for the computation area. A
//! faulting core first consults its siblings and copies an existing PTE
//! if the block is already resident; an unmap must visit exactly the
//! tables that map the block. The payoffs:
//!
//! * **Precise shootdowns** — only cores holding a valid PTE are sent
//!   invalidation IPIs (most pages are mapped by one or two cores in the
//!   paper's Figure 6, versus a broadcast for regular tables).
//! * **Fine-grained locking** — per-core locks instead of one
//!   address-space lock.
//! * **Free usage statistics** — the number of mapping cores per page is
//!   known without touching accessed bits, which is exactly the signal
//!   the CMCP replacement policy consumes.
//!
//! Alongside the per-core radix tables, PSPT keeps a *core-map
//! directory* from block head page to [`CoreSet`]. The paper derives the
//! same information by walking per-core tables; the directory is the
//! constant-time equivalent and is kept strictly consistent with the
//! tables (asserted in tests and by `debug_assert`s here).
//!
//! Both are plain owned data, mutated through `&mut self`: the kernel
//! keeps the scheme in its single-writer state, so no host lock guards
//! a table. The paper's per-core locks are a virtual-time cost the
//! kernel charges from its cost model, not host synchronisation.

use cmcp_arch::{CoreId, CoreSet, FxHashMap, PageSize, PhysFrame, VirtPage};

use crate::pte::PteFlags;
use crate::scheme::{MapOutcome, ScanOutcome, SchemeKind, TableScheme, Translation, UnmapOutcome};
use crate::table::{MapError, PageTable};

/// The per-core partially separated table scheme.
pub struct Pspt {
    /// One private table per core, indexed by core.
    tables: Vec<PageTable>,
    cores: CoreSet,
    /// Directory: block head page → cores mapping it.
    directory: FxHashMap<u64, CoreSet>,
}

impl Pspt {
    /// PSPT for an address space spanning cores `0..n_cores`.
    pub fn new(n_cores: usize) -> Pspt {
        Pspt {
            tables: (0..n_cores).map(|_| PageTable::new()).collect(),
            cores: CoreSet::first_n(n_cores),
            directory: FxHashMap::default(),
        }
    }

    /// Number of distinct resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.directory.len()
    }

    /// Histogram of blocks by number of mapping cores: index `k` counts
    /// blocks mapped by exactly `k+1` cores. This regenerates the paper's
    /// Figure 6 directly from PSPT bookkeeping.
    pub fn sharing_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.tables.len()];
        for set in self.directory.values() {
            let c = set.count();
            if c > 0 {
                hist[c - 1] += 1;
            }
        }
        hist
    }
}

impl TableScheme for Pspt {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Pspt
    }

    fn active_cores(&self) -> CoreSet {
        self.cores
    }

    fn translate(&self, core: CoreId, page: VirtPage) -> Option<Translation> {
        self.tables[core.index()]
            .translate(page)
            .map(|t| Translation {
                frame: t.frame,
                size: t.size,
                writable: t.writable,
            })
    }

    fn mark_accessed(&mut self, core: CoreId, page: VirtPage, write: bool) {
        self.tables[core.index()].mark_accessed(page, write);
    }

    fn map(
        &mut self,
        core: CoreId,
        head: VirtPage,
        frame: PhysFrame,
        size: PageSize,
        writable: bool,
    ) -> Result<MapOutcome, MapError> {
        let flags = if writable {
            PteFlags::WRITABLE
        } else {
            PteFlags::empty()
        };
        let entry = self.directory.entry(head.0).or_insert_with(CoreSet::empty);
        let existing = *entry;
        debug_assert!(
            !existing.contains(core),
            "{core} faulted on a block it already maps ({head})"
        );
        let count = existing.count() + 1;
        // Fold the block's core-map count into the head PTE word in the
        // same walk that installs it — the paper's "free usage
        // statistics" live in the entry the walk already touched, so
        // CMCP's signal costs no extra lookup (head entry only;
        // sub-entries keep count 0).
        self.tables[core.index()].map_counted(head, frame, size, flags, count)?;
        entry.insert(core);
        if existing.is_empty() {
            Ok(MapOutcome::Fresh)
        } else {
            // The faulting core consulted sibling tables to find a valid
            // PTE to copy; probing stops at the first mapper, so charge
            // the expected scan length (half the sibling count, min 1).
            Ok(MapOutcome::Copied {
                probes: existing.count(),
                map_count: count,
            })
        }
    }

    fn unmap_all(&mut self, head: VirtPage, size: PageSize) -> Option<UnmapOutcome> {
        let mappers = self.directory.remove(&head.0)?;
        let mut dirty = false;
        let mut accessed = false;
        let mut removed = 0;
        for core in mappers.iter() {
            if let Some(pte) = self.tables[core.index()].unmap(head, size) {
                dirty |= pte.dirty();
                accessed |= pte.accessed();
                removed += match size {
                    PageSize::M2 => 1,
                    _ => size.pages_4k(),
                };
            } else {
                debug_assert!(
                    false,
                    "directory said {core} maps {head} but table disagrees"
                );
            }
        }
        Some(UnmapOutcome {
            mappers,
            dirty,
            accessed,
            ptes_removed: removed,
        })
    }

    fn mapping_cores(&self, head: VirtPage) -> CoreSet {
        self.directory
            .get(&head.0)
            .copied()
            .unwrap_or_else(CoreSet::empty)
    }

    fn split_block(&mut self, head: VirtPage, size: PageSize) -> Option<PageSize> {
        let child = size.split_child()?;
        // Take the block out of the directory, rewrite every mapper's
        // table, then register the children under the same core set.
        let mappers = *self.directory.get(&head.0)?;
        if mappers.is_empty() {
            return None;
        }
        self.directory.remove(&head.0);
        for core in mappers.iter() {
            let done = self.tables[core.index()].split(head, size);
            debug_assert!(done, "directory said {core} maps {head} but split failed");
        }
        let step = child.pages_4k() as u64;
        let children = size.pages_4k() / child.pages_4k();
        for k in 0..children as u64 {
            let ch = head.add(k * step);
            self.directory.insert(ch.0, mappers);
        }
        Some(child)
    }

    fn test_and_clear_accessed(&mut self, head: VirtPage, size: PageSize) -> ScanOutcome {
        let mappers = self.mapping_cores(head);
        let mut any = false;
        let mut examined = 0;
        let mut invalidate = CoreSet::empty();
        for core in mappers.iter() {
            let (acc, n) = self.tables[core.index()].test_and_clear_accessed_block(head, size);
            examined += n;
            if acc {
                any = true;
                // Only the cores whose PTE actually had A set must drop
                // their cached translation.
                invalidate.insert(core);
            }
        }
        ScanOutcome {
            accessed: any,
            invalidate,
            ptes_examined: examined,
        }
    }

    fn block_dirty(&mut self, head: VirtPage, size: PageSize) -> bool {
        self.mapping_cores(head)
            .iter()
            .any(|core| self.tables[core.index()].block_dirty(head, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_tables_are_really_private() {
        let mut p = Pspt::new(4);
        p.map(CoreId(0), VirtPage(10), PhysFrame(3), PageSize::K4, true)
            .unwrap();
        assert!(p.translate(CoreId(0), VirtPage(10)).is_some());
        assert!(
            p.translate(CoreId(1), VirtPage(10)).is_none(),
            "core1 has no PTE yet"
        );
    }

    #[test]
    fn second_mapper_copies_and_probes() {
        let mut p = Pspt::new(4);
        assert_eq!(
            p.map(CoreId(0), VirtPage(10), PhysFrame(3), PageSize::K4, true)
                .unwrap(),
            MapOutcome::Fresh
        );
        assert_eq!(
            p.map(CoreId(2), VirtPage(10), PhysFrame(3), PageSize::K4, true)
                .unwrap(),
            MapOutcome::Copied {
                probes: 1,
                map_count: 2
            }
        );
        assert_eq!(p.mapping_cores(VirtPage(10)).count(), 2);
    }

    #[test]
    fn map_count_is_stamped_into_the_head_pte() {
        let mut p = Pspt::new(4);
        for (i, c) in [0u16, 1, 3].iter().enumerate() {
            p.map(
                CoreId(*c),
                VirtPage(0x40),
                PhysFrame(0x40),
                PageSize::K64,
                true,
            )
            .unwrap();
            // The freshly faulting core's head PTE carries the count at
            // map time; sub-entries stay at 0.
            let t = &mut p.tables[usize::from(*c)];
            let head_count = t.with_pte(VirtPage(0x40), |pte| pte.map_count()).unwrap();
            let sub_count = t.with_pte(VirtPage(0x41), |pte| pte.map_count()).unwrap();
            assert_eq!(head_count, i + 1);
            assert_eq!(sub_count, 0);
        }
    }

    #[test]
    fn mapping_cores_is_precise() {
        let mut p = Pspt::new(8);
        for c in [0u16, 3, 7] {
            p.map(CoreId(c), VirtPage(42), PhysFrame(9), PageSize::K4, true)
                .unwrap();
        }
        let m = p.mapping_cores(VirtPage(42));
        assert_eq!(m.count(), 3);
        assert!(m.contains(CoreId(3)));
        assert!(!m.contains(CoreId(1)));
    }

    #[test]
    fn unmap_all_visits_only_mappers_and_aggregates_dirty() {
        let mut p = Pspt::new(8);
        p.map(CoreId(1), VirtPage(42), PhysFrame(9), PageSize::K4, true)
            .unwrap();
        p.map(CoreId(5), VirtPage(42), PhysFrame(9), PageSize::K4, true)
            .unwrap();
        p.mark_accessed(CoreId(5), VirtPage(42), true); // dirty on core5 only
        let out = p.unmap_all(VirtPage(42), PageSize::K4).unwrap();
        assert_eq!(out.mappers.count(), 2);
        assert!(out.dirty, "dirty on any core's PTE forces write-back");
        assert!(p.translate(CoreId(1), VirtPage(42)).is_none());
        assert!(p.translate(CoreId(5), VirtPage(42)).is_none());
        assert_eq!(p.mapping_cores(VirtPage(42)).count(), 0);
        assert_eq!(p.resident_blocks(), 0);
    }

    #[test]
    fn unmap_missing_returns_none() {
        let mut p = Pspt::new(2);
        assert!(p.unmap_all(VirtPage(1), PageSize::K4).is_none());
    }

    #[test]
    fn scan_invalidates_only_cores_with_set_bit() {
        let mut p = Pspt::new(4);
        for c in 0..3u16 {
            p.map(CoreId(c), VirtPage(7), PhysFrame(1), PageSize::K4, true)
                .unwrap();
        }
        p.mark_accessed(CoreId(0), VirtPage(7), false);
        p.mark_accessed(CoreId(2), VirtPage(7), false);
        let s = p.test_and_clear_accessed(VirtPage(7), PageSize::K4);
        assert!(s.accessed);
        assert_eq!(s.ptes_examined, 3);
        assert!(s.invalidate.contains(CoreId(0)));
        assert!(
            !s.invalidate.contains(CoreId(1)),
            "core1 never touched the page"
        );
        assert!(s.invalidate.contains(CoreId(2)));
        // Second scan: bits were cleared.
        let s2 = p.test_and_clear_accessed(VirtPage(7), PageSize::K4);
        assert!(!s2.accessed);
        assert!(s2.invalidate.is_empty());
    }

    #[test]
    fn sharing_histogram_matches_figure6_semantics() {
        let mut p = Pspt::new(4);
        // Two private blocks, one shared by two cores, one by all four.
        p.map(CoreId(0), VirtPage(0), PhysFrame(0), PageSize::K4, true)
            .unwrap();
        p.map(CoreId(1), VirtPage(1), PhysFrame(1), PageSize::K4, true)
            .unwrap();
        p.map(CoreId(0), VirtPage(2), PhysFrame(2), PageSize::K4, true)
            .unwrap();
        p.map(CoreId(1), VirtPage(2), PhysFrame(2), PageSize::K4, true)
            .unwrap();
        for c in 0..4u16 {
            p.map(CoreId(c), VirtPage(3), PhysFrame(3), PageSize::K4, true)
                .unwrap();
        }
        assert_eq!(p.sharing_histogram(), vec![2, 1, 0, 1]);
    }

    #[test]
    fn works_with_64k_blocks() {
        let mut p = Pspt::new(2);
        p.map(
            CoreId(0),
            VirtPage(0x40),
            PhysFrame(0x40),
            PageSize::K64,
            true,
        )
        .unwrap();
        p.map(
            CoreId(1),
            VirtPage(0x40),
            PhysFrame(0x40),
            PageSize::K64,
            true,
        )
        .unwrap();
        p.mark_accessed(CoreId(1), VirtPage(0x4a), true);
        assert!(p.block_dirty(VirtPage(0x40), PageSize::K64));
        let out = p.unmap_all(VirtPage(0x40), PageSize::K64).unwrap();
        assert_eq!(out.ptes_removed, 32, "16 sub-entries on each of 2 cores");
        assert!(out.dirty);
    }

    #[test]
    fn eight_mappers_per_block_stay_consistent() {
        let mut p = Pspt::new(8);
        for c in 0..8u16 {
            for b in 0..64u64 {
                p.map(
                    CoreId(c),
                    VirtPage(b),
                    PhysFrame(b as u32),
                    PageSize::K4,
                    true,
                )
                .unwrap();
            }
        }
        for b in 0..64u64 {
            assert_eq!(p.mapping_cores(VirtPage(b)).count(), 8, "block {b}");
        }
        assert_eq!(p.resident_blocks(), 64);
        assert_eq!(p.sharing_histogram()[7], 64);
    }
}
