//! Traditional shared page tables: the baseline PSPT is measured against.
//!
//! All cores in the address space translate through one table tree. Two
//! consequences, both central to the paper's Figure 7:
//!
//! 1. When a mapping is torn down, the kernel has no idea which cores
//!    cached the translation, so it must broadcast shootdown IPIs to
//!    *every* core running the application.
//! 2. Every table mutation funnels through an address-space-wide lock,
//!    modeled in virtual time by the kernel. On the host the table is
//!    plain owned data, mutated through `&mut self` from the kernel's
//!    single-writer state.

use cmcp_arch::{CoreId, CoreSet, PageSize, PhysFrame, VirtPage};

use crate::pte::PteFlags;
use crate::scheme::{MapOutcome, ScanOutcome, SchemeKind, TableScheme, Translation, UnmapOutcome};
use crate::table::{MapError, PageTable};

/// The shared-table scheme.
pub struct RegularTables {
    table: PageTable,
    cores: CoreSet,
}

impl RegularTables {
    /// A shared table for an address space spanning cores `0..n_cores`.
    pub fn new(n_cores: usize) -> RegularTables {
        RegularTables {
            table: PageTable::new(),
            cores: CoreSet::first_n(n_cores),
        }
    }

    /// Total mapped 4 kB pages.
    pub fn mapped_pages_4k(&self) -> usize {
        self.table.mapped_pages_4k()
    }
}

impl TableScheme for RegularTables {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Regular
    }

    fn active_cores(&self) -> CoreSet {
        self.cores
    }

    fn translate(&self, _core: CoreId, page: VirtPage) -> Option<Translation> {
        self.table.translate(page).map(|t| Translation {
            frame: t.frame,
            size: t.size,
            writable: t.writable,
        })
    }

    fn mark_accessed(&mut self, _core: CoreId, page: VirtPage, write: bool) {
        self.table.mark_accessed(page, write);
    }

    fn map(
        &mut self,
        _core: CoreId,
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
        self.table.map(head, frame, size, flags)?;
        Ok(MapOutcome::Fresh)
    }

    fn unmap_all(&mut self, head: VirtPage, size: PageSize) -> Option<UnmapOutcome> {
        let pte = self.table.unmap(head, size)?;
        Some(UnmapOutcome {
            // Centralized bookkeeping: every core may have cached it.
            mappers: self.cores,
            dirty: pte.dirty(),
            accessed: pte.accessed(),
            ptes_removed: match size {
                PageSize::M2 => 1,
                _ => size.pages_4k(),
            },
        })
    }

    fn mapping_cores(&self, _head: VirtPage) -> CoreSet {
        self.cores
    }

    fn split_block(&mut self, head: VirtPage, size: PageSize) -> Option<PageSize> {
        let child = size.split_child()?;
        if self.table.split(head, size) {
            Some(child)
        } else {
            None
        }
    }

    fn test_and_clear_accessed(&mut self, head: VirtPage, size: PageSize) -> ScanOutcome {
        let (accessed, examined) = self.table.test_and_clear_accessed_block(head, size);
        ScanOutcome {
            accessed,
            // A cleared bit must be followed by a broadcast shootdown.
            invalidate: if accessed {
                self.cores
            } else {
                CoreSet::empty()
            },
            ptes_examined: examined,
        }
    }

    fn block_dirty(&mut self, head: VirtPage, size: PageSize) -> bool {
        self.table.block_dirty(head, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_is_core_independent() {
        let mut t = RegularTables::new(4);
        t.map(CoreId(0), VirtPage(10), PhysFrame(3), PageSize::K4, true)
            .unwrap();
        for c in 0..4 {
            let tr = t.translate(CoreId(c), VirtPage(10)).unwrap();
            assert_eq!(tr.frame, PhysFrame(3));
        }
    }

    #[test]
    fn unmap_reports_all_cores_as_mappers() {
        let mut t = RegularTables::new(8);
        t.map(CoreId(2), VirtPage(10), PhysFrame(3), PageSize::K4, true)
            .unwrap();
        let out = t.unmap_all(VirtPage(10), PageSize::K4).unwrap();
        assert_eq!(out.mappers.count(), 8, "regular PT must broadcast");
        assert!(!out.dirty);
    }

    #[test]
    fn dirty_tracking_via_mark_accessed() {
        let mut t = RegularTables::new(2);
        t.map(CoreId(0), VirtPage(5), PhysFrame(1), PageSize::K4, true)
            .unwrap();
        t.mark_accessed(CoreId(1), VirtPage(5), true);
        assert!(t.block_dirty(VirtPage(5), PageSize::K4));
        let out = t.unmap_all(VirtPage(5), PageSize::K4).unwrap();
        assert!(out.dirty);
        assert!(out.accessed);
    }

    #[test]
    fn scan_broadcasts_only_when_bit_was_set() {
        let mut t = RegularTables::new(4);
        t.map(CoreId(0), VirtPage(5), PhysFrame(1), PageSize::K4, true)
            .unwrap();
        let s = t.test_and_clear_accessed(VirtPage(5), PageSize::K4);
        assert!(!s.accessed);
        assert!(s.invalidate.is_empty());
        t.mark_accessed(CoreId(3), VirtPage(5), false);
        let s = t.test_and_clear_accessed(VirtPage(5), PageSize::K4);
        assert!(s.accessed);
        assert_eq!(s.invalidate.count(), 4);
    }

    #[test]
    fn double_map_is_rejected() {
        let mut t = RegularTables::new(2);
        t.map(CoreId(0), VirtPage(5), PhysFrame(1), PageSize::K4, true)
            .unwrap();
        assert_eq!(
            t.map(CoreId(1), VirtPage(5), PhysFrame(1), PageSize::K4, true),
            Err(MapError::AlreadyMapped)
        );
    }
}
