//! Model-based property tests for the page tables: arbitrary map/unmap/
//! access sequences are mirrored against a plain `HashMap` model, and
//! PSPT's core-map directory is checked against the ground truth of its
//! per-core tables.

use std::collections::HashMap;

use proptest::prelude::*;

use cmcp::arch::{CoreId, PageSize, PhysFrame, VirtPage};
use cmcp::pagetable::{PageTable, Pspt, PteFlags, TableScheme};

fn page_size_strategy() -> impl Strategy<Value = PageSize> {
    prop_oneof![Just(PageSize::K4), Just(PageSize::K64), Just(PageSize::M2)]
}

/// Mirrors a map/unmap op sequence against a flat `HashMap` model and
/// asserts the radix table agrees at every step. Shared by the proptest
/// below (which generates `ops`) and the named regression tests (which
/// replay the shrunken sequences proptest found historically); panics
/// inside here are shrunk by proptest exactly like `prop_assert!`
/// failures.
fn check_radix_ops(ops: Vec<(u64, PageSize, bool)>) {
    let mut table = PageTable::new();
    // Model: 4kB page → (frame, size).
    let mut model: HashMap<u64, (u32, PageSize)> = HashMap::new();
    let mut next_frame = 0u32;
    for (slot, size, unmap) in ops {
        let span = size.pages_4k() as u64;
        let head = VirtPage(slot * 512); // 2MB-aligned slots avoid overlap surprises
        if unmap {
            // `unmap(head, K4/K64)` is a range unmap: it removes any
            // PT-level entries inside the span (a 64 kB unmap over a
            // lone 4 kB mapping clears that mapping); a 2 MB unmap
            // only matches an actual 2 MB leaf.
            let res = table.unmap(head, size);
            let removable: Vec<u64> = (0..span)
                .map(|k| head.0 + k)
                .filter(|p| match model.get(p) {
                    Some(&(_, PageSize::M2)) => size == PageSize::M2,
                    Some(_) => size != PageSize::M2,
                    None => false,
                })
                .collect();
            assert_eq!(res.is_some(), !removable.is_empty());
            if size == PageSize::M2 && res.is_some() {
                for k in 0..span {
                    model.remove(&(head.0 + k));
                }
            } else {
                for p in removable {
                    model.remove(&p);
                }
            }
        } else if (0..512).all(|k| !model.contains_key(&(head.0 + k))) {
            // Map only into a fully empty 2 MB slot: a partial unmap
            // (e.g. one 4 kB sub-entry torn out of a 64 kB run) can
            // leave residues that legitimately reject a fresh map.
            let frame = PhysFrame(next_frame * 512);
            next_frame += 1;
            table.map(head, frame, size, PteFlags::WRITABLE).unwrap();
            for k in 0..span {
                model.insert(head.0 + k, (frame.0 + k as u32, size));
            }
        }
        // Spot-check translations across the touched region.
        for k in [0, span / 2, span - 1] {
            let page = VirtPage(head.0 + k);
            match (table.translate(page), model.get(&page.0)) {
                (Some(tr), Some(&(frame, size))) => {
                    assert_eq!(tr.frame.0, frame);
                    assert_eq!(tr.size, size);
                }
                (None, None) => {}
                (got, want) => {
                    panic!("page {page}: table={got:?} model={want:?}");
                }
            }
        }
        assert_eq!(table.mapped_pages_4k(), model.len());
    }
}

// The committed `proptest-regressions` seeds, promoted to named
// deterministic tests so the historical failures run on every `cargo
// test` by construction — visible in test output, immune to the seed
// file being pruned, and debuggable by name. Each replays the exact
// shrunken op sequence from the seed file's `shrinks to` comment.

/// Seed 818c9efd…: a 64 kB range unmap over a lone 4 kB mapping must
/// clear that mapping (and report success), not miss it because no
/// 64 kB leaf exists at the head.
#[test]
fn regression_k64_range_unmap_clears_lone_k4_mapping() {
    check_radix_ops(vec![(58, PageSize::K4, false), (58, PageSize::K64, true)]);
}

/// Seed 4efcdb2e…: tearing one 4 kB sub-entry out of a 64 kB run must
/// leave residues that reject a fresh 64 kB map of the same slot — the
/// table may not silently overlay the survivors.
#[test]
fn regression_k64_remap_rejected_after_partial_k4_unmap() {
    check_radix_ops(vec![
        (52, PageSize::K64, false),
        (52, PageSize::K4, true),
        (52, PageSize::K64, false),
    ]);
}

/// Seed 829715eb…: after a 4 kB map/unmap pair empties a slot, a 2 MB
/// map into it must succeed and translate across the whole span (the
/// intermediate table level must have been reclaimed or traversed).
#[test]
fn regression_m2_map_into_slot_emptied_by_k4_unmap() {
    check_radix_ops(vec![
        (51, PageSize::K4, false),
        (51, PageSize::K4, true),
        (51, PageSize::M2, false),
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A single radix table agrees with a flat model over random
    /// map/unmap sequences at mixed page sizes (see `check_radix_ops`).
    #[test]
    fn radix_table_matches_flat_model(
        ops in prop::collection::vec(
            (0u64..64, page_size_strategy(), any::<bool>()),
            1..120,
        ),
    ) {
        check_radix_ops(ops);
    }

    /// PSPT's core-map directory always equals the set of cores whose
    /// private tables hold a valid translation.
    #[test]
    fn pspt_directory_matches_tables(
        ops in prop::collection::vec(
            (0u16..6, 0u64..24, any::<bool>()),
            1..150,
        ),
    ) {
        let cores = 6usize;
        let mut pspt = Pspt::new(cores);
        for (core, slot, unmap) in ops {
            let head = VirtPage(slot);
            if unmap {
                pspt.unmap_all(head, PageSize::K4);
            } else if !pspt.mapping_cores(head).contains(CoreId(core)) {
                // Frame identity per block: derived from the slot.
                pspt.map(CoreId(core), head, PhysFrame(slot as u32), PageSize::K4, true)
                    .unwrap();
            }
            // Ground truth from the per-core tables.
            for slot in 0u64..24 {
                let head = VirtPage(slot);
                let dir = pspt.mapping_cores(head);
                for c in 0..cores as u16 {
                    let mapped = pspt.translate(CoreId(c), head).is_some();
                    prop_assert_eq!(
                        mapped,
                        dir.contains(CoreId(c)),
                        "core {} block {}: table={} dir={}",
                        c, slot, mapped, dir.contains(CoreId(c))
                    );
                }
            }
        }
    }

    /// Split is a lossless radix-node rewrite: splitting a block down to
    /// 4 kB keeps every translation and frame, and the write stays
    /// visible as dirty in the children.
    #[test]
    fn split_to_4k_keeps_frames_and_dirt(
        slot in 0u64..32,
        size in prop_oneof![Just(PageSize::K64), Just(PageSize::M2)],
        write in any::<bool>(),
        touch in 0u64..512,
    ) {
        let mut table = PageTable::new();
        let head = VirtPage(slot * 512);
        let span = size.pages_4k() as u64;
        let frame = PhysFrame((slot as u32) * 512);
        let flags = if write { PteFlags::WRITABLE } else { PteFlags::empty() };
        table.map(head, frame, size, flags).unwrap();
        let touched = VirtPage(head.0 + touch % span);
        table.mark_accessed(touched, write);
        prop_assert_eq!(table.block_dirty(head, size), write, "a write dirties the block");

        // Split down to 4 kB, one granularity level at a time.
        prop_assert!(table.split(head, size));
        if size == PageSize::M2 {
            for k in 0..32u64 {
                prop_assert!(table.split(VirtPage(head.0 + k * 16), PageSize::K64));
            }
        }
        for k in 0..span {
            let tr = table.translate(VirtPage(head.0 + k)).expect("split keeps mappings");
            prop_assert_eq!(tr.size, PageSize::K4, "fully split to base pages");
            prop_assert_eq!(tr.frame.0, frame.0 + k as u32, "frames undisturbed");
        }
        prop_assert_eq!(table.mapped_pages_4k(), span as usize);

        // The write is still there: a 2 MB leaf's dirty bit lands on
        // every 64 kB child's head, a 64 kB run's stays on the touched
        // sub-entry, so the touched run's 4 kB children carry it.
        prop_assert_eq!(
            table.block_dirty(touched, PageSize::K64), write,
            "split must not launder the dirty bit"
        );
        prop_assert_eq!(
            (0..span).any(|k| table.block_dirty(VirtPage(head.0 + k), PageSize::K4)),
            write,
            "no child turns dirty without a write"
        );
    }

    /// Accessed/dirty aggregation: marking any 4 kB sub-page of a block
    /// makes the block-level queries see it, on the marking core only.
    #[test]
    fn pspt_attribute_aggregation(
        sub in 0u64..16,
        size in prop_oneof![Just(PageSize::K64), Just(PageSize::M2)],
        write in any::<bool>(),
    ) {
        let mut pspt = Pspt::new(2);
        let span = size.pages_4k() as u64;
        let sub = sub % span;
        pspt.map(CoreId(0), VirtPage(0), PhysFrame(0), size, true).unwrap();
        pspt.map(CoreId(1), VirtPage(0), PhysFrame(0), size, true).unwrap();
        pspt.mark_accessed(CoreId(0), VirtPage(sub), write);
        prop_assert_eq!(pspt.block_dirty(VirtPage(0), size), write);
        let scan = pspt.test_and_clear_accessed(VirtPage(0), size);
        prop_assert!(scan.accessed);
        prop_assert!(scan.invalidate.contains(CoreId(0)));
        prop_assert!(!scan.invalidate.contains(CoreId(1)), "core 1 never touched it");
        // Second scan: clear.
        let scan2 = pspt.test_and_clear_accessed(VirtPage(0), size);
        prop_assert!(!scan2.accessed);
    }
}
