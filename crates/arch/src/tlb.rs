//! Per-core two-level data TLB model.
//!
//! Geometry follows the Knights Corner data TLB: separate L1 entry arrays
//! per page size (64 × 4 kB, 32 × 64 kB, 8 × 2 MB) backed by a unified
//! 64-entry L2. Like the hardware, a lookup probes all size classes —
//! the effective page size of a mapping is a property of the PTE, not of
//! the access.
//!
//! The `misses` counter is the "dTLB misses" column of the paper's
//! Table 1: every miss triggers a hardware page-table walk, and on KNC's
//! in-order cores the thread stalls for the entire walk.

use crate::clock::Cycles;
use crate::types::{PageSize, VirtPage};

/// Entry counts of one core's TLB arrays. Each array's associativity
/// is its type parameter, fixed at Knights Corner's: the 4 kB and 64 kB
/// L1 arrays and the unified L2 are 4-way, the 2 MB L1 array 8-way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Entries of the 4-way L1 4 kB array.
    pub l1_4k: usize,
    /// Entries of the 4-way L1 64 kB array.
    pub l1_64k: usize,
    /// Entries of the 8-way L1 2 MB array.
    pub l1_2m: usize,
    /// Entries of the 4-way unified L2.
    pub l2: usize,
}

impl Default for TlbConfig {
    /// Knights Corner data-TLB geometry.
    fn default() -> TlbConfig {
        TlbConfig {
            l1_4k: 64,
            l1_64k: 32,
            l1_2m: 8,
            l2: 64,
        }
    }
}

/// Where a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Hit in the L1 array of the mapping's size class.
    L1,
    /// Missed L1, hit the unified L2 (entry is promoted back to L1).
    L2,
    /// Full miss: the hardware must walk the page tables.
    Miss,
}

/// Hit/miss counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translated accesses.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Full misses (page walks) — Table 1's "dTLB misses".
    pub misses: u64,
    /// Entries removed by (local or remote) invalidations.
    pub invalidations: u64,
    /// Full flushes.
    pub flushes: u64,
}

/// Tag of an empty way. A 4 kB page number is at most 36 bits (a larger
/// one can never be mapped) and an L2 tag ends in a class code of 0–2,
/// so no live tag is all ones.
const EMPTY_TAG: u64 = u64::MAX;

/// One `W`-way set: its tags and their LRU stamps side by side. An empty
/// way holds [`EMPTY_TAG`] and stamp 0; the TLB bumps its stamp
/// before every use, so live stamps start at 1.
#[derive(Debug, Clone, Copy)]
struct Set<const W: usize> {
    tags: [u64; W],
    stamps: [u64; W],
}

impl<const W: usize> Set<W> {
    const EMPTY: Set<W> = Set {
        tags: [EMPTY_TAG; W],
        stamps: [0; W],
    };

    /// The way holding `tag`, if any: every way is compared, with no
    /// early exit. A tag sits in at most one way of its set.
    #[inline]
    fn find(&self, tag: u64) -> Option<usize> {
        let mut hits = 0u32;
        for w in 0..W {
            hits |= u32::from(self.tags[w] == tag) << w;
        }
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// The first way with the smallest stamp: the first empty way if
    /// there is one, else the LRU way.
    #[inline]
    fn victim(&self) -> usize {
        let mut v = 0;
        for w in 1..W {
            if self.stamps[w] < self.stamps[v] {
                v = w;
            }
        }
        v
    }
}

/// One set-associative array of `W`-way sets. `W` is a type parameter
/// so every per-way loop is unrolled at its fixed width (DESIGN.md §12).
#[derive(Debug)]
struct SetAssocArray<const W: usize> {
    /// `sets - 1`: the set count is a power of two, so a mask indexes it.
    set_mask: usize,
    /// Bits of the tag to drop before set indexing. The unified L2 keys
    /// entries by `(vpn << 2) | class` for uniqueness but indexes sets by
    /// the vpn alone, so class bits don't shrink its effective capacity.
    index_shift: u32,
    /// The sets in index order. A tag is a page number in units of the
    /// array's size class.
    sets: Box<[Set<W>]>,
}

impl<const W: usize> SetAssocArray<W> {
    fn new(entries: usize, index_shift: u32) -> SetAssocArray<W> {
        assert!(
            entries > 0 && entries.is_multiple_of(W) && (entries / W).is_power_of_two(),
            "bad TLB geometry"
        );
        SetAssocArray {
            set_mask: entries / W - 1,
            index_shift,
            sets: vec![Set::EMPTY; entries / W].into_boxed_slice(),
        }
    }

    /// `tag`'s set.
    #[inline]
    fn set(&mut self, tag: u64) -> &mut Set<W> {
        debug_assert_ne!(tag, EMPTY_TAG, "a TLB tag collides with the empty tag");
        &mut self.sets[(tag >> self.index_shift) as usize & self.set_mask]
    }

    /// Finds `tag`, refreshing its LRU stamp.
    #[inline]
    fn lookup(&mut self, tag: u64, stamp: u64) -> bool {
        let set = self.set(tag);
        match set.find(tag) {
            Some(w) => {
                set.stamps[w] = stamp;
                true
            }
            None => false,
        }
    }

    /// Inserts `tag`, evicting the LRU way of its set if full.
    #[inline]
    fn insert(&mut self, tag: u64, stamp: u64) {
        let set = self.set(tag);
        // Already present: refresh.
        let w = set.find(tag).unwrap_or_else(|| set.victim());
        set.tags[w] = tag;
        set.stamps[w] = stamp;
    }

    /// Removes `tag` if present; returns whether it was.
    fn invalidate(&mut self, tag: u64) -> bool {
        let set = self.set(tag);
        match set.find(tag) {
            Some(w) => {
                set.tags[w] = EMPTY_TAG;
                set.stamps[w] = 0;
                true
            }
            None => false,
        }
    }

    fn clear(&mut self) {
        self.sets.fill(Set::EMPTY);
    }

    fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .flat_map(|s| s.tags)
            .filter(|&t| t != EMPTY_TAG)
            .count()
    }
}

/// Runs `$call` with `$a` bound to the L1 array of `$size`'s class. The
/// arrays differ in width, so in type, and cannot share a reference.
macro_rules! with_l1 {
    ($tlb:expr, $size:expr, $a:ident => $call:expr) => {
        match $size {
            PageSize::K4 => {
                let $a = &mut $tlb.l1_4k;
                $call
            }
            PageSize::K64 => {
                let $a = &mut $tlb.l1_64k;
                $call
            }
            PageSize::M2 => {
                let $a = &mut $tlb.l1_2m;
                $call
            }
        }
    };
}

/// One core's data TLB.
///
/// Owned exclusively by the simulated core (no interior locking): remote
/// shootdowns are *charged* by the ring model and *applied* by the owning
/// core when it processes the invalidation, mirroring how an IPI handler
/// runs on the target core itself.
#[derive(Debug)]
pub struct Tlb {
    l1_4k: SetAssocArray<4>,
    l1_64k: SetAssocArray<4>,
    l1_2m: SetAssocArray<8>,
    /// Unified second level. Tags are (vpn_in_class << 2) | class so that
    /// identical numeric pages of different sizes never alias.
    l2: SetAssocArray<4>,
    stamp: u64,
    stats: TlbStats,
    /// Extra cycles of translation cost accumulated since last drain
    /// (L2-hit and walk penalties); the engine drains this into the core
    /// clock.
    pending_cycles: Cycles,
    l2_hit_cost: Cycles,
    walk_cost: Cycles,
}

impl Tlb {
    /// Builds a TLB with `config` geometry and the given penalty costs.
    pub fn new(config: TlbConfig, l2_hit_cost: Cycles, walk_cost: Cycles) -> Tlb {
        Tlb {
            l1_4k: SetAssocArray::new(config.l1_4k, 0),
            l1_64k: SetAssocArray::new(config.l1_64k, 0),
            l1_2m: SetAssocArray::new(config.l1_2m, 0),
            l2: SetAssocArray::new(config.l2, 2),
            stamp: 0,
            stats: TlbStats::default(),
            pending_cycles: 0,
            l2_hit_cost,
            walk_cost,
        }
    }

    /// KNC-geometry TLB with penalties from `cost`.
    pub fn knc(cost: &crate::cost::CostModel) -> Tlb {
        Tlb::new(TlbConfig::default(), cost.tlb_l2_hit, cost.page_walk)
    }

    #[inline]
    fn class_tag(page: VirtPage, size: PageSize) -> u64 {
        let vpn = page.0 >> (size.shift() - 12);
        (vpn << 2)
            | match size {
                PageSize::K4 => 0,
                PageSize::K64 => 1,
                PageSize::M2 => 2,
            }
    }

    /// Translates an access to the 4 kB page `page`, which the page tables
    /// map with a `size`-sized entry. Returns where the translation hit.
    ///
    /// On a full miss the caller is expected to walk the page tables and,
    /// if a valid translation exists, call [`Tlb::fill`].
    pub fn access(&mut self, page: VirtPage, size: PageSize) -> TlbLookup {
        self.stamp += 1;
        self.stats.accesses += 1;
        let vpn_in_class = page.0 >> (size.shift() - 12);
        let stamp = self.stamp;
        if with_l1!(self, size, a => a.lookup(vpn_in_class, stamp)) {
            self.stats.l1_hits += 1;
            return TlbLookup::L1;
        }
        let tag = Self::class_tag(page, size);
        if self.l2.lookup(tag, stamp) {
            self.stats.l2_hits += 1;
            self.pending_cycles += self.l2_hit_cost;
            // Promote back into L1.
            with_l1!(self, size, a => a.insert(vpn_in_class, stamp));
            return TlbLookup::L2;
        }
        self.stats.misses += 1;
        self.pending_cycles += self.walk_cost;
        TlbLookup::Miss
    }

    /// Translates an access to the 4 kB page `page` when the mapping's
    /// size class is not known in advance (the adaptive-page-size mode,
    /// where the kernel mixes sizes online). Probes every size class —
    /// which is what the hardware does anyway: all L1 arrays are
    /// searched in parallel and the entry's class is a PTE property.
    /// Counts exactly one access; a hit in any class's L1 is an L1 hit,
    /// a hit under any class tag in the unified L2 promotes back into
    /// that class's L1.
    pub fn access_any(&mut self, page: VirtPage) -> TlbLookup {
        self.stamp += 1;
        self.stats.accesses += 1;
        let stamp = self.stamp;
        for size in PageSize::ALL {
            let vpn_in_class = page.0 >> (size.shift() - 12);
            if with_l1!(self, size, a => a.lookup(vpn_in_class, stamp)) {
                self.stats.l1_hits += 1;
                return TlbLookup::L1;
            }
        }
        for size in PageSize::ALL {
            if self.l2.lookup(Self::class_tag(page, size), stamp) {
                self.stats.l2_hits += 1;
                self.pending_cycles += self.l2_hit_cost;
                let vpn_in_class = page.0 >> (size.shift() - 12);
                with_l1!(self, size, a => a.insert(vpn_in_class, stamp));
                return TlbLookup::L2;
            }
        }
        self.stats.misses += 1;
        self.pending_cycles += self.walk_cost;
        TlbLookup::Miss
    }

    /// Records an additional full walk for an access whose fault had to
    /// be retried: the mapping the fault handler installed was torn down
    /// by a concurrent eviction before this walk could re-read it, so
    /// the instruction walks — and misses — again. Counts a miss and the
    /// walk penalty but not a new access (the touch itself is retired
    /// once), keeping both `faults <= misses` and access conservation
    /// exact under the epoch engine.
    pub fn rewalk(&mut self) {
        self.stats.misses += 1;
        self.pending_cycles += self.walk_cost;
    }

    /// Installs a translation after a successful page walk.
    pub fn fill(&mut self, page: VirtPage, size: PageSize) {
        self.stamp += 1;
        let vpn_in_class = page.0 >> (size.shift() - 12);
        let stamp = self.stamp;
        with_l1!(self, size, a => a.insert(vpn_in_class, stamp));
        self.l2.insert(Self::class_tag(page, size), stamp);
    }

    /// `INVLPG`: drops any cached translation covering the 4 kB page
    /// `page`, at every size class. Returns whether anything was dropped.
    pub fn invalidate(&mut self, page: VirtPage) -> bool {
        let mut any = false;
        for size in PageSize::ALL {
            let vpn_in_class = page.0 >> (size.shift() - 12);
            any |= with_l1!(self, size, a => a.invalidate(vpn_in_class));
            any |= self.l2.invalidate(Self::class_tag(page, size));
        }
        if any {
            self.stats.invalidations += 1;
        }
        any
    }

    /// [`Tlb::invalidate`] that records a
    /// [`cmcp_trace::EventKind::TlbInvalidate`] event stamped with the
    /// owning core's virtual time.
    pub fn invalidate_traced<R: cmcp_trace::Recorder>(
        &mut self,
        page: VirtPage,
        tracer: &R,
        core: u16,
        now: Cycles,
    ) -> bool {
        let present = self.invalidate(page);
        if R::ENABLED {
            tracer.record(
                core,
                now,
                cmcp_trace::EventKind::TlbInvalidate,
                page.0,
                present as u64,
            );
        }
        present
    }

    /// Full flush (CR3 reload).
    pub fn flush(&mut self) {
        self.l1_4k.clear();
        self.l1_64k.clear();
        self.l1_2m.clear();
        self.l2.clear();
        self.stats.flushes += 1;
    }

    /// Hit/miss counters so far.
    #[inline]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Drains the translation-penalty cycles accumulated since the last
    /// call; the engine adds them to the core clock.
    #[inline]
    pub fn drain_cycles(&mut self) -> Cycles {
        std::mem::take(&mut self.pending_cycles)
    }

    /// Number of valid L1 entries across all size classes (testing aid).
    pub fn l1_occupancy(&self) -> usize {
        self.l1_4k.occupancy() + self.l1_64k.occupancy() + self.l1_2m.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn tlb() -> Tlb {
        Tlb::knc(&CostModel::default())
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tlb();
        assert_eq!(t.access(VirtPage(7), PageSize::K4), TlbLookup::Miss);
        t.fill(VirtPage(7), PageSize::K4);
        assert_eq!(t.access(VirtPage(7), PageSize::K4), TlbLookup::L1);
        let s = t.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn rewalk_counts_a_miss_but_not_an_access() {
        let mut t = tlb();
        assert_eq!(t.access(VirtPage(7), PageSize::K4), TlbLookup::Miss);
        let walk_cycles = t.drain_cycles();
        t.rewalk();
        let s = t.stats();
        assert_eq!(s.accesses, 1, "the touch retires once");
        assert_eq!(s.misses, 2, "the retried instruction walks again");
        assert_eq!(t.drain_cycles(), walk_cycles, "and pays the walk again");
    }

    #[test]
    fn large_entry_covers_all_contained_4k_pages() {
        let mut t = tlb();
        t.fill(VirtPage(0x100), PageSize::K64); // covers 0x100..0x110
        for p in 0x100..0x110u64 {
            assert_eq!(
                t.access(VirtPage(p), PageSize::K64),
                TlbLookup::L1,
                "page {p:#x}"
            );
        }
        assert_eq!(t.access(VirtPage(0x110), PageSize::K64), TlbLookup::Miss);
    }

    #[test]
    fn capacity_eviction_in_4k_array() {
        let mut t = tlb();
        // 64-entry L1 + 64-entry L2: touching 129 distinct conflicting
        // pages guarantees re-touching the first misses again.
        for p in 0..129u64 {
            t.access(VirtPage(p), PageSize::K4);
            t.fill(VirtPage(p), PageSize::K4);
        }
        let misses_before = t.stats().misses;
        assert_eq!(t.access(VirtPage(0), PageSize::K4), TlbLookup::Miss);
        assert_eq!(t.stats().misses, misses_before + 1);
    }

    #[test]
    fn l2_backs_up_l1_evictions() {
        let mut t = tlb();
        // The 2 MB L1 array has only 8 entries; touching 9 distinct 2 MB
        // pages evicts the first from L1 while the 64-entry L2 keeps it.
        for i in 0..9u64 {
            let p = VirtPage(i * 512);
            t.access(p, PageSize::M2);
            t.fill(p, PageSize::M2);
        }
        let r = t.access(VirtPage(0), PageSize::M2);
        assert_eq!(r, TlbLookup::L2);
        // ...and the hit promoted it back into L1.
        assert_eq!(t.access(VirtPage(0), PageSize::M2), TlbLookup::L1);
    }

    #[test]
    fn l2_index_ignores_class_bits() {
        // Sequential 4 kB pages must be able to use the whole L2, not just
        // every fourth set: after filling exactly l2-capacity sequential
        // pages (which also fit the 4k L1), all of them still hit.
        let mut t = tlb();
        for p in 0..64u64 {
            t.access(VirtPage(p), PageSize::K4);
            t.fill(VirtPage(p), PageSize::K4);
        }
        let before = t.stats().misses;
        for p in 0..64u64 {
            assert_ne!(
                t.access(VirtPage(p), PageSize::K4),
                TlbLookup::Miss,
                "page {p}"
            );
        }
        assert_eq!(t.stats().misses, before);
    }

    #[test]
    fn invalidate_removes_both_levels() {
        let mut t = tlb();
        t.fill(VirtPage(42), PageSize::K4);
        assert!(t.invalidate(VirtPage(42)));
        assert!(!t.invalidate(VirtPage(42)));
        assert_eq!(t.access(VirtPage(42), PageSize::K4), TlbLookup::Miss);
    }

    #[test]
    fn invalidate_4k_subpage_kills_64k_entry() {
        let mut t = tlb();
        t.fill(VirtPage(0x100), PageSize::K64);
        // INVLPG on any covered 4 kB page must drop the 64 kB entry.
        assert!(t.invalidate(VirtPage(0x105)));
        assert_eq!(t.access(VirtPage(0x100), PageSize::K64), TlbLookup::Miss);
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = tlb();
        for p in 0..10u64 {
            t.fill(VirtPage(p), PageSize::K4);
        }
        assert!(t.l1_occupancy() > 0);
        t.flush();
        assert_eq!(t.l1_occupancy(), 0);
        assert_eq!(t.access(VirtPage(3), PageSize::K4), TlbLookup::Miss);
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn pending_cycles_accumulate_and_drain() {
        let cost = CostModel::default();
        let mut t = Tlb::knc(&cost);
        t.access(VirtPage(1), PageSize::K4); // miss → walk cost
        assert_eq!(t.drain_cycles(), cost.page_walk);
        assert_eq!(t.drain_cycles(), 0);
    }

    #[test]
    fn same_vpn_different_size_does_not_alias_in_l2() {
        let mut t = tlb();
        // 4kB page 0 and 2MB page 0 have the same in-class vpn (0) but
        // must be distinct L2 entries.
        t.fill(VirtPage(0), PageSize::K4);
        t.fill(VirtPage(0), PageSize::M2);
        assert!(t.invalidate(VirtPage(0)));
        assert_eq!(t.access(VirtPage(0), PageSize::K4), TlbLookup::Miss);
        assert_eq!(t.access(VirtPage(0), PageSize::M2), TlbLookup::Miss);
    }

    #[test]
    fn access_any_finds_every_size_class() {
        let mut t = tlb();
        t.fill(VirtPage(0x100), PageSize::K64); // covers 0x100..0x110
        t.fill(VirtPage(0x400), PageSize::M2); // covers 0x400..0x600
        t.fill(VirtPage(7), PageSize::K4);
        assert_eq!(t.access_any(VirtPage(0x105)), TlbLookup::L1);
        assert_eq!(t.access_any(VirtPage(0x5ff)), TlbLookup::L1);
        assert_eq!(t.access_any(VirtPage(7)), TlbLookup::L1);
        assert_eq!(t.access_any(VirtPage(0x111)), TlbLookup::Miss);
        let s = t.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.l1_hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn access_any_promotes_from_l2_into_the_right_class() {
        let mut t = tlb();
        // Push a 2 MB entry out of its 8-entry L1 but keep it in L2.
        for i in 0..9u64 {
            let p = VirtPage(i * 512);
            t.access(p, PageSize::M2);
            t.fill(p, PageSize::M2);
        }
        assert_eq!(t.access_any(VirtPage(5)), TlbLookup::L2);
        // The promotion restored a 2 MB-class L1 entry covering page 5.
        assert_eq!(t.access(VirtPage(5), PageSize::M2), TlbLookup::L1);
    }

    /// FNV-1a over every observable result of a seeded op stream through
    /// one TLB: each lookup, invalidation and drained penalty in order,
    /// then the final counters and L1 occupancy, fields little-endian.
    fn op_stream_digest(seed: u64, ops: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        // SplitMix64: a self-contained stream, so the pin depends on
        // nothing but the TLB.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut t = tlb();
        for _ in 0..ops {
            let r = next();
            // A hot range that mostly hits, a warm one, and 8K pages:
            // 16 distinct 2 MB pages against the 8-way 2 MB array and far
            // more 4 kB and 64 kB tags than their sets hold, so every
            // array conflicts and evicts.
            let span = [64, 512, 8192, 8192][(r & 3) as usize];
            let page = VirtPage((r >> 16) % span);
            let size = PageSize::ALL[((r >> 2) % 3) as usize];
            match (r >> 4) % 1000 {
                0..=379 => eat(&[t.access(page, size) as u8]),
                380..=529 => eat(&[t.access_any(page) as u8]),
                530..=799 => t.fill(page, size),
                800..=899 => eat(&[t.invalidate(page) as u8]),
                900..=998 => t.rewalk(),
                _ => t.flush(),
            }
            eat(&t.drain_cycles().to_le_bytes());
        }
        let s = t.stats();
        for v in [
            s.accesses,
            s.l1_hits,
            s.l2_hits,
            s.misses,
            s.invalidations,
            s.flushes,
        ] {
            eat(&v.to_le_bytes());
        }
        eat(&(t.l1_occupancy() as u64).to_le_bytes());
        h
    }

    #[test]
    fn seeded_op_streams_are_pinned() {
        // The set layout, LRU victim order and counters, pinned: every
        // golden's dTLB misses and walk cycles come from this model.
        for (seed, want) in [
            (1u64, 0x8d4a_8cd3_65fe_8939u64),
            (42, 0xc349_a8eb_dd2a_c3e8),
            (0xdead_beef, 0xb739_593a_7f5c_718b),
        ] {
            assert_eq!(op_stream_digest(seed, 20_000), want, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "bad TLB geometry")]
    fn non_power_of_two_set_count_is_rejected() {
        let config = TlbConfig {
            l1_4k: 48,
            ..TlbConfig::default()
        };
        Tlb::new(config, 1, 1);
    }

    #[test]
    fn larger_pages_reduce_misses_on_streaming_sweep() {
        // The motivation for 64 kB pages: sweep 4 MB of address space.
        let sweep = |size: PageSize| {
            let mut t = tlb();
            let mut misses = 0;
            for p in 0..1024u64 {
                if t.access(VirtPage(p), size) == TlbLookup::Miss {
                    misses += 1;
                    t.fill(VirtPage(p), size);
                }
            }
            misses
        };
        let m4 = sweep(PageSize::K4);
        let m64 = sweep(PageSize::K64);
        let m2m = sweep(PageSize::M2);
        assert!(m4 > m64, "4k misses {m4} must exceed 64k misses {m64}");
        assert!(m64 > m2m, "64k misses {m64} must exceed 2M misses {m2m}");
        assert_eq!(m4, 1024);
        assert_eq!(m64, 64);
        assert_eq!(m2m, 2);
    }
}
