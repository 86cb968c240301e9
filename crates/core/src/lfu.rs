//! LFU (least frequently used) via periodic accessed-bit sampling.
//!
//! True LFU needs a reference counter per page, which no x86-class MMU
//! provides; practical implementations approximate frequency by sampling
//! the accessed bit on a timer — every sample that finds the bit set
//! increments the block's frequency and *clears the bit*, which on x86
//! forces remote TLB invalidations. The paper lists LFU (§3) among the
//! policies that share LRU's statistics cost; this implementation makes
//! the claim measurable.

use std::collections::BTreeSet;

use cmcp_arch::FxHashMap;

use cmcp_arch::VirtPage;

use crate::policy::{AccessBitOracle, ReplacementPolicy};

/// Frequency-ordered replacement with accessed-bit sampling.
#[derive(Debug, Default)]
pub struct LfuPolicy {
    /// (frequency, insertion seq, block) — first element is the victim:
    /// lowest frequency, oldest insertion breaking ties (LFU with FIFO
    /// tie-break).
    order: BTreeSet<(u64, u64, u64)>,
    live: FxHashMap<u64, (u64, u64)>, // block → (freq, seq)
    /// Round-robin scan cursor (block ids ≥ cursor scan first).
    cursor: u64,
    next_seq: u64,
}

impl LfuPolicy {
    /// An empty policy.
    pub fn new() -> LfuPolicy {
        LfuPolicy::default()
    }

    /// Current sampled frequency of `block`, if resident.
    pub fn frequency(&self, block: VirtPage) -> Option<u64> {
        self.live.get(&block.0).map(|&(f, _)| f)
    }

    fn bump(&mut self, block: u64) {
        if let Some(&(freq, seq)) = self.live.get(&block) {
            self.order.remove(&(freq, seq, block));
            self.order.insert((freq + 1, seq, block));
            self.live.insert(block, (freq + 1, seq));
        }
    }
}

impl ReplacementPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn on_insert(&mut self, block: VirtPage, _map_count: usize) {
        debug_assert!(!self.contains(block), "double insert of {block}");
        self.next_seq += 1;
        self.live.insert(block.0, (0, self.next_seq));
        self.order.insert((0, self.next_seq, block.0));
    }

    fn on_map_count_change(&mut self, _block: VirtPage, _map_count: usize) {}

    fn select_victim(&mut self, _oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        self.order.first().map(|&(_, _, block)| VirtPage(block))
    }

    fn on_evict(&mut self, block: VirtPage) {
        if let Some((freq, seq)) = self.live.remove(&block.0) {
            self.order.remove(&(freq, seq, block.0));
        } else {
            debug_assert!(false, "evicting untracked {block}");
        }
    }

    fn wants_periodic_scan(&self) -> bool {
        true
    }

    fn scan_tick(&mut self, budget: usize, oracle: &mut dyn AccessBitOracle) {
        // Sample up to `budget` resident blocks round-robin by block id so
        // every block is sampled at a steady rate.
        let mut keys: Vec<u64> = self.live.keys().copied().collect();
        keys.sort_unstable();
        let start = keys.partition_point(|&b| b < self.cursor);
        let mut sampled: Vec<u64> = keys[start..].iter().copied().take(budget).collect();
        if sampled.len() < budget {
            // Wrap around to the smallest ids.
            sampled.extend(keys[..start].iter().copied().take(budget - sampled.len()));
        }
        // Cursor resumes after the last block visited in traversal order.
        self.cursor = sampled.last().map(|&b| b + 1).unwrap_or(0);
        sampled.dedup();
        for block in sampled {
            if oracle.test_and_clear(VirtPage(block)) {
                self.bump(block);
            }
        }
    }

    fn resident(&self) -> usize {
        self.live.len()
    }

    fn contains(&self, block: VirtPage) -> bool {
        self.live.contains_key(&block.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;
    use std::collections::HashSet;

    struct SetOracle(HashSet<u64>);

    impl AccessBitOracle for SetOracle {
        fn test_and_clear(&mut self, block: VirtPage) -> bool {
            self.0.contains(&block.0)
        }
    }

    #[test]
    fn victim_is_lowest_frequency() {
        let mut p = LfuPolicy::new();
        for b in 0..3u64 {
            p.on_insert(VirtPage(b), 1);
        }
        // Blocks 0 and 2 are hot over two sampling rounds.
        let mut o = SetOracle([0, 2].into_iter().collect());
        p.scan_tick(10, &mut o);
        p.scan_tick(10, &mut o);
        assert_eq!(p.frequency(VirtPage(0)), Some(2));
        assert_eq!(p.frequency(VirtPage(1)), Some(0));
        assert_eq!(p.select_victim(&mut NullOracle), Some(VirtPage(1)));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut p = LfuPolicy::new();
        p.on_insert(VirtPage(9), 1);
        p.on_insert(VirtPage(3), 1);
        assert_eq!(p.select_victim(&mut NullOracle), Some(VirtPage(9)));
    }

    #[test]
    fn eviction_removes_from_both_indices() {
        let mut p = LfuPolicy::new();
        p.on_insert(VirtPage(1), 1);
        p.on_insert(VirtPage(2), 1);
        let v = p.select_victim(&mut NullOracle).unwrap();
        p.on_evict(v);
        assert_eq!(p.resident(), 1);
        assert!(!p.contains(v));
        // Reinsert is clean.
        p.on_insert(v, 1);
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn scan_cursor_rotates_over_all_blocks() {
        let mut p = LfuPolicy::new();
        for b in 0..6u64 {
            p.on_insert(VirtPage(b), 1);
        }
        let mut o = SetOracle((0..6).collect());
        // Budget 2 per tick: after 3 ticks every block was sampled once.
        for _ in 0..3 {
            p.scan_tick(2, &mut o);
        }
        for b in 0..6u64 {
            assert!(
                p.frequency(VirtPage(b)).unwrap() >= 1,
                "block {b} never sampled"
            );
        }
    }
}
