//! Two-list LRU approximation — "the same algorithm employed by the
//! Linux kernel" (paper §5.1).
//!
//! Resident blocks live on an *active* and an *inactive* list. A timer
//! (the kernel fires it every 10 ms of virtual time, from dedicated
//! hyperthreads as in the paper) scans accessed bits and moves blocks
//! between the lists; eviction takes the oldest inactive block, giving a
//! second chance — and a promotion to active — to blocks whose accessed
//! bit is found set at reclaim, as Linux's reclaim path does.
//!
//! Every accessed-bit read goes through the [`AccessBitOracle`], where
//! the kernel charges the PTE scan and the remote TLB invalidations that
//! clearing a set bit requires on x86. That cost — not the policy itself
//! — is what makes LRU lose to FIFO on many-cores (paper §5.5).

use std::collections::VecDeque;

use cmcp_arch::FxHashMap;

use cmcp_arch::VirtPage;

use crate::policy::{AccessBitOracle, ReplacementPolicy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListId {
    Active,
    Inactive,
}

/// The two-list LRU approximation.
#[derive(Debug, Default)]
pub struct LruPolicy {
    /// Front = oldest. Entries are (block, generation).
    active: VecDeque<(u64, u64)>,
    inactive: VecDeque<(u64, u64)>,
    /// block → (list, generation). Stale queue entries are skipped.
    live: FxHashMap<u64, (ListId, u64)>,
    next_gen: u64,
    /// Statistics: promotions/demotions between the lists.
    pub promotions: u64,
    /// Demotions active → inactive.
    pub demotions: u64,
}

impl LruPolicy {
    /// An empty policy.
    pub fn new() -> LruPolicy {
        LruPolicy::default()
    }

    /// Current inactive-list length.
    pub fn inactive_len(&self) -> usize {
        self.live
            .values()
            .filter(|(l, _)| *l == ListId::Inactive)
            .count()
    }

    /// Current active-list length.
    pub fn active_len(&self) -> usize {
        self.live.len() - self.inactive_len()
    }

    fn push(&mut self, list: ListId, block: u64) {
        self.next_gen += 1;
        let gen = self.next_gen;
        self.live.insert(block, (list, gen));
        match list {
            ListId::Active => self.active.push_back((block, gen)),
            ListId::Inactive => self.inactive.push_back((block, gen)),
        }
    }

    /// Pops the oldest *valid* entry of `list`, if any.
    fn pop_oldest(&mut self, list: ListId) -> Option<u64> {
        let queue = match list {
            ListId::Active => &mut self.active,
            ListId::Inactive => &mut self.inactive,
        };
        while let Some((block, gen)) = queue.pop_front() {
            if self.live.get(&block) == Some(&(list, gen)) {
                return Some(block);
            }
        }
        None
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_insert(&mut self, block: VirtPage, _map_count: usize) {
        debug_assert!(!self.contains(block), "double insert of {block}");
        // New pages start on the inactive list, as in Linux.
        self.push(ListId::Inactive, block.0);
    }

    fn on_map_count_change(&mut self, _block: VirtPage, _map_count: usize) {
        // LRU ignores sharing information.
    }

    fn select_victim(&mut self, oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        // Reclaim: take from the cold end of the inactive list, giving a
        // second chance (promotion to active) to referenced blocks. Bound
        // the scan so a fully-hot memory still yields a victim.
        let mut attempts = self.live.len() + 1;
        loop {
            match self.pop_oldest(ListId::Inactive) {
                Some(block) => {
                    attempts = attempts.saturating_sub(1);
                    if attempts > 0 && oracle.test_and_clear(VirtPage(block)) {
                        self.promotions += 1;
                        self.push(ListId::Active, block);
                        continue;
                    }
                    // Victim found: put it back at the cold end so the
                    // kernel's subsequent on_evict sees consistent state.
                    self.next_gen += 1;
                    let gen = self.next_gen;
                    self.live.insert(block, (ListId::Inactive, gen));
                    self.inactive.push_front((block, gen));
                    return Some(VirtPage(block));
                }
                None => {
                    // Inactive exhausted: refill from the active list's
                    // cold end (Linux's shrink_active_list).
                    let block = self.pop_oldest(ListId::Active)?;
                    self.demotions += 1;
                    self.push(ListId::Inactive, block);
                }
            }
        }
    }

    fn on_evict(&mut self, block: VirtPage) {
        let removed = self.live.remove(&block.0);
        debug_assert!(removed.is_some(), "evicting untracked {block}");
    }

    fn wants_periodic_scan(&self) -> bool {
        true
    }

    fn scan_tick(&mut self, budget: usize, oracle: &mut dyn AccessBitOracle) {
        // Linux's kswapd-style aging: walk the cold end of the active
        // list; referenced blocks rotate to the hot end, unreferenced
        // ones are demoted. Spend any remaining budget aging the
        // inactive list so hot blocks get promoted before reclaim
        // reaches them.
        let active_share = budget / 2;
        for _ in 0..active_share {
            let Some(block) = self.pop_oldest(ListId::Active) else {
                break;
            };
            if oracle.test_and_clear(VirtPage(block)) {
                self.push(ListId::Active, block);
            } else {
                self.demotions += 1;
                self.push(ListId::Inactive, block);
            }
        }
        for _ in 0..budget.saturating_sub(active_share) {
            let Some(block) = self.pop_oldest(ListId::Inactive) else {
                break;
            };
            if oracle.test_and_clear(VirtPage(block)) {
                self.promotions += 1;
                self.push(ListId::Active, block);
            } else {
                self.push(ListId::Inactive, block);
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

    /// Oracle backed by a set of "hot" blocks; counts reads.
    struct SetOracle {
        hot: HashSet<u64>,
        reads: u64,
        sticky: bool,
    }

    impl SetOracle {
        fn new(hot: &[u64], sticky: bool) -> SetOracle {
            SetOracle {
                hot: hot.iter().copied().collect(),
                reads: 0,
                sticky,
            }
        }
    }

    impl AccessBitOracle for SetOracle {
        fn test_and_clear(&mut self, block: VirtPage) -> bool {
            self.reads += 1;
            if self.sticky {
                self.hot.contains(&block.0)
            } else {
                self.hot.remove(&block.0)
            }
        }
    }

    fn evict_one(p: &mut LruPolicy, o: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        let v = p.select_victim(o)?;
        p.on_evict(v);
        Some(v)
    }

    #[test]
    fn cold_blocks_evict_in_insertion_order() {
        let mut p = LruPolicy::new();
        for b in [5u64, 6, 7] {
            p.on_insert(VirtPage(b), 1);
        }
        let mut o = NullOracle;
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(5)));
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(6)));
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(7)));
    }

    #[test]
    fn referenced_block_gets_second_chance() {
        let mut p = LruPolicy::new();
        p.on_insert(VirtPage(1), 1);
        p.on_insert(VirtPage(2), 1);
        // Block 1 is hot: reclaim must skip it and take block 2.
        let mut o = SetOracle::new(&[1], false);
        assert_eq!(evict_one(&mut p, &mut o), Some(VirtPage(2)));
        assert!(p.contains(VirtPage(1)));
        assert_eq!(p.promotions, 1);
        assert!(o.reads >= 1, "second chance requires an accessed-bit read");
    }

    #[test]
    fn fully_hot_memory_still_yields_a_victim() {
        let mut p = LruPolicy::new();
        for b in 0..4u64 {
            p.on_insert(VirtPage(b), 1);
        }
        let mut o = SetOracle::new(&[0, 1, 2, 3], true);
        let v = evict_one(&mut p, &mut o);
        assert!(v.is_some(), "bounded scan must not livelock");
        assert_eq!(p.resident(), 3);
    }

    #[test]
    fn scan_tick_promotes_hot_inactive_blocks() {
        let mut p = LruPolicy::new();
        for b in 0..4u64 {
            p.on_insert(VirtPage(b), 1);
        }
        assert_eq!(p.active_len(), 0);
        let mut o = SetOracle::new(&[2], false);
        p.scan_tick(8, &mut o);
        assert_eq!(p.active_len(), 1, "hot block promoted");
        // The hot block now survives evictions of all cold blocks.
        let mut null = NullOracle;
        for _ in 0..3 {
            let v = evict_one(&mut p, &mut null).unwrap();
            assert_ne!(v, VirtPage(2));
        }
        assert!(p.contains(VirtPage(2)));
    }

    #[test]
    fn scan_tick_demotes_cold_active_blocks() {
        let mut p = LruPolicy::new();
        p.on_insert(VirtPage(1), 1);
        // Promote block 1 to active.
        let mut o = SetOracle::new(&[1], false);
        p.scan_tick(4, &mut o);
        assert_eq!(p.active_len(), 1);
        // Now it is cold: the next scan demotes it.
        let mut cold = NullOracle;
        p.scan_tick(4, &mut cold);
        assert_eq!(p.active_len(), 0);
        assert!(p.demotions >= 1);
    }

    #[test]
    fn lru_reduces_faults_versus_fifo_on_hot_cold_mix() {
        // The paper's Table 1 observation, reproduced in miniature: with
        // a working set of hot blocks plus a cold stream, LRU takes fewer
        // faults than FIFO at equal capacity.
        use crate::fifo::FifoPolicy;
        let capacity = 8usize;
        let hot: Vec<u64> = (0..4).collect();
        // Reference string: hot blocks touched every round, 12 cold
        // blocks streamed through repeatedly.
        let mut reference = Vec::new();
        for round in 0..30u64 {
            for &h in &hot {
                reference.push(h);
            }
            for c in 0..4u64 {
                reference.push(100 + (round * 4 + c) % 12);
            }
        }

        fn run(
            policy: &mut dyn ReplacementPolicy,
            reference: &[u64],
            capacity: usize,
            hot: &[u64],
        ) -> u64 {
            let mut faults = 0;
            for &b in reference {
                if !policy.contains(VirtPage(b)) {
                    faults += 1;
                    if policy.resident() >= capacity {
                        // Hot blocks always have their bit set when examined.
                        let mut o = SetOracle::new(hot, true);
                        let v = policy.select_victim(&mut o).unwrap();
                        policy.on_evict(v);
                    }
                    policy.on_insert(VirtPage(b), 1);
                } else {
                    // Periodic aging so LRU sees recency.
                    let mut o = SetOracle::new(hot, true);
                    policy.scan_tick(2, &mut o);
                }
            }
            faults
        }

        let mut lru = LruPolicy::new();
        let mut fifo = FifoPolicy::new();
        let lru_faults = run(&mut lru, &reference, capacity, &hot);
        let fifo_faults = run(&mut fifo, &reference, capacity, &hot);
        assert!(
            lru_faults < fifo_faults,
            "LRU ({lru_faults}) must take fewer faults than FIFO ({fifo_faults})"
        );
    }
}
