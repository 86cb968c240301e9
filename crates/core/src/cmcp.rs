//! Core-Map Count based Priority replacement — the paper's contribution
//! (§3, Figure 4).
//!
//! Resident blocks are split into two groups:
//!
//! * a **regular group** kept on a plain FIFO list, and
//! * a **priority group**, a priority queue ordered by the number of CPU
//!   cores mapping each block (the *core-map count* PSPT maintains),
//!   holding at most a fraction `p` of the resident blocks.
//!
//! When a PTE is set up (block inserted, or an additional core maps it),
//! the policy consults the core-map count and tries to place the block in
//! the priority group: it enters if the group is below its target size,
//! or displaces the lowest-priority member if its count is larger.
//! Displaced and aged-out members fall back to the FIFO list. Eviction
//! takes the FIFO head; only when the FIFO list is empty is the
//! lowest-priority member of the priority group taken.
//!
//! A slow **aging** pass demotes the longest-untouched priority members
//! so that once-hot pages cannot monopolize the group (paper §3: "all
//! prioritized pages slowly fall back to FIFO").
//!
//! The decisive property: **no accessed-bit reads, hence no remote TLB
//! invalidations for statistics** — the oracle parameter is never used.

use std::collections::VecDeque;

use cmcp_arch::{FxHashMap, VirtPage};

use crate::policy::{AccessBitOracle, ReplacementPolicy};

/// Tuning knobs for CMCP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmcpConfig {
    /// Target ratio of prioritized blocks, `0.0 ..= 1.0`. With `p → 0`
    /// the policy degenerates to FIFO; with `p → 1` all blocks are
    /// ordered by core-map count (paper §3).
    pub p: f64,
    /// Insertions between aging passes.
    pub aging_period: u64,
    /// Priority members demoted per aging pass (the oldest-touched ones).
    pub aging_batch: usize,
}

impl Default for CmcpConfig {
    fn default() -> CmcpConfig {
        // Aging drains one prioritized block per 32 insertions: fast
        // enough that pages whose mapping phase has passed (e.g. BT
        // switching its domain partition between solves) eventually fall
        // back to FIFO, slow enough that the priority group keeps
        // protecting genuinely shared pages instead of churning them
        // (see the `ablation_aging` bench for the tradeoff curve).
        CmcpConfig {
            p: 0.75,
            aging_period: 32,
            aging_batch: 1,
        }
    }
}

/// The CMCP policy.
pub struct CmcpPolicy {
    config: CmcpConfig,
    /// Maximum priority-group size: `floor(p × capacity)`.
    prio_target: usize,
    /// FIFO list: `(block, generation)`, stale entries skipped lazily.
    fifo: VecDeque<(u64, u64)>,
    fifo_live: FxHashMap<u64, u64>,
    /// Priority group: one queue of `(stamp, block)` per core-map count.
    /// Stamps are unique and rising, so each queue's live entries run
    /// oldest first, and the lowest-priority member (fewest mapping
    /// cores, least recently re-asserted) is the first live entry of the
    /// lowest-count queue that holds one. Removing or re-stamping a
    /// member leaves its entry behind, stale (its stamp is no longer the
    /// one in `prio_live`): lookups drop stale entries at the front, and
    /// a push compacts the queues once they hold over twice the members.
    prio: Vec<VecDeque<(u64, u64)>>,
    /// Entries queued in `prio`, live and stale.
    prio_queued: usize,
    /// Priority members: block → stamp.
    prio_live: FxHashMap<u64, u64>,
    /// Age order over the priority group, `(stamp, block)` oldest first,
    /// pruned like the count queues.
    age: VecDeque<(u64, u64)>,
    seq: u64,
    inserts: u64,
    /// Statistics: how many placements went to each group.
    pub stats: CmcpStats,
}

/// Counters exposed for experiments and ablations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CmcpStats {
    /// Blocks placed into the priority group on arrival or promotion.
    pub prioritized: u64,
    /// Blocks placed on (or demoted to) the FIFO list.
    pub demoted: u64,
    /// Aging-pass demotions.
    pub aged_out: u64,
    /// Evictions served from the FIFO list.
    pub evict_fifo: u64,
    /// Evictions that had to take the lowest-priority member.
    pub evict_prio: u64,
}

impl CmcpPolicy {
    /// CMCP managing a memory of `capacity_blocks` resident blocks.
    pub fn new(config: CmcpConfig, capacity_blocks: usize) -> CmcpPolicy {
        assert!((0.0..=1.0).contains(&config.p), "p must be within [0, 1]");
        CmcpPolicy {
            prio_target: (config.p * capacity_blocks as f64).floor() as usize,
            config,
            fifo: VecDeque::new(),
            fifo_live: FxHashMap::default(),
            prio: Vec::new(),
            prio_queued: 0,
            prio_live: FxHashMap::default(),
            age: VecDeque::new(),
            seq: 0,
            inserts: 0,
            stats: CmcpStats::default(),
        }
    }

    /// Current priority-group size.
    pub fn priority_len(&self) -> usize {
        self.prio_live.len()
    }

    /// Current FIFO-list size.
    pub fn fifo_len(&self) -> usize {
        self.fifo_live.len()
    }

    /// The configured ratio `p`.
    pub fn ratio(&self) -> f64 {
        self.config.p
    }

    /// Re-targets the priority group (used by the adaptive variant).
    pub(crate) fn set_ratio(&mut self, p: f64, capacity_blocks: usize) {
        self.config.p = p.clamp(0.0, 1.0);
        self.prio_target = (self.config.p * capacity_blocks as f64).floor() as usize;
        // Shrink eagerly if the new target is smaller.
        while self.prio_live.len() > self.prio_target {
            self.demote_lowest();
        }
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn fifo_push(&mut self, block: u64) {
        let gen = self.next_seq();
        self.fifo_live.insert(block, gen);
        self.fifo.push_back((block, gen));
    }

    fn fifo_remove(&mut self, block: u64) -> bool {
        self.fifo_live.remove(&block).is_some()
    }

    /// Makes `block` a priority member with `count` mapping cores under a
    /// fresh stamp. A member re-asserted this way leaves its old entries
    /// stale.
    fn prio_insert(&mut self, block: u64, count: u32) {
        let stamp = self.next_seq();
        self.prio_live.insert(block, stamp);
        let count = count as usize;
        if self.prio.len() <= count {
            self.prio.resize_with(count + 1, VecDeque::new);
        }
        self.prio[count].push_back((stamp, block));
        self.prio_queued += 1;
        self.age.push_back((stamp, block));
        let live = &self.prio_live;
        let is_live = |&(stamp, block): &(u64, u64)| live.get(&block) == Some(&stamp);
        if self.prio_queued > 2 * live.len() {
            for queue in &mut self.prio {
                queue.retain(is_live);
            }
            self.prio_queued = live.len();
        }
        if self.age.len() > 2 * live.len() {
            self.age.retain(is_live);
        }
    }

    fn prio_remove(&mut self, block: u64) -> bool {
        self.prio_live.remove(&block).is_some()
    }

    /// Lowest-priority member (fewest mapping cores, oldest stamp),
    /// dropping the stale entries queued in front of it.
    fn prio_min(&mut self) -> Option<(u32, u64)> {
        let live = &self.prio_live;
        for (count, queue) in self.prio.iter_mut().enumerate() {
            while let Some(&(stamp, block)) = queue.front() {
                if live.get(&block) == Some(&stamp) {
                    return Some((count as u32, block));
                }
                queue.pop_front();
                self.prio_queued -= 1;
            }
        }
        None
    }

    /// The longest-untouched priority member, dropping the stale age
    /// entries in front of it.
    fn prio_oldest(&mut self) -> Option<u64> {
        while let Some(&(stamp, block)) = self.age.front() {
            if self.prio_live.get(&block) == Some(&stamp) {
                return Some(block);
            }
            self.age.pop_front();
        }
        None
    }

    /// Demotes the lowest-priority member to the FIFO tail.
    fn demote_lowest(&mut self) {
        if let Some((_, block)) = self.prio_min() {
            self.prio_remove(block);
            self.fifo_push(block);
            self.stats.demoted += 1;
        }
    }

    /// The placement rule from paper §3: try to put `block` (with
    /// `count` mapping cores) into the priority group.
    fn try_place_priority(&mut self, block: u64, count: u32) {
        if self.prio_target == 0 {
            self.fifo_push(block);
            self.stats.demoted += 1;
            return;
        }
        if self.prio_live.len() < self.prio_target {
            self.prio_insert(block, count);
            self.stats.prioritized += 1;
            return;
        }
        match self.prio_min() {
            Some((min_count, _)) if count > min_count => {
                self.demote_lowest();
                self.prio_insert(block, count);
                self.stats.prioritized += 1;
            }
            _ => {
                self.fifo_push(block);
                self.stats.demoted += 1;
            }
        }
    }

    /// Aging pass: demote the `aging_batch` longest-untouched members.
    fn age_pass(&mut self) {
        for _ in 0..self.config.aging_batch {
            let Some(block) = self.prio_oldest() else {
                break;
            };
            self.prio_remove(block);
            self.fifo_push(block);
            self.stats.aged_out += 1;
        }
    }

    fn drop_stale_fifo_front(&mut self) {
        while let Some(&(block, gen)) = self.fifo.front() {
            if self.fifo_live.get(&block) == Some(&gen) {
                return;
            }
            self.fifo.pop_front();
        }
    }
}

impl ReplacementPolicy for CmcpPolicy {
    fn name(&self) -> &'static str {
        "CMCP"
    }

    fn on_insert(&mut self, block: VirtPage, map_count: usize) {
        debug_assert!(!self.contains(block), "double insert of {block}");
        self.try_place_priority(block.0, map_count as u32);
        self.inserts += 1;
        if self.config.aging_period > 0 && self.inserts.is_multiple_of(self.config.aging_period) {
            self.age_pass();
        }
    }

    fn on_map_count_change(&mut self, block: VirtPage, map_count: usize) {
        let count = map_count as u32;
        if self.prio_live.contains_key(&block.0) {
            // Re-queue under the fresh count and stamp.
            self.prio_insert(block.0, count);
        } else if self.fifo_live.contains_key(&block.0) {
            // A new PTE was set up for a FIFO-resident block: the paper's
            // placement rule runs again with the fresh count.
            let should_promote = self.prio_live.len() < self.prio_target
                || matches!(self.prio_min(), Some((min, _)) if count > min);
            if should_promote && self.prio_target > 0 {
                self.fifo_remove(block.0);
                if self.prio_live.len() >= self.prio_target {
                    self.demote_lowest();
                }
                self.prio_insert(block.0, count);
                self.stats.prioritized += 1;
            }
        } else {
            debug_assert!(false, "map-count change for untracked {block}");
        }
    }

    fn select_victim(&mut self, _oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        self.drop_stale_fifo_front();
        if let Some(&(block, _)) = self.fifo.front() {
            return Some(VirtPage(block));
        }
        // FIFO empty: take the lowest-priority member (paper §3).
        self.prio_min().map(|(_, block)| VirtPage(block))
    }

    fn on_evict(&mut self, block: VirtPage) {
        if self.fifo_remove(block.0) {
            self.stats.evict_fifo += 1;
        } else if self.prio_remove(block.0) {
            self.stats.evict_prio += 1;
        } else {
            debug_assert!(false, "evicting untracked {block}");
        }
    }

    fn victim_group(&self, block: VirtPage) -> u8 {
        if self.prio_live.contains_key(&block.0) {
            2
        } else if self.fifo_live.contains_key(&block.0) {
            1
        } else {
            0
        }
    }

    fn resident(&self) -> usize {
        self.fifo_live.len() + self.prio_live.len()
    }

    fn contains(&self, block: VirtPage) -> bool {
        self.fifo_live.contains_key(&block.0) || self.prio_live.contains_key(&block.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    fn cmcp(p: f64, capacity: usize) -> CmcpPolicy {
        CmcpPolicy::new(
            CmcpConfig {
                p,
                aging_period: 0,
                aging_batch: 1,
            },
            capacity,
        )
    }

    fn evict_one(p: &mut CmcpPolicy) -> Option<VirtPage> {
        let v = p.select_victim(&mut NullOracle)?;
        p.on_evict(v);
        Some(v)
    }

    #[test]
    fn p_zero_degenerates_to_fifo() {
        let mut p = cmcp(0.0, 10);
        for b in 0..5u64 {
            p.on_insert(VirtPage(b), (b + 1) as usize);
        }
        assert_eq!(p.priority_len(), 0);
        for b in 0..5u64 {
            assert_eq!(evict_one(&mut p), Some(VirtPage(b)));
        }
    }

    #[test]
    fn p_one_orders_everything_by_count() {
        let mut p = cmcp(1.0, 10);
        p.on_insert(VirtPage(10), 3);
        p.on_insert(VirtPage(11), 1);
        p.on_insert(VirtPage(12), 7);
        p.on_insert(VirtPage(13), 2);
        assert_eq!(p.fifo_len(), 0);
        // Evictions come lowest-count first.
        assert_eq!(evict_one(&mut p), Some(VirtPage(11)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(13)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(10)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(12)));
    }

    #[test]
    fn fifo_is_preferred_victim_source() {
        let mut p = cmcp(0.5, 4); // priority target = 2
        p.on_insert(VirtPage(1), 8);
        p.on_insert(VirtPage(2), 8);
        p.on_insert(VirtPage(3), 1); // group full → FIFO
        assert_eq!(p.priority_len(), 2);
        assert_eq!(p.fifo_len(), 1);
        assert_eq!(evict_one(&mut p), Some(VirtPage(3)), "FIFO head first");
        // FIFO now empty → lowest priority member.
        let v = evict_one(&mut p).unwrap();
        assert_eq!(v, VirtPage(1), "tie on count → oldest stamp");
    }

    #[test]
    fn higher_count_displaces_lowest_priority_member() {
        let mut p = cmcp(0.5, 4); // target 2
        p.on_insert(VirtPage(1), 2);
        p.on_insert(VirtPage(2), 5);
        p.on_insert(VirtPage(3), 9); // displaces block1 (count 2)
        assert_eq!(p.priority_len(), 2);
        assert!(p.fifo_len() == 1);
        assert_eq!(
            evict_one(&mut p),
            Some(VirtPage(1)),
            "displaced member is on FIFO"
        );
    }

    #[test]
    fn equal_count_does_not_displace() {
        let mut p = cmcp(0.5, 4);
        p.on_insert(VirtPage(1), 5);
        p.on_insert(VirtPage(2), 5);
        p.on_insert(VirtPage(3), 5); // equal, not larger → FIFO
        assert_eq!(evict_one(&mut p), Some(VirtPage(3)));
    }

    #[test]
    fn map_count_change_promotes_from_fifo() {
        let mut p = cmcp(0.5, 4);
        p.on_insert(VirtPage(1), 6);
        p.on_insert(VirtPage(2), 6);
        p.on_insert(VirtPage(3), 1); // → FIFO
                                     // More cores start mapping block 3.
        p.on_map_count_change(VirtPage(3), 9);
        assert!(p.fifo_len() == 1, "displaced member took its place on FIFO");
        // Block 3 is now prioritized; the displaced 6-count block is the victim.
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)));
        assert!(p.contains(VirtPage(3)));
    }

    #[test]
    fn map_count_change_updates_priority_ordering() {
        let mut p = cmcp(1.0, 10);
        p.on_insert(VirtPage(1), 2);
        p.on_insert(VirtPage(2), 3);
        p.on_map_count_change(VirtPage(1), 10);
        assert_eq!(
            evict_one(&mut p),
            Some(VirtPage(2)),
            "block1 rose above block2"
        );
    }

    #[test]
    fn aging_demotes_oldest_member() {
        let mut p = CmcpPolicy::new(
            CmcpConfig {
                p: 1.0,
                aging_period: 3,
                aging_batch: 1,
            },
            10,
        );
        p.on_insert(VirtPage(1), 9);
        p.on_insert(VirtPage(2), 9);
        p.on_insert(VirtPage(3), 9); // third insert triggers aging → block1 demoted
        assert_eq!(p.fifo_len(), 1);
        assert_eq!(p.stats.aged_out, 1);
        assert_eq!(
            evict_one(&mut p),
            Some(VirtPage(1)),
            "aged-out block evicts first"
        );
    }

    #[test]
    fn aging_refresh_protects_recently_reasserted_blocks() {
        let mut p = CmcpPolicy::new(
            CmcpConfig {
                p: 1.0,
                aging_period: 3,
                aging_batch: 1,
            },
            10,
        );
        p.on_insert(VirtPage(1), 9);
        p.on_insert(VirtPage(2), 9);
        p.on_map_count_change(VirtPage(1), 10); // refreshes block1's stamp
        p.on_insert(VirtPage(3), 9); // aging demotes block2 now
        assert!(p.contains(VirtPage(1)));
        assert_eq!(evict_one(&mut p), Some(VirtPage(2)));
    }

    #[test]
    fn compaction_keeps_the_priority_order() {
        // Re-asserting members leaves stale entries behind; the queues
        // are compacted whenever they outgrow twice the members, and the
        // live members keep their (count, stamp) order throughout.
        let mut p = cmcp(1.0, 10);
        for b in 0..4u64 {
            p.on_insert(VirtPage(b), 2);
        }
        for _ in 0..20 {
            p.on_map_count_change(VirtPage(1), 2);
            p.on_map_count_change(VirtPage(0), 3);
            assert!(p.prio_queued <= 2 * p.priority_len(), "{}", p.prio_queued);
            assert!(p.age.len() <= 2 * p.priority_len(), "{}", p.age.len());
        }
        let order: Vec<u64> = (0..4).map(|_| evict_one(&mut p).unwrap().0).collect();
        assert_eq!(order, [2, 3, 1, 0]);
    }

    #[test]
    fn eviction_statistics() {
        let mut p = cmcp(0.5, 2); // target 1
        p.on_insert(VirtPage(1), 4);
        p.on_insert(VirtPage(2), 1);
        evict_one(&mut p); // FIFO (block2)
        evict_one(&mut p); // priority (block1)
        assert_eq!(p.stats.evict_fifo, 1);
        assert_eq!(p.stats.evict_prio, 1);
        assert_eq!(p.resident(), 0);
    }

    #[test]
    fn reinsert_after_eviction_is_clean() {
        let mut p = cmcp(0.5, 4);
        p.on_insert(VirtPage(1), 1);
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)));
        p.on_insert(VirtPage(1), 3);
        assert!(p.contains(VirtPage(1)));
        assert_eq!(p.resident(), 1);
        assert_eq!(evict_one(&mut p), Some(VirtPage(1)));
        assert_eq!(p.resident(), 0);
    }

    #[test]
    #[should_panic(expected = "p must be within")]
    fn rejects_bad_ratio() {
        CmcpPolicy::new(
            CmcpConfig {
                p: 1.5,
                ..Default::default()
            },
            10,
        );
    }

    #[test]
    fn never_consults_the_oracle() {
        // An oracle that panics proves CMCP performs zero accessed-bit
        // reads — the paper's headline property.
        struct PanicOracle;
        impl AccessBitOracle for PanicOracle {
            fn test_and_clear(&mut self, _b: VirtPage) -> bool {
                panic!("CMCP must not read accessed bits");
            }
        }
        let mut p = cmcp(0.5, 4);
        for b in 0..8u64 {
            p.on_insert(VirtPage(b), (b % 3 + 1) as usize);
            if b % 2 == 0 {
                let v = p.select_victim(&mut PanicOracle).unwrap();
                p.on_evict(v);
            }
        }
        assert!(!p.wants_periodic_scan());
    }
}
