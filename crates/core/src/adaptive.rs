//! Adaptive CMCP: the paper's §5.6 future work, implemented.
//!
//! > "We adjusted the algorithm's parameter manually in this paper, but
//! > determining the optimal value dynamically based on runtime
//! > performance feedback (such as page fault frequency) is part of our
//! > future work."
//!
//! Figure 9 shows the best ratio `p` is workload-specific (low for CG,
//! high for LU/SCALE). This variant hill-climbs `p` online using
//! *refaults* as the feedback signal: a bounded ghost list remembers
//! recently evicted blocks, and an insertion that hits the ghost list
//! means the policy evicted something still needed. Every window the
//! refault count is compared with the previous window; if it got worse,
//! the direction of the `p` adjustment flips.

use std::collections::VecDeque;

use cmcp_arch::FxHashMap;

use cmcp_arch::VirtPage;

use crate::cmcp::{CmcpConfig, CmcpPolicy};
use crate::policy::{AccessBitOracle, ReplacementPolicy};

/// How far `p` moves per adaptation window.
const STEP: f64 = 0.1;
/// Inserts per adaptation window.
const WINDOW: u64 = 512;

/// CMCP with a self-tuning priority ratio.
pub struct AdaptiveCmcpPolicy {
    inner: CmcpPolicy,
    capacity_blocks: usize,
    /// Ghost list of recently evicted blocks (bounded to capacity).
    ghost: VecDeque<u64>,
    ghost_set: FxHashMap<u64, u32>,
    ghost_cap: usize,
    refaults_window: u64,
    refaults_prev: u64,
    inserts: u64,
    direction: f64,
    /// Adaptation trace: (window index, chosen p, refaults) — for the
    /// ablation bench and tests.
    pub history: Vec<(u64, f64, u64)>,
}

impl AdaptiveCmcpPolicy {
    /// Starts at `p = 0.5` and adapts from there.
    pub fn new(capacity_blocks: usize) -> AdaptiveCmcpPolicy {
        AdaptiveCmcpPolicy {
            inner: CmcpPolicy::new(
                CmcpConfig {
                    p: 0.5,
                    ..Default::default()
                },
                capacity_blocks,
            ),
            capacity_blocks,
            ghost: VecDeque::new(),
            ghost_set: FxHashMap::default(),
            ghost_cap: capacity_blocks.max(16),
            refaults_window: 0,
            refaults_prev: u64::MAX,
            inserts: 0,
            direction: STEP,
            history: Vec::new(),
        }
    }

    /// The ratio currently in force.
    pub fn current_p(&self) -> f64 {
        self.inner.ratio()
    }

    fn ghost_insert(&mut self, block: u64) {
        *self.ghost_set.entry(block).or_insert(0) += 1;
        self.ghost.push_back(block);
        while self.ghost.len() > self.ghost_cap {
            let old = self.ghost.pop_front().unwrap();
            match self.ghost_set.get_mut(&old) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.ghost_set.remove(&old);
                }
            }
        }
    }

    fn maybe_adapt(&mut self) {
        if !self.inserts.is_multiple_of(WINDOW) {
            return;
        }
        let window_idx = self.inserts / WINDOW;
        // Hill climb: keep direction while refaults improve, flip when
        // they worsen.
        if self.refaults_prev != u64::MAX && self.refaults_window > self.refaults_prev {
            self.direction = -self.direction;
        }
        let new_p = (self.inner.ratio() + self.direction).clamp(0.0, 1.0);
        self.inner.set_ratio(new_p, self.capacity_blocks);
        self.history.push((window_idx, new_p, self.refaults_window));
        self.refaults_prev = self.refaults_window;
        self.refaults_window = 0;
    }
}

impl ReplacementPolicy for AdaptiveCmcpPolicy {
    fn name(&self) -> &'static str {
        "CMCP-adaptive"
    }

    fn on_insert(&mut self, block: VirtPage, map_count: usize) {
        if self.ghost_set.contains_key(&block.0) {
            self.refaults_window += 1;
        }
        self.inner.on_insert(block, map_count);
        self.inserts += 1;
        self.maybe_adapt();
    }

    fn on_map_count_change(&mut self, block: VirtPage, map_count: usize) {
        self.inner.on_map_count_change(block, map_count);
    }

    fn select_victim(&mut self, oracle: &mut dyn AccessBitOracle) -> Option<VirtPage> {
        self.inner.select_victim(oracle)
    }

    fn on_evict(&mut self, block: VirtPage) {
        self.ghost_insert(block.0);
        self.inner.on_evict(block);
    }

    fn resident(&self) -> usize {
        self.inner.resident()
    }

    fn contains(&self, block: VirtPage) -> bool {
        self.inner.contains(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    #[test]
    fn starts_at_half() {
        let p = AdaptiveCmcpPolicy::new(100);
        assert!((p.current_p() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn refaults_are_detected() {
        let mut p = AdaptiveCmcpPolicy::new(4);
        p.on_insert(VirtPage(1), 1);
        let v = p.select_victim(&mut NullOracle).unwrap();
        p.on_evict(v);
        p.on_insert(v, 1); // refault
        assert_eq!(p.refaults_window, 1);
    }

    #[test]
    fn p_moves_after_each_window() {
        let mut p = AdaptiveCmcpPolicy::new(64);
        for i in 0..(WINDOW * 3) {
            let block = VirtPage(i % 128);
            if p.contains(block) {
                p.on_evict(block);
            }
            if p.resident() >= 64 {
                let v = p.select_victim(&mut NullOracle).unwrap();
                p.on_evict(v);
            }
            if !p.contains(block) {
                p.on_insert(block, 1);
            }
        }
        assert!(p.history.len() >= 2, "at least two adaptation windows ran");
        assert!(p.current_p() >= 0.0 && p.current_p() <= 1.0);
        // p actually moved away from the start value at some point.
        assert!(p.history.iter().any(|&(_, pv, _)| (pv - 0.5).abs() > 1e-9));
    }

    #[test]
    fn direction_flips_when_refaults_worsen() {
        let mut p = AdaptiveCmcpPolicy::new(8);
        // Window 1: no refaults (fresh blocks only).
        for i in 0..WINDOW {
            let b = VirtPage(1_000_000 + i);
            if p.resident() >= 8 {
                let v = p.select_victim(&mut NullOracle).unwrap();
                p.on_evict(v);
            }
            p.on_insert(b, 1);
        }
        let p_after_w1 = p.current_p();
        assert!(
            p_after_w1 > 0.5,
            "first window moves p up (direction starts positive)"
        );
        // Subsequent windows: every insert is a refault of a recently
        // evicted block (cycle through 16 blocks with capacity 8). Run
        // until at least two more adaptation boundaries have passed
        // (some iterations skip when the block is still resident).
        let mut i = 0u64;
        while p.history.len() < 3 && i < WINDOW * 32 {
            let b = VirtPage(2_000_000 + (i % 16));
            i += 1;
            if p.contains(b) {
                continue;
            }
            if p.resident() >= 8 {
                let v = p.select_victim(&mut NullOracle).unwrap();
                p.on_evict(v);
            }
            p.on_insert(b, 1);
        }
        // Direction must have flipped at least once because refaults
        // went 0 → many.
        let flipped = p.history.windows(2).any(|w| {
            let d0 = w[1].1 - w[0].1;
            d0 < 0.0
        });
        assert!(
            flipped,
            "worsening refaults must flip the direction: {:?}",
            p.history
        );
    }
}
