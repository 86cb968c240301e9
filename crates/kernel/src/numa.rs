//! Per-node accounting for multi-node NUMA runs: home-node placement,
//! page-table replica sets, and per-node frame budgets.
//!
//! The books are **accounting-level** on purpose. Physical frames still
//! come from the kernel's single device-wide frame allocator — which
//! frame a block lands in is opaque to every counter and report (the
//! frame-opacity invariant the determinism story rests on) — and the
//! NUMA layer only decides *which node's DRAM budget* the block is
//! charged against and *which nodes hold a page-table replica* of its
//! mapping. That keeps single-node runs bit-identical to the pre-NUMA
//! kernel: a [`NumaBooks`] is simply never constructed for them.
//!
//! ## The replica-coherence model (Mitosis / numaPTE, scaled down)
//!
//! * **Insert** (major fault): the block's home node is the faulting
//!   core's node when that node's budget has room, otherwise the block
//!   *spills* to the node with the most free budget (remote first-touch,
//!   charged one cross-node link crossing). The inserting node gets the
//!   first — local, free — replica of the mapping.
//! * **Map** (minor fault): with replication *on*, the first fault from
//!   a new node pulls a local replica of the block's mapping entry from
//!   the home node (one link crossing, once per node); later faults from
//!   that node walk their local replica for free. With replication
//!   *off*, every minor fault from a non-home node walks the home node's
//!   master table — the same link crossing, paid *every time*. That
//!   recurring cost is exactly the gap the `numa_sweep` bench measures.
//! * **Evict**: the teardown must reach every node holding a replica.
//!   PSPT's exact mapping sets make this precise — the replica set is
//!   the set of nodes with mapping cores, nothing more — and the
//!   per-node replica clears piggyback on the TLB-shootdown IPIs the
//!   eviction already sends to those same cores, so replication-on
//!   teardown costs counters only. Replication *off* has no remote
//!   handler to ride: the evictor synchronously updates the single
//!   master table, one link crossing when the home node is remote.
//! * **Migrate**: when a strict majority of a block's mapping cores sit
//!   on a node other than its home (the CMCP map-count-weighted access
//!   center has shifted) and that node has budget headroom, the block's
//!   home moves there: one [`cmcp_arch::NumaConfig::xfer_penalty`]
//!   charge covering the link crossing plus the block's bytes at the
//!   destination node's bandwidth.
//!
//! All cycle charges land on the acting core's clock inside its fault
//! window, paired with exact-cost `ReplicaSync` / `Migration` trace
//! events, so the validated breakdown stays exact.

use cmcp_arch::{FxHashMap, NumaConfig, VirtPage};
use parking_lot::Mutex;

/// Per-block NUMA state: the node whose DRAM budget holds the block and
/// the bitmask of nodes holding a page-table replica of its mapping
/// (bit `n` = node `n`; `MAX_NODES` is 8, so a `u8` covers it).
#[derive(Clone, Copy, Debug)]
pub struct BlockNuma {
    /// Home node index (budget owner).
    pub home: u8,
    /// Replica-holding nodes, as a bitmask.
    pub mask: u8,
}

/// Interior state, behind one leaf-level lock. The engine commits every
/// kernel entry in one sequential fold, so the lock is uncontended
/// there; it exists so direct (engine-less) `Vmm` use from
/// tests stays safe.
#[derive(Debug, Default)]
struct BooksInner {
    /// Blocks charged to each node's budget.
    used: Vec<u64>,
    /// Per-resident-block NUMA state, keyed by block head page number.
    blocks: FxHashMap<u64, BlockNuma>,
}

/// The per-run NUMA ledger. Constructed only for multi-node configs.
#[derive(Debug)]
pub struct NumaBooks {
    /// Topology in force (validated at `Vmm` construction).
    pub config: NumaConfig,
    /// Core → node, precomputed for the run's core count.
    node_of_core: Vec<u8>,
    /// Per-node block budgets; sums to the device block count, so
    /// per-node conservation (`Σ used == resident blocks`) follows from
    /// the frame pool's own conservation.
    capacity: Vec<u64>,
    inner: Mutex<BooksInner>,
}

/// What a books operation decided, for the caller to charge and trace.
/// Cycle math stays in `vmm.rs` (it owns clocks, stats, and the
/// tracer); the books only do placement.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapDecision {
    /// A replica sync (replication on, first fault from a new node) or
    /// a remote master-table walk (replication off, every remote
    /// fault): `Some(home)` names the node the crossing reaches.
    pub sync_with: Option<u8>,
    /// `true` when the crossing is a counted replica sync (replication
    /// on) rather than an uncounted remote walk.
    pub counted_sync: bool,
    /// A home migration `(from, to)` the caller must charge at
    /// [`NumaConfig::xfer_penalty`].
    pub migrate: Option<(u8, u8)>,
}

impl NumaBooks {
    /// Builds the ledger for `cores` cores over `device_blocks` device
    /// blocks. `config` must be multi-node and already validated.
    pub fn new(config: NumaConfig, cores: usize, device_blocks: usize) -> NumaBooks {
        debug_assert!(!config.is_single());
        let nodes = config.nodes.len();
        NumaBooks {
            node_of_core: (0..cores)
                .map(|c| config.node_of_core(c, cores) as u8)
                .collect(),
            capacity: config
                .split_blocks(device_blocks)
                .into_iter()
                .map(|b| b as u64)
                .collect(),
            inner: Mutex::new(BooksInner {
                used: vec![0; nodes],
                blocks: FxHashMap::default(),
            }),
            config,
        }
    }

    /// The node owning `core`.
    #[inline]
    pub fn node_of(&self, core: usize) -> u8 {
        self.node_of_core[core.min(self.node_of_core.len() - 1)]
    }

    /// Per-node block budgets (sums to the device block count).
    pub fn capacity(&self) -> &[u64] {
        &self.capacity
    }

    /// Per-node used-block counts (exact at quiescence).
    pub fn used(&self) -> Vec<u64> {
        self.inner.lock().used.clone()
    }

    /// The `(home, replica mask)` of a tracked block, if resident.
    pub fn block_state(&self, head: VirtPage) -> Option<BlockNuma> {
        self.inner.lock().blocks.get(&head.0).copied()
    }

    /// Major-fault placement: charges the block to the faulting core's
    /// node when its budget has room, else spills to the node with the
    /// most free budget (ties to the lowest index — deterministic).
    /// Returns `Some(home)` when the block spilled to a remote node
    /// (the caller charges one link crossing), `None` for a local
    /// first touch.
    pub fn on_insert(&self, core: usize, head: VirtPage) -> Option<u8> {
        let node = self.node_of(core) as usize;
        let mut inner = self.inner.lock();
        let home = if inner.used[node] < self.capacity[node] {
            node
        } else {
            // Σ capacity == device blocks and a frame was just
            // allocated, so some node must have headroom.
            let spill = (0..self.capacity.len())
                .filter(|&n| inner.used[n] < self.capacity[n])
                .max_by_key(|&n| self.capacity[n] - inner.used[n])
                .expect("frame allocated but every node budget full");
            debug_assert_ne!(spill, node);
            spill
        };
        inner.used[home] += 1;
        let prev = inner.blocks.insert(
            head.0,
            BlockNuma {
                home: home as u8,
                mask: 1 << node,
            },
        );
        debug_assert!(prev.is_none(), "insert over tracked block {head}");
        (home != node).then_some(home as u8)
    }

    /// Minor-fault bookkeeping: replica sync / remote walk, then the
    /// migration check against the block's current mapping-node
    /// histogram (`node_counts[n]` = mapping cores on node `n`,
    /// *including* the faulting core's fresh mapping).
    pub fn on_map(&self, core: usize, head: VirtPage, node_counts: &[u32]) -> MapDecision {
        let node = self.node_of(core);
        let mut d = MapDecision::default();
        let mut inner = self.inner.lock();
        let Some(ent) = inner.blocks.get_mut(&head.0) else {
            // Raced with an eviction teardown; the re-fault will go
            // down the major path and re-place the block.
            return d;
        };
        if self.config.replicate {
            if ent.mask & (1 << node) == 0 {
                ent.mask |= 1 << node;
                if node != ent.home {
                    d.sync_with = Some(ent.home);
                    d.counted_sync = true;
                }
            }
        } else if node != ent.home {
            d.sync_with = Some(ent.home);
        }
        // Migration: strict majority of mapping cores on one foreign
        // node with budget headroom pulls the home over.
        let total: u32 = node_counts.iter().sum();
        let home = ent.home as usize;
        if let Some(best) = (0..node_counts.len())
            .find(|&n| n != home && u64::from(node_counts[n]) * 2 > u64::from(total))
        {
            if inner.used[best] < self.capacity[best] {
                let ent = *inner.blocks.get(&head.0).expect("checked above");
                inner.used[home] -= 1;
                inner.used[best] += 1;
                inner.blocks.get_mut(&head.0).expect("checked above").home = best as u8;
                d.migrate = Some((ent.home, best as u8));
            }
        }
        d
    }

    /// Eviction teardown: releases the block's budget and returns its
    /// final `(home, replica mask)` so the caller can charge the
    /// replica invalidations (replication on) or the remote master
    /// update (off).
    pub fn on_evict(&self, head: VirtPage) -> Option<BlockNuma> {
        let mut inner = self.inner.lock();
        let ent = inner.blocks.remove(&head.0)?;
        inner.used[ent.home as usize] -= 1;
        Some(ent)
    }

    /// PSPT rebuild teardown: the rebuild's global shootdown already
    /// tore down every PTE, so every replica is gone too. Clears each
    /// tracked block's mask down to an empty set (homes and budgets are
    /// untouched — the frames never moved). Returns the number of
    /// replica entries dropped, for the rebuild's invalidation count.
    pub fn on_rebuild(&self) -> u64 {
        let mut inner = self.inner.lock();
        let mut dropped = 0u64;
        for ent in inner.blocks.values_mut() {
            dropped += u64::from(ent.mask.count_ones());
            ent.mask = 0;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn books(nodes: &str, cores: usize, blocks: usize) -> NumaBooks {
        NumaBooks::new(NumaConfig::parse(nodes).unwrap(), cores, blocks)
    }

    #[test]
    fn insert_prefers_the_local_node_and_spills_when_full() {
        let b = books("a:2@100/0;b:2@100/0", 4, 4);
        // Cores 0–1 → node 0, cores 2–3 → node 1; two blocks each.
        assert_eq!(b.on_insert(0, VirtPage(0)), None);
        assert_eq!(b.on_insert(1, VirtPage(64)), None);
        // Node 0 full: the third local insert spills to node 1.
        assert_eq!(b.on_insert(0, VirtPage(128)), Some(1));
        assert_eq!(b.used(), vec![2, 1]);
        assert_eq!(b.block_state(VirtPage(128)).unwrap().home, 1);
        // The spilled block's first replica is still the inserter's.
        assert_eq!(b.block_state(VirtPage(128)).unwrap().mask, 0b01);
    }

    #[test]
    fn replica_sync_charges_once_per_node() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        b.on_insert(0, VirtPage(0));
        // First fault from node 1: counted sync with home 0.
        let d = b.on_map(2, VirtPage(0), &[1, 1]);
        assert_eq!(d.sync_with, Some(0));
        assert!(d.counted_sync);
        // Second fault from the same node: replica already local.
        let d = b.on_map(3, VirtPage(0), &[1, 2]);
        assert_eq!(d.sync_with, None);
        assert_eq!(b.block_state(VirtPage(0)).unwrap().mask, 0b11);
    }

    #[test]
    fn replication_off_pays_every_remote_walk() {
        let mut cfg = NumaConfig::parse("a:4@100/0;b:4@100/0").unwrap();
        cfg.replicate = false;
        let b = NumaBooks::new(cfg, 4, 8);
        b.on_insert(0, VirtPage(0));
        for _ in 0..3 {
            let d = b.on_map(2, VirtPage(0), &[1, 1]);
            assert_eq!(d.sync_with, Some(0));
            assert!(!d.counted_sync);
        }
    }

    #[test]
    fn majority_shift_migrates_home_within_budget() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        b.on_insert(0, VirtPage(0));
        // 1 core on node 0, 2 on node 1: strict majority abroad.
        let d = b.on_map(3, VirtPage(0), &[1, 2]);
        assert_eq!(d.migrate, Some((0, 1)));
        assert_eq!(b.block_state(VirtPage(0)).unwrap().home, 1);
        assert_eq!(b.used(), vec![0, 1]);
        // An even split is not a strict majority: no flapping back.
        let d = b.on_map(1, VirtPage(0), &[2, 2]);
        assert_eq!(d.migrate, None);
    }

    #[test]
    fn evict_returns_state_and_releases_budget() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        b.on_insert(0, VirtPage(0));
        b.on_map(2, VirtPage(0), &[1, 1]);
        let ent = b.on_evict(VirtPage(0)).unwrap();
        assert_eq!(ent.mask, 0b11);
        assert_eq!(b.used(), vec![0, 0]);
        assert!(b.on_evict(VirtPage(0)).is_none());
    }

    #[test]
    fn rebuild_clears_every_replica() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        b.on_insert(0, VirtPage(0));
        b.on_map(2, VirtPage(0), &[1, 1]);
        b.on_insert(2, VirtPage(64));
        assert_eq!(b.on_rebuild(), 3);
        assert_eq!(b.block_state(VirtPage(0)).unwrap().mask, 0);
        // Budgets untouched: frames never moved.
        assert_eq!(b.used(), vec![1, 1]);
    }
}
