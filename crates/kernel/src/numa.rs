//! Per-node accounting for NUMA runs: home-node placement, page-table
//! replica sets, and per-node frame budgets.
//!
//! The books are **accounting-level** on purpose. Physical frames still
//! come from the kernel's single device-wide frame allocator — which
//! frame a block lands in is opaque to every counter and report (the
//! frame-opacity invariant the determinism story rests on) — and the
//! NUMA layer only decides *which node's DRAM budget* the block is
//! charged against and *which nodes hold a page-table replica* of its
//! mapping. A single-node run is the one-node case of the same rules
//! (replication degree 1, as Mitosis and numaPTE count a socket): every
//! block homes on node 0 and is charged to its one budget, nothing
//! spills, syncs or migrates, and no cycle is charged — which is what
//! keeps those runs bit-identical to the pre-NUMA kernel.
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

use cmcp_arch::{NumaConfig, MAX_NODES};

/// Per-block NUMA state: the node whose DRAM budget holds the block and
/// the bitmask of nodes holding a page-table replica of its mapping
/// (bit `n` = node `n`; `MAX_NODES` is 8, so a `u8` covers it). It
/// rides in the kernel's resident-map entry, so it lives exactly as
/// long as the block is resident.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockNuma {
    /// Home node index (budget owner).
    pub home: u8,
    /// Replica-holding nodes, as a bitmask.
    pub mask: u8,
}

/// The per-run NUMA topology and the rules over it. It holds nothing
/// mutable: each block's [`BlockNuma`] lives in its resident entry and
/// the per-node used counts in the kernel's commit state, and the rules
/// below update them in place. Only the sequential commit phase calls
/// them, under the kernel's one state lock.
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
    /// blocks. `config` must already be validated.
    pub fn new(config: NumaConfig, cores: usize, device_blocks: usize) -> NumaBooks {
        NumaBooks {
            node_of_core: (0..cores)
                .map(|c| config.node_of_core(c, cores) as u8)
                .collect(),
            capacity: config
                .split_blocks(device_blocks)
                .into_iter()
                .map(|b| b as u64)
                .collect(),
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

    /// Major-fault placement against the per-node `used` counts:
    /// charges the block to the faulting core's node when its budget
    /// has room, else spills to the node with the most free budget
    /// (ties to the lowest index — deterministic). Returns the new
    /// block's state — its first replica is the inserting node's — and
    /// `Some(home)` when the block spilled to a remote node (the caller
    /// charges one link crossing), `None` for a local first touch.
    pub fn on_insert(&self, core: usize, used: &mut [u64]) -> (BlockNuma, Option<u8>) {
        let node = self.node_of(core) as usize;
        let home = if used[node] < self.capacity[node] {
            node
        } else {
            // Σ capacity == device blocks and a frame was just
            // allocated, so some node must have headroom.
            let spill = (0..self.capacity.len())
                .filter(|&n| used[n] < self.capacity[n])
                .max_by_key(|&n| self.capacity[n] - used[n])
                .expect("frame allocated but every node budget full");
            debug_assert_ne!(spill, node);
            spill
        };
        used[home] += 1;
        let ent = BlockNuma {
            home: home as u8,
            mask: 1 << node,
        };
        (ent, (home != node).then_some(home as u8))
    }

    /// Minor-fault bookkeeping on the block's state `ent`: replica sync
    /// / remote walk, then the migration check against the block's
    /// current mapping-node histogram, which `node_counts` fills in
    /// (`[n]` = mapping cores on node `n`, *including* the faulting
    /// core's fresh mapping). With replication on, the mask holds the
    /// node of every mapping core, so a block no foreign node maps —
    /// every block of a one-node run — cannot migrate, and the
    /// histogram is not taken.
    pub fn on_map(
        &self,
        core: usize,
        ent: &mut BlockNuma,
        used: &mut [u64],
        node_counts: impl FnOnce(&mut [u32]),
    ) -> MapDecision {
        let node = self.node_of(core);
        let mut d = MapDecision::default();
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
        let home = ent.home as usize;
        if self.config.replicate && ent.mask & !(1 << home) == 0 {
            return d;
        }
        let mut counts = [0u32; MAX_NODES];
        let counts = &mut counts[..self.config.len()];
        node_counts(counts);
        let total: u32 = counts.iter().sum();
        if let Some(best) =
            (0..counts.len()).find(|&n| n != home && u64::from(counts[n]) * 2 > u64::from(total))
        {
            if used[best] < self.capacity[best] {
                used[home] -= 1;
                used[best] += 1;
                ent.home = best as u8;
                d.migrate = Some((home as u8, best as u8));
            }
        }
        d
    }

    /// Eviction teardown: releases the budget of the block whose final
    /// state is `ent`; the caller charges the replica invalidations
    /// (replication on) or the remote master update (off) from it.
    pub fn on_evict(ent: BlockNuma, used: &mut [u64]) {
        used[ent.home as usize] -= 1;
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
        let mut used = vec![0; 2];
        // Cores 0–1 → node 0, cores 2–3 → node 1; two blocks each.
        assert_eq!(b.on_insert(0, &mut used).1, None);
        assert_eq!(b.on_insert(1, &mut used).1, None);
        // Node 0 full: the third local insert spills to node 1.
        let (ent, spilled) = b.on_insert(0, &mut used);
        assert_eq!(spilled, Some(1));
        assert_eq!(used, vec![2, 1]);
        assert_eq!(ent.home, 1);
        // The spilled block's first replica is still the inserter's.
        assert_eq!(ent.mask, 0b01);
    }

    #[test]
    fn replica_sync_charges_once_per_node() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        let mut used = vec![0; 2];
        let (mut ent, _) = b.on_insert(0, &mut used);
        // First fault from node 1: counted sync with home 0.
        let d = b.on_map(2, &mut ent, &mut used, |c| c.copy_from_slice(&[1, 1]));
        assert_eq!(d.sync_with, Some(0));
        assert!(d.counted_sync);
        // Second fault from the same node: replica already local.
        let d = b.on_map(3, &mut ent, &mut used, |c| c.copy_from_slice(&[1, 2]));
        assert_eq!(d.sync_with, None);
        assert_eq!(ent.mask, 0b11);
    }

    #[test]
    fn replication_off_pays_every_remote_walk() {
        let mut cfg = NumaConfig::parse("a:4@100/0;b:4@100/0").unwrap();
        cfg.replicate = false;
        let b = NumaBooks::new(cfg, 4, 8);
        let mut used = vec![0; 2];
        let (mut ent, _) = b.on_insert(0, &mut used);
        for _ in 0..3 {
            let d = b.on_map(2, &mut ent, &mut used, |c| c.copy_from_slice(&[1, 1]));
            assert_eq!(d.sync_with, Some(0));
            assert!(!d.counted_sync);
        }
    }

    #[test]
    fn majority_shift_migrates_home_within_budget() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        let mut used = vec![0; 2];
        let (mut ent, _) = b.on_insert(0, &mut used);
        // 1 core on node 0, 2 on node 1: strict majority abroad.
        let d = b.on_map(3, &mut ent, &mut used, |c| c.copy_from_slice(&[1, 2]));
        assert_eq!(d.migrate, Some((0, 1)));
        assert_eq!(ent.home, 1);
        assert_eq!(used, vec![0, 1]);
        // An even split is not a strict majority: no flapping back.
        let d = b.on_map(1, &mut ent, &mut used, |c| c.copy_from_slice(&[2, 2]));
        assert_eq!(d.migrate, None);
    }

    #[test]
    fn evict_releases_the_home_budget() {
        let b = books("a:4@100/0;b:4@100/0", 4, 8);
        let mut used = vec![0; 2];
        let (mut ent, _) = b.on_insert(0, &mut used);
        b.on_map(2, &mut ent, &mut used, |c| c.copy_from_slice(&[1, 1]));
        assert_eq!(ent.mask, 0b11);
        NumaBooks::on_evict(ent, &mut used);
        assert_eq!(used, vec![0, 0]);
    }
}
