//! NUMA topology model: multiple DRAM nodes behind one many-core mesh,
//! each with its own frame budget and an asymmetric link latency to the
//! rest of the machine.
//!
//! The paper's single co-processor is the degenerate case:
//! [`NumaConfig::single`] is one zero-cost node and every run configured
//! with it is bit-identical to the pre-NUMA kernel. With more than one
//! node, the kernel gives every resident block a *home node*, charges
//! the inter-node link on remote accesses, keeps per-node page-table
//! replicas coherent (Mitosis / numaPTE style — PSPT's exact mapping
//! sets make the replica set precise instead of broadcast), and migrates
//! a block's home when its CMCP map-count-weighted access center moves.
//!
//! Node topologies have a compact spec grammar for the CLI (`--numa`),
//! mirroring the `--tiers` grammar:
//!
//! ```text
//! spec     := preset | node (";" node)*
//! node     := name ":" capacity "@" latency "/" bandwidth
//! preset   := "1node" | "2node" | "4node"
//! ```
//!
//! where `capacity` is the node's DRAM share in 4 kB pages (the kernel
//! splits the device block budget across nodes proportionally to these
//! weights), `latency` is the node's link latency in core cycles — a
//! cross-node access from node *i* to node *j* costs
//! `latency[i] + latency[j]` — and `bandwidth` is in bytes per
//! kilocycle (`0` = no bandwidth term on page migrations). `parse` and
//! `Display` round-trip exactly.
//!
//! ## The epoch-window contract
//!
//! The deterministic engine's epoch window is the minimum latency at
//! which one core can observe another core's actions
//! (`CostModel::min_cross_core_latency`, DESIGN.md §12/§15). Inter-node
//! links add a *new* cross-core interaction channel, so the window must
//! be the global minimum over the IPI path **and** every node pair.
//! Rather than silently shrinking the window, [`NumaConfig::check_window`]
//! rejects any spec whose fastest cross-node link undercuts the IPI
//! window — loudly, at configuration-validation time.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;

/// Upper bound on the number of NUMA nodes, matching [`crate::MAX_TIERS`]:
/// eight sockets covers every topology in the replication literature.
pub const MAX_NODES: usize = 8;

/// One NUMA node's parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable node name (`n0`, `socket1`, ...). Must be
    /// non-empty and use only `[A-Za-z0-9_-]` so the spec grammar stays
    /// parseable.
    pub name: String,
    /// DRAM share weight in 4 kB pages. The kernel splits its device
    /// block budget across nodes proportionally to these weights
    /// ([`NumaConfig::split_blocks`]); must be non-zero on every node of
    /// a multi-node topology.
    pub capacity_pages: u64,
    /// Link latency in core cycles: the cost of reaching this node from
    /// the interconnect. A cross-node access `i → j` is charged
    /// `latency[i] + latency[j]`.
    pub link_latency: Cycles,
    /// Link streaming bandwidth in bytes per kilocycle (the unit of
    /// `CostModel::dma_bytes_per_kcycle`); `0` disables the
    /// size-proportional term on migrations.
    pub bytes_per_kcycle: u64,
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}@{}/{}",
            self.name, self.capacity_pages, self.link_latency, self.bytes_per_kcycle
        )
    }
}

/// A NUMA topology: the machine's nodes plus the replication switch.
/// The default is [`NumaConfig::single`] — the paper's one-node machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NumaConfig {
    /// The nodes. Never empty; cores are partitioned over nodes
    /// contiguously ([`NumaConfig::node_of_core`]).
    pub nodes: Vec<NodeSpec>,
    /// Whether every node keeps a local page-table replica (Mitosis
    /// mode). `true` (the default): a node's first mapping core pays one
    /// replica sync, after which its accesses walk locally; evictions
    /// invalidate exactly the replica-holding nodes (PSPT's mapping sets
    /// make that precise). `false`: no replicas — every fault from a
    /// non-home node pays the cross-node walk on the home node's tables.
    /// Not part of the spec grammar; toggled by the CLI flag
    /// `--numa-no-replication` / `SimulationBuilder::numa_replication`.
    pub replicate: bool,
}

impl Default for NumaConfig {
    fn default() -> NumaConfig {
        NumaConfig::single()
    }
}

impl NumaConfig {
    /// The degenerate single-node machine: unbounded, zero link cost.
    /// Runs configured with it are bit-identical to the pre-NUMA kernel.
    pub fn single() -> NumaConfig {
        NumaConfig {
            nodes: vec![NodeSpec {
                name: "local".to_string(),
                capacity_pages: 0,
                link_latency: 0,
                bytes_per_kcycle: 0,
            }],
            replicate: true,
        }
    }

    /// `true` for the one-node machine. The kernel runs it as the
    /// one-node case of the general rules — nothing spills, syncs or
    /// migrates, so no cycle or event is added and single-node runs stay
    /// byte-identical to the pre-NUMA kernel; the report omits its NUMA
    /// section for it.
    pub fn is_single(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A `NumaConfig` is never empty ([`NumaConfig::validate`] rejects
    /// it); provided for clippy's `len_without_is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Parses a spec string (grammar in the module docs) or one of the
    /// presets `1node`, `2node`, `4node`.
    pub fn parse(spec: &str) -> Result<NumaConfig, String> {
        let spec = spec.trim();
        match spec {
            "1node" => return Ok(NumaConfig::single()),
            "2node" => return NumaConfig::parse("n0:262144@1600/4000;n1:262144@1600/4000"),
            "4node" => {
                return NumaConfig::parse(
                    "n0:262144@1600/4000;n1:262144@1600/4000;\
                     n2:262144@1600/4000;n3:262144@1600/4000",
                )
            }
            _ => {}
        }
        let mut nodes = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            let (name, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("node `{part}`: expected name:capacity@latency/bw"))?;
            let (cap, rest) = rest
                .split_once('@')
                .ok_or_else(|| format!("node `{part}`: missing `@latency`"))?;
            let (lat, bw) = rest
                .split_once('/')
                .ok_or_else(|| format!("node `{part}`: missing `/bandwidth`"))?;
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(format!(
                    "node name `{name}` must be non-empty [A-Za-z0-9_-]"
                ));
            }
            let num = |label: &str, s: &str| -> Result<u64, String> {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("node `{name}`: bad {label} `{s}`"))
            };
            nodes.push(NodeSpec {
                name: name.to_string(),
                capacity_pages: num("capacity", cap)?,
                link_latency: num("latency", lat)?,
                bytes_per_kcycle: num("bandwidth", bw)?,
            });
        }
        let cfg = NumaConfig {
            nodes,
            replicate: true,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the structural invariants the kernel's NUMA books rely on:
    /// 1..=[`MAX_NODES`] nodes, unique names, and — on multi-node
    /// topologies — a non-zero capacity weight per node whose byte total
    /// does not overflow `u64`.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("numa config must name at least one node".to_string());
        }
        if self.nodes.len() > MAX_NODES {
            return Err(format!(
                "{} nodes exceeds the supported maximum of {MAX_NODES}",
                self.nodes.len()
            ));
        }
        let mut total_bytes: u64 = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.name.is_empty() {
                return Err(format!("node {i} has an empty name"));
            }
            if self.nodes[..i].iter().any(|o| o.name == n.name) {
                return Err(format!("duplicate node name `{}`", n.name));
            }
            if !self.is_single() {
                if n.capacity_pages == 0 {
                    return Err(format!(
                        "node `{}` has zero capacity; every node of a multi-node \
                         topology needs a DRAM share",
                        n.name
                    ));
                }
                // The byte total is what sizings downstream divide by;
                // an overflowing spec must die here, not wrap there.
                let bytes = n
                    .capacity_pages
                    .checked_mul(4096)
                    .ok_or_else(|| format!("node `{}`: capacity overflows u64 bytes", n.name))?;
                total_bytes = total_bytes.checked_add(bytes).ok_or_else(|| {
                    format!("total capacity overflows u64 bytes at node `{}`", n.name)
                })?;
            }
        }
        Ok(())
    }

    /// Rejects topologies whose fastest cross-node link undercuts the
    /// epoch window (`ipi_window = ipi_send + ipi_handle`). The engine
    /// derives its determinism window once at build; a faster link would
    /// silently shrink it, so the mismatch must fail loudly here
    /// (module docs, DESIGN.md §15).
    pub fn check_window(&self, ipi_window: Cycles) -> Result<(), String> {
        if let Some(min) = self.min_cross_latency() {
            if min < ipi_window {
                return Err(format!(
                    "fastest cross-node link ({min} cycles) undercuts the \
                     IPI epoch window ({ipi_window} cycles); raise the node \
                     link latencies — the deterministic engine's window must \
                     be the global minimum cross-core latency (DESIGN.md §15)"
                ));
            }
        }
        Ok(())
    }

    /// The link cost of node `from` touching node `to`: zero locally,
    /// `latency[from] + latency[to]` across nodes.
    pub fn cross_latency(&self, from: usize, to: usize) -> Cycles {
        if from == to {
            0
        } else {
            self.nodes[from].link_latency + self.nodes[to].link_latency
        }
    }

    /// The fastest cross-node interaction on this topology — the sum of
    /// the two smallest link latencies. `None` on the single-node
    /// machine (there is no cross-node channel).
    pub fn min_cross_latency(&self) -> Option<Cycles> {
        if self.is_single() {
            return None;
        }
        let (mut a, mut b) = (Cycles::MAX, Cycles::MAX);
        for n in &self.nodes {
            if n.link_latency < a {
                b = a;
                a = n.link_latency;
            } else if n.link_latency < b {
                b = n.link_latency;
            }
        }
        Some(a + b)
    }

    /// Cycles to move `bytes` from node `from` to node `to` (page
    /// migration): the cross link latency plus the destination link's
    /// bandwidth term (mirrors `TierSpec::penalty` — a zero bandwidth
    /// divides into nothing, not a panic).
    pub fn xfer_penalty(&self, from: usize, to: usize, bytes: u64) -> Cycles {
        let bw = (bytes * 1024)
            .checked_div(self.nodes[to].bytes_per_kcycle)
            .unwrap_or(0);
        self.cross_latency(from, to) + bw
    }

    /// Which node a core lives on: cores are partitioned contiguously —
    /// core `c` of `cores` lands on node `c * len / cores`. A pure
    /// function of the configuration, so identical runs place cores
    /// identically.
    pub fn node_of_core(&self, core: usize, cores: usize) -> usize {
        if self.is_single() || cores == 0 {
            return 0;
        }
        (core.min(cores - 1) * self.nodes.len()) / cores
    }

    /// Splits a device block budget across the nodes proportionally to
    /// their capacity weights: largest-remainder apportionment, ties to
    /// the lower index, and every node gets at least one block when the
    /// budget allows. Deterministic, and exact: the parts always sum to
    /// `blocks`.
    pub fn split_blocks(&self, blocks: usize) -> Vec<usize> {
        let n = self.nodes.len();
        if n == 1 {
            return vec![blocks];
        }
        let total_w: u128 = self.nodes.iter().map(|s| s.capacity_pages as u128).sum();
        debug_assert!(total_w > 0, "validate() rejects zero-weight nodes");
        let mut parts: Vec<usize> = Vec::with_capacity(n);
        let mut rems: Vec<(u128, usize)> = Vec::with_capacity(n);
        let mut assigned = 0usize;
        for (i, s) in self.nodes.iter().enumerate() {
            let exact = blocks as u128 * s.capacity_pages as u128;
            let base = (exact / total_w) as usize;
            parts.push(base);
            assigned += base;
            rems.push((exact % total_w, i));
        }
        // Hand the leftover blocks to the largest remainders (ties to
        // the lower node index).
        rems.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        for k in 0..blocks - assigned {
            parts[rems[k % n].1] += 1;
        }
        // Every node must be able to home at least one block, or
        // first-touch allocation on its cores would always spill.
        for i in 0..n {
            while parts[i] == 0 && blocks >= n {
                let donor = (0..n).max_by_key(|&j| parts[j]).expect("n nodes");
                if parts[donor] <= 1 {
                    break;
                }
                parts[donor] -= 1;
                parts[i] += 1;
            }
        }
        debug_assert_eq!(parts.iter().sum::<usize>(), blocks);
        parts
    }
}

impl fmt::Display for NumaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_default_and_zero_cost() {
        let cfg = NumaConfig::default();
        assert!(cfg.is_single());
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.min_cross_latency(), None);
        assert_eq!(cfg.cross_latency(0, 0), 0);
        cfg.validate().unwrap();
        cfg.check_window(2100).unwrap();
    }

    #[test]
    fn parse_display_round_trips() {
        for spec in [
            "local:0@0/0",
            "n0:262144@1600/4000;n1:262144@1600/4000",
            "a:1@1200/0;b-2:99@2400/700;C_3:5@1600/1",
        ] {
            let cfg = NumaConfig::parse(spec).unwrap();
            assert_eq!(cfg.to_string(), spec);
            assert_eq!(NumaConfig::parse(&cfg.to_string()).unwrap(), cfg);
            assert!(cfg.replicate, "parse defaults to replication on");
        }
    }

    #[test]
    fn presets_resolve_and_validate() {
        assert!(NumaConfig::parse("1node").unwrap().is_single());
        assert_eq!(NumaConfig::parse("2node").unwrap().len(), 2);
        let four = NumaConfig::parse("4node").unwrap();
        assert_eq!(four.len(), 4);
        four.validate().unwrap();
        assert!(!four.is_single());
        // The presets must clear the default IPI window.
        four.check_window(700 + 1400).unwrap();
    }

    #[test]
    fn bad_specs_are_rejected_loudly() {
        for (spec, needle) in [
            ("", "name:capacity"),
            ("n0:16@50", "bandwidth"),
            ("n0:16", "@latency"),
            ("n!0:16@50/100", "name"),
            ("n0:x@50/100", "capacity"),
            ("a:1@0/0;a:1@0/0", "duplicate"),
            ("a:1@1200/0;b:0@1200/0", "zero capacity"),
            ("a:9223372036854775807@1200/0;b:1@1200/0", "overflows u64"),
            (
                "a:1@0/0;b:1@0/0;c:1@0/0;d:1@0/0;e:1@0/0;f:1@0/0;g:1@0/0;h:1@0/0;i:1@0/0",
                "maximum",
            ),
        ] {
            let err = NumaConfig::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: {err}");
        }
    }

    #[test]
    fn window_check_rejects_fast_links() {
        let cfg = NumaConfig::parse("a:1@100/0;b:1@100/0").unwrap();
        let err = cfg.check_window(2100).unwrap_err();
        assert!(err.contains("undercuts"), "{err}");
        cfg.check_window(200).unwrap();
    }

    #[test]
    fn min_cross_latency_is_the_two_smallest_links() {
        let cfg = NumaConfig::parse("a:1@3000/0;b:1@1100/0;c:1@1200/0").unwrap();
        assert_eq!(cfg.min_cross_latency(), Some(1100 + 1200));
        assert_eq!(cfg.cross_latency(0, 2), 3000 + 1200);
        assert_eq!(cfg.cross_latency(1, 1), 0);
    }

    #[test]
    fn xfer_penalty_handles_zero_bandwidth() {
        let cfg = NumaConfig::parse("a:1@1600/0;b:1@1600/4000").unwrap();
        // Destination a has zero bandwidth: latency term only.
        assert_eq!(cfg.xfer_penalty(1, 0, 1 << 21), 3200);
        // Destination b: latency plus the streaming term.
        assert_eq!(cfg.xfer_penalty(0, 1, 4096), 3200 + 4096 * 1024 / 4000);
        assert_eq!(cfg.xfer_penalty(0, 0, 4096), 0);
    }

    #[test]
    fn cores_partition_contiguously() {
        let cfg = NumaConfig::parse("2node").unwrap();
        let nodes: Vec<usize> = (0..8).map(|c| cfg.node_of_core(c, 8)).collect();
        assert_eq!(nodes, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let four = NumaConfig::parse("4node").unwrap();
        let nodes: Vec<usize> = (0..8).map(|c| four.node_of_core(c, 8)).collect();
        assert_eq!(nodes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // More nodes than cores: the tail nodes just get no cores.
        assert_eq!(four.node_of_core(0, 2), 0);
        assert_eq!(four.node_of_core(1, 2), 2);
    }

    #[test]
    fn split_blocks_is_exact_and_weighted() {
        let cfg = NumaConfig::parse("a:100@1600/0;b:300@1600/0").unwrap();
        assert_eq!(cfg.split_blocks(100), vec![25, 75]);
        let odd = cfg.split_blocks(103);
        assert_eq!(odd.iter().sum::<usize>(), 103);
        assert!(odd[1] > odd[0]);
        // Tiny budgets: everyone still gets one block when possible.
        let four = NumaConfig::parse("4node").unwrap();
        assert_eq!(four.split_blocks(5).iter().sum::<usize>(), 5);
        assert!(four.split_blocks(5).iter().all(|&p| p >= 1));
        assert_eq!(NumaConfig::single().split_blocks(7), vec![7]);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = NumaConfig::parse("2node").unwrap();
        let v = serde::Serialize::to_value(&cfg);
        let back: NumaConfig = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, cfg);
    }
}
