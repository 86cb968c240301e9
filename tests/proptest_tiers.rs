//! Property tests for the backing-tier and NUMA spec subsystems: the
//! `--tiers` and `--numa` grammars round-trip through `Display`, parse
//! is total (diagnostic or validated config, never a panic), malformed
//! topologies (duplicate names, zero capacity shares, u64 byte-total
//! overflow) are rejected at validation time, and random store/load
//! action sequences against the span-based tiered store keep its
//! resident set equal to a flat `BTreeMap` oracle — demotion cascades,
//! promotions, and span trimming may move pages *between* tiers, but
//! never create, drop, or duplicate one.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cmcp::arch::{FaultInjector, FaultPlan, VirtPage};
use cmcp::kernel::TieredStore;
use cmcp::{NodeSpec, NumaConfig, TierConfig, TierSpec};

/// Name pool covering the grammar's whole alphabet class, including
/// digits, `_`, `-`, and mixed case. Uniqueness comes from indexing.
const NAMES: [&str; 8] = [
    "hbm", "dram-0", "Nvm_far", "cxl2", "a", "B-b_8", "z9", "Tier-X",
];

/// Random *valid* hierarchies: 1–4 tiers, unique names, bounded inner
/// tiers, unbounded last tier.
fn tier_config_strategy() -> impl Strategy<Value = TierConfig> {
    (
        0usize..NAMES.len(),
        prop::collection::vec((1u64..100_000, 0u64..1_000_000, 0u64..50_000), 1..5),
    )
        .prop_map(|(name0, specs)| {
            let last = specs.len() - 1;
            TierConfig {
                tiers: specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (cap, latency, bw))| TierSpec {
                        // Rotating through the pool keeps names unique.
                        name: NAMES[(name0 + i) % NAMES.len()].to_string(),
                        capacity_pages: if i == last { 0 } else { cap },
                        latency,
                        bytes_per_kcycle: bw,
                    })
                    .collect(),
            }
        })
}

/// One action against the tiered store. Spans are in 4 kB pages over a
/// small universe so overlapping stores (span trims), capacity cascades
/// (demotions), and refault promotions all fire routinely. The universe
/// straddles a 2 MB region boundary, and each range stays inside its
/// own region, as every range the kernel stores or probes does.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// `try_store(head, pages, rank)` — a write-back demoted to `rank`.
    Store { head: u64, pages: u64, rank: usize },
    /// `load(head, pages)` — a refault probe, promoting on hit.
    Load { head: u64, pages: u64 },
}

/// The 192-page universe `[UNIVERSE_LO, UNIVERSE_HI)`, centred on the
/// region boundary at page 512 (a 2 MB region is 512 4 kB pages).
const UNIVERSE_LO: u64 = 416;
const UNIVERSE_HI: u64 = 608;
const REGION_PAGES: u64 = 512;

/// `pages` clamped so `[head, head + pages)` ends inside both the
/// universe and `head`'s own region.
fn clamp_pages(head: u64, pages: u64) -> u64 {
    let limit = ((head / REGION_PAGES + 1) * REGION_PAGES).min(UNIVERSE_HI);
    pages.min(limit - head).max(1)
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (UNIVERSE_LO..UNIVERSE_HI, 1u64..48, 0usize..4).prop_map(|(head, pages, rank)| {
            Action::Store {
                head,
                pages: clamp_pages(head, pages),
                rank,
            }
        }),
        (UNIVERSE_LO..UNIVERSE_HI, 1u64..48).prop_map(|(head, pages)| Action::Load {
            head,
            pages: clamp_pages(head, pages),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid hierarchies round-trip `Display` → `parse` exactly, and
    /// the round-tripped config validates.
    #[test]
    fn tier_spec_parse_display_round_trips(cfg in tier_config_strategy()) {
        cfg.validate().expect("strategy builds valid configs");
        let spec = cfg.to_string();
        let back = TierConfig::parse(&spec)
            .unwrap_or_else(|e| panic!("`{spec}` failed to re-parse: {e}"));
        prop_assert_eq!(&back, &cfg);
        prop_assert_eq!(back.to_string(), spec);
    }

    /// `parse` never panics on arbitrary input — it either yields a
    /// config that validates and round-trips, or a diagnostic.
    #[test]
    fn tier_spec_parse_total(bytes in prop::collection::vec(0u8..128, 0..64)) {
        let s: String = bytes.into_iter().map(char::from).collect();
        if let Ok(cfg) = TierConfig::parse(&s) {
            cfg.validate().expect("parse only returns validated configs");
            prop_assert_eq!(TierConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    /// Random store/load sequences: after every action the store's
    /// resident set (probed page by page) equals the BTreeMap oracle,
    /// the per-tier books survive the audit, and the books' page total
    /// equals the oracle's cardinality. Stores may cascade demotions and
    /// loads may promote — neither may lose or duplicate a page.
    #[test]
    fn tiered_store_matches_set_oracle(
        actions in prop::collection::vec(action_strategy(), 1..200),
    ) {
        // Tight capacities relative to the 192-page universe: cascades
        // and refused promotions both occur in most sequences.
        let tiers = TierConfig::parse("fast:48@10/0;mid:96@100/0;cold:0@1000/0").unwrap();
        let mut store = TieredStore::new(&tiers);
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        let mut empty_plan = FaultInjector::new(&FaultPlan::new(0));

        for action in actions {
            match action {
                Action::Store { head, pages, rank } => {
                    let out = store.try_store(VirtPage(head), pages, rank, &mut empty_plan);
                    prop_assert!(out.stored, "the empty plan never fails a store");
                    prop_assert!(out.tier < tiers.len());
                    oracle.extend(head..head + pages);
                }
                Action::Load { head, pages } => {
                    let hit = store.load(VirtPage(head), pages);
                    let expect = (head..head + pages).any(|p| oracle.contains(&p));
                    prop_assert_eq!(
                        hit.is_some(),
                        expect,
                        "load [{}, {}) disagreed with the oracle",
                        head,
                        head + pages
                    );
                }
            }
            store.audit();
            let counters = store.tier_counters();
            let held: u64 = counters.iter().map(|c| c.used_pages).sum();
            prop_assert_eq!(held, oracle.len() as u64, "page total drifted from the oracle");
        }

        // Final resident set: page-by-page equality with the oracle.
        for p in UNIVERSE_LO..UNIVERSE_HI {
            prop_assert_eq!(
                store.contains(VirtPage(p), 1),
                oracle.contains(&p),
                "page {} residency disagrees with the oracle",
                p
            );
        }
    }
}

/// Random *valid* NUMA topologies: 1–8 nodes, unique names from the
/// shared pool, non-zero capacity shares, and bandwidths that include
/// zero (the spec's "no size-proportional migration term" value).
fn numa_config_strategy() -> impl Strategy<Value = NumaConfig> {
    (
        0usize..NAMES.len(),
        prop::collection::vec(
            (1u64..1_000_000, 0u64..100_000, 0u64..50_000),
            1..NAMES.len() + 1,
        ),
    )
        .prop_map(|(name0, specs)| NumaConfig {
            nodes: specs
                .into_iter()
                .enumerate()
                .map(|(i, (cap, latency, bw))| NodeSpec {
                    name: NAMES[(name0 + i) % NAMES.len()].to_string(),
                    capacity_pages: cap,
                    link_latency: latency,
                    bytes_per_kcycle: bw,
                })
                .collect(),
            replicate: true,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid topologies round-trip `Display` → `parse` exactly.
    #[test]
    fn numa_spec_parse_display_round_trips(cfg in numa_config_strategy()) {
        cfg.validate().expect("strategy builds valid configs");
        let spec = cfg.to_string();
        let back = NumaConfig::parse(&spec)
            .unwrap_or_else(|e| panic!("`{spec}` failed to re-parse: {e}"));
        prop_assert_eq!(&back, &cfg);
        prop_assert_eq!(back.to_string(), spec);
    }

    /// `NumaConfig::parse` never panics on arbitrary input — it either
    /// yields a config that validates and round-trips, or a diagnostic.
    #[test]
    fn numa_spec_parse_total(bytes in prop::collection::vec(0u8..128, 0..64)) {
        let s: String = bytes.into_iter().map(char::from).collect();
        if let Ok(cfg) = NumaConfig::parse(&s) {
            cfg.validate().expect("parse only returns validated configs");
            prop_assert_eq!(NumaConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    /// Zero-bandwidth links are legal and never divide by zero: the
    /// migration penalty degrades to the bare link latency, and the
    /// window probe stays well defined for every node pair.
    #[test]
    fn numa_zero_bandwidth_never_panics(
        cfg in numa_config_strategy(),
        bytes in 0u64..1 << 32,
    ) {
        let mut cfg = cfg;
        for n in &mut cfg.nodes {
            n.bytes_per_kcycle = 0;
        }
        for from in 0..cfg.len() {
            for to in 0..cfg.len() {
                prop_assert_eq!(
                    cfg.xfer_penalty(from, to, bytes),
                    cfg.cross_latency(from, to),
                    "zero bandwidth must reduce the penalty to the link latency"
                );
            }
        }
        prop_assert_eq!(cfg.min_cross_latency().is_some(), !cfg.is_single());
    }

    /// Capacity weights whose 4 kB byte total overflows `u64` are
    /// rejected at validation time, not wrapped downstream.
    #[test]
    fn numa_capacity_overflow_rejected(
        cfg in numa_config_strategy(),
        huge in (u64::MAX / 4096 + 1)..u64::MAX,
    ) {
        let mut cfg = cfg;
        if cfg.is_single() {
            // validate() only audits capacities on multi-node topologies.
            return Ok(());
        }
        cfg.nodes[0].capacity_pages = huge;
        let err = cfg.validate().expect_err("overflowing byte total must be rejected");
        prop_assert!(err.contains("overflow"), "diagnostic names the overflow: {}", err);
        prop_assert!(NumaConfig::parse(&cfg.to_string()).is_err());
    }

    /// Duplicate node names are rejected, both on a built config and
    /// through the spec grammar.
    #[test]
    fn numa_duplicate_names_rejected(cfg in numa_config_strategy()) {
        let mut cfg = cfg;
        if cfg.is_single() {
            return Ok(());
        }
        cfg.nodes[1].name = cfg.nodes[0].name.clone();
        let err = cfg.validate().expect_err("duplicate names must be rejected");
        prop_assert!(err.contains("duplicate"), "diagnostic names the duplicate: {}", err);
        prop_assert!(NumaConfig::parse(&cfg.to_string()).is_err());
    }

    /// Largest-remainder block apportionment is exact: one part per
    /// node, parts sum to the budget, and no part is zero when the
    /// budget covers every node.
    #[test]
    fn numa_split_blocks_conserves(cfg in numa_config_strategy(), blocks in 0usize..100_000) {
        let parts = cfg.split_blocks(blocks);
        prop_assert_eq!(parts.len(), cfg.len());
        prop_assert_eq!(parts.iter().sum::<usize>(), blocks);
        if blocks >= cfg.len() {
            prop_assert!(parts.iter().all(|&p| p > 0), "every node gets a share");
        }
    }
}
