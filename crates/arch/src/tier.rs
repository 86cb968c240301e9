//! Backing-tier model: an ordered hierarchy of memories behind the
//! device RAM (host HBM / DRAM / NVM / remote-CXL-style), each with its
//! own capacity, latency, and bandwidth.
//!
//! The paper's single host-DRAM backing store is the degenerate case:
//! [`TierConfig::flat`] is one unbounded tier with zero extra cost, and
//! every flat-configured run is bit-identical to the pre-tier kernel.
//! With more than one tier, the kernel demotes evicted blocks *down*
//! the hierarchy — how far is decided by CMCP's core-map-count priority
//! (see [`TierConfig::demotion_rank`]) — and pays the landing tier's
//! latency/bandwidth penalty on every page-in and write-back, on top of
//! the PCIe DMA model.
//!
//! Tier configurations have a compact spec grammar for the CLI
//! (`--tiers`), mirroring `FaultPlan`'s rule language:
//!
//! ```text
//! spec     := preset | tier (";" tier)*
//! tier     := name ":" capacity "@" latency "/" bandwidth
//! preset   := "flat" | "2tier" | "4tier"
//! ```
//!
//! where `capacity` is in 4 kB pages (`0` = unbounded, legal only for
//! the last tier), `latency` is in core cycles, and `bandwidth` is in
//! bytes per kilocycle (the same unit as the cost table's
//! `dma_bytes_per_kcycle`; `0` = no bandwidth term). `parse` and
//! `Display` round-trip exactly.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::Cycles;

/// Upper bound on the number of tiers. The fault-injection layer keys
/// its per-site sequences by tier, with statically sized state; eight
/// covers every hierarchy in the literature with room to spare.
pub const MAX_TIERS: usize = 8;

/// One backing tier's parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Human-readable tier name (`hbm`, `dram`, ...). Must be non-empty
    /// and use only `[A-Za-z0-9_-]` so the spec grammar stays parseable.
    pub name: String,
    /// Capacity in 4 kB pages; `0` means unbounded, which is legal only
    /// for the hierarchy's last (slowest) tier.
    pub capacity_pages: u64,
    /// Fixed access latency in core cycles, charged once per transfer
    /// that lands in (or is served from) this tier.
    pub latency: Cycles,
    /// Streaming bandwidth in bytes per kilocycle (the unit of
    /// `CostModel::dma_bytes_per_kcycle`); `0` disables the
    /// size-proportional term.
    pub bytes_per_kcycle: u64,
}

impl TierSpec {
    /// Cycles to move `bytes` into or out of this tier: the fixed
    /// latency plus the bandwidth term (the shape of the DMA engine's
    /// transfer time).
    pub fn penalty(&self, bytes: u64) -> Cycles {
        let bw = (bytes * 1024)
            .checked_div(self.bytes_per_kcycle)
            .unwrap_or(0);
        self.latency + bw
    }
}

impl fmt::Display for TierSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}@{}/{}",
            self.name, self.capacity_pages, self.latency, self.bytes_per_kcycle
        )
    }
}

/// An ordered backing hierarchy, fastest tier first. The default is
/// [`TierConfig::flat`] — the paper's single host-DRAM store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierConfig {
    /// The tiers, index 0 fastest. Never empty; the last tier is the
    /// only one allowed to be unbounded, so a store that cascades
    /// demotions downward always terminates.
    pub tiers: Vec<TierSpec>,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig::flat()
    }
}

impl TierConfig {
    /// The degenerate single-tier hierarchy: unbounded, zero latency,
    /// no bandwidth term. Runs configured with it are bit-identical to
    /// the pre-tier kernel.
    pub fn flat() -> TierConfig {
        TierConfig {
            tiers: vec![TierSpec {
                name: "host".to_string(),
                capacity_pages: 0,
                latency: 0,
                bytes_per_kcycle: 0,
            }],
        }
    }

    /// `true` for hierarchies with a single zero-cost unbounded tier —
    /// the paper's one host-DRAM backing level. The kernel runs them
    /// through the same span store as any hierarchy (nothing cascades,
    /// promotes or pays a penalty); only the report's shape keys on
    /// this, omitting its per-tier section.
    pub fn is_flat(&self) -> bool {
        self.tiers.len() == 1 && {
            let t = &self.tiers[0];
            t.capacity_pages == 0 && t.latency == 0 && t.bytes_per_kcycle == 0
        }
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// A `TierConfig` is never empty ([`TierConfig::validate`] rejects
    /// it); provided for clippy's `len_without_is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Parses a spec string (grammar in the module docs) or one of the
    /// presets `flat`, `2tier`, `4tier`.
    pub fn parse(spec: &str) -> Result<TierConfig, String> {
        let spec = spec.trim();
        match spec {
            "flat" => return Ok(TierConfig::flat()),
            "2tier" => return TierConfig::parse("dram:4096@2100/5834;cold:0@8400/1500"),
            "4tier" => {
                return TierConfig::parse(
                    "hbm:1024@300/20000;dram:4096@2100/5834;nvm:16384@8400/1500;cxl:0@16800/700",
                )
            }
            _ => {}
        }
        let mut tiers = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            let (name, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("tier `{part}`: expected name:capacity@latency/bw"))?;
            let (cap, rest) = rest
                .split_once('@')
                .ok_or_else(|| format!("tier `{part}`: missing `@latency`"))?;
            let (lat, bw) = rest
                .split_once('/')
                .ok_or_else(|| format!("tier `{part}`: missing `/bandwidth`"))?;
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(format!(
                    "tier name `{name}` must be non-empty [A-Za-z0-9_-]"
                ));
            }
            let num = |label: &str, s: &str| -> Result<u64, String> {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("tier `{name}`: bad {label} `{s}`"))
            };
            tiers.push(TierSpec {
                name: name.to_string(),
                capacity_pages: num("capacity", cap)?,
                latency: num("latency", lat)?,
                bytes_per_kcycle: num("bandwidth", bw)?,
            });
        }
        let cfg = TierConfig { tiers };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the structural invariants the kernel's tier store relies
    /// on: 1..=[`MAX_TIERS`] tiers, unique names, an unbounded last
    /// tier, and bounded capacity everywhere else.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("tier config must name at least one tier".to_string());
        }
        if self.tiers.len() > MAX_TIERS {
            return Err(format!(
                "{} tiers exceeds the supported maximum of {MAX_TIERS}",
                self.tiers.len()
            ));
        }
        let last = self.tiers.len() - 1;
        for (i, t) in self.tiers.iter().enumerate() {
            if t.name.is_empty() {
                return Err(format!("tier {i} has an empty name"));
            }
            if t.capacity_pages == 0 && i != last {
                return Err(format!(
                    "tier `{}` is unbounded but not last; demotions below it could never land",
                    t.name
                ));
            }
            if self.tiers[..i].iter().any(|o| o.name == t.name) {
                return Err(format!("duplicate tier name `{}`", t.name));
            }
        }
        if self.tiers[last].capacity_pages != 0 {
            return Err(format!(
                "last tier `{}` must be unbounded (capacity 0) so evictions always land",
                self.tiers[last].name
            ));
        }
        Ok(())
    }

    /// Which tier an evicted block should land in, from CMCP's
    /// core-map-count priority: blocks many cores still map (`>= 2`)
    /// stay in the fastest backing tier, singly-mapped blocks go one
    /// down, and unmapped cold blocks go two down — clamped to the
    /// hierarchy's depth. The flat hierarchy always answers 0.
    pub fn demotion_rank(&self, map_count: u32) -> usize {
        let want = match map_count {
            0 => 2,
            1 => 1,
            _ => 0,
        };
        want.min(self.tiers.len() - 1)
    }
}

impl fmt::Display for TierConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_default_and_zero_cost() {
        let cfg = TierConfig::default();
        assert!(cfg.is_flat());
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.tiers[0].penalty(1 << 21), 0);
        cfg.validate().unwrap();
    }

    #[test]
    fn parse_display_round_trips() {
        for spec in [
            "host:0@0/0",
            "dram:4096@2100/5834;cold:0@8400/1500",
            "hbm:1024@300/20000;dram:4096@2100/5834;nvm:16384@8400/1500;cxl:0@16800/700",
            "a:1@2/3;b_2:0@0/0",
        ] {
            let cfg = TierConfig::parse(spec).unwrap();
            assert_eq!(cfg.to_string(), spec);
            assert_eq!(TierConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    #[test]
    fn presets_resolve_and_validate() {
        assert!(TierConfig::parse("flat").unwrap().is_flat());
        assert_eq!(TierConfig::parse("2tier").unwrap().len(), 2);
        let four = TierConfig::parse("4tier").unwrap();
        assert_eq!(four.len(), 4);
        four.validate().unwrap();
        assert!(!four.is_flat());
    }

    #[test]
    fn bad_specs_are_rejected_loudly() {
        for (spec, needle) in [
            ("", "name:capacity"),
            ("dram:16@50", "bandwidth"),
            ("dram:16", "@latency"),
            ("dr@m:16@50/100", "name"),
            ("dram:x@50/100", "capacity"),
            ("dram:16@50/100", "unbounded"),  // bounded last tier
            ("a:0@1/1;b:0@0/0", "not last"),  // unbounded inner tier
            ("a:1@0/0;a:0@0/0", "duplicate"), // duplicate name
            (
                "a:1@0/0;b:1@0/0;c:1@0/0;d:1@0/0;e:1@0/0;f:1@0/0;g:1@0/0;h:1@0/0;i:0@0/0",
                "maximum",
            ),
        ] {
            let err = TierConfig::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: {err}");
        }
    }

    #[test]
    fn penalty_matches_the_dma_formula() {
        let t = TierSpec {
            name: "nvm".to_string(),
            capacity_pages: 16384,
            latency: 8400,
            bytes_per_kcycle: 1500,
        };
        assert_eq!(t.penalty(0), 8400);
        assert_eq!(t.penalty(4096), 8400 + 4096 * 1024 / 1500);
    }

    #[test]
    fn demotion_rank_follows_map_count_and_clamps() {
        let four = TierConfig::parse("4tier").unwrap();
        assert_eq!(four.demotion_rank(7), 0);
        assert_eq!(four.demotion_rank(2), 0);
        assert_eq!(four.demotion_rank(1), 1);
        assert_eq!(four.demotion_rank(0), 2);
        let two = TierConfig::parse("2tier").unwrap();
        assert_eq!(two.demotion_rank(0), 1);
        assert_eq!(two.demotion_rank(5), 0);
        assert_eq!(TierConfig::flat().demotion_rank(0), 0);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = TierConfig::parse("2tier").unwrap();
        let v = serde::Serialize::to_value(&cfg);
        let back: TierConfig = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, cfg);
    }
}
