//! Seeded, declarative fault injection for the PCIe/backing path.
//!
//! A [`FaultPlan`] names the failure modes a run should suffer — DMA
//! transfer errors, DMA latency spikes, IKC message drops, backing-store
//! ENOSPC, offload-engine death — each with a rate in parts-per-million.
//! The kernel compiles the plan into a [`FaultInjector`], which decides
//! *deterministically* whether each individual operation fails: the
//! decision hashes the plan seed, a per-site salt, and a per-site
//! monotone sequence number, so the same plan over the same workload
//! produces bit-identical failure schedules, and traffic at one site
//! never shifts another site's schedule.
//!
//! Rates are capped at 50 % so recovery retry loops terminate with
//! overwhelming probability (the kernel still enforces a hard attempt
//! cap as a backstop). The cap is enforced in two registers:
//! [`FaultPlan::parse`] — the CLI path — *rejects* a rate above 0.5
//! with an error, because a user who typed `dma=0.9` would otherwise
//! silently run a different experiment than they asked for; the
//! programmatic builders ([`FaultPlan::dma_errors`] & co.) keep the
//! silent clamp, because sweep harnesses legitimately drive them with
//! computed values and expect saturation semantics.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::tier::MAX_TIERS;

/// Hard ceiling on any fault rate: 50 % (500 000 ppm). Above this,
/// bounded-retry recovery would stop converging quickly.
pub const MAX_RATE_PPM: u32 = 500_000;

/// One million — the denominator of all rates.
const PPM: u64 = 1_000_000;

/// Where in the PCIe/backing path a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// Host→device DMA (page-in) transfer error.
    DmaIn = 0,
    /// Device→host DMA (write-back) transfer error.
    DmaOut = 1,
    /// DMA latency spike: the transfer succeeds but takes `param` times
    /// its streaming time extra.
    DmaLatency = 2,
    /// IKC message drop: an offloaded syscall request or reply is lost
    /// and must be resent after a timeout.
    Ikc = 3,
    /// Backing-store write failure (ENOSPC / transient I/O error).
    Backing = 4,
    /// Offload-engine death: after `param` offloaded calls the host
    /// daemon stops answering and the kernel degrades to synchronous
    /// emulation forever.
    Offload = 5,
}

/// Number of distinct [`FaultSite`]s.
pub const FAULT_SITES: usize = 6;

impl FaultSite {
    /// All sites, index-ordered.
    pub const ALL: [FaultSite; FAULT_SITES] = [
        FaultSite::DmaIn,
        FaultSite::DmaOut,
        FaultSite::DmaLatency,
        FaultSite::Ikc,
        FaultSite::Backing,
        FaultSite::Offload,
    ];

    /// Stable numeric code, used as the trace-event payload.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Stable lower-case name for reports and errors.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DmaIn => "dma_in",
            FaultSite::DmaOut => "dma_out",
            FaultSite::DmaLatency => "dma_latency",
            FaultSite::Ikc => "ikc",
            FaultSite::Backing => "backing",
            FaultSite::Offload => "offload",
        }
    }
}

// The offline serde shim derives structs only; the site enum
// serializes as its stable name.
impl Serialize for FaultSite {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for FaultSite {
    fn from_value(v: &serde::Value) -> Result<FaultSite, serde::Error> {
        let name = String::from_value(v)?;
        FaultSite::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| serde::Error::custom(format!("unknown fault site '{name}'")))
    }
}

/// One declarative rule: inject faults at `site` with probability
/// `rate_ppm` / 1 000 000 per operation. `param` is site-specific
/// (latency-spike multiplier; offload call count before death).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Where to inject.
    pub site: FaultSite,
    /// Injection probability in parts-per-million, clamped to
    /// [`MAX_RATE_PPM`] when the rule enters a plan.
    pub rate_ppm: u32,
    /// Site-specific parameter (0 where unused).
    pub param: u64,
}

/// A declarative, seeded fault schedule: the unit the CLI's
/// `--fault-plan` flag parses and the kernel consumes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the injection hash; two runs with equal seed and rules
    /// see identical failure schedules.
    pub seed: u64,
    /// Active rules. At most one rule per site is meaningful; a later
    /// rule for the same site overwrites the earlier one.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    fn rule(mut self, site: FaultSite, rate_ppm: u32, param: u64) -> FaultPlan {
        self.rules.push(FaultRule {
            site,
            rate_ppm: rate_ppm.min(MAX_RATE_PPM),
            param,
        });
        self
    }

    /// DMA transfer errors (both directions) at `rate` ∈ [0, 1].
    pub fn dma_errors(self, rate: f64) -> FaultPlan {
        let ppm = rate_to_ppm(rate);
        self.rule(FaultSite::DmaIn, ppm, 0)
            .rule(FaultSite::DmaOut, ppm, 0)
    }

    /// DMA latency spikes at `rate`, each stretching the transfer by
    /// `mult` × its streaming time.
    pub fn latency_spikes(self, rate: f64, mult: u64) -> FaultPlan {
        self.rule(FaultSite::DmaLatency, rate_to_ppm(rate), mult.max(1))
    }

    /// IKC message drops at `rate`.
    pub fn ikc_drops(self, rate: f64) -> FaultPlan {
        self.rule(FaultSite::Ikc, rate_to_ppm(rate), 0)
    }

    /// Backing-store write failures (ENOSPC) at `rate`.
    pub fn enospc(self, rate: f64) -> FaultPlan {
        self.rule(FaultSite::Backing, rate_to_ppm(rate), 0)
    }

    /// Kill the offload engine after `calls` offloaded syscalls.
    pub fn offload_death_after(self, calls: u64) -> FaultPlan {
        self.rule(FaultSite::Offload, MAX_RATE_PPM, calls)
    }

    /// Parses the CLI spec format: comma-separated `key=value` pairs.
    ///
    /// ```text
    /// seed=42,dma=0.01,enospc=0.005,spike=0.001x8,ikc=0.002,offload-death=1000
    /// ```
    ///
    /// `dma`, `enospc`, `ikc` and `spike` take a probability in
    /// [0, 0.5] — rates above [`MAX_RATE_PPM`] (50 %) are **rejected**
    /// here rather than silently clamped, so a CLI run never executes a
    /// quietly weaker plan than its spec claims; `spike` takes `rate`
    /// or `ratexmult`; `offload-death` takes a call count.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry '{part}' is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("fault-plan '{key}': bad rate '{v}'"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault-plan '{key}': rate {r} outside [0, 1]"));
                }
                // Loud, not lossy: the builders below would clamp this
                // to MAX_RATE_PPM silently, which for a hand-written
                // spec means running a different experiment than the
                // flag claims. Reject instead.
                if r > MAX_RATE_PPM as f64 / PPM as f64 {
                    return Err(format!(
                        "fault-plan '{key}': rate {r} exceeds the 0.5 cap \
                         (rates above 50% defeat bounded-retry recovery); \
                         use a rate in [0, 0.5]"
                    ));
                }
                Ok(r)
            };
            plan = match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault-plan seed: bad integer '{value}'"))?;
                    plan
                }
                "dma" => plan.dma_errors(rate(value)?),
                "enospc" => plan.enospc(rate(value)?),
                "ikc" => plan.ikc_drops(rate(value)?),
                "spike" => {
                    let (r, m) = match value.split_once('x') {
                        Some((r, m)) => (
                            rate(r)?,
                            m.parse::<u64>()
                                .map_err(|_| format!("fault-plan spike: bad multiplier '{m}'"))?,
                        ),
                        None => (rate(value)?, 8),
                    };
                    plan.latency_spikes(r, m)
                }
                "offload-death" => {
                    let calls: u64 = value
                        .parse()
                        .map_err(|_| format!("fault-plan offload-death: bad count '{value}'"))?;
                    plan.offload_death_after(calls)
                }
                other => return Err(format!("fault-plan: unknown key '{other}'")),
            };
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for r in &self.rules {
            match r.site {
                FaultSite::DmaIn => {} // printed as the paired dma= entry via DmaOut
                FaultSite::DmaOut => write!(f, ",dma={}", ppm_to_rate(r.rate_ppm))?,
                FaultSite::DmaLatency => {
                    write!(f, ",spike={}x{}", ppm_to_rate(r.rate_ppm), r.param)?
                }
                FaultSite::Ikc => write!(f, ",ikc={}", ppm_to_rate(r.rate_ppm))?,
                FaultSite::Backing => write!(f, ",enospc={}", ppm_to_rate(r.rate_ppm))?,
                FaultSite::Offload => write!(f, ",offload-death={}", r.param)?,
            }
        }
        Ok(())
    }
}

fn rate_to_ppm(rate: f64) -> u32 {
    ((rate.clamp(0.0, 1.0) * PPM as f64).round() as u32).min(MAX_RATE_PPM)
}

fn ppm_to_rate(ppm: u32) -> f64 {
    ppm as f64 / PPM as f64
}

/// SplitMix64 — the standard 64-bit finalizer; full-avalanche, cheap.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-site salts so sites with equal rates see decorrelated schedules.
const SITE_SALT: [u64; FAULT_SITES] = [
    0xd1b5_4a32_d192_ed03,
    0xaef1_7502_b3b6_4d5e,
    0x8f01_fc21_6c3a_91b7,
    0x1bdc_9b40_6a7e_52a9,
    0x5e8a_763d_21f0_c94b,
    0x93c4_67e5_0d1a_88ff,
];

/// Per-tier salts folded into the injection hash so the same site on
/// different backing tiers draws independent failure sequences. Tier 0
/// salts with zero: a single-tier (flat) run hashes exactly as the
/// pre-tier injector did, keeping every committed faulted golden
/// byte-identical.
const TIER_SALT: [u64; MAX_TIERS] = [
    0,
    0x7b8f_0d4e_9c21_a653,
    0xc59d_3b87_14f6_e0a1,
    0x2e64_af05_d83b_7c19,
    0x9a17_c2d8_5e40_b3f7,
    0x41fb_68e3_a79d_025c,
    0xe80c_95ba_361f_d4a7,
    0x5d23_e791_b0c8_46fe,
];

/// The compiled form of a [`FaultPlan`]: per-site rates plus
/// per-(site, tier) sequence counters that make each injection decision
/// a pure function of `(seed, site, tier, sequence_number)`.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rate_ppm: [u32; FAULT_SITES],
    param: [u64; FAULT_SITES],
    /// Sequence counters, one per (site, tier), flattened as
    /// `site * MAX_TIERS + tier`. Sites that never see a tier (IKC,
    /// offload) only ever touch their tier-0 counter.
    seq: [u64; FAULT_SITES * MAX_TIERS],
}

impl FaultInjector {
    /// Compiles a plan. Rates are (re-)clamped to [`MAX_RATE_PPM`].
    pub fn new(plan: &FaultPlan) -> FaultInjector {
        let mut rate_ppm = [0u32; FAULT_SITES];
        let mut param = [0u64; FAULT_SITES];
        for r in &plan.rules {
            rate_ppm[r.site as usize] = r.rate_ppm.min(MAX_RATE_PPM);
            param[r.site as usize] = r.param;
        }
        FaultInjector {
            seed: plan.seed,
            rate_ppm,
            param,
            seq: [0; FAULT_SITES * MAX_TIERS],
        }
    }

    /// The offload-death call threshold, if an offload rule is set.
    pub fn offload_death_after(&self) -> Option<u64> {
        (self.rate_ppm[FaultSite::Offload as usize] > 0)
            .then(|| self.param[FaultSite::Offload as usize])
    }

    /// Rolls the dice for one operation at `site` on backing tier
    /// `tier`. Returns `true` when the operation must fail. Each
    /// (site, tier) pair owns an independent sequence counter and folds
    /// its own salt into the hash, so per-tier failure schedules neither
    /// shift nor correlate when another tier's traffic changes. A roll
    /// consumes one sequence number even when the site's rate is zero,
    /// so adding a rule to one site never perturbs another site's
    /// schedule. Operations with no tier affinity (IKC, offload) roll
    /// against tier 0, whose salt is zero.
    pub fn roll(&mut self, site: FaultSite, tier: usize) -> bool {
        debug_assert!(tier < MAX_TIERS, "tier {tier} out of range");
        let i = site as usize;
        let tier = tier.min(MAX_TIERS - 1);
        let seq = &mut self.seq[i * MAX_TIERS + tier];
        let n = *seq;
        *seq += 1;
        if self.rate_ppm[i] == 0 {
            return false;
        }
        let h = splitmix64(self.seed ^ SITE_SALT[i] ^ TIER_SALT[tier] ^ splitmix64(n));
        h % PPM < self.rate_ppm[i] as u64
    }

    /// [`FaultInjector::roll`], returning the site parameter on a hit.
    pub fn roll_param_tiered(&mut self, site: FaultSite, tier: usize) -> Option<u64> {
        self.roll(site, tier).then(|| self.param[site as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let spec = "seed=42,dma=0.01,enospc=0.005,spike=0.001x8,ikc=0.002,offload-death=1000";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 6, "dma expands to in+out");
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("dma").is_err());
        assert!(FaultPlan::parse("dma=2.0").is_err());
        assert!(FaultPlan::parse("dma=-0.1").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("warp=0.5").is_err());
        assert!(FaultPlan::parse("spike=0.1xq").is_err());
    }

    #[test]
    fn rates_clamp_to_half() {
        let plan = FaultPlan::new(1).dma_errors(0.9);
        assert!(plan.rules.iter().all(|r| r.rate_ppm == MAX_RATE_PPM));
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.rate_ppm[FaultSite::DmaIn as usize], MAX_RATE_PPM);
    }

    #[test]
    fn parse_rejects_rates_above_the_cap_loudly() {
        // The CLI path must refuse, not silently clamp: a spec asking
        // for 90% DMA errors describes an experiment this simulator
        // will not run.
        for spec in ["dma=0.51", "enospc=0.9", "ikc=0.500001", "spike=0.75x4"] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains("exceeds the 0.5 cap"),
                "spec '{spec}' produced the wrong error: {err}"
            );
        }
        // Exactly the cap is fine — it is a rate this simulator runs.
        let plan = FaultPlan::parse("dma=0.5").unwrap();
        assert!(plan.rules.iter().all(|r| r.rate_ppm == MAX_RATE_PPM));
        // And the programmatic builders keep saturation semantics for
        // sweep harnesses driving them with computed values.
        let swept = FaultPlan::new(1).enospc(0.75);
        assert_eq!(swept.rules[0].rate_ppm, MAX_RATE_PPM);
    }

    #[test]
    fn injection_is_deterministic_and_site_independent() {
        let plan = FaultPlan::new(7).dma_errors(0.2).enospc(0.1);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        let seq_a: Vec<bool> = (0..1000).map(|_| a.roll(FaultSite::DmaIn, 0)).collect();
        // Interleave another site's rolls on `b`: DmaIn's schedule must
        // not shift.
        let seq_b: Vec<bool> = (0..1000)
            .map(|_| {
                b.roll(FaultSite::Backing, 0);
                b.roll(FaultSite::DmaIn, 0)
            })
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f), "0.2 over 1000 rolls must hit");
    }

    #[test]
    fn hit_rate_tracks_the_rule() {
        let mut inj = FaultInjector::new(&FaultPlan::new(3).dma_errors(0.1));
        let hits = (0..20_000)
            .filter(|_| inj.roll(FaultSite::DmaOut, 0))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn zero_rate_never_fires_but_still_sequences() {
        let mut inj = FaultInjector::new(&FaultPlan::new(9));
        for _ in 0..100 {
            assert!(!inj.roll(FaultSite::Ikc, 0));
        }
        assert_eq!(inj.seq[FaultSite::Ikc as usize * MAX_TIERS], 100);
    }

    #[test]
    fn offload_death_threshold_exposed() {
        let inj = FaultInjector::new(&FaultPlan::new(1).offload_death_after(64));
        assert_eq!(inj.offload_death_after(), Some(64));
        let none = FaultInjector::new(&FaultPlan::new(1));
        assert_eq!(none.offload_death_after(), None);
    }

    #[test]
    fn tiers_draw_independent_sequences() {
        let plan = FaultPlan::new(7).dma_errors(0.2);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        let t0: Vec<bool> = (0..1000).map(|_| a.roll(FaultSite::DmaIn, 0)).collect();
        // Interleave heavy tier-1 traffic on `b`: tier 0's schedule
        // must not shift (per-tier sequence counters), and tier 1's
        // schedule must not mirror tier 0's (per-tier salt).
        let mut t0_interleaved = Vec::new();
        let mut t1 = Vec::new();
        for _ in 0..1000 {
            t1.push(b.roll(FaultSite::DmaIn, 1));
            b.roll(FaultSite::DmaIn, 1);
            t0_interleaved.push(b.roll(FaultSite::DmaIn, 0));
        }
        assert_eq!(t0, t0_interleaved, "tier-1 traffic shifted tier 0");
        assert_ne!(t0, t1, "tier salts failed to decorrelate");
        assert!(t1.iter().any(|&f| f), "tier 1 at 0.2 over 1000 must hit");
    }

    #[test]
    fn tiered_schedule_is_seed_stable() {
        // Regression pin: the exact hit indices for a fixed (seed,
        // rate, site, tier). If the hash, a salt, or the sequence
        // layout changes, committed faulted goldens silently shift —
        // this test makes that loud instead.
        let mut inj = FaultInjector::new(&FaultPlan::new(42).dma_errors(0.1));
        let mut hits = |tier: usize| -> Vec<u64> {
            (0u64..200)
                .filter(|_| inj.roll(FaultSite::DmaOut, tier))
                .collect()
        };
        assert_eq!(
            hits(0),
            vec![1, 19, 31, 47, 49, 62, 67, 79, 84, 94, 100, 108, 113, 130]
        );
        assert_eq!(
            hits(1),
            vec![
                27, 28, 44, 71, 72, 85, 99, 100, 102, 112, 113, 120, 134, 149, 161, 169, 175, 177,
                185, 191, 195
            ]
        );
    }

    #[test]
    fn plan_serializes() {
        let plan = FaultPlan::new(42).dma_errors(0.01);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
