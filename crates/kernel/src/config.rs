//! Experiment configuration for the kernel memory manager.

use cmcp_arch::{CostModel, FaultPlan, PageSize, TierConfig};
use cmcp_core::PolicyKind;

/// Which page-table scheme the address space uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeChoice {
    /// Traditional shared page tables (broadcast shootdowns, one lock).
    Regular,
    /// Per-core partially separated page tables.
    Pspt,
}

impl std::fmt::Display for SchemeChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeChoice::Regular => write!(f, "regular PT"),
            SchemeChoice::Pspt => write!(f, "PSPT"),
        }
    }
}

/// Full kernel configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Application cores sharing the address space.
    pub cores: usize,
    /// Mapping granularity for the computation area (fixed per run, as
    /// in the paper's experiments).
    pub block_size: PageSize,
    /// Device RAM capacity, in blocks: the memory-constraint knob. The
    /// paper expresses this as a percentage of the application footprint.
    pub device_blocks: usize,
    /// Page-table scheme.
    pub scheme: SchemeChoice,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Cycle cost table.
    pub cost: CostModel,
    /// Blocks examined per accessed-bit scan tick; 0 selects an automatic
    /// budget of `max(resident / 8, 32)`.
    pub scan_budget: usize,
    /// Virtual-time period for periodic PSPT rebuilding (paper §5.6
    /// future work: refresh the core-map counts of workloads whose
    /// sharing pattern drifts). 0 disables rebuilding.
    pub pspt_rebuild_period: u64,
    /// Declarative fault schedule for the PCIe/backing path. `None`
    /// (the default) runs the empty plan, [`FaultPlan::new`]`(0)`: every
    /// injection site still rolls, and no roll ever fires.
    pub fault_plan: Option<FaultPlan>,
    /// Online page-size adaptation: `block_size` becomes the *largest*
    /// granularity (2 MB), faults map at the pressure-chosen size, and
    /// oversized victims split one level instead of evicting whole.
    /// `false` (the default) keeps the paper's fixed-size behavior
    /// bit-identical.
    pub adaptive: bool,
}

impl KernelConfig {
    /// A reasonable starting point: PSPT + FIFO on 4 kB pages.
    pub fn new(cores: usize, device_blocks: usize) -> KernelConfig {
        KernelConfig {
            cores,
            block_size: PageSize::K4,
            device_blocks,
            scheme: SchemeChoice::Pspt,
            policy: PolicyKind::Fifo,
            cost: CostModel::default(),
            scan_budget: 0,
            pspt_rebuild_period: 0,
            fault_plan: None,
            adaptive: false,
        }
    }

    /// Builder-style scheme selection.
    pub fn with_scheme(mut self, scheme: SchemeChoice) -> KernelConfig {
        self.scheme = scheme;
        self
    }

    /// Builder-style policy selection.
    pub fn with_policy(mut self, policy: PolicyKind) -> KernelConfig {
        self.policy = policy;
        self
    }

    /// Builder-style page-size selection.
    pub fn with_block_size(mut self, size: PageSize) -> KernelConfig {
        self.block_size = size;
        self
    }

    /// Builder-style fault-plan selection.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> KernelConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style backing-tier hierarchy selection (stored in the
    /// cost model, where the per-tier penalties live).
    pub fn with_tiers(mut self, tiers: TierConfig) -> KernelConfig {
        self.cost.tiers = tiers;
        self
    }

    /// The configured backing hierarchy.
    pub fn tiers(&self) -> &TierConfig {
        &self.cost.tiers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = KernelConfig::new(8, 100)
            .with_scheme(SchemeChoice::Regular)
            .with_policy(PolicyKind::Lru)
            .with_block_size(PageSize::K64);
        assert_eq!(c.cores, 8);
        assert_eq!(c.device_blocks, 100);
        assert_eq!(c.scheme, SchemeChoice::Regular);
        assert_eq!(c.policy, PolicyKind::Lru);
        assert_eq!(c.block_size, PageSize::K64);
    }
}
