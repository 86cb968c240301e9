//! The high-level simulation builder: one experiment, one call chain.

use cmcp_arch::{CostModel, FaultPlan, NumaConfig, PageSize, TierConfig};
use cmcp_core::PolicyKind;
use cmcp_kernel::{KernelConfig, SchemeChoice, Vmm};
use cmcp_sim::{RunReport, Trace};
use cmcp_trace::{Event, Recorder, RingTracer};
use cmcp_workloads::Workload;

/// Default per-core event-ring capacity for traced runs: large enough
/// that the tier-1 workloads complete without wraparound.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Builds and runs one simulation.
///
/// Memory can be constrained either as a fraction of the workload's
/// measured footprint ([`SimulationBuilder::memory_ratio`], how the paper
/// states it) or as an absolute block count
/// ([`SimulationBuilder::device_blocks`]). The default is 1.0 — the
/// paper's *no data movement* configuration.
pub struct SimulationBuilder {
    source: TraceSource,
    cores: usize,
    scheme: SchemeChoice,
    policy: PolicyKind,
    page_size: PageSize,
    memory: MemorySpec,
    cost: CostModel,
    scan_budget: usize,
    pspt_rebuild_period: u64,
    trace_capacity: usize,
    fault_plan: Option<FaultPlan>,
    adaptive: bool,
}

/// A traced run: the usual report (with its validated breakdown) plus
/// the raw event stream for export.
pub struct TracedRun {
    /// The ordinary run report; `report.breakdown` is `Some`.
    pub report: RunReport,
    /// Every captured event, sorted by (timestamp, core, kind).
    pub events: Vec<Event>,
    /// Events lost to ring wraparound (0 unless the capacity was too small).
    pub dropped: u64,
}

enum TraceSource {
    Workload(Workload),
    Explicit(Trace),
}

#[derive(Clone, Copy)]
enum MemorySpec {
    Ratio(f64),
    Blocks(usize),
}

impl SimulationBuilder {
    /// Starts from one of the paper's workloads.
    pub fn workload(w: Workload) -> SimulationBuilder {
        SimulationBuilder::from_source(TraceSource::Workload(w))
    }

    /// Starts from a caller-built trace (see `cmcp_workloads::synthetic`
    /// and `cmcp_workloads::TraceLogger`). The core count is taken from
    /// the trace.
    pub fn trace(t: Trace) -> SimulationBuilder {
        let cores = t.cores.len();
        let mut b = SimulationBuilder::from_source(TraceSource::Explicit(t));
        b.cores = cores;
        b
    }

    fn from_source(source: TraceSource) -> SimulationBuilder {
        SimulationBuilder {
            source,
            cores: 8,
            scheme: SchemeChoice::Pspt,
            policy: PolicyKind::Fifo,
            page_size: PageSize::K4,
            memory: MemorySpec::Ratio(1.0),
            cost: CostModel::default(),
            scan_budget: 0,
            pspt_rebuild_period: 0,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            fault_plan: None,
            adaptive: false,
        }
    }

    /// Number of application cores (ignored for explicit traces, which
    /// carry their own core count).
    pub fn cores(mut self, n: usize) -> Self {
        if matches!(self.source, TraceSource::Workload(_)) {
            self.cores = n;
        }
        self
    }

    /// Page-table scheme (default: PSPT).
    pub fn scheme(mut self, s: SchemeChoice) -> Self {
        self.scheme = s;
        self
    }

    /// Replacement policy (default: FIFO).
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    /// Mapping granularity (default: 4 kB).
    pub fn page_size(mut self, s: PageSize) -> Self {
        self.page_size = s;
        self
    }

    /// Online pressure-adaptive page sizes: fresh 2 MB regions map at
    /// the granularity the current memory pressure suggests (2 MB when
    /// RAM is plentiful, down to 4 kB when it is nearly full), and
    /// oversized eviction victims are split in place instead of evicted
    /// whole. Overrides [`SimulationBuilder::page_size`].
    pub fn adaptive_page_size(mut self) -> Self {
        self.adaptive = true;
        self.page_size = PageSize::M2;
        self
    }

    /// Backing-store tier hierarchy (default: the flat zero-penalty host
    /// store). See [`TierConfig::parse`] for the spec language and the
    /// `"2tier"`/`"4tier"` presets.
    pub fn tiers(mut self, t: TierConfig) -> Self {
        self.cost.tiers = t;
        self
    }

    /// NUMA topology (default: the single zero-cost node, byte-identical
    /// to the pre-NUMA kernel). See [`NumaConfig::parse`] for the spec
    /// language and the `"2node"`/`"4node"` presets.
    pub fn numa(mut self, n: NumaConfig) -> Self {
        self.cost.numa = n;
        self
    }

    /// Toggles page-table replication on the configured NUMA topology
    /// (default: on). With replication off, every minor fault from a
    /// non-home node walks the home node's master table remotely — the
    /// recurring cost the `numa_sweep` bench measures.
    pub fn numa_replication(mut self, on: bool) -> Self {
        self.cost.numa.replicate = on;
        self
    }

    /// Device RAM as a fraction of the workload footprint (the paper's
    /// "memory provided" percentage). 1.0 = no data movement.
    pub fn memory_ratio(mut self, r: f64) -> Self {
        assert!(
            r.is_finite() && r > 0.0,
            "memory ratio must be finite and positive, got {r}"
        );
        self.memory = MemorySpec::Ratio(r);
        self
    }

    /// Device RAM as an absolute number of blocks.
    pub fn device_blocks(mut self, blocks: usize) -> Self {
        assert!(blocks > 0);
        self.memory = MemorySpec::Blocks(blocks);
        self
    }

    /// Overrides the cycle cost table (for sensitivity ablations).
    pub fn cost_model(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Overrides the scan-tick budget (blocks per tick; 0 = auto).
    pub fn scan_budget(mut self, b: usize) -> Self {
        self.scan_budget = b;
        self
    }

    /// Enables periodic PSPT rebuilding every `period` cycles of virtual
    /// time (paper §5.6 future work; 0 = off).
    pub fn pspt_rebuild_period(mut self, period: u64) -> Self {
        self.pspt_rebuild_period = period;
        self
    }

    /// Arms the seeded fault-injection layer with `plan` (default: no
    /// faults). See `cmcp_arch::FaultPlan` for the rule language.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Per-core event-ring capacity used by [`SimulationBuilder::run_traced`]
    /// (default [`DEFAULT_TRACE_CAPACITY`]). Smaller rings drop the oldest
    /// events on wraparound, which disables breakdown validation.
    pub fn trace_capacity(mut self, events_per_core: usize) -> Self {
        assert!(events_per_core > 0, "trace capacity must be positive");
        self.trace_capacity = events_per_core;
        self
    }

    fn materialize(&self) -> (Trace, KernelConfig) {
        let trace = match &self.source {
            TraceSource::Workload(w) => w.trace(self.cores),
            TraceSource::Explicit(t) => t.clone(),
        };
        // The paper's "memory provided" percentages are relative to the
        // application's declared requirement (what it allocates), which
        // for CG and SCALE exceeds the per-iteration touched set — the
        // source of their flat Figure 8 curves.
        let footprint = trace.declared_blocks(self.page_size);
        let device_blocks = match self.memory {
            MemorySpec::Ratio(r) => ((footprint as f64 * r).ceil() as usize).max(1),
            MemorySpec::Blocks(b) => b,
        };
        let cfg = KernelConfig {
            cores: trace.cores.len(),
            block_size: self.page_size,
            device_blocks,
            scheme: self.scheme,
            policy: self.policy,
            cost: self.cost.clone(),
            scan_budget: self.scan_budget,
            pspt_rebuild_period: self.pspt_rebuild_period,
            fault_plan: self.fault_plan.clone(),
            adaptive: self.adaptive,
        };
        (trace, cfg)
    }

    /// Generates the trace, sizes the memory, runs the simulation.
    pub fn run(self) -> RunReport {
        let (trace, cfg) = self.materialize();
        let vmm = Vmm::new(cfg);
        cmcp_sim::run(&vmm, &trace)
    }

    /// Like [`SimulationBuilder::run`], but records the fault-path event
    /// stream into per-core rings and returns it alongside the report.
    /// `report.breakdown` is populated and — when no events were dropped —
    /// validated against the kernel counters.
    pub fn run_traced(self) -> TracedRun {
        let (trace, cfg) = self.materialize();
        let cores = cfg.cores;
        let vmm = Vmm::with_tracer(cfg, RingTracer::new(cores, self.trace_capacity));
        let report = cmcp_sim::run(&vmm, &trace);
        TracedRun {
            report,
            events: vmm.tracer().events(),
            dropped: vmm.tracer().dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcp_workloads::synthetic;

    #[test]
    fn builder_runs_a_synthetic_trace() {
        let t = synthetic::private_stream(2, 8, 2);
        let r = SimulationBuilder::trace(t).memory_ratio(0.5).run();
        assert!(r.runtime_cycles > 0);
        assert_eq!(r.per_core.len(), 2);
        assert!(r.global.evictions > 0, "constrained run must evict");
    }

    #[test]
    fn ratio_one_means_no_evictions() {
        let t = synthetic::private_stream(2, 8, 3);
        let r = SimulationBuilder::trace(t).run();
        assert_eq!(r.global.evictions, 0);
    }

    #[test]
    fn explicit_blocks_override_ratio() {
        let t = synthetic::private_stream(1, 16, 2);
        let r = SimulationBuilder::trace(t).device_blocks(4).run();
        assert!(
            r.global.evictions >= 12,
            "16-page sweep into 4 blocks thrashes"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_rejected() {
        let t = synthetic::private_stream(1, 4, 1);
        SimulationBuilder::trace(t).memory_ratio(0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_ratio_rejected() {
        let t = synthetic::private_stream(1, 4, 1);
        SimulationBuilder::trace(t).memory_ratio(f64::NAN);
    }
}
