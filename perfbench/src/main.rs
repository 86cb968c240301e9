//! Whole-run host benchmark for the CMCP simulator.
//!
//! One *operation* is one full simulation driven only through the
//! simulator crates' public calls, so every layer boundary is visible
//! from here:
//!
//! 1. `cmcp_workloads` builds the trace;
//! 2. the kernel is sized from the declared footprint × the memory
//!    ratio (as `SimulationBuilder` does) and `Vmm::new` builds it;
//! 3. `cmcp_sim::run_with_host_stats` runs the engine (including
//!    `RunReport::collect`);
//! 4. the report is rendered with `{:?}` and its digest checked.
//!
//! Untraced operations give the end-to-end metrics. With `--trace 1`
//! the run alternates untraced and traced operations: a traced
//! operation wraps the event ring in [`HostRecorder`], which stamps
//! host time at every `FaultStart`/`FaultEnd`, and stamps every epoch on
//! engine worker 0 through `run_with_worker_hook`. The untraced
//! operations of that run supply the per-layer stamps and counters.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tamper]`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use cmcp_arch::{CostModel, NumaConfig, PageSize, TierConfig};
use cmcp_core::PolicyKind;
use cmcp_kernel::{CoreStatsSnapshot, KernelConfig, SchemeChoice, Vmm};
use cmcp_sim::engine::run_with_worker_hook;
use cmcp_sim::{HostScaling, RunReport, Trace};
use cmcp_trace::{Cycles, Event, EventKind, Recorder, RingTracer};
use cmcp_workloads::cg::{cg_trace, CgConfig};
use cmcp_workloads::{Workload, WorkloadClass};

/// Simulated application cores in every workload.
const CORES: usize = 16;

/// The seed whose reports are pinned by [`Spec::expected`].
const DEFAULT_SEED: u64 = 0;

/// XORed into the expected digest by `--tamper`: every operation must
/// then fail, which proves the oracle is not vacuous.
const TAMPER_MASK: u64 = 0x5a5a_5a5a_5a5a_5a5a;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
const MIN_TAIL: usize = 10;

/// How a workload's trace is made.
#[derive(Clone, Copy)]
enum Source {
    /// cg.C with its matrix pattern seeded by the benchmark seed.
    SeededCg,
    /// A seedless suite workload.
    Suite(Workload),
}

/// One benchmark workload: a trace and the kernel it runs against.
struct Spec {
    name: &'static str,
    source: Source,
    memory_ratio: f64,
    tiers: &'static str,
    numa: &'static str,
    threads: usize,
    /// Per-core event-ring capacity for traced operations: over twice
    /// the busiest core's event count at the default seed, so no event
    /// is dropped and the breakdown validates.
    ring_capacity: usize,
    /// FNV-1a digest of the `{:?}`-rendered report at [`DEFAULT_SEED`].
    expected: u64,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "cg_share",
        source: Source::SeededCg,
        memory_ratio: 0.37,
        tiers: "flat",
        numa: "1node",
        threads: 2,
        ring_capacity: 1 << 15,
        expected: 0xa703_a2c8_a07e_9789,
    },
    Spec {
        name: "lu_tiered",
        source: Source::Suite(Workload::Lu(WorkloadClass::C)),
        memory_ratio: 0.66,
        tiers: "4tier",
        numa: "2node",
        threads: 1,
        ring_capacity: 1 << 17,
        expected: 0x9a32_5871_8808_ef63,
    },
];

impl Spec {
    /// The digest every operation at `seed` must reproduce, when it is
    /// known before the run: CG's pattern depends on the seed, the
    /// stencils do not.
    fn pinned_digest(&self, seed: u64) -> Option<u64> {
        match self.source {
            Source::SeededCg if seed != DEFAULT_SEED => None,
            _ => Some(self.expected),
        }
    }

    fn trace(&self, seed: u64) -> Trace {
        match self.source {
            Source::SeededCg => {
                let class = CgConfig::class_c();
                let cfg = CgConfig {
                    seed: class.seed ^ seed,
                    ..class
                };
                cg_trace(CORES, &cfg)
            }
            Source::Suite(w) => w.trace(CORES),
        }
    }

    fn kernel_config(&self, trace: &Trace) -> KernelConfig {
        let footprint = trace.declared_blocks(PageSize::K4);
        let cost = CostModel {
            tiers: TierConfig::parse(self.tiers).expect("tier preset parses"),
            numa: NumaConfig::parse(self.numa).expect("node preset parses"),
            ..CostModel::default()
        };
        KernelConfig {
            cores: trace.cores.len(),
            block_size: PageSize::K4,
            device_blocks: ((footprint as f64 * self.memory_ratio).ceil() as usize).max(1),
            scheme: SchemeChoice::Pspt,
            policy: PolicyKind::Cmcp { p: 0.75 },
            cost,
            scan_budget: 0,
            pspt_rebuild_period: 0,
            fault_plan: None,
            adaptive: false,
        }
    }
}

/// FNV-1a over the report's `{:?}` rendering. A traced report is
/// digested without its breakdown, which untraced runs do not have.
fn digest(report: &RunReport) -> u64 {
    let rendered = if report.breakdown.is_some() {
        format!(
            "{:?}",
            RunReport {
                breakdown: None,
                ..report.clone()
            }
        )
    } else {
        format!("{report:?}")
    };
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Host-time stamps of one operation, in seconds.
#[derive(Clone, Copy)]
struct Stamps {
    trace_build: f64,
    vmm_new: f64,
    engine: f64,
    run: f64,
}

impl Stamps {
    fn setup(&self) -> f64 {
        self.trace_build + self.vmm_new
    }

    /// The stamped layers are disjoint parts of the operation.
    fn consistent(&self) -> bool {
        self.trace_build + self.vmm_new + self.engine <= self.run
    }
}

struct Untraced {
    stamps: Stamps,
    report: RunReport,
    host: HostScaling,
    touches: u64,
    digest: u64,
}

fn untraced_op(spec: &Spec, seed: u64, threads: usize) -> Untraced {
    let t0 = Instant::now();
    let trace = spec.trace(seed);
    let t1 = Instant::now();
    let vmm = Vmm::new(spec.kernel_config(&trace));
    let t2 = Instant::now();
    let (report, host) = cmcp_sim::run_with_host_stats(&vmm, &trace, threads);
    let t3 = Instant::now();
    let digest = digest(&report);
    let touches = trace.total_touches();
    drop(vmm);
    drop(trace);
    let t4 = Instant::now();
    Untraced {
        stamps: Stamps {
            trace_build: (t1 - t0).as_secs_f64(),
            vmm_new: (t2 - t1).as_secs_f64(),
            engine: (t3 - t2).as_secs_f64(),
            run: (t4 - t0).as_secs_f64(),
        },
        report,
        host,
        touches,
        digest,
    }
}

/// One core's fault clock: the host instant its open fault started and
/// the host durations of its finished faults, with their resolution.
#[derive(Default)]
struct FaultClock {
    open: Option<Instant>,
    faults: Vec<(u64, u64)>,
}

/// The event ring, plus a host-time stamp at every fault boundary.
/// Events are forwarded unchanged, so the report's breakdown is built
/// and validated exactly as with a bare [`RingTracer`].
struct HostRecorder {
    ring: RingTracer,
    cores: Vec<Mutex<FaultClock>>,
}

impl HostRecorder {
    fn new(cores: usize, capacity: usize) -> HostRecorder {
        HostRecorder {
            ring: RingTracer::new(cores, capacity),
            cores: (0..cores).map(|_| Mutex::default()).collect(),
        }
    }

    fn clock(&self, core: u16) -> Option<std::sync::MutexGuard<'_, FaultClock>> {
        let slot = self.cores.get(usize::from(core))?;
        Some(slot.lock().expect("fault clock lock poisoned"))
    }
}

impl Recorder for HostRecorder {
    const ENABLED: bool = true;

    fn record(&self, core: u16, ts: Cycles, kind: EventKind, a: u64, b: u64) {
        // Stamp outside the ring push on both ends, so the ring's cost
        // stays out of the fault's host time.
        if kind == EventKind::FaultEnd {
            let end = Instant::now();
            if let Some(mut c) = self.clock(core) {
                if let Some(start) = c.open.take() {
                    c.faults.push(((end - start).as_nanos() as u64, a));
                }
            }
        }
        self.ring.record(core, ts, kind, a, b);
        if kind == EventKind::FaultStart {
            if let Some(mut c) = self.clock(core) {
                c.open = Some(Instant::now());
            }
        }
    }

    fn events(&self) -> Vec<Event> {
        self.ring.events()
    }

    fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

struct Traced {
    stamps: Stamps,
    digest: u64,
    dropped: u64,
    validated: bool,
    /// `(host ns, resolution)` of every fault: 0 major, 1 minor copy,
    /// 2 spurious (the `FaultEnd` payload).
    faults: Vec<(u64, u64)>,
    /// Host ns between consecutive epoch starts on worker 0.
    epochs: Vec<u64>,
}

fn traced_op(spec: &Spec, seed: u64, threads: usize) -> Traced {
    let t0 = Instant::now();
    let trace = spec.trace(seed);
    let t1 = Instant::now();
    let cfg = spec.kernel_config(&trace);
    let recorder = HostRecorder::new(cfg.cores, spec.ring_capacity);
    let vmm = Vmm::with_tracer(cfg, recorder);
    let epoch_starts = Mutex::new(Vec::new());
    let t2 = Instant::now();
    let report = run_with_worker_hook(&vmm, &trace, threads, &|worker| {
        if worker == 0 {
            let now = Instant::now();
            epoch_starts.lock().expect("epoch lock poisoned").push(now);
        }
    });
    let t3 = Instant::now();
    let digest = digest(&report);
    let dropped = vmm.tracer().dropped();
    let validated = report.breakdown.as_ref().is_some_and(|b| b.validated);
    let faults = vmm
        .tracer()
        .cores
        .iter()
        .flat_map(|c| std::mem::take(&mut c.lock().expect("fault clock lock poisoned").faults))
        .collect();
    drop(vmm);
    drop(trace);
    let t4 = Instant::now();
    let starts = epoch_starts.into_inner().expect("epoch lock poisoned");
    let epochs = starts
        .windows(2)
        .map(|w| (w[1] - w[0]).as_nanos() as u64)
        .collect();
    Traced {
        stamps: Stamps {
            trace_build: (t1 - t0).as_secs_f64(),
            vmm_new: (t2 - t1).as_secs_f64(),
            engine: (t3 - t2).as_secs_f64(),
            run: (t4 - t0).as_secs_f64(),
        },
        digest,
        dropped,
        validated,
        faults,
        epochs,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `sorted`, or `None` unless at least
/// [`MIN_TAIL`] samples lie beyond it.
fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_TAIL).then(|| sorted[rank - 1])
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

enum Value {
    Count(u64),
    Real(f64),
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, Value, &'static str)>);

impl Metrics {
    fn real(&mut self, name: &str, v: f64, unit: &'static str) {
        self.0.push((name.to_string(), Value::Real(v), unit));
    }

    fn count(&mut self, name: &str, v: u64, unit: &'static str) {
        self.0.push((name.to_string(), Value::Count(v), unit));
    }

    /// `<name>.p50`/`.p99` (each only with enough tail samples) and
    /// `<name>.samples`.
    fn distribution(&mut self, name: &str, mut samples: Vec<u64>, quantiles: &[(&str, f64)]) {
        samples.sort_unstable();
        for &(label, q) in quantiles {
            if let Some(v) = percentile(&samples, q) {
                self.count(&format!("{name}.{label}"), v, "ns");
            }
        }
        self.count(&format!("{name}.samples"), samples.len() as u64, "count");
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = match v {
                    Value::Count(c) => c.to_string(),
                    Value::Real(r) if r.is_finite() => r.to_string(),
                    Value::Real(_) => "null".to_string(),
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

const P50_P99: [(&str, f64); 2] = [("p50", 0.50), ("p99", 0.99)];

/// The end-to-end metrics, from the untraced operations and the peak
/// resident set after the first of them.
fn end_to_end(ops: &[Untraced], peak_rss_mib: f64) -> Metrics {
    let mut m = Metrics::default();
    m.real(
        "run_s",
        median(ops.iter().map(|o| o.stamps.run).collect()),
        "s",
    );
    m.real(
        "setup_s",
        median(ops.iter().map(|o| o.stamps.setup()).collect()),
        "s",
    );
    m.real(
        "accesses_per_s",
        median(
            ops.iter()
                .map(|o| o.touches as f64 / o.stamps.engine)
                .collect(),
        ),
        "1/s",
    );
    m.real("peak_rss_mb", peak_rss_mib, "MiB");
    m
}

/// The per-layer metrics: stamps and host counters from the untraced
/// operations, deterministic counters from `report`, and host time per
/// fault and per epoch from the traced operations.
fn per_layer(report: &RunReport, ops: &[Untraced], traced: Vec<Traced>) -> Metrics {
    let mut m = Metrics::default();
    let med = |f: &dyn Fn(&Untraced) -> f64| median(ops.iter().map(f).collect());
    let engine_s = med(&|o| o.stamps.engine);
    let epochs = report.scaling.epochs;
    let sum = |f: fn(&CoreStatsSnapshot) -> u64| -> u64 { report.per_core.iter().map(f).sum() };

    m.real(
        "workloads.trace_build_s",
        med(&|o| o.stamps.trace_build),
        "s",
    );
    m.count("workloads.touches", ops[0].touches, "count");

    m.real("kernel.vmm_new_s", med(&|o| o.stamps.vmm_new), "s");
    m.count("kernel.page_faults", sum(|c| c.page_faults), "count");
    m.count("kernel.evictions", report.global.evictions, "count");
    m.count("kernel.writebacks", report.global.writebacks, "count");
    m.count("kernel.refaults", report.global.refaults, "count");
    m.count(
        "kernel.remote_inv_received",
        sum(|c| c.remote_inv_received),
        "count",
    );
    m.count("kernel.scan_ptes", report.global.scan_ptes, "count");

    let traced_engine_s = median(traced.iter().map(|t| t.stamps.engine).collect());
    let fault_host_s = median(
        traced
            .iter()
            .map(|t| t.faults.iter().map(|f| f.0).sum::<u64>() as f64 * 1e-9)
            .collect(),
    );
    m.real("kernel.fault_host_s", fault_host_s, "s");
    let faults: Vec<(u64, u64)> = traced
        .iter()
        .flat_map(|t| t.faults.iter().copied())
        .collect();
    let of_kind = |kind: u64| faults.iter().filter(|f| f.1 == kind).map(|f| f.0).collect();
    m.distribution(
        "kernel.fault_host_ns",
        faults.iter().map(|f| f.0).collect(),
        &P50_P99,
    );
    m.distribution("kernel.fault_host_ns.major", of_kind(0), &P50_P99[..1]);
    m.distribution("kernel.fault_host_ns.minor", of_kind(1), &P50_P99[..1]);
    m.real(
        "kernel.fault_host_share",
        fault_host_s / traced_engine_s,
        "ratio",
    );

    let tier_stores = report
        .tiers
        .as_ref()
        .map_or(0, |t| t.counters.iter().map(|c| c.stores).sum());
    m.count("kernel.backing.tier_stores", tier_stores, "count");
    m.count(
        "kernel.backing.tier_demotions",
        report.global.tier_demotions,
        "count",
    );
    m.count(
        "kernel.backing.tier_promotions",
        report.global.tier_promotions,
        "count",
    );
    let numa = report.numa.as_ref();
    m.count(
        "kernel.numa.replica_syncs",
        numa.map_or(0, |n| n.replica_syncs),
        "count",
    );
    m.count(
        "kernel.numa.replica_invalidations",
        numa.map_or(0, |n| n.replica_invalidations),
        "count",
    );
    m.count(
        "kernel.numa.page_migrations",
        numa.map_or(0, |n| n.page_migrations),
        "count",
    );
    m.count(
        "kernel.numa.remote_spills",
        numa.map_or(0, |n| n.remote_spills),
        "count",
    );

    let tlb_accesses: u64 = sum(|c| c.dtlb_accesses);
    let tlb_misses: u64 = sum(|c| c.dtlb_misses);
    m.count("arch.tlb.accesses", tlb_accesses, "count");
    m.count("arch.tlb.misses", tlb_misses, "count");
    m.real(
        "arch.tlb.miss_ratio",
        tlb_misses as f64 / tlb_accesses as f64,
        "ratio",
    );
    m.count("arch.dma.bytes_in", report.dma_bytes.0, "B");
    m.count("arch.dma.bytes_out", report.dma_bytes.1, "B");

    let s = &report.scaling;
    m.real("sim.engine_s", engine_s, "s");
    m.real(
        "sim.engine_ns_per_epoch",
        med(&|o| o.stamps.engine * 1e9 / epochs as f64),
        "ns",
    );
    m.count("sim.epochs", epochs, "count");
    m.count("sim.fast_forwards", s.fast_forwards, "count");
    m.count("sim.committed", s.committed, "count");
    m.count("sim.shardable", s.shardable, "count");
    m.real(
        "sim.shardable_share",
        s.shardable as f64 / s.committed as f64,
        "ratio",
    );
    m.count("sim.releases", s.releases, "count");
    m.real(
        "sim.parallel_rounds",
        med(&|o| o.host.parallel_rounds as f64),
        "count",
    );
    m.real(
        "sim.parallel_round_share",
        med(&|o| o.host.parallel_rounds as f64 / epochs as f64),
        "ratio",
    );
    m.real(
        "sim.barrier_spins",
        med(&|o| o.host.barrier_spins as f64),
        "count",
    );
    m.real(
        "sim.barrier_yields",
        med(&|o| o.host.barrier_yields as f64),
        "count",
    );
    m.real(
        "sim.barrier_sleeps",
        med(&|o| o.host.barrier_sleeps as f64),
        "count",
    );
    let epoch_ns: Vec<u64> = traced.into_iter().flat_map(|t| t.epochs).collect();
    m.distribution("sim.epoch_host_ns", epoch_ns, &P50_P99);
    m.real("sim.outside_fault_s", traced_engine_s - fault_host_s, "s");
    m.count("sim.runtime_cycles", report.runtime_cycles, "cycles");

    m.real("trace.overhead_ratio", traced_engine_s / engine_s, "ratio");
    m
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut tamper = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--tamper" => tamper = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        tamper,
    })
}

/// Counts operations and their failures. An operation fails when it
/// panics or any of its checks does not hold.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(why) = &verdict {
            eprintln!("perfbench: operation {} failed: {why}", self.attempted);
            self.failed += 1;
        }
        verdict.is_ok()
    }

    /// Runs and checks one operation; its output if both succeeded.
    fn run<T>(
        &mut self,
        op: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(op)).ok();
        let verdict = match &out {
            Some(out) => check(out),
            None => Err("operation panicked".into()),
        };
        if self.record(verdict) {
            out
        } else {
            None
        }
    }

    /// Prints the result line: every metric on standard error, then the
    /// JSON object as the last line of standard output.
    fn finish(&self, metrics: &Metrics) {
        for (name, v, unit) in &metrics.0 {
            match v {
                Value::Count(c) => eprintln!("  {name:<36} {c:>16} {unit}"),
                Value::Real(r) => eprintln!("  {name:<36} {r:>16.6} {unit}"),
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0 && !metrics.0.is_empty(),
            self.attempted,
            self.failed,
            metrics.to_json()
        );
    }
}

fn check_digest(got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "report digest {got:#018x}, expected {expected:#018x}"
        ))
    }
}

fn check_stamps(s: &Stamps) -> Result<(), String> {
    if s.consistent() {
        Ok(())
    } else {
        Err("trace build + kernel set-up + engine exceed the operation's wall time".into())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let mut tally = Tally::default();
    let tamper = if args.tamper { TAMPER_MASK } else { 0 };
    let pinned = spec.pinned_digest(args.seed);

    // One untimed 1-thread operation first: it warms the allocator and
    // gives the reference digest where none is pinned (CG at another
    // seed), so multi-thread operations are checked against it.
    let reference = catch_unwind(AssertUnwindSafe(|| untraced_op(spec, args.seed, 1))).ok();
    let verdict = match &reference {
        Some(r) => check_digest(r.digest, pinned.unwrap_or(r.digest) ^ tamper),
        None => Err("the 1-thread reference operation panicked".into()),
    };
    tally.record(verdict);
    let Some(reference) = reference else {
        tally.finish(&Metrics::default());
        return ExitCode::SUCCESS;
    };
    eprintln!(
        "perfbench: {} seed {} reference digest {:#018x}",
        spec.name, args.seed, reference.digest
    );
    let expected = pinned.unwrap_or(reference.digest) ^ tamper;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // Peak RSS once one operation at the workload's thread count has
    // run: what a process simulating the workload needs. Later
    // operations add only allocator retention across repeats (each
    // spawns fresh engine threads, which may take fresh malloc arenas),
    // which a one-run process never sees and which varies with timing.
    let mut peak_rss = None;
    let complete = |untraced: &Vec<Untraced>, traced: &Vec<Traced>| {
        !untraced.is_empty() && (!args.trace || !traced.is_empty())
    };
    // Measure for the requested time, and past it only until every kind
    // of operation has succeeded once (or a few have failed).
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || (!complete(&untraced, &traced) && tally.failed < 3)
    {
        if args.trace && untraced.len() > traced.len() {
            let op = tally.run(
                || traced_op(spec, args.seed, spec.threads),
                |t| {
                    check_digest(t.digest, expected)?;
                    check_stamps(&t.stamps)?;
                    if t.dropped > 0 {
                        return Err(format!("{} trace events dropped", t.dropped));
                    }
                    if !t.validated {
                        return Err("traced breakdown not validated".into());
                    }
                    Ok(())
                },
            );
            traced.extend(op);
        } else {
            let op = tally.run(
                || untraced_op(spec, args.seed, spec.threads),
                |o| {
                    check_digest(o.digest, expected)?;
                    check_stamps(&o.stamps)
                },
            );
            untraced.extend(op);
            if untraced.len() == 1 {
                peak_rss = peak_rss_mib();
            }
        }
    }

    let metrics = if !complete(&untraced, &traced) {
        Metrics::default()
    } else if args.trace {
        per_layer(&reference.report, &untraced, traced)
    } else {
        end_to_end(&untraced, peak_rss.expect("/proc/self/status has VmHWM"))
    };
    tally.finish(&metrics);
    ExitCode::SUCCESS
}
