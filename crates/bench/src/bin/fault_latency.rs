//! Hot-path microbench: single-fault latency and sustained simulated-fault
//! throughput on the CG class-B configuration.
//!
//! Two views of the same path:
//!
//! * **single-fault** — drives `Vmm::handle_fault` directly (plus the
//!   page walks the runner performs around it) on a kernel sized exactly
//!   like the acceptance run (cg.B at 8 cores, PSPT + CMCP, 37 % memory),
//!   isolating the latency of one fault in three regimes: cold major
//!   faults (allocation, no eviction), steady-state evicting faults
//!   (victim selection, unmap, shootdown, remap — the paper's hot loop),
//!   and PSPT minor-copy faults. Faults are read-only so the measurement
//!   captures the table/policy/metadata path, not the DMA cost model.
//! * **sustained** — the full deterministic cg.B run, reporting wall-clock
//!   faults per second (and the virtual runtime, which must be
//!   bit-identical across representation changes).
//!
//! The steady-state single-fault throughput is the number the
//! `perf-regression` CI job gates on against `results/BENCH_hotpath.json`
//! (>25 % regression fails with exit status 3; see `--compare`).
//! `--compare` also requires the sustained run's virtual runtime and
//! fault count to equal the baseline's exactly (exit status 1 if not):
//! they are deterministic, so any difference means the simulated
//! behaviour moved or the baseline is stale.
//!
//! Usage:
//!   fault_latency [--quick] [--skip-sustained] [--save]
//!                 [--compare <baseline.json>] [--out <fresh.json>]

use std::time::Instant;

use serde::Serialize;

use cmcp::{PageSize, PolicyKind, SchemeChoice, Workload, WorkloadClass};
use cmcp_arch::{CoreId, VirtPage};
use cmcp_bench::{best_p, run_config, tuned_constraint};
use cmcp_kernel::{KernelConfig, Vmm};

/// Regression threshold for `--compare`: fresh throughput below
/// (1 - 0.25) x baseline fails the gate.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// `--compare` exit status when throughput is the only failure; any other
/// failure exits 1.
const EXIT_THROUGHPUT_ONLY: i32 = 3;

#[derive(Serialize)]
struct ConfigDesc {
    workload: String,
    cores: usize,
    scheme: String,
    policy: String,
    memory_ratio: f64,
    block_size: String,
    device_blocks: usize,
}

#[derive(Serialize)]
struct SingleFault {
    /// Mean ns per cold major fault (allocation, no eviction).
    cold_major_ns: f64,
    /// Mean ns per steady-state fault (every fault evicts a victim).
    steady_evict_ns: f64,
    /// Mean ns per PSPT minor-copy fault (sibling PTE copy).
    minor_copy_ns: f64,
    /// Gate metric: steady-state faults per wall-clock second.
    throughput_per_sec: f64,
}

#[derive(Serialize)]
struct Sustained {
    wall_ms: f64,
    page_faults: u64,
    faults_per_sec: f64,
    /// Virtual runtime — representation changes must not move this.
    runtime_cycles: u64,
}

#[derive(Serialize)]
struct HotpathResults {
    config: ConfigDesc,
    single_fault: SingleFault,
    sustained: Option<Sustained>,
}

struct Args {
    quick: bool,
    skip_sustained: bool,
    save: bool,
    compare: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        skip_sustained: false,
        save: false,
        compare: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--skip-sustained" => args.skip_sustained = true,
            "--save" => args.save = true,
            "--compare" => args.compare = it.next(),
            "--out" => args.out = it.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.compare.is_some() && args.skip_sustained {
        eprintln!(
            "--compare checks the sustained run; it cannot be combined with --skip-sustained"
        );
        std::process::exit(2);
    }
    args
}

/// The acceptance configuration: cg.B at 8 cores, PSPT + CMCP at its
/// tuned `p`, memory constrained to the tuned 37 % of the footprint.
fn bench_kernel() -> (Vmm, usize) {
    let w = Workload::Cg(WorkloadClass::B);
    let trace = w.trace(8);
    let ratio = tuned_constraint(w);
    let footprint = trace.declared_blocks(PageSize::K4);
    let device_blocks = ((footprint as f64 * ratio).ceil() as usize).max(1);
    let cfg = KernelConfig {
        cores: 8,
        block_size: PageSize::K4,
        device_blocks,
        scheme: cmcp_kernel::SchemeChoice::Pspt,
        policy: PolicyKind::Cmcp { p: best_p(w) },
        cost: Default::default(),
        scan_budget: 0,
        pspt_rebuild_period: 0,
        fault_plan: None,
        adaptive: false,
    };
    (Vmm::new(cfg), device_blocks)
}

/// One fault as the runner performs it on a TLB miss: a marking walk
/// that finds no translation, the fault handler, then the marking walk
/// that finds the fresh mapping.
#[inline]
fn miss_path(vmm: &Vmm, core: CoreId, page: VirtPage) {
    if vmm.mark_accessed(core, page, false).is_none() {
        vmm.handle_fault(core, page, false);
        vmm.mark_accessed(core, page, false);
    }
}

/// Times `faults` iterations of `f(i)` and returns mean ns per call.
fn time_loop(faults: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..faults {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / faults as f64
}

fn measure_single_fault(quick: bool) -> (SingleFault, ConfigDesc) {
    let reps = if quick { 1 } else { 3 };
    let (mut cold_best, mut steady_best, mut minor_best) = (f64::MAX, f64::MAX, f64::MAX);
    let mut device_blocks = 0;
    let mut inval = Vec::new();
    for _ in 0..reps {
        let (vmm, blocks) = bench_kernel();
        device_blocks = blocks;
        let cold_n = (blocks as u64).saturating_sub(8).max(1);
        let steady_n = if quick {
            cold_n.min(20_000)
        } else {
            cold_n * 4
        };
        let minor_n = cold_n.min(if quick { 2_000 } else { 50_000 });

        // Cold major faults: fresh pages while the pool still has frames.
        let cold = time_loop(cold_n, |i| {
            vmm.drain_invalidations(CoreId(0), &mut inval);
            inval.clear();
            miss_path(&vmm, CoreId(0), VirtPage(i));
        });
        // Steady state: every further fresh fault must evict a victim.
        let steady = time_loop(steady_n, |i| {
            vmm.drain_invalidations(CoreId(0), &mut inval);
            inval.clear();
            miss_path(&vmm, CoreId(0), VirtPage(cold_n + i));
        });
        // Minor copies on a fresh, never-evicting kernel: core 0 faults
        // the blocks in (untimed), then core 1 copies every PTE.
        let (vmm2, _) = bench_kernel();
        for i in 0..minor_n {
            miss_path(&vmm2, CoreId(0), VirtPage(i));
        }
        let minor = time_loop(minor_n, |i| {
            vmm2.drain_invalidations(CoreId(1), &mut inval);
            inval.clear();
            miss_path(&vmm2, CoreId(1), VirtPage(i));
        });
        cold_best = cold_best.min(cold);
        steady_best = steady_best.min(steady);
        minor_best = minor_best.min(minor);
    }
    let sf = SingleFault {
        cold_major_ns: cold_best,
        steady_evict_ns: steady_best,
        minor_copy_ns: minor_best,
        throughput_per_sec: 1e9 / steady_best,
    };
    let w = Workload::Cg(WorkloadClass::B);
    let desc = ConfigDesc {
        workload: w.label().to_string(),
        cores: 8,
        scheme: "PSPT".to_string(),
        policy: format!("CMCP p={}", best_p(w)),
        memory_ratio: tuned_constraint(w),
        block_size: "4k".to_string(),
        device_blocks,
    };
    (sf, desc)
}

fn measure_sustained() -> Sustained {
    let w = Workload::Cg(WorkloadClass::B);
    let trace = w.trace(8);
    let t0 = Instant::now();
    let report = run_config(
        &trace,
        SchemeChoice::Pspt,
        PolicyKind::Cmcp { p: best_p(w) },
        tuned_constraint(w),
        PageSize::K4,
    );
    let wall = t0.elapsed();
    let faults: u64 = report.per_core.iter().map(|c| c.page_faults).sum();
    Sustained {
        wall_ms: wall.as_secs_f64() * 1e3,
        page_faults: faults,
        faults_per_sec: faults as f64 / wall.as_secs_f64(),
        runtime_cycles: report.runtime_cycles,
    }
}

/// Checks `fresh` against the baseline. `Err` is a broken baseline or a
/// moved deterministic result (never waived); `Ok(Some(_))` is a
/// throughput regression alone, the one failure the CI `perf-override`
/// label may downgrade to advisory.
fn compare_against(baseline_path: &str, fresh: &HotpathResults) -> Result<Option<String>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {baseline_path}: {e:?}"))?;

    let sustained = fresh
        .sustained
        .as_ref()
        .expect("--compare always measures the sustained run");
    let mut moved = Vec::new();
    for (field, got) in [
        ("runtime_cycles", sustained.runtime_cycles),
        ("page_faults", sustained.page_faults),
    ] {
        let base = v
            .get("sustained")
            .and_then(|s| s.get(field))
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("{baseline_path} lacks sustained.{field}"))?;
        if got != base {
            moved.push(format!("sustained.{field} is {got}, baseline has {base}"));
        }
    }
    if !moved.is_empty() {
        return Err(format!(
            "the simulated result moved: {} (recommit the baseline if the change is intended)",
            moved.join("; ")
        ));
    }
    println!(
        "determinism gate: sustained run matches the baseline ({} cycles, {} faults)",
        sustained.runtime_cycles, sustained.page_faults
    );

    let base = v
        .get("single_fault")
        .and_then(|s| s.get("throughput_per_sec"))
        .and_then(|t| t.as_f64())
        .ok_or_else(|| format!("{baseline_path} lacks single_fault.throughput_per_sec"))?;
    let got = fresh.single_fault.throughput_per_sec;
    let floor = base * (1.0 - REGRESSION_TOLERANCE);
    println!(
        "perf gate: baseline {:.0} faults/s, fresh {:.0} faults/s, floor {:.0} ({}%)",
        base,
        got,
        floor,
        (1.0 - REGRESSION_TOLERANCE) * 100.0
    );
    Ok((got < floor).then(|| {
        format!(
            "throughput regression: {got:.0} faults/s is more than {:.0}% below baseline {base:.0}",
            REGRESSION_TOLERANCE * 100.0
        )
    }))
}

fn main() {
    let args = parse_args();
    println!("# fault_latency — hot-path microbench (cg.B, 8 cores, PSPT + CMCP)\n");

    let (single_fault, config) = measure_single_fault(args.quick);
    println!(
        "single fault: cold major {:.0} ns, steady evicting {:.0} ns, minor copy {:.0} ns",
        single_fault.cold_major_ns, single_fault.steady_evict_ns, single_fault.minor_copy_ns
    );
    println!(
        "single-fault throughput (steady state): {:.0} faults/s",
        single_fault.throughput_per_sec
    );

    let sustained = if args.skip_sustained || (args.quick && args.compare.is_none()) {
        None
    } else {
        let s = measure_sustained();
        println!(
            "sustained cg.B run: {:.0} ms wall, {} faults, {:.0} faults/s, {} virtual cycles",
            s.wall_ms, s.page_faults, s.faults_per_sec, s.runtime_cycles
        );
        Some(s)
    };

    let results = HotpathResults {
        config,
        single_fault,
        sustained,
    };

    if let Some(path) = &args.out {
        match serde_json::to_string_pretty(&results) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("warning: cannot write {path}: {e}");
                } else {
                    eprintln!("(fresh numbers written to {path})");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize results: {e:?}"),
        }
    }
    if args.save {
        cmcp_bench::save_results("BENCH_hotpath", &results);
    }
    if let Some(baseline) = &args.compare {
        match compare_against(baseline, &results) {
            Err(msg) => {
                eprintln!("FAIL: {msg}");
                std::process::exit(1);
            }
            Ok(Some(regression)) => {
                eprintln!("FAIL: {regression}");
                eprintln!(
                    "(an intentional regression can be merged with the `perf-override` label)"
                );
                std::process::exit(EXIT_THROUGHPUT_ONLY);
            }
            Ok(None) => println!("perf gate: OK"),
        }
    }
}
