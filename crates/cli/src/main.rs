//! `cmcp-cli` — command-line front end for the simulator.
//!
//! ```text
//! cmcp-cli --workload cg.B --cores 56 --policy cmcp:0.75 --memory 0.37
//! cmcp-cli --workload scale.sml --policy lru --scheme regular --page-size 64k --json
//! cmcp-cli trace --workload cg.B --cores 8 --chrome cg.chrome.json
//! cmcp-cli --list
//! ```

use std::process::ExitCode;

use cmcp::{
    CostModel, FaultPlan, NumaConfig, PageSize, PolicyKind, SchemeChoice, SimulationBuilder,
    TierConfig, Workload, WorkloadClass,
};

const USAGE: &str = "\
cmcp-cli — many-core hierarchical memory management simulator (HPDC'14 CMCP)

USAGE:
    cmcp-cli [OPTIONS]
    cmcp-cli trace [OPTIONS]     traced run: records the virtual-time
                                 fault-path event stream, validates the
                                 cycle decomposition against the kernel
                                 counters, and writes the events out

TRACE OPTIONS:
    --out <PATH>         JSONL event stream (default: trace.jsonl)
    --chrome <PATH>      also write a chrome://tracing / Perfetto file
    --capacity <N>       per-core event-ring capacity (default: 65536);
                         overflow drops oldest events and disables
                         validation

OPTIONS:
    --workload <NAME>    cg.B cg.C lu.B lu.C bt.B bt.C scale.sml scale.big
                         (default: cg.B)
    --cores <N>          application cores, 1..=256 (default: 16)
    --policy <P>         fifo | lru | clock | lfu | random | adaptive |
                         cmcp[:RATIO]        (default: cmcp:0.75)
    --scheme <S>         pspt | regular      (default: pspt)
    --page-size <SZ>     4k | 64k | 2m | adaptive  (default: 4k);
                         `adaptive` maps fresh 2 MB regions at the
                         granularity current memory pressure suggests
                         and splits oversized eviction victims in place
    --memory <RATIO>     device RAM as a fraction of the declared
                         footprint (default: the workload's paper
                         constraint)
    --tiers <SPEC>       backing-store hierarchy, fastest tier first:
                         name:capacity@latency/bandwidth pairs joined
                         by `;` (capacity in 4 kB pages, 0 = unbounded
                         last tier; latency in cycles; bandwidth in
                         bytes/kcycle), or a preset: flat | 2tier |
                         4tier        (default: flat)
    --numa <SPEC>        NUMA topology: name:capacity@latency/bandwidth
                         nodes joined by `;` (capacity in 4 kB pages —
                         node DRAM budgets, scaled to the device size;
                         latency in cycles per link crossing; bandwidth
                         in bytes/kcycle for migrations), or a preset:
                         1node | 2node | 4node    (default: 1node, the
                         single zero-cost node — byte-identical to the
                         pre-NUMA simulator). Multi-node runs replicate
                         page tables per node and report the
                         replica-coherence traffic
    --numa-no-replication
                         disable page-table replication: every minor
                         fault from a non-home node walks the home
                         node's master table remotely instead
    --threads <N|auto>   host worker threads, >= 1 (default: 1), or
                         `auto` to use every available host CPU; the
                         report is byte-identical at every count — more
                         threads only change wall-clock time
    --counters <PATH>    write the scaling counters as JSON: the
                         deterministic phase-B decomposition (epochs,
                         shardable vs reconciled entries, fast-forwards)
                         plus host-side barrier-wait counters
    --rebuild <MS>       periodic PSPT rebuild every MS virtual ms
    --fault-plan <SPEC>  seeded fault injection on the PCIe/backing path,
                         e.g. \"seed=42,dma=0.01,enospc=0.005\"; rules:
                         dma=R (transfer errors), spike=R[xM] (latency
                         spikes, xM multiplier), ikc=R (message drops),
                         enospc=R (backing-store write failures),
                         offload-death=N (engine dies after N calls)
    --json               emit the full report as JSON
    --list               list workloads and exit
    --help               this text
";

struct Args {
    workload: Workload,
    cores: usize,
    policy: PolicyKind,
    scheme: SchemeChoice,
    page_size: PageSize,
    adaptive: bool,
    tiers: TierConfig,
    numa: NumaConfig,
    numa_replication: bool,
    memory: Option<f64>,
    threads: usize,
    rebuild_ms: u64,
    fault_plan: Option<FaultPlan>,
    counters_out: Option<String>,
    json: bool,
    trace: bool,
    trace_out: String,
    chrome_out: Option<String>,
    trace_capacity: Option<usize>,
}

fn parse_workload(s: &str) -> Result<Workload, String> {
    match s.to_ascii_lowercase().as_str() {
        "cg.b" => Ok(Workload::Cg(WorkloadClass::B)),
        "cg.c" => Ok(Workload::Cg(WorkloadClass::C)),
        "lu.b" => Ok(Workload::Lu(WorkloadClass::B)),
        "lu.c" => Ok(Workload::Lu(WorkloadClass::C)),
        "bt.b" => Ok(Workload::Bt(WorkloadClass::B)),
        "bt.c" => Ok(Workload::Bt(WorkloadClass::C)),
        "scale.sml" | "scale.b" => Ok(Workload::Scale(WorkloadClass::B)),
        "scale.big" | "scale.c" => Ok(Workload::Scale(WorkloadClass::C)),
        _ => Err(format!("unknown workload '{s}' (try --list)")),
    }
}

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    let lower = s.to_ascii_lowercase();
    if let Some(ratio) = lower.strip_prefix("cmcp:") {
        let p: f64 = ratio
            .parse()
            .map_err(|_| format!("bad CMCP ratio '{ratio}'"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("CMCP ratio {p} outside [0, 1]"));
        }
        return Ok(PolicyKind::Cmcp { p });
    }
    match lower.as_str() {
        "fifo" => Ok(PolicyKind::Fifo),
        "lru" => Ok(PolicyKind::Lru),
        "clock" => Ok(PolicyKind::Clock),
        "lfu" => Ok(PolicyKind::Lfu),
        "random" => Ok(PolicyKind::Random),
        "adaptive" => Ok(PolicyKind::AdaptiveCmcp),
        "cmcp" => Ok(PolicyKind::Cmcp { p: 0.75 }),
        _ => Err(format!("unknown policy '{s}'")),
    }
}

fn parse_page_size(s: &str) -> Result<PageSize, String> {
    match s.to_ascii_lowercase().as_str() {
        "4k" | "4kb" => Ok(PageSize::K4),
        "64k" | "64kb" => Ok(PageSize::K64),
        "2m" | "2mb" => Ok(PageSize::M2),
        _ => Err(format!(
            "unknown page size '{s}' (4k | 64k | 2m | adaptive)"
        )),
    }
}

/// A device-RAM ratio: finite and positive. `NaN` fails every
/// comparison, so the check is written to reject it.
fn parse_memory(s: &str) -> Result<f64, String> {
    let m: f64 = s.parse().map_err(|_| format!("bad memory ratio '{s}'"))?;
    if !(m.is_finite() && m > 0.0) {
        return Err(format!(
            "memory ratio must be finite and positive, got '{s}'"
        ));
    }
    Ok(m)
}

/// Returns the internal thread-count sentinel: `0` means auto-detect.
/// A literal `0` is still rejected loudly — "use every CPU" is spelled
/// `auto`, not `0`.
fn parse_threads(s: &str) -> Result<usize, String> {
    if s.eq_ignore_ascii_case("auto") {
        return Ok(0);
    }
    let n: usize = s.parse().map_err(|_| format!("bad thread count '{s}'"))?;
    if n == 0 {
        return Err(
            "--threads 0 is rejected: the unified engine needs at least one worker \
             (results are byte-identical at every count, so 1 is always safe; \
             use --threads auto for one worker per host CPU)"
                .into(),
        );
    }
    Ok(n)
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: Workload::Cg(WorkloadClass::B),
        cores: 16,
        policy: PolicyKind::Cmcp { p: 0.75 },
        scheme: SchemeChoice::Pspt,
        page_size: PageSize::K4,
        adaptive: false,
        tiers: TierConfig::flat(),
        numa: NumaConfig::single(),
        numa_replication: true,
        memory: None,
        threads: 1,
        rebuild_ms: 0,
        fault_plan: None,
        counters_out: None,
        json: false,
        trace: false,
        trace_out: "trace.jsonl".to_string(),
        chrome_out: None,
        trace_capacity: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("trace") {
        args.trace = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list" => {
                for class in [WorkloadClass::B, WorkloadClass::C] {
                    for w in Workload::all(class) {
                        let t = w.trace(2);
                        println!(
                            "{:12} footprint {:>7} pages, declared {:>7} pages, paper constraint {:.0}%",
                            w.label(),
                            t.footprint_pages(),
                            t.declared_blocks(PageSize::K4),
                            w.paper_constraint() * 100.0
                        );
                    }
                }
                return Ok(None);
            }
            "--workload" => args.workload = parse_workload(&value("--workload")?)?,
            "--cores" => {
                args.cores = value("--cores")?
                    .parse()
                    .map_err(|_| "bad core count".to_string())?;
                if args.cores == 0 || args.cores > 256 {
                    return Err("cores must be 1..=256".into());
                }
            }
            "--policy" => args.policy = parse_policy(&value("--policy")?)?,
            "--scheme" => {
                args.scheme = match value("--scheme")?.to_ascii_lowercase().as_str() {
                    "pspt" => SchemeChoice::Pspt,
                    "regular" => SchemeChoice::Regular,
                    other => return Err(format!("unknown scheme '{other}'")),
                }
            }
            "--page-size" => {
                let v = value("--page-size")?;
                if v.eq_ignore_ascii_case("adaptive") {
                    args.adaptive = true;
                    args.page_size = PageSize::M2;
                } else {
                    args.adaptive = false;
                    args.page_size = parse_page_size(&v)?;
                }
            }
            "--tiers" => args.tiers = TierConfig::parse(&value("--tiers")?)?,
            "--numa" => args.numa = NumaConfig::parse(&value("--numa")?)?,
            "--numa-no-replication" => args.numa_replication = false,
            "--memory" => args.memory = Some(parse_memory(&value("--memory")?)?),
            "--threads" => args.threads = parse_threads(&value("--threads")?)?,
            "--parallel" => {
                return Err(
                    "--parallel was replaced by --threads N: the engines are unified and \
                     every thread count gives the byte-identical report"
                        .into(),
                )
            }
            "--rebuild" => {
                args.rebuild_ms = value("--rebuild")?
                    .parse()
                    .map_err(|_| "bad rebuild period".to_string())?;
            }
            "--fault-plan" => {
                args.fault_plan = Some(FaultPlan::parse(&value("--fault-plan")?)?);
            }
            "--counters" => args.counters_out = Some(value("--counters")?),
            "--json" => args.json = true,
            "--out" if args.trace => args.trace_out = value("--out")?,
            "--chrome" if args.trace => args.chrome_out = Some(value("--chrome")?),
            "--capacity" if args.trace => {
                let n: usize = value("--capacity")?
                    .parse()
                    .map_err(|_| "bad ring capacity".to_string())?;
                if n == 0 {
                    return Err("ring capacity must be positive".into());
                }
                args.trace_capacity = Some(n);
            }
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
    }
    // Config-time validation, so a bad combination dies with a clean
    // CLI error instead of a kernel panic: the topology's fastest link
    // must not undercut the engine's IPI-derived epoch window, and
    // adaptive page sizes are not supported on multi-node topologies.
    let cost = CostModel::default();
    args.numa.check_window(cost.ipi_send + cost.ipi_handle)?;
    if args.adaptive && !args.numa.is_single() {
        return Err(
            "--page-size adaptive is not supported with a multi-node --numa topology".into(),
        );
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let memory = args
        .memory
        .unwrap_or_else(|| args.workload.paper_constraint());
    let mut builder = SimulationBuilder::workload(args.workload)
        .cores(args.cores)
        .scheme(args.scheme)
        .policy(args.policy)
        .page_size(args.page_size)
        .tiers(args.tiers)
        .numa(args.numa)
        .numa_replication(args.numa_replication)
        .memory_ratio(memory)
        .threads(args.threads)
        .pspt_rebuild_period(args.rebuild_ms * 1_053_000);
    if args.adaptive {
        builder = builder.adaptive_page_size();
    }
    let faulted = args.fault_plan.is_some();
    if let Some(plan) = args.fault_plan {
        builder = builder.fault_plan(plan);
    }

    let resolved_threads = cmcp::sim::resolve_threads(args.threads);
    let mut host_stats = None;
    let report = if args.trace {
        let builder = match args.trace_capacity {
            Some(n) => builder.trace_capacity(n),
            None => builder,
        };
        let traced = builder.run_traced();
        if let Err(e) = std::fs::write(&args.trace_out, cmcp::trace::to_jsonl(&traced.events)) {
            eprintln!("error: cannot write {}: {e}", args.trace_out);
            return ExitCode::FAILURE;
        }
        if let Some(path) = &args.chrome_out {
            if let Err(e) = std::fs::write(path, cmcp::trace::to_chrome_trace(&traced.events)) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !args.json {
            println!(
                "trace: {} events -> {}{}",
                traced.events.len(),
                args.trace_out,
                match &args.chrome_out {
                    Some(p) => format!(" (+ chrome trace {p})"),
                    None => String::new(),
                }
            );
            if traced.dropped > 0 {
                println!(
                    "  WARNING: {} events dropped (ring wrapped); raise --capacity",
                    traced.dropped
                );
            }
        }
        traced.report
    } else {
        let (report, host) = builder.run_with_host_stats();
        host_stats = Some(host);
        report
    };

    if let Some(path) = &args.counters_out {
        let s = &report.scaling;
        let scaling = serde_json::json!({
            "epochs": s.epochs,
            "fast_forwards": s.fast_forwards,
            "committed": s.committed,
            "shardable": s.shardable,
            "reconciled": s.reconciled,
            "releases": s.releases,
        });
        let mut counters = serde_json::json!({
            "threads": resolved_threads,
            "scaling": scaling,
        });
        // Host-side counters exist for plain runs only (traced runs go
        // through the event-recording dispatch, which has no host-stats
        // channel); they are machine-dependent by design.
        if let Some(h) = &host_stats {
            if let serde_json::Value::Object(entries) = &mut counters {
                entries.push((
                    "host".to_string(),
                    serde_json::json!({
                        "barrier_spins": h.barrier_spins,
                        "barrier_yields": h.barrier_yields,
                        "barrier_sleeps": h.barrier_sleeps,
                    }),
                ));
            }
        }
        let body = serde_json::to_string_pretty(&counters).expect("serializable counters");
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if args.json {
        let mut value = serde_json::json!({
            "workload": report.label,
            "config": report.config,
            "runtime_cycles": report.runtime_cycles,
            "runtime_ms": report.runtime_secs * 1e3,
            "per_core": report.per_core,
            "global": report.global,
            "dma_bytes_in": report.dma_bytes.0,
            "dma_bytes_out": report.dma_bytes.1,
            "sharing_histogram": report.sharing_histogram,
            "breakdown": report.breakdown,
        });
        // Appended only for tiered hierarchies so flat-run JSON (and the
        // committed goldens) keeps its exact pre-tier shape.
        if let Some(t) = &report.tiers {
            let rows: Vec<serde_json::Value> = t
                .names
                .iter()
                .zip(t.counters.iter())
                .map(|(name, c)| {
                    serde_json::json!({
                        "name": name,
                        "used_pages": c.used_pages,
                        "spans": c.spans,
                        "stores": c.stores,
                        "loads": c.loads,
                        "demoted_in": c.demoted_in,
                        "promoted_in": c.promoted_in,
                    })
                })
                .collect();
            if let serde_json::Value::Object(entries) = &mut value {
                entries.push(("tiers".to_string(), serde_json::json!(rows)));
            }
        }
        // Appended only for multi-node topologies, for the same reason:
        // single-node JSON (and the committed goldens) keeps its exact
        // pre-NUMA shape.
        if let Some(n) = &report.numa {
            let nodes: Vec<serde_json::Value> = n
                .nodes
                .iter()
                .zip(n.capacity_blocks.iter().zip(n.used_blocks.iter()))
                .map(|(name, (cap, used))| {
                    serde_json::json!({
                        "name": name,
                        "capacity_blocks": cap,
                        "used_blocks": used,
                    })
                })
                .collect();
            if let serde_json::Value::Object(entries) = &mut value {
                entries.push((
                    "numa".to_string(),
                    serde_json::json!({
                        "replicate": n.replicate,
                        "nodes": nodes,
                        "replica_syncs": n.replica_syncs,
                        "replica_invalidations": n.replica_invalidations,
                        "page_migrations": n.page_migrations,
                        "remote_spills": n.remote_spills,
                        "replica_sync_cycles": n.replica_sync_cycles,
                        "migration_cycles": n.migration_cycles,
                    }),
                ));
            }
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&value).expect("serializable report")
        );
    } else {
        println!("{} | {}", report.label, report.config);
        println!("  memory ratio        {memory:.2}");
        println!(
            "  engine threads      {resolved_threads}{}",
            if args.threads == 0 { " (auto)" } else { "" }
        );
        println!(
            "  runtime             {:.3} ms ({} cycles)",
            report.runtime_secs * 1e3,
            report.runtime_cycles
        );
        println!("  page faults/core    {:.0}", report.avg_page_faults());
        println!(
            "  remote TLB inv/core {:.0}",
            report.avg_remote_invalidations()
        );
        println!("  dTLB misses/core    {:.0}", report.avg_dtlb_misses());
        println!(
            "  evictions {} (write-backs {}), refaults {}, scan ticks {}, rebuilds {}",
            report.global.evictions,
            report.global.writebacks,
            report.global.refaults,
            report.global.scan_ticks,
            report.global.rebuilds
        );
        println!(
            "  DMA: {:.1} MB in, {:.1} MB out",
            report.dma_bytes.0 as f64 / 1e6,
            report.dma_bytes.1 as f64 / 1e6
        );
        if let Some(t) = &report.tiers {
            println!(
                "  tiers: {} demotions, {} promotions",
                report.global.tier_demotions, report.global.tier_promotions
            );
            for (name, c) in t.names.iter().zip(t.counters.iter()) {
                println!(
                    "    {:>6}: {:>8} pages resident, {} stores, {} loads, {} demoted in, {} promoted in",
                    name, c.used_pages, c.stores, c.loads, c.demoted_in, c.promoted_in
                );
            }
        }
        if let Some(n) = &report.numa {
            println!(
                "  numa ({} nodes, replication {}): {} replica syncs, {} invalidations, {} migrations, {} remote spills",
                n.nodes.len(),
                if n.replicate { "on" } else { "off" },
                n.replica_syncs,
                n.replica_invalidations,
                n.page_migrations,
                n.remote_spills
            );
            for (name, (cap, used)) in n
                .nodes
                .iter()
                .zip(n.capacity_blocks.iter().zip(n.used_blocks.iter()))
            {
                println!("    {name:>6}: {used:>8} / {cap} blocks resident");
            }
        }
        if report.global.block_splits > 0 {
            println!(
                "  adaptive page sizes: {} block splits",
                report.global.block_splits
            );
        }
        if faulted {
            let g = &report.global;
            println!(
                "  faults injected: dma errors {}, latency spikes {}, ikc drops {}, enospc {}",
                g.dma_errors, g.latency_spikes, g.ikc_drops, g.enospc_events
            );
            println!(
                "  recovery: retries {}, backoff cycles {}, sync write-backs {}, sync syscalls {}, quarantined frames {}",
                report.per_core.iter().map(|c| c.fault_retries).sum::<u64>(),
                report
                    .per_core
                    .iter()
                    .map(|c| c.retry_backoff_cycles)
                    .sum::<u64>(),
                g.sync_writebacks,
                g.sync_syscalls,
                g.quarantined_frames
            );
        }
        if let Some(b) = &report.breakdown {
            println!(
                "  fault-path breakdown ({}):",
                if b.validated {
                    "validated against kernel counters"
                } else {
                    "UNVALIDATED: events dropped"
                }
            );
            println!(
                "  {:>4} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "core", "faults", "fault cyc", "lock", "shootdown", "dma", "scan", "other"
            );
            for c in &b.per_core {
                println!(
                    "  {:>4} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    c.core,
                    c.faults,
                    c.fault_cycles,
                    c.lock_wait_cycles,
                    c.shootdown_cycles,
                    c.dma_wait_cycles,
                    c.policy_scan_cycles,
                    c.other_cycles
                );
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_parse() {
        assert!(matches!(
            parse_workload("cg.B"),
            Ok(Workload::Cg(WorkloadClass::B))
        ));
        assert!(matches!(
            parse_workload("SCALE.BIG"),
            Ok(Workload::Scale(WorkloadClass::C))
        ));
        assert!(matches!(
            parse_workload("scale.sml"),
            Ok(Workload::Scale(WorkloadClass::B))
        ));
        assert!(parse_workload("ft.B").is_err());
    }

    #[test]
    fn policy_names_parse() {
        assert!(matches!(parse_policy("fifo"), Ok(PolicyKind::Fifo)));
        assert!(matches!(parse_policy("CMCP"), Ok(PolicyKind::Cmcp { .. })));
        match parse_policy("cmcp:0.25") {
            Ok(PolicyKind::Cmcp { p }) => assert!((p - 0.25).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_policy("cmcp:1.5").is_err());
        assert!(parse_policy("mru").is_err());
    }

    #[test]
    fn thread_counts_parse_and_zero_is_rejected_loudly() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("8"), Ok(8));
        let err = parse_threads("0").expect_err("zero must be rejected");
        assert!(err.contains("at least one worker"), "{err}");
        assert!(parse_threads("many").is_err());
    }

    #[test]
    fn threads_auto_maps_to_the_detect_sentinel() {
        assert_eq!(parse_threads("auto"), Ok(0));
        assert_eq!(parse_threads("AUTO"), Ok(0));
    }

    #[test]
    fn memory_ratios_must_be_finite_and_positive() {
        assert_eq!(parse_memory("0.37"), Ok(0.37));
        assert_eq!(parse_memory("2"), Ok(2.0));
        for bad in ["nan", "NaN", "inf", "-inf", "0", "-0.5"] {
            let err = parse_memory(bad).expect_err(bad);
            assert!(err.contains("finite and positive"), "{bad}: {err}");
        }
        assert!(parse_memory("lots").is_err());
    }

    #[test]
    fn page_sizes_parse() {
        assert!(matches!(parse_page_size("4k"), Ok(PageSize::K4)));
        assert!(matches!(parse_page_size("64KB"), Ok(PageSize::K64)));
        assert!(matches!(parse_page_size("2m"), Ok(PageSize::M2)));
        assert!(parse_page_size("1g").is_err());
    }
}
