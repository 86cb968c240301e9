//! The BT workload: NPB's block-tridiagonal solver, scaled.
//!
//! Each BT iteration factors and solves tridiagonal systems along lines
//! in x, then y, then z. The OpenMP version parallelizes each phase over
//! an outer dimension, and crucially the *effective domain partition
//! differs between phases*: x- and y-lines parallelize naturally over
//! z-slabs, while z-lines parallelize over y-slabs. A page therefore has
//! an owner under each partition, and pages near partition boundaries
//! pick up further sharers — giving BT the broadest (1–6+ core) sharing
//! histogram of the NPB trio (paper Figure 6c).
//!
//! The line solver being traced is [`crate::grid::solve_tridiagonal`]
//! (Thomas algorithm), verified exact in its tests. NPB uses 5×5 blocks
//! per cell; the scalar scaled version preserves the memory pattern while
//! shrinking the constant work per cell.

use cmcp_sim::Trace;

use crate::grid::Grid3;
use crate::layout::AddressSpace;
use crate::logger::TraceLogger;

/// BT workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct BtConfig {
    /// Grid extents.
    pub grid: Grid3,
    /// Outer iterations traced.
    pub iterations: usize,
}

impl BtConfig {
    /// Scaled stand-in for NPB class B.
    pub fn class_b() -> BtConfig {
        BtConfig {
            grid: Grid3 {
                nx: 64,
                ny: 64,
                nz: 64,
            },
            iterations: 3,
        }
    }

    /// Scaled stand-in for NPB class C.
    pub fn class_c() -> BtConfig {
        BtConfig {
            grid: Grid3 {
                nx: 96,
                ny: 96,
                nz: 96,
            },
            iterations: 2,
        }
    }
}

/// Generates the BT trace for `cores` cores.
pub fn bt_trace(cores: usize, cfg: &BtConfig) -> Trace {
    let g = cfg.grid;
    let cells = g.cells() as u64;
    let mut space = AddressSpace::new();
    // NPB stores 5 solution components per cell (u[5][k][j][i]):
    // 40-byte cells, so an x-row of 64 cells spans ~2.5 kB — the page
    // geometry behind the paper's Figure 6 sharing histograms.
    let u = space.alloc("u", cells, 40);
    let rhs = space.alloc("rhs", cells, 40);

    let mut log = TraceLogger::new(cores, "bt");
    let row = |j: usize, k: usize| g.idx(0, j, k) as u64;

    // Initialization over z-slabs.
    for c in 0..cores {
        let (klo, khi) = Grid3::partition(g.nz, cores, c);
        if klo < khi {
            let core = log.core(c);
            core.range(
                &u,
                row(0, klo),
                row(g.ny - 1, khi - 1) + g.nx as u64,
                true,
                1,
            );
            core.range(
                &rhs,
                row(0, klo),
                row(g.ny - 1, khi - 1) + g.nx as u64,
                true,
                1,
            );
        }
    }
    log.barrier_all();

    // Every iteration logs the same ops between the same barriers: log
    // the first, and replay it for the others.
    log.looped(cfg.iterations, |log| {
        // --- x-solve: lines along x; parallel over z-slabs. ---
        for c in 0..cores {
            let (klo, khi) = Grid3::partition(g.nz, cores, c);
            let core = log.core(c);
            for k in klo..khi {
                for j in 0..g.ny {
                    // Forward + back-substitution over the x-line: one
                    // read-modify-write pass over rhs, reads of u. NPB
                    // BT factors/solves 5×5 blocks (~250 flops/cell);
                    // the work charges reflect that.
                    core.range(&u, row(j, k), row(j, k) + g.nx as u64, false, 130);
                    core.range(&rhs, row(j, k), row(j, k) + g.nx as u64, true, 130);
                }
            }
        }
        log.barrier_all();
        // --- y-solve: lines along y; still over z-slabs. ---
        for c in 0..cores {
            let (klo, khi) = Grid3::partition(g.nz, cores, c);
            let core = log.core(c);
            for k in klo..khi {
                // A y-line visits every j for fixed (i, k); sweeping j
                // touches the same row pages as sweeping rows in order.
                for j in 0..g.ny {
                    core.range(&u, row(j, k), row(j, k) + g.nx as u64, false, 130);
                    core.range(&rhs, row(j, k), row(j, k) + g.nx as u64, true, 130);
                }
            }
        }
        log.barrier_all();
        // --- z-solve: lines along z; parallel over *y*-slabs. ---
        for c in 0..cores {
            let (jlo, jhi) = Grid3::partition(g.ny, cores, c);
            let core = log.core(c);
            // Forward elimination: march k upward touching this core's
            // j-rows in every z-plane (large strides between planes).
            for k in 0..g.nz {
                for j in jlo..jhi {
                    core.range(&u, row(j, k), row(j, k) + g.nx as u64, false, 130);
                    core.range(&rhs, row(j, k), row(j, k) + g.nx as u64, true, 130);
                }
            }
            // Back substitution: march k downward.
            for k in (0..g.nz).rev() {
                for j in jlo..jhi {
                    core.range(&rhs, row(j, k), row(j, k) + g.nx as u64, true, 85);
                }
            }
        }
        log.barrier_all();
        // --- add: u += rhs over z-slabs (the partition flips back). ---
        for c in 0..cores {
            let (klo, khi) = Grid3::partition(g.nz, cores, c);
            if klo < khi {
                let core = log.core(c);
                core.range(
                    &u,
                    row(0, klo),
                    row(g.ny - 1, khi - 1) + g.nx as u64,
                    true,
                    35,
                );
                core.range(
                    &rhs,
                    row(0, klo),
                    row(g.ny - 1, khi - 1) + g.nx as u64,
                    false,
                    18,
                );
            }
        }
        log.barrier_all();
    });
    let mut trace = log.finish();
    trace.declared_pages = space.footprint_pages();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BtConfig {
        BtConfig {
            grid: Grid3 {
                nx: 32,
                ny: 32,
                nz: 16,
            },
            iterations: 2,
        }
    }

    #[test]
    fn trace_is_well_formed() {
        let t = bt_trace(4, &small());
        assert!(t.validate().is_ok());
        assert!(t.total_touches() > 0);
    }

    #[test]
    fn cross_partition_phases_broaden_sharing() {
        // BT's signature: more multi-core pages than a single-partition
        // workload like LU, because the z-solve uses a different
        // decomposition.
        let bt = bt_trace(8, &small());
        let sharer_histogram = |t: &Trace| {
            let mut sharers = std::collections::HashMap::new();
            for c in &t.cores {
                for p in c.page_set() {
                    *sharers.entry(p).or_insert(0usize) += 1;
                }
            }
            let total = sharers.len() as f64;
            let multi = sharers.values().filter(|&&n| n >= 2).count() as f64;
            multi / total
        };
        let bt_multi = sharer_histogram(&bt);
        assert!(bt_multi > 0.5, "BT pages are mostly multi-core: {bt_multi}");
        // But the counts stay small (bounded by the two partitions plus
        // boundary effects), not all-cores.
        let mut sharers = std::collections::HashMap::new();
        for c in &bt.cores {
            for p in c.page_set() {
                *sharers.entry(p).or_insert(0usize) += 1;
            }
        }
        let all_cores = sharers.values().filter(|&&n| n == 8).count();
        assert!(
            (all_cores as f64) < 0.2 * sharers.len() as f64,
            "few pages mapped by all 8 cores: {all_cores}/{}",
            sharers.len()
        );
    }

    #[test]
    fn footprint_is_two_arrays() {
        let cfg = small();
        let t = bt_trace(2, &cfg);
        let expect = 2 * cfg.grid.cells() as u64 * 40 / 4096;
        let got = t.footprint_pages() as u64;
        assert!(got >= expect && got <= expect + 4, "{got} vs ~{expect}");
    }

    #[test]
    fn deterministic_generation() {
        // The exact expanded op streams, pinned per (iterations, cores).
        for (iterations, cores, want) in [
            (0, 1, 0xffa6_ed7a_f990_138cu64),
            (0, 3, 0xe13f_6e80_031f_a17c),
            (0, 8, 0xf46e_536a_650a_2a3a),
            (1, 1, 0x8d4d_2eeb_3726_0aeb),
            (1, 3, 0x72d2_03ca_5070_8882),
            (1, 8, 0x27f2_82d1_e7c3_b9ea),
            (2, 1, 0x2c4b_db37_35d3_1e08),
            (2, 3, 0x2b98_7bf5_4e3c_4c79),
            (2, 8, 0x9b07_3367_8a50_0032),
            (3, 1, 0x5bb5_c409_c416_730f),
            (3, 3, 0x012c_8211_57d7_d76e),
            (3, 8, 0x4c90_5179_7a60_72aa),
        ] {
            let cfg = BtConfig {
                iterations,
                ..small()
            };
            let got = crate::digest(&bt_trace(cores, &cfg));
            assert_eq!(
                got, want,
                "bt_trace(iterations {iterations}, cores {cores})"
            );
        }
    }
}
