//! The LU workload: NPB's SSOR solver, scaled.
//!
//! NPB LU applies symmetric successive over-relaxation sweeps (a forward
//! and a backward wavefront) to a 3-D grid, with OpenMP threads owning
//! j-slabs and a pipelined wavefront over k-planes. Each relaxation of a
//! row reads the j−1 and j+1 rows — at slab boundaries those belong to
//! the neighbouring cores, which is what gives LU its 2–6-core page
//! sharing (paper Figure 6b): with many cores a 4 kB page spans several
//! thin slabs.
//!
//! The numerics being traced are [`crate::grid::ssor_sweep`], verified to
//! reduce the residual of the 7-point Laplacian system.

use cmcp_sim::Trace;

use crate::grid::Grid3;
use crate::layout::AddressSpace;
use crate::logger::TraceLogger;

/// LU workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct LuConfig {
    /// Grid extents (cubic in NPB).
    pub grid: Grid3,
    /// SSOR sweeps traced.
    pub sweeps: usize,
}

impl LuConfig {
    /// Scaled stand-in for NPB class B.
    pub fn class_b() -> LuConfig {
        LuConfig {
            grid: Grid3 {
                nx: 64,
                ny: 64,
                nz: 64,
            },
            sweeps: 3,
        }
    }

    /// Scaled stand-in for NPB class C.
    pub fn class_c() -> LuConfig {
        LuConfig {
            grid: Grid3 {
                nx: 96,
                ny: 96,
                nz: 96,
            },
            sweeps: 2,
        }
    }
}

/// Generates the LU trace for `cores` cores.
pub fn lu_trace(cores: usize, cfg: &LuConfig) -> Trace {
    let g = cfg.grid;
    let cells = g.cells() as u64;
    let mut space = AddressSpace::new();
    // NPB stores 5 solution components per cell (u[5][k][j][i]):
    // 40-byte cells, so an x-row of 64 cells spans ~2.5 kB — the page
    // geometry behind the paper's Figure 6 sharing histograms.
    let u = space.alloc("u", cells, 40);
    let rhs = space.alloc("rhs", cells, 40);

    let mut log = TraceLogger::new(cores, "lu");
    let slabs: Vec<(usize, usize)> = (0..cores)
        .map(|c| Grid3::partition(g.ny, cores, c))
        .collect();

    // Row (j, k) occupies elements [row_base, row_base + nx).
    let row = |j: usize, k: usize| (g.idx(0, j, k)) as u64;

    // Initialization: each core fills its slab of u and rhs. A j-slab
    // is NOT contiguous in the x-fastest layout, so walk plane by plane.
    for c in 0..cores {
        let (jlo, jhi) = slabs[c];
        if jlo < jhi {
            let core = log.core(c);
            for k in 0..g.nz {
                core.range(&u, row(jlo, k), row(jhi - 1, k) + g.nx as u64, true, 1);
                core.range(&rhs, row(jlo, k), row(jhi - 1, k) + g.nx as u64, true, 1);
            }
        }
    }
    log.barrier_all();

    // Every sweep logs the same ops between the same barriers: log the
    // first, and replay it for the others.
    log.looped(cfg.sweeps, |log| {
        for backward in [false, true] {
            // Pipelined wavefront over k-planes, one barrier per plane.
            let ks: Vec<usize> = if backward {
                (1..g.nz - 1).rev().collect()
            } else {
                (1..g.nz - 1).collect()
            };
            for &k in &ks {
                for c in 0..cores {
                    let (jlo, jhi) = slabs[c];
                    let jlo = jlo.max(1);
                    let jhi = jhi.min(g.ny - 1);
                    if jlo >= jhi {
                        continue;
                    }
                    let core = log.core(c);
                    let js: Vec<usize> = if backward {
                        (jlo..jhi).rev().collect()
                    } else {
                        (jlo..jhi).collect()
                    };
                    for j in js {
                        // Current row: read-modify-write of u, read rhs.
                        // NPB LU relaxes 5×5 blocks (~200 flops/cell on
                        // an in-order core); the work charges reflect
                        // that, not the scalar stand-in's flop count.
                        core.range(&u, row(j, k), row(j, k) + g.nx as u64, true, 120);
                        core.range(&rhs, row(j, k), row(j, k) + g.nx as u64, false, 30);
                        // j-neighbours (the slab-boundary reads).
                        core.range(&u, row(j - 1, k), row(j - 1, k) + g.nx as u64, false, 30);
                        core.range(&u, row(j + 1, k), row(j + 1, k) + g.nx as u64, false, 30);
                        // k-neighbours (private: same slab, other planes).
                        core.range(&u, row(j, k - 1), row(j, k - 1) + g.nx as u64, false, 30);
                        core.range(&u, row(j, k + 1), row(j, k + 1) + g.nx as u64, false, 30);
                    }
                }
                log.barrier_all();
            }
        }
        // Residual norm: read the whole slab (plane by plane) + reduce.
        for c in 0..cores {
            let (jlo, jhi) = slabs[c];
            if jlo < jhi {
                let core = log.core(c);
                for k in 0..g.nz {
                    core.range(&u, row(jlo, k), row(jhi - 1, k) + g.nx as u64, false, 1);
                }
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

    fn small() -> LuConfig {
        LuConfig {
            grid: Grid3 {
                nx: 32,
                ny: 32,
                nz: 16,
            },
            sweeps: 2,
        }
    }

    #[test]
    fn trace_is_well_formed() {
        let t = lu_trace(4, &small());
        assert!(t.validate().is_ok());
        assert!(t.total_touches() > 0);
    }

    #[test]
    fn neighbouring_slabs_share_boundary_pages() {
        let t = lu_trace(4, &small());
        let sets: Vec<std::collections::HashSet<u64>> =
            t.cores.iter().map(|c| c.page_set()).collect();
        // Adjacent cores overlap...
        for c in 0..3 {
            let shared = sets[c].intersection(&sets[c + 1]).count();
            assert!(
                shared > 0,
                "cores {c} and {} must share boundary pages",
                c + 1
            );
        }
        // ...but most pages stay within a small sharer count.
        let mut sharers = std::collections::HashMap::new();
        for s in &sets {
            for &p in s {
                *sharers.entry(p).or_insert(0usize) += 1;
            }
        }
        let total = sharers.len();
        let few = sharers.values().filter(|&&n| n <= 3).count();
        assert!(few * 2 > total, "most LU pages map ≤3 cores: {few}/{total}");
    }

    #[test]
    fn more_cores_thinner_slabs_more_sharing() {
        let sharing_avg = |cores: usize| {
            let t = lu_trace(cores, &small());
            let mut sharers = std::collections::HashMap::new();
            for c in &t.cores {
                for p in c.page_set() {
                    *sharers.entry(p).or_insert(0usize) += 1;
                }
            }
            sharers.values().sum::<usize>() as f64 / sharers.len() as f64
        };
        assert!(sharing_avg(8) > sharing_avg(2));
    }

    #[test]
    fn footprint_matches_two_arrays() {
        let cfg = small();
        let t = lu_trace(2, &cfg);
        let cells = cfg.grid.cells() as u64;
        let expect = 2 * cells * 40 / 4096; // u + rhs, 5 components each
        let got = t.footprint_pages() as u64;
        assert!(
            got >= expect && got <= expect + 4,
            "footprint {got} pages vs expected ~{expect}"
        );
    }

    #[test]
    fn deterministic_generation() {
        // The exact expanded op streams, pinned per (sweeps, cores).
        for (sweeps, cores, want) in [
            (0, 1, 0x432e_2414_1e12_5398u64),
            (0, 3, 0xc769_c94b_4355_b084),
            (0, 8, 0x5b7e_e9a1_3fbb_227a),
            (1, 1, 0x2e23_7053_7f96_04cf),
            (1, 3, 0x2466_8d78_4b65_ff53),
            (1, 8, 0xb44a_93a2_6bfe_6282),
            (2, 1, 0x873e_e53e_ba0a_1e53),
            (2, 3, 0x58c5_595f_9d93_3d6f),
            (2, 8, 0x00e5_b82f_ad4d_2f24),
            (3, 1, 0xc7b4_8074_d15b_10d7),
            (3, 3, 0x92ea_73c4_7939_d20a),
            (3, 8, 0x54e1_83d1_2075_b862),
        ] {
            let cfg = LuConfig { sweeps, ..small() };
            let got = crate::digest(&lu_trace(cores, &cfg));
            assert_eq!(got, want, "lu_trace(sweeps {sweeps}, cores {cores})");
        }
    }

    #[test]
    fn barrier_count_scales_with_planes_and_sweeps() {
        let cfg = small();
        let t = lu_trace(2, &cfg);
        // init + sweeps × (2 directions × (nz−2) planes + 1 residual)
        let expect = 1 + cfg.sweeps * (2 * (cfg.grid.nz - 2) + 1);
        assert_eq!(t.cores[0].barriers(), expect);
    }
}
