//! # cmcp-workloads — the paper's applications, as trace generators
//!
//! The evaluation workloads (paper §5.1): three NAS Parallel Benchmarks —
//! CG, LU, BT — and RIKEN's SCALE stencil code. The originals are
//! Fortran/OpenMP programs far too large to reproduce verbatim; what the
//! memory-management experiments need is their *memory behaviour*:
//! per-core page access streams with the right sharing structure
//! (Figure 6), reuse structure (what LRU protects), and footprint.
//!
//! Each workload here is built from the same loop nests and domain
//! partitioning as the original, at scaled-down problem sizes:
//!
//! * [`cg`] — conjugate gradient on a random sparse SPD matrix (CSR),
//!   rows partitioned across cores. The matrix streams privately; the
//!   search vector `p` is gathered at random columns by *every* core —
//!   producing CG's signature sharing histogram (>50 % private pages, a
//!   small tail mapped by all cores).
//! * [`lu`] — SSOR-style forward/backward wavefront sweeps over a 3-D
//!   grid in j-slabs, with nearest-slab boundary reads.
//! * [`bt`] — line solves along the three axes with *different* domain
//!   partitions per axis, the source of BT's broader 1–6-core sharing.
//! * [`scale`] — a 2-D halo-exchange stencil integrator (weather/climate
//!   kernel shape): private interiors, 2-core halo rows.
//! * [`synthetic`] — parameterized patterns, including the adversarial
//!   anti-CMCP workload the paper concedes can be constructed (§3).
//! * [`ep`], [`mg`] — the NPB workloads the paper *excludes* (§5.1),
//!   implemented so the exclusions are demonstrable: EP's footprint is
//!   trivially small; MG streams its whole grid hierarchy with so little
//!   reuse that out-of-core execution collapses.
//!
//! The *numerics* of each kernel are also implemented ([`sparse`],
//! [`grid`]) and unit-tested (CG converges, SSOR reduces residual, line
//! solves are exact, the stencil conserves heat), so the loop structure
//! the traces are derived from is demonstrably the real algorithm, not a
//! hand-painted histogram.
//!
//! [`suite`] packages everything into the paper's named configurations
//! (`cg.B`, `lu.C`, `SCALE (sml)`, ...).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The numeric kernels index with explicit loop variables (stencils and
// wavefronts read neighbours at i±1) and group literal seeds mnemonically.
#![allow(clippy::needless_range_loop, clippy::unusual_byte_groupings)]

pub mod bt;
pub mod cg;
pub mod ep;
pub mod ft;
pub mod grid;
pub mod is;
pub mod layout;
pub mod logger;
pub mod lu;
pub mod mg;
pub mod scale;
pub mod sparse;
pub mod suite;
pub mod synthetic;

pub use layout::{AddressSpace, Region};
pub use logger::TraceLogger;
pub use suite::{Workload, WorkloadClass};

/// FNV-1a over a trace's declared pages and each core's expanded op
/// stream (its length, then every op), fields little-endian: the digest
/// the generators' `deterministic_generation` tests pin. It hashes what a
/// core executes, so replaying a range and copying it hash alike.
#[cfg(test)]
pub(crate) fn digest(t: &cmcp_sim::Trace) -> u64 {
    use cmcp_sim::Op;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&t.declared_pages.to_le_bytes());
    for core in &t.cores {
        eat(&(core.expanded().count() as u64).to_le_bytes());
        for op in core.expanded() {
            match *op {
                Op::Stream {
                    start,
                    pages,
                    write,
                    work_per_page,
                } => {
                    eat(&[0, write as u8]);
                    eat(&start.0.to_le_bytes());
                    eat(&u32::from(pages).to_le_bytes());
                    eat(&work_per_page.to_le_bytes());
                }
                Op::Compute(cycles) => {
                    eat(&[1]);
                    eat(&cycles.to_le_bytes());
                }
                Op::Syscall { payload, write } => {
                    eat(&[2, write as u8]);
                    eat(&payload.to_le_bytes());
                }
                Op::Barrier => eat(&[3]),
                Op::Replay { .. } => unreachable!("an expanded stream holds no replay"),
            }
        }
    }
    h
}
