//! Workload traces: what the simulated cores execute.
//!
//! A trace is one op stream per core. Accesses are recorded at page
//! granularity as *runs* of consecutive 4 kB pages — the natural output
//! of the loop nests in `cmcp-workloads`, and exactly the granularity the
//! TLB and the paging subsystem care about (element-level accesses within
//! a page cannot miss the TLB again and are folded into `work_per_page`).
//!
//! An [`Op`] is 16 bytes, asserted at compile time: the largest traces
//! hold over a million ops, and their size is the simulator's own peak
//! memory. A run is at most `u16::MAX` pages long; a longer one is logged
//! as back-to-back ops that each carry the whole run's per-page work.
//! The runner checks its ceiling between any two touches, within an op
//! or across two, so it cannot tell a split run from an unsplit one.
//!
//! Barriers are implicit rendezvous points: every core's `k`-th
//! [`Op::Barrier`] matches every other core's `k`-th, mirroring the
//! OpenMP barrier structure of the NPB kernels and SCALE.

use std::collections::HashSet;

use cmcp_arch::{Cycles, FxHashSet, PageSize, VirtPage};

/// One element of a core's op stream: 16 bytes, a tag and the largest
/// variant's fields packed behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Touch `pages` consecutive 4 kB pages starting at `start`, charging
    /// `work_per_page` work units of compute per page.
    Stream {
        /// First 4 kB page of the run.
        start: VirtPage,
        /// Number of consecutive pages. A longer run is split into
        /// adjacent ops (module docs).
        pages: u16,
        /// Whether the touches are writes.
        write: bool,
        /// Work units charged per page (element ops folded per page).
        work_per_page: u32,
    },
    /// Pure compute: advance the clock without touching memory.
    Compute(Cycles),
    /// A host-offloaded system call (paper §2.1): `payload` bytes over
    /// the IKC channel. The host's service time is the offload engine's
    /// fixed figure for the call's kind, not the trace's.
    Syscall {
        /// Payload bytes (request + response).
        payload: u64,
        /// Whether it is a write (vs read) — selects the host path cost.
        write: bool,
    },
    /// Rendezvous with every other core.
    Barrier,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// A single-page touch.
    pub fn touch(page: VirtPage, write: bool, work: u32) -> Op {
        Op::Stream {
            start: page,
            pages: 1,
            write,
            work_per_page: work,
        }
    }
}

/// One core's op stream.
#[derive(Debug, Clone, Default)]
pub struct CoreTrace {
    /// Ops in program order.
    pub ops: Vec<Op>,
}

impl CoreTrace {
    /// Number of barriers in the stream.
    pub fn barriers(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Barrier)).count()
    }

    /// Total page touches.
    pub fn touches(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o {
                Op::Stream { pages, .. } => u64::from(*pages),
                _ => 0,
            })
            .sum()
    }

    /// Distinct 4 kB pages touched.
    pub fn page_set(&self) -> HashSet<u64> {
        let mut set = HashSet::new();
        for op in &self.ops {
            if let Op::Stream { start, pages, .. } = op {
                for k in 0..u64::from(*pages) {
                    set.insert(start.0 + k);
                }
            }
        }
        set
    }
}

/// A complete multi-core workload trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-core op streams; index = core id.
    pub cores: Vec<CoreTrace>,
    /// Human-readable workload label for reports.
    pub label: String,
    /// The application's *declared* memory requirement in 4 kB pages —
    /// what it allocates, which for array codes like NPB CG exceeds what
    /// one iteration touches. The paper's "memory provided" percentages
    /// are relative to this requirement; 0 means "same as the touched
    /// footprint".
    pub declared_pages: u64,
}

impl Trace {
    /// An empty trace for `n` cores.
    pub fn new(n: usize, label: impl Into<String>) -> Trace {
        Trace {
            cores: vec![CoreTrace::default(); n],
            label: label.into(),
            declared_pages: 0,
        }
    }

    /// Checks the cross-core barrier structure: every core must have the
    /// same barrier count, or the rendezvous would deadlock.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores.is_empty() {
            return Err("trace has no cores".into());
        }
        let b0 = self.cores[0].barriers();
        for (i, c) in self.cores.iter().enumerate() {
            if c.barriers() != b0 {
                return Err(format!(
                    "core {i} has {} barriers, core 0 has {b0}",
                    c.barriers()
                ));
            }
        }
        Ok(())
    }

    /// Distinct 4 kB pages touched by any core — the application
    /// footprint the paper's "memory provided" percentages refer to.
    pub fn footprint_pages(&self) -> usize {
        self.footprint_blocks(PageSize::K4)
    }

    /// Footprint in mapping blocks of `size` (what the device RAM must
    /// hold for a no-data-movement run).
    pub fn footprint_blocks(&self, size: PageSize) -> usize {
        let span = size.pages_4k() as u64;
        let mut set = FxHashSet::default();
        for c in &self.cores {
            for op in &c.ops {
                if let Op::Stream { start, pages, .. } = op {
                    if *pages == 0 {
                        // Touches nothing (the runner skips it too).
                        continue;
                    }
                    let first = start.0 / span;
                    let last = (start.0 + u64::from(*pages) - 1) / span;
                    for b in first..=last {
                        set.insert(b);
                    }
                }
            }
        }
        set.len()
    }

    /// Total page touches across cores.
    pub fn total_touches(&self) -> u64 {
        self.cores.iter().map(|c| c.touches()).sum()
    }

    /// The declared memory requirement in blocks of `size`: the paper's
    /// constraint denominator. Falls back to the touched footprint when
    /// no declaration was made, and is never smaller than it.
    pub fn declared_blocks(&self, size: PageSize) -> usize {
        let touched = self.footprint_blocks(size);
        let declared = (self.declared_pages as usize).div_ceil(size.pages_4k());
        declared.max(touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_is_single_page_stream() {
        let op = Op::touch(VirtPage(5), true, 3);
        assert_eq!(
            op,
            Op::Stream {
                start: VirtPage(5),
                pages: 1,
                write: true,
                work_per_page: 3
            }
        );
    }

    #[test]
    fn footprint_counts_distinct_pages() {
        let mut t = Trace::new(2, "test");
        t.cores[0].ops.push(Op::Stream {
            start: VirtPage(0),
            pages: 4,
            write: false,
            work_per_page: 1,
        });
        t.cores[1].ops.push(Op::Stream {
            start: VirtPage(2),
            pages: 4,
            write: false,
            work_per_page: 1,
        });
        assert_eq!(t.footprint_pages(), 6); // pages 0..6
        assert_eq!(t.total_touches(), 8);
    }

    #[test]
    fn footprint_blocks_rounds_to_block_grid() {
        let mut t = Trace::new(1, "test");
        // Pages 15..17 straddle a 64 kB boundary (blocks 0 and 1).
        t.cores[0].ops.push(Op::Stream {
            start: VirtPage(15),
            pages: 2,
            write: false,
            work_per_page: 1,
        });
        assert_eq!(t.footprint_blocks(PageSize::K4), 2);
        assert_eq!(t.footprint_blocks(PageSize::K64), 2);
        assert_eq!(t.footprint_blocks(PageSize::M2), 1);
        // Zero-page streams touch nothing, at any size. At page 0 the
        // run's last page would underflow; at page 17 it would be page
        // 16, in block 1 at 64 kB and block 0 at 2 MB.
        let mut empty = Trace::new(1, "zero-page streams");
        for start in [0, 17] {
            empty.cores[0].ops.push(Op::Stream {
                start: VirtPage(start),
                pages: 0,
                write: true,
                work_per_page: 1,
            });
        }
        for size in PageSize::ALL {
            assert_eq!(empty.footprint_blocks(size), 0, "{size:?}");
        }
        t.cores[0].ops.extend_from_slice(&empty.cores[0].ops);
        assert_eq!(t.footprint_blocks(PageSize::K4), 2);
        assert_eq!(t.footprint_blocks(PageSize::K64), 2);
        assert_eq!(t.footprint_blocks(PageSize::M2), 1);
    }

    #[test]
    fn validate_catches_mismatched_barriers() {
        let mut t = Trace::new(2, "test");
        t.cores[0].ops.push(Op::Barrier);
        assert!(t.validate().is_err());
        t.cores[1].ops.push(Op::Barrier);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn empty_trace_is_invalid() {
        assert!(Trace::new(0, "empty").validate().is_err());
    }

    #[test]
    fn page_set_expands_streams() {
        let mut c = CoreTrace::default();
        c.ops.push(Op::Stream {
            start: VirtPage(10),
            pages: 3,
            write: false,
            work_per_page: 1,
        });
        c.ops.push(Op::touch(VirtPage(11), true, 1));
        let set = c.page_set();
        assert_eq!(set.len(), 3);
        assert!(set.contains(&10) && set.contains(&11) && set.contains(&12));
    }
}
