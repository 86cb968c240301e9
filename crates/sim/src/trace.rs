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
//!
//! The NPB solvers repeat one iteration body, so a stream stores each
//! body once: an [`Op::Replay`] runs an earlier range of the core's own
//! ops once more. It refers only backwards and one level deep (the range
//! holds no replay), which [`Trace::validate`] checks.
//! [`CoreTrace::expanded`] is the stream a core executes, and every count
//! below (touches, barriers, pages) is taken over it. The runner checks
//! its ceiling between touches wherever they sit, so a replay cannot be
//! told from a copy of its range.

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
    /// the IKC channel. The host's service time is the kernel's fixed
    /// figure for the call's kind ([`cmcp_kernel::Syscall`]), not the
    /// trace's.
    Syscall {
        /// Payload bytes (request + response).
        payload: u64,
        /// Whether it is a write (vs read) — selects the host path cost.
        write: bool,
    },
    /// Rendezvous with every other core.
    Barrier,
    /// Run this core's ops `[start, start + len)` once more, then go on
    /// after the replay. The range lies wholly before the replay and
    /// holds no replay itself.
    Replay {
        /// Index of the range's first op.
        start: u32,
        /// Number of ops in the range.
        len: u32,
    },
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
    /// The ops the core executes, in order: each [`Op::Replay`] expanded
    /// into the range it names. Panics on a replay out of range
    /// ([`Trace::validate`] rejects those).
    pub fn expanded(&self) -> impl Iterator<Item = &Op> + '_ {
        self.ops.iter().flat_map(move |op| match *op {
            Op::Replay { start, len } => {
                let start = start as usize;
                &self.ops[start..start + len as usize]
            }
            _ => std::slice::from_ref(op),
        })
    }

    /// Sums `count` over [`CoreTrace::expanded`] without the iterator's
    /// per-op overhead: a replay adds its range's sum once more.
    fn sum_expanded(&self, count: impl Fn(&Op) -> u64) -> u64 {
        self.ops
            .iter()
            .map(|op| match *op {
                Op::Replay { start, len } => self.ops[start as usize..][..len as usize]
                    .iter()
                    .map(&count)
                    .sum(),
                _ => count(op),
            })
            .sum()
    }

    /// Number of barriers in the stream.
    pub fn barriers(&self) -> usize {
        self.sum_expanded(|o| u64::from(matches!(o, Op::Barrier))) as usize
    }

    /// Total page touches.
    pub fn touches(&self) -> u64 {
        self.sum_expanded(|o| match o {
            Op::Stream { pages, .. } => u64::from(*pages),
            _ => 0,
        })
    }

    /// Distinct 4 kB pages touched.
    pub fn page_set(&self) -> HashSet<u64> {
        let mut set = HashSet::new();
        for op in self.expanded() {
            if let Op::Stream { start, pages, .. } = op {
                for k in 0..u64::from(*pages) {
                    set.insert(start.0 + k);
                }
            }
        }
        set
    }

    /// Checks every replay — non-empty, wholly before its own index, and
    /// covering no other replay — and returns the barrier count, in one
    /// pass with no heap allocation (an error message aside). Each
    /// replayed range is scanned once for barriers and replays together,
    /// and a replay of the same range as the previous replay reuses that
    /// scan, as a looped body's replays all do. The error names the op
    /// index.
    fn check_replays(&self) -> Result<usize, String> {
        let mut barriers = 0;
        // The last scanned range, `(start, len)`, and its barrier count.
        let mut last: Option<((u32, u32), usize)> = None;
        for (k, op) in self.ops.iter().enumerate() {
            let (start, len) = match *op {
                Op::Barrier => {
                    barriers += 1;
                    continue;
                }
                Op::Replay { start, len } => (start, len),
                _ => continue,
            };
            let (first, end) = (start as usize, start as usize + len as usize);
            if len == 0 {
                return Err(format!("op {k} replays no ops"));
            }
            if end > k {
                return Err(format!(
                    "op {k} replays ops {first}..{end}, which do not lie before it"
                ));
            }
            let in_range = match last {
                Some((range, n)) if range == (start, len) => n,
                _ => {
                    let mut n = 0;
                    for o in &self.ops[first..end] {
                        match o {
                            Op::Barrier => n += 1,
                            Op::Replay { .. } => {
                                return Err(format!(
                                    "op {k} replays ops {first}..{end}, which hold another replay"
                                ))
                            }
                            _ => {}
                        }
                    }
                    last = Some(((start, len), n));
                    n
                }
            };
            barriers += in_range;
        }
        Ok(barriers)
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

    /// Checks every core's replays ([`Op::Replay`]), then the cross-core
    /// barrier structure: every core must have the same barrier count,
    /// or the rendezvous would deadlock. One pass over each core's ops
    /// does both, and allocates nothing unless it fails; a replay error
    /// in any core is reported before a barrier mismatch.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores.is_empty() {
            return Err("trace has no cores".into());
        }
        let mut core0 = 0;
        // The first core whose barrier count differs from core 0's.
        let mut mismatch = None;
        for (i, c) in self.cores.iter().enumerate() {
            let barriers = c.check_replays().map_err(|e| format!("core {i}: {e}"))?;
            if i == 0 {
                core0 = barriers;
            } else if barriers != core0 && mismatch.is_none() {
                mismatch = Some((i, barriers));
            }
        }
        match mismatch {
            Some((i, barriers)) => Err(format!(
                "core {i} has {barriers} barriers, core 0 has {core0}"
            )),
            None => Ok(()),
        }
    }

    /// Distinct 4 kB pages touched by any core — the application
    /// footprint the paper's "memory provided" percentages refer to.
    pub fn footprint_pages(&self) -> usize {
        self.footprint_blocks(PageSize::K4)
    }

    /// Footprint in mapping blocks of `size` (what the device RAM must
    /// hold for a no-data-movement run). Replays are skipped: their
    /// pages are counted where their range was logged.
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
        // A bad replay in any core is reported before a barrier mismatch
        // in an earlier one.
        let mut t = Trace::new(3, "test");
        t.cores[0].ops.push(Op::Barrier);
        t.cores[2]
            .ops
            .extend([Op::Barrier, Op::Replay { start: 0, len: 0 }]);
        assert_eq!(t.validate(), Err("core 2: op 1 replays no ops".into()));
        t.cores[2].ops.pop();
        assert_eq!(
            t.validate(),
            Err("core 1 has 0 barriers, core 0 has 1".into())
        );
    }

    #[test]
    fn empty_trace_is_invalid() {
        assert!(Trace::new(0, "empty").validate().is_err());
    }

    /// A two-core trace whose second iteration replays the first: a
    /// 4-page read, a barrier and a touch of page 9, then
    /// `Replay { start: 0, len: 3 }`.
    fn replayed() -> Trace {
        let mut t = Trace::new(2, "replayed");
        for c in &mut t.cores {
            c.ops.extend([
                Op::Stream {
                    start: VirtPage(0),
                    pages: 4,
                    write: false,
                    work_per_page: 1,
                },
                Op::Barrier,
                Op::touch(VirtPage(9), true, 1),
                Op::Replay { start: 0, len: 3 },
            ]);
        }
        t
    }

    #[test]
    fn replayed_ops_count_again() {
        let mut t = replayed();
        assert!(t.validate().is_ok());
        let c = &t.cores[0];
        assert_eq!(c.expanded().count(), 6);
        assert_eq!(c.touches(), 10);
        assert_eq!(c.barriers(), 2);
        assert_eq!(t.total_touches(), 20);
        // The replay's pages were counted where they were logged.
        assert_eq!(c.page_set().len(), 5);
        assert_eq!(t.footprint_blocks(PageSize::K4), 5);
        assert_eq!(t.footprint_blocks(PageSize::K64), 1);
        // A shorter replay from the same start holds no barrier: it
        // leaves the rendezvous balanced when only core 0 runs it.
        t.cores[0].ops.push(Op::Replay { start: 0, len: 1 });
        assert_eq!(t.cores[0].barriers(), 2);
        assert_eq!(t.validate(), Ok(()));
        t.cores[0].ops.pop();
        // A barrier only one core replays unbalances the rendezvous.
        t.cores[1].ops.pop();
        assert_eq!(
            t.validate(),
            Err("core 1 has 1 barriers, core 0 has 2".into())
        );
    }

    #[test]
    fn validate_rejects_malformed_replays() {
        for (replay, why) in [
            (Op::Replay { start: 1, len: 0 }, "op 4 replays no ops"),
            (
                Op::Replay { start: 2, len: 3 },
                "op 4 replays ops 2..5, which do not lie before it",
            ),
            (
                Op::Replay { start: 3, len: 1 },
                "op 4 replays ops 3..4, which hold another replay",
            ),
            // The previous replay's range (0..3) plus that replay: a
            // shared start must not reuse the shorter range's scan.
            (
                Op::Replay { start: 0, len: 4 },
                "op 4 replays ops 0..4, which hold another replay",
            ),
        ] {
            let mut t = replayed();
            for c in &mut t.cores {
                c.ops.push(replay);
            }
            assert_eq!(t.validate(), Err(format!("core 0: {why}")), "{replay:?}");
            t.cores[0].ops[4] = Op::Barrier;
            t.cores[1].ops[4] = Op::Barrier;
            assert!(t.validate().is_ok());
        }
        // The error names the core that holds the bad replay.
        let mut t = replayed();
        t.cores[1].ops[3] = Op::Replay { start: 0, len: 4 };
        assert_eq!(
            t.validate(),
            Err("core 1: op 3 replays ops 0..4, which do not lie before it".into())
        );
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
