//! Per-core access logging with page-run coalescing.
//!
//! Workload kernels log *element-level* accesses; the logger folds them
//! into the page-granular [`Op`] stream the engines consume. Two
//! foldings keep traces compact without losing anything the TLB or the
//! paging subsystem could observe:
//!
//! * consecutive accesses to the *same* page merge into one op with
//!   accumulated work (they could not miss the TLB separately);
//! * accesses marching through *adjacent* pages in the same direction
//!   with the same kind merge into one [`Op::Stream`] run.
//!
//! A run longer than an op can hold (`u16::MAX` pages) is emitted as
//! back-to-back ops, each charging the whole run's per-page work.
//!
//! An iteration body is logged once: [`CoreLogger::repeat`] emits an
//! [`Op::Replay`] of ops logged between two marks, and
//! [`TraceLogger::looped`] logs a body on every core and replays it.

use std::ops::Range;

use cmcp_arch::VirtPage;
use cmcp_sim::{CoreTrace, Op, Trace};

use crate::layout::Region;

/// Builds one core's op stream.
#[derive(Debug, Default)]
pub struct CoreLogger {
    ops: Vec<Op>,
    /// Coalescing window for the op being built.
    pending: Option<Pending>,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    start: VirtPage,
    pages: u64,
    write: bool,
    work_total: u64,
}

impl CoreLogger {
    fn flush(&mut self) {
        if let Some(p) = self.pending.take() {
            let work_per_page = (p.work_total / p.pages).max(1) as u32;
            self.push_run(p.start, p.pages, p.write, work_per_page);
        }
    }

    /// Pushes a run of `pages` pages as adjacent ops of at most
    /// `u16::MAX` pages each.
    fn push_run(&mut self, start: VirtPage, pages: u64, write: bool, work_per_page: u32) {
        let mut done = 0;
        while done < pages {
            let len = (pages - done).min(u64::from(u16::MAX));
            self.ops.push(Op::Stream {
                start: start.add(done),
                pages: len as u16,
                write,
                work_per_page,
            });
            done += len;
        }
    }

    /// Logs one access to `page`.
    pub fn touch_page(&mut self, page: VirtPage, write: bool, work: u32) {
        match &mut self.pending {
            Some(p) if p.write == write => {
                let last = p.start.0 + p.pages - 1;
                if page.0 == last {
                    // Same page: fold the work in.
                    p.work_total += work as u64;
                    return;
                }
                if page.0 == last + 1 {
                    // Next page in a forward march: extend the run.
                    p.pages += 1;
                    p.work_total += work as u64;
                    return;
                }
                self.flush();
            }
            Some(_) => self.flush(),
            None => {}
        }
        self.pending = Some(Pending {
            start: page,
            pages: 1,
            write,
            work_total: work as u64,
        });
    }

    /// Logs an access to element `idx` of `region`.
    pub fn element(&mut self, region: &Region, idx: u64, write: bool, work: u32) {
        self.touch_page(region.page_of(idx), write, work);
    }

    /// Logs a dense sweep over elements `[lo, hi)` of `region`, charging
    /// `work_per_elem` per element.
    pub fn range(&mut self, region: &Region, lo: u64, hi: u64, write: bool, work_per_elem: u32) {
        if lo >= hi {
            return;
        }
        let (start, pages) = region.page_range(lo, hi);
        let elems = hi - lo;
        let work_per_page = ((elems * work_per_elem as u64) / pages).max(1) as u32;
        self.flush();
        self.push_run(start, pages, write, work_per_page);
    }

    /// Logs pure compute time.
    pub fn compute(&mut self, cycles: u64) {
        self.flush();
        self.ops.push(Op::Compute(cycles));
    }

    /// Logs a host-offloaded system call (e.g. SCALE's history writes).
    pub fn syscall(&mut self, payload: u64, write: bool) {
        self.flush();
        self.ops.push(Op::Syscall { payload, write });
    }

    /// Sets the op capacity to exactly `additional` more ops than are
    /// logged, so a stream that logs exactly that many more ends with no
    /// spare capacity.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.ops.reserve_exact(additional);
        self.ops.shrink_to(self.ops.len() + additional);
    }

    /// Closes the coalescing window and returns the number of ops logged:
    /// a run between two marks merges with nothing outside it.
    pub(crate) fn mark(&mut self) -> usize {
        self.flush();
        self.ops.len()
    }

    /// Runs `run`, ops between two [`CoreLogger::mark`]s, once more: one
    /// [`Op::Replay`], or nothing for an empty run. The coalescing window
    /// is flushed first, so nothing before the replay merges into it.
    pub(crate) fn repeat(&mut self, run: Range<usize>) {
        self.flush();
        if !run.is_empty() {
            let index = |i: usize| u32::try_from(i).expect("op index fits in u32");
            self.ops.push(Op::Replay {
                start: index(run.start),
                len: index(run.len()),
            });
        }
    }

    /// Logs a barrier.
    pub fn barrier(&mut self) {
        self.flush();
        self.ops.push(Op::Barrier);
    }

    /// Finalizes into a [`CoreTrace`].
    pub fn finish(mut self) -> CoreTrace {
        self.flush();
        CoreTrace { ops: self.ops }
    }
}

/// Builds a full multi-core [`Trace`].
#[derive(Debug)]
pub struct TraceLogger {
    cores: Vec<CoreLogger>,
    label: String,
}

impl TraceLogger {
    /// A logger for `n` cores.
    pub fn new(n: usize, label: impl Into<String>) -> TraceLogger {
        TraceLogger {
            cores: (0..n).map(|_| CoreLogger::default()).collect(),
            label: label.into(),
        }
    }

    /// The logger for one core.
    pub fn core(&mut self, c: usize) -> &mut CoreLogger {
        &mut self.cores[c]
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Inserts a barrier on every core (an OpenMP barrier).
    pub fn barrier_all(&mut self) {
        for c in &mut self.cores {
            c.barrier();
        }
    }

    /// Logs `times` iterations of `body`: the first as `body` logs it,
    /// each later one as a replay of it on every core. The streams equal
    /// `times` logged copies when a flush (a barrier) precedes the body
    /// and ends it, so no op of it could merge with a neighbour.
    pub(crate) fn looped(&mut self, times: usize, body: impl FnOnce(&mut TraceLogger)) {
        if times == 0 {
            return;
        }
        let starts: Vec<usize> = self.cores.iter_mut().map(CoreLogger::mark).collect();
        body(self);
        for (core, start) in self.cores.iter_mut().zip(starts) {
            let run = start..core.mark();
            for _ in 1..times {
                core.repeat(run.clone());
            }
        }
    }

    /// Finalizes the trace.
    pub fn finish(self) -> Trace {
        Trace {
            cores: self.cores.into_iter().map(CoreLogger::finish).collect(),
            label: self.label,
            declared_pages: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AddressSpace;

    #[test]
    fn same_page_accesses_coalesce() {
        let mut l = CoreLogger::default();
        for _ in 0..10 {
            l.touch_page(VirtPage(5), false, 2);
        }
        let t = l.finish();
        assert_eq!(t.ops.len(), 1);
        assert_eq!(
            t.ops[0],
            Op::Stream {
                start: VirtPage(5),
                pages: 1,
                write: false,
                work_per_page: 20
            }
        );
    }

    #[test]
    fn forward_march_coalesces_into_stream() {
        let mut l = CoreLogger::default();
        for p in 10..20u64 {
            l.touch_page(VirtPage(p), true, 3);
        }
        let t = l.finish();
        assert_eq!(t.ops.len(), 1);
        assert_eq!(
            t.ops[0],
            Op::Stream {
                start: VirtPage(10),
                pages: 10,
                write: true,
                work_per_page: 3
            }
        );
    }

    #[test]
    fn kind_change_breaks_the_run() {
        let mut l = CoreLogger::default();
        l.touch_page(VirtPage(1), false, 1);
        l.touch_page(VirtPage(2), true, 1); // switch to write
        l.touch_page(VirtPage(3), true, 1);
        let t = l.finish();
        assert_eq!(t.ops.len(), 2);
    }

    #[test]
    fn random_jumps_emit_separate_ops() {
        let mut l = CoreLogger::default();
        l.touch_page(VirtPage(100), false, 1);
        l.touch_page(VirtPage(7), false, 1);
        l.touch_page(VirtPage(53), false, 1);
        let t = l.finish();
        assert_eq!(t.ops.len(), 3);
    }

    #[test]
    fn range_emits_one_stream() {
        let mut a = AddressSpace::new();
        let r = a.alloc("v", 4096, 8);
        let mut l = CoreLogger::default();
        l.range(&r, 0, 4096, false, 2);
        let t = l.finish();
        assert_eq!(t.ops.len(), 1);
        match t.ops[0] {
            Op::Stream {
                pages,
                write,
                work_per_page,
                ..
            } => {
                assert_eq!(pages, 8);
                assert!(!write);
                // 4096 elems × 2 work / 8 pages = 1024 per page.
                assert_eq!(work_per_page, 1024);
            }
            _ => panic!("expected stream"),
        }
    }

    #[test]
    fn a_run_longer_than_an_op_splits_into_adjacent_ops() {
        // 70,000 pages, marched page by page or swept as one range: one
        // op of u16::MAX pages and one of the other 4,465, contiguous and
        // both charging the whole run's per-page work. The march's first
        // 65,535 pages cost 1 each and the rest 10, so work averaged per
        // op would differ between the two.
        let mut a = AddressSpace::new();
        let r = a.alloc("v", 70_000 * 512, 8);
        let mut marched = CoreLogger::default();
        for p in 0..70_000 {
            marched.touch_page(r.base.add(p), true, if p < 65_535 { 1 } else { 10 });
        }
        let mut swept = CoreLogger::default();
        swept.range(&r, 0, 70_000 * 512, true, 3);
        for (t, work_per_page) in [(marched.finish(), 1), (swept.finish(), 1536)] {
            let op = |start: u64, pages: u16| Op::Stream {
                start: r.base.add(start),
                pages,
                write: true,
                work_per_page,
            };
            assert_eq!(t.ops, [op(0, 65_535), op(65_535, 4_465)]);
            assert_eq!(t.touches(), 70_000);
            assert_eq!(t.page_set().len(), 70_000);
        }
    }

    #[test]
    fn repeated_run_never_merges_with_its_neighbours() {
        // Logged without marks, pages 5–7 would be one forward run.
        let mut l = CoreLogger::default();
        l.touch_page(VirtPage(5), false, 1);
        let start = l.mark();
        l.touch_page(VirtPage(6), false, 1);
        let end = l.mark();
        l.touch_page(VirtPage(7), false, 1);
        l.touch_page(VirtPage(5), false, 1);
        l.repeat(start..end);
        l.repeat(end..end);
        l.touch_page(VirtPage(7), false, 1);
        let t = l.finish();
        let replays = t.ops.iter().filter(|op| matches!(op, Op::Replay { .. }));
        assert_eq!(replays.count(), 1, "{:?}", t.ops);
        let starts: Vec<u64> = t
            .expanded()
            .map(|op| match *op {
                Op::Stream {
                    start, pages: 1, ..
                } => start.0,
                _ => panic!("expected a one-page stream, got {op:?}"),
            })
            .collect();
        assert_eq!(starts, [5, 6, 7, 5, 6, 7]);
    }

    #[test]
    fn a_looped_body_expands_to_its_copies() {
        // A body between barriers, looped three times and logged three
        // times: the same expanded streams, one body and two replays.
        let log = |looped: bool| {
            let mut tl = TraceLogger::new(2, "t");
            tl.core(0).touch_page(VirtPage(1), true, 1);
            tl.barrier_all();
            let body = |tl: &mut TraceLogger| {
                tl.core(0).touch_page(VirtPage(2), true, 1);
                tl.core(1).touch_page(VirtPage(3), false, 1);
                tl.barrier_all();
                tl.core(1).touch_page(VirtPage(4), false, 1);
                tl.barrier_all();
            };
            if looped {
                tl.looped(3, body);
            } else {
                (0..3).for_each(|_| body(&mut tl));
            }
            tl.looped(0, |_| unreachable!("zero iterations log nothing"));
            tl.finish()
        };
        let (looped, copied) = (log(true), log(false));
        assert!(looped.validate().is_ok());
        for (l, c) in looped.cores.iter().zip(&copied.cores) {
            assert!(l.expanded().eq(c.ops.iter()));
            let replays = l.ops.iter().filter(|op| matches!(op, Op::Replay { .. }));
            assert_eq!(replays.count(), 2);
        }
    }

    #[test]
    fn barrier_all_lines_up() {
        let mut tl = TraceLogger::new(3, "t");
        tl.core(0).touch_page(VirtPage(1), false, 1);
        tl.barrier_all();
        let t = tl.finish();
        assert!(t.validate().is_ok());
        for c in &t.cores {
            assert_eq!(c.barriers(), 1);
        }
    }

    #[test]
    fn element_uses_region_geometry() {
        let mut a = AddressSpace::new();
        let r = a.alloc("v", 1024, 8); // 512 per page
        let mut l = CoreLogger::default();
        l.element(&r, 0, false, 1);
        l.element(&r, 511, false, 1); // same page → coalesce
        l.element(&r, 512, false, 1); // next page → extend
        let t = l.finish();
        assert_eq!(t.ops.len(), 1);
        assert_eq!(t.touches(), 2);
    }
}
