//! # cmcp-sim — the execution engine
//!
//! Drives simulated cores through page-access traces against the
//! [`cmcp_kernel::Vmm`], accumulating virtual time.
//!
//! * [`trace`] — the workload representation: per-core op streams
//!   (page-granular access runs, compute delays, barriers).
//! * [`runner`] — one core's execution state: its TLB, its position in
//!   the trace, dirty-block tracking, invalidation draining; advances
//!   freely to an epoch ceiling and *parks* at kernel entries.
//! * [`engine`] — the **unified epoch-barrier discrete-event engine**:
//!   cores partitioned over host workers, advancing in epoch windows
//!   bounded by the minimum cross-core interaction latency. Kernel
//!   effects commit in virtual-time stamp order, as one sequential fold
//!   on worker 0. One code path for every thread count;
//!   `(seed, config)` yields a byte-identical report whether run on 1
//!   thread or 8.
//! * [`report`] — the merged run report: runtime, per-core Table-1
//!   counters, DMA/lock occupancy, sharing histogram.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod report;
pub mod runner;
pub mod trace;

pub use engine::{
    resolve_threads, run, run_deterministic, run_parallel, run_with_host_stats, HostScaling,
};
pub use report::{EngineScaling, NumaReport, RunReport, TierReport};
pub use trace::{CoreTrace, Op, Trace};
