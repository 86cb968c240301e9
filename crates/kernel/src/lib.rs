//! # cmcp-kernel — the simulated lightweight-kernel memory manager
//!
//! The paper's system software layer: a minimal kernel (in the spirit of
//! IHK/McKernel) that demand-pages a computation area between the
//! co-processor's small device RAM and the large host memory over PCIe.
//!
//! * `frames` and `buddy` (crate-private) — the device RAM allocators:
//!   block-sized (4 kB / 64 kB / 2 MB) aligned runs for fixed page
//!   sizes, a three-level buddy for adaptive ones.
//! * [`backing`] — the host-side backing hierarchy reached through the
//!   DMA engine: a span store over N tiers, the flat config being its
//!   one zero-cost tier.
//! * [`stats`] — per-core counters matching the paper's Table 1 (page
//!   faults, remote TLB invalidations) plus cycle breakdowns.
//! * [`numa`] — per-node accounting: home-node placement, page-table
//!   replica sets, and per-node frame budgets. A single-node run is its
//!   one-node case, bit-identical to the pre-NUMA kernel.
//! * [`offload`] — the catalogue of host-offloaded system calls, which
//!   [`vmm::Vmm::offload_syscall`] ships over the IKC channel (paper
//!   §2.1: "heavy system calls are shipped to and executed on the
//!   host").
//! * [`config`] — experiment configuration: cores, table scheme, policy,
//!   page size, memory constraint.
//! * [`vmm`] — the virtual memory manager itself: the page-fault path
//!   (allocate / evict / DMA / map / shootdown), the accessed-bit scan
//!   timer that drives LRU-class policies, and the [`vmm::Vmm`] facade
//!   the execution engine talks to.
//!
//! All virtual-time costs are charged here, from the [`cmcp_arch`] cost
//! model, so the policies in `cmcp-core` stay pure algorithms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backing;
mod buddy;
pub mod config;
mod frames;
pub mod numa;
pub mod offload;
pub mod stats;
pub mod vmm;

pub use backing::{TierCounters, TieredStore};
pub use config::{KernelConfig, SchemeChoice};
pub use numa::{BlockNuma, NumaBooks};
pub use offload::Syscall;
pub use stats::{CoreStatsSnapshot, GlobalStatsSnapshot, NumaStats};
pub use vmm::{FaultKind, Vmm};
