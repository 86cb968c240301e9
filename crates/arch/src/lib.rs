//! # cmcp-arch — many-core architecture substrate
//!
//! This crate models the hardware that the HPDC'14 CMCP paper ran on: an
//! Intel Xeon Phi "Knights Corner" style many-core co-processor. The real
//! silicon is discontinued, so every mechanism the paper's evaluation
//! depends on is reproduced as an explicit, calibrated model:
//!
//! * [`types`] — core / page / frame newtypes, page sizes (4 kB, 64 kB,
//!   2 MB) and the [`types::CoreSet`] bitset used to track which cores map
//!   a page.
//! * [`cost`] — the cycle cost table ([`cost::CostModel`]) with constants
//!   derived from the paper (1.053 GHz cores, ~6 GB/s PCIe) and the
//!   Knights Corner Software Developer's Guide.
//! * [`tlb`] — per-core two-level set-associative TLBs with separate
//!   4 kB / 64 kB / 2 MB entry classes and per-core miss statistics.
//! * [`ring`] — the bidirectional ring interconnect and the IPI cost
//!   model: a *serialized* send loop on the requester plus an interrupt
//!   handler charge on every target, which is exactly the cost structure
//!   the paper blames for LRU's accessed-bit scanning overhead.
//! * [`dma`] — the PCIe DMA engine transfer-time model used for page
//!   movement between device RAM and the host backing store.
//! * [`ikc`] — the IHK Inter-Kernel Communication channel used for
//!   host-offloaded system calls (paper §2.1–2.2).
//! * [`fault`] — seeded, declarative fault injection for the PCIe and
//!   backing path ([`fault::FaultPlan`] → [`fault::FaultInjector`]),
//!   used by the kernel's recovery machinery and test harness.
//! * [`tier`] — the backing-tier hierarchy model ([`tier::TierConfig`]):
//!   ordered HBM/DRAM/NVM/CXL-style tiers with per-tier capacity,
//!   latency, and bandwidth, plus the map-count demotion ranking.
//! * [`numa`] — the NUMA topology model ([`numa::NumaConfig`]): multiple
//!   DRAM nodes with per-node frame budgets and asymmetric link
//!   latencies, driving the kernel's home-node placement, page-table
//!   replication, and migration machinery.
//! * [`resource`] — virtual-time reservation resources (`start =
//!   max(now, free); free = start + service`) used to model queueing on
//!   shared hardware (the DMA engine) and software (page-table locks).
//! * [`clock`] — per-core virtual cycle clocks with an interrupt-debt
//!   mechanism for cross-core charges.
//! * [`hash`] — the seed-free `FxHash` hasher the kernel hot path uses
//!   for its block/page/frame-keyed maps (deterministic, and an order
//!   of magnitude cheaper than SipHash on integer keys).
//!
//! Everything is deterministic: no wall-clock time, no global state, and
//! all randomness lives in the workload crates behind explicit seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod dma;
pub mod fault;
pub mod hash;
pub mod ikc;
pub mod numa;
pub mod resource;
pub mod ring;
pub mod tier;
pub mod tlb;
pub mod types;

pub use clock::{CoreClock, Cycles};
pub use cost::CostModel;
pub use dma::{CheckedTransfer, DmaModel};
pub use fault::{FaultInjector, FaultPlan, FaultRule, FaultSite};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ikc::{IkcChannel, IkcMessage};
pub use numa::{NodeSpec, NumaConfig, MAX_NODES};
pub use resource::VirtualResource;
pub use ring::RingModel;
pub use tier::{TierConfig, TierSpec, MAX_TIERS};
pub use tlb::{Tlb, TlbConfig, TlbLookup, TlbStats};
pub use types::{CoreId, CoreSet, PageSize, PhysFrame, VirtAddr, VirtPage, MAX_CORES};
