//! # cmcp-core — page replacement policies
//!
//! The paper's primary contribution, plus every baseline it is measured
//! against:
//!
//! * [`cmcp`] — **Core-Map Count based Priority replacement** (paper §3):
//!   victims are prioritized by the number of CPU cores mapping each
//!   page, a signal PSPT provides for free. Two victim groups — a plain
//!   FIFO list and a priority group holding at most a fraction `p` of
//!   resident pages — plus a slow aging mechanism demoting stale
//!   prioritized pages. Crucially, the policy **never reads accessed
//!   bits**, so it causes zero statistics shootdowns.
//! * [`fifo`] — the baseline FIFO policy.
//! * [`lru`] — a two-list (active/inactive) LRU approximation "the same
//!   algorithm employed by the Linux kernel" (paper §5.1), driven by a
//!   periodic accessed-bit scan whose TLB invalidation cost is the
//!   paper's central negative result.
//! * [`clock`] — the CLOCK second-chance algorithm; the paper notes it
//!   relies on the same accessed bits and "would suffer from the same
//!   issues" — implemented here to demonstrate that claim.
//! * [`lfu`] — least-frequently-used via periodic accessed-bit sampling,
//!   same caveat.
//! * [`random`] — deterministic pseudo-random eviction, a lower bound.
//! * [`adaptive`] — the paper's §5.6 future work: CMCP with `p` adjusted
//!   dynamically from page-fault-frequency feedback.
//!
//! Policies are deliberately decoupled from the kernel: they see opaque
//! block identifiers ([`VirtPage`] heads) and an [`AccessBitOracle`]
//! through which accessed-bit reads — and only those — can be performed,
//! so the *only* way for a policy to obtain recency information is the
//! mechanism whose cost the paper measures.
//!
//! [`VirtPage`]: cmcp_arch::VirtPage
//! [`AccessBitOracle`]: policy::AccessBitOracle

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod clock;
pub mod cmcp;
pub mod fifo;
pub mod lfu;
pub mod lru;
pub mod policy;
pub mod random;

pub use adaptive::AdaptiveCmcpPolicy;
pub use clock::ClockPolicy;
pub use cmcp::{CmcpConfig, CmcpPolicy};
pub use fifo::FifoPolicy;
pub use lfu::LfuPolicy;
pub use lru::LruPolicy;
pub use policy::{AccessBitOracle, NullOracle, PolicyKind, ReplacementPolicy};
pub use random::RandomPolicy;
