//! System calls offloaded to the host.
//!
//! The paper's lightweight kernel keeps only the hot paths on the
//! co-processor; "heavy system calls are shipped to and executed on the
//! host" (§2.1) over the IKC channel. File I/O — SCALE writes history
//! and restart files — is the prime example.
//!
//! [`Syscall`] is the host-side service-time catalogue.
//! [`crate::Vmm::offload_syscall`] ships a call over the kernel's
//! [`cmcp_arch::IkcChannel`] and charges the round trip (queueing
//! included) to the calling core's clock, so offload-heavy phases
//! serialize visibly, which is precisely why the kernel design keeps
//! them off the paging fast path.

use cmcp_arch::IkcMessage;

/// Host-side service-time catalogue (cycles of host work at device
/// clock), loosely calibrated to Linux syscall latencies plus the
/// host-kernel proxy thread dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syscall {
    /// `read` of `bytes` from a host file.
    Read(u64),
    /// `write` of `bytes` to a host file.
    Write(u64),
}

impl Syscall {
    /// IKC message for this call.
    pub fn message(self) -> IkcMessage {
        match self {
            Syscall::Read(bytes) => IkcMessage {
                service: 12_000,
                payload: bytes,
            },
            Syscall::Write(bytes) => IkcMessage {
                service: 15_000,
                payload: bytes,
            },
        }
    }
}
