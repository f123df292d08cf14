//! Persistence-event journal: the raw material for pmemcheck-style
//! verification.
//!
//! When enabled on a [`CpuCache`](crate::CpuCache), every store, flush and
//! fence is appended to an ordered journal. Higher layers add
//! [`PersistEvent::Claim`] markers when the application declares a range
//! durable (the libpmem `persist` contract: clflush each line, then
//! sfence). The `nvdimmc-check` crate replays the journal and verifies
//! that every claimed range really was flushed and fenced — catching a
//! driver that "persists" without draining the CPU cache.

use serde::{Deserialize, Serialize};

/// One entry in the persistence journal, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PersistEvent {
    /// Bytes written through the CPU cache.
    Store {
        /// First byte address.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
    /// `clflush`: the line holding `addr` was written back (if dirty) and
    /// invalidated.
    Clflush {
        /// Line-aligned byte address.
        addr: u64,
    },
    /// `clwb`: the line holding `addr` was written back but kept resident.
    Clwb {
        /// Line-aligned byte address.
        addr: u64,
    },
    /// `sfence`: flushes issued before this point are globally visible.
    Sfence,
    /// The application declared `[addr, addr+len)` durable (emitted by the
    /// driver *after* its flush+fence sequence).
    Claim {
        /// First byte address.
        addr: u64,
        /// Length in bytes.
        len: u64,
    },
}

/// The CPU-cache line size the journal's flush events are aligned to.
pub const JOURNAL_LINE: u64 = 64;
