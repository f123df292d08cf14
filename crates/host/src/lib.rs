//! # nvdimmc-host — host-side substrate
//!
//! Models the pieces of the x86-64 host that NVDIMM-C's software stack
//! leans on (paper §II, §IV-B, §V-B/C):
//!
//! - [`Memory`] — a byte-addressable backing-store trait shared by the CPU
//!   cache and the devices behind it;
//! - [`CpuCache`] — a set-associative write-back cache with `clflush` /
//!   `clwb` / `invd`-style line operations and an `sfence` marker, enough
//!   to reproduce the paper's cache-incoherence scenarios and the nvdc
//!   driver's explicit-coherence protocol;
//! - [`PageTable`] / [`Tlb`] — virtual-to-physical mapping with
//!   TLB-miss/page-fault semantics, the mechanism DAX rides on;
//! - [`PersistEvent`] — the ordered store/flush/fence journal a
//!   [`CpuCache`] records for pmemcheck-style verification.
//!
//! # Example
//!
//! ```
//! use nvdimmc_host::{CpuCache, Memory, VecMemory};
//!
//! let mut mem = VecMemory::new(1 << 16);
//! let mut cache = CpuCache::new(4096, 4);
//! cache.store(&mut mem, 0x100, &[1, 2, 3]);
//! // The store is cached, not yet in memory:
//! let mut raw = [0u8; 3];
//! mem.read(0x100, &mut raw);
//! assert_eq!(raw, [0, 0, 0]);
//! cache.clflush(&mut mem, 0x100);
//! mem.read(0x100, &mut raw);
//! assert_eq!(raw, [1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu_cache;
pub mod journal;
pub mod memory;
pub mod paging;

pub use cpu_cache::{CacheStats, CpuCache};
pub use journal::PersistEvent;
pub use memory::{Memory, VecMemory};
pub use paging::{PageFault, PageTable, Pte, Tlb};
