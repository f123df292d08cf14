//! # nvdimmc-nand — Z-NAND media, ECC and flash translation layer
//!
//! The NVDIMM-C back end: a model of the two 64 GB Z-NAND (low-latency SLC
//! NAND) packages behind the module's NVM controller, plus everything the
//! paper says the NVMC firmware implements (§III-A): "wear-leveling,
//! garbage collection, and bad-block management ... with error correction
//! code (ECC) at the granularity of 4KB".
//!
//! Layering, bottom-up:
//!
//! - [`geometry`] / [`media`] — the raw NAND array: channels, dies, planes,
//!   blocks, pages; erase-before-program and sequential-page-programming
//!   constraints; wear tracking; wear-dependent bit-error injection and
//!   occasional block failure;
//! - [`ecc`] — Hamming SEC-DED(72,64) per 64-bit word plus a page CRC-32,
//!   implemented from scratch;
//! - [`ftl`] — page-mapped flash translation layer: logical-to-physical
//!   map, greedy garbage collection, least-worn allocation (dynamic wear
//!   leveling), and bad-block remapping;
//! - [`nvmc`] — the NAND side of the NVM controller: per-channel
//!   parallelism, a bounded controller write buffer that acknowledges
//!   programs early (how the PoC hides Z-NAND's ~100 µs tPROG), and
//!   service-time accounting in simulated time;
//! - [`page`] — [`PageBuf`], page bytes held by reference, so one stored
//!   buffer travels from the media through the NVMC to the FPGA's DMA
//!   without a copy.
//!
//! # Example
//!
//! ```
//! use nvdimmc_nand::{Nvmc, NvmcConfig};
//! use nvdimmc_sim::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nvmc = Nvmc::new(NvmcConfig::small_for_tests())?;
//! let page = vec![7u8; 4096];
//! let done = nvmc.write_page(3, page.clone(), SimTime::ZERO)?;
//! let (data, _ready) = nvmc.read_page(3, done)?;
//! assert_eq!(data, page);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ecc;
pub mod error;
pub mod ftl;
pub mod geometry;
pub mod media;
pub mod nvmc;
pub mod page;

pub use ecc::{Ecc, EccStats, PageCodec};
pub use error::NandError;
pub use ftl::{Ftl, FtlConfig, FtlStats};
pub use geometry::{NandGeometry, PhysPage};
pub use media::{MediaRead, NandTiming, ZNandArray};
pub use nvmc::{Nvmc, NvmcConfig, NvmcStats};
pub use page::PageBuf;
