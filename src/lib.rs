//! # nvdimmc — umbrella crate for the NVDIMM-C reproduction
//!
//! This crate re-exports the whole workspace so applications can depend on a
//! single crate. See the individual crates for details:
//!
//! - [`sim`] — simulation time, statistics and deterministic RNG
//! - [`ddr`] — DDR4 command/timing substrate
//! - [`nand`] — Z-NAND media, ECC and flash translation layer
//! - [`host`] — host-side substrate (CPU cache, persistence journal)
//! - [`core`] — the NVDIMM-C device, driver and baseline
//! - [`workloads`] — FIO-like, file-copy, TPC-H and mixed-load generators
//! - [`check`] — trace-based protocol verifier, race detector and lint pass
//!
//! # Example
//!
//! ```
//! use nvdimmc::core::{BlockDevice, NvdimmCConfig, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = System::new(NvdimmCConfig::small_for_tests())?;
//! let page = vec![0xA5u8; 4096];
//! system.write_at(0, &page)?;
//! let mut out = vec![0u8; 4096];
//! system.read_at(0, &mut out)?;
//! assert_eq!(page, out);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nvdimmc_check as check;
pub use nvdimmc_core as core;
pub use nvdimmc_ddr as ddr;
pub use nvdimmc_host as host;
pub use nvdimmc_nand as nand;
pub use nvdimmc_sim as sim;
pub use nvdimmc_workloads as workloads;
