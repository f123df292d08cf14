//! # nvdimmc-ddr — DDR4 command/timing substrate
//!
//! A command-level model of a DDR4 memory subsystem, built for the NVDIMM-C
//! reproduction. The paper's central mechanism — serialising NVM-controller
//! accesses into the extended refresh cycle (tRFC) of a shared DRAM — is a
//! property of the DDR4 *command protocol*, so this crate models exactly
//! that layer:
//!
//! - [`Command`] — the DDR4 command set (ACT, RD, WR, PRE, PREA, REF, SRE,
//!   SRX, MRS, ZQCL, DES);
//! - [`CaPins`] — pin-level command/address encoding and the decode truth
//!   table (what the NVDIMM-C refresh detector snoops);
//! - [`TimingParams`] / [`SpeedBin`] — JEDEC timing parameters, including
//!   the programmable tRFC/tREFI the paper manipulates;
//! - [`Bank`] / [`DramDevice`] — per-bank state machines with timing
//!   checks, plus a sparse backing store so data integrity is end-to-end
//!   testable;
//! - [`SharedBus`] — a multi-master command bus that *detects* the
//!   collisions of paper Figure 2a and enforces the refresh-window
//!   discipline of Figure 2b;
//! - [`Imc`] — the host integrated memory controller: periodic refresh with
//!   precharge-all, open-page access sequences, and refresh-blocked access
//!   latency (the mechanism behind paper Figures 12–13).
//!
//! # Example
//!
//! ```
//! use nvdimmc_ddr::{Command, CaPins};
//!
//! // The state the NVDIMM-C refresh detector watches for (paper §IV-A):
//! // CKE, ACT_n, WE_n high; CS_n, RAS_n, CAS_n low.
//! let pins = CaPins::encode(&Command::Refresh);
//! assert!(pins.cke && pins.act_n && pins.we_n);
//! assert!(!pins.cs_n && !pins.ras_n && !pins.cas_n);
//! assert_eq!(CaPins::decode(&pins), Some(Command::Refresh));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bank;
pub mod bus;
pub mod ca;
pub mod command;
pub mod device;
pub mod error;
pub mod imc;
pub mod timing;
pub mod trace;

pub use bank::{Bank, BankState};
pub use bus::{BusMaster, BusStats, SharedBus};
pub use ca::{CaCapture, CaPins};
pub use command::{BankAddr, ColumnRun, Command};
pub use device::{AddressMapping, DecodedAddr, DramDevice};
pub use error::{BusViolation, DdrError};
pub use imc::{AccessKind, Imc, Io};
pub use timing::{RefreshMode, SpeedBin, TimingParams};
pub use trace::{TraceEntry, TraceRecorder};
