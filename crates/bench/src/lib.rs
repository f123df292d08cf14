//! # nvdimmc-bench — the table/figure reproduction harness
//!
//! One function per table/figure of the paper's evaluation (§VI–§VII),
//! each returning a [`report::Figure`] whose rows pair the paper's
//! published value with the value measured on the simulated system. The
//! `figures` binary prints them.
//!
//! Figure runs use [`NvdimmCConfig::figure_scale`]: capacities scaled
//! 1:256 from Table I (64 MB DRAM cache over 512 MB Z-NAND) with every
//! timing parameter and mechanism at PoC fidelity. Absolute bandwidths
//! are therefore comparable to the paper's where the bottleneck is
//! per-operation (latency, windows); time-series x-axes scale with
//! capacity.
//!
//! [`NvdimmCConfig::figure_scale`]: nvdimmc_core::NvdimmCConfig::figure_scale

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scaleout;

pub use report::{Figure, Row};
