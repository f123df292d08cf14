//! # nvdimmc-workloads — the paper's workload suite (Table II)
//!
//! Drives any [`nvdimmc_core::BlockDevice`] (the NVDIMM-C [`System`] or
//! the emulated-pmem baseline) with the workloads the paper evaluates:
//!
//! - [`fio`] — a flexible-I/O-tester clone: random/sequential read/write
//!   sweeps over block size;
//! - [`concurrent`] — the multi-thread fio driver: one closed-loop worker
//!   per simulated thread, requests batched onto bounded per-shard
//!   queues and served by the `ShardExecutor` (the measured Figure 9);
//! - [`filecopy`] — the §VII-B1 experiment: copy a large file from a
//!   rate-capped SSD onto the device, recording throughput over time;
//! - [`stream`] — the §VII-A validation: a STREAM-like kernel that
//!   verifies every result against a host-memory oracle while the refresh
//!   detector and FPGA stay active;
//! - [`tpch`] — synthetic access-pattern profiles for the 22 TPC-H
//!   queries (SAP HANA, SF100) and the LRC/LRU hit-rate study;
//! - [`mixedload`] — the SAP in-house mixed-load benchmark: N concurrent
//!   users running checksummed transactions with end-to-end validation;
//! - [`faultcampaign`] — the one mixed-load fault driver over the
//!   multi-channel system. Campaign presets inject NAND/mailbox/window/
//!   cache/power faults mid-load; soak presets rotate dead-mailbox waves
//!   over every shard, repaired online through the failover policy, and
//!   report availability and per-health-state latency percentiles. Both
//!   drain until every fault fired, then verify byte-exact read-back and
//!   a balanced recovery ledger;
//! - [`crashsweep`] — crash-point torture: enumerate every crash
//!   boundary of a deterministic workload (bus ops, CP windows, NVMC
//!   bursts, maintenance slots), replay with a power cut armed at each,
//!   and audit recovery with the [`nvdimmc_check::check_crash`]
//!   persistence oracle;
//!   failures delta-debug to 1-minimal replayable corpus schedules.
//!
//! [`System`]: nvdimmc_core::System

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod concurrent;
pub mod crashsweep;
pub mod faultcampaign;
pub mod filecopy;
pub mod fio;
pub mod mixedload;
pub mod stream;
pub mod tpch;

pub use concurrent::{ConcurrentFio, ConcurrentReport};
pub use crashsweep::{
    CrashOp, CrashSweep, FailingPoint, Sampling, ShrunkCrash, SweepReport, TrialReport,
};
pub use faultcampaign::{CampaignReport, FaultCampaign, LatencySummary, TraceEpoch};
pub use filecopy::{CopyReport, FileCopy};
pub use fio::{FioJob, FioReport, RwMode};
pub use mixedload::{MixedLoad, MixedLoadReport};
pub use stream::{StreamReport, StreamValidator};
pub use tpch::{QueryProfile, TpchReport, TpchRunner};

/// 64-bit FNV offset basis: the start value of every scenario digest
/// (crash sweep, fault campaign).
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The scenario digests' one fold step: multiply by the FNV prime, then
/// add the value.
pub(crate) fn fnv_fold(digest: u64, value: u64) -> u64 {
    digest.wrapping_mul(FNV_PRIME).wrapping_add(value)
}
