//! # nvdimmc-core — the NVDIMM-C device, driver and baseline
//!
//! This crate assembles the paper's contribution on top of the substrate
//! crates:
//!
//! - [`refresh`] — the FPGA's CA-bus snooping pipeline: 1:8 deserializers
//!   plus the refresh-state decoder (paper §IV-A, Figure 4);
//! - [`cp`] — the 64-bit communication-protocol mailbox between the nvdc
//!   driver and the FPGA (§IV-C);
//! - [`proto`] — the pure CP transition layer (driver retransmit ladder,
//!   FPGA mailbox classification) shared with the `nvdimmc-model`
//!   exhaustive model checker;
//! - [`cache`] — the fully-associative 4 KB-slot DRAM cache with LRC
//!   (paper), LRU and CLOCK policies (§IV-B, §VII-B5);
//! - [`fpga`] — the window-serialized DMA engine: one protocol action per
//!   extra-tRFC window, real DDR4 commands on the shared bus (§III-B);
//! - [`layout`] — the reserved-region map: CP area, metadata, slots
//!   (Figure 5);
//! - [`shard`] — [`ChannelShard`]: one fully assembled memory channel,
//!   the [`BlockDevice`] the workloads drive, power-failure semantics
//!   (§V-C) and the [`QueuedDevice`] serve interface ([`System`] is the
//!   single-channel alias — the paper's artifact);
//! - [`interleave`] — the address-interleaving map that stripes the
//!   global byte space over channels at a configurable granularity;
//! - [`sched`] — the per-shard request types and the per-bank refresh
//!   planner;
//! - [`front`] — [`MultiChannelSystem`]: N shards behind the interleaver,
//!   with online repair and cross-shard persist ordering;
//! - [`mod@coalesce`] — adjacent-request merging in front of the DMA engine;
//! - [`exec`] — [`ShardExecutor`]: bounded per-shard queues whose
//!   batches are coalesced and served inline in shard order (scale-out
//!   request path, §VII-A);
//! - [`baseline`] — the emulated-NVDIMM `/dev/pmem0` comparator (§VI);
//! - [`perf`] — the calibrated software-path constants with their anchors.
//!
//! # Example
//!
//! ```
//! use nvdimmc_core::{BlockDevice, NvdimmCConfig, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = System::new(NvdimmCConfig::small_for_tests())?;
//! sys.write_at(0, &[0xA5u8; 4096])?;
//! let mut out = [0u8; 4096];
//! let latency = sys.read_at(0, &mut out)?;
//! assert_eq!(out[0], 0xA5);
//! // A DRAM-cache hit runs at DRAM speed (a few microseconds):
//! assert!(latency.as_us_f64() < 10.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod baseline;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod cp;
pub mod error;
pub mod exec;
pub mod faults;
pub mod fpga;
pub mod front;
pub mod health;
pub mod interleave;
pub mod layout;
pub mod perf;
pub mod proto;
pub mod refresh;
pub mod sched;
pub mod shard;

pub use baseline::EmulatedPmem;
pub use cache::DramCache;
pub use coalesce::{coalesce, CoalescedReq, ParentSpan};
pub use config::{Backend, EvictionPolicyKind, NvdimmCConfig, PAGE_BYTES};
pub use cp::{CpAck, CpCommand, CpOpcode};
pub use error::CoreError;
pub use exec::{Completion, ExecStats, ExecutorConfig, ShardExecutor, Submitted};
pub use faults::{FaultInjector, FaultKind, FaultPlan, RecoveryParams, RecoveryStats};
pub use fpga::{AckFault, Fpga, FpgaKept};
pub use front::{MultiChannelConfig, MultiChannelSystem};
pub use health::{DegradeReason, FailoverPolicy, HealthState, HealthTransition, RebuildReport};
pub use interleave::{InterleaveMap, Segment};
pub use layout::Layout;
pub use perf::PerfParams;
pub use proto::{AckOutcome, DriverTxn, FpgaProto, PollVerdict, RetryOutcome};
pub use refresh::{DetectorPipeline, RefreshDetector};
pub use sched::{RefreshPlanner, ReqKind, ShardRequest};
pub use shard::{
    BlockDevice, ChannelShard, CrashPoint, CrashPointKind, PowerFailReport, QueuedDevice, System,
    SystemStats,
};
