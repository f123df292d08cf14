//! One per-channel NVDIMM-C shard: host + shared bus + FPGA + Z-NAND.
//!
//! [`ChannelShard`] owns every component of one memory channel — bus, iMC,
//! DRAM device, FPGA/NVMC/detector pipeline and DRAM-cache partition, each
//! with its own clock and stats — and plays the roles of the nvdc driver
//! (paper §IV-B/C), the DAX filesystem's `device_access` path, and the
//! experiment clock. All data moves through the simulated DRAM array and
//! NAND media, so end-to-end integrity is checkable; all timing moves
//! through the DDR4/NAND event models plus the calibrated software
//! constants in [`crate::perf::PerfParams`].
//!
//! The paper's artifact is a single DIMM on a single channel, so the
//! one-shard system is the default and [`System`] remains its name: it is
//! a type alias for `ChannelShard`. Multi-channel deployments compose
//! shards behind [`crate::front::MultiChannelSystem`]; because shards
//! share no mutable state, the [`crate::exec::ShardExecutor`] can serve
//! them in any order with the same result (see [`QueuedDevice`]).
//!
//! The shard's methods live in four modules, one per concern:
//! - `datapath` — the one op body behind every read and write, the DAX
//!   fault path, CP transactions and refresh-window servicing;
//! - `health` — fault injection, degraded mode, online repair and the
//!   power-cycle reboot;
//! - `crash` — the power-fail dump and the crash-boundary hooks of the
//!   crash sweep;
//! - `maint` — the CRC scrub and FTL housekeeping.

mod crash;
mod datapath;
mod health;
mod maint;

pub use crash::{CrashPoint, CrashPointKind, DumpReport, PowerFailReport};

use crate::cache::DramCache;
use crate::config::{NvdimmCConfig, PAGE_BYTES};
use crate::error::CoreError;
use crate::faults::{FaultInjector, RecoveryStats};
use crate::fpga::Fpga;
use crate::health::{HealthState, HealthTransition, RebuildReport};
use crate::layout::Layout;
use crate::refresh::DetectorPipeline;
use crate::sched::RefreshPlanner;
use crash::CrashHook;
use nvdimmc_ddr::{DramDevice, Imc, SharedBus, TraceEntry};
use nvdimmc_host::{CpuCache, Memory};
use nvdimmc_nand::Nvmc;
use nvdimmc_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// A simulated block device with byte-granular DAX access — the interface
/// the workload generators drive. Implemented by [`ChannelShard`]
/// (NVDIMM-C), [`crate::front::MultiChannelSystem`] and
/// [`crate::baseline::EmulatedPmem`].
pub trait BlockDevice {
    /// Exported capacity in bytes.
    fn capacity_bytes(&self) -> u64;
    /// The device's simulated clock.
    fn now(&self) -> SimTime;
    /// Advances the clock (application think time between I/Os).
    fn advance(&mut self, d: SimDuration);
    /// Reads `buf.len()` bytes at `offset`; returns the operation latency.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range accesses or internal device errors.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, CoreError>;
    /// Writes `data` at `offset`; returns the operation latency.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range accesses or internal device errors.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, CoreError>;
}

/// A device that can serve executor-queued requests.
///
/// The split that makes request-level concurrency mechanistic: the
/// *device-serial* part of an operation (bus occupancy, mapping updates,
/// CP window waits) runs on the device clock inside
/// [`QueuedDevice::serve_read`]/[`QueuedDevice::serve_write`], while the
/// issuing thread's software cost ([`QueuedDevice::pre_cost`]) and CPU
/// copy ([`QueuedDevice::copy_cost`]) elapse on the thread's own timeline
/// and overlap other threads' device phases. Implemented by
/// [`ChannelShard`] and [`crate::baseline::EmulatedPmem`]; the
/// [`crate::exec::ShardExecutor`] serves each shard's batch through it,
/// one shard after another.
pub trait QueuedDevice {
    /// Exported capacity in bytes.
    fn capacity_bytes(&self) -> u64;
    /// The device's simulated clock.
    fn clock(&self) -> SimTime;
    /// Software cost the issuing thread pays *before* the device request
    /// (syscall + fs/DAX entry, per-page driver work) — fully parallel
    /// across threads.
    fn pre_cost(&self, len: u64, write: bool) -> SimDuration;
    /// The issuing thread's own CPU copy, which overlaps the
    /// device-serial transfer.
    fn copy_cost(&self, len: u64) -> SimDuration;
    /// Serves a read whose device phase may start no earlier than
    /// `not_before`; returns the completion instant on the device clock.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range accesses or internal device errors.
    fn serve_read(
        &mut self,
        not_before: SimTime,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimTime, CoreError>;
    /// Serves a write whose device phase may start no earlier than
    /// `not_before`; returns the completion instant on the device clock.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range accesses or internal device errors.
    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError>;
    /// Moves the device's captured bus trace out, without copying it
    /// ([`crate::exec::ShardExecutor::take_traces`] calls it once per
    /// shard). Devices without trace capture return an empty vec — the
    /// default.
    fn drain_trace(&mut self) -> Vec<TraceEntry> {
        Vec::new()
    }
    /// Has no effect: the executor never calls it and no device
    /// overrides it. It stays only because the benchmark harness's timing
    /// wrapper (`nvbench/src/timing.rs`) forwards it, and will be removed
    /// together with that harness's next change (ROADMAP item 2).
    fn set_fill_priority(&mut self, _prio: u8) {}
    /// Informs the device how many requests are queued behind the one
    /// about to be served, so per-bank refresh placement can size NVMC
    /// windows down under load. Devices without a refresh planner ignore
    /// it — the default.
    fn note_queue_depth(&mut self, _depth: usize) {}
}

/// A page of zeros: what a never-written block reads as.
const ZERO_PAGE: [u8; PAGE_BYTES as usize] = [0; PAGE_BYTES as usize];

/// Zero-time backdoor [`Memory`] view of the DRAM array, used for the
/// *functional* data path (the CPU cache model needs a byte-addressable
/// backing store). Timing is accounted separately through the iMC.
struct DramBackdoor<'a>(&'a mut SharedBus);

impl Memory for DramBackdoor<'_> {
    // The layout mapper hands out only in-range addresses; an
    // out-of-range backdoor access is memory corruption and must stop
    // the simulation rather than fabricate data.
    #[allow(clippy::expect_used)]
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.0
            .device()
            .peek(addr, buf)
            .expect("backdoor read in range");
    }
    #[allow(clippy::expect_used)]
    fn write(&mut self, addr: u64, data: &[u8]) {
        self.0
            .device_mut()
            .poke(addr, data)
            .expect("backdoor write in range");
    }
    fn capacity(&self) -> u64 {
        self.0.device().mapping().capacity()
    }
}

/// System-level statistics.
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Read operations completed.
    pub reads: u64,
    /// Write operations completed.
    pub writes: u64,
    /// DAX faults taken (pages that were not resident).
    pub faults: u64,
    /// Cachefill CP transactions issued.
    pub cachefills: u64,
    /// Faults on never-written blocks served by CPU zero-fill (no CP
    /// round-trip needed).
    pub zero_fills: u64,
    /// Writeback CP transactions issued.
    pub writebacks: u64,
}

/// One fully assembled NVDIMM-C channel.
///
/// # Example
///
/// ```
/// use nvdimmc_core::{BlockDevice, NvdimmCConfig, System};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = System::new(NvdimmCConfig::small_for_tests())?;
/// let page = vec![0xA5u8; 4096];
/// sys.write_at(0, &page)?;
/// let mut out = vec![0u8; 4096];
/// sys.read_at(0, &mut out)?;
/// assert_eq!(out, page);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChannelShard {
    cfg: NvdimmCConfig,
    layout: Layout,
    bus: SharedBus,
    imc: Imc,
    cpu: CpuCache,
    nvmc: Nvmc,
    fpga: Fpga,
    cache: DramCache,
    pipeline: DetectorPipeline,
    /// Per-bank refresh placement (demand steering + deadline backstop);
    /// consulted only in [`nvdimmc_ddr::RefreshMode::PerBank`].
    planner: RefreshPlanner,
    clock: SimTime,
    phase: u8,
    /// Per-transaction CP sequence number (stable across retransmits).
    seq: u8,
    stats: SystemStats,
    /// Scheduled faults for this shard (campaign mode).
    injector: Option<FaultInjector>,
    /// Health state: `Degraded` once a CP transaction exhausted its
    /// retransmit budget (writes and NAND-backed fills are refused),
    /// `Rebuilding` while [`ChannelShard::repair`] runs.
    health: HealthState,
    /// Every health-state edge with its simulation time, for the
    /// `check::health` audit pass. Reset (like the clock) on a power
    /// cycle: each boot gets its own log.
    health_log: Vec<HealthTransition>,
    /// Conservation ledger of every rebuild attempt, oldest first.
    /// Carried across power cycles.
    rebuild_log: Vec<RebuildReport>,
    /// 1-based repair attempt counter since the shard last left
    /// `Healthy`; resets on re-admission.
    rebuild_attempt: u32,
    /// Index within a multi-channel front-end (0 for the single-channel
    /// system); carried in typed errors so callers know which shard is
    /// out.
    shard_index: u32,
    /// CRC per tracked cache slot — the driver's scrub, enabled with the
    /// injector (campaign mode only; `None` keeps the fast path exact).
    scrub: Option<HashMap<u64, u32>>,
    /// An injected power failure waiting to fire at the next checkpoint.
    power_fail_pending: bool,
    /// The driver's own recovery counters (CP retransmit machinery, cache
    /// scrub, power-fail and repair accounting), carried across power
    /// cycles. The FTL, media, FPGA and injector fields stay zero here;
    /// [`ChannelShard::recovery_stats`] fills them in from their owners.
    rec: RecoveryStats,
    /// Round-robin position of the background CRC scrub sweep
    /// ([`ChannelShard::scrub_step`]).
    scrub_cursor: u64,
    /// Crash-boundary instrumentation (crash-sweep harness only; `None`
    /// keeps the fast path untouched).
    crash: Option<CrashHook>,
    /// Monotone count of crash boundaries crossed since the hook was
    /// (re-)armed; shared by both hook modes so an enumerated index and
    /// an armed target refer to the same boundary.
    crash_counter: u64,
}

/// The single-channel system — the paper's artifact. One shard *is* the
/// whole machine in the default configuration, so the historical name
/// stays as an alias.
pub type System = ChannelShard;

/// Builds the NAND controller for `cfg`. `RecoveryParams` is the single
/// home for recovery knobs: the FTL-level retry depth is overridden from
/// it here, at every assembly, so a config cannot carry two disagreeing
/// ladder depths.
fn build_nvmc(cfg: &NvdimmCConfig) -> Result<Nvmc, CoreError> {
    let mut nvmc_cfg = cfg.nvmc;
    nvmc_cfg.ftl.read_retries = cfg.recovery.nand_read_retries;
    Ok(Nvmc::new(nvmc_cfg)?)
}

impl ChannelShard {
    /// Builds a shard from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for inconsistent configurations.
    pub fn new(cfg: NvdimmCConfig) -> Result<Self, CoreError> {
        cfg.validate().map_err(CoreError::Config)?;
        let nvmc = build_nvmc(&cfg)?;
        Ok(Self::assemble(cfg, nvmc))
    }

    fn assemble(cfg: NvdimmCConfig, nvmc: Nvmc) -> Self {
        let layout = Layout::new(0, cfg.cache_slots);
        // Round the DRAM capacity up to the device's 16-bank row stripe.
        let stripe = 8 * 1024 * 16;
        let dram_bytes = Layout::required_bytes(cfg.cache_slots)
            .max(cfg.dram_bytes)
            .div_ceil(stripe)
            * stripe;
        let device = DramDevice::new(cfg.timing, dram_bytes);
        let mut bus = SharedBus::new(device);
        bus.set_ca_capture(true);
        bus.set_refresh_mode(cfg.refresh_mode);
        let mut imc = Imc::new(&cfg.timing);
        imc.set_refresh_mode(cfg.refresh_mode);
        let fpga = Fpga::new(cfg.perf.fsm_step_delay, cfg.window_xfer_bytes);
        let cache = DramCache::new(cfg.cache_slots, cfg.eviction);
        let cpu = CpuCache::new(cfg.cpu_cache_bytes, 8);
        ChannelShard {
            layout,
            bus,
            imc,
            cpu,
            nvmc,
            fpga,
            cache,
            pipeline: DetectorPipeline::new(),
            planner: RefreshPlanner::new(cfg.timing.trefi),
            clock: SimTime::ZERO,
            phase: 0,
            seq: 0,
            cfg,
            stats: SystemStats::default(),
            injector: None,
            health: HealthState::Healthy,
            health_log: Vec::new(),
            rebuild_log: Vec::new(),
            rebuild_attempt: 0,
            shard_index: 0,
            scrub: None,
            power_fail_pending: false,
            rec: RecoveryStats::default(),
            scrub_cursor: 0,
            crash: None,
            crash_counter: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NvdimmCConfig {
        &self.cfg
    }

    /// System statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// DRAM-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// FPGA statistics.
    pub fn fpga_stats(&self) -> crate::fpga::FpgaStats {
        self.fpga.stats()
    }

    /// Shared-bus statistics.
    pub fn bus_stats(&self) -> nvdimmc_ddr::BusStats {
        self.bus.stats()
    }

    /// Refresh-detector statistics.
    pub fn detector_stats(&self) -> crate::refresh::DetectorStats {
        self.pipeline.detector().stats()
    }

    /// NAND controller statistics.
    pub fn nvmc_stats(&self) -> nvdimmc_nand::NvmcStats {
        self.nvmc.stats()
    }

    /// FTL statistics.
    pub fn ftl_stats(&self) -> nvdimmc_nand::FtlStats {
        self.nvmc.ftl_stats()
    }

    /// Host iMC statistics.
    pub fn imc_stats(&self) -> nvdimmc_ddr::imc::ImcStats {
        self.imc.stats()
    }

    /// Per-bank refresh-placement counters: `(demand_placed,
    /// deadline_forced)`. Both zero in rank-level mode.
    pub fn refresh_planner_counts(&self) -> (u64, u64) {
        self.planner.placement_counts()
    }

    /// The DRAM cache manager (hit rates, residency).
    pub fn cache(&self) -> &DramCache {
        &self.cache
    }

    /// Enables or disables bus-trace capture for `nvdimmc-check`.
    ///
    /// Enabling attaches a fresh [`nvdimmc_ddr::TraceRecorder`] to the
    /// shared bus and returns `None`. Disabling detaches the recorder and
    /// returns everything it captured (`Some`, possibly empty), so
    /// in-flight diagnostics are never silently dropped; it returns `None`
    /// when no recorder was attached.
    pub fn set_trace_capture(&mut self, on: bool) -> Option<Vec<TraceEntry>> {
        if on {
            self.bus.attach_recorder();
            None
        } else {
            self.bus.detach_recorder().map(|mut r| r.take())
        }
    }

    /// Drains the captured bus trace (empty when capture is off).
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.bus.take_trace()
    }

    /// Enables or disables the CPU-cache persistence journal for
    /// `nvdimmc-check`'s pmemcheck-style pass. Enabling clears any
    /// previously captured events.
    pub fn set_persist_journal(&mut self, on: bool) {
        self.cpu.set_journal(on);
    }

    /// Drains the captured persistence journal (empty when capture is off).
    pub fn take_persist_journal(&mut self) -> Vec<nvdimmc_host::PersistEvent> {
        self.cpu.take_journal()
    }
}

/// The accessor tests, plus the fixtures every shard test module shares.
#[cfg(test)]
mod tests {
    use super::System;
    use crate::config::{NvdimmCConfig, PAGE_BYTES};

    pub(super) fn sys() -> System {
        System::new(NvdimmCConfig::small_for_tests()).unwrap()
    }

    pub(super) fn page(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_BYTES as usize]
    }

    #[test]
    fn trace_capture_disable_returns_drained_trace() {
        use crate::shard::BlockDevice;
        // The recorder must not be silently dropped on disable.
        let mut s = sys();
        assert_eq!(s.set_trace_capture(true), None);
        s.write_at(0, &page(0x11)).unwrap();
        let trace = s.set_trace_capture(false).expect("recorder was attached");
        assert!(!trace.is_empty(), "in-flight trace must be returned");
        // Disabling again (nothing attached) yields None, not Some(empty).
        assert_eq!(s.set_trace_capture(false), None);
    }
}
