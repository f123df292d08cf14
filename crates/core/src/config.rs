//! Top-level NVDIMM-C configuration.

use crate::faults::RecoveryParams;
use crate::perf::PerfParams;
use nvdimmc_ddr::{RefreshMode, SpeedBin, TimingParams};
use nvdimmc_nand::NvmcConfig;
use nvdimmc_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// DRAM-cache slot replacement policy (paper §IV-B uses LRC; §VII-B5
/// reports an in-house LRU study; CLOCK is a common middle ground).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicyKind {
    /// Least-recently **cached**: FIFO by fill order — the paper's PoC
    /// policy ("simple to implement", possibly pathological).
    Lrc,
    /// Least-recently used.
    Lru,
    /// CLOCK (second-chance) approximation of LRU.
    Clock,
}

/// How the back end behind a cache miss is realised.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Backend {
    /// The real path: CP mailbox → FPGA → Z-NAND, serialized into
    /// extra-tRFC windows.
    Znand,
    /// The paper's *hypothetical device* (§VII-D1): misses cost a
    /// programmable delay `td` instead of FPGA communication — used to
    /// project NVDIMM-C over faster NVM media.
    Hypothetical {
        /// The programmable miss delay (the paper sweeps 0 / 1.85 / 3.9 /
        /// 7.8 µs).
        td: SimDuration,
    },
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvdimmCConfig {
    /// DDR4 timing for the shared DIMM (programmed tRFC/tREFI included).
    pub timing: TimingParams,
    /// Bytes of front-end DRAM on the module (paper: 16 GB RDIMM).
    pub dram_bytes: u64,
    /// Number of 4 KB cache slots the driver manages (paper: 15 GB worth
    /// of the 16 GB DIMM).
    pub cache_slots: u64,
    /// NAND controller + media + FTL configuration.
    pub nvmc: NvmcConfig,
    /// Eviction policy.
    pub eviction: EvictionPolicyKind,
    /// Backend realisation.
    pub backend: Backend,
    /// §VII-C optimisation 4: merge an independent writeback and
    /// cachefill into one CP command processed in parallel by the device.
    pub merge_wb_cf: bool,
    /// Max bytes the FPGA moves per extra-tRFC window (PoC: 4 KB; §VII-C
    /// optimisation 3 doubles it).
    pub window_xfer_bytes: u64,
    /// Calibrated software-path constants.
    pub perf: PerfParams,
    /// CPU L1/L2 model size (functional coherence only).
    pub cpu_cache_bytes: usize,
    /// TLB capacity in entries.
    pub tlb_entries: usize,
    /// RNG seed for the media model.
    pub seed: u64,
    /// Driver-side fault-recovery parameters (CP timeout, retransmit
    /// budget, backoff).
    pub recovery: RecoveryParams,
    /// Refresh scheduling mode: rank-level all-bank REF (the paper's
    /// mechanism, the default — legacy runs stay bit-identical) or
    /// per-bank windows with refresh–access parallelism. Defaults on
    /// deserialize so existing serialized configs load unchanged.
    #[serde(default)]
    pub refresh_mode: RefreshMode,
}

/// One 4 KB page.
pub const PAGE_BYTES: u64 = 4096;

impl NvdimmCConfig {
    /// A scaled-down system for fast tests and examples: a 32 MB module
    /// DRAM carrying 12 MB of cache slots (the fixed 16 MB metadata area
    /// dominates at this scale) over the small Z-NAND geometry, all paper
    /// mechanisms intact.
    pub fn small_for_tests() -> Self {
        NvdimmCConfig {
            timing: TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
            dram_bytes: 32 << 20,
            cache_slots: (12 << 20) / PAGE_BYTES,
            nvmc: NvmcConfig::small_for_tests(),
            eviction: EvictionPolicyKind::Lrc,
            backend: Backend::Znand,
            merge_wb_cf: false,
            window_xfer_bytes: PAGE_BYTES,
            perf: PerfParams::poc(),
            cpu_cache_bytes: 64 << 10,
            tlb_entries: 256,
            seed: 42,
            recovery: RecoveryParams::default(),
            refresh_mode: RefreshMode::RankLevel,
        }
    }

    /// Figure-scale system: every mechanism at PoC fidelity, capacities
    /// scaled 1:256 (64 MB cache slots over 512 MB Z-NAND) so the full
    /// table/figure suite runs in minutes. All *ratios* the figures
    /// depend on (cache:media, window:tREFI) match the paper.
    pub fn figure_scale() -> Self {
        NvdimmCConfig {
            dram_bytes: 96 << 20,
            cache_slots: (64 << 20) / PAGE_BYTES,
            nvmc: NvmcConfig::medium(),
            ..Self::small_for_tests()
        }
    }

    /// The paper's PoC (Table I): 16 GB DRAM cache (15 GB of slots),
    /// 128 GB Z-NAND (120 GB exported), DDR4-1600, tRFC 1.25 µs.
    pub fn poc() -> Self {
        NvdimmCConfig {
            timing: TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
            dram_bytes: 16 << 30,
            cache_slots: (15 << 30) / PAGE_BYTES,
            nvmc: NvmcConfig::znand_poc(),
            eviction: EvictionPolicyKind::Lrc,
            backend: Backend::Znand,
            merge_wb_cf: false,
            window_xfer_bytes: PAGE_BYTES,
            perf: PerfParams::poc(),
            cpu_cache_bytes: 1 << 20,
            tlb_entries: 1536,
            seed: 42,
            recovery: RecoveryParams::default(),
            refresh_mode: RefreshMode::RankLevel,
        }
    }

    /// Replaces the refresh interval (tREFI sweep experiments).
    pub fn with_trefi(mut self, trefi: SimDuration) -> Self {
        self.timing = self.timing.with_trefi(trefi);
        self
    }

    /// Replaces the eviction policy.
    pub fn with_eviction(mut self, policy: EvictionPolicyKind) -> Self {
        self.eviction = policy;
        self
    }

    /// Switches to the hypothetical-backend mode with miss delay `td`.
    pub fn with_hypothetical(mut self, td: SimDuration) -> Self {
        self.backend = Backend::Hypothetical { td };
        self
    }

    /// Replaces the refresh scheduling mode.
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.refresh_mode = mode;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cache_slots == 0 {
            return Err("cache_slots must be positive".into());
        }
        let needed = crate::layout::Layout::required_bytes(self.cache_slots);
        if needed > self.dram_bytes {
            return Err(format!(
                "{} slots need {} bytes of DRAM, only {} configured",
                self.cache_slots, needed, self.dram_bytes
            ));
        }
        if self.window_xfer_bytes == 0 || !self.window_xfer_bytes.is_multiple_of(PAGE_BYTES) {
            return Err("window_xfer_bytes must be a positive multiple of 4096".into());
        }
        if self.timing.extra_window() == SimDuration::ZERO {
            return Err("programmed tRFC leaves no extra window for the NVMC".into());
        }
        if self.refresh_mode == RefreshMode::PerBank
            && self.timing.extra_window_pb() == SimDuration::ZERO
        {
            return Err("per-bank refresh mode needs a per-bank NVMC window (tRFCpb)".into());
        }
        if self.recovery.cp_timeout_windows == 0 {
            return Err("recovery.cp_timeout_windows must be at least 1".into());
        }
        if self.recovery.cp_backoff == 0 {
            return Err("recovery.cp_backoff must be at least 1".into());
        }
        if self.recovery.dump_slot_budget == 0 {
            return Err("recovery.dump_slot_budget must be at least 1 (a dump that \
                 flushes nothing is not a persistence mechanism)"
                .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        NvdimmCConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn poc_config_matches_table1() {
        let c = NvdimmCConfig::poc();
        c.validate().unwrap();
        assert_eq!(c.dram_bytes, 16 << 30);
        assert_eq!(c.cache_slots * PAGE_BYTES, 15 << 30);
        assert_eq!(c.timing.trfc_total, SimDuration::from_ns(1250));
        assert_eq!(c.nvmc.ftl.geometry.raw_bytes(), 128 << 30);
    }

    #[test]
    fn zero_slots_rejected() {
        let mut c = NvdimmCConfig::small_for_tests();
        c.cache_slots = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversubscribed_dram_rejected() {
        let mut c = NvdimmCConfig::small_for_tests();
        c.cache_slots = c.dram_bytes / PAGE_BYTES + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn jedec_trfc_rejected() {
        let mut c = NvdimmCConfig::small_for_tests();
        c.timing = TimingParams::jedec(SpeedBin::Ddr4_1600);
        assert!(c.validate().is_err(), "no window, no NVDIMM-C");
    }

    #[test]
    fn per_bank_mode_requires_a_pb_window() {
        let mut c = NvdimmCConfig::small_for_tests().with_refresh_mode(RefreshMode::PerBank);
        c.validate().unwrap();
        // A timing set with valid rank windows but a collapsed per-bank
        // window cannot run per-bank mode.
        c.timing.trfc_pb_total = c.timing.trfc_pb;
        let err = c.validate().unwrap_err();
        assert!(err.contains("per-bank"), "{err}");
        // Rank mode does not care about the per-bank fields.
        assert!(c
            .clone()
            .with_refresh_mode(RefreshMode::RankLevel)
            .validate()
            .is_ok());
    }

    #[test]
    fn refresh_mode_defaults_to_rank_level() {
        // `#[serde(default)]` on the field resolves through this impl, so
        // serialized configs predating the field load as rank-level.
        assert_eq!(RefreshMode::default(), RefreshMode::RankLevel);
        assert_eq!(
            NvdimmCConfig::small_for_tests().refresh_mode,
            RefreshMode::RankLevel
        );
    }

    #[test]
    fn zero_dump_budget_rejected() {
        let mut c = NvdimmCConfig::small_for_tests();
        c.recovery.dump_slot_budget = 0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("dump_slot_budget"), "{err}");
    }

    #[test]
    fn builders_compose() {
        let c = NvdimmCConfig::small_for_tests()
            .with_trefi(SimDuration::from_us(3.9))
            .with_eviction(EvictionPolicyKind::Lru)
            .with_hypothetical(SimDuration::from_us(1.85));
        assert_eq!(c.timing.trefi, SimDuration::from_us(3.9));
        assert_eq!(c.eviction, EvictionPolicyKind::Lru);
        assert!(matches!(c.backend, Backend::Hypothetical { .. }));
    }
}
