//! Power loss: the battery-backed dirty-slot dump of §V-C, the reboot
//! through the persistent-state snapshot, and the typed crash boundaries
//! the crash-sweep harness enumerates and arms.

use super::{build_nvmc, ChannelShard, DramBackdoor};
use crate::config::PAGE_BYTES;
use crate::error::CoreError;
use nvdimmc_host::Memory;
use nvdimmc_sim::SimTime;

/// Report from a simulated power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowerFailReport {
    /// Dirty slots the FPGA dumped to Z-NAND.
    pub slots_flushed: u64,
    /// Bytes persisted.
    pub bytes_flushed: u64,
    /// Dirty slots abandoned because the hold-up energy budget
    /// ([`RecoveryParams::dump_slot_budget`]) ran out mid-walk.
    ///
    /// [`RecoveryParams::dump_slot_budget`]: crate::RecoveryParams::dump_slot_budget
    pub slots_dropped: u64,
    /// Whether CPU-cache/WPQ contents were preserved (ADR) or lost (the
    /// weak persistence domain of §V-C).
    pub adr_worked: bool,
}

/// Alias under the paper's own name for the §V-C dump: the report of the
/// battery-backed dirty-slot dump is exactly the power-fail report.
pub type DumpReport = PowerFailReport;

impl PowerFailReport {
    /// Accumulates another shard's dump into this report. Commutative
    /// and associative: counters sum, `adr_worked` ANDs (one shard's
    /// lost WPQ taints the whole machine's strong-domain claim), so the
    /// merged report is independent of shard order.
    pub fn merge(&mut self, other: &PowerFailReport) {
        self.slots_flushed += other.slots_flushed;
        self.bytes_flushed += other.bytes_flushed;
        self.slots_dropped += other.slots_dropped;
        self.adr_worked = self.adr_worked && other.adr_worked;
    }
}

/// Class of a crash boundary — an instant between two indivisible steps
/// of the shard where a power cut can land. The crash-sweep harness
/// enumerates these in a fault-free rehearsal run, then replays the same
/// workload with one boundary armed to cut power exactly there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPointKind {
    /// Between per-page bus transfers of a host read/write/persist.
    BusOp,
    /// Between refresh windows inside a CP mailbox ack wait.
    CpWindow,
    /// After one serviced refresh window's NVMC burst (mid-REFpb in
    /// per-bank mode: each banked event is its own boundary).
    NvmcBurst,
    /// Between background maintenance steps (CRC scrub, FTL
    /// housekeeping, rebuild scrub entries).
    Maintenance,
}

impl CrashPointKind {
    /// Stable name used in crash-corpus schedule files and reports.
    pub fn name(self) -> &'static str {
        match self {
            CrashPointKind::BusOp => "bus-op",
            CrashPointKind::CpWindow => "cp-window",
            CrashPointKind::NvmcBurst => "nvmc-burst",
            CrashPointKind::Maintenance => "maintenance",
        }
    }

    /// Inverse of [`CrashPointKind::name`] (corpus replay).
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "bus-op" => Some(CrashPointKind::BusOp),
            "cp-window" => Some(CrashPointKind::CpWindow),
            "nvmc-burst" => Some(CrashPointKind::NvmcBurst),
            "maintenance" => Some(CrashPointKind::Maintenance),
            _ => None,
        }
    }
}

/// One enumerated crash boundary: its global index within the shard's
/// boundary sequence, its class, and the simulated instant it was
/// crossed during the rehearsal run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Position in the shard's deterministic boundary sequence; arming
    /// this index cuts power at exactly this point on replay.
    pub index: u64,
    /// Boundary class.
    pub kind: CrashPointKind,
    /// Simulated time the rehearsal run crossed the boundary.
    pub at: SimTime,
}

/// Crash-boundary instrumentation mode (None on the fast path).
#[derive(Debug, Clone)]
pub(super) enum CrashHook {
    /// Rehearsal: record every boundary crossed.
    Enumerate { points: Vec<CrashPoint> },
    /// Torture replay: cut power when boundary `target` is crossed.
    Armed { target: u64 },
}

impl ChannelShard {
    /// Crosses one crash boundary of class `kind`: a no-op on the fast
    /// path, a recording in rehearsal mode, a power cut
    /// ([`CoreError::PowerInterrupted`]) when this boundary is armed.
    pub(super) fn crash_tick(&mut self, kind: CrashPointKind) -> Result<(), CoreError> {
        let Some(hook) = &mut self.crash else {
            return Ok(());
        };
        let index = self.crash_counter;
        self.crash_counter += 1;
        match hook {
            CrashHook::Enumerate { points } => {
                points.push(CrashPoint {
                    index,
                    kind,
                    at: self.clock,
                });
                Ok(())
            }
            CrashHook::Armed { target } => {
                if index == *target {
                    // Fire once; the counter keeps advancing so a later
                    // rehearsal over the recovered shard starts fresh.
                    self.crash = None;
                    self.rec.power_fails_fired += 1;
                    Err(CoreError::PowerInterrupted)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Starts a rehearsal: every crash boundary crossed from here on is
    /// recorded (and the boundary counter restarts at zero).
    pub fn crash_enumerate_begin(&mut self) {
        self.crash = Some(CrashHook::Enumerate { points: Vec::new() });
        self.crash_counter = 0;
    }

    /// Ends a rehearsal and returns the boundaries it crossed (empty if
    /// no rehearsal was running).
    pub fn crash_enumerate_take(&mut self) -> Vec<CrashPoint> {
        match self.crash.take() {
            Some(CrashHook::Enumerate { points }) => points,
            _ => Vec::new(),
        }
    }

    /// Arms a power cut at boundary index `target` (counted from zero,
    /// restarting now). Replaying the rehearsal workload then fails with
    /// [`CoreError::PowerInterrupted`] exactly at that boundary.
    pub fn crash_arm(&mut self, target: u64) {
        self.crash = Some(CrashHook::Armed { target });
        self.crash_counter = 0;
    }

    /// Disarms any crash hook without firing it.
    pub fn crash_disarm(&mut self) {
        self.crash = None;
    }

    /// Whether an armed crash point is still waiting to fire.
    pub fn crash_armed(&self) -> bool {
        matches!(self.crash, Some(CrashHook::Armed { .. }))
    }

    /// Crash boundaries crossed since the hook was last (re)armed.
    pub fn crash_boundaries_crossed(&self) -> u64 {
        self.crash_counter
    }

    /// Crosses one [`CrashPointKind::Maintenance`] boundary. The
    /// maintenance scheduler's host drives [`ChannelShard::scrub_step`]
    /// and [`ChannelShard::ftl_housekeeping`] in bounded steps; calling
    /// this between steps lets the crash sweep land a power cut
    /// mid-scrub or mid-GC without changing those entry points.
    ///
    /// # Errors
    ///
    /// [`CoreError::PowerInterrupted`] when this boundary is armed.
    pub fn crash_tick_maintenance(&mut self) -> Result<(), CoreError> {
        self.crash_tick(CrashPointKind::Maintenance)
    }

    /// Simulates a power failure (§V-C): the battery-backed FPGA walks the
    /// metadata area and dumps every dirty slot to Z-NAND, ignoring the
    /// tRFC serialisation (the host is dead). With `adr_works == false`,
    /// CPU-cache contents that were never flushed are lost first — the
    /// weak persistence domain.
    ///
    /// # Errors
    ///
    /// Propagates NAND errors from the dump.
    pub fn power_fail(&mut self, adr_works: bool) -> Result<PowerFailReport, CoreError> {
        self.cpu
            .journal_push(nvdimmc_host::PersistEvent::PowerFail { adr: adr_works });
        if adr_works {
            self.cpu.flush_all(&mut DramBackdoor(&mut self.bus));
        } else {
            self.cpu.discard_all();
        }
        let entries: Vec<(u64, u64, bool)> = self.cache.resident_entries().collect();
        let mut report = PowerFailReport {
            adr_worked: adr_works,
            ..PowerFailReport::default()
        };
        // The hold-up budget caps how many dirty slots the dump walks;
        // `resident_entries` iterates in slot order, so which slots are
        // abandoned under a starved budget is deterministic.
        let budget = self.cfg.recovery.dump_slot_budget;
        for (slot, page, dirty) in entries {
            if !dirty {
                continue;
            }
            if report.slots_flushed >= budget {
                report.slots_dropped += 1;
                continue;
            }
            let mut data = vec![0u8; PAGE_BYTES as usize];
            let addr = self.layout.slot_addr(slot);
            DramBackdoor(&mut self.bus).read(addr, &mut data);
            self.nvmc.write_page(page, &data, self.clock)?;
            report.slots_flushed += 1;
            report.bytes_flushed += PAGE_BYTES;
        }
        Ok(report)
    }

    /// Crash-sweep variant of [`ChannelShard::into_recovered`]: reboots
    /// through the persistent-state snapshot APIs so *only* what the
    /// Z-NAND media and the FTL map actually hold survives. The NVMC's
    /// timing-side state (inflight/buffered windows, die busy times)
    /// drops with the power, exactly as on real hardware; the carried
    /// ledgers (FPGA counters, driver recovery stats, fault injector,
    /// sequence number) follow the same rules as `into_recovered`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (none expected for a config that
    /// already booted once).
    pub fn into_crash_recovered(mut self) -> Result<ChannelShard, CoreError> {
        let snap = self.nvmc.snapshot();
        let mut fresh = build_nvmc(&self.cfg)?;
        fresh.restore(&snap);
        self.nvmc = fresh;
        self.into_recovered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NvdimmCConfig;
    use crate::shard::tests::{page, sys};
    use crate::shard::{BlockDevice, System};

    #[test]
    fn power_fail_persists_dirty_data() {
        let mut s = sys();
        s.write_at(0, &page(0xEE)).unwrap();
        s.write_at(PAGE_BYTES, &page(0xDD)).unwrap();
        let report = s.power_fail(true).unwrap();
        assert!(report.slots_flushed >= 2);
        let mut s2 = s.into_recovered().unwrap();
        let mut out = page(0);
        s2.read_at(0, &mut out).unwrap();
        assert_eq!(out, page(0xEE));
        s2.read_at(PAGE_BYTES, &mut out).unwrap();
        assert_eq!(out, page(0xDD));
    }

    #[test]
    fn power_fail_without_adr_loses_unflushed_cpu_lines() {
        // §V-C weak persistence domain: stores still in the CPU cache at
        // power failure are lost without ADR...
        let mut s = sys();
        s.write_at(0, b"fresh-data-here!").unwrap();
        let _ = s.power_fail(false).unwrap();
        let mut s2 = s.into_recovered().unwrap();
        let mut out = [0u8; 16];
        s2.read_at(0, &mut out).unwrap();
        assert_ne!(&out, b"fresh-data-here!", "unflushed store must be lost");
    }

    #[test]
    fn persist_barrier_survives_weak_domain_power_fail() {
        // ...but data the application persisted (clflush+sfence, the
        // libpmem contract) survives via the FPGA dump.
        let mut s = sys();
        s.write_at(0, b"fresh-data-here!").unwrap();
        s.persist(0, 16).unwrap();
        let report = s.power_fail(false).unwrap();
        assert!(report.slots_flushed >= 1);
        let mut s2 = s.into_recovered().unwrap();
        let mut out = [0u8; 16];
        s2.read_at(0, &mut out).unwrap();
        assert_eq!(&out, b"fresh-data-here!");
    }

    /// A small mixed workload exercising every boundary class: writes
    /// and reads (bus ops), evictions (CP windows + NVMC bursts via the
    /// tiny cache), and a persist (torn-flush window).
    fn crash_workload(s: &mut System) -> Result<(), CoreError> {
        for i in 0..6u64 {
            s.write_at(i * PAGE_BYTES, &page(0x50 + i as u8))?;
        }
        s.persist(0, 2 * PAGE_BYTES)?;
        let mut buf = page(0);
        s.read_at(3 * PAGE_BYTES, &mut buf)?;
        Ok(())
    }

    fn tiny_cache_sys() -> System {
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = 4;
        System::new(cfg).unwrap()
    }

    #[test]
    fn crash_enumeration_is_deterministic_and_multiclass() {
        let enumerate = || {
            let mut s = tiny_cache_sys();
            s.crash_enumerate_begin();
            crash_workload(&mut s).unwrap();
            s.crash_enumerate_take()
        };
        let a = enumerate();
        let b = enumerate();
        assert_eq!(a, b, "rehearsal must be bit-identical across runs");
        assert!(!a.is_empty());
        // Indices are dense and ordered.
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.index, i as u64);
        }
        // The tiny cache forces evictions, so every non-maintenance
        // boundary class appears.
        for kind in [
            CrashPointKind::BusOp,
            CrashPointKind::CpWindow,
            CrashPointKind::NvmcBurst,
        ] {
            assert!(
                a.iter().any(|p| p.kind == kind),
                "workload must cross a {} boundary",
                kind.name()
            );
        }
    }

    #[test]
    fn armed_crash_fires_at_the_exact_boundary() {
        let mut s = tiny_cache_sys();
        s.crash_enumerate_begin();
        crash_workload(&mut s).unwrap();
        let points = s.crash_enumerate_take();
        let target = points.len() as u64 / 2;
        let mut s = tiny_cache_sys();
        s.crash_arm(target);
        let err = crash_workload(&mut s).unwrap_err();
        assert!(matches!(err, CoreError::PowerInterrupted), "{err}");
        assert_eq!(
            s.crash_boundaries_crossed(),
            target + 1,
            "cut exactly at boundary {target}"
        );
        assert!(!s.crash_armed(), "hook disarms after firing");
    }

    #[test]
    fn unarmed_and_disarmed_runs_complete() {
        let mut s = tiny_cache_sys();
        crash_workload(&mut s).unwrap();
        let mut s = tiny_cache_sys();
        s.crash_arm(9_999_999);
        s.crash_disarm();
        crash_workload(&mut s).unwrap();
        assert_eq!(s.crash_boundaries_crossed(), 0, "disarm clears the hook");
    }

    #[test]
    fn crash_recovery_keeps_persisted_data_and_drops_timing_state() {
        let mut s = tiny_cache_sys();
        // Page 100 is outside the crash workload's footprint, so the
        // record's generation cannot advance after the persist.
        let rec = 100 * PAGE_BYTES;
        s.write_at(rec, b"persisted-record").unwrap();
        s.persist(rec, 16).unwrap();
        // Arm a cut inside a later batch of writes.
        s.crash_arm(3);
        let err = crash_workload(&mut s).unwrap_err();
        assert!(matches!(err, CoreError::PowerInterrupted), "{err}");
        let report = s.power_fail(true).unwrap();
        assert!(report.adr_worked);
        let mut s2 = s.into_crash_recovered().unwrap();
        let mut out = [0u8; 16];
        s2.read_at(rec, &mut out).unwrap();
        assert_eq!(&out, b"persisted-record");
        let rs = s2.recovery_stats();
        assert_eq!(rs.power_fails_fired, 1);
        assert_eq!(rs.power_fails_recovered, 1);
    }

    #[test]
    fn maintenance_tick_is_a_crash_boundary() {
        let mut s = tiny_cache_sys();
        s.crash_arm(0);
        let err = s.crash_tick_maintenance().unwrap_err();
        assert!(matches!(err, CoreError::PowerInterrupted), "{err}");
        // Once fired, further maintenance ticks pass.
        s.crash_tick_maintenance().unwrap();
    }

    #[test]
    fn crash_point_kind_names_roundtrip() {
        for kind in [
            CrashPointKind::BusOp,
            CrashPointKind::CpWindow,
            CrashPointKind::NvmcBurst,
            CrashPointKind::Maintenance,
        ] {
            assert_eq!(CrashPointKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(CrashPointKind::from_name("nonsense"), None);
    }
}
