//! Power loss: the typed crash boundaries where a cut lands (armed by
//! the crash sweep or by an injected `PowerFail`), and the one power
//! cycle of §V-C — the battery-backed dirty-slot dump followed by a
//! reboot that rebuilds the shard's boot half and keeps its durable
//! half.

use super::{Boot, ChannelShard, DramBackdoor};
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
        let Some(hook) = &mut self.boot.crash else {
            return Ok(());
        };
        let index = self.boot.crash_counter;
        self.boot.crash_counter += 1;
        match hook {
            CrashHook::Enumerate { points } => {
                points.push(CrashPoint {
                    index,
                    kind,
                    at: self.boot.clock,
                });
                Ok(())
            }
            CrashHook::Armed { target } => {
                if index == *target {
                    // Fire once; the counter keeps advancing so a later
                    // rehearsal over the recovered shard starts fresh.
                    self.boot.crash = None;
                    self.kept.rec.power_fails_fired += 1;
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
        self.boot.crash = Some(CrashHook::Enumerate { points: Vec::new() });
        self.boot.crash_counter = 0;
    }

    /// Ends a rehearsal and returns the boundaries it crossed (empty if
    /// no rehearsal was running).
    pub fn crash_enumerate_take(&mut self) -> Vec<CrashPoint> {
        match self.boot.crash.take() {
            Some(CrashHook::Enumerate { points }) => points,
            _ => Vec::new(),
        }
    }

    /// Arms a power cut at boundary index `target` (counted from zero,
    /// restarting now). Replaying the rehearsal workload then fails with
    /// [`CoreError::PowerInterrupted`] exactly at that boundary.
    pub fn crash_arm(&mut self, target: u64) {
        self.boot.crash = Some(CrashHook::Armed { target });
        self.boot.crash_counter = 0;
    }

    /// Disarms any crash hook without firing it.
    pub fn crash_disarm(&mut self) {
        self.boot.crash = None;
    }

    /// Whether an armed crash point is still waiting to fire.
    pub fn crash_armed(&self) -> bool {
        matches!(self.boot.crash, Some(CrashHook::Armed { .. }))
    }

    /// Crash boundaries crossed since the hook was last (re)armed.
    pub fn crash_boundaries_crossed(&self) -> u64 {
        self.boot.crash_counter
    }

    /// Crosses one [`CrashPointKind::Maintenance`] boundary. Callers
    /// drive [`ChannelShard::scrub_step`] and
    /// [`ChannelShard::ftl_housekeeping`] in bounded steps; calling this
    /// between steps lets the crash sweep land a power cut mid-scrub or
    /// mid-GC without changing those entry points.
    ///
    /// # Errors
    ///
    /// [`CoreError::PowerInterrupted`] when this boundary is armed.
    pub fn crash_tick_maintenance(&mut self) -> Result<(), CoreError> {
        self.crash_tick(CrashPointKind::Maintenance)
    }

    /// One power cycle (§V-C): the battery-backed FPGA dumps every dirty
    /// slot to Z-NAND, then the shard reboots from what the NAND holds.
    /// With `adr_works == false`, CPU-cache contents that were never
    /// flushed are lost first — the weak persistence domain.
    ///
    /// The reboot keeps the shard's durable half and rebuilds its boot
    /// half from the configuration (DESIGN.md §12 lists both). The bus
    /// trace recorder and the persistence journal are boot state, so the
    /// reboot drops them: drain them first, with
    /// [`ChannelShard::set_trace_capture`]`(false)` (as the fault
    /// campaign's `splice_traces` does) and
    /// [`ChannelShard::take_persist_journal`], and re-enable them after.
    ///
    /// # Errors
    ///
    /// Propagates NAND errors from the dump.
    pub fn power_cycle(&mut self, adr_works: bool) -> Result<PowerFailReport, CoreError> {
        let report = self.dump(adr_works)?;
        self.reboot();
        Ok(report)
    }

    /// The dump half of [`ChannelShard::power_cycle`]: walks the metadata
    /// area and writes every dirty slot to Z-NAND, ignoring the tRFC
    /// serialisation (the host is dead).
    pub(crate) fn dump(&mut self, adr_works: bool) -> Result<PowerFailReport, CoreError> {
        let b = &mut self.boot;
        if adr_works {
            b.cpu.flush_all(&mut DramBackdoor(&mut b.bus));
        } else {
            b.cpu.discard_all();
        }
        let entries: Vec<(u64, u64, bool)> = self.boot.cache.resident_entries().collect();
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
            let addr = self.boot.layout.slot_addr(slot);
            DramBackdoor(&mut self.boot.bus).read(addr, &mut data);
            self.kept.nvmc.write_page(page, data, self.boot.clock)?;
            report.slots_flushed += 1;
            report.bytes_flushed += PAGE_BYTES;
        }
        Ok(report)
    }

    /// The reboot half of [`ChannelShard::power_cycle`]: a fresh boot
    /// half over the kept one, whose controller drops its write buffer
    /// and die clocks with the power.
    pub(crate) fn reboot(&mut self) {
        self.boot = Boot::new(&self.cfg);
        self.kept.nvmc.power_cycle();
        self.kept.rec.power_fails_recovered = self.kept.rec.power_fails_fired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NvdimmCConfig;
    use crate::faults::{FaultKind, FaultPlan, RecoveryStats};
    use crate::fpga::FpgaStats;
    use crate::shard::tests::{page, sys};
    use crate::shard::{BlockDevice, System};

    #[test]
    fn power_fail_persists_dirty_data() {
        let mut s = sys();
        s.write_at(0, &page(0xEE)).unwrap();
        s.write_at(PAGE_BYTES, &page(0xDD)).unwrap();
        let report = s.power_cycle(true).unwrap();
        assert!(report.slots_flushed >= 2);
        let mut out = page(0);
        s.read_at(0, &mut out).unwrap();
        assert_eq!(out, page(0xEE));
        s.read_at(PAGE_BYTES, &mut out).unwrap();
        assert_eq!(out, page(0xDD));
    }

    #[test]
    fn power_fail_without_adr_loses_unflushed_cpu_lines() {
        // §V-C weak persistence domain: stores still in the CPU cache at
        // power failure are lost without ADR...
        let mut s = sys();
        s.write_at(0, b"fresh-data-here!").unwrap();
        let _ = s.power_cycle(false).unwrap();
        let mut out = [0u8; 16];
        s.read_at(0, &mut out).unwrap();
        assert_ne!(&out, b"fresh-data-here!", "unflushed store must be lost");
    }

    #[test]
    fn persist_barrier_survives_weak_domain_power_fail() {
        // ...but data the application persisted (clflush+sfence, the
        // libpmem contract) survives via the FPGA dump.
        let mut s = sys();
        s.write_at(0, b"fresh-data-here!").unwrap();
        s.persist(0, 16).unwrap();
        let report = s.power_cycle(false).unwrap();
        assert!(report.slots_flushed >= 1);
        let mut out = [0u8; 16];
        s.read_at(0, &mut out).unwrap();
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
        let report = s.power_cycle(true).unwrap();
        assert!(report.adr_worked);
        let mut out = [0u8; 16];
        s.read_at(rec, &mut out).unwrap();
        assert_eq!(&out, b"persisted-record");
        let rs = s.recovery_stats();
        assert_eq!(rs.power_fails_fired, 1);
        assert_eq!(rs.power_fails_recovered, 1);
    }

    #[test]
    fn reboot_resets_the_nand_timing_domain() {
        // A burst of dirty evictions leaves the NVMC's SRAM buffer full
        // of programs and the die-busy clocks far ahead of the new boot's
        // clock zero.
        let mut s = tiny_cache_sys();
        for i in 0..64u64 {
            s.write_at(i * PAGE_BYTES, &page(0x60 | (i % 16) as u8))
                .unwrap();
        }
        assert!(s.stats().writebacks >= 32, "burst reached NAND");
        s.power_cycle(true).unwrap();
        // Fill the new boot's cache with dirty never-written pages
        // (zero-fills, no NAND traffic)...
        for i in 0..4u64 {
            s.write_at((1000 + i) * PAGE_BYTES, &page(0x70)).unwrap();
        }
        // ...so the first NAND-backed miss is a full writeback plus
        // cachefill. It waits on nothing of the dead boot's NAND timing:
        // it finishes within the ordinary Uncached bound.
        let mut buf = page(0);
        let lat = s.read_at(0, &mut buf).unwrap().as_us_f64();
        assert_eq!(buf, page(0x60), "data came back from NAND");
        assert_eq!(s.stats().writebacks, 1, "the miss wrote a victim back");
        assert!(lat < 90.0, "first Uncached miss after reboot = {lat:.2}us");
    }

    /// FPGA faults armed but not yet consumed.
    fn armed_fpga_faults(s: &System) -> usize {
        s.kept.fpga.armed_faults()
    }

    /// A shard holding some of every durable fact: an injector (so scrub
    /// is on), shard index 3, a retransmit, a rebuild, a fired power cut
    /// and one armed FPGA fault still pending, with a bus recorder on.
    fn partitioned_shard() -> System {
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = 4;
        cfg.recovery.cp_max_retransmits = 1;
        let mut s = System::new(cfg).unwrap();
        s.set_shard_index(3);
        let plan = FaultPlan::new(7).with(FaultKind::AckDrop, 1).horizon(2);
        s.attach_injector(plan.build_injectors(1).remove(0));
        // Evictions drive writebacks; the first ack is dropped and its
        // retransmit recovers.
        for i in 0..8u64 {
            s.write_at(i * PAGE_BYTES, &page(0x30 + i as u8)).unwrap();
        }
        // Two more drops exhaust the two-attempt budget: degrade, repair.
        s.inject_fault(FaultKind::AckDrop);
        s.inject_fault(FaultKind::AckDrop);
        let mut buf = page(0);
        let err = s.read_at(0, &mut buf).unwrap_err();
        assert!(matches!(err, CoreError::CpTimeout { .. }), "{err}");
        s.repair().unwrap();
        // A power cut fires at the next boundary...
        s.inject_fault(FaultKind::PowerFail);
        let err = s.read_at(7 * PAGE_BYTES, &mut buf).unwrap_err();
        assert!(matches!(err, CoreError::PowerInterrupted), "{err}");
        // ...with a window stall armed behind it.
        s.inject_fault(FaultKind::WindowOverrun);
        assert_eq!(s.set_trace_capture(true), None);
        s
    }

    #[test]
    fn power_cycle_keeps_the_durable_half_and_rebuilds_the_boot_half() {
        // The twin dumps but does not reboot: everything durable it holds
        // is what the rebooted shard must still hold.
        let mut twin = partitioned_shard();
        let twin_report = twin.dump(true).unwrap();
        let mut s = partitioned_shard();
        assert_eq!(s.power_cycle(true).unwrap(), twin_report);
        let fresh = System::new(s.config().clone()).unwrap();

        // Durable half: carried over.
        let kept = twin.recovery_stats();
        assert_eq!(kept.cp_retransmits, 2, "{kept:?}");
        assert_eq!(kept.power_fails_fired, 1);
        assert_eq!(kept.power_fails_recovered, 0);
        assert_eq!(
            s.recovery_stats(),
            RecoveryStats {
                power_fails_recovered: 1,
                ..kept
            }
        );
        assert_eq!(s.nvmc_stats(), twin.nvmc_stats());
        assert_eq!(s.ftl_stats(), twin.ftl_stats());
        assert_eq!(s.rebuild_reports().len(), 1);
        assert_eq!(s.rebuild_reports(), twin.rebuild_reports());
        assert_eq!(armed_fpga_faults(&twin), 1);
        assert_eq!(armed_fpga_faults(&s), 1);
        let (inj, twin_inj) = (s.injector().unwrap(), twin.injector().unwrap());
        assert_eq!(inj.counts(), twin_inj.counts());
        assert_eq!(inj.pending(), twin_inj.pending());
        let f = twin.fpga_stats();
        assert_eq!(
            s.fpga_stats(),
            FpgaStats {
                probes: f.probes,
                acks_dropped: f.acks_dropped,
                acks_corrupted: f.acks_corrupted,
                cmd_decode_failures: f.cmd_decode_failures,
                nand_errors_nacked: f.nand_errors_nacked,
                replayed_acks: f.replayed_acks,
                overrun_stalls: f.overrun_stalls,
                bursts_split: f.bursts_split,
                bursts_resumed: f.bursts_resumed,
                ..fresh.fpga_stats()
            }
        );

        // Boot half: equal to a freshly built shard's.
        assert_ne!(twin.bus_stats(), fresh.bus_stats(), "the twin ran traffic");
        assert_eq!(format!("{:?}", s.stats()), format!("{:?}", fresh.stats()));
        assert_eq!(s.bus_stats(), fresh.bus_stats());
        assert_eq!(s.imc_stats(), fresh.imc_stats());
        assert_eq!(s.cache_stats(), fresh.cache_stats());
        assert_eq!(s.detector_stats(), fresh.detector_stats());
        assert_eq!(s.refresh_planner_counts(), fresh.refresh_planner_counts());
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.health(), crate::health::HealthState::Healthy);
        assert!(!twin.health_log().is_empty());
        assert!(s.health_log().is_empty());
        assert!(!s.crash_armed());
        assert_eq!(s.crash_boundaries_crossed(), 0);
        assert!(s.crash_enumerate_take().is_empty());
        // The reboot dropped the recorder attached before the cycle.
        assert_eq!(s.set_trace_capture(false), None);

        // The data came through, and typed errors still name shard 3.
        let mut buf = page(0);
        for i in 0..8u64 {
            s.read_at(i * PAGE_BYTES, &mut buf).unwrap();
            assert_eq!(buf, page(0x30 + i as u8), "page {i}");
        }
        // Page 0 was evicted clean, so reading it again is a cachefill.
        s.inject_fault(FaultKind::AckDrop);
        s.inject_fault(FaultKind::AckDrop);
        let err = s.read_at(0, &mut buf).unwrap_err();
        assert!(matches!(err, CoreError::CpTimeout { .. }), "{err}");
        let err = s.write_at(0, &page(1)).unwrap_err();
        assert!(
            matches!(err, CoreError::DegradedShard { shard: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn injected_power_fail_cuts_at_the_next_crash_boundary() {
        let mut s = sys();
        s.write_at(0, &page(0x11)).unwrap();
        assert!(s.faults_quiescent());
        assert!(s.inject_fault(FaultKind::PowerFail));
        assert!(!s.faults_quiescent(), "an armed cut is outstanding");
        let mut buf = page(0);
        let err = s.read_at(0, &mut buf).unwrap_err();
        assert!(matches!(err, CoreError::PowerInterrupted), "{err}");
        assert_eq!(s.crash_boundaries_crossed(), 1, "cut at the first boundary");
        assert_eq!(s.recovery_stats().power_fails_fired, 1);
        assert!(s.faults_quiescent(), "the cut fired once");
        s.power_cycle(true).unwrap();
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, page(0x11));
        assert_eq!(s.recovery_stats().power_fails_recovered, 1);
    }

    #[test]
    fn injected_power_fail_cuts_a_persist_at_its_first_clflush() {
        let mut s = sys();
        s.write_at(0, &page(0x22)).unwrap();
        assert!(s.inject_fault(FaultKind::PowerFail));
        let err = s.persist(0, 2 * PAGE_BYTES).unwrap_err();
        assert!(matches!(err, CoreError::PowerInterrupted), "{err}");
        assert_eq!(s.crash_boundaries_crossed(), 1, "cut at the first clflush");
        assert!(s.faults_quiescent());
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
