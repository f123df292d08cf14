//! The shared command/address bus between the host iMC and the NVMC.
//!
//! This is the crux of the paper (§III-B): both masters are wired to the
//! same DRAM, and nothing in DDR4 arbitrates between them. The bus model
//! therefore *detects* every way they can step on each other (Figure 2a
//! cases C1/C2) and enforces the paper's discipline (Figure 2b): the NVMC
//! may only drive the bus inside the extra-tRFC window that follows a
//! host-issued REFRESH, and must leave every bank precharged when the
//! window closes.

use crate::ca::CaPins;
use crate::command::{BankAddr, Command};
use crate::device::DramDevice;
use crate::error::BusViolation;
use crate::timing::RefreshMode;
use crate::trace::{TraceEntry, TraceRecorder};
use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies which master drives a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusMaster {
    /// The host integrated memory controller.
    HostImc,
    /// The NVDIMM-C internal controller (the FPGA / NVMC).
    Nvmc,
}

impl std::fmt::Display for BusMaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BusMaster::HostImc => "host iMC",
            BusMaster::Nvmc => "NVMC",
        })
    }
}

/// The refresh window the NVMC may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshWindow {
    /// When REFRESH was issued.
    pub ref_at: SimTime,
    /// End of the device's real refresh (tRFC_base): the window opens here.
    pub opens: SimTime,
    /// End of the programmed tRFC: the window closes here and the host may
    /// resume.
    pub closes: SimTime,
}

impl RefreshWindow {
    /// Whether `at` falls inside the NVMC-usable part of the window.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.opens && at < self.closes
    }

    /// The usable window length.
    pub fn len(&self) -> SimDuration {
        self.closes.since(self.opens)
    }

    /// Whether the window has zero usable length.
    pub fn is_empty(&self) -> bool {
        self.opens >= self.closes
    }
}

/// Aggregate bus counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusStats {
    /// Commands accepted from the host iMC.
    pub host_commands: u64,
    /// Commands accepted from the NVMC.
    pub nvmc_commands: u64,
    /// REFRESH commands observed (each opens one NVMC window).
    pub refreshes: u64,
    /// Data bytes moved by the NVMC inside windows.
    pub nvmc_bytes: u64,
    /// Data bytes moved by the host.
    pub host_bytes: u64,
    /// Hazardous violations rejected (CA conflicts, NVMC outside its
    /// window, bank-state corruption) — real-hardware memory errors.
    pub violations_rejected: u64,
    /// Benign timing rejections (tCCD/tRAS/refresh blocks) that the iMC's
    /// retry-at-legal-time loop converts into waits.
    pub retries_rejected: u64,
}

/// The shared DDR4 bus: one [`DramDevice`], two masters, full conflict
/// detection.
///
/// # Example
///
/// ```
/// use nvdimmc_ddr::{BusMaster, Command, DramDevice, SharedBus, SpeedBin, TimingParams};
/// use nvdimmc_sim::SimTime;
///
/// let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
/// let device = DramDevice::new(timing, 1 << 27);
/// let mut bus = SharedBus::new(device);
///
/// // The NVMC may not touch the bus outside a refresh window:
/// let err = bus.issue(BusMaster::Nvmc, SimTime::from_ns(100), Command::PrechargeAll);
/// assert!(err.is_err());
/// ```
#[derive(Debug)]
pub struct SharedBus {
    device: DramDevice,
    /// CA bus occupied until this instant (one command per tCK).
    ca_busy_until: SimTime,
    last_cmd: Option<(BusMaster, Command)>,
    window: Option<RefreshWindow>,
    /// Per-bank NVMC windows (refresh-access parallelism mode): each entry
    /// is the window opened by the most recent REFpb to that bank. The
    /// host is blocked only in the refreshing bank.
    bank_windows: [Option<RefreshWindow>; BankAddr::COUNT as usize],
    /// Refresh scheduling mode; governs CA arbitration between masters.
    mode: RefreshMode,
    /// Host must stay silent until here (programmed tRFC after REF).
    host_blocked_until: SimTime,
    stats: BusStats,
    capture_ca: bool,
    ca_log: Vec<(SimTime, CaPins)>,
    prev_cke: bool,
    recorder: Option<TraceRecorder>,
}

impl SharedBus {
    /// Wraps a device in a shared bus.
    pub fn new(device: DramDevice) -> Self {
        SharedBus {
            device,
            ca_busy_until: SimTime::ZERO,
            last_cmd: None,
            window: None,
            bank_windows: [None; BankAddr::COUNT as usize],
            mode: RefreshMode::RankLevel,
            host_blocked_until: SimTime::ZERO,
            stats: BusStats::default(),
            capture_ca: false,
            ca_log: Vec::new(),
            prev_cke: true,
            recorder: None,
        }
    }

    /// Attaches a [`TraceRecorder`]: every subsequently *accepted* command
    /// is captured for offline verification by `nvdimmc-check`. Replaces
    /// any recorder already attached.
    pub fn attach_recorder(&mut self) {
        self.recorder = Some(TraceRecorder::new());
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&TraceRecorder> {
        self.recorder.as_ref()
    }

    /// Detaches and returns the recorder (with whatever it captured).
    pub fn detach_recorder(&mut self) -> Option<TraceRecorder> {
        self.recorder.take()
    }

    /// Takes the recorded trace, leaving the recorder attached and empty.
    /// Returns an empty trace when no recorder is attached.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.recorder
            .as_mut()
            .map_or_else(Vec::new, TraceRecorder::take)
    }

    /// Enables pin-level CA capture (consumed by the NVDIMM-C refresh
    /// detector via [`SharedBus::drain_ca_log`]).
    pub fn set_ca_capture(&mut self, on: bool) {
        self.capture_ca = on;
    }

    /// Drains captured CA samples.
    pub fn drain_ca_log(&mut self) -> Vec<(SimTime, CaPins)> {
        std::mem::take(&mut self.ca_log)
    }

    /// The underlying device.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the underlying device (for data bursts and
    /// backdoor test oracles).
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// Bus counters.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// The refresh window currently or most recently open.
    pub fn window(&self) -> Option<RefreshWindow> {
        self.window
    }

    /// Selects the refresh mode. Per-bank mode turns same-slot cross-master
    /// CA pressure into retryable arbitration (the two masters legitimately
    /// run concurrently), while rank mode keeps it a hard electrical
    /// conflict.
    pub fn set_refresh_mode(&mut self, mode: RefreshMode) {
        self.mode = mode;
    }

    /// The active refresh mode.
    pub fn refresh_mode(&self) -> RefreshMode {
        self.mode
    }

    /// The per-bank window opened by the most recent REFpb to `bank`.
    pub fn bank_window(&self, bank: BankAddr) -> Option<RefreshWindow> {
        self.bank_windows[usize::from(bank.index())]
    }

    /// Earliest instant at or after `at` when the CA bus slot is free.
    pub fn ca_free_at(&self, at: SimTime) -> SimTime {
        at.max(self.ca_busy_until)
    }

    /// Earliest instant at or after `at` when the host may issue commands
    /// (i.e. past any programmed-tRFC block).
    pub fn host_ready_at(&self, at: SimTime) -> SimTime {
        at.max(self.host_blocked_until).max(self.ca_busy_until)
    }

    /// Issues `cmd` from `master` at `at`.
    ///
    /// # Errors
    ///
    /// Returns the precise [`BusViolation`] that real hardware would have
    /// turned into a memory error. The device state is unchanged on error.
    pub fn issue(
        &mut self,
        master: BusMaster,
        at: SimTime,
        cmd: Command,
    ) -> Result<SimTime, BusViolation> {
        match self.try_issue(master, at, cmd) {
            Ok(end) => Ok(end),
            Err(v) => {
                match v {
                    BusViolation::Timing { .. } | BusViolation::CommandDuringRefresh { .. } => {
                        self.stats.retries_rejected += 1;
                    }
                    _ => self.stats.violations_rejected += 1,
                }
                Err(v)
            }
        }
    }

    fn try_issue(
        &mut self,
        master: BusMaster,
        at: SimTime,
        cmd: Command,
    ) -> Result<SimTime, BusViolation> {
        // --- CA electrical conflict (paper Figure 2a, case C1) ---
        if at < self.ca_busy_until {
            if let Some((last_master, last_cmd)) = self.last_cmd {
                // In per-bank mode both masters legitimately interleave on
                // the CA bus; slot pressure is arbitration (the loser
                // retries at the next free slot), not an electrical hazard.
                if last_master != master && self.mode == RefreshMode::RankLevel {
                    return Err(BusViolation::CaConflict {
                        at,
                        existing: last_cmd,
                        existing_master: last_master,
                        incoming: cmd,
                        incoming_master: master,
                    });
                }
                return Err(BusViolation::Timing {
                    at,
                    command: cmd,
                    parameter: "tCK",
                    legal_at: self.ca_busy_until,
                    master: Some(master),
                });
            }
        }

        // --- Protocol discipline per master ---
        match master {
            BusMaster::HostImc => {
                if at < self.host_blocked_until {
                    return Err(BusViolation::CommandDuringRefresh {
                        at,
                        busy_until: self.host_blocked_until,
                        command: cmd,
                        master: Some(master),
                    });
                }
                // Window-exit invariant: when the host first resumes after
                // a window, the NVMC must have left all banks precharged.
                // (Checked once per window; afterwards open banks are the
                // host's own doing.)
                if let Some(w) = self.window {
                    if at >= w.closes {
                        if !self.device.all_banks_idle() {
                            return Err(BusViolation::BankState {
                                at,
                                command: cmd,
                                reason: "NVMC left a bank open past its window".to_owned(),
                                master: Some(master),
                            });
                        }
                        self.window = None;
                    }
                }
                // Per-bank discipline: the host is blocked only in a bank
                // whose REFpb window is still running; bank-scoped traffic
                // to the other fifteen proceeds. Rank-scoped commands
                // (PREA, REF, SRE…) need every bank window closed.
                match cmd.bank() {
                    Some(b) => {
                        let idx = usize::from(b.index());
                        if let Some(w) = self.bank_windows[idx] {
                            if at < w.closes {
                                return Err(BusViolation::CommandDuringRefresh {
                                    at,
                                    busy_until: w.closes,
                                    command: cmd,
                                    master: Some(master),
                                });
                            }
                            // Window over: the NVMC must have left the
                            // refreshing bank precharged.
                            if !self.device.bank(b).is_idle() {
                                return Err(BusViolation::BankState {
                                    at,
                                    command: cmd,
                                    reason: format!("NVMC left {b} open past its per-bank window"),
                                    master: Some(master),
                                });
                            }
                            self.bank_windows[idx] = None;
                        }
                    }
                    None if !matches!(cmd, Command::Deselect) => {
                        if let Some(busy) = self
                            .bank_windows
                            .iter()
                            .flatten()
                            .filter(|w| at < w.closes)
                            .map(|w| w.closes)
                            .max()
                        {
                            return Err(BusViolation::CommandDuringRefresh {
                                at,
                                busy_until: busy,
                                command: cmd,
                                master: Some(master),
                            });
                        }
                    }
                    None => {}
                }
            }
            BusMaster::Nvmc => {
                // The NVMC never refreshes or self-refreshes the DRAM.
                if cmd.is_refresh_family() {
                    return Err(BusViolation::NvmcOutsideWindow { at, command: cmd });
                }
                // Legal inside the rank-wide window, or — in per-bank mode
                // — inside the window of the bank the command targets.
                let w = self
                    .window
                    .filter(|w| w.contains(at))
                    .or_else(|| {
                        cmd.bank().and_then(|b| {
                            self.bank_windows[usize::from(b.index())].filter(|w| w.contains(at))
                        })
                    })
                    .ok_or(BusViolation::NvmcOutsideWindow { at, command: cmd })?;
                // A data burst must also *complete* before the window
                // closes, or its beats would collide with host commands.
                if cmd.is_data_transfer() {
                    let is_read = matches!(cmd, Command::Read { .. });
                    let (_, data_end) = self.device.timing().dq_window(at, is_read);
                    if data_end > w.closes {
                        return Err(BusViolation::NvmcOutsideWindow { at, command: cmd });
                    }
                }
            }
        }

        // --- Silicon-level checks & effects ---
        let end = self
            .device
            .issue(at, cmd)
            .map_err(|v| v.with_master(master))?;

        // --- Post-accept bookkeeping ---
        if let Some(r) = self.recorder.as_mut() {
            r.record(master, at, cmd, self.device.timing());
        }
        let tck = self.device.timing().speed.tck();
        self.ca_busy_until = at + tck;
        self.last_cmd = Some((master, cmd));
        if self.capture_ca {
            let mut pins = CaPins::encode(&cmd);
            pins.cke_prev = self.prev_cke;
            self.prev_cke = pins.cke;
            self.ca_log.push((at, pins));
        }
        match master {
            BusMaster::HostImc => {
                self.stats.host_commands += 1;
                if cmd.is_data_transfer() {
                    self.stats.host_bytes += self.device.timing().burst_bytes();
                }
            }
            BusMaster::Nvmc => {
                self.stats.nvmc_commands += 1;
                if cmd.is_data_transfer() {
                    self.stats.nvmc_bytes += self.device.timing().burst_bytes();
                }
            }
        }
        if cmd == Command::Refresh {
            let (opens, closes) = self.device.timing().nvmc_window_bounds(at);
            self.window = Some(RefreshWindow {
                ref_at: at,
                opens,
                closes,
            });
            self.host_blocked_until = closes;
            self.stats.refreshes += 1;
        }
        if let Command::RefreshBank { bank, stretch } = cmd {
            let (opens, closes) = self.device.timing().nvmc_window_bounds_pb(at, stretch);
            self.bank_windows[usize::from(bank.index())] = Some(RefreshWindow {
                ref_at: at,
                opens,
                closes,
            });
            self.stats.refreshes += 1;
        }
        Ok(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankAddr;
    use crate::timing::{SpeedBin, TimingParams};

    const CAP: u64 = 1 << 27;

    fn bus() -> SharedBus {
        let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        SharedBus::new(DramDevice::new(timing, CAP))
    }

    fn refresh(bus: &mut SharedBus, at: SimTime) -> RefreshWindow {
        bus.issue(BusMaster::HostImc, at, Command::PrechargeAll)
            .unwrap();
        let ref_at = at + bus.device().timing().trp;
        bus.issue(BusMaster::HostImc, ref_at, Command::Refresh)
            .unwrap();
        bus.window().unwrap()
    }

    #[test]
    fn refresh_opens_window_with_paper_geometry() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        assert_eq!(w.opens.since(w.ref_at), SimDuration::from_ns(350));
        assert_eq!(w.closes.since(w.ref_at), SimDuration::from_ns(1250));
        assert_eq!(w.len(), SimDuration::from_ns(900));
    }

    #[test]
    fn host_blocked_during_programmed_trfc() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        let err = b.issue(
            BusMaster::HostImc,
            w.opens, // silicon would be ready, protocol says wait
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        );
        assert!(matches!(
            err,
            Err(BusViolation::CommandDuringRefresh { .. })
        ));
        b.issue(
            BusMaster::HostImc,
            w.closes,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        )
        .unwrap();
    }

    #[test]
    fn nvmc_rejected_outside_window() {
        let mut b = bus();
        let err = b.issue(
            BusMaster::Nvmc,
            SimTime::from_us(2),
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        );
        assert!(matches!(err, Err(BusViolation::NvmcOutsideWindow { .. })));
    }

    #[test]
    fn nvmc_allowed_inside_window() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        let t = *b.device().timing();
        b.issue(
            BusMaster::Nvmc,
            w.opens,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        )
        .unwrap();
        b.issue(
            BusMaster::Nvmc,
            w.opens + t.trcd,
            Command::Read {
                bank: BankAddr::new(0, 0),
                col: 0,
                auto_precharge: false,
            },
        )
        .unwrap();
        assert_eq!(b.stats().nvmc_commands, 2);
        assert_eq!(b.stats().nvmc_bytes, 64);
    }

    #[test]
    fn nvmc_burst_must_finish_inside_window() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        let t = *b.device().timing();
        b.issue(
            BusMaster::Nvmc,
            w.opens,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        )
        .unwrap();
        // A read issued right at the close minus epsilon cannot finish.
        let late = w.closes - t.burst_time();
        let err = b.issue(
            BusMaster::Nvmc,
            late,
            Command::Read {
                bank: BankAddr::new(0, 0),
                col: 0,
                auto_precharge: false,
            },
        );
        assert!(matches!(err, Err(BusViolation::NvmcOutsideWindow { .. })));
    }

    #[test]
    fn nvmc_must_precharge_before_window_closes() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        b.issue(
            BusMaster::Nvmc,
            w.opens,
            Command::Activate {
                bank: BankAddr::new(2, 2),
                row: 9,
            },
        )
        .unwrap();
        // NVMC "forgets" to precharge; host resumes after the window and
        // trips the invariant.
        let err = b.issue(
            BusMaster::HostImc,
            w.closes,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        );
        assert!(matches!(err, Err(BusViolation::BankState { .. })));
    }

    #[test]
    fn ca_conflict_between_masters_detected() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        let at = w.opens;
        b.issue(
            BusMaster::Nvmc,
            at,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        )
        .unwrap();
        // Host tries to drive the CA bus in the same cycle (and is also
        // refresh-blocked; the conflict check fires first because it is the
        // electrical hazard).
        let err = b.issue(
            BusMaster::HostImc,
            at,
            Command::Read {
                bank: BankAddr::new(0, 0),
                col: 0,
                auto_precharge: false,
            },
        );
        assert!(matches!(err, Err(BusViolation::CaConflict { .. })));
    }

    #[test]
    fn nvmc_may_not_issue_refresh() {
        let mut b = bus();
        let w = refresh(&mut b, SimTime::from_us(1));
        let err = b.issue(BusMaster::Nvmc, w.opens, Command::Refresh);
        assert!(matches!(err, Err(BusViolation::NvmcOutsideWindow { .. })));
    }

    #[test]
    fn violations_do_not_mutate_state() {
        let mut b = bus();
        let before = b.device().stats();
        let _ = b.issue(BusMaster::Nvmc, SimTime::from_us(3), Command::PrechargeAll);
        assert_eq!(b.device().stats(), before);
        assert_eq!(b.stats().violations_rejected, 1);
        assert_eq!(b.stats().retries_rejected, 0);
    }

    #[test]
    fn per_bank_window_blocks_host_only_in_refreshing_bank() {
        let mut b = bus();
        b.set_refresh_mode(RefreshMode::PerBank);
        let target = BankAddr::new(1, 1);
        let t0 = SimTime::from_us(1);
        b.issue(
            BusMaster::HostImc,
            t0,
            Command::RefreshBank {
                bank: target,
                stretch: 2,
            },
        )
        .unwrap();
        let w = b.bank_window(target).unwrap();
        let t = *b.device().timing();
        assert_eq!(w.opens, t0 + t.trfc_pb);
        assert_eq!(w.closes, t0 + t.trfc_pb_total + t.stretch_quantum * 2);
        // Host into the refreshing bank: blocked until the window closes.
        let err = b.issue(
            BusMaster::HostImc,
            w.opens,
            Command::Activate {
                bank: target,
                row: 0,
            },
        );
        assert!(
            matches!(err, Err(BusViolation::CommandDuringRefresh { busy_until, .. }) if busy_until == w.closes),
            "{err:?}"
        );
        // Host into a different bank inside the window span: proceeds.
        b.issue(
            BusMaster::HostImc,
            w.opens,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        )
        .unwrap();
        // Rank-scoped host command needs every bank window closed.
        let err = b.issue(
            BusMaster::HostImc,
            w.opens + t.speed.tck(),
            Command::PrechargeAll,
        );
        assert!(
            matches!(err, Err(BusViolation::CommandDuringRefresh { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn nvmc_confined_to_the_refreshing_bank() {
        let mut b = bus();
        b.set_refresh_mode(RefreshMode::PerBank);
        let target = BankAddr::new(2, 0);
        let t0 = SimTime::from_us(1);
        b.issue(
            BusMaster::HostImc,
            t0,
            Command::RefreshBank {
                bank: target,
                stretch: 0,
            },
        )
        .unwrap();
        let w = b.bank_window(target).unwrap();
        // NVMC in the refreshing bank: legal.
        b.issue(
            BusMaster::Nvmc,
            w.opens,
            Command::Activate {
                bank: target,
                row: 4,
            },
        )
        .unwrap();
        // NVMC in any other bank: outside its window.
        let err = b.issue(
            BusMaster::Nvmc,
            w.opens + b.device().timing().speed.tck(),
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 4,
            },
        );
        assert!(
            matches!(err, Err(BusViolation::NvmcOutsideWindow { .. })),
            "{err:?}"
        );
        // Close the bank before the window ends; the host then resumes in
        // that bank cleanly after the close.
        let t = *b.device().timing();
        let pre_at = w.opens + t.tras;
        assert!(pre_at < w.closes, "test premise: window fits tRAS");
        b.issue(BusMaster::Nvmc, pre_at, Command::Precharge { bank: target })
            .unwrap();
        b.issue(
            BusMaster::HostImc,
            w.closes.max(pre_at + t.trp),
            Command::Activate {
                bank: target,
                row: 0,
            },
        )
        .unwrap();
        assert_eq!(b.bank_window(target), None, "window cleared on resume");
    }

    #[test]
    fn nvmc_left_bank_open_past_per_bank_window_is_caught() {
        let mut b = bus();
        b.set_refresh_mode(RefreshMode::PerBank);
        let target = BankAddr::new(0, 3);
        let t0 = SimTime::from_us(1);
        b.issue(
            BusMaster::HostImc,
            t0,
            Command::RefreshBank {
                bank: target,
                stretch: 15,
            },
        )
        .unwrap();
        let w = b.bank_window(target).unwrap();
        b.issue(
            BusMaster::Nvmc,
            w.opens,
            Command::Activate {
                bank: target,
                row: 9,
            },
        )
        .unwrap();
        // NVMC "forgets" to precharge; the host trips the invariant when it
        // next touches that bank after the close.
        let err = b.issue(
            BusMaster::HostImc,
            w.closes,
            Command::Read {
                bank: target,
                col: 0,
                auto_precharge: false,
            },
        );
        assert!(
            matches!(err, Err(BusViolation::BankState { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn per_bank_mode_cross_master_slot_pressure_is_retryable() {
        let mut b = bus();
        b.set_refresh_mode(RefreshMode::PerBank);
        let target = BankAddr::new(1, 0);
        let t0 = SimTime::from_us(1);
        b.issue(
            BusMaster::HostImc,
            t0,
            Command::RefreshBank {
                bank: target,
                stretch: 0,
            },
        )
        .unwrap();
        let w = b.bank_window(target).unwrap();
        b.issue(
            BusMaster::Nvmc,
            w.opens,
            Command::Activate {
                bank: target,
                row: 0,
            },
        )
        .unwrap();
        // Host wants the same CA slot: arbitration, not a memory error.
        let err = b.issue(
            BusMaster::HostImc,
            w.opens,
            Command::Activate {
                bank: BankAddr::new(3, 3),
                row: 0,
            },
        );
        assert!(
            matches!(
                err,
                Err(BusViolation::Timing {
                    parameter: "tCK",
                    ..
                })
            ),
            "{err:?}"
        );
        assert_eq!(b.stats().retries_rejected, 1);
        assert_eq!(b.stats().violations_rejected, 0);
    }

    #[test]
    fn ca_capture_records_refresh_pins() {
        let mut b = bus();
        b.set_ca_capture(true);
        refresh(&mut b, SimTime::from_us(1));
        let log = b.drain_ca_log();
        assert_eq!(log.len(), 2, "PREA + REF");
        assert!(log[1].1.is_refresh_state());
        assert!(b.drain_ca_log().is_empty(), "drain empties the log");
    }

    use nvdimmc_sim::SimDuration;
}
