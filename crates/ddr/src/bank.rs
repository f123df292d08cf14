//! Per-bank state machine with JEDEC timing checks.

use crate::command::Command;
use crate::error::BusViolation;
use crate::timing::TimingParams;
use nvdimmc_sim::SimTime;
use serde::{Deserialize, Serialize};

/// The observable state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankState {
    /// All rows closed (precharged).
    Idle,
    /// `row` is open in the row buffer.
    Active {
        /// The open row.
        row: u32,
    },
}

/// One DRAM bank: open-row tracking plus the earliest-legal-time bookkeeping
/// for tRCD, tRAS, tRP, tWR and tRTP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bank {
    state: BankState,
    /// Earliest legal ACTIVATE (tRP after precharge, tRFC after refresh).
    earliest_act: SimTime,
    /// Earliest legal READ/WRITE (tRCD after ACTIVATE).
    earliest_rw: SimTime,
    /// Earliest legal PRECHARGE (tRAS after ACT, tWR after write data,
    /// tRTP after read).
    earliest_pre: SimTime,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A precharged, immediately usable bank.
    pub fn new() -> Self {
        Bank {
            state: BankState::Idle,
            earliest_act: SimTime::ZERO,
            earliest_rw: SimTime::ZERO,
            earliest_pre: SimTime::ZERO,
        }
    }

    /// Current state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The row currently open, if any.
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }

    /// Whether the bank is precharged.
    pub fn is_idle(&self) -> bool {
        self.state == BankState::Idle
    }

    /// Earliest instant an ACTIVATE is legal.
    pub fn earliest_activate(&self) -> SimTime {
        self.earliest_act
    }

    /// Earliest instant a READ/WRITE is legal (once active).
    pub fn earliest_rw(&self) -> SimTime {
        self.earliest_rw
    }

    /// Earliest instant a PRECHARGE is legal.
    pub fn earliest_precharge(&self) -> SimTime {
        self.earliest_pre
    }

    /// Applies an ACTIVATE at `at`.
    ///
    /// # Errors
    ///
    /// Returns a [`BusViolation`] if the bank already has an open row or
    /// tRP has not elapsed.
    pub fn activate(
        &mut self,
        at: SimTime,
        row: u32,
        t: &TimingParams,
        cmd: &Command,
    ) -> Result<(), BusViolation> {
        if let BankState::Active { row: open } = self.state {
            return Err(BusViolation::BankState {
                master: None,
                at,
                command: *cmd,
                reason: format!("ACTIVATE while row {open} is already open"),
            });
        }
        if at < self.earliest_act {
            return Err(BusViolation::Timing {
                master: None,
                at,
                command: *cmd,
                parameter: "tRP",
                legal_at: self.earliest_act,
            });
        }
        self.state = BankState::Active { row };
        self.earliest_rw = at + t.trcd;
        self.earliest_pre = at + t.tras;
        Ok(())
    }

    /// Applies a READ at `at`; returns the instant the last data beat is on
    /// the bus.
    ///
    /// # Errors
    ///
    /// Returns a [`BusViolation`] if the bank is idle or tRCD has not
    /// elapsed.
    pub fn read(
        &mut self,
        at: SimTime,
        t: &TimingParams,
        cmd: &Command,
    ) -> Result<SimTime, BusViolation> {
        self.check_rw(at, cmd)?;
        Ok(self.apply_read(at, t))
    }

    /// The effects of an accepted READ at `at`; returns its data end.
    pub(crate) fn apply_read(&mut self, at: SimTime, t: &TimingParams) -> SimTime {
        self.earliest_pre = self.earliest_pre.max(at + t.trtp);
        at + t.tcl + t.burst_time()
    }

    /// Applies a WRITE at `at`; returns the instant the last data beat has
    /// been received.
    ///
    /// # Errors
    ///
    /// Returns a [`BusViolation`] if the bank is idle or tRCD has not
    /// elapsed.
    pub fn write(
        &mut self,
        at: SimTime,
        t: &TimingParams,
        cmd: &Command,
    ) -> Result<SimTime, BusViolation> {
        self.check_rw(at, cmd)?;
        Ok(self.apply_write(at, t))
    }

    /// The effects of an accepted WRITE at `at`; returns its data end.
    pub(crate) fn apply_write(&mut self, at: SimTime, t: &TimingParams) -> SimTime {
        let data_end = at + t.tcwl + t.burst_time();
        // Write recovery starts at the end of the data burst.
        self.earliest_pre = self.earliest_pre.max(data_end + t.twr);
        data_end
    }

    /// Checks a READ/WRITE at `at` against the bank state and tRCD.
    pub(crate) fn check_rw(&self, at: SimTime, cmd: &Command) -> Result<(), BusViolation> {
        match self.state {
            BankState::Idle => Err(BusViolation::BankState {
                master: None,
                at,
                command: *cmd,
                // Paper Figure 2a case C2: a column command to a row the
                // other master closed.
                reason: "column command to a precharged bank".to_owned(),
            }),
            BankState::Active { .. } => {
                if at < self.earliest_rw {
                    Err(BusViolation::Timing {
                        master: None,
                        at,
                        command: *cmd,
                        parameter: "tRCD",
                        legal_at: self.earliest_rw,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Applies a PRECHARGE at `at`. Precharging an idle bank is legal
    /// (NOP-like), per JEDEC.
    ///
    /// # Errors
    ///
    /// Returns a [`BusViolation`] if tRAS/tWR/tRTP have not elapsed.
    pub fn precharge(
        &mut self,
        at: SimTime,
        t: &TimingParams,
        cmd: &Command,
    ) -> Result<(), BusViolation> {
        if self.state != BankState::Idle && at < self.earliest_pre {
            return Err(BusViolation::Timing {
                master: None,
                at,
                command: *cmd,
                parameter: "tRAS/tWR/tRTP",
                legal_at: self.earliest_pre,
            });
        }
        self.state = BankState::Idle;
        self.earliest_act = self.earliest_act.max(at + t.trp);
        Ok(())
    }

    /// Blocks the bank until `until` (refresh or self-refresh exit).
    pub fn block_until(&mut self, until: SimTime) {
        self.state = BankState::Idle;
        self.earliest_act = self.earliest_act.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankAddr;
    use crate::timing::SpeedBin;
    use nvdimmc_sim::SimDuration;

    fn t() -> TimingParams {
        TimingParams::jedec(SpeedBin::Ddr4_1600)
    }

    fn act_cmd() -> Command {
        Command::Activate {
            bank: BankAddr::new(0, 0),
            row: 5,
        }
    }

    fn rd_cmd() -> Command {
        Command::Read {
            bank: BankAddr::new(0, 0),
            col: 0,
            auto_precharge: false,
        }
    }

    fn pre_cmd() -> Command {
        Command::Precharge {
            bank: BankAddr::new(0, 0),
        }
    }

    #[test]
    fn activate_then_read_after_trcd() {
        let timing = t();
        let mut b = Bank::new();
        let t0 = SimTime::from_ns(100);
        b.activate(t0, 5, &timing, &act_cmd()).unwrap();
        assert_eq!(b.open_row(), Some(5));
        // Too early: tRCD not satisfied.
        let err = b.read(t0 + SimDuration::from_ns(1), &timing, &rd_cmd());
        assert!(matches!(
            err,
            Err(BusViolation::Timing {
                parameter: "tRCD",
                ..
            })
        ));
        // At tRCD: legal; data lands after tCL + burst.
        let data = b.read(t0 + timing.trcd, &timing, &rd_cmd()).unwrap();
        assert_eq!(data, t0 + timing.trcd + timing.tcl + timing.burst_time());
    }

    #[test]
    fn read_to_idle_bank_is_case_c2() {
        let timing = t();
        let mut b = Bank::new();
        let err = b.read(SimTime::from_ns(10), &timing, &rd_cmd());
        assert!(matches!(err, Err(BusViolation::BankState { .. })));
    }

    #[test]
    fn double_activate_rejected() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(SimTime::ZERO, 1, &timing, &act_cmd()).unwrap();
        let err = b.activate(SimTime::from_us(1), 2, &timing, &act_cmd());
        assert!(matches!(err, Err(BusViolation::BankState { .. })));
    }

    #[test]
    fn precharge_respects_tras() {
        let timing = t();
        let mut b = Bank::new();
        let t0 = SimTime::from_ns(0);
        b.activate(t0, 1, &timing, &act_cmd()).unwrap();
        let err = b.precharge(t0 + SimDuration::from_ns(10), &timing, &pre_cmd());
        assert!(matches!(err, Err(BusViolation::Timing { .. })));
        b.precharge(t0 + timing.tras, &timing, &pre_cmd()).unwrap();
        assert!(b.is_idle());
    }

    #[test]
    fn reactivate_respects_trp() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(SimTime::ZERO, 1, &timing, &act_cmd()).unwrap();
        let pre_at = SimTime::ZERO + timing.tras;
        b.precharge(pre_at, &timing, &pre_cmd()).unwrap();
        let err = b.activate(pre_at, 2, &timing, &act_cmd());
        assert!(matches!(
            err,
            Err(BusViolation::Timing {
                parameter: "tRP",
                ..
            })
        ));
        b.activate(pre_at + timing.trp, 2, &timing, &act_cmd())
            .unwrap();
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let timing = t();
        let mut b = Bank::new();
        b.activate(SimTime::ZERO, 1, &timing, &act_cmd()).unwrap();
        let wr_at = SimTime::ZERO + timing.trcd;
        let data_end = b
            .write(
                wr_at,
                &timing,
                &Command::Write {
                    bank: BankAddr::new(0, 0),
                    col: 0,
                    auto_precharge: false,
                },
            )
            .unwrap();
        // Precharge must wait for data burst + tWR even past tRAS.
        assert!(b.earliest_precharge() >= data_end + timing.twr);
    }

    #[test]
    fn precharge_idle_bank_is_nop() {
        let timing = t();
        let mut b = Bank::new();
        b.precharge(SimTime::from_ns(5), &timing, &pre_cmd())
            .unwrap();
        assert!(b.is_idle());
    }

    #[test]
    fn block_until_defers_activation() {
        let timing = t();
        let mut b = Bank::new();
        let until = SimTime::from_us(2);
        b.block_until(until);
        let err = b.activate(SimTime::from_us(1), 0, &timing, &act_cmd());
        assert!(matches!(err, Err(BusViolation::Timing { .. })));
        b.activate(until, 0, &timing, &act_cmd()).unwrap();
    }
}
