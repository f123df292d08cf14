//! The DDR4 command set.

use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A bank address: bank group + bank within the group.
///
/// DDR4 x8 devices have 4 bank groups × 4 banks = 16 banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankAddr {
    /// Bank group, 0..4.
    pub group: u8,
    /// Bank within group, 0..4.
    pub bank: u8,
}

impl BankAddr {
    /// Number of bank groups.
    pub const GROUPS: u8 = 4;
    /// Banks per group.
    pub const BANKS_PER_GROUP: u8 = 4;
    /// Total banks.
    pub const COUNT: u8 = Self::GROUPS * Self::BANKS_PER_GROUP;

    /// Creates a bank address.
    ///
    /// # Panics
    ///
    /// Panics if `group` or `bank` exceed the DDR4 limits.
    pub fn new(group: u8, bank: u8) -> Self {
        assert!(group < Self::GROUPS, "bank group out of range");
        assert!(bank < Self::BANKS_PER_GROUP, "bank out of range");
        BankAddr { group, bank }
    }

    /// Creates a bank address from a flat index `0..16`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16`.
    pub fn from_index(index: u8) -> Self {
        assert!(index < Self::COUNT, "bank index out of range");
        BankAddr {
            group: index / Self::BANKS_PER_GROUP,
            bank: index % Self::BANKS_PER_GROUP,
        }
    }

    /// Flat index `0..16`.
    pub const fn index(self) -> u8 {
        self.group * Self::BANKS_PER_GROUP + self.bank
    }
}

impl fmt::Display for BankAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BG{}BA{}", self.group, self.bank)
    }
}

/// A DDR4 command as issued on the CA bus.
///
/// `SelfRefreshEnter`/`SelfRefreshExit` are included because the paper's
/// refresh detector must *not* trigger on them (§IV-A: "the variants of
/// refresh commands such as SRE and SRX are defined by different states").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Command {
    /// Open `row` in `bank` (ACT).
    Activate {
        /// Target bank.
        bank: BankAddr,
        /// Row to open.
        row: u32,
    },
    /// Burst read from the open row of `bank` at column `col` (RD / RDA).
    Read {
        /// Target bank.
        bank: BankAddr,
        /// Column address.
        col: u16,
        /// Auto-precharge (A10 high).
        auto_precharge: bool,
    },
    /// Burst write to the open row of `bank` at column `col` (WR / WRA).
    Write {
        /// Target bank.
        bank: BankAddr,
        /// Column address.
        col: u16,
        /// Auto-precharge (A10 high).
        auto_precharge: bool,
    },
    /// Close the open row of `bank` (PRE).
    Precharge {
        /// Target bank.
        bank: BankAddr,
    },
    /// Close all open rows (PREA; A10 high). Required before an all-bank
    /// REFRESH (paper §III-B); per-bank refresh only needs its own bank
    /// precharged.
    PrechargeAll,
    /// All-bank refresh (REF). The command the NVDIMM-C detector snoops.
    Refresh,
    /// Single-bank refresh (REFpb) — the per-bank-window extension. DDR4
    /// proper has no such command; this model assigns it the reserved
    /// `(RAS_n L, CAS_n H, WE_n H)` CA encoding, carrying the target bank
    /// on BG/BA and the window stretch level on the address pins, so the
    /// snooping detector can recover both from the trace.
    RefreshBank {
        /// The one bank being refreshed; only it is blocked for the host.
        bank: BankAddr,
        /// Window stretch level (`closes = ref_at + tRFCpb_total +
        /// stretch × quantum`), clamped to [`crate::TimingParams::MAX_STRETCH`].
        stretch: u8,
    },
    /// Self-refresh entry (REF encoding with CKE falling).
    SelfRefreshEnter,
    /// Self-refresh exit (DES/NOP with CKE rising).
    SelfRefreshExit,
    /// Mode-register set.
    ModeRegisterSet {
        /// Mode register index (0..7).
        register: u8,
        /// Register value (14 bits used).
        value: u16,
    },
    /// ZQ calibration (long).
    ZqCalibration,
    /// Deselect — no command captured this cycle.
    Deselect,
}

impl Command {
    /// The bank this command addresses, if it is bank-scoped.
    pub fn bank(&self) -> Option<BankAddr> {
        match *self {
            Command::Activate { bank, .. }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. }
            | Command::Precharge { bank }
            | Command::RefreshBank { bank, .. } => Some(bank),
            _ => None,
        }
    }

    /// Whether this command transfers data on the DQ bus.
    pub fn is_data_transfer(&self) -> bool {
        matches!(self, Command::Read { .. } | Command::Write { .. })
    }

    /// Whether this is one of the refresh-family encodings.
    pub fn is_refresh_family(&self) -> bool {
        matches!(
            self,
            Command::Refresh
                | Command::RefreshBank { .. }
                | Command::SelfRefreshEnter
                | Command::SelfRefreshExit
        )
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load / READ burst.
    Read,
    /// A store / WRITE burst.
    Write,
}

/// A train of `count` column commands of one kind to consecutive columns
/// of the open row of `bank`, issued `interval` apart — a row-hit burst
/// train. A 4 KB page is one run of 64 (paper §III-B: the page occupies
/// 64 consecutive columns of a single row). None of its commands
/// auto-precharges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnRun {
    /// READ or WRITE.
    pub kind: AccessKind,
    /// Target bank.
    pub bank: BankAddr,
    /// Column of the first command.
    pub col: u16,
    /// Number of commands.
    pub count: u16,
    /// Issue spacing; legal runs have `interval >= tCCD_L`.
    pub interval: SimDuration,
}

impl ColumnRun {
    /// The `k`-th command of the run.
    pub fn command(&self, k: u16) -> Command {
        let (bank, col) = (self.bank, self.col.saturating_add(k));
        match self.kind {
            AccessKind::Read => Command::Read {
                bank,
                col,
                auto_precharge: false,
            },
            AccessKind::Write => Command::Write {
                bank,
                col,
                auto_precharge: false,
            },
        }
    }

    /// Issue instant of the `k`-th command when the first issues at `first`.
    pub fn issue_at(&self, first: SimTime, k: u16) -> SimTime {
        first + self.interval * u64::from(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_index_roundtrip() {
        for i in 0..BankAddr::COUNT {
            assert_eq!(BankAddr::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "bank group out of range")]
    fn bank_group_bounds_checked() {
        BankAddr::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "bank index out of range")]
    fn bank_index_bounds_checked() {
        BankAddr::from_index(16);
    }

    #[test]
    fn command_bank_scoping() {
        let b = BankAddr::new(1, 2);
        assert_eq!(Command::Activate { bank: b, row: 7 }.bank(), Some(b));
        assert_eq!(Command::Refresh.bank(), None);
        assert_eq!(Command::PrechargeAll.bank(), None);
    }

    #[test]
    fn data_transfer_classification() {
        let b = BankAddr::new(0, 0);
        assert!(Command::Read {
            bank: b,
            col: 0,
            auto_precharge: false
        }
        .is_data_transfer());
        assert!(!Command::Activate { bank: b, row: 0 }.is_data_transfer());
    }

    #[test]
    fn refresh_family_classification() {
        assert!(Command::Refresh.is_refresh_family());
        assert!(Command::RefreshBank {
            bank: BankAddr::new(0, 0),
            stretch: 0
        }
        .is_refresh_family());
        assert!(Command::SelfRefreshEnter.is_refresh_family());
        assert!(Command::SelfRefreshExit.is_refresh_family());
        assert!(!Command::PrechargeAll.is_refresh_family());
    }

    #[test]
    fn refresh_bank_is_bank_scoped() {
        let b = BankAddr::new(3, 1);
        assert_eq!(
            Command::RefreshBank {
                bank: b,
                stretch: 7
            }
            .bank(),
            Some(b)
        );
    }

    #[test]
    fn display_bank() {
        assert_eq!(BankAddr::new(2, 3).to_string(), "BG2BA3");
    }
}
