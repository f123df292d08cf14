//! Pin-level command/address (CA) encoding.
//!
//! NVDIMM-C's refresh detector does not see decoded commands — it snoops
//! six physical CA pins (CKE, CS_n, ACT_n, RAS_n/A16, CAS_n/A15, WE_n/A14;
//! paper §IV-A) routed to the FPGA. This module implements the DDR4 command
//! truth table over those pins so the detector can be exercised at the same
//! level of abstraction as the RTL.

use crate::command::{BankAddr, Command};
use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The CA-bus pin state captured at one command edge.
///
/// All `_n` pins are active-low but stored as electrical levels
/// (`true` = High), matching the paper's description of the refresh state:
/// "CKE, ACT_n and WE_n are H while the other pins are L".
///
/// # Example
///
/// ```
/// use nvdimmc_ddr::{CaPins, Command};
///
/// let pins = CaPins::encode(&Command::PrechargeAll);
/// assert!(pins.a10, "PREA is PRE with A10 high");
/// assert_eq!(CaPins::decode(&pins), Some(Command::PrechargeAll));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaPins {
    /// Clock-enable level at the previous clock edge (needed to recognise
    /// self-refresh entry/exit transitions).
    pub cke_prev: bool,
    /// Clock-enable level at this edge.
    pub cke: bool,
    /// Chip select (High = device deselected).
    pub cs_n: bool,
    /// ACT_n (Low = ACTIVATE; High = other commands).
    pub act_n: bool,
    /// RAS_n / A16 multiplexed pin.
    pub ras_n: bool,
    /// CAS_n / A15 multiplexed pin.
    pub cas_n: bool,
    /// WE_n / A14 multiplexed pin.
    pub we_n: bool,
    /// A10 / auto-precharge pin.
    pub a10: bool,
    /// Remaining address bits (row or column).
    pub addr: u32,
    /// Bank-group bits.
    pub bg: u8,
    /// Bank-address bits.
    pub ba: u8,
}

impl CaPins {
    /// An idle bus (deselect, clock enabled).
    pub fn idle() -> Self {
        CaPins {
            cke_prev: true,
            cke: true,
            cs_n: true,
            act_n: true,
            ras_n: true,
            cas_n: true,
            we_n: true,
            a10: false,
            addr: 0,
            bg: 0,
            ba: 0,
        }
    }

    /// Encodes a command into pin levels per the DDR4 truth table.
    pub fn encode(cmd: &Command) -> CaPins {
        let mut p = CaPins::idle();
        match *cmd {
            Command::Deselect => {
                // cs_n stays high.
            }
            Command::Activate { bank, row } => {
                p.cs_n = false;
                p.act_n = false;
                // With ACT_n low, RAS/CAS/WE carry row address bits A16..A14.
                p.ras_n = (row >> 16) & 1 == 1;
                p.cas_n = (row >> 15) & 1 == 1;
                p.we_n = (row >> 14) & 1 == 1;
                p.a10 = (row >> 10) & 1 == 1;
                p.addr = row;
                p.bg = bank.group;
                p.ba = bank.bank;
            }
            Command::ModeRegisterSet { register, value } => {
                p.cs_n = false;
                p.ras_n = false;
                p.cas_n = false;
                p.we_n = false;
                p.bg = register >> 2;
                p.ba = register & 0b11;
                p.addr = u32::from(value);
            }
            Command::Refresh => {
                p.cs_n = false;
                p.ras_n = false;
                p.cas_n = false;
                p.we_n = true;
            }
            Command::RefreshBank { bank, stretch } => {
                // The DDR4-reserved (RAS_n L, CAS_n H, WE_n H) slot; the
                // bank rides on BG/BA and the stretch level on the address
                // pins so a CA snooper recovers the full window geometry.
                p.cs_n = false;
                p.ras_n = false;
                p.cas_n = true;
                p.we_n = true;
                p.bg = bank.group;
                p.ba = bank.bank;
                p.addr = u32::from(stretch);
            }
            Command::SelfRefreshEnter => {
                // REF encoding with CKE falling.
                p.cs_n = false;
                p.ras_n = false;
                p.cas_n = false;
                p.we_n = true;
                p.cke_prev = true;
                p.cke = false;
            }
            Command::SelfRefreshExit => {
                // DES with CKE rising.
                p.cs_n = true;
                p.cke_prev = false;
                p.cke = true;
            }
            Command::Precharge { bank } => {
                p.cs_n = false;
                p.ras_n = false;
                p.cas_n = true;
                p.we_n = false;
                p.a10 = false;
                p.bg = bank.group;
                p.ba = bank.bank;
            }
            Command::PrechargeAll => {
                p.cs_n = false;
                p.ras_n = false;
                p.cas_n = true;
                p.we_n = false;
                p.a10 = true;
            }
            Command::Write {
                bank,
                col,
                auto_precharge,
            } => {
                p.cs_n = false;
                p.ras_n = true;
                p.cas_n = false;
                p.we_n = false;
                p.a10 = auto_precharge;
                p.addr = u32::from(col);
                p.bg = bank.group;
                p.ba = bank.bank;
            }
            Command::Read {
                bank,
                col,
                auto_precharge,
            } => {
                p.cs_n = false;
                p.ras_n = true;
                p.cas_n = false;
                p.we_n = true;
                p.a10 = auto_precharge;
                p.addr = u32::from(col);
                p.bg = bank.group;
                p.ba = bank.bank;
            }
            Command::ZqCalibration => {
                p.cs_n = false;
                p.ras_n = true;
                p.cas_n = true;
                p.we_n = false;
            }
        }
        p
    }

    /// Decodes pin levels back into a command. Every DDR4 slot is now
    /// occupied (the formerly reserved encoding carries per-bank refresh),
    /// so this returns `Some` for all well-formed pin states.
    pub fn decode(p: &CaPins) -> Option<Command> {
        // Self-refresh exit: deselect with CKE rising edge.
        if !p.cke_prev && p.cke && p.cs_n {
            return Some(Command::SelfRefreshExit);
        }
        if p.cs_n {
            return Some(Command::Deselect);
        }
        if !p.act_n {
            let bank = BankAddr::new(p.bg, p.ba);
            return Some(Command::Activate { bank, row: p.addr });
        }
        match (p.ras_n, p.cas_n, p.we_n) {
            (false, false, false) => Some(Command::ModeRegisterSet {
                register: (p.bg << 2) | p.ba,
                value: p.addr as u16,
            }),
            (false, false, true) => {
                if p.cke_prev && !p.cke {
                    Some(Command::SelfRefreshEnter)
                } else {
                    Some(Command::Refresh)
                }
            }
            (false, true, false) => {
                if p.a10 {
                    Some(Command::PrechargeAll)
                } else {
                    Some(Command::Precharge {
                        bank: BankAddr::new(p.bg, p.ba),
                    })
                }
            }
            (true, false, false) => Some(Command::Write {
                bank: BankAddr::new(p.bg, p.ba),
                col: p.addr as u16,
                auto_precharge: p.a10,
            }),
            (true, false, true) => Some(Command::Read {
                bank: BankAddr::new(p.bg, p.ba),
                col: p.addr as u16,
                auto_precharge: p.a10,
            }),
            (true, true, false) => Some(Command::ZqCalibration),
            (true, true, true) => Some(Command::Deselect), // NOP
            // The DDR4-reserved slot, repurposed for per-bank refresh.
            (false, true, true) => Some(Command::RefreshBank {
                bank: BankAddr::new(p.bg & 0b11, p.ba & 0b11),
                stretch: (p.addr & 0xF) as u8,
            }),
        }
    }

    /// The six pin levels the NVDIMM-C FPGA monitors, in the paper's order:
    /// CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n.
    pub fn monitored_pins(&self) -> [bool; 6] {
        [
            self.cke, self.cs_n, self.act_n, self.ras_n, self.cas_n, self.we_n,
        ]
    }

    /// Whether these pins show the refresh state the detector matches:
    /// CKE, ACT_n, WE_n high and CS_n, RAS_n, CAS_n low (paper §IV-A).
    pub fn is_refresh_state(&self) -> bool {
        self.cke && self.act_n && self.we_n && !self.cs_n && !self.ras_n && !self.cas_n
    }

    /// Whether these pins show the *per-bank* refresh state: identical to
    /// the REF state except CAS_n is high (the repurposed reserved slot).
    pub fn is_refresh_bank_state(&self) -> bool {
        self.cke && self.act_n && self.we_n && !self.cs_n && !self.ras_n && self.cas_n
    }
}

/// One entry of the CA capture log: `count` command edges `interval`
/// apart from `at`, all showing `pins` on the six monitored pins. A single
/// command is one edge; a column run is one entry for its whole train (its
/// commands differ only in the column address, which the detector does
/// not monitor). `pins` is the first edge's full capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaCapture {
    /// The first edge.
    pub at: SimTime,
    /// Spacing between edges (zero for a single command).
    pub interval: SimDuration,
    /// Pin state at the first edge.
    pub pins: CaPins,
    /// Number of edges.
    pub count: u16,
}

impl CaCapture {
    /// Instant of the `k`-th edge.
    pub fn edge_at(&self, k: u16) -> SimTime {
        self.at + self.interval * u64::from(k)
    }
}

impl Default for CaPins {
    fn default() -> Self {
        Self::idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_commands() -> Vec<Command> {
        let b = BankAddr::new(2, 1);
        vec![
            Command::Deselect,
            Command::Activate {
                bank: b,
                row: 0x1_55AA,
            },
            Command::Read {
                bank: b,
                col: 0x3F8,
                auto_precharge: false,
            },
            Command::Read {
                bank: b,
                col: 0x3F8,
                auto_precharge: true,
            },
            Command::Write {
                bank: b,
                col: 0x10,
                auto_precharge: false,
            },
            Command::Precharge { bank: b },
            Command::PrechargeAll,
            Command::Refresh,
            Command::RefreshBank {
                bank: b,
                stretch: 0,
            },
            Command::RefreshBank {
                bank: b,
                stretch: 9,
            },
            Command::SelfRefreshEnter,
            Command::SelfRefreshExit,
            Command::ModeRegisterSet {
                register: 6,
                value: 0x155,
            },
            Command::ZqCalibration,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for cmd in all_commands() {
            let pins = CaPins::encode(&cmd);
            assert_eq!(CaPins::decode(&pins), Some(cmd), "roundtrip of {cmd:?}");
        }
    }

    #[test]
    fn refresh_state_matches_paper_truth_table() {
        let pins = CaPins::encode(&Command::Refresh);
        assert!(pins.is_refresh_state());
        assert_eq!(
            pins.monitored_pins(),
            [true, false, true, false, false, true],
            "CKE H, CS_n L, ACT_n H, RAS_n L, CAS_n L, WE_n H"
        );
    }

    #[test]
    fn sre_is_not_plain_refresh_state_decode() {
        let pins = CaPins::encode(&Command::SelfRefreshEnter);
        // Same combinational state as REF...
        assert!(pins.is_refresh_state() || !pins.cke);
        // ...but the decoder distinguishes it by the CKE transition.
        assert_eq!(CaPins::decode(&pins), Some(Command::SelfRefreshEnter));
    }

    #[test]
    fn commands_are_mutually_exclusive_on_pins() {
        // Paper §IV-A: "the CA states of all DDR4 commands are mutually
        // exclusive". No two distinct commands encode identically.
        let cmds = all_commands();
        for (i, a) in cmds.iter().enumerate() {
            for b in cmds.iter().skip(i + 1) {
                assert_ne!(
                    CaPins::encode(a),
                    CaPins::encode(b),
                    "{a:?} and {b:?} alias on the CA bus"
                );
            }
        }
    }

    #[test]
    fn only_refresh_matches_detector_state() {
        // The detector's combinational match must hit REF and nothing else
        // that has CKE held high.
        for cmd in all_commands() {
            let pins = CaPins::encode(&cmd);
            if pins.is_refresh_state() && pins.cke_prev {
                assert_eq!(cmd, Command::Refresh);
            }
        }
    }

    #[test]
    fn reserved_encoding_now_carries_per_bank_refresh() {
        // The formerly-reserved (RAS_n L, CAS_n H, WE_n H) slot decodes to
        // REFpb, bank on BG/BA, stretch on the low address bits.
        let mut pins = CaPins::idle();
        pins.cs_n = false;
        pins.ras_n = false;
        pins.cas_n = true;
        pins.we_n = true;
        pins.bg = 2;
        pins.ba = 3;
        pins.addr = 11;
        assert_eq!(
            CaPins::decode(&pins),
            Some(Command::RefreshBank {
                bank: BankAddr::new(2, 3),
                stretch: 11,
            })
        );
    }

    #[test]
    fn per_bank_refresh_state_is_distinct_from_ref() {
        let pb = CaPins::encode(&Command::RefreshBank {
            bank: BankAddr::new(1, 2),
            stretch: 4,
        });
        assert!(pb.is_refresh_bank_state());
        assert!(!pb.is_refresh_state(), "REFpb must not alias all-bank REF");
        let r = CaPins::encode(&Command::Refresh);
        assert!(!r.is_refresh_bank_state());
        // No other command matches the per-bank detector state.
        for cmd in all_commands() {
            let pins = CaPins::encode(&cmd);
            if pins.is_refresh_bank_state() {
                assert!(matches!(cmd, Command::RefreshBank { .. }), "{cmd:?}");
            }
        }
    }

    #[test]
    fn activate_carries_row_on_multiplexed_pins() {
        let bank = BankAddr::new(0, 0);
        let row = 0b1_0100_0000_0000_0000u32; // bit16 and bit14 set
        let pins = CaPins::encode(&Command::Activate { bank, row });
        assert!(pins.ras_n, "A16 high");
        assert!(!pins.cas_n, "A15 low");
        assert!(pins.we_n, "A14 high");
        assert!(!pins.is_refresh_state(), "ACT never matches the detector");
    }
}
