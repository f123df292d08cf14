//! The DRAM device: 16 banks, rank-level constraints (tRRD, tFAW,
//! refresh), address mapping and a sparse backing store.
//!
//! The backing store holds real bytes so the reproduction can validate
//! data integrity end-to-end (the paper's §VII-A aging test and the
//! mixed-load benchmark both rely on comparing data, not just timing).

use crate::bank::Bank;
use crate::command::{BankAddr, Command};
use crate::error::{BusViolation, DdrError};
use crate::timing::TimingParams;
use nvdimmc_sim::SimTime;
use std::collections::VecDeque;

/// How a flat physical byte address maps onto (bank, row, column).
///
/// Cacheline-granular: bits `[5:0]` select the byte within a 64-byte burst,
/// `[12:6]` the column (128 bursts = one 8 KB row), `[16:13]` the bank, and
/// the remaining bits the row. A 4 KB page therefore occupies 64 consecutive
/// columns of a single row — which is what lets the NVMC move a whole page
/// with one ACTIVATE inside one extra-tRFC window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    capacity: u64,
    rows: u32,
}

/// A decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Target bank.
    pub bank: BankAddr,
    /// Row within the bank.
    pub row: u32,
    /// Column in burst (64-byte) units.
    pub col: u16,
    /// Byte offset within the burst.
    pub offset: u8,
}

/// Bytes per DRAM row in this mapping.
pub const ROW_BYTES: u64 = 8 * 1024;
/// Bytes per burst (BL8 on a 64-bit channel).
pub const BURST_BYTES: u64 = 64;
/// Bursts per row.
pub const COLS_PER_ROW: u64 = ROW_BYTES / BURST_BYTES;

impl AddressMapping {
    /// Creates a mapping for a device of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of one full row stripe
    /// (16 banks × 8 KB).
    pub fn new(capacity: u64) -> Self {
        let stripe = ROW_BYTES * u64::from(BankAddr::COUNT);
        assert!(
            capacity > 0 && capacity.is_multiple_of(stripe),
            "capacity must be a multiple of {stripe} bytes"
        );
        AddressMapping {
            capacity,
            rows: (capacity / stripe) as u32,
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of rows per bank.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Decodes a byte address.
    ///
    /// # Errors
    ///
    /// Returns [`DdrError::AddressOutOfRange`] if `addr` exceeds capacity.
    pub fn decode(&self, addr: u64) -> Result<DecodedAddr, DdrError> {
        if addr >= self.capacity {
            return Err(DdrError::AddressOutOfRange {
                addr,
                capacity: self.capacity,
            });
        }
        let offset = (addr & 0x3F) as u8;
        let burst = addr >> 6;
        let col = (burst % COLS_PER_ROW) as u16;
        let bank_idx = ((burst / COLS_PER_ROW) % u64::from(BankAddr::COUNT)) as u8;
        let row = (burst / COLS_PER_ROW / u64::from(BankAddr::COUNT)) as u32;
        Ok(DecodedAddr {
            bank: BankAddr::from_index(bank_idx),
            row,
            col,
            offset,
        })
    }

    /// Re-encodes (bank, row, col) into the flat byte address of the burst.
    pub fn encode(&self, bank: BankAddr, row: u32, col: u16) -> u64 {
        ((u64::from(row) * u64::from(BankAddr::COUNT) + u64::from(bank.index())) * COLS_PER_ROW
            + u64::from(col))
            * BURST_BYTES
    }
}

const FRAME_BYTES: u64 = 4096;
/// Frames per frame table: one 4 KB page of frame pointers, 2 MB of DRAM.
const TABLE_FRAMES: usize = 512;

type Frame = [u8; FRAME_BYTES as usize];
/// The frame pointers of one 2 MB stretch.
type FrameTable = [Option<Box<Frame>>; TABLE_FRAMES];

/// Byte-addressable storage: 4 KB frames reached by address through a
/// two-level table, like a page table. The directory has one entry per
/// 2 MB of capacity; each entry is a table of 512 frame pointers,
/// allocated on the first write into its 2 MB; each frame is allocated on
/// its first write. Unwritten frames read as zeros. A flat table sized to
/// the capacity would be resident wherever the heap zero-fills it, even
/// though a shard writes a few frames of a large device.
#[derive(Debug)]
struct SparseMem {
    tables: Vec<Option<Box<FrameTable>>>,
}

impl SparseMem {
    fn new(capacity: u64) -> Self {
        let frames = capacity.div_ceil(FRAME_BYTES) as usize;
        SparseMem {
            tables: vec![None; frames.div_ceil(TABLE_FRAMES)],
        }
    }

    fn frame(&self, frame: usize) -> Option<&Frame> {
        self.tables[frame / TABLE_FRAMES].as_ref()?[frame % TABLE_FRAMES].as_deref()
    }

    fn frame_mut(&mut self, frame: usize) -> &mut Frame {
        let table = self.tables[frame / TABLE_FRAMES]
            .get_or_insert_with(|| Box::new([const { None }; TABLE_FRAMES]));
        table[frame % TABLE_FRAMES].get_or_insert_with(|| Box::new([0u8; FRAME_BYTES as usize]))
    }

    /// Reads `buf.len()` bytes at `addr`; the caller has range-checked.
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut pos = 0;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let off = (a % FRAME_BYTES) as usize;
            let n = (FRAME_BYTES as usize - off).min(buf.len() - pos);
            match self.frame((a / FRAME_BYTES) as usize) {
                Some(f) => buf[pos..pos + n].copy_from_slice(&f[off..off + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Writes `data` at `addr`; the caller has range-checked.
    fn write(&mut self, addr: u64, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let a = addr + pos as u64;
            let off = (a % FRAME_BYTES) as usize;
            let n = (FRAME_BYTES as usize - off).min(data.len() - pos);
            self.frame_mut((a / FRAME_BYTES) as usize)[off..off + n]
                .copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }
}

/// Counters a [`DramDevice`] maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// ACTIVATE commands accepted.
    pub activates: u64,
    /// READ commands accepted.
    pub reads: u64,
    /// WRITE commands accepted.
    pub writes: u64,
    /// REFRESH commands accepted.
    pub refreshes: u64,
    /// PRECHARGE / PREA commands accepted.
    pub precharges: u64,
}

/// A DDR4 DRAM device (one rank): bank state machines, rank-level timing
/// (tRRD, tFAW, tRFC), and data storage.
///
/// The device enforces *silicon* constraints. Protocol discipline between
/// multiple masters (who may drive the bus when) belongs to
/// [`crate::bus::SharedBus`]. In particular the device accepts commands as
/// soon as its **real** refresh (tRFC_base) completes — that gap between
/// silicon capability and protocol assumption is exactly what NVDIMM-C
/// exploits.
#[derive(Debug)]
pub struct DramDevice {
    timing: TimingParams,
    mapping: AddressMapping,
    banks: Vec<Bank>,
    mem: SparseMem,
    /// Earliest next ACT per bank-group for tRRD_L, and global for tRRD_S.
    earliest_act_same_group: Vec<SimTime>,
    earliest_act_any: SimTime,
    /// Sliding window of recent ACT times for the four-activate window.
    recent_acts: VecDeque<SimTime>,
    /// End of the current *device* refresh (tRFC_base after REF).
    refresh_busy_until: SimTime,
    /// Whether the device is in self-refresh.
    in_self_refresh: bool,
    /// Earliest command after self-refresh exit (tXS).
    earliest_after_srx: SimTime,
    /// Column-command spacing (tCCD).
    earliest_col_cmd: SimTime,
    /// Earliest READ after the last WRITE's data burst (rank-wide tWTR).
    earliest_read_after_write: SimTime,
    /// Earliest WRITE after the last READ: the write's DQ burst (tCWL
    /// after issue) must not start before the read's burst leaves the
    /// pins (read-to-write turnaround).
    earliest_write_after_read: SimTime,
    stats: DeviceStats,
}

impl DramDevice {
    /// Creates a device of `capacity` bytes with the given timing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of the 16-bank row stripe.
    pub fn new(timing: TimingParams, capacity: u64) -> Self {
        let mapping = AddressMapping::new(capacity);
        DramDevice {
            timing,
            mapping,
            banks: (0..BankAddr::COUNT).map(|_| Bank::new()).collect(),
            mem: SparseMem::new(capacity),
            earliest_act_same_group: vec![SimTime::ZERO; usize::from(BankAddr::GROUPS)],
            earliest_act_any: SimTime::ZERO,
            recent_acts: VecDeque::new(),
            refresh_busy_until: SimTime::ZERO,
            in_self_refresh: false,
            earliest_after_srx: SimTime::ZERO,
            earliest_col_cmd: SimTime::ZERO,
            earliest_read_after_write: SimTime::ZERO,
            earliest_write_after_read: SimTime::ZERO,
            stats: DeviceStats::default(),
        }
    }

    /// The device's timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Command counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Whether every bank is precharged.
    pub fn all_banks_idle(&self) -> bool {
        self.banks.iter().all(Bank::is_idle)
    }

    /// The bank state machine for `bank`.
    pub fn bank(&self, bank: BankAddr) -> &Bank {
        &self.banks[usize::from(bank.index())]
    }

    /// End of the current device-level refresh (tRFC_base after the last
    /// REF), i.e. when the silicon could accept commands again.
    pub fn refresh_busy_until(&self) -> SimTime {
        self.refresh_busy_until
    }

    fn check_not_refreshing(&self, at: SimTime, cmd: &Command) -> Result<(), BusViolation> {
        if at < self.refresh_busy_until {
            return Err(BusViolation::CommandDuringRefresh {
                master: None,
                at,
                busy_until: self.refresh_busy_until,
                command: *cmd,
            });
        }
        if self.in_self_refresh {
            return Err(BusViolation::BankState {
                master: None,
                at,
                command: *cmd,
                reason: "device is in self-refresh".to_owned(),
            });
        }
        if at < self.earliest_after_srx {
            return Err(BusViolation::Timing {
                master: None,
                at,
                command: *cmd,
                parameter: "tXS",
                legal_at: self.earliest_after_srx,
            });
        }
        Ok(())
    }

    /// Issues a command to the device at `at`. For READ/WRITE the returned
    /// instant is when the data burst completes; for other commands it is
    /// when the command's blocking effect ends.
    ///
    /// # Errors
    ///
    /// Returns a [`BusViolation`] on any silicon-level timing or state
    /// violation.
    pub fn issue(&mut self, at: SimTime, cmd: Command) -> Result<SimTime, BusViolation> {
        match cmd {
            Command::Deselect => Ok(at),
            Command::Activate { bank, row } => {
                self.check_not_refreshing(at, &cmd)?;
                if row >= self.mapping.rows() {
                    return Err(BusViolation::BankState {
                        master: None,
                        at,
                        command: cmd,
                        reason: format!("row {row} beyond device ({} rows)", self.mapping.rows()),
                    });
                }
                // Rank-level ACT spacing.
                let group = usize::from(bank.group);
                if at < self.earliest_act_any {
                    return Err(BusViolation::Timing {
                        master: None,
                        at,
                        command: cmd,
                        parameter: "tRRD_S",
                        legal_at: self.earliest_act_any,
                    });
                }
                if at < self.earliest_act_same_group[group] {
                    return Err(BusViolation::Timing {
                        master: None,
                        at,
                        command: cmd,
                        parameter: "tRRD_L",
                        legal_at: self.earliest_act_same_group[group],
                    });
                }
                // Four-activate window.
                while let Some(&front) = self.recent_acts.front() {
                    if at.saturating_since(front) >= self.timing.tfaw {
                        self.recent_acts.pop_front();
                    } else {
                        break;
                    }
                }
                if self.recent_acts.len() >= 4 {
                    let oldest = self.recent_acts.front().copied().unwrap_or(at);
                    return Err(BusViolation::Timing {
                        master: None,
                        at,
                        command: cmd,
                        parameter: "tFAW",
                        legal_at: oldest + self.timing.tfaw,
                    });
                }
                self.banks[usize::from(bank.index())].activate(at, row, &self.timing, &cmd)?;
                self.recent_acts.push_back(at);
                self.earliest_act_any = at + self.timing.trrd_s;
                self.earliest_act_same_group[group] = at + self.timing.trrd_l;
                self.stats.activates += 1;
                Ok(at + self.timing.trcd)
            }
            Command::Read { .. } | Command::Write { .. } => {
                self.check_column(at, &cmd)?;
                Ok(self.apply_column(at, &cmd))
            }
            Command::Precharge { bank } => {
                self.check_not_refreshing(at, &cmd)?;
                self.banks[usize::from(bank.index())].precharge(at, &self.timing, &cmd)?;
                self.stats.precharges += 1;
                Ok(at + self.timing.trp)
            }
            Command::PrechargeAll => {
                self.check_not_refreshing(at, &cmd)?;
                // Validate all banks first so a failure leaves state intact.
                for b in &self.banks {
                    if !b.is_idle() && at < b.earliest_precharge() {
                        return Err(BusViolation::Timing {
                            master: None,
                            at,
                            command: cmd,
                            parameter: "tRAS/tWR/tRTP",
                            legal_at: b.earliest_precharge(),
                        });
                    }
                }
                for b in &mut self.banks {
                    b.precharge(at, &self.timing, &cmd)?;
                }
                self.stats.precharges += 1;
                Ok(at + self.timing.trp)
            }
            Command::Refresh => {
                self.check_not_refreshing(at, &cmd)?;
                if let Some(open) = self.banks.iter().find(|b| !b.is_idle()) {
                    return Err(BusViolation::BankState {
                        master: None,
                        at,
                        command: cmd,
                        reason: format!(
                            "REFRESH with row {:?} open (PREA required first)",
                            open.open_row()
                        ),
                    });
                }
                // All banks must also satisfy tRP.
                for b in &self.banks {
                    if at < b.earliest_activate() {
                        return Err(BusViolation::Timing {
                            master: None,
                            at,
                            command: cmd,
                            parameter: "tRP",
                            legal_at: b.earliest_activate(),
                        });
                    }
                }
                // The silicon is busy for tRFC_base only; the *protocol*
                // window extends to tRFC_total, enforced by the bus.
                self.refresh_busy_until = at + self.timing.trfc_base;
                for b in &mut self.banks {
                    b.block_until(self.refresh_busy_until);
                }
                self.stats.refreshes += 1;
                Ok(self.refresh_busy_until)
            }
            Command::RefreshBank { bank, .. } => {
                self.check_not_refreshing(at, &cmd)?;
                let b = &self.banks[usize::from(bank.index())];
                if !b.is_idle() {
                    return Err(BusViolation::BankState {
                        master: None,
                        at,
                        command: cmd,
                        reason: format!(
                            "per-bank REFRESH to {bank} with row {:?} open (PRE required first)",
                            b.open_row()
                        ),
                    });
                }
                if at < b.earliest_activate() {
                    return Err(BusViolation::Timing {
                        master: None,
                        at,
                        command: cmd,
                        parameter: "tRP",
                        legal_at: b.earliest_activate(),
                    });
                }
                // Only the target bank is busy (tRFCpb); the other fifteen
                // keep serving — the whole point of refresh-access
                // parallelism. The rank-wide refresh_busy_until is
                // untouched.
                let ready = self.timing.refresh_silicon_ready_pb(at);
                self.banks[usize::from(bank.index())].block_until(ready);
                self.stats.refreshes += 1;
                Ok(ready)
            }
            Command::SelfRefreshEnter => {
                self.check_not_refreshing(at, &cmd)?;
                if !self.all_banks_idle() {
                    return Err(BusViolation::BankState {
                        master: None,
                        at,
                        command: cmd,
                        reason: "SRE with open banks".to_owned(),
                    });
                }
                self.in_self_refresh = true;
                Ok(at)
            }
            Command::SelfRefreshExit => {
                if !self.in_self_refresh {
                    return Err(BusViolation::BankState {
                        master: None,
                        at,
                        command: cmd,
                        reason: "SRX while not in self-refresh".to_owned(),
                    });
                }
                self.in_self_refresh = false;
                self.earliest_after_srx = at + self.timing.txs;
                Ok(self.earliest_after_srx)
            }
            Command::ModeRegisterSet { .. } | Command::ZqCalibration => {
                self.check_not_refreshing(at, &cmd)?;
                Ok(at)
            }
        }
    }

    /// Checks a READ/WRITE at `at` without changing any state.
    ///
    /// # Errors
    ///
    /// Returns the [`BusViolation`] [`DramDevice::issue`] would.
    pub(crate) fn check_column(&self, at: SimTime, cmd: &Command) -> Result<(), BusViolation> {
        let (Command::Read { bank, col, .. } | Command::Write { bank, col, .. }) = *cmd else {
            return Ok(());
        };
        self.check_not_refreshing(at, cmd)?;
        if u64::from(col) >= COLS_PER_ROW {
            return Err(BusViolation::BankState {
                master: None,
                at,
                command: *cmd,
                reason: format!("column {col} beyond the row ({COLS_PER_ROW} columns)"),
            });
        }
        if at < self.earliest_col_cmd {
            return Err(BusViolation::Timing {
                master: None,
                at,
                command: *cmd,
                parameter: "tCCD",
                legal_at: self.earliest_col_cmd,
            });
        }
        let (gate, parameter) = if matches!(cmd, Command::Read { .. }) {
            (self.earliest_read_after_write, "tWTR")
        } else {
            (self.earliest_write_after_read, "tRTW")
        };
        if at < gate {
            return Err(BusViolation::Timing {
                master: None,
                at,
                command: *cmd,
                parameter,
                legal_at: gate,
            });
        }
        self.banks[usize::from(bank.index())].check_rw(at, cmd)
    }

    /// Applies an accepted READ/WRITE at `at`; returns its data end.
    fn apply_column(&mut self, at: SimTime, cmd: &Command) -> SimTime {
        let t = &self.timing;
        let end = match *cmd {
            Command::Read { bank, .. } => {
                let end = self.banks[usize::from(bank.index())].apply_read(at, t);
                // A later WRITE drives DQ tCWL after issue; keep it off the
                // pins until this read's burst has left them.
                self.earliest_write_after_read = self.earliest_write_after_read.max(end - t.tcwl);
                self.stats.reads += 1;
                end
            }
            Command::Write { bank, .. } => {
                let end = self.banks[usize::from(bank.index())].apply_write(at, t);
                self.earliest_read_after_write = end + t.twtr;
                self.stats.writes += 1;
                end
            }
            _ => return at,
        };
        self.earliest_col_cmd = at + t.tccd_l;
        self.auto_precharge_if_requested(cmd, end);
        end
    }

    /// Applies the rest of a column run whose first command was just
    /// accepted: `extra` more commands, the last, `last`, at `last_at`.
    /// Every gate a column command sets is a maximum over issue instants
    /// (tCCD, tRTP, tWR, the read-to-write turnaround) or is overwritten
    /// by the latest write (tWTR), so the last command's effects are the
    /// whole tail's; only the counters see every command. Returns the
    /// last burst's data end.
    pub(crate) fn finish_column_run(
        &mut self,
        last_at: SimTime,
        last: &Command,
        extra: u64,
    ) -> SimTime {
        let end = self.apply_column(last_at, last);
        match last {
            Command::Read { .. } => self.stats.reads += extra - 1,
            _ => self.stats.writes += extra - 1,
        }
        end
    }

    fn auto_precharge_if_requested(&mut self, cmd: &Command, data_end: SimTime) {
        let (Command::Read {
            bank,
            auto_precharge: ap,
            ..
        }
        | Command::Write {
            bank,
            auto_precharge: ap,
            ..
        }) = *cmd
        else {
            return;
        };
        if ap {
            let b = &mut self.banks[usize::from(bank.index())];
            // Model auto-precharge as an internal precharge at the legal
            // instant after the burst.
            let when = b.earliest_precharge().max(data_end);
            b.block_until(when + self.timing.trp);
        }
    }

    /// The flat address `offset` bytes into the open row of `bank`, after
    /// checking that `len` bytes from there stay inside the row.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no open row or the span leaves the row.
    #[allow(clippy::expect_used)] // documented contract: open row required
    fn row_addr(&self, bank: BankAddr, offset: u64, len: usize) -> u64 {
        let row = self
            .bank(bank)
            .open_row()
            .expect("row transfer requires an open row");
        assert!(
            offset + len as u64 <= ROW_BYTES,
            "row transfer of {len} bytes at {offset} leaves the row"
        );
        self.mapping.encode(bank, row, 0) + offset
    }

    /// Reads `buf.len()` bytes of the open row of `bank`, starting `offset`
    /// bytes into the row: the data a column run moves.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no open row or the span leaves the row —
    /// issue the run through [`crate::SharedBus::issue_column_run`] first,
    /// which returns errors instead.
    pub fn row_read(&self, bank: BankAddr, offset: u64, buf: &mut [u8]) {
        let addr = self.row_addr(bank, offset, buf.len());
        self.mem.read(addr, buf);
    }

    /// Writes `data` into the open row of `bank`, starting `offset` bytes
    /// into the row.
    ///
    /// # Panics
    ///
    /// Panics if the bank has no open row or the span leaves the row.
    pub fn row_write(&mut self, bank: BankAddr, offset: u64, data: &[u8]) {
        let addr = self.row_addr(bank, offset, data.len());
        self.mem.write(addr, data);
    }

    /// Checks that `len` bytes at `addr` lie inside the device, without
    /// the end computation overflowing.
    fn check_span(&self, addr: u64, len: usize) -> Result<(), DdrError> {
        match addr.checked_add(len as u64) {
            Some(end) if end <= self.mapping.capacity() => Ok(()),
            _ => Err(DdrError::AddressOutOfRange {
                addr,
                capacity: self.mapping.capacity(),
            }),
        }
    }

    /// Direct backdoor read of the array (no timing) — used by test
    /// oracles and the power-failure flush path, never by the normal
    /// simulation flow.
    pub fn peek(&self, addr: u64, buf: &mut [u8]) -> Result<(), DdrError> {
        self.check_span(addr, buf.len())?;
        self.mem.read(addr, buf);
        Ok(())
    }

    /// Direct backdoor write of the array (no timing).
    pub fn poke(&mut self, addr: u64, data: &[u8]) -> Result<(), DdrError> {
        self.check_span(addr, data.len())?;
        self.mem.write(addr, data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::SpeedBin;
    use nvdimmc_sim::SimDuration;

    const CAP: u64 = 256 * 1024 * 1024;

    fn dev() -> DramDevice {
        DramDevice::new(TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600), CAP)
    }

    #[test]
    fn mapping_roundtrip() {
        let m = AddressMapping::new(CAP);
        for addr in [0u64, 64, 4096, 8192, 1 << 20, CAP - 64] {
            let d = m.decode(addr).unwrap();
            assert_eq!(m.encode(d.bank, d.row, d.col) + u64::from(d.offset), addr);
        }
    }

    #[test]
    fn mapping_keeps_page_in_one_row() {
        let m = AddressMapping::new(CAP);
        let base = 12 * 4096;
        let first = m.decode(base).unwrap();
        for off in (0..4096).step_by(64) {
            let d = m.decode(base + off).unwrap();
            assert_eq!(d.bank, first.bank, "page split across banks");
            assert_eq!(d.row, first.row, "page split across rows");
        }
    }

    #[test]
    fn mapping_rejects_out_of_range() {
        let m = AddressMapping::new(CAP);
        assert!(m.decode(CAP).is_err());
    }

    #[test]
    fn act_read_data_roundtrip() {
        let mut d = dev();
        let m = *d.mapping();
        let addr = 64 * 999;
        let dec = m.decode(addr).unwrap();
        let t0 = SimTime::from_ns(100);
        d.issue(
            t0,
            Command::Activate {
                bank: dec.bank,
                row: dec.row,
            },
        )
        .unwrap();
        let wr_at = t0 + d.timing().trcd;
        d.issue(
            wr_at,
            Command::Write {
                bank: dec.bank,
                col: dec.col,
                auto_precharge: false,
            },
        )
        .unwrap();
        let data = [0xCDu8; 64];
        d.row_write(dec.bank, u64::from(dec.col) * BURST_BYTES, &data);
        // A read one tCCD after the write violates the write-to-read
        // turnaround; it becomes legal once tWTR elapses after the burst.
        let t = *d.timing();
        let early = wr_at + t.tccd_l;
        let rd_cmd = Command::Read {
            bank: dec.bank,
            col: dec.col,
            auto_precharge: false,
        };
        let err = d.issue(early, rd_cmd);
        assert!(
            matches!(
                err,
                Err(BusViolation::Timing {
                    parameter: "tWTR",
                    ..
                })
            ),
            "{err:?}"
        );
        let rd_at = wr_at + t.tcwl + t.burst_time() + t.twtr;
        d.issue(rd_at, rd_cmd).unwrap();
        let mut back = [0u8; 64];
        d.row_read(dec.bank, u64::from(dec.col) * BURST_BYTES, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn refresh_requires_all_banks_precharged() {
        let mut d = dev();
        d.issue(
            SimTime::ZERO,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 3,
            },
        )
        .unwrap();
        let err = d.issue(SimTime::from_us(1), Command::Refresh);
        assert!(matches!(err, Err(BusViolation::BankState { .. })));
    }

    #[test]
    fn refresh_blocks_silicon_for_trfc_base() {
        let mut d = dev();
        let t0 = SimTime::from_us(10);
        let done = d.issue(t0, Command::Refresh).unwrap();
        assert_eq!(done, t0 + d.timing().trfc_base);
        // Any command before tRFC_base is a silicon violation.
        let err = d.issue(
            t0 + SimDuration::from_ns(100),
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        );
        assert!(matches!(
            err,
            Err(BusViolation::CommandDuringRefresh { .. })
        ));
        // After tRFC_base the silicon accepts commands again even though
        // the programmed tRFC_total is longer: the NVDIMM-C opportunity.
        d.issue(
            done,
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        )
        .unwrap();
    }

    #[test]
    fn per_bank_refresh_blocks_only_its_bank() {
        let mut d = dev();
        let t0 = SimTime::from_us(10);
        let target = BankAddr::new(1, 2);
        let other = BankAddr::new(0, 0);
        let done = d
            .issue(
                t0,
                Command::RefreshBank {
                    bank: target,
                    stretch: 3,
                },
            )
            .unwrap();
        assert_eq!(done, t0 + d.timing().trfc_pb);
        // The refreshing bank rejects an ACT before tRFCpb elapses...
        let err = d.issue(
            t0 + SimDuration::from_ns(10),
            Command::Activate {
                bank: target,
                row: 0,
            },
        );
        assert!(
            matches!(
                err,
                Err(BusViolation::Timing {
                    parameter: "tRP",
                    ..
                })
            ),
            "{err:?}"
        );
        // ...while every other bank keeps serving immediately.
        d.issue(
            t0 + SimDuration::from_ns(10),
            Command::Activate {
                bank: other,
                row: 0,
            },
        )
        .unwrap();
        // Rank-wide refresh busy is untouched.
        assert!(d.refresh_busy_until() < t0);
    }

    #[test]
    fn per_bank_refresh_requires_its_bank_precharged() {
        let mut d = dev();
        let b = BankAddr::new(2, 2);
        d.issue(SimTime::ZERO, Command::Activate { bank: b, row: 1 })
            .unwrap();
        let err = d.issue(
            SimTime::from_us(1),
            Command::RefreshBank {
                bank: b,
                stretch: 0,
            },
        );
        assert!(matches!(err, Err(BusViolation::BankState { .. })));
        // A different bank being open does not gate it.
        let err2 = d.issue(
            SimTime::from_us(1),
            Command::RefreshBank {
                bank: BankAddr::new(0, 1),
                stretch: 0,
            },
        );
        assert!(err2.is_ok(), "{err2:?}");
    }

    #[test]
    fn tfaw_limits_activation_rate() {
        let mut d = dev();
        let t = *d.timing();
        let mut at = SimTime::from_ns(1000);
        // Four ACTs spaced at tRRD_S (different groups) are legal...
        for i in 0..4u8 {
            d.issue(
                at,
                Command::Activate {
                    bank: BankAddr::new(i % 4, 0),
                    row: 0,
                },
            )
            .unwrap();
            at += t.trrd_s;
        }
        // ...a fifth within tFAW is not.
        let err = d.issue(
            at,
            Command::Activate {
                bank: BankAddr::new(0, 1),
                row: 0,
            },
        );
        assert!(matches!(
            err,
            Err(BusViolation::Timing {
                parameter: "tFAW",
                ..
            })
        ));
    }

    #[test]
    fn self_refresh_entry_and_exit() {
        let mut d = dev();
        d.issue(SimTime::from_ns(10), Command::SelfRefreshEnter)
            .unwrap();
        let err = d.issue(SimTime::from_ns(20), Command::Refresh);
        assert!(matches!(err, Err(BusViolation::BankState { .. })));
        let t_exit = SimTime::from_us(5);
        let ready = d.issue(t_exit, Command::SelfRefreshExit).unwrap();
        assert_eq!(ready, t_exit + d.timing().txs);
        let err = d.issue(
            t_exit + SimDuration::from_ns(1),
            Command::Activate {
                bank: BankAddr::new(0, 0),
                row: 0,
            },
        );
        assert!(matches!(
            err,
            Err(BusViolation::Timing {
                parameter: "tXS",
                ..
            })
        ));
    }

    #[test]
    fn auto_precharge_closes_bank() {
        let mut d = dev();
        let t0 = SimTime::from_ns(100);
        let b = BankAddr::new(1, 1);
        d.issue(t0, Command::Activate { bank: b, row: 7 }).unwrap();
        d.issue(
            t0 + d.timing().trcd,
            Command::Read {
                bank: b,
                col: 0,
                auto_precharge: true,
            },
        )
        .unwrap();
        assert!(d.bank(b).is_idle());
    }

    #[test]
    fn peek_poke_backdoor() {
        let mut d = dev();
        d.poke(4096, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        d.peek(4096, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert!(d.poke(CAP - 32, &[0u8; 64]).is_err());
    }

    #[test]
    fn peek_poke_reject_spans_whose_end_overflows() {
        let mut d = dev();
        let addr = u64::MAX - 8;
        let mut buf = [0u8; 64];
        assert!(matches!(
            d.peek(addr, &mut buf),
            Err(DdrError::AddressOutOfRange { addr: a, .. }) if a == addr
        ));
        assert!(matches!(
            d.poke(addr, &[1u8; 64]),
            Err(DdrError::AddressOutOfRange { addr: a, .. }) if a == addr
        ));
        // The last in-range bytes still work, and untouched frames read
        // back as zeros.
        d.poke(CAP - 8, &[9u8; 8]).unwrap();
        let mut tail = [0u8; 16];
        d.peek(CAP - 16, &mut tail).unwrap();
        assert_eq!(tail, [0, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn column_beyond_the_row_is_rejected() {
        let mut d = dev();
        let b = BankAddr::new(0, 1);
        d.issue(SimTime::from_ns(10), Command::Activate { bank: b, row: 2 })
            .unwrap();
        let at = SimTime::from_ns(10) + d.timing().trcd;
        let rd = |col| Command::Read {
            bank: b,
            col,
            auto_precharge: false,
        };
        let err = d.issue(at, rd(COLS_PER_ROW as u16));
        assert!(
            matches!(err, Err(BusViolation::BankState { .. })),
            "{err:?}"
        );
        assert_eq!(d.stats().reads, 0, "rejected without effect");
        d.issue(at, rd(COLS_PER_ROW as u16 - 1)).unwrap();
    }

    #[test]
    fn stats_count_commands() {
        let mut d = dev();
        let b = BankAddr::new(0, 0);
        d.issue(SimTime::from_ns(10), Command::Activate { bank: b, row: 0 })
            .unwrap();
        d.issue(
            SimTime::from_ns(10) + d.timing().trcd,
            Command::Read {
                bank: b,
                col: 0,
                auto_precharge: false,
            },
        )
        .unwrap();
        let s = d.stats();
        assert_eq!((s.activates, s.reads), (1, 1));
    }
}
