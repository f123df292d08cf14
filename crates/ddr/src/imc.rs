//! The host integrated memory controller (iMC).
//!
//! Models exactly what the paper relies on from the Skylake iMC:
//!
//! - periodic REFRESH at tREFI, preceded by PRECHARGE-ALL (stock DDR4 has
//!   no per-bank refresh, §III-B), with the programmed — possibly
//!   stretched — tRFC honoured before any further command;
//! - open-page row-buffer policy with per-bank open-row tracking;
//! - pipelined column accesses at tCCD spacing for streaming transfers.
//!
//! The iMC *postpones* refresh while a command sequence is in flight and
//! catches up at the next pump point, as real controllers do (JEDEC allows
//! up to 8 postponed refreshes).
//!
//! In [`RefreshMode::PerBank`] the controller instead issues one REFpb
//! every tREFI/16 — same total refresh duty, one bank at a time — and
//! never blocks rank-wide: only commands into the refreshing bank stall.
//! The bank order is steered by an external preference (the shard's
//! refresh planner asks for the bank the NVMC most wants, with a stretch
//! level sized from queue depth). A preference applies to exactly one
//! REFpb: the pump consumes it, and REFpbs pumped for plain host traffic
//! fall back to least-recently-refreshed order at stretch 0. A deferral
//! counter forces any bank that has waited [`Imc::PB_FORCE_LIMIT`] ticks
//! since its own last REFpb, so out-of-order placement can never starve
//! a bank past its tREFI budget.

use crate::bus::{BusMaster, SharedBus};
pub use crate::command::AccessKind;
use crate::command::{BankAddr, ColumnRun, Command};
use crate::device::{DecodedAddr, BURST_BYTES, ROW_BYTES};
use crate::error::BusViolation;
use crate::timing::{RefreshMode, TimingParams};
use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// iMC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImcStats {
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required (PRE+)ACT.
    pub row_misses: u64,
    /// REFRESH commands issued.
    pub refreshes: u64,
    /// Refreshes elided because the clock jumped past them during pure
    /// CPU activity (JEDEC allows postponing at most 8; older ones are
    /// treated as having completed in the untracked interval).
    pub refreshes_elided: u64,
    /// Bytes read over the bus.
    pub bytes_read: u64,
    /// Bytes written over the bus.
    pub bytes_written: u64,
    /// Total time host commands spent waiting out programmed-tRFC blocks.
    pub refresh_stall: SimDuration,
}

/// The outcome of a single cacheline access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// When the column command was issued.
    pub issued_at: SimTime,
    /// When the data burst completed.
    pub data_end: SimTime,
}

/// The host memory controller.
///
/// Holds only *its own view* of the DRAM (open rows, refresh schedule); the
/// DRAM itself lives behind the [`SharedBus`], because the NVMC sees the
/// same device.
#[derive(Debug)]
pub struct Imc {
    /// Refresh interval, from the timing's tREFI.
    trefi: SimDuration,
    /// Rank-level REF (stock DDR4) or per-bank REFpb windows.
    mode: RefreshMode,
    next_refresh: SimTime,
    open_rows: Vec<Option<u32>>,
    /// Per-bank mode: the bank (and stretch) the refresh planner wants
    /// for the next REFpb, set by [`Imc::set_refresh_pref`] and consumed
    /// by that REFpb.
    pb_pref: Option<(BankAddr, u8)>,
    /// Per-bank mode: ticks each bank has waited since its own REFpb.
    pb_deferral: [u32; BankAddr::COUNT as usize],
    stats: ImcStats,
}

impl Imc {
    /// Per-bank mode: a bank that has waited this many REFpb ticks is
    /// refreshed next regardless of the planner's preference (1.5 × the
    /// 16-bank round-robin period — well inside the checker's starvation
    /// budget).
    pub const PB_FORCE_LIMIT: u32 = 24;

    /// Upper bound on retry iterations when a command must be delayed to a
    /// later legal instant.
    pub const MAX_RETRIES: u32 = 16;

    /// Creates a rank-level iMC refreshing at `timing`'s tREFI, with the
    /// first refresh due one tick in.
    pub fn new(timing: &TimingParams) -> Self {
        let mut imc = Imc {
            trefi: timing.trefi,
            mode: RefreshMode::RankLevel,
            next_refresh: SimTime::ZERO,
            open_rows: vec![None; 16],
            pb_pref: None,
            pb_deferral: [0; BankAddr::COUNT as usize],
            stats: ImcStats::default(),
        };
        imc.next_refresh = SimTime::ZERO + imc.tick();
        imc
    }

    /// Counters.
    pub fn stats(&self) -> ImcStats {
        self.stats
    }

    /// The configured refresh interval.
    pub fn trefi(&self) -> SimDuration {
        self.trefi
    }

    /// The refresh pump cadence: tREFI between rank REFs, tREFI/16
    /// between per-bank REFpbs (same total duty).
    fn tick(&self) -> SimDuration {
        match self.mode {
            RefreshMode::RankLevel => self.trefi,
            RefreshMode::PerBank => self.trefi / u64::from(BankAddr::COUNT),
        }
    }

    /// The active refresh mode.
    pub fn refresh_mode(&self) -> RefreshMode {
        self.mode
    }

    /// Switches refresh mode, re-anchoring the first due tick. Intended
    /// for assembly time, before any traffic.
    pub fn set_refresh_mode(&mut self, mode: RefreshMode) {
        self.mode = mode;
        self.next_refresh = SimTime::ZERO + self.tick();
    }

    /// Per-bank mode: tells the controller which bank the refresh planner
    /// wants for the next REFpb, and how far to stretch its window. The
    /// preference is one-shot: the next REFpb consumes it, and every REFpb
    /// after that (or after `None`) takes least-recently-refreshed order
    /// at stretch 0.
    pub fn set_refresh_pref(&mut self, pref: Option<(BankAddr, u8)>) {
        self.pb_pref = pref;
    }

    /// When the next refresh is due.
    pub fn next_refresh_due(&self) -> SimTime {
        self.next_refresh
    }

    /// Issues a host command, retrying at the violation-reported legal
    /// instant for ordinary timing delays (tCCD, tRAS, tRP, refresh
    /// blocks). Hard protocol errors propagate.
    fn issue_retry(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        cmd: Command,
    ) -> Result<(SimTime, SimTime), BusViolation> {
        self.retry(at, cmd, |at| bus.issue(BusMaster::HostImc, at, cmd))
    }

    /// Runs `attempt` at `at`, then at each violation-reported legal
    /// instant, until it is accepted; returns the accepted instant and
    /// the attempt's result. `cmd` names the command in the error when
    /// the retry budget runs out.
    fn retry(
        &mut self,
        mut at: SimTime,
        cmd: Command,
        mut attempt: impl FnMut(SimTime) -> Result<SimTime, BusViolation>,
    ) -> Result<(SimTime, SimTime), BusViolation> {
        for _ in 0..=Self::MAX_RETRIES {
            match attempt(at) {
                Ok(end) => return Ok((at, end)),
                Err(BusViolation::Timing { legal_at, .. }) => at = at.max(legal_at),
                Err(BusViolation::CommandDuringRefresh { busy_until, .. }) => {
                    self.stats.refresh_stall += busy_until.since(at);
                    at = busy_until;
                }
                Err(other) => return Err(other),
            }
        }
        Err(BusViolation::Timing {
            master: Some(BusMaster::HostImc),
            at,
            command: cmd,
            parameter: "retry-budget",
            legal_at: at,
        })
    }

    /// Issues any refreshes due at or before `now`; returns the instant the
    /// host may proceed (which may be later than `now` if a refresh window
    /// covers it).
    ///
    /// # Errors
    ///
    /// Propagates bus violations (none are expected from a well-behaved
    /// host; surfacing them is the point of the model).
    pub fn pump_refresh(
        &mut self,
        bus: &mut SharedBus,
        mut now: SimTime,
    ) -> Result<SimTime, BusViolation> {
        // JEDEC permits postponing up to 8 refreshes. If the clock jumped
        // further than that during bus-idle CPU work, the missed refreshes
        // are deemed to have completed in that interval (they would have —
        // the bus was idle); only the allowed backlog is issued live.
        let tick = self.tick();
        let cap = self.trefi * 8;
        let horizon = now.saturating_since(self.next_refresh);
        if horizon > cap {
            let missed = (horizon - cap).div_ceil(tick);
            self.stats.refreshes_elided += missed;
            self.next_refresh += tick * missed;
        }
        if self.mode == RefreshMode::PerBank {
            return self.pump_refresh_pb(bus, now);
        }
        while self.next_refresh <= now {
            let due = self.next_refresh;
            // Precharge all banks, then refresh once tRP has elapsed. A
            // refresh that fell due during bus-idle CPU work is issued
            // retroactively at its due time — it really did happen then —
            // so it only stalls the host when it overlaps bus activity.
            let (prea_at, _) = self.issue_retry(bus, due, Command::PrechargeAll)?;
            let trp = bus.device().timing().trp;
            let (ref_at, _) = self.issue_retry(bus, prea_at + trp, Command::Refresh)?;
            self.open_rows.fill(None);
            self.stats.refreshes += 1;
            self.next_refresh = due + self.trefi;
            // Host is blocked for the programmed tRFC.
            let resume = bus.host_ready_at(ref_at);
            if resume > now {
                self.stats.refresh_stall += resume.since(now.max(ref_at));
                now = resume;
            }
        }
        Ok(now)
    }

    /// Per-bank refresh pump: one REFpb per tREFI/16 tick. The host is
    /// never blocked rank-wide — an access into the refreshing bank stalls
    /// via the ordinary retry path, every other bank keeps flowing.
    fn pump_refresh_pb(
        &mut self,
        bus: &mut SharedBus,
        now: SimTime,
    ) -> Result<SimTime, BusViolation> {
        let tick = self.tick();
        while self.next_refresh <= now {
            let due = self.next_refresh;
            let (bank, stretch) = self.choose_pb_bank();
            let idx = usize::from(bank.index());
            // Only the target bank needs precharging (the point of REFpb).
            let mut at = due;
            if self.open_rows[idx].is_some() {
                let (pre_at, _) = self.issue_retry(bus, at, Command::Precharge { bank })?;
                at = pre_at + bus.device().timing().trp;
            }
            self.issue_retry(bus, at, Command::RefreshBank { bank, stretch })?;
            self.open_rows[idx] = None;
            for d in &mut self.pb_deferral {
                *d += 1;
            }
            self.pb_deferral[idx] = 0;
            self.stats.refreshes += 1;
            self.next_refresh = due + tick;
        }
        Ok(now)
    }

    /// Picks the bank for the next REFpb: any bank past the forcing limit
    /// wins (most-starved first), otherwise the planner's preference,
    /// otherwise least-recently-refreshed. Consumes the preference either
    /// way, so it never outlives the REFpb it was chosen for.
    fn choose_pb_bank(&mut self) -> (BankAddr, u8) {
        let pref = self.pb_pref.take();
        let most_starved = (0..BankAddr::COUNT)
            .max_by_key(|&i| self.pb_deferral[usize::from(i)])
            .unwrap_or(0);
        if self.pb_deferral[usize::from(most_starved)] >= Self::PB_FORCE_LIMIT {
            return (BankAddr::from_index(most_starved), 0);
        }
        if let Some((bank, stretch)) = pref {
            return (bank, stretch);
        }
        (BankAddr::from_index(most_starved), 0)
    }

    /// Performs one 64-byte access at `addr`, including any row
    /// activation, returning issue and completion instants.
    ///
    /// # Errors
    ///
    /// Propagates bus violations and address decode failures (as
    /// [`BusViolation::BankState`]).
    pub fn access(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        addr: u64,
        kind: AccessKind,
    ) -> Result<AccessResult, BusViolation> {
        let at = self.pump_refresh(bus, at)?;
        let dec = Self::decode(bus, at, addr)?;
        let col_at = self.open_row(bus, at, &dec)?;
        self.column_access(bus, col_at, &dec, kind)
    }

    fn decode(bus: &SharedBus, at: SimTime, addr: u64) -> Result<DecodedAddr, BusViolation> {
        bus.device()
            .mapping()
            .decode(addr)
            .map_err(|e| BusViolation::BankState {
                master: Some(BusMaster::HostImc),
                at,
                command: Command::Deselect,
                reason: e.to_string(),
            })
    }

    /// Ensures `dec.row` is open in `dec.bank`; returns the earliest
    /// instant a column command may issue.
    fn open_row(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        dec: &DecodedAddr,
    ) -> Result<SimTime, BusViolation> {
        let idx = usize::from(dec.bank.index());
        match self.open_rows[idx] {
            Some(row) if row == dec.row => {
                self.stats.row_hits += 1;
                Ok(at)
            }
            Some(_) => {
                self.stats.row_misses += 1;
                let (pre_at, _) =
                    self.issue_retry(bus, at, Command::Precharge { bank: dec.bank })?;
                let trp = bus.device().timing().trp;
                let (act_at, rw_ready) = self.issue_retry(
                    bus,
                    pre_at + trp,
                    Command::Activate {
                        bank: dec.bank,
                        row: dec.row,
                    },
                )?;
                let _ = act_at;
                self.open_rows[idx] = Some(dec.row);
                Ok(rw_ready)
            }
            None => {
                self.stats.row_misses += 1;
                let (_, rw_ready) = self.issue_retry(
                    bus,
                    at,
                    Command::Activate {
                        bank: dec.bank,
                        row: dec.row,
                    },
                )?;
                self.open_rows[idx] = Some(dec.row);
                Ok(rw_ready)
            }
        }
    }

    fn column_access(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        dec: &DecodedAddr,
        kind: AccessKind,
    ) -> Result<AccessResult, BusViolation> {
        let cmd = match kind {
            AccessKind::Read => Command::Read {
                bank: dec.bank,
                col: dec.col,
                auto_precharge: false,
            },
            AccessKind::Write => Command::Write {
                bank: dec.bank,
                col: dec.col,
                auto_precharge: false,
            },
        };
        let (issued_at, data_end) = self.issue_retry(bus, at, cmd)?;
        match kind {
            AccessKind::Read => self.stats.bytes_read += 64,
            AccessKind::Write => self.stats.bytes_written += 64,
        }
        Ok(AccessResult {
            issued_at,
            data_end,
        })
    }

    /// Moves `io` at `addr`, real bytes included (bytes of a partial burst
    /// outside a write's data keep their contents); returns when the last
    /// burst completed.
    ///
    /// Column commands are pipelined at tCCD spacing, or no faster than
    /// `line_interval` apart when that is longer. A CPU-driven copy moves
    /// one cacheline per load-buffer round trip, so its bus *exposure* is
    /// spread across the whole copy — which is what makes the host
    /// sensitive to refresh frequency (paper Figure 13).
    ///
    /// # Errors
    ///
    /// Propagates bus violations.
    pub fn transfer(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        addr: u64,
        io: Io<'_>,
        line_interval: SimDuration,
    ) -> Result<SimTime, BusViolation> {
        let len = io.len() as u64;
        let kind = if io.is_write() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.stream(bus, at, addr, len, kind, line_interval, Some(io))
    }

    /// The bus side of a read [`Imc::transfer`] alone: the same commands,
    /// instants, refreshes and counters for a `len`-byte read at `addr`,
    /// without moving any data. For callers whose data moves elsewhere
    /// (through a CPU cache model).
    ///
    /// # Errors
    ///
    /// Propagates bus violations.
    pub fn read_timing_paced(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        addr: u64,
        len: u64,
        line_interval: SimDuration,
    ) -> Result<SimTime, BusViolation> {
        self.stream(bus, at, addr, len, AccessKind::Read, line_interval, None)
    }

    /// Moves `len` bytes at `addr` as one [`ColumnRun`] per stretch of
    /// consecutive lines that share a row and no refresh falls inside,
    /// pipelined `max(tCCD_L, line_interval)` apart, and copies each run's
    /// bytes in one piece when a payload is given.
    #[allow(clippy::too_many_arguments)]
    fn stream(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        addr: u64,
        len: u64,
        kind: AccessKind,
        line_interval: SimDuration,
        mut payload: Option<Io<'_>>,
    ) -> Result<SimTime, BusViolation> {
        let interval = bus.device().timing().tccd_l.max(line_interval);
        let mut pos = 0u64;
        let mut next_issue = at;
        let mut last_end = at;
        while pos < len {
            let t = self.pump_refresh(bus, next_issue)?;
            let dec = Self::decode(bus, t, addr + pos)?;
            let col_at = self.open_row(bus, t, &dec)?;
            let row_off = u64::from(dec.col) * BURST_BYTES + u64::from(dec.offset);
            let in_row = (ROW_BYTES - row_off).min(len - pos);
            let lines = (u64::from(dec.offset) + in_row).div_ceil(BURST_BYTES) as u16;
            let (first_at, run, end) = self.issue_run(bus, col_at, &dec, kind, lines, interval)?;
            let count = u64::from(run.count);
            let n = (count * BURST_BYTES - u64::from(dec.offset)).min(in_row);
            let span = pos as usize..(pos + n) as usize;
            match payload.as_mut().map(|io| io.slice(span)) {
                Some(Io::Read(buf)) => bus.device().row_read(dec.bank, row_off, buf),
                Some(Io::Write(data)) => bus.device_mut().row_write(dec.bank, row_off, data),
                None => {}
            }
            self.stats.row_hits += count - 1;
            match kind {
                AccessKind::Read => self.stats.bytes_read += count * BURST_BYTES,
                AccessKind::Write => self.stats.bytes_written += count * BURST_BYTES,
            }
            next_issue = run.issue_at(first_at, run.count - 1) + interval;
            last_end = end;
            pos += n;
        }
        Ok(last_end)
    }

    /// Issues up to `lines` column commands from `dec` as one run, its
    /// first command at `at` or its retried legal instant. The run stops
    /// before the first command a due refresh would precede: the
    /// per-line path pumps refresh before every line, so no refresh may
    /// fall at or before a later command's issue instant. Returns the
    /// first command's instant, the run as issued and the last burst's
    /// data end.
    fn issue_run(
        &mut self,
        bus: &mut SharedBus,
        at: SimTime,
        dec: &DecodedAddr,
        kind: AccessKind,
        lines: u16,
        interval: SimDuration,
    ) -> Result<(SimTime, ColumnRun, SimTime), BusViolation> {
        let due = self.next_refresh;
        let mut run = ColumnRun {
            kind,
            bank: dec.bank,
            col: dec.col,
            count: lines,
            interval,
        };
        let (first_at, end) = self.retry(at, run.command(0), |at| {
            run.count = if due > at {
                due.since(at).div_ceil(interval).min(u64::from(lines)) as u16
            } else {
                1
            };
            bus.issue_column_run(BusMaster::HostImc, at, &run)
        })?;
        Ok((first_at, run, end))
    }
}

/// The payload of one host access: the buffer a read fills or the data a
/// write stores. Devices run reads and writes through one op body that
/// takes this instead of a read body and a write body.
#[derive(Debug)]
pub enum Io<'a> {
    /// A read into this buffer.
    Read(&'a mut [u8]),
    /// A write of these bytes.
    Write(&'a [u8]),
}

impl Io<'_> {
    /// Bytes the access moves.
    pub fn len(&self) -> usize {
        match self {
            Io::Read(buf) => buf.len(),
            Io::Write(data) => data.len(),
        }
    }

    /// Whether the access moves no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the access is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Io::Write(_))
    }

    /// The sub-access covering bytes `range` of this one.
    pub fn slice(&mut self, range: std::ops::Range<usize>) -> Io<'_> {
        match self {
            Io::Read(buf) => Io::Read(&mut buf[range]),
            Io::Write(data) => Io::Write(&data[range]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DramDevice;
    use crate::timing::{SpeedBin, TimingParams};

    const CAP: u64 = 1 << 27;

    fn setup() -> (Imc, SharedBus) {
        let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        let bus = SharedBus::new(DramDevice::new(timing, CAP));
        let imc = Imc::new(&timing);
        (imc, bus)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut imc, mut bus) = setup();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let t0 = SimTime::from_ns(100);
        let end = imc
            .transfer(&mut bus, t0, 8192, Io::Write(&payload), SimDuration::ZERO)
            .unwrap();
        assert!(end > t0);
        let mut out = vec![0u8; 4096];
        imc.transfer(&mut bus, end, 8192, Io::Read(&mut out), SimDuration::ZERO)
            .unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn unaligned_access_roundtrip() {
        let (mut imc, mut bus) = setup();
        let payload = [0xABu8; 100];
        let t0 = SimTime::from_ns(100);
        let end = imc
            .transfer(&mut bus, t0, 1000, Io::Write(&payload), SimDuration::ZERO)
            .unwrap();
        let mut out = [0u8; 100];
        imc.transfer(&mut bus, end, 1000, Io::Read(&mut out), SimDuration::ZERO)
            .unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn row_hits_on_sequential_lines() {
        let (mut imc, mut bus) = setup();
        let mut buf = vec![0u8; 4096];
        imc.transfer(
            &mut bus,
            SimTime::from_ns(100),
            0,
            Io::Read(&mut buf),
            SimDuration::ZERO,
        )
        .unwrap();
        let s = imc.stats();
        // 64 lines in one 4KB page share a single row: 1 miss, 63 hits.
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 63);
    }

    #[test]
    fn refresh_issued_at_trefi_cadence() {
        let (mut imc, mut bus) = setup();
        // Pump well past 10 refresh intervals.
        let t = SimTime::ZERO + imc.trefi() * 10 + SimDuration::from_us(1.0);
        imc.pump_refresh(&mut bus, t).unwrap();
        // Ten refreshes were due. Those beyond the 8-deep postponement
        // budget are elided (deemed done during the idle jump); the rest
        // are issued live, possibly crossing one more due point.
        let s = imc.stats();
        let covered = s.refreshes + s.refreshes_elided;
        assert!((10..=12).contains(&covered), "covered = {covered}");
        assert!(
            s.refreshes <= 10 && s.refreshes >= 8,
            "live = {}",
            s.refreshes
        );
        assert_eq!(bus.stats().refreshes, s.refreshes);
    }

    #[test]
    fn streaming_read_beats_serialized_latency() {
        let (mut imc, mut bus) = setup();
        let mut buf = vec![0u8; 65536];
        let t0 = SimTime::from_ns(100);
        let end = imc
            .transfer(&mut bus, t0, 0, Io::Read(&mut buf), SimDuration::ZERO)
            .unwrap();
        let elapsed = end.since(t0);
        let bw = 65536.0 / elapsed.as_secs_f64() / 1e9; // GB/s
                                                        // DDR4-1600 peak is 12.8 GB/s; pipelined reads should exceed 5 GB/s
                                                        // (tCCD_L-limited ~10 GB/s minus ACT/refresh overhead).
        assert!(bw > 5.0, "streaming bandwidth {bw:.2} GB/s too low");
    }

    #[test]
    fn refresh_stall_grows_with_faster_trefi() {
        // The Figure 13 mechanism: quadrupling the refresh rate costs host
        // bandwidth.
        let run = |trefi_us: f64| {
            let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600)
                .with_trefi(SimDuration::from_us(trefi_us));
            let mut bus = SharedBus::new(DramDevice::new(timing, CAP));
            let mut imc = Imc::new(&timing);
            let mut t = SimTime::from_ns(100);
            let mut buf = vec![0u8; 4096];
            for i in 0..200u64 {
                t = imc
                    .transfer(
                        &mut bus,
                        t,
                        (i * 4096) % (CAP / 2),
                        Io::Read(&mut buf),
                        SimDuration::ZERO,
                    )
                    .unwrap();
            }
            t.since(SimTime::from_ns(100)).as_us_f64()
        };
        let slow = run(7.8);
        let fast = run(1.95);
        assert!(
            fast > slow * 1.02,
            "tREFI4 runtime {fast:.1}us not slower than tREFI {slow:.1}us"
        );
    }

    #[test]
    fn per_bank_pump_keeps_total_refresh_duty() {
        let (mut imc, mut bus) = setup();
        imc.set_refresh_mode(RefreshMode::PerBank);
        bus.set_refresh_mode(RefreshMode::PerBank);
        let t = SimTime::ZERO + imc.trefi() * 4 + SimDuration::from_us(1.0);
        imc.pump_refresh(&mut bus, t).unwrap();
        let s = imc.stats();
        // Four tREFIs of duty at one REFpb per tREFI/16: 64 bank
        // refreshes (give or take the pump crossing one more tick).
        assert!(
            (64..=66).contains(&s.refreshes),
            "live REFpb = {}",
            s.refreshes
        );
        assert_eq!(bus.stats().refreshes, s.refreshes);
    }

    #[test]
    fn per_bank_pump_never_blocks_the_rank() {
        let (mut imc, mut bus) = setup();
        imc.set_refresh_mode(RefreshMode::PerBank);
        bus.set_refresh_mode(RefreshMode::PerBank);
        // Drive one tick's refresh, then access a *different* bank inside
        // what would have been the rank-wide block.
        let tick = imc.trefi() / 16;
        let due = SimTime::ZERO + tick;
        imc.pump_refresh(&mut bus, due).unwrap();
        let refreshed = bus
            .device()
            .timing()
            .refresh_silicon_ready_pb(due)
            .since(due);
        assert!(refreshed > SimDuration::ZERO, "test premise");
        // Mid-tRFCpb: the whole rank is NOT blocked.
        assert_eq!(
            bus.host_ready_at(due + bus.device().timing().speed.tck()),
            due + bus.device().timing().speed.tck()
        );
    }

    #[test]
    fn per_bank_access_stalls_only_in_refreshing_bank() {
        let (mut imc, mut bus) = setup();
        imc.set_refresh_mode(RefreshMode::PerBank);
        bus.set_refresh_mode(RefreshMode::PerBank);
        imc.set_refresh_pref(Some((BankAddr::new(0, 0), 0)));
        let tick = imc.trefi() / 16;
        let due = SimTime::ZERO + tick;
        imc.pump_refresh(&mut bus, due).unwrap();
        let tck = bus.device().timing().speed.tck();
        // Bank (0,0) is refreshing: an access there must wait and record
        // stall; bank (1,0) is reachable immediately.
        let mapping = *bus.device().mapping();
        let other_addr = mapping.encode(BankAddr::new(1, 0), 0, 0);
        let hot_addr = mapping.encode(BankAddr::new(0, 0), 0, 0);
        let free = imc
            .access(&mut bus, due + tck, other_addr, AccessKind::Read)
            .unwrap();
        assert_eq!(free.issued_at, due + tck + bus.device().timing().trcd);
        let before = imc.stats().refresh_stall;
        let stalled = imc
            .access(&mut bus, due + tck, hot_addr, AccessKind::Read)
            .unwrap();
        assert!(stalled.issued_at > free.issued_at);
        assert!(imc.stats().refresh_stall > before);
    }

    #[test]
    fn refresh_pref_applies_to_exactly_one_refpb() {
        let (mut imc, mut bus) = setup();
        imc.set_refresh_mode(RefreshMode::PerBank);
        bus.set_refresh_mode(RefreshMode::PerBank);
        bus.attach_recorder();
        let tick = imc.trefi() / 16;
        // Two REFpbs in least-recently-refreshed order first, so the
        // fallback order is observable: the pick is then the most-deferred
        // bank, which is neither of them.
        let mut t = SimTime::ZERO;
        for _ in 0..2 {
            t += tick;
            imc.pump_refresh(&mut bus, t).unwrap();
        }
        let preferred = BankAddr::new(1, 3);
        imc.set_refresh_pref(Some((preferred, TimingParams::MAX_STRETCH)));
        for _ in 0..2 {
            t += tick;
            imc.pump_refresh(&mut bus, t).unwrap();
        }
        let refpbs: Vec<(BankAddr, u8)> = bus
            .take_trace()
            .iter()
            .filter_map(|e| match e.cmd {
                Command::RefreshBank { bank, stretch } => Some((bank, stretch)),
                _ => None,
            })
            .collect();
        assert_eq!(refpbs.len(), 4);
        assert_eq!(refpbs[2], (preferred, TimingParams::MAX_STRETCH));
        // The REFpb after the preferred one is back in least-recently-
        // refreshed order at stretch 0: not the preferred bank, and not
        // either of the two banks refreshed before it.
        let (next, stretch) = refpbs[3];
        assert_eq!(stretch, 0, "a consumed preference leaves no stretch");
        assert!(
            ![preferred, refpbs[0].0, refpbs[1].0].contains(&next),
            "REFpb after the preferred one went to recently refreshed {next}"
        );
    }

    #[test]
    fn deferral_forcing_reaches_every_bank_despite_sticky_pref() {
        let (mut imc, mut bus) = setup();
        imc.set_refresh_mode(RefreshMode::PerBank);
        bus.set_refresh_mode(RefreshMode::PerBank);
        bus.attach_recorder();
        let mut t = SimTime::ZERO;
        let tick = imc.trefi() / 16;
        for _ in 0..(u64::from(Imc::PB_FORCE_LIMIT) * 16 * 2) {
            // A planner that never changes its mind, re-asserting the
            // same bank before every REFpb.
            imc.set_refresh_pref(Some((BankAddr::new(0, 0), 2)));
            t += tick;
            imc.pump_refresh(&mut bus, t).unwrap();
        }
        let trace = bus.take_trace();
        let mut seen = [0u64; 16];
        let mut last_seen_gap = [0u64; 16];
        let mut total = 0u64;
        for e in &trace {
            if let Command::RefreshBank { bank, .. } = e.cmd {
                total += 1;
                seen[usize::from(bank.index())] += 1;
                last_seen_gap[usize::from(bank.index())] = total;
            }
        }
        for i in 0..16 {
            assert!(seen[i] > 0, "bank {i} never refreshed: {seen:?}");
            assert!(
                total - last_seen_gap[i] <= u64::from(Imc::PB_FORCE_LIMIT) + 16,
                "bank {i} starved at end of run"
            );
        }
    }

    /// A transfer one line at a time through [`Imc::access`]: the loop the
    /// column runs replace (pump refresh, open the row, issue the column
    /// command, pipeline the next line `max(tCCD_L, pace)` later).
    fn per_line(
        imc: &mut Imc,
        bus: &mut SharedBus,
        at: SimTime,
        addr: u64,
        len: u64,
        kind: AccessKind,
        pace: SimDuration,
    ) -> SimTime {
        let interval = bus.device().timing().tccd_l.max(pace);
        let (mut next, mut end) = (at, at);
        let mut a = addr;
        while a < addr + len {
            let r = imc.access(bus, next, a, kind).unwrap();
            next = r.issued_at + interval;
            end = r.data_end;
            a = (a / 64 + 1) * 64;
        }
        end
    }

    #[test]
    fn runs_match_the_per_line_transfer_across_refreshes() {
        use nvdimmc_sim::DeterministicRng;
        for mode in [RefreshMode::RankLevel, RefreshMode::PerBank] {
            let mut rng = DeterministicRng::new(7);
            let rig = || {
                let (mut imc, mut bus) = setup();
                imc.set_refresh_mode(mode);
                bus.set_refresh_mode(mode);
                bus.attach_recorder();
                (imc, bus)
            };
            let (mut run_imc, mut run_bus) = rig();
            let (mut ref_imc, mut ref_bus) = rig();
            let mut at = SimTime::from_ns(100);
            for _ in 0..400 {
                let addr = rng.gen_range(0..CAP / 2);
                let len = rng.gen_range(1..3 * 8192);
                let pace = SimDuration::from_ps(rng.gen_range(0..40_000));
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let got = match kind {
                    AccessKind::Read => {
                        run_imc.read_timing_paced(&mut run_bus, at, addr, len, pace)
                    }
                    AccessKind::Write => run_imc.transfer(
                        &mut run_bus,
                        at,
                        addr,
                        Io::Write(&vec![0x5A; len as usize]),
                        pace,
                    ),
                }
                .unwrap();
                let want = per_line(&mut ref_imc, &mut ref_bus, at, addr, len, kind, pace);
                assert_eq!(got, want, "{kind:?} {len} B at {addr:#x}, pace {pace:?}");
                assert_eq!(run_imc.stats(), ref_imc.stats());
                assert_eq!(run_bus.stats(), ref_bus.stats());
                assert_eq!(run_bus.device().stats(), ref_bus.device().stats());
                assert_eq!(run_bus.take_trace(), ref_bus.take_trace());
                // Sometimes idle past a refresh or several.
                at = got + SimDuration::from_ps(rng.gen_range(0..3_000_000));
            }
            assert!(run_imc.stats().refreshes > 40, "{:?}", run_imc.stats());
        }
    }

    #[test]
    fn run_payloads_move_the_bytes_the_lines_would() {
        let (mut imc, mut bus) = setup();
        // Unaligned, crossing two row ends, with bytes around it that a
        // partial burst must keep.
        let addr = 8192 - 100;
        let around = vec![0xEEu8; 8192 * 3];
        imc.transfer(
            &mut bus,
            SimTime::from_ns(100),
            addr - 200,
            Io::Write(&around),
            SimDuration::ZERO,
        )
        .unwrap();
        let payload: Vec<u8> = (0..8192 + 300).map(|i| (i % 253) as u8).collect();
        let t = imc
            .transfer(
                &mut bus,
                SimTime::from_us(5),
                addr,
                Io::Write(&payload),
                SimDuration::ZERO,
            )
            .unwrap();
        let mut back = vec![0u8; payload.len() + 400];
        imc.transfer(
            &mut bus,
            t,
            addr - 200,
            Io::Read(&mut back),
            SimDuration::ZERO,
        )
        .unwrap();
        assert_eq!(&back[..200], &around[..200]);
        assert_eq!(&back[200..200 + payload.len()], &payload[..]);
        assert_eq!(&back[200 + payload.len()..], &around[..200]);
        let mut direct = vec![0u8; payload.len()];
        bus.device().peek(addr, &mut direct).unwrap();
        assert_eq!(direct, payload);
    }
}
