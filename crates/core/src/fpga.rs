//! The FPGA side of NVDIMM-C: CP polling and window-serialized DMA.
//!
//! Every behaviour here maps to paper §IV-A/§IV-C:
//!
//! - the FPGA acts on the DRAM **only inside extra-tRFC windows** reported
//!   by the refresh detector;
//! - it polls the CP command word each (serviced) window, decodes the
//!   phase/opcode bit-fields, and walks a per-command state machine: one
//!   window-consuming action per window;
//! - between actions, the PoC's software FSM (C/C++ on the Cortex-A53)
//!   needs [`crate::perf::PerfParams::fsm_step_delay`] of processing time,
//!   which is why the measured Uncached latency is ~8.9 tREFI instead of
//!   the 6-window protocol minimum (§VII-B2/§VII-C);
//! - all DMA is issued as real DDR4 commands through the shared bus, so
//!   any scheduling bug surfaces as a [`nvdimmc_ddr::BusViolation`].
//!
//! One fidelity note: the real FPGA polls the CP area in *every* window.
//! The simulator skips polls while no host transaction is outstanding —
//! an idle poll reads an unchanged phase and has no observable effect —
//! so batched refresh catch-up during FPGA-idle periods is behaviourally
//! identical.

use crate::cp::{
    CpCommand, CpOpcode, ACK_ERR_NAND, ACK_ERR_PROTOCOL, ACK_ERR_UNCORRECTABLE, ACK_OK,
};
use crate::error::CoreError;
use crate::layout::{Layout, SLOT_BYTES};
use crate::proto::{FpgaProto, PollVerdict};
use nvdimmc_ddr::{
    AccessKind, BankAddr, BusMaster, BusViolation, ColumnRun, Command, DecodedAddr, SharedBus,
};
use nvdimmc_nand::{NandError, Nvmc, PageBuf, PageCodec};
use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// FPGA counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FpgaStats {
    /// Windows offered by the detector.
    pub windows_seen: u64,
    /// Windows in which the FPGA performed a bus action.
    pub windows_used: u64,
    /// Windows skipped because the FSM was still processing.
    pub windows_skipped_busy: u64,
    /// Per-bank windows offered for a bank the FSM's next action does not
    /// target (demand-mismatched placement by the refresh planner).
    pub windows_wrong_bank: u64,
    /// Cachefill commands completed.
    pub cachefills: u64,
    /// Writeback commands completed.
    pub writebacks: u64,
    /// Merged writeback+cachefill commands completed.
    pub merged_ops: u64,
    /// Mailbox liveness probes acked (driver re-handshake traffic).
    pub probes: u64,
    /// Bytes DMAed between DRAM and the controller.
    pub dma_bytes: u64,
    /// Acks lost on the way out (injected mailbox fault).
    pub acks_dropped: u64,
    /// Acks written as garbage (injected mailbox fault).
    pub acks_corrupted: u64,
    /// Non-empty CP command words that failed to decode (dropped as
    /// retryable mailbox faults; the driver's retransmit recovers).
    pub cmd_decode_failures: u64,
    /// Commands nacked because the NAND backend failed mid-command.
    pub nand_errors_nacked: u64,
    /// Acks replayed for a retransmit of an already-executed command.
    pub replayed_acks: u64,
    /// Injected window-overrun stalls applied to an NVMC transfer.
    pub overrun_stalls: u64,
    /// In-flight NVMC bursts aborted at the window edge and split.
    pub bursts_split: u64,
    /// Split bursts completed in a later window.
    pub bursts_resumed: u64,
}

/// An injectable CP-mailbox acknowledgement fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckFault {
    /// The ack word is lost: the FPGA believes it acknowledged, the
    /// driver never sees it.
    Drop,
    /// The ack word is written but arrives mangled (decodes as empty).
    Corrupt,
}

/// Capacity of a writeback's read-out buffer: one slot, plus room for the
/// page codec's parity and CRC, so the NVMC encodes the buffer in place
/// and stores it without a copy.
const WB_CAPACITY: usize = PageCodec::new(SLOT_BYTES as usize).stored_bytes();

#[derive(Debug)]
enum FpgaState {
    /// No command in flight; poll the CP area.
    Idle,
    /// Writeback: read the victim slot out of DRAM (needs a window).
    /// `got` accumulates the lines read so far — a burst aborted at the
    /// window edge resumes from here next window. A merged op carries
    /// its fill data, read ahead while the victim streams out.
    WbRead {
        cmd: CpCommand,
        got: Vec<u8>,
        fill: Option<PageBuf>,
    },
    /// Cachefill, or a merged op once its victim is programmed: DMA the
    /// NAND data into the slot. `written` counts lines already landed by
    /// earlier (split) chunks.
    DmaWrite {
        cmd: CpCommand,
        data: PageBuf,
        written: u64,
    },
    /// Write the acknowledgement word (needs a window). `done` is the
    /// opcode to credit in the stats, `None` for a replayed ack (the
    /// command already ran; only its ack was lost).
    Ack {
        cmd: CpCommand,
        ok: bool,
        code: u8,
        done: Option<CpOpcode>,
    },
}

/// What of the battery-backed FPGA a power cut keeps (§V-C): the injected
/// faults still armed, which the injector already counted as fired, and
/// the recovery counters, so campaign accounting spans power cycles.
#[derive(Debug, Default)]
pub struct FpgaKept {
    /// Injected mailbox ack faults, consumed FIFO as acks go out.
    pub(crate) ack_faults: std::collections::VecDeque<AckFault>,
    /// Injected command-word corruptions: each one mangles the capture of
    /// one *new* published command, and the mangled capture persists until
    /// the driver republishes fresh bytes — so the command is never
    /// executed and never acked, and the driver's ladder must time out.
    pub(crate) cmd_faults_armed: u32,
    /// Injected window-overrun stall: the next NVMC transfer starts so
    /// late in its window that it is split at the window edge and resumed
    /// in the next one.
    pub(crate) stall_armed: bool,
    /// The recovery counters, `probes` and `acks_dropped` through
    /// `bursts_resumed`; the per-boot fields stay zero.
    stats: FpgaStats,
}

impl FpgaKept {
    /// Injected faults armed but not yet consumed.
    pub fn armed_faults(&self) -> usize {
        self.ack_faults.len() + self.cmd_faults_armed as usize + usize::from(self.stall_armed)
    }
}

/// The FPGA engine of one boot. Owns no bus, NAND or [`FpgaKept`] — each
/// is passed per window so the [`crate::System`] stays the single owner.
#[derive(Debug)]
pub struct Fpga {
    step_delay: SimDuration,
    /// Data-byte budget per window (PoC: 4 KB).
    window_xfer_bytes: u64,
    /// The reserved region the CP area and the cache slots live in.
    layout: Layout,
    state: FpgaState,
    /// Earliest instant the FSM can take its next window action.
    ready_at: SimTime,
    /// The pure mailbox protocol state (phase tracking, retransmit
    /// detection by txn key, garbage dedup) — shared with `nvdimmc-model`.
    proto: FpgaProto,
    /// The pristine word whose capture is currently mangled, so repeated
    /// polls of the same publish stay corrupted without consuming more
    /// armed faults.
    corrupted_word: Option<[u8; 16]>,
    /// This boot's window and command counters; the recovery counters
    /// stay zero here.
    stats: FpgaStats,
}

impl Fpga {
    /// Creates an idle FPGA with the given FSM step delay, per-window
    /// transfer budget and reserved-region layout.
    pub fn new(step_delay: SimDuration, window_xfer_bytes: u64, layout: Layout) -> Self {
        Fpga {
            step_delay,
            window_xfer_bytes: window_xfer_bytes.max(SLOT_BYTES),
            layout,
            state: FpgaState::Idle,
            ready_at: SimTime::ZERO,
            proto: FpgaProto::new(),
            corrupted_word: None,
            stats: FpgaStats::default(),
        }
    }

    /// Counters: this boot's window and command counts, with the
    /// recovery counters `kept` carries across power cycles.
    pub fn stats(&self, kept: &FpgaKept) -> FpgaStats {
        let b = self.stats;
        FpgaStats {
            windows_seen: b.windows_seen,
            windows_used: b.windows_used,
            windows_skipped_busy: b.windows_skipped_busy,
            windows_wrong_bank: b.windows_wrong_bank,
            cachefills: b.cachefills,
            writebacks: b.writebacks,
            merged_ops: b.merged_ops,
            dma_bytes: b.dma_bytes,
            ..kept.stats
        }
    }

    /// Earliest instant the FSM can take its next window action.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Bus time the FSM's next window action needs once it starts: a
    /// mailbox poll or ack, or the rest of the burst in progress.
    pub fn next_step_duration(&self, bus: &SharedBus) -> SimDuration {
        match &self.state {
            FpgaState::Idle | FpgaState::Ack { .. } => Self::poll_duration(bus),
            FpgaState::WbRead { got, .. } => {
                Self::burst_duration(bus, (SLOT_BYTES - got.len() as u64) / 64)
            }
            FpgaState::DmaWrite { data, written, .. } => {
                Self::burst_duration(bus, data.len() as u64 / 64 - written)
            }
        }
    }

    /// Whether a command is currently being processed.
    pub fn is_busy(&self) -> bool {
        !matches!(self.state, FpgaState::Idle)
    }

    /// Services one detected refresh window.
    ///
    /// Performs protocol steps until the window's byte budget
    /// (`window_xfer_bytes`, PoC: 4 KB) or time budget runs out. With the
    /// PoC's 7 µs FSM step delay at most one action fits per window; the
    /// §VII-C ASIC projection (sub-µs steps, larger budget, longer tRFC)
    /// chains several.
    ///
    /// # Errors
    ///
    /// Propagates bus violations (a violation here means the window
    /// scheduler is broken — tests assert it never happens) and NAND
    /// errors.
    pub fn on_refresh(
        &mut self,
        ref_at: SimTime,
        bus: &mut SharedBus,
        nvmc: &mut Nvmc,
        kept: &mut FpgaKept,
    ) -> Result<(), CoreError> {
        let (opens, closes) = {
            let t = bus.device().timing();
            (ref_at + t.trfc_base, ref_at + t.trfc_total)
        };
        self.service_window(opens, closes, None, bus, nvmc, kept)
    }

    /// Services one detected *per-bank* refresh window (a snooped REFpb to
    /// `bank` with the given stretch code).
    ///
    /// Unlike rank windows, per-bank windows are serviced while the host
    /// keeps running in the other banks, so the engine only acts when the
    /// window's bank matches what its FSM needs next (see
    /// [`Fpga::wanted_bank`]) and plans from the instant the shared CA slot
    /// actually frees up — the host may already have claimed slots past
    /// `opens` by the time the detector event is processed.
    ///
    /// # Errors
    ///
    /// Propagates bus violations and NAND errors, like [`Fpga::on_refresh`].
    pub fn on_refresh_banked(
        &mut self,
        ref_at: SimTime,
        bank: BankAddr,
        stretch: u8,
        bus: &mut SharedBus,
        nvmc: &mut Nvmc,
        kept: &mut FpgaKept,
    ) -> Result<(), CoreError> {
        let (opens, closes) = bus.device().timing().nvmc_window_bounds_pb(ref_at, stretch);
        let opens = bus.ca_free_at(opens);
        if opens >= closes {
            // The bus rolled past the close before the NVMC could act: a
            // dead window.
            self.stats.windows_seen += 1;
            self.stats.windows_skipped_busy += 1;
            return Ok(());
        }
        self.service_window(opens, closes, Some(bank), bus, nvmc, kept)
    }

    /// The DRAM bank the FSM's next window action targets: the CP mailbox
    /// bank when polling or acking, the command's slot bank mid-transfer.
    /// The per-bank refresh planner uses this to place windows where the
    /// NVMC actually needs them.
    pub fn wanted_bank(&self, bus: &SharedBus) -> Option<BankAddr> {
        let addr = match &self.state {
            FpgaState::Idle => self.layout.cp_command(),
            FpgaState::Ack { .. } => self.layout.cp_ack(),
            FpgaState::WbRead { cmd, got, .. } => {
                self.layout.slot_addr(cmd.dram_slot) + (got.len() as u64 / 64) * 64
            }
            FpgaState::DmaWrite { cmd, written, .. } => {
                self.layout.slot_addr(cmd.dram_slot) + written * 64
            }
        };
        bus.device().mapping().decode(addr).ok().map(|d| d.bank)
    }

    /// Window-service loop shared by the rank and per-bank paths.
    fn service_window(
        &mut self,
        opens: SimTime,
        closes: SimTime,
        allowed_bank: Option<BankAddr>,
        bus: &mut SharedBus,
        nvmc: &mut Nvmc,
        kept: &mut FpgaKept,
    ) -> Result<(), CoreError> {
        self.stats.windows_seen += 1;
        let mut budget = self.window_xfer_bytes;
        let mut used = false;
        loop {
            let consumed = self.step(opens, closes, allowed_bank, bus, nvmc, kept)?;
            if consumed == 0 {
                break;
            }
            used = true;
            if consumed >= budget {
                break;
            }
            budget -= consumed;
        }
        if used {
            self.stats.windows_used += 1;
        } else if self.is_busy() {
            self.stats.windows_skipped_busy += 1;
        }
        Ok(())
    }

    /// One protocol step inside the window; returns data bytes consumed
    /// (0 = nothing could run).
    fn step(
        &mut self,
        opens: SimTime,
        closes: SimTime,
        allowed_bank: Option<BankAddr>,
        bus: &mut SharedBus,
        nvmc: &mut Nvmc,
        kept: &mut FpgaKept,
    ) -> Result<u64, CoreError> {
        if let Some(allowed) = allowed_bank {
            if self.wanted_bank(bus) != Some(allowed) {
                self.stats.windows_wrong_bank += 1;
                return Ok(0);
            }
        }
        let start = self.ready_at.max(opens);
        // A poll and an ack each need one mailbox access of window.
        let mailbox_fits = start + Self::poll_duration(bus) <= closes;
        match self.state {
            FpgaState::Idle if !mailbox_fits => {
                self.stats.windows_skipped_busy += 1;
                return Ok(0);
            }
            FpgaState::Ack { .. } if !mailbox_fits => return Ok(0),
            _ => {}
        }

        match std::mem::replace(&mut self.state, FpgaState::Idle) {
            FpgaState::Idle => {
                let mut bytes = [0u8; 128];
                let end = self.dma_read(bus, self.layout.cp_command(), &mut bytes, start)?;
                let mut word = [0u8; 16];
                word.copy_from_slice(&bytes[..16]);
                // An armed command fault mangles the capture of a *new*
                // publish, and the mangled capture persists across repeat
                // polls of the same word — the command never executes and
                // the driver's ladder must time out and retransmit.
                if self.corrupted_word == Some(word)
                    || (kept.cmd_faults_armed > 0
                        && CpCommand::decode(&word)
                            .is_some_and(|c| Some(c.phase) != self.proto.last_phase()))
                {
                    if self.corrupted_word != Some(word) {
                        kept.cmd_faults_armed -= 1;
                        self.corrupted_word = Some(word);
                    }
                    // Mangle the opcode bit-field ([59:56]) so decode fails.
                    word[7] |= 0x0F;
                }
                match self.proto.classify(&word) {
                    PollVerdict::Replay { cmd, ok, code } => {
                        // A retransmit of the transaction we just
                        // completed: its ack was lost. Re-ack under the
                        // new phase without re-executing.
                        self.ready_at = end + self.step_delay;
                        kept.stats.replayed_acks += 1;
                        self.state = FpgaState::Ack {
                            cmd,
                            ok,
                            code,
                            done: None,
                        };
                        Ok(128)
                    }
                    PollVerdict::Execute(cmd) => {
                        self.ready_at = end + self.step_delay;
                        self.state = match cmd.opcode {
                            CpOpcode::Cachefill => {
                                // Start the NAND read as soon as decode
                                // finishes; the DMA waits on its data.
                                match nvmc.read_page(cmd.nand_page, self.ready_at) {
                                    Ok((data, ready)) => {
                                        self.ready_at = ready + self.step_delay;
                                        FpgaState::DmaWrite {
                                            cmd,
                                            data,
                                            written: 0,
                                        }
                                    }
                                    Err(e) => Self::nand_nack(kept, cmd, &e),
                                }
                            }
                            CpOpcode::Writeback => FpgaState::WbRead {
                                cmd,
                                got: Vec::with_capacity(WB_CAPACITY),
                                fill: None,
                            },
                            CpOpcode::WritebackCachefill => {
                                // The fill read overlaps the victim
                                // read-out: kick it off now and carry it.
                                match nvmc.read_page(cmd.nand_page, self.ready_at) {
                                    Ok((data, _ready)) => FpgaState::WbRead {
                                        cmd,
                                        got: Vec::with_capacity(WB_CAPACITY),
                                        fill: Some(data),
                                    },
                                    Err(e) => Self::nand_nack(kept, cmd, &e),
                                }
                            }
                            // A liveness probe moves no data: straight to
                            // the ack, consuming any armed mailbox faults
                            // on the way out like any other command.
                            CpOpcode::Probe => FpgaState::Ack {
                                cmd,
                                ok: true,
                                code: ACK_OK,
                                done: Some(CpOpcode::Probe),
                            },
                        };
                        Ok(128)
                    }
                    PollVerdict::Garbage { count } => {
                        // A non-empty word that does not decode: a mangled
                        // command. Drop it — the driver's retransmit (new
                        // phase, fresh bytes) recovers. The proto layer
                        // dedups so each distinct garbage word counts once,
                        // not once per poll.
                        if count {
                            kept.stats.cmd_decode_failures += 1;
                        }
                        Ok(0)
                    }
                    // Polled, nothing new: the idle FPGA is done with this
                    // window.
                    PollVerdict::Stale => Ok(0),
                }
            }
            FpgaState::WbRead { cmd, mut got, fill } => {
                let total = SLOT_BYTES / 64;
                let done = (got.len() / 64) as u64;
                let Some((xfer_at, lines)) = Self::plan_chunk(
                    kept,
                    bus,
                    start,
                    closes,
                    total - done,
                    done > 0,
                    allowed_bank.is_some(),
                ) else {
                    self.state = FpgaState::WbRead { cmd, got, fill };
                    return Ok(0);
                };
                let slot_addr = self.layout.slot_addr(cmd.dram_slot) + done * 64;
                let at = got.len();
                got.resize(at + lines as usize * 64, 0);
                let end = self.dma_read(bus, slot_addr, &mut got[at..], xfer_at)?;
                if done > 0 && done + lines == total {
                    kept.stats.bursts_resumed += 1;
                }
                if done + lines < total {
                    // Burst aborted at the window edge; resume next window.
                    self.ready_at = end + self.step_delay;
                    self.state = FpgaState::WbRead { cmd, got, fill };
                    return Ok(lines * 64);
                }
                let wb_page = match cmd.opcode {
                    CpOpcode::WritebackCachefill => match cmd.wb_nand_page {
                        Some(p) => p,
                        None => {
                            // Malformed merged command: nack instead of
                            // writing to a bogus page.
                            self.ready_at = end + self.step_delay;
                            self.state = FpgaState::Ack {
                                cmd,
                                ok: false,
                                code: ACK_ERR_PROTOCOL,
                                done: None,
                            };
                            return Ok(lines * 64);
                        }
                    },
                    _ => cmd.nand_page,
                };
                match nvmc.write_page(wb_page, got, end + self.step_delay) {
                    Ok(ack_at) => {
                        self.ready_at = ack_at + self.step_delay;
                        self.state = match fill {
                            Some(data) => FpgaState::DmaWrite {
                                cmd,
                                data,
                                written: 0,
                            },
                            None => FpgaState::Ack {
                                cmd,
                                ok: true,
                                code: ACK_OK,
                                done: Some(cmd.opcode),
                            },
                        };
                    }
                    Err(e) => {
                        self.ready_at = end + self.step_delay;
                        self.state = Self::nand_nack(kept, cmd, &e);
                    }
                }
                Ok(lines * 64)
            }
            FpgaState::DmaWrite { cmd, data, written } => {
                let total = (data.len() / 64) as u64;
                let Some((xfer_at, lines)) = Self::plan_chunk(
                    kept,
                    bus,
                    start,
                    closes,
                    total - written,
                    written > 0,
                    allowed_bank.is_some(),
                ) else {
                    self.state = FpgaState::DmaWrite { cmd, data, written };
                    return Ok(0);
                };
                let slot_addr = self.layout.slot_addr(cmd.dram_slot) + written * 64;
                let end = self.dma_write(
                    bus,
                    slot_addr,
                    &data[written as usize * 64..(written + lines) as usize * 64],
                    xfer_at,
                )?;
                if written > 0 && written + lines == total {
                    kept.stats.bursts_resumed += 1;
                }
                self.ready_at = end + self.step_delay;
                self.state = if written + lines < total {
                    FpgaState::DmaWrite {
                        cmd,
                        data,
                        written: written + lines,
                    }
                } else {
                    FpgaState::Ack {
                        cmd,
                        ok: true,
                        code: ACK_OK,
                        done: Some(cmd.opcode),
                    }
                };
                Ok(lines * 64)
            }
            FpgaState::Ack {
                cmd,
                ok,
                code,
                done,
            } => {
                // Record the completion (and build the seq-echoing ack)
                // regardless of ack faults: the command *did* run, so a
                // later retransmit must replay, not re-execute.
                let ack = self.proto.complete(&cmd, ok, code);
                let end = match kept.ack_faults.pop_front() {
                    Some(AckFault::Drop) => {
                        // The ack is lost in flight: no bus activity, but
                        // the FSM advances as if it had been delivered.
                        kept.stats.acks_dropped += 1;
                        start
                    }
                    Some(AckFault::Corrupt) => {
                        // The ack line lands mangled: the valid bit is
                        // clear, so the driver reads it as empty.
                        kept.stats.acks_corrupted += 1;
                        let mut line = [0u8; 64];
                        line[..8].copy_from_slice(&0xDEAD_BEEF_0000_0002u64.to_le_bytes());
                        self.dma_write(bus, self.layout.cp_ack(), &line, start)?
                    }
                    None => {
                        let mut line = [0u8; 64];
                        line[..8].copy_from_slice(&ack.encode());
                        self.dma_write(bus, self.layout.cp_ack(), &line, start)?
                    }
                };
                self.ready_at = end + self.step_delay;
                if let Some(op) = done {
                    match op {
                        CpOpcode::Cachefill => self.stats.cachefills += 1,
                        CpOpcode::Writeback => self.stats.writebacks += 1,
                        CpOpcode::WritebackCachefill => self.stats.merged_ops += 1,
                        CpOpcode::Probe => kept.stats.probes += 1,
                    }
                }
                self.state = FpgaState::Idle;
                Ok(64)
            }
        }
    }

    /// Maps a NAND failure during command execution to a failure ack, so
    /// the error reaches the driver as a typed nack instead of tearing
    /// down the FSM mid-command.
    fn nand_nack(kept: &mut FpgaKept, cmd: CpCommand, e: &NandError) -> FpgaState {
        kept.stats.nand_errors_nacked += 1;
        let code = match e {
            NandError::Uncorrectable { .. } => ACK_ERR_UNCORRECTABLE,
            _ => ACK_ERR_NAND,
        };
        FpgaState::Ack {
            cmd,
            ok: false,
            code,
            done: None,
        }
    }

    /// Plans the next chunk of an NVMC data burst: `Some((start, lines))`
    /// to transfer now, `None` to defer the window entirely.
    ///
    /// The no-fault rank path is exactly the historical behaviour: a burst
    /// only starts when it fully fits inside the window. Once a burst is in
    /// progress — or an injected stall pushes its start late, or the window
    /// is a short per-bank one (`allow_partial`) — the engine moves as many
    /// cachelines as still fit (ACT + RD/WRs + PRE all inside the window),
    /// aborts at the edge, and resumes next window.
    fn plan_chunk(
        kept: &mut FpgaKept,
        bus: &SharedBus,
        start: SimTime,
        closes: SimTime,
        remaining: u64,
        in_progress: bool,
        allow_partial: bool,
    ) -> Option<(SimTime, u64)> {
        let mut start = start;
        let full = Self::burst_duration(bus, remaining);
        let fits_full = start + full <= closes;
        if kept.stall_armed && !in_progress && fits_full {
            // Model an upstream hiccup in the window where the burst would
            // have landed whole: the transfer becomes ready so late that
            // only about half of it fits before the window closes.
            kept.stall_armed = false;
            kept.stats.overrun_stalls += 1;
            let half = Self::chunk_duration(bus, (remaining / 2).max(1));
            if closes > start + half {
                start = (closes - half).max(start);
            }
        } else if !in_progress && !allow_partial {
            return fits_full.then_some((start, remaining));
        }
        if start + full <= closes {
            return Some((start, remaining));
        }
        let fit = Self::lines_that_fit(bus, start, closes, remaining);
        if fit == 0 {
            return None;
        }
        if !in_progress {
            kept.stats.bursts_split += 1;
        }
        Some((start, fit))
    }

    /// Duration estimate of an NVMC burst of `lines` cachelines — the
    /// historical full-page formula generalized to any line count. Used
    /// for the whole-burst-fits fast path; must stay byte-identical to
    /// the original so the no-fault schedule does not move.
    fn burst_duration(bus: &SharedBus, lines: u64) -> SimDuration {
        let t = bus.device().timing();
        t.trcd + t.tccd_l * lines + t.tcl + t.burst_time() + t.trtp + t.trp
    }

    /// Conservative duration of a partial chunk of `lines` cachelines,
    /// covering both read (tRTP-gated) and write (tWR-gated) precharge.
    fn chunk_duration(bus: &SharedBus, lines: u64) -> SimDuration {
        let t = bus.device().timing();
        t.trcd + t.tccd_l * lines + t.tcl + t.burst_time() + t.trtp.max(t.twr) + t.trp
    }

    /// Largest chunk (in cachelines, at most `want`) whose conservative
    /// duration still fits between `start` and `closes`.
    fn lines_that_fit(bus: &SharedBus, start: SimTime, closes: SimTime, want: u64) -> u64 {
        let mut fit = 0;
        while fit < want && start + Self::chunk_duration(bus, fit + 1) <= closes {
            fit += 1;
        }
        fit
    }

    /// Conservative duration of a CP poll (two cachelines).
    fn poll_duration(bus: &SharedBus) -> SimDuration {
        let t = bus.device().timing();
        t.trcd + t.tccd_l * 2 + t.tcl + t.burst_time() + t.trtp + t.trp
    }

    /// Issues one NVMC command, absorbing retryable [`BusViolation::Timing`]
    /// bumps (cross-master tRRD/tWTR/CA-slot residue from host traffic that
    /// ran right up to a per-bank window). Returns the actual issue instant
    /// and the bus's completion result. In rank mode the window is
    /// exclusive, no bump ever fires, and the schedule is unchanged.
    fn nvmc_issue(
        bus: &mut SharedBus,
        at: SimTime,
        cmd: Command,
    ) -> Result<(SimTime, SimTime), CoreError> {
        Self::nvmc_retry(at, cmd, |at| bus.issue(BusMaster::Nvmc, at, cmd))
    }

    /// Runs `attempt` at `at`, then at each later legal instant a
    /// [`BusViolation::Timing`] reports; `cmd` names the command when the
    /// retry budget runs out.
    fn nvmc_retry(
        mut at: SimTime,
        cmd: Command,
        mut attempt: impl FnMut(SimTime) -> Result<SimTime, BusViolation>,
    ) -> Result<(SimTime, SimTime), CoreError> {
        for _ in 0..64 {
            match attempt(at) {
                Ok(done) => return Ok((at, done)),
                Err(BusViolation::Timing { legal_at, .. }) if legal_at > at => at = legal_at,
                Err(e) => return Err(e.into()),
            }
        }
        Err(CoreError::Protocol(format!(
            "NVMC retry budget exhausted at {at} for {cmd:?}"
        )))
    }

    /// Opens the row of `addr` and issues `len / 64` pipelined column
    /// commands of `kind` from it as one [`ColumnRun`]. Returns the
    /// decoded address, the ACT instant, the last command's instant and
    /// the last burst's data end.
    fn dma_run(
        bus: &mut SharedBus,
        kind: AccessKind,
        addr: u64,
        len: u64,
        start: SimTime,
    ) -> Result<(DecodedAddr, SimTime, SimTime, SimTime), CoreError> {
        let what = match kind {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        if !addr.is_multiple_of(64) || !len.is_multiple_of(64) {
            return Err(CoreError::Protocol(format!(
                "misaligned DMA {what}: addr {addr:#x} len {len}"
            )));
        }
        let dec = bus
            .device()
            .mapping()
            .decode(addr)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let count = u16::try_from(len / 64)
            .map_err(|_| CoreError::Protocol(format!("DMA {what} of {len} bytes")))?;
        let (act_at, rw_at) = Self::nvmc_issue(
            bus,
            start,
            Command::Activate {
                bank: dec.bank,
                row: dec.row,
            },
        )?;
        let run = ColumnRun {
            kind,
            bank: dec.bank,
            col: dec.col,
            count,
            interval: bus.device().timing().tccd_l,
        };
        let (first_at, end) = Self::nvmc_retry(rw_at, run.command(0), |at| {
            bus.issue_column_run(BusMaster::Nvmc, at, &run)
        })?;
        Ok((
            dec,
            act_at,
            run.issue_at(first_at, count.saturating_sub(1)),
            end,
        ))
    }

    /// DMA-reads `out.len()` bytes at `addr` into `out` with real DDR4
    /// commands: ACT, pipelined RDs, PRE. Returns the completion instant.
    fn dma_read(
        &mut self,
        bus: &mut SharedBus,
        addr: u64,
        out: &mut [u8],
        start: SimTime,
    ) -> Result<SimTime, CoreError> {
        let len = out.len() as u64;
        let (dec, act_at, last_issue, last_end) =
            Self::dma_run(bus, AccessKind::Read, addr, len, start)?;
        bus.device()
            .row_read(dec.bank, u64::from(dec.col) * 64, out);
        // Leave the bank precharged before the window closes (the bus
        // enforces this invariant when the host resumes); tRAS and tRTP
        // both gate the precharge.
        let t = *bus.device().timing();
        let pre_at = (act_at + t.tras).max(last_issue + t.trtp.max(t.tccd_l));
        let (pre_at, _) = Self::nvmc_issue(bus, pre_at, Command::Precharge { bank: dec.bank })?;
        self.stats.dma_bytes += len;
        Ok(last_end.max(pre_at + t.trp))
    }

    /// DMA-writes `data` at `addr` with real DDR4 commands.
    fn dma_write(
        &mut self,
        bus: &mut SharedBus,
        addr: u64,
        data: &[u8],
        start: SimTime,
    ) -> Result<SimTime, CoreError> {
        let len = data.len() as u64;
        let (dec, act_at, _, last_burst_end) =
            Self::dma_run(bus, AccessKind::Write, addr, len, start)?;
        bus.device_mut()
            .row_write(dec.bank, u64::from(dec.col) * 64, data);
        // Write recovery (and tRAS) before precharge.
        let t = *bus.device().timing();
        let pre_at = (act_at + t.tras).max(last_burst_end + t.twr);
        let (pre_at, _) = Self::nvmc_issue(bus, pre_at, Command::Precharge { bank: dec.bank })?;
        self.stats.dma_bytes += len;
        Ok(pre_at + t.trp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::CpAck;
    use nvdimmc_ddr::{DramDevice, Imc, RefreshMode, SpeedBin, TimingParams};
    use nvdimmc_nand::NvmcConfig;
    use nvdimmc_sim::SimTime;

    struct Rig {
        bus: SharedBus,
        imc: Imc,
        nvmc: Nvmc,
        fpga: Fpga,
        kept: FpgaKept,
        layout: Layout,
        clock: SimTime,
    }

    fn rig(step_delay_us: f64, window_bytes: u64) -> Rig {
        let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        let layout = Layout::new(0, 64);
        let stripe = 8 * 1024 * 16;
        let cap = Layout::required_bytes(64).div_ceil(stripe) * stripe;
        Rig {
            bus: SharedBus::new(DramDevice::new(timing, cap)),
            imc: Imc::new(&timing),
            nvmc: Nvmc::new(NvmcConfig::small_for_tests()).expect("nvmc"),
            fpga: Fpga::new(SimDuration::from_us(step_delay_us), window_bytes, layout),
            kept: FpgaKept::default(),
            layout,
            clock: SimTime::ZERO,
        }
    }

    impl Rig {
        /// Issues one refresh and hands the window to the FPGA; returns
        /// the REF time.
        fn one_window(&mut self) -> SimTime {
            let due = self.imc.next_refresh_due();
            let t = self.clock.max(due);
            self.clock = self.imc.pump_refresh(&mut self.bus, t).expect("pump");
            let w = self.bus.window().expect("window open");
            self.fpga
                .on_refresh(w.ref_at, &mut self.bus, &mut self.nvmc, &mut self.kept)
                .expect("window service");
            w.ref_at
        }

        fn stats(&self) -> FpgaStats {
            self.fpga.stats(&self.kept)
        }

        fn publish(&mut self, cmd: &CpCommand) {
            let mut line = [0u8; 64];
            line[..16].copy_from_slice(&cmd.encode());
            self.bus
                .device_mut()
                .poke(self.layout.cp_command(), &line)
                .expect("poke");
        }

        fn ack(&mut self) -> Option<CpAck> {
            let mut bytes = [0u8; 8];
            self.bus
                .device()
                .peek(self.layout.cp_ack(), &mut bytes)
                .expect("peek");
            CpAck::decode(&bytes)
        }

        fn run_until_ack(&mut self, phase: u8, max_windows: u32) -> u32 {
            for n in 1..=max_windows {
                self.one_window();
                if let Some(ack) = self.ack() {
                    if ack.phase == phase {
                        return n;
                    }
                }
            }
            panic!("no ack after {max_windows} windows");
        }
    }

    #[test]
    fn idle_polls_do_not_count_as_used_windows() {
        let mut r = rig(6.0, 4096);
        for _ in 0..5 {
            r.one_window();
        }
        let s = r.stats();
        assert_eq!(s.windows_seen, 5);
        assert_eq!(s.windows_used, 0, "nothing to do, nothing used");
        assert!(!r.fpga.is_busy());
    }

    #[test]
    fn cachefill_moves_nand_page_into_slot() {
        let mut r = rig(6.0, 4096);
        // Put a page on NAND.
        let data = vec![0xB7u8; 4096];
        r.nvmc
            .write_page(9, data.clone(), SimTime::ZERO)
            .expect("nand write");
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 3,
            nand_page: 9,
            wb_nand_page: None,
        });
        let windows = r.run_until_ack(1, 64);
        // Paper §V-A: three windows minimum (poll, data, ack); the FSM
        // delay may skip a few.
        assert!(
            (3..=8).contains(&windows),
            "cachefill took {windows} windows"
        );
        let mut slot = vec![0u8; 4096];
        r.bus
            .device()
            .peek(r.layout.slot_addr(3), &mut slot)
            .expect("peek");
        assert_eq!(slot, data, "slot contents after cachefill");
        assert_eq!(r.stats().cachefills, 1);
    }

    #[test]
    fn writeback_moves_slot_into_nand() {
        let mut r = rig(6.0, 4096);
        let data = vec![0x4Eu8; 4096];
        r.bus
            .device_mut()
            .poke(r.layout.slot_addr(7), &data)
            .expect("poke");
        r.publish(&CpCommand {
            phase: 2,
            seq: 0,
            opcode: CpOpcode::Writeback,
            dram_slot: 7,
            nand_page: 21,
            wb_nand_page: None,
        });
        let windows = r.run_until_ack(2, 64);
        assert!(
            (3..=8).contains(&windows),
            "writeback took {windows} windows"
        );
        let (read_back, _) = r.nvmc.read_page(21, r.clock).expect("nand read");
        assert_eq!(read_back, data);
        assert_eq!(r.stats().writebacks, 1);
    }

    #[test]
    fn repeated_phase_is_ignored() {
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(1, vec![1u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.publish(&CpCommand {
            phase: 5,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 0,
            nand_page: 1,
            wb_nand_page: None,
        });
        r.run_until_ack(5, 64);
        let fills = r.stats().cachefills;
        // Same phase still in the mailbox: more windows, no new command.
        for _ in 0..6 {
            r.one_window();
        }
        assert_eq!(r.stats().cachefills, fills, "phase replay executed twice");
    }

    #[test]
    fn merged_command_faster_than_split_pair() {
        // Split: WB then CF as two transactions.
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(2, vec![2u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.bus
            .device_mut()
            .poke(r.layout.slot_addr(0), &[9u8; 4096])
            .expect("poke");
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Writeback,
            dram_slot: 0,
            nand_page: 30,
            wb_nand_page: None,
        });
        let wb = r.run_until_ack(1, 64);
        r.publish(&CpCommand {
            phase: 2,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 0,
            nand_page: 2,
            wb_nand_page: None,
        });
        let cf = r.run_until_ack(2, 64);
        let split_windows = wb + cf;

        // Merged: one transaction does both.
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(2, vec![2u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.bus
            .device_mut()
            .poke(r.layout.slot_addr(0), &[9u8; 4096])
            .expect("poke");
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::WritebackCachefill,
            dram_slot: 0,
            nand_page: 2,
            wb_nand_page: Some(30),
        });
        let merged = r.run_until_ack(1, 64);
        assert!(
            merged < split_windows,
            "merged {merged} windows vs split {split_windows}"
        );
        // Both data movements happened.
        let (wb_data, _) = r.nvmc.read_page(30, r.clock).expect("nand");
        assert_eq!(wb_data, vec![9u8; 4096]);
        let mut slot = vec![0u8; 4096];
        r.bus
            .device()
            .peek(r.layout.slot_addr(0), &mut slot)
            .expect("peek");
        assert_eq!(slot, vec![2u8; 4096]);
        assert_eq!(r.stats().merged_ops, 1);
    }

    #[test]
    fn asic_fsm_uses_fewer_windows() {
        let run = |step_us: f64| {
            let mut r = rig(step_us, 4096);
            r.nvmc
                .write_page(4, vec![4u8; 4096], SimTime::ZERO)
                .expect("nand write");
            r.publish(&CpCommand {
                phase: 1,
                seq: 0,
                opcode: CpOpcode::Cachefill,
                dram_slot: 1,
                nand_page: 4,
                wb_nand_page: None,
            });
            r.run_until_ack(1, 64)
        };
        let poc = run(6.0);
        let asic = run(0.2);
        assert!(asic <= poc, "ASIC {asic} vs PoC {poc} windows");
        assert!(asic <= 4, "ASIC cachefill took {asic} windows");
    }

    #[test]
    fn all_fpga_commands_stayed_inside_windows() {
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(11, vec![5u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.publish(&CpCommand {
            phase: 3,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 2,
            nand_page: 11,
            wb_nand_page: None,
        });
        r.run_until_ack(3, 64);
        assert_eq!(r.bus.stats().violations_rejected, 0);
        assert!(r.bus.stats().nvmc_bytes >= 4096 + 64);
        assert!(r.bus.device().all_banks_idle(), "FPGA left a bank open");
    }

    #[test]
    fn dropped_ack_recovered_by_retransmit_replay() {
        let mut r = rig(6.0, 4096);
        let data = vec![0x3Cu8; 4096];
        r.nvmc
            .write_page(5, data.clone(), SimTime::ZERO)
            .expect("nand write");
        r.kept.ack_faults.push_back(AckFault::Drop);
        let cmd = CpCommand {
            phase: 1,
            seq: 9,
            opcode: CpOpcode::Cachefill,
            dram_slot: 2,
            nand_page: 5,
            wb_nand_page: None,
        };
        r.publish(&cmd);
        for _ in 0..16 {
            r.one_window();
        }
        assert!(r.ack().is_none(), "the ack should have been dropped");
        assert_eq!(r.stats().acks_dropped, 1);
        assert_eq!(r.stats().cachefills, 1, "command ran, ack was lost");
        // The driver times out and retransmits: same seq and fields under
        // a fresh phase. The FPGA must re-ack, not re-execute.
        r.publish(&CpCommand { phase: 2, ..cmd });
        r.run_until_ack(2, 64);
        let s = r.stats();
        assert_eq!(s.replayed_acks, 1);
        assert_eq!(s.cachefills, 1, "replay must not re-execute");
        let mut slot = vec![0u8; 4096];
        r.bus
            .device()
            .peek(r.layout.slot_addr(2), &mut slot)
            .expect("peek");
        assert_eq!(slot, data);
    }

    #[test]
    fn corrupted_ack_reads_as_empty_and_is_replayed() {
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(8, vec![0x61u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.kept.ack_faults.push_back(AckFault::Corrupt);
        let cmd = CpCommand {
            phase: 1,
            seq: 4,
            opcode: CpOpcode::Cachefill,
            dram_slot: 0,
            nand_page: 8,
            wb_nand_page: None,
        };
        r.publish(&cmd);
        for _ in 0..16 {
            r.one_window();
        }
        assert!(r.ack().is_none(), "a mangled ack must not decode");
        assert_eq!(r.stats().acks_corrupted, 1);
        r.publish(&CpCommand { phase: 2, ..cmd });
        r.run_until_ack(2, 64);
        assert_eq!(r.stats().replayed_acks, 1);
        assert_eq!(r.stats().cachefills, 1);
    }

    #[test]
    fn window_stall_splits_burst_and_resumes_cleanly() {
        let mut r = rig(6.0, 4096);
        let data = vec![0xA5u8; 4096];
        r.nvmc
            .write_page(3, data.clone(), SimTime::ZERO)
            .expect("nand write");
        r.kept.stall_armed = true;
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 1,
            nand_page: 3,
            wb_nand_page: None,
        });
        r.run_until_ack(1, 64);
        let s = r.stats();
        assert_eq!(s.overrun_stalls, 1);
        assert_eq!(s.bursts_split, 1, "the stalled burst must split");
        assert_eq!(s.bursts_resumed, 1, "the split burst must complete");
        assert_eq!(r.kept.armed_faults(), 0);
        let mut slot = vec![0u8; 4096];
        r.bus
            .device()
            .peek(r.layout.slot_addr(1), &mut slot)
            .expect("peek");
        assert_eq!(slot, data, "split burst landed the full page");
        assert_eq!(r.bus.stats().violations_rejected, 0);
        assert!(r.bus.device().all_banks_idle(), "FPGA left a bank open");
    }

    #[test]
    fn per_bank_windows_complete_a_cachefill() {
        let mut r = rig(0.2, 4096);
        r.bus.set_refresh_mode(RefreshMode::PerBank);
        r.imc.set_refresh_mode(RefreshMode::PerBank);
        r.bus.attach_recorder();
        let data = vec![0xC3u8; 4096];
        r.nvmc
            .write_page(9, data.clone(), SimTime::ZERO)
            .expect("nand write");
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 3,
            nand_page: 9,
            wb_nand_page: None,
        });
        // The shard's planner loop in miniature: steer each REFpb toward
        // the bank the FPGA needs, then service every snooped per-bank
        // window from the recorded trace (what the detector would emit).
        let mut acked = false;
        for _ in 0..512 {
            let due = r.imc.next_refresh_due();
            let t = r.clock.max(due);
            let want = r.fpga.wanted_bank(&r.bus);
            r.imc
                .set_refresh_pref(want.map(|b| (b, TimingParams::MAX_STRETCH)));
            r.clock = r.imc.pump_refresh(&mut r.bus, t).expect("pump");
            for e in r.bus.take_trace() {
                if let Command::RefreshBank { bank, stretch } = e.cmd {
                    r.fpga
                        .on_refresh_banked(
                            e.at,
                            bank,
                            stretch,
                            &mut r.bus,
                            &mut r.nvmc,
                            &mut r.kept,
                        )
                        .expect("banked window service");
                }
            }
            if r.ack().is_some_and(|a| a.phase == 1) {
                acked = true;
                break;
            }
        }
        assert!(acked, "cachefill never acked under per-bank windows");
        let mut slot = vec![0u8; 4096];
        r.bus
            .device()
            .peek(r.layout.slot_addr(3), &mut slot)
            .expect("peek");
        assert_eq!(slot, data, "slot contents after per-bank cachefill");
        let s = r.stats();
        assert_eq!(s.cachefills, 1);
        assert!(s.windows_used >= 3, "poll + data + ack each took a window");
        assert_eq!(r.bus.stats().violations_rejected, 0);
        assert!(r.bus.device().all_banks_idle(), "FPGA left a bank open");
    }

    #[test]
    fn wrong_bank_windows_are_skipped_not_used() {
        let mut r = rig(0.2, 4096);
        r.bus.set_refresh_mode(RefreshMode::PerBank);
        r.imc.set_refresh_mode(RefreshMode::PerBank);
        r.nvmc
            .write_page(2, vec![7u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 0,
            nand_page: 2,
            wb_nand_page: None,
        });
        let want = r.fpga.wanted_bank(&r.bus).expect("poll bank");
        let wrong = BankAddr::from_index((want.index() + 1) % BankAddr::COUNT);
        // Open a window over a bank the FSM does not target: no action.
        r.imc.set_refresh_pref(Some((wrong, 4)));
        let due = r.imc.next_refresh_due();
        r.clock = r.imc.pump_refresh(&mut r.bus, due).expect("pump");
        let w = r.bus.bank_window(wrong).expect("window open");
        r.fpga
            .on_refresh_banked(w.ref_at, wrong, 4, &mut r.bus, &mut r.nvmc, &mut r.kept)
            .expect("service");
        let s = r.stats();
        assert_eq!(s.windows_wrong_bank, 1);
        assert_eq!(s.windows_used, 0);
        assert_eq!(s.dma_bytes, 0, "no poll happened in the wrong bank");
    }

    #[test]
    fn nand_uncorrectable_is_nacked_with_code() {
        use crate::cp::ACK_ERR_UNCORRECTABLE;
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(6, vec![7u8; 4096], SimTime::ZERO)
            .expect("nand write");
        // Let the write buffer drain so the fill read hits media.
        for _ in 0..40 {
            r.one_window();
        }
        r.nvmc.ftl_mut().media_mut().arm_uncorrectable(true);
        r.publish(&CpCommand {
            phase: 1,
            seq: 1,
            opcode: CpOpcode::Cachefill,
            dram_slot: 0,
            nand_page: 6,
            wb_nand_page: None,
        });
        r.run_until_ack(1, 64);
        let ack = r.ack().expect("nack present");
        assert!(!ack.ok, "uncorrectable read must nack");
        assert_eq!(ack.code, ACK_ERR_UNCORRECTABLE);
        assert_eq!(r.stats().nand_errors_nacked, 1);
        assert_eq!(r.stats().cachefills, 0, "no completion credited");
    }
}
