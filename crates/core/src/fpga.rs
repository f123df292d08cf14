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
use nvdimmc_ddr::{BankAddr, BusMaster, BusViolation, Command, SharedBus};
use nvdimmc_nand::{NandError, Nvmc};
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

#[derive(Debug)]
enum FpgaState {
    /// No command in flight; poll the CP area.
    Idle,
    /// Writeback: read the victim slot out of DRAM (needs a window).
    /// `got` accumulates the lines read so far — a burst aborted at the
    /// window edge resumes from here next window.
    WbRead { cmd: CpCommand, got: Vec<u8> },
    /// Cachefill: wait for the NAND read, then DMA into the slot.
    /// `written` counts lines already landed by earlier (split) chunks.
    CfDmaWrite {
        cmd: CpCommand,
        data: Vec<u8>,
        written: u64,
    },
    /// Merged op: victim read done and programmed; fill data ready to DMA.
    MergedDmaWrite {
        cmd: CpCommand,
        data: Vec<u8>,
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

/// The FPGA engine. Owns no bus or NAND — both are passed per window so
/// the [`crate::System`] stays the single owner.
#[derive(Debug)]
pub struct Fpga {
    step_delay: SimDuration,
    /// Data-byte budget per window (PoC: 4 KB).
    window_xfer_bytes: u64,
    state: FpgaState,
    /// Earliest instant the FSM can take its next window action.
    ready_at: SimTime,
    /// The pure mailbox protocol state (phase tracking, retransmit
    /// detection by txn key, garbage dedup) — shared with `nvdimmc-model`.
    proto: FpgaProto,
    /// Fill data read ahead for a merged writeback+cachefill command.
    pending_fill: Option<Vec<u8>>,
    /// Injected ack faults, consumed FIFO as acks go out.
    ack_faults: std::collections::VecDeque<AckFault>,
    /// Injected command-word corruptions: each one mangles the capture of
    /// one *new* published command, and the mangled capture persists until
    /// the driver republishes fresh bytes — so the command is never
    /// executed and never acked, and the driver's ladder must time out.
    cmd_faults_armed: u32,
    /// The pristine word whose capture is currently mangled, so repeated
    /// polls of the same publish stay corrupted without consuming more
    /// armed faults.
    corrupted_word: Option<[u8; 16]>,
    /// Injected window-overrun stall, armed for the next NVMC transfer.
    stall_armed: bool,
    stats: FpgaStats,
}

impl Fpga {
    /// Creates an idle FPGA with the given FSM step delay and per-window
    /// transfer budget.
    pub fn new(step_delay: SimDuration, window_xfer_bytes: u64) -> Self {
        Fpga {
            step_delay,
            window_xfer_bytes: window_xfer_bytes.max(SLOT_BYTES),
            state: FpgaState::Idle,
            ready_at: SimTime::ZERO,
            proto: FpgaProto::new(),
            pending_fill: None,
            ack_faults: std::collections::VecDeque::new(),
            cmd_faults_armed: 0,
            corrupted_word: None,
            stall_armed: false,
            stats: FpgaStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> FpgaStats {
        self.stats
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
            FpgaState::CfDmaWrite { data, written, .. }
            | FpgaState::MergedDmaWrite { data, written, .. } => {
                Self::burst_duration(bus, data.len() as u64 / 64 - written)
            }
        }
    }

    /// Whether a command is currently being processed.
    pub fn is_busy(&self) -> bool {
        !matches!(self.state, FpgaState::Idle)
    }

    /// Queues a mailbox ack fault: the next ack leaving the FPGA is
    /// dropped or corrupted.
    pub fn inject_ack_fault(&mut self, fault: AckFault) {
        self.ack_faults.push_back(fault);
    }

    /// Arms a window-overrun stall: the next NVMC data transfer starts so
    /// late in its window that it cannot finish and must be aborted at the
    /// window edge and resumed in the next one.
    pub fn inject_window_stall(&mut self) {
        self.stall_armed = true;
    }

    /// Queues a command-word fault: the FPGA's capture of the next *new*
    /// published command is mangled (and stays mangled until the driver
    /// republishes), so the command is dropped as a decode failure and
    /// the driver's retransmit ladder must recover it. Unlike
    /// [`AckFault::Drop`] the command is never executed.
    pub fn inject_cmd_fault(&mut self) {
        self.cmd_faults_armed += 1;
    }

    /// Injected faults armed but not yet consumed.
    pub fn armed_faults(&self) -> usize {
        self.ack_faults.len() + self.cmd_faults_armed as usize + usize::from(self.stall_armed)
    }

    /// Carries the cumulative recovery counters of a pre-power-cycle FPGA
    /// into this (freshly assembled) one, so campaign accounting spans
    /// power cycles.
    pub(crate) fn carry_recovery_counters(&mut self, prev: &FpgaStats) {
        self.stats.probes += prev.probes;
        self.stats.acks_dropped += prev.acks_dropped;
        self.stats.acks_corrupted += prev.acks_corrupted;
        self.stats.cmd_decode_failures += prev.cmd_decode_failures;
        self.stats.nand_errors_nacked += prev.nand_errors_nacked;
        self.stats.replayed_acks += prev.replayed_acks;
        self.stats.overrun_stalls += prev.overrun_stalls;
        self.stats.bursts_split += prev.bursts_split;
        self.stats.bursts_resumed += prev.bursts_resumed;
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
        layout: &Layout,
    ) -> Result<(), CoreError> {
        let (opens, closes) = {
            let t = bus.device().timing();
            (ref_at + t.trfc_base, ref_at + t.trfc_total)
        };
        self.service_window(opens, closes, None, bus, nvmc, layout)
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
        layout: &Layout,
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
        self.service_window(opens, closes, Some(bank), bus, nvmc, layout)
    }

    /// The DRAM bank the FSM's next window action targets: the CP mailbox
    /// bank when polling or acking, the command's slot bank mid-transfer.
    /// The per-bank refresh planner uses this to place windows where the
    /// NVMC actually needs them.
    pub fn wanted_bank(&self, bus: &SharedBus, layout: &Layout) -> Option<BankAddr> {
        let addr = match &self.state {
            FpgaState::Idle => layout.cp_command(),
            FpgaState::Ack { .. } => layout.cp_ack(),
            FpgaState::WbRead { cmd, got } => {
                layout.slot_addr(cmd.dram_slot) + (got.len() as u64 / 64) * 64
            }
            FpgaState::CfDmaWrite { cmd, written, .. }
            | FpgaState::MergedDmaWrite { cmd, written, .. } => {
                layout.slot_addr(cmd.dram_slot) + written * 64
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
        layout: &Layout,
    ) -> Result<(), CoreError> {
        self.stats.windows_seen += 1;
        let mut budget = self.window_xfer_bytes;
        let mut used = false;
        loop {
            let consumed = self.step(opens, closes, allowed_bank, bus, nvmc, layout)?;
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
        layout: &Layout,
    ) -> Result<u64, CoreError> {
        if let Some(allowed) = allowed_bank {
            if self.wanted_bank(bus, layout) != Some(allowed) {
                self.stats.windows_wrong_bank += 1;
                return Ok(0);
            }
        }
        let start = self.ready_at.max(opens);
        let poll_needs = Self::poll_duration(bus);
        let budget_for = |need: SimDuration| start + need <= closes;

        match std::mem::replace(&mut self.state, FpgaState::Idle) {
            FpgaState::Idle => {
                if !budget_for(poll_needs) {
                    self.stats.windows_skipped_busy += 1;
                    return Ok(0);
                }
                let (bytes, end) = self.dma_read(bus, layout.cp_command(), 128, start)?;
                let mut word: [u8; 16] = bytes[..16]
                    .try_into()
                    .map_err(|_| CoreError::Protocol("CP poll returned short data".into()))?;
                // An armed command fault mangles the capture of a *new*
                // publish, and the mangled capture persists across repeat
                // polls of the same word — the command never executes and
                // the driver's ladder must time out and retransmit.
                if self.corrupted_word == Some(word)
                    || (self.cmd_faults_armed > 0
                        && CpCommand::decode(&word)
                            .is_some_and(|c| Some(c.phase) != self.proto.last_phase()))
                {
                    if self.corrupted_word != Some(word) {
                        self.cmd_faults_armed -= 1;
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
                        self.stats.replayed_acks += 1;
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
                                        FpgaState::CfDmaWrite {
                                            cmd,
                                            data,
                                            written: 0,
                                        }
                                    }
                                    Err(e) => self.nand_nack(cmd, &e),
                                }
                            }
                            CpOpcode::Writeback => FpgaState::WbRead {
                                cmd,
                                got: Vec::with_capacity(SLOT_BYTES as usize),
                            },
                            CpOpcode::WritebackCachefill => {
                                // The fill read overlaps the victim
                                // read-out: kick it off now and stash it.
                                match nvmc.read_page(cmd.nand_page, self.ready_at) {
                                    Ok((data, _ready)) => {
                                        self.pending_fill = Some(data);
                                        FpgaState::WbRead {
                                            cmd,
                                            got: Vec::with_capacity(SLOT_BYTES as usize),
                                        }
                                    }
                                    Err(e) => self.nand_nack(cmd, &e),
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
                            self.stats.cmd_decode_failures += 1;
                        }
                        Ok(0)
                    }
                    // Polled, nothing new: the idle FPGA is done with this
                    // window.
                    PollVerdict::Stale => Ok(0),
                }
            }
            FpgaState::WbRead { cmd, mut got } => {
                let total = SLOT_BYTES / 64;
                let done = (got.len() / 64) as u64;
                let Some((xfer_at, lines)) = self.plan_chunk(
                    bus,
                    start,
                    closes,
                    total - done,
                    done > 0,
                    allowed_bank.is_some(),
                ) else {
                    self.state = FpgaState::WbRead { cmd, got };
                    return Ok(0);
                };
                let slot_addr = layout.slot_addr(cmd.dram_slot) + done * 64;
                let (chunk, end) = self.dma_read(bus, slot_addr, lines * 64, xfer_at)?;
                got.extend_from_slice(&chunk);
                if done > 0 && done + lines == total {
                    self.stats.bursts_resumed += 1;
                }
                if done + lines < total {
                    // Burst aborted at the window edge; resume next window.
                    self.ready_at = end + self.step_delay;
                    self.state = FpgaState::WbRead { cmd, got };
                    return Ok(lines * 64);
                }
                let wb_page = match cmd.opcode {
                    CpOpcode::WritebackCachefill => match cmd.wb_nand_page {
                        Some(p) => p,
                        None => {
                            // Malformed merged command: nack instead of
                            // writing to a bogus page.
                            self.pending_fill = None;
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
                match nvmc.write_page(wb_page, &got, end + self.step_delay) {
                    Ok(ack_at) => {
                        self.ready_at = ack_at + self.step_delay;
                        self.state = match (cmd.opcode, self.pending_fill.take()) {
                            (CpOpcode::WritebackCachefill, Some(data)) => {
                                FpgaState::MergedDmaWrite {
                                    cmd,
                                    data,
                                    written: 0,
                                }
                            }
                            _ => FpgaState::Ack {
                                cmd,
                                ok: true,
                                code: ACK_OK,
                                done: Some(cmd.opcode),
                            },
                        };
                    }
                    Err(e) => {
                        self.pending_fill = None;
                        self.ready_at = end + self.step_delay;
                        self.state = self.nand_nack(cmd, &e);
                    }
                }
                Ok(lines * 64)
            }
            FpgaState::CfDmaWrite { cmd, data, written }
            | FpgaState::MergedDmaWrite { cmd, data, written } => {
                let merged = matches!(cmd.opcode, CpOpcode::WritebackCachefill);
                let restore = |cmd, data, written| {
                    if merged {
                        FpgaState::MergedDmaWrite { cmd, data, written }
                    } else {
                        FpgaState::CfDmaWrite { cmd, data, written }
                    }
                };
                let total = (data.len() / 64) as u64;
                let Some((xfer_at, lines)) = self.plan_chunk(
                    bus,
                    start,
                    closes,
                    total - written,
                    written > 0,
                    allowed_bank.is_some(),
                ) else {
                    self.state = restore(cmd, data, written);
                    return Ok(0);
                };
                let slot_addr = layout.slot_addr(cmd.dram_slot) + written * 64;
                let end = self.dma_write(
                    bus,
                    slot_addr,
                    &data[written as usize * 64..(written + lines) as usize * 64],
                    xfer_at,
                )?;
                if written > 0 && written + lines == total {
                    self.stats.bursts_resumed += 1;
                }
                self.ready_at = end + self.step_delay;
                self.state = if written + lines < total {
                    restore(cmd, data, written + lines)
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
                if !budget_for(poll_needs) {
                    self.state = FpgaState::Ack {
                        cmd,
                        ok,
                        code,
                        done,
                    };
                    return Ok(0);
                }
                // Record the completion (and build the seq-echoing ack)
                // regardless of ack faults: the command *did* run, so a
                // later retransmit must replay, not re-execute.
                let ack = self.proto.complete(&cmd, ok, code);
                let end = match self.ack_faults.pop_front() {
                    Some(AckFault::Drop) => {
                        // The ack is lost in flight: no bus activity, but
                        // the FSM advances as if it had been delivered.
                        self.stats.acks_dropped += 1;
                        start
                    }
                    Some(AckFault::Corrupt) => {
                        // The ack line lands mangled: the valid bit is
                        // clear, so the driver reads it as empty.
                        self.stats.acks_corrupted += 1;
                        let mut line = [0u8; 64];
                        line[..8].copy_from_slice(&0xDEAD_BEEF_0000_0002u64.to_le_bytes());
                        self.dma_write(bus, layout.cp_ack(), &line, start)?
                    }
                    None => {
                        let mut line = [0u8; 64];
                        line[..8].copy_from_slice(&ack.encode());
                        self.dma_write(bus, layout.cp_ack(), &line, start)?
                    }
                };
                self.ready_at = end + self.step_delay;
                if let Some(op) = done {
                    match op {
                        CpOpcode::Cachefill => self.stats.cachefills += 1,
                        CpOpcode::Writeback => self.stats.writebacks += 1,
                        CpOpcode::WritebackCachefill => self.stats.merged_ops += 1,
                        CpOpcode::Probe => self.stats.probes += 1,
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
    fn nand_nack(&mut self, cmd: CpCommand, e: &NandError) -> FpgaState {
        self.stats.nand_errors_nacked += 1;
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
        &mut self,
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
        if self.stall_armed && !in_progress && fits_full {
            // Model an upstream hiccup in the window where the burst would
            // have landed whole: the transfer becomes ready so late that
            // only about half of it fits before the window closes.
            self.stall_armed = false;
            self.stats.overrun_stalls += 1;
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
            self.stats.bursts_split += 1;
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
        mut at: SimTime,
        cmd: Command,
    ) -> Result<(SimTime, SimTime), CoreError> {
        for _ in 0..64 {
            match bus.issue(BusMaster::Nvmc, at, cmd) {
                Ok(done) => return Ok((at, done)),
                Err(BusViolation::Timing { legal_at, .. }) if legal_at > at => at = legal_at,
                Err(e) => return Err(e.into()),
            }
        }
        Err(CoreError::Protocol(format!(
            "NVMC retry budget exhausted at {at} for {cmd:?}"
        )))
    }

    /// DMA-reads `len` bytes at `addr` with real DDR4 commands: ACT,
    /// pipelined RDs, PRE. Returns the data and the completion instant.
    fn dma_read(
        &mut self,
        bus: &mut SharedBus,
        addr: u64,
        len: u64,
        start: SimTime,
    ) -> Result<(Vec<u8>, SimTime), CoreError> {
        if !addr.is_multiple_of(64) || !len.is_multiple_of(64) {
            return Err(CoreError::Protocol(format!(
                "misaligned DMA read: addr {addr:#x} len {len}"
            )));
        }
        let dec = bus
            .device()
            .mapping()
            .decode(addr)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let t = *bus.device().timing();
        let (act_at, rw_at) = Self::nvmc_issue(
            bus,
            start,
            Command::Activate {
                bank: dec.bank,
                row: dec.row,
            },
        )?;
        let lines = len / 64;
        let mut out = Vec::with_capacity(len as usize);
        let mut next_at = rw_at;
        let mut last_issue = rw_at;
        let mut last_end = rw_at;
        for i in 0..lines {
            let (at, end) = Self::nvmc_issue(
                bus,
                next_at,
                Command::Read {
                    bank: dec.bank,
                    col: dec.col + i as u16,
                    auto_precharge: false,
                },
            )?;
            last_end = end;
            last_issue = at;
            next_at = at + t.tccd_l;
            out.extend_from_slice(&bus.device_mut().burst_read(dec.bank, dec.col + i as u16));
        }
        // Leave the bank precharged before the window closes (the bus
        // enforces this invariant when the host resumes); tRAS and tRTP
        // both gate the precharge.
        let pre_at = (act_at + t.tras).max(last_issue + t.trtp.max(t.tccd_l));
        let (pre_at, _) = Self::nvmc_issue(bus, pre_at, Command::Precharge { bank: dec.bank })?;
        self.stats.dma_bytes += len;
        Ok((out, last_end.max(pre_at + t.trp)))
    }

    /// DMA-writes `data` at `addr` with real DDR4 commands.
    fn dma_write(
        &mut self,
        bus: &mut SharedBus,
        addr: u64,
        data: &[u8],
        start: SimTime,
    ) -> Result<SimTime, CoreError> {
        if !addr.is_multiple_of(64) || !data.len().is_multiple_of(64) {
            return Err(CoreError::Protocol(format!(
                "misaligned DMA write: addr {addr:#x} len {}",
                data.len()
            )));
        }
        let dec = bus
            .device()
            .mapping()
            .decode(addr)
            .map_err(|e| CoreError::Protocol(e.to_string()))?;
        let t = *bus.device().timing();
        let (act_at, rw_at) = Self::nvmc_issue(
            bus,
            start,
            Command::Activate {
                bank: dec.bank,
                row: dec.row,
            },
        )?;
        let lines = (data.len() / 64) as u64;
        let mut next_at = rw_at;
        let mut last_burst_end = rw_at;
        for i in 0..lines {
            let (at, end) = Self::nvmc_issue(
                bus,
                next_at,
                Command::Write {
                    bank: dec.bank,
                    col: dec.col + i as u16,
                    auto_precharge: false,
                },
            )?;
            last_burst_end = end;
            next_at = at + t.tccd_l;
            let line: [u8; 64] = data[(i as usize) * 64..(i as usize + 1) * 64]
                .try_into()
                .map_err(|_| CoreError::Protocol("DMA write chunk not line-sized".into()))?;
            bus.device_mut()
                .burst_write(dec.bank, dec.col + i as u16, &line);
        }
        // Write recovery (and tRAS) before precharge.
        let pre_at = (act_at + t.tras).max(last_burst_end + t.twr);
        let (pre_at, _) = Self::nvmc_issue(bus, pre_at, Command::Precharge { bank: dec.bank })?;
        self.stats.dma_bytes += data.len() as u64;
        Ok(pre_at + t.trp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::CpAck;
    use nvdimmc_ddr::{DramDevice, Imc, ImcConfig, RefreshMode, SpeedBin, TimingParams};
    use nvdimmc_nand::NvmcConfig;
    use nvdimmc_sim::SimTime;

    struct Rig {
        bus: SharedBus,
        imc: Imc,
        nvmc: Nvmc,
        fpga: Fpga,
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
            imc: Imc::new(ImcConfig::from_timing(&timing)),
            nvmc: Nvmc::new(NvmcConfig::small_for_tests()).expect("nvmc"),
            fpga: Fpga::new(SimDuration::from_us(step_delay_us), window_bytes),
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
                .on_refresh(w.ref_at, &mut self.bus, &mut self.nvmc, &self.layout)
                .expect("window service");
            w.ref_at
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
        let s = r.fpga.stats();
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
            .write_page(9, &data, SimTime::ZERO)
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
        assert_eq!(r.fpga.stats().cachefills, 1);
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
        assert_eq!(r.fpga.stats().writebacks, 1);
    }

    #[test]
    fn repeated_phase_is_ignored() {
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(1, &vec![1u8; 4096], SimTime::ZERO)
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
        let fills = r.fpga.stats().cachefills;
        // Same phase still in the mailbox: more windows, no new command.
        for _ in 0..6 {
            r.one_window();
        }
        assert_eq!(
            r.fpga.stats().cachefills,
            fills,
            "phase replay executed twice"
        );
    }

    #[test]
    fn merged_command_faster_than_split_pair() {
        // Split: WB then CF as two transactions.
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(2, &vec![2u8; 4096], SimTime::ZERO)
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
            .write_page(2, &vec![2u8; 4096], SimTime::ZERO)
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
        assert_eq!(r.fpga.stats().merged_ops, 1);
    }

    #[test]
    fn asic_fsm_uses_fewer_windows() {
        let run = |step_us: f64| {
            let mut r = rig(step_us, 4096);
            r.nvmc
                .write_page(4, &vec![4u8; 4096], SimTime::ZERO)
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
            .write_page(11, &vec![5u8; 4096], SimTime::ZERO)
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
            .write_page(5, &data, SimTime::ZERO)
            .expect("nand write");
        r.fpga.inject_ack_fault(AckFault::Drop);
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
        assert_eq!(r.fpga.stats().acks_dropped, 1);
        assert_eq!(r.fpga.stats().cachefills, 1, "command ran, ack was lost");
        // The driver times out and retransmits: same seq and fields under
        // a fresh phase. The FPGA must re-ack, not re-execute.
        r.publish(&CpCommand { phase: 2, ..cmd });
        r.run_until_ack(2, 64);
        let s = r.fpga.stats();
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
            .write_page(8, &vec![0x61u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.fpga.inject_ack_fault(AckFault::Corrupt);
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
        assert_eq!(r.fpga.stats().acks_corrupted, 1);
        r.publish(&CpCommand { phase: 2, ..cmd });
        r.run_until_ack(2, 64);
        assert_eq!(r.fpga.stats().replayed_acks, 1);
        assert_eq!(r.fpga.stats().cachefills, 1);
    }

    #[test]
    fn window_stall_splits_burst_and_resumes_cleanly() {
        let mut r = rig(6.0, 4096);
        let data = vec![0xA5u8; 4096];
        r.nvmc
            .write_page(3, &data, SimTime::ZERO)
            .expect("nand write");
        r.fpga.inject_window_stall();
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 1,
            nand_page: 3,
            wb_nand_page: None,
        });
        r.run_until_ack(1, 64);
        let s = r.fpga.stats();
        assert_eq!(s.overrun_stalls, 1);
        assert_eq!(s.bursts_split, 1, "the stalled burst must split");
        assert_eq!(s.bursts_resumed, 1, "the split burst must complete");
        assert_eq!(r.fpga.armed_faults(), 0);
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
            .write_page(9, &data, SimTime::ZERO)
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
            let want = r.fpga.wanted_bank(&r.bus, &r.layout);
            r.imc
                .set_refresh_pref(want.map(|b| (b, TimingParams::MAX_STRETCH)));
            r.clock = r.imc.pump_refresh(&mut r.bus, t).expect("pump");
            for e in r.bus.take_trace() {
                if let Command::RefreshBank { bank, stretch } = e.cmd {
                    r.fpga
                        .on_refresh_banked(e.at, bank, stretch, &mut r.bus, &mut r.nvmc, &r.layout)
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
        let s = r.fpga.stats();
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
            .write_page(2, &vec![7u8; 4096], SimTime::ZERO)
            .expect("nand write");
        r.publish(&CpCommand {
            phase: 1,
            seq: 0,
            opcode: CpOpcode::Cachefill,
            dram_slot: 0,
            nand_page: 2,
            wb_nand_page: None,
        });
        let want = r.fpga.wanted_bank(&r.bus, &r.layout).expect("poll bank");
        let wrong = BankAddr::from_index((want.index() + 1) % BankAddr::COUNT);
        // Open a window over a bank the FSM does not target: no action.
        r.imc.set_refresh_pref(Some((wrong, 4)));
        let due = r.imc.next_refresh_due();
        r.clock = r.imc.pump_refresh(&mut r.bus, due).expect("pump");
        let w = r.bus.bank_window(wrong).expect("window open");
        r.fpga
            .on_refresh_banked(w.ref_at, wrong, 4, &mut r.bus, &mut r.nvmc, &r.layout)
            .expect("service");
        let s = r.fpga.stats();
        assert_eq!(s.windows_wrong_bank, 1);
        assert_eq!(s.windows_used, 0);
        assert_eq!(s.dma_bytes, 0, "no poll happened in the wrong bank");
    }

    #[test]
    fn nand_uncorrectable_is_nacked_with_code() {
        use crate::cp::ACK_ERR_UNCORRECTABLE;
        let mut r = rig(6.0, 4096);
        r.nvmc
            .write_page(6, &vec![7u8; 4096], SimTime::ZERO)
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
        assert_eq!(r.fpga.stats().nand_errors_nacked, 1);
        assert_eq!(r.fpga.stats().cachefills, 0, "no completion credited");
    }
}
