//! The datapath: the one op body behind every host read and write (the
//! nvdc driver's `device_access` path, paper §IV-B/C), the DAX fault path
//! with its evictions, CP mailbox transactions, refresh-window servicing
//! and application-level persist.

use super::{
    BlockDevice, Boot, ChannelShard, CrashPointKind, DramBackdoor, QueuedDevice, ZERO_PAGE,
};
use crate::config::{Backend, PAGE_BYTES};
use crate::cp::{CpAck, CpCommand, CpOpcode, ACK_ERR_UNCORRECTABLE};
use crate::error::{check_range, CoreError};
use crate::health::{DegradeReason, HealthState};
use crate::proto::{AckOutcome, DriverTxn, RetryOutcome};
use nvdimmc_ddr::{BankAddr, Io, RefreshMode, TraceEntry};
use nvdimmc_host::Memory;
use nvdimmc_sim::{SimDuration, SimTime};

impl ChannelShard {
    /// The one op body behind [`BlockDevice::read_at`],
    /// [`BlockDevice::write_at`], [`QueuedDevice::serve_read`] and
    /// [`QueuedDevice::serve_write`]; returns the completion instant.
    ///
    /// `not_before` is `None` for a blocking call, which charges the
    /// software path on the pages the access spans and then runs the idle
    /// branch. A queued request arriving at `not_before` runs the idle
    /// branch when the device is free by then, and the contended branch
    /// otherwise.
    pub(crate) fn serve(
        &mut self,
        not_before: Option<SimTime>,
        offset: u64,
        io: Io<'_>,
    ) -> Result<SimTime, CoreError> {
        if io.is_empty() {
            return Ok(not_before.map_or(self.boot.clock, |t| self.boot.clock.max(t)));
        }
        let len = io.len() as u64;
        check_range(offset, len, self.kept.nvmc.export_bytes())?;
        self.begin_op();
        let write = io.is_write();
        if write {
            if let HealthState::Degraded { reason, .. } = self.boot.health {
                return Err(CoreError::DegradedShard {
                    shard: self.kept.shard_index,
                    reason,
                });
            }
        }
        let idle = match not_before {
            None => {
                let first = offset / PAGE_BYTES;
                let last = (offset + len - 1) / PAGE_BYTES;
                self.boot.clock += self.sw_cost(len, last - first + 1, write);
                true
            }
            Some(t) if self.boot.clock <= t => {
                // Device idle at arrival: the op runs lock-step with the
                // issuing thread's copy, exactly like a direct blocking call.
                self.boot.clock = t;
                true
            }
            Some(_) => false,
        };
        if idle {
            // Paced at the CPU copy rate so the transfer's refresh exposure
            // matches a load-driven copy. The CPU-side copy overlaps the
            // bus transfer; the slower wins.
            let copy_done = self.boot.clock + self.cfg.perf.copy_time(len);
            self.access(offset, io, self.cfg.perf.copy_time(64))?;
            self.boot.clock = self.boot.clock.max(copy_done);
        } else {
            // Contended: the issuing thread's copy overlaps other
            // requests' transfers, so the shard holds only the per-op
            // serialized section — the mapping lock plus the raw
            // (tCCD-pipelined) bus occupancy. This is the serialized
            // demand the paper's Figure 9 knee comes from.
            self.boot.clock += self.cfg.perf.mapping_serial;
            self.access(offset, io, SimDuration::ZERO)?;
        }
        self.boot.drain_detector_idle();
        if write {
            self.boot.stats.writes += 1;
        } else {
            self.boot.stats.reads += 1;
        }
        Ok(self.boot.clock)
    }

    /// The functional+timing core of an access: per-page fault-in (the
    /// DRAM cache's page→slot map is the translation), scrub check and a
    /// real bus transfer issued at `pace` per cacheline (ZERO = the tCCD-limited pipelined rate), then the data
    /// through the CPU cache. The caller owns software costs and any
    /// CPU-copy overlap.
    fn access(&mut self, offset: u64, mut io: Io<'_>, pace: SimDuration) -> Result<(), CoreError> {
        let len = io.len();
        let write = io.is_write();
        let first = offset / PAGE_BYTES;
        let last = (offset + len as u64 - 1) / PAGE_BYTES;
        let mut pos = 0usize;
        for page in first..=last {
            self.crash_tick(CrashPointKind::BusOp)?;
            let (slot, was_resident) = self.ensure_resident(page)?;
            // A fill records the slot's CRC as its last step, so only a
            // slot that was resident before this access needs checking.
            if was_resident {
                self.scrub_verify(slot, page)?;
            }
            let b = &mut self.boot;
            if write {
                b.cache.mark_dirty(slot);
            }
            let in_page = (offset + pos as u64) % PAGE_BYTES;
            let n = ((PAGE_BYTES - in_page) as usize).min(len - pos);
            let addr = b.layout.slot_addr(slot) + in_page;
            // Timing: a real bus transfer (stalls behind refresh windows).
            // A store stream occupies the bus like a read of the same
            // lines (tCWL ≈ tCL at this fidelity).
            b.clock = b
                .imc
                .read_timing_paced(&mut b.bus, b.clock, addr, n as u64, pace)?;
            // Function: through the CPU cache. Loads see dirty lines;
            // stores land in the CPU cache (write-back!) and reach the
            // DRAM array only at clflush/eviction time — which is exactly
            // the §V-B hazard the driver's coherence handles.
            match io.slice(pos..pos + n) {
                Io::Read(buf) => b.cpu.load(&mut DramBackdoor(&mut b.bus), addr, buf),
                Io::Write(data) => {
                    b.cpu.store(&mut DramBackdoor(&mut b.bus), addr, data);
                    self.scrub_note(slot);
                }
            }
            pos += n;
        }
        Ok(())
    }

    /// Per-op fixed software cost on the nvdc path.
    fn sw_cost(&self, len: u64, pages: u64, write: bool) -> SimDuration {
        let p = &self.cfg.perf;
        if len < 2048 {
            // Sub-page: pure DAX load/store path.
            let mut c = p.nvdc_small_op;
            if write {
                c += p.fio_write_extra;
            }
            c
        } else {
            let extra = if write {
                p.nvdc_page_extra_write
            } else {
                p.nvdc_page_extra_read
            };
            let mut c = p.fio_base_op + p.page_cost(extra, pages);
            if write {
                c += p.fio_write_extra;
            }
            c
        }
    }

    /// Ensures `page` is resident; returns its slot and whether it was
    /// resident already. This is the DAX fault path: `device_access` →
    /// cachefill (plus writeback when evicting a dirty victim).
    fn ensure_resident(&mut self, page: u64) -> Result<(u64, bool), CoreError> {
        if let Some(slot) = self.boot.cache.lookup(page) {
            return Ok((slot, true));
        }
        if let HealthState::Degraded { reason, .. } = self.boot.health {
            // Degraded mode still serves what it can without the CP
            // mailbox: a never-written page with a free slot is a pure
            // CPU zero-fill.
            if self.kept.nvmc.is_mapped(page) || self.boot.cache.free_slots() == 0 {
                return Err(CoreError::DegradedShard {
                    shard: self.kept.shard_index,
                    reason,
                });
            }
        }
        self.boot.stats.faults += 1;
        self.boot.clock += self.cfg.perf.fault_base;
        let slot = match self.cfg.backend {
            Backend::Hypothetical { td } => self.hypothetical_fill(page, td)?,
            Backend::Znand => {
                let (slot, filled) = self.obtain_slot(page)?;
                if !filled {
                    if self.kept.nvmc.is_mapped(page) {
                        if let Err(e) = self.cp_transaction(CpOpcode::Cachefill, slot, page, None) {
                            // The slot obtained above is mapped to no page
                            // yet; leaking it would shrink the cache on
                            // every failed fill.
                            self.boot.cache.release(slot);
                            return Err(e);
                        }
                    } else {
                        // Never-written block: nothing to load from NAND.
                        // The driver zero-fills the slot by CPU — this is
                        // what keeps the cached phase of the file copy at
                        // SSD speed (§VII-B1) instead of paying a CP
                        // round-trip per fresh page.
                        let addr = self.boot.layout.slot_addr(slot);
                        // Zero with non-temporal stores: straight to DRAM,
                        // no cache allocation (the post-fill invalidation
                        // below must not drop the zeros).
                        DramBackdoor(&mut self.boot.bus).write(addr, &ZERO_PAGE);
                        self.boot.clock += self.cfg.perf.copy_time(PAGE_BYTES);
                        self.boot.stats.zero_fills += 1;
                    }
                }
                slot
            }
        };
        // Post-fill coherence: drop any stale CPU-cache lines over the
        // slot the FPGA just rewrote (§V-B).
        self.boot.invalidate_slot(slot);
        self.boot.cache.fill(slot, page);
        self.scrub_note(slot);
        Ok((slot, false))
    }

    /// Hypothetical-device fill (§VII-D1): the NVM access and all FPGA
    /// communication are replaced by programmable-delay window waits.
    fn hypothetical_fill(&mut self, page: u64, td: SimDuration) -> Result<u64, CoreError> {
        // One programmable delay per miss. (The paper's text prescribes
        // three tD waits, but its own Figure 12 data — 1503/914/681/451
        // MB/s at tD = 0/1.85/3.9/7.8 µs — fits ~0.8–1.0 tD per miss;
        // we reproduce the measured behaviour. See EXPERIMENTS.md.)
        self.boot.clock += td;
        // Functional data movement without FPGA involvement.
        let slot = match self.boot.cache.take_free_slot() {
            Some(s) => s,
            None => {
                let (victim, vpage, dirty) = self
                    .boot
                    .cache
                    .pick_victim()
                    .ok_or_else(|| CoreError::Protocol("no slots to evict".into()))?;
                let addr = self.boot.clflush_slot(victim);
                if dirty {
                    let mut data = vec![0u8; PAGE_BYTES as usize];
                    DramBackdoor(&mut self.boot.bus).read(addr, &mut data);
                    self.kept.nvmc.write_page(vpage, data, self.boot.clock)?;
                }
                self.boot.cache.evict(victim);
                victim
            }
        };
        let (data, _) = self.kept.nvmc.read_page(page, self.boot.clock)?;
        DramBackdoor(&mut self.boot.bus).write(self.boot.layout.slot_addr(slot), &data);
        Ok(slot)
    }

    /// Frees a slot for `fill_page`: takes a free one, or evicts (with a
    /// writeback CP transaction when dirty). Returns `(slot, filled)`;
    /// `filled` is true when the merged writeback+cachefill opcode already
    /// loaded `fill_page` into the slot.
    fn obtain_slot(&mut self, fill_page: u64) -> Result<(u64, bool), CoreError> {
        if let Some(slot) = self.boot.cache.take_free_slot() {
            return Ok((slot, false));
        }
        let (victim, vpage, dirty) = self
            .boot
            .cache
            .pick_victim()
            .ok_or_else(|| CoreError::Protocol("no slots and nothing to evict".into()))?;
        self.scrub_victim(victim, vpage, dirty)?;
        let mut filled = false;
        if dirty {
            self.flush_for_fpga(victim);
            if self.cfg.merge_wb_cf && self.kept.nvmc.is_mapped(fill_page) {
                // §VII-C optimisation 4: one merged CP command covers both
                // the writeback and the fill, processed in parallel. (A
                // never-written fill page skips the fill entirely, so the
                // plain writeback is used instead.)
                self.cp_transaction(CpOpcode::WritebackCachefill, victim, fill_page, Some(vpage))?;
                filled = true;
            } else {
                self.cp_transaction(CpOpcode::Writeback, victim, vpage, None)?;
            }
        } else {
            self.boot.invalidate_slot(victim);
        }
        self.boot.cache.evict(victim);
        self.scrub_forget(victim);
        Ok((victim, filled))
    }

    /// Explicit coherence before the FPGA reads a dirty slot (§V-B):
    /// `clflush` the slot's page, fence, and charge the flush time.
    pub(super) fn flush_for_fpga(&mut self, slot: u64) {
        self.boot.clflush_slot(slot);
        self.boot.cpu.sfence();
        self.boot.clock += self.cfg.perf.clflush_line * (PAGE_BYTES / 64);
    }

    fn next_phase(&mut self) -> u8 {
        // 1..=15, never 0, so an all-zero mailbox never decodes as new.
        self.boot.phase = (self.boot.phase % 15) + 1;
        self.boot.phase
    }

    /// Runs one CP transaction to completion: publish the command with
    /// explicit coherence, then drive refresh windows until the FPGA acks.
    ///
    /// Recovery contract: every attempt publishes the *same* transaction —
    /// same sequence number — under a fresh phase. When no ack arrives
    /// within the (exponentially backed-off) window budget the driver
    /// retransmits; the FPGA recognises the sequence number of a
    /// transaction it already executed and re-acks without re-running it,
    /// so a lost ack never causes double execution. A delivered *nack* is
    /// a verdict, not a loss: it surfaces typed immediately. Exhausting
    /// the retransmit budget degrades the shard.
    pub(super) fn cp_transaction(
        &mut self,
        opcode: CpOpcode,
        dram_slot: u64,
        nand_page: u64,
        wb_nand_page: Option<u64>,
    ) -> Result<(), CoreError> {
        // Only `Degraded` refuses the mailbox — the `Rebuilding` repair
        // path drives its scrub traffic through this very function.
        if let HealthState::Degraded { reason, .. } = self.boot.health {
            return Err(CoreError::DegradedShard {
                shard: self.kept.shard_index,
                reason,
            });
        }
        // Catch up any refresh backlog from plain host activity while the
        // FPGA is still idle, so the wait loop below sees at most one new
        // refresh per iteration.
        let b = &mut self.boot;
        b.imc.pump_refresh(&mut b.bus, b.clock)?;
        b.drain_detector_idle();
        self.kept.seq = self.kept.seq.wrapping_add(1);
        let seq = self.kept.seq;
        let rp = self.cfg.recovery;
        // The retransmit ladder itself — attempt budget, backoff, ack
        // matching — lives in the pure [`crate::proto::DriverTxn`] shared
        // with the model checker; this loop supplies only what the pure
        // layer cannot own: phases, wall-clock windows, and the bus.
        let mut txn = DriverTxn::new(
            CpCommand {
                phase: self.next_phase(),
                opcode,
                dram_slot,
                nand_page,
                wb_nand_page,
                seq,
            },
            &rp,
        );
        loop {
            let cmd = *txn.command();
            // Publish: store + clflush + sfence (§V-B: the FPGA must read
            // up-to-date data in the next tRFC window).
            let mut line = [0u8; 64];
            line[..16].copy_from_slice(&cmd.encode());
            let b = &mut self.boot;
            let cp_addr = b.layout.cp_command();
            b.cpu.store(&mut DramBackdoor(&mut b.bus), cp_addr, &line);
            b.cpu.clflush(&mut DramBackdoor(&mut b.bus), cp_addr);
            b.cpu.sfence();
            b.clock += self.cfg.perf.cp_submit;

            // Wait for the acknowledgement, one window at a time.
            loop {
                // Every poll iteration is a CP mailbox transition edge:
                // the command is published but its ack may or may not have
                // landed — the crash sweep probes both sides.
                self.crash_tick(CrashPointKind::CpWindow)?;
                self.advance_one_window()?;
                let b = &mut self.boot;
                b.clock += self.cfg.perf.driver_poll_interval;
                let ack_addr = b.layout.cp_ack();
                // Poll with a fresh load (drop any stale cached line first).
                b.cpu.invalidate(ack_addr);
                let mut ack_bytes = [0u8; 8];
                b.cpu
                    .load(&mut DramBackdoor(&mut b.bus), ack_addr, &mut ack_bytes);
                match txn.on_ack(CpAck::decode(&ack_bytes).as_ref()) {
                    AckOutcome::Ignored => {}
                    AckOutcome::Nacked { code } => {
                        return Err(if code == ACK_ERR_UNCORRECTABLE {
                            CoreError::MediaFailed {
                                page: nand_page,
                                code,
                            }
                        } else {
                            CoreError::Protocol(format!("FPGA nacked {opcode:?} with code {code}"))
                        });
                    }
                    AckOutcome::Accepted { recovered } => {
                        if recovered {
                            self.kept.rec.cp_recovered += 1;
                        }
                        match opcode {
                            CpOpcode::Cachefill => self.boot.stats.cachefills += 1,
                            CpOpcode::Writeback => self.boot.stats.writebacks += 1,
                            // The FPGA counts merged commands and probes
                            // on its side; probes are handshake traffic,
                            // not host operations.
                            CpOpcode::WritebackCachefill | CpOpcode::Probe => {}
                        }
                        return Ok(());
                    }
                }
                if txn.on_window() {
                    break;
                }
            }
            self.kept.rec.cp_attempt_timeouts += 1;
            match txn.next_attempt() {
                RetryOutcome::Retransmit => {
                    self.kept.rec.cp_retransmits += 1;
                    let phase = self.next_phase();
                    txn.republish(phase);
                }
                RetryOutcome::Exhausted => break,
            }
        }
        self.kept.rec.cp_transactions_failed += 1;
        self.enter_degraded(DegradeReason::CpExhausted {
            opcode,
            attempts: rp.cp_max_retransmits + 1,
        });
        Err(CoreError::CpTimeout {
            attempts: rp.cp_max_retransmits + 1,
        })
    }

    /// Advances to (and services) the next refresh window.
    fn advance_one_window(&mut self) -> Result<(), CoreError> {
        let b = &mut self.boot;
        let due = b.imc.next_refresh_due();
        let t = b.clock.max(due);
        if b.imc.refresh_mode() == RefreshMode::PerBank {
            // Steer the next REFpb toward the bank the FPGA's FSM needs,
            // stretched per current queue pressure — but only when the FSM
            // can run its next action in the window that demand pick would
            // open: finish it there or, for an action longer than the
            // window, start it as the window opens. Entering a window too
            // late to finish only splits the action, and each piece costs
            // another FSM step. Otherwise the slot pulls in the
            // earliest-deadline bank at the base window, earning credit
            // for when the FSM is ready. The planner overrides either pick
            // once a bank's deadline has lapsed past its postpone credit.
            let (opens, closes) = b
                .bus
                .device()
                .timing()
                .nvmc_window_bounds_pb(due, b.planner.stretch_hint());
            let need = b.fpga.next_step_duration(&b.bus).min(closes.since(opens));
            let wanted = if b.fpga.ready_at().max(opens) + need <= closes {
                b.fpga.wanted_bank(&b.bus)
            } else {
                None
            };
            let pick = b.planner.choose(due, wanted);
            b.imc.set_refresh_pref(Some(pick));
        }
        let resumed = b.imc.pump_refresh(&mut b.bus, t)?;
        b.clock = b.clock.max(resumed);
        let log = b.bus.drain_ca_log();
        let events = b.pipeline.process(&log);
        if b.imc.refresh_mode() == RefreshMode::PerBank {
            // Per-bank windows are bank-scoped: each event's window stays
            // usable regardless of traffic to *other* banks, so service
            // every snooped refresh, not just the latest.
            for ev in &events {
                match ev.bank {
                    Some(bank) => {
                        self.boot.note_refreshed(bank, ev.at, ev.stretch);
                        self.boot.fpga.on_refresh_banked(
                            ev.at,
                            bank,
                            ev.stretch,
                            &mut self.boot.bus,
                            &mut self.kept.nvmc,
                            &mut self.kept.fpga,
                        )?;
                    }
                    None => {
                        let (b, k) = (&mut self.boot, &mut self.kept);
                        b.fpga
                            .on_refresh(ev.at, &mut b.bus, &mut k.nvmc, &mut k.fpga)?;
                    }
                }
                // Each serviced per-bank window is one NVMC burst edge:
                // a crash between two windows catches the FPGA's FSM
                // mid-transfer with the burst it just moved committed.
                self.crash_tick(CrashPointKind::NvmcBurst)?;
            }
            return Ok(());
        }
        // If a refresh backlog was issued back-to-back (the host clock
        // jumped), earlier windows have already been driven over by later
        // commands — the FPGA can only use the most recent one, exactly
        // as real hardware would simply miss those windows.
        if let Some(ev) = events.last() {
            let (b, k) = (&mut self.boot, &mut self.kept);
            b.fpga
                .on_refresh(ev.at, &mut b.bus, &mut k.nvmc, &mut k.fpga)?;
            self.crash_tick(CrashPointKind::NvmcBurst)?;
        }
        Ok(())
    }

    /// Flush phase of a persist: `clflush` every resident page overlapping
    /// the range, *without* the fence. Returns the flushed line count and
    /// slot addresses; pair with [`ChannelShard::persist_fence`] and
    /// [`ChannelShard::persist_claim`]. Split out so a multi-channel
    /// front-end can order one global fence after all shards' flushes.
    pub(crate) fn persist_flush(
        &mut self,
        offset: u64,
        len: u64,
    ) -> Result<(u64, Vec<u64>), CoreError> {
        check_range(offset, len, self.kept.nvmc.export_bytes())?;
        let first = offset / PAGE_BYTES;
        let last = (offset + len - 1) / PAGE_BYTES;
        let mut lines = 0u64;
        let mut flushed = Vec::new();
        for page in first..=last {
            // A crash between the per-page clflushes of a persist is the
            // classic torn-flush window: some lines pushed to the ADR
            // domain, the rest still in the CPU cache.
            self.crash_tick(CrashPointKind::BusOp)?;
            if let Some(slot) = self.boot.cache.peek(page) {
                flushed.push(self.boot.clflush_slot(slot));
                lines += PAGE_BYTES / 64;
            }
        }
        Ok((lines, flushed))
    }

    /// Fence phase of a persist: orders all prior flushes on this shard.
    pub(crate) fn persist_fence(&mut self) {
        self.boot.cpu.sfence();
    }

    /// Claim phase of a persist: declares durability for the flushed
    /// addresses (journal claims) and charges the flush time.
    pub(crate) fn persist_claim(&mut self, flushed: &[u64], lines: u64) {
        let cpu = &mut self.boot.cpu;
        for &addr in flushed {
            cpu.journal_push(nvdimmc_host::PersistEvent::Claim {
                addr,
                len: PAGE_BYTES,
            });
        }
        self.boot.clock += self.cfg.perf.clflush_line * lines;
    }

    /// Application-level persistence: `clflush` + `sfence` over a byte
    /// range (what libpmem's `pmem_persist` does). After this returns, the
    /// range's data is in the DRAM cache slots and will survive a power
    /// failure via the FPGA's dump.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range offsets.
    pub fn persist(&mut self, offset: u64, len: u64) -> Result<(), CoreError> {
        if len == 0 {
            return Ok(());
        }
        let (lines, flushed) = self.persist_flush(offset, len)?;
        self.persist_fence();
        // Declare durability only now that the flush+fence sequence is
        // complete — the journal checker verifies the claim against the
        // events that precede it.
        self.persist_claim(&flushed, lines);
        Ok(())
    }

    /// Pre-loads `page` into the cache without counting an operation
    /// (experiment setup helper).
    ///
    /// # Errors
    ///
    /// Propagates fault-path errors.
    pub fn prefault(&mut self, page: u64) -> Result<(), CoreError> {
        self.ensure_resident(page).map(|_| ())
    }
}

impl Boot {
    /// Consumes pending CA captures while the FPGA is idle (refreshes that
    /// elapsed during plain host activity; polls would observe nothing).
    /// Per-bank refreshes still feed the planner's bank deadlines so a
    /// bank refreshed during idle traffic is not immediately re-picked.
    fn drain_detector_idle(&mut self) {
        let log = self.bus.drain_ca_log();
        for ev in self.pipeline.process(&log) {
            if let Some(bank) = ev.bank {
                self.note_refreshed(bank, ev.at, ev.stretch);
            }
        }
    }

    /// Feeds one snooped REFpb, with the close of the window it opened,
    /// into the planner.
    fn note_refreshed(&mut self, bank: BankAddr, at: SimTime, stretch: u8) {
        let (_, closes) = self
            .bus
            .device()
            .timing()
            .nvmc_window_bounds_pb(at, stretch);
        self.planner.note_refreshed(bank, at, closes);
    }
}

impl BlockDevice for ChannelShard {
    fn capacity_bytes(&self) -> u64 {
        self.kept.nvmc.export_bytes()
    }

    fn now(&self) -> SimTime {
        self.boot.clock
    }

    fn advance(&mut self, d: SimDuration) {
        self.boot.clock += d;
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, CoreError> {
        let t0 = self.boot.clock;
        Ok(self.serve(None, offset, Io::Read(buf))?.since(t0))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, CoreError> {
        let t0 = self.boot.clock;
        Ok(self.serve(None, offset, Io::Write(data))?.since(t0))
    }
}

impl QueuedDevice for ChannelShard {
    fn capacity_bytes(&self) -> u64 {
        self.kept.nvmc.export_bytes()
    }

    fn clock(&self) -> SimTime {
        self.boot.clock
    }

    fn pre_cost(&self, len: u64, write: bool) -> SimDuration {
        self.sw_cost(len, len.div_ceil(PAGE_BYTES).max(1), write)
    }

    fn copy_cost(&self, len: u64) -> SimDuration {
        self.cfg.perf.copy_time(len)
    }

    fn serve_read(
        &mut self,
        not_before: SimTime,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimTime, CoreError> {
        self.serve(Some(not_before), offset, Io::Read(buf))
    }

    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError> {
        self.serve(Some(not_before), offset, Io::Write(data))
    }

    fn drain_trace(&mut self) -> Vec<TraceEntry> {
        self.take_trace()
    }

    fn note_queue_depth(&mut self, depth: usize) {
        self.boot.planner.note_queue_depth(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EvictionPolicyKind, NvdimmCConfig};
    use crate::shard::tests::{page, sys};
    use crate::shard::System;
    use nvdimmc_sim::DeterministicRng;

    /// Fills the cache with dirty pages [slots, 2*slots) after pushing
    /// pages [0, slots) out to Z-NAND, so a subsequent read of region A
    /// takes the full writeback+cachefill path.
    fn dirty_cache_with_nand_backed(s: &mut System, slots: u64) {
        for i in 0..slots {
            s.write_at(i * PAGE_BYTES, &page(0x40 | (i % 32) as u8))
                .unwrap();
        }
        for i in slots..2 * slots {
            s.write_at(i * PAGE_BYTES, &page(0x20)).unwrap();
        }
        assert!(s.stats().writebacks >= slots, "region A reached NAND");
    }

    #[test]
    fn write_read_roundtrip_hit() {
        let mut s = sys();
        s.write_at(0, &page(0xAB)).unwrap();
        let mut out = page(0);
        s.read_at(0, &mut out).unwrap();
        assert_eq!(out, page(0xAB));
    }

    #[test]
    fn byte_granular_dax_access() {
        let mut s = sys();
        s.write_at(4096 + 100, b"hello nvdimm-c").unwrap();
        let mut out = [0u8; 14];
        s.read_at(4096 + 100, &mut out).unwrap();
        assert_eq!(&out, b"hello nvdimm-c");
    }

    #[test]
    fn access_spanning_pages() {
        let mut s = sys();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        s.write_at(4000, &data).unwrap();
        let mut out = vec![0u8; 8192];
        s.read_at(4000, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn cached_read_latency_matches_paper_anchor() {
        // NVDC-Cached 4KB random read ≈ 2.23us (448 KIOPS, Fig. 8).
        let mut s = sys();
        s.prefault(10).unwrap();
        let mut buf = page(0);
        let mut total = SimDuration::ZERO;
        for _ in 0..50 {
            total += s.read_at(10 * PAGE_BYTES, &mut buf).unwrap();
        }
        let avg = (total / 50).as_us_f64();
        assert!((1.9..2.7).contains(&avg), "cached 4K read = {avg:.2}us");
    }

    #[test]
    fn uncached_read_with_dirty_victims_matches_paper_anchor() {
        // Uncached 4KB (writeback+cachefill) ≈ 69.8us = 8.9 tREFI (§VII-B2).
        let slots = 64;
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = slots;
        let mut s = System::new(cfg).unwrap();
        dirty_cache_with_nand_backed(&mut s, slots);
        // Reading region A now needs a writeback (dirty victim) plus a
        // cachefill (A lives on NAND) per access.
        let mut total = SimDuration::ZERO;
        let n = 20u64;
        let mut buf = page(0);
        for i in 0..n {
            total += s.read_at(i * PAGE_BYTES, &mut buf).unwrap();
            assert_eq!(buf[0], 0x40 | (i % 32) as u8, "data integrity");
        }
        let avg = (total / n).as_us_f64();
        assert!((55.0..90.0).contains(&avg), "uncached WB+CF = {avg:.2}us");
        assert!(s.stats().writebacks >= n);
        assert!(s.stats().cachefills >= n);
    }

    #[test]
    fn cachefill_only_miss_is_faster_than_wb_cf() {
        let slots = 4;
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = slots;
        let mut s = System::new(cfg).unwrap();
        dirty_cache_with_nand_backed(&mut s, slots);
        // Turn the resident set clean: read fresh (zero-filled) pages so
        // every dirty page gets written back once.
        let mut buf = page(0);
        for i in 0..slots {
            s.read_at((100 + i) * PAGE_BYTES, &mut buf).unwrap();
        }
        let wb_before = s.stats().writebacks;
        // Re-reading region A now evicts clean victims: cachefill only.
        let cf_lat = s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x40, "data came back from NAND");
        assert_eq!(s.stats().writebacks, wb_before, "no writeback needed");
        let cf = cf_lat.as_us_f64();
        assert!((20.0..60.0).contains(&cf), "cachefill-only = {cf:.2}us");
    }

    #[test]
    fn data_survives_eviction_roundtrip() {
        // Write through the cache, force eviction, read back from NAND.
        let slots = 16;
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = slots;
        let mut s = System::new(cfg).unwrap();
        for i in 0..slots {
            s.write_at(i * PAGE_BYTES, &page(0x40 | i as u8)).unwrap();
        }
        // Evict everything by touching fresh pages.
        for i in 0..slots {
            s.write_at((slots + i) * PAGE_BYTES, &page(0x80)).unwrap();
        }
        // Original data must come back from Z-NAND via cachefill.
        for i in 0..slots {
            let mut out = page(0);
            s.read_at(i * PAGE_BYTES, &mut out).unwrap();
            assert_eq!(out, page(0x40 | i as u8), "page {i} corrupted");
        }
    }

    #[test]
    fn no_bus_violations_under_random_traffic() {
        let mut s = sys();
        let mut rng = DeterministicRng::new(7);
        let span = 64 * PAGE_BYTES;
        for _ in 0..300 {
            let off = rng.gen_range(0..span - 4096);
            if rng.gen_bool(0.5) {
                s.write_at(off, &[rng.gen_u64() as u8; 128]).unwrap();
            } else {
                let mut b = [0u8; 128];
                s.read_at(off, &mut b).unwrap();
            }
        }
        // The point of the whole paper: zero rejected violations means the
        // window discipline held under real traffic.
        assert_eq!(s.bus_stats().violations_rejected, 0);
        assert!(s.detector_stats().detections > 0, "detector exercised");
    }

    #[test]
    fn per_bank_mode_no_violations_under_random_traffic() {
        let cfg = NvdimmCConfig::small_for_tests().with_refresh_mode(RefreshMode::PerBank);
        let mut s = System::new(cfg).unwrap();
        let mut rng = DeterministicRng::new(7);
        let span = 64 * PAGE_BYTES;
        for _ in 0..300 {
            let off = rng.gen_range(0..span - 4096);
            if rng.gen_bool(0.5) {
                s.write_at(off, &[rng.gen_u64() as u8; 128]).unwrap();
            } else {
                let mut b = [0u8; 128];
                s.read_at(off, &mut b).unwrap();
            }
        }
        assert_eq!(s.bus_stats().violations_rejected, 0);
        assert!(s.detector_stats().pb_detections > 0, "REFpb pins snooped");
    }

    #[test]
    fn per_bank_mode_serves_the_full_miss_path() {
        // The same dirty-cache workload that exercises writeback+cachefill
        // in rank mode must complete — with identical data — when every
        // NVMC transfer rides short per-bank windows instead.
        let slots = 8;
        let mut rank_cfg = NvdimmCConfig::small_for_tests();
        rank_cfg.cache_slots = slots;
        let pb_cfg = rank_cfg.clone().with_refresh_mode(RefreshMode::PerBank);
        let mut rank = System::new(rank_cfg).unwrap();
        let mut pb = System::new(pb_cfg).unwrap();
        dirty_cache_with_nand_backed(&mut rank, slots);
        dirty_cache_with_nand_backed(&mut pb, slots);
        let mut a = page(0);
        let mut b = page(0);
        for i in 0..slots {
            rank.read_at(i * PAGE_BYTES, &mut a).unwrap();
            pb.read_at(i * PAGE_BYTES, &mut b).unwrap();
            assert_eq!(a, b, "page {i} diverged between refresh modes");
        }
        assert!(pb.stats().cachefills >= slots, "misses served per-bank");
        assert_eq!(pb.bus_stats().violations_rejected, 0);
        let f = pb.fpga_stats();
        assert!(f.windows_used > 0, "per-bank windows carried NVMC data");
        let (demand, forced) = pb.refresh_planner_counts();
        assert!(demand + forced > 0, "planner placed refreshes");
    }

    #[test]
    fn detector_drives_fpga_not_bus_oracle() {
        let slots = 8;
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = slots;
        let mut s = System::new(cfg).unwrap();
        dirty_cache_with_nand_backed(&mut s, slots);
        let d = s.detector_stats();
        let f = s.fpga_stats();
        assert!(d.detections > 0);
        assert!(f.windows_seen > 0);
        assert!(
            f.windows_seen <= d.detections,
            "FPGA windows ({}) cannot exceed detected refreshes ({})",
            f.windows_seen,
            d.detections
        );
        assert_eq!(s.bus_stats().violations_rejected, 0);
    }

    #[test]
    fn hypothetical_mode_scales_with_td() {
        let run = |td_us: f64| {
            let slots = 32;
            let mut cfg =
                NvdimmCConfig::small_for_tests().with_hypothetical(SimDuration::from_us(td_us));
            cfg.cache_slots = slots;
            let mut s = System::new(cfg).unwrap();
            let mut buf = page(0);
            let mut total = SimDuration::ZERO;
            for i in 0..100u64 {
                total += s.read_at((i % (slots * 4)) * PAGE_BYTES, &mut buf).unwrap();
            }
            (total / 100).as_us_f64()
        };
        let t0 = run(0.0);
        let t39 = run(3.9);
        let t78 = run(7.8);
        assert!(
            t0 < t39 && t39 < t78,
            "tD ordering: {t0:.2} {t39:.2} {t78:.2}"
        );
    }

    #[test]
    fn merged_wb_cf_beats_split_commands() {
        let run = |merged: bool| {
            let slots = 32;
            let mut cfg = NvdimmCConfig::small_for_tests();
            cfg.cache_slots = slots;
            cfg.merge_wb_cf = merged;
            let mut s = System::new(cfg).unwrap();
            dirty_cache_with_nand_backed(&mut s, slots);
            let mut buf = page(0);
            let mut total = SimDuration::ZERO;
            for i in 0..20u64 {
                total += s.read_at(i * PAGE_BYTES, &mut buf).unwrap();
            }
            (total / 20).as_us_f64()
        };
        let split = run(false);
        let merged = run(true);
        assert!(
            merged < split * 0.8,
            "merged {merged:.1}us vs split {split:.1}us"
        );
    }

    #[test]
    fn lrc_vs_lru_hit_rates_on_skewed_traffic() {
        // §VII-B5: LRU markedly improves hit rate over LRC on reuse-heavy
        // workloads.
        let run = |policy: EvictionPolicyKind| {
            let slots = 32;
            let mut cfg = NvdimmCConfig::small_for_tests().with_eviction(policy);
            cfg.cache_slots = slots;
            let mut s = System::new(cfg).unwrap();
            let mut rng = DeterministicRng::new(3);
            let zipf = nvdimmc_sim::Zipf::new(slots * 4, 0.9);
            let mut buf = page(0);
            for _ in 0..600 {
                let p = zipf.sample(&mut rng);
                s.read_at(p * PAGE_BYTES, &mut buf).unwrap();
            }
            s.cache_stats().hit_rate()
        };
        let lrc = run(EvictionPolicyKind::Lrc);
        let lru = run(EvictionPolicyKind::Lru);
        assert!(lru > lrc, "LRU {lru:.3} must beat LRC {lrc:.3}");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = sys();
        let cap = BlockDevice::capacity_bytes(&s);
        assert!(matches!(
            s.read_at(cap - 10, &mut [0u8; 64]),
            Err(CoreError::OutOfRange { .. })
        ));
    }

    #[test]
    fn fresh_page_fault_is_zero_filled_fast() {
        let mut s = sys();
        let mut buf = page(1);
        let lat = s.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, page(0), "fresh blocks read as zeros");
        assert_eq!(s.stats().zero_fills, 1);
        assert_eq!(s.stats().cachefills, 0, "no CP round-trip needed");
        assert!(lat.as_us_f64() < 10.0, "zero-fill fault = {lat:?}");
    }

    #[test]
    fn zero_length_ops_are_free() {
        let mut s = sys();
        assert_eq!(s.read_at(0, &mut []).unwrap(), SimDuration::ZERO);
        assert_eq!(s.write_at(0, &[]).unwrap(), SimDuration::ZERO);
        assert_eq!(s.stats().reads, 0);
    }

    #[test]
    fn sub_page_ops_use_fast_path() {
        let mut s = sys();
        s.prefault(0).unwrap();
        let mut small = [0u8; 128];
        let mut big = page(0);
        let lat_small = s.read_at(64, &mut small).unwrap();
        let lat_big = s.read_at(0, &mut big).unwrap();
        assert!(
            lat_small.as_us_f64() * 2.0 < lat_big.as_us_f64(),
            "128B {:.2}us vs 4K {:.2}us",
            lat_small.as_us_f64(),
            lat_big.as_us_f64()
        );
    }

    #[test]
    fn faster_trefi_slows_cached_path() {
        // Fig. 13 mechanism at system level.
        let run = |trefi_us: f64| {
            let mut s = System::new(
                NvdimmCConfig::small_for_tests().with_trefi(SimDuration::from_us(trefi_us)),
            )
            .unwrap();
            s.prefault(0).unwrap();
            let mut buf = page(0);
            let mut total = SimDuration::ZERO;
            for _ in 0..200 {
                total += s.read_at(0, &mut buf).unwrap();
            }
            (total / 200).as_us_f64()
        };
        let normal = run(7.8);
        let quad = run(1.95);
        assert!(quad > normal, "tREFI4 {quad:.3}us vs tREFI {normal:.3}us");
    }

    #[test]
    fn serve_idle_matches_direct_read_latency() {
        // A request arriving at an idle shard takes exactly the blocking
        // path's device timing: serve-completion minus arrival equals
        // read_at's latency minus its software cost.
        let mk = || {
            let mut s = sys();
            s.prefault(0).unwrap();
            // Settle both instances at the same clock phase.
            s.advance(SimDuration::from_us(3.0));
            s
        };
        let mut direct = mk();
        let mut queued = mk();
        let mut buf = page(0);
        direct.read_at(0, &mut buf).unwrap();
        let sw = queued.pre_cost(PAGE_BYTES, false);
        let arrival = queued.now() + sw;
        let done = queued.serve_read(arrival, 0, &mut buf).unwrap();
        // direct finished at its now(); the serve path must land on the
        // same instant given the same start and the same software cost.
        assert_eq!(done, direct.now());
    }

    #[test]
    fn serve_contended_holds_only_serial_section() {
        // When requests queue, the per-op device hold must be far below
        // the full blocking latency (the thread-side copy overlaps), but
        // still positive (mapping lock + bus occupancy).
        let mut s = sys();
        for p in 0..8 {
            s.prefault(p).unwrap();
        }
        let mut buf = page(0);
        // Prime the clock past zero, then issue a batch whose not_before
        // all lie in the past → contended path.
        s.advance(SimDuration::from_us(50.0));
        let t0 = s.now();
        let arrival = t0 - SimDuration::from_us(40.0);
        let mut last = t0;
        for p in 0..8u64 {
            last = s.serve_read(arrival, p * PAGE_BYTES, &mut buf).unwrap();
        }
        let per_op = last.since(t0).as_us_f64() / 8.0;
        assert!(
            (0.4..1.6).contains(&per_op),
            "contended serial hold = {per_op:.2}us/op"
        );
        // Data still correct.
        s.write_at(3 * PAGE_BYTES, &page(0x77)).unwrap();
        let done = s.serve_read(s.now(), 3 * PAGE_BYTES, &mut buf).unwrap();
        assert!(done >= s.now());
        assert_eq!(buf, page(0x77));
    }

    #[test]
    fn read_after_a_fill_still_catches_slot_corruption() {
        use crate::faults::FaultKind;
        let slots = 4;
        let mut cfg = NvdimmCConfig::small_for_tests();
        cfg.cache_slots = slots;
        let mut s = System::new(cfg).unwrap();
        s.enable_scrub();
        s.write_at(0, &page(0x5A)).unwrap();
        // Push page 0 out to Z-NAND with dirty pages that stay resident.
        for i in 1..=slots {
            s.write_at(i * PAGE_BYTES, &page(0x80)).unwrap();
        }
        let mut out = page(0);
        let fills = s.stats().cachefills;
        s.read_at(0, &mut out).unwrap();
        assert_eq!(s.stats().cachefills, fills + 1, "page 0 filled from Z-NAND");
        assert_eq!(out, page(0x5A));
        // Page 0 is the only clean tracked slot; with no injector the
        // corruption lands at its fixed offset.
        assert!(s.inject_fault(FaultKind::SlotCorruption));
        s.read_at(0, &mut out).unwrap();
        assert_eq!(out, page(0x5A), "the scrub healed the slot before serving");
        let rec = s.recovery_stats();
        assert_eq!((rec.scrub_detected, rec.scrub_refills), (1, 1));
        s.read_at(0, &mut out).unwrap();
        assert_eq!(out, page(0x5A));
        let rec = s.recovery_stats();
        assert_eq!((rec.scrub_detected, rec.scrub_refills), (1, 1));
    }
}
