//! Health and repair: fault injection, degraded mode, the online rebuild
//! that re-admits a degraded shard, and the reboot after a power cycle.

use super::{ChannelShard, CrashPointKind, DramBackdoor};
use crate::config::PAGE_BYTES;
use crate::cp::CpOpcode;
use crate::error::CoreError;
use crate::faults::{FaultInjector, FaultKind, RecoveryStats, FAULT_KINDS};
use crate::fpga::AckFault;
use crate::health::{DegradeReason, HealthState, HealthTransition, RebuildReport};
use nvdimmc_host::Memory;
use nvdimmc_sim::{DeterministicRng, SimTime};
use std::collections::HashMap;

impl ChannelShard {
    /// Attaches a deterministic fault injector (campaign mode) and enables
    /// the DRAM-cache CRC scrub that detects injected slot corruption.
    /// Without an injector none of the recovery machinery perturbs the
    /// fast path.
    pub fn attach_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
        self.enable_scrub();
    }

    /// The attached fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// The shard's current health state.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Whether the shard is in degraded (read-mostly) mode.
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
    }

    /// Why and since when the shard is degraded, if it is.
    pub fn degraded_info(&self) -> Option<(DegradeReason, SimTime)> {
        match self.health {
            HealthState::Degraded { reason, since } => Some((reason, since)),
            _ => None,
        }
    }

    /// Every recorded health-state transition of this boot, in order.
    pub fn health_log(&self) -> &[HealthTransition] {
        &self.health_log
    }

    /// The conservation ledger of every rebuild attempt, oldest first
    /// (carried across power cycles).
    pub fn rebuild_reports(&self) -> &[RebuildReport] {
        &self.rebuild_log
    }

    /// Sets the shard's index within a multi-channel front-end, so typed
    /// errors name the shard they came from.
    pub(crate) fn set_shard_index(&mut self, idx: u32) {
        self.shard_index = idx;
    }

    /// Applies one fault immediately (test/bench hook — campaigns schedule
    /// faults through [`ChannelShard::attach_injector`] instead). Returns
    /// `false` when the fault has no current target (slot corruption with
    /// no clean scrub-tracked slot resident).
    pub fn inject_fault(&mut self, kind: FaultKind) -> bool {
        self.enable_scrub();
        let mut inj = self.injector.take();
        let applied = self.apply_fault(kind, inj.as_mut().map(FaultInjector::rng_mut));
        self.injector = inj;
        applied
    }

    /// True when no scheduled or armed fault remains anywhere in the
    /// shard: the campaign drain loop runs until this holds, so every
    /// injected fault is exercised before the final verification pass.
    pub fn faults_quiescent(&self) -> bool {
        let pending = match &self.injector {
            Some(i) => i.pending() > 0,
            None => false,
        };
        !pending
            && self.nvmc.ftl().media().armed_uncorrectable() == 0
            && self.fpga.armed_faults() == 0
            && !self.power_fail_pending
    }

    /// Merged recovery statistics: NAND retry ladder (FTL), media
    /// injection, FPGA mailbox/window counters, and the driver's own
    /// retransmit/scrub/power accounting.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let m = self.nvmc.ftl().media().stats();
        let fl = self.nvmc.ftl_stats();
        let fg = self.fpga.stats();
        let (sched, fired) = self
            .injector
            .as_ref()
            .map_or(([0; FAULT_KINDS], [0; FAULT_KINDS]), FaultInjector::counts);
        RecoveryStats {
            nand_faults_injected: m.uncorrectable_injected,
            nand_read_retries: fl.read_retries,
            nand_retry_recovered: fl.read_retry_recovered,
            nand_retry_remaps: fl.retry_remaps,
            nand_uncorrectable_surfaced: fl.uncorrectable_surfaced,
            acks_dropped: fg.acks_dropped,
            acks_corrupted: fg.acks_corrupted,
            cmd_decode_failures: fg.cmd_decode_failures,
            nand_errors_nacked: fg.nand_errors_nacked,
            replayed_acks: fg.replayed_acks,
            overrun_stalls: fg.overrun_stalls,
            bursts_split: fg.bursts_split,
            bursts_resumed: fg.bursts_resumed,
            faults_scheduled: sched.iter().sum(),
            faults_fired: fired.iter().sum(),
            ..self.rec
        }
    }

    /// Applies faults scheduled for the next operation (no-op without an
    /// injector). Faults with no current target are deferred to the next
    /// operation.
    pub(super) fn begin_op(&mut self) {
        let Some(mut inj) = self.injector.take() else {
            return;
        };
        for kind in inj.begin_op() {
            if self.apply_fault(kind, Some(inj.rng_mut())) {
                inj.note_fired(kind);
            } else {
                inj.defer(kind);
            }
        }
        self.injector = Some(inj);
    }

    /// Fires a pending injected power failure, if one is armed.
    pub(super) fn take_power_fail(&mut self) -> Result<(), CoreError> {
        if self.power_fail_pending {
            self.power_fail_pending = false;
            self.rec.power_fails_fired += 1;
            return Err(CoreError::PowerInterrupted);
        }
        Ok(())
    }

    /// Records a health-state edge and switches to `to`.
    fn set_health(&mut self, to: HealthState) {
        self.health_log.push(HealthTransition {
            from: self.health,
            to,
            at: self.clock,
        });
        self.health = to;
    }

    /// Enters degraded mode from `Healthy` or `Rebuilding` (idempotent
    /// when already degraded, so `degraded_entries` counts entries, not
    /// bounced requests).
    pub(super) fn enter_degraded(&mut self, reason: DegradeReason) {
        if !self.health.is_degraded() {
            self.rec.degraded_entries += 1;
            self.set_health(HealthState::Degraded {
                reason,
                since: self.clock,
            });
        }
    }

    fn apply_fault(&mut self, kind: FaultKind, rng: Option<&mut DeterministicRng>) -> bool {
        match kind {
            FaultKind::NandTransient => {
                self.nvmc.ftl_mut().media_mut().arm_uncorrectable(false);
                true
            }
            FaultKind::NandPersistent => {
                self.nvmc.ftl_mut().media_mut().arm_uncorrectable(true);
                true
            }
            FaultKind::AckDrop => {
                self.fpga.inject_ack_fault(AckFault::Drop);
                true
            }
            FaultKind::AckCorrupt => {
                self.fpga.inject_ack_fault(AckFault::Corrupt);
                true
            }
            FaultKind::WindowOverrun => {
                self.fpga.inject_window_stall();
                true
            }
            FaultKind::CmdCorrupt => {
                self.fpga.inject_cmd_fault();
                true
            }
            FaultKind::PowerFail => {
                self.power_fail_pending = true;
                true
            }
            FaultKind::SlotCorruption => self.corrupt_clean_slot(rng),
        }
    }

    /// Flips bytes in a clean, scrub-tracked resident slot through the
    /// DRAM backdoor — a bit-flip in the module DRAM that slipped past
    /// ECC. Returns `false` (fault deferred) when no such slot exists.
    fn corrupt_clean_slot(&mut self, rng: Option<&mut DeterministicRng>) -> bool {
        let Some(scrub) = &self.scrub else {
            return false;
        };
        let candidates: Vec<u64> = self
            .cache
            .resident_entries()
            .filter(|&(slot, _, dirty)| !dirty && scrub.contains_key(&slot))
            .map(|(slot, _, _)| slot)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let (idx, off) = match rng {
            Some(r) => (
                r.gen_range(0..candidates.len() as u64) as usize,
                r.gen_range(0..PAGE_BYTES - 8),
            ),
            None => ((self.rec.slots_corrupted as usize) % candidates.len(), 128),
        };
        let slot = candidates[idx];
        let addr = self.layout.slot_addr(slot) + off;
        let mut bytes = [0u8; 8];
        DramBackdoor(&mut self.bus).read(addr, &mut bytes);
        for b in &mut bytes {
            *b ^= 0xFF;
        }
        DramBackdoor(&mut self.bus).write(addr, &bytes);
        // Drop any correct CPU-cached copies so loads see the corruption.
        self.cpu
            .invalidate_range(self.layout.slot_addr(slot), PAGE_BYTES);
        self.rec.slots_corrupted += 1;
        true
    }

    /// Repairs a degraded shard online: quiesce (the blocking model is
    /// quiescent by construction), re-handshake the CP mailbox under a
    /// fresh sequence epoch, CRC-scrub every resident cache slot, write
    /// back or invalidate against Z-NAND through the ordinary
    /// cachefill/writeback machinery inside extended-tRFC windows, and
    /// re-admit the shard only if the rebuild ledger audits clean.
    ///
    /// A fault during the rebuild re-degrades the shard
    /// deterministically: a CP exhaustion records its own
    /// [`DegradeReason::CpExhausted`]; any other interruption (an
    /// injected power failure, a NAND error) records
    /// [`DegradeReason::RebuildInterrupted`]. The next repair call
    /// restarts the rebuild from scratch.
    ///
    /// # Errors
    ///
    /// [`CoreError::Protocol`] when the shard is not degraded; otherwise
    /// the interrupting fault is propagated and the shard stays
    /// degraded.
    pub fn repair(&mut self) -> Result<RebuildReport, CoreError> {
        if !self.health.is_degraded() {
            return Err(CoreError::Protocol(
                "repair requires a degraded shard".into(),
            ));
        }
        self.rebuild_attempt += 1;
        let attempt = self.rebuild_attempt;
        self.rec.rebuilds_started += 1;
        self.set_health(HealthState::Rebuilding {
            attempt,
            since: self.clock,
        });
        let mut report = RebuildReport {
            attempt,
            started: self.clock,
            ..RebuildReport::default()
        };
        let run = self.rebuild(&mut report);
        report.finished = self.clock;
        let outcome = match run {
            Ok(()) => match report.audit() {
                Ok(()) => {
                    report.readmitted = true;
                    self.rec.rebuilds_completed += 1;
                    self.rebuild_attempt = 0;
                    self.set_health(HealthState::Healthy);
                    Ok(report.clone())
                }
                Err(_) => {
                    self.rec.rebuilds_failed += 1;
                    self.enter_degraded(DegradeReason::AuditFailed);
                    Err(CoreError::DegradedShard {
                        shard: self.shard_index,
                        reason: DegradeReason::AuditFailed,
                    })
                }
            },
            Err(e) => {
                self.rec.rebuilds_failed += 1;
                // A CP exhaustion inside the rebuild already re-degraded
                // the shard with its own reason; anything else (power
                // failure, NAND error) re-degrades here.
                if !self.health.is_degraded() {
                    self.enter_degraded(DegradeReason::RebuildInterrupted);
                }
                Err(e)
            }
        };
        self.rebuild_log.push(report);
        outcome
    }

    /// The rebuild pass proper. Every resident slot is CRC-verified:
    /// intact clean slots stay; intact dirty slots are written back and
    /// stay, now clean; corrupt clean slots heal from Z-NAND (or the
    /// zero page); corrupt dirty slots have no intact copy anywhere, so
    /// they are invalidated and the loss is surfaced in the report —
    /// never silently.
    fn rebuild(&mut self, report: &mut RebuildReport) -> Result<(), CoreError> {
        // Fresh sequence epoch: rebuild traffic can never alias a
        // retransmit of the transaction that killed the mailbox.
        self.seq = self.seq.wrapping_add(0x10);
        // Re-handshake through the ordinary retransmit machinery — the
        // probe consumes any mailbox faults still armed and proves the
        // FPGA acknowledges again.
        self.cp_transaction(CpOpcode::Probe, 0, 0, None)?;
        report.handshake_ok = true;

        // `resident_entries` iterates the slot array in slot order, so
        // the scrub sequence is deterministic.
        let entries: Vec<(u64, u64, bool)> = self.cache.resident_entries().collect();
        report.resident_at_start = entries.len() as u64;
        report.dirty_at_start = entries.iter().filter(|&&(_, _, dirty)| dirty).count() as u64;
        for (slot, page, dirty) in entries {
            self.take_power_fail()?;
            self.crash_tick(CrashPointKind::Maintenance)?;
            report.slots_scrubbed += 1;
            if !self.slot_corrupt(slot) {
                if dirty {
                    // Write back so DRAM and Z-NAND agree; the slot
                    // stays resident, now clean.
                    self.flush_for_fpga(slot);
                    self.cp_transaction(CpOpcode::Writeback, slot, page, None)?;
                    self.cache.mark_clean(slot);
                    self.rec.rebuild_writebacks += 1;
                    report.dirty_written_back += 1;
                    self.scrub_note(slot);
                }
                continue;
            }
            self.rec.scrub_detected += 1;
            if dirty {
                // No intact copy anywhere: invalidate the slot and
                // surface the loss in the ledger.
                self.rec.cache_corruption_surfaced += 1;
                self.rec.rebuild_pages_lost += 1;
                report.pages_lost.push(page);
                self.cpu
                    .invalidate_range(self.layout.slot_addr(slot), PAGE_BYTES);
                self.cache.evict(slot);
                self.cache.release(slot);
                self.scrub_forget(slot);
                continue;
            }
            // Corrupt but clean: the backing copy still holds the truth.
            self.heal_clean_slot(slot, page)?;
            report.clean_healed += 1;
        }
        Ok(())
    }

    /// Rebuilds the shard after a power failure, keeping the persistent
    /// Z-NAND contents. Volatile state (DRAM cache, CPU caches, mappings,
    /// degraded mode) starts empty, as at boot; the fault injector and
    /// the recovery counters survive so a campaign's accounting spans
    /// power cycles.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (none expected for a config that
    /// already booted once).
    pub fn into_recovered(self) -> Result<ChannelShard, CoreError> {
        let fpga_prev = self.fpga.stats();
        let mut rec = self.rec;
        rec.power_fails_recovered = rec.power_fails_fired;
        let injector = self.injector;
        let scrub_on = self.scrub.is_some();
        let seq = self.seq;
        // The rebuild ledgers are per-attempt facts and span power
        // cycles; the health log restarts with the clock (fresh boot =
        // fresh `Healthy`).
        let rebuild_log = self.rebuild_log;
        let shard_index = self.shard_index;
        let mut s = Self::assemble(self.cfg, self.nvmc);
        s.fpga.carry_recovery_counters(&fpga_prev);
        s.rec = rec;
        s.injector = injector;
        if scrub_on {
            s.scrub = Some(HashMap::new());
        }
        s.seq = seq;
        s.rebuild_log = rebuild_log;
        s.shard_index = shard_index;
        Ok(s)
    }
}
