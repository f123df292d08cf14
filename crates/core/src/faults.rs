//! Deterministic fault injection and recovery accounting.
//!
//! A [`FaultPlan`] schedules faults by class and operation count from a
//! single seed; [`FaultPlan::build_injectors`] splits it into per-shard
//! [`FaultInjector`]s using forked RNG streams, so a plan is bit-stable
//! for a given seed regardless of channel count. The shard applies due
//! faults at the top of each block operation, recovers through the
//! mechanisms under test — the NAND read-retry ladder, CP-mailbox
//! retransmits, window-overrun burst splitting, DRAM-cache scrubbing,
//! the power-fail dump — and every injection and recovery lands in
//! [`RecoveryStats`], which `nvdimmc-check`'s recovery pass audits: no
//! fault may go unaccounted, and none may be silently absorbed.

use nvdimmc_sim::DeterministicRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Number of distinct fault classes.
pub const FAULT_KINDS: usize = 8;

/// An injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A transient uncorrectable NAND read (two bit flips in one ECC
    /// word, this read only): the FTL's read-retry ladder recovers it.
    NandTransient,
    /// A persistent uncorrectable NAND page: retries exhaust and a typed
    /// error surfaces to the host.
    NandPersistent,
    /// A CP acknowledgement lost in flight: the driver times out and
    /// retransmits; the FPGA replays the ack.
    AckDrop,
    /// A CP acknowledgement mangled on the bus (reads as empty).
    AckCorrupt,
    /// An NVMC transfer starting so late that it overruns the extended
    /// tRFC window and must abort and resume next window.
    WindowOverrun,
    /// Bit corruption in a clean DRAM cache slot: the driver's CRC scrub
    /// detects it and refills from Z-NAND.
    SlotCorruption,
    /// Power failure mid-operation: the cut lands at the shard's next
    /// crash boundary, and the caller's `power_cycle` (battery-backed
    /// dump plus reboot) recovers.
    PowerFail,
    /// A CP *command* word whose FPGA-side capture is mangled: the FPGA
    /// drops it as a decode failure and never executes or acks, so the
    /// driver's full attempt timeout elapses before the retransmit
    /// recovers. The model-checker counterexample for the stale-ack
    /// aliasing bug needs exactly this shape of loss (an [`AckDrop`]
    /// still executes the command).
    ///
    /// [`AckDrop`]: FaultKind::AckDrop
    CmdCorrupt,
}

impl FaultKind {
    /// Every fault class, in schedule order.
    pub const ALL: [FaultKind; FAULT_KINDS] = [
        FaultKind::NandTransient,
        FaultKind::NandPersistent,
        FaultKind::AckDrop,
        FaultKind::AckCorrupt,
        FaultKind::WindowOverrun,
        FaultKind::SlotCorruption,
        FaultKind::PowerFail,
        FaultKind::CmdCorrupt,
    ];

    /// Stable index into per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::NandTransient => 0,
            FaultKind::NandPersistent => 1,
            FaultKind::AckDrop => 2,
            FaultKind::AckCorrupt => 3,
            FaultKind::WindowOverrun => 4,
            FaultKind::SlotCorruption => 5,
            FaultKind::PowerFail => 6,
            FaultKind::CmdCorrupt => 7,
        }
    }

    /// Human-readable class name for reports and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NandTransient => "nand-transient",
            FaultKind::NandPersistent => "nand-persistent",
            FaultKind::AckDrop => "ack-drop",
            FaultKind::AckCorrupt => "ack-corrupt",
            FaultKind::WindowOverrun => "window-overrun",
            FaultKind::SlotCorruption => "slot-corruption",
            FaultKind::PowerFail => "power-fail",
            FaultKind::CmdCorrupt => "cmd-corrupt",
        }
    }
}

/// Driver-side recovery parameters (part of
/// [`crate::NvdimmCConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryParams {
    /// Refresh windows the driver waits for a CP ack before declaring
    /// one attempt timed out. The default (512 windows ≈ 4 ms at the
    /// PoC's 7.8 µs tREFI) sits far above the worst legitimate stall
    /// (NVMC write-buffer backpressure behind a garbage-collection
    /// erase, ~1–2 ms) — and a spurious timeout is harmless anyway: the
    /// retransmit carries the same sequence number, so the FPGA replays
    /// the ack instead of re-executing.
    pub cp_timeout_windows: u32,
    /// Retransmits after the first attempt before the shard gives up
    /// and degrades.
    pub cp_max_retransmits: u32,
    /// Multiplier applied to the timeout after each failed attempt
    /// (exponential backoff).
    pub cp_backoff: u32,
    /// NAND read-retry ladder depth: how many times the FTL re-reads an
    /// uncorrectable page before surfacing the error. Overrides the
    /// FTL-level `read_retries` at shard assembly so every recovery
    /// knob lives in one place.
    pub nand_read_retries: u32,
    /// Maximum dirty slots the battery-backed power-fail dump walks
    /// before the hold-up capacitors run out. The default is far above
    /// any configured cache (the paper sizes the battery for a full
    /// dump); campaign configs shrink it to model under-provisioned
    /// hold-up energy.
    pub dump_slot_budget: u64,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            cp_timeout_windows: 512,
            cp_max_retransmits: 4,
            cp_backoff: 2,
            nand_read_retries: 3,
            dump_slot_budget: 1 << 32,
        }
    }
}

/// A seeded schedule of faults over a campaign, by class and count.
///
/// # Example
///
/// ```
/// use nvdimmc_core::faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(7)
///     .with(FaultKind::NandTransient, 3)
///     .with(FaultKind::AckDrop, 2)
///     .horizon(200);
/// let injectors = plan.build_injectors(4);
/// assert_eq!(injectors.len(), 4);
/// let pending: usize = injectors.iter().map(|i| i.pending()).sum();
/// assert_eq!(pending, 5);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    horizon_ops: u64,
    counts: [u64; FAULT_KINDS],
}

impl FaultPlan {
    /// An empty plan drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            horizon_ops: 1000,
            counts: [0; FAULT_KINDS],
        }
    }

    /// Schedules `count` faults of `kind`.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, count: u64) -> Self {
        self.counts[kind.index()] += count;
        self
    }

    /// Sets the operation horizon: every fault lands at a uniformly drawn
    /// operation index in `0..ops`.
    #[must_use]
    pub fn horizon(mut self, ops: u64) -> Self {
        self.horizon_ops = ops.max(1);
        self
    }

    /// Faults scheduled for `kind`.
    pub fn scheduled(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total faults scheduled.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Splits the plan into one injector per shard.
    ///
    /// Each fault class draws its operation indices and shard targets
    /// from its own forked stream, so adding faults of one class never
    /// perturbs another class's placement, and the same seed yields the
    /// same schedule every run.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn build_injectors(&self, channels: usize) -> Vec<FaultInjector> {
        assert!(channels > 0, "a fault plan needs at least one shard");
        let mut root = DeterministicRng::new(self.seed);
        let mut per_shard: Vec<Vec<(u64, FaultKind)>> = vec![Vec::new(); channels];
        for kind in FaultKind::ALL {
            // Classes added after the original seven draw their placement
            // stream straight from the seed instead of forking `root`:
            // `fork` advances the parent, so one extra fork here would
            // shift every per-shard parameter stream below and break
            // bit-identical replay of pre-existing campaign seeds.
            let mut stream = match kind {
                FaultKind::CmdCorrupt => DeterministicRng::new(self.seed ^ 0xC0DE_0000_0000_0007),
                _ => root.fork(kind.index() as u64 + 1),
            };
            for _ in 0..self.counts[kind.index()] {
                let op = stream.gen_range(0..self.horizon_ops);
                let shard = stream.gen_range(0..channels as u64) as usize;
                per_shard[shard].push((op, kind));
            }
        }
        per_shard
            .into_iter()
            .enumerate()
            .map(|(i, mut schedule)| {
                schedule.sort_by_key(|&(op, kind)| (op, kind.index()));
                FaultInjector::new(schedule, root.fork(0x5EED + i as u64))
            })
            .collect()
    }
}

/// One shard's slice of a [`FaultPlan`]: a sorted schedule of
/// `(operation index, fault)` pairs plus a private RNG stream for fault
/// parameters (which slot to corrupt, which bits to flip).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    schedule: VecDeque<(u64, FaultKind)>,
    op_index: u64,
    rng: DeterministicRng,
    scheduled: [u64; FAULT_KINDS],
    fired: [u64; FAULT_KINDS],
}

impl FaultInjector {
    fn new(schedule: Vec<(u64, FaultKind)>, rng: DeterministicRng) -> Self {
        let mut scheduled = [0u64; FAULT_KINDS];
        for &(_, kind) in &schedule {
            scheduled[kind.index()] += 1;
        }
        FaultInjector {
            schedule: schedule.into(),
            op_index: 0,
            rng,
            scheduled,
            fired: [0; FAULT_KINDS],
        }
    }

    /// Advances the operation counter and pops every fault due at or
    /// before it. The caller applies each returned fault and reports back
    /// via [`FaultInjector::note_fired`] or [`FaultInjector::defer`].
    pub fn begin_op(&mut self) -> Vec<FaultKind> {
        let mut due = Vec::new();
        while let Some(&(op, kind)) = self.schedule.front() {
            if op > self.op_index {
                break;
            }
            self.schedule.pop_front();
            let _ = op;
            due.push(kind);
        }
        self.op_index += 1;
        due
    }

    /// Records a fault as actually applied.
    pub fn note_fired(&mut self, kind: FaultKind) {
        self.fired[kind.index()] += 1;
    }

    /// Puts a fault that could not be applied right now (e.g. no clean
    /// resident slot to corrupt) back at the front of the schedule for
    /// the next operation.
    pub fn defer(&mut self, kind: FaultKind) {
        self.schedule.push_front((self.op_index, kind));
    }

    /// Faults still waiting to be applied.
    pub fn pending(&self) -> usize {
        self.schedule.len()
    }

    /// The injector's private RNG stream (fault parameters).
    pub fn rng_mut(&mut self) -> &mut DeterministicRng {
        &mut self.rng
    }

    /// Per-class `(scheduled, fired)` counters.
    pub fn counts(&self) -> ([u64; FAULT_KINDS], [u64; FAULT_KINDS]) {
        (self.scheduled, self.fired)
    }

    /// Sum of faults scheduled for this shard.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled.iter().sum()
    }

    /// Sum of faults actually applied so far.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

/// Merged injection/recovery accounting across every layer of a shard —
/// NAND media, FTL, FPGA, and the nvdc driver — and, via
/// [`RecoveryStats::merge`], across shards. `nvdimmc-check`'s recovery
/// pass audits the invariants between these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    // --- NAND layer ---
    /// Uncorrectable faults the media model injected.
    pub nand_faults_injected: u64,
    /// Individual re-reads issued by the FTL retry ladder.
    pub nand_read_retries: u64,
    /// Reads rescued by a retry.
    pub nand_retry_recovered: u64,
    /// Rescued pages scrub-remapped to a fresh physical page.
    pub nand_retry_remaps: u64,
    /// Reads that exhausted the ladder and surfaced as uncorrectable.
    pub nand_uncorrectable_surfaced: u64,
    // --- CP mailbox ---
    /// Acks dropped in flight (injected).
    pub acks_dropped: u64,
    /// Acks mangled on the bus (injected).
    pub acks_corrupted: u64,
    /// Command words that failed to decode at the FPGA.
    pub cmd_decode_failures: u64,
    /// Commands the FPGA nacked on a NAND backend error.
    pub nand_errors_nacked: u64,
    /// Acks the FPGA replayed for a retransmitted command.
    pub replayed_acks: u64,
    /// Driver-side ack-wait timeouts (per attempt).
    pub cp_attempt_timeouts: u64,
    /// Retransmits the driver issued.
    pub cp_retransmits: u64,
    /// Transactions that completed after at least one retransmit.
    pub cp_recovered: u64,
    /// Transactions abandoned after the full retransmit budget.
    pub cp_transactions_failed: u64,
    // --- Refresh windows ---
    /// Injected window-overrun stalls.
    pub overrun_stalls: u64,
    /// NVMC bursts aborted at the window edge and split.
    pub bursts_split: u64,
    /// Split bursts completed in a later window.
    pub bursts_resumed: u64,
    // --- DRAM cache scrub ---
    /// Cache slots corrupted by injection.
    pub slots_corrupted: u64,
    /// Corruptions the CRC scrub detected.
    pub scrub_detected: u64,
    /// Detected corruptions healed by refilling from Z-NAND (or
    /// re-zeroing a never-written page).
    pub scrub_refills: u64,
    /// Corrupt clean victims dropped at eviction (no writeback of bad
    /// data).
    pub scrub_dropped_clean: u64,
    /// Corruptions on dirty slots surfaced as typed errors (no clean
    /// copy exists anywhere).
    pub cache_corruption_surfaced: u64,
    // --- Power ---
    /// Injected power failures that fired.
    pub power_fails_fired: u64,
    /// Power failures recovered through dump + reboot.
    pub power_fails_recovered: u64,
    // --- Degraded mode ---
    /// Times a shard entered degraded mode.
    pub degraded_entries: u64,
    // --- Online repair ---
    /// Rebuild attempts started by [`crate::ChannelShard::repair`].
    pub rebuilds_started: u64,
    /// Rebuilds that audited clean and re-admitted the shard.
    pub rebuilds_completed: u64,
    /// Rebuilds aborted by a fault or refused by the audit.
    pub rebuilds_failed: u64,
    /// Dirty slots written back to Z-NAND during rebuilds.
    pub rebuild_writebacks: u64,
    /// Pages invalidated during rebuilds because their only copy was a
    /// corrupt dirty slot (the loss is surfaced in the rebuild ledger).
    pub rebuild_pages_lost: u64,
    // --- Injector accounting ---
    /// Faults scheduled across all classes.
    pub faults_scheduled: u64,
    /// Faults actually applied.
    pub faults_fired: u64,
}

impl RecoveryStats {
    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.nand_faults_injected += other.nand_faults_injected;
        self.nand_read_retries += other.nand_read_retries;
        self.nand_retry_recovered += other.nand_retry_recovered;
        self.nand_retry_remaps += other.nand_retry_remaps;
        self.nand_uncorrectable_surfaced += other.nand_uncorrectable_surfaced;
        self.acks_dropped += other.acks_dropped;
        self.acks_corrupted += other.acks_corrupted;
        self.cmd_decode_failures += other.cmd_decode_failures;
        self.nand_errors_nacked += other.nand_errors_nacked;
        self.replayed_acks += other.replayed_acks;
        self.cp_attempt_timeouts += other.cp_attempt_timeouts;
        self.cp_retransmits += other.cp_retransmits;
        self.cp_recovered += other.cp_recovered;
        self.cp_transactions_failed += other.cp_transactions_failed;
        self.overrun_stalls += other.overrun_stalls;
        self.bursts_split += other.bursts_split;
        self.bursts_resumed += other.bursts_resumed;
        self.slots_corrupted += other.slots_corrupted;
        self.scrub_detected += other.scrub_detected;
        self.scrub_refills += other.scrub_refills;
        self.scrub_dropped_clean += other.scrub_dropped_clean;
        self.cache_corruption_surfaced += other.cache_corruption_surfaced;
        self.power_fails_fired += other.power_fails_fired;
        self.power_fails_recovered += other.power_fails_recovered;
        self.degraded_entries += other.degraded_entries;
        self.rebuilds_started += other.rebuilds_started;
        self.rebuilds_completed += other.rebuilds_completed;
        self.rebuilds_failed += other.rebuilds_failed;
        self.rebuild_writebacks += other.rebuild_writebacks;
        self.rebuild_pages_lost += other.rebuild_pages_lost;
        self.faults_scheduled += other.faults_scheduled;
        self.faults_fired += other.faults_fired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_for_a_seed() {
        let plan = FaultPlan::new(99)
            .with(FaultKind::NandTransient, 5)
            .with(FaultKind::AckDrop, 3)
            .with(FaultKind::PowerFail, 1)
            .horizon(100);
        let a = plan.build_injectors(4);
        let b = plan.build_injectors(4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.schedule, y.schedule);
        }
        let total: usize = a.iter().map(FaultInjector::pending).sum();
        assert_eq!(total as u64, plan.total());
    }

    #[test]
    fn adding_one_class_does_not_move_another() {
        let base = FaultPlan::new(7).with(FaultKind::AckDrop, 4).horizon(50);
        let extended = base.clone().with(FaultKind::SlotCorruption, 3);
        let pick = |injs: &[FaultInjector]| -> Vec<(usize, u64)> {
            let mut v = Vec::new();
            for (i, inj) in injs.iter().enumerate() {
                for &(op, kind) in &inj.schedule {
                    if kind == FaultKind::AckDrop {
                        v.push((i, op));
                    }
                }
            }
            v
        };
        assert_eq!(
            pick(&base.build_injectors(2)),
            pick(&extended.build_injectors(2)),
            "ack-drop placement moved when slot-corruption was added"
        );
    }

    #[test]
    fn injector_fires_in_op_order_and_defers() {
        let plan = FaultPlan::new(1)
            .with(FaultKind::SlotCorruption, 2)
            .horizon(4);
        let mut inj = plan.build_injectors(1).remove(0);
        let mut seen = 0;
        for _ in 0..4 {
            for kind in inj.begin_op() {
                // Pretend the first application is impossible.
                if seen == 0 {
                    inj.defer(kind);
                } else {
                    inj.note_fired(kind);
                }
                seen += 1;
            }
        }
        // Deferred fault comes back; drain it.
        while inj.pending() > 0 {
            for kind in inj.begin_op() {
                inj.note_fired(kind);
                seen += 1;
            }
        }
        assert!(seen >= 2);
        assert_eq!(inj.total_fired(), 2);
        assert_eq!(inj.total_scheduled(), 2);
    }

    #[test]
    fn recovery_stats_merge_sums() {
        let a = RecoveryStats {
            nand_faults_injected: 2,
            cp_retransmits: 1,
            ..RecoveryStats::default()
        };
        let mut b = RecoveryStats {
            nand_faults_injected: 3,
            power_fails_fired: 1,
            ..RecoveryStats::default()
        };
        b.merge(&a);
        assert_eq!(b.nand_faults_injected, 5);
        assert_eq!(b.cp_retransmits, 1);
        assert_eq!(b.power_fails_fired, 1);
    }

    #[test]
    fn default_recovery_params_are_sane() {
        let p = RecoveryParams::default();
        assert!(p.cp_timeout_windows >= 256, "timeout must clear GC stalls");
        assert!(p.cp_max_retransmits >= 1);
        assert!(p.cp_backoff >= 1);
        assert!(
            p.nand_read_retries >= 1,
            "Z-NAND transient noise makes at least one retry worthwhile"
        );
        assert!(
            p.dump_slot_budget >= (15u64 << 30) / 4096,
            "default dump budget must cover the paper's full 15 GB cache"
        );
    }
}
