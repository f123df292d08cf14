//! The per-shard transition system: one driver, one FPGA, one mailbox,
//! one persistent medium — with every *decision* delegated to the pure
//! protocol layer in [`nvdimmc_core::proto`], so the checker verifies
//! the same code the simulator runs.
//!
//! The model abstracts data movement down to a single **generation
//! counter**: transaction *i* of a shard is a writeback that persists
//! generation *i + 1* (carried in the command's `nand_page` field, so
//! the FPGA-side replay detection keys on it exactly as it would on a
//! real page id). That is enough to state the three persistence
//! invariants precisely:
//!
//! - **acked-unpersisted** — the driver accepted an ack for generation
//!   *g* but the medium holds less than *g*: the protocol reported a
//!   writeback durable that never executed (the stale-ack bug class);
//! - **nacked-visible** — a nacked generation is on the medium anyway:
//!   a rejected write leaked;
//! - **nand-regression** — an execution wrote a generation at or below
//!   the medium's current one: a duplicate or reordered execution
//!   slipped past the FPGA's replay detection;
//! - **acked-lost** (checked at every crash point) — a power cycle
//!   rolled the medium back below an acknowledged generation.
//!
//! Time is a per-shard logical clock (one tick per applied action) used
//! only to timestamp health-transition evidence for the
//! [`nvdimmc_check::check_health`] oracle; the protocol itself never
//! reads it.
//!
//! Every terminal state is audited by [`ShardState::oracle`], which
//! replays the shard's evidence through the `nvdimmc-check` passes.
//!
//! The model is one shard because the paper's modules share nothing:
//! each has its own CP-area mailbox, FPGA and Z-NAND. A multi-shard run
//! would be the product of one-shard runs, and every property checked
//! here is per shard — the persistence invariants and `check_health`
//! directly, and `check_recovery` because each of its error rules is a
//! `≤`, `=` or `>0 ⇒ >0` test on counters, which holds for a sum of
//! shards whenever it holds for each one.

use crate::params::ModelParams;
use nvdimmc_check::{check_health, check_recovery, Severity};
use nvdimmc_core::cp::{ACK_ERR_NAND, ACK_OK};
use nvdimmc_core::{
    AckOutcome, CpAck, CpCommand, CpOpcode, DegradeReason, DriverTxn, FpgaProto, HealthState,
    HealthTransition, PollVerdict, RebuildReport, RecoveryStats, RetryOutcome,
};
use nvdimmc_sim::SimTime;
use std::hash::{Hash, Hasher};

/// One scheduler-visible atomic step of a shard.
///
/// The adversarial scheduler owns the interleaving of these actions;
/// the fault variants (`FpgaPollCorrupt`, `FpgaRunFail`, `FpgaAckDrop`,
/// `Crash`) each consume a per-shard budget, so the instance stays
/// finite and the injected-fault count is exact for the
/// [`nvdimmc_check::check_recovery`] ledger oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ShardAction {
    /// The driver publishes its next transaction (or the rebuild probe).
    Publish,
    /// The FPGA polls the command word and classifies it.
    FpgaPoll,
    /// Fault: the FPGA's capture of a fresh command word is mangled
    /// (decode failure; the capture stays mangled until republish).
    FpgaPollCorrupt,
    /// The FPGA executes the classified command and stages the ack.
    FpgaRun,
    /// Fault: execution fails at the NAND backend — a nack is staged,
    /// nothing is written.
    FpgaRunFail,
    /// The staged ack is written into the persistent ack word.
    FpgaAck,
    /// Fault: the staged ack is lost in flight.
    FpgaAckDrop,
    /// The driver polls the ack word once.
    DriverPoll,
    /// One ack-wait window elapses on the driver (timeout/retransmit
    /// ladder progress).
    DriverWindow,
    /// The front-end starts an online repair of a degraded shard.
    Repair,
    /// Power-fail point: volatile state vanishes, the medium persists,
    /// the shard reboots and resumes.
    Crash,
}

/// Every action, in the fixed order the explorer enumerates successors.
pub const ALL_ACTIONS: [ShardAction; 11] = [
    ShardAction::Publish,
    ShardAction::FpgaPoll,
    ShardAction::FpgaPollCorrupt,
    ShardAction::FpgaRun,
    ShardAction::FpgaRunFail,
    ShardAction::FpgaAck,
    ShardAction::FpgaAckDrop,
    ShardAction::DriverPoll,
    ShardAction::DriverWindow,
    ShardAction::Repair,
    ShardAction::Crash,
];

impl ShardAction {
    /// Stable lower-case name used in schedule artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ShardAction::Publish => "publish",
            ShardAction::FpgaPoll => "fpga-poll",
            ShardAction::FpgaPollCorrupt => "fpga-poll-corrupt",
            ShardAction::FpgaRun => "fpga-run",
            ShardAction::FpgaRunFail => "fpga-run-fail",
            ShardAction::FpgaAck => "fpga-ack",
            ShardAction::FpgaAckDrop => "fpga-ack-drop",
            ShardAction::DriverPoll => "driver-poll",
            ShardAction::DriverWindow => "window",
            ShardAction::Repair => "repair",
            ShardAction::Crash => "crash",
        }
    }

    /// Parses a schedule-artifact action name.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_ACTIONS.into_iter().find(|a| a.name() == name)
    }
}

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id (`persist/...`, or an oracle rule from
    /// `nvdimmc-check` such as `health/illegal-edge`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    fn new(rule: &str, message: String) -> Self {
        Violation {
            rule: rule.to_string(),
            message,
        }
    }
}

/// Driver-side control state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Driver {
    /// Between transactions.
    Idle,
    /// A transaction's retransmit ladder is live.
    InFlight(DriverTxn),
}

/// FPGA-side work classified but not yet executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Staged {
    /// Genuinely new work.
    Fresh(CpCommand),
    /// A retransmit of completed work: re-ack with the recorded verdict.
    Replay(CpCommand, bool, u8),
}

/// Compact health state (times are logical-clock ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MHealth {
    Healthy,
    Degraded { reason: MReason, since: u32 },
    Rebuilding { attempt: u32, since: u32 },
}

/// Compact degradation reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MReason {
    CpExhausted { probe: bool, attempts: u32 },
    RebuildInterrupted,
    AuditFailed,
}

impl MHealth {
    fn materialize(self) -> HealthState {
        match self {
            MHealth::Healthy => HealthState::Healthy,
            MHealth::Degraded { reason, since } => HealthState::Degraded {
                reason: reason.materialize(),
                since: SimTime::from_ns(u64::from(since)),
            },
            MHealth::Rebuilding { attempt, since } => HealthState::Rebuilding {
                attempt,
                since: SimTime::from_ns(u64::from(since)),
            },
        }
    }

    /// Shape-only hash: the `since` timestamps are path artifacts that
    /// never change an oracle verdict, so they are excluded to let the
    /// explorer merge states that differ only in logical time.
    fn hash_shape<H: Hasher>(&self, h: &mut H) {
        match self {
            MHealth::Healthy => 0u8.hash(h),
            MHealth::Degraded { reason, .. } => {
                1u8.hash(h);
                reason.hash(h);
            }
            MHealth::Rebuilding { attempt, .. } => {
                2u8.hash(h);
                attempt.hash(h);
            }
        }
    }
}

impl MReason {
    fn materialize(self) -> DegradeReason {
        match self {
            MReason::CpExhausted { probe, attempts } => DegradeReason::CpExhausted {
                opcode: if probe {
                    CpOpcode::Probe
                } else {
                    CpOpcode::Writeback
                },
                attempts,
            },
            MReason::RebuildInterrupted => DegradeReason::RebuildInterrupted,
            MReason::AuditFailed => DegradeReason::AuditFailed,
        }
    }
}

/// One recorded health edge (times are logical-clock ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MEdge {
    from: MHealth,
    to: MHealth,
    at: u32,
}

/// One rebuild attempt's compact ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MReport {
    attempt: u32,
    started: u32,
    finished: u32,
    handshake_ok: bool,
    readmitted: bool,
}

impl MReport {
    fn materialize(self) -> RebuildReport {
        RebuildReport {
            attempt: self.attempt,
            started: SimTime::from_ns(u64::from(self.started)),
            finished: SimTime::from_ns(u64::from(self.finished)),
            handshake_ok: self.handshake_ok,
            readmitted: self.readmitted,
            ..RebuildReport::default()
        }
    }
}

/// The ledger counters a model run feeds the
/// [`nvdimmc_check::check_recovery`] oracle (the subset of
/// [`RecoveryStats`] the CP/health portion of the protocol can move).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
struct ShardStats {
    acks_dropped: u64,
    cmd_decode_failures: u64,
    nand_errors_nacked: u64,
    replayed_acks: u64,
    cp_attempt_timeouts: u64,
    cp_retransmits: u64,
    cp_recovered: u64,
    cp_transactions_failed: u64,
    degraded_entries: u64,
    rebuilds_started: u64,
    rebuilds_completed: u64,
    rebuilds_failed: u64,
    power_fails_fired: u64,
    power_fails_recovered: u64,
    faults_fired: u64,
}

impl ShardStats {
    /// Expands into the full [`RecoveryStats`] ledger; every counter the
    /// model cannot move stays zero, and the injector-accounting pair is
    /// exact by construction (each fault action consumed budget).
    fn materialize(&self) -> RecoveryStats {
        RecoveryStats {
            acks_dropped: self.acks_dropped,
            cmd_decode_failures: self.cmd_decode_failures,
            nand_errors_nacked: self.nand_errors_nacked,
            replayed_acks: self.replayed_acks,
            cp_attempt_timeouts: self.cp_attempt_timeouts,
            cp_retransmits: self.cp_retransmits,
            cp_recovered: self.cp_recovered,
            cp_transactions_failed: self.cp_transactions_failed,
            degraded_entries: self.degraded_entries,
            rebuilds_started: self.rebuilds_started,
            rebuilds_completed: self.rebuilds_completed,
            rebuilds_failed: self.rebuilds_failed,
            power_fails_fired: self.power_fails_fired,
            power_fails_recovered: self.power_fails_recovered,
            faults_scheduled: self.faults_fired + self.power_fails_fired,
            faults_fired: self.faults_fired + self.power_fails_fired,
            ..RecoveryStats::default()
        }
    }
}

/// Complete state of one modelled shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardState {
    // Driver.
    driver: Driver,
    txn_index: u32,
    phase: u8,
    seq: u8,
    probe_pending: bool,
    // Mailbox (persistent DRAM words).
    cmd: Option<CpCommand>,
    cmd_corrupt: bool,
    ack: Option<CpAck>,
    ack_polled: bool,
    // FPGA.
    fproto: FpgaProto,
    staged: Option<Staged>,
    pending_ack: Option<CpAck>,
    // Persistent medium + what the host believes about it.
    nand_gen: u64,
    acked_gen: u64,
    nacked: Vec<u64>,
    // Health machine + evidence for the oracles.
    health: MHealth,
    log: Vec<MEdge>,
    reports: Vec<MReport>,
    attempt_ctr: u32,
    rebuild_started_at: u32,
    clock: u32,
    // Remaining adversary budgets.
    fault_budget: u32,
    crash_budget: u32,
    rebuild_budget: u32,
    stats: ShardStats,
}

impl Hash for ShardState {
    /// Protocol-shape hash: logical-clock values (`clock`,
    /// `rebuild_started_at`, the `since`/`at` fields inside health
    /// evidence) are excluded. Two states that differ only in logical
    /// time have identical enabled actions, identical successors modulo
    /// time, and identical oracle verdicts (the health oracle checks
    /// monotonicity, which both satisfy), so merging them is sound and
    /// shrinks the visited set.
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.driver.hash(h);
        self.txn_index.hash(h);
        self.phase.hash(h);
        self.seq.hash(h);
        self.probe_pending.hash(h);
        self.cmd.hash(h);
        self.cmd_corrupt.hash(h);
        self.ack.hash(h);
        self.ack_polled.hash(h);
        self.fproto.hash(h);
        self.staged.hash(h);
        self.pending_ack.hash(h);
        self.nand_gen.hash(h);
        self.acked_gen.hash(h);
        self.nacked.hash(h);
        self.health.hash_shape(h);
        self.log.len().hash(h);
        for e in &self.log {
            e.from.hash_shape(h);
            e.to.hash_shape(h);
        }
        self.reports.len().hash(h);
        for r in &self.reports {
            (r.attempt, r.handshake_ok, r.readmitted).hash(h);
        }
        self.attempt_ctr.hash(h);
        self.fault_budget.hash(h);
        self.crash_budget.hash(h);
        self.rebuild_budget.hash(h);
        self.stats.hash(h);
    }
}

impl ShardState {
    /// A freshly booted shard: healthy, idle, empty mailbox, zeroed
    /// medium, full budgets.
    pub fn new(p: &ModelParams) -> Self {
        ShardState {
            driver: Driver::Idle,
            txn_index: 0,
            phase: 0,
            seq: 0,
            probe_pending: false,
            cmd: None,
            cmd_corrupt: false,
            ack: None,
            ack_polled: false,
            fproto: FpgaProto::new(),
            staged: None,
            pending_ack: None,
            nand_gen: 0,
            acked_gen: 0,
            nacked: Vec::new(),
            health: MHealth::Healthy,
            log: Vec::new(),
            reports: Vec::new(),
            attempt_ctr: 0,
            rebuild_started_at: 0,
            clock: 0,
            fault_budget: p.fault_budget,
            crash_budget: p.crash_budget,
            rebuild_budget: p.rebuild_budget,
            stats: ShardStats::default(),
        }
    }

    /// The 16-byte command word as the FPGA captures it (mangled when
    /// the capture fault is armed — same byte the simulator's injector
    /// flips: the opcode nibble becomes invalid, the phase survives).
    fn mailbox_word(&self) -> Option<[u8; 16]> {
        let mut word = self.cmd.as_ref()?.encode();
        if self.cmd_corrupt {
            word[7] |= 0x0F;
        }
        Some(word)
    }

    /// True when the mailbox holds a capture the FPGA has not acted on.
    fn fresh_capture(&self) -> bool {
        match (&self.cmd, self.cmd_corrupt) {
            (Some(c), false) => Some(c.phase) != self.fproto.last_phase(),
            // A mangled capture is classified (and counted) once, inside
            // `FpgaPollCorrupt` itself; repeat polls of the same garbage
            // are deduplicated no-ops, so nothing stays enabled.
            _ => false,
        }
    }

    /// Whether `action` may fire in this state.
    pub fn is_enabled(&self, action: ShardAction, p: &ModelParams) -> bool {
        let fpga_idle = self.staged.is_none() && self.pending_ack.is_none();
        match action {
            ShardAction::Publish => {
                matches!(self.driver, Driver::Idle)
                    && match self.health {
                        MHealth::Healthy => self.txn_index < p.txns_per_shard,
                        MHealth::Rebuilding { .. } => self.probe_pending,
                        MHealth::Degraded { .. } => false,
                    }
            }
            ShardAction::FpgaPoll => fpga_idle && self.fresh_capture(),
            ShardAction::FpgaPollCorrupt => {
                self.fault_budget > 0
                    && fpga_idle
                    && !self.cmd_corrupt
                    && self
                        .cmd
                        .as_ref()
                        .is_some_and(|c| Some(c.phase) != self.fproto.last_phase())
            }
            ShardAction::FpgaRun => self.staged.is_some(),
            ShardAction::FpgaRunFail => {
                self.fault_budget > 0 && matches!(self.staged, Some(Staged::Fresh(_)))
            }
            ShardAction::FpgaAck => self.pending_ack.is_some(),
            ShardAction::FpgaAckDrop => self.fault_budget > 0 && self.pending_ack.is_some(),
            ShardAction::DriverPoll => {
                matches!(self.driver, Driver::InFlight(_)) && self.ack.is_some() && !self.ack_polled
            }
            ShardAction::DriverWindow => matches!(self.driver, Driver::InFlight(_)),
            ShardAction::Repair => {
                self.rebuild_budget > 0 && matches!(self.health, MHealth::Degraded { .. })
            }
            ShardAction::Crash => self.crash_budget > 0,
        }
    }

    /// Every enabled action, in the fixed [`ALL_ACTIONS`] order.
    pub fn enabled(&self, p: &ModelParams) -> Vec<ShardAction> {
        ALL_ACTIONS
            .into_iter()
            .filter(|&a| self.is_enabled(a, p))
            .collect()
    }

    /// True when no action of this shard is enabled.
    pub fn is_terminal(&self, p: &ModelParams) -> bool {
        ALL_ACTIONS.iter().all(|&a| !self.is_enabled(a, p))
    }

    /// Deterministic 64-bit fingerprint for the visited set.
    ///
    /// `DefaultHasher` is keyed with fixed constants, so fingerprints
    /// are stable across runs and platforms — a prerequisite for
    /// bit-identical replay of recorded explorations.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    fn log_edge(&mut self, to: MHealth) {
        self.log.push(MEdge {
            from: self.health,
            to,
            at: self.clock,
        });
        self.health = to;
    }

    fn record_rebuild_end(&mut self, handshake_ok: bool, readmitted: bool) {
        self.reports.push(MReport {
            attempt: self.attempt_ctr,
            started: self.rebuild_started_at,
            finished: self.clock,
            handshake_ok,
            readmitted,
        });
    }

    /// Applies one enabled action; returns the first invariant violated
    /// by its effects, if any. Calling with a disabled action is a
    /// deterministic no-op (replay of minimized schedules relies on
    /// this).
    pub fn apply(&mut self, action: ShardAction, p: &ModelParams) -> Option<Violation> {
        if !self.is_enabled(action, p) {
            return None;
        }
        self.clock += 1;
        match action {
            ShardAction::Publish => self.publish(p),
            ShardAction::FpgaPoll => self.fpga_poll(),
            ShardAction::FpgaPollCorrupt => self.fpga_poll_corrupt(),
            ShardAction::FpgaRun => self.fpga_run(),
            ShardAction::FpgaRunFail => self.fpga_run_fail(),
            ShardAction::FpgaAck => {
                self.ack = self.pending_ack.take();
                self.ack_polled = false;
                None
            }
            ShardAction::FpgaAckDrop => {
                self.pending_ack = None;
                self.fault_budget -= 1;
                self.stats.faults_fired += 1;
                self.stats.acks_dropped += 1;
                None
            }
            ShardAction::DriverPoll => self.driver_poll(p),
            ShardAction::DriverWindow => self.driver_window(),
            ShardAction::Repair => self.repair(),
            ShardAction::Crash => self.crash(),
        }
    }

    fn publish(&mut self, p: &ModelParams) -> Option<Violation> {
        let probe = matches!(self.health, MHealth::Rebuilding { .. });
        let (opcode, page) = if probe {
            self.probe_pending = false;
            (CpOpcode::Probe, 0)
        } else {
            (CpOpcode::Writeback, u64::from(self.txn_index) + 1)
        };
        self.seq = self.seq.wrapping_add(1);
        self.phase = (self.phase % 15) + 1;
        let cmd = CpCommand {
            phase: self.phase,
            seq: self.seq,
            opcode,
            dram_slot: 0,
            nand_page: page,
            wb_nand_page: None,
        };
        self.driver = Driver::InFlight(DriverTxn::new(cmd, &p.recovery_params()));
        self.cmd = Some(cmd);
        self.cmd_corrupt = false;
        self.ack_polled = false;
        None
    }

    fn fpga_poll(&mut self) -> Option<Violation> {
        let word = self.mailbox_word()?;
        match self.fproto.classify(&word) {
            PollVerdict::Execute(c) => self.staged = Some(Staged::Fresh(c)),
            PollVerdict::Replay { cmd, ok, code } => {
                self.stats.replayed_acks += 1;
                self.staged = Some(Staged::Replay(cmd, ok, code));
            }
            PollVerdict::Garbage { count } => {
                if count {
                    self.stats.cmd_decode_failures += 1;
                }
            }
            PollVerdict::Stale => {}
        }
        None
    }

    fn fpga_poll_corrupt(&mut self) -> Option<Violation> {
        self.cmd_corrupt = true;
        self.fault_budget -= 1;
        self.stats.faults_fired += 1;
        let word = self.mailbox_word()?;
        if let PollVerdict::Garbage { count: true } = self.fproto.classify(&word) {
            self.stats.cmd_decode_failures += 1;
        }
        None
    }

    fn fpga_run(&mut self) -> Option<Violation> {
        match self.staged.take()? {
            Staged::Fresh(c) => {
                if c.opcode == CpOpcode::Writeback {
                    if c.nand_page <= self.nand_gen {
                        return Some(Violation::new(
                            "persist/nand-regression",
                            format!(
                                "execution wrote generation {} over medium generation {} \
                                 (duplicate or reordered execution)",
                                c.nand_page, self.nand_gen
                            ),
                        ));
                    }
                    self.nand_gen = c.nand_page;
                }
                self.pending_ack = Some(self.fproto.complete(&c, true, ACK_OK));
            }
            Staged::Replay(c, ok, code) => {
                self.pending_ack = Some(self.fproto.complete(&c, ok, code));
            }
        }
        None
    }

    fn fpga_run_fail(&mut self) -> Option<Violation> {
        if let Some(Staged::Fresh(c)) = self.staged.take() {
            self.fault_budget -= 1;
            self.stats.faults_fired += 1;
            self.stats.nand_errors_nacked += 1;
            self.pending_ack = Some(self.fproto.complete(&c, false, ACK_ERR_NAND));
        }
        None
    }

    fn driver_poll(&mut self, p: &ModelParams) -> Option<Violation> {
        self.ack_polled = true;
        let Driver::InFlight(txn) = &self.driver else {
            return None;
        };
        let ack = self.ack?;
        let outcome = if p.legacy_phase_match {
            // The pre-seq-echo protocol: phase equality alone accepts.
            if ack.phase == txn.command().phase {
                if ack.ok {
                    AckOutcome::Accepted {
                        recovered: txn.attempts_made() > 1,
                    }
                } else {
                    AckOutcome::Nacked { code: ack.code }
                }
            } else {
                AckOutcome::Ignored
            }
        } else {
            txn.on_ack(Some(&ack))
        };
        let cmd = *txn.command();
        match outcome {
            AckOutcome::Ignored => None,
            AckOutcome::Accepted { recovered } => {
                if recovered {
                    self.stats.cp_recovered += 1;
                }
                self.driver = Driver::Idle;
                if cmd.opcode == CpOpcode::Probe {
                    self.stats.rebuilds_completed += 1;
                    self.record_rebuild_end(true, true);
                    self.log_edge(MHealth::Healthy);
                    self.attempt_ctr = 0;
                    None
                } else {
                    self.txn_index += 1;
                    if self.nand_gen < cmd.nand_page {
                        return Some(Violation::new(
                            "persist/acked-unpersisted",
                            format!(
                                "driver accepted ack (phase {}, seq {}) for generation {} \
                                 but the medium holds generation {}: a never-executed \
                                 writeback was reported durable",
                                ack.phase, ack.seq, cmd.nand_page, self.nand_gen
                            ),
                        ));
                    }
                    self.acked_gen = self.acked_gen.max(cmd.nand_page);
                    None
                }
            }
            AckOutcome::Nacked { .. } => {
                self.driver = Driver::Idle;
                if cmd.opcode == CpOpcode::Probe {
                    self.stats.rebuilds_failed += 1;
                    self.stats.degraded_entries += 1;
                    self.record_rebuild_end(false, false);
                    self.log_edge(MHealth::Degraded {
                        reason: MReason::AuditFailed,
                        since: self.clock,
                    });
                    None
                } else {
                    self.txn_index += 1;
                    if self.nand_gen == cmd.nand_page {
                        return Some(Violation::new(
                            "persist/nacked-visible",
                            format!(
                                "generation {} was nacked yet sits on the medium",
                                cmd.nand_page
                            ),
                        ));
                    }
                    self.nacked.push(cmd.nand_page);
                    None
                }
            }
        }
    }

    fn driver_window(&mut self) -> Option<Violation> {
        let Driver::InFlight(txn) = &mut self.driver else {
            return None;
        };
        if !txn.on_window() {
            return None;
        }
        self.stats.cp_attempt_timeouts += 1;
        match txn.next_attempt() {
            RetryOutcome::Retransmit => {
                self.stats.cp_retransmits += 1;
                self.phase = (self.phase % 15) + 1;
                let cmd = txn.republish(self.phase);
                self.cmd = Some(cmd);
                self.cmd_corrupt = false;
                self.ack_polled = false;
                None
            }
            RetryOutcome::Exhausted => {
                let cmd = *txn.command();
                let attempts = txn.attempts_made();
                self.driver = Driver::Idle;
                self.stats.cp_transactions_failed += 1;
                self.stats.degraded_entries += 1;
                let probe = cmd.opcode == CpOpcode::Probe;
                if probe {
                    self.stats.rebuilds_failed += 1;
                    self.record_rebuild_end(false, false);
                } else {
                    self.txn_index += 1;
                }
                self.log_edge(MHealth::Degraded {
                    reason: MReason::CpExhausted { probe, attempts },
                    since: self.clock,
                });
                None
            }
        }
    }

    fn repair(&mut self) -> Option<Violation> {
        self.rebuild_budget -= 1;
        self.stats.rebuilds_started += 1;
        self.attempt_ctr += 1;
        self.rebuild_started_at = self.clock;
        self.log_edge(MHealth::Rebuilding {
            attempt: self.attempt_ctr,
            since: self.clock,
        });
        // Fresh sequence epoch for the re-handshake, as the simulator's
        // repair path does.
        self.seq = self.seq.wrapping_add(0x10);
        self.probe_pending = true;
        None
    }

    fn crash(&mut self) -> Option<Violation> {
        self.crash_budget -= 1;
        self.stats.power_fails_fired += 1;
        self.stats.power_fails_recovered += 1;
        let was_rebuilding = matches!(self.health, MHealth::Rebuilding { .. });
        // What the fresh boot's log must open with: a rebuild cut by
        // power becomes RebuildInterrupted; an already-degraded shard
        // re-degrades for its original reason; a healthy shard boots
        // with an empty log.
        let relog = match self.health {
            MHealth::Rebuilding { .. } => Some(MReason::RebuildInterrupted),
            MHealth::Degraded { reason, .. } => Some(reason),
            MHealth::Healthy => None,
        };
        if was_rebuilding {
            self.stats.rebuilds_failed += 1;
            self.record_rebuild_end(false, false);
        }
        if let Driver::InFlight(txn) = &self.driver {
            // The interrupted transaction surfaces as a power error to
            // its caller: neither acked nor nacked, and — critically for
            // the recovery ledger — its cut-short attempt never reaches
            // an ack-wait timeout.
            if txn.command().opcode != CpOpcode::Probe {
                self.txn_index += 1;
            }
        }
        self.driver = Driver::Idle;
        self.probe_pending = false;
        // Volatile state vanishes: the CP mailbox region is
        // re-initialised and the FPGA reboots fresh.
        self.cmd = None;
        self.cmd_corrupt = false;
        self.ack = None;
        self.ack_polled = false;
        self.fproto = FpgaProto::new();
        self.staged = None;
        self.pending_ack = None;
        // A power-cycle restart restarts both the clock and the health
        // log (the check_health contract).
        self.clock = 0;
        self.log.clear();
        self.health = MHealth::Healthy;
        if let Some(reason) = relog {
            self.log_edge(MHealth::Degraded { reason, since: 0 });
        }
        // Crash consistency: the medium must still hold every
        // acknowledged generation.
        if self.acked_gen > self.nand_gen {
            return Some(Violation::new(
                "persist/acked-lost",
                format!(
                    "after power fail the medium holds generation {} but generation {} \
                     was acknowledged durable",
                    self.nand_gen, self.acked_gen
                ),
            ));
        }
        None
    }

    /// Evidence for [`nvdimmc_check::check_health`]: the replayable
    /// transition log and rebuild ledger of the current boot epoch.
    pub fn health_evidence(&self) -> (Vec<HealthTransition>, Vec<RebuildReport>) {
        let log = self
            .log
            .iter()
            .map(|e| HealthTransition {
                from: e.from.materialize(),
                to: e.to.materialize(),
                at: SimTime::from_ns(u64::from(e.at)),
            })
            .collect();
        let reports = self.reports.iter().map(|r| r.materialize()).collect();
        (log, reports)
    }

    /// The terminal-state property oracle: replays the health evidence
    /// through [`check_health`] and the recovery ledger through
    /// [`check_recovery`], returning every error-severity diagnostic as
    /// a [`Violation`].
    pub fn oracle(&self) -> Vec<Violation> {
        let (log, reports) = self.health_evidence();
        check_health(0, &log, &reports)
            .into_iter()
            .chain(check_recovery(&self.stats.materialize()))
            .filter(|d| d.severity == Severity::Error)
            .map(|d| Violation {
                rule: d.rule.to_string(),
                message: d.message,
            })
            .collect()
    }

    /// Number of data transactions the driver has retired (acked,
    /// nacked, abandoned or interrupted).
    pub fn txns_retired(&self) -> u32 {
        self.txn_index
    }

    /// Highest generation the driver believes durable.
    pub fn acked_generation(&self) -> u64 {
        self.acked_gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the shard through its happy path by always taking the
    /// first enabled action.
    #[test]
    fn run_to_terminal_is_clean_without_adversary() {
        let p = ModelParams {
            fault_budget: 0,
            crash_budget: 0,
            rebuild_budget: 0,
            ..ModelParams::smoke()
        };
        let mut s = ShardState::new(&p);
        let mut steps = 0;
        while let Some(&a) = s.enabled(&p).first() {
            assert!(s.apply(a, &p).is_none(), "violation on {a:?}");
            steps += 1;
            assert!(steps < 1000, "no terminal state reached");
        }
        assert!(s.is_terminal(&p));
        assert_eq!(s.oracle(), vec![], "oracle flagged the happy path");
        assert_eq!(s.txns_retired(), p.txns_per_shard);
        assert_eq!(
            s.acked_generation(),
            u64::from(p.txns_per_shard),
            "every transaction acked"
        );
    }

    #[test]
    fn fingerprint_ignores_logical_time_but_not_protocol_state() {
        let p = ModelParams::smoke();
        let a = ShardState::new(&p);
        let mut b = ShardState::new(&p);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(b.apply(ShardAction::Publish, &p).is_none());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn disabled_actions_are_noops() {
        let p = ModelParams::smoke();
        let mut s = ShardState::new(&p);
        let before = s.clone();
        // Nothing is in flight: every FPGA/driver action is disabled.
        for act in [
            ShardAction::FpgaPoll,
            ShardAction::FpgaRun,
            ShardAction::FpgaAck,
            ShardAction::DriverPoll,
            ShardAction::DriverWindow,
            ShardAction::Repair,
        ] {
            assert!(s.apply(act, &p).is_none());
        }
        assert_eq!(s, before, "disabled actions mutated state");
    }
}
