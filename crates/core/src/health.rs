//! Per-shard health state machine: `Healthy → Degraded → Rebuilding →
//! Healthy`.
//!
//! A shard that exhausts its CP retransmit budget degrades; this module
//! holds the vocabulary for repairing it online: a typed degradation
//! reason, an explicit state machine with a transition log, a
//! per-rebuild conservation ledger ([`RebuildReport`]) that must audit
//! clean before the shard is re-admitted, and the front-end
//! [`FailoverPolicy`] that decides whether degraded shards are repaired
//! automatically.
//!
//! The legal transitions are:
//!
//! ```text
//!          CP exhaustion / requested
//! Healthy ──────────────────────────▶ Degraded
//!    ▲                                   │ repair() begins
//!    │ audit clean                       ▼
//!    └────────────────────────────── Rebuilding
//!                                        │ fault / CP failure / audit dirty
//!                                        ▼
//!                                    Degraded  (re-entry, fresh reason)
//! ```
//!
//! Every transition is recorded with its simulation time so the
//! `check::health` pass can independently replay the log and reject any
//! edge not in this diagram.

use crate::cp::CpOpcode;
use nvdimmc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Why a shard left service (typed, not a `String`, so callers and the
/// soak report can aggregate and explain outages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradeReason {
    /// A CP transaction exhausted its retransmit budget without an ack.
    CpExhausted {
        /// The opcode of the transaction that timed out.
        opcode: CpOpcode,
        /// Publish attempts made (1 initial + retransmits).
        attempts: u32,
    },
    /// A new fault (power interruption or another CP exhaustion) landed
    /// while the shard was rebuilding; the rebuild aborted.
    RebuildInterrupted,
    /// The post-rebuild conservation audit found the ledger unclean, so
    /// the shard was refused re-admission.
    AuditFailed,
    /// An external caller explicitly took the shard out of service.
    Requested,
}

impl core::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DegradeReason::CpExhausted { opcode, attempts } => {
                write!(f, "CP {opcode:?} unacked after {attempts} attempts")
            }
            DegradeReason::RebuildInterrupted => write!(f, "rebuild interrupted by a fault"),
            DegradeReason::AuditFailed => write!(f, "post-rebuild audit failed"),
            DegradeReason::Requested => write!(f, "taken out of service on request"),
        }
    }
}

/// The health of one channel shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HealthState {
    /// In service: all request kinds admitted.
    #[default]
    Healthy,
    /// Out of service: writes and NAND-backed fills are refused until a
    /// repair runs.
    Degraded {
        /// Why the shard degraded.
        reason: DegradeReason,
        /// Simulation time of the transition.
        since: SimTime,
    },
    /// A repair is in progress: the shard is quiesced for host requests
    /// but its own CP mailbox is live for scrub traffic.
    Rebuilding {
        /// 1-based repair attempt counter since the last healthy period.
        attempt: u32,
        /// Simulation time the rebuild started.
        since: SimTime,
    },
}

impl HealthState {
    /// True in the `Healthy` state.
    pub fn is_healthy(&self) -> bool {
        matches!(self, HealthState::Healthy)
    }

    /// True in the `Degraded` state.
    pub fn is_degraded(&self) -> bool {
        matches!(self, HealthState::Degraded { .. })
    }

    /// True in the `Rebuilding` state.
    pub fn is_rebuilding(&self) -> bool {
        matches!(self, HealthState::Rebuilding { .. })
    }

    /// Short state name for reports and latency bucketing.
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded { .. } => "degraded",
            HealthState::Rebuilding { .. } => "rebuilding",
        }
    }
}

/// One recorded edge of the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthTransition {
    /// State before the edge.
    pub from: HealthState,
    /// State after the edge.
    pub to: HealthState,
    /// Simulation time the edge fired.
    pub at: SimTime,
}

/// The conservation ledger of one rebuild attempt.
///
/// Every resident slot at rebuild start must be accounted for exactly
/// once: scrubbed intact, healed from NAND (corrupt but clean), written
/// back (dirty and intact), or invalidated with its page recorded in
/// [`RebuildReport::pages_lost`] (dirty *and* corrupt — no clean copy
/// exists anywhere, so the loss must surface rather than vanish).
/// [`RebuildReport::audit`] checks the arithmetic; the shard is only
/// re-admitted when it passes.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RebuildReport {
    /// 1-based attempt number since the shard last left `Healthy`.
    pub attempt: u32,
    /// Rebuild start time.
    pub started: SimTime,
    /// Rebuild end time (success or abort).
    pub finished: SimTime,
    /// Whether the CP mailbox re-handshake (Probe under a fresh sequence
    /// epoch) completed.
    pub handshake_ok: bool,
    /// Cache slots resident when the rebuild began.
    pub resident_at_start: u64,
    /// How many of those were dirty.
    pub dirty_at_start: u64,
    /// Slots CRC-checked during the scrub pass.
    pub slots_scrubbed: u64,
    /// Corrupt-but-clean slots re-filled from Z-NAND (or re-zeroed).
    pub clean_healed: u64,
    /// Dirty intact slots written back to Z-NAND.
    pub dirty_written_back: u64,
    /// Shard-local NAND pages whose only copy was a corrupt dirty slot:
    /// invalidated, and the loss surfaced here.
    pub pages_lost: Vec<u64>,
    /// Whether the shard was re-admitted after this attempt.
    pub readmitted: bool,
}

impl RebuildReport {
    /// Audits the rebuild ledger: handshake done, every starting slot
    /// scrubbed, every dirty slot either written back or surfaced as
    /// lost, and time monotone.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        if !self.handshake_ok {
            return Err("CP mailbox re-handshake did not complete".into());
        }
        if self.slots_scrubbed != self.resident_at_start {
            return Err(format!(
                "scrubbed {} of {} resident slots",
                self.slots_scrubbed, self.resident_at_start
            ));
        }
        let lost = self.pages_lost.len() as u64;
        if self.dirty_written_back + lost != self.dirty_at_start {
            return Err(format!(
                "dirty slots unaccounted: {} written back + {} lost != {} dirty at start",
                self.dirty_written_back, lost, self.dirty_at_start
            ));
        }
        if self.finished < self.started {
            return Err("rebuild finished before it started".into());
        }
        Ok(())
    }
}

/// Front-end failover policy: what [`crate::MultiChannelSystem`] does when
/// a request lands on a shard that is not `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverPolicy {
    /// Repair degraded shards online (quiesce → re-handshake → scrub →
    /// audit → re-admit) instead of bouncing requests forever.
    pub auto_repair: bool,
}

impl Default for FailoverPolicy {
    /// No automatic repair: degraded shards bounce requests with
    /// `DegradedShard` until someone calls `repair_shard` explicitly.
    fn default() -> Self {
        FailoverPolicy { auto_repair: false }
    }
}

impl FailoverPolicy {
    /// Bounded retry: how many repair attempts per request before giving
    /// up with [`crate::CoreError::Rebuilding`].
    pub const MAX_REPAIR_ATTEMPTS: u32 = 3;

    /// Retry-after hint carried by [`crate::CoreError::Rebuilding`] once
    /// the repair budget is spent.
    pub const RETRY_AFTER: SimDuration = SimDuration::from_ns(100_000);

    /// Full failover: automatic online repair of degraded shards.
    pub fn auto() -> Self {
        FailoverPolicy { auto_repair: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_healthy() {
        let h = HealthState::default();
        assert!(h.is_healthy());
        assert_eq!(h.name(), "healthy");
    }

    #[test]
    fn clean_report_audits_ok() {
        let r = RebuildReport {
            attempt: 1,
            handshake_ok: true,
            resident_at_start: 8,
            dirty_at_start: 3,
            slots_scrubbed: 8,
            clean_healed: 1,
            dirty_written_back: 2,
            pages_lost: vec![7],
            readmitted: true,
            ..Default::default()
        };
        r.audit().unwrap();
    }

    #[test]
    fn missing_handshake_fails_audit() {
        let r = RebuildReport {
            handshake_ok: false,
            ..Default::default()
        };
        assert!(r.audit().is_err());
    }

    #[test]
    fn unscrubbed_slot_fails_audit() {
        let r = RebuildReport {
            handshake_ok: true,
            resident_at_start: 4,
            slots_scrubbed: 3,
            ..Default::default()
        };
        assert!(r.audit().unwrap_err().contains("scrubbed"));
    }

    #[test]
    fn unaccounted_dirty_slot_fails_audit() {
        let r = RebuildReport {
            handshake_ok: true,
            resident_at_start: 2,
            slots_scrubbed: 2,
            dirty_at_start: 2,
            dirty_written_back: 1,
            ..Default::default()
        };
        assert!(r.audit().unwrap_err().contains("dirty"));
    }

    #[test]
    fn default_policy_leaves_repair_to_the_caller() {
        assert!(!FailoverPolicy::default().auto_repair);
        assert!(FailoverPolicy::auto().auto_repair);
    }
}
