//! # nvdimmc-model — exhaustive CP-protocol model checker
//!
//! A bounded, deterministic state-space explorer for the NVDIMM-C
//! control-path protocol of one channel shard (one module's CP-area
//! mailbox, FPGA and Z-NAND; shards share nothing, so one is enough —
//! see [`shard`]). It model-checks, under an adversarial
//! scheduler that may starve either side, drop or corrupt messages and
//! cut power at any instant:
//!
//! - the **CP mailbox protocol** — sequence numbers and epochs, the
//!   bounded retransmit ladder with backoff, FPGA ack replay by
//!   transaction key, and the `Probe` re-handshake — via the *same*
//!   pure transition functions ([`nvdimmc_core::DriverTxn`],
//!   [`nvdimmc_core::FpgaProto`]) the simulator executes;
//! - the **shard health state machine** (`Healthy → Degraded →
//!   Rebuilding → …`), including rebuilds interrupted by power failure;
//! - **crash consistency**, by enumerating a power-fail point at every
//!   state (every persistence boundary) and checking that acknowledged
//!   writebacks survive the reboot.
//!
//! Properties come from two places: transition-level persistence
//! invariants (acked data must be on the medium, nacked data must not
//! be, executions never regress the medium) checked on every applied
//! action, and the `nvdimmc-check` passes ([`nvdimmc_check::check_health`],
//! [`nvdimmc_check::check_recovery`]) replayed as the oracle on every
//! terminal state — so the model checker and the simulator's fault
//! campaigns are audited by one shared set of predicates.
//!
//! Exploration is an exhaustive DFS over every enabled action with
//! 64-bit state-fingerprint deduplication (see [`explore()`]);
//! violations are emitted as minimized, bit-identically replayable
//! schedule artifacts (see [`schedule`]). The checker's first catch — a stale
//! ack aliasing the 4-bit phase of a 15-attempt retransmit ladder and
//! being accepted for a never-executed writeback — is kept reproducible
//! via [`ModelParams::bug_hunt`] and fixed in the shipped protocol by
//! the ack sequence-number echo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod explore;
pub mod params;
pub mod schedule;
pub mod shard;

pub use explore::{explore, ExploreReport, FoundViolation};
pub use params::ModelParams;
pub use schedule::{from_text, minimize, replay, to_text, ReplayResult};
pub use shard::{ShardAction, ShardState, Violation};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_instance_is_clean_with_pinned_counts() {
        let r = explore(&ModelParams::smoke());
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert_eq!(r.truncated, 0);
        assert_eq!(
            (r.distinct_states, r.transitions, r.terminals),
            (2_731, 6_375, 209)
        );
    }

    #[test]
    fn legacy_phase_matching_is_refuted_with_a_replayable_schedule() {
        let p = ModelParams::bug_hunt();
        let r = explore(&p);
        let found = r.violation.expect("the phase-alias bug must be found");
        assert_eq!(found.violation.rule, "persist/acked-unpersisted");
        // The counterexample replays bit-identically...
        let replayed = replay(&p, &found.schedule);
        assert_eq!(
            replayed.violation.as_ref().map(|v| &v.rule[..]),
            Some("persist/acked-unpersisted")
        );
        // ...and still does after minimization.
        let minimal = minimize(&p, &found.schedule, &found.violation.rule);
        assert!(minimal.len() <= found.schedule.len());
        let replayed = replay(&p, &minimal);
        assert_eq!(
            replayed.violation.as_ref().map(|v| &v.rule[..]),
            Some("persist/acked-unpersisted")
        );
    }

    #[test]
    fn shipped_protocol_survives_the_bug_hunt_instance() {
        let p = ModelParams {
            legacy_phase_match: false,
            ..ModelParams::bug_hunt()
        };
        let r = explore(&p);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.terminals > 0);
    }
}
