//! Regression suite for the `nvdimmc-model` protocol model checker.
//!
//! Two kinds of test live here:
//!
//! 1. **Corpus replays** — every counterexample schedule the checker has
//!    ever minimized is committed under `tests/model_corpus/` and
//!    replayed bit-identically on every run. A schedule that stops
//!    reproducing its recorded verdict means the transition system (or
//!    a fix it documents) regressed.
//! 2. **Explorer properties** — randomized schedules replay
//!    deterministically, and every small strict-matching instance
//!    explores clean and untruncated.

use nvdimmc_model::shard::ALL_ACTIONS;
use nvdimmc_model::{explore, from_text, replay, ModelParams, ShardAction};
use proptest::prelude::*;

const STALE_ACK: &str = include_str!("model_corpus/stale_ack_phase_alias.schedule");
const ACK_LOSS_POWER_CUT: &str = include_str!("model_corpus/ack_loss_power_cut.schedule");

/// The checker's first catch: under phase-only ack matching (the
/// pre-seq-echo protocol), transaction 2's 15-attempt retransmit ladder
/// wraps the 4-bit phase back onto transaction 1's phase, and the
/// driver accepts transaction 1's stale persistent ack for a writeback
/// the FPGA never executed.
#[test]
fn stale_ack_phase_alias_counterexample_still_fires() {
    let (params, schedule) = from_text(STALE_ACK).expect("corpus artifact parses");
    assert!(
        params.legacy_phase_match,
        "the bug needs phase-only matching"
    );
    let r = replay(&params, &schedule);
    assert_eq!(r.skipped, 0, "a minimized schedule has no dead actions");
    assert_eq!(
        r.violation.as_ref().map(|v| v.rule.as_str()),
        Some("persist/acked-unpersisted"),
        "{r:?}"
    );
}

/// The committed artifact is *minimal*: deleting any single action
/// loses the violation.
#[test]
fn stale_ack_counterexample_is_one_minimal() {
    let (params, schedule) = from_text(STALE_ACK).expect("corpus artifact parses");
    for i in 0..schedule.len() {
        let mut shorter = schedule.clone();
        shorter.remove(i);
        let r = replay(&params, &shorter);
        assert_ne!(
            r.violation.as_ref().map(|v| v.rule.as_str()),
            Some("persist/acked-unpersisted"),
            "dropping action {i} should lose the violation"
        );
    }
}

/// The shipped protocol's fix — the FPGA echoes the command's sequence
/// number in the ack, and the driver matches phase *and* seq — kills
/// this exact schedule.
#[test]
fn seq_echo_fix_defeats_the_stale_ack_schedule() {
    let (params, schedule) = from_text(STALE_ACK).expect("corpus artifact parses");
    let fixed = ModelParams {
        legacy_phase_match: false,
        ..params
    };
    let r = replay(&fixed, &schedule);
    assert_eq!(r.violation, None, "{r:?}");
}

/// The oracle-fix schedule: an executed-but-lost ack followed by a
/// power cut inside the ack-wait window. The recovery checker used to
/// misreport this as `recovery/ack-loss-unaccounted`; it must now
/// replay clean to a terminal state.
#[test]
fn ack_loss_power_cut_replays_clean() {
    let (params, schedule) = from_text(ACK_LOSS_POWER_CUT).expect("corpus artifact parses");
    let r = replay(&params, &schedule);
    assert_eq!(r.skipped, 0, "a minimized schedule has no dead actions");
    assert!(r.terminal, "the schedule must reach a terminal state");
    assert_eq!(r.violation, None, "{r:?}");
}

/// Exploring the bug-hunt instance from scratch still finds the
/// phase-alias bug — the corpus is reproducible, not a fossil.
#[test]
fn bug_hunt_exploration_rediscovers_the_stale_ack_bug() {
    let r = explore(&ModelParams::bug_hunt());
    let found = r.violation.expect("the bug must be rediscovered");
    assert_eq!(found.violation.rule, "persist/acked-unpersisted");
    // And the freshly found schedule replays to the same verdict.
    let replayed = replay(&ModelParams::bug_hunt(), &found.schedule);
    assert_eq!(
        replayed.violation.as_ref().map(|v| v.rule.as_str()),
        Some("persist/acked-unpersisted")
    );
}

/// Every corner of a small one-shard grid — one or two transactions,
/// zero or one retransmit, backoff 1 or 2, zero or one fault, with or
/// without a crash point and a rebuild — explores with no violation and
/// no path cut by the depth guard under the shipped (strict) matching.
#[test]
fn small_strict_instances_explore_clean() {
    for txns in 1..=2 {
        for retransmits in 0..2 {
            for backoff in 1..3 {
                for faults in 0..2 {
                    for adversary in 0..2 {
                        let p = ModelParams {
                            txns_per_shard: txns,
                            timeout_windows: 1,
                            max_retransmits: retransmits,
                            backoff,
                            fault_budget: faults,
                            crash_budget: adversary,
                            rebuild_budget: adversary,
                            legacy_phase_match: false,
                            max_depth: 4096,
                        };
                        let r = explore(&p);
                        assert!(r.violation.is_none(), "{p:?}: {:?}", r.violation);
                        assert_eq!(r.truncated, 0, "{p:?}");
                        assert!(r.terminals > 0, "{p:?}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random schedules replay bit-identically: same applied/skipped
    /// counts, same verdict, twice in a row.
    #[test]
    fn random_schedules_replay_bit_identically(
        picks in prop::collection::vec(0usize..11, 1..120)
    ) {
        let p = ModelParams::smoke();
        let schedule: Vec<ShardAction> = picks.into_iter().map(|i| ALL_ACTIONS[i]).collect();
        let a = replay(&p, &schedule);
        let b = replay(&p, &schedule);
        prop_assert_eq!(a, b);
    }
}
