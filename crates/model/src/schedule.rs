//! Replayable counterexample schedules: a plain-text artifact format,
//! deterministic replay, and greedy delete-minimization.
//!
//! A schedule file is self-contained — it embeds the [`ModelParams`]
//! that define the instance — so a counterexample found once is a
//! regression test forever:
//!
//! ```text
//! # nvdimmc-model schedule v1
//! # params shards=1 txns=2 windows=1 ... legacy=1 depth=4096
//! # violation persist/acked-unpersisted driver accepted ack ...
//! s0 publish
//! s0 fpga-poll
//! s0 window
//! ```
//!
//! Every action line names shard `s0`: the format predates the
//! one-shard model, and any other shard token is rejected.
//!
//! Replay applies the actions in order with **skip-if-disabled**
//! semantics: an action that is not enabled in the current state is a
//! recorded no-op rather than an error. That makes every *subsequence*
//! of a valid schedule replayable, which is what lets the minimizer
//! greedily delete actions — any candidate deletion yields a schedule
//! that still replays deterministically, and it is kept exactly when
//! the same invariant still fires.

use crate::params::ModelParams;
use crate::shard::{ShardAction, ShardState, Violation};
use std::fmt::Write as _;

/// Outcome of replaying a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// Actions applied (enabled when their turn came).
    pub applied: u64,
    /// Actions skipped (disabled when their turn came).
    pub skipped: u64,
    /// The first violation hit: a transition invariant during replay,
    /// or a terminal-oracle error if the final state is terminal.
    pub violation: Option<Violation>,
    /// Whether the final state was terminal.
    pub terminal: bool,
}

/// Replays `schedule` from the initial state of `p`.
pub fn replay(p: &ModelParams, schedule: &[ShardAction]) -> ReplayResult {
    let mut state = ShardState::new(p);
    let mut result = ReplayResult {
        applied: 0,
        skipped: 0,
        violation: None,
        terminal: false,
    };
    for &action in schedule {
        if !state.is_enabled(action, p) {
            result.skipped += 1;
            continue;
        }
        result.applied += 1;
        if let Some(v) = state.apply(action, p) {
            result.violation = Some(v);
            return result;
        }
    }
    result.terminal = state.is_terminal(p);
    if result.terminal {
        result.violation = state.oracle().into_iter().next();
    }
    result
}

/// Greedily minimizes a violating schedule: repeatedly tries deleting
/// each action and keeps any deletion after which replay still reports
/// a violation of the same rule, iterating to a fixpoint. The result
/// replays to the same verdict bit-identically.
pub fn minimize(p: &ModelParams, schedule: &[ShardAction], rule: &str) -> Vec<ShardAction> {
    let mut current = schedule.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            let same = replay(p, &candidate)
                .violation
                .is_some_and(|v| v.rule == rule);
            if same {
                current = candidate;
                shrunk = true;
                // Keep `i`: the next action slid into this slot.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Serialises a schedule artifact.
pub fn to_text(p: &ModelParams, schedule: &[ShardAction], violation: Option<&Violation>) -> String {
    let mut out = String::new();
    out.push_str("# nvdimmc-model schedule v1\n");
    let _ = writeln!(out, "# params {}", p.to_header());
    if let Some(v) = violation {
        let _ = writeln!(
            out,
            "# violation {} {}",
            v.rule,
            v.message.replace('\n', " ")
        );
    }
    for a in schedule {
        let _ = writeln!(out, "s0 {}", a.name());
    }
    out
}

/// Parses a schedule artifact back into its instance and action list.
///
/// # Errors
///
/// Returns a message naming the first malformed line, including a
/// header whose params do not parse and an action on a shard other
/// than `s0`.
pub fn from_text(text: &str) -> Result<(ModelParams, Vec<ShardAction>), String> {
    let mut params = None;
    let mut actions = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(header) = rest.strip_prefix("params ") {
                let p = ModelParams::from_header(header)
                    .map_err(|e| format!("line {}: {e}", idx + 1))?;
                params = Some(p);
            }
            continue;
        }
        let (shard_tok, act_tok) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: expected `s0 <action>`", idx + 1))?;
        if shard_tok != "s0" {
            return Err(format!(
                "line {}: bad shard token {shard_tok:?} (the model has one shard, s0)",
                idx + 1
            ));
        }
        let act = ShardAction::from_name(act_tok.trim())
            .ok_or_else(|| format!("line {}: unknown action {act_tok:?}", idx + 1))?;
        actions.push(act);
    }
    let params = params.ok_or("missing `# params` header")?;
    Ok((params, actions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn happy_path(p: &ModelParams) -> Vec<ShardAction> {
        let mut state = ShardState::new(p);
        let mut schedule = Vec::new();
        while let Some(&a) = state.enabled(p).first() {
            assert!(state.apply(a, p).is_none());
            schedule.push(a);
            assert!(schedule.len() < 1000);
        }
        schedule
    }

    #[test]
    fn text_roundtrips() {
        let p = ModelParams::smoke();
        let schedule = happy_path(&p);
        let text = to_text(&p, &schedule, None);
        let (p2, s2) = from_text(&text).unwrap();
        assert_eq!(p2, p);
        assert_eq!(s2, schedule);
    }

    #[test]
    fn replay_is_deterministic_and_clean_on_happy_path() {
        let p = ModelParams {
            fault_budget: 0,
            crash_budget: 0,
            rebuild_budget: 0,
            ..ModelParams::smoke()
        };
        let schedule = happy_path(&p);
        let a = replay(&p, &schedule);
        let b = replay(&p, &schedule);
        assert_eq!(a, b, "replay diverged between runs");
        assert_eq!(a.violation, None);
        assert!(a.terminal);
        assert_eq!(a.skipped, 0);
    }

    #[test]
    fn disabled_actions_are_skipped_not_fatal() {
        let p = ModelParams::smoke();
        use crate::shard::ShardAction::*;
        // Nothing is published before the poll; the shard is not
        // degraded before the repair.
        let schedule = vec![FpgaPoll, Publish, Repair];
        let r = replay(&p, &schedule);
        assert_eq!(r.applied, 1);
        assert_eq!(r.skipped, 2);
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(from_text("s0 publish").is_err(), "missing params header");
        let bad = "# params shards=1 txns=1 windows=1 retransmits=0 backoff=1 \
                   faults=0 crashes=0 rebuilds=0 legacy=0 depth=64\nz0 publish";
        assert!(from_text(bad).is_err(), "bad shard token");
        let other_shard = "# params shards=1 txns=1 windows=1 retransmits=0 backoff=1 \
                           faults=0 crashes=0 rebuilds=0 legacy=0 depth=64\ns7 publish";
        let err = from_text(other_shard).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let two_shards = "# nvdimmc-model schedule v1\n\
                          # params shards=2 txns=1\ns0 publish";
        let err = from_text(two_shards).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("shards"),
            "{err}"
        );
    }
}
