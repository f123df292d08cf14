//! The state-space explorer: an exhaustive iterative DFS over every
//! enabled action of the shard, with 64-bit state-fingerprint
//! deduplication.
//!
//! Determinism: successor order is fixed (the declared action order),
//! the visited set is only ever queried by fingerprint, and
//! fingerprints are stable across runs — so explorations, including the
//! counterexample schedules they emit, replay bit-identically.

use crate::params::ModelParams;
use crate::shard::{ShardAction, ShardState, Violation};
use std::collections::HashSet;

/// A violation together with the schedule that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundViolation {
    /// What fired.
    pub violation: Violation,
    /// The action sequence from the initial state to the violation
    /// (inclusive of the violating action for transition invariants;
    /// the full path for terminal-oracle violations).
    pub schedule: Vec<ShardAction>,
}

/// Exploration metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub distinct_states: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Terminal states reached (post-dedup).
    pub terminals: u64,
    /// Deepest schedule seen.
    pub max_depth_seen: usize,
    /// Paths cut by the `max_depth` guard (0 at shipped bounds).
    pub truncated: u64,
    /// The first violation found, with its reaching schedule.
    pub violation: Option<FoundViolation>,
}

/// One DFS stack entry.
struct Frame {
    state: ShardState,
    actions: Vec<ShardAction>,
    next: usize,
}

/// Exhaustively explores the instance `p`, stopping at the first
/// invariant violation (transition invariants are checked on every
/// applied action, the `nvdimmc-check` oracles on every terminal
/// state).
pub fn explore(p: &ModelParams) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut visited: HashSet<u64> = HashSet::new();
    let root = ShardState::new(p);
    visited.insert(root.fingerprint());
    report.distinct_states = 1;
    let root_actions = root.enabled(p);
    if root_actions.is_empty() {
        report.terminals += 1;
        report.violation = terminal_violation(&root, &[]);
        return report;
    }
    let mut path: Vec<ShardAction> = Vec::new();
    let mut stack = vec![Frame {
        state: root,
        actions: root_actions,
        next: 0,
    }];

    while let Some(frame) = stack.last_mut() {
        if frame.next >= frame.actions.len() {
            stack.pop();
            path.pop();
            continue;
        }
        let action = frame.actions[frame.next];
        frame.next += 1;
        let mut child = frame.state.clone();
        report.transitions += 1;
        if let Some(violation) = child.apply(action, p) {
            let mut schedule = path.clone();
            schedule.push(action);
            report.max_depth_seen = report.max_depth_seen.max(schedule.len());
            report.violation = Some(FoundViolation {
                violation,
                schedule,
            });
            return report;
        }
        if !visited.insert(child.fingerprint()) {
            continue;
        }
        report.distinct_states += 1;
        report.max_depth_seen = report.max_depth_seen.max(path.len() + 1);
        let actions = child.enabled(p);
        if actions.is_empty() {
            report.terminals += 1;
            path.push(action);
            let found = terminal_violation(&child, &path);
            path.pop();
            if found.is_some() {
                report.violation = found;
                return report;
            }
            continue;
        }
        if path.len() + 1 >= p.max_depth {
            report.truncated += 1;
            continue;
        }
        path.push(action);
        stack.push(Frame {
            state: child,
            actions,
            next: 0,
        });
    }
    report
}

/// Runs the terminal oracle and packages its first error, if any, with
/// the schedule that reached the terminal state.
fn terminal_violation(state: &ShardState, path: &[ShardAction]) -> Option<FoundViolation> {
    state
        .oracle()
        .into_iter()
        .next()
        .map(|violation| FoundViolation {
            violation,
            schedule: path.to_vec(),
        })
}
