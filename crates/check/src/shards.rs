//! Multi-channel verification: per-shard trace checks plus cross-shard
//! request conservation.
//!
//! Each channel of a `MultiChannelSystem` has its own bus, so its trace
//! is verified independently with the full single-channel pass — one
//! shard's refresh phase tells you nothing about another's. What *is*
//! global is the executor's accounting: every request accepted onto a
//! shard ring must eventually complete there. A mismatch means the
//! request path dropped or double-counted work, which no per-shard
//! timing check would ever notice.

use crate::diag::{Diagnostic, Report};
use nvdimmc_ddr::{TimingParams, TraceEntry};

/// Verifies each shard's trace independently with the full trace pass
/// (timing linter, race detector, refresh-window checker). The returned
/// reports are indexed by shard.
pub fn check_shards(traces: &[Vec<TraceEntry>], timing: &TimingParams) -> Vec<Report> {
    traces
        .iter()
        .map(|t| crate::check_trace(t, timing))
        .collect()
}

/// Checks the executor's cross-shard request conservation: for every
/// shard, `enqueued == completed` once the system is quiescent. Input is
/// the per-shard `(enqueued, completed)` pairs (e.g. from
/// `ShardExecutor::conservation`).
pub fn check_conservation(counts: &[(u64, u64)]) -> Report {
    let mut report = Report::new();
    for (shard, &(enqueued, completed)) in counts.iter().enumerate() {
        if enqueued != completed {
            report.push(Diagnostic::error_untimed(
                "sched/conservation",
                format!(
                    "shard {shard}: {enqueued} requests enqueued but {completed} completed \
                     ({} {})",
                    enqueued.abs_diff(completed),
                    if enqueued > completed {
                        "lost in the queues"
                    } else {
                        "completed without being enqueued"
                    }
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_ddr::{BankAddr, BusMaster, Command, SpeedBin};
    use nvdimmc_sim::SimTime;

    fn timing() -> TimingParams {
        TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600)
    }

    #[test]
    fn shards_are_verified_independently() {
        let t = timing();
        // Shard 1 carries an NVMC command outside any window; shard 0 is
        // empty (clean). The violation must stay on shard 1's report.
        let bad = TraceEntry::observe(
            BusMaster::Nvmc,
            SimTime::from_ns(100),
            Command::Read {
                bank: BankAddr::new(0, 0),
                col: 0,
                auto_precharge: false,
            },
            &t,
        );
        let reports = check_shards(&[vec![], vec![bad]], &t);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].is_clean());
        assert!(!reports[1].is_clean());
        assert!(
            reports[1].by_rule("refresh/nvmc-outside-window").count() == 1,
            "{}",
            reports[1]
        );
    }

    #[test]
    fn conservation_mismatch_is_flagged_per_shard() {
        let report = check_conservation(&[(10, 10), (7, 5), (3, 4)]);
        let diags: Vec<_> = report.by_rule("sched/conservation").collect();
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("shard 1"), "{}", diags[0].message);
        assert!(diags[0].message.contains("lost in the queues"));
        assert!(diags[1].message.contains("shard 2"));
        assert!(diags[1].message.contains("without being enqueued"));
    }

    #[test]
    fn balanced_counts_are_clean() {
        assert!(check_conservation(&[(0, 0), (42, 42)]).is_clean());
        assert!(check_conservation(&[]).is_clean());
    }
}
