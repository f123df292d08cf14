//! SLO soak: sustained mixed load while dead-mailbox waves rotate over
//! every channel, each degradation repaired online through the
//! front-end failover policy.
//!
//! Prints the SLO view — availability, latency percentiles split by the
//! serving shard's health, rebuild counts — then audits the run with
//! the independent health/recovery checkers.
//!
//! ```text
//! cargo run --release --example soak
//! ```

use nvdimmc::check::{check_recovery, check_system_health};
use nvdimmc::workloads::FaultCampaign;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("ch  waves  avail    healthy p50/p99      impaired p50/p99       rebuilds (ok/fail)");
    for channels in [1u32, 2, 4] {
        let cfg = FaultCampaign::dead_mailbox(channels);
        let (r, _, sys) = cfg.run_full(false)?;
        let health_diags = check_system_health(&sys);
        let ledger_diags = check_recovery(&r.recovery);
        println!(
            "{channels:>2}  {:>5}  {:>6.2}%  {} / {}  {} / {}  {}/{}  {}",
            r.waves,
            100.0 * r.availability(),
            r.healthy.p50,
            r.healthy.p99,
            r.impaired.p50,
            r.impaired.p99,
            r.recovery.rebuilds_completed,
            r.recovery.rebuilds_failed,
            if health_diags.is_empty() && ledger_diags.is_empty() {
                "audits clean"
            } else {
                "AUDIT FAILED"
            },
        );
        assert!(health_diags.is_empty(), "{health_diags:?}");
        assert!(ledger_diags.is_empty(), "{ledger_diags:?}");
        assert_eq!(r.degraded_at_end, 0, "a shard ended the soak degraded");
        assert_eq!(r.oracle_mismatches, 0, "silent corruption");
        assert_eq!(r.rejected_write_leaks, 0, "a rejected write applied");
    }
    Ok(())
}
