//! # nvdimmc-check — trace-based protocol verifier and lint pass
//!
//! A static-analysis layer over the rest of the simulator. Nothing here
//! affects simulated behaviour; every pass replays *recorded* evidence —
//! a bus-command trace, a persistence journal, or a configuration — and
//! reports violations as structured [`Diagnostic`]s, so a bug in the
//! inline enforcement (bus, device, bank layers) cannot silently vouch
//! for itself.
//!
//! The passes:
//!
//! - [`lint_timing`] — an independent JEDEC DDR4 timing linter
//!   (tRCD/tCL/tRP/tRAS/tRRD/tFAW/tWR/tRTP/tWTR/tCCD/tRFC) over a
//!   [`TraceEntry`] trace captured by
//!   [`TraceRecorder`](nvdimmc_ddr::TraceRecorder);
//! - [`detect_races`] — multi-master CA-slot and DQ-burst interval
//!   overlap detection (paper Figure 2a, case C1);
//! - [`check_refresh_windows`] — proves every NVMC command falls strictly
//!   inside an extra-tRFC window `[tRFC_base, tRFC_total)` after a snooped
//!   REF — or, in per-bank mode, inside its own bank's REFpb window — that
//!   the host honours its programmed tRFC and stays out of refreshing
//!   banks, that no per-bank window carries more data than its span
//!   allows, and that out-of-order window placement never starves a bank
//!   past its tREFI budget;
//! - [`check_persistence`] — pmemcheck-style replay of a
//!   [`PersistEvent`](nvdimmc_host::PersistEvent) journal: every durable
//!   claim must be flush-then-fence ordered;
//! - [`lint_config`] — static [`NvdimmCConfig`](nvdimmc_core::NvdimmCConfig)
//!   invariants (window capacity, tREFI/tRFC ratio, cache-vs-media
//!   geometry), with [`assert_config_clean`] for example/bench entry
//!   points;
//! - [`check_crash`] — the crash-sweep persistence oracle: replays a
//!   power-cut trial's expectation ledger against the parsed
//!   post-recovery record stamps (acked-persisted data survives, no
//!   invented generations, no torn multi-sector records, balanced
//!   power-cut ledger);
//! - [`check_recovery`] — audits a fault campaign's merged
//!   [`RecoveryStats`](nvdimmc_core::RecoveryStats) ledger: every
//!   injected fault must be recovered or surfaced as a typed error,
//!   never silently absorbed;
//! - [`check_health`] — replays a shard's recorded health-transition log
//!   and rebuild ledger: only legal state-machine edges, monotone
//!   timestamps, and no re-admission without a clean rebuild audit
//!   ([`check_system_health`] runs it over every shard).
//!
//! # Example
//!
//! ```
//! use nvdimmc_core::{BlockDevice, NvdimmCConfig, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = System::new(NvdimmCConfig::small_for_tests())?;
//! sys.set_trace_capture(true);
//! sys.write_at(0, &[0xA5u8; 4096])?;
//! let trace = sys.take_trace();
//! let report = nvdimmc_check::check_trace(&trace, &sys.config().timing);
//! assert!(report.is_clean(), "{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod crash;
pub mod diag;
pub mod health;
pub mod persist;
pub mod races;
pub mod recovery;
pub mod refresh;
pub mod shards;
pub mod timing;

pub use config::{assert_config_clean, lint_config};
pub use crash::{check_crash, CrashObservation, RecordExpectation, SectorView};
pub use diag::{Diagnostic, Report, Severity};
pub use health::{check_health, check_system_health};
pub use persist::check_persistence;
pub use races::detect_races;
pub use recovery::check_recovery;
pub use refresh::check_refresh_windows;
pub use shards::{check_conservation, check_shards};
pub use timing::lint_timing;

use nvdimmc_ddr::{TimingParams, TraceEntry};

/// Runs every trace-based pass — timing linter, race detector and
/// refresh-window checker — over one recorded trace and merges the
/// findings into a single [`Report`].
pub fn check_trace(trace: &[TraceEntry], timing: &TimingParams) -> Report {
    let mut report = Report::new();
    report.merge(Report::from_diagnostics(lint_timing(trace, timing)));
    report.merge(Report::from_diagnostics(detect_races(trace)));
    report.merge(Report::from_diagnostics(check_refresh_windows(
        trace, timing,
    )));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_ddr::{BankAddr, BusMaster, Command, SpeedBin};
    use nvdimmc_sim::SimTime;

    #[test]
    fn check_trace_merges_all_passes() {
        let t = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        // One entry that is simultaneously an NVMC command outside any
        // window AND a column command to a closed bank.
        let e = TraceEntry::observe(
            BusMaster::Nvmc,
            SimTime::from_ns(100),
            Command::Read {
                bank: BankAddr::new(0, 0),
                col: 0,
                auto_precharge: false,
            },
            &t,
        );
        let report = check_trace(&[e], &t);
        assert!(report.by_rule("timing/bank-state").count() == 1, "{report}");
        assert!(
            report.by_rule("refresh/nvmc-outside-window").count() == 1,
            "{report}"
        );
    }

    #[test]
    fn empty_trace_is_clean() {
        let t = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        assert!(check_trace(&[], &t).is_clean());
    }
}
