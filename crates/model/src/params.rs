//! Exploration bounds: how big a protocol instance the checker
//! enumerates exhaustively.
//!
//! Every bound is finite and small by design — the point of a model
//! checker is an *exhaustive* sweep of a small instance, not a sampled
//! sweep of a big one. The presets encode the three configurations the
//! project ships: a [`ModelParams::smoke`] instance for unit tests, the
//! [`ModelParams::ci`] instance the CI gate explores on every push, and
//! the [`ModelParams::bug_hunt`] instance that reproduces the stale-ack
//! phase-aliasing bug against the legacy (phase-only) ack matcher.

use nvdimmc_core::RecoveryParams;

/// Bounds of one model-checking run of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelParams {
    /// Writeback transactions the shard's driver issues.
    pub txns_per_shard: u32,
    /// Ack-wait window budget of a ladder attempt (`cp_timeout_windows`).
    pub timeout_windows: u32,
    /// Retransmit budget (`cp_max_retransmits`); attempts = this + 1.
    pub max_retransmits: u32,
    /// Backoff multiplier applied to the window budget per retransmit.
    pub backoff: u32,
    /// Injected-fault budget (ack drop, command-capture corruption,
    /// NAND nack).
    pub fault_budget: u32,
    /// Power-fail budget: how many crash points the scheduler may
    /// inject.
    pub crash_budget: u32,
    /// Online-repair budget (degraded → rebuilding edges).
    pub rebuild_budget: u32,
    /// Match acks by phase alone, the pre-seq-echo protocol. The shipped
    /// protocol matches phase *and* seq; this knob keeps the bug that
    /// motivated the seq echo reproducible as a regression.
    pub legacy_phase_match: bool,
    /// Hard cap on schedule length (cycle/blow-up guard; shipped bounds
    /// never reach it).
    pub max_depth: usize,
}

impl ModelParams {
    /// Tiny instance for unit tests: strict matching, one transaction,
    /// one fault + one crash point + one rebuild. 2,731 distinct states,
    /// 6,375 transitions and 209 terminal states — explores in well
    /// under a second even unoptimised.
    pub fn smoke() -> Self {
        ModelParams {
            txns_per_shard: 1,
            timeout_windows: 1,
            max_retransmits: 1,
            backoff: 2,
            fault_budget: 1,
            crash_budget: 1,
            rebuild_budget: 1,
            legacy_phase_match: false,
            max_depth: 4096,
        }
    }

    /// The CI gate instance: strict matching, three transactions, a
    /// two-retransmit ladder, two faults, two crash points and one
    /// rebuild. 7,921,458 distinct states, 22,362,073 transitions and
    /// 113,275 terminal states (~30 s and ~220 MB in release on two
    /// vCPUs).
    pub fn ci() -> Self {
        ModelParams {
            txns_per_shard: 3,
            timeout_windows: 1,
            max_retransmits: 2,
            backoff: 2,
            fault_budget: 2,
            crash_budget: 2,
            rebuild_budget: 1,
            legacy_phase_match: false,
            max_depth: 4096,
        }
    }

    /// The configuration that finds the stale-ack phase-aliasing bug:
    /// a 15-attempt ladder (so the 4-bit phase wraps onto the
    /// previous transaction's persistent ack word) and **zero** fault
    /// budget — the only adversarial power needed is scheduling (an FPGA
    /// that stops polling).
    pub fn bug_hunt() -> Self {
        ModelParams {
            txns_per_shard: 2,
            timeout_windows: 1,
            max_retransmits: 14,
            backoff: 1,
            fault_budget: 0,
            crash_budget: 0,
            rebuild_budget: 0,
            legacy_phase_match: true,
            max_depth: 4096,
        }
    }

    /// The driver-ladder parameters this instance hands to
    /// [`nvdimmc_core::DriverTxn::new`].
    pub fn recovery_params(&self) -> RecoveryParams {
        RecoveryParams {
            cp_timeout_windows: self.timeout_windows,
            cp_max_retransmits: self.max_retransmits,
            cp_backoff: self.backoff,
            ..RecoveryParams::default()
        }
    }

    /// Serialises the bounds as the `# params` header line of a schedule
    /// artifact (see [`crate::schedule`]). The fixed `shards=1` keeps
    /// the v1 artifact format, which named a shard count.
    pub fn to_header(&self) -> String {
        format!(
            "shards=1 txns={} windows={} retransmits={} backoff={} \
             faults={} crashes={} rebuilds={} legacy={} depth={}",
            self.txns_per_shard,
            self.timeout_windows,
            self.max_retransmits,
            self.backoff,
            self.fault_budget,
            self.crash_budget,
            self.rebuild_budget,
            u8::from(self.legacy_phase_match),
            self.max_depth,
        )
    }

    /// Parses a `# params` header line produced by
    /// [`ModelParams::to_header`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed `key=value` field:
    /// an unknown key, a non-number, a value that does not fit the
    /// field, or a shard count other than 1.
    pub fn from_header(line: &str) -> Result<Self, String> {
        let mut p = ModelParams::smoke();
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed params field {field:?}"))?;
            let v: u64 = value
                .parse()
                .map_err(|e| format!("params field {key}: {e}"))?;
            let narrow = || {
                u32::try_from(v)
                    .map_err(|_| format!("params field {key}: {v} exceeds {}", u32::MAX))
            };
            match key {
                "shards" if v == 1 => {}
                "shards" => {
                    return Err(format!(
                        "params field shards: the model checks one shard, not {v}"
                    ))
                }
                "txns" => p.txns_per_shard = narrow()?,
                "windows" => p.timeout_windows = narrow()?,
                "retransmits" => p.max_retransmits = narrow()?,
                "backoff" => p.backoff = narrow()?,
                "faults" => p.fault_budget = narrow()?,
                "crashes" => p.crash_budget = narrow()?,
                "rebuilds" => p.rebuild_budget = narrow()?,
                "legacy" => p.legacy_phase_match = v != 0,
                "depth" => p.max_depth = narrow()? as usize,
                other => return Err(format!("unknown params field {other:?}")),
            }
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        for p in [
            ModelParams::smoke(),
            ModelParams::ci(),
            ModelParams::bug_hunt(),
        ] {
            let line = p.to_header();
            assert_eq!(ModelParams::from_header(&line), Ok(p), "{line}");
        }
    }

    #[test]
    fn bad_headers_are_rejected_with_context() {
        assert!(ModelParams::from_header("shards").is_err());
        assert!(ModelParams::from_header("shards=x").is_err());
        assert!(ModelParams::from_header("quux=3").is_err());
        let wide = ModelParams::from_header("txns=4294967296").unwrap_err();
        assert!(wide.contains("txns"), "{wide}");
        assert!(ModelParams::from_header("faults=4294967295").is_ok());
        let two = ModelParams::from_header("shards=2").unwrap_err();
        assert!(two.contains("shards"), "{two}");
    }
}
