//! SLO soak runner: sustained mixed load with continuous dead-mailbox
//! fault waves, online repair, and availability/latency accounting.
//!
//! Where a [`FaultCampaign`](crate::FaultCampaign) proves that *every*
//! injected fault is recovered or surfaced once, the soak proves the
//! system **stays in service** while faults keep coming: waves of
//! mailbox-killing ack drops rotate across every shard for the whole
//! run, each degradation is repaired online through the front-end's
//! failover policy (quiesce → re-handshake → CRC scrub → audit →
//! re-admit), and the run reports what an SLO dashboard would —
//! availability, latency percentiles split by the serving shard's
//! health, rebuild counts — plus the usual bit-identity probes.
//!
//! Everything is seed-deterministic: the load, the wave schedule and
//! the repair sequence are pure functions of [`SoakConfig`], so the
//! same config reproduces the same [`SoakReport`] bit-exactly.

use nvdimmc_core::{
    BlockDevice, ChannelShard, CoreError, ExecutorConfig, FailoverPolicy, FaultKind,
    MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, RecoveryStats, ShardExecutor,
    PAGE_BYTES,
};
use nvdimmc_nand::ecc::crc32;
use nvdimmc_sim::{DeterministicRng, Histogram, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Soak configuration: load shape, horizon and the fault cadence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakConfig {
    /// Channels (= shards) behind the front-end.
    pub channels: u32,
    /// Working-set pages *per channel*, kept above the shard cache size
    /// so CP traffic (evictions + fills) never dries up and armed
    /// mailbox faults always find a command to bite on.
    pub pages_per_channel: u64,
    /// Seed for the load generator.
    pub seed: u64,
    /// Simulated soak horizon: the load loop runs until the device
    /// clock passes it (or `max_ops` trips first).
    pub duration: SimDuration,
    /// Hard operation-count backstop.
    pub max_ops: u64,
    /// Every this many operations, one shard's mailbox is killed
    /// (rotating round-robin over the channels).
    pub wave_period_ops: u64,
    /// Ack drops armed per wave. Anything above the retransmit budget
    /// (1 + `cp_max_retransmits`) kills the mailbox; twice the budget
    /// additionally starves the first repair handshake, exercising the
    /// interrupted-rebuild restart path.
    pub mailbox_kill: u32,
    /// Front-end failover policy for the run.
    pub failover: FailoverPolicy,
}

impl SoakConfig {
    /// The standard dead-mailbox soak: waves rotate over every channel,
    /// auto-repair on, each wave strong enough to also interrupt the
    /// first rebuild attempt.
    pub fn dead_mailbox(channels: u32) -> Self {
        SoakConfig {
            channels,
            pages_per_channel: 24,
            seed: 0x50AC_0DE0,
            // A repair (timeout discovery + probe retries + writeback
            // scrub) costs ~8 ms simulated; the horizon leaves room for
            // a wave per channel with margin, and `max_ops` governs.
            duration: SimDuration::from_us(400_000.0),
            max_ops: 400 * u64::from(channels.max(1)),
            wave_period_ops: 60,
            // 2 × (1 initial attempt + 3 retransmits): the first victim
            // transaction exhausts its budget on four drops, the repair
            // probe eats the other four and restarts the rebuild.
            mailbox_kill: 8,
            failover: FailoverPolicy::auto(),
        }
    }

    /// A time-bounded smoke variant for CI: same shape, shorter run.
    pub fn smoke(channels: u32) -> Self {
        let mut c = Self::dead_mailbox(channels);
        c.duration = SimDuration::from_us(100_000.0);
        c.max_ops = 150 * u64::from(channels.max(1));
        c.wave_period_ops = 40;
        c
    }

    fn config(&self) -> MultiChannelConfig {
        let mut shard = NvdimmCConfig::small_for_tests();
        // Tiny cache so the working set overflows it and CP traffic
        // continues all run; tight retransmit budget so a wave's drops
        // exhaust it quickly.
        shard.cache_slots = 16;
        shard.recovery.cp_timeout_windows = 64;
        shard.recovery.cp_max_retransmits = 3;
        MultiChannelConfig::new(shard, self.channels).with_failover(self.failover)
    }

    /// Runs the soak to completion.
    ///
    /// # Errors
    ///
    /// Propagates device errors outside the soak's recovery model
    /// (anything other than degraded/rebuilding/overloaded rejections
    /// and CP timeouts).
    ///
    /// # Panics
    ///
    /// Panics on an empty config or a working set beyond the exported
    /// capacity.
    pub fn run(&self) -> Result<SoakReport, CoreError> {
        Ok(self.run_full()?.0)
    }

    /// Like [`SoakConfig::run`], also returning the final system so the
    /// caller can audit health logs, rebuild ledgers and bus state.
    ///
    /// # Errors
    ///
    /// See [`SoakConfig::run`].
    ///
    /// # Panics
    ///
    /// See [`SoakConfig::run`].
    #[allow(clippy::too_many_lines)]
    pub fn run_full(&self) -> Result<(SoakReport, MultiChannelSystem), CoreError> {
        assert!(
            self.channels > 0 && self.pages_per_channel > 0,
            "empty soak"
        );
        let mut sys = MultiChannelSystem::new(self.config())?;
        let pages = self.pages_per_channel * u64::from(self.channels);
        assert!(
            pages * PAGE_BYTES <= sys.capacity_bytes(),
            "working set exceeds exported capacity"
        );
        let mut rng = DeterministicRng::new(self.seed).fork(0x50AC);
        let mut oracle: Vec<Vec<u8>> = vec![vec![0u8; PAGE_BYTES as usize]; pages as usize];
        // Rejected-write ledger, as in the fault campaign: the final
        // read-back must never reflect a payload the device refused.
        let mut rejected: BTreeMap<u64, u32> = BTreeMap::new();
        let mut report = SoakReport::new(self.channels);
        let mut healthy_lat = Histogram::new();
        let mut impaired_lat = Histogram::new();
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        let mut data = vec![0u8; PAGE_BYTES as usize];

        // Phase 1 — soak: scheduled load with rotating dead-mailbox
        // waves. Phase 2 — drain: same load, no new waves, until every
        // armed fault has fired (so the final verification cannot trip
        // a stale fault).
        let mut attempted = 0u64;
        let mut waves = 0u64;
        loop {
            let soaking = sys.now() < SimTime::ZERO + self.duration && attempted < self.max_ops;
            if !soaking && (sys.faults_quiescent() || attempted >= 2 * self.max_ops) {
                break;
            }
            if soaking && attempted > 0 && attempted.is_multiple_of(self.wave_period_ops) {
                let victim = (waves % u64::from(self.channels)) as usize;
                for _ in 0..self.mailbox_kill {
                    sys.shards_mut()[victim].inject_fault(FaultKind::AckDrop);
                }
                waves += 1;
            }
            attempted += 1;
            report.ops_attempted += 1;
            // Draw before executing so the stream stays aligned across
            // error paths (determinism).
            let page = rng.gen_range(0..pages);
            let write = rng.gen_bool(0.6);
            if write {
                rng.fill_bytes(&mut data);
            }
            let off = page * PAGE_BYTES;
            let shard = sys.map().locate(off).0 as usize;
            let impaired = !sys.shards()[shard].health().is_healthy();
            let res = if write {
                sys.write_at(off, &data)
            } else {
                sys.read_at(off, &mut buf)
            };
            match res {
                Ok(lat) => {
                    report.ops_completed += 1;
                    if impaired {
                        impaired_lat.record(lat);
                    } else {
                        healthy_lat.record(lat);
                    }
                    if write {
                        oracle[page as usize].copy_from_slice(&data);
                        rejected.remove(&page);
                    } else if buf != oracle[page as usize] {
                        report.oracle_mismatches += 1;
                    }
                }
                Err(e) => {
                    if write {
                        report.writes_rejected += 1;
                        rejected.insert(page, crc32(&data));
                    }
                    match e {
                        CoreError::CpTimeout { .. } => report.cp_timeouts += 1,
                        CoreError::DegradedShard { .. } => report.degraded_rejections += 1,
                        CoreError::Rebuilding { retry_after, .. } => {
                            report.shed_rebuilding += 1;
                            // The repair budget is spent; honor the
                            // failover policy's hint instead of
                            // hot-looping.
                            sys.advance(retry_after);
                        }
                        other => return Err(other),
                    }
                }
            }
        }

        // Phase 3 — repair sweep: no shard may end the soak degraded.
        // One sweep per remaining attempt budget; a shard whose repair
        // keeps failing stays in the degraded list and the report shows
        // it.
        for _ in 0..4 {
            if sys.degraded_shards().is_empty() {
                break;
            }
            sys.repair_degraded()?;
        }

        // Pages whose dirty data a rebuild dropped (loss surfaced in
        // the rebuild ledger) are excluded from verification — their
        // slots were invalidated, so a later read re-fills fresh.
        let mut excluded: BTreeSet<u64> = BTreeSet::new();
        for (idx, reports) in sys.rebuild_reports().iter().enumerate() {
            for r in *reports {
                for &local_page in &r.pages_lost {
                    let global = sys.map().to_global(idx as u32, local_page * PAGE_BYTES);
                    excluded.insert(global / PAGE_BYTES);
                }
            }
        }

        // Phase 4 — verification: byte-exact read-back against the
        // oracle, no rejected payload visible. The sweep batches through
        // the scale-out executor — pages stream onto the per-shard rings
        // (adjacent pages coalesce into joint DMAs on one channel) and
        // every completion carries its payload back; the digest still
        // folds in page order, so it is deterministic.
        let t0 = sys.now();
        let mut exec = ShardExecutor::new(sys.channels() as usize, ExecutorConfig::default());
        let mut page_data: Vec<Option<Vec<u8>>> = vec![None; pages as usize];
        fn fold_sweep(
            exec: &mut ShardExecutor,
            shards: &mut [ChannelShard],
            page_data: &mut [Option<Vec<u8>>],
        ) -> Result<(), CoreError> {
            for c in exec.dispatch(shards) {
                if let Some(e) = c.error {
                    return Err(e);
                }
                page_data[c.thread as usize] = Some(c.data);
            }
            Ok(())
        }
        {
            let (shards, map, _) = sys.parts_mut();
            for page in 0..pages {
                if excluded.contains(&page) {
                    continue;
                }
                loop {
                    match exec.submit_read(map, page as u32, page * PAGE_BYTES, PAGE_BYTES, t0) {
                        Ok(_) => break,
                        Err(CoreError::Overloaded { .. }) => {
                            fold_sweep(&mut exec, shards, &mut page_data)?;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            fold_sweep(&mut exec, shards, &mut page_data)?;
        }
        for page in 0..pages {
            if excluded.contains(&page) {
                report.pages_excluded += 1;
                continue;
            }
            let got = page_data[page as usize]
                .take()
                .ok_or_else(|| CoreError::Config("verification sweep lost a completion".into()))?;
            if got != oracle[page as usize] {
                report.oracle_mismatches += 1;
            }
            if rejected.get(&page) == Some(&crc32(&got)) {
                report.rejected_write_leaks += 1;
            }
            report.digest = report
                .digest
                .wrapping_mul(0x0000_0100_0000_01B3)
                .wrapping_add(u64::from(crc32(&got)));
        }

        report.waves = waves;
        report.healthy = LatencySummary::from(&healthy_lat);
        report.impaired = LatencySummary::from(&impaired_lat);
        report.degraded_at_end = sys.degraded_shards().len() as u64;
        report.recovery = sys.recovery_stats();
        report.final_clock = sys.now();
        Ok((report, sys))
    }
}

/// Count/percentile digest of one latency population (histograms are
/// not bit-comparable, so the report keeps extracted values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median latency.
    pub p50: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Worst-case latency.
    pub max: SimDuration,
}

impl From<&Histogram> for LatencySummary {
    fn from(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// Everything a soak run produced, sufficient for bit-identity
/// comparison across reruns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoakReport {
    /// Channels the soak ran on.
    pub channels: u32,
    /// Dead-mailbox waves armed.
    pub waves: u64,
    /// Operations attempted (soak + drain phases).
    pub ops_attempted: u64,
    /// Operations that completed.
    pub ops_completed: u64,
    /// CP transactions that exhausted their retransmit budget (the op
    /// that discovered each dead mailbox).
    pub cp_timeouts: u64,
    /// Operations bounced by a degraded shard (auto-repair off or
    /// budget exhausted).
    pub degraded_rejections: u64,
    /// Operations shed with a typed `Rebuilding` retry-after hint.
    pub shed_rebuilding: u64,
    /// Writes refused with a typed error (ledgered).
    pub writes_rejected: u64,
    /// Final read-backs matching a still-ledgered rejected payload;
    /// must be zero.
    pub rejected_write_leaks: u64,
    /// Pages excluded from verification because a rebuild surfaced
    /// their loss (never silently).
    pub pages_excluded: u64,
    /// Bytes differing from the oracle; must be zero.
    pub oracle_mismatches: u64,
    /// Latency digest of ops served while the target shard was healthy.
    pub healthy: LatencySummary,
    /// Latency digest of ops served while the target shard was degraded
    /// or rebuilding (repair time lands on these ops).
    pub impaired: LatencySummary,
    /// Shards still degraded after the final repair sweep; must be zero
    /// for a passing soak.
    pub degraded_at_end: u64,
    /// Merged recovery ledger across all shards.
    pub recovery: RecoveryStats,
    /// FNV-folded CRC digest of the final read-back (bit-identity
    /// probe).
    pub digest: u64,
    /// Final simulated clock (bit-identity probe).
    pub final_clock: SimTime,
}

impl SoakReport {
    fn new(channels: u32) -> Self {
        SoakReport {
            channels,
            waves: 0,
            ops_attempted: 0,
            ops_completed: 0,
            cp_timeouts: 0,
            degraded_rejections: 0,
            shed_rebuilding: 0,
            writes_rejected: 0,
            rejected_write_leaks: 0,
            pages_excluded: 0,
            oracle_mismatches: 0,
            healthy: LatencySummary::default(),
            impaired: LatencySummary::default(),
            degraded_at_end: 0,
            recovery: RecoveryStats::default(),
            digest: 0xCBF2_9CE4_8422_2325,
            final_clock: SimTime::ZERO,
        }
    }

    /// Fraction of attempted operations that completed.
    pub fn availability(&self) -> f64 {
        if self.ops_attempted == 0 {
            return 1.0;
        }
        self.ops_completed as f64 / self.ops_attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_soak_without_waves_is_fully_available() {
        let mut c = SoakConfig::smoke(1);
        c.wave_period_ops = u64::MAX; // never arm a wave
        let r = c.run().expect("soak");
        assert_eq!(r.waves, 0);
        assert_eq!(r.ops_completed, r.ops_attempted);
        assert_eq!(r.oracle_mismatches, 0);
        assert_eq!(r.recovery.rebuilds_started, 0);
        assert_eq!(r.impaired.count, 0);
    }

    #[test]
    fn smoke_soak_repairs_every_wave() {
        let r = SoakConfig::smoke(2).run().expect("soak");
        assert!(r.waves >= 2, "waves must hit every channel: {r:?}");
        assert!(r.recovery.rebuilds_completed > 0, "{r:?}");
        assert_eq!(r.degraded_at_end, 0, "{r:?}");
        assert_eq!(r.oracle_mismatches, 0, "{r:?}");
        assert_eq!(r.rejected_write_leaks, 0, "{r:?}");
    }
}
