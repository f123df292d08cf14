//! Deterministic fault-load runs with end-to-end recovery verification.
//!
//! One driver, two kinds of preset. A **fault campaign**
//! ([`FaultCampaign::recoverable`]) drives a [`MultiChannelSystem`] with a
//! seeded mixed read/write load while a [`FaultPlan`] injects
//! uncorrectable NAND reads, lost and corrupted CP acks, refresh-window
//! overruns, DRAM cache-slot corruption and mid-transfer power failures.
//! An **SLO soak** ([`FaultCampaign::dead_mailbox`]) keeps the same load
//! running while waves of mailbox-killing ack drops rotate over every
//! shard; each degradation is repaired online through the front-end's
//! failover policy (quiesce → re-handshake → CRC scrub → audit →
//! re-admit), and the report adds availability and latency percentiles
//! split by the serving shard's health. Either way the run proves three
//! things:
//!
//! 1. **No silent corruption.** Every byte read back matches a host-side
//!    oracle; pages whose loss was *surfaced* (typed error, or a rebuild
//!    ledger) are excluded explicitly, never silently.
//! 2. **Full accounting.** The merged [`RecoveryStats`] ledger balances:
//!    every injected fault was recovered or surfaced
//!    (`nvdimmc_check::check_recovery` audits the report).
//! 3. **Determinism.** The same config reproduces the same run
//!    bit-exactly — same digest, same clocks, same counters — on any
//!    channel count, because every draw comes from forked
//!    [`DeterministicRng`] streams.
//!
//! The working set is sized to overflow each shard's DRAM cache, so
//! writeback/cachefill CP traffic continues for the whole run and armed
//! mailbox/window faults always find a command to bite on.

use crate::{fnv_fold, FNV_OFFSET};
use nvdimmc_core::{
    BlockDevice, ChannelShard, CoreError, ExecutorConfig, FailoverPolicy, FaultKind, FaultPlan,
    MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, RecoveryParams, RecoveryStats, ReqKind,
    ShardExecutor, PAGE_BYTES,
};
use nvdimmc_ddr::TraceEntry;
use nvdimmc_nand::ecc::crc32;
use nvdimmc_sim::{DeterministicRng, Histogram, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Run configuration: load shape, fault mix and fault-wave cadence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCampaign {
    /// Channels (= shards) behind the front-end.
    pub channels: u32,
    /// Working-set pages *per channel* (kept larger than the shard cache
    /// so eviction traffic never dries up).
    pub pages_per_channel: u64,
    /// Scheduled operations (page-granular reads/writes).
    pub ops: u64,
    /// Seed for the load generator and the fault plan.
    pub seed: u64,
    /// Fault classes the [`FaultPlan`] injects, with per-class counts.
    pub faults: Vec<(FaultKind, u64)>,
    /// Extra operations allowed after the scheduled load to flush every
    /// remaining armed/pending fault before the final verification. A
    /// fault still armed when the cap trips can fire during the final
    /// verification sweep; it then surfaces as an error from the run.
    pub drain_cap: u64,
    /// Simulated horizon: the scheduled load also ends once the device
    /// clock passes it.
    pub horizon: SimDuration,
    /// Every this many scheduled operations, one shard's mailbox is
    /// killed (rotating round-robin over the channels); 0 = no waves.
    pub wave_period_ops: u64,
    /// Ack drops armed per wave; 0 = no waves. Anything above the
    /// retransmit budget (1 + `cp_max_retransmits`) kills the mailbox;
    /// twice the budget also starves the first repair handshake,
    /// exercising the interrupted-rebuild restart path.
    pub mailbox_kill: u32,
    /// Front-end failover policy for the run.
    pub failover: FailoverPolicy,
    /// The shards' CP-recovery ladder. Long ladders — 15 attempts wrap
    /// the 4-bit mailbox phase — are how the stale-ack regression is
    /// driven end to end.
    pub recovery: RecoveryParams,
    /// Fork salt of the load stream. Only the presets set it: each
    /// preset's golden digest depends on its own stream.
    salt: u64,
}

impl FaultCampaign {
    /// The standard all-recoverable mix: every class whose recovery is
    /// transparent (transient NAND, lost/corrupt acks, window overruns,
    /// clean-slot corruption). Persistent NAND poisoning and power
    /// failures have their own campaigns.
    pub fn recoverable(channels: u32) -> Self {
        FaultCampaign {
            channels,
            pages_per_channel: 24,
            ops: 250 * u64::from(channels.max(1)),
            seed: 0x00C4_15CA_DE01,
            faults: vec![
                (FaultKind::NandTransient, 3),
                (FaultKind::AckDrop, 2),
                (FaultKind::AckCorrupt, 2),
                (FaultKind::WindowOverrun, 3),
                (FaultKind::SlotCorruption, 3),
            ],
            drain_cap: 2000,
            horizon: SimDuration::MAX,
            wave_period_ops: 0,
            mailbox_kill: 0,
            failover: FailoverPolicy::default(),
            recovery: RecoveryParams::default(),
            salt: 0xC0FF,
        }
    }

    /// The standard dead-mailbox soak: waves rotate over every channel,
    /// auto-repair on, each wave strong enough to also interrupt the
    /// first rebuild attempt.
    pub fn dead_mailbox(channels: u32) -> Self {
        let ops = 400 * u64::from(channels.max(1));
        FaultCampaign {
            channels,
            pages_per_channel: 24,
            ops,
            seed: 0x50AC_0DE0,
            faults: Vec::new(),
            drain_cap: ops,
            // A repair (timeout discovery + probe retries + writeback
            // scrub) costs ~8 ms simulated; the horizon leaves room for
            // a wave per channel with margin, and `ops` governs.
            horizon: SimDuration::from_us(400_000.0),
            wave_period_ops: 60,
            // 2 × (1 initial attempt + 3 retransmits): the first victim
            // transaction exhausts its budget on four drops, the repair
            // probe eats the other four and restarts the rebuild.
            mailbox_kill: 8,
            failover: FailoverPolicy::auto(),
            // A tight retransmit budget so a wave's drops exhaust it
            // quickly.
            recovery: RecoveryParams {
                cp_timeout_windows: 64,
                cp_max_retransmits: 3,
                ..RecoveryParams::default()
            },
            salt: 0x50AC,
        }
    }

    /// A time-bounded smoke variant of [`FaultCampaign::dead_mailbox`]
    /// for CI: same shape, shorter run.
    pub fn dead_mailbox_smoke(channels: u32) -> Self {
        let mut c = Self::dead_mailbox(channels);
        c.horizon = SimDuration::from_us(100_000.0);
        c.ops = 150 * u64::from(channels.max(1));
        c.drain_cap = c.ops;
        c.wave_period_ops = 40;
        c
    }

    /// Replaces the shards' CP-recovery ladder parameters.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryParams) -> Self {
        self.recovery = recovery;
        self
    }

    /// Adds `count` mid-operation power failures to the mix.
    #[must_use]
    pub fn with_power_fails(mut self, count: u64) -> Self {
        self.faults.push((FaultKind::PowerFail, count));
        self
    }

    /// Replaces the seed (determinism experiments).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// One-command reproduction hint for `report`, a run of this
    /// campaign: the run is fully deterministic in the config, so
    /// rerunning it replays every power cut at the recorded op index
    /// bit-identically. Embed this in assertion messages so a failure is
    /// reproducible without archaeology.
    pub fn repro(&self, report: &CampaignReport) -> String {
        format!(
            "repro: {self:?}.run() (power cuts at op indices {:?}; rerun is bit-identical)",
            report.power_fail_points
        )
    }

    fn plan(&self) -> FaultPlan {
        // The plan's horizon is a per-shard operation count: uniform
        // pages give each shard roughly ops/channels operations.
        let per_shard_ops = (self.ops / u64::from(self.channels.max(1))).max(1);
        let mut p = FaultPlan::new(self.seed).horizon(per_shard_ops);
        for &(kind, count) in &self.faults {
            p = p.with(kind, count);
        }
        p
    }

    fn config(&self) -> MultiChannelConfig {
        let mut shard = NvdimmCConfig::small_for_tests();
        // A deliberately tiny cache: the working set must overflow it so
        // CP traffic (writebacks + cachefills) continues all run.
        shard.cache_slots = 16;
        shard.recovery = self.recovery;
        MultiChannelConfig::new(shard, self.channels).with_failover(self.failover)
    }

    /// Runs the campaign to completion (load, drain, repair, final
    /// verification).
    ///
    /// # Errors
    ///
    /// See [`FaultCampaign::run_full`].
    ///
    /// # Panics
    ///
    /// Panics on an empty config or a working set beyond the exported
    /// capacity.
    pub fn run(&self) -> Result<CampaignReport, CoreError> {
        Ok(self.run_full(false)?.0)
    }

    /// Like [`FaultCampaign::run`], also returning the final system (so
    /// the caller can audit health logs, rebuild ledgers and bus state)
    /// and, with `capture`, each shard's full bus trace so
    /// `nvdimmc-check`'s timing/race/refresh passes can audit the run.
    ///
    /// Traces come back as one [`TraceEpoch`] per boot: a power-fail
    /// rebuild restarts the simulated clock (it *is* a reboot), so the
    /// epochs cannot be concatenated into one monotonic trace — each must
    /// be checked standalone (see `check_shards` in `nvdimmc-check` per
    /// epoch). Without power faults there is exactly one epoch.
    ///
    /// # Errors
    ///
    /// Propagates device errors outside the recovery model (anything
    /// other than power interruptions, degraded/rebuilding rejections,
    /// CP timeouts and surfaced media/cache corruption during the load),
    /// and every error of the final verification sweep — including a
    /// fault still armed when `drain_cap` tripped, or a shard the final
    /// repair sweep could not re-admit.
    ///
    /// # Panics
    ///
    /// See [`FaultCampaign::run`].
    #[allow(clippy::too_many_lines)]
    pub fn run_full(
        &self,
        capture: bool,
    ) -> Result<(CampaignReport, Vec<TraceEpoch>, MultiChannelSystem), CoreError> {
        assert!(
            self.channels > 0 && self.pages_per_channel > 0,
            "empty campaign"
        );
        let mut sys = MultiChannelSystem::new(self.config())?;
        if !self.faults.is_empty() {
            sys.attach_fault_plan(&self.plan());
        }
        let mut traces: Vec<TraceEpoch> = Vec::new();
        if capture {
            sys.set_trace_capture(true);
        }
        let pages = self.pages_per_channel * u64::from(self.channels);
        assert!(
            pages * PAGE_BYTES <= sys.capacity_bytes(),
            "working set exceeds exported capacity"
        );
        let mut rng = DeterministicRng::new(self.seed).fork(self.salt);
        let mut oracle: Vec<Vec<u8>> = vec![vec![0u8; PAGE_BYTES as usize]; pages as usize];
        // Pages whose loss was surfaced; the final sweep skips them.
        let mut excluded: BTreeSet<u64> = BTreeSet::new();
        // Rejected-write ledger: page → CRC of the payload the device
        // refused. The final read-back must never reflect a rejected
        // payload; a later *successful* write to the page supersedes the
        // rejection (the oracle check governs from then on), so the
        // entry is cleared.
        let mut rejected: BTreeMap<u64, u32> = BTreeMap::new();
        let mut report = CampaignReport::new(self.channels, self.seed);
        let mut healthy_lat = Histogram::new();
        let mut impaired_lat = Histogram::new();
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        let mut data = vec![0u8; PAGE_BYTES as usize];
        let horizon = SimTime::ZERO + self.horizon;
        let waves_on = self.wave_period_ops > 0 && self.mailbox_kill > 0;

        // Scheduled load (with fault waves, if any), then drain ops until
        // every armed fault has fired and been consumed — so the final
        // verification cannot trip a stale fault — or the cap trips.
        loop {
            let attempted = report.ops_attempted;
            let scheduled = attempted < self.ops && sys.now() < horizon;
            let capped = attempted >= self.ops.saturating_add(self.drain_cap);
            if !scheduled && (sys.faults_quiescent() || capped) {
                break;
            }
            if scheduled
                && waves_on
                && attempted > 0
                && attempted.is_multiple_of(self.wave_period_ops)
            {
                let victim = (report.waves % u64::from(self.channels)) as usize;
                for _ in 0..self.mailbox_kill {
                    sys.shards_mut()[victim].inject_fault(FaultKind::AckDrop);
                }
                report.waves += 1;
            }
            report.ops_attempted += 1;
            // Draw before executing so the stream stays aligned across
            // error paths (determinism).
            let page = rng.gen_range(0..pages);
            let write = rng.gen_bool(0.6);
            if write {
                rng.fill_bytes(&mut data);
            }
            if excluded.contains(&page) {
                continue;
            }
            let off = page * PAGE_BYTES;
            let shard = sys.map().locate(off).0 as usize;
            let impaired = !sys.shards()[shard].health().is_healthy();
            let res = if write {
                sys.write_at(off, &data)
            } else {
                sys.read_at(off, &mut buf)
            };
            if write && res.is_err() {
                report.writes_rejected += 1;
                rejected.insert(page, crc32(&data));
            }
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
                // The op did not apply: power-cycle and rebuild. The
                // FPGA's battery-backed dump persists every dirty slot,
                // so the oracle stays valid.
                Err(CoreError::PowerInterrupted) => {
                    report.power_cycles += 1;
                    report.power_fail_points.push(report.ops_attempted - 1);
                    Self::splice_traces(&mut sys, capture, &mut traces);
                    sys.power_fail(true)?;
                    sys = sys.into_recovered()?;
                    if capture {
                        sys.set_trace_capture(true);
                    }
                }
                Err(CoreError::DegradedShard { .. }) => report.degraded_rejections += 1,
                Err(CoreError::CpTimeout { .. }) => report.cp_timeouts += 1,
                Err(CoreError::Rebuilding { retry_after, .. }) => {
                    report.shed_rebuilding += 1;
                    // The repair budget is spent; honor the failover
                    // policy's hint instead of hot-looping.
                    sys.advance(retry_after);
                }
                Err(CoreError::MediaFailed { .. }) => {
                    report.media_failures += 1;
                    excluded.insert(page);
                }
                Err(CoreError::CacheCorruption { .. }) => {
                    report.cache_corruptions += 1;
                    excluded.insert(page);
                }
                Err(e) => return Err(e),
            }
        }

        // Repair sweep: no shard should end the run degraded. A shard
        // whose repair keeps failing stays degraded; the verification
        // sweep below then surfaces its rejections as an error.
        for _ in 0..4 {
            if sys.degraded_shards().is_empty() {
                break;
            }
            sys.repair_degraded()?;
        }
        // Pages whose dirty data a rebuild dropped (loss surfaced in the
        // rebuild ledger) are excluded too: their slots were invalidated.
        for (idx, reports) in sys.rebuild_reports().iter().enumerate() {
            for r in *reports {
                for &local_page in &r.pages_lost {
                    let global = sys.map().to_global(idx as u32, local_page * PAGE_BYTES);
                    excluded.insert(global / PAGE_BYTES);
                }
            }
        }

        // Final verification: every non-excluded page byte-exact against
        // the oracle, no rejected payload visible. This also forces the
        // scrub over any still-resident corrupted slot, closing the
        // detection ledger. The sweep batches through the scale-out
        // [`ShardExecutor`]: reads are queued per shard (adjacent pages
        // coalesce into joint DMAs on one channel) and served in shard
        // order; the payloads fold back in page order, so
        // the digest is deterministic. Trace capture is untouched: entries
        // stay in each shard's recorder until the epoch is spliced below.
        let t0 = sys.now();
        let mut exec = ShardExecutor::new(self.channels as usize, ExecutorConfig::default());
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
            for page in (0..pages).filter(|p| !excluded.contains(p)) {
                loop {
                    match exec.submit(
                        map,
                        page as u32,
                        ReqKind::Read,
                        page * PAGE_BYTES,
                        PAGE_BYTES,
                        t0,
                        &[],
                    ) {
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
        report.pages_excluded = excluded.len() as u64;
        for page in (0..pages).filter(|p| !excluded.contains(p)) {
            let got = page_data[page as usize]
                .take()
                .ok_or_else(|| CoreError::Config("verification sweep lost a completion".into()))?;
            if got != oracle[page as usize] {
                report.oracle_mismatches += 1;
            }
            if rejected.get(&page) == Some(&crc32(&got)) {
                report.rejected_write_leaks += 1;
            }
            report.digest = fnv_fold(report.digest, u64::from(crc32(&got)));
        }

        report.healthy = LatencySummary::from(&healthy_lat);
        report.impaired = LatencySummary::from(&impaired_lat);
        report.degraded_at_end = sys.degraded_shards().len() as u64;
        report.recovery = sys.recovery_stats();
        report.final_clock = sys.now();
        Self::splice_traces(&mut sys, capture, &mut traces);
        Ok((report, traces, sys))
    }

    /// Closes the current boot epoch's capture and appends it (used at
    /// power cycles and at the end of the run).
    fn splice_traces(sys: &mut MultiChannelSystem, capture: bool, traces: &mut Vec<TraceEpoch>) {
        if !capture {
            return;
        }
        if let Some(epoch) = sys.set_trace_capture(false) {
            traces.push(epoch);
        }
    }
}

/// One boot epoch's bus traces, one `Vec<TraceEntry>` per shard. A
/// campaign that power-cycles produces several epochs; the simulated
/// clock restarts at each reboot, so every epoch is a standalone trace.
pub type TraceEpoch = Vec<Vec<TraceEntry>>;

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

/// Everything a campaign run produced, sufficient for bit-identity
/// comparison across reruns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Channels the campaign ran on.
    pub channels: u32,
    /// Seed the campaign ran with.
    pub seed: u64,
    /// Crash point of every power cut taken, as the zero-based attempted
    /// -op index it interrupted. The run is deterministic in its config,
    /// so this pins each cut exactly — see [`FaultCampaign::repro`].
    pub power_fail_points: Vec<u64>,
    /// Dead-mailbox waves armed.
    pub waves: u64,
    /// Operations attempted (scheduled + drain).
    pub ops_attempted: u64,
    /// Operations that completed without a surfaced fault.
    pub ops_completed: u64,
    /// Power-fail/rebuild cycles taken.
    pub power_cycles: u64,
    /// Operations rejected by a degraded shard (auto-repair off or its
    /// budget exhausted).
    pub degraded_rejections: u64,
    /// Operations shed with a typed `Rebuilding` retry-after hint.
    pub shed_rebuilding: u64,
    /// CP transactions that exhausted their retransmit budget.
    pub cp_timeouts: u64,
    /// Typed uncorrectable-media failures surfaced.
    pub media_failures: u64,
    /// Typed dirty-slot corruption losses surfaced.
    pub cache_corruptions: u64,
    /// Shards still degraded after the final repair sweep.
    pub degraded_at_end: u64,
    /// Pages excluded from the final verification because their loss was
    /// surfaced (never silently).
    pub pages_excluded: u64,
    /// Writes the device refused with a typed error (ledgered).
    pub writes_rejected: u64,
    /// Final read-backs that matched a still-ledgered rejected payload —
    /// a write the device claimed to refuse but applied; must be zero.
    pub rejected_write_leaks: u64,
    /// Bytes that differed from the oracle — the silent-corruption
    /// counter; must be zero.
    pub oracle_mismatches: u64,
    /// Latency digest of ops served while the target shard was healthy.
    pub healthy: LatencySummary,
    /// Latency digest of ops served while the target shard was degraded
    /// or rebuilding (repair time lands on these ops).
    pub impaired: LatencySummary,
    /// FNV-folded CRC digest of the final read-back (bit-identity probe).
    pub digest: u64,
    /// Merged recovery ledger across all shards.
    pub recovery: RecoveryStats,
    /// Final simulated clock (bit-identity probe).
    pub final_clock: SimTime,
}

impl CampaignReport {
    fn new(channels: u32, seed: u64) -> Self {
        CampaignReport {
            channels,
            seed,
            power_fail_points: Vec::new(),
            waves: 0,
            ops_attempted: 0,
            ops_completed: 0,
            power_cycles: 0,
            degraded_rejections: 0,
            shed_rebuilding: 0,
            cp_timeouts: 0,
            media_failures: 0,
            cache_corruptions: 0,
            degraded_at_end: 0,
            pages_excluded: 0,
            writes_rejected: 0,
            rejected_write_leaks: 0,
            oracle_mismatches: 0,
            healthy: LatencySummary::default(),
            impaired: LatencySummary::default(),
            digest: FNV_OFFSET,
            recovery: RecoveryStats::default(),
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
    fn clean_campaign_without_faults_verifies() {
        let mut c = FaultCampaign::recoverable(1);
        c.faults.clear();
        c.ops = 60;
        let r = c.run().expect("campaign");
        assert_eq!(r.oracle_mismatches, 0);
        assert_eq!(r.ops_completed, r.ops_attempted);
        assert_eq!(r.recovery, RecoveryStats::default());
    }

    #[test]
    fn single_channel_campaign_recovers_everything() {
        let c = FaultCampaign::recoverable(1);
        let r = c.run().expect("campaign");
        assert_eq!(r.oracle_mismatches, 0, "silent corruption; {}", c.repro(&r));
        assert_eq!(
            r.rejected_write_leaks,
            0,
            "rejected write applied; {}",
            c.repro(&r)
        );
        assert_eq!(r.recovery.faults_fired, r.recovery.faults_scheduled);
        assert_eq!(r.degraded_at_end, 0);
        let diags = nvdimmc_check::check_recovery(&r.recovery);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn repro_names_the_fault_mix_and_the_cuts() {
        let c = FaultCampaign::recoverable(2).with_power_fails(2);
        let r = c.run().expect("campaign");
        let hint = c.repro(&r);
        assert_eq!(r.power_fail_points.len(), 2, "{hint}");
        assert!(hint.contains("PowerFail"), "{hint}");
        assert!(
            hint.contains(&format!("{:?}", r.power_fail_points)),
            "{hint}"
        );
    }

    #[test]
    fn quiet_soak_without_waves_is_fully_available() {
        let mut c = FaultCampaign::dead_mailbox_smoke(1);
        c.wave_period_ops = 0; // never arm a wave
        let r = c.run().expect("soak");
        assert_eq!(r.waves, 0);
        assert_eq!(r.ops_completed, r.ops_attempted);
        assert_eq!(r.oracle_mismatches, 0);
        assert_eq!(r.recovery.rebuilds_started, 0);
        assert_eq!(r.impaired.count, 0);
    }

    #[test]
    fn smoke_soak_repairs_every_wave() {
        let r = FaultCampaign::dead_mailbox_smoke(2).run().expect("soak");
        assert!(r.waves >= 2, "waves must hit every channel: {r:?}");
        assert!(r.recovery.rebuilds_completed > 0, "{r:?}");
        assert_eq!(r.degraded_at_end, 0, "{r:?}");
        assert_eq!(r.oracle_mismatches, 0, "{r:?}");
        assert_eq!(r.rejected_write_leaks, 0, "{r:?}");
    }
}
