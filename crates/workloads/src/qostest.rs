//! Multi-tenant QoS soak: N tenants at mixed priorities share the
//! executor path while dead-mailbox waves rotate across the shards and
//! background maintenance (CRC scrub, online repair, FTL housekeeping)
//! runs continuously in idle windows.
//!
//! Where the single-tenant soak
//! ([`FaultCampaign::dead_mailbox`](crate::FaultCampaign::dead_mailbox)) proves the
//! system *stays in service* under fault waves, this soak proves it
//! stays **fair**: per-tenant token buckets gate admission, the
//! [`WfqArbiter`] interleaves each shard batch by weight, and
//! priority-aware eviction keeps foreground hot slots resident while
//! background tenants churn the cache. The run asserts what a
//! multi-tenant SLO dashboard would: no foreground tenant's p99 over
//! its class target, no tenant starved, and per-tenant request/token
//! conservation clean (audited independently by `check::qos`).
//!
//! Everything is seed-deterministic: the per-tenant load, the wave
//! schedule, the WFQ interleave and the maintenance calendar are pure
//! functions of [`QosTestConfig`], so the same config reproduces the
//! same [`QosReport`] digest bit-exactly.

use crate::{fnv_fold, FNV_OFFSET};
use nvdimmc_core::{
    BlockDevice, CoreError, ExecutorConfig, FaultKind, InterleaveMap, MaintStats,
    MaintenanceScheduler, NvdimmCConfig, Priority, QosEngine, QosSnapshot, ReqKind, ShardExecutor,
    SloClass, SloTargets, System, TenantId, TenantSpec, WfqArbiter, PAGE_BYTES,
};
use nvdimmc_sim::{DeterministicRng, Histogram, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Multi-tenant soak configuration: tenant contracts, load shape and
/// fault cadence.
#[derive(Debug, Clone)]
pub struct QosTestConfig {
    /// Channels (= shards) behind the interleaver.
    pub channels: u32,
    /// The tenant contracts (identity, weight, priority, class, quota).
    pub tenants: Vec<TenantSpec>,
    /// Working-set pages per tenant, parallel to `tenants`. Foreground
    /// sets should fit their per-shard cache share (the priority floor
    /// keeps them resident); background sets should overflow it.
    pub pages: Vec<u64>,
    /// Ops submitted per round, parallel to `tenants` (background
    /// flooders burst more than foreground tricklers).
    pub burst: Vec<u64>,
    /// Fraction of ops that are writes, in percent.
    pub write_percent: u32,
    /// Load-generator seed.
    pub seed: u64,
    /// Submit/dispatch rounds in the soak phase.
    pub rounds: u64,
    /// Every this many rounds, one shard's mailbox is killed (rotating
    /// round-robin over the channels). 0 disables waves.
    pub wave_period_rounds: u64,
    /// Ack drops armed per wave; anything above the retransmit budget
    /// kills the mailbox.
    pub mailbox_kill: u32,
    /// Per-class p99 targets the run is judged against.
    pub slo: SloTargets,
}

impl QosTestConfig {
    /// The standard mixed-priority soak: three foreground tricklers
    /// with cache-resident working sets, three background flooders that
    /// overflow the cache, rotating mailbox-kill waves, maintenance on.
    pub fn standard(channels: u32) -> Self {
        let tenants = vec![
            TenantSpec::foreground(TenantId(1)).with_weight(4),
            TenantSpec::foreground(TenantId(2)).with_weight(4),
            TenantSpec::foreground(TenantId(3)).with_weight(2),
            TenantSpec::background(TenantId(4)),
            TenantSpec::background(TenantId(5)).with_quota(0, 10_000),
            TenantSpec::background(TenantId(6)).with_quota(32 * 1024 * 1024, 0),
        ];
        QosTestConfig {
            channels,
            tenants,
            pages: vec![8, 8, 8, 40, 40, 40],
            burst: vec![1, 1, 1, 4, 4, 4],
            write_percent: 50,
            seed: 0x0905_7E57,
            rounds: 240,
            wave_period_rounds: 40,
            // 1 initial attempt + 3 retransmits = 4 drops kill one
            // transaction; 8 also starves the first repair handshake.
            mailbox_kill: 8,
            slo: SloTargets {
                cached_p99: SimDuration::from_us(150.0),
                uncached_p99: SimDuration::from_us(1_000.0),
            },
        }
    }

    /// A shorter CI smoke variant: same shape, fewer rounds.
    pub fn smoke(channels: u32) -> Self {
        let mut c = Self::standard(channels);
        c.rounds = 100;
        c.wave_period_rounds = 25;
        c
    }

    fn shard_config() -> NvdimmCConfig {
        let mut cfg = NvdimmCConfig::small_for_tests();
        // Small cache so the background working sets overflow it while
        // the foreground sets fit under the priority floor; tight
        // retransmit budget so a wave's drops exhaust it quickly.
        cfg.cache_slots = 16;
        cfg.recovery.cp_timeout_windows = 64;
        cfg.recovery.cp_max_retransmits = 3;
        cfg
    }

    /// Runs the soak to completion.
    ///
    /// # Errors
    ///
    /// Propagates configuration and device-construction errors;
    /// per-request failures (degraded shards, CP timeouts) are part of
    /// the soak's recovery model and land in the report instead.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent config (mismatched parallel vectors,
    /// zero tenants or channels, working set beyond capacity).
    #[allow(clippy::too_many_lines)]
    pub fn run(&self) -> Result<QosReport, CoreError> {
        assert!(self.channels > 0, "no channels");
        assert!(!self.tenants.is_empty(), "no tenants");
        assert_eq!(self.tenants.len(), self.pages.len(), "pages mismatch");
        assert_eq!(self.tenants.len(), self.burst.len(), "burst mismatch");

        let shards = self.channels as usize;
        let map = InterleaveMap::new(self.channels, PAGE_BYTES)?;
        let mut devices = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut d = System::new(Self::shard_config())?;
            // Arm the CRC scrub machinery so maintenance slots verify
            // resident cache lines instead of no-opping.
            d.enable_scrub();
            devices.push(d);
        }
        let total_pages: u64 = self.pages.iter().sum();
        let capacity: u64 = devices.iter().map(BlockDevice::capacity_bytes).sum();
        assert!(
            total_pages * PAGE_BYTES <= capacity,
            "working set exceeds exported capacity"
        );

        let mut exec = ShardExecutor::new(shards, ExecutorConfig::default());
        exec.set_arbiter(Some(WfqArbiter::new(shards, &self.tenants)));
        let mut qos = QosEngine::new(&self.tenants);
        let mut maint = MaintenanceScheduler::new(shards);
        let mut rng = DeterministicRng::new(self.seed).fork(0x0905);

        // Tenant regions are disjoint page ranges, so cross-tenant
        // interference is purely through shared rings and cache.
        let mut region_base = Vec::with_capacity(self.tenants.len());
        let mut base = 0u64;
        for pages in &self.pages {
            region_base.push(base);
            base += pages;
        }

        let mut report = QosReport::new(self);
        let mut hists: Vec<Histogram> = self.tenants.iter().map(|_| Histogram::new()).collect();
        // Submit instant per in-flight sequence number: latency is the
        // device completion clock minus it.
        let mut submitted_at: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut payload = vec![0u8; PAGE_BYTES as usize];
        let mut waves = 0u64;

        let fold = |report: &mut QosReport,
                    hists: &mut [Histogram],
                    submitted_at: &mut BTreeMap<u64, SimTime>,
                    qos: &mut QosEngine,
                    done: Vec<nvdimmc_core::Completion>| {
            for c in done {
                let ti = self
                    .tenants
                    .iter()
                    .position(|s| s.id == c.tenant)
                    .unwrap_or(0);
                let from = submitted_at.remove(&c.seq);
                report.digest = fnv_fold(
                    report.digest,
                    c.seq ^ u64::from(c.tenant.0) << 48 ^ c.end.as_ps(),
                );
                if c.error.is_some() {
                    qos.note_failed(c.tenant);
                    report.ops_failed += 1;
                } else {
                    qos.note_completed(c.tenant);
                    report.ops_completed += 1;
                    if let Some(at) = from {
                        hists[ti].record(c.end.saturating_since(at));
                    }
                }
            }
        };

        for round in 0..self.rounds {
            if self.wave_period_rounds > 0
                && round > 0
                && round.is_multiple_of(self.wave_period_rounds)
            {
                let victim = (waves % u64::from(self.channels)) as usize;
                for _ in 0..self.mailbox_kill {
                    devices[victim].inject_fault(FaultKind::AckDrop);
                }
                waves += 1;
            }
            let now = devices
                .iter()
                .map(BlockDevice::now)
                .max()
                .unwrap_or(SimTime::ZERO);
            let mut moved = false;
            for (ti, spec) in self.tenants.iter().enumerate() {
                for _ in 0..self.burst[ti] {
                    let page = region_base[ti] + rng.gen_range(0..self.pages[ti]);
                    let off = page * PAGE_BYTES;
                    let write = rng.gen_range(0..100) < u64::from(self.write_percent);
                    if write {
                        rng.fill_bytes(&mut payload);
                    }
                    if qos.admit(spec.id, PAGE_BYTES, now).is_err() {
                        report.ops_throttled += 1;
                        continue;
                    }
                    let (kind, data): (_, &[u8]) = if write {
                        (ReqKind::Write, &payload)
                    } else {
                        (ReqKind::Read, &[])
                    };
                    let res =
                        exec.submit(&map, spec.id, ti as u32, kind, off, PAGE_BYTES, now, data);
                    match res {
                        Ok(subs) => {
                            moved = true;
                            for s in subs {
                                submitted_at.insert(s.seq, now);
                            }
                        }
                        Err(CoreError::Overloaded { .. }) => {
                            qos.note_shed(spec.id);
                            report.ops_shed += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            // Due maintenance slots seen while the rings are loaded are
            // preempted (rescheduled one interval out), never run ahead
            // of foreground work.
            maint.run_due(&mut devices, now, |s| exec.pending(s));
            let done = exec.dispatch(&mut devices);
            moved |= !done.is_empty();
            fold(&mut report, &mut hists, &mut submitted_at, &mut qos, done);
            // Maintenance gets whatever idle windows the round left.
            let after = devices
                .iter()
                .map(BlockDevice::now)
                .max()
                .unwrap_or(SimTime::ZERO);
            maint.run_due(&mut devices, after, |s| exec.pending(s));
            if !moved {
                // Every tenant throttled and nothing in flight: push the
                // clocks forward so buckets refill and calendars fire.
                for d in &mut devices {
                    d.advance(MaintenanceScheduler::INTERVAL);
                }
            }
        }

        // Drain every ring, then give maintenance the idle tail until
        // no shard is left degraded (bounded sweeps).
        while exec.has_pending() {
            let done = exec.dispatch(&mut devices);
            fold(&mut report, &mut hists, &mut submitted_at, &mut qos, done);
        }
        for _ in 0..64 {
            if devices.iter().all(|d| !d.is_degraded()) {
                break;
            }
            let now = devices
                .iter()
                .map(BlockDevice::now)
                .max()
                .unwrap_or(SimTime::ZERO)
                + MaintenanceScheduler::INTERVAL;
            maint.run_due(&mut devices, now, |_| 0);
            for d in &mut devices {
                let target = now.saturating_since(d.now());
                d.advance(target);
            }
        }

        report.waves = waves;
        report.maint = maint.total_stats();
        report.degraded_at_end = devices.iter().filter(|d| d.is_degraded()).count() as u64;
        report.snapshot = qos.snapshot();
        for (ti, spec) in self.tenants.iter().enumerate() {
            let stats = qos.stats(spec.id).unwrap_or_default();
            let target = self.slo.for_class(spec.slo);
            let h = &hists[ti];
            report.tenants.push(TenantReport {
                id: spec.id,
                priority: spec.priority,
                class: spec.slo,
                target,
                completed: stats.completed,
                failed: stats.failed,
                throttled: stats.throttled,
                shed: stats.shed,
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
                max: h.max(),
                slo_breached: h.count() > 0 && h.percentile(99.0) > target,
                starved: (stats.admitted > 0 && stats.completed == 0) || stats.inflight() > 0,
            });
        }
        Ok(report)
    }
}

/// One tenant's end-of-run scorecard.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant identity.
    pub id: TenantId,
    /// Cache-priority class.
    pub priority: Priority,
    /// Latency class the SLO is judged against.
    pub class: SloClass,
    /// The p99 target for that class.
    pub target: SimDuration,
    /// Requests completed without error.
    pub completed: u64,
    /// Requests that surfaced a device error (degraded shard, CP
    /// timeout) — part of the fault-wave model, not SLO samples.
    pub failed: u64,
    /// Requests denied by the tenant's token buckets.
    pub throttled: u64,
    /// Requests shed at a full ring after admission.
    pub shed: u64,
    /// Median completion latency.
    pub p50: SimDuration,
    /// 99th-percentile completion latency.
    pub p99: SimDuration,
    /// Worst completion latency.
    pub max: SimDuration,
    /// True when p99 exceeded the class target.
    pub slo_breached: bool,
    /// True when the tenant was admitted but never served, or still had
    /// requests in flight after the drain.
    pub starved: bool,
}

/// The multi-tenant soak result.
#[derive(Debug, Clone)]
pub struct QosReport {
    /// Soak rounds executed.
    pub rounds: u64,
    /// Mailbox-kill waves injected.
    pub waves: u64,
    /// Requests completed without error (all tenants).
    pub ops_completed: u64,
    /// Requests that surfaced a device error.
    pub ops_failed: u64,
    /// Requests denied at admission by a token bucket.
    pub ops_throttled: u64,
    /// Requests shed at a full ring.
    pub ops_shed: u64,
    /// Shards still degraded after the final maintenance sweeps.
    pub degraded_at_end: u64,
    /// Summed maintenance counters.
    pub maint: MaintStats,
    /// Per-tenant scorecards, in config order.
    pub tenants: Vec<TenantReport>,
    /// The final QoS engine snapshot (input to `check::qos`).
    pub snapshot: QosSnapshot,
    /// FNV fold over every completion `(seq, tenant, end)` — the
    /// bit-identity probe for same-seed reruns.
    pub digest: u64,
}

impl QosReport {
    fn new(cfg: &QosTestConfig) -> Self {
        QosReport {
            rounds: cfg.rounds,
            waves: 0,
            ops_completed: 0,
            ops_failed: 0,
            ops_throttled: 0,
            ops_shed: 0,
            degraded_at_end: 0,
            maint: MaintStats::default(),
            tenants: Vec::new(),
            snapshot: QosSnapshot::default(),
            digest: FNV_OFFSET,
        }
    }

    /// Foreground tenants whose p99 exceeded their class target.
    pub fn foreground_breaches(&self) -> Vec<TenantId> {
        self.tenants
            .iter()
            .filter(|t| t.priority == Priority::Foreground && t.slo_breached)
            .map(|t| t.id)
            .collect()
    }

    /// Tenants that were starved (admitted but never served, or left in
    /// flight after the drain).
    pub fn starved(&self) -> Vec<TenantId> {
        self.tenants
            .iter()
            .filter(|t| t.starved)
            .map(|t| t.id)
            .collect()
    }
}
