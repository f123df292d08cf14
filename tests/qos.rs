//! End-to-end tests for multi-tenant QoS: per-tenant isolation,
//! SLO-aware shedding, and self-managing maintenance under fault waves.
//!
//! - the standard multi-tenant soak runs mixed-priority tenants with
//!   rotating dead-mailbox waves and continuous background maintenance,
//!   and ends with zero foreground p99 SLO breaches, no starved tenant,
//!   no shard left degraded, and a clean `check::qos` audit;
//! - the same seed reproduces the same completion digest bit-exactly;
//! - maintenance slots are preempted while foreground work is queued
//!   and run in idle windows otherwise;
//! - tenancy rides every completion on the executor path;
//! - properties: token buckets conserve tokens under arbitrary
//!   take/refill interleavings, and weighted-fair dequeue never starves
//!   a tenant (its first request's position is bounded by the batch's
//!   tenant count, not the batch length).

use nvdimmc::check::check_qos;
use nvdimmc::core::{
    ExecutorConfig, InterleaveMap, MaintenanceScheduler, NvdimmCConfig, ReqKind, ShardExecutor,
    ShardRequest, System, TenantId, TenantSpec, TokenBucket, WfqArbiter, PAGE_BYTES,
};
use nvdimmc::sim::{SimDuration, SimTime};
use nvdimmc::workloads::QosTestConfig;
use proptest::prelude::*;

#[test]
fn multi_tenant_soak_holds_slos_under_fault_waves() {
    let cfg = QosTestConfig::standard(4);
    let report = cfg.run().unwrap();

    // The soak actually exercised everything it claims to:
    assert!(report.waves >= 4, "only {} fault waves ran", report.waves);
    assert!(report.ops_completed > 1000, "soak barely ran: {report:?}");
    assert!(
        report.ops_throttled > 0,
        "quotas never throttled anyone — buckets not exercised"
    );
    assert!(
        report.maint.steps > 0 && report.maint.scrub_slots > 0,
        "maintenance never ran: {:?}",
        report.maint
    );
    assert!(
        report.maint.repairs_completed > 0,
        "no wave-degraded shard was repaired by maintenance: {:?}",
        report.maint
    );

    // The acceptance bars: no foreground SLO breach, nobody starved,
    // no shard left degraded, conservation clean.
    assert_eq!(
        report.foreground_breaches(),
        Vec::<TenantId>::new(),
        "foreground p99 SLO breached: {:#?}",
        report.tenants
    );
    assert_eq!(
        report.starved(),
        Vec::<TenantId>::new(),
        "starved tenants: {:#?}",
        report.tenants
    );
    assert_eq!(report.degraded_at_end, 0, "shards left degraded");
    let diags = check_qos(&report.snapshot);
    assert!(diags.is_empty(), "qos audit: {diags:?}");
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    let cfg = QosTestConfig::smoke(2);
    let a = cfg.run().unwrap();
    let b = cfg.run().unwrap();
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.ops_completed, b.ops_completed);
    assert_eq!(a.ops_throttled, b.ops_throttled);
    assert_eq!(a.maint, b.maint);
}

#[test]
fn maintenance_is_preempted_by_foreground_pressure() {
    let mut devices = vec![System::new(NvdimmCConfig::small_for_tests()).unwrap()];
    devices[0].enable_scrub();
    let mut maint = MaintenanceScheduler::new(1);
    let due = SimTime::ZERO + MaintenanceScheduler::INTERVAL;

    // Queue depth 3: the due slot must yield, not run.
    let ran = maint.run_due(&mut devices, due, |_| 3);
    assert_eq!(ran, 0);
    assert_eq!(maint.stats(0).preemptions, 1);
    assert_eq!(maint.stats(0).steps, 0);

    // The yielded slot was pushed one interval out; with the queue
    // drained it runs there.
    let ran = maint.run_due(&mut devices, due + MaintenanceScheduler::INTERVAL, |_| 0);
    assert_eq!(ran, 1);
    assert_eq!(maint.stats(0).steps, 1);
}

#[test]
fn tenancy_rides_every_completion() {
    let map = InterleaveMap::new(2, PAGE_BYTES).unwrap();
    let mut devices = vec![
        System::new(NvdimmCConfig::small_for_tests()).unwrap(),
        System::new(NvdimmCConfig::small_for_tests()).unwrap(),
    ];
    let mut exec = ShardExecutor::new(2, ExecutorConfig::default());
    let tenant = TenantId(7);
    let data = vec![0x5Au8; PAGE_BYTES as usize];
    let (read, write, t0) = (ReqKind::Read, ReqKind::Write, SimTime::ZERO);
    exec.submit(&map, tenant, 0, write, 0, PAGE_BYTES, t0, &data)
        .unwrap();
    exec.submit(&map, tenant, 0, read, PAGE_BYTES, PAGE_BYTES, t0, &[])
        .unwrap();
    // The host tenant rides through the same call.
    exec.submit(
        &map,
        TenantId::HOST,
        0,
        read,
        2 * PAGE_BYTES,
        PAGE_BYTES,
        t0,
        &[],
    )
    .unwrap();
    let done = exec.dispatch(&mut devices);
    assert_eq!(done.len(), 3);
    let mut tenants: Vec<TenantId> = done.iter().map(|c| c.tenant).collect();
    tenants.sort();
    assert_eq!(tenants, vec![TenantId::HOST, tenant, tenant]);
}

#[test]
fn wfq_arbiter_defaults_leave_the_executor_untouched() {
    // An executor with no arbiter and one with an arbiter but a single
    // (host) tenant must produce identical completion orders.
    let map = InterleaveMap::new(1, PAGE_BYTES).unwrap();
    let run = |arbiter: bool| {
        let mut devices = vec![System::new(NvdimmCConfig::small_for_tests()).unwrap()];
        let mut exec = ShardExecutor::new(1, ExecutorConfig::default());
        if arbiter {
            exec.set_arbiter(Some(WfqArbiter::new(1, &[])));
        }
        for i in 0..8u64 {
            exec.submit(
                &map,
                TenantId::HOST,
                0,
                ReqKind::Read,
                (i % 4) * PAGE_BYTES,
                PAGE_BYTES,
                SimTime::ZERO,
                &[],
            )
            .unwrap();
        }
        exec.dispatch(&mut devices)
            .into_iter()
            .map(|c| (c.seq, c.end))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}

proptest! {
    /// Token conservation: under arbitrary interleavings of takes and
    /// clock advances, `granted = consumed + expired + residual` holds
    /// at every step, and a bucket never goes negative.
    #[test]
    fn token_bucket_conserves_tokens(
        rate in prop_oneof![Just(0u64), 1_000u64..2_000_000],
        capacity in 1u64..100_000,
        ops in proptest::collection::vec((0u64..10_000, 1u64..8_192), 1..200),
    ) {
        let mut bucket = TokenBucket::new(rate, capacity);
        let mut now = SimTime::ZERO;
        let mut taken = 0u64;
        for (advance_ns, n) in ops {
            now += SimDuration::from_ns(advance_ns);
            if bucket.try_take(now, n).is_ok() {
                taken += n;
            }
            let l = bucket.ledger();
            prop_assert!(l.balanced(), "unbalanced: {l:?}");
            prop_assert_eq!(l.consumed, if rate == 0 { 0 } else { taken });
            prop_assert!(l.residual <= capacity.max(1));
        }
    }

    /// No starvation: whatever the batch composition and weights, every
    /// tenant's *first* request lands within the first `tenants` slots
    /// of the reordered batch — a flood from one tenant cannot push
    /// another tenant's head request arbitrarily far back.
    #[test]
    fn wfq_never_starves_a_tenant(
        weights in proptest::collection::vec(1u32..8, 2..5),
        floods in proptest::collection::vec(1u64..12, 2..5),
        seed in any::<u64>(),
    ) {
        let n = weights.len().min(floods.len());
        let specs: Vec<TenantSpec> = (0..n)
            .map(|i| {
                let id = TenantId(i as u16 + 1);
                if i % 2 == 0 {
                    TenantSpec::foreground(id).with_weight(weights[i])
                } else {
                    TenantSpec::background(id).with_weight(weights[i])
                }
            })
            .collect();
        let mut arb = WfqArbiter::new(1, &specs);
        // Interleave each tenant's flood deterministically from the seed.
        let mut batch: Vec<ShardRequest> = Vec::new();
        let mut remaining: Vec<u64> = floods[..n].to_vec();
        let mut seq = 0u64;
        let mut state = seed;
        while remaining.iter().any(|&r| r > 0) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % n;
            if remaining[pick] == 0 {
                continue;
            }
            remaining[pick] -= 1;
            batch.push(ShardRequest {
                seq,
                tenant: TenantId(pick as u16 + 1),
                thread: 0,
                kind: ReqKind::Read,
                local_offset: seq * PAGE_BYTES,
                len: PAGE_BYTES,
                not_before: SimTime::ZERO,
                data: Vec::new(),
            });
            seq += 1;
        }
        let present: Vec<TenantId> = {
            let mut ids: Vec<TenantId> = batch.iter().map(|r| r.tenant).collect();
            ids.dedup();
            ids.sort();
            ids.dedup();
            ids
        };
        arb.order(0, &mut batch);
        for id in present {
            let pos = batch.iter().position(|r| r.tenant == id).unwrap();
            // SFQ bound: requests ahead of tenant i's head (tag c/w_i)
            // number at most ceil(w_j/w_i) per other tenant j —
            // weight-proportional, independent of any flood's length.
            let wi = weights[usize::from(id.0) - 1];
            let bound: u32 = (0..n)
                .filter(|&j| j != usize::from(id.0) - 1)
                .map(|j| weights[j].div_ceil(wi))
                .sum();
            prop_assert!(
                pos <= bound as usize,
                "tenant {id} first served at {pos} (bound {bound}) in a {}-tenant batch of {}",
                n,
                batch.len()
            );
        }
        // FIFO within each tenant is preserved.
        for i in 0..n {
            let id = TenantId(i as u16 + 1);
            let seqs: Vec<u64> = batch.iter().filter(|r| r.tenant == id).map(|r| r.seq).collect();
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "FIFO broken for {id}");
        }
    }
}

/// Background tenants cannot evict a foreground tenant's hot slots:
/// drive a foreground working set resident, then churn a background
/// set twice the cache size through the same shard — every foreground
/// page must still hit DRAM afterwards.
#[test]
fn background_churn_cannot_evict_foreground_hot_set() {
    let mut cfg = NvdimmCConfig::small_for_tests();
    cfg.cache_slots = 8;
    let map = InterleaveMap::new(1, PAGE_BYTES).unwrap();
    let mut devices = vec![System::new(cfg).unwrap()];
    let mut exec = ShardExecutor::new(1, ExecutorConfig::default());
    let fg = TenantSpec::foreground(TenantId(1));
    let bg = TenantSpec::background(TenantId(2));
    exec.set_arbiter(Some(WfqArbiter::new(1, &[fg, bg])));

    // Foreground makes 4 pages hot.
    for page in 0..4u64 {
        exec.submit(
            &map,
            TenantId(1),
            0,
            ReqKind::Read,
            page * PAGE_BYTES,
            PAGE_BYTES,
            SimTime::ZERO,
            &[],
        )
        .unwrap();
        exec.dispatch(&mut devices);
    }
    // Background churns 16 distinct pages through the 8-slot cache.
    for page in 4..20u64 {
        exec.submit(
            &map,
            TenantId(2),
            1,
            ReqKind::Read,
            page * PAGE_BYTES,
            PAGE_BYTES,
            SimTime::ZERO,
            &[],
        )
        .unwrap();
        exec.dispatch(&mut devices);
    }
    // Every foreground page is still resident: a re-read is a DRAM hit
    // (orders of magnitude under the Z-NAND fault path).
    let hits_before = devices[0].cache_stats().hits;
    for page in 0..4u64 {
        exec.submit(
            &map,
            TenantId(1),
            0,
            ReqKind::Read,
            page * PAGE_BYTES,
            PAGE_BYTES,
            SimTime::ZERO,
            &[],
        )
        .unwrap();
        let done = exec.dispatch(&mut devices);
        assert!(done[0].error.is_none());
    }
    let hits_after = devices[0].cache_stats().hits;
    assert_eq!(
        hits_after - hits_before,
        4,
        "foreground hot set was evicted by background churn"
    );
}

#[test]
fn smoke_report_is_printable() {
    // Keep a human-readable summary in CI logs (`--nocapture`).
    let report = QosTestConfig::smoke(2).run().unwrap();
    for t in &report.tenants {
        println!(
            "{} {:?}/{:?} completed={} failed={} throttled={} shed={} \
             p50={} p99={} (target {}) breached={} starved={}",
            t.id,
            t.priority,
            t.class,
            t.completed,
            t.failed,
            t.throttled,
            t.shed,
            t.p50,
            t.p99,
            t.target,
            t.slo_breached,
            t.starved
        );
    }
    println!(
        "waves={} completed={} failed={} throttled={} shed={} maint={:?} digest={:016x}",
        report.waves,
        report.ops_completed,
        report.ops_failed,
        report.ops_throttled,
        report.ops_shed,
        report.maint,
        report.digest
    );
    assert!(check_qos(&report.snapshot).is_empty());
}
