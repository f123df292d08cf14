//! End-to-end tests for the shard health state machine: online repair,
//! front-end failover, and soak-level service guarantees.
//!
//! - a dead CP mailbox degrades one shard; an explicit repair quiesces
//!   it, re-handshakes the mailbox, scrubs the cache and re-admits it
//!   after a clean audit — the first attempt is deliberately starved so
//!   the interrupted-rebuild restart path runs too;
//! - with `FailoverPolicy::auto()` the front-end performs the same
//!   repair inline: after the one operation that discovers the dead
//!   mailbox, service continues with no manual intervention;
//! - rebuild transitions and post-rebuild read-back are bit-identical
//!   across same-seed reruns, on one and on four channels;
//! - a full soak that kills the mailbox of every channel in rotation
//!   ends with zero permanently degraded shards, every rebuild audited
//!   clean, byte-exact oracle read-back, and a bit-identical rerun;
//! - the bus traces of a soak — re-handshake probes and CRC scrubs
//!   inside refresh windows included — pass the full timing/race/refresh
//!   verifier on every shard;
//! - property: whatever the armed fault count, a shard is only ever
//!   re-admitted on the back of a rebuild report with a clean ledger.

use nvdimmc::check::{check_recovery, check_shards, check_system_health};
use nvdimmc::core::{
    BlockDevice, CoreError, CpOpcode, DegradeReason, FailoverPolicy, FaultKind, HealthState,
    MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, PAGE_BYTES,
};
use nvdimmc::workloads::FaultCampaign;
use proptest::prelude::*;

fn page(byte: u8) -> Vec<u8> {
    vec![byte; PAGE_BYTES as usize]
}

/// A 4-channel system with a small cache and a tight retransmit budget,
/// as in the PR 4 dead-mailbox test.
fn small_system(channels: u32, failover: FailoverPolicy) -> MultiChannelSystem {
    let mut shard = NvdimmCConfig::small_for_tests();
    shard.cache_slots = 16;
    shard.recovery.cp_timeout_windows = 64;
    shard.recovery.cp_max_retransmits = 3;
    MultiChannelSystem::new(MultiChannelConfig::new(shard, channels).with_failover(failover))
        .unwrap()
}

/// Writes shard-2 pages until the dead mailbox surfaces a `CpTimeout`,
/// leaving the shard degraded. Returns the index of the failing write.
fn degrade_shard_2(sys: &mut MultiChannelSystem) -> u64 {
    for _ in 0..8 {
        assert!(sys.shards_mut()[2].inject_fault(FaultKind::AckDrop));
    }
    for i in 0..20u64 {
        let p = 2 + 4 * i;
        match sys.write_at(p * PAGE_BYTES, &page(0x55)) {
            Ok(_) => {}
            Err(CoreError::CpTimeout { attempts: 4 }) => return i,
            other => panic!("expected CpTimeout, got {other:?}"),
        }
    }
    panic!("mailbox never died");
}

#[test]
fn explicit_repair_readmits_a_dead_mailbox_shard() {
    let mut sys = small_system(4, FailoverPolicy::default());
    degrade_shard_2(&mut sys);
    assert_eq!(sys.degraded_shards().len(), 1);

    // Eight drops were armed and the victim transaction consumed four:
    // the first repair's handshake probe is starved by the remaining
    // four and the rebuild restarts deterministically.
    match sys.repair_shard(2) {
        Err(CoreError::CpTimeout { attempts: 4 }) => {}
        other => panic!("expected the first rebuild to be starved, got {other:?}"),
    }
    assert_eq!(
        sys.degraded_shards().len(),
        1,
        "still out after a failed rebuild"
    );

    let report = sys.repair_shard(2).expect("second rebuild");
    assert!(report.readmitted);
    assert!(report.handshake_ok);
    report.audit().expect("clean rebuild ledger");
    assert!(sys.degraded_shards().is_empty());

    // The shard serves again, and what it serves is correct.
    let mut buf = page(0);
    sys.write_at(2 * PAGE_BYTES, &page(0x66)).unwrap();
    sys.read_at(2 * PAGE_BYTES, &mut buf).unwrap();
    assert_eq!(buf, page(0x66));

    // The recorded lifecycle passes the independent auditors.
    let diags = check_system_health(&sys);
    assert!(diags.is_empty(), "{diags:?}");
    let s = sys.recovery_stats();
    assert_eq!(s.rebuilds_started, 2, "{s:?}");
    assert_eq!(s.rebuilds_completed, 1, "{s:?}");
    assert_eq!(s.rebuilds_failed, 1, "{s:?}");
    let diags = check_recovery(&s);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn auto_failover_repairs_inline_and_service_continues() {
    let mut sys = small_system(4, FailoverPolicy::auto());
    let failed_at = degrade_shard_2(&mut sys);

    // No manual repair: the very next shard-2 write triggers the
    // failover path, which burns one starved rebuild, completes the
    // second, and serves the write — all inside one call.
    for i in failed_at..20u64 {
        let p = 2 + 4 * i;
        sys.write_at(p * PAGE_BYTES, &page(0x77))
            .expect("auto-repair should absorb the degradation");
    }
    assert!(sys.degraded_shards().is_empty());
    assert!(sys.health().iter().all(HealthState::is_healthy));

    let mut buf = page(0);
    for i in failed_at..20u64 {
        let p = 2 + 4 * i;
        sys.read_at(p * PAGE_BYTES, &mut buf).unwrap();
        assert_eq!(buf, page(0x77), "page {p} wrong after inline repair");
    }

    let s = sys.recovery_stats();
    assert_eq!(s.rebuilds_started, 2, "{s:?}");
    assert_eq!(s.rebuilds_completed, 1, "{s:?}");
    let diags = check_system_health(&sys);
    assert!(diags.is_empty(), "{diags:?}");
    let diags = check_recovery(&s);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn rebuild_transitions_are_bit_identical_across_reruns() {
    for channels in [1u32, 4] {
        let soak = FaultCampaign::dead_mailbox_smoke(channels);
        let (r1, _, s1) = soak.run_full(false).expect("soak");
        let (r2, _, s2) = soak.run_full(false).expect("soak");
        assert_eq!(r1, r2, "{channels}-channel soak report diverged");
        assert_eq!(
            s1.health_logs(),
            s2.health_logs(),
            "{channels}-channel health transitions diverged"
        );
        assert_eq!(
            s1.rebuild_reports(),
            s2.rebuild_reports(),
            "{channels}-channel rebuild ledgers diverged"
        );
        assert!(r1.recovery.rebuilds_completed > 0, "soak never rebuilt");
    }
}

#[test]
fn soak_with_dead_mailbox_on_every_channel_ends_clean() {
    let cfg = FaultCampaign::dead_mailbox(4);
    let (report, _, sys) = cfg.run_full(false).expect("soak");

    assert!(
        report.waves >= 4,
        "waves must rotate over all channels: {report:?}"
    );
    assert_eq!(report.degraded_at_end, 0, "{report:?}");
    assert_eq!(report.oracle_mismatches, 0, "{report:?}");
    assert_eq!(report.rejected_write_leaks, 0, "{report:?}");
    assert!(report.availability() > 0.9, "{report:?}");
    assert!(
        report.impaired.p99 >= report.healthy.p99,
        "repair time must land on impaired ops: {report:?}"
    );

    // Every shard was degraded and re-admitted at least once.
    for (i, log) in sys.health_logs().iter().enumerate() {
        assert!(
            log.iter()
                .any(|t| t.from.is_rebuilding() && t.to.is_healthy()),
            "shard {i} never completed a rebuild: {log:?}"
        );
    }

    // Independent audits: legal transitions, clean re-admissions, and a
    // balanced recovery ledger.
    let diags = check_system_health(&sys);
    assert!(diags.is_empty(), "{diags:?}");
    let diags = check_recovery(&report.recovery);
    assert!(diags.is_empty(), "{diags:?}");

    // Same seed, same soak, bit for bit.
    let rerun = cfg.run().expect("soak rerun");
    assert_eq!(report, rerun, "same-seed soak diverged");
}

#[test]
fn soak_repair_traffic_passes_the_bus_verifier() {
    let (report, epochs, _) = FaultCampaign::dead_mailbox_smoke(2)
        .run_full(true)
        .expect("soak");
    assert!(report.recovery.rebuilds_completed > 0, "soak never rebuilt");
    // No power faults in a soak: the whole run is one boot epoch.
    assert_eq!(epochs.len(), 1, "unexpected power cycle");
    let timing = NvdimmCConfig::small_for_tests().timing;
    for (e, epoch) in epochs.iter().enumerate() {
        for (shard, rep) in check_shards(epoch, &timing).iter().enumerate() {
            assert!(!epoch[shard].is_empty(), "shard {shard} captured nothing");
            assert!(rep.is_clean(), "epoch {e} shard {shard} dirty:\n{rep}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the armed fault count, a shard is only re-admitted with
    /// a clean rebuild ledger — and a shard that cannot complete its
    /// rebuild stays out.
    #[test]
    fn readmission_requires_a_clean_ledger(drops in 0u32..12, seed in 0u64..4) {
        let mut shard = NvdimmCConfig::small_for_tests();
        shard.cache_slots = 16;
        shard.recovery.cp_timeout_windows = 64;
        shard.recovery.cp_max_retransmits = 3;
        shard.seed = shard.seed.wrapping_add(seed);
        let mut sys = MultiChannelSystem::new(MultiChannelConfig::single(shard)).unwrap();
        for _ in 0..drops {
            sys.shards_mut()[0].inject_fault(FaultKind::AckDrop);
        }
        // Enough traffic to overflow the 16-slot cache and exercise the
        // armed drops; errors are expected once the budget dies.
        for p in 0..40u64 {
            let _ = sys.write_at((p % 24) * PAGE_BYTES, &page(p as u8));
        }
        for _ in 0..4 {
            match sys.repair_shard(0) {
                Ok(report) => {
                    prop_assert!(report.readmitted);
                    prop_assert!(report.audit().is_ok());
                    prop_assert!(sys.health()[0].is_healthy());
                }
                Err(_) => {
                    // Not degraded (nothing to repair) or the rebuild
                    // failed: either way the shard must not be serving
                    // half-repaired.
                    let last = sys.rebuild_reports()[0].last().cloned();
                    if sys.health()[0].is_degraded() {
                        if let Some(r) = last {
                            prop_assert!(!r.readmitted || r.audit().is_ok());
                        }
                    }
                }
            }
        }
        let diags = check_system_health(&sys);
        prop_assert!(diags.is_empty(), "{:?}", diags);
    }
}

/// Writes `shard`-owned pages (4-channel, page-granular interleave)
/// until the armed ack drops surface a `CpTimeout`, leaving the shard
/// degraded.
fn degrade_shard(sys: &mut MultiChannelSystem, shard: u64, drops: u32) {
    for _ in 0..drops {
        assert!(sys.shards_mut()[shard as usize].inject_fault(FaultKind::AckDrop));
    }
    for i in 0..20u64 {
        let p = shard + 4 * i;
        match sys.write_at(p * PAGE_BYTES, &page(0x55)) {
            Ok(_) => {}
            Err(CoreError::CpTimeout { .. }) => return,
            other => panic!("expected CpTimeout, got {other:?}"),
        }
    }
    panic!("mailbox never died");
}

#[test]
fn degraded_shards_reports_through_an_in_flight_repair() {
    let mut sys = small_system(4, FailoverPolicy::default());
    // Eight drops: four kill the victim transaction, four starve the
    // first repair's handshake probe mid-rebuild.
    degrade_shard(&mut sys, 2, 8);

    let before = sys.degraded_shards();
    assert_eq!(before.len(), 1);
    let (idx, reason, since) = before[0];
    assert_eq!(idx, 2);
    assert!(
        matches!(reason, DegradeReason::CpExhausted { .. }),
        "{reason:?}"
    );

    // The first repair attempt is interrupted in flight; the shard must
    // still be reported out of service — with the *fresh* reason and a
    // later timestamp, not the pre-repair entry.
    assert!(sys.repair_shard(2).is_err());
    let during = sys.degraded_shards();
    assert_eq!(during.len(), 1, "shard vanished from the degraded list");
    let (idx, reason, resince) = during[0];
    assert_eq!(idx, 2);
    // The fresh entry names the starved re-handshake (the Probe
    // transaction exhausting its budget), not the original write.
    assert!(
        matches!(
            reason,
            DegradeReason::RebuildInterrupted
                | DegradeReason::CpExhausted {
                    opcode: CpOpcode::Probe,
                    ..
                }
        ),
        "reason not refreshed by the aborted rebuild: {reason:?}"
    );
    assert!(resince > since, "degradation timestamp did not advance");
    // The interrupted attempt is on the ledger and was not re-admitted.
    let last = sys.rebuild_reports()[2].last().cloned().unwrap();
    assert!(!last.readmitted);

    // The second attempt completes; the report empties.
    sys.repair_shard(2).unwrap();
    assert!(sys.degraded_shards().is_empty());
    let diags = check_system_health(&sys);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn concurrent_rebuilds_readmit_in_index_order() {
    let mut sys = small_system(4, FailoverPolicy::default());
    // Degrade out of index order (3 before 1), four drops each so both
    // repairs succeed first try.
    degrade_shard(&mut sys, 3, 4);
    degrade_shard(&mut sys, 1, 4);
    let degraded: Vec<usize> = sys.degraded_shards().iter().map(|d| d.0).collect();
    assert_eq!(degraded, vec![1, 3], "degraded list not index-ordered");

    // One sweep repairs both; re-admission follows index order, not
    // degradation order.
    let readmitted = sys.repair_degraded().unwrap();
    assert_eq!(readmitted, vec![1, 3]);
    assert!(sys.health().iter().all(HealthState::is_healthy));

    // Both shards earned re-admission with clean, audited ledgers.
    for idx in [1usize, 3] {
        let report = sys.rebuild_reports()[idx].last().cloned().unwrap();
        assert!(report.readmitted, "shard {idx} not re-admitted");
        report.audit().unwrap();
    }
    // Both serve again.
    let mut buf = page(0);
    for idx in [1u64, 3] {
        sys.write_at(idx * PAGE_BYTES, &page(0x99)).unwrap();
        sys.read_at(idx * PAGE_BYTES, &mut buf).unwrap();
        assert_eq!(buf, page(0x99));
    }
    let diags = check_system_health(&sys);
    assert!(diags.is_empty(), "{diags:?}");
    let diags = check_recovery(&sys.recovery_stats());
    assert!(diags.is_empty(), "{diags:?}");
}
