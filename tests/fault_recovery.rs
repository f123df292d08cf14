//! End-to-end fault-injection and recovery tests:
//!
//! - a seeded 4-channel campaign mixing four fault classes ends with
//!   zero silent corruption, a balanced recovery ledger
//!   (`check_recovery`) and per-shard bus traces that pass the full
//!   timing/race/refresh verifier (`check_shards`);
//! - a 1-channel campaign exercises every recovery mechanism: the NAND
//!   read-retry ladder, CP-mailbox retransmit + ack replay, window-edge
//!   burst split/resume, and the cache scrub;
//! - the same seed reproduces the same campaign bit-exactly (full
//!   report equality, digest and final clock included);
//! - mid-operation power failures recover through one power cycle (the
//!   battery-backed dump, then the reboot from what the Z-NAND holds), and
//!   FPGA faults armed at the cut still fire in the next boot;
//! - persistent NAND poisoning surfaces a typed uncorrectable error
//!   without degrading the shard;
//! - a dead CP mailbox on one shard exhausts the retransmit budget,
//!   degrades that shard alone, and leaves the other three serving.

use nvdimmc::check::{check_recovery, check_shards, Severity};
use nvdimmc::core::{
    BlockDevice, CoreError, DegradeReason, FaultKind, MultiChannelConfig, MultiChannelSystem,
    NvdimmCConfig, System, PAGE_BYTES,
};
use nvdimmc::workloads::FaultCampaign;

fn page(byte: u8) -> Vec<u8> {
    vec![byte; PAGE_BYTES as usize]
}

#[test]
fn four_channel_campaign_recovers_and_traces_verify() {
    let campaign = FaultCampaign::recoverable(4);
    let (r, traces, _) = campaign.run_full(true).expect("campaign");

    // 1. No silent corruption, nothing surfaced, nothing degraded.
    assert_eq!(r.oracle_mismatches, 0, "silent corruption");
    assert_eq!(r.pages_excluded, 0, "recoverable mix surfaced a loss");
    assert_eq!(r.degraded_at_end, 0);

    // 2. Every scheduled fault fired and is accounted for.
    let s = &r.recovery;
    assert_eq!(s.faults_fired, s.faults_scheduled);
    assert_eq!(s.acks_dropped, 2);
    assert_eq!(s.acks_corrupted, 2);
    assert_eq!(s.overrun_stalls, 3);
    assert_eq!(s.slots_corrupted, 3);
    assert!(s.nand_faults_injected >= 3, "{s:?}");
    assert!(s.bursts_split >= s.overrun_stalls, "{s:?}");
    assert_eq!(s.bursts_split, s.bursts_resumed, "torn transfer");
    let diags = check_recovery(s);
    assert!(diags.is_empty(), "recovery ledger unbalanced: {diags:?}");

    // 3. Every shard's full bus trace passes the independent verifier:
    //    even mid-fault, no timing violation, no CA/DQ race, no NVMC
    //    command outside its refresh window. No power faults in this
    //    mix, so the whole campaign is one boot epoch.
    assert_eq!(traces.len(), 1, "unexpected power cycle");
    let epoch = &traces[0];
    assert_eq!(epoch.len(), 4);
    let timing = NvdimmCConfig::small_for_tests().timing;
    for (shard, rep) in check_shards(epoch, &timing).iter().enumerate() {
        assert!(!epoch[shard].is_empty(), "shard {shard} captured nothing");
        assert!(rep.is_clean(), "shard {shard} trace dirty:\n{rep}");
    }
}

#[test]
fn single_channel_campaign_exercises_every_recovery_path() {
    let r = FaultCampaign::recoverable(1).run().expect("campaign");
    assert_eq!(r.oracle_mismatches, 0, "silent corruption");
    let s = &r.recovery;
    // NAND read-retry ladder rescued the transient faults.
    assert!(s.nand_read_retries >= 1, "{s:?}");
    assert!(s.nand_retry_recovered >= 1, "{s:?}");
    // The mailbox recovered lost/corrupted acks via retransmit, and the
    // FPGA replayed the completed transaction instead of re-executing it.
    assert!(s.cp_attempt_timeouts >= 1, "{s:?}");
    assert!(s.cp_retransmits >= 1, "{s:?}");
    assert!(s.replayed_acks >= 1, "{s:?}");
    assert!(s.cp_recovered >= 1, "{s:?}");
    // Window overruns split bursts that later resumed.
    assert!(s.bursts_split >= 1, "{s:?}");
    assert_eq!(s.bursts_split, s.bursts_resumed);
    // The scrub saw the injected slot corruption and resolved it.
    assert!(s.scrub_detected >= 1, "{s:?}");
    assert_eq!(
        s.scrub_detected,
        s.scrub_refills + s.scrub_dropped_clean + s.cache_corruption_surfaced
    );
    assert_eq!(s.cp_transactions_failed, 0);
    assert_eq!(s.degraded_entries, 0);
}

#[test]
fn same_seed_campaign_is_bit_identical() {
    let campaign = FaultCampaign::recoverable(2);
    let a = campaign.run().expect("first run");
    let b = campaign.run().expect("second run");
    // Full-report equality: same counters, same recovery ledger, same
    // read-back digest, same final simulated clock.
    assert_eq!(a, b, "same-seed campaign diverged");
    // And a different seed really does change the outcome.
    let c = campaign.with_seed(0xD1FF_5EED).run().expect("third run");
    assert_ne!(a.final_clock, c.final_clock, "seed had no effect");
}

#[test]
fn power_failures_mid_campaign_recover_via_rebuild() {
    let campaign = FaultCampaign::recoverable(2).with_power_fails(2);
    let (r, epochs, _) = campaign.run_full(true).expect("campaign");
    let repro = campaign.repro(&r);
    assert_eq!(
        r.power_cycles, 2,
        "each scheduled power fail cycles once; {repro}"
    );
    assert_eq!(
        r.oracle_mismatches, 0,
        "data lost across a power cycle; {repro}"
    );
    let s = &r.recovery;
    assert_eq!(s.power_fails_fired, 2, "{repro}");
    assert_eq!(s.power_fails_recovered, 2, "{repro}");
    // The mailbox and window faults a reboot finds armed still fire in
    // the next boot: the same FPGA recoveries as the mix without cuts.
    assert_eq!(s.faults_fired, s.faults_scheduled, "{repro}");
    assert_eq!(s.acks_dropped, 2, "{s:?}; {repro}");
    assert_eq!(s.acks_corrupted, 2, "{s:?}; {repro}");
    assert_eq!(s.overrun_stalls, 3, "{s:?}; {repro}");
    let errors: Vec<_> = check_recovery(s)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "recovery ledger unbalanced: {errors:?}; {repro}"
    );
    // Each reboot restarts the simulated clock, so each boot epoch is a
    // standalone trace — and every one passes the full verifier.
    assert_eq!(epochs.len() as u64, r.power_cycles + 1, "{repro}");
    let timing = NvdimmCConfig::small_for_tests().timing;
    for (e, epoch) in epochs.iter().enumerate() {
        for (shard, rep) in check_shards(epoch, &timing).iter().enumerate() {
            assert!(
                rep.is_clean(),
                "epoch {e} shard {shard} dirty; {repro}:\n{rep}"
            );
        }
    }
}

#[test]
fn persistent_uncorrectable_surfaces_typed_error_without_degrading() {
    let mut cfg = NvdimmCConfig::small_for_tests();
    cfg.cache_slots = 16;
    let mut s = System::new(cfg).unwrap();

    // Write the victim page, then enough others that it is evicted to
    // Z-NAND and the NVMC write buffer drains to media.
    s.write_at(0, &page(0xAB)).unwrap();
    for p in 1..48u64 {
        s.write_at(p * PAGE_BYTES, &page(p as u8)).unwrap();
    }
    assert!(s.inject_fault(FaultKind::NandPersistent));

    // The cachefill's media read exhausts the whole retry ladder and the
    // FPGA nacks with the uncorrectable code — a typed loss, not a hang.
    let mut buf = page(0);
    match s.read_at(0, &mut buf) {
        Err(CoreError::MediaFailed { page, .. }) => assert_eq!(page, 0),
        other => panic!("expected MediaFailed, got {other:?}"),
    }
    let stats = s.recovery_stats();
    assert!(stats.nand_uncorrectable_surfaced >= 1, "{stats:?}");
    assert!(stats.nand_errors_nacked >= 1, "{stats:?}");
    // A delivered verdict is not a mailbox failure: the shard keeps
    // serving everything else.
    assert!(!s.is_degraded());
    s.read_at(47 * PAGE_BYTES, &mut buf).unwrap();
    assert_eq!(buf, page(47), "healthy page damaged by the poisoned one");
}

#[test]
fn dead_mailbox_degrades_one_shard_others_keep_serving() {
    let mut shard = NvdimmCConfig::small_for_tests();
    shard.cache_slots = 16;
    shard.recovery.cp_timeout_windows = 64;
    shard.recovery.cp_max_retransmits = 3;
    let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(shard, 4)).unwrap();

    // Kill shard 2's mailbox: more armed ack drops than the retransmit
    // budget (1 + 3 retries) can absorb.
    for _ in 0..8 {
        assert!(sys.shards_mut()[2].inject_fault(FaultKind::AckDrop));
    }

    // Pages 2, 6, 10, ... all land on shard 2; the 17th write overflows
    // its 16-slot cache and the eviction writeback needs the dead
    // mailbox.
    let mut failure = None;
    for i in 0..20u64 {
        let p = 2 + 4 * i;
        if let Err(e) = sys.write_at(p * PAGE_BYTES, &page(0x55)) {
            failure = Some((i, e));
            break;
        }
    }
    match failure {
        Some((i, CoreError::CpTimeout { attempts })) => {
            assert_eq!(attempts, 4, "1 initial attempt + 3 retransmits");
            assert_eq!(i, 16, "first eviction writeback should fail");
        }
        other => panic!("expected CpTimeout on shard 2, got {other:?}"),
    }

    // Exactly shard 2 is degraded and rejects further writes...
    let degraded = sys.degraded_shards();
    assert_eq!(degraded.len(), 1);
    assert_eq!(degraded[0].0, 2);
    assert!(
        matches!(
            degraded[0].1,
            DegradeReason::CpExhausted { attempts: 4, .. }
        ),
        "expected CP exhaustion after 4 attempts, got {:?}",
        degraded[0].1
    );
    match sys.write_at((2 + 4 * 17) * PAGE_BYTES, &page(0x66)) {
        Err(CoreError::DegradedShard { .. }) => {}
        other => panic!("expected DegradedShard, got {other:?}"),
    }
    // ...while the other three shards still serve reads and writes.
    let mut buf = page(0);
    for p in [0u64, 1, 3] {
        sys.write_at(p * PAGE_BYTES, &page(0x77)).unwrap();
        sys.read_at(p * PAGE_BYTES, &mut buf).unwrap();
        assert_eq!(buf, page(0x77), "healthy shard {p} misbehaved");
    }
    let s = sys.recovery_stats();
    assert_eq!(s.cp_transactions_failed, 1, "{s:?}");
    assert_eq!(s.degraded_entries, 1, "{s:?}");
    assert!(s.cp_attempt_timeouts >= 4, "{s:?}");
}

#[test]
fn long_retransmit_ladders_survive_a_mailbox_fault_storm() {
    // The nvdimmc-model checker's stale-ack counterexample, driven end
    // to end: with a 15-attempt retransmit ladder, attempt 15 of one
    // transaction reuses the 4-bit mailbox phase under which the
    // *previous* transaction's ack still sits in persistent DRAM. Under
    // phase-only ack matching the driver accepted that stale ack for a
    // writeback the FPGA never executed (the minimized schedule is
    // committed at tests/model_corpus/stale_ack_phase_alias.schedule);
    // the shipped protocol matches the ack's echoed sequence number
    // too. This campaign arms every mailbox fault class — mangled
    // command captures, dropped acks, corrupted acks — against
    // 15-attempt ladders and requires byte-exact data with a balanced
    // recovery ledger.
    use nvdimmc::core::RecoveryParams;
    let mut campaign = FaultCampaign::recoverable(1);
    campaign.faults = vec![
        (FaultKind::CmdCorrupt, 6),
        (FaultKind::AckDrop, 6),
        (FaultKind::AckCorrupt, 6),
    ];
    let campaign = campaign.with_recovery(RecoveryParams {
        cp_timeout_windows: 512,
        cp_max_retransmits: 14,
        cp_backoff: 1,
        ..RecoveryParams::default()
    });
    let r = campaign.run().expect("campaign");

    assert_eq!(r.oracle_mismatches, 0, "a stale ack reached the data path");
    assert_eq!(
        r.pages_excluded, 0,
        "mailbox faults must all be transparent"
    );
    assert_eq!(
        r.degraded_at_end, 0,
        "a 15-attempt ladder must outlast 1-shot faults"
    );
    let s = &r.recovery;
    assert_eq!(s.faults_fired, s.faults_scheduled, "{s:?}");
    assert_eq!(s.cmd_decode_failures, 6, "{s:?}");
    assert_eq!(s.acks_dropped, 6, "{s:?}");
    assert_eq!(s.acks_corrupted, 6, "{s:?}");
    // Every loss cost a visible attempt timeout and a retransmit; the
    // FPGA answered retransmits of executed commands by replaying the
    // ack (same txn key), never by re-executing.
    assert!(s.cp_attempt_timeouts >= 18, "{s:?}");
    assert!(s.cp_retransmits >= 18, "{s:?}");
    assert!(s.cp_recovered >= 1, "{s:?}");
    assert_eq!(s.cp_transactions_failed, 0, "{s:?}");
    let diags = check_recovery(s);
    assert!(diags.is_empty(), "recovery ledger unbalanced: {diags:?}");
}
