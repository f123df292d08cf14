//! Crash-point sweep: bounded-exhaustive power-cut torture (tier 1).
//!
//! Every crash boundary of a small mixed read/write/persist/maintenance
//! workload — bus ops, CP mailbox windows, NVMC burst edges (rank-level
//! *and* per-bank refresh), maintenance slots — is armed in turn; the
//! run is cut there, recovered through the battery-backed dump +
//! in-place reboot path, and audited by the `check_crash`
//! persistence oracle. With ADR intact every boundary must come back
//! clean, bit-identically across reruns. With the weak persistence
//! domain (`adr_works = false`, paper §V-C) specific boundaries tear —
//! those schedules are shrunk to 1-minimal artifacts and committed
//! under `tests/crash_corpus/`, replayed here as regressions.

use nvdimmc_core::CrashPointKind;
use nvdimmc_workloads::{CrashOp, CrashSweep, Sampling};

/// Every committed crash-corpus artifact, replayed as a regression.
const CORPUS: &[(&str, &str)] = &[
    (
        "torn_persist_weak_adr.schedule",
        include_str!("crash_corpus/torn_persist_weak_adr.schedule"),
    ),
    (
        "cross_shard_torn_persist.schedule",
        include_str!("crash_corpus/cross_shard_torn_persist.schedule"),
    ),
];

fn assert_clean_and_reproducible(sweep: CrashSweep) {
    let a = sweep.sweep().expect("sweep");
    assert!(
        a.is_clean(),
        "oracle violations (seed {:#x}): {:?}",
        sweep.seed,
        a.failures
    );
    assert_eq!(a.trials, a.boundaries_total(), "exhaustive = every point");
    assert!(a.per_kind[0] > 0, "no bus-op boundaries: {a:?}");
    assert!(a.per_kind[1] > 0, "no cp-window boundaries: {a:?}");
    assert!(a.per_kind[2] > 0, "no nvmc-burst boundaries: {a:?}");
    assert!(a.per_kind[3] > 0, "no maintenance boundaries: {a:?}");
    let b = sweep.sweep().expect("sweep rerun");
    assert_eq!(a, b, "sweep must be bit-identical at the same seed");
}

#[test]
fn exhaustive_sweep_one_channel_rank_level() {
    assert_clean_and_reproducible(CrashSweep::small(1));
}

#[test]
fn exhaustive_sweep_one_channel_per_bank() {
    // Covers the per-bank refresh path: NVMC burst-edge boundaries fall
    // inside individual REFpb windows rather than rank-level tRFC. The
    // per-bank preset trims the schedule — one burst per *bank* window
    // multiplies boundary density ~10×, and the sweep is exhaustive.
    assert_clean_and_reproducible(CrashSweep::small_per_bank(1));
}

#[test]
fn exhaustive_sweep_four_channels_rank_level() {
    // Records interleave page-granularly across 4 shards, so armed cuts
    // land mid-record on one shard while its siblings carry on.
    assert_clean_and_reproducible(CrashSweep::small(4));
}

#[test]
fn exhaustive_sweep_four_channels_per_bank() {
    assert_clean_and_reproducible(CrashSweep::small_per_bank(4));
}

#[test]
fn stratified_sweep_covers_every_class_and_stays_clean() {
    let sweep = CrashSweep::small(2).with_sampling(Sampling::Stratified { stride: 9 });
    let exhaustive_space = CrashSweep::small(2).sweep().expect("exhaustive");
    let r = sweep.sweep().expect("stratified sweep");
    assert!(r.is_clean(), "{:?}", r.failures);
    assert!(
        r.trials < exhaustive_space.trials,
        "stratified must probe fewer points ({} vs {})",
        r.trials,
        exhaustive_space.trials
    );
    // Same rehearsal space: sampling changes probing, not enumeration.
    assert_eq!(r.per_kind, exhaustive_space.per_kind);
}

/// The schedule whose second persist crosses the torn-flush window with
/// stale persisted state — the §V-C weak-domain counterexample source.
fn tearing_ops() -> Vec<CrashOp> {
    vec![
        CrashOp::Write(1),
        CrashOp::Read(2),
        CrashOp::Write(0),
        CrashOp::Persist(0),
        CrashOp::Maintenance,
        CrashOp::Write(0),
        CrashOp::Read(1),
        CrashOp::Persist(0),
    ]
}

#[test]
fn weak_domain_failures_shrink_to_committed_corpus() {
    // The sweep that produced the corpus still fails the same way, and
    // the shrinker still reduces it to a schedule no bigger than the
    // committed artifact.
    let sweep = CrashSweep::small(1).with_adr(false);
    let ops = tearing_ops();
    let r = sweep.sweep_ops(&ops).expect("weak-domain sweep");
    assert!(!r.is_clean(), "§V-C hazard disappeared — update the corpus");
    let failing = r.failures.first().expect("failures");
    let shrunk = sweep.shrink_failure(&ops, failing).expect("shrink");
    let committed = CrashSweep::parse_schedule(CORPUS[0].1).expect("corpus parses");
    assert!(
        shrunk.ops.len() <= committed.ops.len(),
        "shrinker regressed: {} ops vs committed {}",
        shrunk.ops.len(),
        committed.ops.len()
    );
}

#[test]
fn committed_crash_corpus_replays() {
    for (name, text) in CORPUS {
        let trial = CrashSweep::replay_schedule(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(trial.fired, "{name}: armed boundary never fired");
    }
}

/// Regenerates `tests/crash_corpus/` from the weak-domain sweeps. Run
/// manually (`cargo test --test crash_sweep -- --ignored`) after a
/// change that legitimately moves crash boundaries, then re-add the
/// explanatory comment blocks before committing.
#[test]
#[ignore = "writes tests/crash_corpus/; run manually to regenerate"]
fn regenerate_crash_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/crash_corpus");
    std::fs::create_dir_all(dir).expect("mkdir corpus");
    // Artifact 1: single-channel torn persist under the weak domain.
    let sweep = CrashSweep::small(1).with_adr(false);
    let ops = tearing_ops();
    let r = sweep.sweep_ops(&ops).expect("sweep");
    let failing = r.failures.first().expect("weak domain fails");
    let shrunk = sweep.shrink_failure(&ops, failing).expect("shrink");
    let text = sweep.to_schedule(
        &shrunk.ops,
        shrunk.shard,
        shrunk.boundary,
        shrunk.kind,
        &shrunk.rules,
    );
    std::fs::write(format!("{dir}/torn_persist_weak_adr.schedule"), &text).expect("write");
    println!("torn_persist_weak_adr:\n{text}");
    // Artifact 2: the same hazard torn *across shards* — the armed
    // shard's flush is cut while the sibling shard's half of the record
    // is already durable.
    let sweep2 = CrashSweep::small(2).with_adr(false);
    let r2 = sweep2.sweep_ops(&ops).expect("sweep 2ch");
    let failing2 = r2.failures.first().expect("weak domain fails cross-shard");
    let shrunk2 = sweep2.shrink_failure(&ops, failing2).expect("shrink 2ch");
    let text2 = sweep2.to_schedule(
        &shrunk2.ops,
        shrunk2.shard,
        shrunk2.boundary,
        shrunk2.kind,
        &shrunk2.rules,
    );
    std::fs::write(format!("{dir}/cross_shard_torn_persist.schedule"), &text2).expect("write");
    println!("cross_shard_torn_persist:\n{text2}");
    let _ = CrashPointKind::BusOp; // corpus kinds parse via from_name
}
