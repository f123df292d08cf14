//! Golden values: absolute simulated results pinned as literals.
//!
//! The other suites compare a run against its own rerun, or one engine
//! against another, so a change that shifts both sides together passes
//! them unnoticed. These literals were recorded once and must reproduce
//! bit for bit: executor throughput and latency at 1 and 4 channels with
//! coalescing off and on, the report digests of the soak, fault
//! campaign, QoS and crash-sweep presets, and the counters, clocks and
//! latencies of the soak and campaign runs — a digest alone cannot see a
//! termination change such as the drain ending one read later. Three
//! more rows pin one path each that no other literal reaches: the
//! executor's contended write path (70/30 read/write at four channels),
//! the single-shard blocking path (`read_at`/`write_at`, including an
//! unaligned access that spans two pages) and the emulated-pmem
//! baseline through both its blocking and its queued entry points. A
//! legitimate model change that moves them must re-record them and say
//! why.

use nvdimmc::core::{
    BlockDevice, EmulatedPmem, MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, PerfParams,
    System,
};
use nvdimmc::ddr::{SpeedBin, TimingParams};
use nvdimmc::workloads::{
    CampaignReport, ConcurrentFio, ConcurrentReport, CrashSweep, FaultCampaign, FioJob, FioReport,
    QosTestConfig, RwMode,
};

/// `(channels, coalescing, kiops bits, mean ps, p99 ps, data digest)`.
/// Random 4 KB reads at six threads almost never form adjacent runs, so
/// both coalescing settings land on the same values.
#[rustfmt::skip]
const EXECUTOR: &[(u32, bool, u64, u64, u64, u64)] = &[
    (1, false, 0x4079_3b73_fb75_2c34, 14_796_870, 16_777_216, 0x1e41_40f2_2493_623f),
    (1, true, 0x4079_3b73_fb75_2c34, 14_796_870, 16_777_216, 0x1e41_40f2_2493_623f),
    (4, false, 0x4090_1a76_4357_b4e3, 5_792_822, 13_107_200, 0x0135_78b6_412d_3b32),
    (4, true, 0x4090_1a76_4357_b4e3, 5_792_822, 13_107_200, 0x0135_78b6_412d_3b32),
];

/// `(cache slots per shard, kiops bits, mean ps, p99 ps, data digest)`
/// for a 70/30 random read/write mix at four channels and six threads.
/// The 64-slot row keeps every shard's cache under eviction pressure, so
/// contended writes take the writeback and cachefill paths too.
#[rustfmt::skip]
const EXECUTOR_RW: &[(u64, u64, u64, u64, u64)] = &[
    (3072, 0x408f_d2e9_d472_5f43, 5_859_275, 15_204_352, 0x6743_2fcf_9036_9938),
    (64, 0x4072_1dbb_2bf3_3875, 20_248_421, 102_760_448, 0x6743_2fcf_9036_9938),
];

/// A 70/30 `FioJob` on one blocking shard with a 64-slot cache:
/// `(elapsed ps, mean ps, read p99 ps, write p99 ps)`.
const BLOCKING_FIO: (u64, u64, u64, u64) = (5_755_451_192, 14_388_627, 73_400_320, 69_206_016);
/// The shard's `stats()` after the job: `(reads, writes, faults,
/// cachefills, zero_fills, writebacks)`.
const BLOCKING_STATS: (u64, u64, u64, u64, u64, u64) = (271, 129, 319, 46, 273, 93);
/// Latencies of one unaligned 4 KB write and read spanning two pages,
/// then `stats()` again.
const BLOCKING_UNALIGNED: (u64, u64, (u64, u64, u64, u64, u64, u64)) =
    (66_314_298, 2_300_596, (272, 130, 321, 46, 275, 95));

/// The emulated-pmem baseline under a 70/30 mix: the blocking `FioJob`
/// as `(elapsed ps, mean ps, reads, writes)`, and the executor run as
/// `(kiops bits, mean ps, p99 ps, data digest)`.
const PMEM_BLOCKING: (u64, u64, u64, u64) = (625_999_728, 1_564_999, 271, 129);
const PMEM_EXECUTOR: (u64, u64, u64, u64) = (
    0x409e_4156_f5a2_79bd,
    3_087_710,
    3_866_624,
    0x6daa_3215_808c_b4e2,
);

const SOAK_DIGEST: u64 = 0xe805_48e5_cb22_8cc9;
const CAMPAIGN_DIGEST: u64 = 0x0dd4_9c93_cf60_9750;
const QOS_DIGEST: u64 = 0xb315_554b_90e6_414c;
const CRASH_SWEEP_DIGEST: u64 = 0x881a_4d93_5d4f_ae22;
const POWER_FAIL_DIGEST: u64 = 0xb8b6_e1e1_c2c0_78b2;

/// The counters every soak/campaign golden pins: `(ops_attempted,
/// ops_completed, writes_rejected, cp_timeouts, degraded_rejections,
/// pages_excluded, final clock ps, digest, recovery.faults_fired)`.
type RunCounters = (u64, u64, u64, u64, u64, u64, u64, u64, u64);

const SOAK_COUNTERS: RunCounters = (351, 343, 5, 8, 0, 0, 127_368_390_000, SOAK_DIGEST, 0);
/// Soak-only values: `(waves, shed_rebuilding, healthy p99 ps, impaired
/// p99 ps)`.
const SOAK_SLO: (u64, u64, u64, u64) = (8, 0, 73_400_320, 7_918_845_952);
const CAMPAIGN_COUNTERS: RunCounters =
    (1000, 1000, 0, 0, 0, 0, 37_668_390_000, CAMPAIGN_DIGEST, 13);
const POWER_FAIL_COUNTERS: RunCounters =
    (500, 498, 0, 0, 0, 0, 16_405_590_000, POWER_FAIL_DIGEST, 15);
const POWER_FAIL_POINTS: &[u64] = &[20, 292];

fn counters(r: &CampaignReport) -> RunCounters {
    (
        r.ops_attempted,
        r.ops_completed,
        r.writes_rejected,
        r.cp_timeouts,
        r.degraded_rejections,
        r.pages_excluded,
        r.final_clock.as_ps(),
        r.digest,
        r.recovery.faults_fired,
    )
}

/// The shape of the executor's lockstep differential test: 6 threads of
/// 4 KB random reads over 16 MB on `small_for_tests` shards.
fn executor_run(channels: u32, coalesce: bool) -> ConcurrentReport {
    let fio = ConcurrentFio {
        job: FioJob::rand_read_4k(16 << 20, 600),
        threads: 6,
    };
    let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(
        NvdimmCConfig::small_for_tests(),
        channels,
    ))
    .unwrap();
    let (shards, map, _) = sys.parts_mut();
    let mut cfg = fio.executor_config();
    if !coalesce {
        cfg = cfg.with_coalesce_bytes(1);
    }
    fio.run_executor(shards, map, cfg).unwrap()
}

#[test]
fn executor_results_match_recorded_values() {
    for &(channels, coalesce, kiops, mean, p99, digest) in EXECUTOR {
        let r = executor_run(channels, coalesce);
        let got = (
            r.kiops().to_bits(),
            r.mean_latency().as_ps(),
            r.latency_percentile(99.0).as_ps(),
            r.data_digest,
        );
        assert_eq!(
            got,
            (kiops, mean, p99, digest),
            "{channels}ch coalesce={coalesce}: (kiops bits, mean ps, p99 ps, digest) moved"
        );
    }
}

fn rw_70_30(span: u64, ops: u64) -> FioJob {
    FioJob {
        mode: RwMode::RandRw { read_fraction: 0.7 },
        ..FioJob::rand_read_4k(span, ops)
    }
}

fn pmem() -> EmulatedPmem {
    EmulatedPmem::new(
        64 << 20,
        TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
        PerfParams::poc(),
    )
    .unwrap()
}

fn executor_row(r: &ConcurrentReport) -> (u64, u64, u64, u64) {
    (
        r.kiops().to_bits(),
        r.mean_latency().as_ps(),
        r.latency_percentile(99.0).as_ps(),
        r.data_digest,
    )
}

fn fio_row(r: &FioReport) -> (u64, u64, u64, u64) {
    (
        r.elapsed().as_ps(),
        r.mean_latency().as_ps(),
        r.read_latency.percentile(99.0).as_ps(),
        r.write_latency.percentile(99.0).as_ps(),
    )
}

fn shard_stats(s: &System) -> (u64, u64, u64, u64, u64, u64) {
    let st = s.stats();
    (
        st.reads,
        st.writes,
        st.faults,
        st.cachefills,
        st.zero_fills,
        st.writebacks,
    )
}

#[test]
fn executor_read_write_mix_matches_recorded_values() {
    for &(slots, kiops, mean, p99, digest) in EXECUTOR_RW {
        let mut shard = NvdimmCConfig::small_for_tests();
        shard.cache_slots = slots;
        let fio = ConcurrentFio {
            job: rw_70_30(16 << 20, 600),
            threads: 6,
        };
        let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(shard, 4)).unwrap();
        let r = fio.run_multichannel(&mut sys).unwrap();
        assert_eq!(
            executor_row(&r),
            (kiops, mean, p99, digest),
            "{slots}-slot 70/30: (kiops bits, mean ps, p99 ps, digest) moved"
        );
    }
}

#[test]
fn blocking_shard_path_matches_recorded_values() {
    let mut cfg = NvdimmCConfig::small_for_tests();
    cfg.cache_slots = 64;
    let mut sys = System::new(cfg).unwrap();
    let r = rw_70_30(1 << 20, 400).run(&mut sys).unwrap();
    assert_eq!(fio_row(&r), BLOCKING_FIO, "blocking 70/30 fio moved");
    assert_eq!(shard_stats(&sys), BLOCKING_STATS, "blocking stats moved");

    let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let off = 300 * 4096 + 2048;
    let w = sys.write_at(off, &data).unwrap();
    let mut out = vec![0u8; data.len()];
    let rd = sys.read_at(off, &mut out).unwrap();
    assert_eq!(out, data);
    assert_eq!(
        (w.as_ps(), rd.as_ps(), shard_stats(&sys)),
        BLOCKING_UNALIGNED,
        "unaligned two-page access moved"
    );
}

#[test]
fn emulated_pmem_matches_recorded_values() {
    let mut dev = pmem();
    let r = rw_70_30(8 << 20, 400).run(&mut dev).unwrap();
    let st = dev.stats();
    assert_eq!(
        (
            r.elapsed().as_ps(),
            r.mean_latency().as_ps(),
            st.reads,
            st.writes
        ),
        PMEM_BLOCKING,
        "pmem blocking path moved"
    );
    let fio = ConcurrentFio {
        job: rw_70_30(8 << 20, 600),
        threads: 6,
    };
    let r = fio.run_baseline(&mut pmem()).unwrap();
    assert_eq!(executor_row(&r), PMEM_EXECUTOR, "pmem executor path moved");
}

#[test]
fn soak_digest_matches_recorded_value() {
    let r = FaultCampaign::dead_mailbox_smoke(4).run().expect("soak");
    assert_eq!(r.digest, SOAK_DIGEST, "soak digest {:#x}", r.digest);
    assert_eq!(counters(&r), SOAK_COUNTERS, "soak counters moved: {r:?}");
    let slo = (
        r.waves,
        r.shed_rebuilding,
        r.healthy.p99.as_ps(),
        r.impaired.p99.as_ps(),
    );
    assert_eq!(slo, SOAK_SLO, "soak waves/latencies moved: {r:?}");
}

#[test]
fn fault_campaign_digest_matches_recorded_value() {
    let r = FaultCampaign::recoverable(4).run().expect("campaign");
    assert_eq!(r.digest, CAMPAIGN_DIGEST, "campaign digest {:#x}", r.digest);
    assert_eq!(
        counters(&r),
        CAMPAIGN_COUNTERS,
        "campaign counters moved: {r:?}"
    );
}

#[test]
fn power_fail_campaign_counters_match_recorded_values() {
    let r = FaultCampaign::recoverable(2)
        .with_power_fails(2)
        .run()
        .expect("campaign");
    assert_eq!(
        counters(&r),
        POWER_FAIL_COUNTERS,
        "power-fail campaign counters moved: {r:?}"
    );
    assert_eq!(r.power_fail_points, POWER_FAIL_POINTS, "power cuts moved");
}

#[test]
fn qos_digest_matches_recorded_value() {
    let r = QosTestConfig::smoke(4).run().expect("qos");
    assert_eq!(r.digest, QOS_DIGEST, "qos digest {:#x}", r.digest);
}

#[test]
fn crash_sweep_digest_matches_recorded_value() {
    let r = CrashSweep::small(4).sweep().expect("sweep");
    assert_eq!(
        r.digest, CRASH_SWEEP_DIGEST,
        "crash-sweep digest {:#x}",
        r.digest
    );
}
