//! Golden values: absolute simulated results pinned as literals.
//!
//! The other suites compare a run against its own rerun, or one engine
//! against another, so a change that shifts both sides together passes
//! them unnoticed. These literals were recorded once and must reproduce
//! bit for bit: executor throughput and latency at 1 and 4 channels with
//! coalescing off and on, the report digests of the soak, fault
//! campaign, QoS and crash-sweep presets, and the counters, clocks and
//! latencies of the soak and campaign runs — a digest alone cannot see a
//! termination change such as the drain ending one read later. A
//! legitimate model change that moves them must re-record them and say
//! why.

use nvdimmc::core::{MultiChannelConfig, MultiChannelSystem, NvdimmCConfig};
use nvdimmc::workloads::{
    CampaignReport, ConcurrentFio, ConcurrentReport, CrashSweep, FaultCampaign, FioJob,
    QosTestConfig,
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
