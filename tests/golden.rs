//! Golden values: absolute simulated results pinned as literals.
//!
//! The other suites compare a run against its own rerun, or one engine
//! against another, so a change that shifts both sides together passes
//! them unnoticed. These literals were recorded once and must reproduce
//! bit for bit: executor throughput and latency at 1 and 4 channels with
//! coalescing off and on, and the report digests of the soak, fault
//! campaign, QoS and crash-sweep presets. A legitimate model change that
//! moves them must re-record them and say why.

use nvdimmc::core::{MultiChannelConfig, MultiChannelSystem, NvdimmCConfig};
use nvdimmc::workloads::{
    ConcurrentFio, ConcurrentReport, CrashSweep, FaultCampaign, FioJob, QosTestConfig, SoakConfig,
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
    let r = SoakConfig::smoke(4).run().expect("soak");
    assert_eq!(r.digest, SOAK_DIGEST, "soak digest {:#x}", r.digest);
}

#[test]
fn fault_campaign_digest_matches_recorded_value() {
    let r = FaultCampaign::recoverable(4).run().expect("campaign");
    assert_eq!(r.digest, CAMPAIGN_DIGEST, "campaign digest {:#x}", r.digest);
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
