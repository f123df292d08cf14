//! The timing wrapper must be invisible to the simulation: a run through
//! wrapped shards reproduces an unwrapped run bit for bit.

use nvbench::layers::Counts;
use nvbench::timing::{ServeTimes, Timed};
use nvdimmc_core::{ExecutorConfig, MultiChannelConfig, MultiChannelSystem, NvdimmCConfig};
use nvdimmc_ddr::RefreshMode;
use nvdimmc_workloads::{ConcurrentFio, ConcurrentReport, FioJob, RwMode};

/// Per-bank refresh with a small cache, so the run exercises the planner's
/// queue-depth sizing, cachefills and dirty writebacks.
fn system() -> MultiChannelSystem {
    let mut shard = NvdimmCConfig::small_for_tests().with_refresh_mode(RefreshMode::PerBank);
    shard.cache_slots = 64;
    MultiChannelSystem::new(MultiChannelConfig::new(shard, 2)).expect("valid config")
}

fn fio() -> ConcurrentFio {
    ConcurrentFio {
        job: FioJob {
            mode: RwMode::RandRw { read_fraction: 0.7 },
            zipf_theta: Some(0.99),
            seed: 11,
            ..FioJob::rand_read_4k(2 << 20, 320)
        },
        threads: 8,
    }
}

fn config() -> ExecutorConfig {
    ExecutorConfig::default()
        .with_workers(1)
        .with_ring_depth(64)
}

fn assert_same(a: &ConcurrentReport, b: &ConcurrentReport) {
    assert_eq!(a.kiops().to_bits(), b.kiops().to_bits(), "kiops");
    assert_eq!(a.elapsed(), b.elapsed(), "elapsed");
    for p in [50.0, 99.0, 100.0] {
        assert_eq!(a.latency_percentile(p), b.latency_percentile(p), "p{p}");
    }
    assert_eq!(a.mean_latency(), b.mean_latency(), "mean latency");
    assert_eq!(a.data_digest, b.data_digest, "read payloads");
    assert_eq!(a.exec, b.exec, "executor counters");
    assert_eq!(a.conservation, b.conservation, "conservation");
}

#[test]
fn wrapped_run_matches_unwrapped_run() {
    let fio = fio();
    let mut plain = system();
    let unwrapped = {
        let (shards, map, _) = plain.parts_mut();
        fio.run_executor(shards, map, config()).expect("plain run")
    };
    let mut timed = system();
    let (wrapped, times) = {
        let (shards, map, _) = timed.parts_mut();
        let mut devices = Timed::wrap_all(shards);
        let report = fio
            .run_executor(&mut devices, map, config())
            .expect("wrapped run");
        let mut times = ServeTimes::default();
        for d in &devices {
            times.merge(&d.times());
        }
        (report, times)
    };
    assert_same(&unwrapped, &wrapped);
    assert_eq!(Counts::of(plain.shards()), Counts::of(timed.shards()));
    let cache = Counts::of(timed.shards());
    assert!(
        cache.cache_misses > 0 && cache.dirty_evictions > 0,
        "{cache:?}"
    );
    assert!(cache.pb_detections > 0, "per-bank refresh never ran");
    // Every device operation the executor issued went through the wrapper.
    assert_eq!(times.reads + times.writes, wrapped.exec.dmas);
    assert!(times.reads > 0 && times.writes > 0);
}
