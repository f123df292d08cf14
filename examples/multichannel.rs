//! Multi-channel scaling: the §VII-A sketch ("capacity and bandwidth
//! scale with the number of modules") made measurable.
//!
//! Builds the same NVDIMM-C channel 1, 2 and 4 times behind the
//! interleaved front-end, drives each configuration with the concurrent
//! fio workload (8 closed-loop threads, shards served by the batched
//! executor), then verifies every shard's bus trace with the full
//! `nvdimmc-check` pass and the executor's request-conservation
//! invariant (`ShardExecutor::conservation`).
//!
//! ```text
//! cargo run --release --example multichannel
//! ```

use nvdimmc::check::{assert_config_clean, check_conservation, check_shards};
use nvdimmc::core::{
    BlockDevice, MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, PAGE_BYTES,
};
use nvdimmc::workloads::{ConcurrentFio, FioJob};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shard_cfg = NvdimmCConfig::small_for_tests();
    assert_config_clean(&shard_cfg);
    println!("channels  capacity  cached 4K rand read, 8 threads      verification");
    let mut base = None;
    for channels in [1u32, 2, 4] {
        let cfg = MultiChannelConfig::new(shard_cfg.clone(), channels);
        let mut sys = MultiChannelSystem::new(cfg)?;
        // A working set inside each shard's DRAM cache: the cached
        // (DRAM-speed) path is what scales with the channel count.
        let span = (8 << 20) * u64::from(channels);
        for page in 0..span / PAGE_BYTES {
            sys.prefault(page)?;
        }
        sys.set_trace_capture(true);
        let report = ConcurrentFio {
            job: FioJob::rand_read_4k(span, 2_000),
            threads: 8,
        }
        .run_multichannel(&mut sys)?;
        let traces = sys
            .set_trace_capture(false)
            .expect("disabling capture drains the traces");
        let diagnostics: usize = check_shards(&traces, &sys.shards()[0].config().timing)
            .iter()
            .map(|r| r.diagnostics().len())
            .sum();
        let conserved = check_conservation(&report.conservation).is_clean();
        let bw = report.mb_per_s();
        let ratio = bw / *base.get_or_insert(bw);
        println!(
            "{channels:>8}  {:>5} MB  {:>6.0} KIOPS / {:>6.0} MB/s ({ratio:.2}x)  {diagnostics} diagnostics, {}",
            sys.capacity_bytes() >> 20,
            report.kiops(),
            bw,
            if conserved { "conserved" } else { "NOT conserved" },
        );
    }
    Ok(())
}
