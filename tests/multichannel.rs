//! End-to-end multi-channel tests:
//!
//! - the 1-channel front-end reproduces the bare `System` exactly
//!   (latencies, data and clock) — the paper's artifact is unchanged;
//! - a 2-channel front returns byte-identical data to a 1-channel front
//!   for the same logical request stream — interleaving is invisible to
//!   correctness;
//! - a 4-channel system under the concurrent fio driver scales aggregate
//!   bandwidth more than 2x over a single channel while every shard's
//!   bus trace passes the full `nvdimmc-check` pass and the executor's
//!   request-conservation invariant holds;
//! - an uncached 4-channel run decodes no NAND read that drew no error.

use nvdimmc::check::{check_conservation, check_shards};
use nvdimmc::core::{
    BlockDevice, MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, System, PAGE_BYTES,
};
use nvdimmc::sim::DeterministicRng;
use nvdimmc::workloads::{ConcurrentFio, FioJob};

fn front(channels: u32) -> MultiChannelSystem {
    MultiChannelSystem::new(MultiChannelConfig::new(
        NvdimmCConfig::small_for_tests(),
        channels,
    ))
    .unwrap()
}

#[test]
fn one_channel_front_reproduces_monolith() {
    let mut mono = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    let mut one = front(1);
    let span = 40 * PAGE_BYTES;
    let mut rng = DeterministicRng::new(3);
    for i in 0..60 {
        let off = rng.gen_range(0..span - 2 * PAGE_BYTES);
        let len = rng.gen_range(1..2 * PAGE_BYTES) as usize;
        if rng.gen_bool(0.5) {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let a = mono.write_at(off, &data).unwrap();
            let b = one.write_at(off, &data).unwrap();
            assert_eq!(a, b, "op {i}: write latency diverged at {off}+{len}");
        } else {
            let mut x = vec![0u8; len];
            let mut y = vec![0u8; len];
            let a = mono.read_at(off, &mut x).unwrap();
            let b = one.read_at(off, &mut y).unwrap();
            assert_eq!(a, b, "op {i}: read latency diverged at {off}+{len}");
            assert_eq!(x, y, "op {i}: data diverged at {off}+{len}");
        }
    }
    assert_eq!(mono.now(), one.now(), "clocks diverged");
}

#[test]
fn two_channel_data_identical_to_one_channel() {
    let mut one = front(1);
    let mut two = front(2);
    let span = 48 * PAGE_BYTES;
    let mut rng = DeterministicRng::new(7);
    for i in 0..80 {
        // Unaligned offsets and multi-page lengths so requests straddle
        // stripe boundaries and exercise segment splitting.
        let off = rng.gen_range(0..span - 3 * PAGE_BYTES);
        let len = rng.gen_range(1..3 * PAGE_BYTES) as usize;
        if i % 3 != 0 {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            one.write_at(off, &data).unwrap();
            two.write_at(off, &data).unwrap();
        } else {
            let mut a = vec![0u8; len];
            let mut b = vec![1u8; len];
            one.read_at(off, &mut a).unwrap();
            two.read_at(off, &mut b).unwrap();
            assert_eq!(a, b, "op {i}: data diverged at {off}+{len}");
        }
    }
    // The striped copy really did spread over both shards.
    for (i, s) in two.shards().iter().enumerate() {
        assert!(s.stats().writes > 0, "shard {i} untouched");
    }
}

#[test]
fn four_channel_concurrent_run_scales_and_verifies() {
    let mut bandwidth = Vec::new();
    for channels in [1u32, 4] {
        let mut sys = front(channels);
        // A working set inside each shard's cache so the run measures
        // cached bandwidth (the paper's scaling claim).
        let span = (4 << 20) * u64::from(channels);
        for page in 0..span / PAGE_BYTES {
            sys.prefault(page).unwrap();
        }
        sys.set_trace_capture(true);
        let run = ConcurrentFio {
            job: FioJob::rand_read_4k(span, 1_200),
            threads: 8,
        };
        let report = run.run_multichannel(&mut sys).unwrap();
        let traces = sys
            .set_trace_capture(false)
            .expect("disabling capture returns the drained traces");
        assert_eq!(traces.len(), channels as usize);
        let reports = check_shards(&traces, &sys.shards()[0].config().timing);
        for (shard, rep) in reports.iter().enumerate() {
            assert!(
                rep.is_clean(),
                "{channels}-channel run, shard {shard} trace dirty:\n{rep}"
            );
        }
        assert!(
            check_conservation(&report.conservation).is_clean(),
            "{channels}-channel run leaked requests: {:?}",
            report.conservation
        );
        bandwidth.push(report.mb_per_s());
    }
    assert!(
        bandwidth[1] > 2.0 * bandwidth[0],
        "4-channel bandwidth {:.0} MB/s is not >2x the single channel's {:.0} MB/s",
        bandwidth[1],
        bandwidth[0]
    );
}

#[test]
fn uncached_run_decodes_only_disturbed_nand_reads() {
    // The `uncached-rw` shape at test scale: 4 channels of 64 cache slots
    // over 16x as many pages, preconditioned, then 70/30 random 4 KB
    // reads and writes, so most ops miss to NAND. Every stored copy is
    // codec output and marked, so only a read that injects a bit flip
    // runs the decode; decoding every read would make this ratio 1.
    let mut shard = NvdimmCConfig::small_for_tests();
    shard.cache_slots = 64;
    let mut sys = MultiChannelSystem::new(MultiChannelConfig::new(shard, 4)).unwrap();
    let pages = 4 * 64 * 16;
    let mut rng = DeterministicRng::new(33);
    let mut buf = vec![0u8; PAGE_BYTES as usize];
    for page in 0..pages {
        rng.fill_bytes(&mut buf);
        sys.write_at(page * PAGE_BYTES, &buf).unwrap();
    }
    for _ in 0..3000 {
        let off = rng.gen_range(0..pages) * PAGE_BYTES;
        if rng.gen_bool(0.7) {
            sys.read_at(off, &mut buf).unwrap();
        } else {
            rng.fill_bytes(&mut buf);
            sys.write_at(off, &buf).unwrap();
        }
    }
    let (mut decoded, mut nand_reads, mut relocated) = (0, 0, 0);
    for shard in sys.shards() {
        let s = shard.ftl_stats();
        decoded += s.pages_decoded;
        nand_reads += s.host_reads + s.read_retries;
        relocated += s.gc_moved_pages + s.hk_moved_pages;
    }
    assert_eq!(relocated, 0, "every NAND read is a host read or a retry");
    assert_eq!((decoded, nand_reads), (0, 2828), "no read drew a bit flip");
}
