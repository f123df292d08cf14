//! Cross-crate integration tests: the full stack — driver, CP mailbox,
//! refresh detector, shared bus, FTL, ECC, media — exercised together.

use nvdimmc::core::{
    BlockDevice, CoreError, EmulatedPmem, EvictionPolicyKind, ExecutorConfig, InterleaveMap,
    MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, PerfParams, ReqKind, ShardExecutor,
    ShardRequest, System, PAGE_BYTES,
};
use nvdimmc::ddr::{SpeedBin, TimingParams};
use nvdimmc::sim::{DeterministicRng, SimDuration, SimTime};
use nvdimmc::workloads::{FioJob, MixedLoad, StreamValidator};

fn page(fill: u8) -> Vec<u8> {
    vec![fill; PAGE_BYTES as usize]
}

/// Drains the recorded bus trace and runs every nvdimmc-check pass over it.
/// The integration tests double as the verifier's regression fixture: any
/// trace the simulator produces must come back with zero diagnostics.
fn assert_trace_clean(sys: &mut System) {
    let trace = sys.take_trace();
    assert!(!trace.is_empty(), "recorder captured no bus traffic");
    let report = nvdimmc::check::check_trace(&trace, &sys.config().timing);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn data_integrity_through_full_stack_under_churn() {
    // Random reads/writes with a reference model, sized to keep the
    // system constantly evicting through the CP/NAND path.
    let mut cfg = NvdimmCConfig::small_for_tests();
    cfg.cache_slots = 24;
    let mut sys = System::new(cfg).unwrap();
    sys.set_trace_capture(true);
    let pages = 96u64;
    let mut oracle: Vec<Vec<u8>> = (0..pages).map(|_| page(0)).collect();
    let mut rng = DeterministicRng::new(2026);
    for _ in 0..800 {
        let p = rng.gen_range(0..pages);
        if rng.gen_bool(0.6) {
            let mut data = page(0);
            rng.fill_bytes(&mut data);
            sys.write_at(p * PAGE_BYTES, &data).unwrap();
            oracle[p as usize] = data;
        } else {
            let mut buf = page(0);
            sys.read_at(p * PAGE_BYTES, &mut buf).unwrap();
            assert_eq!(buf, oracle[p as usize], "page {p} diverged");
        }
    }
    assert!(sys.stats().writebacks > 50, "churn must hit the NAND path");
    assert_eq!(sys.bus_stats().violations_rejected, 0);
    // Final sweep.
    for p in 0..pages {
        let mut buf = page(0);
        sys.read_at(p * PAGE_BYTES, &mut buf).unwrap();
        assert_eq!(buf, oracle[p as usize], "final sweep page {p}");
    }
    assert_trace_clean(&mut sys);
}

#[test]
fn sub_page_byte_addressability_with_eviction() {
    let mut cfg = NvdimmCConfig::small_for_tests();
    cfg.cache_slots = 8;
    let mut sys = System::new(cfg).unwrap();
    // Scatter small writes at odd offsets across many pages.
    for i in 0..32u64 {
        let payload = [i as u8; 13];
        sys.write_at(i * PAGE_BYTES + 1000 + i, &payload).unwrap();
    }
    for i in 0..32u64 {
        let mut buf = [0u8; 13];
        sys.read_at(i * PAGE_BYTES + 1000 + i, &mut buf).unwrap();
        assert_eq!(buf, [i as u8; 13], "offset write {i} corrupted");
    }
}

#[test]
fn power_failure_recovery_preserves_persisted_state() {
    let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    sys.set_trace_capture(true);
    sys.set_persist_journal(true);
    let mut rng = DeterministicRng::new(7);
    let mut committed = Vec::new();
    for i in 0..16u64 {
        let mut data = page(0);
        rng.fill_bytes(&mut data);
        sys.write_at(i * PAGE_BYTES, &data).unwrap();
        sys.persist(i * PAGE_BYTES, PAGE_BYTES).unwrap();
        committed.push(data);
    }
    assert_trace_clean(&mut sys);
    let journal = sys.take_persist_journal();
    assert!(
        journal
            .iter()
            .any(|e| matches!(e, nvdimmc::host::PersistEvent::Claim { .. })),
        "persist() recorded no durability claims"
    );
    let persist_diags = nvdimmc::check::check_persistence(&journal);
    assert!(persist_diags.is_empty(), "{persist_diags:?}");
    let report = sys.power_cycle(false).unwrap();
    assert!(report.slots_flushed >= 16);
    for (i, expect) in committed.iter().enumerate() {
        let mut buf = page(0);
        sys.read_at(i as u64 * PAGE_BYTES, &mut buf).unwrap();
        assert_eq!(&buf, expect, "persisted page {i} lost across power fail");
    }
}

#[test]
fn repeated_power_cycles_accumulate_no_corruption() {
    let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    for cycle in 0..4u8 {
        let data = page(0x10 + cycle);
        sys.write_at(0, &data).unwrap();
        sys.persist(0, PAGE_BYTES).unwrap();
        sys.power_cycle(cycle % 2 == 0).unwrap();
        let mut buf = page(0);
        sys.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, data, "cycle {cycle}");
    }
}

#[test]
fn stream_validation_passes_on_every_policy() {
    for policy in [
        EvictionPolicyKind::Lrc,
        EvictionPolicyKind::Lru,
        EvictionPolicyKind::Clock,
    ] {
        let mut cfg = NvdimmCConfig::small_for_tests().with_eviction(policy);
        cfg.cache_slots = 16;
        let mut sys = System::new(cfg).unwrap();
        let report = StreamValidator {
            elements: 8192,
            iterations: 2,
            scalar: 2.0,
        }
        .run(&mut sys)
        .unwrap();
        assert_eq!(report.mismatches, 0, "{policy:?} corrupted STREAM data");
    }
}

#[test]
fn mixed_load_full_stack() {
    let mut cfg = NvdimmCConfig::small_for_tests();
    // Records span ~8 pages; 4 slots force continuous CP traffic.
    cfg.cache_slots = 4;
    let mut sys = System::new(cfg).unwrap();
    sys.set_trace_capture(true);
    let report = MixedLoad {
        users: 120,
        records_per_user: 4,
        transactions_per_user: 4,
        seed: 5,
    }
    .run(&mut sys)
    .unwrap();
    assert_eq!(report.validation_errors, 0);
    assert!(sys.stats().cachefills > 0, "IMDB churn reached the CP path");
    assert_trace_clean(&mut sys);
}

#[test]
fn nvdimmc_never_beats_pmem_at_4k_but_wins_small() {
    // The paper's relative-performance story in one test.
    let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
    let mut pm = EmulatedPmem::new(16 << 20, timing, PerfParams::poc()).unwrap();
    let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    let span = 4u64 << 20;
    for p in 0..span / PAGE_BYTES {
        sys.prefault(p).unwrap();
    }
    let big = FioJob::rand_read_4k(span, 800);
    let base_4k = big.run(&mut pm).unwrap().kiops();
    let nv_4k = big.run(&mut sys).unwrap().kiops();
    assert!(nv_4k < base_4k, "4K: NVDC {nv_4k:.0} vs pmem {base_4k:.0}");

    let small = FioJob {
        block_size: 128,
        ..FioJob::rand_read_4k(span, 800)
    };
    let base_s = small.run(&mut pm).unwrap().kiops();
    let nv_s = small.run(&mut sys).unwrap().kiops();
    assert!(
        nv_s > base_s,
        "128B: NVDC {nv_s:.0} must beat pmem {base_s:.0} (paper: 1.15x)"
    );
}

#[test]
fn wear_leveling_spreads_erases_under_host_churn() {
    let mut cfg = NvdimmCConfig::small_for_tests();
    cfg.cache_slots = 8;
    // Shrink the media so sustained writebacks wrap it several times.
    cfg.nvmc.ftl.geometry.blocks_per_plane = 8; // 32 blocks x 64 pages
    let mut sys = System::new(cfg).unwrap();
    let mut rng = DeterministicRng::new(9);
    let data = page(0xAA);
    for _ in 0..3_000 {
        let p = rng.gen_range(0..64);
        sys.write_at(p * PAGE_BYTES, &data).unwrap();
    }
    let ftl = sys.ftl_stats();
    assert!(ftl.gc_runs > 0, "sustained writes must trigger GC");
    assert!(
        ftl.write_amplification() < 4.0,
        "WAF {} out of control",
        ftl.write_amplification()
    );
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    let cap = sys.capacity_bytes();
    match sys.read_at(cap, &mut [0u8; 1]) {
        Err(CoreError::OutOfRange { .. }) => {}
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    // Device still usable after the error.
    sys.write_at(0, &page(1)).unwrap();
}

#[test]
fn range_checks_reject_ranges_whose_end_overflows() {
    // `offset + len` past `u64::MAX` is out of range on every device: not
    // an overflow panic, and not a wrapped sum that passes the check and
    // serves a small address instead.
    use nvdimmc::core::QueuedDevice;
    fn out_of_range<T: std::fmt::Debug>(r: Result<T, CoreError>, what: &str) {
        match r {
            Err(CoreError::OutOfRange { .. }) => {}
            other => panic!("{what}: expected OutOfRange, got {other:?}"),
        }
    }
    let off = u64::MAX - 100;
    let mut buf = page(0);
    let data = page(7);

    let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    let now = sys.now();
    out_of_range(sys.read_at(off, &mut buf), "shard read_at");
    out_of_range(sys.write_at(off, &data), "shard write_at");
    out_of_range(sys.persist(off, PAGE_BYTES), "shard persist");
    out_of_range(sys.serve_read(now, off, &mut buf), "shard serve_read");
    out_of_range(sys.serve_write(now, off, &data), "shard serve_write");

    let cfg = MultiChannelConfig::new(NvdimmCConfig::small_for_tests(), 2);
    let mut front = MultiChannelSystem::new(cfg).unwrap();
    out_of_range(front.read_at(off, &mut buf), "front read_at");
    out_of_range(front.write_at(off, &data), "front write_at");
    out_of_range(front.persist(off, PAGE_BYTES), "front persist");

    // The executor rejects the range before splitting it, so no segment
    // is queued for a completion that never comes.
    let mut exec = ShardExecutor::new(2, ExecutorConfig::default());
    let (shards, map, _) = front.parts_mut();
    let t0 = SimTime::ZERO;
    let write = exec.submit(map, 0, ReqKind::Write, off, PAGE_BYTES, t0, &data);
    out_of_range(write, "executor write submit");
    let read = exec.submit(map, 0, ReqKind::Read, off, PAGE_BYTES, t0, &[]);
    out_of_range(read, "executor read submit");
    assert!(exec.dispatch(shards).is_empty());

    let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
    let mut pmem = EmulatedPmem::new(64 << 20, timing, PerfParams::poc()).unwrap();
    let now = pmem.now();
    out_of_range(pmem.read_at(off, &mut buf), "pmem read_at");
    out_of_range(pmem.write_at(off, &data), "pmem write_at");
    out_of_range(pmem.serve_read(now, off, &mut buf), "pmem serve_read");
    out_of_range(pmem.serve_write(now, off, &data), "pmem serve_write");
}

#[test]
fn short_write_payload_is_rejected_before_any_ring_is_touched() {
    // An 8 KB write striped over two shards with only 4 KB of payload:
    // the first segment's bytes exist, the second's do not. The executor
    // must refuse the whole operation up front, not queue the first
    // segment and then fail on the second.
    let map = InterleaveMap::new(2, PAGE_BYTES).unwrap();
    let mut devices = vec![
        System::new(NvdimmCConfig::small_for_tests()).unwrap(),
        System::new(NvdimmCConfig::small_for_tests()).unwrap(),
    ];
    let mut exec = ShardExecutor::new(2, ExecutorConfig::default());
    let data = page(7);
    let r = exec.submit(
        &map,
        0,
        ReqKind::Write,
        0,
        2 * PAGE_BYTES,
        SimTime::ZERO,
        &data,
    );
    assert!(
        matches!(r, Err(CoreError::Config(_))),
        "short payload: {r:?}"
    );
    assert!(!exec.has_pending(), "a queue holds part of the operation");
    assert_eq!(exec.conservation(), vec![(0, 0), (0, 0)]);
    assert!(exec.dispatch(&mut devices).is_empty());
    // The executor still accepts the same write with its full payload.
    let full = [data.clone(), data].concat();
    let segs = exec
        .submit(
            &map,
            0,
            ReqKind::Write,
            0,
            2 * PAGE_BYTES,
            SimTime::ZERO,
            &full,
        )
        .unwrap();
    assert_eq!(segs.len(), 2);
    let done = exec.dispatch(&mut devices);
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|c| c.error.is_none()));
}

#[test]
fn a_full_queue_bounces_whole_operations_without_touching_other_shards() {
    // Page-interleaved over two shards: even pages live on shard 0, odd
    // pages on shard 1, at local page `page / 2`.
    const DEPTH: usize = 4;
    let map = InterleaveMap::new(2, PAGE_BYTES).unwrap();
    let mut devices = vec![
        System::new(NvdimmCConfig::small_for_tests()).unwrap(),
        System::new(NvdimmCConfig::small_for_tests()).unwrap(),
    ];
    let mut exec = ShardExecutor::new(2, ExecutorConfig::default().with_ring_depth(DEPTH));
    let t0 = SimTime::ZERO;
    let one = exec
        .submit(
            &map,
            9,
            ReqKind::Write,
            PAGE_BYTES,
            PAGE_BYTES,
            t0,
            &page(0x90),
        )
        .unwrap();
    assert_eq!(one[0].shard, 1);
    // Fill shard 0's queue to its bound, one distinct page per thread.
    let mut queued = Vec::new();
    for k in 0..DEPTH as u64 {
        let off = 2 * k * PAGE_BYTES;
        let segs = exec
            .submit(
                &map,
                k as u32,
                ReqKind::Write,
                off,
                PAGE_BYTES,
                t0,
                &page(k as u8),
            )
            .unwrap();
        assert_eq!((segs.len(), segs[0].shard), (1, 0));
        queued.push(segs[0].seq);
    }
    assert_eq!((exec.pending(0), exec.pending(1)), (DEPTH, 1));

    // A pre-split request comes back whole, unstamped, and is counted.
    let req = ShardRequest {
        seq: 0,
        thread: 7,
        kind: ReqKind::Write,
        local_offset: 8 * PAGE_BYTES,
        len: PAGE_BYTES,
        not_before: t0,
        data: page(0xEE),
    };
    let bounced = exec.submit_request(0, req).unwrap_err();
    assert_eq!(bounced.seq, 0, "a bounced request is not stamped");
    assert_eq!(
        (
            bounced.thread,
            bounced.kind,
            bounced.local_offset,
            bounced.len
        ),
        (7, ReqKind::Write, 8 * PAGE_BYTES, PAGE_BYTES)
    );
    assert_eq!(bounced.data, page(0xEE));
    assert_eq!(exec.stats(0).rejected_ring_full, 1);

    // Pages 1 and 2: the first segment targets shard 1, which has room,
    // the second the full shard 0. Nothing may be queued anywhere.
    let r = exec.submit(&map, 8, ReqKind::Read, PAGE_BYTES, 2 * PAGE_BYTES, t0, &[]);
    match r {
        Err(CoreError::Overloaded {
            shard,
            queued,
            queue_limit,
            ..
        }) => assert_eq!((shard, queued, queue_limit), (0, DEPTH, DEPTH)),
        other => panic!("expected Overloaded from shard 0, got {other:?}"),
    }
    assert_eq!((exec.pending(0), exec.pending(1)), (DEPTH, 1));
    assert_eq!(exec.stats(0).rejected_ring_full, 2);
    assert_eq!(exec.stats(1).rejected_ring_full, 0);
    assert_eq!(exec.conservation(), vec![(DEPTH as u64, 0), (1, 0)]);

    // Shard 0's completions come back first, in submit order.
    let done = exec.dispatch(&mut devices);
    assert!(done.iter().all(|c| c.error.is_none()));
    let order: Vec<(u32, u64)> = done.iter().map(|c| (c.shard, c.seq)).collect();
    let mut want: Vec<(u32, u64)> = queued.iter().map(|&seq| (0, seq)).collect();
    want.push((1, one[0].seq));
    assert_eq!(order, want);
    assert_eq!(
        exec.conservation(),
        vec![(DEPTH as u64, DEPTH as u64), (1, 1)]
    );
    // The drained queue takes the bounced request again.
    assert!(exec.submit_request(0, bounced).is_ok());
}

#[test]
#[should_panic(expected = "executor needs exactly one device per shard")]
fn dispatch_rejects_a_device_slice_shorter_than_the_shard_count() {
    let map = InterleaveMap::new(2, PAGE_BYTES).unwrap();
    let mut exec = ShardExecutor::new(2, ExecutorConfig::default());
    exec.submit(
        &map,
        0,
        ReqKind::Read,
        PAGE_BYTES,
        PAGE_BYTES,
        SimTime::ZERO,
        &[],
    )
    .unwrap();
    // Shard 1's request has no device: serving the slice would leave it
    // queued for ever.
    let mut devices = vec![System::new(NvdimmCConfig::small_for_tests()).unwrap()];
    exec.dispatch(&mut devices);
}

#[test]
fn think_time_advances_clock_without_breaking_refresh() {
    let mut sys = System::new(NvdimmCConfig::small_for_tests()).unwrap();
    sys.set_trace_capture(true);
    sys.write_at(0, &page(1)).unwrap();
    // Jump the clock far (hours of think time), then resume I/O.
    sys.advance(SimDuration::from_secs_f64(1.0));
    let mut buf = page(0);
    sys.read_at(0, &mut buf).unwrap();
    assert_eq!(buf, page(1));
    assert_eq!(sys.bus_stats().violations_rejected, 0);
    assert_trace_clean(&mut sys);
}
