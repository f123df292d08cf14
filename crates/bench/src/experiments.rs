//! One function per table/figure of the paper's evaluation.
//!
//! All runs use [`NvdimmCConfig::figure_scale`] (64 MB DRAM cache over
//! 512 MB Z-NAND — Table I at 1:256 capacity) unless noted. Per-operation
//! quantities (latency, IOPS, MB/s) are directly comparable to the
//! paper's because the bottlenecks are per-op; capacity-axis quantities
//! (Figure 7's x-axis) scale with the capacities.

use crate::report::{kiops, mbs, ratio, Figure, Row};
use nvdimmc_core::{
    BlockDevice, EmulatedPmem, EvictionPolicyKind, MultiChannelConfig, MultiChannelSystem,
    NvdimmCConfig, PerfParams, System, PAGE_BYTES,
};
use nvdimmc_ddr::{SpeedBin, TimingParams};
use nvdimmc_sim::SimDuration;
use nvdimmc_workloads::{
    tpch, ConcurrentFio, FileCopy, FioJob, MixedLoad, RwMode, StreamValidator, TpchRunner,
};

fn paper_timing() -> TimingParams {
    TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600)
}

fn figure_system() -> System {
    checked_system(NvdimmCConfig::figure_scale())
}

/// Lints `cfg` with nvdimmc-check before construction so a bad
/// experiment configuration dies loudly instead of producing a figure.
fn checked_system(cfg: NvdimmCConfig) -> System {
    nvdimmc_check::assert_config_clean(&cfg);
    System::new(cfg).expect("config is valid")
}

fn figure_pmem() -> EmulatedPmem {
    EmulatedPmem::new(256 << 20, paper_timing(), PerfParams::poc()).expect("pmem config")
}

/// Cache capacity of the figure-scale system in bytes.
fn cache_bytes() -> u64 {
    NvdimmCConfig::figure_scale().cache_slots * PAGE_BYTES
}

/// Puts the system into the paper's "Uncached" regime: the cache is full
/// of dirty pages and the target span lives on Z-NAND, so every access
/// pays a writeback + cachefill pair (§VII-B2).
fn make_uncached(sys: &mut System, span: u64) {
    let slots = sys.config().cache_slots;
    let page = vec![0x5Au8; PAGE_BYTES as usize];
    // Write the measurement span so it reaches NAND...
    for p in 0..span / PAGE_BYTES {
        sys.write_at(p * PAGE_BYTES, &page).expect("setup write");
    }
    // ...then dirty the cache with a disjoint region, evicting the span.
    let base = span;
    for i in 0..slots {
        sys.write_at(base + i * PAGE_BYTES, &page)
            .expect("setup write");
    }
}

/// Table I: test-system configuration.
pub fn table1() -> Figure {
    let cfg = NvdimmCConfig::figure_scale();
    let poc = NvdimmCConfig::poc();
    let mut f = Figure::new("Table I", "Test system configuration");
    f.push(Row::new(
        "DIMM speed",
        "DDR4 @ 1600 Mbps",
        format!("DDR4 @ {} Mbps", cfg.timing.speed.mt_per_s()),
    ));
    f.push(Row::new(
        "tRFC (programmed)",
        "1250 ns",
        format!("{} ns", cfg.timing.trfc_total.as_ns()),
    ));
    f.push(Row::new(
        "tRFC (device)",
        "350 ns",
        format!("{} ns", cfg.timing.trfc_base.as_ns()),
    ));
    f.push(Row::new(
        "tREFI",
        "7.8 us",
        format!("{:.1} us", cfg.timing.trefi.as_us_f64()),
    ));
    f.push(
        Row::new(
            "NVDIMM-C DRAM cache",
            "16 GB (15 GB slots)",
            format!("{} MB slots", (cfg.cache_slots * PAGE_BYTES) >> 20),
        )
        .with_note("1:256 scale; full-scale config available as NvdimmCConfig::poc()"),
    );
    f.push(
        Row::new(
            "Z-NAND",
            "2 x 64 GB (120 GB exported)",
            format!(
                "{} MB raw, {} MB exported",
                cfg.nvmc.ftl.geometry.raw_bytes() >> 20,
                (cfg.nvmc.ftl.geometry.raw_bytes() as f64 * cfg.nvmc.ftl.export_fraction) as u64
                    >> 20
            ),
        )
        .with_note(format!(
            "poc(): {} GB raw",
            poc.nvmc.ftl.geometry.raw_bytes() >> 30
        )),
    );
    f.push(Row::new(
        "Baseline",
        "128 GB RDIMM as /dev/pmem0",
        "EmulatedPmem (DRAM-backed, same tRFC)",
    ));
    f
}

/// Table II: benchmarks and metrics.
pub fn table2() -> Figure {
    let mut f = Figure::new("Table II", "Benchmarks and metrics");
    f.push(Row::new(
        "FIO v3.10",
        "latency, bandwidth",
        "workloads::fio (latency, bandwidth)",
    ));
    f.push(Row::new(
        "TPC-H on SAP HANA",
        "query transaction time",
        "workloads::tpch (22 synthetic profiles)",
    ));
    f.push(Row::new(
        "In-house mixed-load IMDB",
        "concurrent users, validation",
        "workloads::mixedload (CRC-validated)",
    ));
    f.push(Row::new(
        "STREAM (modified)",
        "refresh-detection aging",
        "workloads::stream (oracle-checked)",
    ));
    f
}

/// §VII-A: refresh-detection accuracy / aging validation.
pub fn validation() -> Figure {
    // Undersize the cache so the STREAM arrays evict continuously: the
    // FPGA then shares the bus in every refresh window while the host
    // hammers the same DRAM — the paper's worst-case aging scenario.
    let mut cfg = NvdimmCConfig::figure_scale();
    cfg.cache_slots = 64 * 1024 * 8 / PAGE_BYTES; // half of one array
    let mut sys = checked_system(cfg);
    let v = StreamValidator {
        elements: 64 * 1024, // 3 x 512 KB arrays
        iterations: 4,
        scalar: 3.0,
    };
    let report = v.run(&mut sys).expect("stream run");
    let det = sys.detector_stats();
    let fpga = sys.fpga_stats();
    let bus = sys.bus_stats();
    let mut f = Figure::new(
        "Sec. VII-A",
        "Refresh-detection validation (STREAM aging test)",
    );
    f.push(Row::new(
        "result mismatches",
        "none observed",
        format!("{}", report.mismatches),
    ));
    f.push(Row::new(
        "memory errors / faults",
        "none observed",
        format!("{} bus violations", bus.violations_rejected),
    ));
    f.push(Row::new(
        "refreshes detected",
        "every REFRESH",
        format!("{}", det.detections),
    ));
    f.push(Row::new(
        "FPGA windows exercised",
        "all",
        format!("{} seen, {} used", fpga.windows_seen, fpga.windows_used),
    ));
    f.push(Row::new(
        "kernels verified",
        "every iteration",
        format!("{}", report.kernels_run),
    ));
    f
}

/// Figure 7: file-copy throughput over time.
pub fn fig7() -> Figure {
    let mut sys = figure_system();
    let cache = cache_bytes();
    let job = FileCopy {
        file_bytes: cache * 3, // paper: 20 GB file vs 15 GB of slots
        chunk_bytes: 64 << 10,
        source_bytes_per_s: 520e6,
        bin: SimDuration::from_ms(20.0),
        seed: 7,
    };
    let report = job.run(&mut sys).expect("copy run");
    let mut f = Figure::new("Figure 7", "File-copy throughput vs. data written");
    f.push(Row::new(
        "cached-phase peak",
        "518 MB/s (SSD-bound)",
        mbs(report.peak_mb_per_s()),
    ));
    f.push(Row::new(
        "sustained (cache full)",
        "68 MB/s",
        mbs(report.tail_mb_per_s()),
    ));
    f.push(
        Row::new(
            "collapse point",
            "15 GB (slot count)",
            format!("{} MB", cache >> 20),
        )
        .with_note("x-axis scales with capacity (1:256)"),
    );
    f.push(Row::new(
        "verified chunks corrupted",
        "0",
        format!("{}", report.corrupted_chunks),
    ));
    // Attach a short throughput series for plotting.
    let bins = report.series.bins_mb_per_s();
    let step = (bins.len() / 12).max(1);
    for (i, chunk) in bins.chunks(step).enumerate() {
        let avg = chunk.iter().sum::<f64>() / chunk.len() as f64;
        f.push(Row::new(format!("series[{i}]"), "—", mbs(avg)));
    }
    f
}

/// Figure 8: 4 KB random read/write, 1 thread — baseline vs Cached vs
/// Uncached.
pub fn fig8() -> Figure {
    let mut f = Figure::new(
        "Figure 8",
        "4KB random read/write performance (1 thread, qd1)",
    );
    let ops = 4_000;

    let mut pm = figure_pmem();
    let br = FioJob::rand_read_4k(128 << 20, ops)
        .run(&mut pm)
        .expect("fio");
    let bw = FioJob::rand_write_4k(128 << 20, ops)
        .run(&mut pm)
        .expect("fio");
    f.push(Row::new(
        "Baseline randread",
        "646 KIOPS / 2606 MB/s",
        format!("{} / {}", kiops(br.kiops()), mbs(br.mb_per_s())),
    ));
    f.push(Row::new(
        "Baseline randwrite",
        "576 KIOPS / 2360 MB/s",
        format!("{} / {}", kiops(bw.kiops()), mbs(bw.mb_per_s())),
    ));

    let span_cached = cache_bytes() / 2;
    let mut sys = figure_system();
    for p in 0..span_cached / PAGE_BYTES {
        sys.prefault(p).expect("prefault");
    }
    let cr = FioJob::rand_read_4k(span_cached, ops)
        .run(&mut sys)
        .expect("fio");
    let cw = FioJob::rand_write_4k(span_cached, ops)
        .run(&mut sys)
        .expect("fio");
    f.push(Row::new(
        "NVDC-Cached randread",
        "448 KIOPS / 1835 MB/s",
        format!("{} / {}", kiops(cr.kiops()), mbs(cr.mb_per_s())),
    ));
    f.push(Row::new(
        "NVDC-Cached randwrite",
        "438 KIOPS / 1796 MB/s",
        format!("{} / {}", kiops(cw.kiops()), mbs(cw.mb_per_s())),
    ));

    let mut sys = figure_system();
    let span_unc = cache_bytes(); // distinct span, all on NAND
    make_uncached(&mut sys, span_unc);
    let uops = 600;
    let ur = FioJob::rand_read_4k(span_unc, uops)
        .run(&mut sys)
        .expect("fio");
    let mut sys = figure_system();
    make_uncached(&mut sys, span_unc);
    let uw = FioJob::rand_write_4k(span_unc, uops)
        .run(&mut sys)
        .expect("fio");
    f.push(Row::new(
        "NVDC-Uncached randread",
        "13 KIOPS / 57.3 MB/s",
        format!("{:.1} KIOPS / {}", ur.kiops(), mbs(ur.mb_per_s())),
    ));
    f.push(Row::new(
        "NVDC-Uncached randwrite",
        "14.2 KIOPS / 58.3 MB/s",
        format!("{:.1} KIOPS / {}", uw.kiops(), mbs(uw.mb_per_s())),
    ));
    f.push(Row::new(
        "Uncached 4K latency",
        "69.8 us (8.9x tREFI)",
        format!("{:.1} us", ur.mean_latency().as_us_f64()),
    ));
    f
}

/// A prefaulted single-channel cached system behind the multi-channel
/// front-end (fig9 runs the cached mode through the scale-out executor).
fn cached_front(span: u64) -> MultiChannelSystem {
    nvdimmc_check::assert_config_clean(&NvdimmCConfig::figure_scale());
    let mut sys =
        MultiChannelSystem::new(MultiChannelConfig::single(NvdimmCConfig::figure_scale()))
            .expect("config is valid");
    for p in 0..span / PAGE_BYTES {
        sys.prefault(p).expect("prefault");
    }
    sys
}

/// Figure 9: thread-count scaling, *measured* by request-level concurrent
/// simulation: one closed-loop worker per simulated thread, device phases
/// queued on the `ShardExecutor`'s per-shard rings and served by its
/// worker pool. (Earlier revisions projected this figure from an analytic
/// closed-loop model; every row below is now a real run.)
pub fn fig9() -> Figure {
    let mut f = Figure::new(
        "Figure 9",
        "4KB random performance vs. thread count (measured, concurrent driver)",
    );
    let threads = [1u32, 2, 4, 8, 16];
    let span = cache_bytes() / 2;

    for &n in &threads {
        let mut pm = figure_pmem();
        let r = ConcurrentFio {
            job: FioJob::rand_read_4k(128 << 20, 1_200 * u64::from(n).min(4)),
            threads: n,
        }
        .run_baseline(&mut pm)
        .expect("fio");
        f.push(Row::new(
            format!("Baseline read, {n}t"),
            match n {
                1 => "646 KIOPS",
                8 => "2123 KIOPS (peak)",
                _ => "—",
            },
            kiops(r.kiops()),
        ));
    }
    for &n in &threads {
        let mut sys = cached_front(span);
        let r = ConcurrentFio {
            job: FioJob::rand_read_4k(span, 800 * u64::from(n).min(4)),
            threads: n,
        }
        .run_multichannel(&mut sys)
        .expect("fio");
        f.push(Row::new(
            format!("NVDC-Cached read, {n}t"),
            match n {
                1 => "448 KIOPS",
                8 => "1060 KIOPS (peak)",
                _ => "—",
            },
            kiops(r.kiops()),
        ));
    }
    for &n in &threads {
        let mut sys =
            MultiChannelSystem::new(MultiChannelConfig::single(NvdimmCConfig::figure_scale()))
                .expect("config is valid");
        make_uncached(&mut sys.shards_mut()[0], cache_bytes());
        let r = ConcurrentFio {
            job: FioJob::rand_read_4k(cache_bytes(), 100 * u64::from(n).min(3)),
            threads: n,
        }
        .run_multichannel(&mut sys)
        .expect("fio");
        f.push(Row::new(
            format!("NVDC-Uncached read, {n}t"),
            match n {
                1 => "~14 KIOPS",
                4 => "24.3 KIOPS (saturated)",
                _ => "—",
            },
            format!("{:.1} KIOPS", r.kiops()),
        ));
    }
    // Write series (the paper quotes the 16-thread cached-write peak).
    let mut pm = figure_pmem();
    let bw = ConcurrentFio {
        job: FioJob::rand_write_4k(128 << 20, 4_000),
        threads: 8,
    }
    .run_baseline(&mut pm)
    .expect("fio");
    f.push(Row::new("Baseline write, 8t", "—", kiops(bw.kiops())));
    let mut sys = cached_front(span);
    let cw = ConcurrentFio {
        job: FioJob::rand_write_4k(span, 4_000),
        threads: 16,
    }
    .run_multichannel(&mut sys)
    .expect("fio");
    f.push(Row::new(
        "NVDC-Cached write, 16t",
        "1127 KIOPS / 4615 MB/s",
        format!("{} / {}", kiops(cw.kiops()), mbs(cw.mb_per_s())),
    ));
    f
}

/// Figure 9-MC (beyond the paper): capacity and cached bandwidth scaling
/// at 1/2/4 channels — the multi-module deployment §VII-A sketches.
/// Every shard's bus trace from the measured run is verified with the
/// full `nvdimmc-check` pass, and the executor's request-conservation
/// invariant (`ShardExecutor::conservation`) is checked across shards.
pub fn fig9_multichannel() -> Figure {
    let mut f = Figure::new(
        "Figure 9-MC",
        "Cached 4KB random reads, 8 threads vs. channel count (measured; shard traces verified)",
    );
    let timing = paper_timing();
    let mut base_bw = 0.0;
    for &ch in &[1u32, 2, 4] {
        let cfg = MultiChannelConfig::new(NvdimmCConfig::figure_scale(), ch);
        nvdimmc_check::assert_config_clean(&cfg.shard);
        let mut sys = MultiChannelSystem::new(cfg).expect("config is valid");
        let span = (cache_bytes() / 2) * u64::from(ch);
        for p in 0..span / PAGE_BYTES {
            sys.prefault(p).expect("prefault");
        }
        let capacity = sys.capacity_bytes();
        sys.set_trace_capture(true);
        let r = ConcurrentFio {
            job: FioJob::rand_read_4k(span, 2_400),
            threads: 8,
        }
        .run_multichannel(&mut sys)
        .expect("fio");
        let traces = sys.set_trace_capture(false).expect("capture was on");
        let diagnostics: usize = nvdimmc_check::check_shards(&traces, &timing)
            .iter()
            .map(|rep| rep.diagnostics().len())
            .sum();
        let conservation = nvdimmc_check::check_conservation(&r.conservation);
        if ch == 1 {
            base_bw = r.mb_per_s();
        }
        f.push(Row::new(
            format!("{ch} ch: capacity"),
            "scales linearly (§VII-A)",
            format!("{} MB exported", capacity >> 20),
        ));
        f.push(Row::new(
            format!("{ch} ch: cached randread, 8t"),
            if ch == 1 {
                "1060 KIOPS (Fig. 9)"
            } else {
                "—"
            },
            format!(
                "{} / {} ({:.2}x)",
                kiops(r.kiops()),
                mbs(r.mb_per_s()),
                r.mb_per_s() / base_bw
            ),
        ));
        f.push(Row::new(
            format!("{ch} ch: verification"),
            "0 diagnostics, conserved",
            format!(
                "{diagnostics} diagnostics, {}",
                if conservation.is_clean() {
                    "conserved"
                } else {
                    "NOT conserved"
                }
            ),
        ));
    }
    f
}

/// Figure 10: access-granularity sweep (Cached vs baseline).
pub fn fig10() -> Figure {
    let mut f = Figure::new(
        "Figure 10",
        "4KB random reads/writes vs. access granularity (1 thread)",
    );
    let sizes: [u64; 7] = [128, 256, 512, 1024, 4096, 16384, 65536];
    let span = cache_bytes() / 2;

    let mut sys = figure_system();
    for p in 0..span / PAGE_BYTES {
        sys.prefault(p).expect("prefault");
    }
    let mut pm = figure_pmem();

    for &bs in &sizes {
        let ops = (2_000_000 / bs).clamp(200, 4_000);
        let job = FioJob {
            mode: RwMode::RandRead,
            block_size: bs,
            span,
            offset: 0,
            ops,
            seed: 11,
            zipf_theta: None,
        };
        let base = job.run(&mut pm).expect("fio");
        let nv = job.run(&mut sys).expect("fio");
        let paper = match bs {
            128 => "NVDC 2147 KIOPS (1.15x baseline)",
            4096 => "NVDC 448 KIOPS / 1835 MB/s",
            65536 => "NVDC 3050 MB/s",
            _ => "—",
        };
        f.push(Row::new(
            format!("bs={bs}B read"),
            paper,
            format!(
                "base {} / NVDC {} ({})",
                kiops(base.kiops()),
                kiops(nv.kiops()),
                mbs(nv.mb_per_s())
            ),
        ));
        let wjob = FioJob {
            mode: RwMode::RandWrite,
            ..job
        };
        let basew = wjob.run(&mut pm).expect("fio");
        let nvw = wjob.run(&mut sys).expect("fio");
        f.push(Row::new(
            format!("bs={bs}B write"),
            "—",
            format!(
                "base {} / NVDC {} ({})",
                kiops(basew.kiops()),
                kiops(nvw.kiops()),
                mbs(nvw.mb_per_s())
            ),
        ));
    }
    f
}

/// Figure 11: TPC-H query time on NVDIMM-C normalised to baseline, plus
/// the replacement-policy hit-rate study.
pub fn fig11() -> Figure {
    let mut f = Figure::new(
        "Figure 11",
        "TPC-H query time normalised to baseline (22 queries)",
    );
    // A smaller cache keeps the 22-query sweep quick; footprints scale
    // with it.
    let cache = 16u64 << 20;
    let runner = TpchRunner::new(cache);
    for q in tpch::queries() {
        let mut cfg = NvdimmCConfig::figure_scale();
        cfg.cache_slots = cache / PAGE_BYTES;
        let mut sys = checked_system(cfg);
        let nv = runner.run_query(&mut sys, &q).expect("query");
        let mut pm = figure_pmem();
        let base = runner.run_query(&mut pm, &q).expect("query");
        let r = nv.elapsed.as_secs_f64() / base.elapsed.as_secs_f64();
        let paper = match q.id {
            1 => "3.3x",
            20 => "78x",
            _ => "—",
        };
        f.push(Row::new(format!("Q{}", q.id), paper, ratio(r)));
    }
    // Replacement-policy study (paper: LRU reaches 78.7–99.3% from 1 GB
    // to 16 GB of cache; here 1/16..16/16 of the aggregate footprint).
    let agg = tpch::aggregate_profile();
    let foot_pages = 16 * 1024;
    for frac in [1u64, 2, 4, 8, 16] {
        let cache_pages = foot_pages * frac / 16;
        let hr = tpch::hit_rate_study(&agg, cache_pages, EvictionPolicyKind::Lru, foot_pages, 5);
        let paper = match frac {
            1 => "78.7% (1 GB)",
            16 => "99.3% (16 GB)",
            _ => "—",
        };
        f.push(Row::new(
            format!("LRU hit rate, cache {frac}/16 of footprint"),
            paper,
            format!("{:.1}%", hr * 100.0),
        ));
    }
    f
}

/// Figure 12: hypothetical-device Uncached bandwidth vs. tD.
pub fn fig12() -> Figure {
    let mut f = Figure::new(
        "Figure 12",
        "Uncached 4KB randread bandwidth vs. NVM latency tD (hypothetical device)",
    );
    let span = cache_bytes() * 2;
    for (td_us, paper) in [
        (0.0, "1503 MB/s"),
        (1.85, "914 MB/s"),
        (3.9, "681 MB/s"),
        (7.8, "451 MB/s"),
    ] {
        let cfg = NvdimmCConfig::figure_scale().with_hypothetical(SimDuration::from_us(td_us));
        let mut sys = checked_system(cfg);
        let report = FioJob::rand_read_4k(span, 2_000)
            .run(&mut sys)
            .expect("fio");
        f.push(
            Row::new(format!("tD = {td_us} us"), paper, mbs(report.mb_per_s())).with_note(
                if td_us == 0.0 {
                    "mapping-management overhead only".into()
                } else {
                    String::new()
                },
            ),
        );
    }
    f.push(
        Row::new("Cached reference", "1835 MB/s", "see Figure 8").with_note(
            "paper text prescribes 3 waits/miss but its own data fits ~1 tD/miss; \
             we model the measured behaviour (see EXPERIMENTS.md)",
        ),
    );
    f
}

/// Figure 13: host-side Cached bandwidth vs. refresh interval.
pub fn fig13() -> Figure {
    let mut f = Figure::new(
        "Figure 13",
        "Cached 4KB randread bandwidth vs. tREFI (host side)",
    );
    let span = cache_bytes() / 2;
    for (trefi_us, paper) in [
        (7.8, "1835 MB/s"),
        (3.9, "1691 MB/s (-8%)"),
        (1.95, "1530 MB/s (-17%)"),
    ] {
        let cfg = NvdimmCConfig::figure_scale().with_trefi(SimDuration::from_us(trefi_us));
        let mut sys = checked_system(cfg);
        for p in 0..span / PAGE_BYTES {
            sys.prefault(p).expect("prefault");
        }
        let report = FioJob::rand_read_4k(span, 3_000)
            .run(&mut sys)
            .expect("fio");
        f.push(Row::new(
            format!("tREFI = {trefi_us} us"),
            paper,
            mbs(report.mb_per_s()),
        ));
    }
    f
}

/// §VII-B5: mixed-load IMDB validation at 500 concurrent users.
pub fn mixedload_validation() -> Figure {
    let mut sys = figure_system();
    let report = MixedLoad::paper_users().run(&mut sys).expect("mixed load");
    let mut f = Figure::new("Sec. VII-B5", "Mixed-load IMDB validation");
    f.push(Row::new(
        "concurrent users",
        "500",
        format!("{}", report.users),
    ));
    f.push(Row::new(
        "data corruption",
        "none",
        format!("{} validation errors", report.validation_errors),
    ));
    f.push(Row::new(
        "transactions",
        "—",
        format!("{}", report.transactions),
    ));
    f
}

/// Design-choice ablations called out in DESIGN.md.
pub fn ablations() -> Figure {
    let mut f = Figure::new(
        "Ablations",
        "Design-choice studies (beyond the paper's data)",
    );
    let span = cache_bytes();
    let uncached_bw = |mutate: &dyn Fn(&mut NvdimmCConfig)| {
        let mut cfg = NvdimmCConfig::figure_scale();
        mutate(&mut cfg);
        let mut sys = checked_system(cfg);
        make_uncached(&mut sys, span);
        FioJob::rand_read_4k(span, 300)
            .run(&mut sys)
            .expect("fio")
            .mb_per_s()
    };

    let poc = uncached_bw(&|_| {});
    f.push(Row::new(
        "Uncached, PoC FSM (split WB+CF)",
        "57.3 MB/s",
        mbs(poc),
    ));
    let merged = uncached_bw(&|c| c.merge_wb_cf = true);
    f.push(
        Row::new("Uncached, merged WB+CF command", "—", mbs(merged))
            .with_note("paper §VII-C optimisation 4"),
    );
    let asic = uncached_bw(&|c| c.perf = PerfParams::asic());
    f.push(
        Row::new("Uncached, ASIC-class FSM", "—", mbs(asic))
            .with_note("paper §VII-C: no CPU in the data path"),
    );
    let asic_merged = uncached_bw(&|c| {
        c.perf = PerfParams::asic();
        c.merge_wb_cf = true;
        c.window_xfer_bytes = 8192;
    });
    f.push(
        Row::new(
            "Uncached, ASIC + merged + 8KB windows",
            "—",
            mbs(asic_merged),
        )
        .with_note("paper §VII-C optimisations 1+3+4 combined"),
    );

    // Eviction policies on a reuse-heavy trace (hit rate).
    let reuse = tpch::QueryProfile {
        id: 13,
        footprint_of_cache: 2.0,
        cold_footprint_of_cache: 2.0,
        scan_passes: 0.1,
        rand_ops_per_mb: 400.0,
        rand_bytes: 4096,
        zipf_theta: 0.8,
        write_fraction: 0.0,
    };
    for policy in [
        EvictionPolicyKind::Lrc,
        EvictionPolicyKind::Clock,
        EvictionPolicyKind::Lru,
    ] {
        let hr = tpch::hit_rate_study(&reuse, 2048, policy, 8192, 3);
        f.push(Row::new(
            format!("hit rate, {policy:?} policy"),
            if policy == EvictionPolicyKind::Lrc {
                "paper's PoC policy"
            } else {
                "—"
            },
            format!("{:.1}%", hr * 100.0),
        ));
    }

    f
}

/// Runs everything, in paper order.
pub fn all() -> Vec<Figure> {
    vec![
        table1(),
        table2(),
        validation(),
        fig7(),
        fig8(),
        fig9(),
        fig9_multichannel(),
        fig10(),
        fig11(),
        fig12(),
        fig13(),
        mixedload_validation(),
        ablations(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        assert!(table1().render().contains("1250 ns"));
        assert!(table2().render().contains("FIO"));
    }

    #[test]
    fn fig13_shape_monotone() {
        let f = fig13();
        let vals: Vec<f64> = f
            .rows
            .iter()
            .map(|r| {
                r.measured
                    .trim_end_matches(" MB/s")
                    .parse::<f64>()
                    .expect("MB/s value")
            })
            .collect();
        assert!(
            vals[0] > vals[1] && vals[1] > vals[2],
            "host bandwidth must fall as tREFI shrinks: {vals:?}"
        );
    }

    #[test]
    fn fig12_shape_monotone() {
        let f = fig12();
        let vals: Vec<f64> = f
            .rows
            .iter()
            .take(4)
            .map(|r| {
                r.measured
                    .trim_end_matches(" MB/s")
                    .parse::<f64>()
                    .expect("MB/s value")
            })
            .collect();
        assert!(
            vals.windows(2).all(|w| w[0] > w[1]),
            "bandwidth must fall with tD: {vals:?}"
        );
        // The paper's headline: ~900 MB/s at 1.85us.
        assert!(
            (600.0..1200.0).contains(&vals[1]),
            "tD=1.85us gives {} MB/s",
            vals[1]
        );
    }
}
