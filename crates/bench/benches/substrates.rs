//! Microbenchmarks of the substrate hot paths: the components every
//! figure run leans on. Regressions here slow the whole harness.

use criterion::{criterion_group, criterion_main, Criterion};
use nvdimmc_core::refresh::RefreshDetector;
use nvdimmc_ddr::{
    BankAddr, BusMaster, CaPins, Command, DramDevice, Imc, Io, SharedBus, SpeedBin, TimingParams,
};
use nvdimmc_nand::ecc::{crc32, Ecc};
use nvdimmc_nand::{Nvmc, NvmcConfig, PageCodec};
use nvdimmc_sim::{SimDuration, SimTime};

fn bench_ecc(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecc");
    g.bench_function("secded_encode_word", |b| {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        b.iter(|| {
            x = x.rotate_left(1);
            Ecc::encode(x)
        });
    });
    g.bench_function("page_codec_roundtrip_4k", |b| {
        let codec = PageCodec::new(4096);
        let page = vec![0xA7u8; 4096];
        b.iter(|| {
            let stored = codec.encode(&page).unwrap();
            codec.decode(&stored).unwrap()
        });
    });
    g.bench_function("crc32_4k", |b| {
        let page = vec![0x5Cu8; 4096];
        b.iter(|| crc32(&page));
    });
    g.finish();
}

fn bench_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("refresh_detector");
    let refresh = CaPins::encode(&Command::Refresh);
    let other = CaPins::encode(&Command::PrechargeAll);
    g.bench_function("feed_command_stream", |b| {
        let mut det = RefreshDetector::new();
        b.iter(|| {
            det.feed_command(&other);
            det.feed_command(&refresh)
        });
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_substrate");
    g.bench_function("imc_4k_read", |b| {
        let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        let mut bus = SharedBus::new(DramDevice::new(timing, 1 << 24));
        let mut imc = Imc::new(&timing);
        let mut buf = vec![0u8; 4096];
        let mut t = SimTime::from_ns(100);
        let mut addr = 0u64;
        b.iter(|| {
            t = imc
                .transfer(&mut bus, t, addr, Io::Read(&mut buf), SimDuration::ZERO)
                .unwrap();
            addr = (addr + 4096) % (1 << 23);
            t
        });
    });
    g.bench_function("bus_issue_act_rd_pre", |b| {
        let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
        let mut bus = SharedBus::new(DramDevice::new(timing, 1 << 24));
        let bank = BankAddr::new(0, 0);
        let mut t = SimTime::from_ns(100);
        b.iter(|| {
            let rw = bus
                .issue(BusMaster::HostImc, t, Command::Activate { bank, row: 1 })
                .unwrap();
            bus.issue(
                BusMaster::HostImc,
                rw,
                Command::Read {
                    bank,
                    col: 0,
                    auto_precharge: false,
                },
            )
            .unwrap();
            let pre = rw + timing.tras;
            bus.issue(BusMaster::HostImc, pre, Command::Precharge { bank })
                .unwrap();
            t = pre + timing.trp;
            t
        });
    });
    g.finish();
}

fn bench_nand(c: &mut Criterion) {
    let mut g = c.benchmark_group("nand_substrate");
    g.sample_size(20);
    g.bench_function("nvmc_write_read_page", |b| {
        let mut nvmc = Nvmc::new(NvmcConfig::small_for_tests()).unwrap();
        let page = vec![0x3Du8; 4096];
        let mut t = SimTime::ZERO;
        let mut lpn = 0u64;
        b.iter(|| {
            t = nvmc.write_page(lpn % 512, &page, t).unwrap();
            let (data, t2) = nvmc.read_page(lpn % 512, t).unwrap();
            t = t2;
            lpn += 1;
            data
        });
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_ecc,
    bench_detector,
    bench_dram,
    bench_nand
);
criterion_main!(substrates);
