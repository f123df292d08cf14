//! Scale-out request path at 256 channels: the batched executor driving
//! a mixed fio load (70% reads), with the per-shard utilisation ledger
//! the executor keeps while it serves.
//!
//! Each channel gets a cached working-set slice and four closed-loop
//! threads; requests fan out through the interleave map onto bounded
//! per-shard queues, coalesce, and are served shard by shard, each shard
//! skipping its idle time on its own clock. The run is deterministic.
//!
//! ```text
//! cargo run --release --example scaleout
//! ```

use nvdimmc::core::{MultiChannelConfig, MultiChannelSystem, NvdimmCConfig, PAGE_BYTES};
use nvdimmc::workloads::{ConcurrentFio, FioJob, RwMode};

const CHANNELS: u32 = 256;
const THREADS: u32 = 4 * CHANNELS;
const PAGES_PER_CHANNEL: u64 = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MultiChannelConfig::new(NvdimmCConfig::small_for_tests(), CHANNELS);
    let mut sys = MultiChannelSystem::new(cfg)?;
    let span = PAGES_PER_CHANNEL * PAGE_BYTES * u64::from(CHANNELS);
    println!("prefaulting {} MB over {CHANNELS} channels...", span >> 20);
    for page in 0..span / PAGE_BYTES {
        sys.prefault(page)?;
    }

    let job = FioJob {
        mode: RwMode::RandRw { read_fraction: 0.7 },
        ..FioJob::rand_read_4k(span, u64::from(THREADS) * 16)
    };
    println!(
        "mixed 4K load (70% reads), {THREADS} threads, {} ops...\n",
        job.ops
    );
    let report = ConcurrentFio {
        job,
        threads: THREADS,
    }
    .run_multichannel(&mut sys)?;

    println!(
        "{:>12.0} ops/s   p50 {:.2} us   p99 {:.2} us   mean {:.2} us",
        report.kiops() * 1e3,
        report.latency_percentile(50.0).as_us_f64(),
        report.latency_percentile(99.0).as_us_f64(),
        report.mean_latency().as_us_f64(),
    );
    println!(
        "executor: {} accepted, {} served, {} DMAs ({} requests rode a coalesced DMA), {} ring bounces\n",
        report.exec.accepted,
        report.exec.served,
        report.exec.dmas,
        report.exec.coalesced_reqs,
        report.exec.rejected_ring_full,
    );

    // Utilisation table: 16 columns x 16 rows of per-shard busy
    // fractions, plus the distribution's corners.
    println!("per-shard utilisation (row = 16 consecutive shards):");
    for row in report.utilisation.chunks(16) {
        let cells: Vec<String> = row.iter().map(|u| format!("{:>4.0}%", u * 100.0)).collect();
        println!("  {}", cells.join(" "));
    }
    let (mut lo, mut hi, mut sum) = (f64::MAX, f64::MIN, 0.0);
    for &u in &report.utilisation {
        lo = lo.min(u);
        hi = hi.max(u);
        sum += u;
    }
    println!(
        "\nutilisation min {:.1}% / mean {:.1}% / max {:.1}% over {} shards",
        lo * 100.0,
        sum / report.utilisation.len() as f64 * 100.0,
        hi * 100.0,
        report.utilisation.len()
    );
    let conserved = report.conservation.iter().all(|&(enq, done)| enq == done);
    println!(
        "conservation: every shard completed what it accepted — {}",
        if conserved { "yes" } else { "NO" }
    );
    Ok(())
}
