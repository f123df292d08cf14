//! Synthetic TPC-H query profiles (paper §VII-B5, Figure 11).
//!
//! The paper runs TPC-H SF100 on SAP HANA over XFS-DAX. Neither HANA nor
//! the TPC-H data are reproducible here, so each of the 22 queries is
//! modelled by its *storage access pattern* — the only thing the memory
//! device sees: a sequential-scan volume, a population of random accesses
//! with a size and skew, and a write fraction. The two anchors the paper
//! publishes are Q1 (sequential table scan, ≈3.3× slower than baseline)
//! and Q20 ("many small accesses", ≈78× slower); the remaining profiles
//! interpolate based on the queries' published operator mixes
//! (Kandaswamy & Knighten, IPDS 2000 — the paper's reference 30).
//!
//! Footprints are expressed relative to the DRAM-cache capacity so the
//! experiment scales with the simulated system.

use nvdimmc_core::{BlockDevice, CoreError, EvictionPolicyKind};
use nvdimmc_sim::{DeterministicRng, SimDuration, Zipf};
use serde::{Deserialize, Serialize};

/// Access-pattern profile of one TPC-H query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryProfile {
    /// Query number (1..=22).
    pub id: u8,
    /// Touched data relative to the DRAM-cache capacity (1.0 = exactly
    /// the cache size; >1 cannot fully reside).
    pub footprint_of_cache: f64,
    /// Sequential-scan passes over the footprint.
    pub scan_passes: f64,
    /// Random accesses per scanned MB.
    pub rand_ops_per_mb: f64,
    /// Bytes per random access (small for index-nested-loop joins).
    pub rand_bytes: u64,
    /// Region the random accesses draw from, relative to the cache
    /// (≥ `footprint_of_cache`): index probes reach beyond the hot
    /// scanned columns into cold table data.
    pub cold_footprint_of_cache: f64,
    /// Zipf skew of the random accesses (0 = uniform).
    pub zipf_theta: f64,
    /// Fraction of accesses that write (materialisation, temps).
    pub write_fraction: f64,
}

/// The 22 query profiles.
///
/// Q1/Q6: scan-dominated aggregations with warm reuse. Q2/Q11/Q16/Q17/
/// Q20/Q21: small-row index traffic over footprints that defeat the
/// cache. Others interpolate.
pub fn queries() -> Vec<QueryProfile> {
    let q = |id, foot, cold, passes, rpm, rb, theta, wf| QueryProfile {
        id,
        footprint_of_cache: foot,
        cold_footprint_of_cache: cold,
        scan_passes: passes,
        rand_ops_per_mb: rpm,
        rand_bytes: rb,
        zipf_theta: theta,
        write_fraction: wf,
    };
    vec![
        // Q1: pricing summary — one big scan over a compact, resident
        // column set, plus a sprinkle of cold probes.
        q(1, 0.85, 3.0, 4.0, 7.0, 4096, 0.2, 0.05),
        // Q2: minimum-cost supplier — small-row lookups over cold parts.
        q(2, 0.90, 3.0, 0.3, 60.0, 512, 0.4, 0.05),
        q(3, 0.95, 2.0, 1.5, 15.0, 2048, 0.5, 0.08),
        q(4, 0.90, 2.0, 1.2, 8.0, 2048, 0.5, 0.05),
        q(5, 0.95, 2.5, 1.5, 18.0, 1024, 0.5, 0.08),
        // Q6: pure predicate scan, compact columns.
        q(6, 0.70, 2.0, 3.0, 1.5, 4096, 0.2, 0.02),
        q(7, 0.95, 2.5, 1.2, 20.0, 1024, 0.5, 0.08),
        q(8, 0.95, 3.0, 1.0, 25.0, 1024, 0.5, 0.08),
        // Q9: part/supplier join across the whole schema — big and random.
        q(9, 0.95, 4.0, 1.0, 45.0, 1024, 0.3, 0.10),
        q(10, 0.95, 2.0, 1.2, 16.0, 2048, 0.5, 0.08),
        q(11, 0.90, 3.0, 0.5, 45.0, 512, 0.4, 0.05),
        q(12, 0.90, 2.0, 1.5, 6.0, 4096, 0.4, 0.05),
        q(13, 0.95, 2.0, 1.0, 22.0, 1024, 0.6, 0.10),
        q(14, 0.85, 2.0, 1.5, 5.0, 4096, 0.4, 0.05),
        q(15, 0.85, 2.0, 2.0, 4.0, 4096, 0.4, 0.08),
        q(16, 0.90, 3.5, 0.4, 55.0, 512, 0.4, 0.05),
        // Q17: correlated subquery over parts — small random reads, cold.
        q(17, 0.90, 4.0, 0.3, 70.0, 512, 0.2, 0.05),
        q(18, 0.95, 2.5, 1.5, 18.0, 2048, 0.5, 0.10),
        q(19, 0.95, 2.5, 1.0, 28.0, 1024, 0.4, 0.05),
        // Q20: "results in many small accesses" (paper) — tiny rows, huge
        // cold region, no locality: the LRC worst case.
        q(20, 0.50, 5.0, 0.2, 280.0, 256, 0.05, 0.05),
        // Q21: suppliers who kept orders waiting — heavy random self-join.
        q(21, 0.95, 4.5, 0.5, 90.0, 512, 0.2, 0.08),
        q(22, 0.90, 3.0, 0.5, 35.0, 1024, 0.4, 0.05),
    ]
}

/// Figure 11 runner.
#[derive(Debug, Clone, Copy)]
pub struct TpchRunner {
    /// DRAM-cache capacity the footprints scale against.
    pub cache_bytes: u64,
    /// Sequential-scan chunk size.
    pub chunk_bytes: u64,
    /// Seed.
    pub seed: u64,
}

/// Result for one query on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TpchReport {
    /// Query number.
    pub id: u8,
    /// Elapsed simulated time.
    pub elapsed: SimDuration,
    /// Bytes accessed.
    pub bytes: u64,
    /// Operations issued.
    pub ops: u64,
}

impl TpchRunner {
    /// Creates a runner scaled to `cache_bytes`.
    pub fn new(cache_bytes: u64) -> Self {
        TpchRunner {
            cache_bytes,
            chunk_bytes: 64 << 10,
            seed: 42,
        }
    }

    /// Runs one query against `dev`, including a single warm-up touch of
    /// the hot region (HANA keeps its column store resident between
    /// queries; the paper measures steady-state transaction times).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn run_query(
        &self,
        dev: &mut impl BlockDevice,
        profile: &QueryProfile,
    ) -> Result<TpchReport, CoreError> {
        let footprint =
            ((self.cache_bytes as f64 * profile.footprint_of_cache) as u64).max(self.chunk_bytes);
        let footprint = footprint.min(dev.capacity_bytes() / 3).max(4096) / 4096 * 4096;
        let cold = ((self.cache_bytes as f64 * profile.cold_footprint_of_cache) as u64)
            .max(footprint)
            .min(dev.capacity_bytes() / 4 * 3)
            / 4096
            * 4096;
        let mut rng = DeterministicRng::new(self.seed ^ u64::from(profile.id));
        let mut chunk = vec![0u8; self.chunk_bytes as usize];

        // Database load: the tables exist on the device before queries run
        // (HANA persists its column store), so cold probes hit real
        // Z-NAND-backed pages, not fresh zero-filled ones.
        let mut off = 0;
        while off < cold {
            let n = self.chunk_bytes.min(cold - off) as usize;
            rng.fill_bytes(&mut chunk[..n]);
            dev.write_at(off, &chunk[..n])?;
            off += n as u64;
        }
        // Warm-up: one pass over the hot set, as in a live IMDB.
        let mut off = 0;
        while off < footprint {
            let n = self.chunk_bytes.min(footprint - off) as usize;
            dev.read_at(off, &mut chunk[..n])?;
            off += n as u64;
        }

        let t0 = dev.now();
        let mut bytes = 0u64;
        let mut ops = 0u64;
        // Sequential scan volume.
        let scan_bytes = (footprint as f64 * profile.scan_passes) as u64;
        let mut scanned = 0u64;
        let mut pos = 0u64;
        while scanned < scan_bytes {
            let n = self.chunk_bytes.min(scan_bytes - scanned) as usize;
            if rng.gen_bool(profile.write_fraction) {
                rng.fill_bytes(&mut chunk[..n]);
                dev.write_at(pos, &chunk[..n])?;
            } else {
                dev.read_at(pos, &mut chunk[..n])?;
            }
            scanned += n as u64;
            bytes += n as u64;
            ops += 1;
            pos = (pos + n as u64) % footprint;
        }
        // Random accesses over the cold region.
        let rand_ops = ((footprint as f64 / 1e6)
            * profile.rand_ops_per_mb
            * profile.scan_passes.max(1.0)) as u64;
        let population = (cold / profile.rand_bytes.max(1)).max(1);
        let zipf = (profile.zipf_theta > 0.0).then(|| Zipf::new(population, profile.zipf_theta));
        for _ in 0..rand_ops {
            let idx = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.gen_range(0..population),
            };
            let off = idx * profile.rand_bytes;
            let n = profile.rand_bytes as usize;
            if rng.gen_bool(profile.write_fraction) {
                rng.fill_bytes(&mut chunk[..n]);
                dev.write_at(off, &chunk[..n])?;
            } else {
                dev.read_at(off, &mut chunk[..n])?;
            }
            bytes += n as u64;
            ops += 1;
        }
        Ok(TpchReport {
            id: profile.id,
            elapsed: dev.now().since(t0),
            bytes,
            ops,
        })
    }
}

/// An aggregate TPC-H access profile for the replacement-policy study:
/// the paper's in-house simulation reports LRU hit rates of 78.7–99.3%
/// already at a 1 GB cache (1/16 of the DRAM), implying strongly skewed
/// page popularity across the query mix.
pub fn aggregate_profile() -> QueryProfile {
    QueryProfile {
        id: 0,
        footprint_of_cache: 1.0,
        cold_footprint_of_cache: 1.0,
        scan_passes: 0.05,
        rand_ops_per_mb: 600.0,
        rand_bytes: 4096,
        zipf_theta: 0.97,
        write_fraction: 0.1,
    }
}

/// The paper's in-house replacement-policy study: replay a query's page
/// trace into a standalone cache model (no timing) and report the hit
/// rate — used for "LRU achieves 78.7–99.3% as the cache grows from 1 GB
/// to 16 GB".
pub fn hit_rate_study(
    profile: &QueryProfile,
    cache_pages: u64,
    policy: EvictionPolicyKind,
    trace_footprint_pages: u64,
    seed: u64,
) -> f64 {
    use nvdimmc_core::DramCache;
    let mut cache = DramCache::new(cache_pages, policy);
    let mut rng = DeterministicRng::new(seed ^ u64::from(profile.id));
    let population = trace_footprint_pages.max(1);
    let zipf = (profile.zipf_theta > 0.0).then(|| Zipf::new(population, profile.zipf_theta));
    // Interleave scan pages and random pages in the profile's ratio.
    let scan_pages = (population as f64 * profile.scan_passes) as u64;
    let rand_ops = ((population * 4096) as f64 / 1e6 * profile.rand_ops_per_mb) as u64;
    let round = scan_pages + rand_ops;
    let rand_every = (round / rand_ops.max(1)).max(1);
    let mut seq = 0u64;
    // Run two unmeasured warm rounds, then measure the third. The warm
    // rounds only fill the cache; they do not exclude compulsory misses:
    // a page the warm rounds never touched still misses on its first touch
    // in the measured round (4.3 % of its accesses at 16/16, ROADMAP item 9).
    let mut measured_hits = 0u64;
    let mut measured_total = 0u64;
    for round_idx in 0..3 {
        for i in 0..round {
            let page = if i % rand_every == 0 && rand_ops > 0 {
                match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(0..population),
                }
            } else {
                seq = (seq + 1) % population;
                seq
            };
            let hit = cache.lookup(page).is_some();
            if !hit {
                let slot = cache.take_free_slot().or_else(|| {
                    cache.pick_victim().map(|(victim, _, _)| {
                        cache.evict(victim);
                        victim
                    })
                });
                // A zero-slot cache caches nothing; the access stays a miss.
                if let Some(slot) = slot {
                    cache.fill(slot, page);
                }
            }
            if round_idx == 2 {
                measured_total += 1;
                if hit {
                    measured_hits += 1;
                }
            }
        }
    }
    if measured_total == 0 {
        return 0.0;
    }
    measured_hits as f64 / measured_total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_core::{EmulatedPmem, NvdimmCConfig, PerfParams, System};
    use nvdimmc_ddr::{SpeedBin, TimingParams};

    #[test]
    fn all_22_queries_defined() {
        let qs = queries();
        assert_eq!(qs.len(), 22);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(usize::from(q.id), i + 1);
            assert!(q.footprint_of_cache > 0.0);
            assert!((0.0..=1.0).contains(&q.write_fraction));
        }
    }

    #[test]
    fn q20_slower_than_q1_relative_to_baseline() {
        // The Figure 11 headline: Q20's small cold accesses hurt NVDIMM-C
        // far more than Q1's warm scan.
        let cache_bytes = 2u64 << 20;
        let runner = TpchRunner::new(cache_bytes);
        let qs = queries();
        let q1 = qs[0];
        let q20 = qs[19];

        let ratio = |q: &QueryProfile| {
            let mut cfg = NvdimmCConfig::small_for_tests();
            cfg.cache_slots = cache_bytes / 4096;
            let mut sys = System::new(cfg).unwrap();
            let nv = runner.run_query(&mut sys, q).unwrap();
            let mut pm = EmulatedPmem::new(
                64 << 20,
                TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600),
                PerfParams::poc(),
            )
            .unwrap();
            let base = runner.run_query(&mut pm, q).unwrap();
            nv.elapsed.as_secs_f64() / base.elapsed.as_secs_f64()
        };

        let r1 = ratio(&q1);
        let r20 = ratio(&q20);
        assert!(r1 >= 1.0, "NVDIMM-C cannot beat the DRAM baseline: {r1:.1}");
        assert!(
            r20 > r1 * 3.0,
            "Q20 ({r20:.1}x) must be far worse than Q1 ({r1:.1}x)"
        );
    }

    #[test]
    fn hit_rate_improves_with_cache_size() {
        // §VII-B5: LRU hit rate climbs from ~79% to ~99% as the cache
        // grows from 1 GB to 16 GB (scaled here).
        let q20 = queries()[19];
        let foot = 4096;
        let small = hit_rate_study(&q20, 256, EvictionPolicyKind::Lru, foot, 1);
        let large = hit_rate_study(&q20, 4096, EvictionPolicyKind::Lru, foot, 1);
        assert!(large > small, "hit rate: {small:.3} -> {large:.3}");
        assert!(large > 0.9, "full-size cache should mostly hit: {large:.3}");
    }

    #[test]
    fn lru_beats_lrc_in_study() {
        // A reuse-heavy (skewed random) pattern is where recency pays;
        // pure scans thrash both policies equally.
        let reuse_heavy = QueryProfile {
            id: 13,
            footprint_of_cache: 2.0,
            cold_footprint_of_cache: 2.0,
            scan_passes: 0.1,
            rand_ops_per_mb: 400.0,
            rand_bytes: 4096,
            zipf_theta: 0.8,
            write_fraction: 0.0,
        };
        let foot = 2048;
        let lrc = hit_rate_study(&reuse_heavy, 512, EvictionPolicyKind::Lrc, foot, 2);
        let lru = hit_rate_study(&reuse_heavy, 512, EvictionPolicyKind::Lru, foot, 2);
        assert!(
            lru > lrc + 0.02,
            "LRU {lru:.3} should clearly beat LRC {lrc:.3} on reuse-heavy traffic"
        );
    }
}
