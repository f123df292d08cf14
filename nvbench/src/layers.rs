//! Per-layer counters read through the simulator's public stats
//! accessors, summed over shards. A timed phase reports the difference
//! of two snapshots, so set-up work never leaks into the counts.

use nvdimmc_core::ChannelShard;

/// One snapshot of every per-layer counter the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Counts {
    /// Host reads completed by the shards.
    pub reads: u64,
    /// Host writes completed by the shards.
    pub writes: u64,
    /// Misses on never-written pages served by CPU zero-fill.
    pub zero_fills: u64,
    /// Commands the host iMC drove onto the bus.
    pub host_cmds: u64,
    /// Commands the NVMC drove onto the bus.
    pub nvmc_cmds: u64,
    /// Refreshes the iMC issued (REF or REFpb).
    pub refreshes: u64,
    /// Refreshes the iMC skipped.
    pub refreshes_elided: u64,
    /// iMC row-buffer hits.
    pub row_hits: u64,
    /// iMC row-buffer misses.
    pub row_misses: u64,
    /// Simulated host wait on refresh, in picoseconds.
    pub refresh_stall_ps: u64,
    /// Illegal commands the bus refused.
    pub violations_rejected: u64,
    /// DRAM-cache lookups that hit.
    pub cache_hits: u64,
    /// DRAM-cache lookups that missed.
    pub cache_misses: u64,
    /// DRAM-cache evictions.
    pub evictions: u64,
    /// Evictions of dirty slots.
    pub dirty_evictions: u64,
    /// Refresh windows the FPGA saw.
    pub windows_seen: u64,
    /// Refresh windows the FPGA moved data in.
    pub windows_used: u64,
    /// Windows skipped because the FPGA was busy.
    pub windows_skipped_busy: u64,
    /// Per-bank windows on a bank the queued work did not want.
    pub windows_wrong_bank: u64,
    /// Cachefills the FPGA completed.
    pub cachefills: u64,
    /// Writebacks the FPGA completed.
    pub writebacks: u64,
    /// Bytes the FPGA moved by DMA.
    pub dma_bytes: u64,
    /// Refreshes the snoop detector recognised.
    pub detections: u64,
    /// Per-bank refreshes the snoop detector recognised.
    pub pb_detections: u64,
    /// NAND page reads.
    pub nand_reads: u64,
    /// NAND page writes.
    pub nand_writes: u64,
    /// NAND writes that stalled on a full buffer.
    pub buffer_stalls: u64,
    /// Host page writes into the FTL.
    pub ftl_host_writes: u64,
    /// Pages GC relocated.
    pub gc_moved_pages: u64,
    /// ECC words corrected.
    pub words_corrected: u64,
    /// FTL reads of never-written pages.
    pub unmapped_reads: u64,
}

impl Counts {
    /// Sums every counter over `shards`.
    pub fn of(shards: &[ChannelShard]) -> Self {
        let mut c = Counts::default();
        for s in shards {
            let st = s.stats();
            let bus = s.bus_stats();
            let imc = s.imc_stats();
            let cache = s.cache_stats();
            let fpga = s.fpga_stats();
            let det = s.detector_stats();
            let nvmc = s.nvmc_stats();
            let ftl = s.ftl_stats();
            c.reads += st.reads;
            c.writes += st.writes;
            c.zero_fills += st.zero_fills;
            c.host_cmds += bus.host_commands;
            c.nvmc_cmds += bus.nvmc_commands;
            c.refreshes += imc.refreshes;
            c.refreshes_elided += imc.refreshes_elided;
            c.row_hits += imc.row_hits;
            c.row_misses += imc.row_misses;
            c.refresh_stall_ps += imc.refresh_stall.as_ps();
            c.violations_rejected += bus.violations_rejected;
            c.cache_hits += cache.hits;
            c.cache_misses += cache.misses;
            c.evictions += cache.evictions;
            c.dirty_evictions += cache.dirty_evictions;
            c.windows_seen += fpga.windows_seen;
            c.windows_used += fpga.windows_used;
            c.windows_skipped_busy += fpga.windows_skipped_busy;
            c.windows_wrong_bank += fpga.windows_wrong_bank;
            c.cachefills += fpga.cachefills;
            c.writebacks += fpga.writebacks;
            c.dma_bytes += fpga.dma_bytes;
            c.detections += det.detections;
            c.pb_detections += det.pb_detections;
            c.nand_reads += nvmc.reads;
            c.nand_writes += nvmc.writes;
            c.buffer_stalls += nvmc.buffer_stalls;
            c.ftl_host_writes += ftl.host_writes;
            c.gc_moved_pages += ftl.gc_moved_pages;
            c.words_corrected += ftl.words_corrected;
            c.unmapped_reads += ftl.unmapped_reads;
        }
        c
    }

    /// Counter-wise `self - before`.
    pub fn since(&self, before: &Counts) -> Counts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counts {
            reads: d(self.reads, before.reads),
            writes: d(self.writes, before.writes),
            zero_fills: d(self.zero_fills, before.zero_fills),
            host_cmds: d(self.host_cmds, before.host_cmds),
            nvmc_cmds: d(self.nvmc_cmds, before.nvmc_cmds),
            refreshes: d(self.refreshes, before.refreshes),
            refreshes_elided: d(self.refreshes_elided, before.refreshes_elided),
            row_hits: d(self.row_hits, before.row_hits),
            row_misses: d(self.row_misses, before.row_misses),
            refresh_stall_ps: d(self.refresh_stall_ps, before.refresh_stall_ps),
            violations_rejected: d(self.violations_rejected, before.violations_rejected),
            cache_hits: d(self.cache_hits, before.cache_hits),
            cache_misses: d(self.cache_misses, before.cache_misses),
            evictions: d(self.evictions, before.evictions),
            dirty_evictions: d(self.dirty_evictions, before.dirty_evictions),
            windows_seen: d(self.windows_seen, before.windows_seen),
            windows_used: d(self.windows_used, before.windows_used),
            windows_skipped_busy: d(self.windows_skipped_busy, before.windows_skipped_busy),
            windows_wrong_bank: d(self.windows_wrong_bank, before.windows_wrong_bank),
            cachefills: d(self.cachefills, before.cachefills),
            writebacks: d(self.writebacks, before.writebacks),
            dma_bytes: d(self.dma_bytes, before.dma_bytes),
            detections: d(self.detections, before.detections),
            pb_detections: d(self.pb_detections, before.pb_detections),
            nand_reads: d(self.nand_reads, before.nand_reads),
            nand_writes: d(self.nand_writes, before.nand_writes),
            buffer_stalls: d(self.buffer_stalls, before.buffer_stalls),
            ftl_host_writes: d(self.ftl_host_writes, before.ftl_host_writes),
            gc_moved_pages: d(self.gc_moved_pages, before.gc_moved_pages),
            words_corrected: d(self.words_corrected, before.words_corrected),
            unmapped_reads: d(self.unmapped_reads, before.unmapped_reads),
        }
    }
}
