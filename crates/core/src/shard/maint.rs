//! Scrub and maintenance: the driver's per-slot CRC scrub (read path,
//! eviction gate and background sweep) and bounded FTL housekeeping.

use super::{ChannelShard, DramBackdoor};
use crate::config::PAGE_BYTES;
use crate::cp::CpOpcode;
use crate::error::CoreError;
use nvdimmc_host::Memory;
use std::collections::HashMap;

impl ChannelShard {
    /// Enables the per-slot CRC scrub without attaching an injector
    /// (direct-injection tests). Slots already resident start untracked;
    /// they are picked up at their next fill or write.
    pub fn enable_scrub(&mut self) {
        if self.scrub.is_none() {
            self.scrub = Some(HashMap::new());
        }
    }

    /// CRC of the CPU-visible view of a slot's full page.
    fn page_crc(&mut self, slot: u64) -> u32 {
        let addr = self.layout.slot_addr(slot);
        let mut data = vec![0u8; PAGE_BYTES as usize];
        self.cpu
            .load(&mut DramBackdoor(&mut self.bus), addr, &mut data);
        nvdimmc_nand::ecc::crc32(&data)
    }

    pub(super) fn scrub_note(&mut self, slot: u64) {
        if self.scrub.is_none() {
            return;
        }
        let crc = self.page_crc(slot);
        if let Some(m) = self.scrub.as_mut() {
            m.insert(slot, crc);
        }
    }

    pub(super) fn scrub_forget(&mut self, slot: u64) {
        if let Some(m) = self.scrub.as_mut() {
            m.remove(&slot);
        }
    }

    /// Whether a scrub-tracked slot's page no longer matches its CRC.
    /// An untracked slot (scrub off, or enabled after the slot was
    /// filled) has no reference CRC and counts as intact.
    pub(super) fn slot_corrupt(&mut self, slot: u64) -> bool {
        match self.scrub.as_ref().and_then(|m| m.get(&slot).copied()) {
            Some(expect) => self.page_crc(slot) != expect,
            None => false,
        }
    }

    /// Read-path scrub: verify the tracked CRC before serving data from a
    /// slot. Corrupt clean copies heal from Z-NAND (or the zero page);
    /// corrupt dirty copies have no intact source anywhere and surface as
    /// [`CoreError::CacheCorruption`].
    pub(super) fn scrub_verify(&mut self, slot: u64, page: u64) -> Result<(), CoreError> {
        if !self.slot_corrupt(slot) {
            return Ok(());
        }
        self.rec.scrub_detected += 1;
        if self.cache.is_dirty(slot) {
            self.rec.cache_corruption_surfaced += 1;
            return Err(CoreError::CacheCorruption { page });
        }
        self.heal_clean_slot(slot, page)
    }

    /// Heals a corrupt clean slot holding `page` from its backing copy:
    /// a cachefill from Z-NAND, or the zero page for a never-written
    /// block. Drops stale CPU-cached lines and re-tracks the slot's CRC.
    pub(super) fn heal_clean_slot(&mut self, slot: u64, page: u64) -> Result<(), CoreError> {
        let addr = self.layout.slot_addr(slot);
        if self.nvmc.is_mapped(page) {
            self.cp_transaction(CpOpcode::Cachefill, slot, page, None)?;
        } else {
            let zeros = vec![0u8; PAGE_BYTES as usize];
            DramBackdoor(&mut self.bus).write(addr, &zeros);
        }
        self.cpu.invalidate_range(addr, PAGE_BYTES);
        self.rec.scrub_refills += 1;
        self.scrub_note(slot);
        Ok(())
    }

    /// Scrub gate before a slot is reused: a corrupt dirty victim must
    /// surface (writing it back would poison Z-NAND); a corrupt clean
    /// victim is simply dropped — the backing copy still holds the truth.
    pub(super) fn scrub_victim(
        &mut self,
        victim: u64,
        vpage: u64,
        dirty: bool,
    ) -> Result<(), CoreError> {
        if !self.slot_corrupt(victim) {
            return Ok(());
        }
        self.rec.scrub_detected += 1;
        if dirty {
            self.rec.cache_corruption_surfaced += 1;
            return Err(CoreError::CacheCorruption { page: vpage });
        }
        self.rec.scrub_dropped_clean += 1;
        Ok(())
    }

    /// One bounded step of the background CRC scrub sweep: verifies up to
    /// `budget` resident slots, resuming round-robin where the previous
    /// step stopped, and returns how many were checked. Corrupt clean
    /// slots heal in place from Z-NAND; a corrupt *dirty* slot is counted
    /// ([`crate::RecoveryStats::cache_corruption_surfaced`]) but left to
    /// surface its typed error on the next foreground access — background
    /// maintenance has no requester to report the loss to. A no-op (0)
    /// until [`ChannelShard::enable_scrub`] arms CRC tracking, so the
    /// non-campaign fast path stays byte-exact.
    pub fn scrub_step(&mut self, budget: u64) -> u64 {
        if self.scrub.is_none() {
            return 0;
        }
        let total = self.cache.slot_count();
        let mut checked = 0;
        let mut visited = 0;
        while checked < budget && visited < total {
            let slot = self.scrub_cursor % total;
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            visited += 1;
            let Some(page) = self.cache.page_of(slot) else {
                continue;
            };
            // Errors (dirty corruption) are already ledgered inside
            // scrub_verify; the sweep keeps going.
            let _ = self.scrub_verify(slot, page);
            checked += 1;
        }
        checked
    }

    /// One bounded FTL housekeeping step: proactive single-victim garbage
    /// collection when the free-block pool is getting low (see
    /// [`nvdimmc_nand::Ftl::housekeeping`]). Returns pages relocated;
    /// media errors during background relocation are swallowed — the
    /// block stays eligible and the next foreground access surfaces any
    /// persistent fault through the normal typed path.
    pub fn ftl_housekeeping(&mut self) -> u64 {
        let at = self.clock;
        self.nvmc.ftl_mut().housekeeping(at).unwrap_or(0)
    }
}
