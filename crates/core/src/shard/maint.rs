//! Scrub and maintenance: the driver's per-slot CRC scrub (read path,
//! eviction gate and background sweep) and bounded FTL housekeeping.

use super::{ChannelShard, DramBackdoor, ZERO_PAGE};
use crate::cp::CpOpcode;
use crate::error::CoreError;
use nvdimmc_host::Memory;

impl ChannelShard {
    /// Enables the per-slot CRC scrub without attaching an injector
    /// (direct-injection tests). Slots already resident start untracked;
    /// they are picked up at their next fill or write.
    pub fn enable_scrub(&mut self) {
        self.kept.scrub = true;
    }

    pub(super) fn scrub_note(&mut self, slot: u64) {
        if self.kept.scrub {
            let crc = self.boot.page_crc(slot);
            self.boot.scrub_crcs.insert(slot, crc);
        }
    }

    pub(super) fn scrub_forget(&mut self, slot: u64) {
        self.boot.scrub_crcs.remove(&slot);
    }

    /// Whether a scrub-tracked slot's page no longer matches its CRC.
    /// An untracked slot (scrub off, or enabled after the slot was
    /// filled) has no reference CRC and counts as intact.
    pub(super) fn slot_corrupt(&mut self, slot: u64) -> bool {
        match self.boot.scrub_crcs.get(&slot).copied() {
            Some(expect) => self.boot.page_crc(slot) != expect,
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
        self.kept.rec.scrub_detected += 1;
        if self.boot.cache.is_dirty(slot) {
            self.kept.rec.cache_corruption_surfaced += 1;
            return Err(CoreError::CacheCorruption { page });
        }
        self.heal_clean_slot(slot, page)
    }

    /// Heals a corrupt clean slot holding `page` from its backing copy:
    /// a cachefill from Z-NAND, or the zero page for a never-written
    /// block. Drops stale CPU-cached lines and re-tracks the slot's CRC.
    pub(super) fn heal_clean_slot(&mut self, slot: u64, page: u64) -> Result<(), CoreError> {
        if self.kept.nvmc.is_mapped(page) {
            self.cp_transaction(CpOpcode::Cachefill, slot, page, None)?;
        } else {
            DramBackdoor(&mut self.boot.bus).write(self.boot.layout.slot_addr(slot), &ZERO_PAGE);
        }
        self.boot.invalidate_slot(slot);
        self.kept.rec.scrub_refills += 1;
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
        self.kept.rec.scrub_detected += 1;
        if dirty {
            self.kept.rec.cache_corruption_surfaced += 1;
            return Err(CoreError::CacheCorruption { page: vpage });
        }
        self.kept.rec.scrub_dropped_clean += 1;
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
        if !self.kept.scrub {
            return 0;
        }
        let total = self.boot.cache.slot_count();
        let mut checked = 0;
        let mut visited = 0;
        while checked < budget && visited < total {
            let slot = self.boot.scrub_cursor % total;
            self.boot.scrub_cursor = (self.boot.scrub_cursor + 1) % total;
            visited += 1;
            let Some(page) = self.boot.cache.page_of(slot) else {
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
        let at = self.boot.clock;
        self.kept.nvmc.ftl_mut().housekeeping(at).unwrap_or(0)
    }
}
