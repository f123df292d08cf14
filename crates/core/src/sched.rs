//! Per-shard request types and the per-bank refresh planner.
//!
//! Every operation bound for a shard becomes one [`ShardRequest`] per
//! interleave segment. The [`ShardExecutor`](crate::exec::ShardExecutor)
//! is the only request queue in the system: it stamps each request's
//! sequence number, holds it on the shard's bounded ring and serves it
//! in arrival order. Row-buffer-aware reordering happens below the
//! shard, in the host iMC's open-page policy, exactly where the paper's
//! unmodified memory controller does it. The [`RefreshPlanner`] turns
//! the executor's queue-depth hint into per-bank refresh window
//! placement.

use nvdimmc_ddr::{BankAddr, TimingParams};
use nvdimmc_sim::{ShardCalendar, SimDuration, SimTime};

use crate::qos::TenantId;

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read `len` bytes.
    Read,
    /// Write the carried data.
    Write,
}

/// One queued request against a single shard's local address space.
#[derive(Debug, Clone)]
pub struct ShardRequest {
    /// Global issue order (ties broken by this — deterministic).
    pub seq: u64,
    /// Issuing tenant ([`TenantId::HOST`] for pre-tenancy call sites).
    pub tenant: TenantId,
    /// Issuing workload thread.
    pub thread: u32,
    /// Direction.
    pub kind: ReqKind,
    /// Byte offset in the shard's local space.
    pub local_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Earliest instant the device phase may start (issuer's ready time
    /// plus its software cost).
    pub not_before: SimTime,
    /// Payload for writes (empty for reads).
    pub data: Vec<u8>,
}

/// Places per-bank refresh windows for one shard: which bank the next
/// REFpb targets and how far its NVMC window stretches.
///
/// Placement is demand-driven with a deadline backstop, tracked in a
/// [`ShardCalendar`] keyed by bank index (the same deterministic pop-min
/// structure the executor uses for shards):
///
/// 1. a bank whose per-bank deadline (one refresh per tREFI, the JEDEC
///    average-interval budget) has passed is refreshed first — correctness
///    before throughput;
/// 2. otherwise the bank the FPGA's FSM needs next (demand placement:
///    the window lands where the NVMC actually has data to move, which is
///    what lets windows run *out of order* under write bursts);
/// 3. otherwise the earliest-deadline bank.
///
/// Window *size* comes from the per-shard queue depth: an idle queue lets
/// the window stretch to the rank-mode maximum (the NVMC can hog the
/// bank), a deep queue shrinks it toward the base window so host requests
/// get their banks back sooner.
#[derive(Debug)]
pub struct RefreshPlanner {
    /// Per-bank refresh deadlines; calendar slot = bank index.
    deadlines: ShardCalendar,
    /// Deadline spacing: every bank must be refreshed once per interval.
    interval: SimDuration,
    /// Latest queue-depth hint from the executor.
    queue_depth: usize,
    /// Windows placed on FPGA demand rather than by deadline.
    demand_placed: u64,
    /// Windows forced by an expired deadline.
    deadline_forced: u64,
}

impl RefreshPlanner {
    /// A planner whose banks are all due one `interval` from time zero.
    pub fn new(interval: SimDuration) -> Self {
        let mut deadlines = ShardCalendar::new(usize::from(BankAddr::COUNT));
        for b in 0..usize::from(BankAddr::COUNT) {
            deadlines.set(b, SimTime::ZERO + interval);
        }
        RefreshPlanner {
            deadlines,
            interval,
            queue_depth: 0,
            demand_placed: 0,
            deadline_forced: 0,
        }
    }

    /// Records the shard's current request-queue depth (sizing input).
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.queue_depth = depth;
    }

    /// Stretch code for the next demand-placed window: idle queue → the
    /// full rank-equivalent window, deep queue → shrink toward the base
    /// per-bank window.
    pub fn stretch_hint(&self) -> u8 {
        TimingParams::MAX_STRETCH.saturating_sub(self.queue_depth.min(15) as u8)
    }

    /// Picks the bank and stretch for the next REFpb issued at (or after)
    /// `now`, given the bank the FPGA wants serviced next.
    pub fn choose(&mut self, now: SimTime, wanted: Option<BankAddr>) -> (BankAddr, u8) {
        if let Some((due, idx)) = self.deadlines.peek() {
            if due <= now {
                self.deadline_forced += 1;
                let bank = BankAddr::from_index(idx as u8);
                // A backstop refresh is pure duty: no NVMC demand behind
                // it, so keep the window minimal unless it happens to be
                // the wanted bank anyway.
                let stretch = if wanted == Some(bank) {
                    self.stretch_hint()
                } else {
                    0
                };
                return (bank, stretch);
            }
        }
        if let Some(bank) = wanted {
            self.demand_placed += 1;
            return (bank, self.stretch_hint());
        }
        let idx = self.deadlines.peek().map_or(0, |(_, b)| b);
        (BankAddr::from_index(idx as u8), 0)
    }

    /// Records a REFpb actually issued to `bank` at `at`, pushing its
    /// deadline out one interval.
    pub fn note_refreshed(&mut self, bank: BankAddr, at: SimTime) {
        self.deadlines
            .set(usize::from(bank.index()), at + self.interval);
    }

    /// `(demand_placed, deadline_forced)` placement counters.
    pub fn placement_counts(&self) -> (u64, u64) {
        (self.demand_placed, self.deadline_forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_prefers_demand_until_a_deadline_expires() {
        let trefi = SimDuration::from_us(7.8);
        let mut p = RefreshPlanner::new(trefi);
        let hot = BankAddr::new(1, 2);
        // Nothing overdue yet: the FPGA's wanted bank wins, full stretch.
        let now = SimTime::ZERO + trefi / 2;
        let (bank, stretch) = p.choose(now, Some(hot));
        assert_eq!(bank, hot);
        assert_eq!(stretch, TimingParams::MAX_STRETCH);
        p.note_refreshed(hot, now);
        // Past the first deadline every *other* bank is overdue: the
        // backstop preempts demand, minimal window.
        let later = SimTime::ZERO + trefi * 2;
        let (bank, stretch) = p.choose(later, Some(hot));
        assert_ne!(bank, hot, "overdue bank preempts the demand bank");
        assert_eq!(stretch, 0, "backstop refresh keeps the window minimal");
        let (demand, forced) = p.placement_counts();
        assert_eq!((demand, forced), (1, 1));
    }

    #[test]
    fn planner_meets_every_bank_deadline_under_sticky_demand() {
        let trefi = SimDuration::from_us(7.8);
        let tick = trefi / u64::from(BankAddr::COUNT);
        let mut p = RefreshPlanner::new(trefi);
        let hot = BankAddr::new(0, 0);
        let mut last = vec![SimTime::ZERO; usize::from(BankAddr::COUNT)];
        let mut now = SimTime::ZERO;
        for _ in 0..512 {
            now += tick;
            // The FPGA always wants the same bank; deadlines must still
            // rotate every other bank through.
            let (bank, _) = p.choose(now, Some(hot));
            p.note_refreshed(bank, now);
            let idx = usize::from(bank.index());
            let gap = now.since(last[idx]);
            // Steady state spaces every bank exactly one tREFI apart; the
            // startup convoy (all banks due at once, drained one per slot)
            // bounds the worst case just under two.
            assert!(gap < trefi * 2, "bank {bank} waited {} us", gap.as_us_f64());
            last[idx] = now;
        }
        // Every bank got refreshed at least once near the cadence.
        for (idx, &t) in last.iter().enumerate() {
            assert!(t > SimTime::ZERO, "bank index {idx} never refreshed");
        }
    }

    #[test]
    fn planner_stretch_shrinks_with_queue_depth() {
        let mut p = RefreshPlanner::new(SimDuration::from_us(7.8));
        p.note_queue_depth(0);
        assert_eq!(p.stretch_hint(), TimingParams::MAX_STRETCH);
        p.note_queue_depth(6);
        assert_eq!(p.stretch_hint(), TimingParams::MAX_STRETCH - 6);
        p.note_queue_depth(64);
        assert_eq!(p.stretch_hint(), 0, "deep queue collapses the window");
    }
}
