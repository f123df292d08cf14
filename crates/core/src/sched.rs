//! Per-shard request types and the per-bank refresh planner.
//!
//! Every operation bound for a shard becomes one [`ShardRequest`] per
//! interleave segment. The [`ShardExecutor`](crate::exec::ShardExecutor)
//! is the only request queue in the system: it stamps each request's
//! sequence number, holds it on the shard's bounded queue and serves it
//! in arrival order. Row-buffer-aware reordering happens below the
//! shard, in the host iMC's open-page policy, exactly where the paper's
//! unmodified memory controller does it. The [`RefreshPlanner`] turns
//! the executor's queue-depth hint into per-bank refresh window
//! placement.

use nvdimmc_ddr::{BankAddr, TimingParams};
use nvdimmc_sim::{SimDuration, SimTime};

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
/// Placement is demand-driven with a postpone/pull-in credit in the
/// style of DARP (Chang et al., *Refresh-Access Parallelism*), tracked as
/// one refresh deadline per bank; the earliest deadline wins, ties going
/// to the lower bank index:
///
/// 1. a bank whose per-bank deadline (one refresh per interval, the JEDEC
///    average-interval budget) has lapsed by more than
///    [`RefreshPlanner::SLACK_SLOTS`] REFpb slots is refreshed first —
///    correctness before throughput. Up to that slack a bank's refresh
///    may be postponed while the FSM is mid-transfer;
/// 2. otherwise the bank the FPGA's FSM needs next (demand placement:
///    the window lands where the NVMC actually has data to move, which is
///    what lets windows run *out of order* under write bursts), unless
///    that bank's own previous window is still open;
/// 3. otherwise the earliest-deadline bank at the base window (pull-in:
///    a refresh taken early earns the credit a later postponement
///    spends).
///
/// Window *size* comes from the per-shard queue depth: an idle queue lets
/// the window stretch to the rank-mode maximum (the NVMC can hog the
/// bank), a deep queue shrinks it toward the base window so host requests
/// get their banks back sooner.
#[derive(Debug)]
pub struct RefreshPlanner {
    /// Per-bank refresh deadlines, indexed by bank.
    deadlines: [SimTime; BankAddr::COUNT as usize],
    /// Per-bank close of the NVMC window the bank's last REFpb opened.
    open_until: [SimTime; BankAddr::COUNT as usize],
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
    /// Postpone credit, in REFpb slots (interval / 16 each): a bank is
    /// forced only once its deadline has lapsed by this many slots, 3/8
    /// of an interval. No bank then waits longer than `16 + SLACK_SLOTS`
    /// slots between its own REFpbs, inside the iMC's own forcing limit
    /// (`Imc::PB_FORCE_LIMIT`), so the iMC never has to override a pick.
    pub const SLACK_SLOTS: u32 = BankAddr::COUNT as u32 * 3 / 8;

    /// A planner whose banks fall due one REFpb slot apart over the first
    /// `interval`. Staggered deadlines never lapse together, so no bank
    /// queues behind another's forced refresh, even at start-up.
    pub fn new(interval: SimDuration) -> Self {
        let slot = interval / u64::from(BankAddr::COUNT);
        RefreshPlanner {
            deadlines: std::array::from_fn(|b| SimTime::ZERO + slot * (b as u64 + 1)),
            open_until: [SimTime::ZERO; BankAddr::COUNT as usize],
            interval,
            queue_depth: 0,
            demand_placed: 0,
            deadline_forced: 0,
        }
    }

    /// The earliest deadline and its bank index; ties go to the lower
    /// index.
    fn earliest(&self) -> (SimTime, u8) {
        // A fixed non-empty array always has a minimum.
        self.deadlines
            .iter()
            .zip(0u8..)
            .map(|(&due, idx)| (due, idx))
            .min()
            .unwrap_or_default()
    }

    /// How far past its deadline a bank's refresh may be postponed.
    fn slack(&self) -> SimDuration {
        self.interval / u64::from(BankAddr::COUNT) * u64::from(Self::SLACK_SLOTS)
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

    /// Picks the bank and stretch for the REFpb issued at `now`, given the
    /// bank the FPGA wants serviced next (`None` when the FSM cannot act
    /// in this REFpb's window).
    pub fn choose(&mut self, now: SimTime, wanted: Option<BankAddr>) -> (BankAddr, u8) {
        // A bank whose own window is still open cannot take another REFpb
        // until it closes: re-targeting it would only stall the REFpb.
        let wanted = wanted.filter(|b| self.open_until[usize::from(b.index())] <= now);
        let (due, idx) = self.earliest();
        if due + self.slack() <= now {
            self.deadline_forced += 1;
            let bank = BankAddr::from_index(idx);
            // A backstop refresh is pure duty: no NVMC demand behind it,
            // so keep the window minimal unless it happens to be the
            // wanted bank anyway.
            let stretch = if wanted == Some(bank) {
                self.stretch_hint()
            } else {
                0
            };
            return (bank, stretch);
        }
        if let Some(bank) = wanted {
            self.demand_placed += 1;
            return (bank, self.stretch_hint());
        }
        (BankAddr::from_index(idx), 0)
    }

    /// Records a REFpb actually issued to `bank` at `at` whose NVMC window
    /// closes at `closes`, pushing its deadline out one interval.
    pub fn note_refreshed(&mut self, bank: BankAddr, at: SimTime, closes: SimTime) {
        let idx = usize::from(bank.index());
        self.deadlines[idx] = at + self.interval;
        self.open_until[idx] = closes;
    }

    /// `(demand_placed, deadline_forced)` placement counters.
    pub fn placement_counts(&self) -> (u64, u64) {
        (self.demand_placed, self.deadline_forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_ddr::SpeedBin;
    use proptest::prelude::*;

    const TREFI_US: f64 = 7.8;

    fn slot() -> SimDuration {
        SimDuration::from_us(TREFI_US) / u64::from(BankAddr::COUNT)
    }

    /// Close of the NVMC window a REFpb at `at` with `stretch` opens.
    fn closes(at: SimTime, stretch: u8) -> SimTime {
        TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600)
            .nvmc_window_bounds_pb(at, stretch)
            .1
    }

    /// Runs the shard's placement loop for one REFpb slot per entry of
    /// `demand` (wanted bank, queue depth) and returns the longest wait
    /// any bank saw between its own REFpbs — counting from time zero and
    /// up to the last slot, so a bank never refreshed at all counts too.
    fn longest_gap(p: &mut RefreshPlanner, demand: &[(Option<BankAddr>, usize)]) -> SimDuration {
        let mut last = [SimTime::ZERO; BankAddr::COUNT as usize];
        let mut worst = SimDuration::ZERO;
        let mut now = SimTime::ZERO;
        for &(wanted, depth) in demand {
            now += slot();
            p.note_queue_depth(depth);
            let (bank, stretch) = p.choose(now, wanted);
            p.note_refreshed(bank, now, closes(now, stretch));
            let idx = usize::from(bank.index());
            worst = worst.max(now.since(last[idx]));
            last[idx] = now;
        }
        last.iter().fold(worst, |w, &t| w.max(now.since(t)))
    }

    #[test]
    fn planner_prefers_demand_until_a_deadline_lapses_past_its_credit() {
        let trefi = SimDuration::from_us(TREFI_US);
        let mut p = RefreshPlanner::new(trefi);
        let hot = BankAddr::new(1, 2);
        // Bank 0 fell due one slot in and is now three slots late: inside
        // its credit, so the FPGA's wanted bank still wins, full stretch.
        let now = SimTime::ZERO + slot() * 4;
        let (bank, stretch) = p.choose(now, Some(hot));
        assert_eq!(bank, hot);
        assert_eq!(stretch, TimingParams::MAX_STRETCH);
        p.note_refreshed(hot, now, closes(now, stretch));
        // Past deadline + slack the backstop preempts demand, minimal
        // window.
        let later = SimTime::ZERO + trefi * 2;
        let (bank, stretch) = p.choose(later, Some(hot));
        assert_ne!(bank, hot, "overdue bank preempts the demand bank");
        assert_eq!(stretch, 0, "backstop refresh keeps the window minimal");
        let (demand, forced) = p.placement_counts();
        assert_eq!((demand, forced), (1, 1));
    }

    #[test]
    fn planner_meets_every_bank_deadline_under_sticky_demand() {
        let trefi = SimDuration::from_us(TREFI_US);
        let mut p = RefreshPlanner::new(trefi);
        // The FPGA always wants the same bank; deadlines must still rotate
        // every other bank through. Deadlines are staggered one slot apart
        // and each slot refreshes one bank, so at most one bank lapses per
        // slot and is forced the slot its credit runs out: no bank waits
        // longer than one interval plus the slack.
        let hot = Some(BankAddr::new(0, 0));
        let gap = longest_gap(&mut p, &[(hot, 0); 512]);
        assert!(
            gap <= trefi + p.slack(),
            "a bank waited {} us",
            gap.as_us_f64()
        );
        let (demand, forced) = p.placement_counts();
        assert!(demand > 0, "the hot bank got demand windows");
        assert!(forced > 0, "sticky demand needs the backstop");
    }

    #[test]
    fn planner_never_retargets_a_bank_whose_window_is_open() {
        let mut p = RefreshPlanner::new(SimDuration::from_us(TREFI_US));
        let hot = BankAddr::new(2, 1);
        let now = SimTime::ZERO + slot();
        let (bank, stretch) = p.choose(now, Some(hot));
        assert_eq!((bank, stretch), (hot, TimingParams::MAX_STRETCH));
        let close = closes(now, stretch);
        p.note_refreshed(hot, now, close);
        // A maximal window outlives the REFpb cadence: the next slots go
        // to the earliest-deadline bank at the base window instead.
        let mut next = now + slot();
        assert!(next < close, "test premise: window spans a slot");
        while next < close {
            let (bank, stretch) = p.choose(next, Some(hot));
            assert_ne!(bank, hot, "re-targeted the open bank at {next}");
            assert_eq!(stretch, 0, "a pull-in keeps the base window");
            p.note_refreshed(bank, next, closes(next, stretch));
            next += slot();
        }
        // Once its window has closed the bank is demand-placeable again.
        assert_eq!(p.choose(next, Some(hot)).0, hot);
    }

    #[test]
    fn tied_deadlines_resolve_to_the_lower_bank_index() {
        let trefi = SimDuration::from_us(TREFI_US);
        let mut p = RefreshPlanner::new(trefi);
        let (b3, b9) = (BankAddr::from_index(3), BankAddr::from_index(9));
        // Push every deadline late, then give banks 9 and 3 (in that
        // order) the same, earliest deadline.
        let late = SimTime::ZERO + trefi * 4;
        for idx in 0..BankAddr::COUNT {
            p.note_refreshed(BankAddr::from_index(idx), late, late);
        }
        let at = SimTime::ZERO + slot();
        p.note_refreshed(b9, at, at);
        p.note_refreshed(b3, at, at);
        assert_eq!(p.earliest(), (at + trefi, 3));
        // With no demand the pull-in goes to the lower index; once the
        // tie lapses past its credit, the backstop forces it too.
        assert_eq!(p.choose(at + slot(), None), (b3, 0));
        let overdue = at + trefi + p.slack();
        assert_eq!(p.choose(overdue, None), (b3, 0));
        assert_eq!(p.placement_counts(), (0, 1));
        p.note_refreshed(b3, overdue, overdue);
        assert_eq!(p.choose(overdue, None), (b9, 0));
    }

    #[test]
    fn planner_stretch_shrinks_with_queue_depth() {
        let mut p = RefreshPlanner::new(SimDuration::from_us(TREFI_US));
        p.note_queue_depth(0);
        assert_eq!(p.stretch_hint(), TimingParams::MAX_STRETCH);
        p.note_queue_depth(6);
        assert_eq!(p.stretch_hint(), TimingParams::MAX_STRETCH - 6);
        p.note_queue_depth(64);
        assert_eq!(p.stretch_hint(), 0, "deep queue collapses the window");
    }

    proptest! {
        /// Whatever the FSM wants and whenever it is ready, no bank's
        /// REFpb gap exceeds one interval plus the postpone credit.
        #[test]
        fn no_bank_waits_past_interval_plus_slack(
            steps in prop::collection::vec(
                (prop::option::of(0u8..BankAddr::COUNT), any::<bool>(), 0usize..20),
                1..400,
            ),
        ) {
            let trefi = SimDuration::from_us(TREFI_US);
            let mut p = RefreshPlanner::new(trefi);
            // The shard passes a wanted bank only while the FSM is ready.
            let demand: Vec<_> = steps
                .iter()
                .map(|&(want, ready, depth)| {
                    (want.filter(|_| ready).map(BankAddr::from_index), depth)
                })
                .collect();
            let gap = longest_gap(&mut p, &demand);
            prop_assert!(gap <= trefi + p.slack(), "gap {} us", gap.as_us_f64());
        }
    }
}
