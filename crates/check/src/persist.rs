//! Persistence-ordering checker (pmemcheck-style).
//!
//! Replays a [`PersistEvent`] journal captured by the host CPU-cache model
//! and verifies the libpmem contract behind every durability claim: each
//! cacheline stored in a claimed range must have been `clflush`ed (or
//! `clwb`ed) *after* its last store, and an `sfence` must separate that
//! flush from the claim. A driver that "persists" without draining the CPU
//! cache — the §V-C failure the paper's power-fail experiments probe —
//! shows up here as:
//!
//! - `persist/unflushed` — a stored line was claimed durable with no flush
//!   at all;
//! - `persist/store-after-flush` — the line was flushed, then dirtied
//!   again before the claim;
//! - `persist/unfenced` — the flush happened but no `sfence` ordered it
//!   before the claim.
//!
//! Stores that are *never* claimed are intentionally not findings: losing
//! unflushed scratch data on power failure is correct behaviour, and the
//! examples exercise exactly that.

use crate::diag::Diagnostic;
use nvdimmc_host::journal::JOURNAL_LINE;
use nvdimmc_host::PersistEvent;
use std::collections::HashMap;

/// Per-line journal state, tracked by event index.
#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    last_store: Option<usize>,
    last_flush: Option<usize>,
}

/// Checks every durability claim in `events` against the store / flush /
/// fence history that precedes it.
pub fn check_persistence(events: &[PersistEvent]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut lines: HashMap<u64, LineState> = HashMap::new();
    let mut last_fence: Option<usize> = None;

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            PersistEvent::Store { addr, len } => {
                for line in lines_of(addr, len) {
                    lines.entry(line).or_default().last_store = Some(i);
                }
            }
            PersistEvent::Clflush { addr } | PersistEvent::Clwb { addr } => {
                let line = addr / JOURNAL_LINE * JOURNAL_LINE;
                lines.entry(line).or_default().last_flush = Some(i);
            }
            PersistEvent::Sfence => last_fence = Some(i),
            PersistEvent::Claim { addr, len } => {
                for line in lines_of(addr, len) {
                    let Some(state) = lines.get(&line) else {
                        continue; // never stored: nothing to prove
                    };
                    let Some(store) = state.last_store else {
                        continue;
                    };
                    match state.last_flush {
                        None => out.push(Diagnostic::error_untimed(
                            "persist/unflushed",
                            format!(
                                "line {line:#x} claimed durable (event {i}) but never flushed \
                                 after its store (event {store})"
                            ),
                        )),
                        Some(flush) if flush < store => out.push(Diagnostic::error_untimed(
                            "persist/store-after-flush",
                            format!(
                                "line {line:#x} was stored again (event {store}) after its \
                                     last flush (event {flush}) and before the claim (event {i})"
                            ),
                        )),
                        Some(flush) => {
                            if last_fence.is_none_or(|f| f <= flush) {
                                out.push(Diagnostic::error_untimed(
                                    "persist/unfenced",
                                    format!(
                                        "line {line:#x}: flush (event {flush}) was not \
                                             followed by an sfence before the claim (event {i})"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The line-aligned addresses covering `[addr, addr + len)`.
fn lines_of(addr: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = addr / JOURNAL_LINE;
    let last = if len == 0 {
        first
    } else {
        (addr + len - 1) / JOURNAL_LINE
    };
    (first..=last).map(|l| l * JOURNAL_LINE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(addr: u64, len: u64) -> PersistEvent {
        PersistEvent::Store { addr, len }
    }

    fn flush(addr: u64) -> PersistEvent {
        PersistEvent::Clflush { addr }
    }

    fn claim(addr: u64, len: u64) -> PersistEvent {
        PersistEvent::Claim { addr, len }
    }

    #[test]
    fn flush_fence_claim_is_clean() {
        let events = [
            store(0x100, 16),
            flush(0x100),
            PersistEvent::Sfence,
            claim(0x100, 16),
        ];
        let diags = check_persistence(&events);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn claim_without_flush_is_flagged() {
        let events = [store(0x100, 16), PersistEvent::Sfence, claim(0x100, 16)];
        let diags = check_persistence(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "persist/unflushed");
    }

    #[test]
    fn store_after_flush_is_flagged() {
        let events = [
            store(0x100, 8),
            flush(0x100),
            store(0x108, 8), // same line, re-dirtied
            PersistEvent::Sfence,
            claim(0x100, 16),
        ];
        let diags = check_persistence(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "persist/store-after-flush");
    }

    #[test]
    fn flush_without_fence_is_flagged() {
        let events = [store(0x100, 16), flush(0x100), claim(0x100, 16)];
        let diags = check_persistence(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "persist/unfenced");
    }

    #[test]
    fn fence_before_flush_does_not_count() {
        let events = [
            store(0x100, 16),
            PersistEvent::Sfence, // too early: orders nothing
            flush(0x100),
            claim(0x100, 16),
        ];
        let diags = check_persistence(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "persist/unfenced");
    }

    #[test]
    fn unclaimed_scratch_stores_are_not_findings() {
        // Intentionally-lost data (the power-failure example's unflushed
        // scribble) must not produce diagnostics.
        let events = [
            store(0x100, 64),
            store(0x2000, 64), // scratch, never flushed, never claimed
            flush(0x100),
            PersistEvent::Sfence,
            claim(0x100, 64),
        ];
        let diags = check_persistence(&events);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn multi_line_claim_checks_every_line() {
        let events = [
            store(0x0, 128), // two lines
            flush(0x0),      // only the first flushed
            PersistEvent::Sfence,
            claim(0x0, 128),
        ];
        let diags = check_persistence(&events);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "persist/unflushed");
        assert!(diags[0].message.contains("0x40"), "{}", diags[0].message);
    }
}
