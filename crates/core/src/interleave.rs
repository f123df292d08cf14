//! Address interleaving: striping the global byte space over channels.
//!
//! Real multi-channel memory controllers stripe consecutive address
//! blocks round-robin across channels so sequential streams spread their
//! bandwidth demand. [`InterleaveMap`] implements that map for the
//! multi-channel front-end: global offsets are split into
//! granularity-sized stripes, stripe `k` lands on shard `k % channels`
//! at local stripe index `k / channels`.
//!
//! The granularity is configurable but must be a whole multiple of the
//! 4 KB cache page so a page never straddles two shards — each shard's
//! DRAM cache and FTL stay completely independent, so shards share no
//! state and can be served in any order.

use crate::config::PAGE_BYTES;
use crate::error::CoreError;

/// One contiguous piece of a request after interleaving: `len` bytes at
/// `local_offset` on `shard`, covering `buf[pos..pos + len]` of the
/// caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Target shard index.
    pub shard: u32,
    /// Byte offset inside the shard's local address space.
    pub local_offset: u64,
    /// Byte position inside the request buffer.
    pub pos: usize,
    /// Segment length in bytes.
    pub len: u64,
}

/// The channel-interleaving address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveMap {
    channels: u32,
    granularity: u64,
}

impl InterleaveMap {
    /// Builds a map striping `granularity`-byte blocks over `channels`.
    ///
    /// # Errors
    ///
    /// Rejects zero channels and granularities that are zero or not a
    /// multiple of [`PAGE_BYTES`] (a cache page must never straddle
    /// shards).
    pub fn new(channels: u32, granularity: u64) -> Result<Self, CoreError> {
        if channels == 0 {
            return Err(CoreError::Config(
                "interleave: channels must be >= 1".into(),
            ));
        }
        if granularity == 0 || !granularity.is_multiple_of(PAGE_BYTES) {
            return Err(CoreError::Config(format!(
                "interleave: granularity {granularity} must be a non-zero multiple of {PAGE_BYTES}"
            )));
        }
        Ok(InterleaveMap {
            channels,
            granularity,
        })
    }

    /// Page-granular interleaving (4 KB stripes): adjacent pages on
    /// adjacent channels — maximum spread for random 4 KB traffic.
    ///
    /// # Errors
    ///
    /// Rejects zero channels.
    pub fn page_interleaved(channels: u32) -> Result<Self, CoreError> {
        Self::new(channels, PAGE_BYTES)
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Stripe granularity in bytes.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Maps a global address to `(shard, local address)`.
    pub fn locate(&self, addr: u64) -> (u32, u64) {
        let g = self.granularity;
        let stripe = addr / g;
        let shard = (stripe % u64::from(self.channels)) as u32;
        let local = (stripe / u64::from(self.channels)) * g + addr % g;
        (shard, local)
    }

    /// Inverse of [`InterleaveMap::locate`].
    pub fn to_global(&self, shard: u32, local: u64) -> u64 {
        let g = self.granularity;
        (local / g * u64::from(self.channels) + u64::from(shard)) * g + local % g
    }

    /// Splits `[offset, offset + len)` into per-shard segments, coalescing
    /// runs that stay contiguous on the same shard (with one channel the
    /// whole range is always exactly one segment).
    pub fn split_range(&self, offset: u64, len: u64) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::new();
        let g = self.granularity;
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let chunk = (g - cur % g).min(end - cur);
            let (shard, local) = self.locate(cur);
            match out.last_mut() {
                Some(seg) if seg.shard == shard && seg.local_offset + seg.len == local => {
                    seg.len += chunk;
                }
                _ => out.push(Segment {
                    shard,
                    local_offset: local,
                    pos: (cur - offset) as usize,
                    len: chunk,
                }),
            }
            cur += chunk;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_channel_is_identity() {
        let m = InterleaveMap::page_interleaved(1).unwrap();
        for addr in [0u64, 1, 4095, 4096, 1 << 30] {
            assert_eq!(m.locate(addr), (0, addr));
            assert_eq!(m.to_global(0, addr), addr);
        }
        let segs = m.split_range(100, 1 << 20);
        assert_eq!(
            segs,
            vec![Segment {
                shard: 0,
                local_offset: 100,
                pos: 0,
                len: 1 << 20
            }]
        );
    }

    #[test]
    fn round_trip_and_stripe_order() {
        let m = InterleaveMap::new(4, PAGE_BYTES).unwrap();
        // Stripes go round-robin; locals advance once per full sweep.
        assert_eq!(m.locate(0), (0, 0));
        assert_eq!(m.locate(PAGE_BYTES), (1, 0));
        assert_eq!(m.locate(4 * PAGE_BYTES), (0, PAGE_BYTES));
        for addr in [0u64, 77, 4096, 8192 + 13, 40960, 1 << 22] {
            let (s, l) = m.locate(addr);
            assert_eq!(m.to_global(s, l), addr, "round trip for {addr}");
        }
    }

    #[test]
    fn split_coalesces_within_a_stripe() {
        let m = InterleaveMap::new(2, 2 * PAGE_BYTES).unwrap();
        // A range inside one stripe stays one segment even though the
        // walk advances page by page.
        let segs = m.split_range(0, 2 * PAGE_BYTES);
        assert_eq!(segs.len(), 1);
        // A range spanning three stripes alternates shards.
        let segs = m.split_range(0, 6 * PAGE_BYTES);
        let shards: Vec<u32> = segs.iter().map(|s| s.shard).collect();
        assert_eq!(shards, vec![0, 1, 0]);
        let total: u64 = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 6 * PAGE_BYTES);
    }

    #[test]
    fn segments_cover_range_exactly() {
        let m = InterleaveMap::new(3, PAGE_BYTES).unwrap();
        let (offset, len) = (5000u64, 3 * PAGE_BYTES + 777);
        let segs = m.split_range(offset, len);
        let mut covered = 0u64;
        for s in &segs {
            assert_eq!(s.pos as u64, covered, "buffer positions contiguous");
            let (shard, local) = m.locate(offset + covered);
            assert_eq!((s.shard, s.local_offset), (shard, local));
            covered += s.len;
        }
        assert_eq!(covered, len);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(InterleaveMap::new(0, PAGE_BYTES).is_err());
        assert!(InterleaveMap::new(2, 0).is_err());
        assert!(InterleaveMap::new(2, 1000).is_err());
    }
}
