//! Error-correcting codes for the 4 KB page path.
//!
//! The paper says the NVMC "performs the primitive NAND operations with
//! error correction code (ECC) at the granularity of 4KB" (§III-A). We
//! implement a classic **Hamming SEC-DED (72,64)** — the code DDR ECC DIMMs
//! and many SLC NAND controllers use — applied per 64-bit word, so a 4 KB
//! page carries 512 ECC bytes, plus a page-level CRC-32 for end-to-end
//! detection.

use serde::{Deserialize, Serialize};

/// Outcome statistics for a codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EccStats {
    /// Words decoded clean.
    pub clean_words: u64,
    /// Single-bit errors corrected.
    pub corrected: u64,
    /// Double-bit (uncorrectable) errors detected.
    pub uncorrectable: u64,
}

/// The result of decoding one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// No error.
    Clean(u64),
    /// One bit flipped and corrected.
    Corrected(u64),
    /// Two or more bits flipped — detected but not correctable.
    Uncorrectable,
}

/// Hamming SEC-DED (72,64) over one 64-bit word.
///
/// Seven Hamming parity bits cover positions 1..=71 of the interleaved
/// codeword; an eighth overall-parity bit extends single-error-correction
/// to double-error-detection.
///
/// # Example
///
/// ```
/// use nvdimmc_nand::ecc::{Decode, Ecc};
///
/// let word = 0xDEAD_BEEF_CAFE_F00Du64;
/// let parity = Ecc::encode(word);
/// // A single flipped data bit is corrected:
/// let corrupted = word ^ (1 << 17);
/// assert_eq!(Ecc::decode(corrupted, parity), Decode::Corrected(word));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Ecc;

/// Precomputed code tables: per-parity-bit data masks and the codeword
/// position → data bit index map.
struct Tables {
    /// `masks[p]`: data bits whose codeword position has bit `p` set.
    masks: [u64; 7],
    /// Codeword position (1..=71) → data bit index, or `u8::MAX` for
    /// parity positions.
    pos_to_data: [u8; 72],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        let mut masks = [0u64; 7];
        let mut pos_to_data = [u8::MAX; 72];
        let mut pos = 1u32;
        let mut i = 0u32;
        while i < 64 {
            if !pos.is_power_of_two() {
                pos_to_data[pos as usize] = i as u8;
                for (p, m) in masks.iter_mut().enumerate() {
                    if pos & (1 << p) != 0 {
                        *m |= 1u64 << i;
                    }
                }
                i += 1;
            }
            pos += 1;
        }
        Tables { masks, pos_to_data }
    })
}

#[inline]
fn parity64(x: u64) -> u8 {
    (x.count_ones() & 1) as u8
}

impl Ecc {
    /// Encodes a word, returning its parity byte (7 Hamming bits + overall
    /// parity in bit 7).
    pub fn encode(word: u64) -> u8 {
        let t = tables();
        let mut ham = 0u8;
        for p in 0..7 {
            ham |= parity64(word & t.masks[p]) << p;
        }
        // Overall parity covers all data and Hamming parity bits.
        let overall = parity64(word) ^ parity64(u64::from(ham));
        ham | (overall << 7)
    }

    /// Decodes a word given its parity byte.
    pub fn decode(word: u64, parity: u8) -> Decode {
        let t = tables();
        let mut syn = 0u32;
        for p in 0..7 {
            let bit = parity64(word & t.masks[p]) ^ ((parity >> p) & 1);
            syn |= u32::from(bit) << p;
        }
        let overall_now = parity64(word) ^ parity64(u64::from(parity & 0x7F));
        let overall_bad = overall_now != (parity >> 7) & 1;

        match (syn, overall_bad) {
            (0, false) => Decode::Clean(word),
            // Only the overall parity bit flipped; data intact.
            (0, true) => Decode::Corrected(word),
            (pos, true) => {
                // Single-bit error at codeword position `pos`.
                if pos <= 71 {
                    match t.pos_to_data[pos as usize] {
                        u8::MAX => Decode::Corrected(word), // a parity bit flipped
                        i => Decode::Corrected(word ^ (1u64 << i)),
                    }
                } else {
                    Decode::Uncorrectable
                }
            }
            // Non-zero syndrome with intact overall parity: double error.
            (_, false) => Decode::Uncorrectable,
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) computed with a generated table.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    // Table generated on first use; 256 entries.
    fn table() -> &'static [u32; 256] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, e) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
                }
                *e = c;
            }
            t
        })
    }
    let t = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Loads a little-endian u64 from a slice produced by `chunks_exact(8)`
/// without a fallible conversion (short slices read as zero-padded).
fn le_word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    for (dst, src) in w.iter_mut().zip(chunk) {
        *dst = *src;
    }
    u64::from_le_bytes(w)
}

/// Encodes/decodes whole 4 KB pages: per-word SEC-DED plus a trailing
/// CRC-32 over the raw data.
///
/// # Example
///
/// ```
/// use nvdimmc_nand::PageCodec;
///
/// let codec = PageCodec::new(4096);
/// let page = vec![0x5Au8; 4096];
/// let mut stored = codec.encode(&page).unwrap();
/// stored[100] ^= 0x04; // flip one bit in flight
/// let (decoded, corrected) = codec.decode(&stored).unwrap();
/// assert_eq!(decoded, page);
/// assert_eq!(corrected, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PageCodec {
    page_bytes: usize,
}

impl PageCodec {
    /// Creates a codec for pages of `page_bytes` data bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `page_bytes` is a positive multiple of 8.
    pub fn new(page_bytes: usize) -> Self {
        assert!(
            page_bytes > 0 && page_bytes.is_multiple_of(8),
            "page size must be a positive multiple of 8"
        );
        PageCodec { page_bytes }
    }

    /// Stored (data + ECC + CRC) size for one page.
    pub fn stored_bytes(&self) -> usize {
        self.page_bytes + self.page_bytes / 8 + 4
    }

    /// Data bytes per page.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Encodes `data` into its stored representation.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NandError::BadPageSize`] if `data` is not exactly
    /// one page.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, crate::NandError> {
        if data.len() != self.page_bytes {
            return Err(crate::NandError::BadPageSize {
                got: data.len(),
                want: self.page_bytes,
            });
        }
        let mut out = Vec::with_capacity(self.stored_bytes());
        out.extend_from_slice(data);
        for chunk in data.chunks_exact(8) {
            out.push(Ecc::encode(le_word(chunk)));
        }
        out.extend_from_slice(&crc32(data).to_le_bytes());
        Ok(out)
    }

    /// Decodes a stored page, correcting single-bit errors per word.
    /// Returns the data and the number of corrected words.
    ///
    /// # Errors
    ///
    /// Returns `None`-equivalent errors: [`crate::NandError::BadPageSize`]
    /// for a wrong-sized buffer, and a CRC/ECC failure is reported as
    /// `Err(())`-style `Uncorrectable` via [`crate::NandError`]; callers
    /// map it to the physical address.
    pub fn decode(&self, stored: &[u8]) -> Result<(Vec<u8>, u64), PageDecodeError> {
        if stored.len() != self.stored_bytes() {
            return Err(PageDecodeError::BadSize {
                got: stored.len(),
                want: self.stored_bytes(),
            });
        }
        let (data_in, rest) = stored.split_at(self.page_bytes);
        let (parities, crc_bytes) = rest.split_at(self.page_bytes / 8);
        let mut data = data_in.to_vec();
        let mut corrected = 0u64;
        for (i, chunk) in data_in.chunks_exact(8).enumerate() {
            match Ecc::decode(le_word(chunk), parities[i]) {
                Decode::Clean(_) => {}
                Decode::Corrected(fixed) => {
                    data[i * 8..i * 8 + 8].copy_from_slice(&fixed.to_le_bytes());
                    corrected += 1;
                }
                Decode::Uncorrectable => return Err(PageDecodeError::Uncorrectable),
            }
        }
        let mut crc_word = [0u8; 4];
        for (dst, src) in crc_word.iter_mut().zip(crc_bytes) {
            *dst = *src;
        }
        let stored_crc = u32::from_le_bytes(crc_word);
        if crc32(&data) != stored_crc {
            return Err(PageDecodeError::CrcMismatch);
        }
        Ok((data, corrected))
    }
}

/// Why a page failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageDecodeError {
    /// Buffer was not one stored page.
    BadSize {
        /// Bytes supplied.
        got: usize,
        /// Bytes required.
        want: usize,
    },
    /// A word had ≥2 bit errors.
    Uncorrectable,
    /// ECC passed but the page CRC disagrees (e.g. parity-byte corruption
    /// pattern beyond the code's guarantee).
    CrcMismatch,
}

impl std::fmt::Display for PageDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageDecodeError::BadSize { got, want } => {
                write!(f, "stored page of {got} bytes, expected {want}")
            }
            PageDecodeError::Uncorrectable => write!(f, "uncorrectable ECC error"),
            PageDecodeError::CrcMismatch => write!(f, "page CRC mismatch"),
        }
    }
}

impl std::error::Error for PageDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_word_roundtrip() {
        for word in [0u64, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            let p = Ecc::encode(word);
            assert_eq!(Ecc::decode(word, p), Decode::Clean(word));
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let word = 0xA5A5_5A5A_F00D_CAFEu64;
        let parity = Ecc::encode(word);
        for bit in 0..64 {
            let corrupted = word ^ (1u64 << bit);
            assert_eq!(
                Ecc::decode(corrupted, parity),
                Decode::Corrected(word),
                "data bit {bit}"
            );
        }
        for pbit in 0..8 {
            let bad_parity = parity ^ (1u8 << pbit);
            match Ecc::decode(word, bad_parity) {
                Decode::Corrected(w) => assert_eq!(w, word, "parity bit {pbit}"),
                other => panic!("parity bit {pbit}: {other:?}"),
            }
        }
    }

    #[test]
    fn double_bit_errors_detected_not_miscorrected() {
        let word = 0x1234_5678_9ABC_DEF0u64;
        let parity = Ecc::encode(word);
        let mut detected = 0;
        let mut total = 0;
        for a in 0..64 {
            for b in (a + 1)..64 {
                let corrupted = word ^ (1u64 << a) ^ (1u64 << b);
                total += 1;
                match Ecc::decode(corrupted, parity) {
                    Decode::Uncorrectable => detected += 1,
                    Decode::Corrected(w) => {
                        panic!("double error ({a},{b}) miscorrected to {w:#x}")
                    }
                    Decode::Clean(_) => panic!("double error ({a},{b}) passed as clean"),
                }
            }
        }
        assert_eq!(detected, total, "SEC-DED must detect all double errors");
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 (the canonical check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn page_roundtrip_clean() {
        let codec = PageCodec::new(4096);
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        let stored = codec.encode(&page).unwrap();
        assert_eq!(stored.len(), 4096 + 512 + 4);
        let (out, corrected) = codec.decode(&stored).unwrap();
        assert_eq!(out, page);
        assert_eq!(corrected, 0);
    }

    #[test]
    fn page_corrects_scattered_single_bit_errors() {
        let codec = PageCodec::new(4096);
        let page = vec![0x3Cu8; 4096];
        let mut stored = codec.encode(&page).unwrap();
        // One bit flip in each of several distinct words.
        for w in [0usize, 17, 99, 511] {
            stored[w * 8 + 3] ^= 0x10;
        }
        let (out, corrected) = codec.decode(&stored).unwrap();
        assert_eq!(out, page);
        assert_eq!(corrected, 4);
    }

    #[test]
    fn page_detects_double_error_in_word() {
        let codec = PageCodec::new(4096);
        let page = vec![0u8; 4096];
        let mut stored = codec.encode(&page).unwrap();
        stored[8] ^= 0x03; // two bits in the same word
        assert_eq!(codec.decode(&stored), Err(PageDecodeError::Uncorrectable));
    }

    #[test]
    fn page_size_validated() {
        let codec = PageCodec::new(4096);
        assert!(codec.encode(&[0u8; 100]).is_err());
        assert!(matches!(
            codec.decode(&[0u8; 100]),
            Err(PageDecodeError::BadSize { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn codec_rejects_unaligned_page() {
        PageCodec::new(1001);
    }
}
