//! Error-correcting codes for the 4 KB page path.
//!
//! The paper says the NVMC "performs the primitive NAND operations with
//! error correction code (ECC) at the granularity of 4KB" (§III-A). We
//! implement a classic **Hamming SEC-DED (72,64)** — the code DDR ECC DIMMs
//! and many SLC NAND controllers use — applied per 64-bit word, so a 4 KB
//! page carries 512 ECC bytes, plus a page-level CRC-32 for end-to-end
//! detection.
//!
//! Both codes are linear over GF(2), so each is evaluated a byte at a
//! time from tables built at compile time: a word's Hamming bits are the
//! XOR of eight per-byte rows, and the CRC consumes eight bytes per step
//! (slicing-by-8) in four interleaved stripes whose registers fold back
//! into the serial value.

use crate::page::PageBuf;
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

/// Data bit index → its codeword position (1..=71): data bits fill the
/// positions that are not powers of two, in order.
const DATA_POS: [u8; 64] = {
    let mut out = [0u8; 64];
    let mut pos = 1u32;
    let mut i = 0;
    while i < 64 {
        if !pos.is_power_of_two() {
            out[i] = pos as u8;
            i += 1;
        }
        pos += 1;
    }
    out
};

/// Codeword position (1..=71) → data bit index, or `u8::MAX` for the
/// Hamming parity positions.
const POS_TO_DATA: [u8; 72] = {
    let mut out = [u8::MAX; 72];
    let mut i = 0;
    while i < 64 {
        out[DATA_POS[i] as usize] = i as u8;
        i += 1;
    }
    out
};

/// `BYTE_ROWS[k][v]`: the Hamming bits of the word `v << 8k` in bits
/// 0..=6 (parity bit `p` covers the positions with bit `p` set, so they
/// are the XOR of the set bits' positions) and the parity of `v` in
/// bit 7. Both are linear, so a word's row is the XOR of its bytes' rows.
const BYTE_ROWS: [[u8; 256]; 8] = {
    let mut out = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut v = 0;
        while v < 256 {
            let mut row = 0u8;
            let mut j = 0;
            while j < 8 {
                if v & (1 << j) != 0 {
                    row ^= DATA_POS[8 * k + j] | 0x80;
                }
                j += 1;
            }
            out[k][v] = row;
            v += 1;
        }
        k += 1;
    }
    out
};

/// Hamming bits of `word` in bits 0..=6, its parity in bit 7.
#[inline]
fn word_row(word: u64) -> u8 {
    let b = word.to_le_bytes();
    BYTE_ROWS[0][b[0] as usize]
        ^ BYTE_ROWS[1][b[1] as usize]
        ^ BYTE_ROWS[2][b[2] as usize]
        ^ BYTE_ROWS[3][b[3] as usize]
        ^ BYTE_ROWS[4][b[4] as usize]
        ^ BYTE_ROWS[5][b[5] as usize]
        ^ BYTE_ROWS[6][b[6] as usize]
        ^ BYTE_ROWS[7][b[7] as usize]
}

#[inline]
fn parity8(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

impl Ecc {
    /// Encodes a word, returning its parity byte (7 Hamming bits + overall
    /// parity in bit 7).
    pub fn encode(word: u64) -> u8 {
        let row = word_row(word);
        // Overall parity covers all data and Hamming parity bits: the
        // data's parity (bit 7 of the row) XOR the Hamming bits' parity.
        row ^ (parity8(row & 0x7F) << 7)
    }

    /// Decodes a word given its parity byte.
    pub fn decode(word: u64, parity: u8) -> Decode {
        let row = word_row(word);
        let syn = u32::from((row ^ parity) & 0x7F);
        // Data parity XOR the parity of all eight stored bits: zero when
        // the overall parity still holds.
        let overall_bad = (row >> 7) ^ parity8(parity) != 0;

        match (syn, overall_bad) {
            (0, false) => Decode::Clean(word),
            // Only the overall parity bit flipped; data intact.
            (0, true) => Decode::Corrected(word),
            (pos, true) => {
                // Single-bit error at codeword position `pos`.
                if pos <= 71 {
                    match POS_TO_DATA[pos as usize] {
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

/// The reflected IEEE polynomial. In the reflected representation bit 31
/// is the coefficient of x^0 and bit 0 that of x^31.
const CRC_POLY: u32 = 0xEDB8_8320;

/// One bit step of the division: `c · x mod P`.
const fn times_x(c: u32) -> u32 {
    if c & 1 == 1 {
        (c >> 1) ^ CRC_POLY
    } else {
        c >> 1
    }
}

/// Slicing-by-8 tables for the reflected IEEE polynomial. `CRC_TABLES[0]`
/// is the classic byte table; `CRC_TABLES[k][v]` is the register after
/// feeding byte `v` and then `k` zero bytes, so one step folds eight
/// input bytes with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut v = 0;
    while v < 256 {
        let mut c = v as u32;
        let mut b = 0;
        while b < 8 {
            c = times_x(c);
            b += 1;
        }
        t[0][v] = c;
        v += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut v = 0;
        while v < 256 {
            let prev = t[k - 1][v];
            t[k][v] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            v += 1;
        }
        k += 1;
    }
    t
};

/// Product of two polynomials mod P, both in the reflected representation
/// (zlib's `multmodp`).
const fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = times_x(b);
    }
    p
}

/// `X2N[k]` is x^(2^k) mod P. The sequence has period 32 (checked below),
/// so any power x^(n·2^k) is a product of these entries.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        t[k] = mult_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};
const _: () = assert!(mult_mod_p(X2N[31], X2N[31]) == X2N[0]);

/// x^(8·bytes) mod P: multiplying a register by it is the same as feeding
/// it `bytes` zero bytes.
fn x8n_mod_p(bytes: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = bytes;
    let mut k = 3; // one byte is x^(2^3)
    while n != 0 {
        if n & 1 == 1 {
            p = mult_mod_p(X2N[k % 32], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Inputs of at least this many bytes run as four stripes.
const CRC_STRIPE_MIN: usize = 1024;

/// One slicing-by-8 step: the register after eight more input bytes.
#[inline(always)]
fn crc_word(crc: u32, word: &[u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let b = (u64::from_le_bytes(*word) ^ u64::from(crc)).to_le_bytes();
    t[7][b[0] as usize]
        ^ t[6][b[1] as usize]
        ^ t[5][b[2] as usize]
        ^ t[4][b[3] as usize]
        ^ t[3][b[4] as usize]
        ^ t[2][b[5] as usize]
        ^ t[1][b[6] as usize]
        ^ t[0][b[7] as usize]
}

/// The serial update: the raw register after `data`, eight bytes per
/// step and the byte table for a tail shorter than eight.
fn crc_serial(mut crc: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        crc = crc_word(crc, word);
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected), eight bytes per step.
///
/// From 1 KB on, the first `len / 32 * 32` bytes are split into four
/// equal stripes, each with its own register, so the table lookups of
/// different stripes overlap. The CRC is linear: the register after
/// stripes `A` then `B` is `A`'s register shifted by `B`'s length, XOR
/// `B`'s register from zero. The shift is a multiplication by
/// x^(8·len B) mod P, so the four registers fold into exactly the value
/// the serial loop gives, and the tail finishes serially.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = data;
    if data.len() >= CRC_STRIPE_MIN {
        // Four stripes of `n` eight-byte words each.
        let n = data.len() / 32;
        let (striped, tail) = data.split_at(n * 32);
        let (words, _) = striped.as_chunks::<8>();
        let (w0, w123) = words.split_at(n);
        let (w1, w23) = w123.split_at(n);
        let (w2, w3) = w23.split_at(n);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        for (((a, b), c), d) in w0.iter().zip(w1).zip(w2).zip(w3) {
            c0 = crc_word(c0, a);
            c1 = crc_word(c1, b);
            c2 = crc_word(c2, c);
            c3 = crc_word(c3, d);
        }
        let shift = x8n_mod_p(n * 8);
        crc = [c1, c2, c3]
            .into_iter()
            .fold(c0, |acc, r| mult_mod_p(shift, acc) ^ r);
        rest = tail;
    }
    !crc_serial(crc, rest)
}

/// Encodes/decodes whole 4 KB pages: per-word SEC-DED plus a trailing
/// CRC-32 over the raw data.
///
/// # Example
///
/// ```
/// use nvdimmc_nand::{PageBuf, PageCodec};
///
/// let codec = PageCodec::new(4096);
/// let page = vec![0x5Au8; 4096];
/// let mut stored = codec.encode(page.clone()).unwrap().to_vec();
/// stored[100] ^= 0x04; // flip one bit in flight
/// let (decoded, corrected) = codec.decode(&PageBuf::from(stored)).unwrap();
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
    pub const fn new(page_bytes: usize) -> Self {
        assert!(
            page_bytes > 0 && page_bytes.is_multiple_of(8),
            "page size must be a positive multiple of 8"
        );
        PageCodec { page_bytes }
    }

    /// Stored (data + ECC + CRC) size for one page.
    pub const fn stored_bytes(&self) -> usize {
        self.page_bytes + self.page_bytes / 8 + 4
    }

    /// Data bytes per page.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Encodes `data` into its stored representation, extending the
    /// buffer in place to [`PageCodec::stored_bytes`] (no copy when its
    /// capacity already allows).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NandError::BadPageSize`] if `data` is not exactly
    /// one page.
    pub fn encode(&self, mut data: Vec<u8>) -> Result<PageBuf, crate::NandError> {
        if data.len() != self.page_bytes {
            return Err(crate::NandError::BadPageSize {
                got: data.len(),
                want: self.page_bytes,
            });
        }
        data.resize(self.stored_bytes(), 0);
        let (words, rest) = data.split_at_mut(self.page_bytes);
        let (parities, crc) = rest.split_at_mut(self.page_bytes / 8);
        for (parity, word) in parities.iter_mut().zip(words.as_chunks::<8>().0) {
            *parity = Ecc::encode(u64::from_le_bytes(*word));
        }
        crc.copy_from_slice(&crc32(words).to_le_bytes());
        Ok(PageBuf::from(data))
    }

    /// Decodes a stored page, correcting single-bit errors per word.
    /// Returns the data and the number of corrected words. With no word
    /// corrected the data is the stored buffer's own prefix, shared, and
    /// the stored bytes are exactly `encode(data)`: every parity byte
    /// with a zero syndrome and intact overall parity equals
    /// [`Ecc::encode`] of its word, and the CRC matched. Only a
    /// correction copies the data.
    ///
    /// # Errors
    ///
    /// Returns [`PageDecodeError::BadSize`] for a buffer that is not one
    /// stored page, [`PageDecodeError::Uncorrectable`] when a word has two
    /// or more bit errors, and [`PageDecodeError::CrcMismatch`] when the
    /// corrected data fails the page CRC. The FTL retries a failed decode
    /// and reports one that persists as [`crate::NandError::Uncorrectable`]
    /// at the physical page.
    pub fn decode(&self, stored: &PageBuf) -> Result<(PageBuf, u64), PageDecodeError> {
        if stored.len() != self.stored_bytes() {
            return Err(PageDecodeError::BadSize {
                got: stored.len(),
                want: self.stored_bytes(),
            });
        }
        let (data_in, rest) = stored.split_at(self.page_bytes);
        let (parities, crc_bytes) = rest.split_at(self.page_bytes / 8);
        let mut fixed: Option<Vec<u8>> = None;
        let mut corrected = 0u64;
        for (i, (word, &parity)) in data_in.as_chunks::<8>().0.iter().zip(parities).enumerate() {
            match Ecc::decode(u64::from_le_bytes(*word), parity) {
                Decode::Clean(_) => {}
                Decode::Corrected(w) => {
                    let data = fixed.get_or_insert_with(|| data_in.to_vec());
                    data[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
                    corrected += 1;
                }
                Decode::Uncorrectable => return Err(PageDecodeError::Uncorrectable),
            }
        }
        let data = match fixed {
            Some(data) => PageBuf::from(data),
            None => stored.prefix(self.page_bytes),
        };
        let mut crc_word = [0u8; 4];
        for (dst, src) in crc_word.iter_mut().zip(crc_bytes) {
            *dst = *src;
        }
        if crc32(&data) != u32::from_le_bytes(crc_word) {
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
    use nvdimmc_sim::DeterministicRng;

    /// The bit-serial CRC-32 definition: one polynomial step per bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The SEC-DED encoder as a formula: Hamming bit `p` is the parity of
    /// the data bits whose codeword position has bit `p` set.
    fn encode_by_masks(word: u64) -> u8 {
        let mut masks = [0u64; 7];
        let mut pos = 1u32;
        let mut i = 0;
        while i < 64 {
            if !pos.is_power_of_two() {
                for (p, m) in masks.iter_mut().enumerate() {
                    if pos & (1 << p) != 0 {
                        *m |= 1u64 << i;
                    }
                }
                i += 1;
            }
            pos += 1;
        }
        let parity = |x: u64| (x.count_ones() & 1) as u8;
        let mut ham = 0u8;
        for (p, m) in masks.iter().enumerate() {
            ham |= parity(word & m) << p;
        }
        ham | ((parity(word) ^ parity(u64::from(ham))) << 7)
    }

    #[test]
    fn crc32_matches_the_bitwise_definition() {
        let mut rng = DeterministicRng::new(0xC3C3);
        let mut buf = vec![0u8; 8203];
        rng.fill_bytes(&mut buf);
        // Every tail around the 8-byte step and the 32-byte stripe group,
        // below and above the striping threshold (including the 4092-byte
        // sector stamp), at an aligned and an unaligned offset.
        for len in (0..=4200).chain(8192..=8199) {
            for start in [0, 3] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} at {start}");
            }
        }
        for _ in 0..16 {
            rng.fill_bytes(&mut buf[..4096]);
            assert_eq!(crc32(&buf[..4096]), crc32_bitwise(&buf[..4096]));
        }
        // The stripe fold's shift: multiplying a register by x^(8n) is
        // feeding it n zero bytes.
        let zeros = [0u8; 5000];
        for crc in [0xFFFF_FFFFu32, 0x1234_5678, 1, 0x8000_0000] {
            for n in [0, 1, 7, 8, 31, 256, 1016, 1024, 4999] {
                assert_eq!(
                    mult_mod_p(x8n_mod_p(n), crc),
                    crc_serial(crc, &zeros[..n]),
                    "register {crc:#x}, {n} zero bytes"
                );
            }
        }
    }

    #[test]
    fn encode_matches_the_mask_formula() {
        for bit in 0..64 {
            let w = 1u64 << bit;
            assert_eq!(Ecc::encode(w), encode_by_masks(w), "one-hot bit {bit}");
        }
        let mut rng = DeterministicRng::new(0xECC);
        for _ in 0..100_000 {
            let w = rng.gen_u64();
            assert_eq!(Ecc::encode(w), encode_by_masks(w), "word {w:#x}");
        }
    }

    #[test]
    fn clean_word_roundtrip() {
        for word in [0u64, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            let p = Ecc::encode(word);
            assert_eq!(Ecc::decode(word, p), Decode::Clean(word));
        }
    }

    /// Words the error tests run over: all-zero, all-one, two fixed
    /// patterns and 30 random words.
    fn sample_words() -> Vec<u64> {
        let mut rng = DeterministicRng::new(0x5EC);
        let mut words = vec![0, u64::MAX, 0xA5A5_5A5A_F00D_CAFE, 0x1234_5678_9ABC_DEF0];
        words.extend((0..30).map(|_| rng.gen_u64()));
        words
    }

    /// Flips codeword bit `b`: bits 0..64 are data, 64..72 the parity byte.
    fn flip(word: u64, parity: u8, b: u32) -> (u64, u8) {
        if b < 64 {
            (word ^ (1u64 << b), parity)
        } else {
            (word, parity ^ (1u8 << (b - 64)))
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        for word in sample_words() {
            let parity = Ecc::encode(word);
            for bit in 0..72 {
                let (w, p) = flip(word, parity, bit);
                assert_eq!(
                    Ecc::decode(w, p),
                    Decode::Corrected(word),
                    "{word:#x}: codeword bit {bit}"
                );
            }
        }
    }

    #[test]
    fn double_bit_errors_detected_not_miscorrected() {
        for word in sample_words() {
            let parity = Ecc::encode(word);
            for a in 0..72 {
                for b in (a + 1)..72 {
                    let (w, p) = flip(word, parity, a);
                    let (w, p) = flip(w, p, b);
                    assert_eq!(
                        Ecc::decode(w, p),
                        Decode::Uncorrectable,
                        "{word:#x}: codeword bits {a},{b}"
                    );
                }
            }
        }
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
        let stored = codec.encode(page.clone()).unwrap();
        assert_eq!(stored.len(), 4096 + 512 + 4);
        let (out, corrected) = codec.decode(&stored).unwrap();
        assert_eq!(out, page);
        assert_eq!(corrected, 0);
        // A clean decode hands out the stored buffer's own prefix.
        assert!(out.same_bytes(&stored.prefix(4096)));
    }

    #[test]
    fn page_corrects_scattered_single_bit_errors() {
        let codec = PageCodec::new(4096);
        let page = vec![0x3Cu8; 4096];
        let mut stored = codec.encode(page.clone()).unwrap().to_vec();
        // One bit flip in each of several distinct words.
        for w in [0usize, 17, 99, 511] {
            stored[w * 8 + 3] ^= 0x10;
        }
        let (out, corrected) = codec.decode(&stored.into()).unwrap();
        assert_eq!(out, page);
        assert_eq!(corrected, 4);
    }

    #[test]
    fn page_detects_double_error_in_word() {
        let codec = PageCodec::new(4096);
        let page = vec![0u8; 4096];
        let mut stored = codec.encode(page).unwrap().to_vec();
        stored[8] ^= 0x03; // two bits in the same word
        assert_eq!(
            codec.decode(&stored.into()),
            Err(PageDecodeError::Uncorrectable)
        );
    }

    #[test]
    fn zero_corrections_means_the_stored_bytes_are_the_encoding() {
        // The FTL's decode memo and its relocation rest on this: a stored
        // page that decodes with no word corrected is byte for byte the
        // encoding of what it decoded to. Checked for every single and
        // double bit error of a small page, data, parity and CRC alike.
        let codec = PageCodec::new(64);
        let mut data = vec![0u8; 64];
        DeterministicRng::new(0x0DEC).fill_bytes(&mut data);
        let clean = codec.encode(data).unwrap().to_vec();
        let bits = clean.len() * 8;
        let check = |damaged: Vec<u8>| {
            let damaged = PageBuf::from(damaged);
            if let Ok((out, 0)) = codec.decode(&damaged) {
                assert_eq!(codec.encode(out.to_vec()).unwrap(), damaged);
            }
        };
        check(clean.clone());
        for a in 0..bits {
            let mut one = clean.clone();
            one[a / 8] ^= 1 << (a % 8);
            check(one.clone());
            for b in a + 1..bits {
                let mut two = one.clone();
                two[b / 8] ^= 1 << (b % 8);
                check(two);
            }
        }
    }

    #[test]
    fn page_size_validated() {
        let codec = PageCodec::new(4096);
        assert!(codec.encode(vec![0u8; 100]).is_err());
        assert!(matches!(
            codec.decode(&vec![0u8; 100].into()),
            Err(PageDecodeError::BadSize { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn codec_rejects_unaligned_page() {
        PageCodec::new(1001);
    }
}
