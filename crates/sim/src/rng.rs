//! Deterministic randomness helpers.
//!
//! All stochastic behaviour in the reproduction (workload addresses, bit
//! error injection, think times) flows through [`DeterministicRng`], a
//! self-contained seeded xoshiro256** generator, so that every experiment
//! is exactly reproducible from its seed and the simulator carries no
//! external RNG dependency.

/// splitmix64 step — used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random number generator with convenience samplers.
///
/// The core is xoshiro256** (Blackman & Vigna), seeded through splitmix64
/// as its authors recommend; it is small, fast, and has no external
/// dependencies, which keeps the whole workspace buildable offline.
///
/// # Example
///
/// ```
/// use nvdimmc_sim::DeterministicRng;
///
/// let mut a = DeterministicRng::new(42);
/// let mut b = DeterministicRng::new(42);
/// assert_eq!(a.gen_range(0..100), b.gen_range(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    s: [u64; 4],
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DeterministicRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// thread its own stream without cross-coupling.
    pub fn fork(&mut self, salt: u64) -> DeterministicRng {
        let s = self.gen_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DeterministicRng::new(s)
    }

    /// Uniform sample from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range called with empty range");
        let span = range.end - range.start;
        range.start + self.bounded(span)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0, 1).
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in 0..=1");
        self.gen_f64() < p
    }

    /// Uniform 64-bit value (one xoshiro256** step).
    pub fn gen_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Fills a byte slice with random data (for workload payloads): one
    /// draw per eight bytes, little-endian, and one more for a short tail,
    /// of which only the leading bytes are used.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let (words, tail) = buf.as_chunks_mut::<8>();
        for word in words {
            *word = self.gen_u64().to_le_bytes();
        }
        if !tail.is_empty() {
            let word = self.gen_u64().to_le_bytes();
            tail.copy_from_slice(&word[..tail.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniform value in `0..bound` via rejection sampling (no modulo bias).
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound.is_power_of_two() {
            return self.gen_u64() & (bound - 1);
        }
        // Reject the (tiny) biased tail of the 64-bit space.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.gen_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

/// A Zipfian sampler over `0..n` with skew `theta`, using the rejection
/// method of Gray et al. (as popularised by YCSB). Used by the TPC-H trace
/// generator to model hot tuples.
///
/// # Example
///
/// ```
/// use nvdimmc_sim::{DeterministicRng, Zipf};
///
/// let mut rng = DeterministicRng::new(7);
/// let zipf = Zipf::new(1000, 0.99);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `0..n` with skew `theta` (0 = uniform-ish,
    /// 0.99 = classic YCSB hot-spot).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; integral approximation for large n keeps
        // construction O(1)-ish while staying accurate to <0.1%.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // integral of x^-theta from 10000 to n
            let a = 1.0 - theta;
            head + ((n as f64).powf(a) - 10_000f64.powf(a)) / a
        }
    }

    /// Draws one sample in `0..n`. Item 0 is the hottest.
    pub fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let x = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        x.min(self.n - 1)
    }

    /// The population size.
    pub fn population(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..64).filter(|_| a.gen_u64() == b.gen_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = DeterministicRng::new(9);
        let mut root2 = DeterministicRng::new(9);
        let mut c1 = root1.fork(0);
        let mut c2 = root2.fork(0);
        assert_eq!(c1.gen_u64(), c2.gen_u64());
        let mut d1 = root1.fork(1);
        assert_ne!(c1.gen_u64(), d1.gen_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DeterministicRng::new(3);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = DeterministicRng::new(11);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = DeterministicRng::new(12);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // All-zero after filling 13 bytes is astronomically unlikely.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn fill_bytes_stream_is_pinned() {
        // The first 17 bytes seed 0xF111 gives, and the FNV-1a hash and
        // following draw of a 4096-byte fill, as the byte-at-a-time
        // implementation produced them: workload payloads (and so every
        // digest built on them) depend on this exact stream.
        const STREAM: [u8; 17] = [
            237, 168, 214, 49, 80, 31, 248, 238, 187, 39, 138, 119, 148, 181, 44, 94, 43,
        ];
        let fnv = |buf: &[u8]| {
            buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        for len in 0..=17 {
            let mut rng = DeterministicRng::new(0xF111);
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            assert_eq!(buf, STREAM[..len], "len {len}");
            // A partial word still consumes one whole draw.
            let mut reference = DeterministicRng::new(0xF111);
            for _ in 0..len.div_ceil(8) {
                reference.gen_u64();
            }
            assert_eq!(rng.gen_u64(), reference.gen_u64(), "len {len}");
        }
        let mut rng = DeterministicRng::new(0xF111);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        assert_eq!(page[..17], STREAM);
        assert_eq!(fnv(&page), 0x0c3f_f22a_c036_663f);
        assert_eq!(rng.gen_u64(), 0xf7b9_53fe_d7d3_ded8);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DeterministicRng::new(4);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_skews_toward_zero() {
        let mut rng = DeterministicRng::new(5);
        let zipf = Zipf::new(10_000, 0.99);
        let mut low = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            if zipf.sample(&mut rng) < 100 {
                low += 1;
            }
        }
        // With theta=0.99 the hottest 1% of items should draw far more than
        // 1% of samples.
        assert!(
            f64::from(low) / N as f64 > 0.3,
            "hot fraction = {}",
            f64::from(low) / N as f64
        );
    }

    #[test]
    fn zipf_stays_in_range() {
        let mut rng = DeterministicRng::new(6);
        let zipf = Zipf::new(17, 0.5);
        for _ in 0..5000 {
            assert!(zipf.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn zipf_large_population_constructs() {
        // 16 GB / 4 KB pages = 4M items; construction must stay fast.
        let zipf = Zipf::new(4 << 20, 0.9);
        assert_eq!(zipf.population(), 4 << 20);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 0.5);
    }
}
