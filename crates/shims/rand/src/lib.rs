//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of `rand` it actually uses. The generator is
//! **bit-exact** with `rand 0.8`'s `StdRng`:
//!
//! * `SeedableRng::seed_from_u64` expands the seed with the same PCG32
//!   stream `rand_core 0.6` uses;
//! * `StdRng` is ChaCha12 with a 64-bit block counter and the 4-block
//!   output buffering of `rand_chacha 0.3` (`BlockRng`), including its
//!   `next_u64` word-pairing behaviour across buffer refills;
//! * `gen::<f64>()`, `gen_range` (Lemire for integers, the `[1, 2)`
//!   mantissa trick for floats) and `gen_bool` reproduce the exact
//!   value streams of `rand 0.8`'s `Standard`, `Uniform*` and
//!   `Bernoulli` distributions.
//!
//! Keeping the streams identical preserves the calibration of every
//! seeded workload in this reproduction.

use std::ops::{Range, RangeInclusive};

/// Core RNG interface (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut i = 0;
        while i < dest.len() {
            let chunk = self.next_u32().to_le_bytes();
            let n = (dest.len() - i).min(4);
            dest[i..i + n].copy_from_slice(&chunk[..n]);
            i += n;
        }
    }
}

/// Seedable RNG interface (subset of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// The seed array type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Constructs the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, exactly as
    /// `rand_core 0.6` does.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let state = *state;
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            let bytes = pcg32(&mut state);
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    const CHACHA_WORDS: usize = 16;
    /// `rand_chacha` buffers four 64-byte blocks per refill.
    const BUF_WORDS: usize = 4 * CHACHA_WORDS;

    /// The standard generator: ChaCha12, bit-exact with `rand 0.8`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        /// Key words (state words 4..12).
        key: [u32; 8],
        /// 64-bit block counter (state words 12, 13).
        counter: u64,
        /// Stream id (state words 14, 15); zero for `from_seed`.
        stream: u64,
        /// Buffered output of four consecutive blocks.
        buf: [u32; BUF_WORDS],
        /// Next unread word in `buf`; `BUF_WORDS` means empty.
        index: usize,
    }

    /// One state word of four consecutive blocks, a lane per block.
    type Lanes = [u32; 4];

    #[inline(always)]
    fn add4(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|i| a[i].wrapping_add(b[i]))
    }

    #[inline(always)]
    fn xor_rotate4(a: Lanes, b: Lanes, by: u32) -> Lanes {
        std::array::from_fn(|i| (a[i] ^ b[i]).rotate_left(by))
    }

    /// The ChaCha quarter-round on four blocks at once: each step is
    /// one 4-lane add, xor or rotate, which the compiler vectorizes.
    #[inline(always)]
    fn quarter4(s: &mut [Lanes; CHACHA_WORDS], a: usize, b: usize, c: usize, d: usize) {
        s[a] = add4(s[a], s[b]);
        s[d] = xor_rotate4(s[d], s[a], 16);
        s[c] = add4(s[c], s[d]);
        s[b] = xor_rotate4(s[b], s[c], 12);
        s[a] = add4(s[a], s[b]);
        s[d] = xor_rotate4(s[d], s[a], 8);
        s[c] = add4(s[c], s[d]);
        s[b] = xor_rotate4(s[b], s[c], 7);
    }

    #[cfg(test)]
    #[inline(always)]
    fn quarter(s: &mut [u32; CHACHA_WORDS], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    impl StdRng {
        /// One block, scalar: the oracle of [`StdRng::blocks4`].
        #[cfg(test)]
        fn block(&self, counter: u64, out: &mut [u32]) {
            const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
            let mut s: [u32; CHACHA_WORDS] = [
                SIGMA[0],
                SIGMA[1],
                SIGMA[2],
                SIGMA[3],
                self.key[0],
                self.key[1],
                self.key[2],
                self.key[3],
                self.key[4],
                self.key[5],
                self.key[6],
                self.key[7],
                counter as u32,
                (counter >> 32) as u32,
                self.stream as u32,
                (self.stream >> 32) as u32,
            ];
            let init = s;
            // ChaCha12: six double rounds.
            for _ in 0..6 {
                quarter(&mut s, 0, 4, 8, 12);
                quarter(&mut s, 1, 5, 9, 13);
                quarter(&mut s, 2, 6, 10, 14);
                quarter(&mut s, 3, 7, 11, 15);
                quarter(&mut s, 0, 5, 10, 15);
                quarter(&mut s, 1, 6, 11, 12);
                quarter(&mut s, 2, 7, 8, 13);
                quarter(&mut s, 3, 4, 9, 14);
            }
            for i in 0..CHACHA_WORDS {
                out[i] = s[i].wrapping_add(init[i]);
            }
        }

        /// The four blocks at `counter` and the three counters after
        /// it (wrapping), back to back: ChaCha12 computed lane-parallel,
        /// with state word `i` of block `b` in lane `b` of `s[i]`.
        fn blocks4(&self, counter: u64) -> [u32; BUF_WORDS] {
            const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
            let counters: [u64; 4] = std::array::from_fn(|b| counter.wrapping_add(b as u64));
            let mut s: [Lanes; CHACHA_WORDS] = [
                [SIGMA[0]; 4],
                [SIGMA[1]; 4],
                [SIGMA[2]; 4],
                [SIGMA[3]; 4],
                [self.key[0]; 4],
                [self.key[1]; 4],
                [self.key[2]; 4],
                [self.key[3]; 4],
                [self.key[4]; 4],
                [self.key[5]; 4],
                [self.key[6]; 4],
                [self.key[7]; 4],
                counters.map(|c| c as u32),
                counters.map(|c| (c >> 32) as u32),
                [self.stream as u32; 4],
                [(self.stream >> 32) as u32; 4],
            ];
            let init = s;
            // ChaCha12: six double rounds.
            for _ in 0..6 {
                quarter4(&mut s, 0, 4, 8, 12);
                quarter4(&mut s, 1, 5, 9, 13);
                quarter4(&mut s, 2, 6, 10, 14);
                quarter4(&mut s, 3, 7, 11, 15);
                quarter4(&mut s, 0, 5, 10, 15);
                quarter4(&mut s, 1, 6, 11, 12);
                quarter4(&mut s, 2, 7, 8, 13);
                quarter4(&mut s, 3, 4, 9, 14);
            }
            let out: [Lanes; CHACHA_WORDS] = std::array::from_fn(|i| add4(s[i], init[i]));
            std::array::from_fn(|at| out[at % CHACHA_WORDS][at / CHACHA_WORDS])
        }

        fn refill(&mut self) {
            self.buf = self.blocks4(self.counter);
            self.counter = self.counter.wrapping_add(4);
            self.index = 0;
        }

        /// Byte length of [`StdRng::state_bytes`] / accepted by
        /// [`StdRng::from_state_bytes`].
        pub const STATE_BYTES: usize = 32 + 8 + 8 + 4 * BUF_WORDS + 8;

        /// Serializes the generator's full internal state (key, block
        /// counter, stream id, output buffer, and read cursor) as a
        /// fixed-width little-endian byte string, for checkpointing.
        /// A generator rebuilt by [`StdRng::from_state_bytes`] produces
        /// exactly the same output stream from this point on.
        pub fn state_bytes(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(Self::STATE_BYTES);
            for k in self.key {
                out.extend_from_slice(&k.to_le_bytes());
            }
            out.extend_from_slice(&self.counter.to_le_bytes());
            out.extend_from_slice(&self.stream.to_le_bytes());
            for w in self.buf {
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.extend_from_slice(&(self.index as u64).to_le_bytes());
            out
        }

        /// Rebuilds a generator from [`StdRng::state_bytes`] output.
        /// Returns `None` if the input has the wrong length or an
        /// out-of-range cursor.
        pub fn from_state_bytes(bytes: &[u8]) -> Option<StdRng> {
            if bytes.len() != Self::STATE_BYTES {
                return None;
            }
            let word = |at: usize| {
                u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
            };
            let quad = |at: usize| {
                let mut b = [0u8; 8];
                b.copy_from_slice(&bytes[at..at + 8]);
                u64::from_le_bytes(b)
            };
            let mut key = [0u32; 8];
            for (i, k) in key.iter_mut().enumerate() {
                *k = word(i * 4);
            }
            let counter = quad(32);
            let stream = quad(40);
            let mut buf = [0u32; BUF_WORDS];
            for (i, w) in buf.iter_mut().enumerate() {
                *w = word(48 + i * 4);
            }
            let index = usize::try_from(quad(48 + 4 * BUF_WORDS)).ok()?;
            if index > BUF_WORDS {
                return None;
            }
            Some(StdRng {
                key,
                counter,
                stream,
                buf,
                index,
            })
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut key = [0u32; 8];
            for (i, chunk) in seed.chunks_exact(4).enumerate() {
                key[i] = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            StdRng {
                key,
                counter: 0,
                stream: 0,
                buf: [0; BUF_WORDS],
                index: BUF_WORDS,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUF_WORDS {
                self.refill();
            }
            let v = self.buf[self.index];
            self.index += 1;
            v
        }

        // Mirrors `rand_core::block::BlockRng::next_u64`: pairs of
        // consecutive u32 words (low first), straddling a refill when
        // only one word is left in the buffer.
        fn next_u64(&mut self) -> u64 {
            let index = self.index;
            if index < BUF_WORDS - 1 {
                self.index += 2;
                (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
            } else if index >= BUF_WORDS {
                self.refill();
                self.index = 2;
                (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
            } else {
                let x = u64::from(self.buf[BUF_WORDS - 1]);
                self.refill();
                self.index = 1;
                (u64::from(self.buf[0]) << 32) | x
            }
        }
    }

    /// `SmallRng` aliases the standard generator here: everything in
    /// this workspace needs determinism, not speed differentiation.
    pub type SmallRng = StdRng;

    #[cfg(test)]
    mod tests {
        use super::*;

        /// RFC 7539 §2.3.2: the ChaCha20 block function test vector.
        /// ChaCha20 and ChaCha12 share the quarter-round and the
        /// state-addition structure; validating 10 double rounds
        /// against the RFC pins the core arithmetic this generator
        /// builds on.
        #[test]
        fn chacha_core_matches_rfc7539() {
            let mut s: [u32; CHACHA_WORDS] = [
                0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574,
                0x0302_0100, 0x0706_0504, 0x0b0a_0908, 0x0f0e_0d0c,
                0x1312_1110, 0x1716_1514, 0x1b1a_1918, 0x1f1e_1d1c,
                0x0000_0001, 0x0900_0000, 0x4a00_0000, 0x0000_0000,
            ];
            let init = s;
            for _ in 0..10 {
                quarter(&mut s, 0, 4, 8, 12);
                quarter(&mut s, 1, 5, 9, 13);
                quarter(&mut s, 2, 6, 10, 14);
                quarter(&mut s, 3, 7, 11, 15);
                quarter(&mut s, 0, 5, 10, 15);
                quarter(&mut s, 1, 6, 11, 12);
                quarter(&mut s, 2, 7, 8, 13);
                quarter(&mut s, 3, 4, 9, 14);
            }
            for i in 0..CHACHA_WORDS {
                s[i] = s[i].wrapping_add(init[i]);
            }
            let expected: [u32; CHACHA_WORDS] = [
                0xe4e7_f110, 0x1559_3bd1, 0x1fdd_0f50, 0xc471_20a3,
                0xc7f4_d1c7, 0x0368_c033, 0x9aaa_2204, 0x4e6c_d4c3,
                0x4664_82d2, 0x09aa_9f07, 0x05d7_c214, 0xa202_8bd9,
                0xd19c_12b5, 0xb94e_16de, 0xe883_d0cb, 0x4e3c_50a2,
            ];
            assert_eq!(s, expected);
        }

        /// A generator rebuilt from `state_bytes` mid-stream (cursor
        /// inside a buffered block) must continue identically.
        #[test]
        fn state_bytes_round_trips_mid_stream() {
            let mut rng = StdRng::from_seed([7u8; 32]);
            for _ in 0..13 {
                rng.next_u32();
            }
            let saved = rng.state_bytes();
            assert_eq!(saved.len(), StdRng::STATE_BYTES);
            let mut rebuilt = StdRng::from_state_bytes(&saved).expect("valid state");
            for _ in 0..200 {
                assert_eq!(rebuilt.next_u64(), rng.next_u64());
            }
        }

        /// The lane-parallel refill equals four scalar blocks, for
        /// several keys, streams and counters, across the 64-bit
        /// counter wrap.
        #[test]
        fn lane_parallel_blocks_equal_four_scalar_blocks() {
            let counters = [0, 1, 4, 0xFFFF_FFFF, 0x1_0000_0000, u64::MAX - 2, u64::MAX];
            for (seed, stream) in [(0u8, 0u64), (7, 0), (0xA5, 0x0123_4567_89AB_CDEF)] {
                let key = std::array::from_fn(|i| seed ^ (i as u8).wrapping_mul(37));
                let mut rng = StdRng::from_seed(key);
                rng.stream = stream;
                for counter in counters {
                    let mut want = [0u32; BUF_WORDS];
                    for (b, block) in want.chunks_exact_mut(CHACHA_WORDS).enumerate() {
                        rng.block(counter.wrapping_add(b as u64), block);
                    }
                    assert_eq!(rng.blocks4(counter), want, "seed {seed} counter {counter:#x}");
                }
            }
        }

        #[test]
        fn bad_state_bytes_are_rejected() {
            assert!(StdRng::from_state_bytes(&[0u8; 3]).is_none());
            let mut saved = StdRng::from_seed([1u8; 32]).state_bytes();
            let at = saved.len() - 8;
            saved[at..].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(StdRng::from_state_bytes(&saved).is_none());
        }
    }
}

/// Marker for types `gen::<T>()` can produce (the `Standard`
/// distribution subset used here).
pub trait Standard: Sized {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        // rand 0.8 compares the most significant bit of a u32.
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // rand 0.8 `Standard` for f64: 53 mantissa bits, [0, 1).
        let value = rng.next_u64() >> 11;
        value as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        let value = rng.next_u32() >> 8;
        value as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// A range usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// One Lemire widening-multiply rejection draw, matching `rand 0.8`'s
/// `UniformInt::sample_single`. `$large` is the sampled width: u32 for
/// the 8/16/32-bit types, u64 for the 64-bit ones, exactly as rand's
/// `uniform_int_impl!` instantiations choose.
macro_rules! uniform_int {
    ($($ty:ty => $large:ty, $unsigned:ty, $wide:ty, $next:ident);+ $(;)?) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let range = ((self.end as $unsigned).wrapping_sub(self.start as $unsigned))
                    as $large;
                // range > 0 always (start < end) and the shift-based
                // zone is correct because $large exceeds u16.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v: $large = rng.$next() as $large;
                    let m = (v as $wide).wrapping_mul(range as $wide);
                    let (hi, lo) = ((m >> <$large>::BITS) as $large, m as $large);
                    if lo <= zone {
                        return (self.start as $unsigned)
                            .wrapping_add(hi as $unsigned) as $ty;
                    }
                }
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let range = ((end as $unsigned).wrapping_sub(start as $unsigned) as $large)
                    .wrapping_add(1);
                if range == 0 {
                    // Full domain.
                    return rng.$next() as $unsigned as $ty;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v: $large = rng.$next() as $large;
                    let m = (v as $wide).wrapping_mul(range as $wide);
                    let (hi, lo) = ((m >> <$large>::BITS) as $large, m as $large);
                    if lo <= zone {
                        return (start as $unsigned).wrapping_add(hi as $unsigned) as $ty;
                    }
                }
            }
        }
    )+};
}

uniform_int! {
    u8 => u32, u8, u64, next_u32;
    u16 => u32, u16, u64, next_u32;
    u32 => u32, u32, u64, next_u32;
    u64 => u64, u64, u128, next_u64;
    usize => u64, usize, u128, next_u64;
    i8 => u32, u8, u64, next_u32;
    i16 => u32, u16, u64, next_u32;
    i32 => u32, u32, u64, next_u32;
    i64 => u64, u64, u128, next_u64;
    isize => u64, usize, u128, next_u64;
}

macro_rules! uniform_float {
    ($($ty:ty => $uty:ty, $bits_to_discard:expr, $next:ident);+ $(;)?) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = (self.start, self.end);
                assert!(low < high, "cannot sample empty range");
                let scale = high - low;
                loop {
                    // Value in [1, 2): fresh mantissa under exponent 0.
                    let value1_2 = <$ty>::from_bits(
                        (rng.$next() >> $bits_to_discard) | <$ty>::to_bits(1.0),
                    );
                    let value0_1 = value1_2 - 1.0;
                    let res = value0_1 * scale + low;
                    if res < high {
                        return res;
                    }
                }
            }
        }
    )+};
}

uniform_float! {
    f64 => u64, 12u32, next_u64;
    f32 => u32, 9u32, next_u32;
}

/// The user-facing RNG extension trait (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples from the `Standard` distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli trial with probability `p`, exactly as `rand 0.8`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        if p == 1.0 {
            return true;
        }
        // rand 0.8 Bernoulli: threshold = p * 2^64 compared to a u64.
        let p_int = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn u32_pairs_compose_u64() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let lo = a.next_u32() as u64;
        let hi = a.next_u32() as u64;
        assert_eq!(b.next_u64(), (hi << 32) | lo);
    }

    #[test]
    fn straddled_refill_matches_word_pairing() {
        // Drain 255 u32s so one word remains, then draw a u64: the low
        // half must be the last word, the high half the first word of
        // the next refill.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut last = 0u32;
        for _ in 0..256 {
            last = a.next_u32();
        }
        let _ = last;
        for _ in 0..255 {
            b.next_u32();
        }
        let straddle = b.next_u64();
        assert_eq!(straddle as u32, last);
    }

    #[test]
    fn distributions_are_in_range() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
            let x = r.gen_range(0.75..1.25);
            assert!((0.75..1.25).contains(&x));
            let n = r.gen_range(5u64..17);
            assert!((5..17).contains(&n));
            let i = r.gen_range(-3i32..4);
            assert!((-3..4).contains(&i));
        }
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: u64 = StdRng::seed_from_u64(1).gen();
        let b: u64 = StdRng::seed_from_u64(1).gen();
        let c: u64 = StdRng::seed_from_u64(2).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
