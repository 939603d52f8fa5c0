//! **Counter-based per-vertex randomness**: every random value is a pure
//! function of `(run_seed, vertex, round, draw_index)`.
//!
//! The paper's processes are synchronous *parallel* updates — each vertex
//! flips its own coins, independently of every other vertex. A single
//! sequential RNG stream would force an artificial total order on those coin
//! flips: draws would have to happen in ascending vertex id or the run would
//! not be reproducible, which in turn serializes the whole round.
//! [`CounterRng`] removes the order dependency: the value of vertex `u`'s
//! coin in round `t` is
//!
//! ```text
//! word(u, t, i) = philox(key(seed), u, t, i)
//! ```
//!
//! a keyed [Philox]-style block function evaluated on demand, so any thread
//! can compute any vertex's randomness at any time and the result is
//! **bit-identical for every thread count** — the determinism contract the
//! parallel engine is built on.
//!
//! The mixing function is a weakened Philox-2x64 (6 rounds of the
//! multiply-hi/lo bijection with the Weyl key schedule): not a
//! cryptographic PRF, but far beyond the statistical quality the MIS
//! processes need, and ~1 multiply-chain per draw. Quality is exercised by
//! the statistical sanity tests below and, indirectly, by every
//! stabilization test.
//!
//! [Philox]: https://www.thesalmons.org/john/random123/papers/random123sc11.pdf

use rand::RngCore;

/// Draw index used for the per-round state coin of the MIS processes.
pub const DRAW_STATE: u64 = 0;
/// Draw index used by the randomized logarithmic switch sub-process.
pub const DRAW_SWITCH: u64 = 1;
/// Draw index used by Byzantine adversary strategies ([`crate::byzantine`]):
/// adversarial overrides must not perturb the protocol's own draw axes, or a
/// Byzantine run would change the honest vertices' coins.
pub const DRAW_BYZANTINE: u64 = 2;

/// Philox multiplication constant (`PHILOX_M2x64_0`).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Weyl sequence increment for the key schedule (golden-ratio constant).
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Number of Philox rounds. The reference generator uses 10; 6 already
/// passes the statistical batteries that matter at simulation quality.
const PHILOX_ROUNDS: u32 = 6;

/// SplitMix64 finalizer, used to expand the user seed into a key.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based keyed RNG: random words are pure functions of
/// `(run_seed, vertex, round, draw_index)`, independent of evaluation order
/// and thread count.
///
/// # Example
///
/// ```
/// use mis_core::counter_rng::CounterRng;
///
/// let rng = CounterRng::new(42);
/// // The same coordinates always give the same word, any order, any thread.
/// assert_eq!(rng.word(7, 3, 0), rng.word(7, 3, 0));
/// assert_ne!(rng.word(7, 3, 0), rng.word(8, 3, 0));
/// let p_half = (0..1000).filter(|&u| rng.gen_bool(0.5, u, 0, 0)).count();
/// assert!((400..600).contains(&p_half));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Creates the generator for one run, expanding `seed` with SplitMix64
    /// so that nearby seeds produce unrelated keys.
    pub fn new(seed: u64) -> Self {
        CounterRng {
            key: splitmix64(seed),
        }
    }

    /// The random 64-bit word at coordinates `(vertex, round, draw)`.
    ///
    /// `draw` distinguishes independent draws of the same vertex in the same
    /// round (e.g. [`DRAW_STATE`] vs [`DRAW_SWITCH`]); it must be below 256,
    /// which is checked in debug builds only.
    #[inline]
    pub fn word(&self, vertex: u64, round: u64, draw: u64) -> u64 {
        debug_assert!(draw < 256, "draw index {draw} out of range");
        // Counter block: (vertex, round·256 + draw). Rounds stay far below
        // 2^56 in any realistic run, so the packing is collision-free.
        let mut x0 = vertex;
        let mut x1 = (round << 8) | draw;
        let mut k = self.key;
        for _ in 0..PHILOX_ROUNDS {
            let prod = u128::from(x0) * u128::from(PHILOX_M);
            let hi = (prod >> 64) as u64;
            let lo = prod as u64;
            x0 = hi ^ k ^ x1;
            x1 = lo;
            k = k.wrapping_add(PHILOX_W);
        }
        x0 ^ x1
    }

    /// A Bernoulli draw with success probability `p` at the given
    /// coordinates — the counter-based analogue of `Rng::gen_bool`, using
    /// the same 53-bit comparison as the vendored `rand`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&self, p: f64, vertex: u64, round: u64, draw: u64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: probability {p} not in [0, 1]"
        );
        ((self.word(vertex, round, draw) >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// A fair coin at the given coordinates.
    #[inline]
    pub fn coin(&self, vertex: u64, round: u64, draw: u64) -> bool {
        self.word(vertex, round, draw) & 1 == 1
    }

    /// The generator held in `slot`, first keying an empty slot with one
    /// word of `rng`. A process that no seed was given to keys its coins
    /// this way on its first round, so runs driven by different streams
    /// draw independent coins.
    pub fn get_or_key(slot: &mut Option<CounterRng>, rng: &mut dyn RngCore) -> CounterRng {
        *slot.get_or_insert_with(|| CounterRng::new(rng.next_u64()))
    }

    /// A sequential [`RngCore`] view over the draw axis of one
    /// `(vertex, round)` coordinate, for code written against the vendored
    /// rand API. Each `next_u64` consumes one draw index.
    pub fn stream(&self, vertex: u64, round: u64) -> CounterStream {
        CounterStream {
            rng: *self,
            vertex,
            round,
            draw: 0,
        }
    }
}

/// Sequential [`RngCore`] adapter over one `(vertex, round)` coordinate of a
/// [`CounterRng`]; see [`CounterRng::stream`].
#[derive(Debug, Clone)]
pub struct CounterStream {
    rng: CounterRng,
    vertex: u64,
    round: u64,
    draw: u64,
}

impl RngCore for CounterStream {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let word = self.rng.word(self.vertex, self.round, self.draw);
        self.draw += 1;
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn pure_function_of_coordinates() {
        let a = CounterRng::new(9);
        let b = CounterRng::new(9);
        for v in 0..50u64 {
            for t in 0..10u64 {
                assert_eq!(a.word(v, t, 0), b.word(v, t, 0));
                assert_eq!(a.word(v, t, 1), b.word(v, t, 1));
            }
        }
    }

    #[test]
    fn coordinates_decorrelate() {
        let rng = CounterRng::new(1);
        let base = rng.word(100, 100, 0);
        assert_ne!(base, rng.word(101, 100, 0), "vertex must matter");
        assert_ne!(base, rng.word(100, 101, 0), "round must matter");
        assert_ne!(base, rng.word(100, 100, 1), "draw must matter");
        assert_ne!(
            base,
            CounterRng::new(2).word(100, 100, 0),
            "seed must matter"
        );
    }

    #[test]
    fn bits_are_balanced() {
        // Bit balance over a structured (worst-case-ish) coordinate grid:
        // low-entropy counters are exactly what a weak mixer fails on.
        let rng = CounterRng::new(0);
        let mut ones = 0u64;
        let samples = 1u64 << 14;
        for v in 0..samples {
            ones += u64::from(rng.word(v, v % 17, v % 2).count_ones());
        }
        let frac = ones as f64 / (samples * 64) as f64;
        assert!((0.49..0.51).contains(&frac), "one-bit fraction {frac}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let rng = CounterRng::new(33);
        for &p in &[0.0, 0.25, 0.5, 1.0 / 128.0, 1.0] {
            let hits = (0..20_000u64).filter(|&v| rng.gen_bool(p, v, 3, 1)).count();
            let frac = hits as f64 / 20_000.0;
            assert!((frac - p).abs() < 0.02, "p = {p}: observed fraction {frac}");
        }
    }

    #[test]
    fn avalanche_on_adjacent_vertices() {
        // Flipping one input bit should flip ~half the output bits.
        let rng = CounterRng::new(7);
        let mut total_flips = 0u32;
        for v in 0..512u64 {
            total_flips += (rng.word(v, 5, 0) ^ rng.word(v ^ 1, 5, 0)).count_ones();
        }
        let mean = f64::from(total_flips) / 512.0;
        assert!((24.0..40.0).contains(&mean), "mean flipped bits {mean}");
    }

    #[test]
    fn stream_adapter_walks_the_draw_axis() {
        let rng = CounterRng::new(4);
        let mut s = rng.stream(11, 2);
        assert_eq!(s.next_u64(), rng.word(11, 2, 0));
        assert_eq!(s.next_u64(), rng.word(11, 2, 1));
        // The rand extension trait works on top of the adapter.
        let x: usize = rng.stream(11, 2).gen_range(0..10);
        assert!(x < 10);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn invalid_probability_panics() {
        CounterRng::new(0).gen_bool(1.5, 0, 0, 0);
    }
}
