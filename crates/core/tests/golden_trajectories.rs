//! Golden fingerprints of counter-RNG trajectories.
//!
//! Each case runs one of the paper's three processes under
//! `ExecutionMode::Parallel { threads: 2 }` on a seeded `G(n, p)` graph:
//! stabilize, corrupt 20% of the vertices, re-stabilize. It hashes the
//! round counts, the black sets, the random-bit counts and the number of
//! changed victims (FNV-1a) and compares the hash with a value recorded
//! once. Counter draws are pure functions of `(seed, vertex, round, draw)`,
//! so any change to which coins a round draws, or to how a round applies
//! them, fails here instead of silently moving experiment numbers.

use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, ExecutionMode, RandomizedLogSwitch, ThreeColorProcess, ThreeStateProcess,
    TwoStateProcess, DEFAULT_ZETA,
};
use mis_graph::{generators, Graph, VertexSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const MODE: ExecutionMode = ExecutionMode::Parallel { threads: 2 };

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_set(&mut self, set: &VertexSet) {
        self.write(set.len() as u64);
        for u in set.iter() {
            self.write(u as u64);
        }
    }
}

/// The graphs every process runs on: two small dense-ish instances and one
/// sparse instance large enough for the two-thread chunked phases.
fn graphs() -> Vec<(u64, Graph)> {
    [
        (1u64, 300usize, 0.05f64),
        (2, 500, 0.02),
        (3, 20_000, 6.0 / 20_000.0),
    ]
    .into_iter()
    .map(|(seed, n, p)| {
        let g = generators::gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed));
        (seed, g)
    })
    .collect()
}

/// Stabilize, inject a 20% fault, re-stabilize; fingerprint every phase.
fn fingerprint<A: Algorithm>(alg: &mut A, rng: &mut ChaCha8Rng) -> u64 {
    let mut h = Fnv::new();
    let rounds = alg.run_to_stabilization(rng, 1_000_000).unwrap();
    h.write(rounds as u64);
    h.write_set(&alg.black_set());
    h.write(alg.random_bits_used());
    h.write(alg.inject_faults(0.2, rng) as u64);
    let rounds = alg.run_to_stabilization(rng, 1_000_000).unwrap();
    h.write(rounds as u64);
    h.write_set(&alg.black_set());
    h.write(alg.random_bits_used());
    h.0
}

fn check(name: &str, expected: [u64; 3], mut run: impl FnMut(&Graph, u64) -> u64) {
    let got: Vec<u64> = graphs().iter().map(|(seed, g)| run(g, *seed)).collect();
    assert_eq!(got, expected, "{name}: fingerprints {got:x?}");
}

#[test]
fn two_state_parallel_trajectories_are_pinned() {
    check(
        "two-state",
        [
            0x30d5_0dee_4d05_e61e,
            0xd367_9c4f_199c_902c,
            0x328c_9cca_8140_b2c5,
        ],
        |g, seed| {
            let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x2A);
            let states = InitStrategy::Random.two_state(g.n(), &mut r);
            let mut p = TwoStateProcess::new(g, states);
            p.set_execution(MODE, seed);
            fingerprint(&mut p, &mut r)
        },
    );
}

#[test]
fn three_state_parallel_trajectories_are_pinned() {
    check(
        "three-state",
        [
            0x2e24_eff6_175b_b774,
            0x81a2_ec8e_5686_6fbf,
            0x3c8f_73ea_0929_964c,
        ],
        |g, seed| {
            let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x3B);
            let states = InitStrategy::Random.three_state(g.n(), &mut r);
            let mut p = ThreeStateProcess::new(g, states);
            p.set_execution(MODE, seed);
            fingerprint(&mut p, &mut r)
        },
    );
}

#[test]
fn three_color_parallel_trajectories_are_pinned() {
    check(
        "three-color",
        [
            0x6059_1b8c_fee0_fbcc,
            0x9438_7e65_e8de_7fcd,
            0xc169_545b_1913_ea85,
        ],
        |g, seed| {
            let mut r = ChaCha8Rng::seed_from_u64(seed ^ 0x4C);
            let colors = InitStrategy::Random.three_color(g.n(), &mut r);
            let switch =
                RandomizedLogSwitch::with_init(g, InitStrategy::Random, DEFAULT_ZETA, &mut r);
            let mut p = ThreeColorProcess::new(g, colors, switch);
            p.set_execution(MODE, seed);
            fingerprint(&mut p, &mut r)
        },
    );
}
