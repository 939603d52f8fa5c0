//! Differential test: the incremental active-frontier step path must be
//! **bit-identical** to the retained naive full-scan reference path — same
//! rounds, same per-round state vectors and black sets, same random-bit
//! counts, same per-round [`StateCounts`] — for equal seeds, across all
//! three processes, a spread of graph families and initializations, and
//! every execution mode: both paths draw the same counter coins, so the
//! thread count the fast path runs on must not show.
//!
//! Together with the from-scratch recount helpers below, this pins down both
//! sides: the fast path agrees with the reference, and the reference's
//! aggregates agree with their definitions.

use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, ExecutionMode, StateCounts, StepCtx, ThreeColorProcess, ThreeState,
    ThreeStateProcess, TwoStateProcess,
};
use mis_graph::{generators, Graph, VertexSet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn graphs(seed: u64) -> Vec<Graph> {
    let mut r = rng(seed);
    vec![
        generators::complete(24),
        generators::path(40),
        generators::cycle(31),
        generators::star(25),
        generators::random_tree(60, &mut r),
        generators::gnp(80, 0.06, &mut r),
        generators::gnp(50, 0.4, &mut r),
        generators::disjoint_cliques(4, 6),
        generators::grid(6, 7),
        Graph::empty(12),
    ]
}

/// The execution modes the fast path runs under, rotated over the seeds of
/// each case. The reference ignores its mode.
const MODES: [ExecutionMode; 3] = [
    ExecutionMode::Sequential,
    ExecutionMode::Parallel { threads: 1 },
    ExecutionMode::Parallel { threads: 2 },
];

const INITS: [InitStrategy; 4] = [
    InitStrategy::AllWhite,
    InitStrategy::AllBlack,
    InitStrategy::Random,
    InitStrategy::Alternating,
];

/// Recomputes the [`StateCounts`] of a configuration from scratch, given the
/// blackness and activity predicates — independent of any engine or cached
/// bookkeeping on either process instance.
fn recount(
    g: &Graph,
    black: impl Fn(usize) -> bool,
    active: impl Fn(usize) -> bool,
) -> StateCounts {
    let stable_black = |u: usize| black(u) && g.neighbors(u).iter().all(|v| !black(v));
    let stable = |u: usize| stable_black(u) || g.neighbors(u).iter().any(&stable_black);
    let mut c = StateCounts::default();
    for u in g.vertices() {
        if black(u) {
            c.black += 1;
        } else {
            c.non_black += 1;
        }
        if active(u) {
            c.active += 1;
        }
        if stable_black(u) {
            c.stable_black += 1;
        }
        if !stable(u) {
            c.unstable += 1;
        }
    }
    c
}

fn black_set_of(g: &Graph, black: impl Fn(usize) -> bool) -> VertexSet {
    VertexSet::from_indices(g.n(), g.vertices().filter(|&u| black(u)))
}

/// Drives a (fast, reference) pair lock-step for up to `max_rounds` rounds
/// and checks the full trace, using `check` to compare and validate the pair
/// after every round. Returns the number of rounds executed.
fn drive_pair<P: Algorithm>(
    fast: &mut P,
    reference: &mut P,
    step_reference: impl Fn(&mut P, &mut ChaCha8Rng),
    check: impl Fn(&P, &P, usize),
    r_fast: &mut ChaCha8Rng,
    r_ref: &mut ChaCha8Rng,
    max_rounds: usize,
) -> usize {
    check(fast, reference, 0);
    let mut rounds = 0;
    while !fast.is_stabilized() && rounds < max_rounds {
        fast.step(StepCtx::synchronous(r_fast));
        step_reference(reference, r_ref);
        rounds += 1;
        check(fast, reference, rounds);
    }
    assert_eq!(
        fast.is_stabilized(),
        reference.is_stabilized(),
        "stabilization verdicts diverged after {rounds} rounds"
    );
    assert_eq!(fast.round(), reference.round());
    rounds
}

#[test]
fn two_state_trace_equality() {
    for (gi, g) in graphs(101).into_iter().enumerate() {
        for init in INITS {
            for seed in 0..3u64 {
                let mut r_init = rng(1000 + seed);
                let states = init.two_state(g.n(), &mut r_init);
                let mut fast = TwoStateProcess::new(&g, states.clone());
                let mut reference = TwoStateProcess::new(&g, states);
                fast.set_execution(MODES[seed as usize % 3], 7 + seed);
                reference.set_execution(ExecutionMode::Sequential, 7 + seed);
                let mut r_fast = rng(7 + seed);
                let mut r_ref = rng(7 + seed);
                drive_pair(
                    &mut fast,
                    &mut reference,
                    |p, r| p.step_reference(r),
                    |f, n, round| {
                        let ctx = format!("graph {gi}, {init:?}, seed {seed}, round {round}");
                        assert_eq!(f.states(), n.states(), "states diverged: {ctx}");
                        assert_eq!(f.black_set(), n.black_set(), "black sets diverged: {ctx}");
                        assert_eq!(
                            f.random_bits_used(),
                            n.random_bits_used(),
                            "random-bit counts diverged: {ctx}"
                        );
                        assert_eq!(f.counts(), n.counts(), "counts diverged: {ctx}");
                        let expected = recount(
                            &g,
                            |u| n.states()[u].is_black(),
                            |u| {
                                let bn = g
                                    .neighbors(u)
                                    .iter()
                                    .filter(|&v| n.states()[v].is_black())
                                    .count();
                                if n.states()[u].is_black() {
                                    bn > 0
                                } else {
                                    bn == 0
                                }
                            },
                        );
                        assert_eq!(f.counts(), expected, "counts vs recount: {ctx}");
                        assert_eq!(
                            f.black_set(),
                            black_set_of(&g, |u| n.states()[u].is_black()),
                            "black set vs recount: {ctx}"
                        );
                    },
                    &mut r_fast,
                    &mut r_ref,
                    50_000,
                );
            }
        }
    }
}

#[test]
fn three_state_trace_equality() {
    for (gi, g) in graphs(103).into_iter().enumerate() {
        for init in INITS {
            for seed in 0..3u64 {
                let mut r_init = rng(2000 + seed);
                let states = init.three_state(g.n(), &mut r_init);
                let mut fast = ThreeStateProcess::new(&g, states.clone());
                let mut reference = ThreeStateProcess::new(&g, states);
                fast.set_execution(MODES[seed as usize % 3], 11 + seed);
                reference.set_execution(ExecutionMode::Sequential, 11 + seed);
                let mut r_fast = rng(11 + seed);
                let mut r_ref = rng(11 + seed);
                // The 3-state process keeps alternating after stabilization,
                // so also compare a fixed number of post-stabilization rounds.
                let mut rounds = 0usize;
                let check = |f: &ThreeStateProcess<'_>, n: &ThreeStateProcess<'_>, round: usize| {
                    let ctx = format!("graph {gi}, {init:?}, seed {seed}, round {round}");
                    assert_eq!(f.states(), n.states(), "states diverged: {ctx}");
                    assert_eq!(f.black_set(), n.black_set(), "black sets diverged: {ctx}");
                    assert_eq!(
                        f.random_bits_used(),
                        n.random_bits_used(),
                        "random-bit counts diverged: {ctx}"
                    );
                    assert_eq!(f.counts(), n.counts(), "counts diverged: {ctx}");
                    let expected = recount(
                        &g,
                        |u| n.states()[u].is_black(),
                        |u| match n.states()[u] {
                            ThreeState::Black1 => true,
                            ThreeState::Black0 => !g
                                .neighbors(u)
                                .iter()
                                .any(|v| n.states()[v] == ThreeState::Black1),
                            ThreeState::White => {
                                !g.neighbors(u).iter().any(|v| n.states()[v].is_black())
                            }
                        },
                    );
                    assert_eq!(f.counts(), expected, "counts vs recount: {ctx}");
                };
                check(&fast, &reference, 0);
                while rounds < 50_000 && (!fast.is_stabilized() || rounds < 20) {
                    fast.step(&mut r_fast);
                    reference.step_reference(&mut r_ref);
                    rounds += 1;
                    check(&fast, &reference, rounds);
                }
                assert!(fast.is_stabilized(), "graph {gi}, {init:?}, seed {seed}");
            }
        }
    }
}

#[test]
fn three_color_trace_equality() {
    for (gi, g) in graphs(107).into_iter().enumerate() {
        for init in INITS {
            for seed in 0..2u64 {
                let mut r_fast = rng(13 + seed);
                let mut r_ref = rng(13 + seed);
                let mut fast = ThreeColorProcess::with_randomized_switch(&g, init, &mut r_fast);
                let mut reference = ThreeColorProcess::with_randomized_switch(&g, init, &mut r_ref);
                // Two seeds per case: rotate the modes across graphs too.
                fast.set_execution(MODES[(gi + seed as usize) % 3], 13 + seed);
                reference.set_execution(ExecutionMode::Sequential, 13 + seed);
                drive_pair(
                    &mut fast,
                    &mut reference,
                    |p, r| p.step_reference(r),
                    |f, n, round| {
                        let ctx = format!("graph {gi}, {init:?}, seed {seed}, round {round}");
                        assert_eq!(f.colors(), n.colors(), "colors diverged: {ctx}");
                        assert_eq!(f.black_set(), n.black_set(), "black sets diverged: {ctx}");
                        assert_eq!(
                            f.random_bits_used(),
                            n.random_bits_used(),
                            "random-bit counts diverged: {ctx}"
                        );
                        assert_eq!(f.counts(), n.counts(), "counts diverged: {ctx}");
                        let expected = recount(
                            &g,
                            |u| n.colors()[u].is_black(),
                            |u| {
                                let bn = g
                                    .neighbors(u)
                                    .iter()
                                    .filter(|&v| n.colors()[v].is_black())
                                    .count();
                                match n.colors()[u] {
                                    mis_core::ThreeColor::Black => bn > 0,
                                    mis_core::ThreeColor::White => bn == 0,
                                    mis_core::ThreeColor::Gray => false,
                                }
                            },
                        );
                        assert_eq!(f.counts(), expected, "counts vs recount: {ctx}");
                    },
                    &mut r_fast,
                    &mut r_ref,
                    100_000,
                );
            }
        }
    }
}

/// Interleaving fast and reference steps on the *same* instance must also be
/// seamless: the reference path leaves the engine in a state the fast path
/// can continue from, and vice versa.
#[test]
fn fast_and_reference_steps_interleave_on_one_instance() {
    let g = generators::gnp(70, 0.08, &mut rng(211));
    let mut r_mixed = rng(223);
    let mut r_fast = rng(223);
    let mut mixed = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r_mixed);
    let mut fast = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut r_fast);
    for round in 0..200 {
        if mixed.is_stabilized() {
            break;
        }
        if round % 3 == 0 {
            mixed.step_reference(&mut r_mixed);
        } else {
            mixed.step(&mut r_mixed);
        }
        fast.step(&mut r_fast);
        assert_eq!(mixed.states(), fast.states(), "round {round}");
        assert_eq!(mixed.counts(), fast.counts(), "round {round}");
    }
}

/// A sparse graph large enough that two threads really split the fast
/// path's phases: under every mode the fast path must still walk the
/// reference's trajectory round by round.
#[test]
fn large_sparse_trace_equality_in_every_mode() {
    let g = generators::gnp(5_000, 6.0 / 5_000.0, &mut rng(227));
    for (i, mode) in MODES.into_iter().enumerate() {
        let seed = 229 + i as u64;
        let mut r = rng(seed);
        let states = InitStrategy::Random.two_state(g.n(), &mut r);
        let mut fast = TwoStateProcess::new(&g, states.clone());
        let mut reference = TwoStateProcess::new(&g, states);
        fast.set_execution(mode, seed);
        reference.set_execution(ExecutionMode::Sequential, seed);
        drive_pair(
            &mut fast,
            &mut reference,
            |p, r| p.step_reference(r),
            |f, n, round| {
                assert_eq!(f.states(), n.states(), "two-state, {mode:?}, round {round}");
                assert_eq!(f.counts(), n.counts(), "two-state, {mode:?}, round {round}");
                assert_eq!(f.random_bits_used(), n.random_bits_used());
            },
            &mut rng(0),
            &mut rng(0),
            100_000,
        );

        let states = InitStrategy::Random.three_state(g.n(), &mut r);
        let mut fast = ThreeStateProcess::new(&g, states.clone());
        let mut reference = ThreeStateProcess::new(&g, states);
        fast.set_execution(mode, seed);
        reference.set_execution(ExecutionMode::Sequential, seed);
        drive_pair(
            &mut fast,
            &mut reference,
            |p, r| p.step_reference(r),
            |f, n, round| {
                assert_eq!(
                    f.states(),
                    n.states(),
                    "three-state, {mode:?}, round {round}"
                );
                assert_eq!(
                    f.counts(),
                    n.counts(),
                    "three-state, {mode:?}, round {round}"
                );
                assert_eq!(f.random_bits_used(), n.random_bits_used());
            },
            &mut rng(0),
            &mut rng(0),
            100_000,
        );

        let mut r_ref = r.clone();
        let mut fast = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r);
        let mut reference =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut r_ref);
        fast.set_execution(mode, seed);
        reference.set_execution(ExecutionMode::Sequential, seed);
        drive_pair(
            &mut fast,
            &mut reference,
            |p, r| p.step_reference(r),
            |f, n, round| {
                assert_eq!(
                    f.colors(),
                    n.colors(),
                    "three-color, {mode:?}, round {round}"
                );
                assert_eq!(
                    f.counts(),
                    n.counts(),
                    "three-color, {mode:?}, round {round}"
                );
                assert_eq!(f.random_bits_used(), n.random_bits_used());
            },
            &mut rng(0),
            &mut rng(0),
            100_000,
        );
    }
}
