//! The beeping communication model (full-duplex / sender collision
//! detection) and the beeping adaptation of the 2-state MIS process.

use mis_core::counter_rng::DRAW_STATE;
use mis_core::init::InitStrategy;
use mis_core::{Activation, Algorithm, Capabilities, Color, CounterRng, StateCounts, StepCtx};
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// What a node does in one beeping round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BeepAction {
    /// Transmit a beep (carrier signal) to all neighbors.
    Beep,
    /// Stay silent and listen.
    Listen,
}

/// Simulates one synchronous round of the beeping channel: every node in
/// `beeping` beeps, and the result tells each node whether **at least one of
/// its neighbors** beeped. With sender collision detection (the full-duplex
/// model assumed by the paper) beeping nodes receive this feedback too.
///
/// The channel deliberately returns a single bit per node — nothing about
/// *which* or *how many* neighbors beeped.
///
/// # Panics
///
/// Panics if `beeping.universe() != g.n()`.
///
/// # Example
///
/// ```
/// use mis_comm::beeping::beep_round;
/// use mis_graph::{Graph, VertexSet};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let heard = beep_round(&g, &VertexSet::from_indices(3, [0]));
/// assert_eq!(heard, vec![false, true, false]);
/// ```
pub fn beep_round(g: &Graph, beeping: &VertexSet) -> Vec<bool> {
    assert_eq!(
        beeping.universe(),
        g.n(),
        "beeping set universe must match the graph"
    );
    let mut heard = vec![false; g.n()];
    for u in beeping.iter() {
        for v in g.neighbors(u) {
            heard[v] = true;
        }
    }
    heard
}

/// The 2-state MIS process implemented as a **beeping algorithm**: black
/// nodes beep, white nodes listen, and each node updates its state using
/// only its own color and the single "heard a beep" bit (Section 1 of the
/// paper).
///
/// * a black node that hears a beep (some neighbor is black) re-randomizes;
/// * a white node that hears silence (no neighbor is black) re-randomizes;
/// * all other nodes keep their state.
///
/// The node-local rule never inspects neighbor states, only the channel
/// feedback; nevertheless it is *trace equivalent* to
/// [`mis_core::TwoStateProcess`] (same seed, same initial states, same state
/// sequence), which the test suite checks: a node draws its coins from the
/// same counter coordinates `(seed, node, round, DRAW_STATE)`, keyed by
/// [`set_counter_seed`](Self::set_counter_seed) or, failing that, by one
/// word of the RNG passed to the first round.
#[derive(Debug, Clone)]
pub struct BeepingTwoStateMis<'g> {
    graph: &'g Graph,
    states: Vec<Color>,
    counter: Option<CounterRng>,
    round: usize,
    random_bits: u64,
}

impl<'g> BeepingTwoStateMis<'g> {
    /// Creates the beeping network with the given initial colors.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub fn new(graph: &'g Graph, states: Vec<Color>) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "initial state vector length must equal the number of vertices"
        );
        BeepingTwoStateMis {
            graph,
            states,
            counter: None,
            round: 0,
            random_bits: 0,
        }
    }

    /// Keys the nodes' coins with `seed` (see the struct docs).
    pub fn set_counter_seed(&mut self, seed: u64) {
        self.counter = Some(CounterRng::new(seed));
    }

    /// Creates the beeping network with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::new(graph, init.two_state(graph.n(), rng))
    }

    /// Current color of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> Color {
        self.states[u]
    }

    /// The full state vector (indexed by vertex id).
    pub fn states(&self) -> &[Color] {
        &self.states
    }

    /// The communication graph the network runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The action node `u` takes in the next round: black nodes beep, white
    /// nodes listen.
    pub fn action(&self, u: VertexId) -> BeepAction {
        if self.states[u].is_black() {
            BeepAction::Beep
        } else {
            BeepAction::Listen
        }
    }

    /// Overwrites the color of node `u` in place, modelling a transient
    /// fault that corrupts the node's memory.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_color(&mut self, u: VertexId, color: Color) {
        self.states[u] = color;
    }

    /// Executes one synchronous beeping round: black nodes beep, and every
    /// node that is active given what it heard re-draws its color.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        let everyone = VertexSet::from_indices(self.graph.n(), self.graph.vertices());
        self.step_scheduled(&everyone, rng);
    }

    /// Executes one beeping round in which only the nodes of `scheduled`
    /// are activated: the channel round happens as usual (every black node
    /// beeps), but only scheduled nodes apply the update rule; all others
    /// keep their color. A node draws the coin it would draw in a
    /// synchronous round, so a full `scheduled` set is exactly a
    /// [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `scheduled.universe() != n`.
    pub fn step_scheduled(&mut self, scheduled: &VertexSet, rng: &mut dyn RngCore) {
        assert_eq!(
            scheduled.universe(),
            self.graph.n(),
            "scheduled set universe must match the graph"
        );
        let counter = CounterRng::get_or_key(&mut self.counter, rng);
        let round = self.round as u64;
        let heard = self.heard();
        for u in scheduled.iter() {
            if Self::node_is_active(self.states[u], heard[u]) {
                self.random_bits += 1;
                self.states[u] = if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                    Color::Black
                } else {
                    Color::White
                };
            }
        }
        self.round += 1;
    }

    fn heard(&self) -> Vec<bool> {
        let beeping = VertexSet::from_indices(
            self.graph.n(),
            self.graph.vertices().filter(|&u| self.states[u].is_black()),
        );
        beep_round(self.graph, &beeping)
    }

    fn node_is_active(color: Color, heard_beep: bool) -> bool {
        match color {
            Color::Black => heard_beep,
            Color::White => !heard_beep,
        }
    }
}

impl Algorithm for BeepingTwoStateMis<'_> {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn round(&self) -> usize {
        self.round
    }

    fn step(&mut self, ctx: StepCtx<'_>) {
        match ctx.activation {
            Activation::All => self.step(ctx.rng),
            Activation::Subset(set) => self.step_scheduled(set, ctx.rng),
        }
    }

    fn is_stabilized(&self) -> bool {
        let heard = self.heard();
        self.graph
            .vertices()
            .all(|u| !Self::node_is_active(self.states[u], heard[u]))
    }

    fn black_set(&self) -> VertexSet {
        VertexSet::from_indices(
            self.n(),
            self.graph.vertices().filter(|&u| self.states[u].is_black()),
        )
    }

    fn active_set(&self) -> VertexSet {
        let heard = self.heard();
        VertexSet::from_indices(
            self.n(),
            self.graph
                .vertices()
                .filter(|&u| Self::node_is_active(self.states[u], heard[u])),
        )
    }

    fn stable_black_set(&self) -> VertexSet {
        let heard = self.heard();
        VertexSet::from_indices(
            self.n(),
            self.graph
                .vertices()
                .filter(|&u| self.states[u].is_black() && !heard[u]),
        )
    }

    fn unstable_set(&self) -> VertexSet {
        let stable_black = self.stable_black_set();
        VertexSet::from_indices(
            self.n(),
            self.graph.vertices().filter(|&u| {
                !stable_black.contains(u)
                    && !self
                        .graph
                        .neighbors(u)
                        .iter()
                        .any(|v| stable_black.contains(v))
            }),
        )
    }

    fn counts(&self) -> StateCounts {
        let heard = self.heard();
        let stable_black = self.stable_black_set();
        let mut c = StateCounts::default();
        for u in self.graph.vertices() {
            if self.states[u].is_black() {
                c.black += 1;
            } else {
                c.non_black += 1;
            }
            if Self::node_is_active(self.states[u], heard[u]) {
                c.active += 1;
            }
            if stable_black.contains(u) {
                c.stable_black += 1;
            }
            if !stable_black.contains(u)
                && !self
                    .graph
                    .neighbors(u)
                    .iter()
                    .any(|v| stable_black.contains(v))
            {
                c.unstable += 1;
            }
        }
        c
    }

    fn states_per_vertex(&self) -> usize {
        2
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            partial_activation: true,
            fault_injection: true,
            byzantine: true,
            trace: true,
            ..Capabilities::default()
        }
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        // A fault redraws the color with one coin: black or white.
        victims
            .iter()
            .filter(|&&u| self.set_byzantine_state(u, rng.gen_bool(0.5)))
            .count()
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        let color = if black { Color::Black } else { Color::White };
        let changed = self.color(u) != color;
        self.set_color(u, color);
        changed
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::TwoStateProcess;
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn beep_round_reports_neighbor_beeps_only() {
        let g = generators::star(5);
        // Only a leaf beeps: the hub hears it, other leaves do not.
        let heard = beep_round(&g, &VertexSet::from_indices(5, [1]));
        assert_eq!(heard, vec![true, false, false, false, false]);
        // The hub beeps: every leaf hears it, the hub itself does not
        // (sender collision detection reports *neighbor* beeps only).
        let heard = beep_round(&g, &VertexSet::from_indices(5, [0]));
        assert_eq!(heard, vec![false, true, true, true, true]);
        // Nobody beeps.
        assert!(beep_round(&g, &VertexSet::new(5)).iter().all(|h| !h));
    }

    #[test]
    fn actions_follow_colors() {
        let g = generators::path(2);
        let net = BeepingTwoStateMis::new(&g, vec![Color::Black, Color::White]);
        assert_eq!(net.action(0), BeepAction::Beep);
        assert_eq!(net.action(1), BeepAction::Listen);
    }

    #[test]
    fn trace_equivalent_to_direct_two_state_process() {
        // Same graph, same initial states, same seed => identical state
        // sequences, because the beeping adapter draws the same per-vertex
        // counter coins as the direct process.
        let mut setup_rng = rng(100);
        let g = generators::gnp(80, 0.1, &mut setup_rng);
        let init = InitStrategy::Random.two_state(g.n(), &mut setup_rng);

        let mut direct = TwoStateProcess::new(&g, init.clone());
        let mut beeping = BeepingTwoStateMis::new(&g, init);
        let mut rng_a = rng(7);
        let mut rng_b = rng(7);
        for round in 0..300 {
            assert_eq!(
                direct.states(),
                beeping.states(),
                "traces diverged at round {round}"
            );
            assert_eq!(direct.is_stabilized(), beeping.is_stabilized());
            if direct.is_stabilized() {
                break;
            }
            direct.step(&mut rng_a);
            beeping.step(&mut rng_b);
        }
        assert_eq!(direct.random_bits_used(), beeping.random_bits_used());
    }

    #[test]
    fn stabilizes_to_mis() {
        let mut r = rng(5);
        for g in [
            generators::complete(20),
            generators::random_tree(60, &mut r),
            generators::gnp(80, 0.15, &mut r),
        ] {
            let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 100_000).unwrap();
            assert!(mis_check::is_mis(&g, &net.black_set()));
        }
    }

    #[test]
    fn counts_and_sets_are_consistent() {
        let mut r = rng(6);
        let g = generators::gnp(50, 0.2, &mut r);
        let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::AllBlack, &mut r);
        for _ in 0..40 {
            let c = net.counts();
            assert_eq!(c.black, net.black_set().len());
            assert_eq!(c.active, net.active_set().len());
            assert_eq!(c.stable_black, net.stable_black_set().len());
            assert_eq!(c.unstable, net.unstable_set().len());
            if net.is_stabilized() {
                break;
            }
            net.step(&mut r);
        }
    }

    #[test]
    #[should_panic(expected = "universe must match")]
    fn beep_round_rejects_mismatched_universe() {
        let g = generators::path(3);
        beep_round(&g, &VertexSet::new(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The beeping adaptation stabilizes to an MIS on random graphs.
        #[test]
        fn beeping_reaches_mis(seed in 0u64..5000, n in 1usize..40, p_edge in 0.0f64..0.6) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut net = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &net.black_set()));
        }
    }
}
