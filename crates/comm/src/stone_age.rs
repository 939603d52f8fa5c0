//! The synchronous stone age communication model (Emek & Wattenhofer 2013)
//! and the stone-age adaptations of the 3-state and 3-color MIS processes.
//!
//! In the stone age model every node transmits, per round, at most one
//! letter from a constant-size alphabet, and for each letter it can only
//! distinguish "no neighbor sent this letter" from "at least one neighbor
//! sent this letter" (the one-two-many principle with counting bound 1).
//! There is no collision detection and no sender identity.

use mis_core::algorithm::uniform3;
use mis_core::counter_rng::{DRAW_STATE, DRAW_SWITCH};
use mis_core::init::InitStrategy;
use mis_core::{
    Activation, Algorithm, Capabilities, CounterRng, StateCounts, StepCtx, ThreeColor, ThreeState,
    DEFAULT_ZETA,
};
use mis_graph::{Graph, VertexId, VertexSet};
use rand::{Rng, RngCore};

/// Simulates one synchronous round of the stone age channel.
///
/// `transmit[u]` is the letter node `u` broadcasts this round (or `None` for
/// silence). The result gives each node, for every letter of the alphabet,
/// whether **at least one neighbor** transmitted that letter.
///
/// # Panics
///
/// Panics if `transmit.len() != g.n()` or some letter is `>= alphabet`.
///
/// # Example
///
/// ```
/// use mis_comm::stone_age::stone_age_round;
/// use mis_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let heard = stone_age_round(&g, &[Some(0), None, Some(1)], 2);
/// assert_eq!(heard[1], vec![true, true]);  // middle node hears both letters
/// assert_eq!(heard[0], vec![false, false]); // endpoint hears only silence
/// ```
pub fn stone_age_round(g: &Graph, transmit: &[Option<u8>], alphabet: usize) -> Vec<Vec<bool>> {
    assert_eq!(
        transmit.len(),
        g.n(),
        "transmission vector length must equal the number of vertices"
    );
    let mut heard = vec![vec![false; alphabet]; g.n()];
    for u in g.vertices() {
        if let Some(letter) = transmit[u] {
            assert!(
                (letter as usize) < alphabet,
                "letter {letter} outside alphabet of size {alphabet}"
            );
            for v in g.neighbors(u) {
                heard[v][letter as usize] = true;
            }
        }
    }
    heard
}

/// The 3-state MIS process as a stone age algorithm with a 2-letter alphabet.
///
/// Nodes in state `black1` transmit letter 0, nodes in state `black0`
/// transmit letter 1, white nodes stay silent. The node-local update uses
/// only the two per-letter "heard" bits, which is exactly the information the
/// 3-state rule needs: whether some neighbor is `black1`, and whether some
/// neighbor is black at all.
///
/// Trace equivalent to [`mis_core::ThreeStateProcess`] given the same seed
/// and initial states: a node draws its coins from the same counter
/// coordinates `(seed, node, round, DRAW_STATE)`, keyed by
/// [`set_counter_seed`](Self::set_counter_seed) or, failing that, by one
/// word of the RNG passed to the first round.
#[derive(Debug, Clone)]
pub struct StoneAgeThreeStateMis<'g> {
    graph: &'g Graph,
    states: Vec<ThreeState>,
    counter: Option<CounterRng>,
    round: usize,
    random_bits: u64,
}

/// Alphabet used by [`StoneAgeThreeStateMis`]: letter 0 = "I am black1",
/// letter 1 = "I am black0".
pub const THREE_STATE_ALPHABET: usize = 2;

impl<'g> StoneAgeThreeStateMis<'g> {
    /// Creates the network with the given initial states.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.n()`.
    pub fn new(graph: &'g Graph, states: Vec<ThreeState>) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "initial state vector length must equal the number of vertices"
        );
        StoneAgeThreeStateMis {
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

    /// Creates the network with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::new(graph, init.three_state(graph.n(), rng))
    }

    /// Current state of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn state(&self, u: VertexId) -> ThreeState {
        self.states[u]
    }

    /// The full state vector.
    pub fn states(&self) -> &[ThreeState] {
        &self.states
    }

    /// The communication graph the network runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The letter node `u` transmits in the next round (`None` = silence).
    pub fn transmission(&self, u: VertexId) -> Option<u8> {
        match self.states[u] {
            ThreeState::Black1 => Some(0),
            ThreeState::Black0 => Some(1),
            ThreeState::White => None,
        }
    }

    /// Overwrites the state of node `u` in place, modelling a transient
    /// fault that corrupts the node's memory.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_state(&mut self, u: VertexId, state: ThreeState) {
        self.states[u] = state;
    }

    /// Executes one synchronous stone-age round: every node transmits its
    /// letter, re-draws `black1`/`black0` when active given what it heard,
    /// and retires `black0 → white` under a `black1` neighbor.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        let everyone = VertexSet::from_indices(self.graph.n(), self.graph.vertices());
        self.step_scheduled(&everyone, rng);
    }

    /// Executes one stone-age round in which only the nodes of `scheduled`
    /// are activated: the channel round happens as usual, but only
    /// scheduled nodes apply the update rule (re-draw when active, retire
    /// `black0 → white` under a `black1` neighbor); all others keep their
    /// state. A node draws the coin it would draw in a synchronous round, so
    /// a full `scheduled` set is exactly a [`step`](Self::step).
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
            if Self::node_is_active(self.states[u], &heard[u]) {
                self.random_bits += 1;
                self.states[u] = if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                    ThreeState::Black1
                } else {
                    ThreeState::Black0
                };
            } else if self.states[u] == ThreeState::Black0 {
                self.states[u] = ThreeState::White;
            }
        }
        self.round += 1;
    }

    fn heard(&self) -> Vec<Vec<bool>> {
        let transmit: Vec<Option<u8>> = self
            .graph
            .vertices()
            .map(|u| self.transmission(u))
            .collect();
        stone_age_round(self.graph, &transmit, THREE_STATE_ALPHABET)
    }

    fn node_is_active(state: ThreeState, heard: &[bool]) -> bool {
        let heard_black1 = heard[0];
        let heard_black = heard[0] || heard[1];
        match state {
            ThreeState::Black1 => true,
            ThreeState::Black0 => !heard_black1,
            ThreeState::White => !heard_black,
        }
    }

    fn stable_black(&self, heard: &[Vec<bool>], u: VertexId) -> bool {
        self.states[u].is_black() && !heard[u][0] && !heard[u][1]
    }
}

impl Algorithm for StoneAgeThreeStateMis<'_> {
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
        self.graph.vertices().all(|u| {
            self.stable_black(&heard, u)
                || self
                    .graph
                    .neighbors(u)
                    .iter()
                    .any(|v| self.stable_black(&heard, v))
        })
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
                .filter(|&u| Self::node_is_active(self.states[u], &heard[u])),
        )
    }

    fn stable_black_set(&self) -> VertexSet {
        let heard = self.heard();
        VertexSet::from_indices(
            self.n(),
            self.graph
                .vertices()
                .filter(|&u| self.stable_black(&heard, u)),
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
            if Self::node_is_active(self.states[u], &heard[u]) {
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
        3
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
        let mut changed = 0;
        for &u in victims {
            let state = match uniform3(rng) {
                0 => ThreeState::Black1,
                1 => ThreeState::Black0,
                _ => ThreeState::White,
            };
            if self.state(u) != state {
                changed += 1;
            }
            self.set_state(u, state);
        }
        changed
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        // Black1 is the asserting black letter, mirroring the direct
        // 3-state process.
        let state = if black {
            ThreeState::Black1
        } else {
            ThreeState::White
        };
        let changed = self.state(u) != state;
        self.set_state(u, state);
        changed
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
}

/// The 3-color MIS process (with its randomized logarithmic switch) as a
/// stone age algorithm with an 18-letter alphabet: each node broadcasts its
/// full local state `(color, level)` as a single letter
/// `color_index * 6 + level`, and the update rule uses only the per-letter
/// "heard" bits to recover "some neighbor is black" and "the maximum level
/// among my neighbors" — the two aggregates the process needs.
///
/// Trace equivalent to
/// [`mis_core::ThreeColorProcess`]`<`[`mis_core::RandomizedLogSwitch`]`>`
/// given the same seed and initial states: a node draws its color coin at
/// `(seed, node, round, DRAW_STATE)` and its switch coin at
/// `(seed, node, round, DRAW_SWITCH)`, keyed by
/// [`set_counter_seed`](Self::set_counter_seed) or, failing that, by one
/// word of the RNG passed to the first round.
#[derive(Debug, Clone)]
pub struct StoneAgeThreeColorMis<'g> {
    graph: &'g Graph,
    colors: Vec<ThreeColor>,
    levels: Vec<u8>,
    zeta: f64,
    counter: Option<CounterRng>,
    round: usize,
    random_bits: u64,
}

/// Alphabet used by [`StoneAgeThreeColorMis`]: `color_index * 6 + level` with
/// color indices black = 0, white = 1, gray = 2 and levels `0..=5`.
pub const THREE_COLOR_ALPHABET: usize = 18;

impl<'g> StoneAgeThreeColorMis<'g> {
    /// Creates the network with explicit colors and switch levels.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the graph or a level exceeds 5.
    pub fn new(graph: &'g Graph, colors: Vec<ThreeColor>, levels: Vec<u8>) -> Self {
        assert_eq!(
            colors.len(),
            graph.n(),
            "initial color vector length must equal the number of vertices"
        );
        assert_eq!(
            levels.len(),
            graph.n(),
            "initial level vector length must equal the number of vertices"
        );
        assert!(levels.iter().all(|&l| l <= 5), "levels must be in 0..=5");
        StoneAgeThreeColorMis {
            graph,
            colors,
            levels,
            zeta: DEFAULT_ZETA,
            counter: None,
            round: 0,
            random_bits: 0,
        }
    }

    /// Keys the nodes' coins with `seed` (see the struct docs).
    pub fn set_counter_seed(&mut self, seed: u64) {
        self.counter = Some(CounterRng::new(seed));
    }

    /// Creates the network with colors and levels drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        let colors = init.three_color(graph.n(), rng);
        let levels = init.switch_levels(graph.n(), rng);
        Self::new(graph, colors, levels)
    }

    /// Current color of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn color(&self, u: VertexId) -> ThreeColor {
        self.colors[u]
    }

    /// Current switch level of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn level(&self, u: VertexId) -> u8 {
        self.levels[u]
    }

    /// The full color vector.
    pub fn colors(&self) -> &[ThreeColor] {
        &self.colors
    }

    /// The communication graph the network runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Overwrites the color and switch level of node `u` in place, modelling
    /// a transient fault that corrupts the node's memory.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `level > 5`.
    pub fn set_node_state(&mut self, u: VertexId, color: ThreeColor, level: u8) {
        assert!(level <= 5, "levels must be in 0..=5");
        self.colors[u] = color;
        self.levels[u] = level;
    }

    /// Executes one synchronous stone-age round: every node transmits its
    /// `(color, level)` letter, updates its color from the black letters it
    /// heard, then advances its switch level from the levels it heard. The
    /// switch is a phase clock, so there is no partial activation.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        let counter = CounterRng::get_or_key(&mut self.counter, rng);
        let round = self.round as u64;
        let heard = self.heard();
        // Color update (uses the switch output of the previous round, i.e.
        // the current levels), drawing the coins of the direct 3-color
        // process.
        for u in self.graph.vertices() {
            self.colors[u] = match self.colors[u] {
                ThreeColor::Black if Self::heard_black(&heard[u]) => {
                    self.random_bits += 1;
                    if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::Gray
                    }
                }
                ThreeColor::White if !Self::heard_black(&heard[u]) => {
                    self.random_bits += 1;
                    if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
                        ThreeColor::Black
                    } else {
                        ThreeColor::White
                    }
                }
                ThreeColor::Gray if self.levels[u] <= 2 => ThreeColor::White,
                other => other,
            };
        }
        // Switch (level) update, using the maximum level heard over the
        // neighbors plus the node's own level.
        let mut next_levels = self.levels.clone();
        for u in self.graph.vertices() {
            let lvl = self.levels[u];
            let reset = if lvl == 5 {
                self.random_bits += 7;
                !counter.gen_bool(self.zeta, u as u64, round, DRAW_SWITCH)
            } else {
                false
            };
            next_levels[u] = if reset || lvl == 0 {
                5
            } else {
                let max_nbr = Self::heard_max_level(&heard[u]).unwrap_or(0).max(lvl);
                max_nbr - 1
            };
        }
        self.levels = next_levels;
        self.round += 1;
    }

    /// The letter node `u` transmits: its full `(color, level)` state.
    pub fn transmission(&self, u: VertexId) -> Option<u8> {
        let color_index = match self.colors[u] {
            ThreeColor::Black => 0u8,
            ThreeColor::White => 1,
            ThreeColor::Gray => 2,
        };
        Some(color_index * 6 + self.levels[u])
    }

    fn heard(&self) -> Vec<Vec<bool>> {
        let transmit: Vec<Option<u8>> = self
            .graph
            .vertices()
            .map(|u| self.transmission(u))
            .collect();
        stone_age_round(self.graph, &transmit, THREE_COLOR_ALPHABET)
    }

    /// Whether any *black* letter (color index 0, any level) was heard.
    fn heard_black(heard: &[bool]) -> bool {
        heard[..6].iter().any(|&h| h)
    }

    /// Maximum level over all letters heard, or `None` if silence.
    fn heard_max_level(heard: &[bool]) -> Option<u8> {
        (0..18u8)
            .filter(|&l| heard[l as usize])
            .map(|l| l % 6)
            .max()
    }

    fn node_is_active(color: ThreeColor, heard: &[bool]) -> bool {
        match color {
            ThreeColor::Black => Self::heard_black(heard),
            ThreeColor::White => !Self::heard_black(heard),
            ThreeColor::Gray => false,
        }
    }

    fn stable_black(&self, heard: &[Vec<bool>], u: VertexId) -> bool {
        self.colors[u].is_black() && !Self::heard_black(&heard[u])
    }
}

impl Algorithm for StoneAgeThreeColorMis<'_> {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn round(&self) -> usize {
        self.round
    }

    fn step(&mut self, ctx: StepCtx<'_>) {
        self.step(ctx.synchronous_rng());
    }

    fn is_stabilized(&self) -> bool {
        let heard = self.heard();
        self.graph.vertices().all(|u| {
            self.stable_black(&heard, u)
                || self
                    .graph
                    .neighbors(u)
                    .iter()
                    .any(|v| self.stable_black(&heard, v))
        })
    }

    fn black_set(&self) -> VertexSet {
        VertexSet::from_indices(
            self.n(),
            self.graph.vertices().filter(|&u| self.colors[u].is_black()),
        )
    }

    fn active_set(&self) -> VertexSet {
        let heard = self.heard();
        VertexSet::from_indices(
            self.n(),
            self.graph
                .vertices()
                .filter(|&u| Self::node_is_active(self.colors[u], &heard[u])),
        )
    }

    fn stable_black_set(&self) -> VertexSet {
        let heard = self.heard();
        VertexSet::from_indices(
            self.n(),
            self.graph
                .vertices()
                .filter(|&u| self.stable_black(&heard, u)),
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
            if self.colors[u].is_black() {
                c.black += 1;
            } else {
                c.non_black += 1;
            }
            if Self::node_is_active(self.colors[u], &heard[u]) {
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
        18
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            fault_injection: true,
            byzantine: true,
            trace: true,
            ..Capabilities::default()
        }
    }

    fn inject_faults_targeted(&mut self, victims: &[VertexId], rng: &mut dyn RngCore) -> usize {
        let mut changed = 0;
        for &u in victims {
            let color = match uniform3(rng) {
                0 => ThreeColor::Black,
                1 => ThreeColor::Gray,
                _ => ThreeColor::White,
            };
            let level = (rng.next_u32() % 6) as u8;
            if self.color(u) != color || self.level(u) != level {
                changed += 1;
            }
            self.set_node_state(u, color, level);
        }
        changed
    }

    fn set_byzantine_state(&mut self, u: VertexId, black: bool) -> bool {
        // Only the displayed color is overridden; the node's switch level
        // keeps ticking, as in the direct 3-color process.
        let color = if black {
            ThreeColor::Black
        } else {
            ThreeColor::White
        };
        let changed = self.color(u) != color;
        self.set_node_state(u, color, self.level(u));
        changed
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::{RandomizedLogSwitch, ThreeColorProcess, ThreeStateProcess};
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn stone_age_round_reports_per_letter_bits() {
        let g = generators::star(4);
        // Leaves send letters 0, 1, 1; hub is silent.
        let heard = stone_age_round(&g, &[None, Some(0), Some(1), Some(1)], 3);
        assert_eq!(heard[0], vec![true, true, false]);
        assert_eq!(heard[1], vec![false, false, false]);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn stone_age_round_rejects_bad_letter() {
        let g = generators::path(2);
        stone_age_round(&g, &[Some(5), None], 2);
    }

    #[test]
    fn three_state_transmissions() {
        let g = generators::path(3);
        let net = StoneAgeThreeStateMis::new(
            &g,
            vec![ThreeState::Black1, ThreeState::Black0, ThreeState::White],
        );
        assert_eq!(net.transmission(0), Some(0));
        assert_eq!(net.transmission(1), Some(1));
        assert_eq!(net.transmission(2), None);
    }

    #[test]
    fn three_state_trace_equivalent_to_direct_process() {
        let mut setup_rng = rng(200);
        let g = generators::gnp(60, 0.15, &mut setup_rng);
        let init = InitStrategy::Random.three_state(g.n(), &mut setup_rng);

        let mut direct = ThreeStateProcess::new(&g, init.clone());
        let mut net = StoneAgeThreeStateMis::new(&g, init);
        let mut rng_a = rng(31);
        let mut rng_b = rng(31);
        for round in 0..300 {
            assert_eq!(
                direct.states(),
                net.states(),
                "traces diverged at round {round}"
            );
            assert_eq!(direct.is_stabilized(), net.is_stabilized());
            if direct.is_stabilized() {
                break;
            }
            direct.step(&mut rng_a);
            net.step(&mut rng_b);
        }
        assert_eq!(direct.random_bits_used(), net.random_bits_used());
    }

    #[test]
    fn three_color_trace_equivalent_to_direct_process() {
        let mut setup_rng = rng(300);
        let g = generators::gnp(50, 0.3, &mut setup_rng);
        let colors = InitStrategy::Random.three_color(g.n(), &mut setup_rng);
        let levels = InitStrategy::Random.switch_levels(g.n(), &mut setup_rng);

        let switch = RandomizedLogSwitch::new(&g, levels.clone(), DEFAULT_ZETA);
        let mut direct = ThreeColorProcess::new(&g, colors.clone(), switch);
        let mut net = StoneAgeThreeColorMis::new(&g, colors, levels);
        let mut rng_a = rng(77);
        let mut rng_b = rng(77);
        for round in 0..400 {
            assert_eq!(
                direct.colors(),
                net.colors(),
                "color traces diverged at round {round}"
            );
            for u in g.vertices() {
                assert_eq!(
                    direct.switch().level(u),
                    net.level(u),
                    "level of {u} diverged at round {round}"
                );
            }
            if direct.is_stabilized() && net.is_stabilized() {
                break;
            }
            direct.step(&mut rng_a);
            net.step(&mut rng_b);
        }
        assert_eq!(direct.random_bits_used(), net.random_bits_used());
    }

    #[test]
    fn three_state_stabilizes_to_mis() {
        let mut r = rng(8);
        for g in [generators::complete(16), generators::gnp(60, 0.1, &mut r)] {
            let mut net = StoneAgeThreeStateMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 100_000).unwrap();
            assert!(mis_check::is_mis(&g, &net.black_set()));
        }
    }

    #[test]
    fn three_color_stabilizes_to_mis() {
        let mut r = rng(9);
        for g in [generators::complete(16), generators::gnp(60, 0.4, &mut r)] {
            let mut net = StoneAgeThreeColorMis::with_init(&g, InitStrategy::Random, &mut r);
            net.run_to_stabilization(&mut r, 200_000).unwrap();
            assert!(mis_check::is_mis(&g, &net.black_set()));
            assert_eq!(net.states_per_vertex(), 18);
        }
    }

    #[test]
    fn counts_consistency_three_color() {
        let mut r = rng(10);
        let g = generators::gnp(40, 0.2, &mut r);
        let mut net = StoneAgeThreeColorMis::with_init(&g, InitStrategy::AllBlack, &mut r);
        for _ in 0..30 {
            let c = net.counts();
            assert_eq!(c.black, net.black_set().len());
            assert_eq!(c.active, net.active_set().len());
            assert_eq!(c.unstable, net.unstable_set().len());
            if net.is_stabilized() {
                break;
            }
            net.step(&mut r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Stone-age adaptations reach a valid MIS on random graphs.
        #[test]
        fn stone_age_reaches_mis(seed in 0u64..5000, n in 1usize..35, p_edge in 0.0f64..0.8) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let mut three_state = StoneAgeThreeStateMis::with_init(&g, InitStrategy::Random, &mut r);
            three_state.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &three_state.black_set()));

            let mut three_color = StoneAgeThreeColorMis::with_init(&g, InitStrategy::Random, &mut r);
            three_color.run_to_stabilization(&mut r, 400_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &three_color.black_set()));
        }
    }
}
