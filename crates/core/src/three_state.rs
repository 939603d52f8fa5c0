use std::sync::Arc;

use mis_graph::{CommittedDelta, Graph, GraphDelta, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::algorithm::{uniform3, Algorithm, Capabilities, StateCounts, StepCtx};
use crate::counter_rng::{CounterRng, DRAW_STATE};
use crate::engine::{FrontierEngine, VertexClass};
use crate::exec::{ExecutionMode, RoundStrategy};
use crate::init::InitStrategy;
use crate::mutation::{GraphRef, MutationError};
use crate::packed::PackedStates;
use crate::scheduler::Activation;
use crate::sync::AtomicU32Vec;

/// Vertex state of the 3-state MIS process (Definition 5).
///
/// `Black1` and `Black0` are both "black" (MIS membership); the extra bit
/// lets a neighbor distinguish a *fresh* black claim (`Black1`) from a
/// *retiring* one (`Black0`) without collision detection, which is why this
/// variant fits the synchronous stone age model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreeState {
    /// Black with the "assert" bit set.
    Black1,
    /// Black with the "assert" bit cleared.
    Black0,
    /// Not in the MIS.
    White,
}

impl ThreeState {
    /// `true` for both black variants.
    pub fn is_black(self) -> bool {
        matches!(self, ThreeState::Black1 | ThreeState::Black0)
    }

    /// The 2-bit code used by the packed state storage.
    #[inline]
    pub(crate) fn code(self) -> u8 {
        match self {
            ThreeState::White => 0,
            ThreeState::Black1 => 1,
            ThreeState::Black0 => 2,
        }
    }

    /// Inverse of [`code`](Self::code).
    #[inline]
    pub(crate) fn from_code(code: u8) -> Self {
        match code {
            0 => ThreeState::White,
            1 => ThreeState::Black1,
            2 => ThreeState::Black0,
            other => unreachable!("invalid 3-state code {other}"),
        }
    }
}

/// Vertex `u`'s fresh uniformly random state from `{black1, black0}` in
/// `round`: its [`DRAW_STATE`] coin.
fn draw(counter: &CounterRng, u: VertexId, round: u64) -> ThreeState {
    if counter.gen_bool(0.5, u as u64, round, DRAW_STATE) {
        ThreeState::Black1
    } else {
        ThreeState::Black0
    }
}

/// The 3-state local rule. Active vertices re-draw from `{black1, black0}`;
/// a non-active `black0` vertex (one with a `black1` neighbor) retires to
/// white, so every black vertex is pending. A white vertex is pending iff it
/// is active (no black neighbor).
fn classify<'a>(
    states: &'a PackedStates,
    black1_nbrs: &'a AtomicU32Vec,
) -> impl Fn(VertexId, u32) -> VertexClass + Sync + 'a {
    move |u, black_nbrs| {
        let (active, pending) = match ThreeState::from_code(states.get(u)) {
            ThreeState::Black1 => (true, true),
            ThreeState::Black0 => (black1_nbrs.get(u) == 0, true),
            ThreeState::White => {
                let a = black_nbrs == 0;
                (a, a)
            }
        };
        VertexClass { active, pending }
    }
}

/// The **3-state MIS process** of Definition 5.
///
/// Update rule for vertex `u` with previous state `c` and neighbor states
/// `NC`:
///
/// * if `c = black1`, or (`c = black0` and `NC` contains no `black1`), or
///   (`c = white` and `NC` contains no black state) — draw a uniformly
///   random state from `{black1, black0}`;
/// * else if `c = black0` — become `white`;
/// * else — keep the state.
///
/// A *stable black* vertex (black with no black neighbor) keeps alternating
/// between `black1` and `black0` forever; stability is therefore defined on
/// the black/non-black projection, exactly as in the paper.
///
/// Note on isolated vertices: Definition 5 phrases the white condition as
/// `NC_t(u) = {white}`; for a vertex with no neighbors that set is empty, so
/// a literal reading would leave an isolated white vertex white forever and
/// the black set would never become maximal. We read the condition as "no
/// neighbor is black", which coincides with the paper on every vertex that
/// has at least one neighbor and makes isolated vertices join the MIS.
///
/// States are stored bit-packed (2 bits per vertex) and rounds run through
/// the incremental [`FrontierEngine`]: a [`step`](ThreeStateProcess::step) touches
/// only the frontier (black vertices and active whites — stable black
/// vertices keep alternating by definition, so they stay on it) and the
/// neighborhoods of vertices that changed, and
/// [`is_stabilized`](Algorithm::is_stabilized)/[`counts`](Algorithm::counts) are
/// `O(1)`. [`step_reference`](ThreeStateProcess::step_reference) retains the
/// naive full-scan path for differential testing.
///
/// # Randomness
///
/// Coins are counter-based pure functions of `(run_seed, vertex, round)`,
/// so rounds run in data-parallel phases and results are bit-identical for
/// every [`ExecutionMode`] and thread count, and to the reference. The seed
/// comes from [`set_execution`](Self::set_execution); a process never given
/// one keys itself from one word of the RNG passed to its first round.
///
/// # Example
///
/// ```
/// use mis_core::{Algorithm, ThreeStateProcess, init::InitStrategy};
/// use mis_graph::{generators, mis_check};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let g = generators::complete(64);
/// let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
/// p.run_to_stabilization(&mut rng, 10_000).unwrap();
/// assert!(mis_check::is_mis(&g, &p.black_set()));
/// ```
#[derive(Debug, Clone)]
pub struct ThreeStateProcess<'g> {
    graph: GraphRef<'g>,
    states: PackedStates,
    /// Number of `black1` neighbors per vertex, delta-maintained alongside
    /// the engine's black-neighbor counters (atomically typed so the
    /// parallel scatter phase can update it concurrently).
    black1_nbrs: AtomicU32Vec,
    engine: FrontierEngine,
    mode: ExecutionMode,
    strategy: RoundStrategy,
    /// Whether the most recent full synchronous round ran the dense path.
    last_round_dense: bool,
    /// The run's coins; `None` until keyed (see the struct docs).
    counter: Option<CounterRng>,
    round: usize,
    random_bits: u64,
    worklist: Vec<VertexId>,
    changes: Vec<(VertexId, ThreeState)>,
    /// Recycled per-worker change buffers of the sparse round path.
    change_pool: Vec<Vec<(VertexId, ThreeState, ThreeState)>>,
}

impl<'g> ThreeStateProcess<'g> {
    /// Creates the process on `graph` with the given initial state vector.
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
        let mut p = ThreeStateProcess {
            black1_nbrs: AtomicU32Vec::new(graph.n()),
            engine: FrontierEngine::new(graph.n()),
            graph: GraphRef::Borrowed(graph),
            states: PackedStates::from_codes(states.into_iter().map(ThreeState::code)),
            mode: ExecutionMode::Sequential,
            strategy: RoundStrategy::Auto,
            last_round_dense: false,
            counter: None,
            round: 0,
            random_bits: 0,
            worklist: Vec::new(),
            changes: Vec::new(),
            change_pool: Vec::new(),
        };
        p.rebuild_engine();
        p
    }

    /// Creates the process with states drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(graph: &'g Graph, init: InitStrategy, rng: &mut R) -> Self {
        Self::new(graph, init.three_state(graph.n(), rng))
    }

    /// Selects the thread count of subsequent rounds and (re-)keys the
    /// counter-based RNG with `run_seed`.
    pub fn set_execution(&mut self, mode: ExecutionMode, run_seed: u64) {
        self.mode = mode;
        self.counter = Some(CounterRng::new(run_seed));
    }

    /// The current execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Selects how full synchronous rounds traverse the graph; see
    /// [`RoundStrategy`]. The choice never changes results.
    pub fn set_strategy(&mut self, strategy: RoundStrategy) {
        self.strategy = strategy;
    }

    /// The current round strategy.
    pub fn strategy(&self) -> RoundStrategy {
        self.strategy
    }

    /// `true` if the most recent [`step`](Self::step) ran the dense
    /// full-sweep path.
    pub fn last_round_was_dense(&self) -> bool {
        self.last_round_dense
    }

    /// The underlying graph (the mutated one after
    /// [`apply_mutation`](Self::apply_mutation)).
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// Applies a batch of topology mutations and incrementally re-derives
    /// all bookkeeping — the engine's black-neighbor counters *and* the
    /// process-owned `black1` counters — so the process re-stabilizes from
    /// the current configuration instead of restarting. New vertices start
    /// white; the self-stabilizing rule absorbs them. Bit-identical to a
    /// from-scratch engine rebuild on the new graph with the current states.
    ///
    /// On error (an invalid delta) the process state is untouched.
    pub fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        let (new_graph, committed) = self.graph.get().apply_delta(delta)?;
        self.states.grow(committed.new_n);
        self.black1_nbrs.grow(committed.new_n);
        self.engine.grow(committed.new_n);
        let black1 = ThreeState::Black1.code();
        for &(u, v) in &committed.removed {
            self.engine.edge_update(u, v, false);
            if self.states.get(u) == black1 {
                self.black1_nbrs.sub_mut(v, 1);
            }
            if self.states.get(v) == black1 {
                self.black1_nbrs.sub_mut(u, 1);
            }
        }
        for &(u, v) in &committed.inserted {
            self.engine.edge_update(u, v, true);
            if self.states.get(u) == black1 {
                self.black1_nbrs.add_mut(v, 1);
            }
            if self.states.get(v) == black1 {
                self.black1_nbrs.add_mut(u, 1);
            }
        }
        self.graph = GraphRef::Owned(Arc::new(new_graph));
        let states = &self.states;
        let black1_nbrs = &self.black1_nbrs;
        self.engine
            .flush(self.graph.get(), classify(states, black1_nbrs));
        Ok(committed)
    }

    /// Read-only view of the incremental engine bookkeeping, for tests and
    /// diagnostics.
    pub fn engine(&self) -> &FrontierEngine {
        &self.engine
    }

    /// Current state of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn state(&self, u: VertexId) -> ThreeState {
        assert!(u < self.n(), "vertex {u} out of range");
        ThreeState::from_code(self.states.get(u))
    }

    /// The full state vector, materialized from the packed storage in `O(n)`.
    pub fn states(&self) -> Vec<ThreeState> {
        self.states.decode(ThreeState::from_code)
    }

    /// Number of black (`black1` or `black0`) neighbors of `u`.
    pub fn black_neighbor_count(&self, u: VertexId) -> usize {
        self.engine.black_neighbor_count(u)
    }

    /// Number of `black1` neighbors of `u` (delta-maintained).
    pub fn black1_neighbor_count(&self, u: VertexId) -> usize {
        self.black1_nbrs.get(u) as usize
    }

    /// Overwrites the state of one vertex (transient-fault injection). All
    /// neighbor bookkeeping is delta-updated in `O(deg(u))`; no full rebuild
    /// happens.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_state(&mut self, u: VertexId, state: ThreeState) {
        let old = self.state(u);
        if old == state {
            return;
        }
        self.states.set(u, state.code());
        self.apply_black1_delta(u, old, state);
        self.engine.set_black(self.graph.get(), u, state.is_black());
        let states = &self.states;
        let black1_nbrs = &self.black1_nbrs;
        self.engine
            .flush(self.graph.get(), classify(states, black1_nbrs));
    }

    /// Whether `u` will re-randomize its state in the next round.
    pub fn is_active(&self, u: VertexId) -> bool {
        self.engine.is_active(u)
    }

    /// `true` if `u` is stable black: black with no black neighbor. Its state
    /// keeps alternating between `black1` and `black0` but its *blackness*
    /// never changes.
    pub fn is_stable_black(&self, u: VertexId) -> bool {
        self.engine.is_stable_black(u)
    }

    /// `true` if `u` is stable: stable black or adjacent to a stable black vertex.
    pub fn is_stable(&self, u: VertexId) -> bool {
        self.engine.is_stable(u)
    }

    /// Executes one synchronous round of Definition 5: every active vertex
    /// re-draws `black1`/`black0`, and a `black0` vertex with a `black1`
    /// neighbor retires to white. The round takes the dense or the sparse
    /// path per [`RoundStrategy`] on the threads of its [`ExecutionMode`];
    /// `rng` is read only to key a process no seed was given to.
    /// [`Algorithm::step`] reaches it under the synchronous scheduler.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        let counter = CounterRng::get_or_key(&mut self.counter, rng);
        let dense = match self.strategy {
            RoundStrategy::Sparse => false,
            RoundStrategy::Dense => true,
            RoundStrategy::Auto => self.engine.prefers_dense(self.graph.get()),
        };
        self.last_round_dense = dense;
        if dense {
            self.step_dense(counter, self.mode.threads());
        } else {
            self.step_sparse(counter, self.mode.threads());
        }
    }

    /// Executes one synchronous round with the naive full-scan reference
    /// implementation (`O(n + m)`): the same counter coins and states as
    /// [`step`](Self::step), retained as the oracle for the engine's
    /// trace-equality tests.
    pub fn step_reference(&mut self, rng: &mut dyn RngCore) {
        let counter = CounterRng::get_or_key(&mut self.counter, rng);
        let round = self.round as u64;
        let n = self.n();
        let mut black_nbrs = vec![0u32; n];
        let mut black1_nbrs = vec![0u32; n];
        for u in self.graph.get().vertices() {
            let s = ThreeState::from_code(self.states.get(u));
            if s.is_black() {
                for v in self.graph.get().neighbors(u) {
                    black_nbrs[v] += 1;
                    if s == ThreeState::Black1 {
                        black1_nbrs[v] += 1;
                    }
                }
            }
        }
        let next = self.states.clone();
        for u in self.graph.get().vertices() {
            let s = ThreeState::from_code(self.states.get(u));
            let active = match s {
                ThreeState::Black1 => true,
                ThreeState::Black0 => black1_nbrs[u] == 0,
                ThreeState::White => black_nbrs[u] == 0,
            };
            if active {
                self.random_bits += 1;
                next.set(u, draw(&counter, u, round).code());
            } else if s == ThreeState::Black0 {
                // black0 with a black1 neighbor retires to white.
                next.set(u, ThreeState::White.code());
            }
        }
        self.states = next;
        self.rebuild_engine();
        self.round += 1;
    }

    /// Delta-updates the `black1` neighbor counters (and the affected
    /// activity classifications) after `u` changed `old -> new`.
    fn apply_black1_delta(&mut self, u: VertexId, old: ThreeState, new: ThreeState) {
        let was_black1 = old == ThreeState::Black1;
        let is_black1 = new == ThreeState::Black1;
        if was_black1 == is_black1 {
            return;
        }
        for v in self.graph.get().neighbors(u) {
            if is_black1 {
                self.black1_nbrs.add(v, 1);
            } else {
                self.black1_nbrs.sub(v, 1);
            }
            self.engine.mark_dirty(v);
        }
    }

    fn rebuild_engine(&mut self) {
        self.recount_black1();
        let states = &self.states;
        let black1_nbrs = &self.black1_nbrs;
        self.engine.rebuild(
            self.graph.get(),
            |u| ThreeState::from_code(states.get(u)).is_black(),
            classify(states, black1_nbrs),
        );
    }

    /// Recomputes the `black1` neighbor counters from scratch with plain
    /// (non-atomic) adds; the process-owned half of a rebuild.
    fn recount_black1(&mut self) {
        self.black1_nbrs.clear_all();
        let states = &self.states;
        let black1_nbrs = &mut self.black1_nbrs;
        for u in self.graph.get().vertices() {
            if states.get(u) == ThreeState::Black1.code() {
                for &v in self.graph.get().neighbors(u).as_compact() {
                    black1_nbrs.add_mut(v.index(), 1);
                }
            }
        }
    }

    /// One **dense** round on `threads` threads: a volume-balanced decide
    /// sweep dispatch (active vertices draw from `{black1, black0}`,
    /// non-active `black0` vertices retire to white), then a single fused
    /// recount dispatch whose first pass also rebuilds the `black1` counters
    /// (the process hook of [`FrontierEngine::recount_par_with`]) — two pool
    /// dispatches per dense round. Bit-identical for every thread count and
    /// to the sparse path.
    fn step_dense(&mut self, counter: CounterRng, threads: usize) {
        let round = self.round as u64;
        let states = &self.states;
        let graph = self.graph.get();
        let draws = self.engine.dense_sweep(graph, threads, |engine, range| {
            let mut draws = 0u64;
            for u in range {
                if engine.is_active(u) {
                    draws += 1;
                    let new = draw(&counter, u, round);
                    if new.code() != states.get(u) {
                        states.set(u, new.code());
                        engine.stage_black(u, true);
                    }
                } else if states.get(u) == ThreeState::Black0.code() {
                    // black0 with a black1 neighbor retires to white.
                    states.set(u, ThreeState::White.code());
                    engine.stage_black(u, false);
                }
            }
            draws
        });
        self.random_bits += draws;
        self.black1_nbrs.clear_all();
        let states = &self.states;
        let black1_nbrs = &self.black1_nbrs;
        self.engine
            .recount_par_with(graph, threads, classify(states, black1_nbrs), |range| {
                // Process hook, fused into the recount's scatter pass:
                // rebuild the black1 neighbor counters (commutative atomic
                // adds keyed off the already-settled states).
                for u in range {
                    if states.get(u) == ThreeState::Black1.code() {
                        for &v in graph.neighbors(u).as_compact() {
                            black1_nbrs.add(v.index(), 1);
                        }
                    }
                }
            });
        self.round += 1;
    }

    /// Executes one round in which only the vertices of `scheduled` are
    /// activated: a scheduled *active* vertex re-draws from
    /// `{black1, black0}`, a scheduled non-active `black0` vertex (one with
    /// a `black1` neighbor) retires to white, and every other vertex keeps
    /// its state. All decisions are made against the pre-round
    /// configuration, and a vertex draws the same counter coin it would draw
    /// in a synchronous round, so a full `scheduled` set is exactly a
    /// [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `scheduled.universe() != n`.
    pub fn step_scheduled(&mut self, scheduled: &VertexSet, rng: &mut dyn RngCore) {
        assert_eq!(
            scheduled.universe(),
            self.n(),
            "scheduled set universe must match the graph"
        );
        let counter = CounterRng::get_or_key(&mut self.counter, rng);
        let round = self.round as u64;
        self.changes.clear();
        for u in scheduled.iter() {
            let old = ThreeState::from_code(self.states.get(u));
            if self.engine.is_active(u) {
                self.random_bits += 1;
                let new = draw(&counter, u, round);
                if new != old {
                    self.changes.push((u, new));
                }
            } else if old == ThreeState::Black0 {
                // black0 with a black1 neighbor retires to white.
                self.changes.push((u, ThreeState::White));
            }
        }
        for i in 0..self.changes.len() {
            let (u, state) = self.changes[i];
            let old = ThreeState::from_code(self.states.get(u));
            self.states.set(u, state.code());
            self.apply_black1_delta(u, old, state);
            self.engine.set_black(self.graph.get(), u, state.is_black());
        }
        let states = &self.states;
        let black1_nbrs = &self.black1_nbrs;
        self.engine
            .flush(self.graph.get(), classify(states, black1_nbrs));
        self.round += 1;
    }

    /// One **sparse** round on `threads` threads; results are bit-identical
    /// for every thread count. The phase structure lives in
    /// [`FrontierEngine::par_round`]; this supplies the 3-state decide
    /// (active vertices draw, pending-but-not-active black0 vertices retire
    /// deterministically) and scatter (blackness flips through the engine,
    /// black1 deltas through the process-owned counters, shared dirty
    /// marks).
    fn step_sparse(&mut self, counter: CounterRng, threads: usize) {
        self.engine.begin_round(&mut self.worklist);
        let round = self.round as u64;
        let states = &self.states;
        let black1_nbrs = &self.black1_nbrs;
        let graph = self.graph.get();
        type Change = (VertexId, ThreeState, ThreeState);
        let change_pool = &mut self.change_pool;
        let draws = self.engine.par_round(
            graph,
            &self.worklist,
            threads,
            |engine, chunk, changes: &mut Vec<Change>| {
                let mut draws = 0u64;
                for &u in chunk {
                    let old = ThreeState::from_code(states.get(u));
                    if engine.is_active(u) {
                        draws += 1;
                        let new = draw(&counter, u, round);
                        if new != old {
                            states.set(u, new.code());
                            changes.push((u, old, new));
                        }
                    } else {
                        // Pending but not active: black0 with a black1
                        // neighbor retires to white.
                        debug_assert_eq!(old, ThreeState::Black0);
                        states.set(u, ThreeState::White.code());
                        changes.push((u, old, ThreeState::White));
                    }
                }
                draws
            },
            |engine, &(u, old, new), sink| {
                let was_black1 = old == ThreeState::Black1;
                let is_black1 = new == ThreeState::Black1;
                if was_black1 != is_black1 {
                    for v in graph.neighbors(u) {
                        if is_black1 {
                            black1_nbrs.add(v, 1);
                        } else {
                            black1_nbrs.sub(v, 1);
                        }
                        engine.mark_dirty_concurrent(v, sink);
                    }
                }
                engine.scatter_black(graph, u, new.is_black(), sink);
            },
            classify(states, black1_nbrs),
            change_pool,
        );
        self.random_bits += draws;
        self.round += 1;
    }
}

impl Algorithm for ThreeStateProcess<'_> {
    fn n(&self) -> usize {
        self.graph.get().n()
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
        // Stabilized (on the black/non-black projection) iff every vertex is
        // stable: the black set is then an MIS and blackness never changes,
        // even though stable black vertices keep flipping black1/black0. The
        // engine caches the unstable count, so this is O(1).
        self.engine.is_stabilized()
    }

    fn black_set(&self) -> VertexSet {
        self.engine.black_set()
    }

    fn active_set(&self) -> VertexSet {
        self.engine.active_set()
    }

    fn stable_black_set(&self) -> VertexSet {
        self.engine.stable_black_set()
    }

    fn unstable_set(&self) -> VertexSet {
        self.engine.unstable_set()
    }

    fn counts(&self) -> StateCounts {
        self.engine.counts()
    }

    fn states_per_vertex(&self) -> usize {
        3
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            topology_change: true,
            parallel: true,
            partial_activation: true,
            fault_injection: true,
            byzantine: true,
            trace: true,
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
        // Black means the *asserting* black state (Black1): the adversary
        // claims membership loudly, maximally perturbing the black1
        // counters its neighbors maintain.
        let state = if black {
            ThreeState::Black1
        } else {
            ThreeState::White
        };
        let changed = self.state(u) != state;
        self.set_state(u, state);
        changed
    }

    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        ThreeStateProcess::apply_mutation(self, delta)
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{generators, mis_check};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn apply_mutation_matches_fresh_process_on_mutated_graph() {
        let mut r = rng(402);
        let g = generators::gnp(40, 0.15, &mut r);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for _ in 0..5 {
            p.step(&mut r);
        }
        let (eu, ev) = g.edges().next().expect("dense gnp has an edge");
        let mut delta = GraphDelta::new();
        delta
            .remove_edge(eu, ev)
            .add_edge(0, g.n() - 1)
            .add_vertex([0, 1])
            .detach_vertex(2);
        let committed = p.apply_mutation(&delta).unwrap();
        assert_eq!(committed.new_n, g.n() + 1);
        assert_eq!(p.n(), g.n() + 1);
        assert_eq!(p.state(g.n()), ThreeState::White, "joined vertex is white");
        let g2 = p.graph().clone();
        let fresh = ThreeStateProcess::new(&g2, p.states());
        assert_eq!(fresh.counts(), p.counts());
        for u in g2.vertices() {
            assert_eq!(fresh.is_active(u), p.is_active(u), "active {u}");
            assert_eq!(fresh.is_stable(u), p.is_stable(u), "stable {u}");
            assert_eq!(
                fresh.black_neighbor_count(u),
                p.black_neighbor_count(u),
                "black_nbrs {u}"
            );
            assert_eq!(
                fresh.black1_neighbor_count(u),
                p.black1_neighbor_count(u),
                "black1_nbrs {u}"
            );
        }
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g2, &p.black_set()));
    }

    #[test]
    fn invalid_mutation_leaves_state_untouched() {
        let g = generators::path(4);
        let mut p = ThreeStateProcess::new(
            &g,
            vec![
                ThreeState::White,
                ThreeState::Black1,
                ThreeState::Black0,
                ThreeState::White,
            ],
        );
        let before_states = p.states();
        let before_counts = p.counts();
        let mut delta = GraphDelta::new();
        delta.detach_vertex(99); // out of range
        assert!(p.apply_mutation(&delta).is_err());
        assert_eq!(p.states(), before_states);
        assert_eq!(p.counts(), before_counts);
        assert_eq!(p.n(), 4);
    }

    #[test]
    fn isolated_vertex_joins_the_mis() {
        let g = Graph::empty(3);
        let mut r = rng(0);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::AllWhite, &mut r);
        p.run_to_stabilization(&mut r, 1000).unwrap();
        assert_eq!(p.black_set().len(), 3);
        assert!(mis_check::is_mis(&g, &p.black_set()));
    }

    #[test]
    fn stable_black_vertices_keep_alternating_but_stay_black() {
        let g = generators::path(3);
        // Vertex 1 black, others white: an MIS, so stable immediately.
        let mut p = ThreeStateProcess::new(
            &g,
            vec![ThreeState::White, ThreeState::Black1, ThreeState::White],
        );
        assert!(p.is_stabilized());
        let mut r = rng(1);
        let mut seen_black1 = false;
        let mut seen_black0 = false;
        for _ in 0..20 {
            p.step(&mut r);
            assert!(p.is_stabilized());
            assert!(p.state(1).is_black());
            assert!(!p.state(0).is_black() && !p.state(2).is_black());
            match p.state(1) {
                ThreeState::Black1 => seen_black1 = true,
                ThreeState::Black0 => seen_black0 = true,
                ThreeState::White => unreachable!("stable black vertex became white"),
            }
        }
        assert!(
            seen_black1 && seen_black0,
            "stable black vertex should alternate"
        );
    }

    #[test]
    fn black0_with_black1_neighbor_retires_to_white() {
        let g = generators::path(2);
        let mut p = ThreeStateProcess::new(&g, vec![ThreeState::Black0, ThreeState::Black1]);
        // Vertex 0: black0 with a black1 neighbor -> not active -> becomes white.
        assert!(!p.is_active(0));
        assert!(p.is_active(1)); // black1 is always active
        let mut r = rng(2);
        p.step(&mut r);
        assert_eq!(p.state(0), ThreeState::White);
        assert!(p.state(1).is_black());
    }

    #[test]
    fn stabilizes_to_mis_on_various_graphs() {
        let mut r = rng(7);
        let graphs = vec![
            generators::complete(32),
            generators::path(50),
            generators::cycle(33),
            generators::star(40),
            generators::random_tree(100, &mut r),
            generators::gnp(120, 0.08, &mut r),
            generators::gnp(80, 0.6, &mut r),
            generators::disjoint_cliques(4, 9),
        ];
        for (i, g) in graphs.into_iter().enumerate() {
            for init in [
                InitStrategy::AllWhite,
                InitStrategy::AllBlack,
                InitStrategy::Random,
            ] {
                let mut p = ThreeStateProcess::with_init(&g, init, &mut r);
                p.run_to_stabilization(&mut r, 100_000)
                    .unwrap_or_else(|e| panic!("graph {i} with {init:?}: {e}"));
                assert!(
                    mis_check::is_mis(&g, &p.black_set()),
                    "graph {i}, init {init:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_mode_stabilizes_and_is_thread_count_invariant() {
        let g = generators::gnp(100, 0.08, &mut rng(61));
        let mut outcomes = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut r = rng(62);
            let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
            p.set_execution(ExecutionMode::Parallel { threads }, 7);
            for _ in 0..50 {
                if p.is_stabilized() {
                    break;
                }
                p.step(&mut r);
            }
            outcomes.push((p.states(), p.black_set(), p.counts(), p.random_bits_used()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        // And the black projection stabilizes to an MIS eventually.
        let mut r = rng(63);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::AllBlack, &mut r);
        p.set_execution(ExecutionMode::Parallel { threads: 3 }, 8);
        p.run_to_stabilization(&mut r, 100_000).unwrap();
        assert!(mis_check::is_mis(&g, &p.black_set()));
    }

    #[test]
    fn counts_consistency() {
        let mut r = rng(9);
        let g = generators::gnp(50, 0.15, &mut r);
        let mut p = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r);
        for _ in 0..40 {
            let c = p.counts();
            assert_eq!(c.black + c.non_black, g.n());
            assert_eq!(c.black, p.black_set().len());
            assert_eq!(c.active, p.active_set().len());
            assert!(mis_check::is_independent(&g, &p.stable_black_set()));
            if p.is_stabilized() {
                break;
            }
            p.step(&mut r);
        }
    }

    #[test]
    fn set_state_refreshes_bookkeeping() {
        let g = generators::complete(4);
        let mut p = ThreeStateProcess::new(&g, vec![ThreeState::White; 4]);
        p.set_state(0, ThreeState::Black1);
        assert!(
            !p.is_active(1),
            "white vertex with a black neighbor is not active"
        );
        assert_eq!(p.black1_neighbor_count(1), 1);
        p.set_state(0, ThreeState::White);
        assert!(p.is_active(1));
        assert_eq!(p.black1_neighbor_count(1), 0);
    }

    #[test]
    fn fast_step_matches_reference_step() {
        let g = generators::gnp(60, 0.1, &mut rng(41));
        let mut r_fast = rng(43);
        let mut r_ref = rng(43);
        let mut fast = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r_fast);
        let mut reference = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut r_ref);
        for round in 0..60 {
            assert_eq!(fast.counts(), reference.counts(), "round {round}");
            fast.step(&mut r_fast);
            reference.step_reference(&mut r_ref);
            assert_eq!(fast.states(), reference.states(), "round {round}");
            assert_eq!(fast.random_bits_used(), reference.random_bits_used());
        }
    }

    #[test]
    #[should_panic(expected = "state vector length")]
    fn mismatched_init_panics() {
        let g = generators::path(3);
        ThreeStateProcess::new(&g, vec![ThreeState::White; 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The 3-state process stabilizes to an MIS from arbitrary states.
        #[test]
        fn stabilizes_from_arbitrary_states(seed in 0u64..10_000, n in 1usize..50, p_edge in 0.0f64..1.0) {
            let mut r = rng(seed);
            let g = generators::gnp(n, p_edge, &mut r);
            let init: Vec<ThreeState> = (0..n)
                .map(|_| match rand::Rng::gen_range(&mut r, 0..3) {
                    0 => ThreeState::Black1,
                    1 => ThreeState::Black0,
                    _ => ThreeState::White,
                })
                .collect();
            let mut proc = ThreeStateProcess::new(&g, init);
            proc.run_to_stabilization(&mut r, 200_000).unwrap();
            prop_assert!(mis_check::is_mis(&g, &proc.black_set()));
        }
    }
}
