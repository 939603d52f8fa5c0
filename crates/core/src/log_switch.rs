use std::sync::Arc;

use mis_graph::{Graph, VertexId};
use rand::{Rng, RngCore};

use crate::counter_rng::{CounterRng, DRAW_SWITCH};
use crate::exec::chunk_bounds;
use crate::init::InitStrategy;
use crate::mutation::{GraphRef, MutationError};

/// Default value of the switch probability parameter `ζ`.
///
/// The paper instantiates the 3-color process with `a = 512` and `ζ = 4/a =
/// 2⁻⁷` (Definition 28 and Section 5.2), so the switch needs at most 7 random
/// bits per round per vertex.
pub const DEFAULT_ZETA: f64 = 1.0 / 128.0;

/// A *logarithmic switch* process (Definition 25): a sub-process that outputs
/// an `on`/`off` value per vertex per round, gating the gray→white transition
/// of the 3-color MIS process.
///
/// The abstract properties an `(a, b)`-switch should satisfy are:
///
/// * **(S1)** every run of consecutive `off` values has length at most
///   `a ln n`;
/// * **(S2)** if `diam(G) ≤ 2`, after a warm-up every `off`-run has length at
///   least `(a/6) ln n`;
/// * **(S3)** if `diam(G) ≤ 2`, after a constant warm-up every `on`-run has
///   length at most `b`.
///
/// [`RandomizedLogSwitch`] satisfies them w.h.p. (Lemma 27);
/// [`FixedPeriodSwitch`] is a deterministic oracle used for tests and
/// ablations.
///
/// `Sync` is a supertrait so the 3-color process's parallel decide phase
/// can read `is_on` from multiple threads.
pub trait SwitchProcess: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Executes one synchronous round of the switch.
    fn step(&mut self, rng: &mut dyn RngCore);

    /// Executes one synchronous round with counter-based randomness: every
    /// coin is the pure function `counter(vertex, round, DRAW_SWITCH)` of
    /// the switch's own round number, so the result is independent of
    /// evaluation order and `threads`. The level update is data-parallel
    /// over vertex ranges.
    fn step_counter(&mut self, counter: &CounterRng, threads: usize);

    /// The switch output `σ_t(u)` for the current round: `true` means `on`.
    fn is_on(&self, u: VertexId) -> bool;

    /// Number of distinct states the switch keeps per vertex.
    fn states_per_vertex(&self) -> usize;

    /// Total random bits drawn so far.
    fn random_bits_used(&self) -> u64;

    /// Overwrites vertex `u`'s switch memory with a uniformly random value
    /// (a transient fault) and returns whether it changed. The default fits
    /// switches without per-vertex memory: it draws nothing and returns
    /// `false`.
    fn corrupt(&mut self, u: VertexId, rng: &mut dyn RngCore) -> bool {
        let _ = (u, rng);
        false
    }

    /// Rebinds the switch to a mutated graph (same vertex ids, possibly
    /// more of them — topology mutations never renumber). The parent
    /// process passes the **same** `Arc` it adopted, so both sub-processes
    /// share one graph instance. Per-vertex switch state for pre-existing
    /// vertices must be preserved; joined vertices may start at any valid
    /// state (the switch is self-stabilizing).
    ///
    /// The default declines with [`MutationError::Unsupported`], leaving
    /// the switch untouched; switches that can follow topology changes
    /// override it.
    fn rebind_graph(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        let _ = graph;
        Err(MutationError::Unsupported)
    }
}

/// The **randomized logarithmic switch** of Definition 26.
///
/// Each vertex keeps a *level* in `{0, …, 5}`. In each round a vertex at
/// level 5 draws a biased coin (`P[reset] = ζ`); a vertex resets to level 5
/// if it is at level 0 or if it is at level 5 and the coin did *not* fire;
/// otherwise it moves to `max{level(v) : v ∈ N⁺(u)} − 1`. The switch output
/// is `on` when the level is at most 2 and `off` otherwise.
///
/// The core mechanism is the `RandPhase` phase clock of Emek & Keren (2021)
/// for diameter bound `D = 3`, but — as the paper stresses — it is used here
/// as a local, non-synchronized counter, and is run on graphs of arbitrary
/// unknown diameter.
///
/// # Example
///
/// ```
/// use mis_core::{RandomizedLogSwitch, SwitchProcess, DEFAULT_ZETA, init::InitStrategy};
/// use mis_graph::generators;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let g = generators::complete(50);
/// let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut rng);
/// for _ in 0..100 { sw.step(&mut rng); }
/// let _on = sw.is_on(0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomizedLogSwitch<'g> {
    graph: GraphRef<'g>,
    levels: Vec<u8>,
    next: Vec<u8>,
    zeta: f64,
    round: usize,
    random_bits: u64,
}

impl<'g> RandomizedLogSwitch<'g> {
    /// Creates the switch with an explicit initial level vector.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != graph.n()`, any level exceeds 5, or
    /// `zeta` is not in `(0, 1)`.
    pub fn new(graph: &'g Graph, levels: Vec<u8>, zeta: f64) -> Self {
        assert_eq!(
            levels.len(),
            graph.n(),
            "initial level vector length must equal the number of vertices"
        );
        assert!(levels.iter().all(|&l| l <= 5), "levels must be in 0..=5");
        assert!(
            zeta > 0.0 && zeta < 1.0,
            "zeta must be in (0, 1), got {zeta}"
        );
        RandomizedLogSwitch {
            next: levels.clone(),
            graph: GraphRef::Borrowed(graph),
            levels,
            zeta,
            round: 0,
            random_bits: 0,
        }
    }

    /// Creates the switch with levels drawn from an [`InitStrategy`].
    pub fn with_init<R: Rng + ?Sized>(
        graph: &'g Graph,
        init: InitStrategy,
        zeta: f64,
        rng: &mut R,
    ) -> Self {
        Self::new(graph, init.switch_levels(graph.n(), rng), zeta)
    }

    /// Current level (`0..=5`) of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn level(&self, u: VertexId) -> u8 {
        self.levels[u]
    }

    /// The switch probability parameter `ζ`.
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Overwrites the level of one vertex (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `level > 5`.
    pub fn set_level(&mut self, u: VertexId, level: u8) {
        assert!(level <= 5, "levels must be in 0..=5");
        self.levels[u] = level;
    }
}

impl SwitchProcess for RandomizedLogSwitch<'_> {
    fn n(&self) -> usize {
        self.graph.get().n()
    }

    fn step(&mut self, rng: &mut dyn RngCore) {
        for u in self.graph.get().vertices() {
            let lvl = self.levels[u];
            let reset = if lvl == 5 {
                // b = 0 with probability ζ; b = 1 keeps the vertex at level 5.
                self.random_bits += 7; // ζ = 2⁻⁷ needs at most 7 bits
                !rng.gen_bool(self.zeta)
            } else {
                false
            };
            self.next[u] = if reset || lvl == 0 {
                5
            } else {
                let max_nbr = self
                    .graph
                    .get()
                    .neighbors(u)
                    .iter()
                    .map(|v| self.levels[v])
                    .max()
                    .unwrap_or(0)
                    .max(lvl);
                max_nbr - 1
            };
        }
        std::mem::swap(&mut self.levels, &mut self.next);
        self.round += 1;
    }

    fn step_counter(&mut self, counter: &CounterRng, threads: usize) {
        let round = self.round as u64;
        let zeta = self.zeta;
        let bounds = chunk_bounds(self.n(), threads);
        let total_draws = {
            let levels = &self.levels;
            let graph = self.graph.get();
            let counter = *counter;
            let advance = |lo: usize, chunk: &mut [u8]| -> u64 {
                let mut draws = 0u64;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let u = lo + i;
                    let lvl = levels[u];
                    let reset = if lvl == 5 {
                        draws += 7; // ζ = 2⁻⁷ needs at most 7 bits
                        !counter.gen_bool(zeta, u as u64, round, DRAW_SWITCH)
                    } else {
                        false
                    };
                    *slot = if reset || lvl == 0 {
                        5
                    } else {
                        let max_nbr = graph
                            .neighbors(u)
                            .iter()
                            .map(|v| levels[v])
                            .max()
                            .unwrap_or(0)
                            .max(lvl);
                        max_nbr - 1
                    };
                }
                draws
            };
            if bounds.len() <= 1 {
                bounds
                    .first()
                    .map_or(0, |&(lo, hi)| advance(lo, &mut self.next[lo..hi]))
            } else {
                // Hand each persistent-pool participant its disjoint
                // `(offset, &mut chunk)` pair through a per-slot mutex —
                // exclusive writes without `unsafe` under the crate's
                // `forbid(unsafe_code)`.
                use std::sync::Mutex;
                let mut rest: &mut [u8] = &mut self.next;
                let mut slots = Vec::with_capacity(bounds.len());
                for &(lo, hi) in &bounds {
                    let (chunk, tail) = rest.split_at_mut(hi - lo);
                    rest = tail;
                    slots.push(Mutex::new(Some((lo, chunk))));
                }
                let pool = rayon::global_pool(bounds.len());
                pool.broadcast(|ctx| {
                    slots
                        .get(ctx.index())
                        .and_then(|s| s.lock().unwrap().take())
                        .map_or(0u64, |(lo, chunk)| advance(lo, chunk))
                })
                .into_iter()
                .sum()
            }
        };
        self.random_bits += total_draws;
        std::mem::swap(&mut self.levels, &mut self.next);
        self.round += 1;
    }

    fn is_on(&self, u: VertexId) -> bool {
        self.levels[u] <= 2
    }

    fn states_per_vertex(&self) -> usize {
        6
    }

    fn random_bits_used(&self) -> u64 {
        self.random_bits
    }

    fn corrupt(&mut self, u: VertexId, rng: &mut dyn RngCore) -> bool {
        let level = (rng.next_u32() % 6) as u8;
        let changed = self.levels[u] != level;
        self.set_level(u, level);
        changed
    }

    fn rebind_graph(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        // Joined vertices start at level 5 (the waiting level, and the
        // state a level-0 vertex resets to) — any level in 0..=5 is valid
        // since the switch is self-stabilizing, but 5 keeps their output
        // `off` until the clock synchronizes them.
        let new_n = graph.n();
        self.levels.resize(new_n, 5);
        self.next.resize(new_n, 5);
        self.graph = GraphRef::Owned(Arc::clone(graph));
        Ok(())
    }
}

/// A deterministic oracle switch used for tests and ablations: all vertices
/// share a global clock that is `on` for `on_rounds` rounds and then `off`
/// for `off_rounds` rounds, repeating.
///
/// It trivially satisfies the `(a, b)`-switch contract with
/// `a ln n = off_rounds` and `b = on_rounds`, which makes it useful for
/// separating "the switch misbehaves" from "the 3-color dynamics misbehave"
/// in tests.
#[derive(Debug, Clone)]
pub struct FixedPeriodSwitch {
    n: usize,
    on_rounds: usize,
    off_rounds: usize,
    round: usize,
}

impl FixedPeriodSwitch {
    /// Creates the oracle switch.
    ///
    /// # Panics
    ///
    /// Panics if `on_rounds + off_rounds == 0`.
    pub fn new(n: usize, on_rounds: usize, off_rounds: usize) -> Self {
        assert!(on_rounds + off_rounds > 0, "the period must be positive");
        FixedPeriodSwitch {
            n,
            on_rounds,
            off_rounds,
            round: 0,
        }
    }
}

impl SwitchProcess for FixedPeriodSwitch {
    fn n(&self) -> usize {
        self.n
    }

    fn step(&mut self, _rng: &mut dyn RngCore) {
        self.round += 1;
    }

    fn step_counter(&mut self, _counter: &CounterRng, _threads: usize) {
        // The oracle switch is deterministic: counter mode is the same step.
        self.round += 1;
    }

    fn is_on(&self, _u: VertexId) -> bool {
        self.round % (self.on_rounds + self.off_rounds) < self.on_rounds
    }

    fn states_per_vertex(&self) -> usize {
        self.on_rounds + self.off_rounds
    }

    fn random_bits_used(&self) -> u64 {
        0
    }

    fn rebind_graph(&mut self, graph: &Arc<Graph>) -> Result<(), MutationError> {
        // The oracle switch reads no adjacency; it only tracks the vertex
        // count (its global clock is unaffected by topology).
        self.n = graph.n();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Records, for one vertex, the lengths of maximal on-runs and off-runs
    /// over a simulation of `rounds` rounds (ignoring the final partial run).
    fn run_lengths(
        sw: &mut RandomizedLogSwitch<'_>,
        u: VertexId,
        rounds: usize,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut on_runs = Vec::new();
        let mut off_runs = Vec::new();
        let mut current_on = sw.is_on(u);
        let mut len = 1usize;
        for _ in 0..rounds {
            sw.step(rng);
            let now_on = sw.is_on(u);
            if now_on == current_on {
                len += 1;
            } else {
                if current_on {
                    on_runs.push(len);
                } else {
                    off_runs.push(len);
                }
                current_on = now_on;
                len = 1;
            }
        }
        (on_runs, off_runs)
    }

    #[test]
    #[should_panic(expected = "zeta must be in (0, 1)")]
    fn invalid_zeta_panics() {
        let g = generators::path(3);
        RandomizedLogSwitch::new(&g, vec![0; 3], 0.0);
    }

    #[test]
    #[should_panic(expected = "levels must be in 0..=5")]
    fn invalid_levels_panic() {
        let g = generators::path(3);
        RandomizedLogSwitch::new(&g, vec![0, 9, 0], DEFAULT_ZETA);
    }

    #[test]
    fn levels_stay_in_range_and_level0_resets() {
        let g = generators::star(20);
        let mut r = rng(1);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut r);
        for _ in 0..500 {
            sw.step(&mut r);
            for u in g.vertices() {
                assert!(sw.level(u) <= 5);
            }
        }
        // A vertex forced to level 0 must be at level 5 after one step.
        sw.set_level(3, 0);
        sw.step(&mut r);
        assert_eq!(sw.level(3), 5);
    }

    /// Property (S1) of Lemma 27: off-runs are at most ~a ln n long.
    #[test]
    fn s1_off_runs_are_logarithmically_bounded() {
        let g = generators::complete(64);
        let n = g.n() as f64;
        let zeta = 1.0 / 16.0; // larger zeta keeps the test fast; a = 4/zeta
        let a = 4.0 / zeta;
        let mut r = rng(2);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, zeta, &mut r);
        let (_, off_runs) = run_lengths(&mut sw, 0, 4000, &mut r);
        assert!(!off_runs.is_empty());
        let max_off = off_runs.iter().copied().max().unwrap();
        assert!(
            (max_off as f64) <= a * n.ln() + 6.0,
            "off-run of length {max_off} exceeds a ln n = {}",
            a * n.ln()
        );
    }

    /// Properties (S2)/(S3): on a diameter-2 graph, after synchronization the
    /// on-runs are short (≤ 3) and the off-runs are long (≥ (a/6) ln n).
    #[test]
    fn s2_s3_on_diameter_two_graphs() {
        let g = generators::complete(64);
        let n = g.n() as f64;
        let zeta = 1.0 / 16.0;
        let a = 4.0 / zeta;
        let mut r = rng(3);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, zeta, &mut r);
        // Warm up past the synchronization point (t* + 2 ≤ 7 in the proof).
        for _ in 0..50 {
            sw.step(&mut r);
        }
        let (on_runs, off_runs) = run_lengths(&mut sw, 0, 4000, &mut r);
        assert!(!on_runs.is_empty() && !off_runs.is_empty());
        assert!(
            on_runs.iter().all(|&l| l <= 3),
            "on-runs must have length at most b = 3, got {on_runs:?}"
        );
        // Skip the first off-run, which may be a partial run started during warm-up.
        let min_off = off_runs.iter().skip(1).copied().min().unwrap_or(usize::MAX);
        assert!(
            (min_off as f64) >= a / 6.0 * n.ln() - 1.0,
            "off-run of length {min_off} is below (a/6) ln n = {}",
            a / 6.0 * n.ln()
        );
    }

    #[test]
    fn low_levels_are_synchronized_on_diameter_two_graphs() {
        // Lemma 27's proof: after a constant warm-up, whenever some vertex
        // reaches level 2, *all* vertices are at level 2 in that round, then
        // all at level 1, then all at level 0 (they only desynchronize while
        // waiting at level 5).
        let g = generators::complete(40);
        let mut r = rng(4);
        let mut sw = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, DEFAULT_ZETA, &mut r);
        for _ in 0..20 {
            sw.step(&mut r);
        }
        for _ in 0..2000 {
            sw.step(&mut r);
            if let Some(low) = g.vertices().map(|u| sw.level(u)).find(|&l| l <= 2) {
                assert!(
                    g.vertices().all(|u| sw.level(u) == low),
                    "a vertex reached level {low} while others lag behind"
                );
            }
        }
    }

    #[test]
    fn counter_step_is_thread_count_invariant() {
        // n above the parallel-work threshold so the chunking actually
        // differs between thread counts.
        let g = generators::path(5000);
        let mut r = rng(9);
        let base = RandomizedLogSwitch::with_init(&g, InitStrategy::Random, 0.25, &mut r);
        let counter = CounterRng::new(5);
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut sw = base.clone();
            for _ in 0..40 {
                sw.step_counter(&counter, threads);
            }
            outputs.push((sw.levels.clone(), sw.random_bits_used(), sw.round()));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        // Counter rounds keep levels in range.
        assert!(outputs[0].0.iter().all(|&l| l <= 5));
    }

    #[test]
    fn fixed_period_switch_cycles() {
        let mut sw = FixedPeriodSwitch::new(5, 2, 3);
        let mut r = rng(0);
        let mut pattern = Vec::new();
        for _ in 0..10 {
            pattern.push(sw.is_on(0));
            sw.step(&mut r);
        }
        assert_eq!(
            pattern,
            vec![true, true, false, false, false, true, true, false, false, false]
        );
        assert_eq!(sw.states_per_vertex(), 5);
        assert_eq!(sw.random_bits_used(), 0);
        assert_eq!(sw.n(), 5);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        FixedPeriodSwitch::new(3, 0, 0);
    }
}
