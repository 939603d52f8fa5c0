//! The unified, object-safe [`Algorithm`] interface and the string-keyed
//! [`Registry`] behind the experiment harness.
//!
//! Everything the harness can run — the paper's three processes, the four
//! baselines, and the weak-communication adaptations — implements one
//! dyn-compatible trait, so schedulers, observers, fault injection, and
//! metric collection are written once and algorithms plug in by name:
//!
//! * [`Algorithm`] is a process in the sense of Section 2 of the paper: a
//!   synchronous local rule ([`step`](Algorithm::step)) plus the vertex
//!   partition `B_t`, `A_t`, `I_t`, `V_t` the analysis reads. Optional
//!   abilities — scheduled (partial-activation) steps, in-place fault
//!   injection, Byzantine overrides, topology changes — are advertised by
//!   one [`Capabilities`] set.
//! * [`AlgorithmFactory`] is the `init(graph, init_strategy, rng)` entry
//!   point: it builds a boxed algorithm instance for one trial from an
//!   [`AlgorithmConfig`], and names the algorithm's registry key and
//!   [`CommunicationModel`].
//! * [`Registry`] maps stable string keys (`"two-state"`,
//!   `"beeping-two-state"`, …) to factories. Crates register their
//!   algorithms (`mis_core::register_core_algorithms`, and the comm/baseline
//!   equivalents); the sim crate composes the builtin registry and resolves
//!   experiment specs through it.
//!
//! A new algorithm joins the harness by implementing [`Algorithm`] and
//! registering a factory — no enum needs to grow.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use mis_graph::{CommittedDelta, Graph, GraphDelta, VertexId, VertexSet};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::exec::{ExecutionMode, RoundStrategy};
use crate::init::InitStrategy;
use crate::mutation::MutationError;
use crate::scheduler::Activation;

/// Error returned by [`Algorithm::run_to_stabilization`] when the process
/// did not stabilize within the allowed number of rounds.
///
/// All processes in this workspace stabilize with probability 1, so hitting
/// this error in practice means either the round budget was too small for
/// the graph or the process is being run on an adversarially chosen budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StabilizationTimeout {
    /// Number of rounds executed before giving up.
    pub rounds_executed: usize,
}

impl fmt::Display for StabilizationTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process did not stabilize within {} rounds",
            self.rounds_executed
        )
    }
}

impl Error for StabilizationTimeout {}

/// Per-round summary of the vertex partition maintained by a process, using
/// the notation of Section 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StateCounts {
    /// `|B_t|` — vertices currently black.
    pub black: usize,
    /// `|W_t|` (plus gray vertices in the 3-color process) — vertices not black.
    pub non_black: usize,
    /// `|A_t|` — active vertices (those that will re-randomize next round).
    pub active: usize,
    /// `|I_t|` — stable black vertices (black with no black neighbor).
    pub stable_black: usize,
    /// `|V_t|` — vertices that are not yet stable.
    pub unstable: usize,
}

/// The weakest communication model an algorithm's local rule needs.
///
/// Used by comparison tables and the `list_algorithms` tool; it does not
/// change how the simulation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommunicationModel {
    /// The rule reads full neighbor states (shared-memory style simulation).
    FullStateExchange,
    /// One carrier bit per round: beep or listen, with sender collision
    /// detection (Cornejo & Kuhn 2010; Afek et al. 2013).
    Beeping,
    /// One letter from a constant alphabet per round, detecting only
    /// "no neighbor sent it" vs "some neighbor sent it"
    /// (Emek & Wattenhofer 2013).
    StoneAge,
    /// Θ(log n)-bit messages per round (Luby-style priorities).
    MessagePassing,
    /// Not distributed at all: a centralized or sequential algorithm.
    Centralized,
}

impl CommunicationModel {
    /// Short label for tables and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            CommunicationModel::FullStateExchange => "full-state-exchange",
            CommunicationModel::Beeping => "beeping",
            CommunicationModel::StoneAge => "stone-age",
            CommunicationModel::MessagePassing => "message-passing",
            CommunicationModel::Centralized => "centralized",
        }
    }
}

impl fmt::Display for CommunicationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything an [`Algorithm::step`] may use: the trial RNG stream and the
/// activation chosen by the scheduler for this round.
pub struct StepCtx<'a> {
    /// The shared RNG stream of the trial (the paper's processes read it
    /// only to key their counter coins when no seed was set).
    pub rng: &'a mut dyn RngCore,
    /// Which vertices the scheduler activated this round.
    pub activation: &'a Activation,
}

impl<'a> StepCtx<'a> {
    /// A context that activates every vertex (the synchronous model).
    pub fn synchronous(rng: &'a mut dyn RngCore) -> Self {
        StepCtx {
            rng,
            activation: &Activation::All,
        }
    }

    /// The RNG of a synchronous round, for algorithms without partial
    /// activation.
    ///
    /// # Panics
    ///
    /// Panics if the activation is a subset.
    pub fn synchronous_rng(self) -> &'a mut dyn RngCore {
        match self.activation {
            Activation::All => self.rng,
            Activation::Subset(_) => panic!(
                "algorithm does not support partial activation; \
                 use the synchronous scheduler"
            ),
        }
    }
}

/// What an [`Algorithm`] supports beyond synchronous rounds. The harness
/// checks these before it schedules partial activation, faults, churn, an
/// adversary or a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    /// [`Algorithm::apply_mutation`] applies topology changes (rather than
    /// declining with [`MutationError::Unsupported`]).
    pub topology_change: bool,
    /// Rounds can run in intra-round data-parallel phases with
    /// counter-based coins ([`ExecutionMode::Parallel`]).
    pub parallel: bool,
    /// [`Algorithm::step`] accepts [`Activation::Subset`].
    pub partial_activation: bool,
    /// [`Algorithm::inject_faults_targeted`] actually corrupts state.
    pub fault_injection: bool,
    /// [`Algorithm::set_byzantine_state`] actually overrides state (so the
    /// harness may attach a [`crate::byzantine::ByzantineOverlay`]).
    pub byzantine: bool,
    /// Per-round [`counts`](Algorithm::counts) traces are meaningful.
    /// One-shot baselines (greedy, Luby, the sequential self-stabilizing
    /// algorithm) run to completion inside their factory and have none.
    pub trace: bool,
}

/// A synchronous, self-stabilizing graph process computing an MIS, bound to
/// one graph for one trial.
///
/// Implementations update all vertex states in parallel each
/// [`step`](Self::step) (Section 2 of the paper) and expose the evolving
/// vertex partitions that the analysis reasons about. A process is
/// **stabilized** when every vertex is stable, at which point the set of
/// black vertices is a maximal independent set of the underlying graph and
/// no state changes any more.
///
/// The trait is object-safe: the harness only ever holds a
/// `Box<dyn Algorithm + 'g>`. Concrete processes also keep an inherent
/// `step(&mut self, rng)` for one synchronous round, so direct callers need
/// no [`StepCtx`].
///
/// # Per-round complexity contract
///
/// The paper's processes execute rounds through the incremental
/// [`engine`](crate::engine): a step costs `O(|A_t| + vol(A_t))` — the
/// number of frontier vertices plus the degree sum of the vertices that
/// changed — **not** `O(n + m)`, and [`is_stabilized`](Self::is_stabilized)
/// and [`counts`](Self::counts) are `O(1)` reads of cached counters. Once a
/// region of the graph is quiet, no work happens there; a fully stabilized
/// 2-state instance steps in (near-)constant time. (The 3-color process's
/// *color* update obeys the same bound, but its logarithmic-switch
/// sub-process is a phase clock that advances every vertex every round, so
/// a 3-color step stays `O(n)`; the 3-state process keeps its stable black
/// vertices alternating by definition, so its steady state costs
/// `O(|I_t| + vol(I_t))`.) The set-returning accessors
/// ([`black_set`](Self::black_set), [`active_set`](Self::active_set), …)
/// materialize a bitset and remain `O(n)`.
pub trait Algorithm {
    /// Number of vertices of the underlying graph.
    fn n(&self) -> usize;

    /// Number of rounds executed so far (the `t` of the paper; 0 initially).
    fn round(&self) -> usize;

    /// Executes one round under the activation in `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.activation` is a subset but the algorithm does not
    /// support partial activation (see [`Capabilities::partial_activation`]).
    fn step(&mut self, ctx: StepCtx<'_>);

    /// `true` if every vertex is stable: the black set is an MIS and no
    /// state will change again (for the 3-state process: no *blackness*
    /// will change again).
    fn is_stabilized(&self) -> bool;

    /// The current set of black vertices `B_t`.
    fn black_set(&self) -> VertexSet;

    /// The current set of active vertices `A_t` (vertices that will draw a
    /// random state in the next round).
    fn active_set(&self) -> VertexSet;

    /// The current set of stable black vertices `I_t` (black vertices with no
    /// black neighbor). `I_t` is always an independent set and a subset of
    /// the final MIS.
    fn stable_black_set(&self) -> VertexSet;

    /// The current set of non-stable vertices `V_t = V \ N⁺(I_t)`.
    fn unstable_set(&self) -> VertexSet;

    /// Aggregate counts of the current partition.
    fn counts(&self) -> StateCounts;

    /// Number of distinct states each vertex can be in (2, 3, or 18 for the
    /// processes of the paper) — the "few states" headline metric;
    /// `usize::MAX` for algorithms with super-constant state.
    fn states_per_vertex(&self) -> usize;

    /// Total number of random bits drawn so far across all vertices, used by
    /// the baseline-comparison experiments ("constant random bits per round").
    fn random_bits_used(&self) -> u64;

    /// What this algorithm supports beyond synchronous rounds.
    fn capabilities(&self) -> Capabilities;

    /// Runs synchronous rounds until the process stabilizes, executing at
    /// most `max_rounds` additional rounds.
    ///
    /// Returns the total number of rounds executed so far (i.e. the
    /// stabilization time when starting from round 0).
    ///
    /// # Errors
    ///
    /// Returns [`StabilizationTimeout`] if the process has not stabilized
    /// after `max_rounds` additional rounds.
    fn run_to_stabilization(
        &mut self,
        rng: &mut dyn RngCore,
        max_rounds: usize,
    ) -> Result<usize, StabilizationTimeout> {
        for _ in 0..max_rounds {
            if self.is_stabilized() {
                return Ok(self.round());
            }
            self.step(StepCtx::synchronous(rng));
        }
        if self.is_stabilized() {
            Ok(self.round())
        } else {
            Err(StabilizationTimeout {
                rounds_executed: self.round(),
            })
        }
    }

    /// Overwrites the states of `ceil(fraction · n)` uniformly chosen
    /// vertices with uniformly random states (a transient fault) and returns
    /// the number of vertices whose state actually changed.
    ///
    /// Draws the victims with [`fault_victims`] and corrupts them with
    /// [`inject_faults_targeted`](Self::inject_faults_targeted), so
    /// random-count and targeted faults share one corruption recipe (and
    /// one RNG-stream shape). Implementations override the targeted method,
    /// not this one. Without [`Capabilities::fault_injection`] it draws
    /// nothing and returns 0.
    fn inject_faults(&mut self, fraction: f64, rng: &mut dyn RngCore) -> usize {
        if !self.capabilities().fault_injection {
            return 0;
        }
        let victims = fault_victims(self.n(), fraction, rng);
        self.inject_faults_targeted(&victims, rng)
    }

    /// Overwrites the states of exactly the given `victims` with uniformly
    /// random states (a *targeted* transient fault) and returns the number
    /// of vertices whose state actually changed.
    ///
    /// The default does nothing and returns 0; algorithms that can be
    /// corrupted override it and set [`Capabilities::fault_injection`].
    fn inject_faults_targeted(&mut self, _victims: &[VertexId], _rng: &mut dyn RngCore) -> usize {
        0
    }

    /// Forces vertex `u`'s protocol-visible state to black (or white),
    /// delta-repairing any incremental bookkeeping (frontier membership,
    /// black/black1 neighbor counters) exactly like the
    /// [`apply_mutation`](Self::apply_mutation) state-carryover path.
    /// Returns whether the state actually changed.
    ///
    /// This is the seam [`crate::byzantine::ByzantineOverlay`] drives after
    /// every round; richer per-algorithm state (the 3-color switch level,
    /// stone-age letters) is deliberately left untouched so the adversary
    /// controls exactly the blackness neighbors observe. The default does
    /// nothing and returns `false`; algorithms that support adversarial
    /// overrides implement it and set [`Capabilities::byzantine`].
    fn set_byzantine_state(&mut self, _u: VertexId, _black: bool) -> bool {
        false
    }

    /// Applies a batch of topology mutations (edge insert/delete, vertex
    /// join/leave) and incrementally re-derives all bookkeeping, so the
    /// algorithm **re-stabilizes from its current configuration** instead
    /// of restarting. Returns the normalized [`CommittedDelta`] (net edge
    /// changes, old/new vertex counts).
    ///
    /// The default declines with [`MutationError::Unsupported`] and leaves
    /// the state untouched; algorithms that can follow topology changes
    /// override it and set [`Capabilities::topology_change`]. The harness
    /// consults that flag before scheduling churn.
    ///
    /// # Errors
    ///
    /// [`MutationError::Unsupported`] if the algorithm (or a sub-process)
    /// cannot follow topology changes; [`MutationError::Graph`] if the
    /// delta is invalid against the current graph. Either way the
    /// algorithm's state is unchanged.
    fn apply_mutation(&mut self, delta: &GraphDelta) -> Result<CommittedDelta, MutationError> {
        let _ = delta;
        Err(MutationError::Unsupported)
    }

    /// The graph the algorithm is currently running on, if it exposes one —
    /// after [`apply_mutation`](Self::apply_mutation) this is the *mutated*
    /// graph, which the harness needs for churn generation and final MIS
    /// validation. Algorithms without topology-change support may return
    /// `None` (the harness falls back to the trial's original graph).
    fn current_graph(&self) -> Option<&Graph> {
        None
    }
}

/// Per-trial construction parameters handed to an [`AlgorithmFactory`].
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmConfig {
    /// Initial-state strategy (self-stabilizing algorithms accept any).
    pub init: InitStrategy,
    /// How many threads a round runs on; the results do not depend on it.
    /// Algorithms that do not support parallel execution ignore this.
    pub execution: ExecutionMode,
    /// How full synchronous rounds traverse the graph (adaptive
    /// dense/sparse by default); bit-identical across choices. Algorithms
    /// without a frontier engine ignore this.
    pub strategy: RoundStrategy,
    /// Seed keying the counter-based RNG that draws the rounds' coins.
    pub counter_seed: u64,
}

/// Salt mixed into a trial seed to derive its counter seed, so the counter
/// key is decorrelated from the ChaCha stream that draws the graph and the
/// initial states.
const COUNTER_SEED_SALT: u64 = 0x0005_EEDC_0DE0_FC01;

impl AlgorithmConfig {
    /// The [`counter_seed`](Self::counter_seed) of the trial seeded
    /// `trial_seed`. Experiments and service jobs both derive it here, so a
    /// job and a trial with the same seed share a counter key.
    pub fn counter_seed_for(trial_seed: u64) -> u64 {
        trial_seed ^ COUNTER_SEED_SALT
    }
}

/// Builds [`Algorithm`] instances for one registry key.
///
/// `init` is the single entry point the harness calls per trial; it may
/// consume randomness (initial states, or even a whole run for one-shot
/// baselines), which is why it receives the trial RNG.
pub trait AlgorithmFactory: Send + Sync {
    /// The stable registry key (also used in specs and CSV output).
    fn key(&self) -> &'static str;

    /// One-line human-readable description for `list_algorithms`.
    fn description(&self) -> &'static str;

    /// The weakest communication model the algorithm's rule needs.
    fn communication_model(&self) -> CommunicationModel;

    /// Creates one algorithm instance on `graph` for one trial.
    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g>;
}

/// A string-keyed collection of [`AlgorithmFactory`]s.
///
/// Keys are unique; registering a duplicate panics (it is always a
/// programming error). Iteration order is the lexicographic key order, so
/// listings and error messages are deterministic.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<&'static str, Box<dyn AlgorithmFactory>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a factory under its [`key`](AlgorithmFactory::key).
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered.
    pub fn register(&mut self, factory: Box<dyn AlgorithmFactory>) {
        let key = factory.key();
        assert!(
            self.entries.insert(key, factory).is_none(),
            "algorithm key '{key}' registered twice"
        );
    }

    /// Looks up a factory by key.
    pub fn get(&self, key: &str) -> Option<&dyn AlgorithmFactory> {
        self.entries.get(key).map(|f| f.as_ref())
    }

    /// `true` if `key` is registered.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// All registered keys, in lexicographic order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.entries.keys().copied().collect()
    }

    /// All registered factories, in key order.
    pub fn factories(&self) -> impl Iterator<Item = &dyn AlgorithmFactory> {
        self.entries.values().map(|f| f.as_ref())
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no algorithm is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("keys", &self.keys())
            .finish()
    }
}

/// Picks `ceil(fraction · n)` distinct fault victims, uniformly at random
/// (uniform without replacement, via a partial Fisher–Yates shuffle that
/// costs `O(count)` swaps and draws rather than `O(n)`). Shared by every
/// [`Algorithm::inject_faults`] implementation so all algorithms corrupt
/// the same number of vertices for the same fraction.
///
/// # Panics
///
/// Panics if `fraction` is not in `[0, 1]`.
pub fn fault_victims(n: usize, fraction: f64, rng: &mut dyn RngCore) -> Vec<VertexId> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1], got {fraction}"
    );
    let count = ((fraction * n as f64).ceil() as usize).min(n);
    victim_sample(n, count, rng)
}

/// Picks `min(count, n)` distinct vertices uniformly at random, via the
/// same partial Fisher–Yates shuffle as [`fault_victims`] (which delegates
/// here). Shared selection plumbing for count-based fault specs and
/// Byzantine vertex placement.
pub fn victim_sample(n: usize, count: usize, rng: &mut dyn RngCore) -> Vec<VertexId> {
    let count = count.min(n);
    let mut ids: Vec<VertexId> = (0..n).collect();
    for i in 0..count {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

/// Draws a uniformly random boolean (one random bit) from a dyn RNG —
/// convenience for `inject_faults` implementations.
pub(crate) fn coin(rng: &mut dyn RngCore) -> bool {
    rng.gen_bool(0.5)
}

/// Draws a uniformly random value in `{0, 1, 2}` — convenience for
/// `inject_faults` implementations over 3-valued state spaces.
pub fn uniform3(rng: &mut dyn RngCore) -> u8 {
    rng.gen_range(0..3u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct DummyFactory(&'static str);

    impl AlgorithmFactory for DummyFactory {
        fn key(&self) -> &'static str {
            self.0
        }
        fn description(&self) -> &'static str {
            "dummy"
        }
        fn communication_model(&self) -> CommunicationModel {
            CommunicationModel::Centralized
        }
        fn init<'g>(
            &self,
            _graph: &'g Graph,
            _config: &AlgorithmConfig,
            _rng: &mut dyn RngCore,
        ) -> Box<dyn Algorithm + 'g> {
            unimplemented!("never constructed in these tests")
        }
    }

    #[test]
    fn registry_is_sorted_and_queryable() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        r.register(Box::new(DummyFactory("zeta")));
        r.register(Box::new(DummyFactory("alpha")));
        assert_eq!(r.keys(), vec!["alpha", "zeta"]);
        assert_eq!(r.len(), 2);
        assert!(r.contains("alpha"));
        assert!(!r.contains("beta"));
        assert_eq!(r.get("zeta").unwrap().key(), "zeta");
        assert!(r.get("beta").is_none());
        assert_eq!(r.factories().count(), 2);
        assert!(format!("{r:?}").contains("alpha"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_key_panics() {
        let mut r = Registry::new();
        r.register(Box::new(DummyFactory("a")));
        r.register(Box::new(DummyFactory("a")));
    }

    #[test]
    fn fault_victims_counts_and_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(fault_victims(10, 0.0, &mut rng).len(), 0);
        assert_eq!(fault_victims(10, 1.0, &mut rng).len(), 10);
        assert_eq!(fault_victims(10, 0.25, &mut rng).len(), 3); // ceil(2.5)
        let v = fault_victims(5, 0.5, &mut rng);
        assert!(v.iter().all(|&u| u < 5));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len(), "victims must be distinct");
    }

    #[test]
    fn victim_sample_counts_and_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(victim_sample(10, 0, &mut rng).is_empty());
        assert_eq!(victim_sample(10, 25, &mut rng).len(), 10, "count clamps");
        assert!(victim_sample(0, 5, &mut rng).is_empty());
        let v = victim_sample(20, 7, &mut rng);
        assert_eq!(v.len(), 7);
        assert!(v.iter().all(|&u| u < 20));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), v.len(), "sample must be distinct");
    }

    #[test]
    fn fault_victims_delegates_to_victim_sample() {
        // Same seed, same count => identical RNG stream and selection.
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        assert_eq!(
            fault_victims(40, 0.25, &mut a),
            victim_sample(40, 10, &mut b)
        );
        assert_eq!(a.next_u64(), b.next_u64(), "streams must stay aligned");
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn fault_victims_rejects_bad_fraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        fault_victims(4, -0.1, &mut rng);
    }

    #[test]
    fn timeout_error_displays_round_count() {
        let e = StabilizationTimeout {
            rounds_executed: 42,
        };
        assert!(e.to_string().contains("42"));
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<StabilizationTimeout>();
    }

    #[test]
    fn state_counts_default_is_zero() {
        let c = StateCounts::default();
        assert_eq!(
            c.black + c.non_black + c.active + c.stable_black + c.unstable,
            0
        );
    }

    #[test]
    fn communication_model_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            CommunicationModel::FullStateExchange,
            CommunicationModel::Beeping,
            CommunicationModel::StoneAge,
            CommunicationModel::MessagePassing,
            CommunicationModel::Centralized,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(CommunicationModel::Beeping.to_string(), "beeping");
    }
}
