//! Engine workloads: seeded trials of graph spec → stabilized process →
//! verified MIS, driven through the algorithm registry exactly as the
//! experiment harness drives them, with an optional churn burst applied
//! after stabilization.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mis_core::init::InitStrategy;
use mis_core::{Algorithm, AlgorithmConfig, ExecutionMode, RoundStrategy, StepCtx};
use mis_graph::mis_check;
use mis_sim::{builtin_registry, generate_burst, ChurnScenario, GraphSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::Values;
use crate::seeds::Seeds;
use crate::stats;
use crate::trace::{self_times, Tracer};

/// One engine workload.
#[derive(Debug, Clone)]
pub struct EngineWorkload {
    /// Registry key of the process.
    pub key: &'static str,
    /// Graph family of every trial.
    pub graph: GraphSpec,
    /// A 16× smaller instance of the same family (same average degree),
    /// run untimed during set-up so the pool and allocator are warm.
    pub warmup: GraphSpec,
    /// Sequential stream or counter-based parallel rounds.
    pub execution: ExecutionMode,
    /// Edge-churn burst (fraction of edges, Poisson) applied after
    /// stabilization, if any.
    pub churn: Option<f64>,
    /// Round budget; a trial that needs more counts as failed.
    pub max_rounds: usize,
    /// Trials run at once: 1 when each trial's rounds already use every
    /// core, `nproc` for sequential trials (one per core, like the
    /// service's workers), which also doubles the samples per run.
    pub lanes: usize,
}

/// `sparse-two-state`: the 2-state process on `G(10⁶, 8/n)` with
/// `Parallel{nproc}` rounds, then one 1% edge-churn burst.
pub fn sparse_two_state(nproc: usize) -> EngineWorkload {
    let n = 1_000_000;
    EngineWorkload {
        key: "two-state",
        graph: GraphSpec::Gnp {
            n,
            p: 8.0 / n as f64,
        },
        warmup: GraphSpec::Gnp {
            n: n / 16,
            p: 16.0 * 8.0 / n as f64,
        },
        execution: ExecutionMode::Parallel { threads: nproc },
        churn: Some(0.01),
        max_rounds: 100_000,
        lanes: 1,
    }
}

/// `dense-three-color`: the 3-color process on `G(10⁴, 0.02)` (average
/// degree ≈ 200) in the default sequential mode, `nproc` trials at a time.
pub fn dense_three_color(nproc: usize) -> EngineWorkload {
    let n = 10_000;
    EngineWorkload {
        key: "three-color",
        graph: GraphSpec::Gnp { n, p: 0.02 },
        warmup: GraphSpec::Gnp {
            n: n / 16,
            p: 16.0 * 0.02,
        },
        execution: ExecutionMode::Sequential,
        churn: None,
        max_rounds: 1_000_000,
        lanes: nproc,
    }
}

/// Minimum timed trials per run, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Seed of the fixed warm-up instances: set-up does the same work on every
/// run, so `setup_s` tracks the code and not the seed.
const WARMUP_SEED: u64 = 0;
/// A round is busy while more than `n / BUSY_DIVISOR` vertices are active
/// (the late-phase threshold of `exp_scale`).
const BUSY_DIVISOR: usize = 64;

/// Per-round counters of traced trials.
#[derive(Debug, Default, Clone, Copy)]
struct RoundTotals {
    busy_rounds: u64,
    tail_rounds: u64,
    busy_ns: u64,
    tail_ns: u64,
    busy_arcs: u64,
    tail_arcs: u64,
    active: u64,
    dispatches: u64,
    barriers: u64,
}

impl RoundTotals {
    fn add(&mut self, o: &RoundTotals) {
        self.busy_rounds += o.busy_rounds;
        self.tail_rounds += o.tail_rounds;
        self.busy_ns += o.busy_ns;
        self.tail_ns += o.tail_ns;
        self.busy_arcs += o.busy_arcs;
        self.tail_arcs += o.tail_arcs;
        self.active += o.active;
        self.dispatches += o.dispatches;
        self.barriers += o.barriers;
    }
}

/// What one trial produced.
#[derive(Debug, Clone, Copy)]
struct Trial {
    solve_s: f64,
    rounds: usize,
    /// Stabilized within budget and a valid MIS — after churn as well.
    ok: bool,
    restab_s: Option<f64>,
    restab_rounds: usize,
    random_bits_per_vertex: f64,
}

/// Outcome of a whole engine run.
#[derive(Debug)]
pub struct EngineRun {
    /// Timed trials plus set-up warm-up trials.
    pub attempted: u64,
    /// Those not stabilized or not a valid MIS.
    pub failed: u64,
}

/// Steps `alg` until it stabilizes or exhausts `max_rounds`; returns
/// whether it stabilized. Traced runs time every step and classify it.
fn stabilize(
    alg: &mut dyn Algorithm,
    rng: &mut ChaCha8Rng,
    max_rounds: usize,
    tracer: &mut Tracer,
    id: u64,
    pool_threads: usize,
    totals: &mut RoundTotals,
) -> bool {
    if !tracer.enabled() {
        return stabilize_untraced(alg, rng, max_rounds);
    }
    let graph = alg
        .current_graph()
        .expect("engine processes expose their graph");
    let arcs = (graph.n() + 2 * graph.m()) as u64;
    let pool = rayon::global_pool(pool_threads);
    let busy_floor = (alg.n() / BUSY_DIVISOR).max(1);
    while !alg.is_stabilized() {
        if alg.round() >= max_rounds {
            return false;
        }
        let active = alg.counts().active;
        let before = pool.stats();
        let start = tracer.now();
        tracer.scope("core.step", id, |_| alg.step(StepCtx::synchronous(rng)));
        let ns = tracer.now().saturating_sub(start);
        let after = pool.stats();
        totals.active += active as u64;
        totals.dispatches += after.dispatches - before.dispatches;
        totals.barriers += after.barriers - before.barriers;
        if active > busy_floor {
            totals.busy_rounds += 1;
            totals.busy_ns += ns;
            totals.busy_arcs += arcs;
        } else {
            totals.tail_rounds += 1;
            totals.tail_ns += ns;
            totals.tail_arcs += arcs;
        }
    }
    true
}

fn stabilize_untraced(alg: &mut dyn Algorithm, rng: &mut ChaCha8Rng, max_rounds: usize) -> bool {
    while !alg.is_stabilized() {
        if alg.round() >= max_rounds {
            return false;
        }
        alg.step(StepCtx::synchronous(rng));
    }
    true
}

impl EngineWorkload {
    fn config(&self, counter_seed: u64) -> AlgorithmConfig {
        AlgorithmConfig {
            init: InitStrategy::Random,
            execution: self.execution,
            strategy: RoundStrategy::Auto,
            counter_seed,
        }
    }

    fn pool_threads(&self, nproc: usize) -> usize {
        match self.execution {
            ExecutionMode::Parallel { threads } => threads,
            ExecutionMode::Sequential => nproc,
        }
    }

    /// One trial: spec → stabilized → `is_mis`, then (with churn) a burst
    /// generated outside the timed region, `apply_mutation`,
    /// re-stabilization and `is_mis` on the mutated graph.
    fn trial(
        &self,
        graph: &GraphSpec,
        seeds: Seeds,
        index: u64,
        tracer: &mut Tracer,
        totals: &mut RoundTotals,
        nproc: usize,
    ) -> Trial {
        let factory = builtin_registry()
            .get(self.key)
            .expect("engine workloads name builtin algorithms");
        let config = self.config(seeds.derive("counter", index));
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.derive("trial", index));
        let pool_threads = self.pool_threads(nproc);

        let start = Instant::now();
        let root = tracer.begin("trial", index);
        let g = tracer.scope("graph.generate", index, |_| graph.generate(&mut rng));
        let mut alg = tracer.scope("core.init", index, |_| factory.init(&g, &config, &mut rng));
        let stabilized = stabilize(
            alg.as_mut(),
            &mut rng,
            self.max_rounds,
            tracer,
            index,
            pool_threads,
            totals,
        );
        let valid = tracer.scope("graph.verify", index, |_| {
            mis_check::is_mis(&g, &alg.black_set())
        });
        tracer.end(root);
        let mut trial = Trial {
            solve_s: start.elapsed().as_secs_f64(),
            rounds: alg.round(),
            ok: stabilized && valid,
            restab_s: None,
            restab_rounds: 0,
            random_bits_per_vertex: alg.random_bits_used() as f64 / g.n() as f64,
        };
        let Some(fraction) = self.churn else {
            return trial;
        };

        let delta = {
            let current = alg.current_graph().unwrap_or(&g);
            let mut churn_rng = ChaCha8Rng::seed_from_u64(seeds.derive("churn", index));
            generate_burst(
                ChurnScenario::EdgeChurn { fraction },
                current,
                &mut churn_rng,
            )
        };
        let before = alg.round();
        let start = Instant::now();
        let root = tracer.begin("restab", index);
        let applied = tracer
            .scope("core.apply_mutation", index, |_| alg.apply_mutation(&delta))
            .is_ok();
        let stabilized = applied
            && stabilize(
                alg.as_mut(),
                &mut rng,
                self.max_rounds,
                tracer,
                index,
                pool_threads,
                &mut RoundTotals::default(),
            );
        let valid = stabilized
            && tracer.scope("graph.verify", index, |_| {
                let current = alg.current_graph().unwrap_or(&g);
                mis_check::is_mis(current, &alg.black_set())
            });
        tracer.end(root);
        trial.restab_s = Some(start.elapsed().as_secs_f64());
        trial.restab_rounds = alg.round() - before;
        trial.ok &= valid;
        trial
    }

    /// Runs the workload: set-up (warm-up trials on the small instance),
    /// then timed trials until `seconds` have passed (at least
    /// [`MIN_TRIALS`]). Traced runs pair every traced trial with an
    /// untraced run of the same seeds to measure the tracing overhead.
    pub fn run(
        &self,
        seeds: Seeds,
        seconds: u64,
        nproc: usize,
        tracer: &mut Tracer,
        values: &mut Values,
    ) -> EngineRun {
        let mut setup = Vec::with_capacity(SETUP_REPEATS);
        let mut warmup_failed = 0;
        for r in 0..SETUP_REPEATS as u64 {
            let start = Instant::now();
            let mut off = Tracer::new(false, Instant::now());
            let warm = self.trial(
                &self.warmup,
                Seeds(Seeds(WARMUP_SEED).derive("warmup", r)),
                r,
                &mut off,
                &mut RoundTotals::default(),
                nproc,
            );
            setup.push(start.elapsed().as_secs_f64());
            warmup_failed += u64::from(!warm.ok);
        }
        values.set_median("setup_s", &setup);

        let window = Duration::from_secs(seconds);
        let (trials, untraced, totals) = self.timed_trials(seeds, window, nproc, tracer);

        let failed = trials.iter().filter(|t| !t.ok).count() as u64;
        let count = trials.len() as f64;
        let solve: Vec<f64> = trials.iter().map(|t| t.solve_s).collect();
        let rounds: Vec<f64> = trials.iter().map(|t| t.rounds as f64).collect();
        values.set_median("solve_s", &solve);
        values.set_median("rounds", &rounds);
        values.set("error_frac", failed as f64 / count);
        let bits: Vec<f64> = trials.iter().map(|t| t.random_bits_per_vertex).collect();
        values.set_sampled(
            "core.random_bits_per_vertex",
            bits.iter().sum::<f64>() / count,
            trials.len(),
        );
        if self.churn.is_some() {
            let restab: Vec<f64> = trials.iter().filter_map(|t| t.restab_s).collect();
            values.set_median("restab_s", &restab);
            let restab_rounds = trials.iter().map(|t| t.restab_rounds as f64).sum::<f64>();
            values.set_sampled("core.restab_rounds", restab_rounds / count, trials.len());
        }
        if tracer.enabled() {
            layer_metrics(tracer, &totals, trials.len(), values);
            let traced = stats::median(&solve);
            let plain = stats::median(&untraced);
            values.set("trace.overhead_frac", (traced - plain) / plain);
        }
        EngineRun {
            attempted: (trials.len() + SETUP_REPEATS) as u64,
            failed: failed + warmup_failed,
        }
    }

    /// Timed trials on [`lanes`](Self::lanes) threads until `window` has
    /// passed and at least [`MIN_TRIALS`] have started, in trial order, with
    /// the untraced solve times of traced runs' paired trials.
    fn timed_trials(
        &self,
        seeds: Seeds,
        window: Duration,
        nproc: usize,
        tracer: &mut Tracer,
    ) -> (Vec<Trial>, Vec<f64>, RoundTotals) {
        let begin = Instant::now();
        let next = AtomicUsize::new(0);
        let lanes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.lanes.max(1))
                .map(|_| {
                    let mut lane_tracer = tracer.fork();
                    let next = &next;
                    scope.spawn(move || {
                        let mut totals = RoundTotals::default();
                        let mut done = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= MIN_TRIALS && begin.elapsed() >= window {
                                break;
                            }
                            let index = index as u64;
                            let plain = lane_tracer.enabled().then(|| {
                                let mut off = Tracer::new(false, Instant::now());
                                let mut scratch = RoundTotals::default();
                                self.trial(&self.graph, seeds, index, &mut off, &mut scratch, nproc)
                                    .solve_s
                            });
                            let trial = self.trial(
                                &self.graph,
                                seeds,
                                index,
                                &mut lane_tracer,
                                &mut totals,
                                nproc,
                            );
                            done.push((index, trial, plain));
                        }
                        (done, lane_tracer, totals)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trial thread panicked"))
                .collect()
        });
        let mut totals = RoundTotals::default();
        let mut done = Vec::new();
        for (lane_done, lane_tracer, lane_totals) in lanes {
            done.extend(lane_done);
            tracer.absorb(lane_tracer);
            totals.add(&lane_totals);
        }
        done.sort_by_key(|(index, ..)| *index);
        let untraced = done.iter().filter_map(|(_, _, plain)| *plain).collect();
        let trials = done.into_iter().map(|(_, trial, _)| trial).collect();
        (trials, untraced, totals)
    }
}

/// Durations in seconds of the spans named `name` whose parent is named
/// `parent`.
fn span_seconds(tracer: &Tracer, name: &str, parent: &str) -> Vec<f64> {
    let spans = tracer.spans();
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
        .map(|s| s.duration() as f64 * 1e-9)
        .collect()
}

/// Per-layer metrics of a traced engine run.
fn layer_metrics(tracer: &Tracer, totals: &RoundTotals, trials: usize, values: &mut Values) {
    values.set_median(
        "graph.generate_s",
        &span_seconds(tracer, "graph.generate", "trial"),
    );
    values.set_median(
        "graph.verify_s",
        &span_seconds(tracer, "graph.verify", "trial"),
    );
    values.set_median("core.init_s", &span_seconds(tracer, "core.init", "trial"));
    values.set_median(
        "core.apply_mutation_s",
        &span_seconds(tracer, "core.apply_mutation", "restab"),
    );
    let per_trial = |x: u64| x as f64 / trials as f64;
    values.set_sampled("core.rounds.busy", per_trial(totals.busy_rounds), trials);
    values.set_sampled("core.rounds.tail", per_trial(totals.tail_rounds), trials);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    values.set(
        "core.round_ms.busy",
        ratio(totals.busy_ns, totals.busy_rounds) * 1e-6,
    );
    values.set(
        "core.round_ms.tail",
        ratio(totals.tail_ns, totals.tail_rounds) * 1e-6,
    );
    values.set(
        "core.ns_per_arc.busy",
        ratio(totals.busy_ns, totals.busy_arcs),
    );
    values.set(
        "core.ns_per_arc.tail",
        ratio(totals.tail_ns, totals.tail_arcs),
    );
    let rounds = totals.busy_rounds + totals.tail_rounds;
    values.set(
        "core.ns_per_active",
        ratio(totals.busy_ns + totals.tail_ns, totals.active),
    );
    values.set(
        "pool.dispatches_per_round",
        ratio(totals.dispatches, rounds),
    );
    values.set("pool.barriers_per_round", ratio(totals.barriers, rounds));

    let spans = tracer.spans();
    let own = self_times(spans);
    let (root_self, root_total) = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "trial")
        .fold((0u64, 0u64), |(a, b), (s, &o)| (a + o, b + s.duration()));
    values.set("trace.unattributed_frac", ratio(root_self, root_total));
}
