//! Stabilization-time scaling experiments (E1–E6, E9).
//!
//! Each experiment sweeps a graph family over its natural parameter, runs the
//! relevant process for a batch of trials per point, and fits the growth of
//! the mean stabilization time so the measured *shape* can be compared with
//! the theorem's claimed bound.

use mis_core::init::InitStrategy;
use mis_sim::runner::run_experiment;
use mis_sim::spec::{ExecutionMode, ExperimentSpec, GraphSpec};
use mis_sim::sweep::{run_sweep, SweepTable};

use crate::fit::{polylog_exponent, power_exponent};
use crate::Scale;

/// A scaling experiment's result: the raw sweep table plus fitted growth
/// exponents of the mean stabilization time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// One row per swept parameter value.
    pub table: SweepTable,
    /// Exponent `e` of the fit `rounds ≈ c · (ln n)^e` (1 ≈ logarithmic,
    /// 2 ≈ log², …).
    pub polylog_exponent: f64,
    /// Exponent `e` of the fit `rounds ≈ c · n^e` (≈ 0 for poly-logarithmic
    /// behaviour, ≈ 1 for linear).
    pub power_exponent: f64,
}

impl ScalingReport {
    fn from_table(table: SweepTable) -> Self {
        let ns: Vec<f64> = table.rows.iter().map(|r| r.parameter).collect();
        let rounds: Vec<f64> = table.rows.iter().map(|r| r.rounds.mean.max(1.0)).collect();
        let (polylog, power) = if ns.len() >= 2 && ns.iter().all(|&n| n > 1.0) {
            (polylog_exponent(&ns, &rounds), power_exponent(&ns, &rounds))
        } else {
            (0.0, 0.0)
        };
        ScalingReport {
            table,
            polylog_exponent: polylog,
            power_exponent: power,
        }
    }
}

fn spec(
    name: &str,
    graph: GraphSpec,
    algorithm: &str,
    trials: usize,
    base_seed: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        graph,
        algorithm: algorithm.to_string(),
        init: InitStrategy::Random,
        execution: ExecutionMode::Sequential,
        trials,
        max_rounds: 1_000_000,
        base_seed,
        record_trace: false,
        ..ExperimentSpec::default()
    }
}

/// E1 — Theorem 8: the 2-state process on the complete graph `K_n` takes
/// `O(log n)` rounds in expectation and `Θ(log² n)` w.h.p.
///
/// Returns the scaling sweep; the companion tail statistics are produced by
/// [`e1_clique_tail`].
pub fn e1_clique(scale: Scale) -> ScalingReport {
    let sizes = scale.sizes(&[32, 64, 128], &[64, 128, 256, 512, 1024, 2048]);
    // 64 trials at both scales: the quick cliques are tiny, and the
    // `scale.trials` share of 8 leaves the mean of the heavy-tailed
    // stabilization time too noisy to fit a growth exponent over three sizes.
    let trials = 64;
    let table = run_sweep(sizes.into_iter().map(|n| {
        (
            n as f64,
            spec(
                "e1-clique",
                GraphSpec::Complete { n },
                "two-state",
                trials,
                100,
            ),
        )
    }));
    ScalingReport::from_table(table)
}

/// E1 (tail) — Theorem 8's tail bound: `P[T ≥ k · log n] = 2^{-Θ(k)}`.
///
/// Returns `(k, empirical fraction of trials with T ≥ k · log₂ n)` for
/// `k = 1..=max_k` at a fixed clique size.
pub fn e1_clique_tail(scale: Scale) -> Vec<(usize, f64)> {
    let n = match scale {
        Scale::Quick => 64,
        Scale::Full => 256,
    };
    let trials = scale.trials(400);
    let result = run_experiment(&spec(
        "e1-clique-tail",
        GraphSpec::Complete { n },
        "two-state",
        trials,
        200,
    ));
    let log_n = (n as f64).log2();
    (1..=6)
        .map(|k| {
            let threshold = k as f64 * log_n;
            let exceeded = result
                .trials
                .iter()
                .filter(|t| t.rounds as f64 >= threshold)
                .count();
            (k, exceeded as f64 / result.trials.len() as f64)
        })
        .collect()
}

/// E2 — Remark 9: on `√n` disjoint cliques `K_{√n}` the 2-state process needs
/// `Θ(log² n)` rounds (the slowest clique dominates).
pub fn e2_disjoint_cliques(scale: Scale) -> ScalingReport {
    let sides = scale.sizes(&[8, 12, 16], &[8, 16, 24, 32, 48, 64]);
    let trials = scale.trials(48);
    let table = run_sweep(sides.into_iter().map(|side| {
        let n = side * side;
        (
            n as f64,
            spec(
                "e2-disjoint-cliques",
                GraphSpec::DisjointCliques {
                    count: side,
                    size: side,
                },
                "two-state",
                trials,
                300,
            ),
        )
    }));
    ScalingReport::from_table(table)
}

/// E3 — Theorem 11: on bounded-arboricity graphs (random trees here) the
/// 2-state process stabilizes in `O(log n)` rounds w.h.p.
pub fn e3_trees(scale: Scale) -> ScalingReport {
    let sizes = scale.sizes(&[64, 128, 256], &[128, 256, 512, 1024, 2048, 4096, 8192]);
    let trials = scale.trials(48);
    let table = run_sweep(sizes.into_iter().map(|n| {
        (
            n as f64,
            spec(
                "e3-trees",
                GraphSpec::RandomTree { n },
                "two-state",
                trials,
                400,
            ),
        )
    }));
    ScalingReport::from_table(table)
}

/// E3 (variant) — other bounded-arboricity families: paths, stars, and unions
/// of `k` random forests, all at a fixed `n`, to show the bound does not
/// depend on the specific family.
pub fn e3_bounded_arboricity_families(scale: Scale) -> SweepTable {
    let n = match scale {
        Scale::Quick => 256,
        Scale::Full => 2048,
    };
    let trials = scale.trials(48);
    let specs = vec![
        (1.0, GraphSpec::Path { n }),
        (2.0, GraphSpec::Cycle { n }),
        (3.0, GraphSpec::Star { n }),
        (4.0, GraphSpec::RandomTree { n }),
        (5.0, GraphSpec::ForestUnion { n, forests: 3 }),
        (
            6.0,
            GraphSpec::Grid {
                rows: (n as f64).sqrt() as usize,
                cols: (n as f64).sqrt() as usize,
            },
        ),
    ];
    run_sweep(
        specs
            .into_iter()
            .map(|(idx, graph)| (idx, spec("e3-families", graph, "two-state", trials, 450))),
    )
}

/// E4 — Theorem 12: on `d`-regular graphs the stabilization time is
/// `O(Δ log n)`; the sweep is over the degree `d` at fixed `n`, and the
/// report's exponents are computed over `d` instead of `n` (a slope ≤ 1 in
/// the power exponent confirms at-most-linear growth in Δ).
pub fn e4_max_degree(scale: Scale) -> ScalingReport {
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 512,
    };
    let degrees = scale.sizes(&[4, 8, 16], &[4, 8, 16, 32, 64]);
    let trials = scale.trials(48);
    let table = run_sweep(degrees.into_iter().map(|d| {
        (
            d as f64,
            spec(
                "e4-regular",
                GraphSpec::Regular { n, d },
                "two-state",
                trials,
                500,
            ),
        )
    }));
    ScalingReport::from_table(table)
}

/// E5 — Theorem 2 / Theorem 19: the 2-state process on `G(n,p)` with
/// `p ≈ √(log n / n)` (the hardest density the theorem covers) stabilizes in
/// polylog rounds.
pub fn e5_gnp_two_state(scale: Scale) -> ScalingReport {
    let sizes = scale.sizes(&[128, 256, 512], &[256, 512, 1024, 2048, 4096]);
    let trials = scale.trials(32);
    let table = run_sweep(sizes.into_iter().map(|n| {
        let p = ((n as f64).ln() / n as f64).sqrt();
        (
            n as f64,
            spec("e5-gnp", GraphSpec::Gnp { n, p }, "two-state", trials, 600),
        )
    }));
    ScalingReport::from_table(table)
}

/// E5 (density sweep) — the 2-state process across densities at fixed `n`,
/// covering both regimes of Theorem 2 (`p` small and `p` constant) plus the
/// intermediate regime the theorem leaves open.
pub fn e5_gnp_density_sweep(scale: Scale) -> SweepTable {
    let n = match scale {
        Scale::Quick => 256,
        Scale::Full => 1024,
    };
    let trials = scale.trials(32);
    let densities: Vec<f64> = match scale {
        Scale::Quick => vec![0.01, 0.1, 0.5],
        Scale::Full => vec![0.002, 0.01, 0.03, 0.1, 0.25, 0.5, 0.8],
    };
    run_sweep(densities.into_iter().map(|p| {
        (
            p,
            spec(
                "e5-density",
                GraphSpec::Gnp { n, p },
                "two-state",
                trials,
                650,
            ),
        )
    }))
}

/// E6 — Theorem 3 / Theorem 32: the 3-color process (18 states) stabilizes in
/// polylog rounds on `G(n,p)` for the **whole** density range, including the
/// `p ≈ n^{-1/4}` regime not covered by the 2-state analysis.
pub fn e6_gnp_three_color(scale: Scale) -> ScalingReport {
    let sizes = scale.sizes(&[128, 256, 512], &[256, 512, 1024, 2048, 4096]);
    let trials = scale.trials(32);
    let table = run_sweep(sizes.into_iter().map(|n| {
        let p = (n as f64).powf(-0.25);
        (
            n as f64,
            spec(
                "e6-gnp-3color",
                GraphSpec::Gnp { n, p },
                "three-color",
                trials,
                700,
            ),
        )
    }));
    ScalingReport::from_table(table)
}

/// E6 (density sweep) — 2-state vs 3-color across the full density range at a
/// fixed `n`: the shape comparison behind Theorem 3's motivation.
pub fn e6_density_comparison(scale: Scale) -> SweepTable {
    let n = match scale {
        Scale::Quick => 256,
        Scale::Full => 1024,
    };
    let trials = scale.trials(24);
    let densities: Vec<f64> = match scale {
        Scale::Quick => vec![0.05, 0.3],
        Scale::Full => vec![0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8],
    };
    let mut points = Vec::new();
    for p in densities {
        points.push((
            p,
            spec(
                "e6-cmp-2state",
                GraphSpec::Gnp { n, p },
                "two-state",
                trials,
                720,
            ),
        ));
        points.push((
            p,
            spec(
                "e6-cmp-3color",
                GraphSpec::Gnp { n, p },
                "three-color",
                trials,
                730,
            ),
        ));
    }
    run_sweep(points)
}

/// E9 — Remark 10: the 3-state process stabilizes in `O(log n)` rounds on
/// `K_n`, a full log-factor faster than the 2-state process's `Θ(log² n)`.
pub fn e9_three_state_clique(scale: Scale) -> (ScalingReport, ScalingReport) {
    let sizes = scale.sizes(&[32, 64, 128], &[64, 128, 256, 512, 1024, 2048]);
    let trials = scale.trials(64);
    let two = run_sweep(sizes.iter().map(|&n| {
        (
            n as f64,
            spec(
                "e9-2state",
                GraphSpec::Complete { n },
                "two-state",
                trials,
                800,
            ),
        )
    }));
    let three = run_sweep(sizes.iter().map(|&n| {
        (
            n as f64,
            spec(
                "e9-3state",
                GraphSpec::Complete { n },
                "three-state",
                trials,
                810,
            ),
        )
    }));
    (
        ScalingReport::from_table(two),
        ScalingReport::from_table(three),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_runs_and_everything_stabilizes() {
        let report = e1_clique(Scale::Quick);
        assert_eq!(report.table.rows.len(), 3);
        assert!(report
            .table
            .rows
            .iter()
            .all(|r| r.stabilized_fraction == 1.0));
        // The clique bound is between log n and log² n: the measured power
        // exponent over n must be far from linear.
        assert!(
            report.power_exponent < 0.5,
            "power exponent {}",
            report.power_exponent
        );
    }

    #[test]
    fn e1_tail_fractions_are_monotone_decreasing() {
        let tail = e1_clique_tail(Scale::Quick);
        assert_eq!(tail.len(), 6);
        for w in tail.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
        assert!(tail[0].1 <= 1.0 && tail[5].1 >= 0.0);
    }

    #[test]
    fn e3_trees_quick_is_fast_and_logarithmic_shaped() {
        let report = e3_trees(Scale::Quick);
        assert!(report
            .table
            .rows
            .iter()
            .all(|r| r.stabilized_fraction == 1.0));
        assert!(
            report.power_exponent < 0.5,
            "power exponent {}",
            report.power_exponent
        );
    }

    #[test]
    fn e4_quick_runs() {
        let report = e4_max_degree(Scale::Quick);
        assert_eq!(report.table.rows.len(), 3);
        assert!(report
            .table
            .rows
            .iter()
            .all(|r| r.stabilized_fraction == 1.0));
    }

    #[test]
    fn e9_three_state_is_not_slower_than_two_state_on_cliques() {
        let (two, three) = e9_three_state_clique(Scale::Quick);
        let mean_two: f64 =
            two.table.rows.iter().map(|r| r.rounds.mean).sum::<f64>() / two.table.rows.len() as f64;
        let mean_three: f64 = three.table.rows.iter().map(|r| r.rounds.mean).sum::<f64>()
            / three.table.rows.len() as f64;
        assert!(
            mean_three <= mean_two * 1.2,
            "3-state ({mean_three:.1}) should not be slower than 2-state ({mean_two:.1}) on cliques"
        );
    }
}
