//! Micro-benchmark: cost of one synchronous round of each process, on the
//! graph families the paper analyzes. This is the ablation bench for the
//! per-round update implementation called out in DESIGN.md.
//!
//! The `phase_round_cost` group contrasts the incremental frontier engine
//! against the naive full-scan reference path in the early phase (fresh
//! random configuration, ~half the vertices active) and the silent late
//! phase (stabilized configuration, empty frontier) at
//! `n ∈ {10⁴, 10⁵, 10⁶}` on sparse `G(n, 8/n)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis_core::init::InitStrategy;
use mis_core::{
    Algorithm, CounterRng, ExecutionMode, ThreeColorProcess, ThreeStateProcess, TwoStateProcess,
};
use mis_graph::generators;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn bench_round_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_update");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(1500));

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let graphs = vec![
        (
            "gnp_sparse_n2000",
            generators::gnp(2000, 4.0 / 2000.0, &mut rng),
        ),
        ("gnp_dense_n1000", generators::gnp(1000, 0.2, &mut rng)),
        ("tree_n4000", generators::random_tree(4000, &mut rng)),
        ("clique_n500", generators::complete(500)),
    ];

    for (label, g) in &graphs {
        group.bench_with_input(BenchmarkId::new("two_state", label), g, |b, g| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let mut proc = TwoStateProcess::with_init(g, InitStrategy::Random, &mut rng);
            b.iter(|| proc.step(&mut rng));
        });
        group.bench_with_input(BenchmarkId::new("three_state", label), g, |b, g| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut proc = ThreeStateProcess::with_init(g, InitStrategy::Random, &mut rng);
            b.iter(|| proc.step(&mut rng));
        });
        group.bench_with_input(BenchmarkId::new("three_color", label), g, |b, g| {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let mut proc =
                ThreeColorProcess::with_randomized_switch(g, InitStrategy::Random, &mut rng);
            b.iter(|| proc.step(&mut rng));
        });
    }
    group.finish();
}

/// Early-phase vs late-phase round cost, incremental engine vs full-scan
/// reference, on sparse `G(n, 8/n)`.
///
/// The early-phase benchmarks clone the process inside the timed closure so
/// every iteration steps the *same* high-activity configuration (the clone
/// cost is identical for both paths, so the comparison stays fair). The
/// silent-phase benchmarks need no clone: a stabilized 2-state process stays
/// stabilized, so stepping it is stationary — this is the steady state whose
/// cost the frontier engine reduces from `O(n + m)` to `O(1)`.
fn bench_phase_contrast(c: &mut Criterion) {
    let mut group = c.benchmark_group("phase_round_cost");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1000));

    for &n in &[10_000usize, 100_000, 1_000_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng);

        let early = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        group.bench_with_input(BenchmarkId::new("early_fast", n), &early, |b, proc| {
            let mut r = ChaCha8Rng::seed_from_u64(11);
            b.iter(|| {
                let mut p = proc.clone();
                p.step(&mut r);
                p.counts().active
            });
        });
        group.bench_with_input(BenchmarkId::new("early_reference", n), &early, |b, proc| {
            let mut r = ChaCha8Rng::seed_from_u64(11);
            b.iter(|| {
                let mut p = proc.clone();
                p.step_reference(&mut r);
                p.counts().active
            });
        });

        let mut silent = early.clone();
        silent
            .run_to_stabilization(&mut rng, 1_000_000)
            .expect("2-state stabilizes on sparse G(n,p)");
        group.bench_with_input(BenchmarkId::new("silent_fast", n), &silent, |b, proc| {
            let mut p = proc.clone();
            let mut r = ChaCha8Rng::seed_from_u64(13);
            b.iter(|| {
                p.step(&mut r);
                p.round()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("silent_reference", n),
            &silent,
            |b, proc| {
                let mut p = proc.clone();
                let mut r = ChaCha8Rng::seed_from_u64(13);
                b.iter(|| {
                    p.step_reference(&mut r);
                    p.round()
                });
            },
        );
    }
    group.finish();
}

/// Early-phase round cost of the parallel engine at `n = 10⁶` across
/// 1/2/4/8 worker threads (plus the one-thread `Sequential` mode as the
/// baseline entry). Speedups are bounded by the host's cores; the
/// benchmark shape (clone + one round per iteration, identical for every
/// entry) keeps the comparison fair either way.
fn bench_parallel_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_round");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));

    let n = 1_000_000usize;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
    let early = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);

    group.bench_with_input(
        BenchmarkId::new("early_sequential", n),
        &early,
        |b, proc| {
            let mut r = ChaCha8Rng::seed_from_u64(11);
            b.iter(|| {
                let mut p = proc.clone();
                p.step(&mut r);
                p.counts().active
            });
        },
    );
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(&format!("early_parallel_t{threads}"), n),
            &early,
            |b, proc| {
                let mut r = ChaCha8Rng::seed_from_u64(11);
                b.iter(|| {
                    let mut p = proc.clone();
                    p.set_execution(ExecutionMode::Parallel { threads }, 13);
                    p.step(&mut r);
                    p.counts().active
                });
            },
        );
    }
    group.finish();
}

/// Micro-benchmark of draw cost: 1M Bernoulli draws from a sequential
/// ChaCha8 stream vs 1M counter-based Philox draws (the per-vertex pure
/// function every round evaluates).
fn bench_rng_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng_models");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));

    const DRAWS: u64 = 1_000_000;
    group.bench_function("chacha8_stream_1m_coins", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| {
            let mut ones = 0u64;
            for _ in 0..DRAWS {
                ones += rng.next_u64() & 1;
            }
            ones
        });
    });
    group.bench_function("counter_philox_1m_coins", |b| {
        let rng = CounterRng::new(3);
        b.iter(|| {
            let mut ones = 0u64;
            for v in 0..DRAWS {
                ones += rng.word(v, 17, 0) & 1;
            }
            ones
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_round_update,
    bench_phase_contrast,
    bench_parallel_round,
    bench_rng_models
);
criterion_main!(benches);
