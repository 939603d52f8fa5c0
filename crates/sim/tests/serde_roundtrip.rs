//! Serde round-trip coverage for the spec and result types, so experiment
//! specifications can be stored next to `BENCH_scale.json` (and re-read by
//! later runs) without silent drift — including JSON that omits the
//! optional `scheduler`, `fault`, `churn`, `byzantine` and `strategy`
//! fields.

use mis_core::init::InitStrategy;
use mis_core::StateCounts;
use mis_sim::metrics::{RoundTrace, TrialResult};
use mis_sim::runner::run_experiment;
use mis_sim::spec::{
    ByzantineSpec, ByzantineStrategy, ChurnScenario, ChurnSpec, ExecutionMode, ExperimentSpec,
    FaultSpec, GraphSpec, RoundStrategy, SchedulerSpec, VictimSelection,
};

fn all_graph_specs() -> Vec<GraphSpec> {
    vec![
        GraphSpec::Gnp { n: 30, p: 0.125 },
        GraphSpec::Complete { n: 12 },
        GraphSpec::DisjointCliques { count: 3, size: 4 },
        GraphSpec::RandomTree { n: 25 },
        GraphSpec::Path { n: 9 },
        GraphSpec::Cycle { n: 8 },
        GraphSpec::Star { n: 7 },
        GraphSpec::Regular { n: 10, d: 4 },
        GraphSpec::Grid { rows: 3, cols: 5 },
        GraphSpec::ForestUnion { n: 20, forests: 2 },
    ]
}

#[test]
fn every_graph_spec_variant_round_trips() {
    for graph in all_graph_specs() {
        let json = serde_json::to_string(&graph).unwrap();
        let back: GraphSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(graph, back, "{}", graph.label());
    }
}

#[test]
fn experiment_spec_round_trips_across_all_knobs() {
    for graph in all_graph_specs() {
        for scheduler in [
            SchedulerSpec::Synchronous,
            SchedulerSpec::CentralDaemon,
            SchedulerSpec::RandomSubset { p: 0.25 },
        ] {
            for (algorithm, fault, churn, byzantine) in [
                ("three-state".to_string(), None, None, None),
                (
                    "beeping-two-state".to_string(),
                    Some(FaultSpec {
                        at_round: 64,
                        fraction: 0.5,
                        victims: vec![1, 5],
                    }),
                    Some(ChurnSpec {
                        scenario: ChurnScenario::JoinLeave { join: 3, leave: 1 },
                        at_round: 32,
                        bursts: 2,
                    }),
                    Some(
                        ByzantineSpec::new(
                            ByzantineStrategy::Spoofer,
                            VictimSelection::Random { count: 2 },
                        )
                        .seed(17),
                    ),
                ),
            ] {
                let spec = ExperimentSpec {
                    name: "roundtrip".into(),
                    graph,
                    algorithm: algorithm.clone(),
                    init: InitStrategy::AllBlack,
                    execution: ExecutionMode::Parallel { threads: 4 },
                    strategy: RoundStrategy::Sparse,
                    scheduler,
                    fault: fault.clone(),
                    churn,
                    byzantine: byzantine.clone(),
                    trials: 7,
                    max_rounds: 123,
                    base_seed: 99,
                    record_trace: true,
                };
                let json = serde_json::to_string(&spec).unwrap();
                let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
                assert_eq!(spec, back);
            }
        }
    }
}

#[test]
fn registry_first_spec_json_parses_without_the_legacy_process_field() {
    // A spec names its algorithm by registry key; the optional fields fall
    // back to their defaults when absent.
    let json = r#"{
        "name": "registry-first",
        "graph": {"Complete": {"n": 16}},
        "algorithm": "stone-age-three-state",
        "init": "Random",
        "execution": "Sequential",
        "trials": 2,
        "max_rounds": 10000,
        "base_seed": 3,
        "record_trace": false
    }"#;
    let spec: ExperimentSpec = serde_json::from_str(json).unwrap();
    assert_eq!(spec.algorithm_key(), "stone-age-three-state");
    assert_eq!(spec.scheduler, SchedulerSpec::Synchronous);
    assert_eq!(spec.fault, None);
    assert_eq!(spec.byzantine, None);
    assert_eq!(spec.strategy, RoundStrategy::Auto);
    let result = run_experiment(&spec);
    assert!(result.all_stabilized() && result.all_valid());

    // Without the field the spec names no algorithm: that must error.
    let missing_both = r#"{
        "name": "broken",
        "graph": {"Complete": {"n": 16}},
        "init": "Random",
        "execution": "Sequential",
        "trials": 2,
        "max_rounds": 10000,
        "base_seed": 3,
        "record_trace": false
    }"#;
    assert!(serde_json::from_str::<ExperimentSpec>(missing_both).is_err());
}

#[test]
fn trial_result_round_trips_with_and_without_trace() {
    for trace in [
        None,
        Some(RoundTrace {
            counts: vec![
                StateCounts {
                    black: 3,
                    non_black: 7,
                    active: 2,
                    stable_black: 1,
                    unstable: 6,
                },
                StateCounts::default(),
            ],
        }),
    ] {
        let result = TrialResult {
            trial: 4,
            seed: 11,
            n: 10,
            m: 20,
            rounds: 15,
            stabilized: true,
            valid_mis: true,
            mis_size: 4,
            random_bits: 99,
            states_per_vertex: 18,
            trace,
        };
        let json = serde_json::to_string(&result).unwrap();
        let back: TrialResult = serde_json::from_str(&json).unwrap();
        assert_eq!(result, back);
    }
}

#[test]
fn experiment_results_round_trip_end_to_end() {
    let spec = ExperimentSpec::builder()
        .name("serde-e2e")
        .graph(GraphSpec::Complete { n: 16 })
        .algorithm("stone-age-three-state")
        .trials(3)
        .base_seed(21)
        .record_trace(true)
        .build();
    let result = run_experiment(&spec);
    let json = serde_json::to_string(&result).unwrap();
    let back: mis_sim::ExperimentResult = serde_json::from_str(&json).unwrap();
    assert_eq!(result, back);
    assert_eq!(back.spec.algorithm_key(), "stone-age-three-state");
}
