//! End-to-end runs of the weak-communication models through
//! `run_experiment`: the beeping 2-state adaptation and both stone-age
//! adaptations are ordinary registry algorithms now, driven by the same
//! scheduler/observer harness as everything else.

use mis_sim::runner::run_experiment;
use mis_sim::spec::{ExperimentSpec, GraphSpec, SchedulerSpec};

const COMM_KEYS: [&str; 3] = [
    "beeping-two-state",
    "stone-age-three-state",
    "stone-age-three-color",
];

fn spec(key: &str, graph: GraphSpec, seed: u64) -> ExperimentSpec {
    ExperimentSpec::builder()
        .name(format!("comm-{key}"))
        .graph(graph)
        .algorithm(key)
        .trials(4)
        .max_rounds(500_000)
        .base_seed(seed)
        .build()
}

#[test]
fn comm_models_stabilize_to_valid_mis_on_gnp() {
    for key in COMM_KEYS {
        let result = run_experiment(&spec(key, GraphSpec::Gnp { n: 60, p: 0.1 }, 404));
        assert_eq!(result.trials.len(), 4, "{key}");
        assert!(result.all_stabilized(), "{key} did not stabilize on G(n,p)");
        assert!(
            result.all_valid(),
            "{key} produced an invalid MIS on G(n,p)"
        );
        assert!(
            result.trials.iter().all(|t| t.mis_size >= 1),
            "{key}: empty MIS on a non-empty graph"
        );
    }
}

#[test]
fn comm_models_stabilize_to_valid_mis_on_complete() {
    for key in COMM_KEYS {
        let result = run_experiment(&spec(key, GraphSpec::Complete { n: 32 }, 405));
        assert!(result.all_stabilized(), "{key} did not stabilize on K_n");
        assert!(result.all_valid(), "{key} produced an invalid MIS on K_n");
        // The MIS of a clique is a single vertex.
        assert!(
            result.trials.iter().all(|t| t.mis_size == 1),
            "{key}: clique MIS must have size 1"
        );
    }
}

#[test]
fn comm_models_report_their_state_budgets() {
    let expectations = [
        ("beeping-two-state", 2),
        ("stone-age-three-state", 3),
        ("stone-age-three-color", 18),
    ];
    for (key, states) in expectations {
        let result = run_experiment(&spec(key, GraphSpec::Gnp { n: 30, p: 0.2 }, 406));
        assert!(result.trials.iter().all(|t| t.states_per_vertex == states));
    }
}

#[test]
fn beeping_model_runs_under_partial_activation_schedulers() {
    for scheduler in [
        SchedulerSpec::CentralDaemon,
        SchedulerSpec::RandomSubset { p: 0.4 },
    ] {
        let mut s = spec("beeping-two-state", GraphSpec::Gnp { n: 24, p: 0.2 }, 407);
        s.scheduler = scheduler;
        s.max_rounds = 1_000_000;
        s.trials = 2;
        let result = run_experiment(&s);
        assert!(result.all_stabilized(), "{scheduler:?}");
        assert!(result.all_valid(), "{scheduler:?}");
    }
}

#[test]
fn comm_models_match_their_direct_processes_through_the_harness() {
    // Trace equivalence at harness level: the beeping adapter and the
    // direct 2-state process draw identical counter coins, so whole
    // TrialResults coincide (modulo the spec stored inside the result).
    let direct = run_experiment(
        &ExperimentSpec::builder()
            .name("direct")
            .graph(GraphSpec::Gnp { n: 50, p: 0.1 })
            .algorithm("two-state")
            .trials(3)
            .base_seed(77)
            .build(),
    );
    let beeping = run_experiment(
        &ExperimentSpec::builder()
            .name("beeping")
            .graph(GraphSpec::Gnp { n: 50, p: 0.1 })
            .algorithm("beeping-two-state")
            .trials(3)
            .base_seed(77)
            .build(),
    );
    assert_eq!(direct.trials, beeping.trials);
}
