//! The builtin algorithm registry: every algorithm the workspace ships,
//! under one stable string key each.
//!
//! | key | algorithm | crate |
//! |-----|-----------|-------|
//! | `two-state` | 2-state MIS process (Definition 4) | `mis-core` |
//! | `three-state` | 3-state MIS process (Definition 5) | `mis-core` |
//! | `three-color` | 3-color process + randomized switch (Definition 28) | `mis-core` |
//! | `beeping-two-state` | 2-state process over the beeping channel | `mis-comm` |
//! | `stone-age-three-state` | 3-state process over the stone-age channel | `mis-comm` |
//! | `stone-age-three-color` | 3-color process over the stone-age channel | `mis-comm` |
//! | `luby` | Luby's algorithm (baseline) | `mis-baselines` |
//! | `random-priority` | random-priority self-stabilizing baseline | `mis-baselines` |
//! | `greedy` | sequential greedy (baseline) | `mis-baselines` |
//! | `sequential-selfstab` | deterministic sequential self-stab (baseline) | `mis-baselines` |
//!
//! [`ExperimentSpec`](crate::spec::ExperimentSpec) resolves its algorithm
//! through [`builtin_registry`]; external algorithms can be run by building
//! a custom [`Registry`] (register your own
//! [`AlgorithmFactory`](mis_core::AlgorithmFactory) next to
//! [`register_builtin_algorithms`]) and calling
//! [`run_experiment_with`](crate::runner::run_experiment_with).

use std::sync::OnceLock;

use mis_core::Registry;

/// Registers every builtin algorithm (core processes, communication-model
/// adaptations, baselines) into `registry`.
pub fn register_builtin_algorithms(registry: &mut Registry) {
    mis_core::register_core_algorithms(registry);
    mis_comm::register_comm_algorithms(registry);
    mis_baselines::register_baseline_algorithms(registry);
}

/// The shared, lazily initialized registry of all builtin algorithms.
pub fn builtin_registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = Registry::new();
        register_builtin_algorithms(&mut registry);
        registry
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::init::InitStrategy;
    use mis_core::{fault_victims, AlgorithmConfig, ExecutionMode, RoundStrategy};
    use mis_graph::generators;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn builtin_registry_has_all_ten_algorithms() {
        let r = builtin_registry();
        assert_eq!(r.len(), 10);
        for key in [
            "two-state",
            "three-state",
            "three-color",
            "beeping-two-state",
            "stone-age-three-state",
            "stone-age-three-color",
            "luby",
            "random-priority",
            "greedy",
            "sequential-selfstab",
        ] {
            assert!(r.contains(key), "missing builtin algorithm '{key}'");
            assert!(!r.get(key).unwrap().description().is_empty());
        }
    }

    #[test]
    fn targeted_faults_match_random_faults_on_same_stream() {
        // inject_faults(fraction) must equal fault_victims + targeted on an
        // identical RNG stream, for every algorithm with fault support: the
        // two paths share one corruption recipe and draw nothing else.
        let rng = ChaCha8Rng::seed_from_u64;
        let mut setup = rng(53);
        let g = generators::gnp(60, 0.1, &mut setup);
        let config = AlgorithmConfig {
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            strategy: RoundStrategy::Auto,
            counter_seed: 7,
        };
        let mut checked = Vec::new();
        for factory in builtin_registry().factories() {
            let key = factory.key();
            let mut a = factory.init(&g, &config, &mut rng(59));
            if !a.capabilities().fault_injection {
                continue;
            }
            let mut b = factory.init(&g, &config, &mut rng(59));
            let mut ra = rng(61);
            let mut rb = rng(61);
            let changed_a = a.inject_faults(0.3, &mut ra);
            let victims = fault_victims(b.n(), 0.3, &mut rb);
            let changed_b = b.inject_faults_targeted(&victims, &mut rb);
            assert!(changed_b > 0, "{key}: a targeted fault changed nothing");
            assert_eq!(changed_a, changed_b, "{key}");
            assert_eq!(a.black_set(), b.black_set(), "{key}: states diverged");
            assert_eq!(ra.next_u64(), rb.next_u64(), "{key}: streams diverged");
            checked.push(key);
        }
        assert_eq!(
            checked,
            [
                "beeping-two-state",
                "random-priority",
                "stone-age-three-color",
                "stone-age-three-state",
                "three-color",
                "three-state",
                "two-state",
            ]
        );
    }
}
