//! [`AlgorithmFactory`] entries for the weak-communication models, so the
//! beeping and stone-age networks (which implement [`Algorithm`] directly)
//! are driven by the same registry/scheduler/observer harness as the direct
//! processes.

use mis_core::algorithm::{
    Algorithm, AlgorithmConfig, AlgorithmFactory, CommunicationModel, Registry,
};
use mis_graph::Graph;
use rand::RngCore;

use crate::beeping::BeepingTwoStateMis;
use crate::stone_age::{StoneAgeThreeColorMis, StoneAgeThreeStateMis};

/// Registry key of the beeping 2-state adaptation.
pub const BEEPING_TWO_STATE_KEY: &str = "beeping-two-state";
/// Registry key of the stone-age 3-state adaptation.
pub const STONE_AGE_THREE_STATE_KEY: &str = "stone-age-three-state";
/// Registry key of the stone-age 3-color adaptation.
pub const STONE_AGE_THREE_COLOR_KEY: &str = "stone-age-three-color";

struct BeepingTwoStateFactory;

impl AlgorithmFactory for BeepingTwoStateFactory {
    fn key(&self) -> &'static str {
        BEEPING_TWO_STATE_KEY
    }

    fn description(&self) -> &'static str {
        "2-state process as a beeping algorithm (full-duplex, sender collision detection)"
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::Beeping
    }

    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        let mut net = BeepingTwoStateMis::with_init(graph, config.init, rng);
        net.set_counter_seed(config.counter_seed);
        Box::new(net)
    }
}

struct StoneAgeThreeStateFactory;

impl AlgorithmFactory for StoneAgeThreeStateFactory {
    fn key(&self) -> &'static str {
        STONE_AGE_THREE_STATE_KEY
    }

    fn description(&self) -> &'static str {
        "3-state process as a stone-age algorithm (2-letter alphabet, no collision detection)"
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::StoneAge
    }

    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        let mut net = StoneAgeThreeStateMis::with_init(graph, config.init, rng);
        net.set_counter_seed(config.counter_seed);
        Box::new(net)
    }
}

struct StoneAgeThreeColorFactory;

impl AlgorithmFactory for StoneAgeThreeColorFactory {
    fn key(&self) -> &'static str {
        STONE_AGE_THREE_COLOR_KEY
    }

    fn description(&self) -> &'static str {
        "3-color process + randomized switch as a stone-age algorithm (18-letter alphabet)"
    }

    fn communication_model(&self) -> CommunicationModel {
        CommunicationModel::StoneAge
    }

    fn init<'g>(
        &self,
        graph: &'g Graph,
        config: &AlgorithmConfig,
        rng: &mut dyn RngCore,
    ) -> Box<dyn Algorithm + 'g> {
        let mut net = StoneAgeThreeColorMis::with_init(graph, config.init, rng);
        net.set_counter_seed(config.counter_seed);
        Box::new(net)
    }
}

/// Registers the weak-communication adaptations (`beeping-two-state`,
/// `stone-age-three-state`, `stone-age-three-color`) in `registry`.
pub fn register_comm_algorithms(registry: &mut Registry) {
    registry.register(Box::new(BeepingTwoStateFactory));
    registry.register(Box::new(StoneAgeThreeStateFactory));
    registry.register(Box::new(StoneAgeThreeColorFactory));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_core::init::InitStrategy;
    use mis_core::{ExecutionMode, StepCtx};
    use mis_graph::{generators, mis_check, VertexSet};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn config() -> AlgorithmConfig {
        AlgorithmConfig {
            init: InitStrategy::Random,
            execution: ExecutionMode::Sequential,
            strategy: mis_core::RoundStrategy::Auto,
            counter_seed: 3,
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        register_comm_algorithms(&mut r);
        r
    }

    #[test]
    fn all_comm_factories_build_and_stabilize() {
        let r = registry();
        assert_eq!(
            r.keys(),
            vec![
                "beeping-two-state",
                "stone-age-three-color",
                "stone-age-three-state"
            ]
        );
        let mut stream = rng(2);
        let g = generators::gnp(40, 0.15, &mut stream);
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut alg = factory.init(&g, &config(), &mut stream);
            assert!(!alg.capabilities().parallel);
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(StepCtx::synchronous(&mut stream));
                guard += 1;
                assert!(guard < 200_000, "{key} did not stabilize");
            }
            assert!(mis_check::is_mis(&g, &alg.black_set()), "{key}");
        }
    }

    #[test]
    fn full_scheduled_round_matches_synchronous_round() {
        let mut setup = rng(9);
        let g = generators::gnp(30, 0.2, &mut setup);
        let init = InitStrategy::Random.two_state(g.n(), &mut setup);
        let mut sync_net = BeepingTwoStateMis::new(&g, init.clone());
        let mut sched_net = BeepingTwoStateMis::new(&g, init);
        let everyone = VertexSet::from_indices(g.n(), 0..g.n());
        let mut ra = rng(11);
        let mut rb = rng(11);
        for round in 0..80 {
            if sync_net.is_stabilized() {
                break;
            }
            sync_net.step(&mut ra);
            sched_net.step_scheduled(&everyone, &mut rb);
            assert_eq!(sync_net.states(), sched_net.states(), "round {round}");
        }
        assert_eq!(sync_net.random_bits_used(), sched_net.random_bits_used());
    }

    #[test]
    fn stone_age_full_scheduled_round_matches_synchronous_round() {
        let mut setup = rng(13);
        let g = generators::gnp(30, 0.2, &mut setup);
        let init = InitStrategy::Random.three_state(g.n(), &mut setup);
        let mut sync_net = StoneAgeThreeStateMis::new(&g, init.clone());
        let mut sched_net = StoneAgeThreeStateMis::new(&g, init);
        let everyone = VertexSet::from_indices(g.n(), 0..g.n());
        let mut ra = rng(17);
        let mut rb = rng(17);
        for round in 0..80 {
            if sync_net.is_stabilized() {
                break;
            }
            sync_net.step(&mut ra);
            sched_net.step_scheduled(&everyone, &mut rb);
            assert_eq!(sync_net.states(), sched_net.states(), "round {round}");
        }
        assert_eq!(sync_net.random_bits_used(), sched_net.random_bits_used());
    }

    #[test]
    fn comm_models_recover_from_faults() {
        let mut stream = rng(21);
        let g = generators::gnp(40, 0.12, &mut stream);
        let r = registry();
        for key in r.keys() {
            let factory = r.get(key).unwrap();
            let mut alg = factory.init(&g, &config(), &mut stream);
            assert!(alg.capabilities().fault_injection);
            let mut guard = 0;
            while !alg.is_stabilized() {
                alg.step(StepCtx::synchronous(&mut stream));
                guard += 1;
                assert!(guard < 200_000);
            }
            let changed = alg.inject_faults(0.5, &mut stream);
            assert!(changed > 0, "{key}");
            while !alg.is_stabilized() {
                alg.step(StepCtx::synchronous(&mut stream));
                guard += 1;
                assert!(guard < 400_000, "{key} did not recover");
            }
            assert!(mis_check::is_mis(&g, &alg.black_set()), "{key}");
        }
    }
}
