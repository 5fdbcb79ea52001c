//! The dynamics loop's quiet memo: a player whose last activation found
//! no move, on exactly the profile it faces again, is skipped.
//!
//! Two properties, both read from event counts and engine state, never
//! from the clock:
//!
//! * the final, quiet round of a converging round-robin run activates
//!   exactly the players up to the previous round's last mover, under
//!   every executor, both models and the exact and swap rules;
//! * one engine shared by runs with different models and rules, on the
//!   same profile and on clones of it, decides exactly as a fresh
//!   engine does.

use bbncg_core::dynamics::{
    run_dynamics, run_dynamics_with_scratch, DynamicsConfig, DynamicsReport, ResponseRule,
};
use bbncg_core::{CostModel, DeviationScratch, Realization, RoundExecutor};
use bbncg_graph::{generators, NodeId};
use bbncg_obs::Counter;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// The obs counters are process-global: every test here holds this
/// lock, so a delta read under it belongs to the run that produced it.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    let guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    bbncg_obs::enable();
    guard
}

/// Activations of one-arc players that priced anything: the closed
/// form on one engine, or a split across engines.
fn activations() -> u64 {
    bbncg_obs::counter_value(Counter::ClosedFormActivations)
        + bbncg_obs::counter_value(Counter::RoundsEvals)
}

fn other(model: CostModel) -> CostModel {
    match model {
        CostModel::Sum => CostModel::Max,
        CostModel::Max => CostModel::Sum,
    }
}

/// Close the engine's open session, flushing its tallies: a session
/// for the other model is a new session.
fn flush(scratch: &mut DeviationScratch, state: &Realization, model: CostModel) {
    scratch.begin(state, NodeId::new(0), other(model));
}

fn unit_start(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    Realization::new(generators::random_realization(&vec![1; n], &mut rng))
}

/// The last player whose strategy differs between two round-robin
/// round ends: each player moves at most once a round, and a move
/// changes its strategy.
fn last_mover(before: &Realization, after: &Realization) -> Option<usize> {
    (0..before.n())
        .rev()
        .find(|&u| before.strategy(NodeId::new(u)) != after.strategy(NodeId::new(u)))
}

/// A seeded unit-budget start whose run converges after three or more
/// rounds, with the last move of the round before the final one made
/// by a player other than the last: the final round then has players
/// to skip.
fn start_with_a_quiet_tail(n: usize, cfg: DynamicsConfig) -> (Realization, DynamicsReport) {
    (0..64u64)
        .map(|seed| unit_start(n, 100 + seed))
        .find_map(|start| {
            let whole = run_dynamics(start.clone(), cfg, &mut StdRng::seed_from_u64(0));
            if !whole.converged || whole.rounds < 3 {
                return None;
            }
            let before_last = run_dynamics(
                start.clone(),
                DynamicsConfig {
                    max_rounds: whole.rounds - 2,
                    ..cfg
                },
                &mut StdRng::seed_from_u64(0),
            );
            let last = last_mover(&before_last.state, &whole.state)?;
            (last + 1 < n).then_some((start, whole))
        })
        .expect("a seed with a quiet tail")
}

/// Round by round on one engine, the way a benchmark's traced pass
/// runs: round 1 activates everyone; the final round activates players
/// `0..=k` alone, where `k` moved last in the round before, and the
/// engine's last session is `k`'s.
#[test]
fn the_final_round_activates_only_players_up_to_the_last_mover() {
    let _lock = counting();
    let n = 64;
    for executor in [
        RoundExecutor::Sequential,
        RoundExecutor::Auto,
        RoundExecutor::Sharded,
    ] {
        for model in CostModel::ALL {
            for rule in [ResponseRule::ExactBest, ResponseRule::BestSwap] {
                let ctx = format!("{executor} {model:?} {rule:?}");
                let cfg = DynamicsConfig {
                    rule,
                    ..DynamicsConfig::exact(model, 100)
                }
                .with_executor(executor);
                let (start, whole) = start_with_a_quiet_tail(n, cfg);
                let one_round = DynamicsConfig {
                    max_rounds: 1,
                    ..cfg
                };
                let mut scratch = DeviationScratch::new(&start);
                let mut state = start;
                let mut mover = None;
                for round in 1..=whole.rounds {
                    flush(&mut scratch, &state, model);
                    let before = activations();
                    let report = run_dynamics_with_scratch(
                        state.clone(),
                        one_round,
                        &mut StdRng::seed_from_u64(0),
                        &mut scratch,
                    );
                    let last_session = scratch.player();
                    flush(&mut scratch, &report.state, model);
                    let activated = activations() - before;
                    if round == 1 {
                        assert_eq!(activated, n as u64, "{ctx}: round 1");
                    }
                    if round == whole.rounds {
                        let k = mover.expect("an earlier round moved");
                        assert!(report.converged && report.steps == 0, "{ctx}");
                        assert_eq!(activated, k as u64 + 1, "{ctx}: final round");
                        assert_eq!(last_session, Some(NodeId::new(k)), "{ctx}");
                    } else {
                        assert!(report.steps > 0, "{ctx}: round {round}");
                        mover = last_mover(&state, &report.state);
                    }
                    state = report.state;
                }
                assert_eq!(state, whole.state, "{ctx}: the trajectory");
            }
        }
    }
}

/// Every model and rule.
const KEYS: [(CostModel, ResponseRule); 8] = [
    (CostModel::Sum, ResponseRule::ExactBest),
    (CostModel::Sum, ResponseRule::FirstImproving),
    (CostModel::Sum, ResponseRule::Greedy),
    (CostModel::Sum, ResponseRule::BestSwap),
    (CostModel::Max, ResponseRule::ExactBest),
    (CostModel::Max, ResponseRule::FirstImproving),
    (CostModel::Max, ResponseRule::Greedy),
    (CostModel::Max, ResponseRule::BestSwap),
];

/// Budgets 0, 1 and 2 mixed, so unit and two-arc players, braces and
/// disconnected starts all occur.
fn mixed_start(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
    Realization::new(generators::random_realization(&budgets, &mut rng))
}

fn same_run(shared: &DynamicsReport, fresh: &DynamicsReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(&shared.state, &fresh.state);
    prop_assert_eq!(shared.steps, fresh.steps);
    prop_assert_eq!(shared.rounds, fresh.rounds);
    prop_assert_eq!(shared.converged, fresh.converged);
    prop_assert_eq!(shared.cycled, fresh.cycled);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One engine runs every model and rule in turn: from the profile
    /// the previous run ended on (where the engine just found every
    /// player quiet under the previous key), from a clone of the start
    /// (a version the engine saw under every earlier key), and now and
    /// then from an instance of another size (a rebuild). Each run must
    /// decide exactly as it does on a fresh engine.
    #[test]
    fn a_shared_engine_decides_as_a_fresh_one_across_keys(
        n in 3usize..12,
        seed in 0u64..1000,
        stride in 1usize..8,
    ) {
        let _lock = counting();
        let start = mixed_start(n, seed);
        let resized = mixed_start(n + 1, seed);
        let mut shared = DeviationScratch::new(&start);
        let mut state = start.clone();
        for step in 0..2 * KEYS.len() {
            let (model, rule) = KEYS[step * stride % KEYS.len()];
            let cfg = DynamicsConfig {
                rule,
                ..DynamicsConfig::exact(model, 60)
            };
            let mut from = vec![state.clone(), start.clone()];
            if step % 5 == 4 {
                from.push(resized.clone());
            }
            for (i, profile) in from.into_iter().enumerate() {
                let fresh = run_dynamics(profile.clone(), cfg, &mut StdRng::seed_from_u64(1));
                let reused = run_dynamics_with_scratch(
                    profile,
                    cfg,
                    &mut StdRng::seed_from_u64(1),
                    &mut shared,
                );
                same_run(&reused, &fresh)?;
                if i == 0 {
                    state = reused.state;
                }
            }
        }
    }
}
