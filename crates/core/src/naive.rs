//! Rebuild-per-candidate **reference** implementations.
//!
//! These price every candidate deviation the brute-force way — clone
//! the profile, apply the strategy, rebuild the undirected view, run a
//! fresh BFS — which is the behaviour the deviation engine
//! ([`DeviationScratch`](crate::DeviationScratch)) exists to eliminate.
//! They are compiled only for tests and for the `naive-ref` feature
//! (which the crate's integration tests turn on to trace dynamics
//! against them); production paths never see them.
//!
//! Tie-breaking (lexicographic candidate order, strict improvement)
//! matches the engine-backed solvers exactly, so equivalence tests can
//! compare trajectories state-for-state, not just costs.

use crate::best_response::ScoredStrategy;
use crate::cost::CostModel;
use crate::oracle::{enumeration_count, CombinationOdometer};
use crate::realization::Realization;
use bbncg_graph::NodeId;

/// [`exact_best_response`](crate::exact_best_response), but pricing
/// each candidate with a full profile clone + CSR rebuild.
pub fn exact_best_response_rebuild(r: &Realization, u: NodeId, model: CostModel) -> ScoredStrategy {
    let n = r.n();
    let b = r.graph().out_degree(u);
    let count = enumeration_count(n - 1, b);
    assert!(
        count <= crate::best_response::MAX_EXACT_CANDIDATES,
        "naive exact best response would enumerate {count} candidates"
    );
    let pool: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&t| t != u).collect();
    let mut odometer = CombinationOdometer::new(pool.len(), b);
    let mut best: Option<ScoredStrategy> = None;
    loop {
        let targets: Vec<NodeId> = odometer.indices().iter().map(|&i| pool[i]).collect();
        let cost = r.with_strategy(u, targets.clone()).cost(u, model);
        if best.as_ref().is_none_or(|s| cost < s.cost) {
            best = Some(ScoredStrategy { targets, cost });
        }
        if !odometer.advance() {
            break;
        }
    }
    best.expect("at least one strategy exists")
}

/// Round-robin exact-best-response dynamics on the rebuild-per-
/// candidate reference solver. Semantically identical to
/// [`run_dynamics`](crate::dynamics::run_dynamics) with
/// `DynamicsConfig::exact(model, max_rounds)` (same activation order,
/// same tie-breaking); only the pricing machinery differs.
/// Returns `(final_state, applied_steps, converged)`.
pub fn run_dynamics_rebuild(
    initial: Realization,
    model: CostModel,
    max_rounds: usize,
) -> (Realization, usize, bool) {
    let n = initial.n();
    let mut state = initial;
    let mut steps = 0usize;
    for _ in 0..max_rounds {
        let mut improved = 0usize;
        for u in (0..n).map(NodeId::new) {
            if state.graph().out_degree(u) == 0 {
                continue;
            }
            let current = state.cost(u, model);
            let best = exact_best_response_rebuild(&state, u, model);
            if best.cost < current {
                state.set_strategy(u, best.targets);
                steps += 1;
                improved += 1;
            }
        }
        if improved == 0 {
            return (state, steps, true);
        }
    }
    (state, steps, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{run_dynamics, DynamicsConfig};
    use crate::exact_best_response;
    use bbncg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn engine_and_rebuild_reference_agree_on_best_responses() {
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..12u64 {
            let _ = seed;
            let budgets: Vec<usize> = (0..7).map(|i| 1 + i % 2).collect();
            let r = Realization::new(generators::random_realization(&budgets, &mut rng));
            for model in CostModel::ALL {
                for u in (0..r.n()).map(bbncg_graph::NodeId::new) {
                    if r.graph().out_degree(u) == 0 {
                        continue;
                    }
                    let fast = exact_best_response(&r, u, model);
                    let slow = exact_best_response_rebuild(&r, u, model);
                    assert_eq!(fast, slow, "player {u} model {model:?}");
                }
            }
        }
    }

    #[test]
    fn engine_and_rebuild_reference_trace_identical_dynamics() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..4 {
            let budgets = vec![1usize; 8];
            let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
            for model in CostModel::ALL {
                let fast = run_dynamics(
                    initial.clone(),
                    DynamicsConfig::exact(model, 100),
                    &mut StdRng::seed_from_u64(0),
                );
                let (state, steps, converged) = run_dynamics_rebuild(initial.clone(), model, 100);
                assert_eq!(fast.state, state, "final profiles diverge ({model:?})");
                assert_eq!(fast.steps, steps);
                assert_eq!(fast.converged, converged);
            }
        }
    }
}
