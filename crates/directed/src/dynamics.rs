//! Best-response dynamics for the directed game — including the hunt
//! for best-response cycles.
//!
//! Laoutaris et al. prove their directed game need not converge: they
//! exhibit an explicit best-response loop. [`run_directed_dynamics`]
//! plays round-robin exact best responses with full profile-history
//! hashing, so any revisited profile is caught and reported — and
//! [`hunt_for_cycles`] sweeps seeds/instances to measure how often
//! trajectories cycle in practice, the quantity the undirected paper's
//! §8 contrasts.

use crate::game::{directed_best_response, DirectedRealization};
use bbncg_core::dynamics::ProfileHistory;
use bbncg_graph::NodeId;

/// Outcome of a directed dynamics run.
#[derive(Clone, Debug)]
pub struct DirectedDynamicsReport {
    /// Final profile.
    pub state: DirectedRealization,
    /// A full round passed with no improving move.
    pub converged: bool,
    /// A previously seen profile was revisited (a proven best-response
    /// cycle under round-robin order).
    pub cycled: bool,
    /// Applied deviations.
    pub steps: usize,
    /// Completed rounds.
    pub rounds: usize,
}

/// Round-robin exact best-response dynamics with cycle detection: a
/// cycle is reported only when a round ends on a profile equal to an
/// earlier round's end, never on a mere hash match.
pub fn run_directed_dynamics(
    initial: DirectedRealization,
    max_rounds: usize,
) -> DirectedDynamicsReport {
    run_with_history(initial, max_rounds, ProfileHistory::default())
}

/// [`run_directed_dynamics`], recording round-end profiles in `seen`.
fn run_with_history(
    initial: DirectedRealization,
    max_rounds: usize,
    mut seen: ProfileHistory,
) -> DirectedDynamicsReport {
    let n = initial.n();
    let mut state = initial;
    let mut steps = 0;
    let mut rounds = 0;
    seen.insert(state.graph());
    while rounds < max_rounds {
        let mut improved = false;
        for i in 0..n {
            let u = NodeId::new(i);
            if state.graph().out_degree(u) == 0 {
                continue;
            }
            let current = state.cost(u);
            let best = directed_best_response(&state, u);
            if best.cost < current {
                state.set_strategy(u, best.targets);
                steps += 1;
                improved = true;
            }
        }
        rounds += 1;
        if !improved {
            return DirectedDynamicsReport {
                state,
                converged: true,
                cycled: false,
                steps,
                rounds,
            };
        }
        if !seen.insert(state.graph()) {
            return DirectedDynamicsReport {
                state,
                converged: false,
                cycled: true,
                steps,
                rounds,
            };
        }
    }
    DirectedDynamicsReport {
        state,
        converged: false,
        cycled: false,
        steps,
        rounds,
    }
}

/// Sweep seeds over random initial profiles of the uniform-budget
/// directed game and count convergence vs. cycling — the §8 comparison
/// numbers. Returns `(converged, cycled, timed_out)`.
pub fn hunt_for_cycles(
    n: usize,
    budget: usize,
    seeds: u64,
    max_rounds: usize,
) -> (usize, usize, usize) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let outcomes = bbncg_par::par_map_index(seeds as usize, |s| {
        let mut rng = StdRng::seed_from_u64(s as u64);
        let budgets = vec![budget; n];
        let g = bbncg_graph::generators::random_realization(&budgets, &mut rng);
        let rep = run_directed_dynamics(DirectedRealization::new(g), max_rounds);
        (rep.converged, rep.cycled)
    });
    let converged = outcomes.iter().filter(|o| o.0).count();
    let cycled = outcomes.iter().filter(|o| o.1).count();
    (converged, cycled, outcomes.len() - converged - cycled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::directed_is_nash;
    use bbncg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converged_runs_are_nash() {
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..4u64 {
            let _ = seed;
            let budgets = vec![1usize; 7];
            let g = generators::random_realization(&budgets, &mut rng);
            let rep = run_directed_dynamics(DirectedRealization::new(g), 300);
            if rep.converged {
                assert!(directed_is_nash(&rep.state));
            } else {
                assert!(rep.cycled || rep.rounds == 300);
            }
        }
    }

    #[test]
    fn directed_cycle_is_a_fixed_point() {
        let rep = run_directed_dynamics(DirectedRealization::new(generators::cycle(6)), 50);
        assert!(rep.converged);
        assert_eq!(rep.steps, 0);
    }

    /// Every round-end profile hashing alike changes no verdict: runs
    /// that converge and runs that cycle (about one start in seven at
    /// n = 6, budget 2) report the same.
    #[test]
    fn colliding_hashes_change_no_verdict() {
        let mut cycled = 0;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_realization(&[2; 6], &mut rng);
            let start = DirectedRealization::new(g);
            let plain = run_directed_dynamics(start.clone(), 40);
            let colliding = run_with_history(start, 40, ProfileHistory::with_hash(|_| 0));
            assert_eq!(colliding.state.graph(), plain.state.graph(), "seed {seed}");
            assert_eq!(
                (colliding.converged, colliding.cycled),
                (plain.converged, plain.cycled),
                "seed {seed}"
            );
            assert_eq!(
                (colliding.steps, colliding.rounds),
                (plain.steps, plain.rounds),
                "seed {seed}"
            );
            cycled += usize::from(plain.cycled);
        }
        assert!(cycled > 0, "want real cycles among the starts");
    }

    #[test]
    fn hunt_reports_consistent_totals() {
        let (c, y, t) = hunt_for_cycles(6, 1, 6, 100);
        assert_eq!(c + y + t, 6);
    }
}
