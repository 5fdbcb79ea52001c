//! Property-based tests on the core invariants, spanning crates.

use bbncg::analysis::unit_structure;
use bbncg::game::dynamics::{run_dynamics_with_kernel, DynamicsConfig};
use bbncg::game::{
    audit_equilibrium, exact_best_response, find_violation, is_best_response, BudgetVector,
    CostKernel, CostModel, DeviationScratch, Realization, RoundExecutor,
};
use bbncg::graph::{generators, BfsScratch, Csr, DistanceMatrix, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary small budget vector (n in 2..=9, entries 0..n).
fn budget_vector() -> impl Strategy<Value = BudgetVector> {
    (2usize..=9).prop_flat_map(|n| {
        proptest::collection::vec(0usize..n.min(4), n).prop_map(BudgetVector::new)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The deviation engine prices every strategy exactly like a full
    /// profile rebuild, under both cost models and both kernels, with
    /// one engine per kernel reused across every player's session.
    #[test]
    fn oracle_agrees_with_recompute(b in budget_vector(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = Realization::new(generators::random_realization(b.as_slice(), &mut rng));
        let n = r.n();
        let mut engines = [CostKernel::Bitset, CostKernel::Sparse]
            .map(|kernel| DeviationScratch::with_kernel(&r, kernel));
        for u in 0..n {
            let u = NodeId::new(u);
            let bu = r.graph().out_degree(u);
            if bu == 0 { continue; }
            for model in CostModel::ALL {
                // A handful of deterministic candidate strategies.
                let pool: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&t| t != u).collect();
                for rot in 0..3usize.min(pool.len()) {
                    let targets: Vec<NodeId> = pool.iter().cycle().skip(rot).take(bu).copied().collect();
                    let mut sorted = targets.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != bu { continue; }
                    let slow = r.with_strategy(u, sorted.clone()).cost(u, model);
                    for engine in &mut engines {
                        engine.begin(&r, u, model);
                        prop_assert_eq!(engine.cost_of(&sorted), slow);
                    }
                }
            }
        }
    }

    /// Exact best response never exceeds the current cost, and applying
    /// it yields a profile where the player passes `is_best_response`.
    #[test]
    fn best_response_is_optimal_and_stable(b in budget_vector(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = Realization::new(generators::random_realization(b.as_slice(), &mut rng));
        let u = NodeId::new(0);
        if r.graph().out_degree(u) == 0 { return Ok(()); }
        for model in CostModel::ALL {
            let br = exact_best_response(&r, u, model);
            prop_assert!(br.cost <= r.cost(u, model));
            let after = r.with_strategy(u, br.targets.clone());
            prop_assert_eq!(after.cost(u, model), br.cost);
            prop_assert!(is_best_response(&after, u, model));
        }
    }

    /// `find_violation` names the audit's first violator with the same
    /// costs: its best-response cost, not the first improvement its
    /// search happened to meet.
    #[test]
    fn find_violation_is_the_audits_first_violation(b in budget_vector(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = Realization::new(generators::random_realization(b.as_slice(), &mut rng));
        for model in CostModel::ALL {
            let first = audit_equilibrium(&r, model).violations().into_iter().next();
            prop_assert_eq!(find_violation(&r, model), first);
        }
    }

    /// Prüfer trees are trees; BFS distances match the distance matrix
    /// and are symmetric.
    #[test]
    fn tree_distances_are_consistent(n in 2usize..40, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = generators::random_tree_edges(n, &mut rng);
        prop_assert_eq!(edges.len(), n - 1);
        let csr = Csr::from_edges(n, &edges);
        prop_assert!(bbncg::graph::is_connected(&csr));
        let dm = DistanceMatrix::compute(&csr);
        let mut bfs = BfsScratch::new(n);
        for u in (0..n).step_by(1 + n / 5) {
            bfs.run(&csr, NodeId::new(u));
            for v in 0..n {
                let d = bfs.dist(NodeId::new(v)).unwrap();
                prop_assert_eq!(dm.dist(NodeId::new(u), NodeId::new(v)), d);
                prop_assert_eq!(dm.dist(NodeId::new(v), NodeId::new(u)), d);
            }
        }
    }

    /// Social diameter is n² exactly when the realization is
    /// disconnected, and every player's SUM cost is at least n − 1 −
    /// … at least the connected lower bound.
    #[test]
    fn social_cost_conventions(b in budget_vector(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = Realization::new(generators::random_realization(b.as_slice(), &mut rng));
        let n = r.n() as u64;
        if r.is_connected() {
            prop_assert!(r.social_diameter() < n * n);
        } else {
            prop_assert_eq!(r.social_diameter(), n * n);
            // Disconnected: every MAX cost is κ·n².
            let kappa = r.kappa() as u64;
            for u in 0..r.n() {
                prop_assert_eq!(r.cost(NodeId::new(u), CostModel::Max), kappa * n * n);
            }
        }
    }

    /// The Theorem 2.3 construction always realizes the requested
    /// budgets and is Nash under both models (small n).
    #[test]
    fn theorem23_always_equilibrium(b in budget_vector()) {
        let c = bbncg::constructions::theorem23_equilibrium(&b);
        let realized = c.realization.budgets();
        prop_assert_eq!(realized.as_slice(), b.as_slice());
        for model in CostModel::ALL {
            prop_assert!(bbncg::game::is_nash_equilibrium(&c.realization, model));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper as oracle (Theorems 4.1 and 4.2): every unit-budget
    /// exact dynamics run that converges ends in a profile of the
    /// theorem's shape — SUM: connected, one cycle of length ≤ 5,
    /// every vertex on it or adjacent to it; MAX: cycle ≤ 7, every
    /// vertex within distance 2 of it. Checked under every concrete
    /// kernel and both round executors, which must all trace the same
    /// trajectory.
    #[test]
    fn converged_unit_budget_dynamics_has_the_theorem_4_shape(
        n in 5usize..48,
        seed in 0u64..100_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Realization::new(generators::random_realization(&vec![1; n], &mut rng));
        for model in CostModel::ALL {
            let mut ends = Vec::new();
            for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
                for executor in [RoundExecutor::Sequential, RoundExecutor::Sharded] {
                    let cfg = DynamicsConfig::exact(model, 300).with_executor(executor);
                    let report = run_dynamics_with_kernel(
                        start.clone(),
                        cfg,
                        &mut StdRng::seed_from_u64(seed),
                        kernel,
                    );
                    if report.converged {
                        let shape = unit_structure(&report.state);
                        let holds = match model {
                            CostModel::Sum => shape.satisfies_theorem41(),
                            CostModel::Max => shape.satisfies_theorem42(),
                        };
                        prop_assert!(holds, "{:?} {} {}: {:?}", model, kernel, executor, shape);
                    }
                    ends.push((report.state, report.steps, report.converged));
                }
            }
            prop_assert!(ends.windows(2).all(|w| w[0] == w[1]), "{:?}: trajectories differ", model);
        }
    }
}
