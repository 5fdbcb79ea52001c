//! Cross-crate integration tests: each of the paper's headline claims,
//! end to end, on instances small enough for exact verification.

use bbncg::analysis::{
    connectivity_dichotomy, path_decomposition, sample_equilibria, summarize, unit_structure,
};
use bbncg::constructions::{
    binary_tree_equilibrium, figure1_budgets, shift_equilibrium, spider_equilibrium,
    theorem23_equilibrium,
};
use bbncg::facility::verify_reduction;
use bbncg::game::dynamics::DynamicsConfig;
use bbncg::game::{
    is_nash_equilibrium, is_nash_equilibrium_with_kernel, opt_diameter_lower_bound, BudgetVector,
    CostKernel, CostModel, Realization,
};
use bbncg::graph::{generators, Csr};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `r` is a Nash equilibrium in both versions under every concrete
/// cost kernel (`Auto` alone would check only the one its size picks).
fn assert_equilibrium_under_every_kernel(r: &Realization, what: &str) {
    for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
        for model in CostModel::ALL {
            assert!(
                is_nash_equilibrium_with_kernel(r, model, kernel),
                "{what}: not a {model:?} equilibrium under {kernel}"
            );
        }
    }
}

/// Theorem 2.3: equilibria exist for every budget vector, in both
/// versions, and connectable instances get diameter ≤ 4 (PoS = O(1)).
#[test]
fn theorem_2_3_existence_and_pos() {
    let mut rng = StdRng::seed_from_u64(0xE0);
    for n in [5usize, 9, 13] {
        for _ in 0..3 {
            let budgets = BudgetVector::random_in_range(n, 0, 3, &mut rng);
            let c = theorem23_equilibrium(&budgets);
            assert_equilibrium_under_every_kernel(
                &c.realization,
                &format!("budgets {:?} case {:?}", budgets.as_slice(), c.case),
            );
            if budgets.connectable() {
                assert!(c.realization.social_diameter() <= 4);
                let opt = opt_diameter_lower_bound(&budgets);
                assert!(c.realization.social_diameter() as f64 / opt as f64 <= 2.0);
            }
        }
    }
}

/// Theorem 2.1 (via the reduction): the game's best response computes
/// exact k-center / k-median optima.
#[test]
fn theorem_2_1_reduction_identities() {
    let (n, edges) = generators::grid_edges(3, 4);
    let csr = Csr::from_edges(n, &edges);
    for k in 1..=3 {
        verify_reduction(&csr, k);
    }
    let mut rng = StdRng::seed_from_u64(0xE1);
    let tree = generators::random_tree_edges(10, &mut rng);
    let csr = Csr::from_edges(10, &tree);
    for k in 1..=3 {
        verify_reduction(&csr, k);
    }
}

/// Theorem 3.2 + Theorem 3.3: the spider is a MAX equilibrium with
/// diameter Θ(n), but under SUM every tree equilibrium obeys the
/// doubling inequalities and stays logarithmic.
#[test]
fn theorems_3_2_and_3_3_tree_dichotomy() {
    let spider = spider_equilibrium(4); // n = 13
    assert!(is_nash_equilibrium(&spider.realization, CostModel::Max));
    assert_eq!(spider.realization.diameter(), Some(8));
    // Under SUM, the long legs are unstable.
    assert!(!is_nash_equilibrium(&spider.realization, CostModel::Sum));

    let tree = binary_tree_equilibrium(3); // n = 15
    assert!(is_nash_equilibrium(&tree.realization, CostModel::Sum));
    let pd = path_decomposition(&tree.realization).unwrap();
    assert_eq!(pd.violations, 0);
    assert!(pd.d() <= bbncg::analysis::PathDecomposition::theorem33_bound(15));
}

/// Theorems 4.1 / 4.2: every all-unit equilibrium reached by dynamics
/// has the tight cycle structure.
#[test]
fn theorems_4_1_and_4_2_unit_structure() {
    let budgets = BudgetVector::uniform(10, 1);
    for model in CostModel::ALL {
        let samples = sample_equilibria(&budgets, DynamicsConfig::exact(model, 300), 5, 6);
        let stats = summarize(&samples);
        assert_eq!(stats.converged, stats.total);
        for s in &samples {
            assert!(is_nash_equilibrium(&s.report.state, model));
            let us = unit_structure(&s.report.state);
            match model {
                CostModel::Sum => assert!(us.satisfies_theorem41(), "{us:?}"),
                CostModel::Max => assert!(us.satisfies_theorem42(), "{us:?}"),
            }
        }
    }
}

/// Theorem 5.3: an all-positive-budget MAX equilibrium with diameter
/// √(log n) — verified exactly at k = 2.
#[test]
fn theorem_5_3_braess_instance() {
    let eq = shift_equilibrium(2);
    assert_eq!(eq.realization.n(), 16);
    assert!(eq.realization.budgets().min_budget() >= 1);
    assert_eq!(eq.realization.diameter(), Some(2));
    assert!(is_nash_equilibrium(&eq.realization, CostModel::Max));
}

/// Theorem 7.2: min budget k ⟹ SUM equilibria have diameter < 4 or are
/// k-connected.
#[test]
fn theorem_7_2_dichotomy() {
    for (n, k) in [(8usize, 2usize), (10, 3)] {
        let budgets = BudgetVector::uniform(n, k);
        let samples =
            sample_equilibria(&budgets, DynamicsConfig::exact(CostModel::Sum, 300), 11, 4);
        for s in samples.iter().filter(|s| s.report.converged) {
            let rep = connectivity_dichotomy(&s.report.state);
            assert!(rep.holds, "{rep:?}");
        }
    }
}

/// Lemma 3.1: when Σb ≥ n − 1, equilibria are connected — dynamics
/// starting from a *disconnected* profile must end connected.
#[test]
fn lemma_3_1_equilibria_are_connected() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    // Two separate braces: budgets (1,1,1,1), Σb = 4 ≥ n − 1 = 3.
    let g = bbncg::graph::OwnedDigraph::from_arcs(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    let start = Realization::new(g);
    assert!(!start.is_connected());
    for model in CostModel::ALL {
        let rep = bbncg::game::dynamics::run_dynamics(
            start.clone(),
            DynamicsConfig::exact(model, 200),
            &mut rng,
        );
        assert!(rep.converged);
        assert!(rep.state.is_connected(), "{model:?}");
        assert!(is_nash_equilibrium(&rep.state, model));
    }
}

/// Figure 1: the paper's worked Case 2 instance is an equilibrium with
/// diameter ≤ 4 in both versions.
#[test]
fn figure_1_instance_end_to_end() {
    let c = theorem23_equilibrium(&figure1_budgets());
    assert!(c.realization.social_diameter() <= 4);
    assert_equilibrium_under_every_kernel(&c.realization, "Figure 1");
}
