//! Kernel parity and pruning-soundness enforcement.
//!
//! The tentpole invariant of the pluggable-kernel refactor, enforced
//! the same way PR 1 enforced patch ≡ rebuild:
//!
//! * **Cost parity** — the bitset and sparse kernels return identical
//!   costs for every candidate on random realizations, connected and
//!   disconnected alike, and both match a full profile recompute.
//! * **Trajectory parity** — whole dynamics runs are *step-identical*
//!   across kernels (same final profile, steps, rounds, verdicts) and
//!   against the rebuild-per-candidate reference
//!   (`bbncg_core::naive`), so kernel choice can never change a
//!   result, a checkpoint, or a resumed trajectory.
//! * **Pruning soundness** — the per-candidate Lemma 2.2 lower bound
//!   never skips the true optimum: best responses with pruning equal a
//!   brute-force enumeration that prices every candidate by full
//!   profile recompute, including on disconnected states where the
//!   bound mixes "rest at distance ≥ 2" with `C_inf = n²`
//!   cross-component pricing.
//! * **Degenerate inputs** — zero-vertex scratches, single-vertex
//!   graphs, and duplicate/self patch targets behave identically
//!   across kernels (mirrors PR 2's degenerate-generator hardening).

use bbncg_core::dynamics::{run_dynamics_with_kernel, DynamicsConfig};
use bbncg_core::naive::run_dynamics_rebuild;
use bbncg_core::oracle::CombinationOdometer;
use bbncg_core::{
    audit_equilibrium_with_kernel, exact_best_response_with, first_improving_response_with,
    greedy_best_response_with, CostKernel, CostModel, DeviationScratch, Realization,
    ScoredStrategy,
};
use bbncg_graph::{generators, BfsScratch, BitAdjacency, BitBfsScratch, NodeId, OwnedDigraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn v(i: usize) -> NodeId {
    NodeId::new(i)
}

/// Random realization whose budget vector includes zeros, so a healthy
/// fraction of draws is disconnected.
fn random_instance(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
    Realization::new(generators::random_realization(&budgets, &mut rng))
}

/// `u`'s cost in `r` had it played `targets`, of any size: a full
/// recompute on a fresh profile.
fn recompute(r: &Realization, u: NodeId, targets: &[NodeId], model: CostModel) -> u64 {
    let mut g = r.graph().clone();
    g.set_out(u, targets.to_vec());
    Realization::new(g).cost(u, model)
}

/// Brute-force best response: price every candidate by full profile
/// recompute (no engine, no kernel, no pruning), ties toward the
/// lexicographically smallest target set — the ground truth both
/// kernels and the pruned search must reproduce exactly.
fn brute_force_best(r: &Realization, u: NodeId, model: CostModel) -> (Vec<NodeId>, u64) {
    let n = r.n();
    let b = r.graph().out_degree(u);
    let pool: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&t| t != u).collect();
    let mut od = CombinationOdometer::new(pool.len(), b);
    let mut best: Option<(Vec<NodeId>, u64)> = None;
    loop {
        let targets: Vec<NodeId> = od.indices().iter().map(|&i| pool[i]).collect();
        let cost = r.with_strategy(u, targets.clone()).cost(u, model);
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((targets, cost));
        }
        if !od.advance() {
            break;
        }
    }
    best.expect("at least one strategy exists")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bitset and sparse kernels price every candidate
    /// identically on random (often disconnected) realizations,
    /// through all four engine-backed rules. The exact rule matches the
    /// brute-force best response, and every rule's reported cost is
    /// the full recompute of the strategy it returns.
    #[test]
    fn kernels_agree_on_all_candidates(n in 3usize..12, seed in 0u64..400) {
        let r = random_instance(n, seed);
        let mut bitset = DeviationScratch::with_kernel(&r, CostKernel::Bitset);
        let mut sparse = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
        for model in CostModel::ALL {
            for u in (0..n).map(NodeId::new) {
                if r.graph().out_degree(u) == 0 {
                    continue;
                }
                let recomputed =
                    |s: &ScoredStrategy| r.with_strategy(u, s.targets.clone()).cost(u, model);
                let b = exact_best_response_with(&mut bitset, &r, u, model);
                let s = exact_best_response_with(&mut sparse, &r, u, model);
                let (targets, cost) = brute_force_best(&r, u, model);
                prop_assert_eq!((&b.targets, b.cost), (&targets, cost));
                prop_assert_eq!(&b, &s);
                let b = greedy_best_response_with(&mut bitset, &r, u, model);
                let s = greedy_best_response_with(&mut sparse, &r, u, model);
                prop_assert_eq!(b.cost, recomputed(&b));
                prop_assert_eq!(&b, &s);
                let b = first_improving_response_with(&mut bitset, &r, u, model);
                let s = first_improving_response_with(&mut sparse, &r, u, model);
                if let Some(b) = &b {
                    prop_assert!(b.cost < r.cost(u, model));
                    prop_assert_eq!(b.cost, recomputed(b));
                }
                prop_assert_eq!(&b, &s);
                let b = bbncg_core::best_swap_response_with(&mut bitset, &r, u, model);
                let s = bbncg_core::best_swap_response_with(&mut sparse, &r, u, model);
                if let Some(b) = &b {
                    // The best swap may tie the current strategy.
                    prop_assert!(b.cost <= r.cost(u, model));
                    prop_assert_eq!(b.cost, recomputed(b));
                }
                prop_assert_eq!(&b, &s);
            }
        }
    }

    /// The pruned, engine-backed exact best response equals brute-force
    /// enumeration (cost *and* lexicographic tie-break) on random
    /// instances, disconnected states included — pruning never skips
    /// the true optimum.
    #[test]
    fn pruning_never_skips_the_optimum(n in 3usize..8, seed in 0u64..600) {
        let r = random_instance(n, seed);
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            let mut scratch = DeviationScratch::with_kernel(&r, kernel);
            for model in CostModel::ALL {
                for u in (0..n).map(NodeId::new) {
                    if r.graph().out_degree(u) == 0 {
                        continue;
                    }
                    let engine = exact_best_response_with(&mut scratch, &r, u, model);
                    let (targets, cost) = brute_force_best(&r, u, model);
                    prop_assert_eq!(engine.cost, cost);
                    prop_assert_eq!(&engine.targets, &targets);
                }
            }
        }
    }

    /// A persistent sparse scratch stays exact across commits: re-
    /// auditing the same player after each committed move (the mirror
    /// diff-synced to the new profile; no distances kept from the last
    /// session, whose base the session's first kernel call rebuilds)
    /// prices every candidate as the full recompute does, and as a
    /// bitset scratch built fresh at each step — across move sequences
    /// produced by all four rules and both models. (The name predates
    /// the deletion of the sparse kernel's retained base.)
    #[test]
    fn retained_sparse_base_prices_exactly_across_commits(
        n in 4usize..10, moves in 2usize..8, seed in 0u64..300,
    ) {
        let r0 = random_instance(n, seed);
        for model in CostModel::ALL {
            let mut r = r0.clone();
            let watcher = v(0);
            let mut sparse = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
            let mut mover_scratch = DeviationScratch::with_kernel(&r, CostKernel::Bitset);
            for step in 0..moves {
                // Audit the watcher on the long-lived engine; its first
                // `cost_of` runs this session's base BFS.
                sparse.begin(&r, watcher, model);
                let mut fresh = DeviationScratch::with_kernel(&r, CostKernel::Bitset);
                fresh.begin(&r, watcher, model);
                for t in (0..n).map(NodeId::new).filter(|&t| t != watcher) {
                    let want = recompute(&r, watcher, &[t], model);
                    prop_assert_eq!(fresh.cost_of(&[t]), want);
                    prop_assert_eq!(sparse.cost_of(&[t]), want);
                    prop_assert!(sparse.candidate_lower_bound(&[t]) <= want);
                    // A strictly larger incumbent must price exactly
                    // (in-flight aborts are lossless).
                    prop_assert_eq!(sparse.cost_of_pruned(&[t], want + 1), Some(want));
                }
                // Commit another player's move, rotating the rule.
                let mover = v(1 + step % (n - 1));
                if r.graph().out_degree(mover) == 0 {
                    continue;
                }
                let resp = match step % 4 {
                    0 => Some(exact_best_response_with(&mut mover_scratch, &r, mover, model)),
                    1 => Some(greedy_best_response_with(&mut mover_scratch, &r, mover, model)),
                    2 => first_improving_response_with(&mut mover_scratch, &r, mover, model),
                    _ => bbncg_core::best_swap_response_with(&mut mover_scratch, &r, mover, model),
                };
                if let Some(resp) = resp {
                    r.set_strategy(mover, resp.targets);
                }
            }
        }
    }

    /// The candidate lower bound itself is sound: never above the true
    /// cost of the candidate it bounds.
    /// Soundness must hold for every kernel: the sparse kernel widens
    /// the bound with landmark terms from its base distance profile, so
    /// it is checked against the same exhaustive candidate sweep.
    #[test]
    fn candidate_bound_is_sound(n in 3usize..9, seed in 0u64..400) {
        let r = random_instance(n, seed);
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            let mut scratch = DeviationScratch::with_kernel(&r, kernel);
            for model in CostModel::ALL {
                for u in (0..n).map(NodeId::new) {
                    let b = r.graph().out_degree(u).clamp(1, 2);
                    scratch.begin(&r, u, model);
                    let pool: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&t| t != u).collect();
                    let mut od = CombinationOdometer::new(pool.len(), b);
                    loop {
                        let targets: Vec<NodeId> =
                            od.indices().iter().map(|&i| pool[i]).collect();
                        let lb = scratch.candidate_lower_bound(&targets);
                        let cost = scratch.cost_of(&targets);
                        prop_assert!(
                            lb <= cost,
                            "bound {} > cost {} for {:?} ({} {:?})", lb, cost, targets, u, model
                        );
                        if !od.advance() {
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Full dynamics traces are step-identical across kernels and against
/// the rebuild-per-candidate reference: same final profile, same step
/// count, same convergence verdict, for both models.
#[test]
fn dynamics_traces_are_step_identical_across_kernels() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets = vec![1usize; 8];
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        for model in CostModel::ALL {
            let cfg = DynamicsConfig::exact(model, 100);
            let bitset = run_dynamics_with_kernel(
                initial.clone(),
                cfg,
                &mut StdRng::seed_from_u64(0),
                CostKernel::Bitset,
            );
            let sparse = run_dynamics_with_kernel(
                initial.clone(),
                cfg,
                &mut StdRng::seed_from_u64(0),
                CostKernel::Sparse,
            );
            assert_eq!(
                bitset.state, sparse.state,
                "final profiles diverge (seed {seed}, {model:?})"
            );
            assert_eq!(bitset.steps, sparse.steps);
            assert_eq!(bitset.rounds, sparse.rounds);
            assert_eq!(bitset.converged, sparse.converged);
            let (naive_state, naive_steps, naive_converged) =
                run_dynamics_rebuild(initial.clone(), model, 100);
            assert_eq!(bitset.state, naive_state, "bitset diverges from naive");
            assert_eq!(bitset.steps, naive_steps);
            assert_eq!(bitset.converged, naive_converged);
            assert_eq!(sparse.state, naive_state, "sparse diverges from naive");
            assert_eq!(sparse.steps, naive_steps);
            assert_eq!(sparse.converged, naive_converged);
        }
    }
}

/// The batched parallel Nash audit is kernel-independent, and each
/// player's figures match a full recompute and the brute-force best
/// response.
#[test]
fn audits_agree_across_kernels() {
    for seed in [3u64, 17] {
        let r = random_instance(9, seed);
        for model in CostModel::ALL {
            let b = audit_equilibrium_with_kernel(&r, model, CostKernel::Bitset);
            let s = audit_equilibrium_with_kernel(&r, model, CostKernel::Sparse);
            for u in (0..r.n()).map(NodeId::new) {
                assert_eq!(b.current[u.index()], r.cost(u, model), "{u} {model:?}");
                if r.graph().out_degree(u) > 0 {
                    let (_, best) = brute_force_best(&r, u, model);
                    assert_eq!(b.best[u.index()], best, "{u} {model:?}");
                }
            }
            assert_eq!(b.current, s.current);
            assert_eq!(b.best, s.best);
            assert_eq!(b.is_nash(), s.is_nash());
            assert_eq!(b.gap(), s.gap());
        }
    }
}

/// Degenerate BFS inputs behave identically across kernels: zero-sized
/// scratches are constructible and resizable, single-vertex graphs
/// price to zero, and duplicate/self targets in `run_patched` are
/// no-ops in both traversals.
#[test]
fn degenerate_inputs_match_across_kernels() {
    // Zero-sized scratches: constructible, resizable, unusable only
    // for out-of-range sources (both kernels panic there).
    let _ = BfsScratch::new(0);
    let _ = BitBfsScratch::new(0);
    let mut q = BfsScratch::new(0);
    q.resize(3);
    let mut b = BitBfsScratch::new(0);
    b.resize_words(1);

    // Single-vertex graph: the lone strategy is empty; both kernels
    // price it as cost 0 in both models.
    let one = Realization::new(OwnedDigraph::empty(1));
    for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
        let mut scratch = DeviationScratch::with_kernel(&one, kernel);
        for model in CostModel::ALL {
            scratch.begin(&one, v(0), model);
            assert_eq!(scratch.cost_of(&[]), 0, "{kernel:?} {model:?}");
            assert_eq!(scratch.cost_of_pruned(&[], u64::MAX), Some(0));
        }
    }

    // Duplicate and self targets through the full pricing path: both
    // kernels agree with the deduplicated strategy's cost.
    let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let r = Realization::new(g);
    for model in CostModel::ALL {
        let mut bitset = DeviationScratch::with_kernel(&r, CostKernel::Bitset);
        let mut sparse = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
        bitset.begin(&r, v(0), model);
        sparse.begin(&r, v(0), model);
        let clean = [v(3)];
        let messy = [v(3), v(3), v(0)];
        let want = r.with_strategy(v(0), clean.to_vec()).cost(v(0), model);
        assert_eq!(bitset.cost_of(&clean), want, "bitset {model:?}");
        assert_eq!(bitset.cost_of(&messy), want, "bitset messy {model:?}");
        assert_eq!(sparse.cost_of(&clean), want, "sparse {model:?}");
        assert_eq!(sparse.cost_of(&messy), want, "sparse messy {model:?}");
    }

    // Patched BFS over an explicit graph: duplicate/self targets give
    // identical stats in both kernels (raw traversal level).
    let csr = bbncg_graph::Csr::from_edges(4, &[(0, 1), (2, 3)]);
    let bits = BitAdjacency::from_adjacency(&csr);
    let mut qs = BfsScratch::new(4);
    let mut bs = BitBfsScratch::new(4);
    for targets in [&[v(2)][..], &[v(2), v(2)][..], &[v(2), v(1)][..]] {
        for src in (0..4).map(NodeId::new) {
            assert_eq!(
                qs.run_patched(&csr, src, v(1), targets),
                bs.run_patched(&bits, src, v(1), targets),
                "src {src} targets {targets:?}"
            );
        }
    }
}
