//! `Realization`'s derived views never go stale.
//!
//! A `Realization` builds its undirected CSR, its component structure
//! and its diameter the first time each is read, and `set_strategy`
//! drops all three. These properties interleave moves, reads and
//! clones at random and hold every read to the same read on a
//! realization built fresh from the same digraph: a view that outlives
//! the move that changed its profile, or a clone that does not keep
//! the views of the profile it was cloned from, fails here.

use bbncg_core::{CostModel, Realization};
use bbncg_graph::{generators, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Kinds of read `check_read` knows: `0..READS`.
const READS: u8 = 8;

/// Most moves one case applies to its main realization.
const MAX_MOVES: usize = 12;

/// A random profile of `n` players with every budget in `0..=2`
/// (capped at `n − 1`), so draws mix trees, cycles, braces and
/// disconnected profiles.
fn random_profile(n: usize, rng: &mut StdRng) -> Realization {
    let budgets: Vec<usize> = (0..n)
        .map(|_| rng.gen_range(0..=2usize).min(n - 1))
        .collect();
    Realization::new(generators::random_realization(&budgets, rng))
}

/// A random new strategy for a random player who owns arcs, or `None`
/// when nobody does.
fn random_move(r: &Realization, rng: &mut StdRng) -> Option<(NodeId, Vec<NodeId>)> {
    let owners: Vec<NodeId> = (0..r.n())
        .map(NodeId::new)
        .filter(|&u| r.graph().out_degree(u) > 0)
        .collect();
    let &u = owners.choose(rng)?;
    let mut pool: Vec<NodeId> = (0..r.n()).map(NodeId::new).filter(|&t| t != u).collect();
    pool.shuffle(rng);
    pool.truncate(r.graph().out_degree(u));
    pool.sort_unstable();
    Some((u, pool))
}

/// Read `kind` of `r` (for the costs, at a random player) and compare
/// it with the same read on a realization built fresh from `r`'s
/// digraph.
fn check_read(r: &Realization, kind: u8, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let fresh = Realization::new(r.graph().clone());
    let u = NodeId::new(rng.gen_range(0..r.n()));
    match kind {
        0 => prop_assert_eq!(r.csr(), fresh.csr()),
        1 => prop_assert_eq!(r.components(), fresh.components()),
        2 => prop_assert_eq!(r.kappa(), fresh.kappa()),
        3 => prop_assert_eq!(r.is_connected(), fresh.is_connected()),
        4 => prop_assert_eq!(r.diameter(), fresh.diameter()),
        5 => prop_assert_eq!(r.social_diameter(), fresh.social_diameter()),
        6 => prop_assert_eq!(r.cost(u, CostModel::Sum), fresh.cost(u, CostModel::Sum)),
        _ => prop_assert_eq!(r.cost(u, CostModel::Max), fresh.cost(u, CostModel::Max)),
    }
    Ok(())
}

/// Every kind of read of `r`, in a random order.
fn check_every_read(r: &Realization, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let mut kinds: Vec<u8> = (0..READS).collect();
    kinds.shuffle(rng);
    for kind in kinds {
        check_read(r, kind, rng)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Up to [`MAX_MOVES`] moves, interleaved at random with reads of
    /// every view, clones, reads of earlier clones, and `with_strategy`
    /// copies. Every read equals the fresh realization's; every clone
    /// keeps the profile, and so the views, it was cloned from.
    #[test]
    fn lazy_views_match_a_fresh_realization(n in 2usize..24, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = random_profile(n, &mut rng);
        let mut clones: Vec<(Realization, Realization)> = Vec::new();
        let mut moves = 0;
        for _ in 0..48 {
            match rng.gen_range(0..12u8) {
                kind @ 0..=7 => check_read(&r, kind, &mut rng)?,
                8 => clones.push((r.clone(), Realization::new(r.graph().clone()))),
                9 if !clones.is_empty() => {
                    let i = rng.gen_range(0..clones.len());
                    let (clone, at_clone_time) = &clones[i];
                    prop_assert_eq!(clone.graph(), at_clone_time.graph());
                    check_read(clone, rng.gen_range(0..READS), &mut rng)?;
                }
                10 => {
                    if let Some((u, targets)) = random_move(&r, &mut rng) {
                        let before = r.graph().clone();
                        let copy = r.with_strategy(u, targets);
                        prop_assert_eq!(r.graph(), &before);
                        check_every_read(&copy, &mut rng)?;
                    }
                }
                _ if moves < MAX_MOVES => {
                    if let Some((u, targets)) = random_move(&r, &mut rng) {
                        r.set_strategy(u, targets);
                        moves += 1;
                    }
                }
                _ => {}
            }
        }
        check_every_read(&r, &mut rng)?;
        for (clone, at_clone_time) in &clones {
            prop_assert_eq!(clone.graph(), at_clone_time.graph());
            check_every_read(clone, &mut rng)?;
        }
    }
}
