//! Cross-layer sync enforcement: the word-parallel `BitAdjacency`
//! mirror must stay consistent with the `CompactCsr` arena when the
//! world changes through `events.rs` perturbations — departures with
//! orphan retargeting, adversarial deletion, budget shocks, arrivals,
//! reorientation — not just through plain dynamics patch sessions.
//!
//! The engine keeps both structures alive across profiles and re-syncs
//! by *diffing*, so an event that rewrites many strategies at once (or
//! resizes the instance) exercises exactly the multi-edge diff paths a
//! single dynamics move never does. The oracle here is a fresh
//! sparse-kernel engine plus the full-recompute `Realization::cost`;
//! the bitset engine's `sync` additionally self-checks
//! `patch.same_graph_as(csr)` and `bits.mirrors(patch)` via debug
//! assertions, which are active in this test profile.

use bbncg_core::{CostKernel, CostModel, DeviationScratch, Realization};
use bbncg_graph::NodeId;
use bbncg_scenario::events;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `u`'s cost in `r` had it played `targets`, of any size: a full
/// recompute on a fresh profile.
fn recompute(r: &Realization, u: NodeId, targets: &[NodeId], model: CostModel) -> u64 {
    let mut g = r.graph().clone();
    g.set_out(u, targets.to_vec());
    Realization::new(g).cost(u, model)
}

/// Every player's every single-target candidate (plus its current
/// strategy) must price identically through the long-lived bitset
/// engine, a fresh sparse engine, and a full recompute.
fn assert_engines_agree(
    bitset: &mut DeviationScratch,
    r: &Realization,
) -> Result<(), TestCaseError> {
    let mut sparse = DeviationScratch::with_kernel(r, CostKernel::Sparse);
    let n = r.n();
    for model in CostModel::ALL {
        for u in (0..n).map(NodeId::new) {
            if r.graph().out_degree(u) == 0 {
                continue;
            }
            bitset.begin(r, u, model);
            sparse.begin(r, u, model);
            let current = r.strategy(u).to_vec();
            prop_assert_eq!(bitset.cost_of(&current), sparse.cost_of(&current));
            prop_assert_eq!(bitset.cost_of(&current), r.cost(u, model));
            for t in (0..n).map(NodeId::new).filter(|&t| t != u) {
                // Prefix pricing (the greedy rule's shape) for any
                // budget.
                let b = bitset.cost_of(&[t]);
                prop_assert_eq!(b, sparse.cost_of(&[t]));
                prop_assert_eq!(b, recompute(r, u, &[t], model));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One bitset engine survives a whole perturbation timeline:
    /// same-size events (adversarial deletion, budget shocks,
    /// reorientation) drive the multi-strategy diff-sync path, and
    /// resizing events (departure with orphan retargeting, arrival)
    /// drive the transparent rebuild path. After every event the
    /// engine prices like a fresh one.
    #[test]
    fn bitset_mirror_survives_event_timelines(n in 5usize..9, seed in 0u64..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| 1 + (i + seed as usize) % 2).collect();
        let mut state = Realization::new(
            bbncg_graph::generators::random_realization(&budgets, &mut rng),
        );
        // Forced bitset kernel: the mirror-consistency paths are
        // exactly what's on trial.
        let mut engine = DeviationScratch::with_kernel(&state, CostKernel::Bitset);
        assert_engines_agree(&mut engine, &state)?;

        // Adversarial deletion (deterministic arc choice, same-n diff).
        state = events::delete_edges(&state, 2, true, &mut rng);
        assert_engines_agree(&mut engine, &state)?;

        // Budget shock: grants then revocations on random nodes.
        let who = events::pick_nodes(&state, 2, &mut rng);
        state = events::budget_shock(&state, &who, 1, &mut rng).unwrap();
        assert_engines_agree(&mut engine, &state)?;
        let who = events::pick_nodes(&state, 1, &mut rng);
        state = events::budget_shock(&state, &who, -1, &mut rng).unwrap();
        assert_engines_agree(&mut engine, &state)?;

        // Reorientation flips many arcs at once — the widest same-size
        // diff an event can produce (brace multiplicities shift too).
        state = events::reorient(&state, &mut rng);
        assert_engines_agree(&mut engine, &state)?;

        // Departure with orphan retargeting shrinks the instance; the
        // engine must rebuild transparently and keep its kernel.
        let leavers = events::pick_departures(&state, 2, &mut rng);
        state = events::depart(&state, &leavers, &mut rng).unwrap();
        prop_assert!(state.n() < n + 1);
        assert_engines_agree(&mut engine, &state)?;
        prop_assert_eq!(engine.resolved_kernel(), CostKernel::Bitset);

        // Arrival grows it back.
        state = events::arrive(&state, 2, 1, &mut rng);
        assert_engines_agree(&mut engine, &state)?;

        // And an ordinary dynamics move interleaves with the event
        // diffs without confusing the long-lived mirror.
        let mover = (0..state.n())
            .map(NodeId::new)
            .find(|&u| state.graph().out_degree(u) == 1);
        if let Some(u) = mover {
            let target = (0..state.n())
                .map(NodeId::new)
                .find(|&t| t != u && !state.strategy(u).contains(&t));
            if let Some(t) = target {
                state.set_strategy(u, vec![t]);
                assert_engines_agree(&mut engine, &state)?;
            }
        }
    }
}
