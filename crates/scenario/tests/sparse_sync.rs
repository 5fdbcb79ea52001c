//! Cross-layer sync enforcement for the sparse kernel: the slack-free
//! `CompactCsr` backing and the per-session base-BFS/landmark state
//! must stay consistent when the world changes through `events.rs`
//! perturbations — departures with orphan retargeting, adversarial
//! deletion, budget shocks, arrivals, reorientation — not just through
//! plain dynamics patch sessions.
//!
//! The sparse engine keeps its compact arena alive across profiles and
//! re-syncs by *diffing* (relocating rows in place when degrees grow),
//! and no distances survive a session: each session's first kernel
//! call runs a fresh base BFS on the post-event graph. So an event
//! that rewrites many strategies at once (or resizes the instance)
//! exercises exactly the multi-edge diff and engine-rebuild paths a
//! single dynamics move never does. The oracle is a fresh bitset-kernel
//! engine plus the full-recompute `Realization::cost`.

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
/// strategy) must price identically through the long-lived sparse
/// engine, a fresh bitset engine, and a full recompute.
fn assert_engines_agree(
    sparse: &mut DeviationScratch,
    r: &Realization,
) -> Result<(), TestCaseError> {
    let mut bitset = DeviationScratch::with_kernel(r, CostKernel::Bitset);
    let n = r.n();
    for model in CostModel::ALL {
        for u in (0..n).map(NodeId::new) {
            if r.graph().out_degree(u) == 0 {
                continue;
            }
            sparse.begin(r, u, model);
            bitset.begin(r, u, model);
            let current = r.strategy(u).to_vec();
            prop_assert_eq!(sparse.cost_of(&current), bitset.cost_of(&current));
            prop_assert_eq!(sparse.cost_of(&current), r.cost(u, model));
            for t in (0..n).map(NodeId::new).filter(|&t| t != u) {
                // Prefix pricing (the greedy rule's shape) for any
                // budget.
                let s = sparse.cost_of(&[t]);
                prop_assert_eq!(s, bitset.cost_of(&[t]));
                prop_assert_eq!(s, recompute(r, u, &[t], model));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One sparse engine survives a whole perturbation timeline:
    /// same-size events (adversarial deletion, budget shocks,
    /// reorientation) drive the compact arena's multi-strategy
    /// diff-sync path, and resizing events (departure with orphan
    /// retargeting, arrival) drive the transparent rebuild path. After
    /// every event the engine prices like a fresh one — the
    /// repair-after-departure case is the one a per-session rebase
    /// must not get wrong.
    #[test]
    fn sparse_backing_survives_event_timelines(n in 5usize..9, seed in 0u64..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| 1 + (i + seed as usize) % 2).collect();
        let mut state = Realization::new(
            bbncg_graph::generators::random_realization(&budgets, &mut rng),
        );
        // Forced sparse kernel: Auto would pick bitset at these sizes,
        // and the compact-arena consistency paths are what's on trial.
        let mut engine = DeviationScratch::with_kernel(&state, CostKernel::Sparse);
        assert_engines_agree(&mut engine, &state)?;

        // Adversarial deletion (deterministic arc choice, same-n diff).
        state = events::delete_edges(&state, 2, true, &mut rng);
        assert_engines_agree(&mut engine, &state)?;

        // Budget shock: grants then revocations on random nodes. The
        // grants grow rows past their exact capacity, forcing arena
        // relocations mid-timeline.
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
        // engine must rebuild transparently and keep its kernel, and
        // the next session's base BFS must rebase onto the smaller
        // graph without stale distances leaking through.
        let leavers = events::pick_departures(&state, 2, &mut rng);
        state = events::depart(&state, &leavers, &mut rng).unwrap();
        prop_assert!(state.n() < n + 1);
        assert_engines_agree(&mut engine, &state)?;
        prop_assert_eq!(engine.resolved_kernel(), CostKernel::Sparse);

        // Arrival grows it back.
        state = events::arrive(&state, 2, 1, &mut rng);
        assert_engines_agree(&mut engine, &state)?;

        // And an ordinary dynamics move interleaves with the event
        // diffs without confusing the long-lived arena.
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

    /// Repair-vs-rebuild oracle under events: a *fixed* watcher
    /// re-audited after every perturbation keeps its retained base —
    /// same-size events flow in through diff-sync as raw arc deltas and
    /// are absorbed by the commit-time repair path (or a full rebase
    /// when the damage is too broad); either way pricing must match a
    /// full recompute and a fresh bitset engine exactly. A final resizing event checks the
    /// retained state is dropped, not corrupted.
    #[test]
    fn retained_base_survives_event_timelines(n in 5usize..9, seed in 0u64..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n).map(|i| 1 + (i + seed as usize) % 2).collect();
        let mut state = Realization::new(
            bbncg_graph::generators::random_realization(&budgets, &mut rng),
        );
        let mut engine = DeviationScratch::with_kernel(&state, CostKernel::Sparse);

        fn audit(
            engine: &mut DeviationScratch,
            state: &Realization,
        ) -> Result<(), TestCaseError> {
            let watcher = NodeId::new(0);
            let mut bitset = DeviationScratch::with_kernel(state, CostKernel::Bitset);
            for model in CostModel::ALL {
                engine.begin(state, watcher, model);
                bitset.begin(state, watcher, model);
                let current = state.strategy(watcher).to_vec();
                prop_assert_eq!(engine.cost_of(&current), state.cost(watcher, model));
                prop_assert_eq!(bitset.cost_of(&current), state.cost(watcher, model));
                for t in (0..state.n()).map(NodeId::new).filter(|&t| t != watcher) {
                    let want = recompute(state, watcher, &[t], model);
                    prop_assert_eq!(bitset.cost_of(&[t]), want);
                    prop_assert_eq!(engine.cost_of(&[t]), want);
                    prop_assert!(engine.candidate_lower_bound(&[t]) <= want);
                    prop_assert_eq!(engine.cost_of_pruned(&[t], want + 1), Some(want));
                }
            }
            Ok(())
        }

        audit(&mut engine, &state)?;
        // Same-size events: these reach the engine as diff-synced arc
        // deltas, the shape the repair journal is built for.
        state = events::delete_edges(&state, 1, true, &mut rng);
        audit(&mut engine, &state)?;
        let who = events::pick_nodes(&state, 1, &mut rng);
        state = events::budget_shock(&state, &who, 1, &mut rng).unwrap();
        audit(&mut engine, &state)?;
        state = events::reorient(&state, &mut rng);
        audit(&mut engine, &state)?;
        state = events::delete_edges(&state, 2, false, &mut rng);
        audit(&mut engine, &state)?;
        // Resizing event: retention cannot survive, pricing still must.
        let leavers = events::pick_departures(&state, 1, &mut rng);
        state = events::depart(&state, &leavers, &mut rng).unwrap();
        audit(&mut engine, &state)?;
    }
}
