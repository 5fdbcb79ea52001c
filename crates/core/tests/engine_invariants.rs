//! The tentpole invariant of the deviation engine, enforced: the
//! best-response/dynamics hot path performs **zero** `Csr::from_digraph`
//! rebuilds — none per candidate deviation, and none per applied move.
//!
//! `bbncg-graph` is pulled in with the `rebuild-counter` feature (see
//! `[dev-dependencies]`), which makes every `Csr::from_digraph` bump a
//! process-global counter. A dynamics run evaluates orders of magnitude
//! more candidates than it applies moves; if any candidate pricing
//! rebuilt the undirected view, or any move refreshed the profile's own
//! (lazily built) view, the counter would move and these tests would
//! fail.
//!
//! The counter is process-global and `cargo test` runs one process per
//! integration-test binary with tests in parallel threads, so every
//! assertion here measures *deltas* around a serial section and the
//! binary holds exactly one test per measurement concern.

use bbncg_core::dynamics::{run_dynamics, DynamicsConfig};
use bbncg_core::{
    audit_equilibrium, exact_best_response_with, CostModel, DeviationScratch, Realization,
};
use bbncg_graph::csr::rebuild_counter;
use bbncg_graph::{generators, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn hot_paths_never_rebuild_per_candidate() {
    // --- Dynamics: no rebuild at all. The engine prices on its own
    // patched view, and `Realization::set_strategy` only drops the
    // profile's views, which nothing on this path reads again.
    let mut rng = StdRng::seed_from_u64(5);
    let budgets = vec![1usize; 12];
    let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
    // Each activation of a unit-budget player prices n-1 = 11
    // candidates, so a per-candidate rebuild would show up ~11x.
    let before = rebuild_counter::count();
    let report = run_dynamics(
        initial,
        DynamicsConfig::exact(CostModel::Sum, 200),
        &mut rng,
    );
    let delta = rebuild_counter::count() - before;
    assert!(report.converged);
    assert!(report.steps > 0, "want a run that actually moves");
    assert_eq!(
        delta, 0,
        "dynamics must never rebuild the profile's view, per move or per candidate"
    );

    // --- Single-player search: an open engine session prices every
    // candidate with zero rebuilds.
    let r = &report.state;
    let mut scratch = DeviationScratch::new(r);
    let before = rebuild_counter::count();
    for u in (0..r.n()).map(NodeId::new) {
        if r.graph().out_degree(u) > 0 {
            let _ = exact_best_response_with(&mut scratch, r, u, CostModel::Max);
        }
    }
    assert_eq!(
        rebuild_counter::count() - before,
        0,
        "engine-backed best-response search must not rebuild at all"
    );
    assert_eq!(scratch.rebuilds(), 0, "no arena re-layouts expected either");

    // --- Batched parallel Nash audit: one engine per worker, zero
    // rebuilds for the whole pass.
    let before = rebuild_counter::count();
    let audit = audit_equilibrium(r, CostModel::Sum);
    assert!(audit.is_nash(), "dynamics converged, so the audit agrees");
    assert_eq!(
        rebuild_counter::count() - before,
        0,
        "batched verification must price all players without rebuilds"
    );
}
