//! Realizations: strategy profiles as graphs.
//!
//! A strategy profile `(S₁,…,Sₙ)` of `(b₁,…,bₙ)-BG` *is* an ownership
//! digraph — vertex `i` owns an arc to each member of `Sᵢ`. A
//! [`Realization`] bundles that digraph with three views derived from
//! it — the undirected CSR, its component structure and its diameter.
//! Each view is built the first time something reads it and dropped
//! when a strategy changes, so a dynamics run that only ever reads the
//! digraph (the deviation engine keeps its own incrementally patched
//! view) builds none of them.
//!
//! A realization also carries a content version: a value no other
//! content ever carried, drawn afresh by [`Realization::new`] and by
//! every [`Realization::set_strategy`], and shared by clones. Equal
//! versions mean equal profiles, so the deviation engine skips its
//! strategy diff when its mirror's version matches, and diffs only
//! the last mover when it is exactly one move behind (see
//! `Realization::last_move`).

use crate::budget::BudgetVector;
use crate::cost::{c_inf, CostModel};
use bbncg_graph::{components, BfsScratch, Components, Csr, Diameter, NodeId, OwnedDigraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A version no profile has carried yet. Relaxed suffices: the counter
/// publishes no other data, and each `fetch_add` returns a distinct
/// value whatever the ordering.
fn fresh_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A strategy profile of the game, with lazily built derived views.
#[derive(Clone, Debug)]
pub struct Realization {
    g: OwnedDigraph,
    /// Content version (see the module docs).
    version: u64,
    /// The last [`Realization::set_strategy`]: the version before it
    /// and the player it changed. One entry, never a journal.
    last_move: Option<(u64, NodeId)>,
    /// `U(G)`; built on first read, dropped by [`Realization::set_strategy`].
    csr: OnceLock<Csr>,
    /// Components of `csr`; same lifetime.
    comps: OnceLock<Components>,
    /// Diameter of `U(G)` (see [`Realization::diameter_view`]); same
    /// lifetime.
    diam: OnceLock<Diameter>,
}

impl Realization {
    /// Wrap an ownership digraph as a realization (of the instance whose
    /// budget vector is the digraph's out-degree sequence). Builds no
    /// derived view.
    pub fn new(g: OwnedDigraph) -> Self {
        Realization {
            g,
            version: fresh_version(),
            last_move: None,
            csr: OnceLock::new(),
            comps: OnceLock::new(),
            diam: OnceLock::new(),
        }
    }

    /// Number of players.
    #[inline]
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The ownership digraph.
    #[inline]
    pub fn graph(&self) -> &OwnedDigraph {
        &self.g
    }

    /// The content version: two realizations with the same version
    /// hold the same profile. Clones share it; `new` and every
    /// `set_strategy` draw a fresh one.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The last strategy change, `(version before it, player)`: a
    /// holder of that earlier version catches up by copying this one
    /// player's strategy. `None` until the first `set_strategy`.
    #[inline]
    pub(crate) fn last_move(&self) -> Option<(u64, NodeId)> {
        self.last_move
    }

    /// The undirected underlying graph `U(G)` (built on first read).
    #[inline]
    pub fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::from_digraph(&self.g))
    }

    /// Connected-component structure of `U(G)` (built on first read).
    #[inline]
    pub fn components(&self) -> &Components {
        self.comps.get_or_init(|| components(self.csr()))
    }

    /// Number of connected components κ.
    #[inline]
    pub fn kappa(&self) -> usize {
        self.components().count
    }

    /// The instance's budget vector (out-degree sequence).
    pub fn budgets(&self) -> BudgetVector {
        BudgetVector::of_realization(&self.g)
    }

    /// Strategy of player `u` (targets of its owned arcs).
    #[inline]
    pub fn strategy(&self, u: NodeId) -> &[NodeId] {
        self.g.out(u)
    }

    /// Replace player `u`'s strategy and drop the derived views; the
    /// next read of each rebuilds it.
    ///
    /// # Panics
    /// Panics if the new strategy has the wrong size for `u`'s budget
    /// (strategies must spend the whole budget), contains `u`, or
    /// contains duplicates.
    pub fn set_strategy(&mut self, u: NodeId, targets: Vec<NodeId>) {
        assert_eq!(
            targets.len(),
            self.g.out_degree(u),
            "strategy size must equal the budget of {u}"
        );
        self.g.set_out(u, targets);
        self.last_move = Some((self.version, u));
        self.version = fresh_version();
        self.csr.take();
        self.comps.take();
        self.diam.take();
    }

    /// A copy of this realization with `u` deviating to `targets` (a
    /// copy of the digraph only: none of this profile's views hold for
    /// the new one).
    pub fn with_strategy(&self, u: NodeId, targets: Vec<NodeId>) -> Realization {
        let mut other = Realization::new(self.g.clone());
        other.set_strategy(u, targets);
        other
    }

    /// Is `U(G)` connected?
    pub fn is_connected(&self) -> bool {
        self.kappa() <= 1 || self.n() <= 1
    }

    /// The social cost: `diam(U(G))`, or `C_inf = n²` when disconnected
    /// (consistent with the game's distance convention).
    pub fn social_diameter(&self) -> u64 {
        match self.diameter_view() {
            Diameter::Finite(d) => d as u64,
            Diameter::Disconnected => c_inf(self.n()),
        }
    }

    /// Finite diameter of `U(G)` if connected.
    pub fn diameter(&self) -> Option<u32> {
        self.diameter_view().finite()
    }

    /// The diameter view, built once per profile however many times
    /// either diameter method is asked: in `O(n)` from the profile's
    /// parent pointers when no player owns two arcs (the unit-budget
    /// class), by an all-pairs BFS sweep otherwise.
    fn diameter_view(&self) -> Diameter {
        *self.diam.get_or_init(|| {
            crate::closed_form::pseudoforest_diameter(&self.g)
                .unwrap_or_else(|| bbncg_graph::diameter(self.csr()))
        })
    }

    /// Cost of player `u` under `model` (fresh scratch; see
    /// [`Realization::cost_with`] for the allocation-free variant).
    pub fn cost(&self, u: NodeId, model: CostModel) -> u64 {
        let mut scratch = BfsScratch::new(self.n());
        self.cost_with(u, model, &mut scratch)
    }

    /// Cost of player `u` under `model`, reusing `scratch`.
    pub fn cost_with(&self, u: NodeId, model: CostModel, scratch: &mut BfsScratch) -> u64 {
        crate::cost::vertex_cost(model, self.csr(), self.kappa(), u, scratch)
    }

    /// Costs of all players (parallel over vertices).
    pub fn costs(&self, model: CostModel) -> Vec<u64> {
        let n = self.n();
        let (csr, kappa) = (self.csr(), self.kappa());
        let mut out = vec![0u64; n];
        bbncg_par::par_chunks_mut(&mut out, |start, chunk| {
            let mut scratch = BfsScratch::new(n);
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = crate::cost::vertex_cost(
                    model,
                    csr,
                    kappa,
                    NodeId::new(start + off),
                    &mut scratch,
                );
            }
        });
        out
    }
}

impl PartialEq for Realization {
    fn eq(&self, other: &Self) -> bool {
        self.g == other.g
    }
}

impl Eq for Realization {}

impl std::hash::Hash for Realization {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.g.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn caches_stay_consistent_across_deviation() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut r = Realization::new(g);
        assert!(r.is_connected());
        assert_eq!(r.diameter(), Some(3));
        // Player 2 rewires 2->3 to 2->0: graph 0-1-2 triangle-ish path + 3 isolated.
        r.set_strategy(v(2), vec![v(0)]);
        assert!(!r.is_connected());
        assert_eq!(r.kappa(), 2);
        assert_eq!(r.social_diameter(), 16);
        assert_eq!(r.diameter(), None);
    }

    #[test]
    fn views_keep_the_realization_shareable() {
        fn shareable<T: Clone + Send + Sync>() {}
        shareable::<Realization>();
    }

    #[test]
    fn with_strategy_leaves_original_untouched() {
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let r = Realization::new(g);
        let r2 = r.with_strategy(v(1), vec![v(0)]);
        assert_eq!(r.diameter(), Some(2));
        assert_eq!(r2.kappa(), 2);
        assert_ne!(r, r2);
    }

    #[test]
    #[should_panic(expected = "strategy size")]
    fn strategy_must_spend_budget() {
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let mut r = Realization::new(g);
        r.set_strategy(v(0), vec![]);
    }

    #[test]
    fn costs_match_manual_path() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = Realization::new(g);
        assert_eq!(r.costs(CostModel::Sum), vec![6, 4, 4, 6]);
        assert_eq!(r.costs(CostModel::Max), vec![3, 2, 2, 3]);
        assert_eq!(r.cost(v(0), CostModel::Sum), 6);
    }

    #[test]
    fn budgets_roundtrip() {
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (0, 2)]);
        let r = Realization::new(g);
        assert_eq!(r.budgets().as_slice(), &[2, 0, 0]);
        assert_eq!(r.strategy(v(0)), &[v(1), v(2)]);
    }
}
