//! Nash equilibrium verification and certificates.
//!
//! A profile is a (pure) Nash equilibrium when *no* player can strictly
//! decrease its cost by any unilateral strategy change. Verification is
//! exact — each player's full deviation space is searched (with early
//! exit on the first improvement) — and runs players in parallel.
//!
//! For large structured instances where exact search is infeasible the
//! paper's own certificates are implemented: [`lemma22_certifies`]
//! (local diameter ≤ 2 without braces, or = 1, implies best response in
//! both versions) and the swap-equilibrium relaxation
//! ([`is_swap_equilibrium`]) matching Alon et al.'s move set.

use crate::best_response::{best_swap_per_pair, exact_best_response_cost_with};
use crate::cost::CostModel;
use crate::deviation::DeviationScratch;
use crate::kernel::CostKernel;
use crate::realization::Realization;
use bbncg_graph::{BfsScratch, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};

/// A profitable unilateral deviation, refuting equilibrium.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The player that can improve.
    pub player: NodeId,
    /// Its current cost.
    pub current_cost: u64,
    /// The cost of its best response.
    pub best_cost: u64,
}

/// Is player `u` playing a best response? Exact (enumerates deviations,
/// early-exits on the first strict improvement).
pub fn is_best_response(r: &Realization, u: NodeId, model: CostModel) -> bool {
    is_best_response_with(&mut DeviationScratch::new(r), r, u, model)
}

/// [`is_best_response`] reusing a caller-held [`DeviationScratch`].
pub fn is_best_response_with(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> bool {
    if r.graph().out_degree(u) == 0 {
        return true; // the empty strategy is the only strategy
    }
    scratch.begin(r, u, model);
    let current = scratch.cost_of(r.strategy(u));
    let best = exact_best_response_cost_with(scratch, r, u, model, Some(current));
    best >= current
}

/// Is the profile a Nash equilibrium under `model`? Exact; players are
/// verified in parallel, with a shared flag to stop early once any
/// violation is found.
///
/// ```
/// use bbncg_core::{is_nash_equilibrium, CostModel, Realization};
/// use bbncg_graph::generators;
///
/// // A star is an equilibrium in both versions; a long directed path
/// // is not.
/// let star = Realization::new(generators::star(6));
/// assert!(is_nash_equilibrium(&star, CostModel::Sum));
/// let path = Realization::new(generators::path(6));
/// assert!(!is_nash_equilibrium(&path, CostModel::Sum));
/// ```
pub fn is_nash_equilibrium(r: &Realization, model: CostModel) -> bool {
    is_nash_equilibrium_with_kernel(r, model, CostKernel::Auto)
}

/// [`is_nash_equilibrium`] with an explicit [`CostKernel`] (each worker
/// builds its own kernel state through `par_map_init`). Kernels are
/// move-for-move equivalent, so the verdict is kernel-independent.
pub fn is_nash_equilibrium_with_kernel(
    r: &Realization,
    model: CostModel,
    kernel: CostKernel,
) -> bool {
    let n = r.n();
    let refuted = AtomicBool::new(false);
    let flags = bbncg_par::par_map_init(
        n,
        || DeviationScratch::with_kernel(r, kernel),
        |scratch, i| {
            if refuted.load(Ordering::Relaxed) {
                return true; // skip work; overall answer already false
            }
            let ok = is_best_response_with(scratch, r, NodeId::new(i), model);
            if !ok {
                refuted.store(true, Ordering::Relaxed);
            }
            ok
        },
    );
    flags.into_iter().all(|ok| ok)
}

/// First player (in id order) with a profitable deviation, with its
/// current and best-response costs: the first entry of
/// [`NashAudit::violations`]. Deterministic; `None` means equilibrium.
///
/// Each player's search runs to its optimum (or the Lemma 2.2 floor)
/// rather than stopping at its first improvement. A player that cannot
/// improve searches its whole space either way, so only the one
/// reported violator pays for the full search.
pub fn find_violation(r: &Realization, model: CostModel) -> Option<Violation> {
    find_violation_with_kernel(r, model, CostKernel::Auto)
}

/// [`find_violation`] with an explicit [`CostKernel`].
pub fn find_violation_with_kernel(
    r: &Realization,
    model: CostModel,
    kernel: CostKernel,
) -> Option<Violation> {
    let mut scratch = DeviationScratch::with_kernel(r, kernel);
    for i in 0..r.n() {
        let u = NodeId::new(i);
        if r.graph().out_degree(u) == 0 {
            continue;
        }
        scratch.begin(r, u, model);
        let current = scratch.cost_of(r.strategy(u));
        let best = exact_best_response_cost_with(&mut scratch, r, u, model, None);
        if best < current {
            return Some(Violation {
                player: u,
                current_cost: current,
                best_cost: best,
            });
        }
    }
    None
}

/// Is the profile a **swap equilibrium**: no player can improve by
/// replacing a single owned arc's target? This is the coarser
/// equilibrium notion of Alon et al.'s basic network creation games;
/// every Nash equilibrium of the budget game is also a swap equilibrium.
pub fn is_swap_equilibrium(r: &Realization, model: CostModel) -> bool {
    is_swap_equilibrium_with_kernel(r, model, CostKernel::Auto)
}

/// [`is_swap_equilibrium`] with an explicit [`CostKernel`].
pub fn is_swap_equilibrium_with_kernel(
    r: &Realization,
    model: CostModel,
    kernel: CostKernel,
) -> bool {
    let n = r.n();
    let refuted = AtomicBool::new(false);
    let flags = bbncg_par::par_map_init(
        n,
        || DeviationScratch::with_kernel(r, kernel),
        |scratch, i| {
            if refuted.load(Ordering::Relaxed) {
                return true;
            }
            let u = NodeId::new(i);
            let ok = best_swap_per_pair(scratch, r, u, model).is_none();
            if !ok {
                refuted.store(true, Ordering::Relaxed);
            }
            ok
        },
    );
    flags.into_iter().all(|ok| ok)
}

/// How far the profile is from equilibrium: the largest cost
/// improvement any single player could realize (0 iff Nash). Exact,
/// parallel over players — the "best-response gap" used by convergence
/// experiments as a progress measure.
pub fn best_response_gap(r: &Realization, model: CostModel) -> u64 {
    audit_equilibrium(r, model).gap()
}

/// Per-player equilibrium audit: every player's current cost and exact
/// best-response cost, computed in one batched parallel pass with one
/// [`DeviationScratch`] per worker. This is **the** Nash-verification
/// entry point — `is_nash`, the best-response gap, and the violation
/// list are all views over the same pass, so analysis, benches and the
/// CLI share one engine instead of re-running ad-hoc per-player loops.
#[derive(Clone, Debug)]
pub struct NashAudit {
    /// The audited cost model.
    pub model: CostModel,
    /// Each player's cost under its current strategy.
    pub current: Vec<u64>,
    /// Each player's exact best-response cost.
    pub best: Vec<u64>,
}

impl NashAudit {
    /// No player can strictly improve.
    pub fn is_nash(&self) -> bool {
        self.current.iter().zip(&self.best).all(|(&c, &b)| b >= c)
    }

    /// The largest single-player improvement (0 iff Nash) — the
    /// convergence experiments' progress measure.
    pub fn gap(&self) -> u64 {
        self.current
            .iter()
            .zip(&self.best)
            .map(|(&c, &b)| c.saturating_sub(b))
            .max()
            .unwrap_or(0)
    }

    /// All profitable deviations, in player order.
    pub fn violations(&self) -> Vec<Violation> {
        self.current
            .iter()
            .zip(&self.best)
            .enumerate()
            .filter(|&(_, (&c, &b))| b < c)
            .map(|(i, (&c, &b))| Violation {
                player: NodeId::new(i),
                current_cost: c,
                best_cost: b,
            })
            .collect()
    }
}

/// Run the batched parallel equilibrium audit (see [`NashAudit`]).
pub fn audit_equilibrium(r: &Realization, model: CostModel) -> NashAudit {
    audit_equilibrium_with_kernel(r, model, CostKernel::Auto)
}

/// [`audit_equilibrium`] with an explicit [`CostKernel`]: one engine
/// (and one kernel state) per worker, threaded through `par_map_init`.
pub fn audit_equilibrium_with_kernel(
    r: &Realization,
    model: CostModel,
    kernel: CostKernel,
) -> NashAudit {
    // Players are priced independently, so the parallel path is always
    // sound; keep the historical always-parallel behaviour for the
    // kernel-only entry point.
    audit_equilibrium_with_opts(r, model, kernel, crate::round::RoundExecutor::Sharded)
}

/// [`audit_equilibrium`] with both the [`CostKernel`] and the
/// [`RoundExecutor`](crate::round::RoundExecutor) chosen. The audit is
/// a read-only sweep whose players are independent, so "sharded" here
/// shards the *players* across worker-local engines and "sequential"
/// prices everyone through one engine on the calling thread; `Auto`
/// resolves by thread budget, host CPUs and nesting exactly like
/// dynamics rounds. The verdict, gap and violation list are
/// executor-independent — this knob exists so services can pin one
/// execution discipline end-to-end and report it.
pub fn audit_equilibrium_with_opts(
    r: &Realization,
    model: CostModel,
    kernel: CostKernel,
    executor: crate::round::RoundExecutor,
) -> NashAudit {
    let n = r.n();
    let price = |scratch: &mut DeviationScratch, i: usize| {
        let u = NodeId::new(i);
        scratch.begin(r, u, model);
        let current = scratch.cost_of(r.strategy(u));
        if r.graph().out_degree(u) == 0 {
            // The empty strategy is the only strategy: best = current.
            return (current, current);
        }
        let best = exact_best_response_cost_with(scratch, r, u, model, None);
        (current, best)
    };
    let per_player = match executor.resolve(n) {
        crate::round::RoundExecutor::Sequential => {
            let mut scratch = DeviationScratch::with_kernel(r, kernel);
            (0..n).map(|i| price(&mut scratch, i)).collect::<Vec<_>>()
        }
        _ => bbncg_par::par_map_init(n, || DeviationScratch::with_kernel(r, kernel), price),
    };
    let (current, best) = per_player.into_iter().unzip();
    NashAudit {
        model,
        current,
        best,
    }
}

/// Lemma 2.2 certificate for one player: if `c_MAX(u) = 1`, or
/// `c_MAX(u) ≤ 2` and `u` is in no brace, then `u` is playing a best
/// response in **both** versions. Returns whether the certificate
/// applies (false means "no certificate", not "not a best response").
pub fn lemma22_certifies(r: &Realization, u: NodeId) -> bool {
    if !r.is_connected() {
        return false; // local diameter is n², certificate never applies
    }
    let mut scratch = BfsScratch::new(r.n());
    let ecc = scratch.run(r.csr(), u).max_dist;
    if ecc <= 1 {
        return true;
    }
    if ecc == 2 {
        let in_brace = r.graph().out(u).iter().any(|&t| r.graph().has_arc(t, u));
        return !in_brace;
    }
    false
}

/// Do all players carry the Lemma 2.2 certificate? If so the profile is
/// a Nash equilibrium in both versions without any search.
pub fn lemma22_certifies_all(r: &Realization) -> bool {
    let n = r.n();
    let flags = bbncg_par::par_map_index(n, |i| lemma22_certifies(r, NodeId::new(i)));
    flags.into_iter().all(|ok| ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_graph::OwnedDigraph;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn star_is_equilibrium_in_both_versions() {
        // Center 0 owns arcs to everyone: local diameter 1 for center,
        // 2 for leaves (no braces, leaves have no budget).
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let r = Realization::new(g);
        assert!(lemma22_certifies_all(&r));
        assert!(is_nash_equilibrium(&r, CostModel::Sum));
        assert!(is_nash_equilibrium(&r, CostModel::Max));
    }

    #[test]
    fn long_path_is_not_an_equilibrium() {
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = Realization::new(g);
        for model in CostModel::ALL {
            assert!(!is_nash_equilibrium(&r, model));
            let viol = find_violation(&r, model).unwrap();
            assert!(viol.best_cost < viol.current_cost);
        }
    }

    #[test]
    fn directed_triangle_is_equilibrium() {
        // Cycle on 3 vertices, each with budget 1: diameter 1 graph.
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]);
        let r = Realization::new(g);
        assert!(lemma22_certifies_all(&r));
        assert!(is_nash_equilibrium(&r, CostModel::Sum));
        assert!(is_nash_equilibrium(&r, CostModel::Max));
    }

    #[test]
    fn brace_blocks_lemma22_but_not_equilibrium_check() {
        // Two vertices with a brace: local diameter 1 -> certificate by
        // the ecc = 1 clause despite the brace.
        let g = OwnedDigraph::from_arcs(2, &[(0, 1), (1, 0)]);
        let r = Realization::new(g);
        assert!(lemma22_certifies(&r, v(0)));
        assert!(is_nash_equilibrium(&r, CostModel::Sum));
    }

    #[test]
    fn brace_with_distance_two_vertex_is_refutable() {
        // 0 <-> 1 brace plus 2 -> 1: vertex 0 would rather link v2.
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 0), (2, 1)]);
        let r = Realization::new(g);
        assert!(!lemma22_certifies(&r, v(0)));
        // Theorem 4.1's argument: swapping the brace arc to v2 gives 0
        // distance-1 access to both others.
        assert!(!is_nash_equilibrium(&r, CostModel::Sum));
    }

    #[test]
    fn swap_equilibrium_is_implied_by_nash() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (0, 2), (0, 3)]);
        let r = Realization::new(g);
        assert!(is_nash_equilibrium(&r, CostModel::Sum));
        assert!(is_swap_equilibrium(&r, CostModel::Sum));
    }

    #[test]
    fn gap_is_zero_exactly_at_equilibrium() {
        let star = Realization::new(OwnedDigraph::from_arcs(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
        ));
        assert_eq!(best_response_gap(&star, CostModel::Sum), 0);
        let path = Realization::new(OwnedDigraph::from_arcs(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        ));
        let gap = best_response_gap(&path, CostModel::Sum);
        assert!(gap > 0);
        // The gap equals the best single player's improvement.
        let viol = find_violation(&path, CostModel::Sum).unwrap();
        assert!(gap >= viol.current_cost - viol.best_cost);
    }

    #[test]
    fn a_violation_reports_the_best_response_cost_not_the_first_improvement() {
        // The directed path 0 → 1 → … → 8, every player but the last
        // owning its one arc. Player 0 is the first violator; its first
        // improving candidate (relinking to 2) is far from its best
        // response (relinking to the middle of the path).
        let arcs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        let path = Realization::new(OwnedDigraph::from_arcs(9, &arcs));
        for (model, current, best) in [(CostModel::Sum, 36, 24), (CostModel::Max, 8, 5)] {
            let want = Violation {
                player: v(0),
                current_cost: current,
                best_cost: best,
            };
            for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
                let found = find_violation_with_kernel(&path, model, kernel);
                assert_eq!(found.as_ref(), Some(&want), "{model:?} on {kernel:?}");
            }
            assert_eq!(
                audit_equilibrium(&path, model).violations().first(),
                Some(&want)
            );
        }
    }

    #[test]
    fn disconnected_profile_is_never_an_equilibrium_when_connectable() {
        // Lemma 3.1: with sum of budgets >= n-1, equilibria are
        // connected. Two 2-cycles: any owner can rewire across.
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let r = Realization::new(g);
        assert!(!is_nash_equilibrium(&r, CostModel::Sum));
        assert!(!is_nash_equilibrium(&r, CostModel::Max));
    }
}
