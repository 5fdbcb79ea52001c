//! Best-response computation: exact, greedy, and swap-restricted.
//!
//! Theorem 2.1 of the paper: computing a best response is NP-hard in
//! both the MAX version (k-center in disguise) and the SUM version
//! (k-median). Accordingly:
//!
//! * [`exact_best_response`] enumerates all `C(n−1, b)` strategies with
//!   an early-exit lower bound — exponential in `b`, intended for the
//!   small-instance exact experiments and for verifying constructions;
//! * [`greedy_best_response`] builds a strategy by marginal improvement
//!   (the classic k-median/k-center greedy), polynomial and good in
//!   practice;
//! * [`best_swap_response`] searches only single-arc swaps (the move set
//!   of Alon et al.'s basic network creation games), polynomial; swap
//!   dynamics with this rule is the scalable dynamics used at large `n`.
//!
//! The exact, greedy and better searches keep an incumbent and price
//! each candidate through [`DeviationScratch::cost_of_pruned`], so a
//! candidate that cannot strictly beat it is skipped by its lower bound
//! or abandoned part-way by the kernel. The swap search prices no
//! candidate on its own: one swap sweep (`crate::sweep`) derives every
//! (slot, target) cost from `b` base BFSs and one bounded BFS per
//! vertex, and the search takes the earliest least-cost swap in the
//! per-pair order. The per-pair search survives as the independent
//! oracle of [`crate::is_swap_equilibrium`].
//!
//! One loop, `exact_best_over`, enumerates a player's `C(n−1, b)`
//! strategies for every exact search: the exact rule and its sharded
//! splits, the better rule, and every Nash check of
//! `crate::equilibrium`. A search keeps only candidates strictly below
//! a ceiling and ends at the best one or, for the better rule and the
//! Nash verdicts, at the first one. [`exact_candidates`] sizes it and
//! refuses one past [`MAX_EXACT_CANDIDATES`].
//!
//! A player owning one arc in a profile where no player owns two (the
//! paper's unit-budget class) costs no per-candidate pricing at all,
//! under either model: the engine prices every single-arc target in one
//! closed-form pass, and each search returns from those costs the
//! target its enumeration would have — the earliest least-cost one
//! strictly below its incumbent — with the current strategy's cost
//! memoized for the improvement gate. Only the Nash checks always
//! enumerate on the kernels.
//!
//! Dynamics and the Nash checks ask a narrower question than
//! [`exact_best_response`] — does the player have a strictly improving
//! move? — so their searches start from the current strategy's cost
//! instead of `u64::MAX` and return only a strict improvement: the same
//! decision as the full search followed by a strict-improvement check.
//! The current strategy is one of the candidates, so when that search
//! finds nothing the current cost *is* the least cost. The exact search
//! can then abort every candidate from the first one on, and no search
//! prices anything when the current cost sits at the Lemma 2.2 floor.

use crate::cost::CostModel;
use crate::deviation::DeviationScratch;
use crate::oracle::{enumeration_count, CombinationOdometer};
use crate::realization::Realization;
use crate::sweep::SweepPart;
use bbncg_graph::NodeId;
use std::fmt;
use std::ops::Range;

/// Hard guard on exact enumeration size; beyond this the exact solver
/// refuses rather than silently running for hours.
pub const MAX_EXACT_CANDIDATES: u64 = 50_000_000;

/// An exact search too large to start: a player owning `b` arcs among
/// `n` vertices faces `count` = `C(n − 1, b)` candidate strategies
/// (saturating), above [`MAX_EXACT_CANDIDATES`]. Its message is the
/// guard's one wording; callers prefix the player.
#[derive(Debug)]
pub struct TooManyCandidates {
    n: usize,
    b: usize,
    count: u64,
}

impl fmt::Display for TooManyCandidates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "owns {} arcs among {} vertices: the exact search would enumerate {} candidates, \
             over the cap of {MAX_EXACT_CANDIDATES}",
            self.b, self.n, self.count
        )
    }
}

/// The size of the exact search of a player owning `b` arcs among `n`
/// vertices: its `C(n − 1, b)` candidate count, or the refusal when
/// that exceeds [`MAX_EXACT_CANDIDATES`]. Every exact search panics
/// with this refusal; a caller holding untrusted input checks first.
pub fn exact_candidates(n: usize, b: usize) -> Result<u64, TooManyCandidates> {
    let count = enumeration_count(n.saturating_sub(1), b);
    if count <= MAX_EXACT_CANDIDATES {
        Ok(count)
    } else {
        Err(TooManyCandidates { n, b, count })
    }
}

/// A strategy with its cost to the deviating player.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScoredStrategy {
    /// Arc targets (sorted ascending).
    pub targets: Vec<NodeId>,
    /// Cost to the player if it plays `targets`.
    pub cost: u64,
}

/// Exact best response of player `u`: the cheapest strategy over all
/// `C(n−1, b)` candidates, ties broken toward the lexicographically
/// smallest target set. Deterministic.
///
/// ```
/// use bbncg_core::{exact_best_response, CostModel, Realization};
/// use bbncg_graph::{generators, NodeId};
///
/// // On the directed path 0→1→2→3→4, player 0's best single arc under
/// // SUM points at the middle of the remaining path.
/// let r = Realization::new(generators::path(5));
/// let br = exact_best_response(&r, NodeId::new(0), CostModel::Sum);
/// assert_eq!(br.targets, vec![NodeId::new(2)]);
/// assert!(br.cost < r.cost(NodeId::new(0), CostModel::Sum));
/// ```
///
/// # Panics
/// Panics if the candidate space exceeds [`MAX_EXACT_CANDIDATES`].
pub fn exact_best_response(r: &Realization, u: NodeId, model: CostModel) -> ScoredStrategy {
    exact_best_response_with(&mut DeviationScratch::new(r), r, u, model)
}

/// [`exact_best_response`] reusing a caller-held [`DeviationScratch`]
/// — the form batched callers use, so repeated searches share one
/// engine instead of rebuilding per player.
///
/// # Panics
/// Panics if the candidate space exceeds [`MAX_EXACT_CANDIDATES`].
pub fn exact_best_response_with(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> ScoredStrategy {
    if let Some((costs, _)) = closed_form(scratch, r, u, model) {
        return cheapest_below(costs, u64::MAX).expect("a target exists");
    }
    exact_search(scratch, r, u, model, u64::MAX).expect("at least one strategy exists")
}

/// The best strict improvement on `u`'s current strategy under the
/// exact rule: the earliest least-cost strategy strictly cheaper than
/// the current one, or `None` when `u` is already best-responding —
/// the dynamics decision. It equals [`exact_best_response_with`]
/// followed by a strict-improvement check (if the minimum lies below
/// the current cost, the earliest candidate attaining it is the same
/// candidate; otherwise neither moves), but the search starts with the
/// current cost as its incumbent, so every candidate that cannot beat
/// it is pruned or aborted from the first one on, and a current cost
/// at the Lemma 2.2 floor prices no candidate at all.
///
/// # Panics
/// Panics if the candidate space exceeds [`MAX_EXACT_CANDIDATES`].
pub(crate) fn exact_best_improvement(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<ScoredStrategy> {
    if let Some((costs, current)) = closed_form(scratch, r, u, model) {
        return cheapest_below(costs, current);
    }
    let current = current_cost(scratch, r, u, model);
    exact_search(scratch, r, u, model, current)
}

/// The exact search over the whole candidate space on one engine, on
/// the kernels: the earliest least-cost candidate strictly below
/// `ceiling`, or `None` when none goes below it.
pub(crate) fn exact_search(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
    ceiling: u64,
) -> Option<ScoredStrategy> {
    exact_best_over(scratch, r, u, model, ceiling, &mut Whole::<false>::of(r, u)).map(|(s, _)| s)
}

/// [`exact_search`] ended at its first find: the earliest candidate in
/// enumeration order strictly below `ceiling`.
pub(crate) fn first_below(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
    ceiling: u64,
) -> Option<ScoredStrategy> {
    exact_best_over(scratch, r, u, model, ceiling, &mut Whole::<true>::of(r, u)).map(|(s, _)| s)
}

/// Every single-arc candidate's cost, indexed by target, and the
/// current cost, from the engine's closed form when it settles `u`'s
/// activation (`u` owns one arc, no player owns two); `None` sends the
/// search to the kernels.
fn closed_form<'a>(
    scratch: &'a mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<(&'a [u64], u64)> {
    if r.strategy(u).len() != 1 {
        return None;
    }
    scratch.begin(r, u, model);
    scratch.closed_form_costs()
}

/// The earliest least-cost single-arc target strictly below `ceiling`
/// — what the enumeration, which replaces its incumbent only on a
/// strict improvement, returns over the same costs.
fn cheapest_below(costs: &[u64], ceiling: u64) -> Option<ScoredStrategy> {
    let (mut best, mut target) = (ceiling, None);
    for (v, &c) in costs.iter().enumerate() {
        if c < best {
            (best, target) = (c, Some(v));
        }
    }
    target.map(|v| single_arc(v, best))
}

fn single_arc(v: usize, cost: u64) -> ScoredStrategy {
    ScoredStrategy {
        targets: vec![NodeId::new(v)],
        cost,
    }
}

/// `u`'s current cost, priced through a session opened (or reused) on
/// `scratch` for `(u, model)`.
pub(crate) fn current_cost(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> u64 {
    scratch.begin(r, u, model);
    scratch.cost_of(r.strategy(u))
}

/// The [`MAX_EXACT_CANDIDATES`] guard of the exact solver: panics
/// with the [`exact_candidates`] refusal.
pub(crate) fn assert_enumerable(n: usize, b: usize, u: NodeId) {
    if let Err(e) = exact_candidates(n, b) {
        panic!("player {u} {e}; use greedy_best_response or best_swap_response instead");
    }
}

/// The slices of a candidate space one engine prices. Slices are
/// numbered in enumeration order and an engine receives them in
/// increasing order, so its incumbent always comes from earlier in the
/// enumeration than the candidate it prunes against — and a candidate
/// that merely ties it rightly loses.
///
/// Engines splitting one search also share the least cost any of them
/// has found ([`Slices::shared_best`]). That cost may come from a later
/// slice, so a candidate that ties it must still be priced (it would
/// win the merge); an engine prices each candidate against
/// `min(incumbent, shared_best + 1)`, which drops only candidates
/// costing strictly more than some engine's find.
pub(crate) trait Slices {
    /// The next slice to price, `(index, range)`, or `None` when done.
    fn next(&mut self) -> Option<(usize, Range<usize>)>;
    /// Is the search settled before `slice`'s next candidate? A slice
    /// before `slice` reached the Lemma 2.2 floor, so `slice` can at
    /// best tie the proven optimum and lose the tie — or a search that
    /// wants any improvement has found one.
    fn floor_before(&self, slice: usize) -> bool;
    /// `slice` is finished: `examined` candidates priced or pruned, and
    /// whether its incumbent reached the floor.
    fn done(&mut self, slice: usize, examined: u64, floor: bool);
    /// The least cost any engine of this search has found so far
    /// (`u64::MAX` before the first find, and always for a search no
    /// other engine shares).
    fn shared_best(&self) -> u64;
    /// This engine's incumbent improved to `cost`.
    fn publish(&mut self, cost: u64);
}

/// The whole candidate space as one slice, priced alone: the
/// sequential search. With `FIRST` its first find settles it (the
/// better rule and the Nash verdicts); otherwise it runs to the best.
struct Whole<const FIRST: bool> {
    leads: Option<Range<usize>>,
    found: bool,
}

impl<const FIRST: bool> Whole<FIRST> {
    /// `u`'s whole candidate space, once the guard admits it. Leading
    /// elements run over 0..n−b of the (n−1)-element pool; the empty
    /// strategy (b = 0) leads with 0 and ends the enumeration at once.
    fn of(r: &Realization, u: NodeId) -> Self {
        let b = r.graph().out_degree(u);
        assert_enumerable(r.n(), b, u);
        Whole {
            leads: Some(0..r.n() - b),
            found: false,
        }
    }
}

impl<const FIRST: bool> Slices for Whole<FIRST> {
    fn next(&mut self) -> Option<(usize, Range<usize>)> {
        self.leads.take().map(|range| (0, range))
    }

    fn floor_before(&self, _: usize) -> bool {
        FIRST && self.found
    }

    fn done(&mut self, _: usize, _: u64, _: bool) {}

    fn shared_best(&self) -> u64 {
        u64::MAX
    }

    fn publish(&mut self, _: u64) {
        if FIRST {
            self.found = true;
        }
    }
}

/// The bound a candidate must strictly beat: the engine's own
/// `incumbent`, or one past the least cost another engine sharing the
/// search has found — a candidate tying that cost may lie earlier in
/// the enumeration and win the merge, one costing more cannot.
fn pricing_bound(incumbent: u64, slices: &impl Slices) -> u64 {
    incumbent.min(slices.shared_best().saturating_add(1))
}

/// The exact search over the slices `slices` deals, each a range of
/// leading elements: the candidates whose smallest pool index lies in
/// the range form one contiguous stretch of the lexicographic
/// enumeration (the pool is `0..n` without `u`). Candidates must cost
/// strictly less than `ceiling` (`u64::MAX` admits every one, the
/// current cost asks for an improvement); returns the cheapest one
/// found — the earliest among equals — and its slice, or `None` when
/// none goes below the ceiling — at once when the ceiling is at the
/// Lemma 2.2 floor, which no candidate goes below.
pub(crate) fn exact_best_over(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
    ceiling: u64,
    slices: &mut impl Slices,
) -> Option<(ScoredStrategy, usize)> {
    let n = r.n();
    let b = r.graph().out_degree(u);
    scratch.begin(r, u, model);
    let lb = scratch.cost_lower_bound(b);
    if ceiling <= lb {
        return None;
    }
    let mut pool = std::mem::take(&mut scratch.pool_buf);
    let mut targets = std::mem::take(&mut scratch.cand_buf);
    pool.clear();
    pool.extend((0..n).map(NodeId::new).filter(|&t| t != u));
    let mut best: Option<(ScoredStrategy, usize)> = None;
    while let Some((slice, leads)) = slices.next() {
        let mut odometer = CombinationOdometer::from_lead(pool.len(), b, leads.start);
        let (mut examined, mut floor) = (0, false);
        while !slices.floor_before(slice) {
            targets.clear();
            targets.extend(odometer.indices().iter().map(|&i| pool[i]));
            examined += 1;
            // Per-candidate pruning: when the candidate's own Lemma 2.2
            // bound cannot beat the incumbent, skip its BFS entirely. A
            // pruned candidate's true cost is ≥ the incumbent, so neither
            // the optimum nor the lexicographic tie-break can change.
            let incumbent = best.as_ref().map_or(ceiling, |(s, _)| s.cost);
            let bound = pricing_bound(incumbent, slices);
            if let Some(cost) = scratch.cost_of_pruned(&targets, bound) {
                if cost < bound {
                    let found = ScoredStrategy {
                        targets: targets.clone(),
                        cost,
                    };
                    best = Some((found, slice));
                    slices.publish(cost);
                    floor = cost <= lb; // provably optimal
                    if floor {
                        break;
                    }
                }
            }
            if !odometer.advance() || odometer.lead() >= leads.end {
                break;
            }
        }
        slices.done(slice, examined, floor);
        if floor {
            break;
        }
    }
    scratch.pool_buf = pool;
    scratch.cand_buf = targets;
    best
}

/// Greedy heuristic best response: grow the strategy one arc at a time,
/// each time adding the target that minimizes the intermediate cost
/// (ties toward the smallest id). Polynomial: `b · n` oracle calls.
pub fn greedy_best_response(r: &Realization, u: NodeId, model: CostModel) -> ScoredStrategy {
    greedy_best_response_with(&mut DeviationScratch::new(r), r, u, model)
}

/// [`greedy_best_response`] reusing a caller-held [`DeviationScratch`].
pub fn greedy_best_response_with(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> ScoredStrategy {
    if let Some((costs, _)) = closed_form(scratch, r, u, model) {
        return cheapest_below(costs, u64::MAX).expect("a target exists");
    }
    let n = r.n();
    let b = r.graph().out_degree(u);
    scratch.begin(r, u, model);
    let mut trial = std::mem::take(&mut scratch.cand_buf);
    let mut chosen: Vec<NodeId> = Vec::with_capacity(b);
    for _ in 0..b {
        let mut best_t: Option<(u64, NodeId)> = None;
        for t in (0..n).map(NodeId::new) {
            if t == u || chosen.contains(&t) {
                continue;
            }
            trial.clear();
            trial.extend_from_slice(&chosen);
            trial.push(t);
            let incumbent = best_t.map_or(u64::MAX, |(c, _)| c);
            if let Some(cost) = scratch.cost_of_pruned(&trial, incumbent) {
                if cost < incumbent {
                    best_t = Some((cost, t));
                }
            }
        }
        let (_, t) = best_t.expect("pool cannot be empty while budget remains");
        chosen.push(t);
    }
    scratch.cand_buf = trial;
    chosen.sort_unstable();
    let cost = scratch.cost_of(&chosen);
    ScoredStrategy {
        targets: chosen,
        cost,
    }
}

/// First **better** response of player `u`: enumerate strategies in
/// lexicographic order and return the first one strictly cheaper than
/// the current strategy, or `None` if `u` is already best-responding.
/// This is the "better-response dynamics" move rule — cheaper per
/// activation than [`exact_best_response`] when improvements are
/// plentiful, identical convergence guarantees.
///
/// # Panics
/// Panics if the candidate space exceeds [`MAX_EXACT_CANDIDATES`].
pub fn first_improving_response(
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<ScoredStrategy> {
    first_improving_response_with(&mut DeviationScratch::new(r), r, u, model)
}

/// [`first_improving_response`] reusing a caller-held
/// [`DeviationScratch`].
///
/// # Panics
/// Panics if the candidate space exceeds [`MAX_EXACT_CANDIDATES`].
pub fn first_improving_response_with(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<ScoredStrategy> {
    if r.graph().out_degree(u) == 0 {
        return None;
    }
    if let Some((costs, current)) = closed_form(scratch, r, u, model) {
        // The first improvement in enumeration (target) order.
        return costs
            .iter()
            .position(|&c| c < current)
            .map(|v| single_arc(v, costs[v]));
    }
    let current = current_cost(scratch, r, u, model);
    first_below(scratch, r, u, model, current)
}

/// Best single-arc swap for `u`: over every owned arc `u → old` and
/// every non-target `new`, the cheapest strategy obtained by replacing
/// `old` with `new`. Returns `None` if `u` owns no arcs. The result may
/// be the current strategy (cost ties included) — callers that need a
/// strict improvement compare against the current cost.
pub fn best_swap_response(r: &Realization, u: NodeId, model: CostModel) -> Option<ScoredStrategy> {
    best_swap_response_with(&mut DeviationScratch::new(r), r, u, model)
}

/// [`best_swap_response`] reusing a caller-held [`DeviationScratch`].
pub fn best_swap_response_with(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<ScoredStrategy> {
    if r.strategy(u).is_empty() {
        return None;
    }
    let better = best_swap_improvement(scratch, r, u, model);
    // No improving swap: the current strategy, priced through the
    // session the search opened.
    Some(better.unwrap_or_else(|| ScoredStrategy {
        cost: scratch.cost_of(r.strategy(u)),
        targets: r.strategy(u).to_vec(),
    }))
}

/// The best strictly improving single-arc swap for `u` — the earliest
/// least-cost swap cheaper than the current strategy — or `None` when
/// no swap improves (or `u` owns no arcs): the dynamics decision of the
/// swap rule. A current cost at the Lemma 2.2 floor settles it at once;
/// otherwise one swap sweep (`crate::sweep`) prices every (slot,
/// target) pair on this engine.
pub(crate) fn best_swap_improvement(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<ScoredStrategy> {
    // One owned arc: the swaps are every target but the current one,
    // which costs exactly the current cost and so never improves.
    if let Some((costs, current)) = closed_form(scratch, r, u, model) {
        return cheapest_below(costs, current);
    }
    scratch.begin(r, u, model);
    let current = scratch.sweep_current_cost();
    if current <= scratch.cost_lower_bound(r.strategy(u).len()) {
        return None;
    }
    scratch.sweep_open();
    scratch.sweep_run(0..r.n());
    let own = scratch.sweep_part();
    swept_swap(scratch, r, u, [own], current)
}

/// The sweep's decision over the merged `parts` of `u`'s activation —
/// the caller's engine's own first — as a strategy: the earliest
/// least-cost swap strictly below `ceiling`.
pub(crate) fn swept_swap(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    parts: impl IntoIterator<Item = SweepPart>,
    ceiling: u64,
) -> Option<ScoredStrategy> {
    let (slot, target, cost) = scratch.sweep_best(parts, ceiling)?;
    let mut targets = r.strategy(u).to_vec();
    targets[slot] = target;
    targets.sort_unstable();
    Some(ScoredStrategy { targets, cost })
}

/// The per-pair swap search, the independent oracle behind
/// [`crate::is_swap_equilibrium`]: every owned arc `u → old` and every
/// `new` outside the strategy, slot by slot and target by target, each
/// candidate priced on the kernel against the incumbent (starting from
/// the current cost); the earliest least-cost swap strictly below the
/// current cost, or `None`. Unit-budget activations take the closed
/// form, as every search does.
pub(crate) fn best_swap_per_pair(
    scratch: &mut DeviationScratch,
    r: &Realization,
    u: NodeId,
    model: CostModel,
) -> Option<ScoredStrategy> {
    if r.strategy(u).is_empty() {
        return None;
    }
    if let Some((costs, current)) = closed_form(scratch, r, u, model) {
        return cheapest_below(costs, current);
    }
    let n = r.n();
    let current = current_cost(scratch, r, u, model);
    let lb = scratch.cost_lower_bound(r.strategy(u).len());
    let mut trial = std::mem::take(&mut scratch.cand_buf);
    let mut best: Option<ScoredStrategy> = None;
    'pairs: for i in 0..r.strategy(u).len() {
        for new in (0..n).map(NodeId::new) {
            if new == u || r.strategy(u).contains(&new) {
                continue;
            }
            let incumbent = best.as_ref().map_or(current, |s| s.cost);
            if incumbent <= lb {
                break 'pairs; // at the Lemma 2.2 floor nothing improves
            }
            trial.clear();
            trial.extend_from_slice(r.strategy(u));
            trial[i] = new;
            if let Some(cost) = scratch.cost_of_pruned(&trial, incumbent) {
                if cost < incumbent {
                    let mut targets = trial.clone();
                    targets.sort_unstable();
                    best = Some(ScoredStrategy { targets, cost });
                }
            }
        }
    }
    scratch.cand_buf = trial;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CostKernel;
    use bbncg_graph::OwnedDigraph;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Path 0->1->2->3->4: the middle is the best single target.
    fn path5() -> Realization {
        Realization::new(OwnedDigraph::from_arcs(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        ))
    }

    #[test]
    fn exact_br_moves_leaf_to_center_sum() {
        // Player 0 owns 0->1. Its SUM-optimal single arc is to v2
        // (cost 1+1+2+2 = 6) rather than staying at v1 (1+1+2+3 = 7)?
        // Careful: the rest of the graph is the path 1-2-3-4.
        // Linking to v2: dists 2,1,2(?),... compute: 0-2 edge, so
        // d(0,2)=1, d(0,1)=2, d(0,3)=2, d(0,4)=3 -> 8. Linking v1:
        // 1,2,3,4 -> 10. Linking v2 is better; linking v3 (1,2,3(0-3=1!)):
        // d(0,3)=1, d(0,2)=2, d(0,4)=2, d(0,1)=3 -> 8 too. Lex tie-break
        // picks v2.
        let r = path5();
        let br = exact_best_response(&r, v(0), CostModel::Sum);
        assert_eq!(br.targets, vec![v(2)]);
        assert_eq!(br.cost, 8);
    }

    #[test]
    fn exact_br_max_prefers_center() {
        let r = path5();
        let br = exact_best_response(&r, v(0), CostModel::Max);
        // Linking the middle of the path 1-2-3-4: v2 gives ecc 3
        // (to v4: 0-2-3-4), v3 gives ecc(0)=... 0-3: d(0,1)=3? path
        // 1-2-3: d(0,1) = 1+2 = 3 -> ecc 3. Both give 3? v2: d(0,4)=3,
        // d(0,1)=2 -> ecc 3. Either way cost 3? Hmm: can u do better?
        // ecc >= 2 since u adjacent to at most 1 vertex. Any single arc
        // into the 4-path has ecc >= 2; arc to v2: max(1,2,2,3)=3; to
        // v3: max(3,2,1,2)=3. So best is 2? No strategy achieves 2.
        assert_eq!(br.cost, 3);
        assert_eq!(br.targets, vec![v(2)]);
    }

    #[test]
    fn exact_cost_matches_full_recompute() {
        let r = path5();
        for model in CostModel::ALL {
            for u in 0..5 {
                let br = exact_best_response(&r, v(u), model);
                let dev = r.with_strategy(v(u), br.targets.clone());
                assert_eq!(dev.cost(v(u), model), br.cost);
            }
        }
    }

    #[test]
    fn zero_budget_best_response_is_empty() {
        let r = path5();
        let br = exact_best_response(&r, v(4), CostModel::Sum);
        assert!(br.targets.is_empty());
        assert_eq!(br.cost, r.cost(v(4), CostModel::Sum));
    }

    #[test]
    fn greedy_matches_exact_on_small_instances() {
        // Greedy is a heuristic, but on a 5-path with budget 1 it must
        // agree with exact (single-arc choice is exhaustive).
        let r = path5();
        for model in CostModel::ALL {
            let g = greedy_best_response(&r, v(0), model);
            let e = exact_best_response(&r, v(0), model);
            assert_eq!(g.cost, e.cost);
        }
    }

    #[test]
    fn swap_response_finds_the_single_swap() {
        let r = path5();
        let s = best_swap_response(&r, v(0), CostModel::Sum).unwrap();
        let e = exact_best_response(&r, v(0), CostModel::Sum);
        // Budget 1: swap space == full space.
        assert_eq!(s.cost, e.cost);
        assert_eq!(s.targets, e.targets);
    }

    #[test]
    fn swap_response_none_for_zero_budget() {
        let r = path5();
        assert!(best_swap_response(&r, v(4), CostModel::Max).is_none());
    }

    #[test]
    fn is_best_response_stops_at_the_first_improvement() {
        // Every refutable player of the directed 9-path, on each kernel:
        // the Nash check examines the current strategy (its one pricing
        // through `cost_of`), then the candidates in enumeration order up
        // to the first strictly improving one, and none after it.
        let arcs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        let r = Realization::new(OwnedDigraph::from_arcs(9, &arcs));
        let mut refuted = 0;
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            for model in CostModel::ALL {
                for u in (0..8).map(v) {
                    // One arc each: the candidates are the single targets.
                    let current = r.cost(u, model);
                    let Some(first) = (0..9)
                        .map(v)
                        .filter(|&t| t != u)
                        .position(|t| r.with_strategy(u, vec![t]).cost(u, model) < current)
                    else {
                        continue;
                    };
                    let mut scratch = DeviationScratch::with_kernel(&r, kernel);
                    assert!(!crate::is_best_response_with(&mut scratch, &r, u, model));
                    let examined = 1 + first as u64 + 1;
                    assert_eq!(scratch.examined(), examined, "{kernel:?} {model:?} {u}");
                    refuted += 1;
                }
            }
        }
        assert!(refuted >= 8, "the path refutes players under both models");
    }

    #[test]
    fn first_improving_improves_or_none() {
        let r = path5();
        for model in CostModel::ALL {
            for u in 0..5 {
                let u = v(u);
                match first_improving_response(&r, u, model) {
                    Some(s) => {
                        assert!(s.cost < r.cost(u, model));
                        let applied = r.with_strategy(u, s.targets.clone());
                        assert_eq!(applied.cost(u, model), s.cost);
                    }
                    None => {
                        // Must coincide with the exact verdict.
                        assert!(crate::equilibrium::is_best_response(&r, u, model));
                    }
                }
            }
        }
    }

    #[test]
    fn budget_two_exact_br() {
        // Star with center 0 owning nothing; vertex 1 has budget 2.
        // Graph: 1->0, 1->2, 3->0, 4->0. Player 1's options pair up.
        let g = OwnedDigraph::from_arcs(5, &[(1, 0), (1, 2), (3, 0), (4, 0)]);
        let r = Realization::new(g);
        let br = exact_best_response(&r, v(1), CostModel::Sum);
        // v1 must keep v2 connected (v2 has no other edge) and stay
        // near the star: {0, 2} gives d = 1,1,2,2 -> 6; {2, x} for
        // x in {3,4}: 1(2),1(x),2(0),3(other) -> 7. {0,2} optimal.
        assert_eq!(br.targets, vec![v(0), v(2)]);
        assert_eq!(br.cost, 6);
    }
}
