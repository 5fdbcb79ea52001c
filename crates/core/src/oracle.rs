//! The deviation oracle: evaluating candidate strategies cheaply.
//!
//! To decide whether player `u` is playing a best response we must price
//! every alternative strategy `S` (there are `C(n−1, bᵤ)` of them —
//! Theorem 2.1 says this problem is NP-hard, and exhaustive search over
//! this space is exactly what the exact solver does). The oracle makes
//! each evaluation O(n + m) with **zero allocation**:
//!
//! 1. build, once per player, the CSR of the graph with `u`'s owned arcs
//!    removed, plus its connected components;
//! 2. price a candidate `S` with one *patched* BFS (the removed-arc CSR
//!    plus virtual edges `{u, s}` for `s ∈ S`);
//! 3. recover the component count after the deviation from the
//!    precomputed labels: the components touched by `{u} ∪ S` merge into
//!    one.

use crate::cost::CostModel;
use crate::deviation::DeviationScratch;
use crate::realization::Realization;
use bbncg_graph::NodeId;

/// Prices candidate strategies for one fixed player.
///
/// This is a single-session convenience wrapper over
/// [`DeviationScratch`]: construction opens one pricing session and
/// every evaluation runs through the engine's in-place-patched graph.
/// Code that prices deviations for *many* players (dynamics, Nash
/// verification) should hold a [`DeviationScratch`] directly and call
/// [`DeviationScratch::begin`] per player, amortizing the engine
/// across activations.
#[derive(Debug)]
pub struct DeviationOracle {
    u: NodeId,
    scratch: DeviationScratch,
}

impl DeviationOracle {
    /// Build the oracle for player `u` of `r` under `model`.
    pub fn new(r: &Realization, u: NodeId, model: CostModel) -> Self {
        let mut scratch = DeviationScratch::new(r);
        scratch.begin(r, u, model);
        DeviationOracle { u, scratch }
    }

    /// The player this oracle prices deviations for.
    pub fn player(&self) -> NodeId {
        self.u
    }

    /// Cost to `u` of playing the strategy `targets` (everything else
    /// fixed). `targets` need not have full budget size — the oracle is
    /// also used mid-construction by the greedy heuristic.
    pub fn cost_of(&mut self, targets: &[NodeId]) -> u64 {
        self.scratch.cost_of(targets)
    }

    /// A lower bound on the cost of *any* strategy of size `b` for this
    /// player, used for early exit: once a candidate attains it, no
    /// better one exists. Derived from the Lemma 2.2 argument — a player
    /// has distance 1 to at most (budget + distinct in-neighbours)
    /// vertices and at least 2 to the rest.
    pub fn cost_lower_bound(&self, b: usize) -> u64 {
        self.scratch.cost_lower_bound(b)
    }
}

/// Number of `b`-subsets of an `m`-element pool, saturating at
/// `u64::MAX`. Used to guard exact enumeration.
pub fn enumeration_count(m: usize, b: usize) -> u64 {
    if b > m {
        return 0;
    }
    let b = b.min(m - b);
    let mut acc: u64 = 1;
    for i in 0..b {
        // acc * (m - i) / (i + 1), with overflow saturation.
        match acc.checked_mul((m - i) as u64) {
            Some(x) => acc = x / (i as u64 + 1),
            None => return u64::MAX,
        }
    }
    acc
}

/// Lexicographic odometer over `k`-subsets of `0..m`, lending-style:
/// call [`CombinationOdometer::indices`] to read the current subset and
/// [`CombinationOdometer::advance`] to step. Starts at `{0,1,…,k−1}`.
#[derive(Debug)]
pub struct CombinationOdometer {
    m: usize,
    idx: Vec<usize>,
}

impl CombinationOdometer {
    /// First `k`-subset of `0..m`.
    ///
    /// # Panics
    /// Panics if `k > m`.
    pub fn new(m: usize, k: usize) -> Self {
        Self::from_lead(m, k, 0)
    }

    /// First `k`-subset of `0..m` whose smallest element is `lead`:
    /// `{lead, lead+1, …, lead+k−1}`. Enumeration from here visits, in
    /// lexicographic order, every subset whose smallest element is
    /// `≥ lead` — so a range of leading elements is a contiguous
    /// stretch of the full enumeration.
    ///
    /// # Panics
    /// Panics if `k > m` or the subset does not fit (`lead + k > m`).
    pub fn from_lead(m: usize, k: usize, lead: usize) -> Self {
        assert!(k <= m, "cannot choose {k} from {m}");
        assert!(lead + k <= m, "no {k}-subset of 0..{m} starts at {lead}");
        CombinationOdometer {
            m,
            idx: (lead..lead + k).collect(),
        }
    }

    /// The current subset, strictly increasing.
    pub fn indices(&self) -> &[usize] {
        &self.idx
    }

    /// The current subset's smallest element (0 for the empty subset,
    /// which by convention leads with element 0).
    pub fn lead(&self) -> usize {
        self.idx.first().copied().unwrap_or(0)
    }

    /// Step to the next subset in lexicographic order; `false` when
    /// exhausted.
    pub fn advance(&mut self) -> bool {
        let k = self.idx.len();
        if k == 0 {
            return false;
        }
        let mut i = k;
        while i > 0 {
            i -= 1;
            if self.idx[i] != i + self.m - k {
                self.idx[i] += 1;
                for j in i + 1..k {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_graph::OwnedDigraph;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn oracle_matches_full_recomputation() {
        // Path 0->1->2->3; player 1 deviates to {3}.
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = Realization::new(g);
        for model in CostModel::ALL {
            let mut oracle = DeviationOracle::new(&r, v(1), model);
            // Current strategy must price identically to the realization.
            assert_eq!(oracle.cost_of(&[v(2)]), r.cost(v(1), model));
            // Deviation {3}: graph edges 0-1, 2-3, 1-3.
            let deviated = r.with_strategy(v(1), vec![v(3)]);
            assert_eq!(oracle.cost_of(&[v(3)]), deviated.cost(v(1), model));
            // Deviation {0}: creates brace {0,1}, disconnects 2-3 from it.
            let deviated = r.with_strategy(v(1), vec![v(0)]);
            assert_eq!(oracle.cost_of(&[v(0)]), deviated.cost(v(1), model));
        }
    }

    #[test]
    fn oracle_kappa_accounting_across_components() {
        // Three components: {0,1}, {2}, {3,4}. Player 0 owns one arc.
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (3, 4)]);
        let r = Realization::new(g);
        for model in CostModel::ALL {
            let mut oracle = DeviationOracle::new(&r, v(0), model);
            for target in [1usize, 2, 3] {
                let deviated = r.with_strategy(v(0), vec![v(target)]);
                assert_eq!(
                    oracle.cost_of(&[v(target)]),
                    deviated.cost(v(0), model),
                    "target {target} model {model:?}"
                );
            }
        }
    }

    #[test]
    fn lower_bound_is_sound_on_small_graphs() {
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = Realization::new(g);
        for model in CostModel::ALL {
            for u in 0..5 {
                let u = v(u);
                let b = r.graph().out_degree(u);
                let mut oracle = DeviationOracle::new(&r, u, model);
                let lb = oracle.cost_lower_bound(b);
                // Enumerate all strategies of size b and check the bound.
                if b == 0 {
                    assert!(oracle.cost_of(&[]) >= lb);
                    continue;
                }
                let pool: Vec<NodeId> = (0..5).map(v).filter(|&t| t != u).collect();
                let mut od = CombinationOdometer::new(pool.len(), b);
                loop {
                    let targets: Vec<NodeId> = od.indices().iter().map(|&i| pool[i]).collect();
                    assert!(oracle.cost_of(&targets) >= lb);
                    if !od.advance() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn enumeration_count_small_values() {
        assert_eq!(enumeration_count(5, 0), 1);
        assert_eq!(enumeration_count(5, 2), 10);
        assert_eq!(enumeration_count(5, 5), 1);
        assert_eq!(enumeration_count(5, 6), 0);
        assert_eq!(enumeration_count(50, 25), 126_410_606_437_752);
        assert_eq!(enumeration_count(200, 100), u64::MAX); // saturates
    }

    #[test]
    fn odometer_enumerates_all_subsets_in_lex_order() {
        let mut od = CombinationOdometer::new(4, 2);
        let mut seen = vec![od.indices().to_vec()];
        while od.advance() {
            seen.push(od.indices().to_vec());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn odometer_from_lead_resumes_the_full_enumeration() {
        let mut full = CombinationOdometer::new(5, 2);
        let mut all = vec![full.indices().to_vec()];
        while full.advance() {
            all.push(full.indices().to_vec());
        }
        for lead in 0..4 {
            let mut od = CombinationOdometer::from_lead(5, 2, lead);
            assert_eq!(od.lead(), lead);
            let mut tail = vec![od.indices().to_vec()];
            while od.advance() {
                tail.push(od.indices().to_vec());
            }
            let skip = all.iter().position(|s| s[0] == lead).unwrap();
            assert_eq!(tail, all[skip..], "lead {lead}");
        }
    }

    #[test]
    fn odometer_empty_subset() {
        let mut od = CombinationOdometer::new(3, 0);
        assert!(od.indices().is_empty());
        assert!(!od.advance());
    }

    #[test]
    fn odometer_full_subset() {
        let mut od = CombinationOdometer::new(3, 3);
        assert_eq!(od.indices(), &[0, 1, 2]);
        assert!(!od.advance());
    }
}
