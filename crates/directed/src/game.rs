//! The directed BBC game: model, costs, exact best response.
//!
//! Model (Laoutaris, Poplawski, Rajaraman, Sundaram, Teng — PODC 2008):
//! player `i` buys exactly `bᵢ` **directed** links; a link `i → j` can
//! be traversed only from `i` to `j`. Player `i`'s cost is the sum of
//! its *directed* distances to all other players. For comparability
//! with the undirected game we price unreachable targets at
//! `C_inf = n²` (the original paper's disconnection penalty plays the
//! same role).
//!
//! Distances from `u` depend only on `u`'s own out-links plus everyone
//! else's (a path from `u` never benefits from re-entering `u`), so
//! best response again reduces to pricing `C(n−1, b)` candidate sets —
//! here with *directed* BFS over the graph-minus-`u`'s-links plus the
//! candidate links as a patch.

use bbncg_core::oracle::CombinationOdometer;
use bbncg_core::{c_inf, exact_candidates, BudgetVector, ScoredStrategy};
use bbncg_graph::{NodeId, OwnedDigraph};

/// A strategy profile of the directed game.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DirectedRealization {
    g: OwnedDigraph,
}

impl DirectedRealization {
    /// Wrap an ownership digraph (arcs are the one-way links).
    pub fn new(g: OwnedDigraph) -> Self {
        DirectedRealization { g }
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The link digraph.
    pub fn graph(&self) -> &OwnedDigraph {
        &self.g
    }

    /// The instance's budget vector.
    pub fn budgets(&self) -> BudgetVector {
        BudgetVector::of_realization(&self.g)
    }

    /// Replace player `u`'s out-links.
    pub fn set_strategy(&mut self, u: NodeId, targets: Vec<NodeId>) {
        assert_eq!(
            targets.len(),
            self.g.out_degree(u),
            "strategy size must equal the budget of {u}"
        );
        self.g.set_out(u, targets);
    }

    /// Directed BFS from `src`, with `src`'s own out-links overridden by
    /// `patch` when `Some`. Returns `(sum_of_distances, reached)`.
    fn directed_bfs(&self, src: NodeId, patch: Option<&[NodeId]>) -> (u64, usize) {
        let n = self.n();
        let mut dist = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        dist[src.index()] = 0;
        queue.push(src);
        let mut head = 0;
        let mut sum = 0u64;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let dv = dist[v.index()];
            sum += dv as u64;
            let outs: &[NodeId] = if v == src {
                match patch {
                    Some(p) => p,
                    None => self.g.out(v),
                }
            } else {
                self.g.out(v)
            };
            for &w in outs {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = dv + 1;
                    queue.push(w);
                }
            }
        }
        (sum, queue.len())
    }

    /// Directed SUM cost of `u`: `Σ_v dist→(u, v)` with `n²` per
    /// unreachable vertex.
    pub fn cost(&self, u: NodeId) -> u64 {
        let (sum, reached) = self.directed_bfs(u, None);
        sum + (self.n() - reached) as u64 * c_inf(self.n())
    }

    /// Cost of `u` if it replaced its links with `targets`.
    pub fn cost_with_strategy(&self, u: NodeId, targets: &[NodeId]) -> u64 {
        let (sum, reached) = self.directed_bfs(u, Some(targets));
        sum + (self.n() - reached) as u64 * c_inf(self.n())
    }

    /// Directed eccentricity of every vertex (max directed distance;
    /// `u32::MAX` if some vertex is unreachable).
    pub fn directed_eccentricities(&self) -> Vec<u32> {
        let n = self.n();
        (0..n)
            .map(|u| {
                let mut dist = vec![u32::MAX; n];
                let mut queue = Vec::with_capacity(n);
                dist[u] = 0;
                queue.push(NodeId::new(u));
                let mut head = 0;
                let mut ecc = 0;
                while head < queue.len() {
                    let v = queue[head];
                    head += 1;
                    ecc = ecc.max(dist[v.index()]);
                    for &w in self.g.out(v) {
                        if dist[w.index()] == u32::MAX {
                            dist[w.index()] = dist[v.index()] + 1;
                            queue.push(w);
                        }
                    }
                }
                if queue.len() == n {
                    ecc
                } else {
                    u32::MAX
                }
            })
            .collect()
    }

    /// Directed diameter: max directed distance over all ordered pairs,
    /// or `None` if some pair is unreachable.
    pub fn directed_diameter(&self) -> Option<u32> {
        let eccs = self.directed_eccentricities();
        if eccs.contains(&u32::MAX) {
            None
        } else {
            eccs.into_iter().max()
        }
    }
}

/// Exact best response of player `u` in the directed game (ties toward
/// the lexicographically smallest target set).
///
/// # Panics
/// Panics if the candidate space exceeds
/// [`MAX_EXACT_CANDIDATES`](bbncg_core::MAX_EXACT_CANDIDATES).
pub fn directed_best_response(r: &DirectedRealization, u: NodeId) -> ScoredStrategy {
    let n = r.n();
    let b = r.graph().out_degree(u);
    if let Err(e) = exact_candidates(n, b) {
        panic!("directed game: player {u} {e}");
    }
    let pool: Vec<NodeId> = (0..n).map(NodeId::new).filter(|&t| t != u).collect();
    let mut odometer = CombinationOdometer::new(pool.len(), b);
    let mut targets: Vec<NodeId> = Vec::with_capacity(b);
    let mut best: Option<ScoredStrategy> = None;
    loop {
        targets.clear();
        targets.extend(odometer.indices().iter().map(|&i| pool[i]));
        let cost = r.cost_with_strategy(u, &targets);
        if best.as_ref().is_none_or(|s| cost < s.cost) {
            best = Some(ScoredStrategy {
                targets: targets.clone(),
                cost,
            });
        }
        if !odometer.advance() {
            break;
        }
    }
    best.expect("at least one strategy exists")
}

/// Is `u` best-responding in the directed game?
pub fn directed_is_best_response(r: &DirectedRealization, u: NodeId) -> bool {
    if r.graph().out_degree(u) == 0 {
        return true;
    }
    directed_best_response(r, u).cost >= r.cost(u)
}

/// Is the profile a Nash equilibrium of the directed game? (Parallel
/// over players.)
pub fn directed_is_nash(r: &DirectedRealization) -> bool {
    let flags = bbncg_par::par_map_index(r.n(), |i| directed_is_best_response(r, NodeId::new(i)));
    flags.into_iter().all(|ok| ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn directed_distances_are_one_way() {
        // 0 -> 1 -> 2: from 0 all reachable; from 2 nothing is.
        let r = DirectedRealization::new(OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]));
        assert_eq!(r.cost(v(0)), 1 + 2);
        assert_eq!(r.cost(v(2)), 2 * 9); // both unreachable at n² = 9
        assert_eq!(r.directed_diameter(), None);
    }

    #[test]
    fn directed_cycle_costs() {
        let r = DirectedRealization::new(bbncg_graph::generators::cycle(4));
        // Every vertex reaches the others at distances 1, 2, 3.
        for u in 0..4 {
            assert_eq!(r.cost(v(u)), 6);
        }
        assert_eq!(r.directed_diameter(), Some(3));
    }

    #[test]
    fn directed_cycle_is_nash_for_unit_budgets() {
        // In the directed unit-budget game the directed cycle is a
        // natural equilibrium candidate: any re-target strands the
        // player's successor chain. Verify exactly at n = 5.
        let r = DirectedRealization::new(bbncg_graph::generators::cycle(5));
        assert!(directed_is_nash(&r));
    }

    #[test]
    fn best_response_reconnects() {
        // 0 -> 1, 1 -> 0, 2 -> 0: player 2 is fine; player 0 could
        // prefer pointing at 2? From 0: via 1? 1 -> 0 only. 0 -> 1
        // gives d(1) = 1, d(2) unreachable -> 1 + 9. 0 -> 2 gives
        // d(2) = 1, d(1) unreachable -> 1 + 9. Tie; lex keeps {1}.
        let r = DirectedRealization::new(OwnedDigraph::from_arcs(3, &[(0, 1), (1, 0), (2, 0)]));
        let br = directed_best_response(&r, v(0));
        assert_eq!(br.cost, 1 + 9);
        assert_eq!(br.targets, vec![v(1)]);
    }

    #[test]
    fn cost_with_strategy_matches_applied() {
        let r = DirectedRealization::new(OwnedDigraph::from_arcs(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        ));
        let mut r2 = r.clone();
        r2.set_strategy(v(1), vec![v(4)]);
        assert_eq!(r.cost_with_strategy(v(1), &[v(4)]), r2.cost(v(1)));
    }

    #[test]
    fn directed_vs_undirected_cost_differ() {
        // The same arcs under the undirected game give strictly lower
        // costs (links usable both ways) — the model distinction.
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]);
        let directed = DirectedRealization::new(g.clone());
        let undirected = bbncg_core::Realization::new(g);
        assert!(directed.cost(v(2)) > undirected.cost(v(2), bbncg_core::CostModel::Sum));
    }
}
