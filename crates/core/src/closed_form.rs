//! Closed-form SUM pricing of every single-arc candidate at once, for
//! the paper's unit-budget class (§4, Thm 4.1/4.2).
//!
//! When no player owns two arcs the ownership graph is a pseudoforest:
//! arcs are parent pointers, and each weakly connected component has at
//! most one cycle (a brace is a 2-cycle). Detach the deviator `u`'s one
//! arc and `u`'s component `T` becomes an in-tree rooted at `u`; every
//! other component `C` is an in-tree or an in-forest hanging off one
//! cycle. One in-degree peel gives every subtree size and distance sum,
//! and from those the SUM cost of each target `v` follows in `O(1)`:
//!
//! * `v ∈ T` at depth `L` on the root path `u = p₀ … p_L = v`: the new
//!   edge closes a cycle of length `L + 1`, and a vertex hanging off
//!   `pᵢ` moves from depth `i` to `min(i, L + 1 − i)`. Summing those
//!   gains by parts,
//!   `cost(v) = S_u − (2m−L−1)·size(p_m) − 2·Σ_{j=m+1..L} size(p_j) + (n−|T|)·n²`
//!   with `m = ⌊(L+1)/2⌋ + 1` (no size terms when `m > L`), where `S_u`
//!   is `u`'s distance sum in `T`. A DFS from `u` that keeps the sizes
//!   and prefix sums of the root path prices each `v` as it is reached.
//! * `v ∈ C`: the new edge is a bridge, so
//!   `cost(v) = S_u + |C| + D_C(v) + (n−|T|−|C|)·n²`, with `D_C(v)` the
//!   distance sum from `v` inside `C` — prefix sums around the cycle
//!   give it on the cycle, and rerooting across each tree edge
//!   (`D(x) = D(parent) + |C| − 2·size(x)`) gives it everywhere else.
//!
//! So pricing all `n − 1` candidates costs `O(n)` in total instead of
//! one BFS each. The buffers are sized on first use and reused across
//! activations; nothing is allocated per activation once warm.

use crate::cost::c_inf;
use bbncg_graph::{CompactCsr, NodeId, OwnedDigraph};

/// "No parent": the deviator, and the roots of tree components.
const NONE: u32 = u32::MAX;

/// Reusable buffers of the closed-form pricer.
#[derive(Debug, Default)]
pub(crate) struct ClosedForm {
    /// Owned-arc target of each vertex in the detached profile.
    parent: Vec<u32>,
    /// Unpeeled in-degree; nonzero after the peel exactly on cycles.
    indeg: Vec<u32>,
    /// Size of each vertex's subtree (its hanging tree, on a cycle).
    size: Vec<u32>,
    /// Distance sum from each vertex over its subtree; then, in place
    /// once nothing reads that sum any more, the SUM cost to the
    /// deviator of targeting the vertex (`u64::MAX` at the deviator).
    sums: Vec<u64>,
    /// Peel order: every vertex after all of its children.
    order: Vec<u32>,
    /// The cycle being priced, in parent-pointer order.
    cycle: Vec<u32>,
    /// Prefix sums over the cycle walked twice: hanging-tree sizes, and
    /// sizes weighted by position.
    ring: Vec<(u64, u64)>,
    /// DFS stack over `T`: `(vertex, depth)`.
    stack: Vec<(u32, u32)>,
    /// Root path of the current DFS vertex by depth:
    /// `(size(p_d), Σ_{j=1..d} size(p_j))`.
    path: Vec<(u64, u64)>,
}

impl ClosedForm {
    /// The costs of the last [`ClosedForm::price`], indexed by target.
    pub(crate) fn costs(&self) -> &[u64] {
        &self.sums
    }

    /// Price every single-arc target of `u` under SUM. `mirror` is the
    /// profile (no player owning two arcs, `u` owning one), `detached`
    /// its undirected view without `u`'s arc, and `comp_label` /
    /// `comp_sizes` that view's components.
    pub(crate) fn price(
        &mut self,
        mirror: &OwnedDigraph,
        detached: &CompactCsr,
        u: NodeId,
        comp_label: &[u32],
        comp_sizes: &[usize],
    ) {
        let n = mirror.n();
        if self.sums.len() != n {
            self.parent.resize(n, NONE);
            self.indeg.resize(n, 0);
            self.size.resize(n, 0);
            self.sums.resize(n, 0);
        }
        let ui = u.index();
        self.indeg.fill(0);
        for x in 0..n {
            let p = match mirror.out(NodeId::new(x)) {
                [t] if x != ui => t.index() as u32,
                targets => {
                    debug_assert!(targets.len() <= 1, "player {x} owns two arcs");
                    NONE
                }
            };
            self.parent[x] = p;
            if p != NONE {
                self.indeg[p as usize] += 1;
            }
        }
        self.peel(n);

        let cinf = c_inf(n);
        let t_label = comp_label[ui];
        let t_size = comp_sizes[t_label as usize] as u64;
        debug_assert_eq!(self.size[ui] as u64, t_size, "u's component is an in-tree");
        let s_u = self.sums[ui];
        // Cost of a target in component C, less its distance sum D_C.
        let base = |c: u64| s_u + c + (n as u64 - t_size - c) * cinf;

        for x in 0..n {
            if self.indeg[x] > 0 {
                let c = comp_sizes[comp_label[x] as usize] as u64;
                self.price_cycle(x, base(c));
            }
        }
        // Parents before children: roots and cycles are priced, and
        // each tree edge reroots the distance sum.
        for &x in self.order.iter().rev() {
            let x = x as usize;
            let label = comp_label[x];
            if label == t_label {
                continue;
            }
            let c = comp_sizes[label as usize] as u64;
            self.sums[x] = match self.parent[x] {
                NONE => base(c) + self.sums[x],
                p => self.sums[p as usize] + c - 2 * self.size[x] as u64,
            };
        }
        self.price_tree(detached, ui, s_u, (n as u64 - t_size) * cinf);
    }

    /// Sizes and distance sums of every subtree, children first; the
    /// vertices left with in-degree above zero lie on cycles and carry
    /// their hanging trees' totals.
    fn peel(&mut self, n: usize) {
        self.size.fill(1);
        self.sums.fill(0);
        self.order.clear();
        self.order
            .extend((0..n as u32).filter(|&x| self.indeg[x as usize] == 0));
        let mut head = 0;
        while let Some(&x) = self.order.get(head) {
            head += 1;
            let x = x as usize;
            let p = self.parent[x];
            if p == NONE {
                continue;
            }
            let p = p as usize;
            self.size[p] += self.size[x];
            self.sums[p] += self.sums[x] + self.size[x] as u64;
            self.indeg[p] -= 1;
            if self.indeg[p] == 0 {
                self.order.push(p as u32);
            }
        }
    }

    /// Price the cycle through `start`, clearing its in-degrees so it is
    /// priced once: `D(cᵢ) = Σ_j sums(c_j) + Σ_j size(c_j)·d(i, j)`
    /// over the hanging trees' distance sums and sizes, with cycle
    /// distance `d(i, j) = min(|i−j|, k−|i−j|)` read off prefix sums
    /// over the cycle walked twice.
    fn price_cycle(&mut self, start: usize, base: u64) {
        self.cycle.clear();
        let mut c = start;
        loop {
            self.cycle.push(c as u32);
            self.indeg[c] = 0;
            c = self.parent[c] as usize;
            if c == start {
                break;
            }
        }
        let k = self.cycle.len();
        self.ring.clear();
        self.ring.push((0, 0));
        let mut tree_sums = 0;
        let (mut sizes, mut weighted) = (0u64, 0u64);
        for t in 0..2 * k {
            let c = self.cycle[t % k] as usize;
            if t < k {
                tree_sums += self.sums[c];
            }
            sizes += self.size[c] as u64;
            weighted += t as u64 * self.size[c] as u64;
            self.ring.push((sizes, weighted));
        }
        // From cᵢ, ⌊k/2⌋ vertices lie ahead at distances 1, 2, … and the
        // other k − 1 − ⌊k/2⌋ behind at distances 1, 2, ….
        let (ahead, behind) = (k / 2, k - 1 - k / 2);
        let span = |lo: usize, hi: usize| {
            let (s, w) = (self.ring[hi], self.ring[lo]);
            (s.0 - w.0, s.1 - w.1)
        };
        for i in 0..k {
            let (s, w) = span(i + 1, i + ahead + 1);
            let fwd = w - i as u64 * s;
            let (s, w) = span(i + k - behind, i + k);
            let bwd = (i + k) as u64 * s - w;
            self.sums[self.cycle[i] as usize] = base + tree_sums + fwd + bwd;
        }
    }

    /// Price `u`'s own component by a DFS from `u` that keeps the root
    /// path's sizes and prefix sums; `u` itself gets `u64::MAX`.
    fn price_tree(&mut self, detached: &CompactCsr, ui: usize, s_u: u64, penalty: u64) {
        self.sums[ui] = u64::MAX;
        self.path.clear();
        self.path.push((0, 0));
        self.stack.clear();
        self.stack.push((ui as u32, 0));
        while let Some((x, d)) = self.stack.pop() {
            let (xi, d) = (x as usize, d as usize);
            if d > 0 {
                // `path[..d]` is this vertex's root path: everything
                // popped since its parent sits deeper, in the subtrees
                // of siblings pushed after it.
                let size = self.size[xi] as u64;
                let prefix = self.path[d - 1].1 + size;
                self.path.truncate(d);
                self.path.push((size, prefix));
                // m = ⌊(d+1)/2⌋ + 1: the first root-path depth whose
                // hanging vertices the new edge brings closer.
                let m = d.div_ceil(2) + 1;
                let gain = if m <= d {
                    let (size_m, prefix_m) = self.path[m];
                    (2 * m - d - 1) as u64 * size_m + 2 * (prefix - prefix_m)
                } else {
                    0
                };
                self.sums[xi] = s_u - gain + penalty;
            }
            // T is a simple tree: the neighbours are the parent and
            // the children.
            let parent = self.parent[xi];
            for &w in detached.neighbors(NodeId::new(xi)) {
                if w.index() as u32 != parent {
                    self.stack.push((w.index() as u32, d as u32 + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dynamics::{run_dynamics_with_kernel, DynamicsConfig, PlayerOrder, ResponseRule};
    use crate::{CostKernel, CostModel, DeviationScratch, Realization, RoundExecutor};
    use bbncg_graph::{NodeId, OwnedDigraph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KERNELS: [CostKernel; 3] = [CostKernel::Queue, CostKernel::Bitset, CostKernel::Sparse];

    /// A random profile with every budget 0 or 1: about one player in
    /// six owns nothing (roots of tree components, pendants when some
    /// arc points at them), and a player an earlier one points at
    /// often points back (a brace). Most draws are disconnected.
    fn unit_profile(n: usize, seed: u64) -> Realization {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for x in 0..n {
            if rng.gen_range(0..6usize) == 0 {
                continue;
            }
            let back = (0..x).find(|&y| out[y] == [NodeId::new(x)]);
            let t = match back {
                Some(y) if rng.gen_bool(0.5) => y,
                _ => {
                    let t = rng.gen_range(0..n - 1);
                    t + usize::from(t >= x)
                }
            };
            out[x].push(NodeId::new(t));
        }
        Realization::new(OwnedDigraph::from_out_lists(out))
    }

    /// Every closed-form cost of every one-arc player of `r` against
    /// `cost_of` on a second engine of the same kernel, whose memo the
    /// closed form never touched. Returns the candidates compared.
    fn check_every_candidate(r: &Realization, kernel: CostKernel) -> Result<usize, TestCaseError> {
        let mut closed = DeviationScratch::with_kernel(r, kernel);
        let mut priced = DeviationScratch::with_kernel(r, kernel);
        let mut compared = 0;
        for u in (0..r.n()).map(NodeId::new) {
            closed.begin(r, u, CostModel::Sum);
            let Some((costs, current)) = closed.closed_form_costs() else {
                prop_assert!(r.strategy(u).len() != 1, "player {u} owns one arc");
                continue;
            };
            let costs = costs.to_vec();
            priced.begin(r, u, CostModel::Sum);
            prop_assert_eq!(current, priced.cost_of(r.strategy(u)));
            for v in (0..r.n()).filter(|&v| v != u.index()) {
                let want = priced.cost_of(&[NodeId::new(v)]);
                prop_assert!(
                    costs[v] == want,
                    "{kernel} {u} -> {v}: {} vs {want}",
                    costs[v]
                );
                compared += 1;
            }
            prop_assert_eq!(costs[u.index()], u64::MAX);
        }
        Ok(compared)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The closed form prices every single-arc candidate exactly:
        /// random unit profiles (braces, budget-0 pendants and roots,
        /// several components) and the equilibria dynamics reaches
        /// from them, under every kernel.
        #[test]
        fn every_candidate_matches_cost_of(n in 2usize..40, seed in 0u64..1_000_000) {
            let start = unit_profile(n, seed);
            let cfg = DynamicsConfig {
                order: PlayerOrder::RoundRobin,
                rule: ResponseRule::ExactBest,
                ..DynamicsConfig::exact(CostModel::Sum, 200)
            }
            .with_executor(RoundExecutor::Sequential);
            let converged =
                run_dynamics_with_kernel(start.clone(), cfg, &mut StdRng::seed_from_u64(0), CostKernel::Queue);
            for kernel in KERNELS {
                check_every_candidate(&start, kernel)?;
                check_every_candidate(&converged.state, kernel)?;
            }
        }
    }

    #[test]
    fn prices_tree_and_cycle_targets_by_hand() {
        // Player 0 hangs the path 0 ← 1 ← 2 ← 3 (T = {0, 1, 2, 3})
        // off its arc to 4, which sits on the cycle 4 → 5 → 6 → 4 with
        // pendant 7 → 6; 8 owns nothing and nobody points at it.
        let g = OwnedDigraph::from_arcs(
            9,
            &[
                (0, 4),
                (1, 0),
                (2, 1),
                (3, 2),
                (4, 5),
                (5, 6),
                (6, 4),
                (7, 6),
            ],
        );
        let r = Realization::new(g);
        let mut scratch = DeviationScratch::new(&r);
        scratch.begin(&r, NodeId::new(0), CostModel::Sum);
        let (costs, current) = scratch.closed_form_costs().expect("unit SUM session");
        let costs = costs.to_vec();
        // S_u = 1 + 2 + 3 = 6 inside T; C = {4, 5, 6, 7}; 8 is C_inf.
        let cinf = 81;
        assert_eq!(costs[1], 6 + 5 * cinf); // a brace: nothing shortens
        assert_eq!(costs[2], 6 - 2 + 5 * cinf); // 2 and 3 one closer
        assert_eq!(costs[3], 6 - 2 + 5 * cinf); // 3 two closer, 2 stays
                                                // D(4) = 1 (to 5) + 1 (to 6) + 2 (to 7) = 4; D(6) = 3;
                                                // D(7) = 1 + 2 + 2 = 5.
        assert_eq!(costs[4], 6 + 4 + 4 + cinf);
        assert_eq!(current, costs[4]);
        assert_eq!(costs[6], 6 + 4 + 3 + cinf);
        assert_eq!(costs[7], 6 + 4 + 5 + cinf);
        // 8 alone: S_u + 1 + 0, and C stays unreached.
        assert_eq!(costs[8], 6 + 1 + 4 * cinf);
        assert_eq!(costs[0], u64::MAX);
        for v in 1..9 {
            let want = r.with_strategy(NodeId::new(0), vec![NodeId::new(v)]);
            assert_eq!(
                costs[v],
                want.cost(NodeId::new(0), CostModel::Sum),
                "target {v}"
            );
        }
    }

    #[test]
    fn outside_the_class_nothing_is_priced() {
        // Player 2 owns two arcs: nobody's activation is in the class,
        // and MAX never is.
        let r = Realization::new(OwnedDigraph::from_arcs(4, &[(0, 1), (2, 0), (2, 3)]));
        let mut scratch = DeviationScratch::new(&r);
        scratch.begin(&r, NodeId::new(0), CostModel::Sum);
        assert!(scratch.closed_form_costs().is_none());
        let r = Realization::new(OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]));
        scratch.begin(&r, NodeId::new(0), CostModel::Max);
        assert!(scratch.closed_form_costs().is_none());
        scratch.begin(&r, NodeId::new(0), CostModel::Sum);
        assert!(scratch.closed_form_costs().is_some());
    }
}
