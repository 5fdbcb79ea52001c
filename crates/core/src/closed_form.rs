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
//! Component sizes come from the same peel: a tree component's size is
//! its root's subtree size, a unicyclic one's the sum of its hanging-
//! tree sizes around the cycle, and the rerooting pass hands each
//! vertex its parent's. So the pass needs no component labelling.
//!
//! So pricing all `n − 1` candidates costs `O(n)` in total instead of
//! one BFS each. The pass starts from the profile's parent pointers
//! and in-degrees, which the engine keeps up to date in `O(1)` per
//! move ([`ClosedForm::moved`]) instead of reading every strategy per
//! activation; a player taking a second arc drops them, and the next
//! pricing rebuilds them. The peel's queue has no data-dependent
//! branch. The buffers are sized on first use and reused across
//! activations; nothing is allocated per activation once warm.

use crate::cost::c_inf;
use bbncg_graph::{CompactCsr, NodeId, OwnedDigraph};

/// "No parent": the deviator, and the roots of tree components.
const NONE: u32 = u32::MAX;

/// Reusable buffers of the closed-form pricer.
#[derive(Debug, Default)]
pub(crate) struct ClosedForm {
    /// Owned-arc target of each vertex in the engine's (attached)
    /// profile, `NONE` where the player owns nothing; kept across moves
    /// by [`ClosedForm::moved`] while `kept`.
    kept_parent: Vec<u32>,
    /// In-degree of each vertex under `kept_parent`.
    kept_indeg: Vec<u32>,
    /// `kept_parent` and `kept_indeg` describe the profile. Cleared
    /// when a player takes a second arc; the next pricing rebuilds them.
    kept: bool,
    /// Owned-arc target of each vertex in the detached profile.
    parent: Vec<u32>,
    /// Unpeeled in-degree; nonzero after the peel exactly on cycles.
    indeg: Vec<u32>,
    /// Size of each vertex's subtree (its hanging tree, on a cycle).
    size: Vec<u32>,
    /// Size of each vertex's component, passed from parent to child;
    /// 0 on `T`, which is priced separately.
    comp: Vec<u32>,
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

/// Fill `parent` with the owned-arc target of each player of `mirror`
/// (`NONE` where the player owns nothing) and `indeg` with each
/// vertex's in-degree under it.
fn read_parents(mirror: &OwnedDigraph, parent: &mut Vec<u32>, indeg: &mut Vec<u32>) {
    parent.clear();
    parent.extend((0..mirror.n()).map(|x| match mirror.out(NodeId::new(x)) {
        [t] => t.index() as u32,
        targets => {
            debug_assert!(targets.is_empty(), "player {x} owns two arcs");
            NONE
        }
    }));
    indeg.clear();
    indeg.resize(mirror.n(), 0);
    for &p in parent.iter().filter(|&&p| p != NONE) {
        indeg[p as usize] += 1;
    }
}

impl ClosedForm {
    /// The costs of the last [`ClosedForm::price`], indexed by target.
    pub(crate) fn costs(&self) -> &[u64] {
        &self.sums
    }

    /// Keep the profile's parent pointers and in-degrees in step with
    /// player `x` changing strategy from `old` to `new`, in `O(1)`. A
    /// second arc takes the profile out of the class: the arrays are
    /// dropped, and the next pricing rebuilds them.
    pub(crate) fn moved(&mut self, x: NodeId, old: &[NodeId], new: &[NodeId]) {
        if !self.kept {
            return;
        }
        if new.len() > 1 {
            self.kept = false;
            return;
        }
        if let [p] = old {
            self.kept_indeg[p.index()] -= 1;
        }
        self.kept_parent[x.index()] = match new {
            [t] => {
                self.kept_indeg[t.index()] += 1;
                t.index() as u32
            }
            _ => NONE,
        };
    }

    /// Price every single-arc target of `u` under SUM. `mirror` is the
    /// profile (no player owning two arcs, `u` owning one) and
    /// `detached` its undirected view without `u`'s arc.
    pub(crate) fn price(&mut self, mirror: &OwnedDigraph, detached: &CompactCsr, u: NodeId) {
        let n = mirror.n();
        if self.sums.len() != n {
            self.size.resize(n, 0);
            self.comp.resize(n, 0);
            self.sums.resize(n, 0);
        }
        if !self.kept {
            read_parents(mirror, &mut self.kept_parent, &mut self.kept_indeg);
            self.kept = true;
        }
        debug_assert!({
            let (mut parent, mut indeg) = (Vec::new(), Vec::new());
            read_parents(mirror, &mut parent, &mut indeg);
            parent == self.kept_parent && indeg == self.kept_indeg
        });
        // Detach u's one arc.
        let ui = u.index();
        self.parent.clone_from(&self.kept_parent);
        self.indeg.clone_from(&self.kept_indeg);
        let pu = std::mem::replace(&mut self.parent[ui], NONE);
        self.indeg[pu as usize] -= 1;
        self.peel(n);

        let cinf = c_inf(n);
        // `u` has no parent any more, so `T` is `u`'s subtree.
        let t_size = self.size[ui] as u64;
        let s_u = self.sums[ui];
        // Cost of a target in component C, less its distance sum D_C.
        let base = move |c: u64| s_u + c + (n as u64 - t_size - c) * cinf;

        for x in 0..n {
            if self.indeg[x] > 0 {
                self.price_cycle(x, base);
            }
        }
        // Parents before children: roots and cycles are priced, and
        // each tree edge reroots the distance sum and hands down the
        // component size (0 on `T`, which is priced below).
        let (parent, size) = (&self.parent[..n], &self.size[..n]);
        let (comp, sums) = (&mut self.comp[..n], &mut self.sums[..n]);
        for &x in self.order.iter().rev() {
            let x = x as usize;
            match parent[x] {
                NONE => {
                    let c = if x == ui { 0 } else { size[x] };
                    comp[x] = c;
                    if c > 0 {
                        sums[x] += base(c as u64);
                    }
                }
                p => {
                    let p = p as usize;
                    let c = comp[p];
                    comp[x] = c;
                    if c > 0 {
                        sums[x] = sums[p] + c as u64 - 2 * size[x] as u64;
                    }
                }
            }
        }
        self.price_tree(detached, ui, s_u, (n as u64 - t_size) * cinf);
    }

    /// Sizes and distance sums of every subtree, children first; the
    /// vertices left with in-degree above zero lie on cycles and carry
    /// their hanging trees' totals.
    fn peel(&mut self, n: usize) {
        self.order.resize(n, 0);
        let (parent, indeg) = (&self.parent[..n], &mut self.indeg[..n]);
        let (size, sums) = (&mut self.size[..n], &mut self.sums[..n]);
        let order = &mut self.order[..n];
        size.fill(1);
        sums.fill(0);
        // A queue without a data-dependent branch: each push writes its
        // slot unconditionally and advances `len` only if the vertex is
        // ready. A slot is written only for a vertex not yet pushed (a
        // child of it is still being peeled), so `len < n` there.
        let mut len = 0;
        for x in 0..n {
            order[len] = x as u32;
            len += usize::from(indeg[x] == 0);
        }
        let mut head = 0;
        while head < len {
            let x = order[head] as usize;
            head += 1;
            let p = parent[x];
            if p == NONE {
                continue;
            }
            let p = p as usize;
            let (size_x, sums_x) = (size[x], sums[x]);
            size[p] += size_x;
            sums[p] += sums_x + size_x as u64;
            indeg[p] -= 1;
            order[len] = p as u32;
            len += usize::from(indeg[p] == 0);
        }
        self.order.truncate(len);
    }

    /// Price the cycle through `start`, clearing its in-degrees so it is
    /// priced once: `D(cᵢ) = Σ_j sums(c_j) + Σ_j size(c_j)·d(i, j)`
    /// over the hanging trees' distance sums and sizes, with cycle
    /// distance `d(i, j) = min(|i−j|, k−|i−j|)` read off prefix sums
    /// over the cycle walked twice. The hanging trees' sizes add up to
    /// the component's size `c`; each cycle vertex costs
    /// `base(c) + D(cᵢ)`.
    fn price_cycle(&mut self, start: usize, base: impl Fn(u64) -> u64) {
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
        let c = self.ring[k].0;
        let base = base(c) + tree_sums;
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
            let ci = self.cycle[i] as usize;
            self.sums[ci] = base + fwd + bwd;
            self.comp[ci] = c as u32;
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
    use rand::seq::SliceRandom;
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

    /// Does following owned arcs from `x` reach `u`?
    fn leads_to(r: &Realization, x: NodeId, u: NodeId) -> bool {
        let mut y = x;
        for _ in 0..r.n() {
            match r.strategy(y) {
                [t] => y = *t,
                _ => return false,
            }
            if y == u {
                return true;
            }
        }
        false
    }

    /// A random single-arc move on `r`, `(player, new target)`: one in
    /// three closes a cycle (the player targets a vertex whose arcs
    /// lead back to it), one in three is made by a player on a cycle
    /// (breaking it unless the target lies on the same cycle), the rest
    /// are uniform. `None` when no player owns exactly one arc.
    fn random_move(r: &Realization, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
        let players = || (0..r.n()).map(NodeId::new);
        let movers: Vec<NodeId> = players().filter(|&u| r.strategy(u).len() == 1).collect();
        let fresh = |u: NodeId, t: NodeId| t != u && r.strategy(u) != [t];
        let pairs: Vec<(NodeId, NodeId)> = match rng.gen_range(0..3usize) {
            0 => movers
                .iter()
                .flat_map(|&u| players().map(move |t| (u, t)))
                .filter(|&(u, t)| fresh(u, t) && leads_to(r, t, u))
                .collect(),
            1 => movers
                .iter()
                .filter(|&&u| leads_to(r, u, u))
                .flat_map(|&u| players().map(move |t| (u, t)))
                .filter(|&(u, t)| fresh(u, t))
                .collect(),
            _ => Vec::new(),
        };
        if let Some(&pair) = pairs.choose(rng) {
            return Some(pair);
        }
        let &u = movers.choose(rng)?;
        let targets: Vec<NodeId> = players().filter(|&t| fresh(u, t)).collect();
        targets.choose(rng).map(|&t| (u, t))
    }

    /// `r` with one player owning two arcs, as a new realization: a
    /// one-arc player takes a second, or the two-arc player gives one
    /// up. `None` when neither applies.
    fn regrown(r: &Realization, rng: &mut StdRng) -> Option<Realization> {
        let mut g = r.graph().clone();
        let players = || (0..r.n()).map(NodeId::new);
        if let Some(w) = players().find(|&w| r.strategy(w).len() == 2) {
            let &t = r.strategy(w).choose(rng)?;
            g.remove_arc(w, t);
        } else {
            let movers: Vec<NodeId> = players().filter(|&u| r.strategy(u).len() == 1).collect();
            let &w = movers.choose(rng)?;
            let extra: Vec<NodeId> = players().filter(|&t| t != w && !g.has_arc(w, t)).collect();
            g.add_arc(w, *extra.choose(rng)?);
        }
        Some(Realization::new(g))
    }

    /// Every one-arc player's closed-form costs and current cost on
    /// `engine` equal a fresh engine's, or both engines leave the
    /// session outside the class.
    fn agrees_with_a_fresh_engine(
        engine: &mut DeviationScratch,
        r: &Realization,
    ) -> Result<(), TestCaseError> {
        for u in (0..r.n()).map(NodeId::new) {
            if r.strategy(u).len() != 1 {
                continue;
            }
            let mut fresh = DeviationScratch::new(r);
            fresh.begin(r, u, CostModel::Sum);
            let want = fresh.closed_form_costs().map(|(c, cur)| (c.to_vec(), cur));
            engine.begin(r, u, CostModel::Sum);
            let got = engine.closed_form_costs().map(|(c, cur)| (c.to_vec(), cur));
            prop_assert!(got == want, "player {u}: {got:?} vs {want:?}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One engine, kept across up to 40 steps on a few diverging
        /// clones of a random unit profile, prices like a fresh engine
        /// after every step. A step picks a clone (or clones one), then
        /// applies zero to two single-arc moves (which close and break
        /// cycles) or, now and then, gives a player a second arc or
        /// takes it back. So the engine meets profiles at its own
        /// version, one move past it, two moves past it, on another
        /// clone, and after its kept parent and in-degree arrays were
        /// dropped and rebuilt.
        #[test]
        fn a_long_lived_engine_stays_exact_across_moves(
            n in 3usize..24,
            seed in 0u64..1_000_000,
            steps in 1usize..=40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clones = vec![unit_profile(n, seed)];
            let mut engine = DeviationScratch::new(&clones[0]);
            for _ in 0..steps {
                let mut i = rng.gen_range(0..clones.len());
                if clones.len() < 4 && rng.gen_bool(0.25) {
                    clones.push(clones[i].clone());
                    i = clones.len() - 1;
                }
                let r = &mut clones[i];
                if rng.gen_range(0..6usize) == 0 {
                    if let Some(other) = regrown(r, &mut rng) {
                        *r = other;
                    }
                } else {
                    for _ in 0..rng.gen_range(0..=2usize) {
                        if let Some((u, t)) = random_move(r, &mut rng) {
                            r.set_strategy(u, vec![t]);
                        }
                    }
                }
                agrees_with_a_fresh_engine(&mut engine, &clones[i])?;
            }
        }

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
