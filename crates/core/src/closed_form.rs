//! Closed-form pricing of every single-arc candidate at once, under SUM
//! and MAX, for the paper's unit-budget class (§4, Thm 4.1/4.2).
//!
//! When no player owns two arcs the ownership graph is a pseudoforest:
//! arcs are parent pointers, and each weakly connected component has at
//! most one cycle (a brace is a 2-cycle). Detach the deviator `u`'s one
//! arc and `u`'s component `T` becomes an in-tree rooted at `u`; every
//! other component `C` is an in-tree or an in-forest hanging off one
//! cycle. One in-degree peel, children before parents, folds every
//! subtree into its parent; the vertices it leaves unpeeled are the
//! cycles.
//!
//! **SUM.** The peel gives every subtree size and distance sum, and from
//! those the cost of each target `v` follows in `O(1)`:
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
//! **MAX.** A disconnected profile costs every player `κ·n²`, so the
//! count `κ′` of components after the detach decides the shape:
//!
//! * `κ′ ≥ 3`: a target outside `T` costs `(κ′−1)·n²`, one inside
//!   `T` costs `κ′·n²`.
//! * `κ′ = 2`, other component `C`: a target in `T` costs `2·n²`, and a
//!   target `v ∈ C` costs `max(ecc_T(u), 1 + ecc_C(v))`: the new edge
//!   is a bridge. The peel gives every vertex its height and the top two
//!   heights among its children; one pass with parents first then gives
//!   the farthest distance out of each subtree,
//!   `up(x) = 1 + max(up(p), best sibling height)`. On a cycle
//!   `c₀ … c_{k−1}`, `up(cᵢ) = max_{j≠i} (d(i, j) + h_j)` over the
//!   hanging-tree heights `h_j`, a sliding-window maximum over the
//!   cycle walked twice. That eccentricity routine also gives the
//!   diameter of any profile in the class ([`pseudoforest_diameter`]).
//! * `κ′ = 1`: `u`'s arc lay on the only cycle, so `T` spans the graph,
//!   and a target `v` at depth `L` costs `max_i (H_i + min(i, L+1−i))`
//!   with `H_i` the height hanging off `pᵢ` away from `p_{i+1}` (`H_L` is
//!   `v`'s own height). A DFS from `u` keeps the root path's running
//!   maximum of `H_i + i` and a sparse table of `H_i − i`, one row per
//!   depth, so each target is one range-maximum query: `O(n log n)`.
//!
//! So pricing all `n − 1` candidates costs `O(n)` in total (`O(n log n)`
//! for MAX with `κ′ = 1`) instead of one BFS each. Each model fills only
//! its own buffers. The pass starts from the profile's parent pointers
//! and in-degrees, which the engine keeps up to date in `O(1)` per
//! move ([`ClosedForm::moved`]) instead of reading every strategy per
//! activation; a player taking a second arc drops them, and the next
//! pricing rebuilds them. The peel's queue has no data-dependent
//! branch, and the scan for cycles skips whole chunks of peeled
//! in-degrees at a time. The buffers are sized on first use and reused
//! across activations; nothing is allocated per activation once warm.

use crate::cost::{c_inf, CostModel};
use bbncg_graph::{CompactCsr, Diameter, NodeId, OwnedDigraph};

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
    /// Peel order: every vertex after all of its children.
    order: Vec<u32>,
    /// The cost to the deviator of targeting each vertex (`u64::MAX` at
    /// the deviator). The SUM pass first keeps each vertex's distance
    /// sum over its subtree here, and prices in place once nothing
    /// reads that sum any more.
    costs: Vec<u64>,
    /// DFS stack over `T`: `(vertex, depth)`.
    stack: Vec<(u32, u32)>,
    /// SUM: size of each vertex's subtree (its hanging tree, on a cycle).
    size: Vec<u32>,
    /// SUM: size of each vertex's component, passed from parent to
    /// child; 0 on `T`, which is priced separately.
    comp: Vec<u32>,
    /// SUM: the cycle being priced, in parent-pointer order.
    cycle: Vec<u32>,
    /// SUM: prefix sums over the cycle walked twice: hanging-tree sizes,
    /// and sizes weighted by position.
    ring: Vec<(u64, u64)>,
    /// SUM: root path of the current DFS vertex by depth:
    /// `(size(p_d), Σ_{j=1..d} size(p_j))`.
    path: Vec<(u64, u64)>,
    /// MAX: heights and eccentricities.
    ecc: Eccentricities,
    /// MAX with `κ′ = 1`: `max_{j≤i} (H_j + j)` along the current DFS
    /// vertex's root path, by depth `i`.
    reach: Vec<u32>,
    /// MAX with `κ′ = 1`: a sparse table over the same root path, one
    /// row of `⌈log₂(n+1)⌉` entries per depth `i`, entry `k` holding
    /// `max (H_j − j)` over `i − 2^k < j ≤ i`.
    table: Vec<i32>,
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

/// The in-degree peel: every vertex whose in-degree is or drops to zero
/// goes into `order` after all of its children, and `fold(x, p)` folds
/// each such child `x` into its parent `p`. The vertices left with
/// in-degree above zero lie on cycles; `order` holds every other one.
///
/// The queue has no data-dependent branch: each push writes its slot
/// unconditionally and advances `len` only if the vertex is ready. A
/// slot is written only for a vertex not yet pushed (a child of it is
/// still being peeled), so `len < n` there.
fn peel(
    parent: &[u32],
    indeg: &mut [u32],
    order: &mut Vec<u32>,
    mut fold: impl FnMut(usize, usize),
) {
    let n = parent.len();
    order.resize(n, 0);
    let (indeg, slots) = (&mut indeg[..n], &mut order[..n]);
    let mut len = 0;
    for x in 0..n {
        slots[len] = x as u32;
        len += usize::from(indeg[x] == 0);
    }
    let mut head = 0;
    while head < len {
        let x = slots[head] as usize;
        head += 1;
        let p = parent[x];
        if p == NONE {
            continue;
        }
        let p = p as usize;
        fold(x, p);
        indeg[p] -= 1;
        slots[len] = p as u32;
        len += usize::from(indeg[p] == 0);
    }
    order.truncate(len);
}

/// The first vertex at or after `from` that the peel left on a cycle
/// (nonzero in-degree). A unit profile has few cycle vertices, so the
/// scan ORs 64 in-degrees at a time and skips the chunks that are all
/// zero.
fn next_on_cycle(indeg: &[u32], from: usize) -> Option<usize> {
    const CHUNK: usize = 64;
    let mut start = from;
    while start < indeg.len() {
        let end = ((start / CHUNK + 1) * CHUNK).min(indeg.len());
        let chunk = &indeg[start..end];
        if chunk.iter().fold(0, |acc, &d| acc | d) != 0 {
            return chunk.iter().position(|&d| d > 0).map(|i| start + i);
        }
        start = end;
    }
    None
}

/// The height hanging off a vertex whose two tallest children give it
/// heights `down` once the branch of its child of height `child` is set
/// aside: the runner-up if that child is (one of) the tallest.
#[inline]
fn off_branch(down: (u32, u32), child: u32) -> u32 {
    if down.0 == child + 1 {
        down.1
    } else {
        down.0
    }
}

/// For each `i` in `0..count`, `emit(i, m)` with `m` the maximum of
/// `val` over the window `first + i .. first + i + width` (`width ≥ 1`),
/// by a monotonic queue of positions: `O(count + width)` in all.
fn window_maxima(
    queue: &mut Vec<u32>,
    first: usize,
    width: usize,
    count: usize,
    val: impl Fn(usize) -> i64,
    mut emit: impl FnMut(usize, i64),
) {
    queue.clear();
    let (mut head, mut next) = (0, first);
    for i in 0..count {
        while next < first + i + width {
            let v = val(next);
            while queue.len() > head && val(queue[queue.len() - 1] as usize) <= v {
                queue.pop();
            }
            queue.push(next as u32);
            next += 1;
        }
        while (queue[head] as usize) < first + i {
            head += 1;
        }
        emit(i, val(queue[head] as usize));
    }
}

/// Heights and eccentricities over the parent pointers of a
/// pseudoforest: the MAX pass's buffers, and [`pseudoforest_diameter`]'s.
#[derive(Debug, Default)]
struct Eccentricities {
    /// The two largest of `1 + height(child)` over each vertex's
    /// children, 0 where it has fewer: `down[x].0` is the height of `x`'s
    /// subtree (its hanging tree, on a cycle).
    down: Vec<(u32, u32)>,
    /// The farthest distance from each vertex along a path that leaves
    /// its subtree — through its parent, or around its cycle; 0 at a
    /// tree root.
    up: Vec<u32>,
    /// One vertex of each cycle, from [`Eccentricities::find_cycles`].
    cycles: Vec<u32>,
    /// The cycle being walked, in parent-pointer order.
    ring: Vec<u32>,
    /// Its hanging-tree heights, walked twice.
    heights: Vec<u32>,
    /// Monotonic queue of [`window_maxima`].
    queue: Vec<u32>,
}

impl Eccentricities {
    /// Peel `parent` (see [`peel`]), keeping the top two child heights
    /// of every vertex.
    fn peel(&mut self, parent: &[u32], indeg: &mut [u32], order: &mut Vec<u32>) {
        self.down.clear();
        self.down.resize(parent.len(), (0, 0));
        let down = &mut self.down[..];
        peel(parent, indeg, order, |x, p| {
            let c = down[x].0 + 1;
            let (a, b) = down[p];
            down[p] = (a.max(c), b.max(a.min(c)));
        });
    }

    /// Record one vertex of every cycle the peel left, clearing their
    /// in-degrees; returns how many cycles there are.
    fn find_cycles(&mut self, parent: &[u32], indeg: &mut [u32]) -> usize {
        self.cycles.clear();
        let mut from = 0;
        while let Some(start) = next_on_cycle(indeg, from) {
            self.cycles.push(start as u32);
            let mut c = start;
            loop {
                indeg[c] = 0;
                c = parent[c] as usize;
                if c == start {
                    break;
                }
            }
            from = start + 1;
        }
        self.cycles.len()
    }

    /// Fill `up` for every vertex: around each recorded cycle first,
    /// then down every tree edge, parents before children.
    fn fill_up(&mut self, parent: &[u32], order: &[u32]) {
        self.up.resize(parent.len(), 0);
        for i in 0..self.cycles.len() {
            self.around_cycle(parent, self.cycles[i] as usize);
        }
        let (down, up) = (&self.down[..], &mut self.up[..]);
        for &x in order.iter().rev() {
            let x = x as usize;
            up[x] = match parent[x] {
                NONE => 0,
                p => {
                    let p = p as usize;
                    1 + up[p].max(off_branch(down[p], down[x].0))
                }
            };
        }
    }

    /// `up(cᵢ) = max_{j≠i} (d(i, j) + h_j)` on the cycle through
    /// `start`: of its `k` vertices, `⌊k/2⌋` lie ahead of `cᵢ` at
    /// distances 1, 2, … and the other `k − 1 − ⌊k/2⌋` behind, so over
    /// the heights walked twice (`h_p` at position `p`) the two halves
    /// are window maxima of `h_p + p` and of `h_p − p`.
    fn around_cycle(&mut self, parent: &[u32], start: usize) {
        self.ring.clear();
        let mut c = start;
        loop {
            self.ring.push(c as u32);
            c = parent[c] as usize;
            if c == start {
                break;
            }
        }
        let k = self.ring.len();
        self.heights.clear();
        let (down, ring) = (&self.down, &self.ring);
        self.heights
            .extend(ring.iter().chain(ring).map(|&c| down[c as usize].0));
        let (ahead, behind) = (k / 2, k - 1 - k / 2);
        let (heights, up, queue) = (&self.heights, &mut self.up, &mut self.queue);
        let h = |p: usize| i64::from(heights[p]);
        window_maxima(
            queue,
            1,
            ahead,
            k,
            |p| h(p) + p as i64,
            |i, m| up[ring[i] as usize] = (m - i as i64) as u32,
        );
        if behind > 0 {
            window_maxima(
                queue,
                k - behind,
                behind,
                k,
                |p| h(p) - p as i64,
                |i, m| {
                    let c = &mut up[ring[i] as usize];
                    *c = (*c).max((m + (i + k) as i64) as u32);
                },
            );
        }
    }

    /// The eccentricity of `x` within its component (after
    /// [`Eccentricities::fill_up`]).
    #[inline]
    fn eccentricity(&self, x: usize) -> u32 {
        self.down[x].0.max(self.up[x])
    }
}

/// The diameter of a profile in which no player owns two arcs, from one
/// peel and one eccentricity pass in `O(n)`: `Disconnected` when it has
/// more than one component, its largest eccentricity otherwise. `None`
/// when some player owns two arcs.
pub(crate) fn pseudoforest_diameter(g: &OwnedDigraph) -> Option<Diameter> {
    let n = g.n();
    if (0..n).any(|x| g.out_degree(NodeId::new(x)) > 1) {
        return None;
    }
    let (mut parent, mut indeg, mut order) = (Vec::new(), Vec::new(), Vec::new());
    read_parents(g, &mut parent, &mut indeg);
    let mut ecc = Eccentricities::default();
    ecc.peel(&parent, &mut indeg, &mut order);
    let roots = parent.iter().filter(|&&p| p == NONE).count();
    if roots + ecc.find_cycles(&parent, &mut indeg) > 1 {
        return Some(Diameter::Disconnected);
    }
    ecc.fill_up(&parent, &order);
    let widest = (0..n).map(|x| ecc.eccentricity(x)).max();
    Some(Diameter::Finite(widest.unwrap_or(0)))
}

impl ClosedForm {
    /// The costs of the last [`ClosedForm::price`], indexed by target.
    pub(crate) fn costs(&self) -> &[u64] {
        &self.costs
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

    /// Price every single-arc target of `u` under `model`. `mirror` is
    /// the profile (no player owning two arcs, `u` owning one) and
    /// `detached` its undirected view without `u`'s arc.
    pub(crate) fn price(
        &mut self,
        mirror: &OwnedDigraph,
        detached: &CompactCsr,
        u: NodeId,
        model: CostModel,
    ) {
        self.costs.resize(mirror.n(), 0);
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
        match model {
            CostModel::Sum => self.price_sum(detached, ui),
            CostModel::Max => self.price_max(detached, ui),
        }
    }

    /// The SUM pass (see the module docs).
    fn price_sum(&mut self, detached: &CompactCsr, ui: usize) {
        let n = self.parent.len();
        self.size.resize(n, 0);
        self.comp.resize(n, 0);
        // Sizes and distance sums of every subtree, children first; the
        // vertices left on cycles carry their hanging trees' totals.
        let (size, sums) = (&mut self.size[..], &mut self.costs[..]);
        size.fill(1);
        sums.fill(0);
        peel(&self.parent, &mut self.indeg, &mut self.order, |x, p| {
            let (size_x, sums_x) = (size[x], sums[x]);
            size[p] += size_x;
            sums[p] += sums_x + size_x as u64;
        });

        let cinf = c_inf(n);
        // `u` has no parent any more, so `T` is `u`'s subtree.
        let t_size = self.size[ui] as u64;
        let s_u = self.costs[ui];
        // Cost of a target in component C, less its distance sum D_C.
        let base = move |c: u64| s_u + c + (n as u64 - t_size - c) * cinf;

        let mut from = 0;
        while let Some(x) = next_on_cycle(&self.indeg, from) {
            self.price_cycle(x, base);
            from = x + 1;
        }
        // Parents before children: roots and cycles are priced, and
        // each tree edge reroots the distance sum and hands down the
        // component size (0 on `T`, which is priced below).
        let (parent, size) = (&self.parent[..n], &self.size[..n]);
        let (comp, sums) = (&mut self.comp[..n], &mut self.costs[..n]);
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
                tree_sums += self.costs[c];
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
            self.costs[ci] = base + fwd + bwd;
            self.comp[ci] = c as u32;
        }
    }

    /// Price `u`'s own component under SUM by a DFS from `u` that keeps
    /// the root path's sizes and prefix sums; `u` itself gets
    /// `u64::MAX`.
    fn price_tree(&mut self, detached: &CompactCsr, ui: usize, s_u: u64, penalty: u64) {
        self.costs[ui] = u64::MAX;
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
                self.costs[xi] = s_u - gain + penalty;
            }
            self.push_children(detached, xi, d as u32 + 1);
        }
    }

    /// Push the children of `x` in `T` onto the DFS stack at depth
    /// `depth`. `T` is a simple tree: the neighbours are the parent and
    /// the children.
    #[inline]
    fn push_children(&mut self, detached: &CompactCsr, x: usize, depth: u32) {
        let parent = self.parent[x];
        for &w in detached.neighbors(NodeId::new(x)) {
            if w.index() as u32 != parent {
                self.stack.push((w.index() as u32, depth));
            }
        }
    }

    /// The MAX pass (see the module docs): count the components `κ′`
    /// the detach leaves, then price by its case.
    fn price_max(&mut self, detached: &CompactCsr, ui: usize) {
        let n = self.parent.len();
        let parent = &self.parent[..];
        self.ecc.peel(parent, &mut self.indeg, &mut self.order);
        let roots = parent.iter().filter(|&&p| p == NONE).count();
        let kappa = (roots + self.ecc.find_cycles(parent, &mut self.indeg)) as u64;
        let cinf = c_inf(n);
        match kappa {
            1 => self.price_spanning_tree(detached, ui),
            2 => {
                // A target in the other component joins the two by a
                // bridge: the farthest vertex is `u`'s deepest in `T`
                // or one past the target's farthest in its component.
                self.ecc.fill_up(parent, &self.order);
                let height = self.ecc.down[ui].0;
                for (x, cost) in self.costs.iter_mut().enumerate() {
                    *cost = u64::from(height.max(1 + self.ecc.eccentricity(x)));
                }
                self.fill_tree(detached, ui, 2 * cinf);
            }
            k => {
                self.costs.fill((k - 1) * cinf);
                self.fill_tree(detached, ui, k * cinf);
            }
        }
        self.costs[ui] = u64::MAX;
    }

    /// Set the cost of every vertex of `u`'s component `T` to `cost`.
    fn fill_tree(&mut self, detached: &CompactCsr, ui: usize, cost: u64) {
        self.stack.clear();
        self.stack.push((ui as u32, 0));
        while let Some((x, _)) = self.stack.pop() {
            self.costs[x as usize] = cost;
            self.push_children(detached, x as usize, 0);
        }
    }

    /// MAX with `κ′ = 1`: a DFS from `u` over `T`, which spans the
    /// graph. On reaching `v` at depth `L`, its parent `p_{L−1}` adds
    /// `H_{L−1}`, its height off `v`'s branch, to the root path, and
    /// `cost(v) = max_i (H_i + min(i, L+1−i))` splits at
    /// `mid = ⌊(L+1)/2⌋` into the running maximum of `H_i + i` over
    /// `i ≤ min(mid, L−1)`, `L + 1 + max (H_i − i)` over `mid < i < L`
    /// from the sparse table, and `H_L + 1` for `v`'s own subtree.
    fn price_spanning_tree(&mut self, detached: &CompactCsr, ui: usize) {
        let stride = (usize::BITS - self.parent.len().leading_zeros()) as usize;
        self.reach.clear();
        self.table.clear();
        self.stack.clear();
        self.stack.push((ui as u32, 0));
        while let Some((x, l)) = self.stack.pop() {
            let (x, l) = (x as usize, l as usize);
            if l > 0 {
                // Rows `..l−1` are this vertex's root path (as in
                // `price_tree`); row `l − 1` is its parent's, off its
                // branch.
                let i = l - 1;
                let down = &self.ecc.down;
                let h = off_branch(down[self.parent[x] as usize], down[x].0);
                self.reach.truncate(i);
                let reach = self.reach.last().map_or(h, |&r| r.max(h + i as u32));
                self.reach.push(reach);
                let row = i * stride;
                self.table.truncate(row);
                self.table.push(h as i32 - i as i32);
                for k in 1..=(i + 1).ilog2() as usize {
                    let half = 1 << (k - 1);
                    let widest =
                        self.table[row + k - 1].max(self.table[row - half * stride + k - 1]);
                    self.table.push(widest);
                }
                self.table.resize(row + stride, 0);
                let mid = l.div_ceil(2);
                let mut cost = self.reach[mid.min(i)].max(down[x].0 + 1);
                if mid + 1 < l {
                    let (lo, hi) = (mid + 1, i);
                    let k = (hi - lo + 1).ilog2() as usize;
                    let far = self.table[hi * stride + k]
                        .max(self.table[(lo + (1 << k) - 1) * stride + k]);
                    cost = cost.max((far + l as i32 + 1) as u32);
                }
                self.costs[x] = u64::from(cost);
            }
            self.push_children(detached, x, l as u32 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dynamics::{run_dynamics_with_kernel, DynamicsConfig, PlayerOrder, ResponseRule};
    use crate::{CostKernel, CostModel, DeviationScratch, Realization, RoundExecutor};
    use bbncg_graph::{Csr, Diameter, NodeId, OwnedDigraph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const KERNELS: [CostKernel; 2] = [CostKernel::Bitset, CostKernel::Sparse];

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

    /// Components left when `u` drops its one arc.
    fn detached_kappa(r: &Realization, u: NodeId) -> usize {
        let mut g = r.graph().clone();
        g.remove_arc(u, r.strategy(u)[0]);
        Realization::new(g).kappa()
    }

    /// Every closed-form cost under `model` of every one-arc player of
    /// `r` against `cost_of` on a second engine of the same kernel,
    /// whose memo the closed form never touched. Returns, for each
    /// player compared, the components its detach leaves (`κ′`).
    fn check_every_candidate(
        r: &Realization,
        kernel: CostKernel,
        model: CostModel,
    ) -> Result<Vec<usize>, TestCaseError> {
        let mut closed = DeviationScratch::with_kernel(r, kernel);
        let mut priced = DeviationScratch::with_kernel(r, kernel);
        let mut kappas = Vec::new();
        for u in (0..r.n()).map(NodeId::new) {
            closed.begin(r, u, model);
            let Some((costs, current)) = closed.closed_form_costs() else {
                prop_assert!(r.strategy(u).len() != 1, "player {u} owns one arc");
                continue;
            };
            let costs = costs.to_vec();
            priced.begin(r, u, model);
            prop_assert_eq!(current, priced.cost_of(r.strategy(u)));
            for v in (0..r.n()).filter(|&v| v != u.index()) {
                let want = priced.cost_of(&[NodeId::new(v)]);
                prop_assert!(
                    costs[v] == want,
                    "{kernel} {model:?} {u} -> {v}: {} vs {want}",
                    costs[v]
                );
            }
            prop_assert_eq!(costs[u.index()], u64::MAX);
            kappas.push(detached_kappa(r, u));
        }
        Ok(kappas)
    }

    /// `start` after round-robin exact dynamics under `model` (at most
    /// 200 rounds), priced on the bitset kernel.
    fn converge(start: &Realization, model: CostModel) -> Realization {
        let cfg = DynamicsConfig {
            order: PlayerOrder::RoundRobin,
            rule: ResponseRule::ExactBest,
            ..DynamicsConfig::exact(model, 200)
        }
        .with_executor(RoundExecutor::Sequential);
        let mut rng = StdRng::seed_from_u64(0);
        run_dynamics_with_kernel(start.clone(), cfg, &mut rng, CostKernel::Bitset).state
    }

    /// A random pseudoforest on `n ≥ 1` vertices with `parts` components
    /// (at most `n`), labels shuffled. Each component is a random tree,
    /// every vertex pointing at an earlier one — half the time the one
    /// just before, so some trees are long paths. Its root owns nothing
    /// (a tree component with a budget-0 root) or, two times in three,
    /// points back into its own tree (a unicyclic component; a brace
    /// when it points at one of its children).
    fn pseudoforest(n: usize, parts: usize, seed: u64) -> Realization {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut label: Vec<usize> = (0..n).collect();
        label.shuffle(&mut rng);
        let mut bounds: Vec<usize> = (1..n).collect();
        bounds.shuffle(&mut rng);
        bounds.truncate(parts.clamp(1, n) - 1);
        bounds.extend([0, n]);
        bounds.sort_unstable();
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for run in bounds.windows(2) {
            let (a, b) = (run[0], run[1]);
            for x in a + 1..b {
                let p = if rng.gen_bool(0.5) {
                    x - 1
                } else {
                    rng.gen_range(a..x)
                };
                out[label[x]].push(NodeId::new(label[p]));
            }
            if b - a >= 2 && rng.gen_range(0..3usize) > 0 {
                out[label[a]].push(NodeId::new(label[rng.gen_range(a + 1..b)]));
            }
        }
        Realization::new(OwnedDigraph::from_out_lists(out))
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
    /// `engine` equal a fresh engine's under both models, or both
    /// engines leave the session outside the class.
    fn agrees_with_a_fresh_engine(
        engine: &mut DeviationScratch,
        r: &Realization,
    ) -> Result<(), TestCaseError> {
        for u in (0..r.n()).map(NodeId::new) {
            if r.strategy(u).len() != 1 {
                continue;
            }
            for model in CostModel::ALL {
                let mut fresh = DeviationScratch::new(r);
                fresh.begin(r, u, model);
                let want = fresh.closed_form_costs().map(|(c, cur)| (c.to_vec(), cur));
                engine.begin(r, u, model);
                let got = engine.closed_form_costs().map(|(c, cur)| (c.to_vec(), cur));
                prop_assert!(got == want, "player {u} {model:?}: {got:?} vs {want:?}");
            }
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

        /// The closed form prices every single-arc candidate, and the
        /// current strategy, exactly under both models and every
        /// kernel: on random unit profiles (braces, budget-0 pendants and
        /// roots, several components; under MAX mostly `κ′ ≥ 3`), on the
        /// equilibria each model's dynamics reaches from them (a
        /// connected MAX one leaves `κ′ = 2` off its cycle and `κ′ = 1`
        /// on it), and on random pseudoforests of one to three
        /// components with long paths (deep `κ′ = 1` and `κ′ = 2`
        /// trees).
        #[test]
        fn every_candidate_matches_cost_of(
            n in 2usize..40,
            parts in 1usize..=3,
            seed in 0u64..1_000_000,
        ) {
            let start = unit_profile(n, seed);
            let forest = pseudoforest(n, parts, seed);
            for model in CostModel::ALL {
                let converged = converge(&start, model);
                for kernel in KERNELS {
                    for r in [&start, &converged, &forest] {
                        check_every_candidate(r, kernel, model)?;
                    }
                }
            }
        }

        /// The pseudoforest diameter equals the all-pairs BFS sweep's:
        /// trees with budget-0 roots, unicyclic components, braces, and
        /// one to three components; and `Realization` reports it.
        #[test]
        fn pseudoforest_diameter_matches_all_pairs_bfs(
            n in 1usize..48,
            parts in 1usize..=3,
            seed in 0u64..1_000_000,
        ) {
            let mut profiles = vec![pseudoforest(n, parts, seed)];
            if n >= 2 {
                profiles.push(unit_profile(n, seed));
            }
            for r in profiles {
                let want = bbncg_graph::diameter(&Csr::from_digraph(r.graph()));
                prop_assert_eq!(super::pseudoforest_diameter(r.graph()), Some(want));
                prop_assert_eq!(r.diameter(), want.finite());
            }
        }
    }

    /// The proptest's MAX profiles reach every case of the pass:
    /// `κ′ = 1`, `κ′ = 2` and `κ′ ≥ 3`, each under every kernel.
    #[test]
    fn max_checks_reach_every_component_count() {
        let mut seen = [0usize; 3];
        for seed in 0..6 {
            let start = unit_profile(16, seed);
            let converged = converge(&start, CostModel::Max);
            let forest = pseudoforest(16, 1 + seed as usize % 3, seed);
            for r in [&start, &converged, &forest] {
                for kernel in KERNELS {
                    let kappas = check_every_candidate(r, kernel, CostModel::Max).unwrap();
                    for kappa in kappas {
                        seen[kappa.min(3) - 1] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s > 0), "κ′ = 1, 2, ≥ 3 seen {seen:?}");
    }

    #[test]
    fn two_arc_profiles_have_no_pseudoforest_diameter() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (0, 2), (3, 2)]);
        assert_eq!(super::pseudoforest_diameter(&g), None);
        assert_eq!(Realization::new(g).diameter(), Some(3));
        let path = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]);
        assert_eq!(
            super::pseudoforest_diameter(&path),
            Some(Diameter::Finite(2))
        );
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

    /// MAX costs worked out by hand, one profile per component count
    /// the detach leaves, each also checked against a rebuilt profile.
    #[test]
    fn prices_max_targets_by_hand() {
        let max_costs = |arcs: &[(usize, usize)], n: usize| {
            let r = Realization::new(OwnedDigraph::from_arcs(n, arcs));
            let mut scratch = DeviationScratch::new(&r);
            scratch.begin(&r, NodeId::new(0), CostModel::Max);
            let (costs, current) = scratch.closed_form_costs().expect("unit MAX session");
            let costs = costs.to_vec();
            for v in 1..n {
                let want = r.with_strategy(NodeId::new(0), vec![NodeId::new(v)]);
                assert_eq!(
                    costs[v],
                    want.cost(NodeId::new(0), CostModel::Max),
                    "target {v}"
                );
            }
            assert_eq!(costs[0], u64::MAX);
            (costs, current)
        };

        // κ′ = 3: the SUM example's profile. T = {0, 1, 2, 3}, C = {4,
        // 5, 6, 7} and the lone 8: a target outside T leaves two
        // components (2·81), one inside T three (3·81).
        let (costs, current) = max_costs(
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
            9,
        );
        assert_eq!(costs[1..4], [243; 3]);
        assert_eq!(costs[4..9], [162; 5]);
        assert_eq!(current, 162);

        // κ′ = 2: T = {0, 1} (1 → 0) and C = the cycle 2 → 3 → 4 → 2
        // with pendant 5 → 4. ecc_T(0) = 1; in C, ecc(2) = ecc(3) = 2
        // (to 5 via 4), ecc(4) = 1, ecc(5) = 2. A target in C costs
        // max(1, 1 + ecc_C); the one in T, 1, leaves two components.
        let (costs, current) = max_costs(&[(0, 2), (1, 0), (2, 3), (3, 4), (4, 2), (5, 4)], 6);
        assert_eq!(costs[1..6], [72, 3, 3, 2, 3]);
        assert_eq!(current, 3);

        // κ′ = 1: 0 sits on the cycle 0 → 1 → 2 → 3 → 0, with 4 → 1,
        // 5 → 4 and 6 → 3. Without its arc, T is rooted at 0 with
        // root paths 0-3-6 and 0-3-2-1-4-5 (height 5). Targeting 3 adds
        // a parallel edge (5); 6 closes 0-3-6 (5 still at 5); 2 closes
        // 0-3-2 (5 at 4); 1, the current target, closes 0-3-2-1 (5 at
        // 3); 4 closes a 5-cycle, leaving nothing farther than 2; 5
        // closes the 6-cycle, where 1 sits 3 away either way.
        let (costs, current) =
            max_costs(&[(0, 1), (1, 2), (2, 3), (3, 0), (4, 1), (5, 4), (6, 3)], 7);
        assert_eq!(costs[1..7], [3, 4, 5, 2, 3, 5]);
        assert_eq!(current, 3);
    }

    #[test]
    fn outside_the_class_nothing_is_priced() {
        // Player 2 owns two arcs: nobody's activation is in the class,
        // under either model.
        let r = Realization::new(OwnedDigraph::from_arcs(4, &[(0, 1), (2, 0), (2, 3)]));
        let mut scratch = DeviationScratch::new(&r);
        for model in CostModel::ALL {
            scratch.begin(&r, NodeId::new(0), model);
            assert!(scratch.closed_form_costs().is_none());
        }
        // A player owning no arc has no single-arc candidate; one arc
        // each, both models price.
        let r = Realization::new(OwnedDigraph::from_arcs(3, &[(0, 1), (1, 2)]));
        for model in CostModel::ALL {
            scratch.begin(&r, NodeId::new(2), model);
            assert!(scratch.closed_form_costs().is_none());
            scratch.begin(&r, NodeId::new(0), model);
            assert!(scratch.closed_form_costs().is_some());
        }
    }
}
