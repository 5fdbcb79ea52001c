//! Graph and realization generators.
//!
//! Deterministic families (paths, cycles, stars, spiders, perfect k-ary
//! trees, the Lemma 5.2 shift graph) plus seeded random families (Prüfer
//! trees, random budgeted realizations). Every random generator takes an
//! explicit RNG so experiments are reproducible.

use crate::csr::Csr;
use crate::digraph::OwnedDigraph;
use crate::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Directed path `0 → 1 → … → n−1`.
pub fn path(n: usize) -> OwnedDigraph {
    let arcs: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Directed cycle `0 → 1 → … → n−1 → 0` (every vertex owns one arc, the
/// canonical `(1,…,1)-BG` realization).
///
/// # Panics
/// Panics for `n < 2`.
pub fn cycle(n: usize) -> OwnedDigraph {
    assert!(n >= 2, "cycle needs at least 2 vertices");
    let arcs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Star with center 0 owning arcs to all leaves.
pub fn star(n: usize) -> OwnedDigraph {
    let arcs: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
    OwnedDigraph::from_arcs(n, &arcs)
}

/// The Theorem 3.2 spider: hub `w` (vertex 0) and three legs
/// `x₁…x_k`, `y₁…y_k`, `z₁…z_k` of length `k`, with arcs
/// `xᵢ → xᵢ₊₁` along each leg and `x₁ → w`, `y₁ → w`, `z₁ → w`.
/// The result has `n = 3k + 1` vertices and diameter `2k`; it is a MAX
/// equilibrium of the Tree-BG instance whose budgets are its
/// out-degrees (leg heads have budget 2, interior leg vertices 1, leg
/// tips and the hub 0).
///
/// Vertex layout: `w = 0`, `xᵢ = i`, `yᵢ = k + i`, `zᵢ = 2k + i`
/// (1-based `i`).
///
/// `spider(0)` degenerates to the lone hub (one vertex, no arcs).
pub fn spider(k: usize) -> OwnedDigraph {
    if k == 0 {
        return OwnedDigraph::empty(1);
    }
    let n = 3 * k + 1;
    let mut arcs = Vec::with_capacity(3 * k);
    for leg in 0..3 {
        let base = leg * k; // x: 0, y: k, z: 2k (before +1 shift)
        for i in 1..k {
            arcs.push((base + i, base + i + 1));
        }
        arcs.push((base + 1, 0)); // leg head -> hub
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Perfect binary tree of the given height (height 0 = single vertex):
/// `n = 2^(height+1) − 1` vertices, vertex `i` owning arcs to `2i+1` and
/// `2i+2`. This is the Theorem 3.4 SUM tree equilibrium: internal
/// vertices have budget 2, leaves 0, and the diameter is `2·height`.
pub fn perfect_binary_tree(height: u32) -> OwnedDigraph {
    let n = (1usize << (height + 1)) - 1;
    let mut arcs = Vec::with_capacity(n - 1);
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                arcs.push((i, c));
            }
        }
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Perfect `arity`-ary tree of the given height.
///
/// # Panics
/// Panics for `arity < 2`.
pub fn perfect_kary_tree(arity: usize, height: u32) -> OwnedDigraph {
    assert!(arity >= 2, "arity must be at least 2");
    // n = (arity^(height+1) - 1) / (arity - 1)
    let mut n = 0usize;
    let mut layer = 1usize;
    for _ in 0..=height {
        n += layer;
        layer *= arity;
    }
    let mut arcs = Vec::with_capacity(n - 1);
    for i in 0..n {
        for j in 0..arity {
            // Children are numbered in order: the first one past the
            // tree ends the row (so a huge arity at height 0 is cheap).
            let c = arity * i + 1 + j;
            if c >= n {
                break;
            }
            arcs.push((i, c));
        }
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Uniform random labelled tree on `n` vertices via a random Prüfer
/// sequence, returned as undirected edges.
pub fn random_tree_edges(n: usize, rng: &mut impl Rng) -> Vec<(usize, usize)> {
    match n {
        0 | 1 => return Vec::new(),
        2 => return vec![(0, 1)],
        _ => {}
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &s in &seq {
        degree[s] += 1;
    }
    // Min-heap of current leaves by id (BTreeSet keeps it simple and
    // deterministic given the sequence).
    let mut leaves: std::collections::BTreeSet<usize> =
        (0..n).filter(|&u| degree[u] == 1).collect();
    let mut edges = Vec::with_capacity(n - 1);
    for &s in &seq {
        let leaf = *leaves.iter().next().unwrap();
        leaves.remove(&leaf);
        edges.push((leaf.min(s), leaf.max(s)));
        degree[s] -= 1;
        if degree[s] == 1 {
            leaves.insert(s);
        }
    }
    let mut it = leaves.into_iter();
    let (a, b) = (it.next().unwrap(), it.next().unwrap());
    edges.push((a.min(b), a.max(b)));
    edges
}

/// Orient the edges of a **tree** into an ownership digraph by directing
/// every edge away from `root`: each non-root vertex is owned-to by its
/// parent. Budgets of the resulting Tree-BG realization are the child
/// counts.
///
/// # Panics
/// Panics if the edge set is not a spanning tree of `0..n`.
pub fn orient_away_from_root(n: usize, edges: &[(usize, usize)], root: usize) -> OwnedDigraph {
    assert_eq!(edges.len(), n - 1, "orient_away_from_root expects a tree");
    let csr = Csr::from_edges(n, edges);
    let mut scratch = crate::bfs::BfsScratch::new(n);
    scratch.run(&csr, NodeId::new(root));
    let order: Vec<NodeId> = scratch.reached().to_vec();
    assert_eq!(order.len(), n, "edge set must be connected");
    let mut arcs = Vec::with_capacity(edges.len());
    for &u in &order {
        let du = scratch.dist(u).unwrap();
        for &w in csr.neighbors(u) {
            if scratch.dist(w) == Some(du + 1) && !arcs.contains(&(u.index(), w.index())) {
                arcs.push((u.index(), w.index()));
            }
        }
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Orient each undirected edge by a fair coin flip.
pub fn orient_random(n: usize, edges: &[(usize, usize)], rng: &mut impl Rng) -> OwnedDigraph {
    let arcs: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(u, v)| if rng.gen::<bool>() { (u, v) } else { (v, u) })
        .collect();
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Random realization of a budget vector: each vertex `u` owns arcs to
/// `budgets[u]` distinct uniformly chosen other vertices.
///
/// # Panics
/// Panics if some `budgets[u] ≥ n`.
pub fn random_realization(budgets: &[usize], rng: &mut impl Rng) -> OwnedDigraph {
    let n = budgets.len();
    let mut out: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for (u, &b) in budgets.iter().enumerate() {
        assert!(b < n, "budget {b} of vertex {u} is not less than n = {n}");
        pool.shuffle(rng);
        let targets: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&t| t != u)
            .take(b)
            .map(NodeId::new)
            .collect();
        out.push(targets);
    }
    OwnedDigraph::from_out_lists(out)
}

/// The Lemma 5.2 **shift graph**: vertex set `{0,…,t−1}^k`; vertices
/// `x = (x₁,…,x_k)` and `y` are adjacent iff `y` can be obtained by
/// shifting `x` one position (in either direction) and inserting an
/// arbitrary new symbol — i.e. `xᵢ = yᵢ₊₁` for all `i < k`, or
/// `yᵢ = xᵢ₊₁` for all `i < k`. The graph is simple (no self-loops, no
/// parallel edges), has `t^k` vertices, minimum degree ≥ t − 1, maximum
/// degree ≤ 2t, and diameter exactly `k` for `t > k` — the paper's
/// Ω(√log n)-diameter MAX equilibrium when `t = 2^k` (Theorem 5.3).
///
/// Tuples are encoded base-`t` with `x₁` most significant.
///
/// # Panics
/// Panics if `t < 2` or `t^k` overflows `u32` range.
pub fn shift_graph_edges(t: usize, k: u32) -> (usize, Vec<(usize, usize)>) {
    assert!(t >= 2, "alphabet size must be at least 2");
    let n = t
        .checked_pow(k)
        .filter(|&n| n <= u32::MAX as usize)
        .expect("t^k overflows supported graph size");
    let high = n / t; // t^(k-1)
    let mut edges = Vec::with_capacity(n * t);
    for x in 0..n {
        // Right shift: y = (c, x₁, …, x_{k−1}) = c·t^{k−1} + x / t.
        for c in 0..t {
            let y = c * high + x / t;
            if y != x {
                edges.push((x.min(y), x.max(y)));
            }
        }
        // Left shift: y = (x₂, …, x_k, c) = (x mod t^{k−1})·t + c.
        for c in 0..t {
            let y = (x % high) * t + c;
            if y != x {
                edges.push((x.min(y), x.max(y)));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (n, edges)
}

/// [`shift_graph_edges`] assembled into a [`Csr`].
pub fn shift_graph(t: usize, k: u32) -> Csr {
    let (n, edges) = shift_graph_edges(t, k);
    Csr::from_edges(n, &edges)
}

/// Preferential-attachment digraph (Barabási–Albert flavour): vertices
/// arrive one at a time and each newcomer `v ≥ m` owns `m` arcs to
/// distinct earlier vertices chosen proportionally to current
/// (undirected) degree + 1. Vertices `0..m` form a seed clique owned by
/// the lower id. Produces the heavy-tailed overlay topologies the
/// paper's P2P motivation describes; budgets are `m` for newcomers.
///
/// # Panics
/// Panics for `m == 0` or `n ≤ m`.
pub fn preferential_attachment(n: usize, m: usize, rng: &mut impl Rng) -> OwnedDigraph {
    assert!(m >= 1, "newcomers must buy at least one link");
    assert!(n > m, "need more vertices than the seed clique");
    let mut arcs: Vec<(usize, usize)> = Vec::with_capacity(m * n);
    let mut degree = vec![0usize; n];
    for u in 0..m {
        for v in u + 1..m {
            arcs.push((u, v));
            degree[u] += 1;
            degree[v] += 1;
        }
    }
    for v in m..n {
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        while chosen.len() < m {
            // Weighted draw over 0..v by degree + 1.
            let total: usize = (0..v)
                .filter(|u| !chosen.contains(u))
                .map(|u| degree[u] + 1)
                .sum();
            let mut roll = rng.gen_range(0..total);
            let pick = (0..v)
                .filter(|u| !chosen.contains(u))
                .find(|&u| {
                    let w = degree[u] + 1;
                    if roll < w {
                        true
                    } else {
                        roll -= w;
                        false
                    }
                })
                .expect("weighted draw lands");
            chosen.push(pick);
        }
        for &u in &chosen {
            arcs.push((v, u));
            degree[v] += 1;
            degree[u] += 1;
        }
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Sunflower: a directed cycle of length `cycle_len` with
/// `pendants[i]` pendant vertices each owning one arc to cycle vertex
/// `i`. Every vertex has budget exactly 1 — the canonical candidate
/// shape for `(1,…,1)-BG` equilibria (Theorems 4.1/4.2: any such
/// equilibrium is a sunflower-like graph with a short cycle).
///
/// # Panics
/// Panics for `cycle_len < 2` or mismatched pendant list length.
pub fn sunflower(cycle_len: usize, pendants: &[usize]) -> OwnedDigraph {
    assert!(cycle_len >= 2, "cycle needs at least 2 vertices");
    assert_eq!(
        pendants.len(),
        cycle_len,
        "one pendant count per cycle vertex"
    );
    let n = cycle_len + pendants.iter().sum::<usize>();
    let mut arcs: Vec<(usize, usize)> = (0..cycle_len).map(|i| (i, (i + 1) % cycle_len)).collect();
    let mut next = cycle_len;
    for (i, &p) in pendants.iter().enumerate() {
        for _ in 0..p {
            arcs.push((next, i));
            next += 1;
        }
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Complete graph `K_n` as undirected edges (empty for `n ≤ 1`).
pub fn complete_edges(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((u, v));
        }
    }
    edges
}

/// Wheel graph: hub 0 plus a cycle `1..n`, as undirected edges.
///
/// # Panics
/// Panics for `n < 4`.
pub fn wheel_edges(n: usize) -> Vec<(usize, usize)> {
    assert!(n >= 4, "wheel needs at least 4 vertices");
    let rim = n - 1;
    let mut edges = Vec::with_capacity(2 * rim);
    for i in 0..rim {
        edges.push((0, 1 + i));
        edges.push((1 + i, 1 + (i + 1) % rim));
    }
    edges
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect()
}

/// Caterpillar: a spine path of `spine` vertices with `legs` pendant
/// vertices attached round-robin. The owner of every arc is the vertex
/// nearer the head of the spine, so budgets decrease along the spine —
/// a useful stress shape for tree dynamics.
pub fn caterpillar(spine: usize, legs: usize) -> OwnedDigraph {
    assert!(spine >= 1, "caterpillar needs a spine");
    let n = spine + legs;
    let mut arcs: Vec<(usize, usize)> = (0..spine - 1).map(|i| (i, i + 1)).collect();
    for l in 0..legs {
        arcs.push((l % spine, spine + l));
    }
    OwnedDigraph::from_arcs(n, &arcs)
}

/// Uniform random connected graph: a random spanning tree (Prüfer) plus
/// `extra` additional distinct non-tree edges chosen uniformly.
///
/// # Panics
/// Panics if `extra` exceeds the number of available non-tree slots.
pub fn random_connected_edges(n: usize, extra: usize, rng: &mut impl Rng) -> Vec<(usize, usize)> {
    let mut edges = random_tree_edges(n, rng);
    let max_extra = n * (n - 1) / 2 - edges.len();
    assert!(
        extra <= max_extra,
        "requested {extra} extra edges, max {max_extra}"
    );
    let mut present: std::collections::HashSet<(usize, usize)> = edges.iter().copied().collect();
    while present.len() < n - 1 + extra {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if present.insert(e) {
            edges.push(e);
        }
    }
    edges
}

/// `w × h` grid graph as undirected edges (used by the facility-location
/// test suite).
pub fn grid_edges(w: usize, h: usize) -> (usize, Vec<(usize, usize)>) {
    let n = w * h;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..h {
        for c in 0..w {
            let u = r * w + c;
            if c + 1 < w {
                edges.push((u, u + 1));
            }
            if r + 1 < h {
                edges.push((u, u + w));
            }
        }
    }
    (n, edges)
}

/// The families [`from_name`] can build, with their parameter arities —
/// the generator registry declarative frontends (scenario specs, CLIs)
/// resolve against.
pub const FAMILIES: &[(&str, usize, &str)] = &[
    ("path", 1, "path N"),
    ("cycle", 1, "cycle N (N >= 2)"),
    ("star", 1, "star N"),
    ("spider", 1, "spider K (Thm 3.2, n = 3K+1)"),
    ("btree", 1, "btree HEIGHT (Thm 3.4)"),
    ("kary", 2, "kary ARITY HEIGHT"),
    ("caterpillar", 2, "caterpillar SPINE LEGS"),
    ("prefattach", 2, "prefattach N M (random)"),
    ("random-tree", 1, "random-tree N rooted at 0 (random)"),
    (
        "random",
        usize::MAX,
        "random B0 B1 ... (budget vector, random)",
    ),
];

/// Most vertices [`from_name`] builds: 2²¹ ≈ 2.1 M, room for
/// n ≈ 10⁶ instances with arrivals on top. Parameters arrive from
/// untrusted specs, so sizes are checked before anything is allocated.
pub const MAX_VERTICES: usize = 1 << 21;

/// Most arcs (Σ budgets) [`from_name`] builds: 2²³ ≈ 8.4 M.
pub const MAX_ARCS: usize = 1 << 23;

/// The `(vertices, arcs)` that `from_name(name, params, _)` builds,
/// computed without allocating (saturating, so absurd parameters
/// cannot overflow). Errors exactly where [`from_name`] does: an
/// unknown family, a wrong arity, a parameter outside the family's
/// range, or a size over [`MAX_VERTICES`] or [`MAX_ARCS`].
pub fn family_size(name: &str, params: &[usize]) -> Result<(usize, usize), String> {
    let arity = FAMILIES
        .iter()
        .find(|(f, _, _)| *f == name)
        .map(|&(_, a, _)| a)
        .ok_or_else(|| {
            let known: Vec<&str> = FAMILIES.iter().map(|&(f, _, _)| f).collect();
            format!(
                "unknown generator family {name:?} (one of {})",
                known.join(", ")
            )
        })?;
    if arity != usize::MAX && params.len() != arity {
        return Err(format!(
            "family {name:?} takes {arity} parameter(s), got {}",
            params.len()
        ));
    }
    let (n, arcs) = match name {
        "path" | "star" | "random-tree" => (params[0], params[0].saturating_sub(1)),
        "cycle" => {
            if params[0] < 2 {
                return Err("cycle needs at least 2 vertices".into());
            }
            (params[0], params[0])
        }
        "spider" => (
            params[0].saturating_mul(3).saturating_add(1),
            params[0].saturating_mul(3),
        ),
        "btree" => {
            // n = 2^(height+1) − 1; a shift past the word saturates.
            let n = u32::try_from(params[0])
                .ok()
                .and_then(|h| h.checked_add(1))
                .and_then(|s| 1usize.checked_shl(s))
                .map_or(usize::MAX, |p| p - 1);
            (n, n.saturating_sub(1))
        }
        "kary" => {
            let (arity, height) = (params[0], params[1]);
            if arity < 2 {
                return Err("kary arity must be at least 2".into());
            }
            // n = Σ arity^i for i ≤ height; stop once past the cap, so
            // a huge height costs at most ~21 iterations.
            let (mut n, mut layer) = (0usize, 1usize);
            for _ in 0..=height {
                n = n.saturating_add(layer);
                if n > MAX_VERTICES {
                    break;
                }
                layer = layer.saturating_mul(arity);
            }
            (n, n.saturating_sub(1))
        }
        "caterpillar" => {
            let (spine, legs) = (params[0], params[1]);
            if spine < 1 {
                return Err("caterpillar needs a spine".into());
            }
            (spine.saturating_add(legs), (spine - 1).saturating_add(legs))
        }
        "prefattach" => {
            let (n, m) = (params[0], params[1]);
            if m == 0 || n <= m {
                return Err("prefattach needs n > m >= 1".into());
            }
            // A seed clique on m vertices, then m arcs per newcomer.
            let clique = m.saturating_mul(m - 1) / 2;
            (n, clique.saturating_add((n - m).saturating_mul(m)))
        }
        "random" => {
            let n = params.len();
            if let Some((u, &b)) = params.iter().enumerate().find(|&(_, &b)| b >= n.max(1)) {
                return Err(format!("budget {b} of vertex {u} is not less than n = {n}"));
            }
            (n, params.iter().fold(0usize, |a, &b| a.saturating_add(b)))
        }
        _ => unreachable!("family table and match arms agree"),
    };
    // A budget vector can be long; name only fixed-arity parameters.
    let what = if arity == usize::MAX {
        format!("family {name:?}")
    } else {
        format!("family {name:?} {params:?}")
    };
    if n > MAX_VERTICES {
        return Err(format!("{what} exceeds the {MAX_VERTICES}-vertex cap"));
    }
    if arcs > MAX_ARCS {
        return Err(format!("{what} exceeds the {MAX_ARCS}-arc cap"));
    }
    Ok((n, arcs))
}

/// Build a realization digraph from a family name and integer
/// parameters. Random families draw from `rng`; deterministic families
/// ignore it. `"random"` treats `params` as a whole budget vector; every
/// other family takes the arity listed in [`FAMILIES`]. Parameters are
/// validated by [`family_size`] before anything is built, so an
/// instance over [`MAX_VERTICES`] or [`MAX_ARCS`] is an error, never an
/// allocation.
pub fn from_name(name: &str, params: &[usize], rng: &mut impl Rng) -> Result<OwnedDigraph, String> {
    family_size(name, params)?;
    // Heights fit a u32: family_size capped the vertex count.
    let height = |h: usize| u32::try_from(h).expect("height bounded by the vertex cap");
    Ok(match name {
        "path" => path(params[0]),
        "cycle" => cycle(params[0]),
        "star" => star(params[0]),
        "spider" => spider(params[0]),
        "btree" => perfect_binary_tree(height(params[0])),
        "kary" => perfect_kary_tree(params[0], height(params[1])),
        "caterpillar" => caterpillar(params[0], params[1]),
        "prefattach" => preferential_attachment(params[0], params[1], rng),
        "random-tree" => {
            let n = params[0];
            if n <= 1 {
                return Ok(OwnedDigraph::empty(n));
            }
            let edges = random_tree_edges(n, rng);
            orient_away_from_root(n, &edges, 0)
        }
        "random" => random_realization(params, rng),
        _ => unreachable!("family table and match arms agree"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;
    use crate::distance::{diameter, Diameter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spider_shape() {
        let k = 4;
        let g = spider(k);
        assert_eq!(g.n(), 3 * k + 1);
        assert_eq!(g.total_arcs(), 3 * k); // a tree
        let csr = Csr::from_digraph(&g);
        assert_eq!(diameter(&csr), Diameter::Finite(2 * k as u32));
        // Leg heads own 2 arcs, interior 1, tips and hub 0.
        assert_eq!(g.out_degree(NodeId::new(1)), 2);
        assert_eq!(g.out_degree(NodeId::new(2)), 1);
        assert_eq!(g.out_degree(NodeId::new(k)), 0);
        assert_eq!(g.out_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn spider_minimal() {
        let g = spider(1);
        assert_eq!(g.n(), 4);
        let csr = Csr::from_digraph(&g);
        assert_eq!(diameter(&csr), Diameter::Finite(2));
    }

    #[test]
    fn binary_tree_shape() {
        let g = perfect_binary_tree(3);
        assert_eq!(g.n(), 15);
        assert_eq!(g.total_arcs(), 14);
        let csr = Csr::from_digraph(&g);
        assert_eq!(diameter(&csr), Diameter::Finite(6));
        assert_eq!(g.out_degree(NodeId::new(0)), 2);
        assert_eq!(g.out_degree(NodeId::new(14)), 0);
    }

    #[test]
    fn kary_tree_matches_binary() {
        let a = perfect_binary_tree(2);
        let b = perfect_kary_tree(2, 2);
        assert_eq!(a, b);
        let t = perfect_kary_tree(3, 2);
        assert_eq!(t.n(), 1 + 3 + 9);
    }

    #[test]
    fn prufer_trees_are_trees() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 3, 5, 17, 64] {
            let edges = random_tree_edges(n, &mut rng);
            assert_eq!(edges.len(), n - 1);
            let csr = Csr::from_edges(n, &edges);
            assert!(is_connected(&csr));
        }
    }

    #[test]
    fn orientations_preserve_underlying_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20;
        let edges = random_tree_edges(n, &mut rng);
        let away = orient_away_from_root(n, &edges, 0);
        let coin = orient_random(n, &edges, &mut rng);
        let mut e1 = Csr::from_digraph(&away).simple_edges();
        let mut e2 = Csr::from_digraph(&coin).simple_edges();
        let mut e0 = Csr::from_edges(n, &edges).simple_edges();
        e0.sort_unstable();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e0, e1);
        assert_eq!(e0, e2);
        // Away-from-root: root owns its incident edges.
        assert_eq!(away.total_arcs(), n - 1);
    }

    #[test]
    fn random_realization_respects_budgets() {
        let mut rng = StdRng::seed_from_u64(3);
        let budgets = vec![0, 1, 2, 3, 1];
        let g = random_realization(&budgets, &mut rng);
        assert_eq!(g.out_degrees(), budgets);
        // No self-loops / duplicates is enforced by construction.
        assert_eq!(g.total_arcs(), 7);
    }

    #[test]
    fn shift_graph_small_properties() {
        // t = 4, k = 2 — the smallest Theorem 5.3 instance shape (t = 2^k).
        let csr = shift_graph(4, 2);
        assert_eq!(csr.n(), 16);
        assert!(csr.min_degree() >= 3); // ≥ t − 1
        assert!(csr.max_degree() <= 8); // ≤ 2t
        assert!(is_connected(&csr));
        assert_eq!(diameter(&csr), Diameter::Finite(2)); // diameter k
    }

    #[test]
    fn shift_graph_diameter_is_k() {
        // t = 8, k = 3: n = 512, diameter must be exactly 3 (t > k).
        let csr = shift_graph(8, 3);
        assert_eq!(csr.n(), 512);
        assert_eq!(diameter(&csr), Diameter::Finite(3));
        assert!(csr.min_degree() >= 7);
        assert!(csr.max_degree() <= 16);
    }

    #[test]
    fn grid_shape() {
        let (n, edges) = grid_edges(3, 4);
        assert_eq!(n, 12);
        assert_eq!(edges.len(), 3 * 3 + 2 * 4); // h*(w-1) + w*(h-1) = 9 + 8
        let csr = Csr::from_edges(n, &edges);
        assert_eq!(diameter(&csr), Diameter::Finite(5));
    }

    #[test]
    fn preferential_attachment_shape() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = preferential_attachment(30, 2, &mut rng);
        assert_eq!(g.n(), 30);
        // Seed clique on 2 vertices (1 arc) + 28 newcomers x 2 arcs.
        assert_eq!(g.total_arcs(), 1 + 28 * 2);
        let csr = Csr::from_digraph(&g);
        assert!(is_connected(&csr));
        // Heavy tail: some early vertex should collect many links.
        assert!(csr.max_degree() >= 6, "max degree {}", csr.max_degree());
        // Budgets: newcomers own exactly m arcs.
        for v in 2..30 {
            assert_eq!(g.out_degree(NodeId::new(v)), 2);
        }
    }

    #[test]
    fn sunflower_shape() {
        let g = sunflower(4, &[2, 0, 1, 0]);
        assert_eq!(g.n(), 7);
        assert_eq!(g.out_degrees(), vec![1; 7]); // all-unit budgets
        let csr = Csr::from_digraph(&g);
        assert!(is_connected(&csr));
        let cycle = crate::cycles::unique_cycle(&csr).unwrap();
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn complete_and_wheel_shapes() {
        assert_eq!(complete_edges(5).len(), 10);
        let csr = Csr::from_edges(5, &complete_edges(5));
        assert_eq!(diameter(&csr), Diameter::Finite(1));
        let csr = Csr::from_edges(6, &wheel_edges(6));
        assert_eq!(csr.degree(NodeId::new(0)), 5);
        assert_eq!(diameter(&csr), Diameter::Finite(2));
        assert_eq!(csr.m(), 10); // 5 spokes + 5 rim edges
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 6);
        assert_eq!(g.n(), 10);
        assert_eq!(g.total_arcs(), 9); // tree
        let csr = Csr::from_digraph(&g);
        assert!(is_connected(&csr));
        // Legs attach round-robin: spine vertex 0 gets legs 0 and 4.
        assert_eq!(g.out_degree(NodeId::new(0)), 3); // next spine + 2 legs
    }

    #[test]
    fn random_connected_graph_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(8);
        for (n, extra) in [(10usize, 0usize), (10, 5), (20, 15)] {
            let edges = random_connected_edges(n, extra, &mut rng);
            assert_eq!(edges.len(), n - 1 + extra);
            let csr = Csr::from_edges(n, &edges);
            assert!(is_connected(&csr));
            let mut dedup = edges.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), edges.len(), "duplicate edges");
        }
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        // n = 0 / n = 1 across the deterministic families.
        assert_eq!(path(0).n(), 0);
        assert_eq!(path(1).n(), 1);
        assert_eq!(path(1).total_arcs(), 0);
        assert_eq!(star(0).n(), 0);
        assert_eq!(star(1).n(), 1);
        assert_eq!(complete_edges(0).len(), 0);
        assert_eq!(complete_edges(1).len(), 0);
        // spider(0): the lone hub.
        let s = spider(0);
        assert_eq!(s.n(), 1);
        assert_eq!(s.total_arcs(), 0);
        // One-column grids are paths; empty grids are empty.
        let (n, edges) = grid_edges(1, 5);
        assert_eq!(n, 5);
        assert_eq!(edges.len(), 4);
        let csr = Csr::from_edges(n, &edges);
        assert_eq!(diameter(&csr), Diameter::Finite(4));
        assert_eq!(grid_edges(0, 7), (0, vec![]));
        assert_eq!(grid_edges(1, 0), (0, vec![]));
        // Empty-instance random families.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_realization(&[], &mut rng).n(), 0);
        assert!(random_tree_edges(0, &mut rng).is_empty());
        assert!(random_tree_edges(1, &mut rng).is_empty());
    }

    #[test]
    fn registry_builds_every_family() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(from_name("path", &[4], &mut rng).unwrap(), path(4));
        assert_eq!(from_name("cycle", &[5], &mut rng).unwrap(), cycle(5));
        assert_eq!(from_name("star", &[6], &mut rng).unwrap(), star(6));
        assert_eq!(from_name("spider", &[2], &mut rng).unwrap(), spider(2));
        assert_eq!(
            from_name("btree", &[3], &mut rng).unwrap(),
            perfect_binary_tree(3)
        );
        assert_eq!(
            from_name("kary", &[3, 2], &mut rng).unwrap(),
            perfect_kary_tree(3, 2)
        );
        assert_eq!(
            from_name("caterpillar", &[3, 4], &mut rng).unwrap(),
            caterpillar(3, 4)
        );
        let g = from_name("prefattach", &[20, 2], &mut rng).unwrap();
        assert_eq!(g.n(), 20);
        let g = from_name("random-tree", &[9], &mut rng).unwrap();
        assert_eq!(g.total_arcs(), 8);
        let g = from_name("random", &[1, 1, 2, 0], &mut rng).unwrap();
        assert_eq!(g.out_degrees(), vec![1, 1, 2, 0]);
    }

    #[test]
    fn registry_rejects_bad_requests() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(from_name("moebius", &[4], &mut rng)
            .unwrap_err()
            .contains("unknown generator family"));
        assert!(from_name("path", &[1, 2], &mut rng)
            .unwrap_err()
            .contains("1 parameter"));
        assert!(from_name("cycle", &[1], &mut rng).is_err());
        assert!(from_name("kary", &[1, 2], &mut rng).is_err());
        assert!(from_name("prefattach", &[2, 5], &mut rng).is_err());
        assert!(from_name("random", &[9, 9], &mut rng)
            .unwrap_err()
            .contains("not less than"));
    }

    #[test]
    fn family_size_matches_what_from_name_builds() {
        let mut rng = StdRng::seed_from_u64(9);
        for (name, params) in [
            ("path", vec![0]),
            ("path", vec![7]),
            ("random-tree", vec![1]),
            ("random-tree", vec![9]),
            ("cycle", vec![5]),
            ("star", vec![0]),
            ("star", vec![6]),
            ("spider", vec![0]),
            ("spider", vec![3]),
            ("btree", vec![0]),
            ("btree", vec![4]),
            ("kary", vec![3, 0]),
            ("kary", vec![3, 3]),
            ("kary", vec![usize::MAX, 0]),
            ("caterpillar", vec![1, 0]),
            ("caterpillar", vec![3, 4]),
            ("prefattach", vec![20, 3]),
            ("random", vec![]),
            ("random", vec![1, 1, 2, 0]),
        ] {
            let g = from_name(name, &params, &mut rng).unwrap();
            assert_eq!(
                family_size(name, &params).unwrap(),
                (g.n(), g.total_arcs()),
                "{name} {params:?}"
            );
        }
    }

    #[test]
    fn oversized_families_are_refused_before_allocating() {
        let mut rng = StdRng::seed_from_u64(3);
        // Height 70 overflows 2^(h+1): an unchecked shift wraps in
        // release and builds the height-6 tree instead.
        for (name, params) in [
            ("btree", vec![70]),
            ("btree", vec![usize::MAX]),
            ("btree", vec![21]),
            ("kary", vec![2, usize::MAX]),
            ("kary", vec![usize::MAX, 2]),
            ("path", vec![MAX_VERTICES + 1]),
            ("spider", vec![usize::MAX]),
            ("caterpillar", vec![1, usize::MAX]),
            ("prefattach", vec![4_000_000, 3]),
            ("prefattach", vec![usize::MAX, usize::MAX - 1]),
        ] {
            let err = from_name(name, &params, &mut rng).unwrap_err();
            assert!(err.contains("cap"), "{name} {params:?}: {err}");
        }
        // Just under the caps still builds (sizes only: no allocation).
        assert_eq!(
            family_size("btree", &[20]).unwrap().0,
            (1 << 21) - 1,
            "the largest perfect binary tree under the cap"
        );
        assert_eq!(
            family_size("path", &[MAX_VERTICES]).unwrap(),
            (MAX_VERTICES, MAX_VERTICES - 1)
        );
        assert!(family_size("prefattach", &[MAX_VERTICES, 4]).is_ok());
        assert!(family_size("prefattach", &[MAX_VERTICES, 5]).is_err());
    }

    #[test]
    fn path_cycle_star() {
        assert_eq!(path(5).total_arcs(), 4);
        assert_eq!(cycle(5).total_arcs(), 5);
        assert_eq!(star(5).out_degree(NodeId::new(0)), 4);
        let csr = Csr::from_digraph(&cycle(2));
        // 2-cycle is a brace.
        assert_eq!(csr.degree(NodeId::new(0)), 2);
    }
}
