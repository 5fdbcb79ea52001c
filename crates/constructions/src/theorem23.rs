//! The Theorem 2.3 equilibrium constructions.
//!
//! For **every** budget vector the paper constructs a Nash equilibrium
//! (in both SUM and MAX versions), proving existence and a price of
//! stability of O(1). Three cases, by `σ = Σbᵢ`, `z` = number of
//! zero-budget players, and `b_max`:
//!
//! * **Case 1** (`σ ≥ n−1`, `b_max ≥ z`): one high-budget hub links all
//!   zero-budget players; everyone else links the hub; leftover budget
//!   is spent on arbitrary non-adjacent targets; braces incident to
//!   local-diameter-2 vertices are swapped away. Result: diameter ≤ 2
//!   and every vertex carries the Lemma 2.2 certificate.
//! * **Case 2** (`σ ≥ n−1`, `b_max < z`): no single vertex can cover the
//!   zero-budget set, so the top-budget vertices `{v_t} ∪ C ∪ {v_n}`
//!   jointly cover it in four phases (the paper's Figure 1 shows the
//!   n = 22 instance). Result: diameter ≤ 4.
//! * **Case 3** (`σ < n−1`): connectivity is impossible; the unique
//!   maximal sub-instance that can span itself (which is exactly a
//!   Tree-BG sub-instance) is built as an equilibrium and the rest stay
//!   isolated.
//!
//! The construction works on budgets sorted nondecreasing and the result
//! is relabelled back to the caller's player order.

use bbncg_core::{BudgetVector, Realization};
use bbncg_graph::{BfsScratch, Csr, NodeId, OwnedDigraph};

/// Which case of Theorem 2.3 produced the equilibrium.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Theorem23Case {
    /// σ ≥ n−1 and the largest budget covers all zero-budget players.
    SingleCover,
    /// σ ≥ n−1 but the zero-budget players need several coverers.
    LayeredCover,
    /// σ < n−1: every realization is disconnected.
    Disconnected,
}

/// Output of [`theorem23_equilibrium`].
#[derive(Clone, Debug)]
pub struct Theorem23Construction {
    /// The constructed profile — a Nash equilibrium in both versions.
    pub realization: Realization,
    /// Which case applied.
    pub case: Theorem23Case,
    /// The diameter guarantee of that case: 2 for `SingleCover`, 4 for
    /// `LayeredCover`, `n²` (disconnected) for `Disconnected`.
    pub diameter_bound: u64,
}

/// Build the Theorem 2.3 equilibrium for an arbitrary budget vector.
///
/// The result realizes `budgets` exactly (player `i` owns `budgets[i]`
/// arcs) and is a pure Nash equilibrium in both the SUM and MAX
/// versions.
///
/// ```
/// use bbncg_constructions::theorem23_equilibrium;
/// use bbncg_core::{is_nash_equilibrium, BudgetVector, CostModel};
///
/// let c = theorem23_equilibrium(&BudgetVector::new(vec![0, 1, 1, 3]));
/// assert!(c.realization.social_diameter() <= 4);
/// assert!(is_nash_equilibrium(&c.realization, CostModel::Sum));
/// assert!(is_nash_equilibrium(&c.realization, CostModel::Max));
/// ```
pub fn theorem23_equilibrium(budgets: &BudgetVector) -> Theorem23Construction {
    let n = budgets.n();
    if n <= 1 {
        return Theorem23Construction {
            realization: Realization::new(OwnedDigraph::empty(n)),
            case: Theorem23Case::SingleCover,
            diameter_bound: 0,
        };
    }
    // Sort players by budget (nondecreasing), remembering positions.
    // `rank[r]` = original player at sorted position r (1-based ranks in
    // the paper; 0-based here).
    let mut rank: Vec<usize> = (0..n).collect();
    rank.sort_by_key(|&i| (budgets.get(i), i));
    let sorted: Vec<usize> = rank.iter().map(|&i| budgets.get(i)).collect();

    let sigma: usize = sorted.iter().sum();
    let z = sorted.iter().filter(|&&b| b == 0).count();
    let bmax = *sorted.last().unwrap();

    let (arcs_sorted, case, bound) = if sigma >= n.saturating_sub(1) {
        if bmax >= z {
            (case1_arcs(&sorted), Theorem23Case::SingleCover, 2)
        } else {
            (case2_arcs(&sorted), Theorem23Case::LayeredCover, 4)
        }
    } else {
        (
            case3_arcs(&sorted),
            Theorem23Case::Disconnected,
            (n as u64) * (n as u64),
        )
    };

    // Relabel sorted positions back to original player ids.
    let arcs: Vec<(usize, usize)> = arcs_sorted
        .into_iter()
        .map(|(u, v)| (rank[u], rank[v]))
        .collect();
    let g = OwnedDigraph::from_arcs(n, &arcs);
    debug_assert_eq!(
        BudgetVector::of_realization(&g).as_slice(),
        budgets.as_slice(),
        "construction must realize the requested budgets exactly"
    );
    Theorem23Construction {
        realization: Realization::new(g),
        case,
        diameter_bound: bound,
    }
}

/// Case 1 on sorted budgets (`b[0] ≤ … ≤ b[n−1]`, `σ ≥ n−1`,
/// `b[n−1] ≥ z`). Returns arcs over sorted positions.
fn case1_arcs(b: &[usize]) -> Vec<(usize, usize)> {
    let n = b.len();
    if n == 1 {
        return Vec::new();
    }
    let hub = n - 1;
    let bn = b[hub];
    let mut g = OwnedDigraph::empty(n);
    // Hub links the bn smallest-budget vertices (covers all zero-budget
    // players since bn ≥ z).
    for v in 0..bn {
        g.add_arc(NodeId::new(hub), NodeId::new(v));
    }
    // Everyone not already linked from the hub links the hub.
    for u in bn..n - 1 {
        g.add_arc(NodeId::new(u), NodeId::new(hub));
    }
    // Spend remaining budgets on arbitrary targets, preferring
    // non-adjacent ones so few braces appear.
    fill_remaining(&mut g, b);
    // Swap away braces at local-diameter-2 vertices (Lemma 2.2 repair).
    eliminate_braces(&mut g);
    g.arcs().map(|(u, v)| (u.index(), v.index())).collect()
}

/// Case 2 on sorted budgets (`σ ≥ n−1`, `b[n−1] < z`). The paper's
/// four-phase construction; see Figure 1 for the n = 22 example.
fn case2_arcs(b: &[usize]) -> Vec<(usize, usize)> {
    let n = b.len();
    let z = b.iter().filter(|&&x| x == 0).count();
    // t = largest (1-based) index with b_n + … + b_t ≥ z + n − t.
    // 0-based: largest t0 with sum(b[t0..]) ≥ z + n − (t0 + 1).
    let mut suffix = 0usize;
    let mut t0 = None;
    for i in (0..n).rev() {
        suffix += b[i];
        if suffix >= z + n - (i + 1) {
            t0 = Some(i);
            break;
        }
    }
    let t0 = t0.expect("t exists whenever sigma >= n-1");
    debug_assert!(t0 + 1 > z, "paper: t > z");
    debug_assert!(t0 + 1 < n, "paper: t < n");

    let hub = n - 1; // v_n; A = 0..z are the zero-budget players
    let b_set = z..t0 + 1; // v_{z+1} .. v_t
    let c_set = t0 + 1..n - 1; // v_{t+1} .. v_{n-1}
    let mut g = OwnedDigraph::empty(n);

    // Phase 1: every vertex in B ∪ C links the hub.
    for u in b_set.clone().chain(c_set.clone()) {
        g.add_arc(NodeId::new(u), NodeId::new(hub));
    }

    // Phase 2: {v_n} ∪ C ∪ {v_t} cover A.
    // Hub takes the first b_n vertices of A; then v_{n-1} the next
    // b_{n-1} − 1; … down to v_{t+1}; finally v_t takes the last s.
    let mut next_a = 0usize;
    for v in 0..b[hub] {
        g.add_arc(NodeId::new(hub), NodeId::new(v));
        next_a = v + 1;
    }
    for w in c_set.clone().rev() {
        for _ in 0..b[w].saturating_sub(1) {
            g.add_arc(NodeId::new(w), NodeId::new(next_a));
            next_a += 1;
        }
    }
    // s = z + n − (t + 1) − (b_n + … + b_{t+1})  [1-based t]
    let top_sum: usize = b[t0 + 1..].iter().sum();
    let s = z + n - (t0 + 2) - top_sum;
    debug_assert!(s >= 1, "paper: s positive by definition of t");
    debug_assert!(s < b[t0], "v_t must afford phase 1 + its s arcs");
    for _ in 0..s {
        g.add_arc(NodeId::new(t0), NodeId::new(next_a));
        next_a += 1;
    }
    debug_assert_eq!(next_a, z, "phase 2 covers A exactly");

    // Phase 3: B spends leftover budget on C ∪ {v_t}, in reverse order.
    for u in b_set.clone() {
        for w in (t0..n - 1).rev() {
            if g.out_degree(NodeId::new(u)) >= b[u] {
                break;
            }
            if w != u && !g.has_arc(NodeId::new(u), NodeId::new(w)) {
                g.add_arc(NodeId::new(u), NodeId::new(w));
            }
        }
    }

    // Phase 4: B spends any remaining budget on A, in order.
    for u in b_set {
        let mut v = 0usize;
        while g.out_degree(NodeId::new(u)) < b[u] {
            debug_assert!(v < z, "phase 4 must fit inside A");
            if !g.has_arc(NodeId::new(u), NodeId::new(v)) {
                g.add_arc(NodeId::new(u), NodeId::new(v));
            }
            v += 1;
        }
    }
    g.arcs().map(|(u, v)| (u.index(), v.index())).collect()
}

/// Case 3 on sorted budgets (`σ < n−1`): isolate the zero-prefix that
/// cannot be spanned and build the equilibrium on the maximal
/// self-spanning suffix, which is a Tree-BG sub-instance.
fn case3_arcs(b: &[usize]) -> Vec<(usize, usize)> {
    let n = b.len();
    // m = smallest (1-based) index with b_m + … + b_n ≥ n − m;
    // 0-based: smallest m0 with sum(b[m0..]) ≥ n − (m0 + 1).
    let mut m0 = n; // fallback: the last vertex alone (b_n ≥ 0 = n − n)
    let mut suffix = 0usize;
    let mut sums = vec![0usize; n + 1];
    for i in (0..n).rev() {
        suffix += b[i];
        sums[i] = suffix;
    }
    for i in 0..n {
        if sums[i] >= n - (i + 1) {
            m0 = i;
            break;
        }
    }
    // The sub-instance b[m0..] has σ' = n' − 1 exactly (see module doc);
    // recurse on it (it lands in case 1 or 2).
    let sub: Vec<usize> = b[m0..].to_vec();
    let sub_budgets = BudgetVector::new(sub.clone());
    debug_assert!(sub_budgets.is_tree_instance());
    let sub_eq = theorem23_equilibrium(&sub_budgets);
    sub_eq
        .realization
        .graph()
        .arcs()
        .map(|(u, v)| (u.index() + m0, v.index() + m0))
        .collect()
}

/// Spend any remaining budget: for each vertex in sorted order, add arcs
/// to the smallest-id vertices it is not yet adjacent to (avoiding
/// braces when possible), falling back to brace-creating targets only
/// when every non-target is already an in-neighbour.
fn fill_remaining(g: &mut OwnedDigraph, b: &[usize]) {
    let n = g.n();
    for u in 0..n {
        let uid = NodeId::new(u);
        while g.out_degree(uid) < b[u] {
            // Prefer targets with no adjacency at all.
            let pick = (0..n)
                .map(NodeId::new)
                .find(|&w| w != uid && !g.adjacent(uid, w))
                .or_else(|| {
                    (0..n)
                        .map(NodeId::new)
                        .find(|&w| w != uid && !g.has_arc(uid, w))
                });
            match pick {
                Some(w) => g.add_arc(uid, w),
                None => unreachable!("budget b_u < n guarantees a free target"),
            }
        }
    }
}

/// Lemma 2.2 repair: while some brace `{u, v}` has an endpoint `u` with
/// local diameter 2 and a non-adjacent vertex `w` exists, replace the
/// arc `u → v` with `u → w`. Each swap strictly decreases the number of
/// braces (the new target is non-adjacent, so no new brace appears).
fn eliminate_braces(g: &mut OwnedDigraph) {
    let n = g.n();
    let mut scratch = BfsScratch::new(n);
    loop {
        let csr = Csr::from_digraph(g);
        let mut swapped = false;
        'outer: for u in 0..n {
            let uid = NodeId::new(u);
            for &v in g.out(uid) {
                if !g.has_arc(v, uid) {
                    continue; // not a brace
                }
                let ecc = scratch.run(&csr, uid).max_dist;
                if ecc != 2 {
                    continue;
                }
                if let Some(w) = (0..n)
                    .map(NodeId::new)
                    .find(|&w| w != uid && !g.adjacent(uid, w))
                {
                    g.swap_arc(uid, v, w);
                    swapped = true;
                    break 'outer;
                }
            }
        }
        if !swapped {
            return;
        }
    }
}

/// The paper's Figure 1 instance: n = 22 with budgets
/// `(0×16, 2, 5, 5, 5, 5, 5)` — sixteen zero-budget players, one with
/// budget 2, five with budget 5. σ = 27 ≥ 21 and `b_max = 5 < z = 16`,
/// so Theorem 2.3's Case 2 (the layered cover) applies with `t = 19`.
pub fn figure1_budgets() -> BudgetVector {
    let mut b = vec![0usize; 16];
    b.push(2);
    b.extend_from_slice(&[5, 5, 5, 5, 5]);
    BudgetVector::new(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_core::{
        is_nash_equilibrium_with_kernel, lemma22_certifies_all, CostKernel, CostModel,
    };

    /// The construction realizes `budgets` exactly, meets its diameter
    /// bound, and is a Nash equilibrium in both models under every
    /// concrete cost kernel.
    fn check_equilibrium_both(budgets: Vec<usize>) {
        let b = BudgetVector::new(budgets.clone());
        let c = theorem23_equilibrium(&b);
        assert_eq!(
            c.realization.budgets().as_slice(),
            b.as_slice(),
            "budgets must be realized exactly: {budgets:?}"
        );
        assert!(
            c.realization.social_diameter() <= c.diameter_bound,
            "diameter bound violated for {budgets:?}: {} > {}",
            c.realization.social_diameter(),
            c.diameter_bound
        );
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            for model in CostModel::ALL {
                assert!(
                    is_nash_equilibrium_with_kernel(&c.realization, model, kernel),
                    "{budgets:?} must be a {model:?} equilibrium under {kernel} (case {:?})",
                    c.case
                );
            }
        }
    }

    #[test]
    fn case1_simple_instances() {
        check_equilibrium_both(vec![0, 1]);
        check_equilibrium_both(vec![1, 1]);
        check_equilibrium_both(vec![0, 0, 2]);
        check_equilibrium_both(vec![1, 1, 1, 1]);
        check_equilibrium_both(vec![0, 1, 1, 3]);
        check_equilibrium_both(vec![2, 2, 2, 2, 2]);
    }

    #[test]
    fn case1_with_leftover_budget() {
        // σ = 10 > n−1 = 5; hub budget 3 ≥ z = 1; several vertices have
        // leftover budget after linking the hub.
        check_equilibrium_both(vec![0, 2, 2, 3, 3]);
    }

    #[test]
    fn case2_small_instances() {
        // b_max < z and σ ≥ n−1 forces the layered cover.
        // n = 7: z = 4, b_max = 2, σ = 6 = n−1.
        check_equilibrium_both(vec![0, 0, 0, 0, 2, 2, 2]);
        // n = 8: z = 5, σ = 8 > n−1 = 7.
        check_equilibrium_both(vec![0, 0, 0, 0, 0, 2, 3, 3]);
    }

    #[test]
    fn case2_classification() {
        let c = theorem23_equilibrium(&BudgetVector::new(vec![0, 0, 0, 0, 2, 2, 2]));
        assert_eq!(c.case, Theorem23Case::LayeredCover);
        assert!(c.realization.social_diameter() <= 4);
    }

    #[test]
    fn case3_disconnected_instances() {
        // σ < n−1: the suffix that can span itself is built, the rest
        // stay isolated; equilibrium in both versions.
        check_equilibrium_both(vec![0, 0, 0, 1, 1]); // σ = 2 < 4
        check_equilibrium_both(vec![0, 0, 0, 0, 1]); // σ = 1 < 4
        check_equilibrium_both(vec![0, 0, 0, 0, 0]); // empty graph
    }

    #[test]
    fn case3_classification_and_structure() {
        let c = theorem23_equilibrium(&BudgetVector::new(vec![0, 0, 0, 1, 1]));
        assert_eq!(c.case, Theorem23Case::Disconnected);
        // The self-spanning suffix is the Tree-BG sub-instance (0,1,1)
        // (a 3-vertex path); two isolated vertices remain.
        assert_eq!(c.realization.kappa(), 3);
    }

    #[test]
    fn figure1_instance_builds_with_case2() {
        let b = figure1_budgets();
        assert_eq!(b.n(), 22);
        assert_eq!(b.zero_count(), 16);
        assert_eq!(b.max_budget(), 5);
        let c = theorem23_equilibrium(&b);
        assert_eq!(c.case, Theorem23Case::LayeredCover);
        assert!(c.realization.is_connected());
        assert!(c.realization.social_diameter() <= 4);
        // Exact Nash verification: budgets ≤ 5, n = 22 → C(21,5) = 20349
        // candidates per player, fine.
        check_equilibrium_both(b.as_slice().to_vec());
    }

    #[test]
    fn case1_produces_lemma22_certificates() {
        for budgets in [vec![0, 0, 3, 3], vec![1, 1, 1, 1, 1], vec![0, 2, 2, 4, 4]] {
            let c = theorem23_equilibrium(&BudgetVector::new(budgets.clone()));
            assert_eq!(c.case, Theorem23Case::SingleCover);
            assert!(
                lemma22_certifies_all(&c.realization),
                "Lemma 2.2 must certify case-1 output for {budgets:?}"
            );
        }
    }

    #[test]
    fn price_of_stability_is_constant_for_connectable_instances() {
        // Theorem 2.3's corollary: PoS = O(1). Diameter ≤ 4 always.
        for budgets in [
            vec![0, 1, 1, 1],
            vec![0, 0, 0, 0, 2, 2, 2],
            vec![2, 2, 2, 2, 2, 2],
            vec![0, 0, 0, 0, 0, 2, 3, 3],
        ] {
            let c = theorem23_equilibrium(&BudgetVector::new(budgets));
            assert!(c.realization.social_diameter() <= 4);
        }
    }

    #[test]
    fn unsorted_budget_order_is_respected() {
        // Budgets given in arbitrary order: player ids keep their own
        // budgets in the output.
        check_equilibrium_both(vec![3, 0, 2, 0, 1]);
    }
}
