//! Incremental single-source distance maintenance for candidate
//! pricing.
//!
//! The bitset kernel prices every candidate strategy with a patched
//! BFS from scratch — O(n²/64) word ops per candidate, cut short only
//! by the incumbent abort, even when the candidate changes almost
//! nothing. The sparse kernel exploits the
//! structure of a best-response session instead: the session graph `G₀`
//! (the deviator `u` detached) is fixed, and every candidate `T` only
//! *adds* the star `{u, t}` for `t ∈ T`. Distances from `u` can
//! therefore only **decrease**, and by exactly the identity
//!
//! ```text
//! dist_T(u, v) = min(base(v), 1 + min_{t ∈ T} d_{G₀}(t, v))
//! ```
//!
//! where `base = d_{G₀ + star}(u, ·)` with the empty star — any `u→v`
//! path either avoids the new edges (≥ `base(v)`) or starts with one
//! hop `u→t` followed by a `G₀` path. [`SparseSssp`] computes `base`
//! with one BFS per session ([`SparseSssp::rebase`]) and prices each
//! candidate by a **decrease-only multi-source repair**: seed the
//! targets at tentative distance 1, propagate improvements only (a
//! relaxation out of a non-improved vertex can never beat `base`,
//! because adjacent base distances differ by at most 1), and roll the
//! touched entries back from a journal. Cost per candidate is
//! proportional to the *improved region*, not to `n` — the asymptotic
//! win the `sparse` kernel is built on. Nothing outlives the session:
//! the next session's rebase starts over.
//!
//! A distance histogram is maintained alongside so the eccentricity
//! (`max_dist`) is exact after repair, and so the deviation engine can
//! derive landmark-style lower bounds from the base profile without
//! touching the graph.

use crate::adjacency::Adjacency;
use crate::bfs::{BfsStats, PriceBudget, UNREACHED};
use crate::node::NodeId;

/// Reusable scratch for one session's base BFS plus per-candidate
/// decrease-only repairs.
#[derive(Clone, Debug)]
pub struct SparseSssp {
    /// Current distance from the session source (`UNREACHED` encoding);
    /// equals the base profile except transiently inside
    /// [`Self::price`].
    dist: Vec<u32>,
    /// `hist[d]` = number of vertices at finite distance `d`.
    hist: Vec<u32>,
    /// The vertices with finite base `dist`, in BFS order, kept so the
    /// next rebase can clear in O(|reached|).
    reached: Vec<NodeId>,
    /// FIFO repair queue (reused per [`Self::price`]).
    frontier: Vec<NodeId>,
    /// `(vertex, pre-repair distance)` undo log for one repair.
    journal: Vec<(NodeId, u32)>,
    /// Base aggregates from the last [`Self::rebase`].
    base_visited: usize,
    base_sum: u64,
    base_max: u32,
    /// Session source, used to guard accidental cross-source pricing.
    source: Option<NodeId>,
    /// Suffix tables over the base histogram for the mid-repair abort
    /// bound: `gsuf1[d] = Σ_{d' ≥ d} hist[d']` and
    /// `gsuf2[d] = Σ_{d' ≥ d} hist[d']·d'`, so the maximum total
    /// decrease still available once every future improvement lands at
    /// distance ≥ L is `gsuf2[L+1] − L·gsuf1[L+1]`, O(1) per level.
    gsuf1: Vec<u64>,
    gsuf2: Vec<u64>,
}

impl SparseSssp {
    /// Scratch for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        SparseSssp {
            dist: vec![UNREACHED; n],
            // Distances are < n, plus one slot so `hist[0]` exists even
            // for n = 0 sessions that never rebase.
            hist: vec![0; n + 1],
            reached: Vec::new(),
            frontier: Vec::new(),
            journal: Vec::new(),
            base_visited: 0,
            base_sum: 0,
            base_max: 0,
            source: None,
            gsuf1: Vec::new(),
            gsuf2: Vec::new(),
        }
    }

    /// Resize for a graph with `n` vertices, invalidating any base.
    pub fn resize(&mut self, n: usize) {
        if self.dist.len() != n {
            *self = SparseSssp::new(n);
        }
    }

    /// Full BFS from `src` over `adj`, recording the base distance
    /// profile, its histogram and its aggregates. Returns the base
    /// stats (identical to [`crate::BfsScratch::run`] on `adj`).
    pub fn rebase<A: Adjacency + ?Sized>(&mut self, adj: &A, src: NodeId) -> BfsStats {
        self.resize(adj.n());
        // Clear only what the previous base touched: its reached
        // vertices and its histogram buckets (pricing always rolls
        // both back).
        for &w in &self.reached {
            self.dist[w.index()] = UNREACHED;
        }
        for b in &mut self.hist[..=self.base_max as usize] {
            *b = 0;
        }
        self.reached.clear();
        self.journal.clear();

        self.dist[src.index()] = 0;
        self.reached.push(src);
        let mut head = 0;
        let mut max_dist = 0;
        let mut sum_dist: u64 = 0;
        while head < self.reached.len() {
            let u = self.reached[head];
            head += 1;
            let du = self.dist[u.index()];
            max_dist = du;
            sum_dist += du as u64;
            self.hist[du as usize] += 1;
            for &w in adj.neighbors(u) {
                if self.dist[w.index()] == UNREACHED {
                    self.dist[w.index()] = du + 1;
                    self.reached.push(w);
                }
            }
        }
        self.base_visited = self.reached.len();
        self.base_sum = sum_dist;
        self.base_max = max_dist;
        self.source = Some(src);
        self.rebuild_suffix_tables();
        self.base_stats()
    }

    /// Rebuild the abort-bound suffix tables from the current base
    /// histogram. O(base_max).
    fn rebuild_suffix_tables(&mut self) {
        let top = self.base_max as usize;
        self.gsuf1.clear();
        self.gsuf2.clear();
        self.gsuf1.resize(top + 2, 0);
        self.gsuf2.resize(top + 2, 0);
        for d in (0..=top).rev() {
            self.gsuf1[d] = self.gsuf1[d + 1] + self.hist[d] as u64;
            self.gsuf2[d] = self.gsuf2[d + 1] + self.hist[d] as u64 * d as u64;
        }
    }

    /// `Σ_{d > level} hist[d]·(d − level)` over the base profile: the
    /// largest total distance decrease still possible once every
    /// not-yet-improved vertex can only land at distance ≥ `level`.
    #[inline]
    fn improvable_slack(&self, level: u32) -> u64 {
        let i = level as usize + 1;
        if i >= self.gsuf1.len() {
            return 0;
        }
        self.gsuf2[i] - level as u64 * self.gsuf1[i]
    }

    /// Stats of the base profile (the empty candidate).
    #[inline]
    pub fn base_stats(&self) -> BfsStats {
        BfsStats {
            visited: self.base_visited,
            max_dist: self.base_max,
            sum_dist: self.base_sum,
        }
    }

    /// Base distance of `v`, with unreached encoded as
    /// [`UNREACHED`]. Only meaningful after a [`Self::rebase`].
    #[inline]
    pub fn base_dist(&self, v: NodeId) -> u32 {
        self.dist[v.index()]
    }

    /// Largest finite base distance (the source's eccentricity within
    /// its component).
    #[inline]
    pub fn base_max(&self) -> u32 {
        self.base_max
    }

    /// Histogram of the base profile: `hist()[d]` vertices sit at
    /// finite distance `d`, for `d ∈ 0..=base_max()`.
    #[inline]
    pub fn hist(&self) -> &[u32] {
        &self.hist[..=self.base_max as usize]
    }

    /// Price the candidate star `{src, t} for t ∈ targets` on top of
    /// the base: decrease-only repair, stats out, state rolled back.
    /// Duplicate targets and `src` itself are ignored, exactly like
    /// [`crate::BfsScratch::run_patched`] with `patch_owner = src`.
    ///
    /// Returns stats identical to a full patched BFS, in time
    /// proportional to the improved region.
    ///
    /// # Panics
    /// Debug-panics if no base for `src` is current.
    pub fn price<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        src: NodeId,
        targets: &[NodeId],
    ) -> BfsStats {
        self.price_bounded(adj, src, targets, &PriceBudget::unbounded())
            .expect("unbounded pricing cannot abort")
    }

    /// [`Self::price`] with a mid-repair abort: returns `None` as soon
    /// as the final stats provably meet `budget` (the caller's
    /// incumbent can then never be strictly beaten), leaving the base
    /// profile fully restored either way.
    ///
    /// Soundness of the abort: the decrease-only repair pops vertices
    /// in nondecreasing distance order, so when the first vertex at
    /// level `L` is popped every future improvement and every
    /// still-unvisited reachable vertex lands at distance ≥ `L + 1`.
    /// Sharper: a vertex can only be *discovered* (leave `UNREACHED`)
    /// at `L + 1` by relaxation from a frontier entry at level `L`, so
    /// the degree sum of the pending level-`L` entries caps the
    /// discoveries at `L + 1`; every unvisited vertex beyond that cap
    /// lands at distance ≥ `L + 2`. The final sum is therefore at
    /// least `sum_now + u·(L+1) + max(0, u − degsum_L) − slack(L+1)`
    /// with `u = reachable − visited_now`, where `slack` caps how much
    /// the not-yet-improved base vertices can still decrease (suffix
    /// tables over the base histogram; discoveries are not
    /// improvements, so the spill term and the slack never double
    /// count), and the final eccentricity is at least `L + 1` while
    /// unvisited reachable vertices remain — at least `L + 2` once
    /// they outnumber the cap.
    ///
    /// Two fast paths ride along: SUM-model callers (`need_max =
    /// false`) skip all histogram bookkeeping (the returned `max_dist`
    /// is 0 and must not be read), and *flood* sessions — a base that
    /// reaches only the source, the common case for players with no
    /// in-arcs — skip the undo journal entirely because every touched
    /// vertex rolls back to `UNREACHED`.
    pub fn price_bounded<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        src: NodeId,
        targets: &[NodeId],
        budget: &PriceBudget,
    ) -> Option<BfsStats> {
        debug_assert_eq!(self.source, Some(src), "price() without matching rebase()");
        debug_assert_eq!(self.dist.len(), adj.n());
        let flood = self.base_visited <= 1;
        let track_hist = budget.need_max && !flood;
        let check_sum = budget.sum != u64::MAX;
        let check_max = budget.max != u32::MAX;
        self.frontier.clear();
        self.journal.clear();
        let mut visited = self.base_visited;
        let mut sum = self.base_sum;
        let mut max_assigned = self.base_max;
        // Degree sum of the frontier entries assigned the level after
        // the one being expanded; a transition drains it as the
        // discovery cap for the next level (see the abort soundness
        // note above).
        let mut deg_next: u64 = 0;

        // Seed: every target drops to distance 1 unless already there
        // (or it is the source, which stays at 0).
        for &t in targets {
            let d = self.dist[t.index()];
            if t == src || d <= 1 {
                continue;
            }
            if !flood {
                self.journal.push((t, d));
            }
            if d == UNREACHED {
                visited += 1;
                sum += 1;
            } else {
                sum -= (d - 1) as u64;
                if track_hist {
                    self.hist[d as usize] -= 1;
                }
            }
            if track_hist {
                self.hist[1] += 1;
            }
            if max_assigned < 1 {
                max_assigned = 1;
            }
            self.dist[t.index()] = 1;
            self.frontier.push(t);
            deg_next += adj.degree(t) as u64;
        }

        // Decrease-only propagation. Seeds share level 1, so pops are
        // monotone and each vertex is improved (and journaled) at most
        // once. Improvements through a *non*-improved vertex are
        // impossible: `base` is a BFS profile, so adjacent base
        // distances differ by ≤ 1.
        let mut head = 0;
        let mut aborted = false;
        let mut cur = 0u32;
        'repair: while head < self.frontier.len() {
            let u = self.frontier[head];
            head += 1;
            let du = self.dist[u.index()];
            if du > cur {
                // Entering pop level `du`: everything still pending
                // lands at distance ≥ du + 1, and only the pending
                // entries' neighbourhoods can land exactly there.
                cur = du;
                let deg_pending = std::mem::take(&mut deg_next);
                if check_sum || check_max {
                    let unvisited = (budget.reachable - visited.min(budget.reachable)) as u64;
                    let spill = unvisited.saturating_sub(deg_pending);
                    if check_max
                        && unvisited > 0
                        && (cur + 1 >= budget.max || (spill > 0 && cur + 2 >= budget.max))
                    {
                        aborted = true;
                        break 'repair;
                    }
                    if check_sum {
                        let lb = (sum + unvisited * (cur as u64 + 1) + spill)
                            .saturating_sub(self.improvable_slack(cur + 1));
                        if lb >= budget.sum {
                            aborted = true;
                            break 'repair;
                        }
                    }
                }
            }
            let nd = du + 1;
            for &w in adj.neighbors(u) {
                let old = self.dist[w.index()];
                if nd < old {
                    if !flood {
                        self.journal.push((w, old));
                    }
                    if old == UNREACHED {
                        visited += 1;
                        sum += nd as u64;
                    } else {
                        sum -= (old - nd) as u64;
                        if track_hist {
                            self.hist[old as usize] -= 1;
                        }
                    }
                    if track_hist {
                        self.hist[nd as usize] += 1;
                    }
                    if nd > max_assigned {
                        max_assigned = nd;
                    }
                    self.dist[w.index()] = nd;
                    self.frontier.push(w);
                    deg_next += adj.degree(w) as u64;
                }
            }
        }

        let stats = if aborted {
            None
        } else if budget.need_max {
            // Exact eccentricity. In flood mode nothing finite ever
            // decreased, so the deepest assignment is the answer; in
            // general mode scan down from the largest bucket that can
            // be occupied (terminates at 0, the source's bucket).
            let max_dist = if flood {
                max_assigned
            } else {
                let mut md = max_assigned;
                while md > 0 && self.hist[md as usize] == 0 {
                    md -= 1;
                }
                md
            };
            Some(BfsStats {
                visited,
                max_dist,
                sum_dist: sum,
            })
        } else {
            Some(BfsStats {
                visited,
                max_dist: 0,
                sum_dist: sum,
            })
        };

        // Roll back to the base profile. In flood mode every touched
        // vertex (seed or improved) came from `UNREACHED` and the
        // histogram was never written; otherwise replay the journal
        // (entries are unique per vertex, order irrelevant).
        if flood {
            for &w in &self.frontier {
                self.dist[w.index()] = UNREACHED;
            }
        } else if track_hist {
            for &(w, old) in self.journal.iter().rev() {
                let cur = self.dist[w.index()];
                self.hist[cur as usize] -= 1;
                if old != UNREACHED {
                    self.hist[old as usize] += 1;
                }
                self.dist[w.index()] = old;
            }
        } else {
            for &(w, old) in self.journal.iter().rev() {
                self.dist[w.index()] = old;
            }
        }
        self.journal.clear();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsScratch;
    use crate::csr::Csr;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn path_csr(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn rebase_matches_plain_bfs() {
        let csr = path_csr(6);
        let mut sssp = SparseSssp::new(6);
        let mut bfs = BfsScratch::new(6);
        for s in 0..6 {
            assert_eq!(sssp.rebase(&csr, v(s)), bfs.run(&csr, v(s)));
            assert_eq!(sssp.hist().iter().sum::<u32>() as usize, 6);
        }
    }

    #[test]
    fn price_matches_patched_bfs_on_paths() {
        let csr = path_csr(8);
        let mut sssp = SparseSssp::new(8);
        let mut bfs = BfsScratch::new(8);
        sssp.rebase(&csr, v(0));
        for targets in [
            &[v(7)][..],
            &[v(4), v(7)][..],
            &[v(1)][..],
            &[v(0)][..],
            &[v(7), v(7), v(0)][..],
            &[][..],
        ] {
            assert_eq!(
                sssp.price(&csr, v(0), targets),
                bfs.run_patched(&csr, v(0), v(0), targets),
                "targets {targets:?}"
            );
        }
        // Base must survive every rollback.
        assert_eq!(sssp.base_stats(), bfs.run(&csr, v(0)));
        assert_eq!(sssp.base_dist(v(7)), 7);
    }

    #[test]
    fn price_reaches_new_components() {
        let csr = Csr::from_edges(6, &[(0, 1), (2, 3), (3, 4), (4, 5)]);
        let mut sssp = SparseSssp::new(6);
        let mut bfs = BfsScratch::new(6);
        sssp.rebase(&csr, v(0));
        assert_eq!(sssp.base_dist(v(2)), UNREACHED);
        let got = sssp.price(&csr, v(0), &[v(2)]);
        let want = bfs.run_patched(&csr, v(0), v(0), &[v(2)]);
        assert_eq!(got, want);
        assert_eq!(got.visited, 6);
        assert_eq!(got.max_dist, 4); // 0→2 patch, then 2-3-4-5
                                     // Rollback left the unreached component unreached.
        assert_eq!(sssp.base_dist(v(5)), UNREACHED);
        assert_eq!(sssp.base_stats().visited, 2);
    }

    #[test]
    fn repeated_pricing_is_stateless() {
        let csr = path_csr(10);
        let mut sssp = SparseSssp::new(10);
        sssp.rebase(&csr, v(0));
        let first = sssp.price(&csr, v(0), &[v(9)]);
        for _ in 0..5 {
            assert_eq!(sssp.price(&csr, v(0), &[v(9)]), first);
        }
    }

    #[test]
    fn rebase_clears_previous_session() {
        let a = path_csr(5);
        let b = Csr::from_edges(5, &[(0, 1), (1, 2)]);
        let mut sssp = SparseSssp::new(5);
        let mut bfs = BfsScratch::new(5);
        sssp.rebase(&a, v(0));
        sssp.price(&a, v(0), &[v(4)]);
        // Switch graphs and sources: no state may leak.
        assert_eq!(sssp.rebase(&b, v(2)), bfs.run(&b, v(2)));
        assert_eq!(
            sssp.price(&b, v(2), &[v(4)]),
            bfs.run_patched(&b, v(2), v(2), &[v(4)])
        );
    }

    #[test]
    fn zero_and_single_vertex_scratches() {
        let _ = SparseSssp::new(0);
        let mut sssp = SparseSssp::new(0);
        sssp.resize(1);
        let csr = Csr::from_edges(1, &[]);
        let stats = sssp.rebase(&csr, v(0));
        assert_eq!(stats.visited, 1);
        assert_eq!(stats.max_dist, 0);
        assert_eq!(sssp.price(&csr, v(0), &[]), stats);
        assert_eq!(sssp.price(&csr, v(0), &[v(0)]), stats);
    }
}
