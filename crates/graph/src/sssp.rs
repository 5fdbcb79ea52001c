//! Incremental single-source distance maintenance for candidate
//! pricing.
//!
//! The queue and bitset kernels price every candidate strategy with a
//! patched BFS from scratch — O(n + m) or O(n²/64) per candidate, cut
//! short only by the incumbent abort, even when the candidate changes
//! almost nothing. The sparse kernel exploits the
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
//! hop `u→t` followed by a `G₀` path. [`SparseSssp`] stores `base` once
//! per session ([`SparseSssp::rebase`]) and prices each candidate by a
//! **decrease-only multi-source repair**: seed the targets at tentative
//! distance 1, propagate improvements only (a relaxation out of a
//! non-improved vertex can never beat `base`, because adjacent base
//! distances differ by at most 1), and roll the touched entries back
//! from a journal. Cost per candidate is proportional to the *improved
//! region*, not to `n` — the asymptotic win the `sparse` kernel is
//! built on.
//!
//! A distance histogram is maintained alongside so the eccentricity
//! (`max_dist`) is exact after repair, and so the deviation engine can
//! derive landmark-style lower bounds from the base profile without
//! touching the graph.

use crate::adjacency::Adjacency;
use crate::bfs::{BfsStats, PriceBudget, UNREACHED};
use crate::node::NodeId;

/// Result of a [`SparseSssp::repair_batch`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The base profile now matches the edited graph; the payload is
    /// the number of vertices whose distance was reset or improved
    /// (the "affected set" size, for observability).
    Repaired(usize),
    /// The deletion damage exceeded the threshold (or no matching base
    /// was retained). The scratch is marked stale — the caller must
    /// [`SparseSssp::rebase`] before pricing again.
    TooDamaged,
}

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
    /// Superset of the vertices with finite `dist` (exactly the finite
    /// set right after [`Self::rebase`]; [`Self::repair_batch`] can
    /// strand unreachable entries), kept so the next rebase can clear
    /// in O(|reached|).
    reached: Vec<NodeId>,
    /// FIFO repair queue (reused per [`Self::price`]).
    frontier: Vec<NodeId>,
    /// `(vertex, pre-repair distance)` undo log for one repair.
    journal: Vec<(NodeId, u32)>,
    /// Base aggregates from the last [`Self::rebase`]/repair.
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
    /// Epoch-stamped scratch marks for [`Self::repair_batch`]
    /// (candidate-queued and affected stamps).
    mark: Vec<u32>,
    aff: Vec<u32>,
    mark_epoch: u32,
    /// Dial-style bucket queue for repair re-relaxation (reused).
    buckets: Vec<Vec<NodeId>>,
    /// Highest histogram bucket that may be nonzero — `base_max` right
    /// after a rebase, but repairs can shrink `base_max` while leaving
    /// dirt above it, so rebase clears up to this watermark.
    hist_hwm: u32,
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
            mark: vec![0; n],
            aff: vec![0; n],
            mark_epoch: 0,
            buckets: Vec::new(),
            hist_hwm: 0,
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
        // Clear only what the previous base touched: reached vertices
        // (a superset of the finite set, see the field doc) and
        // histogram buckets up to the dirt watermark (pricing always
        // rolls back; `repair_batch` moves mass but tracks the highest
        // bucket it ever occupied).
        for &w in &self.reached {
            self.dist[w.index()] = UNREACHED;
        }
        for b in &mut self.hist[..=self.hist_hwm as usize] {
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
        self.hist_hwm = max_dist;
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

    /// The source the current base profile belongs to (`None` after a
    /// failed repair or before the first rebase).
    #[inline]
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }

    /// Drop the retained base: the next pricing call must be preceded
    /// by a fresh [`Self::rebase`].
    #[inline]
    pub fn invalidate(&mut self) {
        self.source = None;
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
        let mut unused = Vec::new();
        self.price_bounded_ball(adj, src, targets, budget, 0, &mut unused)
            .ok()
    }

    /// [`Self::price_bounded`] with an *overshoot ball*: instead of
    /// aborting at the first SUM-budget crossing, keep repairing until
    /// the certified lower bound clears `budget.sum` by
    /// `overshoot · budget.reachable` (or the repair completes with a
    /// sum at or over budget), then return `Err(lb)` where `lb` is a
    /// proven lower bound on the final patched sum.
    ///
    /// On that `Err`, `touched` is filled with `(v, d)` pairs for every
    /// repaired vertex whose in-session distance `d` satisfies
    /// `(d − 1)·reachable ≤ lb − budget.sum` — the vertices close
    /// enough to the seeds for the overshoot to carry. Each `d − 1`
    /// upper-bounds the premise-graph distance from the seed set to
    /// `v` (improvements propagate only along seeded paths), so by the
    /// pointwise triangle inequality the patched sum of *any*
    /// same-component single-target candidate `[v]` is at least
    /// `lb − reachable·(d − 1)`: one overshot pricing prunes a whole
    /// ball of future candidates. With `overshoot = 0` the behaviour
    /// is exactly [`Self::price_bounded`] (`touched` is never
    /// written). MAX-budget aborts return `Err(0)` — a trivially
    /// sound sum bound — and never fill `touched`.
    pub fn price_bounded_ball<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        src: NodeId,
        targets: &[NodeId],
        budget: &PriceBudget,
        overshoot: u64,
        touched: &mut Vec<(NodeId, u32)>,
    ) -> Result<BfsStats, u64> {
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
        // Certified lower bound on the final patched sum, set at a
        // SUM abort (MAX aborts leave the trivial 0).
        let mut sum_lb: u64 = 0;
        let os_active = overshoot > 0 && check_sum;
        let sum_abort_at = budget
            .sum
            .saturating_add(overshoot.saturating_mul(budget.reachable as u64));
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
                        if lb >= sum_abort_at {
                            aborted = true;
                            sum_lb = lb;
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

        // A repair that completed at or over a ball-overshot SUM
        // budget is reported as a crossing too: the exact sum is the
        // sharpest possible ball centre.
        if !aborted && os_active && sum >= budget.sum {
            aborted = true;
            sum_lb = sum;
        }
        // Fill the ball before rolling back — the in-session distances
        // are the `d(t, ·) + 1` upper bounds the caller propagates.
        // Only vertices whose bound can still clear the undershot
        // budget are worth reporting.
        if aborted && os_active && sum_lb >= budget.sum {
            touched.clear();
            let slack = sum_lb - budget.sum;
            let reach = budget.reachable as u64;
            for &w in &self.frontier {
                let d = self.dist[w.index()];
                if (d as u64 - 1).saturating_mul(reach) <= slack {
                    touched.push((w, d));
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
        match stats {
            Some(s) => Ok(s),
            None => Err(sum_lb),
        }
    }
}

impl SparseSssp {
    /// Repair the retained base profile after the premise graph was
    /// edited, instead of discarding it: `removed`/`inserted` are the
    /// *presence* changes (undirected, deduplicated — an edge whose
    /// multiplicity changed but stayed positive belongs in neither
    /// list), and `adj` is the graph **after** all edits.
    ///
    /// Deletions first: the affected set — vertices whose BFS level
    /// lost every supporter — is grown by a support-check cascade in
    /// increasing distance order, then reset and re-relaxed from its
    /// unaffected boundary with a Dial bucket queue (all on the graph
    /// *minus* the inserted edges, so stage one computes exact
    /// post-deletion distances). Insertions then run the usual
    /// decrease-only relaxation from the new endpoints. Aggregates,
    /// histogram and suffix tables are maintained throughout, so
    /// pricing can resume immediately.
    ///
    /// If the affected set exceeds `threshold` the attempt is
    /// abandoned *before* any state is mutated, the scratch is marked
    /// stale ([`Self::source`] returns `None`) and
    /// [`RepairOutcome::TooDamaged`] tells the caller to
    /// [`Self::rebase`] — a full BFS is cheaper than repairing
    /// large-scale damage.
    pub fn repair_batch<A: Adjacency + ?Sized>(
        &mut self,
        adj: &A,
        src: NodeId,
        removed: &[(NodeId, NodeId)],
        inserted: &[(NodeId, NodeId)],
        threshold: usize,
    ) -> RepairOutcome {
        if self.source != Some(src) || self.dist.len() != adj.n() {
            self.source = None;
            return RepairOutcome::TooDamaged;
        }
        let is_inserted = |a: NodeId, b: NodeId| {
            inserted
                .iter()
                .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
        };

        // ---- Stage 1: deletions (graph = adj − inserted) ----
        // Phase 1a: affected-set cascade. Marks only — no distance,
        // histogram or aggregate is touched until the set is known to
        // fit the threshold, so bailing out leaves the (now stale)
        // profile untouched.
        self.mark_epoch += 1;
        let ep = self.mark_epoch;
        self.journal.clear(); // reused as the (vertex, old dist) affected list
        let mut top_bucket = 0usize;
        for &(a, b) in removed {
            for v in [a, b] {
                let d = self.dist[v.index()];
                if d != 0 && d != UNREACHED && self.mark[v.index()] != ep {
                    self.mark[v.index()] = ep;
                    self.bucket_push(d as usize, v);
                    top_bucket = top_bucket.max(d as usize);
                }
            }
        }
        let mut d = 0usize;
        while d <= top_bucket && d < self.buckets.len() {
            while let Some(v) = self.buckets[d].pop() {
                if self.aff[v.index()] == ep || self.dist[v.index()] != d as u32 {
                    continue;
                }
                let mut supported = false;
                for &w in adj.neighbors(v) {
                    let dw = self.dist[w.index()];
                    if dw != UNREACHED
                        && dw + 1 == d as u32
                        && self.aff[w.index()] != ep
                        && !is_inserted(v, w)
                    {
                        supported = true;
                        break;
                    }
                }
                if supported {
                    continue;
                }
                self.aff[v.index()] = ep;
                self.journal.push((v, d as u32));
                if self.journal.len() > threshold {
                    for b in &mut self.buckets {
                        b.clear();
                    }
                    self.journal.clear();
                    self.source = None;
                    return RepairOutcome::TooDamaged;
                }
                for &w in adj.neighbors(v) {
                    let dw = self.dist[w.index()];
                    if dw != UNREACHED
                        && dw == d as u32 + 1
                        && self.mark[w.index()] != ep
                        && self.aff[w.index()] != ep
                        && !is_inserted(v, w)
                    {
                        self.mark[w.index()] = ep;
                        self.bucket_push(dw as usize, w);
                        top_bucket = top_bucket.max(dw as usize);
                    }
                }
            }
            d += 1;
        }

        // Phase 1b: reset the affected region and re-relax it from its
        // unaffected boundary (Dial queue, lazy deletion — improvement
        // values are strictly decreasing per vertex so every pushed
        // value is unique and `popped == dist` expands exactly once).
        let mut touched = self.journal.len();
        for &(v, old) in &self.journal {
            self.hist[old as usize] -= 1;
            self.base_sum -= old as u64;
            self.base_visited -= 1;
            self.dist[v.index()] = UNREACHED;
        }
        let affected = std::mem::take(&mut self.journal);
        let mut top = 0usize;
        for &(v, _) in &affected {
            let mut best = UNREACHED;
            for &w in adj.neighbors(v) {
                let dw = self.dist[w.index()];
                if dw != UNREACHED && dw + 1 < best && !is_inserted(v, w) {
                    best = dw + 1;
                }
            }
            if best != UNREACHED {
                self.dist[v.index()] = best;
                self.bucket_push(best as usize, v);
                top = top.max(best as usize);
            }
        }
        let mut d = 0usize;
        while d <= top && d < self.buckets.len() {
            while let Some(v) = self.buckets[d].pop() {
                if self.dist[v.index()] != d as u32 {
                    continue; // superseded tentative entry
                }
                // Settle v: it joins the aggregates at distance d.
                self.hist[d] += 1;
                self.base_sum += d as u64;
                self.base_visited += 1;
                self.hist_hwm = self.hist_hwm.max(d as u32);
                let nd = d as u32 + 1;
                for &w in adj.neighbors(v) {
                    if self.aff[w.index()] != ep || is_inserted(v, w) {
                        continue;
                    }
                    let dw = self.dist[w.index()];
                    if nd < dw {
                        self.dist[w.index()] = nd;
                        self.bucket_push(nd as usize, w);
                        top = top.max(nd as usize);
                    }
                }
            }
            d += 1;
        }
        self.journal = affected;
        self.journal.clear();

        // ---- Stage 2: insertions (full adj) — plain decrease-only
        // relaxation seeded from the new endpoints.
        let mut top = 0usize;
        let mut any = false;
        for &(a, b) in inserted {
            for (x, y) in [(a, b), (b, a)] {
                let dx = self.dist[x.index()];
                if dx == UNREACHED {
                    continue;
                }
                let nd = dx + 1;
                if nd < self.dist[y.index()] {
                    self.improve(y, nd);
                    self.bucket_push(nd as usize, y);
                    top = top.max(nd as usize);
                    touched += 1;
                    any = true;
                }
            }
        }
        if any {
            let mut d = 0usize;
            while d <= top && d < self.buckets.len() {
                while let Some(v) = self.buckets[d].pop() {
                    if self.dist[v.index()] != d as u32 {
                        continue;
                    }
                    let nd = d as u32 + 1;
                    for &w in adj.neighbors(v) {
                        if nd < self.dist[w.index()] {
                            self.improve(w, nd);
                            self.bucket_push(nd as usize, w);
                            top = top.max(nd as usize);
                            touched += 1;
                        }
                    }
                }
                d += 1;
            }
        }

        // Recompute the top of the profile and the derived tables.
        let mut md = self.hist_hwm;
        while md > 0 && self.hist[md as usize] == 0 {
            md -= 1;
        }
        self.base_max = md;
        self.rebuild_suffix_tables();
        RepairOutcome::Repaired(touched)
    }

    /// Decrease `v` to distance `nd`, keeping histogram and aggregates
    /// in step (insert-stage helper; a vertex can be improved several
    /// times before settling, each call adjusts the deltas).
    #[inline]
    fn improve(&mut self, v: NodeId, nd: u32) {
        let old = self.dist[v.index()];
        if old == UNREACHED {
            self.base_visited += 1;
            self.base_sum += nd as u64;
            self.reached.push(v);
        } else {
            self.hist[old as usize] -= 1;
            self.base_sum -= (old - nd) as u64;
        }
        self.hist[nd as usize] += 1;
        self.hist_hwm = self.hist_hwm.max(nd);
        self.dist[v.index()] = nd;
    }

    #[inline]
    fn bucket_push(&mut self, d: usize, v: NodeId) {
        if self.buckets.len() <= d {
            self.buckets.resize_with(d + 1, Vec::new);
        }
        self.buckets[d].push(v);
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
    fn repair_batch_noop_and_wrong_source() {
        let csr = path_csr(5);
        let mut sssp = SparseSssp::new(5);
        let base = sssp.rebase(&csr, v(0));
        // No presence changes: the profile is untouched.
        assert_eq!(
            sssp.repair_batch(&csr, v(0), &[], &[], 16),
            RepairOutcome::Repaired(0)
        );
        assert_eq!(sssp.base_stats(), base);
        // A different source cannot reuse the retained tree.
        assert_eq!(
            sssp.repair_batch(&csr, v(1), &[], &[], 16),
            RepairOutcome::TooDamaged
        );
        assert_eq!(sssp.source(), None);
    }

    #[test]
    fn repair_batch_delete_disconnects_suffix() {
        // Path 0-1-2-3-4; deleting 1-2 strands {2,3,4}.
        let before = path_csr(5);
        let after = Csr::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let mut sssp = SparseSssp::new(5);
        let mut fresh = SparseSssp::new(5);
        sssp.rebase(&before, v(0));
        let got = sssp.repair_batch(&after, v(0), &[(v(1), v(2))], &[], 16);
        assert!(matches!(got, RepairOutcome::Repaired(_)));
        let want = fresh.rebase(&after, v(0));
        assert_eq!(sssp.base_stats(), want);
        for u in 0..5 {
            assert_eq!(sssp.base_dist(v(u)), fresh.base_dist(v(u)), "vertex {u}");
        }
        // Pricing resumes on the repaired base.
        let mut bfs = BfsScratch::new(5);
        assert_eq!(
            sssp.price(&after, v(0), &[v(4)]),
            bfs.run_patched(&after, v(0), v(0), &[v(4)])
        );
    }

    #[test]
    fn repair_batch_insert_shortcut_and_reconnect() {
        // Path 0-1-2-3-4-5 plus shortcut 0-4: distances shrink.
        let before = path_csr(6);
        let after = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 4)]);
        let mut sssp = SparseSssp::new(6);
        let mut fresh = SparseSssp::new(6);
        sssp.rebase(&before, v(0));
        let got = sssp.repair_batch(&after, v(0), &[], &[(v(0), v(4))], 16);
        assert!(matches!(got, RepairOutcome::Repaired(_)));
        let want = fresh.rebase(&after, v(0));
        assert_eq!(sssp.base_stats(), want);
        for u in 0..6 {
            assert_eq!(sssp.base_dist(v(u)), fresh.base_dist(v(u)), "vertex {u}");
        }
        // Mixed batch: drop the shortcut again, add a reconnect at 5.
        let after2 = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let got2 = sssp.repair_batch(&after2, v(0), &[(v(0), v(4))], &[(v(0), v(5))], 16);
        assert!(matches!(got2, RepairOutcome::Repaired(_)));
        let mut fresh2 = SparseSssp::new(6);
        let want2 = fresh2.rebase(&after2, v(0));
        assert_eq!(sssp.base_stats(), want2);
        for u in 0..6 {
            assert_eq!(sssp.base_dist(v(u)), fresh2.base_dist(v(u)), "vertex {u}");
        }
    }

    #[test]
    fn repair_batch_respects_damage_threshold() {
        // Deleting 0-1 on a path from 0 affects every other vertex:
        // threshold 1 must bail before mutating anything, leaving the
        // scratch stale but intact for the rebase fallback.
        let before = path_csr(8);
        let after = Csr::from_edges(8, &[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let mut sssp = SparseSssp::new(8);
        sssp.rebase(&before, v(0));
        assert_eq!(
            sssp.repair_batch(&after, v(0), &[(v(0), v(1))], &[], 1),
            RepairOutcome::TooDamaged
        );
        assert_eq!(sssp.source(), None);
        let mut fresh = SparseSssp::new(8);
        assert_eq!(sssp.rebase(&after, v(0)), fresh.rebase(&after, v(0)));
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
