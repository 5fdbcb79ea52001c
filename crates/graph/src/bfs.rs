//! Breadth-first search with reusable scratch space.
//!
//! Equilibrium verification runs millions of BFS traversals (one per
//! candidate deviation per vertex). Allocating the distance array and the
//! queue afresh each time would dominate the runtime, so [`BfsScratch`]
//! owns both and is reused across runs; a *stamp* array makes clearing
//! O(1) per run instead of O(n) (perf-book "reusing collections" idiom,
//! strengthened with the classic timestamp trick). Every run is generic
//! over [`Adjacency`], so the same scratch serves the immutable
//! [`Csr`](crate::Csr) and the deviation engine's editable
//! [`CompactCsr`](crate::CompactCsr).
//!
//! [`PriceBudget`] also lives here: the incumbent bound that the cost
//! kernels' bounded traversals stop against.

use crate::adjacency::Adjacency;
use crate::node::NodeId;

/// Distance value meaning "not reached by this BFS".
pub const UNREACHED: u32 = u32::MAX;

/// Reusable BFS scratch: distance array, queue, and validity stamps.
#[derive(Clone, Debug)]
pub struct BfsScratch {
    dist: Vec<u32>,
    stamp: Vec<u32>,
    queue: Vec<NodeId>,
    current: u32,
}

impl BfsScratch {
    /// Scratch for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            dist: vec![UNREACHED; n],
            stamp: vec![0; n],
            queue: Vec::with_capacity(n),
            current: 0,
        }
    }

    /// Resize for a graph with `n` vertices, keeping allocations when
    /// possible.
    pub fn resize(&mut self, n: usize) {
        if self.dist.len() != n {
            self.dist = vec![UNREACHED; n];
            self.stamp = vec![0; n];
            self.queue = Vec::with_capacity(n);
            self.current = 0;
        }
    }

    #[inline]
    fn begin_run(&mut self, n: usize) {
        self.resize(n);
        // On stamp wraparound, reset all stamps; effectively never hit.
        if self.current == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.current = 0;
        }
        self.current += 1;
        self.queue.clear();
    }

    #[inline]
    fn mark(&mut self, v: NodeId, d: u32) {
        self.dist[v.index()] = d;
        self.stamp[v.index()] = self.current;
    }

    /// Distance of `v` from the source(s) of the most recent run, or
    /// `None` if unreached.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Option<u32> {
        if self.stamp[v.index()] == self.current {
            Some(self.dist[v.index()])
        } else {
            None
        }
    }

    /// Distance of `v` with unreached encoded as [`UNREACHED`].
    #[inline]
    pub fn dist_or_unreached(&self, v: NodeId) -> u32 {
        if self.stamp[v.index()] == self.current {
            self.dist[v.index()]
        } else {
            UNREACHED
        }
    }

    /// Run BFS from `src`; returns summary statistics of the traversal.
    /// Per-vertex distances are readable through [`Self::dist`] until the
    /// next run.
    pub fn run<A: Adjacency + ?Sized>(&mut self, csr: &A, src: NodeId) -> BfsStats {
        self.run_multi(csr, std::slice::from_ref(&src))
    }

    /// Multi-source BFS: distance to the nearest source (used for
    /// distance-to-cycle in the Theorem 4.x structure checks).
    ///
    /// # Panics
    /// Panics if `sources` is empty.
    pub fn run_multi<A: Adjacency + ?Sized>(&mut self, csr: &A, sources: &[NodeId]) -> BfsStats {
        assert!(!sources.is_empty(), "BFS requires at least one source");
        self.begin_run(csr.n());
        for &s in sources {
            if self.stamp[s.index()] != self.current {
                self.mark(s, 0);
                self.queue.push(s);
            }
        }
        let mut head = 0;
        let mut max_dist = 0;
        let mut sum_dist: u64 = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u.index()];
            max_dist = du;
            sum_dist += du as u64;
            for &w in csr.neighbors(u) {
                if self.stamp[w.index()] != self.current {
                    self.mark(w, du + 1);
                    self.queue.push(w);
                }
            }
        }
        BfsStats {
            visited: self.queue.len(),
            max_dist,
            sum_dist,
        }
    }

    /// Run BFS from `src` but stop expanding beyond distance `limit`
    /// (ball queries `B_r(u)` for the Theorem 6 expansion profile).
    pub fn run_bounded<A: Adjacency + ?Sized>(
        &mut self,
        csr: &A,
        src: NodeId,
        limit: u32,
    ) -> BfsStats {
        self.begin_run(csr.n());
        self.mark(src, 0);
        self.queue.push(src);
        let mut head = 0;
        let mut max_dist = 0;
        let mut sum_dist: u64 = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u.index()];
            max_dist = du;
            sum_dist += du as u64;
            if du == limit {
                continue;
            }
            for &w in csr.neighbors(u) {
                if self.stamp[w.index()] != self.current {
                    self.mark(w, du + 1);
                    self.queue.push(w);
                }
            }
        }
        BfsStats {
            visited: self.queue.len(),
            max_dist,
            sum_dist,
        }
    }

    /// Vertices reached by the most recent run, in BFS order (sources
    /// first). Borrow ends at the next run.
    pub fn reached(&self) -> &[NodeId] {
        &self.queue
    }

    /// BFS from `src` over `csr` **plus** the undirected patch edges
    /// `{patch_owner, t}` for every `t` in `patch_targets`: the graph
    /// with player `patch_owner`'s arcs removed, priced as if it played
    /// `patch_targets`, with no rebuild. `patch_targets` is expected to
    /// be small (a player's budget), so membership is a linear scan.
    /// The cost kernels' property tests take it as their reference.
    pub fn run_patched<A: Adjacency + ?Sized>(
        &mut self,
        csr: &A,
        src: NodeId,
        patch_owner: NodeId,
        patch_targets: &[NodeId],
    ) -> BfsStats {
        self.begin_run(csr.n());
        self.mark(src, 0);
        self.queue.push(src);
        let mut head = 0;
        let mut max_dist = 0;
        let mut sum_dist: u64 = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u.index()];
            max_dist = du;
            sum_dist += du as u64;
            for &w in csr.neighbors(u) {
                if self.stamp[w.index()] != self.current {
                    self.mark(w, du + 1);
                    self.queue.push(w);
                }
            }
            if u == patch_owner {
                for &w in patch_targets {
                    if self.stamp[w.index()] != self.current {
                        self.mark(w, du + 1);
                        self.queue.push(w);
                    }
                }
            } else if patch_targets.contains(&u) && self.stamp[patch_owner.index()] != self.current
            {
                self.mark(patch_owner, du + 1);
                self.queue.push(patch_owner);
            }
        }
        BfsStats {
            visited: self.queue.len(),
            max_dist,
            sum_dist,
        }
    }
}

/// Summary statistics of one BFS run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsStats {
    /// Number of vertices reached (including sources).
    pub visited: usize,
    /// Largest distance assigned — the source's eccentricity *within its
    /// component* for a single-source run.
    pub max_dist: u32,
    /// Sum of assigned distances over reached vertices.
    pub sum_dist: u64,
}

impl BfsStats {
    /// Did the BFS reach every vertex of an `n`-vertex graph?
    #[inline]
    pub fn spanned(&self, n: usize) -> bool {
        self.visited == n
    }
}

/// Abort thresholds for bounded candidate pricing
/// ([`BitBfsScratch::run_patched_bounded`](crate::BitBfsScratch::run_patched_bounded),
/// [`SparseSssp::price_bounded`](crate::SparseSssp::price_bounded)):
/// a traversal stops (and reports `None`) as soon as the final stats
/// provably meet either budget, because the caller's incumbent can
/// then never be strictly beaten.
#[derive(Clone, Copy, Debug)]
pub struct PriceBudget {
    /// Abort once the final sum of finite distances is provably
    /// `≥ sum`. `u64::MAX` disables the sum check.
    pub sum: u64,
    /// Abort once the final eccentricity is provably `≥ max`.
    /// `u32::MAX` disables the eccentricity check.
    pub max: u32,
    /// Exact number of vertices reachable from the source under this
    /// candidate (merged component sizes) — every one of them ends at a
    /// finite distance, which is what makes the mid-traversal bounds
    /// sound. Ignored when both checks are disabled.
    pub reachable: usize,
    /// Return an exact `max_dist`. The sparse tier's SUM-model callers
    /// pass `false` and get `max_dist = 0` back (their cost formula
    /// never reads it), which skips all its histogram bookkeeping; the
    /// bitset BFS gets the eccentricity for free and always returns it.
    pub need_max: bool,
}

impl PriceBudget {
    /// No abort, exact stats — the unbounded traversals' semantics.
    pub fn unbounded() -> Self {
        PriceBudget {
            sum: u64::MAX,
            max: u32::MAX,
            reachable: 0,
            need_max: true,
        }
    }

    /// The level rule of the bitset BFS: once every vertex within
    /// distance `level` of the source is reached — `reached` vertices
    /// whose distances sum to `sum` — every reachable vertex not yet
    /// reached lies at distance `≥ level + 1`. So the final sum is at
    /// least `sum + (level + 1)·(reachable − reached)`, and while such
    /// vertices remain the final eccentricity is at least `level + 1`.
    /// Returns whether either bound meets its budget.
    #[inline]
    pub fn met_after_level(&self, level: u32, reached: usize, sum: u64) -> bool {
        let unreached = self.reachable.saturating_sub(reached) as u64;
        (unreached > 0 && level.saturating_add(1) >= self.max)
            || sum.saturating_add((level as u64 + 1).saturating_mul(unreached)) >= self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::digraph::OwnedDigraph;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn path_csr(n: usize) -> Csr {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn distances_on_a_path() {
        let csr = path_csr(5);
        let mut bfs = BfsScratch::new(5);
        let stats = bfs.run(&csr, v(0));
        assert_eq!(stats.visited, 5);
        assert_eq!(stats.max_dist, 4);
        assert_eq!(stats.sum_dist, 1 + 2 + 3 + 4);
        for i in 0..5 {
            assert_eq!(bfs.dist(v(i)), Some(i as u32));
        }
    }

    #[test]
    fn disconnected_leaves_unreached() {
        let csr = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let mut bfs = BfsScratch::new(4);
        let stats = bfs.run(&csr, v(0));
        assert_eq!(stats.visited, 2);
        assert!(!stats.spanned(4));
        assert_eq!(bfs.dist(v(2)), None);
        assert_eq!(bfs.dist_or_unreached(v(3)), UNREACHED);
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let csr = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let mut bfs = BfsScratch::new(4);
        bfs.run(&csr, v(0));
        assert_eq!(bfs.dist(v(1)), Some(1));
        bfs.run(&csr, v(2));
        // Distances from the previous run must be invisible.
        assert_eq!(bfs.dist(v(1)), None);
        assert_eq!(bfs.dist(v(3)), Some(1));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let csr = path_csr(7);
        let mut bfs = BfsScratch::new(7);
        let stats = bfs.run_multi(&csr, &[v(0), v(6)]);
        assert_eq!(stats.visited, 7);
        assert_eq!(bfs.dist(v(3)), Some(3));
        assert_eq!(bfs.dist(v(5)), Some(1));
        assert_eq!(stats.max_dist, 3);
    }

    #[test]
    fn duplicate_sources_are_harmless() {
        let csr = path_csr(3);
        let mut bfs = BfsScratch::new(3);
        let stats = bfs.run_multi(&csr, &[v(0), v(0)]);
        assert_eq!(stats.visited, 3);
    }

    #[test]
    fn bounded_run_stops_at_limit() {
        let csr = path_csr(10);
        let mut bfs = BfsScratch::new(10);
        let stats = bfs.run_bounded(&csr, v(0), 3);
        assert_eq!(stats.visited, 4); // v0..v3
        assert_eq!(stats.max_dist, 3);
        assert_eq!(bfs.dist(v(4)), None);
    }

    #[test]
    fn works_on_digraph_underlying_view() {
        // Arc direction must not matter for distances.
        let g = OwnedDigraph::from_arcs(4, &[(1, 0), (1, 2), (3, 2)]);
        let csr = Csr::from_digraph(&g);
        let mut bfs = BfsScratch::new(4);
        let stats = bfs.run(&csr, v(0));
        assert_eq!(stats.visited, 4);
        assert_eq!(bfs.dist(v(3)), Some(3));
    }

    #[test]
    fn patched_bfs_adds_edges_both_ways() {
        // Path 0-1-2-3 with patch edges {0,3}: distance 0->3 becomes 1.
        let csr = path_csr(4);
        let mut bfs = BfsScratch::new(4);
        let stats = bfs.run_patched(&csr, v(0), v(0), &[v(3)]);
        assert_eq!(stats.visited, 4);
        assert_eq!(bfs.dist(v(3)), Some(1));
        assert_eq!(bfs.dist(v(2)), Some(2));
        // Reverse direction: BFS from the patch target reaches the owner.
        let stats = bfs.run_patched(&csr, v(3), v(0), &[v(3)]);
        assert_eq!(bfs.dist(v(0)), Some(1));
        assert_eq!(stats.max_dist, 2);
    }

    #[test]
    fn patched_bfs_connects_components() {
        let csr = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let mut bfs = BfsScratch::new(4);
        let stats = bfs.run_patched(&csr, v(0), v(1), &[v(2)]);
        assert_eq!(stats.visited, 4);
        assert_eq!(bfs.dist(v(3)), Some(3)); // 0-1, 1-2 patch, 2-3
    }

    #[test]
    fn patched_bfs_with_empty_patch_matches_plain() {
        let csr = path_csr(5);
        let mut bfs = BfsScratch::new(5);
        let plain = bfs.run(&csr, v(2));
        let mut bfs2 = BfsScratch::new(5);
        let patched = bfs2.run_patched(&csr, v(2), v(0), &[]);
        assert_eq!(plain, patched);
    }

    #[test]
    fn reached_lists_bfs_order() {
        let csr = path_csr(4);
        let mut bfs = BfsScratch::new(4);
        bfs.run(&csr, v(0));
        assert_eq!(bfs.reached(), &[v(0), v(1), v(2), v(3)]);
    }
}
