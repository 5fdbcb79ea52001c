//! Frontier-bitset BFS over a [`BitAdjacency`].
//!
//! The queue BFS ([`BfsScratch`](crate::BfsScratch)) touches every arc
//! through a per-neighbour load, stamp compare and branch. For the
//! dense, repeated, single-source queries the deviation engine issues,
//! a level-synchronous bitset BFS does the same work in `O(n²/64)` word
//! operations: expand the whole frontier by ORing the adjacency rows of
//! its members into a `next` bitset, mask off `visited`, and read the
//! level's statistics from popcounts. [`BfsStats`] comes out identical
//! to the queue kernel — `visited` is the total popcount, `max_dist`
//! the last non-empty level, `sum_dist` the popcount-weighted level sum
//! — so the two kernels are drop-in interchangeable.
//!
//! [`BitBfsScratch::run_patched`] mirrors
//! [`BfsScratch::run_patched`](crate::BfsScratch::run_patched): the
//! candidate edges `{owner, t}` are a target bitmask ORed into `next`
//! whenever the owner is on the frontier, plus the owner bit whenever
//! the frontier meets the mask — the exact level structure of the
//! queue traversal, so distances (and therefore costs) agree bit for
//! bit.
//!
//! [`BitBfsScratch::run_patched_bounded`] adds the incumbent abort:
//! the traversal is level-synchronous, so after each level it applies
//! [`PriceBudget::met_after_level`] to the popcount totals and stops
//! as soon as the final sum or eccentricity provably meets the budget.
//! The unbounded entry points run the same loop with
//! [`PriceBudget::unbounded`].
//!
//! The traversal is **direction-optimizing** (Beamer et al.): levels
//! whose frontier is small expand *top-down* (OR the rows of frontier
//! members), while levels whose frontier rivals the unvisited
//! remainder flip *bottom-up* — each still-unvisited vertex asks "does
//! my row intersect the frontier?" and stops at the first intersecting
//! word. Both directions compute the identical `next` set, so the
//! switch is invisible in the statistics; it only removes the wasted
//! re-expansion of saturated middle levels, which is where a bitset
//! BFS on sparse graphs burns most of its word ops.

use crate::bfs::{BfsStats, PriceBudget};
use crate::bitadj::BitAdjacency;
use crate::node::NodeId;

/// Reusable buffers for frontier-bitset BFS.
#[derive(Clone, Debug, Default)]
pub struct BitBfsScratch {
    frontier: Vec<u64>,
    next: Vec<u64>,
    visited: Vec<u64>,
    /// Patch-target mask for [`Self::run_patched_bounded`].
    mask: Vec<u64>,
}

impl BitBfsScratch {
    /// Scratch for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitBfsScratch {
            frontier: vec![0; words],
            next: vec![0; words],
            visited: vec![0; words],
            mask: vec![0; words],
        }
    }

    /// Resize for a row width of `words`, keeping allocations when
    /// possible.
    pub fn resize_words(&mut self, words: usize) {
        if self.frontier.len() != words {
            self.frontier.resize(words, 0);
            self.next.resize(words, 0);
            self.visited.resize(words, 0);
            self.mask.resize(words, 0);
        }
    }

    /// Run BFS from `src`; returns the same summary statistics as
    /// [`BfsScratch::run`](crate::BfsScratch::run) on the same graph.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    pub fn run(&mut self, g: &BitAdjacency, src: NodeId) -> BfsStats {
        self.run_patched(g, src, src, &[])
    }

    /// BFS from `src` over `g` **plus** the undirected patch edges
    /// `{patch_owner, t}` for every `t` in `patch_targets`. Duplicate
    /// targets and `patch_owner` itself in the target list are
    /// harmless, exactly as in the queue kernel.
    ///
    /// # Panics
    /// Panics if `src`, `patch_owner` or any target is out of range.
    pub fn run_patched(
        &mut self,
        g: &BitAdjacency,
        src: NodeId,
        patch_owner: NodeId,
        patch_targets: &[NodeId],
    ) -> BfsStats {
        self.run_patched_bounded(
            g,
            src,
            patch_owner,
            patch_targets,
            &PriceBudget::unbounded(),
        )
        .expect("unbounded traversal cannot abort")
    }

    /// [`Self::run_patched`] with an incumbent abort: returns `None` as
    /// soon as a completed level proves the final stats meet `budget`
    /// ([`PriceBudget::met_after_level`]), and otherwise exactly the
    /// stats of the full traversal, with an exact `max_dist` whatever
    /// `budget.need_max` says.
    ///
    /// # Panics
    /// Panics if `src`, `patch_owner` or any target is out of range.
    pub fn run_patched_bounded(
        &mut self,
        g: &BitAdjacency,
        src: NodeId,
        patch_owner: NodeId,
        patch_targets: &[NodeId],
        budget: &PriceBudget,
    ) -> Option<BfsStats> {
        let words = g.words();
        assert!(
            src.index() < g.n(),
            "BFS source {src} out of range (n = {})",
            g.n()
        );
        self.resize_words(words);
        let BitBfsScratch {
            frontier,
            next,
            visited,
            mask,
        } = self;
        frontier.iter_mut().for_each(|w| *w = 0);
        visited.iter_mut().for_each(|w| *w = 0);
        let has_patch = !patch_targets.is_empty();
        if has_patch {
            mask.iter_mut().for_each(|w| *w = 0);
            for &t in patch_targets {
                mask[t.index() >> 6] |= 1u64 << (t.index() & 63);
            }
        }
        let (ow, ob) = (patch_owner.index() >> 6, 1u64 << (patch_owner.index() & 63));
        frontier[src.index() >> 6] |= 1u64 << (src.index() & 63);
        visited[src.index() >> 6] |= 1u64 << (src.index() & 63);

        let n = g.n();
        let mut visited_count = 1usize;
        let mut frontier_count = 1usize;
        let mut max_dist = 0u32;
        let mut sum_dist = 0u64;
        let mut depth = 0u32;
        loop {
            let remaining = n - visited_count;
            if remaining == 0 {
                break;
            }
            next.iter_mut().for_each(|w| *w = 0);
            // Direction choice (Beamer-style): top-down costs
            // ~frontier·words row ORs; bottom-up costs ~remaining row
            // probes with first-word early exit. Flip when the frontier
            // dwarfs what is left to discover.
            if frontier_count > remaining {
                // Bottom-up: every unvisited vertex probes the frontier.
                let owner_on_frontier = frontier[ow] & ob != 0;
                let frontier_meets_mask =
                    has_patch && frontier.iter().zip(mask.iter()).any(|(f, m)| f & m != 0);
                for w in 0..words {
                    // Bits ≥ n never appear in `visited` rows or edges,
                    // so `!visited` phantom bits are filtered by the
                    // row probe (phantom rows don't exist) — mask them
                    // off explicitly instead of probing out of range.
                    let hi = ((w + 1) << 6).min(n);
                    let lo_mask = if hi == (w + 1) << 6 {
                        !0u64
                    } else {
                        (1u64 << (hi - (w << 6))) - 1
                    };
                    let mut un = !visited[w] & lo_mask;
                    while un != 0 {
                        let v = (w << 6) | un.trailing_zeros() as usize;
                        un &= un - 1;
                        let row = g.row(NodeId::new(v));
                        let mut hit = row.iter().zip(frontier.iter()).any(|(r, f)| r & f != 0);
                        if !hit && has_patch {
                            let vbit = 1u64 << (v & 63);
                            hit = (owner_on_frontier && mask[w] & vbit != 0)
                                || (frontier_meets_mask && w == ow && vbit == ob);
                        }
                        if hit {
                            next[w] |= 1u64 << (v & 63);
                        }
                    }
                }
            } else {
                // Top-down: next := N(frontier), one row OR per member.
                for (w, &fw) in frontier.iter().enumerate() {
                    let mut f = fw;
                    while f != 0 {
                        let u = (w << 6) | f.trailing_zeros() as usize;
                        f &= f - 1;
                        let row = g.row(NodeId::new(u));
                        for (nx, r) in next.iter_mut().zip(row) {
                            *nx |= r;
                        }
                    }
                }
                if has_patch {
                    if frontier[ow] & ob != 0 {
                        for (nx, m) in next.iter_mut().zip(mask.iter()) {
                            *nx |= m;
                        }
                    }
                    if frontier.iter().zip(mask.iter()).any(|(f, m)| f & m != 0) {
                        next[ow] |= ob;
                    }
                }
            }
            let mut newly = 0u64;
            for (nx, v) in next.iter_mut().zip(visited.iter_mut()) {
                *nx &= !*v;
                *v |= *nx;
                newly += nx.count_ones() as u64;
            }
            if newly == 0 {
                break;
            }
            depth += 1;
            visited_count += newly as usize;
            frontier_count = newly as usize;
            sum_dist += depth as u64 * newly;
            max_dist = depth;
            if budget.met_after_level(depth, visited_count, sum_dist) {
                return None;
            }
            std::mem::swap(frontier, next);
        }
        Some(BfsStats {
            visited: visited_count,
            max_dist,
            sum_dist,
        })
    }

    /// Visited bitset of the most recent run (valid until the next
    /// run); bit `v` set iff `v` was reached.
    pub fn visited_words(&self) -> &[u64] {
        &self.visited
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

    fn both(n: usize, edges: &[(usize, usize)]) -> (Csr, BitAdjacency) {
        let csr = Csr::from_edges(n, edges);
        let bits = BitAdjacency::from_adjacency(&csr);
        (csr, bits)
    }

    #[test]
    fn stats_match_queue_on_a_path() {
        let (csr, bits) = both(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut q = BfsScratch::new(5);
        let mut b = BitBfsScratch::new(5);
        for s in 0..5 {
            assert_eq!(q.run(&csr, v(s)), b.run(&bits, v(s)), "src {s}");
        }
    }

    #[test]
    fn disconnected_stats_match() {
        let (csr, bits) = both(6, &[(0, 1), (3, 4)]);
        let mut q = BfsScratch::new(6);
        let mut b = BitBfsScratch::new(6);
        for s in 0..6 {
            assert_eq!(q.run(&csr, v(s)), b.run(&bits, v(s)), "src {s}");
        }
    }

    #[test]
    fn patched_matches_queue_including_component_bridging() {
        let (csr, bits) = both(4, &[(0, 1), (2, 3)]);
        let mut q = BfsScratch::new(4);
        let mut b = BitBfsScratch::new(4);
        let targets = [v(2)];
        for s in 0..4 {
            assert_eq!(
                q.run_patched(&csr, v(s), v(1), &targets),
                b.run_patched(&bits, v(s), v(1), &targets),
                "src {s}"
            );
        }
    }

    #[test]
    fn duplicate_and_self_targets_are_harmless() {
        let (csr, bits) = both(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut q = BfsScratch::new(4);
        let mut b = BitBfsScratch::new(4);
        // Duplicates and the owner itself appearing as a target must
        // leave both kernels unchanged relative to the clean list.
        let clean = [v(3)];
        let messy = [v(3), v(3), v(0)];
        let want = q.run_patched(&csr, v(0), v(0), &clean);
        assert_eq!(q.run_patched(&csr, v(0), v(0), &messy), want);
        assert_eq!(b.run_patched(&bits, v(0), v(0), &clean), want);
        assert_eq!(b.run_patched(&bits, v(0), v(0), &messy), want);
    }

    #[test]
    fn single_vertex_graph() {
        let (csr, bits) = both(1, &[]);
        let mut q = BfsScratch::new(1);
        let mut b = BitBfsScratch::new(1);
        let want = BfsStats {
            visited: 1,
            max_dist: 0,
            sum_dist: 0,
        };
        assert_eq!(q.run(&csr, v(0)), want);
        assert_eq!(b.run(&bits, v(0)), want);
    }

    #[test]
    fn zero_sized_scratch_is_constructible() {
        // Mirrors BfsScratch::new(0): construction and resize are fine;
        // only running with an out-of-range source is an error.
        let b = BitBfsScratch::new(0);
        assert!(b.visited_words().is_empty());
        let mut b = b;
        b.resize_words(2);
        assert_eq!(b.visited_words().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let bits = BitAdjacency::new(0);
        BitBfsScratch::new(0).run(&bits, v(0));
    }

    #[test]
    fn bounded_run_stops_after_the_first_proving_level() {
        // Path 0-…-69 from 0 (two words): the true sum is 2415. After
        // level ℓ the SUM bound is ℓ(ℓ+1)/2 + (ℓ+1)(69 − ℓ) — 137 at
        // level 1 — and the MAX bound ℓ + 1 while vertices remain.
        let n = 70;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let (csr, bits) = both(n, &edges);
        let want = BfsScratch::new(n).run(&csr, v(0));
        assert_eq!(want.sum_dist, 2415);
        let mut b = BitBfsScratch::new(n);
        let visited = |b: &BitBfsScratch| {
            b.visited_words()
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>()
        };
        let sum = |sum| PriceBudget {
            sum,
            max: u32::MAX,
            reachable: n,
            need_max: false,
        };
        assert_eq!(
            b.run_patched_bounded(&bits, v(0), v(0), &[], &sum(137)),
            None
        );
        assert_eq!(visited(&b), 2, "stopped after level 1");
        assert_eq!(
            b.run_patched_bounded(&bits, v(0), v(0), &[], &sum(2415)),
            None
        );
        let full = b.run_patched_bounded(&bits, v(0), v(0), &[], &sum(2416));
        assert_eq!(full, Some(want));
        let max = |max| PriceBudget {
            sum: u64::MAX,
            max,
            reachable: n,
            need_max: true,
        };
        assert_eq!(b.run_patched_bounded(&bits, v(0), v(0), &[], &max(5)), None);
        assert_eq!(visited(&b), 5, "stopped after level 4");
        let full = b.run_patched_bounded(&bits, v(0), v(0), &[], &max(70));
        assert_eq!(full, Some(want));
    }

    #[test]
    fn word_boundary_sizes() {
        // n = 64 and n = 65 cross the word boundary.
        for n in [63, 64, 65, 128, 129] {
            let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let (csr, bits) = both(n, &edges);
            let mut q = BfsScratch::new(n);
            let mut b = BitBfsScratch::new(n);
            assert_eq!(q.run(&csr, v(0)), b.run(&bits, v(0)), "n {n}");
            assert_eq!(
                q.run(&csr, v(n - 1)),
                b.run(&bits, v(n - 1)),
                "n {n} from end"
            );
        }
    }
}
