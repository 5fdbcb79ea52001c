//! The swap sweep: every single-arc swap of one activation priced from
//! one bounded BFS per vertex, instead of one BFS per (slot, target)
//! candidate.
//!
//! # The identity
//!
//! Let player `u` own `s = (s₁ … s_b)`, let `I` be its distinct
//! in-neighbours, and let `B_i = I ∪ {s_j : j ≠ i}` be the neighbourhood
//! `u` keeps when slot `i` is swapped. Write `d(·,·)` for distances in
//! the detached graph with `u` blocked, and `d_{B_i}(x)` for the
//! distance from the nearest vertex of `B_i`. A shortest path from `u`
//! leaves through one of its neighbours and never returns, so swapping
//! `s_i` for `t` gives, for every `x ≠ u`,
//!
//! ```text
//! d'(u, x) = 1 + min(d_{B_i}(x), d(x, t)).
//! ```
//!
//! Every candidate's cost therefore follows from two things: `b` base
//! BFSs (one multi-source BFS from each `B_i`), and one BFS from every
//! `x ≠ u` truncated at radius `max_i d_{B_i}(x) − 1` — the farthest
//! ball that can still bring some `t` closer than the base does. Each
//! per-source BFS serves every target at once:
//!
//! * **SUM.** `cost_i(t) = R_i + S_i − gain_i(t)` plus the `C_inf` term,
//!   where `R_i` and `S_i` are the base's reach and distance sum and
//!   `gain_i(t) = Σ_x (d_{B_i}(x) − d(x, t))⁺ = Σ_x #{k < d_{B_i}(x) :
//!   t ∈ Ball_x(k)}`. On bit rows the per-target counters are
//!   bit-sliced — planes sized from `S_i`'s bit length — and a source
//!   adds its levels with their weights `d_{B_i}(x) − k` as one small
//!   bit-sliced number through a ripple-carry adder, so no per-target
//!   popcount runs. The part every slot shares, `(min_i d_{B_i}(x) −
//!   d(x, t))⁺`, goes into one common counter, and only the slots whose
//!   base lies farther from `x` add the rest into their own. On the CSR
//!   each visited target adds its weight directly, and on bit rows so
//!   does a source whose farthest ball has radius 2 or less (a few
//!   per-target adds beat word-wide passes there).
//! * **MAX.** `ecc_i(t) = 1 + min{k : t ∈ T_i(k)}` with
//!   `T_i(k) = ∩_{x : d_{B_i}(x) > k} Ball_x(k)`: each ball is ANDed
//!   into its level's mask. A candidate that leaves the graph
//!   disconnected keeps its exact `κ′·n²` price from the component
//!   structure, so the masks are kept only for slots whose base reaches
//!   every vertex.
//! * **Unreached vertices.** A vertex no base `B_i` reaches lies in a
//!   component that only a target inside it can merge. Its BFS runs
//!   unbounded inside that component and records the vertex's
//!   within-component distance sum and eccentricity — by symmetry,
//!   exactly what a target there needs: `R_i + S_i + |C| + Σ_{x ∈ C}
//!   d(x, t)` under SUM, `1 + max(depth_i, ecc_C(t))` under MAX. This
//!   also covers a one-arc player with no in-neighbours (`B = ∅`).
//!
//! Every cost is exact, so the decision — the earliest least-cost
//! (slot, target) in the per-pair enumeration's order, strictly below
//! the current cost — is the per-pair search's, under every kernel.
//!
//! # Two forms, one set of accumulators
//!
//! Engines with the bit mirror walk its rows (frontier bitsets, balls
//! as bitsets); the others walk the [`CompactCsr`] patch with a
//! stamped queue. Both fill the same [`SweepPart`]: per-target gains
//! (SUM), per-level masks (MAX) and the unreached vertices' component
//! figures. The sources split freely: a sharded activation deals source
//! ranges of `0..n` to several engines, each accumulates its own part,
//! and the caller merges them — adding gains, ANDing masks — in any
//! order with the same result.

use crate::cost::{c_inf, CostModel};
use bbncg_graph::{BitAdjacency, CompactCsr, NodeId};
use std::ops::Range;

/// A base distance for a vertex the base does not reach.
const FAR: u32 = u32::MAX;

/// On bit rows, a source whose base distances are all at most this —
/// its farthest ball has radius 2 or less — still walks the CSR (see
/// `Sweep::run`).
const SMALL: u32 = 3;

/// What one engine accumulated over the sources it swept. Parts of one
/// activation have identical shapes and merge by adding `gain`, ANDing
/// `masks` and adding the unreached figures (each vertex's are written
/// by the one engine that swept it).
#[derive(Debug, Default)]
pub(crate) struct SweepPart {
    /// SUM: `gain_i(t)` at `i · n + t`.
    gain: Vec<u64>,
    /// MAX: `T_i(k)`, `words` per level, slot `i`'s levels from
    /// `Sweep::mask_at[i]` on.
    masks: Vec<u64>,
    /// Distance sum of a vertex no base reaches, within its component.
    far_sum: Vec<u64>,
    /// Eccentricity of such a vertex within its component.
    far_ecc: Vec<u32>,
}

impl SweepPart {
    fn absorb(&mut self, other: &SweepPart) {
        self.gain
            .iter_mut()
            .zip(&other.gain)
            .for_each(|(a, b)| *a += b);
        self.masks
            .iter_mut()
            .zip(&other.masks)
            .for_each(|(a, b)| *a &= b);
        self.far_sum
            .iter_mut()
            .zip(&other.far_sum)
            .for_each(|(a, b)| *a += b);
        self.far_ecc
            .iter_mut()
            .zip(&other.far_ecc)
            .for_each(|(a, b)| *a = (*a).max(*b));
    }
}

/// The detached graph's components (with `u`): each vertex's label,
/// each label's size, and their count. They price the `C_inf` terms and
/// `κ′` of swaps that leave a component unreached or merge one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Components<'a> {
    pub(crate) label: &'a [u32],
    pub(crate) sizes: &'a [usize],
    pub(crate) count: usize,
}

/// A base's reach: vertices other than `u` it reaches (`R_i`), their
/// distance sum (`S_i`) and the largest of those distances.
#[derive(Clone, Copy, Debug, Default)]
struct Reach {
    reached: u64,
    sum: u64,
    depth: u32,
}

/// The sweep's state for one activation, sized on first use and reused
/// across activations (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    n: usize,
    /// Words per bit row.
    words: usize,
    /// The swapping player.
    u: usize,
    sum: bool,
    /// The player's strategy, in slot order.
    slots: Vec<NodeId>,
    /// `d_{B_i}(x)` at `i · n + x` (`FAR` when unreached, and at `u`).
    base: Vec<u32>,
    reach: Vec<Reach>,
    /// Some base misses a vertex other than `u`.
    any_far: bool,
    /// MAX: slot `i`'s masks start at level `mask_at[i]`, and slot `i`
    /// keeps `mask_at[i + 1] − mask_at[i]` levels (none unless its base
    /// reaches every vertex).
    mask_at: Vec<usize>,
    /// Bit-row SUM: counter `c`, word-major with `planes` bits per
    /// target, from `c · words · planes` on: counter 0 adds to every
    /// slot's gain, counter `1 + i` to slot `i`'s alone.
    counters: Vec<u64>,
    planes: usize,
    /// Bit-row SUM: this source's levels below its radius, `words` each.
    levels: Vec<u64>,
    /// The weight of each stored level in the counter being added to.
    weights: Vec<u32>,
    /// The weighted levels as a bit-sliced number, `words` per plane.
    value: Vec<u64>,
    part: SweepPart,
    /// This source's base distance per slot.
    dx: Vec<u32>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// The current source's ball; empty between sources.
    ball: Vec<u64>,
    queue: Vec<u32>,
    seen: Vec<u32>,
    stamp: u32,
}

impl Sweep {
    /// Prepare the sweep of player `u`, owning `slots`, with distinct
    /// in-neighbours `in_nbrs` in the detached graph `csr` (and its bit
    /// rows `bits`, if the engine keeps them): one base BFS per slot, and
    /// zeroed accumulators.
    pub(crate) fn open(
        &mut self,
        csr: &CompactCsr,
        bits: Option<&BitAdjacency>,
        u: NodeId,
        slots: &[NodeId],
        in_nbrs: &[NodeId],
        model: CostModel,
    ) {
        let n = csr.n();
        let b = slots.len();
        self.n = n;
        self.words = n.div_ceil(64);
        self.u = u.index();
        self.sum = model == CostModel::Sum;
        self.slots.clear();
        self.slots.extend_from_slice(slots);
        self.base.clear();
        self.base.resize(b * n, FAR);
        self.frontier.resize(self.words, 0);
        self.next.resize(self.words, 0);
        self.ball.resize(self.words, 0);
        self.reach.clear();
        for i in 0..b {
            let reach = match bits {
                Some(bits) => self.base_bits(bits, in_nbrs, i),
                None => self.base_bfs(csr, in_nbrs, i),
            };
            self.reach.push(reach);
        }
        self.any_far = self.reach.iter().any(|r| r.reached + 1 < n as u64);
        let part = &mut self.part;
        part.gain.clear();
        part.masks.clear();
        part.far_sum.clear();
        part.far_ecc.clear();
        self.mask_at.clear();
        self.mask_at.push(0);
        self.planes = 0;
        self.counters.clear();
        if self.sum {
            self.mask_at.resize(b + 1, 0);
            part.gain.resize(b * n, 0);
            if bits.is_some() {
                let most = self.reach.iter().map(|r| r.sum).max().unwrap_or(0);
                self.planes = (u64::BITS - most.leading_zeros()) as usize;
                self.counters.resize((1 + b) * self.words * self.planes, 0);
            }
        } else {
            let mut levels = 0;
            for r in &self.reach {
                if r.reached + 1 == n as u64 {
                    levels += r.depth as usize;
                }
                self.mask_at.push(levels);
            }
            // All ones over the vertices, zero past `n`.
            part.masks.resize(levels * self.words, !0);
            if !n.is_multiple_of(64) {
                let tail = (1u64 << (n % 64)) - 1;
                part.masks
                    .iter_mut()
                    .skip(self.words - 1)
                    .step_by(self.words)
                    .for_each(|w| *w = tail);
            }
        }
        if self.any_far {
            part.far_sum.resize(n, 0);
            part.far_ecc.resize(n, 0);
        }
        self.dx.resize(b, 0);
        self.ball.fill(0);
        if self.seen.len() != n {
            self.seen.clear();
            self.seen.resize(n, 0);
            self.stamp = 0;
        }
    }

    /// Multi-source BFS from `B_i` with `u` blocked, into `base`'s row
    /// `i`. `u`'s neighbours are exactly `I`, all sources, so a path
    /// through `u` is never shorter: the BFS only has to not enter it.
    fn base_bfs(&mut self, csr: &CompactCsr, in_nbrs: &[NodeId], i: usize) -> Reach {
        let (n, u) = (self.n, self.u);
        let row = &mut self.base[i * n..(i + 1) * n];
        let queue = &mut self.queue;
        queue.clear();
        let others = self.slots.iter().enumerate().filter(|&(j, _)| j != i);
        for w in in_nbrs.iter().chain(others.map(|(_, w)| w)) {
            if row[w.index()] == FAR {
                row[w.index()] = 0;
                queue.push(w.index() as u32);
            }
        }
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let d = row[v as usize] + 1;
            for w in csr.neighbors(NodeId::new(v as usize)) {
                let w = w.index();
                if w != u && row[w] == FAR {
                    row[w] = d;
                    queue.push(w as u32);
                }
            }
        }
        Reach {
            reached: queue.len() as u64,
            sum: queue.iter().map(|&v| row[v as usize] as u64).sum(),
            depth: queue.last().map_or(0, |&v| row[v as usize]),
        }
    }

    /// [`Self::base_bfs`] on bit rows: level by level, each level the
    /// frontier rows' OR outside the ball.
    fn base_bits(&mut self, bits: &BitAdjacency, in_nbrs: &[NodeId], i: usize) -> Reach {
        let (n, u) = (self.n, self.u);
        let row = &mut self.base[i * n..(i + 1) * n];
        let (frontier, next, ball) = (&mut self.frontier, &mut self.next, &mut self.ball);
        frontier.fill(0);
        let mut reach = Reach::default();
        let others = self.slots.iter().enumerate().filter(|&(j, _)| j != i);
        for w in in_nbrs.iter().chain(others.map(|(_, w)| w)) {
            let w = w.index();
            if row[w] == FAR {
                row[w] = 0;
                frontier[w >> 6] |= 1 << (w & 63);
                reach.reached += 1;
            }
        }
        ball.copy_from_slice(frontier);
        let (uw, ub) = (u >> 6, 1u64 << (u & 63));
        let mut k = 0;
        loop {
            next.fill(0);
            for (w, &fw) in frontier.iter().enumerate() {
                let mut f = fw;
                while f != 0 {
                    let v = (w << 6) | f.trailing_zeros() as usize;
                    f &= f - 1;
                    for (nx, r) in next.iter_mut().zip(bits.row(NodeId::new(v))) {
                        *nx |= r;
                    }
                }
            }
            next[uw] &= !ub;
            let mut any = 0;
            for (nx, b) in next.iter_mut().zip(ball.iter_mut()) {
                *nx &= !*b;
                *b |= *nx;
                any |= *nx;
            }
            if any == 0 {
                break;
            }
            k += 1;
            for (w, &nw) in next.iter().enumerate() {
                let mut m = nw;
                while m != 0 {
                    row[(w << 6) | m.trailing_zeros() as usize] = k;
                    m &= m - 1;
                    reach.reached += 1;
                    reach.sum += k as u64;
                }
            }
            std::mem::swap(frontier, next);
        }
        reach.depth = k;
        reach
    }

    /// Sweep the sources in `sources` (`u` itself is skipped), on `bits`'
    /// rows when given, on `csr` otherwise.
    pub(crate) fn run(
        &mut self,
        csr: &CompactCsr,
        bits: Option<&BitAdjacency>,
        sources: Range<usize>,
    ) {
        let (n, u) = (self.n, self.u);
        for x in sources.filter(|&x| x != u) {
            // The farthest ball any slot needs, and whether some base
            // misses x (then its BFS runs to the end of its component).
            let (mut radius, mut far) = (0, false);
            for (i, d) in self.dx.iter_mut().enumerate() {
                *d = self.base[i * n + x];
                if *d == FAR {
                    far = true;
                } else {
                    radius = radius.max(*d);
                }
            }
            if radius == 0 && !far {
                continue; // in every base: brings no target closer
            }
            // Balls of radius 2 or less hold x's neighbours and theirs: a
            // few per-target adds beat word-wide passes over the bit rows.
            match bits {
                Some(bits) if far || radius > SMALL => self.bit_source(bits, x, radius, far),
                _ => self.csr_source(csr, x, radius, far),
            }
        }
    }

    /// One source on bit rows: balls grow by ORing the frontier's rows.
    /// SUM keeps the levels below the radius and adds them once, with
    /// their weights, when the BFS is done (`Self::add_levels`); MAX
    /// ANDs each ball into its masks as it grows.
    fn bit_source(&mut self, bits: &BitAdjacency, x: usize, radius: u32, far: bool) {
        let words = self.words;
        let (uw, ub) = (self.u >> 6, 1u64 << (self.u & 63));
        self.frontier.fill(0);
        self.ball[x >> 6] |= 1 << (x & 63);
        self.frontier[x >> 6] |= 1 << (x & 63);
        if self.sum {
            self.levels.clear();
            self.levels.extend_from_slice(&self.ball);
        } else {
            self.and_ball(0, 1);
        }
        let (mut k, mut dist_sum) = (0u32, 0u64);
        while far || k + 1 < radius {
            let (frontier, next, ball) = (&mut self.frontier, &mut self.next, &mut self.ball);
            next.fill(0);
            for (w, &fw) in frontier.iter().enumerate() {
                let mut f = fw;
                while f != 0 {
                    let v = (w << 6) | f.trailing_zeros() as usize;
                    f &= f - 1;
                    for (nx, r) in next.iter_mut().zip(bits.row(NodeId::new(v))) {
                        *nx |= r;
                    }
                }
            }
            next[uw] &= !ub;
            let mut any = 0;
            for (nx, b) in next.iter_mut().zip(ball.iter_mut()) {
                *nx &= !*b;
                *b |= *nx;
                any |= *nx;
            }
            if any == 0 {
                if !self.sum {
                    // The component is exhausted: every further ball a
                    // slot needs is this one.
                    for i in 0..self.dx.len() {
                        let d = self.dx[i];
                        if d != FAR && d > k + 1 {
                            self.and_slot(i, k + 1, d - k - 1);
                        }
                    }
                }
                break;
            }
            k += 1;
            if far {
                dist_sum += k as u64 * next.iter().map(|w| w.count_ones() as u64).sum::<u64>();
            }
            if !self.sum {
                self.and_ball(k, 1);
            } else if k < radius {
                self.levels.extend_from_slice(next);
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        if self.sum {
            self.add_levels(self.levels.len() / words);
        }
        if far {
            self.part.far_sum[x] = dist_sum;
            self.part.far_ecc[x] = k;
        }
        // Between sources the ball is empty (the CSR walk relies on it).
        self.ball.fill(0);
    }

    /// Bit-row SUM: add this source's `(d_{B_i}(x) − d(x, t))⁺` to every
    /// slot's counter, from its first `stored` levels. When every base
    /// reaches `x`, the part all slots share, `(m − d(x, t))⁺` with `m`
    /// the nearest base's distance, goes once into the common counter
    /// (counter 0), and only a slot whose base lies farther adds the
    /// rest into its own (counter `1 + i`).
    fn add_levels(&mut self, stored: usize) {
        let shared = self.dx.iter().all(|&d| d != FAR);
        let m = if shared {
            self.dx.iter().copied().min().unwrap_or(0)
        } else {
            0
        };
        if m > 0 {
            self.weights.clear();
            self.weights
                .extend((0..m.min(stored as u32)).map(|j| m - j));
            self.add_weighted(0);
        }
        for i in 0..self.dx.len() {
            let d = self.dx[i];
            if d != FAR && d > m {
                self.weights.clear();
                self.weights
                    .extend((0..d.min(stored as u32)).map(|j| d - j.max(m)));
                self.add_weighted(1 + i);
            }
        }
    }

    /// Add `Σ_j weights[j] · level_j` into counter `c`: the weighted
    /// levels form a small bit-sliced number (levels are disjoint, so
    /// each of its planes is an OR of levels), added word by word with a
    /// ripple-carry adder that stops once the carry dies.
    fn add_weighted(&mut self, c: usize) {
        let (words, planes) = (self.words, self.planes);
        let top = self.weights.iter().copied().max().unwrap_or(0);
        let width = (u32::BITS - top.leading_zeros()) as usize;
        let value = &mut self.value;
        value.clear();
        value.resize(width * words, 0);
        for (level, &wt) in self.levels.chunks_exact(words).zip(&self.weights) {
            let mut bits = wt;
            while bits != 0 {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let plane = &mut value[p * words..(p + 1) * words];
                plane.iter_mut().zip(level).for_each(|(v, l)| *v |= l);
            }
        }
        let stride = words * planes;
        let counter = &mut self.counters[c * stride..(c + 1) * stride];
        for (w, cell) in counter.chunks_exact_mut(planes).enumerate() {
            let (low, high) = cell.split_at_mut(width);
            let mut carry = 0u64;
            for (p, a) in low.iter_mut().enumerate() {
                let add = value[p * words + w];
                let sum = *a ^ add ^ carry;
                carry = (*a & add) | (carry & (*a ^ add));
                *a = sum;
            }
            for a in high {
                if carry == 0 {
                    break;
                }
                let sum = *a ^ carry;
                carry &= *a;
                *a = sum;
            }
            debug_assert_eq!(carry, 0, "counter planes sized from S_i");
        }
    }

    /// One source on the CSR: a stamped queue BFS, level by level.
    fn csr_source(&mut self, csr: &CompactCsr, x: usize, radius: u32, far: bool) {
        if self.stamp == u32::MAX {
            self.seen.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.seen[self.u] = stamp;
        self.seen[x] = stamp;
        self.queue.clear();
        self.queue.push(x as u32);
        let n = self.n;
        let masks = !self.sum && self.mask_at.last().is_some_and(|&l| l > 0);
        let (mut lo, mut k, mut dist_sum) = (0, 0u32, 0u64);
        loop {
            let hi = self.queue.len();
            let level = &self.queue[lo..hi];
            if self.sum {
                let gain = &mut self.part.gain;
                for (i, &d) in self.dx.iter().enumerate() {
                    if d != FAR && k < d {
                        let row = &mut gain[i * n..(i + 1) * n];
                        for &t in level {
                            row[t as usize] += (d - k) as u64;
                        }
                    }
                }
            } else if masks {
                for &t in level {
                    self.ball[t as usize >> 6] |= 1 << (t & 63);
                }
                self.and_ball(k, 1);
            }
            dist_sum += k as u64 * (hi - lo) as u64;
            if !far && k + 1 >= radius {
                break;
            }
            for idx in lo..hi {
                let v = self.queue[idx] as usize;
                for w in csr.neighbors(NodeId::new(v)) {
                    let w = w.index();
                    if self.seen[w] != stamp {
                        self.seen[w] = stamp;
                        self.queue.push(w as u32);
                    }
                }
            }
            if self.queue.len() == hi {
                if masks {
                    for i in 0..self.dx.len() {
                        let d = self.dx[i];
                        if d != FAR && d > k + 1 {
                            self.and_slot(i, k + 1, d - k - 1);
                        }
                    }
                }
                break;
            }
            lo = hi;
            k += 1;
        }
        if far {
            self.part.far_sum[x] = dist_sum;
            self.part.far_ecc[x] = k;
        }
        if masks {
            for &t in &self.queue {
                self.ball[t as usize >> 6] = 0;
            }
        }
    }

    /// MAX: AND the current ball into every slot's mask of level `k`
    /// that needs it (`k < d_{B_i}(x)`), and of the `times − 1` levels
    /// above it.
    fn and_ball(&mut self, k: u32, times: u32) {
        for i in 0..self.dx.len() {
            let d = self.dx[i];
            if d != FAR && k < d {
                self.and_slot(i, k, times);
            }
        }
    }

    /// MAX: AND the current ball into slot `i`'s masks of levels `k` …
    /// `k + times − 1` (those it keeps).
    fn and_slot(&mut self, i: usize, k: u32, times: u32) {
        let words = self.words;
        let (at, end) = (self.mask_at[i], self.mask_at[i + 1]);
        let levels = (at + k as usize)..(at + (k + times) as usize).min(end);
        for level in levels {
            let mask = &mut self.part.masks[level * words..(level + 1) * words];
            for (m, b) in mask.iter_mut().zip(&self.ball) {
                *m &= b;
            }
        }
    }

    /// This engine's accumulations, with bit-sliced counters decoded
    /// into per-target gains; the sweep keeps nothing of them.
    pub(crate) fn take_part(&mut self) -> SweepPart {
        if self.planes > 0 {
            let (n, stride) = (self.n, self.words * self.planes);
            for (c, counter) in self.counters.chunks_exact(stride).enumerate() {
                // Counter 0 is every slot's, counter `1 + i` slot `i`'s.
                let slots = if c == 0 {
                    0..self.slots.len()
                } else {
                    c - 1..c
                };
                for i in slots {
                    let gain = &mut self.part.gain[i * n..(i + 1) * n];
                    for (w, cell) in counter.chunks_exact(self.planes).enumerate() {
                        for (p, &plane) in cell.iter().enumerate() {
                            let mut bits = plane;
                            while bits != 0 {
                                gain[(w << 6) | bits.trailing_zeros() as usize] += 1 << p;
                                bits &= bits - 1;
                            }
                        }
                    }
                }
            }
        }
        std::mem::take(&mut self.part)
    }

    /// Does the decision need the detached graph's [`Components`]? Only
    /// when some base misses a vertex: otherwise every base reaches every
    /// component but `u`'s lone one, so no swap leaves one unreached.
    pub(crate) fn needs_components(&self) -> bool {
        self.any_far
    }

    /// Merge the engines' `parts` (at least one, this engine's own
    /// first) and return the earliest least-cost swap strictly below
    /// `ceiling`, in the per-pair enumeration's order (slot by slot,
    /// targets ascending), as `(slot, target, cost)`. `comps` is given
    /// when [`Self::needs_components`].
    pub(crate) fn best(
        &mut self,
        parts: impl IntoIterator<Item = SweepPart>,
        comps: Option<Components>,
        ceiling: u64,
    ) -> Option<(usize, NodeId, u64)> {
        self.merge(parts);
        let mut best = (ceiling, None);
        self.each_cost(comps, |i, t, cost| {
            if cost < best.0 {
                best = (cost, Some((i, t)));
            }
        });
        let (cost, found) = best;
        found.map(|(i, t)| (i, NodeId::new(t), cost))
    }

    /// Every swap's cost after merging `parts`, as `(slot, target,
    /// cost)` in enumeration order (see [`Self::best`]).
    #[cfg(test)]
    pub(crate) fn costs(
        &mut self,
        parts: impl IntoIterator<Item = SweepPart>,
        comps: Option<Components>,
    ) -> Vec<(usize, NodeId, u64)> {
        self.merge(parts);
        let mut all = Vec::new();
        self.each_cost(comps, |i, t, cost| all.push((i, NodeId::new(t), cost)));
        all
    }

    fn merge(&mut self, parts: impl IntoIterator<Item = SweepPart>) {
        let mut parts = parts.into_iter();
        self.part = parts.next().expect("the caller's own part");
        for part in parts {
            self.part.absorb(&part);
        }
    }

    /// Components other than `u`'s that the arcs kept when slot `i` is
    /// swapped do not reach.
    fn untouched(&self, comps: Components, i: usize) -> u64 {
        let label = comps.label;
        let kept = |j: usize| label[self.slots[j].index()];
        let others = (0..self.slots.len()).filter(|&j| j != i);
        let new =
            |&j: &usize| kept(j) != label[self.u] && !(0..j).any(|h| h != i && kept(h) == kept(j));
        (comps.count - 1 - others.filter(new).count()) as u64
    }

    /// Call `visit(slot, target, cost)` for every swap, in enumeration
    /// order, from the merged part.
    fn each_cost(&self, comps: Option<Components>, mut visit: impl FnMut(usize, usize, u64)) {
        let (n, words, u) = (self.n, self.words, self.u);
        let cinf = c_inf(n);
        let part = &self.part;
        let comps = || comps.expect("labelled when some base misses a vertex");
        debug_assert!(self.slots.windows(2).all(|w| w[0] < w[1]));
        for (i, reach) in self.reach.iter().enumerate() {
            let base = &self.base[i * n..(i + 1) * n];
            let untouched = if self.any_far {
                self.untouched(comps(), i)
            } else {
                0
            };
            let within = reach.reached + reach.sum;
            let missing = (n as u64 - 1 - reach.reached) * cinf;
            let gain = &part.gain[(i * n).min(part.gain.len())..];
            let masks = &part.masks[self.mask_at[i] * words..self.mask_at[i + 1] * words];
            // Targets in order, past `u` and the strategy (sorted).
            let mut owned = self.slots.iter().map(|s| s.index()).peekable();
            for t in 0..n {
                if owned.next_if_eq(&t).is_some() || t == u {
                    continue;
                }
                let cost = if base[t] != FAR {
                    if self.sum {
                        within - gain[t] + missing
                    } else if untouched > 0 {
                        (1 + untouched) * cinf
                    } else {
                        let (w, bit) = (t >> 6, 1u64 << (t & 63));
                        let level = masks.chunks_exact(words).position(|m| m[w] & bit != 0);
                        1 + level.map_or(reach.depth as u64, |k| k as u64)
                    }
                } else {
                    // t merges its own component, which no kept arc
                    // reaches.
                    let size = comps().sizes[comps().label[t] as usize] as u64;
                    if self.sum {
                        within + size + part.far_sum[t] + missing - size * cinf
                    } else if untouched > 1 {
                        untouched * cinf
                    } else {
                        1 + reach.depth.max(part.far_ecc[t]) as u64
                    }
                };
                visit(i, t, cost);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::best_response::{best_swap_improvement, best_swap_per_pair};
    use crate::{CostKernel, CostModel, DeviationScratch, Realization};
    use bbncg_graph::{NodeId, OwnedDigraph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const KERNELS: [CostKernel; 3] = [CostKernel::Queue, CostKernel::Bitset, CostKernel::Sparse];

    /// A random profile on `n` vertices: budgets 0–3, distinct random
    /// targets, so braces, kept arcs that are also in-neighbours,
    /// disconnected detached graphs and one-arc players nobody points at
    /// all turn up.
    fn random_profile(n: usize, seed: u64) -> Realization {
        let mut rng = StdRng::seed_from_u64(seed);
        let zeros = rng.gen_range(0..4usize);
        let out = (0..n)
            .map(|x| {
                let b = if rng.gen_range(0..4usize) < zeros {
                    0
                } else {
                    rng.gen_range(1..4usize).min(n - 1)
                };
                let mut targets: Vec<NodeId> = Vec::new();
                while targets.len() < b {
                    let t = NodeId::new(rng.gen_range(0..n));
                    if t.index() != x && !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                targets
            })
            .collect();
        Realization::new(OwnedDigraph::from_out_lists(out))
    }

    /// Every swap's cost from the sweep of `u` on `scratch`, its sources
    /// cut into `pieces` parts swept on separate engines and merged.
    fn swept(
        scratch: &mut DeviationScratch,
        r: &Realization,
        u: NodeId,
        model: CostModel,
        pieces: usize,
    ) -> Vec<(usize, NodeId, u64)> {
        let n = r.n();
        let mut parts = Vec::new();
        let mut helpers: Vec<DeviationScratch> = (1..pieces)
            .map(|_| DeviationScratch::with_kernel(r, scratch.kernel()))
            .collect();
        scratch.begin(r, u, model);
        scratch.sweep_open();
        scratch.sweep_run(0..n / pieces);
        parts.push(scratch.sweep_part());
        for (h, helper) in helpers.iter_mut().enumerate() {
            helper.begin(r, u, model);
            helper.sweep_open();
            helper.sweep_run(n * (h + 1) / pieces..n * (h + 2) / pieces);
            parts.push(helper.sweep_part());
        }
        scratch.sweep_costs(parts)
    }

    fn check(r: &Realization, players: &[NodeId]) -> Result<(), TestCaseError> {
        for kernel in KERNELS {
            let mut scratch = DeviationScratch::with_kernel(r, kernel);
            let mut oracle = DeviationScratch::with_kernel(r, kernel);
            for model in CostModel::ALL {
                for &u in players {
                    let s = r.strategy(u).to_vec();
                    if s.is_empty() {
                        continue;
                    }
                    let ctx = format!("{kernel} {model:?} player {u} of {:?}", r.graph());
                    // Every (slot, target) cost, in enumeration order,
                    // against the kernel's own per-candidate pricing.
                    let pieces = 1 + u.index() % 3;
                    let costs = swept(&mut scratch, r, u, model, pieces);
                    let mut want = Vec::new();
                    oracle.begin(r, u, model);
                    for i in 0..s.len() {
                        for t in (0..r.n()).map(NodeId::new) {
                            if t == u || s.contains(&t) {
                                continue;
                            }
                            let mut trial = s.clone();
                            trial[i] = t;
                            want.push((i, t, oracle.cost_of(&trial)));
                        }
                    }
                    let wrong = costs.iter().zip(&want).find(|(a, b)| a != b);
                    prop_assert!(
                        costs.len() == want.len() && wrong.is_none(),
                        "{}: {:?}",
                        ctx,
                        wrong
                    );
                    // The decision, against the per-pair search.
                    let got = best_swap_improvement(&mut scratch, r, u, model);
                    let want = best_swap_per_pair(&mut oracle, r, u, model);
                    prop_assert!(got == want, "{}: {:?} vs {:?}", ctx, got, want);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Small profiles, every player.
        #[test]
        fn the_sweep_prices_every_swap_as_the_kernels_do(n in 2usize..=40, seed in 0u64..1 << 48) {
            let r = random_profile(n, seed);
            let players: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            check(&r, &players)?;
        }

        /// Around the bit rows' word boundaries, a few players each.
        #[test]
        fn the_sweep_prices_every_swap_at_word_boundaries(
            pick in 0usize..4,
            seed in 0u64..1 << 48,
        ) {
            let n = [63, 64, 65, 129][pick];
            let r = random_profile(n, seed);
            let players: Vec<NodeId> = [0, 1, n / 2, n - 2, n - 1].map(NodeId::new).to_vec();
            check(&r, &players)?;
        }
    }

    /// Shapes a random draw may miss: a one-arc player nobody points at
    /// (`B = ∅`), a player whose kept arc is also an in-neighbour, arcs
    /// that are each the only link to a component, and a profile with
    /// untouched components.
    #[test]
    fn the_sweep_prices_the_corner_shapes() {
        let shapes = [
            // 0 → 1, nobody points at 0; 2 owns two arcs (no closed form).
            OwnedDigraph::from_arcs(5, &[(0, 1), (2, 1), (2, 3), (3, 4)]),
            // 0 ↔ 1 brace, 0 also owns 0 → 2; 3 dangles off 2.
            OwnedDigraph::from_arcs(5, &[(0, 1), (0, 2), (1, 0), (3, 2), (4, 3)]),
            // 0 holds two components together: {1, 2} and {3, 4}.
            OwnedDigraph::from_arcs(6, &[(0, 1), (0, 3), (2, 1), (4, 3), (5, 4)]),
            // 0 owns three arcs into a path; 5–6 and 7 lie apart.
            OwnedDigraph::from_arcs(8, &[(0, 1), (0, 2), (0, 4), (1, 2), (3, 4), (5, 6)]),
        ];
        for g in shapes {
            let r = Realization::new(g);
            let players: Vec<NodeId> = (0..r.n()).map(NodeId::new).collect();
            check(&r, &players).unwrap();
        }
    }
}
