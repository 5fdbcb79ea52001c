//! The allocation-free deviation engine.
//!
//! Every best-response rule needs the same three ingredients for a
//! player `u`: the undirected graph with `u`'s owned arcs removed, its
//! component labelling (to price the disconnection penalty), and a BFS
//! per candidate strategy. The seed built all three from scratch per
//! *player activation* — a digraph clone plus a CSR rebuild plus
//! fresh component vectors — which dominates dynamics at large `n`.
//!
//! [`DeviationScratch`] owns all of it once and keeps it alive across
//! activations, moves and whole dynamics runs:
//!
//! * a [`CompactCsr`] mirror of the current profile, edited **in
//!   place** as players move (cost ∝ the diff, not `n + m`) — the one
//!   undirected store every cost kernel reads. The engine records the
//!   version of the [`Realization`] its mirror holds, so it finds the diff
//!   without comparing strategies when the profile is the same or one
//!   move further on;
//! * a [`BfsScratch`] for the component labelling of the detached
//!   graph;
//! * under the bitset kernel, a [`BitAdjacency`] mirror of the CSR,
//!   patched through the same diffs, and the [`BitBfsScratch`] that
//!   prices every candidate on it;
//! * under the sparse kernel, a [`SparseSssp`]: one base BFS per
//!   session that prices on the kernel, then one bounded decrease-only
//!   repair per candidate. No distance state survives the session;
//! * reusable component-label and candidate buffers.
//!
//! The result: pricing a candidate deviation performs **zero**
//! [`Csr::from_digraph`](bbncg_graph::Csr::from_digraph) rebuilds and
//! zero allocations — one patched BFS, nothing else — and neither does
//! a dynamics run's applied move, since the engine never reads the
//! [`Realization`]'s own (lazily built) views. The `rebuild-counter`
//! feature on `bbncg-graph` plus `tests/engine_invariants.rs` enforce
//! this.
//!
//! Search loops price through [`DeviationScratch::cost_of_pruned`],
//! which only has to answer "does this candidate strictly beat the
//! incumbent, and at what cost": a per-candidate lower bound skips the
//! BFS outright, and every kernel's traversal runs under a
//! [`PriceBudget`] that abandons it once the candidate provably cannot
//! win.
//!
//! The swap rule prices its candidates without a per-candidate BFS:
//! `DeviationScratch::sweep_open` and its companions run the swap
//! sweep (`crate::sweep`) over the session's detached graph — on the bit
//! mirror's rows where the engine keeps them, on the patch otherwise —
//! with its buffers sized on first use.
//!
//! One class needs no per-candidate traversal at all: when the player
//! owns one arc and no player owns two (the paper's unit-budget games),
//! the searches take every single-arc candidate's cost, under SUM or
//! MAX, from one closed-form pass over parent pointers and in-degrees
//! the engine keeps up to date as players move, and the detached CSR
//! (`crate::closed_form`): `O(n)`, or `O(n log n)` for a MAX player on
//! the only cycle of a connected profile. It is exact, so the kernel
//! choice does not matter there, and such a session builds none of the
//! kernel state below.
//!
//! # Session protocol
//!
//! ```text
//! let mut scratch = DeviationScratch::new(&r);
//! scratch.begin(&r, u, model);      // syncs the mirror, detaches u
//! let c = scratch.cost_of(&cand);   // any number of candidates; the
//!                                   // first builds the kernel state
//! // ... r.set_strategy(u, best) by the caller; the next begin()
//! //     copies u's new strategy alone: r is one move past the mirror.
//! ```
//!
//! `begin` syncs the mirror and detaches the player. The sync reads
//! the realization's version first: the same version means nothing
//! to compare, and a realization exactly one move past the mirror
//! (its `last_move`) means one player to compare. Only
//! otherwise — a profile two or more moves on, another clone's moves,
//! an unrelated profile — does it compare every player's strategy.
//! The state only kernel pricing reads — the detached graph's
//! component labelling and, under sparse, the base BFS — is built by
//! the session's first kernel call (`cost_of` past the
//! current-strategy memo, `cost_of_pruned` or
//! `candidate_lower_bound`), once per session.
//!
//! `begin` may be called for any player of any realization with the
//! same vertex count, so the engine is always safe to reuse — just
//! fastest when successive profiles differ by single moves, which is
//! exactly the dynamics access pattern.
//!
//! # The quiet memo
//!
//! The cheapest activation is one that never opens a session. The
//! engine also carries the dynamics loop's per-player memo of "no
//! move" verdicts, keyed by the profile version and the run's
//! `(model, rule)` (see `crate::dynamics`): a player that found no
//! move on exactly the current profile is skipped before `begin`. The
//! memo is sized by the engine's first dynamics verdict, not by
//! [`DeviationScratch::new`], survives across dynamics runs that share
//! the engine, and is cleared when the engine is rebuilt for another
//! instance size. Nothing else in the engine reads it.

use crate::closed_form::ClosedForm;
use crate::cost::{c_inf, cost_from_bfs, CostModel};
use crate::dynamics::QuietMemo;
use crate::kernel::CostKernel;
use crate::realization::Realization;
use crate::sweep::{Components, Sweep, SweepPart};
use bbncg_graph::{
    BfsScratch, BitAdjacency, BitBfsScratch, CompactCsr, NodeId, OwnedDigraph, PriceBudget,
    SparseSssp, UNREACHED,
};
use bbncg_obs::Counter;

/// Plain per-engine tallies of hot-path events, flushed to the global
/// `bbncg-obs` registry at session boundaries (and on drop). The
/// per-candidate path pays one `u64` add — no atomic, no branch on
/// the observability switch — so pricing throughput is identical
/// whether observability is on or off; only the flush consults
/// [`bbncg_obs::enabled`].
#[derive(Debug, Default)]
struct ObsTally {
    /// Candidates priced through the kernel (one BFS/repair each,
    /// run to the end or aborted).
    priced: u64,
    /// Candidates skipped by the Lemma 2.2 lower bound (no BFS).
    prune_skips: u64,
    /// Candidates priced exactly from the bound (no BFS).
    prune_exact: u64,
    /// Base BFSs (sparse sessions that priced on the kernel).
    base_bfs: u64,
    /// Pricing sessions opened.
    sessions: u64,
    /// Pricings aborted part-way by the incumbent bound, under any
    /// kernel (each also counted in `priced` and `prune_skips`).
    prune_aborts: u64,
    /// Searches the closed form answered (one per activation; no
    /// kernel traversal).
    closed_form: u64,
    /// Swap searches the sweep decided (one per activation; its BFSs
    /// are not candidate pricings).
    sweeps: u64,
}

/// Reusable engine state for pricing candidate deviations.
#[derive(Debug)]
pub struct DeviationScratch {
    /// The profile the patch currently reflects (minus the detached
    /// player's arcs).
    mirror: OwnedDigraph,
    /// The version (`Realization::version`) of the profile `mirror`
    /// equals.
    synced: u64,
    /// Players `sync` has compared with the realization, over the
    /// engine's life.
    compared: u64,
    /// In-place-editable undirected view of `mirror`.
    patch: CompactCsr,
    /// Labels the detached graph's components.
    bfs: BfsScratch,
    /// The kernel the caller asked for (`Auto` re-resolves when the
    /// engine is rebuilt for a different instance size).
    kernel: CostKernel,
    /// The concrete kernel `kernel` resolved to for this `n`, bitset or
    /// sparse; `Sparse` gates the rebase, bounded pricing and landmark
    /// bounds.
    resolved: CostKernel,
    /// Word-parallel presence mirror of `patch`, maintained through the
    /// same strategy diffs; `Some` iff the resolved kernel is `Bitset`.
    bits: Option<BitAdjacency>,
    bitbfs: BitBfsScratch,
    /// Sparse-kernel session state: base distance profile of the active
    /// player over the detached graph plus per-candidate repair scratch
    /// (valid while `kernel_ready`). Kept zero-sized unless the
    /// resolved kernel is `Sparse`.
    sssp: SparseSssp,
    /// Landmark gain tables over the base-distance histogram (sparse
    /// sessions only, valid while `kernel_ready`): suffix counts,
    /// prefix counts and distance-weighted prefix sums, giving an O(1)
    /// upper bound on how much total distance a target at base
    /// distance `d` can save.
    lmk_cnt_ge: Vec<u64>,
    lmk_p1: Vec<u64>,
    lmk_p2: Vec<u64>,
    /// Component labels of the graph with the active player's arcs
    /// removed (valid while `kernel_ready`).
    comp_label: Vec<u32>,
    comp_count: usize,
    /// Size of each component, indexed by label (valid with
    /// `comp_label`; prices the disconnection terms of every kernel
    /// price and of the per-candidate lower bound without a BFS).
    comp_sizes: Vec<usize>,
    /// Distinct in-neighbour count of the active player in the
    /// arcs-removed graph (for the Lemma 2.2 lower bound).
    distinct_in: usize,
    /// Active session: `(player, model)`; the player's arcs are
    /// currently lifted out of `patch`.
    active: Option<(NodeId, CostModel)>,
    /// This session's kernel state — the component labelling and,
    /// under sparse, the base BFS — is built (see
    /// [`Self::kernel_session`]).
    kernel_ready: bool,
    /// Memoized cost of the player's *current* strategy this session
    /// (the improvement gate prices it after the rules already did).
    memo_current: Option<u64>,
    label_buf: Vec<u32>,
    dedup_buf: Vec<NodeId>,
    /// Candidate-target pool, lent to best-response search loops.
    pub(crate) pool_buf: Vec<NodeId>,
    /// Candidate strategy buffer, lent to best-response search loops.
    pub(crate) cand_buf: Vec<NodeId>,
    /// Players owning two or more arcs in `mirror`; the closed form
    /// applies only while this is zero.
    multi_owners: usize,
    /// The unit-budget pricer (buffers sized on first use).
    closed_form: ClosedForm,
    /// `closed_form` holds this session's costs.
    closed_form_ready: bool,
    /// The swap sweep (buffers sized on first use).
    sweep: Sweep,
    /// Hot-path observability tallies (see [`ObsTally`]).
    tally: ObsTally,
    /// The players' last "no move" dynamics verdicts, by profile
    /// version (see `crate::dynamics`); empty until the first one.
    pub(crate) quiet: QuietMemo,
}

/// Apply one player's strategy change to the editable CSR **and** its
/// bit mirror. The mirror is a presence matrix over a multigraph, so a
/// removed arc clears its bit only when the patch (already updated)
/// lost the last occurrence of the edge — a brace owned from the other
/// side keeps the bit alive.
fn apply_strategy_patch(
    patch: &mut CompactCsr,
    bits: Option<&mut BitAdjacency>,
    owner: NodeId,
    old: &[NodeId],
    new: &[NodeId],
) {
    patch.replace_strategy(owner, old, new);
    if let Some(bits) = bits {
        for &t in old.iter().filter(|t| !new.contains(t)) {
            if !patch.neighbors(owner).contains(&t) {
                bits.clear_edge(owner, t);
            }
        }
        for &t in new.iter().filter(|t| !old.contains(t)) {
            bits.set_edge(owner, t);
        }
    }
}

impl DeviationScratch {
    /// Build the engine for `r`'s profile with the default
    /// ([`CostKernel::Auto`]) kernel. This is the one full
    /// construction; everything afterwards is incremental.
    pub fn new(r: &Realization) -> Self {
        Self::with_kernel(r, CostKernel::Auto)
    }

    /// Build the engine with an explicit cost kernel. Kernels are
    /// move-for-move equivalent; the choice only affects throughput.
    pub fn with_kernel(r: &Realization, kernel: CostKernel) -> Self {
        let mirror = r.graph().clone();
        let n = mirror.n();
        let resolved = kernel.resolve(n);
        let patch = CompactCsr::from_digraph(&mirror);
        let bits = match resolved {
            CostKernel::Bitset => Some(BitAdjacency::from_adjacency(&patch)),
            _ => None,
        };
        let multi_owners = (0..n)
            .filter(|&v| mirror.out_degree(NodeId::new(v)) > 1)
            .count();
        DeviationScratch {
            mirror,
            synced: r.version(),
            compared: 0,
            patch,
            bfs: BfsScratch::new(n),
            kernel,
            resolved,
            bits,
            bitbfs: BitBfsScratch::new(n),
            // Zero-sized unless sparse; `rebase` sizes it on first use.
            sssp: SparseSssp::new(0),
            lmk_cnt_ge: Vec::new(),
            lmk_p1: Vec::new(),
            lmk_p2: Vec::new(),
            comp_label: vec![u32::MAX; n],
            comp_count: 0,
            comp_sizes: Vec::new(),
            distinct_in: 0,
            active: None,
            kernel_ready: false,
            memo_current: None,
            label_buf: Vec::with_capacity(8),
            dedup_buf: Vec::with_capacity(8),
            pool_buf: Vec::with_capacity(n),
            cand_buf: Vec::with_capacity(8),
            multi_owners,
            closed_form: ClosedForm::default(),
            closed_form_ready: false,
            sweep: Sweep::default(),
            tally: ObsTally::default(),
            quiet: QuietMemo::default(),
        }
    }

    /// Flush the local tallies into the global registry (attributed
    /// to the currently resolved kernel) and zero them. Called at
    /// session boundaries and on drop; tallies accumulated while
    /// observability is off are simply discarded, so counts always
    /// mean "since enable".
    fn flush_obs(&mut self) {
        let t = std::mem::take(&mut self.tally);
        if !bbncg_obs::enabled() {
            return;
        }
        // `resolved` is never `Auto`: bitset unless sparse.
        let (priced, skips, aborts) = match self.resolved {
            CostKernel::Sparse => (
                Counter::KernelPricedSparse,
                Counter::KernelPruneSkipSparse,
                Counter::KernelPruneAbortSparse,
            ),
            _ => (
                Counter::KernelPricedBitset,
                Counter::KernelPruneSkipBitset,
                Counter::KernelPruneAbortBitset,
            ),
        };
        bbncg_obs::counter_add(priced, t.priced);
        bbncg_obs::counter_add(skips, t.prune_skips);
        bbncg_obs::counter_add(aborts, t.prune_aborts);
        bbncg_obs::counter_add(Counter::KernelPruneExact, t.prune_exact);
        bbncg_obs::counter_add(Counter::KernelBaseBfs, t.base_bfs);
        bbncg_obs::counter_add(Counter::KernelSessions, t.sessions);
        bbncg_obs::counter_add(Counter::ClosedFormActivations, t.closed_form);
        bbncg_obs::counter_add(Counter::SwapSweeps, t.sweeps);
        if self.resolved == CostKernel::Sparse {
            // Sparse pricing is one decrease-only repair per candidate.
            bbncg_obs::counter_add(Counter::KernelSsspRepairs, t.priced);
        }
    }

    /// The kernel this engine was built with (possibly `Auto`).
    #[inline]
    pub fn kernel(&self) -> CostKernel {
        self.kernel
    }

    /// The concrete kernel pricing candidates right now.
    #[inline]
    pub fn resolved_kernel(&self) -> CostKernel {
        self.resolved
    }

    /// Number of vertices the engine is sized for.
    #[inline]
    pub fn n(&self) -> usize {
        self.mirror.n()
    }

    /// The active session's player, if a session is open.
    #[inline]
    pub fn player(&self) -> Option<NodeId> {
        self.active.map(|(u, _)| u)
    }

    /// Whole-arena re-packs the underlying editable CSR has performed
    /// ([`CompactCsr::compactions`]; its single-row relocations are
    /// `O(deg)` and not counted).
    #[inline]
    pub fn rebuilds(&self) -> u64 {
        self.patch.compactions()
    }

    /// Candidates this session priced on the kernel to the end (not
    /// aborted by their incumbent bound).
    #[cfg(test)]
    pub(crate) fn priced_to_completion(&self) -> u64 {
        self.tally.priced - self.tally.prune_aborts
    }

    /// Candidates this session examined: priced on the kernel (to the
    /// end or aborted), priced exactly by their bound, or skipped by it.
    #[cfg(test)]
    pub(crate) fn examined(&self) -> u64 {
        self.tally.priced + self.tally.prune_exact + self.tally.prune_skips
            - self.tally.prune_aborts
    }

    /// Re-attach the detached player's arcs, making `patch` mirror
    /// `mirror` exactly.
    fn close_session(&mut self) {
        if let Some((u, _)) = self.active.take() {
            apply_strategy_patch(
                &mut self.patch,
                self.bits.as_mut(),
                u,
                &[],
                self.mirror.out(u),
            );
        }
    }

    /// Bring the mirror in line with `r`, patching only what changed:
    /// nothing to compare when the mirror holds `r`'s version, the last
    /// mover alone when `r` is exactly one move past it, and every
    /// player's strategy otherwise.
    fn sync(&mut self, r: &Realization) {
        if self.mirror.n() != r.n() {
            // Different instance size: start over (not a hot path). The
            // requested kernel survives; `Auto` re-resolves for the new n.
            *self = DeviationScratch::with_kernel(r, self.kernel);
            return;
        }
        self.close_session();
        if self.synced != r.version() {
            match r.last_move() {
                Some((before, u)) if before == self.synced => self.sync_player(r, u),
                _ => (0..r.n()).for_each(|u| self.sync_player(r, NodeId::new(u))),
            }
            self.synced = r.version();
        }
        // Compared against a view of its own, so the check fills no
        // cache of `r`'s.
        debug_assert!(self
            .patch
            .same_graph_as(&CompactCsr::from_digraph(r.graph())));
        debug_assert!(self.bits.as_ref().is_none_or(|b| b.mirrors(&self.patch)));
    }

    /// Copy player `u`'s strategy from `r` into the mirror, the patch,
    /// the bit mirror and the closed form's arrays, if it changed.
    fn sync_player(&mut self, r: &Realization, u: NodeId) {
        self.compared += 1;
        let want = r.strategy(u);
        let have = self.mirror.out(u);
        if have != want {
            self.multi_owners += usize::from(want.len() > 1);
            self.multi_owners -= usize::from(have.len() > 1);
            self.closed_form.moved(u, have, want);
            apply_strategy_patch(&mut self.patch, self.bits.as_mut(), u, have, want);
            self.mirror.set_out_from_slice(u, want);
        }
    }

    /// Open a pricing session for player `u` of `r` under `model`:
    /// sync the mirror to `r`, lift `u`'s owned arcs out of the patch,
    /// and count `u`'s distinct in-neighbours. What only kernel pricing
    /// reads — the component labelling and, under sparse, the base
    /// BFS — is built by the session's first kernel call, so a session
    /// the closed form settles never builds it. The session stays open
    /// (and candidate pricing valid) until the next `begin` or `sync`.
    ///
    /// Re-entrant: calling `begin` again for the same `(u, model)`
    /// while `r` still matches the mirror is a no-op (a version check;
    /// a strategy comparison only if `r` is a different realization),
    /// so layered helpers — e.g. a best-response solver on top of a
    /// verification loop that already opened the session — pay the
    /// detach and the kernel state once.
    pub fn begin(&mut self, r: &Realization, u: NodeId, model: CostModel) {
        if self.active == Some((u, model)) && !self.mirror_differs(r) {
            return; // session already open for exactly this state
        }
        self.flush_obs();
        self.tally.sessions += 1;
        self.sync(r);
        apply_strategy_patch(
            &mut self.patch,
            self.bits.as_mut(),
            u,
            self.mirror.out(u),
            &[],
        );
        self.active = Some((u, model));
        self.memo_current = None;
        self.closed_form_ready = false;
        self.kernel_ready = false;
        self.recompute_distinct_in(u);
    }

    /// Build the session state only kernel pricing reads, once per
    /// session: the component labelling of the detached graph and,
    /// under sparse, the base BFS. [`Self::merge_stats`] calls it, and
    /// every kernel path (`cost_of` past the memo, `cost_of_pruned`,
    /// `candidate_lower_bound`) starts there.
    fn kernel_session(&mut self, u: NodeId) {
        if self.kernel_ready {
            return;
        }
        self.kernel_ready = true;
        self.recompute_components();
        if self.resolved == CostKernel::Sparse {
            self.rebase_sparse_session(u);
        }
    }

    /// Sparse-kernel session prep: one BFS from `u` over the detached
    /// graph fixes the base distance profile every candidate repair
    /// starts from, and its histogram is folded into the landmark gain
    /// tables that widen the per-candidate lower bound.
    fn rebase_sparse_session(&mut self, u: NodeId) {
        self.tally.base_bfs += 1;
        self.sssp.rebase(&self.patch, u);
        // gain_ub(bt) = Σ_v max(0, improvement cap of a target at base
        // distance bt on a vertex at base distance d), split by branch:
        //   d ≥ bt  → bt − 1          (suffix count × (bt−1))
        //   d < bt  → 2d − bt − 1     (weighted prefix sums)
        // Prefix/suffix arrays over the histogram make each lookup O(1).
        let hist = self.sssp.hist();
        let dmax = hist.len(); // base_max + 1 entries
        self.lmk_p1.clear();
        self.lmk_p2.clear();
        self.lmk_cnt_ge.clear();
        self.lmk_cnt_ge.resize(dmax + 1, 0);
        let (mut c1, mut c2) = (0u64, 0u64);
        for (d, &h) in hist.iter().enumerate() {
            c1 += h as u64;
            c2 += h as u64 * 2 * d as u64;
            self.lmk_p1.push(c1);
            self.lmk_p2.push(c2);
        }
        for d in (0..dmax).rev() {
            self.lmk_cnt_ge[d] = self.lmk_cnt_ge[d + 1] + hist[d] as u64;
        }
    }

    /// Upper bound on the total base-distance decrease a single target
    /// at finite base distance `bt` can cause over the source's base
    /// component (triangle inequality against the source-as-landmark:
    /// `d₀(t, v) ≥ |base(v) − base(t)|`). O(1) per call.
    fn landmark_gain_ub(&self, bt: usize) -> u64 {
        if bt <= 1 {
            return 0; // distance-1 targets cannot improve anything
        }
        let dmax = self.lmk_p1.len(); // base_max + 1
        let t1 = (bt as u64 - 1) * self.lmk_cnt_ge[bt.min(dmax)];
        // d < bt branch: positive only for d > (bt+1)/2; terms at the
        // low edge are zero, so the simpler floor is safe.
        let lo = bt / 2 + 1;
        let hi = (bt - 1).min(dmax - 1);
        let mut t2 = 0;
        if lo <= hi {
            let cnt = self.lmk_p1[hi] - self.lmk_p1[lo - 1];
            let w = self.lmk_p2[hi] - self.lmk_p2[lo - 1];
            t2 = w - (bt as u64 + 1) * cnt;
        }
        t1 + t2
    }

    /// Does any player's strategy in `r` differ from the mirror? Not
    /// when the versions match; otherwise a plain profile comparison
    /// (the mirror keeps the detached player's arcs).
    fn mirror_differs(&self, r: &Realization) -> bool {
        self.synced != r.version()
            && (self.mirror.n() != r.n()
                || (0..r.n()).any(|v| {
                    let v = NodeId::new(v);
                    self.mirror.out(v) != r.strategy(v)
                }))
    }

    fn recompute_components(&mut self) {
        self.comp_count =
            bbncg_graph::components_into(&self.patch, &mut self.bfs, &mut self.comp_label);
        self.comp_sizes.clear();
        self.comp_sizes.resize(self.comp_count, 0);
        for &l in &self.comp_label {
            self.comp_sizes[l as usize] += 1;
        }
    }

    fn recompute_distinct_in(&mut self, u: NodeId) {
        self.dedup_buf.clear();
        self.dedup_buf.extend_from_slice(self.patch.neighbors(u));
        self.dedup_buf.sort_unstable();
        self.dedup_buf.dedup();
        self.distinct_in = self.dedup_buf.len();
    }

    /// Component structure of the graph if the active player plays
    /// `targets`: the components touched by `{u} ∪ targets` merge.
    /// Returns `(κ after the move, vertices reachable from u)` — both
    /// exact, computed from the session's labelling without a BFS.
    /// Builds the session's kernel state first, if nothing has yet.
    fn merge_stats(&mut self, u: NodeId, targets: &[NodeId]) -> (usize, usize) {
        self.kernel_session(u);
        self.label_buf.clear();
        self.label_buf.push(self.comp_label[u.index()]);
        for &t in targets {
            self.label_buf.push(self.comp_label[t.index()]);
        }
        self.label_buf.sort_unstable();
        self.label_buf.dedup();
        let reachable: usize = self
            .label_buf
            .iter()
            .map(|&l| self.comp_sizes[l as usize])
            .sum();
        (self.comp_count - (self.label_buf.len() - 1), reachable)
    }

    /// Would `u`'s session on `r` be in the closed-form class, under
    /// either model? `O(1)`, without opening the session: "no player
    /// owns two" is read off the profile the engine last synced to.
    /// That is exact in dynamics, where every move keeps its strategy's
    /// size; elsewhere a stale answer can only move the activation
    /// between executors, never change its decision.
    pub(crate) fn closed_form_expected(&self, r: &Realization, u: NodeId) -> bool {
        r.strategy(u).len() == 1 && self.multi_owners == 0
    }

    /// Every single-arc candidate's cost under the session's model for
    /// the active player, indexed by target (`u64::MAX` at the player
    /// itself), with the current strategy's cost — from one closed-form
    /// pass when the session is in its class (the player owns exactly
    /// one arc, no player owns two), `None` otherwise. Prices once per
    /// session, counts one closed-form activation per call (each search
    /// asks once), and leaves the current cost in the memo
    /// [`Self::cost_of`] answers the improvement gate from.
    pub(crate) fn closed_form_costs(&mut self) -> Option<(&[u64], u64)> {
        let (u, model) = self.active?;
        let &[current] = self.mirror.out(u) else {
            return None;
        };
        if self.multi_owners > 0 {
            return None;
        }
        let current = current.index();
        if !self.closed_form_ready {
            self.closed_form.price(&self.mirror, &self.patch, u, model);
            self.closed_form_ready = true;
        }
        // One search per activation asks, so this counts activations.
        self.tally.closed_form += 1;
        let costs = self.closed_form.costs();
        self.memo_current = Some(costs[current]);
        Some((costs, costs[current]))
    }

    /// Open the swap sweep of the active session (`crate::sweep`): one
    /// base BFS per owned arc, with `u` blocked, and zeroed
    /// accumulators. The bit-row form runs where the bit mirror exists,
    /// the CSR form elsewhere.
    ///
    /// # Panics
    /// Panics if no session is open.
    pub(crate) fn sweep_open(&mut self) {
        let (u, model) = self.active.expect("no deviation session open");
        let slots = self.mirror.out(u);
        let bits = self.bits.as_ref();
        self.sweep
            .open(&self.patch, bits, u, slots, &self.dedup_buf, model);
    }

    /// Sweep the sources `sources` into this engine's accumulators.
    pub(crate) fn sweep_run(&mut self, sources: std::ops::Range<usize>) {
        self.sweep.run(&self.patch, self.bits.as_ref(), sources);
    }

    /// This engine's accumulations since [`Self::sweep_open`].
    pub(crate) fn sweep_part(&mut self) -> SweepPart {
        self.sweep.take_part()
    }

    /// The active player's current cost, priced as [`Self::cost_of`]
    /// prices it, except that a SUM price on the bitset kernel — which
    /// needs neither `κ` nor a sparse base — builds none of the
    /// session's kernel state: the sweep reads the component labelling
    /// only when some base misses a vertex (see [`Self::sweep_best`]).
    pub(crate) fn sweep_current_cost(&mut self) -> u64 {
        let (u, model) = self.active.expect("no deviation session open");
        let mut current = std::mem::take(&mut self.cand_buf);
        current.clear();
        current.extend_from_slice(self.mirror.out(u));
        let cost = match (self.memo_current, model, self.resolved) {
            (Some(cost), _, _) => cost,
            (None, CostModel::Sum, CostKernel::Bitset) => {
                let cost = self.cost_with_kappa(&current, 1);
                self.memo_current = Some(cost);
                cost
            }
            _ => self.cost_of(&current),
        };
        self.cand_buf = current;
        cost
    }

    /// Merge `parts` — this engine's own first — and return the sweep's
    /// decision: the earliest least-cost swap strictly below `ceiling`,
    /// as `(slot, target, cost)`. Counts one sweep.
    pub(crate) fn sweep_best(
        &mut self,
        parts: impl IntoIterator<Item = SweepPart>,
        ceiling: u64,
    ) -> Option<(usize, NodeId, u64)> {
        self.tally.sweeps += 1;
        let labelled = self.label_for_sweep();
        let comps = labelled.then_some(Components {
            label: &self.comp_label,
            sizes: &self.comp_sizes,
            count: self.comp_count,
        });
        self.sweep.best(parts, comps, ceiling)
    }

    /// Label the detached graph's components when the open sweep needs
    /// them (some base misses a vertex, so a swap can leave a component
    /// unreached or merge one); whether it does.
    fn label_for_sweep(&mut self) -> bool {
        let (u, _) = self.active.expect("no deviation session open");
        let needed = self.sweep.needs_components();
        if needed {
            self.kernel_session(u);
        }
        needed
    }

    /// Every swap's cost after merging `parts` (see [`Self::sweep_best`]).
    #[cfg(test)]
    pub(crate) fn sweep_costs(
        &mut self,
        parts: impl IntoIterator<Item = SweepPart>,
    ) -> Vec<(usize, NodeId, u64)> {
        let labelled = self.label_for_sweep();
        let comps = labelled.then_some(Components {
            label: &self.comp_label,
            sizes: &self.comp_sizes,
            count: self.comp_count,
        });
        self.sweep.costs(parts, comps)
    }

    /// Price the candidate strategy `targets` for the active player —
    /// one patched BFS (through the selected kernel), zero allocation,
    /// zero rebuilds. `targets` need not have full budget size (the
    /// greedy rule prices prefixes).
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn cost_of(&mut self, targets: &[NodeId]) -> u64 {
        let (u, _) = self.active.expect("no deviation session open");
        // Searches and the greedy rule's gate price the player's
        // current strategy more than once a session; one memo slot
        // keeps it to one BFS (session state is fixed, so the cost is
        // too).
        let is_current = targets == self.mirror.out(u);
        if is_current {
            if let Some(c) = self.memo_current {
                return c;
            }
        }
        let (kappa, _) = self.merge_stats(u, targets);
        let cost = self.cost_with_kappa(targets, kappa);
        if is_current {
            self.memo_current = Some(cost);
        }
        cost
    }

    /// Kernel-dispatched exact pricing, no incumbent, with the
    /// component count already in hand.
    fn cost_with_kappa(&mut self, targets: &[NodeId], kappa: usize) -> u64 {
        let (u, model) = self.active.expect("no deviation session open");
        self.tally.priced += 1;
        // The bit mirror exists exactly when the kernel is bitset.
        let stats = match &self.bits {
            Some(bits) => self.bitbfs.run_patched(bits, u, u, targets),
            // Sparse: decrease-only repair of the session's base
            // profile — cost ∝ improved region, not n.
            None => self.sssp.price(&self.patch, u, targets),
        };
        cost_from_bfs(
            model,
            self.n(),
            kappa,
            stats.visited,
            stats.max_dist,
            stats.sum_dist,
        )
    }

    /// Price `targets` only if it can still strictly beat `incumbent`:
    /// returns `None` when its Lemma 2.2-style lower bound already meets
    /// or exceeds the incumbent (no BFS run), or when the kernel's
    /// traversal proves part-way that the final cost will (an incumbent
    /// abort against a [`PriceBudget`]). Either way the candidate can
    /// never *strictly* improve on the incumbent, so every search loop
    /// can skip it without changing its result or its tie-breaking. In
    /// the MAX model a candidate that leaves the graph disconnected is
    /// priced exactly from the component structure alone (`κ'·n²`),
    /// also without a BFS.
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn cost_of_pruned(&mut self, targets: &[NodeId], incumbent: u64) -> Option<u64> {
        let (bound, exact, kappa, reachable) = self.candidate_bound(targets);
        if bound >= incumbent {
            self.tally.prune_skips += 1;
            return None;
        }
        if exact {
            debug_assert_eq!(bound, self.cost_of(targets));
            self.tally.prune_exact += 1;
            return Some(bound);
        }
        let cost = self.cost_bounded(targets, kappa, reachable, incumbent);
        if cost.is_none() {
            self.tally.prune_skips += 1;
            self.tally.prune_aborts += 1;
        }
        cost
    }

    /// Kernel-dispatched pricing with an incumbent abort: the exact
    /// cost, or `None` once the traversal proves the cost meets
    /// `incumbent`. The incumbent becomes one [`PriceBudget`] on the
    /// traversal's own statistics — both kernels abort on the same
    /// budget: the bitset BFS at the first completed level that proves
    /// it, the sparse repair mid-level (with its sharper degree-spill
    /// and slack bounds). κ and the reachable count come from the
    /// caller's bound, so the merge stats are computed once.
    fn cost_bounded(
        &mut self,
        targets: &[NodeId],
        kappa: usize,
        reachable: usize,
        incumbent: u64,
    ) -> Option<u64> {
        let (u, model) = self.active.expect("no deviation session open");
        let n = self.n();
        let cinf = c_inf(n);
        self.tally.priced += 1;
        let budget = match model {
            // SUM: cost = sum + (n − reachable)·C_inf, so the sum may
            // not reach incumbent − penalty. `max_dist` is never read.
            CostModel::Sum => PriceBudget {
                sum: incumbent.saturating_sub((n - reachable) as u64 * cinf),
                max: u32::MAX,
                reachable,
                need_max: false,
            },
            // MAX: disconnected candidates were priced exactly by the
            // bound, so reachable == n and cost = eccentricity +
            // (κ − 1)·C_inf.
            CostModel::Max => PriceBudget {
                sum: u64::MAX,
                max: incumbent
                    .saturating_sub((kappa as u64 - 1) * cinf)
                    .min(u32::MAX as u64) as u32,
                reachable,
                need_max: true,
            },
        };
        let stats = match &self.bits {
            Some(bits) => self
                .bitbfs
                .run_patched_bounded(bits, u, u, targets, &budget)?,
            None => self.sssp.price_bounded(&self.patch, u, targets, &budget)?,
        };
        Some(cost_from_bfs(
            model,
            n,
            kappa,
            stats.visited,
            stats.max_dist,
            stats.sum_dist,
        ))
    }

    /// Lower bound on the cost of the *specific* candidate `targets`
    /// for the active player, from component structure and distance-1
    /// counting only (no BFS). Tighter than [`Self::cost_lower_bound`]:
    /// the vertices at distance 1 are exactly
    /// `targets ∪ in-neighbours`, reachability is exactly the merged
    /// components, and everything else reached is at distance ≥ 2.
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn candidate_lower_bound(&mut self, targets: &[NodeId]) -> u64 {
        self.candidate_bound(targets).0
    }

    /// `(bound, is_exact, κ after the move, reachable)` for
    /// [`Self::candidate_lower_bound`]; `is_exact` holds when the
    /// bound equals the true cost (every reached vertex provably at
    /// distance 1, or a MAX-model candidate that leaves the graph
    /// disconnected). κ and the reachable count ride along so the
    /// pruned pricing path never recomputes the merge stats.
    fn candidate_bound(&mut self, targets: &[NodeId]) -> (u64, bool, usize, usize) {
        let (u, model) = self.active.expect("no deviation session open");
        let (kappa, reachable) = self.merge_stats(u, targets);
        let n = self.n();
        if n <= 1 {
            return (0, false, kappa, reachable);
        }
        let cinf = c_inf(n);
        let sparse = self.resolved == CostKernel::Sparse;
        // |targets ∪ in-neighbours(u)|: targets are tiny, so dedup by
        // scan; in-neighbour membership via binary search in the sorted
        // distinct-in list `dedup_buf` built at session open. Sparse
        // sessions fold the landmark accumulators into the same pass.
        let mut extra = 0usize;
        let mut gain: u64 = 0; // Σ landmark gain caps, in-component targets
        let mut out_targets = 0usize; // distinct targets outside the base component
        let mut max_bt: u32 = 0; // deepest finite base distance among targets
        for (i, &t) in targets.iter().enumerate() {
            if t == u || targets[..i].contains(&t) {
                continue;
            }
            if self.dedup_buf.binary_search(&t).is_err() {
                extra += 1;
            }
            if sparse {
                let bd = self.sssp.base_dist(t);
                if bd == UNREACHED {
                    out_targets += 1;
                } else {
                    gain += self.landmark_gain_ub(bd as usize);
                    max_bt = max_bt.max(bd);
                }
            }
        }
        let d1 = (self.distinct_in + extra).min(reachable - 1);
        // d1 is the exact distance-1 count, so when it covers every
        // reached vertex the bound *is* the cost in both models (the
        // landmark widening is skipped there: it can never exceed an
        // exact bound, only lose the exactness certificate).
        let all_at_one = d1 == reachable - 1;
        match model {
            CostModel::Sum => {
                let mut bound =
                    d1 as u64 + 2 * (reachable - 1 - d1) as u64 + (n - reachable) as u64 * cinf;
                if sparse && !all_at_one {
                    // Landmark widening: distances inside the base
                    // component shrink by at most the targets' summed
                    // gain caps (triangle inequality against u), newly
                    // merged vertices sit at ≥ 2 except the targets
                    // themselves, unreached components price at C_inf.
                    let base = self.sssp.base_stats();
                    let in_r0 = base
                        .sum_dist
                        .saturating_sub(gain)
                        .max(base.visited as u64 - 1);
                    let m_new = reachable - base.visited;
                    let new_part = (2 * m_new - out_targets.min(m_new)) as u64;
                    let widened = in_r0 + new_part + (n - reachable) as u64 * cinf;
                    bound = bound.max(widened);
                }
                (bound, all_at_one, kappa, reachable)
            }
            CostModel::Max => {
                if reachable == n {
                    let mut bound = if d1 == n - 1 { 1 } else { 2 };
                    if sparse && !all_at_one {
                        // The base component's deepest vertex stays at
                        // least one hop beyond the deepest target
                        // (`ecc ≥ base_max + 1 − max_t base(t)`, by the
                        // triangle inequality through u); with no
                        // in-component target the base depths are not
                        // touched at all.
                        let base_max = self.sssp.base_max() as u64;
                        let widened = if max_bt > 0 {
                            base_max + 1 - max_bt as u64
                        } else {
                            base_max
                        };
                        bound = bound.max(widened);
                    }
                    (bound, all_at_one, kappa, reachable)
                } else {
                    // Disconnected MAX cost is κ'·n² regardless of the
                    // BFS: the local-diameter term saturates at n².
                    (kappa as u64 * cinf, true, kappa, reachable)
                }
            }
        }
    }

    /// Lower bound on the cost of *any* size-`b` strategy for the
    /// active player (Lemma 2.2 argument: at most
    /// `b + distinct in-neighbours` vertices at distance 1, the rest
    /// at ≥ 2). Candidates attaining it are provably optimal.
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn cost_lower_bound(&self, b: usize) -> u64 {
        let (_, model) = self.active.expect("no deviation session open");
        let n = self.n();
        if n <= 1 {
            return 0;
        }
        let at_dist_1 = (b + self.distinct_in).min(n - 1);
        let farther = n - 1 - at_dist_1;
        match model {
            CostModel::Sum => at_dist_1 as u64 + 2 * farther as u64,
            CostModel::Max => {
                if farther == 0 {
                    1
                } else {
                    2
                }
            }
        }
    }
}

impl Drop for DeviationScratch {
    fn drop(&mut self) {
        // The final session's tallies would otherwise never reach the
        // registry (begin() flushes the *previous* session).
        self.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_graph::OwnedDigraph;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn session_prices_like_full_recompute() {
        let g = OwnedDigraph::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = Realization::new(g);
        let mut scratch = DeviationScratch::new(&r);
        for model in CostModel::ALL {
            scratch.begin(&r, v(1), model);
            assert_eq!(scratch.cost_of(&[v(2)]), r.cost(v(1), model));
            for target in [0usize, 2, 3] {
                let dev = r.with_strategy(v(1), vec![v(target)]);
                assert_eq!(
                    scratch.cost_of(&[v(target)]),
                    dev.cost(v(1), model),
                    "target {target} {model:?}"
                );
            }
        }
    }

    #[test]
    fn sessions_reuse_across_players_and_moves() {
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut r = Realization::new(g);
        let mut scratch = DeviationScratch::new(&r);
        // Player 0 deviates; the applied move must be visible to the
        // next session via diff-sync, not a rebuild.
        scratch.begin(&r, v(0), CostModel::Sum);
        let c = scratch.cost_of(&[v(2)]);
        r.set_strategy(v(0), vec![v(2)]);
        assert_eq!(c, r.cost(v(0), CostModel::Sum));
        for u in 0..5 {
            scratch.begin(&r, v(u), CostModel::Max);
            let b = r.graph().out_degree(v(u));
            if b == 1 {
                for t in 0..5 {
                    if t == u {
                        continue;
                    }
                    let dev = r.with_strategy(v(u), vec![v(t)]);
                    assert_eq!(scratch.cost_of(&[v(t)]), dev.cost(v(u), CostModel::Max));
                }
            }
        }
        assert_eq!(scratch.rebuilds(), 0);
    }

    #[test]
    fn kappa_accounting_across_components() {
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (3, 4)]);
        let r = Realization::new(g);
        let mut scratch = DeviationScratch::new(&r);
        for model in CostModel::ALL {
            scratch.begin(&r, v(0), model);
            for target in [1usize, 2, 3] {
                let dev = r.with_strategy(v(0), vec![v(target)]);
                assert_eq!(
                    scratch.cost_of(&[v(target)]),
                    dev.cost(v(0), model),
                    "target {target} model {model:?}"
                );
            }
        }
    }

    #[test]
    fn lower_bound_is_sound() {
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = Realization::new(g);
        let mut scratch = DeviationScratch::new(&r);
        for model in CostModel::ALL {
            for u in 0..5 {
                let u = v(u);
                let b = r.graph().out_degree(u);
                scratch.begin(&r, u, model);
                let lb = scratch.cost_lower_bound(b);
                let pool: Vec<NodeId> = (0..5).map(v).filter(|&t| t != u).collect();
                if b == 0 {
                    assert!(scratch.cost_of(&[]) >= lb);
                    continue;
                }
                let mut od = crate::oracle::CombinationOdometer::new(pool.len(), b);
                loop {
                    let targets: Vec<NodeId> = od.indices().iter().map(|&i| pool[i]).collect();
                    assert!(scratch.cost_of(&targets) >= lb);
                    if !od.advance() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no deviation session open")]
    fn pricing_without_session_panics() {
        let r = Realization::new(OwnedDigraph::from_arcs(2, &[(0, 1)]));
        let mut scratch = DeviationScratch::new(&r);
        scratch.cost_of(&[v(1)]);
    }

    #[test]
    fn bitset_kernel_prices_identically() {
        // Bitset on a small instance, where Auto picks it too: every
        // candidate's cost matches the sparse kernel and the full
        // recompute, including across components.
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (3, 4)]);
        let r = Realization::new(g);
        let mut bitset = DeviationScratch::new(&r);
        let mut sparse = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
        assert_eq!(bitset.resolved_kernel(), CostKernel::Bitset);
        assert_eq!(sparse.resolved_kernel(), CostKernel::Sparse);
        for model in CostModel::ALL {
            for u in 0..5 {
                let u = v(u);
                if r.graph().out_degree(u) != 1 {
                    continue;
                }
                bitset.begin(&r, u, model);
                sparse.begin(&r, u, model);
                for t in (0..5).filter(|&t| t != u.index()) {
                    let want = r.with_strategy(u, vec![v(t)]).cost(u, model);
                    assert_eq!(bitset.cost_of(&[v(t)]), want, "bitset {u}->{t} {model:?}");
                    assert_eq!(sparse.cost_of(&[v(t)]), want, "sparse {u}->{t} {model:?}");
                }
            }
        }
    }

    #[test]
    fn bitset_mirror_survives_braces_and_moves() {
        // 0 <-> 1 brace: detaching player 0 must keep the {0,1} bit
        // alive (player 1's arc remains), and re-attaching restores it.
        let g = OwnedDigraph::from_arcs(3, &[(0, 1), (1, 0), (2, 0)]);
        let mut r = Realization::new(g);
        let mut scratch = DeviationScratch::with_kernel(&r, CostKernel::Bitset);
        scratch.begin(&r, v(0), CostModel::Sum);
        // In the detached graph, 0 still neighbours 1 (brace) and 2.
        assert_eq!(scratch.cost_of(&[v(2)]), {
            let dev = r.with_strategy(v(0), vec![v(2)]);
            dev.cost(v(0), CostModel::Sum)
        });
        // Apply a move and keep pricing through the diff-synced mirror.
        r.set_strategy(v(0), vec![v(2)]);
        for u in 0..3 {
            let u = v(u);
            if r.graph().out_degree(u) == 0 {
                continue;
            }
            scratch.begin(&r, u, CostModel::Max);
            for t in (0..3).filter(|&t| t != u.index()) {
                let dev = r.with_strategy(u, vec![v(t)]);
                assert_eq!(scratch.cost_of(&[v(t)]), dev.cost(u, CostModel::Max));
            }
        }
    }

    #[test]
    fn candidate_lower_bound_is_sound_and_pruning_is_lossless() {
        // Disconnected instance: the bound's cross-component pricing
        // (C_inf per unreached vertex in SUM, κ'·n² in MAX) must stay
        // below every candidate's true cost.
        let g = OwnedDigraph::from_arcs(6, &[(0, 1), (1, 2), (3, 4)]);
        let r = Realization::new(g);
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            let mut scratch = DeviationScratch::with_kernel(&r, kernel);
            for model in CostModel::ALL {
                for u in 0..6 {
                    let u = v(u);
                    scratch.begin(&r, u, model);
                    for t in (0..6).filter(|&t| t != u.index()) {
                        let cost = scratch.cost_of(&[v(t)]);
                        let lb = scratch.candidate_lower_bound(&[v(t)]);
                        assert!(lb <= cost, "bound {lb} > cost {cost} ({u}->{t} {model:?})");
                        // cost_of_pruned is exact below the incumbent…
                        assert_eq!(scratch.cost_of_pruned(&[v(t)], u64::MAX), Some(cost));
                        // …never skips a candidate that strictly beats
                        // the incumbent (pruning + in-flight aborts are
                        // lossless)…
                        assert_eq!(scratch.cost_of_pruned(&[v(t)], cost + 1), Some(cost));
                        // …and at incumbent == cost may skip (a tie
                        // cannot strictly improve), but never misprices.
                        if let Some(c) = scratch.cost_of_pruned(&[v(t)], cost) {
                            assert_eq!(c, cost);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_survives_instance_resize() {
        let r5 = Realization::new(OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2)]));
        let r3 = Realization::new(OwnedDigraph::from_arcs(3, &[(0, 1)]));
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            let mut scratch = DeviationScratch::with_kernel(&r5, kernel);
            scratch.begin(&r3, v(0), CostModel::Sum); // size change → rebuild
            assert_eq!(scratch.kernel(), kernel);
            assert_eq!(scratch.resolved_kernel(), kernel);
            assert_eq!(scratch.cost_of(&[v(1)]), r3.cost(v(0), CostModel::Sum));
        }
    }

    #[test]
    fn sparse_kernel_prices_identically() {
        // Forced sparse kernel on a small instance (Auto would pick
        // bitset here): every candidate's cost matches the full
        // recompute across components, moves and both models, with the
        // incremental base surviving diff-synced moves.
        let g = OwnedDigraph::from_arcs(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let mut r = Realization::new(g);
        let mut scratch = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
        assert_eq!(scratch.resolved_kernel(), CostKernel::Sparse);
        for model in CostModel::ALL {
            for u in 0..6 {
                let u = v(u);
                if r.graph().out_degree(u) != 1 {
                    continue;
                }
                scratch.begin(&r, u, model);
                for t in (0..6).filter(|&t| t != u.index()) {
                    let want = r.with_strategy(u, vec![v(t)]).cost(u, model);
                    assert_eq!(scratch.cost_of(&[v(t)]), want, "sparse {u}->{t} {model:?}");
                    assert_eq!(scratch.cost_of_pruned(&[v(t)], u64::MAX), Some(want));
                }
            }
        }
        // Apply a move; pricing must keep matching through diff-sync.
        r.set_strategy(v(0), vec![v(3)]);
        scratch.begin(&r, v(4), CostModel::Sum);
        for t in 0..4 {
            let want = r.with_strategy(v(4), vec![v(t)]).cost(v(4), CostModel::Sum);
            assert_eq!(scratch.cost_of(&[v(t)]), want);
        }
        assert_eq!(scratch.rebuilds(), 0);
    }

    /// Every size-`b` strategy of `u` in `r`, in enumeration order.
    fn candidates(r: &Realization, u: NodeId) -> Vec<Vec<NodeId>> {
        let pool: Vec<NodeId> = (0..r.n()).map(v).filter(|&t| t != u).collect();
        let mut od = crate::oracle::CombinationOdometer::new(pool.len(), r.strategy(u).len());
        let mut all = Vec::new();
        loop {
            all.push(od.indices().iter().map(|&i| pool[i]).collect());
            if !od.advance() {
                return all;
            }
        }
    }

    /// Multi-component profiles where the first kernel call of a
    /// session is, in turn, `cost_of` on a non-current target,
    /// `cost_of_pruned` and `candidate_lower_bound` — in unit sessions
    /// also after the closed form. Whichever call builds the
    /// session's kernel state, every price equals the full recompute;
    /// `begin` and the closed form build none of it, and no later call
    /// builds it again. One engine runs every session of a
    /// case, so state a session failed to build would be the previous
    /// player's.
    #[test]
    fn the_first_kernel_call_builds_the_session_state() {
        let profiles = [
            // Unit budgets: a tree rooted at 2, a brace with a pendant,
            // an isolated vertex.
            OwnedDigraph::from_arcs(7, &[(0, 1), (1, 2), (3, 4), (4, 3), (5, 3)]),
            // Player 0 owns two arcs: no session is in the closed form.
            OwnedDigraph::from_arcs(7, &[(0, 1), (0, 2), (3, 4), (4, 5), (6, 5)]),
        ];
        for r in profiles.map(Realization::new) {
            for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
                for model in CostModel::ALL {
                    // `first % 3` picks the first kernel call; `first ≥ 3`
                    // runs the closed form before it.
                    for first in 0..6 {
                        let mut scratch = DeviationScratch::with_kernel(&r, kernel);
                        for u in (0..r.n()).map(v).filter(|&u| r.graph().out_degree(u) > 0) {
                            let recompute = |cand: &Vec<NodeId>| {
                                r.with_strategy(u, cand.clone()).cost(u, model)
                            };
                            let cands = candidates(&r, u);
                            let other = cands.iter().find(|c| c[..] != *r.strategy(u)).unwrap();
                            let want = recompute(other);
                            let ctx = format!("{kernel} {model:?} first={first} {u}->{other:?}");

                            scratch.begin(&r, u, model);
                            assert!(!scratch.kernel_ready, "begin built kernel state: {ctx}");
                            if first >= 3 {
                                if scratch.closed_form_costs().is_none() {
                                    continue; // outside the closed form's class
                                }
                                assert!(!scratch.kernel_ready, "closed form built it: {ctx}");
                            }
                            assert_eq!(scratch.tally.base_bfs, 0, "{ctx}");
                            match first % 3 {
                                0 => assert_eq!(scratch.cost_of(other), want, "{ctx}"),
                                1 => {
                                    let got = scratch.cost_of_pruned(other, u64::MAX);
                                    assert_eq!(got, Some(want), "{ctx}");
                                }
                                _ => assert!(scratch.candidate_lower_bound(other) <= want, "{ctx}"),
                            }
                            assert!(scratch.kernel_ready, "{ctx}");
                            let base_bfs = u64::from(kernel == CostKernel::Sparse);
                            assert_eq!(scratch.tally.base_bfs, base_bfs, "{ctx}");
                            for cand in &cands {
                                let want = recompute(cand);
                                assert_eq!(scratch.cost_of(cand), want, "{ctx} {cand:?}");
                                assert_eq!(scratch.cost_of_pruned(cand, want + 1), Some(want));
                                assert!(scratch.candidate_lower_bound(cand) <= want);
                            }
                            assert_eq!(scratch.tally.base_bfs, base_bfs, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// Once the engine exists, sequential unit-budget dynamics compares
    /// only the players that moved: every activation meets the profile
    /// at the engine's version or one move past it, so `sync` never
    /// falls back to comparing every strategy.
    #[test]
    fn dynamics_compares_only_the_players_that_moved() {
        use crate::dynamics::{
            run_dynamics_with_scratch, DynamicsConfig, PlayerOrder, ResponseRule,
        };
        use crate::RoundExecutor;
        use bbncg_graph::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let rules = [
            ResponseRule::ExactBest,
            ResponseRule::FirstImproving,
            ResponseRule::Greedy,
            ResponseRule::BestSwap,
        ];
        let mut rng = StdRng::seed_from_u64(7);
        let start = Realization::new(generators::random_realization(&[1; 48], &mut rng));
        for model in CostModel::ALL {
            for rule in rules {
                for order in [PlayerOrder::RoundRobin, PlayerOrder::RandomPermutation] {
                    let cfg = DynamicsConfig {
                        order,
                        rule,
                        ..DynamicsConfig::exact(model, 50)
                    }
                    .with_executor(RoundExecutor::Sequential);
                    let mut scratch = DeviationScratch::new(&start);
                    let report =
                        run_dynamics_with_scratch(start.clone(), cfg, &mut rng, &mut scratch);
                    assert!(report.steps > 0, "{model:?} {rule:?} {order:?}");
                    assert_eq!(
                        scratch.compared, report.steps as u64,
                        "{model:?} {rule:?} {order:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_degenerate_sessions() {
        // Single vertex: the lone empty strategy prices to zero.
        let one = Realization::new(OwnedDigraph::empty(1));
        let mut scratch = DeviationScratch::with_kernel(&one, CostKernel::Sparse);
        for model in CostModel::ALL {
            scratch.begin(&one, v(0), model);
            assert_eq!(scratch.cost_of(&[]), 0, "{model:?}");
            assert_eq!(scratch.cost_of_pruned(&[], u64::MAX), Some(0));
        }
        // Duplicate and self targets agree with the deduplicated cost.
        let g = OwnedDigraph::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = Realization::new(g);
        let mut bitset = DeviationScratch::with_kernel(&r, CostKernel::Bitset);
        let mut sparse = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
        for model in CostModel::ALL {
            bitset.begin(&r, v(0), model);
            sparse.begin(&r, v(0), model);
            let want = r.with_strategy(v(0), vec![v(3)]).cost(v(0), model);
            assert_eq!(bitset.cost_of(&[v(3)]), want, "{model:?}");
            assert_eq!(sparse.cost_of(&[v(3)]), want, "{model:?}");
            assert_eq!(sparse.cost_of(&[v(3), v(3), v(0)]), want, "messy {model:?}");
        }
    }
}
