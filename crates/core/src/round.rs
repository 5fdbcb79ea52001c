//! Round executors: how one dynamics round turns activations into
//! committed moves.
//!
//! A round activates every player once in the configured order, and
//! each activation prices its candidates against the profile the
//! previous activation left, so a round is sequential by nature. The
//! parallelism that is both sound and dense lies *inside* one
//! activation: finding a best response searches a candidate space of
//! up to `C(n−1, b)` strategies (Theorem 2.1 says nothing cheaper
//! exists in general). The **sharded** executor cuts that work into
//! contiguous slices and runs them on several deviation engines at
//! once — the caller's [`DeviationScratch`] plus one engine on each
//! helper thread of the run's pool (see below):
//!
//! * exact best response: the `C(n−1, b)` subsets, cut by leading
//!   element into ranges of equal count (`lead_ranges`), each engine
//!   searching the candidates of the slices it draws;
//! * best swap: the swap sweep's sources `0..n`, cut into contiguous
//!   ranges (`even_ranges`). Each engine opens the sweep (its `b` base
//!   BFSs), runs the bounded BFSs of the sources it draws into its own
//!   counters and masks, and hands them over; the caller adds the
//!   counters, ANDs the masks and decides, so the merge is
//!   order-independent (`crate::sweep`).
//!
//! Engines claim slices from a shared cursor (`Dealer`), so each one
//! takes an increasing run of slices and uneven cost evens out. Exact
//! searches also share one incumbent bound: the least cost any engine
//! has found so far. Every BFS aborts at the first level that proves
//! its candidate cannot beat the bound it was given, so an engine that
//! priced only against its own incumbent would finish candidates
//! another engine had already beaten. The first-improving and greedy
//! rules price on the caller's engine under every executor.
//!
//! Unit-budget activations (the player owns one arc, nobody owns two)
//! have nothing worth splitting, under SUM or MAX: the caller's engine
//! prices all their candidates in one closed-form pass, so `Auto` never
//! splits them. An explicit `Sharded` still does, pricing their slices
//! on the kernels (or sweeping their sources) — which makes every
//! explicit-sharded unit-budget run a kernel-priced cross-check of the
//! closed form.
//!
//! # The helper pool
//!
//! A sharded run starts its helper threads at its first split and keeps
//! them until the run ends, inside one [`std::thread::scope`] that wraps
//! the run's round loop; a run that never splits starts none. Each
//! helper owns its engine, built at its first job, and reads the run's
//! profile through the `RwLock` the caller writes each move through. A
//! split is one **job**: owned data (player, model, search, the
//! `Dealer` over the slices, the ceiling), since no borrow of one
//! activation can reach a thread that outlives it. The protocol:
//!
//! 1. The caller prices the player's current strategy. A cost at the
//!    Lemma 2.2 floor has no strict improvement: the caller settles the
//!    activation on its own engine, and no job is posted, so no helper
//!    opens a session for it.
//! 2. Otherwise the caller posts the job, with that cost as its
//!    ceiling, and wakes the helpers taking part. Each takes a read
//!    guard, opens its session and works through the slices it draws
//!    while the caller does the same; each helper drops its guard and
//!    reports its share, or its panic, and the last report wakes the
//!    caller, which merges. The caller's next write never waits on a
//!    helper of a merged job.
//!
//! Every wait — a helper's for its next job, the caller's for the
//! reports — spins briefly and then parks, but spins only when every
//! engine has a CPU of its own (`spins`); on an oversubscribed host a
//! spinning waiter would hold the CPU that the thread it waits for
//! needs, so waiters there park at once and the other side unparks
//! them. Dropping the executor — at the run's end, or while the caller
//! unwinds — stops and wakes every helper, so the scope always joins
//! them; a helper's panic reaches the caller with its payload.
//!
//! # The step-identity invariant
//!
//! Sharded rounds are **step-identical** to sequential rounds for every
//! rule/order/kernel combination: same moves in the same order, same
//! step and round counts, same [`DynamicsReport`](crate::DynamicsReport),
//! bit-identical checkpoints and scenario record streams at any thread
//! count. A swap split merges the sweep's exact counters and masks,
//! which any split of the sources sums to the same values, and decides
//! from them as the caller's engine alone would. An exact split returns
//! exactly the sequential decision too:
//!
//! * the sequential search returns the *first* candidate in enumeration
//!   order that attains the least cost (it replaces its incumbent only
//!   on a strict improvement);
//! * each engine sees its slices in enumeration order and keeps the
//!   first least-cost candidate among them, and the merge keeps the
//!   least cost with ties going to the earliest slice — the same
//!   candidate;
//! * a slice whose candidate reaches the Lemma 2.2 floor
//!   ([`DeviationScratch::cost_lower_bound`]) has proven the optimum,
//!   so later slices stop: their candidates could at best tie and lose.
//!
//! Every engine starts its exact search from the player's current
//! cost, as the sequential search does, and keeps only strict
//! improvements on it. Pruning and incumbent aborts only skip candidates that cannot
//! strictly beat that cost or an incumbent found earlier in the
//! enumeration, as in the sequential loop, or that cost strictly more
//! than the shared best: each candidate is priced against
//! `min(incumbent, shared + 1)`, so a candidate tying another engine's
//! find is still priced and, if it lies earlier in the enumeration,
//! still wins the merge.
//! Enforced by `tests/round_parity.rs` and the CI byte-diff of
//! `--threads 1` vs `--threads 8` scenario record streams.

use crate::best_response::{
    assert_enumerable, best_swap_improvement, current_cost, exact_best_improvement,
    exact_best_over, first_improving_response_with, greedy_best_response_with, swept_swap,
    ScoredStrategy, Slices,
};
use crate::cost::CostModel;
use crate::deviation::DeviationScratch;
use crate::dynamics::{DynamicsConfig, ResponseRule};
use crate::kernel::CostKernel;
use crate::oracle::enumeration_count;
use crate::realization::Realization;
use crate::sweep::SweepPart;
use bbncg_graph::NodeId;
use bbncg_obs::Counter;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::{Scope, Thread};

/// How activations inside one dynamics round are executed. Executors
/// are **step-identical**: the choice can never change a trajectory, a
/// report, a checkpoint or a record stream — only wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RoundExecutor {
    /// Every activation prices its whole candidate space on one engine.
    Sequential,
    /// Every exact-best or best-swap activation with at least two
    /// slices of work, whose player sits above the Lemma 2.2 floor,
    /// splits them across the caller's engine and the engines of
    /// `max(max_threads(), 2) − 1` helper threads, which the run keeps
    /// from its first split to its end (see the module docs).
    Sharded,
    /// Sharded when more than one worker thread is available, the host
    /// has more than one CPU, the run is not already inside a parallel
    /// worker (a seed-sweep or serve-job worker — nesting a fan-out
    /// there would oversubscribe the machine quadratically), and the
    /// instance has at least 3 players; sequential otherwise. A sharded
    /// `Auto` run splits only the activations whose candidate work
    /// clears [`RoundExecutor::SHARD_MIN_WORK`] and whose player could
    /// still improve (a current cost at the Lemma 2.2 floor settles the
    /// activation on one engine without pricing a candidate), and never
    /// a unit-budget activation, which the closed form settles on one
    /// engine in one pass.
    #[default]
    Auto,
}

impl RoundExecutor {
    /// Candidate work, in candidates × n, below which an activation of
    /// an `Auto` run stays on one engine. A split posts a job to the
    /// run's helper threads: on a 2-vCPU x86-64 VM at n = 512 a
    /// spinning helper picks it up a median 1.1–1.5 µs later and opens
    /// its session (about 10 µs), so the split pays a few µs of
    /// handoff and the merge, and saves at most half the pricing.
    /// Full-BFS pricing of a budget-2 candidate there runs 6–9 ns per
    /// vertex, so 2¹⁷ is about 1 ms of unpruned pricing; but the
    /// incumbent abort stops most candidates a level or two in (about
    /// 0.5 µs per priced candidate in budget-2 swap dynamics at
    /// n = 512, per pair), so an activation prices far less than it
    /// enumerates. On that VM (bitset kernel, 2 threads, whole budget-2
    /// swap runs, in-process medians of 21) an explicit `Sharded` ran
    /// at 0.60–0.68× the sequential speed at n = 32 (2.0·10³),
    /// 0.89–0.96× at n = 64 (8.2·10³), 1.11× at n = 128 (3.3·10⁴) and
    /// 1.23–1.29× at n = 200 (8.0·10⁴); `Auto`, which splits from
    /// n = 256 (1.3·10⁵), ran 1.28× at n = 320 and 1.78× at n = 512
    /// (CLI runs, medians of 11). So the threshold keeps some winning
    /// activations on one engine, and waits for a measured matrix of
    /// sizes and kernels. These figures predate the swap sweep, which
    /// prices a budget-2 swap activation at n = 512 about 1.3–1.6×
    /// faster than per-pair pricing did, so swap splits now clear the
    /// threshold with less work to share. Unit-budget activations never
    /// reach this test: the closed form settles them on one engine.
    pub const SHARD_MIN_WORK: u64 = 1 << 17;

    /// The concrete executor used for an `n`-player instance (never
    /// returns [`RoundExecutor::Auto`]). Auto consults
    /// [`bbncg_par::max_threads`], the host's CPU count
    /// ([`bbncg_par::host_cpus`], read once per process) and the
    /// nesting flag at call time, so it is resolved once per dynamics
    /// run, at run start.
    pub fn resolve(self, n: usize) -> RoundExecutor {
        self.resolve_with(
            n,
            bbncg_par::max_threads(),
            bbncg_par::host_cpus(),
            bbncg_par::in_parallel_worker(),
        )
    }

    /// Pure core of [`RoundExecutor::resolve`]: the verdict as a
    /// function of instance size, configured thread budget, host CPU
    /// count and nesting — no ambient state, so every branch is
    /// testable on any machine.
    pub fn resolve_with(
        self,
        n: usize,
        threads: usize,
        host_cpus: usize,
        nested: bool,
    ) -> RoundExecutor {
        match self {
            RoundExecutor::Auto => {
                // Inside an outer fan-out (a sweep's seed worker, a
                // serve job worker) the thread budget is already spent
                // across runs. A thread *budget* above 1 on a
                // single-CPU host buys nothing either: the shards would
                // time-slice one core and pay the handoffs for nothing.
                // With fewer than 3 players no activation has
                // two candidates to split. An *explicit* `Sharded`
                // still honours the ask in every case.
                if n >= 3 && threads > 1 && host_cpus > 1 && !nested {
                    RoundExecutor::Sharded
                } else {
                    RoundExecutor::Sequential
                }
            }
            k => k,
        }
    }

    /// Spec/CLI label (`"sequential"`, `"sharded"`, `"auto"`).
    pub fn label(self) -> &'static str {
        match self {
            RoundExecutor::Sequential => "sequential",
            RoundExecutor::Sharded => "sharded",
            RoundExecutor::Auto => "auto",
        }
    }

    /// Parse a spec/CLI label. `"speculative"`, the executor sharding
    /// replaced, still parses (to [`RoundExecutor::Sharded`]), so specs,
    /// checkpoints and URLs written before the change keep working.
    pub fn parse(s: &str) -> Result<RoundExecutor, String> {
        match s {
            "sequential" => Ok(RoundExecutor::Sequential),
            "sharded" | "speculative" => Ok(RoundExecutor::Sharded),
            "auto" => Ok(RoundExecutor::Auto),
            other => Err(format!(
                "unknown round executor {other:?} (sequential|sharded|auto)"
            )),
        }
    }
}

impl std::fmt::Display for RoundExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The decision one activation of player `u` makes against `state`:
/// `Some(targets)` iff the player moves. With `shards`, exact and swap
/// activations worth splitting price across the helper engines, and
/// `state` must then be the profile behind the executor's lock, read
/// under a guard the caller holds for the whole activation; everything
/// else prices on `scratch` — in one closed-form pass for a unit-budget
/// activation, candidate by candidate otherwise.
///
/// The exact and swap searches start from the current strategy's cost
/// as their incumbent and return only a strict improvement, so every
/// candidate that cannot beat the current strategy is pruned or
/// aborted from the first one on; first-improving returns only strict
/// improvements by definition. Greedy alone can hand back a strategy
/// no cheaper than the current one, so it alone passes the
/// strict-improvement gate, priced through the still-open session.
pub(crate) fn respond(
    scratch: &mut DeviationScratch,
    shards: Option<&mut Shards<'_, '_>>,
    state: &Realization,
    u: NodeId,
    cfg: &DynamicsConfig,
) -> Option<Vec<NodeId>> {
    if state.graph().out_degree(u) == 0 {
        return None;
    }
    let model = cfg.model;
    let split = match (cfg.rule, shards) {
        (ResponseRule::ExactBest, Some(shards)) => shards.exact_best(scratch, state, u, model),
        (ResponseRule::BestSwap, Some(shards)) => shards.best_swap(scratch, state, u, model),
        _ => None,
    };
    let better = match split {
        Some(better) => {
            if better.is_some() {
                bbncg_obs::counter_inc(Counter::RoundsCommits);
            }
            better
        }
        None => match cfg.rule {
            ResponseRule::ExactBest => exact_best_improvement(scratch, state, u, model),
            ResponseRule::FirstImproving => first_improving_response_with(scratch, state, u, model),
            ResponseRule::Greedy => {
                let greedy = greedy_best_response_with(scratch, state, u, model);
                (greedy.cost < scratch.cost_of(state.strategy(u))).then_some(greedy)
            }
            ResponseRule::BestSwap => best_swap_improvement(scratch, state, u, model),
        },
    };
    better.map(|s| s.targets)
}

/// The sharded executor of one dynamics run: which activations split,
/// and the pool of helper threads that prices their slices beside the
/// caller's engine (see the module docs). The pool starts at the run's
/// first split, on the scope that wraps the run's round loop, and stops
/// when this value drops. A helper's engine re-syncs to the current
/// profile at every job it takes ([`DeviationScratch::begin`]), so a
/// helper that sat out a few activations patches exactly the moves it
/// missed (after one strategy comparison per player, unless it missed
/// at most one).
pub(crate) struct Shards<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    /// The run's profile: the caller reads it under a guard for each
    /// activation and writes each move; a helper reads it for each job.
    state: &'env RwLock<Realization>,
    kernel: CostKernel,
    /// Explicit [`RoundExecutor::Sharded`]: split every activation with
    /// two or more slices, unit-budget ones included. Otherwise
    /// (`Auto`) split only those the closed form does not settle and
    /// whose work clears [`RoundExecutor::SHARD_MIN_WORK`]. Either way,
    /// a player already at the Lemma 2.2 floor is settled unsplit.
    always: bool,
    /// Helper threads the pool runs: `max_threads() − 1`, and at least
    /// one under an explicit `Sharded`, so the split-and-merge path
    /// runs on any host and at any size.
    helpers: usize,
    /// The pool's board, from the first split on.
    board: Option<Arc<Board>>,
    /// The pool's threads, in helper order.
    threads: Vec<Thread>,
    tally: PoolTally,
}

/// What one run's pool did: helper threads started, and splits merged
/// (each one `RoundsEvals`). The pool lifecycle tests read it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PoolTally {
    /// Helper threads spawned over the run.
    pub(crate) spawned: usize,
    /// Jobs merged: one per split, since every job posted prices.
    pub(crate) splits: u64,
}

impl<'scope, 'env> Shards<'scope, 'env> {
    /// The executor of a run whose profile is behind `state`, pricing
    /// on `kernel`, spawning its helpers on `scope` when it first
    /// splits. The caller's engine prices slices too, hence
    /// `max_threads() − 1` helpers.
    pub(crate) fn new(
        scope: &'scope Scope<'scope, 'env>,
        state: &'env RwLock<Realization>,
        kernel: CostKernel,
        always: bool,
    ) -> Self {
        let threads = bbncg_par::max_threads();
        let engines = if always { threads.max(2) } else { threads };
        Shards {
            scope,
            state,
            kernel,
            always,
            helpers: engines - 1,
            board: None,
            threads: Vec::new(),
            tally: PoolTally::default(),
        }
    }

    /// What the pool has done so far.
    pub(crate) fn tally(&self) -> PoolTally {
        self.tally
    }

    fn worth_splitting(&self, candidates: u64, n: usize) -> bool {
        self.always || candidates.saturating_mul(n as u64) >= RoundExecutor::SHARD_MIN_WORK
    }

    /// Does `Auto` leave this activation to the caller's engine because
    /// the closed form settles it there in one pass? Decided before any
    /// session opens, so the caller's engine opens it once. An explicit
    /// split still prices it on the kernels.
    fn closed_form_settles(
        &self,
        scratch: &DeviationScratch,
        state: &Realization,
        u: NodeId,
    ) -> bool {
        !self.always && scratch.closed_form_expected(state, u)
    }

    /// Sharded [`exact_best_improvement`]: `None` when the activation
    /// is not worth splitting or, under `Auto`, the closed form settles
    /// it (the caller prices it on one engine), otherwise the best
    /// strict improvement, if any.
    fn exact_best(
        &mut self,
        scratch: &mut DeviationScratch,
        state: &Realization,
        u: NodeId,
        model: CostModel,
    ) -> Option<Option<ScoredStrategy>> {
        let n = state.n();
        let b = state.graph().out_degree(u);
        if self.closed_form_settles(scratch, state, u)
            || !self.worth_splitting(enumeration_count(n - 1, b), n)
        {
            return None;
        }
        assert_enumerable(n, b, u);
        let ranges = lead_ranges(n - 1, b, self.slices());
        if ranges.len() < 2 {
            return None;
        }
        let current = current_cost(scratch, state, u, model);
        self.split(scratch, state, (u, model), ranges, exact_job, current)
    }

    /// Sharded [`best_swap_improvement`]: `None` when the activation is
    /// not worth splitting or, under `Auto`, the closed form settles
    /// it; otherwise the best strict improvement, if any. The engines
    /// split the sweep's sources, `0..n`.
    fn best_swap(
        &mut self,
        scratch: &mut DeviationScratch,
        state: &Realization,
        u: NodeId,
        model: CostModel,
    ) -> Option<Option<ScoredStrategy>> {
        let n = state.n();
        let pairs = state.strategy(u).len() * n;
        if self.closed_form_settles(scratch, state, u) || !self.worth_splitting(pairs as u64, n) {
            return None;
        }
        let ranges = even_ranges(n, self.slices());
        if ranges.len() < 2 {
            return None;
        }
        scratch.begin(state, u, model);
        let current = scratch.sweep_current_cost();
        self.split(scratch, state, (u, model), ranges, sweep_job, current)
    }

    /// How many slices an activation is cut into.
    fn slices(&self) -> usize {
        (self.helpers + 1) * SLICES_PER_ENGINE
    }

    /// Run `search` over `ranges` (at least two) on the caller's engine
    /// and on the helpers, and merge what they found: `None` when the
    /// player's `current` cost, which the caller's engine has priced, is
    /// at the Lemma 2.2 floor (the caller settles the activation on its
    /// own engine, and no helper hears of it), the best strict
    /// improvement on that cost otherwise.
    fn split(
        &mut self,
        scratch: &mut DeviationScratch,
        state: &Realization,
        (u, model): (NodeId, CostModel),
        ranges: Vec<Range<usize>>,
        search: Search,
        current: u64,
    ) -> Option<Option<ScoredStrategy>> {
        if current <= scratch.cost_lower_bound(state.strategy(u).len()) {
            return None;
        }
        let job = self.post(u, model, search, ranges, current);
        let mine = search(scratch, state, &job);
        let board = self.board.as_deref().expect("posting started the pool");
        board.wait(|| job.reported.load(Ordering::Acquire) == job.reports.len());
        let (mut finds, mut parts) = (Vec::new(), Vec::new());
        let reports = job.reports.iter().map(|report| {
            match report.lock().unwrap_or_else(PoisonError::into_inner).take() {
                Some(Ok(share)) => share,
                Some(Err(panic)) => resume_unwind(panic),
                None => unreachable!("every helper taking part has reported"),
            }
        });
        for share in std::iter::once(mine).chain(reports) {
            match share {
                Share::Exact(find) => finds.push(find),
                Share::Sweep(part) => parts.push(part),
            }
        }
        self.tally.splits += 1;
        bbncg_obs::counter_inc(Counter::RoundsEvals);
        Some(if parts.is_empty() {
            job.dealer.merge(finds)
        } else {
            swept_swap(scratch, state, u, parts, current)
        })
    }

    /// Post a job over `ranges` with its `ceiling` for as many helpers as
    /// there are slices beyond the caller's first, and wake them; the
    /// run's first post starts the pool.
    fn post(
        &mut self,
        player: NodeId,
        model: CostModel,
        search: Search,
        ranges: Vec<Range<usize>>,
        ceiling: u64,
    ) -> Arc<Job> {
        let helpers = self.helpers.min(ranges.len() - 1);
        let board = self.pool();
        let job = Arc::new(Job {
            // Only the caller stores `posted`.
            epoch: board.posted.load(Ordering::Relaxed) + 1,
            player,
            model,
            search,
            dealer: Dealer::new(ranges),
            ceiling,
            reports: (0..helpers).map(|_| Mutex::new(None)).collect(),
            reported: AtomicUsize::new(0),
        });
        *board.job.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&job));
        board.posted.store(job.epoch, Ordering::Release);
        self.threads[..job.reports.len()]
            .iter()
            .for_each(Thread::unpark);
        job
    }

    /// The pool's board, spawning the helper threads on the run's scope
    /// the first time.
    fn pool(&mut self) -> &Board {
        if self.board.is_none() {
            let spin = spins(self.helpers + 1, bbncg_par::host_cpus());
            let board = Arc::new(Board {
                job: Mutex::new(None),
                posted: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                caller: std::thread::current(),
                spin,
            });
            // Published before the first spawn, so that dropping `self`
            // stops whatever did start if a later spawn fails.
            self.board = Some(Arc::clone(&board));
            for index in 0..self.helpers {
                let (board, state, kernel) = (Arc::clone(&board), self.state, self.kernel);
                let helper = self
                    .scope
                    .spawn(move || serve(&board, index, state, kernel));
                self.threads.push(helper.thread().clone());
                self.tally.spawned += 1;
            }
        }
        self.board.as_deref().expect("started above")
    }
}

impl Drop for Shards<'_, '_> {
    /// Stop and wake every helper, at the run's end or while the caller
    /// unwinds: the scope around the run joins them, and would wait
    /// forever on a helper still waiting for a job.
    fn drop(&mut self) {
        if let Some(board) = &self.board {
            board.stop.store(true, Ordering::Release);
            self.threads.iter().for_each(Thread::unpark);
        }
    }
}

/// Do a pool's waits spin before they park? Only when every engine —
/// the caller's and each helper's — has a CPU of its own. Otherwise a
/// spinning waiter would hold a CPU the thread it waits for needs:
/// waiters park at once, and the other side unparks them.
fn spins(engines: usize, host_cpus: usize) -> bool {
    engines <= host_cpus
}

/// Spins of a spinning wait before it parks, each one `spin_loop` hint
/// and one atomic load: about 25 ns on a 2-vCPU x86-64 VM, so a wait
/// spins about 50 µs — longer than a helper's session open or a split's
/// tail at n = 512, far shorter than the stretches without a split.
const SPINS: u32 = 1 << 11;

/// What a run's caller and its helpers share.
struct Board {
    /// The latest job posted.
    job: Mutex<Option<Arc<Job>>>,
    /// The latest job's epoch (0 before the first): stored with
    /// `Release` after `job`, loaded with `Acquire` before it is read.
    posted: AtomicU64,
    /// Set once, when the executor drops: helpers leave at their next
    /// wait.
    stop: AtomicBool,
    /// The thread that posts; a job's last report wakes it.
    caller: Thread,
    /// Waits spin before they park ([`spins`]).
    spin: bool,
}

impl Board {
    /// Return once `ready` holds: spin first if the pool spins, then
    /// park until an unpark finds it true (park may also wake
    /// spuriously, so it rechecks).
    fn wait(&self, ready: impl Fn() -> bool) {
        if self.spin {
            for _ in 0..SPINS {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        while !ready() {
            std::thread::park();
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The next job after epoch `taken`, or `None` once the pool stops.
    /// A helper that wakes late takes the latest job and skips any it
    /// missed: it can miss only a job it takes no part in (one with
    /// fewer slices than the pool has engines), since the caller waits
    /// for every report of the helpers a job names.
    fn next_job(&self, taken: u64) -> Option<Arc<Job>> {
        self.wait(|| self.posted.load(Ordering::Acquire) != taken || self.stopped());
        if self.stopped() {
            return None;
        }
        self.job
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// One split activation, as the helpers receive it: owned data, so a
/// helper may still hold it after the activation that posted it.
struct Job {
    epoch: u64,
    player: NodeId,
    model: CostModel,
    search: Search,
    dealer: Dealer,
    /// The player's current cost, which every candidate must strictly
    /// beat.
    ceiling: u64,
    /// One slot per helper taking part (the pool's first
    /// `reports.len()`): its share, or its panic.
    reports: Vec<Mutex<Option<std::thread::Result<Share>>>>,
    /// Slots filled so far. Each helper adds with `Release` after its
    /// search and its report; the caller loads with `Acquire` before it
    /// reads any slot or merges the dealer's tallies.
    reported: AtomicUsize,
}

/// A split's search, which every engine runs on the slices it draws
/// from the job's dealer: [`exact_job`] or [`sweep_job`].
type Search = fn(&mut DeviationScratch, &Realization, &Job) -> Share;

/// What one engine's share of a split produced.
enum Share {
    /// The exact search's find below the ceiling in the slices the
    /// engine drew.
    Exact(Found),
    /// The sweep's accumulations over the sources the engine drew.
    Sweep(SweepPart),
}

fn exact_job(engine: &mut DeviationScratch, r: &Realization, job: &Job) -> Share {
    let slices = &mut &job.dealer;
    Share::Exact(exact_best_over(
        engine,
        r,
        job.player,
        job.model,
        job.ceiling,
        slices,
    ))
}

/// The swap sweep over the sources the engine draws; the caller merges
/// every engine's part and decides.
fn sweep_job(engine: &mut DeviationScratch, r: &Realization, job: &Job) -> Share {
    engine.begin(r, job.player, job.model);
    engine.sweep_open();
    let mut slices = &job.dealer;
    while let Some((_, sources)) = slices.next() {
        engine.sweep_run(sources);
    }
    Share::Sweep(engine.sweep_part())
}

/// A helper thread's life: take each job posted for it, run the job's
/// search on its own engine, report — until the pool stops. Its engine
/// is built at its first job, and built again after a panic.
fn serve(board: &Board, index: usize, state: &RwLock<Realization>, kernel: CostKernel) {
    let mut engine = None;
    let mut taken = 0;
    while let Some(job) = board.next_job(taken) {
        taken = job.epoch;
        let Some(report) = job.reports.get(index) else {
            continue; // a job with fewer slices than the pool has engines
        };
        let share = catch_unwind(AssertUnwindSafe(|| {
            let state = state
                .read()
                .expect("only a panic mid-move poisons the profile, and it ends the run");
            let engine =
                engine.get_or_insert_with(|| DeviationScratch::with_kernel(&state, kernel));
            (job.search)(engine, &state, &job)
        }));
        if share.is_err() {
            engine = None;
        }
        *report.lock().unwrap_or_else(PoisonError::into_inner) = Some(share);
        if job.reported.fetch_add(1, Ordering::Release) + 1 == job.reports.len() {
            board.caller.unpark();
        }
    }
}

/// What one engine's share of a split search found: its cheapest
/// candidate, if any beat the ceiling, and that candidate's slice.
type Found = Option<(ScoredStrategy, usize)>;

/// Slices per engine an activation is cut into. Engines claim slices
/// in enumeration order from a shared cursor, so cutting finer than one
/// slice per engine balances uneven pricing cost and lets a floor found
/// early stop the other engines within a slice; 16 per engine keeps
/// the claims (one atomic add each) far below the pricing they hand
/// out.
const SLICES_PER_ENGINE: usize = 16;

/// Deals one activation's slices to its engines in enumeration order
/// and collects what they report. Every engine receives an increasing
/// run of slice indices, which is what lets its incumbent prune later
/// slices (see [`Slices`]), and every engine prunes against the least
/// cost any of them has found (`best`). Every atomic here publishes
/// nothing but its own value — the ranges are read-only, and `merge`
/// runs after the caller has acquired every helper's report (see
/// [`Job::reported`]) — so `Relaxed` suffices throughout.
struct Dealer {
    ranges: Vec<Range<usize>>,
    cursor: AtomicUsize,
    /// The lowest slice whose incumbent reached the Lemma 2.2 floor
    /// (`usize::MAX` while none has). It only ever decreases, so a
    /// stale read costs work, never a candidate before the final floor.
    floor: AtomicUsize,
    /// The least cost any engine has found (`u64::MAX` while none has),
    /// lowered on every strict improvement of an engine's incumbent.
    /// Every value it holds is a real candidate's cost and it only ever
    /// decreases, so a stale read also costs work, never a decision.
    best: AtomicU64,
    /// Candidates examined per slice.
    examined: Vec<AtomicU64>,
}

impl Dealer {
    fn new(ranges: Vec<Range<usize>>) -> Self {
        Dealer {
            cursor: AtomicUsize::new(0),
            floor: AtomicUsize::new(usize::MAX),
            best: AtomicU64::new(u64::MAX),
            examined: ranges.iter().map(|_| AtomicU64::new(0)).collect(),
            ranges,
        }
    }

    /// Fold the exact search's finds: the least cost wins and ties go
    /// to the earlier slice — the first least-cost candidate in
    /// enumeration order, exactly what the sequential search returns.
    /// Everything examined in slices after the floor slice lay past the
    /// proven optimum — work the sequential search never does — and
    /// counts as discarded.
    fn merge(&self, found: Vec<Found>) -> Option<ScoredStrategy> {
        let best = found
            .into_iter()
            .flatten()
            .min_by_key(|(s, slice)| (s.cost, *slice))
            .map(|(s, _)| s);
        let floor = self.floor.load(Ordering::Relaxed);
        let discarded: u64 = self
            .examined
            .iter()
            .skip(floor.saturating_add(1))
            .map(|e| e.load(Ordering::Relaxed))
            .sum();
        bbncg_obs::counter_add(Counter::RoundsDiscards, discarded);
        best
    }
}

impl Slices for &Dealer {
    fn next(&mut self) -> Option<(usize, Range<usize>)> {
        let slice = self.cursor.fetch_add(1, Ordering::Relaxed);
        (slice < self.ranges.len() && !self.floor_before(slice))
            .then(|| (slice, self.ranges[slice].clone()))
    }

    fn floor_before(&self, slice: usize) -> bool {
        self.floor.load(Ordering::Relaxed) < slice
    }

    fn done(&mut self, slice: usize, examined: u64, floor: bool) {
        self.examined[slice].store(examined, Ordering::Relaxed);
        if floor {
            self.floor.fetch_min(slice, Ordering::Relaxed);
        }
    }

    fn shared_best(&self) -> u64 {
        self.best.load(Ordering::Relaxed)
    }

    fn publish(&mut self, cost: u64) {
        self.best.fetch_min(cost, Ordering::Relaxed);
    }
}

/// Split the `b`-subsets of an `m`-element pool, enumerated in
/// lexicographic order, into at most `shards` contiguous stretches of
/// near-equal count. Each stretch is a range of leading (smallest)
/// elements; `k` leads exactly `C(m−1−k, b−1)` subsets. The ranges are
/// non-empty, ascending and cover `0..m−b+1`; the lone empty subset
/// (`b = 0`) leads with 0 and is never split.
pub(crate) fn lead_ranges(m: usize, b: usize, shards: usize) -> Vec<Range<usize>> {
    if b > m {
        return Vec::new();
    }
    let leads = if b == 0 { 1 } else { m - b + 1 };
    let shards = shards.clamp(1, leads);
    let total = enumeration_count(m, b) as u128;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    // Subsets led by elements before `k`, accumulated as k advances.
    let mut before = 0u128;
    let mut k = 0;
    for s in 1..shards {
        let target = total * s as u128 / shards as u128;
        // Leave at least one lead for each remaining stretch.
        let last = leads - (shards - s);
        while k < last && (k <= start || before < target) {
            before += enumeration_count(m - 1 - k, b - 1) as u128;
            k += 1;
        }
        ranges.push(start..k);
        start = k;
    }
    ranges.push(start..leads);
    ranges
}

/// Split `0..len` into at most `shards` contiguous, non-empty ranges
/// whose lengths differ by at most one.
pub(crate) fn even_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    (0..shards)
        .map(|s| len * s / shards..len * (s + 1) / shards)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CombinationOdometer;

    #[test]
    fn labels_roundtrip() {
        for e in [
            RoundExecutor::Sequential,
            RoundExecutor::Sharded,
            RoundExecutor::Auto,
        ] {
            assert_eq!(RoundExecutor::parse(e.label()), Ok(e));
            assert_eq!(format!("{e}"), e.label());
        }
        assert!(RoundExecutor::parse("warp").is_err());
        // The label of the executor sharding replaced.
        assert_eq!(
            RoundExecutor::parse("speculative"),
            Ok(RoundExecutor::Sharded)
        );
    }

    #[test]
    fn auto_resolves_by_size_and_threads() {
        // Explicit choices are size-independent.
        assert_eq!(
            RoundExecutor::Sequential.resolve(10_000),
            RoundExecutor::Sequential
        );
        assert_eq!(RoundExecutor::Sharded.resolve(2), RoundExecutor::Sharded);
        let resolved = RoundExecutor::Auto.resolve(512);
        let host_cpus = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if bbncg_par::max_threads() > 1 && host_cpus > 1 {
            assert_eq!(resolved, RoundExecutor::Sharded);
        } else {
            assert_eq!(resolved, RoundExecutor::Sequential);
        }
    }

    #[test]
    fn auto_requires_real_host_parallelism() {
        let auto = RoundExecutor::Auto;
        // The happy path: a budget, CPUs, not nested.
        assert_eq!(auto.resolve_with(64, 8, 8, false), RoundExecutor::Sharded);
        // A `--threads 8` budget on a single-CPU host must NOT shard:
        // the shards would time-slice one core.
        assert_eq!(
            auto.resolve_with(64, 8, 1, false),
            RoundExecutor::Sequential
        );
        // Nor with a single-thread budget on a many-CPU host, nor
        // inside an outer parallel worker, nor with nothing to split.
        assert_eq!(
            auto.resolve_with(64, 1, 8, false),
            RoundExecutor::Sequential
        );
        assert_eq!(auto.resolve_with(64, 8, 8, true), RoundExecutor::Sequential);
        assert_eq!(auto.resolve_with(2, 8, 8, false), RoundExecutor::Sequential);
        // Explicit choices ignore the environment entirely.
        assert_eq!(
            RoundExecutor::Sharded.resolve_with(2, 1, 1, true),
            RoundExecutor::Sharded
        );
        assert_eq!(
            RoundExecutor::Sequential.resolve_with(64, 8, 8, false),
            RoundExecutor::Sequential
        );
    }

    /// Every `b`-subset of the pool, for the range tests below.
    fn all_subsets(m: usize, b: usize) -> Vec<Vec<usize>> {
        let mut od = CombinationOdometer::new(m, b);
        let mut all = vec![od.indices().to_vec()];
        while od.advance() {
            all.push(od.indices().to_vec());
        }
        all
    }

    #[test]
    fn lead_ranges_cover_every_subset_exactly_once() {
        for b in 0..=3 {
            for m in b..12 {
                let all = all_subsets(m, b);
                for shards in 1..6 {
                    let ranges = lead_ranges(m, b, shards);
                    assert!(!ranges.is_empty() && ranges.len() <= shards);
                    // Walk each range the way a slice does.
                    let mut walked = Vec::new();
                    for leads in &ranges {
                        assert!(!leads.is_empty(), "m {m} b {b} shards {shards}");
                        let mut od = CombinationOdometer::from_lead(m, b, leads.start);
                        loop {
                            walked.push(od.indices().to_vec());
                            if !od.advance() || od.lead() >= leads.end {
                                break;
                            }
                        }
                    }
                    assert_eq!(walked, all, "m {m} b {b} shards {shards}");
                }
            }
        }
    }

    #[test]
    fn lead_ranges_balance_counts() {
        // b = 2 over 40 elements: lead k carries 39 − k subsets, so
        // equal-width lead ranges would be badly skewed; equal-count
        // ranges stay within one lead's worth of the mean.
        let (m, b) = (40, 2);
        for shards in 2..5 {
            let ranges = lead_ranges(m, b, shards);
            assert_eq!(ranges.len(), shards);
            let mean = enumeration_count(m, b) / shards as u64;
            for leads in ranges {
                let count: u64 = leads.map(|k| enumeration_count(m - 1 - k, b - 1)).sum();
                assert!(count.abs_diff(mean) <= m as u64, "{count} vs {mean}");
            }
        }
        // b = 1: one subset per lead.
        assert_eq!(lead_ranges(10, 1, 2), vec![0..5, 5..10]);
    }

    /// Deals a fixed run of `dealer`'s slices to one engine, shares the
    /// dealer's bound only when `share` is set, and logs every cost the
    /// engine publishes.
    struct Scripted<'a> {
        dealer: &'a Dealer,
        deal: Range<usize>,
        share: bool,
        published: Vec<u64>,
    }

    impl<'a> Scripted<'a> {
        fn new(dealer: &'a Dealer, deal: Range<usize>, share: bool) -> Self {
            Scripted {
                dealer,
                deal,
                share,
                published: Vec::new(),
            }
        }
    }

    impl Slices for Scripted<'_> {
        fn next(&mut self) -> Option<(usize, Range<usize>)> {
            let slice = self.deal.next()?;
            Some((slice, self.dealer.ranges[slice].clone()))
        }

        fn floor_before(&self, slice: usize) -> bool {
            self.dealer.floor_before(slice)
        }

        fn done(&mut self, slice: usize, examined: u64, floor: bool) {
            let mut dealer = self.dealer;
            dealer.done(slice, examined, floor);
        }

        fn shared_best(&self) -> u64 {
            if self.share {
                self.dealer.shared_best()
            } else {
                u64::MAX
            }
        }

        fn publish(&mut self, cost: u64) {
            self.published.push(cost);
            if self.share {
                let mut dealer = self.dealer;
                dealer.publish(cost);
            }
        }
    }

    /// Player 0 owns arcs to 1 and 2 of a 16-cycle whose vertices each
    /// own the arc to their successor. Two targets 7, 8 or 9 steps
    /// apart are 0's SUM optimum, so equal-cost optima lie in every
    /// slice of the exact search, cut in two or in three.
    fn chorded_cycle() -> Realization {
        let mut arcs = vec![(0, 1), (0, 2)];
        arcs.extend((1..=16).map(|i| (i, i % 16 + 1)));
        Realization::new(bbncg_graph::OwnedDigraph::from_arcs(17, &arcs))
    }

    type ScriptedSearch = fn(&mut DeviationScratch, &Realization, u64, &mut Scripted) -> Found;

    fn exact(e: &mut DeviationScratch, r: &Realization, ceiling: u64, s: &mut Scripted) -> Found {
        exact_best_over(e, r, NodeId::new(0), CostModel::Sum, ceiling, s)
    }

    /// One two-engine split replayed on one thread: engine B prices
    /// every slice after the first, then engine A the first slice.
    struct Replay {
        merged: Option<ScoredStrategy>,
        found_b: Found,
        published_a: Vec<u64>,
        /// Candidates engine A priced to the end.
        completed_a: u64,
    }

    fn replay(
        kernel: CostKernel,
        ranges: &[Range<usize>],
        search: ScriptedSearch,
        share: bool,
    ) -> Replay {
        let r = chorded_cycle();
        let u = NodeId::new(0);
        let current = current_cost(&mut DeviationScratch::new(&r), &r, u, CostModel::Sum);
        let dealer = Dealer::new(ranges.to_vec());
        let mut on_b = Scripted::new(&dealer, 1..ranges.len(), share);
        let found_b = search(
            &mut DeviationScratch::with_kernel(&r, kernel),
            &r,
            current,
            &mut on_b,
        );
        let mut a = DeviationScratch::with_kernel(&r, kernel);
        let mut on_a = Scripted::new(&dealer, 0..1, share);
        let found_a = search(&mut a, &r, current, &mut on_a);
        Replay {
            merged: dealer.merge(vec![found_a, found_b.clone()]),
            found_b,
            published_a: on_a.published,
            completed_a: a.priced_to_completion(),
        }
    }

    /// The shared bound, replayed deterministically: engine B's find in
    /// a later slice is published before engine A prices the first.
    #[test]
    fn shared_bound_keeps_ties_and_skips_costlier_candidates() {
        let r = chorded_cycle();
        let u = NodeId::new(0);
        for kernel in [CostKernel::Bitset, CostKernel::Sparse] {
            let mut whole = DeviationScratch::with_kernel(&r, kernel);
            let whole = exact_best_improvement(&mut whole, &r, u, CostModel::Sum);
            // Two slices, and three, where engine B prices two slices in
            // turn and finds its optimum in the first of them.
            let cases = [
                ("two slices", lead_ranges(16, 2, 2)),
                ("three slices", lead_ranges(16, 2, 3)),
            ];
            for (name, ranges) in cases {
                let search = exact as ScriptedSearch;
                let ctx = format!("{name} on {kernel:?}");
                let whole = whole.clone().expect("player 0 can improve");
                let shared = replay(kernel, &ranges, search, true);
                let alone = replay(kernel, &ranges, search, false);
                // B's find is a later optimum; A's earlier one ties the
                // cost B published and still wins the merge.
                let (b, slice) = shared.found_b.expect("slice 1 holds an optimum");
                assert_eq!((b.cost, slice), (whole.cost, 1), "{ctx}");
                assert_ne!(b.targets, whole.targets, "{ctx}");
                assert_eq!(shared.merged.as_ref(), Some(&whole), "{ctx}");
                assert_eq!(alone.merged.as_ref(), Some(&whole), "{ctx}");
                // Counter guard: sharing, A finishes fewer pricings.
                assert!(
                    shared.completed_a < alone.completed_a,
                    "{ctx}: {} vs {}",
                    shared.completed_a,
                    alone.completed_a
                );
                // Sharing, A finds nothing costlier than B's published
                // cost; alone, it first improves through costlier ones.
                assert_eq!(shared.published_a, [whole.cost], "{ctx}");
                assert!(alone.published_a[0] > whole.cost, "{ctx}");
            }
        }
    }

    thread_local! {
        /// Set on the thread a pool test posts from; helpers see `false`.
        static CALLER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// A helper's panic reaches the caller with its own payload, after
    /// every helper has reported, and the pool's threads still join.
    #[test]
    fn a_helper_panic_propagates_with_its_payload() {
        CALLER.set(true);
        let state = RwLock::new(chorded_cycle());
        let panic = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let r = state.read().expect("nothing writes");
                let mut scratch = DeviationScratch::new(&r);
                let mut shards = Shards::new(scope, &state, CostKernel::Auto, true);
                let u = NodeId::new(0);
                let current = current_cost(&mut scratch, &r, u, CostModel::Sum);
                shards.split(
                    &mut scratch,
                    &r,
                    (u, CostModel::Sum),
                    even_ranges(8, 4),
                    |_, _, job| {
                        let mut slices = &job.dealer;
                        while slices.next().is_some() {}
                        if !CALLER.get() {
                            panic!("helper gave up on player {}", job.player);
                        }
                        Share::Exact(None)
                    },
                    current,
                )
            })
        }))
        .expect_err("the helper panicked");
        let msg = panic.downcast_ref::<String>().map(String::as_str);
        assert!(msg.is_some_and(|m| m.contains("helper gave up")), "{msg:?}");
    }

    /// The spin-or-park rule, on any host: spin only when every engine
    /// has a CPU of its own.
    #[test]
    fn pools_spin_only_when_every_engine_has_a_cpu() {
        // Two engines (one helper) on two CPUs: both can spin.
        assert!(spins(2, 2));
        assert!(spins(2, 8));
        assert!(spins(8, 8));
        // `--threads 8` on a 2-CPU host, or any pool on one CPU: a
        // spinning waiter would steal the CPU its partner needs.
        assert!(!spins(8, 2));
        assert!(!spins(3, 2));
        assert!(!spins(2, 1));
    }

    #[test]
    fn even_ranges_partition() {
        for len in 0..20 {
            for shards in 1..6 {
                let ranges = even_ranges(len, shards);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>());
                if len > 0 {
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                }
            }
        }
    }
}
