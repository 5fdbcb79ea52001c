//! Best-response dynamics.
//!
//! The paper's concluding section asks: *if the game starts from an
//! arbitrary position and players keep improving, does it converge to an
//! equilibrium, and how fast?* (Laoutaris et al. exhibit a best-response
//! loop in the directed variant.) This module implements the dynamics
//! lab used to study that question empirically: configurable player
//! order, response rule, and iteration budget, with state-hash cycle
//! detection.
//!
//! A **round** activates each player once (in the configured order); a
//! **step** is one applied deviation. The dynamics has *converged* when
//! a complete round passes with no player able to strictly improve —
//! which is exactly the Nash condition for the `Best`/`FirstImproving`
//! rules and the swap-equilibrium condition for `BestSwap`.
//!
//! # The quiet memo
//!
//! An activation's decision is a function of the profile, the player,
//! the model and the rule alone: kernels are move-for-move equivalent,
//! executors are step-identical, and no rule draws from the rng. So a
//! player whose last activation found no move, on the very profile it
//! faces now, would find none again. The caller's [`DeviationScratch`]
//! keeps, per player, the profile version (`Realization::version`) and
//! the `(model, rule)` of its last "no move" verdict (`QuietMemo`);
//! an activation that matches it is skipped — no session opens, no
//! split is posted, nothing is priced — and still counts toward its
//! round. A version names one content history (`new` and every
//! `set_strategy` draw a fresh one, clones share it), so a skip is
//! exact: trajectories, reports, checkpoints and record streams are
//! unchanged. In a converging round-robin run, the final quiet round
//! activates only the players up to the previous round's last mover;
//! the memo lives as long as the engine, so a run split into one-round
//! calls on one engine skips the same activations.
//!
//! A round-robin run reports `cycled` when a round ends on a profile an
//! earlier round ended on. [`ProfileHistory`] keeps those profiles and
//! confirms every hash hit against the stored profile, so a 64-bit
//! hash collision cannot pass for a cycle.

use crate::cancel::CancelToken;
use crate::cost::CostModel;
use crate::deviation::DeviationScratch;
use crate::realization::Realization;
use crate::round::{respond, PoolTally, RoundExecutor, Shards};
use bbncg_graph::{NodeId, OwnedDigraph};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Order in which players are activated within a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlayerOrder {
    /// `0, 1, …, n−1` every round (deterministic).
    RoundRobin,
    /// A fresh uniform permutation each round.
    RandomPermutation,
}

/// What move an activated player makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseRule {
    /// Exact best response (exponential per activation; small instances).
    ExactBest,
    /// First strictly improving strategy in lexicographic order
    /// ("better-response dynamics"; same convergence criterion as
    /// `ExactBest`, cheaper when improvements abound).
    FirstImproving,
    /// Greedy-heuristic response; applied only when it strictly improves.
    Greedy,
    /// Best single-arc swap (polynomial; the scalable rule).
    BestSwap,
}

/// Dynamics configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicsConfig {
    /// Cost model being played.
    pub model: CostModel,
    /// Activation order.
    pub order: PlayerOrder,
    /// Move rule.
    pub rule: ResponseRule,
    /// Stop after this many rounds even without convergence.
    pub max_rounds: usize,
    /// How activations inside a round are executed
    /// ([`RoundExecutor`]). Executors are step-identical — this knob
    /// moves wall-clock, never trajectories, reports or checkpoints.
    pub executor: RoundExecutor,
}

impl DynamicsConfig {
    /// Round-robin exact best response under `model`, bounded rounds.
    pub fn exact(model: CostModel, max_rounds: usize) -> Self {
        DynamicsConfig {
            model,
            order: PlayerOrder::RoundRobin,
            rule: ResponseRule::ExactBest,
            max_rounds,
            executor: RoundExecutor::Auto,
        }
    }

    /// Round-robin best-swap dynamics under `model`.
    pub fn swap(model: CostModel, max_rounds: usize) -> Self {
        DynamicsConfig {
            model,
            order: PlayerOrder::RoundRobin,
            rule: ResponseRule::BestSwap,
            max_rounds,
            executor: RoundExecutor::Auto,
        }
    }

    /// This config with a different [`RoundExecutor`].
    pub fn with_executor(mut self, executor: RoundExecutor) -> Self {
        self.executor = executor;
        self
    }
}

/// Outcome of a dynamics run.
#[derive(Clone, Debug)]
pub struct DynamicsReport {
    /// Final profile.
    pub state: Realization,
    /// Did a full round pass with no improving move?
    pub converged: bool,
    /// Number of applied deviations.
    pub steps: usize,
    /// Number of completed rounds.
    pub rounds: usize,
    /// Was a previously seen profile revisited? (Only tracked for
    /// deterministic round-robin order, where revisiting proves a cycle
    /// — the answer to the paper's §8 convergence question is "no" for
    /// that trajectory.)
    pub cycled: bool,
    /// Was the run stopped early by a [`CancelToken`]? A cancelled run
    /// reports `converged = false` and leaves `state` at the last
    /// completed round, so it can be checkpointed and resumed.
    pub cancelled: bool,
}

fn profile_hash(g: &OwnedDigraph) -> u64 {
    let mut h = DefaultHasher::new();
    g.hash(&mut h);
    h.finish()
}

/// The round-end profiles of one run, for cycle detection. A profile
/// is reported as seen only after it compares equal to a stored one
/// with the same hash, so a hash collision never passes for a revisit.
/// Every profile of a run has the same out-degree sequence (a move
/// never changes a budget), so each is stored as one flat list of
/// targets in player order: `O(rounds × arcs)` memory.
pub struct ProfileHistory {
    hash: fn(&OwnedDigraph) -> u64,
    /// The out-degree sequence of every stored profile.
    budgets: Vec<usize>,
    /// The flat target lists of the stored profiles, by hash.
    seen: HashMap<u64, Vec<Vec<NodeId>>>,
}

impl Default for ProfileHistory {
    fn default() -> Self {
        ProfileHistory::with_hash(profile_hash)
    }
}

impl ProfileHistory {
    /// An empty history that buckets profiles by `hash` (the default
    /// is a 64-bit `DefaultHasher` of the digraph). Any function is
    /// correct, a constant one included: it only decides which stored
    /// profiles a new one is compared with.
    pub fn with_hash(hash: fn(&OwnedDigraph) -> u64) -> Self {
        ProfileHistory {
            hash,
            budgets: Vec::new(),
            seen: HashMap::new(),
        }
    }

    /// Store `g`'s profile; `false` when an equal profile was stored
    /// before.
    ///
    /// # Panics
    /// Panics if `g`'s out-degree sequence differs from that of the
    /// first profile stored: a history holds the profiles of one
    /// instance.
    pub fn insert(&mut self, g: &OwnedDigraph) -> bool {
        let budgets = g.out_degrees();
        assert!(
            self.seen.is_empty() || budgets == self.budgets,
            "a profile history holds the profiles of one instance"
        );
        self.budgets = budgets;
        let flat: Vec<NodeId> = (0..g.n())
            .flat_map(|u| g.out(NodeId::new(u)).iter().copied())
            .collect();
        let bucket = self.seen.entry((self.hash)(g)).or_default();
        if bucket.contains(&flat) {
            return false;
        }
        bucket.push(flat);
        true
    }
}

/// One player's last "no move" verdict: the profile version it was
/// reached on, and the model and rule that reached it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Quiet {
    version: u64,
    model: CostModel,
    rule: ResponseRule,
}

impl Quiet {
    fn of(r: &Realization, cfg: &DynamicsConfig) -> Self {
        Quiet {
            version: r.version(),
            model: cfg.model,
            rule: cfg.rule,
        }
    }
}

/// Per-player memo of the last "no move" verdict of a dynamics
/// activation (see the module docs). It lives in the caller's
/// [`DeviationScratch`], empty until the engine's first dynamics
/// verdict sizes it, and a rebuild of the engine for another instance
/// size clears it. A mover's entry is left as it was: it names an
/// older version, which no later profile carries.
#[derive(Debug, Default)]
pub(crate) struct QuietMemo {
    verdicts: Vec<Option<Quiet>>,
}

impl QuietMemo {
    /// Did `u`'s last activation under `cfg`'s model and rule find no
    /// move on exactly this profile?
    fn holds(&self, r: &Realization, u: NodeId, cfg: &DynamicsConfig) -> bool {
        self.verdicts.get(u.index()) == Some(&Some(Quiet::of(r, cfg)))
    }

    /// Record that `u` found no move on `r` under `cfg`.
    fn record(&mut self, r: &Realization, u: NodeId, cfg: &DynamicsConfig) {
        if self.verdicts.len() != r.n() {
            self.verdicts.clear();
            self.verdicts.resize(r.n(), None);
        }
        self.verdicts[u.index()] = Some(Quiet::of(r, cfg));
    }
}

/// One row of a dynamics trace: the state of the world after a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// Round number (1-based; round 0 records the initial state).
    pub round: usize,
    /// Social cost (diameter, `n²` when disconnected) after the round.
    pub social_diameter: u64,
    /// Sum of all players' costs after the round (utilitarian welfare;
    /// **not** guaranteed monotone — the game is not a potential game
    /// in any obvious sense, and the trace lets experiments watch it).
    pub total_cost: u64,
    /// Deviations applied during the round.
    pub improvements: usize,
}

/// Run the dynamics from `initial` until convergence, a detected cycle,
/// or `cfg.max_rounds`.
///
/// ```
/// use bbncg_core::dynamics::{run_dynamics, DynamicsConfig};
/// use bbncg_core::{is_nash_equilibrium, CostModel, Realization};
/// use bbncg_graph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let start = Realization::new(generators::path(6));
/// let report = run_dynamics(start, DynamicsConfig::exact(CostModel::Sum, 100), &mut rng);
/// assert!(report.converged);
/// assert!(is_nash_equilibrium(&report.state, CostModel::Sum));
/// ```
pub fn run_dynamics(
    initial: Realization,
    cfg: DynamicsConfig,
    rng: &mut impl Rng,
) -> DynamicsReport {
    let mut scratch = DeviationScratch::new(&initial);
    run_dynamics_impl(
        initial,
        cfg,
        rng,
        &mut scratch,
        None,
        None,
        ProfileHistory::default(),
    )
    .0
}

/// [`run_dynamics`] with an explicit [`CostKernel`](crate::CostKernel)
/// pricing every candidate. Kernels are move-for-move equivalent, so
/// the trajectory, step count and final profile are kernel-independent
/// (enforced by `tests/kernel_parity.rs`); only throughput differs.
pub fn run_dynamics_with_kernel(
    initial: Realization,
    cfg: DynamicsConfig,
    rng: &mut impl Rng,
    kernel: crate::CostKernel,
) -> DynamicsReport {
    let mut scratch = DeviationScratch::with_kernel(&initial, kernel);
    run_dynamics_impl(
        initial,
        cfg,
        rng,
        &mut scratch,
        None,
        None,
        ProfileHistory::default(),
    )
    .0
}

/// [`run_dynamics`] that also records a per-round [`RoundTrace`]
/// (including a row for the initial state).
pub fn run_dynamics_traced(
    initial: Realization,
    cfg: DynamicsConfig,
    rng: &mut impl Rng,
) -> (DynamicsReport, Vec<RoundTrace>) {
    let mut trace = Vec::new();
    let mut scratch = DeviationScratch::new(&initial);
    let report = run_dynamics_impl(
        initial,
        cfg,
        rng,
        &mut scratch,
        Some(&mut trace),
        None,
        ProfileHistory::default(),
    )
    .0;
    (report, trace)
}

/// [`run_dynamics`] with a caller-owned deviation engine — the phase-
/// boundary hook for orchestrators that run many dynamics phases (or
/// many seeds per worker) over evolving state. The engine re-syncs to
/// `initial` by diffing on first use, so passing a scratch left over
/// from another same-`n` profile is both safe and cheap; a size change
/// triggers one transparent rebuild. Trajectories are identical to
/// [`run_dynamics`] for identical inputs.
pub fn run_dynamics_with_scratch(
    initial: Realization,
    cfg: DynamicsConfig,
    rng: &mut impl Rng,
    scratch: &mut DeviationScratch,
) -> DynamicsReport {
    run_dynamics_impl(
        initial,
        cfg,
        rng,
        scratch,
        None,
        None,
        ProfileHistory::default(),
    )
    .0
}

/// [`run_dynamics_with_scratch`] that additionally polls a
/// [`CancelToken`] at every round boundary. When the token fires the
/// run stops after the round in flight, reporting
/// `cancelled = true, converged = false` with the state of the last
/// completed round — a consistent profile that can be frozen into a
/// checkpoint and resumed later. An un-cancelled token changes nothing:
/// the trajectory is identical to [`run_dynamics_with_scratch`].
pub fn run_dynamics_with_scratch_cancellable(
    initial: Realization,
    cfg: DynamicsConfig,
    rng: &mut impl Rng,
    scratch: &mut DeviationScratch,
    cancel: &CancelToken,
) -> DynamicsReport {
    run_dynamics_impl(
        initial,
        cfg,
        rng,
        scratch,
        None,
        Some(cancel),
        ProfileHistory::default(),
    )
    .0
}

fn snapshot(
    state: &Realization,
    cfg: DynamicsConfig,
    round: usize,
    improvements: usize,
) -> RoundTrace {
    RoundTrace {
        round,
        social_diameter: state.social_diameter(),
        total_cost: state.costs(cfg.model).iter().sum(),
        improvements,
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// A whole round passed without a move.
    Converged,
    /// A round ended on a profile seen at an earlier round's end.
    Cycled,
    /// The cancel token fired before a round.
    Cancelled,
    /// `max_rounds` rounds ran.
    RoundCap,
}

/// The run's profile, read under the guard its lock hands out. Only a
/// panic while a move is written poisons the lock, and that panic ends
/// the run.
fn read(state: &RwLock<Realization>) -> RwLockReadGuard<'_, Realization> {
    state.read().expect("a poisoned profile ends the run")
}

fn write(state: &RwLock<Realization>) -> RwLockWriteGuard<'_, Realization> {
    state.write().expect("a poisoned profile ends the run")
}

/// The dynamics loop behind every public entry point, plus what the
/// sharded executor's helper pool did ([`PoolTally`]; all zero when
/// the run stayed sequential or never split). A round-robin run
/// records its round-end profiles in `history`.
fn run_dynamics_impl(
    initial: Realization,
    cfg: DynamicsConfig,
    rng: &mut impl Rng,
    scratch: &mut DeviationScratch,
    mut trace: Option<&mut Vec<RoundTrace>>,
    cancel: Option<&CancelToken>,
    mut history: ProfileHistory,
) -> (DynamicsReport, PoolTally) {
    let n = initial.n();
    let mut steps = 0usize;
    let mut rounds = 0usize;
    let track_cycles = cfg.order == PlayerOrder::RoundRobin;
    if track_cycles {
        history.insert(initial.graph());
    }
    if let Some(t) = trace.as_deref_mut() {
        t.push(snapshot(&initial, cfg, 0, 0));
    }
    let mut order: Vec<usize> = (0..n).collect();
    // The profile sits behind a lock for the sharded executor's helper
    // threads, which read it while they price a split; the caller reads
    // it for each activation and writes each move in between. The
    // scope joins the helpers before the run returns.
    let state = RwLock::new(initial);
    let (end, tally) = std::thread::scope(|scope| {
        // The executor is resolved once per run; Auto consults the
        // thread budget here, at run start. Either verdict traces the
        // identical trajectory (round executors are step-identical by
        // construction — see `crate::round`), so resolution timing is a
        // perf detail. A sharded run starts its helper threads at its
        // first split and stops them when `shards` drops, at the end of
        // this closure or while a panic unwinds it.
        let mut shards = (cfg.executor.resolve(n) == RoundExecutor::Sharded).then(|| {
            Shards::new(
                scope,
                &state,
                scratch.kernel(),
                cfg.executor == RoundExecutor::Sharded,
            )
        });
        // One deviation engine for the whole run: each activation syncs
        // it to `state`, at most one move past it, so it compares the
        // last mover alone and patches O(1) edges; no candidate pricing
        // ever rebuilds the undirected view. The helpers' engines sync
        // on the jobs they price (see `Shards`).
        let end = loop {
            if rounds >= cfg.max_rounds {
                break End::RoundCap;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                break End::Cancelled;
            }
            if cfg.order == PlayerOrder::RandomPermutation {
                order.shuffle(rng);
            }
            let (mut round_improvements, mut skips) = (0usize, 0u64);
            for &i in &order {
                let u = NodeId::new(i);
                let now = read(&state);
                // A player quiet on exactly this profile under this
                // model and rule stays quiet: skip it (module docs).
                if scratch.quiet.holds(&now, u, &cfg) {
                    skips += 1;
                    continue;
                }
                match respond(scratch, shards.as_mut(), &now, u, &cfg) {
                    None => scratch.quiet.record(&now, u, &cfg),
                    Some(targets) => {
                        drop(now);
                        write(&state).set_strategy(u, targets);
                        steps += 1;
                        round_improvements += 1;
                    }
                }
            }
            rounds += 1;
            bbncg_obs::counter_inc(bbncg_obs::Counter::DynamicsRounds);
            bbncg_obs::counter_add(bbncg_obs::Counter::DynamicsSkips, skips);
            bbncg_obs::counter_add(bbncg_obs::Counter::DynamicsSteps, round_improvements as u64);
            if let Some(t) = trace.as_deref_mut() {
                t.push(snapshot(&read(&state), cfg, rounds, round_improvements));
            }
            if round_improvements == 0 {
                break End::Converged;
            }
            if track_cycles && !history.insert(read(&state).graph()) {
                break End::Cycled;
            }
        };
        let tally = shards
            .as_ref()
            .map_or_else(PoolTally::default, Shards::tally);
        (end, tally)
    });
    let report = DynamicsReport {
        state: state.into_inner().expect("a poisoned profile ends the run"),
        converged: end == End::Converged,
        steps,
        rounds,
        cycled: end == End::Cycled,
        cancelled: end == End::Cancelled,
    };
    (report, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{is_nash_equilibrium, is_swap_equilibrium};
    use bbncg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_converges_to_equilibrium_sum() {
        let initial = Realization::new(generators::path(6));
        let mut rng = StdRng::seed_from_u64(1);
        let report = run_dynamics(initial, DynamicsConfig::exact(CostModel::Sum, 50), &mut rng);
        assert!(report.converged);
        assert!(is_nash_equilibrium(&report.state, CostModel::Sum));
        assert!(report.steps > 0);
    }

    #[test]
    fn path_converges_to_equilibrium_max() {
        let initial = Realization::new(generators::path(6));
        let mut rng = StdRng::seed_from_u64(2);
        let report = run_dynamics(initial, DynamicsConfig::exact(CostModel::Max, 50), &mut rng);
        assert!(report.converged);
        assert!(is_nash_equilibrium(&report.state, CostModel::Max));
    }

    #[test]
    fn equilibrium_is_a_fixed_point() {
        // Star: already an equilibrium; dynamics must converge in one
        // round with zero steps.
        let initial = Realization::new(generators::star(6));
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_dynamics(
            initial.clone(),
            DynamicsConfig::exact(CostModel::Sum, 10),
            &mut rng,
        );
        assert!(report.converged);
        assert_eq!(report.steps, 0);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.state, initial);
    }

    #[test]
    fn swap_dynamics_reaches_swap_equilibrium() {
        let mut rng = StdRng::seed_from_u64(4);
        let budgets = vec![1usize; 8];
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        let report = run_dynamics(initial, DynamicsConfig::swap(CostModel::Sum, 100), &mut rng);
        assert!(report.converged);
        assert!(is_swap_equilibrium(&report.state, CostModel::Sum));
    }

    #[test]
    fn random_order_also_converges_on_unit_budgets() {
        let mut rng = StdRng::seed_from_u64(5);
        let budgets = vec![1usize; 7];
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        let cfg = DynamicsConfig {
            model: CostModel::Max,
            order: PlayerOrder::RandomPermutation,
            rule: ResponseRule::ExactBest,
            max_rounds: 100,
            executor: RoundExecutor::Auto,
        };
        let report = run_dynamics(initial, cfg, &mut rng);
        assert!(report.converged);
        assert!(is_nash_equilibrium(&report.state, CostModel::Max));
    }

    #[test]
    fn first_improving_rule_converges_to_nash() {
        let mut rng = StdRng::seed_from_u64(8);
        let budgets = vec![1usize; 8];
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        let cfg = DynamicsConfig {
            model: CostModel::Sum,
            order: PlayerOrder::RoundRobin,
            rule: ResponseRule::FirstImproving,
            max_rounds: 300,
            executor: RoundExecutor::Auto,
        };
        let report = run_dynamics(initial, cfg, &mut rng);
        assert!(report.converged);
        assert!(is_nash_equilibrium(&report.state, CostModel::Sum));
    }

    #[test]
    fn trace_records_rounds_and_final_state() {
        let initial = Realization::new(generators::path(6));
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = DynamicsConfig::exact(CostModel::Sum, 50);
        let (report, trace) = run_dynamics_traced(initial, cfg, &mut rng);
        assert!(report.converged);
        // One row per completed round plus the initial snapshot.
        assert_eq!(trace.len(), report.rounds + 1);
        assert_eq!(trace[0].round, 0);
        // Final snapshot matches the final state.
        let last = trace.last().unwrap();
        assert_eq!(last.social_diameter, report.state.social_diameter());
        assert_eq!(last.improvements, 0); // converged on a quiet round
                                          // Social diameter never gets worse than the start on this
                                          // instance (not a general law; a sanity anchor for the trace).
        assert!(last.social_diameter <= trace[0].social_diameter);
    }

    #[test]
    fn cancelled_token_stops_before_the_first_round() {
        let initial = Realization::new(generators::path(8));
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = DeviationScratch::new(&initial);
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = run_dynamics_with_scratch_cancellable(
            initial.clone(),
            DynamicsConfig::exact(CostModel::Sum, 100),
            &mut rng,
            &mut scratch,
            &cancel,
        );
        assert!(report.cancelled);
        assert!(!report.converged);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.steps, 0);
        assert_eq!(report.state, initial, "state untouched on early cancel");
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let initial = Realization::new(generators::path(6));
        let cfg = DynamicsConfig::exact(CostModel::Sum, 50);
        let mut rng_a = StdRng::seed_from_u64(1);
        let plain = run_dynamics(initial.clone(), cfg, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(1);
        let mut scratch = DeviationScratch::new(&initial);
        let tokened = run_dynamics_with_scratch_cancellable(
            initial,
            cfg,
            &mut rng_b,
            &mut scratch,
            &CancelToken::new(),
        );
        assert_eq!(plain.state, tokened.state);
        assert_eq!(plain.steps, tokened.steps);
        assert_eq!(plain.rounds, tokened.rounds);
        assert!(!tokened.cancelled);
    }

    /// One run through `run_dynamics_impl` with a fresh engine on the
    /// default kernel, returning what its helper pool did too.
    fn run_counting_spawns(
        initial: Realization,
        cfg: DynamicsConfig,
        rng: &mut impl Rng,
    ) -> (DynamicsReport, PoolTally) {
        let mut scratch = DeviationScratch::new(&initial);
        let history = ProfileHistory::default();
        run_dynamics_impl(initial, cfg, rng, &mut scratch, None, None, history)
    }

    fn random_start(budget: usize, n: usize, seed: u64) -> Realization {
        let mut rng = StdRng::seed_from_u64(seed);
        Realization::new(generators::random_realization(&vec![budget; n], &mut rng))
    }

    /// A run that splits many activations starts its helper pool once,
    /// at the first split, and keeps it: the same threads serve every
    /// later split.
    #[test]
    fn a_splitting_run_spawns_its_helpers_once() {
        let helpers = bbncg_par::max_threads().max(2) - 1;
        for (budget, rule) in [
            (2, ResponseRule::BestSwap),
            (2, ResponseRule::ExactBest),
            (1, ResponseRule::BestSwap),
        ] {
            let cfg = DynamicsConfig {
                rule,
                ..DynamicsConfig::swap(CostModel::Sum, 50)
            }
            .with_executor(RoundExecutor::Sharded);
            let start = random_start(budget, 16, 11);
            let (report, tally) = run_counting_spawns(start, cfg, &mut StdRng::seed_from_u64(1));
            let ctx = format!("budget {budget}, {rule:?}");
            assert!(report.converged, "{ctx}");
            assert!(tally.splits >= 2, "{ctx}: {tally:?}");
            assert_eq!(tally.spawned, helpers, "{ctx}");
        }
    }

    /// A run that never splits spawns no helper, though `Auto` may
    /// resolve to the sharded executor: unit budgets go to the closed
    /// form, and budget-2 activations at n = 64 stay below
    /// `SHARD_MIN_WORK` (2·64 swap pairs, or C(63, 2) subsets, times
    /// 64).
    #[test]
    fn a_run_that_never_splits_spawns_nothing() {
        for (budget, model, rule) in [
            (1, CostModel::Sum, ResponseRule::ExactBest),
            (1, CostModel::Sum, ResponseRule::BestSwap),
            (1, CostModel::Max, ResponseRule::ExactBest),
            (1, CostModel::Max, ResponseRule::BestSwap),
            (2, CostModel::Sum, ResponseRule::BestSwap),
            (2, CostModel::Sum, ResponseRule::ExactBest),
        ] {
            let cfg = DynamicsConfig {
                rule,
                ..DynamicsConfig::swap(model, 4)
            };
            assert_eq!(cfg.executor, RoundExecutor::Auto);
            let start = random_start(budget, 64, 12);
            let (report, tally) = run_counting_spawns(start, cfg, &mut StdRng::seed_from_u64(2));
            assert!(report.steps > 0, "budget {budget}, {model:?}, {rule:?}");
            assert_eq!(
                tally,
                PoolTally::default(),
                "budget {budget}, {model:?}, {rule:?}"
            );
        }
    }

    /// Draws from `rng` while `left` lasts, then panics: a fault on the
    /// caller's side at a known point of a run.
    struct Fuse {
        rng: StdRng,
        left: usize,
    }

    impl rand::RngCore for Fuse {
        fn next_u64(&mut self) -> u64 {
            assert!(self.left > 0, "fuse blown");
            self.left -= 1;
            self.rng.next_u64()
        }
    }

    /// A panic on the caller's side, after the helpers exist, unwinds
    /// out of the run: the executor stops and wakes its helpers as it
    /// drops, so the scope joins them instead of waiting forever.
    #[test]
    fn a_caller_panic_after_the_helpers_start_propagates() {
        let n = 16;
        let start = random_start(2, n, 13);
        let cfg = DynamicsConfig {
            order: PlayerOrder::RandomPermutation,
            ..DynamicsConfig::swap(CostModel::Sum, 50)
        }
        .with_executor(RoundExecutor::Sharded);
        // Round 1 alone: it splits, so the helpers start, and it moves,
        // so a second round would begin.
        let (first, tally) = run_counting_spawns(
            start.clone(),
            DynamicsConfig {
                max_rounds: 1,
                ..cfg
            },
            &mut StdRng::seed_from_u64(3),
        );
        assert!(first.steps > 0 && tally.splits > 0 && tally.spawned > 0);
        // The same run with the draws of round 1's shuffle only: the
        // caller panics at round 2's shuffle, helpers running.
        let mut fuse = Fuse {
            rng: StdRng::seed_from_u64(3),
            left: n - 1,
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_counting_spawns(start, cfg, &mut fuse)
        }))
        .expect_err("the fuse blew");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"fuse blown"));
    }

    /// A constant hash puts every profile in one bucket: only the
    /// stored profiles tell them apart.
    #[test]
    fn a_history_compares_profiles_behind_a_hash_hit() {
        let mut history = ProfileHistory::with_hash(|_| 7);
        let cycle = |step: usize| {
            let arcs: Vec<(usize, usize)> = (0..7).map(|v| (v, (v + step) % 7)).collect();
            OwnedDigraph::from_arcs(7, &arcs)
        };
        let profiles = [cycle(1), cycle(2), cycle(3)];
        for p in &profiles {
            assert!(history.insert(p), "a new profile is new");
        }
        for p in &profiles {
            assert!(!history.insert(p), "a stored profile is seen");
        }
    }

    #[test]
    #[should_panic(expected = "profiles of one instance")]
    fn a_history_refuses_another_instance() {
        let mut history = ProfileHistory::default();
        history.insert(&generators::path(5));
        history.insert(&generators::star(5));
    }

    /// Every round-end profile hashing alike must not pass for a cycle:
    /// a converging run keeps its verdicts and its trajectory.
    #[test]
    fn colliding_round_end_hashes_do_not_make_a_cycle() {
        for (budget, seed) in [(1, 22), (1, 24), (2, 20)] {
            let start = random_start(budget, 24, seed);
            let cfg = DynamicsConfig::exact(CostModel::Sum, 100);
            let run = |history| {
                let mut scratch = DeviationScratch::new(&start);
                let mut rng = StdRng::seed_from_u64(0);
                run_dynamics_impl(
                    start.clone(),
                    cfg,
                    &mut rng,
                    &mut scratch,
                    None,
                    None,
                    history,
                )
                .0
            };
            let plain = run(ProfileHistory::default());
            let colliding = run(ProfileHistory::with_hash(|_| 0));
            let ctx = format!("budget {budget}, seed {seed}");
            assert!(plain.converged && plain.rounds >= 3, "{ctx}: {plain:?}");
            assert!(!colliding.cycled, "{ctx}: a collision passed for a cycle");
            assert!(colliding.converged, "{ctx}");
            assert_eq!(colliding.state, plain.state, "{ctx}");
            assert_eq!(
                (colliding.steps, colliding.rounds),
                (plain.steps, plain.rounds),
                "{ctx}"
            );
        }
    }

    #[test]
    fn max_rounds_bounds_work() {
        let initial = Realization::new(generators::path(8));
        let mut rng = StdRng::seed_from_u64(6);
        let report = run_dynamics(initial, DynamicsConfig::exact(CostModel::Sum, 0), &mut rng);
        assert!(!report.converged);
        assert_eq!(report.rounds, 0);
    }
}
