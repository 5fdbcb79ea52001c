//! Round-executor parity enforcement.
//!
//! The sharded executor splits each activation's candidate space into
//! slices priced on separate engines and merges the slice optima. It
//! must be **step-identical** to the sequential executor for every
//! rule/order/kernel/model combination — same moves, same step and
//! round counts, same convergence/cycle verdicts, same final profile,
//! same per-round traces — and both must match a reference that prices
//! every candidate by rebuilding the profile from scratch. Slice
//! boundaries and thread count may only move wall-clock, never an
//! answer.
//!
//! With every budget at most 1, activations on one engine take their
//! candidates' costs from the closed form under either model, while an
//! explicit split still prices them on the kernels: the unit-budget
//! tests below hold both paths to the same reference.
//!
//! The counter checks are exact: each expected count is the activations
//! of a run minus those the engine's quiet memo skips, which follow
//! from the reference trajectory's move positions ([`skipped`],
//! [`performed`]); a split also needs its player above the Lemma 2.2
//! floor, which the reference reads off each profile it meets.

use bbncg_core::dynamics::{
    run_dynamics_traced, run_dynamics_with_kernel, run_dynamics_with_scratch, DynamicsConfig,
    DynamicsReport, PlayerOrder, ResponseRule,
};
use bbncg_core::naive::run_dynamics_rebuild;
use bbncg_core::{
    audit_equilibrium_with_opts, CombinationOdometer, CostKernel, CostModel, DeviationScratch,
    Realization, RoundExecutor,
};
use bbncg_graph::{generators, NodeId, OwnedDigraph};
use bbncg_obs::Counter;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Random realization whose budget vector includes zeros and twos, so
/// draws mix budget sizes, braces, and (often) disconnection.
fn random_instance(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 3).collect();
    Realization::new(generators::random_realization(&budgets, &mut rng))
}

const RULES: [ResponseRule; 4] = [
    ResponseRule::ExactBest,
    ResponseRule::FirstImproving,
    ResponseRule::Greedy,
    ResponseRule::BestSwap,
];

const KERNELS: [CostKernel; 3] = [CostKernel::Queue, CostKernel::Bitset, CostKernel::Sparse];

/// The obs counters are process-global, so every test here that runs
/// dynamics or prices on a kernel holds this lock: a counter delta
/// read under it belongs to the run that produced it.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    let guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    bbncg_obs::enable();
    guard
}

fn sharded_activations() -> u64 {
    bbncg_obs::counter_value(Counter::RoundsEvals)
}

fn skips() -> u64 {
    bbncg_obs::counter_value(Counter::DynamicsSkips)
}

fn closed_form_activations() -> u64 {
    bbncg_obs::counter_value(Counter::ClosedFormActivations)
}

/// `[base BFS, priced on queue, priced on bitset, priced on sparse]`:
/// the counters that move only when a session prices on a kernel.
fn kernel_work() -> [u64; 4] {
    [
        Counter::KernelBaseBfs,
        Counter::KernelPricedQueue,
        Counter::KernelPricedBitset,
        Counter::KernelPricedSparse,
    ]
    .map(bbncg_obs::counter_value)
}

/// Random realization with every budget 0 or 1: about one player in
/// six owns nothing (a pendant when someone points at it, a tree root
/// either way), and a player an earlier one points at often points
/// back (a brace). Most draws start disconnected.
fn random_unit_instance(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for x in 0..n {
        if rng.gen_range(0..6usize) == 0 {
            continue;
        }
        let back = (0..x).find(|&y| out[y] == [NodeId::new(x)]);
        let t = match back {
            Some(y) if rng.gen_bool(0.5) => y,
            _ => {
                let t = rng.gen_range(0..n - 1);
                t + usize::from(t >= x)
            }
        };
        out[x].push(NodeId::new(t));
    }
    Realization::new(OwnedDigraph::from_out_lists(out))
}

/// The activations a fresh engine's quiet memo skips in a run whose
/// activations, in order, were `log` (each player with whether it
/// moved), among the players `counted` picks: an activation is skipped
/// when the player's last activation found no move and nobody has
/// moved since. Moves so far stand in for the profile's version.
fn skipped(log: &[(NodeId, bool)], counted: impl Fn(NodeId) -> bool) -> u64 {
    let mut moves = 0u64;
    let mut quiet = HashMap::new();
    let mut skips = 0;
    for &(u, moved) in log {
        if moved {
            moves += 1;
        } else if quiet.insert(u, moves) == Some(moves) && counted(u) {
            skips += 1;
        }
    }
    skips
}

/// The activation log of round-robin rounds from consecutive round-end
/// profiles: a player moves at most once a round, and a move changes
/// its strategy.
fn round_robin_log(profiles: &[Realization]) -> Vec<(NodeId, bool)> {
    profiles
        .windows(2)
        .flat_map(|w| {
            (0..w[0].n()).map(move |u| {
                let u = NodeId::new(u);
                (u, w[0].strategy(u) != w[1].strategy(u))
            })
        })
        .collect()
}

/// Which activations of `reference` a fresh engine's quiet memo leaves
/// to price: the player's last activation found a move, or somebody
/// moved since.
fn performed(reference: &Reference) -> impl Iterator<Item = (NodeId, bool)> + '_ {
    let mut moves = 0u64;
    let mut quiet = HashMap::new();
    reference
        .log
        .iter()
        .zip(&reference.floor)
        .filter_map(move |(&(u, moved), &floor)| {
            if moved {
                moves += 1;
                return Some((u, floor));
            }
            (quiet.insert(u, moves) != Some(moves)).then_some((u, floor))
        })
}

/// Activations of a run over a unit-budget `initial` that the closed
/// form settles, under either model: every activation of a one-arc
/// player the quiet memo leaves to price, except the exact and swap ones
/// an explicit `Sharded` run splits onto the kernels (first-improving
/// and greedy price on the caller's engine under every executor). A
/// split activation whose player sits at the Lemma 2.2 floor posts no
/// job: the caller's engine settles it, in closed form.
fn expected_closed_form(
    initial: &Realization,
    rule: ResponseRule,
    executor: RoundExecutor,
    reference: &Reference,
) -> u64 {
    let split = matches!(rule, ResponseRule::ExactBest | ResponseRule::BestSwap);
    let one_arc = |u: NodeId| initial.graph().out_degree(u) == 1;
    let sharded = executor == RoundExecutor::Sharded && split;
    performed(reference)
        .filter(|&(u, floor)| one_arc(u) && (floor || !sharded))
        .count() as u64
}

/// Activations an explicit-`Sharded` run splits: every exact or swap
/// activation with two or more slices (exact: at least two leading
/// elements, `n − b ≥ 2`; swap: `b·n ≥ 2` pairs always split) that the
/// quiet memo leaves to price and whose player is above the Lemma 2.2
/// floor (a player at the floor is settled before any job is posted).
fn expected_splits(initial: &Realization, rule: ResponseRule, reference: &Reference) -> u64 {
    let n = initial.n();
    let splits = |u: NodeId| {
        let b = initial.graph().out_degree(u);
        match rule {
            ResponseRule::ExactBest => b >= 1 && n - b >= 2,
            ResponseRule::BestSwap => b >= 1,
            _ => false,
        }
    };
    performed(reference)
        .filter(|&(u, floor)| splits(u) && !floor)
        .count() as u64
}

/// Is `u`'s current cost at the Lemma 2.2 floor of its strategies: at
/// most `b + distinct in-neighbours` vertices at distance 1, every other
/// one at distance 2 or more?
fn at_floor(r: &Realization, u: NodeId, model: CostModel) -> bool {
    let n = r.n();
    let b = r.strategy(u).len();
    let distinct_in = (0..n)
        .filter(|&v| r.strategy(NodeId::new(v)).contains(&u))
        .count();
    let near = (b + distinct_in).min(n - 1);
    let floor = match model {
        CostModel::Sum => (near + 2 * (n - 1 - near)) as u64,
        CostModel::Max if near == n - 1 => 1,
        CostModel::Max => 2,
    };
    rebuilt_cost(r, u, r.strategy(u), model) <= floor
}

/// Cost to `u` of playing `targets` (any length — the greedy rule
/// prices prefixes), by rebuilding the whole profile.
fn rebuilt_cost(r: &Realization, u: NodeId, targets: &[NodeId], model: CostModel) -> u64 {
    let mut g: OwnedDigraph = r.graph().clone();
    g.set_out(u, targets.to_vec());
    Realization::new(g).cost(u, model)
}

/// The `b`-subsets of `pool` in lexicographic order.
fn subsets(pool: &[NodeId], b: usize) -> Vec<Vec<NodeId>> {
    let mut od = CombinationOdometer::new(pool.len(), b);
    let mut all = Vec::new();
    loop {
        all.push(od.indices().iter().map(|&i| pool[i]).collect());
        if !od.advance() {
            return all;
        }
    }
}

/// One activation of the reference: the same rules, enumeration orders
/// and tie-breaks as the engine, every candidate priced from scratch.
fn reference_response(
    r: &Realization,
    u: NodeId,
    rule: ResponseRule,
    model: CostModel,
) -> Option<Vec<NodeId>> {
    let current = r.strategy(u).to_vec();
    let b = current.len();
    if b == 0 {
        return None;
    }
    let now = rebuilt_cost(r, u, &current, model);
    let pool: Vec<NodeId> = (0..r.n()).map(NodeId::new).filter(|&t| t != u).collect();
    let cost = |targets: &[NodeId]| rebuilt_cost(r, u, targets, model);
    match rule {
        ResponseRule::ExactBest => {
            let mut best: Option<(u64, Vec<NodeId>)> = None;
            for s in subsets(&pool, b) {
                let c = cost(&s);
                if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    best = Some((c, s));
                }
            }
            best.filter(|(c, _)| *c < now).map(|(_, s)| s)
        }
        ResponseRule::FirstImproving => subsets(&pool, b).into_iter().find(|s| cost(s) < now),
        ResponseRule::Greedy => {
            let mut chosen: Vec<NodeId> = Vec::new();
            for _ in 0..b {
                let mut best: Option<(u64, NodeId)> = None;
                for &t in pool.iter().filter(|t| !chosen.contains(t)) {
                    let mut trial = chosen.clone();
                    trial.push(t);
                    let c = cost(&trial);
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, t));
                    }
                }
                chosen.push(best.expect("a target remains").1);
            }
            chosen.sort_unstable();
            (cost(&chosen) < now).then_some(chosen)
        }
        ResponseRule::BestSwap => {
            let mut best = None;
            let mut incumbent = now;
            for i in 0..b {
                for &t in pool.iter().filter(|t| !current.contains(t)) {
                    let mut trial = current.clone();
                    trial[i] = t;
                    let c = cost(&trial);
                    if c < incumbent {
                        incumbent = c;
                        trial.sort_unstable();
                        best = Some(trial);
                    }
                }
            }
            best
        }
    }
}

/// A run of the reference dynamics.
struct Reference {
    state: Realization,
    steps: usize,
    rounds: usize,
    converged: bool,
    cycled: bool,
    /// Every activation in order: the player, and whether it moved.
    log: Vec<(NodeId, bool)>,
    /// Per activation: the player's current cost sat at the Lemma 2.2
    /// floor.
    floor: Vec<bool>,
}

impl Reference {
    /// Does `run` end as the reference does?
    fn matches(&self, run: &DynamicsReport) -> Result<(), TestCaseError> {
        prop_assert_eq!(&run.state, &self.state);
        prop_assert_eq!(run.steps, self.steps);
        prop_assert_eq!(run.rounds, self.rounds);
        prop_assert_eq!(run.converged, self.converged);
        prop_assert_eq!(run.cycled, self.cycled);
        Ok(())
    }
}

/// The reference dynamics: the engine's round structure, activation
/// order (the same RNG stream shuffles random permutations) and
/// stopping rules, every activation priced from scratch.
fn reference_dynamics(initial: Realization, cfg: DynamicsConfig, rng: &mut StdRng) -> Reference {
    let n = initial.n();
    let mut state = initial;
    let mut seen = vec![state.graph().clone()];
    let mut order: Vec<usize> = (0..n).collect();
    let (mut steps, mut rounds) = (0, 0);
    let (mut log, mut floor) = (Vec::new(), Vec::new());
    let (converged, cycled) = loop {
        if rounds >= cfg.max_rounds {
            break (false, false);
        }
        if cfg.order == PlayerOrder::RandomPermutation {
            order.shuffle(rng);
        }
        let mut moves = 0;
        for &i in &order {
            let u = NodeId::new(i);
            floor.push(!state.strategy(u).is_empty() && at_floor(&state, u, cfg.model));
            let reply = reference_response(&state, u, cfg.rule, cfg.model);
            log.push((u, reply.is_some()));
            if let Some(targets) = reply {
                state.set_strategy(u, targets);
                moves += 1;
            }
        }
        rounds += 1;
        steps += moves;
        if moves == 0 {
            break (true, false);
        }
        if cfg.order == PlayerOrder::RoundRobin {
            if seen.contains(state.graph()) {
                break (false, true);
            }
            seen.push(state.graph().clone());
        }
    };
    Reference {
        state,
        steps,
        rounds,
        converged,
        cycled,
        log,
        floor,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded ≡ sequential ≡ the rebuild reference for all four rules
    /// × all three kernels × both models × both activation orders, on
    /// random (often disconnected, brace-rich) instances. Random
    /// permutations use the same seeded RNG everywhere, so every run
    /// sees the identical order stream. Explicit `Sharded` splits every
    /// exact and swap activation with two or more slices, even on a
    /// one-thread budget; the sharded-activation counter proves the
    /// split-and-merge path ran.
    #[test]
    fn sharded_rounds_are_step_identical(n in 3usize..12, seed in 0u64..200) {
        let _lock = counting();
        let initial = random_instance(n, seed);
        for model in CostModel::ALL {
            for rule in RULES {
                for order in [PlayerOrder::RoundRobin, PlayerOrder::RandomPermutation] {
                    let cfg = DynamicsConfig {
                        rule,
                        order,
                        ..DynamicsConfig::exact(model, 80)
                    };
                    let reference =
                        reference_dynamics(initial.clone(), cfg, &mut StdRng::seed_from_u64(7));
                    for kernel in KERNELS {
                        let seq = run_dynamics_with_kernel(
                            initial.clone(),
                            cfg.with_executor(RoundExecutor::Sequential),
                            &mut StdRng::seed_from_u64(7),
                            kernel,
                        );
                        let (before, skips_before) = (sharded_activations(), skips());
                        let sharded = run_dynamics_with_kernel(
                            initial.clone(),
                            cfg.with_executor(RoundExecutor::Sharded),
                            &mut StdRng::seed_from_u64(7),
                            kernel,
                        );
                        prop_assert_eq!(
                            sharded_activations() - before,
                            expected_splits(&initial, rule, &reference)
                        );
                        prop_assert_eq!(skips() - skips_before, skipped(&reference.log, |_| true));
                        reference.matches(&seq)?;
                        prop_assert_eq!(&seq.state, &sharded.state);
                        prop_assert_eq!(seq.steps, sharded.steps);
                        prop_assert_eq!(seq.rounds, sharded.rounds);
                        prop_assert_eq!(seq.converged, sharded.converged);
                        prop_assert_eq!(seq.cycled, sharded.cycled);
                        prop_assert_eq!(seq.cancelled, sharded.cancelled);
                    }
                }
            }
        }
    }

    /// Unit budgets (every budget 0 or 1: braces, budget-0 pendants,
    /// disconnected starts) under SUM and MAX: one engine prices in
    /// closed form and an explicit split prices on the kernels, and both
    /// equal the rebuild reference for both models × all four rules ×
    /// both orders × all three kernels. The closed-form counter moves by one per sequential
    /// activation of a one-arc player and stays put on split ones.
    /// Kernel session state is built only when a kernel prices: a
    /// sequential run moves no base-BFS or kernel-priced counter under
    /// any kernel, while a split run on sparse opens base BFSs.
    #[test]
    fn unit_budget_dynamics_match_the_reference(n in 3usize..16, seed in 0u64..1_000_000) {
        let _lock = counting();
        let initial = random_unit_instance(n, seed);
        for (model, rule) in CostModel::ALL.into_iter().flat_map(|m| RULES.map(|r| (m, r))) {
            for order in [PlayerOrder::RoundRobin, PlayerOrder::RandomPermutation] {
                let cfg = DynamicsConfig {
                    rule,
                    order,
                    ..DynamicsConfig::exact(model, 80)
                };
                let reference =
                    reference_dynamics(initial.clone(), cfg, &mut StdRng::seed_from_u64(7));
                for kernel in KERNELS {
                    for executor in [RoundExecutor::Sequential, RoundExecutor::Sharded] {
                        let before = closed_form_activations();
                        let work_before = kernel_work();
                        let run = run_dynamics_with_kernel(
                            initial.clone(),
                            cfg.with_executor(executor),
                            &mut StdRng::seed_from_u64(7),
                            kernel,
                        );
                        let work = kernel_work();
                        prop_assert_eq!(
                            closed_form_activations() - before,
                            expected_closed_form(&initial, rule, executor, &reference)
                        );
                        if executor == RoundExecutor::Sequential {
                            prop_assert!(
                                work == work_before,
                                "{} {:?} {:?}: {:?} -> {:?}",
                                kernel,
                                model,
                                rule,
                                work_before,
                                work
                            );
                        } else if kernel == CostKernel::Sparse
                            && expected_splits(&initial, rule, &reference) > 0
                        {
                            prop_assert!(work[0] > work_before[0], "{:?} {:?}: no base BFS", model, rule);
                        }
                        reference.matches(&run)?;
                    }
                }
            }
        }
    }

    /// The player-sharded audit and the serial single-engine audit
    /// return identical per-player numbers (hence identical verdicts,
    /// gaps and violation lists) under both kernels.
    #[test]
    fn audit_is_executor_independent(n in 3usize..10, seed in 0u64..200) {
        // Audits price on the kernels: hold the lock so the kernel
        // counters other tests read move only under their own runs.
        let _lock = counting();
        let r = random_instance(n, seed);
        for model in CostModel::ALL {
            for kernel in [CostKernel::Queue, CostKernel::Bitset] {
                let serial =
                    audit_equilibrium_with_opts(&r, model, kernel, RoundExecutor::Sequential);
                let batched =
                    audit_equilibrium_with_opts(&r, model, kernel, RoundExecutor::Sharded);
                prop_assert_eq!(&serial.current, &batched.current);
                prop_assert_eq!(&serial.best, &batched.best);
                prop_assert_eq!(serial.is_nash(), batched.is_nash());
                prop_assert_eq!(serial.gap(), batched.gap());
            }
        }
    }
}

/// Sharded exact-best dynamics matches the crate's rebuild-per-candidate
/// reference move for move — the same anchor the engine and the kernels
/// are pinned to.
#[test]
fn sharded_dynamics_match_naive_reference() {
    let _lock = counting();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets = vec![1usize; 8];
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        for model in CostModel::ALL {
            let cfg = DynamicsConfig::exact(model, 100).with_executor(RoundExecutor::Sharded);
            let sharded = run_dynamics_with_kernel(
                initial.clone(),
                cfg,
                &mut StdRng::seed_from_u64(0),
                CostKernel::Auto,
            );
            let (naive_state, naive_steps, naive_converged) =
                run_dynamics_rebuild(initial.clone(), model, 100);
            assert_eq!(sharded.state, naive_state, "seed {seed} {model:?}");
            assert_eq!(sharded.steps, naive_steps);
            assert_eq!(sharded.converged, naive_converged);
        }
    }
}

/// The fixed-seed n = 128 unit-budget exact SUM trajectory (seed
/// `0xAB0`) priced in closed form under every kernel matches the
/// rebuild-per-candidate reference round for round: each player moves
/// at most once a round, so equal profiles after every round mean
/// equal moves. The rounds run one per call on one engine, whose quiet
/// memo skips exactly what it would skip within one run.
#[test]
fn closed_form_trajectory_matches_the_rebuild_reference() {
    let _lock = counting();
    const N: usize = 128;
    let model = CostModel::Sum;
    let mut rng = StdRng::seed_from_u64(0xAB0);
    let start = Realization::new(generators::random_realization(&[1; N], &mut rng));
    let mut reference = vec![start.clone()];
    let mut reference_steps = Vec::new();
    loop {
        let last = reference.last().expect("starts non-empty").clone();
        let (next, steps, converged) = run_dynamics_rebuild(last, model, 1);
        reference.push(next);
        reference_steps.push(steps);
        assert!(reference_steps.len() < 50, "reference did not converge");
        if converged {
            break;
        }
    }
    assert!(
        reference_steps.iter().sum::<usize>() > N / 2,
        "want a trajectory that moves"
    );
    // One engine runs every round, so its quiet memo carries from call
    // to call, as within one run.
    let memo_skips = skipped(&round_robin_log(&reference), |_| true);
    assert!(memo_skips > 0, "want a trajectory the memo shortens");
    let one_round = DynamicsConfig::exact(model, 1).with_executor(RoundExecutor::Sequential);
    for kernel in KERNELS {
        let (before, skips_before) = (closed_form_activations(), skips());
        let mut scratch = DeviationScratch::with_kernel(&start, kernel);
        let mut state = start.clone();
        for (round, (want, &want_steps)) in reference[1..].iter().zip(&reference_steps).enumerate()
        {
            let report = run_dynamics_with_scratch(
                state,
                one_round,
                &mut StdRng::seed_from_u64(0),
                &mut scratch,
            );
            assert_eq!(report.steps, want_steps, "{kernel} round {round}: steps");
            assert_eq!(&report.state, want, "{kernel} round {round}: profile");
            assert_eq!(report.converged, want_steps == 0, "{kernel} round {round}");
            state = report.state;
        }
        // Dropping the engine flushes its last session's tallies.
        drop(scratch);
        assert_eq!(
            closed_form_activations() - before,
            (N * reference_steps.len()) as u64 - memo_skips,
            "{kernel}: every activation the memo left priced in closed form"
        );
        assert_eq!(skips() - skips_before, memo_skips, "{kernel}: skips");
    }
}

/// A player whose current cost sits at the Lemma 2.2 floor posts no
/// split: on a profile where everyone does — the complete graph on nine
/// vertices, each player owning the arcs to the next four — an
/// explicit-`Sharded` round opens exactly one session per player, the
/// caller's, and no helper opens any.
#[test]
fn players_at_the_floor_post_no_split() {
    let _lock = counting();
    let n = 9;
    let arcs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (1..=4).map(move |k| (u, (u + k) % n)))
        .collect();
    let initial = Realization::new(OwnedDigraph::from_arcs(n, &arcs));
    for model in CostModel::ALL {
        for rule in [ResponseRule::ExactBest, ResponseRule::BestSwap] {
            let cfg = DynamicsConfig {
                rule,
                ..DynamicsConfig::exact(model, 1)
            }
            .with_executor(RoundExecutor::Sharded);
            for kernel in KERNELS {
                let sessions = bbncg_obs::counter_value(Counter::KernelSessions);
                let splits = sharded_activations();
                let run = run_dynamics_with_kernel(
                    initial.clone(),
                    cfg,
                    &mut StdRng::seed_from_u64(0),
                    kernel,
                );
                let ctx = format!("{model:?} {rule:?} {kernel}");
                assert!(run.converged && run.steps == 0, "{ctx}");
                assert_eq!(sharded_activations() - splits, 0, "{ctx}");
                assert_eq!(
                    bbncg_obs::counter_value(Counter::KernelSessions) - sessions,
                    n as u64,
                    "{ctx}: sessions"
                );
            }
        }
    }
}

/// Equal-cost optima on both sides of every slice boundary: the tie
/// must go to the earliest slice, as the sequential search's
/// lexicographic tie-break demands.
#[test]
fn tied_optima_across_slices_go_to_the_earliest() {
    let _lock = counting();
    // Player 0 (budget 1) hangs off pendant 1 (budget 0); players
    // 2..=9 form a directed cycle. Every cycle vertex is an equally
    // good SUM target for player 0 and beats the pendant, so whatever
    // the slice count, tied optima sit in several slices and the
    // lexicographically first one — vertex 2 — must win.
    let m = 8;
    let mut arcs = vec![(0, 1)];
    arcs.extend((0..m).map(|i| (2 + i, 2 + (i + 1) % m)));
    let initial = Realization::new(OwnedDigraph::from_arcs(m + 2, &arcs));
    let cfg = DynamicsConfig::exact(CostModel::Sum, 1);
    for kernel in KERNELS {
        let seq = run_dynamics_with_kernel(
            initial.clone(),
            cfg.with_executor(RoundExecutor::Sequential),
            &mut StdRng::seed_from_u64(0),
            kernel,
        );
        let before = sharded_activations();
        let sharded = run_dynamics_with_kernel(
            initial.clone(),
            cfg.with_executor(RoundExecutor::Sharded),
            &mut StdRng::seed_from_u64(0),
            kernel,
        );
        assert!(sharded_activations() > before, "{kernel:?}: nothing split");
        assert_eq!(sharded.state.strategy(NodeId::new(0)), &[NodeId::new(2)]);
        assert_eq!(seq.state, sharded.state, "{kernel:?}");
    }
}

/// `Auto` splits only the activations whose candidate work clears
/// `SHARD_MIN_WORK` — and only where it resolves to sharded at all
/// (more than one thread on a multi-CPU host).
#[test]
fn auto_shards_only_activations_worth_splitting() {
    let _lock = counting();
    for (n, splits) in [(64, 0), (260, 4)] {
        // Swap over b·n pairs of n-vertex pricing each. At n = 64 every
        // activation is far below the threshold; at n = 260 the four
        // budget-2 players (2·260² = 135200 units) clear it and the four
        // budget-1 players (260² = 67600) do not. Everyone else owns
        // nothing and never activates.
        let budgets: Vec<usize> = (0..n).map(|i| [2, 1, 0][(i / 4).min(2)]).collect();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        let cfg = DynamicsConfig::swap(CostModel::Sum, 1);
        let seq = run_dynamics_with_kernel(
            initial.clone(),
            cfg.with_executor(RoundExecutor::Sequential),
            &mut StdRng::seed_from_u64(0),
            CostKernel::Auto,
        );
        let (before, skips_before) = (sharded_activations(), skips());
        let auto = run_dynamics_with_kernel(
            initial.clone(),
            cfg.with_executor(RoundExecutor::Auto),
            &mut StdRng::seed_from_u64(0),
            CostKernel::Auto,
        );
        // The run's one round on a fresh engine has no quiet verdict to
        // repeat: the memo skips nothing.
        let log = round_robin_log(&[initial.clone(), seq.state.clone()]);
        let budget_2 = |u: NodeId| initial.graph().out_degree(u) == 2;
        let skipped_splits = skipped(&log, budget_2);
        assert_eq!(skips() - skips_before, skipped(&log, |_| true), "n {n}");
        let sharded = RoundExecutor::Auto.resolve(n) == RoundExecutor::Sharded;
        let want = if sharded { splits - skipped_splits } else { 0 };
        assert_eq!(sharded_activations() - before, want, "n {n}");
        assert_eq!(seq.state, auto.state);
        assert_eq!(seq.steps, auto.steps);
    }
}

/// Per-round traces are executor-independent too: every round commits
/// the same number of moves and lands on the same social cost, so the
/// executors agree round by round, not only at the end.
#[test]
fn traces_agree_round_by_round() {
    let _lock = counting();
    for seed in [2u64, 9, 23] {
        let initial = random_instance(10, seed);
        for model in CostModel::ALL {
            let cfg = DynamicsConfig::exact(model, 60);
            let (seq_rep, seq_trace) = run_dynamics_traced(
                initial.clone(),
                cfg.with_executor(RoundExecutor::Sequential),
                &mut StdRng::seed_from_u64(1),
            );
            let (sharded_rep, sharded_trace) = run_dynamics_traced(
                initial.clone(),
                cfg.with_executor(RoundExecutor::Sharded),
                &mut StdRng::seed_from_u64(1),
            );
            assert_eq!(seq_rep.state, sharded_rep.state, "seed {seed} {model:?}");
            assert_eq!(seq_trace, sharded_trace, "seed {seed} {model:?}");
        }
    }
}

/// A medium swap instance (the scalable large-n configuration):
/// step-identity holds for explicit sharding, and `Auto` — however it
/// resolves on this host — lands on the same trajectory.
#[test]
fn medium_swap_instance_is_step_identical() {
    let _lock = counting();
    let mut rng = StdRng::seed_from_u64(5);
    let budgets = vec![1usize; 72];
    let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
    let cfg = DynamicsConfig::swap(CostModel::Sum, 40);
    let run = |executor| {
        run_dynamics_with_kernel(
            initial.clone(),
            cfg.with_executor(executor),
            &mut StdRng::seed_from_u64(0),
            CostKernel::Auto,
        )
    };
    let seq = run(RoundExecutor::Sequential);
    let sharded = run(RoundExecutor::Sharded);
    let auto = run(RoundExecutor::Auto);
    assert_eq!(seq.state, sharded.state);
    assert_eq!(seq.steps, sharded.steps);
    assert_eq!(seq.rounds, sharded.rounds);
    assert_eq!(seq.converged, sharded.converged);
    assert_eq!(seq.state, auto.state);
    assert_eq!(seq.steps, auto.steps);
}

/// Brace-dense instances: budget 2 everywhere gives plenty of braces and
/// multiplicity-only rewires under the swap rule, and the trajectory
/// must still be identical.
#[test]
fn brace_rich_instances_stay_identical() {
    let _lock = counting();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let budgets = vec![2usize; 9];
        let initial = Realization::new(generators::random_realization(&budgets, &mut rng));
        for model in CostModel::ALL {
            for rule in [ResponseRule::BestSwap, ResponseRule::Greedy] {
                let cfg = DynamicsConfig {
                    rule,
                    ..DynamicsConfig::exact(model, 60)
                };
                let seq = run_dynamics_with_kernel(
                    initial.clone(),
                    cfg.with_executor(RoundExecutor::Sequential),
                    &mut StdRng::seed_from_u64(3),
                    CostKernel::Queue,
                );
                let sharded = run_dynamics_with_kernel(
                    initial.clone(),
                    cfg.with_executor(RoundExecutor::Sharded),
                    &mut StdRng::seed_from_u64(3),
                    CostKernel::Queue,
                );
                assert_eq!(seq.state, sharded.state, "seed {seed} {model:?} {rule:?}");
                assert_eq!(seq.steps, sharded.steps);
                assert_eq!(seq.rounds, sharded.rounds);
            }
        }
    }
}
