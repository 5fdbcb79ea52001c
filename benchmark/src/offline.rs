//! The offline workloads: converging best-response trajectories
//! (`exact-sum-n512`, `swap-sum-n512`) and a fixed count of best-swap
//! activations at n = 16384 (`swap-sum-n16384`).

use crate::stats::{self, cpu_seconds, micros, percentile, ratio};
use crate::{install_memory_tracer, write_trace, Outcome};
use bbncg_core::{
    audit_equilibrium, best_swap_response_with, exact_best_response_with, is_swap_equilibrium,
    run_dynamics_with_scratch, CostKernel, CostModel, DeviationScratch, DynamicsConfig,
    Realization, ResponseRule, RoundExecutor,
};
use bbncg_graph::{generators, NodeId, OwnedDigraph};
use bbncg_obs::Counter;
use bbncg_scenario::state_hash;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The cost model of every offline workload.
const MODEL: CostModel = CostModel::Sum;

/// How many times each trajectory repeats its set-up. One set-up takes
/// under a millisecond, and on a shared host the speed of so short a
/// task flips between two levels from one millisecond to the next, so
/// `setup_s` is the median of repeats spread over the whole run rather
/// than bunched at its start.
const SETUP_REPEATS: usize = 4;

/// The same at n = 16384, where one set-up takes about half a second.
const BIG_SETUP_REPEATS: usize = 3;

/// A trajectory workload: dynamics from a uniformly random profile
/// until convergence, under the default kernel and executor.
pub struct TrajectoryWorkload {
    pub name: &'static str,
    pub n: usize,
    pub budget: usize,
    pub rule: ResponseRule,
    pub max_rounds: usize,
}

pub const EXACT_SUM_N512: TrajectoryWorkload = TrajectoryWorkload {
    name: "exact-sum-n512",
    n: 512,
    budget: 1,
    rule: ResponseRule::ExactBest,
    max_rounds: 64,
};

pub const SWAP_SUM_N512: TrajectoryWorkload = TrajectoryWorkload {
    name: "swap-sum-n512",
    n: 512,
    budget: 2,
    rule: ResponseRule::BestSwap,
    max_rounds: 64,
};

impl TrajectoryWorkload {
    fn config(&self) -> DynamicsConfig {
        match self.rule {
            ResponseRule::ExactBest => DynamicsConfig::exact(MODEL, self.max_rounds),
            _ => DynamicsConfig::swap(MODEL, self.max_rounds),
        }
    }

    /// The k-th start of a run, generated from scratch.
    fn start(&self, seed: u64, k: u64) -> Realization {
        relabel(&base_profile(self.n, self.budget), stats::mix(seed, k))
    }

    /// The output check: converged, and an equilibrium of the rule.
    fn check(&self, converged: bool, state: &Realization) -> bool {
        converged
            && match self.rule {
                ResponseRule::ExactBest => audit_equilibrium(state, MODEL).is_nash(),
                _ => is_swap_equilibrium(state, MODEL),
            }
    }
}

/// Seed of the base profile every start relabels.
const BASE_SEED: u64 = 0x0062_626e_6367;

/// The uniformly random profile every start relabels, drawn from
/// [`BASE_SEED`].
fn base_profile(n: usize, budget: usize) -> OwnedDigraph {
    generators::random_realization(&vec![budget; n], &mut StdRng::seed_from_u64(BASE_SEED))
}

/// `base` with its vertices relabelled by a permutation drawn from
/// `seed`: a start of a run.
///
/// The component structure of a random unit-budget profile does not
/// concentrate as n grows, and it sets most of the pricing cost: fresh
/// draws per seed moved n = 16384 throughput 2.7× between seeds. One
/// base up to isomorphism keeps that fixed, while the seed still
/// decides which players sit where in the round-robin order, and so
/// the whole trajectory.
fn relabel(base: &OwnedDigraph, seed: u64) -> Realization {
    let n = base.n();
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut out = vec![Vec::new(); n];
    for (u, &lu) in label.iter().enumerate() {
        out[lu] = base
            .out(NodeId::new(u))
            .iter()
            .map(|v| NodeId::new(label[v.index()]))
            .collect();
    }
    Realization::new(OwnedDigraph::from_out_lists(out))
}

/// Round-robin dynamics draws nothing from the rng; it is passed for
/// the signature only.
fn dynamics_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

/// Input generation and engine build, timed apart.
struct SetUp {
    state: Realization,
    scratch: DeviationScratch,
    generate: Duration,
    engine: Duration,
}

fn set_up(make: impl Fn() -> Realization) -> SetUp {
    let t0 = Instant::now();
    let state = make();
    let t1 = Instant::now();
    let scratch = DeviationScratch::new(&state);
    SetUp {
        state,
        scratch,
        generate: t1 - t0,
        engine: t1.elapsed(),
    }
}

/// Set-up times of a run, every repeat of every input's set-up.
#[derive(Default)]
struct SetUpTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    engine: Vec<f64>,
}

impl SetUpTimes {
    fn push(&mut self, s: &SetUp) {
        self.total.push((s.generate + s.engine).as_secs_f64());
        self.generate.push(s.generate.as_secs_f64());
        self.engine.push(s.engine.as_secs_f64());
    }

    fn report(&self, out: &mut Outcome) {
        out.set("setup_s", stats::setup_median(&self.total));
        out.set("setup.generate_s", stats::median(&self.generate));
        out.set("setup.engine_s", stats::median(&self.engine));
    }
}

/// What the untraced drive of one trajectory produced.
struct Trajectory {
    steps: usize,
    rounds: usize,
    converged: bool,
    hash: u64,
}

/// The untraced measurement: trajectories k = 0, 1, … until
/// `seconds` of dynamics have run (at least one).
struct Untraced {
    setups: SetUpTimes,
    /// `None` where the run panicked.
    trajectories: Vec<Option<Trajectory>>,
    timed: Duration,
    cpu: f64,
    activations: u64,
    failed: u64,
}

fn drive_untraced(w: &TrajectoryWorkload, seed: u64, seconds: f64) -> Untraced {
    let cfg = w.config();
    let mut u = Untraced {
        setups: SetUpTimes::default(),
        trajectories: Vec::new(),
        timed: Duration::ZERO,
        cpu: 0.0,
        activations: 0,
        failed: 0,
    };
    let mut spent = Duration::ZERO;
    while u.trajectories.is_empty() || spent.as_secs_f64() < seconds {
        let k = u.trajectories.len() as u64;
        let mut s = set_up(|| w.start(seed, k));
        u.setups.push(&s);
        for _ in 1..SETUP_REPEATS {
            s = set_up(|| w.start(seed, k));
            u.setups.push(&s);
        }
        let SetUp {
            state, mut scratch, ..
        } = s;
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_dynamics_with_scratch(state, cfg, &mut dynamics_rng(), &mut scratch)
        }));
        let dt = t0.elapsed();
        let dc = cpu_seconds() - c0;
        spent += dt;
        let Ok(report) = run else {
            u.failed += 1;
            u.trajectories.push(None);
            continue;
        };
        u.timed += dt;
        u.cpu += dc;
        u.activations += (report.rounds * w.n) as u64;
        println!(
            "# trajectory {k}: {} rounds, {} moves, {:.4} s",
            report.rounds,
            report.steps,
            dt.as_secs_f64()
        );
        let ok = catch_unwind(AssertUnwindSafe(|| {
            w.check(report.converged, &report.state)
        }))
        .unwrap_or(false);
        if !ok {
            u.failed += 1;
        }
        u.trajectories.push(Some(Trajectory {
            steps: report.steps,
            rounds: report.rounds,
            converged: report.converged,
            hash: state_hash(&report.state),
        }));
    }
    u
}

fn print_resolution(n: usize, executor: Option<RoundExecutor>) {
    let executor = executor.map_or("bypassed".to_string(), |e| e.resolve(n).to_string());
    println!(
        "# resolved kernel={} executor={executor}",
        CostKernel::Auto.resolve(n)
    );
}

/// `exact-sum-n512` and `swap-sum-n512`.
pub fn trajectories(w: &TrajectoryWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    print_resolution(w.n, Some(w.config().executor));
    // The traced run repeats a shorter untraced measurement first (for
    // the overhead ratio), then drives the same trajectories twice.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let u = drive_untraced(w, seed, budget);
    let mut out = Outcome {
        attempted: u.trajectories.len() as u64,
        failed: u.failed,
        ..Outcome::default()
    };
    u.setups.report(&mut out);
    // Trajectories, not activations, per second: a trajectory's time
    // barely moves with its round count, while its activation count
    // jumps by n for each extra (quiet) round.
    let completed = u.trajectories.iter().flatten().count() as f64;
    out.set("throughput_per_s", ratio(completed, u.timed.as_secs_f64()));
    Outcome::note(
        "cpu_ms_per_op",
        ratio(u.cpu * 1e3, completed),
        "ms",
        "(process CPU time per operation)",
    );
    Outcome::note(
        "activations_per_s",
        ratio(u.activations as f64, u.timed.as_secs_f64()),
        "1/s",
        &format!(
            "({} activations in {completed} trajectories, {:.3} s)",
            u.activations,
            u.timed.as_secs_f64()
        ),
    );
    if traced {
        trace_trajectories(w, seed, &u, &mut out);
    }
    out
}

/// Kernel counters read around a traced pass.
#[derive(Clone, Copy, Default)]
pub struct KernelCounts {
    sessions: u64,
    pub priced: u64,
    pub skips: u64,
    repairs: u64,
    base_repaired: u64,
    fallbacks: u64,
    aborts: u64,
    bound_hits: u64,
    bound_misses: u64,
}

impl KernelCounts {
    pub fn read() -> KernelCounts {
        let c = bbncg_obs::counter_value;
        KernelCounts {
            sessions: c(Counter::KernelSessions),
            priced: c(Counter::KernelPricedQueue)
                + c(Counter::KernelPricedBitset)
                + c(Counter::KernelPricedSparse),
            skips: c(Counter::KernelPruneSkipQueue)
                + c(Counter::KernelPruneSkipBitset)
                + c(Counter::KernelPruneSkipSparse),
            repairs: c(Counter::KernelSsspRepairs),
            base_repaired: c(Counter::KernelBaseRepaired),
            fallbacks: c(Counter::KernelRepairFallbacks),
            aborts: c(Counter::KernelPruneAbortSparse),
            bound_hits: c(Counter::KernelBoundCacheHits),
            bound_misses: c(Counter::KernelBoundCacheMisses),
        }
    }

    pub fn since(self, before: KernelCounts) -> KernelCounts {
        KernelCounts {
            sessions: self.sessions - before.sessions,
            priced: self.priced - before.priced,
            skips: self.skips - before.skips,
            repairs: self.repairs - before.repairs,
            base_repaired: self.base_repaired - before.base_repaired,
            fallbacks: self.fallbacks - before.fallbacks,
            aborts: self.aborts - before.aborts,
            bound_hits: self.bound_hits - before.bound_hits,
            bound_misses: self.bound_misses - before.bound_misses,
        }
    }

    /// The `kernel.*` metrics of a pass of `activations` activations
    /// that spent `busy` inside them.
    fn report(&self, activations: usize, busy: Duration, out: &mut Outcome) {
        let a = activations as f64;
        let attempts = (self.priced + self.skips) as f64;
        out.set("kernel.priced_per_activation", ratio(self.priced as f64, a));
        out.set("kernel.prune_ratio", ratio(self.skips as f64, attempts));
        out.set(
            "kernel.ns_per_priced",
            ratio(busy.as_nanos() as f64, self.priced as f64),
        );
        out.set(
            "kernel.base_repair_ratio",
            ratio(self.base_repaired as f64, self.sessions as f64),
        );
        out.set(
            "kernel.sssp_repairs_per_activation",
            ratio(self.repairs as f64, a),
        );
        out.set("kernel.repair_fallbacks", self.fallbacks as f64);
        out.set("kernel.abort_ratio", ratio(self.aborts as f64, attempts));
        out.set(
            "kernel.bound_cache_hit_ratio",
            ratio(
                self.bound_hits as f64,
                (self.bound_hits + self.bound_misses) as f64,
            ),
        );
    }
}

/// One activation of player `u`, the decision body a dynamics round
/// runs: the rule's response, then the strict-improvement gate priced
/// through the still-open session. `Some(targets)` iff `u` moves.
fn activate(
    scratch: &mut DeviationScratch,
    state: &Realization,
    u: NodeId,
    rule: ResponseRule,
) -> Option<Vec<NodeId>> {
    if state.graph().out_degree(u) == 0 {
        return None;
    }
    let candidate = match rule {
        ResponseRule::ExactBest => exact_best_response_with(scratch, state, u, MODEL),
        _ => best_swap_response_with(scratch, state, u, MODEL)?,
    };
    (candidate.cost < scratch.cost_of(state.strategy(u))).then_some(candidate.targets)
}

/// Pass A: the default-config trajectory one round per call. Returns
/// whether it reproduced `expect`, with per-round wall and CPU times.
struct PassA {
    same: bool,
    rounds: Vec<Duration>,
    cpu: f64,
    wall: Duration,
}

fn pass_a(w: &TrajectoryWorkload, seed: u64, k: usize, expect: &Trajectory) -> PassA {
    let cfg = w.config();
    let one_round = DynamicsConfig {
        max_rounds: 1,
        ..cfg
    };
    let mut state = w.start(seed, k as u64);
    let mut scratch = DeviationScratch::new(&state);
    let mut rng = dynamics_rng();
    let (mut steps, mut rounds, mut converged) = (0, 0, false);
    let mut durations = Vec::new();
    let mut cpu = 0.0;
    let trajectory = bbncg_obs::span("trajectory").field("traj", k);
    let t0 = Instant::now();
    while rounds < cfg.max_rounds {
        let span = bbncg_obs::span("round")
            .field("parent", "trajectory")
            .field("traj", k)
            .field("round", rounds + 1);
        let c0 = cpu_seconds();
        let t = Instant::now();
        let report = run_dynamics_with_scratch(state, one_round, &mut rng, &mut scratch);
        durations.push(t.elapsed());
        cpu += cpu_seconds() - c0;
        drop(span.field("moves", report.steps));
        steps += report.steps;
        rounds += report.rounds;
        state = report.state;
        if report.converged {
            converged = true;
            break;
        }
    }
    let wall = t0.elapsed();
    drop(trajectory.field("rounds", rounds).field("steps", steps));
    PassA {
        same: converged == expect.converged
            && steps == expect.steps
            && rounds == expect.rounds
            && state_hash(&state) == expect.hash,
        rounds: durations,
        cpu,
        wall,
    }
}

/// Pass B: the same trajectory one activation per call, each in an
/// `activation` span carrying the kernel counter deltas. Counters are
/// flushed when the next session opens, so a span's deltas belong to
/// the activation before it; the pass totals are exact.
struct PassB {
    same: bool,
    activations: Vec<f64>,
    moves: usize,
}

fn pass_b(w: &TrajectoryWorkload, seed: u64, k: usize, expect: &Trajectory) -> PassB {
    let mut state = w.start(seed, k as u64);
    let mut scratch = DeviationScratch::new(&state);
    let (mut steps, mut rounds, mut converged) = (0, 0, false);
    let mut activations = Vec::with_capacity(w.n * expect.rounds);
    while rounds < w.max_rounds {
        rounds += 1;
        let mut moves = 0;
        for i in 0..w.n {
            let u = NodeId::new(i);
            let before = KernelCounts::read();
            let span = bbncg_obs::span("activation")
                .field("parent", "round")
                .field("traj", k)
                .field("round", rounds)
                .field("player", i);
            let t = Instant::now();
            let moved = match activate(&mut scratch, &state, u, w.rule) {
                Some(targets) => {
                    state.set_strategy(u, targets);
                    true
                }
                None => false,
            };
            activations.push(micros(t.elapsed()));
            let d = KernelCounts::read().since(before);
            drop(
                span.field("moved", moved)
                    .field("priced", d.priced)
                    .field("pruned", d.skips),
            );
            moves += usize::from(moved);
        }
        steps += moves;
        if moves == 0 {
            converged = true;
            break;
        }
    }
    PassB {
        same: converged == expect.converged
            && steps == expect.steps
            && rounds == expect.rounds
            && state_hash(&state) == expect.hash,
        activations,
        moves: steps,
    }
}

fn trace_trajectories(w: &TrajectoryWorkload, seed: u64, u: &Untraced, out: &mut Outcome) {
    let records = install_memory_tracer();
    let round_counters = || {
        let c = bbncg_obs::counter_value;
        [
            c(Counter::RoundsEvals),
            c(Counter::RoundsCommits),
            c(Counter::RoundsDiscards),
        ]
    };
    // Pass A over every trajectory the untraced drive completed.
    let r0 = round_counters();
    let (mut first, mut rest, mut round_sum, mut wall_a, mut cpu_a) =
        (0.0, 0.0, 0.0, Duration::ZERO, 0.0);
    let mut kept = 0usize;
    for (k, t) in u.trajectories.iter().enumerate() {
        let Some(expect) = t else { continue };
        kept += 1;
        let a = pass_a(w, seed, k, expect);
        if !a.same {
            out.failed += 1;
            println!("# pass A diverged from the untraced trajectory {k}");
        }
        first += a.rounds[0].as_secs_f64();
        rest += a.rounds[1..].iter().map(Duration::as_secs_f64).sum::<f64>();
        round_sum += a.rounds.iter().map(Duration::as_secs_f64).sum::<f64>();
        wall_a += a.wall;
        cpu_a += a.cpu;
    }
    let r1 = round_counters();
    let activations_a = u.activations as f64;
    // Pass B over the same trajectories.
    let k0 = KernelCounts::read();
    let mut samples = Vec::new();
    let mut moves = 0usize;
    for (k, t) in u.trajectories.iter().enumerate() {
        let Some(expect) = t else { continue };
        let b = pass_b(w, seed, k, expect);
        if !b.same {
            out.failed += 1;
            println!("# pass B diverged from the untraced trajectory {k}");
        }
        samples.extend(b.activations);
        moves += b.moves;
    }
    let kernel = KernelCounts::read().since(k0);
    let kept = kept.max(1) as f64;
    let activation_sum: f64 = samples.iter().sum::<f64>() / 1e6;
    let evals = (r1[0] - r0[0]) as f64;
    out.set("round.first_s", first / kept);
    out.set("round.rest_s", rest / kept);
    out.set("round.exec_self_s", (round_sum - activation_sum) / kept);
    out.set(
        "round.cpu_util",
        ratio(cpu_a, round_sum * stats::nproc() as f64),
    );
    out.set("round.evals_per_activation", ratio(evals, activations_a));
    out.set("round.commit_ratio", ratio((r1[1] - r0[1]) as f64, evals));
    out.set("round.discard_ratio", ratio((r1[2] - r0[2]) as f64, evals));
    out.set(
        "activation.p50_us",
        percentile(&samples, 0.5).unwrap_or(0.0),
    );
    out.set(
        "activation.p90_us",
        percentile(&samples, 0.9).unwrap_or(0.0),
    );
    out.set(
        "activation.move_ratio",
        ratio(moves as f64, samples.len() as f64),
    );
    kernel.report(samples.len(), Duration::from_secs_f64(activation_sum), out);
    out.set(
        "trace.time_ratio",
        ratio(wall_a.as_secs_f64(), u.timed.as_secs_f64()),
    );
    out.set(
        "trace.unaccounted_ratio",
        ratio(wall_a.as_secs_f64() - round_sum, wall_a.as_secs_f64()),
    );
    println!(
        "# accounting: sum of round spans {round_sum:.4} s of {:.4} s timed pass-A wall; \
         sum of activations {activation_sum:.4} s (sequential pass B)",
        wall_a.as_secs_f64()
    );
    write_trace(&records, w.name, seed);
}

/// `swap-sum-n16384`: n, unit budgets.
const BIG_N: usize = 16384;

/// Activations per requested second: a fixed count for a given
/// `--seconds`, since the per-activation cost drifts as the profile
/// evolves and a time budget would measure a different mix each run.
const ACTIVATIONS_PER_SECOND: f64 = 12.0;

/// Activations per chain. The cost of an activation depends on every
/// move before it, so one long chain is one correlated sample; many
/// short chains from independently relabelled starts average out.
const CHAIN_LEN: usize = 8;

/// A committed move: player, previous strategy, new strategy.
type Move = (NodeId, Vec<NodeId>, Vec<NodeId>);

/// One chain: round-robin best-swap activations of players
/// 0..[`CHAIN_LEN`] from the `c`-th relabelling of `base`.
struct Chain {
    /// Per-activation wall time, µs.
    samples: Vec<f64>,
    moves: Vec<Move>,
    panics: u64,
}

fn chain_start(base: &OwnedDigraph, seed: u64, c: usize) -> Realization {
    relabel(base, stats::mix(seed, c as u64))
}

fn run_chain(base: &OwnedDigraph, seed: u64, c: usize) -> Chain {
    let mut state = chain_start(base, seed, c);
    let mut scratch = DeviationScratch::new(&state);
    let mut chain = Chain {
        samples: Vec::with_capacity(CHAIN_LEN),
        moves: Vec::new(),
        panics: 0,
    };
    for i in 0..CHAIN_LEN {
        let u = NodeId::new(i);
        let span = bbncg_obs::span("activation")
            .field("parent", "chain")
            .field("chain", c)
            .field("player", i);
        let t = Instant::now();
        let decision = catch_unwind(AssertUnwindSafe(|| {
            activate(&mut scratch, &state, u, ResponseRule::BestSwap)
        }));
        let moved = match decision {
            Ok(Some(targets)) => {
                let old = state.strategy(u).to_vec();
                state.set_strategy(u, targets.clone());
                chain.moves.push((u, old, targets));
                true
            }
            Ok(None) => false,
            Err(_) => {
                // The engine may be mid-session; rebuild it.
                chain.panics += 1;
                scratch = DeviationScratch::new(&state);
                false
            }
        };
        chain.samples.push(micros(t.elapsed()));
        drop(span.field("moved", moved));
    }
    chain
}

/// Every chain of a run, one after another.
struct Drive {
    chains: Vec<Chain>,
    cpu: f64,
}

fn drive_chains(base: &OwnedDigraph, seed: u64, chains: usize) -> Drive {
    let c0 = cpu_seconds();
    let chains = (0..chains).map(|c| run_chain(base, seed, c)).collect();
    Drive {
        cpu: cpu_seconds() - c0,
        chains,
    }
}

impl Drive {
    fn samples(&self) -> Vec<f64> {
        self.chains
            .iter()
            .flat_map(|c| c.samples.iter().copied())
            .collect()
    }

    /// Time spent inside activations, chain set-up excluded.
    fn busy(&self) -> Duration {
        Duration::from_secs_f64(self.samples().iter().sum::<f64>() / 1e6)
    }

    fn moves(&self) -> usize {
        self.chains.iter().map(|c| c.moves.len()).sum()
    }

    /// Activations that panicked or committed a non-improving move.
    fn failed(&self, base: &OwnedDigraph, seed: u64) -> u64 {
        self.chains
            .iter()
            .enumerate()
            .map(|(c, ch)| ch.panics + non_improving_moves(chain_start(base, seed, c), &ch.moves))
            .sum()
    }
}

/// Moves that did not strictly lower the mover's SUM cost, recomputed
/// from scratch by replaying them on `state`.
fn non_improving_moves(mut state: Realization, moves: &[Move]) -> u64 {
    let mut bad = 0;
    for (u, old, new) in moves {
        let before = state.cost(*u, MODEL);
        let ok = state.strategy(*u) == old.as_slice() && {
            state.set_strategy(*u, new.clone());
            state.cost(*u, MODEL) < before
        };
        if !ok {
            bad += 1;
        }
    }
    bad
}

/// `swap-sum-n16384`.
pub fn activations(seed: u64, seconds: f64, traced: bool) -> Outcome {
    print_resolution(BIG_N, None);
    let chains = (seconds * ACTIVATIONS_PER_SECOND / CHAIN_LEN as f64)
        .round()
        .max(1.0) as usize;
    let count = chains * CHAIN_LEN;
    let mut setups = SetUpTimes::default();
    let mut base = None;
    for _ in 0..BIG_SETUP_REPEATS {
        let s = set_up(|| Realization::new(base_profile(BIG_N, 1)));
        setups.push(&s);
        base = Some(s.state.graph().clone());
    }
    let base = base.expect("at least one set-up");
    let d = drive_chains(&base, seed, chains);
    let mut out = Outcome {
        attempted: count as u64,
        failed: d.failed(&base, seed),
        ..Outcome::default()
    };
    setups.report(&mut out);
    let per_s = ratio(count as f64, d.busy().as_secs_f64());
    out.set("throughput_per_s", per_s);
    Outcome::note(
        "cpu_ms_per_op",
        ratio(d.cpu * 1e3, count as f64),
        "ms",
        "(process CPU time per operation)",
    );
    Outcome::note(
        "activations_per_s",
        per_s,
        "1/s",
        &format!(
            "({chains} chains of {CHAIN_LEN} activations, {} moves, {:.3} s)",
            d.moves(),
            d.busy().as_secs_f64()
        ),
    );
    if traced {
        let records = install_memory_tracer();
        let k0 = KernelCounts::read();
        let t = drive_chains(&base, seed, chains);
        let kernel = KernelCounts::read().since(k0);
        let same = t
            .chains
            .iter()
            .zip(&d.chains)
            .all(|(a, b)| a.moves == b.moves);
        if !same {
            out.failed += 1;
            println!("# traced drive diverged from the untraced one");
        }
        let samples = t.samples();
        out.set(
            "activation.p50_us",
            percentile(&samples, 0.5).unwrap_or(0.0),
        );
        out.set(
            "activation.p90_us",
            percentile(&samples, 0.9).unwrap_or(0.0),
        );
        out.set(
            "activation.move_ratio",
            ratio(t.moves() as f64, count as f64),
        );
        kernel.report(count, t.busy(), &mut out);
        out.set(
            "trace.time_ratio",
            ratio(t.busy().as_secs_f64(), d.busy().as_secs_f64()),
        );
        write_trace(&records, "swap-sum-n16384", seed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sizes at or above `RoundExecutor::AUTO_SPECULATIVE_MIN_N`, so the
    // default executor is the speculative one on a multi-core host, as
    // in the workloads.
    const SMALL: TrajectoryWorkload = TrajectoryWorkload {
        name: "test",
        n: 80,
        budget: 1,
        rule: ResponseRule::ExactBest,
        max_rounds: 64,
    };

    const SMALL_SWAP: TrajectoryWorkload = TrajectoryWorkload {
        name: "test-swap",
        n: 72,
        budget: 2,
        rule: ResponseRule::BestSwap,
        max_rounds: 64,
    };

    fn end_to_end(w: &TrajectoryWorkload, seed: u64) -> Trajectory {
        let state = w.start(seed, 0);
        let mut scratch = DeviationScratch::new(&state);
        let r = run_dynamics_with_scratch(state, w.config(), &mut dynamics_rng(), &mut scratch);
        Trajectory {
            steps: r.steps,
            rounds: r.rounds,
            converged: r.converged,
            hash: state_hash(&r.state),
        }
    }

    /// The round-at-a-time and activation-at-a-time drives reproduce
    /// the end-to-end trajectory under the default executor.
    #[test]
    fn traced_drives_reproduce_the_trajectory() {
        for w in [&SMALL, &SMALL_SWAP] {
            for seed in 0..3 {
                let expect = end_to_end(w, seed);
                assert!(expect.converged && expect.steps > 0, "{} {seed}", w.name);
                let a = pass_a(w, seed, 0, &expect);
                assert!(a.same, "pass A, {} seed {seed}", w.name);
                assert_eq!(a.rounds.len(), expect.rounds);
                let b = pass_b(w, seed, 0, &expect);
                assert!(b.same, "pass B, {} seed {seed}", w.name);
                assert_eq!(b.activations.len(), w.n * expect.rounds);
                assert_eq!(b.moves, expect.steps);
            }
        }
    }

    #[test]
    fn drives_notice_a_different_trajectory() {
        let mut expect = end_to_end(&SMALL, 5);
        expect.hash ^= 1;
        assert!(!pass_a(&SMALL, 5, 0, &expect).same);
        assert!(!pass_b(&SMALL, 5, 0, &expect).same);
    }

    #[test]
    fn equilibria_pass_the_check_and_starts_do_not() {
        let expect = {
            let state = SMALL.start(9, 0);
            let mut scratch = DeviationScratch::new(&state);
            run_dynamics_with_scratch(state, SMALL.config(), &mut dynamics_rng(), &mut scratch)
        };
        assert!(SMALL.check(expect.converged, &expect.state));
        assert!(!SMALL.check(false, &expect.state));
        assert!(!SMALL.check(true, &SMALL.start(9, 0)));
    }

    #[test]
    fn replay_flags_a_non_improving_move() {
        let state = relabel(&base_profile(30, 1), 3);
        let mut scratch = DeviationScratch::new(&state);
        let u = (0..30)
            .map(NodeId::new)
            .find(|&u| activate(&mut scratch, &state, u, ResponseRule::BestSwap).is_some())
            .expect("a random start has an improving swap");
        let better = activate(&mut scratch, &state, u, ResponseRule::BestSwap).unwrap();
        let old = state.strategy(u).to_vec();
        let good = vec![(u, old.clone(), better.clone())];
        assert_eq!(non_improving_moves(state.clone(), &good), 0);
        // The reverse move raises the cost again.
        let mut after = state.clone();
        after.set_strategy(u, better.clone());
        assert_eq!(non_improving_moves(after, &[(u, better, old)]), 1);
    }
}
