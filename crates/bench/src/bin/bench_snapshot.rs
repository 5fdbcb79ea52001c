//! Perf-trajectory snapshot: dynamics steps/sec and Nash-verify
//! throughput (engine vs. the rebuild-per-candidate reference), the
//! queue-vs-bitset cost-kernel comparison (n=32 and n=256 workloads),
//! plus scenario-engine throughput on the churn workload.
//!
//! Run through `scripts/bench_snapshot.sh` (needs the `naive-ref`
//! feature); writes a `BENCH_dynamics.json` baseline so later PRs can
//! show a perf trajectory instead of a single point.

use bbncg_core::dynamics::{run_dynamics, run_dynamics_with_kernel, DynamicsConfig};
use bbncg_core::naive::run_dynamics_rebuild;
use bbncg_core::{
    audit_equilibrium, best_swap_response_with, BudgetVector, CostKernel, CostModel,
    DeviationScratch, Realization, RoundExecutor,
};
use bbncg_graph::{generators, NodeId};
use bbncg_obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed workload: all-unit instances (the paper's Theorem 4.x class),
/// exact best-response dynamics to convergence.
const N: usize = 32;
const RUNS: u64 = 8;
const MAX_ROUNDS: usize = 400;

/// The kernel-comparison workload the bitset kernel exists for: unit
/// budgets at n=256, exact best-response dynamics (255 candidate BFS
/// per activation). Two seeds keep the queue side of the comparison
/// affordable; both kernels trace identical trajectories, so the step
/// counts cancel out of the ratio.
const KERNEL_N: usize = 256;
const KERNEL_RUNS: u64 = 2;

/// The kernel scale series: unit-budget best-swap **partial
/// activations** at the sizes the sparse kernel targets. Full
/// trajectories are unaffordable for the queue baseline past n≈10³,
/// so each kernel prices the same fixed round-robin activation budget
/// from the same start and the committed move sequences are asserted
/// identical — the per-activation work is then semantically the same
/// and the steps/sec ratio is workload-fair. n=1024 overlaps the
/// bitset band (three-way parity), n=16384 is the sparse kernel's
/// acceptance size (≥5× the queue), n=100000 is the large-n soak
/// regime (sparse only; a single queue activation is already seconds
/// there).
const SCALE_ACTIVATIONS: usize = 8;
const SCALE_SMALL_N: usize = 1024;
const SCALE_MID_N: usize = 16384;
const SCALE_LARGE_N: usize = 100_000;

/// Wall-clock budget per scale leg: a leg stops early once it exceeds
/// this (always completing at least one activation), so a slow kernel
/// at a big size bounds the snapshot's runtime instead of multiplying
/// it. Kernels may therefore complete different activation counts;
/// the committed move sequences are asserted identical over the
/// *common prefix*, which keeps the per-activation rates comparable
/// (both kernels walked the same committed trajectory as far as they
/// got).
const SCALE_TIME_BUDGET_SECS: f64 = 20.0;

/// The scenario-engine workload: the checked-in churn example
/// (dynamics under arrivals/departures), embedded at compile time so
/// the snapshot needs no working-directory assumptions.
const CHURN_SPEC: &str = include_str!("../../../../examples/scenarios/churn.toml");
const CHURN_SEEDS: usize = 8;

/// `(steps_per_sec, total_steps)` over a churn-scenario seed sweep.
fn measure_scenario() -> (f64, usize) {
    use bbncg_scenario::{parse_spec, run_sweep, NullSink};
    let mut spec = parse_spec(CHURN_SPEC).expect("checked-in churn spec parses");
    spec.seeds = CHURN_SEEDS;
    let t = Instant::now();
    let outcomes = run_sweep(&spec, &mut NullSink);
    let secs = t.elapsed().as_secs_f64();
    let steps: usize = outcomes
        .into_iter()
        .map(|o| o.expect("churn scenario completes").steps)
        .sum();
    (steps as f64 / secs, steps)
}

fn initial_n(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets = BudgetVector::uniform(n, 1);
    Realization::new(generators::random_realization(budgets.as_slice(), &mut rng))
}

fn initial(seed: u64) -> Realization {
    initial_n(N, seed)
}

/// `(steps_per_sec, total_steps)` for `runs` dynamics trajectories.
fn measure(runs: u64, f: impl Fn(Realization) -> usize) -> (f64, usize) {
    measure_n(N, runs, f)
}

/// [`measure`] over `n`-vertex starts.
fn measure_n(n: usize, runs: u64, f: impl Fn(Realization) -> usize) -> (f64, usize) {
    let t = Instant::now();
    let mut steps = 0usize;
    for seed in 0..runs {
        steps += f(initial_n(n, seed));
    }
    let secs = t.elapsed().as_secs_f64();
    (steps as f64 / secs, steps)
}

/// Queue-vs-bitset dynamics throughput on an `n`-vertex unit-budget
/// workload: `(queue sps, bitset sps, total steps)`. Asserts the two
/// kernels trace step-identical trajectories (convergence is *not*
/// required — at n=256 the round cap keeps the queue side affordable;
/// identical step counts make the ratio workload-fair regardless).
fn measure_kernels(n: usize, runs: u64, max_rounds: usize) -> (f64, f64, usize) {
    let model = CostModel::Sum;
    let run_with = |kernel: CostKernel| {
        measure_n(n, runs, |init| {
            let mut rng = StdRng::seed_from_u64(0);
            // Pinned sequential so the kernel series isolates kernel
            // effects on every host (Auto would shard activations at
            // these sizes on multi-core machines).
            run_dynamics_with_kernel(
                init,
                DynamicsConfig::exact(model, max_rounds).with_executor(RoundExecutor::Sequential),
                &mut rng,
                kernel,
            )
            .steps
        })
    };
    let (queue_sps, queue_steps) = run_with(CostKernel::Queue);
    let (bitset_sps, bitset_steps) = run_with(CostKernel::Bitset);
    assert_eq!(
        queue_steps, bitset_steps,
        "kernels must trace identical trajectories"
    );
    (queue_sps, bitset_sps, queue_steps)
}

/// One kernel's leg of the scale series: up to `k` round-robin
/// best-swap activations from a fresh `n`-vertex unit-budget start,
/// committing each strictly improving move (the same decision body as
/// a dynamics round), stopping early once [`SCALE_TIME_BUDGET_SECS`]
/// is spent (minimum one activation). Returns `(activations_per_sec,
/// committed move sequence)`; callers assert the sequences agree over
/// the common prefix before reporting any ratio.
fn measure_kernel_scale(
    n: usize,
    k: usize,
    kernel: CostKernel,
) -> (f64, Vec<(usize, Option<Vec<NodeId>>)>) {
    let model = CostModel::Sum;
    let mut state = initial_n(n, 0);
    let mut scratch = DeviationScratch::with_kernel(&state, kernel);
    let mut moves = Vec::with_capacity(k);
    let t = Instant::now();
    for i in 0..k {
        if i > 0 && t.elapsed().as_secs_f64() >= SCALE_TIME_BUDGET_SECS {
            break; // budget spent; the completed prefix is the leg
        }
        let u = NodeId::new(i % n);
        if state.graph().out_degree(u) == 0 {
            moves.push((i % n, None));
            continue;
        }
        let applied = best_swap_response_with(&mut scratch, &state, u, model)
            .and_then(|c| (c.cost < scratch.cost_of(state.strategy(u))).then_some(c.targets));
        moves.push((i % n, applied.clone()));
        if let Some(targets) = applied {
            state.set_strategy(u, targets);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    (moves.len() as f64 / secs, moves)
}

/// Assert two kernels committed identical moves over the activations
/// both completed (time-budgeted legs may differ in length).
fn assert_move_prefix(
    a: &[(usize, Option<Vec<NodeId>>)],
    b: &[(usize, Option<Vec<NodeId>>)],
    label: &str,
) {
    let k = a.len().min(b.len());
    assert!(k > 0, "no common activations to compare ({label})");
    assert_eq!(
        &a[..k],
        &b[..k],
        "kernels must commit identical moves ({label})"
    );
}

/// Format a rate with at least three significant digits. A fixed
/// `{:.1}` collapses sub-0.05 rates — the n=100000 sparse leg runs at
/// a handful of activations per *minute* — to a meaningless `0.0`.
fn sig3(x: f64) -> String {
    if x <= 0.0 || !x.is_finite() {
        return "0.0".to_string();
    }
    let mag = x.log10().floor() as i32;
    let decimals = (2 - mag).clamp(1, 9) as usize;
    format!("{x:.decimals$}")
}

/// Peak resident set size (`VmHWM`) in MiB from `/proc/self/status` —
/// dependency-free, covering the whole snapshot process including the
/// n=100000 sparse leg (its dominant allocation). `0.0` where the
/// proc file is unavailable (non-Linux hosts).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dynamics.json".to_string());
    let model = CostModel::Sum;

    let (engine_sps, engine_steps) = measure(RUNS, |init| {
        let mut rng = StdRng::seed_from_u64(0);
        // Pinned sequential: this series predates round executors and
        // must stay host-independent (see measure_kernels).
        let rep = run_dynamics(
            init,
            DynamicsConfig::exact(model, MAX_ROUNDS).with_executor(RoundExecutor::Sequential),
            &mut rng,
        );
        assert!(rep.converged, "workload must converge for a fair count");
        rep.steps
    });
    let (naive_sps, naive_steps) = measure(RUNS, |init| {
        let (_, steps, converged) = run_dynamics_rebuild(init, model, MAX_ROUNDS);
        assert!(converged);
        steps
    });
    assert_eq!(
        engine_steps, naive_steps,
        "engine and reference must trace identical trajectories"
    );
    let speedup = engine_sps / naive_sps;

    // Nash-verify throughput: audit every player of each final
    // equilibrium repeatedly (batched parallel engine).
    let eq = {
        let mut rng = StdRng::seed_from_u64(1);
        run_dynamics(
            initial(0),
            DynamicsConfig::exact(model, MAX_ROUNDS),
            &mut rng,
        )
        .state
    };
    let t = Instant::now();
    let reps = 20u64;
    for _ in 0..reps {
        assert!(audit_equilibrium(&eq, model).is_nash());
    }
    let verify_pps = (reps as usize * N) as f64 / t.elapsed().as_secs_f64();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    // Bumped whenever a field is added/renamed/removed, so trajectory
    // tooling can tell a schema change from a perf change.
    let _ = writeln!(json, "  \"schema_version\": 4,");
    let _ = writeln!(
        json,
        "  \"workload\": \"unit-budget exact dynamics, n={N}, {RUNS} seeds\","
    );
    let _ = writeln!(json, "  \"model\": \"{}\",", model.label());
    let _ = writeln!(
        json,
        "  \"dynamics_steps_per_sec_engine\": {engine_sps:.1},"
    );
    let _ = writeln!(
        json,
        "  \"dynamics_steps_per_sec_naive_rebuild\": {naive_sps:.1},"
    );
    let _ = writeln!(json, "  \"engine_speedup_vs_naive\": {speedup:.2},");
    let _ = writeln!(json, "  \"nash_verify_players_per_sec\": {verify_pps:.1},");
    let _ = writeln!(json, "  \"total_steps\": {engine_steps},");

    // Cost-kernel comparison: the same exact-dynamics workload priced
    // by the queue vs the word-parallel bitset kernel, at the existing
    // n=32 size and at the n=256 size the bitset kernel targets.
    let (q32, b32, _) = measure_kernels(N, RUNS, MAX_ROUNDS);
    let (q256, b256, steps256) = measure_kernels(KERNEL_N, KERNEL_RUNS, 6);
    let speedup256 = b256 / q256;
    let _ = writeln!(
        json,
        "  \"kernel_workload_n256\": \"unit-budget exact dynamics, n={KERNEL_N}, {KERNEL_RUNS} seeds, 6 rounds\","
    );
    let _ = writeln!(json, "  \"kernel_steps_per_sec_queue_n32\": {q32:.1},");
    let _ = writeln!(json, "  \"kernel_steps_per_sec_bitset_n32\": {b32:.1},");
    let _ = writeln!(json, "  \"kernel_steps_per_sec_queue_n256\": {q256:.1},");
    let _ = writeln!(json, "  \"kernel_steps_per_sec_bitset_n256\": {b256:.1},");
    let _ = writeln!(json, "  \"kernel_bitset_speedup_n256\": {speedup256:.2},");
    let _ = writeln!(json, "  \"kernel_total_steps_n256\": {steps256},");

    // Kernel scale series: best-swap partial activations at the sizes
    // the sparse kernel targets, move-sequence-asserted across kernels
    // (see the SCALE_* docs).
    let (scale_q1024, mv_q1024) =
        measure_kernel_scale(SCALE_SMALL_N, SCALE_ACTIVATIONS, CostKernel::Queue);
    let (scale_b1024, mv_b1024) =
        measure_kernel_scale(SCALE_SMALL_N, SCALE_ACTIVATIONS, CostKernel::Bitset);
    let (scale_s1024, mv_s1024) =
        measure_kernel_scale(SCALE_SMALL_N, SCALE_ACTIVATIONS, CostKernel::Sparse);
    assert_move_prefix(&mv_q1024, &mv_b1024, "n=1024 queue vs bitset");
    assert_move_prefix(&mv_q1024, &mv_s1024, "n=1024 queue vs sparse");
    let (scale_q16384, mv_q16384) =
        measure_kernel_scale(SCALE_MID_N, SCALE_ACTIVATIONS, CostKernel::Queue);
    let (scale_s16384, mv_s16384) =
        measure_kernel_scale(SCALE_MID_N, SCALE_ACTIVATIONS, CostKernel::Sparse);
    assert_move_prefix(&mv_q16384, &mv_s16384, "n=16384 queue vs sparse");
    let sparse_speedup_16384 = scale_s16384 / scale_q16384;
    let (scale_s100k, _) =
        measure_kernel_scale(SCALE_LARGE_N, SCALE_ACTIVATIONS, CostKernel::Sparse);
    let _ = writeln!(
        json,
        "  \"kernel_scale_workload\": \"unit-budget best-swap partial activations, \
         <={SCALE_ACTIVATIONS} activations per kernel within a {SCALE_TIME_BUDGET_SECS:.0}s \
         leg budget, common-prefix move-asserted\","
    );
    let _ = writeln!(
        json,
        "  \"kernel_steps_per_sec_queue_n1024\": {},",
        sig3(scale_q1024)
    );
    let _ = writeln!(
        json,
        "  \"kernel_steps_per_sec_bitset_n1024\": {},",
        sig3(scale_b1024)
    );
    let _ = writeln!(
        json,
        "  \"kernel_steps_per_sec_sparse_n1024\": {},",
        sig3(scale_s1024)
    );
    let _ = writeln!(
        json,
        "  \"kernel_steps_per_sec_queue_n16384\": {},",
        sig3(scale_q16384)
    );
    let _ = writeln!(
        json,
        "  \"kernel_steps_per_sec_sparse_n16384\": {},",
        sig3(scale_s16384)
    );
    let _ = writeln!(
        json,
        "  \"kernel_sparse_speedup_n16384\": {},",
        sig3(sparse_speedup_16384)
    );
    let _ = writeln!(
        json,
        "  \"kernel_steps_per_sec_sparse_n100000\": {},",
        sig3(scale_s100k)
    );
    let _ = writeln!(json, "  \"peak_rss_mib\": {:.1},", peak_rss_mib());

    let (scenario_sps, scenario_steps) = measure_scenario();
    let _ = writeln!(
        json,
        "  \"scenario_workload\": \"churn.toml (examples/scenarios), {CHURN_SEEDS} seeds\","
    );
    let _ = writeln!(
        json,
        "  \"scenario_steps_per_sec_churn\": {scenario_sps:.1},"
    );
    let _ = writeln!(json, "  \"scenario_total_steps\": {scenario_steps},");

    // Pruning health, read from the obs registry. Enabled only *here*
    // — after every timing above — so the perf series keeps measuring
    // the disabled (zero-cost) configuration; `enable()` is one-way per
    // process. The health legs re-run the same deterministic workloads
    // the perf fields used, and the counters they read are exact by
    // construction (kernels increment them move-for-move), so the
    // re-run costs wall-clock but not fidelity.
    bbncg_obs::enable();
    // Per-kernel Lemma 2.2 pruning hit rate on the n=1024 scale
    // workload: skipped / (skipped + priced). The scratch is dropped
    // inside `measure_kernel_scale`, which flushes its tally before
    // the counters are read.
    let prune_rate = |kernel: CostKernel, priced: Counter, skipped: Counter| -> f64 {
        bbncg_obs::reset();
        let _ = measure_kernel_scale(SCALE_SMALL_N, SCALE_ACTIVATIONS, kernel);
        let p = bbncg_obs::counter_value(priced) as f64;
        let s = bbncg_obs::counter_value(skipped) as f64;
        if p + s > 0.0 {
            s / (p + s)
        } else {
            0.0
        }
    };
    let prune_queue = prune_rate(
        CostKernel::Queue,
        Counter::KernelPricedQueue,
        Counter::KernelPruneSkipQueue,
    );
    let prune_bitset = prune_rate(
        CostKernel::Bitset,
        Counter::KernelPricedBitset,
        Counter::KernelPruneSkipBitset,
    );
    let prune_sparse = prune_rate(
        CostKernel::Sparse,
        Counter::KernelPricedSparse,
        Counter::KernelPruneSkipSparse,
    );
    // Retained-base health: a same-source re-audit trace (the
    // audit/verification shape) must absorb nearly every commit with
    // the commit-time repair path instead of a full base BFS. The
    // counters are exact, so the shape — not the wall clock — is what
    // gets recorded (crates/core/tests/perf_guard.rs enforces the same
    // shape in CI).
    bbncg_obs::reset();
    const REPAIR_N: usize = 4096;
    const REPAIR_COMMITS: usize = 24;
    {
        let mut rng = StdRng::seed_from_u64(7);
        let budgets = BudgetVector::uniform(REPAIR_N, 1);
        let mut r = Realization::new(generators::random_realization(budgets.as_slice(), &mut rng));
        let mut engine = DeviationScratch::with_kernel(&r, CostKernel::Sparse);
        for commit in 0..REPAIR_COMMITS {
            let mover = NodeId::new(1 + commit % 8);
            let new_t = NodeId::new(16 + (commit * 37) % (REPAIR_N - 16));
            if new_t != mover {
                r.set_strategy(mover, vec![new_t]);
            }
            engine.begin(&r, NodeId::new(0), CostModel::Sum);
            let probe = NodeId::new(1 + commit % (REPAIR_N - 1));
            let _ = engine.cost_of(&[probe]);
        }
        // Engine drops here, flushing its tally into the registry.
    }
    let repaired = bbncg_obs::counter_value(Counter::KernelBaseRepaired) as f64;
    let full_bfs = bbncg_obs::counter_value(Counter::KernelBaseBfs) as f64;
    let repair_rate = repaired / (repaired + full_bfs).max(1.0);
    let repair_p90 = bbncg_obs::histogram_snapshot(bbncg_obs::Histogram::RepairAffected).p90();

    // Sparse-only pruning machinery on a budget-2 workload (budget 1
    // never reuses a per-target bound within a session, so this leg is
    // where the bound cache and in-flight aborts show up).
    bbncg_obs::reset();
    {
        let mut rng = StdRng::seed_from_u64(3);
        let budgets = BudgetVector::uniform(SCALE_SMALL_N, 2);
        let mut state =
            Realization::new(generators::random_realization(budgets.as_slice(), &mut rng));
        let mut scratch = DeviationScratch::with_kernel(&state, CostKernel::Sparse);
        for i in 0..SCALE_ACTIVATIONS {
            let u = NodeId::new(i % SCALE_SMALL_N);
            if state.graph().out_degree(u) == 0 {
                continue;
            }
            let applied = best_swap_response_with(&mut scratch, &state, u, CostModel::Sum)
                .and_then(|c| (c.cost < scratch.cost_of(state.strategy(u))).then_some(c.targets));
            if let Some(targets) = applied {
                state.set_strategy(u, targets);
            }
        }
    }
    let aborts = bbncg_obs::counter_value(Counter::KernelPruneAbortSparse) as f64;
    let priced_sparse = bbncg_obs::counter_value(Counter::KernelPricedSparse) as f64;
    let abort_rate = aborts / priced_sparse.max(1.0);
    let bound_hits = bbncg_obs::counter_value(Counter::KernelBoundCacheHits) as f64;
    let bound_misses = bbncg_obs::counter_value(Counter::KernelBoundCacheMisses) as f64;
    let bound_cache_hit_rate = bound_hits / (bound_hits + bound_misses).max(1.0);

    let _ = writeln!(json, "  \"prune_hit_rate_queue\": {prune_queue:.4},");
    let _ = writeln!(json, "  \"prune_hit_rate_bitset\": {prune_bitset:.4},");
    let _ = writeln!(json, "  \"prune_hit_rate_sparse\": {prune_sparse:.4},");
    let _ = writeln!(
        json,
        "  \"repair_workload\": \"same-source re-audit trace n={REPAIR_N} \
         ({REPAIR_COMMITS} commits); abort/bound-cache leg: budget-2 best-swap \
         n={SCALE_SMALL_N} ({SCALE_ACTIVATIONS} activations)\","
    );
    let _ = writeln!(json, "  \"kernel_base_repair_rate\": {repair_rate:.4},");
    let _ = writeln!(json, "  \"kernel_repair_affected_p90\": {repair_p90},");
    let _ = writeln!(
        json,
        "  \"kernel_prune_abort_rate_sparse\": {abort_rate:.4},"
    );
    let _ = writeln!(
        json,
        "  \"kernel_bound_cache_hit_rate\": {bound_cache_hit_rate:.4}"
    );
    let _ = writeln!(json, "}}");
    // Atomic publish: write a sibling temp file, then rename it over
    // the target, so a concurrent reader (CI diffing a trajectory,
    // a dashboard polling the file) never observes a torn snapshot.
    let tmp_path = format!("{out_path}.tmp");
    std::fs::write(&tmp_path, &json).expect("write snapshot temp file");
    std::fs::rename(&tmp_path, &out_path).expect("publish snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
    assert!(
        speedup >= 2.0,
        "acceptance: engine must be >= 2x the naive-rebuild reference (got {speedup:.2}x)"
    );
    assert!(
        speedup256 >= 2.0,
        "acceptance: bitset kernel must be >= 2x the queue kernel at n={KERNEL_N} \
         (got {speedup256:.2}x)"
    );
    // The sparse kernel's >=3x-vs-queue bar at n=16384 (the
    // cross-activation-retention PR's acceptance target; the original
    // PR 6 aspiration was >=5x) is recorded but *not* asserted, so a
    // regression still publishes an honest complete snapshot instead
    // of aborting the script and leaving stale fields behind.
    if sparse_speedup_16384 < 3.0 {
        eprintln!(
            "WARNING: sparse kernel is only {sparse_speedup_16384:.2}x the queue kernel at \
             n={SCALE_MID_N} (target >=3x); see ROADMAP item 2"
        );
    }
}
