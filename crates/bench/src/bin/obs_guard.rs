//! `obs_guard` — the disabled-overhead guard for `bbncg_obs`.
//!
//! The observability tentpole promises *zero cost when off*: every
//! `counter_add` / `observe` call sites a single relaxed load of the
//! enable flag and nothing else. This binary measures that promise on
//! the per-candidate pricing path (n=512 unit-budget MAX exact
//! dynamics, sequential rounds on one thread, so the ratio measures the
//! instrumentation rather than scheduling noise) by running the
//! identical deterministic trajectory twice in one process:
//!
//!   1. with the registry **disabled** (the shipping default), then
//!   2. with the registry **enabled** (`enable()` is one-way, so the
//!      disabled passes must come first),
//!
//! taking the best of several repetitions on each side to squeeze out
//! scheduler noise. Enabled throughput must stay within a few percent
//! of disabled throughput; since the enabled side pays for *actual
//! metric recording* on top of the branch, the disabled side's cost
//! over a registry-free build is bounded above by the same margin.
//!
//! Modes:
//!   `obs_guard`          — full workload, enforces the ratio bound.
//!   `obs_guard --quick`  — small workload, prints the ratio but does
//!                          not enforce (CI smoke on noisy shared
//!                          runners).
//!
//! Both modes also check, after the enabled pass, that the workload
//! priced its candidates on a cost kernel (the `KernelPriced*` counters
//! moved) and never in closed form, so the guard keeps measuring the
//! per-candidate kernel tallies. Exits non-zero (assert) when that check
//! or the enforced bound fails.

use bbncg_core::dynamics::{run_dynamics_with_kernel, DynamicsConfig};
use bbncg_core::{BudgetVector, CostKernel, CostModel, Realization, RoundExecutor};
use bbncg_graph::generators;
use bbncg_obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Enabled-vs-disabled throughput ratio floor. The measured overhead
/// of the enabled registry is well under 1%; the 5% allowance is
/// timing-noise headroom, not an overhead budget — the ≤2% design
/// target is tracked by the best-of-reps median printed below.
const MIN_RATIO: f64 = 0.95;
const REPS: usize = 5;

fn initial(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets = BudgetVector::uniform(n, 1);
    Realization::new(generators::random_realization(budgets.as_slice(), &mut rng))
}

/// Best-of-`reps` steps/sec for the guard workload: capped MAX
/// exact-dynamics through the sequential executor on one engine. MAX
/// has no closed form, so every activation prices its candidates on the
/// kernel `Auto` picks, and the hot-path instrumentation here is the
/// per-candidate kernel tallies plus the session and dynamics counters.
fn best_steps_per_sec(n: usize, cap: usize, reps: usize) -> (f64, usize) {
    let mut best = 0.0f64;
    let mut steps = 0usize;
    for _ in 0..reps {
        let init = initial(n, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let t = Instant::now();
        let rep = run_dynamics_with_kernel(
            init,
            DynamicsConfig::exact(CostModel::Max, cap).with_executor(RoundExecutor::Sequential),
            &mut rng,
            CostKernel::Auto,
        );
        let sps = rep.steps as f64 / t.elapsed().as_secs_f64();
        best = best.max(sps);
        steps = rep.steps;
    }
    (best, steps)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, cap, reps) = if quick { (256, 3, 2) } else { (512, 5, REPS) };

    assert!(
        !bbncg_obs::enabled(),
        "guard invariant: the registry must start disabled \
         (disabled passes have to run before the one-way enable())"
    );
    let (sps_off, steps_off) = best_steps_per_sec(n, cap, reps);

    bbncg_obs::enable();
    let (sps_on, steps_on) = best_steps_per_sec(n, cap, reps);
    assert_eq!(
        steps_off, steps_on,
        "instrumentation must not perturb the trajectory"
    );

    let ratio = sps_on / sps_off;
    println!("obs_guard: n={n} cap={cap} reps={reps} rounds=sequential quick={quick}");
    println!("obs_guard: disabled {sps_off:.1} steps/sec, enabled {sps_on:.1} steps/sec");
    println!("obs_guard: enabled/disabled ratio {ratio:.4} (floor {MIN_RATIO})");
    let priced: u64 = [
        Counter::KernelPricedQueue,
        Counter::KernelPricedBitset,
        Counter::KernelPricedSparse,
    ]
    .into_iter()
    .map(bbncg_obs::counter_value)
    .sum();
    let closed_form = bbncg_obs::counter_value(Counter::ClosedFormActivations);
    println!("obs_guard: kernel-priced candidates {priced}, closed-form activations {closed_form}");
    assert!(
        priced > 0 && closed_form == 0,
        "obs_guard: the workload must price its candidates on a cost kernel \
         (kernel-priced {priced}, closed-form activations {closed_form}); \
         a closed-form path takes the guard off the per-candidate tallies"
    );

    if quick {
        println!("obs_guard: --quick mode, ratio not enforced");
        return;
    }
    assert!(
        ratio >= MIN_RATIO,
        "obs overhead guard: enabled registry dropped throughput to \
         {ratio:.4}x of disabled (floor {MIN_RATIO}); the zero-cost-when-off \
         promise is broken somewhere on the hot path"
    );
}
