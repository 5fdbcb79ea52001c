//! `obs_guard` — the disabled-overhead guard for `bbncg_obs`.
//!
//! The observability tentpole promises *zero cost when off*: every
//! `counter_add` / `observe` call sites a single relaxed load of the
//! enable flag and nothing else. This binary measures that promise on
//! the per-candidate pricing path (n=136 budget-2 MAX exact
//! best-response dynamics, sequential rounds on one thread, so the ratio
//! measures the instrumentation rather than scheduling noise) by timing
//! the
//! identical deterministic trajectory with the registry **disabled**
//! (the shipping default) and **enabled**.
//!
//! `enable()` is one-way, so each pass runs in a child process of this
//! same binary. The passes come in disabled/enabled pairs whose order
//! alternates (off-on, on-off, …), so VM speed drift lands on both
//! sides alike instead of reading as overhead; each side keeps its best
//! pass. Enabled throughput must stay within a few percent of disabled
//! throughput; since the enabled side pays for *actual metric
//! recording* on top of the branch, the disabled side's cost over a
//! registry-free build is bounded above by the same margin.
//!
//! Modes:
//!   `obs_guard`          — full workload, 10 pairs, enforces the ratio
//!                          bound.
//!   `obs_guard --quick`  — small workload, 2 pairs, prints the ratio
//!                          but does not enforce (CI smoke on noisy
//!                          shared runners).
//!
//! Every enabled pass also checks that the workload priced its
//! candidates on a cost kernel (the `KernelPriced*` counters moved) and
//! never in closed form, so the guard keeps measuring the per-candidate
//! kernel tallies. Exits non-zero (panic) when that check, any child
//! pass, or the enforced bound fails.

use bbncg_core::dynamics::{run_dynamics_with_kernel, DynamicsConfig};
use bbncg_core::{BudgetVector, CostKernel, CostModel, Realization, RoundExecutor};
use bbncg_graph::generators;
use bbncg_obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;
use std::time::Instant;

/// Enabled-vs-disabled throughput ratio floor. The measured overhead
/// of the enabled registry is well under 1%; the 5% allowance is
/// timing-noise headroom, not an overhead budget — the ≤2% design
/// target is tracked by the best-of-pairs ratio printed below.
const MIN_RATIO: f64 = 0.95;
/// Disabled/enabled pairs in the full guard.
const PAIRS: usize = 10;

/// The private first argument of a child pass: `obs_guard __pass
/// off|on [--quick]` times one trajectory and prints `<steps> <steps/s>
/// <kernel-priced candidates>` (the last is 0 with the registry off).
const PASS_ARG: &str = "__pass";

fn initial(n: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets = BudgetVector::uniform(n, 2);
    Realization::new(generators::random_realization(budgets.as_slice(), &mut rng))
}

/// One timed pass of the guard workload: capped budget-2 MAX exact
/// best-response dynamics through the sequential executor on one
/// engine. Players owning two arcs keep every activation out of the
/// unit-budget closed form, and the exact rule prices its `C(n−1, 2)`
/// candidates one by one on the kernel `Auto` picks (the swap rule
/// would sweep them instead), so the hot-path instrumentation here is
/// the per-candidate kernel tallies plus the session and dynamics
/// counters. At n = 136 a pass takes about as long as the guard's
/// earlier n = 512 swap pass did. Returns the steps taken and
/// steps/sec.
fn pass(n: usize, cap: usize) -> (usize, f64) {
    let init = initial(n, 0);
    let mut rng = StdRng::seed_from_u64(0);
    let t = Instant::now();
    let rep = run_dynamics_with_kernel(
        init,
        DynamicsConfig::exact(CostModel::Max, cap).with_executor(RoundExecutor::Sequential),
        &mut rng,
        CostKernel::Auto,
    );
    (rep.steps, rep.steps as f64 / t.elapsed().as_secs_f64())
}

/// The child side: run one pass with the registry off or on, check the
/// pricing path when on, and print the result for the parent.
fn child(enabled: bool, n: usize, cap: usize) {
    assert!(!bbncg_obs::enabled(), "a pass starts with the registry off");
    if enabled {
        bbncg_obs::enable();
    }
    let (steps, sps) = pass(n, cap);
    let priced: u64 = [
        Counter::KernelPricedQueue,
        Counter::KernelPricedBitset,
        Counter::KernelPricedSparse,
    ]
    .into_iter()
    .map(bbncg_obs::counter_value)
    .sum();
    if enabled {
        let closed_form = bbncg_obs::counter_value(Counter::ClosedFormActivations);
        assert!(
            priced > 0 && closed_form == 0,
            "obs_guard: the workload must price its candidates on a cost kernel \
             (kernel-priced {priced}, closed-form activations {closed_form}); \
             a closed-form path takes the guard off the per-candidate tallies"
        );
    }
    println!("{steps} {sps} {priced}");
}

/// Run one pass in a child process; its steps, steps/sec and
/// kernel-priced candidates. Panics when the child fails or prints
/// anything else.
fn spawn_pass(enabled: bool, quick: bool) -> (usize, f64, u64) {
    let exe = std::env::current_exe().expect("obs_guard: locate own binary");
    let mut cmd = Command::new(exe);
    cmd.args([PASS_ARG, if enabled { "on" } else { "off" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("obs_guard: spawn a pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "obs_guard: the {} pass failed ({}):\n{}{}",
        if enabled { "enabled" } else { "disabled" },
        out.status,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    parse_pass(&stdout).unwrap_or_else(|| panic!("obs_guard: unreadable pass output {stdout:?}"))
}

/// A child's `<steps> <steps/s> <kernel-priced candidates>` line.
fn parse_pass(out: &str) -> Option<(usize, f64, u64)> {
    let [steps, sps, priced] = out.split_whitespace().collect::<Vec<_>>()[..] else {
        return None;
    };
    Some((steps.parse().ok()?, sps.parse().ok()?, priced.parse().ok()?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (n, cap, pairs) = if quick { (96, 5, 2) } else { (136, 5, PAIRS) };

    if args.first().map(String::as_str) == Some(PASS_ARG) {
        let enabled = match args.get(1).map(String::as_str) {
            Some("on") => true,
            Some("off") => false,
            other => panic!("obs_guard: unknown pass kind {other:?}"),
        };
        child(enabled, n, cap);
        return;
    }

    let mut best = [0.0f64; 2];
    let mut steps_seen = None;
    let mut priced = 0;
    for pair in 0..pairs {
        // Even pairs run off then on, odd pairs on then off.
        let odd = pair % 2 == 1;
        for enabled in [odd, !odd] {
            let (steps, sps, pass_priced) = spawn_pass(enabled, quick);
            priced = priced.max(pass_priced);
            assert_eq!(
                *steps_seen.get_or_insert(steps),
                steps,
                "instrumentation must not perturb the trajectory"
            );
            let side = &mut best[enabled as usize];
            *side = side.max(sps);
        }
    }
    let [sps_off, sps_on] = best;

    let ratio = sps_on / sps_off;
    println!("obs_guard: n={n} cap={cap} pairs={pairs} rounds=sequential quick={quick}");
    println!("obs_guard: disabled {sps_off:.1} steps/sec, enabled {sps_on:.1} steps/sec (best of {pairs} each)");
    println!("obs_guard: enabled/disabled ratio {ratio:.4} (floor {MIN_RATIO})");
    println!("obs_guard: kernel-priced candidates per pass {priced}, closed-form activations 0");

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
