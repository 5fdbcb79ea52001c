//! Counter guard for the incumbent abort of the queue and bitset
//! kernels.
//!
//! No wall clock: the guard runs a fixed-seed n = 128 exact SUM
//! trajectory under each BFS kernel, checks it round for round against
//! the rebuild-per-candidate reference, and reads the
//! `bbncg_kernel_prune_aborts_total{kernel}` counters the engine
//! flushes. A kernel that priced every candidate to its last BFS level
//! would record no abort and fail here.
//!
//! Player 0 has budget 2 and everyone else budget 1. With every budget
//! at most 1 the searches price SUM candidates in closed form and no
//! kernel prices any (`tests/round_parity.rs` pins that trajectory);
//! one two-arc player keeps every activation on the kernels.
//!
//! This file holds exactly one `#[test]` on purpose: the obs registry
//! is process-global and integration-test binaries run their tests in
//! parallel threads, so a second test here could race the counters.

use bbncg_core::dynamics::{run_dynamics_with_scratch, DynamicsConfig};
use bbncg_core::naive::run_dynamics_rebuild;
use bbncg_core::{CostKernel, CostModel, DeviationScratch, Realization, RoundExecutor};
use bbncg_graph::generators;
use bbncg_obs::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn bfs_kernels_abort_on_an_exact_trajectory_that_matches_the_reference() {
    const N: usize = 128;
    const MAX_ROUNDS: usize = 50;
    let model = CostModel::Sum;
    let mut rng = StdRng::seed_from_u64(0xAB0);
    let mut budgets = [1; N];
    budgets[0] = 2;
    let start = Realization::new(generators::random_realization(&budgets, &mut rng));

    // The reference, one round at a time: each player moves at most
    // once a round, so equal profiles after every round mean equal
    // moves.
    let mut reference = vec![start.clone()];
    let mut reference_steps = Vec::new();
    loop {
        let last = reference.last().expect("starts non-empty").clone();
        let (next, steps, converged) = run_dynamics_rebuild(last, model, 1);
        reference.push(next);
        reference_steps.push(steps);
        assert!(
            reference_steps.len() < MAX_ROUNDS,
            "reference did not converge"
        );
        if converged {
            break;
        }
    }
    assert!(
        reference_steps.iter().sum::<usize>() > N / 2,
        "want a trajectory that moves"
    );

    bbncg_obs::enable();
    bbncg_obs::reset();
    for (kernel, aborts) in [
        (CostKernel::Queue, Counter::KernelPruneAbortQueue),
        (CostKernel::Bitset, Counter::KernelPruneAbortBitset),
    ] {
        let before = bbncg_obs::counter_value(aborts);
        let mut scratch = DeviationScratch::with_kernel(&start, kernel);
        assert_eq!(scratch.resolved_kernel(), kernel);
        let one_round = DynamicsConfig::exact(model, 1).with_executor(RoundExecutor::Sequential);
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
        let recorded = bbncg_obs::counter_value(aborts) - before;
        assert!(recorded >= 1, "{kernel} recorded no incumbent abort");
    }
    assert_eq!(
        bbncg_obs::counter_value(Counter::KernelPruneAbortSparse),
        0,
        "no sparse engine ran"
    );
    assert_eq!(
        bbncg_obs::counter_value(Counter::ClosedFormActivations),
        0,
        "a two-arc player keeps every activation on the kernels"
    );
}
