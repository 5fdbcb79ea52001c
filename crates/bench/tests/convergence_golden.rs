//! The E-convergence main table, pinned to history.
//!
//! `golden/e_convergence.md` was generated while the hand-coded
//! `sample_equilibria` sampler still ran beside the scenario engine and
//! both produced it cell for cell, so it stands for both stacks. Any
//! drift in seeding, initial-profile generation or dynamics
//! trajectories breaks this test. A change that alters the table on
//! purpose regenerates the file from `e_convergence()[0].to_markdown()`
//! and says why in CHANGES.md.

use bbncg_bench::experiments::e_convergence;

const GOLDEN: &str = include_str!("golden/e_convergence.md");

#[test]
fn e_convergence_matches_its_golden_table() {
    let table = &e_convergence()[0];
    assert_eq!(table.to_markdown(), GOLDEN);
}
