//! Facility-location substrate: k-center, k-median, and the Theorem 2.1
//! reductions.
//!
//! Theorem 2.1 of the paper proves best-response computation NP-hard by
//! reduction **from** k-center (MAX version) and k-median (SUM
//! version). This crate implements both problems — greedy /
//! local-search heuristics plus exact small-instance solvers — and the
//! reduction itself, wired so that the game's exact best-response
//! solver and the facility solvers can cross-validate each other
//! (experiment `e-nphard`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops here typically walk several parallel arrays at once;
// the index form is clearer than zipped iterators in those spots.
#![allow(clippy::needless_range_loop)]

pub mod dominating;
pub mod kcenter;
pub mod kmedian;
pub mod reduction;

pub use dominating::{kcenter_branch_bound, kcenter_decision};
pub use kcenter::{covering_radius, kcenter_exact, kcenter_greedy};
pub use kmedian::{assignment_cost, kmedian_exact, kmedian_greedy, kmedian_local_search};
pub use reduction::{
    kcenter_via_best_response, kmedian_via_best_response, reduction_instance, verify_reduction,
};
