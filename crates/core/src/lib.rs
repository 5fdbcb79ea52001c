//! The bounded-budget network creation game (the paper's primary
//! contribution).
//!
//! Implements `(b₁,…,bₙ)-BG` of Ehsani et al. (SPAA 2011): each player
//! `i` owns exactly `bᵢ` arcs to other players and pays either its sum
//! of distances (SUM) or its local diameter (MAX) in the undirected
//! underlying graph, with cross-component distance `C_inf = n²`.
//!
//! Layer map:
//!
//! * [`budget`] — budget vectors and Table 1 instance classes;
//! * [`cost`] — the two cost functions;
//! * [`realization`] — strategy profiles as ownership digraphs with
//!   cached undirected views;
//! * [`cancel`] — cooperative cancellation tokens for long-running
//!   dynamics and the orchestrators/services built on them;
//! * [`deviation`] — allocation-free pricing of candidate deviations,
//!   kept in step with the profile move by move (the engine under
//!   everything else), plus the per-candidate Lemma 2.2 lower-bound
//!   pruning;
//! * [`oracle`] — sizing and lexicographic enumeration of a player's
//!   candidate strategies for the exact searches;
//! * [`kernel`] — the pluggable cost kernels behind the pricing path:
//!   word-parallel bitset BFS vs incremental sparse SSSP repair;
//! * `closed_form` (internal) — the unit-budget pricer that prices
//!   every single-arc candidate at once under SUM or MAX, bypassing the
//!   kernels, and gives such profiles their diameter in `O(n)`;
//! * [`best_response`] — exact (NP-hard, Theorem 2.1), greedy, and
//!   swap-restricted solvers;
//! * [`equilibrium`] — exact Nash verification, swap equilibria, and the
//!   Lemma 2.2 certificate;
//! * [`dynamics`] — best-response dynamics with cycle detection (the §8
//!   convergence question);
//! * [`round`] — round executors: sequential vs sharded candidate pricing
//!   inside each activation, step-identical by construction;
//! * [`poa`] — social cost and price-of-anarchy bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops here typically walk several parallel arrays at once;
// the index form is clearer than zipped iterators in those spots.
#![allow(clippy::needless_range_loop)]

pub mod best_response;
pub mod budget;
pub mod cancel;
mod closed_form;
pub mod cost;
pub mod deviation;
pub mod dynamics;
pub mod enumerate;
pub mod equilibrium;
pub mod io;
pub mod kernel;
#[cfg(any(test, feature = "naive-ref"))]
pub mod naive;
pub mod oracle;
pub mod poa;
pub mod realization;
pub mod round;
mod sweep;
pub mod weighted;

pub use best_response::{
    best_swap_response, best_swap_response_with, exact_best_response, exact_best_response_with,
    exact_candidates, first_improving_response, first_improving_response_with,
    greedy_best_response, greedy_best_response_with, ScoredStrategy, TooManyCandidates,
    MAX_EXACT_CANDIDATES,
};
pub use budget::{BudgetVector, InstanceClass};
pub use cancel::CancelToken;
pub use cost::{c_inf, vertex_cost, CostModel};
pub use deviation::DeviationScratch;
pub use dynamics::{
    run_dynamics, run_dynamics_traced, run_dynamics_with_kernel, run_dynamics_with_scratch,
    run_dynamics_with_scratch_cancellable, DynamicsConfig, DynamicsReport, PlayerOrder,
    ResponseRule, RoundTrace,
};
pub use enumerate::{
    decode_profile, exact_game_stats, profile_count, ExactGameStats, MAX_PROFILES,
};
pub use equilibrium::{
    audit_equilibrium, audit_equilibrium_with_kernel, audit_equilibrium_with_opts,
    best_response_gap, find_violation, find_violation_with_kernel, is_best_response,
    is_best_response_with, is_nash_equilibrium, is_nash_equilibrium_with_kernel,
    is_swap_equilibrium, is_swap_equilibrium_with_kernel, lemma22_certifies, lemma22_certifies_all,
    NashAudit, Violation,
};
pub use io::{
    parse_realization, parse_snapshot, write_realization, write_snapshot, ParseError, Snapshot,
};
pub use kernel::CostKernel;
pub use oracle::{enumeration_count, CombinationOdometer};
pub use poa::{opt_diameter_lower_bound, social_cost, PoAEstimate};
pub use realization::Realization;
pub use round::RoundExecutor;
pub use weighted::WeightedGraph;
