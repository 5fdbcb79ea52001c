//! The **directed** bounded-budget connection (BBC) game of Laoutaris,
//! Poplawski, Rajaraman, Sundaram and Teng (PODC 2008) — the model the
//! reproduced paper builds on and contrasts itself against.
//!
//! Differences from the undirected `(b₁,…,bₙ)-BG` game implemented in
//! [`bbncg_core`]:
//!
//! * links are usable **only by their buyer's side** (`i → j` carries
//!   traffic from `i` toward `j` only), so distances are directed;
//! * best-response dynamics **provably may cycle** (Laoutaris et al.
//!   construct a loop), whereas the undirected game's convergence is
//!   the open problem of the reproduced paper's §8.
//!
//! This crate implements the directed game exactly (costs, exact best
//! responses, Nash verification, round-robin dynamics with cycle
//! detection) so the `e-directed-baseline` experiment can compare the
//! two models side by side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod game;

pub use dynamics::{hunt_for_cycles, run_directed_dynamics, DirectedDynamicsReport};
pub use game::{
    directed_best_response, directed_is_best_response, directed_is_nash, DirectedRealization,
};
