//! `bbncg` — **b**ounded **b**udget **n**etwork **c**reation **g**ames.
//!
//! A production-quality Rust reproduction of *“On a Bounded Budget
//! Network Creation Game”* (Ehsani, Shokat Fadaee, Fazli, Mehrabian,
//! Sadeghian Sadeghabad, Safari, Saghafian — SPAA 2011). Players are
//! vertices with a fixed budget of links to buy; costs are either the
//! sum of distances (SUM) or the local diameter (MAX) in the undirected
//! underlying graph. This crate is a facade re-exporting the workspace:
//!
//! * [`graph`] — graph substrate (ownership digraphs, BFS, distances,
//!   connectivity, generators, and the in-place-editable
//!   [`CompactCsr`](graph::CompactCsr));
//! * [`game`] — the game itself (instances, costs, best responses,
//!   equilibria, dynamics, price of anarchy), built on the
//!   allocation-free deviation engine
//!   ([`DeviationScratch`](game::DeviationScratch)) and the batched
//!   parallel Nash audit ([`audit_equilibrium`](game::audit_equilibrium));
//! * [`constructions`] — the paper's explicit equilibria (Theorem 2.3,
//!   the Figure 2 spider, the Theorem 3.4 binary tree, the Theorem 5.3
//!   shift-graph equilibrium);
//! * [`facility`] — k-center / k-median solvers and the Theorem 2.1
//!   NP-hardness reductions;
//! * [`analysis`] — structure analyzers and the experiment framework
//!   regenerating every table and figure of the paper;
//! * [`scenario`] — the declarative scenario engine: spec files,
//!   perturbation events (churn, budget shocks, adversarial deletion),
//!   checkpoint/resume, streaming JSONL metric sinks;
//! * [`serve`] — the dependency-free HTTP job server: scenario/verify
//!   jobs over a bounded queue and worker pool, chunked JSONL result
//!   streams byte-identical to offline runs;
//! * [`par`] — the minimal parallel-execution substrate;
//! * [`obs`] — zero-cost-when-off observability: the sharded metrics
//!   registry behind `GET /metrics` and the span-tracing layer behind
//!   `--trace`.
//!
//! # Quickstart
//!
//! ```
//! use bbncg::constructions::spider_equilibrium;
//! use bbncg::game::{is_nash_equilibrium, CostModel};
//!
//! // The Theorem 3.2 spider with legs of length 3 (n = 10): a MAX
//! // equilibrium tree of diameter 2k = 6.
//! let eq = spider_equilibrium(3);
//! assert_eq!(eq.realization.diameter().unwrap(), 6);
//!
//! // Verify no player can improve by deviating (exact check).
//! assert!(is_nash_equilibrium(&eq.realization, CostModel::Max));
//! ```

#![forbid(unsafe_code)]

pub use bbncg_analysis as analysis;
pub use bbncg_constructions as constructions;
pub use bbncg_core as game;
pub use bbncg_directed as directed;
pub use bbncg_facility as facility;
pub use bbncg_graph as graph;
pub use bbncg_obs as obs;
pub use bbncg_par as par;
pub use bbncg_scenario as scenario;
pub use bbncg_serve as serve;
