//! Declarative scenario engine for bounded-budget network creation
//! games.
//!
//! The paper's §8 convergence question — *do best-response dynamics
//! converge from arbitrary starting positions?* — is only as rich as
//! the positions and processes one can express. This crate turns the
//! core deviation engine into a general workload runner: experiments
//! are **scenario spec files** (a TOML subset, parsed by [`toml`])
//! describing an initial state, default dynamics parameters, and a
//! timeline of dynamics phases interleaved with **perturbation
//! events** — agent arrival/departure, budget shocks, adversarial edge
//! deletion, reseeded re-orientation ([`events`]).
//!
//! The orchestrator ([`engine`]) runs one seed or a parallel seed
//! sweep (one deviation engine per worker via
//! `bbncg_par::par_map_init`), emits one JSONL [`MetricRecord`] per
//! phase through a pluggable [`MetricSink`], and supports
//! **checkpoint/resume**: the profile plus the exact RNG stream
//! position freeze into a [`Checkpoint`] (persisted through the
//! `bbncg_core::io` snapshot format), and a killed run resumes
//! bit-identically — the resumed trajectory's final state hash equals
//! the uninterrupted run's.
//!
//! ```
//! use bbncg_scenario::{parse_spec, run_scenario, MemorySink};
//!
//! let spec = parse_spec(
//!     r#"
//! [scenario]
//! name = "doc"
//! [init]
//! family = "uniform"
//! n = 8
//! budget = 1
//! [[phase]]
//! kind = "dynamics"
//! [[phase]]
//! kind = "arrive"
//! count = 2
//! budget = 1
//! [[phase]]
//! kind = "dynamics"
//! "#,
//! )
//! .unwrap();
//! let mut sink = MemorySink::default();
//! let out = run_scenario(&spec, 1, None, &mut sink, None, |_| ()).unwrap();
//! assert!(out.completed);
//! assert_eq!(out.state.n(), 10);
//! assert_eq!(sink.records.len(), 4); // 3 phases + summary
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod events;
pub mod sink;
pub mod spec;
pub mod toml;

pub use engine::{
    run_scenario, run_scenario_with_engine, run_sweep, run_sweep_cancellable, state_hash,
    Checkpoint, RunOutcome,
};
pub use sink::{
    JsonlSink, MemorySink, MetricRecord, MetricSink, NullSink, StringSink, SCHEMA_VERSION,
};
pub use spec::{fnv1a, parse_spec, InitSpec, PhaseSpec, ScenarioSpec, Variant};
pub use toml::SpecError;
