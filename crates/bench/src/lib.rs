//! Experiment implementations for the `bbncg` reproduction.
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper (`experiments --list` prints the ids); run them with
//!
//! ```text
//! cargo run -p bbncg-bench --release --bin experiments            # all
//! cargo run -p bbncg-bench --release --bin experiments -- t1-unit # one
//! cargo run -p bbncg-bench --release --bin experiments -- --csv … # CSV
//! ```
//!
//! The crate's other binary, `obs_guard`, guards the observability
//! registry's zero-cost-when-off promise. Performance is measured by
//! the separate `benchmark/` package.

#![forbid(unsafe_code)]

pub mod experiments;
