//! `bbncg-obs` — zero-cost-when-off observability for the `bbncg`
//! workspace.
//!
//! Two orthogonal layers, both **off by default** and **one-way
//! enabled** for the process:
//!
//! * [`registry`] — a sharded metrics registry with a fixed catalogue
//!   of saturating monotonic [`Counter`]s, instantaneous [`Gauge`]s,
//!   and power-of-two-bucket [`Histogram`]s (p50/p90/p99 extraction
//!   via [`HistogramSnapshot`]). Writes land in per-thread shards of
//!   static atomics, so concurrent workers never contend; while
//!   disabled every write is a single relaxed load and an early
//!   return.
//! * [`trace`] — lightweight span tracing ([`span`] guards timed on a
//!   process-monotonic clock) emitted as JSONL [`TraceRecord`]s
//!   through an installable [`TraceSink`]. Trace output is a separate
//!   stream from scenario metric JSONL by construction, keeping the
//!   byte-diff CI on metric records untouched.
//!
//! [`prom`] renders the registry in Prometheus text exposition format
//! (the `GET /metrics` payload) and ships the tiny syntax checker the
//! CI scrape-smoke job validates it with.
//!
//! # Who calls what
//!
//! The layers above wire in as follows: `DeviationScratch` keeps
//! plain local tallies and flushes them per pricing session;
//! `round.rs` executors count windows/commits/discards; the scenario
//! engine wraps phases, events, and sweep seeds in spans and
//! duration histograms; `bbncg-serve` serves [`render_prometheus`]
//! at `GET /metrics` and times every endpoint. Enabling is wired to
//! the `--obs` CLI flag, the `[obs]` scenario-spec section, and
//! `ServerConfig`.
//!
//! # Example
//!
//! ```
//! use bbncg_obs::{Counter, Histogram};
//!
//! bbncg_obs::enable();
//! bbncg_obs::counter_add(Counter::DynamicsSteps, 3);
//! bbncg_obs::observe(Histogram::RepairAffected, 8);
//! assert!(bbncg_obs::counter_value(Counter::DynamicsSteps) >= 3);
//! let page = bbncg_obs::render_prometheus();
//! bbncg_obs::validate_exposition(&page).unwrap();
//! ```

#![warn(missing_docs)]

pub mod prom;
pub mod registry;
pub mod trace;

pub use prom::{render_prometheus, validate_exposition};
pub use registry::{
    bucket_index, counter_add, counter_inc, counter_value, enable, enabled, gauge_set, gauge_value,
    histogram_snapshot, observe, reset, Counter, Gauge, Histogram, HistogramSnapshot, NBUCKETS,
    SHARDS,
};
pub use trace::{
    flush_tracer, install_tracer, span, trace_enabled, JsonlTraceSink, MemoryTraceSink, Span,
    TraceRecord, TraceSink,
};
