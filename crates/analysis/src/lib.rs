//! Structure analyzers and the experiment framework for the `bbncg`
//! reproduction.
//!
//! Each analyzer mechanizes one of the paper's structural theorems so
//! experiments can verify it on concrete equilibria:
//!
//! * [`mod@unit_structure`] — Theorems 4.1/4.2 (all-unit budgets: unique
//!   short cycle, everything near it);
//! * [`mod@path_decomposition`] — Theorem 3.3 / Figure 3 (tree equilibria:
//!   subtree weights double along a diametral path);
//! * [`expansion`] — Theorem 6.9's `f(r) = min_u |B_r(u)|` profile;
//! * [`dichotomy`] — Theorem 7.2 (budgets ≥ k ⟹ diameter < 4 or
//!   k-connected);
//! * [`sampling`] — parallel equilibrium sampling via best-response
//!   dynamics (the empirical Table 1 engine);
//! * [`table`] — markdown/CSV rendering for the experiments harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops here typically walk several parallel arrays at once;
// the index form is clearer than zipped iterators in those spots.
#![allow(clippy::needless_range_loop)]

pub mod convergence;
pub mod dichotomy;
pub mod expansion;
pub mod path_decomposition;
pub mod poa_scan;
pub mod sampling;
pub mod table;
pub mod unit_structure;

pub use convergence::{summarize_trace, TraceSummary};
pub use dichotomy::{connectivity_dichotomy, DichotomyReport};
pub use expansion::{expansion_profile, half_coverage_radius};
pub use path_decomposition::{path_decomposition, PathDecomposition};
pub use poa_scan::{scan, PoAPoint};
pub use sampling::{residual_gaps, sample_equilibria, summarize, Sample, SampleStats};
pub use table::Table;
pub use unit_structure::{unit_structure, UnitStructure};
