//! Explicit equilibrium constructions from Ehsani et al. (SPAA 2011).
//!
//! Each construction returns a concrete [`Realization`] whose
//! equilibrium property is verified in this crate's tests — exactly
//! (exhaustive deviation search) for small instances, and by the
//! paper's own certificates (Lemma 2.2, Lemma 5.2) for the large ones.
//!
//! * [`theorem23_equilibrium`] — a Nash equilibrium (both versions) for
//!   **every** budget vector; proves existence and PoS = O(1). Includes
//!   the paper's Figure 1 instance ([`figure1_budgets`]).
//! * [`spider_equilibrium`] — Theorem 3.2 / Figure 2: MAX tree
//!   equilibrium with diameter Θ(n).
//! * [`binary_tree_equilibrium`] — Theorem 3.4: SUM tree equilibrium
//!   with diameter Θ(log n).
//! * [`shift_equilibrium`] — Theorem 5.3: MAX equilibrium with all
//!   budgets positive and diameter √(log n) (Braess-like
//!   non-monotonicity).
//!
//! [`Realization`]: bbncg_core::Realization

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index loops here typically walk several parallel arrays at once;
// the index form is clearer than zipped iterators in those spots.
#![allow(clippy::needless_range_loop)]

pub mod shift;
pub mod theorem23;
pub mod trees;

pub use shift::{lemma52_condition, shift_equilibrium, shift_equilibrium_with, ShiftEquilibrium};
pub use theorem23::{figure1_budgets, theorem23_equilibrium, Theorem23Case, Theorem23Construction};
pub use trees::{binary_tree_equilibrium, spider_equilibrium, ConstructedEquilibrium};
