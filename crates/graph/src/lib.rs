//! Graph substrate for the bounded-budget network-creation-game
//! workspace (`bbncg`).
//!
//! Everything the game layer needs from graph theory lives here, built
//! from scratch for this reproduction:
//!
//! * [`OwnedDigraph`] — directed graphs where each arc is owned by its
//!   tail (the player who pays for it), the paper's realization object;
//! * [`Csr`] — the undirected underlying graph `U(G)` in compressed
//!   sparse row form, the structure all distances are measured in;
//! * [`CompactCsr`] — the same view editable in place, one strategy
//!   diff at a time, with no per-row padding: the deviation engine's
//!   store under every cost kernel;
//! * [`BfsScratch`] — allocation-free repeated BFS (the workspace's
//!   hottest loop);
//! * [`BitAdjacency`] / [`BitBfsScratch`] — word-parallel mirror of the
//!   same loop: n × ⌈n/64⌉ bit rows and a frontier-bitset BFS that
//!   produces identical [`BfsStats`] in `O(n²/64)` word ops per query
//!   (the deviation engine's `bitset` cost kernel);
//! * [`SparseSssp`] — decrease-only dynamic-SSSP repair that prices a
//!   candidate in time proportional to its *improved region* (the
//!   deviation engine's `sparse` cost kernel for n ≫ 10⁴);
//! * [`distance`] — eccentricities, diameter, distance sums and the
//!   all-pairs matrix, with parallel variants;
//! * [`mod@components`], [`cycles`], [`connectivity`] — the structural
//!   queries behind the paper's Theorems 3.x, 4.x and 7.2;
//! * [`generators`] — deterministic paper families (spider, perfect
//!   trees, shift graph) and seeded random families.

#![warn(missing_docs)]
// Index loops here typically walk several parallel arrays at once;
// the index form is clearer than zipped iterators in those spots.
#![allow(clippy::needless_range_loop)]

pub mod adjacency;
pub mod bfs;
pub mod bitadj;
pub mod bitbfs;
pub mod compact;
pub mod components;
pub mod connectivity;
pub mod csr;
pub mod cycles;
pub mod digraph;
pub mod distance;
pub mod dot;
pub mod generators;
pub mod metrics;
pub mod node;
pub mod sssp;

pub use adjacency::Adjacency;
pub use bfs::{BfsScratch, BfsStats, PriceBudget, UNREACHED};
pub use bitadj::BitAdjacency;
pub use bitbfs::BitBfsScratch;
pub use compact::CompactCsr;
pub use components::{component_count, components, components_into, is_connected, Components};
pub use connectivity::{
    articulation_points, is_k_connected, local_vertex_connectivity, menger_paths,
    vertex_connectivity,
};
pub use csr::Csr;
pub use cycles::{distance_to_set, two_core_mask, unique_cycle};
pub use digraph::OwnedDigraph;
pub use distance::{
    diameter, diameter_par, distance_sums, distance_sums_par, eccentricities, eccentricities_par,
    Diameter, DistanceMatrix,
};
pub use metrics::GraphMetrics;
pub use node::{node_ids, NodeId};
pub use sssp::{RepairOutcome, SparseSssp};
