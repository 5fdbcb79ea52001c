//! Pluggable cost kernels for candidate pricing.
//!
//! Every best-response step prices `O(C(n−1, b))` candidate strategies,
//! each via one single-source BFS, so BFS throughput *is* the
//! throughput of dynamics, Nash audits and scenario sweeps. The engine
//! therefore lets callers choose **how** that BFS runs. All three read
//! the same editable undirected store, a slack-free
//! [`CompactCsr`](bbncg_graph::CompactCsr) kept in step with the
//! profile one strategy diff at a time:
//!
//! * [`CostKernel::Queue`] — the classic stamped queue BFS
//!   ([`BfsScratch`](bbncg_graph::BfsScratch)): `O(n + m)` per query,
//!   branchy but with no per-level overhead. Best for small instances.
//! * [`CostKernel::Bitset`] — the word-parallel frontier-bitset BFS
//!   ([`BitBfsScratch`](bbncg_graph::BitBfsScratch)) over a
//!   [`BitAdjacency`](bbncg_graph::BitAdjacency) mirror maintained
//!   incrementally through patch sessions: `O(n²/64)` word ops per
//!   query, branch-light and cache-linear. A large constant-factor win
//!   for the dense, repeated queries of larger instances.
//! * [`CostKernel::Sparse`] — incremental repair over that CSR: the
//!   session's base BFS is computed once per activation and every
//!   candidate is priced by a decrease-only dynamic-SSSP repair
//!   ([`SparseSssp`](bbncg_graph::SparseSssp)), touching only the
//!   vertices the candidate actually improves, with landmark lower
//!   bounds (the base profile doubles as a free landmark) rejecting
//!   most candidates without touching the graph at all. No bitset
//!   mirror: `O(n + m)` memory, per-candidate time ∝ improved region.
//!   The tier that takes dynamics to n ≈ 10⁵–10⁶.
//! * [`CostKernel::Auto`] — pick by instance size
//!   ([`CostKernel::AUTO_BITSET_MIN_N`] / [`CostKernel::AUTO_BITSET_MAX_N`]).
//!
//! The kernels are **move-for-move equivalent**: all produce identical
//! [`BfsStats`](bbncg_graph::BfsStats) for every candidate, hence
//! identical costs, identical tie-breaking, and bit-identical dynamics
//! trajectories, checkpoints and resumes (enforced by the parity
//! proptests in `crates/core/tests/kernel_parity.rs` and the graph
//! crate's property suite). Choosing a kernel is purely a performance
//! decision.

/// Which BFS machinery prices candidate deviations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CostKernel {
    /// Stamped queue BFS over the compact CSR (`O(n + m)` per query).
    Queue,
    /// Word-parallel frontier-bitset BFS over a bit-matrix mirror
    /// (`O(n²/64)` word ops per query).
    Bitset,
    /// Decrease-only dynamic-SSSP repair over the compact CSR
    /// (per-candidate time ∝ improved region, `O(n + m)` memory).
    Sparse,
    /// Resolve by instance size: queue below
    /// [`CostKernel::AUTO_BITSET_MIN_N`], bitset up to
    /// [`CostKernel::AUTO_BITSET_MAX_N`], sparse above.
    #[default]
    Auto,
}

impl CostKernel {
    /// Instance size at which [`CostKernel::Auto`] switches to the
    /// bitset kernel. The direction-optimized bitset BFS beats the
    /// queue at every size the `bench_snapshot` crossover probe
    /// measured (n = 8 was already ~even, n ≥ 16 a clear win); below
    /// this the difference is noise and the queue avoids the mirror's
    /// footprint entirely.
    pub const AUTO_BITSET_MIN_N: usize = 16;

    /// Instance size past which [`CostKernel::Auto`] leaves the bitset
    /// tier: the bit mirror costs Θ(n²/8) bytes *per engine* (one per
    /// parallel worker) and a bitset level scan is Θ(n²/64) words, so
    /// for huge sparse instances the incremental-repair kernel wins on
    /// both memory and time.
    pub const AUTO_BITSET_MAX_N: usize = 8192;

    /// The concrete kernel used for an `n`-vertex instance
    /// (never returns [`CostKernel::Auto`]).
    pub fn resolve(self, n: usize) -> CostKernel {
        match self {
            CostKernel::Auto => {
                if n < Self::AUTO_BITSET_MIN_N {
                    CostKernel::Queue
                } else if n <= Self::AUTO_BITSET_MAX_N {
                    CostKernel::Bitset
                } else {
                    CostKernel::Sparse
                }
            }
            k => k,
        }
    }

    /// Spec/CLI label (`"queue"`, `"bitset"`, `"sparse"`, `"auto"`).
    pub fn label(self) -> &'static str {
        match self {
            CostKernel::Queue => "queue",
            CostKernel::Bitset => "bitset",
            CostKernel::Sparse => "sparse",
            CostKernel::Auto => "auto",
        }
    }

    /// Parse a spec/CLI label.
    pub fn parse(s: &str) -> Result<CostKernel, String> {
        match s {
            "queue" => Ok(CostKernel::Queue),
            "bitset" => Ok(CostKernel::Bitset),
            "sparse" => Ok(CostKernel::Sparse),
            "auto" => Ok(CostKernel::Auto),
            other => Err(format!(
                "unknown kernel {other:?} (queue|bitset|sparse|auto)"
            )),
        }
    }
}

impl std::fmt::Display for CostKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for k in [
            CostKernel::Queue,
            CostKernel::Bitset,
            CostKernel::Sparse,
            CostKernel::Auto,
        ] {
            assert_eq!(CostKernel::parse(k.label()), Ok(k));
            assert_eq!(format!("{k}"), k.label());
        }
        assert!(CostKernel::parse("warp").is_err());
    }

    #[test]
    fn auto_resolves_by_size() {
        assert_eq!(CostKernel::Auto.resolve(8), CostKernel::Queue);
        assert_eq!(
            CostKernel::Auto.resolve(CostKernel::AUTO_BITSET_MIN_N),
            CostKernel::Bitset
        );
        assert_eq!(
            CostKernel::Auto.resolve(CostKernel::AUTO_BITSET_MAX_N),
            CostKernel::Bitset
        );
        assert_eq!(
            CostKernel::Auto.resolve(CostKernel::AUTO_BITSET_MAX_N + 1),
            CostKernel::Sparse
        );
        assert_eq!(CostKernel::Auto.resolve(1_000_000), CostKernel::Sparse);
        // Explicit choices are size-independent.
        assert_eq!(CostKernel::Queue.resolve(10_000), CostKernel::Queue);
        assert_eq!(CostKernel::Bitset.resolve(2), CostKernel::Bitset);
        assert_eq!(CostKernel::Sparse.resolve(4), CostKernel::Sparse);
    }
}
