//! Pluggable cost kernels for candidate pricing.
//!
//! A best-response step prices up to `C(n−1, b)` candidate strategies,
//! each via one single-source BFS or repair, so on most instances BFS
//! throughput *is* the throughput of dynamics, Nash audits and
//! scenario sweeps. The exception is the paper's unit-budget class:
//! when the player owns one arc and no player owns two, the engine
//! prices all `n − 1` candidates in one closed-form pass, under SUM or
//! MAX, and no kernel runs, nor builds any session state (an explicit
//! sharded executor still splits those activations onto the kernels,
//! and the Nash audits always enumerate on them). For everything else
//! the engine lets callers choose **how** the BFS runs. All three read
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
//!   for the dense, repeated queries of larger instances; an explicit
//!   choice is refused above [`CostKernel::BITSET_MAX_N`] vertices.
//! * [`CostKernel::Sparse`] — incremental repair over that CSR: a
//!   session's first kernel call runs one base BFS (nothing carries
//!   over to the next activation, and a session that never prices on
//!   the kernel runs none) and every candidate is priced by a decrease-only
//!   dynamic-SSSP repair
//!   ([`SparseSssp`](bbncg_graph::SparseSssp)), touching only the
//!   vertices the candidate actually improves, with landmark lower
//!   bounds (the base profile doubles as a free landmark) rejecting
//!   most candidates without touching the graph at all. No bitset
//!   mirror: `O(n + m)` memory, per-candidate time ∝ improved region.
//!   The tier that takes dynamics to n ≈ 10⁵–10⁶.
//! * [`CostKernel::Auto`] — pick by instance size
//!   ([`CostKernel::AUTO_BITSET_MIN_N`] / [`CostKernel::AUTO_BITSET_MAX_N`]).
//!
//! The swap rule prices no candidate through a kernel: its sweep
//! (`crate::sweep`) derives every single-arc swap's cost from one
//! bounded BFS per vertex, and the kernel only picks the sweep's form —
//! the bit mirror's rows under [`CostKernel::Bitset`], the
//! `CompactCsr` under the others. Per-candidate kernel pricing serves
//! the exact, greedy and better rules, the per-pair swap oracle
//! (`is_swap_equilibrium`) and the Nash audits.
//!
//! Every tier rejects candidates that cannot win part-way through
//! their pricing: a search hands the engine its incumbent, the engine
//! turns it into a [`PriceBudget`](bbncg_graph::PriceBudget), and the
//! traversal stops as soon as its own partial statistics prove the
//! final cost meets it — the queue and bitset BFS at the first
//! completed level that does, the sparse repair mid-level with sharper
//! bounds. Such a candidate could never strictly beat the incumbent,
//! so the abort changes no result.
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
    /// bitset kernel. A single-shot crossover probe of whole dynamics
    /// runs found the direction-optimized bitset BFS about even with the
    /// queue at n = 8 and ahead from n = 16 on; it predates both BFS
    /// kernels' level abort and has not been repeated. Below this the
    /// queue also avoids the mirror's footprint entirely.
    pub const AUTO_BITSET_MIN_N: usize = 16;

    /// Instance size past which [`CostKernel::Auto`] leaves the bitset
    /// tier: the bit mirror costs Θ(n²/8) bytes *per engine* (one per
    /// parallel worker) and a bitset level scan is Θ(n²/64) words, so
    /// for huge sparse instances the incremental-repair kernel wins on
    /// both memory and time.
    pub const AUTO_BITSET_MAX_N: usize = 8192;

    /// Largest instance an *explicit* [`CostKernel::Bitset`] may run
    /// on: its bit mirror takes n·⌈n/64⌉·8 bytes per engine — 32 MiB
    /// here, 1.25 GB at n = 10⁵ — and every serve worker and sharded
    /// helper builds one. Specs, `?kernel=` and `--kernel` asking for
    /// bitset above it are refused ([`CostKernel::check_size`]).
    /// [`CostKernel::Auto`] never picks bitset above
    /// [`CostKernel::AUTO_BITSET_MAX_N`], so it is unaffected.
    pub const BITSET_MAX_N: usize = 16_384;

    /// Refuse a kernel that cannot run on `n` vertices: an explicit
    /// bitset above [`CostKernel::BITSET_MAX_N`]. Every other kernel
    /// runs at any size.
    pub fn check_size(self, n: usize) -> Result<(), String> {
        if self == CostKernel::Bitset && n > Self::BITSET_MAX_N {
            return Err(format!(
                "kernel bitset reaches {n} vertices, over its {}-vertex cap \
                 (its bit matrix is n²/8 bytes per engine; use auto or sparse)",
                Self::BITSET_MAX_N
            ));
        }
        Ok(())
    }

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

    #[test]
    fn only_an_explicit_bitset_has_a_size_cap() {
        let cap = CostKernel::BITSET_MAX_N;
        assert!(CostKernel::AUTO_BITSET_MAX_N <= cap);
        assert_eq!(CostKernel::Bitset.check_size(cap), Ok(()));
        let err = CostKernel::Bitset.check_size(cap + 1).unwrap_err();
        assert!(err.contains("16384-vertex cap"), "{err}");
        for k in [CostKernel::Queue, CostKernel::Sparse, CostKernel::Auto] {
            assert_eq!(k.check_size(usize::MAX), Ok(()));
        }
    }
}
