//! Exhaustive enumeration of the realization space.
//!
//! A `(b₁,…,bₙ)-BG` instance has `Π C(n−1, bᵢ)` strategy profiles. For
//! small instances we can enumerate them all, verify Nash for each,
//! and read off the **exact** price of anarchy and price of stability —
//! the quantities the paper bounds asymptotically in Table 1. The
//! profile space is indexed by a mixed-radix code (one combination rank
//! per player), so enumeration parallelizes by index range and any
//! profile can be decoded directly via combination unranking.

use crate::budget::BudgetVector;
use crate::cost::c_inf;
use crate::deviation::DeviationScratch;
use crate::equilibrium::is_best_response_with;
use crate::oracle::enumeration_count;
use crate::realization::Realization;
use bbncg_graph::{NodeId, OwnedDigraph};

/// Default cap on exhaustive profile enumeration.
pub const MAX_PROFILES: u64 = 5_000_000;

/// Profiles one worker folds per claim in [`exact_game_stats`]: enough
/// that a claim costs far less than the Nash checks it hands out, few
/// enough that 10⁶ profiles still spread over every worker.
const CENSUS_CHUNK: u64 = 1024;

/// Number of strategy profiles of the instance (saturating).
pub fn profile_count(b: &BudgetVector) -> u64 {
    let n = b.n();
    let mut total: u64 = 1;
    for i in 0..n {
        let c = enumeration_count(n - 1, b.get(i));
        total = match total.checked_mul(c) {
            Some(x) => x,
            None => return u64::MAX,
        };
    }
    total
}

/// Unrank the `r`-th `k`-subset of `0..m` in lexicographic order.
///
/// # Panics
/// Panics if `r ≥ C(m, k)` (callers stay below [`MAX_PROFILES`], far
/// from `u64` saturation).
fn unrank_combination(m: usize, k: usize, mut r: u64, out: &mut Vec<usize>) {
    out.clear();
    let mut x = 0usize;
    for j in 0..k {
        loop {
            // Number of k-subsets beginning with x given j slots filled.
            let count = enumeration_count(m - x - 1, k - j - 1);
            if r < count {
                out.push(x);
                x += 1;
                break;
            }
            r -= count;
            x += 1;
            assert!(x < m, "combination rank out of range");
        }
    }
}

/// Decode profile index `idx` into a realization of `b`.
///
/// The index is a mixed-radix number: the least-significant digit is
/// player 0's combination rank.
pub fn decode_profile(b: &BudgetVector, mut idx: u64) -> OwnedDigraph {
    let n = b.n();
    let mut out_lists: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    for u in 0..n {
        let k = b.get(u);
        let radix = enumeration_count(n - 1, k);
        let rank = idx % radix;
        idx /= radix;
        unrank_combination(n - 1, k, rank, &mut scratch);
        // Pool for player u is 0..n minus u, in order: pool[j] = j for
        // j < u, else j + 1.
        let targets: Vec<NodeId> = scratch
            .iter()
            .map(|&j| NodeId::new(if j < u { j } else { j + 1 }))
            .collect();
        out_lists.push(targets);
    }
    OwnedDigraph::from_out_lists(out_lists)
}

/// Exact equilibrium statistics of an instance, from exhaustive
/// enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactGameStats {
    /// Profiles enumerated.
    pub profiles: u64,
    /// Profiles that are Nash equilibria.
    pub equilibria: u64,
    /// Minimum social diameter over **all** profiles (the OPT of the
    /// PoA/PoS denominators).
    pub opt_diameter: u64,
    /// Smallest equilibrium diameter (PoS numerator); `u64::MAX` if no
    /// equilibrium exists (never the case — Theorem 2.3).
    pub best_equilibrium_diameter: u64,
    /// Largest equilibrium diameter (PoA numerator); 0 if none.
    pub worst_equilibrium_diameter: u64,
}

impl ExactGameStats {
    /// The statistics of two disjoint sets of profiles together.
    fn merge(self, x: Self) -> Self {
        ExactGameStats {
            profiles: self.profiles + x.profiles,
            equilibria: self.equilibria + x.equilibria,
            opt_diameter: self.opt_diameter.min(x.opt_diameter),
            best_equilibrium_diameter: self
                .best_equilibrium_diameter
                .min(x.best_equilibrium_diameter),
            worst_equilibrium_diameter: self
                .worst_equilibrium_diameter
                .max(x.worst_equilibrium_diameter),
        }
    }

    /// Exact price of anarchy.
    pub fn poa(&self) -> f64 {
        self.worst_equilibrium_diameter as f64 / self.opt_diameter as f64
    }

    /// Exact price of stability.
    pub fn pos(&self) -> f64 {
        self.best_equilibrium_diameter as f64 / self.opt_diameter as f64
    }
}

/// Enumerate every profile of `b`, verify Nash for each, and return the
/// exact statistics. Parallel over the profile index space: workers
/// claim chunks of it and check every player of every profile in a
/// chunk on one [`DeviationScratch`] per worker. The result is a sum,
/// a minimum and a maximum, so it is the same at every thread count.
///
/// ```
/// use bbncg_core::{exact_game_stats, BudgetVector, CostModel};
///
/// // (1,1,1)-BG has 8 profiles; the two directed triangles are its
/// // equilibria and its optimum diameter is 1, so PoA = PoS = 1.
/// let stats = exact_game_stats(&BudgetVector::uniform(3, 1), CostModel::Sum, 1000);
/// assert_eq!(stats.profiles, 8);
/// assert_eq!(stats.opt_diameter, 1);
/// assert_eq!(stats.poa(), 1.0);
/// ```
///
/// # Panics
/// Panics if the profile space exceeds `limit` (pass
/// [`MAX_PROFILES`] for the default guard).
pub fn exact_game_stats(
    b: &BudgetVector,
    model: crate::cost::CostModel,
    limit: u64,
) -> ExactGameStats {
    let total = profile_count(b);
    assert!(
        total <= limit,
        "instance has {total} profiles (> limit {limit})"
    );
    let n = b.n();
    let identity = ExactGameStats {
        profiles: 0,
        equilibria: 0,
        opt_diameter: c_inf(n),
        best_equilibrium_diameter: u64::MAX,
        worst_equilibrium_diameter: 0,
    };
    let chunks = bbncg_par::par_map_init(
        total.div_ceil(CENSUS_CHUNK) as usize,
        || DeviationScratch::new(&Realization::new(decode_profile(b, 0))),
        |scratch, chunk| {
            let start = chunk as u64 * CENSUS_CHUNK;
            (start..total.min(start + CENSUS_CHUNK)).fold(identity, |acc, idx| {
                let r = Realization::new(decode_profile(b, idx));
                let diam = r.social_diameter();
                let is_eq =
                    (0..n).all(|u| is_best_response_with(scratch, &r, NodeId::new(u), model));
                acc.merge(ExactGameStats {
                    profiles: 1,
                    equilibria: is_eq as u64,
                    opt_diameter: diam,
                    best_equilibrium_diameter: if is_eq { diam } else { u64::MAX },
                    worst_equilibrium_diameter: if is_eq { diam } else { 0 },
                })
            })
        },
    );
    chunks.into_iter().fold(identity, ExactGameStats::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::equilibrium::is_nash_equilibrium;

    #[test]
    fn profile_count_small() {
        assert_eq!(profile_count(&BudgetVector::uniform(3, 1)), 8); // 2^3
        assert_eq!(profile_count(&BudgetVector::uniform(4, 1)), 81); // 3^4
        assert_eq!(profile_count(&BudgetVector::new(vec![2, 0, 0])), 1); // C(2,2)
    }

    #[test]
    fn decode_enumerates_distinct_profiles() {
        let b = BudgetVector::uniform(4, 1);
        let total = profile_count(&b);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let g = decode_profile(&b, idx);
            assert_eq!(g.out_degrees(), vec![1, 1, 1, 1]);
            assert!(seen.insert(g), "duplicate profile at index {idx}");
        }
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn unrank_matches_odometer() {
        use crate::oracle::CombinationOdometer;
        let (m, k) = (6usize, 3usize);
        let mut od = CombinationOdometer::new(m, k);
        let mut scratch = Vec::new();
        let mut rank = 0u64;
        loop {
            unrank_combination(m, k, rank, &mut scratch);
            assert_eq!(scratch.as_slice(), od.indices(), "rank {rank}");
            rank += 1;
            if !od.advance() {
                break;
            }
        }
        assert_eq!(rank, enumeration_count(m, k));
    }

    #[test]
    fn exact_stats_on_three_unit_players() {
        // (1,1,1)-BG: 8 profiles. Equilibria include the directed
        // triangle(s); OPT diameter is 1 (triangle).
        let b = BudgetVector::uniform(3, 1);
        for model in CostModel::ALL {
            let stats = exact_game_stats(&b, model, 1000);
            assert_eq!(stats.profiles, 8);
            assert!(stats.equilibria >= 2); // both triangle orientations
            assert_eq!(stats.opt_diameter, 1);
            assert_eq!(stats.best_equilibrium_diameter, 1);
            assert!(stats.pos() >= 1.0);
            assert!(stats.poa() >= stats.pos());
        }
    }

    #[test]
    fn exact_stats_agree_with_nash_checker() {
        // Spot-check: every profile the enumerator counts as an
        // equilibrium passes the public checker, and vice versa.
        let b = BudgetVector::new(vec![1, 1, 1, 0]);
        let total = profile_count(&b);
        let mut eq_count = 0;
        for idx in 0..total {
            let r = Realization::new(decode_profile(&b, idx));
            if is_nash_equilibrium(&r, CostModel::Sum) {
                eq_count += 1;
            }
        }
        let stats = exact_game_stats(&b, CostModel::Sum, 1000);
        assert_eq!(stats.equilibria, eq_count);
    }

    #[test]
    fn unit_budget_poa_is_small_exactly() {
        // Table 1's Θ(1) all-unit row, exactly, at n = 5: worst
        // equilibrium diameter ≤ 4 (SUM) / 7 (MAX).
        let b = BudgetVector::uniform(5, 1);
        let sum = exact_game_stats(&b, CostModel::Sum, 10_000);
        assert!(sum.worst_equilibrium_diameter < 5);
        let max = exact_game_stats(&b, CostModel::Max, 10_000);
        assert!(max.worst_equilibrium_diameter < 8);
        assert!(sum.equilibria > 0 && max.equilibria > 0);
    }

    #[test]
    #[should_panic(expected = "profiles")]
    fn limit_guard_trips() {
        let b = BudgetVector::uniform(10, 3);
        exact_game_stats(&b, CostModel::Sum, 10);
    }
}
