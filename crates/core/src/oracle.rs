//! Enumeration helpers for the exact searches over strategy space.
//!
//! A player with budget `b` has `C(n−1, b)` candidate strategies —
//! Theorem 2.1 says finding the best one is NP-hard, and exhaustive
//! search over them is exactly what the exact solver does.
//! [`enumeration_count`] sizes that search (saturating, so callers can
//! refuse it before it starts), and [`CombinationOdometer`] walks it in
//! lexicographic order without allocating per step, resumable from any
//! leading element so a range of leads is a contiguous slice of the
//! enumeration. Pricing each candidate is the deviation engine's job
//! ([`DeviationScratch`](crate::DeviationScratch)).

/// Number of `b`-subsets of an `m`-element pool, saturating at
/// `u64::MAX`. Used to guard exact enumeration.
pub fn enumeration_count(m: usize, b: usize) -> u64 {
    if b > m {
        return 0;
    }
    let b = b.min(m - b);
    let mut acc: u64 = 1;
    for i in 0..b {
        // acc * (m - i) / (i + 1), with overflow saturation.
        match acc.checked_mul((m - i) as u64) {
            Some(x) => acc = x / (i as u64 + 1),
            None => return u64::MAX,
        }
    }
    acc
}

/// Lexicographic odometer over `k`-subsets of `0..m`, lending-style:
/// call [`CombinationOdometer::indices`] to read the current subset and
/// [`CombinationOdometer::advance`] to step. Starts at `{0,1,…,k−1}`.
#[derive(Debug)]
pub struct CombinationOdometer {
    m: usize,
    idx: Vec<usize>,
}

impl CombinationOdometer {
    /// First `k`-subset of `0..m`.
    ///
    /// # Panics
    /// Panics if `k > m`.
    pub fn new(m: usize, k: usize) -> Self {
        Self::from_lead(m, k, 0)
    }

    /// First `k`-subset of `0..m` whose smallest element is `lead`:
    /// `{lead, lead+1, …, lead+k−1}`. Enumeration from here visits, in
    /// lexicographic order, every subset whose smallest element is
    /// `≥ lead` — so a range of leading elements is a contiguous
    /// stretch of the full enumeration.
    ///
    /// # Panics
    /// Panics if `k > m` or the subset does not fit (`lead + k > m`).
    pub fn from_lead(m: usize, k: usize, lead: usize) -> Self {
        assert!(k <= m, "cannot choose {k} from {m}");
        assert!(lead + k <= m, "no {k}-subset of 0..{m} starts at {lead}");
        CombinationOdometer {
            m,
            idx: (lead..lead + k).collect(),
        }
    }

    /// The current subset, strictly increasing.
    pub fn indices(&self) -> &[usize] {
        &self.idx
    }

    /// The current subset's smallest element (0 for the empty subset,
    /// which by convention leads with element 0).
    pub fn lead(&self) -> usize {
        self.idx.first().copied().unwrap_or(0)
    }

    /// Step to the next subset in lexicographic order; `false` when
    /// exhausted.
    pub fn advance(&mut self) -> bool {
        let k = self.idx.len();
        if k == 0 {
            return false;
        }
        let mut i = k;
        while i > 0 {
            i -= 1;
            if self.idx[i] != i + self.m - k {
                self.idx[i] += 1;
                for j in i + 1..k {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_count_small_values() {
        assert_eq!(enumeration_count(5, 0), 1);
        assert_eq!(enumeration_count(5, 2), 10);
        assert_eq!(enumeration_count(5, 5), 1);
        assert_eq!(enumeration_count(5, 6), 0);
        assert_eq!(enumeration_count(50, 25), 126_410_606_437_752);
        assert_eq!(enumeration_count(200, 100), u64::MAX); // saturates
    }

    #[test]
    fn odometer_enumerates_all_subsets_in_lex_order() {
        let mut od = CombinationOdometer::new(4, 2);
        let mut seen = vec![od.indices().to_vec()];
        while od.advance() {
            seen.push(od.indices().to_vec());
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn odometer_from_lead_resumes_the_full_enumeration() {
        let mut full = CombinationOdometer::new(5, 2);
        let mut all = vec![full.indices().to_vec()];
        while full.advance() {
            all.push(full.indices().to_vec());
        }
        for lead in 0..4 {
            let mut od = CombinationOdometer::from_lead(5, 2, lead);
            assert_eq!(od.lead(), lead);
            let mut tail = vec![od.indices().to_vec()];
            while od.advance() {
                tail.push(od.indices().to_vec());
            }
            let skip = all.iter().position(|s| s[0] == lead).unwrap();
            assert_eq!(tail, all[skip..], "lead {lead}");
        }
    }

    #[test]
    fn odometer_empty_subset() {
        let mut od = CombinationOdometer::new(3, 0);
        assert!(od.indices().is_empty());
        assert!(!od.advance());
    }

    #[test]
    fn odometer_full_subset() {
        let mut od = CombinationOdometer::new(3, 3);
        assert_eq!(od.indices(), &[0, 1, 2]);
        assert!(!od.advance());
    }
}
