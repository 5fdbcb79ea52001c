//! The exhaustive census of every small instance, pinned to history.
//!
//! `golden/exact_census.txt` holds [`exact_game_stats`] of every sorted
//! budget vector with 2 ≤ n ≤ 5 under both models — 174 vectors, 348
//! rows, 142 392 profile verdicts — then `1,…,1` and `2,…,2` at n = 6.
//! A row recomputes the Nash verdict of every profile of its instance,
//! so a change to the exact search, the Nash check or the profile
//! enumeration that alters any verdict breaks this test. Every row
//! also has an equilibrium (Theorem 2.3). A change that alters the
//! table on purpose regenerates it (`bbncg exact-poa --budgets LIST
//! --model M` prints a row's five numbers) and says why in CHANGES.md.
//!
//! The n = 6 rows (10⁶ profiles for `2,…,2`) are ignored in debug
//! runs; CI runs them in release:
//! `cargo test --release -p bbncg-core --test exact_census -- --ignored`.

use bbncg_core::{exact_game_stats, BudgetVector, CostModel, MAX_PROFILES};

const GOLDEN: &str = include_str!("golden/exact_census.txt");

/// The golden rows whose player count passes `players`.
fn golden_rows(players: impl Fn(usize) -> bool) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter(|line| players(line.split(',').count()))
        .collect()
}

/// Every ascending vector of `n` budgets below `n`, comma-joined, in
/// lexicographic order.
fn sorted_vectors(n: usize) -> Vec<String> {
    fn extend(prefix: &mut Vec<usize>, n: usize, out: &mut Vec<String>) {
        if prefix.len() == n {
            let parts: Vec<String> = prefix.iter().map(usize::to_string).collect();
            out.push(parts.join(","));
            return;
        }
        for b in prefix.last().copied().unwrap_or(0)..n {
            prefix.push(b);
            extend(prefix, n, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::new(), n, &mut out);
    out
}

/// Recompute each row and compare it with the golden line.
fn check(rows: &[&str]) {
    for line in rows {
        let cols: Vec<&str> = line.split(' ').collect();
        let model = match cols[1] {
            "sum" => CostModel::Sum,
            "max" => CostModel::Max,
            other => panic!("unknown model {other:?} in {line:?}"),
        };
        let budgets = cols[0].split(',').map(|b| b.parse().unwrap()).collect();
        let s = exact_game_stats(&BudgetVector::new(budgets), model, MAX_PROFILES);
        let got = format!(
            "{} {} {} {} {} {} {}",
            cols[0],
            cols[1],
            s.profiles,
            s.equilibria,
            s.opt_diameter,
            s.best_equilibrium_diameter,
            s.worst_equilibrium_diameter
        );
        assert_eq!(got, *line);
        assert!(s.equilibria >= 1, "Theorem 2.3: {line}");
    }
}

#[test]
fn every_instance_up_to_five_players_matches_its_golden_census() {
    let rows = golden_rows(|n| n <= 5);
    let want: Vec<String> = (2..=5)
        .flat_map(sorted_vectors)
        .flat_map(|v| [format!("{v} sum"), format!("{v} max")])
        .collect();
    let have: Vec<String> = rows
        .iter()
        .map(|line| line.split(' ').take(2).collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(have, want, "the table covers every sorted budget vector");
    let verdicts: u64 = rows
        .iter()
        .map(|line| line.split(' ').nth(2).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(verdicts, 142_392);
    check(&rows);
}

#[test]
#[ignore = "10^6 profiles: run in release with --ignored"]
fn six_player_unit_and_budget_two_censuses_match_their_golden_rows() {
    let rows = golden_rows(|n| n == 6);
    assert_eq!(rows.len(), 4);
    check(&rows);
}
