//! Property tests for the `bbncg v1` / snapshot serialization layer:
//! `parse ∘ write = id` over arbitrary realizations, and every
//! [`ParseError`] variant renders an actionable message.

use bbncg_core::{
    parse_realization, parse_snapshot, write_realization, write_snapshot, ParseError, Realization,
    Snapshot,
};
use bbncg_graph::generators;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary realization: a random budget vector realized at random
/// (n in 1..=16, budgets 0..min(n, 5)).
fn realization() -> impl Strategy<Value = Realization> {
    ((1usize..=16), (0u64..u64::MAX)).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgets: Vec<usize> = (0..n)
            .map(|i| (seed.rotate_left(i as u32) as usize) % n.min(5))
            .collect();
        Realization::new(generators::random_realization(&budgets, &mut rng))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `write_realization ∘ parse_realization` is the identity.
    #[test]
    fn realization_roundtrip_is_identity(r in realization()) {
        let text = write_realization(&r);
        let back = parse_realization(&text).unwrap();
        prop_assert_eq!(&back, &r);
        // And writing the parse is byte-stable (canonical form).
        prop_assert_eq!(write_realization(&back), text);
    }

    /// The snapshot envelope round-trips realization + RNG position +
    /// metadata exactly.
    #[test]
    fn snapshot_roundtrip_is_identity(r in realization(), wseed in 0u64..u64::MAX, tag in 0usize..1000) {
        // An arbitrary mid-stream RNG position, reached by seeding.
        let snap = Snapshot {
            realization: r.clone(),
            rng_state: StdRng::seed_from_u64(wseed).state(),
            meta: vec![
                ("phase".into(), tag.to_string()),
                ("label".into(), format!("run {tag} of sweep")),
            ],
        };
        let back = parse_snapshot(&write_snapshot(&snap)).unwrap();
        prop_assert_eq!(back, snap);
    }
}

#[test]
fn every_parse_error_variant_renders_its_evidence() {
    // BadHeader: names the expected magic.
    let e = parse_realization("not a profile").unwrap_err();
    assert_eq!(e, ParseError::BadHeader);
    assert!(e.to_string().contains("bbncg v1"), "{e}");

    // BadLine: carries the 1-based line number and the offending text.
    let e = parse_realization("bbncg v1\nn x\nbudgets \narcs\n").unwrap_err();
    assert_eq!(e, ParseError::BadLine(2, "n x".into()));
    assert!(e.to_string().contains("line 2"), "{e}");
    assert!(e.to_string().contains("n x"), "{e}");

    // BadArc: names both endpoints.
    let e = parse_realization("bbncg v1\nn 3\nbudgets 1 0 0\narcs\n0 7\n").unwrap_err();
    assert_eq!(e, ParseError::BadArc(0, 7));
    assert!(e.to_string().contains("0 -> 7"), "{e}");

    // BudgetMismatch: names the player and both counts.
    let e = parse_realization("bbncg v1\nn 2\nbudgets 2 0\narcs\n0 1\n").unwrap_err();
    assert_eq!(
        e,
        ParseError::BudgetMismatch {
            player: 0,
            declared: 2,
            actual: 1
        }
    );
    let msg = e.to_string();
    assert!(msg.contains("player 0"), "{msg}");
    assert!(msg.contains('2') && msg.contains('1'), "{msg}");
}

#[test]
fn snapshot_errors_reuse_the_same_vocabulary() {
    assert_eq!(parse_snapshot("wrong magic"), Err(ParseError::BadHeader));
    let e = parse_snapshot("bbncg-snapshot v1\nrng one two\nprofile\n").unwrap_err();
    assert!(matches!(e, ParseError::BadLine(2, _)), "{e}");
    assert!(e.to_string().contains("line 2"), "{e}");
}

#[test]
fn large_profiles_round_trip_and_report_the_first_duplicate() {
    // 400 players owning 250 arcs each: 10⁵ distinct arcs, a body
    // about the size of the largest one serve accepts. The duplicate
    // check must stay linear in the arc count.
    let (n, budget) = (400, 250);
    let arcs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (1..=budget).map(move |d| (u, (u + d) % n)))
        .collect();
    let r = Realization::new(bbncg_graph::OwnedDigraph::from_arcs(n, &arcs));
    let text = write_realization(&r);
    let back = parse_realization(&text).unwrap();
    assert_eq!(back, r);
    assert_eq!(back.graph().total_arcs(), 100_000);

    // Repeat the first and the second arc at the very end: the copy
    // that comes first in the input is the arc reported.
    let (a, b) = (arcs[0], arcs[1]);
    let dup = format!("{text}{} {}\n{} {}\n", a.0, a.1, b.0, b.1);
    assert_eq!(parse_realization(&dup), Err(ParseError::BadArc(a.0, a.1)));
}
