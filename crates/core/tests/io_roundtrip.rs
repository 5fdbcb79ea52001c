//! Property tests for the `bbncg v1` / snapshot serialization layer:
//! `parse ∘ write = id` over arbitrary realizations, every
//! [`ParseError`] variant renders an actionable message, and byte
//! mutations of printed profiles and snapshots never panic a parser:
//! what still parses prints back to the same value, and what does not
//! is rejected with an error that points at its line.

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

/// Arbitrary snapshot: a realization, an arbitrary mid-stream RNG
/// position (reached by seeding) and two metadata pairs, one with a
/// space in its value.
fn snapshot() -> impl Strategy<Value = Snapshot> {
    (realization(), 0u64..u64::MAX, 0usize..1000).prop_map(|(realization, wseed, tag)| Snapshot {
        realization,
        rng_state: StdRng::seed_from_u64(wseed).state(),
        meta: vec![
            ("phase".into(), tag.to_string()),
            ("label".into(), format!("run {tag} of sweep")),
        ],
    })
}

/// One edit of a mutation: `(kind, position, span length, byte)`.
type Edit = (usize, usize, usize, u8);

/// One to three edits.
fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec((0usize..5, 0usize..4096, 1usize..24, 0u8..=255), 1..4)
}

/// Numbers of 20 digits: `u64::MAX`, one past it, the largest, and
/// one that fits.
const TWENTY_DIGITS: [&str; 4] = [
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "12345678901234567890",
];

/// Apply `edits` to `text` in order: flip, insert or delete a byte,
/// duplicate a span, or splice a 20-digit number over a span. Invalid
/// UTF-8 is replaced, as no parser ever sees it: profiles arrive as
/// `&str`.
fn mutated(text: &str, edits: &[Edit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, len, byte) in edits {
        let at = at % (bytes.len() + 1);
        let end = (at + len).min(bytes.len());
        match kind {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= byte | 1;
                }
            }
            1 => bytes.insert(at, byte),
            2 => {
                if at < bytes.len() {
                    bytes.remove(at);
                }
            }
            3 => {
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
            _ => {
                let digits = TWENTY_DIGITS[byte as usize % TWENTY_DIGITS.len()];
                bytes.splice(at..end, digits.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `lines` opens with `magic` and holds at least `need` lines.
fn header_intact(lines: &[&str], magic: &str, need: usize) -> bool {
    lines.first().map(|l| l.trim()) == Some(magic) && lines.len() >= need
}

/// `err` points at the line of `text` it rejects:
/// * `BadLine(ln, quoted)` quotes line `ln`, counted from the top or,
///   for a snapshot, from its `profile` marker, where the embedded
///   profile's numbering restarts;
/// * `BadHeader` means a magic line is wrong or a required line is
///   missing;
/// * `BadArc(u, v)` is an arc line `u v`;
/// * `BudgetMismatch` names an entry of the `budgets` line.
fn names_its_line(text: &str, err: &ParseError, snapshot: bool) -> Result<(), TestCaseError> {
    let lines: Vec<&str> = text.lines().collect();
    // The profile of a snapshot: the lines after its first `profile`
    // marker below the `rng` line.
    let marker = lines
        .iter()
        .enumerate()
        .skip(2)
        .find(|(_, l)| l.trim() == "profile")
        .map(|(i, _)| i + 1);
    let profile: &[&str] = match (snapshot, marker) {
        (false, _) => &lines,
        (true, Some(at)) => &lines[at..],
        (true, None) => &[],
    };
    match err {
        ParseError::BadLine(ln, quoted) => {
            prop_assert!(*ln >= 1, "{err}");
            let offsets = [Some(0), marker.filter(|_| snapshot)];
            let quotes =
                |off: usize| lines.get(off + ln - 1).map(|l| l.trim()) == Some(quoted.trim());
            prop_assert!(
                offsets.into_iter().flatten().any(quotes),
                "{err} in {text:?}"
            );
        }
        ParseError::BadHeader => {
            let intact = if snapshot {
                header_intact(&lines, "bbncg-snapshot v1", 2)
                    && marker.is_some()
                    && header_intact(profile, "bbncg v1", 4)
            } else {
                header_intact(&lines, "bbncg v1", 4)
            };
            prop_assert!(!intact, "{err} in {text:?}");
        }
        ParseError::BadArc(u, v) => {
            let names = |l: &&str| {
                let t: Vec<&str> = l.split_whitespace().collect();
                t.len() == 2 && t[0].parse() == Ok(*u) && t[1].parse() == Ok(*v)
            };
            prop_assert!(profile.iter().any(names), "{err} in {text:?}");
        }
        ParseError::BudgetMismatch {
            player,
            declared,
            actual,
        } => {
            prop_assert!(declared != actual, "{err}");
            let entry = profile
                .get(2)
                .and_then(|l| l.split_whitespace().nth(player + 1))
                .map(str::parse::<usize>);
            prop_assert_eq!(entry, Some(Ok(*declared)));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated profile parses to a value that prints and re-parses
    /// to itself, or fails with an error at its line — never a panic.
    #[test]
    fn mutated_profiles_round_trip_or_name_their_line(r in realization(), edits in edits()) {
        let text = mutated(&write_realization(&r), &edits);
        match parse_realization(&text) {
            Ok(back) => prop_assert_eq!(parse_realization(&write_realization(&back)), Ok(back)),
            Err(e) => names_its_line(&text, &e, false)?,
        }
    }

    /// The same for snapshots, whose profile follows a header of
    /// their own.
    #[test]
    fn mutated_snapshots_round_trip_or_name_their_line(s in snapshot(), edits in edits()) {
        let text = mutated(&write_snapshot(&s), &edits);
        match parse_snapshot(&text) {
            Ok(back) => prop_assert_eq!(parse_snapshot(&write_snapshot(&back)), Ok(back)),
            Err(e) => names_its_line(&text, &e, true)?,
        }
    }
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
    fn snapshot_roundtrip_is_identity(snap in snapshot()) {
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
fn meta_keys_end_at_any_whitespace() {
    // A tab after the key once left it inside the key, which the
    // printer cannot write back as one token.
    let text =
        "bbncg-snapshot v1\nrng 1 2 3 4\nmeta a\tb c\nprofile\nbbncg v1\nn 1\nbudgets 0\narcs\n";
    let s = parse_snapshot(text).unwrap();
    assert_eq!(s.meta, vec![("a".to_string(), "b c".to_string())]);
    assert_eq!(parse_snapshot(&write_snapshot(&s)), Ok(s));
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
