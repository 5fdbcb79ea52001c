//! Plain-text serialization of game profiles.
//!
//! A tiny line-oriented format so equilibria found by experiments can
//! be saved, diffed, and reloaded without external dependencies:
//!
//! ```text
//! bbncg v1
//! n 4
//! budgets 1 1 1 1
//! arcs
//! 0 1
//! 1 2
//! 2 3
//! 3 0
//! ```
//!
//! Arc lines are `owner target`. Budgets are implied by the arcs but
//! written explicitly so a truncated file fails loudly.

use crate::realization::Realization;
use bbncg_graph::OwnedDigraph;
use std::collections::HashSet;
use std::fmt;

/// Errors from [`parse_realization`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Missing or wrong `bbncg v1` header.
    BadHeader,
    /// Structurally invalid line, with its 1-based number.
    BadLine(usize, String),
    /// The arc list does not realize the declared budgets.
    BudgetMismatch {
        /// Player whose arc count differs.
        player: usize,
        /// Budget declared in the header.
        declared: usize,
        /// Arcs actually listed.
        actual: usize,
    },
    /// A vertex index ≥ n, a self-loop, or a duplicate arc.
    BadArc(usize, usize),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing `bbncg v1` header"),
            ParseError::BadLine(ln, s) => write!(f, "line {ln}: cannot parse {s:?}"),
            ParseError::BudgetMismatch {
                player,
                declared,
                actual,
            } => write!(
                f,
                "player {player}: declared budget {declared} but {actual} arcs listed"
            ),
            ParseError::BadArc(u, v) => write!(f, "invalid arc {u} -> {v}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serialize a realization (stable output: arcs in owner order).
pub fn write_realization(r: &Realization) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "bbncg v1");
    let _ = writeln!(out, "n {}", r.n());
    let budgets: Vec<String> = r
        .budgets()
        .as_slice()
        .iter()
        .map(|b| b.to_string())
        .collect();
    let _ = writeln!(out, "budgets {}", budgets.join(" "));
    let _ = writeln!(out, "arcs");
    for (u, v) in r.graph().arcs() {
        let _ = writeln!(out, "{} {}", u.index(), v.index());
    }
    out
}

/// Parse a realization written by [`write_realization`].
pub fn parse_realization(text: &str) -> Result<Realization, ParseError> {
    let mut lines = text.lines().enumerate();
    let header = lines.next().map(|(_, l)| l.trim());
    if header != Some("bbncg v1") {
        return Err(ParseError::BadHeader);
    }
    let (ln, nline) = lines.next().ok_or(ParseError::BadHeader)?;
    let n: usize = nline
        .trim()
        .strip_prefix("n ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| ParseError::BadLine(ln + 1, nline.to_string()))?;
    let (ln, bline) = lines.next().ok_or(ParseError::BadHeader)?;
    let budgets: Vec<usize> = bline
        .trim()
        .strip_prefix("budgets ")
        .map(|s| {
            s.split_whitespace()
                .map(|t| t.parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()
        .ok()
        .flatten()
        .ok_or_else(|| ParseError::BadLine(ln + 1, bline.to_string()))?;
    if budgets.len() != n {
        return Err(ParseError::BadLine(ln + 1, bline.to_string()));
    }
    let (ln, aline) = lines.next().ok_or(ParseError::BadHeader)?;
    if aline.trim() != "arcs" {
        return Err(ParseError::BadLine(ln + 1, aline.to_string()));
    }
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    // A hash set keeps the duplicate check linear in the arc count:
    // serve parses posted profiles on its event-loop thread.
    let mut seen = HashSet::new();
    for (ln, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (u, v) = match (it.next(), it.next(), it.next()) {
            (Some(u), Some(v), None) => (
                u.parse::<usize>()
                    .map_err(|_| ParseError::BadLine(ln + 1, line.to_string()))?,
                v.parse::<usize>()
                    .map_err(|_| ParseError::BadLine(ln + 1, line.to_string()))?,
            ),
            _ => return Err(ParseError::BadLine(ln + 1, line.to_string())),
        };
        if u >= n || v >= n || u == v || !seen.insert((u, v)) {
            return Err(ParseError::BadArc(u, v));
        }
        arcs.push((u, v));
    }
    // Check budgets before building (so mismatches report nicely).
    let mut counts = vec![0usize; n];
    for &(u, _) in &arcs {
        counts[u] += 1;
    }
    for (player, (&declared, &actual)) in budgets.iter().zip(&counts).enumerate() {
        if declared != actual {
            return Err(ParseError::BudgetMismatch {
                player,
                declared,
                actual,
            });
        }
    }
    Ok(Realization::new(OwnedDigraph::from_arcs(n, &arcs)))
}

/// A mid-run snapshot: a realization frozen together with the exact
/// 256-bit RNG stream position and orchestrator metadata. This is the
/// persistence format behind scenario checkpoint/resume — restoring the
/// snapshot and replaying from it is bit-identical to never stopping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The frozen profile.
    pub realization: Realization,
    /// The RNG state words (see `rand::rngs::StdRng::state`).
    pub rng_state: [u64; 4],
    /// Ordered key/value metadata (keys must be single tokens; values
    /// may contain spaces but not newlines).
    pub meta: Vec<(String, String)>,
}

/// Serialize a [`Snapshot`]:
///
/// ```text
/// bbncg-snapshot v1
/// rng 1 2 3 4
/// meta phase 3
/// profile
/// bbncg v1
/// …
/// ```
pub fn write_snapshot(s: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "bbncg-snapshot v1");
    let [a, b, c, d] = s.rng_state;
    let _ = writeln!(out, "rng {a} {b} {c} {d}");
    for (k, v) in &s.meta {
        debug_assert!(!k.contains(char::is_whitespace), "meta key {k:?}");
        debug_assert!(!v.contains('\n'), "meta value {v:?}");
        let _ = writeln!(out, "meta {k} {v}");
    }
    let _ = writeln!(out, "profile");
    out.push_str(&write_realization(&s.realization));
    out
}

/// Parse a snapshot written by [`write_snapshot`]. Errors reuse the
/// [`ParseError`] vocabulary: a wrong magic line is [`ParseError::BadHeader`],
/// structural damage is [`ParseError::BadLine`] with the offending line
/// number, and the embedded profile is validated by
/// [`parse_realization`] (line numbers restart inside the profile).
///
/// **Forward compatibility:** unknown header fields — lines of the form
/// `<bare-key> …` before the `profile` marker, where `<bare-key>` is
/// ASCII alphanumeric plus `_`/`-` — are skipped, so binaries at this
/// version keep reading checkpoints written by future versions that
/// append new fields (they must append fields, not reshape existing
/// ones). Lines that are not even field-shaped still fail loudly.
pub fn parse_snapshot(text: &str) -> Result<Snapshot, ParseError> {
    let mut lines = text.lines().enumerate();
    let header = lines.next().map(|(_, l)| l.trim());
    if header != Some("bbncg-snapshot v1") {
        return Err(ParseError::BadHeader);
    }
    let (ln, rline) = lines.next().ok_or(ParseError::BadHeader)?;
    let words: Vec<u64> = rline
        .trim()
        .strip_prefix("rng ")
        .map(|s| {
            s.split_whitespace()
                .map(|t| t.parse::<u64>())
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()
        .ok()
        .flatten()
        .filter(|w| w.len() == 4)
        .ok_or_else(|| ParseError::BadLine(ln + 1, rline.to_string()))?;
    let rng_state = [words[0], words[1], words[2], words[3]];
    let mut meta = Vec::new();
    for (ln, line) in lines.by_ref() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "profile" {
            let body: String = text.lines().skip(ln + 1).collect::<Vec<_>>().join("\n");
            let realization = parse_realization(&body)?;
            return Ok(Snapshot {
                realization,
                rng_state,
                meta,
            });
        }
        if let Some(rest) = line.strip_prefix("meta ") {
            // The key ends at the first whitespace of any kind, so a
            // parsed key is always one token and prints back as one.
            let (k, v) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| ParseError::BadLine(ln + 1, line.to_string()))?;
            meta.push((k.to_string(), v.trim().to_string()));
            continue;
        }
        // Unknown field: skip if the line is field-shaped (a bare key,
        // optionally followed by a value) so old binaries read new
        // checkpoints; anything else is damage. A *known* field name
        // that failed its own parse (a bare `meta` with no key/value,
        // a stray `rng`, `profile` with trailing junk) is damage too —
        // forward compatibility must not swallow corrupted known
        // fields.
        let key = line.split_whitespace().next().unwrap_or("");
        let is_bare_key = !key.is_empty()
            && key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
        if !is_bare_key || matches!(key, "meta" | "rng" | "profile") {
            return Err(ParseError::BadLine(ln + 1, line.to_string()));
        }
    }
    // Ran out of lines without a `profile` marker.
    Err(ParseError::BadHeader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbncg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_random_realizations() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [2usize, 5, 12] {
            let budgets: Vec<usize> = (0..n).map(|i| i % 3).collect();
            let r = Realization::new(generators::random_realization(&budgets, &mut rng));
            let text = write_realization(&r);
            let back = parse_realization(&text).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(parse_realization("nope"), Err(ParseError::BadHeader));
        assert_eq!(parse_realization(""), Err(ParseError::BadHeader));
    }

    #[test]
    fn rejects_garbled_counts() {
        let text = "bbncg v1\nn x\nbudgets 1\narcs\n";
        assert!(matches!(
            parse_realization(text),
            Err(ParseError::BadLine(2, _))
        ));
        let text = "bbncg v1\nn 2\nbudgets 1\narcs\n"; // wrong length
        assert!(matches!(
            parse_realization(text),
            Err(ParseError::BadLine(3, _))
        ));
    }

    #[test]
    fn rejects_budget_mismatch() {
        let text = "bbncg v1\nn 2\nbudgets 1 1\narcs\n0 1\n";
        assert_eq!(
            parse_realization(text),
            Err(ParseError::BudgetMismatch {
                player: 1,
                declared: 1,
                actual: 0
            })
        );
    }

    #[test]
    fn rejects_bad_arcs() {
        let text = "bbncg v1\nn 2\nbudgets 1 0\narcs\n0 5\n";
        assert_eq!(parse_realization(text), Err(ParseError::BadArc(0, 5)));
        let text = "bbncg v1\nn 2\nbudgets 2 0\narcs\n0 1\n0 1\n";
        assert_eq!(parse_realization(text), Err(ParseError::BadArc(0, 1)));
        let text = "bbncg v1\nn 2\nbudgets 1 0\narcs\n1 1\n";
        assert_eq!(parse_realization(text), Err(ParseError::BadArc(1, 1)));
    }

    #[test]
    fn error_messages_render() {
        let e = ParseError::BudgetMismatch {
            player: 3,
            declared: 2,
            actual: 1,
        };
        assert!(e.to_string().contains("player 3"));
        assert!(ParseError::BadHeader.to_string().contains("header"));
    }

    #[test]
    fn snapshot_roundtrips() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = Realization::new(generators::random_realization(&[1, 2, 0, 1], &mut rng));
        let snap = Snapshot {
            realization: r,
            rng_state: rng.state(),
            meta: vec![
                ("phase".into(), "3".into()),
                ("scenario".into(), "churn test".into()),
            ],
        };
        let text = write_snapshot(&snap);
        assert_eq!(parse_snapshot(&text).unwrap(), snap);
    }

    #[test]
    fn snapshot_rejects_damage() {
        assert_eq!(parse_snapshot("bbncg v1"), Err(ParseError::BadHeader));
        assert!(matches!(
            parse_snapshot("bbncg-snapshot v1\nrng 1 2 3\nprofile\n"),
            Err(ParseError::BadLine(2, _))
        ));
        // Not even field-shaped (no bare key): damage, not an unknown
        // field to skip.
        assert!(matches!(
            parse_snapshot("bbncg-snapshot v1\nrng 1 2 3 4\n??? ???\n"),
            Err(ParseError::BadLine(3, _))
        ));
        // Corrupted *known* fields are damage too — the unknown-field
        // skip must not swallow a truncated `meta` or a stray `rng`.
        for damaged in ["meta\n", "meta onlykey\n", "rng 9 9\n", "profile now\n"] {
            assert!(
                matches!(
                    parse_snapshot(&format!("bbncg-snapshot v1\nrng 1 2 3 4\n{damaged}")),
                    Err(ParseError::BadLine(3, _))
                ),
                "{damaged:?} must be rejected"
            );
        }
        // Truncated before the profile marker.
        assert_eq!(
            parse_snapshot("bbncg-snapshot v1\nrng 1 2 3 4\nmeta a b\n"),
            Err(ParseError::BadHeader)
        );
        // Embedded profile is validated too.
        let text =
            "bbncg-snapshot v1\nrng 1 2 3 4\nprofile\nbbncg v1\nn 2\nbudgets 1 1\narcs\n0 1\n";
        assert!(matches!(
            parse_snapshot(text),
            Err(ParseError::BudgetMismatch { player: 1, .. })
        ));
    }

    #[test]
    fn snapshot_skips_unknown_fields_for_forward_compat() {
        // A "future" writer appends fields this version has never heard
        // of; parsing must skip them and still recover everything it
        // does understand, bit-for-bit.
        let mut rng = StdRng::seed_from_u64(3);
        let r = Realization::new(generators::random_realization(&[1, 1, 2], &mut rng));
        let snap = Snapshot {
            realization: r,
            rng_state: rng.state(),
            meta: vec![("seed".into(), "9".into())],
        };
        let text = write_snapshot(&snap);
        // Inject extra fields after the rng line (i.e. before `profile`),
        // in the shapes a future version would plausibly add.
        let injected = text.replacen(
            "meta seed 9\n",
            "shard-count 16\nmeta seed 9\ncompression none v2\nepoch 1234\n\n",
            1,
        );
        assert_ne!(injected, text);
        assert_eq!(parse_snapshot(&injected).unwrap(), snap);
    }

    #[test]
    fn whitespace_and_blank_lines_tolerated() {
        let text = "bbncg v1\nn 3\nbudgets 1 1 1\narcs\n0 1\n\n1 2\n  2 0  \n";
        let r = parse_realization(text).unwrap();
        assert_eq!(r.n(), 3);
        assert_eq!(r.graph().total_arcs(), 3);
    }
}
