//! Byte mutations of encoded metric records never panic the JSON
//! reader: a mutated line parses to a value nested at most
//! `MAX_DEPTH` deep, or fails with an error whose byte offset lies
//! inside the line (at most its length: "unexpected end of input"
//! points just past the last byte), and the record ingester on top of
//! it answers without a panic either. Unmutated lines round-trip to
//! the in-process record. A crash corpus of inputs that once broke a
//! parser runs as plain tests.

use bbncg_report::ingest::parse_record;
use bbncg_report::json::{parse, Json, MAX_DEPTH};
use bbncg_report::Record;
use bbncg_scenario::{fnv1a, parse_spec, MetricRecord, PhaseSpec};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// A scenario name that needs every escape the encoder writes: a
/// quote, a backslash, a newline, `\u` control characters, and
/// multi-byte characters that pass through.
const ESCAPED_NAME: &str = "a \"quoted\" back\\slash\nnew line \u{1}\u{1f}\t ünï ✓";

/// One record per phase of every `examples/scenarios/*.toml`, plus its
/// summary record, under the spec's name and seed, and the same for a
/// copy of the first spec renamed to [`ESCAPED_NAME`].
fn records() -> &'static [MetricRecord] {
    static RECORDS: OnceLock<Vec<MetricRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("examples/scenarios is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        let mut specs: Vec<_> = paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).expect("example spec is UTF-8");
                parse_spec(&text).expect("example spec parses")
            })
            .collect();
        assert!(specs.len() >= 10, "found {} example specs", specs.len());
        let mut escaped = specs[0].clone();
        escaped.name = ESCAPED_NAME.into();
        specs.push(escaped);
        let mut records = Vec::new();
        for spec in &specs {
            let kinds = spec.phases.iter().map(PhaseSpec::kind);
            for (phase, kind) in kinds.chain(["summary"]).enumerate() {
                let n = 16 + 7 * phase;
                let connected = phase % 3 != 1;
                let dynamics = kind == "dynamics";
                records.push(MetricRecord {
                    scenario: spec.name.clone(),
                    seed: spec.seed,
                    phase,
                    kind,
                    n,
                    arcs: 2 * n - phase,
                    steps: 37 * phase,
                    rounds: phase,
                    social_cost: if connected {
                        3 + phase as u64
                    } else {
                        (n * n) as u64
                    },
                    diameter: connected.then_some(3 + phase as u32),
                    converged: dynamics.then_some(phase % 2 == 0),
                    cycled: dynamics.then_some(false),
                    state_hash: fnv1a(format!("{}/{phase}", spec.name).as_bytes()),
                });
            }
        }
        records
    })
}

/// The records' JSON lines, encoded once.
fn lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| records().iter().map(MetricRecord::to_json).collect())
}

/// One edit of a mutation: `(kind, position, span length, byte)`.
type Edit = (usize, usize, usize, u8);

/// One to three edits.
fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec((0usize..7, 0usize..512, 1usize..24, 0u8..=255), 1..4)
}

/// Numbers of 20 digits: `u64::MAX`, one past it, the largest, and
/// one that fits.
const TWENTY_DIGITS: [&str; 4] = [
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "12345678901234567890",
];

/// Runs of openers: just past the nesting cap, and up to 100 000 long.
const RUNS: [usize; 4] = [MAX_DEPTH + 1, 100, 10_000, 100_000];

/// Apply `edits` to `text` in order: flip, insert or delete a byte,
/// duplicate a span, splice a 20-digit number over a span, or insert
/// a run of `[` or of `{"a":`. Invalid UTF-8 is replaced, as the
/// reader only ever sees `&str` lines.
fn mutated(text: &str, edits: &[Edit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, len, byte) in edits {
        let at = at % (bytes.len() + 1);
        let end = (at + len).min(bytes.len());
        let run = RUNS[byte as usize % RUNS.len()];
        let insert = match kind {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= byte | 1;
                }
                continue;
            }
            1 => vec![byte],
            2 => {
                if at < bytes.len() {
                    bytes.remove(at);
                }
                continue;
            }
            3 => bytes[at..end].repeat(2),
            4 => TWENTY_DIGITS[byte as usize % TWENTY_DIGITS.len()]
                .as_bytes()
                .to_vec(),
            5 => b"[".repeat(run),
            _ => br#"{"a":"#.repeat(run),
        };
        // Only the span duplicate and the number replace what they
        // cover; the rest insert at `at`.
        let end = if matches!(kind, 3 | 4) { end } else { at };
        bytes = [&bytes[..at], &insert, &bytes[end..]].concat();
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Arrays and objects nested in `v`, counting `v` itself.
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// `text` parses within the nesting cap or fails inside it.
fn parses_or_fails_inside(text: &str) -> Result<(), TestCaseError> {
    match parse(text) {
        Ok(v) => prop_assert!(depth(&v) <= MAX_DEPTH, "{text:?}"),
        Err(e) => prop_assert!(e.at <= text.len(), "{e} past {} bytes", text.len()),
    }
    // The ingester on top answers too (a record or an error).
    let _ = parse_record(text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every encoded record, under the same edits, parses or fails
    /// inside its line — never a panic.
    #[test]
    fn mutated_records_parse_or_fail_inside_the_line(edits in edits()) {
        for line in lines() {
            parses_or_fails_inside(&mutated(line, &edits))?;
        }
    }
}

/// The lines parse unmutated, back to the records they encode, so a
/// mutation is what any rejection above answers.
#[test]
fn records_round_trip_through_the_reader() {
    assert!(lines()
        .iter()
        .any(|l| l.contains(r#"\"quoted\" back\\slash\nnew"#)));
    assert!(lines().iter().any(|l| l.contains(r"\u0001\u001f\u0009")));
    for (rec, line) in records().iter().zip(lines()) {
        assert_eq!(parse_record(line), Ok(Record::from_metric(rec)), "{line}");
    }
}

/// Inputs that once broke a parser, with the offset each must fail
/// at.
#[test]
fn crash_corpus_fails_at_the_nesting_cap() {
    let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    assert!(parse(&deep(MAX_DEPTH)).is_ok());
    // Nesting past the cap is an error at the first byte too deep, not
    // a stack overflow.
    assert_eq!(parse(&deep(MAX_DEPTH + 1)).unwrap_err().at, MAX_DEPTH);
    assert_eq!(parse(&"[".repeat(100_000)).unwrap_err().at, MAX_DEPTH);
    assert_eq!(
        parse(&r#"{"a":"#.repeat(100)).unwrap_err().at,
        5 * MAX_DEPTH
    );
    // A string of 100 000 bytes once re-validated the rest of the line
    // for every character it copied: quadratic, about 1.6 s for 200 KB.
    let long = format!(r#"{{"a":"{}"}}"#, "[".repeat(100_000));
    let parsed = parse(&long).expect("one long string member");
    assert_eq!(
        parsed.get("a").and_then(Json::as_str).map(str::len),
        Some(100_000)
    );
}
