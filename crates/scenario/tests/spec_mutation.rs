//! Byte mutations of every checked-in example spec never panic
//! `parse_spec`: a mutated spec parses, or fails with an error that
//! names a line inside it. Line 0 ("no single line is at fault") is
//! allowed only for the two errors about the document as a whole: a
//! missing `[init]` section, or no `[[phase]]` at all. A crash corpus
//! of inputs that once broke a parser runs as plain tests.

use bbncg_scenario::{parse_spec, SpecError};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// The errors that name no line: nothing in the text is at fault, a
/// part of it is missing.
const WHOLE_DOCUMENT: [&str; 2] = [
    "missing [init] section",
    "scenario has no [[phase]] entries",
];

/// Every `examples/scenarios/*.toml`, read once.
fn examples() -> &'static [String] {
    static SPECS: OnceLock<Vec<String>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("examples/scenarios is readable")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        let specs: Vec<String> = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("example spec is UTF-8"))
            .collect();
        assert!(specs.len() >= 10, "found {} example specs", specs.len());
        specs
    })
}

/// One edit of a mutation: `(kind, position, span length, byte)`.
type Edit = (usize, usize, usize, u8);

/// One to three edits.
fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec((0usize..6, 0usize..4096, 1usize..24, 0u8..=255), 1..4)
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
/// duplicate a span, splice a 20-digit number over a span, or insert
/// a run of `[` from just past the nesting cap to 10 000 deep. Invalid
/// UTF-8 is replaced, as no parser ever sees it: specs arrive as
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
            4 => {
                let digits = TWENTY_DIGITS[byte as usize % TWENTY_DIGITS.len()];
                bytes.splice(at..end, digits.bytes());
            }
            _ => {
                let depth = [33, 100, 10_000][byte as usize % 3];
                bytes.splice(at..at, std::iter::repeat_n(b'[', depth));
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `err` names a line of `text`, or is about the document as a whole.
fn names_a_line_inside(text: &str, err: &SpecError) -> Result<(), TestCaseError> {
    if err.line == 0 {
        prop_assert!(WHOLE_DOCUMENT.contains(&err.msg.as_str()), "{err:?}");
    } else {
        let lines = text.lines().count();
        prop_assert!(err.line <= lines, "{err} past line {lines} of {text:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every example spec, under the same edits, parses or names a
    /// line inside it — never a panic.
    #[test]
    fn mutated_specs_parse_or_name_a_line_inside(edits in edits()) {
        for spec in examples() {
            let text = mutated(spec, &edits);
            if let Err(e) = parse_spec(&text) {
                names_a_line_inside(&text, &e)?;
            }
        }
    }
}

/// Inputs that once broke a parser, with the start of the error each
/// must get.
#[test]
fn crash_corpus_is_rejected_at_its_line() {
    // A value nested 10 000 arrays deep overflowed the serve event
    // loop's stack before nesting was capped.
    let deep = format!(
        "[init]\nfamily = \"path\"\nparams = {}\n",
        "[".repeat(10_000)
    );
    // Instances the parser once went on to allocate: 10¹⁰ vertices, and
    // a binary tree of depth 70.
    let huge_n = "[init]\nfamily = \"uniform\"\nn = 10000000000\nbudget = 1\n\
                  [[phase]]\nkind = \"dynamics\"\n";
    let tall_tree = "[init]\nfamily = \"btree\"\nparams = [70]\n[[phase]]\nkind = \"dynamics\"\n";
    for (text, want) in [
        (deep.as_str(), "line 3: arrays nest deeper than 32 levels"),
        (huge_n, "line 1: [init] reaches 10000000000 vertices"),
        (tall_tree, "line 1: [init] family \"btree\" [70]"),
    ] {
        let err = parse_spec(text).expect_err("corpus inputs are rejected");
        assert!(err.to_string().starts_with(want), "{err}");
    }
}

/// The examples parse unmutated, so a mutation is what any rejection
/// above answers.
#[test]
fn every_example_parses() {
    for spec in examples() {
        parse_spec(spec).unwrap();
    }
}
