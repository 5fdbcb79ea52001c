//! A hand-rolled TOML-subset parser for scenario spec files.
//!
//! The workspace builds fully offline, so — in the `io.rs` tradition —
//! this is a small line-oriented parser rather than a dependency. The
//! accepted subset is exactly what scenario specs need:
//!
//! ```text
//! # comment
//! [section]          # a named table (at most once per name)
//! key = 7            # integer
//! flag = true        # boolean
//! name = "churn"     # string, \" and \\ escapes
//! list = [1, 2, 3]   # array, nesting allowed: [[0, 1], [1, 2]]
//!
//! [[phase]]          # array-of-tables: repeatable, order preserved
//! kind = "dynamics"
//! ```
//!
//! No dotted keys, no inline tables, no dates, no floats, no multi-line
//! strings. Unknown syntax fails loudly with a line number.

use std::fmt;

/// A parsed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Integer literal (underscore separators allowed).
    Int(i64),
    /// Double-quoted string.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `[ … ]`, possibly nested.
    List(Vec<Value>),
}

impl Value {
    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::List(_) => "array",
        }
    }
}

/// A parse or validation error, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number (0 when no single line is at fault).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl SpecError {
    /// Error pinned to a line.
    pub fn at(line: usize, msg: impl Into<String>) -> Self {
        SpecError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// One table: a `[name]` / `[[name]]` section, or the root table for
/// keys before any header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TomlTable {
    /// Section name (empty for the root table).
    pub name: String,
    /// Line the header appeared on (0 for the root table).
    pub line: usize,
    /// Was this declared with `[[name]]`?
    pub is_array: bool,
    /// Key/value pairs in source order.
    pub entries: Vec<(String, Value)>,
}

impl TomlTable {
    /// Value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All keys, for unknown-key diagnostics.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// A parsed document: the root table plus sections in source order
/// (array-of-tables sections repeat).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TomlDoc {
    /// Keys before the first section header.
    pub root: TomlTable,
    /// `[name]` and `[[name]]` tables, in order.
    pub sections: Vec<TomlTable>,
}

impl TomlDoc {
    /// The unique `[name]` section, if present.
    pub fn section(&self, name: &str) -> Option<&TomlTable> {
        self.sections.iter().find(|s| s.name == name && !s.is_array)
    }

    /// All `[[name]]` tables, in order.
    pub fn array_sections<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TomlTable> {
        self.sections
            .iter()
            .filter(move |s| s.name == name && s.is_array)
    }
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Strip a trailing comment (a `#` outside any string literal).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Deepest array nesting a value may have. The grammar's deepest use
/// is two levels (inline `arcs = [[0, 1], …]`); the cap keeps a hostile
/// spec from overflowing the stack of the thread parsing it, which in
/// serve is the event loop.
const MAX_NESTING: usize = 32;

/// Parse one value expression nested inside `depth` arrays, returning
/// the value and the unconsumed remainder of the string.
fn parse_value(s: &str, line: usize, depth: usize) -> Result<(Value, &str), SpecError> {
    let s = s.trim_start();
    let bad = |what: &str| SpecError::at(line, format!("cannot parse {what}: {s:?}"));
    if let Some(rest) = s.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    _ => return Err(bad("string escape")),
                },
                '"' => return Ok((Value::Str(out), &rest[i + 1..])),
                _ => out.push(c),
            }
        }
        Err(bad("unterminated string"))
    } else if let Some(mut rest) = s.strip_prefix('[') {
        if depth == MAX_NESTING {
            return Err(SpecError::at(
                line,
                format!("arrays nest deeper than {MAX_NESTING} levels"),
            ));
        }
        let mut items = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::List(items), after));
            }
            if rest.is_empty() {
                return Err(bad("unterminated array"));
            }
            let (v, after) = parse_value(rest, line, depth + 1)?;
            items.push(v);
            rest = after.trim_start();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after;
            } else if !rest.starts_with(']') {
                return Err(bad("array (missing comma)"));
            }
        }
    } else if let Some(rest) = s.strip_prefix("true") {
        Ok((Value::Bool(true), rest))
    } else if let Some(rest) = s.strip_prefix("false") {
        Ok((Value::Bool(false), rest))
    } else {
        let end = s
            .char_indices()
            .find(|&(_, c)| !(c.is_ascii_digit() || c == '-' || c == '+' || c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(s.len());
        if end == 0 {
            return Err(bad("value"));
        }
        let digits: String = s[..end].chars().filter(|&c| c != '_').collect();
        let v: i64 = digits.parse().map_err(|_| bad("integer"))?;
        Ok((Value::Int(v), &s[end..]))
    }
}

/// Parse a document.
pub fn parse(text: &str) -> Result<TomlDoc, SpecError> {
    let mut doc = TomlDoc::default();
    let mut current: Option<TomlTable> = None;
    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let (name, is_array) = match header.strip_prefix('[') {
                Some(inner) => (
                    inner
                        .strip_suffix("]]")
                        .ok_or_else(|| SpecError::at(ln, format!("malformed header {line:?}")))?,
                    true,
                ),
                None => (
                    header
                        .strip_suffix(']')
                        .ok_or_else(|| SpecError::at(ln, format!("malformed header {line:?}")))?,
                    false,
                ),
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(is_bare_key_char) {
                return Err(SpecError::at(ln, format!("bad section name {name:?}")));
            }
            if let Some(t) = current.take() {
                doc.sections.push(t);
            }
            if !is_array && doc.sections.iter().any(|s| s.name == name && !s.is_array) {
                return Err(SpecError::at(ln, format!("duplicate section [{name}]")));
            }
            current = Some(TomlTable {
                name: name.to_string(),
                line: ln,
                is_array,
                entries: Vec::new(),
            });
            continue;
        }
        let (key, rest) = line
            .split_once('=')
            .ok_or_else(|| SpecError::at(ln, format!("expected `key = value`, got {line:?}")))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(is_bare_key_char) {
            return Err(SpecError::at(ln, format!("bad key {key:?}")));
        }
        let (value, leftover) = parse_value(rest, ln, 0)?;
        if !leftover.trim().is_empty() {
            return Err(SpecError::at(
                ln,
                format!("trailing garbage after value: {:?}", leftover.trim()),
            ));
        }
        let table = current.as_mut().unwrap_or(&mut doc.root);
        if table.get(key).is_some() {
            return Err(SpecError::at(ln, format!("duplicate key {key:?}")));
        }
        table.entries.push((key.to_string(), value));
    }
    if let Some(t) = current.take() {
        doc.sections.push(t);
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_subset() {
        let doc = parse(
            r#"
# a scenario
[scenario]
name = "churn test"   # with a comment
seed = 1_000
flag = true

[[phase]]
kind = "dynamics"
rounds = -3

[[phase]]
kind = "arrive"
arcs = [[0, 1], [1, 2],]
"#,
        )
        .unwrap();
        let s = doc.section("scenario").unwrap();
        assert_eq!(s.get("name"), Some(&Value::Str("churn test".into())));
        assert_eq!(s.get("seed"), Some(&Value::Int(1000)));
        assert_eq!(s.get("flag"), Some(&Value::Bool(true)));
        let phases: Vec<_> = doc.array_sections("phase").collect();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("rounds"), Some(&Value::Int(-3)));
        assert_eq!(
            phases[1].get("arcs"),
            Some(&Value::List(vec![
                Value::List(vec![Value::Int(0), Value::Int(1)]),
                Value::List(vec![Value::Int(1), Value::Int(2)]),
            ]))
        );
    }

    #[test]
    fn string_escapes_and_hash_inside_string() {
        let doc = parse("a = \"x # not a comment \\\" \\\\ done\"").unwrap();
        assert_eq!(
            doc.root.get("a"),
            Some(&Value::Str("x # not a comment \" \\ done".into()))
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(parse("x 1").unwrap_err().line, 1);
        assert_eq!(parse("\n\nx = ").unwrap_err().line, 3);
        assert_eq!(parse("x = \"unterminated").unwrap_err().line, 1);
        assert_eq!(parse("x = [1, 2").unwrap_err().line, 1);
        assert_eq!(parse("x = [1 2]").unwrap_err().line, 1);
        assert_eq!(parse("[bad name]").unwrap_err().line, 1);
        assert_eq!(parse("[a]\n[a]").unwrap_err().line, 2);
        assert_eq!(parse("x = 1\nx = 2").unwrap_err().line, 2);
        assert_eq!(parse("x = 1 y").unwrap_err().line, 1);
        let e = parse("x = 99999999999999999999").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        let deep = |levels: usize| format!("\nx = {}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&deep(MAX_NESTING)).is_ok());
        assert_eq!(parse(&deep(MAX_NESTING + 1)).unwrap_err().line, 2);
    }

    #[test]
    fn array_of_tables_coexists_with_plain_sections() {
        let doc = parse("[a]\nk = 1\n[[a]]\nk = 2").unwrap();
        assert_eq!(doc.section("a").unwrap().get("k"), Some(&Value::Int(1)));
        assert_eq!(doc.array_sections("a").count(), 1);
    }
}
