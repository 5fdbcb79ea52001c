//! Plain-text result tables for the experiment harness.
//!
//! Every experiment renders its output through [`Table`] so the
//! `experiments` binary shows the same rows the paper reports
//! (markdown) and machine-readable CSV can be captured with `--csv`.

use std::fmt::Write as _;

/// A titled table of strings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Table caption (e.g. "Table 1, row Trees/MAX — spider equilibria").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must match `headers` in length.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the headers.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as GitHub-flavoured markdown with a bold title line.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "**{}**\n", self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let _ = writeln!(out, "| {} |", sep.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Render as CSV (title omitted; headers first).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "diameter"]);
        t.push(vec!["10".into(), "4".into()]);
        t.push(vec!["100".into(), "6".into()]);
        t
    }

    #[test]
    fn markdown_renders_aligned() {
        let md = sample().to_markdown();
        assert!(md.contains("**Demo**"));
        assert!(md.contains("| n   | diameter |"));
        assert!(md.contains("| 100 | 6        |"));
    }

    #[test]
    fn csv_renders_and_escapes() {
        let mut t = sample();
        t.push(vec!["1,5".into(), "a\"b".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("n,diameter\n"));
        assert!(csv.contains("\"1,5\",\"a\"\"b\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = sample();
        t.push(vec!["only-one".into()]);
    }
}
