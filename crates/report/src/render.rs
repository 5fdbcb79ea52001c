//! Assembling fragments into one self-contained HTML page.
//!
//! The artifact is a single file: inline stylesheet, inline SVG, no
//! `<script>`, no external references of any kind — it must open from
//! a `file://` URL on an air-gapped machine and byte-diff cleanly
//! across runs (the CI determinism gauntlet includes it).

use crate::analyses::Fragment;
use std::fmt::Write as _;

/// Escape text for HTML element content and attribute values.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Render an HTML table (cells escaped).
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::from("<table><thead><tr>");
    for h in headers {
        let _ = write!(out, "<th>{}</th>", html_escape(h));
    }
    out.push_str("</tr></thead><tbody>");
    for row in rows {
        out.push_str("<tr>");
        for cell in row {
            let _ = write!(out, "<td>{}</td>", html_escape(cell));
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

/// The page's one inline stylesheet. Series classes `.s0`–`.s5` are
/// the chart palette ([`crate::svg`]).
const STYLE: &str = "\
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:46rem;\
padding:0 1rem;color:#1a202c}\
h1{font-size:1.4rem;border-bottom:2px solid #2b6cb0;padding-bottom:.3rem}\
h2{font-size:1.1rem;margin-top:2rem}\
table{border-collapse:collapse;margin:1rem 0;font-size:13px}\
th,td{border:1px solid #cbd5e0;padding:.25rem .6rem;text-align:right}\
th{background:#edf2f7}\
svg.chart{width:100%;height:auto;background:#fbfbfc;border:1px solid #e2e8f0;\
margin:.5rem 0}\
svg .axis{stroke:#4a5568;stroke-width:1}\
svg .bound{stroke:#c53030;stroke-width:1;stroke-dasharray:5 3}\
svg .bar{fill:#2b6cb0}\
svg .tick{font:10px sans-serif;fill:#4a5568}\
svg .label{font:11px sans-serif;fill:#1a202c}\
svg polyline{fill:none;stroke-width:1.5}\
svg .s0{stroke:#2b6cb0;fill:none}svg circle.s0{fill:#2b6cb0}\
svg .s1{stroke:#c05621;fill:none}svg circle.s1{fill:#c05621}\
svg .s2{stroke:#2f855a;fill:none}svg circle.s2{fill:#2f855a}\
svg .s3{stroke:#6b46c1;fill:none}svg circle.s3{fill:#6b46c1}\
svg .s4{stroke:#b83280;fill:none}svg circle.s4{fill:#b83280}\
svg .s5{stroke:#975a16;fill:none}svg circle.s5{fill:#975a16}\
details{margin:.5rem 0}\
details pre{background:#f7fafc;border:1px solid #e2e8f0;padding:.5rem;\
overflow-x:auto;font-size:11px}\
footer{margin-top:2.5rem;font-size:12px;color:#718096}";

/// Combine fragments into the final self-contained page.
pub fn render_page(title: &str, subtitle: &str, fragments: &[Fragment]) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    let _ = write!(out, "<title>{}</title>", html_escape(title));
    let _ = write!(out, "<style>{STYLE}</style>");
    out.push_str("</head><body>");
    let _ = write!(out, "<h1>{}</h1>", html_escape(title));
    if !subtitle.is_empty() {
        let _ = write!(out, "<p>{}</p>", html_escape(subtitle));
    }
    for f in fragments {
        let _ = write!(
            out,
            "<section id=\"{}\"><h2>{}</h2>{}</section>",
            html_escape(f.kind),
            html_escape(&f.title),
            f.html
        );
    }
    let _ = write!(
        out,
        "<footer>bbncg report · fragment schema v{} · bounded-budget network \
         creation games (Ehsani et al., SPAA 2011)</footer>",
        crate::analyses::FRAGMENT_SCHEMA_VERSION
    );
    out.push_str("</body></html>\n");
    out
}

/// Assert the self-containment contract: no scripts, no external
/// URLs, no resource references. Returns the first violation found
/// (used by tests and by debug assertions in the entry points).
pub fn self_containment_violation(html: &str) -> Option<&'static str> {
    let lower = html.to_ascii_lowercase();
    for (needle, what) in [
        ("<script", "script element"),
        ("<link", "link element"),
        ("<iframe", "iframe element"),
        ("src=", "src attribute"),
        ("href=", "href attribute"),
        ("http://", "http URL"),
        ("https://", "https URL"),
        ("url(", "css url() reference"),
        ("@import", "css import"),
    ] {
        if lower.contains(needle) {
            return Some(what);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag() -> Fragment {
        Fragment {
            kind: "convergence",
            title: "A <title> & more".to_string(),
            json: "{\"fragment_schema_version\":2,\"kind\":\"convergence\"}".to_string(),
            html: "<p>body</p>".to_string(),
        }
    }

    #[test]
    fn page_is_self_contained() {
        let html = render_page("t & t", "sub < sub", &[frag()]);
        assert_eq!(self_containment_violation(&html), None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h1>t &amp; t</h1>"));
        assert!(html.contains("A &lt;title&gt; &amp; more"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn violations_are_caught() {
        assert!(self_containment_violation("<script src=\"x\">").is_some());
        assert!(self_containment_violation("<a href=\"https://x\">").is_some());
        assert!(self_containment_violation("style=\"background:url(x)\"").is_some());
        assert!(self_containment_violation("<p>fine</p>").is_none());
    }

    #[test]
    fn tables_escape_cells() {
        let t = table(&["a<b"], &[vec!["x&y".to_string()]]);
        assert!(t.contains("<th>a&lt;b</th>"));
        assert!(t.contains("<td>x&amp;y</td>"));
    }
}
