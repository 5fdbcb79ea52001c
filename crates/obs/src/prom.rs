//! Prometheus text exposition (version 0.0.4): render the whole
//! registry as `# HELP`/`# TYPE`-annotated sample lines, and a tiny
//! syntax checker the CI scrape-smoke job uses to validate what
//! `GET /metrics` serves.

use crate::registry::{
    counter_value, gauge_value, histogram_snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    NBUCKETS,
};
use std::fmt::Write as _;

/// Write a family's `# HELP`/`# TYPE` header when `name` differs from
/// the previous sample's family (`last`).
fn header(out: &mut String, last: &mut &'static str, name: &'static str, help: &str, kind: &str) {
    if name != *last {
        *last = name;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
}

fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Render the registry in Prometheus text exposition format.
///
/// Families with labelled variants (per-kernel counters, per-endpoint
/// latency histograms, per-state job counters) are grouped under one
/// `# HELP`/`# TYPE` header; histograms expose cumulative
/// `_bucket{le=…}` series over the registry's power-of-two bounds
/// plus `_sum` and `_count`. Always emits every catalogue metric, so
/// scrapes see a stable name set from the first request.
pub fn render_prometheus() -> String {
    let mut out = String::with_capacity(8192);

    let mut last = "";
    for c in Counter::ALL {
        header(&mut out, &mut last, c.name(), c.help(), "counter");
        sample(&mut out, c.name(), c.labels(), counter_value(c));
    }

    for g in Gauge::ALL {
        header(&mut out, &mut last, g.name(), g.help(), "gauge");
        sample(&mut out, g.name(), g.labels(), gauge_value(g));
    }

    for h in Histogram::ALL {
        header(&mut out, &mut last, h.name(), h.help(), "histogram");
        let snap = histogram_snapshot(h);
        let mut cumulative = 0u64;
        for (i, &count) in snap.buckets().iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            // Skip interior empty buckets to keep the page compact;
            // the first and +Inf buckets always render so the series
            // is well formed even when empty.
            if count == 0 && i != 0 && i != NBUCKETS - 1 {
                continue;
            }
            let le = if i == NBUCKETS - 1 {
                "+Inf".to_string()
            } else {
                HistogramSnapshot::bucket_bound(i).to_string()
            };
            let labels = if h.labels().is_empty() {
                format!("le=\"{le}\"")
            } else {
                format!("{},le=\"{le}\"", h.labels())
            };
            sample(
                &mut out,
                &format!("{}_bucket", h.name()),
                &labels,
                cumulative,
            );
        }
        sample(
            &mut out,
            &format!("{}_sum", h.name()),
            h.labels(),
            snap.sum(),
        );
        sample(
            &mut out,
            &format!("{}_count", h.name()),
            h.labels(),
            snap.count(),
        );
    }

    out
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if is_name_start(c)) && chars.all(is_name_char)
}

fn valid_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Validate one `name{labels}` prefix, returning the family name.
fn parse_series(s: &str) -> Result<&str, String> {
    let (name, labels) = match s.find('{') {
        None => (s, None),
        Some(open) => {
            let rest = &s[open + 1..];
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces in {s:?}"))?;
            if close != rest.len() - 1 {
                return Err(format!("trailing text after labels in {s:?}"));
            }
            (&s[..open], Some(&rest[..close]))
        }
    };
    if !valid_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    if let Some(labels) = labels {
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("label {pair:?} missing '='"))?;
            if !valid_name(k) || k.contains(':') {
                return Err(format!("invalid label name {k:?}"));
            }
            if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
                return Err(format!("label value {v:?} not quoted"));
            }
        }
    }
    Ok(name)
}

/// A tiny Prometheus text-format (0.0.4) syntax checker.
///
/// Accepts the subset the exporter emits (and any conforming page):
/// `# HELP name text`, `# TYPE name counter|gauge|histogram|summary|untyped`,
/// other comments, and `name{labels} value [timestamp]` samples.
/// Additionally enforces that every sample's family was introduced by
/// a `# TYPE` line when any `# TYPE` lines are present for it, and
/// that the page is newline-terminated. Returns the first problem
/// found, with its line number.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: HELP for invalid name {name:?}"));
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: TYPE for invalid name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown TYPE {kind:?}"));
                }
                if it.next().is_some() {
                    return Err(format!("line {lineno}: trailing text after TYPE"));
                }
                typed.push(name.to_string());
            }
            // Other comments are legal and unconstrained.
            continue;
        }
        // Sample line: series value [timestamp]. The series may
        // contain spaces only inside quoted label values; the
        // exporter never emits those, and we reject them here for
        // simplicity (values/timestamps are the trailing fields).
        let mut parts = line.split_whitespace();
        let series = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: blank sample"))?;
        let value = parts
            .next()
            .ok_or_else(|| format!("line {lineno}: sample {series:?} missing value"))?;
        let family = parse_series(series)?;
        if !valid_value(value) {
            return Err(format!("line {lineno}: invalid sample value {value:?}"));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {lineno}: invalid timestamp {ts:?}"));
            }
        }
        if parts.next().is_some() {
            return Err(format!("line {lineno}: trailing text after sample"));
        }
        if !typed.is_empty() {
            let base = family
                .strip_suffix("_bucket")
                .or_else(|| family.strip_suffix("_sum"))
                .or_else(|| family.strip_suffix("_count"))
                .unwrap_or(family);
            if !typed.iter().any(|t| t == family || t == base) {
                return Err(format!(
                    "line {lineno}: sample {family:?} has no TYPE header"
                ));
            }
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_self_valid() {
        // Rendering must pass the checker whether or not other tests
        // in this process have enabled the registry or bumped values.
        let page = render_prometheus();
        validate_exposition(&page).expect("exporter output must validate");
        assert!(page.contains("# TYPE bbncg_http_requests_total counter"));
        assert!(page.contains("# TYPE bbncg_serve_queue_depth gauge"));
        assert!(page.contains("# TYPE bbncg_http_request_duration_us histogram"));
        assert!(page
            .contains("bbncg_http_request_duration_us_bucket{endpoint=\"metrics\",le=\"+Inf\"}"));
    }

    #[test]
    fn checker_rejects_malformed_pages() {
        for (page, why) in [
            ("", "empty"),
            ("bbncg_x 1", "missing trailing newline"),
            ("# HELP 9bad help\n", "bad HELP name"),
            ("# TYPE bbncg_x widget\n", "bad TYPE kind"),
            ("bbncg_x{le=\"1\" 2\n", "unclosed braces"),
            ("bbncg_x{le=1} 2\n", "unquoted label value"),
            ("bbncg_x notanumber\n", "bad value"),
            ("bbncg_x 1 2 3\n", "trailing text"),
            ("bbncg_x\n", "missing value"),
            ("# TYPE bbncg_y counter\nbbncg_x 1\n", "untyped sample"),
            ("# HELP only_comments here\n", "no samples"),
        ] {
            assert!(validate_exposition(page).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn checker_accepts_minimal_pages() {
        validate_exposition("up 1\n").unwrap();
        validate_exposition("up{job=\"a\",instance=\"b\"} 1 1700000000\n").unwrap();
        validate_exposition("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n")
            .unwrap();
    }
}
