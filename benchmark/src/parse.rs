//! Readers for the two server documents the traced run consumes: the
//! `GET /jobs/{id}` status line and the `GET /metrics` exposition.

/// The lifecycle timings of one job's status document.
#[derive(Debug, Default, PartialEq)]
pub struct JobTimings {
    pub state: String,
    /// Submit → worker pickup (present once the job started).
    pub queue_wait_us: Option<u64>,
    /// Pickup → terminal (present once the job is terminal).
    pub run_us: Option<u64>,
    /// Per-phase durations, in phase order.
    pub phase_us: Vec<u64>,
}

/// Parse a `GET /jobs/{id}` body such as
/// `{"job":3,"state":"completed","queue_wait_us":12,"run_us":340,"phase_us":[200,40,100]}`.
pub fn job_timings(doc: &str) -> Option<JobTimings> {
    let state = string_field(doc, "state")?;
    let phase_us = match doc.find("\"phase_us\":[") {
        Some(at) => {
            let body = &doc[at + "\"phase_us\":[".len()..];
            let body = &body[..body.find(']')?];
            body.split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.trim().parse().ok())
                .collect::<Option<Vec<u64>>>()?
        }
        None => Vec::new(),
    };
    Some(JobTimings {
        state,
        queue_wait_us: number_field(doc, "queue_wait_us"),
        run_us: number_field(doc, "run_us"),
        phase_us,
    })
}

fn number_field(doc: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let digits: String = doc[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn string_field(doc: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = doc.find(&pat)? + pat.len();
    let end = doc[at..].find('"')?;
    Some(doc[at..at + end].to_string())
}

/// The value of one sample in a Prometheus exposition, addressed by
/// its full series name (`name` or `name{labels}`), e.g.
/// `bbncg_serve_cache_total{result="hit"}`.
pub fn prom_value(page: &str, series: &str) -> Option<f64> {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_job_document() {
        let doc = "{\"job\":12,\"kind\":\"scenario\",\"state\":\"completed\",\"records\":8,\
                   \"queue_wait_us\":41,\"run_us\":1093,\"phase_us\":[512,3,250,2,180,4,90]}";
        let t = job_timings(doc).unwrap();
        assert_eq!(t.state, "completed");
        assert_eq!(t.queue_wait_us, Some(41));
        assert_eq!(t.run_us, Some(1093));
        assert_eq!(t.phase_us, vec![512, 3, 250, 2, 180, 4, 90]);
    }

    #[test]
    fn timings_appear_as_they_become_defined() {
        let queued = "{\"job\":1,\"kind\":\"scenario\",\"state\":\"queued\",\"records\":0}";
        let t = job_timings(queued).unwrap();
        assert_eq!(t.state, "queued");
        assert_eq!((t.queue_wait_us, t.run_us), (None, None));
        assert!(t.phase_us.is_empty());
        let running =
            "{\"job\":1,\"kind\":\"scenario\",\"state\":\"running\",\"records\":0,\"queue_wait_us\":0}";
        let t = job_timings(running).unwrap();
        assert_eq!((t.queue_wait_us, t.run_us), (Some(0), None));
        let failed = "{\"job\":2,\"kind\":\"scenario\",\"state\":\"failed\",\"records\":1,\
                      \"queue_wait_us\":5,\"run_us\":9,\"error\":\"phase 2: \\\"x\\\"\"}";
        let t = job_timings(failed).unwrap();
        assert_eq!(t.state, "failed");
        assert_eq!(t.run_us, Some(9));
    }

    #[test]
    fn malformed_documents_are_refused() {
        assert_eq!(job_timings("{\"job\":1}"), None);
        assert_eq!(
            job_timings("{\"state\":\"completed\",\"phase_us\":[1,x]}"),
            None
        );
        assert_eq!(
            job_timings("{\"state\":\"completed\",\"phase_us\":[1,2"),
            None
        );
    }

    #[test]
    fn exposition_counters_by_series() {
        let page = "# HELP bbncg_http_requests_total HTTP requests routed\n\
                    # TYPE bbncg_http_requests_total counter\n\
                    bbncg_http_requests_total 4021\n\
                    bbncg_http_requests_total_extra 1\n\
                    bbncg_serve_cache_total{result=\"hit\"} 250\n\
                    bbncg_serve_cache_total{result=\"miss\"} 751\n\
                    bbncg_http_keepalive_reuses_total 4019\n";
        assert_eq!(prom_value(page, "bbncg_http_requests_total"), Some(4021.0));
        assert_eq!(
            prom_value(page, "bbncg_serve_cache_total{result=\"hit\"}"),
            Some(250.0)
        );
        assert_eq!(
            prom_value(page, "bbncg_serve_cache_total{result=\"miss\"}"),
            Some(751.0)
        );
        assert_eq!(
            prom_value(page, "bbncg_http_keepalive_reuses_total"),
            Some(4019.0)
        );
        assert_eq!(prom_value(page, "bbncg_serve_cache_total"), None);
        assert_eq!(prom_value(page, "bbncg_missing_total"), None);
    }

    #[test]
    fn exposition_from_the_registry_parses() {
        let page = bbncg_obs::render_prometheus();
        bbncg_obs::validate_exposition(&page).unwrap();
        for series in [
            "bbncg_http_requests_total",
            "bbncg_http_keepalive_reuses_total",
            "bbncg_serve_cache_total{result=\"hit\"}",
            "bbncg_serve_cache_total{result=\"miss\"}",
            "bbncg_serve_cache_total{result=\"coalesced\"}",
        ] {
            assert!(prom_value(&page, series).is_some(), "{series} missing");
        }
    }
}
