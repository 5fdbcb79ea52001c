//! The cold `/metrics` page, byte for byte.
//!
//! `metrics_scrape` checks the page's syntax and `metric_catalogue`
//! its family names; this test pins everything else a scraper or a
//! dashboard reads: family order, `# HELP` text, label sets and the
//! empty histogram series. It runs in its own process with the
//! registry never enabled, so every sample is zero.
//!
//! A change that alters the page on purpose regenerates
//! `golden/exposition.prom` from `bbncg_obs::render_prometheus()` in
//! a fresh process and says so in CHANGES.md.

const GOLDEN: &str = include_str!("golden/exposition.prom");

#[test]
fn the_cold_metrics_page_matches_its_golden_bytes() {
    assert!(!bbncg_obs::enabled(), "the golden page is the all-zero one");
    let page = bbncg_obs::render_prometheus();
    if page != GOLDEN {
        let first = page
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .map_or_else(
                || "the line counts differ".to_string(),
                |i| format!("line {} differs", i + 1),
            );
        panic!(
            "/metrics drifted from tests/golden/exposition.prom ({first}; {} lines \
             against {}):\n{page}",
            page.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
