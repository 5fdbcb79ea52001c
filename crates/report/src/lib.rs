//! Declarative analysis reports: scenario JSONL in, one self-contained
//! HTML artifact out.
//!
//! A report spec (the scenario TOML subset, see [`spec`]) lists
//! analyses — convergence curves, perturbation recovery, PoA spectra
//! vs the paper's Table 1, an equilibrium census vs the
//! Àlvarez–Messegué structural bounds, an observability digest — and
//! [`run_report`] resolves them against either a fresh scenario run or
//! a pre-recorded JSONL stream, emits one schema-versioned JSON
//! fragment per analysis, and renders everything into a single HTML
//! page with inline SVG charts: no scripts, no external assets, no
//! network.
//!
//! The same renderer backs `bbncg report` offline and serve's
//! `GET /jobs/{id}/report` ([`render_stream_report`]); because served
//! streams are byte-identical to offline JSONL, the two artifacts are
//! byte-identical too.

#![warn(missing_docs)]

pub mod analyses;
pub mod ingest;
pub mod json;
pub mod render;
pub mod spec;
pub mod svg;

pub use analyses::{Fragment, ObsDelta, FRAGMENT_SCHEMA_VERSION};
pub use ingest::{parse_lines, Record};
pub use render::{render_page, self_containment_violation};
pub use spec::{parse_report, AnalysisSpec, ReportSpec};

use bbncg_scenario::{parse_spec, MemorySink};

/// Where the record stream for record-consuming analyses comes from.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReportInputs<'a> {
    /// Text of the scenario spec named by `[report] scenario = "…"`
    /// (the caller resolves the path and reads the file).
    pub scenario_text: Option<&'a str>,
    /// Pre-recorded JSONL (`--from`): ingest instead of running.
    pub jsonl: Option<&'a str>,
}

/// Execute a report: resolve inputs, build every fragment, render the
/// page. Deterministic for fixed spec + inputs (the `obs-digest`
/// analysis additionally requires the process's counter activity to be
/// quiescent, which the CLI guarantees by running one report per
/// process).
pub fn run_report(report: &ReportSpec, inputs: ReportInputs<'_>) -> Result<String, String> {
    let mut records: Vec<Record> = Vec::new();
    let mut delta = ObsDelta::default();
    let mut subtitle = String::new();

    if report.needs_records() {
        match inputs.jsonl {
            Some(jsonl) => {
                if report.needs_obs() {
                    return Err(
                        "obs-digest reads live counters from a fresh run; drop --from \
                         or remove the obs-digest analysis"
                            .to_string(),
                    );
                }
                records = ingest::parse_lines(jsonl)?;
                subtitle = format!(
                    "ingested {} records (scenario {:?})",
                    records.len(),
                    records[0].scenario
                );
            }
            None => {
                let text = inputs.scenario_text.ok_or_else(|| {
                    "report needs the scenario spec text (is [report] scenario set?)".to_string()
                })?;
                let mut scenario = parse_spec(text).map_err(|e| format!("scenario: {e}"))?;
                if let Some(seed) = report.seed {
                    scenario.seed = seed;
                }
                if report.needs_obs() {
                    bbncg_obs::enable();
                }
                let before = ObsDelta::snapshot();
                let mut sink = MemorySink::default();
                let outcomes = bbncg_scenario::run_sweep(&scenario, &mut sink);
                delta = ObsDelta::snapshot().since(&before);
                for outcome in &outcomes {
                    if let Err(e) = outcome {
                        return Err(format!("scenario run failed: {e}"));
                    }
                }
                records = sink.records.iter().map(Record::from_metric).collect();
                subtitle = format!(
                    "scenario {:?}, seed {} × {} seed(s), {} records",
                    scenario.name,
                    scenario.seed,
                    scenario.seeds,
                    records.len()
                );
            }
        }
    }

    let fragments: Vec<Fragment> = report
        .analyses
        .iter()
        .map(|a| analyses::build(a, &records, &delta))
        .collect();
    let html = render_page(&report.title, &subtitle, &fragments);
    debug_assert_eq!(self_containment_violation(&html), None);
    Ok(html)
}

/// The `--dry-run` plan: what [`run_report`] would do, one line per
/// step, executing nothing.
pub fn plan(report: &ReportSpec, from: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str(&format!("report: {}\n", report.title));
    if report.needs_records() {
        match (from, &report.scenario) {
            (Some(path), _) => out.push_str(&format!("input: ingest JSONL from {path}\n")),
            (None, Some(scenario)) => {
                out.push_str(&format!("input: run scenario {scenario}"));
                if let Some(seed) = report.seed {
                    out.push_str(&format!(" (seed override {seed})"));
                }
                out.push('\n');
            }
            (None, None) => out.push_str("input: (missing scenario)\n"),
        }
    } else {
        out.push_str("input: none (all analyses self-sampling)\n");
    }
    for (i, a) in report.analyses.iter().enumerate() {
        let what = match a {
            AnalysisSpec::Convergence => {
                "steps/rounds to quiescence per seed, from dynamics phases".to_string()
            }
            AnalysisSpec::Recovery => {
                "recovery rounds/steps after each perturbation event".to_string()
            }
            AnalysisSpec::ObsDigest => {
                "prune-hit + sharded move/discard rates from live counters".to_string()
            }
            AnalysisSpec::PoaSpectrum {
                sizes,
                budget,
                samples,
                max_rounds,
                model,
            } => format!(
                "scan sizes {sizes:?}, uniform budget {budget}, {samples} samples/size, \
                 {model:?} cost, round cap {max_rounds}"
            ),
            AnalysisSpec::Census {
                n,
                budget,
                samples,
                max_rounds,
                model,
                seed,
            } => format!(
                "sample {samples} equilibria at n = {n}, uniform budget {budget}, \
                 {model:?} cost, round cap {max_rounds}, base seed {seed}"
            ),
        };
        out.push_str(&format!("{:>2}. {:<13} {what}\n", i + 1, a.kind()));
    }
    out
}

/// Render the default "stream report" — convergence + recovery — from
/// a record stream alone (no report spec). This is what serve's
/// `GET /jobs/{id}/report` renders from a job's buffered lines and
/// what `bbncg report --from FILE` (no spec) renders offline; the two
/// are byte-identical because the streams are.
pub fn render_stream_report(jsonl: &str) -> Result<String, String> {
    let records = ingest::parse_lines(jsonl)?;
    let title = format!("stream report: {}", records[0].scenario);
    let subtitle = format!("ingested {} records", records.len());
    let delta = ObsDelta::default();
    let fragments = vec![
        analyses::build(&AnalysisSpec::Convergence, &records, &delta),
        analyses::build(&AnalysisSpec::Recovery, &records, &delta),
    ];
    let html = render_page(&title, &subtitle, &fragments);
    debug_assert_eq!(self_containment_violation(&html), None);
    Ok(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = r#"
[scenario]
name = "tiny"
seed = 3
seeds = 2

[init]
family = "uniform"
n = 6
budget = 1

[[phase]]
kind = "dynamics"

[[phase]]
kind = "arrive"
count = 1
budget = 1

[[phase]]
kind = "dynamics"
"#;

    const REPORT: &str = r#"
[report]
title = "tiny study"
scenario = "tiny.toml"

[[analysis]]
kind = "convergence"

[[analysis]]
kind = "recovery"

[[analysis]]
kind = "poa-spectrum"
sizes = [5, 6]
samples = 2
max_rounds = 100

[[analysis]]
kind = "census"
n = 6
samples = 3
max_rounds = 100
"#;

    #[test]
    fn four_kinds_end_to_end_and_deterministic() {
        let spec = parse_report(REPORT).unwrap();
        let inputs = ReportInputs {
            scenario_text: Some(SCENARIO),
            jsonl: None,
        };
        let a = run_report(&spec, inputs).unwrap();
        let b = run_report(&spec, inputs).unwrap();
        assert_eq!(a, b, "report rendering must be byte-deterministic");
        assert_eq!(self_containment_violation(&a), None);
        for kind in ["convergence", "recovery", "poa-spectrum", "census"] {
            assert!(
                a.contains(&format!("<section id=\"{kind}\">")),
                "{kind} missing"
            );
        }
    }

    #[test]
    fn from_jsonl_matches_fresh_run_for_record_analyses() {
        // A fresh run and an ingest of that run's own JSONL must agree
        // on every record-derived fragment.
        let scenario = parse_spec(SCENARIO).unwrap();
        let mut sink = bbncg_scenario::StringSink::default();
        for outcome in bbncg_scenario::run_sweep(&scenario, &mut sink) {
            outcome.unwrap();
        }
        let jsonl = sink.out;

        let spec = parse_report(
            "[report]\nscenario = \"x\"\n[[analysis]]\nkind = \"convergence\"\n\
             [[analysis]]\nkind = \"recovery\"\n",
        )
        .unwrap();
        let fresh = run_report(
            &spec,
            ReportInputs {
                scenario_text: Some(SCENARIO),
                jsonl: None,
            },
        )
        .unwrap();
        let ingested = run_report(
            &spec,
            ReportInputs {
                scenario_text: None,
                jsonl: Some(&jsonl),
            },
        )
        .unwrap();
        // Subtitles differ (run vs ingest provenance); every fragment
        // section must not.
        let section = |html: &str| {
            let start = html.find("<section").unwrap();
            let end = html.rfind("</section>").unwrap() + "</section>".len();
            html[start..end].to_string()
        };
        assert_eq!(section(&fresh), section(&ingested));
    }

    #[test]
    fn obs_digest_rejects_ingested_streams() {
        let spec =
            parse_report("[report]\nscenario = \"x\"\n[[analysis]]\nkind = \"obs-digest\"\n")
                .unwrap();
        let err = run_report(
            &spec,
            ReportInputs {
                scenario_text: None,
                jsonl: Some("{}"),
            },
        )
        .unwrap_err();
        assert!(err.contains("obs-digest"), "{err}");
    }

    #[test]
    fn obs_digest_runs_fresh() {
        let spec =
            parse_report("[report]\nscenario = \"x\"\n[[analysis]]\nkind = \"obs-digest\"\n")
                .unwrap();
        let html = run_report(
            &spec,
            ReportInputs {
                scenario_text: Some(SCENARIO),
                jsonl: None,
            },
        )
        .unwrap();
        assert!(html.contains("<section id=\"obs-digest\">"));
        assert!(html.contains("dynamics rounds"));
    }

    #[test]
    fn plan_prints_without_executing() {
        let spec = parse_report(REPORT).unwrap();
        let p = plan(&spec, None);
        assert!(p.contains("report: tiny study"));
        assert!(p.contains("input: run scenario tiny.toml"));
        assert!(p.contains("1. convergence"));
        assert!(p.contains("4. census"));
        let p2 = plan(&spec, Some("out.jsonl"));
        assert!(p2.contains("input: ingest JSONL from out.jsonl"));
    }

    #[test]
    fn stream_report_is_deterministic_and_self_contained() {
        let scenario = parse_spec(SCENARIO).unwrap();
        let mut sink = bbncg_scenario::StringSink::default();
        for outcome in bbncg_scenario::run_sweep(&scenario, &mut sink) {
            outcome.unwrap();
        }
        let a = render_stream_report(&sink.out).unwrap();
        let b = render_stream_report(&sink.out).unwrap();
        assert_eq!(a, b);
        assert_eq!(self_containment_violation(&a), None);
        assert!(a.contains("stream report: tiny"));
    }
}
