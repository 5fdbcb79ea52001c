//! The declarative report spec: `[report]` + repeated `[[analysis]]`.
//!
//! Report specs ride on the same hand-rolled TOML subset as scenario
//! specs ([`bbncg_scenario::toml`]), so the grammar, escapes and error
//! style are identical:
//!
//! ```text
//! [report]
//! title = "churn study"          # page title (default "bbncg report")
//! scenario = "examples/churn.toml"  # path, resolved by the caller
//! seed = 42                      # optional scenario seed override
//!
//! [[analysis]]
//! kind = "convergence"           # per-seed steps/rounds to quiescence
//!
//! [[analysis]]
//! kind = "poa-spectrum"          # Table 1 series via bbncg-analysis
//! sizes = [6, 8, 10]
//! budget = 1
//! samples = 8
//! ```
//!
//! Five analysis kinds exist; three (`convergence`, `recovery`,
//! `obs-digest`) consume a scenario record stream, two (`poa-spectrum`,
//! `census`) run their own equilibrium sampling and need no scenario.
//! Unknown sections, kinds and keys fail loudly with a line number.

use bbncg_core::CostModel;
use bbncg_scenario::toml::{self, SpecError, TomlTable, Value};

/// A validated report spec.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSpec {
    /// Page title.
    pub title: String,
    /// Scenario spec path, as written (`[report] scenario = "…"`);
    /// the caller resolves it relative to the report spec's directory
    /// and supplies the text.
    pub scenario: Option<String>,
    /// Scenario seed override (`[report] seed = …`).
    pub seed: Option<u64>,
    /// Analyses, in source order.
    pub analyses: Vec<AnalysisSpec>,
}

impl ReportSpec {
    /// Does any analysis need a scenario record stream?
    pub fn needs_records(&self) -> bool {
        self.analyses.iter().any(|a| a.needs_records())
    }

    /// Does any analysis need live `bbncg_obs` counters (i.e. a fresh
    /// scenario run, not ingested JSONL)?
    pub fn needs_obs(&self) -> bool {
        self.analyses
            .iter()
            .any(|a| matches!(a, AnalysisSpec::ObsDigest))
    }
}

/// One `[[analysis]]` entry.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalysisSpec {
    /// Steps/rounds-to-quiescence per seed, from dynamics phases.
    Convergence,
    /// Recovery time (rounds/steps of the next dynamics phase) after
    /// each perturbation event.
    Recovery,
    /// Counter digest of the run: prune-hit rates, sharded-executor
    /// move/discard rates (the `bbncg-obs` registry).
    ObsDigest,
    /// Empirical price-of-anarchy series vs the paper's Table 1.
    PoaSpectrum {
        /// Player counts to scan.
        sizes: Vec<usize>,
        /// Uniform per-player budget.
        budget: usize,
        /// Trajectories per size.
        samples: usize,
        /// Dynamics round cap per trajectory.
        max_rounds: usize,
        /// SUM or MAX cost.
        model: CostModel,
    },
    /// Equilibrium census: degree/diameter/eccentricity distributions
    /// vs the Àlvarez–Messegué structural bound.
    Census {
        /// Number of players.
        n: usize,
        /// Uniform per-player budget.
        budget: usize,
        /// Trajectories to sample.
        samples: usize,
        /// Dynamics round cap per trajectory.
        max_rounds: usize,
        /// SUM or MAX cost.
        model: CostModel,
        /// Base seed of the sample sweep.
        seed: u64,
    },
}

impl AnalysisSpec {
    /// The `kind = "…"` label, as written in specs.
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisSpec::Convergence => "convergence",
            AnalysisSpec::Recovery => "recovery",
            AnalysisSpec::ObsDigest => "obs-digest",
            AnalysisSpec::PoaSpectrum { .. } => "poa-spectrum",
            AnalysisSpec::Census { .. } => "census",
        }
    }

    /// Does this analysis consume a scenario record stream?
    pub fn needs_records(&self) -> bool {
        matches!(
            self,
            AnalysisSpec::Convergence | AnalysisSpec::Recovery | AnalysisSpec::ObsDigest
        )
    }
}

fn get_int(t: &TomlTable, key: &str) -> Result<Option<i64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Int(v)) => Ok(Some(*v)),
        Some(v) => Err(SpecError::at(
            t.line,
            format!(
                "[{}] {key} must be an integer, got {}",
                t.name,
                v.type_name()
            ),
        )),
    }
}

fn get_usize(t: &TomlTable, key: &str) -> Result<Option<usize>, SpecError> {
    match get_int(t, key)? {
        None => Ok(None),
        Some(v) if v >= 0 => Ok(Some(v as usize)),
        Some(v) => Err(SpecError::at(
            t.line,
            format!("[{}] {key} must be non-negative, got {v}", t.name),
        )),
    }
}

fn get_u64(t: &TomlTable, key: &str) -> Result<Option<u64>, SpecError> {
    match get_int(t, key)? {
        None => Ok(None),
        Some(v) if v >= 0 => Ok(Some(v as u64)),
        Some(v) => Err(SpecError::at(
            t.line,
            format!("[{}] {key} must be non-negative, got {v}", t.name),
        )),
    }
}

fn get_str<'a>(t: &'a TomlTable, key: &str) -> Result<Option<&'a str>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(v) => Err(SpecError::at(
            t.line,
            format!("[{}] {key} must be a string, got {}", t.name, v.type_name()),
        )),
    }
}

fn get_usize_list(t: &TomlTable, key: &str) -> Result<Option<Vec<usize>>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::List(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::Int(v) if *v >= 0 => out.push(*v as usize),
                    other => {
                        return Err(SpecError::at(
                            t.line,
                            format!(
                                "[{}] {key} must list non-negative integers, got {}",
                                t.name,
                                other.type_name()
                            ),
                        ))
                    }
                }
            }
            Ok(Some(out))
        }
        Some(v) => Err(SpecError::at(
            t.line,
            format!("[{}] {key} must be an array, got {}", t.name, v.type_name()),
        )),
    }
}

fn get_model(t: &TomlTable, key: &str) -> Result<Option<CostModel>, SpecError> {
    match get_str(t, key)? {
        None => Ok(None),
        Some("sum") => Ok(Some(CostModel::Sum)),
        Some("max") => Ok(Some(CostModel::Max)),
        Some(other) => Err(SpecError::at(
            t.line,
            format!(
                "[{}] {key} must be \"sum\" or \"max\", got {other:?}",
                t.name
            ),
        )),
    }
}

fn check_keys(t: &TomlTable, allowed: &[&str]) -> Result<(), SpecError> {
    for key in t.keys() {
        if !allowed.contains(&key) {
            return Err(SpecError::at(
                t.line,
                format!(
                    "[{}] unknown key {key:?} (allowed: {})",
                    t.name,
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

/// Parse and validate a report spec.
pub fn parse_report(text: &str) -> Result<ReportSpec, SpecError> {
    let doc = toml::parse(text)?;

    if !doc.root.entries.is_empty() {
        return Err(SpecError::at(
            0,
            "report specs have no top-level keys; put them under [report]",
        ));
    }
    for section in &doc.sections {
        if section.name != "report" && section.name != "analysis" {
            return Err(SpecError::at(
                section.line,
                format!(
                    "unknown section [{}] (expected [report] or [[analysis]])",
                    section.name
                ),
            ));
        }
        if section.name == "analysis" && !section.is_array {
            return Err(SpecError::at(
                section.line,
                "analyses repeat: write [[analysis]], not [analysis]",
            ));
        }
    }

    let report = doc
        .section("report")
        .ok_or_else(|| SpecError::at(0, "missing [report] section"))?;
    check_keys(report, &["title", "scenario", "seed"])?;
    let title = get_str(report, "title")?
        .unwrap_or("bbncg report")
        .to_string();
    let scenario = get_str(report, "scenario")?.map(str::to_string);
    let seed = get_u64(report, "seed")?;

    let mut analyses = Vec::new();
    for t in doc.array_sections("analysis") {
        analyses.push(parse_analysis(t)?);
    }
    if analyses.is_empty() {
        return Err(SpecError::at(0, "a report needs at least one [[analysis]]"));
    }

    let spec = ReportSpec {
        title,
        scenario,
        seed,
        analyses,
    };
    if spec.needs_records() && spec.scenario.is_none() {
        let needy = spec
            .analyses
            .iter()
            .filter(|a| a.needs_records())
            .map(AnalysisSpec::kind)
            .collect::<Vec<_>>()
            .join(", ");
        return Err(SpecError::at(
            0,
            format!(
                "analyses [{needy}] consume a scenario record stream: \
                 set [report] scenario = \"…\" (or run with --from)"
            ),
        ));
    }
    Ok(spec)
}

fn parse_analysis(t: &TomlTable) -> Result<AnalysisSpec, SpecError> {
    let kind = get_str(t, "kind")?
        .ok_or_else(|| SpecError::at(t.line, "[[analysis]] needs kind = \"…\""))?;
    match kind {
        "convergence" => {
            check_keys(t, &["kind"])?;
            Ok(AnalysisSpec::Convergence)
        }
        "recovery" => {
            check_keys(t, &["kind"])?;
            Ok(AnalysisSpec::Recovery)
        }
        "obs-digest" => {
            check_keys(t, &["kind"])?;
            Ok(AnalysisSpec::ObsDigest)
        }
        "poa-spectrum" => {
            check_keys(
                t,
                &["kind", "sizes", "budget", "samples", "max_rounds", "model"],
            )?;
            let sizes = get_usize_list(t, "sizes")?
                .ok_or_else(|| SpecError::at(t.line, "poa-spectrum needs sizes = [n, …]"))?;
            if sizes.is_empty() || sizes.iter().any(|&n| n < 2) {
                return Err(SpecError::at(
                    t.line,
                    "poa-spectrum sizes must be a non-empty list of n >= 2",
                ));
            }
            Ok(AnalysisSpec::PoaSpectrum {
                sizes,
                budget: get_usize(t, "budget")?.unwrap_or(1),
                samples: get_usize(t, "samples")?.unwrap_or(8).max(1),
                max_rounds: get_usize(t, "max_rounds")?.unwrap_or(200).max(1),
                model: get_model(t, "model")?.unwrap_or(CostModel::Sum),
            })
        }
        "census" => {
            check_keys(
                t,
                &[
                    "kind",
                    "n",
                    "budget",
                    "samples",
                    "max_rounds",
                    "model",
                    "seed",
                ],
            )?;
            let n =
                get_usize(t, "n")?.ok_or_else(|| SpecError::at(t.line, "census needs n = …"))?;
            if n < 2 {
                return Err(SpecError::at(t.line, "census needs n >= 2"));
            }
            Ok(AnalysisSpec::Census {
                n,
                budget: get_usize(t, "budget")?.unwrap_or(1),
                samples: get_usize(t, "samples")?.unwrap_or(16).max(1),
                max_rounds: get_usize(t, "max_rounds")?.unwrap_or(200).max(1),
                model: get_model(t, "model")?.unwrap_or(CostModel::Sum),
                seed: get_u64(t, "seed")?.unwrap_or(0xCE55),
            })
        }
        other => Err(SpecError::at(
            t.line,
            format!(
                "unknown analysis kind {other:?} (expected convergence, recovery, \
                 obs-digest, poa-spectrum or census)"
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
[report]
title = "churn study"
scenario = "churn.toml"
seed = 42

[[analysis]]
kind = "convergence"

[[analysis]]
kind = "recovery"

[[analysis]]
kind = "poa-spectrum"
sizes = [6, 8]
samples = 4

[[analysis]]
kind = "census"
n = 8
samples = 4

[[analysis]]
kind = "obs-digest"
"#;

    #[test]
    fn parses_a_full_spec() {
        let spec = parse_report(FULL).unwrap();
        assert_eq!(spec.title, "churn study");
        assert_eq!(spec.scenario.as_deref(), Some("churn.toml"));
        assert_eq!(spec.seed, Some(42));
        assert_eq!(spec.analyses.len(), 5);
        assert!(spec.needs_records());
        assert!(spec.needs_obs());
        assert_eq!(
            spec.analyses.iter().map(|a| a.kind()).collect::<Vec<_>>(),
            [
                "convergence",
                "recovery",
                "poa-spectrum",
                "census",
                "obs-digest"
            ]
        );
    }

    #[test]
    fn defaults_fill_in() {
        let spec = parse_report("[report]\n[[analysis]]\nkind = \"census\"\nn = 6\n").unwrap();
        assert_eq!(spec.title, "bbncg report");
        assert!(!spec.needs_records());
        match &spec.analyses[0] {
            AnalysisSpec::Census {
                n,
                budget,
                samples,
                max_rounds,
                model,
                seed,
            } => {
                assert_eq!((*n, *budget, *samples, *max_rounds), (6, 1, 16, 200));
                assert_eq!(*model, CostModel::Sum);
                assert_eq!(*seed, 0xCE55);
            }
            other => panic!("wrong analysis: {other:?}"),
        }
    }

    #[test]
    fn record_analyses_require_a_scenario() {
        let err = parse_report("[report]\n[[analysis]]\nkind = \"convergence\"\n").unwrap_err();
        assert!(err.msg.contains("scenario"), "{err}");
    }

    #[test]
    fn rejects_unknowns() {
        assert!(
            parse_report("[report]\nbogus = 1\n[[analysis]]\nkind = \"census\"\nn = 4\n").is_err()
        );
        assert!(parse_report("[report]\n[[analysis]]\nkind = \"nope\"\n").is_err());
        assert!(parse_report("[report]\n[analysis]\nkind = \"census\"\nn = 4\n").is_err());
        assert!(parse_report("[report]\n").is_err());
        assert!(parse_report("[other]\n").is_err());
        assert!(
            parse_report("[report]\n[[analysis]]\nkind = \"poa-spectrum\"\nsizes = [1]\n").is_err()
        );
        assert!(parse_report(
            "[report]\n[[analysis]]\nkind = \"census\"\nn = 6\nmodel = \"avg\"\n"
        )
        .is_err());
    }
}
