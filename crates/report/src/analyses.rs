//! The five report analyses. Each produces a [`Fragment`]: a
//! schema-versioned JSON blob (machine-readable, embedded verbatim in
//! the page) plus the HTML/SVG section body.
//!
//! Output is byte-deterministic for fixed inputs: floats print at
//! fixed precision (`{:.3}`, NaN → `null`), iteration orders are
//! source/seed order, and the sampling analyses delegate to the
//! deterministic sweeps in `bbncg-analysis`.

use crate::ingest::Record;
use crate::render::{html_escape, table};
use crate::spec::AnalysisSpec;
use crate::svg::{self, Series};
use bbncg_analysis::{poa_scan, sample_equilibria, summarize};
use bbncg_core::dynamics::DynamicsConfig;
use bbncg_core::{BudgetVector, CostModel};
use bbncg_graph::{eccentricities, GraphMetrics, NodeId};

/// Schema version stamped into every JSON fragment.
pub const FRAGMENT_SCHEMA_VERSION: u64 = 2;

/// One rendered analysis: the JSON fragment and the HTML section body.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// Analysis kind (`"convergence"`, …).
    pub kind: &'static str,
    /// Section heading.
    pub title: String,
    /// Schema-versioned JSON fragment.
    pub json: String,
    /// Section body: charts and tables (no heading, no wrapper).
    pub html: String,
}

/// Counter deltas captured around a fresh scenario run, for the
/// `obs-digest` analysis. All values are differences of
/// [`bbncg_obs::counter_value`] snapshots taken before/after the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsDelta {
    /// Candidates priced by a full traversal (all kernels).
    pub priced: u64,
    /// Activations whose candidates the unit-budget closed form (SUM or
    /// MAX) priced in one pass instead (no kernel traversal).
    pub closed_form: u64,
    /// Candidates skipped by a lower bound (all kernels).
    pub prune_skips: u64,
    /// Candidates priced exactly from the bound, without a BFS.
    pub prune_exact: u64,
    /// Activations the sharded round executor split across engines.
    pub rounds_evals: u64,
    /// Moves committed by sharded activations.
    pub rounds_commits: u64,
    /// Candidates sharded activations examined past an earlier slice's
    /// proof of the optimum.
    pub rounds_discards: u64,
    /// Dynamics rounds executed.
    pub dynamics_rounds: u64,
    /// Improving moves committed.
    pub dynamics_steps: u64,
    /// Scenario phases entered.
    pub scenario_phases: u64,
    /// Perturbation events applied.
    pub scenario_events: u64,
    /// Scenario seeds completed.
    pub scenario_seeds: u64,
}

impl ObsDelta {
    /// Snapshot the relevant counters (call before and after a run;
    /// subtract with [`ObsDelta::since`]).
    pub fn snapshot() -> ObsDelta {
        use bbncg_obs::{counter_value as cv, Counter as C};
        ObsDelta {
            priced: cv(C::KernelPricedBitset) + cv(C::KernelPricedSparse),
            closed_form: cv(C::ClosedFormActivations),
            prune_skips: cv(C::KernelPruneSkipBitset) + cv(C::KernelPruneSkipSparse),
            prune_exact: cv(C::KernelPruneExact),
            rounds_evals: cv(C::RoundsEvals),
            rounds_commits: cv(C::RoundsCommits),
            rounds_discards: cv(C::RoundsDiscards),
            dynamics_rounds: cv(C::DynamicsRounds),
            dynamics_steps: cv(C::DynamicsSteps),
            scenario_phases: cv(C::ScenarioPhases),
            scenario_events: cv(C::ScenarioEvents),
            scenario_seeds: cv(C::ScenarioSeeds),
        }
    }

    /// Element-wise difference from an earlier snapshot.
    pub fn since(&self, before: &ObsDelta) -> ObsDelta {
        ObsDelta {
            priced: self.priced - before.priced,
            closed_form: self.closed_form - before.closed_form,
            prune_skips: self.prune_skips - before.prune_skips,
            prune_exact: self.prune_exact - before.prune_exact,
            rounds_evals: self.rounds_evals - before.rounds_evals,
            rounds_commits: self.rounds_commits - before.rounds_commits,
            rounds_discards: self.rounds_discards - before.rounds_discards,
            dynamics_rounds: self.dynamics_rounds - before.dynamics_rounds,
            dynamics_steps: self.dynamics_steps - before.dynamics_steps,
            scenario_phases: self.scenario_phases - before.scenario_phases,
            scenario_events: self.scenario_events - before.scenario_events,
            scenario_seeds: self.scenario_seeds - before.scenario_seeds,
        }
    }
}

/// Fixed-precision float for JSON and tables: `{:.3}`, non-finite →
/// `null` (the byte-determinism rule for the whole artifact).
fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

fn opt_bool(v: Option<bool>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    }
}

fn json_frag(kind: &str, body: &str) -> String {
    format!("{{\"fragment_schema_version\":{FRAGMENT_SCHEMA_VERSION},\"kind\":\"{kind}\",{body}}}")
}

/// The `<details>` block embedding the machine-readable fragment.
fn details(json: &str) -> String {
    format!(
        "<details><summary>JSON fragment</summary><pre>{}</pre></details>",
        html_escape(json)
    )
}

/// Seeds in first-appearance order (streams are already seed-ordered;
/// this just avoids trusting that).
fn seeds_of(records: &[Record]) -> Vec<u64> {
    let mut seeds = Vec::new();
    for r in records {
        if !seeds.contains(&r.seed) {
            seeds.push(r.seed);
        }
    }
    seeds
}

/// Perturbation-event kinds (everything that is neither dynamics nor
/// the final summary).
fn is_event(kind: &str) -> bool {
    kind != "dynamics" && kind != "summary"
}

/// Convergence curves: per-seed steps/rounds across dynamics phases.
pub fn convergence(records: &[Record]) -> Fragment {
    let seeds = seeds_of(records);
    let mut json_rows = Vec::new();
    let mut table_rows = Vec::new();
    let mut series = Vec::new();
    for &seed in &seeds {
        let dynamics: Vec<&Record> = records
            .iter()
            .filter(|r| r.seed == seed && r.kind == "dynamics")
            .collect();
        let summary = records
            .iter()
            .find(|r| r.seed == seed && r.kind == "summary");
        let mut phases_json = Vec::new();
        let mut points = Vec::new();
        for r in &dynamics {
            phases_json.push(format!(
                "{{\"phase\":{},\"steps\":{},\"rounds\":{},\"converged\":{},\
                 \"social_cost\":{}}}",
                r.phase,
                r.steps,
                r.rounds,
                opt_bool(r.converged),
                r.social_cost
            ));
            points.push((r.phase as f64, r.steps as f64));
        }
        let converged = dynamics.last().and_then(|r| r.converged);
        let total_steps = summary.map(|r| r.steps).unwrap_or(0);
        let total_rounds = summary.map(|r| r.rounds).unwrap_or(0);
        json_rows.push(format!(
            "{{\"seed\":{seed},\"phases\":[{}],\"total_steps\":{total_steps},\
             \"total_rounds\":{total_rounds},\"converged\":{}}}",
            phases_json.join(","),
            opt_bool(converged)
        ));
        table_rows.push(vec![
            seed.to_string(),
            dynamics.len().to_string(),
            total_steps.to_string(),
            total_rounds.to_string(),
            converged
                .map(|b| b.to_string())
                .unwrap_or_else(|| "—".to_string()),
        ]);
        series.push(Series {
            label: format!("seed {seed}"),
            points,
        });
    }
    let json = json_frag(
        "convergence",
        &format!("\"seeds\":[{}]", json_rows.join(",")),
    );
    let chart = svg::line_chart(&series, "phase", "steps", None);
    let html = format!(
        "{chart}{}{}",
        table(
            &[
                "seed",
                "dynamics phases",
                "total steps",
                "total rounds",
                "converged"
            ],
            &table_rows
        ),
        details(&json)
    );
    Fragment {
        kind: "convergence",
        title: "Convergence: steps to quiescence per seed".to_string(),
        json,
        html,
    }
}

/// Perturbation recovery: for each event, the rounds/steps of the
/// dynamics phase that follows it (same seed).
pub fn recovery(records: &[Record]) -> Fragment {
    let seeds = seeds_of(records);
    let mut json_rows = Vec::new();
    let mut table_rows = Vec::new();
    let mut bars = Vec::new();
    for &seed in &seeds {
        let run: Vec<&Record> = records.iter().filter(|r| r.seed == seed).collect();
        for (i, r) in run.iter().enumerate() {
            if !is_event(&r.kind) {
                continue;
            }
            let next = run.get(i + 1).filter(|f| f.kind == "dynamics");
            json_rows.push(format!(
                "{{\"seed\":{seed},\"phase\":{},\"event\":\"{}\",\"cost_spike\":{},\
                 \"recovered\":{},\"rounds\":{},\"steps\":{},\"cost_after\":{}}}",
                r.phase,
                r.kind,
                r.social_cost,
                next.and_then(|f| f.converged).unwrap_or(false),
                opt_u64(next.map(|f| f.rounds)),
                opt_u64(next.map(|f| f.steps)),
                opt_u64(next.map(|f| f.social_cost)),
            ));
            table_rows.push(vec![
                seed.to_string(),
                r.phase.to_string(),
                r.kind.clone(),
                r.social_cost.to_string(),
                next.map(|f| f.rounds.to_string())
                    .unwrap_or_else(|| "—".to_string()),
                next.map(|f| f.steps.to_string())
                    .unwrap_or_else(|| "—".to_string()),
                next.map(|f| f.social_cost.to_string())
                    .unwrap_or_else(|| "—".to_string()),
            ]);
            if let Some(f) = next {
                bars.push((format!("s{seed}p{}", r.phase), f.rounds as f64));
            }
        }
    }
    let json = json_frag("recovery", &format!("\"events\":[{}]", json_rows.join(",")));
    let chart = svg::bar_chart(&bars, "event (seed/phase)", "recovery rounds");
    let html = format!(
        "{chart}{}{}",
        table(
            &[
                "seed",
                "phase",
                "event",
                "cost at event",
                "recovery rounds",
                "recovery steps",
                "cost after"
            ],
            &table_rows
        ),
        details(&json)
    );
    Fragment {
        kind: "recovery",
        title: "Perturbation recovery across events".to_string(),
        json,
        html,
    }
}

/// The paper's Table 1 bound on worst equilibrium diameter for
/// all-unit budgets: SUM < 5 (Thm 4.1), MAX ≤ 4 (Thm 4.2). `None`
/// for non-unit budgets (the general bounds are asymptotic, not a
/// chartable constant).
fn paper_bound(model: CostModel, budget: usize) -> Option<(u64, &'static str)> {
    if budget != 1 {
        return None;
    }
    Some(match model {
        CostModel::Sum => (4, "Thm 4.1: diam <= 4"),
        CostModel::Max => (4, "Thm 4.2: diam <= 4"),
    })
}

/// Empirical PoA series over uniform-budget instances vs Table 1.
pub fn poa_spectrum(
    sizes: &[usize],
    budget: usize,
    samples: usize,
    max_rounds: usize,
    model: CostModel,
) -> Fragment {
    let cfg = DynamicsConfig::exact(model, max_rounds);
    let points = poa_scan::scan(sizes, |n| BudgetVector::uniform(n, budget), cfg, samples);
    let bound = paper_bound(model, budget);
    let mut json_rows = Vec::new();
    let mut table_rows = Vec::new();
    let mut worst = Vec::new();
    let mut best = Vec::new();
    for p in &points {
        json_rows.push(format!(
            "{{\"n\":{},\"attempted\":{},\"converged\":{},\"worst_diameter\":{},\
             \"best_diameter\":{},\"opt_lower\":{},\"poa_estimate\":{}}}",
            p.n,
            p.attempted,
            p.converged,
            p.worst_diameter,
            p.best_diameter,
            p.opt_lower,
            fnum(p.poa_estimate)
        ));
        table_rows.push(vec![
            p.n.to_string(),
            format!("{}/{}", p.converged, p.attempted),
            p.worst_diameter.to_string(),
            p.best_diameter.to_string(),
            p.opt_lower.to_string(),
            if p.poa_estimate.is_finite() {
                fnum(p.poa_estimate)
            } else {
                "—".to_string()
            },
        ]);
        if p.converged > 0 {
            worst.push((p.n as f64, p.worst_diameter as f64));
            best.push((p.n as f64, p.best_diameter as f64));
        }
    }
    let model_name = match model {
        CostModel::Sum => "sum",
        CostModel::Max => "max",
    };
    let json = json_frag(
        "poa-spectrum",
        &format!(
            "\"model\":\"{model_name}\",\"budget\":{budget},\"samples\":{samples},\
             \"paper_bound\":{},\"points\":[{}]",
            opt_u64(bound.map(|(v, _)| v)),
            json_rows.join(",")
        ),
    );
    let series = [
        Series {
            label: "worst diameter".to_string(),
            points: worst,
        },
        Series {
            label: "best diameter".to_string(),
            points: best,
        },
    ];
    let chart = svg::line_chart(
        &series,
        "n",
        "equilibrium diameter",
        bound.map(|(v, label)| (v as f64, label)),
    );
    let html = format!(
        "{chart}{}{}",
        table(
            &[
                "n",
                "converged",
                "worst diam",
                "best diam",
                "opt lower",
                "PoA est."
            ],
            &table_rows
        ),
        details(&json)
    );
    Fragment {
        kind: "poa-spectrum",
        title: format!(
            "PoA spectrum: uniform budget {budget}, {model_name} cost, \
             {samples} trajectories/size"
        ),
        json,
        html,
    }
}

/// The Àlvarez–Messegué-shaped structural bound `2^(⌈√(log₂ n)⌉ + 2)`
/// on equilibrium diameter (arXiv:2012.14254 proves diameter
/// `2^O(√log n)` for a broad budget regime; this is the concrete
/// constant the census checks observations against).
pub fn structural_diameter_bound(n: usize) -> u64 {
    let log2n = (usize::BITS - n.max(1).leading_zeros()) as f64;
    let s = (log2n.sqrt()).ceil() as u32;
    1u64 << (s + 2).min(63)
}

/// Equilibrium census: degree / diameter / eccentricity distributions
/// over sampled equilibria, vs the structural bound.
pub fn census(
    n: usize,
    budget: usize,
    samples: usize,
    max_rounds: usize,
    model: CostModel,
    seed: u64,
) -> Fragment {
    let budgets = BudgetVector::uniform(n, budget);
    let cfg = DynamicsConfig::exact(model, max_rounds);
    let batch = sample_equilibria(&budgets, cfg, seed, samples);
    let stats = summarize(&batch);
    let converged: Vec<_> = batch.iter().filter(|s| s.report.converged).collect();

    let mut degree_hist: Vec<u64> = Vec::new();
    let mut ecc_values: Vec<u64> = Vec::new();
    let mut diameters: Vec<u64> = Vec::new();
    let mut metrics_rows = Vec::new();
    for s in &converged {
        let csr = s.report.state.csr();
        for u in 0..csr.n() {
            let d = csr.simple_degree(NodeId::new(u));
            if degree_hist.len() <= d {
                degree_hist.resize(d + 1, 0);
            }
            degree_hist[d] += 1;
        }
        let m = GraphMetrics::compute(csr);
        if m.connected {
            ecc_values.extend(eccentricities(csr).iter().map(|&e| e as u64));
        }
        diameters.push(s.diameter());
        metrics_rows.push((s.seed, m));
    }
    let bound = structural_diameter_bound(n);
    let within = diameters.iter().filter(|&&d| d <= bound).count();

    let degree_json: Vec<String> = degree_hist.iter().map(u64::to_string).collect();
    let diam_json: Vec<String> = diameters.iter().map(u64::to_string).collect();
    let json = json_frag(
        "census",
        &format!(
            "\"n\":{n},\"budget\":{budget},\"samples\":{samples},\
             \"converged\":{},\"cycled\":{},\"structural_bound\":{bound},\
             \"within_bound\":{within},\"mean_rounds\":{},\
             \"degree_histogram\":[{}],\"diameters\":[{}]",
            stats.converged,
            stats.cycled,
            fnum(stats.mean_rounds),
            degree_json.join(","),
            diam_json.join(",")
        ),
    );

    let bars: Vec<(String, f64)> = degree_hist
        .iter()
        .enumerate()
        .map(|(d, &c)| (d.to_string(), c as f64))
        .collect();
    let degree_chart = svg::bar_chart(&bars, "simple degree", "nodes");
    let ecc_chart = svg::cdf_chart(&ecc_values, "eccentricity");
    let sample_rows: Vec<Vec<String>> = metrics_rows
        .iter()
        .map(|(seed, m)| {
            vec![
                seed.to_string(),
                m.diameter.to_string(),
                m.radius.to_string(),
                fnum(m.mean_distance),
                m.min_degree.to_string(),
                m.max_degree.to_string(),
            ]
        })
        .collect();
    let html = format!(
        "<p>{} of {} trajectories converged; {within}/{} equilibria within the \
         structural diameter bound 2^(&#8968;&#8730;log&#8322;&nbsp;n&#8969;+2) = {bound} \
         (cf. arXiv:2012.14254).</p>{degree_chart}{ecc_chart}{}{}",
        stats.converged,
        stats.total,
        diameters.len(),
        table(
            &[
                "seed",
                "diameter",
                "radius",
                "mean dist",
                "min deg",
                "max deg"
            ],
            &sample_rows
        ),
        details(&json)
    );
    Fragment {
        kind: "census",
        title: format!("Equilibrium census: n = {n}, budget {budget}"),
        json,
        html,
    }
}

/// Observability digest: which path priced the run (kernel candidates,
/// closed-form activations), the kernels' prune-hit rate, and the
/// sharded executor's move and discard rates over the report's
/// scenario run.
pub fn obs_digest(delta: &ObsDelta) -> Fragment {
    let considered = delta.priced + delta.prune_skips + delta.prune_exact;
    let rate = |num: u64, den: u64| -> f64 {
        if den == 0 {
            f64::NAN
        } else {
            num as f64 / den as f64
        }
    };
    let prune_hit = rate(delta.prune_skips + delta.prune_exact, considered);
    let commit = rate(delta.rounds_commits, delta.rounds_evals);
    let discard = rate(delta.rounds_discards, delta.rounds_evals);
    let json = json_frag(
        "obs-digest",
        &format!(
            "\"priced\":{},\"closed_form_activations\":{},\"prune_skips\":{},\
             \"prune_exact\":{},\"prune_hit_rate\":{},\"rounds_evals\":{},\"rounds_commits\":{},\
             \"rounds_discards\":{},\"commit_rate\":{},\"discard_rate\":{},\
             \"dynamics_rounds\":{},\"dynamics_steps\":{},\"scenario_phases\":{},\
             \"scenario_events\":{},\"scenario_seeds\":{}",
            delta.priced,
            delta.closed_form,
            delta.prune_skips,
            delta.prune_exact,
            fnum(prune_hit),
            delta.rounds_evals,
            delta.rounds_commits,
            delta.rounds_discards,
            fnum(commit),
            fnum(discard),
            delta.dynamics_rounds,
            delta.dynamics_steps,
            delta.scenario_phases,
            delta.scenario_events,
            delta.scenario_seeds,
        ),
    );
    // Discards are candidates per sharded activation, not a fraction,
    // so they stay out of the chart.
    let mut bars = Vec::new();
    for (label, v) in [("prune hit", prune_hit), ("sharded move", commit)] {
        if v.is_finite() {
            bars.push((label.to_string(), v));
        }
    }
    let chart = svg::bar_chart(&bars, "rate", "fraction");
    let rows = vec![
        vec!["candidates priced".to_string(), delta.priced.to_string()],
        vec![
            "closed-form activations".to_string(),
            delta.closed_form.to_string(),
        ],
        vec!["prune skips".to_string(), delta.prune_skips.to_string()],
        vec!["prune exact".to_string(), delta.prune_exact.to_string()],
        vec!["prune-hit rate".to_string(), fnum(prune_hit)],
        vec![
            "sharded activations".to_string(),
            delta.rounds_evals.to_string(),
        ],
        vec![
            "sharded moves".to_string(),
            delta.rounds_commits.to_string(),
        ],
        vec![
            "candidates past a proven optimum".to_string(),
            delta.rounds_discards.to_string(),
        ],
        vec!["sharded move rate".to_string(), fnum(commit)],
        vec!["discards per sharded activation".to_string(), fnum(discard)],
        vec![
            "dynamics rounds".to_string(),
            delta.dynamics_rounds.to_string(),
        ],
        vec![
            "dynamics steps".to_string(),
            delta.dynamics_steps.to_string(),
        ],
        vec![
            "scenario phases".to_string(),
            delta.scenario_phases.to_string(),
        ],
        vec![
            "scenario events".to_string(),
            delta.scenario_events.to_string(),
        ],
        vec![
            "scenario seeds".to_string(),
            delta.scenario_seeds.to_string(),
        ],
    ];
    let html = format!(
        "{chart}{}{}",
        table(&["counter", "value"], &rows),
        details(&json)
    );
    Fragment {
        kind: "obs-digest",
        title: "Observability digest: kernel and executor counters".to_string(),
        json,
        html,
    }
}

/// Build the fragment for one analysis spec. Record-consuming kinds
/// read `records`; `obs-digest` reads `delta`; the sampling kinds run
/// their own sweeps.
pub fn build(analysis: &AnalysisSpec, records: &[Record], delta: &ObsDelta) -> Fragment {
    match analysis {
        AnalysisSpec::Convergence => convergence(records),
        AnalysisSpec::Recovery => recovery(records),
        AnalysisSpec::ObsDigest => obs_digest(delta),
        AnalysisSpec::PoaSpectrum {
            sizes,
            budget,
            samples,
            max_rounds,
            model,
        } => poa_spectrum(sizes, *budget, *samples, *max_rounds, *model),
        AnalysisSpec::Census {
            n,
            budget,
            samples,
            max_rounds,
            model,
            seed,
        } => census(*n, *budget, *samples, *max_rounds, *model, *seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest;

    fn churn_records() -> Vec<Record> {
        let lines = "\
{\"scenario\":\"t\",\"seed\":1,\"phase\":0,\"kind\":\"dynamics\",\"n\":6,\"arcs\":6,\"steps\":4,\"rounds\":2,\"social_cost\":3,\"diameter\":3,\"converged\":true,\"cycled\":false,\"state_hash\":\"0000000000000001\"}\n\
{\"scenario\":\"t\",\"seed\":1,\"phase\":1,\"kind\":\"arrive\",\"n\":7,\"arcs\":7,\"steps\":0,\"rounds\":0,\"social_cost\":9,\"diameter\":null,\"converged\":null,\"cycled\":null,\"state_hash\":\"0000000000000002\"}\n\
{\"scenario\":\"t\",\"seed\":1,\"phase\":2,\"kind\":\"dynamics\",\"n\":7,\"arcs\":7,\"steps\":2,\"rounds\":1,\"social_cost\":3,\"diameter\":3,\"converged\":true,\"cycled\":false,\"state_hash\":\"0000000000000003\"}\n\
{\"scenario\":\"t\",\"seed\":1,\"phase\":3,\"kind\":\"summary\",\"n\":7,\"arcs\":7,\"steps\":6,\"rounds\":3,\"social_cost\":3,\"diameter\":3,\"converged\":true,\"cycled\":false,\"state_hash\":\"0000000000000003\"}\n";
        ingest::parse_lines(lines).unwrap()
    }

    #[test]
    fn convergence_fragment_reads_phases_and_summary() {
        let f = convergence(&churn_records());
        assert!(f
            .json
            .starts_with("{\"fragment_schema_version\":2,\"kind\":\"convergence\""));
        assert!(f.json.contains("\"total_steps\":6"));
        assert!(f.json.contains("\"total_rounds\":3"));
        assert!(f.html.contains("<svg"));
        // Re-running is byte-identical.
        assert_eq!(f.json, convergence(&churn_records()).json);
        assert_eq!(f.html, convergence(&churn_records()).html);
    }

    #[test]
    fn recovery_pairs_events_with_following_dynamics() {
        let f = recovery(&churn_records());
        assert!(f.json.contains("\"event\":\"arrive\""));
        assert!(f.json.contains("\"cost_spike\":9"));
        assert!(f.json.contains("\"rounds\":1"));
        assert!(f.json.contains("\"cost_after\":3"));
    }

    #[test]
    fn poa_spectrum_runs_the_scan() {
        let f = poa_spectrum(&[5, 6], 1, 2, 100, CostModel::Sum);
        assert!(f.json.contains("\"paper_bound\":4"));
        assert!(f.json.contains("\"n\":5"));
        assert!(f.json.contains("\"n\":6"));
        // Table 1 row: unit-budget SUM equilibria have diameter <= 4.
        assert!(f.html.contains("Thm 4.1"));
        assert_eq!(
            f.json,
            poa_spectrum(&[5, 6], 1, 2, 100, CostModel::Sum).json
        );
    }

    #[test]
    fn census_counts_and_bounds() {
        let f = census(6, 1, 3, 100, CostModel::Sum, 0xCE55);
        assert!(f.json.contains("\"structural_bound\":"));
        assert!(f.json.contains("\"degree_histogram\":["));
        assert_eq!(f.json, census(6, 1, 3, 100, CostModel::Sum, 0xCE55).json);
    }

    #[test]
    fn structural_bound_shape() {
        // n = 16: log2 = 5 bits... ceil(sqrt(5)) = 3 → 2^5 = 32.
        assert_eq!(structural_diameter_bound(16), 32);
        assert_eq!(structural_diameter_bound(2), 16);
        assert!(structural_diameter_bound(1 << 20) >= 64);
    }

    #[test]
    fn obs_digest_rates() {
        let delta = ObsDelta {
            priced: 60,
            prune_skips: 30,
            prune_exact: 10,
            rounds_evals: 20,
            rounds_commits: 15,
            rounds_discards: 5,
            ..ObsDelta::default()
        };
        let f = obs_digest(&delta);
        assert!(f.json.contains("\"prune_hit_rate\":0.400"));
        assert!(f.json.contains("\"commit_rate\":0.750"));
        assert!(f.json.contains("\"discard_rate\":0.250"));
        // Zero denominators print as null, not NaN.
        let empty = obs_digest(&ObsDelta::default());
        assert!(empty.json.contains("\"prune_hit_rate\":null"));
    }

    #[test]
    fn obs_digest_names_the_closed_form_path() {
        // A unit-budget run prices no candidate on a kernel: the
        // digest says the closed form did the work.
        let delta = ObsDelta {
            closed_form: 7,
            dynamics_rounds: 2,
            ..ObsDelta::default()
        };
        let f = obs_digest(&delta);
        assert!(f
            .json
            .contains("\"priced\":0,\"closed_form_activations\":7,"));
        assert!(f.html.contains("closed-form activations"));
    }
}
