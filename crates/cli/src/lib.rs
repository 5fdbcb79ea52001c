//! Command implementations for the `bbncg` command-line tool.
//!
//! Each subcommand is a pure function from parsed arguments to a
//! printable report (`Result<String, String>`), so the whole surface is
//! unit-testable without spawning processes. The `bbncg` binary is a
//! thin shell around [`dispatch`].
//!
//! ```text
//! bbncg construct --budgets 1,1,2,0            # Theorem 2.3 equilibrium
//! bbncg construct --spider 5                   # Figure 2 spider
//! bbncg construct --btree 4 | bbncg verify -   # build then check
//! bbncg verify saved.bbncg --model max
//! bbncg best-response saved.bbncg --player 2 --model sum
//! bbncg dynamics --budgets 1,1,1,1,1 --seed 7 --model sum --rule exact
//! bbncg analyze saved.bbncg
//! bbncg exact-poa --budgets 1,1,1,1 --model max
//! bbncg dot saved.bbncg
//! ```

#![forbid(unsafe_code)]

use bbncg_analysis::{connectivity_dichotomy, path_decomposition, unit_structure};
use bbncg_constructions::{
    binary_tree_equilibrium, shift_equilibrium, spider_equilibrium, theorem23_equilibrium,
};
use bbncg_core::dynamics::{run_dynamics_with_kernel, DynamicsConfig, PlayerOrder, ResponseRule};
use bbncg_core::{
    best_swap_response, exact_best_response, exact_game_stats, greedy_best_response,
    is_nash_equilibrium_with_kernel, is_swap_equilibrium_with_kernel, parse_realization,
    write_realization, BudgetVector, CostKernel, CostModel, Realization, RoundExecutor,
};
use bbncg_graph::{dot, generators, GraphMetrics, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Parsed command-line flags: `--key value` pairs plus positional args.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Switch-style flags (no value). `--trace` is *not* here: it takes a
/// file path (`--trace FILE` streams span records there as JSONL).
const SWITCHES: &[&str] = &[
    "--swap",
    "--audit",
    "--help",
    "--no-stream",
    "--status",
    "--shutdown",
    "--abort",
    "--obs",
    "--stats",
    "--dry-run",
];

impl Args {
    /// Parse raw arguments (everything after the subcommand).
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                args.flags.push((key.to_string(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// Value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `--key`, in order. Lets one flag carry
    /// two orthogonal meanings (`dynamics --rounds 500 --rounds
    /// sharded` sets both the round cap and the executor).
    pub fn get_all<'a>(&'a self, key: &str) -> impl Iterator<Item = &'a str> + 'a {
        let key = key.to_string();
        self.flags
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Is the switch present?
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// First positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Every option given, flags and switches alike, without its `--`.
    fn option_names(&self) -> impl Iterator<Item = &str> {
        let switches = self.switches.iter().map(|s| &s[2..]);
        self.flags.iter().map(|(k, _)| k.as_str()).chain(switches)
    }
}

fn parse_budgets(s: &str) -> Result<BudgetVector, String> {
    let budgets: Vec<usize> = s
        .split(',')
        .map(|t| t.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot parse budgets {s:?}: {e}"))?;
    if budgets.is_empty() {
        return Err("budgets must be non-empty".into());
    }
    let n = budgets.len();
    if budgets.iter().any(|&b| b >= n) {
        return Err(format!("every budget must be < n = {n}"));
    }
    Ok(BudgetVector::new(budgets))
}

fn parse_model(args: &Args) -> Result<CostModel, String> {
    match args.get("model").unwrap_or("sum") {
        "sum" | "SUM" => Ok(CostModel::Sum),
        "max" | "MAX" => Ok(CostModel::Max),
        other => Err(format!("unknown --model {other:?} (sum|max)")),
    }
}

/// `--kernel bitset|sparse|auto` (default auto; the retired `queue`
/// reads as auto). Kernels are move-for-move equivalent, so this never
/// changes a report — only how fast it is produced.
fn parse_kernel(args: &Args) -> Result<CostKernel, String> {
    match args.get("kernel") {
        None => Ok(CostKernel::Auto),
        Some(s) => CostKernel::parse(s).map_err(|e| format!("--kernel: {e}")),
    }
}

/// `--rounds sequential|sharded|auto` (default auto) — the round
/// executor (the legacy `speculative` parses to `sharded`). Executors
/// are step-identical, so this never changes a report, record stream
/// or checkpoint — only wall-clock. On
/// `dynamics`, numeric `--rounds N` values keep their historical
/// round-cap meaning (see [`cmd_dynamics`]); everywhere else the flag
/// takes a mode name only.
fn parse_executor(args: &Args) -> Result<RoundExecutor, String> {
    match args.get("rounds") {
        None => Ok(RoundExecutor::Auto),
        Some(s) => RoundExecutor::parse(s).map_err(|e| format!("--rounds: {e}")),
    }
}

fn load_realization(path: &str) -> Result<Realization, String> {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    parse_realization(&text).map_err(|e| e.to_string())
}

/// `bbncg construct` — build a named equilibrium and print it in the
/// `bbncg v1` format (pipe into a file or another subcommand).
pub fn cmd_construct(args: &Args) -> Result<String, String> {
    let r = if let Some(b) = args.get("budgets") {
        let budgets = parse_budgets(b)?;
        theorem23_equilibrium(&budgets).realization
    } else if let Some(k) = args.get("spider") {
        let k: usize = k.parse().map_err(|e| format!("--spider: {e}"))?;
        // The generator caps, checked before anything is allocated.
        generators::family_size("spider", &[k]).map_err(|e| format!("--spider: {e}"))?;
        spider_equilibrium(k).realization
    } else if let Some(h) = args.get("btree") {
        let h: u32 = h.parse().map_err(|e| format!("--btree: {e}"))?;
        generators::family_size("btree", &[h as usize]).map_err(|e| format!("--btree: {e}"))?;
        binary_tree_equilibrium(h).realization
    } else if let Some(k) = args.get("shift") {
        let k: u32 = k.parse().map_err(|e| format!("--shift: {e}"))?;
        // k < 2 fails Lemma 5.2's hypothesis; k = 4 already writes
        // over 500k lines.
        if !(2..=3).contains(&k) {
            return Err(format!("--shift: K must be 2 or 3, got {k}"));
        }
        shift_equilibrium(k).realization
    } else {
        return Err("construct needs --budgets LIST, --spider K, --btree H, or --shift K".into());
    };
    Ok(write_realization(&r))
}

/// `bbncg verify FILE` — Nash / swap verification with a cost report.
pub fn cmd_verify(args: &Args) -> Result<String, String> {
    let path = args.positional(0).ok_or("verify needs a FILE (or -)")?;
    let r = load_realization(path)?;
    let model = parse_model(args)?;
    let kernel = parse_kernel(args)?;
    // Parsed up front so a bad --rounds value is rejected on every
    // verify path; only the --audit sweep actually dispatches on it
    // (the default and --swap checks have their own fixed parallel
    // early-exit shape), and the verdict is executor-independent.
    let executor = parse_executor(args)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "n = {}, arcs = {}, budgets = {:?}",
        r.n(),
        r.graph().total_arcs(),
        r.budgets().as_slice()
    );
    let _ = writeln!(out, "social diameter = {}", r.social_diameter());
    if args.has("--swap") && args.has("--audit") {
        return Err("--swap and --audit are mutually exclusive".into());
    }
    if args.has("--swap") {
        let ok = is_swap_equilibrium_with_kernel(&r, model, kernel);
        let _ = writeln!(out, "swap equilibrium ({}) = {}", model.label(), ok);
    } else if args.has("--audit") {
        // Full batched engine pass: verdict, exact best-response gap
        // and every violator from one audit_equilibrium sweep (no
        // early exit — each player's whole candidate space is priced).
        // `--rounds` picks the execution discipline (parallel batched
        // vs one engine on this thread); the verdict is identical.
        let audit = bbncg_core::audit_equilibrium_with_opts(&r, model, kernel, executor);
        let ok = audit.is_nash();
        let _ = writeln!(out, "Nash equilibrium ({}) = {}", model.label(), ok);
        let _ = writeln!(out, "best-response gap = {}", audit.gap());
        for v in audit.violations() {
            let _ = writeln!(
                out,
                "violator: player {} can improve {} -> {}",
                v.player, v.current_cost, v.best_cost
            );
        }
    } else {
        // Default: an early-exiting verdict — each player's check stops
        // at its first profitable deviation, and the parallel check
        // stops all workers once any player is refuted. Only then does
        // `find_violation` search the first violator to its best
        // response, so the line printed matches `--audit`'s first.
        let ok = is_nash_equilibrium_with_kernel(&r, model, kernel);
        let _ = writeln!(out, "Nash equilibrium ({}) = {}", model.label(), ok);
        if !ok {
            if let Some(v) = bbncg_core::find_violation_with_kernel(&r, model, kernel) {
                let _ = writeln!(
                    out,
                    "violator: player {} can improve {} -> {}",
                    v.player, v.current_cost, v.best_cost
                );
            }
        }
    }
    Ok(out)
}

/// `bbncg best-response FILE --player I` — one player's best response.
pub fn cmd_best_response(args: &Args) -> Result<String, String> {
    let path = args.positional(0).ok_or("best-response needs a FILE")?;
    let r = load_realization(path)?;
    let model = parse_model(args)?;
    let player: usize = args
        .get("player")
        .ok_or("--player is required")?
        .parse()
        .map_err(|e| format!("--player: {e}"))?;
    if player >= r.n() {
        return Err(format!("player {player} out of range (n = {})", r.n()));
    }
    let u = NodeId::new(player);
    let current = r.cost(u, model);
    let br = match args.get("rule").unwrap_or("exact") {
        "exact" => exact_best_response(&r, u, model),
        "greedy" => greedy_best_response(&r, u, model),
        "swap" => {
            best_swap_response(&r, u, model).ok_or("player owns no arcs; swap rule inapplicable")?
        }
        other => return Err(format!("unknown --rule {other:?} (exact|greedy|swap)")),
    };
    let targets: Vec<String> = br.targets.iter().map(|t| t.to_string()).collect();
    Ok(format!(
        "player {player} ({}): current cost {current}, best {} via [{}]{}\n",
        model.label(),
        br.cost,
        targets.join(", "),
        if br.cost < current {
            "  (improves)"
        } else {
            "  (already optimal)"
        }
    ))
}

/// `bbncg dynamics --budgets LIST` — run dynamics from a random start
/// (or `FILE` positional) and print the outcome; the final profile goes
/// to stdout after the report when `--emit` is `profile`.
///
/// `--seed S` (default 0) seeds both the random initial profile and
/// the dynamics' own draws. Identical seeds give identical
/// [`DynamicsReport`](bbncg_core::DynamicsReport)s — same final
/// profile, steps, rounds and verdicts — regardless of thread count,
/// so any reported trajectory can be reproduced exactly from its
/// command line (asserted end-to-end in `tests/end_to_end.rs`).
pub fn cmd_dynamics(args: &Args) -> Result<String, String> {
    let model = parse_model(args)?;
    let kernel = parse_kernel(args)?;
    let seed: u64 = args
        .get("seed")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    // `--rounds` is polymorphic on this command: a number is the
    // historical round cap, a mode name picks the round executor, and
    // the flag may be given twice to set both. Executors are
    // step-identical, so the mode never changes the report.
    let mut rounds: usize = 300;
    let mut executor = RoundExecutor::Auto;
    for v in args.get_all("rounds") {
        match v.parse::<usize>() {
            Ok(n) => rounds = n,
            Err(_) => {
                executor = RoundExecutor::parse(v).map_err(|e| {
                    format!("--rounds: expected a round cap (number) or executor mode: {e}")
                })?
            }
        }
    }
    let rule = match args.get("rule").unwrap_or("exact") {
        "exact" => ResponseRule::ExactBest,
        "better" => ResponseRule::FirstImproving,
        "greedy" => ResponseRule::Greedy,
        "swap" => ResponseRule::BestSwap,
        other => {
            return Err(format!(
                "unknown --rule {other:?} (exact|better|greedy|swap)"
            ))
        }
    };
    let order = match args.get("order").unwrap_or("rr") {
        "rr" | "round-robin" => PlayerOrder::RoundRobin,
        "random" => PlayerOrder::RandomPermutation,
        other => return Err(format!("unknown --order {other:?} (rr|random)")),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = if let Some(path) = args.positional(0) {
        load_realization(path)?
    } else {
        let budgets = parse_budgets(args.get("budgets").ok_or("need --budgets or a FILE")?)?;
        Realization::new(generators::random_realization(budgets.as_slice(), &mut rng))
    };
    let cfg = DynamicsConfig {
        model,
        order,
        rule,
        max_rounds: rounds,
        executor,
    };
    let report = run_dynamics_with_kernel(initial, cfg, &mut rng, kernel);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "converged = {}, cycled = {}, rounds = {}, deviations = {}",
        report.converged, report.cycled, report.rounds, report.steps
    );
    let _ = writeln!(out, "final diameter = {}", report.state.social_diameter());
    if args.get("emit") == Some("profile") {
        out.push_str(&write_realization(&report.state));
    }
    Ok(out)
}

/// `bbncg scenario run|resume|validate` — the declarative scenario
/// engine (see the README's "Scenario specs" section for the grammar).
///
/// * `run SPEC [--seed S] [--out FILE] [--checkpoint FILE]
///   [--stop-after K]` — run the scenario (or its whole seed sweep when
///   the spec sets `seeds > 1`). Metric records are JSONL, streamed to
///   `--out` or returned on stdout. With `--checkpoint`, a fresh
///   checkpoint overwrites the file after every completed phase, so a
///   killed run can continue; `--stop-after K` stops after K phases
///   (checkpointing there), which is the same mechanism under test
///   control.
/// * `resume SPEC --checkpoint FILE [--out FILE]` — continue a frozen
///   run bit-identically: the finished trajectory is exactly the one
///   the uninterrupted run would have produced.
/// * `validate SPEC...` — parse every spec and report its shape
///   without running anything.
pub fn cmd_scenario(args: &Args) -> Result<String, String> {
    use bbncg_scenario::{parse_spec, run_scenario, run_sweep, Checkpoint, JsonlSink, StringSink};
    let action = args.positional(0).ok_or(
        "scenario needs an action: run SPEC | resume SPEC --checkpoint FILE | validate SPEC...",
    )?;
    if action == "validate" {
        if args.positional(1).is_none() {
            return Err("scenario validate needs at least one SPEC file".into());
        }
        let mut out = String::new();
        let mut i = 1;
        while let Some(path) = args.positional(i) {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(
                out,
                "{path}: ok — scenario {:?}, {} phase(s), seeds {}, spec-hash {:016x}",
                spec.name,
                spec.phases.len(),
                spec.seeds,
                spec.spec_hash
            );
            i += 1;
        }
        return Ok(out);
    }
    if action != "run" && action != "resume" {
        return Err(format!(
            "unknown scenario action {action:?} (run|resume|validate)"
        ));
    }
    let path = args
        .positional(1)
        .ok_or_else(|| format!("scenario {action} needs a SPEC file"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(s) = args.get("seed") {
        spec.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    if args.get("kernel").is_some() {
        // Overrides the spec's [dynamics] kernel field. Safe for
        // resumes too: kernels are move-for-move equivalent, so the
        // continued trajectory is unchanged.
        spec.kernel = parse_kernel(args)?;
        spec.check_kernel()
            .map_err(|e| format!("{path}: --kernel: {e}"))?;
    }
    if args.get("rounds").is_some() {
        // Overrides the spec's [dynamics] rounds (executor) field.
        // Executors are step-identical, so — like --kernel — this is
        // safe on resumes and never changes the record stream.
        spec.defaults.executor = parse_executor(args)?;
    }
    let stop_after: Option<usize> = args
        .get("stop-after")
        .map(|s| s.parse().map_err(|e| format!("--stop-after: {e}")))
        .transpose()?;
    let ck_path = args.get("checkpoint").map(str::to_string);
    let from = if action == "resume" {
        let p = ck_path
            .as_deref()
            .ok_or("scenario resume needs --checkpoint FILE")?;
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        Some(Checkpoint::from_text(&text)?)
    } else {
        None
    };

    let save = |ck: &Checkpoint| {
        if let Some(p) = &ck_path {
            // A failed write surfaces at resume time; the run itself
            // must not die over checkpoint IO.
            let _ = std::fs::write(p, ck.to_text());
        }
    };
    let mut report = String::new();
    // `resume` continues exactly one seed (checkpoints are per-seed),
    // so a sweep spec falls through to the single-run branch there.
    let outcomes = if spec.seeds > 1 && from.is_none() {
        if ck_path.is_some() {
            return Err("--checkpoint requires a single-seed run (spec has seeds > 1)".into());
        }
        if stop_after.is_some() {
            return Err("--stop-after requires a single-seed run (spec has seeds > 1)".into());
        }
        let sweep = match args.get("out") {
            Some(p) => {
                let f = std::fs::File::create(p).map_err(|e| format!("cannot write {p}: {e}"))?;
                let mut sink = JsonlSink::new(std::io::BufWriter::new(f));
                run_sweep(&spec, &mut sink)
            }
            None => {
                let mut sink = StringSink::default();
                let outs = run_sweep(&spec, &mut sink);
                report.push_str(&sink.out);
                outs
            }
        };
        // Attribute each slot to its seed so failures stay addressable.
        sweep
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.map_err(|e| format!("seed {}: {e}", spec.seed + i as u64)))
            .collect()
    } else {
        let seed = from.as_ref().map(|ck| ck.seed).unwrap_or(spec.seed);
        let run = |sink: &mut dyn bbncg_scenario::MetricSink| {
            run_scenario(&spec, seed, from.clone(), sink, stop_after, save)
        };
        let outcome = match args.get("out") {
            Some(p) => {
                let f = std::fs::File::create(p).map_err(|e| format!("cannot write {p}: {e}"))?;
                let mut sink = JsonlSink::new(std::io::BufWriter::new(f));
                run(&mut sink)
            }
            None => {
                let mut sink = StringSink::default();
                let out = run(&mut sink);
                report.push_str(&sink.out);
                out
            }
        };
        vec![outcome]
    };
    // One trailer line per seed; a failed seed is reported in place so
    // the records and trailers of the seeds that did complete survive.
    // Only a wholly failed invocation becomes an error.
    let total = outcomes.len();
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(o) => {
                let _ = writeln!(
                    report,
                    "# seed {}: {} {} phase(s), steps = {}, rounds = {}, n = {}, final hash = {:016x}",
                    o.seed,
                    if o.completed {
                        "completed"
                    } else {
                        "stopped after"
                    },
                    o.phases_done,
                    o.steps,
                    o.rounds,
                    o.state.n(),
                    o.state_hash
                );
            }
            Err(e) => {
                let _ = writeln!(report, "# error: {e}");
                failures.push(e);
            }
        }
    }
    if failures.len() == total {
        return Err(failures.join("\n"));
    }
    Ok(report)
}

/// `bbncg analyze FILE` — structural report: metrics, unit structure,
/// connectivity dichotomy, tree decomposition when applicable.
pub fn cmd_analyze(args: &Args) -> Result<String, String> {
    let path = args.positional(0).ok_or("analyze needs a FILE (or -)")?;
    let r = load_realization(path)?;
    let mut out = String::new();
    let m = GraphMetrics::compute(r.csr());
    let _ = writeln!(
        out,
        "n = {}, edges = {}, connected = {}, diameter = {}, radius = {}",
        m.n, m.m, m.connected, m.diameter, m.radius
    );
    let _ = writeln!(
        out,
        "mean distance = {:.3}, Wiener index = {}, degrees {}..{}",
        m.mean_distance, m.wiener_index, m.min_degree, m.max_degree
    );
    let us = unit_structure(&r);
    if let Some(cycle) = &us.cycle {
        let _ = writeln!(
            out,
            "unicyclic: cycle length {}, max distance to cycle {}, braces {}",
            cycle.len(),
            us.max_dist_to_cycle,
            us.braces
        );
        let _ = writeln!(
            out,
            "Thm 4.1 shape (SUM caps): {}, Thm 4.2 shape (MAX caps): {}",
            us.satisfies_theorem41(),
            us.satisfies_theorem42()
        );
    }
    if let Some(pd) = path_decomposition(&r) {
        let _ = writeln!(
            out,
            "tree: diametral path length {}, Thm 3.3 inequality violations {}/{}",
            pd.d(),
            pd.violations,
            pd.checked
        );
    }
    let d = connectivity_dichotomy(&r);
    let _ = writeln!(
        out,
        "vertex connectivity = {}, min budget = {}, Thm 7.2 dichotomy holds = {}",
        d.connectivity, d.min_budget, d.holds
    );
    Ok(out)
}

/// `bbncg exact-poa --budgets LIST` — exhaustive exact PoA/PoS.
pub fn cmd_exact_poa(args: &Args) -> Result<String, String> {
    let budgets = parse_budgets(args.get("budgets").ok_or("--budgets is required")?)?;
    let model = parse_model(args)?;
    let limit: u64 = args
        .get("limit")
        .unwrap_or("2000000")
        .parse()
        .map_err(|e| format!("--limit: {e}"))?;
    let total = bbncg_core::profile_count(&budgets);
    if total > limit {
        return Err(format!(
            "instance has {total} profiles > limit {limit}; raise --limit or shrink the instance"
        ));
    }
    let s = exact_game_stats(&budgets, model, limit);
    Ok(format!(
        "profiles = {}, equilibria = {}, opt diameter = {}\n\
         best equilibrium = {}, worst equilibrium = {}\n\
         exact PoS = {:.3}, exact PoA = {:.3}\n",
        s.profiles,
        s.equilibria,
        s.opt_diameter,
        s.best_equilibrium_diameter,
        s.worst_equilibrium_diameter,
        s.pos(),
        s.poa()
    ))
}

/// `bbncg serve` — run the job server until something POSTs
/// `/shutdown` (or `bbncg submit --shutdown` does it for you).
///
/// * `--addr HOST:PORT` (default `127.0.0.1:7199`; port 0 picks a free
///   port) — bind address.
/// * `--threads N` — worker-pool size (the global flag; it also bounds
///   every parallel primitive inside jobs). Defaults to
///   `BBNCG_THREADS` or the machine's parallelism.
/// * `--queue N` (default 64) — bounded queue capacity; submissions
///   beyond it bounce with HTTP 429.
/// * `--checkpoint-dir DIR` — persist a `job-{id}.ck` checkpoint after
///   every phase of single-seed scenario jobs (crash recovery via
///   `bbncg scenario resume`).
/// * `--cache N` (default 128; 0 disables) — content-addressed result
///   cache: an identical re-submission answers with the original
///   job's stream instead of recomputing (`?nocache=1` bypasses).
///
/// Connections are served by one non-blocking readiness loop (epoll
/// on Linux, `poll(2)` on other Unix hosts); the server needs a Unix
/// host. The bound address is printed (and flushed) before the server
/// blocks, so scripts can scrape it even under `--addr ...:0`.
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7199");
    let queue_capacity: usize = args
        .get("queue")
        .unwrap_or("64")
        .parse()
        .map_err(|e| format!("--queue: {e}"))?;
    let checkpoint_dir = args.get("checkpoint-dir").map(std::path::PathBuf::from);
    if let Some(d) = &checkpoint_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("--checkpoint-dir {}: {e}", d.display()))?;
    }
    let cache_capacity: usize = args
        .get("cache")
        .unwrap_or("128")
        .parse()
        .map_err(|e| format!("--cache: {e}"))?;
    let handle = bbncg_serve::spawn(bbncg_serve::ServerConfig {
        addr: addr.to_string(),
        workers: 0, // bbncg_par::max_threads(), i.e. --threads / BBNCG_THREADS
        queue_capacity,
        checkpoint_dir,
        // `--rounds` pins the server's default round executor; jobs
        // may still override per-submission with `?rounds=`.
        default_executor: parse_executor(args)?,
        // `--obs` already enabled the registry globally in dispatch;
        // carrying it in the config keeps the server self-describing
        // (and lets library users opt in without the CLI).
        obs: args.has("--obs"),
        cache_capacity,
        ..bbncg_serve::ServerConfig::default()
    })
    .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    println!(
        "bbncg-serve listening on {} (workers = {}, queue = {}, conn = {})",
        handle.addr(),
        handle.workers(),
        queue_capacity,
        handle.conn_mode(),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    Ok("drained; all workers exited\n".into())
}

/// `bbncg submit` — client for a running `bbncg serve`.
///
/// * `submit SPEC --addr HOST:PORT [--type scenario|verify]
///   [--model sum|max] [--kernel K] [--seed S]` — POST the file (or
///   `-` for stdin) as a job and stream its JSONL records to stdout;
///   the stream is byte-identical to `bbncg scenario run SPEC --out`
///   for the same spec and seed. `--no-stream` returns the submission
///   receipt instead of following the job.
/// * `submit --status --addr …` — the server's `/healthz` document.
/// * `submit --shutdown [--abort] --addr …` — begin a graceful drain
///   (`--abort` also cancels in-flight jobs).
/// * `--wait-server SECS` (default 30) — how long to poll for the
///   server to come up before giving up.
pub fn cmd_submit(args: &Args) -> Result<String, String> {
    use bbncg_serve::client;
    let addr = args.get("addr").ok_or("submit needs --addr HOST:PORT")?;
    let wait_secs: u64 = args
        .get("wait-server")
        .unwrap_or("30")
        .parse()
        .map_err(|e| format!("--wait-server: {e}"))?;
    client::wait_ready(addr, std::time::Duration::from_secs(wait_secs))?;
    if args.has("--status") {
        let resp = client::request(addr, "GET", "/healthz", b"")?;
        return Ok(resp.text() + "\n");
    }
    if args.has("--shutdown") {
        let target = if args.has("--abort") {
            "/shutdown?mode=abort"
        } else {
            "/shutdown"
        };
        let resp = client::request(addr, "POST", target, b"")?;
        if resp.status != 200 {
            return Err(format!(
                "shutdown failed ({}): {}",
                resp.status,
                resp.text()
            ));
        }
        return Ok(resp.text() + "\n");
    }

    let path = args
        .positional(0)
        .ok_or("submit needs a SPEC file (or -), or --status / --shutdown")?;
    let body = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let mut query = Vec::new();
    for key in [
        "type", "model", "kernel", "seed", "seeds", "rounds", "nocache",
    ] {
        if let Some(v) = args.get(key) {
            query.push(format!("{key}={v}"));
        }
    }
    let target = if query.is_empty() {
        "/jobs".to_string()
    } else {
        format!("/jobs?{}", query.join("&"))
    };
    let resp = client::request(addr, "POST", &target, body.as_bytes())?;
    match resp.status {
        202 => {}
        429 => return Err(format!("server backpressure (429): {}", resp.text())),
        code => return Err(format!("submission refused ({code}): {}", resp.text())),
    }
    if args.has("--no-stream") {
        return Ok(resp.text() + "\n");
    }
    let receipt = resp.text();
    let id = client::job_id(&receipt)
        .ok_or_else(|| format!("unparseable submission receipt: {receipt}"))?;
    let mut out = String::new();
    let stream_status = client::stream_lines(addr, &format!("/jobs/{id}/stream"), |line| {
        out.push_str(line);
        out.push('\n');
        true
    })?;
    if stream_status != 200 {
        return Err(format!(
            "stream for job {id} answered HTTP {stream_status} \
             (job may have been evicted; raise the server's history limit)"
        ));
    }
    // Surface a failed/cancelled/vanished job as an error so scripts
    // notice — only a completed job may exit 0.
    let status = client::request(addr, "GET", &format!("/jobs/{id}"), b"")?.text();
    if !status.contains("\"state\":\"completed\"") {
        return Err(format!("job {id} did not complete: {status}"));
    }
    if args.has("--stats") {
        // The status document carries the lifecycle timings (queue
        // wait, run duration, per-phase durations); print it as a
        // comment trailer so the JSONL stream above stays unpolluted.
        let _ = writeln!(out, "# stats: {status}");
    }
    if let Some(report_path) = args.get("report") {
        // Fetch the server-rendered HTML report for the completed job
        // (byte-identical to `bbncg report --from` on the streamed
        // JSONL) and save it next to the stream output.
        let resp = client::request(addr, "GET", &format!("/jobs/{id}/report"), b"")?;
        if resp.status != 200 {
            return Err(format!(
                "report for job {id} answered HTTP {}: {}",
                resp.status,
                resp.text()
            ));
        }
        std::fs::write(report_path, &resp.body)
            .map_err(|e| format!("cannot write {report_path}: {e}"))?;
        let _ = writeln!(
            out,
            "# report: wrote {} bytes to {report_path}",
            resp.body.len()
        );
    }
    Ok(out)
}

/// `bbncg report` — declarative analysis reports: scenario JSONL in,
/// one self-contained HTML page out (inline SVG, no scripts, no
/// external assets).
///
/// * `report SPEC [--out FILE] [--from FILE] [--seed S] [--dry-run]` —
///   execute a report spec: each listed analysis either consumes the
///   scenario record stream (run fresh, or ingested from `--from`) or
///   runs its own equilibrium sampling; `--dry-run` prints the plan
///   and executes nothing.
/// * `report --from FILE [--out FILE]` — no spec: the default "stream
///   report" (convergence + recovery) straight from a JSONL file.
///   Byte-identical to serve's `GET /jobs/{id}/report` for the same
///   stream.
pub fn cmd_report(args: &Args) -> Result<String, String> {
    use bbncg_report::{parse_report, AnalysisSpec, ReportInputs, ReportSpec};
    let from_path = args.get("from").map(str::to_string);
    let spec_path = args.positional(0).map(str::to_string);
    let dry_run = args.has("--dry-run");

    let (mut spec, scenario_text) = match &spec_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = parse_report(&text).map_err(|e| format!("{path}: {e}"))?;
            // Scenario paths resolve relative to the report spec file.
            // A dry run only prints the plan, so it must not require
            // the scenario file to exist.
            let scenario_text = match (&spec.scenario, spec.needs_records() && !dry_run, &from_path)
            {
                (Some(rel), true, None) => {
                    let base = std::path::Path::new(path)
                        .parent()
                        .unwrap_or_else(|| std::path::Path::new("."));
                    let sp = base.join(rel);
                    Some(
                        std::fs::read_to_string(&sp)
                            .map_err(|e| format!("cannot read scenario {}: {e}", sp.display()))?,
                    )
                }
                _ => None,
            };
            (spec, scenario_text)
        }
        None => {
            if from_path.is_none() {
                return Err(
                    "report needs a SPEC file, or --from FILE for the default stream report".into(),
                );
            }
            let spec = ReportSpec {
                title: "stream report".to_string(),
                scenario: None,
                seed: None,
                analyses: vec![AnalysisSpec::Convergence, AnalysisSpec::Recovery],
            };
            (spec, None)
        }
    };
    if let Some(s) = args.get("seed") {
        spec.seed = Some(s.parse().map_err(|e| format!("--seed: {e}"))?);
    }

    if dry_run {
        return Ok(bbncg_report::plan(&spec, from_path.as_deref()));
    }

    let jsonl = from_path
        .as_deref()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}")))
        .transpose()?;
    let html = if spec_path.is_none() {
        bbncg_report::render_stream_report(jsonl.as_deref().expect("checked above"))?
    } else {
        bbncg_report::run_report(
            &spec,
            ReportInputs {
                scenario_text: scenario_text.as_deref(),
                jsonl: jsonl.as_deref(),
            },
        )?
    };
    match args.get("out") {
        Some(p) => {
            std::fs::write(p, &html).map_err(|e| format!("cannot write {p}: {e}"))?;
            Ok(format!("wrote {} bytes to {p}\n", html.len()))
        }
        None => Ok(html),
    }
}

/// `bbncg dot FILE` — DOT rendering of a saved profile.
pub fn cmd_dot(args: &Args) -> Result<String, String> {
    let path = args.positional(0).ok_or("dot needs a FILE (or -)")?;
    let r = load_realization(path)?;
    Ok(dot::digraph_to_dot(r.graph(), "bbncg", |u| {
        format!("v{}", u.index())
    }))
}

/// Usage text.
pub const USAGE: &str = "bbncg — bounded budget network creation games (Ehsani et al., SPAA 2011)

USAGE: bbncg <COMMAND> [ARGS]

COMMANDS:
  construct       --budgets 1,1,2,0 | --spider K | --btree H | --shift K
  verify          FILE [--model sum|max] [--swap|--audit] [--kernel bitset|sparse|auto]
                  [--rounds sequential|sharded|auto]
  best-response   FILE --player I [--model sum|max] [--rule exact|greedy|swap]
  dynamics        [FILE] --budgets LIST [--model sum|max] [--seed S]
                  [--rule exact|better|greedy|swap] [--order rr|random]
                  [--rounds N] [--rounds sequential|sharded|auto]
                  [--emit profile] [--kernel bitset|sparse|auto]
  analyze         FILE
  exact-poa       --budgets LIST [--model sum|max] [--limit N]
  scenario        run SPEC [--seed S] [--out FILE] [--checkpoint FILE] [--stop-after K]
                  | resume SPEC --checkpoint FILE [--out FILE]
                  | validate SPEC...
                  (all: [--kernel bitset|sparse|auto] [--rounds MODE], overriding the spec)
  report          SPEC [--out FILE] [--from FILE] [--seed S] [--dry-run]
                  | --from FILE [--out FILE]  (default stream report, no spec)
  serve           [--addr HOST:PORT] [--queue N] [--checkpoint-dir DIR] [--rounds MODE]
                  [--cache N] [--obs]  (GET /metrics serves Prometheus text either way)
  submit          SPEC --addr HOST:PORT [--type scenario|verify] [--model sum|max]
                  [--kernel K] [--rounds MODE] [--seed S] [--seeds N] [--nocache 1]
                  [--no-stream] [--stats] [--report FILE] [--wait-server SECS]
                  | --status --addr ... | --shutdown [--abort] --addr ...
  dot             FILE

Profiles use the plain-text `bbncg v1` format; FILE may be `-` (stdin).
Dynamics and scenarios are seed-deterministic: identical seeds (and
specs) produce identical reports, metric records and final profiles.
--kernel picks the machinery pricing candidate deviations (word-
parallel bitset BFS vs incremental sparse SSSP repair; auto picks
bitset up to 6144 vertices, sparse above; the retired name queue
means auto). Kernels are move-for-move equivalent: they never change
a result, only throughput.
--rounds (mode form) picks the round executor: sharded rounds split
each activation's candidate space (exact subsets, swap pairs) across
worker engines and merge the slice optima; they are step-identical to
sequential rounds at any thread count. auto shards with > 1 worker
thread on a multi-CPU host, never inside seed-sweep or serve-job
workers, and only activations with enough candidate work to beat the
fork/join cost; the legacy name speculative means sharded. On
`dynamics`, a numeric --rounds keeps its historical round-cap meaning;
give the flag twice for both.
--threads N (any command) pins the worker-thread bound, overriding
BBNCG_THREADS: dynamics/verify/scenario parallelism and the serve
worker pool all respect it.
--obs (any command) switches the in-process metrics registry on
(kernel pruning rates, sharded-activation counts, phase timings;
scraped via serve's GET /metrics). --trace FILE (any command) streams
span records — one JSON object per phase/seed with start_us/dur_us —
to FILE as JSONL. Both are off by default and cost nothing when off;
the metric-record JSONL streams are byte-identical either way.
Scenario specs are TOML-subset files (see README \"Scenario specs\");
metric records are JSONL, one line per phase.
`serve` turns the workspace into a long-running service: POST a spec
to /jobs, stream /jobs/{id}/stream, and the JSONL you get is byte-
identical to the offline `scenario run` for the same spec and seed
(429 = queue full; retry later). `submit` is the matching client.
The front end is a non-blocking readiness loop (epoll on Linux,
poll(2) on other Unix hosts; serve needs a Unix host) with HTTP/1.1
keep-alive; identical re-submissions answer from a content-addressed
result cache (--cache, ?nocache=1 bypasses).
`report` renders declarative analysis reports (see README \"Reports\"):
a TOML-subset spec lists analyses (convergence, recovery, poa-spectrum,
census, obs-digest); the output is one self-contained HTML file with
inline SVG charts plus schema-versioned JSON fragments. Serve exposes
the same renderer as GET /jobs/{id}/report (fetch it with
`submit --report FILE`), byte-identical to `report --from` on the
job's streamed JSONL.
";

/// Options every command takes (see [`dispatch`]), without their `--`.
const GLOBAL_OPTIONS: &str = "threads trace obs help";

/// The options `cmd` reads besides [`GLOBAL_OPTIONS`], without their
/// `--`; `None` for `help` and for names that are not commands, which
/// [`dispatch`] answers without reading any option.
fn command_options(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "construct" => "budgets spider btree shift",
        "verify" => "model kernel rounds swap audit",
        "best-response" => "player model rule",
        "dynamics" => "budgets model kernel seed rounds rule order emit",
        "analyze" | "dot" => "",
        "exact-poa" => "budgets model limit",
        "scenario" => "seed kernel rounds out checkpoint stop-after",
        "report" => "from seed out dry-run",
        "serve" => "addr queue checkpoint-dir cache rounds",
        "submit" => {
            "addr wait-server status shutdown abort type model kernel seed seeds rounds \
             nocache no-stream stats report"
        }
        _ => return None,
    })
}

/// Dispatch a full command line (without the program name). An option
/// the command does not read is an error before anything runs, so a
/// mistyped or retired flag never runs the command without it.
pub fn dispatch(raw: &[String]) -> Result<String, String> {
    let (cmd, rest) = raw.split_first().ok_or(USAGE.to_string())?;
    let args = Args::parse(rest)?;
    if args.has("--help") {
        return Ok(USAGE.to_string());
    }
    if let Some(taken) = command_options(cmd) {
        let taken = format!("{GLOBAL_OPTIONS} {taken}");
        let reads = |o: &&str| taken.split_whitespace().any(|t| t == *o);
        if let Some(o) = args.option_names().find(|o| !reads(o)) {
            return Err(format!("{cmd} does not take --{o}\n\n{USAGE}"));
        }
    }
    // Global: `--threads N` pins the worker-thread bound for every
    // parallel primitive in the process (dynamics candidate pricing,
    // scenario sweeps, the serve worker pool), overriding
    // BBNCG_THREADS and auto-detection.
    if let Some(t) = args.get("threads") {
        let n: usize = t.parse().map_err(|e| format!("--threads: {e}"))?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        bbncg_par::set_max_threads(n);
    }
    // Global observability: `--obs` switches the metrics registry on
    // for the process (one-way; zero cost when absent), `--trace FILE`
    // installs a JSONL span sink. Both compose with every subcommand.
    if args.has("--obs") {
        bbncg_obs::enable();
    }
    if let Some(path) = args.get("trace") {
        let sink =
            bbncg_obs::JsonlTraceSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        bbncg_obs::install_tracer(Box::new(sink));
    }
    let result = match cmd.as_str() {
        "construct" => cmd_construct(&args),
        "verify" => cmd_verify(&args),
        "best-response" => cmd_best_response(&args),
        "dynamics" => cmd_dynamics(&args),
        "analyze" => cmd_analyze(&args),
        "exact-poa" => cmd_exact_poa(&args),
        "scenario" => cmd_scenario(&args),
        "report" => cmd_report(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "dot" => cmd_dot(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    // The trace sink is a process-global that never drops; flush it so
    // `--trace FILE` is complete the moment the command returns.
    bbncg_obs::flush_tracer();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        dispatch(&raw)
    }

    #[test]
    fn construct_theorem23_roundtrips_through_verify() {
        let profile = run(&["construct", "--budgets", "1,1,2,0"]).unwrap();
        assert!(profile.starts_with("bbncg v1"));
        // Write to a temp file and verify.
        let path = std::env::temp_dir().join("bbncg_cli_test_1.bbncg");
        std::fs::write(&path, &profile).unwrap();
        let report = run(&["verify", path.to_str().unwrap(), "--model", "max"]).unwrap();
        assert!(report.contains("Nash equilibrium (MAX) = true"), "{report}");
        let report = run(&["verify", path.to_str().unwrap(), "--model", "sum"]).unwrap();
        assert!(report.contains("Nash equilibrium (SUM) = true"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn construct_spider_and_analyze() {
        let profile = run(&["construct", "--spider", "3"]).unwrap();
        let path = std::env::temp_dir().join("bbncg_cli_test_2.bbncg");
        std::fs::write(&path, &profile).unwrap();
        let report = run(&["analyze", path.to_str().unwrap()]).unwrap();
        assert!(report.contains("n = 10"));
        assert!(report.contains("diametral path length 6"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamics_reports_convergence() {
        let report = run(&[
            "dynamics",
            "--budgets",
            "1,1,1,1,1",
            "--seed",
            "3",
            "--model",
            "sum",
        ])
        .unwrap();
        assert!(report.contains("converged = true"), "{report}");
    }

    #[test]
    fn dynamics_emits_loadable_profile() {
        let out = run(&["dynamics", "--budgets", "1,1,1,1", "--emit", "profile"]).unwrap();
        let profile_start = out.find("bbncg v1").unwrap();
        let r = bbncg_core::parse_realization(&out[profile_start..]).unwrap();
        assert_eq!(r.n(), 4);
    }

    #[test]
    fn kernel_flag_is_report_invariant() {
        // The same dynamics command under each kernel: identical
        // reports and identical emitted profiles (kernels are
        // move-for-move equivalent; the retired "queue" reads as auto).
        // "auto" and a bad value parse/fail as expected, on verify too.
        let base = ["dynamics", "--budgets", "1,1,1,1,1,1", "--seed", "11"];
        let mut outs = Vec::new();
        for kernel in ["sparse", "bitset", "auto", "queue"] {
            let mut line: Vec<&str> = base.to_vec();
            line.extend(["--kernel", kernel, "--emit", "profile"]);
            outs.push(run(&line).unwrap());
        }
        assert_eq!(outs[0], outs[1], "sparse vs bitset");
        assert_eq!(outs[0], outs[2], "sparse vs auto");
        assert_eq!(outs[3], outs[2], "queue vs auto");
        assert!(run(&["dynamics", "--budgets", "1,1", "--kernel", "warp"])
            .unwrap_err()
            .contains("unknown kernel"));

        let profile = run(&["construct", "--budgets", "1,1,2,0"]).unwrap();
        let path = std::env::temp_dir().join("bbncg_cli_test_kernel.bbncg");
        std::fs::write(&path, &profile).unwrap();
        let s = run(&["verify", path.to_str().unwrap(), "--kernel", "sparse"]).unwrap();
        let b = run(&["verify", path.to_str().unwrap(), "--kernel", "bitset"]).unwrap();
        assert_eq!(s, b);
        assert!(s.contains("Nash equilibrium (SUM) = true"), "{s}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rounds_flag_is_report_invariant_and_polymorphic() {
        // The same dynamics command under each executor: identical
        // reports and identical emitted profiles (executors are
        // step-identical). The numeric form still caps rounds, both
        // forms combine, and bad values fail with the mode list.
        let base = ["dynamics", "--budgets", "1,1,1,1,1,1", "--seed", "11"];
        let mut outs = Vec::new();
        for mode in ["sequential", "sharded", "auto", "speculative"] {
            let mut line: Vec<&str> = base.to_vec();
            line.extend(["--rounds", mode, "--emit", "profile"]);
            outs.push(run(&line).unwrap());
        }
        assert_eq!(outs[0], outs[1], "sequential vs sharded");
        assert_eq!(outs[0], outs[2], "sequential vs auto");
        assert_eq!(outs[0], outs[3], "sequential vs the legacy label");
        // Numeric --rounds still caps; combined with a mode it caps
        // under that executor — and a cap of 0 rounds runs nothing.
        let capped = run(&[
            "dynamics",
            "--budgets",
            "1,1,1",
            "--rounds",
            "0",
            "--rounds",
            "sharded",
        ])
        .unwrap();
        assert!(capped.contains("rounds = 0"), "{capped}");
        assert!(run(&["dynamics", "--budgets", "1,1", "--rounds", "warp"])
            .unwrap_err()
            .contains("sequential|sharded|auto"));

        // verify --audit accepts the mode and the verdict is
        // executor-independent.
        let profile = run(&["construct", "--budgets", "1,1,2,0"]).unwrap();
        let path = std::env::temp_dir().join("bbncg_cli_test_rounds.bbncg");
        std::fs::write(&path, &profile).unwrap();
        let seq = run(&[
            "verify",
            path.to_str().unwrap(),
            "--audit",
            "--rounds",
            "sequential",
        ])
        .unwrap();
        let spec = run(&[
            "verify",
            path.to_str().unwrap(),
            "--audit",
            "--rounds",
            "sharded",
        ])
        .unwrap();
        assert_eq!(seq, spec);
        assert!(seq.contains("Nash equilibrium (SUM) = true"), "{seq}");
        // A bad mode is rejected on every verify path, --audit or not.
        assert!(run(&["verify", path.to_str().unwrap(), "--rounds", "warp"])
            .unwrap_err()
            .contains("sequential|sharded|auto"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scenario_rounds_override_is_record_invariant() {
        // `scenario run --rounds MODE` overrides the spec's executor;
        // the record stream (and trailer hashes) must not move.
        let dir = std::env::temp_dir();
        let spec = dir.join("bbncg_cli_scenario_rounds.toml");
        std::fs::write(&spec, TINY_SCENARIO).unwrap();
        let spec_s = spec.to_str().unwrap();
        let seq = run(&["scenario", "run", spec_s, "--rounds", "sequential"]).unwrap();
        let sharded = run(&["scenario", "run", spec_s, "--rounds", "sharded"]).unwrap();
        assert_eq!(seq, sharded);
        let legacy = run(&["scenario", "run", spec_s, "--rounds", "speculative"]).unwrap();
        assert_eq!(seq, legacy);
        assert!(run(&["scenario", "run", spec_s, "--rounds", "warp"])
            .unwrap_err()
            .contains("sequential|sharded|auto"));
        std::fs::remove_file(&spec).ok();
    }

    #[test]
    fn exact_poa_reports_ratios() {
        let report = run(&["exact-poa", "--budgets", "1,1,1", "--model", "max"]).unwrap();
        assert!(report.contains("profiles = 8"));
        assert!(report.contains("exact PoA = 1.000"));
    }

    #[test]
    fn best_response_identifies_improvement() {
        // A directed path is not an equilibrium: player 0 can improve.
        let r = Realization::new(generators::path(5));
        let path = std::env::temp_dir().join("bbncg_cli_test_3.bbncg");
        std::fs::write(&path, write_realization(&r)).unwrap();
        let report = run(&[
            "best-response",
            path.to_str().unwrap(),
            "--player",
            "0",
            "--model",
            "sum",
        ])
        .unwrap();
        assert!(report.contains("(improves)"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dot_renders() {
        let profile = run(&["construct", "--btree", "2"]).unwrap();
        let path = std::env::temp_dir().join("bbncg_cli_test_4.bbncg");
        std::fs::write(&path, &profile).unwrap();
        let dot = run(&["dot", path.to_str().unwrap()]).unwrap();
        assert!(dot.starts_with("digraph bbncg"));
        std::fs::remove_file(&path).ok();
    }

    const TINY_SCENARIO: &str = r#"
[scenario]
name = "tiny"
seed = 3

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

    #[test]
    fn scenario_run_resume_and_validate() {
        let dir = std::env::temp_dir();
        let spec = dir.join("bbncg_cli_scenario.toml");
        let ck = dir.join("bbncg_cli_scenario.ck");
        std::fs::write(&spec, TINY_SCENARIO).unwrap();
        let spec_s = spec.to_str().unwrap();
        let ck_s = ck.to_str().unwrap();

        let v = run(&["scenario", "validate", spec_s]).unwrap();
        assert!(v.contains("ok — scenario \"tiny\", 3 phase(s)"), "{v}");

        let full = run(&["scenario", "run", spec_s]).unwrap();
        assert!(full.contains("\"kind\":\"summary\""), "{full}");
        assert_eq!(full.matches("\"kind\":\"dynamics\"").count(), 2);
        let final_line = full.lines().last().unwrap().to_string();
        assert!(final_line.contains("completed 3 phase(s)"), "{full}");

        // Stop after one phase, then resume: identical trailer line.
        let part = run(&[
            "scenario",
            "run",
            spec_s,
            "--checkpoint",
            ck_s,
            "--stop-after",
            "1",
        ])
        .unwrap();
        assert!(part.contains("stopped after 1 phase(s)"), "{part}");
        let resumed = run(&["scenario", "resume", spec_s, "--checkpoint", ck_s]).unwrap();
        assert!(
            resumed.lines().last().unwrap() == final_line,
            "resume must land on the uninterrupted final hash:\n{resumed}\nvs\n{final_line}"
        );

        // --out streams records to a file instead of stdout.
        let out = dir.join("bbncg_cli_scenario.jsonl");
        let r = run(&["scenario", "run", spec_s, "--out", out.to_str().unwrap()]).unwrap();
        assert!(!r.contains("\"kind\""), "{r}");
        let jsonl = std::fs::read_to_string(&out).unwrap();
        assert_eq!(jsonl.lines().count(), 4); // 3 phases + summary
        std::fs::remove_file(&spec).ok();
        std::fs::remove_file(&ck).ok();
        std::fs::remove_file(&out).ok();
    }

    /// The trace sink is process-global: a test installing its own
    /// while another's scenario runs would divert that test's spans
    /// into the wrong file, so tests that pass `--trace` take turns.
    static TRACE_SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn trace_flag_emits_one_span_per_phase() {
        let _sink = TRACE_SINK.lock().unwrap_or_else(|e| e.into_inner());
        // A scenario with a unique name, so the span count below
        // ignores spans of other tests' (untraced) scenario runs.
        let dir = std::env::temp_dir();
        let spec = dir.join("bbncg_cli_trace.toml");
        let trace = dir.join("bbncg_cli_trace.jsonl");
        std::fs::write(
            &spec,
            TINY_SCENARIO.replace("name = \"tiny\"", "name = \"trace-test\""),
        )
        .unwrap();
        run(&[
            "scenario",
            "run",
            spec.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--obs",
        ])
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        let phase_spans: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"span\":\"phase\"") && l.contains("\"trace-test\""))
            .collect();
        assert_eq!(phase_spans.len(), 3, "{jsonl}");
        for (i, line) in phase_spans.iter().enumerate() {
            assert!(
                line.starts_with("{\"span\":\"phase\",\"start_us\":"),
                "{line}"
            );
            assert!(line.contains("\"dur_us\":"), "{line}");
            assert!(line.contains(&format!("\"phase\":\"{i}\"")), "{line}");
        }
        std::fs::remove_file(&spec).ok();
        std::fs::remove_file(&trace).ok();
    }

    /// Every `--trace` line must be a complete JSON object with the
    /// full documented span schema — `span`, `start_us`, `dur_us`,
    /// `fields` (string-valued object), in that order — so downstream
    /// consumers can parse the stream without per-line special cases.
    #[test]
    fn trace_lines_round_trip_full_span_schema() {
        use bbncg_report::json::{parse, Json};
        let _sink = TRACE_SINK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir();
        let spec = dir.join("bbncg_cli_trace_schema.toml");
        let trace = dir.join("bbncg_cli_trace_schema.jsonl");
        std::fs::write(
            &spec,
            TINY_SCENARIO.replace("name = \"tiny\"", "name = \"trace-schema\""),
        )
        .unwrap();
        run(&[
            "scenario",
            "run",
            spec.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(jsonl.lines().count() >= 3, "{jsonl}");
        for line in jsonl.lines() {
            let v = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let Json::Obj(entries) = &v else {
                panic!("trace line is not an object: {line}");
            };
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["span", "start_us", "dur_us", "fields"], "{line}");
            assert!(v.get("span").and_then(Json::as_str).is_some(), "{line}");
            assert!(v.get("start_us").and_then(Json::as_u64).is_some(), "{line}");
            assert!(v.get("dur_us").and_then(Json::as_u64).is_some(), "{line}");
            let Some(Json::Obj(fields)) = v.get("fields") else {
                panic!("fields is not an object: {line}");
            };
            for (k, fv) in fields {
                assert!(fv.as_str().is_some(), "field {k} is not a string: {line}");
            }
        }
        std::fs::remove_file(&spec).ok();
        std::fs::remove_file(&trace).ok();
    }

    const TINY_REPORT: &str = r#"
[report]
title = "cli test report"
scenario = "bbncg_cli_report_scenario.toml"

[[analysis]]
kind = "convergence"

[[analysis]]
kind = "recovery"
"#;

    #[test]
    fn report_dry_run_prints_plan_without_executing() {
        let dir = std::env::temp_dir();
        let spec = dir.join("bbncg_cli_report_dry.toml");
        // Deliberately do NOT write the scenario file: --dry-run must
        // not read it, let alone run it.
        std::fs::write(
            &spec,
            TINY_REPORT.replace(
                "bbncg_cli_report_scenario.toml",
                "bbncg_cli_report_missing.toml",
            ),
        )
        .unwrap();
        let plan = run(&["report", spec.to_str().unwrap(), "--dry-run"]).unwrap();
        assert!(plan.contains("report: cli test report"), "{plan}");
        assert!(plan.contains("convergence"), "{plan}");
        assert!(plan.contains("recovery"), "{plan}");
        assert!(!plan.contains("<html"), "{plan}");
        std::fs::remove_file(&spec).ok();
    }

    #[test]
    fn report_runs_from_spec_and_from_stream() {
        let dir = std::env::temp_dir();
        let scenario = dir.join("bbncg_cli_report_scenario.toml");
        let spec = dir.join("bbncg_cli_report.toml");
        let jsonl_path = dir.join("bbncg_cli_report.jsonl");
        let out = dir.join("bbncg_cli_report.html");
        std::fs::write(&scenario, TINY_SCENARIO).unwrap();
        std::fs::write(&spec, TINY_REPORT).unwrap();

        // Spec-driven run, written to --out.
        let msg = run(&[
            "report",
            spec.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let html = std::fs::read_to_string(&out).unwrap();
        assert!(html.contains("cli test report"), "missing title");
        assert!(html.contains("id=\"convergence\""), "missing section");
        assert!(html.contains("id=\"recovery\""), "missing section");
        assert_eq!(bbncg_report::self_containment_violation(&html), None);

        // Stream report from a captured JSONL file must be byte-equal
        // to the library renderer on the same bytes (the serve parity
        // contract).
        run(&[
            "scenario",
            "run",
            scenario.to_str().unwrap(),
            "--out",
            jsonl_path.to_str().unwrap(),
        ])
        .unwrap();
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        let via_cli = run(&["report", "--from", jsonl_path.to_str().unwrap()]).unwrap();
        let via_lib = bbncg_report::render_stream_report(&jsonl).unwrap();
        assert_eq!(via_cli, via_lib);

        std::fs::remove_file(&scenario).ok();
        std::fs::remove_file(&spec).ok();
        std::fs::remove_file(&jsonl_path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn report_errors_are_descriptive() {
        assert!(run(&["report"]).unwrap_err().contains("SPEC"));
        assert!(run(&["report", "nope.toml"])
            .unwrap_err()
            .contains("cannot read"));
        let bad = std::env::temp_dir().join("bbncg_cli_report_bad.toml");
        std::fs::write(
            &bad,
            "[report]\ntitle = \"x\"\n[[analysis]]\nkind = \"frob\"\n",
        )
        .unwrap();
        let err = run(&["report", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("frob"), "{err}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn scenario_errors_are_descriptive() {
        assert!(run(&["scenario"]).unwrap_err().contains("action"));
        assert!(run(&["scenario", "frob", "x"])
            .unwrap_err()
            .contains("unknown scenario action"));
        assert!(run(&["scenario", "validate"]).unwrap_err().contains("SPEC"));
        assert!(run(&["scenario", "resume", "nope.toml"])
            .unwrap_err()
            .contains("cannot read"));
        let bad = std::env::temp_dir().join("bbncg_cli_scenario_bad.toml");
        std::fs::write(
            &bad,
            "[init]\nfamily = \"warp\"\n[[phase]]\nkind = \"dynamics\"",
        )
        .unwrap();
        let err = run(&["scenario", "validate", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("warp"), "{err}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(run(&["construct"]).unwrap_err().contains("--budgets"));
        assert!(run(&["verify"]).unwrap_err().contains("FILE"));
        assert!(run(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(run(&["exact-poa", "--budgets", "9,9"])
            .unwrap_err()
            .contains("budget"));
        assert!(run(&["dynamics", "--budgets", "1,1", "--rule", "quantum"])
            .unwrap_err()
            .contains("unknown --rule"));
    }

    #[test]
    fn help_paths() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&["verify", "--help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn args_parser_basics() {
        let raw: Vec<String> = ["a.txt", "--model", "max", "--swap"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.positional(0), Some("a.txt"));
        assert_eq!(args.get("model"), Some("max"));
        assert!(args.has("--swap"));
        assert!(Args::parse(&["--model".to_string()]).is_err());
    }
}
