//! Typed scenario specifications, validated out of the TOML subset.
//!
//! A spec names an initial state, default dynamics parameters, and an
//! ordered timeline of phases — dynamics runs interleaved with
//! perturbation events. See the repository README ("Scenario specs")
//! for the grammar and `examples/scenarios/` for working files.

use crate::toml::{self, SpecError, TomlTable, Value};
use bbncg_core::oracle::enumeration_count;
use bbncg_core::{
    CostKernel, CostModel, DynamicsConfig, PlayerOrder, ResponseRule, RoundExecutor,
    MAX_EXACT_CANDIDATES,
};
use bbncg_graph::generators::{family_size, MAX_ARCS, MAX_VERTICES};
use std::collections::HashSet;

/// Most seeds one sweep may run. A sweep keeps every seed's final
/// state, so a larger instance lowers the cap further: see
/// [`ScenarioSpec::check_sweep`].
pub const MAX_SEEDS: usize = 1 << 12;

/// How the initial realization is produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitSpec {
    /// A named `bbncg_graph::generators` family (random families draw
    /// from the run's seeded RNG; `"random"` takes the budget vector as
    /// its parameters).
    Family {
        /// Registry name (see `bbncg_graph::generators::FAMILIES`).
        family: String,
        /// Integer parameters.
        params: Vec<usize>,
    },
    /// An explicit arc list.
    Inline {
        /// Number of players.
        n: usize,
        /// `(owner, target)` arcs.
        arcs: Vec<(usize, usize)>,
    },
}

/// Which game the dynamics phases play.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The paper's undirected game (distances in `U(G)`).
    Undirected,
    /// The Laoutaris et al. directed baseline (round-robin exact best
    /// response; `model`/`rule`/`order` do not apply).
    Directed,
}

/// One timeline entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhaseSpec {
    /// Run best-response dynamics (fields override `[dynamics]`).
    Dynamics {
        /// Round budget for this phase.
        rounds: Option<usize>,
        /// Cost model override.
        model: Option<CostModel>,
        /// Response-rule override.
        rule: Option<ResponseRule>,
        /// Activation-order override.
        order: Option<PlayerOrder>,
    },
    /// `count` new agents arrive, each buying `budget` links to
    /// uniformly chosen existing agents.
    Arrive {
        /// Number of arrivals.
        count: usize,
        /// Links each arrival buys.
        budget: usize,
    },
    /// Agents leave; arcs that pointed at them are retargeted uniformly
    /// at random (or dropped when no legal target remains).
    Depart {
        /// Explicit departures (empty ⇒ pick `count` at random).
        nodes: Vec<usize>,
        /// Random departure count when `nodes` is empty.
        count: usize,
    },
    /// Grant (`delta > 0`) or revoke (`delta < 0`) budget to a node
    /// set: granted links go to random fresh targets, revoked links are
    /// removed at random.
    BudgetShock {
        /// Explicit node set (empty ⇒ pick `count` at random).
        nodes: Vec<usize>,
        /// Random node count when `nodes` is empty.
        count: usize,
        /// Signed budget change per selected node.
        delta: i64,
    },
    /// Delete `count` arcs: the adversary removes the arc whose loss
    /// maximizes social cost (greedily, one at a time), or uniformly
    /// random arcs when `adversarial = false`.
    DeleteEdges {
        /// Arcs to delete.
        count: usize,
        /// Worst-case (`true`, default) vs uniform deletion.
        adversarial: bool,
    },
    /// Re-orient every arc by a fair coin flip using a *reseeded* RNG
    /// (`seed` fixed in the spec, or drawn from the run stream).
    Reorient {
        /// Explicit reseed; `None` draws one from the run's RNG.
        seed: Option<u64>,
    },
}

impl PhaseSpec {
    /// The phase's `kind` label, as written in specs and metric records.
    pub fn kind(&self) -> &'static str {
        match self {
            PhaseSpec::Dynamics { .. } => "dynamics",
            PhaseSpec::Arrive { .. } => "arrive",
            PhaseSpec::Depart { .. } => "depart",
            PhaseSpec::BudgetShock { .. } => "budget-shock",
            PhaseSpec::DeleteEdges { .. } => "delete-edges",
            PhaseSpec::Reorient { .. } => "reorient",
        }
    }
}

/// A validated scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name (for records and checkpoints).
    pub name: String,
    /// Base seed; run `k` of a sweep uses `seed + k`.
    pub seed: u64,
    /// Sweep width (number of seeds; default 1).
    pub seeds: usize,
    /// Initial state.
    pub init: InitSpec,
    /// Default dynamics parameters for `kind = "dynamics"` phases.
    pub defaults: DynamicsConfig,
    /// Cost kernel pricing every candidate deviation
    /// (`[dynamics] kernel = "bitset"|"sparse"|"auto"`, default auto;
    /// the retired `"queue"` reads as auto).
    /// Kernels are move-for-move equivalent, so this is purely a
    /// throughput knob: trajectories, records, checkpoints and resumes
    /// are kernel-independent.
    pub kernel: CostKernel,
    /// Undirected (default) or directed dynamics.
    pub variant: Variant,
    /// The timeline.
    pub phases: Vec<PhaseSpec>,
    /// Switch the process-wide `bbncg_obs` metrics registry on for
    /// this run (`[obs] metrics = true`; the section alone defaults to
    /// on). Enabling is one-way per process; off costs nothing.
    pub obs: bool,
    /// FNV-1a hash of the source text; checkpoints pin it so a resume
    /// against an edited spec fails loudly.
    pub spec_hash: u64,
}

/// FNV-1a over raw bytes — the stable hash used for spec identity and
/// state hashes in metric records (unlike `DefaultHasher`, guaranteed
/// stable across platforms and std versions).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ScenarioSpec {
    /// Check the sweep width against the cap, as `parse_spec` does; a
    /// caller that overrides `seeds` after parsing (serve's `?seeds=`)
    /// calls this again.
    pub fn check_sweep(&self) -> Result<(), SpecError> {
        check_sweep(0, self.seeds, self.peak())
    }

    /// Check the kernel against the instance it would run on
    /// ([`CostKernel::check_size`]), as `parse_spec` does; a caller
    /// that overrides `kernel` after parsing (serve's `?kernel=`, the
    /// CLI's `--kernel`) calls this again.
    pub fn check_kernel(&self) -> Result<(), SpecError> {
        check_kernel(0, self.kernel, self.peak())
    }

    /// The most `(vertices, arcs)` a run of this spec can hold.
    fn peak(&self) -> (usize, usize) {
        self.phases.iter().fold(init_size(&self.init), grow)
    }
}

/// Refuse a kernel that cannot run on the peak instance.
fn check_kernel(line: usize, kernel: CostKernel, (v, _): (usize, usize)) -> Result<(), SpecError> {
    kernel
        .check_size(v)
        .map_err(|e| SpecError::at(line, format!("[dynamics] {e}")))
}

/// `(vertices, arcs)` of the initial profile.
fn init_size(init: &InitSpec) -> (usize, usize) {
    match init {
        InitSpec::Inline { n, arcs } => (*n, arcs.len()),
        InitSpec::Family { family, params } => {
            family_size(family, params).unwrap_or((usize::MAX, usize::MAX))
        }
    }
}

/// The most `(vertices, arcs)` a run holds after `phase`, given the
/// most before it. Arrivals add vertices and their links, positive
/// budget shocks add links; each link count is clamped as the event
/// clamps it (no more targets than vertices). Departures and
/// revocations are ignored, so this bounds the peak from above.
/// Saturating, so hostile counts cannot overflow.
fn grow((v, a): (usize, usize), phase: &PhaseSpec) -> (usize, usize) {
    match phase {
        PhaseSpec::Arrive { count, budget } => {
            let v = v.saturating_add(*count);
            (v, a.saturating_add(count.saturating_mul((*budget).min(v))))
        }
        PhaseSpec::BudgetShock {
            nodes,
            count,
            delta,
        } if *delta > 0 => {
            let k = if nodes.is_empty() {
                (*count).min(v)
            } else {
                nodes.len()
            };
            let per_node = usize::try_from(*delta).unwrap_or(usize::MAX).min(v);
            (v, a.saturating_add(k.saturating_mul(per_node)))
        }
        _ => (v, a),
    }
}

/// Refuse a run whose exact search cannot start. Under the exact and
/// better rules (and in the directed variant, which always searches
/// exactly) a player owning `b` arcs among `n` vertices faces
/// `C(n − 1, b)` candidate strategies, and the search refuses more than
/// [`MAX_EXACT_CANDIDATES`]. Checked: the initial profile's players
/// (inline arc lists and random budget vectors; the other families
/// give each player at most a few arcs) and each arrival's budget,
/// whenever a later dynamics phase searches exactly. A `reorient` or
/// budget-shock phase can still hand one player many arcs mid-run; such
/// a run stops with the search's panic, and a served job ends `failed`.
fn check_exact_searches(
    init: &InitSpec,
    init_line: usize,
    phases: &[PhaseSpec],
    tables: &[&TomlTable],
    defaults: &DynamicsConfig,
    variant: Variant,
) -> Result<(), SpecError> {
    // The exact search runs in some dynamics phase at index ≥ p.
    let exact_at = |p: usize| {
        phases[p..].iter().any(|phase| match phase {
            PhaseSpec::Dynamics { rule, .. } => {
                variant == Variant::Directed
                    || matches!(
                        rule.unwrap_or(defaults.rule),
                        ResponseRule::ExactBest | ResponseRule::FirstImproving
                    )
            }
            _ => false,
        })
    };
    let refuse = |line: usize, who: String, n: usize, b: usize| {
        let count = enumeration_count(n.saturating_sub(1), b);
        if count <= MAX_EXACT_CANDIDATES {
            return Ok(());
        }
        Err(SpecError::at(
            line,
            format!(
                "{who} owns {b} arcs among {n} vertices: the exact search would enumerate \
                 {count} candidates, over the cap of {MAX_EXACT_CANDIDATES} \
                 (use rule = \"swap\" or \"greedy\")"
            ),
        ))
    };
    if exact_at(0) {
        match init {
            InitSpec::Inline { n, arcs } => {
                let mut owned = vec![0usize; *n];
                arcs.iter().for_each(|&(u, _)| owned[u] += 1);
                for (u, &b) in owned.iter().enumerate() {
                    refuse(init_line, format!("[init] player {u}"), *n, b)?;
                }
            }
            InitSpec::Family { family, params } if family == "random" => {
                for (u, &b) in params.iter().enumerate() {
                    refuse(init_line, format!("[init] player {u}"), params.len(), b)?;
                }
            }
            InitSpec::Family { .. } => {}
        }
    }
    let mut vertices = init_size(init).0;
    for (p, (phase, table)) in phases.iter().zip(tables).enumerate() {
        if let PhaseSpec::Arrive { count, budget } = phase {
            vertices = vertices.saturating_add(*count);
            if exact_at(p + 1) {
                let b = (*budget).min(vertices.saturating_sub(1));
                refuse(
                    table.line,
                    "[[phase]] arrive: each arrival".into(),
                    vertices,
                    b,
                )?;
            }
        }
    }
    Ok(())
}

/// Refuse a run whose peak size is over the vertex or arc cap.
fn check_size(line: usize, what: &str, (v, a): (usize, usize)) -> Result<(), SpecError> {
    if v > MAX_VERTICES {
        return Err(SpecError::at(
            line,
            format!("{what} reaches {v} vertices, over the {MAX_VERTICES}-vertex cap"),
        ));
    }
    if a > MAX_ARCS {
        return Err(SpecError::at(
            line,
            format!("{what} reaches {a} arcs, over the {MAX_ARCS}-arc cap"),
        ));
    }
    Ok(())
}

/// Refuse a sweep wider than the cap: [`MAX_SEEDS`] runs, and no more
/// runs than fit one maximal instance's worth of vertices and arcs
/// (every seed's final state is kept until the sweep ends).
fn check_sweep(line: usize, seeds: usize, (v, a): (usize, usize)) -> Result<(), SpecError> {
    let cap = MAX_SEEDS.min((MAX_VERTICES + MAX_ARCS) / v.saturating_add(a).max(1));
    if seeds > cap {
        return Err(SpecError::at(
            line,
            format!(
                "seeds = {seeds} is over the sweep-width cap of {cap} \
                 for a run of up to {v} vertices and {a} arcs"
            ),
        ));
    }
    Ok(())
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

fn get_str<'a>(t: &'a TomlTable, key: &str) -> Result<Option<&'a str>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.as_str())),
        Some(v) => Err(SpecError::at(
            t.line,
            format!("[{}] {key} must be a string, got {}", t.name, v.type_name()),
        )),
    }
}

fn get_bool(t: &TomlTable, key: &str) -> Result<Option<bool>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(v) => Err(SpecError::at(
            t.line,
            format!(
                "[{}] {key} must be a boolean, got {}",
                t.name,
                v.type_name()
            ),
        )),
    }
}

fn get_usize_list(t: &TomlTable, key: &str) -> Result<Option<Vec<usize>>, SpecError> {
    let items = match t.get(key) {
        None => return Ok(None),
        Some(Value::List(items)) => items,
        Some(v) => {
            return Err(SpecError::at(
                t.line,
                format!("[{}] {key} must be an array, got {}", t.name, v.type_name()),
            ))
        }
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Int(v) if *v >= 0 => out.push(*v as usize),
            _ => {
                return Err(SpecError::at(
                    t.line,
                    format!("[{}] {key} must hold non-negative integers", t.name),
                ))
            }
        }
    }
    Ok(Some(out))
}

fn parse_model(s: &str, line: usize) -> Result<CostModel, SpecError> {
    match s {
        "sum" | "SUM" => Ok(CostModel::Sum),
        "max" | "MAX" => Ok(CostModel::Max),
        other => Err(SpecError::at(
            line,
            format!("unknown model {other:?} (sum|max)"),
        )),
    }
}

fn parse_rule(s: &str, line: usize) -> Result<ResponseRule, SpecError> {
    match s {
        "exact" => Ok(ResponseRule::ExactBest),
        "better" => Ok(ResponseRule::FirstImproving),
        "greedy" => Ok(ResponseRule::Greedy),
        "swap" => Ok(ResponseRule::BestSwap),
        other => Err(SpecError::at(
            line,
            format!("unknown rule {other:?} (exact|better|greedy|swap)"),
        )),
    }
}

fn parse_order(s: &str, line: usize) -> Result<PlayerOrder, SpecError> {
    match s {
        "rr" | "round-robin" => Ok(PlayerOrder::RoundRobin),
        "random" => Ok(PlayerOrder::RandomPermutation),
        other => Err(SpecError::at(
            line,
            format!("unknown order {other:?} (round-robin|random)"),
        )),
    }
}

fn check_keys(t: &TomlTable, allowed: &[&str]) -> Result<(), SpecError> {
    for k in t.keys() {
        if !allowed.contains(&k) {
            return Err(SpecError::at(
                t.line,
                format!(
                    "[{}] unknown key {k:?} (allowed: {})",
                    t.name,
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn parse_init(t: &TomlTable) -> Result<InitSpec, SpecError> {
    check_keys(t, &["family", "params", "budgets", "n", "budget", "arcs"])?;
    let family = get_str(t, "family")?
        .ok_or_else(|| SpecError::at(t.line, "[init] requires family = \"...\""))?;
    match family {
        "inline" => {
            let n = get_usize(t, "n")?
                .ok_or_else(|| SpecError::at(t.line, "[init] inline requires n"))?;
            let raw = match t.get("arcs") {
                Some(Value::List(items)) => items,
                _ => {
                    return Err(SpecError::at(
                        t.line,
                        "[init] inline requires arcs = [[u, v], …]",
                    ))
                }
            };
            let mut arcs = Vec::with_capacity(raw.len());
            // A hash set keeps the duplicate check linear in the arc
            // count: serve parses posted specs on its event-loop thread.
            let mut seen = HashSet::with_capacity(raw.len());
            for item in raw {
                match item {
                    Value::List(pair) => match pair.as_slice() {
                        [Value::Int(u), Value::Int(v)] if *u >= 0 && *v >= 0 => {
                            let (u, v) = (*u as usize, *v as usize);
                            if u >= n || v >= n || u == v || !seen.insert((u, v)) {
                                return Err(SpecError::at(
                                    t.line,
                                    format!("[init] invalid arc [{u}, {v}]"),
                                ));
                            }
                            arcs.push((u, v));
                        }
                        _ => {
                            return Err(SpecError::at(t.line, "[init] arcs entries must be [u, v]"))
                        }
                    },
                    _ => return Err(SpecError::at(t.line, "[init] arcs entries must be [u, v]")),
                }
            }
            Ok(InitSpec::Inline { n, arcs })
        }
        "uniform" => {
            // Shorthand: uniform random realization of n equal budgets.
            let n = get_usize(t, "n")?
                .ok_or_else(|| SpecError::at(t.line, "[init] uniform requires n"))?;
            let b = get_usize(t, "budget")?
                .ok_or_else(|| SpecError::at(t.line, "[init] uniform requires budget"))?;
            if n > 0 && b >= n {
                return Err(SpecError::at(
                    t.line,
                    format!("[init] budget {b} ≥ n = {n}"),
                ));
            }
            // Before the n-entry budget vector is allocated.
            check_size(t.line, "[init]", (n, n.saturating_mul(b)))?;
            Ok(InitSpec::Family {
                family: "random".into(),
                params: vec![b; n],
            })
        }
        "random" => {
            let budgets = get_usize_list(t, "budgets")?
                .ok_or_else(|| SpecError::at(t.line, "[init] random requires budgets = [...]"))?;
            let n = budgets.len();
            if let Some(&b) = budgets.iter().find(|&&b| b >= n.max(1)) {
                return Err(SpecError::at(
                    t.line,
                    format!("[init] budget {b} ≥ n = {n}"),
                ));
            }
            family_size("random", &budgets)
                .map_err(|e| SpecError::at(t.line, format!("[init] {e}")))?;
            Ok(InitSpec::Family {
                family: "random".into(),
                params: budgets,
            })
        }
        name => {
            let known = bbncg_graph::generators::FAMILIES
                .iter()
                .any(|&(f, _, _)| f == name);
            if !known {
                return Err(SpecError::at(
                    t.line,
                    format!("[init] unknown family {name:?}"),
                ));
            }
            let params = get_usize_list(t, "params")?
                .ok_or_else(|| SpecError::at(t.line, "[init] requires params = [...]"))?;
            // Arity, value constraints (cycle n ≥ 2, prefattach n > m,
            // …) and the size caps fail at `validate` time with a line
            // number, not at `run` time: `family_size` errors exactly
            // where the seeded `from_name` build would, and builds
            // nothing.
            family_size(name, &params).map_err(|e| SpecError::at(t.line, format!("[init] {e}")))?;
            Ok(InitSpec::Family {
                family: name.to_string(),
                params,
            })
        }
    }
}

fn parse_phase(t: &TomlTable) -> Result<PhaseSpec, SpecError> {
    let kind = get_str(t, "kind")?
        .ok_or_else(|| SpecError::at(t.line, "[[phase]] requires kind = \"...\""))?;
    match kind {
        "dynamics" => {
            check_keys(t, &["kind", "rounds", "model", "rule", "order"])?;
            Ok(PhaseSpec::Dynamics {
                rounds: get_usize(t, "rounds")?,
                model: get_str(t, "model")?
                    .map(|s| parse_model(s, t.line))
                    .transpose()?,
                rule: get_str(t, "rule")?
                    .map(|s| parse_rule(s, t.line))
                    .transpose()?,
                order: get_str(t, "order")?
                    .map(|s| parse_order(s, t.line))
                    .transpose()?,
            })
        }
        "arrive" => {
            check_keys(t, &["kind", "count", "budget"])?;
            Ok(PhaseSpec::Arrive {
                count: get_usize(t, "count")?.unwrap_or(1),
                budget: get_usize(t, "budget")?.unwrap_or(1),
            })
        }
        "depart" => {
            check_keys(t, &["kind", "nodes", "count"])?;
            let nodes = get_usize_list(t, "nodes")?.unwrap_or_default();
            let count = get_usize(t, "count")?.unwrap_or(1);
            if nodes.is_empty() && count == 0 {
                return Err(SpecError::at(
                    t.line,
                    "[[phase]] depart needs nodes or count",
                ));
            }
            Ok(PhaseSpec::Depart { nodes, count })
        }
        "budget-shock" => {
            check_keys(t, &["kind", "nodes", "count", "delta"])?;
            let delta = get_int(t, "delta")?
                .ok_or_else(|| SpecError::at(t.line, "[[phase]] budget-shock requires delta"))?;
            if delta == 0 {
                return Err(SpecError::at(
                    t.line,
                    "[[phase]] budget-shock delta must be non-zero",
                ));
            }
            Ok(PhaseSpec::BudgetShock {
                nodes: get_usize_list(t, "nodes")?.unwrap_or_default(),
                count: get_usize(t, "count")?.unwrap_or(1),
                delta,
            })
        }
        "delete-edges" => {
            check_keys(t, &["kind", "count", "adversarial"])?;
            Ok(PhaseSpec::DeleteEdges {
                count: get_usize(t, "count")?.unwrap_or(1),
                adversarial: get_bool(t, "adversarial")?.unwrap_or(true),
            })
        }
        "reorient" => {
            check_keys(t, &["kind", "seed"])?;
            Ok(PhaseSpec::Reorient {
                seed: get_usize(t, "seed")?.map(|s| s as u64),
            })
        }
        other => Err(SpecError::at(
            t.line,
            format!(
                "unknown phase kind {other:?} \
                 (dynamics|arrive|depart|budget-shock|delete-edges|reorient)"
            ),
        )),
    }
}

/// Parse and validate a scenario spec from TOML-subset source text.
pub fn parse_spec(text: &str) -> Result<ScenarioSpec, SpecError> {
    let doc = toml::parse(text)?;
    if !doc.root.entries.is_empty() {
        return Err(SpecError::at(
            doc.root.entries.first().map(|_| 1).unwrap_or(0),
            "keys must live inside a section ([scenario], [init], [dynamics], [[phase]])",
        ));
    }
    for s in &doc.sections {
        if !matches!(
            s.name.as_str(),
            "scenario" | "init" | "dynamics" | "obs" | "phase"
        ) {
            return Err(SpecError::at(
                s.line,
                format!("unknown section [{}]", s.name),
            ));
        }
        if (s.name == "phase") != s.is_array {
            return Err(SpecError::at(
                s.line,
                format!(
                    "[{}] must be written as {}",
                    s.name,
                    if s.name == "phase" {
                        "[[phase]]"
                    } else {
                        "a plain [section]"
                    }
                ),
            ));
        }
    }

    let empty = TomlTable::default();
    let sc = doc.section("scenario").unwrap_or(&empty);
    check_keys(sc, &["name", "seed", "seeds"])?;
    let name = get_str(sc, "name")?.unwrap_or("unnamed").to_string();
    let seed = get_usize(sc, "seed")?.unwrap_or(0) as u64;
    let seeds = get_usize(sc, "seeds")?.unwrap_or(1).max(1);

    let init_table = doc
        .section("init")
        .ok_or_else(|| SpecError::at(0, "missing [init] section"))?;
    let init = parse_init(init_table)?;

    let dy = doc.section("dynamics").unwrap_or(&empty);
    check_keys(
        dy,
        &[
            "model",
            "rule",
            "order",
            "max_rounds",
            "variant",
            "kernel",
            "rounds",
        ],
    )?;
    let defaults = DynamicsConfig {
        model: get_str(dy, "model")?
            .map(|s| parse_model(s, dy.line))
            .transpose()?
            .unwrap_or(CostModel::Sum),
        rule: get_str(dy, "rule")?
            .map(|s| parse_rule(s, dy.line))
            .transpose()?
            .unwrap_or(ResponseRule::ExactBest),
        order: get_str(dy, "order")?
            .map(|s| parse_order(s, dy.line))
            .transpose()?
            .unwrap_or(PlayerOrder::RoundRobin),
        max_rounds: get_usize(dy, "max_rounds")?.unwrap_or(300),
        // `[dynamics] rounds = "sequential"|"sharded"|"auto"` picks
        // the round executor (the legacy "speculative" parses to
        // sharded). Executors are step-identical, so this —
        // like `kernel` — is purely a throughput knob: records,
        // checkpoints and resumes are executor-independent at any
        // thread count.
        executor: match get_str(dy, "rounds")? {
            None => RoundExecutor::Auto,
            Some(s) => RoundExecutor::parse(s).map_err(|e| SpecError::at(dy.line, e))?,
        },
    };
    let kernel = match get_str(dy, "kernel")? {
        None => CostKernel::Auto,
        Some(s) => CostKernel::parse(s).map_err(|e| SpecError::at(dy.line, e))?,
    };
    let variant = match get_str(dy, "variant")?.unwrap_or("undirected") {
        "undirected" => Variant::Undirected,
        "directed" => Variant::Directed,
        other => {
            return Err(SpecError::at(
                dy.line,
                format!("unknown variant {other:?} (undirected|directed)"),
            ))
        }
    };

    // `[obs]` opts the run into the process-wide metrics registry.
    // The bare section means on; `metrics = false` keeps a section
    // around (say, commented-out keys) without enabling.
    let obs = match doc.section("obs") {
        None => false,
        Some(ob) => {
            check_keys(ob, &["metrics"])?;
            get_bool(ob, "metrics")?.unwrap_or(true)
        }
    };

    let phase_tables: Vec<&TomlTable> = doc.array_sections("phase").collect();
    let phases: Vec<PhaseSpec> = phase_tables
        .iter()
        .map(|t| parse_phase(t))
        .collect::<Result<_, _>>()?;
    if phases.is_empty() {
        return Err(SpecError::at(0, "scenario has no [[phase]] entries"));
    }

    // Bound what a run can grow to before anything is allocated: the
    // initial profile, then every arrival and budget grant, then the
    // sweep that keeps one final state per seed.
    let mut peak = init_size(&init);
    check_size(init_table.line, "[init]", peak)?;
    for (t, phase) in phase_tables.iter().zip(&phases) {
        peak = grow(peak, phase);
        check_size(t.line, &format!("[[phase]] {}", phase.kind()), peak)?;
    }
    check_sweep(sc.line, seeds, peak)?;
    check_kernel(dy.line, kernel, peak)?;
    check_exact_searches(
        &init,
        init_table.line,
        &phases,
        &phase_tables,
        &defaults,
        variant,
    )?;

    Ok(ScenarioSpec {
        name,
        seed,
        seeds,
        init,
        defaults,
        kernel,
        variant,
        phases,
        obs,
        spec_hash: fnv1a(text.as_bytes()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: &str = r#"
[scenario]
name = "churn"
seed = 7
seeds = 2

[init]
family = "random"
budgets = [1, 1, 1, 1, 1, 1]

[dynamics]
model = "sum"
rule = "exact"
max_rounds = 200

[[phase]]
kind = "dynamics"

[[phase]]
kind = "arrive"
count = 2
budget = 1

[[phase]]
kind = "dynamics"
rounds = 50
"#;

    /// An inline n = 40 ring in which player 0 also owns the arcs to
    /// `1..=b`, under `rule`, with `extra` phases after the dynamics.
    fn hub_spec(b: usize, rule: &str, extra: &str) -> String {
        let mut arcs: Vec<String> = (1..=b).map(|v| format!("[0, {v}]")).collect();
        arcs.extend((1..40).map(|v| format!("[{v}, {}]", (v + 1) % 40)));
        format!(
            "[init]\nfamily = \"inline\"\nn = 40\narcs = [{}]\n[dynamics]\nrule = \"{rule}\"\n\
             [[phase]]\nkind = \"dynamics\"\n{extra}",
            arcs.join(", ")
        )
    }

    #[test]
    fn refuses_players_the_exact_search_cannot_price() {
        // C(39, 20) ≈ 6.9·10¹⁰ candidates, under either enumerating rule.
        for rule in ["exact", "better"] {
            let e = parse_spec(&hub_spec(20, rule, "")).unwrap_err();
            assert_eq!(e.line, 1, "{e}");
            assert!(
                e.msg.contains("player 0 owns 20 arcs among 40 vertices"),
                "{e}"
            );
            assert!(e.msg.contains("68923264410 candidates"), "{e}");
        }
        // C(39, 7) ≈ 1.5·10⁷ is under the cap; the swap and greedy
        // rules never enumerate.
        parse_spec(&hub_spec(7, "exact", "")).unwrap();
        parse_spec(&hub_spec(20, "swap", "")).unwrap();
        parse_spec(&hub_spec(20, "greedy", "")).unwrap();
        // A later phase that searches exactly is enough; so is the
        // directed variant, which always does.
        let later = "[[phase]]\nkind = \"dynamics\"\nrule = \"exact\"\n";
        assert!(parse_spec(&hub_spec(20, "swap", later)).is_err());
        let directed = hub_spec(20, "swap", "")
            .replace("[dynamics]\n", "[dynamics]\nvariant = \"directed\"\n");
        assert!(parse_spec(&directed).is_err());
        // A random budget vector names its player too.
        let mut budgets = vec!["1"; 40];
        budgets[3] = "25";
        let random = format!(
            "[init]\nfamily = \"random\"\nbudgets = [{}]\n[[phase]]\nkind = \"dynamics\"\n",
            budgets.join(", ")
        );
        let e = parse_spec(&random).unwrap_err();
        assert!(e.msg.contains("player 3 owns 25 arcs"), "{e}");
    }

    #[test]
    fn refuses_arrivals_the_exact_search_cannot_price() {
        let arrive = |budget: usize, after: &str| {
            format!(
                "[init]\nfamily = \"uniform\"\nn = 30\nbudget = 1\n[dynamics]\nrule = \"swap\"\n\
                 [[phase]]\nkind = \"arrive\"\ncount = 10\nbudget = {budget}\n\
                 [[phase]]\nkind = \"dynamics\"\nrule = \"{after}\"\n"
            )
        };
        let e = parse_spec(&arrive(20, "exact")).unwrap_err();
        assert_eq!(e.line, 7, "{e}");
        assert!(
            e.msg
                .contains("each arrival owns 20 arcs among 40 vertices"),
            "{e}"
        );
        parse_spec(&arrive(20, "swap")).unwrap();
        parse_spec(&arrive(3, "exact")).unwrap();
    }

    #[test]
    fn parses_a_full_spec() {
        let spec = parse_spec(CHURN).unwrap();
        assert_eq!(spec.name, "churn");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.seeds, 2);
        assert_eq!(spec.phases.len(), 3);
        assert_eq!(spec.defaults.max_rounds, 200);
        assert_eq!(spec.phases[0].kind(), "dynamics");
        assert_eq!(
            spec.phases[1],
            PhaseSpec::Arrive {
                count: 2,
                budget: 1
            }
        );
        match &spec.phases[2] {
            PhaseSpec::Dynamics { rounds, .. } => assert_eq!(*rounds, Some(50)),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            spec.init,
            InitSpec::Family {
                family: "random".into(),
                params: vec![1; 6]
            }
        );
    }

    #[test]
    fn kernel_field_parses_and_defaults() {
        let spec = parse_spec(CHURN).unwrap();
        assert_eq!(spec.kernel, CostKernel::Auto);
        for (label, want) in [
            ("queue", CostKernel::Auto),
            ("bitset", CostKernel::Bitset),
            ("sparse", CostKernel::Sparse),
            ("auto", CostKernel::Auto),
        ] {
            let text = format!(
                "[init]\nfamily = \"path\"\nparams = [4]\n[dynamics]\nkernel = \"{label}\"\n\
                 [[phase]]\nkind = \"dynamics\""
            );
            assert_eq!(parse_spec(&text).unwrap().kernel, want, "{label}");
        }
        let bad = "[init]\nfamily = \"path\"\nparams = [4]\n[dynamics]\nkernel = \"warp\"\n\
                   [[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(bad).unwrap_err().to_string().contains("warp"));
    }

    #[test]
    fn rounds_field_parses_and_defaults() {
        use bbncg_core::RoundExecutor;
        let spec = parse_spec(CHURN).unwrap();
        assert_eq!(spec.defaults.executor, RoundExecutor::Auto);
        for (label, want) in [
            ("sequential", RoundExecutor::Sequential),
            ("sharded", RoundExecutor::Sharded),
            // The label of the executor sharding replaced.
            ("speculative", RoundExecutor::Sharded),
            ("auto", RoundExecutor::Auto),
        ] {
            let text = format!(
                "[init]\nfamily = \"path\"\nparams = [4]\n[dynamics]\nrounds = \"{label}\"\n\
                 [[phase]]\nkind = \"dynamics\""
            );
            assert_eq!(
                parse_spec(&text).unwrap().defaults.executor,
                want,
                "{label}"
            );
        }
        let bad = "[init]\nfamily = \"path\"\nparams = [4]\n[dynamics]\nrounds = \"warp\"\n\
                   [[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(bad).unwrap_err().to_string().contains("warp"));
    }

    #[test]
    fn obs_section_parses_and_defaults() {
        assert!(!parse_spec(CHURN).unwrap().obs);
        let base = "[init]\nfamily = \"path\"\nparams = [4]\n";
        let on = format!("{base}[obs]\n[[phase]]\nkind = \"dynamics\"");
        assert!(parse_spec(&on).unwrap().obs);
        let explicit = format!("{base}[obs]\nmetrics = true\n[[phase]]\nkind = \"dynamics\"");
        assert!(parse_spec(&explicit).unwrap().obs);
        let off = format!("{base}[obs]\nmetrics = false\n[[phase]]\nkind = \"dynamics\"");
        assert!(!parse_spec(&off).unwrap().obs);
        let bad = format!("{base}[obs]\ntracing = 1\n[[phase]]\nkind = \"dynamics\"");
        assert!(parse_spec(&bad)
            .unwrap_err()
            .to_string()
            .contains("tracing"));
    }

    #[test]
    fn uniform_shorthand_expands() {
        let spec = parse_spec(
            "[init]\nfamily = \"uniform\"\nn = 4\nbudget = 1\n[[phase]]\nkind = \"dynamics\"",
        )
        .unwrap();
        assert_eq!(
            spec.init,
            InitSpec::Family {
                family: "random".into(),
                params: vec![1; 4]
            }
        );
    }

    #[test]
    fn inline_init_and_named_families() {
        let spec = parse_spec(
            "[init]\nfamily = \"inline\"\nn = 3\narcs = [[0, 1], [1, 2]]\n[[phase]]\nkind = \"reorient\"",
        )
        .unwrap();
        assert_eq!(
            spec.init,
            InitSpec::Inline {
                n: 3,
                arcs: vec![(0, 1), (1, 2)]
            }
        );
        let spec =
            parse_spec("[init]\nfamily = \"spider\"\nparams = [4]\n[[phase]]\nkind = \"dynamics\"")
                .unwrap();
        assert!(matches!(spec.init, InitSpec::Family { ref family, .. } if family == "spider"));
    }

    #[test]
    fn rejects_bad_specs_with_reasons() {
        let no_init = "[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(no_init)
            .unwrap_err()
            .to_string()
            .contains("[init]"));
        let no_phase = "[init]\nfamily = \"path\"\nparams = [4]";
        assert!(parse_spec(no_phase)
            .unwrap_err()
            .to_string()
            .contains("phase"));
        let bad_kind = "[init]\nfamily = \"path\"\nparams = [4]\n[[phase]]\nkind = \"explode\"";
        assert!(parse_spec(bad_kind)
            .unwrap_err()
            .to_string()
            .contains("explode"));
        let bad_family =
            "[init]\nfamily = \"moebius\"\nparams = [4]\n[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(bad_family)
            .unwrap_err()
            .to_string()
            .contains("moebius"));
        // Value/arity constraints of known families fail at parse time
        // (so `scenario validate` catches what `scenario run` would hit).
        let bad_params = "[init]\nfamily = \"cycle\"\nparams = [1]\n[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(bad_params)
            .unwrap_err()
            .to_string()
            .contains("at least 2"));
        let bad_arity =
            "[init]\nfamily = \"path\"\nparams = [2, 3]\n[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(bad_arity)
            .unwrap_err()
            .to_string()
            .contains("parameter"));
        let bad_pa =
            "[init]\nfamily = \"prefattach\"\nparams = [2, 5]\n[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(bad_pa)
            .unwrap_err()
            .to_string()
            .contains("n > m"));
        let big_budget =
            "[init]\nfamily = \"random\"\nbudgets = [9, 9]\n[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(big_budget)
            .unwrap_err()
            .to_string()
            .contains("≥"));
        let unknown_key =
            "[init]\nfamily = \"path\"\nparams = [4]\nwat = 1\n[[phase]]\nkind = \"dynamics\"";
        assert!(parse_spec(unknown_key)
            .unwrap_err()
            .to_string()
            .contains("wat"));
        let zero_delta = "[init]\nfamily = \"path\"\nparams = [4]\n[[phase]]\nkind = \"budget-shock\"\ndelta = 0";
        assert!(parse_spec(zero_delta)
            .unwrap_err()
            .to_string()
            .contains("non-zero"));
        let plain_phase = "[init]\nfamily = \"path\"\nparams = [4]\n[phase]\nkind = \"dynamics\"";
        assert!(parse_spec(plain_phase)
            .unwrap_err()
            .to_string()
            .contains("[[phase]]"));
    }

    #[test]
    fn spec_hash_pins_the_source_text() {
        let a = parse_spec(CHURN).unwrap();
        let b = parse_spec(CHURN).unwrap();
        assert_eq!(a.spec_hash, b.spec_hash);
        let edited = CHURN.replace("seed = 7", "seed = 8");
        assert_ne!(parse_spec(&edited).unwrap().spec_hash, a.spec_hash);
    }
}
