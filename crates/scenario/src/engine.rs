//! The scenario orchestrator: timeline execution, seed sweeps,
//! checkpoint/resume.
//!
//! A run is a fold over the spec's phase timeline: dynamics phases
//! advance the profile through the core engine (one
//! [`DeviationScratch`] for the whole run, resynced by diffing at every
//! phase boundary), perturbation events rewrite the world, and every
//! phase emits one [`MetricRecord`](crate::MetricRecord) into the sink.
//! All randomness flows through a single `StdRng` seeded per run, so a
//! `(spec, seed)` pair names a unique trajectory — and freezing
//! `(state, rng state, next phase)` in a [`Checkpoint`] lets a killed
//! run resume bit-identically.

use crate::events;
use crate::sink::{MemorySink, MetricRecord, MetricSink, SeedReorderer};
use crate::spec::{fnv1a, InitSpec, PhaseSpec, ScenarioSpec, Variant};
use bbncg_core::dynamics::{run_dynamics_with_scratch_cancellable, DynamicsConfig};
use bbncg_core::{
    parse_snapshot, write_snapshot, CancelToken, CostKernel, DeviationScratch, Realization,
    RoundExecutor, Snapshot,
};
use bbncg_directed::{run_directed_dynamics, DirectedRealization};
use bbncg_graph::{generators, OwnedDigraph};
use bbncg_obs::{Counter, Histogram};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;

/// Stable hash of a profile: FNV-1a over `n` and the arc list in owner
/// order. Platform- and version-stable, unlike `DefaultHasher`.
pub fn state_hash(r: &Realization) -> u64 {
    let mut bytes = Vec::with_capacity(8 + 16 * r.graph().total_arcs());
    bytes.extend_from_slice(&(r.n() as u64).to_le_bytes());
    for (u, v) in r.graph().arcs() {
        bytes.extend_from_slice(&(u.index() as u64).to_le_bytes());
        bytes.extend_from_slice(&(v.index() as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

/// A frozen mid-scenario run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Scenario name (for humans; not validated).
    pub scenario: String,
    /// Hash of the spec source this run was started from; resume
    /// refuses a mismatch.
    pub spec_hash: u64,
    /// The run's seed.
    pub seed: u64,
    /// Index of the next phase to execute.
    pub next_phase: usize,
    /// Cumulative applied deviations so far.
    pub steps: usize,
    /// Cumulative dynamics rounds so far.
    pub rounds: usize,
    /// Last dynamics phase so far: did it converge? (Carried so a
    /// resumed run's summary record matches the uninterrupted one even
    /// when no dynamics phase runs after the checkpoint.)
    pub converged: Option<bool>,
    /// Last dynamics phase so far: was a cycle proven?
    pub cycled: Option<bool>,
    /// Cost kernel the run was priced with. Recorded for
    /// observability; kernels are move-for-move equivalent, so resuming
    /// under a different kernel continues the identical trajectory.
    pub kernel: CostKernel,
    /// Round executor the run's dynamics phases used. Recorded for
    /// observability; executors are step-identical, so resuming under
    /// a different one continues the identical trajectory.
    pub executor: RoundExecutor,
    /// Exact RNG stream position.
    pub rng_state: [u64; 4],
    /// The frozen profile.
    pub state: Realization,
}

impl Checkpoint {
    /// Serialize via the `bbncg_core::io` snapshot format.
    pub fn to_text(&self) -> String {
        write_snapshot(&Snapshot {
            realization: self.state.clone(),
            rng_state: self.rng_state,
            meta: vec![
                ("scenario".into(), self.scenario.clone()),
                ("spec-hash".into(), format!("{:016x}", self.spec_hash)),
                ("seed".into(), self.seed.to_string()),
                ("next-phase".into(), self.next_phase.to_string()),
                ("steps".into(), self.steps.to_string()),
                ("rounds".into(), self.rounds.to_string()),
                ("converged".into(), tristate_str(self.converged).into()),
                ("cycled".into(), tristate_str(self.cycled).into()),
                ("kernel".into(), self.kernel.label().into()),
                ("executor".into(), self.executor.label().into()),
            ],
        })
    }

    /// Parse a checkpoint written by [`Checkpoint::to_text`].
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let snap = parse_snapshot(text).map_err(|e| format!("bad checkpoint: {e}"))?;
        let get = |key: &str| -> Result<String, String> {
            snap.meta
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("checkpoint is missing meta key {key:?}"))
        };
        let num = |key: &str| -> Result<usize, String> {
            get(key)?
                .parse()
                .map_err(|e| format!("checkpoint meta {key}: {e}"))
        };
        Ok(Checkpoint {
            scenario: get("scenario")?,
            spec_hash: u64::from_str_radix(&get("spec-hash")?, 16)
                .map_err(|e| format!("checkpoint meta spec-hash: {e}"))?,
            seed: num("seed")? as u64,
            next_phase: num("next-phase")?,
            steps: num("steps")?,
            rounds: num("rounds")?,
            converged: tristate_parse(&get("converged")?)?,
            cycled: tristate_parse(&get("cycled")?)?,
            // Absent in pre-kernel checkpoints; the default is the
            // behaviour they were written under.
            kernel: match snap.meta.iter().find(|(k, _)| k == "kernel") {
                None => CostKernel::Auto,
                Some((_, v)) => CostKernel::parse(v)?,
            },
            // Absent in pre-executor checkpoints; Auto is the
            // behaviour they were written under. Checkpoints written
            // before sharding carry "speculative", which parses to
            // the sharded executor.
            executor: match snap.meta.iter().find(|(k, _)| k == "executor") {
                None => RoundExecutor::Auto,
                Some((_, v)) => RoundExecutor::parse(v)?,
            },
            rng_state: snap.rng_state,
            state: snap.realization,
        })
    }
}

fn tristate_str(v: Option<bool>) -> &'static str {
    match v {
        None => "none",
        Some(true) => "true",
        Some(false) => "false",
    }
}

fn tristate_parse(s: &str) -> Result<Option<bool>, String> {
    match s {
        "none" => Ok(None),
        "true" => Ok(Some(true)),
        "false" => Ok(Some(false)),
        other => Err(format!(
            "checkpoint meta flag: expected none|true|false, got {other:?}"
        )),
    }
}

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The run's seed.
    pub seed: u64,
    /// Did the run execute the whole timeline (vs `stop_after` or a
    /// fired [`CancelToken`])?
    pub completed: bool,
    /// Was the run stopped by a [`CancelToken`]? The outcome's
    /// `checkpoint` then freezes the last *completed* phase boundary
    /// (an in-flight dynamics phase is abandoned, never half-recorded),
    /// so resuming it replays the cancelled phase bit-identically.
    pub cancelled: bool,
    /// Phases executed across the run's whole life (resume included).
    pub phases_done: usize,
    /// Cumulative applied deviations.
    pub steps: usize,
    /// Cumulative dynamics rounds.
    pub rounds: usize,
    /// Last dynamics phase: did it converge?
    pub converged: Option<bool>,
    /// Last dynamics phase: was a best-response cycle proven?
    pub cycled: Option<bool>,
    /// Final profile.
    pub state: Realization,
    /// [`state_hash`] of the final profile.
    pub state_hash: u64,
    /// Frozen continuation (useful when `completed` is false).
    pub checkpoint: Checkpoint,
}

fn build_init(spec: &ScenarioSpec, rng: &mut StdRng) -> Result<Realization, String> {
    match &spec.init {
        // `parse_spec` dry-runs the registry, so this only fails if a
        // spec was constructed programmatically with bad parameters —
        // still a clean error, never a panic.
        InitSpec::Family { family, params } => Ok(Realization::new(
            generators::from_name(family, params, rng).map_err(|e| format!("init: {e}"))?,
        )),
        InitSpec::Inline { n, arcs } => Ok(Realization::new(OwnedDigraph::from_arcs(*n, arcs))),
    }
}

fn dynamics_config(spec: &ScenarioSpec, phase: &PhaseSpec) -> DynamicsConfig {
    let d = spec.defaults;
    match phase {
        PhaseSpec::Dynamics {
            rounds,
            model,
            rule,
            order,
        } => DynamicsConfig {
            model: model.unwrap_or(d.model),
            rule: rule.unwrap_or(d.rule),
            order: order.unwrap_or(d.order),
            max_rounds: rounds.unwrap_or(d.max_rounds),
            executor: d.executor,
        },
        _ => d,
    }
}

/// Run (or continue) one seed of a scenario.
///
/// * `from` — `None` starts fresh from `seed`; `Some(checkpoint)`
///   resumes bit-identically from the frozen position.
/// * `stop_after` — execute at most this many phases *in total* (the
///   checkpoint in the returned outcome continues from there); `None`
///   runs the whole timeline.
/// * `on_phase_end` — called with a fresh checkpoint after every
///   executed phase (the crash-resume hook; pass `|_| ()` when unused).
///
/// Every executed phase emits one record into `sink`, plus a final
/// `kind = "summary"` record when the timeline completes.
pub fn run_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    from: Option<Checkpoint>,
    sink: &mut dyn MetricSink,
    stop_after: Option<usize>,
    mut on_phase_end: impl FnMut(&Checkpoint),
) -> Result<RunOutcome, String> {
    let mut scratch: Option<DeviationScratch> = None;
    run_scenario_with_engine(
        spec,
        seed,
        from,
        sink,
        stop_after,
        &mut on_phase_end,
        &mut scratch,
        &CancelToken::new(),
    )
}

/// [`run_scenario`] with a caller-owned (worker-local) deviation
/// engine slot and a [`CancelToken`].
///
/// The engine slot is what [`run_sweep`] threads through
/// `par_map_init` so a whole batch of seeds shares one engine arena
/// per worker — and what a long-running service threads through its
/// worker pool so consecutive *jobs* reuse the same arena (the slot is
/// filled on first dynamics phase and re-synced by diffing ever
/// after).
///
/// Cancellation is cooperative and phase-atomic: the token is polled
/// at every phase boundary and at every dynamics round. When it fires,
/// the run winds back to the last completed phase boundary (an
/// in-flight dynamics phase is abandoned — its partial record is never
/// emitted) and returns `Ok` with `cancelled = true`; the outcome's
/// checkpoint resumes bit-identically, exactly like a `stop_after`
/// stop at that phase.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_with_engine(
    spec: &ScenarioSpec,
    seed: u64,
    from: Option<Checkpoint>,
    sink: &mut dyn MetricSink,
    stop_after: Option<usize>,
    on_phase_end: &mut dyn FnMut(&Checkpoint),
    scratch: &mut Option<DeviationScratch>,
    cancel: &CancelToken,
) -> Result<RunOutcome, String> {
    if spec.obs {
        bbncg_obs::enable();
    }
    let seed_t0 = Instant::now();
    // A reused engine slot keeps its construction-time kernel. If this
    // run asks for a different one (a later job's `?kernel=` override,
    // say), drop the slot so the first dynamics phase rebuilds under
    // the requested kernel — otherwise the override would be silently
    // ignored. (Kernels are move-for-move equivalent, so this guards
    // throughput and observability, never the trajectory.)
    if scratch.as_ref().is_some_and(|s| s.kernel() != spec.kernel) {
        *scratch = None;
    }
    let (mut state, mut rng, start_phase, mut steps, mut rounds, mut converged, mut cycled) =
        match from {
            None => {
                let mut rng = StdRng::seed_from_u64(seed);
                let state = build_init(spec, &mut rng)?;
                (state, rng, 0usize, 0usize, 0usize, None, None)
            }
            Some(ck) => {
                if ck.spec_hash != spec.spec_hash {
                    return Err(format!(
                        "checkpoint was taken from a different spec \
                     (spec-hash {:016x}, current {:016x})",
                        ck.spec_hash, spec.spec_hash
                    ));
                }
                if ck.next_phase > spec.phases.len() {
                    return Err(format!(
                        "checkpoint next-phase {} exceeds timeline length {}",
                        ck.next_phase,
                        spec.phases.len()
                    ));
                }
                (
                    ck.state,
                    StdRng::from_state(ck.rng_state),
                    ck.next_phase,
                    ck.steps,
                    ck.rounds,
                    ck.converged,
                    ck.cycled,
                )
            }
        };

    let mut phases_done = start_phase;
    let mut completed = true;
    let mut cancelled = false;
    for (i, phase) in spec.phases.iter().enumerate().skip(start_phase) {
        if let Some(stop) = stop_after {
            if phases_done >= stop {
                completed = false;
                break;
            }
        }
        if cancel.is_cancelled() {
            completed = false;
            cancelled = true;
            break;
        }
        let phase_t0 = Instant::now();
        let phase_span = bbncg_obs::span("phase");
        let mut phase_steps = 0usize;
        let mut phase_rounds = 0usize;
        match phase {
            PhaseSpec::Dynamics { .. } => {
                let cfg = dynamics_config(spec, phase);
                match spec.variant {
                    Variant::Undirected => {
                        let engine = scratch.get_or_insert_with(|| {
                            DeviationScratch::with_kernel(&state, spec.kernel)
                        });
                        // Pre-phase snapshot: a mid-phase cancellation
                        // winds back here, so the outcome's checkpoint
                        // is always a phase boundary and resumes
                        // bit-identically.
                        let pre_state = state.clone();
                        let pre_rng = rng.state();
                        let report = run_dynamics_with_scratch_cancellable(
                            state, cfg, &mut rng, engine, cancel,
                        );
                        if report.cancelled {
                            state = pre_state;
                            rng = StdRng::from_state(pre_rng);
                            completed = false;
                            cancelled = true;
                            drop(
                                phase_span
                                    .field("scenario", &spec.name)
                                    .field("seed", seed)
                                    .field("phase", i)
                                    .field("kind", phase.kind())
                                    .field("cancelled", true),
                            );
                            break;
                        }
                        state = report.state;
                        phase_steps = report.steps;
                        phase_rounds = report.rounds;
                        converged = Some(report.converged);
                        cycled = Some(report.cycled);
                    }
                    Variant::Directed => {
                        let report = run_directed_dynamics(
                            DirectedRealization::new(state.graph().clone()),
                            cfg.max_rounds,
                        );
                        state = Realization::new(report.state.graph().clone());
                        phase_steps = report.steps;
                        phase_rounds = report.rounds;
                        converged = Some(report.converged);
                        cycled = Some(report.cycled);
                    }
                }
            }
            PhaseSpec::Arrive { count, budget } => {
                state = events::arrive(&state, *count, *budget, &mut rng);
            }
            PhaseSpec::Depart { nodes, count } => {
                let picked;
                let who: &[usize] = if nodes.is_empty() {
                    picked = events::pick_departures(&state, *count, &mut rng);
                    &picked
                } else {
                    nodes
                };
                state =
                    events::depart(&state, who, &mut rng).map_err(|e| format!("phase {i}: {e}"))?;
            }
            PhaseSpec::BudgetShock {
                nodes,
                count,
                delta,
            } => {
                let picked;
                let who: &[usize] = if nodes.is_empty() {
                    picked = events::pick_nodes(&state, *count, &mut rng);
                    &picked
                } else {
                    nodes
                };
                state = events::budget_shock(&state, who, *delta, &mut rng)
                    .map_err(|e| format!("phase {i}: {e}"))?;
            }
            PhaseSpec::DeleteEdges { count, adversarial } => {
                state = events::delete_edges(&state, *count, *adversarial, &mut rng);
            }
            PhaseSpec::Reorient { seed: reseed } => {
                let s: u64 = match reseed {
                    Some(s) => *s,
                    None => rng.gen(),
                };
                let mut event_rng = StdRng::seed_from_u64(s);
                state = events::reorient(&state, &mut event_rng);
            }
        }
        let phase_us = phase_t0.elapsed().as_micros() as u64;
        bbncg_obs::counter_inc(Counter::ScenarioPhases);
        bbncg_obs::observe(Histogram::PhaseMicros, phase_us);
        if !matches!(phase, PhaseSpec::Dynamics { .. }) {
            bbncg_obs::counter_inc(Counter::ScenarioEvents);
            bbncg_obs::observe(Histogram::EventMicros, phase_us);
        }
        drop(
            phase_span
                .field("scenario", &spec.name)
                .field("seed", seed)
                .field("phase", i)
                .field("kind", phase.kind())
                .field("steps", phase_steps)
                .field("rounds", phase_rounds),
        );
        steps += phase_steps;
        rounds += phase_rounds;
        phases_done = i + 1;
        sink.record(&MetricRecord {
            scenario: spec.name.clone(),
            seed,
            phase: i,
            kind: phase.kind(),
            n: state.n(),
            arcs: state.graph().total_arcs(),
            steps: phase_steps,
            rounds: phase_rounds,
            social_cost: state.social_diameter(),
            diameter: state.diameter(),
            converged: matches!(phase, PhaseSpec::Dynamics { .. })
                .then(|| converged.unwrap_or(false)),
            cycled: matches!(phase, PhaseSpec::Dynamics { .. }).then(|| cycled.unwrap_or(false)),
            state_hash: state_hash(&state),
        });
        let ck = Checkpoint {
            scenario: spec.name.clone(),
            spec_hash: spec.spec_hash,
            seed,
            next_phase: phases_done,
            steps,
            rounds,
            converged,
            cycled,
            kernel: spec.kernel,
            executor: spec.defaults.executor,
            rng_state: rng.state(),
            state: state.clone(),
        };
        on_phase_end(&ck);
    }

    let hash = state_hash(&state);
    if completed {
        sink.record(&MetricRecord {
            scenario: spec.name.clone(),
            seed,
            phase: spec.phases.len(),
            kind: "summary",
            n: state.n(),
            arcs: state.graph().total_arcs(),
            steps,
            rounds,
            social_cost: state.social_diameter(),
            diameter: state.diameter(),
            converged,
            cycled,
            state_hash: hash,
        });
    }
    sink.flush();
    let checkpoint = Checkpoint {
        scenario: spec.name.clone(),
        spec_hash: spec.spec_hash,
        seed,
        next_phase: phases_done,
        steps,
        rounds,
        converged,
        cycled,
        kernel: spec.kernel,
        executor: spec.defaults.executor,
        rng_state: rng.state(),
        state: state.clone(),
    };
    bbncg_obs::counter_inc(Counter::ScenarioSeeds);
    bbncg_obs::observe(Histogram::SeedMicros, seed_t0.elapsed().as_micros() as u64);
    Ok(RunOutcome {
        seed,
        completed,
        cancelled,
        phases_done,
        steps,
        rounds,
        converged,
        cycled,
        state,
        state_hash: hash,
        checkpoint,
    })
}

/// Run the spec's whole seed sweep (`spec.seeds` runs, seeds
/// `spec.seed + 0 .. spec.seed + seeds`) in parallel, one deviation
/// engine per worker. Records stream into `sink` in seed order (a
/// reorder buffer holds out-of-order completions until their turn — see
/// [`SeedReorderer`]); the returned outcomes are in seed order too, and
/// deterministic regardless of thread count. A seed whose timeline
/// fails (e.g. a departure list outliving its nodes) yields `Err` in
/// its slot without aborting the sweep.
pub fn run_sweep(
    spec: &ScenarioSpec,
    sink: &mut (dyn MetricSink + Send),
) -> Vec<Result<RunOutcome, String>> {
    run_sweep_cancellable(spec, sink, &CancelToken::new())
}

/// [`run_sweep`] with a [`CancelToken`] shared by every worker. When
/// the token fires, each in-flight seed winds back to its last
/// completed phase boundary and returns with `cancelled = true`
/// (seeds that already finished keep their complete record streams);
/// seeds not yet started return immediately as cancelled with zero
/// phases done. The record stream stays in seed order and every
/// emitted record is one a full run would also have emitted.
pub fn run_sweep_cancellable(
    spec: &ScenarioSpec,
    sink: &mut (dyn MetricSink + Send),
    cancel: &CancelToken,
) -> Vec<Result<RunOutcome, String>> {
    let seeds = spec.seeds;
    let reorder = Mutex::new(SeedReorderer::new(sink));
    bbncg_par::par_map_init(
        seeds,
        || None::<DeviationScratch>,
        |scratch, i| {
            let seed = spec.seed + i as u64;
            // Per-seed span from the sweep worker's point of view:
            // wall-time per slot is what worker-utilization analysis
            // of a sweep needs (SeedMicros gives the histogram).
            let sweep_span = bbncg_obs::span("sweep-seed")
                .field("scenario", &spec.name)
                .field("seed", seed);
            let mut local = MemorySink::default();
            let outcome = run_scenario_with_engine(
                spec,
                seed,
                None,
                &mut local,
                None,
                &mut |_| (),
                scratch,
                cancel,
            );
            reorder
                .lock()
                .expect("sweep sink poisoned")
                .push(i, local.records);
            drop(sweep_span);
            outcome
        },
    )
}
