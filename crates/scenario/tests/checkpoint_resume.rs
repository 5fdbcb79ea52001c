//! The engine's two headline guarantees, asserted end-to-end:
//!
//! 1. **Seed determinism** — `(spec, seed)` names a unique trajectory:
//!    re-running emits identical metric records and final states.
//! 2. **Bit-identical resume** — stopping mid-scenario, freezing a
//!    [`Checkpoint`] through its text form, and resuming reproduces the
//!    exact final state hash (and the exact remaining records) of an
//!    uninterrupted run.

use bbncg_core::RoundExecutor;
use bbncg_scenario::{parse_spec, run_scenario, run_sweep, Checkpoint, MemorySink, ScenarioSpec};

/// A scenario exercising every phase kind, with enough randomness
/// (random init, random arrivals/departures/shocks, drawn reorient
/// seed, random-permutation dynamics) that any RNG drift would show.
const FULL: &str = r#"
[scenario]
name = "kitchen-sink"
seed = 42
seeds = 3

[init]
family = "random"
budgets = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]

[dynamics]
model = "sum"
rule = "exact"
max_rounds = 200

[[phase]]
kind = "dynamics"

[[phase]]
kind = "arrive"
count = 3
budget = 2

[[phase]]
kind = "dynamics"
order = "random"

[[phase]]
kind = "budget-shock"
count = 2
delta = 1

[[phase]]
kind = "delete-edges"
count = 2

[[phase]]
kind = "depart"
count = 2

[[phase]]
kind = "reorient"

[[phase]]
kind = "dynamics"
rule = "swap"
rounds = 300

# Trailing event after the last dynamics phase: a resume landing here
# must still report the persisted converged/cycled flags in its
# summary record (they ride in the checkpoint, not just in memory).
[[phase]]
kind = "arrive"
count = 1
budget = 1
"#;

fn spec() -> ScenarioSpec {
    parse_spec(FULL).unwrap()
}

#[test]
fn identical_seeds_give_identical_trajectories() {
    let spec = spec();
    let mut a = MemorySink::default();
    let mut b = MemorySink::default();
    let ra = run_scenario(&spec, 5, None, &mut a, None, |_| ()).unwrap();
    let rb = run_scenario(&spec, 5, None, &mut b, None, |_| ()).unwrap();
    assert_eq!(a.records, b.records);
    assert_eq!(ra.state, rb.state);
    assert_eq!(ra.state_hash, rb.state_hash);
    assert_eq!(ra.steps, rb.steps);
    // A different seed diverges (overwhelmingly likely for this spec).
    let mut c = MemorySink::default();
    let rc = run_scenario(&spec, 6, None, &mut c, None, |_| ()).unwrap();
    assert_ne!(ra.state_hash, rc.state_hash);
}

#[test]
fn resume_from_any_phase_matches_the_uninterrupted_run() {
    let spec = spec();
    let mut full_sink = MemorySink::default();
    let full = run_scenario(&spec, 9, None, &mut full_sink, None, |_| ()).unwrap();
    assert!(full.completed);
    assert_eq!(full.phases_done, spec.phases.len());

    for stop in 1..spec.phases.len() {
        // Run the first `stop` phases, freeze, thaw through the text
        // format, and finish the timeline.
        let mut head = MemorySink::default();
        let part = run_scenario(&spec, 9, None, &mut head, Some(stop), |_| ()).unwrap();
        assert!(!part.completed);
        assert_eq!(part.phases_done, stop);
        let frozen = part.checkpoint.to_text();
        let thawed = Checkpoint::from_text(&frozen).unwrap();
        assert_eq!(thawed, part.checkpoint);

        let mut tail = MemorySink::default();
        let resumed = run_scenario(&spec, 9, Some(thawed), &mut tail, None, |_| ()).unwrap();
        assert!(resumed.completed);
        assert_eq!(
            resumed.state_hash, full.state_hash,
            "resume after phase {stop} must reproduce the uninterrupted final hash"
        );
        assert_eq!(resumed.state, full.state);
        assert_eq!(
            resumed.steps, full.steps,
            "cumulative steps after phase {stop}"
        );
        // head records + tail records = the uninterrupted stream.
        let mut glued = head.records.clone();
        glued.extend(tail.records.iter().cloned());
        assert_eq!(glued, full_sink.records);
    }
}

#[test]
fn per_phase_checkpoints_resume_too() {
    // The crash-resume path: take the checkpoint handed to the
    // phase-end hook mid-run (not the returned one) and resume from it.
    let spec = spec();
    let full = run_scenario(&spec, 3, None, &mut MemorySink::default(), None, |_| ()).unwrap();
    let mut third: Option<Checkpoint> = None;
    run_scenario(&spec, 3, None, &mut MemorySink::default(), None, |ck| {
        if ck.next_phase == 3 {
            third = Some(ck.clone());
        }
    })
    .unwrap();
    let ck = third.expect("phase-end hook fired for phase 3");
    let resumed =
        run_scenario(&spec, 3, Some(ck), &mut MemorySink::default(), None, |_| ()).unwrap();
    assert_eq!(resumed.state_hash, full.state_hash);
}

#[test]
fn kernels_trace_identically_and_resume_across_kernels() {
    // The same timeline under each explicit kernel: records, final
    // states and hashes must be identical (kernels are move-for-move
    // equivalent), and a checkpoint frozen under one kernel must resume
    // bit-identically under the other.
    let mut specs = Vec::new();
    for kernel in ["queue", "bitset"] {
        let text = FULL.replace(
            "rule = \"exact\"",
            &format!("rule = \"exact\"\nkernel = \"{kernel}\""),
        );
        specs.push(parse_spec(&text).unwrap());
    }
    let (queue, bitset) = (&specs[0], &specs[1]);
    let mut qs = MemorySink::default();
    let mut bs = MemorySink::default();
    let rq = run_scenario(queue, 9, None, &mut qs, None, |_| ()).unwrap();
    let rb = run_scenario(bitset, 9, None, &mut bs, None, |_| ()).unwrap();
    assert_eq!(rq.state, rb.state, "kernels must trace identically");
    assert_eq!(rq.state_hash, rb.state_hash);
    assert_eq!(rq.steps, rb.steps);
    // Records differ only in the scenario identity baked into them
    // (spec hash is part of neither record, the name is the same).
    assert_eq!(qs.records, bs.records);

    // Freeze under queue, thaw, and finish under bitset. The spec-hash
    // differs across the two spec texts, so resume through a
    // hash-matching bitset copy of the frozen cursor.
    let part = run_scenario(queue, 9, None, &mut MemorySink::default(), Some(3), |_| ()).unwrap();
    assert_eq!(part.checkpoint.kernel.label(), "queue");
    let mut ck = Checkpoint::from_text(&part.checkpoint.to_text()).unwrap();
    assert_eq!(ck, part.checkpoint, "kernel survives the text roundtrip");
    ck.spec_hash = bitset.spec_hash;
    let resumed = run_scenario(
        bitset,
        9,
        Some(ck),
        &mut MemorySink::default(),
        None,
        |_| (),
    )
    .unwrap();
    assert_eq!(
        resumed.state_hash, rq.state_hash,
        "resume under the other kernel must land on the identical final hash"
    );
}

#[test]
fn pre_kernel_checkpoints_still_parse() {
    // Checkpoints written before the kernel field existed carry no
    // "kernel" meta key; parsing must default to auto, not fail.
    let spec = spec();
    let part = run_scenario(&spec, 2, None, &mut MemorySink::default(), Some(1), |_| ()).unwrap();
    let frozen = part.checkpoint.to_text();
    let stripped: String = frozen
        .lines()
        .filter(|l| !l.contains("kernel"))
        .collect::<Vec<_>>()
        .join("\n");
    let thawed = Checkpoint::from_text(&stripped).unwrap();
    assert_eq!(thawed.kernel.label(), "auto");
    assert_eq!(thawed.state, part.checkpoint.state);
}

#[test]
fn executors_trace_identically_and_checkpoint_meta_roundtrips() {
    // The same timeline under each explicit round executor: records,
    // final states and hashes must be identical (executors are
    // step-identical), the executor label survives the checkpoint text
    // roundtrip, and a pre-executor checkpoint (no "executor" meta
    // key) parses with the auto default — same policy as kernels.
    let mut specs = Vec::new();
    for mode in ["sequential", "sharded"] {
        let text = FULL.replace(
            "rule = \"exact\"",
            &format!("rule = \"exact\"\nrounds = \"{mode}\""),
        );
        specs.push(parse_spec(&text).unwrap());
    }
    let (seq, spe) = (&specs[0], &specs[1]);
    let mut ss = MemorySink::default();
    let mut ps = MemorySink::default();
    let rs = run_scenario(seq, 9, None, &mut ss, None, |_| ()).unwrap();
    let rp = run_scenario(spe, 9, None, &mut ps, None, |_| ()).unwrap();
    assert_eq!(rs.state, rp.state, "executors must trace identically");
    assert_eq!(rs.state_hash, rp.state_hash);
    assert_eq!(rs.steps, rp.steps);
    assert_eq!(ss.records, ps.records);

    // Freeze under sharded, thaw, and finish under sequential.
    let part = run_scenario(spe, 9, None, &mut MemorySink::default(), Some(3), |_| ()).unwrap();
    assert_eq!(part.checkpoint.executor.label(), "sharded");
    let mut ck = Checkpoint::from_text(&part.checkpoint.to_text()).unwrap();
    assert_eq!(ck, part.checkpoint, "executor survives the text roundtrip");
    ck.spec_hash = seq.spec_hash;
    let resumed = run_scenario(seq, 9, Some(ck), &mut MemorySink::default(), None, |_| ()).unwrap();
    assert_eq!(
        resumed.state_hash, rs.state_hash,
        "resume under the other executor must land on the identical final hash"
    );

    // Pre-executor checkpoints parse with the auto default.
    let stripped: String = part
        .checkpoint
        .to_text()
        .lines()
        .filter(|l| !l.contains("executor"))
        .collect::<Vec<_>>()
        .join("\n");
    let thawed = Checkpoint::from_text(&stripped).unwrap();
    assert_eq!(thawed.executor.label(), "auto");
    assert_eq!(thawed.state, part.checkpoint.state);
}

/// `FULL` under `rounds = "speculative"`, the label of the round
/// executor sharding replaced, stopped after phase 3 at seed 9: this
/// checkpoint text was written by that executor's version of the
/// engine, verbatim.
const SPECULATIVE_CHECKPOINT: &str = "bbncg-snapshot v1
rng 4939223505431783235 10359310932433379406 17159440232970425223 6801058228364551183
meta scenario kitchen-sink
meta spec-hash 30ccef686d5b6fa9
meta seed 9
meta next-phase 3
meta steps 11
meta rounds 4
meta converged true
meta cycled false
meta kernel auto
meta executor speculative
profile
bbncg v1
n 13
budgets 1 1 1 1 1 1 1 1 1 1 2 2 2
arcs
0 2
1 2
2 3
3 0
4 2
5 2
6 2
7 2
8 2
9 2
10 2
10 11
11 0
11 2
12 0
12 2
";

/// The final state hash the same version reached running that spec
/// and seed uninterrupted.
const SPECULATIVE_FINAL_HASH: u64 = 0x1432_7661_10b7_8429;

#[test]
fn pre_sharding_checkpoints_resume_to_identical_hashes() {
    let text = FULL.replace(
        "rule = \"exact\"",
        "rule = \"exact\"\nrounds = \"speculative\"",
    );
    let spec = parse_spec(&text).unwrap();
    assert_eq!(spec.defaults.executor, RoundExecutor::Sharded);
    let ck = Checkpoint::from_text(SPECULATIVE_CHECKPOINT).unwrap();
    assert_eq!(ck.executor, RoundExecutor::Sharded);
    assert_eq!(ck.spec_hash, spec.spec_hash);
    // Today's engine freezes the same state at the same point…
    let part = run_scenario(&spec, 9, None, &mut MemorySink::default(), Some(3), |_| ()).unwrap();
    assert_eq!(part.checkpoint.state, ck.state);
    assert_eq!(part.checkpoint.rng_state, ck.rng_state);
    assert_eq!(part.checkpoint.steps, ck.steps);
    // …and both the resumed and the uninterrupted run land on the old
    // version's final hash.
    let resumed =
        run_scenario(&spec, 9, Some(ck), &mut MemorySink::default(), None, |_| ()).unwrap();
    assert_eq!(resumed.state_hash, SPECULATIVE_FINAL_HASH);
    let full = run_scenario(&spec, 9, None, &mut MemorySink::default(), None, |_| ()).unwrap();
    assert_eq!(full.state_hash, SPECULATIVE_FINAL_HASH);
}

#[test]
fn resume_rejects_a_mismatched_spec() {
    let spec = spec();
    let part = run_scenario(&spec, 1, None, &mut MemorySink::default(), Some(2), |_| ()).unwrap();
    let edited = parse_spec(&FULL.replace("count = 3", "count = 4")).unwrap();
    let err = run_scenario(
        &edited,
        1,
        Some(part.checkpoint),
        &mut MemorySink::default(),
        None,
        |_| (),
    )
    .unwrap_err();
    assert!(err.contains("different spec"), "{err}");
}

#[test]
fn sweeps_are_deterministic_and_ordered() {
    let spec = spec();
    let mut a = MemorySink::default();
    let mut b = MemorySink::default();
    let ra = run_sweep(&spec, &mut a);
    let rb = run_sweep(&spec, &mut b);
    assert_eq!(ra.len(), 3);
    assert_eq!(a.records, b.records);
    for (x, y) in ra.iter().zip(&rb) {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        assert_eq!(x.state_hash, y.state_hash);
    }
    // Records arrive grouped by seed, seeds ascending.
    let seeds: Vec<u64> = a.records.iter().map(|r| r.seed).collect();
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    assert_eq!(seeds, sorted);
    // Sweep trajectories equal their single-run counterparts.
    let mut single = MemorySink::default();
    let one = run_scenario(&spec, 43, None, &mut single, None, |_| ()).unwrap();
    assert_eq!(one.state_hash, ra[1].as_ref().unwrap().state_hash);
}
