//! Instance-size caps: a spec names the instance a run will allocate,
//! so `parse_spec` bounds the peak vertex count, the peak arc count
//! (Σ budgets over the initial profile and every arrival and budget
//! grant) and the sweep width before anything is allocated. Each
//! refusal is a line-numbered `SpecError`. The caps must still admit
//! every checked-in spec, loadgen's 256-seed churn sweep and an
//! n ≈ 10⁶ single run.

use bbncg_graph::generators::{MAX_ARCS, MAX_VERTICES};
use bbncg_scenario::spec::MAX_SEEDS;
use bbncg_scenario::{parse_spec, run_scenario, MemorySink};

fn uniform(n: usize, budget: usize, extra: &str) -> String {
    format!(
        "[scenario]\nseed = 1\n{extra}\n[init]\nfamily = \"uniform\"\nn = {n}\nbudget = {budget}\n\n[[phase]]\nkind = \"dynamics\"\n"
    )
}

#[test]
fn hostile_vertex_count_is_refused_before_allocating() {
    // 81 bytes that ask for an 80 GB budget vector.
    let text = "[init]\nfamily = \"uniform\"\nn = 10000000000\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n";
    let err = parse_spec(text).unwrap_err();
    assert_eq!(err.line, 1, "{err}");
    assert!(err.msg.contains("vertex cap"), "{err}");
}

#[test]
fn hostile_sweep_width_is_refused() {
    let err = parse_spec(&uniform(8, 1, "seeds = 1000000000000000")).unwrap_err();
    assert_eq!(err.line, 1, "{err}");
    assert!(err.msg.contains("sweep-width cap"), "{err}");
}

#[test]
fn btree_height_overflow_is_refused_not_wrapped() {
    let text = |h: usize| {
        format!("[init]\nfamily = \"btree\"\nparams = [{h}]\n\n[[phase]]\nkind = \"reorient\"\n")
    };
    let err = parse_spec(&text(70)).unwrap_err();
    assert_eq!(err.line, 1, "{err}");
    assert!(err.msg.contains("vertex cap"), "{err}");
    // Height 6 still builds its 127 vertices.
    let spec = parse_spec(&text(6)).unwrap();
    let out = run_scenario(&spec, 1, None, &mut MemorySink::default(), None, |_| ()).unwrap();
    assert_eq!(out.state.n(), 127);
}

#[test]
fn caps_admit_the_sizes_in_use() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let text = std::fs::read_to_string(&path).unwrap();
            parse_spec(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            checked += 1;
        }
    }
    assert!(checked >= 10, "found {checked} example specs");
    // README's n ≈ 10⁶, and loadgen's 256-seed churn sweep.
    parse_spec(&uniform(1_000_000, 1, "")).unwrap();
    let churn = std::fs::read_to_string(format!("{dir}/churn.toml")).unwrap();
    let sweep = parse_spec(&churn.replace("seed = 7", "seed = 7\nseeds = 256")).unwrap();
    assert_eq!(sweep.seeds, 256);
    sweep.check_sweep().unwrap();
}

#[test]
fn vertex_and_arc_caps_are_exact() {
    parse_spec(&uniform(MAX_VERTICES, 1, "")).unwrap();
    let err = parse_spec(&uniform(MAX_VERTICES + 1, 1, "")).unwrap_err();
    assert!(err.msg.contains("vertex cap"), "{err}");
    parse_spec(&uniform(MAX_ARCS / 8, 8, "")).unwrap();
    let err = parse_spec(&uniform(MAX_ARCS / 8 + 1, 8, "")).unwrap_err();
    assert!(err.msg.contains("arc cap"), "{err}");
}

#[test]
fn growth_over_the_timeline_is_bounded_at_the_phase_that_crosses() {
    // Arrivals add vertices: the second arrive (line 11) crosses.
    let half = MAX_VERTICES / 2;
    let text = format!(
        "[init]\nfamily = \"uniform\"\nn = 8\nbudget = 1\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = {half}\nbudget = 1\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = {half}\nbudget = 1\n"
    );
    let err = parse_spec(&text).unwrap_err();
    assert_eq!(err.line, 11, "{err}");
    assert!(err.msg.contains("[[phase]] arrive"), "{err}");
    assert!(err.msg.contains("vertex cap"), "{err}");

    // Budget grants add arcs (clamped to the vertex count per node).
    let text = |count: usize| {
        format!(
            "[init]\nfamily = \"uniform\"\nn = 4096\nbudget = 1\n\n\
             [[phase]]\nkind = \"budget-shock\"\ncount = {count}\ndelta = 1000000000\n"
        )
    };
    parse_spec(&text(2047)).unwrap();
    let err = parse_spec(&text(2048)).unwrap_err();
    assert_eq!(err.line, 6, "{err}");
    assert!(err.msg.contains("arc cap"), "{err}");
}

#[test]
fn sweep_width_cap_shrinks_with_the_instance() {
    parse_spec(&uniform(8, 1, &format!("seeds = {MAX_SEEDS}"))).unwrap();
    let err = parse_spec(&uniform(8, 1, &format!("seeds = {}", MAX_SEEDS + 1))).unwrap_err();
    assert!(err.msg.contains("sweep-width cap"), "{err}");
    // A sweep keeps each seed's final state: at n = 10⁶ (2·10⁶ vertices
    // and arcs) five seeds fit the budget of one maximal instance, six
    // do not.
    let cap = (MAX_VERTICES + MAX_ARCS) / 2_000_000;
    parse_spec(&uniform(1_000_000, 1, &format!("seeds = {cap}"))).unwrap();
    let err = parse_spec(&uniform(1_000_000, 1, &format!("seeds = {}", cap + 1))).unwrap_err();
    assert!(err.msg.contains(&format!("cap of {cap}")), "{err}");

    // An override after parsing (serve's `?seeds=`) re-checks.
    let mut spec = parse_spec(&uniform(8, 1, "")).unwrap();
    spec.seeds = MAX_SEEDS + 1;
    assert!(spec.check_sweep().is_err());
    spec.seeds = MAX_SEEDS;
    spec.check_sweep().unwrap();
}
