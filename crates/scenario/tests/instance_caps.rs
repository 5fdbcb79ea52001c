//! Instance-size caps: a spec names the instance a run will allocate,
//! so `parse_spec` bounds the peak vertex count, the peak arc count
//! (Σ budgets over the initial profile and every arrival and budget
//! grant), the sweep width and an explicit bitset kernel's bit matrix
//! before anything is allocated. Each refusal is a line-numbered
//! `SpecError`. The caps must still admit every checked-in spec, a
//! 256-seed churn sweep and an n ≈ 10⁶ single run. Inline arc lists
//! are checked for duplicates in time linear in their length.

use bbncg_core::CostKernel;
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
    // README's n ≈ 10⁶, and a 256-seed churn sweep.
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
    // Eight arcs per player: under the default exact rule such a player
    // faces C(n − 1, 8) candidates, which `parse_spec` refuses on its
    // own, so the arc cap is probed under the swap rule.
    let swap = |n: usize| {
        uniform(n, 8, "").replace("[[phase]]", "[dynamics]\nrule = \"swap\"\n\n[[phase]]")
    };
    parse_spec(&swap(MAX_ARCS / 8)).unwrap();
    let err = parse_spec(&swap(MAX_ARCS / 8 + 1)).unwrap_err();
    assert!(err.msg.contains("arc cap"), "{err}");
    let err = parse_spec(&uniform(MAX_ARCS / 8, 8, "")).unwrap_err();
    assert!(
        err.msg.contains("the exact search would enumerate"),
        "{err}"
    );
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

#[test]
fn explicit_bitset_kernel_is_capped_at_the_peak_vertex_count() {
    let cap = CostKernel::BITSET_MAX_N;
    let spec = |n: usize, kernel: &str, phases: &str| {
        format!(
            "[init]\nfamily = \"uniform\"\nn = {n}\nbudget = 1\n\n\
             [dynamics]\nkernel = \"{kernel}\"\n\n\
             [[phase]]\nkind = \"dynamics\"\n{phases}"
        )
    };
    parse_spec(&spec(cap, "bitset", "")).unwrap();
    let err = parse_spec(&spec(cap + 1, "bitset", "")).unwrap_err();
    assert_eq!(err.line, 6, "{err}");
    assert!(
        err.msg.contains("kernel bitset") && err.msg.contains("cap"),
        "{err}"
    );
    // Arrivals count: the matrix is rebuilt at the grown size.
    let arrive = "\n[[phase]]\nkind = \"arrive\"\ncount = 1\nbudget = 1\n";
    let err = parse_spec(&spec(cap, "bitset", arrive)).unwrap_err();
    assert_eq!(err.line, 6, "{err}");
    // Every other kernel runs at any size Auto could meet.
    for kernel in ["auto", "queue", "sparse"] {
        parse_spec(&spec(cap + 1, kernel, arrive)).unwrap();
    }

    // An override after parsing (serve's `?kernel=`, `--kernel`)
    // re-checks.
    let mut spec = parse_spec(&spec(cap + 1, "auto", "")).unwrap();
    spec.check_kernel().unwrap();
    spec.kernel = CostKernel::Bitset;
    let err = spec.check_kernel().unwrap_err();
    assert!(err.msg.contains("kernel bitset"), "{err}");
    spec.kernel = CostKernel::Sparse;
    spec.check_kernel().unwrap();
}

fn inline(n: usize, arcs: &[(usize, usize)]) -> String {
    let list: Vec<String> = arcs.iter().map(|(u, v)| format!("[{u}, {v}]")).collect();
    format!(
        "[init]\nfamily = \"inline\"\nn = {n}\narcs = [{}]\n\n[[phase]]\nkind = \"reorient\"\n",
        list.join(", ")
    )
}

#[test]
fn inline_arc_lists_reject_duplicates_anywhere() {
    // A duplicate far from its first occurrence, and the first bad arc
    // of several is the one reported.
    let mut arcs: Vec<(usize, usize)> = (1..200).map(|v| (0, v)).collect();
    arcs.push((5, 6));
    arcs.push((0, 150));
    arcs.push((7, 7));
    let err = parse_spec(&inline(200, &arcs)).unwrap_err();
    assert_eq!(err.line, 1, "{err}");
    assert_eq!(err.msg, "[init] invalid arc [0, 150]");
    // The reverse arc is a different arc (a brace), not a duplicate.
    parse_spec(&inline(3, &[(0, 1), (1, 0)])).unwrap();
    let err = parse_spec(&inline(3, &[(0, 1), (1, 0), (0, 1)])).unwrap_err();
    assert_eq!(err.msg, "[init] invalid arc [0, 1]");
}

#[test]
fn a_large_distinct_inline_arc_list_parses_in_order() {
    // 100 000 distinct arcs, a ~1 MB spec.
    let n = 1000;
    let arcs: Vec<(usize, usize)> = (0..100_000)
        .map(|i| (i % n, (i % n + 1 + i / n) % n))
        .collect();
    let spec = parse_spec(&inline(n, &arcs)).unwrap();
    match spec.init {
        bbncg_scenario::InitSpec::Inline {
            n: got_n,
            arcs: got,
        } => {
            assert_eq!(got_n, n);
            assert_eq!(got, arcs);
        }
        other => panic!("not inline: {other:?}"),
    }
}
