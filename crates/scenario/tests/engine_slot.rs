//! The caller-owned engine slot of `run_scenario_with_engine` is meant
//! to be reused across runs (a serve worker reuses it across *jobs*).
//! A reused slot must honour each run's kernel selection: if the slot
//! was built under a different kernel, it is rebuilt, not silently
//! kept — and since kernels are move-for-move equivalent, the records
//! must be identical either way.

use bbncg_core::{CancelToken, CostKernel};
use bbncg_scenario::{parse_spec, run_scenario_with_engine, MemorySink};

fn spec_with_kernel(kernel: &str) -> String {
    format!(
        "[scenario]\nname = \"slot\"\nseed = 9\n\n\
         [init]\nfamily = \"uniform\"\nn = 20\nbudget = 1\n\n\
         [dynamics]\nkernel = \"{kernel}\"\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = 2\nbudget = 1\n\n\
         [[phase]]\nkind = \"dynamics\"\n"
    )
}

#[test]
fn reused_slot_honours_each_runs_kernel() {
    let sparse_spec = parse_spec(&spec_with_kernel("sparse")).unwrap();
    let bitset_spec = parse_spec(&spec_with_kernel("bitset")).unwrap();
    let mut slot = None;
    let cancel = CancelToken::new();

    let mut a = MemorySink::default();
    run_scenario_with_engine(
        &sparse_spec,
        sparse_spec.seed,
        None,
        &mut a,
        None,
        &mut |_| (),
        &mut slot,
        &cancel,
    )
    .unwrap();
    assert_eq!(
        slot.as_ref().map(|s| s.kernel()),
        Some(CostKernel::Sparse),
        "first run fills the slot under its own kernel"
    );

    // Same slot, different kernel: the override must take effect, not
    // be silently ignored in favour of the leftover engine.
    let mut b = MemorySink::default();
    run_scenario_with_engine(
        &bitset_spec,
        bitset_spec.seed,
        None,
        &mut b,
        None,
        &mut |_| (),
        &mut slot,
        &cancel,
    )
    .unwrap();
    assert_eq!(
        slot.as_ref().map(|s| s.kernel()),
        Some(CostKernel::Bitset),
        "a later run's kernel selection must rebuild the slot"
    );

    // Kernel equivalence: the two runs' records differ only in the
    // spec hash's influence — here both specs describe the same world,
    // so every metric (including state hashes) matches line for line.
    let a_lines: Vec<String> = a.records.iter().map(|r| r.to_json()).collect();
    let b_lines: Vec<String> = b.records.iter().map(|r| r.to_json()).collect();
    assert_eq!(a_lines, b_lines);
}
