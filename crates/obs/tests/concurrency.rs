//! Registry concurrency and overflow pins.
//!
//! The sharded registry's whole claim is that per-thread shards plus
//! saturating aggregation lose nothing and wrap nothing: aggregated
//! reads must equal a serial oracle no matter how `par_map_init`
//! workers interleave, and counters must pin at `u64::MAX` instead of
//! wrapping.
//!
//! The registry is process-global, so every test here serializes on
//! one mutex and starts from `reset()`.

use bbncg_obs::{
    bucket_index, counter_add, counter_value, enable, histogram_snapshot, observe, reset, Counter,
    Histogram, NBUCKETS,
};
use proptest::prelude::*;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    enable();
    reset();
    guard
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Aggregated counter reads equal the serial saturating oracle
    /// under `par_map_init` workers applying an arbitrary op list in
    /// arbitrary interleavings.
    #[test]
    fn sharded_counters_match_serial_oracle(
        ops in proptest::collection::vec(
            (0usize..Counter::COUNT, 0u64..100_000), 1..800),
    ) {
        let _guard = serialized();
        bbncg_par::par_map_init(
            ops.len(),
            || (),
            |(), i| {
                let (c, delta) = ops[i];
                counter_add(Counter::ALL[c], delta);
            },
        );
        let mut oracle = [0u64; Counter::COUNT];
        for &(c, delta) in &ops {
            oracle[c] = oracle[c].saturating_add(delta);
        }
        for (c, want) in Counter::ALL.iter().zip(oracle) {
            prop_assert_eq!(counter_value(*c), want);
        }
    }

    /// Histogram bucket counts, sum, and count aggregate exactly
    /// across shards under `par_map_init` workers.
    #[test]
    fn sharded_histograms_match_serial_oracle(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..800),
    ) {
        let _guard = serialized();
        bbncg_par::par_map_init(
            values.len(),
            || (),
            |(), i| observe(Histogram::SeedMicros, values[i]),
        );
        let mut buckets = [0u64; NBUCKETS];
        let mut sum = 0u64;
        for &v in &values {
            buckets[bucket_index(v)] += 1;
            sum = sum.saturating_add(v);
        }
        let snap = histogram_snapshot(Histogram::SeedMicros);
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum(), sum);
        prop_assert_eq!(snap.buckets(), &buckets);
    }
}

/// Counters saturate at `u64::MAX` — repeated near-ceiling adds from
/// one thread never wrap.
#[test]
fn counter_overflow_saturates_single_thread() {
    let _guard = serialized();
    counter_add(Counter::DynamicsSteps, u64::MAX);
    counter_add(Counter::DynamicsSteps, u64::MAX);
    counter_add(Counter::DynamicsSteps, 1);
    assert_eq!(counter_value(Counter::DynamicsSteps), u64::MAX);
}

/// Saturation also holds across shards: many workers each adding huge
/// deltas aggregate to the pin, not a wrapped value.
#[test]
fn counter_overflow_saturates_across_workers() {
    let _guard = serialized();
    bbncg_par::par_map_init(
        64,
        || (),
        |(), _| counter_add(Counter::DynamicsRounds, u64::MAX / 2),
    );
    assert_eq!(counter_value(Counter::DynamicsRounds), u64::MAX);
}

/// Quantile extraction: a known value spread lands p50/p90/p99 in the
/// right power-of-two bucket bounds.
#[test]
fn quantiles_from_known_distribution() {
    let _guard = serialized();
    // 90 small values (bucket bound 1) and 10 large (bound 1023).
    for _ in 0..90 {
        observe(Histogram::PhaseMicros, 1);
    }
    for _ in 0..10 {
        observe(Histogram::PhaseMicros, 1000);
    }
    let snap = histogram_snapshot(Histogram::PhaseMicros);
    assert_eq!(snap.count(), 100);
    assert_eq!(snap.p50(), 1);
    assert_eq!(snap.p90(), 1);
    assert_eq!(snap.p99(), 1023);
    assert_eq!(snap.quantile(1.0), 1023);
}
