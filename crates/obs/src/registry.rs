//! The sharded metrics registry: a fixed catalogue of counters,
//! gauges, and histograms backed by static atomics.
//!
//! Design constraints (in priority order):
//!
//! 1. **Zero cost when off.** Every write goes through a single
//!    relaxed [`enabled`] load and returns immediately when
//!    observability has not been switched on. Nothing allocates,
//!    nothing locks, ever.
//! 2. **No hot-path contention when on.** Counter and histogram
//!    writes land in one of [`SHARDS`] cache-line-aligned shards
//!    chosen per thread (round-robin at first touch), so concurrent
//!    workers — `par_map_init` sweep workers, serve connection
//!    threads — never bounce the same cache line. Reads aggregate
//!    across shards with saturating arithmetic.
//! 3. **Fixed catalogue.** Metrics are `enum` variants, not string
//!    keys: registration is free, lookup is an array index, and the
//!    exported name set is stable by construction (the schema the
//!    byte-diff CI and the README catalogue rely on).
//!
//! # One table
//!
//! [`Counter`], [`Gauge`] and [`Histogram`] are each stated once, in a
//! `catalogue!` table grouped by Prometheus family, from which the
//! macro derives the enum, `COUNT`, `ALL`, `name()`, `labels()` and
//! `help()`. Three tests hold the table to what the program does:
//! `tests/exposition_golden.rs` pins the cold `/metrics` page byte for
//! byte, `tests/metric_catalogue.rs` checks that README names every
//! family, and the workspace's `tests/metric_liveness.rs` drives every
//! instrumented layer with the registry on and fails on any entry that
//! never moved, apart from an exempt list that gives each reason.
//!
//! Counters are **monotonic and saturating**: they never wrap, even
//! at `u64::MAX` (pinned by `tests/concurrency.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of independent shards counter/histogram writes spread over.
/// Sixteen covers every worker-pool size this workspace spawns
/// (threads beyond sixteen share shards round-robin, still correct).
pub const SHARDS: usize = 16;

/// Number of power-of-two histogram buckets. Bucket `i` counts
/// observations whose bit length is `i` (i.e. values `< 2^i` and
/// `>= 2^(i-1)`; bucket 0 is exactly zero), with everything at or
/// above `2^38` (~3.2 days in microseconds) collapsed into the last
/// bucket, exported as `+Inf`.
pub const NBUCKETS: usize = 40;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Switch the metrics registry on for the rest of the process.
///
/// Enabling is **one-way**: there is deliberately no `disable()`, so
/// the hot path can use a single relaxed load with no torn-state
/// races (a thread that observes "on" slightly late merely drops a
/// few early increments).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Is the metrics registry on? A relaxed atomic load — cheap enough
/// for per-candidate hot paths, though the kernels batch even this
/// out by keeping plain local tallies and flushing per session.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Declares one metric kind from a table grouped by Prometheus family:
/// the `#[repr(usize)]` enum (each variant keeps its doc comment), its
/// `COUNT` and `ALL`, and `name()`, `labels()` and `help()`. A family
/// reads `bbncg_name_total: "HELP text" { Variant { key = "value" }, … }`;
/// an unlabelled variant omits the braces. Variants are numbered, and
/// exported, in table order.
macro_rules! catalogue {
    (
        $(#[$meta:meta])*
        pub enum $kind:ident {
            $(
                $family:ident: $help:literal {
                    $(
                        $(#[$doc:meta])*
                        $variant:ident $({ $key:ident = $value:literal })?,
                    )+
                }
            )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $kind {
            $($(
                $(#[$doc])*
                $variant,
            )+)+
        }

        impl $kind {
            /// Number of entries in the catalogue.
            pub const COUNT: usize = [$($(stringify!($variant)),+),+].len();

            /// Every entry, in export order.
            pub const ALL: [$kind; $kind::COUNT] = [$($($kind::$variant),+),+];

            /// Prometheus metric family name (shared across labelled
            /// variants).
            pub fn name(self) -> &'static str {
                match self {
                    $($($kind::$variant)|+ => stringify!($family),)+
                }
            }

            /// Prometheus label set (without braces), empty when
            /// unlabelled.
            pub fn labels(self) -> &'static str {
                match self {
                    $($(
                        $kind::$variant => concat!("" $(, stringify!($key), "=\"", $value, "\"")?),
                    )+)+
                }
            }

            /// One-line `# HELP` text for the metric family.
            pub fn help(self) -> &'static str {
                match self {
                    $($($kind::$variant)|+ => $help,)+
                }
            }
        }
    };
}

catalogue! {
    /// Every monotonic counter in the catalogue.
    ///
    /// Variants are grouped by layer: cost kernels (`Kernel*`) and the
    /// closed-form pricer that bypasses them (`ClosedForm*`), the
    /// sharded round executor (`Rounds*`), dynamics totals
    /// (`Dynamics*`), the scenario engine (`Scenario*`), and the job
    /// server (`Http*` / `Jobs*`). The `usize` discriminant is the
    /// registry array index; [`Counter::ALL`] iterates in export order.
    pub enum Counter {
        bbncg_kernel_sessions_total: "Deviation pricing sessions begun" {
            /// Deviation-scratch pricing sessions begun (`begin()` calls).
            KernelSessions,
        }
        bbncg_kernel_base_bfs_total:
            "Sparse-kernel base BFSs, one per session that prices on the kernel" {
            /// Base BFSs establishing a sparse session's distances: one per
            /// session that prices on the sparse kernel, run by its first
            /// kernel call (a session the closed form settles runs none).
            KernelBaseBfs,
        }
        bbncg_kernel_candidates_priced_total: "Candidate deviations priced, by cost kernel" {
            /// Candidates priced by the queue BFS kernel.
            KernelPricedQueue { kernel = "queue" },
            /// Candidates priced by the word-parallel bitset BFS kernel.
            KernelPricedBitset { kernel = "bitset" },
            /// Candidates priced by the sparse dynamic-SSSP kernel.
            KernelPricedSparse { kernel = "sparse" },
        }
        bbncg_kernel_prune_skips_total:
            "Candidates skipped by the Lemma 2.2 lower bound or an incumbent abort, by cost kernel" {
            /// Candidates skipped as unable to beat the incumbent (queue
            /// kernel): the Lemma 2.2 lower bound and in-flight incumbent
            /// aborts both land here.
            KernelPruneSkipQueue { kernel = "queue" },
            /// Candidates skipped as unable to beat the incumbent (bitset
            /// kernel): the Lemma 2.2 lower bound and in-flight incumbent
            /// aborts both land here.
            KernelPruneSkipBitset { kernel = "bitset" },
            /// Candidates skipped as unable to beat the incumbent (sparse
            /// kernel): the Lemma 2.2 lower bound and in-flight incumbent
            /// aborts both land here.
            KernelPruneSkipSparse { kernel = "sparse" },
        }
        bbncg_kernel_prune_exact_total: "Candidates priced exactly from the bound without a BFS" {
            /// Candidates priced exactly from the bound, without a BFS.
            KernelPruneExact,
        }
        bbncg_kernel_sssp_repairs_total: "Decrease-only dynamic-SSSP repairs (sparse kernel)" {
            /// Decrease-only dynamic-SSSP repairs run by the sparse kernel.
            KernelSsspRepairs,
        }
        bbncg_kernel_base_repairs_total:
            "Retired retained-base repairs, by outcome; nothing increments it" {
            /// Retired: nothing increments it. The sparse kernel no longer
            /// retains a base profile across sessions; every session that
            /// prices on it runs one base BFS ([`Counter::KernelBaseBfs`]).
            /// Kept in the catalogue because the benchmark package still reads
            /// it.
            KernelBaseRepaired { outcome = "repaired" },
            /// Retired: nothing increments it (see
            /// [`Counter::KernelBaseRepaired`]).
            KernelRepairFallbacks { outcome = "fallback" },
        }
        bbncg_kernel_prune_aborts_total:
            "Pricings aborted part-way by the incumbent bound, by cost kernel" {
            /// Queue-kernel pricings aborted part-way by the incumbent bound
            /// (counted inside the priced and prune-skip totals as well).
            KernelPruneAbortQueue { kernel = "queue" },
            /// Bitset-kernel pricings aborted part-way by the incumbent bound
            /// (counted inside the priced and prune-skip totals as well).
            KernelPruneAbortBitset { kernel = "bitset" },
            /// Sparse-kernel pricings aborted mid-repair by the incumbent
            /// bound (counted inside the priced and prune-skip totals as well).
            KernelPruneAbortSparse { kernel = "sparse" },
        }
        bbncg_kernel_bound_cache_total:
            "Retired per-target candidate-bound cache lookups; nothing increments it" {
            /// Retired: nothing increments it. Sparse sessions compute each
            /// target's landmark bound directly, with no per-target cache.
            /// Kept in the catalogue because the benchmark package still reads
            /// it.
            KernelBoundCacheHits { result = "hit" },
            /// Retired: nothing increments it (see
            /// [`Counter::KernelBoundCacheHits`]).
            KernelBoundCacheMisses { result = "miss" },
        }
        bbncg_closed_form_activations_total:
            "Activations priced by the unit-budget closed form instead of a kernel" {
            /// Activations whose single-arc candidates the unit-budget closed
            /// form (SUM or MAX) priced in one pass, with no kernel traversal.
            ClosedFormActivations,
        }
        bbncg_swap_sweeps_total:
            "Swap searches priced by one sweep instead of per-candidate pricing" {
            /// Best-swap activations whose (slot, target) costs the swap
            /// sweep derived from one bounded BFS per vertex, with no
            /// per-candidate kernel traversal.
            SwapSweeps,
        }
        bbncg_rounds_evals_total: "Activations split across sharded pricing engines" {
            /// Activations the sharded round executor split across engines.
            RoundsEvals,
        }
        bbncg_rounds_commits_total: "Moves committed by sharded activations" {
            /// Moves committed by sharded activations.
            RoundsCommits,
        }
        bbncg_rounds_discards_total:
            "Candidates examined past an earlier shard's proof of the optimum" {
            /// Candidates sharded activations examined past an earlier slice's
            /// proof of the optimum (work the sequential search never does).
            RoundsDiscards,
        }
        bbncg_dynamics_rounds_total: "Dynamics rounds executed" {
            /// Dynamics rounds executed (all executors).
            DynamicsRounds,
        }
        bbncg_dynamics_skips_total:
            "Dynamics activations skipped on a profile the player was already found quiet on" {
            /// Dynamics activations skipped because the player's last
            /// activation, under the same model and rule, found no move on
            /// exactly the current profile (added once per round).
            DynamicsSkips,
        }
        bbncg_dynamics_steps_total: "Improving moves committed by dynamics" {
            /// Improving moves committed by dynamics (all executors).
            DynamicsSteps,
        }
        bbncg_scenario_phases_total: "Scenario phases entered" {
            /// Scenario phases entered.
            ScenarioPhases,
        }
        bbncg_scenario_events_total: "Perturbation events applied" {
            /// Perturbation events applied by the scenario engine.
            ScenarioEvents,
        }
        bbncg_scenario_seeds_total: "Scenario seeds completed" {
            /// Scenario seeds completed (sweep legs).
            ScenarioSeeds,
        }
        bbncg_http_requests_total: "HTTP requests routed" {
            /// HTTP requests routed (all endpoints, including rejections).
            HttpRequests,
        }
        bbncg_http_rejected_total: "HTTP requests rejected with 429 (queue backpressure)" {
            /// HTTP requests rejected with `429` by queue backpressure.
            HttpRejected429,
        }
        bbncg_jobs_total: "Serve jobs by terminal state" {
            /// Jobs accepted into the serve queue.
            JobsSubmitted { state = "submitted" },
            /// Jobs that ran to completion.
            JobsCompleted { state = "completed" },
            /// Jobs that ended in failure.
            JobsFailed { state = "failed" },
            /// Jobs cancelled before or during execution.
            JobsCancelled { state = "cancelled" },
        }
        bbncg_serve_cache_total: "Serve result-cache lookups, by outcome" {
            /// Result-cache lookups answered from a terminal cached job.
            ServeCacheHits { result = "hit" },
            /// Result-cache lookups that admitted a fresh job.
            ServeCacheMisses { result = "miss" },
            /// Result-cache lookups coalesced onto a still-running job (the
            /// duplicate submission attaches to the same stream instead of
            /// recomputing).
            ServeCacheCoalesced { result = "coalesced" },
        }
        bbncg_serve_cache_evictions_total: "Cached serve jobs evicted (LRU or history bound)" {
            /// Cached jobs evicted by the LRU bound or history retention.
            ServeCacheEvictions,
        }
        bbncg_http_keepalive_reuses_total:
            "HTTP requests served on reused keep-alive connections" {
            /// HTTP requests served on a reused keep-alive connection (the
            /// second and later requests of each connection).
            HttpKeepaliveReuses,
        }
    }
}

catalogue! {
    /// Every gauge in the catalogue (instantaneous values, set not added).
    pub enum Gauge {
        bbncg_serve_queue_depth: "Jobs waiting in the serve queue" {
            /// Jobs waiting in the serve queue right now.
            QueueDepth,
        }
        bbncg_serve_inflight_jobs: "Jobs currently executing on serve workers" {
            /// Jobs currently executing on serve workers.
            InFlightJobs,
        }
    }
}

catalogue! {
    /// Every histogram in the catalogue (power-of-two buckets, see
    /// [`NBUCKETS`]). Durations are recorded in **microseconds**.
    pub enum Histogram {
        bbncg_scenario_phase_duration_us: "Scenario phase wall time in microseconds" {
            /// Scenario phase wall time (µs).
            PhaseMicros,
        }
        bbncg_scenario_event_duration_us: "Perturbation event application time in microseconds" {
            /// Perturbation event application time (µs).
            EventMicros,
        }
        bbncg_scenario_seed_duration_us: "Per-seed scenario run time in microseconds" {
            /// Per-seed scenario run time within a sweep (µs) — the sweep
            /// worker-utilization signal.
            SeedMicros,
        }
        bbncg_http_request_duration_us: "HTTP request latency in microseconds, by endpoint" {
            /// `GET /healthz` request latency (µs).
            HttpHealthzMicros { endpoint = "healthz" },
            /// `GET /metrics` request latency (µs).
            HttpMetricsMicros { endpoint = "metrics" },
            /// `POST /jobs` request latency (µs).
            HttpSubmitMicros { endpoint = "submit" },
            /// `GET /jobs` request latency (µs).
            HttpJobsMicros { endpoint = "jobs" },
            /// `GET /jobs/{id}` request latency (µs).
            HttpJobStatusMicros { endpoint = "job_status" },
            /// `POST /jobs/{id}/cancel` request latency (µs).
            HttpCancelMicros { endpoint = "cancel" },
            /// `GET /jobs/{id}/stream` request latency (µs; includes the full
            /// stream, so long-poll follows dominate the top buckets).
            HttpStreamMicros { endpoint = "stream" },
            /// `GET /jobs/{id}/report` request latency (µs; includes waiting
            /// for the job to finish plus the render).
            HttpReportMicros { endpoint = "report" },
            /// `POST /shutdown` request latency (µs).
            HttpShutdownMicros { endpoint = "shutdown" },
            /// Latency of requests matching no route (µs).
            HttpOtherMicros { endpoint = "other" },
        }
    }
}

/// One shard of the registry. `align(128)` keeps neighbouring shards
/// off each other's cache lines (two lines on common prefetchers).
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    hist_buckets: [[AtomicU64; NBUCKETS]; Histogram::COUNT],
    hist_sum: [AtomicU64; Histogram::COUNT],
    hist_count: [AtomicU64; Histogram::COUNT],
}

impl Shard {
    const fn new() -> Self {
        Shard {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            hist_buckets: [const { [const { AtomicU64::new(0) }; NBUCKETS] }; Histogram::COUNT],
            hist_sum: [const { AtomicU64::new(0) }; Histogram::COUNT],
            hist_count: [const { AtomicU64::new(0) }; Histogram::COUNT],
        }
    }
}

static REGISTRY: [Shard; SHARDS] = [const { Shard::new() }; SHARDS];
static GAUGES: [AtomicU64; Gauge::COUNT] = [const { AtomicU64::new(0) }; Gauge::COUNT];

/// Round-robin shard assignment: each thread picks a shard on first
/// write and keeps it for life. Threads beyond [`SHARDS`] share.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard() -> &'static Shard {
    let idx = MY_SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(idx);
        }
        idx
    });
    &REGISTRY[idx]
}

/// Saturating add into one atomic cell: the CAS loop retries on
/// contention and pins at `u64::MAX` instead of wrapping.
#[inline]
fn saturating_fetch_add(cell: &AtomicU64, delta: u64) {
    if delta == 0 {
        return;
    }
    // Every add is a compare-exchange of the saturated sum, so a cell
    // at or near the ceiling can never wrap.
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(delta);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Add `delta` to a counter (no-op while the registry is disabled).
#[inline]
pub fn counter_add(c: Counter, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    saturating_fetch_add(&shard().counters[c as usize], delta);
}

/// Increment a counter by one (no-op while the registry is disabled).
#[inline]
pub fn counter_inc(c: Counter) {
    counter_add(c, 1);
}

/// Current value of a counter, aggregated across shards (saturating).
pub fn counter_value(c: Counter) -> u64 {
    REGISTRY.iter().fold(0u64, |acc, s| {
        acc.saturating_add(s.counters[c as usize].load(Ordering::Relaxed))
    })
}

/// Set a gauge to an instantaneous value (no-op while disabled).
#[inline]
pub fn gauge_set(g: Gauge, value: u64) {
    if !enabled() {
        return;
    }
    GAUGES[g as usize].store(value, Ordering::Relaxed);
}

/// Current value of a gauge.
pub fn gauge_value(g: Gauge) -> u64 {
    GAUGES[g as usize].load(Ordering::Relaxed)
}

/// Bucket index for an observation: its bit length, capped at the
/// overflow bucket. Zero lands in bucket 0; `[2^(i-1), 2^i)` lands in
/// bucket `i`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(NBUCKETS - 1)
}

/// Record one observation into a histogram (no-op while disabled).
#[inline]
pub fn observe(h: Histogram, value: u64) {
    if !enabled() {
        return;
    }
    let s = shard();
    let i = h as usize;
    s.hist_buckets[i][bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    saturating_fetch_add(&s.hist_sum[i], value);
    s.hist_count[i].fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time aggregate of one histogram across all shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; NBUCKETS],
    sum: u64,
    count: u64,
}

impl HistogramSnapshot {
    /// Per-bucket observation counts (non-cumulative), in
    /// [`bucket_index`] order.
    pub fn buckets(&self) -> &[u64; NBUCKETS] {
        &self.buckets
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the
    /// overflow bucket): the value every observation in the bucket is
    /// `<=`.
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= NBUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive bound of the bucket containing the rank-`⌈q·count⌉`
    /// observation. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(NBUCKETS - 1)
    }

    /// Median upper bound — `quantile(0.50)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound — `quantile(0.90)`.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound — `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Aggregate one histogram across all shards.
pub fn histogram_snapshot(h: Histogram) -> HistogramSnapshot {
    let i = h as usize;
    let mut snap = HistogramSnapshot {
        buckets: [0; NBUCKETS],
        sum: 0,
        count: 0,
    };
    for s in &REGISTRY {
        for (b, slot) in snap.buckets.iter_mut().enumerate() {
            *slot = slot.saturating_add(s.hist_buckets[i][b].load(Ordering::Relaxed));
        }
        snap.sum = snap
            .sum
            .saturating_add(s.hist_sum[i].load(Ordering::Relaxed));
        snap.count = snap
            .count
            .saturating_add(s.hist_count[i].load(Ordering::Relaxed));
    }
    snap
}

/// Zero every counter, gauge, and histogram cell.
///
/// A test/bench aid, not a linearizable operation: increments racing
/// with the reset may land on either side of it. Callers own the
/// quiescence (single-threaded bench sections, serialized tests).
pub fn reset() {
    for s in &REGISTRY {
        for c in &s.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &s.hist_buckets {
            for b in h {
                b.store(0, Ordering::Relaxed);
            }
        }
        for v in &s.hist_sum {
            v.store(0, Ordering::Relaxed);
        }
        for v in &s.hist_count {
            v.store(0, Ordering::Relaxed);
        }
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global; unit tests here only assert
    // catalogue invariants that need no writes.

    #[test]
    fn catalogue_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "Counter::ALL out of order at {i}");
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "Gauge::ALL out of order at {i}");
        }
        for (i, h) in Histogram::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "Histogram::ALL out of order at {i}");
        }
    }

    #[test]
    fn labelled_families_share_names_and_help() {
        // Same family name ⇒ same help text (Prometheus allows one
        // HELP per family).
        for a in Counter::ALL {
            for b in Counter::ALL {
                if a.name() == b.name() {
                    assert_eq!(a.help(), b.help(), "{:?} vs {:?}", a, b);
                }
            }
        }
        for a in Histogram::ALL {
            for b in Histogram::ALL {
                if a.name() == b.name() {
                    assert_eq!(a.help(), b.help(), "{:?} vs {:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
        for i in 1..NBUCKETS - 1 {
            let bound = HistogramSnapshot::bucket_bound(i);
            assert_eq!(bucket_index(bound), i);
            assert_eq!(bucket_index(bound + 1), i + 1);
        }
    }
}
