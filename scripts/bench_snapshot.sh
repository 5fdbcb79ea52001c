#!/usr/bin/env bash
# Emit a BENCH_dynamics.json perf baseline: dynamics steps/sec (engine
# vs. the rebuild-per-candidate reference), batched Nash-verify
# throughput, the cost-kernel comparison, and scenario-engine
# steps/sec on the churn example (examples/scenarios/churn.toml).
# Later PRs re-run this to show a perf trajectory.
#
# Kernel-comparison fields (see `bbncg_core::kernel`):
#   kernel_workload_n256             — the workload description for the
#                                      n=256 columns (unit budgets,
#                                      exact best response, capped
#                                      rounds so the queue side stays
#                                      affordable)
#   kernel_steps_per_sec_queue_n32   — queue kernel, existing n=32
#   kernel_steps_per_sec_bitset_n32  — bitset kernel, existing n=32
#   kernel_steps_per_sec_queue_n256  — queue kernel, n=256 workload
#   kernel_steps_per_sec_bitset_n256 — bitset kernel, n=256 workload
#   kernel_bitset_speedup_n256       — bitset/queue ratio at n=256; the
#                                      binary asserts >= 2.0 (the PR 3
#                                      acceptance bar)
#   kernel_total_steps_n256          — applied deviations (identical
#                                      across kernels by construction;
#                                      asserted)
#
# Kernel scale fields (the sparse-kernel series — unit-budget
# best-swap *partial activations*: each kernel prices the same
# round-robin activation stream from the same start, stopping at 8
# activations or a 20s leg budget, whichever first (never fewer than
# one); committed move sequences are asserted identical over the
# common prefix, so the ratios stay workload-fair even where full
# trajectories are unaffordable. Rates carry >=3 significant digits —
# the n=100000 leg runs at activations per *minute*):
#   kernel_scale_workload            — the workload description
#   kernel_steps_per_sec_{queue,bitset,sparse}_n1024
#                                    — three-way comparison inside the
#                                      bitset Auto band
#   kernel_steps_per_sec_{queue,sparse}_n16384
#                                    — the sparse acceptance size; the
#                                      binary warns below 3x (the
#                                      cross-activation-retention bar)
#   kernel_sparse_speedup_n16384     — sparse/queue ratio at n=16384
#   kernel_steps_per_sec_sparse_n100000
#                                    — the large-n soak regime (sparse
#                                      only; one queue activation is
#                                      already seconds there)
#   peak_rss_mib                     — VmHWM of the snapshot process
#                                      (dominated by the n=100000
#                                      sparse leg; the soak must fit in
#                                      O(n + m) memory, no bit mirror)
#
# Pruning health (read from the `bbncg_obs` registry, which the
# binary enables only after every timed measurement so the perf series
# keeps measuring the disabled, zero-cost configuration). Round-executor
# figures are not snapshotted here: the benchmark package in benchmark/
# measures the default executor end to end, and README's "Parallel
# rounds" tabulates sharded vs sequential:
#   prune_hit_rate_{queue,bitset,sparse}
#                                    — Lemma 2.2 lower-bound skips /
#                                      (skips + priced candidates) per
#                                      kernel on the n=1024 scale
#                                      workload. The three rates were
#                                      byte-identical through PR 7
#                                      because the skip decision is
#                                      bound-based and kernel-agnostic;
#                                      the sparse rate now genuinely
#                                      diverges — in-flight incumbent
#                                      aborts and overshoot-ball skips
#                                      (candidates pre-certified by a
#                                      neighbouring abort's bound)
#                                      count as skips there
#   repair_workload                  — the two counter-health legs for
#                                      the fields below
#   kernel_base_repair_rate          — commits absorbed by the
#                                      retained-base repair path /
#                                      all base resolutions, on a
#                                      same-source re-audit trace at
#                                      n=4096 (perf_guard.rs enforces
#                                      the same shape in CI)
#   kernel_repair_affected_p90       — p90 affected-set size per repair
#   kernel_prune_abort_rate_sparse   — in-flight incumbent aborts /
#                                      priced candidates on a budget-2
#                                      best-swap leg at n=1024
#   kernel_bound_cache_hit_rate      — per-target bound-cache hits /
#                                      lookups on the same leg (budget
#                                      1 never reuses a target's bound
#                                      within a session, hence the
#                                      dedicated budget-2 leg)
#
# Both JSON files carry a schema_version field (bumped on any
# field add/rename/remove) and are published atomically
# (write temp + rename), so concurrent readers never see a torn
# snapshot. The separate `obs_guard` bin (cargo run -p bbncg-bench
# --bin obs_guard) enforces the zero-cost-when-off promise:
# enabled-registry throughput must stay within a few percent of
# disabled on n=1024 exact dynamics (sequential rounds, one thread).
#
# Also emits BENCH_serve.json via the `loadgen` bin: an in-process
# bbncg-serve instance (epoll front end, 4 workers, bounded queue)
# hammered by 640 concurrent keep-alive TCP clients (one persistent
# connection each), every stream verified byte-for-byte against the
# offline reference, plus a cache leg and a sharded-sweep leg. Fields:
#   clients / requests_per_client / keep_alive / server_workers /
#   queue_capacity       — the load shape
#   requests_total       — completed submit+stream round trips
#   requests_per_sec     — round trips per wall-clock second
#   baseline_req_per_sec / req_per_sec_vs_baseline
#                        — PR 9's thread-per-connection number and the
#                          keep-alive front end's ratio against it
#   latency_p50_ms, latency_p99_ms
#                        — per-request submit→stream-complete latency
#   retries_429          — backpressure bounces absorbed by retry
#   dropped_streams, corrupted_streams
#                        — must both be 0 (the binary asserts)
#   cache_sweep_seeds / cache_recompute_p50_us / cache_hit_p50_us /
#   cache_replay_p50_us / cache_speedup
#                        — churn-sweep recompute (submit -> last byte)
#                          vs content-addressed cache hit (submit ->
#                          202 receipt naming the completed job; the
#                          byte-verified replay is timed separately);
#                          the binary asserts the speedup is >= 100x
#   shard_merge_match    — coordinator + two peers merged stream is
#                          byte-identical to the offline reference
#                          (the binary asserts)
#   server_rejected_429, server_p99_us
#                        — the server's own accounting from /metrics
#
# Usage: scripts/bench_snapshot.sh [output.json] [serve-output.json]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_dynamics.json}"
serve_out="${2:-BENCH_serve.json}"
cargo run --release -q -p bbncg-bench --features naive-ref --bin bench_snapshot -- "$out"
cargo run --release -q -p bbncg-bench --bin loadgen -- "$serve_out"
