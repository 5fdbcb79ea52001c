//! Minimal parallel-execution substrate for the `bbncg` workspace.
//!
//! The bounded-budget network-creation experiments are embarrassingly
//! parallel at several granularities: breadth-first searches from many
//! sources (all-pairs shortest paths), Nash verification over vertices,
//! and experiment sweeps over seeds. This crate provides the small set of
//! primitives those layers need, built directly on `std::thread::scope`
//! — no global thread pool, no external data-parallelism framework and
//! no third-party crate, per the workspace's build-your-substrates rule.
//!
//! Two scheduling disciplines are offered:
//!
//! * **dynamic** ([`par_map`], [`par_map_init`]): workers claim blocks of
//!   indices from a shared atomic counter. Good when per-item cost is
//!   irregular (e.g. best-response search whose pruning depth varies).
//! * **static** ([`par_chunks_mut`], [`par_reduce`]): the index space is
//!   split into contiguous chunks up front. Deterministic assignment,
//!   good when per-item cost is uniform (e.g. BFS from each source).
//!
//! All results are deterministic regardless of thread count: `par_map`
//! puts each result back at its input index, and `par_reduce` folds
//! per-chunk partials in chunk order. The crate has no `unsafe` code.
//!
//! # Thread-cap precedence
//!
//! The worker bound every primitive obeys is resolved as
//! [`set_max_threads`] (the CLI's `--threads`, highest precedence) →
//! `BBNCG_THREADS` → [`std::thread::available_parallelism`]. The
//! resolution is cached on first use; `set_max_threads` replaces the
//! cache at any time, but each parallel call samples the bound **once,
//! at its own start** and spawns its whole worker set from that
//! sample — a mid-run override never grows or shrinks an in-flight
//! worker set (or its worker-local state built by [`par_map_init`]'s
//! `init`), it only governs calls that start afterwards. Pinned by
//! `tests/threads_override.rs`.
//!
//! # Example
//!
//! ```
//! let squares = bbncg_par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

static CACHED_MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Is this thread a parallel worker (spawned by a primitive here,
    /// or marked by a long-lived service worker)? Lets higher layers
    /// avoid *nesting* fan-outs: a parallel call made from inside a
    /// worker would multiply the thread budget instead of sharing it.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Is the current thread already a parallel worker — one spawned by a
/// primitive in this crate, or one that called
/// [`mark_parallel_worker`]? Heuristics that choose *whether* to fan
/// out (e.g. `RoundExecutor::Auto` in `bbncg-core`) consult this so
/// work that is already running under an outer fan-out (a seed-sweep
/// worker, a serve job worker) stays serial inside instead of
/// oversubscribing the machine quadratically. The primitives
/// themselves are unaffected: explicit parallel calls still run.
pub fn in_parallel_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Permanently mark the current thread as a parallel worker (see
/// [`in_parallel_worker`]). For long-lived service worker threads that
/// are not spawned by this crate but play the same role — e.g. the
/// `bbncg-serve` job workers, whose pool is already sized to
/// [`max_threads`].
pub fn mark_parallel_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// RAII for the scoped workers spawned below: marks on entry; the
/// thread dies at scope exit, so no reset is needed, but the guard
/// keeps the marking next to the spawn sites.
fn mark_this_worker() {
    IN_WORKER.with(|w| w.set(true));
}

/// Upper bound on worker threads, overridable with the `BBNCG_THREADS`
/// environment variable (useful for benchmarking scaling and for forcing
/// serial execution under `BBNCG_THREADS=1`) or programmatically with
/// [`set_max_threads`] (the CLI's `--threads` flag, which wins over the
/// environment). See the crate docs for the full precedence chain and
/// the in-flight-call guarantee.
pub fn max_threads() -> usize {
    let cached = CACHED_MAX_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("BBNCG_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED_MAX_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Pin the worker-thread bound for the whole process, overriding both
/// `BBNCG_THREADS` and auto-detected parallelism (and any value a prior
/// [`max_threads`] call cached). `n = 0` is treated as 1 so a bad flag
/// can never disable execution outright. Intended for process startup
/// (the CLI's `--threads`); calling it mid-computation only affects
/// parallel calls that start afterwards — an in-flight call keeps the
/// worker set (and any `par_map_init` worker-local state) it spawned
/// at its own start, never resizing mid-run.
pub fn set_max_threads(n: usize) {
    CACHED_MAX_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Number of workers appropriate for `len` items: never more threads than
/// items, never more than [`max_threads`], and at least one.
pub fn workers_for(len: usize) -> usize {
    max_threads().min(len).max(1)
}

/// Default grain size for dynamic scheduling: blocks of indices claimed at
/// once. Chosen so the atomic counter is hit ~64× per worker on balanced
/// inputs, which keeps contention negligible while still load-balancing.
fn grain_for(len: usize, workers: usize) -> usize {
    (len / (workers * 64)).max(1)
}

/// Map `f` over `items` in parallel with dynamic load balancing,
/// preserving input order in the output.
///
/// `f` receives `(index, &item)`. Falls back to a serial loop for small
/// inputs or when only one worker is available.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    par_map_init(items.len(), || (), |(), i| f(i, &items[i]))
}

/// Map over `0..len` and return results in index order (dynamic
/// scheduling). Index-space variant of [`par_map`]; equivalent to
/// [`par_map_init`] with unit worker state.
pub fn par_map_index<R: Send>(len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    par_map_init(len, || (), |(), i| f(i))
}

/// [`par_map_index`] with **worker-local state**: `init` runs once per
/// worker thread and the resulting state is threaded through every
/// call that worker makes. This is the shape heavyweight reusable
/// scratch wants (e.g. one deviation engine per worker for batched
/// Nash verification): `len` items share `workers_for(len)` engines
/// instead of building one per item.
pub fn par_map_init<S, R: Send>(
    len: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = workers_for(len);
    if workers <= 1 || len < 2 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    let grain = grain_for(len, workers);
    let cursor = &AtomicUsize::new(0);
    let (init, f) = (&init, &f);
    // Each worker returns the `(index, value)` pairs it computed; the
    // cursor hands every index to exactly one worker, so the merge
    // below fills every slot once.
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    mark_this_worker();
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let start = cursor.fetch_add(grain, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        for i in start..(start + grain).min(len) {
                            out.push((i, f(&mut state, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|v| v.expect("the cursor hands every index to one worker"))
        .collect()
}

/// Process mutable chunks of `items` in parallel with static scheduling.
/// `f` receives `(chunk_start_index, chunk)`. The slice is split into
/// `workers_for(len)` nearly equal contiguous chunks.
pub fn par_chunks_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let len = items.len();
    let workers = workers_for(len);
    if workers <= 1 || len < 2 {
        f(0, items);
        return;
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|s| {
        for (k, piece) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                mark_this_worker();
                f(k * chunk, piece)
            });
        }
    });
}

/// Deterministic parallel reduction: map each item, then fold partials in
/// chunk order. The result equals the serial `items.iter().map(map).fold`
/// for any associative `fold` (and for any `fold` at all, because partials
/// are folded left-to-right in chunk order and items left-to-right within
/// a chunk — determinism does not depend on thread scheduling).
pub fn par_reduce<T: Sync, R: Send + Sync + Clone>(
    items: &[T],
    identity: R,
    map: impl Fn(usize, &T) -> R + Sync,
    fold: impl Fn(R, R) -> R + Sync,
) -> R {
    let len = items.len();
    let workers = workers_for(len);
    if workers <= 1 || len < 2 {
        return items
            .iter()
            .enumerate()
            .fold(identity, |acc, (i, x)| fold(acc, map(i, x)));
    }
    let chunk = len.div_ceil(workers);
    let partials = par_map_index(len.div_ceil(chunk), |k| {
        let start = k * chunk;
        let end = (start + chunk).min(len);
        (start..end).fold(identity.clone(), |acc, i| fold(acc, map(i, &items[i])))
    });
    partials.into_iter().fold(identity, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_serial() {
        let items: Vec<u64> = (0..10_000).collect();
        let parallel = par_map(&items, |i, &x| x * 3 + i as u64);
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_index_matches_range() {
        let got = par_map_index(1000, |i| i * i);
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_init_matches_serial_and_reuses_state() {
        // Each worker's state counts its own calls; the outputs must
        // still be a correct in-order map, and the total number of
        // init() calls must not exceed the worker count.
        let inits = AtomicU64::new(0);
        let got = par_map_init(
            5000,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |calls, i| {
                *calls += 1;
                (i * 2, *calls > 0)
            },
        );
        for (i, &(x, state_ok)) in got.iter().enumerate() {
            assert_eq!(x, i * 2);
            assert!(state_ok);
        }
        assert!(inits.load(Ordering::Relaxed) <= max_threads() as u64);
    }

    #[test]
    fn par_chunks_mut_covers_slice() {
        let mut items = vec![0u64; 5000];
        par_chunks_mut(&mut items, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = (start + off) as u64;
            }
        });
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn par_reduce_sums() {
        let items: Vec<u64> = (1..=10_000).collect();
        let total = par_reduce(&items, 0u64, |_, &x| x, |a, b| a + b);
        assert_eq!(total, 10_000 * 10_001 / 2);
    }

    #[test]
    fn par_reduce_is_deterministic_with_noncommutative_fold() {
        // String concatenation is associative but not commutative; chunk
        // ordering must make the result equal to the serial fold.
        let items: Vec<String> = (0..500).map(|i| format!("{i},")).collect();
        let joined = par_reduce(
            &items,
            String::new(),
            |_, s| s.clone(),
            |mut a, b| {
                a.push_str(&b);
                a
            },
        );
        let serial: String = items.concat();
        assert_eq!(joined, serial);
    }

    #[test]
    fn workers_never_exceed_items() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(2) <= 2);
        assert!(workers_for(1_000_000) <= max_threads());
    }
}
