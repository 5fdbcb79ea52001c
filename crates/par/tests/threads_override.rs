//! `set_max_threads` must actually bound how many workers the parallel
//! primitives spawn — this is what the CLI's `--threads` flag (and the
//! serve worker pool sizing) relies on.
//!
//! This lives in its own integration-test binary so the process-global
//! thread cap can be pinned without racing the unit tests.

use bbncg_par::{max_threads, par_map_init, set_max_threads, workers_for};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn set_max_threads_bounds_worker_count() {
    // Pin the cap *before* anything can cache an auto-detected value.
    set_max_threads(2);
    assert_eq!(max_threads(), 2);
    assert_eq!(workers_for(1_000_000), 2);

    // par_map_init runs init() exactly once per spawned worker, so the
    // init count observes the true number of workers.
    let inits = AtomicUsize::new(0);
    let threads = Mutex::new(HashSet::new());
    let out = par_map_init(
        10_000,
        || {
            inits.fetch_add(1, Ordering::Relaxed);
        },
        |(), i| {
            threads.lock().unwrap().insert(std::thread::current().id());
            i * 2
        },
    );
    assert_eq!(out.len(), 10_000);
    assert!(out.iter().enumerate().all(|(i, &x)| x == i * 2));
    assert!(
        inits.load(Ordering::Relaxed) <= 2,
        "more init() calls than the pinned thread cap"
    );
    assert!(
        threads.lock().unwrap().len() <= 2,
        "work ran on more distinct threads than the pinned cap"
    );

    // The override is re-assignable: dropping to 1 forces the serial
    // fast path (zero spawned workers — the caller's thread does all
    // the work, observable as a single distinct thread id).
    set_max_threads(1);
    assert_eq!(workers_for(4096), 1);
    let serial_threads = Mutex::new(HashSet::new());
    par_map_init(
        4096,
        || (),
        |(), i| {
            serial_threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            i
        },
    );
    assert_eq!(serial_threads.lock().unwrap().len(), 1);

    // 0 can never wedge the process: it clamps to 1.
    set_max_threads(0);
    assert_eq!(max_threads(), 1);

    // A mid-run override must NOT resize an in-flight worker set: the
    // bound is sampled once at call start, workers (and their
    // worker-local init() state) are spawned from that sample, and a
    // raise issued *from inside the call* only affects later calls.
    // This is what lets a serve job or a seed sweep trust its
    // per-worker engine count for the whole call.
    set_max_threads(2);
    let inits = AtomicUsize::new(0);
    let threads = Mutex::new(HashSet::new());
    par_map_init(
        20_000,
        || {
            inits.fetch_add(1, Ordering::Relaxed);
        },
        |(), i| {
            if i == 0 {
                // Fired while the call is in flight.
                set_max_threads(16);
            }
            threads.lock().unwrap().insert(std::thread::current().id());
            i
        },
    );
    assert!(
        inits.load(Ordering::Relaxed) <= 2,
        "mid-run override grew the in-flight worker set (init() ran {} times)",
        inits.load(Ordering::Relaxed)
    );
    assert!(
        threads.lock().unwrap().len() <= 2,
        "mid-run override grew the in-flight worker set"
    );
    // The override does govern the *next* call.
    assert_eq!(max_threads(), 16);

    // Worker marking: threads spawned by the primitives report
    // in_parallel_worker() = true (what keeps RoundExecutor::Auto from
    // nesting fan-outs inside sweep/serve workers); the calling thread
    // does not inherit the mark, and the serial fast path under a
    // 1-thread cap runs on the caller, so it stays unmarked too.
    set_max_threads(2);
    assert!(!bbncg_par::in_parallel_worker());
    let all_marked = Mutex::new(true);
    par_map_init(
        4096,
        || (),
        |(), i| {
            if !bbncg_par::in_parallel_worker() {
                *all_marked.lock().unwrap() = false;
            }
            i
        },
    );
    assert!(
        *all_marked.lock().unwrap(),
        "spawned workers must self-identify as parallel workers"
    );
    assert!(!bbncg_par::in_parallel_worker(), "caller stays unmarked");
    set_max_threads(1);
    par_map_init(
        64,
        || (),
        |(), i| {
            assert!(
                !bbncg_par::in_parallel_worker(),
                "serial fallback runs on the (unmarked) caller"
            );
            i
        },
    );
}
