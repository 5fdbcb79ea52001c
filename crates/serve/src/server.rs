//! The job server: connection front end, router, bounded queue,
//! result cache, and worker pool.
//!
//! Architecture (all `std`, no dependencies):
//!
//! * one **connection front end**: a non-blocking readiness loop (the
//!   private `event_loop` module) over raw `epoll(7)` bindings on
//!   Linux or portable `poll(2)` on other Unix hosts ([`crate::sys`];
//!   `/healthz` reports which as `conn`). It speaks HTTP/1.1
//!   keep-alive and drives chunked streaming by write interest, so a
//!   stalled reader never pins a thread. The server needs a Unix
//!   host: elsewhere [`spawn`] fails with
//!   [`std::io::ErrorKind::Unsupported`];
//! * a **bounded job queue** (`VecDeque` + condvar) decouples
//!   submission from execution — when it is full, `POST /jobs`
//!   answers `429` immediately instead of queueing unbounded work
//!   (backpressure the client can see and retry on);
//! * a **content-addressed result cache** (the private `cache`
//!   module): an identical re-submission answers with the original
//!   job's id — byte-identical streams make that trivially correct —
//!   and a duplicate POST racing a still-running job coalesces onto
//!   the same stream. `?nocache=1` bypasses; `cache_capacity: 0`
//!   disables;
//! * a **worker pool** of `workers` threads executes jobs; each worker
//!   owns one reusable [`DeviationScratch`] slot (the
//!   `par_map_init` discipline lifted to job granularity), so
//!   consecutive same-size jobs never rebuild the engine arena. A
//!   sweep job runs its seeds in parallel through
//!   [`run_sweep_cancellable`], whose stream stays in seed order;
//! * every job streams its results through a
//!   [`LineBuffer`](crate::LineBuffer), which any number of
//!   `GET /jobs/{id}/stream` connections replay-and-follow;
//! * **graceful drain**: `POST /shutdown` (or
//!   [`ServerHandle::shutdown`], which a supervisor should call on
//!   SIGTERM) stops accepting connections and lets the queue run dry
//!   before the workers exit; `?mode=abort` additionally fires every
//!   job's [`CancelToken`](bbncg_core::CancelToken) so in-flight
//!   dynamics wind down at the next round boundary.
//!
//! Routes:
//!
//! | Method | Path                | Answer |
//! |--------|---------------------|--------|
//! | GET    | `/healthz`          | server + pool + cache stats |
//! | POST   | `/jobs`             | submit (body = scenario spec TOML, or `?type=verify` + `bbncg v1` profile) |
//! | GET    | `/jobs`             | id + state of every job |
//! | GET    | `/jobs/{id}`        | one job's status document |
//! | GET    | `/jobs/{id}/stream` | chunked JSONL result stream |
//! | GET    | `/jobs/{id}/report` | self-contained HTML report of a completed scenario job |
//! | POST   | `/jobs/{id}/cancel` | fire the job's cancel token |
//! | POST   | `/shutdown`         | drain (finish queue) or `?mode=abort` |

use crate::cache::{scenario_cache_key, ResultCache};
use crate::http::{json_escape, Request, DEFAULT_MAX_BODY};
use crate::job::{Job, JobKind, JobStatus};
use crate::stream::BufferSink;
use bbncg_core::{
    audit_equilibrium_with_opts, parse_realization, CostKernel, CostModel, DeviationScratch,
    RoundExecutor,
};
use bbncg_obs::{Counter, Gauge, Histogram};
use bbncg_scenario::{parse_spec, run_scenario_with_engine, run_sweep_cancellable, Checkpoint};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the bound address is on
    /// the returned handle).
    pub addr: String,
    /// Worker-pool size; 0 means [`bbncg_par::max_threads`] (which the
    /// CLI's `--threads` flag pins).
    pub workers: usize,
    /// Bounded queue capacity: at most this many jobs wait; beyond it,
    /// submissions bounce with `429`.
    pub queue_capacity: usize,
    /// Request-body cap in bytes (`413` beyond it).
    pub max_body: usize,
    /// When set, single-seed scenario jobs write a `job-{id}.ck`
    /// checkpoint here after every completed phase, so long jobs
    /// survive a server crash (`bbncg scenario resume` picks them up).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// How many *terminal* (completed/failed/cancelled) jobs to retain
    /// for status queries and stream replay. Beyond it, the oldest
    /// terminal jobs are evicted at submission time, bounding the
    /// server's memory over an unbounded lifetime; queued and running
    /// jobs are never evicted. Evicted jobs leave the result cache
    /// too.
    pub history_limit: usize,
    /// Default round executor for jobs. Precedence per job:
    /// `?rounds=` query override, else a non-auto `[dynamics] rounds`
    /// in the posted spec, else this. Executors are step-identical, so
    /// the choice moves throughput only — streams never change.
    /// Reported by `/healthz` (with the worker-thread cap) so a
    /// benchmark run can record what it measured.
    pub default_executor: RoundExecutor,
    /// Switch the process-wide `bbncg_obs` metrics registry on at
    /// startup (one-way for the process). `GET /metrics` serves the
    /// Prometheus exposition either way — with observability off it
    /// simply reads all-zero counters.
    pub obs: bool,
    /// Result-cache capacity in jobs; 0 disables caching. The library
    /// default is 0 (a POST always creates a job — what embedding
    /// tests expect); the `bbncg serve` CLI defaults it on.
    pub cache_capacity: usize,
    /// How long a connection may take to deliver (each of) its
    /// requests before being dropped — the slow-loris bound. Applies
    /// per request, including between keep-alive requests.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            max_body: DEFAULT_MAX_BODY,
            checkpoint_dir: None,
            history_limit: 256,
            default_executor: RoundExecutor::Auto,
            obs: false,
            cache_capacity: 0,
            read_timeout: Duration::from_secs(30),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) workers: usize,
    pub(crate) jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    pub(crate) next_id: AtomicU64,
    pub(crate) queue: Mutex<VecDeque<Arc<Job>>>,
    pub(crate) queue_cv: Condvar,
    pub(crate) running: AtomicUsize,
    pub(crate) draining: AtomicBool,
    pub(crate) cache: ResultCache,
    /// Readiness backend of the front end (`epoll` or `poll`).
    pub(crate) conn_label: &'static str,
}

/// A running server: its bound address plus the event-loop and worker
/// threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    loop_thread: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Worker-pool size.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Readiness backend of the connection front end (`"epoll"` or
    /// `"poll"`).
    pub fn conn_mode(&self) -> &'static str {
        self.shared.conn_label
    }

    /// Begin a graceful drain: stop accepting connections and reject
    /// new submissions; workers finish the queue and exit. With
    /// `abort`, every job's cancel token fires first, so in-flight
    /// work winds down at its next cancellation point instead of
    /// running to completion. This is what a process supervisor should
    /// invoke on SIGTERM (std cannot install signal handlers without
    /// a libc dependency, so the hook is explicit).
    pub fn shutdown(&self, abort: bool) {
        begin_drain(&self.shared, abort);
    }

    /// Wait for the event loop and every worker to exit. Call after
    /// [`ServerHandle::shutdown`] (or after something POSTs
    /// `/shutdown`); joining a server nobody is draining blocks
    /// forever by design. The event loop exits only once its last
    /// connection has closed, so every response written during the
    /// drain (the drain's own 200 included) has reached its client
    /// when this returns.
    pub fn join(self) {
        let _ = self.loop_thread.join();
        for t in self.worker_threads {
            let _ = t.join();
        }
    }

    /// A job by id, if it exists (test/introspection hook).
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.shared
            .jobs
            .lock()
            .expect("jobs poisoned")
            .get(&id)
            .cloned()
    }
}

pub(crate) fn begin_drain(shared: &Arc<Shared>, abort: bool) {
    shared.draining.store(true, Ordering::SeqCst);
    if abort {
        for job in shared.jobs.lock().expect("jobs poisoned").values() {
            job.cancel.cancel();
        }
    }
    shared.queue_cv.notify_all();
    // Wake the event loop out of its wait() with a throwaway
    // connection, so it closes the listener now rather than on its
    // next tick; it re-checks the drain flag before accepting anything.
    // (A refused connect, the listener already closed, is harmless.)
    let _ = TcpStream::connect(shared.addr);
}

/// Bind, spawn the worker pool and the event loop on the best
/// readiness backend ([`crate::sys::Poller::new_auto`]: epoll on
/// Linux, `poll(2)` on other Unix hosts), and return the handle. The
/// server needs a Unix host: elsewhere this fails with
/// [`std::io::ErrorKind::Unsupported`].
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    #[cfg(unix)]
    {
        spawn_on(cfg, crate::sys::Poller::new_auto())
    }
    #[cfg(not(unix))]
    {
        drop(cfg);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "bbncg-serve needs a Unix host (epoll or poll(2))",
        ))
    }
}

/// [`spawn`] on an explicit readiness backend (tests run the protocol
/// over `poll(2)` through this seam).
#[cfg(unix)]
pub(crate) fn spawn_on(
    cfg: ServerConfig,
    poller: crate::sys::Poller,
) -> std::io::Result<ServerHandle> {
    use std::os::unix::io::AsRawFd;
    if cfg.obs {
        bbncg_obs::enable();
    }
    let listener = std::net::TcpListener::bind(&cfg.addr)?;
    // std hard-codes a backlog of 128; with syncookies on, a connect
    // burst beyond that gets RST instead of queued. Deepen the queue
    // to ride out many-hundred-client bursts (best effort).
    let _ = crate::sys::set_backlog(listener.as_raw_fd(), 1024);
    let addr = listener.local_addr()?;
    let workers = if cfg.workers == 0 {
        bbncg_par::max_threads()
    } else {
        cfg.workers
    };
    let cache_capacity = cfg.cache_capacity;
    let shared = Arc::new(Shared {
        cfg,
        addr,
        workers,
        jobs: Mutex::new(BTreeMap::new()),
        next_id: AtomicU64::new(0),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        running: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        cache: ResultCache::new(cache_capacity),
        conn_label: poller.label(),
    });
    let worker_threads = (0..workers)
        .map(|_| {
            let sh = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(sh))
        })
        .collect();
    let sh = Arc::clone(&shared);
    let loop_thread = std::thread::spawn(move || crate::event_loop::run(sh, listener, poller));
    Ok(ServerHandle {
        shared,
        loop_thread,
        worker_threads,
    })
}

fn worker_loop(shared: Arc<Shared>) {
    // Job workers are the server's parallelism: mark the thread so
    // `RoundExecutor::Auto` inside jobs stays sequential instead of
    // nesting a second fan-out per worker (an explicit
    // `sharded`/`?rounds=` ask still fans out).
    bbncg_par::mark_parallel_worker();
    // The worker-local engine slot: filled by the first single-seed
    // scenario job, re-synced by diffing (or transparently rebuilt on
    // size change) by every job after it — `par_map_init`'s
    // one-engine-per-worker discipline at job granularity.
    let mut scratch: Option<DeviationScratch> = None;
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.queue_cv.wait(q).expect("queue poisoned");
            }
        };
        let Some(job) = job else { return };
        shared.running.fetch_add(1, Ordering::SeqCst);
        execute_job(&shared, &job, &mut scratch);
        shared.running.fetch_sub(1, Ordering::SeqCst);
        uncache_if_dead(&shared, &job);
    }
}

/// Drop a job's cache entry if it retired without a replayable result
/// (failed or cancelled) — a transient failure must be recomputed,
/// not served from cache forever.
pub(crate) fn uncache_if_dead(shared: &Shared, job: &Arc<Job>) {
    if matches!(job.status(), JobStatus::Failed(_) | JobStatus::Cancelled) {
        if let Some(key) = job.cache_key() {
            shared.cache.forget(key, job.id);
        }
    }
}

fn execute_job(shared: &Shared, job: &Arc<Job>, scratch: &mut Option<DeviationScratch>) {
    if job.cancel.is_cancelled() {
        job.set_status(JobStatus::Cancelled);
        return;
    }
    job.set_status(JobStatus::Running);
    match &job.kind {
        JobKind::Scenario { spec } => {
            let mut sink = BufferSink::new(Arc::clone(&job.lines));
            if spec.seeds > 1 {
                let outcomes = run_sweep_cancellable(spec, &mut sink, &job.cancel);
                let mut errors = Vec::new();
                let mut cancelled = false;
                for (i, o) in outcomes.into_iter().enumerate() {
                    match o {
                        Ok(o) => cancelled |= o.cancelled,
                        Err(e) => errors.push(format!("seed {}: {e}", spec.seed + i as u64)),
                    }
                }
                job.set_status(if cancelled {
                    JobStatus::Cancelled
                } else if errors.is_empty() {
                    JobStatus::Completed
                } else {
                    JobStatus::Failed(errors.join("; "))
                });
            } else {
                let ck_path = shared
                    .cfg
                    .checkpoint_dir
                    .as_ref()
                    .map(|d| d.join(format!("job-{}.ck", job.id)));
                let mut on_phase_end = |ck: &Checkpoint| {
                    job.mark_phase();
                    if let Some(p) = &ck_path {
                        // Best-effort: a failed checkpoint write must
                        // not kill the job (same policy as the CLI).
                        let _ = std::fs::write(p, ck.to_text());
                    }
                };
                match run_scenario_with_engine(
                    spec,
                    spec.seed,
                    None,
                    &mut sink,
                    None,
                    &mut on_phase_end,
                    scratch,
                    &job.cancel,
                ) {
                    Ok(o) if o.cancelled => job.set_status(JobStatus::Cancelled),
                    Ok(_) => job.set_status(JobStatus::Completed),
                    Err(e) => job.set_status(JobStatus::Failed(e)),
                }
            }
        }
        JobKind::Verify {
            realization,
            model,
            kernel,
            executor,
        } => {
            let audit = audit_equilibrium_with_opts(realization, *model, *kernel, *executor);
            let violations = audit.violations();
            job.lines.push(format!(
                "{{\"kind\":\"verify\",\"model\":\"{}\",\"n\":{},\"nash\":{},\"gap\":{},\"violators\":{},\"social_cost\":{}}}",
                model.label(),
                realization.n(),
                audit.is_nash(),
                audit.gap(),
                violations.len(),
                realization.social_diameter(),
            ));
            job.set_status(JobStatus::Completed);
        }
    }
}

fn error_body(detail: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}", json_escape(detail)).into_bytes()
}

/// A routed request's disposition. `Full` responses are complete
/// bytes; `Stream`/`Report` follow a job's lifecycle, which the event
/// loop does with waker-driven connection states.
pub(crate) enum Routed {
    /// A complete response, ready to encode.
    Full {
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: Vec<u8>,
    },
    /// Follow the job's line buffer as a chunked JSONL stream.
    Stream { job: Arc<Job> },
    /// Wait for the job to finish, then render its HTML report.
    Report { job: Arc<Job> },
}

impl Routed {
    pub(crate) fn ok_json(body: String) -> Routed {
        Routed::Full {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    pub(crate) fn error_json(status: u16, reason: &'static str, detail: &str) -> Routed {
        Routed::Full {
            status,
            reason,
            content_type: "application/json",
            body: error_body(detail),
        }
    }
}

/// Which latency histogram a request lands in. Unrouted requests go
/// to the `other` family, so the scrape still accounts for them.
fn endpoint_histogram(method: &str, segments: &[&str]) -> Histogram {
    match (method, segments) {
        ("GET", ["healthz"]) => Histogram::HttpHealthzMicros,
        ("GET", ["metrics"]) => Histogram::HttpMetricsMicros,
        ("POST", ["jobs"]) => Histogram::HttpSubmitMicros,
        ("GET", ["jobs"]) => Histogram::HttpJobsMicros,
        ("GET", ["jobs", _]) => Histogram::HttpJobStatusMicros,
        ("POST", ["jobs", _, "cancel"]) => Histogram::HttpCancelMicros,
        ("GET", ["jobs", _, "stream"]) => Histogram::HttpStreamMicros,
        ("GET", ["jobs", _, "report"]) => Histogram::HttpReportMicros,
        ("POST", ["shutdown"]) => Histogram::HttpShutdownMicros,
        _ => Histogram::HttpOtherMicros,
    }
}

/// Route one parsed request to its disposition. Every arm here is
/// non-blocking (submit parses and enqueues; nothing waits on a job),
/// so the event loop calls this inline.
pub(crate) fn route_request(shared: &Arc<Shared>, req: &Request) -> (Routed, Histogram) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    bbncg_obs::counter_inc(Counter::HttpRequests);
    let hist = endpoint_histogram(&req.method, &segments);
    let routed = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let queue_depth = shared.queue.lock().expect("queue poisoned").len();
            let jobs = shared.jobs.lock().expect("jobs poisoned").len();
            let cache = shared.cache.stats();
            let cache_lookups = cache.hits + cache.coalesced + cache.misses;
            let hit_rate = if cache_lookups == 0 {
                0.0
            } else {
                (cache.hits + cache.coalesced) as f64 / cache_lookups as f64
            };
            // `rounds` + `threads` let a benchmark run record what it
            // measured: the default round-executor mode jobs will run
            // under and the worker-thread cap every parallel primitive
            // obeys (`--threads` / BBNCG_THREADS / auto-detect). `conn`
            // and the cache block describe the front end: readiness
            // backend and result-cache pressure.
            Routed::ok_json(format!(
                "{{\"status\":\"{}\",\"workers\":{},\"queue_depth\":{},\"queue_capacity\":{},\"running\":{},\"jobs\":{},\"rounds\":\"{}\",\"threads\":{},\"conn\":\"{}\",\"cache_capacity\":{},\"cache_size\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_coalesced\":{},\"cache_evictions\":{},\"cache_hit_rate\":{:.4}}}",
                if shared.draining.load(Ordering::SeqCst) { "draining" } else { "ok" },
                shared.workers,
                queue_depth,
                shared.cfg.queue_capacity,
                shared.running.load(Ordering::SeqCst),
                jobs,
                shared.cfg.default_executor.label(),
                bbncg_par::max_threads(),
                shared.conn_label,
                shared.cache.capacity(),
                cache.size,
                cache.hits,
                cache.misses,
                cache.coalesced,
                cache.evictions,
                hit_rate,
            ))
        }
        ("GET", ["metrics"]) => {
            // Gauges are sampled at scrape time — they describe "now",
            // not a cumulative history, so this is the one place they
            // are written.
            bbncg_obs::gauge_set(
                Gauge::QueueDepth,
                shared.queue.lock().expect("queue poisoned").len() as u64,
            );
            bbncg_obs::gauge_set(
                Gauge::InFlightJobs,
                shared.running.load(Ordering::SeqCst) as u64,
            );
            Routed::Full {
                status: 200,
                reason: "OK",
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: bbncg_obs::render_prometheus().into_bytes(),
            }
        }
        ("POST", ["jobs"]) => submit(shared, req),
        ("GET", ["jobs"]) => {
            let jobs = shared.jobs.lock().expect("jobs poisoned");
            let docs: Vec<String> = jobs.values().map(|j| j.status_json()).collect();
            Routed::ok_json(format!("[{}]", docs.join(",")))
        }
        ("GET", ["jobs", id]) => match lookup(shared, id) {
            Some(job) => Routed::ok_json(job.status_json()),
            None => Routed::error_json(404, "Not Found", &format!("no job {id}")),
        },
        ("POST", ["jobs", id, "cancel"]) => match lookup(shared, id) {
            Some(job) => {
                job.cancel.cancel();
                // A still-queued job is pulled out of the queue so its
                // slot frees *now* (a corpse left in the deque would
                // keep bouncing live submissions with 429 until a
                // worker got around to popping it) and retired
                // immediately; a running one winds down at its next
                // cancellation point (set_status ignores the race
                // either way).
                shared
                    .queue
                    .lock()
                    .expect("queue poisoned")
                    .retain(|j| j.id != job.id);
                if job.status() == JobStatus::Queued {
                    job.set_status(JobStatus::Cancelled);
                }
                uncache_if_dead(shared, &job);
                Routed::ok_json(job.status_json())
            }
            None => Routed::error_json(404, "Not Found", &format!("no job {id}")),
        },
        ("GET", ["jobs", id, "stream"]) => match lookup(shared, id) {
            Some(job) => Routed::Stream { job },
            None => Routed::error_json(404, "Not Found", &format!("no job {id}")),
        },
        ("GET", ["jobs", id, "report"]) => match lookup(shared, id) {
            Some(job) => {
                if matches!(job.kind, JobKind::Scenario { .. }) {
                    Routed::Report { job }
                } else {
                    Routed::error_json(
                        409,
                        "Conflict",
                        "reports are only available for scenario jobs",
                    )
                }
            }
            None => Routed::error_json(404, "Not Found", &format!("no job {id}")),
        },
        ("POST", ["shutdown"]) => {
            let abort = req.query_get("mode") == Some("abort");
            // Drain *before* answering: once the client reads this
            // response, no later submission can be accepted — the 200
            // is a promise, not a prediction.
            begin_drain(shared, abort);
            Routed::ok_json("{\"status\":\"draining\"}".into())
        }
        _ => Routed::error_json(
            404,
            "Not Found",
            &format!("no route {} {}", req.method, req.path),
        ),
    };
    (routed, hist)
}

fn lookup(shared: &Shared, id: &str) -> Option<Arc<Job>> {
    let id: u64 = id.parse().ok()?;
    shared.jobs.lock().expect("jobs poisoned").get(&id).cloned()
}

fn receipt(job: &Arc<Job>, cached: bool) -> Routed {
    let cached_field = if cached { ",\"cached\":true" } else { "" };
    Routed::Full {
        status: 202,
        reason: "Accepted",
        content_type: "application/json",
        body: format!(
            "{{\"job\":{},\"kind\":\"{}\",\"state\":\"{}\"{},\"stream\":\"/jobs/{}/stream\"}}",
            job.id,
            job.kind.label(),
            job.status().label(),
            cached_field,
            job.id
        )
        .into_bytes(),
    }
}

fn submit(shared: &Arc<Shared>, req: &Request) -> Routed {
    if shared.draining.load(Ordering::SeqCst) {
        return Routed::error_json(503, "Service Unavailable", "server is draining");
    }
    let kind = match build_job_kind(req, shared.cfg.default_executor) {
        Ok(k) => k,
        Err(e) => return Routed::error_json(400, "Bad Request", &e),
    };
    // `?nocache=1` (any value but "0") bypasses lookup *and* insert —
    // the benchmarking escape hatch that always recomputes.
    let nocache = req.query_get("nocache").is_some_and(|v| v != "0");
    let cache_key = match (&kind, shared.cache.enabled(), nocache) {
        (JobKind::Scenario { spec, .. }, true, false) => Some(scenario_cache_key(spec)),
        _ => None,
    };
    // The cache guard spans lookup → admission → insert, so two racing
    // identical POSTs can never both admit: one inserts, the other
    // coalesces onto its job. Lock order: cache → queue → jobs.
    let mut cache_guard = if shared.cache.enabled() {
        Some(shared.cache.lock())
    } else {
        None
    };
    if let (Some(guard), Some(key)) = (cache_guard.as_mut(), &cache_key) {
        if let Some(job) = guard.lookup(key) {
            return receipt(&job, true);
        }
    }
    // Reserve a queue slot and register the job in one critical
    // section, so the id is routable the instant the submitter sees it
    // and the capacity check can never over-admit.
    let job = {
        let mut q = shared.queue.lock().expect("queue poisoned");
        // Re-check the drain flag *inside* the queue lock: workers
        // decide to exit under this same lock, so a submission that
        // passes here is guaranteed a live worker — without this, a
        // drain racing the check above could strand an accepted job
        // (202 receipt, no worker left, stream never closes).
        if shared.draining.load(Ordering::SeqCst) {
            drop(q);
            return Routed::error_json(503, "Service Unavailable", "server is draining");
        }
        if q.len() >= shared.cfg.queue_capacity {
            drop(q);
            bbncg_obs::counter_inc(Counter::HttpRejected429);
            return Routed::error_json(
                429,
                "Too Many Requests",
                &format!(
                    "queue full ({} jobs queued); retry later",
                    shared.cfg.queue_capacity
                ),
            );
        }
        let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let job = Job::new(id, kind);
        {
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            jobs.insert(id, Arc::clone(&job));
            // Retention: evict the oldest terminal jobs beyond the
            // history cap, so an always-on server's memory is bounded
            // (each retained job holds its whole record stream). A
            // follower mid-replay keeps its own Arc and finishes
            // unaffected; later GETs of an evicted id are 404 — and
            // the cache drops the entry too, so a cached receipt can
            // never point at an evicted id.
            let terminal: Vec<u64> = jobs
                .iter()
                .filter(|(_, j)| j.status().is_terminal())
                .map(|(&k, _)| k)
                .collect();
            if terminal.len() > shared.cfg.history_limit {
                for k in &terminal[..terminal.len() - shared.cfg.history_limit] {
                    if let Some(evicted) = jobs.remove(k) {
                        if let (Some(guard), Some(ck)) = (cache_guard.as_mut(), evicted.cache_key())
                        {
                            guard.forget(ck, evicted.id);
                        }
                    }
                }
            }
        }
        if let (Some(guard), Some(key)) = (cache_guard.as_mut(), &cache_key) {
            job.set_cache_key(guard.insert(key, &job));
        }
        q.push_back(Arc::clone(&job));
        shared.queue_cv.notify_one();
        bbncg_obs::counter_inc(Counter::JobsSubmitted);
        job
    };
    receipt(&job, false)
}

fn parse_kernel_param(req: &Request) -> Result<CostKernel, String> {
    match req.query_get("kernel") {
        None => Ok(CostKernel::Auto),
        Some(s) => CostKernel::parse(s),
    }
}

/// Effective round executor for a job: `?rounds=` wins, else a
/// non-auto executor the spec asked for, else the server default.
/// Every choice streams byte-identical records (executors are
/// step-identical), so this precedence is purely about throughput and
/// self-description.
fn effective_executor(
    req: &Request,
    spec_executor: RoundExecutor,
    default: RoundExecutor,
) -> Result<RoundExecutor, String> {
    if let Some(s) = req.query_get("rounds") {
        return RoundExecutor::parse(s);
    }
    Ok(if spec_executor != RoundExecutor::Auto {
        spec_executor
    } else {
        default
    })
}

fn parse_model_param(req: &Request, default: CostModel) -> Result<CostModel, String> {
    match req.query_get("model") {
        None => Ok(default),
        Some("sum") | Some("SUM") => Ok(CostModel::Sum),
        Some("max") | Some("MAX") => Ok(CostModel::Max),
        Some(other) => Err(format!("unknown model {other:?} (sum|max)")),
    }
}

fn build_job_kind(req: &Request, default_executor: RoundExecutor) -> Result<JobKind, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    match req.query_get("type").unwrap_or("scenario") {
        "scenario" => {
            let mut spec = parse_spec(body).map_err(|e| format!("spec: {e}"))?;
            if let Some(s) = req.query_get("seed") {
                spec.seed = s.parse().map_err(|e| format!("seed: {e}"))?;
            }
            // `?seeds=` overrides the sweep width, widening a
            // single-seed spec into a sweep at submit time.
            if let Some(s) = req.query_get("seeds") {
                spec.seeds = s.parse().map_err(|e| format!("seeds: {e}"))?;
                if spec.seeds == 0 {
                    return Err("seeds: must be at least 1".into());
                }
                spec.check_sweep().map_err(|e| format!("seeds: {e}"))?;
            }
            if req.query_get("kernel").is_some() {
                spec.kernel = parse_kernel_param(req)?;
                spec.check_kernel().map_err(|e| format!("kernel: {e}"))?;
            }
            // `?model=` overrides the spec's *default* model (explicit
            // per-phase model overrides in [[phase]] still win, same
            // as offline).
            spec.defaults.model = parse_model_param(req, spec.defaults.model)?;
            spec.defaults.executor =
                effective_executor(req, spec.defaults.executor, default_executor)?;
            Ok(JobKind::Scenario {
                spec: Box::new(spec),
            })
        }
        "verify" => {
            let realization = parse_realization(body).map_err(|e| format!("profile: {e}"))?;
            let kernel = parse_kernel_param(req)?;
            kernel
                .check_size(realization.n())
                .map_err(|e| format!("kernel: {e}"))?;
            Ok(JobKind::Verify {
                realization: Box::new(realization),
                model: parse_model_param(req, CostModel::Sum)?,
                kernel,
                executor: effective_executor(req, RoundExecutor::Auto, default_executor)?,
            })
        }
        other => Err(format!("unknown job type {other:?} (scenario|verify)")),
    }
}

/// Render a terminal job's report response: the default stream report
/// from the job's buffered JSONL — the same lines `JsonlSink` would
/// have written offline, so the HTML is byte-identical to
/// `bbncg report --from` on the streamed output. Callers ensure the
/// job is terminal first.
pub(crate) fn render_job_report(job: &Arc<Job>) -> (u16, &'static str, &'static str, Vec<u8>) {
    let status = job.status();
    if status != JobStatus::Completed {
        return (
            409,
            "Conflict",
            "application/json",
            error_body(&format!("job is {} — no report", status.label())),
        );
    }
    let mut jsonl = String::new();
    for line in job.lines.snapshot() {
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    match bbncg_report::render_stream_report(&jsonl) {
        Ok(html) => (200, "OK", "text/html; charset=utf-8", html.into_bytes()),
        Err(e) => (
            500,
            "Internal Server Error",
            "application/json",
            error_body(&e),
        ),
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::client;
    use std::io::{Read, Write};
    use std::time::Duration;

    const TINY_SPEC: &str =
        "[scenario]\nseed = 1\n[init]\nfamily = \"uniform\"\nn = 8\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n";

    fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(bytes).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    /// The key cases of `tests/protocol_edge_cases.rs`, which run on the
    /// default backend (epoll on Linux), on `poll(2)`.
    #[test]
    fn key_protocol_cases_hold_under_the_poll_backend() {
        let cfg = ServerConfig {
            max_body: 4096,
            ..ServerConfig::default()
        };
        let server = spawn_on(cfg, crate::sys::Poller::new_poll()).unwrap();
        assert_eq!(server.conn_mode(), "poll");
        let addr = server.addr().to_string();
        client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

        let h = client::request(&addr, "GET", "/healthz", b"")
            .unwrap()
            .text();
        assert!(h.contains("\"conn\":\"poll\""), "{h}");

        let resp = raw_exchange(&addr, b"GARBAGE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");
        // Rejected from the header alone: no body byte is ever sent.
        let resp = raw_exchange(
            &addr,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");

        let resp = client::request(&addr, "POST", "/jobs", TINY_SPEC.as_bytes()).unwrap();
        assert_eq!(resp.status, 202, "{}", resp.text());
        let id = client::job_id(&resp.text()).unwrap();
        let mut lines = Vec::new();
        client::stream_lines(&addr, &format!("/jobs/{id}/stream"), |l| {
            lines.push(l.to_string());
            true
        })
        .unwrap();
        assert_eq!(lines.len(), 2, "1 phase + summary: {lines:?}");
        assert!(lines[1].contains("\"kind\":\"summary\""), "{lines:?}");

        server.shutdown(false);
        server.join();
    }
}
