//! `serve-churn`: an in-process server configured the way `bbncg serve`
//! configures it, under a closed loop of one keep-alive client per CPU,
//! each posting the churn scenario and streaming its result to the last
//! byte.

use crate::parse::{self, JobTimings};
use crate::stats::{self, micros, percentile, ratio};
use crate::{install_memory_tracer, write_trace, Outcome};
use bbncg_core::{CostKernel, CostModel, RoundExecutor};
use bbncg_scenario::{
    fnv1a, parse_spec, run_scenario, InitSpec, MemorySink, PhaseSpec, ScenarioSpec,
};
use bbncg_serve::{client, spawn, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

const CHURN_SPEC: &str = include_str!("../../examples/scenarios/churn.toml");

/// Server spawns per run; `setup_s` is their median. One spawn takes
/// a fraction of a millisecond, and single readings that short scatter
/// by half.
const SETUP_REPEATS: usize = 25;

/// `bbncg serve`'s default result-cache capacity.
const CACHE_CAPACITY: usize = 128;

/// One submission in this many repeats a recently completed job.
const REPEAT_EVERY: u64 = 4;

/// How far back a repeat may reach, in this client's own jobs.
const RECENT: usize = 8;

/// Sample capacity reserved per client and second of load, well above
/// the rate one closed-loop client reaches.
const MAX_JOBS_PER_CLIENT_PER_S: f64 = 5000.0;

/// What one submission asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct JobKey {
    seed: u64,
    max: bool,
}

impl JobKey {
    fn model(self) -> &'static str {
        if self.max {
            "max"
        } else {
            "sum"
        }
    }
}

/// One client's submissions: fresh seeds alternating SUM and MAX, and
/// every [`REPEAT_EVERY`]-th a repeat of one of its last [`RECENT`]
/// jobs, which a closed loop has already seen complete.
struct Schedule {
    rng: StdRng,
    seed: u64,
    client: u64,
    fresh: u64,
    issued: u64,
    recent: VecDeque<JobKey>,
}

impl Schedule {
    fn new(seed: u64, client: u64) -> Schedule {
        Schedule {
            rng: StdRng::seed_from_u64(stats::mix(seed, client)),
            seed,
            client,
            fresh: 0,
            issued: 0,
            recent: VecDeque::with_capacity(RECENT),
        }
    }

    /// The next submission, and whether it repeats a completed one.
    fn next(&mut self) -> (JobKey, bool) {
        self.issued += 1;
        if self.issued.is_multiple_of(REPEAT_EVERY) && !self.recent.is_empty() {
            let i = self.rng.gen_range(0..self.recent.len());
            return (self.recent[i], true);
        }
        let job = JobKey {
            seed: stats::mix(self.seed, (self.client << 40) | self.fresh),
            max: self.fresh % 2 == 1,
        };
        self.fresh += 1;
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(job);
        (job, false)
    }
}

/// One job as the client saw it. Kept small: a run holds tens of
/// thousands, and they count towards the peak RSS the run reports.
struct Sample {
    key: JobKey,
    /// The receipt said the answer came from the cache.
    cached: bool,
    /// Transport and status codes were as expected.
    delivered: bool,
    /// Submit → receipt parsed, µs.
    submit_us: f32,
    /// Stream request → last byte, µs.
    stream_us: f32,
    /// Submit → last byte, µs.
    latency_us: f32,
    /// FNV-1a of the streamed lines, newlines included.
    hash: u64,
    retries_429: u16,
    /// `GET /jobs/{id}` after the stream ended (traced run only).
    timings: Option<Box<JobTimings>>,
}

/// Submit one job and stream it to the last byte; `body` is the
/// caller's reusable buffer for the streamed lines.
fn one_job(
    conn: &mut client::Conn,
    body: &mut String,
    key: JobKey,
    op: u64,
    traced: bool,
) -> Sample {
    let mut s = Sample {
        key,
        cached: false,
        delivered: false,
        submit_us: 0.0,
        stream_us: 0.0,
        latency_us: 0.0,
        hash: 0,
        retries_429: 0,
        timings: None,
    };
    let job_span = bbncg_obs::span("job").field("op", op);
    let t0 = Instant::now();
    let submit_span = bbncg_obs::span("submit")
        .field("parent", "job")
        .field("op", op);
    let target = format!("/jobs?seed={}&model={}", key.seed, key.model());
    let receipt = loop {
        match conn.request("POST", &target, CHURN_SPEC.as_bytes()) {
            Ok(r) if r.status == 429 && s.retries_429 < u16::MAX => {
                s.retries_429 += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            other => break other,
        }
    };
    let receipt = receipt.ok().filter(|r| r.status == 202).map(|r| r.text());
    let id = receipt.as_deref().and_then(client::job_id);
    s.submit_us = micros(t0.elapsed()) as f32;
    drop(submit_span.field("job", id.unwrap_or(0)));
    let Some(id) = id else {
        return s;
    };
    s.cached = receipt.is_some_and(|r| r.contains("\"cached\":true"));
    let stream_span = bbncg_obs::span("stream")
        .field("parent", "job")
        .field("op", op)
        .field("job", id);
    let t1 = Instant::now();
    body.clear();
    let status = conn.stream_lines(&format!("/jobs/{id}/stream"), |line| {
        body.push_str(line);
        body.push('\n');
        true
    });
    s.stream_us = micros(t1.elapsed()) as f32;
    s.latency_us = micros(t0.elapsed()) as f32;
    drop(stream_span);
    drop(job_span.field("job", id).field("cached", s.cached));
    s.hash = fnv1a(body.as_bytes());
    s.delivered = status == Ok(200);
    if traced {
        s.timings = conn
            .request("GET", &format!("/jobs/{id}"), b"")
            .ok()
            .and_then(|r| parse::job_timings(&r.text()))
            .map(Box::new);
    }
    s
}

/// Every client runs its schedule for `budget`; returns each client's
/// samples and the wall time until the last client finished.
fn drive(
    addr: &str,
    schedules: &mut [Schedule],
    budget: Duration,
    traced: bool,
) -> (Vec<Vec<Sample>>, Duration) {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter_mut()
            .map(|sched| {
                scope.spawn(move || {
                    let mut conn = client::Conn::new(addr);
                    let mut body = String::new();
                    // Reserved, never grown: a reallocation would copy
                    // every sample and show in the peak RSS.
                    let mut samples = Vec::with_capacity(
                        (budget.as_secs_f64() * MAX_JOBS_PER_CLIENT_PER_S) as usize,
                    );
                    while t0.elapsed() < budget {
                        let (key, _) = sched.next();
                        let op = (sched.client << 40) | sched.issued;
                        samples.push(one_job(&mut conn, &mut body, key, op, traced));
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (per_client, t0.elapsed())
}

fn spec_for(base: &ScenarioSpec, key: JobKey) -> ScenarioSpec {
    let mut spec = base.clone();
    spec.seed = key.seed;
    spec.defaults.model = if key.max {
        CostModel::Max
    } else {
        CostModel::Sum
    };
    spec
}

/// The stream hash the offline engine gives for `key`, or `None` when
/// the offline run fails.
fn offline_hash(base: &ScenarioSpec, key: JobKey) -> Option<u64> {
    let spec = spec_for(base, key);
    let mut sink = MemorySink::default();
    run_scenario(&spec, spec.seed, None, &mut sink, None, |_| ()).ok()?;
    let mut body = String::new();
    for r in &sink.records {
        body.push_str(&r.to_json());
        body.push('\n');
    }
    Some(fnv1a(body.as_bytes()))
}

/// Which samples streamed exactly what the offline engine produces.
fn verify(base: &ScenarioSpec, samples: &[&Sample]) -> Vec<bool> {
    let mut keys: Vec<JobKey> = samples.iter().map(|s| s.key).collect();
    keys.sort_unstable();
    keys.dedup();
    let hashes = bbncg_par::par_map(&keys, |_, &k| offline_hash(base, k));
    let oracle: BTreeMap<JobKey, Option<u64>> = keys.into_iter().zip(hashes).collect();
    samples
        .iter()
        .map(|s| s.delivered && oracle[&s.key] == Some(s.hash))
        .collect()
}

fn server_config() -> ServerConfig {
    // As `bbncg serve` sets it up: cache on at its default capacity,
    // one worker per thread the host allows, observability off.
    ServerConfig {
        workers: 0,
        cache_capacity: CACHE_CAPACITY,
        obs: false,
        ..ServerConfig::default()
    }
}

fn stop(server: ServerHandle) {
    server.shutdown(false);
    server.join();
}

fn ms_percentile(latencies: &[f64], p: f64) -> f64 {
    percentile(latencies, p).unwrap_or(0.0) / 1e3
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let base = parse_spec(CHURN_SPEC).expect("churn.toml parses");
    // The churn spec's uniform init lists one budget per player.
    let n = match &base.init {
        InitSpec::Family { params, .. } => params.len(),
        InitSpec::Inline { n, .. } => *n,
    };
    // Serve workers are marked as nested parallel workers, so `Auto`
    // resolves sequential inside jobs.
    println!(
        "# resolved kernel={} executor={} (init n={n}, workers nested)",
        CostKernel::Auto.resolve(n),
        RoundExecutor::Auto.resolve_with(n, bbncg_par::max_threads(), stats::nproc(), true)
    );
    let t_setups = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            stop(old);
        }
        let t = Instant::now();
        let s = spawn(server_config()).expect("server spawns");
        client::wait_ready(&s.addr().to_string(), Duration::from_secs(10)).expect("server ready");
        setups.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    println!("# set-up loop: {:.3} s", t_setups.elapsed().as_secs_f64());
    let addr = server.addr().to_string();
    let workers = server.workers();
    let clients = stats::nproc();
    println!("# closed loop: {clients} keep-alive clients, {workers} workers");

    let mut schedules: Vec<Schedule> = (0..clients as u64)
        .map(|c| Schedule::new(seed, c))
        .collect();
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let c0 = stats::cpu_seconds();
    let (per_client, wall) = drive(&addr, &mut schedules, budget, false);
    let cpu = stats::cpu_seconds() - c0;
    let samples: Vec<&Sample> = per_client.iter().flatten().collect();
    let ok = verify(&base, &samples);
    let verified = ok.iter().filter(|&&v| v).count();
    let mut out = Outcome {
        attempted: samples.len() as u64,
        failed: (samples.len() - verified) as u64,
        ..Outcome::default()
    };
    let setup = stats::setup_median(&setups);
    out.set("setup_s", setup);
    out.set("setup.server_s", setup);
    let jobs_per_s = ratio(verified as f64, wall.as_secs_f64());
    out.set("throughput_per_s", jobs_per_s);
    Outcome::note(
        "cpu_ms_per_op",
        ratio(cpu * 1e3, samples.len() as f64),
        "ms",
        "(process CPU time per operation)",
    );
    let latencies: Vec<f64> = samples
        .iter()
        .zip(&ok)
        .filter(|(_, &v)| v)
        .map(|(s, _)| f64::from(s.latency_us))
        .collect();
    let hits = samples.iter().filter(|s| s.cached).count();
    let count = format!("({} jobs, {hits} cache hits)", latencies.len());
    Outcome::note("jobs_per_s", jobs_per_s, "1/s", &count);
    Outcome::note("job_p50_ms", ms_percentile(&latencies, 0.5), "ms", &count);
    Outcome::note("job_p99_ms", ms_percentile(&latencies, 0.99), "ms", &count);

    if traced {
        let records = install_memory_tracer();
        let before = crate::offline::KernelCounts::read();
        let (t_per_client, t_wall) = drive(&addr, &mut schedules, budget, true);
        let t_samples: Vec<&Sample> = t_per_client.iter().flatten().collect();
        let page = client::request(&addr, "GET", "/metrics", b"")
            .map(|r| r.text())
            .unwrap_or_default();
        let kernel = crate::offline::KernelCounts::read().since(before);
        let t_ok = verify(&base, &t_samples);
        let t_verified = t_ok.iter().filter(|&&v| v).count();
        out.attempted += t_samples.len() as u64;
        out.failed += (t_samples.len() - t_verified) as u64;
        layer_metrics(&base, &t_samples, t_wall, workers, &page, &mut out);
        out.set(
            "kernel.prune_ratio",
            ratio(kernel.skips as f64, (kernel.priced + kernel.skips) as f64),
        );
        out.set(
            "trace.time_ratio",
            ratio(
                t_wall.as_secs_f64() / t_samples.len().max(1) as f64,
                wall.as_secs_f64() / samples.len().max(1) as f64,
            ),
        );
        write_trace(&records, "serve-churn", seed);
    }
    stop(server);
    out
}

/// The per-layer metrics of the traced phase.
fn layer_metrics(
    base: &ScenarioSpec,
    samples: &[&Sample],
    wall: Duration,
    workers: usize,
    page: &str,
    out: &mut Outcome,
) {
    let us = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.delivered)
            .filter_map(|s| f(s))
            .collect()
    };
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    // Jobs this submission computed carry their own server timings; a
    // cache hit's timings belong to the job it replays.
    let computed = |s: &Sample| -> Option<(u64, u64)> {
        let t = s.timings.as_ref()?;
        if s.cached || t.state != "completed" {
            return None;
        }
        Some((t.queue_wait_us?, t.run_us?))
    };
    let submit = us(&|s| Some(f64::from(s.submit_us)));
    let queue = us(&|s| computed(s).map(|(q, _)| q as f64));
    let run = us(&|s| computed(s).map(|(_, r)| r as f64));
    let tail = us(&|s| {
        let (q, r) = if s.cached { (0, 0) } else { computed(s)? };
        Some(f64::from(s.stream_us) - q as f64 - r as f64)
    });
    out.set("http.submit_p50_us", p(&submit, 0.5));
    out.set("http.submit_p99_us", p(&submit, 0.99));
    out.set(
        "http.retries_429",
        samples
            .iter()
            .map(|s| u64::from(s.retries_429))
            .sum::<u64>() as f64,
    );
    out.set("job.queue_wait_p50_us", p(&queue, 0.5));
    out.set("job.queue_wait_p99_us", p(&queue, 0.99));
    out.set("job.run_p50_us", p(&run, 0.5));
    out.set("job.run_p99_us", p(&run, 0.99));
    out.set(
        "worker.busy_ratio",
        ratio(run.iter().sum::<f64>(), workers as f64 * micros(wall)),
    );
    out.set("stream.tail_p50_us", p(&tail, 0.5));
    out.set("stream.tail_p99_us", p(&tail, 0.99));
    let latency = |cached: bool| us(&|s| (s.cached == cached).then_some(f64::from(s.latency_us)));
    out.set("cache.hit_p50_ms", p(&latency(true), 0.5) / 1e3);
    out.set("cache.miss_p50_ms", p(&latency(false), 0.5) / 1e3);
    let dynamics: Vec<bool> = base
        .phases
        .iter()
        .map(|ph| matches!(ph, PhaseSpec::Dynamics { .. }))
        .collect();
    let phases = |want: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| !s.cached)
            .filter_map(|s| s.timings.as_ref())
            .filter(|t| t.state == "completed")
            .flat_map(|t| t.phase_us.iter().zip(&dynamics))
            .filter(|(_, &d)| d == want)
            .map(|(&us, _)| us as f64)
            .collect()
    };
    out.set("scenario.dynamics_phase_p50_us", p(&phases(true), 0.5));
    out.set("scenario.event_phase_p50_us", p(&phases(false), 0.5));
    let prom = |series: &str| parse::prom_value(page, series).unwrap_or(0.0);
    out.set(
        "http.keepalive_reuse_ratio",
        ratio(
            prom("bbncg_http_keepalive_reuses_total"),
            prom("bbncg_http_requests_total"),
        ),
    );
    let hit = prom("bbncg_serve_cache_total{result=\"hit\"}");
    let lookups = hit
        + prom("bbncg_serve_cache_total{result=\"miss\"}")
        + prom("bbncg_serve_cache_total{result=\"coalesced\"}");
    out.set("cache.hit_ratio", ratio(hit, lookups));
    // Accounting: submit + queue wait + run + tail covers each job's
    // span but for the client-side gap between receipt and stream.
    let job_total: f64 = us(&|s| Some(f64::from(s.latency_us))).iter().sum();
    let parts: f64 = us(&|s| Some(f64::from(s.submit_us + s.stream_us)))
        .iter()
        .sum();
    out.set(
        "trace.unaccounted_ratio",
        ratio(job_total - parts, job_total),
    );
    println!(
        "# accounting: submit {:.0} us + queue {:.0} us + run {:.0} us + tail {:.0} us \
         of {:.0} us job latency (sums over {} jobs)",
        submit.iter().sum::<f64>(),
        queue.iter().sum::<f64>(),
        run.iter().sum::<f64>(),
        tail.iter().sum::<f64>(),
        job_total,
        submit.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_one_in_four_from_its_own_recent_jobs() {
        let mut s = Schedule::new(3, 1);
        let mut seen = Vec::new();
        for i in 1..=400u64 {
            let (key, repeat) = s.next();
            assert_eq!(repeat, i % REPEAT_EVERY == 0, "submission {i}");
            if repeat {
                let back = seen.len().saturating_sub(RECENT);
                assert!(seen[back..].contains(&key), "repeat {i} reaches too far");
            } else {
                assert!(!seen.contains(&key), "fresh submission {i} repeats");
                seen.push(key);
            }
        }
        let max = seen.iter().filter(|k| k.max).count();
        assert_eq!(max * 2, seen.len(), "fresh jobs alternate SUM and MAX");
    }

    #[test]
    fn schedules_are_reproducible_and_disjoint_across_clients() {
        let run = |seed, client| {
            let mut s = Schedule::new(seed, client);
            (0..50).map(|_| s.next().0).collect::<Vec<_>>()
        };
        assert_eq!(run(7, 0), run(7, 0));
        let a = run(7, 0);
        assert!(run(7, 1).iter().all(|k| !a.contains(k)));
        assert_ne!(run(8, 0), a);
    }

    #[test]
    fn offline_oracle_matches_a_served_stream() {
        let base = parse_spec(CHURN_SPEC).unwrap();
        let server = spawn(server_config()).unwrap();
        let addr = server.addr().to_string();
        let mut conn = client::Conn::new(&addr);
        let mut body = String::new();
        let key = JobKey {
            seed: 42,
            max: true,
        };
        let first = one_job(&mut conn, &mut body, key, 0, true);
        let again = one_job(&mut conn, &mut body, key, 1, false);
        drop(conn);
        stop(server);
        assert!(first.delivered && !first.cached);
        assert!(again.delivered && again.cached, "a repeat is a cache hit");
        assert_eq!(verify(&base, &[&first, &again]), vec![true, true]);
        let other = JobKey {
            seed: 42,
            max: false,
        };
        assert_ne!(offline_hash(&base, key), offline_hash(&base, other));
    }
}
