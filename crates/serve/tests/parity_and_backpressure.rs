//! The service-level contracts: served record streams are
//! byte-identical to offline runs (single seed and whole sweeps), a
//! full queue answers 429, and shutdown drains gracefully.

use bbncg_serve::{client, spawn, ServerConfig};
use std::time::{Duration, Instant};

const CHURN_SPEC: &str = "\
[scenario]
name = \"parity\"
seed = 11

[init]
family = \"uniform\"
n = 16
budget = 1

[dynamics]
model = \"sum\"
rule = \"exact\"
max_rounds = 200

[[phase]]
kind = \"dynamics\"

[[phase]]
kind = \"arrive\"
count = 2
budget = 1

[[phase]]
kind = \"dynamics\"

[[phase]]
kind = \"delete-edges\"
count = 2

[[phase]]
kind = \"dynamics\"
";

fn offline_lines(spec_text: &str) -> Vec<String> {
    use bbncg_scenario::{parse_spec, run_scenario, run_sweep, MemorySink};
    let spec = parse_spec(spec_text).unwrap();
    let mut sink = MemorySink::default();
    if spec.seeds > 1 {
        for o in run_sweep(&spec, &mut sink) {
            o.unwrap();
        }
    } else {
        run_scenario(&spec, spec.seed, None, &mut sink, None, |_| ()).unwrap();
    }
    sink.records.iter().map(|r| r.to_json()).collect()
}

fn served_lines(addr: &str, spec_text: &str, query: &str) -> Vec<String> {
    let resp =
        client::request(addr, "POST", &format!("/jobs{query}"), spec_text.as_bytes()).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = client::job_id(&resp.text()).unwrap();
    let mut lines = Vec::new();
    client::stream_lines(addr, &format!("/jobs/{id}/stream"), |l| {
        lines.push(l.to_string());
        true
    })
    .unwrap();
    lines
}

#[test]
fn served_stream_is_byte_identical_to_offline_run() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let offline = offline_lines(CHURN_SPEC);
    assert_eq!(offline.len(), 6, "5 phases + summary");
    assert_eq!(served_lines(&addr, CHURN_SPEC, ""), offline);

    // A late stream (job already finished) replays the same bytes.
    let mut replay = Vec::new();
    client::stream_lines(&addr, "/jobs/1/stream", |l| {
        replay.push(l.to_string());
        true
    })
    .unwrap();
    assert_eq!(replay, offline);
    server.shutdown(false);
    server.join();
}

#[test]
fn sweep_jobs_stream_in_seed_order_byte_identically() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let sweep_spec = CHURN_SPEC.replace("seed = 11", "seed = 11\nseeds = 5");
    let offline = offline_lines(&sweep_spec);
    assert_eq!(offline.len(), 30, "5 seeds × (5 phases + summary)");
    assert_eq!(served_lines(&addr, &sweep_spec, ""), offline);
    server.shutdown(false);
    server.join();
}

#[test]
fn submit_time_seed_and_kernel_overrides_apply() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // ?seed= must override the spec seed (and kernels never change
    // records, so ?kernel=queue vs bitset is byte-identical too).
    let reseeded = offline_lines(&CHURN_SPEC.replace("seed = 11", "seed = 77"));
    assert_eq!(served_lines(&addr, CHURN_SPEC, "?seed=77"), reseeded);
    assert_eq!(
        served_lines(&addr, CHURN_SPEC, "?seed=77&kernel=queue"),
        served_lines(&addr, CHURN_SPEC, "?seed=77&kernel=bitset"),
    );

    // ?model= overrides the spec's default model: submitting the sum
    // spec with ?model=max must reproduce the max-spec trajectory.
    let remodelled = offline_lines(&CHURN_SPEC.replace("model = \"sum\"", "model = \"max\""));
    assert_eq!(served_lines(&addr, CHURN_SPEC, "?model=max"), remodelled);

    // ?seeds= widens the single-seed spec into a sweep at submit time.
    let widened = offline_lines(&CHURN_SPEC.replace("seed = 11", "seed = 11\nseeds = 5"));
    assert_eq!(served_lines(&addr, CHURN_SPEC, "?seeds=5"), widened);
    let bad = client::request(&addr, "POST", "/jobs?model=warp", CHURN_SPEC.as_bytes()).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    server.shutdown(false);
    server.join();
}

#[test]
fn healthz_reports_round_executor_mode_and_thread_cap() {
    // /healthz names the round executor jobs default to and the
    // worker-thread cap every parallel primitive obeys, so a benchmark
    // run can record what it measured.
    let server = spawn(ServerConfig {
        default_executor: bbncg_core::RoundExecutor::Sharded,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();
    let h = client::request(&addr, "GET", "/healthz", b"")
        .unwrap()
        .text();
    assert!(h.contains("\"rounds\":\"sharded\""), "{h}");
    assert!(
        h.contains(&format!("\"threads\":{}", bbncg_par::max_threads())),
        "{h}"
    );

    // ?rounds= overrides per job — and executors are step-identical,
    // so the served stream is byte-identical to the offline run of the
    // unmodified spec whatever the mode. A bad mode is a 400 at the
    // door.
    let offline = offline_lines(CHURN_SPEC);
    assert_eq!(
        served_lines(&addr, CHURN_SPEC, "?rounds=sequential"),
        offline
    );
    assert_eq!(served_lines(&addr, CHURN_SPEC, "?rounds=sharded"), offline);
    // The label of the executor sharding replaced still parses.
    assert_eq!(
        served_lines(&addr, CHURN_SPEC, "?rounds=speculative"),
        offline
    );
    let bad = client::request(&addr, "POST", "/jobs?rounds=warp", CHURN_SPEC.as_bytes()).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("round executor"), "{}", bad.text());
    server.shutdown(false);
    server.join();
}

#[test]
fn verify_jobs_answer_with_a_verdict_line() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // A directed triangle of unit budgets is a Nash equilibrium; a path
    // is not.
    let triangle = "bbncg v1\nn 3\nbudgets 1 1 1\narcs\n0 1\n1 2\n2 0\n";
    let lines = served_lines(&addr, triangle, "?type=verify&model=sum");
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("\"kind\":\"verify\""), "{}", lines[0]);
    assert!(lines[0].contains("\"nash\":true"), "{}", lines[0]);

    let path = "bbncg v1\nn 4\nbudgets 1 1 1 0\narcs\n0 1\n1 2\n2 3\n";
    let lines = served_lines(&addr, path, "?type=verify&model=sum");
    assert!(lines[0].contains("\"nash\":false"), "{}", lines[0]);
    server.shutdown(false);
    server.join();
}

/// A spec whose exact search cannot run, found only mid-run: an inline
/// n = 40 star whose 39 leaves each own the arc to the centre passes
/// validation (the centre owns nothing), then a `reorient` phase hands
/// the centre about half those arcs, and its exact best response would
/// enumerate some C(39, b) > 5·10⁷ candidates, which the engine refuses
/// with a panic. (An initial profile like that is refused by
/// `parse_spec`; a reorientation cannot be checked ahead.)
fn unenumerable_spec() -> String {
    let arcs: Vec<String> = (1..40).map(|v| format!("[{v}, 0]")).collect();
    format!(
        "[scenario]\nname = \"unenumerable\"\nseed = 1\n\n[init]\nfamily = \"inline\"\n\
         n = 40\narcs = [{}]\n\n[dynamics]\nrule = \"exact\"\n\n[[phase]]\nkind = \"reorient\"\n\
         seed = 1\n\n[[phase]]\nkind = \"dynamics\"\n",
        arcs.join(", ")
    )
}

/// Poll `GET path` until its body satisfies `done`, for up to a minute.
fn poll_body(addr: &str, path: &str, done: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let body = client::request(addr, "GET", path, b"").unwrap().text();
        if done(&body) {
            return body;
        }
        assert!(Instant::now() < deadline, "timed out on {path}: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A job that panics fails alone: it ends `failed` with the panic's
/// message, its stream closes, and the server's only worker goes on to
/// serve the next job byte-identically to the offline run.
#[test]
fn a_panicking_job_fails_and_its_worker_keeps_serving() {
    let server = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let receipt = client::request(&addr, "POST", "/jobs", unenumerable_spec().as_bytes()).unwrap();
    assert_eq!(receipt.status, 202, "{}", receipt.text());
    let id = client::job_id(&receipt.text()).unwrap();
    let status = poll_body(&addr, &format!("/jobs/{id}"), |b| {
        !b.contains("\"state\":\"queued\"") && !b.contains("\"state\":\"running\"")
    });
    assert!(status.contains("\"state\":\"failed\""), "{status}");
    assert!(status.contains("would enumerate"), "{status}");
    let mut records = 0;
    client::stream_lines(&addr, &format!("/jobs/{id}/stream"), |_| {
        records += 1;
        true
    })
    .unwrap();
    assert_eq!(records, 1, "the job failed in its second phase");

    let churn = include_str!("../../../examples/scenarios/churn.toml");
    assert_eq!(served_lines(&addr, churn, ""), offline_lines(churn));
    poll_body(&addr, "/healthz", |b| b.contains("\"running\":0"));
    server.shutdown(false);
    server.join();
}

/// A spec with many cheap phases — long enough to hold a worker while
/// the test queues behind it, cancellable at every phase boundary.
fn long_spec(pairs: usize) -> String {
    let mut s = String::from(
        "[scenario]\nname = \"hold\"\nseed = 3\n\n[init]\nfamily = \"uniform\"\nn = 24\nbudget = 1\n",
    );
    for _ in 0..pairs {
        s.push_str("\n[[phase]]\nkind = \"reorient\"\n\n[[phase]]\nkind = \"dynamics\"\n");
    }
    s
}

#[test]
fn full_queue_answers_429_backpressure() {
    let server = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // A: occupies the only worker.
    let a = client::request(&addr, "POST", "/jobs", long_spec(400).as_bytes()).unwrap();
    assert_eq!(a.status, 202);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let h = client::request(&addr, "GET", "/healthz", b"")
            .unwrap()
            .text();
        if h.contains("\"running\":1") && h.contains("\"queue_depth\":0") {
            break;
        }
        assert!(Instant::now() < deadline, "job A never started: {h}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // B: fills the queue. C: bounced with 429.
    let b = client::request(&addr, "POST", "/jobs", long_spec(400).as_bytes()).unwrap();
    assert_eq!(b.status, 202);
    let c = client::request(&addr, "POST", "/jobs", long_spec(400).as_bytes()).unwrap();
    assert_eq!(c.status, 429, "{}", c.text());
    assert!(c.text().contains("queue full"), "{}", c.text());

    // Cancelling the *queued* job must free its slot immediately —
    // while A still occupies the worker, a fresh submission is
    // accepted the moment B's corpse leaves the queue.
    let resp = client::request(&addr, "POST", "/jobs/2/cancel", b"").unwrap();
    assert_eq!(resp.status, 200);
    let refill = client::request(&addr, "POST", "/jobs", long_spec(400).as_bytes()).unwrap();
    assert_eq!(
        refill.status,
        202,
        "queued-job cancel must release the queue slot at once: {}",
        refill.text()
    );

    // Backpressure is load, not lockout: cancel everything (the 429'd
    // submission never got an id, so the refill is job 3), and the
    // next submission is accepted again.
    for id in [1, 3] {
        let resp = client::request(&addr, "POST", &format!("/jobs/{id}/cancel"), b"").unwrap();
        assert_eq!(resp.status, 200);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let h = client::request(&addr, "GET", "/healthz", b"")
            .unwrap()
            .text();
        if h.contains("\"running\":0") && h.contains("\"queue_depth\":0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancellations never drained: {h}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let d = client::request(&addr, "POST", "/jobs", CHURN_SPEC.as_bytes()).unwrap();
    assert_eq!(d.status, 202);
    server.shutdown(true);
    server.join();
}

#[test]
fn shutdown_drains_gracefully() {
    let server = spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Three quick jobs land in the queue, then the drain begins.
    for _ in 0..3 {
        let resp = client::request(&addr, "POST", "/jobs", CHURN_SPEC.as_bytes()).unwrap();
        assert_eq!(resp.status, 202);
    }
    let resp = client::request(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"), "{}", resp.text());

    // New submissions are refused while draining (the accept loop may
    // already be gone, in which case the connection itself fails —
    // both are valid refusals).
    if let Ok(refused) = client::request(&addr, "POST", "/jobs", CHURN_SPEC.as_bytes()) {
        assert_eq!(refused.status, 503, "{}", refused.text());
    }

    // join() returning proves the workers ran the queue dry; every
    // accepted job reached a terminal state with its full stream.
    let offline = offline_lines(CHURN_SPEC);
    for id in 1..=3 {
        let job = server.job(id).expect("accepted job retained");
        assert_eq!(
            job.wait_terminal(),
            bbncg_serve::JobStatus::Completed,
            "job {id}"
        );
        assert_eq!(job.lines.snapshot(), offline, "job {id}");
    }
    server.join();
}

#[test]
fn terminal_job_history_is_bounded() {
    let server = spawn(ServerConfig {
        workers: 1,
        history_limit: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Five quick jobs, each run to completion before the next submit,
    // so every submission sees the previous ones terminal.
    for expect_id in 1..=5u64 {
        let lines = served_lines(&addr, CHURN_SPEC, "");
        assert_eq!(lines.len(), 6, "job {expect_id}");
    }
    // One more submission triggers eviction of everything beyond the
    // 2-job history; the newest terminal jobs and the fresh one stay.
    let resp = client::request(&addr, "POST", "/jobs", CHURN_SPEC.as_bytes()).unwrap();
    assert_eq!(resp.status, 202);
    let old = client::request(&addr, "GET", "/jobs/1", b"").unwrap();
    assert_eq!(old.status, 404, "evicted job must be gone: {}", old.text());
    let kept = client::request(&addr, "GET", "/jobs/5", b"").unwrap();
    assert_eq!(kept.status, 200, "{}", kept.text());
    server.shutdown(false);
    server.join();
}
