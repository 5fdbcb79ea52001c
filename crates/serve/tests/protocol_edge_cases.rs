//! Server protocol edge cases: malformed request lines, oversized
//! bodies, bad submissions, clients that vanish mid-stream, slow-loris
//! trickles, and keep-alive reuse/pipelining. The server must answer
//! 4xx where an answer is possible, and must never panic or leak a
//! queue/worker slot. These run on the default readiness backend
//! (epoll on Linux); the key cases also run on `poll(2)` in the
//! crate's own `server` tests, through the crate-private backend seam.

use bbncg_serve::{client, spawn, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TINY_SPEC: &str = "\
[scenario]
name = \"edge\"
seed = 1

[init]
family = \"uniform\"
n = 8
budget = 1

[[phase]]
kind = \"dynamics\"
";

/// A spec with many cheap phases: long enough to still be running when
/// the test pokes at it, cancellable at every phase boundary.
fn long_spec(pairs: usize) -> String {
    let mut s = String::from(
        "[scenario]\nname = \"long\"\nseed = 2\n\n[init]\nfamily = \"uniform\"\nn = 24\nbudget = 1\n",
    );
    for _ in 0..pairs {
        s.push_str("\n[[phase]]\nkind = \"reorient\"\n\n[[phase]]\nkind = \"dynamics\"\n");
    }
    s
}

fn poll_until(what: &str, deadline: Duration, f: impl Fn() -> bool) {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for: {what}");
}

/// Pull an integer field out of a flat JSON body.
fn json_int(body: &str, key: &str) -> i64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .unwrap()
}

fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(bytes).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn malformed_request_lines_get_400() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    for garbage in [
        "GARBAGE\r\n\r\n",
        "GET\r\n\r\n",
        "GET /healthz\r\n\r\n",
        "get /healthz HTTP/1.1\r\n\r\n",
        "GET healthz HTTP/1.1\r\n\r\n",
        "GET /healthz SPDY/9\r\n\r\n",
        "POST /jobs HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
        "POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
    ] {
        let resp = raw_exchange(&addr, garbage.as_bytes());
        assert!(
            resp.starts_with("HTTP/1.1 400"),
            "{garbage:?} answered {resp:?}"
        );
    }

    // The server is fully alive afterwards.
    let health = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    server.shutdown(false);
    server.join();
}

#[test]
fn oversized_bodies_get_413_before_buffering() {
    let server = spawn(ServerConfig {
        max_body: 4096,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Declared oversize: rejected from the Content-Length header alone
    // (no 5 MiB ever crosses the wire, let alone the parser).
    let resp = raw_exchange(
        &addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");

    // An over-long head is capped too.
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
        "x".repeat(64 * 1024)
    );
    let resp = raw_exchange(&addr, huge_header.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");

    // Within the cap still works.
    let ok = client::request(&addr, "POST", "/jobs", TINY_SPEC.as_bytes()).unwrap();
    assert_eq!(ok.status, 202, "{}", ok.text());
    server.shutdown(false);
    server.join();
}

#[test]
fn bad_submissions_and_unknown_routes() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Unparseable spec: 400 with the parser's line-numbered message.
    let resp = client::request(&addr, "POST", "/jobs", b"[init]\nwat = \"???\"").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("spec"), "{}", resp.text());

    // Duplicate-key specs bounce at the door with the hardened parser.
    let dup = TINY_SPEC.replace("seed = 1\n", "seed = 1\nseed = 2\n");
    let resp = client::request(&addr, "POST", "/jobs", dup.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("duplicate key"), "{}", resp.text());

    // Unknown job type, bad verify profile, unknown routes, bad ids.
    let resp = client::request(&addr, "POST", "/jobs?type=warp", b"").unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::request(&addr, "POST", "/jobs?type=verify", b"not a profile").unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::request(&addr, "GET", "/frobnicate", b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::request(&addr, "GET", "/jobs/999", b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::request(&addr, "GET", "/jobs/notanumber/stream", b"").unwrap();
    assert_eq!(resp.status, 404);
    server.shutdown(false);
    server.join();
}

#[test]
fn oversized_instances_get_400_and_the_server_stays_up() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Submissions are parsed on the event-loop thread, so a spec that
    // made the parser allocate its instance (10¹⁰ vertices here) would
    // abort the whole server, not just fail its own request.
    let huge_n = "[init]\nfamily = \"uniform\"\nn = 10000000000\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n";
    let wide_sweep = TINY_SPEC.replace("seed = 1\n", "seed = 1\nseeds = 1000000000000000\n");
    let tall_tree = "[init]\nfamily = \"btree\"\nparams = [70]\n[[phase]]\nkind = \"dynamics\"\n";
    // An explicit bitset kernel past its cap would allocate an n²/8-byte
    // matrix per engine: asked for in the spec, by `?kernel=`, or for a
    // posted profile's audit.
    let wide =
        "[init]\nfamily = \"uniform\"\nn = 20000\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n";
    let wide_bitset = wide.replace("[[phase]]", "[dynamics]\nkernel = \"bitset\"\n[[phase]]");
    let wide_profile = format!("bbncg v1\nn 20000\nbudgets{}\narcs\n", " 0".repeat(20000));
    // A verify job audits every player exactly, and player 0 here
    // would face C(39, 20) candidates.
    let mut unenumerable = format!("bbncg v1\nn 40\nbudgets 20{}\narcs\n", " 1".repeat(39));
    (1..=20).for_each(|v| unenumerable.push_str(&format!("0 {v}\n")));
    (1..40).for_each(|v| unenumerable.push_str(&format!("{v} 0\n")));
    // A value nested 10 000 arrays deep would overflow the parser's
    // stack if it recursed without a bound.
    let deep = format!(
        "[init]\nfamily = \"path\"\nparams = {}\n",
        "[".repeat(10_000)
    );
    for (target, body, want) in [
        (
            "/jobs",
            wide_bitset.as_str(),
            "line 5: [dynamics] kernel bitset reaches 20000 vertices",
        ),
        (
            "/jobs?kernel=bitset",
            wide,
            "kernel: [dynamics] kernel bitset reaches 20000 vertices",
        ),
        (
            "/jobs?type=verify&kernel=bitset",
            wide_profile.as_str(),
            "kernel: kernel bitset reaches 20000 vertices",
        ),
        (
            "/jobs?type=verify",
            unenumerable.as_str(),
            "profile: player 0 owns 20 arcs among 40 vertices: \
             the exact search would enumerate 68923264410 candidates",
        ),
        (
            "/jobs",
            huge_n,
            "line 1: [init] reaches 10000000000 vertices",
        ),
        (
            "/jobs",
            wide_sweep.as_str(),
            "line 1: seeds = 1000000000000000",
        ),
        (
            "/jobs",
            tall_tree,
            "line 1: [init] family \\\"btree\\\" [70]",
        ),
        (
            "/jobs?seeds=1000000000000000",
            TINY_SPEC,
            "seeds: seeds = 1000000000000000",
        ),
        (
            "/jobs",
            deep.as_str(),
            "line 3: arrays nest deeper than 32 levels",
        ),
    ] {
        let resp = client::request(&addr, "POST", target, body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{target}: {}", resp.text());
        assert!(resp.text().contains(want), "{target}: {}", resp.text());
    }

    let health = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(json_int(&health.text(), "jobs"), 0, "{}", health.text());
    server.shutdown(false);
    server.join();
}

#[test]
fn disconnect_mid_stream_leaks_nothing() {
    let server = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let resp = client::request(&addr, "POST", "/jobs", long_spec(300).as_bytes()).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());

    // Follow the stream briefly, then hang up mid-job.
    let mut seen = 0;
    client::stream_lines(&addr, "/jobs/1/stream", |_| {
        seen += 1;
        seen < 3
    })
    .unwrap();
    assert_eq!(seen, 3);

    // The job is untouched by the vanished client: still running (or
    // at least not failed), a fresh stream replays from the start, and
    // cancel + drain reclaim the worker.
    let status = client::request(&addr, "GET", "/jobs/1", b"").unwrap();
    assert!(
        !status.text().contains("failed"),
        "job damaged by client disconnect: {}",
        status.text()
    );
    let cancel = client::request(&addr, "POST", "/jobs/1/cancel", b"").unwrap();
    assert_eq!(cancel.status, 200);
    poll_until(
        "cancelled job to stop running",
        Duration::from_secs(30),
        || {
            let h = client::request(&addr, "GET", "/healthz", b"").unwrap();
            json_int(&h.text(), "running") == 0
        },
    );

    // The reclaimed worker happily runs the next job to completion.
    let resp = client::request(&addr, "POST", "/jobs", TINY_SPEC.as_bytes()).unwrap();
    assert_eq!(resp.status, 202);
    let mut lines = Vec::new();
    client::stream_lines(&addr, "/jobs/2/stream", |l| {
        lines.push(l.to_string());
        true
    })
    .unwrap();
    assert_eq!(lines.len(), 2, "1 phase + summary: {lines:?}");
    assert!(lines[1].contains("\"kind\":\"summary\""));
    let status = client::request(&addr, "GET", "/jobs/2", b"").unwrap();
    assert!(
        status.text().contains("\"state\":\"completed\""),
        "{}",
        status.text()
    );
    server.shutdown(true);
    server.join();
}

#[test]
fn slow_loris_trickles_are_culled_by_the_read_deadline() {
    let server = spawn(ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // A partial request line that never completes: the server must cut
    // the connection (EOF, no response) instead of pinning a slot.
    let mut loris = TcpStream::connect(&addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    loris.write_all(b"GET /healthz HT").unwrap();
    let mut out = Vec::new();
    let n = loris.read_to_end(&mut out).unwrap_or(0);
    assert_eq!(n, 0, "culled mid-head, no response: {out:?}");

    // A connection that sends nothing at all is culled the same way.
    let mut silent = TcpStream::connect(&addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let n = silent.read_to_end(&mut out).unwrap_or(0);
    assert_eq!(n, 0);

    // Honest clients are untouched before, during, and after.
    let health = client::request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    server.shutdown(false);
    server.join();
}

#[test]
fn keep_alive_reuses_one_connection_and_honours_pipelining() {
    let server = spawn(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // One connection, many exchanges: status → submit → stream → status.
    let mut conn = client::Conn::new(&addr);
    let h = conn.request("GET", "/healthz", b"").unwrap();
    assert_eq!(h.status, 200);
    assert!(conn.is_connected(), "keep-alive retained after healthz");
    let resp = conn.request("POST", "/jobs", TINY_SPEC.as_bytes()).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = client::job_id(&resp.text()).unwrap();
    let mut lines = Vec::new();
    conn.stream_lines(&format!("/jobs/{id}/stream"), |l| {
        lines.push(l.to_string());
        true
    })
    .unwrap();
    assert_eq!(lines.len(), 2, "1 phase + summary: {lines:?}");
    assert!(
        conn.is_connected(),
        "a fully-followed stream keeps the connection"
    );
    let h = conn.request("GET", "/healthz", b"").unwrap();
    assert_eq!(h.status, 200);

    // Raw pipelining: two requests in one write, two in-order
    // responses on one connection (the second asks to close, which
    // bounds the read).
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\nGET /jobs HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let text = String::from_utf8_lossy(&out);
    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        2,
        "two pipelined responses: {text}"
    );
    // In-order: healthz doc first, then the jobs array as the final
    // body on the closed connection.
    let health_at = text.find("\"status\":\"ok\"").unwrap();
    let jobs_at = text.find("[{\"job\":").unwrap();
    assert!(health_at < jobs_at, "responses in request order: {text}");
    assert!(text.trim_end().ends_with("]"), "{text}");
    server.shutdown(false);
    server.join();
}

#[test]
fn cancel_is_idempotent_and_queued_jobs_cancel_instantly() {
    let server = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Occupy the single worker, then queue a second job behind it.
    let a = client::request(&addr, "POST", "/jobs", long_spec(300).as_bytes()).unwrap();
    assert_eq!(a.status, 202);
    poll_until("job 1 to start", Duration::from_secs(30), || {
        let h = client::request(&addr, "GET", "/healthz", b"").unwrap();
        json_int(&h.text(), "running") == 1
    });
    let b = client::request(&addr, "POST", "/jobs", TINY_SPEC.as_bytes()).unwrap();
    assert_eq!(b.status, 202);

    // Cancelling the queued job retires it without a worker ever
    // touching it; its stream is an immediate clean EOF.
    let resp = client::request(&addr, "POST", "/jobs/2/cancel", b"").unwrap();
    assert!(
        resp.text().contains("\"state\":\"cancelled\""),
        "{}",
        resp.text()
    );
    let mut got_lines = 0;
    client::stream_lines(&addr, "/jobs/2/stream", |_| {
        got_lines += 1;
        true
    })
    .unwrap();
    assert_eq!(
        got_lines, 0,
        "cancelled-while-queued job must stream nothing"
    );

    // Cancel the running one twice: same answer, no error.
    for _ in 0..2 {
        let resp = client::request(&addr, "POST", "/jobs/1/cancel", b"").unwrap();
        assert_eq!(resp.status, 200);
    }
    poll_until("job 1 to cancel", Duration::from_secs(30), || {
        let s = client::request(&addr, "GET", "/jobs/1", b"").unwrap();
        s.text().contains("\"state\":\"cancelled\"")
    });
    server.shutdown(false);
    server.join();
}
