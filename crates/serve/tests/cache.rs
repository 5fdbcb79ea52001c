//! The content-addressed result cache, end to end: identical
//! submissions share one job (hit on completed, coalesce on running),
//! `?nocache=1` bypasses, override params key distinctly, and the LRU
//! bound holds under eviction pressure. Cache pressure is asserted via
//! `/healthz` (per-server stats, no global registry involved).

use bbncg_serve::{client, spawn, ServerConfig};
use std::time::Duration;

const SPEC: &str = "\
[scenario]
name = \"cacheable\"
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
";

/// Pull a numeric field out of a flat JSON document.
fn json_u64(doc: &str, key: &str) -> u64 {
    let at = doc
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {doc}"))
        + key.len()
        + 3;
    doc[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

fn submit(addr: &str, query: &str) -> (u64, bool) {
    let resp = client::request(addr, "POST", &format!("/jobs{query}"), SPEC.as_bytes()).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let text = resp.text();
    (
        client::job_id(&text).unwrap(),
        text.contains("\"cached\":true"),
    )
}

fn stream(addr: &str, id: u64) -> Vec<String> {
    let mut lines = Vec::new();
    client::stream_lines(addr, &format!("/jobs/{id}/stream"), |l| {
        lines.push(l.to_string());
        true
    })
    .unwrap();
    lines
}

fn healthz(addr: &str) -> String {
    client::request(addr, "GET", "/healthz", b"")
        .unwrap()
        .text()
}

#[test]
fn identical_submissions_share_one_job_byte_identically() {
    let server = spawn(ServerConfig {
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let (first, cached) = submit(&addr, "");
    assert!(!cached, "first submission computes");
    let original = stream(&addr, first);
    assert_eq!(original.len(), 4, "3 phases + summary");

    // The duplicate answers with the *same* job — no recompute — and
    // its stream replays the same bytes.
    let (second, cached) = submit(&addr, "");
    assert!(cached, "duplicate must be served from cache");
    assert_eq!(second, first);
    assert_eq!(stream(&addr, second), original);

    // Different source text, same parsed scenario: still one job.
    let reformatted = format!("# a comment\n{SPEC}\n");
    let resp = client::request(&addr, "POST", "/jobs", reformatted.as_bytes()).unwrap();
    assert_eq!(resp.status, 202);
    assert_eq!(client::job_id(&resp.text()), Some(first));

    // /healthz carries the cache block and the connection mode.
    let h = healthz(&addr);
    assert!(
        h.contains(&format!("\"conn\":\"{}\"", server.conn_mode())),
        "{h}"
    );
    assert_eq!(json_u64(&h, "cache_capacity"), 8, "{h}");
    assert_eq!(json_u64(&h, "cache_size"), 1, "{h}");
    assert!(json_u64(&h, "cache_hits") >= 2, "{h}");
    assert_eq!(json_u64(&h, "cache_misses"), 1, "{h}");
    assert!(h.contains("\"cache_hit_rate\":"), "{h}");
    server.shutdown(false);
    server.join();
}

#[test]
fn concurrent_identical_posts_coalesce_onto_one_running_job() {
    // One worker and a slow job: duplicates arriving while it runs
    // must attach to the same job (in-flight coalescing), and every
    // follower sees the identical byte stream.
    let mut spec = String::from(
        "[scenario]\nname = \"slow\"\nseed = 3\n\n[init]\nfamily = \"uniform\"\nn = 24\nbudget = 1\n",
    );
    for _ in 0..12 {
        spec.push_str("\n[[phase]]\nkind = \"reorient\"\n\n[[phase]]\nkind = \"dynamics\"\n");
    }
    let server = spawn(ServerConfig {
        workers: 1,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let ids: Vec<(u64, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.as_str();
                scope.spawn(move || {
                    let resp = client::request(&addr, "POST", "/jobs", spec.as_bytes()).unwrap();
                    assert_eq!(resp.status, 202, "{}", resp.text());
                    let text = resp.text();
                    (
                        client::job_id(&text).unwrap(),
                        text.contains("\"cached\":true"),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one submission computed; the other three coalesced or
    // hit — and all four share the job id (the guard held across
    // lookup→admit makes a double-admit impossible).
    let fresh: Vec<_> = ids.iter().filter(|(_, cached)| !cached).collect();
    assert_eq!(fresh.len(), 1, "{ids:?}");
    let the_id = fresh[0].0;
    assert!(ids.iter().all(|&(id, _)| id == the_id), "{ids:?}");

    let streams: Vec<Vec<String>> = (0..3).map(|_| stream(&addr, the_id)).collect();
    assert_eq!(streams[0].len(), 25, "24 phases + summary");
    assert!(streams.windows(2).all(|w| w[0] == w[1]));

    let h = healthz(&addr);
    assert_eq!(
        json_u64(&h, "cache_hits") + json_u64(&h, "cache_coalesced"),
        3,
        "{h}"
    );
    server.shutdown(false);
    server.join();
}

#[test]
fn nocache_bypasses_and_overrides_key_distinctly() {
    let server = spawn(ServerConfig {
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    let (first, _) = submit(&addr, "");
    let baseline = stream(&addr, first);

    // ?nocache=1 always recomputes — a fresh job, never a receipt with
    // "cached", and the recompute does not poison the cache entry.
    let (bypass, cached) = submit(&addr, "?nocache=1");
    assert_ne!(bypass, first);
    assert!(!cached);
    assert_eq!(stream(&addr, bypass), baseline, "recompute, same bytes");

    // Every override that changes the effective spec keys separately.
    let (reseeded, cached) = submit(&addr, "?seed=77");
    assert_ne!(reseeded, first);
    assert!(!cached);
    let (rekernelled, cached) = submit(&addr, "?kernel=sparse");
    assert!(!cached);
    assert!(rekernelled != first && rekernelled != reseeded);

    // The original key still answers from cache.
    let (again, cached) = submit(&addr, "");
    assert_eq!(again, first);
    assert!(cached);

    // The retired queue kernel's label is accepted and reads as auto,
    // the spec's own kernel: the same ask, so the same entry answers.
    let (legacy, cached) = submit(&addr, "?kernel=queue");
    assert_eq!(legacy, first);
    assert!(cached);

    let h = healthz(&addr);
    assert_eq!(json_u64(&h, "cache_size"), 3, "base + seed77 + sparse: {h}");
    server.shutdown(false);
    server.join();
}

#[test]
fn lru_bound_holds_under_eviction_pressure() {
    let server = spawn(ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();

    // Three distinct keys through a 2-slot cache.
    let (a, _) = submit(&addr, "?seed=1");
    stream(&addr, a);
    let (b, _) = submit(&addr, "?seed=2");
    stream(&addr, b);
    let (c, _) = submit(&addr, "?seed=3");
    stream(&addr, c);

    let h = healthz(&addr);
    assert_eq!(json_u64(&h, "cache_size"), 2, "{h}");
    assert!(json_u64(&h, "cache_evictions") >= 1, "{h}");

    // seed=1 was the coldest — evicted, so resubmitting computes a
    // fresh job; seed=3 is still resident and hits.
    let (a2, cached) = submit(&addr, "?seed=1");
    assert_ne!(a2, a);
    assert!(!cached);
    let (c2, cached) = submit(&addr, "?seed=3");
    assert_eq!(c2, c);
    assert!(cached);
    server.shutdown(false);
    server.join();
}
