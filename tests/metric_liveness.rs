//! Every metric in the `bbncg-obs` catalogue moves.
//!
//! One test drives each instrumented layer with the registry on: the
//! cost kernels (budget-2 swap and exact dynamics on each kernel named
//! explicitly), the sharded round executor, the unit-budget closed
//! form, a Nash audit, a scenario sweep with arrive and depart events,
//! and one server session that hits every route over a keep-alive
//! connection. It then asserts that every counter and histogram moved
//! and that every gauge read non-zero at a scrape, apart from the
//! `EXEMPT` list, which gives each entry's reason. A metric nothing
//! increments, or a layer that stopped reporting, fails it.
//!
//! The registry is process-wide, so this file is its own test binary
//! and holds a single test.

use bbncg::game::dynamics::{run_dynamics_with_kernel, DynamicsConfig};
use bbncg::game::{
    audit_equilibrium_with_kernel, exact_best_response_with, BudgetVector, CostKernel, CostModel,
    DeviationScratch, Realization, RoundExecutor,
};
use bbncg::graph::{generators, NodeId, OwnedDigraph};
use bbncg::obs::{self, Counter, Gauge, Histogram};
use bbncg::scenario::{parse_spec, run_sweep, NullSink};
use bbncg::serve::{client, spawn, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const KERNELS: [CostKernel; 2] = [CostKernel::Bitset, CostKernel::Sparse];

/// The reason a retired counter is exempt.
const RETIRED: &str = "retired: nothing increments it; the benchmark package still names it";

/// Counters this test does not require to move, each with its reason.
const EXEMPT: [(Counter, &str); 7] = [
    (Counter::KernelPricedQueue, RETIRED),
    (Counter::KernelPruneSkipQueue, RETIRED),
    (Counter::KernelBaseRepaired, RETIRED),
    (Counter::KernelRepairFallbacks, RETIRED),
    (Counter::KernelBoundCacheHits, RETIRED),
    (Counter::KernelBoundCacheMisses, RETIRED),
    (
        Counter::RoundsDiscards,
        "counts candidates a helper priced before another engine's proof \
         reached it, which depends on thread timing",
    ),
];

fn random_profile(n: usize, budget: usize, seed: u64) -> Realization {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets = BudgetVector::uniform(n, budget);
    Realization::new(generators::random_realization(budgets.as_slice(), &mut rng))
}

fn dynamics(n: usize, budget: usize, cfg: DynamicsConfig, kernel: CostKernel) {
    let mut rng = StdRng::seed_from_u64(1);
    let report = run_dynamics_with_kernel(random_profile(n, budget, 1), cfg, &mut rng, kernel);
    assert!(report.steps > 0, "{kernel:?}: the dynamics made no move");
}

/// Kernels, executors, the closed form and the Nash audit.
fn drive_pricing() {
    for kernel in KERNELS {
        for model in CostModel::ALL {
            let sequential = RoundExecutor::Sequential;
            dynamics(
                24,
                2,
                DynamicsConfig::swap(model, 3).with_executor(sequential),
                kernel,
            );
            dynamics(
                12,
                2,
                DynamicsConfig::exact(model, 2).with_executor(sequential),
                kernel,
            );
        }
        let sharded = DynamicsConfig::swap(CostModel::Sum, 3).with_executor(RoundExecutor::Sharded);
        dynamics(24, 2, sharded, kernel);
    }
    // Unit budgets on one engine: the closed form prices every move,
    // and the run converges, so its last round skips the players the
    // quiet memo already found quiet on the final profile.
    let unit = DynamicsConfig::exact(CostModel::Sum, 5).with_executor(RoundExecutor::Sequential);
    dynamics(24, 1, unit, CostKernel::Auto);
    // The centre of a star that owns every arc has every vertex at
    // distance 1, so its bound prices its one strategy exactly, without
    // a BFS, when a best response asks for its cost. The audit asks only
    // for a cost below the current one, which at the Lemma 2.2 floor
    // needs no pricing.
    let star: Vec<(usize, usize)> = (1..12).map(|leaf| (0, leaf)).collect();
    let star = Realization::new(OwnedDigraph::from_arcs(12, &star));
    for kernel in KERNELS {
        let mut scratch = DeviationScratch::with_kernel(&star, kernel);
        let centre = exact_best_response_with(&mut scratch, &star, NodeId::new(0), CostModel::Sum);
        assert_eq!(centre.cost, 11, "{kernel:?}");
        assert!(audit_equilibrium_with_kernel(&star, CostModel::Sum, kernel).is_nash());
    }
}

/// A three-seed sweep with arrive and depart events.
fn drive_scenarios() {
    let spec = parse_spec(
        "[scenario]\nname = \"liveness\"\nseed = 5\nseeds = 3\n\n\
         [init]\nfamily = \"uniform\"\nn = 12\nbudget = 1\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = 2\nbudget = 1\n\n\
         [[phase]]\nkind = \"depart\"\ncount = 2\n\n\
         [[phase]]\nkind = \"dynamics\"\n",
    )
    .unwrap();
    for outcome in run_sweep(&spec, &mut NullSink) {
        outcome.unwrap();
    }
}

fn small_spec(name: &str) -> String {
    format!(
        "[scenario]\nname = \"{name}\"\nseed = 3\n\n[init]\nfamily = \"uniform\"\nn = 10\n\
         budget = 1\n\n[[phase]]\nkind = \"dynamics\"\n"
    )
}

/// A job that holds the only worker until cancelled: thousands of
/// phases of a few milliseconds each, cancellable at every phase
/// boundary (about 6 s uncancelled in a debug build).
fn hold_spec(name: &str) -> String {
    let mut s = format!(
        "[scenario]\nname = \"{name}\"\nseed = 3\n\n[init]\nfamily = \"uniform\"\nn = 32\n\
         budget = 2\n\n[dynamics]\nrule = \"swap\"\n"
    );
    for _ in 0..4000 {
        s.push_str("\n[[phase]]\nkind = \"reorient\"\n\n[[phase]]\nkind = \"dynamics\"\n");
    }
    s
}

fn job_of(resp: &client::Response) -> u64 {
    assert_eq!(resp.status, 202, "{}", resp.text());
    client::job_id(&resp.text()).expect("receipt names its job")
}

fn ask(conn: &mut client::Conn, method: &str, target: &str, body: &str) -> client::Response {
    conn.request(method, target, body.as_bytes()).unwrap()
}

/// Follow a job's stream to its end.
fn drain(conn: &mut client::Conn, id: u64) {
    let status = conn
        .stream_lines(&format!("/jobs/{id}/stream"), |_| true)
        .unwrap();
    assert_eq!(status, 200);
}

/// One server session over one keep-alive connection: every route, a
/// cache hit, a coalesced duplicate, an eviction, a failed job, a
/// `429`, and cancellations. Returns the gauges read at a scrape taken
/// while one job runs and another waits.
fn drive_server() -> [u64; Gauge::COUNT] {
    let server = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 1,
        obs: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    client::wait_ready(&addr, Duration::from_secs(10)).unwrap();
    let mut conn = client::Conn::new(&addr);

    let done = job_of(&ask(&mut conn, "POST", "/jobs", &small_spec("first")));
    drain(&mut conn, done);
    let hit = ask(&mut conn, "POST", "/jobs", &small_spec("first"));
    assert!(hit.text().contains("\"cached\":true"), "{}", hit.text());
    assert_eq!(
        ask(&mut conn, "GET", &format!("/jobs/{done}/report"), "").status,
        200
    );
    assert_eq!(
        ask(&mut conn, "GET", &format!("/jobs/{done}"), "").status,
        200
    );
    assert_eq!(ask(&mut conn, "GET", "/jobs", "").status, 200);
    assert_eq!(ask(&mut conn, "GET", "/no-such-route", "").status, 404);

    // Departing a vertex the profile does not have fails at run time.
    let failing = "[init]\nfamily = \"uniform\"\nn = 8\nbudget = 1\n\n\
                   [[phase]]\nkind = \"depart\"\nnodes = [99]\n";
    let failed = job_of(&ask(&mut conn, "POST", "/jobs", failing));
    drain(&mut conn, failed);

    // Hold the only worker, then queue behind it.
    let held = job_of(&ask(&mut conn, "POST", "/jobs", &hold_spec("held")));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let health = ask(&mut conn, "GET", "/healthz", "").text();
        if health.contains("\"running\":1") && health.contains("\"queue_depth\":0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the held job never started: {health}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let coalesced = ask(&mut conn, "POST", "/jobs", &hold_spec("held"));
    assert_eq!(job_of(&coalesced), held, "a running duplicate coalesces");
    // The second spec takes the one cache slot from the held job's.
    let queued = job_of(&ask(&mut conn, "POST", "/jobs", &hold_spec("queued")));
    let bounced = ask(&mut conn, "POST", "/jobs", &small_spec("bounced"));
    assert_eq!(bounced.status, 429, "{}", bounced.text());
    assert_eq!(ask(&mut conn, "GET", "/metrics", "").status, 200);
    let gauges = Gauge::ALL.map(obs::gauge_value);
    for id in [queued, held] {
        let cancel = ask(&mut conn, "POST", &format!("/jobs/{id}/cancel"), "");
        assert_eq!(cancel.status, 200, "{}", cancel.text());
        drain(&mut conn, id);
    }

    assert_eq!(ask(&mut conn, "POST", "/shutdown", "").status, 200);
    server.join();
    gauges
}

#[test]
fn every_catalogue_metric_moves() {
    obs::enable();
    let t0 = Instant::now();
    drive_pricing();
    drive_scenarios();
    let gauges = drive_server();
    eprintln!("metric liveness: every layer driven in {:?}", t0.elapsed());

    let exempt = |c: Counter| EXEMPT.iter().any(|&(e, _)| e == c);
    let mut still = Vec::new();
    for c in Counter::ALL.into_iter().filter(|&c| !exempt(c)) {
        if obs::counter_value(c) == 0 {
            still.push(format!("{c:?} {}{{{}}}", c.name(), c.labels()));
        }
    }
    for (g, seen) in Gauge::ALL.into_iter().zip(gauges) {
        if seen == 0 {
            still.push(format!("{g:?} {}", g.name()));
        }
    }
    for h in Histogram::ALL {
        if obs::histogram_snapshot(h).count() == 0 {
            still.push(format!("{h:?} {}{{{}}}", h.name(), h.labels()));
        }
    }
    assert!(still.is_empty(), "metrics that never moved: {still:#?}");

    // A retired counter that moves again is back in use: take it off
    // the exempt list.
    for (c, why) in EXEMPT {
        if why == RETIRED {
            assert_eq!(obs::counter_value(c), 0, "{c:?} moved; it is not retired");
        }
    }
}
