//! The bbncg benchmark: one process runs one named workload and prints
//! its metrics, the last line of standard output being one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload exact-sum-n512 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics ([`END_TO_END`]) and
//! never switches observability on. `--trace 1` measures the per-layer
//! metrics ([`PER_LAYER`]) in a process that first repeats a shorter
//! untraced measurement, then enables `bbncg_obs`, installs an
//! in-memory trace sink and drives the same inputs again with spans
//! around every call into a layer. Workloads, inputs and the
//! layer-to-metric map are described in `README.md`.

mod offline;
mod parse;
mod serve_churn;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

/// Every workload, by name.
pub const WORKLOADS: [&str; 4] = [
    "exact-sum-n512",
    "swap-sum-n512",
    "swap-sum-n16384",
    "serve-churn",
];

/// The end-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports: `(name, unit)`. A
/// layer the workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("setup.generate_s", "s"),
    ("setup.engine_s", "s"),
    ("setup.server_s", "s"),
    ("round.first_s", "s"),
    ("round.rest_s", "s"),
    ("round.exec_self_s", "s"),
    ("round.cpu_util", "ratio"),
    ("round.evals_per_activation", "count"),
    ("round.commit_ratio", "ratio"),
    ("round.discard_ratio", "ratio"),
    ("activation.p50_us", "us"),
    ("activation.p90_us", "us"),
    ("activation.move_ratio", "ratio"),
    ("kernel.priced_per_activation", "count"),
    ("kernel.prune_ratio", "ratio"),
    ("kernel.ns_per_priced", "ns"),
    ("kernel.base_repair_ratio", "ratio"),
    ("kernel.sssp_repairs_per_activation", "count"),
    ("kernel.repair_fallbacks", "count"),
    ("kernel.abort_ratio", "ratio"),
    ("kernel.bound_cache_hit_ratio", "ratio"),
    ("scenario.dynamics_phase_p50_us", "us"),
    ("scenario.event_phase_p50_us", "us"),
    ("http.submit_p50_us", "us"),
    ("http.submit_p99_us", "us"),
    ("http.keepalive_reuse_ratio", "ratio"),
    ("http.retries_429", "count"),
    ("job.queue_wait_p50_us", "us"),
    ("job.queue_wait_p99_us", "us"),
    ("job.run_p50_us", "us"),
    ("job.run_p99_us", "us"),
    ("worker.busy_ratio", "ratio"),
    ("stream.tail_p50_us", "us"),
    ("stream.tail_p99_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_p50_ms", "ms"),
    ("cache.miss_p50_ms", "ms"),
    ("trace.time_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
];

/// What one run measured. `metrics` holds whichever catalogue entries
/// the workload produced; the printer completes and orders them.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: trajectories, activations or jobs.
    pub attempted: u64,
    /// Operations that panicked or whose output failed its check.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Print one `# name = value unit` line for a figure that goes to
    /// the reader only, not into the result object.
    pub fn note(name: &str, value: f64, unit: &str, detail: &str) {
        println!("# {name} = {value} {unit} {detail}");
    }
}

/// Switch observability on for the rest of the process and collect
/// spans in memory.
pub fn install_memory_tracer() -> Arc<Mutex<Vec<bbncg_obs::TraceRecord>>> {
    bbncg_obs::enable();
    let sink = bbncg_obs::MemoryTraceSink::default();
    let records = Arc::clone(&sink.records);
    bbncg_obs::install_tracer(Box::new(sink));
    records
}

/// Write the collected spans to `bench-out/trace-<workload>-<seed>.jsonl`.
pub fn write_trace(records: &Mutex<Vec<bbncg_obs::TraceRecord>>, workload: &str, seed: u64) {
    let records = records.lock().expect("trace sink poisoned");
    let mut text = String::with_capacity(records.len() * 96);
    for r in records.iter() {
        text.push_str(&r.to_json());
        text.push('\n');
    }
    let path = format!("bench-out/trace-{workload}-{seed}.jsonl");
    match std::fs::create_dir_all("bench-out").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# {} spans written to {path}", records.len()),
        Err(e) => println!("# trace not written ({path}: {e})"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit the checkout came from, when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .split_whitespace()
                    .next()
                    .map(String::from)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object: every metric of the chosen catalogue, in
/// catalogue order, and nothing else.
fn result_line(out: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted > 0 && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bbncg-benchmark: {e}");
            eprintln!("usage: bbncg-benchmark --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} threads={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc(),
        bbncg_par::max_threads(),
        commit()
    );
    let mut out = match args.workload.as_str() {
        "exact-sum-n512" => offline::trajectories(
            &offline::EXACT_SUM_N512,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "swap-sum-n512" => {
            offline::trajectories(&offline::SWAP_SUM_N512, args.seed, args.seconds, args.trace)
        }
        "swap-sum-n16384" => offline::activations(args.seed, args.seconds, args.trace),
        "serve-churn" => serve_churn::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    out.set("peak_rss_mib", stats::peak_rss_mib());
    Outcome::note(
        "error_rate",
        stats::ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        &format!("({} failed of {} attempted)", out.failed, out.attempted),
    );
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("# {name} = {v} {unit}");
    }
    println!("{}", result_line(&out, catalogue));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues here and the metric lists of `BENCHMARK.json`
    /// must name the same metrics with the same units.
    #[test]
    fn catalogues_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) not in BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let entries = json.matches("\"unit\": ").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut out = Outcome {
            attempted: 4,
            failed: 0,
            ..Outcome::default()
        };
        out.set("setup_s", 0.25);
        out.set("not_in_catalogue", 1.0);
        let line = result_line(&out, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(!line.contains("not_in_catalogue"));
        out.failed = 1;
        assert!(result_line(&out, &END_TO_END).starts_with("{\"correct\": false"));
    }
}
