//! End-to-end tests spawning the real `bbncg` binary: exit codes,
//! stdin piping, and subcommand chaining.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bbncg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bbncg"))
}

#[test]
fn construct_then_verify_through_a_pipe() {
    let construct = bbncg()
        .args(["construct", "--budgets", "1,1,1,0,2"])
        .output()
        .expect("spawn construct");
    assert!(construct.status.success());
    let profile = String::from_utf8(construct.stdout).unwrap();
    assert!(profile.starts_with("bbncg v1"));

    let mut verify = bbncg()
        .args(["verify", "-", "--model", "sum"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn verify");
    verify
        .stdin
        .as_mut()
        .unwrap()
        .write_all(profile.as_bytes())
        .unwrap();
    let out = verify.wait_with_output().unwrap();
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("Nash equilibrium (SUM) = true"), "{report}");
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    // An option the command does not read fails before anything runs:
    // serve exits instead of binding and blocking.
    for (line, named) in [
        (&["explode"][..], "explode"),
        (
            &["dynamics", "--budgets", "1,1,1", "--bogus", "1"][..],
            "--bogus",
        ),
        (&["serve", "--peers", "127.0.0.1:1"][..], "--peers"),
    ] {
        let out = bbncg().args(line).output().unwrap();
        assert!(!out.status.success(), "{line:?}");
        assert_eq!(out.status.code(), Some(2), "{line:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("USAGE"), "{line:?}: {err}");
        assert!(err.contains(named), "{line:?}: {err}");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = bbncg().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("COMMANDS"));
}

#[test]
fn dynamics_emit_profile_feeds_analyze() {
    let dynamics = bbncg()
        .args([
            "dynamics",
            "--budgets",
            "1,1,1,1,1,1",
            "--seed",
            "5",
            "--emit",
            "profile",
        ])
        .output()
        .unwrap();
    assert!(dynamics.status.success());
    let text = String::from_utf8(dynamics.stdout).unwrap();
    let profile = &text[text.find("bbncg v1").unwrap()..];

    let mut analyze = bbncg()
        .args(["analyze", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    analyze
        .stdin
        .as_mut()
        .unwrap()
        .write_all(profile.as_bytes())
        .unwrap();
    let out = analyze.wait_with_output().unwrap();
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("vertex connectivity"), "{report}");
}

#[test]
fn dynamics_is_seed_deterministic_across_processes() {
    // The documented contract: identical seeds give identical
    // DynamicsReports. Two separate processes must print
    // byte-identical reports (including the emitted final profile).
    let line = [
        "dynamics",
        "--budgets",
        "1,1,1,1,1,1,1",
        "--seed",
        "41",
        "--order",
        "random",
        "--emit",
        "profile",
    ];
    let a = bbncg().args(line).output().unwrap();
    let b = bbncg().args(line).output().unwrap();
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout);
    // A different seed changes the trajectory's report (the profiles
    // could coincide at equilibrium; steps/rounds lines rarely do).
    let c = bbncg()
        .args([
            "dynamics",
            "--budgets",
            "1,1,1,1,1,1,1",
            "--seed",
            "42",
            "--order",
            "random",
            "--emit",
            "profile",
        ])
        .output()
        .unwrap();
    assert_ne!(a.stdout, c.stdout);
}

#[test]
fn scenario_runs_an_example_spec_end_to_end() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/budget_shock.toml"
    );
    let out = bbncg().args(["scenario", "run", spec]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"kind\":\"budget-shock\""), "{text}");
    assert!(text.contains("\"kind\":\"summary\""), "{text}");
    // Seed-determinism holds across processes for scenarios too.
    let again = bbncg().args(["scenario", "run", spec]).output().unwrap();
    assert_eq!(text, String::from_utf8(again.stdout).unwrap());
}

#[test]
fn malformed_profile_is_rejected_cleanly() {
    let mut verify = bbncg()
        .args(["verify", "-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    verify
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"this is not a profile")
        .unwrap();
    let out = verify.wait_with_output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("header"), "{err}");
}

/// Run `bbncg` with `stdin` piped in, asserting success; its stdout.
fn run_with_stdin(args: &[&str], stdin: &str) -> String {
    let mut child = bbncg()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{args:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn verify_and_verify_audit_name_the_same_violator() {
    // The directed path 0 → 1 → … → 8: player 0 improves most by
    // relinking to the middle, far beyond its first improving move.
    let mut profile = String::from("bbncg v1\nn 9\nbudgets 1 1 1 1 1 1 1 1 0\narcs\n");
    for i in 0..8 {
        profile.push_str(&format!("{i} {}\n", i + 1));
    }
    for (model, line) in [
        ("sum", "violator: player v0 can improve 36 -> 24"),
        ("max", "violator: player v0 can improve 8 -> 5"),
    ] {
        let quick = run_with_stdin(&["verify", "-", "--model", model], &profile);
        let audit = run_with_stdin(&["verify", "-", "--model", model, "--audit"], &profile);
        let first_violator = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("violator:"))
                .map(str::to_owned)
        };
        assert_eq!(first_violator(&quick).as_deref(), Some(line), "{quick}");
        assert_eq!(first_violator(&audit).as_deref(), Some(line), "{audit}");
    }
}

#[test]
fn serve_submit_roundtrip_with_threads_bound() {
    use std::io::BufRead as _;
    use std::time::{Duration, Instant};

    // Start a server on an ephemeral port with `--threads 2` while the
    // environment says 7: the flag must win, and the worker pool must
    // be sized by it (observable in /healthz).
    let mut serve = bbncg()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .env("BBNCG_THREADS", "7")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    std::io::BufReader::new(serve.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let status = bbncg()
        .args(["submit", "--status", "--addr", &addr])
        .output()
        .unwrap();
    assert!(status.status.success());
    let health = String::from_utf8(status.stdout).unwrap();
    assert!(
        health.contains("\"workers\":2"),
        "--threads must size the pool over BBNCG_THREADS=7: {health}"
    );

    // Same spec, same seed: the served stream is byte-identical to the
    // offline run.
    let dir = std::env::temp_dir();
    let spec_path = dir.join("bbncg_cli_serve_spec.toml");
    let out_path = dir.join("bbncg_cli_serve_offline.jsonl");
    std::fs::write(
        &spec_path,
        "[scenario]\nname = \"e2e\"\nseed = 4\n\n[init]\nfamily = \"uniform\"\nn = 12\nbudget = 1\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n[[phase]]\nkind = \"arrive\"\ncount = 2\nbudget = 1\n\n\
         [[phase]]\nkind = \"dynamics\"\n",
    )
    .unwrap();
    let offline = bbncg()
        .args([
            "scenario",
            "run",
            spec_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(offline.status.success());
    let served = bbncg()
        .args(["submit", spec_path.to_str().unwrap(), "--addr", &addr])
        .output()
        .unwrap();
    assert!(
        served.status.success(),
        "{}",
        String::from_utf8_lossy(&served.stderr)
    );
    let offline_bytes = std::fs::read(&out_path).unwrap();
    assert_eq!(
        String::from_utf8(served.stdout).unwrap(),
        String::from_utf8(offline_bytes).unwrap(),
        "served stream must be byte-identical to the offline run"
    );

    // Graceful drain via the client, then the server process exits 0.
    let shutdown = bbncg()
        .args(["submit", "--shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(
        shutdown.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&shutdown.stderr)
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(code) = serve.try_wait().unwrap() {
            break code;
        }
        if Instant::now() > deadline {
            let _ = serve.kill();
            panic!("serve did not exit after shutdown");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(code.success());
    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn threads_flag_rejects_zero_and_garbage() {
    for bad in ["0", "banana"] {
        let out = bbncg()
            .args(["dynamics", "--budgets", "1,1", "--threads", bad])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--threads {bad} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--threads"), "{err}");
    }
    // A legal value works end-to-end (and stays deterministic).
    let a = bbncg()
        .args([
            "dynamics",
            "--budgets",
            "1,1,1,1",
            "--seed",
            "5",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    let b = bbncg()
        .args([
            "dynamics",
            "--budgets",
            "1,1,1,1",
            "--seed",
            "5",
            "--threads",
            "4",
        ])
        .output()
        .unwrap();
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "thread count must never change results");
}

#[test]
fn construct_refuses_bad_sizes_in_one_line() {
    // Shift words outside Lemma 5.2's range used to panic, and spiders
    // and trees over the generator caps aborted on a multi-terabyte
    // allocation or ran past 20 s. Each now fails before anything is
    // built.
    for (flag, value, want) in [
        ("--shift", "0", "--shift: K must be 2 or 3, got 0"),
        ("--shift", "1", "--shift: K must be 2 or 3, got 1"),
        ("--spider", "100000000000", "--spider: family \"spider\""),
        ("--btree", "40", "--btree: family \"btree\" [40]"),
        ("--btree", "25", "--btree: family \"btree\" [25]"),
    ] {
        let out = bbncg().args(["construct", flag, value]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert!(out.stdout.is_empty(), "{flag} {value}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{flag} {value}: {err}");
        assert!(err.starts_with(want), "{flag} {value}: {err}");
        if flag != "--shift" {
            assert!(err.contains("-vertex cap"), "{flag} {value}: {err}");
        }
    }
}

/// `scenario validate` refuses a spec whose exact search cannot run,
/// naming the player and the candidate count, instead of letting
/// `scenario run` panic on it.
#[test]
fn unenumerable_specs_exit_2_naming_the_player() {
    // Player 0 owns the arcs to 1..=20 of a 40-ring, under the exact
    // rule: C(39, 20) candidates.
    let mut arcs: Vec<String> = (1..=20).map(|v| format!("[0, {v}]")).collect();
    arcs.extend((1..40).map(|v| format!("[{v}, {}]", (v + 1) % 40)));
    let spec = format!(
        "[init]\nfamily = \"inline\"\nn = 40\narcs = [{}]\n[dynamics]\nrule = \"exact\"\n\
         [[phase]]\nkind = \"dynamics\"\n",
        arcs.join(", ")
    );
    let path = std::env::temp_dir().join(format!("bbncg_e2e_enum_{}.toml", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    for action in ["validate", "run"] {
        let out = bbncg()
            .args(["scenario", action])
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{action}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(
                "line 1: [init] player 0 owns 20 arcs among 40 vertices: \
                 the exact search would enumerate 68923264410 candidates"
            ),
            "{action}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Every command that searches a player exactly refuses one whose
/// search would run past the cap, naming the player and the candidate
/// count, instead of panicking in the search.
#[test]
fn unenumerable_profiles_exit_2_naming_the_player() {
    // Player 0 owns the arcs to 1..=20 of 40 vertices, and every other
    // player one arc to 0: C(39, 20) candidates for player 0.
    let mut profile = String::from("bbncg v1\nn 40\nbudgets 20");
    profile.push_str(&" 1".repeat(39));
    profile.push_str("\narcs\n");
    (1..=20).for_each(|v| profile.push_str(&format!("0 {v}\n")));
    (1..40).for_each(|v| profile.push_str(&format!("{v} 0\n")));
    let path = std::env::temp_dir().join(format!("bbncg_e2e_wide_{}.txt", std::process::id()));
    std::fs::write(&path, profile).unwrap();
    let file = path.to_str().unwrap();
    let budgets = format!("20{}", ",1".repeat(39));
    for args in [
        vec!["verify", file],
        vec!["verify", file, "--audit"],
        vec!["best-response", file, "--player", "0"],
        vec!["dynamics", file, "--rule", "exact"],
        vec!["dynamics", "--budgets", &budgets, "--rule", "exact"],
        vec!["dynamics", "--budgets", &budgets, "--rule", "better"],
    ] {
        let out = bbncg().args(&args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            err.contains("player 0 owns 20 arcs among 40 vertices: ")
                && err.contains("would enumerate 68923264410 candidates"),
            "{args:?}: {err}"
        );
        assert_eq!(err.trim_end().lines().count(), 1, "{args:?}: {err}");
    }
    // The swap check and the other rules search no player exactly.
    for args in [
        vec!["verify", file, "--swap"],
        vec!["best-response", file, "--player", "0", "--rule", "greedy"],
    ] {
        let out = bbncg().args(&args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_specs_exit_2_with_a_positioned_error() {
    let dir = std::env::temp_dir();
    for (i, (spec, want)) in [
        (
            "[init]\nfamily = \"uniform\"\nn = 10000000000\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n",
            "line 1: [init] reaches 10000000000 vertices",
        ),
        (
            "[scenario]\nseeds = 1000000000000000\n[init]\nfamily = \"uniform\"\nn = 8\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n",
            "line 1: seeds = 1000000000000000",
        ),
        (
            "[init]\nfamily = \"btree\"\nparams = [70]\n[[phase]]\nkind = \"dynamics\"\n",
            "line 1: [init] family \"btree\" [70]",
        ),
        (
            "[init]\nfamily = \"uniform\"\nn = 20000\nbudget = 1\n[dynamics]\nkernel = \"bitset\"\n[[phase]]\nkind = \"dynamics\"\n",
            "line 5: [dynamics] kernel bitset reaches 20000 vertices",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bbncg_e2e_caps_{}_{i}.toml", std::process::id()));
        std::fs::write(&path, spec).unwrap();
        for action in ["validate", "run"] {
            let out = bbncg()
                .args(["scenario", action])
                .arg(&path)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{action} {spec:?}");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains(want), "{action}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    // `--kernel bitset` over a spec that leaves the kernel to auto is
    // checked against the same cap, before the run starts.
    let path = dir.join(format!("bbncg_e2e_caps_{}_kernel.toml", std::process::id()));
    std::fs::write(
        &path,
        "[init]\nfamily = \"uniform\"\nn = 20000\nbudget = 1\n[[phase]]\nkind = \"dynamics\"\n",
    )
    .unwrap();
    let out = bbncg()
        .args(["scenario", "run"])
        .arg(&path)
        .args(["--kernel", "bitset"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--kernel: [dynamics] kernel bitset reaches 20000 vertices"),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}
