//! End-to-end engine coverage: the portfolio over every generator family,
//! certificate soundness, batch determinism at acceptance scale, and the
//! `msrs` CLI binary.

use msrs_core::validate;
use msrs_engine::{Engine, EngineConfig, RunStatus, SolveRequest, SolverKind};

/// One instance per generator family, across several seeds and machine
/// counts: every report's schedule re-validates and respects the advertised
/// certificate chain `makespan ≤ certified_horizon ≤ ⌊(3/2)·T⌋` (the last
/// step whenever the 3/2 algorithm participated).
#[test]
fn portfolio_over_every_family_validates_and_certifies() {
    let engine = Engine::default();
    for spec in msrs_engine::families::FAMILIES {
        for (seed, m) in [(1u64, 2usize), (2, 3), (3, 4), (4, 8)] {
            let inst = (spec.generate)(seed, m);
            let report = engine.solve(&SolveRequest::with_id(
                format!("{}-{seed}-{m}", spec.name),
                inst.clone(),
            ));
            assert_eq!(
                validate(&inst, &report.schedule),
                Ok(()),
                "{}: schedule must re-validate",
                spec.name
            );
            assert_eq!(report.schedule.makespan(&inst), report.makespan);
            assert!(
                report.makespan <= report.certified_horizon,
                "{}: makespan {} exceeds certificate {}",
                spec.name,
                report.makespan,
                report.certified_horizon
            );
            let ran_three_halves = report
                .runs
                .iter()
                .any(|r| r.solver == SolverKind::ThreeHalves && r.status == RunStatus::Completed);
            if ran_three_halves {
                assert!(
                    report.certified_horizon as u128 * 2 <= 3 * report.lower_bound as u128,
                    "{}: certificate {} looser than 1.5·T (T = {})",
                    spec.name,
                    report.certified_horizon,
                    report.lower_bound
                );
            }
            // The winner is never worse than the certifying approximations.
            for run in &report.runs {
                if run.status == RunStatus::Completed {
                    assert!(report.makespan <= run.makespan.unwrap());
                }
            }
        }
    }
}

/// Acceptance scale: a ≥100-instance batch over all families runs in
/// parallel, is deterministic across thread counts, and every report honours
/// its certificate.
#[test]
fn batch_of_100_plus_is_deterministic_and_certified() {
    let mut reqs: Vec<SolveRequest> = Vec::new();
    for spec in msrs_engine::families::FAMILIES {
        for seed in 0..15u64 {
            reqs.push(SolveRequest::with_id(
                format!("{}-{seed}", spec.name),
                (spec.generate)(seed, 4),
            ));
        }
    }
    assert!(reqs.len() >= 100, "corpus has {} instances", reqs.len());

    let solo = Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
    .solve_batch(&reqs);
    let wide = Engine::new(EngineConfig {
        threads: 8,
        ..EngineConfig::default()
    })
    .solve_batch(&reqs);

    assert_eq!(solo.len(), reqs.len());
    for ((req, a), b) in reqs.iter().zip(&solo).zip(&wide) {
        // Determinism: identical selection, certificates, and schedules.
        assert_eq!(a.id, b.id);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.certified_horizon, b.certified_horizon);
        assert_eq!(a.certified_by, b.certified_by);
        assert_eq!(a.schedule, b.schedule);
        // Certificate soundness on the original instance.
        assert_eq!(validate(&req.instance, &a.schedule), Ok(()));
        assert!(a.makespan <= a.certified_horizon);
    }
}

/// The JSON report of a batch round-trips through the JSONL corpus tooling
/// and stays self-consistent.
#[test]
fn reports_serialize_with_consistent_fields() {
    let engine = Engine::default();
    let inst = msrs_gen::zipf_classes(3, 3, 40, 8, 1, 30);
    let report = engine.solve(&SolveRequest::with_id("z-3", inst));
    let json = report.to_json();
    assert_eq!(json.get("id").and_then(|j| j.as_str()), Some("z-3"));
    assert_eq!(
        json.get("makespan").and_then(|j| j.as_u64()),
        Some(report.makespan)
    );
    assert_eq!(
        json.get("winner").and_then(|j| j.as_str()),
        Some(report.winner.name())
    );
    let runs = json
        .get("runs")
        .and_then(|j| j.as_arr())
        .expect("runs array");
    assert_eq!(runs.len(), report.runs.len());
    // Parse back through the generic JSON parser (wire-format sanity).
    let reparsed = msrs_engine::json::Json::parse(&json.to_string()).expect("valid JSON");
    assert_eq!(reparsed, json);
}

/// Drives the real `msrs` binary: gen → batch → reports, plus single solve.
#[test]
fn cli_gen_batch_solve_round_trip() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_msrs");
    let dir = std::env::temp_dir().join(format!("msrs-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let corpus = dir.join("corpus.jsonl");
    let reports = dir.join("reports.jsonl");

    let gen = Command::new(bin)
        .args(["gen", "--family", "all", "--count", "15", "--machines", "4"])
        .args(["--seed", "7", "--out", corpus.to_str().unwrap()])
        .output()
        .expect("run msrs gen");
    assert!(
        gen.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let corpus_text = std::fs::read_to_string(&corpus).expect("corpus written");
    let n = corpus_text.lines().count();
    assert!(n >= 100, "gen produced {n} lines");

    let batch = Command::new(bin)
        .args(["batch", "--input", corpus.to_str().unwrap()])
        .args(["--threads", "4", "--out", reports.to_str().unwrap()])
        .output()
        .expect("run msrs batch");
    assert!(
        batch.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&batch.stderr)
    );
    let report_text = std::fs::read_to_string(&reports).expect("reports written");
    assert_eq!(report_text.lines().count(), n, "one report per instance");
    for line in report_text.lines() {
        let v = msrs_engine::json::Json::parse(line).expect("report line is JSON");
        let makespan = v
            .get("makespan")
            .and_then(|j| j.as_u64())
            .expect("makespan");
        let horizon = v
            .get("certified_horizon")
            .and_then(|j| j.as_u64())
            .expect("horizon");
        assert!(makespan <= horizon, "uncertified report line: {line}");
    }

    // Single-instance solve over stdin-free JSON input.
    let single = dir.join("one.jsonl");
    std::fs::write(&single, corpus_text.lines().next().unwrap()).expect("write single");
    let solve = Command::new(bin)
        .args(["solve", "--input", single.to_str().unwrap(), "--json"])
        .output()
        .expect("run msrs solve");
    assert!(solve.status.success());
    let v = msrs_engine::json::Json::parse(String::from_utf8_lossy(&solve.stdout).trim())
        .expect("solve --json output");
    assert!(v.get("winner").is_some());

    std::fs::remove_dir_all(&dir).ok();
}

/// Drives `msrs bench`: the portfolio-vs-single-solver table for each
/// requested family, and clean usage errors (exit 1, no panic) for a
/// removed flag or a zero `--machines` / `--count`.
#[test]
fn cli_bench_table_and_usage_errors() {
    use std::process::{Command, Output};
    let bench = |args: &str| -> Output {
        Command::new(env!("CARGO_BIN_EXE_msrs"))
            .arg("bench")
            .args(args.split_whitespace())
            .output()
            .expect("run msrs bench")
    };

    let table = bench("--families uniform,zipf --count 2 --machines 3");
    assert!(
        table.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&table.stderr)
    );
    // Row layout: `family n | solver mean worst | …`; the family and `n`
    // columns are blank on the single-solver rows below a portfolio row.
    let stdout = String::from_utf8_lossy(&table.stdout);
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut family = String::new();
    for line in stdout.lines().skip(1) {
        let cols: Vec<&str> = line.split('|').collect();
        assert_eq!(cols.len(), 3, "malformed bench row: {line}");
        if let Some(name) = cols[0].split_whitespace().next() {
            family = name.to_string();
        }
        let solver = cols[1].split_whitespace().next().expect("solver column");
        rows.push((family.clone(), solver.to_string()));
    }
    let mut want = Vec::new();
    for family in ["uniform", "zipf"] {
        for solver in [
            "portfolio",
            "five_thirds",
            "three_halves",
            "hebrard_greedy",
            "list_scheduler",
            "merged_lpt",
        ] {
            want.push((family.to_string(), solver.to_string()));
        }
    }
    assert_eq!(rows, want);

    let usage_error = |args: &str, message: &str| {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains(message), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    };
    for removed in [
        "--baseline-out b.json",
        "--reference b.json",
        "--compare b.json",
        "--threshold 25",
        "--strict",
    ] {
        usage_error(removed, "unknown flag");
    }
    usage_error("--machines 0", "--machines must be ≥ 1");
    usage_error("--count 0", "--count must be ≥ 1");
}

/// `--cache-path` needs an active result cache: beside `--no-cache`,
/// `--cache-capacity 0` or `--deadline-ms` it is a usage error (exit 1, no
/// panic) on `batch`, `serve` and `dispatch`, and the store is left
/// untouched. Each run is killed after a minute, so a command that
/// wrongly starts serving fails the test instead of hanging it.
#[test]
fn cli_cache_path_with_an_inactive_cache_is_a_usage_error() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let dir = std::env::temp_dir().join(format!("msrs-cli-cache-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (corpus, store, out) = (path("c.jsonl"), path("s.mcache"), path("r.jsonl"));
    std::fs::write(&corpus, "{\"machines\":2,\"classes\":[[3,1],[2]]}\n").expect("corpus");
    let run = |args: &[&str]| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_msrs"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run msrs");
        let deadline = Instant::now() + Duration::from_secs(60);
        while child.try_wait().expect("wait").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                panic!("{args:?} did not exit");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        child.wait_with_output().expect("output")
    };

    let warm = run(&[
        "batch",
        "--input",
        &corpus,
        "--out",
        &out,
        "--cache-path",
        &store,
    ]);
    assert!(warm.status.success(), "{warm:?}");
    let stored = std::fs::read(&store).expect("store written");
    for inactive in [
        &["--no-cache"][..],
        &["--cache-capacity", "0"],
        &["--deadline-ms", "100"],
    ] {
        for cmd in [
            &["batch", "--input", &corpus][..],
            &["serve", "--addr", "127.0.0.1:0"],
            &["dispatch", "--input", &corpus, "--out", &out],
        ] {
            let args = [cmd, inactive, &["--cache-path", &store]].concat();
            let refused = run(&args);
            let stderr = String::from_utf8_lossy(&refused.stderr);
            assert_eq!(refused.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("--cache-path needs the result cache"),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert_eq!(std::fs::read(&store).expect("store"), stored, "{args:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
