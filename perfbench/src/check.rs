//! Outside-in correctness check of the program's report lines.
//!
//! For every input line the check solves an in-process reference with
//! the CLI's engine configuration and re-validates it from outside: the
//! schedule passes `msrs_core::validate` against the request's instance,
//! its makespan is the reported one, `makespan ≤ certified_horizon`,
//! `2·certified_horizon ≤ 3·lower_bound` whenever `three_halves` ran,
//! the lower bound is recomputed independently, and the id is echoed. The
//! program's report line must then equal the reference line modulo
//! `wall_micros`/`cache_hit`: one report per request, in order. Cache
//! store records (which carry the program's own schedules) are validated
//! against the canonical instance they claim to solve.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use msrs_core::{lower_bound, validate, CanonicalForm, Instance};
use msrs_engine::{jsonl, CacheStore, Engine, EngineConfig, SolveReport, SolveRequest, SolverKind};

use crate::json::{obj, ratio};
use crate::Args;

/// The engine the `msrs` CLI builds from default flags (report content
/// does not depend on thread count or cache capacity; a large cache makes
/// the reference dedup every repeated form).
pub fn cli_engine_config() -> EngineConfig {
    EngineConfig {
        cache_capacity: msrs_engine::DEFAULT_CACHE_CAPACITY,
        ..EngineConfig::default()
    }
}

pub fn read_requests(path: &str) -> Result<Vec<SolveRequest>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim();
            !l.is_empty() && !l.starts_with('#')
        })
        .map(|(i, l)| jsonl::read_instance_line(i + 1, l.trim()).map_err(|e| e.to_string()))
        .collect()
}

/// A report line with the serving-dependent values blanked:
/// `"wall_micros":<digits>` and `"cache_hit":<bool>` keep their keys.
pub fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = [("\"wall_micros\":", true), ("\"cache_hit\":", false)]
            .iter()
            .filter_map(|&(key, digits)| rest.find(key).map(|at| (at, key, digits)))
            .min_by_key(|&(at, _, _)| at);
        let Some((at, key, digits)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at + key.len()]);
        rest = &rest[at + key.len()..];
        let skip = if digits {
            rest.bytes().take_while(u8::is_ascii_digit).count()
        } else {
            rest.bytes().take_while(u8::is_ascii_alphabetic).count()
        };
        rest = &rest[skip..];
    }
}

/// Every certificate problem of `report` as the answer to `inst`.
fn certificate_problems(inst: &Instance, report: &SolveReport) -> Option<String> {
    if let Err(e) = validate(inst, &report.schedule) {
        return Some(format!("schedule fails validate: {e}"));
    }
    if report.schedule.makespan(inst) != report.makespan {
        return Some("reported makespan differs from the schedule's".into());
    }
    if report.makespan > report.certified_horizon {
        return Some("makespan exceeds certified_horizon".into());
    }
    if report.lower_bound != lower_bound(inst) {
        return Some("lower_bound differs from the recomputed bound".into());
    }
    let three_halves_ran = report
        .runs
        .iter()
        .any(|r| r.solver == SolverKind::ThreeHalves && r.makespan.is_some());
    if three_halves_ran && 2 * report.certified_horizon as u128 > 3 * report.lower_bound as u128 {
        return Some("certified_horizon exceeds 3/2 of the lower bound".into());
    }
    None
}

pub fn cmd(args: &Args) -> Result<String, String> {
    let inputs = args.all("input");
    let reports = args.all("reports");
    if inputs.len() != reports.len() || inputs.is_empty() {
        return Err("give one --reports per --input".into());
    }
    let cfg = EngineConfig {
        cache_capacity: 1 << 20,
        ..cli_engine_config()
    };
    let config_fp = cfg.content_fingerprint();
    let engine = Engine::new(cfg);
    let mut canonical: HashMap<u128, Instance> = HashMap::new();
    let mut lines = 0u64;
    let mut quality_lines = 0u64;
    let mut quality_seen = std::collections::HashSet::new();
    let mut violations = 0u64;
    let mut first_violation = String::new();
    let mut ratio_sum = 0.0;
    let mut optimal = 0u64;
    let mut cache_hit_lines = 0u64;
    let mut runs: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut note = |violations: &mut u64, what: String| {
        *violations += 1;
        if first_violation.is_empty() {
            first_violation = what;
        }
    };
    // The reference of an input is solved and validated once, however
    // many report files answer it.
    let mut references: HashMap<&str, Vec<Result<String, String>>> = HashMap::new();
    for (&input, report_path) in inputs.iter().zip(&reports) {
        if !references.contains_key(input) {
            let requests = read_requests(input)?;
            let solved = engine.solve_batch(&requests);
            let mut buf = Vec::new();
            let mut expected = Vec::with_capacity(requests.len());
            for (req, want) in requests.iter().zip(&solved) {
                let form = CanonicalForm::of(&req.instance);
                canonical
                    .entry(form.fingerprint())
                    .or_insert_with(|| form.instance().clone());
                // Quality counts each distinct canonical instance once, so
                // repetition does not weight it.
                if quality_seen.insert(form.fingerprint()) {
                    quality_lines += 1;
                    ratio_sum += want.ratio_vs_bound();
                    optimal += u64::from(want.makespan == want.lower_bound);
                }
                for run in &want.runs {
                    *runs.entry(run.solver.name()).or_default() += 1;
                }
                let problem = certificate_problems(&req.instance, want)
                    .or_else(|| (want.id != req.id).then(|| "id not echoed".to_string()));
                expected.push(match problem {
                    Some(p) => Err(p),
                    None => {
                        want.write_json_line(&mut buf);
                        Ok(normalize(
                            std::str::from_utf8(&buf).expect("reports are UTF-8"),
                        ))
                    }
                });
            }
            references.insert(input, expected);
        }
        let expected = &references[input];
        let text = std::fs::read_to_string(report_path)
            .map_err(|e| format!("reading {report_path}: {e}"))?;
        let got: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        for (i, want) in expected.iter().enumerate() {
            lines += 1;
            let problem = match (want, got.get(i)) {
                (Err(p), _) => Some(p.clone()),
                (Ok(_), None) => Some("no report".into()),
                (Ok(want), Some(line)) => {
                    cache_hit_lines += u64::from(line.contains("\"cache_hit\":true"));
                    (normalize(line) != *want)
                        .then(|| format!("report differs from the reference: {line}"))
                }
            };
            if let Some(p) = problem {
                note(
                    &mut violations,
                    format!("{report_path} line {}: {p}", i + 1),
                );
            }
        }
        for _ in expected.len()..got.len() {
            note(
                &mut violations,
                format!("{report_path}: more reports than requests"),
            );
        }
    }
    for input in args.all("extra-input") {
        for req in read_requests(input)? {
            let form = CanonicalForm::of(&req.instance);
            canonical
                .entry(form.fingerprint())
                .or_insert_with(|| form.instance().clone());
        }
    }
    let mut store_records = 0u64;
    let mut store_unmatched = 0u64;
    for path in args.all("store") {
        let (_store, entries, _stats) = CacheStore::open(Path::new(path), config_fp)
            .map_err(|e| format!("opening store {path}: {e}"))?;
        for entry in entries {
            store_records += 1;
            let Some(inst) = canonical.get(&entry.fingerprint) else {
                store_unmatched += 1;
                continue;
            };
            if let Some(p) = certificate_problems(inst, &entry.report) {
                note(
                    &mut violations,
                    format!("{path} record {store_records}: {p}"),
                );
            }
        }
    }
    let mut run_counts = obj();
    for (name, n) in runs {
        run_counts.push_u(name, n);
    }
    Ok(obj()
        .u("lines", lines)
        .u("violations", violations)
        .s("first_violation", first_violation)
        .f("ratio_mean", ratio(ratio_sum, quality_lines as f64))
        .f("optimal_frac", ratio(optimal as f64, quality_lines as f64))
        .u("distinct_instances", quality_lines)
        .u("cache_hit_lines", cache_hit_lines)
        .o("member_runs", run_counts)
        .u("store_records", store_records)
        .u("store_unmatched", store_unmatched)
        .to_string())
}
