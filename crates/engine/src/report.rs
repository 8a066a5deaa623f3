//! The typed request/report API of the engine.

use msrs_core::{Instance, Schedule, Time};

use crate::json::Json;
use crate::portfolio::SolverKind;

/// A solve request: one instance plus an optional caller-supplied id that is
/// echoed into the report (batch correlation, service tracing).
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-supplied identifier (echoed verbatim in the report).
    pub id: Option<String>,
    /// The instance to solve.
    pub instance: Instance,
}

impl SolveRequest {
    /// Request without an id.
    pub fn new(instance: Instance) -> Self {
        SolveRequest { id: None, instance }
    }

    /// Request with an id.
    pub fn with_id(id: impl Into<String>, instance: Instance) -> Self {
        SolveRequest {
            id: Some(id.into()),
            instance,
        }
    }
}

/// Terminal status of one portfolio member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Produced a schedule that re-validated.
    Completed,
    /// Gave up within its budget (exact node budget, EPTAS decision budget).
    Exhausted,
    /// Interrupted by the portfolio deadline: either never started, or
    /// cancelled cooperatively inside its search loop (its `wall_micros`
    /// then reports the true, overshoot-free runtime).
    TimedOut,
    /// Produced output that failed re-validation, or panicked (`panic: …`)
    /// — defense in depth, never expected; such output is discarded and
    /// reported.
    Invalid(String),
}

impl RunStatus {
    /// Stable machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::Exhausted => "exhausted",
            RunStatus::TimedOut => "timed_out",
            RunStatus::Invalid(_) => "invalid",
        }
    }

    /// Parses a [`label`](Self::label) back; the `invalid` label restores
    /// its diagnostic from `message` (empty when absent).
    pub fn from_label(label: &str, message: Option<&str>) -> Option<Self> {
        Some(match label {
            "completed" => RunStatus::Completed,
            "exhausted" => RunStatus::Exhausted,
            "timed_out" => RunStatus::TimedOut,
            "invalid" => RunStatus::Invalid(message.unwrap_or("").to_string()),
            _ => return None,
        })
    }
}

/// Outcome of one portfolio member.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// Which solver ran.
    pub solver: SolverKind,
    /// How it ended.
    pub status: RunStatus,
    /// Achieved makespan (when [`RunStatus::Completed`]).
    pub makespan: Option<Time>,
    /// The a-priori certified horizon this run proves for its own schedule:
    /// `⌊(5/3)·T⌋` / `⌊(3/2)·T⌋` for the approximation algorithms, the
    /// optimal makespan for a completed exact run, `None` for heuristics.
    pub certified_horizon: Option<Time>,
    /// Branch-and-bound nodes (exact solver only).
    pub nodes: Option<u64>,
    /// Wall time of this member in microseconds.
    pub wall_micros: u64,
}

/// The engine's answer for one instance.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Echo of [`SolveRequest::id`].
    pub id: Option<String>,
    /// Number of jobs.
    pub jobs: usize,
    /// Number of machines.
    pub machines: usize,
    /// Number of non-empty classes.
    pub classes: usize,
    /// The certified lower bound `T ≤ OPT`.
    pub lower_bound: Time,
    /// Makespan of the selected schedule.
    pub makespan: Time,
    /// The winning solver (least makespan; ties broken by canonical order).
    pub winner: SolverKind,
    /// The best proven upper bound on the selected makespan:
    /// `min` over completed certifying runs of their certified horizon.
    /// Always `≥ makespan`; equals `makespan` when the exact solver proved
    /// optimality.
    pub certified_horizon: Time,
    /// The solver whose certificate `certified_horizon` is.
    pub certified_by: SolverKind,
    /// Whether optimality was proven: the exact member completed, or the
    /// selected makespan met the lower bound (`T ≤ OPT ≤ makespan = T`).
    pub proven_optimal: bool,
    /// Whether this report was served from the engine's canonical-form
    /// result cache (or an intra-batch dedup fan-out) instead of a fresh
    /// solve. Cached reports are bit-identical to freshly solved ones
    /// except this flag and the `wall_micros` timings.
    pub cache_hit: bool,
    /// Total wall time for this instance in microseconds.
    pub wall_micros: u64,
    /// One entry per planned portfolio member, in canonical order.
    pub runs: Vec<SolverRun>,
    /// The selected schedule (re-validated by the engine before selection).
    pub schedule: Schedule,
}

impl SolveReport {
    /// Empirical ratio of the selected makespan against the lower bound
    /// (an upper bound on the true ratio vs OPT); `1.0` when `T = 0`.
    pub fn ratio_vs_bound(&self) -> f64 {
        if self.lower_bound == 0 {
            1.0
        } else {
            self.makespan as f64 / self.lower_bound as f64
        }
    }

    /// Serializes the report (without the schedule) directly into a byte
    /// buffer — byte-identical to `self.to_json().to_string()`, but with no
    /// intermediate [`Json`] tree or `String`: with a warm reusable buffer
    /// the serialization performs zero heap allocations. This is the emit
    /// primitive of the streaming serve path.
    pub fn write_json_line(&self, out: &mut Vec<u8>) {
        self.write_json_line_as(self.id.as_deref(), self.cache_hit, self.wall_micros, out);
    }

    /// As [`write_json_line`](Self::write_json_line), overriding the
    /// serving-dependent fields: the request id, the `cache_hit` flag, and
    /// the headline `wall_micros`. Used to emit a *cached canonical* report
    /// on behalf of a request without cloning the report (the per-member
    /// `runs` timings are the cached solve's own, exactly as the typed
    /// cache-hit path reports them).
    pub fn write_json_line_as(
        &self,
        id: Option<&str>,
        cache_hit: bool,
        wall_micros: u64,
        out: &mut Vec<u8>,
    ) {
        self.write_object(id, cache_hit, wall_micros, false, out);
    }

    /// Serializes the report for durable storage directly into a byte
    /// buffer — byte-identical to `self.to_store_json().to_string()`, as
    /// [`write_json_line`](Self::write_json_line) is to `to_json`. This is
    /// what the cache store, the worker `#cachefill` lines and the
    /// dispatch coordinator write.
    pub fn write_store_json(&self, out: &mut Vec<u8>) {
        self.write_object(
            self.id.as_deref(),
            self.cache_hit,
            self.wall_micros,
            true,
            out,
        );
    }

    /// The one byte writer behind both formats: `store` adds the fields
    /// [`to_store_json`](Self::to_store_json) adds to the wire object.
    fn write_object(
        &self,
        id: Option<&str>,
        cache_hit: bool,
        wall_micros: u64,
        store: bool,
        out: &mut Vec<u8>,
    ) {
        use std::io::Write;
        out.clear();
        // `write!` into a Vec<u8> cannot fail and does not allocate beyond
        // the buffer itself.
        let w = out;
        w.push(b'{');
        if let Some(id) = id {
            w.extend_from_slice(b"\"id\":");
            write_json_str(w, id);
            w.push(b',');
        }
        let _ = write!(
            w,
            "\"jobs\":{},\"machines\":{},\"classes\":{},\"lower_bound\":{},\"makespan\":{}",
            self.jobs, self.machines, self.classes, self.lower_bound, self.makespan
        );
        let _ = write!(w, ",\"winner\":\"{}\"", self.winner.name());
        let _ = write!(w, ",\"certified_horizon\":{}", self.certified_horizon);
        let _ = write!(w, ",\"certified_by\":\"{}\"", self.certified_by.name());
        let _ = write!(
            w,
            ",\"proven_optimal\":{},\"cache_hit\":{cache_hit},\"wall_micros\":{wall_micros}",
            self.proven_optimal
        );
        w.extend_from_slice(b",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                w.push(b',');
            }
            let _ = write!(
                w,
                "{{\"solver\":\"{}\",\"status\":\"{}\"",
                r.solver.name(),
                r.status.label()
            );
            if let Some(mk) = r.makespan {
                let _ = write!(w, ",\"makespan\":{mk}");
            }
            if let Some(h) = r.certified_horizon {
                let _ = write!(w, ",\"certified_horizon\":{h}");
            }
            if let Some(n) = r.nodes {
                let _ = write!(w, ",\"nodes\":{n}");
            }
            let _ = write!(w, ",\"wall_micros\":{}", r.wall_micros);
            if let (true, RunStatus::Invalid(msg)) = (store, &r.status) {
                w.extend_from_slice(b",\"error\":");
                write_json_str(w, msg);
            }
            w.push(b'}');
        }
        w.push(b']');
        if store {
            w.extend_from_slice(b",\"schedule\":[");
            for (i, a) in self.schedule.assignments().iter().enumerate() {
                if i > 0 {
                    w.push(b',');
                }
                let _ = write!(w, "[{},{}]", a.machine, a.start);
            }
            w.push(b']');
        }
        w.push(b'}');
    }

    /// Serializes the report (without the schedule) as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Vec::new();
        if let Some(id) = &self.id {
            obj.push(("id".into(), Json::Str(id.clone())));
        }
        obj.push(("jobs".into(), Json::Num(self.jobs as i128)));
        obj.push(("machines".into(), Json::Num(self.machines as i128)));
        obj.push(("classes".into(), Json::Num(self.classes as i128)));
        obj.push(("lower_bound".into(), Json::Num(self.lower_bound as i128)));
        obj.push(("makespan".into(), Json::Num(self.makespan as i128)));
        obj.push(("winner".into(), Json::Str(self.winner.name().into())));
        obj.push((
            "certified_horizon".into(),
            Json::Num(self.certified_horizon as i128),
        ));
        obj.push((
            "certified_by".into(),
            Json::Str(self.certified_by.name().into()),
        ));
        obj.push(("proven_optimal".into(), Json::Bool(self.proven_optimal)));
        obj.push(("cache_hit".into(), Json::Bool(self.cache_hit)));
        obj.push(("wall_micros".into(), Json::Num(self.wall_micros as i128)));
        let runs = self
            .runs
            .iter()
            .map(|r| {
                let mut run = vec![
                    ("solver".into(), Json::Str(r.solver.name().into())),
                    ("status".into(), Json::Str(r.status.label().into())),
                ];
                if let Some(mk) = r.makespan {
                    run.push(("makespan".into(), Json::Num(mk as i128)));
                }
                if let Some(h) = r.certified_horizon {
                    run.push(("certified_horizon".into(), Json::Num(h as i128)));
                }
                if let Some(n) = r.nodes {
                    run.push(("nodes".into(), Json::Num(n as i128)));
                }
                run.push(("wall_micros".into(), Json::Num(r.wall_micros as i128)));
                Json::Obj(run)
            })
            .collect();
        obj.push(("runs".into(), Json::Arr(runs)));
        Json::Obj(obj)
    }

    /// Serializes the report for durable storage: the [`to_json`](Self::to_json)
    /// wire object *plus* the fields the wire format elides because the
    /// caller already has them — the canonical `schedule` (as
    /// `[[machine, start], …]` pairs in job order) and the diagnostic of any
    /// `invalid` run. The output is canonical: serializing, parsing with
    /// [`from_store_json`](Self::from_store_json), and serializing again is
    /// bit-identical, which is what lets the cache store checksum records by
    /// re-serialization.
    pub fn to_store_json(&self) -> Json {
        let Json::Obj(mut obj) = self.to_json() else {
            unreachable!("to_json always returns an object")
        };
        if let Some((_, Json::Arr(runs))) = obj.iter_mut().find(|(k, _)| k == "runs") {
            for (run_json, run) in runs.iter_mut().zip(&self.runs) {
                if let (Json::Obj(fields), RunStatus::Invalid(msg)) = (run_json, &run.status) {
                    fields.push(("error".into(), Json::Str(msg.clone())));
                }
            }
        }
        let schedule = self
            .schedule
            .assignments()
            .iter()
            .map(|a| {
                Json::Arr(vec![
                    Json::Num(a.machine as i128),
                    Json::Num(a.start as i128),
                ])
            })
            .collect();
        obj.push(("schedule".into(), Json::Arr(schedule)));
        Json::Obj(obj)
    }

    /// Parses a [`to_store_json`](Self::to_store_json) object back into a
    /// typed report. Returns `None` on any structural mismatch — an unknown
    /// solver or status name, a missing field, a malformed schedule pair —
    /// never panics on foreign input.
    pub fn from_store_json(v: &Json) -> Option<SolveReport> {
        let id = match v.get("id") {
            Some(j) => Some(j.as_str()?.to_string()),
            None => None,
        };
        let as_bool = |key: &str| match v.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        let runs = v
            .get("runs")?
            .as_arr()?
            .iter()
            .map(|r| {
                let opt_num = |key: &str| match r.get(key) {
                    Some(j) => j.as_u64().map(Some),
                    None => Some(None),
                };
                Some(SolverRun {
                    solver: SolverKind::from_name(r.get("solver")?.as_str()?)?,
                    status: RunStatus::from_label(
                        r.get("status")?.as_str()?,
                        r.get("error").and_then(Json::as_str),
                    )?,
                    makespan: opt_num("makespan")?,
                    certified_horizon: opt_num("certified_horizon")?,
                    nodes: opt_num("nodes")?,
                    wall_micros: r.get("wall_micros")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let assignments = v
            .get("schedule")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                Some(msrs_core::Assignment {
                    machine: pair[0].as_usize()?,
                    start: pair[1].as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SolveReport {
            id,
            jobs: v.get("jobs")?.as_usize()?,
            machines: v.get("machines")?.as_usize()?,
            classes: v.get("classes")?.as_usize()?,
            lower_bound: v.get("lower_bound")?.as_u64()?,
            makespan: v.get("makespan")?.as_u64()?,
            winner: SolverKind::from_name(v.get("winner")?.as_str()?)?,
            certified_horizon: v.get("certified_horizon")?.as_u64()?,
            certified_by: SolverKind::from_name(v.get("certified_by")?.as_str()?)?,
            proven_optimal: as_bool("proven_optimal")?,
            cache_hit: as_bool("cache_hit")?,
            wall_micros: v.get("wall_micros")?.as_u64()?,
            runs,
            schedule: Schedule::new(assignments),
        })
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: makespan {} (T = {}, ratio {:.3}, certified ≤ {} by {}{}{}) in {} µs",
            self.id.as_deref().unwrap_or("instance"),
            self.makespan,
            self.lower_bound,
            self.ratio_vs_bound(),
            self.certified_horizon,
            self.certified_by,
            if self.proven_optimal { ", optimal" } else { "" },
            if self.cache_hit { ", cached" } else { "" },
            self.wall_micros,
        )
    }
}

/// JSON string escaping into a byte buffer — delegates to the crate's
/// single escaping routine ([`crate::json`]'s `write_escaped_str`, which
/// also backs [`Json::Str`]'s `Display`), through a no-allocation
/// `fmt::Write` adapter over the `Vec<u8>`.
fn write_json_str(out: &mut Vec<u8>, s: &str) {
    struct BytesWriter<'a>(&'a mut Vec<u8>);
    impl std::fmt::Write for BytesWriter<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.extend_from_slice(s.as_bytes());
            Ok(())
        }
    }
    crate::json::write_escaped_str(s, &mut BytesWriter(out)).expect("Vec writes are infallible");
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrs_core::Schedule;

    fn sample_report() -> SolveReport {
        SolveReport {
            id: Some("u-1".into()),
            jobs: 4,
            machines: 2,
            classes: 2,
            lower_bound: 10,
            makespan: 12,
            winner: SolverKind::ThreeHalves,
            certified_horizon: 15,
            certified_by: SolverKind::ThreeHalves,
            proven_optimal: false,
            cache_hit: false,
            wall_micros: 42,
            runs: vec![SolverRun {
                solver: SolverKind::ThreeHalves,
                status: RunStatus::Completed,
                makespan: Some(12),
                certified_horizon: Some(15),
                nodes: None,
                wall_micros: 42,
            }],
            schedule: Schedule::new(vec![]),
        }
    }

    #[test]
    fn json_contains_the_headline_fields() {
        let text = sample_report().to_json().to_string();
        for needle in [
            "\"id\":\"u-1\"",
            "\"makespan\":12",
            "\"winner\":\"three_halves\"",
            "\"certified_horizon\":15",
            "\"runs\":[{",
            "\"status\":\"completed\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn byte_writer_matches_tree_serialization() {
        let mut buf = Vec::new();
        let mut r = sample_report();
        r.runs.push(SolverRun {
            solver: SolverKind::Exact,
            status: RunStatus::Exhausted,
            makespan: None,
            certified_horizon: None,
            nodes: Some(123456),
            wall_micros: 9,
        });
        for id in [Some("plain"), Some("esc \"x\"\\\n\té✓\u{1}"), None] {
            r.id = id.map(str::to_owned);
            r.write_json_line(&mut buf);
            assert_eq!(
                std::str::from_utf8(&buf).unwrap(),
                r.to_json().to_string(),
                "id {id:?}"
            );
        }
        // The override variant matches a tree serialization of the
        // overridden report.
        let mut base = sample_report();
        base.id = None;
        base.write_json_line_as(Some("req-1"), true, 7, &mut buf);
        let mut over = base.clone();
        over.id = Some("req-1".into());
        over.cache_hit = true;
        over.wall_micros = 7;
        assert_eq!(
            std::str::from_utf8(&buf).unwrap(),
            over.to_json().to_string()
        );
    }

    #[test]
    fn store_serialization_round_trips_bit_identically() {
        use msrs_core::Assignment;
        let mut r = sample_report();
        r.runs.push(SolverRun {
            solver: SolverKind::Exact,
            status: RunStatus::Invalid("ghost overlap on machine 1".into()),
            makespan: None,
            certified_horizon: None,
            nodes: Some(77),
            wall_micros: 5,
        });
        r.schedule = Schedule::new(vec![
            Assignment {
                machine: 0,
                start: 0,
            },
            Assignment {
                machine: 1,
                start: 3,
            },
        ]);
        for id in [Some("x"), None] {
            r.id = id.map(str::to_owned);
            let text = r.to_store_json().to_string();
            let mut bytes = Vec::new();
            r.write_store_json(&mut bytes);
            assert_eq!(std::str::from_utf8(&bytes).unwrap(), text);
            assert!(text.contains("\"schedule\":[[0,0],[1,3]]"), "{text}");
            assert!(text.contains("\"error\":\"ghost overlap on machine 1\""));
            let back = SolveReport::from_store_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_store_json().to_string(), text, "id {id:?}");
            assert_eq!(back.runs[1].status, r.runs[1].status);
            assert_eq!(back.schedule, r.schedule);
            // The stored report still serves the wire format bit-identically.
            let mut wire = Vec::new();
            back.write_json_line(&mut wire);
            let mut expect = Vec::new();
            r.write_json_line(&mut expect);
            assert_eq!(wire, expect);
        }
        assert!(SolveReport::from_store_json(&Json::parse("{\"jobs\":1}").unwrap()).is_none());
        assert_eq!(RunStatus::from_label("bogus", None), None);
    }

    #[test]
    fn store_byte_writer_matches_tree_serialization() {
        use msrs_core::Assignment;
        let mut r = sample_report();
        let mut bytes = vec![b'x'; 3]; // stale contents are cleared
        for runs in 0..3 {
            r.runs.truncate(runs);
            for id in [Some("esc \"x\"\\\n\té✓\u{1}"), None] {
                r.id = id.map(str::to_owned);
                for jobs in [0, 1, 3] {
                    r.schedule = Schedule::new(
                        (0..jobs)
                            .map(|j| Assignment {
                                machine: j,
                                start: u64::MAX - j as u64,
                            })
                            .collect(),
                    );
                    r.write_store_json(&mut bytes);
                    assert_eq!(
                        std::str::from_utf8(&bytes).unwrap(),
                        r.to_store_json().to_string()
                    );
                }
            }
            r.runs.push(SolverRun {
                solver: SolverKind::Exact,
                status: RunStatus::Invalid(format!("bad \"{runs}\"\n\u{7f}")),
                makespan: Some(3),
                certified_horizon: None,
                nodes: Some(u64::MAX),
                wall_micros: 1,
            });
        }
    }

    #[test]
    fn ratio_handles_zero_bound() {
        let mut r = sample_report();
        assert!((r.ratio_vs_bound() - 1.2).abs() < 1e-9);
        r.lower_bound = 0;
        assert_eq!(r.ratio_vs_bound(), 1.0);
    }
}
