//! The traced run: replays a workload's input in-process through the
//! layers' public functions, with a span around every call.
//!
//! The replay follows the serve path of `msrs batch` one line at a time:
//! decode → flat fingerprint → cache lookup → on a miss: materialize,
//! canonicalize, plan, run each planned member (validate each schedule),
//! select, insert, append to a cache store → serialize. The program is
//! never modified: spans are recorded here, around the calls, kept in
//! memory and written out when the run ends. Every layer metric is a leaf
//! span, so its value is its self time; the two non-leaf spans (`request`,
//! `portfolio.race`) report their self time separately.
//!
//! The same replay also runs untraced; the wall-time difference is the
//! tracing overhead. Layers the replay does not cover (the in-process
//! JSONL stream server, the dispatch worker loop, the checkpoint journal, the
//! store loader, the TCP service) are timed around one public call each.

use std::io::{Cursor, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use msrs_core::{validate, CanonicalForm, CanonicalScratch, Instance, Schedule, Time};
use msrs_engine::checkpoint::fnv1a_64;
use msrs_engine::service::{self, ServeConfig};
use msrs_engine::{
    classify, plan, run_worker, CacheKey, CacheStore, CheckpointHeader, CheckpointLog,
    EngineConfig, JsonlServer, LineDecoder, ReportCache, RunStatus, ShardRecord, ShardStats,
    SizeTier, SolveReport, SolverKind, SolverRun, DEFAULT_SHARD_SIZE,
};
use msrs_exact::{SolveLimits, SolveOutcome};
use msrs_ptas::EptasConfig;

use crate::check::{cli_engine_config, normalize};
use crate::json::{obj, quantile, ratio, Obj};
use crate::{loadgen, Args};

/// Span names; the member spans sit at `MEMBER0 + SolverKind::index()`.
const NAMES: [&str; 20] = [
    "request",
    "jsonl.decode",
    "canonical.fingerprint",
    "cache.lookup",
    "jsonl.build_request",
    "canonical.form",
    "portfolio.plan",
    "portfolio.race",
    "approx.five_thirds",
    "approx.three_halves",
    "approx.hebrard_greedy",
    "approx.list_scheduler",
    "approx.merged_lpt",
    "exact.solve",
    "ptas.eptas",
    "validate",
    "cache.insert",
    "cachestore.append",
    "cachestore.sync",
    "report.serialize",
];
const REQUEST: usize = 0;
const DECODE: usize = 1;
const FINGERPRINT: usize = 2;
const LOOKUP: usize = 3;
const BUILD: usize = 4;
const FORM: usize = 5;
const PLAN: usize = 6;
const RACE: usize = 7;
const MEMBER0: usize = 8;
const VALIDATE: usize = 15;
const INSERT: usize = 16;
const APPEND: usize = 17;
const SYNC: usize = 18;
const SERIALIZE: usize = 19;

/// Records the flusher drains before one fsync (`cache.rs`
/// `PERSIST_BATCH`): the replay syncs its store at the same cadence.
const SYNC_EVERY: usize = 256;
/// Lines per dispatch shard in the worker-loop measurement (the
/// `dispatch_durable` workload's `--shard-size`).
const WORKER_SHARD: usize = 256;
const WORKER_SHARDS_MAX: usize = 8;
/// Requests of the in-process service probes.
const SERVICE_PROBE: usize = 256;
const PROBE_RATE: f64 = 2000.0;
const PROBE_REQUESTS: usize = 1000;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: u8,
    parent: u32,
    req: u32,
    start: u64,
    end: u64,
}

/// In-memory span recorder; a disabled tracer records nothing.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: usize) -> usize {
        if !self.on {
            return 0;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name as u8,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            req: self.req,
            start: self.now(),
            end: 0,
        });
        self.stack.push(idx as u32);
        idx
    }

    /// Closes span `idx`; returns its duration in ns (0 when disabled).
    fn exit(&mut self, idx: usize) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.end = end;
        end - span.start
    }

    /// Per name: (calls, total ns, self ns).
    fn totals(&self) -> Vec<(u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut totals = vec![(0u64, 0u64, 0u64); NAMES.len()];
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let t = &mut totals[s.name as usize];
            t.0 += 1;
            t.1 += s.end - s.start;
            t.2 += (s.end - s.start).saturating_sub(*children);
        }
        totals
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let mut text = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                NAMES[s.name as usize], s.start, s.end, parent, s.req
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
    }
}

/// Per-(member, tier) accounting of the replay's fresh solves.
#[derive(Default, Clone, Copy)]
struct MemberStats {
    runs: u64,
    wins: u64,
    ns: u64,
    nodes: u64,
}

#[derive(Default)]
struct Stats {
    lines: u64,
    hits: u64,
    solves: u64,
    member_runs: u64,
    bound_met: u64,
    members: [[MemberStats; 4]; 7],
    validations: [(u64, u64); 4],
}

struct Replay {
    cfg: EngineConfig,
    config_fp: u64,
    cache: ReportCache,
    store: CacheStore,
    unsynced: usize,
    decoder: LineDecoder,
    scratch: CanonicalScratch,
    one: rayon::ThreadPool,
    buf: Vec<u8>,
    out: Vec<u8>,
    stats: Stats,
}

type RawAnswer = Result<(Schedule, Option<Time>), RunStatus>;

/// One member call, exactly as the engine makes it (`engine.rs`
/// `run_solver`), without the validation that follows.
fn run_member(
    kind: SolverKind,
    inst: &Instance,
    cfg: &EngineConfig,
    warm: Option<&Schedule>,
) -> (RawAnswer, Option<u64>) {
    match kind {
        SolverKind::FiveThirds => {
            let r = msrs_approx::five_thirds(inst);
            (Ok((r.schedule, Some(r.horizon))), None)
        }
        SolverKind::ThreeHalves => {
            let r = msrs_approx::three_halves(inst);
            (Ok((r.schedule, Some(r.horizon))), None)
        }
        SolverKind::HebrardGreedy => (
            Ok((msrs_approx::baselines::hebrard_greedy(inst).schedule, None)),
            None,
        ),
        SolverKind::ListScheduler => (
            Ok((msrs_approx::baselines::list_scheduler(inst).schedule, None)),
            None,
        ),
        SolverKind::MergedLpt => (
            Ok((msrs_approx::baselines::merged_lpt(inst).schedule, None)),
            None,
        ),
        SolverKind::Exact => {
            let limits = SolveLimits {
                max_nodes: cfg.exact.max_nodes,
            };
            let outcome = match warm {
                Some(schedule) => msrs_exact::solve_warm(inst, limits, None, schedule),
                None => msrs_exact::solve(inst, limits, None),
            };
            match outcome {
                SolveOutcome::Optimal(res) => {
                    (Ok((res.schedule, Some(res.makespan))), Some(res.nodes))
                }
                SolveOutcome::Exhausted { nodes } => (Err(RunStatus::Exhausted), Some(nodes)),
                SolveOutcome::Cancelled { nodes } => (Err(RunStatus::TimedOut), Some(nodes)),
            }
        }
        SolverKind::Eptas => {
            let eptas_cfg = EptasConfig {
                eps_k: cfg.eptas.eps_k,
                node_budget: cfg.eptas.node_budget,
            };
            (
                Ok((msrs_ptas::eptas_fixed_m(inst, eptas_cfg).schedule, None)),
                None,
            )
        }
    }
}

struct Outcome {
    kind: SolverKind,
    status: RunStatus,
    schedule: Option<Schedule>,
    makespan: Option<Time>,
    horizon: Option<Time>,
    nodes: Option<u64>,
    wall_micros: u64,
}

impl Replay {
    fn new(cfg: &EngineConfig, store_path: &Path) -> Result<Replay, String> {
        let _ = std::fs::remove_file(store_path);
        let config_fp = cfg.content_fingerprint();
        let (store, _, _) = CacheStore::open(store_path, config_fp)
            .map_err(|e| format!("creating {}: {e}", store_path.display()))?;
        Ok(Replay {
            cfg: cfg.clone(),
            config_fp,
            cache: ReportCache::new(cfg.cache_capacity),
            store,
            unsynced: 0,
            decoder: LineDecoder::new(),
            scratch: CanonicalScratch::default(),
            one: rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("pool handles are always constructible"),
            buf: Vec::new(),
            out: Vec::new(),
            stats: Stats::default(),
        })
    }

    fn line(&mut self, t: &mut Tracer, line_no: usize, line: &str) -> Result<(), String> {
        let started = Instant::now();
        t.req = line_no as u32;
        let request = t.enter(REQUEST);
        self.stats.lines += 1;
        let s = t.enter(DECODE);
        self.decoder
            .decode(line_no, line)
            .map_err(|e| e.to_string())?;
        t.exit(s);
        let s = t.enter(FINGERPRINT);
        let b = self.decoder.builder();
        let fp =
            msrs_core::flat_fingerprint(b.machines(), b.sizes(), b.offsets(), &mut self.scratch);
        t.exit(s);
        let key = CacheKey {
            instance: fp,
            config: self.config_fp,
        };
        let s = t.enter(LOOKUP);
        let cached = self.cache.get(&key);
        t.exit(s);
        let hit = cached.is_some();
        let report = match cached {
            Some(report) => {
                self.stats.hits += 1;
                report
            }
            None => {
                let s = t.enter(BUILD);
                let req = self.decoder.build_request();
                t.exit(s);
                let s = t.enter(FORM);
                let form = CanonicalForm::of_with(&req.instance, &mut self.scratch);
                t.exit(s);
                let report = Arc::new(self.solve(t, form.instance()));
                let s = t.enter(INSERT);
                self.cache.insert(key, Arc::clone(&report));
                t.exit(s);
                let s = t.enter(APPEND);
                let payload = report.to_store_json().to_string();
                self.store
                    .append(fp, self.config_fp, &payload)
                    .map_err(|e| format!("cache store append: {e}"))?;
                t.exit(s);
                self.unsynced += 1;
                if self.unsynced == SYNC_EVERY {
                    self.sync(t)?;
                }
                report
            }
        };
        let s = t.enter(SERIALIZE);
        let wall = if hit {
            started.elapsed().as_micros() as u64
        } else {
            report.wall_micros
        };
        report.write_json_line_as(self.decoder.id_str(), hit, wall, &mut self.buf);
        self.out.extend_from_slice(&self.buf);
        self.out.push(b'\n');
        t.exit(s);
        t.exit(request);
        Ok(())
    }

    fn sync(&mut self, t: &mut Tracer) -> Result<(), String> {
        let s = t.enter(SYNC);
        self.store
            .sync()
            .map_err(|e| format!("cache store sync: {e}"))?;
        t.exit(s);
        self.unsynced = 0;
        Ok(())
    }

    /// The canonical solve: plan, run each member (validated), select —
    /// the engine's `solve_canonical` on its sequential member path.
    fn solve(&mut self, t: &mut Tracer, inst: &Instance) -> SolveReport {
        let started = Instant::now();
        let s = t.enter(PLAN);
        let profile = classify(inst);
        let portfolio = plan(&profile, &self.cfg);
        t.exit(s);
        let race = t.enter(RACE);
        let tier = profile.tier.index();
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(portfolio.members.len());
        for &kind in &portfolio.members {
            let member_started = Instant::now();
            let warm = (kind == SolverKind::Exact)
                .then(|| best_completed(&outcomes))
                .flatten();
            let s = t.enter(MEMBER0 + kind.index());
            let cfg = &self.cfg;
            let (raw, nodes) = self
                .one
                .install(|| run_member(kind, inst, cfg, warm.as_ref()));
            let ns = t.exit(s);
            let stat = &mut self.stats.members[kind.index()][tier];
            stat.runs += 1;
            stat.ns += ns;
            stat.nodes += nodes.unwrap_or(0);
            let mut outcome = Outcome {
                kind,
                status: RunStatus::Completed,
                schedule: None,
                makespan: None,
                horizon: None,
                nodes,
                wall_micros: 0,
            };
            match raw {
                Err(status) => outcome.status = status,
                Ok((schedule, horizon)) => {
                    let s = t.enter(VALIDATE);
                    let valid = validate(inst, &schedule);
                    let ns = t.exit(s);
                    self.stats.validations[tier].0 += 1;
                    self.stats.validations[tier].1 += ns;
                    match valid {
                        Ok(()) => {
                            outcome.makespan = Some(schedule.makespan(inst));
                            outcome.schedule = Some(schedule);
                            outcome.horizon = horizon;
                        }
                        Err(e) => outcome.status = RunStatus::Invalid(e.to_string()),
                    }
                }
            }
            outcome.wall_micros = member_started.elapsed().as_micros() as u64;
            outcomes.push(outcome);
        }
        let report = assemble(&profile, outcomes, started);
        let winner = report.winner.index();
        self.stats.members[winner][tier].wins += 1;
        self.stats.solves += 1;
        self.stats.member_runs += report.runs.len() as u64;
        self.stats.bound_met += u64::from(
            report
                .runs
                .iter()
                .any(|r| r.makespan == Some(report.lower_bound)),
        );
        t.exit(race);
        report
    }
}

/// Least-makespan completed schedule so far (ties keep the earliest):
/// the exact member's warm start.
fn best_completed(outcomes: &[Outcome]) -> Option<Schedule> {
    let mut best: Option<(Time, &Schedule)> = None;
    for o in outcomes {
        if let (Some(m), Some(s)) = (o.makespan, o.schedule.as_ref()) {
            if best.is_none_or(|(b, _)| m < b) {
                best = Some((m, s));
            }
        }
    }
    best.map(|(_, s)| s.clone())
}

/// Best-of selection (the engine's `assemble`): least makespan, earliest
/// member on ties; tightest certified horizon; optimality proven by a
/// completed exact run or by meeting the lower bound.
fn assemble(
    profile: &msrs_engine::InstanceProfile,
    outcomes: Vec<Outcome>,
    started: Instant,
) -> SolveReport {
    let mut winner: Option<(usize, Time)> = None;
    let mut certificate: Option<(SolverKind, Time)> = None;
    let mut proven = false;
    for (i, o) in outcomes.iter().enumerate() {
        let Some(m) = o.makespan else { continue };
        if winner.is_none_or(|(_, best)| m < best) {
            winner = Some((i, m));
        }
        if let Some(h) = o.horizon {
            if certificate.is_none_or(|(_, best)| h < best) {
                certificate = Some((o.kind, h));
            }
        }
        proven |= o.kind == SolverKind::Exact;
    }
    let (wi, makespan) = winner.expect("the 5/3 member always completes");
    let (certified_by, certified_horizon) = certificate.expect("the 5/3 member certifies");
    let winner_kind = outcomes[wi].kind;
    let schedule = outcomes[wi]
        .schedule
        .clone()
        .expect("winner has a schedule");
    SolveReport {
        id: None,
        jobs: profile.jobs,
        machines: profile.machines,
        classes: profile.classes,
        lower_bound: profile.lower_bound,
        makespan,
        winner: winner_kind,
        certified_horizon,
        certified_by,
        proven_optimal: proven || makespan == profile.lower_bound,
        cache_hit: false,
        wall_micros: started.elapsed().as_micros() as u64,
        runs: outcomes
            .into_iter()
            .map(|o| SolverRun {
                solver: o.kind,
                status: o.status,
                makespan: o.makespan,
                certified_horizon: o.horizon,
                nodes: o.nodes,
                wall_micros: o.wall_micros,
            })
            .collect(),
        schedule,
    }
}

fn replay(
    cfg: &EngineConfig,
    lines: &[(usize, &str)],
    store: &Path,
    t: &mut Tracer,
) -> Result<(Replay, f64), String> {
    let mut r = Replay::new(cfg, store)?;
    let started = Instant::now();
    for &(line_no, line) in lines {
        r.line(t, line_no, line)?;
    }
    if r.unsynced > 0 {
        r.sync(t)?;
    }
    Ok((r, started.elapsed().as_secs_f64()))
}

/// A `Write` sink that timestamps each `#done` record a worker emits.
#[derive(Clone, Default)]
struct DoneClock(Arc<Mutex<Vec<Instant>>>);

impl Write for DoneClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.windows(5).any(|w| w == b"#done") {
            self.0.lock().expect("clock lock").push(Instant::now());
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `dispatch::run_worker` over in-memory pipes: per-shard times from the
/// gaps between successive `#done` records.
fn worker_shards(cfg: &EngineConfig, lines: &[(usize, &str)]) -> Result<Vec<f64>, String> {
    let mut input = String::new();
    let shards: Vec<&[(usize, &str)]> =
        lines.chunks(WORKER_SHARD).take(WORKER_SHARDS_MAX).collect();
    for (k, shard) in shards.iter().enumerate() {
        input.push_str(&format!("#shard {k} 1 {}\n", shard.len()));
        for (_, line) in *shard {
            input.push_str(line);
            input.push('\n');
        }
        input.push_str("#run\n");
    }
    input.push_str("#shutdown\n");
    let engine = msrs_engine::Engine::new(cfg.clone());
    let clock = DoneClock::default();
    let started = Instant::now();
    run_worker(
        &engine,
        Cursor::new(input.into_bytes()),
        clock.clone(),
        Duration::from_millis(50),
        1,
    )
    .map_err(|e| format!("run_worker: {e}"))?;
    let done = clock.0.lock().expect("clock lock").clone();
    if done.len() != shards.len() {
        return Err(format!(
            "worker completed {} of {} shards",
            done.len(),
            shards.len()
        ));
    }
    let mut prev = started;
    Ok(done
        .into_iter()
        .map(|at| {
            let ms = at.duration_since(prev).as_secs_f64() * 1e3;
            prev = at;
            ms
        })
        .collect())
}

/// `CheckpointLog::append` (write + fsync) once per worker shard.
fn checkpoint_appends(
    cfg: &EngineConfig,
    lines: &[(usize, &str)],
    path: &Path,
) -> Result<Vec<f64>, String> {
    let header = CheckpointHeader {
        config_fp: cfg.content_fingerprint(),
        shard_size: WORKER_SHARD,
    };
    let mut log = CheckpointLog::create(path, header).map_err(|e| format!("checkpoint: {e}"))?;
    let mut out_bytes = 0u64;
    let mut times = Vec::new();
    for (k, shard) in lines.chunks(WORKER_SHARD).enumerate() {
        let text: String = shard.iter().map(|(_, l)| format!("{l}\n")).collect();
        out_bytes += text.len() as u64;
        let record = ShardRecord {
            shard: k,
            lines: shard.len(),
            shard_fp: fnv1a_64(text.as_bytes()),
            out_bytes,
            attempts: 1,
            quarantined: false,
            stats: ShardStats::default(),
        };
        let t0 = Instant::now();
        log.append(&record)
            .map_err(|e| format!("checkpoint append: {e}"))?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(times)
}

/// The TCP service in-process: idle closed-loop round trips on cache hits,
/// then a short open-loop probe whose generator lag is reported.
fn service_probe(cfg: &EngineConfig, lines: &[(usize, &str)]) -> Result<Obj, String> {
    let engine = msrs_engine::Engine::new(cfg.clone());
    let handle = service::serve(engine, "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.local_addr();
    let warm: Vec<String> = lines
        .iter()
        .take(SERVICE_PROBE)
        .map(|(_, l)| l.to_string())
        .collect();
    let probe: Vec<String> = lines
        .iter()
        .cycle()
        .take(PROBE_REQUESTS)
        .map(|(_, l)| l.to_string())
        .collect();
    let result = (|| {
        loadgen::closed_loop(addr, &warm)?;
        let rtts = loadgen::closed_loop(addr, &warm)?;
        let open = loadgen::open_loop(addr, &probe, PROBE_RATE, loadgen::connections())?;
        Ok::<_, std::io::Error>((rtts, open))
    })();
    handle.begin_shutdown();
    let summary = handle.wait();
    let (mut rtts, open) = result.map_err(|e| format!("service probe: {e}"))?;
    let mut lags = open.lags_us.clone();
    Ok(obj()
        .f("idle_rtt_us", quantile(&mut rtts, 0.5))
        .u("idle_rtt_requests", rtts.len() as u64)
        .u("sheds", summary.sheds)
        .u("errors", summary.errors)
        .u("requests", summary.requests)
        .f("lag_p99_us", quantile(&mut lags, 0.99))
        .u("lag_requests", lags.len() as u64))
}

pub fn cmd(args: &Args) -> Result<String, String> {
    let input = args.req("input")?;
    let work = Path::new(args.req("work-dir")?);
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let n = lines.len() as f64;
    let cfg = cli_engine_config();

    let stream_engine = msrs_engine::Engine::new(cfg.clone());
    let t0 = Instant::now();
    JsonlServer::new()
        .serve(
            &stream_engine,
            Cursor::new(text.as_bytes()),
            &mut std::io::sink(),
            DEFAULT_SHARD_SIZE,
        )
        .map_err(|e| format!("stream: {e}"))?;
    let stream_ns = t0.elapsed().as_nanos() as f64 / n;
    drop(stream_engine);

    // Untraced and traced replays run three times each in the order
    // U T T U U T, and the fastest wall of each side is kept, so neither
    // warm-up nor a noisy neighbour lands on one side alone.
    let store_path = work.join("replay.store");
    let (mut untraced_s, mut traced_s) = (f64::MAX, f64::MAX);
    let mut kept = None;
    for traced in [false, true, true, false, false, true] {
        let mut t = Tracer::new(traced);
        if traced {
            let (r, wall) = replay(&cfg, &lines, &store_path, &mut t)?;
            traced_s = traced_s.min(wall);
            kept = Some((r, t));
        } else {
            let (_, wall) = replay(&cfg, &lines, &work.join("replay-untraced.store"), &mut t)?;
            untraced_s = untraced_s.min(wall);
        }
    }
    let (r, t) = kept.expect("traced rounds ran");
    t.write(args.req("spans-out")?)?;

    let mut mismatches = 0u64;
    if let Some(expect) = args.get("expect") {
        let want = std::fs::read_to_string(expect).map_err(|e| format!("reading {expect}: {e}"))?;
        let got = String::from_utf8(r.out.clone()).expect("reports are UTF-8");
        let want: Vec<&str> = want.lines().collect();
        let got: Vec<&str> = got.lines().collect();
        mismatches = want.len().abs_diff(got.len()) as u64;
        mismatches += want
            .iter()
            .zip(&got)
            .filter(|(a, b)| normalize(a) != normalize(b))
            .count() as u64;
    }

    let mut shard_ms = worker_shards(&cfg, &lines)?;
    let mut append_ms = checkpoint_appends(&cfg, &lines, &work.join("replay.ckpt"))?;
    let load_path = args
        .get("store-load")
        .map_or(store_path.clone(), Into::into);
    let t0 = Instant::now();
    let (_, entries, _) = CacheStore::open(&load_path, cfg.content_fingerprint())
        .map_err(|e| format!("loading {}: {e}", load_path.display()))?;
    let load_us = t0.elapsed().as_secs_f64() * 1e6;
    let service = service_probe(&cfg, &lines)?;

    let totals = t.totals();
    let s = &r.stats;
    let per = |name: usize, scale: f64| ratio(totals[name].1 as f64, totals[name].0 as f64) / scale;
    let mut m = obj();
    let mut bases = obj();
    let mut put = |m: &mut Obj, name: &str, value: f64, base: u64| {
        m.push_f(name, value);
        bases.push_u(name, base);
    };
    let calls = |name: usize| totals[name].0;
    put(&mut m, "jsonl.decode_ns", per(DECODE, 1.0), calls(DECODE));
    put(
        &mut m,
        "canonical.fingerprint_ns",
        per(FINGERPRINT, 1.0),
        calls(FINGERPRINT),
    );
    put(&mut m, "canonical.form_ns", per(FORM, 1.0), calls(FORM));
    put(&mut m, "cache.lookup_ns", per(LOOKUP, 1.0), calls(LOOKUP));
    put(&mut m, "cache.insert_ns", per(INSERT, 1.0), calls(INSERT));
    put(
        &mut m,
        "report.serialize_ns",
        per(SERIALIZE, 1.0),
        calls(SERIALIZE),
    );
    put(&mut m, "replay.hit_ratio", ratio(s.hits as f64, n), s.lines);
    put(&mut m, "stream.inproc_ns_per_line", stream_ns, s.lines);
    put(
        &mut m,
        "cachestore.append_ns",
        per(APPEND, 1.0),
        calls(APPEND),
    );
    put(&mut m, "cachestore.sync_ms", per(SYNC, 1e6), calls(SYNC));
    put(
        &mut m,
        "cachestore.load_us_per_record",
        ratio(load_us, entries.len() as f64),
        entries.len() as u64,
    );
    put(
        &mut m,
        "checkpoint.append_ms",
        quantile(&mut append_ms, 0.5),
        append_ms.len() as u64,
    );
    put(
        &mut m,
        "dispatch.worker_shard_ms",
        quantile(&mut shard_ms, 0.5),
        shard_ms.len() as u64,
    );
    put(&mut m, "portfolio.plan_ns", per(PLAN, 1.0), calls(PLAN));
    put(
        &mut m,
        "portfolio.members_per_solve",
        ratio(s.member_runs as f64, s.solves as f64),
        s.solves,
    );
    put(
        &mut m,
        "portfolio.bound_met_frac",
        ratio(s.bound_met as f64, s.solves as f64),
        s.solves,
    );
    let tiers = [SizeTier::Tiny, SizeTier::Small, SizeTier::Large];
    for kind in SolverKind::all() {
        let (prefix, planned): (String, &[SizeTier]) = match kind {
            SolverKind::Exact => ("exact.solve_us".into(), &tiers[..1]),
            SolverKind::Eptas => ("ptas.eptas_us".into(), &tiers[..2]),
            other => (format!("approx.{}_us", other.name()), &tiers[..]),
        };
        for tier in planned {
            let st = s.members[kind.index()][tier.index()];
            put(
                &mut m,
                &format!("{prefix}.{}", tier.name()),
                ratio(st.ns as f64, st.runs as f64) / 1e3,
                st.runs,
            );
            if kind == SolverKind::Exact {
                put(
                    &mut m,
                    &format!("exact.nodes_per_s.{}", tier.name()),
                    ratio(st.nodes as f64, st.ns as f64 / 1e9),
                    st.runs,
                );
            }
        }
    }
    for tier in tiers {
        let (count, ns) = s.validations[tier.index()];
        put(
            &mut m,
            &format!("validate.ns.{}", tier.name()),
            ratio(ns as f64, count as f64),
            count,
        );
    }
    for kind in SolverKind::all() {
        let planned: &[SizeTier] = match kind {
            SolverKind::Exact => &tiers[..1],
            SolverKind::Eptas => &tiers[..2],
            _ => &tiers[..],
        };
        for tier in planned {
            let st = s.members[kind.index()][tier.index()];
            put(
                &mut m,
                &format!("member.{}.win_ratio.{}", kind.name(), tier.name()),
                ratio(st.wins as f64, st.runs as f64),
                st.runs,
            );
        }
    }
    put(
        &mut m,
        "request.self_ns",
        ratio(totals[REQUEST].2 as f64, n),
        calls(REQUEST),
    );
    put(
        &mut m,
        "portfolio.race_self_ns",
        ratio(totals[RACE].2 as f64, calls(RACE) as f64),
        calls(RACE),
    );
    put(
        &mut m,
        "trace.overhead_ns_per_line",
        (traced_s - untraced_s) * 1e9 / n,
        s.lines,
    );
    let mut self_ns = obj();
    for (name, (count, _, self_total)) in NAMES.iter().zip(&totals) {
        self_ns.push_f(name, ratio(*self_total as f64, *count as f64));
    }
    Ok(obj()
        .o("metrics", m)
        .o("bases", bases)
        .o("self_ns_per_call", self_ns)
        .o("service", service)
        .f("traced_wall_s", traced_s)
        .f("untraced_wall_s", untraced_s)
        .u("lines", s.lines)
        .u("spans", t.spans.len() as u64)
        .u("replay_mismatches", mismatches)
        .to_string())
}
