//! `msrs` — the command-line frontend of the solver-portfolio engine.
//!
//! ```text
//! msrs gen    --family uniform --count 100 --machines 4 --seed 1 --out corpus.jsonl
//! msrs solve  --input instance.txt            # msrs-text or JSONL, `-` = stdin
//! msrs batch  --input corpus.jsonl --threads 8 --shard-size 4096 --out reports.jsonl
//! msrs batch  --input corpus.jsonl --metrics-out metrics.json   # + telemetry snapshot
//! msrs stats  --input metrics.json            # pretty-print a snapshot
//! msrs bench  --families uniform,zipf --count 20 --machines 4
//! ```
//!
//! Instances travel as JSON lines (`{"id":…,"machines":…,"classes":[[…]]}`)
//! or in the `msrs-instance v1` text format of `msrs_core::io`; reports come
//! back as JSON lines. `solve` and `batch` read their input incrementally —
//! `batch` streams corpora through the sharded pipeline
//! ([`msrs_engine::stream`]) in O(shard) memory, so corpus length is
//! unbounded. Flag parsing is hand-rolled so the binary stays
//! dependency-free.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use msrs_core::{io as text_io, validate};
use msrs_engine::dispatch;
use msrs_engine::families::FAMILIES;
use msrs_engine::json::Json;
use msrs_engine::service::{self, ServeConfig};
use msrs_engine::stream::{JsonlServer, DEFAULT_SHARD_SIZE};
use msrs_engine::telemetry;
use msrs_engine::{
    family, family_names, jsonl, run_remote_worker, Engine, EngineConfig, RemoteHub,
    RemoteWorkerConfig, SolveReport, SolveRequest, SolverKind, DEFAULT_CACHE_CAPACITY,
};

const USAGE: &str = "msrs — solver-portfolio engine for Scheduling with Many Shared Resources

USAGE:
    msrs <SUBCOMMAND> [FLAGS]

SUBCOMMANDS:
    gen     Generate a JSONL instance corpus from the named families
    solve   Solve one instance (msrs-text or JSONL; `--input -` reads stdin)
    batch   Solve a JSONL corpus in parallel, emitting JSONL reports
    serve   Serve JSONL requests over TCP: concurrent sessions, admission
            control, per-request deadlines, live stats endpoint
    dispatch Solve a JSONL corpus across a worker fleet (child processes
            and/or remote TCP workers): health monitoring, shard leases,
            bounded retry, straggler hedging, poison-shard quarantine, and
            an fsync'd checkpoint journal for crash-tolerant resume
    worker  The dispatch worker loop: dials a coordinator with
            `--connect HOST:PORT` (`dispatch` spawns its children so)
    stats   Pretty-print a telemetry snapshot written by `batch --metrics-out`
    bench   Compare the portfolio against each single solver on generated corpora
    help    Show this help

COMMON ENGINE FLAGS (solve, batch, serve, dispatch, worker, bench):
    --threads <N>        Worker threads for a batch's instances (each one's
                         portfolio members run one after another; 0 =
                         MSRS_THREADS or all cores)              [default: 0]
    --no-baselines       Skip the prior-work baseline solvers
    --deadline-ms <D>    Per-instance wall-clock deadline (opt-in nondeterminism;
                         bypasses the result cache)
    --exact-nodes <N>    Exact-solver node budget
    --no-eptas           Disable the EPTAS portfolio member
    --cache-capacity <N> Canonical-form result-cache capacity  [default: 1024]
    --no-cache           Disable the result cache and intra-batch dedup

GEN FLAGS:
    --family <NAME|all>  uniform|zipf|satellite|photolitho|adversarial|boundary|
                         huge|traffic
    --count <N>          Instances per family                    [default: 10]
    --machines <M>       Machine count                           [default: 4]
    --seed <S>           Base seed                               [default: 1]
    --out <PATH>         Output file (stdout if omitted)

SOLVE FLAGS:
    --input <PATH|->     Instance file (sniffs JSONL vs msrs-text)
    --json               Emit the full JSON report instead of the summary
    --schedule           Also print the schedule in msrs-text format

BATCH FLAGS:
    --input <PATH|->     JSONL corpus (streamed incrementally — never loaded
                         whole; memory stays O(shard))
    --out <PATH>         Report JSONL file (stdout if omitted)
    --shard-size <N>     Requests per pipeline shard             [default: 4096]
    --quiet              Suppress the per-batch summary on stderr
    --metrics-out <P>    Write the end-of-run telemetry snapshot (counters,
                         stage-latency histograms, per-(profile, member)
                         outcome table) to this file
    --metrics-format <F> Snapshot format: json|prometheus        [default: json]
    --cache-path <P>     Durable result-cache store (crash-safe append-only
                         log): warm-load it on start, persist every fresh
                         solve; needs the cache (no --no-cache, --deadline-ms)

SERVE FLAGS:
    --addr <A>           JSONL listen address          [default: 127.0.0.1:7463]
    --max-inflight <N>   Bound on concurrently served requests across all
                         sessions (0 = unlimited); excess request lines are
                         shed with an `overloaded` error line    [default: 0]
    --metrics-addr <A>   Also serve the live telemetry snapshot over HTTP
                         (Prometheus text; JSON when the path contains `json`)
                         Control lines: `#stats` returns the snapshot as one
                         JSON line in-session; `#shutdown` drains in-flight
                         work and exits gracefully
    --idle-timeout-ms <D> Close a session with a structured `idle_timeout`
                         error line after D ms without a request
                         (0 = never)                             [default: 0]
    --max-requests-per-session <N> Close a session with a structured
                         `session_limit` error line after N served requests
                         (0 = unlimited)                         [default: 0]
    --cache-path <P>     Durable result-cache store: a restarted server
                         answers previously served traffic from the fast
                         path immediately (warm restart)

DISPATCH FLAGS:
    --input <PATH|->     JSONL corpus (shard boundaries identical to `batch`)
    --out <PATH>         Merged report JSONL file (required; shard order)
    --checkpoint <PATH>  Append-only fsync'd shard journal; if it exists the
                         run resumes after the last completed shard (the
                         corpus and engine config must be unchanged)
    --workers <N>        Worker children to keep alive, dialing --listen or
                         else a loopback port only they can join
                         (0 = remote-only fleet, needs --listen) [default: 2]
    --worker-cmd <CMD>   Worker command prefix (whitespace-split) instead of
                         the msrs binary itself; engine flags,
                         --heartbeat-ms, and `--connect ADDR
                         --reconnect-max 0` are appended
    --listen <ADDR>      Also accept remote `msrs worker --connect` fleets
                         on this TCP address (versioned handshake; engine
                         config fingerprints must match)
    --hedge-multiplier <X> Hedge a straggling shard once its runtime exceeds
                         X × the trailing median shard time and a worker is
                         idle (0 = hedging off)                  [default: 0]
    --hedge-min-ms <D>   Floor for the hedging threshold         [default: 250]
    --shard-size <N>     Meaningful lines per shard              [default: 4096]
    --max-attempts <N>   Attempts per shard before quarantine    [default: 3]
    --retry-backoff-ms <D> Base retry backoff (doubles per failure)
                                                                 [default: 50]
    --heartbeat-timeout-ms <D> Silence deadline for a busy worker,
                         and handshake deadline for a new child  [default: 3000]
    --shard-timeout-ms <D> Wall-clock deadline per shard attempt (0 = none)
                                                                 [default: 0]
    --stop-after-shards <N> Graceful drain after N emitted shards (the
                         checkpoint resumes the run) — deterministic
                         mid-run interruption for tests/CI
    --quiet              Suppress the run summary on stderr
    --metrics-out <P>    Write the end-of-run telemetry snapshot
    --metrics-format <F> Snapshot format: json|prometheus        [default: json]
    --cache-path <P>     Durable fleet-shared result cache: the coordinator
                         becomes the cache authority — workers probe it
                         before solving (`#cacheq`) and share fresh solves
                         back (`#cachefill`), all persisted crash-safe
                         A `#shutdown` line on stdin (file-input runs) also
                         drains gracefully; a killed coordinator resumes
                         from the checkpoint.

WORKER FLAGS:
    --connect <ADDR>     The coordinator to dial (required)
    --heartbeat-ms <D>   Heartbeat period                        [default: 200]
    --reconnect-ms <D>   Base reconnect backoff after a dropped coordinator
                         connection (doubles per failure, bounded)
                                                                 [default: 200]
    --reconnect-max <N>  Consecutive failed connection attempts before the
                         worker gives up                         [default: 8]

STATS FLAGS:
    --input <PATH|->     A JSON telemetry snapshot (from `batch --metrics-out`)

BENCH FLAGS:
    --families <LIST>    Comma-separated family names            [default: all]
    --count <N>          Instances per family                    [default: 10]
    --machines <M>       Machine count                           [default: 4]
    --seed <S>           Base seed                               [default: 1]
";

/// Engine flags shared by `solve`, `batch`, and `bench`.
const ENGINE_FLAGS: &[&str] = &[
    "--threads",
    "--no-baselines",
    "--no-eptas",
    "--exact-nodes",
    "--deadline-ms",
    "--cache-capacity",
    "--no-cache",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let allowed: &[&str] = match cmd {
        "gen" => &["--family", "--count", "--machines", "--seed", "--out"],
        "solve" => &["--input", "--json", "--schedule"],
        "batch" => &[
            "--input",
            "--out",
            "--quiet",
            "--shard-size",
            "--metrics-out",
            "--metrics-format",
            "--cache-path",
        ],
        "serve" => &[
            "--addr",
            "--max-inflight",
            "--metrics-addr",
            "--quiet",
            "--idle-timeout-ms",
            "--max-requests-per-session",
            "--cache-path",
        ],
        "dispatch" => &[
            "--input",
            "--out",
            "--checkpoint",
            "--workers",
            "--worker-cmd",
            "--listen",
            "--shard-size",
            "--max-attempts",
            "--retry-backoff-ms",
            "--heartbeat-timeout-ms",
            "--shard-timeout-ms",
            "--stop-after-shards",
            "--hedge-multiplier",
            "--hedge-min-ms",
            "--heartbeat-ms",
            "--quiet",
            "--metrics-out",
            "--metrics-format",
            "--cache-path",
        ],
        "worker" => &[
            "--heartbeat-ms",
            "--connect",
            "--reconnect-ms",
            "--reconnect-max",
        ],
        "stats" => &["--input"],
        "bench" => &["--families", "--count", "--machines", "--seed"],
        _ => &[],
    };
    let takes_engine_flags = matches!(
        cmd,
        "solve" | "batch" | "serve" | "dispatch" | "worker" | "bench"
    );
    let flags = match Flags::parse(&args[1..], allowed, takes_engine_flags) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "gen" => cmd_gen(&flags),
        "solve" => cmd_solve(&flags),
        "batch" => cmd_batch(&flags),
        "serve" => cmd_serve(&flags),
        "dispatch" => cmd_dispatch(&flags),
        "worker" => cmd_worker(&flags),
        "stats" => cmd_stats(&flags),
        "bench" => cmd_bench(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}` (try `msrs help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--flag value` / `--switch` arguments.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], allowed: &[&str], takes_engine_flags: bool) -> Result<Flags, String> {
        const SWITCHES: &[&str] = &[
            "--no-baselines",
            "--no-eptas",
            "--no-cache",
            "--json",
            "--schedule",
            "--quiet",
        ];
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = &args[i];
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let known = allowed.contains(&flag.as_str())
                || (takes_engine_flags && ENGINE_FLAGS.contains(&flag.as_str()));
            if !known {
                let mut all: Vec<&str> = allowed.to_vec();
                if takes_engine_flags {
                    all.extend(ENGINE_FLAGS);
                }
                return Err(format!(
                    "unknown flag `{flag}` (accepted here: {})",
                    all.join(", ")
                ));
            }
            if SWITCHES.contains(&flag.as_str()) {
                pairs.push((flag.clone(), None));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
                pairs.push((flag.clone(), Some(value.clone())));
                i += 2;
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: `{v}`")),
        }
    }
}

fn engine_from_flags(flags: &Flags) -> Result<Engine, String> {
    engine_config_from_flags(flags).map(Engine::new)
}

/// Wires `--cache-path` (when given) into the engine: warm-loads every
/// compatible record into the in-memory cache and persists fresh solves.
/// A store written under a different engine configuration is a hard
/// error, not a silent cold start.
fn attach_cache_path(flags: &Flags, engine: &Engine) -> Result<(), String> {
    let Some(path) = flags.get("--cache-path") else {
        return Ok(());
    };
    let stats = engine
        .attach_cache_store(std::path::Path::new(path))
        .map_err(|e| format!("opening cache store {path}: {e}"))?;
    if !flags.has("--quiet") {
        eprintln!(
            "cache store: {} report(s) warm-loaded from {path}",
            stats.loaded
        );
    }
    Ok(())
}

fn engine_config_from_flags(flags: &Flags) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default();
    cfg.threads = flags.get_num("--threads", cfg.threads)?;
    cfg.run_baselines = !flags.has("--no-baselines");
    cfg.eptas.enabled = !flags.has("--no-eptas");
    cfg.exact.max_nodes = flags.get_num("--exact-nodes", cfg.exact.max_nodes)?;
    // The CLI serves repeated traffic, so the cache defaults ON here (the
    // library default is off unless MSRS_CACHE says otherwise).
    cfg.cache_capacity = if flags.has("--no-cache") {
        0
    } else {
        flags.get_num("--cache-capacity", DEFAULT_CACHE_CAPACITY)?
    };
    if let Some(ms) = flags.get("--deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --deadline-ms `{ms}`"))?;
        cfg.deadline = Some(Duration::from_millis(ms));
    }
    // An inactive cache would never use the store: refuse before it opens.
    if flags.has("--cache-path") && (cfg.cache_capacity == 0 || cfg.deadline.is_some()) {
        let why = "--cache-path needs the result cache: drop --no-cache, --cache-capacity 0 \
                   and --deadline-ms";
        return Err(why.into());
    }
    Ok(cfg)
}

/// Opens `--input` as a buffered incremental reader (`-` = stdin). Neither
/// `solve` nor `batch` ever materializes the input as one `String`; corpora
/// stream line by line.
fn open_input(flags: &Flags) -> Result<Box<dyn BufRead>, String> {
    match flags.get("--input") {
        None => Err("missing --input (use `-` for stdin)".into()),
        Some("-") => Ok(Box::new(BufReader::new(std::io::stdin()))),
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
            Ok(Box::new(BufReader::new(file)))
        }
    }
}

fn write_output(flags: &Flags, content: &str) -> Result<(), String> {
    match flags.get("--out") {
        None => {
            print!("{content}");
            Ok(())
        }
        Some(path) => std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}")),
    }
}

/// `--machines` of `gen` and `bench`: every generator needs at least one.
fn machines_flag(flags: &Flags) -> Result<usize, String> {
    match flags.get_num("--machines", 4)? {
        0 => Err("--machines must be ≥ 1".into()),
        machines => Ok(machines),
    }
}

/// `msrs gen`: emit a JSONL corpus.
fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let which = flags.get("--family").unwrap_or("all");
    let count: u64 = flags.get_num("--count", 10)?;
    let machines = machines_flag(flags)?;
    let seed: u64 = flags.get_num("--seed", 1)?;
    let specs: Vec<_> = if which == "all" {
        FAMILIES.iter().collect()
    } else {
        which
            .split(',')
            .map(|name| {
                family(name.trim()).ok_or_else(|| {
                    format!(
                        "unknown family `{name}` (known: {})",
                        family_names().join(", ")
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };
    let mut out = String::new();
    for spec in specs {
        for k in 0..count {
            let inst = (spec.generate)(seed.wrapping_add(k), machines);
            let id = format!("{}-m{}-s{}", spec.name, machines, seed.wrapping_add(k));
            out.push_str(&jsonl::write_instance_line(Some(&id), &inst));
            out.push('\n');
        }
    }
    write_output(flags, &out)
}

/// Sniffs JSONL vs msrs-text from the first meaningful line and parses a
/// single instance, reading incrementally: JSONL inputs are parsed line by
/// line (with real line numbers in errors); only the msrs-text format —
/// which always describes exactly one instance — is read to the end.
fn parse_single_instance(input: &mut dyn BufRead) -> Result<SolveRequest, String> {
    let mut line_no = 0usize;
    let mut buf = String::new();
    let first = loop {
        buf.clear();
        line_no += 1;
        let n = input
            .read_line(&mut buf)
            .map_err(|e| format!("reading input: {e}"))?;
        if n == 0 {
            return Err("empty input".into());
        }
        if let Some(line) = jsonl::meaningful(&buf) {
            break line.to_string();
        }
    };
    if first.starts_with('{') {
        let req = jsonl::read_instance_line(line_no, &first).map_err(|e| e.to_string())?;
        let mut extra = 0usize;
        loop {
            buf.clear();
            match input.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => extra += usize::from(jsonl::meaningful(&buf).is_some()),
                Err(e) => return Err(format!("reading input: {e}")),
            }
        }
        if extra > 0 {
            return Err(format!(
                "`msrs solve` expects exactly one instance, found {} (use `msrs batch`)",
                extra + 1
            ));
        }
        Ok(req)
    } else {
        let mut text = first;
        text.push('\n');
        input
            .read_to_string(&mut text)
            .map_err(|e| format!("reading input: {e}"))?;
        let inst = text_io::read_instance(&text).map_err(|e| e.to_string())?;
        Ok(SolveRequest::new(inst))
    }
}

/// `msrs solve`: one instance, human summary or JSON report.
fn cmd_solve(flags: &Flags) -> Result<(), String> {
    let req = parse_single_instance(&mut *open_input(flags)?)?;
    let engine = engine_from_flags(flags)?;
    let report = engine.solve(&req);
    debug_assert!(validate(&req.instance, &report.schedule).is_ok());
    if flags.has("--json") {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.summary());
        for run in &report.runs {
            println!(
                "  {:>14}  {:>9}  makespan {:>6}  {:>10}",
                run.solver.name(),
                run.status.label(),
                run.makespan.map_or("-".into(), |m| m.to_string()),
                format!("{} µs", run.wall_micros),
            );
        }
    }
    if flags.has("--schedule") {
        print!("{}", text_io::write_schedule(&report.schedule));
    }
    Ok(())
}

/// `msrs batch`: JSONL corpus in, JSONL reports out — streamed through the
/// sharded pipeline in O(shard) memory, reports emitted incrementally.
fn cmd_batch(flags: &Flags) -> Result<(), String> {
    let shard_size: usize = flags.get_num("--shard-size", DEFAULT_SHARD_SIZE)?;
    if shard_size == 0 {
        return Err("--shard-size must be ≥ 1".into());
    }
    let engine = engine_from_flags(flags)?;
    attach_cache_path(flags, &engine)?;
    let input = open_input(flags)?;
    let stdout = std::io::stdout();
    let mut out: Box<dyn Write> = match flags.get("--out") {
        // Buffer the locked stdout too: the raw StdoutLock is line-buffered
        // (one write syscall per report), which a 100k-report stream feels.
        None => Box::new(BufWriter::new(stdout.lock())),
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            Box::new(BufWriter::new(file))
        }
    };
    check_metrics_format(flags)?;
    let before = telemetry::snapshot();
    let outcome = JsonlServer::new()
        .serve(&engine, input, &mut out, shard_size)
        .map_err(|e| format!("writing reports: {e}"))?;
    out.flush().map_err(|e| format!("writing reports: {e}"))?;
    drop(out);
    // Join the store's writer first, so the snapshot counts its flushes.
    engine.close_store();
    // All summary lines below are rebuilt from registry snapshots (the
    // per-run view is the delta against the pre-run snapshot); the engine's
    // deprecated per-object accessors are no longer consulted.
    let after = telemetry::snapshot();
    write_metrics(flags, &after)?;
    if !flags.has("--quiet") {
        let s = &outcome.stats;
        eprintln!(
            "batch: {} instances in {} shard(s) (shard size {}, max resident {}), \
             {} proven optimal, ratio vs bound mean {:.4} worst {:.4}",
            s.instances,
            s.shards,
            s.shard_size,
            s.max_resident,
            s.proven_optimal,
            s.ratio_mean(),
            s.ratio_worst,
        );
        // The data-plane time split: a regression in any hop (slow parsing,
        // slow fingerprinting, slow emission) is visible here even when
        // solver time is unchanged.
        eprintln!(
            "data plane: parse {} µs, canonicalize {} µs, solve {} µs, serialize {} µs \
             ({} served straight from cache)",
            s.parse_micros, s.canon_micros, s.solve_micros, s.serialize_micros, s.fast_path_hits,
        );
        let delta = |name: &str| after.counter(name) - before.counter(name);
        if after.gauge("msrs_cache_capacity") > 0 {
            eprintln!(
                "cache: {} hits, {} misses, {} evictions, {} entries (capacity {})",
                delta("msrs_cache_hits_total"),
                delta("msrs_cache_misses_total"),
                delta("msrs_cache_evictions_total"),
                after.gauge("msrs_cache_entries"),
                after.gauge("msrs_cache_capacity"),
            );
        }
        // Delta of the process-global pool counters over this run: how the
        // chunks were actually distributed between the caller and the
        // helper slots this run's thread budget allows.
        let threads = match flags.get_num("--threads", 0)? {
            0 => rayon::current_num_threads(),
            n => n,
        };
        let helper_chunks: Vec<u64> = after.pool_worker_chunks
            [..threads.saturating_sub(1).min(telemetry::POOL_HELPER_SLOTS)]
            .iter()
            .zip(&before.pool_worker_chunks)
            .map(|(now, prev)| now - prev)
            .collect();
        eprintln!(
            "pool: {} parallel op(s), {} helper thread(s), \
             chunks by caller {}, by helper {:?}",
            delta("msrs_pool_ops_total"),
            delta("msrs_pool_helper_jobs_total"),
            delta("msrs_pool_caller_chunks_total"),
            helper_chunks,
        );
    }
    if let Some(err) = outcome.error {
        return Err(err.to_string());
    }
    if outcome.stats.instances == 0 {
        return Err("corpus contains no instances".into());
    }
    Ok(())
}

/// `msrs serve`: a long-lived JSONL-over-TCP front end on the same
/// `ServiceCore` data plane as `msrs batch`. Runs until a client sends the
/// `#shutdown` control line (graceful: in-flight requests complete and
/// flush before the listener exits) or the process is killed.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let engine = engine_from_flags(flags)?;
    attach_cache_path(flags, &engine)?;
    let addr = flags.get("--addr").unwrap_or("127.0.0.1:7463");
    let idle_timeout = match flags.get_num("--idle-timeout-ms", 0u64)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let config = ServeConfig {
        max_inflight: flags.get_num("--max-inflight", 0usize)?,
        metrics_addr: flags.get("--metrics-addr").map(String::from),
        idle_timeout,
        max_requests_per_session: flags.get_num("--max-requests-per-session", 0usize)?,
    };
    let handle =
        service::serve(engine, addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
    let quiet = flags.has("--quiet");
    if !quiet {
        eprintln!("serve: listening on {}", handle.local_addr());
        if let Some(metrics) = handle.metrics_local_addr() {
            eprintln!("serve: metrics on http://{metrics}/metrics");
        }
        eprintln!("serve: `#stats` returns a snapshot, `#shutdown` drains and exits");
    }
    let summary = handle.wait();
    if !quiet {
        eprintln!(
            "serve: {} session(s), {} request(s) answered, {} shed, {} error line(s)",
            summary.sessions, summary.requests, summary.sheds, summary.errors,
        );
    }
    Ok(())
}

/// Validates `--metrics-format` (json|prometheus), which needs
/// `--metrics-out`.
fn check_metrics_format(flags: &Flags) -> Result<(), String> {
    match flags.get("--metrics-format") {
        None => Ok(()),
        Some("json" | "prometheus") if flags.has("--metrics-out") => Ok(()),
        Some("json" | "prometheus") => Err("--metrics-format requires --metrics-out".into()),
        Some(other) => Err(format!(
            "bad --metrics-format `{other}` (expected json or prometheus)"
        )),
    }
}

/// Writes `snapshot` to the `--metrics-out` file, if one was given.
fn write_metrics(flags: &Flags, snapshot: &telemetry::Snapshot) -> Result<(), String> {
    let Some(path) = flags.get("--metrics-out") else {
        return Ok(());
    };
    let rendered = if flags.get("--metrics-format") == Some("prometheus") {
        snapshot.to_prometheus()
    } else {
        snapshot.to_json_string() + "\n"
    };
    std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))
}

/// `msrs dispatch`: crash-tolerant multi-process batch — shards the corpus
/// across `msrs worker --connect` processes, merges reports in shard order,
/// and (with `--checkpoint`) journals completed shards durably so an
/// interrupted run resumes bit-identically.
fn cmd_dispatch(flags: &Flags) -> Result<(), String> {
    let shard_size: usize = flags.get_num("--shard-size", DEFAULT_SHARD_SIZE)?;
    if shard_size == 0 {
        return Err("--shard-size must be ≥ 1".into());
    }
    let out_path = flags
        .get("--out")
        .ok_or("dispatch needs --out (reports must land in a real file)")?;
    let engine_cfg = engine_config_from_flags(flags)?;
    let mut worker_cmd = match flags.get("--worker-cmd") {
        Some(cmd) => {
            let parts: Vec<String> = cmd.split_whitespace().map(String::from).collect();
            if parts.is_empty() {
                return Err("--worker-cmd must not be blank".into());
            }
            parts
        }
        None => {
            let exe = std::env::current_exe().map_err(|e| format!("locating msrs binary: {e}"))?;
            vec![exe.to_string_lossy().into_owned(), "worker".into()]
        }
    };
    for (flag, value) in &flags.pairs {
        let forwarded = ENGINE_FLAGS.contains(&flag.as_str()) || flag == "--heartbeat-ms";
        if forwarded {
            worker_cmd.push(flag.clone());
            if let Some(v) = value {
                worker_cmd.push(v.clone());
            }
        }
    }
    let workers: usize = flags.get_num("--workers", 2usize)?;
    if workers == 0 && !flags.has("--listen") {
        return Err("--workers 0 needs --listen (a remote-only fleet)".into());
    }
    let cfg = dispatch::DispatchConfig {
        worker_cmd,
        workers,
        shard_size,
        max_attempts: flags.get_num("--max-attempts", 3u32)?,
        retry_backoff: Duration::from_millis(flags.get_num("--retry-backoff-ms", 50u64)?),
        heartbeat_timeout: Duration::from_millis(flags.get_num(
            "--heartbeat-timeout-ms",
            dispatch::DEFAULT_HEARTBEAT_TIMEOUT.as_millis() as u64,
        )?),
        shard_timeout: match flags.get_num("--shard-timeout-ms", 0u64)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        stop_after_shards: match flags.get("--stop-after-shards") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("bad --stop-after-shards `{v}`"))?,
            ),
        },
        hedge_multiplier: flags.get_num("--hedge-multiplier", 0.0f64)?,
        hedge_min: Duration::from_millis(flags.get_num("--hedge-min-ms", 250u64)?),
        config_fp: engine_cfg.content_fingerprint(),
        cache_path: flags.get("--cache-path").map(std::path::PathBuf::from),
    };
    check_metrics_format(flags)?;
    // A `#shutdown` line on our own stdin requests a graceful drain (only
    // when the corpus comes from a file — stdin corpora own the stream).
    let shutdown = Arc::new(AtomicBool::new(false));
    if flags.get("--input") != Some("-") {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) if line.trim() == "#shutdown" => {
                        shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
                        return;
                    }
                    Ok(_) => {}
                }
            }
        });
    }
    let hub = match flags.get("--listen") {
        Some(addr) => Some(RemoteHub::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?),
        None => None,
    };
    if let Some(hub) = hub.as_ref().filter(|_| !flags.has("--quiet")) {
        eprintln!("dispatch: accepting remote workers on {}", hub.local_addr());
    }
    let input = open_input(flags)?;
    let checkpoint = flags.get("--checkpoint").map(std::path::PathBuf::from);
    let outcome = dispatch::dispatch_fleet(
        input,
        std::path::Path::new(out_path),
        checkpoint.as_deref(),
        &cfg,
        Some(&shutdown),
        hub,
    )
    .map_err(|e| format!("dispatch: {e}"))?;
    write_metrics(flags, &telemetry::snapshot())?;
    if !flags.has("--quiet") {
        let s = &outcome.stats;
        eprintln!(
            "dispatch: {} instances in {} shard(s) (shard size {}, {} resumed from checkpoint), \
             {} proven optimal, ratio vs bound mean {:.4} worst {:.4}",
            s.instances,
            outcome.shards_total,
            s.shard_size,
            outcome.shards_resumed,
            s.proven_optimal,
            s.ratio_mean(),
            s.ratio_worst,
        );
        eprintln!(
            "fleet: {} worker(s) spawned for {} slot(s), {} retry(ies), {} quarantined shard(s)",
            outcome.workers_spawned,
            cfg.workers,
            outcome.retries,
            outcome.quarantined.len(),
        );
        if flags.has("--listen")
            || outcome.lease_expiries > 0
            || outcome.hedges_launched > 0
            || outcome.stale_drops > 0
        {
            eprintln!(
                "leases: {} remote worker(s) ({} reconnect(s)), {} lease expiry(ies), \
                 hedges {} launched / {} won / {} wasted, {} stale attempt(s) dropped",
                outcome.remote_workers,
                outcome.reconnects,
                outcome.lease_expiries,
                outcome.hedges_launched,
                outcome.hedges_won,
                outcome.hedges_wasted,
                outcome.stale_drops,
            );
        }
        if flags.has("--cache-path") {
            eprintln!(
                "cache plane: {} probe(s) answered from the shared store, \
                 {} stale fill(s) dropped",
                outcome.fleet_cache_hits, outcome.stale_fills_dropped,
            );
        }
        for q in &outcome.quarantined {
            let worker = q
                .worker
                .map_or(String::new(), |w| format!(" (last worker {w})"));
            eprintln!(
                "quarantined: shard {} after {} attempt(s){worker}: {}",
                q.shard, q.attempts, q.message
            );
        }
        if outcome.interrupted {
            eprintln!("dispatch: drained early — rerun with the same --checkpoint to resume");
        }
    }
    if let Some(err) = outcome.error {
        return Err(err.to_string());
    }
    if !outcome.quarantined.is_empty() {
        return Err(format!(
            "{} shard(s) quarantined (structured error records emitted in place of reports)",
            outcome.quarantined.len()
        ));
    }
    if outcome.stats.instances == 0 && !outcome.interrupted {
        return Err("corpus contains no instances".into());
    }
    Ok(())
}

/// `msrs worker`: the dispatch worker loop — dials the coordinator at
/// `--connect HOST:PORT` (versioned handshake, bounded reconnect backoff
/// across coordinator restarts), then shard assignments in, reports +
/// heartbeats + `#done`/`#error` records out.
fn cmd_worker(flags: &Flags) -> Result<(), String> {
    let addr = flags
        .get("--connect")
        .ok_or("worker needs --connect HOST:PORT (the coordinator to dial)")?;
    let engine_cfg = engine_config_from_flags(flags)?;
    let config_fp = engine_cfg.content_fingerprint();
    let engine = Engine::new(engine_cfg);
    let hb: u64 = flags.get_num(
        "--heartbeat-ms",
        dispatch::DEFAULT_HEARTBEAT.as_millis() as u64,
    )?;
    let defaults = RemoteWorkerConfig::default();
    let cfg = RemoteWorkerConfig {
        addr: addr.to_string(),
        heartbeat: Duration::from_millis(hb.max(1)),
        config_fp,
        reconnect_base: Duration::from_millis(
            flags
                .get_num("--reconnect-ms", defaults.reconnect_base.as_millis() as u64)?
                .max(1),
        ),
        reconnect_attempts: flags.get_num("--reconnect-max", defaults.reconnect_attempts)?,
        ..defaults
    };
    run_remote_worker(&engine, &cfg).map_err(|e| format!("worker: {e}"))
}

/// `msrs stats`: pretty-print a JSON telemetry snapshot written by
/// `msrs batch --metrics-out` (counters, gauges, stage-latency quantiles,
/// and the per-(profile, member) outcome table).
fn cmd_stats(flags: &Flags) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::new();
    open_input(flags)?
        .read_to_string(&mut text)
        .map_err(|e| format!("reading input: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing snapshot: {e}"))?;
    if doc.get("telemetry").and_then(Json::as_str) != Some("msrs") {
        return Err("not an msrs telemetry snapshot (missing `\"telemetry\":\"msrs\"`)".into());
    }
    let num = |v: &Json| v.as_u64().unwrap_or(0);
    // Render into a buffer and write once at the end: stdout may be a pipe
    // that closes early (`msrs stats | head`), which must truncate the
    // output, not panic.
    let mut buf = String::new();
    macro_rules! out {
        ($($t:tt)*) => {{ let _ = writeln!(buf, $($t)*); }};
    }
    if let Some(Json::Obj(counters)) = doc.get("counters") {
        out!("counters:");
        for (name, v) in counters {
            out!("  {name:<34} {}", num(v));
        }
    }
    if let Some(Json::Obj(gauges)) = doc.get("gauges") {
        out!("gauges:");
        for (name, v) in gauges {
            match v {
                Json::Num(n) => out!("  {name:<34} {n}"),
                _ => out!("  {name:<34} ?"),
            }
        }
    }
    // Dispatch/fleet summary: the operator-facing counter families from
    // the coordinator (worker health, leases, hedging, cache plane),
    // surfaced with labels instead of leaving them buried in the raw
    // counter dump above.
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .map_or(0, |v| v.as_u64().unwrap_or(0))
    };
    let dispatch_active = [
        "msrs_dispatch_shards_total",
        "msrs_dispatch_workers_spawned_total",
        "msrs_dispatch_remote_workers_total",
        "msrs_cache_store_loads_total",
        "msrs_cache_store_flushes_total",
    ]
    .iter()
    .any(|name| counter(name) > 0);
    if dispatch_active {
        out!("dispatch/fleet:");
        out!(
            "  shards: {} emitted ({} resumed from checkpoint), {} retry(ies), \
             {} quarantined",
            counter("msrs_dispatch_shards_total"),
            counter("msrs_dispatch_shards_resumed_total"),
            counter("msrs_dispatch_retries_total"),
            counter("msrs_dispatch_quarantines_total"),
        );
        out!(
            "  workers: {} spawned, {} crash(es), {} remote ({} reconnect(s), \
             {} handshake reject(s))",
            counter("msrs_dispatch_workers_spawned_total"),
            counter("msrs_dispatch_worker_crashes_total"),
            counter("msrs_dispatch_remote_workers_total"),
            counter("msrs_dispatch_reconnects_total"),
            counter("msrs_dispatch_handshake_rejects_total"),
        );
        out!(
            "  leases: {} expiry(ies), {} stale attempt(s) dropped; hedges \
             {} launched / {} won / {} wasted",
            counter("msrs_dispatch_lease_expiries_total"),
            counter("msrs_dispatch_stale_drops_total"),
            counter("msrs_dispatch_hedges_total"),
            counter("msrs_dispatch_hedge_wins_total"),
            counter("msrs_dispatch_hedge_wasted_total"),
        );
        out!(
            "  cache plane: {} fleet hit(s), {} stale fill(s) dropped; store \
             {} loaded / {} load error(s) / {} flush(es)",
            counter("msrs_dispatch_fleet_cache_hits_total"),
            counter("msrs_dispatch_stale_fills_dropped_total"),
            counter("msrs_cache_store_loads_total"),
            counter("msrs_cache_store_load_errors_total"),
            counter("msrs_cache_store_flushes_total"),
        );
    }
    let field = |o: &Json, key: &str| o.get(key).map_or(0, num);
    if let Some(stages) = doc.get("stages").and_then(Json::as_arr) {
        out!(
            "stages (ns): {:<28} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
            "",
            "count",
            "sum",
            "p50",
            "p90",
            "p99",
            "max"
        );
        for stage in stages {
            let name = stage.get("name").and_then(Json::as_str).unwrap_or("?");
            out!(
                "  {name:<38} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
                field(stage, "count"),
                field(stage, "sum"),
                field(stage, "p50"),
                field(stage, "p90"),
                field(stage, "p99"),
                field(stage, "max"),
            );
        }
    }
    if let Some(outcomes) = doc.get("outcomes").and_then(Json::as_arr) {
        out!(
            "outcomes: {:<10} {:<14} {:>8} {:>8} {:>10} {:>9} {:>9} {:>12} {:>12}",
            "profile",
            "member",
            "runs",
            "wins",
            "completed",
            "timeout",
            "budget",
            "nodes",
            "p90 µs"
        );
        for o in outcomes {
            let profile = o.get("profile").and_then(Json::as_str).unwrap_or("?");
            let member = o.get("member").and_then(Json::as_str).unwrap_or("?");
            let wall_p90 = o.get("wall").map_or(0, |w| field(w, "p90"));
            out!(
                "  {profile:<8} {member:<14} {:>8} {:>8} {:>10} {:>9} {:>9} {:>12} {:>12}",
                field(o, "runs"),
                field(o, "wins"),
                field(o, "completed"),
                field(o, "timed_out"),
                field(o, "exhausted"),
                field(o, "nodes_total"),
                wall_p90,
            );
        }
    }
    if let Some(chunks) = doc.get("pool_worker_chunks").and_then(Json::as_arr) {
        let mut chunks: Vec<u64> = chunks.iter().map(num).collect();
        // Helper slots past the last one that ran a chunk are not printed.
        while chunks.last() == Some(&0) {
            chunks.pop();
        }
        if !chunks.is_empty() {
            out!("pool chunks by helper: {chunks:?}");
        }
    }
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(buf.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("writing stats: {e}")),
        _ => Ok(()),
    }
}

/// `msrs bench`: portfolio vs every single solver over generated corpora.
fn cmd_bench(flags: &Flags) -> Result<(), String> {
    let which = flags.get("--families").unwrap_or("all");
    let count: u64 = flags.get_num("--count", 10)?;
    let machines = machines_flag(flags)?;
    let seed: u64 = flags.get_num("--seed", 1)?;
    if count == 0 {
        return Err("--count must be ≥ 1".into());
    }
    let engine = engine_from_flags(flags)?;
    let specs: Vec<_> = if which == "all" {
        FAMILIES.iter().collect()
    } else {
        which
            .split(',')
            .map(|name| family(name.trim()).ok_or_else(|| format!("unknown family `{name}`")))
            .collect::<Result<_, _>>()?
    };
    println!(
        "{:<12} {:>6} | {:>14} {:>9} {:>9} | portfolio vs single-solver mean ratio",
        "family", "n", "solver", "mean", "worst"
    );
    for spec in specs {
        let reqs: Vec<SolveRequest> = (0..count)
            .map(|k| {
                SolveRequest::with_id(
                    format!("{}-{k}", spec.name),
                    (spec.generate)(seed.wrapping_add(k), machines),
                )
            })
            .collect();
        let start = std::time::Instant::now();
        let reports = engine.solve_batch(&reqs);
        let elapsed = start.elapsed();
        let mean =
            reports.iter().map(SolveReport::ratio_vs_bound).sum::<f64>() / reports.len() as f64;
        let worst = reports
            .iter()
            .map(SolveReport::ratio_vs_bound)
            .fold(1.0f64, f64::max);
        println!(
            "{:<12} {:>6} | {:>14} {:>9.4} {:>9.4} | engine ({:?} total)",
            spec.name,
            reports.len(),
            "portfolio",
            mean,
            worst,
            elapsed,
        );
        // Single-solver comparison rows (certifying + baseline members).
        for kind in [
            SolverKind::FiveThirds,
            SolverKind::ThreeHalves,
            SolverKind::HebrardGreedy,
            SolverKind::ListScheduler,
            SolverKind::MergedLpt,
        ] {
            let mut mean = 0.0f64;
            let mut worst = 1.0f64;
            for req in &reqs {
                let result = match kind {
                    SolverKind::FiveThirds => msrs_approx::five_thirds(&req.instance),
                    SolverKind::ThreeHalves => msrs_approx::three_halves(&req.instance),
                    SolverKind::HebrardGreedy => {
                        msrs_approx::baselines::hebrard_greedy(&req.instance)
                    }
                    SolverKind::ListScheduler => {
                        msrs_approx::baselines::list_scheduler(&req.instance)
                    }
                    SolverKind::MergedLpt => msrs_approx::baselines::merged_lpt(&req.instance),
                    SolverKind::Exact | SolverKind::Eptas => {
                        unreachable!("not in the single-solver comparison row set")
                    }
                };
                let ratio = result.ratio_vs_bound(&req.instance);
                mean += ratio;
                worst = worst.max(ratio);
            }
            mean /= reqs.len() as f64;
            println!(
                "{:<12} {:>6} | {:>14} {:>9.4} {:>9.4} |",
                "",
                "",
                kind.name(),
                mean,
                worst
            );
        }
    }
    Ok(())
}
