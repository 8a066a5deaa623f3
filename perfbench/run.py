#!/usr/bin/env python3
"""The msrs benchmark: one command, four workloads, end-to-end and traced.

Run from the repository root:

    python3 perfbench/run.py --workload traffic_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

`--trace 0` drives the real `msrs` binary as a subprocess (bytes in, bytes
out) and prints the end-to-end metrics; `--trace 1` replays the same
generated inputs in-process with a span around every layer call and
prints the per-layer metrics. The last stdout line is the result object;
the line before it holds the host block, the measured input block and the
details behind each figure. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("traffic_hot", "cold_mix", "serve_open", "dispatch_durable")

# Corpus sizes: one invocation takes about a second on a 2-core host, so
# a run measures a dozen or more.
HOT_LINES = 60_000
COLD_LINES = 6_000
DISPATCH_LINES = 15_000
DISPATCH_SHARD = 256
MIN_INVOCATIONS = 3
SETUP_REPS = 21
# Lines per stdin write: the write's completion time stamps these lines.
FEED_LINES = 32

# serve_open, pinned once from a measured closed-loop capacity of
# ~13k req/s (one connection, stock traffic mix, 2-core host): the rates
# sit at 1/13, 2/13 and 4/13 of it, where the generator itself keeps up;
# the p99 limit is ~130 mean closed-loop round trips.
SERVE_RATES = (1000, 2000, 4000)
# Shares of the run per rate: the middle rate, whose latencies are the
# headline, gets most of the samples.
SERVE_SHARES = (0.2, 0.6, 0.2)
SERVE_LIMIT_US = 10_000
# Latencies are scored over windows of 1000 requests; a window in which
# the generator itself ran later than this at p99 was stalled by the
# machine and is left out. A rate with fewer than half its windows valid
# is rerun on fresh lines, up to LAG_ATTEMPTS times in all; if every
# attempt lagged, the run still reports (a run always ends with a
# result) and its details line marks the rate `"valid": false`.
LAG_LIMIT_US = 1_000
LAG_ATTEMPTS = 3
# Fits the 1024-entry cache's eight 128-entry shards with room to spare,
# so the warm-load evicts nothing.
SERVE_PREFILL = 800
TRACE_SERVE_SECONDS = 2.0

PROC_TIMEOUT = 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


class Procs:
    """Every child this run starts; all are gone when the run ends."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, **kw)
        self.live.append(p)
        return p

    def wait(self, p, timeout=PROC_TIMEOUT):
        """Reaps `p`; returns (exit code, cpu seconds, maxrss MiB)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                p.kill()
                pid, status, ru = os.wait4(p.pid, 0)
                break
            time.sleep(0.002)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        return p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def stop_all(self):
        for p in list(self.live):
            try:
                p.kill()
            except OSError:
                pass
            try:
                p.wait(timeout=10)
            except Exception:
                pass
            self.live.remove(p)


PROCS = Procs()


class Bench:
    def __init__(self, root, seed, seconds, work):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.work = work
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.target = target
        self.msrs = os.path.join(target, "release", "msrs")
        self.tool_bin = os.path.join(target, "release", "msrs-perfbench")

    def path(self, name):
        return os.path.join(self.work, name)

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for args in (
            ["-p", "msrs-engine", "--bin", "msrs"],
            ["--manifest-path", "perfbench/Cargo.toml"],
        ):
            cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
            r = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=850)
            if r.returncode != 0:
                die(f"build failed: {' '.join(cmd)}")

    def tool(self, *args):
        r = subprocess.run(
            [self.tool_bin, *map(str, args)],
            capture_output=True,
            text=True,
            timeout=PROC_TIMEOUT,
        )
        if r.returncode != 0:
            raise RuntimeError(f"msrs-perfbench {args[0]} failed: {r.stderr.strip()}")
        return json.loads(r.stdout.strip().splitlines()[-1])

    def gen(self, workload, lines, **extra):
        out = self.path(f"{workload}.jsonl")
        args = ["gen", "--workload", workload, "--seed", self.seed, "--lines", lines, "--out", out]
        for k, v in extra.items():
            args += [f"--{k.replace('_', '-')}", v]
        return out, self.tool(*args)

    def timed_setup(self, cmd, answer_on_stdout):
        """Wall time from spawning a one-line invocation until it answered:
        its report line on stdout, or (dispatch, whose answer is the
        committed output file) its exit."""
        t0 = time.perf_counter()
        p = PROCS.spawn(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL)
        answered = p.stdout.readline() if answer_on_stdout else p.stdout.read()
        t1 = time.perf_counter()
        p.stdout.close()
        code, _, _ = PROCS.wait(p)
        if code != 0 or (answer_on_stdout and not answered):
            raise RuntimeError(f"setup invocation failed: {' '.join(cmd)}")
        return t1 - t0


def feed(stdin, data, marks):
    """Writes `data` to a pipe FEED_LINES lines at a time, appending
    (time the write completed, lines written so far) to `marks`."""
    view = memoryview(data)
    pos, lines = 0, 0
    try:
        while pos < len(data):
            end = pos
            for _ in range(FEED_LINES):
                nl = data.find(b"\n", end)
                if nl < 0:
                    end = len(data)
                    break
                end = nl + 1
            stdin.write(view[pos:end])
            stdin.flush()
            lines += data.count(b"\n", pos, end)
            pos = end
            marks.append((time.perf_counter(), lines))
    except BrokenPipeError:
        pass
    finally:
        try:
            stdin.close()
        except BrokenPipeError:
            pass


def line_latencies(ins, outs):
    """Per-line latency (µs): the line's report time minus the time its
    input line was written. `ins`/`outs` are (time, cumulative lines)."""
    lat = []
    j = 0
    done = 0
    for t_out, upto in outs:
        while done < upto:
            while ins[j][1] <= done:
                j += 1
            lat.append((t_out - ins[j][0]) * 1e6)
            done += 1
    return lat


def read_hwm(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(x) for x in f.read().split()]
    except OSError:
        return []


def quartile(values, fast):
    """The quartile nearest the fast end: the lower one of times
    (`fast=True`), the upper one of rates."""
    lower, _, upper = statistics.quantiles(values, n=4)
    return lower if fast else upper


def pct(values, q):
    """Nearest-rank percentile; with it, the number of samples beyond."""
    s = sorted(values)
    rank = max(1, min(len(s), int(-(-q * len(s) // 1))))
    v = s[rank - 1]
    return v, sum(1 for x in s if x > v)


def stream_batch(b, data, lines, flags, out_path):
    """One `msrs batch` invocation fed through stdin; reports read from
    stdout. Returns its measurements."""
    p = PROCS.spawn([b.msrs, "batch", "--input", "-", "--quiet", *flags],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL)
    marks, outs = [], []
    t0 = time.perf_counter()
    writer = threading.Thread(target=feed, args=(p.stdin, data, marks))
    writer.start()
    fd = p.stdout.fileno()
    got = 0
    with open(out_path, "wb") as out:
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out.write(chunk)
            n = chunk.count(b"\n")
            if n:
                got += n
                outs.append((time.perf_counter(), got))
    t_last = outs[-1][0] if outs else time.perf_counter()
    writer.join()
    p.stdout.close()
    code, cpu, rss = PROCS.wait(p)
    if code != 0:
        raise RuntimeError(f"msrs batch exited with {code}")
    return {
        "wall_s": t_last - t0,
        "throughput": lines / (t_last - t0),
        "cpu_us_per_inst": cpu * 1e6 / lines,
        "rss_mb": rss,
        "lat": line_latencies(marks, outs),
    }


def stream_dispatch(b, data, lines, flags, out_path):
    """One `msrs dispatch` run: corpus on stdin, a pipe worker plus a
    `msrs worker --connect` over loopback TCP; the merged report file is
    tailed for per-line completion times."""
    p = PROCS.spawn([b.msrs, "dispatch", "--input", "-", "--out", out_path, *flags,
                     "--workers", "1", "--listen", "127.0.0.1:0"],
                    stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=False)
    t0 = time.perf_counter()
    first = p.stderr.readline().decode()
    if "accepting remote workers on" not in first:
        raise RuntimeError(f"dispatch did not listen: {first.strip()}")
    addr = first.split()[-1]
    remote = PROCS.spawn([b.msrs, "worker", "--connect", addr, "--reconnect-max", "1",
                          "--reconnect-ms", "20"],
                         stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    err_rest = []
    drain = threading.Thread(target=lambda: err_rest.append(p.stderr.read()))
    drain.start()
    marks, outs = [], []
    writer = threading.Thread(target=feed, args=(p.stdin, data, marks))
    writer.start()
    hwm = {}
    got, pos, polls = 0, 0, 0
    while True:
        # waitid with WNOWAIT leaves the child unreaped for wait4.
        alive = os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        try:
            with open(out_path, "rb") as f:
                f.seek(pos)
                chunk = f.read()
        except FileNotFoundError:
            chunk = b""
        if chunk:
            pos += len(chunk)
            n = chunk.count(b"\n")
            if n:
                got += n
                outs.append((time.perf_counter(), got))
        if polls % 8 == 0:
            for pid in [p.pid, remote.pid] + children(p.pid):
                v = read_hwm(pid)
                if v is not None:
                    hwm[pid] = max(hwm.get(pid, 0.0), v)
        polls += 1
        if not alive:
            break
        time.sleep(0.002)
    t_last = outs[-1][0] if outs else time.perf_counter()
    writer.join()
    code, cpu, _ = PROCS.wait(p)
    drain.join()
    _, rcpu, rrss = PROCS.wait(remote, timeout=10)
    hwm[remote.pid] = max(hwm.get(remote.pid, 0.0), rrss)
    stderr = b"".join(err_rest).decode(errors="replace")
    if code != 0:
        raise RuntimeError(f"msrs dispatch exited with {code}: {stderr.strip()}")
    remotes = 0
    for row in stderr.splitlines():
        if row.startswith("leases:"):
            remotes = int(row.split()[1])
    return {
        "wall_s": t_last - t0,
        "throughput": lines / (t_last - t0),
        "cpu_us_per_inst": (cpu + rcpu) * 1e6 / lines,
        "rss_mb": sum(hwm.values()),
        "lat": line_latencies(marks, outs),
        "remote_workers": remotes,
    }


def run_streamed(b, workload, lines, trace):
    corpus, block = b.gen(workload, lines)
    with open(corpus, "rb") as f:
        data = f.read()
    one = b.path("one.jsonl")
    with open(one, "wb") as f:
        f.write(data[: data.index(b"\n") + 1])
    counter = iter(range(1 << 30))

    def fresh(kind):
        return b.path(f"{kind}-{next(counter)}")

    if workload == "dispatch_durable":
        def flags():
            return ["--checkpoint", fresh("ckpt"), "--cache-path", fresh("store"),
                    "--shard-size", str(DISPATCH_SHARD)]
        setup_cmd = lambda: [b.msrs, "dispatch", "--input", one, "--out", fresh("out"),
                             *flags(), "--workers", "1", "--listen", "127.0.0.1:0", "--quiet"]
        invoke = stream_dispatch
    else:
        def flags():
            return ["--cache-path", fresh("store")] if workload == "cold_mix" else []
        setup_cmd = lambda: [b.msrs, "batch", "--input", one, "--quiet", *flags()]
        invoke = stream_batch

    if trace:
        return trace_streamed(b, workload, corpus, block, flags)

    # Earlier runs' store and report files may still be in writeback; let
    # it finish so their fsyncs are not charged to this run.
    os.sync()
    setups = [b.timed_setup(setup_cmd(), invoke is stream_batch) for _ in range(SETUP_REPS)]
    runs, outputs, stores = [], [], []
    deadline = time.perf_counter() + b.seconds
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        f = flags()
        out = fresh("out")
        runs.append(invoke(b, data, lines, f, out))
        outputs.append(out)
        if "--cache-path" in f:
            stores.append(f[f.index("--cache-path") + 1])
    check_args = ["check"]
    for out in outputs:
        check_args += ["--input", corpus, "--reports", out]
    for store in stores:
        check_args += ["--store", store]
    check = b.tool(*check_args)
    # Wall-clock figures come from the faster invocations: on a shared
    # host, other tenants only ever slow an invocation down, and the
    # fastest quartile stays put while up to three in four invocations
    # are disturbed. Latency percentiles are per invocation first.
    p50 = quartile([pct(r["lat"], 0.50)[0] for r in runs], fast=True)
    p99s = [pct(r["lat"], 0.99) for r in runs]
    p99 = quartile([v for v, _ in p99s], fast=True)
    beyond = min(n for _, n in p99s)
    throughput = quartile([r["throughput"] for r in runs], fast=False)
    attempted = lines * len(runs)
    details = {
        "invocations": len(runs),
        "throughputs": [r["throughput"] for r in runs],
        "latency_samples_per_invocation": lines,
        "latency_samples_beyond_p99_min": beyond,
        "setup_samples_s": setups,
        "fast_path_frac": check["cache_hit_lines"] / max(1, check["lines"]),
        # dispatch: invocations in which the TCP worker joined the fleet.
        "remote_joined": sum(r.get("remote_workers", 0) > 0 for r in runs),
        "check": check,
    }
    metrics = {
        "throughput_inst_s": (throughput, "1/s"),
        "latency_p50_us": (p50, "us"),
        "latency_p99_us": (p99, "us"),
        # A streamed corpus is a closed loop: the highest rate it sustains
        # is its throughput.
        "max_rate_rps": (throughput, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MiB"),
        "cpu_us_per_inst": (statistics.median(r["cpu_us_per_inst"] for r in runs), "us"),
    }
    return metrics, check, attempted, block, details


def counters_to_layers(snap, lines, report_lines, hits):
    """Per-layer figures from the program's own counters, with the count
    base of each ratio."""
    c = snap["counters"]
    worker_chunks = sum(snap.get("pool_worker_chunks", []))
    chunks = worker_chunks + c["msrs_pool_caller_chunks_total"]
    layers = {
        "cache.hit_ratio": hits / max(1, report_lines),
        "cache.evictions": c["msrs_cache_evictions_total"],
        "cachestore.queue_drops": c["msrs_cache_store_queue_drops_total"],
        "pool.parks": c["msrs_pool_parks_total"],
        "pool.worker_chunk_share": worker_chunks / chunks if chunks else 0.0,
        "dispatch.retries": c["msrs_dispatch_retries_total"],
        "dispatch.fleet_cache_hit_ratio": c["msrs_dispatch_fleet_cache_hits_total"] / max(1, lines),
    }
    bases = {
        "cache.hit_ratio": report_lines,
        "pool.worker_chunk_share": chunks,
        "dispatch.fleet_cache_hit_ratio": lines,
    }
    return layers, bases


def count_hits(path):
    n = hits = 0
    with open(path, "rb") as f:
        for row in f:
            n += 1
            hits += b'"cache_hit":true' in row
    return n, hits


def run_trace_tool(b, workload, corpus, expect, store_load=None):
    args = ["trace", "--input", corpus, "--work-dir", b.work,
            "--spans-out", b.path("spans.tsv"), "--expect", expect]
    if store_load:
        args += ["--store-load", store_load]
    result = b.tool(*args)
    keep = os.path.join(b.root, ".bench_out", f"spans-{workload}.tsv")
    shutil.copyfile(b.path("spans.tsv"), keep)
    result["spans_file"] = os.path.relpath(keep, b.root)
    return result


def trace_streamed(b, workload, corpus, block, flags):
    """One real invocation with the program's own counters exported, then
    the in-process traced replay of the same bytes."""
    out, metrics_out = b.path("trace-out.jsonl"), b.path("metrics.json")
    f = flags()
    if workload == "dispatch_durable":
        cmd = [b.msrs, "dispatch", "--input", corpus, "--out", out, *f,
               "--workers", "1", "--listen", "127.0.0.1:0", "--metrics-out", metrics_out]
        p = PROCS.spawn(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE)
        first = p.stderr.readline().decode()
        remote = PROCS.spawn([b.msrs, "worker", "--connect", first.split()[-1],
                              "--reconnect-max", "1", "--reconnect-ms", "20"],
                             stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        p.stderr.read()
        code = PROCS.wait(p)[0]
        PROCS.wait(remote, timeout=10)
    else:
        cmd = [b.msrs, "batch", "--input", corpus, "--out", out, "--quiet", *f,
               "--metrics-out", metrics_out]
        p = PROCS.spawn(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
        code = PROCS.wait(p)[0]
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
    report_lines, hits = count_hits(out)
    with open(metrics_out) as fh:
        snap = json.load(fh)
    counted = counters_to_layers(snap, block["requests"], report_lines, hits)
    return finish_trace(b, workload, corpus, out, counted, block)


def finish_trace(b, workload, corpus, expect, counted, block, store_load=None):
    t = run_trace_tool(b, workload, corpus, expect, store_load)
    layers, layer_bases = counted
    metrics = dict(t["metrics"])
    metrics.update(layers)
    svc = t["service"]
    metrics["service.idle_rtt_us"] = svc["idle_rtt_us"]
    metrics["service.sheds"] = svc["sheds"]
    metrics["service.errors"] = svc["errors"]
    metrics["loadgen.lag_p99_us"] = svc["lag_p99_us"]
    bases = t["bases"]
    bases.update(layer_bases)
    bases.update({
        "service.idle_rtt_us": svc["idle_rtt_requests"],
        "loadgen.lag_p99_us": svc["lag_requests"],
    })
    info = {
        "bases": bases,
        "self_ns_per_call": t["self_ns_per_call"],
        "tracing_overhead": {
            "traced_wall_s": t["traced_wall_s"],
            "untraced_wall_s": t["untraced_wall_s"],
            "overhead_ns_per_line": t["metrics"]["trace.overhead_ns_per_line"],
        },
        "spans": t["spans"],
        "spans_file": t["spans_file"],
        "replay_mismatches": t["replay_mismatches"],
        "input": block,
    }
    return metrics, t["replay_mismatches"], t["lines"], info


# ---- serve_open ---------------------------------------------------------


def start_serve(b, store):
    p = PROCS.spawn([b.msrs, "serve", "--addr", "127.0.0.1:0", "--cache-path", store],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE)
    t0 = time.perf_counter()
    addr = None
    while addr is None:
        row = p.stderr.readline().decode()
        if not row:
            raise RuntimeError("msrs serve exited before listening")
        if "listening on" in row:
            addr = row.split()[-1]
    drain = threading.Thread(target=p.stderr.read, daemon=True)
    drain.start()
    return p, addr, t0


def control(addr, line, want_reply):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(line)
        if not want_reply:
            return None
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
        return buf


def stop_serve(b, p, addr):
    control(addr, b"#shutdown\n", False)
    return PROCS.wait(p, timeout=30)


def scored(rate, q):
    """A rate's scored percentile (q = "p50" or "p99"): the median over its
    generator-valid windows, or the whole rate's when none was valid."""
    return rate[f"window_{q}_us"] if rate["valid_windows"] else rate[f"{q}_us"]


def run_serve(b, trace):
    windows = [b.seconds * share for share in SERVE_SHARES]
    per_rate = [round(r * w) for r, w in zip(SERVE_RATES, windows)]
    # Fresh lines for one extra round of reruns; a rate reruns only while
    # the spare lines cover it.
    spare = sum(per_rate)
    total = sum(per_rate) + spare
    requests, block = b.gen("serve_open", total, prefill=SERVE_PREFILL,
                            prefill_out=b.path("prefill.jsonl"))
    base = b.path("base.store")
    p = PROCS.spawn([b.msrs, "batch", "--input", b.path("prefill.jsonl"), "--out", os.devnull,
                     "--cache-path", base, "--quiet"], stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if PROCS.wait(p)[0] != 0:
        raise RuntimeError("prefilling the serve store failed")
    with open(b.path("prefill.jsonl"), "rb") as f:
        probe = f.readlines()[-1]

    def fresh_store(k):
        path = b.path(f"serve-{k}.store")
        shutil.copyfile(base, path)
        return path

    if trace:
        return trace_serve(b, requests, block, fresh_store, base)

    os.sync()
    setups = []
    for k in range(SETUP_REPS):
        p, addr, t0 = start_serve(b, fresh_store(k))
        reply = control(addr, probe, True)
        setups.append(time.perf_counter() - t0)
        stop_serve(b, p, addr)
        if not reply or b'"cache_hit":true' not in reply:
            raise RuntimeError(f"serve setup probe was not answered from the store: {reply!r}")

    store = fresh_store("main")
    p, addr, _ = start_serve(b, store)
    rates, attempts, offset, pairs = [], [], 0, []
    try:
        for k, (rate, count, window) in enumerate(zip(SERVE_RATES, per_rate, windows)):
            for attempt in range(LAG_ATTEMPTS):
                prefix = b.path(f"rate{k}-{attempt}")
                r = b.tool("loadgen", "--addr", addr, "--input", requests, "--offset", offset,
                           "--rate", rate, "--seconds", window, "--limit-us", SERVE_LIMIT_US,
                           "--lag-limit-us", LAG_LIMIT_US, "--out-prefix", prefix)
                offset += count
                attempts.append(r)
                for c in range(r["conns"]):
                    pairs += ["--input", f"{prefix}.{c}.in.jsonl",
                              "--reports", f"{prefix}.{c}.out.jsonl"]
                r["valid"] = 2 * r["valid_windows"] >= max(1, r["windows"])
                r["attempt"] = attempt
                if r["valid"] or spare < count:
                    break
                spare -= count
                log(f"generator lagged at {rate}/s: {r['valid_windows']} of "
                    f"{r['windows']} windows valid")
            rates.append(r)
    finally:
        code, cpu, rss = stop_serve(b, p, addr)
    if code != 0:
        raise RuntimeError(f"msrs serve exited with {code}")
    # Serve must answer exactly as batch does: one `msrs batch` over every
    # line sent joins the same check.
    sent = b.path("sent.jsonl")
    with open(sent, "wb") as out:
        for i in range(0, len(pairs), 4):
            with open(pairs[i + 1], "rb") as f:
                out.write(f.read())
    ref = b.path("batch-ref.jsonl")
    q = PROCS.spawn([b.msrs, "batch", "--input", sent, "--out", ref, "--quiet"],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
    if PROCS.wait(q)[0] != 0:
        raise RuntimeError("reference batch failed")
    check = b.tool("check", *pairs, "--input", sent, "--reports", ref, "--store", store,
                   "--extra-input", b.path("prefill.jsonl"))
    attempted = sum(r["sent"] for r in attempts)
    answered = sum(r["answered"] for r in rates)
    mid = rates[len(rates) // 2]
    passing = [r for r in rates
               if scored(r, "p99") <= SERVE_LIMIT_US and r["tail_p50_us"] <= SERVE_LIMIT_US
               and r["errors"] == 0 and r["answered"] == r["sent"]]
    best = max(passing, key=lambda r: r["rate"]) if passing else None
    metrics = {
        "throughput_inst_s": (answered / sum(r["elapsed_s"] for r in rates), "1/s"),
        "latency_p50_us": (scored(mid, "p50"), "us"),
        "latency_p99_us": (scored(mid, "p99"), "us"),
        "max_rate_rps": (best["answered_per_s"] if best else 0.0, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "cpu_us_per_inst": (cpu * 1e6 / max(1, sum(r["answered"] for r in attempts)), "us"),
    }
    details = {
        "rates": rates,
        "latency_limit_us": SERVE_LIMIT_US,
        "lag_limit_us": LAG_LIMIT_US,
        "setup_samples_s": setups,
        "check": check,
    }
    return metrics, check, attempted, block, details


def trace_serve(b, requests, block, fresh_store, base):
    """The middle rate against the real server (its counters via
    `#stats`), then the traced replay of exactly the lines it answered;
    the store loader is timed on the prefilled store."""
    rate = SERVE_RATES[len(SERVE_RATES) // 2]
    p, addr, _ = start_serve(b, fresh_store("trace"))
    try:
        prefix = b.path("trace-rate")
        b.tool("loadgen", "--addr", addr, "--input", requests, "--rate", rate,
               "--seconds", TRACE_SERVE_SECONDS, "--limit-us", SERVE_LIMIT_US,
               "--lag-limit-us", LAG_LIMIT_US, "--out-prefix", prefix)
        snap = json.loads(control(addr, b"#stats\n", True))
    finally:
        stop_serve(b, p, addr)
    corpus, out = f"{prefix}.0.in.jsonl", f"{prefix}.0.out.jsonl"
    report_lines, hits = count_hits(out)
    counted = counters_to_layers(snap, report_lines, report_lines, hits)
    return finish_trace(b, "serve_open", corpus, out, counted, block,
                        store_load=fresh_store("load"))


# ---- result -------------------------------------------------------------


def host_block(root):
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return "unavailable"

    model = "unavailable"
    for row in read("/proc/cpuinfo").splitlines():
        if row.startswith("model name"):
            model = row.split(":", 1)[1].strip()
            break
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except OSError:
        rustc = "unavailable"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=root, timeout=30).stdout.strip() or "unavailable"
    except OSError:
        sha = "unavailable"
    # Outside a git checkout the sources still identify the build.
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(f.read())
    return {
        "available_parallelism": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "cpu_model": model,
        "rustc": rustc,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def run_workload(b, workload, trace):
    if workload == "traffic_hot":
        res = run_streamed(b, workload, HOT_LINES, trace)
    elif workload == "cold_mix":
        res = run_streamed(b, workload, COLD_LINES, trace)
    elif workload == "dispatch_durable":
        res = run_streamed(b, workload, DISPATCH_LINES, trace)
    else:
        res = run_serve(b, trace)
    if trace:
        metrics, mismatches, attempted, info = res
        missing = set(LAYER_UNITS) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
        result = {
            "correct": mismatches == 0,
            "attempted": attempted,
            "failed": mismatches,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in LAYER_UNITS.items()},
        }
        return result, info
    metrics, check, attempted, block, details = res
    failed = check["violations"]
    metrics["ok_frac"] = (1.0 - failed / max(1, check["lines"]), "ratio")
    metrics["ratio_mean"] = (check["ratio_mean"], "ratio")
    metrics["optimal_frac"] = (check["optimal_frac"], "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details["failed_frac"] = failed / max(1, check["lines"])
    details["input"] = block
    return result, details


def layer_units():
    units = {}
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        for m in json.load(f)["per_layer"]:
            units[m["name"]] = m["unit"]
    return units


LAYER_UNITS = {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    for needed in ("Cargo.toml", "crates/engine/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            die(f"{needed} not found: run from the root of a full msrs checkout")
    if args.trace:
        LAYER_UNITS.update(layer_units())
    work = os.path.join(root, ".bench_out", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    b = Bench(root, args.seed, args.seconds, work)
    code = 0
    try:
        b.build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, info = run_workload(b, name, args.trace)
            print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                              "host": host_block(root), "details": info}), flush=True)
            results[name] = result
        if len(names) == 1:
            final = results[names[0]]
        else:
            for name, r in results.items():
                print(json.dumps({"workload": name, **r}), flush=True)
            final = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items()
                            for k, v in r["metrics"].items()},
            }
        print(json.dumps(final), flush=True)
    except Exception as e:  # noqa: BLE001 - any failure ends the run unscored
        log(f"error: {e}")
        code = 1
    finally:
        PROCS.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
