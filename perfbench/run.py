#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload clr10k --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. It builds `genasm` and the helper
`perfbench` binary from source, generates the workload's inputs from the
seed, drives `genasm pipeline` (one-shot workloads) or `genasm serve`
plus line-protocol sessions (serve workload) the way users do, checks
the outputs after every timed child has exited, and prints the metrics.
With `--trace 1` it instead runs the traced layer replay of the same
inputs and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for what each metric means.
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

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# One-shot workloads keep the CLI's defaults except --max-per-read.
# `setup_reps` empty-input runs give the median set-up time.
WORKLOADS = {
    "clr10k": {"serve": False, "flags": [], "setup_reps": 5},
    "short1k_top2": {"serve": False, "flags": ["--max-per-read", "2"], "setup_reps": 3},
    "serve_small": {"serve": True, "flags": ["--max-per-read", "4"], "setup_reps": 6},
}

# Offered load of serve_small in session sends per second: a fixed
# number, well under the capacity of a 2-core host, never derived at run
# time.
SERVE_RATE = 50.0
# Concurrent connections of the open-loop client (the host's 2 cores).
SERVE_CONNECTIONS = 2
# A timed run sends every session this many times, one round of all
# sessions after another, so a session's sends lie 20 s apart; its
# latency is its best send. Load from elsewhere on a shared host seldom
# hits every send of a session. The traced run makes one round, which
# keeps it within the time a run may take.
SERVE_ROUNDS = 3

END_TO_END_UNITS = {
    "reads_per_s": "reads/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "session_p50_ms": "ms",
    "session_p99_ms": "ms",
    "reads_correct_frac": "ratio",
}


class BenchError(Exception):
    """A failed check or a failed child: fails the run, never a number."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build genasm and the helper from the checkout; exit 2 if absent."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        log("perfbench: run from the root of a genasm checkout (no Cargo.toml / crates/cli here)")
        sys.exit(2)
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "genasm-cli", "--bin", "genasm"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(target, "release", "genasm"), os.path.join(target, "release", "perfbench")


class Child:
    """Result of one child process: exit code, wall seconds from spawn
    to exit, peak RSS in MiB and its stdout."""

    def __init__(self, code, wall, rss_mb, out):
        self.code, self.wall, self.rss_mb, self.out = code, wall, rss_mb, out


def vm_hwm_mb(pid):
    """The process's own peak RSS (VmHWM) in MiB, or None once it is gone.
    `ru_maxrss` from wait4 would not do: a child spawned from this
    process inherits this process's high-water mark at exec."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def watch_rss(pid, stop, peak):
    """Sample VmHWM every 20 ms until `stop` is set; VmHWM only grows, so
    the last sample misses at most the final 20 ms."""
    while not stop.is_set():
        v = vm_hwm_mb(pid)
        if v is not None:
            peak[0] = max(peak[0], v)
        stop.wait(0.02)


def run_child(cmd, work):
    """Run `cmd`, draining its stdout into memory while it runs."""
    chunks, peak, stop = [], [0.0], threading.Event()
    with open(os.path.join(work, "child.err"), "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=work, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err)

        def drain():
            fd = p.stdout.fileno()
            while True:
                b = os.read(fd, 1 << 20)
                if not b:
                    return
                chunks.append(b)

        threads = [threading.Thread(target=drain),
                   threading.Thread(target=watch_rss, args=(p.pid, stop, peak))]
        for t in threads:
            t.start()
        _, status = os.waitpid(p.pid, 0)
        wall = time.perf_counter() - t0
        stop.set()
        p.returncode = os.waitstatus_to_exitcode(status)
        for t in threads:
            t.join()
        p.stdout.close()
    return Child(p.returncode, wall, peak[0], b"".join(chunks))


def helper(perfbench, args, work):
    """Run the helper binary; return its JSON line."""
    r = subprocess.run([perfbench] + args, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode:
        raise BenchError("perfbench %s failed: %s" % (args[0], r.stderr.decode(errors="replace").strip()))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def check_output(perfbench, work, path):
    """Run the record checks on `path`; return the check report."""
    rep = helper(perfbench, ["check", "--dir", work, "--output", path], work)
    if rep["errors"]:
        raise BenchError("output check failed (%d errors): %s" % (rep["errors"], rep["first_error"]))
    return rep


def quantile(values, q):
    """Nearest-rank quantile."""
    v = sorted(values)
    k = max(1, min(len(v), int(-(-q * len(v) // 1))))
    return v[k - 1]


def spread(values):
    """Interquartile range over the median (0 with fewer than 2 samples)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def count_reads(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f) // 4


# ---------------------------------------------------------------- one-shot


def pipeline_cmd(genasm, spec, reads):
    return [genasm, "pipeline", "--ref", "ref.fa", "--reads", reads] + spec["flags"]


def setup_times(genasm, spec, work):
    """Median-ready set-up times: the pipeline over an empty read file."""
    times = []
    for _ in range(spec["setup_reps"]):
        c = run_child(pipeline_cmd(genasm, spec, "empty.fq"), work)
        if c.code != 0 or c.out:
            raise BenchError("set-up run failed with exit code %d" % c.code)
        times.append(c.wall)
    return times


def oneshot(genasm, perfbench, spec, work, seconds, n_reads):
    """Timed jobs until `seconds` are spent (at least one, and none
    started that would overrun), then the checks."""
    setups = setup_times(genasm, spec, work)
    jobs = []
    start = time.perf_counter()
    while True:
        c = run_child(pipeline_cmd(genasm, spec, "reads.fq"), work)
        jobs.append(c)
        if c.code != 0:
            break
        if time.perf_counter() - start + c.wall > seconds:
            break
    # Checks run only now, after every timed child has exited. The loop
    # stops at the first failed job, which fails all its reads.
    if jobs[-1].code != 0:
        raise BenchError("genasm pipeline exited with code %d" % jobs[-1].code)
    digests = {hashlib.sha256(c.out).hexdigest() for c in jobs}
    if len(digests) != 1:
        raise BenchError("output differs between runs of the same input")
    out_path = os.path.join(work, "out.tsv")
    with open(out_path, "wb") as f:
        f.write(jobs[0].out)
    rep = check_output(perfbench, work, out_path)
    samples = {
        "reads_per_s": [n_reads / c.wall for c in jobs],
        "setup_s": setups,
        "peak_rss_mb": [c.rss_mb for c in jobs],
        "session_p50_ms": [c.wall * 1e3 for c in jobs],
        "reads_correct_frac": [rep["correct_reads"] / n_reads],
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["session_p99_ms"] = quantile(samples["session_p50_ms"], 0.99)
    samples["session_p99_ms"] = samples["session_p50_ms"]
    info = {"digest": digests.pop(), "records": rep["records"], "jobs": len(jobs)}
    return values, samples, n_reads * len(jobs), info


# ------------------------------------------------------------------- serve


def read_line(f):
    """Next protocol line, skipping idle heartbeats."""
    while True:
        line = f.readline()
        if line.rstrip(b"\r\n") != b"# hb":
            return line


def connect(port):
    s = socket.create_connection(("127.0.0.1", port))
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    f = s.makefile("rb")
    read_line(f)  # greeting
    return s, f


def verb(port, line):
    s, f = connect(port)
    try:
        s.sendall(line)
        return read_line(f)
    finally:
        f.close()
        s.close()


def serve_start(genasm, spec, work):
    """Spawn `genasm serve`; return (process, port, seconds from spawn
    to the first answered PING)."""
    t0 = time.perf_counter()
    err = open(os.path.join(work, "serve.err"), "ab")
    p = subprocess.Popen([genasm, "serve", "--ref", "ref.fa", "--listen", "tcp:127.0.0.1:0"] + spec["flags"],
                         cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
    err.close()
    line = p.stdout.readline().decode()
    if "listening on" not in line:
        p.kill()
        p.wait()
        raise BenchError("genasm serve did not start: %r" % line)
    port = int(line.strip().rsplit(":", 1)[1])
    if not verb(port, b"PING\n").startswith(b"# pong"):
        serve_stop(p, port)
        raise BenchError("genasm serve did not answer PING")
    return p, port, time.perf_counter() - t0


def serve_stop(p, port):
    """Ask the server to drain and exit."""
    try:
        verb(port, b"SHUTDOWN\n")
    except OSError:
        p.kill()
    _, status = os.waitpid(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if p.returncode != 0:
        raise BenchError("genasm serve exited with code %d" % p.returncode)


def session_payloads(work):
    """FASTQ bytes and read count of each session, in session order."""
    with open(os.path.join(work, "sessions.txt")) as f:
        sizes = [int(x) for x in f.read().split()]
    with open(os.path.join(work, "reads.fq"), "rb") as f:
        lines = f.read().splitlines(keepends=True)
    out, at = [], 0
    for n in sizes:
        out.append((b"".join(lines[at:at + 4 * n]), n))
        at += 4 * n
    return out


def one_session(port, payload):
    """One protocol session, pipelined: BEGIN and the records go out in
    one write, then the raw response is read until the server closes.
    Returns (send time, time the `# done` line arrived or None, raw
    response). Parsing waits until the load is over."""
    s = socket.create_connection(("127.0.0.1", port))
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sent = time.perf_counter()
    chunks, done, tail = [], None, b""
    try:
        try:
            s.sendall(b"BEGIN\n" + payload)
            s.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # a refused session is closed by the server; its reply says why
        while True:
            b = s.recv(1 << 16)
            if not b:
                break
            if done is None and b"\n# done" in tail + b:
                done = time.perf_counter()
            tail = b[-8:]
            chunks.append(b)
    finally:
        s.close()
    return sent, done, b"".join(chunks)


def parse_session(raw):
    """Split a session's raw response into (records, failed reads);
    failed is None when the session was refused or cut short."""
    lines = raw.splitlines(keepends=True)
    status = [l for l in lines if l.startswith(b"# ") and l.rstrip() != b"# hb"]
    if len(status) < 3 or not status[1].startswith(b"# ok") or not status[-1].startswith(b"# done"):
        return b"", None
    records = b"".join(l for l in lines if not l.startswith(b"# "))
    return records, sum(1 for l in status if l.startswith(b"# err"))


def open_loop(port, sessions, rounds):
    """Make `rounds` rounds of sends of every session: send i goes
    out at its scheduled time (i / SERVE_RATE after the start) over at
    most SERVE_CONNECTIONS connections. Latency runs from the scheduled
    time, so a stall delays every later send."""
    results = [None] * (len(sessions) * rounds)
    nxt = [0]
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def worker():
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(results):
                return
            due = t0 + i / SERVE_RATE
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            try:
                results[i] = (due,) + one_session(port, sessions[i % len(sessions)][0])
            except OSError:
                results[i] = (due, time.perf_counter(), None, b"")

    threads = [threading.Thread(target=worker) for _ in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return t0, results


def serve(genasm, perfbench, spec, work, rounds):
    """Set-up runs, then one open-loop load, then the checks. The load
    is `rounds` rounds of the generated sessions (1,000) at SERVE_RATE,
    20 s each, which `--seconds` does not shorten, since p99 needs 1,000
    sessions."""
    setups = []
    for _ in range(spec["setup_reps"] - 1):
        p, port, t = serve_start(genasm, spec, work)
        serve_stop(p, port)
        setups.append(t)
    sessions = session_payloads(work)
    p, port, t = serve_start(genasm, spec, work)
    setups.append(t)
    try:
        t0, results = open_loop(port, sessions, rounds)
    finally:
        # VmHWM is the process's high-water mark, so one read while the
        # server is still up gives its peak without a sampling thread.
        rss = vm_hwm_mb(p.pid) or 0.0
        serve_stop(p, port)

    n = len(sessions)
    lat, lag, failed, last = [float("inf")] * n, [], 0, 0.0
    outs = [[] for _ in range(rounds)]
    for i, (due, sent, done, raw) in enumerate(results):
        lag.append((sent - due) * 1e3)
        records, errs = parse_session(raw)
        if done is None or errs is None:
            failed += sessions[i % n][1]
            continue
        failed += errs
        lat[i % n] = min(lat[i % n], (done - due) * 1e3)
        last = max(last, done)
        outs[i // n].append(records)
    n_reads = sum(k for _, k in sessions)
    attempted = n_reads * rounds
    if failed:
        raise BenchError("%d of %d reads failed or were refused" % (failed, attempted))
    out = b"".join(outs[0])
    if any(b"".join(r) != out for r in outs[1:]):
        raise BenchError("a repeated round of sessions gave other records than the first")
    socket_path = os.path.join(work, "socket.tsv")
    with open(socket_path, "wb") as f:
        f.write(out)
    # One-shot ≡ socket: the sessions' outputs in session order must be
    # the one-shot pipeline's output over the same reads.
    c = run_child(pipeline_cmd(genasm, spec, "reads.fq"), work)
    if c.code != 0:
        raise BenchError("genasm pipeline exited with code %d" % c.code)
    out_path = os.path.join(work, "out.tsv")
    with open(out_path, "wb") as f:
        f.write(c.out)
    if c.out != out:
        raise BenchError("socket sessions differ from the one-shot pipeline over the same reads")
    rep = check_output(perfbench, work, socket_path)
    values = {
        "reads_per_s": attempted / (last - t0),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "session_p50_ms": quantile(lat, 0.50),
        "session_p99_ms": quantile(lat, 0.99),
        "reads_correct_frac": rep["correct_reads"] / n_reads,
    }
    samples = {k: [v] for k, v in values.items()}
    samples["setup_s"] = setups
    samples["session_p50_ms"] = samples["session_p99_ms"] = lat
    info = {"digest": hashlib.sha256(c.out).hexdigest(), "records": rep["records"],
            "sessions": n, "sends": len(results), "gen_lag_p99_ms": quantile(lag, 0.99),
            "oneshot_wall_s": c.wall, "socket_path": socket_path}
    return values, samples, attempted, info


# ------------------------------------------------------------------- main


def timed(args, genasm, perfbench, spec, work):
    n_reads = count_reads(os.path.join(work, "reads.fq"))
    if spec["serve"]:
        values, samples, attempted, info = serve(genasm, perfbench, spec, work, SERVE_ROUNDS)
    else:
        values, samples, attempted, info = oneshot(genasm, perfbench, spec, work, args.seconds, n_reads)
    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                       " ".join("%s=%s" % kv for kv in info.items() if kv[0] != "socket_path")))
    print("%-20s %-8s %14s %8s %7s" % ("metric", "unit", "median", "spread", "samples"))
    for name, unit in END_TO_END_UNITS.items():
        print("%-20s %-8s %14.4f %8.4f %7d" % (name, unit, values[name], spread(samples[name]), len(samples[name])))
    # Any failed read fails the run before this point, so fail_frac is 0.
    print("%-20s %-8s %14.4f %8s %7d" % ("fail_frac", "ratio", 0.0, "-", attempted))
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return attempted, metrics


def traced(args, genasm, perfbench, spec, work):
    """One timed pass for the reference output, then the layer replay.
    `front_p50` is what the front end measured: the socket sessions' p50,
    or a one-shot job's wall time."""
    n_reads = count_reads(os.path.join(work, "reads.fq"))
    if spec["serve"]:
        values, _, attempted, info = serve(genasm, perfbench, spec, work, 1)
        front_p50, timed_wall = values["session_p50_ms"], info["oneshot_wall_s"]
        lag = info["gen_lag_p99_ms"]
        extra = ["--socket", info["socket_path"]]
    else:
        spec_once = dict(spec, setup_reps=1)
        values, _, attempted, info = oneshot(genasm, perfbench, spec_once, work, 0, n_reads)
        front_p50, timed_wall, lag, extra = values["session_p50_ms"], values["session_p50_ms"] / 1e3, 0.0, []
    trace_dir = os.path.join(ROOT, ".bench_work", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    rep = helper(perfbench, ["replay", "--workload", args.workload, "--dir", work,
                             "--expected", os.path.join(work, "out.tsv"), "--rate", str(SERVE_RATE),
                             "--connections", str(SERVE_CONNECTIONS),
                             "--trace-out", trace_path] + extra, work)
    if not rep["identical"]:
        raise BenchError("the replay's output differs from the timed run's")
    if rep["failed_reads"]:
        raise BenchError("%d reads failed in the replay" % rep["failed_reads"])
    m = rep["metrics"]

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("server.overhead_p50_ms", front_p50 - m["service.session_p50_ms"]["value"], "ms")
    put("gen.lag_p99_ms", lag, "ms")
    put("trace.replay_over_timed", m["trace.replay_s"]["value"] / timed_wall, "ratio")
    print("workload %s seed %d traced: trace written to %s" % (args.workload, args.seed, trace_path))
    for name, v in m.items():
        print("%-40s %-8s %16.6f" % (name, v["unit"], v["value"] if v["value"] is not None else float("nan")))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [x["name"] for x in json.load(f)["per_layer"]]
    return attempted, {k: m[k] for k in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    genasm, perfbench = build()
    spec = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    attempted = 1
    try:
        helper(perfbench, ["gen", "--workload", args.workload, "--seed", str(args.seed), "--dir", work], work)
        run = traced if args.trace else timed
        attempted, metrics = run(args, genasm, perfbench, spec, work)
        result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
        code = 0
    except BenchError as e:
        log("perfbench: %s" % e)
        result = {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
