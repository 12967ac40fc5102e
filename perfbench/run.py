#!/usr/bin/env python3
"""End-to-end benchmark of the request path: detection serving through
`grd`, and compile -> parallelize -> run through one `gropt` per request.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run builds the tools and
the traced harness (perfbench/CMakeLists.txt, Release) under .bench_build/.

Workloads (closed loop, one client; see perfbench/README.md):
  detect-cold  distinct MiniC units sent to one `grd --cache` process
  detect-warm  a Zipf draw over the unmodified kernels, cache primed
  exploit      `gropt K.mc -passes=parallelize --run --threads=$(nproc)`

Every answer is checked against perfbench/manifest.json. With --trace 0 the
last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 the same seeded stream is first served untraced for half the time
and its completed prefix is then replayed in one traced process
(perfbench_trace), and the JSON holds the per-layer metrics. The trace is
written as Chrome trace-event JSON under .bench_build/perfbench-traces/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BENCH_DIR, "perfbench")
WORK = os.path.join(BENCH_DIR, "perfbench-work")
TRACES = os.path.join(BENCH_DIR, "perfbench-traces")
WORKLOADS = ("detect-cold", "detect-warm", "exploit")

# Process launches per run for setup_s (and tools.process_start_ms).
SETUP_REPS = 21
# Zipf exponent of the detect-warm draw; rank order is the snapshot order.
ZIPF_S = 1.0
# Printed floats may differ from the sequential reference by reassociation
# of parallel reductions: |got - ref| <= FLOAT_ABS + FLOAT_REL * |ref|.
# The absolute term is one unit in the last of the six printed decimals.
FLOAT_ABS = 1e-6
FLOAT_REL = 1e-9
# latency_tail_ms is the highest of these percentiles with >= 10 samples
# above it.
TAIL_LADDER = (90.0, 75.0, 50.0)
# Stream lengths generated per second of measurement: about twice the
# rates seen on a 4-core host, so a run does not run dry.
COLD_UNITS_PER_S = 800
WARM_DRAWS_PER_S = 80000
EXPLOIT_RUNS_PER_S = 100
# How long the client polls for a grd reply before it blocks.
REPLY_SPIN_NS = 100_000
# A run is cut into at most this many consecutive chunks of whole rounds;
# throughput and tail latency are medians over the chunks, so a burst of
# outside load on a shared host moves one chunk, not the run's figure.
CHUNKS = 10
# grd's peak RSS is read once this many measured requests are answered:
# detect-cold's cache grows with every unit, so reading it at the end
# would make memory track throughput.
RSS_AFTER_REQUESTS = 2000
# The traced replay covers at most this many requests of the prefix the
# untraced phase served (detect-warm serves several hundred thousand).
TRACE_MAX_REQUESTS = 20000
# Hard cap on one run's wall time after the build.
RUN_ALARM_S = 170


class RunTimeout(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The tools' defaults: no GR_* overrides leak in from the caller."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GR_")}


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Build and host record
# --------------------------------------------------------------------------

def check_sources():
    need = ["CMakeLists.txt", "src", "tools/grd.cpp", "tools/gropt.cpp"]
    missing = [p for p in need if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("perfbench: source tree not found next to perfbench/ "
            f"(missing: {', '.join(missing)})")
        sys.exit(2)


def build():
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BENCH_DIR, "perfbench-build.log")
    with open(logpath, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(nproc()),
                      "--target", "gropt", "grd", "perfbench_trace"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                with open(logpath) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed")
                sys.exit(1)
    return {t: os.path.join(BUILD, "repo", t) if t != "perfbench_trace"
            else os.path.join(BUILD, t)
            for t in ("gropt", "grd", "perfbench_trace")}


def host_record():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                             line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    # The checkout may not be a git tree: a digest of the built sources
    # identifies the code under test either way.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return {"nproc": nproc(), "compiler": compiler,
            "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "commit": commit, "source_sha256": h.hexdigest()[:16]}


# --------------------------------------------------------------------------
# Seeded input generation
# --------------------------------------------------------------------------

def load_manifest():
    with open(os.path.join(HERE, "manifest.json")) as f:
        return json.load(f)


class Stream:
    """One workload's generated inputs: `prime` requests (not measured) and
    the measured `requests`, each a (kernel index, path) pair."""

    def __init__(self, round_len):
        self.prime = []
        self.requests = []
        # Requests per round of the draw (1 when it is not drawn in rounds):
        # chunks of whole rounds all carry the same mix of work.
        self.round_len = round_len


def shuffled_rounds(rng, n_kernels, count):
    """Seeded draw without replacement, round by round: every kernel
    appears once per round, so each run sees the same mix of work."""
    out = []
    while len(out) < count:
        r = list(range(n_kernels))
        rng.shuffle(r)
        out.extend(r)
    return out[:count]


def generate(workload, seed, seconds, kernels, workdir):
    """Writes the files the system under test receives and returns the
    stream. The same seed gives byte-identical files and the same order."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    texts = []
    for k in kernels:
        with open(os.path.join(HERE, k["file"])) as f:
            texts.append(f.read())
    shutil.copy(os.path.join(HERE, "trivial.mc"),
                os.path.join(workdir, "trivial.mc"))
    s = Stream(1 if workload == "detect-warm" else len(kernels))
    if workload == "detect-cold":
        # A unique unused global per unit: idiom counts stay those of the
        # kernel, while both cache tiers miss (new text, new environment).
        order = shuffled_rounds(rng, len(kernels),
                                max(100, int(seconds * COLD_UNITS_PER_S)))
        for i, k in enumerate(order):
            path = os.path.join(workdir, f"u{i:06d}.mc")
            with open(path, "w") as f:
                f.write(f"int bench_unique_{seed}_{i}[1];\n" + texts[k])
            s.requests.append((k, path))
        return s
    paths = []
    for k, text in zip(kernels, texts):
        path = os.path.join(workdir, k["name"] + ".mc")
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    if workload == "detect-warm":
        s.prime = [(k, paths[k]) for k in range(len(kernels))]
        weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(kernels))]
        draws = rng.choices(range(len(kernels)), weights=weights,
                            k=max(1000, int(seconds * WARM_DRAWS_PER_S)))
    else:
        # One round already covers every section-heavy and section-free
        # kernel.
        draws = shuffled_rounds(rng, len(kernels), max(
            len(kernels), int(seconds * EXPLOIT_RUNS_PER_S)))
    shared = list(enumerate(paths))
    s.requests = [shared[k] for k in draws]
    return s


# --------------------------------------------------------------------------
# Answer checking
# --------------------------------------------------------------------------

def count_token(counts):
    return (" scalars={scalars} histograms={histograms} scans={scans} "
            "argminmax={argminmax} solutions=").format(**counts).encode()


def floats_close(got, ref):
    return abs(got - ref) <= FLOAT_ABS + FLOAT_REL * abs(ref)


def output_matches(lines, ref_lines):
    """Integers bitwise; printed floats within the reassociation bound."""
    if len(lines) != len(ref_lines):
        return False
    for got, ref in zip(lines, ref_lines):
        if got == ref:
            continue
        if re.fullmatch(r"-?\d+", ref):
            return False
        try:
            if not floats_close(float(got), float(ref)):
                return False
        except ValueError:
            return False
    return True


def check_exploit_output(text, kernel):
    lines = text.splitlines()
    if len(lines) < 2:
        return False
    m = re.match(r"result: (-?\d+) \(", lines[-2])
    if not m or not lines[-1].startswith("threaded: "):
        return False
    return (int(m.group(1)) == kernel["result"]
            and output_matches(lines[:-2], kernel["output"]))


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def nearest_rank(sorted_vals, p):
    rank = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[min(rank, len(sorted_vals)) - 1]


def chunk_ends(n, chunks, round_len):
    """End indices of up to `chunks` consecutive chunks of the first n
    requests, each made of whole rounds."""
    rounds = n // round_len
    if rounds == 0:
        return [n]
    chunks = max(1, min(chunks, rounds))
    return [round_len * (rounds * c // chunks) for c in range(1, chunks + 1)]


def chunked_throughput(done_s, round_len):
    """Median over the chunks of each chunk's completed requests per second."""
    rates = []
    prev_i, prev_t = 0, 0.0
    for i in chunk_ends(len(done_s), CHUNKS, round_len):
        rates.append((i - prev_i) / (done_s[i - 1] - prev_t))
        prev_i, prev_t = i, done_s[i - 1]
    return statistics.median(rates)


def chunked_tail(lat, round_len):
    """The ladder percentile for the whole run, as the median over as many
    chunks (at most CHUNKS) as leave ~10 samples above it in each chunk."""
    n = len(lat)
    p = next((p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10), 50.0)
    chunks = min(CHUNKS, int(n * (1 - p / 100.0) // 10))
    values = []
    prev = 0
    for i in chunk_ends(n, chunks, round_len):
        values.append(nearest_rank(sorted(lat[prev:i]), p))
        prev = i
    return p, statistics.median(values), len(values)


# --------------------------------------------------------------------------
# Driving the tools
# --------------------------------------------------------------------------

def host_cpu_ticks():
    """(steal, total) ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


def proc_cpu_ms(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Grd:
    """One `grd --cache` process driven over its stdin/stdout pipes.

    The client polls its end of the reply pipe for up to REPLY_SPIN_NS
    before it blocks, so a ~30 us cache hit is not billed the client's own
    wake-up; a long request still finds the client asleep, leaving every
    core to grd's worker lanes."""

    def __init__(self, exe):
        self.t_launch = time.perf_counter()
        self.p = subprocess.Popen(
            [exe, "--cache", f"--workers={nproc()}"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env())
        self.fd = self.p.stdin.fileno()
        self.rfd = self.p.stdout.fileno()
        os.set_blocking(self.rfd, False)
        self.buf = b""

    def ask(self, line):
        """Sends one request line; returns the reply line (b"" at EOF)."""
        os.write(self.fd, line)
        t0 = time.perf_counter_ns()
        buf = self.buf
        while True:
            i = buf.find(b"\n")
            if i >= 0:
                self.buf = buf[i + 1:]
                return buf[:i + 1]
            try:
                data = os.read(self.rfd, 65536)
            except BlockingIOError:
                if time.perf_counter_ns() - t0 >= REPLY_SPIN_NS:
                    select.select([self.rfd], [], [])
                continue
            if not data:
                self.buf = b""
                return buf
            buf += data

    def close(self):
        try:
            self.p.stdin.close()
            os.set_blocking(self.rfd, True)
            self.p.stdout.read()
            self.p.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self):
        self.p.kill()
        self.p.wait()


class Result:
    def __init__(self):
        self.latencies_ms = []
        self.done_s = []  # completion time of each request, from start
        self.attempted = 0
        self.failed = 0
        self.cpu_ms = 0.0
        self.peak_rss_mb = 0.0
        self.setup_s = []
        self.process_start_ms = []


def launch_probe(exe, trivial, trivial_token):
    """Launch -> first answer of a fresh grd, plus launch -> !stats (pure
    process start). Returns (grd, setup_s, start_ms, ok)."""
    g = Grd(exe)
    stats = g.ask(b"!stats\n")
    start_ms = (time.perf_counter() - g.t_launch) * 1e3
    reply = g.ask(trivial.encode() + b"\n")
    setup = time.perf_counter() - g.t_launch
    ok = stats.startswith(b"stats ") and reply.startswith(b"ok ") \
        and trivial_token in reply
    return g, setup, start_ms, ok


def run_detect(exes, manifest, stream, workdir, seconds, min_requests):
    kernels = manifest["kernels"]
    trivial = os.path.join(workdir, "trivial.mc")
    trivial_token = count_token(manifest["trivial"]["counts"])
    res = Result()
    g = None
    try:
        for i in range(SETUP_REPS):
            g, setup, start_ms, ok = launch_probe(exes["grd"], trivial,
                                                  trivial_token)
            res.setup_s.append(setup)
            res.process_start_ms.append(start_ms)
            res.attempted += 1
            res.failed += 0 if ok else 1
            if i + 1 < SETUP_REPS:
                g.close()
                g = None
        tokens = [count_token(k["counts"]) for k in kernels]
        for k, path in stream.prime:
            r = g.ask(path.encode() + b"\n")
            res.attempted += 1
            if not (r.startswith(b"ok ") and tokens[k] in r):
                res.failed += 1
        encoded = {}
        for k, path in stream.requests:
            if path not in encoded:
                encoded[path] = (k, path.encode() + b"\n",
                                 b"ok " + path.encode() + b" ")
        lines = [encoded[path] for _, path in stream.requests]
        lat = res.latencies_ms
        done = []
        pc = time.perf_counter_ns
        ask = g.ask
        cpu0 = proc_cpu_ms(g.p.pid)
        start = pc()
        deadline = start + int(seconds * 1e9)
        now = start
        for k, line, prefix in lines:
            if now >= deadline and len(lat) >= min_requests:
                break
            t0 = pc()
            r = ask(line)
            now = pc()
            lat.append((now - t0) / 1e6)
            done.append(now)
            if not (r.startswith(prefix) and tokens[k] in r):
                res.failed += 1
                if not r:
                    break
            if len(lat) == RSS_AFTER_REQUESTS:
                res.peak_rss_mb = proc_peak_rss_mb(g.p.pid)
        res.done_s = [(t - start) / 1e9 for t in done]
        res.cpu_ms = proc_cpu_ms(g.p.pid) - cpu0
        if len(lat) < RSS_AFTER_REQUESTS:
            res.peak_rss_mb = proc_peak_rss_mb(g.p.pid)
        res.attempted += len(lat)
    except BaseException:
        if g:
            g.kill()
        raise
    g.close()
    return res


def run_gropt(args, timeout_s=120):
    """Runs one gropt process; returns (wall_s, exit_code, output, rusage)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, env=child_env())
    chunks = []
    fd = p.stdout.fileno()
    end = t0 + timeout_s
    try:
        while True:
            ready, _, _ = select.select([fd], [], [],
                                        max(0.0, end - time.perf_counter()))
            if not ready:
                p.kill()
                chunks.append(b"\n[timeout]")
                break
            data = os.read(fd, 65536)
            if not data:
                break
            chunks.append(data)
    except BaseException:
        p.kill()
        p.wait()
        raise
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return wall, p.returncode, b"".join(chunks).decode(errors="replace"), ru


def run_exploit(exes, manifest, stream, workdir, seconds, min_requests):
    kernels = manifest["kernels"]
    gropt = exes["gropt"]
    trivial = os.path.join(workdir, "trivial.mc")
    res = Result()
    for _ in range(SETUP_REPS):
        wall, code, out, _ = run_gropt([gropt, trivial, "--verify-only"])
        res.setup_s.append(wall)
        res.process_start_ms.append(wall * 1e3)
        res.attempted += 1
        res.failed += 0 if code == 0 and out.startswith("OK: ") else 1
    threads = f"--threads={nproc()}"
    start = time.perf_counter()
    deadline = start + seconds
    now = start
    for k, path in stream.requests:
        if now >= deadline and len(res.latencies_ms) >= min_requests:
            break
        wall, code, out, ru = run_gropt(
            [gropt, path, "-passes=parallelize", "--run", threads])
        now = time.perf_counter()
        res.latencies_ms.append(wall * 1e3)
        res.done_s.append(now - start)
        res.cpu_ms += (ru.ru_utime + ru.ru_stime) * 1e3
        res.peak_rss_mb = max(res.peak_rss_mb, ru.ru_maxrss / 1024.0)
        if code != 0 or not check_exploit_output(out, kernels[k]):
            res.failed += 1
    res.attempted += len(res.latencies_ms)
    return res


def run_untraced(workload, exes, manifest, stream, workdir, seconds,
                 min_requests=1):
    fn = run_exploit if workload == "exploit" else run_detect
    res = fn(exes, manifest, stream, workdir, seconds, min_requests)
    if len(res.latencies_ms) == len(stream.requests):
        log(f"perfbench: the generated stream ran out after "
            f"{res.done_s[-1]:.1f} s of {seconds:g} s")
    return res


def end_to_end_metrics(res, round_len):
    lat = sorted(res.latencies_ms)
    n = len(lat)
    p_tail, v_tail, tail_chunks = chunked_tail(res.latencies_ms, round_len)
    return {
        "throughput_rps": (chunked_throughput(res.done_s, round_len), "1/s", n,
                           "median over chunks"),
        "latency_p50_ms": (nearest_rank(lat, 50.0), "ms", n, "p50"),
        "latency_tail_ms": (v_tail, "ms", n,
                            f"p{p_tail:g}, median of {tail_chunks} chunks"),
        "cpu_ms_per_req": (res.cpu_ms / n, "ms", n, ""),
        "peak_rss_mb": (res.peak_rss_mb, "MB", 1, ""),
        "fail_ratio": (res.failed / res.attempted, "ratio", res.attempted, ""),
        "setup_s": (statistics.median(res.setup_s), "s", len(res.setup_s),
                    "median"),
    }


# Reported in the result line with --trace 0 (fail_ratio is carried by the
# `failed` and `attempted` keys instead: a metric that is 0 has no spread).
END_TO_END = ("throughput_rps", "latency_p50_ms", "latency_tail_ms",
              "cpu_ms_per_req", "peak_rss_mb", "setup_s")


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------

LAYER_METRICS = (
    ("frontend.parse_ms", "ms"), ("frontend.codegen_ms", "ms"),
    ("frontend.lines_per_s", "1/s"), ("ir.verify_ms", "ms"),
    ("pass.ssa_ms", "ms"), ("pass.insts_after_ssa", "count"),
    ("idioms.detect_ms", "ms"), ("constraint.solver_nodes", "count"),
    ("constraint.candidates", "count"),
    ("constraint.solutions_per_candidate", "ratio"),
    ("cache.probe_ms", "ms"), ("cache.store_ms", "ms"),
    ("cache.module_hit_ratio", "ratio"), ("cache.function_hit_ratio", "ratio"),
    ("transform.parallelize_ms", "ms"), ("transform.loops_parallelized", "count"),
    ("transform.parallelized_per_detected", "ratio"),
    ("interp.compile_ms", "ms"), ("interp.seq_run_ms", "ms"),
    ("interp.instructions", "count"), ("interp.ns_per_instruction", "ns"),
    ("runtime.setup_ms", "ms"), ("runtime.simulated_ms", "ms"),
    ("runtime.threaded_ms", "ms"), ("runtime.sections", "count"),
    ("runtime.serial_section_ratio", "ratio"),
    ("runtime.work_inflation", "ratio"), ("runtime.speedup_vs_seq", "ratio"),
    ("tools.process_start_ms", "ms"), ("tools.unattributed_ms", "ms"),
)


def per_layer_names(manifest):
    names = [(n, u) for n, u in LAYER_METRICS]
    for k in manifest["kernels"]:
        names.append((f"runtime.speedup_vs_seq.{k['name']}", "ratio"))
        names.append((f"runtime.work_inflation.{k['name']}", "ratio"))
    return names


def write_request_file(path, stream, n):
    with open(path, "w") as f:
        for k, p in stream.prime:
            f.write(f"p\t{k}\t{p}\n")
        for k, p in stream.requests[:n]:
            f.write(f"r\t{k}\t{p}\n")


def layer_metrics(trace, stream, n, manifest, untraced):
    """Per-layer numbers from the spans: per-request means of each layer's
    calls (so layers add up to the request), counts where measured."""
    kernels = manifest["kernels"]
    events = trace["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)

    def self_us(e):
        return e["dur"] - sum(c["dur"] for c in children.get(e["args"]["id"], []))

    roots = [e for e in events if e["name"] == "request"]
    baselines = {e["args"]["req"]: e for e in events if e["name"] == "baseline"}
    tot = {}
    cnt = {}
    args_sum = {}
    for root in roots + list(baselines.values()):
        for c in children.get(root["args"]["id"], []):
            tot[c["name"]] = tot.get(c["name"], 0.0) + self_us(c)
            cnt[c["name"]] = cnt.get(c["name"], 0) + 1
            for key, v in c["args"].items():
                if key not in ("req", "id", "parent") and isinstance(v, (int, float)):
                    args_sum[(c["name"], key)] = args_sum.get((c["name"], key), 0) + v
    N = max(1, len(roots))

    def ms(*names):
        return sum(tot.get(x, 0.0) for x in names) / N / 1e3

    def arg(name, key):
        return args_sum.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["frontend.parse_ms"] = ms("parseMiniC")
    m["frontend.codegen_ms"] = ms("generateIR")
    m["frontend.lines_per_s"] = ratio(
        arg("parseMiniC", "lines"),
        (tot.get("parseMiniC", 0) + tot.get("generateIR", 0)) / 1e6)
    m["ir.verify_ms"] = ms("verifyModule")
    m["pass.ssa_ms"] = ms("buildSSAPipeline")
    m["pass.insts_after_ssa"] = ratio(arg("buildSSAPipeline", "insts"),
                                      cnt.get("buildSSAPipeline", 0))
    m["idioms.detect_ms"] = ms("analyzeModuleParallel")
    n_det = cnt.get("analyzeModuleParallel", 0)
    m["constraint.solver_nodes"] = ratio(arg("analyzeModuleParallel", "nodes"), n_det)
    m["constraint.candidates"] = ratio(arg("analyzeModuleParallel", "candidates"), n_det)
    m["constraint.solutions_per_candidate"] = ratio(
        arg("analyzeModuleParallel", "solutions"),
        arg("analyzeModuleParallel", "candidates"))
    m["cache.probe_ms"] = ms("DetectionCache::moduleKey", "DetectionCache::lookupModule")
    m["cache.store_ms"] = ms("DetectionCache::storeModule")
    m["cache.module_hit_ratio"] = ratio(arg("DetectionCache::lookupModule", "hit"),
                                        cnt.get("DetectionCache::lookupModule", 0))
    counters = [e for e in events if e["name"] == "DetectionCache::counters"]
    if counters:
        a = counters[-1]["args"]
        m["cache.function_hit_ratio"] = ratio(
            a["function_hits"], a["function_hits"] + a["function_misses"])
    else:
        m["cache.function_hit_ratio"] = 0.0
    passes = ("ParallelizeReductionsPass", "ScanParallelizePass",
              "ArgMinMaxParallelizePass")
    m["transform.parallelize_ms"] = ms(*passes)
    loops = sum(arg(p, "parallelized") for p in passes)
    m["transform.loops_parallelized"] = loops / N
    detected = sum(sum(kernels[k]["counts"].values())
                   for k, _ in stream.requests[:n]) if cnt.get(passes[0]) else 0
    m["transform.parallelized_per_detected"] = ratio(loops, detected)
    m["interp.compile_ms"] = ms("Interpreter::Interpreter")
    m["interp.seq_run_ms"] = ms("Interpreter::runMain")
    seq_insts = arg("Interpreter::runMain", "instructions")
    m["interp.instructions"] = seq_insts / N
    m["interp.ns_per_instruction"] = ratio(tot.get("Interpreter::runMain", 0) * 1e3,
                                           seq_insts)
    m["runtime.setup_ms"] = ms("ParallelRunner::ParallelRunner",
                               "ThreadedRunner::ThreadedRunner")
    m["runtime.simulated_ms"] = ms("ParallelRunner::run")
    m["runtime.threaded_ms"] = ms("ThreadedRunner::run")
    m["runtime.sections"] = arg("ThreadedRunner::run", "sections") / N
    m["runtime.serial_section_ratio"] = ratio(
        arg("ThreadedRunner::run", "serial_sections"),
        arg("ThreadedRunner::run", "sections"))
    m["runtime.work_inflation"] = ratio(arg("ThreadedRunner::run", "work"), seq_insts)

    # Per kernel: speedup of the threaded run over the sequential run of
    # the untransformed program (median over the kernel's requests), and
    # total work over sequential instructions.
    per_kernel = {}
    for root in roots:
        req = root["args"]["req"]
        kidx = stream.requests[req - 1][0]
        kids = {c["name"]: c for c in children.get(root["args"]["id"], [])}
        base = baselines.get(req)
        bkids = {c["name"]: c for c in children.get(base["args"]["id"], [])} if base else {}
        if "ThreadedRunner::run" in kids and "Interpreter::runMain" in bkids:
            thr, seq = kids["ThreadedRunner::run"], bkids["Interpreter::runMain"]
            per_kernel.setdefault(kidx, []).append(
                (seq["dur"] / thr["dur"],
                 ratio(thr["args"]["work"], seq["args"]["instructions"])))
    speedups = {}
    for k in kernels:
        m[f"runtime.speedup_vs_seq.{k['name']}"] = 0.0
        m[f"runtime.work_inflation.{k['name']}"] = 0.0
    for kidx, vals in per_kernel.items():
        name = kernels[kidx]["name"]
        speedups[name] = statistics.median(v[0] for v in vals)
        m[f"runtime.speedup_vs_seq.{name}"] = speedups[name]
        m[f"runtime.work_inflation.{name}"] = statistics.median(v[1] for v in vals)
    m["runtime.speedup_vs_seq"] = (
        math.exp(statistics.fmean(math.log(v) for v in speedups.values()))
        if speedups else 0.0)

    m["tools.process_start_ms"] = statistics.median(untraced.process_start_ms)
    # Untraced latency of the same requests minus what the traced spans
    # attribute to them: process start, pipes, reading and printing.
    span_sum_ms = sum(sum(c["dur"] for c in children.get(r["args"]["id"], []))
                      for r in roots) / N / 1e3
    m["tools.unattributed_ms"] = statistics.fmean(untraced.latencies_ms[:n]) - span_sum_ms
    return m


def check_traced(trace, stream, n, manifest):
    """Checks the traced process's answers the same way; returns failures."""
    kernels = manifest["kernels"]
    failed = 0
    roots = [e for e in trace["traceEvents"] if e["name"] == "request"]
    if len(roots) != n:
        return max(1, abs(n - len(roots)))
    for root in roots:
        a = root["args"]
        k = kernels[stream.requests[a["req"] - 1][0]]
        if "error" in a:
            failed += 1
        elif "output" in a:
            if not (a["result"] == k["result"] and output_matches(
                    a["output"].splitlines(), k["output"])):
                failed += 1
        elif any(a.get(c) != v for c, v in k["counts"].items()):
            failed += 1
    return failed


def run_traced(workload, exes, manifest, stream, workdir, seconds):
    # Phase 1: the tools, untraced, for half the time (at least one round
    # of kernels on exploit so every kernel gets a per-kernel row).
    min_req = len(manifest["kernels"]) if workload == "exploit" else 1
    untraced = run_untraced(workload, exes, manifest, stream, workdir,
                            seconds / 2.0, min_req)
    n = min(len(untraced.latencies_ms), TRACE_MAX_REQUESTS)
    # Phase 2: the same prefix of the stream, replayed in one traced process.
    reqfile = os.path.join(workdir, "requests.tsv")
    write_request_file(reqfile, stream, n)
    os.makedirs(TRACES, exist_ok=True)
    out = os.path.join(TRACES, f"{workload}.json")
    r = subprocess.run(
        [exes["perfbench_trace"], "--workload", workload, "--requests",
         reqfile, "--count", str(n), "--threads", str(nproc()), "--out", out],
        env=child_env(), capture_output=True, text=True)
    if r.returncode != 0:
        log(r.stderr)
        raise RuntimeError("perfbench_trace failed")
    with open(out) as f:
        trace = json.load(f)
    failed = check_traced(trace, stream, n, manifest)
    return untraced, layer_metrics(trace, stream, n, manifest, untraced), \
        failed, n, out


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}"


def run_once(args, exes, manifest):
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        stream = generate(args.workload, args.seed, args.seconds,
                          manifest["kernels"], workdir)
        if args.trace:
            res, layers, traced_failed, n, trace_path = run_traced(
                args.workload, exes, manifest, stream, workdir, args.seconds)
            attempted = res.attempted + n
            failed = res.failed + traced_failed
            print(f"# traced replay of {n} requests; trace: "
                  f"{os.path.relpath(trace_path, ROOT)}")
            metrics = {}
            for name, unit in per_layer_names(manifest):
                print(f"{name:44s} {fmt(layers[name]):>12s} {unit:6s} (n={n})")
                metrics[name] = {"value": layers[name], "unit": unit}
        else:
            res = run_untraced(args.workload, exes, manifest, stream, workdir,
                               args.seconds)
            attempted, failed = res.attempted, res.failed
            e2e = end_to_end_metrics(res, stream.round_len)
            for name, (v, unit, n, note) in e2e.items():
                print(f"{name:18s} {fmt(v):>12s} {unit:5s} (n={n}) {note}")
            metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]}
                       for k in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return attempted, failed, metrics


def self_test(exes, manifest):
    """A deliberately wrong manifest entry must make answers fail."""
    ok = True
    for workload in ("detect-warm", "exploit"):
        for corrupt in (False, True):
            m = json.loads(json.dumps(manifest))
            if corrupt:
                # The rank-1 kernel of the warm draw; the first kernel run.
                k = m["kernels"][0]
                k["counts"]["scalars"] += 1
                k["result"] += 1
            args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                      trace=0)
            attempted, failed, _ = run_once(args, exes, m)
            ratio = failed / attempted
            good = ratio > 0 if corrupt else ratio == 0
            ok &= good
            print(f"self-test {workload:12s} corrupt={int(corrupt)} "
                  f"fail_ratio={ratio:.4f} {'ok' if good else 'FAILED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    check_sources()
    exes = build()
    manifest = load_manifest()

    def on_alarm(signum, frame):
        raise RunTimeout()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_ALARM_S)
    try:
        if args.self_test:
            sys.exit(0 if self_test(exes, manifest) else 1)
        host = host_record()
        print("# host " + json.dumps(host))
        print(f"# workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"threads={nproc()} grd_workers={nproc()}")
        steal0, total0 = host_cpu_ticks()
        attempted, failed, metrics = run_once(args, exes, manifest)
        steal1, total1 = host_cpu_ticks()
        # Time the hypervisor gave to other guests: a high share means the
        # timings of this run were taken on a contended host.
        print(f"# host steal during run: "
              f"{100.0 * (steal1 - steal0) / max(1, total1 - total0):.1f}% "
              f"of CPU time")
    except RunTimeout:
        log("perfbench: run exceeded its time limit")
        sys.exit(1)
    signal.alarm(0)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
