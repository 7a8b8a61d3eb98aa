#!/usr/bin/env python3
"""Explorer benchmark: `qccd_explore --sweep`, `--search` and the cached
rerun path, end to end, plus a traced in-process walk per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 25 --trace 0

Builds the program from source into .bench_build/ (Release, library and
CLI only), refuses checked, sanitizer, coverage and non-Release trees,
sets the workload up, then drives the real qccd_explore binary over the
committed examples/sweeps/*.sweep specs in a closed loop with one
client for --seconds seconds, checking every output against golden/.
With --trace 1 the CLI is not timed: the tracer
(tracer.cpp) walks the same specs and the per-layer metrics are
reported instead. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the full record (provenance,
per-spec timings, counters) goes to .bench_build/results/. See NOTES.md.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402

# name: (CLI mode, workers, warm result store)
WORKLOADS = {
    "sweep-cold": ("sweep", 1, False),
    "sweep-par": ("sweep", 4, False),
    "search-cold": ("search", 1, False),
    "rerun-warm": ("sweep", 1, True),
}

SETUP_REPEATS = 3        # setup_s is the median of this many set-ups
STARTUP_SAMPLES = 21     # --build-info invocations for cli.startup_ms
INVOCATION_TIMEOUT_S = 120
BUILD_JOBS = 4

E2E_UNITS = {
    "points_per_s": "1/s",
    "spec_ms_geomean": "ms",
    "cpu_ms_per_point": "ms",
    "setup_s": "s",
}

# Per-layer self times: metric -> span name (tracer.cpp).
LAYER_SPANS = {
    "spec.parse_ms": "spec.parse",
    "benchgen.ms": "benchgen",
    "qasm.parse_ms": "qasm.parse",
    "lower.ms": "lower",
    "context.ms": "context",
    "schedule.ms": "schedule",
    "replay.ms": "replay",
    "engine.run_ms": "engine.run",
    "store.open_ms": "store.open",
    "store.key_ms": "store.key",
    "store.lookup_ms": "store.lookup",
    "store.insert_ms": "store.insert",
    "search.run_ms": "search.run",
    "search.rank_ms": "search.rank",
    "export.ms": "export",
}

# Exact per-pass counters reported as they are (tracer.cpp names).
LAYER_COUNTS = {
    "spec.points": "count",
    "benchgen.circuits": "count",
    "qasm.bytes": "bytes",
    "lower.calls": "count",
    "lower.native_gates": "count",
    "context.builds": "count",
    "schedule.full": "count",
    "schedule.placements_reused": "count",
    "replay.count": "count",
    "engine.batches": "count",
    "store.loaded": "count",
    "store.hits": "count",
    "store.misses": "count",
    "search.space": "count",
    "search.evaluated": "count",
    "search.calibration": "count",
    "search.rungs": "count",
    "export.rows": "count",
}

# Per-layer values derived from spans and counters, and the CLI start.
LAYER_DERIVED = {
    "cli.startup_ms": "ms",
    "lower.share": "ratio",
    "schedule.share": "ratio",
    "schedule.us_per_op": "us",
    "replay.share": "ratio",
    "engine.parallel_eff": "ratio",
    "store.hit_ratio": "ratio",
    "search.evaluated_frac": "ratio",
    "trace.pass_ms": "ms",
    "trace.remainder_ms": "ms",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """A refusal or broken environment: exit non-zero, print no result."""


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# Build, guard and provenance

def check_checkout(root):
    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "examples/sweeps",
              "golden", "perfbench/CMakeLists.txt"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise BenchError("not a repository checkout (missing %s); run from "
                         "the repository root" % ", ".join(missing))
    if not glob.glob(os.path.join(root, "examples/sweeps/*.sweep")):
        raise BenchError("no examples/sweeps/*.sweep specs to run")


def run_logged(cmd, log_path, cwd):
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            return proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise


def build(root, build_dir):
    """Configure once, then (re)build both targets; returns seconds."""
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    start = time.perf_counter()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                           "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                          log, root)
        if code != 0:
            raise BenchError("cmake configure failed; see " + log)
    code = run_logged(["cmake", "--build", build_dir, "-j", str(BUILD_JOBS),
                       "--target", "qccd_explore", "perfbench_trace"],
                      log, root)
    if code != 0:
        raise BenchError("build failed; see " + log)
    return time.perf_counter() - start


def read_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.rstrip("\n"))
            if m:
                values[m.group(1)] = m.group(2)
    return values


def guard_and_provenance(root, build_dir, explore):
    """Refuse a tree whose timings would not describe a user's Release
    build; return the provenance record."""
    cache = read_cache(build_dir)
    info = subprocess.run([explore, "--build-info"], capture_output=True,
                          text=True, timeout=INVOCATION_TIMEOUT_S)
    if info.returncode != 0:
        raise BenchError("qccd_explore --build-info failed")
    if "checked-contracts=off" not in info.stdout.split():
        raise BenchError("refusing to measure a checked build:\n" +
                         info.stdout)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing a non-Release tree (CMAKE_BUILD_TYPE=%s)"
                         % cache.get("CMAKE_BUILD_TYPE"))
    for option in ("QCCD_ASAN", "QCCD_UBSAN", "QCCD_TSAN", "QCCD_COVERAGE",
                   "QCCD_CHECKED"):
        if cache.get(option, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            raise BenchError("refusing a %s=ON tree" % option)
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
                      "CMAKE_EXE_LINKER_FLAGS"))
    if "-fsanitize" in flags or "--coverage" in flags:
        raise BenchError("refusing an instrumented tree (flags: %s)" % flags)

    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=60).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "build_info": info.stdout.strip().splitlines(),
        "compiler": "%s (%s)" % (compiler, version),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# Specs and the output oracle

class Spec:
    def __init__(self, root, path):
        self.path = path
        self.stem = os.path.basename(path)[:-len(".sweep")]
        with open(path) as f:
            m = re.search(r'"name"\s*:\s*"([^"]+)"', f.read())
        if not m:
            raise BenchError("spec %s declares no name" % path)
        self.name = m.group(1)
        golden = os.path.join(root, "golden", self.name + ".csv")
        if not os.path.exists(golden):
            raise BenchError("no golden/%s.csv for %s" % (self.name, path))
        with open(golden) as f:
            self.golden = f.read()
        lines = self.golden.splitlines()
        self.header = lines[0]
        self.golden_rows = set(lines[1:])
        self.points = len(lines) - 1
        self.best = benchstats.golden_best(self.golden)


def parse_counters(stdout):
    """Exact counters from the CLI's greppable staged:/cache:/search:
    lines."""
    counters = {}
    for line in stdout.splitlines():
        m = re.match(r"staged: (\d+) full, (\d+) replayed$", line)
        if m:
            counters["schedule.full"] = int(m.group(1))
            counters["replay.count"] = int(m.group(2))
        for prefix, group in (("cache: ", "store."), ("search: ", "search.")):
            if line.startswith(prefix):
                for key, value in re.findall(r"(\w+)=(\d+)", line):
                    counters[group + key] = int(value)
    return counters


def mismatched_lines(produced, expected):
    """Lines (header included) that differ position by position; 0 only
    when the bytes are identical."""
    if produced == expected:
        return 0
    a, b = produced.splitlines(), expected.splitlines()
    diff = sum(1 for i in range(max(len(a), len(b)))
               if i >= len(a) or i >= len(b) or a[i] != b[i])
    return max(diff, 1)


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def check_output(spec, mode, warm, stdout, code, out_path):
    """Failed points of one invocation, and why."""
    if code != 0:
        return spec.points, ["%s: exit code %d" % (spec.stem, code)]
    first = stdout.splitlines()[0] if stdout else ""
    if first.split(":")[0] != "%s %s" % (mode, spec.name) or \
            not first.split(":", 1)[1].startswith(" %d points" % spec.points):
        return spec.points, ["%s: unexpected banner %r" % (spec.stem, first)]
    counters = parse_counters(stdout)
    if mode == "sweep":
        bad = min(spec.points,
                  mismatched_lines(read_text(out_path), spec.golden))
        why = ["%s: %d rows differ from golden" % (spec.stem, bad)] if bad else []
        if warm and counters.get("store.misses", 1) != 0:
            misses = counters.get("store.misses", spec.points)
            bad = min(spec.points, bad + misses)
            why.append("%s: warm rerun missed %d points" % (spec.stem, misses))
        return bad, why
    lines = read_text(out_path).splitlines()
    winner = [l[len("winner: "):] for l in stdout.splitlines()
              if l.startswith("winner: ")]
    evaluated = counters.get("search.evaluated", -1)
    space = counters.get("search.space", -1)
    why = []
    if not lines or lines[0] != spec.header:
        why.append("%s: audit CSV header differs from golden" % spec.stem)
    if any(row not in spec.golden_rows for row in lines[1:]):
        why.append("%s: audit row not in golden" % spec.stem)
    if len(lines) - 1 != evaluated:
        why.append("%s: %d audit rows for %d evaluations"
                   % (spec.stem, len(lines) - 1, evaluated))
    if winner != [spec.best]:
        why.append("%s: winner is not the golden best row" % spec.stem)
    if space != spec.points or evaluated < 1 or evaluated * 4 > space:
        why.append("%s: evaluated=%d of space=%d breaks the quarter budget"
                   % (spec.stem, evaluated, space))
    return (spec.points if why else 0), why


# --------------------------------------------------------------------------
# Driving the CLI

def spawn_on(cpu, cmd, **kwargs):
    """Popen with the child bound to one CPU (None: any CPU). The
    parent binds itself around the fork, so no code runs in the child
    before exec."""
    if cpu is None:
        return subprocess.Popen(cmd, **kwargs)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(cmd, **kwargs)
    finally:
        os.sched_setaffinity(0, allowed)


def run_child(cmd, cwd, log_prefix, timeout, cpu=None):
    """Run one child to completion; returns (wall_s, cpu_s, maxrss_kb,
    exit code, stdout). Its own rusage comes from wait4."""
    with open(log_prefix + ".out", "wb") as out, \
            open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = spawn_on(cpu, cmd, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode, read_text(log_prefix + ".out"))


class Workload:
    def __init__(self, name, seed, explore, specs, work):
        self.mode, self.jobs, self.warm = WORKLOADS[name]
        self.search_seed = seed % (2 ** 63)
        self.explore = explore
        self.specs = specs
        self.work = work
        self.rng = random.Random(seed)
        # The host's vCPUs slow down independently for seconds at a
        # time, so one-worker invocations rotate over the CPUs: each
        # spec's best-of-run then samples every CPU. Multi-worker runs
        # need them all.
        self.cpus = sorted(os.sched_getaffinity(0)) if self.jobs == 1 \
            else [None]
        self.launches = 0

    def next_cpu(self):
        cpu = self.cpus[self.launches % len(self.cpus)]
        self.launches += 1
        return cpu

    def order(self):
        """This pass's spec order (seeded)."""
        order = list(self.specs)
        self.rng.shuffle(order)
        return order

    def out_path(self, workdir, spec):
        suffix = ".search.csv" if self.mode == "search" else ".csv"
        return os.path.join(workdir, spec.name + suffix)

    def store_path(self, workdir):
        return os.path.join(workdir, "warm.qcache")

    def invoke(self, spec, workdir, fill=False):
        """One CLI invocation; returns its record with the oracle's
        verdict."""
        out = self.out_path(workdir, spec)
        if self.mode == "search":
            cmd = [self.explore, "--search", spec.path, "--jobs",
                   str(self.jobs), "--search-seed", str(self.search_seed),
                   "--search-report", out]
        else:
            cmd = [self.explore, "--sweep", spec.path, "--jobs",
                   str(self.jobs), "--out", out]
            if self.warm:
                cmd += ["--cache", self.store_path(workdir)]
        wall, cpu, rss, code, stdout = run_child(
            cmd, workdir, os.path.join(workdir, spec.stem),
            INVOCATION_TIMEOUT_S, self.next_cpu())
        failed, why = check_output(spec, self.mode, self.warm and not fill,
                                   stdout, code, out)
        return {"spec": spec.stem, "wall_s": wall, "cpu_s": cpu,
                "rss_kb": rss, "code": code, "points": spec.points,
                "failed": failed, "problems": why, "stdout": stdout,
                "counters": parse_counters(stdout)}

    def setup(self, rep):
        """Stage a fresh work directory and run one untimed pass (for
        rerun-warm, the cold --cache pass that fills the store)."""
        workdir = os.path.join(self.work, "setup%d" % rep)
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        os.makedirs(workdir)
        records = [self.invoke(spec, workdir, fill=True)
                   for spec in self.order()]
        return time.perf_counter() - start, workdir, records

    def measure(self, workdir, seconds):
        """Closed loop, one client: the next invocation starts when the
        previous one exits, until `seconds` have passed."""
        records = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            for spec in self.order():
                if time.perf_counter() >= deadline:
                    break
                records.append(self.invoke(spec, workdir))
        return time.perf_counter() - start, records


# With several workers, which worker claims which span of a schedule-key
# group depends on thread timing, and a worker that claims two spans of
# one group replays where another would schedule in full. These counters
# are exact at one worker only; at more, their sum is the exact count.
SPLIT_COUNTERS = ("schedule.full", "replay.count",
                  "schedule.placements_reused", "schedule.sim_ops")


def exact_counters(counters, jobs):
    """The counters that must repeat exactly at this worker count."""
    if jobs == 1:
        return counters
    exact = {k: v for k, v in counters.items() if k not in SPLIT_COUNTERS}
    exact["staged.total"] = (counters.get("schedule.full", 0) +
                             counters.get("replay.count", 0))
    return exact


def counter_drift(records, jobs):
    """Specs whose exact counters differ between invocations."""
    seen = {}
    drift = []
    for r in records:
        exact = exact_counters(r["counters"], jobs)
        if seen.setdefault(r["spec"], exact) != exact and r["spec"] not in drift:
            drift.append(r["spec"])
    return drift


def end_to_end(wl, seconds):
    setups = [wl.setup(rep) for rep in range(SETUP_REPEATS)]
    problems = [p for _, _, recs in setups for r in recs for p in r["problems"]]
    workdir = setups[-1][1]
    wall, records = wl.measure(workdir, seconds)
    if not records:
        raise BenchError("no invocation completed")
    problems += [p for r in records for p in r["problems"]]
    drift = counter_drift(records, wl.jobs)
    problems += ["%s: exact counters drifted across runs" % s for s in drift]

    attempted = sum(r["points"] for r in records)
    failed = sum(r["failed"] for r in records)
    per_spec = {}
    for r in records:
        per_spec.setdefault(r["spec"], []).append(r)
    missing = [s.stem for s in wl.specs if s.stem not in per_spec]
    if missing:
        raise BenchError("--seconds too short: no timed run of %s"
                         % ", ".join(missing))
    spec_stats = {}
    for stem, recs in sorted(per_spec.items()):
        walls = [r["wall_s"] * 1e3 for r in recs]
        pct = benchstats.supported_percentile(walls)
        spec_stats[stem] = {
            "points": recs[0]["points"],
            "best_ms": min(walls),
            "best_cpu_ms": min(r["cpu_s"] * 1e3 for r in recs),
            "median_ms": benchstats.median(walls),
            "percentile": None if pct is None else
            {"p": pct[0], "ms": pct[1]},
            "samples": len(walls),
        }
    # The gated timings use each spec's best invocation of the run: the
    # host alternates between phases whose CPU speed differs by up to
    # two thirds, and a run's median lands in whichever phase dominated
    # it. Medians and percentiles stay in the detailed record.
    pass_points = sum(s["points"] for s in spec_stats.values())
    metrics = {
        "points_per_s": pass_points * 1e3 / sum(
            s["best_ms"] for s in spec_stats.values()),
        "spec_ms_geomean": benchstats.geomean(
            s["best_ms"] for s in spec_stats.values()),
        "cpu_ms_per_point": sum(
            s["best_cpu_ms"] for s in spec_stats.values()) / pass_points,
        "setup_s": benchstats.median(s[0] for s in setups),
    }
    counters = {}
    for r in records:
        counters.setdefault(r["spec"], r["counters"])
    detail = {
        "setup_s_samples": [s[0] for s in setups],
        "measured_s": wall,
        "points_per_s_over_run": attempted / wall,
        "invocations": len(records),
        # Reported, not gated: both read the same on every run at this
        # commit (ru_maxrss is deterministic, and nothing fails).
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        "failed_frac": failed / attempted,
        "per_spec": spec_stats,
        "counters": counters,
    }
    return metrics, E2E_UNITS, attempted, failed, problems, detail


# --------------------------------------------------------------------------
# Traced run

def read_spans(path):
    spans, args = {}, {}
    with open(path) as f:
        for line in f:
            sid, parent, _thread, name, start, end, arg = line.split()
            spans[int(sid)] = (int(parent), name, int(start), int(end))
            args[int(sid)] = int(arg)
    return spans, args


def layer_metrics(spans, args, passes):
    """Per-pass self times and ratios from the spans, medians across
    traced passes."""
    selfs = benchstats.self_times(spans)
    roots = benchstats.root_of(spans)
    children = {}
    for sid, (parent, _name, _s, _e) in spans.items():
        if parent:
            children.setdefault(parent, []).append(sid)
    per_pass = {}
    for sid, (parent, name, start, end) in spans.items():
        acc = per_pass.setdefault(roots[sid], {"self": {}, "staged": 0,
                                               "capacity": 0})
        acc["self"][name] = acc["self"].get(name, 0) + selfs[sid]
        if name == "pass":
            acc["wall"] = end - start
        if name == "engine.run":
            acc["staged"] += sum(spans[c][3] - spans[c][2]
                                 for c in children.get(sid, ())
                                 if spans[c][1] in ("schedule", "replay"))
            acc["capacity"] += args[sid] * (end - start)
    counts = next(c for traced, _w, c in passes if traced)
    rows = []
    for acc in per_pass.values():
        s, wall = acc["self"], acc["wall"]
        ops = counts.get("schedule.sim_ops", 0)
        row = {m: s.get(span, 0) / 1e6 for m, span in LAYER_SPANS.items()}
        row["lower.share"] = s.get("lower", 0) / wall
        row["schedule.share"] = s.get("schedule", 0) / wall
        row["schedule.us_per_op"] = s.get("schedule", 0) / 1e3 / ops if ops else 0.0
        row["engine.parallel_eff"] = (acc["staged"] / acc["capacity"]
                                      if acc["capacity"] else 0.0)
        row["trace.pass_ms"] = wall / 1e6
        row["trace.remainder_ms"] = (s.get("pass", 0) + s.get("spec", 0)) / 1e6
        rows.append(row)
    metrics = {k: benchstats.median(r[k] for r in rows) for k in rows[0]}
    for key in LAYER_COUNTS:
        metrics[key] = float(counts.get(key, 0))
    evaluated = counts.get("engine.evaluated", 0)
    metrics["replay.share"] = counts.get("replay.count", 0) / evaluated \
        if evaluated else 0.0
    lookups = counts.get("store.hits", 0) + counts.get("store.misses", 0)
    metrics["store.hit_ratio"] = counts.get("store.hits", 0) / lookups \
        if lookups else 0.0
    space = counts.get("search.space", 0)
    metrics["search.evaluated_frac"] = counts.get("search.evaluated", 0) / space \
        if space else 0.0
    # The first pass warms the process (allocator, model tables); the
    # overhead compares the warm passes only.
    traced = [w for t, w, _c in passes[1:] if t]
    untraced = [w for t, w, _c in passes[1:] if not t]
    metrics["trace.overhead"] = (benchstats.median(traced) /
                                 benchstats.median(untraced) - 1.0)
    return metrics


def traced(wl, seconds, trace_exe):
    _setup_s, workdir, records = wl.setup(0)
    problems = [p for r in records for p in r["problems"]]

    startup = []
    for i in range(STARTUP_SAMPLES):
        wall, _cpu, _rss, code, _out = run_child(
            [wl.explore, "--build-info"], workdir,
            os.path.join(workdir, "build-info"), INVOCATION_TIMEOUT_S)
        if code != 0:
            problems.append("--build-info exit code %d" % code)
        startup.append(wall * 1e3)

    trace_dir = os.path.join(workdir, "trace")
    os.makedirs(trace_dir)
    spans_path = os.path.join(trace_dir, "spans.txt")
    order = wl.order()
    cmd = [trace_exe, "--mode", wl.mode, "--jobs", str(wl.jobs),
           "--seconds", repr(seconds), "--out-dir", trace_dir,
           "--spans", spans_path]
    if wl.warm:
        cmd += ["--cache", wl.store_path(workdir)]
    if wl.mode == "search":
        cmd += ["--search-seed", str(wl.search_seed)]
    cmd += [s.path for s in order]
    _wall, _cpu, _rss, code, stdout = run_child(
        cmd, workdir, os.path.join(trace_dir, "tracer"),
        seconds + INVOCATION_TIMEOUT_S)
    if code != 0:
        raise BenchError("tracer failed (exit %d); see %s"
                         % (code, os.path.join(trace_dir, "tracer.err")))

    passes = []
    for line in stdout.splitlines():
        if not line.startswith("pass "):
            continue
        fields = dict(tok.split("=", 1) for tok in line.split()[1:])
        passes.append((fields.pop("traced") == "1",
                       int(fields.pop("wall_ns")),
                       {k: int(v) for k, v in fields.items()}))
    if not any(t for t, _w, _c in passes) or all(t for t, _w, _c in passes):
        raise BenchError("tracer reported no traced/untraced pass")
    first = exact_counters(passes[0][2], wl.jobs)
    if any(exact_counters(c, wl.jobs) != first for _t, _w, c in passes):
        problems.append("trace: exact counters drifted across passes")

    # Traced rows must equal the CLI's rows from the set-up pass.
    cli_out = {r["spec"]: r["stdout"] for r in records}
    failed = 0
    for spec in wl.specs:
        mine = os.path.join(trace_dir, os.path.basename(wl.out_path(workdir, spec)))
        bad = min(spec.points, mismatched_lines(
            read_text(mine), read_text(wl.out_path(workdir, spec))))
        if wl.mode == "search":
            winner = [l[len("winner: "):] for l in cli_out[spec.stem].splitlines()
                      if l.startswith("winner: ")]
            got = read_text(os.path.join(trace_dir, spec.name + ".winner"))
            if [got.rstrip("\n")] != winner:
                bad = spec.points
        if bad:
            problems.append("trace: %s rows differ from the CLI's" % spec.stem)
        failed += bad

    spans, args = read_spans(spans_path)
    metrics = layer_metrics(spans, args, passes)
    metrics["cli.startup_ms"] = benchstats.median(startup)
    units = {m: "ms" for m in LAYER_SPANS}
    units.update(LAYER_COUNTS)
    units.update(LAYER_DERIVED)
    attempted = sum(s.points for s in wl.specs) * len(passes)
    detail = {"passes": len(passes), "spans": len(spans),
              "counters": passes[0][2], "spec_order": [s.stem for s in order]}
    return metrics, units, attempted, failed, problems, detail


# --------------------------------------------------------------------------

def main():
    args = parse_args()
    root = os.getcwd()
    try:
        check_checkout(root)
        bench_dir = os.path.join(root, ".bench_build")
        build_dir = os.path.join(bench_dir, "perfbench")
        build_s = build(root, build_dir)
        explore = os.path.join(build_dir, "qccd", "src", "qccd_explore")
        trace_exe = os.path.join(build_dir, "perfbench_trace")
        provenance = guard_and_provenance(root, build_dir, explore)
        provenance.update({"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace,
                           "build_s": build_s})
        specs = [Spec(root, p) for p in sorted(
            glob.glob(os.path.join(root, "examples/sweeps/*.sweep")))]
        work = os.path.join(bench_dir, "work", args.workload)
        wl = Workload(args.workload, args.seed, explore, specs, work)
        if args.trace:
            result = traced(wl, args.seconds, trace_exe)
        else:
            result = end_to_end(wl, args.seconds)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    metrics, units, attempted, failed, problems, detail = result

    for p in problems:
        print("problem: " + p)
    for name in sorted(metrics):
        print("%-28s %16.6f %s" % (name, metrics[name], units[name]))
    if not args.trace:
        for stem, s in detail["per_spec"].items():
            pct = s["percentile"]
            print("spec %-22s best %9.3f ms  median %9.3f ms  %s  n=%d" % (
                stem, s["best_ms"], s["median_ms"],
                "p%g %.3f ms" % (pct["p"], pct["ms"]) if pct else "p- (n<20)",
                s["samples"]))
        print("%-28s %16.6f MB (not gated)" % ("peak_rss_mb",
                                                detail["peak_rss_mb"]))
        print("%-28s %16.6f ratio (not gated)" % ("failed_frac",
                                                   detail["failed_frac"]))

    results_dir = os.path.join(root, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"provenance": provenance, "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed,
              "problems": problems, "detail": detail}
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
