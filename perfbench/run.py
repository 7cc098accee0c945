#!/usr/bin/env python3
"""The repository benchmark: the paper-shaped sweeps, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run builds the shipped
bench binaries (through the repository's own CMakeLists.txt) and the
benchmark's helpers into .bench_build/.

--trace 0 runs the workload's bench binary as a child process, one at
a time, for about S seconds, and reports the end-to-end metrics:
median child wall time, set-up time, peak resident set and the two
simulated figures the child's --json report carries. Every child's
report is checked against perfbench/reference/<workload>.json.

--trace 1 runs the layer pass (perfbench/layer_pass.cc) on the same
workload, once with spans and once without, writes the spans to
.bench_build/trace/, and spends the rest of the S seconds on child
runs for the executor-utilization metrics. It reports the per-layer
metrics.

The bench binaries use the suite's fixed seeds and take no seed
argument, so --seed moves only the layer pass's inputs: it reseeds
every program image the pass builds.

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "drisim")
WORK = os.path.join(BUILD, "run")
TRACES = os.path.join(BUILD, "trace")
REFERENCE = os.path.join(HERE, "reference")

JOBS = 4
# A shard count large enough that some shard owns none of a sweep's
# units: such a run does everything but simulate (set-up time).
NOOP_SHARDS = 4096
SETUP_REPEATS = 101
TARGETS = ["bench_figure4", "bench_policies", "bench_cmp", "trace_report",
           "layer_pass", "spawn_rusage"]

# Why these three: README.md, "Workloads". The scales keep one child
# run near 5 s on a 4-thread host, so a 30 s run reports the median of
# five or six. cmp_coherent runs single-threaded, which makes it the
# noisiest; its shorter children give it a dozen samples per run.
WORKLOADS = {
    "dri_search": {
        "binary": "bench_figure4",
        "args": ["--jobs", str(JOBS)],
        "scale": "0.02",
        "ed_column": "ED 1x (base)",
        "slowdown_column": "slow 1x",
    },
    "policy_compare": {
        "binary": "bench_policies",
        "args": ["--jobs", str(JOBS)],
        "scale": "0.02",
        "ed_column": "rel-ED",
        "slowdown_column": "slowdown",
    },
    "cmp_coherent": {
        "binary": "bench_cmp",
        "args": ["--cores", "4", "--coherent", "--dram-banked",
                 "--jobs", str(JOBS)],
        "scale": "0.025",
        "ed_column": "rel-ED",
        "slowdown_column": None,
    },
}

# Row identity keys, not results: excluded from the reference compare
# so a deliberate key change (e.g. completing the CMP run key) is not
# reported as a wrong answer.
IDENTITY_COLUMNS = {"config_hash"}

LAYERS = ["workload", "cpu", "mem", "core", "policy", "system", "exec"]


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def log(msg):
    print(msg, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no drisim source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", str(JOBS), "--target"]
                 + TARGETS)
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                raise BenchError("build failed: " + " ".join(cmd) +
                                 " (see " + build_log + ")")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """Digest of the simulator sources, for trees that are not git
    checkouts."""
    h = hashlib.sha256()
    for top in ("src", "bench", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(wl, command):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else ""
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or
                      "none (-O2 from CMakeLists.txt)",
        "commit": commit or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "DRISIM_SCALE": wl["scale"],
        "jobs": JOBS,
        "command": command,
    }


class Child:
    """One finished child process, measured by spawn_rusage."""

    def __init__(self, argv, env, stderr=subprocess.DEVNULL):
        report = os.path.join(WORK, "rusage.txt")
        proc = subprocess.run([os.path.join(BUILD, "spawn_rusage"), report]
                              + argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=stderr, text=True)
        if proc.returncode != 0:
            raise BenchError("spawn_rusage failed for " + " ".join(argv))
        with open(report) as f:
            wall, user, system, maxrss, status = f.read().split()
        self.stderr = proc.stderr or ""
        self.wall = float(wall)
        self.cpu = float(user) + float(system)
        self.rss_mb = int(maxrss) / 1024.0
        self.ok = int(status) == 0


def child_env(wl):
    env = dict(os.environ)
    env["DRISIM_SCALE"] = wl["scale"]
    # Pins the report's wall-clock field, so reports compare byte-wise.
    env["DRISIM_JSON_WALL_SECONDS"] = "0"
    env.pop("DRISIM_JOBS", None)
    return env


def child_argv(wl, json_path=None):
    argv = [os.path.join(BIN, wl["binary"])] + wl["args"]
    return argv + ["--json", json_path] if json_path else argv


def shown(argv):
    """@argv with paths relative to the source tree, for reports."""
    return [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
            for a in argv]


def measure_setup(name, wl):
    """Median time of the workload command under a shard that owns no
    sweep unit: process start, option parsing and sweep planning."""
    env = child_env(wl)
    cache = os.path.join(BUILD, "noop_shard_" + name)
    shard = None
    if os.path.isfile(cache):
        with open(cache) as f:
            shard = f.read().strip()
    for k in range(1, 65):
        if shard:
            break
        spec = "%d/%d" % (k, NOOP_SHARDS)
        probe = Child(child_argv(wl) + ["--shard", spec], env,
                      stderr=subprocess.PIPE)
        if probe.ok and " owns 0 of " in probe.stderr:
            shard = spec
            with open(cache, "w") as f:
                f.write(shard)
    if not shard:
        raise BenchError("no shard of %d owns zero units" % NOOP_SHARDS)
    argv = child_argv(wl) + ["--shard", shard]
    Child(argv, env)  # warm the page cache
    times = []
    for _ in range(SETUP_REPEATS):
        c = Child(argv, env)
        if not c.ok:
            raise BenchError("set-up run failed: " + " ".join(argv))
        times.append(c.wall)
    return statistics.median(times), argv


def strip_identity(rows):
    return [{k: v for k, v in row.items() if k not in IDENTITY_COLUMNS}
            for row in rows]


def percent(cell):
    """'2.1%' or '5.3% (infeasible)' -> 2.1"""
    return float(cell.split("%")[0])


def sim_figures(wl, rows):
    ed = statistics.fmean(float(r[wl["ed_column"]]) for r in rows)
    col = wl["slowdown_column"]
    slow = statistics.fmean(percent(r[col]) for r in rows) if col else None
    return ed, slow


def run_children(name, wl, reference, deadline):
    """Run the workload's child, at least once, until the next run would
    end past @deadline; check each run's report against @reference."""
    env = child_env(wl)
    json_path = os.path.join(WORK, name + ".json")
    runs = []
    while not runs or (
            time.monotonic() + statistics.median(r["wall"] for r in runs)
            <= deadline):
        if os.path.exists(json_path):
            os.remove(json_path)
        c = Child(child_argv(wl, json_path), env)
        rows = None
        if c.ok:
            try:
                with open(json_path) as f:
                    rows = json.load(f)["winners"]
            except (OSError, ValueError, KeyError):
                rows = None
        runs.append({"wall": c.wall, "cpu": c.cpu, "rss_mb": c.rss_mb,
                     "correct": rows is not None and
                     strip_identity(rows) == reference["rows"],
                     "sim": sim_figures(wl, rows) if rows else None})
    return runs


def self_times(trace_path):
    """Per-category self time (ms): each span's duration minus the part
    its children cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    totals = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0, start
        for c in sorted(children.get(e["args"]["id"], []),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[e["cat"]] = totals.get(e["cat"], 0) + \
            (end - start - covered) / 1e3
    return totals, {e["cat"] for e in events}


def layer_pass(name, seed, trace_path=None):
    argv = [os.path.join(BUILD, "layer_pass"), "--workload", name,
            "--seed", str(seed)]
    if trace_path:
        argv += ["--trace", trace_path]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def pass_wall(result):
    return result["wall_s"] if result else float("inf")


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference",
                    help="compare against this file instead of "
                         "perfbench/reference/<workload>.json")
    ap.add_argument("--write-reference", action="store_true",
                    help="run the workload once and store its report "
                         "rows as the reference")
    args = ap.parse_args()
    name, wl = args.workload, WORKLOADS[args.workload]

    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        ref_path = args.reference or os.path.join(REFERENCE, name + ".json")
        command = ["DRISIM_SCALE=" + wl["scale"],
                   "DRISIM_JSON_WALL_SECONDS=0"] + shown(
            child_argv(wl, os.path.join(WORK, name + ".json")))
        if args.write_reference:
            return write_reference(name, wl, command, ref_path)
        with open(ref_path) as f:
            reference = json.load(f)
        log("provenance: " + json.dumps(provenance(wl, command)))

        start = time.monotonic()
        deadline = start + args.seconds
        setup_s, setup_argv = measure_setup(name, wl)
        metrics = {}
        failed = 0
        if args.trace:
            os.makedirs(TRACES, exist_ok=True)
            trace_path = os.path.join(
                TRACES, "%s-seed%d.trace.json" % (name, args.seed))
            # Alternate untraced and traced passes and keep each mode's
            # faster wall, so the first pass's cold start does not pose
            # as tracing overhead.
            passes = [layer_pass(name, args.seed, path)
                      for path in (None, trace_path, None, trace_path)]
            plain = min(passes[0::2], key=pass_wall)
            traced = min(passes[1::2], key=pass_wall)
            report = subprocess.run(
                [os.path.join(BIN, "trace_report"), "--trace", trace_path,
                 "--top", "5"], capture_output=True, text=True) \
                if traced else None
            runs = run_children(name, wl, reference, deadline)
            selfs, cats = self_times(trace_path) if traced else ({}, set())
            if plain is None or traced is None or \
                    report.returncode != 0 or not set(LAYERS) <= cats:
                failed += 1
            else:
                metrics.update(traced["metrics"])
                for layer in LAYERS:
                    metrics[layer + ".self_ms"] = metric(
                        selfs.get(layer, 0.0), "ms")
                metrics["trace.pass_wall_s"] = metric(traced["wall_s"], "s")
                metrics["trace.untraced_pass_wall_s"] = metric(
                    plain["wall_s"], "s")
                metrics["trace.overhead_pct"] = metric(
                    100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0), "%")
                log("trace: %s (%d spans)" % (
                    os.path.relpath(trace_path, ROOT), traced["spans"]))
                log(report.stdout.rstrip())
            walls = [r["wall"] for r in runs]
            cpus = [r["cpu"] for r in runs]
            metrics["exec.cpu_s"] = metric(statistics.median(cpus), "s")
            metrics["exec.cpu_util"] = metric(
                statistics.median(c / (w * JOBS) for c, w in zip(cpus, walls)),
                "ratio")
        else:
            runs = run_children(name, wl, reference, deadline)
            metrics["wall_s"] = metric(
                statistics.median(r["wall"] for r in runs), "s")
            metrics["setup_s"] = metric(setup_s, "s")
            metrics["peak_rss_mb"] = metric(
                statistics.median(r["rss_mb"] for r in runs), "MB")
            eds = [r["sim"][0] for r in runs if r["sim"]]
            metrics["sim_rel_ed"] = metric(
                statistics.median(eds) if eds else 0.0, "ratio")
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    failed += sum(not r["correct"] for r in runs)
    attempted = len(runs) + (1 if args.trace else 0)
    walls = sorted(r["wall"] for r in runs)
    log("workload %s: %d child run(s) of %s, wall %.3f .. %.3f s; "
        "set-up command: %s" % (
            name, len(runs), wl["binary"], walls[0], walls[-1],
            " ".join(shown(setup_argv))))
    log("%-36s %14.6g %s" % ("error_rate", failed / attempted, "ratio"))
    slows = [r["sim"][1] for r in runs if r["sim"] and
             r["sim"][1] is not None]
    if slows:
        log("%-36s %14.6g %s" % ("sim_slowdown_pct",
                                 statistics.median(slows), "%"))
    for key in sorted(metrics):
        log("%-36s %14.6g %s" % (key, metrics[key]["value"],
                                 metrics[key]["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_reference(name, wl, command, ref_path):
    json_path = os.path.join(WORK, name + ".json")
    c = Child(child_argv(wl, json_path), child_env(wl))
    if not c.ok:
        raise BenchError("reference run failed")
    with open(json_path) as f:
        rows = json.load(f)["winners"]
    os.makedirs(os.path.dirname(ref_path), exist_ok=True)
    with open(ref_path, "w") as f:
        json.dump({"workload": name, "command": command,
                   "rows": strip_identity(rows)}, f, indent=1)
        f.write("\n")
    log("wrote %s (%d rows)" % (ref_path, len(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
