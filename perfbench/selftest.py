#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py [--workload cmp_coherent]

Run from the root of a source tree; it takes about a minute. Checks:
  1. a plain run prints every end-to-end metric BENCHMARK.json names,
     each with its declared unit, and reports no failure on the
     committed reference;
  2. a traced run prints every per-layer metric with its unit, and its
     trace file parses, is read by tools/trace_report, and holds a span
     for every layer the pass drives;
  3. a reference with one perturbed row makes the run report
     error_rate > 0.
Exits 0 when all checks pass.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark under test)

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def bench(workload, trace, extra=()):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "1", "--trace",
            str(trace)] + list(extra)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr)
        raise SystemExit("benchmark exited %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result, declared, label):
    for m in declared:
        got = result["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"],
              "%s: %s printed in %s" % (label, m["name"], m["unit"]))
    check(set(result["metrics"]) == {m["name"] for m in declared},
          "%s: no undeclared metric" % label)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="cmp_coherent",
                    choices=sorted(run.WORKLOADS))
    workload = ap.parse_args().workload
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    lines, result = bench(workload, 0)
    check_metrics(result, spec["end_to_end"], "plain run")
    check(result["correct"] and result["failed"] == 0,
          "plain run: matches the committed reference")
    check(any(re.match(r"error_rate\s+0 ratio", l) for l in lines),
          "plain run: prints error_rate = 0")

    lines, result = bench(workload, 1)
    check_metrics(result, spec["per_layer"], "traced run")
    check(result["correct"], "traced run: layer pass and children ok")
    traces = [l.split()[1] for l in lines if l.startswith("trace: ")]
    check(len(traces) == 1, "traced run: names its trace file")
    if traces:
        path = os.path.join(ROOT, traces[0])
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        cats = {e["cat"] for e in events}
        for layer in run.LAYERS:
            check(layer in cats, "trace: has %s spans" % layer)
        check(all({"id", "parent", "workload"} <= set(e["args"])
                  for e in events),
              "trace: every span has id, parent and workload")
        report = subprocess.run(
            [os.path.join(run.BIN, "trace_report"), "--trace", path],
            capture_output=True, text=True)
        check(report.returncode == 0, "trace: tools/trace_report reads it")

    with open(os.path.join(run.REFERENCE, workload + ".json")) as f:
        ref = json.load(f)
    row = ref["rows"][0]
    column = run.WORKLOADS[workload]["ed_column"]
    row[column] = "%.3f" % (float(row[column]) + 0.001)
    perturbed = os.path.join(run.WORK, "perturbed_reference.json")
    with open(perturbed, "w") as f:
        json.dump(ref, f)
    lines, result = bench(workload, 0, ["--reference", perturbed])
    rate = [float(l.split()[1]) for l in lines
            if l.startswith("error_rate")]
    check(rate and rate[0] > 0 and not result["correct"],
          "perturbed reference: error_rate > 0")

    print("%d check(s) failed" % len(FAILURES) if FAILURES
          else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
