#!/usr/bin/env python3
"""Runs one perfbench workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the perfbench program from source into .bench_build/perfbench.
The program measures; this script reduces its samples (benchlib.py), prints
every metric by name with its unit, the output checks and the machine
fingerprint, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Metrics that apply to only some workloads are
printed above that line, marked "extra". A traced run also writes its spans
as a Chrome trace to .bench_build/perfbench/traces/. Every run's full report
goes to .bench_build/perfbench/results/.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def build():
    """Configures (once) and builds the program; returns an error or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
        if p.returncode != 0:
            return "build failed:\n" + p.stdout[-4000:]
    return None


def fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("no BENCHMARK.json at " + str(ROOT))
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        return fail("no library sources (src/, CMakeLists.txt) to build in "
                    + str(ROOT))
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload " + args.workload)
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    try:
        err = build()
    except subprocess.TimeoutExpired:
        err = "build timed out"
    if err:
        return fail(err)

    trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_path)]
    t0 = time.time()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        return fail("workload timed out", 1)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return fail(f"workload exited with {p.returncode}", 1)
    raw = json.loads(lines[-1])
    spans = benchlib.load_chrome_trace(trace_path) if args.trace else None
    metrics = benchlib.reduce_raw(raw, spans)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    reported, problems = {}, []
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} was not measured")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} measured in {got['unit']}, "
                            f"declared in {m['unit']}")
        else:
            reported[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    problems += [f"bad metric name {n!r}" for n in metrics
                 if not benchlib.valid_name(n)]
    failed_checks = [c for c in raw["checks"] if not c["ok"]]
    correct = raw["failed"] == 0 and not failed_checks and not problems

    info = raw["info"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} wall={time.time() - t0:.1f}s")
    print("machine: nproc={nproc} cpu={cpu_model!r} compiler={compiler!r} "
          "build={build_type}".format(**info))
    for c in raw["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} {c['detail']}")
    for msg in problems:
        print("problem: " + msg)
    for name in sorted(metrics, key=lambda n: (n not in reported, n)):
        m = metrics[name]
        tag = "" if name in reported else "  (extra)"
        print(f"metric {name} {fmt(m['value'])} {m['unit']} n={m['n']}{tag}")

    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": reported}
    out = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"result": result, "metrics": metrics,
                               "checks": raw["checks"], "info": info}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
