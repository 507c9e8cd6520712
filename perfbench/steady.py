#!/usr/bin/env python3
"""Steadiness and regression check for the perfbench benchmark.

Runs perfbench/run.py on each workload once per seed, then prints for every
end_to_end metric of BENCHMARK.json its median, its spread (first-to-third
quartile distance as a share of the median) and whether that spread is below
a third of the metric's bound.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--save A.json]
    python3 perfbench/steady.py --compare A.json B.json

--compare checks, per workload and metric, that B's median is not worse than
A's by more than the metric's bound (benchlib.regressed).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(SPEC["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(runs):
    ok = True
    for workload, results in runs.items():
        print(f"{workload} ({len(results)} runs)")
        for name, m in E2E.items():
            values = [r[name] for r in results]
            s = benchlib.spread(values) if len(values) > 1 else 0.0
            steady = s < m["bound"] / 3
            ok = ok and steady
            print(f"  {name:20s} median={benchlib.median(values):<12.6g} "
                  f"spread={s:.4f} bound/3={m['bound'] / 3:.4f} "
                  f"{'ok' if steady else 'UNSTEADY'}")
    return ok


def compare(a, b):
    ok = True
    for workload in a:
        for name, m in E2E.items():
            ma = benchlib.median([r[name] for r in a[workload]])
            mb = benchlib.median([r[name] for r in b[workload]])
            worse = benchlib.regressed(ma, mb, m["bound"], m["better"])
            ok = ok and not worse
            print(f"{workload:12s} {name:20s} {ma:<12.6g} -> {mb:<12.6g} "
                  f"{'REGRESSED' if worse else 'ok'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(a, b) else 1
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            runs[workload].append(run_once(workload, seed))
            print(f"{workload} seed {seed}: {runs[workload][-1]}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    return 0 if report(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
