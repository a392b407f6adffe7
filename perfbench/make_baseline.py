#!/usr/bin/env python3
"""Record a baseline: every workload untraced and traced, into one file.

    python3 perfbench/make_baseline.py --seed 0 --seconds 20 [--out perfbench/baseline.json]

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run. The file keeps each run's result line, its readable figures and the
environment, plus the tracing overhead per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", default=str(run.HERE / "baseline.json"))
    args = p.parse_args()
    baseline = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            path = run.OUT / "results" / f"{name}-seed{args.seed}-trace{trace}.json"
            record = json.loads(path.read_text())
            baseline["environment"] = {k: v for k, v in record["environment"].items()
                                       if k != "workload"}
            entry["traced" if trace else "untraced"] = {
                "result": record["result"],
                "report": proc.stdout.splitlines()[:-1],
                "wall_s_raw_median": statistics.median(record["wall_s"]["raw"]),
                "wall_s_passes": len(record["wall_s"]["raw"]),
            }
        entry["trace_overhead_s"] = entry["traced"]["result"]["metrics"]["trace.overhead_s"]["value"]
        baseline["workloads"][name] = entry
        print(f"{name}: done", file=sys.stderr)
    with open(args.out, "w") as fh:
        fh.write(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
