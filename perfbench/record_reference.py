#!/usr/bin/env python3
"""Record the summary values that the benchmark's output checks compare to.

    python3 perfbench/record_reference.py [--seeds 24]

Runs each workload's command sequence once per seed 0..seeds-1 and writes
the ``key: value`` summary lines to perfbench/reference.json. The file in
the repository was recorded at the seed commit; rerun this only when a
change to sorlab is meant to change those values. Each recorded output must
first pass the workload's own checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread cap before numpy loads

run._check_sources()

import checks  # noqa: E402
from workloads import WORKLOADS, generate_argv  # noqa: E402


def record(workload, seed: int, work: Path) -> dict:
    from sorlab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(generate_argv(workload, seed, str(work / "in"))) != 0:
            raise RuntimeError("generate failed")
    (work / "out").mkdir()
    passes = run.Passes(workload, seed, work / "in", work / "out")
    if passes.one() is None:
        raise RuntimeError(f"{workload.name} seed {seed}: {passes.errors}")
    failures = run.run_checks(workload, seed, work / "in", passes, reference=False)
    if failures:
        raise RuntimeError(f"{workload.name} seed {seed}: {failures}")
    return checks.summary_values(passes.reference[0])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=24)
    args = p.parse_args()
    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = {}
        for seed in range(args.seeds):
            run.OUT.mkdir(parents=True, exist_ok=True)
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
            try:
                out[name][str(seed)] = record(workload, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {args.seeds} seeds", file=sys.stderr)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
