#!/usr/bin/env python3
"""sorlab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload compare-random16 --seed 1 --seconds 20 --trace 0

Set-up: ``sorlab generate`` runs in fresh interpreters and writes the
workload's MatrixMarket inputs from the seed; ``setup_s`` is the median of
those runs. Timing: one caller in this process runs the workload's command
sequence again and again, each pass starting when the previous one returned,
for ``--seconds``; ``wall_s`` is the median pass. Every time is rescaled to
nominal host speed by a reference kernel timed around it (hostclock.py); the
report shows the raw wall-clock times too. Checks run after timing.
With ``--trace 1`` half the time is spent untraced and half with every
public sorlab function wrapped, and the per-layer metrics are reported.

The last stdout line is the JSON result; the lines before it are a readable
report. A record with the environment is written under perfbench/out/.
Exit code 0 when every pass and check passed, 1 when one failed, 2 when the
sorlab sources are missing.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_ENV:  # before numpy loads its BLAS
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5       # fresh interpreters per run for setup_s
MIN_PASSES = 5          # timed passes per run, even past --seconds
MIN_TRACED = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def _check_sources() -> None:
    if not (SRC / "sorlab" / "__init__.py").is_file():
        print(f"error: sorlab sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _digest(text: str, files: dict) -> str:
    h = hashlib.sha256(text.encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def _tree_digest(path: Path, pattern: str = "*") -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob(pattern) if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    import sorlab

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sorlab": sorlab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": _tree_digest(SRC / "sorlab", "*.py"),
        "workload": workload,
        "seed": seed,
    }


def time_setup(workload, seed: int, work: Path, clock) -> tuple[list, Path]:
    """Run ``sorlab generate`` in fresh interpreters, ticking ``clock``
    between them. Returns (raw, tick before) per run and the inputs' directory."""
    from workloads import generate_argv

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        out = work / f"inputs-{k}"
        argv = [sys.executable, "-m", "sorlab.cli", *generate_argv(workload, seed, str(out))]
        tick = clock.tick()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append((time.perf_counter() - t0, tick))
        if proc.returncode != 0:
            raise RuntimeError(f"sorlab generate exited {proc.returncode}: {proc.stderr}")
        digests.add(_tree_digest(out))
    clock.tick()
    if len(digests) != 1:
        raise RuntimeError("sorlab generate wrote different files for the same seed")
    return times, work / "inputs-0"


class Passes:
    """Closed-loop passes of one workload with a byte-for-byte output check."""

    def __init__(self, workload, seed: int, inputs: Path, outputs: Path):
        from workloads import output_files
        self.workload, self.seed = workload, seed
        self.inputs, self.outputs = str(inputs), outputs
        self.names = output_files(workload)
        self.reference = None      # (text, files, digest) of the first pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self):
        """Run one pass; return its wall time, or None if it failed."""
        from workloads import run_sequence
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            text = run_sequence(self.workload, self.seed, self.inputs, str(self.outputs))
        except (Exception, SystemExit) as exc:  # a failed pass is counted, not fatal
            self.failed += 1
            self.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())
            return None
        wall = time.perf_counter() - t0
        files = {name: (self.outputs / name).read_bytes() for name in self.names}
        digest = _digest(text, files)
        if self.reference is None:
            self.reference = (text, files, digest)
        elif digest != self.reference[2]:
            self.failed += 1
            self.errors.append(f"pass {self.attempted}: stdout/CSV/SVG differ from pass 1")
            return None
        return wall

    def loop(self, seconds: float, min_passes: int, clock, before=None, after=None) -> list:
        """Passes until ``seconds`` are up and ``min_passes`` succeeded.

        ``clock`` ticks between passes; ``before()`` runs untimed ahead of
        each pass and ``after()`` after each successful one. Returns
        (wall time, tick before) per successful pass.
        """
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < min_passes or time.perf_counter() < deadline:
            tick = clock.tick()
            if before is not None:
                before()
            wall = self.one()
            if wall is not None:
                walls.append((wall, tick))
                if after is not None:
                    after()
            elif self.reference is None or self.attempted > 4 * max(len(walls), 1):
                break  # failing throughout: stop early, the result reports it
        clock.tick()
        return walls


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_checks(workload, seed: int, inputs: Path, passes: Passes,
               reference: bool = True) -> list[str]:
    """Output checks on the first pass's outputs (every later pass is identical).

    With ``reference`` the summary is also compared to the seed commit's
    values, where reference.json holds that seed.
    """
    import checks
    from sorlab import analysis, linalg, mmio

    if passes.reference is None:
        return ["no pass completed"]
    text, files, _ = passes.reference
    data = checks.read_inputs(str(inputs))
    if workload.kind == "compare":
        failures = checks.check_compare(workload, data, text, files)
    else:
        extra = {}
        if workload.params["contraction"]:
            B = linalg.hermitian(mmio.read_matrix(str(inputs / "B.mtx"))[0])
            extra = {"closed": analysis.expected_lower_gram_closed(B),
                     "bruteforce": analysis.expected_lower_gram_bruteforce(B)}
        failures = checks.check_analyze(workload, data, text, extra)
    values = None
    if reference and not workload.tiny:
        values = load_reference().get(workload.name, {}).get(str(seed))
    if values is not None:
        failures += checks.check_reference(data, text, values)
    return failures


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _phase(timed: list, clock) -> dict:
    """Raw and host-scaled times of one phase, and the scaled median."""
    raw = [t for t, _ in timed]
    scaled = [clock.scale(t, tick) for t, tick in timed]
    return {"raw": raw, "scaled": scaled, "kernel": clock.ticks,
            "value": statistics.median(scaled) if scaled else float("nan")}


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the record (result, report data, environment)."""
    import checks
    import tracer as tr
    from hostclock import HostClock
    from workloads import generate_argv

    clock = HostClock()
    setup_raw, inputs = time_setup(workload, seed, work, clock)
    setup = _phase(setup_raw, clock)
    outputs = work / "outputs"
    outputs.mkdir()
    passes = Passes(workload, seed, inputs, outputs)
    clock = HostClock(workload.kernel)
    wall = _phase(passes.loop(seconds / 2 if trace else seconds, MIN_PASSES, clock), clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"setup_s": setup, "wall_s": wall}
    if trace:
        from sorlab import cli
        gen_dir = str(work / "traced-inputs")
        layers = []
        clock = HostClock(workload.kernel)
        with tr.Tracer() as tracer:
            def generate():
                tracer.take()
                with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                    cli.main(generate_argv(workload, seed, gen_dir))

            traced = passes.loop(seconds / 2, MIN_TRACED, clock, before=generate,
                                 after=lambda: layers.append(tr.layer_metrics(tracer.take())))
        traced = _phase(traced, clock)
        layers = [tr.scale_times(m, scaled / raw)
                  for m, raw, scaled in zip(layers, traced["raw"], traced["scaled"])]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in tr.LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = traced["value"] - wall["value"]
        record.update(traced_wall_s=traced,
                      tail_percentile=tr.tail_percentile(int(metrics["solvers.trials"])))
        units = {name: unit for name, (unit, _) in tr.LAYER_METRICS.items()}
    else:
        metrics = {"setup_s": setup["value"], "wall_s": wall["value"],
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END

    failures = run_checks(workload, seed, inputs, passes)
    failed = passes.attempted if failures else passes.failed
    if workload.kind == "compare" and not failures and wall["raw"]:
        curves = checks.parse_csv(passes.reference[1]["cmp.csv"])
        updates = checks.updates_from_csv(curves, workload.n)
        record.update(updates=updates, updates_per_s=updates / wall["value"])
    record.update(
        result={"correct": not failures and passes.failed == 0,
                "attempted": passes.attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}},
        failures=failures, errors=passes.errors, failed_frac=failed / passes.attempted,
        peak_rss_mb=peak_rss_mb,
    )
    return record


def _timing_line(name: str, phase: dict) -> str:
    q1, q2, q3 = quartiles(phase["scaled"])
    r1, r2, r3 = quartiles(phase["raw"])
    return (f"{name}: median {q2:.6f} s, quartiles {q1:.6f}..{q3:.6f}, n = {len(phase['raw'])}"
            f" (raw wall clock: median {r2:.6f} s, quartiles {r1:.6f}..{r3:.6f})")


def report(record: dict) -> list[str]:
    """Readable lines: every end-to-end figure with its unit, then the layers."""
    env, res = record["environment"], record["result"]
    lines = [f"env {k}: {v}" for k, v in env.items()]
    lines.append(_timing_line("setup_s", record["setup_s"]))
    lines.append(_timing_line("wall_s", record["wall_s"]))
    if "updates_per_s" in record:
        lines.append(f"updates_per_s: {record['updates_per_s']:.1f} 1/s "
                     f"({record['updates']} updates per pass)")
    lines.append(f"peak_rss_mb: {record['peak_rss_mb']:.1f} MiB")
    lines.append(f"failed_frac: {record['failed_frac']:.4f} ratio "
                 f"({res['failed']} of {res['attempted']} passes)")
    if "traced_wall_s" in record:
        lines.append(_timing_line("traced wall_s", record["traced_wall_s"]))
        lines.append(f"solvers.trial_ms_tail is p{record['tail_percentile']:g}")
        for name, m in res["metrics"].items():
            lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    lines += [f"check failed: {f}" for f in record["failures"]]
    lines += [f"pass failed: {e}" for e in record["errors"][:5]]
    return lines


def main(argv=None) -> int:
    _check_sources()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT / "work"))
    try:
        record = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(workload.name, args.seed)
    record.update(seconds=args.seconds, trace=args.trace)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(report(record)))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] and record["result"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
