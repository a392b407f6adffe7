"""Workload definitions of the sorlab benchmark.

Each workload is one user job: ``sorlab generate`` writes the MatrixMarket
inputs from the workload seed, then a fixed command sequence runs on those
files only. The ``why`` text of each workload says which layer it stresses
and which layer it bypasses; BENCHMARK.json repeats it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field, replace

STRATEGIES = "cyclic,shuffled,preshuffled,singlestep"
CONTRACTION_OMEGAS = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``generate`` holds the ``sorlab generate`` arguments besides ``--seed``
    and ``--out-dir``; ``params`` sizes the command sequence; ``kernel``
    names the host-speed reference kernel of the same kind of work
    (see hostclock.py).
    """

    name: str
    kind: str                 # "compare" or "analyze"
    why: str
    generate: tuple
    kernel: str
    params: dict = field(default_factory=dict)
    tiny: bool = False        # shrunken variant for the harness self-test

    @property
    def n(self) -> int:
        return self.params["n"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="compare-random16",
            kind="compare",
            why="random row-normalized n=16: every trial runs all 50 sweeps and randomized "
                "strategies redraw per sweep, so per-update cost in solvers dominates",
            generate=("--kind", "random", "--n", "16", "--m", "16"),
            kernel="sweeps16",
            params={"n": 16, "trials": 100, "sweeps": 50, "target": "0",
                    "per_trial": True},
        ),
        Workload(
            name="compare-fan64",
            kind="compare",
            why="fan n=64 rank 2: cyclic runs all 60 sweeps, randomized trials stop after "
                "1-22, so finished-trial masking, long rows and padding are exercised",
            generate=("--kind", "fan", "--m", "32"),
            kernel="sweeps64",
            params={"n": 64, "trials": 50, "sweeps": 60, "target": None,
                    "per_trial": False},
        ),
        Workload(
            name="analyze-exhaustive8",
            kind="analyze",
            why="lowrank n=8 r=4: all 8! orders through batched gathers, SVDs and solves in "
                "analysis; solvers is never called",
            generate=("--kind", "lowrank", "--n", "8", "--r", "4"),
            kernel="batched8",
            params={"n": 8, "contraction": True},
        ),
        Workload(
            name="analyze-heuristic32",
            kind="analyze",
            why="lowrank n=32 r=6: the local-search truncation heuristic makes ~18k single "
                "SVDs via spectral_norm; exhaustive enumeration is bypassed",
            generate=("--kind", "lowrank", "--n", "32", "--r", "6"),
            kernel="svd32",
            params={"n": 32, "contraction": False},
        ),
    )
}

# Shrunken variants with the same code paths, for the harness self-test.
TINY = {
    "compare-random16": dict(generate=("--kind", "random", "--n", "6", "--m", "6"),
                             params={"n": 6, "trials": 6, "sweeps": 20, "target": "0",
                                     "per_trial": True}),
    "compare-fan64": dict(generate=("--kind", "fan", "--m", "4"),
                          params={"n": 8, "trials": 6, "sweeps": 11, "target": None,
                                  "per_trial": False}),
    "analyze-exhaustive8": dict(generate=("--kind", "lowrank", "--n", "5", "--r", "3"),
                                params={"n": 5, "contraction": True}),
    "analyze-heuristic32": dict(generate=("--kind", "lowrank", "--n", "10", "--r", "3"),
                                params={"n": 10, "contraction": False, "restarts": 2,
                                        "trials": 50}),
}


def tiny(workload: Workload) -> Workload:
    return replace(workload, tiny=True, **TINY[workload.name])


def generate_argv(workload: Workload, seed: int, out_dir: str) -> list[str]:
    return ["generate", *workload.generate, "--seed", str(seed), "--out-dir", out_dir]


def command_argv(workload: Workload, seed: int, inputs: str, outputs: str) -> list[str]:
    """The ``sorlab`` command line of the workload's main command."""
    p = workload.params
    if workload.kind == "compare":
        argv = ["compare",
                "--matrix", os.path.join(inputs, "B.mtx"),
                "--rhs", os.path.join(inputs, "b.mtx"),
                "--ybar", os.path.join(inputs, "ybar.mtx"),
                "--strategies", STRATEGIES,
                "--trials", str(p["trials"]), "--sweeps", str(p["sweeps"]),
                "--seed", str(seed),
                "--out-csv", os.path.join(outputs, "cmp.csv"),
                "--out-svg", os.path.join(outputs, "cmp.svg")]
        if p["target"] is not None:
            argv += ["--target-error-sq", p["target"]]
        if p["per_trial"]:
            argv.append("--per-trial")
        return argv
    argv = ["analyze", "--matrix", os.path.join(inputs, "B.mtx"), "--seed", str(seed)]
    if "restarts" in p:
        argv += ["--restarts", str(p["restarts"]), "--trials", str(p["trials"])]
    return argv


def output_files(workload: Workload) -> tuple[str, ...]:
    return ("cmp.csv", "cmp.svg") if workload.kind == "compare" else ()


def _fmt(v) -> str:
    return repr(float(v))


def run_sequence(workload: Workload, seed: int, inputs: str, outputs: str) -> str:
    """Run the workload's command sequence once; return its captured stdout.

    Raises RuntimeError when a command exits non-zero. sorlab names are
    looked up at call time so that the traced run sees its wrappers.
    """
    from sorlab import analysis, cli, linalg, mmio

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command_argv(workload, seed, inputs, outputs))
        if code != 0:
            raise RuntimeError(f"sorlab {workload.kind} exited with {code}")
        if workload.params.get("contraction"):
            B, _ = mmio.read_matrix(os.path.join(inputs, "B.mtx"))
            B = linalg.hermitian(B)
            for omega in CONTRACTION_OMEGAS:
                print(f"expected_contraction[{omega}]: "
                      f"{_fmt(analysis.expected_contraction(B, omega))}")
    return buf.getvalue()


def summary_values(text: str) -> dict[str, str]:
    """The ``key: value`` summary lines of a sequence's stdout.

    Stops at the per-sweep table of ``compare`` and leaves out file paths.
    """
    values = {}
    for line in text.splitlines():
        if line.startswith("mean_error_sq per sweep"):
            break
        key, sep, value = line.partition(": ")
        if sep and key not in ("csv", "svg"):
            values[key] = value
    return values


def fan_cyclic_rate(n: int) -> float:
    """Per-sweep squared-error ratio of the cyclic sweep on the fan of n rows."""
    return math.cos(math.pi / n) ** (2 * n)
