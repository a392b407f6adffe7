"""Commands that never run the block kernel run without SciPy, and only
``analyze`` loads ``concurrent.futures``.

The block kernel runs cyclic, fixed and ``--sigma`` trials; randomized
trials (shuffled, single-step random, preshuffled without ``--sigma``) run
in the stack kernel at every trial count, so ``solve`` and an all-randomized
``compare`` run without SciPy too. Each case runs the CLI in a fresh
interpreter; with blocking on, a ``sys.meta_path`` finder refuses every
import of scipy or a submodule, so a command that reaches SciPy fails. Stdout and written files must equal those
of the same command run in-process. ``analyze`` runs a worker thread on both
of its paths (on the Monte Carlo batches beside the heuristic for n > 8, on
the n! search's batches beside the n! oracle for n <= 8) and imports the
thread pool there alone, so start-up (and every benchmark's ``generate``)
does not pay for it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sorlab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: block (0/1), then the CLI arguments (none: only import sorlab.cli).
# The last stderr line lists the scipy modules loaded after the import and
# at exit, and whether concurrent.futures was loaded at exit.
_RUNNER = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

block, *argv = sys.argv[1:]
if block == "1":
    sys.meta_path.insert(0, NoScipy())
from sorlab.cli import main
at_import = scipy_modules()
code = main(argv) if argv else 0
sys.stdout.flush()
sys.stderr.write(json.dumps({"at_import": at_import, "at_exit": scipy_modules(),
                            "futures": "concurrent.futures" in sys.modules}) + "\\n")
sys.exit(code)
"""


def _fresh(argv, block):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUNNER, "1" if block else "0",
                           *map(str, argv)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def _file_bytes(paths):
    return {p: Path(p).read_bytes() for p in paths}


GENERATE = {
    "fan": ["--kind", "fan", "--m", "4"],                          # n = 8
    "random": ["--kind", "random", "--n", "6", "--m", "4", "--complex"],
    "lowrank": ["--kind", "lowrank", "--n", "10", "--r", "3"],     # n = 10 > 8
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    for kind, args in GENERATE.items():
        _in_process(["generate", *args, "--seed", "3", "--out-dir", d / kind])
    fan = d / "fan"
    _in_process(["compare", "--matrix", fan / "B.mtx", "--rhs", fan / "b.mtx",
                 "--ybar", fan / "ybar.mtx", "--strategies", "cyclic,shuffled",
                 "--trials", "2", "--sweeps", "6", "--seed", "1", "--out-csv", d / "h.csv"])
    return d


def _cases(d):
    def system(kind):
        return ["--matrix", d / kind / "B.mtx", "--rhs", d / kind / "b.mtx",
                "--ybar", d / kind / "ybar.mtx"]

    cases = {f"generate-{kind}": (["generate", *args, "--seed", "3", "--out-dir", d / kind],
                                  [d / kind / f for f in ("B.mtx", "b.mtx", "ybar.mtx",
                                                          "meta.txt")])
             for kind, args in GENERATE.items()}
    cases.update({
        "analyze-exhaustive": (["analyze", "--matrix", d / "fan" / "B.mtx"], []),
        "analyze-heuristic": (["analyze", "--matrix", d / "lowrank" / "B.mtx", "--restarts", "2",
                               "--trials", "50", "--seed", "4"], []),
        "bounds": (["bounds", "--matrix", d / "random" / "B.mtx", "--omega", "1.2",
                    "--c0", "0.5"], []),
        "plot": (["plot", "--csv", d / "h.csv", "--out", d / "h.svg", "--per-trial",
                  "--title", "t"], [d / "h.svg"]),
        # randomized trials run as one stack, without LAPACK
        "compare-randomized": (["compare", *system("random"), "--strategies",
                                "shuffled,singlestep", "--trials", "3", "--sweeps", "6",
                                "--seed", "2", "--out-csv", d / "cs.csv", "--out-svg",
                                d / "cs.svg"],
                               [d / "cs.csv", d / "cs.svg"]),
    })
    cases.update({f"solve-{strategy}": (["solve", *system("fan"), "--strategy", strategy,
                                         "--sweeps", "5", "--seed", "2", "--out",
                                         d / f"s-{strategy}.csv"], [d / f"s-{strategy}.csv"])
                  for strategy in ("shuffled", "singlestep", "preshuffled")})
    return cases


def test_import_sorlab_loads_no_scipy():
    stdout, loaded = _fresh([], block=True)
    assert stdout == "" and loaded == {"at_import": [], "at_exit": [], "futures": False}


@pytest.mark.parametrize("case", ["generate-fan", "generate-random", "generate-lowrank",
                                  "analyze-exhaustive", "analyze-heuristic", "bounds", "plot",
                                  "compare-randomized", "solve-shuffled", "solve-singlestep",
                                  "solve-preshuffled"])
def test_command_runs_with_scipy_blocked(work, case):
    argv, files = _cases(work)[case]
    expected = _in_process(argv)
    written = _file_bytes(files)
    stdout, loaded = _fresh(argv, block=True)
    assert stdout == expected
    # both analyze paths run a worker thread; no other command loads the pool
    assert loaded == {"at_import": [], "at_exit": [],
                      "futures": case.startswith("analyze-")}
    assert _file_bytes(files) == written


def test_solve_loads_lapack_at_its_first_sweep(work):
    # a cyclic trial runs in the block kernel
    fan = work / "fan"
    argv = ["solve", "--matrix", fan / "B.mtx", "--rhs", fan / "b.mtx", "--ybar",
            fan / "ybar.mtx", "--strategy", "cyclic", "--sweeps", "5", "--out",
            work / "s.csv"]
    expected = _in_process(argv)
    stdout, scipy = _fresh(argv, block=False)
    assert stdout == expected
    assert scipy["at_import"] == []
    assert "scipy.linalg.lapack" in scipy["at_exit"]
