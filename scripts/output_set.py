#!/usr/bin/env python3
"""Run one fixed set of sorlab commands and keep every output they make.

    python scripts/output_set.py OUT_DIR
    python scripts/output_set.py OUT_DIR --against REV

Each command of COMMANDS runs as ``python -m sorlab.cli``, or as this
checkout's TABLES script, in a fresh interpreter, in OUT_DIR, with this
checkout's src/ first on PYTHONPATH. OUT_DIR then holds every file the
commands write, each command's stdout as ``<name>.out`` and the exit codes
in ``exit_codes.txt``. On one machine and one numpy, SciPy and OpenBLAS
build, two runs give identical bytes (``diff -r``).

The set: ``generate`` of seven inputs (fan m = 2, 16 and 40, random
n = 16, complex random n = 12, lowrank n = 8, r = 4 and n = 32, r = 6); on
the first five, ``solve`` with every strategy and with ``fixed --sigma``,
``compare`` of all four strategies at --trials 1, 3, 32 and 50 with a per-trial SVG,
``compare`` of fixed and preshuffled with --sigma and ``plot --per-trial``;
on fan m = 16 and complex n = 12 also ``compare`` of a reordered subset of
the strategies (SUBSET, --trials 5), which shows a seed keyed by a
strategy's place in the list instead of its kind, and of preshuffled alone
(--trials 5, no --sigma), a stack whose every trial reuses its order;
``bounds`` of all seven and ``analyze`` of all but fan m = 40 (the lowrank
inputs take both analyze paths, exhaustive at n = 8 and heuristic at
n = 32). Fan m = 40 (n = 80) is the one solved system above SWEEP_BLOCK =
64 coordinates, so its sweeps run more than one block of the block pass
and of its reused plan; its ``analyze`` would only repeat the heuristic
path of lowrank n = 32, at several times the cost. Last, the tables of
TABLES: ``fan-rate`` at its defaults, and ``truncation`` at n = 4 and 10
(--restarts 2, --trials 100), one size on each of its paths, exhaustive and
heuristic.

With ``--against REV`` the set runs a second time on the tree of git
revision REV, exported (``git archive``) into a temporary directory that is
removed afterwards, also on failure; the commands run its sorlab and its
TABLES script. The report counts the identical files and, for each file that
differs, gives the largest relative difference of each CSV column, each
summary key and each column of a table, with where it occurs, the trials
whose length changed and the table rows found in one set only.
Exit status: 0 when every file is identical, 1 when some differ.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INPUTS = {  # name: generate options
    "fan2": ["--kind", "fan", "--m", "2"],
    "fan16": ["--kind", "fan", "--m", "16"],
    "fan40": ["--kind", "fan", "--m", "40"],
    "random16": ["--kind", "random", "--n", "16", "--m", "16", "--seed", "1"],
    "complex12": ["--kind", "random", "--n", "12", "--m", "12", "--complex", "--seed", "2"],
    "lowrank8": ["--kind", "lowrank", "--n", "8", "--r", "4", "--seed", "1"],
    "lowrank32": ["--kind", "lowrank", "--n", "32", "--r", "6", "--seed", "1"],
}
SYSTEMS = {"fan2": 4, "fan16": 32, "fan40": 80, "random16": 16, "complex12": 12}  # solved: n
STRATEGIES = ("cyclic", "shuffled", "preshuffled", "single_step_random")
SUBSET = ("single_step_random", "preshuffled", "shuffled")  # compared on fan16 and complex12
TABLES = "scripts/paper_tables.py"  # a command whose argv starts with it runs this script


def _commands():
    """[(name, argv)] of the set, in run order."""
    commands = [(f"generate-{name}", ["generate", *options, "--out-dir", name])
                for name, options in INPUTS.items()]
    for name, n in SYSTEMS.items():
        run = ["--matrix", f"{name}/B.mtx", "--rhs", f"{name}/b.mtx", "--ybar", f"{name}/ybar.mtx",
               "--sweeps", "40", "--seed", "3"]
        sigma = ["--sigma", ",".join(str(i) for i in range(n, 0, -1))]
        for kind in STRATEGIES:
            commands.append((f"solve-{name}-{kind}",
                             ["solve", *run, "--strategy", kind, "--out", f"{name}/{kind}.csv"]))
        commands.append((f"solve-{name}-fixed", ["solve", *run, "--strategy", "fixed", *sigma,
                                                 "--out", f"{name}/fixed.csv"]))
        for trials in (1, 3, 32, 50):
            commands.append((f"compare-{name}-t{trials}", [
                "compare", *run, "--strategies", ",".join(STRATEGIES), "--trials", str(trials),
                "--out-csv", f"{name}/compare-t{trials}.csv",
                "--out-svg", f"{name}/compare-t{trials}.svg", "--per-trial"]))
        commands.append((f"compare-{name}-sigma", [
            "compare", *run, "--strategies", "fixed,preshuffled", *sigma, "--trials", "3",
            "--out-csv", f"{name}/compare-sigma.csv"]))
        if name in ("fan16", "complex12"):
            commands.append((f"compare-{name}-subset", [
                "compare", *run, "--strategies", ",".join(SUBSET), "--trials", "5",
                "--out-csv", f"{name}/compare-subset.csv"]))
            commands.append((f"compare-{name}-preshuffled", [
                "compare", *run, "--strategies", "preshuffled", "--trials", "5",
                "--out-csv", f"{name}/compare-preshuffled.csv"]))
        commands.append((f"plot-{name}", ["plot", "--csv", f"{name}/compare-t32.csv", "--per-trial",
                                          "--title", name, "--out", f"{name}/plot-t32.svg"]))
    for name in INPUTS:
        if name != "fan40":
            commands.append((f"analyze-{name}",
                             ["analyze", "--matrix", f"{name}/B.mtx", "--seed", "3"]))
        commands.append((f"bounds-{name}", ["bounds", "--matrix", f"{name}/B.mtx", "--omega", "1.2",
                                            "--c0", "2"]))
    commands.append(("table-fan-rate", [TABLES, "fan-rate"]))
    commands.append(("table-truncation", [TABLES, "truncation", "--sizes", "4", "10",
                                          "--restarts", "2", "--trials", "100"]))
    return commands


COMMANDS = _commands()


def run_set(out_dir, commands=COMMANDS, tree=ROOT):
    """Run each (name, argv) of commands in out_dir with the sorlab and the
    TABLES of the checkout tree; write its stdout to <name>.out and the exit
    codes to exit_codes.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = [str(tree / "src")]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    codes = []
    for name, argv in commands:
        head = [str(tree / TABLES)] if argv[0] == TABLES else ["-m", "sorlab.cli", argv[0]]
        proc = subprocess.run([sys.executable, *head, *argv[1:]], cwd=out_dir, env=env,
                              capture_output=True)
        (out_dir / f"{name}.out").write_bytes(proc.stdout)
        codes.append(f"{name} {proc.returncode}\n")
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.decode().strip()}",
                  file=sys.stderr)
    (out_dir / "exit_codes.txt").write_text("".join(codes))


def _csv_values(text):
    """{(column, where): value} of a history CSV, and Counter of the rows of each trial."""
    lines = text.splitlines()
    header = lines[0].split(",")
    values, rows = {}, Counter()
    for line in lines[1:]:
        strategy, trial, sweep, *cells = line.split(",")
        rows[f"{strategy} trial {trial}"] += 1
        for column, cell in zip(header[3:], cells):
            values[column, f"{strategy} trial {trial} sweep {sweep}"] = cell
    return values, rows


def _summary_values(text):
    """{(key, where): value} of a command's stdout: each ``key: value`` line,
    and each cell of compare's per-sweep table as (column, sweep k)."""
    values, header = {}, None
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            values[key, ""] = value
        elif "," in line and header and line.split(",")[0].isdigit():
            sweep, *cells = line.split(",")
            for column, cell in zip(header, cells):
                values[f"mean_error_sq[{column}]", f"sweep {sweep}"] = cell
        elif "," in line:
            header = line.split(",")[1:]
    return values, Counter()


def _table_values(text):
    """{(column, where): value} of a TABLES table, and Counter of its rows.

    A table is a header line over rows of right-aligned cells, one space
    apart; a cell holds no space, a column name may. Each column ends where
    the cells of the first row end, and a row is keyed by its first cell."""
    lines = text.splitlines()
    if len(lines) < 2:
        return {}, Counter()
    ends = [m.end() for m in re.finditer(r"\S+", lines[1])]
    names = [lines[0][start:end].strip() for start, end in zip([0, *ends], ends)]
    values, rows = {}, Counter()
    for line in lines[1:]:
        first, *cells = line.split()
        where = f"{names[0]} {first}"
        rows[where] += 1
        for name, cell in zip(names[1:], cells):
            values[name, where] = cell
    return values, rows


def _relative_difference(x, y):
    """|x - y| / max(|x|, |y|) of two numbers in text, or None if either is not a number."""
    try:
        x, y = float(x), float(y)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _differences(rel, x, y):
    """Report lines on how the texts x and y of the file rel differ."""
    parse = (_table_values if Path(rel).name.startswith("table-")
             else {".csv": _csv_values, ".out": _summary_values}.get(Path(rel).suffix))
    if parse is None:
        lines = sum(p != q for p, q in zip(x.splitlines(), y.splitlines()))
        return [f"{lines} lines differ of {len(x.splitlines())} and {len(y.splitlines())}"]
    (vx, rx), (vy, ry) = parse(x), parse(y)
    worst = {}  # group: (rank, relative difference or None for text, where)
    for key, value in vx.items():
        if key in vy and vy[key] != value:
            d = _relative_difference(value, vy[key])
            rank = math.inf if d is None else d
            if key[0] not in worst or rank > worst[key[0]][0]:
                worst[key[0]] = (rank, d, key[1])
    out = []
    for group, (_, d, where) in worst.items():
        at = f" at {where}" if where else ""
        out.append(f"{group}: text differs{at}" if d is None
                   else f"{group}: largest relative difference {d:.3g}{at}")
    groups = {group for group, _ in vx} ^ {group for group, _ in vy}
    out += [f"{group}: only in one set" for group in sorted(groups)]
    for row in list(rx) + [r for r in ry if r not in rx]:  # a trial, or a table row
        if not (rx[row] and ry[row]):
            out.append(f"{row}: only in the {'first' if rx[row] else 'second'} set")
        elif rx[row] != ry[row]:
            out.append(f"{row}: {rx[row]} rows -> {ry[row]} rows")
    return out


def compare_sets(a, b):
    """Report lines comparing the output sets in directories a and b: the
    count of identical files, then each file that differs and how."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in Path(root).rglob("*") if p.is_file()}

    fa, fb = files(a), files(b)
    same, report = 0, []
    for rel in sorted(fa | fb):
        if rel not in fa or rel not in fb:
            report.append(f"{rel}: only in the {'first' if rel in fa else 'second'} set")
            continue
        x, y = (Path(root, rel).read_bytes() for root in (a, b))
        if x == y:
            same += 1
            continue
        report.append(f"{rel}: differs")
        report += ["  " + line for line in _differences(rel, x.decode(), y.decode())]
    return [f"{same} of {len(fa | fb)} files identical"] + report


def run_against(out_dir, rev):
    """Run the set in out_dir and on an exported tree of rev; return the report."""
    run_set(out_dir)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        run_set(Path(tmp, "out"), tree=tree)
        return compare_sets(out_dir, Path(tmp, "out"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", help="directory for the outputs (created if missing)")
    parser.add_argument("--against", metavar="REV",
                        help="also run the set on git revision REV and compare")
    args = parser.parse_args(argv)
    if args.against is None:
        run_set(args.out_dir)
        return 0
    try:
        report = run_against(args.out_dir, args.against)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {(exc.stderr or b'').decode().strip()}",
              file=sys.stderr)
        return 2
    print("\n".join(report))
    return 0 if len(report) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
