#!/usr/bin/env bash
# End-to-end checks of the installed `sorlab` console script (the
# [project.scripts] entry point), run without PYTHONPATH in WORK_DIR
# (default: a new temporary directory):
# - solve reproduces trial 0 of a 32-trial compare;
# - plot redraws compare's per-trial SVG from its CSV byte for byte, and
#   draws it under a title with XML markup and a character outside ASCII,
#   passed through argv, as a well-formed SVG;
# - analyze prints the same bytes twice, on the exhaustive path (n = 8)
#   and on the heuristic path (n = 12);
# - both analyze paths run on two threads, which share the batches of
#   orders (of the exhaustive search beside the n! oracle, of the Monte
#   Carlo mean beside the heuristic), and each prints the same bytes again
#   pinned to one CPU (skipped where taskset is missing): the output does
#   not depend on the CPUs available, and one core runs it to the end.
# Usage: scripts/check_console_script.sh [WORK_DIR]
set -euo pipefail
work=${1:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"
unset PYTHONPATH
sorlab generate --kind fan --m 4 --out-dir fan
system="--matrix fan/B.mtx --rhs fan/b.mtx --ybar fan/ybar.mtx"
sorlab solve $system --strategy shuffled --seed 5 --out solve.csv
sorlab compare $system --strategies shuffled --trials 32 --seed 5 --out-csv compare.csv \
  --per-trial --out-svg c.svg
grep '^shuffled,0,' compare.csv | diff - <(tail -n +2 solve.csv)
sorlab plot --csv compare.csv --per-trial --title "omega=1.0 trials=32" --out p.svg
cmp c.svg p.svg
sorlab plot --csv compare.csv --title 'a<b & ω' --out t.svg
python -c "import xml.dom.minidom as m; m.parse('t.svg')"
sorlab analyze --matrix fan/B.mtx > a1.txt
sorlab analyze --matrix fan/B.mtx > a2.txt
cmp a1.txt a2.txt
if command -v taskset > /dev/null; then
  taskset -c 0 sorlab analyze --matrix fan/B.mtx > a3.txt
  cmp a1.txt a3.txt
else
  echo "taskset not found: skipping the one-CPU analyze check"
fi
sorlab generate --kind random --n 12 --m 12 --out-dir random
sorlab analyze --matrix random/B.mtx > h1.txt
sorlab analyze --matrix random/B.mtx > h2.txt
cmp h1.txt h2.txt
if command -v taskset > /dev/null; then
  taskset -c 0 sorlab analyze --matrix random/B.mtx > h3.txt
  cmp h1.txt h3.txt
else
  echo "taskset not found: skipping the one-CPU heuristic analyze check"
fi
echo "console script checks passed in $work"
