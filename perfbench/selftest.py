#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

Runs every workload shrunken (same code paths, small n and few trials) and
checks that the output checks pass on real outputs and fail on perturbed
ones, that the traced run emits every per-layer metric, and that the
benchmark refuses to run without the sorlab sources.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run  # sets the BLAS thread cap before numpy loads

run._check_sources()

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate_argv, run_sequence, tiny  # noqa: E402

TINY = {name: tiny(w) for name, w in WORKLOADS.items()}
SEED = 3


def _scratch() -> Path:
    run.OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))


class Outputs:
    """Inputs and one pass's outputs of a tiny workload."""

    def __init__(self, name):
        from sorlab import analysis, cli, linalg, mmio
        self.workload = TINY[name]
        self.dir = _scratch()
        inputs, outputs = self.dir / "in", self.dir / "out"
        outputs.mkdir()
        with open(self.dir / "generate.log", "w") as log, contextlib.redirect_stdout(log):
            assert cli.main(generate_argv(self.workload, SEED, str(inputs))) == 0
        self.text = run_sequence(self.workload, SEED, str(inputs), str(outputs))
        self.files = {p.name: p.read_bytes() for p in outputs.iterdir()}
        self.inputs = checks.read_inputs(str(inputs))
        B = linalg.hermitian(mmio.read_matrix(str(inputs / "B.mtx"))[0])
        self.extra = {"closed": analysis.expected_lower_gram_closed(B),
                      "bruteforce": analysis.expected_lower_gram_bruteforce(B)} \
            if self.workload.params.get("contraction") else {}

    def check(self, text=None, files=None, extra=None):
        text = self.text if text is None else text
        if self.workload.kind == "compare":
            return checks.check_compare(self.workload, self.inputs, text,
                                        self.files if files is None else files)
        return checks.check_analyze(self.workload, self.inputs, text,
                                    self.extra if extra is None else extra)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _edit_csv(data: bytes, strategy: str, sweep: int, factor: float) -> bytes:
    """Scale error_sq of trial 0 of `strategy` at `sweep` by `factor`."""
    lines = data.decode().splitlines()
    for i, line in enumerate(lines):
        parts = line.split(",")
        if parts[:3] == [strategy, "0", str(sweep)]:
            parts[3] = repr(float(parts[3]) * factor)
            lines[i] = ",".join(parts)
            break
    else:
        raise AssertionError(f"no row {strategy},0,{sweep}")
    return ("\n".join(lines) + "\n").encode()


def _edit_value(text: str, key: str, value: str) -> str:
    lines = [f"{key}: {value}" if line.startswith(f"{key}: ") else line
             for line in text.splitlines()]
    assert lines != text.splitlines(), key
    return "\n".join(lines) + "\n"


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = {name: Outputs(name) for name in TINY}

    @classmethod
    def tearDownClass(cls):
        for o in cls.out.values():
            o.close()

    def test_real_outputs_pass(self):
        for name, o in self.out.items():
            self.assertEqual(o.check(), [], name)

    def test_edited_shuffled_value_fails(self):
        o = self.out["compare-random16"]
        sweeps = o.workload.params["sweeps"]
        files = dict(o.files, **{"cmp.csv": _edit_csv(o.files["cmp.csv"], "shuffled",
                                                      sweeps, 1e6)})
        self.assertTrue(o.check(files=files))

    def test_wrong_fan_rate_fails(self):
        o = self.out["compare-fan64"]
        sweeps = o.workload.params["sweeps"]
        files = dict(o.files, **{"cmp.csv": _edit_csv(o.files["cmp.csv"], "cyclic",
                                                      sweeps, 1.0 + 1e-6)})
        self.assertTrue(o.check(files=files))
        self.assertTrue(o.check(text=_edit_value(o.text, "empirical_rate[cyclic]", "0.5")))

    def test_wrong_rate_bound_fails(self):
        o = self.out["compare-random16"]
        self.assertTrue(o.check(text=_edit_value(o.text, "rate_shuffled", "0.999")))

    def test_exhaustive_checks_fail_on_perturbed_outputs(self):
        o = self.out["analyze-exhaustive8"]
        self.assertTrue(o.check(text=_edit_value(o.text, "bound_general_ok", "false")))
        self.assertTrue(o.check(text=_edit_value(o.text, "expected_contraction[1.0]", "1.0")))
        closed = o.extra["closed"].copy()
        closed[0, 1] += 1e-9
        self.assertTrue(o.check(extra=dict(o.extra, closed=closed)))
        ratio = float(checks.summary_values(o.text)["truncation_ratio_min"])
        self.assertTrue(o.check(text=_edit_value(o.text, "truncation_ratio_min",
                                                 repr(ratio * (1 + 1e-9)))))

    def test_heuristic_checks_fail_on_perturbed_outputs(self):
        o = self.out["analyze-heuristic32"]
        values = checks.summary_values(o.text)
        ratio = float(values["truncation_ratio_min"])
        self.assertTrue(o.check(text=_edit_value(o.text, "truncation_ratio_min",
                                                 repr(ratio * (1 + 1e-9)))))
        self.assertTrue(o.check(text=_edit_value(o.text, "truncation_ratio_identity",
                                                 repr(ratio / 2))))

    def test_reference_check(self):
        for name, o in self.out.items():
            reference = checks.summary_values(o.text)
            self.assertEqual(checks.check_reference(o.inputs, o.text, reference), [], name)
            key = "lambda1" if o.workload.kind == "compare" else "truncation_ratio_mean"
            edited = _edit_value(o.text, key, repr(float(reference[key]) * (1 + 1e-6)))
            self.assertTrue(checks.check_reference(o.inputs, edited, reference), name)

    def test_csv_updates(self):
        o = self.out["compare-random16"]
        curves = checks.parse_csv(o.files["cmp.csv"])
        p = o.workload.params
        self.assertEqual(checks.updates_from_csv(curves, o.workload.n),
                         4 * p["trials"] * p["sweeps"] * o.workload.n)


class RunTest(unittest.TestCase):
    def _run(self, name, trace):
        work = _scratch()
        try:
            return run.run(TINY[name], SEED, 0.05, trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_untraced_run_reports_end_to_end_metrics(self):
        rec = self._run("compare-fan64", False)
        res = rec["result"]
        self.assertTrue(res["correct"], rec["failures"] + rec["errors"])
        self.assertEqual(set(res["metrics"]), set(run.END_TO_END))
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], run.MIN_PASSES)

    def test_traced_run_emits_every_layer_metric(self):
        nonzero = {
            "compare-random16": ("solvers.updates", "orderings.sweep_order_calls",
                                 "linalg.energy_calls", "svgplot.svg_bytes", "cli.csv_bytes",
                                 "problems.consistency_check_s", "analysis.rate_bounds_s"),
            "compare-fan64": ("solvers.early_stop_frac", "solvers.update_ns",
                              "solvers.trial_ms_tail", "mmio.read_bytes"),
            "analyze-exhaustive8": ("analysis.exhaustive_s", "analysis.oracle_gram_s",
                                    "analysis.contraction_s", "analysis.perms_evaluated",
                                    "analysis.lower_gram_bounds_s", "problems.generate_s",
                                    "mmio.write_s"),
            "analyze-heuristic32": ("analysis.heuristic_s", "analysis.mc_truncation_s",
                                    "linalg.spectral_norm_calls", "linalg.eigen_hermitian_s",
                                    "orderings.derive_seed_s"),
        }
        counts = {}
        for name in TINY:
            rec = self._run(name, True)
            metrics = rec["result"]["metrics"]
            self.assertTrue(rec["result"]["correct"], rec["failures"] + rec["errors"])
            self.assertEqual(list(metrics), list(tracer.LAYER_METRICS), name)
            for key in nonzero[name]:
                self.assertGreater(metrics[key]["value"], 0, f"{name} {key}")
            counts[name] = metrics
        self.assertEqual(counts["analyze-exhaustive8"]["analysis.perms_evaluated"]["value"],
                         5 * 120)  # n = 5: exhaustive, bruteforce oracle, 3 contractions
        self.assertEqual(counts["analyze-exhaustive8"]["solvers.trials"]["value"], 0)
        p = TINY["compare-random16"].params
        self.assertEqual(counts["compare-random16"]["solvers.updates"]["value"],
                         4 * p["trials"] * p["sweeps"] * TINY["compare-random16"].n)

    def test_benchmark_json_matches_harness(self):
        b = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in b["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual({m["name"]: m["unit"] for m in b["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in b["per_layer"]],
                         [(k, u, better) for k, (u, better) in tracer.LAYER_METRICS.items()])

    def test_layer_metrics_of_nested_spans(self):
        # outer solver span 0..10 with an energy child 2..5: self time 7
        spans = [["solvers.run_solver", 0.0, 10.0, -1, (4, 5, 3)],
                 ["linalg.energy_seminorm_sq", 2.0, 5.0, 0, None],
                 ["mmio.read_vector", 20.0, 24.0, -1, None],
                 ["mmio.read_matrix", 21.0, 23.0, 2, 100]]
        m = tracer.layer_metrics(spans)
        self.assertEqual(m["solvers.self_s"], 7.0)
        self.assertEqual(m["solvers.updates"], 12.0)
        self.assertEqual(m["solvers.early_stop_frac"], 1.0)
        self.assertEqual(m["linalg.energy_s"], 3.0)
        self.assertEqual(m["mmio.read_s"], 4.0)
        self.assertEqual(m["mmio.read_bytes"], 100.0)

    def test_tracer_restores_every_binding(self):
        import sorlab
        from sorlab import cli, solvers
        before = (solvers.run_solver, cli.run_solver, sorlab.run_solver)
        with tracer.Tracer():
            self.assertIsNot(cli.run_solver, before[1])
            self.assertIs(cli.run_solver, solvers.run_solver)
            self.assertIs(sorlab.run_solver, solvers.run_solver)
        self.assertEqual((solvers.run_solver, cli.run_solver, sorlab.run_solver), before)

    def test_refuses_without_sources(self):
        bare = _scratch()
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                                   "compare-fan64", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
