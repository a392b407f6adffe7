"""Output checks of the sorlab benchmark.

The checks do not trust the code under test: inputs are re-read with
``scipy.io.mmread``, CSV histories with the ``csv`` module, and spectra,
rate bounds, truncation ratios and the n! reordering average are recomputed
here with plain numpy. Each check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os

import numpy as np
import scipy.io

from workloads import CONTRACTION_OMEGAS, Workload, fan_cyclic_rate, summary_values

RANK_TOL = 1e-10          # relative eigenvalue cutoff, as in the paper's kappa_bar
REF_RTOL = 1e-8           # summary values against the seed commit
REF_ATOL = 1e-10          # ... times max(1, ||B||^2)
FLOOR = 1e-12             # errors below FLOOR * e0 are rounding noise


def read_inputs(inputs: str) -> dict:
    out = {"B": np.asarray(scipy.io.mmread(os.path.join(inputs, "B.mtx")))}
    for name in ("b", "ybar"):
        path = os.path.join(inputs, f"{name}.mtx")
        if os.path.exists(path):
            out[name] = np.asarray(scipy.io.mmread(path))[:, 0]
    return out


def parse_csv(data: bytes) -> dict[str, list[list[float]]]:
    """{strategy: [error_sq by sweep, one list per trial]} from a history CSV."""
    reader = csv.reader(io.StringIO(data.decode("ascii")))
    if next(reader) != ["strategy", "trial", "sweep", "error_sq", "residual"]:
        raise ValueError("unexpected CSV header")
    curves: dict[str, dict[int, list[float]]] = {}
    for strategy, trial, sweep, err, _ in reader:
        curve = curves.setdefault(strategy, {}).setdefault(int(trial), [])
        if int(sweep) != len(curve):
            raise ValueError("CSV sweeps not contiguous")
        curve.append(float(err))
    return {s: list(t.values()) for s, t in curves.items()}


def padded(curves: list[list[float]]) -> np.ndarray:
    """Trials x sweeps array; a trial that stopped early keeps its last value."""
    length = max(len(c) for c in curves)
    return np.array([c + [c[-1]] * (length - len(c)) for c in curves])


def updates_from_csv(curves: dict[str, list[list[float]]], n: int) -> int:
    """Coordinate updates: sum over trials of (sweeps run x n)."""
    return sum((len(c) - 1) * n for trials in curves.values() for c in trials)


def rate_shuffled(B: np.ndarray, omega: float) -> float:
    """1 - w (2-w) lambda1 / ((1 + w lambda1)^2 kappa_bar) for PSD B."""
    w = np.linalg.eigvalsh(B)[::-1]
    lam = float(w[0])
    kap = lam / float(w[int(np.sum(w > RANK_TOL * lam)) - 1])
    return 1.0 - omega * (2.0 - omega) * lam / ((1.0 + omega * lam) ** 2 * kap)


def lower_ratio(B: np.ndarray, sigma) -> float:
    """||tril(B[sigma, sigma], -1)|| / ||B||."""
    sigma = np.asarray(sigma)
    L = np.tril(B[np.ix_(sigma, sigma)], -1)
    return float(np.linalg.norm(L, 2) / np.linalg.norm(B, 2))


def lower_gram_average(B: np.ndarray) -> np.ndarray:
    """Average of P* L_s L_s* P over all n! orderings, by enumeration."""
    n = B.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    acc = np.zeros_like(B)
    for chunk in np.array_split(perms, max(1, len(perms) // 5040)):
        L = np.tril(B[chunk[:, :, None], chunk[:, None, :]], -1)
        T = L @ L.transpose(0, 2, 1)
        inv = np.argsort(chunk, axis=1)
        T = np.take_along_axis(T, inv[:, :, None], axis=1)
        acc += np.take_along_axis(T, inv[:, None, :], axis=2).sum(axis=0)
    return acc / len(perms)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def _float(values: dict, key: str, failures: list) -> float:
    try:
        return float(values[key])
    except (KeyError, ValueError):
        failures.append(f"summary value {key!r} missing or not a number")
        return math.nan


# ---------------------------------------------------------------- compare

def check_compare(workload: Workload, inputs: dict, text: str, files: dict) -> list[str]:
    failures: list[str] = []
    B = inputs["B"]
    n = workload.n
    values = summary_values(text)
    try:
        curves = parse_csv(files["cmp.csv"])
    except (KeyError, ValueError) as exc:
        return [f"history CSV unreadable: {exc}"]
    if not files.get("cmp.svg", b"").startswith(b"<svg"):
        failures.append("SVG output missing or malformed")
    if B.shape != (n, n):
        failures.append(f"B has shape {B.shape}, expected {(n, n)}")
        return failures
    trials = workload.params["trials"]
    if sorted(curves) != sorted(["cyclic", "shuffled", "preshuffled", "single_step_random"]):
        failures.append(f"CSV strategies {sorted(curves)}")
        return failures

    # start error <B e, e> with the CLI's documented default start vector
    ybar = inputs["ybar"]
    y0 = np.zeros(n)
    if not inputs["b"].any() and not ybar.any():
        y0[1] = 1.0
    e = ybar - y0
    e0 = float(e @ B @ e)
    sweeps = workload.params["sweeps"]
    target = float(workload.params["target"] or 1e-24)
    for kind, trial_curves in curves.items():
        if len(trial_curves) != trials:
            failures.append(f"{kind}: {len(trial_curves)} trials, expected {trials}")
        for t, c in enumerate(trial_curves):
            if not _close(c[0], e0, 1e-12, 1e-300):
                failures.append(f"{kind} trial {t}: start error {c[0]!r} != {e0!r}")
                break
            ran = len(c) - 1
            if (ran > sweeps or any(v <= target for v in c[1:-1])
                    or (ran < sweeps and c[-1] > target)):
                failures.append(f"{kind} trial {t}: ran {ran} sweeps against the stop rule")
                break
        mean = padded(trial_curves).mean(axis=0)
        final = _float(values, f"final_mean_error_sq[{kind}]", failures)
        if not _close(final, mean[-1], 1e-12, 1e-300):
            failures.append(f"final_mean_error_sq[{kind}] = {final!r}, CSV mean {mean[-1]!r}")

    rho = rate_shuffled(B, 1.0)
    printed = _float(values, "rate_shuffled", failures)
    if not _close(printed, rho, 1e-9):
        failures.append(f"rate_shuffled printed {printed!r}, recomputed {rho!r}")

    if workload.generate[1] == "fan":
        want = fan_cyclic_rate(n)
        c = curves["cyclic"][0]
        got = (c[-1] / c[-11]) ** 0.1
        if not _close(got, want, 1e-9):
            failures.append(f"fan cyclic rate {got!r} != cos(pi/{n})^{2 * n} = {want!r}")
        printed = _float(values, "empirical_rate[cyclic]", failures)
        if not _close(printed, want, 1e-9):
            failures.append(f"empirical_rate[cyclic] printed {printed!r}, expected {want!r}")
    else:
        # criterion 06: shuffled mean under rho^k e0, widened by 3 standard errors
        curves_s = padded(curves["shuffled"])
        mean = curves_s.mean(axis=0)
        se = curves_s.std(axis=0) / math.sqrt(len(curves_s))
        for k in range(len(mean)):
            if mean[k] == 0.0:
                continue
            envelope = rho ** k * mean[0] * (1.0 + 3.0 * se[k] / mean[k])
            if mean[k] > envelope:
                failures.append(f"shuffled mean {mean[k]!r} above envelope {envelope!r} at sweep {k}")
                break
    return failures


# ---------------------------------------------------------------- analyze

def check_analyze(workload: Workload, inputs: dict, text: str, extra: dict) -> list[str]:
    """``extra`` holds ``closed`` and ``bruteforce`` (n <= 8), computed after timing."""
    failures: list[str] = []
    B = inputs["B"]
    n = workload.n
    values = summary_values(text)
    if B.shape != (n, n) or _float(values, "n", failures) != n:
        failures.append(f"B has shape {B.shape}, expected {(n, n)}")
        return failures
    norm_b = float(np.linalg.norm(B, 2))
    rmin = _float(values, "truncation_ratio_min", failures)
    rid = _float(values, "truncation_ratio_identity", failures)
    try:
        sigma = [int(t) - 1 for t in values["truncation_argmin_sigma"].split(",")]
    except (KeyError, ValueError):
        failures.append("truncation_argmin_sigma missing or malformed")
        sigma = None
    if sigma is not None:
        if sorted(sigma) != list(range(n)):
            failures.append("truncation_argmin_sigma is not a permutation")
        elif not _close(lower_ratio(B, sigma), rmin, 0.0, 1e-12):
            failures.append(f"ratio of argmin sigma {lower_ratio(B, sigma)!r} != min {rmin!r}")
    if not _close(lower_ratio(B, np.arange(n)), rid, 0.0, 1e-12):
        failures.append(f"identity ratio printed {rid!r}, recomputed {lower_ratio(B, np.arange(n))!r}")
    half_log = 0.5 * math.floor(math.log2(2 * n))
    if not rmin <= rid <= half_log:
        failures.append(f"need min {rmin!r} <= identity {rid!r} <= {half_log}")
    if values.get("bound_general_ok") != "true":
        failures.append(f"bound_general_ok: {values.get('bound_general_ok')}")

    if workload.params["contraction"]:
        tol = 1e-12 * norm_b ** 2
        oracle = lower_gram_average(B)
        for name in ("closed", "bruteforce"):
            dev = float(np.max(np.abs(extra[name] - oracle)))
            if dev > tol:
                failures.append(f"expected_lower_gram_{name} off the n! average by {dev:.3e}")
        if float(np.linalg.norm(oracle, 2)) > 4.0 * norm_b ** 2:
            failures.append("||average of L L*|| exceeds 4 ||B||^2")
        for omega in CONTRACTION_OMEGAS:
            got = _float(values, f"expected_contraction[{omega}]", failures)
            rho = rate_shuffled(B, omega)
            if not 0.0 < got <= rho:
                failures.append(f"expected_contraction[{omega}] = {got!r} not in (0, {rho!r}]")
    return failures


# ---------------------------------------------------------------- seed commit

def _error_keys(values: dict) -> dict[str, str]:
    """Strategy -> key of its final mean error, for compare summaries."""
    return {k[len("final_mean_error_sq["):-1]: k for k in values
            if k.startswith("final_mean_error_sq[")}


def check_reference(inputs: dict, text: str, reference: dict) -> list[str]:
    """Summary values within tolerance of the seed commit's values.

    Numbers agree to REF_RTOL relative plus REF_ATOL * max(1, ||B||^2).
    Mean errors that sit below FLOOR times the start error are rounding
    noise: there the tolerance is FLOOR * e0, and the empirical rate of that
    strategy is not compared. The argmin ordering is not compared either,
    because reversed orders tie exactly; check_analyze verifies its ratio.
    """
    failures = []
    values = summary_values(text)
    scale = max(1.0, float(np.linalg.norm(inputs["B"], 2)) ** 2)
    e0 = None
    first_row = text.split("mean_error_sq per sweep:\n", 1)
    if len(first_row) == 2:
        e0 = max(float(v) for v in first_row[1].splitlines()[1].split(",")[1:])
    noisy = set()
    for kind, key in _error_keys(reference).items():
        if e0 is not None and float(reference[key]) <= FLOOR * e0:
            noisy.add(kind)
    for key, want in reference.items():
        if key == "truncation_argmin_sigma":
            continue
        got = values.get(key)
        if got is None:
            failures.append(f"summary value {key!r} missing")
            continue
        try:
            g, w = float(got), float(want)
        except ValueError:
            if got != want:
                failures.append(f"{key}: {got!r} != seed commit {want!r}")
            continue
        strategy = key[key.find("[") + 1:-1] if "[" in key else None
        if strategy in noisy:
            if key.startswith("empirical_rate["):
                continue
            ok = abs(g - w) <= FLOOR * e0
        else:
            ok = _close(g, w, REF_RTOL, REF_ATOL * scale)
        if not ok:
            failures.append(f"{key}: {got} differs from seed commit {want}")
    return failures
