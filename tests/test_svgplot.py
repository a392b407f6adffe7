import math
import re

import numpy as np
import pytest

from sorlab import svgplot
from sorlab.svgplot import render_semilog


def test_single_series_single_polyline():
    svg = render_semilog([("cyclic", [1.0, 0.5, 0.25])])
    assert svg.count("<polyline") == 1
    assert "cyclic" in svg
    assert svg.startswith("<svg ")


def test_title_markup_characters_are_escaped():
    from xml.etree import ElementTree
    svg = render_semilog([("cyclic", [1.0, 0.5])], title="L<sub & B>")
    texts = [t.text for t in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "L<sub & B>" in texts


def test_deterministic_output():
    series = [("a", list(0.5 ** np.arange(20))), ("b", list(0.9 ** np.arange(20)))]
    assert render_semilog(series) == render_semilog(series)


def test_geometric_sequence_is_straight_line():
    ys = list(0.5 ** np.arange(30))
    svg = render_semilog([("run", ys)])
    match = re.search(r'points="([^"]+)"', svg)
    pts = [tuple(map(float, p.split(","))) for p in match.group(1).split()]
    dys = np.diff([y for _, y in pts])
    # constant slope up to the 0.01 px coordinate quantization
    assert np.max(np.abs(dys - dys.mean())) <= 0.02


def test_zeros_clip_to_floor():
    svg = render_semilog([("run", [1.0, 1e-4, 0.0, 0.0])])
    assert svg.count("<polyline") == 1  # zeros drawn at the floor, not dropped


def test_ten_y_ticks():
    svg = render_semilog([("run", [1.0, 0.1])])
    assert len(re.findall(r">1e[+-]\d+</text>", svg)) == 10


def test_per_trial_curves_faint():
    svg = render_semilog([("s", [1.0, 0.5])],
                         per_trial={"s": [[1.0, 0.4], [1.0, 0.6]]})
    assert svg.count("<polyline") == 3
    assert svg.count('stroke-opacity="0.25"') == 2


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        render_semilog([])


# ---------------------------------------------------------------- byte references

def _ref_axis(curves):
    """Axis exponents (lo, hi, step) by the per-value formula, on Python floats."""
    pos = [float(v) for ys in curves for v in ys if float(v) > 0]
    lo = math.floor(math.log10(min(pos)))
    hi = max(math.ceil(math.log10(max(pos))), lo + 1)
    step = max(1, math.ceil((hi - lo) / (svgplot.N_YTICKS - 1)))
    return hi - step * (svgplot.N_YTICKS - 1), hi, step


def _ref_points(ys, lo, hi, max_sweep):
    """The points of one polyline, one point at a time as _Canvas.x and .y give them."""
    x0, x1 = svgplot.MARGIN_L, svgplot.WIDTH - svgplot.MARGIN_R
    y0, y1 = svgplot.HEIGHT - svgplot.MARGIN_B, svgplot.MARGIN_T
    pts = []
    for k, v in enumerate(ys):
        e = math.log10(v) if v > 0 else -320
        e = min(max(e, lo), hi)
        x = x0 + (x1 - x0) * k / max(max_sweep, 1)
        pts.append(f"{x:.2f},{y0 + (y1 - y0) * (e - lo) / (hi - lo):.2f}")
    return " ".join(pts)


EXTREMES = [1e300, 1e-300, 0.0, 5e-324, 0.1, 1.0 / 3.0]


@pytest.mark.parametrize("as_array", [False, True], ids=["lists", "arrays"])
@pytest.mark.parametrize("series, per_trial", [
    # 1e300 sits at the ceiling; 5e-324 lies below the zero floor of -320
    ([("a", EXTREMES), ("b", [1.0, 0.5])],
     {"a": [[1e300, 0.0], EXTREMES + [0.0, 0.0]], "b": [[1.0]], "unused": [[1e-310]]}),
    # zeros clip to the floor of a narrow axis; curves of unequal length
    ([("a", [1.0, 1e-3, 0.0]), ("b", [0.25, 0.0, 0.0, 0.0, 1e-5])], None),
    ([("a", [0.0, 0.0])], {"a": [[0.0], [0.0, 0.0, 0.0]]}),
    # the top tick sits at 1e+309, above the largest float
    ([("a", [1.5e308, 1.0])], None),
])
def test_polylines_match_per_point_formulas(series, per_trial, as_array):
    conv = np.array if as_array else list
    series = [(label, conv(ys)) for label, ys in series]
    if per_trial:
        per_trial = {label: [conv(ys) for ys in curves] for label, curves in per_trial.items()}
    svg = render_semilog(series, per_trial=per_trial)
    curves = [ys for _, ys in series] + [ys for cs in (per_trial or {}).values() for ys in cs]
    lo, hi, step = (_ref_axis(curves) if any(v > 0 for ys in curves for v in ys)
                    else (-9, 0, 1))
    max_sweep = max(len(ys) - 1 for _, ys in series)
    drawn = [ys for label, _ in series for ys in (per_trial or {}).get(label, ())]
    drawn += [ys for _, ys in series]
    assert re.findall(r'points="([^"]*)"', svg) == [_ref_points(ys, lo, hi, max_sweep)
                                                   for ys in drawn]
    assert re.findall(r">1e([+-]\d+)</text>", svg) == [f"{lo + t * step:+03d}"
                                                       for t in range(svgplot.N_YTICKS)]


def test_repeated_per_trial_curves_match_per_point_formulas():
    # byte-equal consecutive curves share one polyline; a curve that differs
    # only in its last value, or only by -0.0 against 0.0, is drawn anew
    base = EXTREMES + [0.25]
    neg = [-0.0 if v == 0.0 else v for v in base]
    trials = [np.array(base), np.array(base), list(base), list(base),
              np.array(base[:-1] + [0.5]), neg, base, np.array(neg), neg]
    series = [("a", base), ("b", [1.0, 0.5])]
    per_trial = {"a": trials, "b": [[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]]}
    svg = render_semilog(series, per_trial=per_trial)
    lo, hi, _ = _ref_axis([ys for _, ys in series] + trials + per_trial["b"])
    max_sweep = len(base) - 1
    drawn = trials + per_trial["b"] + [ys for _, ys in series]
    assert re.findall(r'points="([^"]*)"', svg) == [_ref_points(ys, lo, hi, max_sweep)
                                                   for ys in drawn]
    assert svg.count('stroke="#1f77b4" stroke-width="1"') == len(trials)


def test_polyline_clips_at_floor_and_ceiling():
    canvas = svgplot._Canvas(-2, 1, 4)
    ys = [1e300, 10.0, 0.5, 1e-300, 0.0]
    xs = [svgplot._fmt(canvas.x(k)) for k in range(len(ys))]
    for conv in (list, np.array):
        line = svgplot._polyline(canvas, xs, conv(ys), "black", 1)
        assert f'points="{_ref_points(ys, -2, 1, 4)}"' in line
