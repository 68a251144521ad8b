"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a pass/fail line (run pytest -s to see them)."""

import csv
import functools
import math
import time
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import oracles
import test_curvespec as spec_tests
from cauchylab import curves, curvespec, geometry, harness, operators
from cauchylab.cli import CommandInvocation, run
from cauchylab.errors import ValidationError


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {num:02d}] FAIL - {label}")
                raise
            line = f"[acceptance {num:02d}] PASS - {label}"
            if detail:
                line += f" ({detail})"
            print(line)
        return wrapper
    return deco


@pytest.fixture(scope="module")
def circle():
    return curves.circle(1.0)


@pytest.fixture(scope="module")
def square():
    return curves.polygon([0, 1, 1 + 1j, 1j])


@pytest.fixture(scope="module")
def circle4096(circle):
    return curves.arclength_sample(circle, 4096)


@pytest.fixture(scope="module")
def spiral10():
    return curves.build_spiral(10)


@pytest.fixture(scope="module")
def spiral12():
    return curves.build_spiral(12)


CIRCLE_SPEC = """
[curve]
kind = circle
radius = 1.0

[sampling]
n = 4096
resolutions = 1024,2048,4096

[experiment]
scans = diag,criterion,cotlar
k_min = 4
k_max = 12
"""

SPIRAL_SPEC = """
[curve]
kind = spiral
depth = 6

[sampling]
n = 4096
resolutions = 1024,2048,4096

[experiment]
scans = diag,criterion,cotlar
k_min = 4
k_max = 16
"""

SQUARE_SPEC = """
[curve]
kind = polygon

[sampling]
n = 4096
resolutions = 2048,4096,8192

[experiment]
scans = diag,criterion,cotlar
k_min = 4
k_max = 12
"""


@pytest.fixture(scope="module")
def theorem_runs(tmp_path_factory):
    """The three end-to-end CLI runs behind the dichotomy criterion."""
    root = tmp_path_factory.mktemp("theorem")
    results = {}
    for name, text in [("circle", CIRCLE_SPEC), ("spiral", SPIRAL_SPEC),
                       ("square", SQUARE_SPEC)]:
        spec_path = root / f"{name}.cspec"
        spec_path.write_text(text)
        out = root / f"out_{name}"
        code = run(CommandInvocation("all", str(spec_path), str(out),
                                     assert_theorem=True))
        sups = defaultdict(float)
        with open(out / "cotlar_sup.csv") as fh:
            for row in csv.DictReader(fh):
                n = int(row["n"])
                sups[n] = max(sups[n], float(row["sup_ratio"]))
        summary = (out / "summary.txt").read_text()
        results[name] = {"exit": code, "sups": dict(sups), "summary": summary}
    return results


@criterion(1, "Cauchy identity T(1) = 1 on the circle")
def test_acceptance_01_cauchy_identity(circle4096):
    start = time.monotonic()
    pv, _ = operators.cauchy_family(circle4096, np.ones((1, circle4096.n)))
    elapsed = time.monotonic() - start
    worst = float(np.max(np.abs(pv - 1.0)))
    assert worst <= 5e-3
    assert elapsed < 30.0
    return f"max deviation {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "branch-log exactness F = i*eps on the circle")
def test_acceptance_02_branch_log(circle):
    worst = 0.0
    for eps in (0.1, 0.01):
        for x in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
            val = geometry.branch_log(circle, float(x), eps)
            worst = max(worst, abs(val - 1j * eps))
    assert worst <= 1e-6
    return f"max |F - i eps| = {worst:.2e}"


@criterion(3, "corner detection: |F| = pi/2 and unbounded criterion")
def test_acceptance_03_corner_detection(square):
    period = square.period
    corners = square.meta["corners"]
    worst = 0.0
    for k in range(6, 11):
        eps = period * 2.0 ** (-k)
        for corner in corners:
            val = geometry.branch_log(square, float(corner), eps)
            worst = max(worst, abs(abs(val) - math.pi / 2))
        rows = harness.criterion_scan(square, corners, [eps]).rows
        assert len(rows) == len(corners)
        for _, _, score, ok in rows:
            assert ok
            assert score == pytest.approx((math.pi / 2) * abs(math.log(eps)),
                                          rel=1e-9)
    assert worst <= 1e-6
    eps_list = [period * 2.0 ** (-k) for k in range(4, 13)]
    table = harness.criterion_scan(square, harness.default_scan_params(square),
                                   eps_list)
    scores = [v for _, v in table.profile]
    assert all(b > a for a, b in zip(scores[:-1], scores[1:]))
    assert table.verdict == "unbounded"
    return f"max corner deviation {worst:.2e}, verdict {table.verdict}"


@criterion(4, "chord-arc and bilipschitz constants")
def test_acceptance_04_constants(circle, square):
    sc_c = curves.arclength_sample(circle, 2048)
    sc_s = curves.arclength_sample(square, 2048)
    cc = geometry.chord_arc_constant(sc_c)
    cb = geometry.bilipschitz_constant(sc_c)
    qc = geometry.chord_arc_constant(sc_s)
    qb = geometry.bilipschitz_constant(sc_s)
    assert abs(cc - math.pi / 2) <= 1e-4
    assert abs(cb - math.pi / 2) <= 1e-4
    assert abs(qc - 2.0) <= 1e-3
    assert abs(qb - 2.0) <= 1e-3
    return (f"circle {cc:.6f}/{cb:.6f} vs pi/2, square {qc:.6f}/{qb:.6f} vs 2")


@criterion(5, "two-sided second-difference comparison within 1.1")
def test_acceptance_05_sandwich(circle, spiral10):
    cases = [(circle, 2048), (curves.ellipse(2.0, 1.0), 2048),
             (spiral10, 2 ** 16)]
    details = []
    for p, n_gate in cases:
        sc = curves.arclength_sample(p, n_gate)
        scl = sc if n_gate <= 2048 else curves.arclength_sample(p, 2048)
        bil = geometry.bilipschitz_constant(scl)
        eps0 = geometry.eps0_gate(sc, bil)
        assert eps0 is not None
        eps_list = [p.period * 2.0 ** (-k) for k in range(4, 15)
                    if p.period * 2.0 ** (-k) <= eps0 * (1 + 1e-12)]
        assert eps_list, f"empty gated range for {p.kind}"
        rep = harness.sandwich_check(p, harness.default_scan_params(p, 48),
                                     eps_list, bil)
        assert rep.worst_violation <= 1.1
        details.append(f"{p.kind} {rep.worst_violation:.3f}")
    return ", ".join(details)


@criterion(6, "far-field decay within 4L + 0.5 on the circle")
def test_acceptance_06_far_field(circle4096):
    eps = circle4096.period * 2.0 ** (-6)
    rep, = harness.proof_check(circle4096,
                               np.ones(circle4096.n, dtype=complex), 0, [eps],
                               geometry.bilipschitz_constant(circle4096))
    assert rep.worst_ratio <= rep.decay_bound + 0.5
    return f"worst {rep.worst_ratio:.3f} vs bound {rep.decay_bound + 0.5:.3f}"


@criterion(7, "decomposition identity residual, refining under doubling")
def test_acceptance_07_decomposition(circle):
    residuals = {}
    for n in (4096, 8192):
        sc = curves.arclength_sample(circle, n)
        fns = {
            "constant": np.ones(n, dtype=complex),
            "trig3": np.exp(2j * math.pi * 3 * sc.params / sc.period),
        }
        levels = [sc.period * 2.0 ** (-k) for k in (5, 7)]
        for tag, values in fns.items():
            reps = harness.proof_check(sc, values, 0, levels, math.pi / 2)
            for k, rep in zip((5, 7), reps):
                residuals[(tag, k, n)] = rep.residual
    details = []
    for tag in ("constant", "trig3"):
        for k in (5, 7):
            coarse = residuals[(tag, k, 4096)]
            fine = residuals[(tag, k, 8192)]
            assert coarse <= 1e-3
            # machine-floor residuals are exempt from the decrease test
            assert fine <= coarse / 1.5 or max(coarse, fine) <= 1e-12
            details.append(f"{tag}/2^-{k}: {coarse:.1e}->{fine:.1e}")
    return "; ".join(details)


@criterion(8, "spiral second-difference law and angle decay band")
def test_acceptance_08_spiral_law(spiral12):
    p = spiral12
    period = p.period
    x0 = p.meta["focus_param"]
    base = period * np.arange(4096) / 4096
    w2_scores, ang_scores = [], []
    for k in range(6, 17):
        eps = period * 2.0 ** (-k)
        half = min(64 * eps, 0.45 * period)
        fine = x0 + np.linspace(-half, half, 4096)
        mid = x0 + np.linspace(-4096 * eps, 4096 * eps, 4096)
        xs = np.concatenate([base, fine, mid])
        w2 = float(np.max(geometry.second_difference(p, xs, eps)))
        ang = float(np.max(oracles.turning_angle(p, xs, eps)))
        w2_scores.append(w2 * abs(math.log(eps)) / eps)
        ang_scores.append(ang * abs(math.log(eps)))
    band_w2 = max(w2_scores) / min(w2_scores)
    band_ang = max(ang_scores) / min(ang_scores)
    assert band_w2 <= 3.0
    assert band_ang <= 3.0
    return f"second-difference band {band_w2:.2f}, angle band {band_ang:.2f}"


@criterion(9, "theorem dichotomy end to end on three curves")
def test_acceptance_09_dichotomy(theorem_runs):
    for name in ("circle", "spiral", "square"):
        assert theorem_runs[name]["exit"] == 0, f"{name} assert-theorem failed"
    details = []
    for name, expected in [("circle", "stable"), ("spiral", "stable")]:
        sups = theorem_runs[name]["sups"]
        vals = [sups[n] for n in (1024, 2048, 4096)]
        variation = (max(vals) - min(vals)) / min(vals)
        assert variation < 0.25
        assert f"cotlar verdict: {expected}" in theorem_runs[name]["summary"]
        assert "criterion verdict: bounded" in theorem_runs[name]["summary"]
        details.append(f"{name} var {variation * 100:.1f}%")
    sups = theorem_runs["square"]["sups"]
    vals = [sups[n] for n in sorted(sups)]
    assert len(vals) == 3
    gaps = [b / a - 1.0 for a, b in zip(vals[:-1], vals[1:])]
    assert all(g >= 0.10 for g in gaps)
    assert "cotlar verdict: growing" in theorem_runs["square"]["summary"]
    assert "criterion verdict: unbounded" in theorem_runs["square"]["summary"]
    details.append("square gaps " + "/".join(f"+{g * 100:.1f}%" for g in gaps))
    return ", ".join(details)


@criterion(10, "tail series and scale sequence of the depth-12 spiral")
def test_acceptance_10_series(spiral12):
    p = spiral12
    ratios = []
    for k in range(8, 12):
        r, _h = curves.spiral_tail_series(p, k)
        ratios.append(r / curves.patch_half_diameter(k))
    assert all(v < 0.1 for v in ratios)
    assert all(b < a for a, b in zip(ratios[:-1], ratios[1:]))
    worst = 0.0
    for n in range(1, 13):
        poly = curves.spiral_patch_polyline(p, n, 2048)
        sub = np.concatenate([poly[::8], poly[-1:]])
        diam = float(np.abs(sub[:, None] - sub[None, :]).max())
        ln = curves.patch_half_diameter(n)
        worst = max(worst, abs(diam - 2.0 * ln) / (2.0 * ln))
    assert worst <= 1e-3
    return f"R/L at k=8..11: {[f'{v:.4f}' for v in ratios]}, diam err {worst:.1e}"


@criterion(11, "parser round-trip property and constraint rejection")
def test_acceptance_11_parser():
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec_tests.documents())
    def roundtrip(text):
        doc = curvespec.parse_spec(text)
        assert curvespec.parse_spec(curvespec.serialize_spec(doc)) == doc

    roundtrip()
    with pytest.raises(ValidationError) as err:
        curvespec.parse_spec("[curve]\nkind = spiral\nxi = 0.02\n")
    assert "1/100" in str(err.value)
    return "100 generated round-trips, xi >= 1/100 rejected"
