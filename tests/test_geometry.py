"""Tests for the geometric functionals."""

import math

import numpy as np
import pytest

from cauchylab import curves, geometry
from cauchylab.errors import (
    BranchAmbiguityError,
    DegenerateGeometryError,
    DomainError,
)


@pytest.fixture(scope="module")
def circle_sc():
    return curves.arclength_sample(curves.circle(1.0), 2048)


@pytest.fixture(scope="module")
def square_sc():
    return curves.arclength_sample(curves.unit_square(), 2048)


# -- chord-arc and bilipschitz constants -------------------------------------

def brute_chord_arc(sc):
    pts = sc.points
    n = sc.n
    chords = np.abs(np.roll(pts, -1) - pts)
    cum = np.concatenate(([0.0], np.cumsum(chords)))
    total = cum[-1]
    best = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            arc = cum[j] - cum[i]
            arc = min(arc, total - arc)
            best = max(best, arc / abs(pts[j] - pts[i]))
    return best


def test_chord_arc_circle(circle_sc):
    # maximum of theta / (2 sin(theta/2)) over (0, pi] sits at theta = pi
    assert geometry.chord_arc_constant(circle_sc) == pytest.approx(math.pi / 2, abs=1e-4)


def test_chord_arc_square(square_sc):
    # opposite side-midpoints: arc 2, chord 1
    assert geometry.chord_arc_constant(square_sc) == pytest.approx(2.0, abs=1e-3)


def test_chord_arc_matches_brute_force_small():
    sc = curves.arclength_sample(curves.ellipse(2.0, 1.0), 128)
    assert geometry.chord_arc_constant(sc) == pytest.approx(brute_chord_arc(sc), abs=1e-12)


def test_chord_arc_needs_nodes():
    sc = curves.arclength_sample(curves.circle(1.0), 32)
    with pytest.raises(DomainError):
        geometry.chord_arc_constant(sc)


def test_bilipschitz_circle(circle_sc):
    assert geometry.bilipschitz_constant(circle_sc) == pytest.approx(math.pi / 2, abs=1e-4)


def test_bilipschitz_square(square_sc):
    assert geometry.bilipschitz_constant(square_sc) == pytest.approx(2.0, abs=1e-3)


def test_bilipschitz_at_least_one():
    for p in [curves.ellipse(2.0, 1.0), curves.graph_closure([0.2])]:
        sc = curves.arclength_sample(p, 256)
        assert geometry.bilipschitz_constant(sc) >= 1.0


def loop_chord_arc_constant(sc):
    """Reference scan: one np.roll per offset and its own coincidence check."""
    pts = sc.points
    n = sc.n
    chords = np.abs(np.roll(pts, -1) - pts)
    cum = np.concatenate(([0.0], np.cumsum(chords)))
    total = float(cum[-1])
    cum2 = np.concatenate([cum[:-1], cum[:-1] + total])
    best = 1.0
    for off in range(1, n // 2 + 1):
        d = np.abs(np.roll(pts, -off) - pts)
        assert not np.any(d < 1e-12)
        arc = cum2[off:off + n] - cum2[:n]
        shorter = np.minimum(arc, total - arc)
        best = max(best, float(np.max(shorter / d)))
    return best


def loop_bilipschitz_constant(sc):
    """Reference scan: one np.roll per offset, parameter distance over chord."""
    pts = sc.points
    best = 1.0
    for off in range(1, sc.n // 2 + 1):
        d = np.abs(np.roll(pts, -off) - pts)
        assert not np.any(d < 1e-12)
        best = max(best, float(np.max(off * sc.spacing / d)))
    return best


def loop_local_bilipschitz(p, x0, eps, m):
    """Reference window scan over the pairs inside [x0 - eps, x0 + eps]."""
    xs = np.linspace(x0 - eps, x0 + eps, m)
    pts = p.point(xs)
    step = xs[1] - xs[0]
    worst = 1.0
    for off in range(1, m):
        d = np.abs(pts[off:] - pts[:-off])
        worst = max(worst, float(np.max(off * step / d)))
    return worst


@pytest.mark.parametrize("build", [
    lambda: curves.circle(1.0),
    lambda: curves.ellipse(2.0, 1.0),
    curves.unit_square,
    lambda: spiral6(),
], ids=["circle", "ellipse", "square", "spiral"])
def test_chord_scans_bit_identical_to_loops(build):
    p = build()
    sc = curves.arclength_sample(p, 2048)
    assert geometry.chord_arc_constant(sc) == loop_chord_arc_constant(sc)
    assert geometry.bilipschitz_constant(sc) == loop_bilipschitz_constant(sc)
    x0 = p.meta.get("focus_param", 0.0)
    for k in (3, 7, 12):
        eps = p.period * 2.0 ** (-k)
        assert (geometry.local_bilipschitz(p, x0, eps, m=384)
                == loop_local_bilipschitz(p, x0, eps, 384))


def test_diagnostics_makes_one_chord_pass(monkeypatch):
    p = curves.ellipse(2.0, 1.0)
    sc = curves.arclength_sample(p, 256)
    closed_passes = []
    scan = geometry._offset_chords

    def counted(pts, closed=True):
        if closed:
            closed_passes.append(len(pts))
        return scan(pts, closed)

    monkeypatch.setattr(geometry, "_offset_chords", counted)
    rep = geometry.diagnostics(p, sc, k_min=3, k_max=5, x_grid_n=256)
    assert closed_passes == [sc.n]
    monkeypatch.undo()
    assert rep.chord_arc_const == geometry.chord_arc_constant(sc)
    assert rep.bilip == geometry.bilipschitz_constant(sc)


def test_diagnostics_needs_nodes():
    p = curves.circle(1.0)
    with pytest.raises(DomainError):
        geometry.diagnostics(p, curves.arclength_sample(p, 32), k_min=3, k_max=4)


def test_degenerate_pair_detection():
    sc = curves.arclength_sample(curves.circle(1.0), 128)
    pts = sc.points.copy()
    pts[5] = pts[70]  # force a coincidence at distinct parameters
    bad = curves.SampledCurve(n=sc.n, period=sc.period, params=sc.params,
                              points=pts, tangents=sc.tangents,
                              weights=sc.weights)
    with pytest.raises(DegenerateGeometryError):
        geometry.bilipschitz_constant(bad)


# -- conformality defect ------------------------------------------------------

def test_conformality_circle_closed_form():
    sc = curves.arclength_sample(curves.circle(1.0), 4096)
    d = 0.1
    theta = 2.0 * math.asin(d / 2.0)
    expected = 1.0 / math.cos(theta / 4.0) - 1.0
    got = geometry.conformality_modulus(sc, d, stride=1)
    assert got == pytest.approx(expected, abs=1e-5)


def test_conformality_square_corner_floor():
    sc = curves.arclength_sample(curves.unit_square(), 4096)
    for d in [0.4, 0.2, 0.1]:
        assert geometry.conformality_modulus(sc, d, stride=1) >= math.sqrt(2.0) - 1.0 - 1e-9


def test_conformality_nonnegative():
    sc = curves.arclength_sample(curves.ellipse(2.0, 1.0), 1024)
    assert geometry.conformality_modulus(sc, 0.3) >= 0.0


def loop_conformality_modulus(sc, d, stride=None):
    """Reference scan: one detour sum per chord <= d and inner node."""
    if stride is None:
        stride = max(1, int(d / (48.0 * sc.spacing)))
    view = sc.points[::stride]
    n2 = len(view)
    h2 = sc.spacing * stride
    max_off = min(n2 // 2, int(math.ceil(16.0 * d / h2)) + 1)
    worst = 0.0
    for off in range(2, max_off + 1):
        chord = np.abs(np.roll(view, -off) - view)
        sel = np.nonzero(chord <= d)[0]
        if sel.size == 0:
            continue
        za = view[sel]
        zb = view[(sel + off) % n2]
        c = chord[sel]
        best = np.zeros(sel.size)
        for k in range(1, off):
            zm = view[(sel + k) % n2]
            np.maximum(best, (np.abs(zm - za) + np.abs(zb - zm)) / c, out=best)
        worst = max(worst, float(best.max()) - 1.0)
    return worst


def hairpin_polygon():
    """Rectangle with a spike from the top edge down to just above the bottom
    edge: chords <= 0.2 at short offsets and again across the pinch."""
    return curves.polygon([0, 2, 2 + 1j, 0.45 + 1j, 0.35 + 0.15j, 0.25 + 1j, 1j])


def spiral6():
    return curves.build_spiral(curves.SpiralSpec(depth=6))


@pytest.mark.parametrize("build, n, d, stride", [
    (curves.circle, 1024, 0.1, 1),
    (curves.circle, 4096, 0.4, None),  # stride 5
    (curves.unit_square, 2048, 0.1, 1),
    (curves.unit_square, 2048, 0.3, None),  # stride 3
    (lambda: curves.ellipse(2.0, 1.0), 1024, 0.3, None),
    (spiral6, 4096, 0.01, None),
    (spiral6, 4096, 0.3, None),
    (hairpin_polygon, 1024, 0.2, 1),
], ids=["circle", "circle-stride", "square", "square-stride", "ellipse",
        "spiral-fine", "spiral-coarse", "hairpin"])
def test_conformality_bit_identical_to_loop(build, n, d, stride):
    sc = curves.arclength_sample(build(), n)
    got = geometry.conformality_modulus(sc, d, stride=stride)
    assert got == loop_conformality_modulus(sc, d, stride=stride)


def test_conformality_hairpin_offsets_have_a_gap():
    sc = curves.arclength_sample(hairpin_polygon(), 1024)
    offs = [off for off in range(2, sc.n // 2 + 1)
            if np.abs(np.roll(sc.points, -off) - sc.points).min() <= 0.2]
    assert offs[-1] - offs[0] + 1 > len(offs)


@pytest.mark.parametrize("build, n, d, stride", [
    (curves.circle, 1024, 0.1, 1),
    (lambda: curves.ellipse(2.0, 1.0), 1024, 0.3, None),
    (curves.unit_square, 2048, 0.3, None),
    (spiral6, 4096, 0.01, None),
    (spiral6, 4096, 0.3, None),
    # on the hairpin at these scales a jump ends right before a qualifying
    # offset across the pinch, so a search that jumps one further misses it
    (hairpin_polygon, 1024, 0.16, 1),
    (hairpin_polygon, 1024, 0.25, 1),
], ids=["circle", "ellipse", "square", "spiral-fine", "spiral-coarse",
        "hairpin-0.16", "hairpin-0.25"])
def test_offset_search_skips_only_non_qualifying_offsets(build, n, d, stride):
    sc = curves.arclength_sample(build(), n)
    if stride is None:
        stride = max(1, int(d / (48.0 * sc.spacing)))
    view = sc.points[::stride]
    max_off = min(len(view) // 2,
                  int(math.ceil(16.0 * d / (sc.spacing * stride))) + 1)
    full = full_offset_search(view, max_off, d)
    assert full
    assert qualifying_offsets(view, max_off, d) == full


def full_offset_search(view, max_off, d):
    return [off for off in range(2, max_off + 1)
            if np.abs(np.roll(view, -off) - view).min() <= d]


def qualifying_offsets(view, max_off, d):
    ext = np.concatenate([view, view[:2 * max_off]])
    return geometry._qualifying_offsets(ext, len(view), max_off, d)


@pytest.mark.parametrize("build, n", [
    (curves.circle, 1024),
    (curves.unit_square, 2048),
], ids=["circle", "square"])
def test_offset_search_moves_on_at_near_ties(build, n):
    # the shortest chord grows with the offset on these curves, so the
    # search steps through every offset below off and then meets a chord
    # that exceeds d by less than the rounding slack: a jump computed as
    # floor of a negative number must not hold the search in place
    view = curves.arclength_sample(build(), n).points
    max_off = 24
    for off in range(2, 12):
        m0 = float(np.abs(np.roll(view, -off) - view).min())
        for d in (m0 * (1.0 - 1e-14), m0, m0 * (1.0 + 1e-14)):
            assert qualifying_offsets(view, max_off, d) == \
                full_offset_search(view, max_off, d)


def test_conformality_no_qualifying_chord_is_zero():
    sc = curves.arclength_sample(curves.ellipse(2.0, 1.0), 1024)
    d = 0.5 * sc.spacing
    assert geometry.conformality_modulus(sc, d, stride=1) == 0.0
    assert loop_conformality_modulus(sc, d, stride=1) == 0.0


# -- second differences and turning angles -----------------------------------

def test_second_difference_circle():
    p = curves.circle(1.0)
    for eps in [0.3, 0.05]:
        xs = np.linspace(0, 2 * math.pi, 17)
        vals = geometry.second_difference(p, xs, eps)
        assert np.max(np.abs(vals - 2.0 * (1.0 - math.cos(eps)))) < 1e-12


def test_second_difference_square_side_and_corner():
    p = curves.unit_square()
    eps = 0.1
    assert geometry.second_difference(p, 0.5, eps) == pytest.approx(0.0, abs=1e-14)
    assert geometry.second_difference(p, 1.0, eps) == pytest.approx(
        math.sqrt(2.0) * eps, abs=1e-12)


def test_omega2_argmax_square():
    p = curves.unit_square()
    xs = p.period * np.arange(4096) / 4096
    val, argx = geometry.omega2(p, 0.05, xs)
    assert val == pytest.approx(math.sqrt(2.0) * 0.05, abs=1e-12)
    assert min(abs(argx - c) for c in p.meta["corners"]) < 1e-9


def test_omega2_upper_bound_invariant():
    p = curves.ellipse(2.0, 1.0)
    sc = curves.arclength_sample(p, 1024)
    bil = geometry.bilipschitz_constant(sc)
    xs = p.period * np.arange(2048) / 2048
    for eps in [p.period / 16, p.period / 64]:
        val, _ = geometry.omega2(p, eps, xs)
        assert val <= 2.0 * bil * eps


def test_turning_angle_circle():
    p = curves.circle(1.0)
    for eps in [0.3, 0.01]:
        got = geometry.turning_angle(p, np.array([0.3, 2.0]), eps)
        assert np.max(np.abs(got - eps)) < 1e-12


def test_turning_angle_square():
    p = curves.unit_square()
    assert geometry.turning_angle(p, 0.5, 0.1) == pytest.approx(0.0, abs=1e-14)
    assert geometry.turning_angle(p, 1.0, 0.1) == pytest.approx(math.pi / 2, abs=1e-12)


def test_turning_angle_domain():
    p = curves.circle(1.0)
    with pytest.raises(DomainError):
        geometry.turning_angle(p, 0.0, 2 * math.pi)


# -- branch log ----------------------------------------------------------------

def test_branch_log_circle_exact():
    p = curves.circle(1.0)
    for eps in [0.1, 0.01]:
        for x in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            val = geometry.branch_log(p, float(x), eps)
            assert abs(val.value - 1j * eps) < 1e-10
            assert val.condition_score == pytest.approx(eps * abs(math.log(eps)), abs=1e-9)


def test_branch_log_straight_side_zero():
    p = curves.unit_square()
    val = geometry.branch_log(p, 0.5, 0.2)
    assert abs(val.value) < 1e-12


def test_branch_log_square_corner():
    p = curves.unit_square()
    for k in range(6, 11):
        eps = p.period * 2.0 ** (-k)
        val = geometry.branch_log(p, 1.0, eps)
        assert abs(abs(val.value) - math.pi / 2) < 1e-10
        assert val.condition_score == pytest.approx(
            (math.pi / 2) * abs(math.log(eps)), abs=1e-8)


def test_branch_log_methods_agree():
    # the quadrature against continuous argument unwrapping along the curve
    for p, x, eps in [(curves.circle(1.0), 0.7, 0.05),
                      (curves.ellipse(2.0, 1.0), 2.0, 0.05),
                      (curves.build_spiral(curves.SpiralSpec(depth=6)), 0.9, 0.01)]:
        a = geometry.branch_log(p, x, eps)
        b = geometry._branch_log_unwrapped(p, x, eps)
        assert abs(a.value - b) < 1e-8


def test_branch_log_ambiguity_on_slit():
    # degenerate back-and-forth slit: the two half-chords are anti-parallel
    def slit(x):
        x = np.asarray(x, dtype=float)
        y = np.abs(((x + 1.0) % 2.0) - 1.0)
        return y.astype(complex)

    p = curves.Parametrization(period=2.0, point=slit, kind="polygon",
                               unit_speed=True)
    with pytest.raises(BranchAmbiguityError):
        geometry.branch_log(p, 0.0, 0.25)


# -- windowed constants ---------------------------------------------------------

def test_local_bilipschitz_straight_window():
    p = curves.unit_square()
    assert geometry.local_bilipschitz(p, 0.5, 0.2) == pytest.approx(1.0, abs=1e-12)


def test_local_bilipschitz_circle_window():
    p = curves.circle(1.0)
    eps = 0.5
    got = geometry.local_bilipschitz(p, 1.0, eps)
    assert got == pytest.approx(eps / math.sin(eps), rel=1e-5)


def test_local_bilipschitz_needs_unit_speed():
    p = curves.Parametrization(period=2 * math.pi,
                               point=lambda x: np.exp(2j * np.asarray(x)),
                               kind="circle", unit_speed=False)
    with pytest.raises(DomainError):
        geometry.local_bilipschitz(p, 0.0, 0.1)


def test_window_speed_range_rejects_coincident_points():
    # the curve stops at x = 0.5, so the window's right half is one point
    p = curves.Parametrization(
        period=2.0, point=lambda x: np.minimum(np.asarray(x, dtype=float), 0.5) + 0j,
        kind="polygon", unit_speed=True)
    with pytest.raises(DegenerateGeometryError):
        geometry.window_speed_range(p, 0.5, 0.1)


def test_window_speed_range_circle():
    p = curves.circle(1.0)
    lo, hi = geometry.window_speed_range(p, 0.0, 0.4)
    assert hi <= 1.0 + 1e-12
    assert lo == pytest.approx(math.sin(0.4) / 0.4, rel=1e-4)


def test_cosine_bound_invariant():
    # exact cosine law |D2|^2 = |a|^2 + |b|^2 - 2|a||b| cos(angle), with both
    # half-chord speeds inside the window extremes; the quadratic form is
    # convex, so its box maximum over [c, C]^2 sits at a corner
    for p in [curves.circle(1.0), curves.ellipse(2.0, 1.0),
              curves.build_spiral(curves.SpiralSpec(depth=6))]:
        eps = p.period / 256.0
        for x in np.linspace(0.1, p.period, 7):
            lo, hi = geometry.window_speed_range(p, float(x), eps)
            za = p.point(np.array([x])) - p.point(np.array([x - eps]))
            zb = p.point(np.array([x + eps])) - p.point(np.array([x]))
            amag, bmag = float(np.abs(za)[0]), float(np.abs(zb)[0])
            d2 = float(geometry.second_difference(p, np.array([x]), eps)[0])
            ang = float(geometry.turning_angle(p, float(x), eps))
            law = amag ** 2 + bmag ** 2 - 2.0 * amag * bmag * math.cos(ang)
            assert d2 ** 2 == pytest.approx(law, abs=1e-12)
            assert lo * eps - 1e-9 <= amag <= hi * eps + 1e-9
            assert lo * eps - 1e-9 <= bmag <= hi * eps + 1e-9
            box_max = max(u * u + v * v - 2.0 * u * v * math.cos(ang)
                          for u, v in [(lo, hi), (lo, lo), (hi, hi)])
            assert d2 ** 2 <= box_max * eps ** 2 + 1e-12


# -- smallness gate and diagnostics --------------------------------------------

def test_eps0_gate_circle():
    sc = curves.arclength_sample(curves.circle(1.0), 2048)
    gate = geometry.eps0_gate(sc, math.pi / 2)
    assert gate == pytest.approx(2 * math.pi * 2.0 ** (-4), rel=1e-12)


def test_eps0_gate_square_is_none():
    sc = curves.arclength_sample(curves.unit_square(), 2048)
    assert geometry.eps0_gate(sc, 2.0) is None


def test_eps0_gate_early_stop_matches_full_scans():
    p = spiral6()
    sc = curves.arclength_sample(p, 2 ** 14)
    bil = geometry.bilipschitz_constant(curves.arclength_sample(p, 2048))
    # the gate's level loop, with every level scanned in full by the loop
    pts = sc.points[::sc.n // 256]
    diam = float(np.abs(pts[:, None] - pts[None, :]).max())
    expected = None
    for k in range(2, int(math.floor(math.log2(sc.n * bil / 8.0))) + 1):
        eps = sc.period * 2.0 ** (-k)
        d = bil * eps
        if d > 0.45 * diam:
            continue
        if d < 8.0 * sc.spacing:
            break
        if loop_conformality_modulus(sc, d) < 0.05:
            expected = eps
            break
    assert expected is not None
    assert geometry.eps0_gate(sc, bil) == expected


def test_diagnostics_report_and_csv():
    p = curves.circle(1.0)
    sc = curves.arclength_sample(p, 512)
    rep = geometry.diagnostics(p, sc, k_min=3, k_max=6, x_grid_n=512)
    assert rep.chord_arc_const >= 1.0
    assert rep.bilip >= 1.0
    assert all(v >= 0.0 for _, _, v in rep.ac_table)
    for _, eps, val, _ in rep.omega2_table:
        assert val <= 2.0 * rep.bilip * eps
    rows = geometry.diagnostics_csv_rows(rep)
    assert rows[0] == "quantity,epsilon,value,arg_param"
    assert any(r.startswith("ac_modulus,T*2^-") for r in rows)
    assert any(r.startswith("omega2,T*2^-") for r in rows)


def test_diagnostics_focus_tables_for_spiral():
    p = curves.build_spiral(curves.SpiralSpec(depth=5))
    sc = curves.arclength_sample(p, 1024)
    rep = geometry.diagnostics(p, sc, k_min=4, k_max=7, x_grid_n=1024)
    assert rep.omega2_focus_table  # near-focus table present
    assert rep.local_bilip_table
    for _, _, c_eps in rep.local_bilip_table:
        assert c_eps >= 1.0
