"""Tests for the geometric functionals."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from cauchylab import _peers, curves, curvespec, geometry, harness
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
    return curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 2048)


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


def regular_hexagon():
    return curves.polygon(np.exp(2j * math.pi * np.arange(6) / 6))


@pytest.mark.parametrize("build, n", [
    (lambda: curves.circle(1.0), 2048),
    (lambda: curves.ellipse(2.0, 1.0), 2048),
    (lambda: curves.polygon([0, 1, 1 + 1j, 1j]), 2048),
    (lambda: spiral6(), 2048),
    # an odd grid, the smallest grid the arc scan takes, and a larger one
    (lambda: curves.ellipse(2.0, 1.0), 1001),
    (lambda: curves.ellipse(2.0, 1.0), 64),
    (lambda: spiral6(), 4096),
    # the hairpin's pinch puts its L at offset 672 and makes the search
    # compute 436 of its 1024 rows; corner polygons, on which chords along
    # a side are exactly the triangle inequality's bound
    (lambda: hairpin_polygon(), 2048),
    (lambda: tight_corner_polygon(0.05), 2048),
    (lambda: bend_and_jog_polygon(), 2048),
    (regular_hexagon, 2048),
], ids=["circle", "ellipse", "square", "spiral", "ellipse-1001", "ellipse-64",
        "spiral-4096", "hairpin", "tight-corner", "bend-and-jog", "hexagon"])
def test_chord_scans_bit_identical_to_loops(build, n):
    p = build()
    sc = curves.arclength_sample(p, n)
    assert geometry.chord_arc_constant(sc) == loop_chord_arc_constant(sc)
    assert geometry.bilipschitz_constant(sc) == loop_bilipschitz_constant(sc)


def test_diagnostics_makes_one_chord_pass(monkeypatch):
    p = curves.ellipse(2.0, 1.0)
    sc = curves.arclength_sample(p, 256)
    closed_scans = []
    scan = geometry._chord_constants

    def counted(sc_, with_arc):
        closed_scans.append((sc_.n, with_arc))
        return scan(sc_, with_arc)

    monkeypatch.setattr(geometry, "_chord_constants", counted)
    rep = geometry.diagnostics(sc, k_min=3, k_max=5)
    assert closed_scans == [(sc.n, True)]
    monkeypatch.undo()
    assert rep.chord_arc_const == geometry.chord_arc_constant(sc)
    assert rep.bilip == geometry.bilipschitz_constant(sc)


def probed_offsets(monkeypatch):
    """The offsets of the chord rows the closed scan computes, in order,
    once the returned list is filled by a scan."""
    rows = []
    chord_row = geometry._chord_row

    def counted(ext, n, off):
        rows.append(off)
        return chord_row(ext, n, off)

    monkeypatch.setattr(geometry, "_chord_row", counted)
    return rows


@pytest.mark.parametrize("build, most", [
    (lambda: spiral6(), 64),
    (lambda: curves.circle(1.0), 32),
], ids=["spiral", "circle"])
def test_chord_scan_probes_few_offsets(monkeypatch, build, most):
    # of the 2048 offsets at n = 4096 the search computes the edges (offset
    # 1) once up front, then each row at most once, from n // 2 down; the
    # spiral needs 37 rows and the circle 11
    sc = curves.arclength_sample(build(), 4096)
    rows = probed_offsets(monkeypatch)
    geometry._chord_constants(sc, True)
    assert rows[0] == 1 and rows[1] == sc.n // 2
    probed = rows[1:]
    assert probed == sorted(set(probed), reverse=True)
    assert len(probed) <= most


@pytest.mark.parametrize("build", [
    lambda: curves.circle(1.0),
    lambda: curves.ellipse(2.0, 1.0),
    lambda: curves.polygon([0, 1, 1 + 1j, 1j]),
    lambda: spiral6(),
], ids=["circle", "ellipse", "square", "spiral"])
def test_diagnostics_tables_equal_per_level_calls(build):
    # the omega2, focus and window tables read their points from one
    # p.point call per group of whole levels of at most 2^16 parameters,
    # and each row has the bits of the per-level oracles: the max of
    # second_difference over the 4096 equispaced parameters or the focus
    # grid, and the loop over the pairs of the 384-node window about the
    # focus point (0 without one); the spiral has a focus point, so its
    # focus table is filled too
    p = build()
    sc = curves.arclength_sample(p, 256)
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return p.point(x)

    rep = geometry.diagnostics(
        dataclasses.replace(sc, source=dataclasses.replace(p, point=counted)),
        k_min=3, k_max=12)
    # 4096 omega2 parameters, then per level 2 x 4096 shifted ones, the 384
    # of the window and, on the spiral, 3 x 1536 of the focus grid
    if "focus_param" in p.meta:
        assert calls == [(4096 + 4 * 13184,), (4 * 13184,), (2 * 13184,)]
    else:
        assert calls == [(4096 + 7 * 8576,), (3 * 8576,)]
    xs = p.period * np.arange(4096) / 4096
    x0 = p.meta.get("focus_param", 0.0)
    assert [row[0] for row in rep.omega2_table] == list(range(3, 13))
    for k, eps, val, argx in rep.omega2_table:
        assert (val, argx) == oracles.omega2(p, eps, xs)
    assert len(rep.omega2_focus_table) == (10 if "focus_param" in p.meta else 0)
    for k, eps, val, argx in rep.omega2_focus_table:
        assert (val, argx) == oracles.omega2(p, eps, geometry.focus_grid(p, eps))
    # every level from k = 3 lies below a quarter period, so has a window
    assert [row[0] for row in rep.local_bilip_table] == list(range(3, 13))
    for k, eps, val in rep.local_bilip_table:
        assert val == oracles.loop_local_bilipschitz(p, x0, eps)


@pytest.mark.parametrize("build", [
    lambda: spiral6(),
    lambda: hairpin_polygon(),
    lambda: tight_corner_polygon(0.05),
    lambda: bend_and_jog_polygon(),
    regular_hexagon,
], ids=["spiral", "hairpin", "tight-corner", "bend-and-jog", "hexagon"])
def test_diagnostics_window_rows_are_the_loop_constants(build):
    # each local_bilip row of diagnostics.csv is the .17g text of the loop
    # oracle's window constant about the focus point (0 without one), on
    # the test polygons too; the window grid does not depend on the sample
    p = build()
    rep = geometry.diagnostics(curves.arclength_sample(p, 1024), k_min=3, k_max=12)
    x0 = p.meta.get("focus_param", 0.0)
    want = [f"local_bilip,T*2^-{k},"
            f"{oracles.loop_local_bilipschitz(p, x0, p.period * 2.0 ** -k):.17g},"
            for k in range(3, 13)]
    rows = geometry.diagnostics_csv_rows(rep)
    assert [r for r in rows if r.startswith("local_bilip,")] == want


def test_diagnostics_needs_nodes():
    p = curves.circle(1.0)
    with pytest.raises(DomainError):
        geometry.diagnostics(curves.arclength_sample(p, 32), k_min=3, k_max=4)


def test_degenerate_pair_detection():
    sc = curves.arclength_sample(curves.circle(1.0), 128)
    pts = sc.points.copy()
    pts[5] = pts[70]  # force a coincidence at distinct parameters
    bad = curves.SampledCurve(n=sc.n, period=sc.period, params=sc.params,
                              points=pts, tangents=sc.tangents,
                              weights=sc.weights)
    with pytest.raises(DegenerateGeometryError, match="offset 63$"):
        geometry.bilipschitz_constant(bad)


def with_points(sc, pts):
    return curves.SampledCurve(n=sc.n, period=sc.period, params=sc.params,
                               points=pts, tangents=sc.tangents,
                               weights=sc.weights)


@pytest.mark.parametrize("schedule", ["default", "caller", "helper"])
def test_chord_scan_names_the_smallest_offset_across_blocks(monkeypatch, schedule):
    # coincident points at offsets 8 and 9, on both sides of a boundary
    # between blocks of 4 offsets: the error names 8 whatever the peer
    # schedule
    oracles.patch_schedule(monkeypatch, schedule)
    sc = curves.arclength_sample(curves.circle(1.0), 128)
    pts = sc.points.copy()
    pts[28] = pts[20]
    pts[59] = pts[50]
    bad = with_points(sc, pts)
    with pytest.raises(DegenerateGeometryError, match="offset 8$"):
        geometry.bilipschitz_constant(bad)
    with pytest.raises(DegenerateGeometryError, match="offset 8$"):
        geometry.chord_arc_constant(bad)


def test_chord_scan_finds_a_coincidence_the_clean_search_skips(monkeypatch):
    # on the clean 1024-node circle the search computes 9 rows and skips
    # offset 300; with nodes 40 and 340 made one point the error names 300
    sc = curves.arclength_sample(curves.circle(1.0), 1024)
    rows = probed_offsets(monkeypatch)
    geometry._chord_constants(sc, True)
    assert 300 not in rows
    pts = sc.points.copy()
    pts[340] = pts[40]
    bad = with_points(sc, pts)
    with pytest.raises(DegenerateGeometryError, match="offset 300$"):
        geometry.bilipschitz_constant(bad)
    with pytest.raises(DegenerateGeometryError, match="offset 300$"):
        geometry.chord_arc_constant(bad)


@pytest.mark.parametrize("n, node, frac", [(1024, 500, 0.01), (1001, 300, 0.02)])
def test_chord_scan_reaches_a_largest_ratio_at_offset_one(n, node, frac):
    # one node of the circle pulled to a small fraction of its edge from the
    # next: L = 1 / frac sits at offset 1, at the bottom of the search
    sc = curves.arclength_sample(curves.circle(1.0), n)
    pts = sc.points.copy()
    pts[node] = pts[node + 1] + frac * (pts[node] - pts[node + 1])
    near = with_points(sc, pts)
    assert geometry.bilipschitz_constant(near) == loop_bilipschitz_constant(near)
    assert geometry.chord_arc_constant(near) == loop_chord_arc_constant(near)


def test_chord_scan_stops_skipping_at_the_coincidence_floor(monkeypatch):
    # The 1024-node circle's search computes the row at offset 20 and then
    # skips 19..1.  Shrunk by 2^-36, which keeps every bit of the search's
    # ratios, its chords up to offset 11 are below 1e-12, so its edges
    # count as coincident points: the skip must stop above the floor and
    # find them.  The arc scan checks the edges first.
    sc = curves.arclength_sample(curves.circle(1.0), 1024)
    rows = probed_offsets(monkeypatch)
    geometry._chord_constants(sc, False)
    assert rows[-1] == 20
    scale = 2.0 ** -36
    tiny = dataclasses.replace(sc, period=scale * sc.period,
                               points=scale * sc.points)
    assert np.abs(np.roll(tiny.points, -11) - tiny.points).max() < 1e-12
    assert np.abs(np.roll(tiny.points, -12) - tiny.points).min() > 1e-12
    with pytest.raises(DegenerateGeometryError, match="offset 1$"):
        geometry.bilipschitz_constant(tiny)
    with pytest.raises(DegenerateGeometryError, match="offset 1$"):
        geometry.chord_arc_constant(tiny)


@pytest.mark.parametrize("gap", [1e-4, 1e-7, 1e-10])
@pytest.mark.parametrize("with_arc", [False, True], ids=["bil", "arc"])
def test_skip_rule_slack_covers_rounding(gap, with_arc):
    # A row at offset 2049 whose shortest chord is 1, with edges of at most
    # (1 - gap) / 2048: at t = 2048 the triangle bound leaves a chord of
    # gap, 1 / gap times less than m0.  bil (or cac) is set 2e-12 above
    # what an exact rule would need to skip down to offset 1, so only the
    # slack decides there.  Each skip the rule makes must still hold with
    # m0, step, A and emin moved by 8 ulps against it (and at every t
    # between 1 and s, the conditions being linear in t)
    off, h, m0 = 2049, 2.0 * gap, 1.0
    step = (1.0 - gap) / 2048
    tight = Fraction(m0) - 2048 * Fraction(step)
    bil = float(Fraction(h) / tight) * (1.0 + 2e-12)
    arcs = None
    if with_arc:
        A, emin, total = 2.0, step, 4.0
        cac = float((A - 2048 * Fraction(emin)) / tight) * (1.0 + 2e-12)
        arcs = A, emin, total, cac
        bil *= 2.0
    s = geometry._skip_below(off, h, m0, step, bil, arcs)
    assert 1024 <= s < 2048
    e = Fraction(8, 2 ** 53)
    for t in (1, s):
        low = Fraction(m0) * (1 - e) - t * Fraction(step) * (1 + e)
        assert low >= Fraction(geometry._COINCIDENT)
        assert (off - t) * Fraction(h) * (1 + e) <= Fraction(bil) * low
        if with_arc:
            arc = A * (1 + e) - t * (Fraction(emin) - e * total)
            assert arc <= Fraction(cac) * low


@pytest.mark.parametrize("schedule", ["caller", "helper"])
def test_chord_constants_independent_of_schedule(monkeypatch, schedule):
    # a maximum is exact in any order: either worker alone gives the bits
    # of the default schedule
    curves_ = (curves.polygon([0, 1, 1 + 1j, 1j]), spiral6())
    samples = [curves.arclength_sample(p, 2048) for p in curves_]
    want = [geometry._chord_constants(sc, True) for sc in samples]
    oracles.patch_schedule(monkeypatch, schedule)
    assert [geometry._chord_constants(sc, True) for sc in samples] == want
    assert ([geometry.bilipschitz_constant(sc) for sc in samples]
            == [w[1] for w in want])


def test_chord_scan_starts_no_peer_worker(monkeypatch):
    # the chord scan runs on the calling thread alone
    def refuse(*args, **kwargs):
        raise AssertionError("peer workers started")

    monkeypatch.setattr(_peers, "in_task_order", refuse)
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    sc = curves.arclength_sample(p, 512)
    assert geometry.bilipschitz_constant(sc) == loop_bilipschitz_constant(sc)
    rep = geometry.diagnostics(sc, k_min=3, k_max=5)
    assert rep.chord_arc_const == loop_chord_arc_constant(sc)


def test_window_scan_names_the_smallest_coincident_offset():
    # window nodes 200 and 250 repeat nodes 190 and 230; then nodes 300 and
    # 380 repeat 170 and 310, at offsets 130 and 70, in the third and the
    # second block of 64 offsets
    xs = np.linspace(-0.1, 0.1, 384)
    for repeats, offset in (({200: 190, 250: 230}, 10),
                            ({300: 170, 380: 310}, 70)):
        pts = xs + 0j
        for i, j in repeats.items():
            pts[i] = pts[j]
        with pytest.raises(DegenerateGeometryError, match=f"offset {offset}$"):
            geometry._window_constant(xs, pts)


# -- conformality defect ------------------------------------------------------

def test_conformality_circle_closed_form():
    sc = curves.arclength_sample(curves.circle(1.0), 4096)
    d = 0.1
    theta = 2.0 * math.asin(d / 2.0)
    expected = 1.0 / math.cos(theta / 4.0) - 1.0
    got = geometry.conformality_modulus(sc, d)  # stride 1
    assert got == pytest.approx(expected, abs=1e-5)


def test_conformality_square_corner_floor():
    # strides 8, 4 and 2: every corner is a node of each strided grid
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 4096)
    for d in [0.4, 0.2, 0.1]:
        assert geometry.conformality_modulus(sc, d) >= math.sqrt(2.0) - 1.0 - 1e-9


def test_conformality_nonnegative():
    sc = curves.arclength_sample(curves.ellipse(2.0, 1.0), 1024)
    assert geometry.conformality_modulus(sc, 0.3) >= 0.0


def hairpin_polygon():
    """Rectangle with a spike from the top edge down to just above the bottom
    edge: chords <= 0.2 at short offsets and again across the pinch."""
    return curves.polygon([0, 2, 2 + 1j, 0.45 + 1j, 0.35 + 0.15j, 0.25 + 1j, 1j])


def spiral6():
    return curves.build_spiral(6)


def tight_corner_polygon(defect):
    """An 11-gon whose corner at vertex 0, node 0 of every grid, turns by
    2 acos(1 / (1 + defect)): each chord symmetric about it has detour
    defect `defect`, and its polygonal arc equals that detour.  The other
    ten corners share the rest of the turn (defect about 0.042 each); the
    first two edges take the lengths that close the polygon."""
    theta = 2.0 * math.acos(1.0 / (1.0 + defect))
    dirs = np.exp(1j * (2.0 * math.pi - theta) / 10.0 * np.arange(11))
    lengths = np.ones(11)
    gap = -dirs[2:].sum()
    lengths[:2] = np.linalg.solve([dirs[:2].real, dirs[:2].imag],
                                  [gap.real, gap.imag])
    return curves.polygon(np.cumsum(np.concatenate([[0.0], lengths[:-1] * dirs[:-1]])))


@pytest.mark.parametrize("build, n, d", [
    (curves.circle, 1024, 0.1),
    (curves.circle, 4096, 0.4),  # stride 5
    (lambda: curves.polygon([0, 1, 1 + 1j, 1j]), 2048, 0.1),
    (lambda: curves.polygon([0, 1, 1 + 1j, 1j]), 2048, 0.3),  # stride 3
    (lambda: curves.ellipse(2.0, 1.0), 1024, 0.3),
    (spiral6, 4096, 0.01),
    (spiral6, 4096, 0.3),
    (hairpin_polygon, 1024, 0.2),
    # the polygonal-arc bound skips over 98% of the chords of the next
    # three: a fine ellipse scale, and the eps0 gate's levels k = 11
    # (rejected) and 12 (accepted) on spiral6 at 2^14
    (lambda: curves.ellipse(2.0, 1.0), 4096, 0.02),
    (spiral6, 2 ** 14, 0.0042),
    (spiral6, 2 ** 14, 0.0021),
    # and none of this one's: only offset 2 has chords <= d, and each arc is
    # its chord's only detour, all within rounding of the worst
    (curves.circle, 1024, 0.015),
    # chords around a corner node, whose arcs equal their worst detours
    (lambda: tight_corner_polygon(0.05), 1024, 0.2),
], ids=["circle", "circle-stride", "square", "square-stride", "ellipse",
        "spiral-fine", "spiral-coarse", "hairpin", "ellipse-fine",
        "spiral-gate-k11", "spiral-gate-k12", "circle-one-offset",
        "tight-corner"])
def test_conformality_bit_identical_to_loop(build, n, d):
    sc = curves.arclength_sample(build(), n)
    assert geometry.conformality_modulus(sc, d) == oracles.loop_conformality_modulus(sc, d)


def test_conformality_hairpin_offsets_have_a_gap():
    sc = curves.arclength_sample(hairpin_polygon(), 1024)
    offs = [off for off in range(2, sc.n // 2 + 1)
            if np.abs(np.roll(sc.points, -off) - sc.points).min() <= 0.2]
    assert offs[-1] - offs[0] + 1 > len(offs)


@pytest.mark.parametrize("build, n, d", [
    (curves.circle, 1024, 0.1),
    (lambda: curves.ellipse(2.0, 1.0), 1024, 0.3),
    (lambda: curves.polygon([0, 1, 1 + 1j, 1j]), 2048, 0.3),
    (spiral6, 4096, 0.01),
    (spiral6, 4096, 0.3),
    # on the hairpin at these scales the offsets with a chord <= d have a
    # gap, and the height is the last offset across the pinch, far above
    # the gap; the search from max_off reaches it in 5 and 6 probes
    (hairpin_polygon, 1024, 0.16),
    (hairpin_polygon, 1024, 0.25),
    # d below the grid spacing: no chord of offset >= 2 is that short
    (lambda: curves.ellipse(2.0, 1.0), 1024, 0.005),
], ids=["circle", "ellipse", "square", "spiral-fine", "spiral-coarse",
        "hairpin-0.16", "hairpin-0.25", "no-chord"])
def test_offset_search_skips_only_non_qualifying_offsets(build, n, d):
    # the grid the detour scan reads at chord scale d: every stride-th node
    sc = curves.arclength_sample(build(), n)
    stride = max(1, int(d / (48.0 * sc.spacing)))
    view = sc.points[::stride]
    max_off = min(len(view) // 2,
                  int(math.ceil(16.0 * d / (sc.spacing * stride))) + 1)
    full = full_offset_search(view, max_off, d)
    assert bool(full) == (d > sc.spacing)
    assert table_height(view, max_off, d) == (full[-1] if full else 0)


def full_offset_search(view, max_off, d):
    return [off for off in range(2, max_off + 1)
            if np.abs(np.roll(view, -off) - view).min() <= d]


def table_height(view, max_off, d):
    ext = np.concatenate([view, view[:2 * max_off]])
    return geometry._table_height(ext, len(view), max_off, d)


@pytest.mark.parametrize("build, n", [
    (curves.circle, 1024),
    (lambda: curves.polygon([0, 1, 1 + 1j, 1j]), 2048),
], ids=["circle", "square"])
def test_offset_search_moves_on_at_near_ties(build, n):
    # the shortest chord grows with the offset on these curves, so the
    # search steps down through every offset above off and then meets a
    # chord that exceeds d by less than the rounding slack: a jump computed
    # as floor of a negative number must not hold the search in place
    view = curves.arclength_sample(build(), n).points
    max_off = 24
    for off in range(2, 12):
        m0 = float(np.abs(np.roll(view, -off) - view).min())
        for d in (m0 * (1.0 - 1e-14), m0, m0 * (1.0 + 1e-14)):
            full = full_offset_search(view, max_off, d)
            assert table_height(view, max_off, d) == (full[-1] if full else 0)


def test_conformality_no_qualifying_chord_is_zero():
    sc = curves.arclength_sample(curves.ellipse(2.0, 1.0), 1024)
    d = 0.5 * sc.spacing
    assert geometry.conformality_modulus(sc, d) == 0.0
    assert oracles.loop_conformality_modulus(sc, d) == 0.0


@pytest.mark.parametrize("build, n, d, roll", [
    # the eps0 gate's levels k = 11 and 12 on spiral6 at 2^14 (43 and 21
    # blocks at this table size)
    (spiral6, 2 ** 14, 0.0042, 0),
    (spiral6, 2 ** 14, 0.0021, 0),
    # three blocks, the last two holding the chords across the pinch
    (hairpin_polygon, 1024, 0.2, 0),
    # the corner rolled to node 1000, in the last of three blocks
    (lambda: tight_corner_polygon(0.05), 1024, 0.2, -24),
], ids=["spiral-gate-k11", "spiral-gate-k12", "hairpin", "tight-corner-last"])
def test_detour_scan_max_independent_of_start_block(monkeypatch, build, n, d, roll):
    monkeypatch.setattr(geometry, "_TABLE_SIZE", 2 ** 13)
    sc = curves.arclength_sample(build(), n)
    sc = dataclasses.replace(sc, points=np.roll(sc.points, roll))
    want = oracles.loop_conformality_modulus(sc, d)
    for start in (0, sc.n // 2, sc.n - 1):  # first, middle and last block
        got, node = geometry._detour_defects(sc, d, start=start)
        assert got == want, start
        assert node is None, start


def bend_and_jog_polygon():
    """A 12-gon of unit edges and 30-degree turns with two features.  A
    fifth of the way round, its third edge holds a jog: two opposite
    45-degree turns 0.006 apart (about two cells of a 4096-node grid),
    whose chords have detour defect about 0.07 up to chord scales near
    0.15.  Its ninth edge, about 0.7 of the way round, is cut to 0.06, so
    that its two corners act as one 60-degree corner (defect 0.155) at
    chord scales well above 0.06 and as two of defect 0.035 below it.
    Base edges 3 and 6 take the lengths that close the polygon."""
    lens = np.ones(14)
    lens[2:5] = 0.45, 0.006, 0.55 - 0.006 * math.cos(math.pi / 4)
    lens[10] = 0.06
    turns = np.full(14, 30.0)
    turns[2:4] = 45.0, -45.0
    dirs = np.exp(1j * np.radians(np.concatenate([[0.0], np.cumsum(turns[:-1])])))
    fit = [5, 8]
    rest = np.ones(14, dtype=bool)
    rest[fit] = False
    gap = -(lens[rest] * dirs[rest]).sum()
    lens[fit] = np.linalg.solve([dirs[fit].real, dirs[fit].imag], [gap.real, gap.imag])
    return curves.polygon(np.cumsum(np.concatenate([[0.0], lens[:-1] * dirs[:-1]])))


def test_eps0_gate_wraps_to_blocks_before_the_start(monkeypatch):
    # Each gate level starts at the block of the previous level's rejecting
    # chord.  The bend rejects the levels with chord scales 0.31 and 0.15
    # (the jog also rejects the second, but the scan meets the bend first),
    # and at scale 0.077 only the jog, 2000 nodes before the bend, rejects:
    # with a table of 2^13 doubles that level runs in blocks of under 300
    # nodes, so only a scan that wraps round from the bend's block finds it.
    monkeypatch.setattr(geometry, "_TABLE_SIZE", 2 ** 13)
    scan = geometry._detour_defects
    levels = []

    def traced(sc, d, floor=0.0, start=0):
        worst, node = scan(sc, d, floor, start)
        levels.append((start, node))
        return worst, node

    monkeypatch.setattr(geometry, "_detour_defects", traced)
    sc = curves.arclength_sample(bend_and_jog_polygon(), 4096)
    bil = geometry.bilipschitz_constant(sc)
    gate = geometry.eps0_gate(sc, bil)
    assert any(node is not None and start - node > sc.n // 4
               for start, node in levels)
    assert gate == oracles.loop_eps0_gate(sc, bil)


def test_detour_scan_returns_from_its_pruned_phase(monkeypatch):
    # On the bend-and-jog polygon at n = 2048 and chord scale 0.1 (stride
    # 1, one node block) the best midpoint detour defect is 0.0353 and the
    # worst defect 0.0411.  With floor 0.04 no midpoint reaches the floor,
    # so the scan returns from its pruned phase, at a column the
    # polygonal-arc bound kept, with a defect the loop finds at that node
    sc = curves.arclength_sample(bend_and_jog_polygon(), 2048)
    z, n, d, floor = sc.points, sc.n, 0.1, 0.04
    max_off = min(n // 2, int(math.ceil(16.0 * d / sc.spacing)) + 1)
    offs = [off for off in range(2, max_off + 1)
            if np.abs(np.roll(z, -off) - z).min() <= d]

    def midpoint_defect(off):
        m, b = np.roll(z, -(off // 2)), np.roll(z, -off)
        chord = np.abs(b - z)
        return float(((np.abs(m - z) + np.abs(b - m)) / chord)[chord <= d].max()) - 1.0

    mid = max(midpoint_defect(off) for off in offs)
    assert mid < floor <= oracles.loop_conformality_modulus(sc, d)
    kept = []
    survivors = geometry._arc_survivors

    def traced(*args):
        kept.append(survivors(*args))
        return kept[-1]

    monkeypatch.setattr(geometry, "_arc_survivors", traced)
    worst, node = geometry._detour_defects(sc, d, floor=floor)
    assert node is not None and node in kept[-1]
    defects = [oracles.loop_detour_ratios(z, off, np.array([node]))[0] - 1.0
               for off in offs if abs(z[(node + off) % n] - z[node]) <= d]
    assert worst >= floor and worst in defects
    monkeypatch.undo()
    bil = geometry.bilipschitz_constant(sc)
    assert geometry.eps0_gate(sc, bil) == oracles.loop_eps0_gate(sc, bil)


# -- second differences and turning angles -----------------------------------

def test_second_difference_circle():
    p = curves.circle(1.0)
    for eps in [0.3, 0.05]:
        xs = np.linspace(0, 2 * math.pi, 17)
        vals = geometry.second_difference(p, xs, eps)
        assert np.max(np.abs(vals - 2.0 * (1.0 - math.cos(eps)))) < 1e-12


def test_second_difference_square_side_and_corner():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    eps = 0.1
    assert geometry.second_difference(p, 0.5, eps) == pytest.approx(0.0, abs=1e-14)
    assert geometry.second_difference(p, 1.0, eps) == pytest.approx(
        math.sqrt(2.0) * eps, abs=1e-12)


def test_omega2_argmax_square():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    xs = p.period * np.arange(4096) / 4096
    vals = geometry.second_difference(p, xs, 0.05)
    argx = xs[np.argmax(vals)]
    assert vals.max() == pytest.approx(math.sqrt(2.0) * 0.05, abs=1e-12)
    assert min(abs(argx - c) for c in p.meta["corners"]) < 1e-9


def test_omega2_upper_bound_invariant():
    p = curves.ellipse(2.0, 1.0)
    sc = curves.arclength_sample(p, 1024)
    bil = geometry.bilipschitz_constant(sc)
    xs = p.period * np.arange(2048) / 2048
    for eps in [p.period / 16, p.period / 64]:
        assert geometry.second_difference(p, xs, eps).max() <= 2.0 * bil * eps


def test_turning_angle_circle():
    p = curves.circle(1.0)
    for eps in [0.3, 0.01]:
        got = oracles.turning_angle(p, np.array([0.3, 2.0]), eps)
        assert np.max(np.abs(got - eps)) < 1e-12


def test_turning_angle_square():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    assert oracles.turning_angle(p, 0.5, 0.1) == pytest.approx(0.0, abs=1e-14)
    assert oracles.turning_angle(p, 1.0, 0.1) == pytest.approx(math.pi / 2, abs=1e-12)


def test_turning_angle_domain():
    p = curves.circle(1.0)
    with pytest.raises(DomainError):
        oracles.turning_angle(p, 0.0, 2 * math.pi)


# -- branch log ----------------------------------------------------------------

def test_branch_log_circle_exact():
    p = curves.circle(1.0)
    xs = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    for eps in [0.1, 0.01]:
        for x in xs:
            val = geometry.branch_log(p, float(x), eps)
            assert abs(val - 1j * eps) < 1e-10
        for _, _, score, ok in harness.criterion_scan(p, xs, [eps]).rows:
            assert ok
            assert score == pytest.approx(eps * abs(math.log(eps)), abs=1e-9)


def test_branch_log_straight_side_zero():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    val = geometry.branch_log(p, 0.5, 0.2)
    assert abs(val) < 1e-12


def test_branch_log_square_corner():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    for k in range(6, 11):
        eps = p.period * 2.0 ** (-k)
        val = geometry.branch_log(p, 1.0, eps)
        assert abs(abs(val) - math.pi / 2) < 1e-10
        (x, _, score, ok), = harness.criterion_scan(p, [1.0], [eps]).rows
        assert x == 1.0 and ok
        assert score == pytest.approx((math.pi / 2) * abs(math.log(eps)), abs=1e-8)


def test_branch_log_methods_agree():
    # the closed form against continuous argument unwrapping along the curve
    for p, x, eps in [(curves.circle(1.0), 0.7, 0.05),
                      (curves.ellipse(2.0, 1.0), 2.0, 0.05),
                      (curves.build_spiral(6), 0.9, 0.01)]:
        a = geometry.branch_log(p, x, eps)
        b = oracles._branch_log_unwrapped(p, x, eps)
        assert abs(a - b) < 1e-8


@pytest.mark.parametrize("name", ["spiral", "square", "ellipse"])
def test_branch_log_against_mpmath_log(name):
    # the closed form against a 40-digit Log(b/a) of the same half-chords,
    # at every criterion scan point of the shipped spec's configured levels
    import mpmath

    spec = Path(__file__).resolve().parent.parent / "specs" / f"{name}.cspec"
    doc = curvespec.parse_spec(spec.read_text())
    p = curvespec.build_from_document(doc)
    xs = harness.default_scan_params(p)
    with mpmath.workdps(40):
        for k in range(doc.get("experiment", "k_min"),
                       doc.get("experiment", "k_max") + 1):
            eps = p.period * 2.0 ** (-k)
            values, _ = geometry._branch_logs(p, xs, eps)
            z = p.point(xs)
            a = z - p.point(xs - eps)
            b = p.point(xs + eps) - z
            for val, ai, bi in zip(values, a, b):
                ref = mpmath.log(mpmath.mpc(bi.real, bi.imag)
                                 / mpmath.mpc(ai.real, ai.imag))
                err = abs(mpmath.mpc(val.real, val.imag) - ref)
                assert err <= 1e-15 * abs(ref)


def test_branch_log_ambiguity_on_slit():
    # degenerate back-and-forth slit: the two half-chords are anti-parallel
    def slit(x):
        x = np.asarray(x, dtype=float)
        y = np.abs(((x + 1.0) % 2.0) - 1.0)
        return y.astype(complex)

    p = curves.Parametrization(period=2.0, point=slit, kind="polygon")
    with pytest.raises(BranchAmbiguityError):
        geometry.branch_log(p, 0.0, 0.25)


# -- windowed constants ---------------------------------------------------------

def test_local_bilipschitz_straight_window():
    # a window on the square's first side, [0.3, 0.7]
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    xs = np.linspace(0.3, 0.7, 384)
    assert geometry._window_constant(xs, p.point(xs)) == pytest.approx(1.0, abs=1e-12)


def test_local_bilipschitz_circle_window():
    # the window's widest pair, 2 eps apart, has chord 2 sin(eps)
    p = curves.circle(1.0)
    rep = geometry.diagnostics(curves.arclength_sample(p, 256), k_min=3, k_max=8)
    assert [k for k, *_ in rep.local_bilip_table] == list(range(3, 9))
    for _, eps, got in rep.local_bilip_table:
        assert got == pytest.approx(eps / math.sin(eps), rel=1e-5)


def test_window_speed_range_rejects_coincident_points():
    # the curve stops at x = 0.5, so the window's right half is one point
    p = curves.Parametrization(
        period=2.0, point=lambda x: np.minimum(np.asarray(x, dtype=float), 0.5) + 0j,
        kind="polygon")
    with pytest.raises(DegenerateGeometryError):
        oracles.window_speed_range(p, 0.5, 0.1)


def test_window_speed_range_circle():
    p = curves.circle(1.0)
    lo, hi = oracles.window_speed_range(p, 0.0, 0.4)
    assert hi <= 1.0 + 1e-12
    assert lo == pytest.approx(math.sin(0.4) / 0.4, rel=1e-4)


def test_cosine_bound_invariant():
    # exact cosine law |D2|^2 = |a|^2 + |b|^2 - 2|a||b| cos(angle), with both
    # half-chord speeds inside the window extremes; the quadratic form is
    # convex, so its box maximum over [c, C]^2 sits at a corner
    for p in [curves.circle(1.0), curves.ellipse(2.0, 1.0),
              curves.build_spiral(6)]:
        eps = p.period / 256.0
        for x in np.linspace(0.1, p.period, 7):
            lo, hi = oracles.window_speed_range(p, float(x), eps)
            za = p.point(np.array([x])) - p.point(np.array([x - eps]))
            zb = p.point(np.array([x + eps])) - p.point(np.array([x]))
            amag, bmag = float(np.abs(za)[0]), float(np.abs(zb)[0])
            d2 = float(geometry.second_difference(p, np.array([x]), eps)[0])
            ang = float(oracles.turning_angle(p, float(x), eps))
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
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 2048)
    assert geometry.eps0_gate(sc, 2.0) is None


def test_eps0_gate_picks_its_own_grid_on_the_spiral():
    # the depth-6 spiral's defect falls below 0.05 only at scales that a
    # 4096-node grid's 8-cell floor cuts off; the gate measures them on
    # 2^16 nodes of the curve itself, as a run on this sample reports
    sc = curves.arclength_sample(spiral6(), 4096)
    bil = geometry.bilipschitz_constant(sc)
    assert geometry.eps0_gate(sc, bil) == 0.0009552201406216753


def traced_peak(fn, *args, **kwargs):
    """The traced peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_eps0_gate_memory_stays_under_7_mib():
    # the gate's own 2^16-node sample (3 MiB kept) sets its floor; the
    # detour scan's distance table and leg buffer take 2^17 doubles each:
    # traced 6.5 MiB, where tables of 2^19 doubles took 12.7 MiB
    sc = curves.arclength_sample(spiral6(), 4096)
    bil = geometry.bilipschitz_constant(sc)
    peak = traced_peak(geometry.eps0_gate, sc, bil)
    assert peak <= 7.0, peak


def test_diagnostics_memory_stays_under_9_mib():
    # the run's levels k = 3..16: p.point runs on groups of whole levels
    # of at most 2^16 parameters, the window constant on 64 offsets at a
    # time and the detour scan on tables of 2^17 doubles: traced 6.6 MiB,
    # where one p.point call on all 188,672 parameters, one table of the
    # window's 73,536 pairs and tables of 2^19 doubles took 14.2 MiB
    p = spiral6()
    sc = curves.arclength_sample(p, 4096)
    peak = traced_peak(geometry.diagnostics, sc, k_min=3, k_max=16)
    assert peak <= 9.0, peak


def test_eps0_gate_early_stop_matches_full_scans():
    # without its source the sample is gated on its own 2^14 nodes, the
    # grid the oracle scans (with the source the gate moves to 2^16)
    p = spiral6()
    sc = curves.arclength_sample(p, 2 ** 14)
    bil = geometry.bilipschitz_constant(curves.arclength_sample(p, 2048))
    expected = oracles.loop_eps0_gate(sc, bil)
    assert expected is not None
    assert geometry.eps0_gate(dataclasses.replace(sc, source=None), bil) == expected


@pytest.mark.parametrize("offset", [-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9])
def test_arc_bound_skips_no_chord_above_the_bar(offset):
    # Every chord that the polygonal-arc rule of the detour scan skips at
    # the gate's bar 0.05 has a loop defect of at most 0.05.  The chords
    # symmetric about the corner have arcs equal to their worst detours and
    # defects within 1e-9 of the bar, so only the rule's slack stops it from
    # skipping those above the bar.  The midpoint seeds, which find these
    # chords in the scan itself, play no part here.
    sc = curves.arclength_sample(tight_corner_polygon(0.05 + offset), 1024)
    z = sc.points
    edges = np.abs(np.roll(z, -1) - z)
    arc = edges.copy()
    every = np.ones(len(z), dtype=bool)
    for off in range(2, 33):
        arc += np.roll(edges, 1 - off)  # the scan's running sum, in its order
        chord = np.abs(np.roll(z, -off) - z)
        skipped = every.copy()
        skipped[geometry._arc_survivors(every, arc, chord, 0.05)] = False
        defect = oracles.loop_detour_ratios(z, off, np.flatnonzero(skipped)) - 1.0
        assert np.all(defect <= 0.05), (off, defect.max())


@pytest.mark.parametrize("offset", [-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9])
def test_eps0_gate_on_the_threshold_at_a_corner(offset):
    # the corner's defect sits within 1e-9 of the 0.05 threshold, where the
    # polygonal-arc bound is tight, on either side of it
    sc = curves.arclength_sample(tight_corner_polygon(0.05 + offset), 1024)
    bil = geometry.bilipschitz_constant(sc)
    gate = geometry.eps0_gate(sc, bil)
    assert gate == oracles.loop_eps0_gate(sc, bil)
    if abs(offset) >= 1e-12:
        assert (gate is None) == (offset > 0)


def test_diagnostics_report_and_csv():
    p = curves.circle(1.0)
    sc = curves.arclength_sample(p, 512)
    rep = geometry.diagnostics(sc, k_min=3, k_max=6)
    assert rep.chord_arc_const >= 1.0
    assert rep.bilip >= 1.0
    assert all(v >= 0.0 for _, _, v in rep.ac_table)
    for _, eps, val, _ in rep.omega2_table:
        assert val <= 2.0 * rep.bilip * eps
    rows = geometry.diagnostics_csv_rows(rep)
    assert rows[0] == "quantity,epsilon,value,arg_param"
    assert any(r.startswith("ac_modulus,T*2^-") for r in rows)
    assert any(r.startswith("omega2,T*2^-") for r in rows)


def test_diagnostics_past_the_two_cell_floor():
    # at n = 64 the floor 2h is T/32, so no level of k = 6..7 resolves: the
    # conformality table is empty and the other tables are written as usual
    p = curves.circle(1.0)
    sc = curves.arclength_sample(p, 64)
    rep = geometry.diagnostics(sc, k_min=6, k_max=7)
    assert rep.ac_table == ()
    assert [k for k, *_ in rep.omega2_table] == [6, 7]
    assert [k for k, *_ in rep.local_bilip_table] == [6, 7]
    rows = geometry.diagnostics_csv_rows(rep)
    assert not any(r.startswith("ac_modulus") for r in rows)
    assert rows[1].startswith("chord_arc_const,,")
    assert rows[2].startswith("bilipschitz,,")
    assert [r.split(",")[:2] for r in rows[3:]] == [
        ["omega2", "T*2^-6"], ["omega2", "T*2^-7"],
        ["local_bilip", "T*2^-6"], ["local_bilip", "T*2^-7"]]


def test_diagnostics_focus_tables_for_spiral():
    p = curves.build_spiral(5)
    sc = curves.arclength_sample(p, 1024)
    rep = geometry.diagnostics(sc, k_min=4, k_max=7)
    assert rep.omega2_focus_table  # near-focus table present
    assert rep.local_bilip_table
    for _, _, c_eps in rep.local_bilip_table:
        assert c_eps >= 1.0
