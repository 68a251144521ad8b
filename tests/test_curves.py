"""Tests for curve construction, patch profiles, and arc-length sampling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import oracles
from cauchylab import _quadrature, curves, curvespec
from cauchylab.errors import ConstructionError, DomainError


# -- smoothing kernel and profiles ------------------------------------------

# First absolute moment of the kernel, frozen from an independent adaptive
# quadrature of |u| c exp(-1/(1-u^2)) (abs tol < 1e-12).
ABS_MOMENT = 0.334453997709974


def test_kernel_normalization():
    mass, _ = quad(lambda u: float(curves.bump(np.array([u]))[0]), -1, 1,
                   epsabs=1e-13, limit=200)
    assert abs(mass - 1.0) < 1e-11


def test_bump_norm_matches_mpmath_quadrature():
    # BUMP_NORM is a literal; a 40-digit quadrature of exp(-1/(1-u^2)) puts
    # it 3.1e-16 relative from 1 / mass
    import mpmath

    with mpmath.workdps(40):
        mass = mpmath.quad(lambda u: mpmath.exp(-1 / (1 - u * u)), [-1, 0, 1])
        rel = abs(mpmath.mpf(curves.BUMP_NORM) * mass - 1)
    assert rel < 1e-15


def test_kernel_abs_moment_frozen():
    # the first absolute moment is twice the smoothed ramp at 0
    assert abs(2 * curves.bump_ramp(0.0) - ABS_MOMENT) < 1e-12


def test_corner_profile_values():
    spec = curves.PatchSpec(math.pi / 4)
    assert oracles.corner_profile(spec, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert oracles.corner_profile(spec, 0.1) == 0.0
    assert oracles.corner_profile(spec, 3 / 8) == pytest.approx(0.125, abs=1e-15)


def test_corner_profile_domain_error():
    spec = curves.PatchSpec(math.pi / 4)
    with pytest.raises(DomainError):
        oracles.corner_profile(spec, 1.2)
    with pytest.raises(DomainError):
        curves.mollified_profile(spec, -0.1)


def test_mollified_profile_matches_brute_force_convolution():
    spec = curves.PatchSpec(math.pi / 4, 1 / 200)

    def brute(t):
        val, _ = quad(
            lambda u: float(oracles.corner_profile(spec, np.clip(t - spec.xi * u, 0, 1))
                            * curves.bump(np.array([u]))[0]),
            -1, 1, epsabs=1e-12, limit=200)
        return val

    for t in [0.1, 0.2475, 0.25, 0.2525, 0.375, 0.499, 0.5, 0.62, 0.748, 0.752, 0.9]:
        assert curves.mollified_profile(spec, t) == pytest.approx(brute(t), abs=1e-10)


def test_mollified_profile_examples():
    spec = curves.PatchSpec(math.pi / 4, 1 / 200)
    assert curves.mollified_profile(spec, 0.1) == 0.0
    assert curves.mollified_profile(spec, 3 / 8) == pytest.approx(0.125, abs=1e-12)
    peak = 0.25 - spec.xi * math.tan(math.pi / 4) * ABS_MOMENT
    assert curves.mollified_profile(spec, 0.5) == pytest.approx(peak, abs=1e-10)


def test_mollified_profile_exact_outside_corner_neighborhoods():
    spec = curves.PatchSpec(0.5, 1 / 300)
    ts = np.concatenate([
        np.linspace(0.0, 0.25 - spec.xi, 40, endpoint=False),
        np.linspace(0.25 + spec.xi, 0.5 - spec.xi, 40),
        np.linspace(0.5 + spec.xi, 0.75 - spec.xi, 40),
        np.linspace(0.75 + spec.xi, 1.0, 40),
    ])
    assert np.max(np.abs(curves.mollified_profile(spec, ts)
                         - oracles.corner_profile(spec, ts))) < 1e-12


def test_patch_spec_validation():
    with pytest.raises(DomainError):
        curves.PatchSpec(0.0)
    with pytest.raises(DomainError):
        curves.PatchSpec(math.pi / 2)
    with pytest.raises(DomainError):
        curves.PatchSpec(0.5, xi=0.02)


# -- smoothed patches --------------------------------------------------------

def test_patch_straight_pieces_exact():
    # the four straight pieces run between every other zone boundary, and
    # on them the smoothed profile is the corner profile, a straight line
    spec = curves.PatchSpec(0.5, 1 / 200)
    bounds = curves._patch_boundaries(spec.xi)
    for t0, t1 in zip(bounds[0::2], bounds[1::2]):
        y0, y1 = oracles.corner_profile(spec, t0), oracles.corner_profile(spec, t1)
        assert curves.mollified_profile(spec, t0) == pytest.approx(y0, abs=1e-12)
        assert curves.mollified_profile(spec, t1) == pytest.approx(y1, abs=1e-12)
        tm = 0.5 * (t0 + t1)
        ym = 0.5 * (y0 + y1)
        assert curves.mollified_profile(spec, tm) == pytest.approx(ym, abs=1e-12)


def test_patch_endpoints_and_midpoint():
    spec = curves.PatchSpec(math.pi / 4)
    assert curves.mollified_profile(spec, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert curves.mollified_profile(spec, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert curves.mollified_profile(spec, 0.5) < 0.25 * math.tan(math.pi / 4)


def test_patch_convexity_pattern():
    spec = curves.PatchSpec(0.5, 1 / 200)
    xi = spec.xi
    for (a, b, sign) in [(0.25 - xi, 0.25 + xi, 1.0),
                         (0.5 - xi, 0.5 + xi, -1.0),
                         (0.75 - xi, 0.75 + xi, 1.0)]:
        t = np.linspace(a, b, 400)
        lam = curves.mollified_profile(spec, t)
        second = lam[2:] - 2 * lam[1:-1] + lam[:-2]
        assert np.all(sign * second > -1e-15)


def test_patch_shortening_bounds():
    for angle in [0.5, 0.25, 0.125, 0.0625]:
        shortening, = curves._patch_shortenings(1 / 200, [angle])
        assert 0.0 <= shortening <= 2.0 * math.tan(angle)


def test_patch_arclength_against_quadrature():
    # the smoothed bump's length is the corner profile's less the shortening
    spec = curves.PatchSpec(0.5, 1 / 200)
    corner_length = 0.5 + 0.5 / math.cos(spec.angle)
    length = corner_length - curves._patch_shortenings(spec.xi, [spec.angle])[0]
    ref, _ = quad(lambda t: math.sqrt(1.0 + float(curves.mollified_slope(spec, t)) ** 2),
                  0.0, 1.0, epsabs=1e-11, limit=400,
                  points=list(curves._patch_boundaries(spec.xi)))
    assert length == pytest.approx(ref, abs=1e-9)


# -- scale sequence ----------------------------------------------------------

def test_half_diameter_base_case():
    assert curves.patch_half_diameter(1) == 0.5


def test_half_diameter_second_value():
    assert curves.patch_half_diameter(2) == pytest.approx(0.125 / math.cos(1.0), rel=1e-14)


def test_half_diameter_dyadic_bound():
    for m in range(1, 14):
        assert curves.patch_half_diameter(m) <= 2.0 ** (-m)


def test_half_diameter_guard():
    with pytest.raises(DomainError):
        curves.patch_half_diameter(10 ** 6 + 1)


# -- builtin curves ----------------------------------------------------------

def test_circle_parametrization():
    c = curves.circle(1.0)
    assert c.period == pytest.approx(2 * math.pi)
    x = np.linspace(0, 2 * math.pi, 17)
    assert np.max(np.abs(c.point(x) - np.exp(1j * x))) < 1e-15


def test_unit_square_corners():
    sq = curves.polygon([0, 1, 1 + 1j, 1j])
    assert sq.period == pytest.approx(4.0)
    corners = sq.meta["corners"]
    assert corners == (0.0, 1.0, 2.0, 3.0)
    pts = sq.point(np.array(corners))
    verts = np.array(sq.meta["vertices"])
    assert np.max(np.abs(pts - verts)) < 1e-14


def test_polygon_orientation_normalized():
    ccw = curves.polygon([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    cw = curves.polygon([0.0, 1.0j, 1.0 + 1.0j, 1.0])
    s = np.linspace(0, 4.0, 64, endpoint=False)
    za, zb = ccw.point(s), cw.point(s)
    area = lambda z: float(np.sum((np.conj(z) * (np.roll(z, -1) - z)).imag))
    assert area(za) > 0 and area(zb) > 0


def test_polygon_validation():
    with pytest.raises(DomainError):
        curves.polygon([0.0, 1.0])
    with pytest.raises(DomainError):
        curves.polygon([0.0, 1.0, 2.0])  # collinear
    with pytest.raises(DomainError):
        curves.polygon([0.0, 0.0, 1.0])  # zero edge


def test_ellipse_unit_speed_and_perimeter():
    e = curves.ellipse(2.0, 1.0)
    ref, _ = quad(lambda t: math.sqrt(4 * math.sin(t) ** 2 + math.cos(t) ** 2),
                  0, 2 * math.pi, epsabs=1e-12, limit=200)
    assert e.period == pytest.approx(ref, abs=1e-10)
    s = np.linspace(0, e.period, 500, endpoint=False)
    d = 1e-6
    speeds = np.abs(e.point(s + d) - e.point(s)) / d
    assert np.max(np.abs(speeds - 1.0)) < 1e-8


def test_builtin_curve_dispatch_and_validation():
    assert curves.builtin_curve("circle", radius=2.0).kind == "circle"
    assert curves.builtin_curve("ellipse", a=2.0, b=1.0).kind == "ellipse"
    square = curves.builtin_curve("polygon", vertices=(0, 0, 1, 0, 1, 1, 0, 1))
    assert square.kind == "polygon" and square.period == pytest.approx(4.0)
    assert curves.builtin_curve("graph-closure", coeffs=(0.3,)).kind == "graph-closure"
    assert curves.builtin_curve("spiral", depth=2, xi=0.005).kind == "spiral"
    with pytest.raises(DomainError):
        curves.builtin_curve("circle", radius=-1.0)
    with pytest.raises(DomainError):
        curves.builtin_curve("torus", radius=1.0)
    with pytest.raises(TypeError, match="colour"):
        curves.builtin_curve("circle", radius=1.0, colour=2.0)
    with pytest.raises(TypeError, match="'b'"):
        curves.builtin_curve("ellipse", a=2.0)


# -- clamped splines: scipy's CubicSpline is the bit-for-bit oracle ----------

def _spline_probes(x):
    """The knots, two points inside every interval, points just outside
    and one interval beyond both ends, and NaN."""
    h = np.diff(x)
    return np.concatenate((
        x, x[:-1] + 0.5 * h, x[:-1] + 0.3 * h,
        [x[0] - h[0], np.nextafter(x[0], -np.inf),
         np.nextafter(x[-1], np.inf), x[-1] + h[-1], np.nan]))


def _assert_scipy_bits(spline, x, y, d0, d1):
    want = CubicSpline(x, y, bc_type=((1, d0), (1, d1)))
    v = _spline_probes(x)
    assert np.array_equal(spline(v), want(v), equal_nan=True)


def _assert_zone_splines_match_scipy(zone):
    # the one spline _SplineZone fitted with scipy: t(s)
    t_knots, s_knots, v0, v1 = zone._knots
    _assert_scipy_bits(zone._t_of_s, s_knots, t_knots, 1.0 / v0, 1.0 / v1)


_SPLINE_ZONE = curves._SplineZone


def _spline_zones(monkeypatch, build):
    """Every _SplineZone the builder makes."""
    zones = []

    class Recorded(_SPLINE_ZONE):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            zones.append(self)

    monkeypatch.setattr(curves, "_SplineZone", Recorded)
    build()
    return zones


_SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_shipped_zone_splines_match_scipy_bit_for_bit(monkeypatch):
    # the circle and the square build no spline zone; the ellipse builds
    # one, the spiral and the default graph closure build the rest
    docs = [curvespec.parse_spec(path.read_text())
            for path in sorted(_SPECS.glob("*.cspec"))]
    docs.append(curvespec.default_document("graph-closure"))
    zones = {doc.kind: _spline_zones(
        monkeypatch, lambda: curvespec.build_from_document(doc)) for doc in docs}
    assert {k: len(z) for k, z in zones.items()} == {
        "circle": 0, "ellipse": 1, "graph-closure": 24, "polygon": 0, "spiral": 26}
    for kind_zones in zones.values():
        for zone in kind_zones:
            _assert_zone_splines_match_scipy(zone)


def test_wide_ellipse_spline_pivots_and_matches_scipy(monkeypatch):
    # the first row of the clamped knot system is (1, 0 | slope); with a
    # knot gap in s above 1 (b = 1500: 1500 * 2 pi / 8192 = 1.15) dgtsv
    # swaps it with the second row.  At b = 1000 the gap is 0.77, no swap.
    zones = _spline_zones(monkeypatch, lambda: curves.ellipse(2000.0, 1500.0))
    assert len(zones) == 1
    s_knots = zones[0]._knots[1]
    assert s_knots[2] - s_knots[1] > 1.0
    _assert_zone_splines_match_scipy(zones[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 300])
def test_clamped_spline_matches_scipy_on_random_knots(n):
    # spacings from 1e-4 to 1e4 within one knot set, so rows swap
    rng = np.random.default_rng(n)
    for _ in range(25):
        x = rng.normal() + np.concatenate(
            ([0.0], np.cumsum(10.0 ** rng.uniform(-4.0, 4.0, n - 1))))
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        d0, d1 = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
        _assert_scipy_bits(curves._ClampedSpline(x, y, d0, d1), x, y, d0, d1)


# prints the points of a depth-6 spiral at 65,536 parameters as raw bytes
_SPIRAL_POINTS = (
    "import sys; import numpy as np; from cauchylab import curves; "
    "p = curves.build_spiral(6); "
    "sys.stdout.buffer.write("
    "p.point(np.linspace(0.0, p.period, 65536, endpoint=False)).tobytes())")


def test_spiral_kernel_sharing_is_bit_exact_and_stateless():
    # a build computes its corner kernel values once and keeps nothing: a
    # build after one of another depth and width, and a build in a fresh
    # process, give the first build's points bit for bit
    first = curves.build_spiral(6)
    x = np.linspace(0.0, first.period, 65536, endpoint=False)
    want = first.point(x).tobytes()
    other = curves.build_spiral(4, xi=1 / 300)
    assert other.period != first.period
    again = curves.build_spiral(6)
    assert again.period == first.period
    assert again.point(x).tobytes() == want
    src = str(Path(curves.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SPIRAL_POINTS], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_corner_zones_match_the_public_profile_bit_for_bit():
    # each corner zone's knot arc lengths and end speeds, taken from the
    # build's shared kernel tables, are those of a speed built from the
    # public mollified_slope; its points (no domain check) are those of
    # the public mollified_profile
    p = curves.build_spiral(6)
    zones = [z for z in curves._spiral_engine(p).zones
             if isinstance(z, curves._SplineZone) and z.patch_index > 0]
    assert len(zones) == 18
    for zone in zones:
        j = zone.patch_index
        spec = p.meta["patches"][j - 1]
        off = p.meta["patch_offsets"][j - 1]
        mult = p.meta["patch_multipliers"][j - 1]

        def speed(t):
            return abs(mult) * np.sqrt(1.0 + curves.mollified_slope(spec, t) ** 2)

        t_knots, s_knots, v0, v1 = zone._knots
        nodes = _quadrature.cumulative_nodes(t_knots)
        arcs = _quadrature.cumulative_gauss(
            speed(nodes.ravel()).reshape(nodes.shape), t_knots)
        assert s_knots.tobytes() == arcs.tobytes(), j
        assert v0 == speed(t_knots[:1])[0] and v1 == speed(t_knots[-1:])[0], j
        ds = np.linspace(0.0, zone.length, 33)
        t = zone.t_at(ds)
        profile = off + mult * (t + 1j * curves.mollified_profile(spec, t))
        assert zone.point(ds).tobytes() == profile.tobytes(), j


# -- periodicity / injectivity invariants ------------------------------------

BUILDERS = {
    "circle": lambda: curves.circle(1.0),
    "ellipse": lambda: curves.ellipse(2.0, 1.0),
    "square": lambda: curves.polygon([0, 1, 1 + 1j, 1j]),
    "graph": lambda: curves.graph_closure([0.3, 0.05]),
    "spiral": lambda: curves.build_spiral(6),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_periodicity(name):
    p = BUILDERS[name]()
    x = np.linspace(0.0, p.period, 257)
    tol = 1e-12 if name in ("circle", "square") else 1e-9
    assert np.max(np.abs(p.point(x + p.period) - p.point(x))) < tol


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_injectivity_at_4096(name):
    p = BUILDERS[name]()
    sc = curves.arclength_sample(p, 4096)
    pts = sc.points
    closest = np.inf
    for off in range(2, 2048):
        d = np.abs(np.roll(pts, -off) - pts)
        closest = min(closest, float(d.min()))
    assert closest > 1e-9


# -- sampling ----------------------------------------------------------------

def test_circle_sample_weights_uniform():
    sc = curves.arclength_sample(curves.circle(1.0), 4096)
    assert np.max(np.abs(sc.weights - 2 * math.pi / 4096)) < 1e-10


def test_square_sample_total_weight():
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 4096)
    assert abs(sc.length - 4.0) < 1e-9


def test_sample_weights_positive_and_tangent_shape():
    sc = curves.arclength_sample(curves.ellipse(2.0, 1.0), 512)
    assert np.all(sc.weights > 0)
    assert np.max(np.abs(np.abs(sc.tangents) - 1.0)) < 1e-3


def test_sample_grid_doubling_cauchy():
    p = curves.ellipse(2.0, 1.0)
    l1 = curves.arclength_sample(p, 1024).length
    l2 = curves.arclength_sample(p, 2048).length
    assert abs(l1 - l2) / l2 < 1e-6


def test_spiral_sample_grid_doubling():
    p = curves.build_spiral(8)
    l1 = curves.arclength_sample(p, 2 ** 16).length
    l2 = curves.arclength_sample(p, 2 ** 17).length
    assert abs(l1 - l2) / l2 < 1e-4


def test_sample_under_resolution_warning():
    p = curves.build_spiral(8)
    sc = curves.arclength_sample(p, 1024)
    assert sc.warnings and "under-resolved" in sc.warnings[0]
    shallow = curves.build_spiral(5)
    fine = curves.arclength_sample(shallow, 2 ** 13)
    assert not fine.warnings


def test_sample_rejects_tiny_grid():
    with pytest.raises(DomainError):
        curves.arclength_sample(curves.circle(1.0), 8)


def test_curve_csv_export(tmp_path):
    sc = curves.arclength_sample(curves.circle(1.0), 16)
    path = tmp_path / "curve.csv"
    curves.write_curve_csv(sc, path)
    text = path.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == "param,x,y,tx,ty,weight"
    assert len(lines) == 18 and lines[-1] == ""
    assert "\r" not in text
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10000])
def test_write_lines_joins_across_its_chunks(tmp_path, count):
    # each line followed by LF, so nothing for no lines
    lines = [f"row{i}" for i in range(count)]
    path = tmp_path / "rows.txt"
    curves.write_lines(path, lines)
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


# -- spiral ------------------------------------------------------------------

def test_spiral_spec_validation():
    with pytest.raises(DomainError):
        curves.build_spiral(0)
    with pytest.raises(DomainError):
        curves.build_spiral(4, xi=0.02)


def test_spiral_depth_one_single_patch():
    p = curves.build_spiral(1)
    assert p.meta["depth"] == 1
    # no gluing: sole patch carries zero rotation
    assert p.meta["patch_multipliers"] == (1 + 0j,)


def test_spiral_gluing_rotations_are_harmonic():
    p = curves.build_spiral(8)
    mults = p.meta["patch_multipliers"]
    for n in range(1, 9):
        expected = sum(1.0 / j for j in range(1, n))
        assert np.angle(mults[n - 1]) == pytest.approx(expected, abs=1e-12)


def test_spiral_subpatch_diameters_match_scale():
    p = curves.build_spiral(8)
    for n in range(1, 9):
        poly = curves.spiral_patch_polyline(p, n, 2048)
        ends = abs(poly[-1] - poly[0])
        sub = np.concatenate([poly[::8], poly[-1:]])
        diam = float(np.abs(sub[:, None] - sub[None, :]).max())
        diam = max(diam, float(ends))
        assert diam == pytest.approx(2.0 * curves.patch_half_diameter(n), rel=1e-3)


def test_spiral_tail_series_matches_measured_arc_excess():
    p = curves.build_spiral(8)
    for k in [3, 5, 7]:
        x1 = curves.spiral_patch_param(p, k, 0.10)
        x2 = curves.spiral_patch_param(p, k, 0.90)
        sep = abs(x2 - x1)
        sep = min(sep, p.period - sep)
        chord = abs(p.point(np.array([x2]))[0] - p.point(np.array([x1]))[0])
        r_formula, _ = curves.spiral_tail_series(p, k)
        assert r_formula == pytest.approx(sep - chord, abs=1e-12)


def test_spiral_tail_ratios_shrink():
    p = curves.build_spiral(12)
    ratios_r, ratios_h = [], []
    for k in range(6, 12):
        r, h = curves.spiral_tail_series(p, k)
        l = curves.patch_half_diameter(k)
        ratios_r.append(r / l)
        ratios_h.append(h / l)
    assert all(x < 0.1 for x in ratios_r)
    assert all(np.diff(ratios_r) < 0)
    assert all(np.diff(ratios_h) < 0)


def test_spiral_geometric_series_bound():
    # truncated tail sum obeys the closed-form geometric bound per level
    for depth, k in [(12, 6), (12, 9)]:
        lk = curves.patch_half_diameter(k)
        tail = sum(curves.patch_half_diameter(j) for j in range(k + 1, depth + 1))
        alpha = 1.0 / k
        bound = 12.0 * math.cos(alpha) / (4.0 * math.cos(alpha) - 1.0) - 3.0
        assert 3.0 * tail / lk <= bound + 1e-12


_BUILDERS = {
    "circle": lambda: curves.circle(1.0),
    "ellipse": lambda: curves.ellipse(2.0, 1.0),
    "polygon": lambda: curves.polygon([0, 1, 1 + 1j, 1j]),
    "graph-closure": lambda: curves.graph_closure([0.3, 0.05]),
    "spiral-1": lambda: curves.build_spiral(1),
    "spiral-6": lambda: curves.build_spiral(6),
    "spiral-15": lambda: curves.build_spiral(15),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_every_builder_is_positively_oriented_and_closed(name):
    # the graph closure and the spiral run their zone chains backwards with
    # no orientation test, so this pins that the result is counter-clockwise
    p = _BUILDERS[name]()
    z = p.point(np.linspace(0.0, p.period, 8193))
    assert abs(z[0] - z[-1]) < 1e-9
    area2 = float(np.sum((np.conj(z[:-1]) * (z[1:] - z[:-1])).imag))
    assert area2 > 0


def test_spiral_closure_stays_low_and_closes():
    p = curves.build_spiral(4)
    x = np.linspace(0, p.period, 4097)
    z = p.point(x)
    assert abs(z[0] - z[-1]) < 1e-9
    # positively oriented
    area2 = float(np.sum((np.conj(z[:-1]) * (z[1:] - z[:-1])).imag))
    assert area2 > 0


def test_spiral_zones_land_on_their_profiles():
    # A corner zone is a 65-knot clamped spline t(s) in its local
    # parameter t.  At the knots the round trip t -> arc length -> t is
    # exact to rounding, so the point is the profile point at t.  Between
    # knots the arc length is t(s) inverted by bisection, so the round trip
    # is exact to rounding too (7.8e-14 at most here), and the point must
    # still lie on the profile graph.
    depth = 6
    p = curves.build_spiral(depth)
    xi = p.meta["xi"]
    for j in range(1, depth + 1):
        spec = p.meta["patches"][j - 1]
        off = p.meta["patch_offsets"][j - 1]
        mult = p.meta["patch_multipliers"][j - 1]

        def local(t):
            s = curves.spiral_patch_param(p, j, t)
            return (p.point(np.array([s]))[0] - off) / mult

        corners = (0.25, 0.5, 0.75)
        on_knots = [float(t) for c in corners
                    for t in np.linspace(c - xi, c + xi, 65)[[16, 32, 48]]]
        for t in on_knots + [0.625]:  # 0.625: the falling straight piece
            want = t + 1j * curves.mollified_profile(spec, t)
            assert abs(local(t) - want) <= 1e-12, (j, t)
        for t in [c + d * xi for c in corners for d in (-0.7, 0.3)]:
            w = local(t)
            assert abs(w.real - t) <= 1e-13, (j, t)
            assert abs(w.imag - curves.mollified_profile(spec, w.real)) <= 1e-12, (j, t)


def test_spiral_limit_point_and_focus():
    p = curves.build_spiral(10)
    z0 = oracles.spiral_limit_point(10)
    x0 = p.meta["focus_param"]
    znear = p.point(np.array([x0]))[0]
    assert abs(znear - z0) < 4.0 * curves.patch_half_diameter(10)


def test_spiral_deep_separation_guard_trips_when_too_deep():
    # depth 16 folds fall under the 1e-9 separation tolerance
    with pytest.raises(ConstructionError):
        curves.build_spiral(16)


def test_patch_angle_arc_chord_bound():
    # points on one smoothed bump: arc <= chord / cos(angle)
    for angle in (0.5, 0.25):
        spec = curves.PatchSpec(angle)
        t = np.linspace(0.0, 1.0, 1200)
        pts = t + 1j * curves.mollified_profile(spec, t)
        seg = np.abs(np.diff(pts))
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        worst = 0.0
        for off in range(1, 1199, 7):
            arc = cum[off:] - cum[:-off]
            chord = np.abs(pts[off:] - pts[:-off])
            worst = max(worst, float(np.max(arc / chord)))
        assert worst <= 1.0 / math.cos(angle) + 1e-9


def test_spiral_deep_pairs_meet_chain_bound():
    # pairs inside the union of bumps at depth >= k: the measured arc-chord
    # sup stays under 1/cos(a_k) + 4 h_{k+1}/(cos(a_k) L_{k+1}) + 4 R_{k+1}/L_{k+1}
    p = curves.build_spiral(12)
    xi = p.meta["xi"]
    for k in (5, 7):
        lo = curves.spiral_patch_param(p, k, 0.25 + xi)
        hi = curves.spiral_patch_param(p, k, 0.5 - xi)
        lo, hi = min(lo, hi), max(lo, hi)
        xs = np.linspace(lo, hi, 500)
        pts = p.point(xs)
        worst = 0.0
        for off in range(1, 499):
            arc = xs[off:] - xs[:-off]
            chord = np.abs(pts[off:] - pts[:-off])
            worst = max(worst, float(np.max(arc / chord)))
        r_next, h_next = curves.spiral_tail_series(p, k + 1)
        l_next = curves.patch_half_diameter(k + 1)
        alpha = 1.0 / k
        bound = (1.0 / math.cos(alpha)
                 + 4.0 * h_next / (math.cos(alpha) * l_next)
                 + 4.0 * r_next / l_next)
        assert worst <= bound


def test_spiral_window_constant_trend():
    # (1 - 1/C_eps) |log eps|^2 stays in a narrow band near the focus
    p = curves.build_spiral(12)
    from cauchylab import geometry
    x0 = p.meta["focus_param"]
    scores = []
    for k in range(6, 15):
        eps = p.period * 2.0 ** (-k)
        c_eps = geometry.local_bilipschitz(p, x0, eps)
        scores.append((1.0 - 1.0 / c_eps) * math.log(eps) ** 2)
    assert max(scores) / min(scores) <= 3.0
