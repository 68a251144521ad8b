"""Construction and sampling of closed chord-arc test curves.

Curve families: circles and ellipses (analytic), corner polygons (the
deliberate counterexample family, never smoothed), smooth graph closures,
and a recursive spiral assembled from smoothed triangular bumps whose
opening angles decay harmonically.  All builders emit unit-speed
parametrizations; non-analytic curves are backed by per-zone cumulative
arc-length splines with clamped end derivatives.  The clamped spline is
in-house numpy code that matches scipy's ``CubicSpline`` bit for bit.

The spiral's bumps share one smoothing width, so in local patch
coordinates they share every kernel argument: a build computes the
corner-zone kernel values once per corner shape (and those of the
shortenings and the separation check once per parameter set) and derives
every bump's slopes, speeds and profiles from them with the arithmetic of
``mollified_slope`` and ``mollified_profile``.  Nothing is kept between
builds.

``builtin_curve(kind, **keys)`` is the one dispatch from a curve kind to
its builder: a table keyed by kind that passes the [curve] keys of a .cspec
file by their spec names.

The curve export goes through ``_csvtext.csv_block``, the numpy block
formatter of every large CSV table, which writes the bytes of
``'%.17g' % x`` for whole columns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ._quadrature import (_GL96, cumulative_gauss, cumulative_nodes, panel_nodes,
                          panel_sum)
from .errors import ConstructionError, DegenerateGeometryError, DomainError

__all__ = [
    "PatchSpec",
    "Parametrization",
    "SampledCurve",
    "mollified_profile",
    "mollified_slope",
    "patch_half_diameter",
    "build_spiral",
    "spiral_patch_polyline",
    "spiral_patch_param",
    "spiral_corner_params",
    "spiral_tail_series",
    "circle",
    "ellipse",
    "polygon",
    "graph_closure",
    "builtin_curve",
    "arclength_sample",
    "write_curve_csv",
    "write_lines",
    "write_text",
]


# ---------------------------------------------------------------------------
# Smoothing kernel: the classical bump c*exp(-1/(1-u^2)) on (-1, 1),
# normalized to unit mass.  All profile evaluations reduce to its cdf and
# to ramp(w) = integral of (w-u)*eta(u) over u < w.


def _bump_raw(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


# 1 / integral of exp(-1/(1-u^2)) over (-1, 1) as an adaptive quadrature
# gave it; a 40-digit quadrature puts it 3.1e-16 relative (two ulps) high
BUMP_NORM = 2.2522836210435817


def bump(u):
    """Normalized smoothing kernel (even, positive, unit mass, support [-1,1])."""
    return BUMP_NORM * _bump_raw(u)


def _bump_panel(w, moment):
    """Vector GL panel of u^moment-weighted kernel integrals over [-1, w]."""
    w = np.asarray(w, dtype=float)
    wc = np.clip(w, -1.0, 1.0)
    nodes, weights = _GL96
    half = 0.5 * (wc + 1.0)
    mid = 0.5 * (wc - 1.0)
    u = mid[..., None] + half[..., None] * nodes
    vals = bump(u)
    if moment == "cdf":
        integrand = vals
    else:  # ramp: (w - u) * eta(u)
        integrand = (wc[..., None] - u) * vals
    return (integrand * weights).sum(axis=-1) * half


def bump_cdf(w):
    """Integral of the kernel over (-1, w]; equals 1 for w >= 1."""
    w = np.asarray(w, dtype=float)
    return np.where(w >= 1.0, 1.0, np.where(w <= -1.0, 0.0, _bump_panel(w, "cdf")))


def bump_ramp(w):
    """Smoothed positive-part ramp: integral of (w-u)+ against the kernel.

    Equals w for w >= 1 (unit mass, zero first moment) and 0 for w <= -1.
    """
    w = np.asarray(w, dtype=float)
    body = _bump_panel(w, "ramp")
    return np.where(w >= 1.0, w, np.where(w <= -1.0, 0.0, body))


# ---------------------------------------------------------------------------
# Smoothed-bump profiles.  A bump's profile has one branch per corner apex
# 1/4, 1/2, 3/4, and each branch is tan(angle) times a kernel value at
# w = (t - apex)/xi (mirrored at 3/4).  The kernel values at fixed t and xi
# therefore serve every opening angle.


@dataclass(frozen=True)
class PatchSpec:
    """One smoothed triangular bump: opening angle and smoothing width."""

    angle: float
    xi: float = 1.0 / 200.0

    def __post_init__(self):
        if not 0.0 < self.angle < math.pi / 2.0:
            raise DomainError(f"patch angle must be in (0, pi/2), got {self.angle}")
        if not 0.0 < self.xi < 0.01:
            raise DomainError(f"smoothing width xi must satisfy 0 < xi < 1/100, got {self.xi}")


def _check_unit_interval(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
        raise DomainError("profile parameter must lie in [0, 1]")
    return np.clip(t, 0.0, 1.0)


def _branches(t):
    """(apex, mask) of the profile's three branches over an array t."""
    left = t < 0.375
    right = t > 0.625
    return ((0.25, left), (0.75, right), (0.5, ~(left | right)))


def _kernel_arg(apex, t, xi):
    return (0.75 - t) / xi if apex == 0.75 else (t - apex) / xi


def _cdf_value(apex, w):
    return bump_cdf(w)


def _ramp_value(apex, w):
    """The smoothed ramp of a branch; the cap at 1/2 takes both sides."""
    return bump_ramp(w) + bump_ramp(-w) if apex == 0.5 else bump_ramp(w)


def _branch_slope(apex, tn, xi, cdf):
    if apex == 0.25:
        return tn * cdf
    if apex == 0.75:
        return -tn * cdf
    return tn * (1.0 - 2.0 * cdf)


def _branch_profile(apex, tn, xi, ramp):
    if apex == 0.5:
        return tn * (0.25 - xi * ramp)
    return tn * xi * ramp


def _at_params(t, xi, kernel, branch):
    """One profile quantity at parameters t in [0, 1] of every bump of
    width xi, as a function of tan(angle): the kernel values are computed
    here, once, and each call makes only the branch arithmetic."""
    # skip absent branches: a corner zone's parameters lie on one branch
    parts = [(apex, mask, kernel(apex, _kernel_arg(apex, t[mask], xi)))
             for apex, mask in _branches(t) if mask.any()]

    def at_angle(tn):
        out = np.empty_like(t)
        for apex, mask, k in parts:
            out[mask] = branch(apex, tn, xi, k)
        return out

    return at_angle


def _slopes_at(t, xi):
    return _at_params(t, xi, _cdf_value, _branch_slope)


def _profiles_at(t, xi):
    return _at_params(t, xi, _ramp_value, _branch_profile)


def mollified_profile(spec: PatchSpec, t):
    """Corner profile convolved with the unit-mass kernel of width xi.

    Agrees with the unsmoothed profile exactly outside xi-neighborhoods of
    the three corner abscissas 1/4, 1/2, 3/4.
    """
    return _profiles_at(_check_unit_interval(t), spec.xi)(math.tan(spec.angle))


def mollified_slope(spec: PatchSpec, t):
    """Derivative of the smoothed profile (kernel cdf in the corner zones)."""
    return _slopes_at(_check_unit_interval(t), spec.xi)(math.tan(spec.angle))


def _patch_boundaries(xi):
    return (0.0, 0.25 - xi, 0.25 + xi, 0.5 - xi, 0.5 + xi, 0.75 - xi, 0.75 + xi, 1.0)


def _patch_shortenings(xi, angles) -> tuple:
    """Arc length the smoothing takes off each bump of width xi and the
    given opening angles: the corner profile's length 1/2 + 1/(2 cos(angle))
    less the smoothed profile's, measured by one Gauss panel per smooth
    zone.  The kernel values at the panel nodes serve every angle."""
    bounds = _patch_boundaries(xi)
    panels = [(a, b, _slopes_at(panel_nodes(a, b), xi))
              for a, b in zip(bounds[:-1], bounds[1:])]
    out = []
    for angle in angles:
        tn = math.tan(angle)
        length = 0.0
        for a, b, slope in panels:
            length += panel_sum(np.sqrt(1.0 + slope(tn) ** 2), a, b)
        out.append((0.5 + 0.5 / math.cos(angle)) - float(length))
    return tuple(out)


def _spiral_angle(j: int) -> float:
    """Opening angle of the spiral's j-th bump."""
    return 1.0 / j


def patch_half_diameter(n: int) -> float:
    """Half-diameter of the n-th rescaled bump: 2^(1-2n) / prod cos(1/j)."""
    if n < 1:
        raise DomainError("patch index must be >= 1")
    if n > 10 ** 6:
        raise DomainError("patch index too large; the scale would underflow far past float range")
    log_l = (1 - 2 * n) * math.log(2.0)
    for j in range(1, n):
        log_l -= math.log(math.cos(_spiral_angle(j)))
    if log_l < -745.0:
        return 0.0
    return math.exp(log_l)


# ---------------------------------------------------------------------------
# Parametrizations and sampling.


@dataclass(frozen=True)
class Parametrization:
    """A periodic plane curve: arc length -> complex point, plus metadata.

    Every builder returns a unit-speed map; the sampler and the windowed
    constants read the parameter as arc length.
    """

    period: float
    point: Callable
    kind: str
    meta: Mapping = field(default_factory=dict)

    def __call__(self, x):
        return self.point(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SampledCurve:
    """Uniform arc-length grid: points, chord tangents, arc-measure weights."""

    n: int
    period: float
    params: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    weights: np.ndarray
    source: Parametrization | None = None
    warnings: tuple = ()

    @property
    def spacing(self) -> float:
        return self.period / self.n

    @property
    def length(self) -> float:
        return float(self.weights.sum())


def arclength_sample(p: Parametrization, n: int) -> SampledCurve:
    """Sample a curve at n nodes uniform in arc length.

    Weights are chord-trapezoid cell lengths, normalized so that they total
    the measured curve length.  Tangents are central chord differences over
    2h.  Under-resolved fine structure (spiral scales below 8 grid cells)
    yields a warning-carrying result rather than an error.
    """
    if n < 16:
        raise DomainError("need at least 16 sample nodes")
    period = p.period
    h = period / n
    params = h * np.arange(n)
    points = p.point(params)
    rolled_fwd = np.roll(points, -1)
    rolled_back = np.roll(points, 1)
    tangents = (rolled_fwd - rolled_back) / (2.0 * h)
    fwd = np.abs(rolled_fwd - points)
    back = np.abs(points - rolled_back)
    raw = 0.5 * (fwd + back)
    if np.any(raw <= 0.0):
        raise DegenerateGeometryError("coincident adjacent sample points")
    weights = raw * (period / raw.sum())
    warnings = ()
    finest = p.meta.get("finest_scale")
    if finest is not None and n * finest / period < 8.0:
        warnings = (
            f"under-resolved: n*finest_scale/length = {n * finest / period:.3g} < 8",
        )
    return SampledCurve(n=n, period=period, params=params, points=points,
                        tangents=tangents, weights=weights, source=p,
                        warnings=warnings)


def write_curve_csv(sc: SampledCurve, path):
    """Curve export: param,x,y,tx,ty,weight at 17 significant digits, LF."""
    from ._csvtext import csv_block  # compiled on first use

    fields = []
    for column in (sc.params, sc.points.real, sc.points.imag,
                   sc.tangents.real, sc.tangents.imag, sc.weights):
        fields += [",", column]
    write_text(path, ["param,x,y,tx,ty,weight\n", csv_block(fields[1:])])


def write_text(path, blocks) -> None:
    """Write text blocks to path one after another, lines ending in LF.
    blocks may be a generator: each block is written, and let go, before
    the next is asked for."""
    with open(path, "w", newline="") as fh:
        fh.writelines(blocks)


def write_lines(path, lines) -> None:
    """Write a list of lines to path, each followed by LF, in one join
    (nothing for an empty list).  Its callers write at most a few thousand
    short lines; the large tables go out as blocks through write_text."""
    with open(path, "w", newline="") as fh:
        if lines:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Analytic builders.


def circle(radius: float = 1.0) -> Parametrization:
    if radius <= 0.0:
        raise DomainError("circle radius must be positive")
    r = float(radius)

    def point(s):
        return r * np.exp(1j * np.asarray(s, dtype=float) / r)

    return Parametrization(period=2.0 * math.pi * r, point=point, kind="circle")


def ellipse(a: float, b: float) -> Parametrization:
    if a <= 0.0 or b <= 0.0:
        raise DomainError("ellipse semi-axes must be positive")

    def speed(theta):
        theta = np.asarray(theta, dtype=float)
        return np.sqrt((a * np.sin(theta)) ** 2 + (b * np.cos(theta)) ** 2)

    def point_of(theta):
        return a * np.cos(theta) + 1j * b * np.sin(theta)

    zone = _speed_zone(point_of, speed, 0.0, 2.0 * math.pi, knots=8193)

    def point(s):
        return zone.point(np.mod(np.asarray(s, dtype=float), zone.length))

    return Parametrization(period=zone.length, point=point, kind="ellipse")


def polygon(vertices: Sequence) -> Parametrization:
    """Closed polygon, unit speed, corners exact (never smoothed)."""
    verts = np.asarray([complex(v[0], v[1]) if isinstance(v, (tuple, list)) else complex(v)
                        for v in vertices])
    if len(verts) < 3:
        raise DomainError("polygon needs at least 3 vertices")
    edges = np.roll(verts, -1) - verts
    lengths = np.abs(edges)
    if np.any(lengths < 1e-12):
        raise DomainError("polygon has a zero-length edge")
    area2 = float(np.sum((verts * np.conj(np.roll(verts, -1))).imag))
    if abs(area2) < 1e-12:
        raise DomainError("polygon vertices are collinear (zero area)")
    if area2 > 0.0:  # shoelace with this ordering is clockwise; normalize to ccw
        verts = verts[::-1]
        edges = np.roll(verts, -1) - verts
        lengths = np.abs(edges)
    units = edges / lengths
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    perimeter = float(cum[-1])

    def point(s):
        m = np.mod(np.asarray(s, dtype=float), perimeter)
        e = np.clip(np.searchsorted(cum, m, side="right") - 1, 0, len(verts) - 1)
        return verts[e] + (m - cum[e]) * units[e]

    return Parametrization(period=perimeter, point=point, kind="polygon",
                           meta={"corners": tuple(float(c) for c in cum[:-1]),
                                 "vertices": tuple(complex(v) for v in verts)})


# ---------------------------------------------------------------------------
# Zone engine shared by the spiral and graph closures.  Each zone is a
# smooth stretch with its own exact or spline-backed inverse arc length.


class _LinearZone:
    """A straight stretch of a mapped graph: exact inverse arc length."""

    __slots__ = ("t0", "t1", "off", "mult", "lam_a", "lam_b", "speed", "length",
                 "s0", "patch_index")

    def __init__(self, t0, t1, off, mult, lam_a, lam_b, patch_index):
        self.t0, self.t1 = t0, t1
        self.off, self.mult = off, mult
        self.lam_a, self.lam_b = lam_a, lam_b
        self.speed = abs(mult) * math.sqrt(1.0 + lam_b * lam_b)
        self.length = (t1 - t0) * self.speed
        self.s0 = 0.0
        self.patch_index = patch_index

    def t_at(self, ds):
        return self.t0 + ds / self.speed

    def s_at(self, t):
        return (t - self.t0) * self.speed

    def point(self, ds):
        t = self.t_at(ds)
        lam = self.lam_a + self.lam_b * t
        return self.off + self.mult * (t + 1j * lam)


def _gtsv(dl, d, du, b):
    """Solve a tridiagonal system for one right-hand side by Gaussian
    elimination with partial pivoting, operation for operation as LAPACK
    dgtsv does it (rows i and i+1 swap when |d_i| < |dl_i|).  Takes and
    overwrites Python lists of floats; returns the solution list b."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise ConstructionError("singular spline knot system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:  # the last row has no second superdiagonal fill
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ConstructionError("singular spline knot system")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class _ClampedSpline:
    """Cubic spline through (x, y) with end slopes d0 and d1 (de Boor's
    complete spline).  It repeats the arithmetic of scipy's
    ``CubicSpline(x, y, bc_type=((1, d0), (1, d1)))`` step for step, so it
    returns the same bits, extrapolation by the end cubics included."""

    __slots__ = ("_inner", "_x", "_c3", "_c2", "_c1", "_c0")

    def __init__(self, x, y, d0, d1):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        n = len(x)
        d = np.empty(n)
        d[0] = d[-1] = 1.0
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        du = np.concatenate(([0.0], dx[:-1]))
        dl = np.concatenate((dx[1:], [0.0]))
        b = np.empty(n)
        b[0], b[-1] = d0, d1
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        m = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
        t = (m[:-1] + m[1:] - 2 * slope) / dx
        # PPoly's sum starts from 0.0, which turns a -0.0 value into +0.0
        self._c3, self._c2 = 0.0 + y[:-1], m[:-1]
        self._c1, self._c0 = (slope - m[:-1]) / dx - t, t / dx
        self._inner, self._x = x[1:-1], x[:-1]

    def __call__(self, v):
        # the interval is searchsorted(x, v, "right") - 1 clipped to the end
        # intervals, which the interior knots give directly
        v = np.asarray(v, dtype=float)
        i = self._inner.searchsorted(v, "right")
        h = v - self._x[i]
        hh = h * h
        # PPoly's order: ((c3 + c2 h) + c1 h^2) + c0 h^3, with h^3 = (h h) h
        return self._c3[i] + self._c2[i] * h + self._c1[i] * hh + self._c0[i] * (hh * h)


class _SplineZone:
    """A smooth curved stretch of point_of over the parameter knots t_knots,
    with clamped-spline inverse arc length from the knots' arc lengths
    s_knots and the end speeds v0, v1.  The spline s(t), which only
    `param_of` reads, is fitted on first use from the kept knots."""

    __slots__ = ("t0", "t1", "point_of", "length", "s0", "_t_of_s", "_s_of_t",
                 "_knots", "patch_index")

    def __init__(self, point_of, t_knots, s_knots, v0, v1, patch_index=-1):
        self.t0, self.t1 = float(t_knots[0]), float(t_knots[-1])
        self.point_of = point_of
        self.length = float(s_knots[-1])
        self._t_of_s = _ClampedSpline(s_knots, t_knots, 1.0 / v0, 1.0 / v1)
        self._s_of_t = None
        self._knots = (t_knots, s_knots, v0, v1)
        self.s0 = 0.0
        self.patch_index = patch_index

    def t_at(self, ds):
        return np.clip(self._t_of_s(ds), self.t0, self.t1)

    def s_at(self, t):
        if self._s_of_t is None:
            self._s_of_t = _ClampedSpline(*self._knots)
        return float(self._s_of_t(t))

    def point(self, ds):
        return self.point_of(self.t_at(ds))


_KNOTS = 65  # knots of a zone's inverse arc-length spline


def _speed_zone(point_of, speed, t0, t1, patch_index=-1, knots=_KNOTS):
    """Spline zone of point_of over t0..t1, its knot arc lengths integrated
    from the speed function."""
    t_knots = np.linspace(t0, t1, knots)
    nodes = cumulative_nodes(t_knots)
    s_knots = cumulative_gauss(speed(nodes.ravel()).reshape(nodes.shape), t_knots)
    v0, v1 = (float(speed(np.array([t]))[0]) for t in (t0, t1))
    return _SplineZone(point_of, t_knots, s_knots, v0, v1, patch_index)


def _graph_zone(t0, t1, off, mult, lam, slope, patch_index):
    """Spline zone of the mapped graph t -> off + mult (t + i lam(t))."""
    scale = abs(mult)

    def point(t):
        return off + mult * (t + 1j * lam(t))

    def speed(t):
        return scale * np.sqrt(1.0 + np.asarray(slope(t)) ** 2)

    return _speed_zone(point, speed, t0, t1, patch_index)


def _corner_point(apex, tn, xi, off, mult, t):
    """Point of a corner zone of the mapped bump graph.  The zone's t is
    clipped to its ends, inside [0, 1], and lies on one branch, so the
    kernel takes it without the domain check of mollified_profile."""
    ramp = _ramp_value(apex, _kernel_arg(apex, t, xi))
    return off + mult * (t + 1j * _branch_profile(apex, tn, xi, ramp))


class _CornerKernel:
    """The corner zone [apex - xi, apex + xi] of every bump of width xi.

    In local patch coordinates these zones share their knots, so the kernel
    cdf at the knots' Gauss nodes and at the two ends is computed once, here,
    and each bump's knot speeds come from it with the arithmetic of
    mollified_slope: only tan(angle) and the bump's scale differ.
    """

    def __init__(self, apex, xi):
        self.apex, self.xi = apex, xi
        self.t_knots = np.linspace(apex - xi, apex + xi, _KNOTS)
        nodes = cumulative_nodes(self.t_knots)
        self._shape = nodes.shape
        self._slopes = [_slopes_at(t, xi) for t in (
            nodes.ravel(), np.array([apex - xi]), np.array([apex + xi]))]

    def zone(self, tn, off, mult, patch_index):
        """The corner zone of the bump with tan(angle) tn mapped by off + mult z."""
        scale = abs(mult)
        nodes, v0, v1 = (scale * np.sqrt(1.0 + slope(tn) ** 2) for slope in self._slopes)
        s_knots = cumulative_gauss(nodes.reshape(self._shape), self.t_knots)
        return _SplineZone(partial(_corner_point, self.apex, tn, self.xi, off, mult),
                           self.t_knots, s_knots, float(v0[0]), float(v1[0]), patch_index)


class _ZoneAssembly:
    """An ordered chain of zones traversed start to end (forward arc length)."""

    def __init__(self, zones):
        s = 0.0
        for z in zones:
            z.s0 = s
            s += z.length
        self.zones = zones
        self.total = s
        self._starts = np.array([z.s0 for z in zones])
        # junction continuity guard
        for za, zb in zip(zones[:-1], zones[1:]):
            ga = za.point(np.array([za.length]))[0]
            gb = zb.point(np.array([0.0]))[0]
            if abs(ga - gb) > 1e-9:
                raise ConstructionError(
                    f"zone junction mismatch |{ga} - {gb}| = {abs(ga - gb):.3e}")

    def point(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.total)
        idx = np.clip(np.searchsorted(self._starts, s, side="right") - 1, 0,
                      len(self.zones) - 1)
        out = np.empty(s.shape, dtype=complex)
        for k in np.flatnonzero(np.bincount(idx.ravel(), minlength=len(self.zones))):
            mask = idx == k
            out[mask] = self.zones[k].point(s[mask] - self.zones[k].s0)
        return out

    def param_of(self, patch_index, t):
        """Forward arc length of the point with local parameter t on a patch."""
        for z in self.zones:
            if z.patch_index == patch_index and z.t0 - 1e-12 <= t <= z.t1 + 1e-12:
                return z.s0 + z.s_at(min(max(t, z.t0), z.t1))
        raise DomainError(f"parameter {t} of patch {patch_index} is not on the curve")


def _piece_zones(spec: PatchSpec, corners, ta, tb, off, mult, patch_index):
    """Cut a kept stretch [ta, tb] of a patch graph into smooth zones: the
    straight pieces exact, the corner zones on the smoothed profile.  No
    kept stretch ends inside a corner zone, so each corner zone is whole and
    `corners` maps its ends to its _CornerKernel."""
    tn, xi = math.tan(spec.angle), spec.xi
    bounds = _patch_boundaries(xi)
    cuts = [ta] + [b for b in bounds if ta < b < tb] + [tb]
    zones = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = 0.5 * (a + b)
        if m < 0.25 - xi or m > 0.75 + xi:
            zones.append(_LinearZone(a, b, off, mult, 0.0, 0.0, patch_index))
        elif 0.25 + xi < m < 0.5 - xi:
            zones.append(_LinearZone(a, b, off, mult, -0.25 * tn, tn, patch_index))
        elif 0.5 + xi < m < 0.75 - xi:
            zones.append(_LinearZone(a, b, off, mult, 0.75 * tn, -tn, patch_index))
        else:
            zones.append(corners[a, b].zone(tn, off, mult, patch_index))
    return zones


def _closure_loop(p_from, p_to, dir_from, dir_to, dip):
    """C2 quintic Hermite arc from p_from to p_to with end velocities 1.5
    times the given unit directions, zero end curvature, pushed into the
    lower half plane."""
    rhs = np.array([p_from, 1.5 * dir_from, 0.0, p_to, 1.5 * dir_to, 0.0],
                   dtype=complex)
    mat = np.zeros((6, 6))
    for k in range(6):
        mat[0, k] = 1.0 if k == 0 else 0.0
        mat[1, k] = 1.0 if k == 1 else 0.0
        mat[2, k] = 2.0 if k == 2 else 0.0
        mat[3, k] = 1.0
        mat[4, k] = k
        mat[5, k] = k * (k - 1)
    coeffs = np.linalg.solve(mat, rhs)

    def base(u):
        u = np.asarray(u, dtype=float)
        return sum(coeffs[k] * u ** k for k in range(6))

    def dbase(u):
        u = np.asarray(u, dtype=float)
        return sum(k * coeffs[k] * u ** (k - 1) for k in range(1, 6))

    def curve(u):
        u = np.asarray(u, dtype=float)
        return base(u) - 1j * dip * 64.0 * u ** 3 * (1.0 - u) ** 3

    def dcurve(u):
        u = np.asarray(u, dtype=float)
        return dbase(u) - 1j * dip * 64.0 * (3.0 * u ** 2 * (1.0 - u) ** 3
                                             - 3.0 * u ** 3 * (1.0 - u) ** 2)

    return curve, dcurve


def _loop_zones(curve, dcurve):
    """The closure arc as eight spline zones in its parameter u."""
    def speed(u):
        return np.abs(dcurve(u))

    return [_speed_zone(curve, speed, k / 8.0, (k + 1) / 8.0, knots=129)
            for k in range(8)]


def _closed_from_assembly(assembly, kind, meta, focus_forward=None):
    """Wrap a forward assembly as a positively oriented unit-speed curve.

    The spiral and the graph closure both run their graph forward (left to
    right) and return along a closure arc below it, so the forward order is
    clockwise and the curve runs it backwards: parameter s is forward arc
    length total - s.
    """
    total = assembly.total

    def point(s):
        return assembly.point(np.mod(total - np.asarray(s, dtype=float), total))

    if focus_forward is not None:
        meta = dict(meta, focus_param=float((total - focus_forward) % total))
    return Parametrization(period=total, point=point, kind=kind, meta=meta)


# ---------------------------------------------------------------------------
# The recursive spiral.


def _spiral_pieces(depth, xi):
    if depth == 1:
        return [(1, 0.0, 1.0)]
    pieces = [(1, 0.0, 0.25 + xi)]
    for j in range(2, depth):
        pieces.append((j, 4.0 * xi, 0.25 + xi))
    pieces.append((depth, 4.0 * xi, 1.0 - 4.0 * xi))
    for j in range(depth - 1, 1, -1):
        pieces.append((j, 0.5 - xi, 1.0 - 4.0 * xi))
    pieces.append((1, 0.5 - xi, 1.0))
    return pieces


def _spiral_maps(depth):
    """Affine map (offset, multiplier) of each patch in global coordinates."""
    offs, mults = [0.0 + 0.0j], [1.0 + 0.0j]
    for j in range(1, depth):
        alpha = _spiral_angle(j)
        offs.append(offs[-1] + mults[-1] * 0.25)
        mults.append(mults[-1] * np.exp(1j * alpha) / (4.0 * math.cos(alpha)))
    return offs, mults


def _validate_spiral_separation(patches, offs, mults, xi, depth):
    """Neighboring patches must stay 1e-9 apart away from their junctions."""
    t_child = np.linspace(0.0, 1.0, 800)
    keep_b = (t_child > 24.0 * xi) & (t_child < 1.0 - 24.0 * xi)
    child = _profiles_at(t_child, xi)
    for j in range(1, depth):
        spec_a, spec_b = patches[j - 1], patches[j]
        scale = abs(mults[j - 1])
        if j <= 2:
            # patch j kept stretches in its own local frame; every parent
            # below patch 1 keeps the stretches of patch 2
            ta = np.linspace(4.0 * xi if j > 1 else 0.0, 0.25 + xi, 400)
            tb = np.linspace(0.5 - xi, 1.0 if j == 1 else 1.0 - 4.0 * xi, 400)
            t_parent = np.concatenate([ta, tb])
            parent = _profiles_at(t_parent, xi)
            # junctions: parent t = 1/4+xi <-> child t = 4xi, parent 1/2-xi <-> child 1-4xi
            keep_a = (np.abs(t_parent - (0.25 + xi)) > 8.0 * xi) & \
                     (np.abs(t_parent - (0.5 - xi)) > 8.0 * xi)
        if not keep_a.any() or not keep_b.any():
            continue
        za = t_parent + 1j * parent(math.tan(spec_a.angle))
        # child graph mapped into the parent frame
        rel = (offs[j] - offs[j - 1]) / mults[j - 1], mults[j] / mults[j - 1]
        zb = rel[0] + rel[1] * (t_child + 1j * child(math.tan(spec_b.angle)))
        d = np.abs(za[keep_a][:, None] - zb[None, keep_b])
        if float(d.min()) * scale <= 1e-9:
            raise ConstructionError(
                f"rescaled patch {j + 1} approaches its parent within 1e-9 "
                f"(depth {j + 1}, separation {float(d.min()) * scale:.3e})")


def build_spiral(depth: int, xi: float = 1.0 / 200.0) -> Parametrization:
    """Assemble the truncated recursive spiral of `depth` bumps with
    smoothing width `xi`, closed smoothly.

    Each gluing rotates by the patch opening angle and rescales so the next
    bump's endpoints match its parent's middle-segment chord; the deepest
    bump keeps its middle segment.  A C2 arc in the lower half plane joins
    the endpoints and the result is oriented positively.
    """
    if depth < 1:
        raise DomainError("spiral depth must be >= 1")
    patches = [PatchSpec(_spiral_angle(j), xi) for j in range(1, depth + 1)]
    offs, mults = _spiral_maps(depth)
    corners = {(apex - xi, apex + xi): _CornerKernel(apex, xi)
               for apex in (0.25, 0.5, 0.75)}
    zones = []
    for (j, ta, tb) in _spiral_pieces(depth, xi):
        zones.extend(_piece_zones(patches[j - 1], corners, ta, tb,
                                  offs[j - 1], mults[j - 1], j))
    curve, dcurve = _closure_loop(1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j, 1.0 + 0.0j,
                                  dip=0.75)
    closure_zones = _loop_zones(curve, dcurve)
    full = _ZoneAssembly(zones + closure_zones)
    # the spiral runs forward from 0 to the closure arc's start
    spiral_length = closure_zones[0].s0

    if depth > 1:
        _validate_spiral_separation(patches, offs, mults, xi, depth)

    focus_forward = full.param_of(depth, 0.5)
    meta = {
        "depth": depth,
        "xi": xi,
        "patch_offsets": tuple(complex(o) for o in offs),
        "patch_multipliers": tuple(complex(m) for m in mults),
        "finest_scale": patch_half_diameter(depth),
        "patches": tuple(patches),
        "shortenings": _patch_shortenings(xi, [spec.angle for spec in patches]),
    }

    u = np.linspace(0.02, 0.98, 1024)
    zc = curve(u)
    sg = full.point(np.linspace(0.0, spiral_length, 2048)[::2])
    dmin = float(np.abs(zc[:, None] - sg[None, :]).min())
    if dmin <= 1e-9:
        raise ConstructionError(f"closure arc touches the spiral (min distance {dmin:.3e})")
    if np.max(zc.imag) >= -1e-12:
        raise ConstructionError("closure arc left the lower half plane")
    meta["engine"] = full
    return _closed_from_assembly(full, "spiral", meta, focus_forward=focus_forward)


def _spiral_engine(p: Parametrization):
    engine = p.meta.get("engine")
    if engine is None:
        raise DomainError("parametrization does not carry a spiral engine")
    return engine


def spiral_patch_polyline(p: Parametrization, j: int, n: int = 2048) -> np.ndarray:
    """Global-coordinate polyline of the j-th full bump graph (1-based)."""
    depth = p.meta["depth"]
    if not 1 <= j <= depth:
        raise DomainError(f"patch index {j} outside 1..{depth}")
    spec = p.meta["patches"][j - 1]
    t = np.linspace(0.0, 1.0, n)
    return (p.meta["patch_offsets"][j - 1]
            + p.meta["patch_multipliers"][j - 1] * (t + 1j * mollified_profile(spec, t)))


def spiral_patch_param(p: Parametrization, j: int, t: float) -> float:
    """Curve parameter of the kept point with local parameter t on patch j."""
    s_forward = _spiral_engine(p).param_of(j, t)
    return float((p.period - s_forward) % p.period)


def spiral_corner_params(p: Parametrization) -> tuple:
    """Curve parameters of the kept smoothed-corner apexes, deepest first."""
    depth = p.meta["depth"]
    out = []
    for j in range(depth, 0, -1):
        for t in (0.25, 0.75, 0.5):
            # Every bump keeps its middle corner zone, so the middle apex is
            # a kept corner on every bump.  Skipping it above the deepest
            # bump is a known gap: adding those apexes moves the spiral's
            # outputs, so the spiral-angle item of ROADMAP.md takes it up.
            if t == 0.5 and j != depth:
                continue
            try:
                out.append(spiral_patch_param(p, j, t))
            except DomainError:
                continue
    return tuple(out)


def spiral_tail_series(p: Parametrization, k: int):
    """Per-level tail accounting of the spiral at scale index k.

    Returns (R_k, h_k): R_k is the arc-minus-chord excess across the k-th
    bump and everything glued deeper (telescoped per level, smoothing
    shortfalls measured from the built patches, truncated at the build
    depth); h_k is the measured width of the k-th rescaled bump's minimal
    bounding strip.
    """
    depth = p.meta["depth"]
    if not 1 <= k <= depth:
        raise DomainError(f"scale index {k} outside 1..{depth}")
    shortenings = p.meta["shortenings"]
    r = 0.0
    for j in range(k, depth + 1):
        lj = patch_half_diameter(j)
        alpha = _spiral_angle(j)
        r += lj * (1.0 / math.cos(alpha) - 1.0) - 2.0 * lj * shortenings[j - 1]
    poly = spiral_patch_polyline(p, k, n=4096)
    thetas = np.linspace(0.0, math.pi, 720, endpoint=False)
    proj = np.outer(np.exp(-1j * thetas), poly).real
    widths = proj.max(axis=1) - proj.min(axis=1)
    return float(r), float(widths.min())


# ---------------------------------------------------------------------------
# Smooth graph closures (sine-series bumps over [0, 1], closed from below).


def graph_closure(coeffs: Sequence[float]) -> Parametrization:
    coeffs = [float(c) for c in coeffs]
    if not coeffs or all(c == 0.0 for c in coeffs):
        raise DomainError("graph closure needs at least one nonzero sine coefficient")

    def g(t):
        t = np.asarray(t, dtype=float)
        return sum(c * np.sin((k + 1) * math.pi * t) for k, c in enumerate(coeffs))

    def dg(t):
        t = np.asarray(t, dtype=float)
        return sum(c * (k + 1) * math.pi * np.cos((k + 1) * math.pi * t)
                   for k, c in enumerate(coeffs))

    zones = [_graph_zone(k / 16.0, (k + 1) / 16.0, 0.0 + 0.0j, 1.0 + 0.0j, g, dg, 1)
             for k in range(16)]
    grid = np.linspace(0.0, 1.0, 1024)
    gmin = float(np.min(g(grid)))
    dip = 0.75 + max(0.0, -gmin) + 0.25 * float(np.max(np.abs(g(grid))))
    d0 = 1.0 + 1j * float(dg(np.array([1.0]))[0])
    d1 = 1.0 + 1j * float(dg(np.array([0.0]))[0])
    curve, dcurve = _closure_loop(1.0 + 0.0j, 0.0 + 0.0j, d0 / abs(d0), d1 / abs(d1),
                                  dip=dip)
    assembly = _ZoneAssembly(zones + _loop_zones(curve, dcurve))
    u = np.linspace(0.02, 0.98, 512)
    zg = grid + 1j * np.asarray(g(grid))
    dmin = float(np.abs(curve(u)[:, None] - zg[None, ::4]).min())
    if dmin <= 1e-9:
        raise ConstructionError(f"closure arc touches the graph (min distance {dmin:.3e})")
    return _closed_from_assembly(assembly, "graph-closure", {})


# The builder of each curve kind, called with the kind's [curve] keys by
# their .cspec names.  Each lambda looks its builder up by module name when
# it runs, so a rebound name (a wrapped builder) is the one called.
_BUILDERS = {
    "circle": lambda radius: circle(radius),
    "ellipse": lambda a, b: ellipse(a, b),
    "polygon": lambda vertices: polygon(
        [complex(x, y) for x, y in zip(vertices[::2], vertices[1::2])]),
    "graph-closure": lambda coeffs: graph_closure(coeffs),
    "spiral": lambda depth, xi: build_spiral(depth, xi),
}


def builtin_curve(kind: str, **keys) -> Parametrization:
    """Build a curve of the given kind from its [curve] keys, named as in a
    .cspec file (polygon vertices as a flat x0,y0,x1,y1,... list).  A key
    the kind does not take is a TypeError, as for any call."""
    if kind not in _BUILDERS:
        raise DomainError(f"unknown builtin curve kind {kind!r}")
    return _BUILDERS[kind](**keys)
