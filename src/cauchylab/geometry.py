"""Geometric functionals of sampled curves: chord-arc and bilipschitz
constants, the asymptotic-conformality defect, second differences, turning
angles, windowed bilipschitz constants, and the branch-consistent log ratio
of the two half-chords at a point (with its |log eps|-weighted score)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import adaptive_complex
from .errors import (
    BranchAmbiguityError,
    DegenerateGeometryError,
    DomainError,
)

__all__ = [
    "BranchLogValue",
    "DiagnosticsReport",
    "chord_arc_constant",
    "bilipschitz_constant",
    "conformality_modulus",
    "second_difference",
    "omega2",
    "turning_angle",
    "branch_log",
    "local_bilipschitz",
    "window_speed_range",
    "eps0_gate",
    "diagnostics",
    "diagnostics_csv_rows",
]


def _offset_chords(pts, closed: bool = True):
    """Yield (off, |z[i+off] - z[i]|) for every parameter offset of a grid.

    A closed grid of n nodes runs offsets 1..n//2 with indices taken mod n,
    read from one wrapped copy; an open window runs offsets 1..m-1 over the
    pairs inside it.  A chord below 1e-12 raises DegenerateGeometryError.
    """
    n = len(pts)
    ext = np.concatenate([pts, pts[:n // 2]]) if closed else pts
    for off in range(1, n // 2 + 1 if closed else n):
        w = n if closed else n - off
        d = np.abs(ext[off:off + w] - ext[:w])
        if np.any(d < 1e-12):
            raise DegenerateGeometryError(
                f"coincident points at parameter offset {off}")
        yield off, d


def _chord_constants(sc, with_arc: bool):
    """(chord-arc constant, L) of a closed sampling from one chord scan.

    L is the largest parameter-distance over chord ratio.  The chord-arc
    constant, computed only with_arc, is the largest shorter-arc over chord
    ratio, with arcs summed along the offset-1 chords (the grid's edges);
    without it the first entry is 1.0.
    """
    if with_arc and sc.n < 64:
        raise DomainError("need at least 64 nodes for the pair scan")
    n, h = sc.n, sc.spacing
    cac = bil = 1.0
    for off, d in _offset_chords(sc.points):
        bil = max(bil, float(np.max(off * h / d)))
        if not with_arc:
            continue
        if off == 1:
            cum = np.concatenate(([0.0], np.cumsum(d)))
            total = float(cum[-1])
            cum2 = np.concatenate([cum[:-1], cum[:-1] + total])
        arc = cum2[off:off + n] - cum2[:n]
        cac = max(cac, float(np.max(np.minimum(arc, total - arc) / d)))
    return cac, bil


def chord_arc_constant(sc) -> float:
    """Max over node pairs of shorter-arc length over chord length."""
    return _chord_constants(sc, with_arc=True)[0]


def bilipschitz_constant(sc) -> float:
    """Smallest L for the two-sided chord bound of a unit-speed sampling.

    The upper constant of a unit-speed parametrization is 1, so L is the
    largest parameter-distance over chord ratio with separation <= T/2.
    """
    return _chord_constants(sc, with_arc=False)[1]


# Largest parameter separation scanned, in units of the chord scale d.
_ARC_FACTOR = 16.0
# Doubles in one node block's distance table; sets the block length.
_TABLE_SIZE = 2 ** 19


def _qualifying_offsets(ext, n2: int, max_off: int, d: float) -> list:
    """Offsets 2..max_off at which some chord of the closed grid of n2 nodes
    is <= d; ext is that grid followed by at least its first max_off nodes.

    An offset whose shortest chord m0 exceeds d rules out the next ones
    too: by the triangle inequality a chord s offsets further is at least
    m0 - s * step, where step is the longest chord between consecutive
    nodes.  So the search jumps over floor((m0 - d - slack) / step) offsets,
    and over none when m0 - d is within the slack.  Each computed chord is
    within a few ulps of its exact value relative to itself (a rounded
    difference and a rounded abs), so slack = 1e-12 m0 covers rounding by a
    wide margin, and the list equals that of a search that tests every
    offset.
    """
    view = ext[:n2]
    step = float(np.abs(ext[1:n2 + 1] - view).max())
    offs = []
    off = 2
    while off <= max_off:
        m0 = float(np.abs(ext[off:off + n2] - view).min())
        if m0 <= d:
            offs.append(off)
            off += 1
        else:
            off += 1 + max(0, int((m0 - d - 1e-12 * m0) // step))
    return offs


def _detour_defects(sc, d: float, stride: int | None):
    """Running worst detour defect at chord scale d, yielded after each
    (node block, offset) pair that holds a chord <= d.

    Nodes run in blocks of B.  For one block the table
    F[j, t] = |z[t+j] - z[t]| (j <= K, the largest offset with a chord
    <= d) is built once, and its row-skewed view G[j, t] = F[j, t-j] puts
    both legs of every detour through z[i+k] on the chord (z[i], z[i+off])
    into two plain slices: F[k, i] + G[off-k, i+off].
    """
    if stride is None:
        stride = max(1, int(d / (48.0 * sc.spacing)))
    view = sc.points[::stride]
    n2 = len(view)
    h2 = sc.spacing * stride
    max_off = min(n2 // 2, int(math.ceil(_ARC_FACTOR * d / h2)) + 1)
    ext = np.concatenate([view, view[:2 * max_off]])
    offs = _qualifying_offsets(ext, n2, max_off, d)
    if not offs:
        return
    K = offs[-1]
    B = min(n2, max(K, _TABLE_SIZE // (K + 1)))
    F = np.empty((K + 1, B + K))
    G = np.lib.stride_tricks.as_strided(
        F, strides=(F.strides[0] - F.strides[1], F.strides[1]), writeable=False)
    legs = np.empty((K, B))
    worst = 0.0
    for b0 in range(0, n2, B):
        nb = min(B, n2 - b0)
        w = nb + K
        e = ext[b0:b0 + w + K]
        for j in range(1, K + 1):
            np.abs(e[j:j + w] - e[:w], out=F[j, :w])
        for off in offs:
            chord = F[off, :nb]
            sel = chord <= d
            if not sel.any():
                continue
            s = np.add(F[1:off, :nb], G[off - 1:0:-1, off:off + nb],
                       out=legs[:off - 1, :nb])
            ratio = s.max(axis=0)[sel] / chord[sel]
            worst = max(worst, float(ratio.max()) - 1.0)
            yield worst


def conformality_modulus(sc, d: float, stride: int | None = None) -> float:
    """Worst detour defect sup (|z1-z| + |z2-z|)/|z1-z2| - 1 over chords <= d.

    The inner point z runs over grid nodes of the shorter-parameter arc
    (the smaller-diameter arc for chords below half the curve diameter;
    ties break toward the shorter-parameter arc).  The scan runs on a
    stride-subsampled grid tuned to the chord scale, and pairs of
    parameter separation beyond 16 d are skipped: on a curve of chord-arc
    constant below 16 they cannot reach chords <= d.

    The value is bit-identical to a loop that forms every detour sum and
    divides it by its chord: each leg is the same complex subtraction and
    abs, max is exact, and division by a chord c > 0 is monotone under
    rounding, so max_k fl(s_k / c) == fl(max_k s_k / c).  Memory is one
    distance table of (K+1)(B+K) doubles plus a leg buffer of K B, where K
    is the largest offset with a chord <= d and B = max(K, 2^19 / (K+1)):
    about 2^20 + 3 K^2 doubles at most: 8 MB plus 24 K^2 bytes at any grid size.
    """
    return max(_detour_defects(sc, d, stride), default=0.0)


def second_difference(p, x, eps: float):
    """|gamma(x+eps) + gamma(x-eps) - 2 gamma(x)|, vectorized over x."""
    if not 0.0 < eps < p.period:
        raise DomainError("offset must lie in (0, period)")
    x = np.asarray(x, dtype=float)
    return np.abs(p.point(x + eps) + p.point(x - eps) - 2.0 * p.point(x))


def omega2(p, eps: float, x_grid):
    """Sup of the second difference over a parameter grid.

    Returns (value, argmax parameter).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    vals = second_difference(p, x_grid, eps)
    k = int(np.argmax(vals))
    return float(vals[k]), float(x_grid[k])


def turning_angle(p, x, eps: float):
    """Unsigned angle in [0, pi] between the two chords leaving gamma(x)."""
    if not 0.0 < eps < p.period / 2.0:
        raise DomainError("offset must lie in (0, period/2)")
    x = np.asarray(x, dtype=float)
    a = p.point(x) - p.point(x - eps)
    b = p.point(x + eps) - p.point(x)
    if np.any(np.abs(a) < 1e-14) or np.any(np.abs(b) < 1e-14):
        raise DegenerateGeometryError("degenerate chord in turning angle")
    return np.abs(np.angle(b / a))


@dataclass(frozen=True)
class BranchLogValue:
    """Branch-consistent log ratio of the two half-chords at a point."""

    value: complex
    condition_score: float


def _segment_min_distance(a: complex, d: complex) -> float:
    """Distance from the origin to the segment {a + t d : t in [0, 1]}."""
    dd = abs(d) ** 2
    if dd == 0.0:
        return abs(a)
    t = min(max(-((a * np.conj(d)).real) / dd, 0.0), 1.0)
    return abs(a + t * d)


def _branch_log_integral(a: complex, b: complex) -> complex:
    d = b - a
    zmin = _segment_min_distance(a, d)
    if zmin <= 1e-12:
        raise BranchAmbiguityError(
            f"chord segment passes within {zmin:.2e} of the origin; "
            "the log branch is ambiguous here")
    return complex(adaptive_complex(lambda t: d / (a + t * d), 0.0, 1.0, tol=1e-11))


def _branch_log_unwrapped(p, x: float, eps: float) -> complex:
    steps = 32
    while steps <= 16384:
        s = eps * np.arange(1, steps + 1) / steps
        z = p.point(np.array([x]))[0]
        u = p.point(x + s) - z
        v = p.point(x - s) - z
        if np.min(np.abs(u)) < 1e-14 or np.min(np.abs(v)) < 1e-14:
            raise DegenerateGeometryError("degenerate chord in argument unwrapping")
        du = np.angle(u[1:] / u[:-1])
        dv = np.angle(v[1:] / v[:-1])
        if max(np.max(np.abs(du), initial=0.0), np.max(np.abs(dv), initial=0.0)) < 1.0:
            base = float(np.angle(u[0] / (-v[0])))
            imag = base + float(du.sum()) - float(dv.sum())
            real = math.log(abs(u[-1])) - math.log(abs(v[-1]))
            return complex(real, imag)
        steps *= 2
    raise BranchAmbiguityError("argument unwrapping did not stabilize")


def branch_log(p, x: float, eps: float) -> BranchLogValue:
    """log(gamma(x+eps)-gamma(x)) - log(gamma(x-eps)-gamma(x)) + pi*i with
    the branch fixed by continuity from eps -> 0.

    Computed by quadrature of the straight-segment integral between the two
    reflected half-chords, valid while that segment avoids the origin (else
    BranchAmbiguityError).  The tests compare it with continuous argument
    unwrapping along the curve (_branch_log_unwrapped).
    """
    if not 0.0 < eps < p.period:
        raise DomainError("offset must lie in (0, period)")
    z = p.point(np.array([x]))[0]
    a = z - p.point(np.array([x - eps]))[0]
    b = p.point(np.array([x + eps]))[0] - z
    val = _branch_log_integral(a, b)
    return BranchLogValue(value=val, condition_score=abs(val) * abs(math.log(eps)))


def local_bilipschitz(p, x0: float, eps: float, m: int = 512) -> float:
    """Smallest window constant C with |x-y|/C <= |gamma(x)-gamma(y)| on
    [x0-eps, x0+eps], by pair scan on a window grid."""
    if not p.unit_speed:
        raise DomainError("window constant needs a unit-speed parametrization")
    if eps >= p.period / 4.0:
        raise DomainError("window must be smaller than a quarter period")
    m = max(m, 256)
    xs = np.linspace(x0 - eps, x0 + eps, m)
    step = xs[1] - xs[0]
    worst = 1.0
    for off, d in _offset_chords(p.point(xs), closed=False):
        worst = max(worst, float(np.max(off * step / d)))
    return worst


def window_speed_range(p, x0: float, eps: float, m: int = 257):
    """Extremes (c, C) of chord speed |gamma(x)-gamma(y)|/|x-y| on a window.

    Odd node counts keep the window center and both endpoints on the grid,
    so the two exact half-chords at x0 are always among the scanned pairs.
    """
    m = max(m, 65)
    if m % 2 == 0:
        m += 1
    xs = np.linspace(x0 - eps, x0 + eps, m)
    step = xs[1] - xs[0]
    lo, hi = np.inf, 0.0
    for off, d in _offset_chords(p.point(xs), closed=False):
        ratio = d / (off * step)
        lo = min(lo, float(ratio.min()))
        hi = max(hi, float(ratio.max()))
    return lo, hi


def eps0_gate(sc, bilip: float):
    """Largest dyadic eps whose chord-scale conformality defect is small.

    Operational stand-in for the proof-level smallness threshold: the
    largest eps = period * 2^-k, k >= 2, whose defect at chord scale
    bilip*eps stays below 0.05.  A level is rejected at the first running
    defect that reaches 0.05, which the full scan would only raise.  Returns
    None when no dyadic level passes, e.g. for corner curves.
    """
    period = sc.period
    # keep at least 8 grid cells under the probed chord scale
    k_max = max(2, int(math.floor(math.log2(sc.n * bilip / 8.0))))
    pts_sub = sc.points[:: max(1, sc.n // 256)]
    diam = float(np.abs(pts_sub[:, None] - pts_sub[None, :]).max())
    for k in range(2, k_max + 1):
        eps = period * 2.0 ** (-k)
        d = bilip * eps
        if d > 0.45 * diam:
            continue
        if d < 8.0 * sc.spacing:
            break
        if all(v < 0.05 for v in _detour_defects(sc, d, None)):
            return eps
    return None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Geometry diagnostics of one sampled curve."""

    kind: str
    grid_n: int
    chord_arc_const: float
    bilip: float
    ac_table: tuple          # (k, eps, delta)
    omega2_table: tuple      # (k, eps, value, arg_param)
    omega2_focus_table: tuple
    local_bilip_table: tuple  # (k, eps, C_eps)
    eps0: float | None
    notes: tuple = ()


def focus_grid(p, eps: float):
    """1536 parameters within 48 eps of the focus point; None without one."""
    x0 = p.meta.get("focus_param")
    if x0 is None:
        return None
    half = min(48.0 * eps, 0.45 * p.period)
    return x0 + np.linspace(-half, half, 1536)


def diagnostics(p, sc, k_min: int = 3, k_max: int = 12,
                x_grid_n: int = 4096, eps0: float | None = None) -> DiagnosticsReport:
    """Assemble the standard diagnostics tables on dyadic scales.

    eps0 is the smallness threshold the caller measured (see eps0_gate),
    reported as given; None omits its row.
    """
    cac, bil = _chord_constants(sc, with_arc=True)
    period = sc.period
    xs = period * np.arange(x_grid_n) / x_grid_n
    ac_rows, w2_rows, w2f_rows, lb_rows = [], [], [], []
    for k in range(k_min, k_max + 1):
        eps = period * 2.0 ** (-k)
        if eps >= 2.0 * sc.spacing:
            ac_rows.append((k, eps, conformality_modulus(sc, bil * eps)))
        val, argx = omega2(p, eps, xs)
        w2_rows.append((k, eps, val, argx))
        fg = focus_grid(p, eps)
        if fg is not None:
            fval, fargx = omega2(p, eps, fg)
            w2f_rows.append((k, eps, fval, fargx))
        if eps < period / 4.0:
            x0 = p.meta.get("focus_param", 0.0)
            lb_rows.append((k, eps, local_bilipschitz(p, x0, eps, m=384)))
    return DiagnosticsReport(kind=p.kind, grid_n=sc.n, chord_arc_const=cac,
                             bilip=bil, ac_table=tuple(ac_rows),
                             omega2_table=tuple(w2_rows),
                             omega2_focus_table=tuple(w2f_rows),
                             local_bilip_table=tuple(lb_rows),
                             eps0=eps0, notes=tuple(sc.warnings))


def diagnostics_csv_rows(report: DiagnosticsReport):
    """Rows quantity,epsilon,value,arg_param; dyadic eps written as T*2^-k."""
    rows = ["quantity,epsilon,value,arg_param"]
    rows.append(f"chord_arc_const,,{report.chord_arc_const:.17g},")
    rows.append(f"bilipschitz,,{report.bilip:.17g},")
    if report.eps0 is not None:
        rows.append(f"eps0,,{report.eps0:.17g},")
    for k, _eps, val in report.ac_table:
        rows.append(f"ac_modulus,T*2^-{k},{val:.17g},")
    for k, _eps, val, argx in report.omega2_table:
        rows.append(f"omega2,T*2^-{k},{val:.17g},{argx:.17g}")
    for k, _eps, val, argx in report.omega2_focus_table:
        rows.append(f"omega2_focus,T*2^-{k},{val:.17g},{argx:.17g}")
    for k, _eps, val in report.local_bilip_table:
        rows.append(f"local_bilip,T*2^-{k},{val:.17g},")
    return rows
