"""Geometric functionals of sampled curves: chord-arc and bilipschitz
constants, the asymptotic-conformality defect, second differences, the
windowed bilipschitz constant, and the branch-consistent log ratio of the
two half-chords at a point, in closed form as the principal Log of their
quotient."""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._peers import in_task_order
from .errors import (
    BranchAmbiguityError,
    DegenerateGeometryError,
    DomainError,
)
from .operators import dyadic_levels

__all__ = [
    "DiagnosticsReport",
    "chord_arc_constant",
    "bilipschitz_constant",
    "conformality_modulus",
    "second_difference",
    "omega2",
    "branch_log",
    "local_bilipschitz",
    "eps0_gate",
    "diagnostics",
    "diagnostics_csv_rows",
]


def _apart(off, d):
    """d, once no chord in it is below 1e-12; off is the parameter offset of
    its chords, one for all or one per chord.  Else DegenerateGeometryError
    names the smallest offset with coincident points."""
    bad = d < 1e-12
    if np.any(bad):
        off = np.broadcast_to(off, d.shape)[bad].min()
        raise DegenerateGeometryError(
            f"coincident points at parameter offset {off}")
    return d


# Chords in one block of offsets of the closed chord scan (1 MB of
# complex differences).
_CHORD_BLOCK = 2 ** 16


def _offset_chords(pts):
    """Yield the blocks of the parameter offsets 1..n//2 of a closed grid of
    n nodes, in order of offset, as calls that each return (off, d): the
    block's offsets as a column and d[k, i] = |z[i + off[k]] - z[i]| with
    indices taken mod n, read from one wrapped copy."""
    n = len(pts)
    ext = np.concatenate([pts, pts[:n // 2]])
    rows = np.lib.stride_tricks.sliding_window_view(ext, n)
    step = max(1, _CHORD_BLOCK // n)
    for lo in range(1, n // 2 + 1, step):
        yield partial(_block_chords, rows, ext[:n], lo, min(lo + step, n // 2 + 1))


def _block_chords(rows, base, lo: int, hi: int):
    off = np.arange(lo, hi)[:, None]
    return off, _apart(off, np.abs(rows[lo:hi] - base))


def _window_chords(pts):
    """(off, |z[j] - z[i]|) over the pairs i < j of an open window grid, as
    two arrays from one pass over the pair upper triangle."""
    i, j = np.triu_indices(len(pts), 1)
    off = j - i
    return off, _apart(off, np.abs(pts[j] - pts[i]))


def _chord_constants(sc, with_arc: bool):
    """(chord-arc constant, L) of a closed sampling from one chord scan.

    L is the largest parameter-distance over chord ratio.  The chord-arc
    constant, computed only with_arc, is the largest shorter-arc over chord
    ratio, with arcs summed along the offset-1 chords (the grid's edges);
    without it the first entry is 1.0.  The blocks of offsets run on two
    peer workers; a maximum is exact in any order, and a degenerate block
    raises in offset order, so the error names the smallest bad offset.
    """
    if with_arc and sc.n < 64:
        raise DomainError("need at least 64 nodes for the pair scan")
    n, h = sc.n, sc.spacing
    pts = sc.points
    if with_arc:
        edges = _apart(1, np.abs(np.roll(pts, -1) - pts))
        cum = np.concatenate(([0.0], np.cumsum(edges)))
        total = float(cum[-1])
        arcs = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([cum[:-1], cum[:-1] + total]), n)

    def scan(chords, _scratch):
        off, d = chords()
        bil = float(np.max(off * h / d))
        if not with_arc:
            return 1.0, bil
        arc = arcs[off[0, 0]:off[-1, 0] + 1] - cum[:n]
        return float(np.max(np.minimum(arc, total - arc) / d)), bil

    cac = bil = 1.0
    tasks = [partial(scan, chords) for chords in _offset_chords(pts)]
    with closing(in_task_order(tasks)) as results:
        for block_cac, block_bil in results:
            cac, bil = max(cac, block_cac), max(bil, block_bil)
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
# Relative slack of the polygonal-arc bound that prunes the detour scan.
_ARC_SLACK = 1e-9


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


def _arc_survivors(sel, arc, chord, bar: float):
    """Columns of the mask sel whose chord may have a detour defect above
    bar: those whose polygonal arc exceeds (1 + bar) chord / (1 + _ARC_SLACK).
    Why the slack makes the others safe to skip is in _detour_defects."""
    lim = (1.0 + bar) / (1.0 + _ARC_SLACK)
    return np.flatnonzero(sel & (arc > lim * chord))


def _detour_defects(sc, d: float, stride: int | None, floor: float = 0.0):
    """Running worst detour defect at chord scale d, yielded after each
    node block's midpoint seeds and after each (node block, offset) pair
    whose chords <= d are not all skipped.  A chord is skipped when it
    provably cannot raise the running worst above max(worst, floor), so
    the yielded value is exact once it reaches floor, and the last one is
    the exact maximum.

    Nodes run in blocks of B.  For one block the table
    F[j, t] = |z[t+j] - z[t]| (j <= K, the largest offset with a chord
    <= d) is built once, and its row-skewed view G[j, t] = F[j, t-j] puts
    both legs of every detour through z[i+k] on the chord (z[i], z[i+off])
    into two plain slices: F[k, i] + G[off-k, i+off].

    Pruning.  By the triangle inequality every detour of the chord is at
    most its polygonal arc P, the sum of its off edges F[1, i+m], kept as
    one running row over the offsets.  The running worst starts from each
    chord's midpoint detour F[off//2, i] + G[off - off//2, i+off], a sum
    the full scan forms with the same bits, over every offset of the
    block.  Then _arc_survivors skips a chord c when
    P <= (1 + bar) c / (1 + _ARC_SLACK), bar = max(worst, floor).
    Rounding: each leg and edge is one complex subtraction and abs, within
    a few ulps u of its exact value; the running sum of off edges is within
    about off u of the exact P; the products, the ratio and the final
    subtraction of 1 add a few u more.  _ARC_SLACK covers that many times
    over for any table that fits in memory (off u is about 1e-10 at
    off = 10^6), so a skipped chord's computed defect is at most the bar.

    The surviving columns get their leg sums as a gather.  When they fill
    more than an eighth of the block, the whole block is summed by slices
    instead: gathering (off-1) x cols legs costs about as much as slicing
    (off-1) x B of them once cols is 5-20% of B, and on a circle nearly
    every column survives.
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
    arc = np.empty(B)
    worst = 0.0
    for b0 in range(0, n2, B):
        nb = min(B, n2 - b0)
        w = nb + K
        e = ext[b0:b0 + w + K]
        for j in range(1, K + 1):
            np.abs(e[j:j + w] - e[:w], out=F[j, :w])
        chords = []
        for off in offs:
            chord = F[off, :nb]
            sel = chord <= d
            if not sel.any():
                continue
            h = off // 2
            mid = np.add(F[h, :nb], G[off - h, off:off + nb], out=legs[0, :nb])
            mid /= chord
            worst = max(worst, float(mid.max(where=sel, initial=0.0)) - 1.0)
            chords.append((off, sel))
        yield worst
        arc[:nb] = F[1, :nb]
        m = 1  # arc[:nb] is the polygonal arc of offset m
        for off, sel in chords:
            while m < off:
                arc[:nb] += F[1, m:m + nb]
                m += 1
            chord = F[off, :nb]
            cols = _arc_survivors(sel, arc[:nb], chord, max(worst, floor))
            if not cols.size:
                continue
            if cols.size > nb // 8:
                s = np.add(F[1:off, :nb], G[off - 1:0:-1, off:off + nb],
                           out=legs[:off - 1, :nb]).max(axis=0)[cols]
            else:
                s = (F[1:off, cols] + G[off - 1:0:-1, off + cols]).max(axis=0)
            worst = max(worst, float((s / chord[cols]).max()) - 1.0)
            yield worst


def conformality_modulus(sc, d: float, stride: int | None = None) -> float:
    """Worst detour defect sup (|z1-z| + |z2-z|)/|z1-z2| - 1 over chords <= d.

    The inner point z runs over grid nodes of the shorter-parameter arc
    (the smaller-diameter arc for chords below half the curve diameter;
    ties break toward the shorter-parameter arc).  The scan runs on a
    stride-subsampled grid tuned to the chord scale, and pairs of
    parameter separation beyond 16 d are skipped: on a curve of chord-arc
    constant below 16 they cannot reach chords <= d.

    A chord whose polygonal arc, widened by the slack _ARC_SLACK, stays
    within (1 + running worst) times the chord is skipped: it cannot raise
    the worst (the bound and its rounding are in _detour_defects).

    The value is bit-identical to a loop that forms every detour sum and
    divides it by its chord: each leg is the same complex subtraction and
    abs, max is exact, and division by a chord c > 0 is monotone under
    rounding, so max_k fl(s_k / c) == fl(max_k s_k / c).  Memory is one
    distance table of (K+1)(B+K) doubles, a leg buffer of K B, one arc row
    of B and the gather buffers of the surviving columns (under K B / 8
    doubles each), where K is the largest offset with a chord <= d and
    B = max(K, 2^19 / (K+1)): about 2^21 + 4 K^2 doubles at most, 16 MB
    plus 32 K^2 bytes at any grid size.
    """
    return max(_detour_defects(sc, d, stride), default=0.0)


def second_difference(p, x, eps: float):
    """|gamma(x+eps) + gamma(x-eps) - 2 gamma(x)|, vectorized over x."""
    if not 0.0 < eps < p.period:
        raise DomainError("offset must lie in (0, period)")
    x = np.asarray(x, dtype=float)
    return _second_differences(p.point(x + eps), p.point(x - eps), p.point(x))


def _second_differences(ahead, behind, at):
    return np.abs(ahead + behind - 2.0 * at)


def omega2(p, eps: float, x_grid):
    """Sup of the second difference over a parameter grid.

    Returns (value, argmax parameter).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    return _peak(second_difference(p, x_grid, eps), x_grid)


def _peak(vals, x_grid):
    k = int(np.argmax(vals))
    return float(vals[k]), float(x_grid[k])


def _branch_logs(p, x, eps: float):
    """Principal Log(b/a) at every parameter of x, where
    a = gamma(x) - gamma(x-eps) and b = gamma(x+eps) - gamma(x), and the
    distance from the origin to the segment [a, b] (|a| when b = a).

    A segment that misses the origin subtends an angle below pi, so the
    integral of dz/z along it is exactly Log(b/a).  Within 1e-12 of the
    origin the branch is ambiguous and the value is nan.  With w = (b-a)/a,
    Re = log1p(2 Re w + |w|^2) / 2 and Im = atan2(Im w, 1 + Re w) keep
    their relative accuracy when b is close to a, where log(b / a) and
    complex log1p lose it.
    """
    if not 0.0 < eps < p.period:
        raise DomainError("offset must lie in (0, period)")
    x = np.asarray(x, dtype=float)
    z = p.point(x)
    a = z - p.point(x - eps)
    d = p.point(x + eps) - z - a
    dd = np.abs(d) ** 2
    t = np.clip(-(a * np.conj(d)).real / np.where(dd == 0.0, 1.0, dd), 0.0, 1.0)
    dist = np.abs(a + t * d)
    ok = dist > 1e-12
    w = d[ok] / a[ok]
    values = np.full(x.shape, complex(math.nan, math.nan))
    values[ok] = (0.5 * np.log1p(2.0 * w.real + (w.real ** 2 + w.imag ** 2))
                  + 1j * np.arctan2(w.imag, 1.0 + w.real))
    return values, dist


def _ambiguous(dist: float) -> BranchAmbiguityError:
    return BranchAmbiguityError(
        f"chord segment passes within {dist:.2e} of the origin; "
        "the log branch is ambiguous here")


def branch_log(p, x: float, eps: float) -> complex:
    """log(gamma(x+eps)-gamma(x)) - log(gamma(x-eps)-gamma(x)) + pi*i with
    the branch fixed by continuity from eps -> 0.

    The closed form of _branch_logs at one parameter: the straight-segment
    integral between the two reflected half-chords, valid while that
    segment avoids the origin (else BranchAmbiguityError).  The tests
    compare it with a 40-digit log(b/a) and with continuous argument
    unwrapping along the curve (_branch_log_unwrapped in tests/oracles.py).
    """
    values, dist = _branch_logs(p, [x], eps)
    val = complex(values[0])
    if math.isnan(val.real):
        raise _ambiguous(float(dist[0]))
    return val


def local_bilipschitz(p, x0: float, eps: float, m: int = 512) -> float:
    """Smallest window constant C with |x-y|/C <= |gamma(x)-gamma(y)| on
    [x0-eps, x0+eps] of a unit-speed curve, by one pass over the m (m-1) / 2
    node pairs of a window grid (about 73k pairs, 2 MB, at m = 384)."""
    if eps >= p.period / 4.0:
        raise DomainError("window must be smaller than a quarter period")
    xs = _window_grid(x0, eps, m)
    return _window_constant(xs, p.point(xs))


def _window_grid(x0: float, eps: float, m: int):
    return np.linspace(x0 - eps, x0 + eps, max(m, 256))


def _window_constant(xs, pts) -> float:
    off, d = _window_chords(pts)
    return max(1.0, float(np.max(off * (xs[1] - xs[0]) / d)))


def eps0_gate(sc, bilip: float):
    """Largest dyadic eps whose chord-scale conformality defect is small.

    Operational stand-in for the proof-level smallness threshold: the
    largest eps = period * 2^-k, k >= 2, whose defect at chord scale
    bilip*eps stays below 0.05.  A level is rejected at the first running
    defect that reaches 0.05, which the full scan would only raise.  Returns
    None when no dyadic level passes, e.g. for corner curves.

    Each level runs the detour scan of conformality_modulus with the bar
    max(running worst, 0.05): a chord whose polygonal arc, widened by the
    slack _ARC_SLACK, stays within (1 + bar) times the chord cannot reach
    0.05 (see _detour_defects), so it is skipped and the gate returns the
    eps of a full scan.  Memory
    is that of conformality_modulus: one distance table, one arc row and
    the gather buffers of the surviving columns.
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
        if all(v < 0.05 for v in _detour_defects(sc, d, None, 0.05)):
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

    The conformality table keeps only the levels of dyadic_levels, which
    resolve two grid cells; the other tables take every k_min..k_max.
    eps0 is the smallness threshold the caller measured (see eps0_gate),
    reported as given; None omits its row.  Every parameter the omega2,
    focus and window tables read goes through one p.point call, and each
    table takes its slice of the points.
    """
    cac, bil = _chord_constants(sc, with_arc=True)
    period = sc.period
    resolved = dict(dyadic_levels(sc, 1))
    xs = period * np.arange(x_grid_n) / x_grid_n
    x0 = p.meta.get("focus_param", 0.0)
    levels = []
    for k in range(k_min, k_max + 1):
        eps = period * 2.0 ** (-k)
        win = _window_grid(x0, eps, 384) if eps < period / 4.0 else None
        levels.append((k, eps, focus_grid(p, eps), win))
    params = [xs]
    for k, eps, fg, win in levels:
        params += [xs + eps, xs - eps]
        if fg is not None:
            params += [fg + eps, fg - eps, fg]
        if win is not None:
            params.append(win)
    # the points come back in the order their parameters went in
    pts = iter(np.split(p.point(np.concatenate(params)),
                        np.cumsum([len(x) for x in params])[:-1]))
    at = next(pts)
    ac_rows, w2_rows, w2f_rows, lb_rows = [], [], [], []
    for k, eps, fg, win in levels:
        if k in resolved:
            ac_rows.append((k, eps, conformality_modulus(sc, bil * eps)))
        w2_rows.append((k, eps) + _peak(
            _second_differences(next(pts), next(pts), at), xs))
        if fg is not None:
            w2f_rows.append((k, eps) + _peak(
                _second_differences(next(pts), next(pts), next(pts)), fg))
        if win is not None:
            lb_rows.append((k, eps, _window_constant(win, next(pts))))
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
