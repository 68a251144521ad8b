"""Geometric functionals of sampled curves: chord-arc and bilipschitz
constants, the asymptotic-conformality defect, second differences, the
windowed bilipschitz constant, and the branch-consistent log ratio of the
two half-chords at a point, in closed form as the principal Log of their
quotient."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .curves import arclength_sample
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
    "branch_log",
    "eps0_gate",
    "diagnostics",
    "diagnostics_csv_rows",
]


# Chords below this floor mark coincident points (see _apart).
_COINCIDENT = 1e-12


def _apart(off, d):
    """d, once no chord in it is below _COINCIDENT; off is the parameter
    offset of its chords, one for all or one per chord.  Else
    DegenerateGeometryError names the smallest offset with coincident
    points.

    The floor is absolute, not relative to the period or the spacing,
    because what it tells apart is rounding: two nodes that are one point
    (a curve through a point twice, a repeated sample) differ by a few ulps
    of their coordinates.  On curves of size about 1 a chord below 1e-12
    is within a few thousand ulps of a unit coordinate, while grid edges,
    about period / n, are many orders longer.  A curve shrunk until its
    grid edges near 1e-12 is reported degenerate (the tests pin this at
    2^-36 times the unit circle).  The skip rule of the closed chord scan
    reads the same floor (_skip_below), so that it skips no offset holding
    a chord below it.
    """
    bad = d < _COINCIDENT
    if np.any(bad):
        off = np.broadcast_to(off, d.shape)[bad].min()
        raise DegenerateGeometryError(
            f"coincident points at parameter offset {off}")
    return d


# Offsets of one block of a window's pair triangle (_window_chords).
_WINDOW_BLOCK = 64


def _window_chords(pts):
    """(off, |z[j] - z[i]|) over the pairs i < j of an open window grid, as
    two arrays per block of _WINDOW_BLOCK offsets j - i, from offset 1 up.
    Each block passes _apart before it is yielded, so a coincidence raises
    in the first block that holds one and names the smallest offset of the
    whole triangle."""
    n = len(pts)
    for o0 in range(1, n, _WINDOW_BLOCK):
        offs = np.arange(o0, min(n, o0 + _WINDOW_BLOCK))
        r, i = np.nonzero(offs[:, None] + np.arange(n - o0) < n)
        off = offs[r]
        yield off, _apart(off, np.abs(pts[i + off] - pts[i]))


def _chord_row(ext, n: int, off: int):
    """|z[i + off] - z[i]| over the nodes i of a closed grid of n nodes;
    ext is the grid followed by at least its first off nodes."""
    return np.abs(ext[off:off + n] - ext[:n])


def _skip_below(off: int, h: float, m0: float, step: float, bil: float,
                arcs: tuple | None = None, floor: float = _COINCIDENT) -> int:
    """How many offsets off-1 .. off-s below a computed row of a closed
    chord scan may go unscanned: none of their chords is below floor or
    has a parameter-distance ratio above bil, nor, with
    arcs = (A, emin, total, cac), an arc ratio above cac.  The chord-arc
    scan takes the coincidence floor _COINCIDENT; the table height of the
    detour scan (_table_height) takes its chord scale d, and h = 0, which
    makes every parameter-distance ratio 0.

    m0 is the row's shortest chord, step and emin the longest and shortest
    grid edge, h the spacing; A is the row's longest arc and total the
    curve's length.  Offset off-t passes when
    lo = m0 - t step - 1e-12 (m0 + t step) >= floor,
    (off - t) h <= bil lo and A - t emin + 1e-12 (A + t total) <= cac lo.
    By the triangle inequality each chord t offsets nearer is at least
    m0 - t step, and its arc is at most A less the t edges it lacks, as the
    arcs are differences of a cumsum that rises by each edge.  Each
    condition is linear in t, so once it holds at t = 1 and t = s it holds
    at every t between; s is the largest that a bisection finds.

    Rounding: the computed chords, m0 and step are within a few ulps u of
    their exact values relative to themselves, each step of the cumsum
    within a few u of total of its edge, and each ratio and each test above
    within a few u of itself.  m0 can exceed lo many times (by about
    n bil / 2), so the slack is relative to m0, t step, A and t total, not
    to lo; 1e-12 covers those few u by a wide margin.  So every computed
    chord of a skipped offset exceeds lo and the floor, and its computed
    ratios are at most bil and cac.
    """
    def passes(t: int) -> bool:
        lo = m0 - t * step - 1e-12 * (m0 + t * step)
        if lo < floor or (off - t) * h > bil * lo:
            return False
        if arcs is None:
            return True
        A, emin, total, cac = arcs
        return A - t * emin + 1e-12 * (A + t * total) <= cac * lo

    if off < 2 or not passes(1):
        return 0
    s, top = 1, off
    while top - s > 1:
        mid = (s + top) // 2
        s, top = (mid, top) if passes(mid) else (s, mid)
    return s


def _chord_constants(sc, with_arc: bool):
    """(chord-arc constant, L) of a closed sampling from one chord scan.

    L is the largest parameter-distance over chord ratio.  The chord-arc
    constant, computed only with_arc, is the largest shorter-arc over chord
    ratio, with arcs summed along the offset-1 chords (the grid's edges);
    without it the first entry is 1.0.  Both are maxima over the rows of
    chords at the offsets 1..n//2, and a search down from n//2 computes
    only the rows that may raise them: below each computed row it passes
    over the offsets that _skip_below rules out, given the running maxima.
    So the constants are those of a scan of every row, bit for bit.  When
    a computed row holds coincident points, the rows up to it are scanned
    upward, so the error names the smallest offset that holds them.
    """
    if with_arc and sc.n < 64:
        raise DomainError("need at least 64 nodes for the pair scan")
    n, h = sc.n, sc.spacing
    ext = np.concatenate([sc.points, sc.points[:n // 2]])
    edges = _chord_row(ext, n, 1)
    step, emin = float(edges.max()), float(edges.min())
    if with_arc:
        cum = np.concatenate(([0.0], np.cumsum(_apart(1, edges))))
        total = float(cum[-1])
        cum2 = np.concatenate([cum[:-1], cum[:-1] + total])
    cac = bil = 1.0
    off = n // 2
    while off >= 1:
        d = _chord_row(ext, n, off)
        m0 = float(d.min())
        if m0 < _COINCIDENT:
            for o in range(1, off + 1):
                _apart(o, _chord_row(ext, n, o))
        bil = max(bil, float(np.max(off * h / d)))
        arcs = None
        if with_arc:
            arc = cum2[off:off + n] - cum[:n]
            cac = max(cac, float(np.max(np.minimum(arc, total - arc) / d)))
            arcs = float(arc.max()), emin, total, cac
        off -= 1 + _skip_below(off, h, m0, step, bil, arcs)
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
# Equispaced parameters of the diagnostics' omega2 table.
_OMEGA2_NODES = 4096
# Most parameters of one p.point call of the diagnostics (whole levels).
_POINT_GROUP = 2 ** 16
# Doubles in one node block's distance table; sets the block length.
_TABLE_SIZE = 2 ** 17
# Relative slack of the polygonal-arc bound that prunes the detour scan.
_ARC_SLACK = 1e-9


def _table_height(ext, n2: int, max_off: int, d: float) -> int:
    """The largest offset 2..max_off at which some chord of the closed grid
    of n2 nodes is <= d, or 0 when there is none; ext is that grid followed
    by at least its first max_off nodes.

    The search runs down from max_off.  Below an offset whose shortest
    chord exceeds d it passes over the offsets that _skip_below rules out
    with d as its floor: the triangle-inequality rule of the chord-arc
    scan, with its one rounding slack, so the height equals that of a
    search that tests every offset.
    """
    view = ext[:n2]
    step = float(np.abs(ext[1:n2 + 1] - view).max())
    off = max_off
    while off >= 2:
        m0 = float(np.abs(ext[off:off + n2] - view).min())
        if m0 <= d:
            return off
        off -= 1 + _skip_below(off, 0.0, m0, step, 1.0, floor=d)
    return 0


def _arc_survivors(sel, arc, chord, bar: float):
    """Columns of the mask sel whose chord may have a detour defect above
    bar: those whose polygonal arc exceeds (1 + bar) chord / (1 + _ARC_SLACK).
    Why the slack makes the others safe to skip is in _detour_defects."""
    lim = (1.0 + bar) / (1.0 + _ARC_SLACK)
    return np.flatnonzero(sel & (arc > lim * chord))


def _detour_defects(sc, d: float, floor: float = 0.0, start: int = 0):
    """(worst, node) of the detour scan at chord scale d.  With floor > 0
    the scan returns at the first chord that lifts the running worst to
    floor or above, with the node of sc at that chord's start; otherwise
    it returns the exact maximum and None.  A chord is skipped when it
    provably cannot raise the running worst above max(worst, floor), so
    the maximum, and whether it reaches floor, are exact.

    Nodes run in blocks of B, from the block that holds node `start` of sc
    to the last and then from the first; the maximum, and whether it
    reaches floor, do not depend on that order, so a scan at the next scale
    can start at the node where this one reached floor.  For one block
    the table F[j, t] = |z[t+j] - z[t]| (j <= K, the largest offset with a
    chord <= d, from _table_height) is built once, and its row-skewed view
    G[j, t] = F[j, t-j] puts both legs of every detour through z[i+k] on
    the chord (z[i], z[i+off]) into two plain slices:
    F[k, i] + G[off-k, i+off].  An offset with no chord <= d in the block
    is passed over.

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
    stride = max(1, int(d / (48.0 * sc.spacing)))
    view = sc.points[::stride]
    n2 = len(view)
    h2 = sc.spacing * stride
    max_off = min(n2 // 2, int(math.ceil(_ARC_FACTOR * d / h2)) + 1)
    ext = np.concatenate([view, view[:2 * max_off]])
    K = _table_height(ext, n2, max_off, d)
    if not K:
        return 0.0, None
    B = min(n2, max(K, _TABLE_SIZE // (K + 1)))
    F = np.empty((K + 1, B + K))
    G = np.lib.stride_tricks.as_strided(
        F, strides=(F.strides[0] - F.strides[1], F.strides[1]), writeable=False)
    legs = np.empty((K, B))
    arc = np.empty(B)
    worst = 0.0
    blocks = range(0, n2, B)
    first = start // stride // B
    for b0 in chain(blocks[first:], blocks[:first]):
        nb = min(B, n2 - b0)
        w = nb + K
        e = ext[b0:b0 + w + K]
        for j in range(1, K + 1):
            np.abs(e[j:j + w] - e[:w], out=F[j, :w])
        chords = []
        for off in range(2, K + 1):
            chord = F[off, :nb]
            sel = chord <= d
            if not sel.any():
                continue
            h = off // 2
            mid = np.add(F[h, :nb], G[off - h, off:off + nb], out=legs[0, :nb])
            mid /= chord
            v = float(mid.max(where=sel, initial=0.0)) - 1.0
            if v > worst:
                worst = v
                if 0.0 < floor <= worst:
                    i = int(np.where(sel, mid, 0.0).argmax())
                    return worst, (b0 + i) * stride
            chords.append((off, sel))
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
            r = s / chord[cols]
            v = float(r.max()) - 1.0
            if v > worst:
                worst = v
                if 0.0 < floor <= worst:
                    return worst, (b0 + int(cols[r.argmax()])) * stride
    return worst, None


def conformality_modulus(sc, d: float) -> float:
    """Worst detour defect sup (|z1-z| + |z2-z|)/|z1-z2| - 1 over chords <= d.

    The inner point z runs over grid nodes of the shorter-parameter arc
    (the smaller-diameter arc for chords below half the curve diameter;
    ties break toward the shorter-parameter arc).  The scan runs on every
    s-th node, s = max(1, floor(d / (48 h))) for the spacing h, and pairs of
    parameter separation beyond 16 d are skipped: on a curve of chord-arc
    constant below 16 they cannot reach chords <= d.  Chords whose
    polygonal arc bounds their detours within the running worst are
    skipped (the bound and its rounding are in _detour_defects).

    The value is bit-identical to a loop that forms every detour sum and
    divides it by its chord: each leg is the same complex subtraction and
    abs, max is exact, and division by a chord c > 0 is monotone under
    rounding, so max_k fl(s_k / c) == fl(max_k s_k / c).  Memory is one
    distance table of (K+1)(B+K) doubles, a leg buffer of K B, one arc row
    of B and the gather buffers of the surviving columns (under K B / 8
    doubles each), where K is the largest offset with a chord <= d and
    B = max(K, 2^17 / (K+1)): about 2^19 + 4 K^2 doubles at most, 4 MiB
    plus 32 K^2 bytes at any grid size.  K comes from _table_height; with
    no floor the scan runs every node block, from the first.
    """
    return _detour_defects(sc, d)[0]


def second_difference(p, x, eps: float):
    """|gamma(x+eps) + gamma(x-eps) - 2 gamma(x)|, vectorized over x."""
    if not 0.0 < eps < p.period:
        raise DomainError("offset must lie in (0, period)")
    x = np.asarray(x, dtype=float)
    return _second_differences(p.point(x + eps), p.point(x - eps), p.point(x))


def _second_differences(ahead, behind, at):
    return np.abs(ahead + behind - 2.0 * at)


def _peak(vals, x_grid):
    k = int(np.argmax(vals))
    return float(vals[k]), float(x_grid[k])


def _branch_logs(p, x, eps: float):
    """Principal Log(b/a) at every parameter of x, where
    a = gamma(x) - gamma(x-eps) and b = gamma(x+eps) - gamma(x), and the
    distance from the origin to the segment [a, b] (|a| when b = a).

    A segment that misses the origin subtends an angle below pi, so the
    integral of dz/z along it is exactly Log(b/a).  Within 1e-12 of the
    origin the branch is ambiguous and the value is nan.  That distance is
    absolute for the reason _COINCIDENT is (see _apart): it tells apart
    rounding, a few ulps of the coordinates a and b are differenced from.
    It is a known scale defect all the same: on a curve shrunk until its
    half-chords near 1e-12, every branch reads ambiguous.  With
    w = (b-a)/a, Re = log1p(2 Re w + |w|^2) / 2 and
    Im = atan2(Im w, 1 + Re w) keep their relative accuracy when b is close
    to a, where log(b / a) and complex log1p lose it.
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


def _window_constant(xs, pts) -> float:
    """Smallest C with |x-y|/C <= |gamma(x)-gamma(y)| over the node pairs of
    a window grid xs of a unit-speed curve, pts its points: the max over
    the blocks of _window_chords, each ratio the same division as in one
    table of every pair (384 nodes: about 73k pairs, at most 22.5k in a
    block)."""
    h = xs[1] - xs[0]
    return max(1.0, max(float(np.max(off * h / d))
                        for off, d in _window_chords(pts)))


def eps0_gate(sc, bilip: float):
    """Largest dyadic eps whose chord-scale conformality defect is small.

    Operational stand-in for the proof-level smallness threshold: the
    largest eps = period * 2^-k, k >= 2, whose defect at chord scale
    d = bilip*eps stays below 0.05, with d at least 8 grid cells.  Returns
    None when no dyadic level passes, e.g. for corner curves.  A curve with
    a finest scale (the spiral) is gated on 2^16 nodes of sc.source when sc
    has fewer: coarser grids' 8-cell floor cuts off its passing scales.

    Each level runs the detour scan of conformality_modulus with floor
    0.05 (_detour_defects), which skips every chord that cannot reach 0.05
    and returns at the first chord that does, rejecting the level; a full
    scan would only raise that defect.  Each level after the first starts
    its node blocks at the node where the level before was rejected, and
    wraps round: the defect lifts with the scale where the curve is least
    conformal, so a rejected level tends to reject again there, in its
    first block; a level passes only once every block is scanned, in any
    order.  Memory is that of conformality_modulus.
    """
    p = sc.source
    if p is not None and "finest_scale" in p.meta and sc.n < 2 ** 16:
        sc = arclength_sample(p, 2 ** 16)
    pts_sub = sc.points[:: max(1, sc.n // 256)]
    diam = float(np.abs(pts_sub[:, None] - pts_sub[None, :]).max())
    start = 0
    for k in count(2):
        eps = sc.period * 2.0 ** (-k)
        d = bilip * eps
        if d > 0.45 * diam:
            continue
        # keep at least 8 grid cells under the probed chord scale
        if d < 8.0 * sc.spacing:
            return None
        _, node = _detour_defects(sc, d, 0.05, start)
        if node is None:
            return eps
        start = node


@dataclass(frozen=True)
class DiagnosticsReport:
    """Geometry diagnostics of one sampled curve."""

    chord_arc_const: float
    bilip: float
    ac_table: tuple          # (k, eps, delta)
    omega2_table: tuple      # (k, eps, value, arg_param)
    omega2_focus_table: tuple
    local_bilip_table: tuple  # (k, eps, C_eps)
    eps0: float | None


def focus_grid(p, eps: float):
    """1536 parameters within 48 eps of the focus point; None without one."""
    x0 = p.meta.get("focus_param")
    if x0 is None:
        return None
    half = min(48.0 * eps, 0.45 * p.period)
    return x0 + np.linspace(-half, half, 1536)


def _points_by_level(p, params):
    """The points of p at each entry of params, a list of lists of
    parameter arrays, as one list of point arrays per entry, in order.
    p.point is called once per group of consecutive entries that hold at
    most _POINT_GROUP parameters together (an entry above that alone), and
    a group is evaluated only once the entries before it are taken.  A
    point depends only on its own parameter, so the points are those of
    one call at every parameter."""
    sizes = [sum(map(len, entry)) for entry in params]
    start = 0
    while start < len(params):
        stop, total = start + 1, sizes[start]
        while stop < len(params) and total + sizes[stop] <= _POINT_GROUP:
            total += sizes[stop]
            stop += 1
        flat = [x for entry in params[start:stop] for x in entry]
        pts = iter(np.split(p.point(np.concatenate(flat)),
                            np.cumsum([len(x) for x in flat])[:-1]))
        for entry in params[start:stop]:
            yield [next(pts) for _ in entry]
        start = stop


def diagnostics(sc, k_min: int = 3, k_max: int = 12,
                eps0: float | None = None) -> DiagnosticsReport:
    """Assemble the standard diagnostics tables of the curve sc.source on
    dyadic scales.

    The conformality table keeps only the levels of dyadic_levels, which
    resolve two grid cells; the other tables take every k_min..k_max.  The
    omega2 table reads _OMEGA2_NODES equispaced parameters, and the window
    table the 384 parameters of [x0 - eps, x0 + eps] about the focus point
    x0 (0 without one), at the levels with eps below a quarter period.
    eps0 is the smallness threshold the caller measured (see eps0_gate),
    reported as given; None omits its row.  The parameters the omega2,
    focus and window tables read go through one p.point call per group of
    whole levels (_points_by_level), and each table takes its slice of
    its group's points.
    """
    p = sc.source
    cac, bil = _chord_constants(sc, with_arc=True)
    period = sc.period
    resolved = dict(dyadic_levels(sc, 1))
    xs = period * np.arange(_OMEGA2_NODES) / _OMEGA2_NODES
    x0 = p.meta.get("focus_param", 0.0)
    levels = []
    for k in range(k_min, k_max + 1):
        eps = period * 2.0 ** (-k)
        win = (np.linspace(x0 - eps, x0 + eps, 384) if eps < period / 4.0
               else None)
        levels.append((k, eps, focus_grid(p, eps), win))
    params = [[xs]]
    for k, eps, fg, win in levels:
        entry = [xs + eps, xs - eps]
        if fg is not None:
            entry += [fg + eps, fg - eps, fg]
        if win is not None:
            entry.append(win)
        params.append(entry)
    points = _points_by_level(p, params)
    [at] = next(points)
    ac_rows, w2_rows, w2f_rows, lb_rows = [], [], [], []
    for (k, eps, fg, win), pts in zip(levels, points):
        # the points come back in the order their parameters went in
        pts = iter(pts)
        if k in resolved:
            ac_rows.append((k, eps, conformality_modulus(sc, bil * eps)))
        w2_rows.append((k, eps) + _peak(
            _second_differences(next(pts), next(pts), at), xs))
        if fg is not None:
            w2f_rows.append((k, eps) + _peak(
                _second_differences(next(pts), next(pts), next(pts)), fg))
        if win is not None:
            lb_rows.append((k, eps, _window_constant(win, next(pts))))
    return DiagnosticsReport(chord_arc_const=cac, bilip=bil,
                             ac_table=tuple(ac_rows),
                             omega2_table=tuple(w2_rows),
                             omega2_focus_table=tuple(w2f_rows),
                             local_bilip_table=tuple(lb_rows), eps0=eps0)


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
