"""Readable oracles the tests check the program against, kept out of the
package because no program path calls them: the truncated, principal-value
and maximal Cauchy transforms and the Hardy-Littlewood maximal function at
one node (for the batched evaluators in cauchylab.operators), the branch
log by continuous argument unwrapping (for geometry.branch_log), and the
turning angle and chord-speed range of a window (for the second-difference
tests), the peak second difference over a parameter grid and the window
constant by a loop over offsets (for the omega2 and local_bilip rows of
geometry.diagnostics), the detour scan that forms every detour sum and the smallness gate
that runs it on every level (for the pruned scan behind
geometry.conformality_modulus and geometry.eps0_gate), the row-at-a-time
CSV writers, one f-string per row, that the block writers must match byte
for byte, and the two one-sided schedules of the sweeps' peer workers
that the default schedule must match bit for bit; and for the curve
builders, the unsmoothed corner profile that curves.mollified_profile
smooths, the smoothed profile and slope written out apex by apex, with
a kernel panel at every parameter (the bits the array path of curves.py
must keep), and the spiral's limit
point, the accumulation point of its untruncated recursion.  For the evaluator's bits: its boundary terms with
the behind edge gathered and divided on its own, and the maximal function
with index-array ball sums, the forms the program computed before it read
both from views, and the one tile-major sweep over the whole frame that
the cut-by-cut pass must match bit for bit.  And the witness-free cotlar
statistic D, the L1 norm of a truncated kernel's transform, with its
closed-form growth at a corner.  And the Plemelj pair:
rational functions whose exact principal value is known on any Jordan
curve, and the transform of an arc indicator on a polygon, a sum of
segment logs.

The single-node oracles take what the operators take: the sampled curve
and plain node values, (sc, values, z_index, ...)."""

import math
from contextlib import closing
from functools import partial
from typing import NamedTuple

import numpy as np

from cauchylab import _peers
from cauchylab._quadrature import _GL96
from cauchylab.curves import _check_unit_interval, _spiral_angle, bump
from cauchylab.errors import (
    BranchAmbiguityError,
    DegenerateGeometryError,
    DomainError,
)
from cauchylab.geometry import _window_chords, second_difference
from cauchylab.operators import (
    _TILE,
    _circular_prefix,
    _cyclic_distance,
    _hl_radii,
    _kernel_blocks,
    _outside_window,
    _tile_windows,
    _unit_measure,
    _window_split,
    _wrap_add,
    cauchy_family,
    truncated_kernel,
)


class MaximalValue(NamedTuple):
    value: float
    eps_argmax: float


def truncated_cauchy(sc, values, z_index: int, eps: float) -> complex:
    """Trapezoid sum of the eps-truncated Cauchy integral at one node."""
    scale, dz = _outside_window(sc, z_index, eps)
    contrib = np.asarray(values) * _unit_measure(sc)
    total = np.sum(contrib * scale / dz)
    return complex(total / (1j * math.pi))


def pv_cauchy(sc, values, z_index: int) -> complex:
    """Principal value via first-order Richardson from levels 2h and 4h."""
    t2 = truncated_cauchy(sc, values, z_index, 2.0 * sc.spacing)
    t4 = truncated_cauchy(sc, values, z_index, 4.0 * sc.spacing)
    return 2.0 * t2 - t4


def maximal_cauchy(sc, values, z_index: int, levels) -> MaximalValue:
    """Sup over the (k, eps) levels of |T_eps f| at one node."""
    best, arg = -1.0, None
    for _, eps in levels:
        v = abs(truncated_cauchy(sc, values, z_index, eps))
        if v > best:
            best, arg = v, eps
    return MaximalValue(best, arg)


def _ball_average(absvals, weights, i, m_incl):
    mask = _cyclic_distance(len(absvals), i) <= m_incl
    return float(np.sum(absvals[mask] * weights[mask]) / np.sum(weights[mask]))


def hl_maximal(sc, values, z_index: int) -> float:
    """Max of the full-curve average of |values| and its averages over the
    proper dyadic parametric balls."""
    absvals = np.abs(values)
    w = sc.weights
    full = float(np.sum(absvals * w) / np.sum(w))
    return max([full] + [_ball_average(absvals, w, z_index, m)
                         for m in _hl_radii(sc)])


def gathered_offset_terms(z_ext, contrib_ext, n: int, off: int) -> np.ndarray:
    """operators._offset_terms with each edge formed on its own: the terms
    of the node off ahead plus those of the node off behind (offset
    n - off), each by a division of its own over the wrapped rows, a view
    where they reach and a gather where they do not."""
    def ahead(step):
        if step + n <= len(z_ext):
            rows = slice(step, step + n)
        else:
            rows = (np.arange(n) + step) % n
        return (1.0 / (z_ext[rows] - z_ext[:n])) * contrib_ext[rows].T
    if 2 * off == n:
        return ahead(off)
    return ahead(off) + ahead(n - off)


def _tile_major_task(z_ext, contrib_ext, n: int, reach: int, start: int,
                     count: int, first: int, cols: int, cut: int, ranges, buf):
    """One band tile or heads chunk of tile_major_family: the (F, rows)
    sums of each column range's rows and the (F, count * cols) sums the
    rows give their columns, from the blocks of operators._kernel_blocks."""
    tile = _TILE
    f = contrib_ext.shape[1]
    span = count * tile
    rows = min(span, n - start)
    kern = _kernel_blocks(z_ext, start, count, first, cols, cut, reach,
                          buf.reshape(-1)[:span * cols].reshape(count, tile, cols))
    frames = _tile_windows(contrib_ext, start + first, count, cols)
    aheads = []
    for lo, hi in ranges:
        mid = hi - (hi - lo) % 8
        sums = kern[..., lo:mid] @ frames[:, lo:mid]
        if mid < hi:
            sums += (kern[..., mid:hi, None] * frames[:, None, mid:hi]).sum(axis=2)
        aheads.append(sums.reshape(span, f)[:rows].T)
    src = -contrib_ext[start:start + span]
    src[rows:] = 0.0
    behind = src.reshape(count, tile, f).transpose(0, 2, 1) @ kern
    behind = behind.transpose(1, 0, 2).reshape(f, count * cols)
    return aheads, behind


def tile_major_family(sc, values, eps_list) -> np.ndarray:
    """operators.truncated_cauchy_family as one tile-major sweep: each tile
    of rows builds its kernel over the whole frame of (n - 1) // 2 + 65
    columns and adds its row and transposed sums over every cut's column
    range into that cut's slot of the (F, W, n) result; a running sum over
    the slots then gives the terms past each head, and a second sweep adds
    the heads, cut by cut.  The boundary terms are gathered_offset_terms."""
    n = sc.n
    vals = np.asarray(values, dtype=complex)
    windows = [_window_split(eps, sc.spacing, n) for eps in eps_list]
    reach = (n - 1) // 2
    cuts = sorted({inner + boundary for inner, boundary in windows
                   if inner + boundary <= reach}, reverse=True)
    by_cut = {}
    for w, (inner, boundary) in enumerate(windows):
        by_cut.setdefault(inner + boundary, []).append(w)
    tile = _TILE
    width = reach + tile + 1
    ext = np.arange(n + width) % n
    z_ext = sc.points[ext]
    f = vals.shape[0]
    contrib_ext = (vals.T * _unit_measure(sc)[:, None])[ext]
    out = np.zeros((f, len(windows), n), dtype=complex)
    slots = {c: out[:, by_cut[c][0]] for c in cuts}
    tiles = -(-n // tile)
    per_chunk = max(1, width // (2 * tile))
    chunks = [(c, t * tile, min(per_chunk, tiles - t)) for c in cuts
              for t in range(0, tiles, per_chunk)]
    bounds = [width] + [c + tile + 1 for c in cuts]
    ranges = list(zip(bounds[1:], bounds))
    starts = range(0, n, tile)
    band = [(t0, 1, 0, width, 0, ranges) for t0 in starts]
    heads = [(s, count, c + 1, tile, c, [(0, tile)]) for c, s, count in chunks]
    tasks = [partial(_tile_major_task, z_ext, contrib_ext, n, reach, *task)
             for task in band + heads]
    scratch = tuple(np.empty((tile, width), dtype=complex) for _ in range(2))
    with closing(_peers.in_task_order(tasks, scratch)) as results:
        for t0, (aheads, behind) in zip(starts, results):
            for c, (lo, hi), ahead in zip(cuts, ranges, aheads):
                slots[c][:, t0:t0 + ahead.shape[1]] += ahead
                _wrap_add(slots[c], t0 + lo, behind[:, lo:hi])
        if n % 2 == 0 and cuts:
            slots[cuts[0]] += gathered_offset_terms(z_ext, contrib_ext, n, n // 2)
        for prev, c in zip(cuts, cuts[1:]):
            slots[c] += slots[prev]
        heads_sum = np.zeros((f, n), dtype=complex)
        for (c, s, count), ((ahead,), behind) in zip(chunks, results):
            heads_sum[:, s:s + ahead.shape[1]] += ahead
            _wrap_add(heads_sum, s + c + 1, behind)
            if s + count * tile >= n:
                slots[c] += heads_sum
                heads_sum[:] = 0.0
    for cut, ws in by_cut.items():
        for w in ws[1:]:
            out[:, w] = out[:, ws[0]]
        edged = [w for w in ws if windows[w][1]]
        if edged:
            edge = gathered_offset_terms(z_ext, contrib_ext, n, cut)
            for w in edged:
                out[:, w] += 0.5 * edge
    out /= 1j * math.pi
    return out


def dual_statistic(sc, z_index: int, levels) -> np.ndarray:
    """D(z, eps) = sum_j w_j |g_j| at node z_index for each level eps, the
    L1 norm of the kernel transform g = A K_{z,eps}: the largest
    |T_eps f(z)| over f = A chi with |chi| <= 1, by the transpose identity
    T_eps(A chi)(z) = -sum_j chi_j mu_j g_j.  One cauchy_family pass of the
    truncated kernels gives every g as the principal value at every node,
    the g for which that identity holds; the trapezoid fill proof_check
    uses within 2h of z breaks it at eps <= 4h."""
    kernels = [truncated_kernel(sc, z_index, eps) for eps in levels]
    pvs, _ = cauchy_family(sc, kernels)
    return np.sum(sc.weights * np.abs(pvs), axis=-1)


def indexed_hl_maximal_all(sc, values) -> np.ndarray:
    """operators.hl_maximal_all with each ball sum gathered from the
    prefix sums by index arrays."""
    n = sc.n
    w = sc.weights
    vw = np.abs(values) * w
    pref_vw = _circular_prefix(vw)
    pref_w = _circular_prefix(w)
    out = np.repeat(np.sum(vw, axis=-1, keepdims=True) / np.sum(w), n, axis=-1)
    idx = np.arange(n)
    for m in _hl_radii(sc):
        lo = idx - m + n
        hi = idx + m + n
        num = pref_vw[..., hi + 1] - pref_vw[..., lo]
        den = pref_w[hi + 1] - pref_w[lo]
        np.maximum(out, num / den, out=out)
    return out


def plemelj_pair(sc, poles, coeffs):
    """(f, T f) at the nodes for f = sum_k c_k / (z - a_k), poles off the
    curve.  A pole outside makes its term analytic inside, so T keeps it
    (T g = g); a pole inside makes it analytic outside and vanishing at
    infinity, so T negates it (T g = -g); both for a curve run
    counterclockwise, and both flip for one run clockwise.  Inside and the
    orientation are the sampled polygon's: the winding number about each
    pole, and the sign of the polygon's area."""
    z = sc.points
    area = float(np.sum((np.conj(z) * np.roll(z, -1)).imag))
    turn = 1 if area > 0.0 else -1
    f = np.zeros(sc.n, dtype=complex)
    tf = np.zeros(sc.n, dtype=complex)
    for a, c in zip(poles, coeffs):
        rel = z - a
        winding = np.angle(np.roll(rel, -1) / rel).sum() / (2.0 * math.pi)
        term = c / rel
        f += term
        tf += term if round(winding) == 0 else -term
    return f, turn * tf


def polygon_arc_transform(p, a: float, b: float, z) -> np.ndarray:
    """T chi at the points z off the arc of parameters a < b <= a + period
    of a polygon p, in closed form: (1/(i pi)) sum Log((Q - z)/(P - z))
    over the arc's straight pieces P -> Q, split at the vertices.  Seen
    from z a piece subtends an angle below pi, so the principal Log of
    the quotient is the integral of dw/(w - z) along it."""
    period = p.period
    inner = sorted(c + period * m for c in p.meta["corners"]
                   for m in range(math.floor(a / period), math.floor(b / period) + 1)
                   if a < c + period * m < b)
    ends = p.point(np.array([a] + inner + [b]))
    z = np.asarray(z, dtype=complex)
    total = sum(np.log((end - z) / (start - z))
                for start, end in zip(ends[:-1], ends[1:]))
    return total / (1j * math.pi)


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
    ratios = [d / (off * step) for off, d in _window_chords(p.point(xs))]
    return (float(min(r.min() for r in ratios)),
            float(max(r.max() for r in ratios)))


def omega2(p, eps: float, x_grid):
    """(max, first argmax parameter) of geometry.second_difference over a
    parameter grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    vals = second_difference(p, x_grid, eps)
    k = int(np.argmax(vals))
    return float(vals[k]), float(x_grid[k])


def loop_local_bilipschitz(p, x0: float, eps: float, m: int = 384):
    """Smallest C with |x-y|/C <= |gamma(x)-gamma(y)| over the pairs of the
    m-node grid of [x0 - eps, x0 + eps], one offset at a time."""
    xs = np.linspace(x0 - eps, x0 + eps, m)
    pts = p.point(xs)
    step = xs[1] - xs[0]
    worst = 1.0
    for off in range(1, m):
        d = np.abs(pts[off:] - pts[:-off])
        worst = max(worst, float(np.max(off * step / d)))
    return worst


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
        worst = max(worst, float(loop_detour_ratios(view, off, sel).max()) - 1.0)
    return worst


def loop_detour_ratios(view, off, sel):
    """Worst detour over chord, max over 0 < k < off of
    (|z[i+k] - z[i]| + |z[i+off] - z[i+k]|) / |z[i+off] - z[i]|, for each
    node index i in sel of the closed grid view, indices mod its length."""
    n2 = len(view)
    za = view[sel]
    zb = view[(sel + off) % n2]
    c = np.abs(zb - za)
    best = np.zeros(len(sel))
    for k in range(1, off):
        zm = view[(sel + k) % n2]
        np.maximum(best, (np.abs(zm - za) + np.abs(zb - zm)) / c, out=best)
    return best


def loop_eps0_gate(sc, bilip):
    """eps0_gate's level loop with every level scanned in full by
    loop_conformality_modulus: the largest eps = period * 2^-k whose
    defect at chord scale bilip * eps is below 0.05, or None."""
    pts = sc.points[::max(1, sc.n // 256)]
    diam = float(np.abs(pts[:, None] - pts[None, :]).max())
    for k in range(2, max(2, int(math.floor(math.log2(sc.n * bilip / 8.0)))) + 1):
        eps = sc.period * 2.0 ** (-k)
        d = bilip * eps
        if d > 0.45 * diam:
            continue
        if d < 8.0 * sc.spacing:
            break
        if loop_conformality_modulus(sc, d) < 0.05:
            return eps
    return None


def transform_csv_rows(sc, quantity: str, values, eps_label=""):
    """Rows node,param,quantity,epsilon,re,im for one transform quantity."""
    rows = []
    for i in range(sc.n):
        v = complex(values[i])
        rows.append(f"{i},{sc.params[i]:.17g},{quantity},{eps_label},"
                    f"{v.real:.17g},{v.imag:.17g}")
    return rows


def write_curve_csv(sc, path):
    """Curve export: param,x,y,tx,ty,weight at 17 significant digits, LF."""
    lines = ["param,x,y,tx,ty,weight"]
    for k in range(sc.n):
        lines.append(
            f"{sc.params[k]:.17g},{sc.points[k].real:.17g},{sc.points[k].imag:.17g},"
            f"{sc.tangents[k].real:.17g},{sc.tangents[k].imag:.17g},{sc.weights[k]:.17g}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def corner_profile(spec, t):
    """Triangular profile max{0, (1/4 - |t - 1/2|) tan(angle)} on [0, 1]."""
    t = _check_unit_interval(t)
    return np.maximum(0.0, (0.25 - np.abs(t - 0.5)) * math.tan(spec.angle))


def kernel_panel(w, moment):
    """curves.bump_cdf ("cdf") or curves.bump_ramp ("ramp") with a GL panel
    at every w, clipped to [-1, 1], where the program makes one only for
    -1 < w < 1."""
    wc = np.clip(w, -1.0, 1.0)
    nodes, weights = _GL96
    half = 0.5 * (wc + 1.0)
    u = (0.5 * (wc - 1.0))[..., None] + half[..., None] * nodes
    vals = bump(u)
    integrand = vals if moment == "cdf" else (wc[..., None] - u) * vals
    body = (integrand * weights).sum(axis=-1) * half
    top = 1.0 if moment == "cdf" else w
    return np.where(w >= 1.0, top, np.where(w <= -1.0, 0.0, body))


def _per_branch(t, xi, branch):
    """branch(apex, w) on the parameters t of each branch of a bump of
    width xi, at w = (t - apex)/xi, mirrored as (3/4 - t)/xi at 3/4."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    left, right = t < 0.375, t > 0.625
    for apex, mask in ((0.25, left), (0.75, right), (0.5, ~(left | right))):
        tm = t[mask]
        out[mask] = branch(apex, (0.75 - tm) / xi if apex == 0.75 else (tm - apex) / xi)
    return out


def branch_slope(tn, xi, t):
    """Slope of the smoothed bump with tan(angle) tn at t in [0, 1], apex by
    apex from the kernel cdf C: tn C, (-tn) C and tn (1 - 2C)."""
    def slope(apex, w):
        cdf = kernel_panel(w, "cdf")
        if apex == 0.25:
            return tn * cdf
        if apex == 0.75:
            return -tn * cdf
        return tn * (1.0 - 2.0 * cdf)
    return _per_branch(t, xi, slope)


def branch_profile(tn, xi, t):
    """Profile of the smoothed bump with tan(angle) tn at t in [0, 1], apex
    by apex from the smoothed ramp R: (tn xi) R at 1/4 and 3/4, and
    tn (1/4 - xi R) at 1/2, where R takes both sides of the cap."""
    def profile(apex, w):
        if apex == 0.5:
            return tn * (0.25 - xi * (kernel_panel(w, "ramp") + kernel_panel(-w, "ramp")))
        return tn * xi * kernel_panel(w, "ramp")
    return _per_branch(t, xi, profile)


def spiral_limit_point(depth_built):
    """Accumulation point of the untruncated spiral recursion (converges
    fast)."""
    off, mult = 0.0 + 0.0j, 1.0 + 0.0j
    j = 1
    while abs(mult) > 1e-40 and j < depth_built + 400:
        off = off + mult * 0.25
        alpha = _spiral_angle(j)
        mult = mult * np.exp(1j * alpha) / (4.0 * math.cos(alpha))
        j += 1
    return complex(off)


def patch_schedule(monkeypatch, schedule: str) -> None:
    """Make the calling thread run every task of each sweep ("caller": the
    helper gets no permit), or leave every task to the helper ("helper":
    the calling thread may hold no result of its own); any other schedule
    changes nothing."""
    if schedule == "caller":
        monkeypatch.setattr(_peers, "_AHEAD", 0)
    elif schedule == "helper":
        monkeypatch.setattr(_peers, "_OWN", 0)
