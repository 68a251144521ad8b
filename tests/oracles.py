"""Readable oracles the tests check the program against, kept out of the
package because no program path calls them: the truncated, principal-value
and maximal Cauchy transforms and the Hardy-Littlewood maximal function at
one node (for the batched evaluators in cauchylab.operators), the branch
log by continuous argument unwrapping (for geometry.branch_log), and the
turning angle and chord-speed range of a window (for the second-difference
tests), the detour scan that forms every detour sum and the smallness gate
that runs it on every level (for the pruned scan behind
geometry.conformality_modulus and geometry.eps0_gate), the row-at-a-time
CSV writers, one f-string per row, that the block writers must match byte
for byte, and the two one-sided schedules of the sweeps' peer workers
that the default schedule must match bit for bit; and for the curve
builders, the unsmoothed corner profile that curves.mollified_profile
smooths and the spiral's limit point, the accumulation point of its
untruncated recursion.  For the evaluator's bits: its boundary terms with
the behind edge gathered and divided on its own, and the maximal function
with index-array ball sums, the forms the program computed before it read
both from views.  And the Plemelj pair: rational functions whose exact
principal value is known on any Jordan curve.

The single-node oracles take what the operators take: the sampled curve
and plain node values, (sc, values, z_index, ...)."""

import math
from typing import NamedTuple

import numpy as np

from cauchylab import _peers
from cauchylab.curves import _check_unit_interval, _spiral_angle
from cauchylab.errors import (
    BranchAmbiguityError,
    DegenerateGeometryError,
    DomainError,
)
from cauchylab.geometry import _window_chords
from cauchylab.operators import (
    _circular_prefix,
    _cyclic_distance,
    _hl_radii,
    _outside_window,
    _unit_measure,
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
    n = len(absvals)
    if m_incl >= (n - 1) // 2:
        return float(np.sum(absvals * weights) / np.sum(weights))
    mask = _cyclic_distance(n, i) <= m_incl
    return float(np.sum(absvals[mask] * weights[mask]) / np.sum(weights[mask]))


def hl_maximal(sc, values, z_index: int) -> float:
    """Max over dyadic parametric balls of the average of |values|."""
    absvals = np.abs(values)
    w = sc.weights
    return max(_ball_average(absvals, w, z_index, m) for m in _hl_radii(sc))


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
        if m >= (n - 1) // 2:
            continue
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
    off, d = _window_chords(p.point(xs))
    ratio = d / (off * step)
    return float(ratio.min()), float(ratio.max())


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
