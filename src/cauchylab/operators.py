"""Discrete singular-integral operators on sampled curves: truncated,
principal-value, and maximal Cauchy transforms over parametric balls, the
Hardy-Littlewood maximal operator, and the kernel-truncation transform.

Conventions: the excluded set is always the parametric ball (parameter
interval of radius eps), nodes exactly on the exclusion boundary carry half
weight in Cauchy sums, and the complex measure at a node is its unit chord
tangent times its arc weight.

One evaluator, truncated_cauchy_family, computes every all-nodes Cauchy
sum: a stack of F functions times a list of windows.  The kernel is
antisymmetric, 1/(z_j - z_i) = -1/(z_i - z_j), so rows run in tiles of
_TILE = 64 and each tile builds only the ahead half of its kernel: offsets
1..(n-1)//2, in a frame of (n-1)//2 + 65 columns where every window of
every row is a contiguous column range (about 4 MB at n = 8192, whatever
F is).  Each entry serves twice.  Its row's ahead sums come from plain
matmuls over the columns the whole tile keeps, nested from the antipode
inward, plus one masked head per window cut.  The transposed product of
the tile's own values gives its target nodes their behind sums: whole
columns past the head, as per-cut increments that one cumulative sum over
the cuts turns into values, plus the same masked head.  An even grid's
antipode and the half-weight boundary nodes are separate gathers.  Every
term is added, none subtracted, so a window that holds only a few nodes is
as accurate as its own terms.  Besides the result the pass holds one
accumulator of F x n per distinct cut.  pv_cauchy_all, truncated_cauchy_all
and maximal_cauchy_all are that evaluator on a family of one; the
single-node functions truncated_cauchy, pv_cauchy and maximal_cauchy are
the readable oracles it is tested against.

Determinism: reruns give the same bits.  Every BLAS product reduces over a
multiple of 8 terms (a tile's 64 rows, or a column range cut to a multiple
of 8 with the rest summed elementwise).  With the OpenBLAS build the tests
run on, that made the bits the same under one and two BLAS threads at
n = 2048, 3000, 4096 and 8192, where ragged reductions had differed; the
test pins 2048 x 15 and 3000 x 7 functions.  It is an observation about
that library, not a guarantee for others.  A family and a single call
agree to 1e-13 relative (products of other shapes round differently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve
from .errors import DomainError, ResolutionError

__all__ = [
    "GridFunction",
    "TruncationSpec",
    "KernelTransform",
    "MaximalValue",
    "truncated_cauchy",
    "pv_cauchy",
    "truncated_cauchy_family",
    "cauchy_family",
    "maximal_of",
    "pv_cauchy_all",
    "truncated_cauchy_all",
    "maximal_cauchy",
    "maximal_cauchy_all",
    "hl_maximal",
    "hl_maximal_all",
    "hl_maximal_squared",
    "kernel_truncation_transform",
    "transform_csv_rows",
]

_TILE = 64  # kernel rows built together; also the width of each masked head
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class GridFunction:
    """Complex node values attached to a sampled curve."""

    base: SampledCurve
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.base.n,):
            raise DomainError(
                f"grid function has {vals.shape} values for {self.base.n} nodes")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def constant(base: SampledCurve, c: complex) -> "GridFunction":
        return GridFunction(base, np.full(base.n, complex(c)))


@dataclass(frozen=True)
class TruncationSpec:
    """Decreasing dyadic truncation levels eps_k = period * 2^-k."""

    period: float
    k_min: int
    k_max: int
    eps_floor: float

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise DomainError("empty truncation grid")
        if self.period * 2.0 ** (-self.k_max) < self.eps_floor - 1e-12:
            raise DomainError("truncation grid dips below the resolution floor")

    @staticmethod
    def for_curve(sc: SampledCurve, k_min: int, k_max: int) -> "TruncationSpec":
        """Clamp k_max so every level resolves at least two grid cells."""
        floor = 2.0 * sc.spacing
        deepest = int(math.floor(math.log2(sc.n / 2.0)))
        if k_min > deepest:
            raise DomainError(
                f"k_min={k_min} already below the floor at n={sc.n}")
        return TruncationSpec(period=sc.period, k_min=k_min,
                              k_max=min(k_max, deepest), eps_floor=floor)

    @property
    def eps_grid(self) -> tuple:
        return tuple(self.period * 2.0 ** (-k)
                     for k in range(self.k_min, self.k_max + 1))

    @property
    def k_grid(self) -> tuple:
        return tuple(range(self.k_min, self.k_max + 1))


class MaximalValue(NamedTuple):
    value: float
    eps_argmax: float


def _unit_measure(sc: SampledCurve) -> np.ndarray:
    """Complex node measure: unit chord tangent times arc weight."""
    return sc.tangents / np.abs(sc.tangents) * sc.weights


def _window_split(eps: float, h: float, n: int):
    """Interior half-width and boundary flag for the parametric eps-ball.

    Nodes at offsets 1..inner are strictly inside; when eps lands on the
    grid (within tolerance) the offset-(inner+1) nodes sit exactly on the
    boundary and carry half weight.
    """
    ratio = eps / h
    near = round(ratio)
    if abs(ratio - near) < _BOUNDARY_TOL and near >= 1:
        inner, boundary = int(near) - 1, True
    else:
        inner, boundary = int(math.floor(ratio)), False
    inner = min(inner, (n - 1) // 2)
    return inner, boundary


def _check_eps(sc: SampledCurve, eps: float):
    if eps < 2.0 * sc.spacing - 1e-12 * sc.period:
        raise ResolutionError(
            f"truncation {eps:.3e} below the floor 2h = {2 * sc.spacing:.3e}; "
            "refine the grid")
    if eps > sc.period / 2.0:
        raise DomainError("truncation exceeds half the period")


def _cyclic_distance(n: int, center: int) -> np.ndarray:
    """Index distance of every node of a closed n-node grid from center."""
    offsets = (np.arange(n) - center) % n
    return np.minimum(offsets, n - offsets)


def _outside_window(sc: SampledCurve, z_index: int, eps: float):
    """Node weights of the eps-truncated sum at z_index (0 inside the ball,
    1/2 on its exact boundary, 1 outside) and the differences z_j - z."""
    _check_eps(sc, eps)
    inner, boundary = _window_split(eps, sc.spacing, sc.n)
    dist = _cyclic_distance(sc.n, z_index)
    scale = np.where(dist > inner + (1 if boundary else 0), 1.0,
                     np.where(boundary & (dist == inner + 1), 0.5, 0.0))
    scale[z_index] = 0.0
    dz = sc.points - sc.points[z_index]
    dz[z_index] = 1.0  # excluded; avoid 0/0
    return scale, dz


def truncated_cauchy(f: GridFunction, z_index: int, eps: float) -> complex:
    """Trapezoid sum of the eps-truncated Cauchy integral at one node."""
    scale, dz = _outside_window(f.base, z_index, eps)
    contrib = f.values * _unit_measure(f.base)
    total = np.sum(contrib * scale / dz)
    return complex(total / (1j * math.pi))


def pv_cauchy(f: GridFunction, z_index: int) -> complex:
    """Principal value via first-order Richardson from levels 2h and 4h."""
    h = f.base.spacing
    t2 = truncated_cauchy(f, z_index, 2.0 * h)
    t4 = truncated_cauchy(f, z_index, 4.0 * h)
    return 2.0 * t2 - t4


def _tile_kernel(z_ext, t0: int, width: int, reach: int) -> np.ndarray:
    """Ahead half of the Cauchy kernel for the _TILE rows from node t0.

    Entry [r, q] is 1/(z[t0+q] - z[t0+r]) when the offset q - r lies in
    1..reach and zero elsewhere.  Only the first _TILE columns hold offsets
    below 1, and only the last _TILE (from reach + 1) offsets above reach.
    """
    tile = _TILE
    near = np.tri(tile, dtype=bool)           # q <= r
    far = ~np.tri(tile, k=-1, dtype=bool)     # q - (reach + 1) >= r
    kern = z_ext[t0:t0 + width][None, :] - z_ext[t0:t0 + tile, None]
    first, last = kern[:, :tile], kern[:, reach + 1:]
    first[near] = 1.0
    last[far] = 1.0
    np.divide(1.0, kern, out=kern)
    first[near] = 0.0
    last[far] = 0.0
    return kern


def _row_sums(kern, frame, lo: int, hi: int) -> np.ndarray:
    """kern[:, lo:hi] @ frame[lo:hi], with BLAS reducing over a multiple of
    8 columns and the fewer than 8 left over summed elementwise."""
    mid = hi - (hi - lo) % 8
    sums = kern[:, lo:mid] @ frame[lo:mid]
    if mid < hi:
        sums += (kern[:, mid:hi, None] * frame[None, mid:hi]).sum(axis=1)
    return sums


def _wrap_add(acc, start: int, vals) -> None:
    """acc[:, (start + q) % n] += vals[:, q] for the n columns of acc."""
    n = acc.shape[1]
    q = 0
    while q < vals.shape[1]:
        a = (start + q) % n
        s = min(vals.shape[1] - q, n - a)
        acc[:, a:a + s] += vals[:, q:q + s]
        q += s


def _offset_terms(sc: SampledCurve, contrib, off: int) -> np.ndarray:
    """K[i, i+off] * contrib[i+off] for every node i, shape (F, n)."""
    ahead = (np.arange(sc.n) + off) % sc.n
    return (1.0 / (sc.points[ahead] - sc.points)) * contrib[ahead].T


def truncated_cauchy_family(sc: SampledCurve, values, eps_list) -> np.ndarray:
    """Truncated transforms of a stack of functions for several windows.

    values has shape (F, n); entry [f, w, i] of the (F, W, n) result is
    T_eps f at node i for eps = eps_list[w], with the conventions of
    truncated_cauchy.  Each kernel entry 1/(z_j - z_i) is built once, for
    the row i it lies ahead of, and serves node j as -1/(z_i - z_j).
    """
    n = sc.n
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 2 or vals.shape[1] != n:
        raise DomainError(
            f"function stack has shape {vals.shape}, expected (F, {n})")
    if not np.all(np.isfinite(vals)):
        raise DomainError("grid function values must be finite")
    windows = []
    for eps in eps_list:
        _check_eps(sc, eps)
        windows.append(_window_split(eps, sc.spacing, n))
    # offsets 1..reach ahead and behind; an even grid's antipode is apart
    reach = (n - 1) // 2
    cuts = sorted({inner + boundary for inner, boundary in windows
                   if inner + boundary <= reach}, reverse=True)
    by_cut = {}  # the windows of each cut; the first holds its sums
    for w, (inner, boundary) in enumerate(windows):
        by_cut.setdefault(inner + boundary, []).append(w)
    contrib = vals.T * _unit_measure(sc)[:, None]
    tile = _TILE
    width = reach + tile + 1  # every cut's head fits: cut + tile + 1 <= width
    ext = np.arange(n + width) % n
    z_ext = sc.points[ext]
    contrib_ext = contrib[ext]
    out = np.zeros((vals.shape[0], len(windows), n), dtype=complex)
    # by cut, the terms past the head of every tile; a cumulative sum over
    # the cuts turns these per-cut increments into values
    grow = np.zeros((len(cuts), vals.shape[0], n), dtype=complex)
    upper = np.triu(np.ones((tile, tile)))
    for t0 in range(0, n, tile):
        m = min(tile, n - t0)
        kern = _tile_kernel(z_ext, t0, width, reach)
        frame = contrib_ext[t0:t0 + width]
        # the tile's rows as sources behind their targets: K[j, i] = -K[i, j]
        src = -frame[:tile].T
        src[:, m:] = 0.0  # rows past the last node wrap around; they add nothing
        behind = src @ kern
        hi = width
        for k, c in enumerate(cuts):
            lo = c + tile + 1
            # rows r keep columns q > r + c: all of them from lo on, a
            # triangle of the head c < q < lo
            head = kern[:, c + 1:lo] * upper
            ahead = _row_sums(kern, frame, lo, hi)
            grow[k, :, t0:t0 + m] += ahead[:m].T
            _wrap_add(grow[k], t0 + lo, behind[:, lo:hi])
            level = out[:, by_cut[c][0]]
            level[:, t0:t0 + m] += (head @ frame[c + 1:lo])[:m].T
            _wrap_add(level, t0 + c + 1, src @ head)
            hi = lo
    if n % 2 == 0:
        antipode = _offset_terms(sc, contrib, n // 2)
        if cuts:
            grow[0] += antipode
    np.cumsum(grow, axis=0, out=grow)
    for k, c in enumerate(cuts):
        out[:, by_cut[c][0]] += grow[k]
    for cut, ws in by_cut.items():
        for w in ws[1:]:
            out[:, w] = out[:, ws[0]]
        edged = [w for w in ws if windows[w][1]]
        if edged:
            if 2 * cut == n:  # at the antipode both offsets are one node
                edge = antipode
            else:
                edge = (_offset_terms(sc, contrib, cut)
                        + _offset_terms(sc, contrib, n - cut))
            for w in edged:
                out[:, w] += 0.5 * edge
    out /= 1j * math.pi
    return out


def cauchy_family(sc: SampledCurve, values, spec: TruncationSpec | None = None):
    """Principal values and, given spec, the dyadic T_eps table of a
    stack of functions, from one evaluator pass.

    Returns (pv, table): pv has shape (F, n); table has shape (F, K, n)
    for the K levels of spec (K = 0 without one).
    """
    if sc.n < 16:
        raise DomainError("grid too small for the 2h/4h extrapolation")
    h = sc.spacing
    levels = spec.eps_grid if spec is not None else ()
    vals = truncated_cauchy_family(sc, values, (2.0 * h, 4.0 * h) + levels)
    return 2.0 * vals[:, 0] - vals[:, 1], vals[:, 2:]


def maximal_of(table: np.ndarray, spec: TruncationSpec):
    """Sup over the levels of a (..., K, n) T_eps table: (values, argmax eps)."""
    stack = np.abs(table)
    arg = np.argmax(stack, axis=-2)
    return stack.max(axis=-2), np.asarray(spec.eps_grid)[arg]


def pv_cauchy_all(f: GridFunction) -> GridFunction:
    """Richardson principal value at every node (a family of one)."""
    pv, _ = cauchy_family(f.base, f.values[None, :])
    return GridFunction(f.base, pv[0])


def truncated_cauchy_all(f: GridFunction, spec: TruncationSpec) -> dict:
    """Truncated transforms at every node for each dyadic level of spec."""
    table = truncated_cauchy_family(f.base, f.values[None, :], spec.eps_grid)[0]
    return dict(zip(spec.k_grid, table))


def maximal_cauchy(f: GridFunction, z_index: int, spec: TruncationSpec) -> MaximalValue:
    """Sup over the dyadic truncation grid of |T_eps f| at one node."""
    best, arg = -1.0, None
    for eps in spec.eps_grid:
        v = abs(truncated_cauchy(f, z_index, eps))
        if v > best:
            best, arg = v, eps
    return MaximalValue(best, arg)


def maximal_cauchy_all(f: GridFunction, spec: TruncationSpec):
    """Vectorized maximal transform: (values, argmax eps) per node."""
    table = truncated_cauchy_family(f.base, f.values[None, :], spec.eps_grid)[0]
    return maximal_of(table, spec)


def _ball_average(absvals, weights, i, m_incl):
    n = len(absvals)
    if m_incl >= (n - 1) // 2:
        return float(np.sum(absvals * weights) / np.sum(weights))
    mask = _cyclic_distance(n, i) <= m_incl
    return float(np.sum(absvals[mask] * weights[mask]) / np.sum(weights[mask]))


def _hl_radii(sc: SampledCurve):
    """Dyadic parametric radii from 2h up to half the period, plus the full curve."""
    ms = []
    k = 1
    while True:
        r = sc.period * 2.0 ** (-k)
        if r < 2.0 * sc.spacing - 1e-12:
            break
        ms.append(_window_split(r, sc.spacing, sc.n)[0])
        k += 1
    ms.append(sc.n)  # full curve
    return ms


def hl_maximal(g: GridFunction, z_index: int) -> float:
    """Max over dyadic parametric balls of the average of |g|."""
    sc = g.base
    absvals = np.abs(g.values)
    w = sc.weights
    return max(_ball_average(absvals, w, z_index, m) for m in _hl_radii(sc))


def hl_maximal_all(g: GridFunction) -> np.ndarray:
    """hl_maximal at every node via circular rolling sums."""
    sc = g.base
    n = sc.n
    absvals = np.abs(g.values)
    w = sc.weights
    vw = absvals * w
    pref_vw = np.concatenate(([0.0], np.cumsum(np.concatenate([vw, vw, vw]))))
    pref_w = np.concatenate(([0.0], np.cumsum(np.concatenate([w, w, w]))))
    out = np.full(n, np.sum(vw) / np.sum(w))
    idx = np.arange(n)
    for m in _hl_radii(sc):
        if m >= (n - 1) // 2:
            continue
        lo = idx - m + n
        hi = idx + m + n
        num = pref_vw[hi + 1] - pref_vw[lo]
        den = pref_w[hi + 1] - pref_w[lo]
        np.maximum(out, num / den, out=out)
    return out


def hl_maximal_squared(g: GridFunction) -> GridFunction:
    """Twice-iterated maximal operator as a grid function."""
    once = GridFunction(g.base, hl_maximal_all(g).astype(complex))
    return GridFunction(g.base, hl_maximal_all(once).astype(complex))


@dataclass(frozen=True)
class KernelTransform:
    """g = T(K) for a truncated kernel K, with near-center validity mask."""

    kernel: GridFunction
    values: GridFunction
    valid: np.ndarray

    @staticmethod
    def from_pv(center: int, kernel: GridFunction, pv) -> "KernelTransform":
        """The transform given the principal values pv of kernel, the
        truncated kernel at node center.

        Nodes within 2h of the center are marked unevaluated (mask False,
        value 0): the Richardson rule is not meaningful that close to the
        excluded ball.
        """
        sc = kernel.base
        valid = _cyclic_distance(sc.n, center) > 2
        return KernelTransform(kernel=kernel,
                               values=GridFunction(sc, np.where(valid, pv, 0.0)),
                               valid=valid)


def truncated_kernel(sc: SampledCurve, z_index: int, eps: float) -> GridFunction:
    """The Cauchy kernel at z, zeroed on the parametric eps-ball (half at
    the exact boundary)."""
    scale, dz = _outside_window(sc, z_index, eps)
    return GridFunction(sc, scale / (1j * math.pi * dz))


def kernel_truncation_transform(sc: SampledCurve, z_index: int, eps: float) -> KernelTransform:
    """Apply the principal-value transform to the truncated kernel."""
    kernel = truncated_kernel(sc, z_index, eps)
    return KernelTransform.from_pv(z_index, kernel, pv_cauchy_all(kernel).values)


def kernel_transform_direct_fill(kt: KernelTransform) -> np.ndarray:
    """Values with the near-center nodes filled by plain trapezoid sums.

    The kernel vanishes identically near those nodes, so the full sum has
    no singular part there and needs no principal-value treatment.
    """
    sc = kt.kernel.base
    vals = kt.values.values.copy()
    contrib = kt.kernel.values * _unit_measure(sc)
    for i in np.nonzero(~kt.valid)[0]:
        dz = sc.points - sc.points[i]
        dz[i] = 1.0
        c = contrib / dz
        c[i] = 0.0
        vals[i] = np.sum(c) / (1j * math.pi)
    return vals


def transform_csv_rows(sc: SampledCurve, quantity: str, values, eps_label=""):
    """Rows node,param,quantity,epsilon,re,im for one transform quantity."""
    rows = []
    for i in range(sc.n):
        v = complex(values[i])
        rows.append(f"{i},{sc.params[i]:.17g},{quantity},{eps_label},"
                    f"{v.real:.17g},{v.imag:.17g}")
    return rows
