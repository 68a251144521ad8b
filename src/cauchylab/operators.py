"""Discrete singular-integral operators on sampled curves: truncated,
principal-value, and maximal Cauchy transforms over parametric balls, the
Hardy-Littlewood maximal operator, and the kernel-truncation transform.

Conventions: the excluded set is always the parametric ball (parameter
interval of radius eps), nodes exactly on the exclusion boundary carry half
weight in Cauchy sums, and the complex measure at a node is its unit chord
tangent times its arc weight.  The truncation levels are dyadic, (k,
eps_k = period * 2^-k) from k_min down to the two-cell floor 2h, and
dyadic_levels alone produces them.  The kernel transform g = T(K_{z,eps})
of the truncated kernel is a plain array: kernel_truncation_transform
leaves it 0 at the nodes within 2h of z, kernel_transform_direct_fill
fills them by trapezoid sums, and _near_center alone marks them.

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
and maximal_cauchy_all are that evaluator on a family of one.  The
readable single-node oracles it is tested against are in tests/oracles.py.

Threads: each call runs one helper thread that builds tile t+1's kernel
while the calling thread sums tile t, so two tile kernels (about 8 MB at
n = 8192) are live at once.  The helper only subtracts, divides and masks;
it makes no BLAS call, and the call joins it before returning.  Importing
cauchylab before numpy sets OPENBLAS_NUM_THREADS=1 unless it is already
set: the per-tile products are too small for BLAS threads, which only spun.

Determinism: reruns give the same bits, and which thread builds a kernel
changes none of them, since no sum changes order.  Every BLAS product
reduces over a multiple of 8 terms (a tile's 64 rows, or a column range
cut to a multiple of 8 with the rest summed elementwise).  With the
OpenBLAS build the tests run on, that made the bits the same under one
and two BLAS threads at n = 2048, 3000, 4096 and 8192, where ragged
reductions had differed; the test pins 2048 x 15 and 3000 x 7 functions.
It is an observation about that library, not a guarantee for others.  A
family and a single call agree to 1e-13 relative (products of other
shapes round differently).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import SampledCurve, _g17
from .errors import DomainError, ResolutionError

__all__ = [
    "GridFunction",
    "dyadic_levels",
    "truncated_cauchy_family",
    "cauchy_family",
    "maximal_of",
    "pv_cauchy_all",
    "truncated_cauchy_all",
    "maximal_cauchy_all",
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
    if eps < 2.0 * sc.spacing:
        raise ResolutionError(
            f"truncation {eps:.3e} below the floor 2h = {2 * sc.spacing:.3e}; "
            "refine the grid")
    if eps > sc.period / 2.0:
        raise DomainError("truncation exceeds half the period")


def dyadic_levels(sc: SampledCurve, k_min: int, k_max: int = 64) -> tuple:
    """The dyadic truncation levels (k, eps_k = period * 2^-k) for
    k_min <= k <= k_max whose eps resolves at least two grid cells
    (eps_k >= 2h), by decreasing eps.  The sup that defines T_* f is taken
    over these levels."""
    levels = []
    for k in range(k_min, k_max + 1):
        eps = sc.period * 2.0 ** (-k)
        if eps < 2.0 * sc.spacing:
            break
        levels.append((k, eps))
    if not levels:
        raise DomainError(f"no dyadic level from k_min={k_min} resolves "
                          f"two cells at n={sc.n}")
    return tuple(levels)


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
    T_eps f at node i for eps = eps_list[w], with the module's conventions.
    Each kernel entry 1/(z_j - z_i) is built once, for the row i it lies
    ahead of, and serves node j as -1/(z_i - z_j).
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
    # the helper builds the next tile's kernel while this thread sums the
    # current one; it only subtracts, divides and masks, so no two threads
    # are ever inside BLAS at once
    with ThreadPoolExecutor(max_workers=1) as helper:
        next_kern = helper.submit(_tile_kernel, z_ext, 0, width, reach)
        for t0 in range(0, n, tile):
            m = min(tile, n - t0)
            kern = next_kern.result()
            if t0 + tile < n:
                next_kern = helper.submit(_tile_kernel, z_ext, t0 + tile,
                                          width, reach)
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


def cauchy_family(sc: SampledCurve, values, levels=()):
    """Principal values and the T_eps table at the given levels of a
    stack of functions, from one evaluator pass.

    Returns (pv, table): pv has shape (F, n); table has shape (F, K, n)
    for the K levels.
    """
    if sc.n < 16:
        raise DomainError("grid too small for the 2h/4h extrapolation")
    h = sc.spacing
    vals = truncated_cauchy_family(sc, values, (2.0 * h, 4.0 * h) + tuple(levels))
    return 2.0 * vals[:, 0] - vals[:, 1], vals[:, 2:]


def maximal_of(table: np.ndarray, levels):
    """Sup over the (k, eps) levels of a (..., K, n) T_eps table:
    (values, argmax eps)."""
    stack = np.abs(table)
    arg = np.argmax(stack, axis=-2)
    return stack.max(axis=-2), np.asarray([eps for _, eps in levels])[arg]


def pv_cauchy_all(f: GridFunction) -> GridFunction:
    """Richardson principal value at every node (a family of one)."""
    pv, _ = cauchy_family(f.base, f.values[None, :])
    return GridFunction(f.base, pv[0])


def truncated_cauchy_all(f: GridFunction, levels) -> dict:
    """Truncated transforms at every node for each (k, eps) level, by k."""
    table = truncated_cauchy_family(f.base, f.values[None, :],
                                    [eps for _, eps in levels])[0]
    return {k: row for (k, _), row in zip(levels, table)}


def maximal_cauchy_all(f: GridFunction, levels):
    """Vectorized maximal transform: (values, argmax eps) per node."""
    table = truncated_cauchy_family(f.base, f.values[None, :],
                                    [eps for _, eps in levels])[0]
    return maximal_of(table, levels)


def _hl_radii(sc: SampledCurve):
    """Interior half-widths of the dyadic parametric balls, plus the full curve."""
    return [_window_split(eps, sc.spacing, sc.n)[0]
            for _, eps in dyadic_levels(sc, 1)] + [sc.n]


def hl_maximal_all(g: GridFunction) -> np.ndarray:
    """Max over dyadic parametric balls of the average of |g|, at every
    node via circular rolling sums."""
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


def truncated_kernel(sc: SampledCurve, z_index: int, eps: float) -> GridFunction:
    """The Cauchy kernel at z, zeroed on the parametric eps-ball (half at
    the exact boundary)."""
    scale, dz = _outside_window(sc, z_index, eps)
    return GridFunction(sc, scale / (1j * math.pi * dz))


def _near_center(n: int, center: int) -> np.ndarray:
    """Nodes within 2h of node center, where g = T(K_{z,eps}) is left
    unevaluated: the Richardson rule is not meaningful that close to the
    excluded ball."""
    return _cyclic_distance(n, center) <= 2


def kernel_truncation_transform(sc: SampledCurve, z_index: int, eps: float) -> np.ndarray:
    """g = T(K) for the truncated kernel K at z_index, with 0 at the nodes
    within 2h of z_index."""
    pv = pv_cauchy_all(truncated_kernel(sc, z_index, eps)).values
    return np.where(_near_center(sc.n, z_index), 0.0, pv)


def kernel_transform_direct_fill(kernel: GridFunction, center: int,
                                 pv: np.ndarray) -> np.ndarray:
    """g = T(K) from the principal values pv of the truncated kernel K at
    node center, with the nodes within 2h of it filled by plain trapezoid sums.

    The kernel vanishes identically near those nodes, so the full sum has
    no singular part there and needs no principal-value treatment.
    """
    sc = kernel.base
    vals = pv.copy()
    contrib = kernel.values * _unit_measure(sc)
    for i in np.nonzero(_near_center(sc.n, center))[0]:
        dz = sc.points - sc.points[i]
        dz[i] = 1.0
        c = contrib / dz
        c[i] = 0.0
        vals[i] = np.sum(c) / (1j * math.pi)
    return vals


def transform_csv_rows(sc: SampledCurve, table):
    """Rows node,param,quantity,epsilon,re,im of a transform table.

    table is a sequence of (quantity, eps_label, values); the rows are every
    node of its first entry, then every node of the next, and so on.  The
    node,param prefix is formatted once per table and each entry's re and
    im columns once each.
    """
    prefix = [f"{i},{x}," for i, x in enumerate(_g17(sc.params))]
    rows = []
    for quantity, eps_label, values in table:
        mid = f"{quantity},{eps_label},"
        rows += [f"{head}{mid}{re},{im}" for head, re, im
                 in zip(prefix, _g17(values.real), _g17(values.imag))]
    return rows
