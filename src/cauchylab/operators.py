"""Discrete singular-integral operators on sampled curves: truncated,
principal-value, and maximal Cauchy transforms over parametric balls, the
Hardy-Littlewood maximal operator, and the kernel-truncation transform.

Conventions: every function takes the sampled curve and plain node
values, (sc, values), with values of shape (n,) or a stack (F, n), and
returns arrays; the Cauchy sums check the shape and finiteness of what
they are given.  The excluded set is always the parametric ball
(parameter interval of radius eps), nodes exactly on the exclusion
boundary carry half weight in Cauchy sums, and the complex measure at a
node is its unit chord tangent times its arc weight.  The truncation
levels are dyadic, (k, eps_k = period * 2^-k) from k_min down to the
two-cell floor 2h, and dyadic_levels alone produces them.  The kernel
transform g = T(K_{z,eps}) of the truncated kernel is left unevaluated at
the nodes within 2h of z, which _near_center alone marks;
kernel_transform_direct_fill fills them by trapezoid sums.

One evaluator, truncated_cauchy_family, computes every all-nodes Cauchy
sum: a stack of F functions times a list of windows.  The kernel is
antisymmetric, 1/(z_j - z_i) = -1/(z_i - z_j), so rows run in tiles of
_TILE = 64 and each tile builds only the ahead half of its kernel: offsets
1..(n-1)//2, in a frame of (n-1)//2 + 65 columns where every window of
every row is a contiguous column range (about 4 MB at n = 8192, whatever
F is).  Each entry serves twice.  Its row's ahead sums come from plain
matmuls over the columns the whole tile keeps, nested from the antipode
inward, and the transposed product of the tile's own values gives its
target nodes their behind sums over the same columns.  These band sums go
straight into the result, into one slot per distinct cut (the first window
with that cut), and a running sum over the slots from the antipode inward
turns them into the sums past each cut's head.  A heads sweep then goes
cut by cut: it rebuilds the cut's masked head triangles, _TILE entries
per row, a chunk of tiles at a time, and their ahead and behind sums
collect in tile order in one F x n scratch that joins the slot in one
addition.  An even grid's antipode and the half-weight boundary nodes are
separate gathers.  Every term is added, none subtracted, so a window that
holds only a few nodes is as accurate as its own terms.  Besides the
result, the pass holds the same memory for any number of windows: the
values in its own layout, one F x n scratch, two tile-kernel buffers and
the products of at most four tiles or chunks (two of the helper's, one of
the calling thread's and the last one added); traced at n = 2048 and
F = 15, the result plus 11.5-11.7 F x n slabs for 2 windows and for 12.
The readable single-node oracles it is tested against are in
tests/oracles.py.

pv_cauchy_all, truncated_cauchy_all and maximal_cauchy_all are that
evaluator on a family of one, and kernel_truncation_transform is g for one
kernel.  No program path calls them; they stay only because the
benchmark's traced runs wrap them by name, and they go with the benchmark
change that drops them from its table.  transform_csv_rows is kept the
same way: transform.csv goes out from transform_csv_blocks, one table
entry at a time.

Threads: each call runs two peer workers, the calling thread and one
helper, through _peers.in_task_order.  The band sweep's tasks are its
tiles and the heads sweep's its chunks, in one list of plain functions;
each worker takes the next task not yet started, builds its kernel or
head blocks in its own buffer of one tile kernel (two buffers, about 8 MB
at n = 8192, allocated before the sweep), and makes the task's products.
The helper holds at most two results not yet added, the calling thread
one.  Only the calling thread adds results into the pass's arrays, in
task order, so every node gets its terms in the same order whichever
worker ran a task.  The call joins its helper before returning.  Both
workers call BLAS; importing cauchylab before numpy sets
OPENBLAS_NUM_THREADS=1 unless it is already set, so each product runs on
the thread that calls it: the per-tile products are too small for BLAS
threads, which only spun.

Determinism: reruns give the same bits, and which worker runs a task
changes none of them, since no sum changes order.  Every BLAS product
reduces over a multiple of 8 terms (a tile's 64 rows, or a column range
cut to a multiple of 8 with the rest summed elementwise).  With the
OpenBLAS build the tests run on, that made the bits the same under one
and two BLAS threads at n = 2048, 3000, 4096 and 8192, where ragged
reductions had differed; the test pins 2048 x 15 and 3000 x 7 functions,
and CI the square's all-scans output at 2048, 4096 and 8192 nodes.
It is an observation about that library, not a guarantee for others.  A
family and a single call agree to 1e-13 relative (products of other
shapes round differently).
"""

from __future__ import annotations

import math
from contextlib import closing
from functools import partial

import numpy as np

from ._peers import in_task_order
from .curves import SampledCurve
from .errors import DomainError, ResolutionError

__all__ = [
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
    "transform_csv_blocks",
    "transform_csv_rows",
]

_TILE = 64  # kernel rows built together; also the width of each masked head
_BOUNDARY_TOL = 1e-9


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


def _tile_kernel(z_ext, t0: int, width: int, reach: int, out=None) -> np.ndarray:
    """Ahead half of the Cauchy kernel for the _TILE rows from node t0,
    built in out (shape (_TILE, width)) when given.

    Entry [r, q] is 1/(z[t0+q] - z[t0+r]) when the offset q - r lies in
    1..reach and zero elsewhere.  Only the first _TILE columns hold offsets
    below 1, and only the last _TILE (from reach + 1) offsets above reach.
    """
    tile = _TILE
    near = np.tri(tile, dtype=bool)           # q <= r
    far = ~np.tri(tile, k=-1, dtype=bool)     # q - (reach + 1) >= r
    kern = np.subtract(z_ext[t0:t0 + width][None, :], z_ext[t0:t0 + tile, None],
                       out=out)
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


def _head_blocks(z_ext, c: int, start: int, count: int, reach: int,
                 out=None) -> np.ndarray:
    """The masked heads of cut c for the count tiles from node start, built
    in out (shape (count, _TILE, _TILE)) when given.

    Block [t, r, q] is entry [r, c + 1 + q] of the kernel of the tile from
    t0 = start + t * _TILE where q >= r, and zero elsewhere, built with
    _tile_kernel's operations, so its bits are the ones that kernel holds
    there: the triangle of the head columns that row r keeps at cut c.
    """
    tile = _TILE
    offset = np.arange(c + 1, c + tile + 1) - np.arange(tile)[:, None]
    masked = (offset <= c) | (offset > reach)  # q < r, or past the kernel
    rows = z_ext[start:start + count * tile].reshape(count, tile, 1)
    cols = z_ext[start + c + 1:start + c + 1 + count * tile].reshape(count, 1, tile)
    heads = np.subtract(cols, rows, out=out)
    np.copyto(heads, 1.0, where=masked)
    np.divide(1.0, heads, out=heads)
    np.copyto(heads, 0.0, where=masked)
    return heads


def _band_task(z_ext, contrib_ext, t0: int, m: int, width: int, reach: int,
               cuts, buf):
    """One tile of the band sweep, a task of _peers.in_task_order: it
    builds the tile's kernel in buf and returns, for each cut from
    the antipode inward, the (F, m) sums of the tile's m rows over the
    columns past the previous cut's head up to its own, and the (F, width)
    sums that its rows, as sources, give the frame's columns."""
    tile = _TILE
    kern = _tile_kernel(z_ext, t0, width, reach, out=buf)
    frame = contrib_ext[t0:t0 + width]
    aheads, hi = [], width
    for c in cuts:
        # rows r keep columns q > r + c: all of them from lo on, a
        # triangle of the head c < q < lo, which the heads sweep adds
        lo = c + tile + 1
        aheads.append(_row_sums(kern, frame, lo, hi)[:m].T)
        hi = lo
    # the tile's rows as sources behind their targets: K[j, i] = -K[i, j]
    src = -frame[:tile].T
    src[:, m:] = 0.0  # rows past the last node wrap around; they add nothing
    return aheads, src @ kern


def _heads_task(z_ext, contrib_ext, n: int, reach: int, c: int, s: int,
                count: int, buf):
    """One chunk of the heads sweep, a task of _peers.in_task_order: it
    builds the chunk's head blocks in buf and returns the (F, rows)
    sums of its rows over cut c's head triangles and the (F, count * _TILE)
    sums those triangles give their columns from node s + c + 1 on.  The
    chunk's tiles take the per-tile products as one stack."""
    tile = _TILE
    f = contrib_ext.shape[1]
    span = count * tile
    rows = min(span, n - s)
    heads = _head_blocks(z_ext, c, s, count, reach,
                         out=buf.reshape(-1)[:span * tile].reshape(count, tile, tile))
    src = -contrib_ext[s:s + span]
    src[rows:] = 0.0  # rows past the last node add nothing
    behind = src.reshape(count, tile, f).transpose(0, 2, 1) @ heads
    del src
    behind = behind.transpose(1, 0, 2).reshape(f, span)
    frames = contrib_ext[s + c + 1:s + c + 1 + span]
    ahead = heads @ frames.reshape(count, tile, f)
    return ahead.reshape(span, f)[:rows].T, behind


def truncated_cauchy_family(sc: SampledCurve, values, eps_list) -> np.ndarray:
    """Truncated transforms of a stack of functions for several windows.

    values has shape (F, n); entry [f, w, i] of the (F, W, n) result is
    T_eps f at node i for eps = eps_list[w], with the module's conventions.
    Each kernel entry 1/(z_j - z_i) is built once in its tile's kernel, for
    the row i it lies ahead of, and serves node j as -1/(z_i - z_j); the
    head entries, _TILE per row and cut, are built a second time for the
    heads sweep.
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
    f = vals.shape[0]
    out = np.zeros((f, len(windows), n), dtype=complex)
    # each cut's slot first takes the terms past the head of every tile
    # that lie before the previous cut's head; a running sum over the cuts
    # then makes them the terms past the head
    slots = {c: out[:, by_cut[c][0]] for c in cuts}
    # the heads sweep takes each cut's tiles in chunks whose heads fill at
    # most half a tile kernel's buffer, so that a chunk's products are no
    # larger than a tile's
    tiles = -(-n // tile)
    per_chunk = max(1, width // (2 * tile))
    chunks = [(c, t * tile, min(per_chunk, tiles - t)) for c in cuts
              for t in range(0, tiles, per_chunk)]
    starts = range(0, n, tile)
    tasks = [partial(_band_task, z_ext, contrib_ext, t0, min(tile, n - t0),
                     width, reach, cuts) for t0 in starts]
    tasks += [partial(_heads_task, z_ext, contrib_ext, n, reach, *chunk)
              for chunk in chunks]
    # both workers build every kernel and chunk of heads in their own buffer
    scratch = tuple(np.empty((tile, width), dtype=complex) for _ in range(2))
    with closing(in_task_order(tasks, scratch)) as results:
        for t0, (aheads, behind) in zip(starts, results):
            hi = width
            for c, ahead in zip(cuts, aheads):
                lo = c + tile + 1
                slots[c][:, t0:t0 + ahead.shape[1]] += ahead
                _wrap_add(slots[c], t0 + lo, behind[:, lo:hi])
                hi = lo
        aheads = behind = None  # free the last tile's sums
        if n % 2 == 0:
            antipode = _offset_terms(sc, contrib, n // 2)
            if cuts:
                slots[cuts[0]] += antipode
        for prev, c in zip(cuts, cuts[1:]):
            slots[c] += slots[prev]
        # each cut's head triangles join its slot in one addition; each
        # node gets its head terms in tile order (its one ahead term may
        # move before behind terms, which commutes from zero)
        heads_sum = np.zeros((f, n), dtype=complex)
        for (c, s, count), (ahead, behind) in zip(chunks, results):
            heads_sum[:, s:s + ahead.shape[1]] += ahead
            _wrap_add(heads_sum, s + c + 1, behind)
            if s + count * tile >= n:
                slots[c] += heads_sum
                heads_sum[:] = 0.0
    scratch = heads_sum = ahead = behind = None  # free before the edge sums
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
    for the K levels.  The pv is the Richardson value 2 T_2h - T_4h; a
    level with the window of 2h or 4h serves for it, so those windows are
    only added to the pass when no level has them.
    """
    if sc.n < 16:
        raise DomainError("grid too small for the 2h/4h extrapolation")
    h = sc.spacing
    eps_list = list(levels)
    count = len(eps_list)
    splits = [_window_split(eps, h, sc.n) for eps in eps_list]
    picks = []
    for eps in (2.0 * h, 4.0 * h):
        split = _window_split(eps, h, sc.n)
        if split not in splits:
            eps_list.append(eps)
            splits.append(split)
        picks.append(splits.index(split))
    vals = truncated_cauchy_family(sc, values, eps_list)
    return 2.0 * vals[:, picks[0]] - vals[:, picks[1]], vals[:, :count]


def maximal_of(table: np.ndarray) -> np.ndarray:
    """Sup over the K levels of a (..., K, n) T_eps table."""
    return np.abs(table).max(axis=-2)


def pv_cauchy_all(sc: SampledCurve, values) -> np.ndarray:
    """Richardson principal value at every node (a family of one)."""
    pv, _ = cauchy_family(sc, [values])
    return pv[0]


def truncated_cauchy_all(sc: SampledCurve, values, levels) -> dict:
    """Truncated transforms at every node for each (k, eps) level, by k."""
    table = truncated_cauchy_family(sc, [values], [eps for _, eps in levels])[0]
    return {k: row for (k, _), row in zip(levels, table)}


def maximal_cauchy_all(sc: SampledCurve, values, levels):
    """Vectorized maximal transform: (values, argmax eps) per node."""
    stack = np.abs(truncated_cauchy_family(sc, [values],
                                           [eps for _, eps in levels])[0])
    arg = np.argmax(stack, axis=0)
    return stack.max(axis=0), np.asarray([eps for _, eps in levels])[arg]


def _hl_radii(sc: SampledCurve):
    """Interior half-widths of the dyadic parametric balls, plus the full curve."""
    return [_window_split(eps, sc.spacing, sc.n)[0]
            for _, eps in dyadic_levels(sc, 1)] + [sc.n]


def _circular_prefix(x) -> np.ndarray:
    """Prefix sums, from 0, of x repeated three times along its last axis."""
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([zero, x, x, x], axis=-1), axis=-1)


def hl_maximal_all(sc: SampledCurve, values) -> np.ndarray:
    """Max over dyadic parametric balls of the average of |values|, at every
    node of each row of a (..., n) stack, via circular rolling sums."""
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


def hl_maximal_squared(sc: SampledCurve, values) -> np.ndarray:
    """Twice-iterated maximal operator of each row of a (..., n) stack."""
    return hl_maximal_all(sc, hl_maximal_all(sc, values))


def truncated_kernel(sc: SampledCurve, z_index: int, eps: float) -> np.ndarray:
    """The Cauchy kernel at z, zeroed on the parametric eps-ball (half at
    the exact boundary)."""
    scale, dz = _outside_window(sc, z_index, eps)
    return scale / (1j * math.pi * dz)


def _near_center(n: int, center: int) -> np.ndarray:
    """Nodes within 2h of node center, where g = T(K_{z,eps}) is left
    unevaluated: the Richardson rule is not meaningful that close to the
    excluded ball."""
    return _cyclic_distance(n, center) <= 2


def kernel_truncation_transform(sc: SampledCurve, z_index: int, eps: float) -> np.ndarray:
    """g = T(K) for the truncated kernel K at z_index, with 0 at the nodes
    within 2h of z_index.

    No program path calls it: the proof check takes g from its own family
    pass.  It stays because the benchmark's traced runs wrap it by name.
    """
    pv, _ = cauchy_family(sc, [truncated_kernel(sc, z_index, eps)])
    return np.where(_near_center(sc.n, z_index), 0.0, pv[0])


def kernel_transform_direct_fill(sc: SampledCurve, kernel: np.ndarray,
                                 center: int, pv: np.ndarray) -> np.ndarray:
    """g = T(K) from the principal values pv of the truncated kernel K at
    node center, with the nodes within 2h of it filled by plain trapezoid sums.

    The kernel vanishes identically near those nodes, so the full sum has
    no singular part there and needs no principal-value treatment.
    """
    vals = pv.copy()
    contrib = kernel * _unit_measure(sc)
    for i in np.nonzero(_near_center(sc.n, center))[0]:
        dz = sc.points - sc.points[i]
        dz[i] = 1.0
        c = contrib / dz
        c[i] = 0.0
        vals[i] = np.sum(c) / (1j * math.pi)
    return vals


def transform_csv_blocks(sc: SampledCurve, table):
    """The text of a transform table's rows node,param,quantity,epsilon,re,im,
    each followed by LF, as one block per table entry.

    table is a sequence of (quantity, eps_label, values); the first block
    is every node of its first entry, the next block every node of the
    next, and so on.  The node,param prefix is formatted once per table, as
    a byte matrix.  Each block is made when it is asked for, so a writer
    that takes them one at a time (``curves.write_text``) holds one entry's
    text, not the table's.
    """
    from ._csvtext import byte_matrix, csv_block  # compiled on first use

    prefix = byte_matrix([np.arange(sc.n), ",", sc.params, ","])
    for quantity, eps_label, values in table:
        yield csv_block([prefix, f"{quantity},{eps_label},",
                         values.real, ",", values.imag])


def transform_csv_rows(sc: SampledCurve, table):
    """The rows of transform_csv_blocks, one string per node and entry,
    without LF.

    No program path calls it: it holds the whole table's text at once,
    where transform.csv is written block by block.  It stays as the row
    view that tests read, and the benchmark's traced runs wrap it by name.
    """
    rows = []
    for block in transform_csv_blocks(sc, table):
        rows += block.split("\n")[:-1]
    return rows
