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
two-cell floor 2h, and dyadic_levels alone produces them.  The maximal
function takes each ball's sum as a difference of two prefix-sum slices.
The kernel transform g = T(K_{z,eps}) of the truncated kernel is left
unevaluated at the nodes within 2h of z, which _near_center alone marks;
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
addition.  One builder, _kernel_blocks, makes the entries of both sweeps
with the same operations, so a head entry has the bits of the band entry
it repeats, and one task function, _sweep_task, makes the products of
both.  An even grid's antipode and the half-weight boundary nodes are
separate terms, each made where it is added, from views of the pass's
wrapped rows: an edged cut c makes one division pass, 1/(z[i+c] - z[i]),
and its behind terms are the ahead products negated and rotated by c.
No window's sum is a difference of larger sums, so a window that holds
only a few nodes is as accurate as its own terms.  Besides the result,
the pass holds the same memory for any number of windows but for a band
tile's row sums, F x _TILE values per cut: one copy of the values, in
its own layout (a list of arrays is stacked only on the way there), one
F x n scratch, two tile-kernel buffers and the products of at most four
tiles or chunks (two of the helper's, one of the calling thread's and
the last one added); traced at n = 2048 and F = 15, the result plus
9.5-9.8 F x n slabs for 2 windows and for 12, from an array or a list.
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
helper, through _peers.in_task_order.  The band tiles and then the heads
chunks are the tasks, each one call of _sweep_task, in one list; each
worker takes the next task not yet started, builds its kernel blocks in
its own buffer of one tile kernel (two buffers, about 8 MB at n = 8192,
allocated before the sweep), and makes the task's products of them.
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


def _tile_windows(ext, start: int, count: int, cols: int) -> np.ndarray:
    """View of the count windows of cols rows of ext from rows start,
    start + _TILE, ..., shape (count, cols) + ext.shape[1:]; ext must be
    contiguous, and a window past its end raises."""
    step = ext.strides[0]
    return np.ndarray((count, cols) + ext.shape[1:], ext.dtype, ext,
                      start * step, (_TILE * step,) + ext.strides)


def _kernel_blocks(z_ext, start: int, count: int, first: int, cols: int,
                   cut: int, reach: int, out) -> np.ndarray:
    """Kernel blocks of the count tiles of _TILE rows from node start,
    built in out, of shape (count, _TILE, cols).

    Entry [t, r, q] is 1/(z[s + first + q] - z[s + r]), s = start + t * _TILE,
    when the offset first + q - r lies in cut + 1..reach, and zero
    elsewhere.  Only the columns where some row leaves that range are
    masked: those before cut - first + _TILE, and those from
    reach - first + 1 on.  A band tile is one block of the frame's width
    (first = cut = 0); a heads chunk is count blocks of _TILE columns from
    first = c + 1 for cut c, each the columns c + 1..c + _TILE of its tile's
    band kernel without the entries at offsets up to c.
    """
    tile = _TILE
    rows = z_ext[start:start + count * tile].reshape(count, tile, 1)
    kern = np.subtract(_tile_windows(z_ext, start + first, count, cols)[:, None],
                       rows, out=out)
    low = min(cols, cut - first + tile)
    masks = []
    for a, b in ((0, low), (max(low, reach - first + 1), cols)):
        if a < b:
            # the offset is constant along diagonals: entry [r, q] of the
            # mask is run[q - r + _TILE - 1], a view of one run of offsets
            run = np.arange(first + a - tile + 1, first + b)
            run = (run <= cut) | (run > reach)
            masks.append((kern[..., a:b], np.ndarray(
                (tile, b - a), bool, run, tile - 1, (-1, 1))))
    for part, masked in masks:
        np.copyto(part, 1.0, where=masked)
    np.divide(1.0, kern, out=kern)
    for part, masked in masks:
        np.copyto(part, 0.0, where=masked)
    return kern


def _wrap_add(acc, start: int, vals) -> None:
    """acc[:, (start + q) % n] += vals[:, q] for the n columns of acc."""
    n = acc.shape[1]
    q = 0
    while q < vals.shape[1]:
        a = (start + q) % n
        s = min(vals.shape[1] - q, n - a)
        acc[:, a:a + s] += vals[:, q:q + s]
        q += s


def _offset_terms(z_ext, contrib_ext, n: int, off: int) -> np.ndarray:
    """K[i, i+off] contrib[i+off] + K[i, i-off] contrib[i-off] for every
    node i, shape (F, n), from views of the pass's wrapped rows; one term
    when both are one node.  K[i, i-off] = -K[i-off, i] exactly, so both
    come from one kernel diagonal."""
    diag = 1.0 / (z_ext[off:off + n] - z_ext[:n])
    terms = diag * contrib_ext[off:off + n].T
    if 2 * off != n:
        terms -= np.roll(diag * contrib_ext[:n].T, off, axis=1)
    return terms


def _sweep_task(z_ext, contrib_ext, n: int, reach: int, start: int,
                count: int, first: int, cols: int, cut: int, ranges, buf):
    """One band tile or heads chunk, a task of _peers.in_task_order: it
    builds the kernel blocks of _kernel_blocks in buf and returns, for each
    column range (lo, hi) of ranges, the (F, rows) sums of the blocks' rows
    that are nodes over those columns, and the (F, count * cols) sums that
    the rows, as sources, give the blocks' columns in order."""
    tile = _TILE
    f = contrib_ext.shape[1]
    span = count * tile
    rows = min(span, n - start)
    kern = _kernel_blocks(z_ext, start, count, first, cols, cut, reach,
                          buf.reshape(-1)[:span * cols].reshape(count, tile, cols))
    frames = _tile_windows(contrib_ext, start + first, count, cols)
    aheads = []
    for lo, hi in ranges:
        # BLAS reduces over a multiple of 8 columns, the rest elementwise
        mid = hi - (hi - lo) % 8
        sums = kern[..., lo:mid] @ frames[:, lo:mid]
        if mid < hi:
            sums += (kern[..., mid:hi, None] * frames[:, None, mid:hi]).sum(axis=2)
        aheads.append(sums.reshape(span, f)[:rows].T)
    # the rows as sources behind their targets: K[j, i] = -K[i, j]; these
    # come after the row sums, so that the elementwise products of a band
    # tile's leftover columns are freed before they are made
    src = -contrib_ext[start:start + span]
    src[rows:] = 0.0  # rows past the last node wrap around; they add nothing
    behind = src.reshape(count, tile, f).transpose(0, 2, 1) @ kern
    del src
    behind = behind.transpose(1, 0, 2).reshape(f, count * cols)
    return aheads, behind


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
    tile = _TILE
    width = reach + tile + 1  # every cut's head fits: cut + tile + 1 <= width
    ext = np.arange(n + width) % n
    z_ext = sc.points[ext]
    # the pass's one copy of the values: node contributions in rows, wrapped
    # on past node n - 1 (a list input's stacked copy goes here too)
    f = vals.shape[0]
    contrib_ext = (vals.T * _unit_measure(sc)[:, None])[ext]
    vals = None
    terms = partial(_offset_terms, z_ext, contrib_ext, n)
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
    # a band tile's rows keep the columns past each cut's head: from the
    # antipode inward, lo = cut + tile + 1 up to the previous cut's lo
    bounds = [width] + [c + tile + 1 for c in cuts]
    ranges = list(zip(bounds[1:], bounds))
    starts = range(0, n, tile)
    band = [(t0, 1, 0, width, 0, ranges) for t0 in starts]
    heads = [(s, count, c + 1, tile, c, [(0, tile)]) for c, s, count in chunks]
    tasks = [partial(_sweep_task, z_ext, contrib_ext, n, reach, *task)
             for task in band + heads]
    # both workers build every kernel and chunk of heads in their own buffer
    scratch = tuple(np.empty((tile, width), dtype=complex) for _ in range(2))
    with closing(in_task_order(tasks, scratch)) as results:
        for t0, (aheads, behind) in zip(starts, results):
            for c, (lo, hi), ahead in zip(cuts, ranges, aheads):
                slots[c][:, t0:t0 + ahead.shape[1]] += ahead
                _wrap_add(slots[c], t0 + lo, behind[:, lo:hi])
        aheads = behind = None  # free the last tile's sums
        if n % 2 == 0 and cuts:
            slots[cuts[0]] += terms(n // 2)
        for prev, c in zip(cuts, cuts[1:]):
            slots[c] += slots[prev]
        # each cut's head triangles join its slot in one addition; each
        # node gets its head terms in tile order (its one ahead term may
        # move before behind terms, which commutes from zero)
        heads_sum = np.zeros((f, n), dtype=complex)
        for (c, s, count), ((ahead,), behind) in zip(chunks, results):
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
            edge = terms(cut)
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
    """Sup over the K levels of a (..., K, n) T_eps table, a running max
    over the levels' moduli."""
    sup = np.abs(table[..., 0, :])
    for k in range(1, table.shape[-2]):
        np.maximum(sup, np.abs(table[..., k, :]), out=sup)
    return sup


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
    node of each row of a (..., n) stack, via prefix sums of tripled rows."""
    n = sc.n
    w = sc.weights
    vw = np.abs(values) * w
    pref_vw = _circular_prefix(vw)
    pref_w = _circular_prefix(w)
    out = np.repeat(np.sum(vw, axis=-1, keepdims=True) / np.sum(w), n, axis=-1)
    for m in _hl_radii(sc):
        if m >= (n - 1) // 2:
            continue
        hi, lo = slice(n + m + 1, 2 * n + m + 1), slice(n - m, 2 * n - m)
        num = pref_vw[..., hi] - pref_vw[..., lo]
        den = pref_w[hi] - pref_w[lo]
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
