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

One evaluator, truncated_cauchy_windows, computes every all-nodes Cauchy
sum: a stack of F functions times a list of windows, yielded one window
at a time.  The kernel is antisymmetric, 1/(z_j - z_i) = -1/(z_i - z_j),
so rows run in tiles of _TILE = 64 and each tile builds only the ahead
half of its kernel: offsets 1..(n-1)//2, in a frame of (n-1)//2 + 65
columns where every window of every row is a contiguous column range.
Each entry serves twice.  The pass goes cut by cut (a cut is a window's
inner half-width plus its boundary flag), from the antipode inward.  A
cut's band is the frame's columns from its head's end, cut + 65, up to
the previous cut's: every tile builds that block (bounds rounded out to
multiples of 8, or to the frame's end), its rows' ahead sums come from a
plain matmul over the range, and the transposed product of the tile's
own values gives its target nodes their behind sums over the same
columns.  A block wider than _BLOCK / _TILE = 1024 columns goes in the
fewest even pieces of at most 1024 columns that start at multiples of 8
(_split), and a task takes at most _PIECES = 4 pieces of one tile,
built one after another in its buffer, and adds their row sums piece
after piece.  These sums collect in tile order in one F x n slab that
joins a running sum over the cuts done so far, so it holds the sums past
the cut's head.  The cut's masked head triangles, _TILE entries per row,
are then rebuilt a chunk of at most 16 tiles at a time into a second
slab, which joins the running sum in one addition; the cut's windows
are closed and yielded before the next cut starts.  One builder,
_kernel_blocks, makes the entries of bands and heads with the same
operations, so a head entry has the bits of the band entry it repeats,
and one task function, _sweep_task, makes the products of both.  An
even grid's antipode and the half-weight boundary nodes are separate
terms, each made where it is added, from views of the pass's wrapped
rows: an edged cut c makes one division pass, 1/(z[i+c] - z[i]), and its
behind terms are the ahead products, negated, of the nodes c behind.  No window's sum is a
difference of larger sums, so a window that holds only a few nodes is as
accurate as its own terms.  A pass holds no per-window storage: one copy
of the values, in its own layout (a list of arrays is stacked only on
the way there), the running sum, the cut's slab, the window being
closed with its boundary terms, two kernel buffers of at most _BLOCK =
2^16 complex entries (1 MiB) each, whatever n, and the products of at
most four tasks, which that budget bounds too; the tasks are made as the
workers take them, so no list of them grows with n either.  The buffers
and the running sum go before the last cut is closed.  Traced with
F = 15 and each window dropped as it comes, its peak is 8.1-8.7 F x n
slabs for 12 windows and 10.2-10.5 for 2 at n = 2048, 6.1-6.4 for both
at 8192, from an array or a list; with F = 2 at 8192, 3.6-3.7 MiB,
against 5.9 and 9.9 MiB with buffers as wide as the widest cut's block
(n/4 columns for the dyadic levels, n/2 for 2h and 4h alone).

truncated_cauchy_family collects the windows into an (F, W, n) table,
for the tests (39.3 MiB traced at n = 8192, 15 functions and 14
windows, the table 26.25 MiB of it).  cauchy_family and
cauchy_maximal_family take the windows as they come: cauchy_family
keeps every function's principal values and the first function's level
rows, the only rows its callers read (the transform and proof scans,
the witnesses and pv_cauchy_all); the transform's pass of f and one
kernel at n = 8192, levels k = 5..12, peaks at 4.7 MiB traced, against
11.6 MiB with the (F, W, n) table and the wide buffers.
cauchy_maximal_family keeps the principal values and the running max
over the levels, for the cotlar scan (13.5-13.9 MiB for 15 functions
and the 12 levels at n = 8192, against 34.3-34.5 MiB through
truncated_cauchy_family and maximal_of).  The bits are those of one
tile-major sweep that builds every tile's kernel over the whole frame,
kept in tests/oracles.py with the readable single-node oracles.

pv_cauchy_all, truncated_cauchy_all and maximal_cauchy_all are that
evaluator on a family of one, and kernel_truncation_transform is g for one
kernel.  No program path calls them; they stay only because the
benchmark's traced runs wrap them by name, and they go with the benchmark
change that drops them from its table.  transform_csv_rows is kept the
same way: transform.csv goes out from transform_csv_blocks, one table
entry at a time.

Threads: each pass runs two peer workers, the calling thread and one
helper, through _peers.in_task_order.  Each cut's band blocks (a task
takes several tiles of a narrow block) and then its heads chunks are the
tasks, each one call of _sweep_task with one column range of its blocks
(the cut's band columns or a piece of them, or a head's _TILE), drawn
from one generator for all the cuts; each worker takes the next task not
yet started, builds its kernel blocks in its own buffer (allocated
before the pass) and makes the task's products of them.  The helper
holds at most two results not yet added, the calling thread one, so the
helper runs ahead into the next cut while the calling thread closes a
cut's windows and the consumer takes them.
Only the calling thread adds results into the pass's arrays, in task
order, so every node gets its terms in the same order whichever worker
ran a task.  The pass joins its helper when it ends or is closed.  Both
workers call BLAS; importing cauchylab before numpy sets
OPENBLAS_NUM_THREADS=1 unless it is already set, so each product runs on
the thread that calls it: the per-tile products are too small for BLAS
threads, which only spun.

Determinism: reruns give the same bits, and which worker runs a task
changes none of them, since no sum changes order.  Every BLAS product
reduces over a multiple of 8 terms (a tile's 64 rows, or a column range
cut to a multiple of 8 with the rest summed elementwise, tile by tile).
With the OpenBLAS build the tests run on, that made the bits the same
under one and two BLAS threads at n = 2048, 3000, 4096 and 8192, where
ragged reductions had differed; the test pins 2048 x 15 and 3000 x 7
functions, and CI the square's all-scans output at 2048, 4096 and 8192
nodes.  A band block's columns start at a multiple of 8 for the same
library's sake: with one BLAS thread, blocks that did not changed bits
of the transposed products against a product over the whole frame.  It
is an observation about that library, not a guarantee for others.  A
family and a single call agree to 1e-13 relative (products of other
shapes round differently).
"""

from __future__ import annotations

import math
from contextlib import closing
from functools import partial
from itertools import chain, pairwise

import numpy as np

from ._peers import in_task_order
from .curves import SampledCurve
from .errors import DomainError, ResolutionError

__all__ = [
    "dyadic_levels",
    "truncated_cauchy_windows",
    "truncated_cauchy_family",
    "cauchy_family",
    "cauchy_maximal_family",
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
_BLOCK = 2 ** 16  # complex entries of each worker's kernel buffer, at most
_PIECES = 4  # pieces of _BLOCK // _TILE columns of one tile per band task, at most
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
    masked: those before cut - first + _TILE (none when the block starts
    that far past the cut), and those from reach - first + 1 on.  A band
    block is the columns first..first + cols - 1 of its tiles' kernels
    (cut = 0); a heads chunk is count blocks of _TILE columns from
    first = c + 1 for cut c, each the columns c + 1..c + _TILE of its tile's
    kernel without the entries at offsets up to c.
    """
    tile = _TILE
    rows = z_ext[start:start + count * tile].reshape(count, tile, 1)
    # numpy buffers a broadcast ufunc whose rows are shorter than about a
    # third of its buffer (8192 elements unless set), at 2-3 ns an entry
    # here against 0.7-1 ns with a buffer of one row, from 64 columns on;
    # a one-row buffer also keeps the buffers of a narrow block's ufuncs
    # (0.2 MiB on a two-function pass at n = 8192) off the pass's peak.
    # The buffer size is the calling thread's own
    size = np.setbufsize(-(-cols // 16) * 16)
    try:
        kern = np.subtract(_tile_windows(z_ext, start + first, count, cols)[:, None],
                           rows, out=out)
    finally:
        np.setbufsize(size)
    low = max(0, min(cols, cut - first + tile))
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


def _split(a: int, b: int, cap: int) -> list:
    """Bounds a = p_0 < ... < p_m = b of the fewest column ranges of at
    most cap columns (a multiple of 8), as even as ranges that start at
    multiples of 8 from a allow."""
    m = -(-(b - a) // cap)
    units = -(-(b - a) // 8)
    return [a + 8 * (k * units // m) for k in range(m)] + [b]


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
    come from one kernel diagonal: node i's behind term is node i - off's
    ahead product, negated."""
    diag = 1.0 / (z_ext[off:off + n] - z_ext[:n])
    terms = diag * contrib_ext[off:off + n].T
    if 2 * off != n:
        # one function at a time: products one row long, and 2.3 times as
        # fast as whole-stack products at n = 8192, F = 15
        for row, values in zip(terms, contrib_ext[:n].T):
            row[off:] -= diag[:n - off] * values[:n - off]
            row[:off] -= diag[n - off:] * values[n - off:]
    return terms


def _sweep_task(z_ext, contrib_ext, n: int, reach: int, start: int,
                count: int, cut: int, pieces, buf):
    """One band task or heads chunk, a task of _peers.in_task_order: for
    each piece (first, cols, lo, hi) of its blocks in turn, it builds the
    kernel blocks of _kernel_blocks in buf.  Returns the (F, rows) sums of
    the blocks' rows that are nodes over each piece's columns lo..hi - 1,
    added piece after piece, and for each piece the (F, count * cols) sums
    that the rows, as sources, give its columns in order."""
    tile = _TILE
    f = contrib_ext.shape[1]
    span = count * tile
    rows = min(span, n - start)
    ahead, behinds = None, []
    for first, cols, lo, hi in pieces:
        kern = _kernel_blocks(z_ext, start, count, first, cols, cut, reach,
                              buf.reshape(-1)[:span * cols].reshape(count, tile, cols))
        frames = _tile_windows(contrib_ext, start + first, count, cols)
        # BLAS reduces over a multiple of 8 columns, the rest elementwise,
        # tile by tile, so that the products are _TILE x 7 x F at most
        mid = hi - (hi - lo) % 8
        sums = kern[..., lo:mid] @ frames[:, lo:mid]
        for t in range(count) if mid < hi else ():
            sums[t] += (kern[t, :, mid:hi, None] * frames[t, None, mid:hi]).sum(axis=1)
        sums = sums.reshape(span, f)[:rows].T
        if ahead is None:
            ahead = sums
        else:
            ahead += sums
        # the rows as sources behind their targets: K[j, i] = -K[i, j]; these
        # come after the row sums, so that the elementwise products of the
        # leftover columns are freed before they are made
        src = -contrib_ext[start:start + span]
        src[rows:] = 0.0  # rows past the last node wrap around; they add nothing
        behind = src.reshape(count, tile, f).transpose(0, 2, 1) @ kern
        del src
        behinds.append(behind.transpose(1, 0, 2).reshape(f, count * cols))
        del behind
    return ahead, behinds


def truncated_cauchy_windows(sc: SampledCurve, values, eps_list):
    """Truncated transforms of a stack of functions, one window at a time.

    values has shape (F, n).  The returned iterator yields (w, T_eps f) for
    each window w, eps = eps_list[w], of shape (F, n), with the module's
    conventions: cut by cut from the antipode inward, the windows of one
    cut in list order.  Shapes, values and windows are checked before it
    returns; the sums are made as the windows are asked for.  Each kernel
    entry 1/(z_j - z_i) is built once, in the band block of the one cut
    whose columns hold it, for the row i it lies ahead of, and serves node
    j as -1/(z_i - z_j); the head entries, _TILE per row and cut, are built
    a second time for the cut's heads.
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
    ext = np.arange(n + (n - 1) // 2 + _TILE + 1) % n
    # the pass's one copy of the values: node contributions in rows, wrapped
    # on past node n - 1 (a list input's stacked copy is dropped here)
    contrib_ext = (vals.T * _unit_measure(sc)[:, None])[ext]
    return _cut_stream(sc.points[ext], contrib_ext, n, windows)


def _cut_stream(z_ext, contrib_ext, n: int, windows):
    """The generator of truncated_cauchy_windows, from the wrapped rows of
    the nodes and of their contributions and the (inner, boundary) split
    of each window."""
    tile = _TILE
    f = contrib_ext.shape[1]
    # offsets 1..reach ahead and behind; an even grid's antipode is apart
    reach = (n - 1) // 2
    width = reach + tile + 1  # every cut's head fits: cut + tile + 1 <= width
    by_cut = {}  # the windows of each cut
    for w, (inner, boundary) in enumerate(windows):
        by_cut.setdefault(inner + boundary, []).append(w)
    cuts = sorted((c for c in by_cut if c <= reach), reverse=True)
    terms = partial(_offset_terms, z_ext, contrib_ext, n)
    # a band row keeps the columns past each cut's head: from the antipode
    # inward, lo = cut + tile + 1 up to the previous cut's lo.  Each cut's
    # block is rounded out to multiples of 8 (or to the frame's end), so
    # that its transposed products split their columns as a product over
    # the whole frame does
    bounds = [width] + [c + tile + 1 for c in cuts]
    blocks = [(lo - lo % 8, min(width, hi + -hi % 8), lo, hi)
              for lo, hi in zip(bounds[1:], bounds)]
    tiles = -(-n // tile)
    # a worker's buffer holds _BLOCK entries at most, whatever n: a band
    # block wider than `most` columns goes in pieces of at most `most`
    # columns (each starting at a multiple of 8), a heads chunk fills at
    # most half a tile kernel of the frame's width and `most` columns in
    # all, and a band task takes no more rows than its buffer has columns
    # and no more than _PIECES pieces, which bounds its products
    most = _BLOCK // tile
    per_chunk = max(1, min(width // (2 * tile), most // tile))
    widest = min(most, max([b - a for a, b, lo, hi in blocks if lo < hi]
                           + [per_chunk * tile]))

    # the tasks are made as the workers take them, and again as their
    # results are added, so that no list of them grows with n; each is
    # (start, count, cut, pieces), the arguments of _sweep_task
    def band(a, b, lo, hi):
        """A cut's band tasks.  A split block's take one tile and up to
        _PIECES pieces each, the groups and the pieces as even as _split
        makes them, so that no task is a sliver of another's work."""
        if lo >= hi:  # a cut at reach: its head reaches the frame's end
            return
        per_task = max(1, min(widest // (b - a), widest // tile))
        groups = []
        for q0, q1 in pairwise(_split(a, b, _PIECES * most)):
            groups.append([(p, q - p, max(lo, p) - p, min(hi, q) - p)
                           for p, q in pairwise(_split(q0, q1, most))])
        for t in range(0, tiles, per_task):
            for pieces in groups:
                yield t * tile, min(per_task, tiles - t), 0, pieces

    def heads(c):
        """A cut's heads chunks."""
        for t in range(0, tiles, per_chunk):
            yield t * tile, min(per_chunk, tiles - t), c, [(c + 1, tile, 0, tile)]

    tasks = (partial(_sweep_task, z_ext, contrib_ext, n, reach, *task)
             for c, block in zip(cuts, blocks)
             for task in chain(band(*block), heads(c)))

    def close(cut, base):
        """Yield the windows of the cut from base, its terms past the
        head; the last window takes base itself."""
        ws = by_cut[cut]
        edge = None
        if any(windows[w][1] for w in ws):
            edge = terms(cut)
            edge *= 0.5
        for i, w in enumerate(ws):
            out = base if i == len(ws) - 1 else base.copy()
            if windows[w][1]:
                out += edge
            out /= 1j * math.pi
            yield w, out

    if reach + 1 in by_cut:  # an even grid's antipode window: its one term
        yield from close(reach + 1, np.zeros((f, n), dtype=complex))
    if not cuts:
        return
    # running: the terms past the head of the cuts done so far; part: the
    # current cut's band terms before the previous cut's head, then its
    # head triangles.  Each node gets its terms in tile order
    running = None
    # both workers build every block and chunk of heads in their own buffer
    scratch = tuple(np.empty(tile * widest, dtype=complex) for _ in range(2))
    with closing(in_task_order(tasks, scratch)) as results:
        for c, block in zip(cuts, blocks):
            part = np.zeros((f, n), dtype=complex)
            for (s, count, _, pieces), (ahead, behinds) in zip(band(*block), results):
                for t in range(count):
                    t0 = s + t * tile
                    part[:, t0:t0 + tile] += ahead[:, t * tile:(t + 1) * tile]
                    for (first, cols, lo, hi), behind in zip(pieces, behinds):
                        _wrap_add(part, t0 + first + lo,
                                  behind[:, t * cols + lo:t * cols + hi])
            ahead = behind = behinds = None  # not kept through the heads
            if running is None:
                if n % 2 == 0:
                    part += terms(n // 2)
                running, part = part, np.zeros((f, n), dtype=complex)
            else:
                running += part
                part[:] = 0.0
            # a node's one ahead head term may come before behind ones,
            # which commutes from zero
            for (s, *_), (ahead, (behind,)) in zip(heads(c), results):
                part[:, s:s + ahead.shape[1]] += ahead
                _wrap_add(part, s + c + 1, behind)
            ahead = behind = None  # free the last chunk's sums
            part += running
            if c == cuts[-1]:
                # every task is done: join the helper and free what the
                # last cut's windows do not need
                results.close()
                scratch = running = None
            yield from close(c, part)
            part = None


def truncated_cauchy_family(sc: SampledCurve, values, eps_list) -> np.ndarray:
    """Truncated transforms of a stack of functions for several windows.

    values has shape (F, n); entry [f, w, i] of the (F, W, n) result is
    T_eps f at node i for eps = eps_list[w]: the windows of
    truncated_cauchy_windows, collected.
    """
    eps_list = list(eps_list)
    stream = truncated_cauchy_windows(sc, values, eps_list)
    out = np.empty((len(values), len(eps_list), sc.n), dtype=complex)
    with closing(stream):
        for w, vals in stream:
            out[:, w] = vals
            vals = None  # not kept through the next cut's sums
    return out


def _richardson_windows(sc: SampledCurve, levels):
    """The windows of a pass for the levels and the Richardson principal
    value: the levels, then 2h and 4h unless a level has their window, and
    the indices of the 2h and 4h windows among them."""
    if sc.n < 16:
        raise DomainError("grid too small for the 2h/4h extrapolation")
    h = sc.spacing
    eps_list = list(levels)
    splits = [_window_split(eps, h, sc.n) for eps in eps_list]
    picks = []
    for eps in (2.0 * h, 4.0 * h):
        split = _window_split(eps, h, sc.n)
        if split not in splits:
            eps_list.append(eps)
            splits.append(split)
        picks.append(splits.index(split))
    return eps_list, picks


def _richardson_pass(sc: SampledCurve, values, levels, take):
    """One evaluator pass over the levels and the Richardson windows: calls
    take(w, T_eps f) with each level's (F, n) window as the pass yields it,
    and returns the principal values 2 T_2h - T_4h, of shape (F, n)."""
    eps_list, (pick_2h, pick_4h) = _richardson_windows(sc, levels)
    t_4h = pv = None
    with closing(truncated_cauchy_windows(sc, values, eps_list)) as stream:
        for w, vals in stream:
            if w < len(levels):
                take(w, vals)
            if w == pick_4h:
                t_4h = vals
            elif w == pick_2h:  # the innermost cut, after 4h's
                pv = 2.0 * vals - t_4h
            vals = None
    return pv


def cauchy_family(sc: SampledCurve, values, levels=()):
    """Principal values of a stack of functions and the T_eps table of its
    first function at the given levels, from one evaluator pass.

    Returns (pv, table): pv has shape (F, n), the Richardson value
    2 T_2h - T_4h; table has shape (K, n) for the K levels, the first
    function's rows (the other functions' rows are dropped as the pass
    yields them).  A level with the window of 2h or 4h serves for the pv,
    so those windows are only added to the pass when no level has them.
    """
    levels = list(levels)
    table = np.empty((len(levels), sc.n), dtype=complex)

    def take(w, vals):
        table[w] = vals[0]

    return _richardson_pass(sc, values, levels, take), table


def cauchy_maximal_family(sc: SampledCurve, values, levels):
    """Principal values and the maximal transform over the levels of a
    stack of functions, from one evaluator pass.

    Returns (pv, t_star), both of shape (F, n): the pv of cauchy_family
    and the sup over the levels of |T_eps f|, the running max of
    maximal_of.  Each window joins them as the pass yields it, so no
    table of the levels is kept; levels must not be empty.
    """
    sup = None

    def take(w, vals):
        nonlocal sup
        if sup is None:
            sup = np.abs(vals)
        else:
            np.maximum(sup, np.abs(vals), out=sup)

    pv = _richardson_pass(sc, values, list(levels), take)
    return pv, sup


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
    """Interior half-widths of the proper dyadic parametric balls, eps < T/2.
    The ball at eps = T/2 is the whole curve, whose average the maximal
    function starts from."""
    return [_window_split(eps, sc.spacing, sc.n)[0]
            for _, eps in dyadic_levels(sc, 1)[1:]]


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
