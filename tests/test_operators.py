"""Tests for the discrete transforms and maximal operators."""

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from cauchylab import curves, curvespec, harness, operators
from cauchylab.errors import DomainError, ResolutionError
from cauchylab.operators import dyadic_levels


@pytest.fixture(scope="module")
def circle_sc():
    return curves.arclength_sample(curves.circle(1.0), 4096)


@pytest.fixture(scope="module")
def one(circle_sc):
    return np.ones(circle_sc.n, dtype=complex)


# -- function stacks and truncation levels ---------------------------------------

def test_family_rejects_wrong_length_and_nonfinite_values(circle_sc):
    # every Cauchy sum passes this check: a row of the wrong length, a
    # stack of the wrong rank and an infinite value are refused
    eps = [4.0 * circle_sc.spacing]
    with pytest.raises(DomainError):
        operators.truncated_cauchy_family(circle_sc, np.ones((1, 7)), eps)
    with pytest.raises(DomainError):
        operators.truncated_cauchy_family(circle_sc, np.ones(circle_sc.n), eps)
    bad = np.ones((1, circle_sc.n))
    bad[0, 3] = np.inf
    with pytest.raises(DomainError):
        operators.truncated_cauchy_family(circle_sc, bad, eps)


def test_family_accepts_strided_column(circle_sc):
    # a column of a C-ordered (n, 2) array has a non-contiguous last axis;
    # it gives the bits of a contiguous row, and a NaN in it is refused
    eps = [4.0 * circle_sc.spacing]
    cols = np.ones((circle_sc.n, 2), dtype=complex)
    got = operators.truncated_cauchy_family(circle_sc, [cols[:, 0]], eps)
    ref = operators.truncated_cauchy_family(circle_sc, [np.ones(circle_sc.n)], eps)
    assert np.array_equal(got, ref)
    cols[5, 0] = complex(1.0, np.nan)
    with pytest.raises(DomainError):
        operators.truncated_cauchy_family(circle_sc, [cols[:, 0]], eps)


def test_truncation_spec_clamps(circle_sc):
    # a k_max past the floor is cut at 2^11 = n/2 cells
    levels = dyadic_levels(circle_sc, 4, 99)
    assert [k for k, _ in levels] == list(range(4, 12))
    eps = [e for _, e in levels]
    assert all(a > b for a, b in zip(eps[:-1], eps[1:]))
    assert eps[-1] >= 2.0 * circle_sc.spacing


def test_truncation_spec_rejects_empty(circle_sc):
    # a range wholly past the floor, and an empty range
    with pytest.raises(DomainError):
        dyadic_levels(circle_sc, 13, 14)
    with pytest.raises(DomainError):
        dyadic_levels(circle_sc, 5, 4)


def test_dyadic_levels_stop_at_the_two_cell_floor():
    # every level the evaluator accepts and not one more, on every grid of
    # 16..4100 nodes of each shipped curve's period
    specs = Path(__file__).resolve().parent.parent / "specs"
    periods = [curves.arclength_sample(curvespec.build_from_document(
        curvespec.parse_spec(path.read_text())), 16).period
        for path in sorted(specs.glob("*.cspec"))]
    assert len(periods) >= 4
    for period in periods:
        for n in range(16, 4101):
            # the levels and the floor read only n and the period
            sc = curves.SampledCurve(n=n, period=period, params=None,
                                     points=None, tangents=None, weights=None)
            levels = dyadic_levels(sc, 1)
            assert [k for k, _ in levels] == list(range(1, len(levels) + 1))
            for k, eps in levels:
                assert eps == period * 2.0 ** (-k)
                operators._check_eps(sc, eps)
            deeper = len(levels) + 1
            with pytest.raises(ResolutionError):
                operators._check_eps(sc, period * 2.0 ** (-deeper))
            with pytest.raises(ResolutionError):
                operators._check_eps(sc, 2.0 * sc.spacing * (1.0 - 1e-14))
            with pytest.raises(DomainError):
                dyadic_levels(sc, deeper)


# -- truncated transform --------------------------------------------------------

def test_truncated_cauchy_circle_closed_form(one, circle_sc):
    # T_eps 1 = 1 - eps/pi via the log antiderivative over the kept arc
    for k in [3, 5, 7, 9]:
        eps = circle_sc.period * 2.0 ** (-k)
        for z in [0, 1234]:
            got = oracles.truncated_cauchy(circle_sc, one, z, eps)
            assert abs(got - (1.0 - eps / math.pi)) < 1e-6


def test_truncated_cauchy_zero_function(circle_sc):
    zero = np.zeros(circle_sc.n, dtype=complex)
    assert oracles.truncated_cauchy(circle_sc, zero, 5, 0.3) == 0.0


def test_truncated_cauchy_mpmath_oracle(circle_sc):
    # same-node summation oracle at 80 significant digits
    import mpmath

    mpmath.mp.dps = 80
    sc = circle_sc
    eps = math.pi
    got = oracles.truncated_cauchy(sc, sc.points, 0, eps)  # f(w) = w

    n, h = sc.n, sc.spacing
    inner = round(eps / h) - 1
    z = mpmath.mpc(1, 0)
    total = mpmath.mpc(0, 0)
    for j in range(n):
        d = min(j, n - j)
        if d <= inner or j == 0:
            continue
        scale = mpmath.mpf(1) if d > inner + 1 else mpmath.mpf("0.5")
        tau = mpmath.mpf(2) * mpmath.pi * j / n
        w = mpmath.e ** (1j * tau)
        tangent = 1j * w  # unit tangent of the unit circle
        weight = mpmath.mpf(2) * mpmath.pi / n
        total += scale * w * tangent * weight / (w - z)
    expected = total / (1j * mpmath.pi)
    assert abs(got - complex(expected)) < 1e-13


def test_truncated_cauchy_floor(one, circle_sc):
    with pytest.raises(ResolutionError):
        oracles.truncated_cauchy(circle_sc, one, 0, 0.5 * circle_sc.spacing)


def test_linearity_exact(circle_sc):
    rng = np.random.default_rng(3)
    fa = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    fb = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    a, b = 2.5 - 1j, -0.75 + 0.25j
    lhs = oracles.truncated_cauchy(circle_sc, a * fa + b * fb, 17, 0.3)
    rhs = a * oracles.truncated_cauchy(circle_sc, fa, 17, 0.3) \
        + b * oracles.truncated_cauchy(circle_sc, fb, 17, 0.3)
    assert abs(lhs - rhs) < 1e-12


# -- principal value --------------------------------------------------------------

def test_pv_identity_on_circle(circle_sc, one):
    got = oracles.pv_cauchy(circle_sc, one, 100)
    assert abs(got - 1.0) < 5e-3


def test_pv_identity_on_smooth_curves():
    for p in [curves.ellipse(2.0, 1.0), curves.graph_closure([0.3, 0.05])]:
        sc = curves.arclength_sample(p, 2048)
        vals = operators.pv_cauchy_all(sc, np.ones(sc.n))
        assert np.max(np.abs(vals - 1.0)) < 5e-3


def test_pv_zero(circle_sc):
    zero = np.zeros(circle_sc.n, dtype=complex)
    assert oracles.pv_cauchy(circle_sc, zero, 9) == 0.0


def test_pv_grid_doubling_oracle():
    # f(w) = w at a fixed point, against the n -> 2n extrapolated reference
    vals = {}
    for n in [1024, 2048, 4096]:
        sc = curves.arclength_sample(curves.circle(1.0), n)
        vals[n] = oracles.pv_cauchy(sc, sc.points, 0)
    extrap = 2.0 * vals[4096] - vals[2048]
    assert abs(vals[1024] - extrap) < 1e-3


def test_pv_all_matches_single(circle_sc, one):
    allv = operators.pv_cauchy_all(circle_sc, one)
    for i in [0, 77, 2048, 4095]:
        assert abs(allv[i] - oracles.pv_cauchy(circle_sc, one, i)) < 1e-13


def test_family_bits_independent_of_window_order_and_layout(circle_sc):
    # windows that share a cut share one set of sums, and the stack is
    # copied into the evaluator's own layout: neither the order of the
    # windows, nor repeats among them, nor the memory order of the values
    # moves a bit
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(3, circle_sc.n)) + 1j * rng.normal(size=(3, circle_sc.n))
    h, period = circle_sc.spacing, circle_sc.period
    eps = [2.0 * h, 4.0 * h, period / 8.0, period / 2.0, 2.5 * h]
    ref = operators.truncated_cauchy_family(circle_sc, vals, eps)
    perm = [3, 0, 4, 1, 2, 0]
    alt = operators.truncated_cauchy_family(
        circle_sc, np.asfortranarray(vals), [eps[i] for i in perm])
    assert np.array_equal(alt, ref[:, perm])


def _edge_windows(sc):
    """On-grid (half-weight boundary) and off-grid windows, in units of h,
    around the tile width and the antipode."""
    n, h = sc.n, sc.spacing
    on_grid = [2, 3, 4, 63, 64, 65, 66, 128, n // 4, (n - 1) // 2]
    off_grid = [2.5, 30.3, n / 2.0 - 0.5]
    eps = sorted({k * h for k in on_grid + off_grid if 2 <= k < n / 2.0})
    return eps + [sc.period / 2.0]  # the antipode, on the grid when n is even


@pytest.mark.parametrize("n", [1000, 1001, 96, 130, 16, 17, 33, 63])
def test_family_edges_match_single_node_oracle(n):
    # odd n, n off the tile size, and small n where every cut lies within
    # one tile of the antipode; below one tile (n < 64) a head's columns
    # wrap onto the same node twice, and both terms must reach it
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), n)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    eps = _edge_windows(sc)
    if n <= 256:
        nodes = np.arange(n)
    else:
        nodes = np.unique(np.concatenate([
            [0, 1, 62, 63, 64, 65, 127, 128, n // 2 - 1, n // 2, n // 2 + 1,
             n - 66, n - 65, n - 64, n - 2, n - 1], rng.integers(0, n, 8)]))
    got = operators.truncated_cauchy_family(sc, vals, eps)[:, :, nodes]
    ref = np.array([[[oracles.truncated_cauchy(sc, v, i, e)
                      for i in nodes] for e in eps] for v in vals])
    scale = np.abs(ref).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("f", [1, 5])
@pytest.mark.parametrize("n", [16, 17, 33, 1001, 2048])
def test_boundary_terms_have_the_gathered_bits(monkeypatch, n, f):
    # each edged cut divides once and takes its behind terms from the
    # ahead diagonal by antisymmetry; the pass keeps the bits it has when
    # each edge is gathered and divided on its own, on- and off-grid
    # windows alike, the antipode's among them
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), n)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(f, n)) + 1j * rng.normal(size=(f, n))
    eps = _edge_windows(sc)
    got = operators.truncated_cauchy_family(sc, vals, eps)
    monkeypatch.setattr(operators, "_offset_terms", oracles.gathered_offset_terms)
    assert np.array_equal(got, operators.truncated_cauchy_family(sc, vals, eps))


def test_family_of_one_matches_family_of_two(square_family):
    sc, vals = square_family
    eps = _edge_windows(sc)
    one = operators.truncated_cauchy_family(sc, vals[:1], eps)[0]
    two = operators.truncated_cauchy_family(sc, vals[:2], eps)[0]
    scale = np.abs(one).max(axis=-1, keepdims=True)
    assert np.all(np.abs(one - two) <= 1e-13 * scale)


def test_one_pass_builds_half_the_kernel(monkeypatch):
    # each entry 1/(z_j - z_i) is built once for both nodes: n^2 / 2 plus
    # one tile of columns per tile of rows; the two workers together build
    # every tile's kernel exactly once, a ragged last tile included.  The
    # heads sweep builds the head entries again: one _TILE x _TILE block
    # per tile and distinct cut, _TILE entries per row and cut.  Band tiles
    # are the builder's calls from column offset 0, heads chunks the rest
    built, heads = [], []
    kernel_blocks = operators._kernel_blocks

    def counting(z_ext, start, count, first, *args):
        kern = kernel_blocks(z_ext, start, count, first, *args)
        (heads if first else built).append(kern.size)
        return kern

    monkeypatch.setattr(operators, "_kernel_blocks", counting)
    # the levels' distinct cuts below the antipode: at 2048 eps = T/2 is
    # the antipode's own window and 2h, 4h are levels; at 1001 neither
    for n, cuts in ((2048, 9), (1001, 10)):
        built.clear()
        heads.clear()
        sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), n)
        operators.cauchy_family(sc, np.ones((1, sc.n)),
                                [eps for _, eps in dyadic_levels(sc, 1)])
        tiles = math.ceil(n / operators._TILE)
        assert len(built) == tiles, n
        assert sum(heads) == cuts * tiles * operators._TILE ** 2, n
        if n == 2048:
            assert 0 < sum(built) <= 0.55 * sc.n ** 2


@pytest.mark.parametrize("n", [130, 1001, 1024])
def test_head_blocks_are_band_kernel_columns_bit_for_bit(n):
    # a heads chunk's block t is columns c + 1..c + _TILE of tile t's band
    # kernel with the entries at offsets up to c zeroed, and the band
    # kernel is 1/(z_j - z_i) entry by entry.  Odd and even n; 130 and 1001
    # end on a ragged tile; the cuts from reach - _TILE + 1 on also take
    # the band's far mask (offsets past reach)
    sc = curves.arclength_sample(curves.build_spiral(3), n)
    tile = operators._TILE
    reach = (n - 1) // 2
    width = reach + tile + 1
    z_ext = sc.points[np.arange(n + width) % n]
    tiles = -(-n // tile)
    band = [operators._kernel_blocks(z_ext, t * tile, 1, 0, width, 0, reach,
                                     np.empty((1, tile, width), complex))[0]
            for t in range(tiles)]
    rows, cols = np.arange(tile)[:, None], np.arange(width)
    inside = (cols - rows >= 1) & (cols - rows <= reach)
    for t, kern in enumerate(band):
        with np.errstate(divide="ignore", invalid="ignore"):  # offset 0
            direct = 1.0 / (z_ext[t * tile + cols] - z_ext[t * tile + rows])
        assert kern.tobytes() == np.where(inside, direct, 0.0).tobytes()
    far = 0
    for c in sorted({0, 1, 7, 63, 64, reach - 64, reach - 40, reach - 1, reach}):
        heads = operators._kernel_blocks(z_ext, 0, tiles, c + 1, tile, c, reach,
                                         np.empty((tiles, tile, tile), complex))
        offset = c + 1 + np.arange(tile) - rows
        for t, kern in enumerate(band):
            want = np.where(offset > c, kern[:, c + 1:c + 1 + tile], 0.0)
            assert heads[t].tobytes() == want.tobytes(), (c, t)
        far += np.count_nonzero(offset > reach)
        assert not np.any(heads[:, offset > reach])
        assert np.all(heads[:, (offset > c) & (offset <= reach)] != 0.0)
    assert far > 0


@pytest.fixture(scope="module")
def square_family():
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 2048)
    rng = np.random.default_rng(21)
    vals = rng.normal(size=(15, sc.n)) + 1j * rng.normal(size=(15, sc.n))
    return sc, vals


def test_pass_memory_does_not_grow_with_windows(square_family):
    # the result is the only per-window storage, one slot per window, but
    # for the band tiles' row sums (F x 64 per cut): the rest of a pass's
    # traced peak is the same for 2 windows and for 12 (10 distinct cuts),
    # within half a slab of F x n complex values.  A
    # list of F arrays, which the pass stacks, costs no more than the
    # stack: the pass keeps one copy of the values, in its own layout.  The
    # two threads' short-lived ufunc buffers (a few hundred kB) meet or
    # miss each other by timing, so each case takes its least of 3 passes
    sc, vals = square_family
    h = sc.spacing
    slab = vals.shape[0] * sc.n * np.dtype(complex).itemsize
    levels = [eps for _, eps in dyadic_levels(sc, 1)]
    extra = []
    for values in (vals, list(vals)):
        for eps in ([2.0 * h, 4.0 * h], [2.0 * h, 4.0 * h] + levels):
            peaks = []
            for _ in range(3):
                tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    out = operators.truncated_cauchy_family(sc, values, eps)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base
                                 - out.nbytes)
                finally:
                    tracemalloc.stop()
                del out
            extra.append(min(peaks))
    assert max(extra) - min(extra) <= 0.5 * slab, [e / slab for e in extra]


def test_cotlar_pass_asks_for_each_window_once(monkeypatch):
    # the cotlar levels end at 4h and 2h on a power-of-two grid, so the
    # family pass takes the Richardson windows from them and adds none
    windows = []
    family = operators.truncated_cauchy_family

    def counting(sc, values, eps_list):
        windows.append((sc.n, len(eps_list)))
        return family(sc, values, eps_list)

    monkeypatch.setattr(operators, "truncated_cauchy_family", counting)
    harness.cotlar_ratio_scan(curves.polygon([0, 1, 1 + 1j, 1j]),
                              (1024, 2048), ("trig:1",))
    assert windows == [(1024, 9), (2048, 10)]


@pytest.mark.parametrize("n", [2048, 3000])
def test_cauchy_family_bits_equal_the_prepended_floor_windows(n):
    # reading 2h and 4h from the levels that hold them gives the bits of a
    # pass with (2h, 4h) put before the levels, for levels that end at the
    # floor, that stop short of it, and (n = 3000) that end above 2h
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), n)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    h = sc.spacing
    levels = [eps for _, eps in dyadic_levels(sc, 1)]
    for lv in (levels, levels[:6], []):
        pv, table = operators.cauchy_family(sc, vals, lv)
        ref = operators.truncated_cauchy_family(sc, vals, [2.0 * h, 4.0 * h] + lv)
        assert pv.tobytes() == (2.0 * ref[:, 0] - ref[:, 1]).tobytes()
        assert table.shape == ref[:, 2:].shape
        assert table.tobytes() == ref[:, 2:].tobytes()


def test_family_matches_single_calls(square_family):
    # matrix-matrix and matrix-vector products round differently, so the
    # family and a family of one agree to 1e-13, not bitwise
    sc, vals = square_family
    levels = dyadic_levels(sc, 1)
    pvs, tables = operators.cauchy_family(sc, vals, [eps for _, eps in levels])
    t_stars = operators.maximal_of(tables)
    for f_vals, pv, table, t_star in list(zip(vals, pvs, tables, t_stars))[::4]:
        single = operators.pv_cauchy_all(sc, f_vals)
        assert np.max(np.abs(pv - single)) <= 1e-13 * np.max(np.abs(single))
        by_k = operators.truncated_cauchy_all(sc, f_vals, levels)
        for (k, _), row in zip(levels, table):
            assert np.max(np.abs(row - by_k[k])) <= \
                1e-13 * np.max(np.abs(by_k[k]))
        t_single, _ = operators.maximal_cauchy_all(sc, f_vals, levels)
        assert np.max(np.abs(t_star - t_single)) <= 1e-13 * np.max(t_single)


_FAMILY_DIGEST = """
import hashlib, sys
import numpy as np
from cauchylab import curves, operators
n, F = int(sys.argv[1]), int(sys.argv[2])
sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), n)
rng = np.random.default_rng(21)
vals = rng.normal(size=(F, sc.n)) + 1j * rng.normal(size=(F, sc.n))
levels = operators.dyadic_levels(sc, 1)
pv, table = operators.cauchy_family(sc, vals, [eps for _, eps in levels])
sys.stdout.write(hashlib.sha256(pv.tobytes() + table.tobytes()).hexdigest())
"""


def test_concurrent_calls_give_serial_bits(square_family):
    # each call owns its kernel-building helper: three callers at once (six
    # threads on a two-core box) get the bits of serial calls, and every
    # helper is joined before its call returns
    sc, vals = square_family
    eps = [eps for _, eps in dyadic_levels(sc, 1)]
    stacks = (vals[:3], vals[3:8], vals[8:])
    serial = [operators.truncated_cauchy_family(sc, v, eps) for v in stacks]
    start = threading.active_count()
    got = [None] * len(stacks)

    def call(i):
        got[i] = operators.truncated_cauchy_family(sc, stacks[i], eps)

    callers = [threading.Thread(target=call, args=(i,))
               for i in range(len(stacks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == start
    for ref, out in zip(serial, got):
        assert out is not None and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("schedule", ["caller", "helper"])
def test_family_bits_independent_of_schedule(monkeypatch, schedule):
    # only the calling thread adds results, in task order: with every task
    # on the calling thread, or every task the helper can take on the
    # helper, each pass gives the bits of the default schedule
    cases = []
    for n in (16, 63, 1001, 2048, 8192):
        sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), n)
        levels = [eps for _, eps in dyadic_levels(sc, 1)]
        for f in (1, 2, 15):
            rng = np.random.default_rng(n + f)
            cases.append((sc, rng.normal(size=(f, n))
                          + 1j * rng.normal(size=(f, n)), levels))

    def digests():
        return [hashlib.sha256(operators.truncated_cauchy_family(
            sc, vals, levels).tobytes()).hexdigest()
            for sc, vals, levels in cases]

    want = digests()
    oracles.patch_schedule(monkeypatch, schedule)
    caller = threading.get_ident()
    builders = set()
    kernel_blocks = operators._kernel_blocks

    def tracked(*args, **kwargs):
        builders.add(threading.get_ident() == caller)
        return kernel_blocks(*args, **kwargs)

    monkeypatch.setattr(operators, "_kernel_blocks", tracked)
    assert digests() == want
    assert builders == {schedule == "caller"}


def _src_env(**variables):
    """The environment with this checkout's src first on PYTHONPATH, no
    OPENBLAS_NUM_THREADS, then the given variables."""
    src = str(Path(operators.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(variables)
    return env


def test_import_defaults_to_one_blas_thread():
    # importing cauchylab before numpy sets one OpenBLAS thread unless the
    # user chose a count, which the digest test below relies on
    show = "import os, cauchylab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for given, left in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")):
        proc = subprocess.run([sys.executable, "-c", show],
                              env=_src_env(**given), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == left


def _numpy_openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, None when neither
    its library nor its getter is found."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def test_tests_run_with_one_blas_thread():
    # conftest.py imports cauchylab before numpy, so this process runs the
    # one OpenBLAS thread the command line gets, whatever the core count
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("OPENBLAS_NUM_THREADS set to another count")
    threads = _numpy_openblas_threads()
    if threads is None:
        pytest.skip("numpy's OpenBLAS thread getter not found")
    assert threads == 1


def test_family_bits_independent_of_blas_threads(square_family):
    # 2048 x 15 has power-of-two shapes; at 3000 x 7 the evaluator gave
    # other bits under one and two OpenBLAS threads until every BLAS
    # reduction was cut to a multiple of 8 terms
    sc, vals = square_family
    pv, table = operators.cauchy_family(
        sc, vals, [eps for _, eps in dyadic_levels(sc, 1)])
    in_process = hashlib.sha256(pv.tobytes() + table.tobytes()).hexdigest()
    for n, F in ((2048, 15), (3000, 7)):
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _FAMILY_DIGEST, str(n), str(F)],
                env=_src_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        if n == sc.n:
            digests.append(in_process)
        assert digests[1:] == digests[:1] * (len(digests) - 1), (n, F)


def test_half_period_level_sums_its_outside_set(square_family):
    # at eps = T/2 only the antipode is kept, so the level is one small
    # term; it must not come out of a near-cancelling difference
    sc, vals = square_family
    levels = dyadic_levels(sc, 1, 2)
    table = operators.truncated_cauchy_all(sc, vals[0], levels)
    for i in [0, 5, 700, 1500, 2047]:
        ref = oracles.truncated_cauchy(sc, vals[0], i, sc.period / 2.0)
        assert abs(table[1][i] - ref) <= 1e-13 * abs(ref)
    chi = (np.arange(sc.n) < sc.n // 8).astype(complex)
    table = operators.truncated_cauchy_all(sc, chi, levels)
    antipode_outside = (np.arange(sc.n) + sc.n // 2) % sc.n >= sc.n // 8
    assert np.all(table[1][antipode_outside] == 0.0)


def _dilated(p, j):
    """The curve 2^j p, at unit speed: period 2^j T, point 2^j p(s / 2^j)."""
    scale = 2.0 ** j
    return curves.Parametrization(period=scale * p.period,
                                  point=lambda s: scale * p.point(s / scale),
                                  kind=p.kind)


def _rotated(p):
    """The curve i p, at unit speed."""
    return curves.Parametrization(period=p.period,
                                  point=lambda s: 1j * p.point(s), kind=p.kind)


@pytest.fixture(scope="module")
def transpose_curves():
    hexagon = [complex(math.cos(a), math.sin(a))
               for a in np.arange(6) * math.pi / 3.0]
    square = curves.polygon([0, 1, 1 + 1j, 1j])
    spiral = curves.build_spiral(3)
    return {"circle": curves.circle(1.0),
            "square": square,
            "hexagon": curves.polygon(hexagon),
            "spiral": spiral,
            "square-dilated": _dilated(square, 3),
            "spiral-rotated": _rotated(spiral)}


@pytest.mark.parametrize("n", [1001, 2048, 3000])
@pytest.mark.parametrize("name", ["circle", "square", "hexagon", "spiral",
                                  "square-dilated", "spiral-rotated"])
def test_richardson_pv_is_antisymmetric(transpose_curves, name, n):
    # A = 2 T_2h - T_4h weights each pair of nodes by its index distance
    # and its kernel is antisymmetric, so sum (A u) v mu = -sum u (A v) mu
    # for the node measure mu; every path of the evaluator (ahead and
    # behind sums, heads, bands, antipode, half-weight edges) enters it,
    # on the shipped shapes and on a dilated and a rotated copy
    sc = curves.arclength_sample(transpose_curves[name], n)
    phase = 2.0 * math.pi * sc.params / sc.period
    trig = [np.exp(1j * k * phase) for k in (1, -1, 3, -3)]
    arc = (np.abs(sc.params - 0.3 * sc.period) < sc.period / 16.0)
    kernels = [operators.truncated_kernel(sc, z, eps) for z, eps in
               ((0, sc.period / 8.0), (n // 3, 5.0 * sc.spacing))]
    stack = np.array(trig + [arc.astype(complex)] + kernels)
    pv, _ = operators.cauchy_family(sc, stack)
    mu = operators._unit_measure(sc)
    pairs = pv @ (stack * mu).T  # [a, b] = sum (A u_a) u_b mu
    scale = np.abs(pv) @ np.abs(stack * mu).T
    assert np.all(np.abs(pairs + pairs.T) <= 1e-14 * (scale + scale.T))


# -- principal values against the Plemelj formulae ---------------------------------

def _plemelj_errors(p, n, poles, coeffs):
    """|PV - T f| at every node for the Plemelj pair of the poles, with f."""
    sc = curves.arclength_sample(p, n)
    f, exact = oracles.plemelj_pair(sc, poles, coeffs)
    pv, _ = operators.cauchy_family(sc, f[None])
    return sc, np.abs(pv[0] - exact), f


@pytest.mark.parametrize("curve, poles, coeffs, const, order", [
    # max |PV - T f| / max |f| measured at n = 1024, 2048, 4096:
    # 1.76e-6, 2.21e-7, 2.76e-8 (order 3.0)
    ("circle", [3.0], [1.0], 2.0e-6, 2.9),
    # 8.49e-5, 1.77e-5, 3.98e-6 (order 2.2)
    ("ellipse", [5.0], [1.0], 9.5e-5, 2.1),
    # a pole inside, T f = -f: 4.85e-5, 1.09e-5, 2.59e-6 (order 2.1)
    ("ellipse", [0.3], [1.0], 5.5e-5, 2.0),
    # both: 5.26e-5, 1.13e-5, 2.60e-6 (order 2.2)
    ("ellipse", [5.0, 0.3], [1.0, -0.5j], 6.0e-5, 2.0),
    # both, on the ellipse run clockwise, where T f = -f outside and
    # T f = f inside: the same errors
    ("mirrored ellipse", [5.0, 0.3], [1.0, -0.5j], 6.0e-5, 2.0),
    # the default graph closure: 7.09e-4, 2.05e-4, 5.36e-5 (order 1.9)
    ("graph-closure", [0.5 + 5j], [1.0], 8.0e-4, 1.8),
])
def test_richardson_pv_converges_to_plemelj_values(curve, poles, coeffs,
                                                   const, order):
    # boundary values of a rational function with poles off a smooth curve
    # have an exact principal value; the Richardson PV reaches it at order
    # h^2 or faster: error <= const * (1024 / n)^order
    ellipse = curves.ellipse(2.0, 1.0)
    p = {"circle": curves.circle(1.0), "ellipse": ellipse,
         "mirrored ellipse": curves.Parametrization(
             period=ellipse.period, point=lambda s: np.conj(ellipse.point(s)),
             kind="ellipse"),
         "graph-closure": curves.graph_closure([0.3, 0.05])}[curve]
    for n in (1024, 2048, 4096):
        _, err, f = _plemelj_errors(p, n, poles, coeffs)
        assert err.max() <= const * (1024 / n) ** order * np.abs(f).max()


def test_plemelj_square_corner_nodes_read_half():
    # known defect: at a corner of turning angle theta the grid PV is off
    # by theta/pi times f (the unit square: PV = f/2 where T f = f), and
    # refinement does not close the gap: relative errors at the four
    # corner nodes measured 0.4991-0.4995 at 1024 nodes, 0.4998-0.4999 at
    # 4096
    for n in (1024, 4096):
        sc, err, f = _plemelj_errors(curves.polygon([0, 1, 1 + 1j, 1j]), n,
                                     [2 + 2j], [1.0])
        corners = np.arange(4) * n // 4
        assert np.all(np.abs(err[corners] / np.abs(f[corners]) - 0.5) < 0.002)


def test_plemelj_spiral_apex_nodes_carry_the_worst_error():
    # known defect: on the depth-6 spiral the worst node sits within half
    # a cell of a smoothed corner apex, whose zone no grid here resolves;
    # max |PV - T f| / max |f| measured 0.368, 0.253 and 0.147 at 1024,
    # 2048 and 4096 nodes (0.11 at 16384, 0.092 at 65536)
    p = curves.build_spiral(6)
    apexes = np.array([curves.spiral_patch_param(p, j, t)
                       for j in range(1, 7) for t in (0.25, 0.5, 0.75)])
    pole = complex(np.mean(curves.arclength_sample(p, 1024).points)) + 10.0
    for n, size in ((1024, 0.368), (2048, 0.253), (4096, 0.147)):
        sc, err, f = _plemelj_errors(p, n, [pole], [1.0])
        worst = int(np.argmax(err))
        gap = np.abs(sc.params[worst] - apexes)
        assert np.min(np.minimum(gap, sc.period - gap)) <= 0.5 * sc.spacing
        assert err[worst] / np.abs(f).max() == pytest.approx(size, rel=0.02)


# -- maximal transform -------------------------------------------------------------

def test_maximal_cauchy_circle_constant(one, circle_sc):
    levels = dyadic_levels(circle_sc, 4, 9)
    got = oracles.maximal_cauchy(circle_sc, one, 3, levels)
    eps_min = circle_sc.period * 2.0 ** (-9)
    assert got.value == pytest.approx(1.0 - eps_min / math.pi, abs=1e-10)
    assert got.eps_argmax == pytest.approx(eps_min)


def test_maximal_c_zero(circle_sc):
    levels = dyadic_levels(circle_sc, 4, 9)
    zero = np.zeros(circle_sc.n, dtype=complex)
    assert oracles.maximal_cauchy(circle_sc, zero, 3, levels).value == 0.0


def test_maximal_grid_monotone(one, circle_sc):
    small = dyadic_levels(circle_sc, 5, 7)
    big = dyadic_levels(circle_sc, 4, 9)
    assert oracles.maximal_cauchy(circle_sc, one, 3, big).value >= \
        oracles.maximal_cauchy(circle_sc, one, 3, small).value


def test_maximal_argmax_scale_invariant(circle_sc):
    rng = np.random.default_rng(11)
    f = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    levels = dyadic_levels(circle_sc, 4, 9)
    base = oracles.maximal_cauchy(circle_sc, f, 99, levels)
    scaled = oracles.maximal_cauchy(circle_sc, 7.5 * f, 99, levels)
    assert scaled.eps_argmax == base.eps_argmax
    assert scaled.value == pytest.approx(7.5 * base.value, rel=1e-12)


def test_maximal_all_matches_single(circle_sc, one):
    levels = dyadic_levels(circle_sc, 4, 9)
    vals, args = operators.maximal_cauchy_all(circle_sc, one, levels)
    for i in [5, 999]:
        single = oracles.maximal_cauchy(circle_sc, one, i, levels)
        assert vals[i] == pytest.approx(single.value, abs=1e-13)
        assert args[i] == pytest.approx(single.eps_argmax)


def test_half_period_window_antipodal_half_weight(circle_sc):
    # at eps = T/2 on an even grid both boundary offsets are one node
    rng = np.random.default_rng(9)
    f = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    levels = dyadic_levels(circle_sc, 1, 3)
    table = operators.truncated_cauchy_all(circle_sc, f, levels)
    for i in [0, 41, 2048]:
        for k, eps in levels:
            single = oracles.truncated_cauchy(circle_sc, f, i, eps)
            assert abs(table[k][i] - single) < 1e-13


# -- Hardy-Littlewood maximal -------------------------------------------------------

def brute_hl(sc, values, i):
    n = sc.n
    offs = (np.arange(n) - i) % n
    dist = np.minimum(offs, n - offs)
    absv = np.abs(values)
    best = float(np.sum(absv * sc.weights) / np.sum(sc.weights))
    k = 1
    while True:
        r = sc.period * 2.0 ** (-k)
        if r < 2.0 * sc.spacing - 1e-12:
            break
        q = r / sc.spacing
        near = round(q)
        m = int(near) - 1 if abs(q - near) < 1e-9 else int(math.floor(q))
        m = max(m, 1)
        if m < (n - 1) // 2:
            mask = dist <= m
            best = max(best, float(np.sum(absv[mask] * sc.weights[mask])
                                   / np.sum(sc.weights[mask])))
        k += 1
    return best


def test_hl_constant(circle_sc):
    g = np.full(circle_sc.n, 3.0 - 4.0j)
    assert oracles.hl_maximal(circle_sc, g, 17) == pytest.approx(5.0, rel=1e-12)


def test_hl_ball_indicator_center():
    sc = curves.arclength_sample(curves.circle(1.0), 1024)
    r0 = sc.period * 2.0 ** (-4)
    dist = np.minimum(np.arange(sc.n), sc.n - np.arange(sc.n)) * sc.spacing
    ind = np.roll((dist < r0).astype(complex), 100)
    assert oracles.hl_maximal(sc, ind, 100) == pytest.approx(1.0, abs=1e-14)


def test_hl_arc_indicator_bounds():
    sc = curves.arclength_sample(curves.circle(1.0), 1024)
    r0 = sc.period / 32.0
    d = sc.period / 8.0
    prm = sc.params
    vals = (np.abs((prm - 0.0 + sc.period / 2) % sc.period - sc.period / 2) < r0)
    g = vals.astype(complex)
    i = int(round((d + 0.0) / sc.spacing))
    got = oracles.hl_maximal(sc, g, i)
    # sup over dyadic radii only: allow a factor-2 slack under the continuum
    # value 2 r0 / (2 (r0 + d)) attained at r = r0 + d
    assert 0.5 * r0 / (r0 + d) * 0.9 <= got <= 1.0
    assert got == pytest.approx(brute_hl(sc, g, i), abs=1e-13)


def test_hl_all_matches_brute(circle_sc):
    rng = np.random.default_rng(0)
    g = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    allv = operators.hl_maximal_all(circle_sc, g)
    for i in [0, 1, 511, 4095]:
        assert allv[i] == pytest.approx(brute_hl(circle_sc, g, i), abs=1e-12)


def test_hl_sublinear_and_homogeneous(circle_sc):
    rng = np.random.default_rng(2)
    a = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    b = rng.normal(size=circle_sc.n) + 1j * rng.normal(size=circle_sc.n)
    ma = operators.hl_maximal_all(circle_sc, a)
    mb = operators.hl_maximal_all(circle_sc, b)
    msum = operators.hl_maximal_all(circle_sc, a + b)
    assert np.all(msum <= ma + mb + 1e-12)
    mscaled = operators.hl_maximal_all(circle_sc, 3.0 * a)
    assert np.allclose(mscaled, 3.0 * ma, rtol=1e-11, atol=1e-11)


def test_m_chain_dominates_mean(circle_sc):
    # the full-curve ball is always among the candidates
    rng = np.random.default_rng(4)
    g = rng.normal(size=circle_sc.n).astype(complex)
    m1 = operators.hl_maximal_all(circle_sc, g)
    m2 = operators.hl_maximal_squared(circle_sc, g)
    mean = np.sum(np.abs(g) * circle_sc.weights) / circle_sc.period
    assert np.all(m1 >= mean - 1e-12)
    assert np.all(m2 >= mean - 1e-12)


def test_m2_dominates_m_on_smooth_data(circle_sc):
    # the pointwise chain M^2 g >= M g is a vanishing-ball statement; it
    # holds discretely once the data varies on resolved scales
    g = np.exp(2j * np.pi * 3 * circle_sc.params / circle_sc.period)
    m1 = operators.hl_maximal_all(circle_sc, g)
    m2 = operators.hl_maximal_squared(circle_sc, g)
    assert np.all(m2 >= m1 - 1e-6)


def test_m2_constant(circle_sc):
    m2 = operators.hl_maximal_squared(circle_sc, np.full(circle_sc.n, -2.0))
    assert np.max(np.abs(m2 - 2.0)) < 1e-11


def test_m2_brute_double_iteration():
    sc = curves.arclength_sample(curves.circle(1.0), 512)
    dist = np.minimum(np.arange(sc.n), sc.n - np.arange(sc.n)) * sc.spacing
    g = (dist < sc.period / 16).astype(complex)
    m2 = operators.hl_maximal_squared(sc, g)
    mid = sc.n // 2  # antipodal node
    once = np.array([brute_hl(sc, g, i) for i in range(sc.n)])
    twice = brute_hl(sc, once, mid)
    assert m2[mid] == pytest.approx(twice, abs=1e-12)


def test_hl_stack_matches_rows_bit_for_bit():
    # a (F, n) stack gives each row the bits of its own call, on an odd and
    # an even grid, with a zero row and an indicator among the rows
    for p, n in ((curves.circle(1.0), 1001),
                 (curves.polygon([0, 1, 1 + 1j, 1j]), 2048)):
        sc = curves.arclength_sample(p, n)
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        stack[1] = 0.0
        stack[2] = np.arange(n) < n // 8
        for op in (operators.hl_maximal_all, operators.hl_maximal_squared):
            got = op(sc, stack)
            assert got.shape == stack.shape
            for row, values in zip(got, stack):
                assert row.tobytes() == op(sc, values).tobytes()


@pytest.mark.parametrize("n", [16, 17, 33, 1001, 2048])
def test_hl_prefix_slices_have_the_index_array_bits(n):
    # each ball sum is a difference of two prefix-sum slices; it keeps the
    # bits of the same sums gathered by index arrays, for a row and a stack
    for p in (curves.circle(1.0), curves.polygon([0, 1, 1 + 1j, 1j])):
        sc = curves.arclength_sample(p, n)
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        stack[1] = np.arange(n) < n // 8
        for values in (stack, stack[0]):
            once = oracles.indexed_hl_maximal_all(sc, values)
            assert np.array_equal(operators.hl_maximal_all(sc, values), once)
            assert np.array_equal(operators.hl_maximal_squared(sc, values),
                                  oracles.indexed_hl_maximal_all(sc, once))


# -- kernel truncation transform ------------------------------------------------------

def test_kernel_transform_direct_oracle():
    sc = curves.arclength_sample(curves.circle(1.0), 512)
    eps = sc.period * 2.0 ** (-4)
    g = operators.kernel_truncation_transform(sc, 0, eps)

    # independent brute force: Richardson pv of the kernel by plain loops
    kernel = operators.truncated_kernel(sc, 0, eps)
    unit = sc.tangents / np.abs(sc.tangents)

    def brute_teps(i, level):
        total = 0.0 + 0.0j
        m = round(level / sc.spacing)
        for j in range(sc.n):
            d = min((j - i) % sc.n, (i - j) % sc.n)
            if j == i or d < m:
                continue
            scale = 0.5 if d == m else 1.0
            total += scale * kernel[j] * unit[j] * sc.weights[j] \
                / (sc.points[j] - sc.points[i])
        return total / (1j * math.pi)

    for i in [7, 130, 400]:
        ref = 2.0 * brute_teps(i, 2 * sc.spacing) - brute_teps(i, 4 * sc.spacing)
        assert abs(g[i] - ref) < 1e-13
        assert not operators._near_center(sc.n, 0)[i]


def test_kernel_transform_masks_near_center():
    sc = curves.arclength_sample(curves.circle(1.0), 512)
    eps = sc.period / 16
    near = operators._near_center(sc.n, 10)
    assert near[10] and near[11] and near[8]
    assert not near[14]
    assert list(np.flatnonzero(near)) == [8, 9, 10, 11, 12]
    assert list(np.flatnonzero(operators._near_center(sc.n, 0))) == [0, 1, 2, 510, 511]
    g = operators.kernel_truncation_transform(sc, 10, eps)
    assert np.all(g[near] == 0.0)
    kernel = operators.truncated_kernel(sc, 10, eps)
    pv, _ = operators.cauchy_family(sc, [kernel])
    filled = operators.kernel_transform_direct_fill(sc, kernel, 10, pv[0])
    assert np.all(np.isfinite(filled[near].view(float)))
    assert np.array_equal(filled[~near], g[~near])


def test_kernel_far_field_magnitude_bound():
    # |g(w)| <= (|F| + 4 L eps / |w-z|) / (pi^2 |w-z|) far from the center
    from cauchylab import geometry

    sc = curves.arclength_sample(curves.circle(1.0), 2048)
    eps = sc.period * 2.0 ** (-6)
    g = operators.kernel_truncation_transform(sc, 0, eps)
    L = math.pi / 2
    branch = geometry.branch_log(sc.source, 0.0, eps)
    dist = np.minimum(np.arange(sc.n), sc.n - np.arange(sc.n)) * sc.spacing
    far = (dist > 2 * L * L * eps) & ~operators._near_center(sc.n, 0)
    z = sc.points[0]
    r = np.abs(z - sc.points[far])
    bound = (abs(branch) + 4 * L * eps / r) / (math.pi ** 2 * r)
    assert np.all(np.abs(g[far]) <= bound + 1e-9)


def test_transform_csv_rows(circle_sc, one):
    rows = operators.transform_csv_rows(circle_sc, [("T_pv", "", one)])
    assert rows[0].startswith("0,0,T_pv,,1,")
    assert rows[5].startswith("5,")
    assert len(rows) == circle_sc.n


def test_transform_csv_rows_keep_table_order(circle_sc, one):
    # every row of the first quantity, then every row of the second
    n = circle_sc.n
    rows = operators.transform_csv_rows(
        circle_sc, [("T_eps", "T*2^-4", one), ("M", "", np.zeros(n))])
    assert len(rows) == 2 * n
    assert all(r.split(",")[2:4] == ["T_eps", "T*2^-4"] for r in rows[:n])
    assert all(r.split(",")[2:4] == ["M", ""] for r in rows[n:])
    assert [int(r.split(",", 1)[0]) for r in rows] == 2 * list(range(n))


def test_transform_write_memory_does_not_grow_with_entries(circle_sc, tmp_path):
    # transform.csv goes out one table entry at a time: the traced peak of
    # writing 13 entries exceeds that of 3 by less than one entry's text
    # (0.3 MB at n = 4096); a list of the rows, written by write_lines,
    # adds 11.8 MB
    n = circle_sc.n
    rng = np.random.default_rng(8)
    table = [("T_eps", f"T*2^-{k}", rng.normal(size=n) + 1j * rng.normal(size=n))
             for k in range(13)]
    block = len(next(operators.transform_csv_blocks(circle_sc, table)))
    peaks = []
    for entries in (table[:3], table):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            curves.write_text(tmp_path / "transform.csv",
                              operators.transform_csv_blocks(circle_sc, entries))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < block, (peaks, block)


def test_quadrature_convergence_constant_across_eps():
    # |T_eps f| at n and 2n differ by at most K/n with K stable across eps
    f_of = lambda sc: np.exp(2j * np.pi * 2 * sc.params / sc.period)
    diffs = {}
    for k in (4, 6):
        vals = {}
        for n in (512, 1024, 2048):
            sc = curves.arclength_sample(curves.circle(1.0), n)
            eps = sc.period * 2.0 ** (-k)
            vals[n] = oracles.truncated_cauchy(sc, f_of(sc), 0, eps)
        diffs[k] = [abs(vals[512] - vals[1024]) * 512,
                    abs(vals[1024] - vals[2048]) * 1024]
    ks = [d for pair in diffs.values() for d in pair]
    assert max(ks) <= 10.0 * max(min(ks), 1e-9) or max(ks) < 1e-6
