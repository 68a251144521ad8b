"""Verification scans tying the pieces together: the proof check (the
three-term splitting of the truncated transform and the far-field decay of
the kernel transform, from one evaluator pass), the |log eps|-weighted
boundedness criterion with its adversarial indicator family, the two-sided
second-difference comparison, and the maximal-ratio trend scan whose
verdict the criterion verdict must match."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import geometry
from .curves import SampledCurve, arclength_sample, spiral_corner_params
from .errors import DomainError, ResolutionError
from .operators import (
    _near_center,
    _unit_measure,
    cauchy_family,
    cauchy_maximal_family,
    dyadic_levels,
    hl_maximal_squared,
    kernel_transform_direct_fill,
    truncated_kernel,
)

__all__ = [
    "TestFunction",
    "ProofReport",
    "CriterionTable",
    "SandwichReport",
    "CotlarReport",
    "required_dilation",
    "adversarial_indicator",
    "deepest_exponent",
    "anchor_params",
    "tag_error",
    "make_test_functions",
    "default_scan_params",
    "proof_levels",
    "proof_check",
    "criterion_scan",
    "sandwich_check",
    "cotlar_ratio_scan",
    "classify_score_profile",
    "classify_ratio_trend",
    "verdicts_agree",
]

JUMP_GUARD_CELLS = 4.0
UNDERFLOW_FLOOR = 1e-14


def required_dilation(bilip: float) -> float:
    """Window dilation max(2L^2, L(L+1)) the splitting of T_eps f needs."""
    return max(2.0 * bilip ** 2, bilip * (bilip + 1.0))


def _window_margin(sc: SampledCurve, z_index: int, eps: float,
                   bilip: float) -> np.ndarray:
    """Parametric distance of every node from node z_index minus
    required_dilation(L) * eps: a float difference has the sign of the
    exact one, so > 0 is exactly dist > dilation * eps and < 0 exactly
    dist < it."""
    dist = _param_dist(sc.params, sc.params[z_index], sc.period)
    return dist - required_dilation(bilip) * eps


@dataclass(frozen=True)
class TestFunction:
    """One scan input: node values plus the parameters of its jumps."""

    tag: str
    values: np.ndarray
    jumps: tuple = ()


def _param_dist(params, x0, period):
    return np.abs((params - x0 + period / 2.0) % period - period / 2.0)


def adversarial_indicator(sc: SampledCurve, eps: float, n_exp: int,
                          sign: int = 1, anchor: float = 0.0) -> TestFunction:
    """Indicator of the one-sided parametric arc used as necessity witness.

    For eps < 1 the arc is (eps^n, eps) from the anchor; for eps >= 1 it is
    (eps^-n, eps), with n = n_exp.  Larger exponents deepen the arc toward
    the grid floor; deepest_exponent gives the deepest that fits.  The
    guard |log eps| < 1e-9 is absolute because eps = 1 makes eps^n = eps
    for every n, whatever the rounding.  An arc built from powers of an
    absolute length is a known scale defect: dilation can move a witness
    scale onto 1 (a known-defect test in tests/test_symmetry.py pins it).
    """
    if abs(math.log(eps)) < 1e-9:
        raise DomainError("arc scale eps = 1 makes the witness exponent degenerate")
    inner = eps ** n_exp if eps < 1.0 else eps ** (-n_exp)
    outer = eps
    rel = ((sc.params - anchor) % sc.period if sign >= 0
           else (anchor - sc.params) % sc.period)
    held = (rel > inner) & (rel < outer)
    if np.count_nonzero(held) < 4:
        raise ResolutionError(
            f"adversarial arc ({inner:.3g}, {outer:.3g}) has fewer than 4 grid "
            "nodes; the deepest exponent fitting this grid is "
            f"n = {deepest_exponent(sc, eps)}")
    values = held.astype(complex)
    jumps = ((anchor + (inner if sign >= 0 else -inner)) % sc.period,
             (anchor + (outer if sign >= 0 else -outer)) % sc.period)
    tag = f"adversarial:{eps:.6g}:{n_exp}:{'+' if sign >= 0 else '-'}@{anchor:.6g}"
    return TestFunction(tag=tag, values=values, jumps=jumps)


def deepest_exponent(sc: SampledCurve, eps: float) -> int:
    """Largest integer exponent keeping the arc's inner end 4 cells out."""
    target = 4.0 * sc.spacing
    if eps < 1.0:
        return max(1, int(math.floor(math.log(target) / math.log(eps))))
    return max(1, int(math.floor(math.log(1.0 / target) / math.log(eps))))


def anchor_params(p) -> tuple:
    """Landmark parameters where adversarial arcs anchor: polygon corners,
    the spiral focus, or the base point."""
    if "corners" in p.meta:
        return tuple(p.meta["corners"])
    if "focus_param" in p.meta:
        return (0.0, float(p.meta["focus_param"]))
    return (0.0,)


_FN_TAG_RE = re.compile(r"constant|adversarial|(trig|chi):([0-9]+)")


def tag_error(tag: str) -> str | None:
    """Why tag names no test function, or None; the spec parser asks it
    too.  The degree or count is ASCII digits of a value in 1..64."""
    m = _FN_TAG_RE.fullmatch(tag)
    if m is None:
        return (f"unknown test function tag {tag!r} "
                "(constant | trig:<deg> | chi:<count> | adversarial)")
    if m[2] is not None and not 1 <= int(m[2]) <= 64:
        return f"{tag!r}: the degree or count must lie in 1..64"
    return None


def make_test_functions(sc: SampledCurve, tags, seed: int = 0) -> tuple:
    """Materialize a list of test-function tags on a sampled grid.

    Adversarial tags contribute the transformed witnesses f = T(indicator)
    at anchor_params(sc.source): the necessity argument constrains the
    inequality through functions whose transform is the indicator, and the
    transform inverts itself on closed curves.  A witness scale with
    |log eps| < 1e-9 is the degenerate eps = 1 of adversarial_indicator,
    skipped (the guard is discussed there).
    """
    rng = np.random.default_rng(seed)
    period = sc.period
    out = []
    for tag in tags:
        error = tag_error(tag)
        if error:
            raise DomainError(error)
        kind, _, num = tag.partition(":")
        if kind == "constant":
            out.append(TestFunction("constant", np.ones(sc.n, dtype=complex)))
        elif kind == "trig":
            out.append(TestFunction(
                tag, np.exp(2j * math.pi * int(num) * sc.params / period)))
        elif kind == "chi":
            centers = np.sort(rng.uniform(0.0, period, int(num)))
            half = period / 16.0
            for c in centers:
                dist = _param_dist(sc.params, c, period)
                out.append(TestFunction(
                    f"chi@{c:.6g}", (dist < half).astype(complex),
                    jumps=((c - half) % period, (c + half) % period)))
        else:
            chis = []
            for anchor in anchor_params(sc.source)[:2]:  # symmetric landmarks add nothing
                for k_out in (1, 3):
                    eps = period * 2.0 ** (-k_out)
                    if abs(math.log(eps)) < 1e-9:
                        continue
                    n_exp = deepest_exponent(sc, eps)
                    for sign in (+1, -1):
                        try:
                            chis.append(adversarial_indicator(
                                sc, eps, n_exp=n_exp, sign=sign, anchor=anchor))
                        except ResolutionError:
                            continue
            if chis:
                witnesses, _ = cauchy_family(sc, [chi.values for chi in chis])
                out += [TestFunction("T*" + chi.tag, w, jumps=chi.jumps)
                        for chi, w in zip(chis, witnesses)]
    return tuple(out)


@dataclass(frozen=True)
class ProofReport:
    """The proof's splitting at one (node, eps): the terms of
    -T_eps f(z) = I + II + III with III = branch * IV + V and its residual,
    and the worst far-field ratio of g = T(K_{z,eps}) against its bound 4L."""

    z_index: int
    eps: float
    term_i: complex
    term_ii: complex
    term_iii: complex
    term_iv: complex
    term_v: complex
    branch_value: complex
    residual: float
    worst_ratio: float
    decay_bound: float
    far_nodes: int


def _level_error(sc: SampledCurve, eps: float, bilip: float):
    """The error proof_check raises for the level eps, or None when it
    takes it: eps must be >= 4h, so that the dilated window is resolved,
    and the dilated window required_dilation(L) * eps must stay below half
    the period."""
    # eps >= 4h exactly when eps / 2 is a level of dyadic_levels
    if eps / 2 not in {e for _, e in dyadic_levels(sc, 1)}:
        return ResolutionError("need a dyadic eps >= 4h so the dilated "
                               "window is resolved")
    window = required_dilation(bilip) * eps
    if not window < sc.period / 2.0:
        return DomainError(f"dilated window {window:.3g} "
                           "reaches half the period; lower eps")
    return None


def proof_levels(sc: SampledCurve, ks, bilip: float) -> tuple:
    """The levels (k, eps = period * 2^-k), k in ks, that proof_check takes."""
    levels = [(k, sc.period * 2.0 ** (-k)) for k in ks]
    return tuple((k, eps) for k, eps in levels
                 if _level_error(sc, eps, bilip) is None)


def proof_check(sc: SampledCurve, values, z_index: int, levels,
                bilip: float) -> tuple:
    """The proof's splitting of T_eps f at node z_index, one report per
    level eps (see proof_levels for the levels it takes).

    -T_eps f(z) = I + II + III is evaluated by quadrature, with III split
    further through the branch-log factor, and the far-field remainder
    pi^2 (z - w) g(w) - branch of the kernel transform is measured against
    its linear-in-eps decay bound 4L at the nodes w outside the dilated
    window and more than 2h from z.  One evaluator pass on
    [f, K_{z,eps_1}, ...] gives T f, every T_eps f(z) and every kernel
    transform g = T(K_{z,eps})."""
    levels = tuple(levels)
    for eps in levels:
        error = _level_error(sc, eps, bilip)
        if error is not None:
            raise error
    kernels = [truncated_kernel(sc, z_index, eps) for eps in levels]
    pvs, table = cauchy_family(sc, [values] + kernels, levels)
    tf = pvs[0]
    dw = _unit_measure(sc)
    mu = sc.weights
    z = sc.points[z_index]
    near = _near_center(sc.n, z_index)
    reports = []
    for row, (eps, kernel) in enumerate(zip(levels, kernels)):
        gvals = kernel_transform_direct_fill(sc, kernel, z_index, pvs[1 + row])
        margin = _window_margin(sc, z_index, eps, bilip)
        inball = margin < 0.0
        mean_ball = np.sum(gvals[inball] * mu[inball]) / np.sum(mu[inball])
        term_i = np.sum(tf[inball] * (gvals[inball] - mean_ball) * dw[inball])
        term_ii = mean_ball * np.sum(tf[inball] * dw[inball])
        out = ~inball
        term_iii = np.sum(tf[out] * gvals[out] * dw[out])
        residual = abs(table[row, z_index] + term_i + term_ii + term_iii)
        branch = geometry.branch_log(sc.source, float(sc.params[z_index]), eps)
        term_iv = np.sum(tf[out] / (z - sc.points[out]) * dw[out]) / math.pi ** 2
        far = (margin > 0.0) & ~near
        if not far.any():
            raise DomainError("dilated window swallowed the whole curve")
        dz = z - sc.points[far]
        ratio = np.abs(math.pi ** 2 * dz * gvals[far] - branch) * np.abs(dz) / eps
        reports.append(ProofReport(
            z_index=z_index, eps=eps, term_i=complex(term_i),
            term_ii=complex(term_ii), term_iii=complex(term_iii),
            term_iv=complex(term_iv),
            term_v=complex(term_iii - branch * term_iv), branch_value=branch,
            residual=float(residual), worst_ratio=float(ratio.max()),
            decay_bound=4.0 * bilip, far_nodes=int(far.sum())))
    return tuple(reports)


@dataclass(frozen=True)
class CriterionTable:
    """Scores |F| |log eps| on an (x, eps) grid, plus the trend verdict."""

    rows: tuple          # (x, eps, score, branch_ok)
    profile: tuple       # (eps, max score) by decreasing eps
    verdict: str


def _climbs(values) -> bool:
    """Whether the last three values each climb at least 10% over the one
    before, from a positive start."""
    tail = values[-3:]
    return len(tail) == 3 and all(b >= 1.10 * a > 0.0
                                  for a, b in zip(tail[:-1], tail[1:]))


def classify_score_profile(scores) -> str:
    """Trend verdict for a score profile ordered by decreasing scale.

    A tail of three levels each climbing at least 10% reads as unbounded;
    profiles that level off (nonincreasing lower half, or lower-half spread
    within a factor 3) read as bounded.
    """
    s = [float(v) for v in scores]
    if len(s) < 3:
        return "indeterminate"
    if _climbs(s):
        return "unbounded"
    lower = s[len(s) // 2:]
    if all(b <= a + 1e-12 for a, b in zip(lower[:-1], lower[1:])):
        return "bounded"
    if min(lower) > 0.0 and max(lower) / min(lower) <= 3.0:
        return "bounded"
    return "indeterminate"


def default_scan_params(p, count: int = 64) -> np.ndarray:
    """Uniform anchors plus curve landmarks (corners, focus offsets, and the
    smoothed-corner apexes of recursive curves)."""
    xs = [p.period * np.arange(count) / count]
    if "corners" in p.meta:
        xs.append(np.asarray(p.meta["corners"], dtype=float))
    if "focus_param" in p.meta:
        x0 = float(p.meta["focus_param"])
        offs = p.period * 2.0 ** (-np.arange(2.0, 15.0))
        xs.append(x0 + offs)
        xs.append(x0 - offs)
    if "depth" in p.meta:
        xs.append(np.asarray(spiral_corner_params(p), dtype=float))
    # sorted, equal neighbours dropped: np.unique's values, without the
    # numpy.ma import its first call makes
    x = np.sort(np.concatenate(xs) % p.period)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def criterion_scan(p, x_grid, eps_list) -> CriterionTable:
    """Tabulate |F(x, eps)| |log eps| over the grids, one curve pass per
    eps; ambiguous branches are marked rather than guessed."""
    xs = np.asarray(x_grid, dtype=float)
    rows = []
    profile = []
    for eps in sorted(eps_list, reverse=True):
        values, _ = geometry._branch_logs(p, xs, eps)
        scores = np.abs(values) * abs(math.log(eps))
        ok = ~np.isnan(scores)
        rows += [(float(x), eps, float(s), bool(o))
                 for x, s, o in zip(xs, scores, ok)]
        profile.append((eps, float(scores[ok].max(initial=0.0))))
    return CriterionTable(rows=tuple(rows), profile=tuple(profile),
                          verdict=classify_score_profile([v for _, v in profile]))


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided comparison of |F| against the scaled second difference."""

    worst_violation: float
    trivial_passes: int
    rows: tuple  # (x, eps, ratio_upper, ratio_lower)


def sandwich_check(p, x_grid, eps_list, bilip: float) -> SandwichReport:
    """Worst of |F| eps / (sqrt2 L |D2|) and |D2| / (sqrt2 L eps |F|) over
    the grids; points with second difference below 1e-14 pass trivially.
    That absolute floor is a known scale defect: it stands for the rounding
    of a straight stretch, a few ulps of coordinates of size about 1, so on
    a far smaller curve real second differences pass trivially, and on a
    far larger one rounding does not.
    """
    worst = 0.0
    trivial = 0
    rows = []
    c = math.sqrt(2.0) * bilip
    xs = np.asarray(x_grid, dtype=float)
    for eps in eps_list:
        d2 = geometry.second_difference(p, xs, eps)
        values, dist = geometry._branch_logs(p, xs, eps)
        for x, dd, val, zmin in zip(xs, d2, values, dist):
            if dd < 1e-14:
                trivial += 1
                continue
            if np.isnan(val):
                raise geometry._ambiguous(float(zmin))
            fval = abs(val)
            up = fval * eps / (c * dd)
            lo = dd / (c * eps * fval)
            rows.append((float(x), eps, up, lo))
            worst = max(worst, up, lo)
    return SandwichReport(worst_violation=worst, trivial_passes=trivial,
                          rows=tuple(rows))


@dataclass(frozen=True)
class CotlarRow:
    n: int
    tag: str
    sup_ratio: float
    arg_node: int
    arg_param: float
    flagged: int


@dataclass(frozen=True)
class CotlarReport:
    """Per-function and per-resolution ratio sups and the trend verdict;
    the per-node ratios behind each sup are not kept."""

    rows: tuple
    aggregate: tuple     # (n, sup over the family)
    verdict: str


def classify_ratio_trend(sups) -> str:
    s = [float(v) for v in sups]
    if _climbs(s):
        return "growing"
    if len(s) >= 2 and min(s) > 0.0 and (max(s) - min(s)) / min(s) < 0.25:
        return "stable"
    return "indeterminate"


def _cotlar_grid(p, n: int, tags, seed: int) -> tuple:
    """The cotlar rows of one resolution and their sup.  Nothing of the
    grid outlives the call, so the next grid's pass starts without it; the
    pass's windows join the running max as they come, and no (F, K, n)
    table is made."""
    sc = arclength_sample(p, n)
    levels = dyadic_levels(sc, 1)
    guard = JUMP_GUARD_CELLS * sc.spacing
    fam = make_test_functions(sc, tags, seed=seed)
    pvs, t_stars = cauchy_maximal_family(
        sc, [tf_fn.values for tf_fn in fam], [eps for _, eps in levels])
    m2s = hl_maximal_squared(sc, pvs)
    rows = []
    agg = 0.0
    for tf_fn, t_star, m2 in zip(fam, t_stars, m2s):
        ok = m2 > UNDERFLOW_FLOOR
        flagged = int(np.sum(~ok))
        for j in tf_fn.jumps:
            ok &= _param_dist(sc.params, j, sc.period) >= guard - 1e-12
        ratios = np.where(ok, t_star / np.maximum(m2, UNDERFLOW_FLOOR), 0.0)
        sup = float(ratios.max())
        # lowest-index node within 1e-12 relative of the sup: symmetric
        # curves tie many nodes to rounding, and a plain argmax among
        # them moves with the order of the evaluator's sums
        arg = int(np.argmax(ratios >= sup * (1.0 - 1e-12)))
        rows.append(CotlarRow(n=n, tag=tf_fn.tag, sup_ratio=sup, arg_node=arg,
                              arg_param=float(sc.params[arg]),
                              flagged=flagged))
        agg = max(agg, sup)
    return rows, agg


def cotlar_ratio_scan(p, resolutions, tags, seed: int = 0) -> CotlarReport:
    """Sup of T_* f / M^2(Tf) per test function and resolution.

    Ratio nodes exclude jump neighborhoods (4 grid cells) and flag
    underflowing denominators.  The guard's slack 1e-12 keeps a node 4
    cells out despite the rounding of parameter differences, a few ulps of
    the period; being absolute, it is a known scale defect for periods
    above about 1e3 or cells near 1e-12.  The verdict classifies the
    per-resolution family sups: bounded variation reads stable, a monotone
    >= 10% climb reads growing.
    """
    if len(resolutions) < 2:
        raise DomainError("trend analysis needs at least two resolutions")
    rows = []
    aggregate = []
    for n in resolutions:
        grid_rows, agg = _cotlar_grid(p, n, tags, seed)
        rows.extend(grid_rows)
        aggregate.append((n, agg))
    verdict = classify_ratio_trend([a for _, a in aggregate])
    return CotlarReport(rows=tuple(rows), aggregate=tuple(aggregate),
                        verdict=verdict)


def verdicts_agree(criterion_verdict: str, cotlar_verdict: str) -> bool:
    """The headline dichotomy: bounded scores must pair with stable ratios,
    unbounded scores with growing ratios."""
    pairs = {("bounded", "stable"), ("unbounded", "growing")}
    return (criterion_verdict, cotlar_verdict) in pairs
