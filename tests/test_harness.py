"""Tests for the verification scans."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from cauchylab import curves, curvespec, geometry, harness, operators
from cauchylab.errors import (BranchAmbiguityError, DomainError, ResolutionError,
                              ValidationError)


@pytest.fixture(scope="module")
def circle_bilip():
    sc = curves.arclength_sample(curves.circle(1.0), 1024)
    return sc, geometry.bilipschitz_constant(sc)


@pytest.fixture(scope="module")
def circle_eps0(circle_bilip):
    sc, bilip = circle_bilip
    return geometry.eps0_gate(sc, bilip)


# -- config --------------------------------------------------------------------

def test_config_for_curve_measures(circle_bilip, circle_eps0):
    _, bilip = circle_bilip
    assert bilip == pytest.approx(math.pi / 2, abs=1e-3)
    assert harness.required_dilation(bilip) >= 2.0 * bilip ** 2 - 1e-9
    assert circle_eps0 == pytest.approx(2 * math.pi / 16, rel=1e-12)


# -- adversarial indicators --------------------------------------------------

def test_adversarial_mass_matches_arc_length():
    sc = curves.arclength_sample(curves.circle(1.0), 2048)
    eps = 0.5
    tf = harness.adversarial_indicator(sc, eps, n_exp=2)
    mass = float(np.sum(tf.values.real * sc.weights))
    assert abs(mass - (eps - eps ** 2)) <= 1.5 * sc.spacing


def test_adversarial_log_integral_lower_bound():
    # |int gamma'(t)/gamma(t) dt| >= |log eps| over the witness arc, with
    # gamma(t) - gamma(0) in the denominator and gamma'(t) = i e^{it}, for
    # the arc scales and the exponent make_test_functions uses
    p = curves.circle(1.0)
    sc = curves.arclength_sample(p, 1024)
    for k_out in (1, 3):
        eps = p.period * 2.0 ** (-k_out)
        n_exp = harness.deepest_exponent(sc, eps)
        tf = harness.adversarial_indicator(sc, eps, n_exp)
        assert int(tf.tag.split(":")[2]) == n_exp
        lo, hi = (eps ** n_exp if eps < 1.0 else eps ** (-n_exp)), eps
        anchor_point = p.point(np.array([0.0]))[0]

        def dre(t):
            z = p.point(np.array([t]))[0] - anchor_point
            return (1j * np.exp(1j * t) / z).real

        def dim(t):
            z = p.point(np.array([t]))[0] - anchor_point
            return (1j * np.exp(1j * t) / z).imag

        re, _ = quad(dre, lo, hi, limit=300)
        im, _ = quad(dim, lo, hi, limit=300)
        assert abs(complex(re, im)) >= abs(math.log(eps))


def test_adversarial_inverse_exponent_branch():
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 1024)
    tf = harness.adversarial_indicator(sc, 2.0, n_exp=5, anchor=1.0)
    assert tf.values.sum() > 4
    lo = 2.0 ** (-5)
    assert tf.jumps[0] == pytest.approx((1.0 + lo) % 4.0)


def test_adversarial_empty_arc_error():
    sc = curves.arclength_sample(curves.circle(1.0), 64)
    with pytest.raises(ResolutionError) as err:
        harness.adversarial_indicator(sc, 0.25, n_exp=9)
    assert "n =" in str(err.value)


def test_adversarial_guard_counts_the_nodes_the_indicator_holds():
    # on the unit square at n = 64 (h = 1/16) the arc (h, 4h) spans 4
    # nodes counted with its ends, but the open arc holds only 2h and 3h
    sc = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 64)
    assert sc.spacing == 1.0 / 16
    with pytest.raises(ResolutionError):
        harness.adversarial_indicator(sc, 0.25, n_exp=2)
    # at n = 128 (h = 1/32) the same arc, (2h, 8h), holds 5 nodes
    fine = curves.arclength_sample(curves.polygon([0, 1, 1 + 1j, 1j]), 128)
    tf = harness.adversarial_indicator(fine, 0.25, n_exp=2)
    assert np.count_nonzero(tf.values) == 5


def test_adversarial_error_names_deepest_exponent():
    # the arc (eps^1, eps) is empty; the message must name the exponent
    # deepest_exponent gives, 12, and not 13, whose inner end lies 3.5
    # cells out, inside the 4-cell floor
    sc = curves.arclength_sample(curves.circle(1.0), 512)
    eps = sc.period / 8
    assert eps ** 13 < 4.0 * sc.spacing <= eps ** 12
    assert harness.deepest_exponent(sc, eps) == 12
    with pytest.raises(ResolutionError) as err:
        harness.adversarial_indicator(sc, eps, n_exp=1)
    assert str(err.value).endswith("n = 12")


def test_deepest_exponent_keeps_arc_on_grid():
    sc = curves.arclength_sample(curves.circle(1.0), 4096)
    for eps in [0.5, math.pi]:
        n_exp = harness.deepest_exponent(sc, eps)
        inner = eps ** n_exp if eps < 1 else eps ** (-n_exp)
        assert inner >= 4.0 * sc.spacing - 1e-12


def test_make_test_functions_tags():
    sc = curves.arclength_sample(curves.circle(1.0), 512)
    fam = harness.make_test_functions(sc, ("constant", "trig:2", "chi:3"), seed=1)
    tags = [t.tag for t in fam]
    assert tags[0] == "constant"
    assert tags[1] == "trig:2"
    assert sum(1 for t in tags if t.startswith("chi@")) == 3
    with pytest.raises(DomainError):
        harness.make_test_functions(sc, ("mystery",))


def test_library_and_parser_reject_the_same_tags():
    # one rule for both: a sign, a space, a non-ASCII digit or a value
    # outside 1..64 is no degree or count
    sc = curves.arclength_sample(curves.circle(1.0), 256)
    doc = curvespec.default_document()
    valid = {"constant", "adversarial", "trig:3", "trig:007", "chi:64"}
    tags = sorted(valid) + [
        "trig:+3", "chi:-3", "trig: 3", "trig:\u0663", "trig:0", "trig:65",
        "chi:0", "chi:1.5", "trig:", "trig", "chi:3:1", "Trig:3",
        "constant:1", "mystery"]
    got = {}
    for tag in tags:
        try:
            curvespec.apply_overrides(doc, [f"experiment.functions={tag}"])
            parsed = True
        except ValidationError:
            parsed = False
        try:
            harness.make_test_functions(sc, (tag,))
            built = True
        except DomainError:
            built = False
        got[tag] = (parsed, built)
    assert got == {tag: (tag in valid,) * 2 for tag in tags}


def test_adversarial_witnesses_are_the_ratio_scans():
    # the library call anchors its witnesses where the ratio scan does: at
    # the unit square's first two corners, 4 witnesses each
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    fam = harness.make_test_functions(curves.arclength_sample(p, 2048),
                                      ("adversarial",))
    rep = harness.cotlar_ratio_scan(p, (1024, 2048), tags=("adversarial",))
    assert len(fam) == 8
    assert [f.tag for f in fam] == [row.tag for row in rep.rows if row.n == 2048]


# -- proof check: decomposition ------------------------------------------------

def test_decomposition_residual_small_and_split_exact(circle_bilip):
    sc, bilip = circle_bilip
    f = np.exp(2j * np.pi * 3 * sc.params / sc.period)
    eps = sc.period * 2.0 ** (-5)
    rep, = harness.proof_check(sc, f, 0, [eps], bilip)
    assert rep.residual < 1e-3
    # the split III = F IV + V holds by construction; check consistency
    assert abs(rep.term_iii - (rep.branch_value * rep.term_iv + rep.term_v)) < 1e-14


def test_decomposition_zero_function(circle_bilip):
    sc, bilip = circle_bilip
    zero = np.zeros(sc.n, dtype=complex)
    rep, = harness.proof_check(sc, zero, 0, [sc.period / 32], bilip)
    assert rep.residual == 0.0
    assert rep.term_i == 0.0 and rep.term_ii == 0.0 and rep.term_iii == 0.0


def test_decomposition_residual_refines():
    vals = []
    for n in [512, 1024]:
        sc = curves.arclength_sample(curves.circle(1.0), n)
        f = np.exp(2j * np.pi * 3 * sc.params / sc.period)
        rep, = harness.proof_check(sc, f, 0, [sc.period / 32],
                                   geometry.bilipschitz_constant(sc))
        vals.append(rep.residual)
    assert vals[1] < vals[0] / 1.5 or vals[1] < 1e-12


def test_decomposition_window_overflow(circle_bilip):
    sc, bilip = circle_bilip
    f = np.ones(sc.n, dtype=complex)
    with pytest.raises(DomainError):
        harness.proof_check(sc, f, 0, [sc.period / 4], bilip)


# -- proof check: far field decay -------------------------------------------------

def test_far_field_decay_circle(circle_bilip):
    sc, bilip = circle_bilip
    eps = sc.period * 2.0 ** (-6)
    rep, = harness.proof_check(sc, np.ones(sc.n, dtype=complex), 0, [eps], bilip)
    assert rep.worst_ratio <= rep.decay_bound + 0.5
    assert rep.decay_bound == 4.0 * bilip
    assert rep.far_nodes > sc.n // 2


def test_far_field_linear_in_eps(circle_bilip):
    sc, bilip = circle_bilip
    r1, r2 = harness.proof_check(sc, np.ones(sc.n, dtype=complex), 0,
                                 [sc.period * 2.0 ** (-5),
                                  sc.period * 2.0 ** (-6)], bilip)
    # remainders scale linearly, so the normalized ratio stays put
    assert 0.5 <= r1.worst_ratio / r2.worst_ratio <= 2.0


def test_far_field_against_explicit_log_difference():
    # straight-side window of the square: the remainder is a difference of
    # nearly-cancelling logs, computable directly from the parametrization
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    sc = curves.arclength_sample(p, 2048)
    eps = sc.period * 2.0 ** (-8)
    z_index = sc.n // 8  # middle of the bottom side
    g = operators.kernel_truncation_transform(sc, z_index, eps)
    branch = geometry.branch_log(p, float(sc.params[z_index]), eps)
    x = float(sc.params[z_index])
    z = sc.points[z_index]
    for w_index in [3 * sc.n // 8, 5 * sc.n // 8]:  # side midpoints, no corners
        w = sc.points[w_index]
        # identity remainder: the backward/forward chord logs at w enter
        # the splitting with opposite orientation to the center's logs
        direct = (np.log(p.point(np.array([x - eps]))[0] - w)
                  - np.log(p.point(np.array([x + eps]))[0] - w))
        via_transform = math.pi ** 2 * (z - w) * g[w_index] - branch
        assert abs(direct) < 0.1  # nearly-cancelling logs far from a jump
        assert abs(via_transform - direct) < 5e-3


# -- criterion scan ---------------------------------------------------------------

def test_criterion_circle_bounded():
    p = curves.circle(1.0)
    eps_list = [p.period * 2.0 ** (-k) for k in range(4, 11)]
    table = harness.criterion_scan(p, harness.default_scan_params(p, 32), eps_list)
    assert table.verdict == "bounded"
    scores = [v for _, v in table.profile]
    assert scores[0] == max(scores)  # max at the largest scale
    assert scores[-1] < scores[0]
    assert all(ok for *_rest, ok in table.rows)


def test_criterion_square_unbounded():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    eps_list = [p.period * 2.0 ** (-k) for k in range(4, 13)]
    table = harness.criterion_scan(p, harness.default_scan_params(p, 32), eps_list)
    assert table.verdict == "unbounded"
    for eps, score in table.profile:
        assert score == pytest.approx((math.pi / 2) * abs(math.log(eps)), rel=1e-6)


def _regular_polygon(sides):
    return curves.polygon(np.exp(2j * math.pi * np.arange(sides) / sides))


def test_default_scan_params_are_np_unique_of_the_landmarks():
    # sorted with equal neighbours dropped gives np.unique's values bit for
    # bit (np.unique, whose first call imports numpy.ma, is the oracle here
    # only); the square's corners repeat uniform anchors
    specs = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.cspec"))
    shapes = [curvespec.build_from_document(curvespec.parse_spec(path.read_text()))
              for path in specs]
    assert len(shapes) == 4
    for p in shapes + [_regular_polygon(6)]:
        xs = [p.period * np.arange(64) / 64]
        if "corners" in p.meta:
            xs.append(np.asarray(p.meta["corners"], dtype=float))
        if "focus_param" in p.meta:
            offs = p.period * 2.0 ** (-np.arange(2.0, 15.0))
            xs += [p.meta["focus_param"] + offs, p.meta["focus_param"] - offs]
        if "depth" in p.meta:
            xs.append(np.asarray(curves.spiral_corner_params(p), dtype=float))
        want = np.unique(np.concatenate(xs) % p.period)
        assert harness.default_scan_params(p).tobytes() == want.tobytes(), p.kind


@pytest.mark.parametrize("sides", [3, 4, 6, 8])
def test_criterion_corner_slope_is_theta_ln2(sides):
    # at a corner of turning angle theta the score is theta |log eps|, so
    # the profile climbs by exactly theta ln 2 per dyadic level
    p = _regular_polygon(sides)
    eps_list = [p.period * 2.0 ** (-k) for k in range(4, 13)]
    table = harness.criterion_scan(p, harness.default_scan_params(p), eps_list)
    scores = [v for _, v in table.profile]
    slope = (2.0 * math.pi / sides) * math.log(2.0)
    for lo, hi in zip(scores[:-1], scores[1:]):
        assert abs(hi - lo - slope) <= 1e-11


def _slit():
    # a back-and-forth slit of period 2 folding at x = 0 and x = 1, where
    # the two half-chords are anti-parallel and the branch is ambiguous
    def point(x):
        x = np.asarray(x, dtype=float)
        return np.abs(((x + 1.0) % 2.0) - 1.0).astype(complex)

    return curves.Parametrization(period=2.0, point=point, kind="polygon")


def test_criterion_marks_ambiguous_branches():
    table = harness.criterion_scan(_slit(), [0.0, 0.5, 1.0, 1.5], [0.125, 0.25])
    assert [(x, eps, ok) for x, eps, _, ok in table.rows] == [
        (x, eps, ok) for eps in (0.25, 0.125)
        for x, ok in ((0.0, False), (0.5, True), (1.0, False), (1.5, True))]
    for _, _, score, ok in table.rows:
        assert score == 0.0 if ok else math.isnan(score)
    # the folds stay out of the profile
    assert table.profile == ((0.25, 0.0), (0.125, 0.0))


def test_sandwich_raises_on_ambiguous_branch():
    p = _slit()
    with pytest.raises(BranchAmbiguityError):
        harness.sandwich_check(p, [0.5, 0.0, 1.0], [0.25], 1.0)
    # straight points pass trivially and never ask for the branch
    rep = harness.sandwich_check(p, [0.5, 1.5], [0.25], 1.0)
    assert rep.trivial_passes == 2 and rep.rows == ()


def test_classify_score_profile_cases():
    assert harness.classify_score_profile([5, 4, 3, 2, 1]) == "bounded"
    assert harness.classify_score_profile([1, 2, 3, 4, 5]) == "unbounded"
    assert harness.classify_score_profile([2, 2.1, 2.0, 2.05, 1.9]) == "bounded"
    assert harness.classify_score_profile([1, 9]) == "indeterminate"
    assert harness.classify_score_profile([1, 0.1, 9, 0.1, 9]) == "indeterminate"


def test_known_defect_square_sups_read_stable():
    """Known defect, pinned as today's behaviour: the square's family sups
    measured at n = 16384, 32768 and 65536 still climb, but their step
    ratios (1.101, 1.033) miss the 10% growth rule and their spread (13.7%)
    is under the 25% stability bound, so the corner curve reads stable.
    Change this test when the rule changes."""
    assert harness.classify_ratio_trend([1.4623, 1.6094, 1.6630]) == "stable"


def _adversarial_sups(vertices):
    rep = harness.cotlar_ratio_scan(curves.polygon(vertices), (2048, 4096, 8192),
                                    tags=("adversarial",))
    return rep.verdict, [sup for _, sup in rep.aggregate]


def test_known_defect_hexagon_sups_read_stable():
    """Known defect, pinned as today's behaviour: the regular hexagon's
    criterion score climbs by theta ln 2 per level and reads unbounded, but
    its adversarial family sups at n = 2048, 4096 and 8192 (0.9983, 0.9991,
    0.9996) barely move, so the cotlar verdict reads stable and the two
    verdicts disagree.  Change this test when the witnesses change."""
    r = math.sqrt(3.0) / 2.0
    verdict, sups = _adversarial_sups(
        [1, 0.5 + r * 1j, -0.5 + r * 1j, -1, -0.5 - r * 1j, 0.5 - r * 1j])
    assert verdict == "stable"
    assert sups == pytest.approx([0.9983, 0.9991, 0.9996], abs=1e-4)


def test_known_defect_square_verdict_depends_on_side():
    """Known defect, pinned as today's behaviour: T, T_* and M do not
    change under dilation, yet the adversarial witnesses sit at absolute
    arc lengths, so the unit square reads growing while the same square
    with side 1.5 reads indeterminate (sups 1.0226, 1.0678, 1.2857 at
    n = 2048, 4096 and 8192).  Change this test when the witnesses become
    dilation invariant."""
    verdict, _ = _adversarial_sups([0, 1, 1 + 1j, 1j])
    assert verdict == "growing"
    verdict, sups = _adversarial_sups([0, 1.5, 1.5 + 1.5j, 1.5j])
    assert verdict == "indeterminate"
    assert sups == pytest.approx([1.0226, 1.0678, 1.2857], abs=1e-4)


def test_classify_ratio_trend_cases():
    assert harness.classify_ratio_trend([1.0, 1.05, 1.1]) == "stable"
    assert harness.classify_ratio_trend([1.0, 1.15, 1.35]) == "growing"
    assert harness.classify_ratio_trend([1.0, 1.6, 1.7]) == "indeterminate"


def test_verdict_agreement_mapping():
    assert harness.verdicts_agree("bounded", "stable")
    assert harness.verdicts_agree("unbounded", "growing")
    assert not harness.verdicts_agree("bounded", "growing")
    assert not harness.verdicts_agree("indeterminate", "stable")


# -- sandwich -----------------------------------------------------------------------

def test_sandwich_circle():
    p = curves.circle(1.0)
    sc = curves.arclength_sample(p, 1024)
    bil = geometry.bilipschitz_constant(sc)
    eps_list = [p.period * 2.0 ** (-k) for k in range(4, 12)]
    rep = harness.sandwich_check(p, np.linspace(0, p.period, 16, endpoint=False),
                                 eps_list, bil)
    assert rep.worst_violation <= 1.1
    # analytic check: |F| eps / |D2| = eps^2 / (2 (1 - cos eps)) -> 1
    eps = eps_list[-1]
    up_expected = eps * eps / (2 * (1 - math.cos(eps))) / (math.sqrt(2) * bil)
    ups = [u for x, e, u, _lo in rep.rows if e == eps]
    assert ups[0] == pytest.approx(up_expected, rel=1e-6)


def test_sandwich_straight_sides_trivial():
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    rep = harness.sandwich_check(p, [0.5, 2.5], [0.05, 0.01], 2.0)
    assert rep.trivial_passes == 4
    assert rep.worst_violation == 0.0


# -- maximal ratio scan ----------------------------------------------------------------

def test_cotlar_scan_circle_stable():
    p = curves.circle(1.0)
    rep = harness.cotlar_ratio_scan(p, (256, 512), tags=("constant", "trig:1"))
    assert rep.verdict == "stable"
    assert all(row.sup_ratio > 0 for row in rep.rows)
    ns = sorted({row.n for row in rep.rows})
    assert ns == [256, 512]


def test_cotlar_scan_requires_two_resolutions():
    with pytest.raises(DomainError):
        harness.cotlar_ratio_scan(curves.circle(1.0), (512,), tags=("constant",))


def test_cotlar_flags_zero_denominators():
    # a function whose transform nearly vanishes: flagged, not divided
    p = curves.circle(1.0)
    rep = harness.cotlar_ratio_scan(p, (256, 512), tags=("constant",))
    for row in rep.rows:
        assert row.flagged == 0  # constants keep the denominator alive


def test_cotlar_arg_node_survives_reordered_sums():
    # every circle node ties for the trig:1 sup to rounding; a pass of the
    # shipped family and a pass of trig:1 alone order the sums differently,
    # and the reported node must not follow that order
    p = curves.circle(1.0)
    family = harness.cotlar_ratio_scan(
        p, (512, 1024),
        tags=("constant", "trig:1", "trig:3", "chi:4", "adversarial"))
    alone = harness.cotlar_ratio_scan(p, (512, 1024), tags=("trig:1",))
    got = {row.n: row.arg_node for row in family.rows if row.tag == "trig:1"}
    assert got == {row.n: row.arg_node for row in alone.rows}


def test_cotlar_scan_measures_no_constant(monkeypatch):
    # the adversarial witnesses take the deepest exponent that fits the
    # grid, so the scan needs no bilipschitz constant
    def refuse(_sc):
        raise AssertionError("cotlar_ratio_scan measured a curve constant")

    monkeypatch.setattr(geometry, "bilipschitz_constant", refuse)
    rep = harness.cotlar_ratio_scan(curves.circle(1.0), (256, 512),
                                    tags=("constant", "adversarial"))
    assert sorted({row.n for row in rep.rows}) == [256, 512]


def _oracle_cotlar_ratios(sc, fn):
    """Per-node T_* f / M^2(Tf) of one test function from the single-node
    oracles, 0 where the 4-cell jump guard or the underflow floor drops the
    node, and the count of nodes the floor flags."""
    levels = operators.dyadic_levels(sc, 1)
    nodes = range(sc.n)
    t_star = [oracles.maximal_cauchy(sc, fn.values, i, levels).value
              for i in nodes]
    tf = np.array([oracles.pv_cauchy(sc, fn.values, i) for i in nodes])
    m1 = np.array([oracles.hl_maximal(sc, tf, i) for i in nodes])
    m2 = [oracles.hl_maximal(sc, m1, i) for i in nodes]
    guard = harness.JUMP_GUARD_CELLS * sc.spacing
    ratios = np.zeros(sc.n)
    flagged = 0
    for i in nodes:
        if m2[i] <= harness.UNDERFLOW_FLOOR:
            flagged += 1
            continue
        gaps = [abs(sc.params[i] - j) % sc.period for j in fn.jumps]
        if any(min(g, sc.period - g) < guard - 1e-12 for g in gaps):
            continue
        ratios[i] = t_star[i] / m2[i]
    return ratios, flagged


def test_cotlar_sups_match_single_node_oracles():
    # the scan's sup, flag count and reported node against T_* f / M^2(Tf)
    # built node by node from the readable oracles
    p = curves.polygon([0, 1, 1 + 1j, 1j])
    tags = ("constant", "trig:1", "chi:2", "adversarial")
    rep = harness.cotlar_ratio_scan(p, (128, 256), tags=tags)
    rows = iter(rep.rows)
    for n in (128, 256):
        sc = curves.arclength_sample(p, n)
        fam = harness.make_test_functions(sc, tags)
        for fn in fam:
            row = next(rows)
            assert (row.n, row.tag) == (n, fn.tag)
            ratios, flagged = _oracle_cotlar_ratios(sc, fn)
            sup = ratios.max()
            assert abs(row.sup_ratio - sup) <= 1e-12 * sup, row
            assert row.flagged == flagged, row
            assert abs(ratios[row.arg_node] - sup) <= 1e-12 * sup, row
    assert next(rows, None) is None


def test_far_field_remainder_halves_on_fixed_nodes():
    # |G| over a fixed far node set scales linearly with eps
    sc = curves.arclength_sample(curves.circle(1.0), 2048)
    z = sc.points[0]
    dist = np.minimum(np.arange(sc.n), sc.n - np.arange(sc.n)) * sc.spacing
    eps_big = sc.period * 2.0 ** (-6)
    fixed_far = dist > harness.required_dilation(math.pi / 2) * eps_big
    maxima = []
    for eps in (eps_big, eps_big / 2.0):
        g = operators.kernel_truncation_transform(sc, 0, eps)
        branch = geometry.branch_log(sc.source, 0.0, eps)
        rem = (math.pi ** 2 * (z - sc.points[fixed_far]) * g[fixed_far]
               - branch)
        maxima.append(float(np.abs(rem).max()))
    assert 1.6 <= maxima[0] / maxima[1] <= 2.4
