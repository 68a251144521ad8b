"""Exact dilation symmetry of the discrete model.

In binary floating point z -> 2^j z is exact: on a curve dilated by 2^j
every sample point, parameter, spacing, weight and truncation level is
2^j times the undilated one, bit for bit, and the chord tangents, the
Cauchy sums (kernel 1/dz times a measure, both scaled by 2^j) and the
maximal averages (ratios of sums scaled by 2^j) keep their bits.  These
tests pin that on the unit square, the unit circle, the 2:1 ellipse and
the regular hexagon of circumradius 1 for j = -2..2, for the evaluator and
for the proof, geometry and sandwich checks.
"""

import dataclasses
import math

import numpy as np
import pytest

from cauchylab import curves, geometry, harness, operators

N = 1024


def _square(side):
    return curves.polygon([0, side, side + side * 1j, side * 1j])


def _hexagon(side):
    return curves.polygon([side * complex(math.cos(k * math.pi / 3.0),
                                          math.sin(k * math.pi / 3.0))
                           for k in range(6)])


CURVES = {"square": _square, "circle": curves.circle,
          "ellipse": lambda s: curves.ellipse(2.0 * s, s), "hexagon": _hexagon}


def _inputs(sc):
    # the constant, a trigonometric input and the indicator of the first
    # third of the arc, as one stack
    tests = harness.make_test_functions(sc, ("constant", "trig:3"))
    third = (sc.params < sc.period / 3.0).astype(complex)
    return np.array([f.values for f in tests] + [third])


def _model(build, scale):
    sc = curves.arclength_sample(build(scale), N)
    values = _inputs(sc)
    levels = [eps for _, eps in operators.dyadic_levels(sc, 1)]
    pv, table = operators.cauchy_family(sc, values, levels)
    return sc, values, levels, pv, table, operators.hl_maximal_squared(sc, pv)


@pytest.fixture(scope="module")
def unit_models():
    return {name: _model(build, 1.0) for name, build in CURVES.items()}


@pytest.mark.parametrize("j", [-2, -1, 1, 2])
@pytest.mark.parametrize("name", sorted(CURVES))
def test_dilation_by_a_power_of_two_keeps_every_bit(unit_models, name, j):
    scale = 2.0 ** j
    sc0, values0, levels0, pv0, table0, m2_0 = unit_models[name]
    sc, values, levels, pv, table, m2 = _model(CURVES[name], scale)
    assert sc.period == scale * sc0.period
    assert np.array_equal(sc.params, scale * sc0.params)
    assert np.array_equal(sc.points, scale * sc0.points)
    assert np.array_equal(sc.weights, scale * sc0.weights)
    assert np.array_equal(sc.tangents, sc0.tangents)
    assert levels == [scale * eps for eps in levels0]
    assert np.array_equal(values, values0)
    assert np.array_equal(pv, pv0)
    assert np.array_equal(table, table0)
    assert np.array_equal(m2, m2_0)


def _checks(build, scale):
    """The proof reports of every input at k = 5, 6, 7, the diagnostics,
    the sandwich check and the eps0 gate on the curve of the given scale."""
    p = build(scale)
    sc = curves.arclength_sample(p, N)
    bilip = geometry.bilipschitz_constant(sc)
    levels = harness.proof_levels(sc, (5, 6, 7), bilip)
    assert [k for k, _ in levels] == [5, 6, 7]
    proofs = [harness.proof_check(sc, f, 0, [eps for _, eps in levels], bilip)
              for f in _inputs(sc)]
    sandwich = harness.sandwich_check(
        p, harness.default_scan_params(p, 48),
        [p.period * 2.0 ** (-k) for k in range(4, 13)], bilip)
    return (proofs, geometry.diagnostics(sc), sandwich,
            geometry.eps0_gate(sc, bilip))


@pytest.fixture(scope="module")
def unit_checks():
    return {name: _checks(build, 1.0) for name, build in CURVES.items()}


@pytest.mark.parametrize("j", [-2, -1, 1, 2])
@pytest.mark.parametrize("name", sorted(CURVES))
def test_dilation_keeps_the_bits_of_the_proof_and_geometry_checks(
        unit_checks, name, j):
    # lengths (eps, parameters, second differences, eps0) scale by 2^j;
    # every ratio, term and constant keeps its bits
    scale = 2.0 ** j
    proofs0, diag0, sandwich0, eps0_0 = unit_checks[name]
    proofs, diag, sandwich, eps0 = _checks(CURVES[name], scale)
    for reports, reports0 in zip(proofs, proofs0, strict=True):
        assert reports == tuple(dataclasses.replace(rep, eps=scale * rep.eps)
                                for rep in reports0)
    assert diag.chord_arc_const == diag0.chord_arc_const
    assert diag.bilip == diag0.bilip
    assert diag.ac_table == tuple((k, scale * eps, delta)
                                  for k, eps, delta in diag0.ac_table)
    assert diag.local_bilip_table == tuple((k, scale * eps, c)
                                           for k, eps, c in diag0.local_bilip_table)
    assert diag.omega2_table == tuple((k, scale * eps, scale * v, scale * x)
                                      for k, eps, v, x in diag0.omega2_table)
    assert sandwich.rows == tuple((scale * x, scale * eps, up, lo)
                                  for x, eps, up, lo in sandwich0.rows)
    assert sandwich.worst_violation == sandwich0.worst_violation
    assert sandwich.trivial_passes == sandwich0.trivial_passes
    if name in ("circle", "ellipse"):
        assert eps0 == scale * eps0_0
    else:  # corners: no level passes the gate
        assert eps0 is None and eps0_0 is None


def test_known_defect_adversarial_witnesses_drop_on_dilated_squares():
    """Known defect, pinned as today's behaviour: the witnesses' outer
    scales are period * 2^-1 and period * 2^-3, and make_test_functions
    skips a scale whose |log eps| is below 1e-9, an absolute length.  On
    sides 2 and 1/2 one of the two scales is exactly 1, so those squares
    get 4 witnesses where the unit square gets 8.  Change this test when
    the witnesses become dilation invariant."""
    counts = {}
    for side in (0.5, 1.0, 2.0):
        p = _square(side)
        sc = curves.arclength_sample(p, N)
        counts[side] = len(harness.make_test_functions(
            sc, ("adversarial",)))
    assert counts == {0.5: 4, 1.0: 8, 2.0: 4}
