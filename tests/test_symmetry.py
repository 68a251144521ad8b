"""Exact dilation symmetry of the discrete model.

In binary floating point z -> 2^j z is exact: on a curve dilated by 2^j
every sample point, parameter, spacing, weight and truncation level is
2^j times the undilated one, bit for bit, and the chord tangents, the
Cauchy sums (kernel 1/dz times a measure, both scaled by 2^j) and the
maximal averages (ratios of sums scaled by 2^j) keep their bits.  These
tests pin that on the unit square and the unit circle for j = -2..2.
"""

import numpy as np
import pytest

from cauchylab import curves, harness, operators

N = 1024


def _square(side):
    return curves.polygon([0, side, side + side * 1j, side * 1j])


CURVES = {"square": _square, "circle": curves.circle}


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
            sc, ("adversarial",), anchors=harness.anchor_params(p)))
    assert counts == {0.5: 4, 1.0: 8, 2.0: 4}
