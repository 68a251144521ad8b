"""Fixed Gauss-Legendre panels for the curve builders' arc lengths.

Each rule comes as a pair: the nodes at which the integrand is needed, and
the integral from the integrand's values there.  A caller that integrates
several functions with the same kernel part at the same nodes evaluates
that part once.
"""

from __future__ import annotations

import numpy as np

_GL16 = np.polynomial.legendre.leggauss(16)
_GL96 = np.polynomial.legendre.leggauss(96)


def panel_nodes(a, b):
    """Nodes of one fixed 96-point Gauss-Legendre panel on [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _GL96[0]


def panel_sum(vals, a, b):
    """Integral over [a, b] of a function with values vals at panel_nodes(a, b)."""
    return 0.5 * (b - a) * np.sum(_GL96[1] * vals)


def cumulative_nodes(knots):
    """Nodes of one 16-point Gauss-Legendre panel per knot interval, one
    row per interval."""
    knots = np.asarray(knots, dtype=float)
    mids = 0.5 * (knots[:-1] + knots[1:])
    halves = 0.5 * (knots[1:] - knots[:-1])
    return mids[:, None] + halves[:, None] * _GL16[0][None, :]


def cumulative_gauss(vals, knots):
    """Cumulative integral at the knots (knots[0] maps to 0) of a function
    with values vals at cumulative_nodes(knots)."""
    knots = np.asarray(knots, dtype=float)
    halves = 0.5 * (knots[1:] - knots[:-1])
    increments = halves * (vals * _GL16[1][None, :]).sum(axis=1)
    out = np.empty(knots.shape, dtype=float)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out
