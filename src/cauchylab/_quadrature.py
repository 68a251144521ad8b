"""Fixed Gauss-Legendre panels for the curve builders' arc lengths."""

from __future__ import annotations

import numpy as np

_GL16 = np.polynomial.legendre.leggauss(16)
_GL96 = np.polynomial.legendre.leggauss(96)


def gauss_panel(f, a, b):
    """Integrate f over [a, b] with one fixed 96-point Gauss-Legendre panel."""
    nodes, weights = _GL96
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(weights * f(mid + half * nodes))


def cumulative_gauss(f, knots):
    """Cumulative integral of f at the knots (knots[0] maps to 0), one
    16-point Gauss-Legendre panel per interval."""
    knots = np.asarray(knots, dtype=float)
    mids = 0.5 * (knots[:-1] + knots[1:])
    halves = 0.5 * (knots[1:] - knots[:-1])
    nodes, weights = _GL16
    pts = mids[:, None] + halves[:, None] * nodes[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    increments = halves * (vals * weights[None, :]).sum(axis=1)
    out = np.empty(knots.shape, dtype=float)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out
