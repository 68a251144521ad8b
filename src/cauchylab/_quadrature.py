"""Small quadrature helpers: fixed Gauss-Legendre panels and an adaptive
complex-valued rule used for the log-branch integral."""

from __future__ import annotations

import numpy as np

_GL16 = np.polynomial.legendre.leggauss(16)
_GL48 = np.polynomial.legendre.leggauss(48)
_GL96 = np.polynomial.legendre.leggauss(96)


def gauss_panel(f, a, b, rule=_GL96):
    """Integrate f over [a, b] with a single fixed Gauss-Legendre panel."""
    nodes, weights = rule
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(weights * f(mid + half * nodes))


def cumulative_gauss(f, knots, rule=_GL16):
    """Cumulative integral of f at the given knots (knots[0] maps to 0)."""
    knots = np.asarray(knots, dtype=float)
    mids = 0.5 * (knots[:-1] + knots[1:])
    halves = 0.5 * (knots[1:] - knots[:-1])
    nodes, weights = rule
    pts = mids[:, None] + halves[:, None] * nodes[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    increments = halves * (vals * weights[None, :]).sum(axis=1)
    out = np.empty(knots.shape, dtype=float)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


def adaptive_complex(f, a, b, tol=1e-11, _depth=0):
    """Adaptive bisection with a GL16/GL48 error estimate, complex integrand.

    f must accept an ndarray of real nodes and return complex values.
    """
    nodes16, w16 = _GL16
    nodes48, w48 = _GL48
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    coarse = half * np.sum(w16 * f(mid + half * nodes16))
    fine = half * np.sum(w48 * f(mid + half * nodes48))
    if abs(fine - coarse) <= tol or _depth >= 24:
        return fine
    left = adaptive_complex(f, a, mid, tol / 2.0, _depth + 1)
    right = adaptive_complex(f, mid, b, tol / 2.0, _depth + 1)
    return left + right
