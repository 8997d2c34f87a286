"""The Gauss-Legendre panel rule and the one refinement driver.

Shared by the time-ordered quadrature (:mod:`laddernoise.perturbation`), the
delay integrals and the exact propagator (:mod:`laddernoise.tdse`), so that
the propagator borrows a numerical rule, not an approximation it checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureConvergenceError

# Gauss-Legendre nodes per panel
_PANEL_NODES = 16
# total nodes at which the panel doubling gives up
_MAX_NODES = 2**23 + 1


@lru_cache(maxsize=None)
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] and the integration matrix.

    Row j of the matrix maps samples at the nodes to the integral from -1 to
    node j of their interpolating polynomial: the samples go to Legendre
    coefficients by the discrete orthogonality of the nodes, and each
    Legendre polynomial is integrated exactly.
    """
    leg = np.polynomial.legendre
    p = _PANEL_NODES
    # Newton on P_p from its asymptotic roots rather than leggauss, whose
    # eigenvalue solver pages in LAPACK: about 1 MB of resident memory
    top = np.eye(p + 1)[p]
    slope = leg.legder(top)
    x = np.cos(np.pi * (np.arange(p, 0, -1) - 0.25) / (p + 0.5))
    for _ in range(6):
        x -= leg.legval(x, top) / leg.legval(x, slope)
    w = 2.0 / ((1.0 - x * x) * leg.legval(x, slope) ** 2)
    to_coef = leg.legvander(x, p - 1).T * w * (np.arange(p) + 0.5)[:, None]
    matrix = leg.legvander(x, p) @ leg.legint(np.eye(p), lbnd=-1) @ to_coef
    for a in (x, w, matrix):
        a.setflags(write=False)
    return x, w, matrix


def _panel_levels(nodes: float) -> list[int]:
    """Panel counts from about ``nodes`` nodes, doubling while under the node cap.

    A start past the cap, even an infinite one, leaves no level at all.
    """
    panels = max(1, math.ceil(min(nodes, _MAX_NODES) / _PANEL_NODES))
    levels = []
    while _PANEL_NODES * panels <= _MAX_NODES:
        levels.append(panels)
        panels *= 2
    return levels


def _refine(levels, evaluate, tol: float, floor: float, what: str):
    """``evaluate`` at the first of ``levels`` whose value agrees with the one before.

    A value is a number or a tuple of numbers.  Two successive values agree
    when every entry satisfies ``|cur - prev| <= max(tol * |cur|, floor)``.
    A last level that still disagrees raises :class:`QuadratureConvergenceError`
    with the largest last difference as the achieved error; fewer than two
    levels raise it before anything is evaluated.
    """
    err = math.inf
    if len(levels) >= 2:
        prev = evaluate(levels[0])
        for level in levels[1:]:
            cur = evaluate(level)
            # numbers stay on plain float arithmetic: the scalar callers
            # compare thousands of times per run
            if isinstance(cur, tuple):
                err = max(abs(c - p) for c, p in zip(cur, prev))
                if all(abs(c - p) <= max(tol * abs(c), floor) for c, p in zip(cur, prev)):
                    return cur
            else:
                err = abs(cur - prev)
                if err <= max(tol * abs(cur), floor):
                    return cur
            prev = cur
    raise QuadratureConvergenceError(f"{what} did not converge", achieved=err)
