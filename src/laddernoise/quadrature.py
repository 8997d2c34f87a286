"""Gauss-Legendre rules, the panel grid and the one refinement driver.

Shared by the time-ordered quadrature (:mod:`laddernoise.perturbation`), the
delay integrals and the exact propagator (:mod:`laddernoise.tdse`), so that
the propagator borrows a numerical rule, not an approximation it checks.
Every Gauss-Legendre rule in the package comes from :func:`_gauss_legendre`.
Both panel integrators read one panel grid from here: the level ladder of
:func:`_panel_levels`; the one cached plan of :func:`_panel_batches`, which
cuts each count into blocks of at most ``_BLOCK_PANELS`` panels and packs
them into batches, so one number bounds the memory of either; and the node
times of :func:`_panel_layout`.
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
# panels a panel integrator holds at once
_BLOCK_PANELS = 4096
# Newton sweeps at most for Gauss-Legendre nodes; from the asymptotic roots
# the fourth step is below 1e-15 at every node count from 2 to 4,096
_NEWTON_SWEEPS = 10


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_(n-1) at ``x``, n >= 1, by the three-term recurrence, two rows at a time."""
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` Gauss-Legendre nodes on [-1, 1], ascending, and their weights.

    Newton on P_n from its asymptotic roots, P_n and P_n' by the recurrence:
    O(n^2) time, O(n) memory and no LAPACK eigen-solve.  It stops once no
    node moves by more than 1e-15; the weights are 2 / ((1 - x^2) P_n'^2).
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_SWEEPS):
        p, prev = _legendre_pair(n, x)
        slope = n * (x * p - prev) / (x * x - 1.0)
        step = p / slope
        x -= step
        if np.abs(step).max() <= 1e-15:
            break
    p, prev = _legendre_pair(n, x)
    slope = n * (x * p - prev) / (x * x - 1.0)
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


@lru_cache(maxsize=None)
def _panel_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] and the integration matrix.

    Row j of the matrix maps samples at the nodes to the integral from -1 to
    node j of their interpolating polynomial: the samples go to Legendre
    coefficients by the discrete orthogonality of the nodes, and each
    Legendre polynomial is integrated exactly, by
    int_{-1}^{x} P_k = (P_(k+1)(x) - P_(k-1)(x)) / (2k + 1) for k >= 1.
    """
    p = _PANEL_NODES
    x, w = _gauss_legendre(p)
    # legendre[k] = P_k at the nodes, k = 0 .. p
    legendre = np.array([np.ones(p)] + [_legendre_pair(k, x)[0] for k in range(1, p + 1)])
    # integrals[k, j] = int_{-1}^{x_j} P_k
    integrals = np.empty((p, p))
    integrals[0] = x + 1.0
    integrals[1:] = (legendre[2:] - legendre[:-2]) / (2.0 * np.arange(1, p) + 1.0)[:, None]
    to_coef = (np.arange(p) + 0.5)[:, None] * legendre[:p] * w
    matrix = integrals.T @ to_coef
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


# the plans of 16 counts tuples are kept; a refinement asks for two or three
@lru_cache(maxsize=16)
def _panel_batches(counts: tuple[int, ...], block_panels: int) -> tuple:
    """The blocks of every count in ``counts``, laid end to end and packed into batches.

    Each count is cut into blocks of at most ``block_panels`` panels, and
    consecutive blocks share a batch while it holds at most ``block_panels``
    panels, so counts that fit together are swept together and larger ones a
    block at a time.  One entry per batch: its blocks ``(i, counts[i],
    first, stop)``, where each lies in the batch as ``(i, lo, hi, first,
    more)`` (count ``i``'s panels from ``first`` on sit in columns ``lo`` to
    ``hi - 1``, and ``more`` says that a later batch goes on with the count)
    and the read-only array of the blocks' ``lo``.  The caller passes
    ``_BLOCK_PANELS``, so a changed block size never finds a stale plan.
    """
    batches, size = [[]], 0
    for i, panels in enumerate(counts):
        for first in range(0, panels, block_panels):
            stop = min(first + block_panels, panels)
            if size + stop - first > block_panels:
                batches.append([])
                size = 0
            batches[-1].append((i, panels, first, stop, size))
            size += stop - first
    plan = []
    for batch in batches:
        starts = np.array([lo for *_, lo in batch])
        starts.setflags(write=False)
        plan.append((tuple(block[:4] for block in batch),
                     tuple((i, lo, lo + stop - first, first, stop < panels)
                           for i, panels, first, stop, lo in batch),
                     starts))
    return tuple(plan)


def _panel_layout(t0: float, t1: float, batch) -> tuple:
    """Node offsets ``h_b x_j`` (node, block), panel midpoints and block indices, half-widths.

    ``batch`` holds blocks ``(i, panels, first, stop)`` of :func:`_panel_batches`:
    panels ``first`` to ``stop - 1`` of [t0, t1] cut into ``panels``, side by
    side.  Node j of panel p in block b lies at ``m_p + h_b x_j``, ``m_p`` the
    panel's midpoint, ``h_b`` its half-width and ``x_j`` the rule node.
    """
    halves = np.array([(t1 - t0) / (2 * panels) for _, panels, _, _ in batch])
    block = np.arange(len(batch)).repeat([stop - first for _, _, first, stop in batch])
    # 2k + 1 for panels k = first .. stop - 1, as one arange
    mid = np.concatenate([t0 + h * np.arange(2 * first + 1, 2 * stop, 2)
                          for h, (_, _, first, stop) in zip(halves.tolist(), batch)])
    return _panel_rule()[0][:, None] * halves, mid, block, halves


def _each_level(evaluate):
    """An ``evaluate`` for :func:`_refine` from one that takes a single level."""
    return lambda levels: tuple(map(evaluate, levels))


def _refine(levels, evaluate, tol: float, floor: float, what: str):
    """The value at the first of ``levels`` that agrees with the one before.

    ``evaluate`` takes a tuple of levels and returns their values in order.
    Every refinement needs the first two values before its first comparison,
    so it is asked for ``levels[:2]`` in one call, and for one level at a time
    after that.  A value is a number or a tuple of numbers.  Two successive
    values agree when every entry satisfies
    ``|cur - prev| <= max(tol * |cur|, floor)``.  A last level that still
    disagrees raises :class:`QuadratureConvergenceError` with the largest last
    difference as the achieved error; fewer than two levels raise it before
    anything is evaluated.
    """
    err = math.inf
    if len(levels) >= 2:
        prev, cur = evaluate(tuple(levels[:2]))
        later = iter(levels[2:])
        while True:
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
            level = next(later, None)
            if level is None:
                break
            prev, (cur,) = cur, evaluate((level,))
    raise QuadratureConvergenceError(f"{what} did not converge", achieved=err)
