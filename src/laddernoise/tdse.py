"""Exact propagation of the ladder amplitudes under the full field.

The state is expanded as psi(t) = sum_n c_n(t) |n> e^{-i eps_n t}; inserting
this into the Schroedinger equation with H = H0 - mu E(t) gives

    i dc_n/dt = -E(t) [ mu_n e^{+i wbar_n t} c_{n-1}
                        + mu_{n+1} e^{-i wbar_{n+1} t} c_{n+1} ],

a linear system c' = A(t) c with A tridiagonal and anti-Hermitian.  It is
solved by Gauss-Legendre collocation on the 16-node panels of
:mod:`laddernoise.quadrature`: on a panel of half-width h the collocation
solution at the nodes satisfies Y = I + h S A Y, with S the panel's
integration matrix, and the panel's propagator is I + h sum_j w_j A_j Y_j.
Collocation conserves the norm to rounding (Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, 2nd ed., IV.2).  No rotating-wave
reduction is applied anywhere: the full real field multiplies both resonant
and counter-rotating terms, so this module is independent of every
approximation it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ControlField, LadderSystem, transition_frequencies
from .quadrature import _PANEL_NODES, _panel_levels, _panel_rule, _refine

# panels evaluated at once: bounds the memory of a propagation at the node cap
_BLOCK_PANELS = 4096
# the Picard iteration stops once its error bound is below this
_PICARD_EPS = 2.0**-54


@dataclass(frozen=True)
class PropagationSpec:
    """Time window and error tolerances for one propagation."""

    t_start: float
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("t_start must precede t_end")
        for tol in (self.rel_tol, self.abs_tol):
            if not (0.0 < tol <= 1e-2):
                raise ValueError("tolerances must lie in (0, 1e-2]")


@dataclass(frozen=True)
class StateCoefficients:
    """Ladder amplitudes c_n at a given time (rotating-frame coefficients)."""

    coeffs: tuple[complex, ...]
    time: float

    def norm_squared(self) -> float:
        return sum(abs(c) ** 2 for c in self.coeffs)


def default_propagation_spec(
    field: ControlField, rel_tol: float = 1e-10, abs_tol: float = 1e-12
) -> PropagationSpec:
    """Window covering the envelope support (the field vanishes outside)."""
    t0, t1 = field.envelope.support()
    return PropagationSpec(t0, t1, rel_tol, abs_tol)


def population(state: StateCoefficients, target_index: int) -> float:
    """|c_target|^2, the occupation of one ladder level."""
    if not 0 <= target_index < len(state.coeffs):
        raise ValueError(
            f"target index {target_index} out of range 0..{len(state.coeffs) - 1}"
        )
    return abs(state.coeffs[target_index]) ** 2


def _panel_propagators(low, half: float, passes: int) -> np.ndarray:
    """The propagator of each panel, shape (L, L, panels).

    ``low`` holds the subdiagonal A[n+1, n] at the nodes, shape
    (nodes, L-1, panels); the superdiagonal is -conj(low).  Y = I + h S A Y
    is solved by ``passes`` Picard passes from Y = I, every panel at once.
    As in the time-ordered quadrature, the real matrix and weights act on the
    (re, im) view by real matmuls; the panel axis is last, so every
    elementwise product runs along it.
    """
    _, w, matrix = _panel_rule()
    nodes, rungs, panels = low.shape
    levels = rungs + 1
    low = low[:, :, None]
    high = -low.conj()
    y = np.zeros((nodes, levels, levels, panels), complex)
    y_flat = y.reshape(nodes, -1).view(np.float64)
    diagonal = y.reshape(nodes, levels * levels, panels)[:, :: levels + 1]
    diagonal += 1.0
    ay = np.empty_like(y)
    ay_flat = ay.reshape(nodes, -1).view(np.float64)
    for k in range(passes + 1):
        np.multiply(low, y[:, :-1], out=ay[:, 1:])
        ay[:, 0] = 0.0
        ay[:, :-1] += high * y[:, 1:]
        if k < passes:
            np.matmul(half * matrix, ay_flat, out=y_flat)
            diagonal += 1.0
    u = (half * w @ ay_flat).view(np.complex128).reshape(levels, levels, panels)
    u.reshape(levels * levels, panels)[:: levels + 1] += 1.0
    return u


def propagate(
    system: LadderSystem,
    field: ControlField,
    spec: PropagationSpec | None = None,
) -> StateCoefficients:
    """Integrate from the ground state across the pulse; returns c_n(t_end).

    Starts from c_0 = 1 at ``spec.t_start`` and integrates only where the
    window overlaps ``field.envelope.support()``: the field vanishes outside,
    so the state does not move there.  The overlap is cut into equal panels,
    at first enough for 4 nodes per period of the fastest phase of A and for
    h ||S|| max||A|| <= 1/2, so that the Picard iteration contracts.  The
    panel count doubles, up to 2^23 + 1 nodes, until two successive states
    agree in every coefficient to ``rel_tol`` (relative, with the absolute
    floor ``abs_tol``).  Running out of panel counts raises
    :class:`QuadratureConvergenceError`; a start that leaves fewer than two
    counts under the cap raises before any panel is built.  Panels are
    evaluated in blocks of 4,096, each multiplied into the state before the
    next is built.
    """
    if spec is None:
        spec = default_propagation_spec(field)
    s0, s1 = field.envelope.support()
    t0, t1 = max(spec.t_start, s0), min(spec.t_end, s1)
    start = np.zeros(len(system.energies), complex)
    start[0] = 1.0
    if not t0 < t1:
        return StateCoefficients(tuple(start.tolist()), spec.t_end)

    x, _, matrix = _panel_rule()
    wbar = np.array(transition_frequencies(system))
    mus = np.array(system.dipoles)
    fastest = wbar.max() + max(c.frequency for c in field.components)
    # h * rate bounds the Picard contraction h ||S||_inf max_t ||A(t)||_inf:
    # |E| <= 2 sum_l A_l, and a row of A holds two couplings
    rate = (float(np.abs(matrix).sum(axis=1).max()) * 4.0
            * sum(c.amplitude for c in field.components) * float(np.abs(mus).max()))
    nodes = (t1 - t0) * max(4.0 * fastest / (2.0 * math.pi), _PANEL_NODES * rate)

    def evaluate(panels: int) -> tuple[complex, ...]:
        half = (t1 - t0) / (2 * panels)
        # passes enough that the iteration error bound q^(passes+1) is below
        # _PICARD_EPS, fixed from the bound rather than by testing the iterates
        q = max(half * rate, _PICARD_EPS)
        passes = math.ceil(math.log(_PICARD_EPS) / math.log(q)) - 1
        state = start
        for first in range(0, panels, _BLOCK_PANELS):
            mid = t0 + half * (2 * np.arange(first, min(first + _BLOCK_PANELS, panels)) + 1)
            t = (half * x[:, None] + mid)[:, None]
            low = 1j * field.value(t) * mus[:, None] * np.exp(1j * wbar[:, None] * t)
            for u in np.moveaxis(_panel_propagators(low, half, passes), -1, 0):
                state = u @ state
        return tuple(state.tolist())

    coeffs = _refine(_panel_levels(nodes), evaluate, spec.rel_tol, spec.abs_tol,
                     "collocation propagator")
    return StateCoefficients(coeffs, spec.t_end)
