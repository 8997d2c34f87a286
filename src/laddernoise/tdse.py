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
Y is found by a number of Picard passes fixed in advance from the bound
(h a)^(k+1) || |S|^(k+1) ||_inf on their error, with a bounding
||A(t)||_inf; the powers of |S| shrink far faster than ||S||_inf^(k+1).
Collocation conserves the norm to rounding (Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, 2nd ed., IV.2).  No rotating-wave
reduction is applied anywhere: the full real field multiplies both resonant
and counter-rotating terms, so this module is independent of every
approximation it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .model import ControlField, LadderSystem, transition_frequencies
from .quadrature import (
    _PANEL_NODES, _each_level, _panel_batches, _panel_layout, _panel_levels, _panel_rule, _refine,
)

# the Picard passes stop once their error bound, relative to the solution,
# is below this
_PICARD_EPS = 2.0**-54
# powers of |S| tabulated for the pass count: at the start rule's largest
# contraction q = h ||S||_inf max||A|| = 1/2 the bound meets _PICARD_EPS at the
# 20th power, 19 passes, where the geometric bound q^(k+1) needs 53
_PICARD_POWERS = 20
# a level's relative error in the term of the state that carries the panel
# rule's stage defect D twice, in units of D^2; see _start_levels
_DEFECT_GAIN = 0.05


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


@lru_cache(maxsize=None)
def _power_norms() -> tuple[float, ...]:
    """||  |S|^j ||_inf for j = 1 .. _PICARD_POWERS, S the panel integration matrix."""
    magnitude = np.abs(_panel_rule()[2])
    power = magnitude
    norms = []
    for _ in range(_PICARD_POWERS):
        norms.append(float(power.sum(axis=1).max()))
        power = power @ magnitude
    return tuple(norms)


def _picard_passes(q: float) -> int:
    """Fewest Picard passes k whose error bound is below ``_PICARD_EPS``.

    ``q = h rate`` with ``rate = ||S||_inf a`` and ``a`` a bound on
    ||A(t)||_inf, so ``h a = q / ||S||_inf``.  With the node-wise norm
    N(Y)_j = ||Y_j||_inf, N(h S A Y) <= h a |S| N(Y) elementwise, and the
    error after k passes from Y = I, E_k = -(h S A)^(k+1) Y*, obeys
    ||E_k|| <= (h a)^(k+1) || |S|^(k+1) ||_inf ||Y*||.  The powers of |S|
    shrink much faster than ||S||_inf^(k+1), so this needs far fewer passes
    than the geometric bound q^(k+1).  The start rule keeps q <= 1/2, where
    the table of ``_PICARD_POWERS`` powers suffices.
    """
    norms = _power_norms()
    ha = q / norms[0]
    return next(k for k, norm in enumerate(norms) if ha ** (k + 1) * norm <= _PICARD_EPS)


@lru_cache(maxsize=64)
def _stage_defect(x: float) -> float:
    """Largest error of the panel integration matrix on exp(i x z) over [-1, 1].

    The exact integrals (z + 1) sinc(x (z + 1) / 2) exp(i x (z - 1) / 2) are
    free of cancellation.  Shots without frequency noise share their x.
    """
    z, _, matrix = _panel_rule()
    exact = (z + 1.0) * np.sinc(x * (z + 1.0) / (2.0 * np.pi)) * np.exp(0.5j * x * (z - 1.0))
    pairs = np.exp(1j * x * z).view(np.float64).reshape(-1, 2)
    error = (matrix @ pairs).view(np.complex128)[:, 0] - exact
    return math.sqrt(float((error.real ** 2 + error.imag ** 2).max()))


def _start_levels(levels: list[int], phase: float, rungs: int, area: float,
                  spec: PropagationSpec) -> list[int]:
    """``levels`` from the first level whose comparison with the next can pass.

    Drops the first of the panel counts ``levels`` while more than two are
    left and an a-priori estimate of its error exceeds the comparison's
    threshold max(rel_tol |c|, abs_tol) of :func:`_refine`.  First-order
    terms are Gauss quadratures of A; higher orders also integrate A through
    the stage values h S A Y, off on the fastest phase by the stage defect
    D(x), x = phase / panels.  Gauss collocation's endpoint error pairs the
    defects of the solution and its adjoint, so the coefficient that takes
    that phase through a nested integral is off by about ``_DEFECT_GAIN`` D^2
    of itself: the top one, of weak-field size area^N / N!, on N >= 2 rungs,
    and on one rung the ground state's change area^2 / 2, beside |c_0| ~ 1.
    ``area`` is one coupling's largest resonant pulse area,
    max mu * max A * int s.  At the start rule's x <= 4 pi the top
    coefficient's error was 0.11 to 0.19 D^2 on acceptance test 6 and on the
    resonant Gaussian ladders 60/114 and 90/171/243, so 0.05 errs low.  An
    estimate that errs high only starts one level finer: the result still
    comes from two levels that agree.
    """
    order = max(rungs, 2)
    # a product, not a power, so that a huge area gives inf instead of raising
    change = math.prod(area / k for k in range(1, order + 1))
    size = change if rungs > 1 else 1.0
    threshold = max(spec.rel_tol * size, spec.abs_tol)
    while (len(levels) > 2
           and _DEFECT_GAIN * _stage_defect(phase / levels[0]) ** 2 * change > threshold):
        levels = levels[1:]
    return levels


def _panel_propagators(low, half: float, passes: int) -> np.ndarray:
    """The propagator of each panel, shape (L, L, panels).

    ``low`` holds the subdiagonal A[n+1, n] at the nodes, shape
    (L-1, nodes, panels); the superdiagonal is -conj(low).  Y = I + h S A Y
    is solved by ``passes`` Picard passes from Y = I, every panel at once.
    Y is laid out as (row, node, column, panel), so the two shifted products
    that make up A Y, rows of Y times the sub- and superdiagonal, are
    contiguous slabs written into preallocated buffers; h S is formed once
    and acts on each row's (node, column, panel) slab as a real matmul on its
    (re, im) view, as in the time-ordered quadrature, and the identity is
    added through a strided view of the diagonal.  The panel axis is last,
    so every elementwise product runs along it.
    """
    _, w, matrix = _panel_rule()
    rungs, nodes, panels = low.shape
    levels = rungs + 1
    low = low[:, :, None]
    high = -low.conj()
    hs = half * matrix
    y = np.zeros((levels, nodes, levels, panels), complex)
    # a strided view of the identity's entries Y[r, :, r, :]
    diagonal = np.einsum("rnrp->rnp", y)
    diagonal += 1.0
    ay = np.empty_like(y)
    above = np.empty_like(y[1:])
    y_flat = y.reshape(levels, nodes, -1).view(np.float64)
    ay_flat = ay.reshape(levels, nodes, -1).view(np.float64)
    for k in range(passes + 1):
        # (A Y)[r] = A[r, r-1] Y[r-1] + A[r, r+1] Y[r+1]
        np.multiply(low, y[:-1], out=ay[1:])
        np.multiply(high, y[1:], out=above)
        ay[0] = 0.0
        ay[:-1] += above
        if k < passes:
            np.matmul(hs, ay_flat, out=y_flat)
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
    so the state does not move there.  The overlap is cut into equal panels
    on the level ladder of :func:`laddernoise.quadrature._panel_levels`, at
    first enough for 4 nodes per period of the fastest phase of A and for
    h ||S|| max||A|| <= 1/2, so that the Picard iteration contracts, less the
    first levels that an a-priori error estimate says cannot agree with the
    next (:func:`_start_levels`).  Each level's pass count is the fewest whose
    bound on the powers of |S| (see :func:`_picard_passes`) is below
    ``_PICARD_EPS``, at most 19.  The panel count doubles, up to 2^23 + 1
    nodes, until two successive states agree in every coefficient to
    ``rel_tol`` (relative, with the absolute floor ``abs_tol``).  Running out
    of levels raises :class:`QuadratureConvergenceError`; a start that leaves
    fewer than two levels under the cap raises before any panel is built.
    Panels are evaluated in the plan and at the node times of
    :mod:`laddernoise.quadrature` that the time-ordered quadrature reads, a
    block at a time, each multiplied into the state before the next is built.
    """
    if spec is None:
        spec = default_propagation_spec(field)
    s0, s1 = field.envelope.support()
    t0, t1 = max(spec.t_start, s0), min(spec.t_end, s1)
    start = np.zeros(len(system.energies), complex)
    start[0] = 1.0
    if not t0 < t1:
        return StateCoefficients(tuple(start.tolist()), spec.t_end)

    wbar = np.array(transition_frequencies(system))[:, None, None]
    mus = np.array(system.dipoles)[:, None, None]
    fastest = wbar.max() + max(c.frequency for c in field.components)
    mu = float(np.abs(mus).max())
    # h * rate bounds the Picard contraction h ||S||_inf max_t ||A(t)||_inf:
    # |E| <= 2 sum_l A_l, and a row of A holds two couplings
    rate = _power_norms()[0] * 4.0 * sum(c.amplitude for c in field.components) * mu
    nodes = (t1 - t0) * max(4.0 * fastest / (2.0 * math.pi), _PANEL_NODES * rate)
    area = (mu * max(c.amplitude for c in field.components)
            * min(field.envelope.effective_duration, t1 - t0))
    levels = _start_levels(_panel_levels(nodes), fastest * (t1 - t0) / 2.0, len(mus), area,
                           spec)

    def evaluate(panels: int) -> tuple[complex, ...]:
        half = (t1 - t0) / (2 * panels)
        # the pass count is fixed from the bound on the powers of |S|, never
        # by testing the iterates
        passes = _picard_passes(half * rate)
        state = start
        for batch, _, _ in _panel_batches((panels,), quadrature._BLOCK_PANELS):
            offsets, mid, _, _ = _panel_layout(t0, t1, batch)
            t = offsets + mid
            low = 1j * field.value(t) * mus * np.exp(1j * wbar * t)
            for u in np.moveaxis(_panel_propagators(low, half, passes), -1, 0):
                state = u @ state
        return tuple(state.tolist())

    coeffs = _refine(levels, _each_level(evaluate), spec.rel_tol, spec.abs_tol,
                     "collocation propagator")
    return StateCoefficients(coeffs, spec.t_end)
