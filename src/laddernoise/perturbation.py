"""Lowest-order transition amplitude of a driven ladder.

The amplitude for climbing all N rungs is an N-fold time-ordered integral
over the field.  This module evaluates it four ways:

* nested time-ordered quadrature (any envelope, rotating-wave reduction of
  each field component) on Gauss-Legendre panels with a spectral
  integration matrix;
* the equal-detuning closed form ``i^N S(-delta)^N / N!`` on the envelope
  spectrum S, for both envelopes; on a rectangular envelope its exact
  antiresonance at ``T delta = 2 pi n`` is the zeros of S;
* the Gaussian-envelope closed form, a damped oscillatory integral over the
  (N-1) inter-event delays;
* the rectangular-envelope residue sum over distinct cumulant detunings.

All closed forms produce the *scaled* amplitude, with the per-component
factor ``prod_k mu_k A_k e^{-i theta_k}`` divided out; magnitudes therefore
never depend on the component phases, and yields computed through
:func:`transition_yield` are bit-for-bit phase independent.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    AccuracyWarning,
    DegenerateCumulantsError,
    ValidityWarning,
)
from .model import (
    ControlField,
    Detunings,
    GaussianEnvelope,
    LadderSystem,
    RectangularEnvelope,
    detunings_for,
)
from .quadrature import _panel_levels, _panel_rule, _refine

# Oscillation bound for the Gaussian closed form: beyond |D_k|/(N sigma) of
# about this value plain quadrature degrades and only the asymptote remains.
_OSCILLATION_BOUND = 10.0


class AmplitudeMethod(Enum):
    TIME_QUADRATURE = "time-quadrature"
    RESONANT_CLOSED_FORM = "resonant-closed-form"
    GAUSSIAN_CLOSED_FORM = "gaussian-closed-form"
    RECT_DISTINCT = "rect-distinct"
    RECT_EQUAL = "rect-equal"


@dataclass(frozen=True)
class TransitionAmplitude:
    """Complex amplitude for reaching the top rung, with its scaled form.

    ``value = scaled * prod_k mu_k A_k e^{-i theta_k}``.  The magnitude can
    exceed 1 outside the validity of lowest-order theory; it is reported as
    computed, never clamped.  A scaled amplitude that is not finite raises
    ``FloatingPointError`` in :meth:`from_scaled`.
    """

    value: complex
    scaled: complex
    method: AmplitudeMethod

    @classmethod
    def from_scaled(
        cls,
        scaled: complex,
        system: LadderSystem,
        field: ControlField,
        method: AmplitudeMethod,
    ) -> "TransitionAmplitude":
        if not cmath.isfinite(scaled):
            raise FloatingPointError(f"{method.value} amplitude is not finite: {scaled}")
        return cls(scaled * _component_product(system, field), complex(scaled), method)


def _component_product(system: LadderSystem, field: ControlField) -> complex:
    out = 1.0 + 0.0j
    for mu, c in zip(system.dipoles, field.components):
        out *= mu * c.amplitude * cmath.exp(-1j * c.phase)
    return out


def transition_yield(
    amplitude: TransitionAmplitude, system: LadderSystem, field: ControlField
) -> float:
    """|value|^2 computed from the scaled amplitude; phase factors never enter."""
    prod = 1.0
    for mu, c in zip(system.dipoles, field.components):
        prod *= mu * c.amplitude
    return abs(amplitude.scaled) ** 2 * prod**2


# ---------------------------------------------------------------------------
# nested time-ordered quadrature
# ---------------------------------------------------------------------------


def _panel_integral(env, deltas, t0: float, t1: float, panels: int) -> complex:
    """Nested integral of prod_k s(t_k) exp(-i delta_k t_k) on equal panels.

    Each leg's running antiderivative is, inside a panel, the integration
    matrix applied to the integrand; the carry, the running sum of the
    earlier panels' totals, joins the panels.  Samples are laid out (node,
    panel), so viewed as (re, im) pairs each panel is two real columns and
    the real matrix and weights act by real matmuls.
    """
    x, w, matrix = _panel_rule()
    half = (t1 - t0) / (2 * panels)
    t = half * x[:, None] + (t0 + half * (2 * np.arange(panels) + 1))
    s = env.value(t)
    running = 1.0
    for d in deltas:
        g = (s * np.exp(-1j * d * t) * running).view(np.float64)
        totals = (w @ g).view(np.complex128) * half
        carry = np.cumsum(totals) - totals
        running = (matrix @ g).view(np.complex128) * half + carry
    return complex(carry[-1] + totals[-1])


def amplitude_time_quadrature(
    system: LadderSystem,
    field: ControlField,
    tol: float = 1e-9,
) -> TransitionAmplitude:
    """Transition amplitude by nested time-ordered quadrature on spectral panels.

    Each field component is reduced to its near-resonant term on its own
    transition (the rotating-wave reduction), so leg k integrates
    ``s(t) exp(-i delta_k t)`` and the component prefactors are carried
    analytically; :func:`laddernoise.tdse.propagate` is the only path without
    that reduction.

    The support is cut into equal panels of 16 Gauss-Legendre nodes, each
    integrated by a spectral integration matrix (Greengard 1991).  The
    starting panel count gives 20 nodes per period of the fastest detuning
    and 12 per envelope feature; it doubles, up to 2^23 + 1 nodes, until two
    successive values agree to ``tol`` (relative, with an absolute floor of
    ``tol * 1e-4`` times the resonant magnitude).  Running out of grids raises
    :class:`QuadratureConvergenceError`; a start that leaves fewer than two
    grids under the cap raises before any is built.

    Requires one component per transition.
    """
    detunings = detunings_for(system, field)  # also enforces M = N
    n = detunings.n
    env = field.envelope
    t0, t1 = env.support()
    fastest = max(abs(d) for d in detunings.deltas)
    nodes = (t1 - t0) * max(20.0 * fastest / (2 * math.pi), 12.0 / env.effective_duration)
    floor = tol * 1e-4 * env.effective_duration**n / math.factorial(n)
    value = _refine(_panel_levels(nodes),
                    lambda p: _panel_integral(env, detunings.deltas, t0, t1, p),
                    tol, floor, "time-ordered quadrature")
    return TransitionAmplitude.from_scaled(
        (1j) ** n * value, system, field, AmplitudeMethod.TIME_QUADRATURE
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _delay_frequencies(detunings: Detunings) -> tuple[float, ...]:
    """Oscillation frequency ``k Delta_N - N Delta_k`` of each delay k = 1..N-1."""
    n = detunings.n
    if n < 2:
        raise ValueError("the delay-integral kernel needs at least two rungs")
    total = detunings.total
    return tuple(k * total - n * detunings.cumulants[k - 1] for k in range(1, n))


@lru_cache(maxsize=None)
def _damping_matrix(n: int) -> np.ndarray:
    q = np.zeros((n - 1, n - 1))
    for k in range(1, n):
        q[k - 1, k - 1] = k * (n - k)
        for j in range(k + 1, n):
            q[k - 1, j - 1] = q[j - 1, k - 1] = k * (n - j)
    q.setflags(write=False)
    return q


@lru_cache(maxsize=None)
def _truncation_radius(n: int) -> float:
    # big enough that the damping factor is below 1e-18 everywhere outside
    lam_min = float(np.linalg.eigvalsh(_damping_matrix(n))[0])
    return math.sqrt(4.0 * n * math.log(1e18) / lam_min)


@lru_cache(maxsize=16)
def _delay_grid(n: int, nodes_per_dim: int):
    """Gauss-Legendre nodes on [0, R] and the damped tensor weights on [0, R]^(N-1).

    Returns the 1-D nodes ``x`` and the flat (C-order) weight tensor with the
    damping factor exp(-tau.Q.tau / 4N) applied: entry p belongs to the delay
    point whose coordinates are x at the multi-index of p.  The tensor is built
    from open grids, so no point array is ever formed.
    """
    radius = _truncation_radius(n)
    x, w = np.polynomial.legendre.leggauss(nodes_per_dim)
    x = radius * (x + 1.0) / 2.0
    w = w * radius / 2.0
    q = _damping_matrix(n)
    axes = np.meshgrid(*([x] * (n - 1)), indexing="ij", sparse=True)
    damping = np.zeros((nodes_per_dim,) * (n - 1))
    for k, j in np.ndindex(q.shape):
        damping += q[k, j] * (axes[k] * axes[j])
    np.divide(damping, -4.0 * n, out=damping)
    weighted = np.exp(damping, out=damping)
    for wk in np.meshgrid(*([w] * (n - 1)), indexing="ij", sparse=True):
        weighted *= wk
    weighted = weighted.ravel()
    x.setflags(write=False)
    weighted.setflags(write=False)
    return x, weighted


def _separable_delay_integral(
    x: np.ndarray, weighted: np.ndarray, freq: tuple[float, ...]
) -> complex:
    """sum_p weighted[p] exp(-i freq . tau_p) over the tensor grid on nodes x.

    The phase is a sum over the delays, so the sum is the weight tensor
    contracted with one phase vector exp(-i freq_k x) per delay.  The last
    (contiguous) axis goes first, as one real matmul against the (re, im)
    pairs of its phase vector, so the real weights are never copied to
    complex.
    """
    nodes = x.size
    pairs = np.exp(-1j * freq[-1] * x).view(np.float64).reshape(nodes, 2)
    acc = (weighted.reshape(-1, nodes) @ pairs).view(np.complex128)
    for f in freq[-2::-1]:
        acc = acc.reshape(-1, nodes) @ np.exp(-1j * f * x)
    return complex(acc.item())


# per-dimension node ladders, sized so the largest tensor grid stays a few
# million points (the resonant integrals converge several levels earlier)
_NODE_LADDERS = {
    2: (64, 128, 256, 512, 1024, 2048, 4096),
    3: (64, 128, 256, 512, 1024, 2048),
    4: (32, 48, 64, 96, 128),
    5: (16, 24, 32, 48),
}


def scaled_amplitude_gaussian(
    detunings: Detunings,
    envelope: GaussianEnvelope,
    tol: float = 1e-7,
) -> complex:
    """Gaussian-envelope closed form for the scaled amplitude, 2 <= N <= 5.

    Evaluates the analytic prefactor times the damped oscillatory integral
    over the inter-event delays by tensor Gauss-Legendre quadrature on the
    truncated box, refining the per-dimension node count along
    ``_NODE_LADDERS[N]`` until the relative change drops below ``tol`` (with an
    absolute floor of ``tol * 1e-12``); a ladder that runs out first raises
    :class:`QuadratureConvergenceError`.  The phase is a sum over the delays,
    so each level contracts the damped weight tensor with a product of
    one-dimensional phase vectors: (N-1) * nodes exponentials, not
    nodes^(N-1).
    """
    if not isinstance(envelope, GaussianEnvelope):
        raise TypeError("this closed form requires a Gaussian envelope")
    n = detunings.n
    if not 2 <= n <= 5:
        raise ValueError("supported rung counts are 2..5; use the resonant form "
                         "for N = 1 or time-domain quadrature otherwise")
    frequencies = _delay_frequencies(detunings)
    sigma = envelope.sigma
    tau = envelope.tau
    osc = max(abs(f) for f in frequencies) / (n * sigma)
    if osc > _OSCILLATION_BOUND:
        warnings.warn(
            f"oscillation rate {osc:.1f} exceeds the supported bound "
            f"{_OSCILLATION_BOUND}; accuracy degrades, consider the asymptote",
            AccuracyWarning,
            stacklevel=2,
        )
    freq = tuple(f / (n * sigma) for f in frequencies)
    integral = _refine(_NODE_LADDERS[n],
                       lambda nodes: _separable_delay_integral(*_delay_grid(n, nodes), freq),
                       tol, tol * 1e-12, "delay-integral quadrature")
    prefactor = (
        (1j) ** n
        * tau**n
        * math.exp(-detunings.total**2 / (n * sigma**2))
        / (2 ** (n - 1) * math.pi ** ((n - 1) / 2) * math.sqrt(n))
    )
    return prefactor * integral


def gaussian_suppression_asymptote(detunings: Detunings, sigma: float) -> float:
    """Narrow-bandwidth magnitude proxy sigma^(N-1) e^{-Delta_N^2/(N sigma^2)} / prod|D_k|.

    Valid for sigma well below every |delta_k| with all oscillation
    frequencies D_k nonzero; emits :class:`ValidityWarning` outside that
    regime and raises if some D_k vanishes (degenerate direction).
    """
    n = detunings.n
    frequencies = _delay_frequencies(detunings)
    scale = max(abs(d) for d in detunings.deltas)
    if any(abs(f) <= 1e-12 * max(scale, 1.0) for f in frequencies):
        raise ValueError(
            "a delay-oscillation frequency vanishes; the asymptote is invalid "
            "along that degenerate direction"
        )
    if sigma > min(abs(d) for d in detunings.deltas):
        warnings.warn(
            "asymptote evaluated outside its regime (sigma not small compared "
            "with the detunings)",
            ValidityWarning,
            stacklevel=2,
        )
    prod = math.prod(abs(f) for f in frequencies)
    return sigma ** (n - 1) * math.exp(-detunings.total**2 / (n * sigma**2)) / prod


def scaled_amplitude_rect_distinct(detunings: Detunings, duration: float) -> complex:
    """Rectangular-envelope residue sum over distinct cumulant detunings.

    ``(-1)^N sum_q e^{-i (Delta_N - Delta_q) T} prod_{j != q} (Delta_j - Delta_q)^{-1}``
    with Delta_0 = 0 included in the pole set.  Near-degenerate cumulants
    lose all significance in the pole products, so separations at or below
    1e-6 of the largest |Delta| (at least 1e-6) raise
    :class:`DegenerateCumulantsError`; a phase (Delta_N - Delta_q) T that is
    not finite raises ``OverflowError``.
    """
    n = detunings.n
    cums = (0.0, *detunings.cumulants)
    sep_tol = 1e-6 * max(1.0, *(abs(c) for c in cums))
    gap = min(abs(a - b) for i, a in enumerate(cums) for b in cums[i + 1:])
    if gap <= sep_tol:
        raise DegenerateCumulantsError(
            f"cumulant detunings separated by {gap:.3e} <= {sep_tol:.3e}; "
            "use the equal-detuning form or time-domain quadrature"
        )
    total = cums[-1]
    out = 0.0 + 0.0j
    for q, cq in enumerate(cums):
        phase = (total - cq) * duration
        if not math.isfinite(phase):
            raise OverflowError(f"residue phase (Delta_N - Delta_q)*T = {phase} is not finite")
        prod = math.prod(cj - cq for j, cj in enumerate(cums) if j != q)
        out += cmath.exp(-1j * phase) / prod
    return (-1.0) ** n * out


def closed_form_amplitude(
    system: LadderSystem, field: ControlField, tol: float = 1e-7
) -> TransitionAmplitude:
    """Pick the applicable closed form for this field and evaluate it.

    Equal detunings use ``i^N S(-delta)^N / N!`` for either envelope (labelled
    ``rect-equal`` on a rectangular one); otherwise the
    Gaussian delay integral (2 <= N <= 5) or the rectangular residue sum
    applies, falling back to time-domain quadrature for other rung counts
    and for degenerate rectangular cumulants.
    ``tol`` bounds the relative error of any quadrature involved.
    """
    det = detunings_for(system, field)
    n = det.n
    mean = sum(det.deltas) / n
    spread = max(det.deltas) - min(det.deltas)
    if n == 1 or spread <= 1e-12 * max(1.0, abs(mean)):
        scaled = (1j) ** n * field.envelope.spectrum(-mean) ** n / math.factorial(n)
        method = (AmplitudeMethod.RECT_EQUAL
                  if isinstance(field.envelope, RectangularEnvelope)
                  else AmplitudeMethod.RESONANT_CLOSED_FORM)
        return TransitionAmplitude.from_scaled(scaled, system, field, method)
    if isinstance(field.envelope, GaussianEnvelope):
        if n in _NODE_LADDERS:
            scaled = scaled_amplitude_gaussian(det, field.envelope, tol=tol)
            return TransitionAmplitude.from_scaled(
                scaled, system, field, AmplitudeMethod.GAUSSIAN_CLOSED_FORM
            )
    else:
        try:
            scaled = scaled_amplitude_rect_distinct(det, field.envelope.duration)
            return TransitionAmplitude.from_scaled(
                scaled, system, field, AmplitudeMethod.RECT_DISTINCT
            )
        except DegenerateCumulantsError:
            pass
    return amplitude_time_quadrature(system, field, tol=tol)
