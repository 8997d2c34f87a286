"""Lowest-order transition amplitude of a driven ladder.

The amplitude for climbing all N rungs is an N-fold time-ordered integral
over the field.  This module evaluates it four ways:

* nested time-ordered quadrature (any envelope, with or without the
  rotating-wave reduction of each field component);
* the equal-detuning closed form ``i^N S(-delta)^N / N!``;
* the Gaussian-envelope closed form, a damped oscillatory integral over the
  (N-1) inter-event delays;
* rectangular-envelope closed forms (distinct-cumulant residue sum and the
  equal-detuning antiresonance formula).

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
    QuadratureConvergenceError,
    ValidityWarning,
)
from .model import (
    ControlField,
    Detunings,
    GaussianEnvelope,
    LadderSystem,
    RectangularEnvelope,
    detunings_for,
    transition_frequencies,
)

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
    computed, never clamped.
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


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running antiderivative of uniformly sampled y (odd length), O(h^4)."""
    out = np.empty_like(y)
    out[0] = 0.0
    pair = (y[0:-2:2] + 4.0 * y[1::2] + y[2::2]) * (dx / 3.0)
    even = np.concatenate((np.zeros(1, dtype=y.dtype), np.cumsum(pair)))
    out[0::2] = even
    # odd nodes: integral of the local quadratic over the first sub-interval
    out[1::2] = even[:-1] + (5.0 * y[0:-2:2] + 8.0 * y[1::2] - y[2::2]) * (dx / 12.0)
    return out


def _nested_integral(legs, t0: float, t1: float, npts: int) -> complex:
    """Innermost-first running antiderivatives of leg_k(t) * I_{k-1}(t)."""
    t = np.linspace(t0, t1, npts)
    dx = t[1] - t[0]
    running = np.ones_like(t, dtype=complex)
    for leg in legs:
        running = _cumulative_simpson(leg(t) * running, dx)
    return complex(running[-1])


def _refined_nested(legs, t0, t1, n0, tol, scale) -> complex:
    npts = n0
    prev = _nested_integral(legs, t0, t1, npts)
    floor = tol * 1e-4 * scale
    err = math.inf
    while True:
        npts = 2 * npts - 1
        if npts > 2**23 + 1:
            raise QuadratureConvergenceError(
                "time-ordered quadrature did not converge", achieved=err
            )
        cur = _nested_integral(legs, t0, t1, npts)
        err = abs(cur - prev)
        if err <= max(tol * abs(cur), floor):
            # one Richardson step on the O(h^4) composite rule
            return cur + (cur - prev) / 15.0
        prev = cur


def _grid_points(span: float, density: float) -> int:
    n = max(257, int(math.ceil(span * density)))
    # round up to 2^k + 1 so halving/doubling stays aligned
    k = max(8, int(math.ceil(math.log2(n - 1))))
    return 2**k + 1


def amplitude_time_quadrature(
    system: LadderSystem,
    field: ControlField,
    rwa: bool = True,
    tol: float = 1e-9,
) -> TransitionAmplitude:
    """Transition amplitude by nested time-ordered quadrature.

    With ``rwa`` set, each field component is reduced to its near-resonant
    term when it multiplies its own transition, so leg k integrates
    ``s(t) exp(-i delta_k t)`` and the component prefactors are carried
    analytically.  Without it, the full real field multiplies every leg and
    all cross-component and counter-rotating pathways are retained; the grid
    then resolves the fastest carrier with at least 40 points per period.

    Requires one component per transition.
    """
    detunings = detunings_for(system, field)  # also enforces M = N
    n = detunings.n
    env = field.envelope
    t0, t1 = env.support()
    span = t1 - t0
    feature = env.tau if isinstance(env, GaussianEnvelope) else env.duration
    scale = env.effective_duration**n / math.factorial(n)

    if rwa:
        density = 40.0 * max(abs(d) for d in detunings.deltas) / (2 * math.pi)
        density = max(density, 24.0 / feature)
        legs = [
            (lambda t, d=d: env.value(t) * np.exp(-1j * d * t))
            for d in detunings.deltas
        ]
        scaled = (1j) ** n * _refined_nested(
            legs, t0, t1, _grid_points(span, density), tol, scale
        )
        return TransitionAmplitude.from_scaled(
            scaled, system, field, AmplitudeMethod.TIME_QUADRATURE
        )

    wbar = transition_frequencies(system)
    fmax = max(wbar) + max(c.frequency for c in field.components)
    density = max(40.0 * fmax / (2 * math.pi), 24.0 / feature)
    legs = [(lambda t, w=w: field.value(t) * np.exp(1j * w * t)) for w in wbar]
    raw = (1j) ** n * _refined_nested(
        legs, t0, t1, _grid_points(span, density), tol, scale
    )
    mu_prod = 1.0
    for mu in system.dipoles:
        mu_prod *= mu
    value = raw * mu_prod
    denom = _component_product(system, field)
    scaled = value / denom if denom != 0.0 else complex("nan")
    return TransitionAmplitude(value, scaled, AmplitudeMethod.TIME_QUADRATURE)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def amplitude_resonant(
    system: LadderSystem, field: ControlField
) -> TransitionAmplitude:
    """Equal-detuning closed form: scaled amplitude i^N S(-delta)^N / N!.

    All components must share a common detuning (exact resonance included).
    """
    det = detunings_for(system, field)
    mean = sum(det.deltas) / det.n
    spread = max(det.deltas) - min(det.deltas)
    if spread > 1e-12 * max(1.0, abs(mean)):
        raise ValueError(
            f"detunings are not equal (spread {spread:.3e}); use the Gaussian "
            "closed form or the time-domain quadrature"
        )
    scaled = _resonant_scaled(field, mean, det.n)
    return TransitionAmplitude.from_scaled(
        scaled, system, field, AmplitudeMethod.RESONANT_CLOSED_FORM
    )


def _resonant_scaled(field: ControlField, mean: float, n: int) -> complex:
    """Equal-detuning scaled amplitude i^N S(-mean)^N / N!."""
    s_val = complex(field.envelope.spectrum(-mean))
    return (1j) ** n * s_val**n / math.factorial(n)


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
    truncated box, doubling the per-dimension node count until the relative
    change drops below ``tol``.  The phase is a sum over the delays, so each
    level contracts the damped weight tensor with a product of
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
    prev = None
    result = None
    last_diff = math.inf
    for nodes in _NODE_LADDERS[n]:
        x, weighted = _delay_grid(n, nodes)
        integral = _separable_delay_integral(x, weighted, freq)
        if prev is not None:
            last_diff = abs(integral - prev)
            if last_diff <= tol * max(abs(integral), 1e-12):
                result = integral
                break
        prev = integral
    if result is None:
        raise QuadratureConvergenceError(
            "delay-integral quadrature did not converge", achieved=last_diff
        )
    prefactor = (
        (1j) ** n
        * tau**n
        * math.exp(-detunings.total**2 / (n * sigma**2))
        / (2 ** (n - 1) * math.pi ** ((n - 1) / 2) * math.sqrt(n))
    )
    return prefactor * result


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
    prod = 1.0
    for f in frequencies:
        prod *= abs(f)
    return sigma ** (n - 1) * math.exp(-detunings.total**2 / (n * sigma**2)) / prod


def scaled_amplitude_rect_distinct(detunings: Detunings, duration: float) -> complex:
    """Rectangular-envelope residue sum over distinct cumulant detunings.

    ``(-1)^N sum_q e^{-i (Delta_N - Delta_q) T} prod_{j != q} (Delta_j - Delta_q)^{-1}``
    with Delta_0 = 0 included in the pole set.  Near-degenerate cumulants
    lose all significance in the pole products, so separations at or below
    1e-6 of the largest |Delta| (at least 1e-6) raise
    :class:`DegenerateCumulantsError`.
    """
    n = detunings.n
    cums = np.concatenate([[0.0], np.asarray(detunings.cumulants)])
    scale = max(1.0, float(np.max(np.abs(cums))))
    sep_tol = 1e-6 * scale
    diffs = np.abs(cums[:, None] - cums[None, :])[np.triu_indices(n + 1, k=1)]
    if diffs.min() <= sep_tol:
        raise DegenerateCumulantsError(
            f"cumulant detunings separated by {diffs.min():.3e} <= {sep_tol:.3e}; "
            "use the equal-detuning form or time-domain quadrature"
        )
    total = cums[-1]
    out = 0.0 + 0.0j
    for q in range(n + 1):
        prod = 1.0
        for j in range(n + 1):
            if j != q:
                prod *= cums[j] - cums[q]
        out += np.exp(-1j * (total - cums[q]) * duration) / prod
    return (-1.0) ** n * out


def scaled_amplitude_rect_equal(delta: float, duration: float, n: int) -> complex:
    """Rectangular-envelope closed form when every detuning equals ``delta``.

    ``(-1)^N delta^-N (e^{-i T delta} - 1)^N / N!``, evaluated through the
    cancellation-free half-angle form; the delta -> 0 limit is i^N T^N / N!.
    The magnitude oscillates as sin^(2N)(T delta / 2) and vanishes exactly at
    T delta = 2 pi n (the antiresonance).
    """
    if delta == 0.0:
        return (1j) ** n * duration**n / math.factorial(n)
    x = duration * delta
    # e^{-ix} - 1 without small-angle cancellation
    half = math.sin(x / 2.0)
    phasor = complex(-2.0 * half * half, -math.sin(x))
    return (-1.0) ** n * (phasor / delta) ** n / math.factorial(n)


def closed_form_amplitude(
    system: LadderSystem, field: ControlField, tol: float = 1e-7
) -> TransitionAmplitude:
    """Pick the applicable closed form for this field and evaluate it.

    Equal detunings use the resonant form for any envelope; otherwise the
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
        if isinstance(field.envelope, RectangularEnvelope):
            scaled = scaled_amplitude_rect_equal(mean, field.envelope.duration, n)
            method = AmplitudeMethod.RECT_EQUAL
        else:
            scaled = _resonant_scaled(field, mean, n)
            method = AmplitudeMethod.RESONANT_CLOSED_FORM
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
    return amplitude_time_quadrature(system, field, rwa=True, tol=tol)
