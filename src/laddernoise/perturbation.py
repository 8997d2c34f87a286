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
)
from . import quadrature
from .quadrature import (
    _gauss_legendre, _panel_batches, _panel_levels, _panel_rule, _refine,
)

# Oscillation bound for the Gaussian closed form: beyond |D_k|/(N sigma) of
# this value its delay integral is slow (N = 2, 3) or does not converge
# (N = 4), while the time-ordered quadrature takes milliseconds; so
# scaled_amplitude_gaussian refuses such a shot before it builds any grid.
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
    computed, never clamped.  A scaled amplitude or a value that is not
    finite, as from a finite but huge dipole or amplitude, raises
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
        product = _component_product(system, field)
        value = scaled * product
        if not cmath.isfinite(value):
            raise FloatingPointError(
                f"{method.value} amplitude is not finite: {value} "
                f"(prod_k mu_k A_k e^(-i theta_k) = {product})")
        return cls(value, complex(scaled), method)


def _component_product(system: LadderSystem, field: ControlField) -> complex:
    out = 1.0 + 0.0j
    for mu, c in zip(system.dipoles, field.components):
        out *= mu * c.amplitude * cmath.exp(-1j * c.phase)
    return out


def transition_yield(
    amplitude: TransitionAmplitude, system: LadderSystem, field: ControlField
) -> float:
    """|value|^2 computed from the scaled amplitude; phase factors never enter.

    A yield that is not finite raises ``FloatingPointError``.
    """
    prod = 1.0
    for mu, c in zip(system.dipoles, field.components):
        prod *= mu * c.amplitude
    try:
        value = abs(amplitude.scaled) ** 2 * prod**2
    except OverflowError:  # a float power past the largest float raises
        value = math.inf
    if not math.isfinite(value):
        raise FloatingPointError(f"yield |scaled|^2 prod_k (mu_k A_k)^2 is not finite: {value}")
    return value


# ---------------------------------------------------------------------------
# nested time-ordered quadrature
# ---------------------------------------------------------------------------


# the batch cache keeps this many batches: 3 x 4,096 panels x (16 scaled
# samples, a midpoint and a block index) = 1.7 MiB
_CACHED_BATCHES = 3


@lru_cache(maxsize=_CACHED_BATCHES)
def _panel_batch(env, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled samples, node offsets and midpoints, and block index of the panels of ``batch``.

    ``batch`` holds blocks ``(i, panels, first, stop)`` of
    :func:`laddernoise.quadrature._panel_batches`: panels ``first`` to
    ``stop - 1`` of ``env``'s support cut into ``panels``, side by side.  A
    node's time is ``m_p + h_b x_j``: ``m_p`` the midpoint of panel p,
    ``h_b`` the half-width of the panels of its block b and ``x_j`` the rule
    node.  Returned are

    * ``sh = h_b s(t)``, the (node, panel) envelope samples scaled by their
      panel's half-width;
    * ``times``, the (node, block) offsets ``h_b x_j`` flattened, then the
      midpoints, so that one ``exp`` gives the phases of both;
    * ``block``, the index of each panel's block.

    All are read-only, because the cache hands the same ones to every caller.
    """
    t0, t1 = env.support()
    halves = np.array([(t1 - t0) / (2 * panels) for _, panels, _, _ in batch])
    block = np.repeat(np.arange(len(batch)), [stop - first for _, _, first, stop in batch])
    mid = np.hstack([t0 + h * (2 * np.arange(first, stop) + 1)
                     for h, (_, _, first, stop) in zip(halves, batch)])
    offsets = _panel_rule()[0][:, None] * halves
    sh = env.value(offsets.take(block, axis=1) + mid) * halves[block]
    times = np.concatenate([offsets.ravel(), mid])
    for a in (sh, times, block):
        a.setflags(write=False)
    return sh, times, block


# counts tuples whose batch plans are kept; a refinement asks for two or three
_CACHED_PLANS = 16


@lru_cache(maxsize=_CACHED_PLANS)
def _batch_plan(counts, block_panels) -> tuple:
    """Each batch of ``counts``, with where its blocks lie in it.

    One entry per batch of :func:`laddernoise.quadrature._panel_batches`:
    the batch, its blocks as ``(i, lo, hi, first, more)`` (count ``i``'s
    panels from ``first`` on sit in columns ``lo`` to ``hi - 1``, and
    ``more`` says that a later batch goes on with the count) and the
    read-only array of the blocks' ``lo``.  ``block_panels`` is the
    ``_BLOCK_PANELS`` the batches are packed under; it only keys the cache,
    so that a changed block size never finds a stale plan.
    """
    plan = []
    for batch in _panel_batches(counts):
        blocks, lo = [], 0
        for i, panels, first, stop in batch:
            blocks.append((i, lo, lo + stop - first, first, stop < panels))
            lo += stop - first
        starts = np.array([b[1] for b in blocks])
        starts.setflags(write=False)
        plan.append((batch, tuple(blocks), starts))
    return tuple(plan)


@lru_cache(maxsize=None)
def _stacked_rule() -> np.ndarray:
    """The panel rule's integration matrix with its weights as a last row, (17, 16)."""
    _, w, matrix = _panel_rule()
    rule = np.vstack([matrix, w])
    rule.setflags(write=False)
    return rule


def _panel_integral(env, deltas, counts) -> tuple[complex, ...]:
    """Nested integral of prod_k s(t_k) exp(-i delta_k t_k) on equal panels, per count.

    ``counts`` are panel counts; the value for each comes back in order.
    Each leg's running antiderivative is, inside a panel, the integration
    matrix applied to the integrand; the carry, the running sum of the
    earlier panels' totals, joins the panels.  Samples are laid out (node,
    panel), so viewed as (re, im) pairs each panel is two real columns and
    the real matrix and weights act by real matmuls.  The samples carry
    their panel's half-width, which commutes with both, so no leg scales by
    it again.

    All counts are swept together, in the batches of
    :mod:`laddernoise.quadrature`: each count's blocks laid end to end, as
    many to a batch as ``_BLOCK_PANELS`` allows, so memory is bounded at any
    panel count and the first two counts of a refinement share one batch.
    The plan of each counts tuple's batches is cached, and so are the last
    ``_CACHED_BATCHES`` batches, so a scan refines on the same one or two
    batches at every point.  In a batch ``exp(-i d t)`` is formed once per
    distinct detuning, as a phase per node offset of each block times a
    phase per panel midpoint.  The matrix stacked on the weights acts by one
    matmul per leg, which gives the antiderivatives and the panel totals at
    once.  A leg's carry is one cumulative sum over the batch, each block's
    slice shifted to start from its count's end so far.  The first leg is
    not multiplied by its unit antiderivative, and the last leg forms only
    its panel totals and their sum over each block.  How the counts share a
    batch, and so which BLAS kernel its column count picks, changes a value
    only in round-off.
    """
    w = _panel_rule()[1]
    rule = _stacked_rule()
    nodes = len(w)
    last = len(deltas) - 1
    # ends[k][i]: leg k's antiderivative at the end of count i's blocks so far
    ends = [[0j] * len(counts) for _ in deltas]
    for batch, blocks, starts in _batch_plan(tuple(counts), quadrature._BLOCK_PANELS):
        sh, times, block = _panel_batch(env, batch)
        integrands = {}
        for k, d in enumerate(deltas):
            f = integrands.get(d)
            if f is None:
                phase = np.exp(-1j * d * times)
                f = phase[:-len(block)].reshape(nodes, -1).take(block, axis=1)
                f *= phase[-len(block):]
                f *= sh
                integrands[d] = f
            if k:
                # times the previous leg's antiderivative: the matrix's part
                # plus the carry
                run = np.add.accumulate(totals)
                run -= totals
                end = ends[k - 1]
                for i, lo, hi, first, more in blocks:
                    if lo or first:
                        part = run[lo:hi]
                        part += (end[i] if first else 0.0) - part[0]
                    if more:
                        # the carry plus the last total, rounded as the carry
                        # is everywhere else
                        end[i] = complex(run[hi - 1] + totals[hi - 1])
                anti += run
                f = f * anti
            g = f.view(np.float64)
            if k < last:
                out = rule @ g
                anti = out[:nodes].view(np.complex128)
                totals = out[nodes].view(np.complex128)
            else:
                totals = (w @ g).view(np.complex128)
        end = ends[last]
        for (i, _, _, first, _), total in zip(blocks, np.add.reduceat(totals, starts).tolist()):
            end[i] = end[i] + total if first else total
    return tuple(ends[last])


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
    ``tol * 1e-4`` times the resonant magnitude).  The first two counts are
    swept together, in one batch while they fit in one, since the first
    comparison needs both; each later count is swept alone.  Per batch and
    distinct detuning a sweep takes 16 exponentials per block and one per
    panel, and per leg one matmul and one carry scan.  Running out of
    grids raises :class:`QuadratureConvergenceError`; a start that leaves
    fewer than two grids under the cap raises before any is built.

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
                    lambda counts: _panel_integral(env, detunings.deltas, counts),
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
    # big enough that the damping factor is below 1e-18 everywhere outside.
    # The damping matrix is the discrete Brownian-bridge covariance
    # min(k, j) (n - max(k, j)), whose eigenvalues are n / (4 sin^2(m pi / 2n)),
    # m = 1 .. n-1; the smallest is at m = n - 1
    lam_min = n / (4.0 * math.cos(math.pi / (2 * n)) ** 2)
    return math.sqrt(4.0 * n * math.log(1e18) / lam_min)


@lru_cache(maxsize=16)
def _delay_grid(n: int, nodes_per_dim: int):
    """Gauss-Legendre nodes on [0, R] and the damped tensor weights on [0, R]^(N-1).

    The 1-D rule comes from :func:`laddernoise.quadrature._gauss_legendre`.

    Returns the 1-D nodes ``x`` and the flat (C-order) weight tensor with the
    damping factor exp(-tau.Q.tau / 4N) applied: entry p belongs to the delay
    point whose coordinates are x at the multi-index of p.  The tensor is built
    from open grids, so no point array is ever formed.
    """
    radius = _truncation_radius(n)
    x, w = _gauss_legendre(nodes_per_dim)
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


# pairs of leading levels whose end-to-end grid is kept; the largest a
# ladder starts with, N = 3 at 32 + 64 nodes, holds a (96, 96)
# block-diagonal matrix of 74 kB
_CACHED_LEVEL_PAIRS = 4


@lru_cache(maxsize=_CACHED_LEVEL_PAIRS)
def _paired_delay_grid(n: int, levels: tuple[int, ...]):
    """The delay grids of ``levels`` laid end to end, for N = 2 or 3.

    Returns the 1-D nodes of every level end to end, the weights and the
    index at which each level's nodes start.  For N = 2 the weights are the
    levels' weight vectors end to end; for N = 3 each level's (nodes, nodes)
    weight matrix is one diagonal block of a matrix that is zero off the
    blocks.  Only the first two levels of a ladder are laid out this way, as
    :func:`laddernoise.quadrature._refine` asks for them together.
    """
    grids = [_delay_grid(n, nodes) for nodes in levels]
    x = np.concatenate([g[0] for g in grids])
    starts = np.cumsum((0,) + levels[:-1])
    if n == 2:
        weights = np.concatenate([g[1] for g in grids])
    else:
        weights = np.zeros((x.size, x.size))
        for lo, nodes, (_, w) in zip(starts, levels, grids):
            weights[lo:lo + nodes, lo:lo + nodes] = w.reshape(nodes, nodes)
    for a in (x, weights, starts):
        a.setflags(write=False)
    return x, weights, starts


def _delay_integral(
    n: int, levels: tuple[int, ...], freq: tuple[float, ...]
) -> tuple[complex, ...]:
    """sum_p weighted[p] exp(-i freq . tau_p) over the tensor grid of each of ``levels``.

    The phase is a sum over the delays, so each level's sum is its weight
    tensor contracted with one phase vector exp(-i freq_k x) per delay.  For
    N = 2 and 3 a pair of levels is done at once: their nodes lie end to end
    (:func:`_paired_delay_grid`), one ``exp`` gives every delay's phase at
    every node, the last delay is contracted by one real matmul against the
    (re, im) pairs of its phases (for N = 3; the block-diagonal weights keep
    the levels apart), and one ``np.add.reduceat`` sums each level.  A lone
    level, and every level for N = 4, is contracted alone, last
    (contiguous) axis first, so the real weights are never copied to complex.
    """
    if n > 3 or len(levels) == 1:
        return tuple(_tensor_contraction(*_delay_grid(n, nodes), freq) for nodes in levels)
    x, weights, starts = _paired_delay_grid(n, levels)
    phases = np.exp(np.multiply.outer([-1j * f for f in freq], x))
    if n == 3:
        # the second delay summed out: one complex weight per first-delay node
        pairs = phases[1].view(np.float64).reshape(x.size, 2)
        weights = (weights @ pairs).view(np.complex128)[:, 0]
    return tuple(np.add.reduceat(phases[0] * weights, starts).tolist())


def _tensor_contraction(x: np.ndarray, weighted: np.ndarray, freq: tuple[float, ...]) -> complex:
    """One level's sum, its weight tensor contracted one delay at a time."""
    nodes = x.size
    pairs = np.exp(-1j * freq[-1] * x).view(np.float64).reshape(nodes, 2)
    acc = (weighted.reshape(-1, nodes) @ pairs).view(np.complex128)
    for f in freq[-2::-1]:
        acc = acc.reshape(-1, nodes) @ np.exp(-1j * f * x)
    return complex(acc.item())


# per-dimension node ladders, sized so the largest tensor grid stays a few
# million points (the resonant integrals converge several levels earlier).
# N = 3 starts at 32 nodes: at the oscillation rates of a jittered ladder
# (up to about 2) the 32/64 pair already agrees, and the 64-node value is
# exact to rounding; a faster shot pays one more level before it stops
_NODE_LADDERS = {
    2: (64, 128, 256, 512, 1024, 2048, 4096),
    3: (32, 64, 128, 256, 512, 1024, 2048),
    4: (32, 48, 64, 96, 128),
}


def scaled_amplitude_gaussian(
    detunings: Detunings,
    envelope: GaussianEnvelope,
    tol: float = 1e-7,
) -> complex:
    """Gaussian-envelope closed form for the scaled amplitude, 2 <= N <= 4.

    Evaluates the analytic prefactor times the damped oscillatory integral
    over the inter-event delays by tensor Gauss-Legendre quadrature on the
    truncated box, refining the per-dimension node count along
    ``_NODE_LADDERS[N]`` until the relative change drops below ``tol`` (with an
    absolute floor of ``tol * 1e-12``); a ladder that runs out first raises
    :class:`QuadratureConvergenceError`.  So does an oscillation rate
    ``max_k |D_k| / (N sigma)`` above 10, before any grid is built: there
    the integral is slow (N = 2, 3) or does not converge (N = 4).  The
    phase is a sum over the delays, so each level contracts the damped
    weight tensor with a product of one-dimensional phase vectors:
    (N-1) * nodes exponentials, not nodes^(N-1).  The first two
    levels are evaluated in one call of :func:`_delay_integral`; for N = 2
    and 3 their nodes lie end to end, so one exponential, one matmul (N = 3)
    and one segmented sum give both values.
    """
    if not isinstance(envelope, GaussianEnvelope):
        raise TypeError("this closed form requires a Gaussian envelope")
    n = detunings.n
    if n not in _NODE_LADDERS:
        raise ValueError(f"supported rung counts are {min(_NODE_LADDERS)}..{max(_NODE_LADDERS)}; "
                         "use the resonant form for N = 1 or time-domain quadrature otherwise")
    sigma = envelope.sigma
    tau = envelope.tau
    freq = tuple(f / (n * sigma) for f in _delay_frequencies(detunings))
    rate = max(abs(f) for f in freq)
    if not rate <= _OSCILLATION_BOUND:
        raise QuadratureConvergenceError(
            f"delay-integral quadrature: oscillation rate {rate:.3g} is past "
            f"{_OSCILLATION_BOUND:g}", achieved=math.inf)
    integral = _refine(_NODE_LADDERS[n], lambda nodes: _delay_integral(n, nodes, freq),
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
    Gaussian delay integral (2 <= N <= 4) or the rectangular residue sum
    applies.  The time-ordered quadrature (method ``time-quadrature``) takes
    over for other rung counts, for degenerate rectangular cumulants and
    whenever :func:`scaled_amplitude_gaussian` raises
    :class:`QuadratureConvergenceError`: at a Gaussian oscillation rate
    ``max_k |D_k| / (N sigma)`` above 10, or when its node ladder runs out.
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
            try:
                scaled = scaled_amplitude_gaussian(det, field.envelope, tol=tol)
            except QuadratureConvergenceError:
                pass  # too fast, or the ladder ran out: the time quadrature takes over
            else:
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
