"""Shot-to-shot pulse noise: sampling, Monte Carlo averages, analytic averages.

Each laboratory shot draws independent zero-mean offsets for the component
amplitudes, phases, and frequencies; the observable is the ensemble average
of the single-shot yield.  Every run reduces to :func:`single_shot`, the one
place that dispatches on the evaluator.  :func:`draw_offsets` draws an
ensemble once into an offset table, row i from its own counter-based stream
keyed by (seed, i), and the reduction is a correctly rounded sum
(``math.fsum``), so a fixed (seed, samples) gives the same bits however
often the table is reused, and in whatever order its rows are.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import EnsembleEvaluationError, ValidityWarning
from .model import (
    ControlField,
    GaussianEnvelope,
    LadderSystem,
    PulseComponent,
)
from .perturbation import (
    _delay_grid,
    amplitude_time_quadrature,
    closed_form_amplitude,
    transition_yield,
)
from .quadrature import _each_level, _refine
from .tdse import default_propagation_spec, population, propagate


@dataclass(frozen=True)
class UniformNoise:
    """Zero-mean uniform offset on [-half_width, +half_width]."""

    half_width: float

    def __post_init__(self):
        if not 0.0 <= self.half_width < math.inf:
            raise ValueError("half_width must be nonnegative and finite")

    @property
    def variance(self) -> float:
        return self.half_width**2 / 3.0

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(-self.half_width, self.half_width))


@dataclass(frozen=True)
class GaussianNoise:
    """Zero-mean normal offset with the given standard deviation."""

    std: float

    def __post_init__(self):
        if not 0.0 <= self.std < math.inf:
            raise ValueError("std must be nonnegative and finite")

    @property
    def variance(self) -> float:
        return self.std**2

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(0.0, self.std))


Distribution = UniformNoise | GaussianNoise


@dataclass(frozen=True)
class ComponentNoise:
    """Noise distributions for one pulse component (None = no noise)."""

    amplitude: Distribution | None = None
    phase: Distribution | None = None
    frequency: Distribution | None = None


@dataclass(frozen=True)
class NoiseSpec:
    """Per-component shot-to-shot noise for a whole field."""

    components: tuple[ComponentNoise, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def quiet(cls, n_components: int) -> "NoiseSpec":
        return cls(ComponentNoise() for _ in range(n_components))

    @classmethod
    def amplitude_uniform(cls, half_widths) -> "NoiseSpec":
        return cls(ComponentNoise(amplitude=UniformNoise(g)) for g in half_widths)

    @classmethod
    def phase_uniform(cls, half_widths) -> "NoiseSpec":
        return cls(ComponentNoise(phase=UniformNoise(g)) for g in half_widths)

    @classmethod
    def frequency_gaussian(cls, d_values, sigma: float) -> "NoiseSpec":
        """Gaussian frequency jitter of strengths d_k: std d_k * sigma / sqrt(2).

        ``sigma`` is the envelope's spectral width.
        """
        return cls(
            ComponentNoise(frequency=GaussianNoise(d * sigma / math.sqrt(2.0))) for d in d_values
        )

    def amplitude_variances(self) -> tuple[float, ...]:
        return tuple(
            c.amplitude.variance if c.amplitude is not None else 0.0
            for c in self.components
        )

    @property
    def active(self) -> bool:
        return any(
            c.amplitude is not None or c.phase is not None or c.frequency is not None
            for c in self.components
        )


def check_seed(seed: int) -> int:
    """``seed``, if it fits the uint64 key of the sample streams, else ``ValueError``."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def sample_stream(seed: int, sample_index: int) -> np.random.Generator:
    """Independent counter-based stream for one ensemble sample."""
    check_seed(seed)
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, sample_index], dtype=np.uint64))
    )


def draw_offsets(noise: NoiseSpec, samples: int, seed: int) -> np.ndarray:
    """The (samples, M, 3) table of (amplitude, phase, frequency) shot offsets.

    Row i draws from the stream of ``sample_stream(seed, i)``, component by
    component and amplitude, phase, frequency within a component; a kind
    without noise draws nothing and stores 0.0.  The table does not depend on
    the field.  One Philox generator serves every row: before row i its key
    becomes (seed, i), its counter 0 and its output buffer empty, which is
    the state a new ``sample_stream(seed, i)`` starts in.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    check_seed(seed)
    table = np.zeros((samples, len(noise.components), 3))
    if not noise.active:  # nothing to draw: no stream is opened
        return table
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    fresh = bits.state  # counter 0, buffer_pos 4 (empty), has_uint32 0
    for i in range(samples):
        fresh["state"]["key"][1] = i
        bits.state = fresh
        for j, cn in enumerate(noise.components):
            for k, dist in enumerate((cn.amplitude, cn.phase, cn.frequency)):
                if dist is not None:
                    table[i, j, k] = dist.sample(rng)
    return table


def sample_field(nominal: ControlField, row) -> tuple[ControlField, int]:
    """The shot of ``nominal`` offset by one row of a :func:`draw_offsets` table.

    ``row`` holds one (amplitude, phase, frequency) triple per component.
    Amplitudes are clamped at zero from below; the number of clamp events is
    returned alongside the field so ensemble statistics can report it.
    (Uniform amplitude noise with half-width <= A never clamps.)
    """
    clamped = 0
    comps = []
    for comp, (d_amp, d_phase, d_freq) in zip(nominal.components, row, strict=True):
        amp = comp.amplitude + d_amp
        if amp < 0.0:
            amp = 0.0
            clamped += 1
        comps.append(PulseComponent(amp, comp.phase + d_phase, comp.frequency + d_freq))
    return ControlField(tuple(comps), nominal.envelope), clamped


def pairwise_sum(values) -> float:
    """Correctly rounded sum (``math.fsum``), so the order of ``values`` does not matter."""
    return math.fsum(values)


@dataclass(frozen=True)
class EnsembleStats:
    """Noise-averaged yield with its Monte Carlo uncertainty."""

    mean: float
    std_error: float
    clamp_events: int = 0


class Evaluator(Enum):
    TDSE = "tdse"
    PERTURB_TIME = "perturb-time"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class Tolerances:
    """Accuracy targets of a run, one pair for the propagator, one per quadrature."""

    tdse_rel_tol: float = 1e-10
    tdse_abs_tol: float = 1e-12
    time_quad_tol: float = 1e-9
    closed_form_tol: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, float) and 0.0 < value <= 1e-2):
                raise ValueError(
                    f"{f.name} must be a number in (0, 1e-2], got {value!r}"
                )


def check_target(system: LadderSystem, evaluator: Evaluator, target_index: int) -> None:
    """Raise ``ValueError`` if ``evaluator`` cannot produce level ``target_index``."""
    if evaluator is not Evaluator.TDSE and target_index != system.n_transitions:
        raise ValueError("perturbative evaluators only produce the top-level yield; use tdse")


def single_shot(
    system: LadderSystem,
    field: ControlField,
    evaluator: Evaluator,
    target_index: int,
    tolerances: Tolerances,
) -> tuple[float, complex, str]:
    """Yield, complex amplitude and method name of one shot of ``field``.

    The amplitude is the target level's coefficient for the propagator and
    the top-rung transition amplitude for the perturbative evaluators, which
    only reach the top level.
    """
    check_target(system, evaluator, target_index)
    if evaluator is Evaluator.TDSE:
        spec = default_propagation_spec(
            field, tolerances.tdse_rel_tol, tolerances.tdse_abs_tol
        )
        state = propagate(system, field, spec)
        return population(state, target_index), state.coeffs[target_index], "tdse"
    if evaluator is Evaluator.PERTURB_TIME:
        amp = amplitude_time_quadrature(system, field, tol=tolerances.time_quad_tol)
    else:
        amp = closed_form_amplitude(system, field, tol=tolerances.closed_form_tol)
    return transition_yield(amp, system, field), amp.value, amp.method.value


def ensemble_average(
    system: LadderSystem,
    nominal: ControlField,
    offsets: np.ndarray,
    evaluator: Evaluator,
    target_index: int | None = None,
    tolerances: Tolerances = Tolerances(),
) -> EnsembleStats:
    """Monte Carlo noise average of the yield over the shots of ``offsets``.

    ``offsets`` is a :func:`draw_offsets` table, one row per shot; a table
    that does not fit ``nominal`` or a perturbative evaluator asked for an
    intermediate target raises ``ValueError`` before any shot.  Yields are
    stored by row and reduced by a correctly rounded sum.
    """
    if target_index is None:
        target_index = system.n_transitions
    samples = len(offsets)
    if samples < 2 or offsets.shape[1:] != (len(nominal.components), 3):
        raise ValueError(f"need a (samples >= 2, M, 3) offset table, got {offsets.shape}")
    check_target(system, evaluator, target_index)

    yields = []
    clamp_events = 0
    for i in range(samples):
        try:
            # row by row: one tolist of the whole table costs more memory
            fld, clamped = sample_field(nominal, offsets[i].tolist())
            yields.append(single_shot(system, fld, evaluator, target_index, tolerances)[0])
        except Exception as exc:  # annotate with the failing sample
            raise EnsembleEvaluationError(i, exc) from exc
        clamp_events += clamped

    mean = pairwise_sum(yields) / samples
    sample_var = pairwise_sum([(y - mean) * (y - mean) for y in yields]) / (samples - 1)
    std_error = math.sqrt(sample_var / samples)
    return EnsembleStats(mean, std_error, clamp_events)


# ---------------------------------------------------------------------------
# analytic noise averages
# ---------------------------------------------------------------------------


def amplitude_noise_average(coupling: float, amplitudes, variances) -> float:
    """Amplitude-noise-averaged yield coupling^2 prod_l (A_l^2 + var_l).

    ``coupling`` is the amplitude-independent magnitude |scaled amplitude *
    prod_k mu_k|; uniform noise of half-width gamma has variance gamma^2/3.
    """
    out = coupling**2
    for a, v in zip(amplitudes, variances, strict=True):
        if v < 0.0:
            raise ValueError("variances must be nonnegative")
        out *= float(a) ** 2 + float(v)
    return out


@dataclass(frozen=True, eq=False)
class FreqNoiseKernel:
    """Closed-form Gaussian average over jittered detunings.

    Built from the dimensionless noise strengths d_k >= 0, the mean
    detunings delta_bar_k and the envelope spectral width sigma.  With the
    delay map w of :meth:`evaluate`, Dbar_N = sum_k delta_bar_k,
    dbar^2 = mean_k d_k^2, kappa = 2 / (N (1 + 2 dbar^2)) and
    b_k = delta_bar_k - kappa Dbar_N d_k^2,

        L = (1 + 2 dbar^2)^(-1/2) exp(-kappa Dbar_N^2 / sigma^2 - i b.w / sigma
                - (sum_k d_k^2 w_k^2 - kappa (sum_k d_k^2 w_k)^2) / 4).

    Every term stays bounded as d -> 0, and d = 0 is the noiseless kernel
    exp(-2 Dbar_N^2 / (N sigma^2) - i delta_bar.w / sigma).
    """

    d: tuple[float, ...]
    delta_bar: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        if not all(dk >= 0.0 for dk in self.d):
            raise ValueError("noise strengths d_k must be nonnegative")
        if len(self.d) != len(self.delta_bar):
            raise ValueError("d and delta_bar must have equal length")

    def evaluate(self, delays, delays_conj):
        """Averaging kernel L_N for one or many delay pairs.

        ``delays`` and ``delays_conj`` broadcast to shape (..., N-1); the
        result is a complex scalar for one pair, else an array of the leading
        shape.
        """
        n = len(self.d)
        d2 = np.square(self.d)
        spread = 1.0 + 2.0 * float(np.mean(d2))
        kappa = 2.0 / (n * spread)
        total = float(np.sum(self.delta_bar))
        b = np.asarray(self.delta_bar) - kappa * total * d2
        u = np.asarray(delays) - np.asarray(delays_conj)
        # v[k] = sum_{j >= k} u_j for k = 1..N-1, and v[N] = 0; w = vbar - v
        v = np.zeros(u.shape[:-1] + (n,))
        v[..., :-1] = np.cumsum(u[..., ::-1], axis=-1)[..., ::-1]
        w = v.mean(axis=-1, keepdims=True) - v
        quad = np.square(w) @ d2 - kappa * np.square(w @ d2)
        expo = -kappa * total**2 / self.sigma**2 - 0.25 * quad - 1j * (w @ b) / self.sigma
        out = np.exp(expo) / math.sqrt(spread)
        return complex(out) if u.ndim == 1 else out


# per-dimension node ladders of the delay-pair quadrature
_PAIR_NODE_LADDERS = {2: (32, 64, 128, 256, 512), 3: (12, 18, 24, 36)}


def _pair_sum(kernel: FreqNoiseKernel, n: int, nodes: int) -> float:
    """Sum of w[p] Re L(tau_p, tau_q) w[q] over all point pairs of one delay grid.

    The pair grid is the Cartesian square of the single-amplitude delay grid,
    so the damped pair weight is w[p] w[q]; the kernel is evaluated on about
    2^18 pairs at a time, one block of rows p against every q.
    """
    x, weights, _ = _delay_grid(n, (nodes,))
    weighted = weights.ravel()
    grids = np.meshgrid(*([x] * (n - 1)), indexing="ij")
    pts = np.stack(grids, axis=-1).reshape(-1, n - 1)
    block = max(1, (1 << 18) // pts.shape[0])
    total = 0.0
    for lo in range(0, pts.shape[0], block):
        rows = slice(lo, lo + block)
        lvals = kernel.evaluate(pts[rows, None], pts)
        total += float(np.real(weighted[rows] @ lvals @ weighted))
    return total


def frequency_noise_average(
    envelope: GaussianEnvelope,
    d,
    delta_bar,
    tol: float = 1e-6,
) -> float:
    """Detuning-noise average of the squared scaled amplitude, N in {2, 3}.

    The detuning of transition k is Gaussian with mean ``delta_bar[k]`` and
    standard deviation d_k sigma / sqrt(2), d_k >= 0, so all-zero strengths
    give the noiseless ``|scaled_amplitude_gaussian|^2``.  Evaluates the
    2(N-1)-dimensional delay integral with the closed-form kernel
    :class:`FreqNoiseKernel` by tensor quadrature, including the
    tau^{2N} / ((4 pi)^{N-1} N) scale.  Each level of the node ladder sums
    the kernel over all pairs of points of the single-amplitude delay grid
    (``_pair_sum``); levels are refined until two agree to ``tol``
    (relative), and a ladder that runs out first raises
    :class:`QuadratureConvergenceError`.  Larger ladders should use the Monte
    Carlo path (the observable is itself an expectation value).
    """
    if not isinstance(envelope, GaussianEnvelope):
        raise TypeError("frequency-noise averaging requires a Gaussian envelope")
    d = tuple(d)
    n = len(d)
    if n not in _PAIR_NODE_LADDERS:
        raise ValueError(
            f"analytic frequency-noise averaging supports N in {set(_PAIR_NODE_LADDERS)}; "
            "use the Monte Carlo ensemble for larger ladders"
        )
    kernel = FreqNoiseKernel(d, tuple(delta_bar), envelope.sigma)
    value = _refine(_PAIR_NODE_LADDERS[n],
                    _each_level(lambda nodes: _pair_sum(kernel, n, nodes)),
                    tol, tol * 1e-300, "delay-pair quadrature")
    scale = envelope.tau ** (2 * n) / ((4.0 * math.pi) ** (n - 1) * n)
    return scale * value


def strong_detuning_asymptote(delta_bar, d_sq_mean: float, sigma: float) -> float:
    """Strong-detuning noise-average proxy exp[-4 Dbar_N^2 / (N sigma^2 (1+2 dbar^2))].

    Proportionality only (no absolute prefactor); valid when every mean
    detuning is large compared with its jitter scale sigma*d, otherwise a
    :class:`ValidityWarning` is emitted.
    """
    db = tuple(float(x) for x in delta_bar)
    if d_sq_mean < 0.0:
        raise ValueError("d_sq_mean must be nonnegative")
    if min(abs(x) for x in db) < 3.0 * sigma * math.sqrt(d_sq_mean):
        warnings.warn(
            "strong-detuning asymptote used where detunings are not large "
            "compared with the jitter scale",
            ValidityWarning,
            stacklevel=2,
        )
    return math.exp(-4.0 * sum(db) ** 2 / (len(db) * sigma**2 * (1.0 + 2.0 * d_sq_mean)))


def rect_noise_limit(n: int, delta_bar: float) -> float:
    """Wide-jitter average of the rectangular-pulse yield: (2N)!/(N!)^4 dbar^-2N.

    Valid when the detuning spread greatly exceeds pi/T (so the oscillation
    averages out) while staying small compared with the mean detuning; the
    caller is responsible for those flags.
    """
    if delta_bar == 0.0:
        raise ValueError("the limit requires a nonzero mean detuning")
    return (
        math.factorial(2 * n)
        / math.factorial(n) ** 4
        * abs(delta_bar) ** (-2.0 * n)
    )
