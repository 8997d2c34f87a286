"""Shot-to-shot pulse noise: sampling, Monte Carlo averages, analytic averages.

Each laboratory shot draws independent zero-mean offsets for the component
amplitudes, phases, and frequencies; the observable is the ensemble average
of the single-shot yield.  Every run reduces to :func:`single_shot`, the one
place that dispatches on the evaluator.  :func:`draw_offsets` draws an
ensemble once into an offset table, row i from the counter-based Philox
words keyed by (seed, i), one word per noisy slot, each mapped to its
offset by a closed transform (uniform: numpy's ``uniform`` arithmetic;
Gaussian: an inverse normal CDF), and the reduction is a correctly rounded
sum (``math.fsum``), so a fixed (seed, samples) gives the same bits however
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
    """numpy's Philox generator on the key (seed, sample_index) of one table row.

    Its raw words are the words row ``sample_index`` of :func:`draw_offsets`
    takes, and its ``uniform(-h, h)`` draws are that row's uniform offsets.
    It is the tests' reference and a benchmark tracer binding;
    :func:`draw_offsets` never calls it, so a run does not load numpy.random.
    """
    check_seed(seed)
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, sample_index], dtype=np.uint64))
    )


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): the round multipliers
# and the Weyl increments of the two key words
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW = 0xFFFFFFFF

# Philox blocks (rows x blocks per row) computed at a time by draw_offsets,
# which bounds its memory beyond the table
_CHUNK_BLOCKS = 1 << 13


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of ``a`` and the uint64 words ``b``."""
    b_lo, b_hi = b & _LOW, b >> 32
    lo_lo, hi_lo = b_lo * (a & _LOW), b_lo * (a >> 32)
    cross = (lo_lo >> 32) + (hi_lo & _LOW) + b_hi * (a & _LOW)
    return b_hi * (a >> 32) + (hi_lo >> 32) + (cross >> 32), b * a


def _philox_words(seed: int, rows: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 ``blocks`` raw words of ``np.random.Philox(key=[seed, i])``, i in ``rows``.

    numpy steps the 256-bit counter before each block, so block b = 1, 2, ...
    of row i is Philox4x64-10 of the counter (b, 0, 0, 0) under the key
    (seed, i).  ``rows`` is a uint64 array; the result has one row per entry.
    Every uint64 operation is on arrays, which wrap silently; the seed's key
    word is a Python int, so a numpy integer seed does not overflow.
    """
    key = np.repeat(rows, blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(rows))
    c1 = c2 = c3 = np.zeros_like(key)
    k0 = int(seed)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ key, lo0
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        key = key + _PHILOX_W[1]
    return np.stack((c0, c1, c2, c3), axis=1).reshape(len(rows), 4 * blocks)


# Wichura's AS241 (Appl. Statist. 37, 1988) with the coefficients of the
# standard library's NormalDist.inv_cdf, numerator and denominator, highest
# power first: the central branch |p - 1/2| <= 0.425 in 0.180625 - (p - 1/2)^2,
# and the tails in r = sqrt(-log(min(p, 1 - p))), as r - 1.6 up to r = 5 and
# as r - 5 beyond
_AS241_CENTRE = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632045605e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _polynomials(coeffs, r):
    """Numerator and denominator of one AS241 branch at ``r``, by Horner's rule."""
    (num, *num_rest), (den, *den_rest) = coeffs
    for a, b in zip(num_rest, den_rest):
        num, den = num * r + a, den * r + b
    return num, den


def _inverse_normal(m: np.ndarray) -> np.ndarray:
    """Standard normal quantiles at p = (m + 1/2) 2^-53 for 53-bit integers ``m``.

    p - 1/2 and min(p, 1 - p) are formed exactly from ``m``, so the map is
    odd about m = 2^52 - 1/2 and finite at m = 0 and m = 2^53 - 1.
    """
    q = (m - (2**52 - 0.5)) * 2.0**-53
    x = np.empty_like(q)
    centre = np.abs(q) <= 0.425
    qc = q[centre]
    num, den = _polynomials(_AS241_CENTRE, 0.180625 - qc * qc)
    x[centre] = qc * num / den
    tail = ~centre
    qt = q[tail]
    r = np.sqrt(-np.log(0.5 - np.abs(qt)))
    num, den = _polynomials(_AS241_NEAR, r - 1.6)
    far_num, far_den = _polynomials(_AS241_FAR, r - 5.0)
    x[tail] = np.copysign(np.where(r <= 5.0, num / den, far_num / far_den), qt)
    return x


def draw_offsets(noise: NoiseSpec, samples: int, seed: int) -> np.ndarray:
    """The (samples, M, 3) table of (amplitude, phase, frequency) shot offsets.

    A row's slots are its kinds with noise, component by component and
    amplitude, phase, frequency within a component; a kind without noise
    stores 0.0.  Slot w of row i takes raw word w of
    ``np.random.Philox(key=[seed, i])`` (:func:`_philox_words`), and its top
    53 bits m give the offset: -h + 2h (m 2^-53), numpy's ``uniform(-h, h)``,
    for a uniform half-width h, and std Phi^-1((m + 1/2) 2^-53) for a
    Gaussian.  So the table does not depend on the field, and row i not on
    ``samples``.  Rows are computed a chunk at a time, so the memory beyond
    the table stays bounded; an offset that overflows raises
    ``FloatingPointError``.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    check_seed(seed)
    table = np.zeros((samples, len(noise.components), 3))
    slots = [
        (3 * j + k, dist)
        for j, cn in enumerate(noise.components)
        for k, dist in enumerate((cn.amplitude, cn.phase, cn.frequency))
        if dist is not None
    ]
    if not slots:  # nothing to draw: no word is computed
        return table
    cols = [col for col, _ in slots]
    uniform = [w for w, (_, dist) in enumerate(slots) if isinstance(dist, UniformNoise)]
    normal = [w for w, (_, dist) in enumerate(slots) if isinstance(dist, GaussianNoise)]
    half = np.array([slots[w][1].half_width for w in uniform])
    std = np.array([slots[w][1].std for w in normal])
    blocks = -(-len(slots) // 4)
    step = max(1, _CHUNK_BLOCKS // blocks)
    flat = table.reshape(samples, -1)
    with np.errstate(over="raise"):
        for lo in range(0, samples, step):
            rows = np.arange(lo, min(lo + step, samples), dtype=np.uint64)
            m = _philox_words(seed, rows, blocks)[:, : len(slots)] >> 11
            values = np.empty(m.shape)
            values[:, uniform] = -half + (2.0 * half) * (m[:, uniform] * 2.0**-53)
            values[:, normal] = std * _inverse_normal(m[:, normal])
            flat[lo : lo + len(rows), cols] = values
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
        if not all(0.0 <= dk < math.inf for dk in self.d):
            raise ValueError("noise strengths d_k must be nonnegative and finite")
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
