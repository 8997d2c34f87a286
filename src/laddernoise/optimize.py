"""Fluence-penalized amplitude optimization.

Minimizes J = (Obar - O_target)^2 + alpha * sum_l A_l^2 over the nominal
amplitudes with a derivative-free simplex search.  The search runs in
squared-amplitude coordinates u_l = A_l^2 (projected at zero), which matches
the structure of the weak-field objective: there the averaged yield is
coupling^2 * prod_l (u_l + var_l), and the stationary point has
u_l + var_l constant across components wherever u_l > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .model import ControlField, LadderSystem
from .noise import (
    Evaluator,
    NoiseSpec,
    Tolerances,
    amplitude_noise_average,
    draw_offsets,
    ensemble_average,
)
from .perturbation import closed_form_amplitude


DEFAULT_MC_SAMPLES = 2000
DEFAULT_MAX_EVALS = 100_000


class ObservableModel(Enum):
    ANALYTIC = "analytic"
    MC = "mc"


@dataclass(frozen=True)
class ObjectiveSpec:
    """Target yield, fluence weight, the averaged-yield model and its shot evaluator.

    :func:`yield_model` checks that the model fits the evaluator and the noise.
    """

    target_yield: float
    fluence_weight: float
    observable: ObservableModel = ObservableModel.ANALYTIC
    mc_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0
    tolerances: Tolerances = Tolerances()
    evaluator: Evaluator = Evaluator.CLOSED_FORM

    def __post_init__(self):
        if not 0.0 < self.target_yield < 1.0:
            raise ValueError("target_yield must lie in (0, 1)")
        if not self.fluence_weight > 0.0:
            raise ValueError("fluence_weight must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    amplitudes: tuple[float, ...]
    objective: float
    iterations: int
    converged: bool
    condition_residual: float


def coupling_magnitude(
    system: LadderSystem, field: ControlField, tol: float = 1e-7
) -> float:
    """|scaled amplitude * prod_k mu_k|, the amplitude-independent yield scale."""
    amp = closed_form_amplitude(system, field, tol=tol)
    return abs(amp.scaled * math.prod(system.dipoles))


def check_observable(observable: ObservableModel, evaluator: Evaluator, noise: NoiseSpec) -> None:
    """Raise ``ValueError`` if ``observable`` cannot average ``evaluator`` shots under ``noise``.

    The analytic coupling^2 prod_l (A_l^2 + var_l) is the closed-form shot
    yield averaged over amplitude noise only: phase noise leaves it unchanged,
    frequency noise would be ignored.  The mc observable takes any of them.
    """
    if observable is not ObservableModel.ANALYTIC:
        return
    if evaluator is not Evaluator.CLOSED_FORM:
        raise ValueError("observable analytic needs the closed-form evaluator; use mc")
    if any(c.frequency is not None for c in noise.components):
        raise ValueError(
            "observable analytic averages amplitude noise only and would "
            "ignore the frequency noise; use mc"
        )


def yield_model(
    spec: ObjectiveSpec,
    system: LadderSystem,
    field: ControlField,
    noise: NoiseSpec,
) -> Callable[[np.ndarray], float]:
    """Averaged-yield Obar as a function of the nominal amplitude vector.

    Raises ``ValueError`` when :func:`check_observable` refuses the spec's
    observable, evaluator and noise.  The analytic model handles amplitude
    noise in closed form; the MC model draws one fixed-seed offset table here
    and averages ``spec.evaluator`` shots over it per evaluation (common
    random numbers, so the objective stays deterministic).  With quiet
    ``noise`` every shot is the nominal field, so the table has two rows,
    the least an ensemble takes.
    """
    check_observable(spec.observable, spec.evaluator, noise)
    if spec.observable is ObservableModel.ANALYTIC:
        coupling = coupling_magnitude(system, field, spec.tolerances.closed_form_tol)
        variances = noise.amplitude_variances()

        def analytic(amps: np.ndarray) -> float:
            return amplitude_noise_average(coupling, amps, variances)

        return analytic

    offsets = draw_offsets(noise, spec.mc_samples if noise.active else 2, spec.seed)

    def monte_carlo(amps: np.ndarray) -> float:
        shifted = field.with_amplitudes(tuple(float(a) for a in amps))
        stats = ensemble_average(
            system, shifted, offsets, spec.evaluator, tolerances=spec.tolerances
        )
        return stats.mean

    return monte_carlo


def verify_optimality_condition(amplitudes, variances) -> float:
    """Spread max_l - min_l of A_l^2 + var_l (zero at a weak-field optimum)."""
    vals = [float(a) ** 2 + float(v) for a, v in zip(amplitudes, variances, strict=True)]
    return max(vals) - min(vals)


# ---------------------------------------------------------------------------
# simplex search
# ---------------------------------------------------------------------------

_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


def _nelder_mead(f, x0: np.ndarray, step, max_evals: int):
    """Nelder-Mead clamped at zero; returns (x, fx, evals, converged).

    ``step`` gives the absolute initial simplex offset per coordinate
    (scalar or array); trial points are clamped at zero before ``f`` sees them.
    ``f`` runs at most ``max_evals`` times, which must cover the dim + 1
    points of the first simplex.
    """
    dim = len(x0)
    steps = np.broadcast_to(np.asarray(step, dtype=float), (dim,))
    evals = 0

    def feval(x):
        nonlocal evals
        if evals == max_evals:  # out of budget: infinitely bad, f is not called
            return np.inf
        evals += 1
        return f(np.maximum(x, 0.0))

    simplex = [np.maximum(np.asarray(x0, dtype=float), 0.0)]
    for i in range(dim):
        v = simplex[0].copy()
        v[i] += steps[i]
        simplex.append(v)
    values = [feval(v) for v in simplex]

    while True:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diam = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
        if diam < 1e-8 and values[-1] - values[0] < 1e-10:
            return simplex[0], values[0], evals, True
        if evals == max_evals:
            return simplex[0], values[0], evals, False
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + _REFLECT * (centroid - worst)
        fr = feval(reflected)
        if fr < values[0]:
            expanded = centroid + _EXPAND * (reflected - centroid)
            fe = feval(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + _CONTRACT * (worst - centroid)
            fc = feval(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                best = simplex[0]
                simplex = [best] + [best + _SHRINK * (v - best) for v in simplex[1:]]
                values = [values[0]] + [feval(v) for v in simplex[1:]]


def optimize_amplitudes(
    spec: ObjectiveSpec,
    system: LadderSystem,
    field: ControlField,
    noise: NoiseSpec,
    init: Sequence[float],
    max_evals: int = DEFAULT_MAX_EVALS,
    trace: list | None = None,
) -> OptimizationResult:
    """Minimize the fluence-penalized objective over nominal amplitudes.

    Runs the projected simplex search from the initial amplitudes and from
    scaled copies of them, keeping the best point; exact objective ties are
    broken toward the lexicographically smallest amplitude vector so
    symmetric problems return a reproducible answer.  Every objective
    evaluation counts against one budget of ``max_evals``, which must cover
    one simplex (M + 1 points); the search converged only if no stage ran
    out of it.  Each evaluation appends its (amplitudes, J) pair to ``trace``
    when one is given, the first at ``init``.
    """
    dim = len(init)
    if max_evals < dim + 1:
        raise ValueError(f"max_evals {max_evals} is below M + 1 = {dim + 1}, one simplex")
    model = yield_model(spec, system, field, noise)

    def f_u(u: np.ndarray) -> float:  # _nelder_mead passes u clamped at zero
        amps = np.sqrt(u)
        val = (model(amps) - spec.target_yield) ** 2
        val += spec.fluence_weight * float(np.sum(u))
        if trace is not None:
            trace.append((tuple(float(a) for a in amps), val))
        return val

    u_init = np.square(np.asarray(init, dtype=float))
    remaining = max_evals
    converged = True
    best = None
    for u0 in (u_init, 0.25 * u_init, 2.25 * u_init):
        x, fx = u0, None
        # a coarse search, then a tighter polish around its point (never worsens)
        for scale in (0.25, 0.01):
            if remaining < dim + 1:
                converged = False
                break
            step = scale * np.maximum(np.abs(x), 0.1)
            x, fx, used, ok = _nelder_mead(f_u, x, step, remaining)
            remaining -= used
            converged = converged and ok
        if fx is None:
            break
        amps = tuple(float(a) for a in np.sqrt(np.maximum(x, 0.0)))
        if best is None or fx < best[1] - 1e-14 or (
            abs(fx - best[1]) <= 1e-14 and amps < best[0]
        ):
            best = (amps, fx)
    amps, fx = best
    residual = verify_optimality_condition(amps, noise.amplitude_variances())
    return OptimizationResult(
        amplitudes=amps,
        objective=fx,
        iterations=max_evals - remaining,
        converged=converged,
        condition_residual=residual,
    )
